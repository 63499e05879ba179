//! The fleet harness in its 1×1 shape — the plain HTTP run — end to end:
//! zero torn reads, zero HTTP errors, single-target and plan ops both
//! byte-verified, refreshes mid-run, and at least one complete TTL
//! expiry→refresh→publish cycle observed over the wire.

use opaq_metrics::SloThresholds;
use opaq_net::{run_fleet_workload, ChaosConfig, FleetWorkloadSpec, NetError};
use std::time::Duration;

#[test]
fn quick_http_workload_serves_everything_untorn() {
    let mut spec = FleetWorkloadSpec::quick();
    spec.spec.clients = 4;
    spec.spec.tenants = 2;
    spec.spec.ops_per_client = 150;
    spec.ttl = Some(Duration::from_millis(80));
    let report = run_fleet_workload(&spec).unwrap();

    assert_eq!(
        report.torn_reads,
        0,
        "torn reads over the wire:\n{}",
        report.render()
    );
    assert_eq!(report.http_errors, 0, "{}", report.render());
    // One server and no injected faults: every request is answered live —
    // no replay from the client's cache, nothing dropped.
    assert_eq!(report.degraded, 0, "{}", report.render());
    assert_eq!(report.unanswered, 0, "{}", report.render());
    assert_eq!(report.plan_unanswered, 0, "{}", report.render());
    // Every fifth op is a POST /v1/query pipeline; the rest are
    // single-target requests.  Both legs must verify completely.
    assert_eq!(report.ops + report.plan_ops, 4 * 150, "{}", report.render());
    assert_eq!(report.plan_ops, 4 * 150 / 5, "{}", report.render());
    assert_eq!(report.verified, report.ops);
    assert_eq!(report.plan_verified, report.plan_ops, "{}", report.render());
    assert!(report.plan_verified > 0);
    assert_eq!(
        report.refreshes_published,
        2 * 3,
        "quick spec: 2 tenants x 3 rounds"
    );
    assert!(
        report.non_fresh_served > 0,
        "the TTL probe must observe expiry: {}",
        report.render()
    );
    assert!(
        report.ttl_refreshes_observed >= 1,
        "at least one full expiry→refresh→publish cycle: {}",
        report.render()
    );
    assert_eq!((report.groups, report.replicas), (1, 1));
    let primary = &report.shares[0];
    assert!(primary.catalog.ttl_refreshes >= 1);
    assert!(primary.server.requests >= report.ops);
    assert!(report.latency.p50 <= report.latency.p999);
    let rendered = report.render();
    assert!(rendered.contains("ttl refreshes observed"), "{rendered}");
}

#[test]
fn open_loop_mode_holds_the_offered_rate_and_reports_slo_verdicts() {
    let mut spec = FleetWorkloadSpec::quick();
    spec.spec.clients = 2;
    spec.spec.tenants = 2;
    spec.spec.ops_per_client = 60;
    spec.spec.refresh_rounds = 1;
    spec.ttl = None; // keep the run to the rate-controlled client phase
    spec.spec.target_qps = Some(1_000.0);
    spec.slo = SloThresholds {
        // Generous enough that a loopback run can't breach latency, strict
        // enough that any error or shed is a breach.
        p99: Some(Duration::from_secs(5)),
        p999: Some(Duration::from_secs(10)),
        max_error_rate: Some(0.0),
        max_shed_rate: Some(0.0),
        ..Default::default()
    };
    let report = run_fleet_workload(&spec).unwrap();

    // 120 ops at 1000 qps aggregate: the schedule alone takes ≥ ~118 ms.
    assert!(
        report.wall >= Duration::from_millis(100),
        "open loop must pace the clients, finished in {:?}",
        report.wall
    );
    assert_eq!(report.torn_reads, 0, "{}", report.render());
    assert_eq!(report.http_errors, 0, "{}", report.render());
    assert_eq!(report.sheds, 0, "{}", report.render());
    assert_eq!(report.degraded, 0, "{}", report.render());
    assert_eq!(report.unanswered, 0, "{}", report.render());
    assert_eq!(report.plan_unanswered, 0, "{}", report.render());
    assert_eq!(report.ops + report.plan_ops, 2 * 60);
    assert_eq!(report.verified, report.ops);
    assert_eq!(report.plan_verified, report.plan_ops);
    assert_eq!(report.target_qps, Some(1_000.0));
    assert_eq!(report.slo.checks.len(), 4);
    assert_eq!(report.slo.breaches(), 0, "{}", report.render());
    let rendered = report.render();
    assert!(
        rendered.contains("target qps (open loop): 1000"),
        "{rendered}"
    );
    assert!(rendered.contains("slo verdicts"), "{rendered}");
}

#[test]
fn degenerate_specs_are_rejected() {
    let mut spec = FleetWorkloadSpec::quick();
    spec.spec.clients = 0;
    assert!(matches!(
        run_fleet_workload(&spec),
        Err(NetError::InvalidConfig(_))
    ));
    let mut spec = FleetWorkloadSpec::quick();
    spec.spec.target_qps = Some(0.0);
    assert!(matches!(
        run_fleet_workload(&spec),
        Err(NetError::InvalidConfig(_))
    ));
    spec.spec.target_qps = Some(f64::NAN);
    assert!(matches!(
        run_fleet_workload(&spec),
        Err(NetError::InvalidConfig(_))
    ));
    let zero_groups = FleetWorkloadSpec {
        groups: 0,
        ..FleetWorkloadSpec::quick()
    };
    assert!(run_fleet_workload(&zero_groups).is_err());
    let zero_replicas = FleetWorkloadSpec {
        replicas: 0,
        ..FleetWorkloadSpec::quick()
    };
    assert!(run_fleet_workload(&zero_replicas).is_err());
    // Chaos kills a secondary: one replica per group has none to kill.
    let lone_chaos = FleetWorkloadSpec {
        chaos: Some(ChaosConfig::default()),
        ..FleetWorkloadSpec::quick()
    };
    assert!(matches!(
        run_fleet_workload(&lone_chaos),
        Err(NetError::InvalidConfig(_))
    ));
}

//! The fleet harness in its partitioned shape end to end: 2 ring groups ×
//! 2 replicas, ring-scoped ingest, one-hop `wrong_owner` re-routing,
//! scatter/gather glob plans verified against the unpartitioned-catalog
//! oracle, and a chaos leg with a mid-run kill/restart — all byte-for-byte.

use opaq_net::{run_fleet_workload, ChaosConfig, FleetWorkloadSpec};
use opaq_serve::WorkloadSpec;

fn small_spec() -> FleetWorkloadSpec {
    let mut spec = FleetWorkloadSpec {
        spec: WorkloadSpec::quick(),
        groups: 2,
        replicas: 2,
        ttl: None,
        ..Default::default()
    };
    spec.spec.clients = 3;
    spec.spec.ops_per_client = 60;
    spec.spec.tenants = 6;
    spec.spec.keys_per_tenant = 4_000;
    spec.spec.refresh_rounds = 3;
    spec
}

#[test]
fn routed_fleet_without_chaos_is_clean_and_balanced() {
    let mut spec = small_spec();
    // The TTL probe lives on one group; its watcher dials that primary.
    spec.ttl = Some(std::time::Duration::from_millis(80));
    let report = run_fleet_workload(&spec).unwrap();

    assert_eq!(report.torn_reads, 0, "{}", report.render());
    assert_eq!(report.mis_owned, 0, "{}", report.render());
    assert_eq!(report.http_errors, 0, "{}", report.render());
    assert_eq!(report.unanswered, 0, "{}", report.render());
    assert_eq!(report.degraded, 0, "{}", report.render());
    assert_eq!(report.plan_unanswered, 0, "{}", report.render());
    assert_eq!(report.trace_violations, 0, "{}", report.render());
    assert_eq!(report.verified, report.ops, "{}", report.render());
    assert!(report.plan_ops > 0, "{}", report.render());
    assert!(
        report.ttl_refreshes_observed >= 1,
        "the TTL probe must see a full cycle on its owning group:\n{}",
        report.render()
    );
    assert_eq!(
        report.plan_verified,
        report.plan_ops,
        "a plan answer diverged from the single-catalog oracle:\n{}",
        report.render()
    );
    // Deliberate misroutes (every 7th op) force the wrong_owner arc.
    assert!(report.reroutes > 0, "{}", report.render());
    // Every tenant and every op belongs to exactly one group.
    assert_eq!(report.shares.len(), 2);
    let tenant_total: u64 = report.shares.iter().map(|s| s.tenants).sum();
    assert_eq!(tenant_total, spec.spec.tenants as u64);
    assert!(
        report.shares.iter().all(|s| s.tenants > 0),
        "degenerate placement — all tenants on one group:\n{}",
        report.render()
    );
}

#[test]
fn routed_chaos_run_survives_kill_and_restart_with_zero_torn_or_mis_owned() {
    let mut spec = small_spec();
    spec.chaos = Some(ChaosConfig::default());

    let report = run_fleet_workload(&spec).unwrap();
    assert_eq!(report.torn_reads, 0, "torn:\n{}", report.render());
    assert_eq!(report.mis_owned, 0, "mis-owned:\n{}", report.render());
    assert!(report.verified > 0, "{}", report.render());
    assert!(report.plan_verified > 0, "{}", report.render());
    assert_eq!(report.kills, 1, "{}", report.render());
    assert_eq!(report.restarts, 1, "{}", report.render());
    assert!(report.reroutes > 0, "{}", report.render());
    assert!(
        report.chaos.total() > 0,
        "chaos proxies injected nothing:\n{}",
        report.render()
    );
    assert!(report.sync_deltas_applied > 0, "{}", report.render());
}

#[test]
fn single_group_fleet_degenerates_to_the_flat_case() {
    let mut spec = small_spec();
    spec.groups = 1;
    spec.replicas = 2;
    spec.spec.clients = 2;
    spec.spec.ops_per_client = 30;

    let report = run_fleet_workload(&spec).unwrap();
    assert_eq!(report.torn_reads, 0, "{}", report.render());
    assert_eq!(report.mis_owned, 0, "{}", report.render());
    assert_eq!(report.reroutes, 0, "one group has nowhere to re-route");
    assert_eq!(report.verified, report.ops, "{}", report.render());
    assert_eq!(report.shares.len(), 1);
}

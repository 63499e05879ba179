//! HTTP front-end load benchmark: the serving workload replayed over real
//! loopback TCP through `opaq-net`.
//!
//! Mirrors `serve_load.rs`, one layer out: before any timing, a full mixed
//! workload (clients ≥ 4, refreshes mid-run, TTL probe tenant) is replayed
//! through `opaq_net::run_fleet_workload` in its 1×1 shape (one loopback
//! server), which re-renders every response
//! from the registered sketch of its claimed `x-opaq-version` and compares
//! **byte-for-byte** — a torn read, an HTTP error, or a missing TTL
//! expiry→refresh cycle fails `cargo bench` before a single timing.  An
//! open-loop leg then replays the workload at a fixed offered rate under a
//! declared SLO (latency from scheduled send times, 503s as sheds) and
//! fails on any breach.  Finally criterion times whole-workload throughput
//! at two client counts, giving the over-the-wire cost next to
//! `serve_load`'s in-process numbers.
//!
//! Set `OPAQ_BENCH_QUICK=1` (per-PR CI smoke) to shrink the datasets; the
//! consistency assertions run at full strength either way.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opaq_metrics::SloThresholds;
use opaq_net::{run_fleet_workload, FleetWorkloadSpec};
use std::time::Duration;

fn quick_mode() -> bool {
    std::env::var_os("OPAQ_BENCH_QUICK").is_some()
}

fn spec(clients: usize, ttl: Option<Duration>) -> FleetWorkloadSpec {
    let mut spec = if quick_mode() {
        FleetWorkloadSpec::quick()
    } else {
        FleetWorkloadSpec::default()
    };
    spec.spec.tenants = spec.spec.tenants.max(2);
    spec.spec.clients = clients;
    spec.ttl = ttl;
    spec
}

fn replay_and_verify(label: &str, spec: &FleetWorkloadSpec) -> u64 {
    let report = run_fleet_workload(spec).expect("http workload must run cleanly");
    println!(
        "== http_serve workload: {label} ({} tenants, {} clients, {} refreshes) ==",
        spec.spec.tenants, spec.spec.clients, report.refreshes_published
    );
    println!("{}", report.render());
    assert_eq!(
        report.torn_reads, 0,
        "{label}: torn read — a wire response matched no published sketch version byte-for-byte"
    );
    assert_eq!(report.http_errors, 0, "{label}: HTTP error status observed");
    assert_eq!(
        (report.degraded, report.unanswered),
        (0, 0),
        "{label}: a request was dropped by the lone server"
    );
    assert_eq!(report.verified, report.ops);
    assert_eq!(
        report.plan_verified, report.plan_ops,
        "{label}: a /v1/query plan failed its offline byte replay"
    );
    assert!(
        report.plan_ops > 0,
        "{label}: the workload must exercise the plan route"
    );
    assert!(
        report.refreshes_published > 0,
        "{label}: refreshes must land mid-workload"
    );
    if spec.ttl.is_some() {
        assert!(
            report.ttl_refreshes_observed >= 1,
            "{label}: the TTL probe must observe a full expiry→refresh→publish cycle"
        );
    }
    report.ops
}

fn bench_http_serve(c: &mut Criterion) {
    // Consistency gate: byte-for-byte over the wire, with the TTL probe on.
    replay_and_verify(
        "4 clients + ttl probe",
        &spec(4, Some(Duration::from_millis(100))),
    );

    // Open-loop leg: the same workload under a fixed offered rate with a
    // declared SLO.  Latency is measured from each op's *scheduled* send
    // time (coordinated-omission-safe), 503s count as sheds, and any
    // breach of the declared objectives fails the bench before timing.
    {
        let mut open = spec(4, None);
        open.spec.refresh_rounds = 1;
        open.spec.target_qps = Some(if quick_mode() { 2_000.0 } else { 5_000.0 });
        open.slo = SloThresholds {
            p99: Some(Duration::from_secs(5)),
            max_error_rate: Some(0.0),
            max_shed_rate: Some(0.0),
            ..Default::default()
        };
        let report = run_fleet_workload(&open).expect("open-loop workload must run cleanly");
        println!(
            "== http_serve workload: open loop @ {:.0} qps ==",
            open.spec.target_qps.unwrap()
        );
        println!("{}", report.render());
        assert_eq!(report.torn_reads, 0, "open loop: torn read over the wire");
        assert_eq!(
            report.slo.breaches(),
            0,
            "open loop: declared SLO breached\n{}",
            report.render()
        );
    }

    // Whole-workload throughput trend over client counts (TTL probe off so
    // the timing loop is not gated on the expiry grace window).
    let mut group = c.benchmark_group("http_mixed_workload");
    group.sample_size(10);
    for clients in [4usize, 8] {
        let spec = spec(clients, None);
        group.bench_with_input(BenchmarkId::new("clients", clients), &spec, |b, spec| {
            b.iter(|| black_box(run_fleet_workload(spec).unwrap().ops))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_http_serve);
criterion_main!(benches);

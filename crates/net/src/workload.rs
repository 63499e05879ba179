//! The fleet workload harness: one runner for every HTTP serving topology,
//! `groups × replicas`, with every answer verified **byte-for-byte**.
//!
//! [`run_fleet_workload`] stands up G ring groups of R replicas each — a
//! primary holding the group's catalog of record plus R-1 secondaries that
//! bootstrap from it over `/v1/_sync` and then poll its deltas — and drives
//! N ring-aware [`RoutedFleet`] clients against them.  The degenerate shapes
//! are the familiar runs: 1×1 is the plain HTTP run, 1×R a replica fleet
//! with failover inside one group, G×R the partitioned fleet.
//!
//! Verification discipline (the in-process harness's, across the wire):
//! before a version is published, the refresher registers an independent
//! clone of that version's sketch keyed `(tenant, version)`.  Every response
//! names the version that answered it in `x-opaq-version`, so the client
//! re-executes the request against the registered sketch, re-renders the
//! canonical JSON body through the *same* renderer the server uses, and
//! compares bytes.  Any response that is not exactly the serialization of
//! one complete published version — a torn sketch, an invented version, a
//! half-flushed body — counts as torn.  Replication applies entries at the
//! primary's exact version (`publish_at`), so an answer from a lagging
//! secondary still names a registered version: staleness is fine, torn
//! bytes are not.  Every 200 must also carry the ring owner's name in
//! `x-opaq-owner` (else it is *mis-owned*), and every response must echo
//! the trace id the client stamped.
//!
//! The op mix is the same in every topology:
//! * Single-target requests from `opaq_serve::request_for`, routed to the
//!   tenant's owning group.  GETs fail over inside the group; a
//!   `quantile_batch` POST gets one attempt, never a replay.  Every 7th op
//!   is sent to a non-owning group on purpose, to force the typed
//!   `wrong_owner` → one-hop re-route (with one group it is a plain op).
//! * Every fifth op is a `POST /v1/query` glob plan (`fetch tenant-*/events
//!   | coalesce | …`) through a rotating coordinator group, which scatters to
//!   its peers.  The client replays it offline — fuse the registered
//!   sketches of every claimed version, re-run the extract, re-render — and
//!   that replay is exactly what an unpartitioned catalog would answer.
//!
//! Two optional legs:
//! * A **TTL probe tenant** ([`FleetWorkloadSpec::ttl`]), owned by one
//!   group, whose primary gives it a short `max_age` and a refresh hook into
//!   a real `RefreshPool`.  A watcher polls that primary directly
//!   (replicated entries on secondaries carry no TTL) and records the
//!   freshness arc: `fresh`, then `stale`/`refreshing` (old version still
//!   served, byte-exact) until the re-ingest publishes, then `fresh` again
//!   at the next version.
//! * **Chaos** ([`FleetWorkloadSpec::chaos`], needs R ≥ 2): a
//!   fault-injecting [`ChaosProxy`] in front of every replica, and a monkey
//!   that kills group 0's preferred secondary at ~25% of the run.  Clients
//!   hold at their midpoint, still health-probing, until some client's
//!   breaker for the victim has opened, so the outage is always seen by
//!   traffic; an open-loop schedule moves past the hold, so the pause is
//!   not recorded as latency.  Only then is the victim restarted on a
//!   fresh port, re-bootstrapped, and its proxy repointed.

use crate::chaos::{ChaosConfig, ChaosCounters, ChaosProxy};
use crate::circuit::BreakerState;
use crate::client::{ClientResponse, ClientStats, HttpClient};
use crate::json::{write_escaped, Json};
use crate::replica::{ReplicaConfig, ReplicationStats};
use crate::ring::{GroupConfig, HashRing, RingConfig, RingMembership};
use crate::routed::RoutedFleet;
use crate::server::{
    render_plan_response_json, render_response_json, HttpServer, ServerConfig, ServerStats,
    FRESHNESS_HEADER, OWNER_HEADER, SOURCES_HEADER, TRACE_HEADER, VERSION_HEADER,
};
use crate::sync::{bootstrap, Replicator};
use crate::{NetError, NetResult};
use opaq_core::{IncrementalOpaq, OpaqConfig, OpaqError, QuantileSketch};
use opaq_metrics::trace::format_nanos;
use opaq_metrics::{
    render_latency_table, LatencyHistogram, LatencySnapshot, SloOutcome, SloThresholds, TraceId,
};
use opaq_query::{merge_tree, PlanResponse, PlanSource};
use opaq_serve::{
    chunk_spec, execute_on, next_rand, request_for, CatalogStats, DatasetId, Freshness,
    QueryEngine, QueryRequest, QueryResponse, RefreshPool, ServeError, ServeResult, SketchCatalog,
    TenantId, WorkloadSpec,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every N-th single-target op is sent to a non-owning group on purpose.
const MISROUTE_EVERY: u64 = 7;
/// Delta-poll interval of every secondary's [`Replicator`].
const POLL: Duration = Duration::from_millis(40);
/// How long the chaos monkey (and the clients held at their midpoint) wait
/// for traffic to see the outage before giving up on it.
const OUTAGE_DEADLINE: Duration = Duration::from_secs(5);
/// The TTL probe tenant.  `tenant-*` globs do not match it, so plan replays
/// never see it.
const PROBE_TENANT: &str = "ttl-probe";
/// The probe tenant's TTL unless a spec says otherwise.
const DEFAULT_TTL: Duration = Duration::from_millis(150);

/// Shape of one fleet workload: `groups × replicas` over real sockets.
#[derive(Debug, Clone)]
pub struct FleetWorkloadSpec {
    /// Tenant/client/op counts, sketch parameters, the seed and the
    /// open-loop rate (`target_qps`), shared with the in-process harness;
    /// its `budget_sample_points`/`spill_dir` are ignored here — eviction
    /// churn is the in-process suite's job.
    pub spec: WorkloadSpec,
    /// Replica groups on the consistent-hash ring.  At least 1.
    pub groups: usize,
    /// Serving replicas per group, primary included.  At least 1.
    pub replicas: usize,
    /// Virtual nodes per group on the ring.
    pub vnodes: u32,
    /// `Some` fronts every replica with a fault-injecting [`ChaosProxy`]
    /// and kills + restarts group 0's preferred secondary mid-run (needs
    /// `replicas >= 2`).
    pub chaos: Option<ChaosConfig>,
    /// TTL of the probe tenant; `None` disables the staleness leg.
    pub ttl: Option<Duration>,
    /// Declared objectives, evaluated against the client-observed latency
    /// distribution and error/shed rates into [`FleetLoadReport::slo`].
    pub slo: SloThresholds,
}

impl Default for FleetWorkloadSpec {
    fn default() -> Self {
        Self {
            spec: WorkloadSpec::default(),
            groups: 1,
            replicas: 1,
            vnodes: 128,
            chaos: None,
            ttl: Some(DEFAULT_TTL),
            slo: SloThresholds::default(),
        }
    }
}

impl FleetWorkloadSpec {
    /// A small 1×1 configuration for CI smoke runs.
    pub fn quick() -> Self {
        Self {
            spec: WorkloadSpec::quick(),
            ..Self::default()
        }
    }
}

/// One group's share of a fleet run.
#[derive(Debug, Clone)]
pub struct GroupShare {
    /// The group's ring name.
    pub group: String,
    /// Tenants the ring assigns to this group.
    pub tenants: u64,
    /// Single-target ops whose owner this group was.
    pub ops: u64,
    /// The group primary's catalog counters at the end of the run.
    pub catalog: CatalogStats,
    /// The group primary's HTTP server counters at the end of the run.
    pub server: ServerStats,
}

/// What a fleet workload observed.
#[derive(Debug, Clone)]
pub struct FleetLoadReport {
    /// Replica groups on the ring.
    pub groups: usize,
    /// Serving replicas per group the fleet started with.
    pub replicas: usize,
    /// Single-target requests issued by the client threads.  Each ends
    /// verified, torn, an HTTP error, shed, or unanswered.
    pub ops: u64,
    /// Single-target responses verified byte-for-byte against their
    /// claimed version.
    pub verified: u64,
    /// `POST /v1/query` glob plans issued by the client threads.
    pub plan_ops: u64,
    /// Plan responses whose offline replay (the unpartitioned-catalog
    /// oracle) matched byte-for-byte.
    pub plan_verified: u64,
    /// Plan POSTs that died to a transport fault (one attempt, never
    /// retried; expected only under chaos).
    pub plan_unanswered: u64,
    /// Responses (client, plan or probe) that matched no complete published
    /// version (must be 0).
    pub torn_reads: u64,
    /// 200s whose `x-opaq-owner` header named a group other than the ring's
    /// owner for that tenant (must be 0).
    pub mis_owned: u64,
    /// Non-200, non-503 responses, plans and probe included.
    pub http_errors: u64,
    /// 503s from a replica's bounded accept queue (load protection, kept
    /// apart from real errors).
    pub sheds: u64,
    /// Answers replayed from a group's degradation cache (stale but still
    /// byte-verified).  Without chaos there is no outage to ride out, so
    /// any replay means the fleet dropped a request.
    pub degraded: u64,
    /// Single-target ops for which the owning group had no answer *and*
    /// nothing cached.  Counted as errors in [`Self::error_rate`].
    pub unanswered: u64,
    /// Versions published by the background refresher while clients ran.
    pub refreshes_published: u64,
    /// Verified polls issued by the TTL watcher, including during the
    /// post-client grace window.
    pub probe_polls: u64,
    /// TTL probe: responses served past their `max_age` (`stale` or
    /// `refreshing`).
    pub non_fresh_served: u64,
    /// TTL probe: version bumps that followed an observed expiry — complete
    /// expiry→refresh→publish cycles seen over the wire.
    pub ttl_refreshes_observed: u64,
    /// `wrong_owner` answers followed by a one-hop re-route to the owner.
    pub reroutes: u64,
    /// Preferred-replica switches, across all groups and clients.
    pub failovers: u64,
    /// Circuit-breaker open transitions, across all groups and clients.
    pub breaker_opens: u64,
    /// Catalog entries secondaries applied from their primaries.
    pub sync_deltas_applied: u64,
    /// Per-kind chaos tallies, summed over all proxies (`total()` is the
    /// number of faults injected).
    pub chaos: ChaosCounters,
    /// Connection-establishment failures across all clients.
    pub connect_errors: u64,
    /// Requests that died to a read/connect deadline, across all clients.
    pub timeouts: u64,
    /// Transparent reconnect-retries across all clients (benign keep-alive
    /// rollovers included).
    pub retries: u64,
    /// Responses missing `x-opaq-trace-id`, or echoing a different id than
    /// the one the client stamped (must be 0 — a re-routed hop and a
    /// degraded replay keep the caller's trace).
    pub trace_violations: u64,
    /// Replicas the chaos monkey shut down mid-run.
    pub kills: u64,
    /// Replicas the chaos monkey brought back (fresh port, re-bootstrap).
    pub restarts: u64,
    /// Per-group tenant/op balance and primary counters, in ring order.
    pub shares: Vec<GroupShare>,
    /// Wall-clock time of the client phase.
    pub wall: Duration,
    /// Client-observed latency distribution (from scheduled send times when
    /// run open-loop).
    pub latency: LatencySnapshot,
    /// The offered rate the clients held, when run open-loop.
    pub target_qps: Option<f64>,
    /// Verdicts for the declared objectives (empty when none declared).
    pub slo: SloOutcome,
    /// The primaries' slowest requests (trace id, duration, provenance),
    /// pre-rendered; empty when nothing was recorded.
    pub slow_log: String,
}

impl FleetLoadReport {
    /// Client requests per second (single-target and plan ops) over the
    /// client phase.
    pub fn throughput(&self) -> f64 {
        (self.ops + self.plan_ops) as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Client-issued requests: the denominator for the error/shed rates.
    fn attempts(&self) -> f64 {
        ((self.ops + self.plan_ops) as f64).max(1.0)
    }

    /// Fraction of requests that failed: answered with a non-200, non-503
    /// status, or not answered at all (single-target or plan).  (Probe
    /// errors count in the numerator; probe traffic is tiny and must be
    /// error-free in any passing run.)
    pub fn error_rate(&self) -> f64 {
        (self.http_errors + self.unanswered + self.plan_unanswered) as f64 / self.attempts()
    }

    /// Fraction of requests shed with 503.
    pub fn shed_rate(&self) -> f64 {
        self.sheds as f64 / self.attempts()
    }

    /// Render the report as text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet: {} groups x {} replicas | kills {} | restarts {}\n",
            self.groups, self.replicas, self.kills, self.restarts
        );
        for share in &self.shares {
            out.push_str(&format!(
                "  {}: tenants {} | ops {}\n",
                share.group, share.tenants, share.ops
            ));
        }
        out.push_str(&format!(
            "ops {} | verified {} | torn {} | mis-owned {} | plan ops {} | plan verified {} | \
             plan unanswered {} | http errors {} | sheds {} | degraded {} | unanswered {} | \
             refreshes {} | {:.0} ops/s\n",
            self.ops,
            self.verified,
            self.torn_reads,
            self.mis_owned,
            self.plan_ops,
            self.plan_verified,
            self.plan_unanswered,
            self.http_errors,
            self.sheds,
            self.degraded,
            self.unanswered,
            self.refreshes_published,
            self.throughput()
        ));
        out.push_str(&format!(
            "ttl probe: polls {} | non-fresh {} | ttl refreshes observed {}\n",
            self.probe_polls, self.non_fresh_served, self.ttl_refreshes_observed
        ));
        out.push_str(&format!(
            "reroutes {} | failovers {} | breaker opens {} | sync deltas applied {} | \
             chaos faults injected {}\n",
            self.reroutes,
            self.failovers,
            self.breaker_opens,
            self.sync_deltas_applied,
            self.chaos.total()
        ));
        out.push_str(&format!(
            "chaos: drops {} | delays {} | truncates {} | resets {} | flaps {}\n",
            self.chaos.drops,
            self.chaos.delays,
            self.chaos.truncates,
            self.chaos.resets,
            self.chaos.flaps
        ));
        out.push_str(&format!(
            "client transport: connect errors {} | timeouts {} | retries {} | \
             trace violations {}\n",
            self.connect_errors, self.timeouts, self.retries, self.trace_violations
        ));
        out.push_str(&render_latency_table(
            "http client-observed latency",
            &[("all".to_string(), self.latency)],
        ));
        if let Some(qps) = self.target_qps {
            out.push_str(&format!("target qps (open loop): {qps:.0}\n"));
        }
        out.push_str(&self.slo.render("slo verdicts"));
        out.push_str(&self.slow_log);
        out
    }
}

/// `(tenant-name, version) -> the complete sketch of that version`,
/// registered *before* the catalog publish.
type Registry = Arc<RwLock<HashMap<(String, u64), Arc<QuantileSketch<u64>>>>>;

/// Map a typed request to its HTTP form: `(target, optional JSON body)`.
fn wire_form(tenant: &str, dataset: &str, request: &QueryRequest) -> (String, Option<String>) {
    match request {
        QueryRequest::Quantile { phi } => {
            (format!("/v1/{tenant}/{dataset}/quantile?phi={phi}"), None)
        }
        QueryRequest::Rank { key } => (format!("/v1/{tenant}/{dataset}/rank?key={key}"), None),
        QueryRequest::Profile { count } => (
            format!("/v1/{tenant}/{dataset}/profile?count={count}"),
            None,
        ),
        QueryRequest::QuantileBatch { phis } => {
            let phis: Vec<String> = phis.iter().map(|phi| format!("{phi}")).collect();
            (
                format!("/v1/{tenant}/{dataset}/quantile_batch"),
                Some(format!("{{\"phis\":[{}]}}", phis.join(","))),
            )
        }
    }
}

/// Why a response failed verification.
enum Rejection {
    /// Matched no complete published version.
    Torn,
    /// 503: the server's bounded queue shed the connection.  Load
    /// protection, not corruption — tracked apart from real errors.
    Shed,
    /// Any other non-200 status.
    HttpError,
}

/// Sort a response by status: 200 passes, 503 is a shed, the rest errors.
fn status_ok(response: &ClientResponse) -> Result<(), Rejection> {
    match response.status {
        200 => Ok(()),
        503 => Err(Rejection::Shed),
        _ => Err(Rejection::HttpError),
    }
}

/// Re-render the expected body from the registered sketch of the claimed
/// version and compare bytes; the verified `(version, freshness)` handle on
/// success.
fn verify(
    tenant: &str,
    request: &QueryRequest,
    response: &ClientResponse,
    registry: &Registry,
) -> Result<(u64, Freshness), Rejection> {
    status_ok(response)?;
    let version = response
        .header(VERSION_HEADER)
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or(Rejection::Torn)?;
    let freshness = response
        .header(FRESHNESS_HEADER)
        .and_then(Freshness::parse)
        .ok_or(Rejection::Torn)?;
    // A version the refresher never registered is torn.
    let sketch = registry
        .read()
        .get(&(tenant.to_string(), version))
        .cloned()
        .ok_or(Rejection::Torn)?;
    let output = execute_on(&sketch, request).map_err(|_| Rejection::Torn)?;
    let expected = render_response_json(&QueryResponse {
        output,
        version,
        total_elements: sketch.total_elements(),
        freshness,
    });
    if expected.as_bytes() == response.body.as_slice() {
        Ok((version, freshness))
    } else {
        Err(Rejection::Torn)
    }
}

/// Pick a coalescing pipeline over every main tenant: the plan text to POST
/// plus the typed extract the offline replay re-runs.
fn plan_for(rng: &mut u64) -> (String, QueryRequest) {
    let (extract, request) = match next_rand(rng) % 4 {
        0 => (
            "quantile 0.5".to_string(),
            QueryRequest::Quantile { phi: 0.5 },
        ),
        1 => (
            "quantile 0.25,0.5,0.75".to_string(),
            QueryRequest::QuantileBatch {
                phis: vec![0.25, 0.5, 0.75],
            },
        ),
        2 => {
            let key = next_rand(rng) % (1 << 24);
            (format!("rank {key}"), QueryRequest::Rank { key })
        }
        _ => ("profile 8".to_string(), QueryRequest::Profile { count: 8 }),
    };
    // `tenant-*` matches every main tenant and not the probe tenant, so the
    // expected source set is exactly the workload's tenant list.
    (
        format!("fetch tenant-*/events | coalesce | {extract}"),
        request,
    )
}

/// Replay a plan response offline and compare bytes.
///
/// The response claims its provenance — `(tenant, dataset, version,
/// freshness)` per source.  The claimed set must be exactly the expected
/// tenant set, every claimed version must have been registered before
/// publication, and fusing the registered sketches in response order with
/// the same deterministic merge tree, re-running the extract, and
/// re-rendering through [`render_plan_response_json`] must reproduce the
/// body byte-for-byte.
fn verify_plan(
    request: &QueryRequest,
    response: &ClientResponse,
    registry: &Registry,
    expected: &[(String, String)],
) -> Result<(), Rejection> {
    status_ok(response)?;
    let body = std::str::from_utf8(&response.body).map_err(|_| Rejection::Torn)?;
    let parsed = Json::parse(body).map_err(|_| Rejection::Torn)?;
    let claimed = parsed
        .get("sources")
        .and_then(Json::as_array)
        .ok_or(Rejection::Torn)?;
    if response
        .header(SOURCES_HEADER)
        .and_then(|v| v.parse::<usize>().ok())
        != Some(claimed.len())
    {
        return Err(Rejection::Torn);
    }
    let mut sources = Vec::with_capacity(claimed.len());
    for entry in claimed {
        let (Some(tenant), Some(dataset), Some(version), Some(freshness)) = (
            entry.get("tenant").and_then(Json::as_str),
            entry.get("dataset").and_then(Json::as_str),
            entry.get("version").and_then(Json::as_u64),
            entry
                .get("freshness")
                .and_then(Json::as_str)
                .and_then(Freshness::parse),
        ) else {
            return Err(Rejection::Torn);
        };
        sources.push(PlanSource {
            tenant: TenantId::new(tenant),
            dataset: DatasetId::new(dataset),
            version,
            freshness,
        });
    }
    // The claimed source set must be the full fan-out, in sorted key order —
    // a plan that silently skipped a tenant (or invented one) is torn.
    if sources.len() != expected.len()
        || sources
            .iter()
            .zip(expected)
            .any(|(s, (t, d))| s.tenant.as_str() != t || s.dataset.as_str() != d)
    {
        return Err(Rejection::Torn);
    }
    let mut sketches = Vec::with_capacity(sources.len());
    for source in &sources {
        let key = (source.tenant.to_string(), source.version);
        sketches.push(registry.read().get(&key).cloned().ok_or(Rejection::Torn)?);
    }
    let fused = merge_tree(&sketches).map_err(|_| Rejection::Torn)?;
    let output = execute_on(&fused, request).map_err(|_| Rejection::Torn)?;
    let expected_body = render_plan_response_json(&PlanResponse {
        output,
        total_elements: fused.total_elements(),
        sources,
    });
    if expected_body.as_bytes() == response.body.as_slice() {
        Ok(())
    } else {
        Err(Rejection::Torn)
    }
}

/// The run's shared counters, bumped by every client, the watcher, the
/// refresher and the monkey.
#[derive(Default)]
struct Tally {
    ops: AtomicU64,
    verified: AtomicU64,
    plan_ops: AtomicU64,
    plan_verified: AtomicU64,
    plan_unanswered: AtomicU64,
    torn: AtomicU64,
    mis_owned: AtomicU64,
    http_errors: AtomicU64,
    sheds: AtomicU64,
    degraded: AtomicU64,
    unanswered: AtomicU64,
    refreshes: AtomicU64,
    probe_polls: AtomicU64,
    non_fresh: AtomicU64,
    ttl_bumps: AtomicU64,
    connect_errors: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    trace_violations: AtomicU64,
    kills: AtomicU64,
    restarts: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Tally {
    /// Ops issued so far, plans included — the chaos monkey's clock.
    fn progress(&self) -> u64 {
        load(&self.ops) + load(&self.plan_ops)
    }

    /// Count a verification outcome: `verified` on success, the shared
    /// torn/shed/error counters otherwise.
    fn settle<T>(&self, verified: &AtomicU64, outcome: Result<T, Rejection>) {
        bump(match outcome {
            Ok(_) => verified,
            Err(Rejection::Torn) => &self.torn,
            Err(Rejection::Shed) => &self.sheds,
            Err(Rejection::HttpError) => &self.http_errors,
        });
    }

    /// Every response must carry a well-formed `x-opaq-trace-id` — and,
    /// when the client stamped one, echo exactly that id.
    fn check_trace(&self, response: &ClientResponse, sent: Option<TraceId>) {
        let ok = match (response.header(TRACE_HEADER).and_then(TraceId::parse), sent) {
            (Some(echoed), Some(stamped)) => echoed == stamped,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !ok {
            bump(&self.trace_violations);
        }
    }

    fn absorb(&self, stats: ClientStats) {
        self.connect_errors
            .fetch_add(stats.connect_errors, Ordering::Relaxed);
        self.timeouts.fetch_add(stats.timeouts, Ordering::Relaxed);
        self.retries.fetch_add(stats.retries, Ordering::Relaxed);
    }
}

/// Client tuning for every group's [`crate::ReplicaSet`]: the default
/// timeouts, with a short breaker cooldown and a frequent health probe so a
/// chaos run shows the full open → half-open → closed arc inside one run.
fn client_config() -> ReplicaConfig {
    let mut config = ReplicaConfig::default();
    config.breaker.cooldown = Duration::from_millis(150);
    config.probe_interval = Duration::from_millis(20);
    config
}

/// Poll `done` every millisecond until it holds (`true`), or until `stop`
/// is raised or `deadline` passes (`false`).
fn wait_for(done: impl Fn() -> bool, stop: &AtomicBool, deadline: Option<Instant>) -> bool {
    loop {
        if done() {
            return true;
        }
        if stop.load(Ordering::Acquire) || deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Record a failed thread's error (or panic) unless an earlier one is
/// already held.
fn note(first_error: &mut Option<NetError>, joined: std::thread::Result<NetResult<()>>, who: &str) {
    let outcome = match joined {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e,
        Err(_) => NetError::Protocol(format!("{who} thread panicked")),
    };
    first_error.get_or_insert(outcome);
}

/// One running secondary: its HTTP server plus the delta poller keeping its
/// catalog caught up.  The catalog/engine live on through the `Arc`s these
/// two hold.
struct SecondaryRuntime {
    server: HttpServer,
    replicator: Replicator,
}

impl SecondaryRuntime {
    /// Poller first (it dials the primary), then the server.
    fn shutdown(&mut self) {
        self.replicator.shutdown();
        self.server.shutdown();
    }
}

/// Bootstrap a fresh catalog from the primary and stand a secondary up on
/// an ephemeral port.  Returns the runtime and its serving address.
fn start_secondary(
    primary_addr: &str,
    server_config: &ServerConfig,
    stats: &Arc<ReplicationStats>,
) -> NetResult<(SecondaryRuntime, String)> {
    let catalog = Arc::new(SketchCatalog::unbounded());
    bootstrap(&catalog, primary_addr, Some(stats), None)?;
    let engine = Arc::new(QueryEngine::new(Arc::clone(&catalog)));
    let server = HttpServer::start(engine, server_config.clone())?;
    let addr = server.local_addr().to_string();
    let replicator = Replicator::start(
        catalog,
        primary_addr.to_string(),
        POLL,
        Some(Arc::clone(stats)),
        Some(Arc::clone(server.telemetry().recorder())),
    );
    Ok((SecondaryRuntime { server, replicator }, addr))
}

/// Bind a server on the exact reserved address, retrying briefly: the
/// reservation listener was just dropped, so the only contention is another
/// process landing on the port in the microseconds between.
fn start_primary_on(engine: &Arc<QueryEngine>, config: &ServerConfig) -> NetResult<HttpServer> {
    let mut last = None;
    for _ in 0..50 {
        match HttpServer::start(Arc::clone(engine), config.clone()) {
            Ok(server) => return Ok(server),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    Err(last.unwrap_or_else(|| NetError::InvalidConfig("primary bind retry exhausted".into())))
}

/// The probe tenant's sketch for `round` (0 seeds it; each refresh adds 1).
fn probe_sketch(
    spec: &WorkloadSpec,
    config: OpaqConfig,
    round: u64,
) -> ServeResult<QuantileSketch<u64>> {
    let mut inc = IncrementalOpaq::new(config)?;
    let keys = spec.keys_per_tenant.min(20_000);
    inc.add_run(chunk_spec(spec, usize::MAX / 2, round, keys).generate())?;
    Ok(inc.into_sketch().ok_or(OpaqError::EmptyDataset)?)
}

/// Seed the probe tenant into `catalog` with a short `max_age` and a
/// refresh hook that re-ingests through `pool`.  The builder registers the
/// new version's sketch *before* returning it for publication, so the
/// watcher can byte-verify across the refresh boundary.
fn arm_ttl_probe(
    catalog: &Arc<SketchCatalog>,
    pool: &Arc<RefreshPool>,
    registry: &Registry,
    spec: &WorkloadSpec,
    config: OpaqConfig,
    ttl: Duration,
) -> NetResult<()> {
    let (tenant, dataset) = (TenantId::new(PROBE_TENANT), DatasetId::new("events"));
    let sketch = probe_sketch(spec, config, 0)?;
    registry
        .write()
        .insert((PROBE_TENANT.to_string(), 1), Arc::new(sketch.clone()));
    catalog.publish(&tenant, &dataset, sketch)?;
    catalog.set_ttl(&tenant, &dataset, Some(ttl))?;

    let weak_pool = Arc::downgrade(pool);
    let weak_catalog = Arc::downgrade(catalog);
    let registry = Arc::clone(registry);
    let rounds = Arc::new(AtomicU64::new(0));
    let spec = spec.clone();
    catalog.set_refresh_hook(Box::new(move |tenant, dataset| {
        let Some(pool) = weak_pool.upgrade() else {
            return false;
        };
        let (weak_catalog, registry) = (weak_catalog.clone(), Arc::clone(&registry));
        let (rounds, spec) = (Arc::clone(&rounds), spec.clone());
        let (job_tenant, job_dataset) = (tenant.clone(), dataset.clone());
        pool.submit(tenant, dataset, move || {
            let round = rounds.fetch_add(1, Ordering::Relaxed) + 1;
            let sketch = probe_sketch(&spec, config, round)?;
            // Only this pool refreshes the probe tenant, and the catalog
            // fires at most one in-flight refresh per entry, so `current
            // version + 1` is exactly what publish will assign.
            if let Some(catalog) = weak_catalog.upgrade() {
                let version = catalog.snapshot(&job_tenant, &job_dataset)?.version + 1;
                registry.write().insert(
                    (PROBE_TENANT.to_string(), version),
                    Arc::new(sketch.clone()),
                );
            }
            Ok(sketch)
        })
        .is_ok()
    }));
    Ok(())
}

/// Run `fleet_spec` end to end: stand the `groups × replicas` fleet up on
/// loopback ports, drive ring-routed clients (plus the TTL watcher and the
/// chaos monkey when enabled), verify every byte, and tear everything down
/// in order (secondaries, proxies, primaries, refresh pool).
///
/// # Errors
/// Configuration, socket and serving-layer errors.  Torn reads, mis-owned
/// answers, HTTP error statuses and unanswered ops are *reported*, not
/// errors — the caller decides whether non-zero is fatal.
#[allow(clippy::too_many_lines)]
pub fn run_fleet_workload(fleet_spec: &FleetWorkloadSpec) -> NetResult<FleetLoadReport> {
    let spec = &fleet_spec.spec;
    let invalid = |msg: &str| Err(NetError::InvalidConfig(msg.to_string()));
    if spec.tenants == 0 || spec.clients == 0 || spec.ops_per_client == 0 {
        return invalid("a workload needs at least one tenant, one client and one op");
    }
    if fleet_spec.groups == 0 || fleet_spec.replicas == 0 {
        return invalid("a fleet needs at least one group and one replica per group");
    }
    if fleet_spec.chaos.is_some() && fleet_spec.replicas < 2 {
        return invalid("chaos kills and restarts a secondary: it needs at least 2 replicas");
    }
    if spec
        .target_qps
        .is_some_and(|qps| !qps.is_finite() || qps <= 0.0)
    {
        return invalid("target_qps must be positive and finite");
    }
    let config = OpaqConfig::builder()
        .run_length(spec.run_length)
        .sample_size(spec.sample_size.min(spec.run_length))
        .build()
        .map_err(ServeError::from)?;

    // The ring must exist before any server starts (every server loads it),
    // and must carry real addresses (the scatter hook dials them) — so the
    // primaries' ports are reserved up front.
    let mut reserved = (0..fleet_spec.groups)
        .map(|_| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?.to_string();
            Ok((listener, addr))
        })
        .collect::<NetResult<Vec<_>>>()?;
    let ring = Arc::new(HashRing::new(RingConfig {
        vnodes: fleet_spec.vnodes,
        groups: reserved
            .iter()
            .enumerate()
            .map(|(g, (_, addr))| GroupConfig {
                name: format!("group-{g}"),
                addrs: vec![addr.clone()],
            })
            .collect(),
    })?);

    let stats = ReplicationStats::new();
    let registry: Registry = Arc::new(RwLock::new(HashMap::new()));
    let catalogs: Vec<Arc<SketchCatalog>> = (0..fleet_spec.groups)
        .map(|_| Arc::new(SketchCatalog::unbounded()))
        .collect();
    let engines: Vec<Arc<QueryEngine>> = catalogs
        .iter()
        .map(|c| {
            let engine = Arc::new(QueryEngine::new(Arc::clone(c)));
            // Arm the server-side breach counter with the declared p99 so
            // `opaq_slo_breaches` tracks the objective the verdicts use.
            engine.set_slo_threshold(fleet_spec.slo.p99);
            engine
        })
        .collect();

    let ids: Vec<(TenantId, DatasetId)> = (0..spec.tenants)
        .map(|i| {
            (
                TenantId::new(format!("tenant-{i}")),
                DatasetId::new("events"),
            )
        })
        .collect();
    let owners: Vec<usize> = ids
        .iter()
        .map(|(tenant, _)| ring.owner_index(tenant.as_str()))
        .collect();

    // Seed version 1 of every tenant into its *owning* group only —
    // ring-scoped ingest.  `chunk_spec` derives tenant data purely from
    // `(seed, tenant_idx, round)`, so an unpartitioned oracle catalog would
    // hold exactly these bytes, which is what makes the plan replay a true
    // single-catalog oracle.
    let mut incrementals = Vec::with_capacity(spec.tenants);
    for (tenant_idx, (tenant, dataset)) in ids.iter().enumerate() {
        let mut inc = IncrementalOpaq::new(config).map_err(ServeError::from)?;
        inc.add_run(chunk_spec(spec, tenant_idx, 0, spec.keys_per_tenant).generate())
            .map_err(ServeError::from)?;
        let sketch = inc.sketch().expect("just added a run").clone();
        registry
            .write()
            .insert((tenant.to_string(), 1), Arc::new(sketch.clone()));
        catalogs[owners[tenant_idx]].publish(tenant, dataset, sketch)?;
        incrementals.push(inc);
    }

    let probe_owner = ring.owner_index(PROBE_TENANT);
    let pool = Arc::new(RefreshPool::new(Arc::clone(&catalogs[probe_owner]), 1)?);
    if let Some(ttl) = fleet_spec.ttl {
        arm_ttl_probe(&catalogs[probe_owner], &pool, &registry, spec, config, ttl)?;
    }

    // Thread-per-connection workers, sized for every connection a server
    // can hold at once: one keep-alive connection per client, one transient
    // scatter connection per client from peer coordinators (G ≥ 2), the
    // secondaries' pollers and the TTL watcher on a primary, and under
    // chaos the monkey's re-bootstrap plus one connection a fault left
    // half-open.  1×1 comes to `clients + 2`.
    let defaults = ServerConfig::default();
    let scatter = usize::from(fleet_spec.groups > 1);
    let chaos_slack = 2 * usize::from(fleet_spec.chaos.is_some());
    let server_config = ServerConfig {
        workers: defaults
            .workers
            .max(spec.clients * (1 + scatter) + fleet_spec.replicas + 1 + chaos_slack),
        replication: Some(Arc::clone(&stats)),
        ..defaults
    };
    let group_configs = ring
        .groups()
        .iter()
        .map(|group| {
            let mut cfg = server_config.clone();
            cfg.ring = Some(Arc::new(RingMembership::new((*ring).clone(), &group.name)?));
            Ok(cfg)
        })
        .collect::<NetResult<Vec<_>>>()?;

    // Primaries take their reserved ports (reservation dropped just before
    // the bind), then each group's secondaries bootstrap off them.
    let mut primaries = Vec::with_capacity(fleet_spec.groups);
    for (engine, cfg) in engines.iter().zip(&group_configs) {
        let (listener, addr) = reserved.remove(0);
        drop(listener);
        let mut cfg = cfg.clone();
        cfg.addr = addr;
        primaries.push(start_primary_on(engine, &cfg)?);
    }
    let primary_addrs: Vec<String> = primaries
        .iter()
        .map(|p| p.local_addr().to_string())
        .collect();

    let mut secondaries: Vec<Vec<SecondaryRuntime>> = Vec::with_capacity(fleet_spec.groups);
    let mut serving_addrs: Vec<Vec<String>> = Vec::with_capacity(fleet_spec.groups);
    for (primary_addr, cfg) in primary_addrs.iter().zip(&group_configs) {
        let mut group_secondaries = Vec::new();
        let mut group_serving = Vec::new();
        for _ in 1..fleet_spec.replicas {
            let (runtime, addr) = start_secondary(primary_addr, cfg, &stats)?;
            group_secondaries.push(runtime);
            group_serving.push(addr);
        }
        // The first secondary leads the routing order, so sticky clients
        // prefer the replica the monkey will kill (group 0); the primary
        // anchors the tail as the always-up fallback.
        group_serving.push(primary_addr.clone());
        secondaries.push(group_secondaries);
        serving_addrs.push(group_serving);
    }

    // Chaos: clients dial a fault-injecting proxy per replica, which the
    // monkey also repoints at the victim's replacement.
    let mut proxies: Vec<Vec<ChaosProxy>> = Vec::with_capacity(fleet_spec.groups);
    let mut client_addrs = serving_addrs.clone();
    if let Some(chaos) = &fleet_spec.chaos {
        for (g, group) in client_addrs.iter_mut().enumerate() {
            let mut group_proxies = Vec::with_capacity(group.len());
            for (i, addr) in group.iter_mut().enumerate() {
                let proxy = ChaosProxy::start(
                    addr.clone(),
                    ChaosConfig {
                        seed: chaos.seed.wrapping_add(0x9e37 * ((g * 64 + i) as u64 + 1)),
                        ..chaos.clone()
                    },
                    Some(Arc::clone(&stats)),
                )?;
                *addr = proxy.local_addr().to_string();
                group_proxies.push(proxy);
            }
            proxies.push(group_proxies);
        }
    }
    let victim = fleet_spec.chaos.as_ref().map(|_| secondaries[0].remove(0));
    // Clients hold before this op index until the monkey's outage has been
    // seen; the 25% kill trigger is always reached before every client
    // holds.
    let hold_at = victim.as_ref().map(|_| spec.ops_per_client.div_ceil(2));
    // Health probes feed the breakers of replicas sticky routing has moved
    // away from; a group of one has nothing to fail over to.
    let probing = fleet_spec.replicas > 1;

    // Offline-replay target for plan ops: every main tenant, sorted key
    // order — exactly what an unpartitioned catalog would report.
    let mut expected_sources: Vec<(String, String)> = ids
        .iter()
        .map(|(t, d)| (t.to_string(), d.to_string()))
        .collect();
    expected_sources.sort();
    let expected_sources = &expected_sources;

    let total_ops = spec.ops_per_client * spec.clients as u64;
    let tally = Tally::default();
    let group_ops: Vec<AtomicU64> = (0..fleet_spec.groups).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let outage_seen = AtomicBool::new(false);
    let latency = LatencyHistogram::new();
    let client_phase_nanos = AtomicU64::new(0);
    let start = Instant::now();

    let run_result = std::thread::scope(|scope| -> NetResult<()> {
        // Background refresher: new versions land on each tenant's owning
        // primary (registered first); that group's secondaries catch up via
        // their pollers, and a lagging replica still serves a registered —
        // hence verifiable — version.
        let refresher = {
            let (catalogs, owners, ids, tally) = (&catalogs, &owners, &ids, &tally);
            let registry = Arc::clone(&registry);
            scope.spawn(move || -> NetResult<()> {
                for round in 1..=spec.refresh_rounds {
                    for (tenant_idx, (tenant, dataset)) in ids.iter().enumerate() {
                        let chunk =
                            chunk_spec(spec, tenant_idx, round, (spec.keys_per_tenant / 4).max(1))
                                .generate();
                        let inc = &mut incrementals[tenant_idx];
                        inc.add_run(chunk).map_err(ServeError::from)?;
                        let sketch = inc.sketch().expect("non-empty").clone();
                        registry
                            .write()
                            .insert((tenant.to_string(), round + 1), Arc::new(sketch.clone()));
                        catalogs[owners[tenant_idx]].publish(tenant, dataset, sketch)?;
                        bump(&tally.refreshes);
                        std::thread::sleep(Duration::from_micros(300));
                    }
                }
                Ok(())
            })
        };

        // TTL watcher: poll the probe tenant on its owning primary, byte-
        // verify, and record the expiry→refresh→publish cycles on the wire.
        let watcher = fleet_spec.ttl.map(|ttl| {
            let addr = primary_addrs[probe_owner].clone();
            let registry = Arc::clone(&registry);
            let (tally, stop) = (&tally, &stop);
            scope.spawn(move || -> NetResult<()> {
                let mut client = HttpClient::new(addr);
                let request = QueryRequest::Quantile { phi: 0.5 };
                let (target, _) = wire_form(PROBE_TENANT, "events", &request);
                let mut last_version: Option<u64> = None;
                let mut expiry_seen_at: Option<u64> = None;
                let mut poll = || -> NetResult<()> {
                    while !stop.load(Ordering::Acquire) {
                        let response = client.get(&target)?;
                        // The watcher never stamps a trace, so this checks
                        // the server's front-door minting path.
                        tally.check_trace(&response, None);
                        let outcome = verify(PROBE_TENANT, &request, &response, &registry);
                        if let Ok((version, freshness)) = outcome {
                            if freshness != Freshness::Fresh {
                                bump(&tally.non_fresh);
                                expiry_seen_at = Some(version);
                            }
                            // A full cycle: expiry observed at an old
                            // version, then a newer one landed.
                            if expiry_seen_at.is_some_and(|expired| version > expired)
                                && last_version.is_some_and(|last| version > last)
                            {
                                bump(&tally.ttl_bumps);
                                expiry_seen_at = None;
                            }
                            last_version = Some(version);
                        }
                        tally.settle(&tally.probe_polls, outcome);
                        std::thread::sleep(ttl / 4);
                    }
                    Ok(())
                };
                let result = poll();
                tally.absorb(client.stats());
                result
            })
        });

        // Chaos monkey: kill group 0's preferred secondary at ~25% of the
        // run (a progress trigger, so "mid-run" holds at any machine speed),
        // wait until some client's breaker for it has opened, then restart
        // it: fresh port, fresh bootstrap, proxy repoint.
        let monkey = victim.map(|mut victim| {
            let stats = Arc::clone(&stats);
            let primary_addr = primary_addrs[0].clone();
            let group_config = group_configs[0].clone();
            let victim_proxy = &proxies[0][0];
            let (tally, stop, outage_seen) = (&tally, &stop, &outage_seen);
            scope.spawn(move || -> NetResult<()> {
                let reached = wait_for(|| tally.progress() >= total_ops / 4, stop, None);
                victim.shutdown();
                if reached {
                    bump(&tally.kills);
                    let open = (
                        victim_proxy.local_addr().to_string(),
                        BreakerState::Open.as_gauge(),
                    );
                    let seen = || stats.breaker_states().contains(&open);
                    wait_for(seen, stop, Some(Instant::now() + OUTAGE_DEADLINE));
                }
                outage_seen.store(true, Ordering::Release);
                if !reached {
                    return Ok(());
                }
                let mut attempts = 0u32;
                let (mut replacement, addr) = loop {
                    match start_secondary(&primary_addr, &group_config, &stats) {
                        Ok(started) => break started,
                        Err(e) => {
                            attempts += 1;
                            if attempts > 100 {
                                return Err(e);
                            }
                            std::thread::sleep(Duration::from_millis(20));
                            if stop.load(Ordering::Acquire) {
                                return Ok(());
                            }
                        }
                    }
                };
                victim_proxy.set_upstream(addr);
                bump(&tally.restarts);
                wait_for(|| false, stop, None);
                replacement.shutdown();
                Ok(())
            })
        });

        // Open-loop rate control: the aggregate target rate is divided
        // evenly across clients (each sends one op every `clients/qps`
        // seconds), client start times are staggered across one interval so
        // the aggregate stream is smooth, and every op's latency is measured
        // from its *scheduled* send time — an op delayed behind a slow
        // predecessor accrues that queueing delay in the recorded
        // distribution (coordinated-omission-safe).
        let interval = spec
            .target_qps
            .map(|qps| Duration::from_secs_f64(spec.clients as f64 / qps));
        let mut clients = Vec::with_capacity(spec.clients);
        for client_idx in 0..spec.clients {
            let ring = Arc::clone(&ring);
            let stats = Arc::clone(&stats);
            let registry = Arc::clone(&registry);
            let (client_addrs, ids, owners) = (&client_addrs, &ids, &owners);
            let (tally, group_ops, latency, outage_seen) =
                (&tally, &group_ops, &latency, &outage_seen);
            clients.push(scope.spawn(move || -> NetResult<()> {
                let mut fleet =
                    RoutedFleet::new(ring, client_addrs, &client_config())?.with_stats(stats);
                let mut rng = spec
                    .seed
                    .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(client_idx as u64 + 1));
                let mut stagger = interval
                    .map(|iv| iv.mul_f64(client_idx as f64 / spec.clients as f64))
                    .unwrap_or(Duration::ZERO);
                for op_idx in 0..spec.ops_per_client {
                    if hold_at == Some(op_idx) {
                        // Keep probing while held: that is what opens the
                        // victim's breaker.
                        let held_from = Instant::now();
                        let deadline = held_from + OUTAGE_DEADLINE;
                        // The hold is the harness's pause, not the fleet's
                        // latency: whatever of it runs past this op's
                        // scheduled send time moves the rest of the
                        // schedule along.
                        let due = interval
                            .map_or(held_from, |iv| start + stagger + iv.mul_f64(op_idx as f64));
                        while !outage_seen.load(Ordering::Acquire) && Instant::now() < deadline {
                            fleet.maybe_probe();
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        stagger += Instant::now().saturating_duration_since(due.max(held_from));
                    }
                    // `sent` is the scheduled time in open-loop mode, the
                    // actual send time in closed-loop mode.
                    let sent = match interval {
                        Some(iv) => {
                            let scheduled = start + stagger + iv.mul_f64(op_idx as f64);
                            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            scheduled
                        }
                        None => Instant::now(),
                    };
                    if probing {
                        fleet.maybe_probe();
                    }
                    // Every op stamps a fresh trace id; the server must echo
                    // it back, across re-routed hops and degraded replays.
                    let stamped = TraceId::mint();
                    fleet.set_trace_id(Some(stamped));
                    if op_idx % 5 == 4 {
                        bump(&tally.plan_ops);
                        let (plan, request) = plan_for(&mut rng);
                        let mut body = String::from("{\"plan\":");
                        write_escaped(&mut body, &plan);
                        body.push('}');
                        match fleet.post_plan(&body) {
                            Ok(answer) => {
                                latency.record(sent.elapsed());
                                tally.check_trace(&answer.response, Some(stamped));
                                let outcome = verify_plan(
                                    &request,
                                    &answer.response,
                                    &registry,
                                    expected_sources,
                                );
                                tally.settle(&tally.plan_verified, outcome);
                            }
                            // Plan POSTs are single-attempt by design; a
                            // fault mid-flight is an honest "no answer".
                            Err(_) => bump(&tally.plan_unanswered),
                        }
                        continue;
                    }
                    bump(&tally.ops);
                    let tenant_idx = (next_rand(&mut rng) % spec.tenants as u64) as usize;
                    let (tenant, dataset) = &ids[tenant_idx];
                    let owner = owners[tenant_idx];
                    bump(&group_ops[owner]);
                    let request = request_for(&mut rng);
                    let (target, post) = wire_form(tenant.as_str(), dataset.as_str(), &request);
                    let outcome = match &post {
                        Some(body) => fleet.post_json(tenant.as_str(), &target, body),
                        None if op_idx % MISROUTE_EVERY == MISROUTE_EVERY - 1 => {
                            fleet.get_misrouted(tenant.as_str(), &target)
                        }
                        None => fleet.get(tenant.as_str(), &target),
                    };
                    let Ok(answer) = outcome else {
                        bump(&tally.unanswered);
                        continue;
                    };
                    latency.record(sent.elapsed());
                    if answer.degraded {
                        bump(&tally.degraded);
                    }
                    tally.check_trace(&answer.response, Some(stamped));
                    // Ownership gate: a 200 must be stamped by the ring's
                    // owner — anything else is the partitioning twin of torn.
                    let owner_name = fleet.ring().groups()[owner].name.as_str();
                    if answer.response.status == 200
                        && answer.response.header(OWNER_HEADER) != Some(owner_name)
                    {
                        bump(&tally.mis_owned);
                    }
                    let outcome = verify(tenant.as_str(), &request, &answer.response, &registry);
                    tally.settle(&tally.verified, outcome);
                }
                tally.absorb(fleet.client_stats());
                Ok(())
            }));
        }

        // Join everything defensively: the watcher and the monkey loop until
        // the stop flag, so an early client error must not leave the scope
        // blocked on them.  Collect failures, always raise the flag, then
        // report the first.
        let mut first_error: Option<NetError> = None;
        for client in clients {
            note(&mut first_error, client.join(), "client");
        }
        client_phase_nanos.store(
            start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        // Grace windows, on the happy path only: the client phase may be
        // shorter than the probe's TTL, so give the watcher time to see one
        // complete cycle; and let a restart that straddles the end of the
        // client phase finish.
        if first_error.is_none() {
            if let Some(ttl) = fleet_spec.ttl {
                let grace = Instant::now() + (ttl * 30).max(Duration::from_secs(2));
                wait_for(|| load(&tally.ttl_bumps) > 0, &stop, Some(grace));
            }
            if monkey.is_some() {
                let grace = Instant::now() + Duration::from_secs(5);
                let restarted = || load(&tally.kills) <= load(&tally.restarts);
                wait_for(restarted, &stop, Some(grace));
            }
        }
        stop.store(true, Ordering::Release);
        if let Some(monkey) = monkey {
            note(&mut first_error, monkey.join(), "chaos monkey");
        }
        if let Some(watcher) = watcher {
            note(&mut first_error, watcher.join(), "watcher");
        }
        note(&mut first_error, refresher.join(), "refresher");
        first_error.map_or(Ok(()), Err)
    });
    let wall = Duration::from_nanos(client_phase_nanos.load(Ordering::Relaxed));

    // Teardown order: secondaries first (their pollers dial the primaries),
    // then the proxies, then the primaries (stats read after their drain, so
    // in-flight requests count), then the refresh pool, which drains any
    // in-flight re-ingest into its still-live catalog.
    for secondary in secondaries.iter_mut().flatten() {
        secondary.shutdown();
    }
    let mut chaos = ChaosCounters::default();
    for proxy in proxies.into_iter().flatten() {
        let c = proxy.counters();
        chaos.drops += c.drops;
        chaos.delays += c.delays;
        chaos.truncates += c.truncates;
        chaos.resets += c.resets;
        chaos.flaps += c.flaps;
        proxy.shutdown();
    }
    let mut slow = Vec::new();
    let mut server_stats = Vec::with_capacity(primaries.len());
    for mut primary in primaries {
        primary.shutdown();
        server_stats.push(primary.stats());
        slow.extend(primary.telemetry().slow().top(3));
    }
    pool.shutdown();
    run_result?;

    slow.sort_by_key(|e| std::cmp::Reverse(e.duration_nanos));
    let slow_log = slow
        .iter()
        .take(3)
        .map(|e| {
            format!(
                "slow: trace {} {} — {}\n",
                e.trace,
                format_nanos(e.duration_nanos),
                e.detail
            )
        })
        .collect();
    let shares = ring
        .groups()
        .iter()
        .zip(server_stats)
        .enumerate()
        .map(|(g, (group, server))| GroupShare {
            group: group.name.clone(),
            tenants: owners.iter().filter(|&&o| o == g).count() as u64,
            ops: load(&group_ops[g]),
            catalog: catalogs[g].stats(),
            server,
        })
        .collect();
    let mut report = FleetLoadReport {
        groups: fleet_spec.groups,
        replicas: fleet_spec.replicas,
        ops: load(&tally.ops),
        verified: load(&tally.verified),
        plan_ops: load(&tally.plan_ops),
        plan_verified: load(&tally.plan_verified),
        plan_unanswered: load(&tally.plan_unanswered),
        torn_reads: load(&tally.torn),
        mis_owned: load(&tally.mis_owned),
        http_errors: load(&tally.http_errors),
        sheds: load(&tally.sheds),
        degraded: load(&tally.degraded),
        unanswered: load(&tally.unanswered),
        refreshes_published: load(&tally.refreshes),
        probe_polls: load(&tally.probe_polls),
        non_fresh_served: load(&tally.non_fresh),
        ttl_refreshes_observed: load(&tally.ttl_bumps),
        reroutes: stats.reroutes(),
        failovers: stats.failovers(),
        breaker_opens: stats.breaker_opens(),
        sync_deltas_applied: stats.sync_deltas_applied(),
        chaos,
        connect_errors: load(&tally.connect_errors),
        timeouts: load(&tally.timeouts),
        retries: load(&tally.retries),
        trace_violations: load(&tally.trace_violations),
        kills: load(&tally.kills),
        restarts: load(&tally.restarts),
        shares,
        wall,
        latency: latency.snapshot(),
        target_qps: spec.target_qps,
        slo: SloOutcome::default(),
        slow_log,
    };
    report.slo = fleet_spec
        .slo
        .evaluate(&report.latency, report.error_rate(), report.shed_rate());
    Ok(report)
}

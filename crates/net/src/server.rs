//! The HTTP server: a bounded accept/worker pool over
//! `std::net::TcpListener`, routing to an `opaq_serve::QueryEngine`.
//!
//! ## Threading model
//!
//! One accept thread polls the (non-blocking) listener and hands accepted
//! connections to a **bounded** channel feeding `workers` handler threads.
//! A full queue answers **503** and closes instead of buffering unboundedly
//! — the back-pressure story mirrors the bounded crossbeam channels of the
//! sharded ingest path.  Each handler owns its connection for the duration:
//! keep-alive serves up to [`ServerConfig::keep_alive_max_requests`]
//! requests per connection, with a read timeout per request and an idle
//! timeout between requests (both shutdown-aware).
//!
//! ## Shutdown ordering
//!
//! [`HttpServer::shutdown`] mirrors the refresh pool's drain-then-join
//! discipline: stop accepting (join the accept thread), close the
//! connection queue, then join the handlers — which finish their in-flight
//! request, announce `connection: close`, and exit.  When `shutdown`
//! returns, no thread will touch the engine or catalog again, so a caller
//! tearing down "HTTP server → refresh pool → catalog" gets a quiescent
//! stack at every step.

use crate::client::HttpClient;
use crate::http::{read_request, ParseError, ReadLimits, Request, Response};
use crate::json::{write_escaped, write_f64};
use crate::replica::ReplicationStats;
use crate::ring::RingMembership;
use crate::{NetError, NetResult};
use crossbeam::channel;
use opaq_core::QuantileEstimate;
use opaq_metrics::trace::{
    render_span_tree, SlowLog, SpanRecorder, SpanTag, Stage, TraceId, TraceSink, ROOT_SPAN_ID,
};
use opaq_metrics::{Counter, Gauge, LatencySnapshot, MetricRegistry, PlanStage};
use opaq_query::{
    PlanExecutor, PlanResponse, QueryError, QueryPlan, RemotePartial, ScatterFn, Selector,
};
use opaq_serve::{
    DatasetId, Freshness, QueryEngine, QueryOutput, QueryRequest, QueryResponse, ServeError,
    TenantId,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Response header carrying the sketch version that answered.
pub const VERSION_HEADER: &str = "x-opaq-version";
/// Response header carrying the TTL status (`fresh|stale|refreshing`).
pub const FRESHNESS_HEADER: &str = "x-opaq-freshness";
/// Response header carrying the number of catalog entries a plan fused.
pub const SOURCES_HEADER: &str = "x-opaq-sources";
/// Request/response header carrying the request's trace id (16 hex digits).
/// Present on **every** response the server writes — success, error, parse
/// failure, and 503 shed alike; an id sent by the client is propagated,
/// otherwise one is minted at the front door.
pub const TRACE_HEADER: &str = "x-opaq-trace-id";
/// Response header naming the replica group that owns the addressed tenant.
/// A ring-configured server stamps it on **every** response: its own group
/// name normally, or — on a typed `wrong_owner` answer — the group the
/// misdirected request should have gone to.
pub const OWNER_HEADER: &str = "x-opaq-owner";

/// Shared observability state of one serving process: the span ring behind
/// `/v1/_debug/trace`, the slow-query log behind `/v1/_debug/slow`, and the
/// [`MetricRegistry`] rendered by `/metrics`.
///
/// Construct one (or let [`HttpServer::start`] build a default), share it
/// via [`ServerConfigBuilder::telemetry`], and read it back after shutdown
/// for the CLI banner.  All metric families the server exports are
/// registered up front — in [`Telemetry::new`] and [`Telemetry::bind`] — so
/// the exposition schema is identical from the very first scrape.
pub struct Telemetry {
    recorder: Arc<SpanRecorder>,
    slow: Arc<SlowLog>,
    registry: Arc<MetricRegistry>,
    requests: Counter,
    parse_errors: Counter,
    sheds: Counter,
    spans_recorded: Counter,
    spans_dropped: Counter,
    slow_entries: Gauge,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans_recorded", &self.recorder.recorded())
            .field("slow_entries", &self.slow.len())
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Default sizing: a 4096-slot span ring and a 32-entry slow log with a
    /// zero admission threshold (the log simply keeps the 32 slowest).
    pub fn new() -> Self {
        Self::with_capacity(4096, 32, Duration::ZERO)
    }

    /// Explicit sizing for the span ring and slow log.
    pub fn with_capacity(
        span_capacity: usize,
        slow_capacity: usize,
        slow_threshold: Duration,
    ) -> Self {
        let registry = Arc::new(MetricRegistry::new());
        let requests = registry.counter("opaq_http_requests", "Requests answered (any status).");
        let parse_errors = registry.counter(
            "opaq_http_parse_errors",
            "Requests rejected because they could not be parsed.",
        );
        let sheds = registry.counter(
            "opaq_http_sheds",
            "Connections answered 503 by the bounded accept queue.",
        );
        let spans_recorded = registry.counter(
            "opaq_trace_spans_recorded",
            "Spans written into the trace ring (including since-overwritten ones).",
        );
        let spans_dropped = registry.counter(
            "opaq_trace_spans_dropped",
            "Spans dropped because every probed ring slot was mid-write.",
        );
        let slow_entries = registry.gauge(
            "opaq_slow_log_entries",
            "Entries currently held by the slow-query log.",
        );
        Self {
            recorder: Arc::new(SpanRecorder::new(span_capacity)),
            slow: Arc::new(SlowLog::new(slow_capacity, slow_threshold)),
            registry,
            requests,
            parse_errors,
            sheds,
            spans_recorded,
            spans_dropped,
            slow_entries,
        }
    }

    /// The span ring requests record into.
    pub fn recorder(&self) -> &Arc<SpanRecorder> {
        &self.recorder
    }

    /// The top-N slow-query log.
    pub fn slow(&self) -> &Arc<SlowLog> {
        &self.slow
    }

    /// The metric registry `/metrics` renders.
    pub fn registry(&self) -> &Arc<MetricRegistry> {
        &self.registry
    }

    /// Register the engine-backed families — the request and per-stage
    /// latency histograms plus every catalog/replication scalar — and seed
    /// their first values.  Called once by [`HttpServer::start`];
    /// idempotent (re-binding fetches the existing series).
    pub fn bind(
        &self,
        engine: &QueryEngine,
        executor: &PlanExecutor,
        replication: Option<&Arc<ReplicationStats>>,
        ring: Option<&RingMembership>,
    ) {
        self.registry.histogram(
            "opaq_request_duration_nanos",
            "End-to-end request latency (cumulative histogram, nanoseconds).",
            engine.overall_shared(),
        );
        for stage in PlanStage::ALL {
            self.registry.histogram_with(
                "opaq_plan_stage_duration_nanos",
                "Per-plan-stage latency (cumulative histogram, nanoseconds).",
                &[("stage", stage.as_str())],
                executor.stages().shared(stage),
            );
        }
        self.update(engine, replication, ring);
    }

    /// Mirror every scalar whose source of truth lives outside the registry
    /// (per-tenant quantile summaries, catalog stats, replication counters,
    /// trace-ring tallies) into their registered series.  Per-stage plan
    /// latency has no mirror: the `opaq_plan_stage_duration_nanos`
    /// histogram registered in [`Telemetry::bind`] is its one source, and
    /// its `_count` is the stage count.  Called on each `/metrics` scrape.
    pub fn update(
        &self,
        engine: &QueryEngine,
        replication: Option<&Arc<ReplicationStats>>,
        ring: Option<&RingMembership>,
    ) {
        self.spans_recorded.set(self.recorder.recorded());
        self.spans_dropped.set(self.recorder.dropped());
        self.slow_entries.set(self.slow.len() as u64);

        const LAT_HELP: &str = "Per-tenant latency quantile summary (nanoseconds).";
        const CNT_HELP: &str = "Requests recorded per tenant.";
        let mirror = |label: &str, snap: &LatencySnapshot| {
            for (q, value) in [("p50", snap.p50), ("p99", snap.p99), ("p999", snap.p999)] {
                self.registry
                    .gauge_with(
                        "opaq_request_latency_nanos",
                        LAT_HELP,
                        &[("tenant", label), ("quantile", q)],
                    )
                    .set(value.as_nanos().min(u64::MAX as u128) as u64);
            }
            self.registry
                .counter_with("opaq_request_count", CNT_HELP, &[("tenant", label)])
                .set(snap.count);
        };
        for (tenant, snap) in engine.latency_report() {
            mirror(tenant.as_str(), &snap);
        }
        mirror("_all", &engine.overall().snapshot());

        let stats = engine.catalog().stats();
        for (name, help, value) in [
            (
                "opaq_catalog_publishes",
                "Sketch versions published.",
                stats.publishes,
            ),
            (
                "opaq_catalog_snapshots",
                "Snapshot reads served.",
                stats.snapshots,
            ),
            (
                "opaq_catalog_evictions",
                "Entries spilled to disk by the resident budget.",
                stats.evictions,
            ),
            (
                "opaq_catalog_reloads",
                "Spilled entries reloaded on the query path.",
                stats.reloads,
            ),
            (
                "opaq_catalog_spill_failures",
                "Spill attempts that failed.",
                stats.spill_failures,
            ),
            (
                "opaq_catalog_stale_snapshots",
                "Snapshots served past their TTL.",
                stats.stale_snapshots,
            ),
            (
                "opaq_catalog_ttl_refreshes",
                "Expired entries routed to the refresh hook.",
                stats.ttl_refreshes,
            ),
            (
                "opaq_catalog_recoveries",
                "Catalog recoveries replayed from the manifest.",
                stats.recoveries,
            ),
            (
                "opaq_manifest_records",
                "Records appended to the write-ahead manifest.",
                stats.manifest_records,
            ),
            (
                "opaq_catalog_orphan_spills_removed",
                "Orphan spill files deleted during recovery.",
                stats.orphan_spills_removed,
            ),
            (
                "opaq_slo_breaches",
                "Requests over the configured SLO threshold.",
                engine.slo_breaches(),
            ),
        ] {
            self.registry.counter(name, help).set(value);
        }
        for (name, help, value) in [
            (
                "opaq_catalog_entries",
                "Entries currently published.",
                stats.entries,
            ),
            (
                "opaq_catalog_resident_sample_points",
                "Sample points currently resident in memory.",
                stats.resident_sample_points,
            ),
        ] {
            self.registry.gauge(name, help).set(value);
        }

        // Replication/failover: always present (zeros for a standalone
        // server) so dashboards and CI greps never branch on topology.
        let (failovers, breaker_opens, deltas, faults, reroutes, breaker_sum, per_peer) =
            replication
                .map(|r| {
                    (
                        r.failovers(),
                        r.breaker_opens(),
                        r.sync_deltas_applied(),
                        r.chaos_faults_injected(),
                        r.reroutes(),
                        r.breaker_state_sum(),
                        r.breaker_states(),
                    )
                })
                .unwrap_or((0, 0, 0, 0, 0, 0, Vec::new()));
        for (name, help, value) in [
            (
                "opaq_failovers",
                "Requests answered by a non-preferred replica.",
                failovers,
            ),
            (
                "opaq_breaker_opens",
                "Circuit-breaker transitions into the open state.",
                breaker_opens,
            ),
            (
                "opaq_sync_deltas_applied",
                "Catalog entries applied from a peer.",
                deltas,
            ),
            (
                "opaq_chaos_faults_injected",
                "Faults injected by the chaos proxy.",
                faults,
            ),
            (
                "opaq_reroutes",
                "Requests re-routed to their owning group after a wrong_owner answer.",
                reroutes,
            ),
        ] {
            self.registry.counter(name, help).set(value);
        }
        const BREAKER_HELP: &str =
            "Breaker state (0 closed, 1 open, 2 half-open); unlabeled series is the sum.";
        self.registry
            .gauge("opaq_replica_breaker_state", BREAKER_HELP)
            .set(breaker_sum);
        for (peer, gauge) in per_peer {
            self.registry
                .gauge_with(
                    "opaq_replica_breaker_state",
                    BREAKER_HELP,
                    &[("peer", &peer)],
                )
                .set(gauge);
        }

        // Ring ownership: how many distinct tenants in the catalog this
        // group owns per the ring.  Zero (and equal to zero forever) on a
        // ring-less server, so the exposition schema is topology-stable.
        let tenants_owned = ring.map_or(0, |membership| {
            let mut seen: Vec<String> = Vec::new();
            for entry in engine.catalog().inventory() {
                if membership.owns(&entry.tenant) && !seen.contains(&entry.tenant) {
                    seen.push(entry.tenant.clone());
                }
            }
            seen.len() as u64
        });
        self.registry
            .gauge(
                "opaq_ring_tenants_owned",
                "Distinct catalog tenants owned by this replica group per the hash ring.",
            )
            .set(tenants_owned);
    }
}

/// Tunables of one [`HttpServer`].
///
/// Marked `#[non_exhaustive]`: construct it with [`ServerConfig::builder`]
/// (or start from [`ServerConfig::default`]), so query-engine knobs can be
/// added later without breaking downstream construction sites.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Connection-handler threads (the accept pool bound).
    pub workers: usize,
    /// Accepted-but-unhandled connections the queue holds before the accept
    /// thread answers 503 and closes.
    pub accept_backlog: usize,
    /// Requests served per connection before the server closes it.
    pub keep_alive_max_requests: u32,
    /// Timeout for reading one request once its first byte arrived.
    pub read_timeout: Duration,
    /// How long an idle keep-alive connection may wait for its next request.
    pub keep_alive_idle: Duration,
    /// Request parsing limits (header/body caps).
    pub limits: ReadLimits,
    /// Shared replication/failover counters to expose via `/metrics`
    /// (`None` for a standalone server: the gauges render as zeros).
    pub replication: Option<Arc<ReplicationStats>>,
    /// This server's ring membership on a consistent-hash partitioned
    /// fleet.  `None` (the default) serves every tenant, unpartitioned.
    /// With a membership: single-tenant requests for tenants another group
    /// owns get a typed `wrong_owner` 421, every response carries
    /// [`OWNER_HEADER`], and glob plans scatter to peer groups so coalesced
    /// answers stay byte-identical to an unpartitioned catalog.
    pub ring: Option<Arc<RingMembership>>,
    /// Shared observability state (span ring, slow log, metric registry).
    /// `None` lets the server build a default-sized one; supply your own to
    /// read traces and slow-log summaries back after shutdown.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            accept_backlog: 64,
            keep_alive_max_requests: 1_000,
            read_timeout: Duration::from_secs(5),
            keep_alive_idle: Duration::from_secs(10),
            limits: ReadLimits::default(),
            replication: None,
            ring: None,
            telemetry: None,
        }
    }
}

impl ServerConfig {
    /// Start building a validated configuration (from the defaults).
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::default()
    }
}

/// Builder for [`ServerConfig`] — see [`ServerConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Connection-handler threads (must be at least one).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Accepted-but-unhandled connections queued before shedding with 503.
    /// Zero is valid: every connection not immediately claimed by a worker
    /// is shed (useful for overload tests).
    pub fn accept_backlog(mut self, backlog: usize) -> Self {
        self.config.accept_backlog = backlog;
        self
    }

    /// Requests served per connection before closing (must be positive).
    pub fn keep_alive_max_requests(mut self, max: u32) -> Self {
        self.config.keep_alive_max_requests = max;
        self
    }

    /// Timeout for reading one request (must be non-zero).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.config.read_timeout = timeout;
        self
    }

    /// Idle deadline between keep-alive requests (must be non-zero).
    pub fn keep_alive_idle(mut self, idle: Duration) -> Self {
        self.config.keep_alive_idle = idle;
        self
    }

    /// Request parsing limits (header/body caps).
    pub fn limits(mut self, limits: ReadLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Attach shared replication/failover counters for `/metrics`.
    pub fn replication(mut self, stats: Arc<ReplicationStats>) -> Self {
        self.config.replication = Some(stats);
        self
    }

    /// Join a consistent-hash partitioned fleet as a member of one replica
    /// group (see [`ServerConfig::ring`]).
    pub fn ring(mut self, membership: Arc<RingMembership>) -> Self {
        self.config.ring = Some(membership);
        self
    }

    /// Attach shared observability state (span ring, slow log, registry).
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.config.telemetry = Some(telemetry);
        self
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] for zero workers, a zero keep-alive
    /// request cap, or zero timeouts — all of which would make the server
    /// accept connections it can never answer.
    pub fn build(self) -> NetResult<ServerConfig> {
        if self.config.workers == 0 {
            return Err(NetError::InvalidConfig(
                "the server needs at least one worker".into(),
            ));
        }
        if self.config.keep_alive_max_requests == 0 {
            return Err(NetError::InvalidConfig(
                "keep_alive_max_requests must be positive".into(),
            ));
        }
        if self.config.read_timeout.is_zero() {
            return Err(NetError::InvalidConfig(
                "read_timeout must be non-zero".into(),
            ));
        }
        if self.config.keep_alive_idle.is_zero() {
            return Err(NetError::InvalidConfig(
                "keep_alive_idle must be non-zero".into(),
            ));
        }
        Ok(self.config)
    }
}

/// Monotonic counters of one server's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused with 503 because the queue was full.
    pub rejected: u64,
    /// Requests answered (any status).
    pub requests: u64,
    /// Requests that could not be parsed (400/408/413/431/501 family).
    pub parse_errors: u64,
}

#[derive(Debug, Default)]
struct StatsInner {
    connections: AtomicU64,
    rejected: AtomicU64,
    requests: AtomicU64,
    parse_errors: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
        }
    }
}

/// A running HTTP front-end over one [`QueryEngine`].
pub struct HttpServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stats: Arc<StatsInner>,
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Bind `config.addr` and start serving `engine`.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] for zero workers; I/O errors from binding.
    pub fn start(engine: Arc<QueryEngine>, config: ServerConfig) -> NetResult<Self> {
        if config.workers == 0 {
            return Err(NetError::InvalidConfig(
                "the server needs at least one worker".into(),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept: the accept thread polls so it can observe
        // shutdown without needing a wake-up connection.
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsInner::default());
        let (conn_tx, conn_rx) = channel::bounded::<TcpStream>(config.accept_backlog);
        let conn_rx = Arc::new(parking_lot::Mutex::new(conn_rx));
        // One executor serves every route: the GET point queries compile to
        // degenerate plans and run through it alongside POST /v1/query, so
        // there is exactly one evaluation path (and one set of per-stage
        // latency histograms) behind the whole API surface.  On a ring
        // member, the executor also carries the cross-group scatter hook.
        let mut executor = PlanExecutor::new(Arc::clone(engine.catalog()));
        if let Some(membership) = config.ring.clone() {
            executor = executor.with_scatter(scatter_hook(membership));
        }
        let executor = Arc::new(executor);
        let telemetry = config
            .telemetry
            .clone()
            .unwrap_or_else(|| Arc::new(Telemetry::new()));
        telemetry.bind(
            &engine,
            &executor,
            config.replication.as_ref(),
            config.ring.as_deref(),
        );

        let workers = (0..config.workers)
            .map(|i| {
                let conn_rx = Arc::clone(&conn_rx);
                let engine = Arc::clone(&engine);
                let executor = Arc::clone(&executor);
                let config = config.clone();
                let shutdown = Arc::clone(&shutdown);
                let stats = Arc::clone(&stats);
                let telemetry = Arc::clone(&telemetry);
                std::thread::Builder::new()
                    .name(format!("opaq-net-worker-{i}"))
                    .spawn(move || loop {
                        let stream = {
                            let rx = conn_rx.lock();
                            rx.recv()
                        };
                        let Ok(stream) = stream else {
                            return; // queue closed and drained
                        };
                        handle_connection(
                            stream, &engine, &executor, &config, &shutdown, &stats, &telemetry,
                        );
                    })
                    .expect("spawning an HTTP worker cannot fail")
            })
            .collect();

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let telemetry = Arc::clone(&telemetry);
            std::thread::Builder::new()
                .name("opaq-net-accept".to_string())
                .spawn(move || {
                    // `conn_tx` moves in here: when this thread exits, the
                    // channel closes and the workers drain out.
                    let conn_tx = conn_tx;
                    while !shutdown.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                stats.connections.fetch_add(1, Ordering::Relaxed);
                                // Bounded hand-off: a full queue means the
                                // workers are saturated — shed load with a
                                // 503 instead of queueing unboundedly.
                                if let Err(back) = try_send(&conn_tx, stream) {
                                    stats.rejected.fetch_add(1, Ordering::Relaxed);
                                    telemetry.sheds.inc();
                                    // Even a shed carries a trace id and a
                                    // root span, so overload is visible in
                                    // the ring, not just a counter.
                                    let trace = TraceId::mint();
                                    TraceSink::new(Arc::clone(&telemetry.recorder), trace)
                                        .finish_root(Stage::Request, SpanTag::Shed);
                                    let mut stream = back;
                                    let _ = Response::error(503, "server overloaded")
                                        .with_header(TRACE_HEADER, trace.to_string())
                                        .write_to(&mut stream, false);
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => {
                                // Transient accept failure (e.g. EMFILE):
                                // back off briefly rather than spin.
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        }
                    }
                })
                .expect("spawning the accept thread cannot fail")
        };

        Ok(Self {
            local_addr,
            shutdown,
            accept: Some(accept),
            workers,
            stats,
            telemetry,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// The observability state this server records into (the configured one,
    /// or the default built at start).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Stop accepting, drain queued connections' in-flight requests, join
    /// every thread.  Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            // Joining the accept thread drops the connection sender, which
            // closes the queue; the workers then drain what was accepted
            // (each serving at most its current request before noticing the
            // flag) and exit.
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Non-blocking send; gives the stream back on a full (or closed) queue so
/// the accept thread can answer 503 instead of blocking.
fn try_send(tx: &channel::Sender<TcpStream>, stream: TcpStream) -> Result<(), TcpStream> {
    tx.try_send(stream).map_err(|e| match e {
        channel::TrySendError::Full(stream) | channel::TrySendError::Disconnected(stream) => stream,
    })
}

/// Serve one connection until close/limits/shutdown.
fn handle_connection(
    stream: TcpStream,
    engine: &Arc<QueryEngine>,
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    stats: &StatsInner,
    telemetry: &Telemetry,
) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    for served in 0..config.keep_alive_max_requests {
        match wait_for_request(&mut reader, config, shutdown) {
            Wait::Ready => {}
            Wait::Close => return,
        }
        let _ = reader.get_ref().set_read_timeout(Some(config.read_timeout));
        let parse_start = Instant::now();
        let request = read_request(&mut reader, &config.limits);
        let parse_nanos = parse_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let (response, keep_alive) = match request {
            Ok(request) => {
                // The trace id arrives in the request header (a failover hop
                // or sync pull propagating its trace) or is minted here at
                // the front door.  Parsing happened before the id was
                // readable, so its span is recorded retroactively.
                let trace = request
                    .header(TRACE_HEADER)
                    .and_then(TraceId::parse)
                    .unwrap_or_else(TraceId::mint);
                let sink = TraceSink::new(Arc::clone(&telemetry.recorder), trace);
                sink.complete_with(
                    sink.allocate(),
                    ROOT_SPAN_ID,
                    Stage::Parse,
                    SpanTag::Untagged,
                    0,
                    parse_nanos,
                );
                let response = route(engine, executor, config, telemetry, &sink, &request);
                let tag = if response.status >= 500 {
                    SpanTag::Error
                } else {
                    SpanTag::Untagged
                };
                let total = parse_start.elapsed();
                sink.complete_with(
                    ROOT_SPAN_ID,
                    0,
                    Stage::Request,
                    tag,
                    0,
                    total.as_nanos().min(u64::MAX as u128) as u64,
                );
                let detail = sink.take_annotation();
                telemetry.slow.offer(trace, total, || {
                    detail.unwrap_or_else(|| format!("{} {}", request.method, request.path))
                });
                let keep_alive = request.wants_keep_alive()
                    && served + 1 < config.keep_alive_max_requests
                    && !shutdown.load(Ordering::Acquire);
                (
                    response.with_header(TRACE_HEADER, trace.to_string()),
                    keep_alive,
                )
            }
            Err(ParseError::ConnectionClosed) => return,
            Err(e) => {
                stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                telemetry.parse_errors.inc();
                // Unparseable requests can't propagate an id; mint one so
                // even the 4xx carries a trace handle into the ring.
                let trace = TraceId::mint();
                let sink = TraceSink::new(Arc::clone(&telemetry.recorder), trace);
                sink.complete_with(
                    sink.allocate(),
                    ROOT_SPAN_ID,
                    Stage::Parse,
                    SpanTag::Error,
                    0,
                    parse_nanos,
                );
                sink.complete_with(
                    ROOT_SPAN_ID,
                    0,
                    Stage::Request,
                    SpanTag::Error,
                    0,
                    parse_nanos,
                );
                (
                    parse_error_response(&e).with_header(TRACE_HEADER, trace.to_string()),
                    false,
                )
            }
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        telemetry.requests.inc();
        if response.write_to(reader.get_mut(), keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

enum Wait {
    Ready,
    Close,
}

/// Idle phase between keep-alive requests: poll for the first byte with a
/// short timeout so both shutdown and the idle deadline are observed without
/// consuming any request bytes (pipelined bytes already buffered count as
/// ready).  A request whose bytes have already arrived is reported `Ready`
/// even under shutdown — it gets served (with `connection: close`) rather
/// than dropped, so the drain semantics documented on
/// [`HttpServer::shutdown`] hold for queued work too.
fn wait_for_request(
    reader: &mut BufReader<TcpStream>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) -> Wait {
    if !reader.buffer().is_empty() {
        return Wait::Ready;
    }
    let started = Instant::now();
    let poll = Duration::from_millis(50);
    loop {
        // Probe for data *before* consulting the shutdown flag, so a
        // request that raced shutdown onto the wire is answered, not
        // silently closed on.
        let _ = reader.get_ref().set_read_timeout(Some(poll));
        let mut probe = [0u8; 1];
        match reader.get_ref().peek(&mut probe) {
            Ok(0) => return Wait::Close, // clean EOF
            Ok(_) => return Wait::Ready,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return Wait::Close,
        }
        if shutdown.load(Ordering::Acquire) {
            return Wait::Close;
        }
        if started.elapsed() > config.keep_alive_idle {
            return Wait::Close;
        }
    }
}

fn parse_error_response(e: &ParseError) -> Response {
    match e {
        ParseError::HeadersTooLarge => Response::error(431, &e.to_string()),
        ParseError::BodyTooLarge => Response::error(413, &e.to_string()),
        ParseError::Unsupported(_) => Response::error(501, &e.to_string()),
        ParseError::Io(io) if io.kind() == std::io::ErrorKind::WouldBlock => {
            Response::error(408, "timed out reading the request")
        }
        ParseError::Io(io) if io.kind() == std::io::ErrorKind::TimedOut => {
            Response::error(408, "timed out reading the request")
        }
        _ => Response::error(400, &e.to_string()),
    }
}

/// A typed, already-validated API request: the single conversion layer
/// between wire parameters and the executor.  Every endpoint — the four
/// legacy GET/POST point routes and the plan endpoint — lowers to one of
/// these, and both compile to a [`QueryPlan`] for the shared executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// A single-`(tenant, dataset)` point query (the GET /v1 family).
    Point {
        /// The tenant addressed by the path.
        tenant: TenantId,
        /// The dataset addressed by the path.
        dataset: DatasetId,
        /// The validated extract request.
        request: QueryRequest,
    },
    /// A pipeline expression (POST /v1/query).
    Plan(QueryPlan),
}

impl ApiRequest {
    /// Lower to the plan the executor runs.  Point requests become
    /// degenerate exact-selector plans, so ids containing `*`/`?` remain
    /// addressable through the path-based API.
    pub fn into_plan(self) -> QueryPlan {
        match self {
            ApiRequest::Point {
                tenant,
                dataset,
                request,
            } => QueryPlan::single(tenant, dataset, request),
            ApiRequest::Plan(plan) => plan,
        }
    }
}

/// Route one parsed request to the engine.  Pure function of
/// `(engine state, config, request)` — the HTTP workload harness
/// re-renders expected responses through the same code path to compare
/// bytes.  Spans for route/compile/fetch/merge/extract/render land on
/// `sink`; the caller owns the root span and the trace-id response header.
/// On a ring member every response leaves with [`OWNER_HEADER`] set — the
/// local group normally, the actual owner on a `wrong_owner` answer.
pub fn route(
    engine: &Arc<QueryEngine>,
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    telemetry: &Telemetry,
    sink: &TraceSink,
    request: &Request,
) -> Response {
    let response = route_inner(engine, executor, config, telemetry, sink, request);
    match config.ring.as_deref() {
        Some(membership) if !response.headers.iter().any(|(k, _)| k == OWNER_HEADER) => {
            response.with_header(OWNER_HEADER, membership.group_name().to_string())
        }
        _ => response,
    }
}

/// Resolve tenant ownership for a ring member, recording a [`Stage::Route`]
/// span (tagged [`SpanTag::Error`] when misdirected).  Returns the typed
/// `wrong_owner` response to send when another group owns the tenant.
fn check_ownership(
    config: &ServerConfig,
    sink: &TraceSink,
    tenant: &str,
) -> Result<(), Box<Response>> {
    let Some(membership) = config.ring.as_deref() else {
        return Ok(());
    };
    let route_start = sink.now_nanos();
    let owned = membership.owns(tenant);
    let tag = if owned {
        SpanTag::Untagged
    } else {
        SpanTag::Error
    };
    sink.child(ROOT_SPAN_ID, Stage::Route, tag, route_start);
    if owned {
        return Ok(());
    }
    let owner = membership.owner(tenant);
    let mut body = String::from("{\"error\":{\"code\":\"wrong_owner\",\"message\":");
    write_escaped(
        &mut body,
        &format!("tenant {:?} is owned by group {:?}", tenant, owner.name),
    );
    body.push_str(",\"owner\":{\"group\":");
    write_escaped(&mut body, &owner.name);
    body.push_str(",\"addrs\":[");
    for (i, addr) in owner.addrs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write_escaped(&mut body, addr);
    }
    body.push_str("]}}}");
    Err(Box::new(
        Response::json(421, body).with_header(OWNER_HEADER, owner.name.clone()),
    ))
}

fn route_inner(
    engine: &Arc<QueryEngine>,
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    telemetry: &Telemetry,
    sink: &TraceSink,
    request: &Request,
) -> Response {
    // Segments were percent-decoded individually by the parser, so a tenant
    // id containing a literal `/` (sent as `%2F`) is one segment here.
    let segments: Vec<&str> = request.segments.iter().map(String::as_str).collect();
    match segments.as_slice() {
        ["healthz"] => {
            if request.method != "GET" {
                return Response::error(405, "healthz is GET-only");
            }
            let stats = engine.catalog().stats();
            Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"entries\":{},\"publishes\":{}}}",
                    stats.entries, stats.publishes
                ),
            )
        }
        ["metrics"] => {
            if request.method != "GET" {
                return Response::error(405, "metrics is GET-only");
            }
            telemetry.update(engine, config.replication.as_ref(), config.ring.as_deref());
            Response::text(200, telemetry.registry.render())
        }
        ["v1", "_debug", "trace"] => route_debug_trace(telemetry, request),
        ["v1", "_debug", "slow"] => route_debug_slow(telemetry, request),
        ["v1", "_sync", "manifest"] => {
            if request.method != "GET" {
                return Response::error(405, "sync manifest is GET-only");
            }
            Response::json(200, render_inventory_json(engine))
        }
        ["v1", "_sync", "sketch"] => route_sync_sketch(engine, request),
        ["v1", "query"] => route_query(engine, executor, config, sink, request),
        ["v1", tenant, dataset, op] => {
            if let Err(response) = check_ownership(config, sink, tenant) {
                return *response;
            }
            let compile_start = sink.now_nanos();
            let api = match parse_point_request(request, tenant, dataset, op) {
                Ok(api) => api,
                Err(response) => return *response,
            };
            let plan = api.into_plan();
            sink.child(
                ROOT_SPAN_ID,
                Stage::Compile,
                SpanTag::Untagged,
                compile_start,
            );
            match run_plan(engine, executor, sink, &plan) {
                Ok(executed) => {
                    // A degenerate plan has exactly one source; reconstruct
                    // the legacy single-target response shape from it, so
                    // the GET bodies stay byte-for-byte what they were when
                    // each route parsed and executed on its own.
                    let (version, freshness) = executed
                        .sources
                        .first()
                        .map(|s| (s.version, s.freshness))
                        .unwrap_or((0, Freshness::Fresh));
                    let response = QueryResponse {
                        output: executed.output,
                        version,
                        total_elements: executed.total_elements,
                        freshness,
                    };
                    let render_start = sink.now_nanos();
                    let body = render_response_json(&response);
                    sink.child(ROOT_SPAN_ID, Stage::Render, SpanTag::Untagged, render_start);
                    Response::json(200, body)
                        .with_header(VERSION_HEADER, version.to_string())
                        .with_header(FRESHNESS_HEADER, freshness.as_str())
                }
                Err(response) => *response,
            }
        }
        _ => Response::error(404, "no such route"),
    }
}

/// `GET /v1/_debug/trace?id=HEX`: render the recorded span tree of one
/// trace as indented text (partial if the ring wrapped).
fn route_debug_trace(telemetry: &Telemetry, request: &Request) -> Response {
    if request.method != "GET" {
        return Response::error(405, "debug trace is GET-only");
    }
    let Some(raw) = request.query_param("id") else {
        return Response::error(400, "missing query parameter id");
    };
    let Some(id) = TraceId::parse(raw) else {
        return Response::error(400, "id must be 1-16 hex digits");
    };
    let spans = telemetry.recorder.trace(id);
    if spans.is_empty() {
        return Response::error(404, "no spans recorded for that trace");
    }
    Response::text(200, format!("trace {id}\n{}", render_span_tree(&spans)))
}

/// `GET /v1/_debug/slow?n=N`: the N slowest requests (default 10), slowest
/// first, as JSON with each entry's trace id and plan provenance.
fn route_debug_slow(telemetry: &Telemetry, request: &Request) -> Response {
    if request.method != "GET" {
        return Response::error(405, "debug slow is GET-only");
    }
    let n = match request.query_param("n") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "n must be an unsigned integer"),
        },
    };
    let mut out = String::from("{\"threshold_nanos\":");
    out.push_str(&(telemetry.slow.threshold().as_nanos().min(u64::MAX as u128) as u64).to_string());
    out.push_str(",\"entries\":[");
    for (i, entry) in telemetry.slow.top(n).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"trace\":");
        write_escaped(&mut out, &entry.trace.to_string());
        out.push_str(",\"duration_nanos\":");
        out.push_str(&entry.duration_nanos.to_string());
        out.push_str(",\"detail\":");
        write_escaped(&mut out, &entry.detail);
        out.push('}');
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// `GET /v1/_sync/manifest`: the catalog's version vector as JSON, sorted —
/// what a bootstrapping or delta-polling replica diffs against its own
/// catalog.
fn render_inventory_json(engine: &Arc<QueryEngine>) -> String {
    let mut out = String::from("{\"entries\":[");
    for (i, entry) in engine.catalog().inventory().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"tenant\":");
        write_escaped(&mut out, &entry.tenant);
        out.push_str(",\"dataset\":");
        write_escaped(&mut out, &entry.dataset);
        out.push_str(",\"version\":");
        out.push_str(&entry.version.to_string());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// `GET /v1/_sync/sketch?tenant=&dataset=`: the entry's current sketch in
/// the checksummed `opaq_storage::sketch_codec` frame, with the served
/// version in `x-opaq-version` — one atomic `(version, bytes)` pair, so a
/// replica can never apply bytes under the wrong version number.
fn route_sync_sketch(engine: &Arc<QueryEngine>, request: &Request) -> Response {
    if request.method != "GET" {
        return Response::error(405, "sync sketch is GET-only");
    }
    let Some(tenant) = request.query_param("tenant") else {
        return Response::error(400, "missing query parameter tenant");
    };
    let Some(dataset) = request.query_param("dataset") else {
        return Response::error(400, "missing query parameter dataset");
    };
    let snapshot = match engine
        .catalog()
        .snapshot(&TenantId::new(tenant), &DatasetId::new(dataset))
    {
        Ok(snapshot) => snapshot,
        Err(ServeError::UnknownEntry { .. }) => {
            return Response::error(404, "no sketch published for that entry")
        }
        Err(e) => return Response::error(500, &e.to_string()),
    };
    let bytes = opaq_storage::sketch_codec::to_bytes(&snapshot.sketch.to_wire());
    Response::octets(200, bytes).with_header(VERSION_HEADER, snapshot.version.to_string())
}

/// Parse the legacy per-`(tenant, dataset)` wire parameters into a typed
/// [`ApiRequest::Point`].  Validation errors come back as ready-to-send
/// responses with the same statuses and messages the per-route parsers
/// used to emit.
fn parse_point_request(
    request: &Request,
    tenant: &str,
    dataset: &str,
    op: &str,
) -> Result<ApiRequest, Box<Response>> {
    let fail = |status: u16, message: &str| Err(Box::new(Response::error(status, message)));
    let query = match op {
        "quantile" => {
            if request.method != "GET" {
                return fail(405, "quantile is GET-only");
            }
            let Some(raw) = request.query_param("phi") else {
                return fail(400, "missing query parameter phi");
            };
            let Ok(phi) = raw.parse::<f64>() else {
                return fail(400, "phi must be a number");
            };
            if !phi.is_finite() {
                return fail(400, "phi must be finite");
            }
            QueryRequest::Quantile { phi }
        }
        "rank" => {
            if request.method != "GET" {
                return fail(405, "rank is GET-only");
            }
            let Some(raw) = request.query_param("key") else {
                return fail(400, "missing query parameter key");
            };
            let Ok(key) = raw.parse::<u64>() else {
                return fail(400, "key must be an unsigned integer");
            };
            QueryRequest::Rank { key }
        }
        "profile" => {
            if request.method != "GET" {
                return fail(405, "profile is GET-only");
            }
            let count = match request.query_param("count") {
                None => 10,
                Some(raw) => match raw.parse::<u64>() {
                    Ok(count) => count,
                    Err(_) => return fail(400, "count must be an unsigned integer"),
                },
            };
            QueryRequest::Profile { count }
        }
        "quantile_batch" => {
            if request.method != "POST" {
                return fail(405, "quantile_batch is POST-only");
            }
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return fail(400, "body must be UTF-8 JSON");
            };
            let parsed = match crate::json::Json::parse(body) {
                Ok(parsed) => parsed,
                Err(e) => return fail(400, &e.to_string()),
            };
            let Some(items) = parsed.get("phis").and_then(|v| v.as_array()) else {
                return fail(400, "body must be {\"phis\": [numbers]}");
            };
            let mut phis = Vec::with_capacity(items.len());
            for item in items {
                match item.as_f64() {
                    Some(phi) if phi.is_finite() => phis.push(phi),
                    _ => return fail(400, "phis must be finite numbers"),
                }
            }
            QueryRequest::QuantileBatch { phis }
        }
        _ => return fail(404, "no such operation"),
    };
    Ok(ApiRequest::Point {
        tenant: TenantId::new(tenant),
        dataset: DatasetId::new(dataset),
        request: query,
    })
}

/// `POST /v1/query`: parse `{"plan": "fetch ... | ..."}`, execute, render
/// the plan response with its full source provenance.
fn route_query(
    engine: &Arc<QueryEngine>,
    executor: &Arc<PlanExecutor>,
    config: &ServerConfig,
    sink: &TraceSink,
    request: &Request,
) -> Response {
    if request.method != "POST" {
        return Response::error(405, "query is POST-only");
    }
    let compile_start = sink.now_nanos();
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let parsed = match crate::json::Json::parse(body) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let Some(text) = parsed.get("plan").and_then(|v| v.as_str()) else {
        return Response::error(400, "body must be {\"plan\": \"fetch ... | ...\"}");
    };
    // The plan text is the provenance the slow log wants: a slow entry
    // names the pipeline, not just a path.
    sink.annotate(format!("plan: {text}"));
    let plan = match QueryPlan::parse(text) {
        Ok(plan) => plan,
        Err(e) => return Response::error_coded(400, "invalid_plan", &e.to_string()),
    };
    sink.child(
        ROOT_SPAN_ID,
        Stage::Compile,
        SpanTag::Untagged,
        compile_start,
    );
    // Single-tenant plans are routed like the point API: a misdirected one
    // answers `wrong_owner`.  Glob plans run anywhere — the executor's
    // scatter hook gathers the other groups' partials.
    if let Selector::Exact { tenant, .. } = &plan.selector {
        if let Err(response) = check_ownership(config, sink, tenant.as_str()) {
            return *response;
        }
    }
    match run_plan(engine, executor, sink, &plan) {
        Ok(executed) => {
            let sources = executed.sources.len().to_string();
            let render_start = sink.now_nanos();
            let body = render_plan_response_json(&executed);
            sink.child(ROOT_SPAN_ID, Stage::Render, SpanTag::Untagged, render_start);
            Response::json(200, body).with_header(SOURCES_HEADER, sources)
        }
        Err(response) => *response,
    }
}

/// Execute a plan through the shared executor, recording request latency
/// exactly as the engine's own execute path does: the elapsed time lands in
/// the fleet-wide histogram once, and in each distinct contributing
/// tenant's histogram, on success only.
fn run_plan(
    engine: &Arc<QueryEngine>,
    executor: &Arc<PlanExecutor>,
    sink: &TraceSink,
    plan: &QueryPlan,
) -> Result<PlanResponse, Box<Response>> {
    let start = Instant::now();
    let executed = executor
        .execute_traced(plan, sink, ROOT_SPAN_ID)
        .map_err(plan_error_response)?;
    let elapsed = start.elapsed();
    engine.overall().record(elapsed);
    let mut previous: Option<&TenantId> = None;
    for source in &executed.sources {
        // Sources arrive in sorted key order, so equal tenants are adjacent.
        if previous != Some(&source.tenant) {
            engine.tenant_histogram(&source.tenant).record(elapsed);
            previous = Some(&source.tenant);
        }
    }
    Ok(executed)
}

/// Build the cross-group gather hook a ring member installs on its
/// [`PlanExecutor`]: for every *peer* group, pull a replica's manifest,
/// keep the selector's matches, and fetch each matching sketch at its exact
/// published version (the same `/v1/_sync/*` endpoints replication uses, so
/// bytes and version travel atomically).  Replica addresses are tried in
/// order; a group with no reachable replica fails the plan loudly (500)
/// rather than returning a silently partial answer.  The request's trace id
/// rides on every hop, so the scatter fan-out is one trace end to end.
fn scatter_hook(membership: Arc<RingMembership>) -> Arc<ScatterFn> {
    Arc::new(move |selector: &Selector, trace: Option<TraceId>| {
        let mut partials = Vec::new();
        for group in membership.peer_groups() {
            let mut gathered: Option<Vec<RemotePartial>> = None;
            let mut last_err: Option<NetError> = None;
            for addr in &group.addrs {
                let mut client = HttpClient::new(addr.clone())
                    .with_read_timeout(Duration::from_millis(500))
                    .with_connect_timeout(Duration::from_millis(250));
                client.set_trace_id(trace);
                match gather_from_peer(&mut client, selector) {
                    Ok(found) => {
                        gathered = Some(found);
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            match gathered {
                Some(found) => partials.extend(found),
                None => {
                    let detail = last_err
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "group has no replica addresses".to_string());
                    return Err(QueryError::Serve(ServeError::InvalidConfig(format!(
                        "scatter to group {:?} failed: {detail}",
                        group.name
                    ))));
                }
            }
        }
        Ok(partials)
    })
}

/// One peer replica's contribution to a scatter: its manifest filtered by
/// the selector, each match fetched at the manifest-then-header version.
fn gather_from_peer(client: &mut HttpClient, selector: &Selector) -> NetResult<Vec<RemotePartial>> {
    let mut found = Vec::new();
    for entry in crate::sync::fetch_manifest(client)? {
        let tenant = TenantId::new(&entry.tenant);
        let dataset = DatasetId::new(&entry.dataset);
        if !selector.matches(&tenant, &dataset) {
            continue;
        }
        let (version, sketch) = crate::sync::fetch_sketch(client, &entry.tenant, &entry.dataset)?;
        found.push(RemotePartial {
            tenant,
            dataset,
            version,
            sketch: Arc::new(sketch),
        });
    }
    Ok(found)
}

/// Map executor errors to responses.  The single-target serve errors keep
/// the statuses and messages the legacy routes emitted; plan-specific
/// failures get their own stable codes.
fn plan_error_response(e: QueryError) -> Box<Response> {
    Box::new(match &e {
        QueryError::Parse { .. } => Response::error_coded(400, "invalid_plan", &e.to_string()),
        QueryError::NoMatch { .. } => Response::error_coded(404, "not_found", &e.to_string()),
        QueryError::NeedsCoalesce { .. } => {
            Response::error_coded(400, "needs_coalesce", &e.to_string())
        }
        QueryError::Serve(ServeError::UnknownEntry { tenant, dataset }) => {
            Response::error(404, &format!("no sketch published for {tenant}/{dataset}"))
        }
        QueryError::Serve(ServeError::Opaq(err)) => Response::error(400, &err.to_string()),
        QueryError::Serve(err) => Response::error(500, &err.to_string()),
    })
}

/// Canonical JSON body of a successful query response.  Both the server and
/// the HTTP workload harness use this single renderer, so "byte-for-byte
/// identical to the in-process answer" is checkable by string equality.
pub fn render_response_json(response: &QueryResponse) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"version\":");
    out.push_str(&response.version.to_string());
    out.push_str(",\"total_elements\":");
    out.push_str(&response.total_elements.to_string());
    out.push_str(",\"freshness\":");
    write_escaped(&mut out, response.freshness.as_str());
    match &response.output {
        QueryOutput::Quantile(est) => {
            out.push_str(",\"estimate\":");
            write_estimate(&mut out, est);
        }
        QueryOutput::Rank(bounds) => {
            out.push_str(",\"rank\":{\"min_rank\":");
            out.push_str(&bounds.min_rank.to_string());
            out.push_str(",\"max_rank\":");
            out.push_str(&bounds.max_rank.to_string());
            out.push('}');
        }
        QueryOutput::QuantileBatch(ests) | QueryOutput::Profile(ests) => {
            out.push_str(",\"estimates\":[");
            for (i, est) in ests.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_estimate(&mut out, est);
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

/// Canonical JSON body of a successful `POST /v1/query` response: the same
/// output keys as [`render_response_json`], plus the full `sources` array —
/// one `(tenant, dataset, version, freshness)` tuple per contributing
/// snapshot — in place of the single version/freshness pair.  Shared with
/// the workload verifier so plan answers are byte-replayable too.
pub fn render_plan_response_json(response: &PlanResponse) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"total_elements\":");
    out.push_str(&response.total_elements.to_string());
    out.push_str(",\"sources\":[");
    for (i, source) in response.sources.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"tenant\":");
        write_escaped(&mut out, source.tenant.as_str());
        out.push_str(",\"dataset\":");
        write_escaped(&mut out, source.dataset.as_str());
        out.push_str(",\"version\":");
        out.push_str(&source.version.to_string());
        out.push_str(",\"freshness\":");
        write_escaped(&mut out, source.freshness.as_str());
        out.push('}');
    }
    out.push(']');
    match &response.output {
        QueryOutput::Quantile(est) => {
            out.push_str(",\"estimate\":");
            write_estimate(&mut out, est);
        }
        QueryOutput::Rank(bounds) => {
            out.push_str(",\"rank\":{\"min_rank\":");
            out.push_str(&bounds.min_rank.to_string());
            out.push_str(",\"max_rank\":");
            out.push_str(&bounds.max_rank.to_string());
            out.push('}');
        }
        QueryOutput::QuantileBatch(ests) | QueryOutput::Profile(ests) => {
            out.push_str(",\"estimates\":[");
            for (i, est) in ests.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_estimate(&mut out, est);
            }
            out.push(']');
        }
    }
    out.push('}');
    out
}

fn write_estimate(out: &mut String, est: &QuantileEstimate<u64>) {
    out.push_str("{\"phi\":");
    write_f64(out, est.phi);
    out.push_str(",\"target_rank\":");
    out.push_str(&est.target_rank.to_string());
    out.push_str(",\"lower\":");
    out.push_str(&est.lower.to_string());
    out.push_str(",\"upper\":");
    out.push_str(&est.upper.to_string());
    out.push_str(",\"max_rank_slack\":");
    out.push_str(&est.max_rank_slack.to_string());
    out.push('}');
}

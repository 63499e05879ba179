//! Workloads `serve-point` and `coalesce-refresh`: HTTP serving over a
//! sketch catalog.
//!
//! Set-up builds every tenant's sketch with `ShardedOpaq`, publishes it,
//! starts an `HttpServer` with default workers and warms it with a fixed
//! number of requests per client.  There are `min(nproc, workers)`
//! keep-alive clients, so no client waits behind another's pinned
//! connection.  The untraced phase runs blocks of an open-loop part at one
//! fixed rate, timed from each request's scheduled send, then a closed-loop
//! part for throughput, with host-speed readings ([`crate::calib`]) between
//! the parts.  The traced
//! phase rotates every client through four kinds of operation on the same
//! request stream: an HTTP round trip, `opaq_net::server::route` in
//! process, `PlanExecutor::execute` in process, and the request decomposed
//! into its layers' public calls (plan parse, catalog snapshots,
//! `merge_tree`, `execute_on`, the JSON renderer), each a span.  Every
//! response is recorded and verified byte for byte after the window closes;
//! a fixed sample of answers is also checked against the sorted data.

use crate::calib::{HostSpeed, CACHED, REFERENCE_S};
use crate::cli::{Fault, Options, Scale, Workload};
use crate::output::Outcome;
use crate::pass::{StoreClock, TimedStore};
use crate::spans::{SpanLog, Tracer, ROOT};
use crate::stats::{mean, median, percentile};
use crate::sys::{keys, nproc, peak_rss_mb, reset_peak_rss, KEY_DOMAIN};
use crate::truth::{ground_truth, Truth};
use opaq_core::{OpaqConfig, OpaqEstimator, QuantileSketch};
use opaq_metrics::{GroundTruth, TraceId, TraceSink};
use opaq_net::json::{write_escaped, Json};
use opaq_net::{
    render_plan_response_json, render_response_json, HttpClient, HttpServer, Request, ServerConfig,
    ServerStats, Telemetry, FRESHNESS_HEADER, SOURCES_HEADER, VERSION_HEADER,
};
use opaq_parallel::ShardedOpaq;
use opaq_query::{merge_tree, PlanExecutor, PlanResponse, PlanSource, QueryPlan, Selector};
use opaq_serve::{
    execute_on, next_rand, CatalogConfig, DatasetId, Freshness, QueryEngine, QueryOutput,
    QueryRequest, QueryResponse, RefreshPool, SketchCatalog, TenantId,
};
use opaq_storage::MemRunStore;
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which request stream a serving workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Single-target GETs over Zipf-popular tenants.
    Point,
    /// `POST /v1/query` coalesce plans, alternating two globs.
    Coalesce,
}

/// Sizes and rates of one serving workload.
#[derive(Debug, Clone)]
struct Spec {
    kind: Kind,
    tenants: usize,
    keys_per_tenant: usize,
    m: u64,
    s: u64,
    /// Catalog budget in sample points (`None` = unbounded).
    budget: Option<u64>,
    /// The fixed open-loop rate for `p50_ms`, in requests/s.
    rate: f64,
    /// Closed-loop requests per client that warm the server in set-up.
    warmup_per_client: u64,
    /// One re-ingest per `refresh_every` requests, counted over all clients
    /// (0 = never).
    refresh_every: u64,
    /// Distinct re-ingest datasets (coprime with `tenants`, so consecutive
    /// versions of a tenant come from different data).
    refresh_pool: usize,
}

impl Spec {
    fn of(workload: Workload, scale: Scale) -> Spec {
        match (workload, scale) {
            (Workload::ServePoint, Scale::Full) => Spec {
                kind: Kind::Point,
                tenants: 64,
                keys_per_tenant: 200_000,
                m: 20_000,
                s: 500,
                budget: Some(160_000),
                rate: 1_000.0,
                warmup_per_client: 1_000,
                refresh_every: 0,
                refresh_pool: 0,
            },
            (Workload::ServePoint, Scale::Tiny) => Spec {
                kind: Kind::Point,
                tenants: 8,
                keys_per_tenant: 20_000,
                m: 2_000,
                s: 50,
                budget: Some(2_000),
                rate: 300.0,
                warmup_per_client: 50,
                refresh_every: 0,
                refresh_pool: 0,
            },
            (_, Scale::Full) => Spec {
                kind: Kind::Coalesce,
                tenants: 16,
                keys_per_tenant: 1_000_000,
                m: 100_000,
                s: 500,
                budget: None,
                rate: 200.0,
                warmup_per_client: 100,
                refresh_every: 256,
                refresh_pool: 5,
            },
            (_, Scale::Tiny) => Spec {
                kind: Kind::Coalesce,
                tenants: 4,
                keys_per_tenant: 50_000,
                m: 5_000,
                s: 50,
                budget: None,
                rate: 100.0,
                warmup_per_client: 20,
                refresh_every: 16,
                refresh_pool: 3,
            },
        }
    }

    fn tenant_name(&self, i: usize) -> String {
        match self.kind {
            Kind::Point => format!("tenant-{i:02}"),
            Kind::Coalesce => {
                let group = char::from(b'a' + u8::try_from(i / 4).expect("at most 104 tenants"));
                format!("tenant-{group}-{}", i % 4)
            }
        }
    }
}

/// Seed stream of tenant `i`'s initial dataset.
fn tenant_stream(i: usize) -> u64 {
    1 + i as u64
}

/// Seed stream of re-ingest dataset `j`.
fn pool_stream(j: usize) -> u64 {
    1_000 + j as u64
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Quantiles every coalesce plan asks for.
const PLAN_PHIS: [f64; 3] = [0.5, 0.9, 0.99];
/// The two coalesce globs: every tenant, and group `a` (4 tenants).
const GLOBS: [&str; 2] = ["tenant-*", "tenant-a-*"];
/// The first `SAMPLE_CAP` distinct verified answers (by datasets and
/// request) are also checked against the data.
const SAMPLE_CAP: usize = 1_000;
/// Open-loop latency is reported per window of at least this many requests,
/// so each window's 99th percentile has at least ten samples above it.
const MIN_WINDOW_SAMPLES: usize = 1_000;
/// The untraced window is split into blocks of about this many seconds, each
/// an open-loop part then a closed-loop part, so both loops sample the whole
/// window and a slow spell of the host hits both alike.
const BLOCK_SECS: f64 = 5.0;
/// Share of each block given to the open loop; the closed loop has the rest.
const OPEN_SHARE: f64 = 0.7;
/// Closed-loop throughput is counted per window of this many seconds.
const THROUGHPUT_WINDOW_SECS: f64 = 0.5;
/// How long [`LoadGen::drain`] waits for outstanding re-ingests.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// One request of the stream.
#[derive(Debug, Clone)]
enum Op {
    Point {
        tenant: usize,
        request: QueryRequest,
    },
    Plan {
        glob: usize,
    },
}

/// A response as the verifier sees it, from HTTP or from an in-process
/// call: the status, the headers the verifier reads, and the body.  Other
/// headers are dropped at once, and a successful point answer keeps only a
/// digest of its body, so recording every response costs little memory and
/// `peak_rss_mb` stays the program's.
#[derive(Debug, Clone)]
struct Answer {
    status: u16,
    /// The `VERSION_HEADER`, `FRESHNESS_HEADER` and `SOURCES_HEADER` values.
    headers: [Option<String>; 3],
    body: Body,
}

const KEPT_HEADERS: [&str; 3] = [VERSION_HEADER, FRESHNESS_HEADER, SOURCES_HEADER];

/// A recorded body: its bytes, or its length and two independent 64-bit
/// hashes.  FNV-1a changes whenever any single byte does, so a digest
/// still catches every one-byte corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Body {
    Bytes(Vec<u8>),
    Digest { len: usize, fnv: u64, sip: u64 },
}

impl Body {
    fn digest(bytes: &[u8]) -> Body {
        use std::hash::{Hash, Hasher};
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        // `DefaultHasher::new` is SipHash with fixed keys: the same bytes
        // always hash alike.
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        bytes.hash(&mut sip);
        Body::Digest {
            len: bytes.len(),
            fnv,
            sip: sip.finish(),
        }
    }

    /// Whether the recorded body is exactly `expected`.
    fn matches(&self, expected: &[u8]) -> bool {
        match self {
            Body::Bytes(bytes) => bytes == expected,
            Body::Digest { .. } => *self == Body::digest(expected),
        }
    }

    fn text(&self) -> String {
        match self {
            Body::Bytes(bytes) => String::from_utf8_lossy(bytes).into_owned(),
            Body::Digest { len, fnv, .. } => format!("<{len} bytes, fnv {fnv:#018x}>"),
        }
    }
}

impl Answer {
    fn header(&self, name: &str) -> Option<&str> {
        let i = KEPT_HEADERS.iter().position(|kept| *kept == name)?;
        self.headers[i].as_deref()
    }
}

/// One recorded operation.
#[derive(Debug)]
struct Record {
    op: Op,
    /// The answer to verify; `None` for an in-process `execute`, whose
    /// result was only checked for success.
    answer: Result<Option<Answer>, String>,
    /// Scheduled (open loop) or actual (closed loop) send, after phase start.
    sched: Duration,
    /// Completion minus scheduled send.
    latency: Duration,
}

/// A re-ingest submitted but not yet seen published.
#[derive(Debug)]
struct Pending {
    tenant: usize,
    version: u64,
    submitted: Instant,
    clock: Arc<StoreClock>,
}

/// A re-ingest observed through `SketchCatalog::snapshot`.
#[derive(Debug, Clone, Copy)]
struct Published {
    lag: f64,
    queue: f64,
    build: f64,
    read: f64,
}

#[derive(Debug, Default)]
struct RefreshState {
    /// Requests issued by all clients while re-ingests are on.
    requests: u64,
    submitted: u64,
    pending: VecDeque<Pending>,
    published: Vec<Published>,
    errors: Vec<String>,
}

/// Background re-ingests through `RefreshPool::submit_ingest`.
struct Refresher {
    pool: RefreshPool,
    stores: Vec<Arc<MemRunStore<u64>>>,
    config: OpaqConfig,
    state: Mutex<RefreshState>,
}

/// A running catalog + server and everything needed to check its answers.
struct Stack {
    catalog: Arc<SketchCatalog>,
    engine: Arc<QueryEngine>,
    executor: Arc<PlanExecutor>,
    /// Telemetry for in-process `route` calls only; never read back.
    telemetry: Telemetry,
    config: ServerConfig,
    server: HttpServer,
    addr: String,
    names: Vec<TenantId>,
    dataset: DatasetId,
    initial: Vec<Arc<QuantileSketch<u64>>>,
    refresher: Option<Refresher>,
    plan_bodies: [String; 2],
    spill: Option<PathBuf>,
}

impl Stack {
    fn shutdown(mut self) {
        if let Some(refresher) = &self.refresher {
            refresher.pool.shutdown();
        }
        self.server.shutdown();
        if let Some(spill) = self.spill.take() {
            let _ = std::fs::remove_dir_all(spill);
        }
    }
}

/// What the set-up repetitions measured.  Tenant builds are tagged with the
/// index of the host-speed reading taken before their set-up's builds.
#[derive(Default)]
struct SetupTotals {
    /// Per repetition: seconds, host-speed readings excluded.
    secs: Vec<f64>,
    /// Per tenant build: keys ÷ `build_sketch` time.
    rates: Vec<(usize, f64)>,
    /// Per tenant build: build + `publish` + `snapshot`, in milliseconds.
    lags: Vec<(usize, f64)>,
}

/// Run a serving workload.
///
/// # Errors
/// A set-up failure (the run cannot be measured at all).
pub fn run(opts: &Options, dir: &Path, spans: &mut SpanLog) -> Result<Outcome, String> {
    let spec = Spec::of(opts.workload, opts.scale);
    let config = OpaqConfig::builder()
        .run_length(spec.m)
        .sample_size(spec.s)
        .build()
        .map_err(|e| e.to_string())?;
    let server_config = ServerConfig::builder().build().map_err(|e| e.to_string())?;
    let clients = nproc().min(server_config.workers);

    let mut speed = HostSpeed::new(CACHED);
    let mut setups = SetupTotals::default();
    let mut stack = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = stack.take() {
            Stack::shutdown(previous);
        }
        let built = setup(
            &spec,
            &config,
            &server_config,
            opts.seed,
            dir,
            rep,
            clients,
            &mut speed,
            &mut setups,
        )?;
        stack = Some(built);
    }
    let stack = stack.expect("at least one set-up ran");
    let load = LoadGen {
        spec: &spec,
        stack: &stack,
        zipf: Zipf::new(spec.tenants),
        corrupt_next: AtomicBool::new(opts.fault == Fault::CorruptResponse),
    };

    let mut outcome = Outcome::default();
    outcome.set("setup_s", median(&setups.secs));
    let window = opts.seconds;
    let records = if opts.trace {
        traced(&load, opts.seed, clients, window, &mut outcome, spans)
    } else {
        untraced(
            &load,
            opts.seed,
            clients,
            window,
            &setups,
            &mut speed,
            &mut outcome,
        )
    };
    if let Some(refresher) = &stack.refresher {
        // Drain the queue so every submitted version is published before
        // answers are checked against the set of versions.
        refresher.pool.shutdown();
    }
    verify(opts, &spec, &config, &stack, records, &mut outcome);
    Stack::shutdown(stack);
    Ok(outcome)
}

/// One set-up repetition.  A host-speed reading is taken before the tenant
/// builds and one after them; neither counts towards the set-up time.
#[allow(clippy::too_many_arguments)]
fn setup(
    spec: &Spec,
    config: &OpaqConfig,
    server_config: &ServerConfig,
    seed: u64,
    dir: &Path,
    rep: usize,
    clients: usize,
    speed: &mut HostSpeed,
    totals: &mut SetupTotals,
) -> Result<Stack, String> {
    let part = speed.readings().len();
    speed.read();
    let start = Instant::now();
    let spill = spec.budget.map(|_| dir.join(format!("spill-{rep}")));
    let catalog = match (spec.budget, &spill) {
        (Some(budget), Some(spill)) => {
            let config = CatalogConfig::builder()
                .budget_sample_points(budget)
                .spill_dir(spill)
                .build()
                .map_err(|e| e.to_string())?;
            SketchCatalog::new(config).map_err(|e| e.to_string())?
        }
        _ => SketchCatalog::unbounded(),
    };
    let catalog = Arc::new(catalog);
    let sharded = ShardedOpaq::new(*config, clients).map_err(|e| e.to_string())?;
    let dataset = DatasetId::new("events");
    let names: Vec<TenantId> = (0..spec.tenants)
        .map(|i| TenantId::new(spec.tenant_name(i)))
        .collect();
    let mut initial = Vec::with_capacity(spec.tenants);
    for (i, name) in names.iter().enumerate() {
        let data = keys(seed, tenant_stream(i), spec.keys_per_tenant);
        let begin = Instant::now();
        let store = MemRunStore::new(data, spec.m);
        let sketch = Arc::new(sharded.build_sketch(&store).map_err(|e| e.to_string())?);
        totals.rates.push((
            part,
            spec.keys_per_tenant as f64 / begin.elapsed().as_secs_f64().max(1e-12),
        ));
        let version = catalog
            .publish_arc(name, &dataset, Arc::clone(&sketch))
            .map_err(|e| e.to_string())?;
        let seen = catalog
            .snapshot(name, &dataset)
            .map_err(|e| e.to_string())?;
        totals
            .lags
            .push((part, begin.elapsed().as_secs_f64() * 1e3));
        if version != 1 || seen.version != 1 {
            return Err(format!(
                "{name}: first publish gave version {version}/{}",
                seen.version
            ));
        }
        initial.push(sketch);
    }
    let paused = Instant::now();
    speed.read();
    let reading = paused.elapsed();

    let refresher = if spec.refresh_every > 0 {
        let stores = (0..spec.refresh_pool)
            .map(|j| {
                Arc::new(MemRunStore::new(
                    keys(seed, pool_stream(j), spec.keys_per_tenant),
                    spec.m,
                ))
            })
            .collect();
        Some(Refresher {
            pool: RefreshPool::new(Arc::clone(&catalog), 1).map_err(|e| e.to_string())?,
            stores,
            config: *config,
            state: Mutex::new(RefreshState::default()),
        })
    } else {
        None
    };

    let engine = Arc::new(QueryEngine::new(Arc::clone(&catalog)));
    let server =
        HttpServer::start(Arc::clone(&engine), server_config.clone()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let plan_bodies = GLOBS.map(|glob| {
        let mut body = String::from("{\"plan\":");
        write_escaped(&mut body, &plan_text(glob));
        body.push('}');
        body
    });
    let stack = Stack {
        executor: Arc::new(PlanExecutor::new(Arc::clone(&catalog))),
        catalog,
        engine,
        telemetry: Telemetry::new(),
        config: server_config.clone(),
        server,
        addr,
        names,
        dataset,
        initial,
        refresher,
        plan_bodies,
        spill,
    };

    // Warm-up: a fixed number of closed-loop requests per client.
    let load = LoadGen {
        spec,
        stack: &stack,
        zipf: Zipf::new(spec.tenants),
        corrupt_next: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        for c in 0..clients {
            let load = &load;
            scope.spawn(move || {
                let mut http = HttpClient::new(load.stack.addr.clone());
                let mut rng = crate::sys::derive_seed(seed ^ 0x5eed, c as u64);
                for seq in 0..spec.warmup_per_client {
                    let op = load.next_op(&mut rng, seq);
                    let _ = load.send(&mut http, &op);
                }
            });
        }
    });
    totals.secs.push((start.elapsed() - reading).as_secs_f64());
    Ok(stack)
}

fn plan_text(glob: &str) -> String {
    format!("fetch {glob}/events | coalesce | quantile 0.5,0.9,0.99")
}

/// Zipf(1.0) popularity over tenants.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / k as f64;
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut u64) -> usize {
        let u = (next_rand(rng) >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&p| p <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Generates and sends the request stream.
struct LoadGen<'a> {
    spec: &'a Spec,
    stack: &'a Stack,
    zipf: Zipf,
    /// Set by `--fault corrupt-response`: the next successful answer gets
    /// one body byte flipped, as if damaged on the wire.
    corrupt_next: AtomicBool,
}

impl LoadGen<'_> {
    /// The `seq`-th request of a client.
    fn next_op(&self, rng: &mut u64, seq: u64) -> Op {
        match self.spec.kind {
            Kind::Coalesce => Op::Plan {
                glob: usize::from(seq % 2 == 1),
            },
            Kind::Point => {
                // Equal shares, as in the repo's own load generators
                // (`opaq_serve::load::request_for`,
                // `opaq_net::workload`'s plan mix, whose profile asks for 8
                // points); batches are plans, not single-target GETs.
                let tenant = self.zipf.sample(rng);
                let request = match next_rand(rng) % 3 {
                    0 => QueryRequest::Quantile {
                        phi: (1 + next_rand(rng) % 999) as f64 / 1000.0,
                    },
                    1 => QueryRequest::Rank {
                        key: next_rand(rng) % KEY_DOMAIN,
                    },
                    _ => QueryRequest::Profile { count: 8 },
                };
                Op::Point { tenant, request }
            }
        }
    }

    /// Record a response.
    fn answer(
        &self,
        op: &Op,
        status: u16,
        headers: &[(String, String)],
        mut body: Vec<u8>,
    ) -> Answer {
        if status == 200 && self.corrupt_next.swap(false, Ordering::Relaxed) {
            // Flip the low bit of the last digit: still well-formed JSON,
            // one number off.
            if let Some(digit) = body.iter_mut().rev().find(|b| b.is_ascii_digit()) {
                *digit ^= 0x01;
            }
        }
        let headers = KEPT_HEADERS.map(|name| {
            headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.clone())
        });
        let body = match op {
            Op::Point { .. } if status == 200 => Body::digest(&body),
            _ => Body::Bytes(body),
        };
        Answer {
            status,
            headers,
            body,
        }
    }

    fn point_target(
        &self,
        tenant: usize,
        request: &QueryRequest,
    ) -> (String, Vec<(String, String)>) {
        let base = format!("/v1/{}/{}", self.stack.names[tenant], self.stack.dataset);
        let (op, param) = match request {
            QueryRequest::Quantile { phi } => ("quantile", ("phi", phi.to_string())),
            QueryRequest::Rank { key } => ("rank", ("key", key.to_string())),
            QueryRequest::Profile { count } => ("profile", ("count", count.to_string())),
            QueryRequest::QuantileBatch { .. } => unreachable!("point stream sends no batches"),
        };
        (format!("{base}/{op}"), vec![(param.0.to_string(), param.1)])
    }

    /// One HTTP round trip.
    fn send(&self, http: &mut HttpClient, op: &Op) -> Result<Answer, String> {
        let response = match op {
            Op::Point { tenant, request } => {
                let (path, query) = self.point_target(*tenant, request);
                let (k, v) = &query[0];
                http.get(&format!("{path}?{k}={v}"))
            }
            Op::Plan { glob } => http.post_json("/v1/query", &self.stack.plan_bodies[*glob]),
        };
        response
            .map(|r| self.answer(op, r.status, &r.headers, r.body))
            .map_err(|e| e.to_string())
    }

    /// The request as the server's router receives it.
    fn request(&self, op: &Op) -> Request {
        match op {
            Op::Point { tenant, request } => {
                let (path, query) = self.point_target(*tenant, request);
                let segments = path
                    .trim_start_matches('/')
                    .split('/')
                    .map(String::from)
                    .collect();
                Request {
                    method: "GET".into(),
                    path,
                    segments,
                    query,
                    headers: Vec::new(),
                    body: Vec::new(),
                    http11: true,
                }
            }
            Op::Plan { glob } => Request {
                method: "POST".into(),
                path: "/v1/query".into(),
                segments: vec!["v1".into(), "query".into()],
                query: Vec::new(),
                headers: vec![("content-type".into(), "application/json".into())],
                body: self.stack.plan_bodies[*glob].clone().into_bytes(),
                http11: true,
            },
        }
    }

    /// The write load, run by whichever client is about to send a request:
    /// observe published re-ingests, and submit the next one once every
    /// `refresh_every` requests of all clients together.
    fn between(&self) {
        let Some(refresher) = &self.stack.refresher else {
            return;
        };
        let mut state = refresher
            .state
            .lock()
            .expect("a client panicked while holding the refresh state");
        self.observe(&mut state, true);
        state.requests += 1;
        if !state.requests.is_multiple_of(self.spec.refresh_every) {
            return;
        }
        let j = state.submitted;
        let tenant = (j % self.spec.tenants as u64) as usize;
        let store = &refresher.stores[(j % refresher.stores.len() as u64) as usize];
        let (timed, clock) = TimedStore::new(Arc::clone(store));
        let submitted = Instant::now();
        match refresher.pool.submit_ingest(
            &self.stack.names[tenant],
            &self.stack.dataset,
            Arc::new(timed),
            refresher.config,
            1,
        ) {
            Ok(()) => {
                state.submitted += 1;
                state.pending.push_back(Pending {
                    tenant,
                    version: 2 + j / self.spec.tenants as u64,
                    submitted,
                    clock,
                });
            }
            Err(e) => state.errors.push(format!("submit_ingest failed: {e}")),
        }
    }

    /// Pop every pending re-ingest whose version `snapshot` now returns.
    /// With `measured`, its lag and build time join the metrics; without,
    /// it only leaves the queue (its versions are verified all the same).
    fn observe(&self, state: &mut RefreshState, measured: bool) {
        while let Some(front) = state.pending.front() {
            match self
                .stack
                .catalog
                .snapshot(&self.stack.names[front.tenant], &self.stack.dataset)
            {
                Ok(snap) if snap.version >= front.version => {
                    let seen = Instant::now();
                    let front = state.pending.pop_front().expect("front exists");
                    if !measured {
                        continue;
                    }
                    let reads = front.clock.reads();
                    let first = reads.first().map_or(seen, |(s, _)| *s);
                    let dropped = front.clock.dropped().unwrap_or(seen);
                    state.published.push(Published {
                        lag: seen.duration_since(front.submitted).as_secs_f64(),
                        queue: first
                            .saturating_duration_since(front.submitted)
                            .as_secs_f64(),
                        build: dropped.saturating_duration_since(first).as_secs_f64(),
                        read: reads
                            .iter()
                            .map(|(s, e)| e.duration_since(*s).as_secs_f64())
                            .sum(),
                    });
                }
                Ok(_) => break,
                Err(e) => {
                    state
                        .errors
                        .push(format!("snapshot while awaiting a refresh: {e}"));
                    state.pending.pop_front();
                }
            }
        }
    }

    /// Wait until every submitted re-ingest is published, so that no build
    /// runs on between two parts of the window.  The builds waited for here
    /// ran partly without the read load beside them, so they are verified
    /// but not measured.
    fn drain(&self) {
        let Some(refresher) = &self.stack.refresher else {
            return;
        };
        let deadline = Instant::now() + DRAIN_LIMIT;
        loop {
            {
                let mut state = refresher
                    .state
                    .lock()
                    .expect("a client panicked while holding the refresh state");
                self.observe(&mut state, false);
                if state.pending.is_empty() {
                    return;
                }
                if Instant::now() > deadline {
                    let stuck = state.pending.len();
                    state.errors.push(format!(
                        "{stuck} re-ingests still unpublished {DRAIN_LIMIT:?} after the load stopped"
                    ));
                    state.pending.clear();
                    return;
                }
            }
            std::thread::yield_now();
        }
    }

    fn take_published(&self) -> Vec<Published> {
        self.stack.refresher.as_ref().map_or_else(Vec::new, |r| {
            std::mem::take(
                &mut r
                    .state
                    .lock()
                    .expect("a client panicked while holding the refresh state")
                    .published,
            )
        })
    }
}

/// Closed loop: each client sends its next request when the previous one
/// returns, until `secs` have passed.
fn closed_loop(load: &LoadGen<'_>, seed: u64, clients: usize, secs: f64) -> Vec<Record> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut http = HttpClient::new(load.stack.addr.clone());
                    let mut rng = crate::sys::derive_seed(seed, c as u64);
                    let mut out = Vec::new();
                    let mut seq = 0;
                    while Instant::now() < deadline {
                        load.between();
                        let op = load.next_op(&mut rng, seq);
                        let sent = Instant::now();
                        let answer = load.send(&mut http, &op).map(Some);
                        out.push(Record {
                            op,
                            answer,
                            sched: sent - start,
                            latency: sent.elapsed(),
                        });
                        seq += 1;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load client panicked"))
            .collect()
    })
}

/// Open loop: request `i` is due at `i / rate` seconds; client `c` sends
/// requests `c, c + clients, …`, each as soon as it is due (or late, if the
/// previous one has not returned).  Latency counts from the due time.
fn open_loop(load: &LoadGen<'_>, seed: u64, clients: usize, rate: f64, secs: f64) -> Vec<Record> {
    let start = Instant::now();
    let total = (rate * secs) as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut http = HttpClient::new(load.stack.addr.clone());
                    let mut rng = crate::sys::derive_seed(seed ^ 0x0be7, c as u64);
                    // The client's exact share of the requests: the buffer
                    // never grows inside the window.
                    let mut out = Vec::with_capacity(
                        usize::try_from(total.saturating_sub(c as u64).div_ceil(clients as u64))
                            .unwrap_or(0),
                    );
                    let mut seq = 0;
                    let mut i = c as u64;
                    while i < total {
                        let due = Duration::from_secs_f64(i as f64 / rate);
                        load.between();
                        let op = load.next_op(&mut rng, seq);
                        wait_until(start + due);
                        let answer = load.send(&mut http, &op).map(Some);
                        out.push(Record {
                            op,
                            answer,
                            sched: due,
                            latency: start.elapsed().saturating_sub(due),
                        });
                        seq += 1;
                        i += clients as u64;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load client panicked"))
            .collect()
    })
}

/// Yield until `due`.  The generator never sleeps: a sleeping VM lets its
/// idle vCPU halt, and how fast a halted vCPU wakes depends on the host's
/// other tenants, not on the program.  Yielding still hands the core to
/// any runnable server thread.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Split records into `windows` equal windows by send time over `secs`.
fn windows(records: &[Record], secs: f64, windows: usize) -> Vec<Vec<&Record>> {
    let mut out: Vec<Vec<&Record>> = (0..windows).map(|_| Vec::new()).collect();
    let width = secs / windows as f64;
    for r in records {
        let w = ((r.sched.as_secs_f64() / width) as usize).min(windows - 1);
        out[w].push(r);
    }
    out
}

fn ms(records: &[&Record]) -> Vec<f64> {
    records
        .iter()
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect()
}

/// End-to-end phase: blocks of an open-loop part then a closed-loop part,
/// with a host-speed reading before every part and after the last.  Each
/// part drains outstanding re-ingests before the next reading.
fn untraced(
    load: &LoadGen<'_>,
    seed: u64,
    clients: usize,
    secs: f64,
    setup: &SetupTotals,
    speed: &mut HostSpeed,
    outcome: &mut Outcome,
) -> Vec<Record> {
    let blocks = ((secs / BLOCK_SECS).round() as usize).max(1);
    let open_secs = OPEN_SHARE * secs / blocks as f64;
    let closed_secs = secs / blocks as f64 - open_secs;
    let per_part = ((closed_secs / THROUGHPUT_WINDOW_SECS).round() as usize).max(1);
    let width = closed_secs / per_part as f64;

    // Samples tagged with the index of the reading taken before their part.
    let mut p50s: Vec<(usize, f64)> = Vec::new();
    let mut throughputs: Vec<(usize, f64)> = Vec::new();
    let mut reingests: Vec<(usize, Published)> = Vec::new();
    let mut p99s = Vec::new();
    let mut pooled = Vec::new();
    let mut records = Vec::new();
    let (mut open_count, mut closed_count, mut open_reingests) = (0, 0, 0);
    for block in 0..blocks {
        let block_seed = crate::sys::derive_seed(seed, block as u64);

        let part = speed.readings().len();
        speed.read();
        // Peak RSS covers the first open part only: it records a fixed
        // number of requests (rate × part) into buffers sized up front, and
        // no closed-loop records, whose number grows with the server's
        // speed, are held yet.
        if block == 0 {
            reset_peak_rss();
        }
        let open = open_loop(load, block_seed, clients, load.spec.rate, open_secs);
        if block == 0 {
            outcome.set("peak_rss_mb", peak_rss_mb());
        }
        load.drain();
        let count = (open.len() / MIN_WINDOW_SAMPLES).max(1);
        for w in windows(&open, open_secs, count) {
            let latencies = ms(&w);
            p50s.push((part, median(&latencies)));
            p99s.push(percentile(&latencies, 0.99));
        }
        pooled.extend(ms(&open.iter().collect::<Vec<_>>()));
        open_count += open.len();
        // Re-ingests are measured in the closed parts only, where every
        // core is busy with real work, as for `ops_per_s`.  In the open
        // parts they share the cores with clients yielding until their next
        // send, so the build's share is the scheduler's whim.
        open_reingests += load.take_published().len();
        records.extend(open);

        let part = speed.readings().len();
        speed.read();
        let closed = closed_loop(load, block_seed, clients, closed_secs);
        load.drain();
        for w in windows(&closed, closed_secs, per_part) {
            throughputs.push((part, w.len() as f64 / width));
        }
        closed_count += closed.len();
        reingests.extend(load.take_published().into_iter().map(|p| (part, p)));
        records.extend(closed);
    }
    speed.read();

    // Every timing scaled to the reference host speed (see `calib`): a time
    // by its part's factor, a rate by the inverse.
    let raw = |v: &[(usize, f64)]| -> Vec<f64> { v.iter().map(|&(_, x)| x).collect() };
    let time = |v: &[(usize, f64)]| -> Vec<f64> {
        v.iter().map(|&(part, t)| t * speed.factor(part)).collect()
    };
    let rate = |v: &[(usize, f64)]| -> Vec<f64> {
        v.iter()
            .map(|&(part, r)| r / speed.factor(part).max(1e-12))
            .collect()
    };
    let keys = load.spec.keys_per_tenant as f64;
    let lags: Vec<(usize, f64)> = reingests.iter().map(|(i, p)| (*i, p.lag * 1e3)).collect();
    let builds: Vec<(usize, f64)> = reingests
        .iter()
        .map(|(i, p)| (*i, keys / p.build.max(1e-12)))
        .collect();
    outcome.set("p50_ms", median(&time(&p50s)));
    outcome.set("ops_per_s", median(&rate(&throughputs)));
    // Without writes while serving, both ingest figures come from set-up's
    // tenant builds: medians over every build of every set-up.
    let (builds, lags) = if load.stack.refresher.is_some() {
        (builds, lags)
    } else {
        (setup.rates.clone(), setup.lags.clone())
    };
    outcome.set("ingest_keys_per_s", median(&rate(&builds)));
    outcome.set("publish_lag_ms", median(&time(&lags)));
    outcome.report = format!(
        "{clients} clients (min of nproc {} and server workers {})\n\
         {blocks} blocks of {open_secs:.2} s open loop then {closed_secs:.2} s closed loop\n\
         open loop: {:.0} req/s offered, {open_count} requests; median over {} windows: \
         p50 {:.3} ms raw, {:.3} ms scaled; p99 {:.3} ms raw; \
         pooled p90 {:.3} p99 {:.3} p99.9 {:.3} max {:.3} ms raw\n\
         closed loop: {closed_count} requests; median over {} windows {:.0} req/s raw, \
         {:.0} req/s scaled\n\
         ingest: median {:.0} keys/s raw, {:.0} scaled; publish lag median {:.2} ms raw, \
         {:.2} ms scaled\n\
         re-ingests measured (closed loop): {}; not measured (open loop): {open_reingests}\n\
         host-speed kernel readings (reference {REFERENCE_S} s): median {:.4} s, {:.4?} s\n",
        nproc(),
        load.stack.config.workers,
        load.spec.rate,
        p50s.len(),
        median(&raw(&p50s)),
        median(&time(&p50s)),
        median(&p99s),
        percentile(&pooled, 0.9),
        percentile(&pooled, 0.99),
        percentile(&pooled, 0.999),
        percentile(&pooled, 1.0),
        throughputs.len(),
        median(&raw(&throughputs)),
        median(&rate(&throughputs)),
        median(&raw(&builds)),
        median(&rate(&builds)),
        median(&raw(&lags)),
        median(&time(&lags)),
        reingests.len(),
        speed.median(),
        speed.readings(),
    );
    records
}

/// Per-layer phase.
fn traced(
    load: &LoadGen<'_>,
    seed: u64,
    clients: usize,
    secs: f64,
    outcome: &mut Outcome,
    spans: &mut SpanLog,
) -> Vec<Record> {
    let stack = load.stack;
    let server_before = stack.server.stats();
    let cat_before = stack.catalog.stats();
    let comparator = closed_loop(load, seed, clients, 0.3 * secs);
    let cat_after = stack.catalog.stats();
    let untraced_rtt: Vec<f64> = comparator.iter().map(|r| r.latency.as_secs_f64()).collect();
    let _ = load.take_published();

    // Traced HTTP round trips, then the same request stream in process, so
    // the in-process calls do not compete with the round trips they explain.
    let http = traced_phase(load, 0, seed ^ 0x7ace, clients, 0.3 * secs, &[Mode::Http]);
    let in_process = traced_phase(
        load,
        1,
        seed ^ 0x1b0c,
        clients,
        0.4 * secs,
        &[Mode::Route, Mode::Execute, Mode::Decomposed],
    );
    let server_after = stack.server.stats();
    let published = load.take_published();

    let mut records = comparator;
    let mut fused = Vec::new();
    for (recs, tracer, points) in http.into_iter().chain(in_process) {
        records.extend(recs);
        spans.absorb(tracer);
        fused.extend(points);
    }

    let us = |v: f64| v * 1e6;
    let rtt = median(&spans.durations("e2e", "request"));
    let route = median(&spans.durations("net", "route"));
    let execute = median(&spans.durations("query", "execute"));
    let parse = median(&spans.durations("query", "parse"));
    let fetch = median(&spans.durations("query", "fetch"));
    let snapshot = median(&spans.durations("serve", "snapshot"));
    let merge = median(&spans.durations("query", "merge_tree"));
    let estimate = median(&spans.durations("core", "execute_on"));
    let render = median(&spans.durations("net", "render"));
    let transport = rtt - route;
    let self_times = spans.self_times();
    let decomposed: std::collections::BTreeSet<u64> = spans
        .spans()
        .iter()
        .filter(|s| s.layer == "e2e" && s.name == "decomposed")
        .map(|s| s.op)
        .collect();
    let layer_self = |layer: &str| {
        let per_op: Vec<f64> = self_times
            .get(layer)
            .map(|ops| {
                ops.iter()
                    .filter(|(op, _)| decomposed.contains(op))
                    .map(|(_, v)| *v)
                    .collect()
            })
            .unwrap_or_default();
        median(&per_op)
    };
    let rows = [
        ("net (transport = round trip - route)", transport),
        ("net (render)", layer_self("net")),
        ("query (parse, fetch, merge_tree)", layer_self("query")),
        ("serve (catalog snapshots)", layer_self("serve")),
        ("core (execute_on)", layer_self("core")),
    ];
    let covered: f64 = rows.iter().map(|(_, v)| v).sum();

    let d = |after: u64, before: u64| after.saturating_sub(before) as f64;
    let snapshots = d(cat_after.snapshots, cat_before.snapshots);
    let reloads = d(cat_after.reloads, cat_before.reloads);
    outcome.set("serve.snapshot_us", us(snapshot));
    outcome.set("serve.hit_ratio", 1.0 - reloads / snapshots.max(1.0));
    outcome.set("serve.reloads", reloads);
    outcome.set(
        "serve.evictions",
        d(cat_after.evictions, cat_before.evictions),
    );
    outcome.set(
        "serve.resident_points",
        stack.catalog.stats().resident_sample_points as f64,
    );
    outcome.set(
        "serve.publishes",
        d(cat_after.publishes, cat_before.publishes),
    );
    outcome.set("query.parse_us", us(parse));
    outcome.set("query.fetch_us", us(fetch));
    outcome.set("query.merge_us", us(merge));
    outcome.set("query.fused_points", median(&fused));
    outcome.set("query.execute_us", us(execute));
    outcome.set("net.route_us", us(route));
    outcome.set("net.render_us", us(render));
    outcome.set("net.transport_us", us(transport));
    let net = |f: fn(&ServerStats) -> u64| d(f(&server_after), f(&server_before));
    outcome.set("net.requests", net(|s| s.requests));
    outcome.set("net.connections", net(|s| s.connections));
    outcome.set("net.rejected", net(|s| s.rejected));
    outcome.set("core.estimate_us", us(estimate));
    outcome.set("core.sketch_points", stack.initial[0].len() as f64);
    outcome.set("trace.coverage", covered / rtt.max(1e-12));
    outcome.set(
        "trace.overhead_frac",
        rtt / median(&untraced_rtt).max(1e-12) - 1.0,
    );

    // Re-ingests are the only ingest work while serving; the build itself
    // runs inside the refresh pool, so only storage reads (through the
    // timing wrapper) and the whole build are visible from outside.
    let keys = load.spec.keys_per_tenant as f64;
    let read = median(&published.iter().map(|p| p.read).collect::<Vec<_>>());
    let build = median(&published.iter().map(|p| p.build).collect::<Vec<_>>());
    let queue = median(&published.iter().map(|p| p.queue * 1e3).collect::<Vec<_>>());
    let refreshing = !published.is_empty();
    outcome.set("storage.read_s", read);
    outcome.set(
        "storage.read_mb_per_s",
        if refreshing {
            keys * 8.0 / 1e6 / read.max(1e-12)
        } else {
            0.0
        },
    );
    outcome.set(
        "storage.bytes_read",
        if refreshing { keys * 8.0 } else { 0.0 },
    );
    outcome.set("parallel.refresh_build_s", build);
    outcome.set("serve.refresh_queue_ms", queue);
    for name in [
        "storage.buffer_reuse_ratio",
        "select.sample_s",
        "select.keys_per_s",
        "core.run_merge_s",
        "parallel.dispatch_s",
        "parallel.shard_busy_s",
        "parallel.shard_starved_frac",
        "parallel.merge_s",
    ] {
        outcome.set(name, 0.0);
    }

    let mut report = format!(
        "traced: {clients} closed-loop HTTP clients, then the same stream in process \
         (route / execute / decomposed); round trip median {:.1} us (untraced {:.1} us)\n\
         layer self time per request:\n",
        us(rtt),
        us(median(&untraced_rtt)),
    );
    for (name, v) in rows {
        report.push_str(&format!(
            "  {name:<38} {:>9.1} us {:>5.1}%\n",
            us(v),
            100.0 * v / rtt.max(1e-12)
        ));
    }
    report.push_str(&format!(
        "  (route not explained by its parts)     {:>9.1} us {:>5.1}%\n\
         in-process: route {:.1} us, execute {:.1} us, fetch {:.1} us, snapshot {:.1} us, merge_tree {:.1} us\n\
         catalog over the untraced leg: {snapshots} snapshots, {reloads} reloads; re-ingests observed: {}\n",
        us(rtt - covered),
        100.0 * (rtt - covered) / rtt.max(1e-12),
        us(route),
        us(execute),
        us(fetch),
        us(snapshot),
        us(merge),
        published.len(),
    ));
    outcome.report = report;
    records
}

/// What a client of a traced phase does with each request.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// An HTTP round trip.
    Http,
    /// `opaq_net::server::route` in process.
    Route,
    /// `PlanExecutor::execute` in process.
    Execute,
    /// The request decomposed into its layers' public calls.
    Decomposed,
}

/// A traced closed loop: each client cycles through `modes`, one request
/// each, until `secs` have passed.  Op ids are `phase`, client and request
/// index packed into one `u64`, so they are unique across a run's phases.
fn traced_phase(
    load: &LoadGen<'_>,
    phase: u64,
    seed: u64,
    clients: usize,
    secs: f64,
    modes: &[Mode],
) -> Vec<(Vec<Record>, Tracer, Vec<f64>)> {
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let op_base = (phase << 56) | ((c as u64) << 48);
                    traced_client(load, seed, c, op_base, origin, deadline, modes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load client panicked"))
            .collect()
    })
}

/// One client of a traced phase.
fn traced_client(
    load: &LoadGen<'_>,
    seed: u64,
    c: usize,
    op_base: u64,
    origin: Instant,
    deadline: Instant,
    modes: &[Mode],
) -> (Vec<Record>, Tracer, Vec<f64>) {
    let stack = load.stack;
    let mut tracer = Tracer::new(origin);
    let mut http = HttpClient::new(stack.addr.clone());
    let mut rng = crate::sys::derive_seed(seed, c as u64);
    let mut records = Vec::new();
    let mut fused = Vec::new();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let seq = k / modes.len() as u64;
        load.between();
        let op = load.next_op(&mut rng, seq);
        let id = op_base | k;
        let sent = Instant::now();
        let answer = match modes[(k % modes.len() as u64) as usize] {
            Mode::Http => {
                let answer = load.send(&mut http, &op);
                tracer.record(id, ROOT, "e2e", "request", sent, Instant::now());
                answer.map(Some)
            }
            Mode::Route => {
                let request = load.request(&op);
                let sink = TraceSink::new(Arc::clone(stack.telemetry.recorder()), TraceId::mint());
                let response = tracer.time(id, ROOT, "net", "route", || {
                    opaq_net::server::route(
                        &stack.engine,
                        &stack.executor,
                        &stack.config,
                        &stack.telemetry,
                        &sink,
                        &request,
                    )
                });
                Ok(Some(load.answer(
                    &op,
                    response.status,
                    &response.headers,
                    response.body,
                )))
            }
            Mode::Execute => {
                let plan = plan_of(load, &op);
                tracer
                    .time(id, ROOT, "query", "execute", || {
                        stack.executor.execute(&plan)
                    })
                    .map(|_| None)
                    .map_err(|e| e.to_string())
            }
            Mode::Decomposed => decomposed(load, &op, id, &mut tracer, &mut fused).map(Some),
        };
        records.push(Record {
            op,
            answer,
            sched: sent - origin,
            latency: sent.elapsed(),
        });
        k += 1;
    }
    (records, tracer, fused)
}

fn plan_of(load: &LoadGen<'_>, op: &Op) -> QueryPlan {
    match op {
        Op::Point { tenant, request } => QueryPlan::single(
            load.stack.names[*tenant].clone(),
            load.stack.dataset.clone(),
            request.clone(),
        ),
        Op::Plan { glob } => QueryPlan::parse(&plan_text(GLOBS[*glob])).expect("fixed plans parse"),
    }
}

/// The request decomposed into its layers' public calls, one span each.
fn decomposed(
    load: &LoadGen<'_>,
    op: &Op,
    id: u64,
    tracer: &mut Tracer,
    fused_points: &mut Vec<f64>,
) -> Result<Answer, String> {
    let stack = load.stack;
    let root = tracer.open();
    let parent = root.id();
    let plan = tracer.time(id, parent, "query", "parse", || match op {
        Op::Point { tenant, request } => Ok(QueryPlan::single(
            stack.names[*tenant].clone(),
            stack.dataset.clone(),
            request.clone(),
        )),
        Op::Plan { glob } => QueryPlan::parse(&plan_text(GLOBS[*glob])),
    });
    let plan = plan.map_err(|e| e.to_string())?;
    // Resolve sources as the executor does: an exact selector names its
    // entry, a glob is matched against the catalog's keys.
    let fetch = tracer.open();
    let keys = match &plan.selector {
        Selector::Exact { tenant, dataset } => vec![(tenant.clone(), dataset.clone())],
        Selector::Glob { .. } => stack
            .catalog
            .keys()
            .into_iter()
            .filter(|(tenant, dataset)| plan.selector.matches(tenant, dataset))
            .collect(),
    };
    let mut sources = Vec::with_capacity(keys.len());
    for (tenant, dataset) in keys {
        let snap = tracer.time(id, fetch.id(), "serve", "snapshot", || {
            stack.catalog.snapshot(&tenant, &dataset)
        });
        let snap = snap.map_err(|e| e.to_string())?;
        sources.push((tenant, dataset, snap));
    }
    tracer.close(fetch, id, parent, "query", "fetch");
    let sketches: Vec<_> = sources
        .iter()
        .map(|(_, _, s)| Arc::clone(&s.sketch))
        .collect();
    let sketch = if sketches.len() > 1 {
        let fused = tracer.time(id, parent, "query", "merge_tree", || merge_tree(&sketches));
        let fused = fused.map_err(|e| e.to_string())?;
        fused_points.push(fused.len() as f64);
        fused
    } else {
        sketches.first().cloned().ok_or("no source matched")?
    };
    let output = tracer.time(id, parent, "core", "execute_on", || {
        execute_on(&sketch, &plan.extract)
    });
    let output = output.map_err(|e| e.to_string())?;
    let answer = match op {
        Op::Point { .. } => {
            let (_, _, snap) = &sources[0];
            let response = QueryResponse {
                output,
                version: snap.version,
                total_elements: sketch.total_elements(),
                freshness: snap.freshness,
            };
            let body = tracer.time(id, parent, "net", "render", || {
                render_response_json(&response)
            });
            let headers = [
                (VERSION_HEADER.to_string(), snap.version.to_string()),
                (
                    FRESHNESS_HEADER.to_string(),
                    snap.freshness.as_str().to_string(),
                ),
            ];
            load.answer(op, 200, &headers, body.into_bytes())
        }
        Op::Plan { .. } => {
            let response = PlanResponse {
                output,
                total_elements: sketch.total_elements(),
                sources: sources
                    .iter()
                    .map(|(tenant, dataset, snap)| PlanSource {
                        tenant: tenant.clone(),
                        dataset: dataset.clone(),
                        version: snap.version,
                        freshness: snap.freshness,
                    })
                    .collect(),
            };
            let body = tracer.time(id, parent, "net", "render", || {
                render_plan_response_json(&response)
            });
            let headers = [(SOURCES_HEADER.to_string(), sources.len().to_string())];
            load.answer(op, 200, &headers, body.into_bytes())
        }
    };
    tracer.close(root, id, ROOT, "e2e", "decomposed");
    Ok(answer)
}

/// The sketch each `(tenant, version)` must have been answered from, and
/// the dataset it summarises.
struct Registry<'a> {
    spec: &'a Spec,
    config: &'a OpaqConfig,
    stack: &'a Stack,
    submitted: u64,
    pool_sketches: BTreeMap<usize, Arc<QuantileSketch<u64>>>,
    /// `merge_tree` replays by source versions: versions are immutable, so
    /// one replay serves every answer over the same versions.
    fused: BTreeMap<Vec<(usize, u64)>, Arc<QuantileSketch<u64>>>,
}

impl Registry<'_> {
    /// Seed stream of the dataset behind `(tenant, version)`.
    fn stream(&self, tenant: usize, version: u64) -> Option<u64> {
        match version {
            0 => None,
            1 => Some(tenant_stream(tenant)),
            v => {
                let j = (v - 2) * self.spec.tenants as u64 + tenant as u64;
                (j < self.submitted)
                    .then(|| pool_stream((j % self.spec.refresh_pool.max(1) as u64) as usize))
            }
        }
    }

    fn sketch(&mut self, tenant: usize, version: u64) -> Option<Arc<QuantileSketch<u64>>> {
        let stream = self.stream(tenant, version)?;
        if version == 1 {
            return Some(Arc::clone(&self.stack.initial[tenant]));
        }
        let j = usize::try_from(stream - pool_stream(0)).ok()?;
        if !self.pool_sketches.contains_key(&j) {
            let store = &self.stack.refresher.as_ref()?.stores[j];
            let sketch = OpaqEstimator::new(*self.config)
                .build_sketch(&**store)
                .ok()?;
            self.pool_sketches.insert(j, Arc::new(sketch));
        }
        self.pool_sketches.get(&j).cloned()
    }
}

/// A verified answer: what it computed and from which datasets.
struct Verified {
    output: QueryOutput,
    streams: Vec<u64>,
    request: QueryRequest,
}

fn verify_answer(
    registry: &mut Registry<'_>,
    op: &Op,
    answer: &Answer,
) -> Result<Verified, String> {
    if answer.status != 200 {
        return Err(format!("status {}: {}", answer.status, answer.body.text()));
    }
    let names = &registry.stack.names;
    match op {
        Op::Point { tenant, request } => {
            let version = answer
                .header(VERSION_HEADER)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or("point answer without a version header")?;
            let freshness = answer
                .header(FRESHNESS_HEADER)
                .and_then(Freshness::parse)
                .ok_or("point answer without a freshness header")?;
            let sketch = registry.sketch(*tenant, version).ok_or_else(|| {
                format!("{} answered from unknown version {version}", names[*tenant])
            })?;
            let output = execute_on(&sketch, request).map_err(|e| e.to_string())?;
            let expected = render_response_json(&QueryResponse {
                output: output.clone(),
                version,
                total_elements: sketch.total_elements(),
                freshness,
            });
            if !answer.body.matches(expected.as_bytes()) {
                return Err(format!(
                    "torn answer for {}: got {}, version {version} renders {expected:?}",
                    names[*tenant],
                    answer.body.text()
                ));
            }
            Ok(Verified {
                output,
                streams: vec![registry.stream(*tenant, version).expect("known version")],
                request: request.clone(),
            })
        }
        Op::Plan { glob } => {
            let Body::Bytes(bytes) = &answer.body else {
                return Err("plan answer recorded without its body".into());
            };
            let body = std::str::from_utf8(bytes).map_err(|_| "non-UTF-8 plan answer")?;
            let parsed = Json::parse(body).map_err(|e| format!("unparseable plan answer: {e}"))?;
            let claimed = parsed
                .get("sources")
                .and_then(Json::as_array)
                .ok_or("plan answer without sources")?;
            if answer
                .header(SOURCES_HEADER)
                .and_then(|v| v.parse::<usize>().ok())
                != Some(claimed.len())
            {
                return Err("plan answer's sources header disagrees with its body".into());
            }
            let expected: Vec<usize> = (0..registry.spec.tenants)
                .filter(|&i| opaq_query::glob_match(GLOBS[*glob], names[i].as_str()))
                .collect();
            if claimed.len() != expected.len() {
                return Err(format!(
                    "plan over {} claimed {} sources, expected {}",
                    GLOBS[*glob],
                    claimed.len(),
                    expected.len()
                ));
            }
            let mut sources = Vec::with_capacity(claimed.len());
            let mut sketches = Vec::with_capacity(claimed.len());
            let mut streams = Vec::with_capacity(claimed.len());
            let mut versions = Vec::with_capacity(claimed.len());
            for (entry, &tenant) in claimed.iter().zip(&expected) {
                let (Some(name), Some(dataset), Some(version), Some(freshness)) = (
                    entry.get("tenant").and_then(Json::as_str),
                    entry.get("dataset").and_then(Json::as_str),
                    entry.get("version").and_then(Json::as_u64),
                    entry
                        .get("freshness")
                        .and_then(Json::as_str)
                        .and_then(Freshness::parse),
                ) else {
                    return Err("malformed source in a plan answer".into());
                };
                if name != names[tenant].as_str() {
                    return Err(format!(
                        "plan answer names source {name}, expected {}",
                        names[tenant]
                    ));
                }
                let sketch = registry
                    .sketch(tenant, version)
                    .ok_or_else(|| format!("{name} answered from unknown version {version}"))?;
                streams.push(registry.stream(tenant, version).expect("known version"));
                versions.push((tenant, version));
                sketches.push(sketch);
                sources.push(PlanSource {
                    tenant: TenantId::new(name),
                    dataset: DatasetId::new(dataset),
                    version,
                    freshness,
                });
            }
            let fused = match registry.fused.get(&versions) {
                Some(fused) => Arc::clone(fused),
                None => {
                    let fused = merge_tree(&sketches).map_err(|e| e.to_string())?;
                    registry.fused.insert(versions, Arc::clone(&fused));
                    fused
                }
            };
            let request = QueryRequest::QuantileBatch {
                phis: PLAN_PHIS.to_vec(),
            };
            let output = execute_on(&fused, &request).map_err(|e| e.to_string())?;
            let expected_body = render_plan_response_json(&PlanResponse {
                output: output.clone(),
                total_elements: fused.total_elements(),
                sources,
            });
            if !answer.body.matches(expected_body.as_bytes()) {
                return Err(format!(
                    "torn plan answer over {}: got {body:?}, its sources render {expected_body:?}",
                    GLOBS[*glob]
                ));
            }
            Ok(Verified {
                output,
                streams,
                request,
            })
        }
    }
}

/// Off-the-clock checks of every recorded answer.
fn verify(
    opts: &Options,
    spec: &Spec,
    config: &OpaqConfig,
    stack: &Stack,
    records: Vec<Record>,
    outcome: &mut Outcome,
) {
    let mut submitted = 0;
    if let Some(refresher) = &stack.refresher {
        let state = refresher
            .state
            .lock()
            .expect("a client panicked while holding the refresh state");
        submitted = state.submitted;
        for e in &state.errors {
            outcome.fail(e.clone());
        }
        if refresher.pool.failed() > 0 {
            outcome.fail(format!("{} re-ingests failed", refresher.pool.failed()));
        }
    }
    let mut registry = Registry {
        spec,
        config,
        stack,
        submitted,
        pool_sketches: BTreeMap::new(),
        fused: BTreeMap::new(),
    };
    let mut sampled: BTreeMap<String, Verified> = BTreeMap::new();
    let mut verified = 0usize;
    for record in &records {
        outcome.attempted += 1;
        let answer = match &record.answer {
            Ok(Some(answer)) => answer,
            Ok(None) => continue,
            Err(e) => {
                outcome.fail(format!("request failed: {e}"));
                continue;
            }
        };
        match verify_answer(&mut registry, &record.op, answer) {
            Ok(v) => {
                verified += 1;
                if sampled.len() < SAMPLE_CAP {
                    let mut streams = v.streams.clone();
                    streams.sort_unstable();
                    sampled
                        .entry(format!("{streams:?} {:?}", v.request))
                        .or_insert(v);
                }
            }
            Err(e) => outcome.fail(e),
        }
    }

    // Ground truth for the sampled answers.
    let mut truths: BTreeMap<u64, Arc<GroundTruth>> = BTreeMap::new();
    let mut errs = Vec::new();
    let mut slacks = Vec::new();
    let mut planted = opts.fault != Fault::BoundViolation;
    for v in sampled.values() {
        for &stream in &v.streams {
            truths
                .entry(stream)
                .or_insert_with(|| ground_truth(keys(opts.seed, stream, spec.keys_per_tenant)));
        }
        let truth = Truth::new(v.streams.iter().map(|s| Arc::clone(&truths[s])).collect());
        let n = truth.n() as f64;
        let estimates = match &v.output {
            QueryOutput::Quantile(est) => vec![*est],
            QueryOutput::QuantileBatch(ests) | QueryOutput::Profile(ests) => ests.clone(),
            QueryOutput::Rank(bounds) => {
                outcome.attempted += 1;
                let QueryRequest::Rank { key } = v.request else {
                    unreachable!("rank output answers a rank request")
                };
                if let Err(e) = truth.check_rank(key, bounds) {
                    outcome.fail(e);
                }
                continue;
            }
        };
        for mut est in estimates {
            outcome.attempted += 1;
            if !planted {
                est.lower = truth.value_at_rank(est.target_rank) + 1;
                est.upper = est.upper.max(est.lower);
                planted = true;
            }
            match truth.check_estimate(&est) {
                Ok(checked) => {
                    errs.push(checked.err as f64 / n);
                    slacks.push(checked.slack as f64 / n);
                }
                Err(e) => outcome.fail(e),
            }
        }
    }
    outcome.set("rank_err_frac", mean(&errs));
    outcome.set("rank_slack_frac", mean(&slacks));
    outcome.report.push_str(&format!(
        "verified {verified} answers byte for byte; {} quantile bounds and the rank answers of {} sampled answers checked against the data\n",
        errs.len(),
        sampled.len()
    ));
}

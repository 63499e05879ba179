//! Workload `ingest`: the paper's one pass over a disk-resident dataset.
//!
//! Set-up writes `n` seeded uniform keys to a run file (so the page cache
//! is warm).  The untraced phase repeats `ShardedOpaq::build_sketch` at
//! `nproc` threads, with a host-speed reading ([`crate::calib`]) before each
//! pass, and publishes each sketch to a catalog.  The traced phase
//! alternates an untimed and a timed one-thread sequential pass (storage →
//! select → core), then runs the sharded build over a timing store wrapper
//! to read the `parallel` layer's own report.  Verification checks that
//! every sharded sketch is bit-identical to `OpaqEstimator::build_sketch`
//! (and, when traced, to the traced sequential leg) and that every
//! 1/1000-quantile's bounds (the dectiles among them) hold against the
//! sorted data.

use crate::calib::{HostSpeed, REFERENCE_S, STREAMING};
use crate::cli::{Fault, Options, Scale};
use crate::output::Outcome;
use crate::pass::{sequential_pass, TimedStore};
use crate::spans::{SpanLog, Tracer};
use crate::stats::median;
use crate::sys::{derive_seed, keys, nproc, peak_rss_mb, reset_peak_rss, KEY_DOMAIN};
use crate::truth::{ground_truth, Truth};
use opaq_core::{OpaqConfig, OpaqEstimator, QuantileSketch};
use opaq_datagen::{KeyGenerator, UniformGenerator};
use opaq_parallel::{ShardedIngestReport, ShardedOpaq};
use opaq_serve::{DatasetId, SketchCatalog, TenantId};
use opaq_storage::{FileRunStore, FileRunStoreBuilder, RunStore};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
struct Size {
    n: u64,
    m: u64,
    s: u64,
}

impl Size {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Size {
                n: 20_000_000,
                m: 1_000_000,
                s: 1_000,
            },
            Scale::Tiny => Size {
                n: 200_000,
                m: 10_000,
                s: 100,
            },
        }
    }
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Keys generated and appended per write while building the run file.
const WRITE_CHUNK: u64 = 1 << 20;
/// Quantiles whose estimation cost is timed.
const DECTILES: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
/// Every `1/CHECKED`-quantile (dectiles included) is checked against the
/// data; averaging the error over this many makes `rank_err_frac` steady.
const CHECKED: u32 = 1_000;

/// Run the workload.
///
/// # Errors
/// A set-up failure (the run cannot be measured at all).
pub fn run(opts: &Options, dir: &Path, spans: &mut SpanLog) -> Result<Outcome, String> {
    let size = Size::of(opts.scale);
    let config = OpaqConfig::builder()
        .run_length(size.m)
        .sample_size(size.s)
        .build()
        .map_err(|e| e.to_string())?;
    let threads = nproc();
    let path = dir.join("ingest.runs");

    // Set-up: write the run file several times; report the median.
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        write_runs(&path, size, opts.seed)?;
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    // Flush the file off the clock, so write-back does not run inside a
    // measured window.  The page cache stays warm.
    std::fs::File::open(&path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("syncing {}: {e}", path.display()))?;
    let store = FileRunStore::<u64>::open(&path, size.n, size.m).map_err(|e| e.to_string())?;

    let mut outcome = Outcome::default();
    outcome.set("setup_s", median(&setup_secs));
    let sharded = ShardedOpaq::new(config, threads).map_err(|e| e.to_string())?;
    let window = Duration::from_secs_f64(opts.seconds);

    let reference = if opts.trace {
        traced(
            &config,
            &sharded,
            &store,
            &path,
            size,
            window,
            &mut outcome,
            spans,
        )?
    } else {
        untraced(&sharded, &store, size, window, &mut outcome)?
    };

    verify(opts, &config, &store, &reference, size, &mut outcome);
    outcome.report = format!(
        "ingest: n={} m={} s={} threads={threads} runs={}\n{}",
        size.n,
        size.m,
        size.s,
        store.layout().runs(),
        outcome.report
    );
    drop(store);
    let _ = std::fs::remove_file(&path);
    Ok(outcome)
}

fn write_runs(path: &Path, size: Size, seed: u64) -> Result<(), String> {
    let mut generator = UniformGenerator::new(derive_seed(seed, 0), KEY_DOMAIN);
    let mut builder = FileRunStoreBuilder::<u64>::new(path, size.m).map_err(|e| e.to_string())?;
    let mut written = 0;
    while written < size.n {
        let chunk = WRITE_CHUNK.min(size.n - written);
        let keys = generator.generate(usize::try_from(chunk).expect("chunk fits in memory"));
        builder = builder.append(&keys).map_err(|e| e.to_string())?;
        written += chunk;
    }
    builder.finish().map_err(|e| e.to_string())?;
    Ok(())
}

/// End-to-end phase: sharded passes until the window closes (at least
/// three), each published to a catalog and read back.
fn untraced(
    sharded: &ShardedOpaq,
    store: &FileRunStore<u64>,
    size: Size,
    window: Duration,
    outcome: &mut Outcome,
) -> Result<Arc<QuantileSketch<u64>>, String> {
    let catalog = SketchCatalog::unbounded();
    let tenant = TenantId::new("ingest");
    let dataset = DatasetId::new("events");
    let mut build_secs = Vec::new();
    let mut lag_secs = Vec::new();
    // Peak RSS over the first pass.  Later passes start from whatever the
    // allocator kept of earlier ones, and that changed between runs of the
    // same passes (98 or 150 MB), not with the program.
    let mut first_peak = None;
    let mut reference: Option<Arc<QuantileSketch<u64>>> = None;
    let mut speed = HostSpeed::new(STREAMING);
    // Reading `i` is taken right before pass `i`, one more after the last.
    let mut factors = Vec::new();
    let start = Instant::now();
    while (start.elapsed() < window || build_secs.len() < 3) && outcome.failed < 10 {
        speed.read();
        outcome.attempted += 1;
        if first_peak.is_none() {
            reset_peak_rss();
        }
        let pass_start = Instant::now();
        let sketch = match sharded.build_sketch(store) {
            Ok(sketch) => sketch,
            Err(e) => {
                outcome.fail(format!("sharded ingest failed: {e}"));
                continue;
            }
        };
        let built = pass_start.elapsed();
        let published = catalog
            .publish(&tenant, &dataset, sketch)
            .and_then(|version| Ok((version, catalog.snapshot(&tenant, &dataset)?)));
        let lag = pass_start.elapsed();
        let (version, snapshot) = match published {
            Ok(published) => published,
            Err(e) => {
                outcome.fail(format!("publishing the ingested sketch failed: {e}"));
                continue;
            }
        };
        first_peak.get_or_insert_with(peak_rss_mb);
        build_secs.push(built.as_secs_f64());
        lag_secs.push(lag.as_secs_f64());
        factors.push(speed.readings().len() - 1);
        if snapshot.version != version {
            outcome.fail(format!(
                "snapshot returned version {} right after publishing {version}",
                snapshot.version
            ));
        }
        match &reference {
            None => reference = Some(snapshot.sketch),
            Some(first) if **first != *snapshot.sketch => {
                outcome.fail("two sharded passes over the same file built different sketches");
            }
            Some(_) => {}
        }
    }
    speed.read();
    outcome.set("peak_rss_mb", first_peak.unwrap_or(0.0));
    // Every timing scaled to the reference host speed (see `calib`).
    let scale = |secs: &[f64]| -> Vec<f64> {
        secs.iter()
            .zip(&factors)
            .map(|(s, &i)| s * speed.factor(i))
            .collect()
    };
    let scaled_build = scale(&build_secs);
    let n = size.n as f64;
    let rates: Vec<f64> = scaled_build.iter().map(|s| n / s.max(1e-12)).collect();
    outcome.set("ingest_keys_per_s", median(&rates));
    outcome.set("p50_ms", median(&scaled_build) * 1e3);
    outcome.set("ops_per_s", 1.0 / median(&scaled_build).max(1e-12));
    outcome.set("publish_lag_ms", median(&scale(&lag_secs)) * 1e3);
    outcome.report = format!(
        "untraced: {} sharded passes, median {:.3} s raw ({:.0} keys/s raw), \
         {:.3} s scaled to the reference host speed ({:.0} keys/s)\n\
         pass times {:.3?} s\n\
         host-speed kernel readings (reference {REFERENCE_S} s): median {:.4} s, {:.4?} s\n",
        build_secs.len(),
        median(&build_secs),
        n / median(&build_secs).max(1e-12),
        median(&scaled_build),
        median(&rates),
        build_secs,
        speed.median(),
        speed.readings(),
    );
    reference.ok_or_else(|| "no sharded pass succeeded".to_string())
}

/// Per-layer phase.
#[allow(clippy::too_many_arguments)]
fn traced(
    config: &OpaqConfig,
    sharded: &ShardedOpaq,
    store: &FileRunStore<u64>,
    path: &Path,
    size: Size,
    window: Duration,
    outcome: &mut Outcome,
    spans: &mut SpanLog,
) -> Result<Arc<QuantileSketch<u64>>, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut untraced_secs = Vec::new();
    let mut traced_sketch = None;
    let mut op = 0u64;
    // Alternate untimed and timed sequential passes, so drift hits both.
    while origin.elapsed() < window.mul_f64(0.7) || op < 2 {
        outcome.attempted += 2;
        let start = Instant::now();
        if let Err(e) = sequential_pass(store, config, None) {
            outcome.fail(format!("sequential pass failed: {e}"));
        }
        untraced_secs.push(start.elapsed().as_secs_f64());
        op += 1;
        let before = store.io_stats().snapshot().bytes_read;
        match sequential_pass(store, config, Some((&mut tracer, op))) {
            Ok(sketch) => {
                traced_sketch.get_or_insert(sketch);
            }
            Err(e) => outcome.fail(format!("traced sequential pass failed: {e}")),
        }
        let bytes = store.io_stats().snapshot().bytes_read - before;
        if bytes != size.n * 8 {
            outcome.fail(format!(
                "one pass read {bytes} bytes, expected exactly 8·n = {}",
                size.n * 8
            ));
        }
    }

    // Sharded legs over a timing wrapper: the parallel layer's report.
    let mut reports: Vec<ShardedIngestReport> = Vec::new();
    let mut sharded_reads = Vec::new();
    let mut reference = None;
    for _ in 0..2 {
        outcome.attempted += 1;
        let file = FileRunStore::<u64>::open(path, size.n, size.m).map_err(|e| e.to_string())?;
        let (timed, clock) = TimedStore::new(Arc::new(file));
        match sharded.build_sketch_with_report(&timed) {
            Ok((sketch, report)) => {
                reports.push(report);
                reference.get_or_insert_with(|| Arc::new(sketch));
            }
            Err(e) => outcome.fail(format!("sharded ingest failed: {e}")),
        }
        let read: f64 = clock
            .reads()
            .iter()
            .map(|(s, e)| e.duration_since(*s).as_secs_f64())
            .sum();
        sharded_reads.push(read);
    }
    let reference = reference.ok_or_else(|| "no sharded pass succeeded".to_string())?;
    outcome.attempted += 1;
    if traced_sketch.as_ref() != Some(&*reference) {
        outcome.fail("sharded sketch is not bit-identical to the traced sequential leg");
    }

    let dectile_secs = time_estimates(&reference);
    spans.absorb(tracer);
    let pass = median(&spans.durations("e2e", "pass"));
    let read = median(&spans.per_op_sum("storage", "read_run_into"));
    let sample = median(&spans.per_op_sum("select", "sample"));
    let merge = median(&spans.durations("core", "from_run_samples"));
    let n = size.n as f64;
    outcome.set("storage.read_s", read);
    outcome.set("storage.read_mb_per_s", n * 8.0 / 1e6 / read.max(1e-12));
    outcome.set("storage.bytes_read", n * 8.0);
    let io = reports.last().map(|r| r.io).unwrap_or_default();
    let buffers = (io.buffer_allocs + io.buffer_reuses).max(1) as f64;
    outcome.set(
        "storage.buffer_reuse_ratio",
        io.buffer_reuses as f64 / buffers,
    );
    outcome.set("select.sample_s", sample);
    outcome.set("select.keys_per_s", n / sample.max(1e-12));
    outcome.set("core.run_merge_s", merge);
    outcome.set("core.sketch_points", reference.len() as f64);
    outcome.set("core.estimate_us", dectile_secs * 1e6);

    let med = |f: &dyn Fn(&ShardedIngestReport) -> f64| {
        median(&reports.iter().map(f).collect::<Vec<_>>())
    };
    let busy = med(&|r| {
        r.shards.iter().map(|s| s.busy.as_secs_f64()).sum::<f64>() / r.shards.len().max(1) as f64
    });
    let starved_frac = med(&|r| {
        let starved: f64 = r.shards.iter().map(|s| s.starved.as_secs_f64()).sum();
        let busy: f64 = r.shards.iter().map(|s| s.busy.as_secs_f64()).sum();
        starved / (starved + busy).max(1e-12)
    });
    let dispatch = med(&|r| r.dispatch.as_secs_f64());
    let total = med(&|r| r.total.as_secs_f64());
    let parallel_merge = med(&|r| r.merge.as_secs_f64());
    outcome.set("parallel.dispatch_s", dispatch);
    outcome.set("parallel.shard_busy_s", busy);
    outcome.set("parallel.shard_starved_frac", starved_frac);
    outcome.set("parallel.merge_s", parallel_merge);
    for name in IDLE_ON_INGEST {
        outcome.set(name, 0.0);
    }
    let covered = read + sample + merge;
    outcome.set("trace.coverage", covered / pass.max(1e-12));
    outcome.set(
        "trace.overhead_frac",
        pass / median(&untraced_secs).max(1e-12) - 1.0,
    );

    let share = |v: f64| 100.0 * v / pass.max(1e-12);
    outcome.report = format!(
        "traced sequential pass (1 thread): {} passes, median {pass:.3} s, untraced {:.3} s\n\
         layer self time per pass:\n\
         \x20 storage  read_run_into      {read:>9.4} s  {:>5.1}%\n\
         \x20 select   RunSampler::sample {sample:>9.4} s  {:>5.1}%\n\
         \x20 core     from_run_samples   {merge:>9.4} s  {:>5.1}%\n\
         \x20 (unattributed)              {:>9.4} s  {:>5.1}%\n\
         sharded pass ({} threads, parallel layer report, median of {}):\n\
         \x20 total {total:.4} s | dispatch {dispatch:.4} s | storage reads {:.4} s | \
         mean shard busy {busy:.4} s | starved {:.1}% | merge {parallel_merge:.6} s\n",
        op,
        median(&untraced_secs),
        share(read),
        share(sample),
        share(merge),
        pass - covered,
        share(pass - covered),
        sharded.threads(),
        reports.len(),
        median(&sharded_reads),
        100.0 * starved_frac,
    );
    Ok(reference)
}

/// Metrics of layers that do no work on this workload.
const IDLE_ON_INGEST: [&str; 19] = [
    "parallel.refresh_build_s",
    "serve.snapshot_us",
    "serve.hit_ratio",
    "serve.reloads",
    "serve.evictions",
    "serve.resident_points",
    "serve.publishes",
    "serve.refresh_queue_ms",
    "query.parse_us",
    "query.fetch_us",
    "query.merge_us",
    "query.fused_points",
    "query.execute_us",
    "net.route_us",
    "net.render_us",
    "net.transport_us",
    "net.requests",
    "net.connections",
    "net.rejected",
];

/// Median seconds of one `estimate_many` call over the dectiles.
fn time_estimates(sketch: &QuantileSketch<u64>) -> f64 {
    let mut secs = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        let out = sketch.estimate_many(&DECTILES);
        secs.push(start.elapsed().as_secs_f64());
        std::hint::black_box(out.ok());
    }
    median(&secs)
}

/// Off-the-clock checks: sharded ≡ the program's own sequential build, and
/// every 1/1000-quantile against the sorted data.
fn verify(
    opts: &Options,
    config: &OpaqConfig,
    store: &FileRunStore<u64>,
    reference: &QuantileSketch<u64>,
    size: Size,
    outcome: &mut Outcome,
) {
    outcome.attempted += 1;
    match OpaqEstimator::new(*config).build_sketch(store) {
        Ok(sequential) if sequential == *reference => {}
        Ok(_) => outcome.fail("sharded sketch is not bit-identical to OpaqEstimator::build_sketch"),
        Err(e) => outcome.fail(format!("OpaqEstimator::build_sketch failed: {e}")),
    }
    let data = keys(
        opts.seed,
        0,
        usize::try_from(size.n).expect("n fits in memory"),
    );
    let truth = Truth::new(vec![ground_truth(data)]);
    let mut errs = Vec::new();
    let mut slacks = Vec::new();
    for i in 1..CHECKED {
        let phi = f64::from(i) / f64::from(CHECKED);
        outcome.attempted += 1;
        let mut est = match reference.estimate(phi) {
            Ok(est) => est,
            Err(e) => {
                outcome.fail(format!("estimate({phi}) failed: {e}"));
                continue;
            }
        };
        if opts.fault == Fault::BoundViolation && i == CHECKED / 2 {
            est.lower = truth.value_at_rank(est.target_rank) + 1;
            est.upper = est.upper.max(est.lower);
        }
        match truth.check_estimate(&est) {
            Ok(checked) => {
                errs.push(checked.err as f64 / size.n as f64);
                slacks.push(checked.slack as f64 / size.n as f64);
            }
            Err(e) => outcome.fail(e),
        }
    }
    outcome.set("rank_err_frac", crate::stats::mean(&errs));
    outcome.set("rank_slack_frac", crate::stats::mean(&slacks));
}

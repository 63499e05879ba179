//! Sharded multi-threaded ingestion: OPAQ's sample phase fanned out to OS
//! worker threads through one shared run queue.
//!
//! The paper's one-pass structure makes every run independent until the
//! final sample merge, which §5 exploits on the SP-2; [`ShardedOpaq`] is the
//! shared-memory version of that observation:
//!
//! ```text
//!  RunStore                     one bounded           S workers, one
//!     │ runs 0, 1, …, r−1       queue (depth d)       RunSampler each
//!     ▼ read_run_into         ┌────────────────┐    ┌─▶ worker 0 ─┐ (run, RunSample)
//!  reader (calling thread) ──▶│ (run, buf) × d │ ───┼─▶ worker 1 ─┤  sorted by run
//!     ▲                       └────────────────┘    └─▶ …        ─┤        │
//!     └────────── BufferPool ◀── sampled buffers ─────────────────┘        ▼
//!                                                              from_run_samples
//! ```
//!
//! * **One reader, many samplers.**  The calling thread performs the single
//!   sequential pass over the store, reading run `i` into a pooled buffer
//!   with `RunStore::read_run_into` and pushing `(i, buf)` onto one bounded
//!   queue.  Disk access stays strictly sequential (the access pattern the
//!   paper's cost model assumes), while whichever worker is free takes the
//!   next run, so the `O(m log s)` multi-selection work — the dominant CPU
//!   cost — keeps every worker busy from the first runs of the pass to the
//!   last.  (The vendored crossbeam shim is std `mpsc`, whose receiver is
//!   single-consumer; the workers share it behind a mutex.)
//! * **Bit-identical to [`OpaqEstimator::build_sketch`] by construction.**
//!   Each worker keeps `(run index, RunSample)` pairs.  A run's sample
//!   depends only on the run's contents, never on the worker that took it
//!   or when.  After the pass the pairs are sorted by run index and handed
//!   to [`QuantileSketch::from_run_samples`], the same final step the
//!   sequential estimator takes over the same list, so the two sketches are
//!   equal for any worker count and any completion order.
//! * **Bounded memory, zero steady-state allocation.**  The queue holds at
//!   most `prefetch_depth` runs, so slow workers back-pressure the reader
//!   instead of letting buffered runs pile up.  At most `S + depth + 1`
//!   run buffers of `m` keys exist at once: `depth` queued, one being
//!   filled by the reader, and one per worker being sampled; on top of that
//!   sit the `r·s` sample points.  Workers return each sampled buffer to a
//!   shared [`BufferPool`] that the reader refills, so after warm-up no run
//!   read allocates (watch the `buffer_allocs`/`buffer_reuses` counters in
//!   the report's [`IoStatsSnapshot`]).
//! * **No deadlock on error.**  The workers hold the only handles to the
//!   queue's receiver.  A worker that fails raises a shared flag, after
//!   which the other workers stop taking runs; once the last worker has
//!   exited the receiver is gone, so the reader's next send fails — even
//!   one already blocked on a full queue — and it stops reading.
//! * **Observability.**  Each worker reports an [`opaq_metrics::ShardStats`]
//!   (runs, elements, busy vs. starved wall-clock), and the report carries
//!   the store's [`IoStatsSnapshot`] delta, so "is ingest I/O-bound or
//!   CPU-bound?" is answerable per run — the multi-threaded analogue of the
//!   paper's Table 11/12 I/O-fraction breakdown.
//!
//! [`OpaqEstimator::build_sketch`]: opaq_core::OpaqEstimator::build_sketch

use crossbeam::channel;
use opaq_core::{Key, OpaqConfig, OpaqError, OpaqResult, QuantileSketch, RunSample, RunSampler};
use opaq_metrics::trace::{SpanTag, Stage, TraceSink};
use opaq_metrics::{render_shard_table, ShardStats};
use opaq_storage::{BufferPool, IoStatsSnapshot, RunStore, DEFAULT_PREFETCH_DEPTH};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Multi-threaded OPAQ ingestion over any [`RunStore`].
///
/// Produces a sketch bit-identical to the sequential
/// [`opaq_core::OpaqEstimator::build_sketch`] over the same store — see the
/// module docs for why — while sampling runs on `threads` OS threads.
#[derive(Debug, Clone, Copy)]
pub struct ShardedOpaq {
    config: OpaqConfig,
    threads: usize,
    prefetch_depth: usize,
}

/// What one sharded ingest did: per-worker statistics plus the phase and I/O
/// totals of the whole pass.
#[derive(Debug, Clone)]
pub struct ShardedIngestReport {
    /// Per-worker statistics, ordered by worker index.
    pub shards: Vec<ShardStats>,
    /// The store's I/O counter deltas for this ingest.
    pub io: IoStatsSnapshot,
    /// Wall-clock time of the read loop (sequential read + enqueue).
    pub dispatch: Duration,
    /// Wall-clock time of the final [`QuantileSketch::from_run_samples`].
    pub merge: Duration,
    /// Wall-clock time of the whole ingest.
    pub total: Duration,
}

impl ShardedIngestReport {
    /// Render the per-worker statistics as a fixed-width text table.
    pub fn render_table(&self) -> String {
        render_shard_table(&self.shards)
    }
}

/// Field-wise difference of two I/O snapshots taken around one ingest.
fn io_delta(before: IoStatsSnapshot, after: IoStatsSnapshot) -> IoStatsSnapshot {
    IoStatsSnapshot {
        bytes_read: after.bytes_read.saturating_sub(before.bytes_read),
        bytes_written: after.bytes_written.saturating_sub(before.bytes_written),
        read_calls: after.read_calls.saturating_sub(before.read_calls),
        write_calls: after.write_calls.saturating_sub(before.write_calls),
        measured: after.measured.saturating_sub(before.measured),
        modelled: after.modelled.saturating_sub(before.modelled),
        buffer_allocs: after.buffer_allocs.saturating_sub(before.buffer_allocs),
        buffer_reuses: after.buffer_reuses.saturating_sub(before.buffer_reuses),
    }
}

/// The run queue's receiving end, shared by every worker and by nobody else.
type RunQueue<K> = Arc<Mutex<channel::Receiver<(u64, Vec<K>)>>>;

/// What one worker sampled: its statistics and `(run index, sample)` pairs.
type WorkerOutput<K> = OpaqResult<(ShardStats, Vec<(u64, RunSample<K>)>)>;

impl ShardedOpaq {
    /// Create a sharded ingester with `threads` worker threads.
    ///
    /// # Errors
    /// [`OpaqError::InvalidConfig`] if the configuration is invalid or
    /// `threads == 0`.
    pub fn new(config: OpaqConfig, threads: usize) -> OpaqResult<Self> {
        config.validate()?;
        if threads == 0 {
            return Err(OpaqError::InvalidConfig(
                "at least one ingestion thread is required".into(),
            ));
        }
        Ok(Self {
            config,
            threads,
            prefetch_depth: DEFAULT_PREFETCH_DEPTH,
        })
    }

    /// Override the run queue's depth (clamped to ≥ 1, default
    /// [`DEFAULT_PREFETCH_DEPTH`]).  Larger depths smooth out uneven run
    /// processing times at the cost of `depth · m` extra buffered keys.
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth.max(1);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &OpaqConfig {
        &self.config
    }

    /// The configured worker thread count (the effective worker count is
    /// capped at the store's run count).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ingest every run of `store` and return the sketch.
    ///
    /// # Errors
    /// [`OpaqError::EmptyDataset`] for an empty store or an empty run;
    /// storage errors from the sequential read pass are propagated.
    pub fn build_sketch<K, S>(&self, store: &S) -> OpaqResult<QuantileSketch<K>>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.build_sketch_with_report(store).map(|(s, _)| s)
    }

    /// Like [`Self::build_sketch`], also returning the per-worker report.
    pub fn build_sketch_with_report<K, S>(
        &self,
        store: &S,
    ) -> OpaqResult<(QuantileSketch<K>, ShardedIngestReport)>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.build_inner(store, None)
    }

    /// Like [`Self::build_sketch_with_report`], additionally recording
    /// ingest-side trace spans into `sink`: one [`Stage::Ingest`] span per
    /// worker (covering the worker's whole lifetime, so starvation is
    /// visible as span length vs. busy time in the report) and one
    /// [`Stage::Merge`] span for the final [`QuantileSketch::from_run_samples`],
    /// all parented under `parent` (typically the refresh job's root span).
    pub fn build_sketch_traced<K, S>(
        &self,
        store: &S,
        sink: &TraceSink,
        parent: u32,
    ) -> OpaqResult<(QuantileSketch<K>, ShardedIngestReport)>
    where
        K: Key,
        S: RunStore<K>,
    {
        self.build_inner(store, Some((sink, parent)))
    }

    fn build_inner<K, S>(
        &self,
        store: &S,
        trace: Option<(&TraceSink, u32)>,
    ) -> OpaqResult<(QuantileSketch<K>, ShardedIngestReport)>
    where
        K: Key,
        S: RunStore<K>,
    {
        if store.is_empty() {
            return Err(OpaqError::EmptyDataset);
        }
        let runs = store.layout().runs();
        let workers = self.threads.min(runs as usize).max(1);
        let io_before = store.io_stats().snapshot();
        let total_start = Instant::now();

        let sampler = RunSampler::new(self.config.sample_size, self.config.strategy)?;
        let pool = BufferPool::<K>::new();
        let failed = AtomicBool::new(false);
        let (run_tx, run_rx) = channel::bounded::<(u64, Vec<K>)>(self.prefetch_depth);
        let queue: RunQueue<K> = Arc::new(Mutex::new(run_rx));

        let (read, dispatch, outputs) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let (sampler, queue) = (sampler.clone(), Arc::clone(&queue));
                    let (pool, failed) = (&pool, &failed);
                    scope.spawn(move || sample_runs(worker, sampler, queue, pool, failed, trace))
                })
                .collect();
            // From here on only the workers hold the receiver, so it closes
            // when the last of them exits.
            drop(queue);

            let dispatch_start = Instant::now();
            let mut read = Ok(());
            for run in 0..runs {
                let mut buf = pool.get();
                if let Err(e) = store.read_run_into(run, &mut buf) {
                    read = Err(OpaqError::from(e));
                    break;
                }
                // Fails only once every worker has exited; their errors say why.
                if run_tx.send((run, buf)).is_err() {
                    break;
                }
            }
            // Closing the queue lets the workers drain it and exit.
            drop(run_tx);
            let dispatch = dispatch_start.elapsed();
            let outputs: Vec<WorkerOutput<K>> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect();
            (read, dispatch, outputs)
        });
        read?;

        let mut shards = Vec::with_capacity(workers);
        let mut samples = Vec::with_capacity(runs as usize);
        for output in outputs {
            let (stats, pairs) = output?;
            shards.push(stats);
            samples.extend(pairs);
        }
        samples.sort_unstable_by_key(|&(run, _)| run);
        debug_assert_eq!(samples.len() as u64, runs, "every run was sampled once");

        let merge_start = Instant::now();
        let merge_span_start = trace.map(|(sink, _)| sink.now_nanos());
        let sketch =
            QuantileSketch::from_run_samples(samples.into_iter().map(|(_, rs)| rs).collect())?;
        let merge = merge_start.elapsed();
        if let (Some((sink, parent)), Some(start)) = (trace, merge_span_start) {
            sink.child(parent, Stage::Merge, SpanTag::Untagged, start);
        }
        let report = ShardedIngestReport {
            shards,
            io: io_delta(io_before, store.io_stats().snapshot()),
            dispatch,
            merge,
            total: total_start.elapsed(),
        };
        Ok((sketch, report))
    }
}

/// One worker: take runs off the shared queue until it closes, sample each
/// with `sampler` and hand the buffer back to the pool.  The first error
/// raises `failed` and ends the worker.
fn sample_runs<K: Key>(
    worker: usize,
    mut sampler: RunSampler,
    queue: RunQueue<K>,
    pool: &BufferPool<K>,
    failed: &AtomicBool,
    trace: Option<(&TraceSink, u32)>,
) -> WorkerOutput<K> {
    // One Ingest span per worker, spanning its whole lifetime (queue waits
    // included).
    let span = trace.map(|(sink, _)| (sink.allocate(), sink.now_nanos()));
    let mut stats = ShardStats {
        shard: worker,
        ..ShardStats::default()
    };
    let mut samples = Vec::new();
    let sampled = loop {
        let wait_start = Instant::now();
        let next = queue.lock().recv();
        stats.starved += wait_start.elapsed();
        // A closed queue means every run has been handed out.
        let Ok((run, mut buf)) = next else {
            break Ok(());
        };
        if failed.load(Ordering::Relaxed) {
            pool.put(buf);
            break Ok(());
        }
        let work_start = Instant::now();
        let sample = sampler.sample(&mut buf);
        pool.put(buf);
        stats.busy += work_start.elapsed();
        match sample {
            Ok(sample) => {
                stats.runs += 1;
                stats.elements += sample.run_len;
                stats.sample_points += sample.values.len();
                samples.push((run, sample));
            }
            Err(e) => {
                failed.store(true, Ordering::Relaxed);
                break Err(e);
            }
        }
    };
    if let (Some((sink, parent)), Some((id, start))) = (trace, span) {
        let tag = if sampled.is_ok() {
            SpanTag::Untagged
        } else {
            SpanTag::Error
        };
        sink.complete(id, parent, Stage::Ingest, tag, start);
    }
    sampled.map(|()| (stats, samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_core::IncrementalOpaq;
    use opaq_storage::{FileRunStoreBuilder, IoStats, MemRunStore, RunLayout, StorageError};
    use std::sync::mpsc;

    fn config(m: u64, s: u64) -> OpaqConfig {
        OpaqConfig::builder()
            .run_length(m)
            .sample_size(s)
            .build()
            .unwrap()
    }

    fn sequential(store: &MemRunStore<u64>, cfg: OpaqConfig) -> QuantileSketch<u64> {
        let mut inc = IncrementalOpaq::new(cfg).unwrap();
        inc.add_store(store).unwrap();
        inc.into_sketch().unwrap()
    }

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let data: Vec<u64> = (0..30_000).map(|i| (i * 2654435761) % 10_007).collect();
        let cfg = config(1000, 100);
        let store = MemRunStore::new(data, 1000);
        let reference = sequential(&store, cfg);
        for threads in 1..=8 {
            let sharded = ShardedOpaq::new(cfg, threads)
                .unwrap()
                .build_sketch(&store)
                .unwrap();
            assert_eq!(sharded, reference, "threads {threads}");
        }
    }

    #[test]
    fn matches_sequential_on_file_store_with_tail_run() {
        let mut path = std::env::temp_dir();
        path.push(format!("opaq-sharded-test-{}.bin", std::process::id()));
        let data: Vec<u64> = (0..12_345).rev().collect();
        let file = FileRunStoreBuilder::<u64>::new(&path, 1000)
            .unwrap()
            .append(&data)
            .unwrap()
            .finish()
            .unwrap();
        let mem = MemRunStore::new(data, 1000);
        let cfg = config(1000, 64);
        let reference = sequential(&mem, cfg);
        let (sharded, report) = ShardedOpaq::new(cfg, 4)
            .unwrap()
            .build_sketch_with_report(&file)
            .unwrap();
        assert_eq!(sharded, reference);
        // 13 runs over 4 shards; the report accounts for every run and byte.
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.shards.iter().map(|s| s.runs).sum::<u64>(), 13);
        assert_eq!(
            report.shards.iter().map(|s| s.elements).sum::<u64>(),
            12_345
        );
        assert_eq!(report.io.bytes_read, 12_345 * 8);
        assert_eq!(report.io.read_calls, 13);
        assert!(report.render_table().contains("4 shards"));
        file.remove_file().unwrap();
    }

    #[test]
    fn more_threads_than_runs_caps_shard_count() {
        let store = MemRunStore::new((0u64..3000).collect(), 1000);
        let cfg = config(1000, 100);
        let (sketch, report) = ShardedOpaq::new(cfg, 8)
            .unwrap()
            .build_sketch_with_report(&store)
            .unwrap();
        assert_eq!(report.shards.len(), 3, "shards capped at the run count");
        assert_eq!(sketch, sequential(&store, cfg));
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let store = MemRunStore::new((0u64..5000).collect(), 500);
        let cfg = config(500, 50);
        let sketch = ShardedOpaq::new(cfg, 1)
            .unwrap()
            .build_sketch(&store)
            .unwrap();
        assert_eq!(sketch, sequential(&store, cfg));
    }

    #[test]
    fn estimates_from_sharded_sketch_enclose_truth() {
        let data: Vec<u64> = (0..20_000).map(|i| (i * 48271) % 65_537).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let store = MemRunStore::new(data, 2000);
        let sketch = ShardedOpaq::new(config(2000, 200), 5)
            .unwrap()
            .build_sketch(&store)
            .unwrap();
        for i in 1..10u64 {
            let est = sketch.estimate(i as f64 / 10.0).unwrap();
            let truth = sorted[(est.target_rank - 1) as usize];
            assert!(est.lower <= truth && truth <= est.upper);
        }
    }

    #[test]
    fn run_buffers_recycle_across_the_ingest() {
        // 40 runs over 4 workers with depth 2: at most
        // workers + depth + 1 = 7 buffers can be in flight before
        // recycling kicks in, so most of the 40 reads must be reuses.
        let data: Vec<u64> = (0..40_000).map(|i| (i * 48271) % 9973).collect();
        let store = MemRunStore::new(data, 1000);
        let cfg = config(1000, 100);
        let (_, report) = ShardedOpaq::new(cfg, 4)
            .unwrap()
            .build_sketch_with_report(&store)
            .unwrap();
        assert_eq!(report.io.buffer_allocs + report.io.buffer_reuses, 40);
        assert!(
            report.io.buffer_allocs <= 7,
            "allocs: {}",
            report.io.buffer_allocs
        );
    }

    #[test]
    fn traced_build_records_ingest_and_merge_spans() {
        use opaq_metrics::trace::{SpanRecorder, TraceId, ROOT_SPAN_ID};
        let store = MemRunStore::new((0u64..10_000).collect(), 1000);
        let cfg = config(1000, 100);
        let recorder = std::sync::Arc::new(SpanRecorder::new(64));
        let sink = TraceSink::new(std::sync::Arc::clone(&recorder), TraceId::mint());
        let (sketch, report) = ShardedOpaq::new(cfg, 4)
            .unwrap()
            .build_sketch_traced(&store, &sink, ROOT_SPAN_ID)
            .unwrap();
        assert_eq!(sketch, sequential(&store, cfg));
        let spans = recorder.trace(sink.trace());
        let ingest = spans.iter().filter(|s| s.stage == Stage::Ingest).count();
        assert_eq!(ingest, report.shards.len(), "one ingest span per shard");
        assert_eq!(spans.iter().filter(|s| s.stage == Stage::Merge).count(), 1);
        assert!(spans.iter().all(|s| s.parent == ROOT_SPAN_ID));
        assert!(spans.iter().all(|s| s.tag == SpanTag::Untagged));
    }

    #[test]
    fn zero_threads_rejected() {
        assert!(matches!(
            ShardedOpaq::new(config(100, 10), 0),
            Err(OpaqError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_store_errors() {
        let store = MemRunStore::<u64>::new(vec![], 10);
        let sharded = ShardedOpaq::new(config(100, 10), 4).unwrap();
        assert!(matches!(
            sharded.build_sketch(&store),
            Err(OpaqError::EmptyDataset)
        ));
    }

    #[test]
    fn prefetch_depth_is_clamped_and_preserves_identity() {
        let store = MemRunStore::new((0u64..9000).collect(), 900);
        let cfg = config(900, 90);
        let reference = sequential(&store, cfg);
        for depth in [0, 1, 7] {
            let sketch = ShardedOpaq::new(cfg, 3)
                .unwrap()
                .with_prefetch_depth(depth)
                .build_sketch(&store)
                .unwrap();
            assert_eq!(sketch, reference, "depth {depth}");
        }
    }

    /// How a [`FaultyStore`] spoils its chosen run.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        /// The read of the run fails with a storage error.
        ReadError,
        /// The read succeeds but yields no keys, so sampling fails.
        EmptyRun,
    }

    /// A [`MemRunStore`] whose run `bad` is spoilt by `fault`.
    struct FaultyStore {
        inner: MemRunStore<u64>,
        bad: u64,
        fault: Fault,
    }

    impl RunStore<u64> for FaultyStore {
        fn layout(&self) -> RunLayout {
            self.inner.layout()
        }

        fn read_run(&self, run: u64) -> opaq_storage::StorageResult<Vec<u64>> {
            match (run == self.bad, self.fault) {
                (true, Fault::ReadError) => Err(StorageError::Corrupt(format!("run {run}"))),
                (true, Fault::EmptyRun) => Ok(Vec::new()),
                (false, _) => self.inner.read_run(run),
            }
        }

        fn io_stats(&self) -> &IoStats {
            self.inner.io_stats()
        }
    }

    #[test]
    fn a_failing_run_errors_instead_of_hanging() {
        let data: Vec<u64> = (0..24_000).map(|i| (i * 48271) % 7919).collect();
        let cfg = config(1000, 50);
        for fault in [Fault::ReadError, Fault::EmptyRun] {
            for threads in 1..=4 {
                for bad in [0, 1, 11, 23] {
                    let store = FaultyStore {
                        inner: MemRunStore::new(data.clone(), 1000),
                        bad,
                        fault,
                    };
                    let sharded = ShardedOpaq::new(cfg, threads)
                        .unwrap()
                        .with_prefetch_depth(1);
                    // Watchdog: a hung ingest fails the test instead of the
                    // whole suite.
                    let (tx, rx) = mpsc::channel();
                    std::thread::spawn(move || {
                        let _ = tx.send(sharded.build_sketch(&store));
                    });
                    let result = rx
                        .recv_timeout(Duration::from_secs(20))
                        .unwrap_or_else(|_| {
                            panic!("{fault:?} at run {bad} with {threads} threads hung")
                        });
                    match (fault, result) {
                        (Fault::ReadError, Err(OpaqError::Storage(_)))
                        | (Fault::EmptyRun, Err(OpaqError::EmptyDataset)) => {}
                        (fault, other) => {
                            panic!("{fault:?} at run {bad} with {threads} threads: {other:?}")
                        }
                    }
                }
            }
        }
    }
}

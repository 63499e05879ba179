//! The ingest pass seen from outside: a timing [`RunStore`] wrapper and a
//! sequential pass that calls `storage`, `select` and `core` directly.

use crate::spans::{Tracer, ROOT};
use opaq_core::{OpaqConfig, QuantileSketch, RunSampler};
use opaq_storage::{IoStats, RunLayout, RunStore, StorageResult};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// When a [`TimedStore`] was read and when it was dropped.
#[derive(Debug, Default)]
pub struct StoreClock {
    reads: Mutex<Vec<(Instant, Instant)>>,
    dropped: Mutex<Option<Instant>>,
}

impl StoreClock {
    /// `(start, end)` of every run read so far.
    pub fn reads(&self) -> Vec<(Instant, Instant)> {
        self.reads
            .lock()
            .expect("a store reader panicked while recording")
            .clone()
    }

    /// When the store was dropped — for a store handed to a sketch build, the
    /// moment the build finished with it.
    pub fn dropped(&self) -> Option<Instant> {
        *self
            .dropped
            .lock()
            .expect("a store reader panicked while recording")
    }
}

/// A run store that records the start and end of every run read.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: Arc<S>,
    clock: Arc<StoreClock>,
}

impl<S> TimedStore<S> {
    /// Wrap `inner`; the returned clock outlives the wrapper.
    pub fn new(inner: Arc<S>) -> (Self, Arc<StoreClock>) {
        let clock = Arc::new(StoreClock::default());
        (
            Self {
                inner,
                clock: Arc::clone(&clock),
            },
            clock,
        )
    }
}

impl<S: RunStore<u64>> RunStore<u64> for TimedStore<S> {
    fn layout(&self) -> RunLayout {
        self.inner.layout()
    }

    fn read_run(&self, run: u64) -> StorageResult<Vec<u64>> {
        let start = Instant::now();
        let out = self.inner.read_run(run);
        self.note(start);
        out
    }

    fn read_run_into(&self, run: u64, buf: &mut Vec<u64>) -> StorageResult<()> {
        let start = Instant::now();
        let out = self.inner.read_run_into(run, buf);
        self.note(start);
        out
    }

    fn io_stats(&self) -> &IoStats {
        self.inner.io_stats()
    }
}

impl<S> TimedStore<S> {
    fn note(&self, start: Instant) {
        let end = Instant::now();
        self.clock
            .reads
            .lock()
            .expect("a store reader panicked while recording")
            .push((start, end));
    }
}

impl<S> Drop for TimedStore<S> {
    fn drop(&mut self) {
        if let Ok(mut dropped) = self.clock.dropped.lock() {
            *dropped = Some(Instant::now());
        }
    }
}

/// One sequential OPAQ pass over `store`: read each run
/// (`RunStore::read_run_into`, one recycled buffer), take its regular
/// samples (`RunSampler::sample`), merge them
/// (`QuantileSketch::from_run_samples`).  With a tracer, each call is a
/// span under one root span per pass, and the root's id is `op`.
///
/// # Errors
/// The first storage or core error, as text.
pub fn sequential_pass<S: RunStore<u64>>(
    store: &S,
    config: &OpaqConfig,
    mut trace: Option<(&mut Tracer, u64)>,
) -> Result<QuantileSketch<u64>, String> {
    let root = trace.as_mut().map(|(tracer, _)| tracer.open());
    let parent = root.map_or(ROOT, |open| open.id());
    let mut sampler =
        RunSampler::new(config.sample_size, config.strategy).map_err(|e| e.to_string())?;
    let runs = store.layout().runs();
    let mut buf = Vec::new();
    let mut samples = Vec::with_capacity(usize::try_from(runs).unwrap_or(0));
    for run in 0..runs {
        let read = match trace.as_mut() {
            Some((tracer, op)) => tracer.time(*op, parent, "storage", "read_run_into", || {
                store.read_run_into(run, &mut buf)
            }),
            None => store.read_run_into(run, &mut buf),
        };
        read.map_err(|e| e.to_string())?;
        let sample = match trace.as_mut() {
            Some((tracer, op)) => {
                tracer.time(*op, parent, "select", "sample", || sampler.sample(&mut buf))
            }
            None => sampler.sample(&mut buf),
        };
        samples.push(sample.map_err(|e| e.to_string())?);
    }
    let sketch = match trace.as_mut() {
        Some((tracer, op)) => tracer.time(*op, parent, "core", "from_run_samples", || {
            QuantileSketch::from_run_samples(samples)
        }),
        None => QuantileSketch::from_run_samples(samples),
    };
    if let (Some((tracer, op)), Some(open)) = (trace, root) {
        tracer.close(open, op, ROOT, "e2e", "pass");
    }
    sketch.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanLog;
    use opaq_parallel::ShardedOpaq;
    use opaq_storage::MemRunStore;

    #[test]
    fn sequential_pass_is_bit_identical_to_sharded_ingest() {
        let data: Vec<u64> = (0..50_000u64)
            .map(|i| (i * 2_654_435_761) % 999_983)
            .collect();
        let config = OpaqConfig::builder()
            .run_length(5_000)
            .sample_size(100)
            .build()
            .unwrap();
        let store = Arc::new(MemRunStore::new(data, 5_000));
        let (timed, clock) = TimedStore::new(Arc::clone(&store));
        let sharded = ShardedOpaq::new(config, 3)
            .unwrap()
            .build_sketch(&timed)
            .unwrap();
        drop(timed);
        assert_eq!(clock.reads().len(), 10);
        assert!(clock.dropped().is_some());

        let mut tracer = Tracer::new(Instant::now());
        let traced = sequential_pass(&*store, &config, Some((&mut tracer, 1))).unwrap();
        assert_eq!(traced, sharded);
        let mut log = SpanLog::default();
        log.absorb(tracer);
        assert_eq!(log.durations("storage", "read_run_into").len(), 10);
        assert_eq!(log.durations("select", "sample").len(), 10);
        assert_eq!(log.durations("e2e", "pass").len(), 1);
        assert_eq!(sequential_pass(&*store, &config, None).unwrap(), sharded);
    }
}

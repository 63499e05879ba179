//! Double-buffered read-ahead over a [`RunStore`].
//!
//! OPAQ's sample phase alternates between reading a run (I/O-bound) and
//! multi-selecting its regular samples (CPU-bound).  Issued sequentially the
//! two costs add; with a read-ahead thread they overlap, which is exactly the
//! trick the paper's SP-2 implementation used ("the I/O time can be almost
//! completely overlapped with the computation").  The reader thread buffers
//! at most `depth` runs in the channel — `depth = 2` is classic double
//! buffering — so peak memory is bounded by `(depth + 2) · m` keys (`depth`
//! buffered, plus one held by a reader blocked on a full channel, plus one
//! being processed by the consumer), preserving the paper's `r·s + m ≤ M`
//! memory discipline up to the small constant.
//!
//! `opaq-parallel`'s `ShardedOpaq` does not go through this module: its
//! calling thread reads runs into a shared [`BufferPool`] and feeds its
//! workers' queue directly, so no extra forwarding thread sits between the
//! store and the samplers.
//!
//! ## Buffer recycling
//!
//! The reader thread draws its run buffers from a [`BufferPool`] and fills
//! them via [`RunStore::read_run_into`], so a consumer that returns each
//! buffer to the pool after processing ([`for_each_run_prefetched_pooled`])
//! keeps the whole pipeline running on the same `depth + 1` buffers — zero
//! per-run allocation in steady state.  The plain
//! [`for_each_run_prefetched`] hands the buffers to the consumer for keeps
//! (its callback takes ownership), matching the original semantics.

use crate::{RunStore, StorageResult};
use parking_lot::Mutex;
use std::sync::mpsc::sync_channel;

/// Classic double buffering: one run buffered while another is in flight.
pub const DEFAULT_PREFETCH_DEPTH: usize = 2;

/// A trivial free-list of run buffers shared between a reader and its
/// consumers.
///
/// `get` pops a recycled buffer (or hands out a fresh empty one) and `put`
/// clears and returns a buffer to the pool.  Locking happens once per run —
/// noise next to the run read itself.  Whether a pooled buffer actually
/// avoided an allocation is recorded by the store's
/// [`crate::IoStats`] buffer counters when the reader fills it.
#[derive(Debug)]
pub struct BufferPool<K> {
    bufs: Mutex<Vec<Vec<K>>>,
}

impl<K> Default for BufferPool<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> BufferPool<K> {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self {
            bufs: Mutex::new(Vec::new()),
        }
    }

    /// Take a buffer from the pool, or a fresh empty one if none is waiting.
    pub fn get(&self) -> Vec<K> {
        self.bufs.lock().pop().unwrap_or_default()
    }

    /// Clear `buf` and return it to the pool for the next [`BufferPool::get`].
    pub fn put(&self, mut buf: Vec<K>) {
        buf.clear();
        self.bufs.lock().push(buf);
    }

    /// How many buffers are currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.bufs.lock().len()
    }
}

/// Visit every run of `store` in order, reading up to `depth` runs ahead on
/// a background thread (`depth` is clamped to at least 1).
///
/// Runs are delivered to `f` strictly in layout order with exactly the bytes
/// [`RunStore::read_run`] would return; only the wall-clock overlap between
/// the read of run `i + 1` and the processing of run `i` distinguishes this
/// from [`RunStore::for_each_run`].
///
/// # Errors
/// The first [`crate::StorageError`] hit by the reader thread is returned
/// once every earlier run has been delivered; no later runs are read.
pub fn for_each_run_prefetched<K, S, F>(store: &S, depth: usize, f: F) -> StorageResult<()>
where
    K: Send,
    S: RunStore<K>,
    F: FnMut(u64, Vec<K>),
{
    // A local pool that is never refilled (the callback keeps the buffers):
    // the reader draws fresh buffers every run, exactly as before.
    let pool = BufferPool::new();
    for_each_run_prefetched_pooled(store, depth, &pool, f)
}

/// [`for_each_run_prefetched`] drawing run buffers from `pool`.
///
/// The reader thread takes an empty buffer from the pool for every run and
/// fills it with [`RunStore::read_run_into`]; a consumer that calls
/// [`BufferPool::put`] when it is done with a run closes the recycling loop,
/// making the steady-state read path allocation-free.  Consumers are free
/// *not* to return a buffer (e.g. to keep the data) — the pool simply hands
/// out a fresh one next time.
///
/// # Errors
/// Identical to [`for_each_run_prefetched`].
pub fn for_each_run_prefetched_pooled<K, S, F>(
    store: &S,
    depth: usize,
    pool: &BufferPool<K>,
    mut f: F,
) -> StorageResult<()>
where
    K: Send,
    S: RunStore<K>,
    F: FnMut(u64, Vec<K>),
{
    let runs = store.layout().runs();
    if runs == 0 {
        return Ok(());
    }
    let depth = depth.max(1);
    std::thread::scope(|scope| {
        let (tx, rx) = sync_channel::<StorageResult<(u64, Vec<K>)>>(depth);
        scope.spawn(move || {
            for run in 0..runs {
                let mut buf = pool.get();
                let item = store.read_run_into(run, &mut buf).map(|()| (run, buf));
                let stop = item.is_err();
                // A send error means the consumer bailed out early; either
                // way there is nothing useful left to read.
                if tx.send(item).is_err() || stop {
                    return;
                }
            }
        });
        for item in rx {
            let (run, data) = item?;
            f(run, data);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemRunStore, StorageError};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn delivers_every_run_in_order() {
        let data: Vec<u64> = (0..10_000).collect();
        let store = MemRunStore::new(data.clone(), 1024);
        let mut reassembled = Vec::new();
        let mut last_run = None;
        for_each_run_prefetched(&store, DEFAULT_PREFETCH_DEPTH, |run, chunk| {
            assert_eq!(run, last_run.map_or(0, |r: u64| r + 1), "strictly in order");
            last_run = Some(run);
            reassembled.extend(chunk);
        })
        .unwrap();
        assert_eq!(reassembled, data);
        assert_eq!(store.io_stats().snapshot().read_calls, 10);
    }

    #[test]
    fn matches_sequential_for_tail_runs_and_any_depth() {
        let data: Vec<u64> = (0..1037).map(|i| i * 7 % 97).collect();
        for depth in [0usize, 1, 2, 8] {
            let store = MemRunStore::new(data.clone(), 100);
            let mut sequential = Vec::new();
            store.for_each_run(|_, run| sequential.push(run)).unwrap();
            let mut prefetched = Vec::new();
            store
                .for_each_run_prefetched(depth, |_, run| prefetched.push(run))
                .unwrap();
            assert_eq!(sequential, prefetched, "depth {depth}");
        }
    }

    #[test]
    fn empty_store_is_a_no_op() {
        let store = MemRunStore::<u64>::new(vec![], 16);
        let mut calls = 0u64;
        for_each_run_prefetched(&store, 2, |_, _| calls += 1).unwrap();
        assert_eq!(calls, 0);
    }

    #[test]
    fn pooled_prefetch_recycles_buffers() {
        let data: Vec<u64> = (0..10_000).collect();
        let store = MemRunStore::new(data.clone(), 1000);
        let pool = BufferPool::new();
        let mut reassembled = Vec::new();
        for_each_run_prefetched_pooled(&store, 2, &pool, |_, chunk| {
            reassembled.extend_from_slice(&chunk);
            pool.put(chunk);
        })
        .unwrap();
        assert_eq!(reassembled, data);
        let s = store.io_stats().snapshot();
        assert_eq!(s.buffer_allocs + s.buffer_reuses, 10);
        // At most depth(2) buffered + 1 held by a blocked reader + 1 with the
        // consumer can be in flight before recycling kicks in, so at least
        // 6 of the 10 reads ride recycled capacity.
        assert!(s.buffer_allocs <= 4, "allocs: {}", s.buffer_allocs);
        assert!(pool.idle() >= 1);
    }

    #[test]
    fn pool_get_put_round_trip() {
        let pool: BufferPool<u32> = BufferPool::default();
        assert_eq!(pool.idle(), 0);
        let mut buf = pool.get();
        assert!(buf.is_empty());
        buf.extend_from_slice(&[1, 2, 3]);
        pool.put(buf);
        assert_eq!(pool.idle(), 1);
        let back = pool.get();
        assert!(back.is_empty(), "put clears the buffer");
        assert!(back.capacity() >= 3, "capacity survives the round trip");
    }

    /// A store whose reads fail after a few runs: the error must surface
    /// after the successful prefix was delivered, and the reader must stop.
    struct FailingStore {
        inner: MemRunStore<u64>,
        fail_from: u64,
        reads: AtomicU64,
    }

    impl RunStore<u64> for FailingStore {
        fn layout(&self) -> crate::RunLayout {
            self.inner.layout()
        }

        fn read_run(&self, run: u64) -> StorageResult<Vec<u64>> {
            self.reads.fetch_add(1, Ordering::SeqCst);
            if run >= self.fail_from {
                return Err(StorageError::Corrupt(format!("injected failure at {run}")));
            }
            self.inner.read_run(run)
        }

        fn io_stats(&self) -> &crate::IoStats {
            self.inner.io_stats()
        }
    }

    #[test]
    fn reader_error_propagates_after_successful_prefix() {
        let store = FailingStore {
            inner: MemRunStore::new((0u64..1000).collect(), 100),
            fail_from: 4,
            reads: AtomicU64::new(0),
        };
        let mut delivered = Vec::new();
        let err = for_each_run_prefetched(&store, 2, |run, _| delivered.push(run)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        assert_eq!(delivered, vec![0, 1, 2, 3]);
        // The reader stops at the failure instead of hammering the store.
        assert_eq!(store.reads.load(Ordering::SeqCst), 5);
    }
}

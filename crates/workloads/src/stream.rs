//! Generate-while-simulate: background trace generation as a block stream.
//!
//! [`TraceStream`] runs one producer thread per workload thread, each
//! emitting its kernel's records through a bounded
//! [`block_channel`](stacksim_trace::block_channel), and interleaves the
//! per-thread streams on the consumer side with exactly the round-robin
//! merge [`interleave`](stacksim_trace::interleave) performs on whole
//! traces. Concatenating the yielded blocks therefore reproduces
//! [`RmsBenchmark::generate`](crate::RmsBenchmark::generate) bit for bit —
//! the channels carry *data*, never *ordering*, so timing and buffering
//! cannot change the merged trace (see `DESIGN.md` §14).
//!
//! Before any producer starts, each kernel runs once into a
//! [`CountingSink`], which stores nothing: the stream then knows its exact
//! length and deepest per-thread dependency edge, so a replay can place
//! its warm-up boundary and size its dependency windows up front.

use std::collections::VecDeque;
use std::thread::JoinHandle;

use stacksim_trace::{block_channel, BlockReceiver, CpuId, PackedRecord, RecordBlock};
use stacksim_trace::{CountingSink, RecordSink, StreamBuilder};

use crate::params::WorkloadParams;
use crate::rms::RmsBenchmark;

/// Blocks buffered per producer channel before the producer blocks.
const CHANNEL_BLOCKS: usize = 8;

/// Largest block a producer sends through its channel. Consumer blocks
/// may be longer (a replay window); capping the producer side keeps the
/// channels' memory independent of the consumer's block length.
const MAX_CHANNEL_BLOCK: usize = 4096;

/// A live generate-while-simulate pipeline: per-thread producer threads
/// plus the consumer-side round-robin interleaver, exposed as an iterator
/// of fixed-size [`RecordBlock`]s (the final block may be shorter).
///
/// Dropping the stream early hangs up the channels, which lets the
/// producers wind down instead of blocking forever.
#[derive(Debug)]
pub struct TraceStream {
    threads: Vec<ThreadState>,
    handles: Vec<JoinHandle<()>>,
    block_len: usize,
    chunk: usize,
    /// Length and deepest edge, counted before generation began.
    counted: Counted,
    /// Threads whose producer has hung up and whose buffer is drained.
    exhausted: usize,
    /// Thread the round-robin is currently drawing from.
    cur_thread: usize,
    /// Records taken from `cur_thread` in its current chunk.
    taken_in_chunk: usize,
    /// Records merged so far (the next record's merged position).
    merged: u64,
}

/// What a counting pass learns about a benchmark's trace before it is
/// generated for real.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counted {
    /// Records in the merged trace.
    len: usize,
    /// Deepest dependency edge within any one thread, in own records.
    max_thread_dep: usize,
}

impl Counted {
    /// Runs each thread's kernel into a [`CountingSink`], one scoped
    /// thread per workload thread, propagating any kernel panic.
    ///
    /// # Panics
    ///
    /// Panics if the merged trace would reach [`u32::MAX`] records.
    fn of(bench: RmsBenchmark, params: WorkloadParams) -> Counted {
        let counts: Vec<CountingSink> = std::thread::scope(|s| {
            let counting: Vec<_> = (0..params.threads)
                .map(|tid| s.spawn(move || bench.emit_thread(CountingSink::new(), &params, tid)))
                .collect();
            counting
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let len: usize = counts.iter().map(RecordSink::len).sum();
        assert!(
            len < u32::MAX as usize,
            "merged trace would exceed the packed dependency-offset range"
        );
        Counted {
            len,
            max_thread_dep: counts
                .iter()
                .map(|c| c.max_dep_offset() as usize)
                .max()
                .unwrap_or(0),
        }
    }

    /// The merged dependency bound of [`TraceStream::dep_window`] for this
    /// count interleaved from `threads` threads in `chunk`-record visits.
    fn dep_window(&self, threads: usize, chunk: usize) -> usize {
        threads * (self.max_thread_dep + 2 * chunk)
    }
}

/// Consumer-side state of one producer thread.
#[derive(Debug)]
struct ThreadState {
    rx: BlockReceiver,
    /// Received records not yet consumed.
    buf: VecDeque<PackedRecord>,
    /// The producer has hung up and `buf` is drained.
    exhausted: bool,
    /// Records consumed from this thread (the next record's own position).
    src: u64,
    /// Merged positions of this thread's most recent own records, indexed
    /// by own position masked to the map's power-of-two length — at least
    /// the thread's deepest dependency edge, so every producer an edge
    /// can name is still here.
    map: Vec<u64>,
}

impl ThreadState {
    /// Takes the thread's next record, waiting on the channel if a block
    /// is still in flight. `None` once the producer is done.
    fn pop(&mut self) -> Option<PackedRecord> {
        if self.exhausted {
            return None;
        }
        while self.buf.is_empty() {
            match self.rx.recv() {
                Some(block) => self.buf.extend(block),
                None => {
                    self.exhausted = true;
                    return None;
                }
            }
        }
        self.buf.pop_front()
    }
}

impl TraceStream {
    /// Starts generating `bench` with `params.threads` producer threads and
    /// returns the merged stream in blocks of `block_len` records. Each
    /// kernel first runs once into a [`CountingSink`] (in parallel, one
    /// scoped thread per workload thread) so [`len`](Self::len) and
    /// [`dep_window`](Self::dep_window) are exact before the first block.
    ///
    /// # Panics
    ///
    /// Panics if `params.threads` is zero (or above 256), `params.chunk`
    /// is zero, `block_len` is zero, or the merged trace would reach
    /// [`u32::MAX`] records (beyond the packed dependency-offset range).
    pub fn spawn(bench: RmsBenchmark, params: WorkloadParams, block_len: usize) -> TraceStream {
        assert!(params.threads > 0, "need at least one thread");
        assert!(params.threads <= 256, "at most 256 threads supported");
        assert!(params.chunk > 0, "interleave chunk must be positive");
        assert!(block_len > 0, "stream block length must be positive");
        let counted = Counted::of(bench, params);
        let map_len = counted.max_thread_dep.max(1).next_power_of_two();
        let channel_block = block_len.min(MAX_CHANNEL_BLOCK);
        let mut threads = Vec::with_capacity(params.threads);
        let mut handles = Vec::with_capacity(params.threads);
        for tid in 0..params.threads {
            let (tx, rx) = block_channel(CHANNEL_BLOCKS);
            let spawned = std::thread::Builder::new()
                .name(format!("stacksim-gen-{}-{tid}", bench.name()))
                .spawn(move || {
                    bench
                        .emit_thread(StreamBuilder::new(tx, channel_block), &params, tid)
                        .finish();
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => panic!("cannot spawn a trace producer thread: {e}"),
            }
            threads.push(ThreadState {
                rx,
                buf: VecDeque::new(),
                exhausted: false,
                src: 0,
                map: vec![0; map_len],
            });
        }
        TraceStream {
            threads,
            handles,
            block_len,
            chunk: params.chunk,
            counted,
            exhausted: 0,
            cur_thread: 0,
            taken_in_chunk: 0,
            merged: 0,
        }
    }

    /// Record count of the blocks this stream yields (the final block may
    /// be shorter).
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Total records the stream yields — exact, known before the first
    /// block, equal to the length of the batch-generated trace.
    pub fn len(&self) -> usize {
        self.counted.len
    }

    /// Whether the stream yields no records at all.
    pub fn is_empty(&self) -> bool {
        self.counted.len == 0
    }

    /// An upper bound on the merged backward dependency distance: within
    /// one thread an edge spans at most the deepest counted edge of own
    /// records, and while those drain every other thread interposes at
    /// most the same span plus two partial chunks. Suitable as the
    /// `dep_window` argument of the engine's replay.
    pub fn dep_window(&self) -> usize {
        self.counted.dep_window(self.threads.len(), self.chunk)
    }

    /// Takes the next record in merged order, replicating the round-robin
    /// of [`interleave`](stacksim_trace::interleave): `chunk` records per
    /// thread visit, threads in index order, exhausted threads skipped.
    fn next_record(&mut self) -> Option<PackedRecord> {
        loop {
            if self.exhausted == self.threads.len() {
                self.join_producers();
                return None;
            }
            if self.taken_in_chunk < self.chunk {
                let ti = self.cur_thread;
                let st = &mut self.threads[ti];
                let was_exhausted = st.exhausted;
                if let Some(p) = st.pop() {
                    self.taken_in_chunk += 1;
                    return Some(self.remap(ti, p));
                }
                if !was_exhausted {
                    self.exhausted += 1;
                }
            }
            self.cur_thread = (self.cur_thread + 1) % self.threads.len();
            self.taken_in_chunk = 0;
        }
    }

    /// Re-labels one record with its thread's cpu id and rewrites its
    /// dependency offset from thread-local to merged positions — the
    /// per-record body of the batch merge loop.
    fn remap(&mut self, ti: usize, p: PackedRecord) -> PackedRecord {
        let st = &mut self.threads[ti];
        let mask = st.map.len() - 1;
        let dep_offset = if p.has_dep() {
            let d = p.dep_offset() as u64;
            assert!(
                d <= self.counted.max_thread_dep as u64,
                "dependency distance {d} exceeds the counted deepest edge"
            );
            let producer = st.map[((st.src - d) as usize) & mask];
            let dist = self.merged - producer;
            assert!(
                dist <= u64::from(u32::MAX),
                "merged dependency distance {dist} exceeds the packed-record range"
            );
            dist as u32
        } else {
            0
        };
        st.map[(st.src as usize) & mask] = self.merged;
        st.src += 1;
        self.merged += 1;
        PackedRecord::new(CpuId::new(ti as u8), p.op(), p.addr, p.ip, dep_offset)
    }

    /// Joins finished producers, propagating any kernel panic.
    fn join_producers(&mut self) {
        for h in self.handles.drain(..) {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Iterator for TraceStream {
    type Item = RecordBlock;

    fn next(&mut self) -> Option<RecordBlock> {
        let remaining = self.counted.len.saturating_sub(self.merged as usize);
        let mut out = Vec::with_capacity(self.block_len.min(remaining));
        while out.len() < self.block_len {
            match self.next_record() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}

impl Drop for TraceStream {
    fn drop(&mut self) {
        // hang up the channels first so blocked producers bail out
        self.threads.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_trace::Trace;

    #[test]
    fn streamed_blocks_concatenate_to_the_batch_trace() {
        let p = WorkloadParams::test();
        let batch = RmsBenchmark::SMvm.generate(&p);
        for block_len in [1usize, 64, 4096] {
            let stream = RmsBenchmark::SMvm.stream(&p, block_len);
            let mut packed = Vec::new();
            for block in stream {
                assert!(block.len() <= block_len);
                packed.extend(block);
            }
            assert_eq!(
                Trace::from_packed(packed),
                batch,
                "block_len {block_len} must reproduce the batch trace"
            );
        }
    }

    #[test]
    fn streaming_matches_batch_for_every_benchmark() {
        let p = WorkloadParams::test();
        for b in RmsBenchmark::all() {
            let batch = b.generate(&p);
            let packed: Vec<PackedRecord> = b.stream(&p, 1024).flatten().collect();
            assert_eq!(Trace::from_packed(packed), batch, "{b}");
        }
    }

    #[test]
    fn streaming_matches_batch_at_other_thread_counts() {
        for threads in [1usize, 4] {
            let p = WorkloadParams::builder()
                .scale(crate::Scale::Test)
                .threads(threads)
                .build();
            let batch = RmsBenchmark::Gauss.generate(&p);
            let packed: Vec<PackedRecord> = RmsBenchmark::Gauss.stream(&p, 256).flatten().collect();
            assert_eq!(Trace::from_packed(packed), batch, "threads {threads}");
        }
    }

    #[test]
    fn early_drop_does_not_hang_the_producers() {
        let p = WorkloadParams::test();
        let mut stream = RmsBenchmark::Pcg.stream(&p, 64);
        let first = stream.next();
        assert!(first.is_some());
        drop(stream); // must hang up and join without deadlocking
    }

    #[test]
    fn dep_window_bounds_every_merged_edge() {
        let p = WorkloadParams::test();
        for b in RmsBenchmark::all() {
            let stream = b.stream(&p, 512);
            let window = stream.dep_window() as u64;
            let mut pos = 0u64;
            for block in stream {
                for r in block {
                    assert!(u64::from(r.dep_offset()) <= window, "{b} at {pos}");
                    pos += 1;
                }
            }
        }
    }

    #[test]
    fn counted_length_matches_the_batch_trace() {
        let p = WorkloadParams::test();
        for b in RmsBenchmark::all() {
            let batch = b.generate(&p);
            let stream = b.stream(&p, 4096);
            assert_eq!(stream.len(), batch.len(), "{b}");
            assert!(!stream.is_empty(), "{b}");
            assert!(
                stream.dep_window() >= batch.max_dep_offset() as usize,
                "{b}: the counted bound must cover the deepest merged edge"
            );
            assert_eq!(stream.flatten().count(), batch.len(), "{b}");
        }
    }

    #[test]
    fn counted_bound_stays_small_at_paper_scale() {
        // Counting only — nothing is stored, so paper scale stays cheap.
        // The bound sizes the replay's completion ring and the position
        // maps; it must track the deepest kernel edge (svd's reduction
        // tree is the deepest, ~9.6k merged records), not the trace length.
        let p = WorkloadParams::paper();
        for b in RmsBenchmark::all() {
            let counted = Counted::of(b, p);
            let bound = counted.dep_window(p.threads, p.chunk);
            assert!(counted.len > 1_000_000, "{b}: {} records", counted.len);
            assert!(bound <= 1 << 14, "{b}: dependency bound {bound}");
        }
    }
}

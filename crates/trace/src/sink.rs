//! Record sinks: where kernels emit their reference streams.
//!
//! Workload kernels are written against the [`RecordSink`] trait, so the
//! same kernel body can either accumulate a whole in-memory [`Trace`]
//! (batch mode, via [`TraceBuilder`]) or push fixed-size packed blocks
//! through a bounded channel while the simulator is already consuming them
//! (streaming mode, via [`StreamBuilder`]). Both sinks assign the same
//! dense ids and pack the same offsets, so a kernel produces bit-identical
//! records through either. A [`CountingSink`] stores nothing: it measures
//! a kernel's length and deepest dependency edge ahead of a streamed run.

use crate::builder::TraceBuilder;
use crate::chan::BlockSender;
use crate::packed::PackedRecord;
use crate::record::{Addr, CpuId, MemOp, RecordId};

/// A destination for an ordered stream of dependency-annotated records.
///
/// Ids are dense in emission order; implementations must return the id the
/// record received so kernels can chain dependencies off it.
pub trait RecordSink {
    /// Appends a record with an optional dependency and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `dep` does not point strictly backwards.
    fn record_dep(
        &mut self,
        cpu: CpuId,
        op: MemOp,
        addr: Addr,
        ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId;

    /// Number of records emitted so far.
    fn len(&self) -> usize;

    /// Whether nothing has been emitted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RecordSink for TraceBuilder {
    fn record_dep(
        &mut self,
        cpu: CpuId,
        op: MemOp,
        addr: Addr,
        ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId {
        TraceBuilder::record_dep(self, cpu, op, addr, ip, dep)
    }

    fn len(&self) -> usize {
        TraceBuilder::len(self)
    }
}

/// Checks that `dep` points strictly before `id` and returns the packed
/// backward offset (0 for no dependency) — the one rule every sink shares.
pub(crate) fn dep_offset(id: RecordId, dep: Option<RecordId>) -> u32 {
    match dep {
        None => 0,
        Some(d) => {
            assert!(
                d < id,
                "dependency {d} of record {id} must point to an earlier record"
            );
            let dist = id.raw() - d.raw();
            assert!(
                dist <= u64::from(u32::MAX),
                "dependency distance {dist} exceeds the packed-record range"
            );
            dist as u32
        }
    }
}

/// A sink that stores nothing and only measures the stream: its length and
/// its deepest dependency edge. Running a kernel into it first lets a
/// streamed replay know the trace length (and so the warm-up boundary) and
/// size its dependency windows before any record is simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    emitted: u64,
    max_dep: u32,
}

impl CountingSink {
    /// An empty count.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Largest backward dependency offset seen (0 if no record has one).
    pub fn max_dep_offset(&self) -> u32 {
        self.max_dep
    }
}

impl RecordSink for CountingSink {
    fn record_dep(
        &mut self,
        _cpu: CpuId,
        _op: MemOp,
        _addr: Addr,
        _ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId {
        let id = RecordId::new(self.emitted);
        self.max_dep = self.max_dep.max(dep_offset(id, dep));
        self.emitted += 1;
        id
    }

    fn len(&self) -> usize {
        self.emitted as usize
    }
}

/// A sink that packs records into fixed-size blocks and pushes each full
/// block through a bounded [`block_channel`](crate::block_channel).
///
/// The records that flow through are identical to what a [`TraceBuilder`]
/// would store — same dense ids, same packed offsets — only the batching
/// differs, which is why a streamed run can be proven bit-identical to a
/// batch run.
#[derive(Debug)]
pub struct StreamBuilder {
    tx: BlockSender,
    block: Vec<PackedRecord>,
    block_len: usize,
    emitted: u64,
    /// Set once the receiver hangs up; later blocks are dropped cheaply.
    hung_up: bool,
}

impl StreamBuilder {
    /// Creates a sink that emits blocks of `block_len` records into `tx`.
    ///
    /// # Panics
    ///
    /// Panics if `block_len` is zero.
    pub fn new(tx: BlockSender, block_len: usize) -> Self {
        assert!(block_len > 0, "stream block length must be positive");
        StreamBuilder {
            tx,
            block: Vec::with_capacity(block_len),
            block_len,
            emitted: 0,
            hung_up: false,
        }
    }

    /// Id the next record will receive.
    pub fn next_id(&self) -> RecordId {
        RecordId::new(self.emitted)
    }

    /// Sends the current block, replacing it with a fresh `block_len`
    /// buffer unless this is the final flush.
    fn flush(&mut self, last: bool) {
        if self.block.is_empty() || self.hung_up {
            self.block.clear();
            return;
        }
        let next = if last {
            Vec::new()
        } else {
            Vec::with_capacity(self.block_len)
        };
        let block = std::mem::replace(&mut self.block, next);
        if !self.tx.send(block) {
            self.hung_up = true;
        }
    }

    /// Flushes the final partial block and closes the channel (the drop of
    /// the sender is the end-of-stream signal).
    pub fn finish(mut self) {
        self.flush(true);
    }
}

impl RecordSink for StreamBuilder {
    fn record_dep(
        &mut self,
        cpu: CpuId,
        op: MemOp,
        addr: Addr,
        ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId {
        let id = RecordId::new(self.emitted);
        self.block
            .push(PackedRecord::new(cpu, op, addr, ip, dep_offset(id, dep)));
        self.emitted += 1;
        if self.block.len() == self.block_len {
            self.flush(false);
        }
        id
    }

    fn len(&self) -> usize {
        self.emitted as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_channel;
    use crate::stream::Trace;

    fn emit<S: RecordSink>(sink: &mut S, n: u64) {
        let mut prev = None;
        for i in 0..n {
            prev = Some(sink.record_dep(CpuId::new(0), MemOp::Load, i * 64, 0x400, prev));
        }
    }

    #[test]
    fn stream_builder_matches_trace_builder_bit_for_bit() {
        let mut b = TraceBuilder::new();
        emit(&mut b, 1000);
        let batch = b.build();

        for block_len in [1usize, 7, 64, 4096] {
            let (tx, rx) = block_channel(4);
            let handle = std::thread::spawn(move || {
                let mut s = StreamBuilder::new(tx, block_len);
                emit(&mut s, 1000);
                s.finish();
            });
            let mut packed = Vec::new();
            while let Some(block) = rx.recv() {
                assert!(block.len() <= block_len);
                packed.extend(block);
            }
            handle.join().unwrap();
            assert_eq!(Trace::from_packed(packed), batch, "block_len {block_len}");
        }
    }

    #[test]
    fn counting_sink_measures_length_and_deepest_edge() {
        let mut c = CountingSink::new();
        assert!(c.is_empty());
        let a = c.record_dep(CpuId::new(0), MemOp::Load, 0, 0, None);
        for _ in 0..9 {
            c.record_dep(CpuId::new(0), MemOp::Load, 64, 0, None);
        }
        c.record_dep(CpuId::new(0), MemOp::Store, 128, 0, Some(a));
        emit(&mut c, 5); // a chain of distance-1 edges
        assert_eq!(c.len(), 16);
        assert_eq!(c.max_dep_offset(), 10);
    }

    #[test]
    #[should_panic(expected = "earlier record")]
    fn counting_sink_rejects_forward_dependencies() {
        let mut c = CountingSink::new();
        c.record_dep(CpuId::new(0), MemOp::Load, 0, 0, Some(RecordId::new(0)));
    }

    #[test]
    fn partial_final_block_is_flushed_by_finish() {
        let (tx, rx) = block_channel(4);
        let mut s = StreamBuilder::new(tx, 64);
        emit(&mut s, 10);
        s.finish();
        let block = rx.recv().unwrap();
        assert_eq!(block.len(), 10);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn hung_up_receiver_does_not_block_the_producer() {
        let (tx, rx) = block_channel(1);
        drop(rx);
        let mut s = StreamBuilder::new(tx, 4);
        emit(&mut s, 1000); // would deadlock without hangup detection
        assert_eq!(s.len(), 1000);
        s.finish();
    }
}

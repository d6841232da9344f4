//! Incremental construction of valid traces.

use crate::packed::PackedRecord;
use crate::record::{Addr, CpuId, MemOp, RecordId};
use crate::sink::dep_offset;
use crate::stream::Trace;

/// Builds a [`Trace`] while enforcing the id and dependency invariants.
///
/// Ids are assigned densely in insertion order. Dependencies are checked at
/// insertion time, so the resulting trace always passes
/// [`Trace::validate`]. Records are packed into the trace's fixed-width
/// storage as they are added — [`build`](TraceBuilder::build) is free.
///
/// # Example
///
/// ```
/// use stacksim_trace::{TraceBuilder, CpuId, MemOp};
///
/// let mut b = TraceBuilder::new();
/// let idx = b.record(CpuId::new(0), MemOp::Load, 0x8000, 0x400);
/// let val = b.record_dep(CpuId::new(0), MemOp::Load, 0xA000, 0x404, Some(idx));
/// b.record_dep(CpuId::new(0), MemOp::Store, 0xC000, 0x408, Some(val));
/// assert_eq!(b.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Creates a builder with pre-allocated capacity for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        TraceBuilder {
            trace: Trace::with_capacity(n),
        }
    }

    /// Number of records added so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether no records have been added.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Id the next added record will receive.
    pub fn next_id(&self) -> RecordId {
        RecordId::new(self.trace.len() as u64)
    }

    /// Appends an independent record and returns its id.
    pub fn record(&mut self, cpu: CpuId, op: MemOp, addr: Addr, ip: Addr) -> RecordId {
        self.record_dep(cpu, op, addr, ip, None)
    }

    /// Appends a record with an optional dependency and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `dep` refers to a record that has not been added yet —
    /// dependencies must point strictly backwards — or if the dependency
    /// distance exceeds the packed-record range ([`u32::MAX`]).
    pub fn record_dep(
        &mut self,
        cpu: CpuId,
        op: MemOp,
        addr: Addr,
        ip: Addr,
        dep: Option<RecordId>,
    ) -> RecordId {
        let id = self.next_id();
        self.trace
            .push(PackedRecord::new(cpu, op, addr, ip, dep_offset(id, dep)));
        id
    }

    /// Id of the most recently added record, if any. Convenient for chaining
    /// serially dependent accesses.
    pub fn last_id(&self) -> Option<RecordId> {
        self.trace
            .len()
            .checked_sub(1)
            .map(|i| RecordId::new(i as u64))
    }

    /// Finishes the builder, producing a validated [`Trace`].
    pub fn build(self) -> Trace {
        debug_assert!(self.trace.validate().is_ok());
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense() {
        let mut b = TraceBuilder::with_capacity(4);
        for i in 0..4u64 {
            let id = b.record(CpuId::new(0), MemOp::Load, i * 64, 0);
            assert_eq!(id.raw(), i);
        }
        assert_eq!(b.next_id().raw(), 4);
        let t = b.build();
        assert!(t.validate().is_ok());
    }

    #[test]
    fn last_id_tracks_insertions() {
        let mut b = TraceBuilder::new();
        assert_eq!(b.last_id(), None);
        let a = b.record(CpuId::new(0), MemOp::Load, 0, 0);
        assert_eq!(b.last_id(), Some(a));
    }

    #[test]
    #[should_panic(expected = "earlier record")]
    fn forward_dep_panics() {
        let mut b = TraceBuilder::new();
        b.record_dep(CpuId::new(0), MemOp::Load, 0, 0, Some(RecordId::new(5)));
    }

    #[test]
    #[should_panic(expected = "earlier record")]
    fn self_dep_panics() {
        let mut b = TraceBuilder::new();
        b.record_dep(CpuId::new(0), MemOp::Load, 0, 0, Some(RecordId::new(0)));
    }
}

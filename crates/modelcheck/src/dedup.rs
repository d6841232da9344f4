//! Interleaving model of the serve session's dedup-slot state machine.
//!
//! In `stacksim_core::harness::session`, `submit()` holds the scheduler
//! mutex while it checks the in-flight table and, on a miss, creates a
//! slot and queues it — check and insert are one critical section. The
//! scheduler thread drains the queue, runs the batch, and completes
//! each slot exactly once in `finish_slot`, which drops the slot's
//! in-flight entry (and its admission count) under the same session
//! lock before it marks the slot done and wakes its waiters. The model
//! folds that release and the completion into one scheduler step;
//! waiters block on the slot until it leaves the queued/running states. [`DedupModel`] models that machine with
//! two submitters racing on the same digest plus the scheduler, and
//! asserts the experiment executes exactly once and every waiter
//! resolves. The `atomic_submit: false` variant splits the check and
//! the insert into two steps — dropping the lock between them — and the
//! test suite proves the explorer catches the duplicate execution that
//! allows.

use crate::explore::{Model, Step};

/// Lifecycle of one dedup slot, mirroring `SlotState` in session.rs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SlotState {
    Queued,
    Running,
    Done,
}

/// A submitter thread: look up or create the slot, then wait on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SubmitterPc {
    /// Atomic mode: check the in-flight table and insert in one step.
    /// Split mode: just the check, remembering the miss.
    Lookup,
    /// Split mode only: insert the slot checked as missing earlier.
    Insert,
    /// Block until the attached slot is `Done`.
    Wait,
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Submitter {
    pc: SubmitterPc,
    /// Index into `slots` once attached.
    slot: Option<usize>,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DedupState {
    /// Slot the in-flight table maps the (single, shared) digest to.
    inflight: Option<usize>,
    slots: Vec<SlotState>,
    /// Slot indices awaiting the scheduler.
    pending: Vec<usize>,
    /// Times the scheduler actually executed the experiment.
    executions: u8,
    submitters: [Submitter; 2],
    scheduler_done: bool,
}

/// Two submitters racing on one digest, one scheduler thread.
pub struct DedupModel {
    /// When false, the check-then-insert in `submit()` is modelled as
    /// two separate steps (the bug the session lock prevents).
    pub atomic_submit: bool,
}

const SCHEDULER: usize = 2;

impl Model for DedupModel {
    type State = DedupState;

    fn name(&self) -> &'static str {
        "session dedup slots"
    }

    fn threads(&self) -> usize {
        3
    }

    fn init(&self) -> Self::State {
        DedupState {
            inflight: None,
            slots: Vec::new(),
            pending: Vec::new(),
            executions: 0,
            submitters: [Submitter {
                pc: SubmitterPc::Lookup,
                slot: None,
            }; 2],
            scheduler_done: false,
        }
    }

    fn step(&self, st: &mut Self::State, tid: usize) -> Step {
        if tid == SCHEDULER {
            return self.scheduler_step(st);
        }
        let sub = st.submitters[tid];
        match sub.pc {
            SubmitterPc::Lookup => {
                if let Some(slot) = st.inflight {
                    // Dedup hit: attach to the existing slot.
                    st.submitters[tid] = Submitter {
                        pc: SubmitterPc::Wait,
                        slot: Some(slot),
                    };
                } else if self.atomic_submit {
                    let slot = create_slot(st);
                    st.submitters[tid] = Submitter {
                        pc: SubmitterPc::Wait,
                        slot: Some(slot),
                    };
                } else {
                    // Buggy split: the miss is observed now, the insert
                    // happens in a later step with the lock dropped.
                    st.submitters[tid].pc = SubmitterPc::Insert;
                }
                Step::Ran
            }
            SubmitterPc::Insert => {
                let slot = create_slot(st);
                st.submitters[tid] = Submitter {
                    pc: SubmitterPc::Wait,
                    slot: Some(slot),
                };
                Step::Ran
            }
            SubmitterPc::Wait => {
                let Some(slot) = sub.slot else {
                    // Unreachable by construction: Wait is only entered
                    // with a slot attached. Treat as blocked, not panic.
                    return Step::Blocked;
                };
                if st.slots[slot] == SlotState::Done {
                    st.submitters[tid].pc = SubmitterPc::Finished;
                    Step::Ran
                } else {
                    Step::Blocked
                }
            }
            SubmitterPc::Finished => Step::Done,
        }
    }

    fn invariant(&self, st: &Self::State) -> Result<(), String> {
        if self.atomic_submit && st.executions > 1 {
            return Err(format!(
                "same digest executed {} times despite dedup",
                st.executions
            ));
        }
        Ok(())
    }

    fn on_final(&self, st: &Self::State) -> Result<(), String> {
        if st.executions != 1 {
            return Err(format!(
                "expected exactly 1 execution, got {}",
                st.executions
            ));
        }
        for (i, sub) in st.submitters.iter().enumerate() {
            if sub.pc != SubmitterPc::Finished {
                return Err(format!("submitter {i} never resolved"));
            }
        }
        Ok(())
    }
}

impl DedupModel {
    /// One scheduler-loop iteration: drain the queue and complete one
    /// slot (batch-of-one keeps the state space small; dedup is decided
    /// at submit time, not batch time).
    ///
    /// The scheduler waits for both submitters to finish submitting
    /// before it starts the batch — mirroring `scheduler_loop`, which
    /// snapshots the pending queue into one batch. Keeping the batch
    /// after the submission window makes the checked property exactly
    /// "concurrent same-digest submits execute once": a re-submit
    /// *after* completion is a legitimate new execution (the digest has
    /// left the in-flight table) and is out of scope here.
    fn scheduler_step(&self, st: &mut DedupState) -> Step {
        if st.scheduler_done {
            return Step::Done;
        }
        if !st
            .submitters
            .iter()
            .all(|s| matches!(s.pc, SubmitterPc::Wait | SubmitterPc::Finished))
        {
            return Step::Blocked;
        }
        if let Some(slot) = st.pending.first().copied() {
            st.pending.remove(0);
            st.slots[slot] = SlotState::Running;
            st.executions += 1;
            st.slots[slot] = SlotState::Done;
            // Completion removes the digest from the in-flight table
            // (`finish_slot` releases it before waking any waiter).
            if st.inflight == Some(slot) {
                st.inflight = None;
            }
            Step::Ran
        } else {
            // All submissions are in and nothing is queued: the session
            // is drained and the scheduler can park.
            st.scheduler_done = true;
            Step::Ran
        }
    }
}

/// `submit()` miss path: new slot, queued and registered in-flight.
fn create_slot(st: &mut DedupState) -> usize {
    let slot = st.slots.len();
    st.slots.push(SlotState::Queued);
    st.pending.push(slot);
    st.inflight = Some(slot);
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    #[test]
    fn locked_submit_executes_once() {
        let stats = explore(&DedupModel {
            atomic_submit: true,
        })
        .expect("clean");
        assert!(stats.terminals >= 1);
    }

    #[test]
    fn split_check_then_insert_double_executes() {
        // Both submitters observe the miss before either inserts; each
        // then queues its own slot and the experiment runs twice. This
        // is the race the session mutex exists to prevent.
        let err = explore(&DedupModel {
            atomic_submit: false,
        })
        .unwrap_err();
        assert!(err.contains("execution"), "{err}");
    }
}

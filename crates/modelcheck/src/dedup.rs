//! Interleaving model of the serve session's dedup-slot state machine.
//!
//! In `stacksim_core::harness::session`, `submit()` holds the scheduler
//! mutex while it checks the in-flight table and, on a miss, creates a
//! slot and queues it — check and insert are one critical section. The
//! scheduler thread drains the queue into one batch and hands it to the
//! executor, whose workers complete each slot exactly once through the
//! `on_finish` hook as soon as that slot's experiment finishes:
//! `finish_slot` drops the slot's in-flight entry (and its admission
//! count) under the same session lock before it marks the slot done and
//! wakes its waiters. The model folds that release and the completion
//! into one step. The batch's last slot is the exception: its hook only
//! parks it, and the scheduler finishes it after recording the batch
//! outcome, so a caller that waited on every handle of the batch and
//! then drains always sees the batch.
//!
//! [`DedupModel`] models that machine with two submitters racing on one
//! digest, a third on another digest (so a batch holds two slots that
//! finish in either order), the scheduler, and one executor worker per
//! batch position. It asserts each digest executes exactly once, every
//! waiter resolves, and no batch has all its slots done before its
//! outcome is recorded. Two variants are negative controls the test
//! suite proves the explorer catches: `atomic_submit: false` splits the
//! check and the insert into two steps, dropping the lock between them
//! (a duplicate execution), and `defer_last: false` finishes the last
//! slot from the worker like the others (a drain that misses the
//! batch).

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

/// Where the scheduler is in its one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SchedulerPc {
    /// Waiting for the submissions, then taking the queue as a batch.
    Collect,
    /// The executor runs; `Batch::run` returns once every hook has.
    Running,
    /// The outcome is recorded; the parked last slot still finishes.
    Recorded,
    Finished,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DedupState {
    /// Slot the in-flight table maps each digest to.
    inflight: [Option<usize>; 2],
    /// Each slot's digest and lifecycle state.
    slots: Vec<(usize, SlotState)>,
    /// Slot indices awaiting the scheduler.
    pending: Vec<usize>,
    /// The slots the scheduler took as its batch, in queue order.
    batch: Vec<usize>,
    /// Batch slots whose hook has not run yet (`run_batch`'s counter).
    unfinished: usize,
    /// The last slot, parked by its hook for the scheduler to finish.
    parked: Option<usize>,
    /// Whether the batch's `RunOutcome` is in the drainable list.
    outcome_recorded: bool,
    /// Times each digest's experiment actually executed.
    executions: [u8; 2],
    submitters: [Submitter; 3],
    scheduler: SchedulerPc,
}

/// Three submitters (two racing on digest 0, one on digest 1), one
/// scheduler thread, one executor worker per batch position.
pub struct DedupModel {
    /// When false, the check-then-insert in `submit()` is modelled as
    /// two separate steps (the bug the session lock prevents).
    pub atomic_submit: bool,
    /// When false, the batch's last slot finishes from its worker like
    /// every other slot, before the outcome is recorded (the bug the
    /// parked last slot prevents).
    pub defer_last: bool,
}

/// Digest each submitter asks for.
const DIGEST_OF: [usize; 3] = [0, 0, 1];
const SUBMITTERS: usize = DIGEST_OF.len();
const SCHEDULER: usize = SUBMITTERS;
/// Workers follow the scheduler; worker `k` runs batch position `k`.
const FIRST_WORKER: usize = SCHEDULER + 1;

impl DedupModel {
    /// The shipped protocol: locked submit, parked last slot.
    pub fn correct() -> Self {
        DedupModel {
            atomic_submit: true,
            defer_last: true,
        }
    }
}

impl Model for DedupModel {
    type State = DedupState;

    fn name(&self) -> &'static str {
        "session dedup slots"
    }

    fn threads(&self) -> usize {
        // a split submit can queue one slot per submitter
        FIRST_WORKER + SUBMITTERS
    }

    fn init(&self) -> Self::State {
        DedupState {
            inflight: [None; 2],
            slots: Vec::new(),
            pending: Vec::new(),
            batch: Vec::new(),
            unfinished: 0,
            parked: None,
            outcome_recorded: false,
            executions: [0; 2],
            submitters: [Submitter {
                pc: SubmitterPc::Lookup,
                slot: None,
            }; SUBMITTERS],
            scheduler: SchedulerPc::Collect,
        }
    }

    fn step(&self, st: &mut Self::State, tid: usize) -> Step {
        if tid == SCHEDULER {
            return self.scheduler_step(st);
        }
        if tid >= FIRST_WORKER {
            return self.worker_step(st, tid - FIRST_WORKER);
        }
        let sub = st.submitters[tid];
        let digest = DIGEST_OF[tid];
        match sub.pc {
            SubmitterPc::Lookup => {
                if let Some(slot) = st.inflight[digest] {
                    // Dedup hit: attach to the existing slot.
                    st.submitters[tid] = Submitter {
                        pc: SubmitterPc::Wait,
                        slot: Some(slot),
                    };
                } else if self.atomic_submit {
                    let slot = create_slot(st, digest);
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
                let slot = create_slot(st, digest);
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
                if st.slots[slot].1 == SlotState::Done {
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
        if self.atomic_submit && st.executions.iter().any(|&n| n > 1) {
            return Err(format!(
                "same digest executed {:?} times despite dedup",
                st.executions
            ));
        }
        let all_done = st
            .batch
            .iter()
            .all(|&slot| st.slots[slot].1 == SlotState::Done);
        if !st.batch.is_empty() && all_done && !st.outcome_recorded {
            return Err(
                "every handle of the batch resolved before its outcome was recorded".to_string(),
            );
        }
        Ok(())
    }

    fn on_final(&self, st: &Self::State) -> Result<(), String> {
        if st.executions != [1, 1] {
            return Err(format!(
                "expected exactly 1 execution per digest, got {:?}",
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
    /// The scheduler's one batch. It waits for every submitter to finish
    /// submitting before it takes the queue — mirroring `scheduler_loop`,
    /// which snapshots the pending queue into one batch. Keeping the
    /// batch after the submission window makes the checked dedup
    /// property exactly "concurrent same-digest submits execute once": a
    /// re-submit *after* completion is a legitimate new execution (the
    /// digest has left the in-flight table) and is out of scope here.
    fn scheduler_step(&self, st: &mut DedupState) -> Step {
        match st.scheduler {
            SchedulerPc::Collect => {
                let submitted = st
                    .submitters
                    .iter()
                    .all(|s| matches!(s.pc, SubmitterPc::Wait | SubmitterPc::Finished));
                if !submitted {
                    return Step::Blocked;
                }
                st.batch = std::mem::take(&mut st.pending);
                for &slot in &st.batch {
                    st.slots[slot].1 = SlotState::Running;
                    st.executions[st.slots[slot].0] += 1;
                }
                st.unfinished = st.batch.len();
                st.scheduler = SchedulerPc::Running;
                Step::Ran
            }
            SchedulerPc::Running => {
                if st.unfinished > 0 {
                    return Step::Blocked;
                }
                st.outcome_recorded = true;
                st.scheduler = SchedulerPc::Recorded;
                Step::Ran
            }
            SchedulerPc::Recorded => {
                if let Some(slot) = st.parked.take() {
                    finish_slot(st, slot);
                }
                st.scheduler = SchedulerPc::Finished;
                Step::Ran
            }
            SchedulerPc::Finished => Step::Done,
        }
    }

    /// Worker `k`'s `on_finish` hook for batch position `k`: count the
    /// slot off, then finish it — or park it when it is the last.
    fn worker_step(&self, st: &mut DedupState, k: usize) -> Step {
        if st.scheduler == SchedulerPc::Collect {
            return Step::Blocked;
        }
        let Some(&slot) = st.batch.get(k) else {
            return Step::Done;
        };
        if st.slots[slot].1 != SlotState::Running || st.parked == Some(slot) {
            return Step::Done;
        }
        st.unfinished -= 1;
        if st.unfinished == 0 && self.defer_last {
            st.parked = Some(slot);
        } else {
            finish_slot(st, slot);
        }
        Step::Ran
    }
}

/// `submit()` miss path: new slot, queued and registered in-flight.
fn create_slot(st: &mut DedupState, digest: usize) -> usize {
    let slot = st.slots.len();
    st.slots.push((digest, SlotState::Queued));
    st.pending.push(slot);
    st.inflight[digest] = Some(slot);
    slot
}

/// `finish_slot`: release the in-flight entry, then mark the slot done
/// (which wakes its waiters).
fn finish_slot(st: &mut DedupState, slot: usize) {
    let digest = st.slots[slot].0;
    if st.inflight[digest] == Some(slot) {
        st.inflight[digest] = None;
    }
    st.slots[slot].1 = SlotState::Done;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    #[test]
    fn locked_submit_executes_once() {
        let stats = explore(&DedupModel::correct()).expect("clean");
        assert!(stats.terminals >= 1);
    }

    #[test]
    fn split_check_then_insert_double_executes() {
        // Both submitters observe the miss before either inserts; each
        // then queues its own slot and the experiment runs twice. This
        // is the race the session mutex exists to prevent.
        let err = explore(&DedupModel {
            atomic_submit: false,
            defer_last: true,
        })
        .unwrap_err();
        assert!(err.contains("execution"), "{err}");
    }

    #[test]
    fn finishing_the_last_slot_early_loses_the_drain() {
        // With every slot finished from its worker, both handles can
        // resolve while the batch outcome is not recorded yet: a caller
        // that waited on both and drains finds nothing.
        let err = explore(&DedupModel {
            atomic_submit: true,
            defer_last: false,
        })
        .unwrap_err();
        assert!(err.contains("before its outcome was recorded"), "{err}");
    }
}

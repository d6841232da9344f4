//! Integration: the `Sim` session facade — request deduplication,
//! parameterised variants, warm-cache serving and graceful shutdown —
//! spanning `stacksim-core`'s session, executor and cache layers.

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use stacksim::core::harness::json::Json;
use stacksim::core::harness::{Ctx, Digest, Experiment, ParamSensitivity, RequestJournal};
use stacksim::core::memory_logic::run_benchmark_instrumented;
use stacksim::core::prelude::*;
use stacksim::workloads::RmsBenchmark;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-session-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// N identical in-flight requests coalesce onto one slot: same id, one
/// execution, one artifact — the solver ran exactly once.
#[test]
fn identical_inflight_requests_run_exactly_once() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .build();
    let request = ExperimentRequest::new("fig5:gauss");
    let handles: Vec<_> = (0..5).map(|_| sim.submit(&request).unwrap()).collect();

    // all five share the first submission's slot
    for h in &handles {
        assert_eq!(h.id(), handles[0].id());
        assert_eq!(h.digest(), handles[0].digest());
        assert_eq!(h.status(), RequestStatus::Queued);
    }
    let stats = sim.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.dedup_hits, 4, "four submissions deduplicated");
    assert_eq!(stats.inflight, 1, "one slot of real work");

    sim.resume();
    let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    for o in &outcomes {
        assert!(o.is_ok(), "{:?}", o.report.error);
        // every handle sees the *same* outcome object, not a re-run
        assert!(std::sync::Arc::ptr_eq(o, &outcomes[0]));
    }
    assert_eq!(outcomes[0].report.attempts, 1, "one clean execution");
    // exactly one batch ran, containing exactly one experiment
    let batches = sim.drain_outcomes();
    assert_eq!(batches.len(), 1);
    assert_eq!(batches[0].report.entries.len(), 1);
    assert_eq!(sim.stats().completed, 1);
}

/// A request is counted as completed before its handle wakes, so the
/// caller returning from `wait()` always sees its own request in
/// `stats()`. Repeated because a late count only shows up when the
/// waiter outruns the scheduler thread.
#[test]
fn completed_counts_a_request_before_its_waiter_wakes() {
    let sim = Sim::builder().params(WorkloadParams::test()).build();
    for seed in 0..30u64 {
        let outcome = sim
            .submit(&ExperimentRequest::new("fig5:gauss").seed(seed))
            .unwrap()
            .wait();
        assert!(outcome.is_ok(), "{:?}", outcome.report.error);
        assert_eq!(sim.stats().completed, seed + 1, "after request {seed}");
    }
}

/// With room for one request, a client that submits its next request
/// right after `wait()` returns is never shed: a finished request gives
/// back its admission slot before its waiters wake. Repeated because a
/// late release only shows up when the waiter outruns the scheduler.
#[test]
fn a_finished_request_frees_its_admission_slot_before_waking() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .max_pending(1)
        .build();
    for seed in 0..30u64 {
        let handle = sim
            .submit(&ExperimentRequest::new("fig5:gauss").seed(seed))
            .unwrap_or_else(|e| panic!("round {seed} was shed: {e}"));
        let outcome = handle.wait();
        assert!(outcome.is_ok(), "{:?}", outcome.report.error);
    }
}

/// Parameterised variants are first-class: an override folds into the
/// digest, so variants neither deduplicate nor share cache entries.
#[test]
fn parameter_overrides_split_the_digest() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .build();
    let base = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    let variant = sim
        .submit(&ExperimentRequest::new("fig5:gauss").seed(0xdead_beef))
        .unwrap();
    assert_ne!(base.id(), variant.id(), "a variant is not a duplicate");
    assert_ne!(
        base.digest(),
        variant.digest(),
        "seed is part of the digest"
    );
    assert_eq!(sim.stats().dedup_hits, 0);

    // resubmitting the same variant *does* deduplicate
    let again = sim
        .submit(&ExperimentRequest::new("fig5:gauss").seed(0xdead_beef))
        .unwrap();
    assert_eq!(again.id(), variant.id());
    assert_eq!(sim.stats().dedup_hits, 1);

    sim.resume();
    let (b, v) = (base.wait(), variant.wait());
    assert!(b.is_ok() && v.is_ok());
    // distinct digests mean distinct executions: neither came from the
    // other's work (no cache is configured here)
    assert!(!b.report.cached && !v.report.cached);
    assert_eq!(b.report.attempts, 1);
    assert_eq!(v.report.attempts, 1);
    // two parameter groups → two batches
    assert_eq!(sim.drain_outcomes().len(), 2);
}

/// A second submission after the first completed is *not* a dedup hit —
/// it is served from the session's warm cache with zero solver work.
#[test]
fn completed_request_resubmission_hits_the_cache() {
    let dir = scratch_dir("warm");
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .cache(MemoCache::builder().dir(&dir).shards(4).build())
        .build();
    let first = sim.submit(&ExperimentRequest::new("fig8")).unwrap().wait();
    assert!(first.is_ok(), "{:?}", first.report.error);
    assert!(!first.report.cached, "cold cache actually runs");
    assert!(first.report.telemetry.solver.iterations > 0);

    let second = sim.submit(&ExperimentRequest::new("fig8")).unwrap().wait();
    assert!(second.report.cached, "the warm cache serves the re-run");
    assert_eq!(
        second.report.telemetry.solver.iterations, 0,
        "a cache hit does zero CG iterations"
    );
    assert_eq!(first.report.digest, second.report.digest);
    // bit-identical artifact through the cache round-trip
    assert_eq!(
        first.artifact.as_ref().unwrap().encode(),
        second.artifact.as_ref().unwrap().encode()
    );
    assert_eq!(sim.stats().dedup_hits, 0, "not a dedup: the first finished");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The embedded `Sim` path produces byte-for-byte the artifact the study
/// function produces when called directly, bypassing the harness — the
/// session's scheduling does not perturb results.
#[test]
fn sim_artifact_matches_the_study_function_bit_for_bit() {
    let params = WorkloadParams::test();
    let (row, _) = run_benchmark_instrumented(RmsBenchmark::Conj, &params).unwrap();
    let direct = Artifact::Fig5Row(row);

    let sim = Sim::builder().params(params).build();
    let outcome = sim
        .submit(&ExperimentRequest::new("fig5:conj"))
        .unwrap()
        .wait();
    let via_sim = outcome.artifact.as_ref().unwrap();
    assert_eq!(direct.encode(), via_sim.encode());
}

/// Shutdown drains: requests submitted before (even to a paused session)
/// still complete, and later submissions are refused.
#[test]
fn shutdown_drains_submitted_work() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .build();
    let handle = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    assert_eq!(handle.status(), RequestStatus::Queued);
    // never resumed: shutdown itself must release and finish the queue
    sim.shutdown();
    let outcome = handle.try_outcome().expect("drained on shutdown");
    assert!(outcome.is_ok(), "{:?}", outcome.report.error);
    assert!(sim.submit(&ExperimentRequest::new("fig3")).is_err());
}

/// Structural failures surface per-request: an unknown experiment is
/// refused at submit time with a typed error.
#[test]
fn unknown_experiment_is_refused_at_submit() {
    let sim = Sim::builder().params(WorkloadParams::test()).build();
    let err = sim.submit(&ExperimentRequest::new("fig99")).unwrap_err();
    assert_eq!(err.kind(), "unknown-experiment");
    // invalid overrides are refused too
    let err = sim
        .submit(&ExperimentRequest::new("fig3").threads(0))
        .unwrap_err();
    assert!(err.to_string().contains("thread count"), "{err}");
}

/// Admission control: past `max_pending` queued+running requests, new
/// distinct submissions are shed with a typed `overloaded` error — but
/// duplicates of in-flight work still coalesce (a dedup costs nothing),
/// and completions release slots for shed callers to retry into.
#[test]
fn admission_bound_sheds_and_releases() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .max_pending(2)
        .build();
    let first = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    let second = sim.submit(&ExperimentRequest::new("fig5:pcg")).unwrap();
    // at the bound: a distinct third submission is shed...
    let err = sim
        .submit(&ExperimentRequest::new("fig5:conj"))
        .unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    assert!(err.to_string().contains("limit of 2"), "{err}");
    // ...but a duplicate of in-flight work is still admitted
    let dup = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    assert_eq!(dup.id(), first.id());

    // completion releases slots: the shed request is admitted on retry
    sim.resume();
    first.wait();
    second.wait();
    assert_eq!(sim.stats().inflight, 0, "both slots released on completion");
    let retried = sim.submit(&ExperimentRequest::new("fig5:conj")).unwrap();
    assert!(retried.wait().is_ok());
}

/// A request's `deadline_ms` tightens the resilience policy for its own
/// batch: recovery stops at the request's deadline instead of spending
/// the retry budget, and the deadline is part of the dedup key.
#[test]
fn request_deadline_bounds_recovery() {
    use stacksim::faults::{Fault, FaultPlan, FaultRule};
    let plan = FaultPlan {
        seed: 7,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "fig5:gauss",
            Fault::IoTransient,
        )],
    };
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .fault_plan(plan)
        .resilience(Resilience {
            backoff_ms: 1,
            ..Resilience::default()
        })
        .start_paused(true)
        .build();
    let doomed = sim
        .submit(
            &ExperimentRequest::new("fig5:gauss")
                .faults(true)
                .deadline_ms(1),
        )
        .unwrap();
    let relaxed = sim
        .submit(
            &ExperimentRequest::new("fig5:gauss")
                .faults(true)
                .deadline_ms(60_000),
        )
        .unwrap();
    assert_ne!(doomed.id(), relaxed.id(), "deadline splits the dedup key");

    sim.resume();
    let d = doomed.wait();
    assert!(!d.is_ok());
    // the 1 ms deadline trips as soon as a failed attempt lands past it
    assert_eq!(d.report.error_kind.as_deref(), Some("deadline"));
    assert!(
        d.report.attempts <= 2,
        "the deadline pre-empts the full retry budget (attempts={})",
        d.report.attempts
    );
    // a roomy deadline never fires: the always-on fault exhausts the
    // retry budget instead and surfaces as the transient error it is
    let r = relaxed.wait();
    assert!(!r.is_ok());
    assert_eq!(r.report.error_kind.as_deref(), Some("io"));
    assert!(r.report.attempts > 1, "the retry budget was spent");
}

/// `wait_timeout` is a bounded wait: `None` while the work cannot
/// finish, the outcome once it does — the serve long-poll building
/// block.
#[test]
fn wait_timeout_is_bounded() {
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .start_paused(true)
        .build();
    let handle = sim.submit(&ExperimentRequest::new("fig5:gauss")).unwrap();
    assert!(
        handle
            .wait_timeout(std::time::Duration::from_millis(30))
            .is_none(),
        "paused work cannot finish inside the timeout"
    );
    sim.resume();
    let outcome = handle
        .wait_timeout(Duration::from_secs(60))
        .expect("resumed work finishes");
    assert!(outcome.is_ok(), "{:?}", outcome.report.error);
}

/// A fault-injected panic inside the executor's dispatch neither wedges
/// the scheduler nor leaks into clean work: every queued handle
/// resolves, the doomed request reports `worker-panic` after its full
/// retry budget, the clean twin of the same experiment succeeds, and
/// the session keeps serving afterwards.
#[test]
fn injected_dispatch_panic_resolves_every_handle() {
    use stacksim::faults::{Fault, FaultPlan, FaultRule};
    let plan = FaultPlan {
        seed: 11,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "fig5:sMVM",
            Fault::Panic,
        )],
    };
    let sim = Sim::builder()
        .params(WorkloadParams::test())
        .fault_plan(plan)
        .resilience(Resilience {
            backoff_ms: 1,
            ..Resilience::default()
        })
        .start_paused(true)
        .build();
    let doomed = sim
        .submit(&ExperimentRequest::new("fig5:sMVM").faults(true))
        .unwrap();
    let clean = sim.submit(&ExperimentRequest::new("fig5:sMVM")).unwrap();
    assert_ne!(
        doomed.id(),
        clean.id(),
        "fault opt-in never dedups against clean"
    );
    let other = sim.submit(&ExperimentRequest::new("fig5:pcg")).unwrap();

    sim.resume();
    let d = doomed.wait();
    let c = clean.wait();
    let o = other.wait();
    assert!(!d.is_ok(), "the injected panic fails the request");
    assert_eq!(d.report.error_kind.as_deref(), Some("worker-panic"));
    assert!(d.report.attempts > 1, "the retry budget was spent");
    assert!(c.is_ok(), "clean twin unaffected: {:?}", c.report.error);
    assert!(
        o.is_ok(),
        "unrelated request unaffected: {:?}",
        o.report.error
    );

    // the scheduler thread survived the panicking batch: the session
    // still accepts and completes new work
    let after = sim
        .submit(&ExperimentRequest::new("fig5:pcg"))
        .unwrap()
        .wait();
    assert!(after.is_ok(), "{:?}", after.report.error);
    // a slot releases its admission count before its waiters wake
    assert_eq!(sim.stats().inflight, 0, "nothing left queued or running");
}

/// A latch a [`Gated`] experiment blocks on until the test opens it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    /// Blocks until opened, or for at most a minute so a failing test
    /// cannot hang the suite.
    fn wait(&self) {
        let open = self.open.lock().unwrap();
        let _ = self
            .opened
            .wait_timeout_while(open, Duration::from_secs(60), |open| !*open)
            .unwrap();
    }
}

/// A trivial experiment that finishes at once, fails at once when
/// `fail` is set, or holds its worker until `gate` opens.
struct Gated {
    name: &'static str,
    deps: &'static [&'static str],
    fail: bool,
    gate: Option<Arc<Gate>>,
}

impl Experiment for Gated {
    fn name(&self) -> &str {
        self.name
    }

    fn deps(&self) -> Vec<String> {
        self.deps.iter().map(|d| d.to_string()).collect()
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        Digest::new().str(self.name).hex()
    }

    fn run(&self, _ctx: &Ctx) -> Result<Artifact, Error> {
        if let Some(gate) = &self.gate {
            gate.wait();
        }
        if self.fail {
            return Err(Error::Solve(stacksim::thermal::SolveError::EmptyStack));
        }
        Ok(Artifact::Table5(Vec::new()))
    }
}

/// How long a test waits for a request that must resolve while its
/// batch is still held open (generous: a loaded host is slow, not stuck).
const EARLY: Duration = Duration::from_secs(30);

/// A paused two-worker session over `fast` (finishes at once), `slow`
/// (held by the returned gate), `root` (fails at once) and `dependent`
/// (needs `root`), registered in that order.
fn gated_session(journal: Option<RequestJournal>) -> (Sim, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let mut registry = Registry::new();
    for (name, deps, fail, gated) in [
        ("fast", &[][..], false, false),
        ("slow", &[][..], false, true),
        ("root", &[][..], true, false),
        ("dependent", &["root"][..], false, false),
    ] {
        registry.add(Arc::new(Gated {
            name,
            deps,
            fail,
            gate: gated.then(|| gate.clone()),
        }));
    }
    let sim = Sim::builder()
        .registry(registry)
        .jobs(2)
        .journal(journal.map(Arc::new))
        .start_paused(true)
        .build();
    (sim, gate)
}

/// A request resolves when its own experiment finishes, not when its
/// batch does: the fast handle is done while the slow one, in the same
/// batch, is still running.
#[test]
fn a_request_resolves_while_its_batch_is_still_running() {
    let (sim, gate) = gated_session(None);
    let slow = sim.submit(&ExperimentRequest::new("slow")).unwrap();
    let fast = sim.submit(&ExperimentRequest::new("fast")).unwrap();
    sim.resume();
    let early = fast.wait_timeout(EARLY);
    let slow_then = slow.status();
    gate.open();
    assert!(early.is_some_and(|o| o.is_ok()), "fast waited for slow");
    assert_eq!(slow_then, RequestStatus::Running);
    assert!(slow.wait().is_ok());
}

/// A dependent skipped because its dependency failed resolves when the
/// dependency fails, not when the rest of the batch finishes.
#[test]
fn a_skipped_dependent_resolves_when_its_dependency_fails() {
    let (sim, gate) = gated_session(None);
    let slow = sim.submit(&ExperimentRequest::new("slow")).unwrap();
    let dependent = sim.submit(&ExperimentRequest::new("dependent")).unwrap();
    sim.resume();
    let early = dependent.wait_timeout(EARLY);
    let slow_then = slow.status();
    gate.open();
    let skipped = early.expect("the skipped dependent waited for slow");
    assert_eq!(
        skipped.report.error_kind.as_deref(),
        Some("dependency-failed")
    );
    assert_eq!(skipped.report.attempts, 0, "the dependent never ran");
    assert_eq!(slow_then, RequestStatus::Running);
    assert!(slow.wait().is_ok());
}

/// Slots may finish early, but the batch outcome is recorded before the
/// batch's last slot finishes: after both waits, draining returns
/// exactly the one batch, rows in registration order.
#[test]
fn a_batch_whose_first_slot_finishes_early_still_drains_whole() {
    let (sim, gate) = gated_session(None);
    let fast = sim.submit(&ExperimentRequest::new("fast")).unwrap();
    let slow = sim.submit(&ExperimentRequest::new("slow")).unwrap();
    sim.resume();
    let early = fast.wait_timeout(EARLY);
    let drained_early = sim.drain_outcomes().len();
    gate.open();
    assert!(early.is_some(), "fast waited for slow");
    assert_eq!(drained_early, 0, "the batch is not over yet");
    slow.wait();
    fast.wait();
    let batches = sim.drain_outcomes();
    assert_eq!(batches.len(), 1, "one batch, drained once");
    let rows: Vec<&str> = batches[0]
        .report
        .entries
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(rows, ["fast", "slow"]);
    assert!(batches[0].errors.is_empty());
}

/// The journal's `done` line for a request is written when that request
/// finishes: the fast request is marked done while the slow one in the
/// same batch is not.
#[test]
fn the_journal_marks_each_request_done_when_it_finishes() {
    let dir = scratch_dir("journal-early");
    let path = dir.join("requests.jsonl");
    let journal = RequestJournal::recover(&path).unwrap().journal;
    let (sim, gate) = gated_session(Some(journal));
    let slow = sim.submit(&ExperimentRequest::new("slow")).unwrap();
    let fast = sim.submit(&ExperimentRequest::new("fast")).unwrap();
    sim.resume();
    let done_ids = || -> Vec<u64> {
        let text = std::fs::read_to_string(&path).unwrap();
        text.lines()
            .filter_map(|line| Json::parse(line).ok())
            .filter(|doc| doc.get("ev").and_then(Json::as_str) == Some("done"))
            .filter_map(|doc| doc.get("id").and_then(Json::as_u64))
            .collect()
    };
    let early = fast.wait_timeout(EARLY);
    let done_early = done_ids();
    gate.open();
    assert!(early.is_some(), "fast waited for slow");
    assert_eq!(done_early, [fast.id()], "only the finished request is done");
    slow.wait();
    assert_eq!(done_ids(), [fast.id(), slow.id()]);
    drop(sim);
    let _ = std::fs::remove_dir_all(&dir);
}

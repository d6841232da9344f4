//! Integration: deterministic fault injection and the harness's resilience
//! layer — the solver degradation ladder, transient retry, cache
//! quarantine, per-experiment deadlines and the machine-readable failure
//! report — spanning `stacksim-faults`, `stacksim-core` and
//! `stacksim-thermal`.
//!
//! The fault plane is process-global, so every test that arms a plan
//! serializes on [`LOCK`] and disarms via the panic-safe [`ArmedPlan`]
//! guard.

mod common;

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use stacksim::core::harness::{
    Artifact, Ctx, Digest, Experiment, FailureReport, MemoCache, ParamSensitivity, Registry,
    Resilience, RunOutcome, Sim,
};
use stacksim::core::{sensitivity, Error, Headline};
use stacksim::faults::{self, Fault, FaultPlan, FaultRule};
use stacksim::thermal::SolverConfig;
use stacksim::workloads::WorkloadParams;

/// Golden fig3 artifact digest (see `tests/golden_digests.rs`): the
/// default nx=20 ny=17 configuration that [`SmallFig3`] solves. The
/// ladder's first rung only raises the iteration allowance, which never
/// moves a converged answer's bits, so an artifact it recovers must
/// reproduce this digest.
const GOLDEN_FIG3: &str = "96e4ca5a7dc6bc4f";

/// Serializes tests that arm the process-global fault plane.
static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms a plan and guarantees disarm on scope exit, even under panic.
struct ArmedPlan;

impl ArmedPlan {
    fn new(plan: FaultPlan) -> Self {
        faults::arm(plan);
        ArmedPlan
    }
}

impl Drop for ArmedPlan {
    fn drop(&mut self) {
        faults::disarm();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one custom experiment through the harness under a policy.
fn run_custom(exp: Arc<dyn Experiment>, cache: MemoCache, resilience: Resilience) -> RunOutcome {
    let name = exp.name().to_string();
    let mut registry = Registry::new();
    registry.add(exp);
    let builder = Sim::builder()
        .registry(registry)
        .jobs(1)
        .cache(cache)
        .resilience(resilience);
    common::run_batch(builder, &[&name]).expect("selection is valid")
}

/// Fig3 on the golden nx=20 ny=17 grid — the experiment the fault plans
/// below knock over so the ladder has somewhere to fall.
struct SmallFig3;

impl Experiment for SmallFig3 {
    fn name(&self) -> &str {
        "fig3-small"
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        Digest::new().str("fig3-small").hex()
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact, Error> {
        let base = SolverConfig::builder().nx(20).ny(17).build();
        let (data, stats) = sensitivity::fig3_with(ctx.solver_config(base))?;
        ctx.record_solver(stats);
        Ok(Artifact::Fig3(data))
    }
}

/// A trivially cheap experiment for exercising dispatch and cache faults.
struct Tiny {
    name: &'static str,
}

impl Experiment for Tiny {
    fn name(&self) -> &str {
        self.name
    }

    fn sensitivity(&self) -> ParamSensitivity {
        ParamSensitivity::none()
    }

    fn params_digest(&self, _params: &WorkloadParams) -> String {
        Digest::new().str(self.name).hex()
    }

    fn run(&self, _ctx: &Ctx) -> Result<Artifact, Error> {
        Ok(Artifact::Headline(Headline {
            mean_cpma_reduction: 2.0,
            peak_cpma_reduction: 3.0,
            bandwidth_reduction_factor: 3.0,
            bus_power_saving_w: 0.5,
            baseline_bus_power_w: 0.6,
        }))
    }
}

#[test]
fn ladder_recovers_one_shot_nonconvergence_with_bit_identical_artifact() {
    let _g = serial();
    // The first CG solve reports non-convergence; every later solve is
    // untouched, so the ladder's first rung recovers the experiment.
    let _armed = ArmedPlan::new(FaultPlan {
        seed: 0,
        rules: vec![FaultRule::always("thermal.cg", "jacobi", Fault::NoConvergence).times(1)],
    });
    let outcome = run_custom(
        Arc::new(SmallFig3),
        MemoCache::disabled(),
        Resilience::default(),
    );
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let entry = &outcome.report.entries[0];
    assert_eq!(
        entry.attempts, 2,
        "as-configured, then the raised-iters rung"
    );
    assert_eq!(
        entry.fallback.as_deref(),
        Some("raised-iters"),
        "provenance of the recovery lives in the report"
    );
    let artifact = outcome.artifacts.get("fig3-small").expect("recovered");
    assert_eq!(
        Digest::new().str(&artifact.encode()).hex(),
        GOLDEN_FIG3,
        "the degraded run must be bit-identical to an uninjected run"
    );
}

#[test]
fn ladder_exhaustion_surfaces_the_solve_error() {
    let _g = serial();
    // Every solve is knocked over: every rung fails and the ladder runs dry.
    let _armed = ArmedPlan::new(FaultPlan {
        seed: 0,
        rules: vec![FaultRule::always("thermal.cg", "", Fault::NoConvergence)],
    });
    let outcome = run_custom(
        Arc::new(SmallFig3),
        MemoCache::disabled(),
        Resilience::default(),
    );
    assert_eq!(outcome.errors.len(), 1);
    let entry = &outcome.report.entries[0];
    assert_eq!(entry.attempts, 3, "as-configured plus two rungs");
    assert_eq!(entry.error_kind.as_deref(), Some("solve"));
    assert!(entry.fallback.is_none(), "no rung succeeded");
    assert!(outcome.artifacts.is_empty());
}

#[test]
fn transient_dispatch_faults_are_retried_to_success() {
    let _g = serial();
    // One injected panic, then one injected transient I/O error: the
    // default budget of two retries absorbs both.
    let _armed = ArmedPlan::new(FaultPlan {
        seed: 0,
        rules: vec![
            FaultRule::always("harness.dispatch", "tiny", Fault::Panic).times(1),
            FaultRule {
                after: 1,
                ..FaultRule::always("harness.dispatch", "tiny", Fault::IoTransient)
            }
            .times(1),
        ],
    });
    let outcome = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        MemoCache::disabled(),
        Resilience {
            backoff_ms: 1,
            ..Resilience::default()
        },
    );
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let entry = &outcome.report.entries[0];
    assert_eq!(entry.attempts, 3, "panic, transient, success");
    assert!(entry.error.is_none());
    assert!(outcome.artifacts.contains_key("tiny"));
}

#[test]
fn corrupt_cache_entries_are_quarantined_and_recomputed() {
    let _g = serial();
    let dir = scratch_dir("quarantine");
    let cache = MemoCache::at(&dir);

    // Populate the cache uninjected.
    let first = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache.clone(),
        Resilience::default(),
    );
    assert!(!first.report.entries[0].cached);

    // The next load is corrupted in memory; the on-disk entry is moved to
    // quarantine and the experiment recomputes.
    let _armed = ArmedPlan::new(FaultPlan {
        seed: 0,
        rules: vec![FaultRule::always("harness.cache.load", "tiny", Fault::Corrupt).times(1)],
    });
    let second = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache.clone(),
        Resilience::default(),
    );
    assert!(second.errors.is_empty(), "{:?}", second.errors);
    let entry = &second.report.entries[0];
    assert!(entry.quarantined, "the corrupt entry was set aside");
    assert!(!entry.cached, "quarantine forces a recompute");
    assert!(second.artifacts.contains_key("tiny"));
    let quarantined = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir exists")
        .count();
    assert_eq!(quarantined, 1, "the poisoned file survives for forensics");

    // The recomputed entry serves the third run from cache as usual.
    let third = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache,
        Resilience::default(),
    );
    assert!(third.report.entries[0].cached);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_cache_entries_are_a_plain_miss() {
    let _g = serial();
    let dir = scratch_dir("truncate");
    let cache = MemoCache::at(&dir);
    run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache.clone(),
        Resilience::default(),
    );

    // A 0-byte read is the cache's own miss-and-delete path: no
    // quarantine, no error, just a recompute.
    let _armed = ArmedPlan::new(FaultPlan {
        seed: 0,
        rules: vec![FaultRule::always("harness.cache.load", "tiny", Fault::Truncate).times(1)],
    });
    let outcome = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        cache,
        Resilience::default(),
    );
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let entry = &outcome.report.entries[0];
    assert!(!entry.cached);
    assert!(!entry.quarantined, "truncation is a miss, not a quarantine");
    assert_eq!(entry.attempts, 1);
    assert!(outcome.artifacts.contains_key("tiny"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failure_reports_are_byte_identical_across_runs_of_the_same_plan() {
    let _g = serial();
    let plan = FaultPlan {
        seed: 7,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "doomed",
            Fault::Panic,
        )],
    };
    let run_once = || {
        let _armed = ArmedPlan::new(plan.clone());
        let outcome = run_custom(
            Arc::new(Tiny { name: "doomed" }),
            MemoCache::disabled(),
            Resilience {
                backoff_ms: 1,
                ..Resilience::default()
            },
        );
        FailureReport::from_outcome(&outcome)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.failures.len(), 1);
    assert_eq!(a.failures[0].kind, "worker-panic");
    assert_eq!(a.failures[0].attempts, 3, "the full retry budget was spent");
    assert_eq!(
        a.encode(),
        b.encode(),
        "same plan and seed must reproduce the same failure report"
    );
    let back = FailureReport::validate(&a.encode()).expect("round-trips");
    assert_eq!(back, a);
}

#[test]
fn deadlines_bound_the_recovery_loop() {
    let _g = serial();
    // An endless transient with a huge retry budget: only the deadline
    // stops the loop, and the failure is classified as such.
    let _armed = ArmedPlan::new(FaultPlan {
        seed: 0,
        rules: vec![FaultRule::always(
            "harness.dispatch",
            "stuck",
            Fault::IoTransient,
        )],
    });
    let outcome = run_custom(
        Arc::new(Tiny { name: "stuck" }),
        MemoCache::disabled(),
        Resilience {
            retries: 10_000,
            backoff_ms: 1,
            deadline_s: Some(0.05),
            ..Resilience::default()
        },
    );
    assert_eq!(outcome.errors.len(), 1);
    let entry = &outcome.report.entries[0];
    assert_eq!(entry.error_kind.as_deref(), Some("deadline"));
    assert!(entry.attempts >= 1);
    assert!(outcome.artifacts.is_empty());
}

#[test]
fn unarmed_runs_see_no_faults() {
    let _g = serial();
    faults::disarm();
    let outcome = run_custom(
        Arc::new(Tiny { name: "tiny" }),
        MemoCache::disabled(),
        Resilience::default(),
    );
    assert!(outcome.errors.is_empty());
    let entry = &outcome.report.entries[0];
    assert_eq!(entry.attempts, 1);
    assert!(entry.fallback.is_none());
    assert_eq!(faults::injected_total(), 0);
}

//! Integration: the experiment harness — registry fan-out, disk
//! memoization, telemetry and parallel/serial determinism — spanning
//! `stacksim-core`, `stacksim-thermal`, `stacksim-mem` and
//! `stacksim-workloads`.

mod common;

use std::path::PathBuf;
use std::sync::Arc;

use stacksim::core::harness::{
    Artifact, Ctx, Digest, Experiment, ExperimentRequest, MemoCache, ParamSensitivity, Registry,
    RunOutcome, Sim,
};
use stacksim::core::Error;
use stacksim::thermal::SolveError;
use stacksim::workloads::WorkloadParams;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-harness-{tag}-{}", std::process::id()));
    // a stale dir from a crashed run must not poison the test
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs a selection of the standard registry as one session batch.
fn run(
    params: WorkloadParams,
    jobs: usize,
    cache: MemoCache,
    names: &[&str],
) -> Result<RunOutcome, Error> {
    let builder = Sim::builder()
        .params(params)
        .jobs(jobs)
        .cache(cache)
        .preflight(true);
    common::run_batch(builder, names)
}

#[test]
fn memoization_same_digest_is_a_cache_hit_with_zero_solver_work() {
    let dir = scratch_dir("memo");
    let params = WorkloadParams::test();

    let first = run(params, 1, MemoCache::at(&dir), &["fig8"]).unwrap();
    let e1 = &first.report.entries[0];
    assert!(!e1.cached, "cold cache must actually run");
    assert!(
        e1.telemetry.solver.iterations > 0,
        "fig8 performs CG solves when it runs"
    );

    let second = run(params, 1, MemoCache::at(&dir), &["fig8"]).unwrap();
    let e2 = &second.report.entries[0];
    assert!(e2.cached, "same digest must hit the cache");
    assert_eq!(
        e2.telemetry.solver.iterations, 0,
        "a cache hit does zero solver work"
    );
    assert_eq!(e1.digest, e2.digest);

    // the cached artifact is bit-identical to the fresh one
    let a = first.artifacts.get("fig8").unwrap();
    let b = second.artifacts.get("fig8").unwrap();
    assert_eq!(a.encode(), b.encode());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memoization_changed_config_is_a_miss_and_reruns() {
    let dir = scratch_dir("digest");
    let params = WorkloadParams::test();

    let first = run(params, 1, MemoCache::at(&dir), &["fig5:gauss"]).unwrap();
    assert!(!first.report.entries[0].cached);

    // a different trace seed is a different experiment point: the digest
    // must change and the cache must not serve the stale artifact
    let mut reseeded = params;
    reseeded.seed ^= 0xdead_beef;
    let second = run(reseeded, 1, MemoCache::at(&dir), &["fig5:gauss"]).unwrap();
    let (e1, e2) = (&first.report.entries[0], &second.report.entries[0]);
    assert_ne!(e1.digest, e2.digest, "seed is part of the digest");
    assert!(!e2.cached, "changed config must re-run");
    assert!(
        e2.telemetry.trace_records() > 0,
        "the re-run simulates the trace again"
    );

    // and the original point still hits
    let third = run(params, 1, MemoCache::at(&dir), &["fig5:gauss"]).unwrap();
    assert!(third.report.entries[0].cached);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_and_serial_fig5_artifacts_are_bit_identical() {
    let params = WorkloadParams::test();
    let serial = run(params, 1, MemoCache::disabled(), &["fig5"]).unwrap();
    let parallel = run(params, 4, MemoCache::disabled(), &["fig5"]).unwrap();
    assert!(serial.errors.is_empty() && parallel.errors.is_empty());

    // every per-benchmark point and the aggregate must match byte-for-byte
    assert_eq!(serial.artifacts.len(), parallel.artifacts.len());
    assert_eq!(serial.artifacts.len(), 13, "12 points + the aggregate");
    for (name, artifact) in &serial.artifacts {
        let other = parallel
            .artifacts
            .get(name)
            .unwrap_or_else(|| panic!("parallel run missing {name}"));
        assert_eq!(
            artifact.encode(),
            other.encode(),
            "{name} differs between serial and parallel"
        );
    }
}

#[test]
fn dependencies_run_before_dependents_and_artifacts_flow() {
    let outcome = run(
        WorkloadParams::test(),
        2,
        MemoCache::disabled(),
        &["headline"],
    )
    .unwrap();
    assert!(outcome.errors.is_empty());
    // headline pulls in fig5 which pulls in all twelve points
    assert_eq!(outcome.artifacts.len(), 1 + 1 + 12);
    let headline = outcome.artifacts.get("headline").unwrap();
    match headline.as_ref() {
        Artifact::Headline(h) => assert!(h.bandwidth_reduction_factor > 0.0),
        other => panic!("expected headline artifact, got {}", other.kind()),
    }
}

#[test]
fn unknown_experiment_is_an_error_not_a_panic() {
    let err = run(WorkloadParams::test(), 1, MemoCache::disabled(), &["fig99"]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("fig99"), "error names the experiment: {msg}");
}

/// A cheap experiment that fails (deterministically, without retries)
/// when `fail` is set and otherwise produces a trivial artifact.
struct Node {
    name: &'static str,
    deps: &'static [&'static str],
    fail: bool,
}

impl Experiment for Node {
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
        if self.fail {
            return Err(Error::Solve(SolveError::EmptyStack));
        }
        Ok(Artifact::Table5(Vec::new()))
    }
}

/// A failing root skips its whole dependency chain: the skipped rows
/// carry `dependency-failed` and zero attempts, every handle resolves,
/// only the root counts as an error, and rows keep registration order
/// whatever order the requests came in.
#[test]
fn a_failed_dependency_skips_every_transitive_dependent() {
    let mut registry = Registry::new();
    for (name, deps, fail) in [
        ("root", &[][..], true),
        ("other", &[][..], false),
        ("mid", &["root"][..], false),
        ("leaf", &["mid"][..], false),
    ] {
        registry.add(Arc::new(Node { name, deps, fail }));
    }
    let sim = Sim::builder()
        .registry(registry)
        .jobs(2)
        .start_paused(true)
        .build();
    let handles: Vec<_> = ["leaf", "mid", "other", "root"]
        .into_iter()
        .map(|n| sim.submit(&ExperimentRequest::new(n)))
        .collect::<Result<_, _>>()
        .unwrap();
    sim.resume();
    let resolved: Vec<_> = handles
        .iter()
        .map(|h| (h.name().to_string(), h.wait()))
        .collect();
    for (name, outcome) in &resolved {
        assert_eq!(
            outcome.is_ok(),
            name == "other",
            "{name}: {:?}",
            outcome.report
        );
    }

    let batches = sim.drain_outcomes();
    assert_eq!(batches.len(), 1);
    let outcome = &batches[0];
    let rows: Vec<&str> = outcome
        .report
        .entries
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    assert_eq!(rows, ["root", "other", "mid", "leaf"], "registration order");
    for skipped in &outcome.report.entries[2..] {
        assert_eq!(skipped.error_kind.as_deref(), Some("dependency-failed"));
        assert_eq!(skipped.attempts, 0, "{} never ran", skipped.name);
        let error = skipped.error.as_deref().unwrap_or_default();
        assert!(error.contains("'root' failed"), "{error}");
    }
    let errors: Vec<&str> = outcome.errors.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(errors, ["root"], "skips are not root causes");
    assert_eq!(
        outcome.report.entries[0].error_kind.as_deref(),
        Some("solve")
    );
}

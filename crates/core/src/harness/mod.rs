//! The experiment harness: every table and figure of the paper as a
//! registered, memoizable, parallel-runnable [`Experiment`].
//!
//! The harness replaces the old pattern of one ad-hoc `main` per figure
//! with a uniform pipeline:
//!
//! 1. [`Registry::standard`] lists every experiment — `fig3`, the twelve
//!    `fig5:<bench>` points, the `fig5` aggregate, `fig6`, `fig8`,
//!    `fig11`, `table4`, `table5` and the `headline` summary — together
//!    with their dependency edges (e.g. `headline` needs `fig5`, which
//!    needs all twelve per-benchmark points).
//! 2. A [`Sim`] session accepts requests for experiments and runs each
//!    batch of them (plus their transitive dependencies) as a
//!    dependency-aware fan-out across worker threads.
//! 3. Each result is serialized as a deterministic JSON [`Artifact`] and
//!    memoized on disk keyed by the experiment's
//!    [`params_digest`](Experiment::params_digest) — re-runs with the same
//!    configuration skip straight to the cached artifact.
//! 4. A [`RunReport`] records per-experiment telemetry: wall time, cache
//!    hits, conjugate-gradient solver iteration counts, simulated trace
//!    lengths and CPMA.
//!
//! # Example
//!
//! ```
//! use stacksim_core::harness::{ExperimentRequest, Sim};
//! use stacksim_workloads::WorkloadParams;
//!
//! let sim = Sim::builder().params(WorkloadParams::test()).build();
//! let outcome = sim.submit(&ExperimentRequest::new("fig5:gauss"))?.wait();
//! assert!(outcome.is_ok());
//! sim.shutdown();
//! let batches = sim.drain_outcomes();
//! assert!(batches[0].artifacts.contains_key("fig5:gauss"));
//! # Ok::<(), stacksim_core::Error>(())
//! ```

mod artifact;
mod cache;
pub mod check;
mod digest;
mod experiment;
mod journal;
pub mod json;
pub mod obs;
pub mod obs_report;
mod registry;
pub mod render;
pub mod resilience;
mod runner;
mod session;

pub use artifact::Artifact;
pub use cache::MemoCacheBuilder;
pub use cache::{default_cache_dir, MemoCache};
pub use check::{
    check_experiment, check_registry, digest_audit, fault_model, model_for, obs_audit, obs_model,
    preflight,
};
pub use digest::Digest;
pub use experiment::{Ctx, Experiment, MemRun, ParamSensitivity, Telemetry};
pub use journal::{JournalRecovery, RequestJournal, JOURNAL_SCHEMA};
pub use registry::Registry;
pub use resilience::{FailureEntry, FailureReport, Resilience, SolverDegrade};
pub use runner::{ExperimentReport, RunOutcome, RunReport};
pub use session::{
    ExperimentRequest, RequestHandle, RequestOutcome, RequestStatus, Sim, SimBuilder, SimStats,
    MAX_UNDRAINED_OUTCOMES,
};

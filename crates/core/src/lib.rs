//! Study orchestration: every table and figure of *Die Stacking (3D)
//! Microarchitecture* (Black et al., MICRO 2006) as a callable experiment.
//!
//! | Paper artefact | Entry point |
//! |---|---|
//! | Fig. 3 (conductivity sensitivity) | [`sensitivity::fig3`] |
//! | Fig. 5 (RMS CPMA + bandwidth)     | [`memory_logic::fig5`] |
//! | Fig. 6 (baseline power/thermal map) | [`memory_logic::fig6`] |
//! | Fig. 7 (stack options)            | [`StackOption`] |
//! | Fig. 8 (stacked-cache thermals)   | [`memory_logic::fig8`] |
//! | Fig. 9/10 (floorplans)            | `stacksim_floorplan::{p4, fold}` |
//! | Fig. 11 (Logic+Logic thermals)    | [`logic_logic::fig11`] |
//! | Table 4 (per-path gains)          | [`logic_logic::table4`] |
//! | Table 5 (V/f scaling)             | [`logic_logic::table5`] |
//! | §3 headline numbers               | [`memory_logic::Fig5Data::headline`] |
//!
//! All of the above are also registered as named experiments in the
//! [`harness`] — `fig3`, `fig5` (and its twelve `fig5:<bench>` points),
//! `fig6`, `fig8`, `fig11`, `table4`, `table5`, `headline` — which the
//! `stacksim` CLI runs as a dependency-aware parallel fan-out with disk
//! memoization and per-experiment telemetry. Prefer a [`harness::Sim`]
//! session over calling the study functions directly when you want
//! caching, parallelism or a run report.
//!
//! **Migration note:** since the harness redesign every study entry point
//! returns `Result<_, `[`Error`]`>` (previously they panicked on solver
//! failure), and the config structs are `#[non_exhaustive]` with builders
//! (`WorkloadParams::builder()`, `EngineConfig::builder()`,
//! `SolverConfig::builder()`).
//!
//! # Example
//!
//! ```
//! use stacksim_core::memory_logic::run_benchmark;
//! use stacksim_workloads::{RmsBenchmark, WorkloadParams};
//!
//! let row = run_benchmark(RmsBenchmark::Conj, &WorkloadParams::test())?;
//! assert!(row.cpma.iter().all(|&c| c > 0.0));
//! # Ok::<(), stacksim_core::Error>(())
//! ```
//!
//! Or through a harness session (add `.cache(..)` to memoize):
//!
//! ```no_run
//! use stacksim_core::harness::{ExperimentRequest, Sim};
//! use stacksim_workloads::WorkloadParams;
//!
//! let sim = Sim::builder().params(WorkloadParams::test()).build();
//! let outcome = sim.submit(&ExperimentRequest::new("table4"))?.wait();
//! let artifact = outcome.artifact.as_ref();
//! # Ok::<(), stacksim_core::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod harness;
pub mod logic_logic;
pub mod memory_logic;
pub mod report;
pub mod sensitivity;
pub mod stacking;

pub mod prelude {
    //! One-stop imports for driving the harness: the `Sim` session types,
    //! the memo cache, the run report, and the workload parameters.
    //!
    //! ```
    //! use stacksim_core::prelude::*;
    //!
    //! let sim = Sim::builder().params(WorkloadParams::test()).build();
    //! let handle = sim.submit(&ExperimentRequest::new("fig5:gauss"))?;
    //! assert!(handle.wait().is_ok());
    //! # Ok::<(), stacksim_core::Error>(())
    //! ```

    pub use crate::error::Error;
    pub use crate::harness::{
        default_cache_dir, Artifact, ExperimentReport, ExperimentRequest, MemoCache,
        MemoCacheBuilder, Registry, RequestHandle, RequestOutcome, RequestStatus, Resilience,
        RunOutcome, RunReport, Sim, SimBuilder, SimStats,
    };
    pub use stacksim_workloads::{Scale, WorkloadParams, WorkloadParamsBuilder};
}

pub use error::Error;
pub use logic_logic::{Fig11Point, Table4, Table4Row, Table5Row};
pub use memory_logic::{Fig5Data, Fig5Row, Headline, ThermalPoint};
pub use report::{fmt_f, TextTable};
pub use sensitivity::Fig3Data;
pub use stacking::StackOption;

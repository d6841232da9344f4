//! stacksim-modelcheck: exhaustive interleaving checks for the
//! workspace's hand-rolled synchronisation.
//!
//! The container has no `loom`, so this crate carries a small
//! stand-alone explorer ([`explore`]) and hand-translated models of the
//! two pieces of coordination the static auditor (SA004/SA005) can only
//! approximate structurally:
//!
//! * [`barrier::SpinBarrierModel`] — `thermal::pool::SpinBarrier`'s
//!   sense-reversing generation protocol, including proof that the
//!   reset-before-release ordering is load-bearing.
//! * [`dedup::DedupModel`] — the serve session's dedup-slot state
//!   machine with slots finishing from executor workers mid-batch,
//!   including proof that the check-then-insert in `submit()` must stay
//!   under one lock and that the batch's last slot must wait for the
//!   batch outcome to be recorded.
//!
//! Fast configurations run as ordinary unit tests; `cargo xtask loom`
//! runs the full sweep below (larger thread/round counts) and is wired
//! into CI next to the audit job.

pub mod barrier;
pub mod dedup;
pub mod explore;

pub use explore::{explore, Model, Stats, Step};

use barrier::SpinBarrierModel;
use dedup::DedupModel;

/// Runs the full model sweep: every checked-in model at the largest
/// configuration that still explores in seconds. Returns a one-line
/// summary per model, or the first counterexample found.
pub fn run_all() -> Result<String, String> {
    let mut lines = Vec::new();

    for (workers, rounds) in [(2, 3), (3, 2), (4, 2)] {
        let model = SpinBarrierModel::correct(workers, rounds);
        let stats = explore(&model)?;
        lines.push(summary(
            &format!(
                "{} [{workers} workers x {rounds} rounds]",
                model_name(&model)
            ),
            stats,
        ));
    }

    // Negative control: the explorer must still be able to find the
    // classic reset-after-release barrier bug; a pass here would mean
    // the sweep has gone blind, so it is an error.
    let buggy = SpinBarrierModel {
        workers: 3,
        rounds: 2,
        reset_after_release: true,
    };
    match explore(&buggy) {
        Err(e) if e.contains("deadlock") => lines.push(format!(
            "{} [buggy variant]: counterexample found as expected",
            model_name(&buggy)
        )),
        Err(e) => return Err(format!("buggy barrier failed for the wrong reason: {e}")),
        Ok(_) => {
            return Err("buggy barrier variant explored clean; the explorer is unsound".to_string())
        }
    }

    let model = DedupModel::correct();
    let stats = explore(&model)?;
    lines.push(summary(model_name(&model), stats));

    let split = DedupModel {
        atomic_submit: false,
        defer_last: true,
    };
    match explore(&split) {
        Err(e) if e.contains("execution") => lines.push(format!(
            "{} [split submit]: counterexample found as expected",
            model_name(&split)
        )),
        Err(e) => {
            return Err(format!(
                "split-submit model failed for the wrong reason: {e}"
            ))
        }
        Ok(_) => {
            return Err(
                "split-submit dedup variant explored clean; the explorer is unsound".to_string(),
            )
        }
    }

    let eager = DedupModel {
        atomic_submit: true,
        defer_last: false,
    };
    match explore(&eager) {
        Err(e) if e.contains("before its outcome was recorded") => lines.push(format!(
            "{} [eager last slot]: counterexample found as expected",
            model_name(&eager)
        )),
        Err(e) => {
            return Err(format!(
                "eager-last-slot model failed for the wrong reason: {e}"
            ))
        }
        Ok(_) => {
            return Err(
                "eager-last-slot dedup variant explored clean; the explorer is unsound".to_string(),
            )
        }
    }

    Ok(lines.join("\n"))
}

fn model_name<M: Model>(m: &M) -> &'static str {
    m.name()
}

fn summary(name: &str, stats: Stats) -> String {
    format!(
        "{name}: OK — {} states, {} transitions, {} terminal(s)",
        stats.states, stats.transitions, stats.terminals
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_is_clean() {
        let summary = run_all().expect("sweep clean");
        assert!(summary.contains("SpinBarrier"), "{summary}");
        assert!(summary.contains("dedup"), "{summary}");
        assert!(
            summary.contains("counterexample found as expected"),
            "{summary}"
        );
    }
}

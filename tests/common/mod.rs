//! Shared by the integration tests that drive the harness one batch at a
//! time through a `Sim` session.

use stacksim::core::harness::{ExperimentRequest, RunOutcome, SimBuilder};
use stacksim::core::Error;

/// Runs `names` as one batch, as `stacksim run` does: submit everything
/// to a paused session, resume, wait on every handle and take the batch's
/// outcome.
///
/// # Errors
///
/// The first submission the session refuses.
pub fn run_batch(builder: SimBuilder, names: &[&str]) -> Result<RunOutcome, Error> {
    let sim = builder.start_paused(true).build();
    let handles = names
        .iter()
        .map(|name| sim.submit(&ExperimentRequest::new(*name)))
        .collect::<Result<Vec<_>, _>>()?;
    sim.resume();
    for handle in &handles {
        handle.wait();
    }
    let mut batches = sim.drain_outcomes();
    assert_eq!(batches.len(), 1, "the selection ran as one batch");
    Ok(batches.remove(0))
}

//! The batch executor behind the [`Sim`](super::Sim) session, and the
//! run report it produces.
//!
//! The session's scheduler hands each batch's experiments to
//! [`Batch::run`], which adds their transitive dependencies and fans the
//! ready set out across worker threads. The registry is a DAG by
//! construction, so registration order is already a valid schedule and
//! nothing here can fail structurally. Each experiment first consults
//! the memo cache; a hit skips the run entirely (telemetry shows zero
//! solver iterations), a miss runs, records telemetry and stores the
//! artifact. Each finished experiment's row and artifact go to the
//! caller's [`OnFinish`] hook the moment it finishes, so a request
//! resolves when its own experiment does, not when its whole batch does.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stacksim_thermal::SolveError;
use stacksim_workloads::WorkloadParams;

use super::artifact::Artifact;
use super::cache::MemoCache;
use super::experiment::{Ctx, Experiment, Telemetry};
use super::json::Json;
use super::registry::Registry;
use super::resilience::{self, Resilience, SolverDegrade};
use crate::error::Error;

/// One experiment's row in the run report.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The experiment name.
    pub name: String,
    /// Its configuration digest (the cache key).
    pub digest: String,
    /// Whether the artifact came from the memo cache.
    pub cached: bool,
    /// Wall time in seconds (near zero for cache hits).
    pub wall_s: f64,
    /// The failure, if the experiment did not produce an artifact.
    pub error: Option<String>,
    /// Stable machine-readable failure class ([`Error::kind`]), set
    /// whenever `error` is.
    pub error_kind: Option<String>,
    /// Execution attempts made: 1 for a clean run or cache hit, more
    /// when retries or ladder rungs were needed, 0 for dependency skips.
    pub attempts: u64,
    /// Whether a corrupt cache entry was quarantined along the way.
    pub quarantined: bool,
    /// The degradation-ladder rung that finally succeeded, if the run
    /// needed one (`jacobi` / `raised-iters` / `cold-start`).
    pub fallback: Option<String>,
    /// Solver/memory telemetry recorded during the run (empty for cache
    /// hits — nothing was simulated).
    pub telemetry: Telemetry,
}

impl ExperimentReport {
    /// A fresh row with nothing recorded yet.
    fn blank(name: &str, digest: String) -> ExperimentReport {
        ExperimentReport {
            name: name.to_string(),
            digest,
            cached: false,
            wall_s: 0.0,
            error: None,
            error_kind: None,
            attempts: 0,
            quarantined: false,
            fallback: None,
            telemetry: Telemetry::default(),
        }
    }

    /// The row's JSON form, as embedded in [`RunReport::to_json`] (and
    /// served by `stacksim serve`'s status endpoint).
    pub fn to_json(&self) -> Json {
        let opt_str = |v: &Option<String>| match v {
            Some(s) => Json::Str(s.clone()),
            None => Json::Null,
        };
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("digest", Json::Str(self.digest.clone())),
            ("cached", Json::Bool(self.cached)),
            ("wall_s", Json::Num(self.wall_s)),
            ("error", opt_str(&self.error)),
            ("error_kind", opt_str(&self.error_kind)),
            ("attempts", Json::Num(self.attempts as f64)),
            ("quarantined", Json::Bool(self.quarantined)),
            ("fallback", opt_str(&self.fallback)),
            ("telemetry", self.telemetry.to_json()),
        ])
    }
}

/// The machine-readable record of one harness invocation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Worker threads used.
    pub jobs: usize,
    /// Total wall time in seconds.
    pub wall_s: f64,
    /// Per-experiment rows, in registration order (dependencies first).
    pub entries: Vec<ExperimentReport>,
}

impl RunReport {
    /// The JSON document written by `stacksim run --report`. It carries
    /// the process's peak resident set so far as `peak_rss_mb` where the
    /// platform reports one (omitted elsewhere) — a fact about this
    /// process, never part of an artifact or digest.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("jobs", Json::Num(self.jobs as f64)),
            ("wall_s", Json::Num(self.wall_s)),
        ];
        if let Some(mb) = peak_rss_mb() {
            fields.push(("peak_rss_mb", Json::Num(mb)));
        }
        fields.push((
            "experiments",
            Json::Arr(self.entries.iter().map(ExperimentReport::to_json).collect()),
        ));
        Json::obj(fields)
    }

    /// Writes the JSON report to a file.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn write(&self, path: &std::path::Path) -> Result<(), Error> {
        std::fs::write(path, self.to_json().encode()).map_err(|e| Error::io(path, e))
    }

    /// Total CG iterations across all experiments — zero when everything
    /// came from the cache.
    pub fn total_cg_iterations(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.telemetry.solver.iterations)
            .sum()
    }

    /// Total simulated memory references across all experiments.
    pub fn total_trace_records(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.telemetry.trace_records())
            .sum()
    }
}

/// Peak resident set size of this process in MiB: the `VmHWM` line of
/// `/proc/self/status`, or `None` where that file is unavailable.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// The `VmHWM:  <n> kB` line of a `/proc/<pid>/status` text, in MiB.
fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The telemetry report.
    pub report: RunReport,
    /// Artifacts by experiment name (absent for failed experiments).
    pub artifacts: HashMap<String, Arc<Artifact>>,
    /// Root-cause failures, by experiment name (dependency skips are only
    /// in the report).
    pub errors: Vec<(String, Error)>,
}

/// What one batch runs under: the session's registry, memo cache,
/// worker count and preflight setting, plus the batch's own workload
/// parameters and deadline-folded resilience policy.
pub(super) struct Batch<'a> {
    pub(super) registry: &'a Registry,
    pub(super) cache: &'a MemoCache,
    /// Worker threads; `0` means one per available CPU.
    pub(super) jobs: usize,
    /// Lint an experiment's model before a cache-missing run (a hit
    /// proves the same configuration already ran to completion).
    pub(super) preflight: bool,
    pub(super) params: WorkloadParams,
    pub(super) resilience: Resilience,
}

/// Called once per experiment of a batch as soon as it finishes (ran,
/// cached, failed, or skipped because a dependency failed) with its
/// report row and artifact. It runs on the worker that finished the
/// experiment, after the batch's state lock is released.
pub(super) type OnFinish<'f> = &'f (dyn Fn(&ExperimentReport, Option<&Arc<Artifact>>) + Sync);

/// One selected experiment's scheduling state.
struct Node {
    exp: Arc<dyn Experiment>,
    /// Dependencies that have not finished yet.
    waiting: usize,
    /// Selection positions of the direct dependents.
    dependents: Vec<usize>,
    /// Failed, or skipped because a dependency failed.
    failed: bool,
    report: Option<ExperimentReport>,
}

/// A batch's scheduling state; experiments are positions in its
/// selection.
struct State {
    nodes: Vec<Node>,
    ready: VecDeque<(usize, Arc<dyn Experiment>)>,
    results: HashMap<String, Arc<Artifact>>,
    errors: Vec<(String, Error)>,
    done: usize,
}

impl State {
    /// Stores a finished experiment's report row and returns its direct
    /// dependents.
    fn finish(&mut self, at: usize, report: ExperimentReport, failed: bool) -> Vec<usize> {
        self.done += 1;
        match self.nodes.get_mut(at) {
            Some(node) => {
                node.report = Some(report);
                node.failed |= failed;
                node.dependents.clone()
            }
            None => Vec::new(),
        }
    }

    /// Skips every transitive dependent of the failed experiment `root`
    /// and returns the skip rows.
    fn fail_dependents(&mut self, root: usize, root_name: &str) -> Vec<ExperimentReport> {
        let mut skipped = Vec::new();
        let mut queue: VecDeque<usize> = self
            .nodes
            .get(root)
            .map(|n| n.dependents.clone())
            .unwrap_or_default()
            .into();
        while let Some(at) = queue.pop_front() {
            let name = match self.nodes.get(at) {
                Some(node) if !node.failed => node.exp.name().to_string(),
                _ => continue,
            };
            if stacksim_obs::enabled() {
                stacksim_obs::counter(super::obs::FAILURES).add(1);
            }
            let skip = Error::DependencyFailed {
                experiment: name.clone(),
                dependency: root_name.to_string(),
            };
            let mut report = ExperimentReport::blank(&name, String::new());
            report.error = Some(skip.to_string());
            report.error_kind = Some(skip.kind().to_string());
            skipped.push(report.clone());
            queue.extend(self.finish(at, report, true));
        }
        skipped
    }
}

/// Locks a batch's scheduling state, recovering from poisoning (the
/// guarded bookkeeping stays structurally sound even if a worker
/// panicked).
fn lock(state: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Batch<'_> {
    /// Runs `roots` plus their transitive dependencies and returns artifacts
    /// and telemetry. Failures inside experiments do not abort the batch:
    /// they are recorded in [`RunOutcome::errors`] and the report, and every
    /// dependent of a failed experiment is skipped. Every row, skips
    /// included, goes to `on_finish` as soon as it exists; all calls
    /// have returned by the time this does. Report rows come in
    /// registration order.
    pub(super) fn run(&self, roots: &[Arc<dyn Experiment>], on_finish: OnFinish<'_>) -> RunOutcome {
        let start = Instant::now();
        let selection = self.registry.closure(roots);
        let total = selection.len();
        let mut run_span = stacksim_obs::span(super::obs::EVENT_RUN);
        run_span.field("experiments", total as u64);

        let position: HashMap<&str, usize> = selection
            .iter()
            .enumerate()
            .map(|(at, e)| (e.name(), at))
            .collect();
        let mut nodes: Vec<Node> = selection
            .iter()
            .map(|exp| Node {
                exp: exp.clone(),
                waiting: exp.deps().len(),
                dependents: Vec::new(),
                failed: false,
                report: None,
            })
            .collect();
        // the closure holds every dependency of its members
        for (at, exp) in selection.iter().enumerate() {
            for dep in exp.deps() {
                if let Some(node) = position.get(dep.as_str()).and_then(|&d| nodes.get_mut(d)) {
                    node.dependents.push(at);
                }
            }
        }
        let ready = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.waiting == 0)
            .map(|(at, n)| (at, n.exp.clone()))
            .collect();
        let state = Mutex::new(State {
            nodes,
            ready,
            results: HashMap::new(),
            errors: Vec::new(),
            done: 0,
        });
        let cv = Condvar::new();

        let jobs = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.jobs
        };
        let workers = jobs.min(total.max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker(&state, &cv, on_finish));
            }
        });

        let st = state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let wall_s = start.elapsed().as_secs_f64();
        run_span.field("wall_us", (wall_s * 1e6) as u64);
        drop(run_span);
        RunOutcome {
            report: RunReport {
                jobs: workers,
                wall_s,
                entries: st.nodes.into_iter().filter_map(|n| n.report).collect(),
            },
            artifacts: st.results,
            errors: st.errors,
        }
    }

    fn worker(&self, state: &Mutex<State>, cv: &Condvar, on_finish: OnFinish<'_>) {
        loop {
            let next = {
                let mut st = lock(state);
                loop {
                    if let Some(next) = st.ready.pop_front() {
                        break Some(next);
                    }
                    if st.done == st.nodes.len() {
                        break None;
                    }
                    st = cv
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let Some((at, exp)) = next else {
                cv.notify_all();
                return;
            };

            let deps: HashMap<String, Arc<Artifact>> = {
                let st = lock(state);
                exp.deps()
                    .into_iter()
                    .filter_map(|d| st.results.get(&d).map(|a| (d, a.clone())))
                    .collect()
            };
            let (report, result) = self.execute(exp.as_ref(), deps);
            let row = report.clone();

            let mut guard = lock(state);
            let st = &mut *guard;
            let name = exp.name();
            // the rows this step finished, handed on once the lock is gone
            let mut finished = Vec::new();
            match result {
                Ok(artifact) => {
                    let artifact = Arc::new(artifact);
                    st.results.insert(name.to_string(), artifact.clone());
                    finished.push((row, Some(artifact)));
                    for d in st.finish(at, report, false) {
                        if let Some(node) = st.nodes.get_mut(d) {
                            node.waiting -= 1;
                            if node.waiting == 0 && !node.failed {
                                st.ready.push_back((d, node.exp.clone()));
                            }
                        }
                    }
                }
                Err(error) => {
                    finished.push((row, None));
                    st.finish(at, report, true);
                    st.errors.push((name.to_string(), error));
                    let skipped = st.fail_dependents(at, name);
                    finished.extend(skipped.into_iter().map(|row| (row, None)));
                }
            }
            drop(guard);
            cv.notify_all();
            for (row, artifact) in &finished {
                on_finish(row, artifact.as_ref());
            }
        }
    }

    /// Runs one experiment under the resilience policy: cache probe, then
    /// the real run on a miss, with retries, quarantine and the solver
    /// degradation ladder wrapped around every attempt.
    fn execute(
        &self,
        exp: &dyn Experiment,
        deps: HashMap<String, Arc<Artifact>>,
    ) -> (ExperimentReport, Result<Artifact, Error>) {
        let name = exp.name().to_string();
        let digest = exp.params_digest(&self.params);
        let start = Instant::now();
        let mut span = stacksim_obs::span(super::obs::EVENT_EXPERIMENT);
        span.field("experiment", name.clone());
        let mut report = ExperimentReport::blank(&name, digest);

        let result = self.execute_attempts(exp, &deps, &mut report, start);

        report.wall_s = start.elapsed().as_secs_f64();
        if let Err(e) = &result {
            report.error = Some(e.to_string());
            report.error_kind = Some(e.kind().to_string());
        }
        if stacksim_obs::enabled() {
            let wall_us = (report.wall_s * 1e6) as u64;
            stacksim_obs::counter(super::obs::EXPERIMENTS).add(1);
            stacksim_obs::counter(if report.cached {
                super::obs::CACHE_HITS
            } else {
                super::obs::CACHE_MISSES
            })
            .add(1);
            if result.is_err() {
                stacksim_obs::counter(super::obs::FAILURES).add(1);
            }
            stacksim_obs::histogram(super::obs::EXPERIMENT_WALL_US).record(wall_us);
            span.field("cached", report.cached);
            span.field("ok", result.is_ok());
            span.field("wall_us", wall_us);
        }
        drop(span);
        (report, result)
    }

    /// The resilience loop around [`Batch::attempt_once`]: retries
    /// transient failures with deterministic exponential backoff, walks
    /// the [`SolverDegrade`] ladder on non-convergence, and enforces the
    /// per-experiment deadline and iteration budgets.
    fn execute_attempts(
        &self,
        exp: &dyn Experiment,
        deps: &HashMap<String, Arc<Artifact>>,
        report: &mut ExperimentReport,
        start: Instant,
    ) -> Result<Artifact, Error> {
        let policy = &self.resilience;
        let mut degrade = SolverDegrade::AsConfigured;
        let mut retries_left = policy.retries;
        let mut backoff = Duration::from_millis(policy.backoff_ms);
        loop {
            match self.attempt_once(exp, deps, report, degrade) {
                Ok(artifact) => {
                    if let Some(limit) = policy.max_cg_iters {
                        let used = report.telemetry.solver.iterations as u64;
                        if used > limit as u64 {
                            return Err(Error::BudgetExceeded {
                                experiment: report.name.clone(),
                                what: "cg-iterations",
                                limit: limit as u64,
                                used,
                            });
                        }
                    }
                    if degrade != SolverDegrade::AsConfigured {
                        report.fallback = Some(degrade.label().to_string());
                    }
                    return Ok(artifact);
                }
                Err(e) => {
                    // the deadline bounds recovery, not first failure: a
                    // failed attempt past the budget stops retrying
                    if let Some(limit_s) = policy.deadline_s {
                        if start.elapsed().as_secs_f64() >= limit_s {
                            return Err(Error::DeadlineExceeded {
                                experiment: report.name.clone(),
                                limit_s,
                            });
                        }
                    }
                    match &e {
                        Error::Solve(SolveError::NoConvergence { .. }) if policy.ladder => {
                            let Some(next) = degrade.next() else {
                                return Err(e);
                            };
                            degrade = next;
                            if stacksim_obs::enabled() {
                                stacksim_obs::counter(super::obs::SOLVER_FALLBACKS).add(1);
                            }
                        }
                        e if e.is_transient() && retries_left > 0 => {
                            retries_left -= 1;
                            if stacksim_obs::enabled() {
                                stacksim_obs::counter(super::obs::RUNNER_RETRIES).add(1);
                            }
                            std::thread::sleep(backoff);
                            backoff = backoff.saturating_mul(2);
                        }
                        _ => return Err(e),
                    }
                }
            }
        }
    }

    /// One attempt: cache probe (with quarantine on corruption), then
    /// preflight and the run itself under `catch_unwind`.
    fn attempt_once(
        &self,
        exp: &dyn Experiment,
        deps: &HashMap<String, Arc<Artifact>>,
        report: &mut ExperimentReport,
        degrade: SolverDegrade,
    ) -> Result<Artifact, Error> {
        let name = report.name.clone();
        let digest = report.digest.clone();
        report.attempts += 1;
        match self.cache.load(&name, &digest) {
            Ok(Some(artifact)) => {
                report.cached = true;
                return Ok(artifact);
            }
            Ok(None) => {}
            Err(Error::CacheCorrupt { .. }) if self.resilience.quarantine => {
                // move the poisoned entry aside and recompute in place —
                // the run heals the cache instead of failing on it
                self.cache.quarantine(&name, &digest)?;
                report.quarantined = true;
            }
            Err(e) => return Err(e),
        }
        if self.preflight {
            super::check::preflight(&name, &self.params)?;
        }
        let ctx = Ctx::new(&name, self.params, deps.clone()).with_degrade(degrade);
        let run = catch_unwind(AssertUnwindSafe(|| {
            resilience::dispatch_fault(&name)?;
            let artifact = exp.run(&ctx)?;
            Ok((artifact, ctx.into_telemetry()))
        }));
        match run {
            Ok(Ok((artifact, telemetry))) => {
                report.telemetry = telemetry;
                self.cache.store(&name, &digest, &artifact)?;
                Ok(artifact)
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(Error::WorkerPanic {
                experiment: name.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_to_mebibytes() {
        let status = "Name:\tstacksim\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2.0));
        assert_eq!(parse_vm_hwm("Name:\tstacksim\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tlots\n"), None);
    }

    #[test]
    fn run_report_carries_peak_rss_where_available() {
        let report = RunReport {
            jobs: 1,
            wall_s: 0.5,
            entries: Vec::new(),
        };
        let doc = report.to_json();
        let rss = doc.get("peak_rss_mb").and_then(Json::as_f64);
        assert_eq!(rss.is_some(), peak_rss_mb().is_some());
        if cfg!(target_os = "linux") {
            assert!(rss.is_some_and(|mb| mb > 0.0), "{}", doc.encode());
        }
    }
}

//! Dependency-aware parallel execution of registered experiments.
//!
//! The runner expands a selection to its transitive dependency closure,
//! validates the graph (no cycles, no dangling edges), then fans the ready
//! set out across worker threads. Each experiment first consults the memo
//! cache; a hit skips the run entirely (telemetry shows zero solver
//! iterations), a miss runs, records telemetry and stores the artifact.

use std::collections::{HashMap, HashSet, VecDeque};
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

/// How a [`Runner`] executes.
///
/// `#[non_exhaustive]`: construct via [`RunOptions::builder`] (or start
/// from [`RunOptions::default`] and set fields) so new knobs can land
/// without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunOptions {
    /// Workload parameters handed to every experiment.
    pub params: WorkloadParams,
    /// Worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// The memo cache (disabled by default).
    pub cache: MemoCache,
    /// Run the `stacksim check` lint passes over an experiment's model
    /// before dispatching it (cache misses only — a hit proves the same
    /// configuration already ran to completion). On by default; invalid
    /// models fail fast with [`Error::InvalidModel`] instead of panicking
    /// mid-run.
    pub preflight: bool,
    /// Failure-handling policy: transient retries, cache quarantine, the
    /// solver degradation ladder, and per-experiment budgets.
    pub resilience: Resilience,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            params: WorkloadParams::paper(),
            jobs: 0,
            cache: MemoCache::disabled(),
            preflight: true,
            resilience: Resilience::default(),
        }
    }
}

impl RunOptions {
    /// Starts a builder at the defaults (paper-scale params, one worker
    /// per CPU, disabled cache, preflight on, default resilience).
    #[must_use]
    pub fn builder() -> RunOptionsBuilder {
        RunOptionsBuilder {
            options: RunOptions::default(),
        }
    }
}

/// Builds a [`RunOptions`]; the supported way to construct one now that
/// the struct is `#[non_exhaustive]`.
#[derive(Debug, Clone)]
pub struct RunOptionsBuilder {
    options: RunOptions,
}

impl RunOptionsBuilder {
    /// Workload parameters handed to every experiment.
    #[must_use]
    pub fn params(mut self, params: WorkloadParams) -> Self {
        self.options.params = params;
        self
    }

    /// Worker threads; `0` means one per available CPU.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Run everything on one worker thread (`jobs = 1`).
    #[must_use]
    pub fn serial(self) -> Self {
        self.jobs(1)
    }

    /// The memo cache to consult and fill.
    #[must_use]
    pub fn cache(mut self, cache: MemoCache) -> Self {
        self.options.cache = cache;
        self
    }

    /// Whether to lint an experiment's model before a cache-missing run.
    #[must_use]
    pub fn preflight(mut self, preflight: bool) -> Self {
        self.options.preflight = preflight;
        self
    }

    /// The failure-handling policy.
    #[must_use]
    pub fn resilience(mut self, resilience: Resilience) -> Self {
        self.options.resilience = resilience;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> RunOptions {
        self.options
    }
}

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
    /// Per-experiment rows, in dependency (schedule) order.
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

/// Executes experiments from a [`Registry`] under [`RunOptions`].
#[derive(Debug)]
pub struct Runner {
    registry: Registry,
    options: RunOptions,
}

struct State {
    ready: VecDeque<String>,
    remaining_deps: HashMap<String, usize>,
    dependents: HashMap<String, Vec<String>>,
    results: HashMap<String, Arc<Artifact>>,
    failed: HashSet<String>,
    reports: Vec<ExperimentReport>,
    errors: Vec<(String, Error)>,
    active: usize,
    done: usize,
    total: usize,
}

impl Runner {
    /// Pairs a registry with run options.
    pub fn new(registry: Registry, options: RunOptions) -> Self {
        Runner { registry, options }
    }

    /// Runs every registered experiment.
    ///
    /// # Errors
    ///
    /// Structural registry problems only; per-experiment failures are
    /// recorded in the outcome.
    pub fn run_all(&self) -> Result<RunOutcome, Error> {
        let names: Vec<String> = self
            .registry
            .names()
            .into_iter()
            .map(str::to_string)
            .collect();
        self.run(&names)
    }

    /// Runs a selection of experiments (plus their transitive
    /// dependencies) and returns artifacts and telemetry.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownExperiment`] for names not in the registry,
    /// [`Error::MissingDependency`] for dangling dependency edges and
    /// [`Error::DependencyCycle`] for cyclic graphs. Failures *inside*
    /// experiments do not abort the run; they are recorded in
    /// [`RunOutcome::errors`] and the report.
    pub fn run(&self, names: &[String]) -> Result<RunOutcome, Error> {
        let start = Instant::now();
        let selection = self.expand(names)?;
        let total = selection.len();
        let mut run_span = stacksim_obs::span(super::obs::EVENT_RUN);
        run_span.field("experiments", total as u64);

        // Kahn's algorithm both validates acyclicity and seeds the ready
        // queue deterministically (registration order among ties).
        let mut remaining_deps = HashMap::new();
        let mut dependents: HashMap<String, Vec<String>> = HashMap::new();
        for name in &selection {
            let exp = self.registry.get(name).ok_or_else(|| Error::Internal {
                detail: format!("selection '{name}' vanished from the registry"),
            })?;
            let deps = exp.deps();
            remaining_deps.insert(name.clone(), deps.len());
            for dep in deps {
                dependents.entry(dep).or_default().push(name.clone());
            }
        }
        {
            let mut counts = remaining_deps.clone();
            let mut queue: VecDeque<&String> = selection
                .iter()
                .filter(|n| counts.get(*n) == Some(&0))
                .collect();
            let mut seen = 0;
            while let Some(n) = queue.pop_front() {
                seen += 1;
                for d in dependents.get(n.as_str()).into_iter().flatten() {
                    let Some(c) = counts.get_mut(d) else {
                        return Err(Error::Internal {
                            detail: format!("dependent '{d}' missing from the selection"),
                        });
                    };
                    *c -= 1;
                    if *c == 0 {
                        queue.push_back(d);
                    }
                }
            }
            if seen != total {
                let on_cycle = selection
                    .iter()
                    .find(|n| counts.get(*n).is_some_and(|c| *c > 0))
                    .ok_or_else(|| Error::Internal {
                        detail: "cycle detected but no node with open deps".to_string(),
                    })?;
                return Err(Error::DependencyCycle {
                    name: on_cycle.clone(),
                });
            }
        }

        let ready: VecDeque<String> = selection
            .iter()
            .filter(|n| remaining_deps.get(*n) == Some(&0))
            .cloned()
            .collect();
        let state = Mutex::new(State {
            ready,
            remaining_deps,
            dependents,
            results: HashMap::new(),
            failed: HashSet::new(),
            reports: Vec::new(),
            errors: Vec::new(),
            active: 0,
            done: 0,
            total,
        });
        let cv = Condvar::new();

        let jobs = if self.options.jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.options.jobs
        };
        let workers = jobs.min(total.max(1));

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker(&state, &cv));
            }
        });

        // A worker can only poison the mutex by panicking between lock and
        // unlock; the state it guards is still structurally sound, so
        // recover it rather than cascading the panic.
        let mut st = state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // report rows in deterministic (selection) order; unknown names
        // (impossible unless a worker misbehaved) sort last
        st.reports.sort_by_key(|r| {
            selection
                .iter()
                .position(|n| *n == r.name)
                .unwrap_or(usize::MAX)
        });
        let wall_s = start.elapsed().as_secs_f64();
        run_span.field("wall_us", (wall_s * 1e6) as u64);
        drop(run_span);
        Ok(RunOutcome {
            report: RunReport {
                jobs: workers,
                wall_s,
                entries: st.reports,
            },
            artifacts: st.results,
            errors: st.errors,
        })
    }

    /// Expands names to the transitive dependency closure, in
    /// registration order.
    fn expand(&self, names: &[String]) -> Result<Vec<String>, Error> {
        let mut wanted = HashSet::new();
        let mut stack = Vec::new();
        for name in names {
            if self.registry.get(name).is_none() {
                return Err(Error::UnknownExperiment { name: name.clone() });
            }
            if wanted.insert(name.clone()) {
                stack.push(name.clone());
            }
        }
        while let Some(name) = stack.pop() {
            let exp = self.registry.get(&name).ok_or_else(|| Error::Internal {
                detail: format!("'{name}' vanished from the registry mid-expansion"),
            })?;
            for dep in exp.deps() {
                if self.registry.get(&dep).is_none() {
                    return Err(Error::MissingDependency {
                        experiment: name.clone(),
                        dependency: dep,
                    });
                }
                if wanted.insert(dep.clone()) {
                    stack.push(dep);
                }
            }
        }
        Ok(self
            .registry
            .names()
            .into_iter()
            .filter(|n| wanted.contains(*n))
            .map(str::to_string)
            .collect())
    }

    /// Locks the scheduler state, recovering from poisoning (the guarded
    /// bookkeeping stays structurally sound even if a worker panicked).
    fn lock_state<'a>(state: &'a Mutex<State>) -> std::sync::MutexGuard<'a, State> {
        state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn worker(&self, state: &Mutex<State>, cv: &Condvar) {
        loop {
            let name = {
                let mut st = Self::lock_state(state);
                loop {
                    if let Some(n) = st.ready.pop_front() {
                        st.active += 1;
                        break Some(n);
                    }
                    if st.done == st.total {
                        break None;
                    }
                    st = cv
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };
            let Some(name) = name else {
                cv.notify_all();
                return;
            };

            let outcome = match self.registry.get(&name) {
                Some(exp) => {
                    let deps: HashMap<String, Arc<Artifact>> = {
                        let st = Self::lock_state(state);
                        exp.deps()
                            .into_iter()
                            .filter_map(|d| st.results.get(&d).map(|a| (d, a.clone())))
                            .collect()
                    };
                    self.execute(exp.as_ref(), deps)
                }
                None => {
                    // Unreachable unless the registry changed under us;
                    // record the invariant violation instead of panicking
                    // the worker pool.
                    let error = Error::Internal {
                        detail: format!("scheduled experiment '{name}' is not registered"),
                    };
                    let mut report = ExperimentReport::blank(&name, String::new());
                    report.error = Some(error.to_string());
                    report.error_kind = Some(error.kind().to_string());
                    (report, Err(error))
                }
            };

            let mut st = Self::lock_state(state);
            st.active -= 1;
            st.done += 1;
            match outcome {
                (report, Ok(artifact)) => {
                    let artifact = Arc::new(artifact);
                    st.results.insert(name.clone(), artifact);
                    st.reports.push(report);
                    let unblocked: Vec<String> =
                        st.dependents.get(&name).cloned().unwrap_or_default();
                    for d in unblocked {
                        // absent counters (impossible for a selected
                        // dependent) are simply left alone
                        if let Some(c) = st.remaining_deps.get_mut(&d) {
                            *c -= 1;
                            if *c == 0 && !st.failed.contains(&d) {
                                st.ready.push_back(d);
                            }
                        }
                    }
                }
                (report, Err(error)) => {
                    st.reports.push(report);
                    st.errors.push((name.clone(), error));
                    Self::fail_dependents(&mut st, &name);
                }
            }
            cv.notify_all();
        }
    }

    /// Marks every transitive dependent of `root` as skipped.
    fn fail_dependents(st: &mut State, root: &str) {
        st.failed.insert(root.to_string());
        let mut queue: VecDeque<String> =
            st.dependents.get(root).cloned().unwrap_or_default().into();
        while let Some(name) = queue.pop_front() {
            if !st.failed.insert(name.clone()) {
                continue;
            }
            st.done += 1;
            if stacksim_obs::enabled() {
                stacksim_obs::counter(super::obs::FAILURES).add(1);
            }
            let skip = Error::DependencyFailed {
                experiment: name.clone(),
                dependency: root.to_string(),
            };
            let mut report = ExperimentReport::blank(&name, String::new());
            report.error = Some(skip.to_string());
            report.error_kind = Some(skip.kind().to_string());
            st.reports.push(report);
            for d in st.dependents.get(&name).into_iter().flatten() {
                queue.push_back(d.clone());
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
        let digest = exp.params_digest(&self.options.params);
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

    /// The resilience loop around [`Runner::attempt_once`]: retries
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
        let policy = &self.options.resilience;
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
        match self.options.cache.load(&name, &digest) {
            Ok(Some(artifact)) => {
                report.cached = true;
                return Ok(artifact);
            }
            Ok(None) => {}
            Err(Error::CacheCorrupt { .. }) if self.options.resilience.quarantine => {
                // move the poisoned entry aside and recompute in place —
                // the run heals the cache instead of failing on it
                self.options.cache.quarantine(&name, &digest)?;
                report.quarantined = true;
            }
            Err(e) => return Err(e),
        }
        if self.options.preflight {
            super::check::preflight(&name, &self.options.params)?;
        }
        let ctx = Ctx::new(&name, self.options.params, deps.clone()).with_degrade(degrade);
        let run = catch_unwind(AssertUnwindSafe(|| {
            resilience::dispatch_fault(&name)?;
            let artifact = exp.run(&ctx)?;
            Ok((artifact, ctx.into_telemetry()))
        }));
        match run {
            Ok(Ok((artifact, telemetry))) => {
                report.telemetry = telemetry;
                self.options.cache.store(&name, &digest, &artifact)?;
                Ok(artifact)
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(Error::WorkerPanic {
                experiment: name.clone(),
            }),
        }
    }
}

/// Runs a single experiment (plus dependencies) with a disabled cache —
/// the one-call library path for embedders and tests that want one
/// artifact without a [`Sim`](super::Sim) session (`stacksim run` goes
/// through the session).
///
/// # Errors
///
/// Structural registry problems, or the first root-cause experiment
/// failure.
pub fn run_one(name: &str, params: WorkloadParams) -> Result<Artifact, Error> {
    let runner = Runner::new(
        Registry::standard(),
        RunOptions {
            params,
            ..RunOptions::default()
        },
    );
    let mut outcome = runner.run(&[name.to_string()])?;
    if let Some(artifact) = outcome.artifacts.remove(name) {
        return Ok(Arc::try_unwrap(artifact).unwrap_or_else(|a| (*a).clone()));
    }
    match outcome.errors.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Err(Error::ArtifactUnavailable {
            experiment: name.to_string(),
            wanted: name.to_string(),
        }),
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

//! The [`Sim`] session: an embed-or-serve facade over the experiment
//! harness.
//!
//! A `Sim` is constructed once (via [`SimBuilder`]) and then accepts any
//! number of typed [`ExperimentRequest`]s over its lifetime. It owns what
//! used to be per-CLI-process state — the experiment [`Registry`], the
//! shared (optionally sharded and size-bounded) [`MemoCache`], the
//! resilience policy, and an optional fault plan — so a long-running
//! process (the `stacksim serve` daemon, a test harness, an exploration
//! driver) can serve thousands of requests from one warm cache.
//!
//! # Request lifecycle
//!
//! ```text
//! submit ──▶ Queued ──▶ Running ──▶ Done
//!    │          ▲
//!    └── dedup ─┘   (identical in-flight config: same slot, same handle)
//! ```
//!
//! * **submit** resolves the request against the session's base
//!   parameters, digests it (the digest is the memo-cache key, so
//!   parameterised variants are first-class), and returns a
//!   [`RequestHandle`] immediately.
//! * **dedup** — a request whose `(experiment, digest, faults)` triple
//!   matches one already queued or running does not enqueue new work: it
//!   receives a handle to the existing slot (observable via
//!   [`RequestHandle::id`] and the `serve.dedup_hits` counter). The
//!   underlying experiment runs exactly once.
//! * **batching** — the scheduler thread drains the queue, groups
//!   requests with identical workload parameters, fault setting and
//!   deadline, and runs each group as one batch on a scoped worker pool,
//!   so concurrent requests share dependency scheduling and worker
//!   threads. Batches run one at a time: an opted-in batch arms the
//!   process-global fault plane.
//! * **Done** — the handle yields a [`RequestOutcome`]: the per-request
//!   [`ExperimentReport`] (telemetry, cache/attempt accounting) and the
//!   artifact on success. A request finishes as soon as its own
//!   experiment does (or, skipped, as soon as the dependency that doomed
//!   it fails), on the executor worker that finished it — not when the
//!   rest of its batch does. The one exception is the batch's last
//!   request: it finishes after the batch's [`RunOutcome`] is recorded,
//!   so waiting on every handle of a batch and then calling
//!   [`Sim::drain_outcomes`] returns that batch. A request releases its
//!   admission slot and its dedup entry before its waiters wake.
//!
//! Dropping the `Sim` (or calling [`Sim::shutdown`]) drains: everything
//! already submitted still runs to completion before the scheduler exits.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use stacksim_faults::FaultPlan;
use stacksim_workloads::{Scale, WorkloadParams};

use super::artifact::Artifact;
use super::cache::MemoCache;
use super::experiment::Experiment;
use super::registry::Registry;
use super::resilience::Resilience;
use super::runner::{Batch, ExperimentReport, RunOutcome};
use crate::error::Error;

/// A typed request for one experiment, optionally overriding the
/// session's base workload parameters (a *parameterised variant*). Every
/// override is folded into the experiment digest, so variants memoize
/// independently and identical variants deduplicate.
#[derive(Debug, Clone)]
pub struct ExperimentRequest {
    name: String,
    scale: Option<Scale>,
    seed: Option<u64>,
    threads: Option<usize>,
    chunk: Option<usize>,
    solver_threads: Option<usize>,
    faults: bool,
    deadline_ms: Option<u64>,
}

impl ExperimentRequest {
    /// A request for the named experiment at the session's base
    /// parameters.
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentRequest {
            name: name.into(),
            scale: None,
            seed: None,
            threads: None,
            chunk: None,
            solver_threads: None,
            faults: false,
            deadline_ms: None,
        }
    }

    /// The experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Override the generation scale.
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Override the trace seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Override the workload thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Override the interleave chunk.
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Override the solver worker threads (execution-only: results are
    /// bit-identical for any value, so this does not split the cache).
    #[must_use]
    pub fn solver_threads(mut self, solver_threads: usize) -> Self {
        self.solver_threads = Some(solver_threads);
        self
    }

    /// Opt this request into the session's fault plan (chaos testing).
    /// Fault-injected requests never deduplicate against clean ones.
    #[must_use]
    pub fn faults(mut self, faults: bool) -> Self {
        self.faults = faults;
        self
    }

    /// A per-request wall-clock budget in milliseconds, fed into the
    /// batch's [`Resilience::deadline_s`] recovery budget: once it runs
    /// out no further retries or ladder rungs are tried and the request
    /// fails with [`Error::DeadlineExceeded`](crate::Error), releasing
    /// its scheduler slot. Execution policy only — it never splits the
    /// memo-cache digest, but requests with different deadlines do not
    /// deduplicate onto each other.
    #[must_use]
    pub fn deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The canonical journal encoding of this request (every set field,
    /// in fixed order) — also the identity key recovery deduplicates by.
    pub(crate) fn to_journal_json(&self) -> super::json::Json {
        use super::json::Json;
        let mut fields = vec![("experiment", Json::Str(self.name.clone()))];
        if let Some(scale) = self.scale {
            let label = match scale {
                Scale::Test => "test",
                Scale::Paper => "paper",
            };
            fields.push(("scale", Json::Str(label.to_string())));
        }
        if let Some(seed) = self.seed {
            fields.push(("seed", Json::Num(seed as f64)));
        }
        if let Some(threads) = self.threads {
            fields.push(("threads", Json::Num(threads as f64)));
        }
        if let Some(chunk) = self.chunk {
            fields.push(("chunk", Json::Num(chunk as f64)));
        }
        if let Some(solver_threads) = self.solver_threads {
            fields.push(("solver_threads", Json::Num(solver_threads as f64)));
        }
        if self.faults {
            fields.push(("faults", Json::Bool(true)));
        }
        if let Some(deadline_ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::Num(deadline_ms as f64)));
        }
        Json::obj(fields)
    }

    /// Decodes a journal `request` object back into a request. `None`
    /// when required fields are missing or mistyped (the recovery path
    /// treats that as a corrupt record, never an error).
    pub(crate) fn from_journal_json(doc: &super::json::Json) -> Option<ExperimentRequest> {
        use super::json::Json;
        let mut req = ExperimentRequest::new(doc.get("experiment").and_then(Json::as_str)?);
        if let Some(scale) = doc.get("scale") {
            req.scale = Some(match scale.as_str()? {
                "test" => Scale::Test,
                "paper" => Scale::Paper,
                _ => return None,
            });
        }
        if let Some(v) = doc.get("seed") {
            req.seed = Some(v.as_u64()?);
        }
        if let Some(v) = doc.get("threads") {
            req.threads = Some(v.as_u64()? as usize);
        }
        if let Some(v) = doc.get("chunk") {
            req.chunk = Some(v.as_u64()? as usize);
        }
        if let Some(v) = doc.get("solver_threads") {
            req.solver_threads = Some(v.as_u64()? as usize);
        }
        if let Some(v) = doc.get("faults") {
            req.faults = v.as_bool()?;
        }
        if let Some(v) = doc.get("deadline_ms") {
            req.deadline_ms = Some(v.as_u64()?);
        }
        Some(req)
    }

    /// The request's effective workload parameters over a session base.
    ///
    /// # Errors
    ///
    /// [`Error::Internal`] when the overridden parameters are invalid
    /// (e.g. zero threads).
    pub fn resolve(&self, base: &WorkloadParams) -> Result<WorkloadParams, Error> {
        let mut p = *base;
        if let Some(scale) = self.scale {
            p.scale = scale;
        }
        if let Some(seed) = self.seed {
            p.seed = seed;
        }
        if let Some(threads) = self.threads {
            p.threads = threads;
        }
        if let Some(chunk) = self.chunk {
            p.chunk = chunk;
        }
        if let Some(solver_threads) = self.solver_threads {
            p.solver_threads = solver_threads;
        }
        p.validate().map_err(|e| Error::Internal {
            detail: format!("request '{}' rejected: {e}", self.name),
        })?;
        Ok(p)
    }
}

/// Where a submitted request currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Accepted, waiting for the scheduler to batch it.
    Queued,
    /// Picked up by the scheduler; its batch is running and its own
    /// experiment has not finished yet.
    Running,
    /// Finished — [`RequestHandle::try_outcome`] yields the result.
    Done,
}

impl RequestStatus {
    /// Stable lowercase label (`queued` / `running` / `done`), as served
    /// by the HTTP status endpoint.
    pub fn label(&self) -> &'static str {
        match self {
            RequestStatus::Queued => "queued",
            RequestStatus::Running => "running",
            RequestStatus::Done => "done",
        }
    }
}

/// Everything one finished request produced.
#[derive(Debug)]
pub struct RequestOutcome {
    /// The per-experiment report row: digest, cache/attempt accounting,
    /// telemetry, and the error if the run failed.
    pub report: ExperimentReport,
    /// The artifact, on success.
    pub artifact: Option<Arc<Artifact>>,
}

impl RequestOutcome {
    /// Whether the request produced an artifact.
    pub fn is_ok(&self) -> bool {
        self.artifact.is_some()
    }
}

/// One submitted request's slot: shared by every deduplicated handle.
struct Slot {
    id: u64,
    /// The experiment `submit` resolved from the registry.
    exp: Arc<dyn Experiment>,
    digest: String,
    params: WorkloadParams,
    faults: bool,
    deadline_ms: Option<u64>,
    status: Mutex<SlotState>,
    done: Condvar,
}

/// The dedup key: requests are identical when the experiment, digest,
/// fault opt-in *and deadline* all match (a deadline is execution
/// policy, so it must not silently widen or narrow someone else's
/// budget).
type DedupKey = (String, String, bool, Option<u64>);

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("id", &self.id)
            .field("name", &self.exp.name())
            .field("digest", &self.digest)
            .finish_non_exhaustive()
    }
}

impl Slot {
    fn dedup_key(&self) -> DedupKey {
        (
            self.exp.name().to_string(),
            self.digest.clone(),
            self.faults,
            self.deadline_ms,
        )
    }
}

#[derive(Debug)]
enum SlotState {
    Queued,
    Running,
    Done(Arc<RequestOutcome>),
}

impl Slot {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.status
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn finish(&self, outcome: RequestOutcome) {
        *self.lock() = SlotState::Done(Arc::new(outcome));
        self.done.notify_all();
    }
}

/// A pollable/awaitable handle to one submitted request. Clones (and
/// deduplicated submissions) share the same underlying slot.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    slot: Arc<Slot>,
}

impl RequestHandle {
    /// The session-unique request id. Deduplicated submissions return the
    /// *same* id — two handles with equal ids share one execution.
    pub fn id(&self) -> u64 {
        self.slot.id
    }

    /// The experiment name.
    pub fn name(&self) -> &str {
        self.slot.exp.name()
    }

    /// The request's configuration digest (its memo-cache key).
    pub fn digest(&self) -> &str {
        &self.slot.digest
    }

    /// The effective workload parameters this request runs under.
    pub fn params(&self) -> WorkloadParams {
        self.slot.params
    }

    /// Whether this request opted into fault injection.
    pub fn faults(&self) -> bool {
        self.slot.faults
    }

    /// The request's current lifecycle state.
    pub fn status(&self) -> RequestStatus {
        match &*self.slot.lock() {
            SlotState::Queued => RequestStatus::Queued,
            SlotState::Running => RequestStatus::Running,
            SlotState::Done(_) => RequestStatus::Done,
        }
    }

    /// The outcome, if the request already finished.
    pub fn try_outcome(&self) -> Option<Arc<RequestOutcome>> {
        match &*self.slot.lock() {
            SlotState::Done(outcome) => Some(outcome.clone()),
            _ => None,
        }
    }

    /// Blocks until the request finishes and returns its outcome. That is
    /// when its own experiment finishes, even if other requests of its
    /// batch are still running; only once every handle of a batch has
    /// returned is the batch's outcome sure to be in
    /// [`Sim::drain_outcomes`].
    pub fn wait(&self) -> Arc<RequestOutcome> {
        let mut st = self.slot.lock();
        loop {
            if let SlotState::Done(outcome) = &*st {
                return outcome.clone();
            }
            st = self
                .slot
                .done
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocks until the request finishes *or* `timeout` elapses — the
    /// bounded long-poll the HTTP status endpoint is built on, so a slow
    /// experiment can never pin a connection worker indefinitely.
    /// Returns `None` on timeout; the request keeps running.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<Arc<RequestOutcome>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.slot.lock();
        loop {
            if let SlotState::Done(outcome) = &*st {
                return Some(outcome.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            st = self
                .slot
                .done
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

/// A point-in-time snapshot of the session's request accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Requests submitted (dedup hits included).
    pub submitted: u64,
    /// Submissions coalesced onto an identical in-flight request.
    pub dedup_hits: u64,
    /// Requests currently queued or running.
    pub inflight: u64,
    /// Requests finished. Each request is counted before its handles are
    /// woken, so a caller returning from [`RequestHandle::wait`] already
    /// sees its own request here.
    pub completed: u64,
}

/// Undrained batch outcomes a session keeps; older ones are dropped
/// first. A session nobody drains (the `serve` daemon) would otherwise
/// hold every batch's report and artifacts forever, while a caller that
/// does drain (a cold exploration drains after about ten batches) never
/// comes near the bound.
pub const MAX_UNDRAINED_OUTCOMES: usize = 256;

/// Scheduler bookkeeping, behind the session mutex.
struct SchedState {
    /// Submitted slots the scheduler has not picked up yet, in order.
    pending: Vec<Arc<Slot>>,
    /// Queued *or running* slots by [`DedupKey`].
    inflight: HashMap<DedupKey, Arc<Slot>>,
    /// Raw outcomes of the latest [`MAX_UNDRAINED_OUTCOMES`] batches not
    /// drained yet, for callers that want the batch-level report (the
    /// CLI, explore's perf harness).
    outcomes: VecDeque<RunOutcome>,
    /// Slots taken into a batch and not finished yet.
    running: usize,
    paused: bool,
    shutdown: bool,
    next_id: u64,
}

struct Inner {
    registry: Registry,
    base: WorkloadParams,
    jobs: usize,
    cache: MemoCache,
    preflight: bool,
    resilience: Resilience,
    fault_plan: Option<FaultPlan>,
    /// A plan the *caller* armed process-wide (network chaos) that must
    /// be restored — not disarmed — after an opted-in batch.
    ambient_plan: Option<FaultPlan>,
    /// Admission bound: submissions that would push the queued+running
    /// count past this are shed with [`Error::Overloaded`].
    max_pending: Option<usize>,
    /// The crash-recovery journal, when the session is durable.
    journal: Option<Arc<super::journal::RequestJournal>>,
    state: Mutex<SchedState>,
    /// Wakes the scheduler on submit / resume / shutdown.
    work: Condvar,
    submitted: AtomicU64,
    dedup_hits: AtomicU64,
    completed: AtomicU64,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn inflight_of(st: &SchedState) -> u64 {
        (st.pending.len() + st.running) as u64
    }

    fn publish_inflight(st: &SchedState) {
        if stacksim_obs::enabled() {
            stacksim_obs::gauge(super::obs::SERVE_INFLIGHT).set(Self::inflight_of(st) as f64);
        }
    }
}

/// Configures and constructs a [`Sim`] session.
#[derive(Debug)]
pub struct SimBuilder {
    registry: Option<Registry>,
    base: WorkloadParams,
    jobs: usize,
    cache: MemoCache,
    preflight: bool,
    resilience: Resilience,
    fault_plan: Option<FaultPlan>,
    ambient_plan: Option<FaultPlan>,
    max_pending: Option<usize>,
    journal: Option<Arc<super::journal::RequestJournal>>,
    start_paused: bool,
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder {
            registry: None,
            base: WorkloadParams::paper(),
            jobs: 0,
            cache: MemoCache::disabled(),
            preflight: true,
            resilience: Resilience::default(),
            fault_plan: None,
            ambient_plan: None,
            max_pending: None,
            journal: None,
            start_paused: false,
        }
    }
}

impl SimBuilder {
    /// The experiment registry (defaults to [`Registry::standard`]).
    #[must_use]
    pub fn registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Base workload parameters requests resolve their overrides against.
    #[must_use]
    pub fn params(mut self, params: WorkloadParams) -> Self {
        self.base = params;
        self
    }

    /// Worker threads per batch; `0` means one per available CPU.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The session's shared memo cache.
    #[must_use]
    pub fn cache(mut self, cache: MemoCache) -> Self {
        self.cache = cache;
        self
    }

    /// Whether batches lint experiment models before cache-missing runs.
    #[must_use]
    pub fn preflight(mut self, preflight: bool) -> Self {
        self.preflight = preflight;
        self
    }

    /// The failure-handling policy every batch runs under.
    #[must_use]
    pub fn resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = resilience;
        self
    }

    /// The fault plan armed around requests that opt in via
    /// [`ExperimentRequest::faults`]. Without one, opted-in requests run
    /// clean.
    #[must_use]
    pub fn fault_plan(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.fault_plan = plan.into();
        self
    }

    /// A plan the caller armed process-wide *before* building the
    /// session (network-level chaos: `serve.*` / `session.*` rules).
    /// After an opted-in batch the scheduler re-arms this plan instead
    /// of disarming the fault plane, so ambient rules stay live for the
    /// session's whole lifetime. Rule evaluation counters reset at each
    /// re-arm; ambient plans should use `prob` or unlimited-`times`
    /// rules, which are insensitive to that.
    #[must_use]
    pub fn ambient_fault_plan(mut self, plan: impl Into<Option<FaultPlan>>) -> Self {
        self.ambient_plan = plan.into();
        self
    }

    /// Bound the admission queue: a submission that would push the
    /// queued+running request count past `max_pending` is shed with
    /// [`Error::Overloaded`] (and counted in `serve.shed`) instead of
    /// enqueued. Dedup hits are always admitted — they add no work.
    /// `None` (the default) admits everything.
    #[must_use]
    pub fn max_pending(mut self, max_pending: impl Into<Option<usize>>) -> Self {
        self.max_pending = max_pending.into();
        self
    }

    /// Journal accepted requests and terminal outcomes to this
    /// crash-recovery journal (see
    /// [`RequestJournal`](super::journal::RequestJournal)). Append
    /// failures degrade durability but never fail a request.
    #[must_use]
    pub fn journal(
        mut self,
        journal: impl Into<Option<Arc<super::journal::RequestJournal>>>,
    ) -> Self {
        self.journal = journal.into();
        self
    }

    /// Start with the scheduler paused: submissions queue (and
    /// deduplicate) but nothing runs until [`Sim::resume`]. This is how a
    /// caller batches a known set of requests into one batch.
    #[must_use]
    pub fn start_paused(mut self, paused: bool) -> Self {
        self.start_paused = paused;
        self
    }

    /// Builds the session and starts its scheduler thread.
    #[must_use]
    pub fn build(self) -> Sim {
        let inner = Arc::new(Inner {
            registry: self.registry.unwrap_or_else(Registry::standard),
            base: self.base,
            jobs: self.jobs,
            cache: self.cache,
            preflight: self.preflight,
            resilience: self.resilience,
            fault_plan: self.fault_plan,
            ambient_plan: self.ambient_plan,
            max_pending: self.max_pending,
            journal: self.journal,
            state: Mutex::new(SchedState {
                pending: Vec::new(),
                inflight: HashMap::new(),
                outcomes: VecDeque::new(),
                running: 0,
                paused: self.start_paused,
                shutdown: false,
                next_id: 0,
            }),
            work: Condvar::new(),
            submitted: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let scheduler = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("sim-scheduler".into())
                .spawn(move || scheduler_loop(&inner))
                .ok()
        };
        Sim {
            inner,
            scheduler: Mutex::new(scheduler),
        }
    }
}

/// A long-lived simulation session: submit [`ExperimentRequest`]s, poll
/// or await their [`RequestHandle`]s. See the [module docs](self) for the
/// request lifecycle.
pub struct Sim {
    inner: Arc<Inner>,
    scheduler: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("base", &self.inner.base)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Sim {
    /// Starts a builder at the defaults: standard registry, paper-scale
    /// base parameters, disabled cache, default resilience, no faults.
    #[must_use]
    pub fn builder() -> SimBuilder {
        SimBuilder::default()
    }

    /// The session's experiment registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The base workload parameters requests resolve against.
    pub fn base_params(&self) -> WorkloadParams {
        self.inner.base
    }

    /// Submits a request and returns its handle immediately.
    ///
    /// A request identical to one already queued or running (same
    /// experiment, same digest, same fault opt-in) is *deduplicated*: the
    /// returned handle shares the existing slot and id, and the
    /// experiment runs once.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownExperiment`] for names not in the registry;
    /// [`Error::Overloaded`] when admission control sheds the request
    /// (the queued+running count sits at the session's `max_pending`
    /// bound — nothing was enqueued, the caller may retry later);
    /// [`Error::Internal`] for invalid parameter overrides or a session
    /// already shut down.
    pub fn submit(&self, request: &ExperimentRequest) -> Result<RequestHandle, Error> {
        let params = request.resolve(&self.inner.base)?;
        let exp =
            self.inner
                .registry
                .get(request.name())
                .ok_or_else(|| Error::UnknownExperiment {
                    name: request.name().to_string(),
                })?;
        let digest = exp.params_digest(&params);
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        if stacksim_obs::enabled() {
            stacksim_obs::counter(super::obs::SERVE_REQUESTS).add(1);
        }

        let key = (
            request.name().to_string(),
            digest.clone(),
            request.faults,
            request.deadline_ms,
        );
        let mut st = self.inner.lock();
        if st.shutdown {
            return Err(Error::Internal {
                detail: "sim session is shut down".to_string(),
            });
        }
        // a finished slot has already left the table, so a
        // post-completion resubmission is new work (a cache hit at most)
        if let Some(slot) = st.inflight.get(&key) {
            self.inner.dedup_hits.fetch_add(1, Ordering::Relaxed);
            if stacksim_obs::enabled() {
                stacksim_obs::counter(super::obs::SERVE_DEDUP_HITS).add(1);
            }
            return Ok(RequestHandle { slot: slot.clone() });
        }
        // admission control, atomic with enqueue under the session lock:
        // a shed request allocates nothing and releases nothing
        if let Some(limit) = self.inner.max_pending {
            let inflight = Inner::inflight_of(&st);
            if inflight >= limit as u64 {
                if stacksim_obs::enabled() {
                    stacksim_obs::counter(super::obs::SERVE_SHED).add(1);
                }
                return Err(Error::Overloaded {
                    pending: inflight,
                    limit: limit as u64,
                });
            }
        }
        let slot = Arc::new(Slot {
            id: st.next_id,
            exp,
            digest,
            params,
            faults: request.faults,
            deadline_ms: request.deadline_ms,
            status: Mutex::new(SlotState::Queued),
            done: Condvar::new(),
        });
        st.next_id += 1;
        st.pending.push(slot.clone());
        st.inflight.insert(key, slot.clone());
        Inner::publish_inflight(&st);
        let id = slot.id;
        drop(st);
        // durability is best-effort: a failed append (disk gone, or the
        // session.journal fault site) degrades recovery, not the request
        if let Some(journal) = &self.inner.journal {
            let _ = journal.record_accepted(id, request);
        }
        self.inner.work.notify_all();
        Ok(RequestHandle { slot })
    }

    /// Unpauses a session built with
    /// [`start_paused`](SimBuilder::start_paused), releasing everything
    /// queued so far as (batched) work.
    pub fn resume(&self) {
        let mut st = self.inner.lock();
        st.paused = false;
        drop(st);
        self.inner.work.notify_all();
    }

    /// Takes the accumulated batch-level [`RunOutcome`]s (one per batch
    /// the scheduler ran, oldest first; only the latest
    /// [`MAX_UNDRAINED_OUTCOMES`] are kept). The CLI uses this to render
    /// the classic run report; per-request callers use
    /// [`RequestHandle`]s.
    ///
    /// A batch's outcome is recorded before its last request finishes,
    /// while its other requests may finish earlier. So after waiting on
    /// every handle of a batch, this returns that batch, rows in
    /// registration order.
    pub fn drain_outcomes(&self) -> Vec<RunOutcome> {
        std::mem::take(&mut self.inner.lock().outcomes).into()
    }

    /// A snapshot of the session's request accounting.
    pub fn stats(&self) -> SimStats {
        let inflight = Inner::inflight_of(&self.inner.lock());
        SimStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            dedup_hits: self.inner.dedup_hits.load(Ordering::Relaxed),
            inflight,
            completed: self.inner.completed.load(Ordering::Relaxed),
        }
    }

    /// Shuts the session down gracefully: everything already submitted
    /// still runs (a paused session is resumed for the drain), then the
    /// scheduler thread exits and is joined. Further submissions fail.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
            st.paused = false;
        }
        self.inner.work.notify_all();
        let handle = self
            .scheduler
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The scheduler thread: drain pending requests in batches of identical
/// `(params, faults)` until shutdown — and on shutdown, finish the drain
/// before exiting.
fn scheduler_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut st = inner.lock();
            loop {
                // a shutdown drains: paused is overridden, pending still runs
                if !st.pending.is_empty() && (!st.paused || st.shutdown) {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = inner
                    .work
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            // group the head request with every pending request sharing
            // its workload parameters and fault setting (submission order
            // is preserved for the rest)
            let Some(head) = st.pending.first().cloned() else {
                continue;
            };
            let mut batch = Vec::new();
            let mut rest = Vec::new();
            for slot in std::mem::take(&mut st.pending) {
                if slot.params == head.params
                    && slot.faults == head.faults
                    && slot.deadline_ms == head.deadline_ms
                {
                    batch.push(slot);
                } else {
                    rest.push(slot);
                }
            }
            st.pending = rest;
            st.running += batch.len();
            for slot in &batch {
                *slot.lock() = SlotState::Running;
            }
            batch
        };

        // a panic escaping the batch (an executor bug, a poisoned artifact)
        // must not kill the scheduler thread: every handle into this batch
        // would block in `wait()` forever, and every later submission
        // would queue unserved. Contain it and fail the batch's slots.
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(inner, &batch);
        }));
        if run.is_err() {
            restore_fault_plane(inner);
            for slot in &batch {
                if matches!(&*slot.lock(), SlotState::Done(_)) {
                    continue;
                }
                let outcome = RequestOutcome {
                    report: panicked_report(slot),
                    artifact: None,
                };
                finish_slot(inner, slot, outcome);
            }
        }
    }
}

/// Runs one batch on the executor, arming the session fault plan around
/// it when the batch opted in. Each slot finishes as its experiment
/// does; the last one after the batch outcome is recorded.
fn run_batch(inner: &Inner, batch: &[Arc<Slot>]) {
    let Some(head) = batch.first() else {
        return;
    };
    let mut resilience = inner.resilience.clone();
    if let Some(deadline_ms) = head.deadline_ms {
        // the per-request budget propagates into the executor's existing
        // deadline machinery; when the session policy already carries a
        // deadline, the tighter one wins
        let request_s = deadline_ms as f64 / 1000.0;
        resilience.deadline_s = Some(match resilience.deadline_s {
            Some(policy_s) => policy_s.min(request_s),
            None => request_s,
        });
    }
    let settings = Batch {
        registry: &inner.registry,
        cache: &inner.cache,
        jobs: inner.jobs,
        preflight: inner.preflight,
        params: head.params,
        resilience,
    };
    let roots: Vec<Arc<dyn Experiment>> = batch.iter().map(|s| s.exp.clone()).collect();

    // each slot finishes the moment its experiment does, except the
    // batch's last one: it waits until the batch outcome is recorded, so
    // a caller that waited on every handle then drains sees this batch.
    // A batch never holds two slots of one name (same name, params,
    // faults and deadline is one dedup key).
    let by_name: HashMap<&str, &Arc<Slot>> = batch.iter().map(|s| (s.exp.name(), s)).collect();
    let unfinished = AtomicUsize::new(batch.len());
    let last = OnceLock::new();
    let on_finish = |row: &ExperimentReport, artifact: Option<&Arc<Artifact>>| {
        // rows of dependencies nobody requested have no slot
        let Some(&slot) = by_name.get(row.name.as_str()) else {
            return;
        };
        let outcome = RequestOutcome {
            report: row.clone(),
            artifact: artifact.cloned(),
        };
        if unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _ = last.set((slot, outcome));
        } else {
            finish_slot(inner, slot, outcome);
        }
    };

    // batches run serially on this one scheduler thread, so arming the
    // process-global fault plane cannot leak into a clean batch. An
    // opted-in batch sees the experiment plan *plus* any ambient
    // (network-chaos) rules, and the ambient plan is restored after.
    let armed_here = head.faults && inner.fault_plan.is_some();
    if armed_here {
        if let Some(mut plan) = inner.fault_plan.clone() {
            if let Some(ambient) = &inner.ambient_plan {
                plan.rules.extend(ambient.rules.iter().cloned());
            }
            stacksim_faults::arm(plan);
        }
    }
    let outcome = settings.run(&roots, &on_finish);
    if armed_here {
        restore_fault_plane(inner);
    }

    let mut st = inner.lock();
    if st.outcomes.len() >= MAX_UNDRAINED_OUTCOMES {
        st.outcomes.pop_front();
    }
    st.outcomes.push_back(outcome);
    drop(st);
    if let Some((slot, outcome)) = last.into_inner() {
        finish_slot(inner, slot, outcome);
    }
}

/// Restores the process-global fault plane after an opted-in batch: back
/// to the caller's ambient (network-chaos) plan when one exists, clean
/// otherwise.
fn restore_fault_plane(inner: &Inner) {
    match &inner.ambient_plan {
        Some(ambient) => stacksim_faults::arm(ambient.clone()),
        None => stacksim_faults::disarm(),
    }
}

/// Publishes a slot's terminal outcome: journals it, counts it (and an
/// expired deadline), releases its admission slot and dedup entry in one
/// step under the session lock, and only then wakes every waiter — so a
/// woken waiter's `stats()` already includes its own request, and its
/// next submission is neither shed nor deduplicated onto finished work.
fn finish_slot(inner: &Inner, slot: &Slot, outcome: RequestOutcome) {
    if outcome.report.error_kind.as_deref() == Some("deadline") && stacksim_obs::enabled() {
        stacksim_obs::counter(super::obs::SERVE_DEADLINE_EXCEEDED).add(1);
    }
    if let Some(journal) = &inner.journal {
        let _ = journal.record_done(slot.id, outcome.is_ok());
    }
    inner.completed.fetch_add(1, Ordering::Relaxed);
    let mut st = inner.lock();
    st.running = st.running.saturating_sub(1);
    st.inflight.remove(&slot.dedup_key());
    Inner::publish_inflight(&st);
    drop(st);
    slot.finish(outcome);
}

/// The report row for a slot a panicking batch left unfinished.
fn panicked_report(slot: &Slot) -> ExperimentReport {
    ExperimentReport {
        name: slot.exp.name().to_string(),
        digest: slot.digest.clone(),
        cached: false,
        wall_s: 0.0,
        error: Some(format!(
            "scheduler batch panicked while running '{}'",
            slot.exp.name()
        )),
        error_kind: Some("worker-panic".to_string()),
        attempts: 0,
        quarantined: false,
        fallback: None,
        telemetry: Default::default(),
    }
}

//! # stacksim-serve
//!
//! The `stacksim serve` daemon: a thin HTTP/JSON layer over the
//! embeddable [`Sim`] session API (`stacksim_core::harness`). The server
//! owns one long-lived `Sim` — one warm memo cache, one registry, one
//! resilience policy — and translates requests onto it; everything
//! interesting (dedup, batching, memoization, fault opt-in) happens in
//! the session, so embedded and served callers behave identically and
//! artifacts are bit-identical across both paths.
//!
//! ## Endpoints
//!
//! | Method & path | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness: `{"status":"ok"}` |
//! | `GET /metrics` | the `stacksim-obs/1` metrics snapshot |
//! | `POST /v1/experiments` | submit; body `{"experiment":"fig3", ...}` |
//! | `GET /v1/experiments/<id>` | status + report; `?wait=1` long-polls (bounded; `202` on timeout) |
//! | `GET /v1/experiments/<id>/artifact` | the artifact's canonical JSON, verbatim |
//! | `POST /v1/explore` | synchronous design-space search; returns the frontier artifact |
//!
//! Submission bodies accept the same parameter overrides as
//! [`ExperimentRequest`]: `seed`, `scale` (`"test"`/`"paper"`),
//! `threads`, `chunk`, `solver_threads`, `faults` (opt this request
//! into the server's armed fault plan), and `deadline_ms` (a
//! per-request execution deadline, tightened against the server's
//! resilience policy). Identical in-flight submissions deduplicate onto
//! one execution and return the same `id`.
//!
//! ## Overload protection and crash recovery
//!
//! With `--max-pending` the session sheds submissions beyond the bound
//! with `503 + Retry-After`; with `--max-conns` excess concurrent
//! connections are turned away at accept with `429`. During the SIGTERM
//! drain the socket keeps answering — late clients get an immediate
//! `503 + Retry-After` instead of a hung connect. When a journal is
//! configured, every accepted request is durably appended before the
//! submit response and replayed at boot after a crash; the memo cache
//! makes replay idempotent, so recovered artifacts are bit-identical.
//! The daemon answers for its latest 1024 finished requests; a `GET`
//! for an older id answers `404`, and resubmitting it is a memo-cache
//! hit.
//!
//! `POST /v1/explore` accepts `{"spec": {..}, "mode": "grid", "budget":
//! N, "seed": N}` (every field optional) and runs the search in a
//! short-lived session sharing the server's memo cache, parameters and
//! job count — so repeated or overlapping explorations are served from
//! the same cache entries as everything else. The response is the
//! canonical `stacksim-explore/1` artifact.
//!
//! The accept loop runs on the caller's thread ([`Server::run`]) with a
//! small worker pool for connections, and drains gracefully: when the
//! shutdown flag flips, the listener stops accepting, in-flight
//! connections finish, and the session completes everything already
//! submitted before `run` returns.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

use stacksim_core::harness::json::Json;
use stacksim_core::harness::resilience::SITE_SERVE_ACCEPT;
use stacksim_core::harness::{
    obs as harness_obs, ExperimentRequest, MemoCache, RequestHandle, RequestJournal, RequestStatus,
    Resilience, Sim,
};
use stacksim_explore::{ExploreConfig, ExploreError, SearchMode, SpaceSpec};
use stacksim_faults::{Fault, FaultPlan};
use stacksim_workloads::{Scale, WorkloadParams};

use http::{read_request, reject, respond, respond_with, Request};

/// The `Retry-After` hint (seconds) on load-shedding responses.
const RETRY_AFTER_S: &str = "1";
/// Longest bounded long-poll `GET /v1/experiments/<id>?wait=1` honours.
const MAX_WAIT_MS: u64 = 30_000;

/// How the daemon is configured; see field docs. `Default` gives a
/// loopback server at paper scale with a disabled cache.
#[derive(Debug)]
#[non_exhaustive]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:7878`. Port `0` picks a free one
    /// (see [`Server::local_addr`]).
    pub addr: String,
    /// Connection worker threads.
    pub pool: usize,
    /// Base workload parameters requests resolve overrides against.
    pub params: WorkloadParams,
    /// Worker threads per experiment batch; `0` means one per CPU.
    pub jobs: usize,
    /// The shared memo cache.
    pub cache: MemoCache,
    /// The failure-handling policy.
    pub resilience: Resilience,
    /// The fault plan requests may opt into with `"faults": true`.
    /// Rules targeting the network sites (`serve.*` / `session.*`) are
    /// split out and armed *ambiently* for the daemon's whole lifetime —
    /// network chaos is per-daemon, not per-request.
    pub fault_plan: Option<FaultPlan>,
    /// Admission bound: queued+running experiment requests beyond this
    /// are shed with `503 + Retry-After`. `0` admits everything.
    pub max_pending: usize,
    /// Concurrent-connection cap: connections beyond this are rejected
    /// at accept with `429 + Retry-After`. `0` accepts everything.
    pub max_conns: usize,
    /// Per-socket I/O timeout, doubling as the whole-request read
    /// deadline (the slowloris bound).
    pub io_timeout: Duration,
    /// Journal accepted requests here (`stacksim-journal/1`) and replay
    /// unfinished ones at boot. `None` disables crash recovery.
    pub journal: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            pool: 4,
            params: WorkloadParams::paper(),
            jobs: 0,
            cache: MemoCache::disabled(),
            resilience: Resilience::default(),
            fault_plan: None,
            max_pending: 0,
            max_conns: 0,
            io_timeout: http::DEFAULT_IO_TIMEOUT,
            journal: None,
        }
    }
}

/// Finished requests the daemon keeps answering for. Beyond this the
/// oldest are forgotten: their status and artifact GETs answer 404, and
/// resubmitting is a memo-cache hit.
const MAX_FINISHED_REQUESTS: usize = 1024;

/// Requests the daemon has accepted, by id, shared across connection
/// workers. Ids grow with submission order, so the map iterates oldest
/// first. It holds every unfinished request and at most
/// [`MAX_FINISHED_REQUESTS`] finished ones.
#[derive(Debug, Default)]
struct RequestMap {
    handles: Mutex<BTreeMap<u64, RequestHandle>>,
}

impl RequestMap {
    /// Tracks `handle` (a deduplicated submission replaces its own
    /// entry), then evicts the oldest finished requests beyond the cap.
    fn insert(&self, handle: RequestHandle) {
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        handles.insert(handle.id(), handle);
        let excess = handles.len().saturating_sub(MAX_FINISHED_REQUESTS);
        if excess == 0 {
            return;
        }
        let evicted: Vec<u64> = handles
            .iter()
            .filter(|(_, h)| h.status() == RequestStatus::Done)
            .map(|(&id, _)| id)
            .take(excess)
            .collect();
        for id in evicted {
            handles.remove(&id);
        }
    }

    fn get(&self, id: u64) -> Option<RequestHandle> {
        self.handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
    }
}

/// What `POST /v1/explore` builds its short-lived sessions from: the
/// server's own cache, base parameters and job count, so explorations
/// hit the same memo entries as every other request.
#[derive(Debug, Clone)]
struct ExploreEnv {
    params: WorkloadParams,
    jobs: usize,
    cache: MemoCache,
}

/// A bound (but not yet serving) daemon. Call [`Server::run`] to serve.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    sim: Arc<Sim>,
    requests: Arc<RequestMap>,
    pool: usize,
    max_conns: usize,
    io_timeout: Duration,
    explore_env: Arc<ExploreEnv>,
}

/// Answers a connection that is turned away *before* its request was
/// read (the 429 cap and the drain rejector): writes the rejection,
/// half-closes, then drains whatever the client had already sent —
/// closing with unread bytes queued would RST the response away.
fn reject_conn(stream: &mut TcpStream, status: u16, body: &str) {
    respond_with(
        stream,
        status,
        "application/json",
        &[("Retry-After", RETRY_AFTER_S)],
        body,
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 4096];
    while matches!(std::io::Read::read(stream, &mut sink), Ok(n) if n > 0) {}
}

/// Splits a plan into its ambient network-chaos rules (`serve.*` /
/// `session.*` sites, armed for the daemon's lifetime) and the
/// experiment rules requests opt into per-batch.
fn partition_plan(plan: Option<FaultPlan>) -> (Option<FaultPlan>, Option<FaultPlan>) {
    let Some(plan) = plan else {
        return (None, None);
    };
    let (net, exp): (Vec<_>, Vec<_>) = plan
        .rules
        .into_iter()
        .partition(|r| r.site.starts_with("serve.") || r.site.starts_with("session."));
    let wrap = |rules: Vec<stacksim_faults::FaultRule>| {
        (!rules.is_empty()).then_some(FaultPlan {
            seed: plan.seed,
            rules,
        })
    };
    (wrap(net), wrap(exp))
}

impl Server {
    /// Binds the listen socket, builds the [`Sim`] session, enables the
    /// process metrics registry (the `/metrics` source), arms any
    /// ambient network-fault rules, and — when a journal is configured —
    /// recovers it and resubmits every accepted-but-unfinished request
    /// (idempotent through the memo cache; counted in
    /// `journal.replayed`).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound or the
    /// journal cannot be recovered.
    pub fn bind(options: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&options.addr)?;
        listener.set_nonblocking(true)?;
        stacksim_obs::enable();
        stacksim_obs::gauge(harness_obs::SERVE_DRAINING).set(0.0);
        let explore_env = Arc::new(ExploreEnv {
            params: options.params,
            jobs: options.jobs,
            cache: options.cache.clone(),
        });
        let (ambient_plan, exp_plan) = partition_plan(options.fault_plan);
        if let Some(ambient) = ambient_plan.clone() {
            stacksim_faults::arm(ambient);
        }
        let (journal, unfinished) = match &options.journal {
            Some(path) => {
                let recovery = RequestJournal::recover(path).map_err(std::io::Error::other)?;
                (Some(Arc::new(recovery.journal)), recovery.unfinished)
            }
            None => (None, Vec::new()),
        };
        let sim = Sim::builder()
            .params(options.params)
            .jobs(options.jobs)
            .cache(options.cache)
            .resilience(options.resilience)
            .fault_plan(exp_plan)
            .ambient_fault_plan(ambient_plan)
            .max_pending((options.max_pending > 0).then_some(options.max_pending))
            .journal(journal.clone())
            .build();
        let server = Server {
            listener,
            sim: Arc::new(sim),
            requests: Arc::default(),
            pool: options.pool.clamp(1, 64),
            max_conns: options.max_conns,
            io_timeout: options.io_timeout,
            explore_env,
        };
        server.replay(unfinished);
        if let Some(journal) = &journal {
            // every unfinished entry is re-appended under a fresh id by
            // now, so the recovery side file has served its purpose
            let _ = journal.discard_replay();
        }
        Ok(server)
    }

    /// Resubmits journal-recovered requests. Admission control applies
    /// to live traffic, not recovery: a shed resubmission is retried
    /// until the draining scheduler makes room.
    fn replay(&self, unfinished: Vec<ExperimentRequest>) {
        for request in unfinished {
            loop {
                match self.sim.submit(&request) {
                    Ok(handle) => {
                        self.requests.insert(handle);
                        stacksim_obs::counter(harness_obs::JOURNAL_REPLAYED).add(1);
                        break;
                    }
                    Err(e) if e.kind() == "overloaded" => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    // an entry from an older registry (or a corrupted
                    // request) cannot replay; recovery must not wedge boot
                    Err(_) => break,
                }
            }
        }
    }

    /// The bound address (the real port when `addr` asked for `:0`).
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the socket has no local address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The underlying session, for embedding tests and in-process
    /// clients.
    pub fn sim(&self) -> &Arc<Sim> {
        &self.sim
    }

    /// Serves until `shutdown` flips to `true`, then drains: the
    /// listener stops accepting, connection workers finish, and every
    /// experiment already submitted runs to completion.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on a non-transient accept failure.
    pub fn run(self, shutdown: &AtomicBool) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let active = Arc::new(AtomicUsize::new(0));
        let mut workers = Vec::with_capacity(self.pool);
        for i in 0..self.pool {
            let rx = rx.clone();
            let sim = self.sim.clone();
            let requests = self.requests.clone();
            let explore_env = self.explore_env.clone();
            let active = active.clone();
            let io_timeout = self.io_timeout;
            let worker = std::thread::Builder::new()
                .name(format!("serve-conn-{i}"))
                .spawn(move || loop {
                    let next = {
                        let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
                        guard.recv()
                    };
                    match next {
                        Ok(mut stream) => {
                            handle_connection(
                                &mut stream,
                                &sim,
                                &requests,
                                &explore_env,
                                io_timeout,
                            );
                            active.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(_) => return, // channel closed: drain complete
                    }
                });
            if let Ok(handle) = worker {
                workers.push(handle);
            }
        }

        while !shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    if stacksim_faults::armed() {
                        match stacksim_faults::check(SITE_SERVE_ACCEPT, "conn") {
                            // the connection never happened, as far as the
                            // client can tell: dropped without a response
                            Some(Fault::IoTransient | Fault::Truncate) => continue,
                            Some(Fault::Stall { ms }) => {
                                std::thread::sleep(Duration::from_millis(ms));
                            }
                            _ => {}
                        }
                    }
                    // queued-or-processing connections beyond the cap are
                    // turned away before they can tie up a worker
                    if self.max_conns > 0 && active.load(Ordering::SeqCst) >= self.max_conns {
                        stacksim_obs::counter(harness_obs::SERVE_CONNS_REJECTED).add(1);
                        reject_conn(&mut stream, 429, "{\"error\":\"too many connections\"}");
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    if tx.send(stream).is_err() {
                        break; // every worker died; nothing can serve
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                // a signal interrupting accept re-checks the flag
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // graceful drain: close the funnel, finish connections, then let
        // the session complete everything already submitted. A rejector
        // keeps answering the socket meanwhile — late clients get an
        // immediate `503 + Retry-After` instead of a hung connect.
        stacksim_obs::gauge(harness_obs::SERVE_DRAINING).set(1.0);
        let draining = Arc::new(AtomicBool::new(true));
        let rejector = self.listener.try_clone().ok().and_then(|listener| {
            let draining = draining.clone();
            std::thread::Builder::new()
                .name("serve-drain-reject".to_string())
                .spawn(move || {
                    while draining.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((mut stream, _)) => {
                                reject_conn(&mut stream, 503, "{\"error\":\"server is draining\"}");
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            Err(_) => return,
                        }
                    }
                })
                .ok()
        });
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        self.sim.shutdown();
        draining.store(false, Ordering::SeqCst);
        if let Some(rejector) = rejector {
            let _ = rejector.join();
        }
        stacksim_obs::gauge(harness_obs::SERVE_DRAINING).set(0.0);
        Ok(())
    }
}

/// Routes one connection's request and writes its response.
fn handle_connection(
    stream: &mut TcpStream,
    sim: &Sim,
    requests: &RequestMap,
    explore_env: &ExploreEnv,
    io_timeout: Duration,
) {
    let request = match read_request(stream, io_timeout) {
        Ok(r) => r,
        Err(e) => {
            reject(stream, &e);
            return;
        }
    };
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => respond(stream, 200, "application/json", "{\"status\":\"ok\"}\n"),
        ("GET", "/metrics") => {
            let snapshot = stacksim_obs::registry().snapshot().encode();
            respond(stream, 200, "application/json", &snapshot);
        }
        ("POST", "/v1/experiments") => submit(stream, sim, requests, &request),
        ("POST", "/v1/explore") => explore(stream, explore_env, &request),
        ("GET", path) if path.starts_with("/v1/experiments/") => {
            let rest = &path["/v1/experiments/".len()..];
            if let Some(id_text) = rest.strip_suffix("/artifact") {
                artifact(stream, requests, id_text);
            } else {
                status(stream, requests, rest, &request);
            }
        }
        ("GET" | "POST", _) => error_response(stream, 404, "no such endpoint"),
        _ => error_response(stream, 405, "method not allowed"),
    }
}

/// `POST /v1/experiments`: parse the body, submit, answer with the
/// request's id and current status. Deduplicated submissions answer with
/// the existing id.
fn submit(stream: &mut TcpStream, sim: &Sim, requests: &RequestMap, request: &Request) {
    let experiment_request = match parse_submission(&request.body) {
        Ok(r) => r,
        Err(detail) => {
            error_response(stream, 400, &detail);
            return;
        }
    };
    let handle = match sim.submit(&experiment_request) {
        Ok(h) => h,
        Err(e) if e.kind() == "overloaded" => {
            let body = Json::obj(vec![("error", Json::Str(e.to_string()))]);
            respond_with(
                stream,
                503,
                "application/json",
                &[("Retry-After", RETRY_AFTER_S)],
                &body.encode(),
            );
            return;
        }
        Err(e) => {
            let code = match e.kind() {
                "unknown-experiment" => 404,
                _ => 400,
            };
            error_response(stream, code, &e.to_string());
            return;
        }
    };
    requests.insert(handle.clone());
    let body = Json::obj(vec![
        ("id", Json::Num(handle.id() as f64)),
        ("experiment", Json::Str(handle.name().to_string())),
        ("digest", Json::Str(handle.digest().to_string())),
        ("status", Json::Str(handle.status().label().to_string())),
    ]);
    respond(stream, 200, "application/json", &body.encode());
}

/// `POST /v1/explore`: run one synchronous design-space search in a
/// short-lived session sharing the server's cache, parameters and job
/// count, and answer with the canonical `stacksim-explore/1` artifact.
fn explore(stream: &mut TcpStream, env: &ExploreEnv, request: &Request) {
    let cfg = match parse_explore(&request.body) {
        Ok(cfg) => cfg,
        Err(detail) => {
            error_response(stream, 400, &detail);
            return;
        }
    };
    match stacksim_explore::run_exploration(&cfg, env.params, env.jobs, env.cache.clone()) {
        Ok(outcome) => respond(stream, 200, "application/json", &outcome.artifact_json),
        Err(e @ ExploreError::Spec(_)) => error_response(stream, 400, &e.to_string()),
        Err(e) => error_response(stream, 500, &e.to_string()),
    }
}

/// Decodes an explore body (`spec`, `mode`, `budget`, `seed`, each
/// optional) into an [`ExploreConfig`].
fn parse_explore(body: &str) -> Result<ExploreConfig, String> {
    let mut cfg = ExploreConfig::grid(SpaceSpec::default_space());
    if body.trim().is_empty() {
        return Ok(cfg);
    }
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    if let Some(spec) = doc.get("spec") {
        cfg.spec = SpaceSpec::parse(&spec.encode())?;
    }
    if let Some(v) = doc.get("mode") {
        cfg.mode = v
            .as_str()
            .and_then(SearchMode::parse)
            .ok_or("'mode' must be \"grid\", \"random\" or \"evolve\"")?;
    }
    if let Some(v) = doc.get("budget") {
        cfg.budget = v.as_u64().ok_or("'budget' must be an unsigned integer")? as usize;
    }
    if let Some(v) = doc.get("seed") {
        cfg.seed = v.as_u64().ok_or("'seed' must be an unsigned integer")?;
    }
    Ok(cfg)
}

/// Decodes a submission body into an [`ExperimentRequest`].
fn parse_submission(body: &str) -> Result<ExperimentRequest, String> {
    let doc = Json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let name = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("body needs a string 'experiment' field")?;
    let mut req = ExperimentRequest::new(name);
    if let Some(v) = doc.get("seed") {
        req = req.seed(v.as_u64().ok_or("'seed' must be an unsigned integer")?);
    }
    if let Some(v) = doc.get("scale") {
        req = req.scale(match v.as_str() {
            Some("test") => Scale::Test,
            Some("paper") => Scale::Paper,
            _ => return Err("'scale' must be \"test\" or \"paper\"".to_string()),
        });
    }
    let usize_field = |v: &Json, what: &str| -> Result<usize, String> {
        v.as_u64()
            .map(|n| n as usize)
            .ok_or(format!("'{what}' must be an unsigned integer"))
    };
    if let Some(v) = doc.get("threads") {
        req = req.threads(usize_field(v, "threads")?);
    }
    if let Some(v) = doc.get("chunk") {
        req = req.chunk(usize_field(v, "chunk")?);
    }
    if let Some(v) = doc.get("solver_threads") {
        req = req.solver_threads(usize_field(v, "solver_threads")?);
    }
    if let Some(v) = doc.get("faults") {
        req = req.faults(v.as_bool().ok_or("'faults' must be a boolean")?);
    }
    if let Some(v) = doc.get("deadline_ms") {
        req = req.deadline_ms(
            v.as_u64()
                .filter(|&ms| ms > 0)
                .ok_or("'deadline_ms' must be a positive integer")?,
        );
    }
    Ok(req)
}

/// `GET /v1/experiments/<id>`: the request's lifecycle state, with the
/// full report row once done. `?wait=1` long-polls, *bounded*: it blocks
/// until completion or `timeout_ms` (default and ceiling 30 s), then
/// answers `202 Accepted` with the current status — a slow experiment
/// can never pin a connection worker indefinitely.
fn status(stream: &mut TcpStream, requests: &RequestMap, id_text: &str, request: &Request) {
    let Some(handle) = lookup(requests, id_text) else {
        error_response(stream, 404, "no such request id");
        return;
    };
    let mut timed_out = false;
    if request.query_flag("wait") {
        let wait_ms = request
            .query_param("timeout_ms")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(MAX_WAIT_MS)
            .min(MAX_WAIT_MS);
        timed_out = handle
            .wait_timeout(Duration::from_millis(wait_ms))
            .is_none();
    }
    let (status_label, report, ok) = match handle.try_outcome() {
        Some(outcome) => (
            RequestStatus::Done.label(),
            outcome.report.to_json(),
            Json::Bool(outcome.is_ok()),
        ),
        None => (handle.status().label(), Json::Null, Json::Null),
    };
    let body = Json::obj(vec![
        ("id", Json::Num(handle.id() as f64)),
        ("experiment", Json::Str(handle.name().to_string())),
        ("digest", Json::Str(handle.digest().to_string())),
        ("status", Json::Str(status_label.to_string())),
        ("ok", ok),
        ("report", report),
    ]);
    let code = if timed_out { 202 } else { 200 };
    respond(stream, code, "application/json", &body.encode());
}

/// `GET /v1/experiments/<id>/artifact`: the artifact's canonical JSON
/// encoding, byte-for-byte what the memo cache stores and the embedded
/// API encodes — the service's bit-identity contract.
fn artifact(stream: &mut TcpStream, requests: &RequestMap, id_text: &str) {
    let Some(handle) = lookup(requests, id_text) else {
        error_response(stream, 404, "no such request id");
        return;
    };
    let Some(outcome) = handle.try_outcome() else {
        error_response(stream, 409, "request has not finished");
        return;
    };
    match &outcome.artifact {
        Some(artifact) => respond(stream, 200, "application/json", &artifact.encode()),
        None => {
            let detail = outcome
                .report
                .error
                .clone()
                .unwrap_or_else(|| "request failed".to_string());
            error_response(stream, 500, &detail);
        }
    }
}

fn lookup(requests: &RequestMap, id_text: &str) -> Option<RequestHandle> {
    requests.get(id_text.parse().ok()?)
}

fn error_response(stream: &mut TcpStream, code: u16, detail: &str) {
    let body = Json::obj(vec![("error", Json::Str(detail.to_string()))]);
    respond(stream, code, "application/json", &body.encode());
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_core::harness::MAX_UNDRAINED_OUTCOMES;
    use std::io::{Read as _, Write as _};

    /// The status code of one close-after-response `GET`.
    fn get(addr: SocketAddr, path: &str) -> u16 {
        let mut stream = TcpStream::connect(addr).expect("connect to daemon");
        let message = format!("GET {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n");
        stream.write_all(message.as_bytes()).expect("send request");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read response");
        text.split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable response: {text:?}"))
    }

    /// A daemon nobody drains keeps at most `MAX_FINISHED_REQUESTS`
    /// finished requests and `MAX_UNDRAINED_OUTCOMES` batch outcomes,
    /// dropping the oldest first; an evicted id answers 404.
    #[test]
    fn finished_requests_and_batch_outcomes_are_bounded() {
        let dir =
            std::env::temp_dir().join(format!("stacksim-serve-bounds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            pool: 1,
            jobs: 1,
            params: WorkloadParams::test(),
            cache: MemoCache::builder().dir(&dir).shards(4).build(),
            ..ServeOptions::default()
        };
        let server = Server::bind(options).expect("bind on a free port");
        let addr = server.local_addr().expect("bound address");

        // one request at a time, so each is its own batch; all but the
        // first are memo-cache hits, and the last is a different one
        let total = MAX_FINISHED_REQUESTS + 8;
        let mut ids = Vec::with_capacity(total);
        for i in 0..total {
            let name = if i + 1 == total {
                "fig5:sUS"
            } else {
                "fig5:sAVDF"
            };
            let handle = server.sim().submit(&ExperimentRequest::new(name)).unwrap();
            server.requests.insert(handle.clone());
            assert!(handle.wait().is_ok(), "request {i}");
            ids.push(handle.id());
        }
        let tracked = server.requests.handles.lock().unwrap().len();
        assert_eq!(
            tracked, MAX_FINISHED_REQUESTS,
            "finished handles are capped"
        );
        let outcomes = server.sim().drain_outcomes();
        assert_eq!(
            outcomes.len(),
            MAX_UNDRAINED_OUTCOMES,
            "outcomes are capped"
        );
        let newest = outcomes.last().map(|o| o.report.entries[0].name.as_str());
        assert_eq!(newest, Some("fig5:sUS"), "the oldest outcomes went first");

        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let daemon = std::thread::spawn(move || server.run(&flag));
        let evicted = ids[total - MAX_FINISHED_REQUESTS - 1];
        let kept = ids[total - MAX_FINISHED_REQUESTS];
        assert_eq!(get(addr, &format!("/v1/experiments/{evicted}")), 404);
        assert_eq!(
            get(addr, &format!("/v1/experiments/{evicted}/artifact")),
            404
        );
        assert_eq!(get(addr, &format!("/v1/experiments/{kept}")), 200);
        assert_eq!(get(addr, &format!("/v1/experiments/{kept}/artifact")), 200);
        shutdown.store(true, Ordering::SeqCst);
        daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! `serve_mixed`: an in-process `stacksim serve` daemon at test scale,
//! driven over loopback by closed-loop clients. Each operation is
//! `POST /v1/experiments` → `GET /v1/experiments/<id>?wait=1` →
//! `GET /v1/experiments/<id>/artifact`; three warm hits, spread over
//! every registered experiment, for each fresh-seed `fig5:<bench>` miss.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use stacksim_core::harness::json::Json;
use stacksim_core::harness::{Artifact, ExperimentRequest, MemoCache, Registry, Sim};
use stacksim_rng::StdRng;
use stacksim_serve::{ServeOptions, Server};
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use crate::expect::{digest, Expected};
use crate::layers::Layers;
use crate::metrics::Outcome;
use crate::spans::{self, Tracer, REQUEST};
use crate::stats::{median, percentile, summarize};
use crate::{secs, sys, Ctx, Digests};

/// Cache shards and connection workers, as `stacksim serve` defaults.
const SHARDS: usize = 16;
const POOL: usize = 4;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Operations `wall_s` and `cpu_s` are reported per.
const OPS_PER_BATCH: f64 = 100.0;

/// Misses of the default seed whose digests the expected file holds.
const EXPECTED_MISSES: u64 = 32;

/// Socket timeout: a stuck daemon fails the operation instead of the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

const EXPECTED: &str = include_str!("../expected/serve_mixed.json");

/// One client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A registered experiment at the daemon's base parameters, warm in
    /// the cache.
    Hit(String),
    /// `fig5:<bench>` at a seed no earlier operation used.
    Miss {
        /// The `fig5:<bench>` experiment.
        name: String,
        /// The fresh seed.
        seed: u64,
        /// Which miss of the sequence this is (0, 1, ...).
        index: u64,
    },
}

impl Op {
    fn name(&self) -> &str {
        match self {
            Op::Hit(name) | Op::Miss { name, .. } => name,
        }
    }

    fn request(&self) -> ExperimentRequest {
        match self {
            Op::Hit(name) => ExperimentRequest::new(name),
            Op::Miss { name, seed, .. } => ExperimentRequest::new(name).seed(*seed),
        }
    }

    fn body(&self) -> String {
        match self {
            Op::Hit(name) => format!("{{\"experiment\":\"{name}\"}}"),
            Op::Miss { name, seed, .. } => {
                format!("{{\"experiment\":\"{name}\",\"seed\":{seed}}}")
            }
        }
    }

    /// The expected-file key of this operation's artifact.
    fn key(&self) -> String {
        match self {
            Op::Hit(name) => name.clone(),
            Op::Miss { index, .. } => format!("miss:{index}"),
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn rng(seed: u64, stream: u64, n: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix(splitmix(seed ^ stream).wrapping_add(n)))
}

/// Seeds stay below 2^53 so they survive the JSON number round trip.
const SEED_SPACE: u64 = 1 << 50;

/// The seeded operation sequence. Operations come in groups of four:
/// one miss at a seeded position and three hits. Hits walk the
/// registered experiments in a fresh seeded order every cycle, so every
/// experiment is hit equally often; each miss gets a seed no other
/// operation (nor the base parameters) uses.
#[derive(Debug, Clone)]
pub struct Sequence {
    seed: u64,
    names: Vec<String>,
    base_seed: u64,
}

impl Sequence {
    /// The sequence for `seed` over `names`, avoiding `base_seed`.
    pub fn new(seed: u64, names: Vec<String>, base_seed: u64) -> Sequence {
        Sequence {
            seed,
            names,
            base_seed,
        }
    }

    /// Operation `i`.
    pub fn op(&self, i: u64) -> Op {
        let (group, pos) = (i / 4, i % 4);
        let mut g = rng(self.seed, 1, group);
        let miss_pos = g.gen_range(0..4u64);
        if pos == miss_pos {
            let benches = RmsBenchmark::all();
            let bench = benches[g.gen_range(0..benches.len())];
            let offset = splitmix(self.seed ^ 0x6d69_7373) % SEED_SPACE;
            let mut seed = (offset + group) % SEED_SPACE;
            if seed == self.base_seed {
                seed += SEED_SPACE; // distinct from every other miss's seed
            }
            return Op::Miss {
                name: format!("fig5:{}", bench.name()),
                seed,
                index: group,
            };
        }
        let hit = group * 3 + pos - u64::from(pos > miss_pos);
        let n = self.names.len() as u64;
        let mut order: Vec<usize> = (0..self.names.len()).collect();
        let mut c = rng(self.seed, 2, hit / n);
        for k in (1..order.len()).rev() {
            order.swap(k, c.gen_range(0..=k));
        }
        Op::Hit(self.names[order[(hit % n) as usize]].clone())
    }
}

/// Sends one close-after-response request; returns status and body.
fn http(addr: &SocketAddr, head: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let message = format!(
        "{head} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(message.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("receive: {e}"))?;
    let status = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable response {text:?}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// One finished operation.
#[derive(Debug, Clone)]
struct Done {
    i: u64,
    op: Op,
    /// POST to the last artifact byte, seconds.
    latency_s: f64,
    /// The experiment's own wall time from its report.
    wall_s: f64,
    cached: bool,
    artifact: String,
}

/// One operation over HTTP. With a tracer, each round trip is a span
/// under a `request` span carrying the operation index.
fn operate(addr: &SocketAddr, i: u64, op: &Op, tracer: Option<&Tracer>) -> Result<Done, String> {
    let root = tracer.map(|t| t.open(REQUEST, None, i));
    let trip = |name: &str, head: &str, body: &str| {
        let id = tracer.zip(root).map(|(t, r)| t.open(name, Some(r), i));
        let result = http(addr, head, body);
        if let (Some(t), Some(id)) = (tracer, id) {
            t.close(id);
        }
        match result {
            Ok((200, body)) => Ok(body),
            Ok((code, body)) => Err(format!("{name}: HTTP {code}: {body}")),
            Err(e) => Err(format!("{name}: {e}")),
        }
    };
    let t0 = Instant::now();
    let posted = trip("serve.post", "POST /v1/experiments", &op.body())?;
    let id = Json::parse(&posted)
        .ok()
        .and_then(|d| d.get("id").and_then(Json::as_u64))
        .ok_or_else(|| format!("no id in {posted:?}"))?;
    let status = trip(
        "serve.wait",
        &format!("GET /v1/experiments/{id}?wait=1"),
        "",
    )?;
    let doc = Json::parse(&status)?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: request failed: {status}", op.name()));
    }
    let report = doc.get("report").ok_or("no report")?;
    let artifact = trip(
        "serve.artifact",
        &format!("GET /v1/experiments/{id}/artifact"),
        "",
    )?;
    let latency_s = secs(t0);
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    Ok(Done {
        i,
        op: op.clone(),
        latency_s,
        wall_s: report.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
        cached: report.get("cached").and_then(Json::as_bool) == Some(true),
        artifact,
    })
}

/// The daemon plus the embedded reference session.
struct Rig {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    daemon: JoinHandle<std::io::Result<()>>,
    /// The daemon's own session (for its request accounting).
    served: Arc<Sim>,
    /// An independent embedded session over its own cache, which
    /// produces the reference bytes.
    embedded: Sim,
    /// The embedded session's encoding of every registered experiment.
    expected: BTreeMap<String, String>,
    names: Vec<String>,
    dirs: Vec<PathBuf>,
}

fn submit_all(sim: &Sim, names: &[String]) -> Result<BTreeMap<String, String>, String> {
    let handles = names
        .iter()
        .map(|n| sim.submit(&ExperimentRequest::new(n)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    sim.resume();
    names
        .iter()
        .zip(handles)
        .map(|(n, h)| match &h.wait().artifact {
            Some(a) => Ok((n.clone(), a.encode())),
            None => Err(format!("set-up request {n} failed")),
        })
        .collect()
}

impl Rig {
    /// Binds the daemon as `stacksim serve --test-scale` would, fills its
    /// cache with every registered experiment, and computes the same
    /// experiments in the embedded session.
    fn new(ctx: &Ctx, rep: usize) -> Result<Rig, String> {
        let served_dir = ctx.fresh_dir(&format!("served-{rep}"))?;
        let embedded_dir = ctx.fresh_dir(&format!("embedded-{rep}"))?;
        let mut options = ServeOptions::default();
        options.addr = "127.0.0.1:0".to_string();
        options.pool = POOL;
        options.params = WorkloadParams::test();
        options.jobs = ctx.jobs;
        options.cache = MemoCache::builder().dir(&served_dir).shards(SHARDS).build();
        options.journal = Some(served_dir.join("journal").join("requests.jsonl"));
        let server = Server::bind(options).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let served = server.sim().clone();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let daemon = std::thread::spawn(move || server.run(&flag));
        let names: Vec<String> = Registry::standard()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect();
        submit_all(&served, &names)?;
        let embedded = Sim::builder()
            .params(WorkloadParams::test())
            .jobs(ctx.jobs)
            .cache(
                MemoCache::builder()
                    .dir(&embedded_dir)
                    .shards(SHARDS)
                    .build(),
            )
            .start_paused(true)
            .build();
        let expected = submit_all(&embedded, &names)?;
        Ok(Rig {
            addr,
            shutdown,
            daemon,
            served,
            embedded,
            expected,
            names,
            dirs: vec![served_dir, embedded_dir],
        })
    }

    /// Drains the daemon and the embedded session; removes their caches.
    fn close(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let served = self.daemon.join().map_err(|_| "daemon thread panicked")?;
        self.embedded.shutdown();
        for dir in &self.dirs {
            crate::remove_dir(dir);
        }
        served.map_err(|e| format!("daemon: {e}"))
    }

    /// Runs closed-loop clients, one per CPU, from operation `first` for
    /// `seconds`. Returns the finished operations in index order and the
    /// phase's wall and CPU seconds.
    fn load(
        &self,
        seq: &Sequence,
        first: u64,
        seconds: f64,
        tracer: Option<&Tracer>,
        jobs: usize,
        out: &mut Outcome,
    ) -> (Vec<Done>, f64, f64) {
        let next = AtomicU64::new(first);
        let results = Mutex::new(Vec::new());
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| {
                    while secs(t0) < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let op = seq.op(i);
                        let r = operate(&self.addr, i, &op, tracer);
                        results.lock().expect("results lock poisoned").push((i, r));
                    }
                });
            }
        });
        let wall = secs(t0);
        let cpu = sys::cpu_seconds() - cpu0;
        let mut results = results.into_inner().expect("results lock poisoned");
        results.sort_by_key(|(i, _)| *i);
        let mut done = Vec::with_capacity(results.len());
        for (i, r) in results {
            out.check(r.is_ok(), || {
                format!("operation {i}: {}", r.clone().err().unwrap_or_default())
            });
            if let Ok(d) = r {
                done.push(d);
            }
        }
        (done, wall, cpu)
    }

    /// Submits `op` to the embedded session and waits: the same request
    /// the daemon served. Returns the encoded artifact.
    fn embedded(&self, op: &Op) -> Result<String, String> {
        let handle = self
            .embedded
            .submit(&op.request())
            .map_err(|e| e.to_string())?;
        match &handle.wait().artifact {
            Some(a) => Ok(a.encode()),
            None => Err(format!("embedded {} failed", op.name())),
        }
    }

    /// Checks every finished operation: a hit's bytes against the
    /// embedded session's set-up encoding, a miss's against the embedded
    /// session computing the same request now, and at the default seed
    /// each against the expected digests.
    fn verify(
        &self,
        done: &[Done],
        expected: Option<&Expected>,
        digests: &mut Digests,
        out: &mut Outcome,
    ) {
        for d in done {
            let reference = match &d.op {
                Op::Hit(name) => self
                    .expected
                    .get(name)
                    .cloned()
                    .ok_or("unknown hit".to_string()),
                Op::Miss { .. } => self.embedded(&d.op),
            };
            out.check(reference.as_deref() == Ok(d.artifact.as_str()), || {
                format!(
                    "operation {} ({}): served bytes differ from embedded",
                    d.i,
                    d.op.name()
                )
            });
            record(d, expected, digests, out);
        }
    }
}

/// Records the digest of `d`'s artifact under its expected-file key and,
/// at the default seed, checks it — once per key, and only for the misses
/// the expected file holds.
fn record(d: &Done, expected: Option<&Expected>, digests: &mut Digests, out: &mut Outcome) {
    let key = d.op.key();
    if matches!(d.op, Op::Miss { index, .. } if index >= EXPECTED_MISSES) {
        return;
    }
    if let Some(e) = expected {
        if digests.contains_key(&key) {
            return; // hits repeat: check each key once
        }
        e.check(out, &key, &d.artifact);
    }
    digests.insert(key, digest(&d.artifact));
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<Digests, String> {
    let expected = Expected::parse(EXPECTED)?;
    let at_default = (ctx.seed == expected.seed).then_some(&expected);
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut rig: Option<Rig> = None;
    for rep in 0..reps {
        let t = Instant::now();
        let r = Rig::new(ctx, rep)?;
        setups.push(secs(t));
        if let Some(old) = rig.replace(r) {
            old.close()?;
        }
    }
    let rig = rig.ok_or("no rig")?;
    let seq = Sequence::new(ctx.seed, rig.names.clone(), WorkloadParams::test().seed);
    let mut digests = Digests::new();
    if at_default.is_some() {
        // the hits' expected bytes are checked whether or not a hit ran
        for (name, text) in &rig.expected {
            expected.check(out, name, text);
            digests.insert(name.clone(), digest(text));
        }
    }

    if ctx.trace {
        let result = traced(ctx, &rig, &seq, at_default, &mut digests, out);
        rig.close()?;
        result?;
        return Ok(digests);
    }

    let (done, wall, cpu) = rig.load(&seq, 0, ctx.seconds, None, ctx.jobs, out);
    rig.verify(&done, at_default, &mut digests, out);
    rig.close()?;

    let ops = done.len().max(1) as f64;
    let latencies: Vec<f64> = done.iter().map(|d| d.latency_s).collect();
    let of_kind = |miss: bool| -> Vec<f64> {
        done.iter()
            .filter(|d| matches!(d.op, Op::Miss { .. }) == miss)
            .map(|d| d.latency_s)
            .collect()
    };
    for d in &done {
        let planned_hit = matches!(d.op, Op::Hit(_));
        out.check(d.cached == planned_hit, || {
            format!(
                "operation {} ({}): cached={} but planned hit={planned_hit}",
                d.i,
                d.op.name(),
                d.cached
            )
        });
    }
    out.set_summary("setup_s", 1.0, &summarize(&setups));
    out.set("wall_s", wall * OPS_PER_BATCH / ops);
    out.set("cpu_s", cpu * OPS_PER_BATCH / ops);
    out.set("peak_rss_mb", sys::peak_rss_mib());
    out.set("req_per_s", ops / wall);
    out.set_summary("latency_p50_ms", 1e3, &summarize(&latencies));
    out.set("latency_p99_ms", percentile(&latencies, 99.0) * 1e3);
    out.set_summary("hit_p50_ms", 1e3, &summarize(&of_kind(false)));
    out.set_summary("miss_p50_ms", 1e3, &summarize(&of_kind(true)));
    Ok(digests)
}

/// The traced run: half the time untraced, then half with every round
/// trip in a span; then each traced operation replayed through the
/// embedded session (which also verifies its bytes) and through
/// `MemoCache::load` (and `store` on a miss) on a cache holding what the
/// daemon's held after set-up.
fn traced(
    ctx: &Ctx,
    rig: &Rig,
    seq: &Sequence,
    expected: Option<&Expected>,
    digests: &mut Digests,
    out: &mut Outcome,
) -> Result<(), String> {
    let half = ctx.seconds / 2.0;
    let (plain, plain_wall, _) = rig.load(seq, 0, half, None, ctx.jobs, out);
    rig.verify(&plain, expected, digests, out);
    let untraced_per_op = plain_wall / plain.len().max(1) as f64;

    let cache = MemoCache::builder()
        .dir(ctx.fresh_dir("traced-cache")?)
        .shards(SHARDS)
        .build();
    let registry = Registry::standard();
    let key_of = |op: &Op| -> Result<String, String> {
        let params = op
            .request()
            .resolve(&WorkloadParams::test())
            .map_err(|e| e.to_string())?;
        let exp = registry.get(op.name()).ok_or("unregistered experiment")?;
        Ok(exp.params_digest(&params))
    };
    for (name, text) in &rig.expected {
        let artifact = Artifact::decode(text)?;
        cache
            .store(name, &key_of(&Op::Hit(name.clone()))?, &artifact)
            .map_err(|e| e.to_string())?;
    }

    let layers = Layers::default();
    let before = rig.served.stats();
    let first = plain.last().map_or(0, |d| d.i + 1);
    let lo = layers.tracer.clock();
    let (done, _, _) = rig.load(seq, first, half, Some(&layers.tracer), ctx.jobs, out);
    let after = rig.served.stats();
    let mut overheads = Vec::with_capacity(done.len());
    for d in &done {
        let root = layers.tracer.open("request.embedded", None, d.i);
        let key = key_of(&d.op)?;
        let hit = layers.cache_load(&cache, d.op.name(), &key, root, d.i)?;
        if !hit {
            let artifact = Artifact::decode(&d.artifact)?;
            layers.cache_store(
                &cache,
                (d.op.name(), &key),
                &artifact,
                d.artifact.len(),
                root,
                d.i,
            )?;
        }
        let t = Instant::now();
        let reference = layers
            .tracer
            .span("harness.session.submit_wait", Some(root), d.i, || {
                rig.embedded(&d.op)
            });
        overheads.push((d.latency_s - secs(t)) * 1e3);
        layers.tracer.close(root);
        out.check(reference.as_deref() == Ok(d.artifact.as_str()), || {
            format!(
                "operation {} ({}): served bytes differ from embedded",
                d.i,
                d.op.name()
            )
        });
        record(d, expected, digests, out);
    }
    let hi = layers.tracer.clock();
    // the embedded replay is part of the traced phase, so compare the
    // traced phase per operation with the untraced load per operation
    let traced_per_op = (hi - lo) as f64 / 1e9 / done.len().max(1) as f64;
    layers.report(out, lo, hi, 0.0);
    out.set(
        "tracing.overhead_ratio",
        traced_per_op / untraced_per_op.max(f64::MIN_POSITIVE),
    );

    let spans = layers.tracer.spans();
    out.set("serve.overhead_ms", median(&overheads));
    for name in ["serve.post", "serve.wait", "serve.artifact"] {
        out.set(
            &format!("{name}_ms"),
            median(&spans::durations_ms(&spans, name)),
        );
    }
    let waits: Vec<f64> = done
        .iter()
        .map(|d| (d.latency_s - d.wall_s) * 1e3)
        .collect();
    out.set("harness.session.queue_wait_ms", median(&waits));
    out.set(
        "harness.session.dedup_ratio",
        (after.dedup_hits - before.dedup_hits) as f64
            / (after.submitted - before.submitted).max(1) as f64,
    );
    if let Err(e) = layers.tracer.write_jsonl(&ctx.spans_out) {
        eprintln!("spans not written: {e}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        Registry::standard()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect()
    }

    fn ops(seed: u64, n: u64) -> Vec<Op> {
        let seq = Sequence::new(seed, names(), WorkloadParams::test().seed);
        (0..n).map(|i| seq.op(i)).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_requests() {
        assert_eq!(ops(11, 400), ops(11, 400));
    }

    #[test]
    fn a_different_seed_changes_the_requests() {
        assert_ne!(ops(11, 400), ops(12, 400));
    }

    #[test]
    fn each_group_of_four_has_one_miss_and_hits_spread_evenly() {
        let all = ops(5, 4 * 200);
        for group in all.chunks(4) {
            let misses = group
                .iter()
                .filter(|o| matches!(o, Op::Miss { .. }))
                .count();
            assert_eq!(misses, 1);
        }
        // 600 hits over 20 experiments: 30 cycles, 30 hits each
        let mut count: BTreeMap<&str, usize> = BTreeMap::new();
        for op in &all {
            if let Op::Hit(n) = op {
                *count.entry(n).or_default() += 1;
            }
        }
        assert_eq!(count.len(), names().len());
        assert!(count.values().all(|&c| c == 30), "{count:?}");
    }

    #[test]
    fn miss_seeds_are_fresh_and_json_safe() {
        let base = WorkloadParams::test().seed;
        let mut seeds = std::collections::BTreeSet::new();
        for op in ops(9, 4000) {
            if let Op::Miss { seed, name, .. } = op {
                assert!(seed != base && seed < 1 << 53, "{seed}");
                assert!(name.starts_with("fig5:"));
                assert!(seeds.insert(seed), "seed {seed} repeats");
            }
        }
        assert_eq!(seeds.len(), 1000);
    }
}

//! `explore_thermal`: one design-space search at paper scale into an
//! empty memo cache. The space is every stack option × `sAVDF` × both
//! boundaries × a V/f ramp, searched by the seeded evolutionary mode
//! with a budget of the whole space.

use std::path::PathBuf;
use std::time::Instant;

use stacksim_core::harness::{Artifact, Experiment, MemoCache, Registry, RunOutcome, Sim};
use stacksim_core::memory_logic::thermal_stack_scaled;
use stacksim_core::StackOption;
use stacksim_explore::experiments::{mem_point_name, thermal_point_name};
use stacksim_explore::{
    explore, registry_for, BoundaryChoice, ExploreConfig, ExploreOutcome, SearchMode, SpaceSpec,
    ThermalPointExp,
};
use stacksim_power::OperatingPoint;
use stacksim_thermal::SolverConfig;
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use crate::expect::{digest, Expected};
use crate::layers::{self, Layers};
use crate::metrics::Outcome;
use crate::stats::{median, percentile, summarize};
use crate::{secs, sys, Ctx, Digests};

/// The searched space: `sAVDF` is the cheapest `fig5` point, so the
/// thermal solves of the 4 × 2 × 12 = 96 operating points dominate.
pub const SPACE: &str = r#"{"benchmarks": ["sAVDF"], "vf": {"min": 0.8, "max": 1.2, "steps": 12}}"#;

/// Cache shards, as `stacksim explore` lays its cache out by default.
const SHARDS: usize = 16;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const EXPECTED: &str = include_str!("../expected/explore_thermal.json");

/// The exploration a seed asks for. The seed steers the evolutionary
/// search's waves; with the whole space as its budget every seed ends up
/// solving the same points, so the work per run does not depend on it.
pub fn config(seed: u64) -> Result<ExploreConfig, String> {
    Ok(ExploreConfig {
        spec: SpaceSpec::parse(SPACE)?,
        mode: SearchMode::Evolve,
        budget: 0,
        seed,
    })
}

/// A session over a fresh cache, built as `run_exploration` builds it.
struct Session {
    sim: Sim,
    dir: PathBuf,
}

impl Session {
    fn new(ctx: &Ctx, cfg: &ExploreConfig, name: &str) -> Result<Session, String> {
        let dir = ctx.fresh_dir(name)?;
        let sim = Sim::builder()
            .registry(registry_for(&cfg.spec))
            .params(WorkloadParams::paper())
            .jobs(ctx.jobs)
            .cache(MemoCache::builder().dir(&dir).shards(SHARDS).build())
            .preflight(true)
            .start_paused(true)
            .build();
        Ok(Session { sim, dir })
    }

    fn close(self) {
        self.sim.shutdown();
        crate::remove_dir(&self.dir);
    }
}

/// Warm repeats of the exploration after each cold one.
const WARM_REPEATS: usize = 20;

/// One cold exploration and its warm repeats.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    outcome: ExploreOutcome,
    /// The runner batches the exploration submitted.
    batches: Vec<RunOutcome>,
    /// The warm repeats' latencies.
    hits: Vec<f64>,
}

fn pass(sim: &Sim, cfg: &ExploreConfig, out: &mut Outcome) -> Result<Pass, String> {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let outcome = explore(sim, cfg).map_err(|e| e.to_string())?;
    let wall_s = secs(t0);
    let cpu_s = sys::cpu_seconds() - cpu0;
    let batches = sim.drain_outcomes();
    out.check(outcome.evaluated == cfg.spec.total_points(), || {
        format!(
            "explored {} of {} points",
            outcome.evaluated,
            cfg.spec.total_points()
        )
    });
    let mut hits = Vec::with_capacity(WARM_REPEATS);
    for _ in 0..WARM_REPEATS {
        let t = Instant::now();
        let warm = explore(sim, cfg);
        hits.push(secs(t));
        out.check(
            warm.is_ok_and(|w| w.artifact_json == outcome.artifact_json && w.hit_rate() == 1.0),
            || "warm exploration is not a full cache hit with the same artifact".to_string(),
        );
    }
    sim.drain_outcomes();
    Ok(Pass {
        wall_s,
        cpu_s,
        outcome,
        batches,
        hits,
    })
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<Digests, String> {
    let cfg = config(ctx.seed)?;
    let expected = Expected::parse(EXPECTED)?;
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut session = None;
    for rep in 0..reps {
        let t = Instant::now();
        let s = Session::new(ctx, &cfg, &format!("setup-{rep}"))?;
        crate::expect::golden(out)?;
        setups.push(secs(t));
        if let Some(old) = session.replace(s) {
            old.close();
        }
    }
    let mut session = session.ok_or("no session")?;

    let t_all = Instant::now();
    let mut passes = Vec::new();
    loop {
        let t_pass = Instant::now();
        let p = pass(&session.sim, &cfg, out)?;
        if ctx.seed == expected.seed {
            expected.check(out, "explore", &p.outcome.artifact_json);
        }
        if ctx.trace {
            let result = traced(ctx, &cfg, &session, &p, out);
            session.close();
            result?;
            return Ok(Digests::from([(
                "explore".to_string(),
                digest(&p.outcome.artifact_json),
            )]));
        }
        passes.push(p);
        session.close();
        if !crate::another(t_all, secs(t_pass), ctx.seconds) {
            break;
        }
        session = Session::new(ctx, &cfg, &format!("pass-{}", passes.len()))?;
    }
    let first = &passes[0].outcome.artifact_json;
    for p in &passes[1..] {
        out.check(&p.outcome.artifact_json == first, || {
            "repeated explorations disagree".to_string()
        });
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let hits: Vec<f64> = passes.iter().flat_map(|p| p.hits.iter().copied()).collect();
    let requests: u64 = passes.iter().map(|p| p.outcome.requests).sum();
    out.set_summary("setup_s", 1.0, &summarize(&setups));
    out.set_summary("wall_s", 1.0, &summarize(&walls));
    out.set(
        "cpu_s",
        median(&passes.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
    );
    out.set("peak_rss_mb", sys::peak_rss_mib());
    out.set("req_per_s", requests as f64 / walls.iter().sum::<f64>());
    out.set_summary("latency_p50_ms", 1e3, &summarize(&walls));
    out.set("latency_p99_ms", percentile(&walls, 99.0) * 1e3);
    out.set_summary("hit_p50_ms", 1e3, &summarize(&hits));
    out.set_summary("miss_p50_ms", 1e3, &summarize(&walls));
    Ok(Digests::from([(
        "explore".to_string(),
        digest(&passes[0].outcome.artifact_json),
    )]))
}

/// One sub-experiment the exploration submitted.
enum Task {
    Mem(RmsBenchmark),
    Thermal(StackOption, BoundaryChoice, f64),
}

/// The traced run: the exploration's sub-experiments re-driven through
/// their layer calls on `jobs` workers — the `fig5:<bench>` point's
/// generation and replays, and each operating point's power grids and
/// solve — each with the cache load and store the runner makes. The
/// re-driven artifacts must equal those the exploration cached.
fn traced(
    ctx: &Ctx,
    cfg: &ExploreConfig,
    session: &Session,
    p: &Pass,
    out: &mut Outcome,
) -> Result<(), String> {
    let params = WorkloadParams::paper();
    let spec = &cfg.spec;
    let standard = Registry::standard();
    // each task with its cache key: (name, params digest)
    let mut tasks = Vec::new();
    for &bench in &spec.benchmarks {
        let name = mem_point_name(bench);
        let exp = standard.get(&name).ok_or("unregistered fig5 point")?;
        let key = exp.params_digest(&params);
        tasks.push((Task::Mem(bench), name, key));
    }
    for &option in &spec.options {
        for &boundary in &spec.boundaries {
            for &vf in &spec.vf {
                let key = ThermalPointExp::new(option, boundary, vf).params_digest(&params);
                let name = thermal_point_name(option, boundary, vf);
                tasks.push((Task::Thermal(option, boundary, vf), name, key));
            }
        }
    }
    let cache = MemoCache::builder()
        .dir(ctx.fresh_dir("traced-cache")?)
        .shards(SHARDS)
        .build();
    let solver = SolverConfig::builder()
        .threads(params.solver_threads)
        .build();
    let layers = Layers::default();
    let redriven: std::sync::Mutex<Vec<(usize, Artifact)>> =
        std::sync::Mutex::new(Vec::with_capacity(tasks.len()));
    let lo = layers.tracer.clock();
    let result = layers::pool(ctx.jobs, &tasks, |i, (task, name, key)| {
        let req = i as u64;
        let root = layers.tracer.open(crate::spans::REQUEST, None, req);
        layers.cache_load(&cache, name, key, root, req)?;
        let artifact = match task {
            Task::Mem(b) => Artifact::Fig5Row(layers.fig5_point(*b, &params, root, req)?),
            Task::Thermal(option, boundary, vf) => {
                let power_factor = OperatingPoint::scaled_together(*vf).power_factor();
                let stack = layers.power_grid(root, req, || {
                    thermal_stack_scaled(*option, solver.nx, power_factor)
                });
                let peak = layers.solve(&stack, boundary.boundary(), solver, root, req)?;
                Artifact::ExplorePoint {
                    metrics: vec![
                        ("peak_c".to_string(), peak),
                        ("power_w".to_string(), option.total_power() * power_factor),
                    ],
                }
            }
        };
        let bytes = artifact.encode().len();
        layers.cache_store(&cache, (name, key), &artifact, bytes, root, req)?;
        layers.tracer.close(root);
        redriven
            .lock()
            .expect("re-driven list lock poisoned")
            .push((i, artifact));
        Ok(())
    });
    let hi = layers.tracer.clock();
    out.check(result.is_ok(), || result.clone().err().unwrap_or_default());
    // the re-driven artifacts must equal those the exploration cached
    let produced = MemoCache::builder()
        .dir(&session.dir)
        .shards(SHARDS)
        .build();
    for (i, artifact) in redriven.into_inner().expect("re-driven list lock poisoned") {
        let (_, name, key) = &tasks[i];
        let cached = produced.load(name, key).map_err(|e| e.to_string())?;
        out.check(cached.as_ref() == Some(&artifact), || {
            format!("{name}: re-driven layer calls disagree with the cached artifact")
        });
    }
    layers.report(out, lo, hi, p.wall_s);

    let batch_wall: f64 = p.batches.iter().map(|b| b.report.wall_s).sum();
    out.set("explore.engine.busy_s", p.wall_s - batch_wall);
    out.set("explore.points", p.outcome.evaluated as f64);
    out.set("explore.hit_ratio", p.outcome.hit_rate());
    // every sub-request of a batch is submitted before the batch starts,
    // so its wait is the batch's wall time less its own
    let waits: Vec<f64> = p
        .batches
        .iter()
        .flat_map(|b| {
            b.report
                .entries
                .iter()
                .map(move |e| (b.report.wall_s - e.wall_s) * 1e3)
        })
        .collect();
    out.set("harness.session.queue_wait_ms", median(&waits));
    let needs = p.outcome.dedup_hits + p.outcome.requests;
    out.set(
        "harness.session.dedup_ratio",
        p.outcome.dedup_hits as f64 / needs.max(1) as f64,
    );
    if let Err(e) = layers.tracer.write_jsonl(&ctx.spans_out) {
        eprintln!("spans not written: {e}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_explore::Evolver;

    fn first_wave(seed: u64) -> Vec<stacksim_explore::PointIdx> {
        let cfg = config(seed).expect("space parses");
        Evolver::new(cfg.seed).initial_wave(&cfg.spec, 16)
    }

    #[test]
    fn the_space_is_every_option_and_boundary_over_the_ramp() {
        let cfg = config(1).expect("space parses");
        assert_eq!(cfg.spec.options.len(), 4);
        assert_eq!(cfg.spec.benchmarks, vec![RmsBenchmark::SAvdf]);
        assert_eq!(cfg.spec.boundaries.len(), 2);
        assert_eq!(cfg.spec.total_points(), 96);
        assert_eq!(cfg.budget, 0, "the budget is the whole space");
    }

    #[test]
    fn the_same_seed_gives_the_same_exploration() {
        let (a, b) = (config(3).expect("parses"), config(3).expect("parses"));
        assert_eq!(a.spec.to_json().encode(), b.spec.to_json().encode());
        assert_eq!((a.mode, a.budget, a.seed), (b.mode, b.budget, b.seed));
        assert_eq!(first_wave(3), first_wave(3));
    }

    #[test]
    fn a_different_seed_changes_the_search() {
        assert_ne!(
            config(3).expect("parses").seed,
            config(4).expect("parses").seed
        );
        assert_ne!(first_wave(3), first_wave(4));
    }
}

//! `paper_cold`: all registered experiments at paper scale into an empty
//! memo cache, the way `stacksim run --all` drives its session.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use stacksim_core::harness::{
    Artifact, ExperimentRequest, MemoCache, RequestOutcome, Sim, SimStats,
};
use stacksim_core::logic_logic::{folded_p4, table5_with};
use stacksim_core::memory_logic::thermal_stack;
use stacksim_core::sensitivity::{fig3_stack, fig3_with};
use stacksim_core::StackOption;
use stacksim_floorplan::p4::pentium4_147w;
use stacksim_floorplan::worst_case_stack;
use stacksim_ooo::{suite, CoreConfig, Simulator, WireConfig, WirePath};
use stacksim_thermal::{Boundary, LayerStack, SolverConfig};
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use crate::expect::{digest, Expected};
use crate::layers::{self, Layers};
use crate::metrics::Outcome;
use crate::stats::{median, percentile, summarize};
use crate::{secs, sys, Ctx, Digests};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Warm re-runs of the whole selection after a cold pass.
const WARM_ROUNDS: usize = 40;

/// The seed and per-class length `table4` runs its OoO suite with (the
/// registry's `TABLE4_SEED` and paper-scale `table4_uops`).
const TABLE4_SEED: u64 = 7;
const TABLE4_UOPS: usize = 60_000;

const EXPECTED: &str = include_str!("../expected/paper_cold.json");

/// A paused session over the cache in `dir`, built as `stacksim run`
/// builds its own.
fn open(ctx: &Ctx, params: WorkloadParams, dir: &Path) -> Sim {
    Sim::builder()
        .params(params)
        .jobs(ctx.jobs)
        .cache(MemoCache::at(dir))
        .preflight(true)
        .start_paused(true)
        .build()
}

/// One session over a fresh, empty cache directory.
struct Session {
    sim: Sim,
    dir: PathBuf,
}

impl Session {
    fn new(ctx: &Ctx, params: WorkloadParams, name: &str) -> Result<Session, String> {
        let dir = ctx.fresh_dir(name)?;
        Ok(Session {
            sim: open(ctx, params, &dir),
            dir,
        })
    }

    fn close(self) {
        self.sim.shutdown();
        crate::remove_dir(&self.dir);
    }
}

/// One request of a pass: when it finished and what it produced.
struct Done {
    name: String,
    digest: String,
    latency_s: f64,
    outcome: Arc<RequestOutcome>,
}

/// A pass: every registered experiment submitted while paused, the
/// session resumed so they run as one batch, each handle awaited on its
/// own thread so its latency is its own.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    done: Vec<Done>,
    stats: SimStats,
}

fn pass(sim: &Sim) -> Result<Pass, String> {
    let names: Vec<String> = sim
        .registry()
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let handles = names
        .iter()
        .map(|n| sim.submit(&ExperimentRequest::new(n)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let done = std::thread::scope(|s| {
        let waiters: Vec<_> = handles
            .iter()
            .map(|h| s.spawn(move || (h.wait(), secs(t0))))
            .collect();
        sim.resume();
        waiters
            .into_iter()
            .map(|w| w.join().expect("waiter thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = secs(t0);
    let cpu_s = sys::cpu_seconds() - cpu0;
    let done = names
        .into_iter()
        .zip(&handles)
        .zip(done)
        .map(|((name, h), (outcome, latency_s))| Done {
            name,
            digest: h.digest().to_string(),
            latency_s,
            outcome,
        })
        .collect();
    Ok(Pass {
        wall_s,
        cpu_s,
        done,
        stats: sim.stats(),
    })
}

/// The encoded artifact of each request, failing those without one.
fn encodings(pass: &Pass, out: &mut Outcome) -> BTreeMap<String, String> {
    let mut enc = BTreeMap::new();
    for d in &pass.done {
        let ok = d.outcome.artifact.is_some();
        out.check(ok, || {
            format!(
                "{}: {}",
                d.name,
                d.outcome.report.error.clone().unwrap_or_default()
            )
        });
        if let Some(a) = &d.outcome.artifact {
            enc.insert(d.name.clone(), a.encode());
        }
    }
    enc
}

/// Checks a pass's artifacts against the expected digests: every
/// experiment at the default seed; at any other seed, those whose cache
/// key does not depend on the seed.
fn check_digests(
    ctx: &Ctx,
    sim: &Sim,
    enc: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let expected = Expected::parse(EXPECTED)?;
    let at = |seed| WorkloadParams::builder().seed(seed).build();
    for (name, text) in enc {
        let exp = sim.registry().get(name).ok_or("unregistered experiment")?;
        let seed_free = exp.params_digest(&at(ctx.seed)) == exp.params_digest(&at(expected.seed));
        if ctx.seed == expected.seed || seed_free {
            expected.check(out, name, text);
        }
    }
    Ok(())
}

/// Re-runs the whole selection [`WARM_ROUNDS`] times, each in a new
/// session over the cache a cold pass filled, as a second `stacksim run
/// --all` would: every request must be a cache hit with the cold bytes.
/// Returns the hit latencies in seconds.
fn warm_passes(
    ctx: &Ctx,
    params: WorkloadParams,
    dir: &Path,
    enc: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let mut latencies = Vec::with_capacity(enc.len() * WARM_ROUNDS);
    for _ in 0..WARM_ROUNDS {
        let sim = open(ctx, params, dir);
        let warm = pass(&sim);
        sim.shutdown();
        for d in warm?.done {
            latencies.push(d.latency_s);
            let same = d.outcome.artifact.as_ref().map(|a| a.encode()) == enc.get(&d.name).cloned();
            out.check(same && d.outcome.report.cached, || {
                format!(
                    "{}: warm re-run is not a cache hit with the cold bytes",
                    d.name
                )
            });
        }
    }
    Ok(latencies)
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<Digests, String> {
    let params = WorkloadParams::builder().seed(ctx.seed).build();
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut session = None;
    for rep in 0..reps {
        let t = Instant::now();
        let s = Session::new(ctx, params, &format!("setup-{rep}"))?;
        crate::expect::golden(out)?;
        setups.push(secs(t));
        if let Some(old) = session.replace(s) {
            old.close();
        }
    }
    let mut session = session.ok_or("no session")?;

    if ctx.trace {
        let pass = pass(&session.sim)?;
        let enc = encodings(&pass, out);
        check_digests(ctx, &session.sim, &enc, out)?;
        session.close();
        traced(ctx, params, &pass, &enc, out)?;
        return Ok(pass_digests(&enc));
    }

    let t_all = Instant::now();
    let mut passes = Vec::new();
    let mut hits = Vec::new();
    let mut digests;
    loop {
        let t_pass = Instant::now();
        let pass = pass(&session.sim)?;
        let enc = encodings(&pass, out);
        check_digests(ctx, &session.sim, &enc, out)?;
        hits.extend(warm_passes(ctx, params, &session.dir, &enc, out)?);
        digests = pass_digests(&enc);
        passes.push(pass);
        session.close();
        if !crate::another(t_all, secs(t_pass), ctx.seconds) {
            break;
        }
        session = Session::new(ctx, params, &format!("pass-{}", passes.len()))?;
    }

    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.done.iter().map(|d| d.latency_s))
        .collect();
    let misses: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.done.iter())
        .filter(|d| !d.outcome.report.cached)
        .map(|d| d.latency_s)
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    out.set_summary("setup_s", 1.0, &summarize(&setups));
    out.set_summary("wall_s", 1.0, &summarize(&walls));
    out.set(
        "cpu_s",
        median(&passes.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
    );
    out.set("peak_rss_mb", sys::peak_rss_mib());
    out.set(
        "req_per_s",
        latencies.len() as f64 / walls.iter().sum::<f64>(),
    );
    out.set_summary("latency_p50_ms", 1e3, &summarize(&latencies));
    out.set("latency_p99_ms", percentile(&latencies, 99.0) * 1e3);
    out.set_summary("hit_p50_ms", 1e3, &summarize(&hits));
    out.set_summary("miss_p50_ms", 1e3, &summarize(&misses));
    Ok(digests)
}

fn pass_digests(enc: &BTreeMap<String, String>) -> Digests {
    enc.iter().map(|(k, v)| (k.clone(), digest(v))).collect()
}

/// What one experiment's layer calls are.
#[derive(Debug, Clone, Copy)]
enum Task {
    Fig3,
    Fig5Point(RmsBenchmark),
    Fig6,
    Fig8,
    Fig11,
    Table4,
    Table5,
    /// `fig5` and `headline` only fold their dependencies' artifacts.
    Aggregate,
}

fn task_for(name: &str) -> Result<Task, String> {
    Ok(match name {
        "fig3" => Task::Fig3,
        "fig6" => Task::Fig6,
        "fig8" => Task::Fig8,
        "fig11" => Task::Fig11,
        "table4" => Task::Table4,
        "table5" => Task::Table5,
        "fig5" | "headline" => Task::Aggregate,
        _ => {
            let bench = name
                .strip_prefix("fig5:")
                .and_then(|b| RmsBenchmark::all().into_iter().find(|x| x.name() == b))
                .ok_or_else(|| format!("no layer calls known for experiment '{name}'"))?;
            Task::Fig5Point(bench)
        }
    })
}

/// The traced run: the untraced pass's experiments re-driven through
/// their layer calls on `jobs` workers, each wrapped in a `request` span
/// with a cache load before and the artifact's store after, as the
/// runner does on a miss.
fn traced(
    ctx: &Ctx,
    params: WorkloadParams,
    pass: &Pass,
    enc: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let cache = MemoCache::at(ctx.fresh_dir("traced-cache")?);
    let cfg = SolverConfig::builder()
        .threads(params.solver_threads)
        .build();
    // the P4 fold's two-die stack, which fig3 and table5 solve on
    let (p4_stack, _) = fig3_stack(&cfg).map_err(|e| e.to_string())?;
    let p4_cells = layers::cells(cfg, &p4_stack);
    let tasks = pass
        .done
        .iter()
        .map(|d| task_for(&d.name).map(|t| (t, d)))
        .collect::<Result<Vec<_>, _>>()?;
    let layers = Layers::default();
    let lo = layers.tracer.clock();
    let result = layers::pool(ctx.jobs, &tasks, |i, (task, done)| {
        let req = i as u64;
        let root = layers.tracer.open(crate::spans::REQUEST, None, req);
        layers.cache_load(&cache, &done.name, &done.digest, root, req)?;
        let artifact = done.outcome.artifact.as_deref();
        let ok = match task {
            Task::Fig3 => {
                let data = layers.sweep(p4_cells, root, req, || fig3_with(cfg))?;
                matches!(artifact, Some(Artifact::Fig3(d)) if *d == data)
            }
            Task::Fig5Point(bench) => {
                let row = layers.fig5_point(*bench, &params, root, req)?;
                matches!(artifact, Some(Artifact::Fig5Row(r)) if *r == row)
            }
            Task::Fig6 => {
                // fig6 keeps the planar power map for its artifact
                let (grid, stack) = layers.power_grid(root, req, || {
                    let cpu = StackOption::Planar4M.cpu_floorplan();
                    let grid = cpu.power_grid(cfg.nx, cfg.ny);
                    (grid, thermal_stack(StackOption::Planar4M, cfg.nx))
                });
                layers.solve(&stack, Boundary::desktop(), cfg, root, req)?;
                matches!(artifact, Some(Artifact::Fig6 { power, .. }) if *power == grid)
            }
            Task::Fig8 => {
                let mut peaks = Vec::new();
                for option in StackOption::all() {
                    let stack = layers.power_grid(root, req, || thermal_stack(option, cfg.nx));
                    peaks.push(layers.solve(&stack, Boundary::desktop(), cfg, root, req)?);
                }
                matches!(artifact, Some(Artifact::Fig8(p))
                    if p.iter().map(|x| x.peak_c).eq(peaks.iter().copied()))
            }
            Task::Fig11 => {
                let peaks = fig11_calls(&layers, cfg, root, req)?;
                matches!(artifact, Some(Artifact::Fig11(p))
                    if p.iter().map(|x| x.peak_c).eq(peaks.iter().copied()))
            }
            Task::Table4 => {
                let (gains, total) = table4_calls(&layers, root, req);
                matches!(artifact, Some(Artifact::Table4(t))
                    if t.total_pct == total && t.rows.iter().map(|r| r.measured_pct).eq(gains))
            }
            Task::Table5 => {
                let rows = layers.sweep(p4_cells, root, req, || table5_with(cfg))?;
                matches!(artifact, Some(Artifact::Table5(r)) if *r == rows)
            }
            Task::Aggregate => true,
        };
        if let (Some(artifact), Some(text)) = (artifact, enc.get(&done.name)) {
            layers.cache_store(
                &cache,
                (&done.name, &done.digest),
                artifact,
                text.len(),
                root,
                req,
            )?;
        }
        layers.tracer.close(root);
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: the re-driven layer calls disagree with the artifact",
                done.name
            ))
        }
    });
    let hi = layers.tracer.clock();
    out.check(result.is_ok(), || result.clone().err().unwrap_or_default());
    layers.report(out, lo, hi, pass.wall_s);
    session_metrics(pass, out);
    if let Err(e) = layers.tracer.write_jsonl(&ctx.spans_out) {
        eprintln!("spans not written: {e}");
    }
    Ok(())
}

/// `harness.session.*` from the untraced pass.
fn session_metrics(pass: &Pass, out: &mut Outcome) {
    let waits: Vec<f64> = pass
        .done
        .iter()
        .map(|d| (d.latency_s - d.outcome.report.wall_s) * 1e3)
        .collect();
    out.set("harness.session.queue_wait_ms", median(&waits));
    out.set(
        "harness.session.dedup_ratio",
        pass.stats.dedup_hits as f64 / pass.stats.submitted.max(1) as f64,
    );
}

/// Fig. 11's solves: the planar P4, the repaired fold and the worst-case
/// stack, each built from its floorplans' power grids. Returns the
/// three peak temperatures.
fn fig11_calls(
    layers: &Layers,
    cfg: SolverConfig,
    root: usize,
    req: u64,
) -> Result<Vec<f64>, String> {
    let planar = pentium4_147w();
    let stack = layers.power_grid(root, req, || {
        LayerStack::planar(
            planar.width(),
            planar.height(),
            planar.power_grid(cfg.nx, cfg.ny),
        )
    });
    let base = layers.solve(&stack, Boundary::performance(), cfg, root, req)?;
    let folded = folded_p4().map_err(|e| e.to_string())?;
    let wc = worst_case_stack(&planar);
    let mut peaks = vec![base];
    for stacked in [&folded, &wc] {
        let d0 = &stacked.dies()[0];
        let d1 = &stacked.dies()[1];
        let bc = Boundary::performance().scaled_to_area(planar.area(), d0.area());
        let stack = layers.power_grid(root, req, || {
            LayerStack::two_die(
                d0.width(),
                d0.height(),
                d0.power_grid(cfg.nx, cfg.ny),
                d1.power_grid(cfg.nx, cfg.ny),
                false,
            )
        });
        peaks.push(layers.solve(&stack, bc, cfg, root, req)?);
    }
    Ok(peaks)
}

/// Table 4's OoO calls: the suite, then every class on the planar core,
/// on each single-path fold and on the full 3D wire configuration.
/// Returns the per-path gains and the total gain, in percent.
fn table4_calls(layers: &Layers, root: usize, req: u64) -> (Vec<f64>, f64) {
    let t = &layers.tracer;
    let workloads = t.span("ooo.suite", Some(root), req, || {
        suite(TABLE4_UOPS, TABLE4_SEED)
    });
    let run = |cfg: CoreConfig, uops: &[stacksim_ooo::Uop]| {
        let sim = Simulator::new(cfg);
        let stats = t.span("ooo.run", Some(root), req, || sim.run(uops));
        layers.retired(stats.uops);
        stats.cycles
    };
    let planar: Vec<u64> = workloads
        .iter()
        .map(|(_, u)| run(CoreConfig::planar(), u))
        .collect();
    let gain_for = |wire: WireConfig| -> f64 {
        let cfg = CoreConfig {
            wire,
            ..CoreConfig::planar()
        };
        let mut acc = 0.0;
        for ((_, uops), base) in workloads.iter().zip(&planar) {
            acc += *base as f64 / run(cfg, uops) as f64 - 1.0;
        }
        100.0 * acc / workloads.len() as f64
    };
    let gains: Vec<f64> = WirePath::all()
        .into_iter()
        .map(|path| gain_for(path.apply(WireConfig::planar())))
        .collect();
    let total = gain_for(WireConfig::folded_3d());
    (gains, total)
}

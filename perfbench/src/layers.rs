//! The traced run's layer calls: the same public calls the experiments
//! make, each wrapped in a span, with the work each one did tallied.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use stacksim_core::harness::{Artifact, MemoCache};
use stacksim_core::memory_logic::{Fig5Row, WARMUP_FRACTION};
use stacksim_core::StackOption;
use stacksim_mem::{Engine, EngineConfig, MemoryHierarchy};
use stacksim_thermal::{solve_with_stats, Boundary, LayerStack, SolveStats, SolverConfig};
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use crate::metrics::Outcome;
use crate::spans::{self, Span, Tracer};

/// Bytes one in-memory trace record occupies (`stacksim_trace`'s packed
/// record).
const RECORD_BYTES: f64 = 24.0;

/// Work counted at the layer boundaries.
#[derive(Debug, Default)]
struct Tally {
    /// Records generated across all traces.
    generated: u64,
    /// Records of the largest single trace.
    largest_trace: u64,
    /// Records replayed (each trace once per stack option).
    replayed: u64,
    /// Thermal solves and CG iterations, summed.
    solver: SolveStats,
    /// Grid cells × CG iterations, summed over solves.
    cell_updates: f64,
    /// Micro-ops retired by the OoO core.
    uops: u64,
    /// Cache loads attempted.
    loads: u64,
    /// Cache loads that found an entry.
    load_hits: u64,
    /// Bytes of every artifact stored.
    stored_bytes: u64,
}

/// A span tracer plus the work tally, shared by the traced run's workers.
#[derive(Debug, Default)]
pub struct Layers {
    /// The span log.
    pub tracer: Tracer,
    tally: Mutex<Tally>,
}

impl Layers {
    fn count(&self, f: impl FnOnce(&mut Tally)) {
        f(&mut self.tally.lock().expect("tally lock poisoned"));
    }

    /// `RmsBenchmark::generate` followed by `Engine::run_warmed` for each
    /// stack option: the body of a `fig5:<bench>` experiment.
    pub fn fig5_point(
        &self,
        bench: RmsBenchmark,
        params: &WorkloadParams,
        parent: usize,
        request: u64,
    ) -> Result<Fig5Row, String> {
        let t = &self.tracer;
        let trace = t.span("workloads.generate", Some(parent), request, || {
            bench.generate(params)
        });
        let records = trace.len() as u64;
        self.count(|c| {
            c.generated += records;
            c.largest_trace = c.largest_trace.max(records);
        });
        let mut row = Fig5Row {
            benchmark: bench,
            cpma: [0.0; 4],
            bandwidth: [0.0; 4],
        };
        for (i, option) in StackOption::all().into_iter().enumerate() {
            let name = format!("mem.replay.{}mb", option.capacity_mb());
            let result = t.span(&name, Some(parent), request, || {
                let hierarchy = MemoryHierarchy::new(option.hierarchy())?;
                let mut engine = Engine::new(hierarchy, EngineConfig::default());
                Ok::<_, stacksim_mem::ConfigError>(engine.run_warmed(&trace, WARMUP_FRACTION))
            });
            let result = result.map_err(|e| e.to_string())?;
            row.cpma[i] = result.cpma;
            row.bandwidth[i] = result.offdie_gb_per_sec;
            self.count(|c| c.replayed += records);
        }
        Ok(row)
    }

    /// `solve_with_stats` on `stack`. Returns the peak temperature.
    pub fn solve(
        &self,
        stack: &LayerStack,
        bc: Boundary,
        cfg: SolverConfig,
        parent: usize,
        request: u64,
    ) -> Result<f64, String> {
        let sol = self
            .tracer
            .span("thermal.solve", Some(parent), request, || {
                solve_with_stats(stack, bc, cfg)
            })
            .map_err(|e| e.to_string())?;
        self.solved(sol.stats, cells(cfg, stack));
        Ok(sol.field.peak())
    }

    /// A multi-solve study call (the Fig. 3 sweep, the Table 5
    /// bisection), run in a `thermal.sweep` span. `cells` is the grid
    /// size its solves run on.
    pub fn sweep<T>(
        &self,
        cells: usize,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> Result<(T, SolveStats), stacksim_core::Error>,
    ) -> Result<T, String> {
        let (out, stats) = self
            .tracer
            .span("thermal.sweep", Some(parent), request, f)
            .map_err(|e| e.to_string())?;
        self.solved(stats, cells);
        Ok(out)
    }

    fn solved(&self, stats: SolveStats, cells: usize) {
        self.count(|c| {
            c.solver.absorb(stats);
            c.cell_updates += cells as f64 * stats.iterations as f64;
        });
    }

    /// Floorplan power-grid construction (building a thermal stack).
    pub fn power_grid<T>(&self, parent: usize, request: u64, f: impl FnOnce() -> T) -> T {
        self.tracer
            .span("floorplan.power_grid", Some(parent), request, f)
    }

    /// Counts retired micro-ops of one OoO run.
    pub fn retired(&self, uops: u64) {
        self.count(|c| c.uops += uops);
    }

    /// `MemoCache::load` of `(name, digest)`; returns whether it hit.
    pub fn cache_load(
        &self,
        cache: &MemoCache,
        name: &str,
        digest: &str,
        parent: usize,
        request: u64,
    ) -> Result<bool, String> {
        let hit = self
            .tracer
            .span("harness.cache.load", Some(parent), request, || {
                cache.load(name, digest)
            })
            .map_err(|e| e.to_string())?
            .is_some();
        self.count(|c| {
            c.loads += 1;
            c.load_hits += u64::from(hit);
        });
        Ok(hit)
    }

    /// `MemoCache::store` of `artifact` (`bytes` long when encoded).
    pub fn cache_store(
        &self,
        cache: &MemoCache,
        (name, digest): (&str, &str),
        artifact: &Artifact,
        bytes: usize,
        parent: usize,
        request: u64,
    ) -> Result<(), String> {
        self.tracer
            .span("harness.cache.store", Some(parent), request, || {
                cache.store(name, digest, artifact)
            })
            .map_err(|e| e.to_string())?;
        self.count(|c| c.stored_bytes += bytes as u64);
        Ok(())
    }

    /// Writes the per-layer metrics the spans and tally support into
    /// `out`. `[lo, hi)` is the traced phase in tracer nanoseconds and
    /// `untraced_wall_s` the same work's wall time without tracing.
    pub fn report(&self, out: &mut Outcome, lo: u64, hi: u64, untraced_wall_s: f64) {
        let spans = self.tracer.spans();
        let layers = spans::by_layer(&spans);
        let busy = |name: &str| layers.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e9);
        let busy_prefix = |prefix: &str| -> f64 {
            layers
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .fold(0.0, |acc, (_, (ns, _))| acc + *ns as f64 / 1e9)
        };
        let tally = self.tally.lock().expect("tally lock poisoned");
        let per_s = |work: f64, s: f64| if s > 0.0 { work / s } else { 0.0 };

        let gen = busy("workloads.generate");
        out.set("workloads.generate.busy_s", gen);
        out.set(
            "workloads.generate.mrecords_per_s",
            per_s(tally.generated as f64 / 1e6, gen),
        );
        out.set(
            "trace.resident_mb",
            tally.largest_trace as f64 * RECORD_BYTES / (1024.0 * 1024.0),
        );
        let replay = busy_prefix("mem.replay.");
        out.set("mem.replay.busy_s", replay);
        out.set(
            "mem.replay.mrecords_per_s",
            per_s(tally.replayed as f64 / 1e6, replay),
        );
        for mb in [4, 12, 32, 64] {
            let name = format!("mem.replay.{mb}mb");
            out.set(&format!("{name}.busy_s"), busy(&name));
        }
        let thermal = busy("thermal.solve") + busy("thermal.sweep");
        out.set("thermal.solve.busy_s", thermal);
        out.set("thermal.solve.calls", tally.solver.solves as f64);
        out.set("thermal.cg_iterations", tally.solver.iterations as f64);
        out.set(
            "thermal.cell_updates_per_s",
            per_s(tally.cell_updates, thermal),
        );
        out.set("floorplan.power_grid.busy_s", busy("floorplan.power_grid"));
        out.set("ooo.suite.busy_s", busy("ooo.suite"));
        let ooo = busy("ooo.run");
        out.set("ooo.run.busy_s", ooo);
        out.set("ooo.muops_per_s", per_s(tally.uops as f64 / 1e6, ooo));
        out.set(
            "harness.cache.load.busy_ms",
            busy("harness.cache.load") * 1e3,
        );
        out.set(
            "harness.cache.store.busy_ms",
            busy("harness.cache.store") * 1e3,
        );
        out.set("harness.cache.store.bytes", tally.stored_bytes as f64);
        out.set(
            "harness.cache.hit_ratio",
            per_s(tally.load_hits as f64, tally.loads as f64),
        );
        tracing_health(out, &spans, lo, hi, untraced_wall_s);
    }
}

/// Grid cells the solver updates per CG iteration on `stack`.
pub fn cells(cfg: SolverConfig, stack: &LayerStack) -> usize {
    cfg.nx * cfg.ny * stack.layers().len()
}

/// `tracing.*`: the traced phase's wall time beside the untraced one,
/// and the share of the traced phase no layer span covers.
fn tracing_health(out: &mut Outcome, spans: &[Span], lo: u64, hi: u64, untraced_wall_s: f64) {
    let wall = (hi - lo) as f64 / 1e9;
    out.set("tracing.wall_s", wall);
    out.set(
        "tracing.overhead_ratio",
        if untraced_wall_s > 0.0 {
            wall / untraced_wall_s
        } else {
            0.0
        },
    );
    let uncovered = (hi - lo).saturating_sub(spans::covered(spans, lo, hi));
    out.set(
        "tracing.uncovered_share",
        if hi > lo {
            uncovered as f64 / (hi - lo) as f64
        } else {
            0.0
        },
    );
}

/// Runs `f` over every item on `jobs` threads, each taking the next
/// unclaimed item in order — the shape of the harness's worker pool.
/// Returns the first error.
pub fn pool<T: Sync>(
    jobs: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> Result<(), String> + Sync,
) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return };
                if let Err(e) = f(i, item) {
                    errors.lock().expect("error list lock poisoned").push(e);
                }
            });
        }
    });
    match errors.into_inner().expect("error list lock poisoned").pop() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

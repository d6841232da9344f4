//! The Memory+Logic study (§3): Fig. 5 performance/bandwidth, Fig. 6/8
//! thermals, and the headline numbers.

use stacksim_floorplan::PowerGrid;
use stacksim_mem::{Engine, EngineConfig, MemTelemetry, MemoryHierarchy, Replay};
use stacksim_power::bus_power_w;
use stacksim_thermal::{
    solve_with_stats, Boundary, LayerStack, SolveStats, SolverConfig, TemperatureField,
};
use stacksim_workloads::{RmsBenchmark, WorkloadParams};

use crate::error::Error;
use crate::stacking::StackOption;

/// Fraction of each trace treated as cache warm-up (excluded from metrics).
pub const WARMUP_FRACTION: f64 = 0.4;

/// One Fig. 5 bar group: a benchmark's CPMA and off-die bandwidth across
/// the four capacity options.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// The benchmark.
    pub benchmark: RmsBenchmark,
    /// CPMA per option, in [`StackOption::all`] order.
    pub cpma: [f64; 4],
    /// Off-die bandwidth (GB/s) per option.
    pub bandwidth: [f64; 4],
}

impl Fig5Row {
    /// CPMA reduction of option `i` relative to the 4 MB baseline
    /// (positive = better).
    pub fn cpma_reduction(&self, i: usize) -> f64 {
        1.0 - self.cpma[i] / self.cpma[0]
    }
}

/// The full Fig. 5 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Data {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Fig5Row>,
}

impl Fig5Data {
    /// Arithmetic-mean CPMA per option (the Fig. 5 "Avg" group).
    pub fn mean_cpma(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for r in &self.rows {
            for (o, c) in out.iter_mut().zip(&r.cpma) {
                *o += c;
            }
        }
        for o in &mut out {
            *o /= self.rows.len() as f64;
        }
        out
    }

    /// Arithmetic-mean bandwidth per option.
    pub fn mean_bandwidth(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for r in &self.rows {
            for (o, b) in out.iter_mut().zip(&r.bandwidth) {
                *o += b;
            }
        }
        for o in &mut out {
            *o /= self.rows.len() as f64;
        }
        out
    }

    /// The §3 headline numbers at the 32 MB option (index 2): mean CPMA
    /// reduction, peak per-benchmark reduction, bandwidth reduction factor
    /// and bus-power saving in watts.
    pub fn headline(&self) -> Headline {
        let mean = self.mean_cpma();
        let bw = self.mean_bandwidth();
        let peak = self
            .rows
            .iter()
            .map(|r| r.cpma_reduction(2))
            .fold(f64::NEG_INFINITY, f64::max);
        Headline {
            mean_cpma_reduction: 1.0 - mean[2] / mean[0],
            peak_cpma_reduction: peak,
            bandwidth_reduction_factor: if bw[2] > 0.0 {
                bw[0] / bw[2]
            } else {
                f64::INFINITY
            },
            bus_power_saving_w: bus_power_w(bw[0]) - bus_power_w(bw[2]),
            baseline_bus_power_w: bus_power_w(bw[0]),
        }
    }
}

/// The §3 headline summary (paper: 13% mean, ~50–55% peak, 3× bandwidth,
/// ~0.5 W bus power).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Mean CPMA reduction at 32 MB vs the 4 MB baseline.
    pub mean_cpma_reduction: f64,
    /// Largest per-benchmark CPMA reduction at 32 MB.
    pub peak_cpma_reduction: f64,
    /// Mean bandwidth reduction factor at 32 MB.
    pub bandwidth_reduction_factor: f64,
    /// Bus power saved at 32 MB, in watts.
    pub bus_power_saving_w: f64,
    /// Baseline bus power, in watts.
    pub baseline_bus_power_w: f64,
}

impl Headline {
    /// Fractional bus-power reduction.
    pub fn bus_power_reduction(&self) -> f64 {
        if self.baseline_bus_power_w > 0.0 {
            self.bus_power_saving_w / self.baseline_bus_power_w
        } else {
            0.0
        }
    }
}

/// Runs one benchmark across all four options.
///
/// # Errors
///
/// Returns [`Error::Config`] if an option's hierarchy preset fails
/// validation; otherwise infallible.
pub fn run_benchmark(benchmark: RmsBenchmark, params: &WorkloadParams) -> Result<Fig5Row, Error> {
    Ok(run_benchmark_instrumented(benchmark, params)?.0)
}

/// Records per replay window of [`run_benchmark_instrumented`] (24 MiB of
/// packed records): the most of a trace that is ever resident at once.
const REPLAY_WINDOW: usize = 1 << 20;

/// [`run_benchmark`], also returning the per-option memory-engine
/// telemetry (one [`MemTelemetry`] per Fig. 7 option, in
/// [`StackOption::all`] order).
///
/// One streamed pass: the benchmark's kernels generate in the background
/// (see [`RmsBenchmark::stream`]) and each window of the merged trace is
/// replayed through all four options before the next one is generated, so
/// no point ever holds its whole trace. Results are bit-identical to
/// replaying the batch-generated trace once per option.
///
/// # Errors
///
/// See [`run_benchmark`].
pub fn run_benchmark_instrumented(
    benchmark: RmsBenchmark,
    params: &WorkloadParams,
) -> Result<(Fig5Row, [MemTelemetry; 4]), Error> {
    run_windowed(benchmark, params, REPLAY_WINDOW)
}

/// [`run_benchmark_instrumented`] with `window`-record replay windows.
///
/// Option-major: each window runs through one option's replay before the
/// next option's. An option's hierarchy is built when the first window
/// reaches it and dropped as soon as it has finished the last window, so a
/// trace that fits in one window builds the four hierarchies one at a
/// time.
fn run_windowed(
    benchmark: RmsBenchmark,
    params: &WorkloadParams,
    window: usize,
) -> Result<(Fig5Row, [MemTelemetry; 4]), Error> {
    let mut stream = benchmark.stream(params, window);
    let total = stream.len();
    let dep_window = stream.dep_window();
    let mut replays: [Option<Replay>; 4] = Default::default();
    let mut cpma = [0.0; 4];
    let mut bandwidth = [0.0; 4];
    let mut telemetry = [MemTelemetry::default(); 4];
    let mut fed = 0;
    loop {
        let records = stream.next().unwrap_or_default();
        fed += records.len();
        // an empty window before `total` means a short stream: finishing
        // then fails the replay's own record-count check
        let last = records.is_empty() || fed == total;
        for (i, option) in StackOption::all().into_iter().enumerate() {
            let mut replay = match replays[i].take() {
                Some(replay) => replay,
                None => Engine::new(
                    MemoryHierarchy::new(option.hierarchy())?,
                    EngineConfig::default(),
                )
                .replay(total, WARMUP_FRACTION, dep_window),
            };
            replay.feed(&records);
            if last {
                let result = replay.finish();
                cpma[i] = result.cpma;
                bandwidth[i] = result.offdie_gb_per_sec;
                telemetry[i] = result.telemetry();
            } else {
                replays[i] = Some(replay);
            }
        }
        if last {
            break;
        }
    }
    Ok((
        Fig5Row {
            benchmark,
            cpma,
            bandwidth,
        },
        telemetry,
    ))
}

/// Runs the full Fig. 5 study: all twelve RMS benchmarks across the four
/// Fig. 7 options. At paper scale this simulates ~130 M references.
///
/// # Errors
///
/// See [`run_benchmark`].
pub fn fig5(params: &WorkloadParams) -> Result<Fig5Data, Error> {
    Ok(Fig5Data {
        rows: RmsBenchmark::all()
            .iter()
            .map(|b| run_benchmark(*b, params))
            .collect::<Result<_, _>>()?,
    })
}

/// The thermal result for one Fig. 8 bar.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalPoint {
    /// The option.
    pub option: StackOption,
    /// Peak stack temperature in °C.
    pub peak_c: f64,
    /// Total stack power in watts.
    pub power_w: f64,
    /// The solved field (for thermal-map rendering, Fig. 6(b)/8(b)).
    pub field: TemperatureField,
}

/// Builds the thermal stack for one option.
pub fn thermal_stack(option: StackOption, grid: usize) -> LayerStack {
    let cpu = option.cpu_floorplan();
    let (w, h) = (cpu.width(), cpu.height());
    let ny = (grid * 17 / 20).max(1);
    let power: PowerGrid = cpu.power_grid(grid, ny);
    match option.stacked_floorplan() {
        None => LayerStack::planar(w, h, power),
        Some(top) => LayerStack::two_die(
            w,
            h,
            power,
            top.power_grid(grid, ny),
            option.stacked_die_is_dram(),
        ),
    }
}

/// [`thermal_stack`] with every power grid scaled by `power_factor` —
/// the V/f axis of `stacksim explore`: dynamic power scales as V²·f
/// while the floorplan geometry is unchanged.
pub fn thermal_stack_scaled(option: StackOption, grid: usize, power_factor: f64) -> LayerStack {
    let cpu = option.cpu_floorplan();
    let (w, h) = (cpu.width(), cpu.height());
    let ny = (grid * 17 / 20).max(1);
    let power = cpu.power_grid(grid, ny).scaled(power_factor);
    match option.stacked_floorplan() {
        None => LayerStack::planar(w, h, power),
        Some(top) => LayerStack::two_die(
            w,
            h,
            power,
            top.power_grid(grid, ny).scaled(power_factor),
            option.stacked_die_is_dram(),
        ),
    }
}

/// Solves the Fig. 8 thermal comparison across all four options.
///
/// # Errors
///
/// Propagates the first solver failure.
pub fn fig8() -> Result<Vec<ThermalPoint>, Error> {
    Ok(fig8_instrumented()?.0)
}

/// [`fig8`], also returning the accumulated CG statistics of the four
/// thermal solves.
///
/// # Errors
///
/// Propagates the first solver failure.
pub fn fig8_instrumented() -> Result<(Vec<ThermalPoint>, SolveStats), Error> {
    fig8_with(SolverConfig::default())
}

/// [`fig8_instrumented`] under an explicit solver configuration — the
/// harness threads its execution knob (worker threads) and the resilience
/// ladder's iteration and warm-start settings through here.
///
/// # Errors
///
/// Propagates the first solver failure.
pub fn fig8_with(cfg: SolverConfig) -> Result<(Vec<ThermalPoint>, SolveStats), Error> {
    let bc = Boundary::desktop();
    let mut stats = SolveStats::default();
    let mut points = Vec::new();
    for option in StackOption::all() {
        let stack = thermal_stack(option, cfg.nx);
        let sol = solve_with_stats(&stack, bc, cfg)?;
        stats.absorb(sol.stats);
        points.push(ThermalPoint {
            option,
            peak_c: sol.field.peak(),
            power_w: option.total_power(),
            field: sol.field,
        });
    }
    Ok((points, stats))
}

/// Solves the baseline planar thermal map of Fig. 6: returns the power
/// grid and the temperature field of the active layer.
///
/// # Errors
///
/// Propagates solver failure.
pub fn fig6() -> Result<(PowerGrid, TemperatureField), Error> {
    let (out, _) = fig6_instrumented()?;
    Ok(out)
}

/// [`fig6`], also returning the CG statistics of the solve.
///
/// # Errors
///
/// Propagates solver failure.
pub fn fig6_instrumented() -> Result<((PowerGrid, TemperatureField), SolveStats), Error> {
    fig6_with(SolverConfig::default())
}

/// [`fig6_instrumented`] under an explicit solver configuration.
///
/// # Errors
///
/// Propagates solver failure.
pub fn fig6_with(cfg: SolverConfig) -> Result<((PowerGrid, TemperatureField), SolveStats), Error> {
    let option = StackOption::Planar4M;
    let cpu = option.cpu_floorplan();
    let ny = (cfg.nx * 17 / 20).max(1);
    let grid = cpu.power_grid(cfg.nx, ny);
    let stack = thermal_stack(option, cfg.nx);
    let sol = solve_with_stats(&stack, Boundary::desktop(), cfg)?;
    Ok(((grid, sol.field), sol.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_matches_paper_within_a_degree() {
        let pts = fig8().unwrap();
        let paper = [88.35, 92.85, 88.43, 90.27];
        for (p, target) in pts.iter().zip(paper) {
            assert!(
                (p.peak_c - target).abs() < 1.2,
                "{}: {:.2} vs paper {target}",
                p.option,
                p.peak_c
            );
        }
        // the 32 MB DRAM option is thermally near-free (paper: +0.08 C)
        let delta = pts[2].peak_c - pts[0].peak_c;
        assert!(delta.abs() < 0.6, "32 MB delta {delta:.2}");
        // SRAM stacking heats the most
        assert!(pts[1].peak_c > pts[3].peak_c && pts[3].peak_c > pts[2].peak_c);
    }

    #[test]
    fn fig6_baseline_map_shape() {
        let (grid, field) = fig6().unwrap();
        assert!((grid.total() - 92.0).abs() < 1e-6);
        let peak = field.peak();
        assert!((peak - 88.35).abs() < 1.0, "peak {peak:.2}");
        // the die's coolest spot sits over the L2 (bottom half);
        // paper: 59 C with the epoxy-fillet edge effect we do not model
        let active = field.layer_by_name("active 1").expect("active layer");
        let min = active.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 55.0 && min < 70.0, "coolest {min:.2}");
    }

    #[test]
    fn test_scale_fig5_shows_capacity_separation() {
        // at test scale only shape sanity is checked: valid metrics and
        // capacity-insensitive benchmarks staying flat
        let row = run_benchmark(RmsBenchmark::Conj, &WorkloadParams::test()).unwrap();
        for c in row.cpma {
            assert!(c > 0.0 && c < 100.0);
        }
    }

    /// The materialised reference the streamed pass replaced: the whole
    /// trace generated, then replayed once per option.
    fn batch_reference(b: RmsBenchmark, p: &WorkloadParams) -> (Fig5Row, [MemTelemetry; 4]) {
        let trace = b.generate(p);
        let mut row = Fig5Row {
            benchmark: b,
            cpma: [0.0; 4],
            bandwidth: [0.0; 4],
        };
        let mut telemetry = [MemTelemetry::default(); 4];
        for (i, option) in StackOption::all().into_iter().enumerate() {
            let hierarchy = MemoryHierarchy::new(option.hierarchy()).unwrap();
            let result =
                Engine::new(hierarchy, EngineConfig::default()).run_warmed(&trace, WARMUP_FRACTION);
            row.cpma[i] = result.cpma;
            row.bandwidth[i] = result.offdie_gb_per_sec;
            telemetry[i] = result.telemetry();
        }
        (row, telemetry)
    }

    /// Every float and count of a point, as bits, so equality is exact.
    fn bits((row, telemetry): &(Fig5Row, [MemTelemetry; 4])) -> Vec<u64> {
        let mut out: Vec<u64> = row
            .cpma
            .iter()
            .chain(&row.bandwidth)
            .map(|x| x.to_bits())
            .collect();
        for t in telemetry {
            out.push(t.trace_records);
            out.extend(
                [
                    t.cpma,
                    t.offdie_gb_per_sec,
                    t.l1_hit_rate,
                    t.memory_fraction,
                ]
                .map(f64::to_bits),
            );
        }
        out
    }

    #[test]
    fn streamed_pass_matches_the_materialised_reference() {
        let p = WorkloadParams::test();
        for b in RmsBenchmark::all() {
            let reference = batch_reference(b, &p);
            let streamed = run_benchmark_instrumented(b, &p).unwrap();
            assert_eq!(streamed.0.benchmark, b);
            assert_eq!(bits(&streamed), bits(&reference), "{b}");
        }
    }

    #[test]
    fn replay_window_size_never_changes_a_bit() {
        // windows of one record, of a few blocks' worth, and one longer
        // than any test-scale trace (the single-window path)
        let p = WorkloadParams::test();
        for b in RmsBenchmark::all() {
            let reference = bits(&batch_reference(b, &p));
            for window in [1, 64, 4096, 1 << 20] {
                let streamed = run_windowed(b, &p, window).unwrap();
                assert_eq!(bits(&streamed), reference, "{b}, window {window}");
            }
        }
    }

    #[test]
    fn headline_math() {
        let data = Fig5Data {
            rows: vec![
                Fig5Row {
                    benchmark: RmsBenchmark::Gauss,
                    cpma: [4.0, 4.0, 2.0, 2.0],
                    bandwidth: [12.0, 12.0, 4.0, 4.0],
                },
                Fig5Row {
                    benchmark: RmsBenchmark::Conj,
                    cpma: [1.0, 1.0, 1.0, 1.0],
                    bandwidth: [0.0, 0.0, 0.0, 0.0],
                },
            ],
        };
        let h = data.headline();
        assert!((h.mean_cpma_reduction - 0.4).abs() < 1e-9);
        assert!((h.peak_cpma_reduction - 0.5).abs() < 1e-9);
        assert!((h.bandwidth_reduction_factor - 3.0).abs() < 1e-9);
        assert!((h.bus_power_reduction() - 2.0 / 3.0).abs() < 1e-9);
    }
}

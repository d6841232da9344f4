//! The dependency-driven trace issue engine.
//!
//! Mirrors the methodology of §2.1: the memory-hierarchy simulator "honors
//! all the dependencies specified in the trace and issues memory accesses
//! accordingly" — a record whose dependency has not completed may not issue.
//! Independent records from the same CPU issue back-to-back (up to a
//! configurable outstanding-miss window, which bounds memory-level
//! parallelism like a set of MSHRs would).

use std::borrow::BorrowMut;

use stacksim_trace::{CpuId, MemOp, PackedRecord, Trace};

use crate::config::{ConfigError, Cycles};
use crate::hierarchy::MemoryHierarchy;
use crate::stats::{HierarchyStats, RunResult};

/// Issue-engine parameters.
///
/// Marked `#[non_exhaustive]`: construct with [`EngineConfig::default`] or
/// [`EngineConfig::builder`] so new knobs can be added without breaking
/// downstream callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Maximum outstanding references per CPU (MSHR-like window).
    pub window: usize,
    /// Minimum cycles between successive issues from one CPU.
    pub issue_interval: Cycles,
    /// Out-of-order lookahead in cycles: younger independent references may
    /// issue at most this far *before* the most recently issued reference.
    /// This is the time-domain analogue of a finite reorder buffer — a
    /// dependency stall lets younger work proceed, but only as much as the
    /// window can hold.
    pub rob_lookahead: Cycles,
    /// Ablation switch: ignore dependency edges entirely (records then issue
    /// as fast as the window allows). Used by the `ablate_deps` bench.
    pub ignore_deps: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window: 32,
            issue_interval: 1,
            rob_lookahead: 192,
            ignore_deps: false,
        }
    }
}

impl EngineConfig {
    /// Starts a builder seeded with the default configuration.
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// Checks internal consistency. The lint pass `SL041` and the builder's
    /// [`EngineConfigBuilder::build`] both delegate here.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.window == 0 {
            return Err(ConfigError::new(
                "outstanding-reference window must be at least 1",
            ));
        }
        if self.issue_interval == 0 {
            return Err(ConfigError::new("issue interval must be at least 1 cycle"));
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Maximum outstanding references per CPU (MSHR-like window).
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        self.cfg.window = window;
        self
    }

    /// Minimum cycles between successive issues from one CPU.
    #[must_use]
    pub fn issue_interval(mut self, issue_interval: Cycles) -> Self {
        self.cfg.issue_interval = issue_interval;
        self
    }

    /// Out-of-order lookahead in cycles.
    #[must_use]
    pub fn rob_lookahead(mut self, rob_lookahead: Cycles) -> Self {
        self.cfg.rob_lookahead = rob_lookahead;
        self
    }

    /// Ablation switch: ignore dependency edges entirely.
    #[must_use]
    pub fn ignore_deps(mut self, ignore_deps: bool) -> Self {
        self.cfg.ignore_deps = ignore_deps;
        self
    }

    /// Finishes the configuration, validating it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`EngineConfig::validate`]). Use [`Self::try_build`] to handle the
    /// error instead.
    #[must_use]
    pub fn build(self) -> EngineConfig {
        match self.try_build() {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// Finishes the configuration, returning the first constraint violation
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the violation reported by [`EngineConfig::validate`].
    pub fn try_build(self) -> Result<EngineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[derive(Debug, Clone, Default)]
struct CpuState {
    /// Issue-bandwidth cursor: advances by `issue_interval` per record,
    /// independent of stalls — a dependency stall delays the stalled record
    /// only, while younger independent records keep issuing (out-of-order
    /// issue, as in the paper's tool where only the dependent record waits).
    cursor: Cycles,
    /// Completion times of outstanding references, sorted *descending* so
    /// both hot operations — draining completed references and claiming
    /// the earliest completion when the window is full — are pops off the
    /// tail instead of head removals or whole-vector scans.
    outstanding: Vec<Cycles>,
}

impl CpuState {
    #[inline(always)]
    fn drain_before(&mut self, t: Cycles) {
        while self.outstanding.last().is_some_and(|&c| c <= t) {
            self.outstanding.pop();
        }
    }

    #[inline(always)]
    fn insert(&mut self, done: Cycles) {
        // Linear scan from the tail (the *small*, recently-completing
        // entries) instead of a binary search: completions cluster, so
        // the scan stops after a couple of well-predicted probes, while
        // `partition_point` eats branch mispredicts on every level.
        // Ties may land on either side of existing equal entries — both
        // drain/pop paths treat equal times identically.
        // Open-coded as push-then-shift: `Vec::insert` costs a capacity
        // check and an out-of-line memmove even when nothing moves, while
        // this loop compiles to a couple of in-register moves for the
        // typical 0–4 displaced entries.
        let v = &mut self.outstanding;
        v.push(done);
        let mut pos = v.len() - 1;
        while pos > 0 && v[pos - 1] < done {
            v[pos] = v[pos - 1];
            pos -= 1;
        }
        v[pos] = done;
    }
}

/// Issue time and completion time of one stepped record.
#[derive(Debug, Clone, Copy)]
struct Issued {
    /// Cycle the record issued (after dependency / window stalls).
    at: Cycles,
    /// Cycle the reference was satisfied.
    done: Cycles,
}

/// Drives a [`MemoryHierarchy`] with a dependency-annotated trace.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    hierarchy: MemoryHierarchy,
}

impl Engine {
    /// Creates an engine around a hierarchy.
    pub fn new(hierarchy: MemoryHierarchy, cfg: EngineConfig) -> Self {
        Engine { cfg, hierarchy }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Read access to the driven hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Runs a whole trace and reports metrics over all of it.
    pub fn run(&mut self, trace: &Trace) -> RunResult {
        self.run_warmed(trace, 0.0)
    }

    /// Runs a trace, excluding the first `warmup` fraction (0.0..1.0) of
    /// records from the reported metrics — one [`Replay::feed`] of the
    /// whole trace. See [`Engine::replay`] for the warm-up accounting.
    ///
    /// # Panics
    ///
    /// As [`Engine::replay`].
    pub fn run_warmed(&mut self, trace: &Trace, warmup: f64) -> RunResult {
        let dep_window = trace.max_dep_offset().max(1) as usize;
        let mut replay = Replay::new(self, trace.len(), warmup, dep_window);
        replay.feed(trace.packed());
        replay.finish()
    }

    /// Starts an incremental replay of a `total`-record trace whose blocks
    /// arrive one [`Replay::feed`] at a time — the streamed counterpart of
    /// [`Engine::run_warmed`], bit-identical to it for any partition of the
    /// trace into blocks. The replay owns the engine, so several replays
    /// can advance side by side over the same blocks.
    ///
    /// The first `warmup` fraction of records (`(total * warmup) as
    /// usize` of them) is excluded from the reported metrics; it still
    /// updates cache, bank and bus state, so large caches are measured
    /// warm. The measured interval is bounded by *issue* and *completion*
    /// times of the measured records themselves: it opens at the earliest
    /// issue among them and closes at their latest completion, so
    /// pre-warmup references still in flight at the boundary do not
    /// deflate it.
    ///
    /// Dependencies must point at most `dep_window` records back: the
    /// replay keeps completion times in a power-of-two ring of at least
    /// that length, not a full-length table.
    ///
    /// # Panics
    ///
    /// Panics if `warmup` is not within `0.0..1.0`, if `warmup` rounds the
    /// warm prefix up to the entire (non-empty) trace and would leave an
    /// empty measurement window — which would otherwise silently report a
    /// CPMA of 0.0 — or if `dep_window` is zero.
    pub fn replay(self, total: usize, warmup: f64, dep_window: usize) -> Replay {
        Replay::new(self, total, warmup, dep_window)
    }

    /// The one issue/drain/access/cursor sequence of the replay loop.
    /// `dep_done` is the completion time of the record's dependency (0
    /// when it has none); it is ignored under the `ignore_deps` ablation.
    /// Force-inlined: with two call sites (the warm and the measured
    /// loop) this loses the inliner's cost model, but each loop wants the
    /// whole issue/access/insert chain flattened so the per-cpu state
    /// stays in registers across records.
    #[inline(always)]
    fn issue(
        &mut self,
        cpu_id: CpuId,
        op: MemOp,
        addr: u64,
        cpu: &mut CpuState,
        dep_done: Cycles,
    ) -> Issued {
        let mut t = cpu.cursor;
        if !self.cfg.ignore_deps {
            t = t.max(dep_done);
        }
        cpu.drain_before(t);
        while cpu.outstanding.len() >= self.cfg.window {
            match cpu.outstanding.pop() {
                Some(earliest) => t = t.max(earliest),
                None => break, // unreachable: len >= window >= 1
            }
        }
        let res = self.hierarchy.access(cpu_id, op, addr, t);
        cpu.insert(res.done);
        // the cursor advances at issue bandwidth, but may not lag the newest
        // issue by more than the lookahead — younger records overlap a stall
        // only as far as the reorder window reaches
        cpu.cursor =
            cpu.cursor.max(t.saturating_sub(self.cfg.rob_lookahead)) + self.cfg.issue_interval;
        Issued {
            at: t,
            done: res.done,
        }
    }
}

/// An in-progress replay of a `total`-record trace through one engine,
/// fed block by block (see [`Engine::replay`]).
///
/// Generic over how it holds the engine: [`Engine::replay`] hands out an
/// owning `Replay`, [`Engine::run_warmed`] a borrowing one.
#[derive(Debug)]
pub struct Replay<E: BorrowMut<Engine> = Engine> {
    engine: E,
    total: usize,
    warm_records: usize,
    dep_window: usize,
    /// Completion times, indexed by record position masked to the ring.
    ring: Vec<Cycles>,
    cpus: Vec<CpuState>,
    /// Records fed so far (the next record's position).
    fed: usize,
    stats_at_warmup: HierarchyStats,
    bus_bytes_at_warmup: u64,
    /// Earliest issue / latest completion over the *measured* records
    /// (`MAX` = none measured yet; min-tracking stays branchless).
    measured_from: Cycles,
    measured_last: Cycles,
}

impl<E: BorrowMut<Engine>> Replay<E> {
    fn new(engine: E, total: usize, warmup: f64, dep_window: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&warmup),
            "warmup fraction must be in [0, 1)"
        );
        let warm_records = (total as f64 * warmup) as usize;
        assert!(
            total == 0 || warm_records < total,
            "warmup fraction {warmup} warms all {total} records and leaves an \
             empty measurement window"
        );
        assert!(dep_window > 0, "dependency window must be positive");
        Replay {
            engine,
            total,
            warm_records,
            dep_window,
            ring: vec![0; dep_window.next_power_of_two()],
            cpus: Vec::new(),
            fed: 0,
            stats_at_warmup: HierarchyStats::default(),
            bus_bytes_at_warmup: 0,
            measured_from: Cycles::MAX,
            measured_last: 0,
        }
    }

    /// Replays the next block of records.
    ///
    /// # Panics
    ///
    /// Panics if the block would take the replay past `total` records, or
    /// a record's dependency reaches further back than `dep_window`.
    pub fn feed(&mut self, block: &[PackedRecord]) {
        assert!(
            block.len() <= self.total - self.fed,
            "fed {} records past the announced total of {}",
            self.fed + block.len() - self.total,
            self.total
        );
        let Replay {
            engine,
            warm_records,
            dep_window,
            ring,
            cpus,
            fed,
            stats_at_warmup,
            bus_bytes_at_warmup,
            measured_from,
            measured_last,
            ..
        } = self;
        let engine = engine.borrow_mut();
        let (warm_records, dep_window) = (*warm_records, *dep_window);
        let mask = ring.len() - 1;
        let mut pos = *fed;
        let warm_len = warm_records.saturating_sub(pos).min(block.len());
        let (warm, measured) = block.split_at(warm_len);
        for p in warm {
            let dep_done = dep_done(ring, mask, pos, dep_window, p);
            let issued = engine.issue(p.cpu(), p.op(), p.addr, replay_cpu(cpus, p), dep_done);
            ring[pos & mask] = issued.done;
            pos += 1;
        }
        if warm_len > 0 && pos == warm_records {
            *stats_at_warmup = *engine.hierarchy.stats();
            *bus_bytes_at_warmup = engine.hierarchy.bus().bytes();
        }
        let (mut from, mut last) = (*measured_from, *measured_last);
        for p in measured {
            let dep_done = dep_done(ring, mask, pos, dep_window, p);
            let issued = engine.issue(p.cpu(), p.op(), p.addr, replay_cpu(cpus, p), dep_done);
            ring[pos & mask] = issued.done;
            pos += 1;
            from = from.min(issued.at);
            last = last.max(issued.done);
        }
        (*measured_from, *measured_last, *fed) = (from, last, pos);
    }

    /// Completes the replay and reports metrics over the measured records.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `total` records were fed.
    pub fn finish(mut self) -> RunResult {
        assert!(
            self.fed == self.total,
            "replay finished after {} of its {} records",
            self.fed,
            self.total
        );
        let engine = self.engine.borrow_mut();
        engine.hierarchy.obs_flush();
        if stacksim_obs::enabled() {
            stacksim_obs::counter(crate::obs::ENGINE_RECORDS).add(self.total as u64);
        }

        let end_stats = *engine.hierarchy.stats();
        let stats = diff_stats(end_stats, self.stats_at_warmup);
        let bytes = engine.hierarchy.bus().bytes() - self.bus_bytes_at_warmup;
        let total_cycles =
            self.measured_last
                .saturating_sub(if self.measured_from == Cycles::MAX {
                    0
                } else {
                    self.measured_from
                });
        let references = stats.accesses;
        debug_assert!(
            references > 0 || self.total == 0,
            "non-empty trace produced an empty measurement window"
        );
        let cpma = if references == 0 {
            0.0
        } else {
            total_cycles as f64 / references as f64
        };
        let gbs = if total_cycles == 0 {
            0.0
        } else {
            bytes as f64 * engine.hierarchy.config().bus.core_hz / total_cycles as f64 / 1e9
        };
        RunResult {
            total_cycles,
            references,
            cpma,
            mean_latency: stats.mean_latency(),
            offdie_gb_per_sec: gbs,
            offdie_bytes: bytes,
            stats,
        }
    }
}

/// The issuing cpu's state, grown on first sight of a cpu id.
#[inline(always)]
fn replay_cpu<'a>(cpus: &'a mut Vec<CpuState>, p: &PackedRecord) -> &'a mut CpuState {
    let i = p.cpu().index();
    if i >= cpus.len() {
        cpus.resize_with(i + 1, CpuState::default);
    }
    &mut cpus[i]
}

/// Completion time of the record's dependency (0 when it has none), read
/// from the ring at position `pos`. A distance of exactly `dep_window` is
/// legal even when the ring is no longer than the window: the
/// dependency's slot is the one this record overwrites, and it is read
/// first.
#[inline(always)]
fn dep_done(
    ring: &[Cycles],
    mask: usize,
    pos: usize,
    dep_window: usize,
    p: &PackedRecord,
) -> Cycles {
    let d = p.dep_offset() as usize;
    assert!(
        d <= dep_window,
        "dependency distance {d} exceeds the window {dep_window}"
    );
    if d == 0 {
        0
    } else {
        ring[(pos - d) & mask]
    }
}

fn diff_stats(end: HierarchyStats, start: HierarchyStats) -> HierarchyStats {
    HierarchyStats {
        accesses: end.accesses - start.accesses,
        l1_hits: end.l1_hits - start.l1_hits,
        l2_hits: end.l2_hits - start.l2_hits,
        stacked_hits: end.stacked_hits - start.stacked_hits,
        stacked_sector_misses: end.stacked_sector_misses - start.stacked_sector_misses,
        memory_accesses: end.memory_accesses - start.memory_accesses,
        memory_served: end.memory_served - start.memory_served,
        l1_writebacks: end.l1_writebacks - start.l1_writebacks,
        offdie_writebacks: end.offdie_writebacks - start.offdie_writebacks,
        fill_waits: end.fill_waits - start.fill_waits,
        latency_sum: end.latency_sum - start.latency_sum,
        last_completion: end.last_completion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use stacksim_trace::{CpuId, MemOp, TraceBuilder};

    fn engine() -> Engine {
        baseline_engine(EngineConfig::default())
    }

    fn baseline_engine(cfg: EngineConfig) -> Engine {
        Engine::new(
            MemoryHierarchy::new(HierarchyConfig::core2_baseline()).expect("valid preset"),
            cfg,
        )
    }

    #[test]
    fn builder_accepts_valid_config() {
        let cfg = EngineConfig::builder().window(8).issue_interval(2).build();
        assert_eq!(cfg.window, 8);
        assert_eq!(cfg.issue_interval, 2);
    }

    #[test]
    fn zero_window_rejected() {
        let err = EngineConfig::builder().window(0).try_build();
        assert!(err.unwrap_err().to_string().contains("window"));
    }

    #[test]
    fn zero_issue_interval_rejected() {
        let err = EngineConfig::builder().issue_interval(0).try_build();
        assert!(err.unwrap_err().to_string().contains("issue interval"));
    }

    #[test]
    #[should_panic(expected = "invalid memory configuration")]
    fn build_panics_on_invalid() {
        let _ = EngineConfig::builder().window(0).build();
    }

    #[test]
    fn pure_hit_trace_reaches_issue_throughput() {
        // one cpu touching a single line repeatedly: after the cold miss,
        // every access is an L1 hit and issues once per cycle
        let mut b = TraceBuilder::new();
        for _ in 0..1000 {
            b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        }
        let t = b.build();
        let r = engine().run(&t);
        // elapsed ~ cold miss latency + ~1000 issue slots; cpma ~ 1.26
        assert!(r.cpma < 1.5, "cpma = {}", r.cpma);
        assert_eq!(r.references, 1000);
        assert_eq!(r.stats.l1_hits, 999);
    }

    #[test]
    fn two_cpus_halve_cpma() {
        let mut b = TraceBuilder::new();
        for _ in 0..1000 {
            b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
            b.record(CpuId::new(1), MemOp::Load, 0x9000, 0);
        }
        let t = b.build();
        let r = engine().run(&t);
        assert!(
            r.cpma < 0.8,
            "two independent streams overlap: cpma = {}",
            r.cpma
        );
    }

    #[test]
    fn serial_dependence_chain_exposes_latency() {
        // every load depends on the previous one and misses (distinct 4 KB
        // pages, distinct L2 sets): CPMA approaches the memory latency
        let mut b = TraceBuilder::new();
        let mut prev = None;
        for i in 0..200u64 {
            prev = Some(b.record_dep(CpuId::new(0), MemOp::Load, i << 20, 0, prev));
        }
        let t = b.build();
        let r = engine().run(&t);
        assert!(
            r.cpma > 150.0,
            "serial misses cannot overlap: cpma = {}",
            r.cpma
        );
    }

    #[test]
    fn ignoring_deps_restores_overlap() {
        // stride 4 KB so successive misses hit different DDR banks and can
        // genuinely overlap once dependencies are ignored
        let mut b = TraceBuilder::new();
        let mut prev = None;
        for i in 0..200u64 {
            prev = Some(b.record_dep(CpuId::new(0), MemOp::Load, i * 4096, 0, prev));
        }
        let t = b.build();
        let mut e = Engine::new(
            MemoryHierarchy::new(HierarchyConfig::core2_baseline()).expect("valid preset"),
            EngineConfig {
                ignore_deps: true,
                ..EngineConfig::default()
            },
        );
        let overlapped = e.run(&t).cpma;
        let mut e = Engine::new(
            MemoryHierarchy::new(HierarchyConfig::core2_baseline()).expect("valid preset"),
            EngineConfig::default(),
        );
        let serial = e.run(&t).cpma;
        assert!(
            overlapped * 2.0 < serial,
            "ignoring deps must at least halve CPMA: {overlapped} vs {serial}"
        );
    }

    #[test]
    fn window_bounds_outstanding_misses() {
        // independent misses with window 1 serialize completely
        let mut b = TraceBuilder::new();
        for i in 0..100u64 {
            b.record(CpuId::new(0), MemOp::Load, i << 20, 0);
        }
        let t = b.build();
        let mut e = Engine::new(
            MemoryHierarchy::new(HierarchyConfig::core2_baseline()).expect("valid preset"),
            EngineConfig {
                window: 1,
                ..EngineConfig::default()
            },
        );
        let serial = e.run(&t).cpma;
        let parallel = engine().run(&t).cpma;
        assert!(
            serial > 2.0 * parallel,
            "window=1 ({serial}) must be much slower than window=16 ({parallel})"
        );
    }

    #[test]
    fn warmup_excludes_cold_misses() {
        // first half touches the working set (cold), second half re-touches
        // it (warm); with warmup=0.5 the reported run is all hits
        let mut b = TraceBuilder::new();
        for rep in 0..2 {
            for i in 0..64u64 {
                let _ = rep;
                b.record(CpuId::new(0), MemOp::Load, 0x1000 + i * 64, 0);
            }
        }
        let t = b.build();
        let mut e = engine();
        let r = e.run_warmed(&t, 0.5);
        assert_eq!(r.references, 64);
        assert_eq!(r.stats.l1_hits, 64, "measured region is fully warm");
    }

    #[test]
    fn warmup_interval_opens_at_measured_issue_not_warmup_completion() {
        // One cold off-die miss (completes ~262) followed by an L1 hit.
        // With warmup=0.5 the measured window is just the hit: it issues
        // at cycle 1 and completes at cycle 5. The old accounting opened
        // the interval at the *warmup prefix's* max completion (262),
        // saturating-subtracted its way to 0 cycles and reported CPMA 0.
        let mut b = TraceBuilder::new();
        b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        let t = b.build();
        let r = engine().run_warmed(&t, 0.5);
        assert_eq!(r.references, 1);
        assert_eq!(r.stats.l1_hits, 1);
        assert_eq!(r.total_cycles, 4, "issue at 1, L1 hit completes at 5");
        assert!((r.cpma - 4.0).abs() < 1e-12, "cpma = {}", r.cpma);
    }

    #[test]
    fn warmup_near_one_on_short_trace_still_measures() {
        let mut b = TraceBuilder::new();
        b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
        let t = b.build();
        // 2 * 0.9 floors to 1 warm record: one measured reference remains.
        let r = engine().run_warmed(&t, 0.9);
        assert_eq!(r.references, 1);
        assert!(r.cpma > 0.0, "a measured reference must cost cycles");
    }

    #[test]
    fn extreme_warmup_never_empties_the_measurement_window() {
        // The largest f64 below 1.0. For any trace length the product
        // `len * warmup` stays strictly below `len` (the real value
        // `len - len * 2^-53` never rounds up to `len`), so at least one
        // record is always measured — and the explicit assert in
        // `run_warmed` guards the invariant should the computation ever
        // change. Before the accounting fix this scenario reported a
        // silent CPMA of 0.0; now it must always cost cycles.
        let warmup = f64::from_bits(0x3FEF_FFFF_FFFF_FFFF);
        for len in [1usize, 2, 3, 1024] {
            let mut b = TraceBuilder::new();
            for _ in 0..len {
                b.record(CpuId::new(0), MemOp::Load, 0x1000, 0);
            }
            let t = b.build();
            let r = engine().run_warmed(&t, warmup);
            assert!(r.references >= 1, "len {len} measured nothing");
            assert!(r.cpma > 0.0, "len {len}: measured work must cost cycles");
        }
    }

    #[test]
    fn empty_trace_is_a_zero_run() {
        let r = engine().run(&Trace::new());
        assert_eq!(r.references, 0);
        assert_eq!(r.cpma, 0.0);
        assert_eq!(r.offdie_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "warmup fraction")]
    fn invalid_warmup_panics() {
        let _ = engine().run_warmed(&Trace::new(), 1.5);
    }

    fn mixed_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new();
        let mut prev = None;
        for i in 0..n {
            let dep = if i % 4 == 0 { prev } else { None };
            prev = Some(b.record_dep(
                CpuId::new((i % 2) as u8),
                if i % 7 == 0 {
                    MemOp::Store
                } else {
                    MemOp::Load
                },
                (i * 2917) % (1 << 22),
                0,
                dep,
            ));
        }
        b.build()
    }

    /// A trace whose last record depends on the first, `distance`
    /// records back.
    fn dependency_at_distance(distance: u64) -> Trace {
        let mut b = TraceBuilder::new();
        let first = b.record_dep(CpuId::new(0), MemOp::Load, 0, 0, None);
        for i in 1..distance {
            b.record(CpuId::new(0), MemOp::Load, i << 20, 0);
        }
        b.record_dep(CpuId::new(0), MemOp::Load, 64, 0, Some(first));
        b.build()
    }

    /// Replays `t` in `block_len`-record feeds through a fresh engine.
    fn replay_in_blocks(
        cfg: EngineConfig,
        t: &Trace,
        warmup: f64,
        dep_window: usize,
        block_len: usize,
    ) -> RunResult {
        let mut r = baseline_engine(cfg).replay(t.len(), warmup, dep_window);
        for block in t.packed().chunks(block_len) {
            r.feed(block);
        }
        r.finish()
    }

    fn assert_same_run(batch: &RunResult, streamed: &RunResult, at: &str) {
        assert_eq!(batch.total_cycles, streamed.total_cycles, "{at}");
        assert_eq!(batch.offdie_bytes, streamed.offdie_bytes, "{at}");
        assert_eq!(batch.references, streamed.references, "{at}");
        assert_eq!(batch.stats, streamed.stats, "{at}");
        assert_eq!(batch.cpma.to_bits(), streamed.cpma.to_bits(), "{at}");
        assert_eq!(
            batch.offdie_gb_per_sec.to_bits(),
            streamed.offdie_gb_per_sec.to_bits(),
            "{at}"
        );
    }

    #[test]
    fn replay_matches_run_at_any_block_size() {
        let with = |f: fn(&mut EngineConfig)| {
            let mut cfg = EngineConfig::default();
            f(&mut cfg);
            cfg
        };
        // (engine config, trace, dependency window): the default config;
        // lookahead 0 (cursor pinned to the newest issue) and an
        // effectively unbounded one; window=2, which runs the
        // outstanding-miss drain on nearly every record; and a dependency
        // at exactly `dep_window`, the boundary the ring makes legal (the
        // dependency's slot is read before this record overwrites it).
        let cases = [
            (EngineConfig::default(), mixed_trace(5_000), 64),
            (with(|c| c.rob_lookahead = 0), mixed_trace(5_000), 64),
            (with(|c| c.rob_lookahead = 1 << 40), mixed_trace(5_000), 64),
            (with(|c| c.window = 2), mixed_trace(5_000), 64),
            (EngineConfig::default(), dependency_at_distance(16), 16),
        ];
        for (cfg, t, dep_window) in &cases {
            for warmup in [0.0, 0.4] {
                let batch = baseline_engine(*cfg).run_warmed(t, warmup);
                for block_len in [1usize, 64, 4096] {
                    let streamed = replay_in_blocks(*cfg, t, warmup, *dep_window, block_len);
                    let at = format!("cfg {cfg:?}, warmup {warmup}, block {block_len}");
                    assert_same_run(&batch, &streamed, &at);
                }
            }
        }
    }

    #[test]
    fn replay_warm_boundary_anywhere_in_a_block() {
        // 100 records: warm-up 0.0 puts the boundary at record 0; 0.3 at
        // record 30, inside a 16-record block (16..32) and on no edge;
        // 0.32 at record 32, exactly on the edge between two blocks
        let t = mixed_trace(100);
        for (warmup, warm) in [(0.0, 0), (0.3, 30), (0.32, 32)] {
            assert_eq!((t.len() as f64 * warmup) as usize, warm);
            let batch = engine().run_warmed(&t, warmup);
            assert_eq!(batch.references, 100 - warm as u64);
            for block_len in [1usize, 16, 100] {
                let streamed = replay_in_blocks(EngineConfig::default(), &t, warmup, 64, block_len);
                assert_same_run(
                    &batch,
                    &streamed,
                    &format!("warmup {warmup}, block {block_len}"),
                );
            }
        }
    }

    #[test]
    fn replay_of_an_empty_trace_is_a_zero_run() {
        let r = engine().replay(0, 0.4, 1).finish();
        assert_eq!(r.references, 0);
        assert_eq!(r.cpma, 0.0);
    }

    /// Runs `f` and returns its panic message, failing if it returns.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn replay_rejects_distant_dependencies() {
        // Far past the window, and one past the boundary, where the
        // dependency's slot has already been overwritten by a younger
        // record: both must panic rather than read a wrong completion.
        for distance in [101u64, 17] {
            let t = dependency_at_distance(distance);
            let message = panic_message(|| {
                let mut r = engine().replay(t.len(), 0.0, 16);
                r.feed(t.packed());
            });
            assert!(
                message.contains("exceeds the window"),
                "distance {distance}: {message}"
            );
        }
    }

    #[test]
    fn replay_rejects_records_past_the_total() {
        let t = mixed_trace(10);
        let message = panic_message(|| {
            let mut r = engine().replay(9, 0.0, 64);
            r.feed(&t.packed()[..5]);
            r.feed(&t.packed()[5..]);
        });
        assert!(
            message.contains("past the announced total of 9"),
            "{message}"
        );
    }

    #[test]
    fn replay_rejects_finishing_early() {
        let t = mixed_trace(10);
        let message = panic_message(|| {
            let mut r = engine().replay(10, 0.4, 64);
            r.feed(&t.packed()[..9]);
            let _ = r.finish();
        });
        assert!(message.contains("after 9 of its 10 records"), "{message}");
    }

    #[test]
    fn offdie_bandwidth_reported_for_streaming_misses() {
        let mut b = TraceBuilder::new();
        for i in 0..5000u64 {
            b.record(CpuId::new(0), MemOp::Load, i * 64, 0);
        }
        let t = b.build();
        let mut e = engine();
        let r = e.run(&t);
        assert!(
            r.offdie_gb_per_sec > 1.0,
            "streaming misses load the bus: {}",
            r.offdie_gb_per_sec
        );
        assert!(r.offdie_bytes >= 5000 / 64 * 64, "every line fetched once");
    }
}

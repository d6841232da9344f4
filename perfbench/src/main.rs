//! The stacksim benchmark: runs one named workload from a seed through
//! the public APIs, checks its outputs, and prints every metric.
//!
//! ```text
//! stacksim-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                    [--work-dir DIR] [--print-digests]
//! ```
//!
//! Workloads: `paper_cold`, `explore_thermal`, `serve_mixed` (see
//! `perfbench/README.md`). With `--trace 0` the last line of standard
//! output is a JSON object with every end-to-end metric; with
//! `--trace 1` the workload is re-driven through its layer calls in
//! spans and the line holds every per-layer metric. `--print-digests`
//! prints the artifact digests the run produced in the
//! `perfbench/expected/*.json` format instead.

mod expect;
mod explore_thermal;
mod layers;
mod metrics;
mod paper_cold;
mod serve_mixed;
mod spans;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use metrics::Outcome;

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch root; every cache directory lives below it.
    pub work: PathBuf,
    /// Session worker threads and client threads: one per CPU.
    pub jobs: usize,
    /// Where the traced run writes its spans (JSON lines).
    pub spans_out: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory `work/<name>`.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        remove_dir(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Removes a scratch directory, ignoring one that is already gone.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether another unit of work, expected to take as long as the last
/// (`last_s`), still ends within `seconds` of `start`: runs measure whole
/// units, at least one, without overrunning their time.
pub fn another(start: Instant, last_s: f64, seconds: f64) -> bool {
    secs(start) + last_s <= seconds
}

/// What a workload run hands back besides its metrics: the artifact
/// digests it produced, by expected-file key.
pub type Digests = BTreeMap<String, String>;

const USAGE: &str = "usage: stacksim-perfbench --workload paper_cold|explore_thermal|serve_mixed \
--seed N --seconds S --trace 0|1 [--work-dir DIR] [--print-digests]";

struct Args {
    workload: String,
    ctx: Ctx,
    print_digests: bool,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = PathBuf::from(".bench_build/perfbench-work");
    let mut print_digests = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = Some(it.next()?.clone()),
            "--seed" => seed = Some(it.next()?.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(it.next()?.parse::<f64>().ok()?),
            "--trace" => {
                trace = Some(match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--work-dir" => work = PathBuf::from(it.next()?),
            "--print-digests" => print_digests = true,
            _ => return None,
        }
    }
    let seconds = seconds?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return None;
    }
    Some(Args {
        workload: workload?,
        ctx: Ctx {
            seed: seed?,
            seconds,
            trace: trace?,
            spans_out: work.join("spans.jsonl"),
            work,
            jobs: sys::nproc(),
        },
        print_digests,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let ctx = args.ctx;
    let run: fn(&Ctx, &mut Outcome) -> Result<Digests, String> = match args.workload.as_str() {
        "paper_cold" => paper_cold::run,
        "explore_thermal" => explore_thermal::run,
        "serve_mixed" => serve_mixed::run,
        other => {
            eprintln!("stacksim-perfbench: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = ctx
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    let spans_out = ctx
        .work
        .join(format!("spans-{}-{}.jsonl", args.workload, ctx.seed));
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("stacksim-perfbench: {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        work,
        spans_out,
        ..ctx
    };
    let mut out = Outcome::default();
    let result = run(&ctx, &mut out);
    remove_dir(&ctx.work);
    let digests = match result {
        Ok(d) => d,
        Err(e) => {
            eprintln!("stacksim-perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "fail_ratio: {} ({} of {} operations)",
        out.fail_ratio(),
        out.failed,
        out.attempted
    );
    if args.print_digests {
        print!(
            "{}",
            expect::Expected::render(&args.workload, ctx.seed, &digests)
        );
        return ExitCode::SUCCESS;
    }
    let catalogue: &[(&str, &str)] = if ctx.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    println!("{}", out.result_line(catalogue));
    ExitCode::SUCCESS
}

//! `stacksim`, the one command-line front end: list, run, explore, serve,
//! check, bench, stats and clean. Every table and figure of the paper is
//! one registry experiment, so `stacksim run <name> --show` reproduces it
//! (`run headline fig8 fig11 table4 table5 --show` prints the abstract's
//! numbers with their figures).
//!
//! ```text
//! stacksim list
//! stacksim run [NAMES | --all] [options]
//! stacksim explore [options]
//! stacksim serve [options]
//! stacksim check [NAMES | --all] [options]
//! stacksim bench [options]
//! stacksim stats [FILE] [options]
//! stacksim clean [--cache-dir D]
//! ```
//!
//! Every flag is one entry of the flag table ([`FLAGS`]): its name, the
//! commands that accept it, whether it takes a value, its parse and
//! validation, and its help line. One parser and one usage generator
//! (`stacksim` with no arguments) read it. Every command opens the memo
//! cache through [`open_cache`], so they all share one sharded layout
//! under `--cache-dir`.
//!
//! `run` executes the selection (plus transitive dependencies) in
//! parallel, memoizes artifacts under the cache directory, and prints a
//! per-experiment telemetry summary: wall time, cache hits, CG solver
//! iterations, simulated trace lengths. A second `run` with the same
//! configuration completes from cache — the telemetry shows zero solver
//! iterations and zero trace records.
//!
//! `--metrics-out` / `--events` turn on the observability layer
//! (DESIGN.md §10): the run additionally writes a `stacksim-obs/1`
//! metrics snapshot and/or a JSONL span log, and `stacksim stats`
//! renders the most recent snapshot (also kept at
//! `target/stacksim-obs/last.json`). Simulation artifacts are
//! bit-identical with observability on or off.
//!
//! `--fault-plan` arms a deterministic `stacksim-faults/1` injection
//! plan for the duration of the run (DESIGN.md §11); `--keep-going`
//! completes every experiment the failures don't transitively poison and
//! writes a machine-readable `stacksim-failures/1` report, which
//! `stacksim stats --failures` validates. Resilience knobs: `--retries`
//! caps transient retries per experiment, `--deadline` bounds each
//! experiment's recovery time in seconds.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use stacksim::bench::perf::BenchOptions;
use stacksim::core::harness::{
    check, default_cache_dir, obs_report, render, resilience, ExperimentRequest, FailureReport,
    MemoCache, Registry, Resilience, RunOutcome, RunReport, Sim,
};
use stacksim::core::{fmt_f, TextTable};
use stacksim::explore::SearchMode;
use stacksim::faults::FaultPlan;
use stacksim::serve::ServeOptions;
use stacksim::workloads::WorkloadParams;
use Takes::{Switch, Value};

/// Shard subdirectories of the memo cache. One constant for every
/// command, so whatever `serve` or `explore` stored, `run` hits and
/// `clean` removes.
const CACHE_SHARDS: usize = 16;

/// Every value a flag can set, for every command; `None` is a flag not
/// given. Each command reads the fields its own flags fill.
#[derive(Default)]
struct Opts {
    /// `run`/`check` operands: experiment names.
    names: Vec<String>,
    /// `stats` operand: the snapshot to read.
    file: Option<PathBuf>,
    all: bool,
    jobs: usize,
    solver_threads: Option<usize>,
    no_cache: bool,
    cache_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    test_scale: bool,
    metrics_out: Option<PathBuf>,
    events_out: Option<PathBuf>,
    fault_plan: Option<PathBuf>,
    json: bool,
    // run
    run_report: Option<PathBuf>,
    show: bool,
    keep_going: bool,
    failures_out: Option<PathBuf>,
    retries: Option<usize>,
    deadline_s: Option<f64>,
    // explore
    mode: Option<SearchMode>,
    budget: usize,
    seed: u64,
    spec: Option<PathBuf>,
    out: Option<PathBuf>,
    explore_report: bool,
    // serve
    serve: ServeOptions,
    journal: Option<PathBuf>,
    no_journal: bool,
    // bench
    bench: BenchOptions,
    // stats
    events_in: Option<PathBuf>,
    failures_in: Option<PathBuf>,
}

/// How a flag reads the command line.
enum Takes {
    /// A switch: present or not.
    Switch(fn(&mut Opts)),
    /// A value: the usage placeholder, then the parse + validation that
    /// stores the next argument (`None` rejects it as a usage error).
    Value(&'static str, fn(&mut Opts, &str) -> Option<()>),
}

/// One entry of the flag table.
struct Flag {
    name: &'static str,
    commands: &'static [&'static str],
    takes: Takes,
    help: &'static str,
}

/// Stores a parsed flag value.
fn put<S: From<T>, T>(slot: &mut S, value: T) -> Option<()> {
    *slot = value.into();
    Some(())
}

/// Parses a number no smaller than `min`.
fn num<T: FromStr + PartialOrd>(v: &str, min: T) -> Option<T> {
    v.parse().ok().filter(|n| *n >= min)
}

/// The flag table: every flag of every command, each parsed and
/// validated in one place, with the commands that accept it. A name two
/// commands share is one entry when it means the same in both; `run
/// --report FILE` versus the boolean `explore --report`, and the `stats`
/// flags that read what `run` writes, are separate entries.
static FLAGS: &[Flag] = &[
    Flag {
        name: "--all",
        commands: &["run", "check"],
        takes: Switch(|o| o.all = true),
        help: "every registered experiment (check adds the digest audit)",
    },
    Flag {
        name: "--jobs",
        commands: &["run", "explore", "serve"],
        takes: Value("N", |o, v| put(&mut o.jobs, num(v, 0usize)?)),
        help: "worker threads per experiment batch (default: all CPUs)",
    },
    Flag {
        name: "--no-cache",
        commands: &["run", "explore", "serve"],
        takes: Switch(|o| o.no_cache = true),
        help: "neither read nor write the memo cache",
    },
    Flag {
        name: "--cache-dir",
        commands: &["run", "explore", "serve", "clean"],
        takes: Value("D", |o, v| put(&mut o.cache_dir, PathBuf::from(v))),
        help: "cache directory (default: target/stacksim-cache)",
    },
    Flag {
        name: "--cache-max-bytes",
        commands: &["explore", "serve"],
        takes: Value("B", |o, v| put(&mut o.cache_max_bytes, num(v, 1u64)?)),
        help: "bound the cache; oldest-LRU entries evicted",
    },
    Flag {
        name: "--test-scale",
        commands: &["run", "explore", "serve", "check"],
        takes: Switch(|o| o.test_scale = true),
        help: "small traces for a fast smoke run",
    },
    Flag {
        name: "--metrics-out",
        commands: &["run", "explore", "bench"],
        takes: Value("FILE", |o, v| put(&mut o.metrics_out, PathBuf::from(v))),
        help: "write a stacksim-obs/1 metrics snapshot to FILE",
    },
    Flag {
        name: "--events",
        commands: &["run", "explore", "bench"],
        takes: Value("FILE", |o, v| put(&mut o.events_out, PathBuf::from(v))),
        help: "append span/point events to FILE (JSONL)",
    },
    Flag {
        name: "--fault-plan",
        commands: &["run", "serve"],
        takes: Value("FILE", |o, v| put(&mut o.fault_plan, PathBuf::from(v))),
        help: "a stacksim-faults/1 injection plan, armed for the run;\n\
              serve requests opt in with \"faults\": true, and its\n\
              serve.*/session.* rules arm for the daemon's lifetime",
    },
    Flag {
        name: "--format",
        commands: &["check", "stats"],
        takes: Value("FMT", |o, v| {
            put(
                &mut o.json,
                match v {
                    "pretty" => false,
                    "json" => true,
                    _ => return None,
                },
            )
        }),
        help: "output format: pretty (default) or json",
    },
    Flag {
        name: "--serial",
        commands: &["run"],
        takes: Switch(|o| o.jobs = 1),
        help: "one worker thread (same results, bit-identical)",
    },
    Flag {
        name: "--solver-threads",
        commands: &["run"],
        takes: Value("N", |o, v| put(&mut o.solver_threads, num(v, 0usize)?)),
        help: "CG solver threads per experiment (default: 1;\n\
              results are bit-identical for any value)",
    },
    Flag {
        name: "--report",
        commands: &["run"],
        takes: Value("FILE", |o, v| put(&mut o.run_report, PathBuf::from(v))),
        help: "write the JSON run report to FILE",
    },
    Flag {
        name: "--show",
        commands: &["run"],
        takes: Switch(|o| o.show = true),
        help: "print each artifact's rendered table",
    },
    Flag {
        name: "--keep-going",
        commands: &["run"],
        takes: Switch(|o| o.keep_going = true),
        help: "complete unpoisoned experiments, write the failure\n\
              report, exit non-zero iff anything failed",
    },
    Flag {
        name: "--failures",
        commands: &["run"],
        takes: Value("FILE", |o, v| put(&mut o.failures_out, PathBuf::from(v))),
        help: "where --keep-going writes the stacksim-failures/1\n\
              report (default: target/stacksim-failures.json)",
    },
    Flag {
        name: "--retries",
        commands: &["run"],
        takes: Value("N", |o, v| put(&mut o.retries, num(v, 0usize)?)),
        help: "transient-failure retries per experiment (default: 2)",
    },
    Flag {
        name: "--deadline",
        commands: &["run"],
        takes: Value("S", |o, v| {
            put(
                &mut o.deadline_s,
                v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0)?,
            )
        }),
        help: "per-experiment recovery deadline in seconds",
    },
    Flag {
        name: "--mode",
        commands: &["explore"],
        takes: Value("M", |o, v| put(&mut o.mode, SearchMode::parse(v)?)),
        help: "search mode: grid (default), random or evolve",
    },
    Flag {
        name: "--budget",
        commands: &["explore"],
        takes: Value("N", |o, v| put(&mut o.budget, num(v, 0usize)?)),
        help: "max design points to evaluate (default: the whole space)",
    },
    Flag {
        name: "--seed",
        commands: &["explore"],
        takes: Value("N", |o, v| put(&mut o.seed, num(v, 0u64)?)),
        help: "search seed; same seed + space = bit-identical frontier",
    },
    Flag {
        name: "--spec",
        commands: &["explore"],
        takes: Value("FILE", |o, v| put(&mut o.spec, PathBuf::from(v))),
        help: "JSON space spec (default: the built-in 576-point space)",
    },
    Flag {
        name: "--out",
        commands: &["explore"],
        takes: Value("FILE", |o, v| put(&mut o.out, PathBuf::from(v))),
        help: "write the stacksim-explore/1 artifact to FILE",
    },
    Flag {
        name: "--report",
        commands: &["explore"],
        takes: Switch(|o| o.explore_report = true),
        help: "print the rendered frontier + sensitivity tables",
    },
    Flag {
        name: "--addr",
        commands: &["serve"],
        takes: Value("A", |o, v| put(&mut o.serve.addr, v)),
        help: "listen address (default: 127.0.0.1:7878; port 0 = any)",
    },
    Flag {
        name: "--pool",
        commands: &["serve"],
        takes: Value("N", |o, v| put(&mut o.serve.pool, num(v, 1usize)?)),
        help: "connection worker threads (default: 4)",
    },
    Flag {
        name: "--max-pending",
        commands: &["serve"],
        takes: Value("N", |o, v| put(&mut o.serve.max_pending, num(v, 0usize)?)),
        help: "shed submissions past N queued+running (503 +\n\
              Retry-After; default: 0 = unbounded)",
    },
    Flag {
        name: "--max-conns",
        commands: &["serve"],
        takes: Value("N", |o, v| put(&mut o.serve.max_conns, num(v, 0usize)?)),
        help: "reject connections past N concurrent (429;\n\
              default: 0 = unbounded)",
    },
    Flag {
        name: "--io-timeout",
        commands: &["serve"],
        takes: Value("S", |o, v| {
            put(&mut o.serve.io_timeout, Duration::from_secs(num(v, 1)?))
        }),
        help: "per-socket read/write timeout and whole-request\n\
              read deadline, seconds (default: 10)",
    },
    Flag {
        name: "--journal",
        commands: &["serve"],
        takes: Value("FILE", |o, v| put(&mut o.journal, PathBuf::from(v))),
        help: "append-only crash-recovery journal (default:\n\
              <cache-dir>/journal/requests.jsonl when the\n\
              cache is enabled)",
    },
    Flag {
        name: "--no-journal",
        commands: &["serve"],
        takes: Switch(|o| o.no_journal = true),
        help: "disable the journal",
    },
    Flag {
        name: "--quick",
        commands: &["bench"],
        takes: Switch(|o| o.bench.quick = true),
        help: "one timed sample per benchmark (CI smoke)",
    },
    Flag {
        name: "--threads",
        commands: &["bench"],
        takes: Value("N", |o, v| put(&mut o.bench.threads, num(v, 1usize)?)),
        help: "solver threads for the fast thermal leg (default: 4)",
    },
    Flag {
        name: "--out-dir",
        commands: &["bench"],
        takes: Value("D", |o, v| put(&mut o.bench.out_dir, v)),
        help: "where BENCH_*.json land (default: .)",
    },
    Flag {
        name: "--events",
        commands: &["stats"],
        takes: Value("FILE", |o, v| put(&mut o.events_in, PathBuf::from(v))),
        help: "also validate a JSONL event log",
    },
    Flag {
        name: "--failures",
        commands: &["stats"],
        takes: Value("FILE", |o, v| put(&mut o.failures_in, PathBuf::from(v))),
        help: "also validate a stacksim-failures/1 report",
    },
];

/// What a command takes besides flags.
#[derive(PartialEq)]
enum Operands {
    None,
    /// Experiment names, or `--all` instead (exactly one of the two).
    Names,
    /// At most one file.
    File,
}

/// One subcommand: its name, operands, usage line and entry point.
struct Command {
    name: &'static str,
    operands: Operands,
    about: &'static str,
    run: fn(Opts) -> Result<ExitCode, String>,
}

impl Command {
    /// The entries of [`FLAGS`] this command accepts.
    fn flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        FLAGS.iter().filter(|f| f.commands.contains(&self.name))
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        operands: Operands::None,
        about: "list registered experiments and dependencies",
        run: list,
    },
    Command {
        name: "run",
        operands: Operands::Names,
        about: "run experiments (deps included automatically)",
        run,
    },
    Command {
        name: "explore",
        operands: Operands::None,
        about: "Pareto design-space search over the session API",
        run: explore,
    },
    Command {
        name: "serve",
        operands: Operands::None,
        about: "long-running HTTP/JSON experiment service",
        run: serve,
    },
    Command {
        name: "check",
        operands: Operands::Names,
        about: "statically validate experiment models",
        run: check,
    },
    Command {
        name: "bench",
        operands: Operands::None,
        about: "time solver + memory suites, write BENCH_*.json",
        run: bench,
    },
    Command {
        name: "stats",
        operands: Operands::File,
        about: "validate + render an observability snapshot\n\
                (default FILE: target/stacksim-obs/last.json)",
        run: stats,
    },
    Command {
        name: "clean",
        operands: Operands::None,
        about: "delete the memo cache",
        run: clean,
    },
];

/// Parses a command's arguments against the flags it accepts; `None` is
/// a usage error.
fn parse(cmd: &Command, args: &[String]) -> Option<Opts> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match cmd.flags().find(|f| f.name == arg).map(|f| &f.takes) {
            Some(Switch(set)) => set(&mut o),
            Some(Value(_, set)) => set(&mut o, it.next()?)?,
            None if arg.starts_with('-') => return None,
            None => match cmd.operands {
                Operands::Names => o.names.push(arg.clone()),
                Operands::File if o.file.is_none() => o.file = Some(PathBuf::from(arg)),
                _ => return None,
            },
        }
    }
    // either --all or explicit names, never both or neither
    if cmd.operands == Operands::Names && o.all != o.names.is_empty() {
        return None;
    }
    Some(o)
}

/// Prints the usage text generated from the command and flag tables.
fn usage() -> ExitCode {
    let mut text = String::from("usage: stacksim <command> [options]\n\ncommands:\n");
    let row = |text: &mut String, width: usize, head: &str, help: &str| {
        for (i, line) in help.lines().enumerate() {
            let head = if i == 0 { head } else { "" };
            let _ = writeln!(text, "  {head:<width$} {line}");
        }
    };
    for cmd in COMMANDS {
        let head = match cmd.operands {
            Operands::None => cmd.name.to_string(),
            Operands::Names => format!("{} [NAMES | --all]", cmd.name),
            Operands::File => format!("{} [FILE]", cmd.name),
        };
        row(&mut text, 25, &head, cmd.about);
    }
    for cmd in COMMANDS.iter().filter(|c| c.flags().next().is_some()) {
        let _ = write!(text, "\n{} options:\n", cmd.name);
        for flag in cmd.flags() {
            let head = match flag.takes {
                Switch(_) => flag.name.to_string(),
                Value(placeholder, _) => format!("{} {placeholder}", flag.name),
            };
            row(&mut text, 20, &head, flag.help);
        }
    }
    eprint!("{text}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        return usage();
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return usage();
    };
    let Some(opts) = parse(cmd, rest) else {
        return usage();
    };
    (cmd.run)(opts).unwrap_or_else(|e| {
        eprintln!("stacksim: {e}");
        ExitCode::FAILURE
    })
}

/// The workload scale `--test-scale` selects.
fn scale(o: &Opts) -> WorkloadParams {
    if o.test_scale {
        WorkloadParams::test()
    } else {
        WorkloadParams::paper()
    }
}

/// The `--cache-dir` root, defaulting to `target/stacksim-cache`.
fn cache_root(o: &Opts) -> PathBuf {
    o.cache_dir.clone().unwrap_or_else(default_cache_dir)
}

/// Opens the memo cache — every command's one way in, so every command
/// sees the same sharded layout.
fn open_cache(o: &Opts) -> MemoCache {
    if o.no_cache {
        MemoCache::disabled()
    } else {
        MemoCache::builder()
            .dir(cache_root(o))
            .max_bytes(o.cache_max_bytes)
            .shards(CACHE_SHARDS)
            .build()
    }
}

/// Reads a text file; `what` prefixes the path in the error.
fn read_file(what: &str, path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {what}{}: {e}", path.display()))
}

/// Reads and parses a `stacksim-faults/1` plan.
fn read_fault_plan(path: &Path) -> Result<FaultPlan, String> {
    resilience::parse_fault_plan(&read_file("fault plan ", path)?)
        .map_err(|e| format!("invalid fault plan {}: {e}", path.display()))
}

/// Turns observability on for a command if `--metrics-out` or
/// `--events` was given (returning whether it did): enable, and install
/// the event sink. [`obs_finish`] brackets the other end.
fn obs_start(o: &Opts) -> Result<bool, String> {
    if o.metrics_out.is_none() && o.events_out.is_none() {
        return Ok(false);
    }
    stacksim::obs::reset();
    stacksim::obs::enable();
    if let Some(path) = &o.events_out {
        let sink = stacksim::obs::JsonlSink::create(path)
            .map_err(|e| format!("cannot create event log {}: {e}", path.display()))?;
        stacksim::obs::set_sink(Some(std::sync::Arc::new(sink)));
    }
    Ok(true)
}

/// Flushes the event sink, writes the snapshots, disables observability.
fn obs_finish(o: &Opts) -> Result<(), String> {
    stacksim::obs::set_sink(None);
    let mut targets = vec![obs_report::default_snapshot_path()];
    targets.extend(o.metrics_out.clone());
    let result = targets
        .iter()
        .try_for_each(|path| obs_report::write_snapshot(path).map_err(|e| e.to_string()));
    stacksim::obs::disable();
    result
}

/// Fault-plane session bracketing a `run` invocation: arm the plan up
/// front, disarm on drop so every exit path (including early errors)
/// leaves the process-global plane clean.
struct FaultSession;

impl FaultSession {
    /// Arms the plan at `path`, if one was given.
    fn start(path: Option<&Path>) -> Result<Option<Self>, String> {
        let Some(path) = path else {
            return Ok(None);
        };
        stacksim::faults::arm(read_fault_plan(path)?);
        Ok(Some(FaultSession))
    }
}

impl Drop for FaultSession {
    fn drop(&mut self) {
        stacksim::faults::disarm();
    }
}

fn list(_: Opts) -> Result<ExitCode, String> {
    let registry = Registry::standard();
    let mut t = TextTable::new(["experiment", "depends on"]);
    for exp in registry.experiments() {
        let deps = exp.deps();
        t.row([
            exp.name().to_string(),
            if deps.len() > 4 {
                format!("{} experiments", deps.len())
            } else {
                deps.join(", ")
            },
        ]);
    }
    println!("{}", t.render());
    Ok(ExitCode::SUCCESS)
}

fn run(o: Opts) -> Result<ExitCode, String> {
    let mut params = scale(&o);
    params.solver_threads = o.solver_threads.unwrap_or(1);
    params.validate().map_err(|e| e.to_string())?;
    let mut resilience = Resilience {
        deadline_s: o.deadline_s,
        ..Resilience::default()
    };
    if let Some(retries) = o.retries {
        resilience.retries = retries;
    }
    // `run` is a thin in-process client of the same `Sim` session API the
    // `serve` daemon speaks: submit everything while paused, resume so
    // the whole selection lands in one batched runner invocation, then
    // collect the classic batch-level outcome for rendering.
    let sim = Sim::builder()
        .params(params)
        .jobs(o.jobs)
        .cache(open_cache(&o))
        .preflight(true)
        .resilience(resilience)
        .start_paused(true)
        .build();
    let names: Vec<String> = if o.all {
        sim.registry()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect()
    } else {
        o.names.clone()
    };
    let faults = FaultSession::start(o.fault_plan.as_deref())?;
    let obs = obs_start(&o)?;
    // the first rejected submission stops the rest
    let submitted: Result<Vec<_>, _> = names
        .iter()
        .map(|name| sim.submit(&ExperimentRequest::new(name)))
        .collect();
    let outcome = submitted.map(|handles| {
        sim.resume();
        for handle in &handles {
            let _ = handle.wait();
        }
        sim.shutdown();
        merge_outcomes(sim.drain_outcomes())
    });
    if let Some(path) = &o.fault_plan {
        println!(
            "fault plan {}: {} faults injected",
            path.display(),
            stacksim::faults::injected_total()
        );
    }
    drop(faults);
    if obs {
        obs_finish(&o)?;
        if let Some(path) = &o.metrics_out {
            println!("metrics snapshot written to {}", path.display());
        }
        if let Some(path) = &o.events_out {
            println!("event log written to {}", path.display());
        }
    }
    let outcome = outcome.map_err(|e| e.to_string())?;

    let mut t = TextTable::new(["experiment", "status", "wall s", "CG iters", "trace refs"]);
    for entry in &outcome.report.entries {
        t.row([
            entry.name.clone(),
            if entry.error.is_some() {
                "FAILED".to_string()
            } else if entry.cached {
                "cached".to_string()
            } else {
                match &entry.fallback {
                    Some(rung) => format!("ran ({rung})"),
                    None => "ran".to_string(),
                }
            },
            fmt_f(entry.wall_s, 3),
            entry.telemetry.solver.iterations.to_string(),
            entry.telemetry.trace_records().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "{} experiments, {} workers, {:.3} s wall, {} CG iterations, {} trace refs",
        outcome.report.entries.len(),
        outcome.report.jobs,
        outcome.report.wall_s,
        outcome.report.total_cg_iterations(),
        outcome.report.total_trace_records(),
    );

    if o.show {
        // deterministic order: as reported
        for entry in &outcome.report.entries {
            if let Some(artifact) = outcome.artifacts.get(&entry.name) {
                println!("\n== {} ==", entry.name);
                println!("{}", render::render(artifact));
            }
        }
    }

    if let Some(path) = &o.run_report {
        outcome.report.write(path).map_err(|e| e.to_string())?;
        println!("report written to {}", path.display());
    }

    if o.keep_going {
        let failures = FailureReport::from_outcome(&outcome);
        let path = o
            .failures_out
            .unwrap_or_else(|| PathBuf::from("target").join("stacksim-failures.json"));
        failures.write(&path).map_err(|e| e.to_string())?;
        println!(
            "failure report written to {} ({} failures)",
            path.display(),
            failures.failures.len()
        );
        for f in &failures.failures {
            eprintln!(
                "stacksim: {} failed [{}] after {} attempts: {}",
                f.name, f.kind, f.attempts, f.error
            );
        }
        return Ok(exit_status(failures.failures.is_empty()));
    }

    for (name, error) in &outcome.errors {
        eprintln!("stacksim: {name} failed: {error}");
    }
    Ok(exit_status(outcome.errors.is_empty()))
}

fn exit_status(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Folds the session's batch-level outcomes into one — for a `run`
/// invocation everything lands in a single batch, so this is the exact
/// outcome the pre-session `Runner` path produced.
fn merge_outcomes(outcomes: Vec<RunOutcome>) -> RunOutcome {
    let mut it = outcomes.into_iter();
    let Some(mut merged) = it.next() else {
        return RunOutcome {
            report: RunReport {
                jobs: 0,
                wall_s: 0.0,
                entries: Vec::new(),
            },
            artifacts: std::collections::HashMap::new(),
            errors: Vec::new(),
        };
    };
    for outcome in it {
        merged.report.wall_s += outcome.report.wall_s;
        merged.report.entries.extend(outcome.report.entries);
        merged.artifacts.extend(outcome.artifacts);
        merged.errors.extend(outcome.errors);
    }
    merged
}

/// `stacksim explore`: search a declarative design space for its Pareto
/// frontier over (performance, peak temperature, power), reusing the
/// memo cache for every overlapping sub-experiment.
fn explore(o: Opts) -> Result<ExitCode, String> {
    use stacksim::explore::{render_report, run_exploration, ExploreConfig, SpaceSpec};

    let spec = match &o.spec {
        Some(path) => SpaceSpec::parse(&read_file("spec ", path)?)
            .map_err(|e| format!("invalid spec {}: {e}", path.display()))?,
        None => SpaceSpec::default_space(),
    };
    let cfg = ExploreConfig {
        spec,
        mode: o.mode.unwrap_or(SearchMode::Grid),
        budget: o.budget,
        seed: o.seed,
    };
    let obs = obs_start(&o)?;
    let result = run_exploration(&cfg, scale(&o), o.jobs, open_cache(&o));
    if obs {
        obs_finish(&o)?;
    }
    let outcome = result.map_err(|e| format!("explore failed: {e}"))?;

    println!(
        "explored {} of {} design points ({} mode, seed {}): {} on the Pareto frontier",
        outcome.evaluated,
        cfg.spec.total_points(),
        cfg.mode.label(),
        cfg.seed,
        outcome.frontier_size,
    );
    println!(
        "{} sub-experiment requests, {} cache hits, {} dedup hits ({:.1}% hit rate), {} CG iterations",
        outcome.requests,
        outcome.cache_hits,
        outcome.dedup_hits,
        100.0 * outcome.hit_rate(),
        outcome.cg_iterations,
    );
    if o.explore_report {
        println!("{}", render_report(&outcome.artifact_json)?);
    }
    if let Some(path) = &o.out {
        std::fs::write(path, format!("{}\n", outcome.artifact_json))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("frontier artifact written to {}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Set by the SIGTERM/SIGINT handler; the serve accept loop polls it.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Routes SIGTERM and SIGINT to the shutdown flag so `stacksim serve`
/// drains instead of dying mid-experiment. Raw `signal(2)` keeps this
/// dependency-free; an async-signal-safe store is all the handler does.
#[cfg(unix)]
fn install_shutdown_signals() {
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signals() {}

/// `stacksim serve`: the long-running HTTP/JSON experiment service —
/// one warm `Sim` session (registry + shared cache + resilience policy)
/// behind submit/status/artifact/metrics/healthz endpoints. SIGTERM or
/// SIGINT drains in-flight experiments before exiting.
fn serve(o: Opts) -> Result<ExitCode, String> {
    let params = scale(&o);
    let cache = open_cache(&o);
    // crash recovery rides the cache by default: a journaled request is
    // only cheap to replay when the artifact memoizes
    let journal = if o.no_journal {
        None
    } else {
        let default = (!o.no_cache).then(|| cache_root(&o).join("journal").join("requests.jsonl"));
        o.journal.clone().or(default)
    };
    let fault_plan = o.fault_plan.as_deref().map(read_fault_plan).transpose()?;
    let mut options = o.serve;
    options.params = params;
    options.jobs = o.jobs;
    options.cache = cache;
    options.journal = journal;
    options.fault_plan = fault_plan;

    let server = stacksim::serve::Server::bind(options)
        .map_err(|e| format!("cannot bind serve address: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("stacksim serve listening on http://{addr}");
    install_shutdown_signals();
    server
        .run(&SHUTDOWN)
        .map_err(|e| format!("serve failed: {e}"))?;
    println!("stacksim serve drained cleanly");
    Ok(ExitCode::SUCCESS)
}

/// `stacksim check`: run the static lint passes over experiment models
/// (plus the digest-coverage audit with `--all`) without simulating
/// anything. Exit code 1 if any error-severity diagnostic fires.
fn check(o: Opts) -> Result<ExitCode, String> {
    let params = scale(&o);
    let registry = Registry::standard();
    let report = if o.all {
        check::check_registry(&registry, &params)
    } else {
        let mut combined = stacksim::lint::Report::new();
        for name in &o.names {
            let report =
                check::check_experiment(&registry, name, &params).map_err(|e| e.to_string())?;
            combined.merge_under(name, report);
        }
        combined
    };
    if o.json {
        println!("{}", report.render_json());
    } else {
        println!("{}", report.render_pretty());
    }
    Ok(exit_status(!report.has_errors()))
}

/// `stacksim bench`: time the thermal-solver fast path against the
/// pre-optimization baseline plus memory-pipeline throughput, writing
/// `BENCH_thermal.json` and `BENCH_mem.json` (re-parsed after writing, so
/// a malformed artefact fails the command).
fn bench(o: Opts) -> Result<ExitCode, String> {
    let obs = obs_start(&o)?;
    let result = stacksim::bench::perf::run(&o.bench);
    if obs {
        obs_finish(&o)?;
    }
    result.map_err(|e| format!("bench failed: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// `stacksim stats`: validate an observability snapshot (default: the
/// one the last `run`/`bench` left at `target/stacksim-obs/last.json`)
/// and render it as tables, optionally validating a JSONL event log
/// alongside. Exit code 1 on any schema violation.
fn stats(o: Opts) -> Result<ExitCode, String> {
    let path = o.file.unwrap_or_else(obs_report::default_snapshot_path);
    let text = read_file("", &path)?;
    let invalid = |e: String| format!("invalid snapshot {}: {e}", path.display());
    let summary = obs_report::validate_snapshot(&text).map_err(invalid)?;
    if o.json {
        // already validated: the file itself is the machine-readable form
        println!("{}", text.trim_end());
    } else {
        println!("{}", obs_report::render_snapshot(&text).map_err(invalid)?);
        println!(
            "{} counters, {} gauges, {} histograms ({})",
            summary.counters,
            summary.gauges,
            summary.histograms,
            path.display()
        );
    }
    if let Some(path) = &o.events_in {
        let s = obs_report::validate_events(&read_file("", path)?)
            .map_err(|e| format!("invalid event log {}: {e}", path.display()))?;
        println!(
            "event log {}: {} spans, {} point events",
            path.display(),
            s.spans,
            s.points
        );
    }
    if let Some(path) = &o.failures_in {
        let report = FailureReport::validate(&read_file("", path)?)
            .map_err(|e| format!("invalid failure report {}: {e}", path.display()))?;
        println!(
            "failure report {}: {} failures",
            path.display(),
            report.failures.len()
        );
        for f in &report.failures {
            println!("  {} [{}] attempts={}", f.name, f.kind, f.attempts);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn clean(o: Opts) -> Result<ExitCode, String> {
    let removed = open_cache(&o).clean().map_err(|e| e.to_string())?;
    println!(
        "removed {removed} cache entries from {}",
        cache_root(&o).display()
    );
    Ok(ExitCode::SUCCESS)
}

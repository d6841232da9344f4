//! Resilience policies and the harness side of the fault plane.
//!
//! This module holds everything DESIGN.md §11 describes: the harness's
//! declared fault sites, the [`Resilience`] policy knobs a
//! [`Sim`](super::Sim) session runs its batches under (set with
//! [`SimBuilder::resilience`](super::SimBuilder::resilience)), the solver
//! degradation ladder
//! ([`SolverDegrade`]), the `--fault-plan` JSON loader, and the
//! machine-readable `stacksim-failures/1` report that `--keep-going`
//! runs emit.

use std::path::PathBuf;

use stacksim_faults::{Fault, FaultPlan, FaultRule};
use stacksim_thermal::SolverConfig;

use super::json::Json;
use super::runner::RunOutcome;
use crate::error::Error;

/// Component tag of every fault site the harness owns.
pub const COMPONENT: &str = "harness";

/// The memo-cache read: keyed by experiment name, supports `corrupt`,
/// `truncate` and `io-transient`.
pub const SITE_CACHE_LOAD: &str = "harness.cache.load";
/// The memo-cache write: keyed by experiment name, supports
/// `io-transient`.
pub const SITE_CACHE_STORE: &str = "harness.cache.store";
/// Experiment dispatch (just before the run closure): keyed by
/// experiment name, supports `panic`, `io-transient` and `stall`.
pub const SITE_DISPATCH: &str = "harness.dispatch";

/// Every fault site the harness may check.
pub const SITES: &[&str] = &[SITE_CACHE_LOAD, SITE_CACHE_STORE, SITE_DISPATCH];

/// Component tag of the network fault sites checked by `stacksim-serve`.
///
/// The constants live here (like the `serve` obs table) because the
/// SL070 contract and the plan loader consume
/// [`declared_fault_sites`], and core cannot depend on the serve crate.
pub const SERVE_COMPONENT: &str = "serve";
/// The daemon's accept loop, just after a connection is accepted: keyed
/// by `"conn"`, supports `io-transient` (drop the connection on the
/// floor) and `stall`.
pub const SITE_SERVE_ACCEPT: &str = "serve.accept";
/// The request read path (`http::read_request`): keyed by `"conn"`,
/// supports `io-transient`, `truncate` (connection closed mid-head) and
/// `stall`.
pub const SITE_SERVE_READ: &str = "serve.read";
/// The response write path (`http::respond`): keyed by the status code,
/// supports `io-transient` (response never written), `truncate` (half
/// the body) and `stall`.
pub const SITE_SERVE_WRITE: &str = "serve.write";
/// Every network fault site the serve crate may check.
pub const SERVE_SITES: &[&str] = &[SITE_SERVE_ACCEPT, SITE_SERVE_READ, SITE_SERVE_WRITE];

/// Component tag of the session plane's own fault sites.
pub const SESSION_COMPONENT: &str = "session";
/// The request-journal append (`RequestJournal`): keyed by the record's
/// `ev` tag (`accepted` / `done`), supports `io-transient` (append
/// fails, durability degrades), `corrupt` and `truncate` (the line is
/// mangled on disk and skipped at the next recovery) and `stall`.
pub const SITE_SESSION_JOURNAL: &str = "session.journal";
/// Every session-plane fault site.
pub const SESSION_SITES: &[&str] = &[SITE_SESSION_JOURNAL];

/// The solver degradation ladder. On `NoConvergence` the runner retries
/// the experiment one rung further down; each rung is strictly more
/// conservative than the last. The rung that finally succeeded is
/// recorded in the run report (never in the artifact — artifacts stay
/// bit-identical to an undegraded run of the same effective config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SolverDegrade {
    /// The experiment's own configuration, untouched.
    #[default]
    AsConfigured,
    /// An 8× `max_iters` allowance.
    RaiseIters,
    /// 8× `max_iters` and cold starts (no warm-start chaining — rules a
    /// poisoned initial guess out entirely).
    ColdStart,
}

impl SolverDegrade {
    /// The next rung down, or `None` when the ladder is exhausted.
    #[must_use]
    pub fn next(self) -> Option<SolverDegrade> {
        match self {
            SolverDegrade::AsConfigured => Some(SolverDegrade::RaiseIters),
            SolverDegrade::RaiseIters => Some(SolverDegrade::ColdStart),
            SolverDegrade::ColdStart => None,
        }
    }

    /// Stable label for reports (`none` / `raised-iters` / `cold-start`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SolverDegrade::AsConfigured => "none",
            SolverDegrade::RaiseIters => "raised-iters",
            SolverDegrade::ColdStart => "cold-start",
        }
    }

    /// Applies this rung to a base solver configuration.
    #[must_use]
    pub fn apply(self, mut cfg: SolverConfig) -> SolverConfig {
        match self {
            SolverDegrade::AsConfigured => {}
            SolverDegrade::RaiseIters => cfg.max_iters = cfg.max_iters.saturating_mul(8),
            SolverDegrade::ColdStart => {
                cfg.max_iters = cfg.max_iters.saturating_mul(8);
                cfg.warm_start = false;
            }
        }
        cfg
    }
}

/// Per-experiment resilience policy of a [`Sim`](super::Sim) session's
/// batches. A request's `deadline_ms` tightens [`deadline_s`] for its own
/// batch.
///
/// [`deadline_s`]: Resilience::deadline_s
#[derive(Debug, Clone)]
pub struct Resilience {
    /// Retry budget for transient failures (I/O errors, worker panics).
    /// An experiment is attempted at most `retries + 1` times for
    /// transient causes.
    pub retries: usize,
    /// First retry backoff in milliseconds; doubles per retry. A fixed
    /// schedule, so wall time never influences *whether* something
    /// retries — only how fast.
    pub backoff_ms: u64,
    /// Quarantine corrupt cache entries (move the file to
    /// `cache/quarantine/`) and recompute, instead of failing the
    /// experiment.
    pub quarantine: bool,
    /// Walk the [`SolverDegrade`] ladder on CG non-convergence instead
    /// of failing the experiment on the first stall.
    pub ladder: bool,
    /// Per-experiment wall-clock budget in seconds. Checked between
    /// attempts: once exhausted, no further retries or ladder rungs are
    /// tried and the experiment fails with
    /// [`Error::DeadlineExceeded`].
    pub deadline_s: Option<f64>,
    /// Per-experiment CG iteration budget: a *successful* run that used
    /// more iterations fails with [`Error::BudgetExceeded`] (a runaway
    /// guard for sweep services).
    pub max_cg_iters: Option<usize>,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            retries: 2,
            backoff_ms: 10,
            quarantine: true,
            ladder: true,
            deadline_s: None,
            max_cg_iters: None,
        }
    }
}

/// A deterministic transient I/O error used by injected faults: fixed
/// message, fixed pseudo-path, so failure reports are byte-identical
/// across runs.
pub(super) fn injected_io(site: &str, key: &str) -> Error {
    Error::io(
        PathBuf::from(format!("<injected:{site}:{key}>")),
        std::io::Error::new(std::io::ErrorKind::Interrupted, "injected transient fault"),
    )
}

/// The dispatch injection point, called inside the runner's
/// `catch_unwind` just before an experiment runs.
///
/// # Errors
///
/// [`Error::Io`] for an injected transient.
///
/// # Panics
///
/// Panics when the armed plan injects a `panic` fault here — by design;
/// the runner's `catch_unwind` turns it into
/// [`Error::WorkerPanic`].
pub(super) fn dispatch_fault(experiment: &str) -> Result<(), Error> {
    if !stacksim_faults::armed() {
        return Ok(());
    }
    match stacksim_faults::check(SITE_DISPATCH, experiment) {
        // audit:allow(SA006) the injected panic is the product: the runner's
        // catch_unwind must observe a real unwind to exercise recovery
        Some(Fault::Panic) => panic!("injected panic in experiment '{experiment}'"),
        Some(Fault::Stall { ms }) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(Fault::IoTransient) => Err(injected_io(SITE_DISPATCH, experiment)),
        _ => Ok(()),
    }
}

/// All declared fault-site tables: `(model path, component, sites)` per
/// instrumented crate. The SL070 pass and the plan loader both consume
/// this.
pub fn declared_fault_sites() -> Vec<(&'static str, &'static str, &'static [&'static str])> {
    vec![
        ("faults.harness", COMPONENT, SITES),
        (
            "faults.thermal",
            stacksim_thermal::faults::COMPONENT,
            stacksim_thermal::faults::SITES,
        ),
        ("faults.serve", SERVE_COMPONENT, SERVE_SITES),
        ("faults.session", SESSION_COMPONENT, SESSION_SITES),
    ]
}

/// Parses and validates a `stacksim-faults/1` plan document.
///
/// Every rule must reference a declared site; unknown sites are a load
/// error (the static SL070 pass cannot see plan files, so the loader is
/// where a typo'd site name gets caught).
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn parse_fault_plan(text: &str) -> Result<FaultPlan, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == stacksim_faults::SCHEMA => {}
        Some(s) => return Err(format!("schema '{s}' is not '{}'", stacksim_faults::SCHEMA)),
        None => return Err("missing 'schema' string".to_string()),
    }
    let seed = match doc.get("seed") {
        None => 0,
        Some(v) => v.as_u64().ok_or("'seed' must be a non-negative integer")?,
    };
    let entries = doc
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("missing 'rules' array")?;
    let known: Vec<&str> = declared_fault_sites()
        .iter()
        .flat_map(|(_, _, sites)| sites.iter().copied())
        .collect();
    let mut rules = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let at = |field: &str| format!("rules[{i}].{field}");
        let site = entry
            .get("site")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{} must be a string", at("site")))?;
        if !known.contains(&site) {
            return Err(format!(
                "{} references undeclared fault site '{site}' (known: {})",
                at("site"),
                known.join(", ")
            ));
        }
        let key = entry.get("key").and_then(Json::as_str).unwrap_or("");
        let kind = entry
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{} must be a string", at("kind")))?;
        let ms = match entry.get("ms") {
            None => 50,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("{} must be a non-negative integer", at("ms")))?,
        };
        let fault = Fault::parse(kind, ms)
            .ok_or_else(|| format!("{} names unknown fault kind '{kind}'", at("kind")))?;
        let times = match entry.get("times") {
            None => Some(1),
            Some(v) => match v.as_u64() {
                Some(0) => None, // 0 = unlimited
                Some(t) => Some(t),
                None => return Err(format!("{} must be a non-negative integer", at("times"))),
            },
        };
        let after = match entry.get("after") {
            None => 0,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("{} must be a non-negative integer", at("after")))?,
        };
        let prob = match entry.get("prob") {
            None => None,
            Some(v) => {
                let p = v
                    .as_f64()
                    .filter(|p| *p > 0.0 && *p <= 1.0)
                    .ok_or_else(|| format!("{} must be a number in (0, 1]", at("prob")))?;
                Some(p)
            }
        };
        rules.push(FaultRule {
            site: site.to_string(),
            key: key.to_string(),
            fault,
            times,
            after,
            prob,
        });
    }
    Ok(FaultPlan { seed, rules })
}

/// Schema tag of the machine-readable failure report.
pub const FAILURES_SCHEMA: &str = "stacksim-failures/1";

/// One failed experiment in the failure report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureEntry {
    /// Experiment name.
    pub name: String,
    /// Its configuration digest (empty for dependency skips).
    pub digest: String,
    /// Stable failure class (see [`Error::kind`]).
    pub kind: String,
    /// The rendered error.
    pub error: String,
    /// Dispatch attempts made (0 for dependency skips).
    pub attempts: u64,
    /// Whether a corrupt cache entry was quarantined along the way.
    pub quarantined: bool,
}

/// The machine-readable `failures[]` document a `--keep-going` run
/// writes. Deterministic: entries keep schedule (selection) order and
/// carry no wall times, so the same plan and seed produce byte-identical
/// reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureReport {
    /// Failed experiments, in schedule order.
    pub failures: Vec<FailureEntry>,
}

impl FailureReport {
    /// Collects every failed entry of a run outcome.
    pub fn from_outcome(outcome: &RunOutcome) -> Self {
        FailureReport {
            failures: outcome
                .report
                .entries
                .iter()
                .filter(|e| e.error.is_some())
                .map(|e| FailureEntry {
                    name: e.name.clone(),
                    digest: e.digest.clone(),
                    kind: e.error_kind.clone().unwrap_or_default(),
                    error: e.error.clone().unwrap_or_default(),
                    attempts: e.attempts,
                    quarantined: e.quarantined,
                })
                .collect(),
        }
    }

    /// The JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(FAILURES_SCHEMA.to_string())),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|e| {
                            Json::obj(vec![
                                ("name", Json::Str(e.name.clone())),
                                ("digest", Json::Str(e.digest.clone())),
                                ("kind", Json::Str(e.kind.clone())),
                                ("error", Json::Str(e.error.clone())),
                                ("attempts", Json::Num(e.attempts as f64)),
                                ("quarantined", Json::Bool(e.quarantined)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes the report (newline-terminated).
    pub fn encode(&self) -> String {
        let mut text = self.to_json().encode();
        text.push('\n');
        text
    }

    /// Writes the report to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn write(&self, path: &std::path::Path) -> Result<(), Error> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| Error::io(parent.to_path_buf(), e))?;
            }
        }
        std::fs::write(path, self.encode()).map_err(|e| Error::io(path.to_path_buf(), e))
    }

    /// Validates and re-parses a `stacksim-failures/1` document (the
    /// `stacksim stats --failures` path).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first schema violation.
    pub fn validate(text: &str) -> Result<FailureReport, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(s) if s == FAILURES_SCHEMA => {}
            Some(s) => return Err(format!("schema '{s}' is not '{FAILURES_SCHEMA}'")),
            None => return Err("missing 'schema' string".to_string()),
        }
        let entries = doc
            .get("failures")
            .and_then(Json::as_arr)
            .ok_or("missing 'failures' array")?;
        let mut failures = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let at = |field: &str| format!("failures[{i}].{field}");
            let str_field = |field: &str| {
                entry
                    .get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{} must be a string", at(field)))
            };
            failures.push(FailureEntry {
                name: str_field("name")?,
                digest: str_field("digest")?,
                kind: str_field("kind")?,
                error: str_field("error")?,
                attempts: entry
                    .get("attempts")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{} must be a non-negative integer", at("attempts")))?,
                quarantined: entry
                    .get("quarantined")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("{} must be a bool", at("quarantined")))?,
            });
        }
        Ok(FailureReport { failures })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rungs_are_ordered_and_exhaust() {
        let mut rung = SolverDegrade::AsConfigured;
        let mut labels = vec![rung.label()];
        while let Some(next) = rung.next() {
            assert!(next > rung);
            rung = next;
            labels.push(rung.label());
        }
        assert_eq!(labels, ["none", "raised-iters", "cold-start"]);
    }

    #[test]
    fn ladder_apply_is_cumulative_per_rung() {
        let base = SolverConfig::builder().max_iters(500).build();
        let cfg = SolverDegrade::RaiseIters.apply(base);
        assert_eq!(cfg.max_iters, base.max_iters * 8);
        assert!(cfg.warm_start);
        let cfg = SolverDegrade::ColdStart.apply(base);
        assert_eq!(cfg.max_iters, base.max_iters * 8);
        assert!(!cfg.warm_start);
        // untouched on the first rung
        assert_eq!(SolverDegrade::AsConfigured.apply(base), base);
    }

    /// Every rung must change what the solver runs: a rung whose `apply`
    /// equals the previous rung's would re-run an identical solve and
    /// waste an attempt.
    #[test]
    fn every_rung_changes_the_default_config() {
        let base = SolverConfig::default();
        let mut rung = SolverDegrade::AsConfigured;
        while let Some(next) = rung.next() {
            assert_ne!(
                next.apply(base),
                rung.apply(base),
                "rung `{}` repeats rung `{}`",
                next.label(),
                rung.label()
            );
            rung = next;
        }
    }

    #[test]
    fn plan_parser_round_trips_a_full_document() {
        let text = format!(
            "{{\"schema\":\"{}\",\"seed\":7,\"rules\":[\
             {{\"site\":\"harness.cache.load\",\"key\":\"fig3\",\"kind\":\"corrupt\"}},\
             {{\"site\":\"thermal.cg\",\"key\":\"jacobi\",\"kind\":\"stall\",\"ms\":5,\
               \"times\":0,\"after\":2}},\
             {{\"site\":\"harness.dispatch\",\"kind\":\"panic\",\"prob\":0.25}}]}}",
            stacksim_faults::SCHEMA
        );
        let plan = parse_fault_plan(&text).expect("plan parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].fault, Fault::Corrupt);
        assert_eq!(plan.rules[0].times, Some(1), "times defaults to 1");
        assert_eq!(plan.rules[1].fault, Fault::Stall { ms: 5 });
        assert_eq!(plan.rules[1].times, None, "times 0 means unlimited");
        assert_eq!(plan.rules[1].after, 2);
        assert_eq!(plan.rules[2].prob, Some(0.25));
        assert_eq!(plan.rules[2].key, "", "key defaults to match-any");
    }

    #[test]
    fn plan_parser_rejects_bad_documents() {
        let plan = |body: &str| parse_fault_plan(body).expect_err("must reject");
        assert!(plan("{}").contains("schema"));
        assert!(plan("{\"schema\":\"nope\",\"rules\":[]}").contains("schema"));
        let e = plan(
            "{\"schema\":\"stacksim-faults/1\",\"rules\":[\
             {\"site\":\"harness.nonesuch\",\"kind\":\"panic\"}]}",
        );
        assert!(e.contains("undeclared fault site"), "{e}");
        let e = plan(
            "{\"schema\":\"stacksim-faults/1\",\"rules\":[\
             {\"site\":\"harness.dispatch\",\"kind\":\"frobnicate\"}]}",
        );
        assert!(e.contains("unknown fault kind"), "{e}");
        let e = plan(
            "{\"schema\":\"stacksim-faults/1\",\"rules\":[\
             {\"site\":\"harness.dispatch\",\"kind\":\"panic\",\"prob\":1.5}]}",
        );
        assert!(e.contains("prob"), "{e}");
    }

    #[test]
    fn failure_report_round_trips_and_validates() {
        let report = FailureReport {
            failures: vec![FailureEntry {
                name: "fig5:pcg".into(),
                digest: "abcd".into(),
                kind: "worker-panic".into(),
                error: "experiment 'fig5:pcg' panicked".into(),
                attempts: 3,
                quarantined: false,
            }],
        };
        let text = report.encode();
        let back = FailureReport::validate(&text).expect("validates");
        assert_eq!(back, report);
        assert!(FailureReport::validate("{\"schema\":\"nope\"}").is_err());
        assert!(
            FailureReport::validate("{\"schema\":\"stacksim-failures/1\"}").is_err(),
            "failures array is required"
        );
    }

    #[test]
    fn declared_sites_cover_harness_and_thermal() {
        let tables = declared_fault_sites();
        let all: Vec<&str> = tables
            .iter()
            .flat_map(|(_, _, s)| s.iter().copied())
            .collect();
        assert!(all.contains(&SITE_CACHE_LOAD));
        assert!(all.contains(&SITE_DISPATCH));
        assert!(all.contains(&stacksim_thermal::faults::SITE_CG));
    }
}

//! `stacksim check`: static validation of every experiment's machine
//! description, plus the harness's own digest-coverage audit.
//!
//! For each registered experiment this module rebuilds the *description*
//! the experiment will simulate — floorplans, folds, thermal stacks,
//! hierarchies, parameter sets — as a [`stacksim_lint::Model`] and runs
//! the standard [`PassRegistry`] over it. A [`Sim`](super::Sim) session
//! built with [`preflight`](super::SimBuilder::preflight) on (the
//! default) calls [`preflight`] on every cache miss, so an inconsistent
//! description fails in milliseconds with diagnostics instead of deep
//! inside a run.
//!
//! The digest audit (`SL050`–`SL052`) lives here rather than in the lint
//! crate because it inspects [`Experiment`] objects, which the lint crate
//! cannot depend on without a cycle: it perturbs each [`WorkloadParams`]
//! field and verifies that [`Experiment::params_digest`] reacts exactly as
//! the experiment's declared
//! [`sensitivity`](Experiment::sensitivity) promises, so no config field
//! can silently alias memo-cache entries.

use stacksim_floorplan::p4::pentium4_147w;
use stacksim_floorplan::{worst_case_stack, Floorplan, StackedFloorplan};
use stacksim_lint::{
    DieDesc, FaultSiteDesc, FoldDesc, Model, ObsTableDesc, PassRegistry, Report, StackDesc,
    ThermalDesc, WireDesc,
};
use stacksim_mem::EngineConfig;
use stacksim_ooo::{CoreConfig, WireConfig};
use stacksim_thermal::{LayerStack, SolverConfig};
use stacksim_workloads::{Scale, WorkloadParams};

use super::experiment::Experiment;
use super::registry::Registry;
use crate::error::Error;
use crate::logic_logic::folded_p4;
use crate::memory_logic::thermal_stack;
use crate::stacking::StackOption;

/// The power scale the Fig. 11 / Table 5 fold applies (§4: 15% saved by
/// shorter wires). Mirrors `FoldOptions::default().power_scale`.
const FOLD_POWER_SCALE: f64 = 0.85;

fn die(f: &Floorplan) -> DieDesc {
    DieDesc::from_floorplan(f)
}

/// The two-die thermal stack the logic+logic studies solve over a folded
/// P4 (mirrors `logic_logic::solve_p4_stack`).
fn p4_fold_stack(folded: &StackedFloorplan) -> LayerStack {
    let cfg = SolverConfig::default();
    let d0 = &folded.dies()[0];
    let d1 = &folded.dies()[1];
    let ny = (cfg.nx * 17 / 20).max(1);
    LayerStack::two_die(
        d0.width(),
        d0.height(),
        d0.power_grid(cfg.nx, ny),
        d1.power_grid(cfg.nx, ny),
        false,
    )
}

/// The Fig. 9 wire routes resolved against a P4-class floorplan.
fn fig9_wires(path_prefix: &str, planar: &Floorplan) -> Vec<WireDesc> {
    let available: Vec<String> = planar
        .blocks()
        .iter()
        .map(|b| b.name().to_string())
        .collect();
    [
        ("load-to-use", vec!["dcache", "fu"]),
        ("fp-register-read", vec!["rf", "simd", "fp"]),
    ]
    .into_iter()
    .map(|(route, endpoints)| WireDesc {
        path: path_prefix.to_string(),
        route: route.to_string(),
        endpoints: endpoints.into_iter().map(String::from).collect(),
        available: available.clone(),
    })
    .collect()
}

/// The model of the memory-stacking (Fig. 5/7) experiments.
fn memory_model(params: &WorkloadParams) -> Model {
    let mut m = Model::new();
    for option in StackOption::all() {
        let path = format!("option '{}'", option.label());
        m.hierarchies.push((path.clone(), option.hierarchy()));
        match option.stacked_floorplan() {
            Some(top) => m.stacks.push((
                path,
                StackDesc {
                    name: option.label().to_string(),
                    dies: vec![die(&option.cpu_floorplan()), die(&top)],
                },
            )),
            None => m.dies.push((path, die(&option.cpu_floorplan()))),
        }
    }
    m.workloads.push(("params".into(), *params));
    m.engines.push(("engine".into(), EngineConfig::default()));
    m
}

/// The model of the thermal memory+logic experiments (Fig. 6/8).
fn thermal_model(options: &[StackOption]) -> Model {
    let mut m = Model::new();
    let cfg = SolverConfig::default();
    for option in options {
        let path = format!("option '{}'", option.label());
        m.thermal.push(ThermalDesc::from_stack(
            format!("{path}.stack"),
            &thermal_stack(*option, cfg.nx),
        ));
        match option.stacked_floorplan() {
            Some(top) => m.stacks.push((
                path,
                StackDesc {
                    name: option.label().to_string(),
                    dies: vec![die(&option.cpu_floorplan()), die(&top)],
                },
            )),
            None => m.dies.push((path, die(&option.cpu_floorplan()))),
        }
    }
    m.solvers.push(("solver".into(), cfg));
    m
}

/// The model of the logic+logic fold experiments (fig3/fig11/table5).
/// `None` if the fold itself fails — the preflight then has no model to
/// check and lets the experiment surface the fold error at run time.
fn fold_model(with_worst_case: bool, with_wires: bool) -> Option<Model> {
    let planar = pentium4_147w();
    let folded = folded_p4().ok()?;
    let mut m = Model::new();
    m.thermal.push(ThermalDesc::from_stack(
        "folded.stack",
        &p4_fold_stack(&folded),
    ));
    if with_worst_case {
        let wc = worst_case_stack(&planar);
        m.stacks.push((
            "worst-case".into(),
            StackDesc::from_stacked("worst-case", &wc),
        ));
    }
    if with_wires {
        m.wires = fig9_wires("fig9", &planar);
    }
    m.folds.push(FoldDesc {
        path: "fold".into(),
        planar: die(&planar),
        folded: StackDesc::from_stacked("folded-p4", &folded),
        power_scale: FOLD_POWER_SCALE,
    });
    m.solvers.push(("solver".into(), SolverConfig::default()));
    Some(m)
}

/// The model of the Table 4 pipeline study.
fn table4_model(params: &WorkloadParams) -> Model {
    let mut m = Model::new();
    m.cores.push(("planar".into(), CoreConfig::planar()));
    m.cores.push(("folded".into(), CoreConfig::folded_3d()));
    m.wire_pairs.push(stacksim_lint::WirePairDesc {
        path: "wire".into(),
        planar: WireConfig::planar(),
        folded: WireConfig::folded_3d(),
    });
    m.workloads.push(("params".into(), *params));
    m
}

/// The statically declared observability-instrument tables of every
/// instrumented crate, as a model for the SL060 pass.
pub fn obs_model() -> Model {
    let mut m = Model::new();
    for (path, component, names) in [
        (
            "obs.mem",
            stacksim_mem::obs::COMPONENT,
            stacksim_mem::obs::NAMES,
        ),
        (
            "obs.thermal",
            stacksim_thermal::obs::COMPONENT,
            stacksim_thermal::obs::NAMES,
        ),
        ("obs.harness", super::obs::COMPONENT, super::obs::NAMES),
        (
            "obs.faults",
            stacksim_faults::obs::COMPONENT,
            stacksim_faults::obs::NAMES,
        ),
        (
            "obs.runner",
            super::obs::RUNNER_COMPONENT,
            super::obs::RUNNER_NAMES,
        ),
        (
            "obs.cache",
            super::obs::CACHE_COMPONENT,
            super::obs::CACHE_NAMES,
        ),
        (
            "obs.solver",
            super::obs::SOLVER_COMPONENT,
            super::obs::SOLVER_NAMES,
        ),
        (
            "obs.serve",
            super::obs::SERVE_COMPONENT,
            super::obs::SERVE_NAMES,
        ),
        (
            "obs.journal",
            super::obs::JOURNAL_COMPONENT,
            super::obs::JOURNAL_NAMES,
        ),
        (
            "obs.explore",
            super::obs::EXPLORE_COMPONENT,
            super::obs::EXPLORE_NAMES,
        ),
    ] {
        m.obs_tables.push(ObsTableDesc {
            path: path.to_string(),
            component: component.to_string(),
            names: names.iter().map(|s| s.to_string()).collect(),
        });
    }
    m
}

/// The statically declared fault-site tables of every instrumented crate,
/// plus the injection points referencing them, as a model for the SL070
/// pass. The reference list mirrors the actual `stacksim_faults::check`
/// call sites; a site declared here but absent from the list turns into
/// an SL070 staleness warning.
pub fn fault_model() -> Model {
    let mut m = Model::new();
    for (path, component, sites) in super::resilience::declared_fault_sites() {
        m.fault_sites.push(FaultSiteDesc {
            path: path.to_string(),
            component: component.to_string(),
            sites: sites.iter().map(|s| s.to_string()).collect(),
        });
    }
    for (path, site) in [
        ("harness.cache.load()", super::resilience::SITE_CACHE_LOAD),
        ("harness.cache.store()", super::resilience::SITE_CACHE_STORE),
        (
            "harness.runner.dispatch()",
            super::resilience::SITE_DISPATCH,
        ),
        ("thermal.system.cg()", stacksim_thermal::faults::SITE_CG),
        (
            "serve.server.accept()",
            super::resilience::SITE_SERVE_ACCEPT,
        ),
        (
            "serve.http.read_request()",
            super::resilience::SITE_SERVE_READ,
        ),
        ("serve.http.respond()", super::resilience::SITE_SERVE_WRITE),
        (
            "harness.journal.append()",
            super::resilience::SITE_SESSION_JOURNAL,
        ),
    ] {
        m.fault_refs.push((path.to_string(), site.to_string()));
    }
    m
}

/// The runtime half of `SL060`: every instrument name present in the
/// process-global registry must appear in a declared table — an
/// undeclared registration is an instrument the linter cannot vouch
/// for. Trivially clean before anything has been instrumented.
pub fn obs_audit() -> Report {
    audit_registered_names(&stacksim_obs::registry().names())
}

fn audit_registered_names(registered: &[String]) -> Report {
    let mut report = Report::new();
    let model = obs_model();
    let declared: std::collections::BTreeSet<&str> = model
        .obs_tables
        .iter()
        .flat_map(|t| t.names.iter().map(String::as_str))
        .collect();
    for name in registered {
        if !declared.contains(name.as_str()) {
            report.error(
                "SL060",
                format!("obs.registry.\"{name}\""),
                "instrument registered at runtime but declared in no obs table".to_string(),
            );
        }
    }
    report
}

/// Builds the machine description one standard experiment will simulate.
///
/// Returns `None` for names outside the standard registry — custom
/// experiments carry no model the checker knows how to rebuild, so the
/// preflight lets them through.
pub fn model_for(name: &str, params: &WorkloadParams) -> Option<Model> {
    match name {
        "fig3" => fold_model(false, false),
        "fig5" | "headline" => {
            let mut m = Model::new();
            m.workloads.push(("params".into(), *params));
            Some(m)
        }
        "fig6" => Some(thermal_model(&[StackOption::Planar4M])),
        "fig8" => Some(thermal_model(&StackOption::all())),
        "fig11" => fold_model(true, true),
        "table4" => Some(table4_model(params)),
        "table5" => fold_model(false, false),
        _ if name.starts_with("fig5:") => Some(memory_model(params)),
        _ => None,
    }
}

/// Runs the standard lint passes over one experiment's model.
///
/// # Errors
///
/// [`Error::UnknownExperiment`] if `name` is not registered.
pub fn check_experiment(
    registry: &Registry,
    name: &str,
    params: &WorkloadParams,
) -> Result<Report, Error> {
    if registry.get(name).is_none() {
        return Err(Error::UnknownExperiment {
            name: name.to_string(),
        });
    }
    let Some(model) = model_for(name, params) else {
        return Ok(Report::new());
    };
    Ok(PassRegistry::standard().run(&model))
}

/// The preflight a [`Sim`](super::Sim) session performs before
/// dispatching an uncached experiment: reject error-severity diagnostics.
///
/// # Errors
///
/// [`Error::InvalidModel`] carrying the report if validation found errors.
pub fn preflight(name: &str, params: &WorkloadParams) -> Result<(), Error> {
    let Some(model) = model_for(name, params) else {
        return Ok(());
    };
    let report = PassRegistry::standard().run(&model);
    if report.has_errors() {
        return Err(Error::InvalidModel {
            experiment: name.to_string(),
            report,
        });
    }
    Ok(())
}

/// One perturbed copy of `params` per field, with its name.
fn perturbations(params: &WorkloadParams) -> [(&'static str, WorkloadParams); 5] {
    let mut scaled = *params;
    scaled.scale = match params.scale {
        Scale::Test => Scale::Paper,
        Scale::Paper => Scale::Test,
    };
    let mut seeded = *params;
    seeded.seed ^= 1;
    let mut threaded = *params;
    threaded.threads += 1;
    let mut chunked = *params;
    chunked.chunk += 1;
    let mut solver_threaded = *params;
    solver_threaded.solver_threads += 1;
    [
        ("scale", scaled),
        ("seed", seeded),
        ("threads", threaded),
        ("chunk", chunked),
        ("solver_threads", solver_threaded),
    ]
}

fn declared(e: &dyn Experiment, field: &str) -> bool {
    let s = e.sensitivity();
    match field {
        "scale" => s.scale,
        "seed" => s.seed,
        "threads" => s.threads,
        "chunk" => s.chunk,
        "solver_threads" => s.solver_threads,
        _ => unreachable!("unknown sensitivity field {field}"),
    }
}

/// The digest-coverage audit.
///
/// * `SL050` (error): an experiment declares itself sensitive to a field
///   but its digest does not change when the field does — two different
///   configurations would share one memo-cache entry.
/// * `SL051` (warning): the digest reacts to a field the experiment does
///   not declare — harmless for correctness but the declaration is stale.
/// * `SL052` (error): two experiments produce identical digests for the
///   same parameters — their cache entries would collide if they ever
///   shared a name-insensitive store.
pub fn digest_audit(registry: &Registry, params: &WorkloadParams) -> Report {
    let mut report = Report::new();
    let mut seen: Vec<(String, String)> = Vec::new();
    for exp in registry.experiments() {
        let name = exp.name().to_string();
        let base = exp.params_digest(params);
        for (field, perturbed) in perturbations(params) {
            let changed = exp.params_digest(&perturbed) != base;
            let was_declared = declared(exp.as_ref(), field);
            let span = format!("{name}.digest.{field}");
            if was_declared && !changed {
                report.error(
                    "SL050",
                    span,
                    format!(
                        "declared sensitive to '{field}' but the digest ignores it; \
                         different configs would share one cache entry"
                    ),
                );
            } else if !was_declared && changed {
                report.warn(
                    "SL051",
                    span,
                    format!("digest depends on '{field}' but the declaration says it does not"),
                );
            }
        }
        if let Some((other, _)) = seen.iter().find(|(_, d)| *d == base) {
            report.error(
                "SL052",
                format!("{name}.digest"),
                format!("digest collides with experiment '{other}' for identical parameters"),
            );
        }
        seen.push((name, base));
    }
    report
}

/// Checks every experiment of the registry plus the digest audit; spans
/// are prefixed with the experiment name.
pub fn check_registry(registry: &Registry, params: &WorkloadParams) -> Report {
    let passes = PassRegistry::standard();
    let mut combined = Report::new();
    for exp in registry.experiments() {
        if let Some(model) = model_for(exp.name(), params) {
            combined.merge_under(exp.name(), passes.run(&model));
        }
    }
    combined.merge_under("obs", passes.run(&obs_model()));
    combined.merge_under("faults", passes.run(&fault_model()));
    combined.merge(obs_audit());
    combined.merge(digest_audit(registry, params));
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Artifact, Ctx, ParamSensitivity};
    use std::sync::Arc;

    #[test]
    fn every_standard_experiment_has_a_model_or_is_aggregate() {
        let r = Registry::standard();
        let params = WorkloadParams::test();
        for exp in r.experiments() {
            assert!(
                model_for(exp.name(), &params).is_some(),
                "no model for {}",
                exp.name()
            );
        }
        assert!(model_for("nonesuch", &params).is_none());
    }

    #[test]
    fn seed_registry_is_clean() {
        let r = Registry::standard();
        let report = check_registry(&r, &WorkloadParams::test());
        assert!(!report.has_errors(), "{}", report.render_pretty());
    }

    #[test]
    fn unknown_experiment_is_an_error() {
        let r = Registry::standard();
        assert!(matches!(
            check_experiment(&r, "fig99", &WorkloadParams::test()),
            Err(Error::UnknownExperiment { .. })
        ));
    }

    struct BadDigest;

    impl Experiment for BadDigest {
        fn name(&self) -> &str {
            "bad-digest"
        }

        // claims full sensitivity but hashes nothing
        fn params_digest(&self, _params: &WorkloadParams) -> String {
            "constant".into()
        }

        fn run(&self, _ctx: &Ctx) -> Result<Artifact, Error> {
            unreachable!()
        }
    }

    struct Undeclared;

    impl Experiment for Undeclared {
        fn name(&self) -> &str {
            "undeclared"
        }

        fn sensitivity(&self) -> ParamSensitivity {
            ParamSensitivity::none()
        }

        // hashes the seed despite declaring none()
        fn params_digest(&self, params: &WorkloadParams) -> String {
            format!("{:x}", params.seed)
        }

        fn run(&self, _ctx: &Ctx) -> Result<Artifact, Error> {
            unreachable!()
        }
    }

    struct Twin(&'static str);

    impl Experiment for Twin {
        fn name(&self) -> &str {
            self.0
        }

        fn sensitivity(&self) -> ParamSensitivity {
            ParamSensitivity::none()
        }

        fn params_digest(&self, _params: &WorkloadParams) -> String {
            "twin".into()
        }

        fn run(&self, _ctx: &Ctx) -> Result<Artifact, Error> {
            unreachable!()
        }
    }

    #[test]
    fn sl050_catches_digest_insensitivity() {
        let mut r = Registry::new();
        r.add(Arc::new(BadDigest));
        let report = digest_audit(&r, &WorkloadParams::test());
        assert!(report.has_code("SL050"), "{}", report.render_pretty());
        assert!(report.has_errors());
    }

    #[test]
    fn sl051_warns_on_undeclared_sensitivity() {
        let mut r = Registry::new();
        r.add(Arc::new(Undeclared));
        let report = digest_audit(&r, &WorkloadParams::test());
        assert!(report.has_code("SL051"));
        assert!(!report.has_errors(), "SL051 is a warning");
    }

    #[test]
    fn sl052_catches_digest_collisions() {
        let mut r = Registry::new();
        r.add(Arc::new(Twin("twin-a")));
        r.add(Arc::new(Twin("twin-b")));
        let report = digest_audit(&r, &WorkloadParams::test());
        assert!(report.has_code("SL052"), "{}", report.render_pretty());
    }

    #[test]
    fn standard_digest_audit_is_clean() {
        let r = Registry::standard();
        let report = digest_audit(&r, &WorkloadParams::test());
        assert!(report.is_clean(), "{}", report.render_pretty());
    }

    #[test]
    fn preflight_accepts_standard_and_skips_unknown() {
        preflight("table4", &WorkloadParams::test()).unwrap();
        preflight("not-registered", &WorkloadParams::test()).unwrap();
    }

    #[test]
    fn declared_obs_tables_are_clean() {
        let report = PassRegistry::standard().run(&obs_model());
        assert!(report.is_clean(), "{}", report.render_pretty());
    }

    /// Every declared fault site is well-formed and referenced by an
    /// injection point — SL070 over the real tables.
    #[test]
    fn declared_fault_sites_are_clean() {
        let report = PassRegistry::standard().run(&fault_model());
        assert!(report.is_clean(), "{}", report.render_pretty());
    }

    #[test]
    fn sl060_catches_undeclared_runtime_registration() {
        // declared names from every component table pass the audit
        let declared: Vec<String> = obs_model()
            .obs_tables
            .iter()
            .flat_map(|t| t.names.iter().cloned())
            .collect();
        assert!(audit_registered_names(&declared).is_clean());
        let report = audit_registered_names(&["mem.unheard_of".to_string()]);
        assert!(report.has_code("SL060"), "{}", report.render_pretty());
        assert!(report.has_errors());
    }
}

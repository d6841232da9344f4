//! End-to-end coverage of `stacksim check`: the library API and the CLI
//! binary agree that the seed registry's models are valid, and the exit
//! code reflects error-severity diagnostics.

use std::process::Command;

use stacksim::core::harness::{check_experiment, check_registry, Registry};
use stacksim::workloads::WorkloadParams;

#[test]
fn seed_registry_passes_check_at_both_scales() {
    let registry = Registry::standard();
    for params in [WorkloadParams::test(), WorkloadParams::paper()] {
        let report = check_registry(&registry, &params);
        assert!(
            !report.has_errors(),
            "seed registry must validate cleanly:\n{}",
            report.render_pretty()
        );
    }
}

#[test]
fn every_experiment_checks_individually() {
    let registry = Registry::standard();
    let params = WorkloadParams::test();
    for exp in registry.experiments() {
        let report =
            check_experiment(&registry, exp.name(), &params).expect("registered names resolve");
        assert!(
            !report.has_errors(),
            "{} failed check:\n{}",
            exp.name(),
            report.render_pretty()
        );
    }
}

#[test]
fn cli_check_all_is_clean_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_stacksim"))
        .args(["check", "--all", "--test-scale"])
        .output()
        .expect("stacksim binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "check --all failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 errors"), "unexpected output: {stdout}");
}

#[test]
fn cli_check_json_is_machine_readable() {
    let out = Command::new(env!("CARGO_BIN_EXE_stacksim"))
        .args(["check", "fig8", "table4", "--format", "json"])
        .output()
        .expect("stacksim binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'));
    assert!(
        stdout.contains("\"schema\":\"stacksim-diag/1\""),
        "check JSON carries the shared diag schema tag: {stdout}"
    );
    assert!(stdout.contains("\"errors\":0"));
}

#[test]
fn cli_check_rejects_unknown_names_and_bad_flags() {
    let unknown = Command::new(env!("CARGO_BIN_EXE_stacksim"))
        .args(["check", "fig99"])
        .output()
        .expect("stacksim binary runs");
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("fig99"));

    let both = Command::new(env!("CARGO_BIN_EXE_stacksim"))
        .args(["check", "--all", "fig8"])
        .output()
        .expect("stacksim binary runs");
    assert!(!both.status.success(), "--all plus names is a usage error");

    // Every command shares one flag parser: an unknown flag, a flag
    // missing its value and a malformed value are all usage errors (exit
    // 2) before any work starts. `check` and `stats` take no numeric flag,
    // so their malformed value is a bad `--format`; `list` and `clean`
    // have no flag that takes a malformed value.
    let usage_errors: &[&[&str]] = &[
        &["list", "--bogus"],
        &["run", "--all", "--bogus"],
        &["run", "--all", "--jobs"],
        &["run", "--all", "--jobs", "many"],
        &["explore", "--bogus"],
        &["explore", "--budget"],
        &["explore", "--budget", "many"],
        &["serve", "--bogus"],
        &["serve", "--pool"],
        &["serve", "--pool", "many"],
        &["check", "--all", "--bogus"],
        &["check", "--all", "--format"],
        &["check", "--all", "--format", "xml"],
        &["bench", "--bogus"],
        &["bench", "--threads"],
        &["bench", "--threads", "many"],
        &["stats", "--bogus"],
        &["stats", "--events"],
        &["stats", "--format", "xml"],
        &["clean", "--bogus"],
        &["clean", "--cache-dir"],
        // validation beyond parsing
        &["run", "--all", "fig8"],
        &["run", "--all", "--deadline", "-1"],
        &["bench", "--threads", "0"],
        // the shard count is a constant, no longer a flag
        &["explore", "--cache-shards", "4"],
        &["serve", "--cache-shards", "4"],
    ];
    for args in usage_errors {
        let out = Command::new(env!("CARGO_BIN_EXE_stacksim"))
            .args(*args)
            .output()
            .expect("stacksim binary runs");
        assert_eq!(out.status.code(), Some(2), "stacksim {args:?} must exit 2");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("usage: stacksim"),
            "stacksim {args:?} must print the usage"
        );
    }
}

//! Integration: `stacksim` *processes* sharing one `--cache-dir`. Two
//! concurrent runs must not corrupt entries — the pid-unique tmp-file
//! claim plus the locked eviction scan are the contract under test — and
//! every command must see the one sharded layout, so what `explore`
//! stores `run` hits and `clean` removes.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};

use stacksim::core::harness::Artifact;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-contend-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every `*.json` file under `dir`, descending into shard subdirectories
/// but not into the subdirectories named in `skip`.
fn json_entries(dir: &Path, skip: &[&str]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries {
        let path = entry.expect("read_dir").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() && !skip.contains(&name) {
            out.extend(json_entries(&path, skip));
        } else if path.is_file() && name.ends_with(".json") {
            out.push(path);
        }
    }
    out
}

/// Runs one `stacksim` command against `cache` and asserts it succeeds.
fn stacksim(args: &[&str], cache: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_stacksim"))
        .args(args)
        .arg("--cache-dir")
        .arg(cache)
        .output()
        .expect("stacksim binary runs");
    assert!(
        out.status.success(),
        "stacksim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn spawn_run(cache: &PathBuf, names: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stacksim"));
    cmd.arg("run")
        .args(names)
        .arg("--test-scale")
        .arg("--serial")
        .arg("--cache-dir")
        .arg(cache)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped());
    cmd.spawn().expect("spawn stacksim")
}

/// Two processes race the same selection into one cache directory; both
/// must succeed, every surviving entry must parse, and a third run must
/// be served fully from the (uncorrupted) cache.
#[test]
fn two_processes_share_a_cache_dir_without_corruption() {
    let cache = scratch_dir("race");
    // fig5 expands to 12 benchmark points + the aggregate: plenty of
    // same-name same-digest stores landing from both processes at once
    let a = spawn_run(&cache, &["fig5", "fig3"]);
    let b = spawn_run(&cache, &["fig5", "fig3"]);
    for child in [a, b] {
        let out = child.wait_with_output().expect("wait");
        assert!(
            out.status.success(),
            "concurrent run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // every entry both writers left behind, in every shard, is a
    // parseable artifact
    let mut entries = 0;
    for path in json_entries(&cache, &["quarantine"]) {
        let text = std::fs::read_to_string(&path).expect("read entry");
        Artifact::decode(&text)
            .unwrap_or_else(|e| panic!("corrupt cache entry {}: {e}", path.display()));
        entries += 1;
    }
    assert!(entries >= 14, "fig5 closure + fig3 memoized, got {entries}");
    assert!(
        !cache.join("quarantine").exists(),
        "no entry needed quarantining"
    );

    // a third run completes entirely from the shared cache
    let report_path = std::env::temp_dir().join(format!(
        "stacksim-contend-report-{}.json",
        std::process::id()
    ));
    let report = Command::new(env!("CARGO_BIN_EXE_stacksim"))
        .args(["run", "fig5", "fig3", "--test-scale", "--serial"])
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--report")
        .arg(&report_path)
        .output()
        .expect("reporting run");
    assert!(report.status.success());
    let text = std::fs::read_to_string(&report_path).expect("report written");
    assert!(
        !text.contains("\"cached\":false"),
        "warm shared cache must serve every experiment: {text}"
    );
    assert!(text.contains("\"cached\":true"));
    let _ = std::fs::remove_file(&report_path);
    let _ = std::fs::remove_dir_all(&cache);
}

/// `explore` and `run` open the cache through the same layout: a point
/// `explore` memoized is a hit for `run`, and `clean` leaves no entry in
/// any shard.
#[test]
fn explore_run_and_clean_share_one_cache_layout() {
    let cache = scratch_dir("layout");
    std::fs::create_dir_all(&cache).expect("scratch dir");
    let spec = cache.join("spec.txt");
    std::fs::write(&spec, r#"{"benchmarks":["gauss"],"vf":[1.0]}"#).expect("write spec");
    let spec = spec.to_str().expect("utf-8 path");
    stacksim(&["explore", "--test-scale", "--spec", spec], &cache);

    let report = cache.join("report.txt");
    let report_arg = report.to_str().expect("utf-8 path");
    stacksim(
        &["run", "fig5:gauss", "--test-scale", "--report", report_arg],
        &cache,
    );
    let text = std::fs::read_to_string(&report).expect("report written");
    assert!(
        text.contains("\"cached\":true") && !text.contains("\"cached\":false"),
        "run must hit the entry explore stored: {text}"
    );

    assert!(!json_entries(&cache, &["journal"]).is_empty());
    stacksim(&["clean"], &cache);
    let left = json_entries(&cache, &["journal"]);
    assert!(left.is_empty(), "clean left cache entries behind: {left:?}");
    let _ = std::fs::remove_dir_all(&cache);
}

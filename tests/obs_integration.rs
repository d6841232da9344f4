//! End-to-end observability: run a real experiment through the harness
//! with metrics and an event log on, then validate both artifacts the
//! way `stacksim stats` does — schema-checked snapshot, balanced span
//! log, and counter values consistent with the run report.

mod common;

use std::sync::Arc;

use stacksim::core::harness::json::Json;
use stacksim::core::harness::{obs_audit, obs_report, MemoCache, Sim, SimBuilder};
use stacksim::workloads::{RmsBenchmark, WorkloadParams};

/// The enable flag, registry and sink are process-global; tests touching
/// them must not interleave.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn run_with_observability_produces_valid_artifacts() {
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("stacksim-obs-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let events_path = dir.join("events.jsonl");
    let snapshot_path = dir.join("metrics.json");

    stacksim::obs::reset();
    stacksim::obs::enable();
    let sink = stacksim::obs::JsonlSink::create(&events_path).unwrap();
    stacksim::obs::set_sink(Some(Arc::new(sink)));

    let builder = Sim::builder()
        .params(WorkloadParams::test())
        .jobs(1)
        .cache(MemoCache::at(dir.join("cache")))
        .preflight(true);
    let outcome = common::run_batch(builder, &["fig5:gauss"]).unwrap();
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);

    stacksim::obs::set_sink(None);
    obs_report::write_snapshot(&snapshot_path).unwrap();
    stacksim::obs::disable();

    let text = std::fs::read_to_string(&snapshot_path).unwrap();
    let summary = obs_report::validate_snapshot(&text).unwrap();
    assert!(summary.counters > 0, "no counters in snapshot");
    assert!(summary.histograms > 0, "no histograms in snapshot");

    let doc = Json::parse(&text).unwrap();
    let counters = doc.get("counters").unwrap();
    let counter = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    let records = outcome.report.total_trace_records();
    assert!(records > 0);
    // the counter sees every replayed record, warm-up included, once per
    // stack option: exactly four times the generated trace — neither a
    // double count nor a missed window
    let generated = RmsBenchmark::Gauss.generate(&WorkloadParams::test()).len() as u64;
    assert!(generated > records / 4, "telemetry excludes the warm-up");
    assert_eq!(counter("mem.engine.records"), 4 * generated);
    assert!(counter("mem.accesses") > 0);
    assert!(counter("mem.bus.bytes") > 0);
    assert_eq!(counter("harness.experiments"), 1);
    assert_eq!(counter("harness.cache_misses"), 1);
    assert_eq!(counter("harness.cache_hits"), 0);
    assert!(counter("harness.cache.bytes_written") > 0);

    let events = std::fs::read_to_string(&events_path).unwrap();
    let es = obs_report::validate_events(&events).unwrap();
    assert!(
        es.spans >= 2,
        "expected run + experiment spans, got {}",
        es.spans
    );

    let rendered = obs_report::render_snapshot(&text).unwrap();
    assert!(rendered.contains("mem.accesses"));
    assert!(rendered.contains("harness.experiments"));

    // the runtime half of SL060: everything registered is declared
    let report = obs_audit();
    assert!(!report.has_errors(), "{}", report.render_pretty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A second identical run served from the memo cache reports a hit and
/// simulates nothing — the cache counters make that visible.
#[test]
fn cache_hit_shows_up_in_metrics() {
    let _guard = OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("stacksim-obs-hit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let builder = || -> SimBuilder {
        Sim::builder()
            .params(WorkloadParams::test())
            .jobs(1)
            .cache(MemoCache::at(dir.join("cache")))
            .preflight(true)
    };

    // seed the cache without metrics
    common::run_batch(builder(), &["fig5:svm"]).unwrap();

    stacksim::obs::reset();
    stacksim::obs::enable();
    let outcome = common::run_batch(builder(), &["fig5:svm"]).unwrap();
    let snapshot = stacksim::obs::registry().snapshot();
    stacksim::obs::disable();

    assert!(outcome.report.entries[0].cached);
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    assert_eq!(counter("harness.cache_hits"), 1);
    assert_eq!(counter("harness.cache_misses"), 0);
    assert_eq!(
        counter("mem.engine.records"),
        0,
        "a cache hit simulates nothing"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

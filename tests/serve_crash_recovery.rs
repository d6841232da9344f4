//! Integration: crash recovery end to end against the real binary — a
//! daemon is SIGKILLed with an accepted request still in flight; on
//! restart the journal replays it (`journal.replayed` > 0), the memo
//! cache makes the replay idempotent, and the recovered artifact is
//! byte-identical to the study function called directly.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use stacksim::core::harness::json::Json;
use stacksim::core::harness::Artifact;
use stacksim::core::sensitivity;

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stacksim-crash-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Kills the daemon on drop so a failing assertion can't leak it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_daemon(cache_dir: &PathBuf, fault_plan: Option<&PathBuf>) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stacksim"));
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--test-scale")
        .arg("--pool")
        .arg("2")
        .arg("--jobs")
        .arg("1")
        .arg("--cache-dir")
        .arg(cache_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(plan) = fault_plan {
        cmd.arg("--fault-plan").arg(plan);
    }
    let mut child = cmd.spawn().expect("spawn stacksim serve");
    // `bind` replays the journal *before* this line prints, so once the
    // address is known, recovery has already happened
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints its address")
        .expect("readable stdout");
    let addr = banner
        .rsplit("http://")
        .next()
        .expect("listen banner has an address")
        .trim()
        .to_string();
    // keep draining stdout so the child never blocks on a full pipe
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    Daemon { child, addr }
}

/// Sends one close-after-response request; returns (status, body).
fn request(addr: &str, head: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let message = format!(
        "{head}\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default()
        .to_string();
    (status, body)
}

fn counter(addr: &str, name: &str) -> u64 {
    let (code, body) = request(addr, "GET /metrics HTTP/1.1", "");
    assert_eq!(code, 200);
    Json::parse(&body)
        .expect("metrics are JSON")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn a_killed_daemon_recovers_its_accepted_work_from_the_journal() {
    let dir = scratch_dir();
    let cache_dir = dir.join("cache");

    // a dispatch stall keeps the accepted request in flight long enough
    // to SIGKILL the daemon mid-run
    let plan_path = dir.join("stall.json");
    std::fs::write(
        &plan_path,
        "{\"schema\":\"stacksim-faults/1\",\"seed\":9,\"rules\":[\
         {\"site\":\"harness.dispatch\",\"key\":\"fig3\",\"kind\":\"stall\",\"ms\":30000}]}",
    )
    .expect("write fault plan");

    let daemon = spawn_daemon(&cache_dir, Some(&plan_path));
    let (code, body) = request(
        &daemon.addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig3\",\"faults\":true}",
    );
    assert_eq!(code, 200, "{body}");
    assert!(
        counter(&daemon.addr, "journal.appended") >= 1,
        "the accepted request was journaled before the response"
    );

    // SIGKILL: no drain, no done record — the journal is all that's left
    drop(daemon);
    let journal_path = cache_dir.join("journal").join("requests.jsonl");
    assert!(journal_path.exists(), "the journal survived the crash");

    // restart on the same cache dir, without the stall plan: boot replay
    // resubmits the orphaned request and it runs to completion
    let daemon = spawn_daemon(&cache_dir, None);
    assert_eq!(
        counter(&daemon.addr, "journal.replayed"),
        1,
        "exactly the one orphaned request replayed"
    );

    // the replayed work finishes; resubmitting the same request dedups
    // onto it (or serves warm) and yields the artifact
    let (code, body) = request(
        &daemon.addr,
        "POST /v1/experiments HTTP/1.1",
        "{\"experiment\":\"fig3\",\"faults\":true}",
    );
    assert_eq!(code, 200, "{body}");
    let id = Json::parse(&body)
        .expect("JSON")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = request(
            &daemon.addr,
            &format!("GET /v1/experiments/{id}?wait=1&timeout_ms=5000 HTTP/1.1"),
            "",
        );
        if code == 200 && body.contains("\"status\":\"done\"") {
            assert!(body.contains("\"ok\":true"), "{body}");
            break;
        }
        assert_eq!(code, 202, "bounded long-poll while recovering: {body}");
        assert!(
            Instant::now() < deadline,
            "recovered request never finished"
        );
    }
    let (code, via_recovery) = request(
        &daemon.addr,
        &format!("GET /v1/experiments/{id}/artifact HTTP/1.1"),
        "",
    );
    assert_eq!(code, 200);

    // the recovery path cost nothing extra and changed nothing: the
    // artifact is byte-identical to the study function called directly
    let direct = Artifact::Fig3(sensitivity::fig3().expect("direct fig3"));
    assert_eq!(
        via_recovery,
        direct.encode(),
        "recovered artifact must be bit-identical"
    );

    // a clean second restart replays nothing: the journal recorded the
    // request's completion
    drop(daemon);
    let daemon = spawn_daemon(&cache_dir, None);
    assert_eq!(
        counter(&daemon.addr, "journal.replayed"),
        0,
        "completed work does not replay"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

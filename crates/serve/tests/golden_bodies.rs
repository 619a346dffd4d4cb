//! Byte-exact snapshots of the daemon's non-streaming response bodies
//! (status, listings, errors, `/metrics`), captured before the JSON
//! writer was unified. Clients scan these bodies for `"id": "` and
//! `"phase": "done"`, so their bytes are part of the interface.
//!
//! The snapshots live in `tests/golden/`. Every body is fetched over a
//! raw socket so the trailing newline is compared too. Telemetry stays
//! off in this test binary, so `/metrics` is the empty object.

use anafault::coverage::DetectionSpec;
use anafault::inject::HardFaultModel;
use anafault::protocol::CampaignSpec;
use anafault::{Fault, FaultEffect};
use serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn spec(client: &str) -> CampaignSpec {
    CampaignSpec {
        netlist: "rc testbench\nV1 in 0 pulse(0 5 0 1u 1u 40u 100u)\nR1 in out 1k\n\
                  C1 out 0 1n ic=0\n.end\n"
            .to_string(),
        tstep: 0.5e-6,
        tstop: 20e-6,
        uic: true,
        observe: vec!["out".to_string()],
        detection: DetectionSpec {
            v_tol: 1.0,
            t_tol: 1e-6,
        },
        model: HardFaultModel::paper_resistor(),
        early_stop: false,
        record_signatures: false,
        max_faults: None,
        client: Some(client.to_string()),
        faults: vec![
            Fault::new(
                1,
                "BRI in->out",
                FaultEffect::Short {
                    a: "in".into(),
                    b: "out".into(),
                },
            ),
            Fault::new(
                2,
                "SOFT R1 x10",
                FaultEffect::ParamDeviation {
                    element: "R1".into(),
                    factor: 10.0,
                },
            ),
        ],
    }
}

/// One exchange over a raw socket: the status code and the exact body
/// bytes (`Content-Length` framing only).
fn raw(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

fn start(state_dir: &Path) -> (Server, String) {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        state_dir: state_dir.to_path_buf(),
        sim_workers: 1,
        http_workers: 2,
        max_campaigns: 4,
        client_fault_budget: 100,
        retain: None,
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

/// Drives one fixed scenario and returns `(snapshot name, status,
/// body)` for every non-streaming body it sees.
fn collect_bodies() -> Vec<(&'static str, u16, String)> {
    let state_dir =
        std::env::temp_dir().join(format!("anafault-golden-bodies-{}", std::process::id()));
    std::fs::remove_dir_all(&state_dir).ok();
    let (_first, addr) = start(&state_dir);
    let mut bodies = Vec::new();
    let mut get = |name, method, path: &str, body: &str| {
        let (status, text) = raw(&addr, method, path, body);
        bodies.push((name, status, text));
    };
    get("healthz", "GET", "/healthz", "");
    get("metrics_empty", "GET", "/metrics", "");
    get("list_empty", "GET", "/campaigns", "");
    get("no_endpoint", "GET", "/nope", "");
    get("not_allowed", "DELETE", "/campaigns", "");
    get("no_campaign", "GET", "/campaigns/c9", "");
    get("no_campaign_result", "GET", "/campaigns/c9/result", "");
    get("bad_spec", "POST", "/campaigns", "not json");
    get(
        "bad_spec_schema",
        "POST",
        "/campaigns",
        "{\"spec_version\": 2}",
    );
    get(
        "bad_client",
        "POST",
        "/campaigns",
        &spec("tab\there").to_json(),
    );
    get("bad_diagnose", "POST", "/diagnose", "{}");
    let probe = "{\"diagnose_version\": 1, \"campaign\": \"c9\", \"waves\": \
                 [{\"node\": \"out\", \"times\": [0.0, 1e-6], \"values\": [0.0, 1.0]}]}";
    get("no_dictionary", "POST", "/diagnose", probe);
    get("submit", "POST", "/campaigns", &spec("golden").to_json());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !raw(&addr, "GET", "/campaigns/c1", "")
        .1
        .contains("\"phase\": \"done\"")
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    get("status", "GET", "/campaigns/c1", "");
    get("list", "GET", "/campaigns", "");
    get("dictionary_error", "POST", "/campaigns/c1/dictionary", "");
    // A second daemon on the same directory knows c1 only from disk.
    let (_second, addr) = start(&state_dir);
    for (name, path) in [
        ("status_disk", "/campaigns/c1"),
        ("list_disk", "/campaigns"),
    ] {
        let (status, text) = raw(&addr, "GET", path, "");
        bodies.push((name, status, text));
    }
    std::fs::remove_dir_all(&state_dir).ok();
    bodies
}

#[test]
fn response_bodies_match_snapshots() {
    for (name, status, body) in collect_bodies() {
        let path = golden_dir().join(format!("{name}.body"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
        let (want_status, want_body) = golden.split_once('\n').expect("status line");
        assert_eq!(status.to_string(), want_status, "{name}: status");
        assert_eq!(body, want_body, "{name}: body bytes");
    }
}

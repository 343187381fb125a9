//! Operational-telemetry integration: per-op windows fed by real requests,
//! the `metrics` op, exemplar → explain round-trips, and the HTTP endpoint.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use zodiac_daemon::{http, Daemon, DaemonConfig};
use zodiac_model::{Program, Resource};
use zodiac_obs::Obs;
use zodiac_spec::parse_check;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zodiacd-telem-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spot_violation_source() -> String {
    zodiac_hcl::to_hcl(
        &Program::new().with(
            Resource::new("azurerm_linux_virtual_machine", "vm")
                .with("size", "Standard_D2s_v3")
                .with("priority", "Spot"),
        ),
    )
}

fn scan_request(source: &str) -> String {
    format!(
        "{{\"op\":\"scan\",\"source\":{}}}",
        serde_json::to_string(&serde::Value::String(source.to_string())).unwrap()
    )
}

#[test]
fn metrics_op_reports_windows_and_replayable_exemplars() {
    let dir = temp_store("metrics-op");
    let (daemon, _) = Daemon::open(&dir, DaemonConfig::default(), Obs::null()).unwrap();
    let check =
        parse_check("let r:VM in r.priority == 'Spot' => r.eviction_policy != null").unwrap();
    let expected_fp = check.fingerprint();
    daemon.import_checks(&[check]).unwrap();

    let source = spot_violation_source();
    for _ in 0..5 {
        let line = daemon.handle_line(&scan_request(&source));
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    // One parse-able but failing request lands in the error window.
    let bad = daemon.handle_line("{\"op\":\"scan\",\"source\":\"resource \\\"\"}");
    assert!(bad.contains("\"ok\":false"), "{bad}");

    let line = daemon.handle_line("{\"op\":\"metrics\"}");
    let v: serde::Value = serde_json::from_str(&line).unwrap();
    assert_eq!(v.get("ok").and_then(serde::Value::as_bool), Some(true));

    // Rolling windows saw all six scans (five ok + one error).
    let scan_1m = v
        .get("rolling")
        .and_then(|r| r.get("ops"))
        .and_then(|o| o.get("scan"))
        .and_then(|s| s.get("last_1m"))
        .expect("rolling scan window present");
    assert_eq!(scan_1m.get("count").and_then(serde::Value::as_u64), Some(6));
    assert_eq!(
        scan_1m.get("errors").and_then(serde::Value::as_u64),
        Some(1)
    );
    assert!(
        scan_1m
            .get("p99_us")
            .and_then(serde::Value::as_u64)
            .unwrap()
            > 0
    );

    // The cumulative registry carries the same boundary histogram.
    let snap = v.get("snapshot").expect("metrics embeds the snapshot");
    let op_scan = snap
        .get("histograms")
        .and_then(|h| h.get("op.scan.us"))
        .expect("op.scan.us histogram present");
    assert_eq!(op_scan.get("count").and_then(serde::Value::as_u64), Some(6));
    assert_eq!(
        snap.get("counters")
            .and_then(|c| c.get("op.scan.errors"))
            .and_then(serde::Value::as_u64),
        Some(1)
    );

    // The slowest scan exemplar carries the violated check's fingerprint…
    let exemplars = v
        .get("exemplars")
        .and_then(|e| e.get("scan"))
        .and_then(serde::Value::as_array)
        .expect("scan exemplars present");
    assert!(!exemplars.is_empty());
    let with_fp = exemplars
        .iter()
        .find_map(|e| {
            e.get("fingerprints")
                .and_then(serde::Value::as_array)
                .and_then(|f| f.first())
                .and_then(serde::Value::as_u64)
        })
        .expect("an exemplar retains a violated-check fingerprint");
    assert_eq!(with_fp, expected_fp);

    // …which round-trips through the explain op to a live check.
    let explain = daemon.handle_line(&format!("{{\"op\":\"explain\",\"fp\":\"{with_fp:016x}\"}}"));
    assert!(explain.contains("\"ok\":true"), "{explain}");
    assert!(explain.contains("eviction_policy"), "{explain}");

    // The Prometheus page is embedded too, with per-op series.
    let page = v
        .get("prometheus")
        .and_then(serde::Value::as_str)
        .expect("metrics embeds the exposition page");
    assert!(page.contains("# TYPE zodiac_op_requests gauge"));
    assert!(page.contains("zodiac_op_requests{op=\"scan\",window=\"1m\"} 6"));
    // The failed scan never reached the scan body, so the cumulative
    // subsystem counter stays one behind the boundary window.
    assert!(page.contains("zodiac_daemon_scans_total 5"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_embeds_snapshot_and_readiness() {
    let dir = temp_store("status-embed");
    let (daemon, _) = Daemon::open(&dir, DaemonConfig::default(), Obs::null()).unwrap();
    let status = daemon.handle_line("{\"op\":\"status\"}");
    let v: serde::Value = serde_json::from_str(&status).unwrap();
    // Old flat fields survive for compatibility…
    assert_eq!(v.get("scans").and_then(serde::Value::as_u64), Some(0));
    assert_eq!(v.get("checks").and_then(serde::Value::as_u64), Some(0));
    // …alongside readiness and the full embedded snapshot.
    assert_eq!(v.get("ready").and_then(serde::Value::as_bool), Some(false));
    assert!(v.get("metrics").and_then(|m| m.get("counters")).is_some());
    assert!(v.get("rolling").and_then(|r| r.get("ops")).is_some());
    daemon.set_ready();
    let status = daemon.handle_line("{\"op\":\"status\"}");
    let v: serde::Value = serde_json::from_str(&status).unwrap();
    assert_eq!(v.get("ready").and_then(serde::Value::as_bool), Some(true));
    // The status round-trip itself was measured at the boundary.
    assert!(v
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("op.status.us"))
        .is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_counters_match_known_traffic_and_the_embedded_snapshot() {
    let dir = temp_store("status-counts");
    let (daemon, _) = Daemon::open(&dir, DaemonConfig::default(), Obs::null()).unwrap();
    daemon
        .import_checks(&[parse_check(
            "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
        )
        .unwrap()])
        .unwrap();
    let status = |daemon: &Daemon| -> serde::Value {
        serde_json::from_str(&daemon.handle_line("{\"op\":\"status\"}")).unwrap()
    };
    let json = |s: &str| serde_json::to_string(&serde::Value::String(s.to_string())).unwrap();

    // Reading status creates no counter, so even a second read embeds none
    // before traffic.
    status(&daemon);
    let v = status(&daemon);
    let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(counters.get("daemon.scans").is_none(), "{counters:?}");

    // Three scans of one source (one compile, then two verdict-cache hits),
    // one corpus delta, one repair.
    let source = spot_violation_source();
    for _ in 0..3 {
        let line = daemon.handle_line(&scan_request(&source));
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    let delta = daemon.handle_line(&format!(
        "{{\"op\":\"submit_corpus_delta\",\"upsert\":[{{\"project\":\"p1\",\"source\":{}}}]}}",
        json(&source)
    ));
    assert!(delta.contains("\"ok\":true"), "{delta}");
    let repair = daemon.handle_line(&format!(
        "{{\"op\":\"repair\",\"source\":{}}}",
        json(&zodiac_hcl::to_hcl(
            &zodiac_repair::fixtures::spot_vm_network()
        ))
    ));
    assert!(repair.contains("\"ok\":true"), "{repair}");

    let v = status(&daemon);
    let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
    for (field, counter, want) in [
        ("scans", "daemon.scans", 3),
        ("cache_hits", "daemon.cache_hits", 2),
        ("deltas", "daemon.deltas", 1),
        ("repairs", "daemon.repairs", 1),
    ] {
        assert_eq!(
            v.get(field).and_then(serde::Value::as_u64),
            Some(want),
            "{field}"
        );
        assert_eq!(
            counters.get(counter).and_then(serde::Value::as_u64),
            Some(want),
            "{counter}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn http_endpoint_serves_metrics_and_readiness() {
    let dir = temp_store("http");
    let (daemon, _) = Daemon::open(&dir, DaemonConfig::default(), Obs::null()).unwrap();
    daemon
        .import_checks(&[parse_check(
            "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
        )
        .unwrap()])
        .unwrap();
    let daemon = Arc::new(daemon);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let daemon = daemon.clone();
        std::thread::spawn(move || http::serve_http(daemon, listener))
    };

    // Not ready yet: healthz refuses, metrics still serves.
    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 503"), "{health}");
    assert!(health.ends_with("starting\n"), "{health}");
    daemon.set_ready();
    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");

    // Drive a scan through the daemon, then scrape.
    let line = daemon.handle_line(&scan_request(&spot_violation_source()));
    assert!(line.contains("\"ok\":true"), "{line}");
    let scrape = http_get(addr, "/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200"), "{scrape}");
    assert!(scrape.contains("text/plain; version=0.0.4"), "{scrape}");
    assert!(scrape.contains("zodiac_op_requests{op=\"scan\",window=\"1m\"} 1"));
    // Content-Length matches the body exactly.
    let (head, body) = scrape.split_once("\r\n\r\n").unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(len, body.len());

    assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"));
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 405"), "{out}");

    daemon.request_shutdown();
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

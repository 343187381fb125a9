//! The metrics TCP endpoint: a deliberately tiny HTTP/1.x responder for
//! `GET /metrics` (Prometheus exposition) and `GET /healthz` (readiness).
//!
//! Scrapers speak plain HTTP/1.1 with no exotic features, so this is a
//! request-line parser plus a header drain — no external dependencies, no
//! keep-alive (every response closes the connection, which Prometheus
//! handles fine). Connections come from the UDS server's accept loop
//! ([`crate::server`]): nonblocking accept, cooperative shutdown, worker
//! join.
//!
//! Readiness semantics: `/healthz` answers `503 starting` until
//! [`Daemon::set_ready`] ran (store recovered + initial check import
//! published), then `200 ok`. `/metrics` serves at any time — partial
//! telemetry during start-up is better than none.

use crate::server::accept_loop;
use crate::Daemon;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Serves HTTP on an already-bound listener until daemon shutdown. Bind
/// first, then spawn this on a thread — binding in the caller lets the
/// binary print the resolved address (port 0 is useful in tests/CI).
pub fn serve_http(daemon: Arc<Daemon>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(&daemon, || listener.accept(), serve_connection)
}

fn serve_connection(daemon: &Daemon, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    // A scraper that stalls mid-request must not pin a worker forever.
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line)? == 0 {
        return Ok(());
    }
    // Drain headers; this server ignores them all.
    let mut header = String::new();
    loop {
        header.clear();
        let n = reader.read_line(&mut header)?;
        if n == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, content_type, body) = respond(daemon, method, path);
    daemon.obs().counter("daemon.http_requests", 1);
    write_response(stream, status, content_type, &body)
}

fn respond(daemon: &Daemon, method: &str, path: &str) -> (&'static str, &'static str, String) {
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            daemon.metrics_page(),
        ),
        "/healthz" => {
            if daemon.is_ready() {
                ("200 OK", "text/plain; charset=utf-8", "ok\n".into())
            } else {
                (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "starting\n".into(),
                )
            }
        }
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".into(),
        ),
    }
}

fn write_response(
    mut stream: TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

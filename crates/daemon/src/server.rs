//! Serving loops: Unix domain socket (thread per connection) and the
//! `--oneshot` stdin/stdout mode, plus the one accept loop that the UDS
//! server and the metrics endpoint ([`crate::http`]) share.
//!
//! Both loops are line-oriented front-ends over [`Daemon::handle_line`];
//! every concurrency concern (snapshot capture, memoization, store
//! locking) lives in the daemon itself, so a connection thread is just
//! read-line → handle → write-line.

use crate::Daemon;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Serves requests from `reader`, answering on `writer`, until EOF or a
/// `shutdown` request. This is `--oneshot` mode, and also the per-connection
/// loop of the socket server.
pub fn serve_lines(
    daemon: &Daemon,
    reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let response = daemon.handle_line(&line);
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if daemon.is_shutdown() {
            break;
        }
    }
    Ok(())
}

/// Binds `path` and serves until a `shutdown` request. Removes a stale
/// socket file first and cleans it up on exit and on error; connection
/// threads are joined before returning, so a `shutdown` acknowledgement
/// implies all in-flight responses were written.
pub fn serve_uds(daemon: Arc<Daemon>, path: &Path) -> std::io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let listener = UnixListener::bind(path)?;
    let served = listener
        .set_nonblocking(true)
        .and_then(|()| accept_loop(&daemon, || listener.accept(), serve_connection));
    let _ = std::fs::remove_file(path);
    served
}

/// The accept loop both servers share. `accept` polls a nonblocking
/// listener; each connection gets a thread running `serve`, finished
/// threads are reaped as the loop goes, and all are joined before the loop
/// returns, on shutdown or on an accept error. Polling keeps shutdown
/// purely cooperative: no self-connect wakeups, no signal handling.
pub(crate) fn accept_loop<S: Send + 'static, A>(
    daemon: &Arc<Daemon>,
    mut accept: impl FnMut() -> std::io::Result<(S, A)>,
    serve: fn(&Daemon, S) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut workers = Vec::new();
    let mut accepting = Ok(());
    while accepting.is_ok() && !daemon.is_shutdown() {
        match accept() {
            Ok((stream, _)) => {
                let daemon = daemon.clone();
                workers.push(std::thread::spawn(move || {
                    let _ = serve(&daemon, stream);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => accepting = Err(e),
        }
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
    accepting
}

fn serve_connection(daemon: &Daemon, stream: UnixStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    let reader = BufReader::new(stream.try_clone()?);
    serve_lines(daemon, reader, stream)
}

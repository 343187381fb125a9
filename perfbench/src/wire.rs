//! The daemon's Unix-socket front end as the benchmark drives it: start
//! `serve_uds` on a thread, connect closed-loop clients, shut it down.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zodiac_daemon::Daemon;

/// A running `serve_uds` loop.
pub struct Server {
    path: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Serves `daemon` on the socket `path` and waits until it accepts.
    pub fn start(daemon: Arc<Daemon>, path: &Path) -> Result<Server, String> {
        let owned = path.to_path_buf();
        let thread = std::thread::spawn(move || zodiac_daemon::server::serve_uds(daemon, &owned));
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(path).is_err() {
            if thread.is_finished() || Instant::now() > deadline {
                return Err(format!("daemon did not start on {}", path.display()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Server {
            path: path.to_path_buf(),
            thread: Some(thread),
        })
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.path)
    }

    /// Sends `shutdown` and joins the serving loop. Every other client must
    /// have disconnected first.
    pub fn stop(mut self) -> Result<(), String> {
        let result = self.shutdown();
        self.thread = None;
        result
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = Client::connect(&self.path)
            .and_then(|mut c| c.call("{\"op\":\"shutdown\"}").map(|_| ()));
        let joined = thread
            .join()
            .map_err(|_| "serving loop panicked".to_string())?
            .map_err(|e| format!("serving loop: {e}"));
        sent.and(joined)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One closed-loop client connection: send a line, wait for its answer.
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    buf: String,
}

impl Client {
    fn connect(path: &Path) -> Result<Client, String> {
        let writer = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("connect: {e}"))?);
        Ok(Client {
            writer,
            reader,
            buf: String::new(),
        })
    }

    /// Sends one request line and returns the response line (no newline).
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The text following `"key":` in a response line, if present.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    line.find(&pat).map(|at| &line[at + pat.len()..])
}

/// The unsigned number following `"key":`.
pub fn num_field(line: &str, key: &str) -> Option<u64> {
    let rest = field(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Whether a response line reports success.
pub fn is_ok(line: &str) -> bool {
    line.starts_with("{") && field(line, "ok").is_some_and(|v| v.starts_with("true"))
}

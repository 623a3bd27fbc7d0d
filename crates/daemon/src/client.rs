//! A blocking client for the daemon's line protocol.
//!
//! One [`Client`] owns one connection and issues one request line at a
//! time, reading exactly one response line per request (the protocol
//! has no server pushes, so this lock-step discipline is complete).
//! The typed helpers ([`Client::submit`], [`Client::wait`], …) wrap
//! [`Client::request`], which is public so tools can speak extensions
//! the helpers do not know.
//!
//! [`RetryingClient`] layers resilience on top: transparent reconnect
//! with capped, jittered exponential [`Backoff`] when the connection
//! dies mid-operation (a daemon restart, an injected socket reset, a
//! governor close). Blind retry is only safe because submission is
//! idempotent — which is why [`RetryingClient::submit`] *requires* a
//! `dedupe_key` and refuses specs without one.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use droidsim_kernel::journal;

use crate::daemon::{Admission, JobStatus, ShutdownMode};
use crate::spec::JobSpec;

/// Capped, jittered exponential backoff: delay `n` is
/// `base · 2ⁿ` (capped at `cap`), scaled by a 50–100 % jitter drawn
/// from a tiny xorshift stream so herds of retrying clients spread out
/// instead of thundering in lock-step.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    jitter: u64,
}

impl Backoff {
    /// A schedule from `base` to `cap`; `seed` drives the jitter
    /// stream (any value, including 0, is fine).
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            jitter: seed | 1, // xorshift must not start at 0
        }
    }

    /// The schedule `connect_retry` and [`RetryingClient`] share:
    /// 1 ms doubling to a 100 ms cap.
    pub fn for_reconnect(seed: u64) -> Backoff {
        Backoff::new(Duration::from_millis(1), Duration::from_millis(100), seed)
    }

    /// The next delay, advancing the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        // xorshift64: cheap, seedable, good enough to de-correlate
        // retry herds.
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let pct = 50 + (self.jitter % 51); // 50..=100
        exp.mul_f64(pct as f64 / 100.0)
    }

    /// Back to the first step (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// A connected protocol client (see module docs).
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to a listening daemon socket.
    pub fn connect(socket_path: &Path) -> io::Result<Client> {
        let stream = UnixStream::connect(socket_path)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Connects, retrying with jittered exponential backoff until
    /// `timeout` — for racing a daemon that is still starting up (or
    /// restarting).
    pub fn connect_retry(socket_path: &Path, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::for_reconnect(0x5EED);
        loop {
            match Client::connect(socket_path) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(backoff.next_delay()),
            }
        }
    }

    /// Sends one request line **without reading the response** — the
    /// chaos harness's "lost ack": the daemon processes the request,
    /// but this client never hears the answer. Pair with a dedupe-keyed
    /// resubmit to prove idempotency.
    pub fn send(&mut self, fields: &[(&str, &str)]) -> io::Result<()> {
        let line = journal::encode_line(fields);
        let stream = self.reader.get_mut();
        writeln!(stream, "{line}")?;
        stream.flush()
    }

    /// Sends one request line and reads one response line, decoded.
    pub fn request(&mut self, fields: &[(&str, &str)]) -> io::Result<Vec<(String, String)>> {
        let line = journal::encode_line(fields);
        let stream = self.reader.get_mut();
        writeln!(stream, "{line}")?;
        stream.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        journal::decode_line(&response).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable response: {response:?}"),
            )
        })
    }

    /// `cmd=ping` — true when the daemon answers.
    pub fn ping(&mut self) -> io::Result<bool> {
        let resp = self.request(&[("cmd", "ping")])?;
        Ok(journal::field(&resp, "pong") == Some("1"))
    }

    /// Submits a job, returning the daemon's explicit verdict.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<Admission> {
        let owned = spec.kv_fields();
        let mut fields: Vec<(&str, &str)> = vec![("cmd", "submit")];
        fields.extend(owned.iter().map(|(k, v)| (*k, v.as_str())));
        let resp = self.request(&fields)?;
        match journal::field(&resp, "result") {
            Some("accepted") => {
                let id = journal::field(&resp, "job_id")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad_response("accepted without job_id"))?;
                let queue_depth = journal::field(&resp, "queue_depth")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                Ok(Admission::Accepted { id, queue_depth })
            }
            Some("rejected") => Ok(Admission::Rejected {
                reason: journal::field(&resp, "reason")
                    .unwrap_or("unspecified")
                    .to_owned(),
            }),
            Some("duplicate") => {
                let id = journal::field(&resp, "job_id")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad_response("duplicate without job_id"))?;
                Ok(Admission::Duplicate { id })
            }
            _ => Err(bad_response(&render(&resp))),
        }
    }

    /// `cmd=status` for one job.
    pub fn status(&mut self, id: u64) -> io::Result<JobStatus> {
        let resp = self.request(&[("cmd", "status"), ("job_id", &id.to_string())])?;
        parse_status(&resp)
    }

    /// `cmd=wait` — blocks (server-side) until the job settles or the
    /// timeout elapses, returning the status either way.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> io::Result<JobStatus> {
        let timeout_ms = timeout.as_millis().to_string();
        let resp = self.request(&[
            ("cmd", "wait"),
            ("job_id", &id.to_string()),
            ("timeout_ms", &timeout_ms),
        ])?;
        parse_status(&resp)
    }

    /// `cmd=cancel` — requests cooperative cancellation.
    pub fn cancel(&mut self, id: u64) -> io::Result<JobStatus> {
        let resp = self.request(&[("cmd", "cancel"), ("job_id", &id.to_string())])?;
        parse_status(&resp)
    }

    /// `cmd=health` — the coarse liveness fields.
    pub fn health(&mut self) -> io::Result<Vec<(String, String)>> {
        self.request(&[("cmd", "health")])
    }

    /// `cmd=stats` — the full ledger snapshot as decoded fields.
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        self.request(&[("cmd", "stats")])
    }

    /// `cmd=shutdown` — stops the daemon; the response arrives after
    /// the stop completes. A connection that dies after the request is
    /// sent also counts as success: a stopping `droidsimd` process may
    /// exit before its handler thread flushes the response line, and
    /// the daemon going away is exactly what was asked for.
    pub fn shutdown(&mut self, mode: ShutdownMode) -> io::Result<()> {
        let resp = match self.request(&[("cmd", "shutdown"), ("mode", mode.name())]) {
            Ok(resp) => resp,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::UnexpectedEof
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::BrokenPipe
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        if journal::field(&resp, "result") == Some("stopped") {
            Ok(())
        } else {
            Err(bad_response(&render(&resp)))
        }
    }
}

fn parse_status(resp: &[(String, String)]) -> io::Result<JobStatus> {
    if journal::field(resp, "ok") != Some("true") {
        return Err(bad_response(&render(resp)));
    }
    JobStatus::from_fields(resp).map_err(|e| bad_response(&e))
}

fn bad_response(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("daemon: {detail}"))
}

fn render(fields: &[(String, String)]) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Whether an operation error means "the connection is gone, a fresh
/// one may succeed" (as opposed to a real protocol/daemon error).
fn is_connection_loss(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// A client that survives connection loss: every operation reconnects
/// and retries with capped jittered [`Backoff`] until it succeeds or
/// the per-operation deadline expires (see module docs for why submit
/// demands a `dedupe_key`).
#[derive(Debug)]
pub struct RetryingClient {
    socket: PathBuf,
    conn: Option<Client>,
    backoff: Backoff,
    deadline: Duration,
}

impl RetryingClient {
    /// A lazily-connecting resilient client for `socket_path` with a
    /// 30 s per-operation deadline. Construction never fails — the
    /// first operation connects (and retries).
    pub fn new(socket_path: impl Into<PathBuf>) -> RetryingClient {
        RetryingClient {
            socket: socket_path.into(),
            conn: None,
            backoff: Backoff::for_reconnect(0x9E37),
            deadline: Duration::from_secs(30),
        }
    }

    /// Sets the per-operation retry deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Drops the live connection (if any) on the floor — the chaos
    /// harness's mid-burst connection kill. The next operation
    /// transparently reconnects.
    pub fn drop_connection(&mut self) {
        self.conn = None;
    }

    /// Sends a request on the live connection without reading the
    /// response, then kills the connection — the full "lost ack"
    /// scenario in one call. Connects first if needed.
    pub fn send_and_drop(&mut self, fields: &[(&str, &str)]) -> io::Result<()> {
        self.run(|c| c.send(fields))?;
        self.drop_connection();
        Ok(())
    }

    /// Runs `op`, reconnecting and retrying on connection loss until
    /// the deadline. Non-connection errors surface immediately.
    fn run<T>(&mut self, mut op: impl FnMut(&mut Client) -> io::Result<T>) -> io::Result<T> {
        let deadline = Instant::now() + self.deadline;
        loop {
            if self.conn.is_none() {
                match Client::connect(&self.socket) {
                    Ok(client) => {
                        self.conn = Some(client);
                        self.backoff.reset();
                    }
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(e);
                        }
                        std::thread::sleep(self.backoff.next_delay());
                        continue;
                    }
                }
            }
            let client = self.conn.as_mut().expect("connected above");
            match op(client) {
                Ok(value) => return Ok(value),
                Err(e) if is_connection_loss(e.kind()) => {
                    // The connection is dead either way; retrying on a
                    // fresh one is safe for every protocol op (submit
                    // is gated on a dedupe_key).
                    self.conn = None;
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(self.backoff.next_delay());
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// `cmd=ping`, retried across reconnects.
    pub fn ping(&mut self) -> io::Result<bool> {
        self.run(Client::ping)
    }

    /// Idempotent submit. **Requires** a non-empty `dedupe_key`: a
    /// blind retry without one could execute the job twice, which is
    /// exactly the bug this client exists to make impossible.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<Admission> {
        if spec.dedupe_key.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "RetryingClient::submit requires a dedupe_key \
                 (a retried submit without one may duplicate work)",
            ));
        }
        self.run(|c| c.submit(spec))
    }

    /// `cmd=status`, retried across reconnects.
    pub fn status(&mut self, id: u64) -> io::Result<JobStatus> {
        self.run(|c| c.status(id))
    }

    /// `cmd=wait`, retried across reconnects. `timeout` is the
    /// *server-side* wait; the retry deadline still bounds the whole
    /// operation.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> io::Result<JobStatus> {
        self.run(|c| c.wait(id, timeout))
    }

    /// `cmd=cancel`, retried across reconnects (cancellation is
    /// naturally idempotent).
    pub fn cancel(&mut self, id: u64) -> io::Result<JobStatus> {
        self.run(|c| c.cancel(id))
    }

    /// `cmd=health`, retried across reconnects.
    pub fn health(&mut self) -> io::Result<Vec<(String, String)>> {
        self.run(Client::health)
    }

    /// `cmd=stats`, retried across reconnects.
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        self.run(Client::stats)
    }

    /// `cmd=shutdown`. Not retried: a connection that dies after the
    /// request already counts as success ([`Client::shutdown`]), and
    /// re-sending to a daemon that is not there would just wait out
    /// the deadline.
    pub fn shutdown(&mut self, mode: ShutdownMode) -> io::Result<()> {
        let result = match self.conn.as_mut() {
            Some(client) => client.shutdown(mode),
            None => Client::connect(&self.socket).and_then(|mut c| c.shutdown(mode)),
        };
        self.conn = None;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_within_bounds() {
        let base = Duration::from_millis(4);
        let cap = Duration::from_millis(64);
        let mut b = Backoff::new(base, cap, 42);
        let mut prev_ceiling = Duration::ZERO;
        for attempt in 0..12 {
            let ceiling = base.saturating_mul(1 << attempt.min(16)).min(cap);
            let delay = b.next_delay();
            assert!(
                delay <= ceiling,
                "attempt {attempt}: {delay:?} > {ceiling:?}"
            );
            assert!(
                delay >= ceiling.mul_f64(0.5),
                "attempt {attempt}: jitter floor is 50%"
            );
            assert!(ceiling >= prev_ceiling, "schedule is monotone");
            prev_ceiling = ceiling;
        }
        // Far down the schedule the ceiling is pinned at the cap.
        for _ in 0..20 {
            assert!(b.next_delay() <= cap);
        }
        b.reset();
        assert!(b.next_delay() <= base, "reset returns to the first step");
    }

    #[test]
    fn backoff_jitter_streams_differ_by_seed() {
        let mk = |seed| {
            let mut b = Backoff::new(Duration::from_millis(100), Duration::from_secs(1), seed);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(1), "same seed, same schedule");
        assert_ne!(mk(1), mk(2), "different seeds de-correlate");
    }

    #[test]
    fn retrying_submit_refuses_specs_without_a_dedupe_key() {
        let mut rc = RetryingClient::new("/nonexistent/droidsimd.sock")
            .with_deadline(Duration::from_millis(50));
        let spec = crate::spec::JobSpec::new(crate::spec::JobKind::Fig10);
        let err = rc.submit(&spec).expect_err("keyless submit must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // With a key it proceeds to (and fails at) the connection —
        // proving the gate is the key, not the transport.
        let keyed = spec.with_dedupe_key("k");
        let err = rc.submit(&keyed).expect_err("no daemon listening");
        assert_ne!(err.kind(), io::ErrorKind::InvalidInput);
    }
}

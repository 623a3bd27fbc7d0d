//! A blocking client for the daemon's line protocol.
//!
//! A [`Client`] issues one request line at a time and reads exactly one
//! response line per request (the protocol has no server pushes, so
//! this lock-step discipline is complete). It connects on its first
//! operation and keeps the connection for the next.
//!
//! A client with a retry deadline ([`Client::with_deadline`]) survives
//! connection loss: a daemon still starting or restarting, an injected
//! socket reset, a governor close. It reconnects with capped, jittered
//! exponential [`Backoff`] until the deadline. A request whose write
//! failed never reached the daemon and is always sent again. A request
//! whose line may already have reached the daemon is sent again only
//! when a second copy changes nothing: a keyed submit (the daemon
//! answers `duplicate` of the first job) and the read-only or
//! idempotent operations. A submit without a `dedupe_key` and
//! `shutdown` are never sent twice.
//! With the default zero deadline the client connects once and retries
//! nothing.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
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

    /// The schedule a [`Client`] reconnects on: 1 ms doubling to a
    /// 100 ms cap.
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

/// A protocol client (see module docs).
#[derive(Debug)]
pub struct Client {
    socket: PathBuf,
    conn: Option<BufReader<UnixStream>>,
    backoff: Backoff,
    deadline: Duration,
}

impl Client {
    /// A client for the daemon listening on `socket_path`, with a zero
    /// retry deadline. Construction never fails: the first operation
    /// connects.
    pub fn new(socket_path: impl Into<PathBuf>) -> Client {
        Client {
            socket: socket_path.into(),
            conn: None,
            backoff: Backoff::for_reconnect(0x9E37),
            deadline: Duration::ZERO,
        }
    }

    /// Sets the per-operation retry deadline: how long one operation
    /// keeps reconnecting, to a daemon that is starting or restarting
    /// as much as to one that dropped the connection.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sends one request line without reading the response, then drops
    /// the connection: the chaos harness's "lost ack". The daemon
    /// processes the request, but this client never hears the answer.
    /// Pair with a dedupe-keyed resubmit to prove idempotency.
    pub fn send_and_drop(&mut self, fields: &[(&str, &str)]) -> io::Result<()> {
        let deadline = Instant::now() + self.deadline;
        let sent = send_line(self.connected(deadline)?.get_mut(), fields);
        self.conn = None;
        sent
    }

    /// The live connection, connecting (and, until `deadline`,
    /// reconnecting with backoff) if there is none.
    fn connected(&mut self, deadline: Instant) -> io::Result<&mut BufReader<UnixStream>> {
        while self.conn.is_none() {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => {
                    self.conn = Some(BufReader::new(stream));
                    self.backoff.reset();
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(self.backoff.next_delay()),
            }
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Sends one request line and reads one response line, decoded: the
    /// path every operation takes. On a lost connection it tries again
    /// on a fresh one, with backoff, until the deadline. A failed write
    /// means the daemon never read the line, so every operation is sent
    /// again (past the deadline the error is `NotConnected`); a loss
    /// after the write sends a second copy only when `resend` allows it.
    /// Other errors surface at once.
    fn call(&mut self, fields: &[(&str, &str)], resend: bool) -> io::Result<Vec<(String, String)>> {
        let deadline = Instant::now() + self.deadline;
        loop {
            let conn = self.connected(deadline)?;
            let (e, written) = match send_line(conn.get_mut(), fields) {
                Err(e) => (e, false),
                Ok(()) => match read_response(conn) {
                    Err(e) => (e, true),
                    response => return response,
                },
            };
            if !is_connection_loss(e.kind()) {
                return Err(e);
            }
            self.conn = None;
            if written && !resend {
                return Err(e);
            }
            if Instant::now() >= deadline {
                return Err(if written {
                    e
                } else {
                    io::Error::new(
                        io::ErrorKind::NotConnected,
                        format!("request not sent: {e}"),
                    )
                });
            }
            std::thread::sleep(self.backoff.next_delay());
        }
    }

    /// `cmd=ping`: true when the daemon answers.
    pub fn ping(&mut self) -> io::Result<bool> {
        let resp = self.call(&[("cmd", "ping")], true)?;
        Ok(journal::field(&resp, "pong") == Some("1"))
    }

    /// Submits a job, returning the daemon's explicit verdict. A spec
    /// with a `dedupe_key` is re-sent after a lost connection; one
    /// without is not, because a second copy could run the job twice:
    /// once its line may have reached the daemon, a lost connection is
    /// the caller's error to handle.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<Admission> {
        let owned = spec.kv_fields();
        let mut fields: Vec<(&str, &str)> = vec![("cmd", "submit")];
        fields.extend(owned.iter().map(|(k, v)| (*k, v.as_str())));
        let resp = self.call(&fields, !spec.dedupe_key.is_empty())?;
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
        let resp = self.call(&[("cmd", "status"), ("job_id", &id.to_string())], true)?;
        parse_status(&resp)
    }

    /// `cmd=wait`: blocks (server-side) until the job settles or
    /// `timeout` elapses, returning the status either way. The retry
    /// deadline still bounds the whole operation.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> io::Result<JobStatus> {
        let timeout_ms = timeout.as_millis().to_string();
        let resp = self.call(
            &[
                ("cmd", "wait"),
                ("job_id", &id.to_string()),
                ("timeout_ms", &timeout_ms),
            ],
            true,
        )?;
        parse_status(&resp)
    }

    /// `cmd=cancel`: requests cooperative cancellation (a second request
    /// changes nothing).
    pub fn cancel(&mut self, id: u64) -> io::Result<JobStatus> {
        let resp = self.call(&[("cmd", "cancel"), ("job_id", &id.to_string())], true)?;
        parse_status(&resp)
    }

    /// `cmd=health`: the coarse liveness fields.
    pub fn health(&mut self) -> io::Result<Vec<(String, String)>> {
        self.call(&[("cmd", "health")], true)
    }

    /// `cmd=stats`: the full ledger snapshot as decoded fields.
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        self.call(&[("cmd", "stats")], true)
    }

    /// `cmd=shutdown`: stops the daemon; the response arrives after the
    /// stop completes. Never re-sent once written, and a connection that
    /// dies after the write counts as success: a stopping `droidsimd`
    /// process may exit before its handler thread flushes the response
    /// line, and the daemon going away is exactly what was asked for.
    pub fn shutdown(&mut self, mode: ShutdownMode) -> io::Result<()> {
        let result = match self.call(&[("cmd", "shutdown"), ("mode", mode.name())], false) {
            Ok(resp) if journal::field(&resp, "result") == Some("stopped") => Ok(()),
            Ok(resp) => Err(bad_response(&render(&resp))),
            Err(e) if is_connection_loss(e.kind()) => Ok(()),
            Err(e) => Err(e),
        };
        self.conn = None;
        result
    }
}

/// Writes one request line in one `write_all`: when it fails, the
/// newline never left, so the daemon cannot have read the request.
fn send_line(stream: &mut UnixStream, fields: &[(&str, &str)]) -> io::Result<()> {
    let mut line = journal::encode_line(fields);
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// One response line in, decoded.
fn read_response(conn: &mut BufReader<UnixStream>) -> io::Result<Vec<(String, String)>> {
    let mut response = String::new();
    if conn.read_line(&mut response)? == 0 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig, JobControl, JobExecutor, JobVerdict};
    use crate::server::{serve_with, ServerConfig};
    use crate::spec::JobKind;
    use crate::IoFaults;
    use droidsim_faults::{FaultPlan, FaultSite};
    use droidsim_metrics::FleetLedger;
    use std::sync::Arc;

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

    /// Settles every job at once.
    struct Settle;

    impl JobExecutor for Settle {
        fn execute(&self, spec: &JobSpec, _ctl: &JobControl) -> JobVerdict {
            JobVerdict::Done {
                digest: spec.seed,
                fleet: FleetLedger::new(),
            }
        }
    }

    /// Waits until the server has closed `client`'s kept connection: its
    /// end then reads EOF.
    fn wait_until_closed_by_server(client: &mut Client) {
        let conn = client.conn.as_mut().expect("a kept connection");
        conn.get_ref()
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !matches!(conn.fill_buf(), Ok([])) {
            assert!(Instant::now() < deadline, "the server kept the connection");
        }
    }

    #[test]
    fn a_lost_ack_resends_a_keyed_submit_but_never_an_unkeyed_one() {
        let dir = std::env::temp_dir().join(format!("droidsimd-client-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("droidsimd.sock");
        // The first and third responses are lost: the daemon acts on the
        // request, then drops the connection before answering. A kept
        // connection idle for 200 ms is closed by the read timeout.
        let faults = IoFaults::new(
            FaultPlan::seeded(1)
                .on_nth_probe(FaultSite::SocketWrite, 1)
                .on_nth_probe(FaultSite::SocketWrite, 3),
        );
        let daemon = Arc::new(Daemon::start(DaemonConfig::new(), Settle).unwrap());
        let server = {
            let daemon = Arc::clone(&daemon);
            let socket = socket.clone();
            let cfg = ServerConfig::new()
                .with_io_faults(faults)
                .with_read_timeout(Duration::from_millis(200));
            std::thread::spawn(move || serve_with(&daemon, &socket, cfg))
        };
        let mut client = Client::new(&socket).with_deadline(Duration::from_secs(5));

        let spec = JobSpec::new(JobKind::Fig10);
        let err = client
            .submit(&spec)
            .expect_err("an unkeyed submit whose ack was lost is not re-sent");
        assert!(is_connection_loss(err.kind()), "{err}");
        let stats = client.stats().unwrap();
        assert_eq!(journal::field(&stats, "accepted"), Some("1"), "sent once");

        let keyed = spec.with_tag("keyed").with_dedupe_key("k");
        let id = match client.submit(&keyed).unwrap() {
            Admission::Duplicate { id } => id,
            other => panic!("the re-sent keyed submit meets its first copy: {other:?}"),
        };
        assert_eq!(client.status(id).unwrap().tag, "keyed");
        let stats = client.stats().unwrap();
        assert_eq!(
            journal::field(&stats, "accepted"),
            Some("2"),
            "one job per key"
        );
        assert_eq!(journal::field(&stats, "dedupe_hits"), Some("1"));

        // A write to a connection the server already closed fails, so
        // the daemon never read the line: even an unkeyed submit is sent
        // again, on a fresh connection.
        wait_until_closed_by_server(&mut client);
        assert!(matches!(
            client.submit(&JobSpec::new(JobKind::Fig10)).unwrap(),
            Admission::Accepted { .. }
        ));
        let stats = client.stats().unwrap();
        assert_eq!(journal::field(&stats, "accepted"), Some("3"));
        // Without a deadline the failed write is an error that says so,
        // and a `shutdown` that was never sent is no success.
        let mut once = Client::new(&socket);
        assert!(once.ping().unwrap());
        wait_until_closed_by_server(&mut once);
        let err = once.shutdown(ShutdownMode::Drain).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected, "{err}");
        assert!(!daemon.is_stopped());

        client.shutdown(ShutdownMode::Drain).unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

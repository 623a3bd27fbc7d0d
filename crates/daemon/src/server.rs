//! The Unix-socket front of the daemon: one `key=value` request line
//! in, one response line out.
//!
//! The transport is deliberately as primitive as the journals: a local
//! `SOCK_STREAM` Unix socket carrying newline-delimited records in the
//! kernel's `key=value` codec. Any shell can drive it (`nc -U`), the
//! [`Client`](crate::client::Client) wraps it, and every request is
//! answered — malformed lines get `ok=false error=…` responses, never
//! a dropped connection.
//!
//! | request                              | response                                      |
//! |--------------------------------------|-----------------------------------------------|
//! | `cmd=ping`                           | `ok=true pong=1`                              |
//! | `cmd=submit job=… seed=… [dedupe=…]` | `ok=true result=accepted job_id=… queue_depth=…`, `result=rejected reason=…`, or `result=duplicate job_id=…` |
//! | `cmd=status job_id=…`                | `ok=true job_id=… state=… [digest=…] [reason=…]` |
//! | `cmd=wait job_id=… [timeout_ms=…]`   | like `status`, plus `result=settled`/`timeout` |
//! | `cmd=cancel job_id=…`                | like `status`                                 |
//! | `cmd=health`                         | `ok=true state=running\|draining\|degraded\|stopped` + journal/queue fields |
//! | `cmd=stats`                          | `ok=true` + the full daemon ledger + inflation-cache counters + fleet fingerprint |
//! | `cmd=shutdown [mode=drain\|now]`     | `ok=true result=stopped` (after stopping)     |
//!
//! A **connection governor** keeps a hostile or broken client from
//! taking the edge down ([`ServerConfig`]): a per-connection read
//! timeout closes stalled connections (slowloris defense), request
//! lines are read through a bounded buffer so a newline-less stream
//! cannot exhaust memory (`error=line-too-long`, then close), and a
//! concurrent-connection cap answers overflow with an explicit
//! `error=too-many-connections` instead of an unbounded thread pile.
//! Every governor action is visible in `cmd=stats`
//! (`conns_rejected`, `slowloris_closed`).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use droidsim_faults::FaultSite;
use droidsim_kernel::{journal, memo};

use crate::daemon::{Admission, Daemon, ShutdownMode};
use crate::faultio::IoFaults;
use crate::spec::JobSpec;
use crate::DaemonError;

/// Default `cmd=wait` timeout when the request names none.
pub const DEFAULT_WAIT_MS: u64 = 60_000;

/// The connection governor's knobs (see module docs).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection read timeout: a connection that produces no bytes
    /// for this long is closed (counted in `slowloris_closed`).
    pub read_timeout: Duration,
    /// Longest request line accepted, in bytes. Longer (or endless,
    /// newline-less) streams get `error=line-too-long` and a close.
    pub max_line_bytes: usize,
    /// Concurrent-connection cap. Connection `max_conns + 1` is
    /// answered `error=too-many-connections` and closed.
    pub max_conns: usize,
    /// Server-side clamp on `cmd=wait timeout_ms=…`: no client can park
    /// a handler thread longer than this.
    pub max_wait_ms: u64,
    /// Socket fault shim ([`FaultSite::SocketRead`] /
    /// [`FaultSite::SocketWrite`]): an injected hit drops the
    /// connection cold — before reading a request, or after processing
    /// it but before the response (a lost ack). Disarmed by default.
    pub io_faults: IoFaults,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            max_line_bytes: 8192,
            max_conns: 64,
            max_wait_ms: 300_000,
            io_faults: IoFaults::disarmed(),
        }
    }
}

impl ServerConfig {
    /// The defaults: 10 s read timeout, 8 KiB lines, 64 connections,
    /// 300 s wait clamp, no fault injection.
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Sets the per-connection read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the request-line length bound.
    pub fn with_max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes;
        self
    }

    /// Sets the concurrent-connection cap.
    pub fn with_max_conns(mut self, conns: usize) -> Self {
        self.max_conns = conns;
        self
    }

    /// Sets the server-side `cmd=wait` clamp.
    pub fn with_max_wait_ms(mut self, ms: u64) -> Self {
        self.max_wait_ms = ms;
        self
    }

    /// Installs a socket fault shim (share the handle with
    /// [`DaemonConfig::with_io_faults`](crate::daemon::DaemonConfig::with_io_faults)
    /// so journal and socket chaos draw one schedule).
    pub fn with_io_faults(mut self, io: IoFaults) -> Self {
        self.io_faults = io;
        self
    }
}

/// One claimed slot under the connection cap; released on drop, so a
/// handler thread can never leak its slot however it exits.
struct ConnSlot {
    active: Arc<AtomicUsize>,
}

impl ConnSlot {
    fn claim(active: &Arc<AtomicUsize>, cap: usize) -> Option<ConnSlot> {
        if active.fetch_add(1, Ordering::AcqRel) >= cap {
            active.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(ConnSlot {
            active: Arc::clone(active),
        })
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Serves `daemon` on `socket_path` with the default [`ServerConfig`]
/// until the daemon stops. A stale socket file (a previous life that
/// died hard) is replaced. Each connection gets its own thread; a
/// connection may issue any number of requests.
pub fn serve(daemon: &Arc<Daemon>, socket_path: &Path) -> Result<(), DaemonError> {
    serve_with(daemon, socket_path, ServerConfig::default())
}

/// [`serve`] with explicit governor knobs.
pub fn serve_with(
    daemon: &Arc<Daemon>,
    socket_path: &Path,
    cfg: ServerConfig,
) -> Result<(), DaemonError> {
    if socket_path.exists() {
        std::fs::remove_file(socket_path)?;
    }
    let listener = UnixListener::bind(socket_path)?;
    listener.set_nonblocking(true)?;
    let cfg = Arc::new(cfg);
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        match listener.accept() {
            Ok((stream, _)) => match ConnSlot::claim(&active, cfg.max_conns) {
                Some(slot) => {
                    let daemon = Arc::clone(daemon);
                    let cfg = Arc::clone(&cfg);
                    std::thread::spawn(move || handle_connection(&daemon, stream, &cfg, slot));
                }
                None => {
                    // Over the cap: answer explicitly, then close. The
                    // refusal costs one write on the accept loop, not a
                    // thread.
                    daemon.note_conn_rejected();
                    let mut stream = stream;
                    let _ = writeln!(
                        stream,
                        "{}",
                        journal::encode_line(&error_response("too-many-connections"))
                    );
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if daemon.is_stopped() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                let _ = std::fs::remove_file(socket_path);
                return Err(DaemonError::Io(e));
            }
        }
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// How one bounded line read ended.
enum BoundedRead {
    /// A complete line (without the newline), lossily decoded — invalid
    /// UTF-8 flows on to the codec, which answers `malformed-request`
    /// rather than the connection dying silently.
    Line(String),
    /// The line outgrew the bound before a newline arrived.
    TooLong,
    /// No bytes within the read timeout.
    TimedOut,
    /// EOF (possibly mid-line: a truncated request gets no response).
    Closed,
    /// Any other I/O failure.
    Failed,
}

/// Reads one newline-terminated line without ever buffering more than
/// `max` bytes — the reason `BufReader::read_line` is not used here: it
/// grows its `String` without bound on a newline-less stream.
fn read_bounded_line(reader: &mut BufReader<UnixStream>, max: usize) -> BoundedRead {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return BoundedRead::Closed,
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Unix-socket read timeouts surface as WouldBlock.
                return BoundedRead::TimedOut;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return BoundedRead::Failed,
        };
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > max {
                return BoundedRead::TooLong;
            }
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            return BoundedRead::Line(String::from_utf8_lossy(&buf).into_owned());
        }
        let len = chunk.len();
        if buf.len() + len > max {
            return BoundedRead::TooLong;
        }
        buf.extend_from_slice(chunk);
        reader.consume(len);
    }
}

fn handle_connection(
    daemon: &Arc<Daemon>,
    stream: UnixStream,
    cfg: &ServerConfig,
    _slot: ConnSlot,
) {
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err() {
        return;
    }
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        if cfg.io_faults.should_inject(FaultSite::SocketRead) {
            return; // injected reset: the connection dies cold
        }
        let line = match read_bounded_line(&mut reader, cfg.max_line_bytes) {
            BoundedRead::Line(line) => line,
            BoundedRead::TooLong => {
                let _ = writeln!(
                    write_half,
                    "{}",
                    journal::encode_line(&error_response("line-too-long"))
                );
                return;
            }
            BoundedRead::TimedOut => {
                daemon.note_slowloris();
                return;
            }
            BoundedRead::Closed | BoundedRead::Failed => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match journal::decode_line(&line) {
            Some(fields) => dispatch(daemon, &fields, cfg.max_wait_ms),
            None => error_response("malformed-request"),
        };
        if cfg.io_faults.should_inject(FaultSite::SocketWrite) {
            return; // injected reset after processing: a lost ack
        }
        if writeln!(write_half, "{}", journal::encode_line(&response)).is_err() {
            return;
        }
        let _ = write_half.flush();
    }
}

fn error_response(error: &str) -> Vec<(&'static str, String)> {
    vec![("ok", "false".to_owned()), ("error", error.to_owned())]
}

fn status_response(daemon: &Daemon, id: Option<u64>) -> Vec<(&'static str, String)> {
    let Some(id) = id else {
        return error_response("missing-job-id");
    };
    match daemon.status(id) {
        Some(status) => {
            let mut out = vec![("ok", "true".to_owned())];
            out.extend(status.kv_fields());
            out
        }
        None => error_response("unknown-job"),
    }
}

/// Routes one decoded request to the daemon and renders the response
/// fields; `max_wait_ms` is the server-side clamp on `cmd=wait`.
/// Public within the crate so in-process tests can drive the protocol
/// without a socket.
pub(crate) fn dispatch(
    daemon: &Daemon,
    fields: &[(String, String)],
    max_wait_ms: u64,
) -> Vec<(&'static str, String)> {
    let id = journal::field(fields, "job_id").and_then(|v| v.parse::<u64>().ok());
    match journal::field(fields, "cmd") {
        Some("ping") => vec![("ok", "true".to_owned()), ("pong", "1".to_owned())],
        Some("submit") => match JobSpec::from_fields(fields) {
            Ok(spec) => match daemon.submit(spec) {
                Admission::Accepted { id, queue_depth } => vec![
                    ("ok", "true".to_owned()),
                    ("result", "accepted".to_owned()),
                    ("job_id", id.to_string()),
                    ("queue_depth", queue_depth.to_string()),
                ],
                Admission::Rejected { reason } => vec![
                    ("ok", "true".to_owned()),
                    ("result", "rejected".to_owned()),
                    ("reason", reason),
                ],
                Admission::Duplicate { id } => {
                    let mut out = vec![
                        ("ok", "true".to_owned()),
                        ("result", "duplicate".to_owned()),
                        ("job_id", id.to_string()),
                    ];
                    // The original's current state rides along, so a
                    // retrying client learns the outcome in one round.
                    if let Some(status) = daemon.status(id) {
                        out.extend(status.state.kv_fields());
                    }
                    out
                }
            },
            Err(e) => {
                let mut out = error_response("bad-spec");
                out.push(("detail", e));
                out
            }
        },
        Some("status") => status_response(daemon, id),
        Some("wait") => {
            let Some(id) = id else {
                return error_response("missing-job-id");
            };
            // Clamped: a client asking for u64::MAX parks the handler
            // for max_wait_ms, not forever.
            let timeout_ms = journal::field(fields, "timeout_ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_WAIT_MS)
                .min(max_wait_ms);
            match daemon.wait(id, Duration::from_millis(timeout_ms)) {
                Some(status) => {
                    let mut out = vec![
                        ("ok", "true".to_owned()),
                        (
                            "result",
                            if status.state.is_terminal() {
                                "settled".to_owned()
                            } else {
                                "timeout".to_owned()
                            },
                        ),
                    ];
                    out.extend(status.kv_fields());
                    out
                }
                None => error_response("unknown-job"),
            }
        }
        Some("cancel") => {
            let Some(id) = id else {
                return error_response("missing-job-id");
            };
            match daemon.cancel(id) {
                Some(status) => {
                    let mut out = vec![("ok", "true".to_owned())];
                    out.extend(status.kv_fields());
                    out
                }
                None => error_response("unknown-job"),
            }
        }
        Some("health") => {
            let stats = daemon.stats();
            let mut out = vec![("ok", "true".to_owned())];
            out.extend(daemon.health_fields());
            out.push(("workers", stats.workers.to_string()));
            out.push(("queue_capacity", stats.queue_capacity.to_string()));
            out.push(("queue_depth", stats.ledger.queue_depth.to_string()));
            out
        }
        Some("stats") => {
            let stats = daemon.stats();
            let mut out = vec![("ok", "true".to_owned())];
            out.extend(stats.ledger.kv_fields());
            // Inflation-cache telemetry: the app processes of every job
            // count into one process-wide tally, so a live capture is the
            // worker pool's hit/miss picture and the trees its running
            // jobs keep. `memo_inflate` packs hits/misses/evictions/entries.
            let memo = &memo::snapshot_all()[0];
            out.extend([
                ("memo_hits", memo.hits.to_string()),
                ("memo_misses", memo.misses.to_string()),
                ("memo_evictions", memo.evictions.to_string()),
                ("memo_bytes", memo.bytes.to_string()),
                (
                    "memo_inflate",
                    format!(
                        "{}/{}/{}/{}",
                        memo.hits, memo.misses, memo.evictions, memo.entries
                    ),
                ),
            ]);
            out.push(("workers", stats.workers.to_string()));
            out.push(("queue_capacity", stats.queue_capacity.to_string()));
            out.push(("fleet", stats.fleet.deterministic_fingerprint()));
            out
        }
        Some("shutdown") => {
            let mode = journal::field(fields, "mode")
                .and_then(ShutdownMode::parse)
                .unwrap_or(ShutdownMode::Drain);
            daemon.shutdown(mode);
            vec![
                ("ok", "true".to_owned()),
                ("result", "stopped".to_owned()),
                ("mode", mode.name().to_owned()),
            ]
        }
        _ => error_response("unknown-cmd"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{DaemonConfig, JobControl, JobExecutor, JobVerdict};
    use crate::spec::{JobKind, JobSpec};
    use crate::Client;
    use droidsim_metrics::FleetLedger;
    use std::io::Read;
    use std::path::PathBuf;
    use std::time::Instant;

    struct EchoExecutor;

    impl JobExecutor for EchoExecutor {
        fn execute(&self, spec: &JobSpec, _ctl: &JobControl) -> JobVerdict {
            JobVerdict::Done {
                digest: spec.seed ^ 0xABCD,
                fleet: FleetLedger::new(),
            }
        }
    }

    /// An executor that blocks until cancelled — for tests that need a
    /// job which never settles on its own.
    struct ParkedExecutor;

    impl JobExecutor for ParkedExecutor {
        fn execute(&self, _spec: &JobSpec, ctl: &JobControl) -> JobVerdict {
            while !ctl.cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(2));
            }
            JobVerdict::Cancelled {
                reason: "parked".to_owned(),
            }
        }
    }

    fn scratch_socket(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("droidsimd-server-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("droidsimd.sock")
    }

    fn serve_in_background(
        daemon: &Arc<Daemon>,
        socket: &Path,
        cfg: ServerConfig,
    ) -> std::thread::JoinHandle<Result<(), DaemonError>> {
        let daemon = Arc::clone(daemon);
        let socket = socket.to_path_buf();
        std::thread::spawn(move || serve_with(&daemon, &socket, cfg))
    }

    fn raw_connect(socket: &PathBuf) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Ok(s) = UnixStream::connect(socket) {
                return s;
            }
            assert!(Instant::now() < deadline, "server socket never appeared");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn read_response(stream: &mut UnixStream) -> String {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    #[test]
    fn socket_round_trip_submit_wait_stats_shutdown() {
        let socket = scratch_socket("round-trip");
        let daemon = Arc::new(Daemon::start(DaemonConfig::new(), EchoExecutor).unwrap());
        let server = {
            let daemon = Arc::clone(&daemon);
            let socket = socket.clone();
            std::thread::spawn(move || serve(&daemon, &socket))
        };
        let mut client = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
        assert!(client.ping().unwrap());

        let spec = JobSpec::new(JobKind::Fig10)
            .with_seed(7)
            .with_tag("via socket");
        let id = match client.submit(&spec).unwrap() {
            Admission::Accepted { id, .. } => id,
            Admission::Rejected { reason } => panic!("rejected: {reason}"),
            Admission::Duplicate { id } => panic!("unexpected duplicate of {id}"),
        };
        let status = client.wait(id, Duration::from_secs(5)).unwrap();
        assert_eq!(status.state.digest(), Some(7 ^ 0xABCD));
        assert_eq!(status.tag, "via socket");

        let stats = client.stats().unwrap();
        assert_eq!(journal::field(&stats, "accepted"), Some("1"));
        assert_eq!(journal::field(&stats, "completed"), Some("1"));
        assert!(journal::field(&stats, "queue_high_water").is_some());
        assert!(journal::field(&stats, "alloc_events").is_some());
        assert!(journal::field(&stats, "dedupe_hits").is_some());
        assert!(journal::field(&stats, "fleet").is_some());

        client.shutdown(ShutdownMode::Drain).unwrap();
        server.join().unwrap().unwrap();
        assert!(!socket.exists(), "socket file is cleaned up");
    }

    /// The `cmd=stats` keys, in order, one per line (`#` lines are
    /// comments).
    const STATS_FIELDS: &str = include_str!("../../../tests/golden/daemon_stats_fields.txt");

    #[test]
    fn stats_fields_match_the_golden() {
        let socket = scratch_socket("stats-fields");
        let daemon = Arc::new(Daemon::start(DaemonConfig::new(), EchoExecutor).unwrap());
        let server = serve_in_background(&daemon, &socket, ServerConfig::new());
        let mut client = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
        let id = match client.submit(&JobSpec::new(JobKind::Fig10)).unwrap() {
            Admission::Accepted { id, .. } => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        client.wait(id, Duration::from_secs(5)).unwrap();
        let stats = client.stats().unwrap();
        client.shutdown(ShutdownMode::Drain).unwrap();
        server.join().unwrap().unwrap();

        let keys: Vec<&str> = stats.iter().map(|(k, _)| k.as_str()).collect();
        let golden: Vec<&str> = STATS_FIELDS
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        assert_eq!(keys, golden);
        // `memo_inflate` packs the inflation cache's
        // hits/misses/evictions/entries; the first three are the
        // `memo_*` totals of the same capture.
        let field = |key: &str| journal::field(&stats, key).unwrap();
        let packed: Vec<u64> = field("memo_inflate")
            .split('/')
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(packed.len(), 4, "{}", field("memo_inflate"));
        for (i, key) in ["memo_hits", "memo_misses", "memo_evictions"]
            .into_iter()
            .enumerate()
        {
            assert_eq!(packed[i].to_string(), field(key), "{key}");
        }
        assert!(
            field("fleet").starts_with("fleet[ok="),
            "{}",
            field("fleet")
        );
    }

    #[test]
    fn duplicate_submits_over_the_socket_return_the_original_id() {
        let socket = scratch_socket("duplicate");
        let daemon = Arc::new(Daemon::start(DaemonConfig::new(), EchoExecutor).unwrap());
        let server = serve_in_background(&daemon, &socket, ServerConfig::new());
        let mut client = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
        let spec = JobSpec::new(JobKind::Fig10)
            .with_seed(9)
            .with_dedupe_key("dup-key");
        let id = match client.submit(&spec).unwrap() {
            Admission::Accepted { id, .. } => id,
            other => panic!("expected acceptance, got {other:?}"),
        };
        match client.submit(&spec).unwrap() {
            Admission::Duplicate { id: dup } => assert_eq!(dup, id),
            other => panic!("expected duplicate, got {other:?}"),
        }
        client.shutdown(ShutdownMode::Drain).unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn connection_cap_answers_too_many_connections() {
        let socket = scratch_socket("conn-cap");
        let daemon = Arc::new(Daemon::start(DaemonConfig::new(), EchoExecutor).unwrap());
        let server = serve_in_background(&daemon, &socket, ServerConfig::new().with_max_conns(1));
        // First connection holds its slot (and proves it works)…
        let mut held = Client::connect_retry(&socket, Duration::from_secs(5)).unwrap();
        assert!(held.ping().unwrap());
        // …so the second is refused explicitly.
        let mut refused = raw_connect(&socket);
        let line = read_response(&mut refused);
        assert!(line.contains("error=too-many-connections"), "got {line:?}");
        // The refusal is observable, and releasing the held slot
        // re-opens the door.
        assert!(daemon.stats().ledger.conns_rejected >= 1);
        drop(held);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut retry = raw_connect(&socket);
            writeln!(retry, "cmd=ping").unwrap();
            if read_response(&mut retry).contains("pong=1") {
                break;
            }
            assert!(Instant::now() < deadline, "slot never freed");
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon.shutdown(ShutdownMode::Drain);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn stalled_connections_are_closed_by_the_read_timeout() {
        let socket = scratch_socket("slowloris");
        let daemon = Arc::new(Daemon::start(DaemonConfig::new(), EchoExecutor).unwrap());
        let server = serve_in_background(
            &daemon,
            &socket,
            ServerConfig::new().with_read_timeout(Duration::from_millis(50)),
        );
        // Connect, send a *partial* line, then stall.
        let mut stalled = raw_connect(&socket);
        stalled.write_all(b"cmd=pi").unwrap();
        stalled.flush().unwrap();
        // The server closes us: the next read returns EOF.
        let mut buf = Vec::new();
        stalled
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = stalled.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "no response to a stalled half-request");
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon.stats().ledger.slowloris_closed == 0 {
            assert!(Instant::now() < deadline, "timeout close never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.shutdown(ShutdownMode::Drain);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_and_non_utf8_lines_get_exactly_one_error() {
        let socket = scratch_socket("governor-lines");
        let daemon = Arc::new(Daemon::start(DaemonConfig::new(), EchoExecutor).unwrap());
        let server = serve_in_background(
            &daemon,
            &socket,
            ServerConfig::new().with_max_line_bytes(64),
        );
        // A newline-less flood larger than the bound: one explicit
        // error, then the connection is closed (bounded memory, no
        // panic).
        let mut flood = raw_connect(&socket);
        flood.write_all(&[b'a'; 4096]).unwrap();
        flood.flush().unwrap();
        let line = read_response(&mut flood);
        assert!(line.contains("error=line-too-long"), "got {line:?}");
        let mut rest = Vec::new();
        flood
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(flood.read_to_end(&mut rest).unwrap_or(0), 0, "then EOF");
        // Invalid UTF-8 inside a normal-sized line: answered, not
        // dropped.
        let mut garbled = raw_connect(&socket);
        garbled.write_all(b"\xff\xfe\xfa garbage\n").unwrap();
        garbled.flush().unwrap();
        let line = read_response(&mut garbled);
        assert!(line.contains("ok=false"), "got {line:?}");
        daemon.shutdown(ShutdownMode::Drain);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn wait_timeouts_are_clamped_server_side() {
        let daemon = Daemon::start(DaemonConfig::new().with_workers(1), ParkedExecutor).unwrap();
        let submit = journal::decode_line("cmd=submit job=fig10").unwrap();
        let resp = dispatch(&daemon, &submit, 50);
        let id: u64 = resp
            .iter()
            .find(|(k, _)| *k == "job_id")
            .unwrap()
            .1
            .parse()
            .unwrap();
        // The request asks for (effectively) forever; the clamp answers
        // in ~50 ms with an honest result=timeout.
        let req =
            journal::decode_line(&format!("cmd=wait job_id={id} timeout_ms={}", u64::MAX)).unwrap();
        let started = Instant::now();
        let resp = dispatch(&daemon, &req, 50);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "clamp must bound the park"
        );
        assert!(resp.iter().any(|(k, v)| *k == "result" && v == "timeout"));
        daemon.cancel(id);
        daemon.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn health_reports_the_state_machine_and_journal_fields() {
        let daemon = Daemon::start(DaemonConfig::new(), EchoExecutor).unwrap();
        let req = journal::decode_line("cmd=health").unwrap();
        let resp = dispatch(&daemon, &req, DEFAULT_WAIT_MS);
        let find = |key: &str| {
            resp.iter()
                .find(|(k, _)| *k == key)
                .map_or_else(|| panic!("missing {key}"), |(_, v)| v.clone())
        };
        assert_eq!(find("state"), "running");
        assert_eq!(find("journal"), "disabled");
        assert_eq!(find("journal_degraded"), "false");
        assert_eq!(find("journal_backlog"), "0");
        daemon.shutdown(ShutdownMode::Drain);
        let resp = dispatch(&daemon, &req, DEFAULT_WAIT_MS);
        assert!(resp.iter().any(|(k, v)| *k == "state" && v == "stopped"));
    }

    #[test]
    fn malformed_and_unknown_requests_get_explicit_errors() {
        let daemon = Daemon::start(DaemonConfig::new(), EchoExecutor).unwrap();
        let bad = journal::decode_line("cmd=warp job_id=1").unwrap();
        let resp = dispatch(&daemon, &bad, DEFAULT_WAIT_MS);
        assert_eq!(resp[0].1, "false");
        let unknown = journal::decode_line("cmd=status job_id=999").unwrap();
        let resp = dispatch(&daemon, &unknown, DEFAULT_WAIT_MS);
        assert!(resp
            .iter()
            .any(|(k, v)| *k == "error" && v == "unknown-job"));
        let no_id = journal::decode_line("cmd=wait").unwrap();
        let resp = dispatch(&daemon, &no_id, DEFAULT_WAIT_MS);
        assert!(resp
            .iter()
            .any(|(k, v)| *k == "error" && v == "missing-job-id"));
        daemon.shutdown(ShutdownMode::Drain);
    }
}

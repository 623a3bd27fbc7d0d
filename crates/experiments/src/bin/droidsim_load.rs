//! `droidsim-load` — the daemon's load generator and verification
//! client.
//!
//! ```text
//! droidsim-load [--socket PATH] [--total N] [--clients N]
//!               [--job table5|fault-matrix] [--size N] [--rate-pct N]
//!               [--seed N] [--distinct N] [--inner-jobs N]
//!               [--mixed-priorities] [--wait-ms N] [--reconnect-ms N]
//!               [--chaos-drop-pct N] [--no-verify]
//!               [--shutdown drain|now] [--version]
//! ```
//!
//! Submits `--total` jobs (default: **2× the daemon's queue capacity**,
//! queried over `cmd=health`; `0` submits none) from `--clients`
//! concurrent connections, then waits for every acknowledged job to
//! settle and audits the daemon's zero-silent-drop contract. A zero
//! `--clients`, `--size`, `--distinct` or `--inner-jobs` is a usage
//! error. The audit:
//!
//! * every submission got an explicit answer — `accepted` or
//!   `rejected reason=…`;
//! * every acknowledged job reached a terminal state (a daemon kill and
//!   restart in the middle is fine: the client reconnects and the
//!   restarted daemon must resume the acknowledged backlog);
//! * unless `--no-verify`, every `done` digest equals the jobs=1
//!   reference run of the same spec, computed in-process.
//!
//! The summary reports p50/p95/p99 submit-to-done latency over the
//! jobs that completed — the operator-facing number a warm daemon is
//! supposed to improve. `DROIDSIM_NO_MEMO=1` turns off the app
//! processes' inflation caches for the *in-process* reference-digest
//! computation (the daemon process reads its own environment); digests
//! must match either way.
//!
//! The client fan-out claims job indices through the same
//! `run_claiming_pool` skeleton the fleet drivers use. With
//! `--mixed-priorities` submissions cycle low/normal/high, which under
//! a full queue exercises displacement (`shed` is then an accepted
//! outcome); the default uniform-normal load tolerates no shedding.
//!
//! **Chaos arm.** Every submission carries a `dedupe_key`
//! (`load-<seed>-<index>`), and every client retries until
//! `--reconnect-ms`, so a daemon restart or injected socket reset
//! mid-burst is survived transparently. With `--chaos-drop-pct N`, a
//! deterministic N % of indices first *lose their own ack* — submit,
//! drop the connection before reading the response — then blindly
//! resubmit; the answer must be `accepted` or `duplicate` of exactly
//! one job id. The audit additionally asserts no two indices share a
//! job id: zero lost, zero duplicated. On exit the daemon's
//! `cmd=health` line is printed, showing which state
//! (`running|draining|degraded|stopped`) the chaos left it in.
//!
//! Exit codes: 0 — contract held; 1 — a violation (silent drop, lost
//! acknowledgement, duplicated execution, digest mismatch); 2 — usage
//! error.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use droidsim_daemon::{Admission, Client, JobKind, JobSpec, JobState, Priority, ShutdownMode};
use droidsim_fleet::run_claiming_pool;
use droidsim_kernel::SplitMix64;
use rch_experiments::{daemon_exec::reference_digest, Args};

#[derive(Debug, PartialEq)]
struct LoadCli {
    socket: PathBuf,
    total: Option<usize>,
    clients: usize,
    job: String,
    size: usize,
    rate_pct: u8,
    seed: u64,
    distinct: usize,
    inner_jobs: usize,
    mixed_priorities: bool,
    wait_ms: u64,
    reconnect_ms: u64,
    chaos_drop_pct: u8,
    verify: bool,
    shutdown: Option<ShutdownMode>,
}

fn parse_cli(args: &mut Args) -> Result<LoadCli, String> {
    Ok(LoadCli {
        socket: args
            .value("--socket")?
            .unwrap_or_else(|| PathBuf::from("droidsimd.sock")),
        total: args.value("--total")?,
        clients: args.count("--clients")?.unwrap_or(4),
        job: args
            .choice("--job", &["table5", "fault-matrix"])?
            .unwrap_or("table5")
            .to_owned(),
        size: args.count("--size")?.unwrap_or(4),
        rate_pct: args.percent("--rate-pct")?.unwrap_or(5),
        seed: args.value("--seed")?.unwrap_or(0x10AD),
        distinct: args.count("--distinct")?.unwrap_or(4),
        inner_jobs: args.count("--inner-jobs")?.unwrap_or(1),
        mixed_priorities: args.switch("--mixed-priorities")?,
        wait_ms: args.value("--wait-ms")?.unwrap_or(120_000),
        reconnect_ms: args.value("--reconnect-ms")?.unwrap_or(30_000),
        chaos_drop_pct: args.percent("--chaos-drop-pct")?.unwrap_or(0),
        verify: !args.switch("--no-verify")?,
        shutdown: args
            .choice("--shutdown", &["drain", "now"])?
            .and_then(ShutdownMode::parse),
    })
}

/// What one submission ended as, from the client's ledger.
enum Slot {
    /// Explicitly rejected with the daemon's reason.
    Rejected(String),
    /// Acknowledged; terminal state not yet observed.
    Accepted(u64),
    /// Acknowledged and settled.
    Settled(u64, JobState),
    /// The contract was violated for this index.
    Violation(String),
}

fn spec_for(cli: &LoadCli, index: usize) -> JobSpec {
    let kind = if cli.job == "fault-matrix" {
        JobKind::FaultMatrix {
            tasks: cli.size,
            rate_pct: cli.rate_pct,
        }
    } else {
        JobKind::Table5 { apps: cli.size }
    };
    let mut spec = JobSpec::new(kind)
        .with_seed(cli.seed + (index % cli.distinct) as u64)
        .with_tag(format!("load-{index}"))
        // Every submission is idempotent-keyed, so any retry schedule
        // (lost acks, daemon restarts) converges on one execution.
        .with_dedupe_key(format!("load-{:x}-{index}", cli.seed));
    spec.inner_jobs = cli.inner_jobs;
    if cli.mixed_priorities {
        spec = spec.with_priority(Priority::ALL[index % Priority::ALL.len()]);
    }
    spec
}

/// Deterministic per-index chaos decision: one SplitMix64 draw seeded
/// from (seed, index), so the same seed replays the same drop schedule.
fn chaos_hits(seed: u64, index: usize, pct: u8) -> bool {
    let stream = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index as u64 + 1));
    pct > 0 && SplitMix64::new(stream).next_u64() % 100 < u64::from(pct)
}

/// A client that rides out lost connections until `--reconnect-ms`.
fn client(cli: &LoadCli) -> Client {
    Client::new(&cli.socket).with_deadline(Duration::from_millis(cli.reconnect_ms))
}

fn main() {
    let cli = Args::cli(parse_cli);
    // Size the burst off the daemon's own capacity: 2x forces the
    // admission path to answer under overload.
    let health = client(&cli).health().unwrap_or_else(|e| {
        eprintln!("error: connect {}: {e}", cli.socket.display());
        std::process::exit(2);
    });
    let capacity = num_field(&health, "queue_capacity").unwrap_or(16);
    let total = cli.total.unwrap_or(capacity * 2);

    // The jobs=1 references, one per distinct seed, computed before the
    // burst so the comparison window contains only daemon work.
    let references: Vec<Option<u64>> = (0..cli.distinct)
        .map(|d| {
            if !cli.verify {
                return None;
            }
            match reference_digest(&spec_for(&cli, d)) {
                Ok(digest) => Some(digest),
                Err(e) => {
                    eprintln!("error: reference digest (seed offset {d}): {e}");
                    std::process::exit(2);
                }
            }
        })
        .collect();

    println!(
        "droidsim-load: {total} x {} (size {}, {} distinct seed(s)) via {} client(s) -> {}",
        cli.job,
        cli.size,
        cli.distinct,
        cli.clients,
        cli.socket.display()
    );

    // Submit burst: client threads claim index chunks through the same
    // pool skeleton the fleet drivers use. The submit instant per index
    // anchors the submit-to-done latency the summary reports.
    let slots: Vec<Mutex<Option<Slot>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let submitted_at: Vec<Mutex<Option<Instant>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let dedupe_converged = std::sync::atomic::AtomicUsize::new(0);
    run_claiming_pool(cli.clients, total, |range| {
        let mut rc = client(&cli);
        for i in range {
            let spec = spec_for(&cli, i);
            let sent = Instant::now();
            // Chaos arm: lose our own ack — the daemon hears the
            // submit, we never read the answer — then blindly resubmit
            // the same dedupe key.
            let mut ack_lost = false;
            if chaos_hits(cli.seed, i, cli.chaos_drop_pct) {
                let owned = spec.kv_fields();
                let mut fields: Vec<(&str, &str)> = vec![("cmd", "submit")];
                fields.extend(owned.iter().map(|(k, v)| (*k, v.as_str())));
                ack_lost = rc.send_and_drop(&fields).is_ok();
            }
            let slot = match rc.submit(&spec) {
                Ok(Admission::Accepted { id, .. }) => {
                    *submitted_at[i].lock().unwrap() = Some(sent);
                    Slot::Accepted(id)
                }
                Ok(Admission::Duplicate { id }) => {
                    // An earlier submit of this key landed without its
                    // ack: either our deliberate chaos drop, or the
                    // client re-sending after an injected
                    // socket fault ate the response. Either way this is
                    // the dedupe contract working — and the id-owner
                    // audit below still catches any cross-index
                    // conflation.
                    dedupe_converged.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    *submitted_at[i].lock().unwrap() = Some(sent);
                    Slot::Accepted(id)
                }
                Ok(Admission::Rejected { reason }) => {
                    if ack_lost {
                        // The lost-ack submit may still have been
                        // accepted before the rejection (e.g. the queue
                        // filled in between): ask the daemon once more.
                        match rc.submit(&spec) {
                            Ok(Admission::Accepted { id, .. }) => {
                                *submitted_at[i].lock().unwrap() = Some(sent);
                                Slot::Accepted(id)
                            }
                            Ok(Admission::Duplicate { id }) => {
                                dedupe_converged.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                *submitted_at[i].lock().unwrap() = Some(sent);
                                Slot::Accepted(id)
                            }
                            _ => Slot::Rejected(reason),
                        }
                    } else {
                        Slot::Rejected(reason)
                    }
                }
                Err(e) => Slot::Violation(format!("no answer to submit: {e}")),
            };
            *slots[i].lock().unwrap() = Some(slot);
        }
    });

    // Settle phase: poll every acknowledged job to a terminal state,
    // riding out a daemon kill/restart via reconnection. The elapsed
    // time from the submit instant to the terminal observation is the
    // per-job submit-to-done latency.
    let settled_after: Vec<Mutex<Option<Duration>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    run_claiming_pool(cli.clients, total, |range| {
        let mut rc = client(&cli);
        for i in range {
            let id = match slots[i].lock().unwrap().as_ref() {
                Some(Slot::Accepted(id)) => *id,
                _ => continue,
            };
            let deadline = Instant::now() + Duration::from_millis(cli.wait_ms);
            let settled = loop {
                let status = rc.wait(id, Duration::from_millis(2_000));
                match status {
                    Ok(s) if s.state.is_terminal() => {
                        if let Some(sent) = *submitted_at[i].lock().unwrap() {
                            *settled_after[i].lock().unwrap() = Some(sent.elapsed());
                        }
                        break Slot::Settled(id, s.state);
                    }
                    Ok(_) if Instant::now() >= deadline => {
                        break Slot::Violation(format!(
                            "job {id}: acknowledged but unsettled after {} ms",
                            cli.wait_ms
                        ));
                    }
                    Ok(_) => {}
                    Err(e) => break Slot::Violation(format!("job {id}: {e}")),
                }
            };
            *slots[i].lock().unwrap() = Some(settled);
        }
    });

    // Audit.
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut done = 0usize;
    let mut shed = 0usize;
    let mut cancelled = 0usize;
    let mut failed = 0usize;
    let mut verified = 0usize;
    let mut reject_reasons: std::collections::BTreeMap<String, usize> =
        std::collections::BTreeMap::new();
    let mut violations: Vec<String> = Vec::new();
    let mut done_latencies_ms: Vec<f64> = Vec::new();
    // Zero-duplication oracle: every acknowledged index must own a
    // distinct job id — two indices sharing one would mean the dedupe
    // map conflated different keys.
    let mut id_owner: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for (i, slot) in slots.iter().enumerate() {
        if let Some(Slot::Accepted(id) | Slot::Settled(id, _)) = slot.lock().unwrap().as_ref() {
            if let Some(prev) = id_owner.insert(*id, i) {
                violations.push(format!(
                    "job {id}: acknowledged for both index {prev} and index {i} \
                     (duplicated execution)"
                ));
            }
        }
    }
    for (i, slot) in slots.iter().enumerate() {
        match slot.lock().unwrap().take() {
            Some(Slot::Rejected(reason)) => {
                rejected += 1;
                *reject_reasons.entry(reason).or_insert(0) += 1;
            }
            Some(Slot::Settled(id, state)) => {
                accepted += 1;
                match &state {
                    JobState::Done { digest } => {
                        done += 1;
                        if let Some(latency) = *settled_after[i].lock().unwrap() {
                            done_latencies_ms.push(latency.as_secs_f64() * 1_000.0);
                        }
                        if let Some(expect) = references[i % cli.distinct] {
                            if *digest == expect {
                                verified += 1;
                            } else {
                                violations.push(format!(
                                    "job {id}: digest {digest:016x} != jobs=1 reference {expect:016x}"
                                ));
                            }
                        }
                    }
                    JobState::Shed { reason } => {
                        shed += 1;
                        if !cli.mixed_priorities {
                            violations
                                .push(format!("job {id}: shed ({reason}) under uniform priority"));
                        }
                    }
                    JobState::Cancelled { reason } => {
                        cancelled += 1;
                        violations.push(format!("job {id}: cancelled ({reason}) by nobody"));
                    }
                    JobState::Failed { reason } => {
                        failed += 1;
                        violations.push(format!("job {id}: failed ({reason})"));
                    }
                    _ => violations.push(format!("job {id}: non-terminal state recorded")),
                }
            }
            Some(Slot::Accepted(id)) => {
                accepted += 1;
                violations.push(format!("job {id}: acknowledgement never audited"));
            }
            Some(Slot::Violation(v)) => violations.push(format!("index {i}: {v}")),
            None => violations.push(format!("index {i}: never submitted")),
        }
    }

    println!(
        "droidsim-load: accepted={accepted} rejected={rejected} | done={done} shed={shed} \
         cancelled={cancelled} failed={failed}"
    );
    let converged = dedupe_converged.load(std::sync::atomic::Ordering::Relaxed);
    if cli.chaos_drop_pct > 0 || converged > 0 {
        println!(
            "droidsim-load: chaos: {converged} lost ack(s) converged via dedupe \
             (drop-pct={})",
            cli.chaos_drop_pct
        );
    }
    if !done_latencies_ms.is_empty() {
        let p = |q: f64| droidsim_metrics::stats::percentile(&done_latencies_ms, q);
        println!(
            "droidsim-load: submit-to-done latency p50={:.1}ms p95={:.1}ms p99={:.1}ms \
             ({} sample(s))",
            p(0.50),
            p(0.95),
            p(0.99),
            done_latencies_ms.len()
        );
    }
    if !reject_reasons.is_empty() {
        let reasons: Vec<String> = reject_reasons
            .iter()
            .map(|(r, n)| format!("{r}={n}"))
            .collect();
        println!("droidsim-load: rejection reasons: {}", reasons.join(" "));
    }
    if cli.verify {
        println!("droidsim-load: {verified}/{done} digest(s) match the jobs=1 reference");
    }
    if accepted + rejected + violations.len() < total {
        violations.push(format!(
            "{} submission(s) unaccounted for",
            total - accepted - rejected
        ));
    }
    // The daemon's own view on the way out: which state the burst (and
    // any chaos) left it in.
    match client(&cli).health() {
        Ok(h) => {
            let line: Vec<String> = h.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!("droidsim-load: daemon health: {}", line.join(" "));
        }
        Err(e) => println!("droidsim-load: daemon health unavailable: {e}"),
    }
    if let Some(mode) = cli.shutdown {
        match client(&cli).shutdown(mode) {
            Ok(()) => println!("droidsim-load: daemon shut down ({})", mode.name()),
            Err(e) => violations.push(format!("shutdown: {e}")),
        }
    }
    if violations.is_empty() {
        println!("droidsim-load OK: zero silent drops, zero lost acknowledgements");
    } else {
        for v in &violations {
            eprintln!("droidsim-load VIOLATION: {v}");
        }
        eprintln!("droidsim-load FAILED: {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

/// Looks up a numeric field in decoded response pairs.
fn num_field(fields: &[(String, String)], key: &str) -> Option<usize> {
    droidsim_kernel::journal::field(fields, key).and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one command line as `main` does.
    fn parse(line: &str) -> LoadCli {
        Args::new(line.split_whitespace())
            .parse(parse_cli)
            .unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    /// What `droidsim-load` does without flags.
    fn defaults() -> LoadCli {
        LoadCli {
            socket: PathBuf::from("droidsimd.sock"),
            total: None,
            clients: 4,
            job: "table5".to_owned(),
            size: 4,
            rate_pct: 5,
            seed: 0x10AD,
            distinct: 4,
            inner_jobs: 1,
            mixed_priorities: false,
            wait_ms: 120_000,
            reconnect_ms: 30_000,
            chaos_drop_pct: 0,
            verify: true,
            shutdown: None,
        }
    }

    #[test]
    fn no_flags_is_the_default_load() {
        assert_eq!(parse(""), defaults());
    }

    #[test]
    fn the_daemon_soak_line() {
        assert_eq!(
            parse(
                "--socket /tmp/s/droidsimd.sock --job fault-matrix --size 48 --rate-pct 5 \
                 --clients 4 --distinct 4 --wait-ms 300000 --reconnect-ms 120000 \
                 --shutdown drain"
            ),
            LoadCli {
                socket: PathBuf::from("/tmp/s/droidsimd.sock"),
                job: "fault-matrix".to_owned(),
                size: 48,
                wait_ms: 300_000,
                reconnect_ms: 120_000,
                shutdown: Some(ShutdownMode::Drain),
                ..defaults()
            }
        );
    }

    #[test]
    fn the_chaos_soak_lines() {
        assert_eq!(
            parse(
                "--socket /tmp/c/enospc.sock --job fault-matrix --size 24 --rate-pct 0 \
                 --clients 2 --distinct 2 --wait-ms 120000 --reconnect-ms 60000 \
                 --shutdown drain"
            ),
            LoadCli {
                socket: PathBuf::from("/tmp/c/enospc.sock"),
                job: "fault-matrix".to_owned(),
                size: 24,
                rate_pct: 0,
                clients: 2,
                distinct: 2,
                reconnect_ms: 60_000,
                shutdown: Some(ShutdownMode::Drain),
                ..defaults()
            }
        );
        assert_eq!(
            parse(
                "--socket /tmp/c/chaos.sock --job fault-matrix --size 48 --rate-pct 5 \
                 --clients 4 --distinct 4 --wait-ms 300000 --reconnect-ms 120000 \
                 --chaos-drop-pct 20 --shutdown drain"
            ),
            LoadCli {
                socket: PathBuf::from("/tmp/c/chaos.sock"),
                job: "fault-matrix".to_owned(),
                size: 48,
                wait_ms: 300_000,
                reconnect_ms: 120_000,
                chaos_drop_pct: 20,
                shutdown: Some(ShutdownMode::Drain),
                ..defaults()
            }
        );
        assert_eq!(
            parse(
                "--socket /tmp/c/chaos.sock --total 0 --no-verify --shutdown drain \
                 --reconnect-ms 2000"
            ),
            LoadCli {
                socket: PathBuf::from("/tmp/c/chaos.sock"),
                total: Some(0),
                verify: false,
                shutdown: Some(ShutdownMode::Drain),
                reconnect_ms: 2_000,
                ..defaults()
            }
        );
    }

    #[test]
    fn the_readme_lines() {
        assert_eq!(
            parse("--socket /tmp/droidsimd.sock --job fault-matrix --rate-pct 5 --shutdown drain"),
            LoadCli {
                socket: PathBuf::from("/tmp/droidsimd.sock"),
                job: "fault-matrix".to_owned(),
                shutdown: Some(ShutdownMode::Drain),
                ..defaults()
            }
        );
        assert_eq!(
            parse("--socket /tmp/droidsimd.sock --chaos-drop-pct 20"),
            LoadCli {
                socket: PathBuf::from("/tmp/droidsimd.sock"),
                chaos_drop_pct: 20,
                ..defaults()
            }
        );
    }

    #[test]
    fn the_chaos_drop_schedule_is_pinned() {
        // The indices the default seed drops at 20 %: a seed replays
        // the same lost acks from one build to the next.
        let hits: Vec<usize> = (0..32).filter(|&i| chaos_hits(0x10AD, i, 20)).collect();
        assert_eq!(hits, [7, 16, 19, 23, 27]);
        assert!((0..32).all(|i| !chaos_hits(0x10AD, i, 0)));
    }

    #[test]
    fn invalid_values_and_stray_tokens_are_usage_errors() {
        for line in [
            "--job fig9",
            "--rate-pct 101",
            "--chaos-drop-pct 200",
            "--shutdown later",
            "--total many",
            "--socket",
            "--bogus",
            "--jobs 2",
        ] {
            let err = Args::new(line.split_whitespace())
                .parse(parse_cli)
                .err()
                .unwrap_or_else(|| panic!("{line} parsed"));
            let flag = line.split_whitespace().next().unwrap();
            assert!(err.contains(flag), "{line}: {err}");
        }
    }
}

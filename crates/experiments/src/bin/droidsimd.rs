//! `droidsimd` — the resident fleet daemon.
//!
//! ```text
//! droidsimd [--socket PATH] [--capacity N] [--workers N]
//!           [--journal-dir DIR] [--headroom-floor-kib N]
//!           [--admission-fault-pct N] [--io-fault-pct N]
//!           [--enospc-window N] [--seed N] [--tick-ms N]
//!           [--max-conns N] [--read-timeout-ms N]
//!           [--max-line-bytes N] [--max-wait-ms N] [--version]
//! ```
//!
//! Serves simulation jobs (`table5`, `fig10`, `ablation`,
//! `fault-matrix`) over a local Unix socket: one `key=value` request
//! line in, one response line out — `nc -U` is a complete client, and
//! `droidsim-load` is the load-generating one. Admission is explicit
//! (`accepted` is journaled-then-acked; refusals carry a reason),
//! the queue is bounded and priority-aware, and with `--journal-dir`
//! a killed daemon restarted on the same directory resumes every
//! acknowledged incomplete job to the digest an uninterrupted run
//! produces.
//!
//! `--headroom-floor-kib N` arms the `/proc/meminfo` pressure probe:
//! below N KiB of `MemAvailable` the watchdog sheds the lowest-priority
//! queued class and the door rejects non-high submissions.
//! `--admission-fault-pct N` injects that rate of artificial admission
//! rejections (deterministic under `--seed`) — a testing aid proving
//! clients see explicit `rejected` responses, never silence.
//!
//! `--io-fault-pct N` arms the I/O fault shim at that rate across the
//! journal write/sync and socket read/write sites (deterministic under
//! `--seed`): the chaos configuration. `--enospc-window N` forces the
//! first N journal writes to fail with ENOSPC, driving the daemon
//! through a full degraded → recovered round trip once the watchdog's
//! probes consume the window. `--max-conns`, `--read-timeout-ms`,
//! `--max-line-bytes` and `--max-wait-ms` tune the connection
//! governor; see `cmd=health` for the resulting daemon state.
//!
//! `DROIDSIM_NO_MEMO=1` turns off the inflation cache every simulated
//! app process keeps for the configurations it has shown — every
//! creation inflates cold. The `stats` endpoint's `memo_*` fields then
//! stay at zero; digests are identical either way (the memo ≡ cold
//! contract). The caches live and die with each job's devices, so the
//! daemon holds no cache between jobs and has none to reclaim under
//! memory pressure.
//!
//! Exit codes: 0 after a clean `cmd=shutdown`; 2 on a usage error.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use droidsim_daemon::{server, Daemon, DaemonConfig, HeadroomProbe, IoFaults};
use droidsim_faults::{FaultPlan, FaultSite};
use rch_experiments::{Args, StudyExecutor};

struct DaemonCli {
    socket: PathBuf,
    config: DaemonConfig,
    server: server::ServerConfig,
}

fn parse_cli(args: &mut Args) -> Result<DaemonCli, String> {
    let socket = args
        .value("--socket")?
        .unwrap_or_else(|| PathBuf::from("droidsimd.sock"));
    let defaults = DaemonConfig::new();
    let mut config = DaemonConfig {
        queue_capacity: args.count("--capacity")?.unwrap_or(defaults.queue_capacity),
        workers: args.count("--workers")?.unwrap_or(defaults.workers),
        journal_dir: args.value("--journal-dir")?,
        headroom: args
            .value("--headroom-floor-kib")?
            .map_or(HeadroomProbe::disabled(), HeadroomProbe::proc_meminfo),
        tick: args
            .value("--tick-ms")?
            .map_or(defaults.tick, Duration::from_millis),
        ..defaults
    };
    let defaults = server::ServerConfig::new();
    let mut server_cfg = server::ServerConfig {
        max_conns: args.count("--max-conns")?.unwrap_or(defaults.max_conns),
        read_timeout: args
            .value("--read-timeout-ms")?
            .map_or(defaults.read_timeout, Duration::from_millis),
        max_line_bytes: args
            .count("--max-line-bytes")?
            .unwrap_or(defaults.max_line_bytes),
        max_wait_ms: args.value("--max-wait-ms")?.unwrap_or(defaults.max_wait_ms),
        ..defaults
    };
    let fault_pct = args.percent("--admission-fault-pct")?.unwrap_or(0);
    let io_fault_pct = args.percent("--io-fault-pct")?.unwrap_or(0);
    let enospc_window: u64 = args.value("--enospc-window")?.unwrap_or(0);
    let seed = args.value("--seed")?.unwrap_or(0x5EED);
    if fault_pct > 0 {
        config = config.with_admission_faults(
            FaultPlan::seeded(seed).with_rate(FaultSite::Admission, f64::from(fault_pct) / 100.0),
        );
    }
    if io_fault_pct > 0 || enospc_window > 0 {
        let rate = f64::from(io_fault_pct) / 100.0;
        let mut plan = FaultPlan::seeded(seed)
            .with_rate(FaultSite::JournalWrite, rate)
            .with_rate(FaultSite::JournalSync, rate)
            .with_rate(FaultSite::SocketRead, rate)
            .with_rate(FaultSite::SocketWrite, rate);
        for nth in 1..=enospc_window {
            plan = plan.on_nth_probe(FaultSite::JournalWrite, nth);
        }
        // One shared shim: journal and socket faults draw from the same
        // seeded schedule, so a run is reproducible end to end.
        let io = IoFaults::new(plan);
        config = config.with_io_faults(io.clone());
        server_cfg = server_cfg.with_io_faults(io);
    }
    Ok(DaemonCli {
        socket,
        config,
        server: server_cfg,
    })
}

fn main() {
    let cli = Args::cli(parse_cli);
    if let Some(dir) = &cli.config.journal_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: --journal-dir {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let journal = cli
        .config
        .journal_dir
        .as_ref()
        .map_or_else(|| "disabled".to_owned(), |d| d.display().to_string());
    let daemon = Arc::new(
        Daemon::start(cli.config.clone(), StudyExecutor).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    );
    let resumed = daemon.stats().ledger.resumed;
    if resumed > 0 {
        println!("droidsimd: resumed {resumed} acknowledged incomplete job(s) from the journal");
    }
    println!(
        "droidsimd: listening on {} (workers {}, capacity {}, journal {journal})",
        cli.socket.display(),
        cli.config.workers,
        cli.config.queue_capacity,
    );
    if let Err(e) = server::serve_with(&daemon, &cli.socket, cli.server) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    // Give in-flight connection handlers a beat to flush their final
    // response (the `shutdown` ack races process exit otherwise).
    std::thread::sleep(Duration::from_millis(200));
    println!("droidsimd: stopped");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one command line as `main` does.
    fn parse(line: &str) -> DaemonCli {
        Args::new(line.split_whitespace())
            .parse(parse_cli)
            .unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    const IO_SITES: [FaultSite; 4] = [
        FaultSite::JournalWrite,
        FaultSite::JournalSync,
        FaultSite::SocketRead,
        FaultSite::SocketWrite,
    ];

    /// The next `n` injection verdicts at each I/O site of `io`.
    fn io_schedule(io: &IoFaults, n: usize) -> Vec<bool> {
        IO_SITES
            .iter()
            .flat_map(|&site| (0..n).map(move |_| io.should_inject(site)))
            .collect()
    }

    /// `--io-fault-pct pct --seed seed` as a shim of its own.
    fn io_rate(pct: u8, seed: u64) -> IoFaults {
        let rate = f64::from(pct) / 100.0;
        IoFaults::new(
            IO_SITES
                .iter()
                .fold(FaultPlan::seeded(seed), |plan, &site| {
                    plan.with_rate(site, rate)
                }),
        )
    }

    fn assert_base(cli: &DaemonCli, socket: &str, journal: &str, capacity: usize, workers: usize) {
        assert_eq!(cli.socket, PathBuf::from(socket));
        assert_eq!(cli.config.journal_dir, Some(PathBuf::from(journal)));
        assert_eq!(cli.config.queue_capacity, capacity);
        assert_eq!(cli.config.workers, workers);
        assert_eq!(cli.config.admission_faults, FaultPlan::disarmed());
        assert!(matches!(cli.config.headroom, HeadroomProbe::Disabled));
    }

    #[test]
    fn the_daemon_soak_line() {
        let cli = parse(
            "--socket /tmp/droidsim-soak.x/droidsimd.sock \
             --journal-dir /tmp/droidsim-soak.x/journal --capacity 8 --workers 2 --tick-ms 10",
        );
        assert_base(
            &cli,
            "/tmp/droidsim-soak.x/droidsimd.sock",
            "/tmp/droidsim-soak.x/journal",
            8,
            2,
        );
        assert_eq!(cli.config.tick, Duration::from_millis(10));
        assert!(!cli.config.io_faults.is_armed() && !cli.server.io_faults.is_armed());
    }

    #[test]
    fn the_chaos_soak_enospc_line() {
        let cli = parse(
            "--socket /tmp/c/enospc.sock --journal-dir /tmp/c/enospc-journal \
             --capacity 8 --workers 2 --tick-ms 10 --enospc-window 3",
        );
        assert_base(&cli, "/tmp/c/enospc.sock", "/tmp/c/enospc-journal", 8, 2);
        assert_eq!(cli.config.tick, Duration::from_millis(10));
        // The first three journal writes fail, then none; no other site
        // ever injects.
        let io = &cli.config.io_faults;
        let writes: Vec<bool> = (0..100)
            .map(|_| io.should_inject(FaultSite::JournalWrite))
            .collect();
        assert_eq!(writes.iter().filter(|&&hit| hit).count(), 3);
        assert!(writes[..3].iter().all(|&hit| hit));
        assert!(!io_schedule(io, 100)[100..].contains(&true));
    }

    #[test]
    fn the_chaos_soak_fault_line() {
        let cli = parse(
            "--socket /tmp/c/chaos.sock --journal-dir /tmp/c/chaos-journal \
             --capacity 8 --workers 2 --tick-ms 10 --io-fault-pct 5 --seed 50181",
        );
        assert_base(&cli, "/tmp/c/chaos.sock", "/tmp/c/chaos-journal", 8, 2);
        assert_eq!(cli.config.tick, Duration::from_millis(10));
        let got = io_schedule(&cli.config.io_faults, 400);
        assert_eq!(got, io_schedule(&io_rate(5, 50181), 400));
        assert!(got.contains(&true));
        // The journal and the socket server share one shim.
        assert_eq!(cli.server.io_faults.probes(FaultSite::SocketRead), 400);
    }

    #[test]
    fn the_restart_test_line() {
        let cli = parse(
            "--socket /tmp/r/droidsimd.sock --journal-dir /tmp/r/journal --workers 1 --tick-ms 10",
        );
        assert_base(&cli, "/tmp/r/droidsimd.sock", "/tmp/r/journal", 16, 1);
        assert_eq!(cli.config.tick, Duration::from_millis(10));
    }

    #[test]
    fn the_readme_lines() {
        let cli = parse(
            "--socket /tmp/droidsimd.sock --journal-dir /tmp/droidsimd-journal \
             --capacity 16 --workers 2",
        );
        assert_base(&cli, "/tmp/droidsimd.sock", "/tmp/droidsimd-journal", 16, 2);
        assert_eq!(cli.config.tick, DaemonConfig::new().tick);
        assert!(!cli.config.io_faults.is_armed());

        let cli = parse(
            "--socket /tmp/droidsimd.sock --journal-dir /tmp/droidsimd-journal \
             --io-fault-pct 5 --seed 7 --max-conns 64 --read-timeout-ms 10000",
        );
        assert_base(&cli, "/tmp/droidsimd.sock", "/tmp/droidsimd-journal", 16, 2);
        assert_eq!(cli.server.max_conns, 64);
        assert_eq!(cli.server.read_timeout, Duration::from_millis(10_000));
        assert_eq!(
            io_schedule(&cli.server.io_faults, 400),
            io_schedule(&io_rate(5, 7), 400)
        );
    }

    #[test]
    fn no_flags_is_the_default_daemon() {
        let cli = parse("");
        assert_eq!(cli.socket, PathBuf::from("droidsimd.sock"));
        let want = DaemonConfig::new();
        assert_eq!(cli.config.journal_dir, None);
        assert_eq!(
            (
                cli.config.queue_capacity,
                cli.config.workers,
                cli.config.tick
            ),
            (want.queue_capacity, want.workers, want.tick)
        );
        assert!(!cli.config.io_faults.is_armed());
        assert_eq!(cli.server.max_conns, server::ServerConfig::new().max_conns);
    }

    #[test]
    fn zero_counts_and_stray_tokens_are_usage_errors() {
        for line in [
            "--workers 0",
            "--capacity 0",
            "--max-conns 0",
            "--io-fault-pct 101",
            "--tick-ms soon",
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

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
use rch_experiments::StudyExecutor;

struct DaemonCli {
    socket: PathBuf,
    config: DaemonConfig,
    server: server::ServerConfig,
}

fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<DaemonCli, String> {
    let mut socket = PathBuf::from("droidsimd.sock");
    let mut config = DaemonConfig::new();
    let mut server_cfg = server::ServerConfig::new();
    let mut fault_pct: u8 = 0;
    let mut io_fault_pct: u8 = 0;
    let mut enospc_window: u64 = 0;
    let mut seed: u64 = 0x5EED;
    let mut args = args.into_iter();
    let value = |flag: &str, inline: Option<String>, args: &mut dyn Iterator<Item = String>| {
        inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str, v: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag}: not a number: {v:?}"))
    };
    while let Some(a) = args.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
            None => (a, None),
        };
        match flag.as_str() {
            "--socket" => socket = PathBuf::from(value("--socket", inline, &mut args)?),
            "--capacity" => {
                let v = value("--capacity", inline, &mut args)?;
                let n = number("--capacity", &v)? as usize;
                if n == 0 {
                    return Err("--capacity: must be at least 1".to_owned());
                }
                config = config.with_capacity(n);
            }
            "--workers" => {
                let v = value("--workers", inline, &mut args)?;
                let n = number("--workers", &v)? as usize;
                if n == 0 {
                    return Err("--workers: must be at least 1".to_owned());
                }
                config = config.with_workers(n);
            }
            "--journal-dir" => {
                config = config.with_journal_dir(value("--journal-dir", inline, &mut args)?);
            }
            "--headroom-floor-kib" => {
                let v = value("--headroom-floor-kib", inline, &mut args)?;
                config = config.with_headroom(HeadroomProbe::proc_meminfo(number(&flag, &v)?));
            }
            "--admission-fault-pct" => {
                let v = value("--admission-fault-pct", inline, &mut args)?;
                let pct = number(&flag, &v)?;
                if pct > 100 {
                    return Err(format!("{flag}: {pct} is not a percentage"));
                }
                fault_pct = pct as u8;
            }
            "--io-fault-pct" => {
                let v = value(&flag, inline, &mut args)?;
                let pct = number(&flag, &v)?;
                if pct > 100 {
                    return Err(format!("{flag}: {pct} is not a percentage"));
                }
                io_fault_pct = pct as u8;
            }
            "--enospc-window" => {
                let v = value(&flag, inline, &mut args)?;
                enospc_window = number(&flag, &v)?;
            }
            "--max-conns" => {
                let v = value(&flag, inline, &mut args)?;
                let n = number(&flag, &v)? as usize;
                if n == 0 {
                    return Err(format!("{flag}: must be at least 1"));
                }
                server_cfg = server_cfg.with_max_conns(n);
            }
            "--read-timeout-ms" => {
                let v = value(&flag, inline, &mut args)?;
                server_cfg =
                    server_cfg.with_read_timeout(Duration::from_millis(number(&flag, &v)?));
            }
            "--max-line-bytes" => {
                let v = value(&flag, inline, &mut args)?;
                let n = number(&flag, &v)? as usize;
                if n == 0 {
                    return Err(format!("{flag}: must be at least 1"));
                }
                server_cfg = server_cfg.with_max_line_bytes(n);
            }
            "--max-wait-ms" => {
                let v = value(&flag, inline, &mut args)?;
                server_cfg = server_cfg.with_max_wait_ms(number(&flag, &v)?);
            }
            "--seed" => {
                let v = value("--seed", inline, &mut args)?;
                seed = number("--seed", &v)?;
            }
            "--tick-ms" => {
                let v = value("--tick-ms", inline, &mut args)?;
                config = config.with_tick(Duration::from_millis(number("--tick-ms", &v)?));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
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
    rch_experiments::version_flag();
    let cli = parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
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

//! `rchbench` command line.
//!
//! ```text
//! rchbench run --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!              [--spans <file.jsonl>] [--out <result.json>]
//! rchbench all [--seed <n>] [--seconds <s>] [--out-dir <dir>]
//! rchbench agree <runsA/> <runsB/> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! `run` prints every metric by name with its unit, then one JSON result
//! line, and exits 1 when any output check failed. `all` runs each
//! workload in its own child process, so `peak_rss_mib` belongs to one
//! workload. `agree` compares two directories of `--out` results against
//! the bounds in `BENCHMARK.json`.

use rchbench::workloads::{self, RunOpts, NAMES};
use rchbench::{agree, json, result_document, result_line, speed, stats};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seed used when none is given; seed 2 is held out for checking a claim
/// on an unseen seed.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage:
  rchbench run --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--spans <file>] [--out <file>]
  rchbench all [--seed <n>] [--seconds <s>] [--out-dir <dir>]
  rchbench agree <runsA/> <runsB/> [--benchmark <file>]
workloads: study_fleet rotation_storm lint_corpus";

/// Flags with values, and positional arguments, in order.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>, known: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            let Some(flag) = a.strip_prefix("--") else {
                out.positional.push(a);
                continue;
            };
            let (name, inline) = match flag.split_once('=') {
                Some((n, v)) => (n.to_owned(), Some(v.to_owned())),
                None => (flag.to_owned(), None),
            };
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = inline
                .or_else(|| args.next())
                .ok_or_else(|| format!("--{name} needs a value"))?;
            out.flags.push((name, value));
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed").map_or(Ok(DEFAULT_SEED), |v| {
            v.parse()
                .map_err(|_| format!("--seed: not a number: {v:?}"))
        })
    }

    fn seconds(&self) -> Result<f64, String> {
        self.get("seconds").map_or(Ok(DEFAULT_SECONDS), |v| {
            v.parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .ok_or_else(|| format!("--seconds: not a duration: {v:?}"))
        })
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let result = match args.next().as_deref() {
        Some("run") => cmd_run(args),
        Some("all") => cmd_all(args),
        Some("agree") => cmd_agree(args),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("rchbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let args = Args::parse(
        args,
        &["workload", "seed", "seconds", "trace", "spans", "out"],
    )?;
    if let Some(p) = args.positional.first() {
        return Err(format!("unexpected argument {p:?}\n{USAGE}"));
    }
    let workload = args.get("workload").ok_or("--workload is required")?;
    if !NAMES.contains(&workload) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let opts = RunOpts {
        workload: workload.to_owned(),
        seed: args.seed()?,
        seconds: args.seconds()?,
        trace,
        spans: args.get("spans").map(PathBuf::from),
    };
    println!(
        "rchbench: workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let report = match workloads::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("rchbench: {}: {e}", opts.workload);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let m = &report.machine;
    println!("machine: nproc={} kernel={}", m.nproc, m.kernel);
    println!(
        "setup: median of {} set-ups {:.4} s",
        workloads::SETUP_REPEATS,
        report.setup_s
    );
    println!(
        "speed: median reading {:.4} ms against the reference {} ms; times are scaled to the reference",
        report.speed_ms,
        speed::REFERENCE_MS
    );
    let tail = stats::tail_percentile(report.samples as usize)
        .map_or_else(|| "none".to_owned(), |p| format!("p{p}"));
    println!(
        "ops: {} attempted, {} failed (fail_ratio {}); {} latency samples, highest supported tail {tail}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.samples
    );
    if let Some(spans) = &report.spans_file {
        println!("spans: {}", spans.display());
    }
    for metric in &report.metrics {
        println!(
            "{:<40} {:>18} {}",
            metric.name,
            json::number(metric.value),
            metric.unit
        );
    }
    if let Some(out) = args.get("out") {
        std::fs::write(
            out,
            result_document(&report, &opts.workload, opts.seed, opts.trace),
        )
        .map_err(|e| format!("writing {out}: {e}"))?;
    }
    println!("{}", result_line(&report));
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_all(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let args = Args::parse(args, &["seed", "seconds", "out-dir"])?;
    let seed = args.seed()?;
    let seconds = args.seconds()?;
    let out_dir = args
        .get("out-dir")
        .map_or_else(|| workloads::scratch_dir().join("runs"), PathBuf::from);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in NAMES {
        let out = out_dir.join(format!("{name}-seed{seed}.json"));
        let status = Command::new(&exe)
            .args(["run", "--workload", name, "--trace", "0"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .arg("--out")
            .arg(&out)
            .status()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    println!("results: {}", out_dir.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_agree(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let args = Args::parse(args, &["benchmark"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err(format!("agree takes two result directories\n{USAGE}"));
    };
    let benchmark = Path::new(args.get("benchmark").unwrap_or("BENCHMARK.json"));
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let bounds = agree::bounds(&json::parse(&text)?)?;
    let (table, ok) = agree::compare(
        &agree::load_runs(Path::new(a))?,
        &agree::load_runs(Path::new(b))?,
        &bounds,
    );
    print!("{table}");
    println!("{}", if ok { "agree" } else { "DISAGREE" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

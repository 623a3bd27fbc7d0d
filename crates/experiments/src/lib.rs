//! Experiment harnesses reproducing every table and figure of the
//! paper's evaluation (§5 and §6).
//!
//! Each module regenerates one result and prints the same rows/series the
//! paper reports; the binaries in `src/bin/` are thin wrappers. The
//! mapping to the paper:
//!
//! | Module | Paper result |
//! |---|---|
//! | [`table3`]  | Table 3 — effectiveness on the TP-27 set (25/27) |
//! | [`fig7`]    | Fig. 7 — per-app handling time, RCHDroid vs Android-10 |
//! | [`fig8`]    | Fig. 8 — per-app memory usage |
//! | [`fig9`]    | Fig. 9 — CPU/memory trace incl. the Android-10 crash |
//! | [`fig10`]   | Fig. 10 — scalability in view count (a: handling, b: migration) |
//! | [`fig11`]   | Fig. 11 — GC THRESH_T trade-off |
//! | [`fig12`]   | Fig. 12 + Table 4 — RuntimeDroid comparison |
//! | [`table5`]  | Table 5 + Fig. 14 — Google-Play top-100 study |
//! | [`energy`]  | §5.6 — board power |
//! | [`ablation`] | design-choice ablations (not in the paper; DESIGN.md §5) |
//!
//! All harnesses run on the deterministic simulator; see DESIGN.md for the
//! substitution rationale and EXPERIMENTS.md for paper-vs-measured values.

pub mod ablation;
pub mod breakdown;
pub mod daemon_exec;
pub mod detector;
pub mod differential;
pub mod energy;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod report;
pub mod scenario;
pub mod study;
pub mod table3;
pub mod table5;
pub mod variance;

pub use daemon_exec::StudyExecutor;
pub use scenario::{run_app, RunConfig, RunOutcome};
pub use study::Study;

use droidsim_fleet::{parse_jobs_value, FleetConfig, FleetOptions};
use std::time::Duration;

/// The flags that tune a supervised study. Only the study binaries
/// ([`FleetCli::from_study_args`]) accept them; every other binary
/// refuses them by name.
const SUPERVISION_FLAGS: [&str; 4] = ["--max-retries", "--task-budget-ms", "--journal", "--resume"];

/// Everything an experiment binary accepts on the command line: the
/// worker count plus, in the study binaries, the crash-safety knobs of
/// the supervised fleet.
///
/// * `--jobs N` / `--jobs=N` — worker threads (strict: a zero or
///   non-numeric value is an error, not a silent fallback);
/// * `--max-retries N` — requeue a failed task up to N times;
/// * `--task-budget-ms N` — wall-clock stall watchdog per task attempt;
/// * `--journal PATH` — checkpoint each completed task to PATH;
/// * `--resume PATH` — skip tasks PATH already records, appending new
///   completions to it;
/// * `--version` — print the binary's name and version, then exit.
///
/// The four supervision flags are study-only: a binary that runs no
/// supervised study refuses them with a usage error naming the flag.
/// Tokens the fleet layer does not recognize land in [`FleetCli::extra`]
/// in order. Binaries with flags of their own ([`FleetCli::from_args_passthrough`])
/// parse that remainder; everyone else gets a usage error naming the
/// first unknown flag — never a silent ignore.
#[derive(Debug, Clone, Default)]
pub struct FleetCli {
    /// Explicit worker count, when given.
    pub jobs: Option<usize>,
    /// Supervision knobs assembled from the flags.
    pub options: FleetOptions,
    /// Whether `--version` was present.
    pub version: bool,
    /// Tokens the fleet layer did not consume, in command-line order —
    /// the passthrough remainder a binary's own parser receives.
    pub extra: Vec<String>,
}

impl FleetCli {
    /// Parses `std::env::args` for a binary with no flags of its own
    /// that runs no supervised study: invalid values, supervision flags
    /// *and unknown flags* exit with a usage error (status 2) naming the
    /// offender — reject, never silently fall back. `--version` prints
    /// and exits 0.
    pub fn from_args() -> FleetCli {
        FleetCli::strict(false)
    }

    /// Like [`FleetCli::from_args`], for the study binaries: the
    /// supervision flags fill [`FleetCli::options`].
    pub fn from_study_args() -> FleetCli {
        FleetCli::strict(true)
    }

    fn strict(supervision: bool) -> FleetCli {
        let cli = FleetCli::from_env_args(supervision);
        if let Err(e) = cli.deny_unknown() {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        cli
    }

    /// Parses `std::env::args` for a binary with flags of its own that
    /// runs no supervised study: fleet flags are consumed (invalid values
    /// and supervision flags still exit 2), `--version` prints and exits
    /// 0, and everything else is kept in [`FleetCli::extra`] for the
    /// binary's parser — which owns the unknown-flag rejection for its
    /// remainder.
    pub fn from_args_passthrough() -> FleetCli {
        FleetCli::from_env_args(false)
    }

    fn from_env_args(supervision: bool) -> FleetCli {
        version_flag();
        FleetCli::parse(std::env::args().skip(1), supervision).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// The strict contract for binaries with no flags of their own:
    /// errors on the first token the fleet layer did not consume,
    /// naming it.
    pub fn deny_unknown(&self) -> Result<(), String> {
        match self.extra.first() {
            None => Ok(()),
            Some(tok) if tok.starts_with("--") => {
                let flag = tok.split('=').next().unwrap_or(tok);
                Err(format!("unknown flag {flag:?}"))
            }
            Some(tok) => Err(format!("unexpected argument {tok:?}")),
        }
    }

    /// Parses an argument list (testable form of the `from_*` entry
    /// points). With `supervision` false, a supervision flag is an error
    /// naming it.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        supervision: bool,
    ) -> Result<FleetCli, String> {
        let mut cli = FleetCli {
            options: FleetOptions::new(),
            ..FleetCli::default()
        };
        let mut args = args.into_iter();
        let value = |flag: &str, inline: Option<String>, args: &mut dyn Iterator<Item = String>| {
            inline
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(a) = args.next() {
            let (flag, inline) = match a.split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (a, None),
            };
            if !supervision && SUPERVISION_FLAGS.contains(&flag.as_str()) {
                return Err(format!(
                    "{flag:?} is accepted only by the supervised study binaries \
                     (table5, fig10, ablation)"
                ));
            }
            match flag.as_str() {
                "--jobs" => {
                    let v = value("--jobs", inline, &mut args)?;
                    cli.jobs = Some(parse_jobs_value("--jobs", &v).map_err(|e| e.to_string())?);
                }
                "--max-retries" => {
                    let v = value("--max-retries", inline, &mut args)?;
                    cli.options.max_retries = v
                        .parse()
                        .map_err(|_| format!("--max-retries: not a number: {v:?}"))?;
                }
                "--task-budget-ms" => {
                    let v = value("--task-budget-ms", inline, &mut args)?;
                    let ms: u64 = v
                        .parse()
                        .map_err(|_| format!("--task-budget-ms: not a number: {v:?}"))?;
                    cli.options.task_budget = Some(Duration::from_millis(ms));
                }
                "--journal" => {
                    let v = value("--journal", inline, &mut args)?;
                    cli.options.journal = Some(v.into());
                }
                "--resume" => {
                    let v = value("--resume", inline, &mut args)?;
                    cli.options = cli.options.clone().resuming(v);
                }
                "--version" => cli.version = true,
                // Binaries keep their own extra flags: preserve the
                // raw token (value-bearing forms like `--views=16` or
                // `--views` + `16` arrive as the original tokens).
                _ => cli.extra.push(match &inline {
                    Some(v) => format!("{flag}={v}"),
                    None => flag,
                }),
            }
        }
        Ok(cli)
    }

    /// Resolves the fleet config (explicit `--jobs` > `DROIDSIM_JOBS` >
    /// cores), exiting with the resolution error when the environment
    /// holds an invalid count.
    pub fn config(&self, seed: u64) -> FleetConfig {
        FleetConfig::try_from_env(self.jobs, seed).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }
}

/// Implements the universal `--version` flag: when present anywhere on
/// the command line, prints `<binary> <version>` and exits 0. Every
/// study binary (and the daemon pair) calls this first; the
/// [`FleetCli`] entry points do it on the caller's behalf.
pub fn version_flag() {
    if std::env::args().skip(1).any(|a| a == "--version") {
        let bin = std::env::args().next().as_deref().map_or_else(
            || "droidsim".to_owned(),
            |p| {
                std::path::Path::new(p)
                    .file_name()
                    .map_or_else(|| p.to_owned(), |n| n.to_string_lossy().into_owned())
            },
        );
        println!("{bin} {}", env!("CARGO_PKG_VERSION"));
        std::process::exit(0);
    }
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FleetCli, String> {
        FleetCli::parse(args.iter().map(|s| (*s).to_owned()), true)
    }

    fn parse_plain(args: &[&str]) -> Result<FleetCli, String> {
        FleetCli::parse(args.iter().map(|s| (*s).to_owned()), false)
    }

    #[test]
    fn jobs_parses_in_both_forms() {
        let cli = parse(&["--jobs", "4"]).unwrap();
        assert_eq!(cli.jobs, Some(4));
        let cli = parse_plain(&["--jobs=2"]).unwrap();
        assert_eq!(cli.jobs, Some(2));
    }

    #[test]
    fn invalid_jobs_is_an_error_not_a_fallback() {
        for bad in ["0", "three", "-1", "4.5", ""] {
            let err = parse(&["--jobs", bad]).unwrap_err();
            assert!(err.contains("--jobs"), "{bad:?}: {err}");
        }
        assert!(parse(&["--jobs"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn supervision_flags_fill_the_fleet_options() {
        let cli = parse(&["--max-retries", "3"]).unwrap();
        assert_eq!(cli.options.max_retries, 3);
        let cli = parse(&["--task-budget-ms=250"]).unwrap();
        assert_eq!(cli.options.task_budget, Some(Duration::from_millis(250)));
        let cli = parse(&["--journal", "j.log"]).unwrap();
        assert_eq!(cli.options.journal.as_deref(), Some("j.log".as_ref()));
        assert!(cli.options.resume.is_none());
        let cli = parse(&["--jobs", "2"]).unwrap();
        assert_eq!(cli.options.max_retries, 0);
        assert!(cli.options.task_budget.is_none() && cli.options.journal.is_none());
    }

    #[test]
    fn supervision_flags_are_refused_outside_the_study_binaries() {
        for args in [
            &["--journal", "j.log"][..],
            &["--resume=j.log"],
            &["--max-retries", "3"],
            &["--task-budget-ms", "250"],
        ] {
            let err = parse_plain(args).unwrap_err();
            let flag = args[0].split('=').next().unwrap();
            assert!(err.contains(&format!("{flag:?}")), "{args:?}: {err}");
        }
    }

    #[test]
    fn resume_reads_and_extends_the_same_journal() {
        let cli = parse(&["--resume", "j.log", "--jobs", "2"]).unwrap();
        assert_eq!(cli.options.resume.as_deref(), Some("j.log".as_ref()));
        assert_eq!(cli.options.journal.as_deref(), Some("j.log".as_ref()));
        assert_eq!(cli.jobs, Some(2));
    }

    #[test]
    fn unknown_flags_pass_through_for_the_binaries() {
        let cli = parse_plain(&["--views", "16", "--jobs", "3", "--corpus=tp27"]).unwrap();
        assert_eq!(cli.jobs, Some(3));
        assert_eq!(cli.extra, vec!["--views", "16", "--corpus=tp27"]);
    }

    #[test]
    fn strict_binaries_reject_unknown_flags_by_name() {
        let cli = parse(&["--jobs", "2", "--view", "16"]).unwrap();
        let err = cli.deny_unknown().unwrap_err();
        assert!(err.contains("--view"), "{err}");
        let cli = parse(&["--jobs=2", "--journal=j.log"]).unwrap();
        assert!(cli.deny_unknown().is_ok());
        let err = parse(&["tp27"]).unwrap().deny_unknown().unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        // The flag name alone is reported, not its inline value.
        let err = parse(&["--corpus=tp27"])
            .unwrap()
            .deny_unknown()
            .unwrap_err();
        assert!(err.contains("\"--corpus\""), "{err}");
        // Retired flags are unknown everywhere: the kill switch is the
        // `DROIDSIM_NO_MEMO` env var, and every study runs supervised.
        for retired in ["--no-memo", "--keep-going"] {
            let err = parse(&[retired]).unwrap().deny_unknown().unwrap_err();
            assert!(err.contains(retired), "{err}");
        }
    }

    #[test]
    fn version_flag_is_recognized_everywhere() {
        let cli = parse_plain(&["--version"]).unwrap();
        assert!(cli.version);
        assert!(cli.extra.is_empty());
        assert!(cli.deny_unknown().is_ok());
    }
}

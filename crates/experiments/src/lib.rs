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
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

/// The flags that tune a supervised study. Only the study binaries take
/// them ([`Args::supervision`]); a refusal anywhere else names the flag
/// and the binaries that take it.
const SUPERVISION_FLAGS: [&str; 4] = ["--max-retries", "--task-budget-ms", "--journal", "--resume"];

/// A binary's command line: the one argument scanner every binary of
/// this crate parses its flags with.
///
/// A binary takes each flag it accepts by name — a switch (`--flag`) or
/// a value (`--flag value` or `--flag=value`; given twice, the last one
/// counts) — in the closure it hands to [`Args::cli`]. The first token
/// no flag took is a usage error that names it, so no binary accepts a
/// flag it ignores. Every binary answers `--version`.
#[derive(Debug)]
pub struct Args {
    /// The tokens no flag has taken yet, in command-line order.
    left: Vec<String>,
}

impl Args {
    /// A command line from its tokens, without the binary's name.
    pub fn new<S: Into<String>>(tokens: impl IntoIterator<Item = S>) -> Args {
        Args {
            left: tokens.into_iter().map(Into::into).collect(),
        }
    }

    /// Scans the running binary's command line with `take`, before any
    /// work starts. `--version` anywhere prints `<binary> <version>` and
    /// exits 0; an error from `take`, or a token it left, prints
    /// `error: …` and exits 2.
    pub fn cli<T>(take: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        let args = Args::new(argv);
        if args.left.iter().any(|a| a == "--version") {
            let name = Path::new(&bin)
                .file_name()
                .map_or(bin.as_str().into(), |n| n.to_string_lossy());
            println!("{name} {}", env!("CARGO_PKG_VERSION"));
            std::process::exit(0);
        }
        args.parse(take).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Runs `take` over the tokens, then refuses the first one it left.
    pub fn parse<T>(
        mut self,
        take: impl FnOnce(&mut Args) -> Result<T, String>,
    ) -> Result<T, String> {
        let taken = take(&mut self)?;
        match self.left.first() {
            None => Ok(taken),
            Some(tok) if tok.starts_with("--") => {
                let flag = tok.split('=').next().unwrap_or(tok);
                Err(if SUPERVISION_FLAGS.contains(&flag) {
                    format!(
                        "{flag:?} is accepted only by the supervised study binaries \
                         (table5, fig10, ablation)"
                    )
                } else {
                    format!("unknown flag {flag:?}")
                })
            }
            Some(tok) => Err(format!("unexpected argument {tok:?}")),
        }
    }

    /// Takes the switch `flag`: whether it was given.
    pub fn switch(&mut self, flag: &str) -> Result<bool, String> {
        if self
            .left
            .iter()
            .any(|tok| inline_value(tok, flag).is_some())
        {
            return Err(format!("{flag} takes no value"));
        }
        let before = self.left.len();
        self.left.retain(|tok| tok != flag);
        Ok(self.left.len() < before)
    }

    /// Takes every value of `flag`, in command-line order.
    pub fn values(&mut self, flag: &str) -> Result<Vec<String>, String> {
        let mut values = Vec::new();
        let mut left = Vec::with_capacity(self.left.len());
        let mut tokens = std::mem::take(&mut self.left).into_iter();
        while let Some(tok) = tokens.next() {
            if tok == flag {
                values.push(
                    tokens
                        .next()
                        .ok_or_else(|| format!("{flag} needs a value"))?,
                );
            } else if let Some(value) = inline_value(&tok, flag) {
                values.push(value.to_owned());
            } else {
                left.push(tok);
            }
        }
        self.left = left;
        Ok(values)
    }

    /// Takes `flag` and parses its last value with `parse`.
    fn last<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let mut parsed: Vec<T> = self
            .values(flag)?
            .iter()
            .map(|v| parse(v))
            .collect::<Result<_, _>>()?;
        Ok(parsed.pop())
    }

    /// Takes `flag`'s value as a `T` (a number, a path, a string).
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.last(flag, |v| {
            v.parse()
                .map_err(|_| format!("{flag}: invalid value {v:?}"))
        })
    }

    /// Takes `flag`'s value as a count, which must be at least 1.
    pub fn count(&mut self, flag: &str) -> Result<Option<usize>, String> {
        match self.value(flag)? {
            Some(0) => Err(format!("{flag}: must be at least 1")),
            n => Ok(n),
        }
    }

    /// Takes `flag`'s value as a percentage, 0 to 100.
    pub fn percent(&mut self, flag: &str) -> Result<Option<u8>, String> {
        match self.value::<u64>(flag)? {
            Some(pct) if pct > 100 => Err(format!("{flag}: {pct} is not a percentage")),
            pct => Ok(pct.map(|p| p as u8)),
        }
    }

    /// Takes `flag`'s value, which must be one of `choices`.
    pub fn choice(
        &mut self,
        flag: &str,
        choices: &[&'static str],
    ) -> Result<Option<&'static str>, String> {
        self.last(flag, |v| {
            choices
                .iter()
                .find(|&&c| c == v)
                .copied()
                .ok_or_else(|| format!("{flag}: unknown value {v:?} ({})", choices.join("|")))
        })
    }

    /// Takes the first token left that is not a flag: a positional
    /// argument. Take every flag first, or a flag's value can pass for
    /// one.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.left.iter().position(|tok| !tok.starts_with("--"))?;
        Some(self.left.remove(at))
    }

    /// Takes `--jobs N`, the explicit worker count (strict: a zero or a
    /// non-number is an error, never a fallback).
    pub fn jobs(&mut self) -> Result<Option<usize>, String> {
        self.last("--jobs", |v| {
            parse_jobs_value("--jobs", v).map_err(|e| e.to_string())
        })
    }

    /// Takes `--jobs N` and resolves the fleet's worker count: `--jobs`,
    /// then `DROIDSIM_JOBS`, then the machine's cores.
    pub fn fleet(&mut self, seed: u64) -> Result<FleetConfig, String> {
        FleetConfig::try_from_env(self.jobs()?, seed).map_err(|e| e.to_string())
    }

    /// Takes the four supervision flags of a study binary:
    ///
    /// * `--max-retries N` — requeue a failed task up to N times;
    /// * `--task-budget-ms N` — wall-clock stall watchdog per task attempt;
    /// * `--journal PATH` — checkpoint each completed task to PATH;
    /// * `--resume PATH` — skip the tasks PATH records, appending new
    ///   completions to it (it wins over `--journal`).
    pub fn supervision(&mut self) -> Result<FleetOptions, String> {
        let mut options = FleetOptions::new();
        options.max_retries = self.value("--max-retries")?.unwrap_or(0);
        options.task_budget = self.value("--task-budget-ms")?.map(Duration::from_millis);
        options.journal = self.value("--journal")?;
        if let Some(path) = self.value::<PathBuf>("--resume")? {
            options = options.resuming(path);
        }
        Ok(options)
    }
}

/// The value of `tok` when it is `flag=value`.
fn inline_value<'t>(tok: &'t str, flag: &str) -> Option<&'t str> {
    tok.strip_prefix(flag)?.strip_prefix('=')
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    /// Scans `tokens` with `take`.
    fn scan<T>(
        tokens: &[&str],
        take: impl FnOnce(&mut Args) -> Result<T, String>,
    ) -> Result<T, String> {
        Args::new(tokens.iter().copied()).parse(take)
    }

    /// A study binary's scan.
    fn study_scan(tokens: &[&str]) -> Result<(Option<usize>, FleetOptions), String> {
        scan(tokens, |args| Ok((args.jobs()?, args.supervision()?)))
    }

    #[test]
    fn values_come_in_both_forms_and_the_last_counts() {
        assert_eq!(scan(&["--jobs", "4"], Args::jobs), Ok(Some(4)));
        assert_eq!(scan(&["--jobs=2"], Args::jobs), Ok(Some(2)));
        assert_eq!(scan(&[], Args::jobs), Ok(None));
        assert_eq!(
            scan(&["--seed", "7", "--seed=9"], |a| a.value::<u64>("--seed")),
            Ok(Some(9))
        );
        assert_eq!(
            scan(&["--allow", "A", "--only", "x", "--allow=B"], |a| {
                Ok((a.values("--allow")?, a.value::<String>("--only")?))
            }),
            Ok((vec!["A".to_owned(), "B".to_owned()], Some("x".to_owned())))
        );
    }

    #[test]
    fn invalid_jobs_is_an_error_not_a_fallback() {
        for bad in ["0", "three", "-1", "4.5", ""] {
            let err = scan(&["--jobs", bad], Args::jobs).unwrap_err();
            assert!(err.contains("--jobs"), "{bad:?}: {err}");
        }
        assert!(scan(&["--jobs"], Args::jobs)
            .unwrap_err()
            .contains("needs a value"));
    }

    #[test]
    fn typed_values_share_one_error_text() {
        let err = |tokens: &[&str], take: fn(&mut Args) -> Result<(), String>| {
            scan(tokens, take).unwrap_err()
        };
        assert_eq!(
            err(&["--tick-ms", "soon"], |a| a
                .value::<u64>("--tick-ms")
                .map(drop)),
            "--tick-ms: invalid value \"soon\""
        );
        assert_eq!(
            err(&["--workers=0"], |a| a.count("--workers").map(drop)),
            "--workers: must be at least 1"
        );
        assert_eq!(
            err(&["--rate-pct", "101"], |a| a
                .percent("--rate-pct")
                .map(drop)),
            "--rate-pct: 101 is not a percentage"
        );
        assert_eq!(
            err(&["--format", "xml"], |a| a
                .choice("--format", &["human", "json"])
                .map(drop)),
            "--format: unknown value \"xml\" (human|json)"
        );
        assert_eq!(
            err(&["--clean-only=yes"], |a| a
                .switch("--clean-only")
                .map(drop)),
            "--clean-only takes no value"
        );
        assert_eq!(
            scan(&["--workers", "1", "--rate-pct=100"], |a| Ok((
                a.count("--workers")?,
                a.percent("--rate-pct")?
            ))),
            Ok((Some(1), Some(100)))
        );
    }

    #[test]
    fn supervision_flags_fill_the_fleet_options() {
        let (_, opts) = study_scan(&["--max-retries", "3"]).unwrap();
        assert_eq!(opts.max_retries, 3);
        let (_, opts) = study_scan(&["--task-budget-ms=250"]).unwrap();
        assert_eq!(opts.task_budget, Some(Duration::from_millis(250)));
        let (_, opts) = study_scan(&["--journal", "j.log"]).unwrap();
        assert_eq!(opts.journal.as_deref(), Some("j.log".as_ref()));
        assert!(opts.resume.is_none());
        let (jobs, opts) = study_scan(&["--jobs", "2"]).unwrap();
        assert_eq!((jobs, opts.max_retries), (Some(2), 0));
        assert!(opts.task_budget.is_none() && opts.journal.is_none());
    }

    #[test]
    fn supervision_flags_are_refused_outside_the_study_binaries() {
        for tokens in [
            &["--journal", "j.log"][..],
            &["--resume=j.log"],
            &["--max-retries", "3"],
            &["--task-budget-ms", "250"],
        ] {
            let err = scan(tokens, Args::jobs).unwrap_err();
            let flag = tokens[0].split('=').next().unwrap();
            assert!(err.contains(&format!("{flag:?}")), "{tokens:?}: {err}");
            assert!(err.contains("study binaries"), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn resume_reads_and_extends_the_same_journal() {
        let (jobs, opts) = study_scan(&["--resume", "j.log", "--jobs", "2"]).unwrap();
        assert_eq!(opts.resume.as_deref(), Some("j.log".as_ref()));
        assert_eq!(opts.journal.as_deref(), Some("j.log".as_ref()));
        assert_eq!(jobs, Some(2));
    }

    #[test]
    fn a_binary_gets_only_the_flags_it_takes() {
        // A flag the binary does not take is refused by name, never
        // ignored — `--jobs` included, where no fleet runs.
        let err = scan(&["--jobs", "2", "--view", "16"], Args::jobs).unwrap_err();
        assert!(err.contains("\"--view\""), "{err}");
        let err = scan(&["--jobs", "2"], |_| Ok(())).unwrap_err();
        assert_eq!(err, "unknown flag \"--jobs\"");
        assert!(study_scan(&["--jobs=2", "--journal=j.log"]).is_ok());
        // The flag name alone is reported, not its inline value.
        let err = scan(&["--corpus=tp27"], |_| Ok(())).unwrap_err();
        assert!(err.contains("\"--corpus\""), "{err}");
        // Retired flags are unknown everywhere: the kill switch is the
        // `DROIDSIM_NO_MEMO` env var, and every study runs supervised.
        for retired in ["--no-memo", "--keep-going"] {
            let err = study_scan(&[retired]).unwrap_err();
            assert!(err.contains(retired), "{err}");
        }
    }

    #[test]
    fn positionals_are_what_no_flag_took() {
        let err = scan(&["tp27"], |_| Ok(())).unwrap_err();
        assert!(err.contains("unexpected argument \"tp27\""), "{err}");
        assert_eq!(
            scan(&["a.json", "b.json"], |a| Ok(std::iter::from_fn(
                || a.positional()
            )
            .collect::<Vec<_>>())),
            Ok(vec!["a.json".to_owned(), "b.json".to_owned()])
        );
        // Flags are refused, not taken for a positional.
        let err = scan(&["--jobs", "2"], |a| Ok(a.positional())).unwrap_err();
        assert!(err.contains("\"--jobs\""), "{err}");
        assert_eq!(scan(&[], |a| Ok(a.positional())), Ok(None));
    }

    /// Parses a study binary's command line as its `main` does: the
    /// explicit `--jobs` and the supervision options.
    fn study(line: &str) -> (Option<usize>, FleetOptions) {
        study_scan(&line.split_whitespace().collect::<Vec<_>>())
            .unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    /// Retries, budget, journal and resume path of `opts`.
    fn knobs(opts: &FleetOptions) -> (u32, Option<Duration>, Option<&str>, Option<&str>) {
        (
            opts.max_retries,
            opts.task_budget,
            opts.journal.as_deref().and_then(std::path::Path::to_str),
            opts.resume.as_deref().and_then(std::path::Path::to_str),
        )
    }

    #[test]
    fn the_study_lines_the_repo_runs() {
        // The Makefile's and the contract test's digest runs.
        for jobs in [1, 2, 4] {
            let (j, opts) = study(&format!("--jobs {jobs}"));
            assert_eq!(j, Some(jobs));
            assert_eq!(knobs(&opts), (0, None, None, None));
        }
        let (j, opts) = study("");
        assert_eq!(j, None);
        assert_eq!(knobs(&opts), (0, None, None, None));
        // The Makefile's journal-and-resume check.
        let (j, opts) = study("--jobs 2 --journal target/t5.journal");
        assert_eq!(j, Some(2));
        assert_eq!(knobs(&opts), (0, None, Some("target/t5.journal"), None));
        let (j, opts) = study("--jobs 2 --resume target/t5.journal");
        assert_eq!(j, Some(2));
        assert_eq!(
            knobs(&opts),
            (
                0,
                None,
                Some("target/t5.journal"),
                Some("target/t5.journal")
            )
        );
        // The README's.
        let (j, opts) = study("--jobs 4 --journal results/t5.journal");
        assert_eq!(j, Some(4));
        assert_eq!(knobs(&opts), (0, None, Some("results/t5.journal"), None));
        let (j, opts) = study("--jobs 4 --resume results/t5.journal");
        assert_eq!(j, Some(4));
        assert_eq!(
            knobs(&opts),
            (
                0,
                None,
                Some("results/t5.journal"),
                Some("results/t5.journal")
            )
        );
        let (j, opts) = study("--max-retries 3 --task-budget-ms=250");
        assert_eq!(j, None);
        assert_eq!(
            knobs(&opts),
            (3, Some(Duration::from_millis(250)), None, None)
        );
    }
}

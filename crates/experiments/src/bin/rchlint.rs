//! `rchlint` — the static migration-safety analyzer.
//!
//! ```text
//! rchlint [--corpus tp27|top100|dataloss|all] [--format human|json|sarif]
//!         [--output PATH] [--allow [APP:]CODE]... [--only APP]
//!         [--clean-only] [--deny-warnings] [--differential]
//!         [--table PATH] [--jobs N] [--version]
//! ```
//!
//! Default mode lints every corpus app with the `RCH0xx` passes
//! (structural `RCH001`–`RCH006` plus the data-loss dataflow family
//! `RCH007`–`RCH012`) and prints diagnostics plus the run ledger.
//! `--differential` instead replays each app through the dynamic §6
//! oracle — under stock, RCHDroid and RuntimeDroid — and fails on any
//! field-level disagreement with the static verdict, printing a
//! one-line repro recipe per disagreement; when the run covers the
//! `dataloss` corpus, `--table PATH` additionally writes the per-class
//! loss-rate CSV (`results/table_dataloss.csv`).
//!
//! Determinism contract: the report digest — and, in `--format json`,
//! every byte on stdout / in `--output` — is identical for any
//! `--jobs` value. Jobs-dependent status lines therefore go to stderr
//! in JSON mode.
//!
//! Exit codes: 0 clean; 1 findings of error severity (or warnings
//! under `--deny-warnings`) or a differential disagreement; 2 usage
//! error.

use droidsim_analysis::{analyze_specs, Suppressions};
use droidsim_fleet::combine_ordered;
use rch_experiments::{differential, Args};
use rch_workloads::{dataloss_specs, top100_specs, tp27_specs, GenericAppSpec};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

#[derive(Debug, PartialEq)]
struct LintCli {
    corpus: String,
    format: Format,
    output: Option<String>,
    allow: Suppressions,
    only: Option<String>,
    clean_only: bool,
    deny_warnings: bool,
    differential: bool,
    table: Option<String>,
}

/// Takes `rchlint`'s own flags (everything but `--jobs`).
fn parse_cli(args: &mut Args) -> Result<LintCli, String> {
    Ok(LintCli {
        corpus: args
            .choice("--corpus", &["tp27", "top100", "dataloss", "all"])?
            .unwrap_or("all")
            .to_owned(),
        format: match args.choice("--format", &["human", "json", "sarif"])? {
            Some("json") => Format::Json,
            Some("sarif") => Format::Sarif,
            _ => Format::Human,
        },
        output: args.value("--output")?,
        allow: Suppressions::parse(args.values("--allow")?)?,
        only: args.value("--only")?,
        clean_only: args.switch("--clean-only")?,
        deny_warnings: args.switch("--deny-warnings")?,
        differential: args.switch("--differential")?,
        table: args.value("--table")?,
    })
}

fn corpora(corpus: &str) -> Vec<&'static str> {
    match corpus {
        "all" => vec!["tp27", "top100", "dataloss"],
        "tp27" => vec!["tp27"],
        "top100" => vec!["top100"],
        "dataloss" => vec!["dataloss"],
        _ => unreachable!("validated at parse time"),
    }
}

fn lint_specs(cli: &LintCli) -> Result<Vec<GenericAppSpec>, String> {
    let mut specs = Vec::new();
    for c in corpora(&cli.corpus) {
        specs.extend(match c {
            "tp27" => tp27_specs(),
            "top100" => top100_specs(),
            _ => dataloss_specs(),
        });
    }
    if let Some(name) = &cli.only {
        specs.retain(|s| &s.name == name);
        if specs.is_empty() {
            return Err(format!(
                "--only: no app named {name:?} in corpus {}",
                cli.corpus
            ));
        }
    }
    if cli.clean_only {
        specs.retain(|s| !s.has_issue());
    }
    Ok(specs)
}

fn emit(cli: &LintCli, rendered: &str) -> Result<(), String> {
    match &cli.output {
        Some(path) => std::fs::write(path, rendered).map_err(|e| format!("--output {path}: {e}")),
        None => {
            print!("{rendered}");
            Ok(())
        }
    }
}

fn main() {
    let (cli, cfg) = Args::cli(|args| Ok((parse_cli(args)?, args.fleet(0)?)));

    let mut failed = false;
    if cli.differential {
        let mut digests = Vec::new();
        for corpus in corpora(&cli.corpus) {
            let report = differential::run_corpus(corpus, cli.only.as_deref(), &cfg)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                });
            print!("{}", report.render());
            failed |= !report.disagreements().is_empty();
            digests.push(report.digest());
        }
        println!(
            "=> fleet: jobs={} differential digest {:016x}",
            cfg.jobs,
            combine_ordered(digests),
        );
        if let Some(path) = &cli.table {
            let csv = differential::dataloss_table_csv(&differential::dataloss_table());
            if let Err(e) = std::fs::write(path, csv) {
                eprintln!("error: --table {path}: {e}");
                std::process::exit(2);
            }
            println!("=> table: wrote per-class loss rates to {path}");
        }
    } else {
        let specs = lint_specs(&cli).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let report = analyze_specs(&specs, &cfg, &cli.allow);
        let rendered = match cli.format {
            Format::Human => report.render_human(),
            Format::Json => report.render_json(),
            Format::Sarif => report.render_sarif(),
        };
        if let Err(e) = emit(&cli, &rendered) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        let digest_line = format!(
            "=> fleet: jobs={} analysis digest {:016x}",
            cfg.jobs,
            report.digest()
        );
        // Jobs-dependent: must not contaminate the byte-stable JSON
        // stream CI diffs across worker counts.
        if cli.format != Format::Human || cli.output.is_some() {
            eprintln!("{digest_line}");
        } else {
            println!("{digest_line}");
        }
        failed = report.errors() > 0 || (cli.deny_warnings && report.warnings() > 0);
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses one command line as `main` does: the lint flags and the
    /// explicit `--jobs`.
    fn parse(line: &str) -> (LintCli, Option<usize>) {
        Args::new(line.split_whitespace())
            .parse(|args| Ok((parse_cli(args)?, args.jobs()?)))
            .unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    /// What `rchlint` does without flags.
    fn defaults() -> LintCli {
        LintCli {
            corpus: "all".to_owned(),
            format: Format::Human,
            output: None,
            allow: Suppressions::none(),
            only: None,
            clean_only: false,
            deny_warnings: false,
            differential: false,
            table: None,
        }
    }

    #[test]
    fn no_flags_lints_every_corpus() {
        assert_eq!(parse(""), (defaults(), None));
    }

    #[test]
    fn the_makefile_lines() {
        assert_eq!(
            parse("--corpus all --clean-only --deny-warnings"),
            (
                LintCli {
                    clean_only: true,
                    deny_warnings: true,
                    ..defaults()
                },
                None
            )
        );
        for jobs in [1, 4] {
            assert_eq!(
                parse(&format!("--differential --corpus all --jobs {jobs}")),
                (
                    LintCli {
                        differential: true,
                        ..defaults()
                    },
                    Some(jobs)
                )
            );
        }
        assert_eq!(
            parse("--differential --corpus dataloss --jobs 1"),
            (
                LintCli {
                    corpus: "dataloss".to_owned(),
                    differential: true,
                    ..defaults()
                },
                Some(1)
            )
        );
        assert_eq!(
            parse("--differential --corpus dataloss --jobs 4 --table target/table_dataloss.csv"),
            (
                LintCli {
                    corpus: "dataloss".to_owned(),
                    differential: true,
                    table: Some("target/table_dataloss.csv".to_owned()),
                    ..defaults()
                },
                Some(4)
            )
        );
    }

    #[test]
    fn the_ci_and_golden_lines() {
        assert_eq!(
            parse("--corpus all --format json --output rchlint-diagnostics.json"),
            (
                LintCli {
                    format: Format::Json,
                    output: Some("rchlint-diagnostics.json".to_owned()),
                    ..defaults()
                },
                None
            )
        );
        assert_eq!(
            parse("--corpus tp27 --format sarif"),
            (
                LintCli {
                    corpus: "tp27".to_owned(),
                    format: Format::Sarif,
                    ..defaults()
                },
                None
            )
        );
    }

    #[test]
    fn the_readme_lines() {
        assert_eq!(
            parse("--corpus tp27 --only DiskDiggerPro"),
            (
                LintCli {
                    corpus: "tp27".to_owned(),
                    only: Some("DiskDiggerPro".to_owned()),
                    ..defaults()
                },
                None
            )
        );
        assert_eq!(
            parse("--corpus dataloss --only DlSubState001"),
            (
                LintCli {
                    corpus: "dataloss".to_owned(),
                    only: Some("DlSubState001".to_owned()),
                    ..defaults()
                },
                None
            )
        );
        assert_eq!(
            parse("--corpus dataloss --allow RCH010 --allow DlSubState001:RCH008"),
            (
                LintCli {
                    corpus: "dataloss".to_owned(),
                    allow: Suppressions::parse(["RCH010", "DlSubState001:RCH008"]).unwrap(),
                    ..defaults()
                },
                None
            )
        );
    }

    #[test]
    fn invalid_values_and_stray_tokens_are_usage_errors() {
        for (line, names) in [
            ("--corpus nope", "--corpus"),
            ("--format xml", "--format"),
            ("--allow RCH999", "--allow"),
            ("--jobs 0", "--jobs"),
            ("--output", "--output"),
            ("--journal j.log", "--journal"),
            ("--corpus tp27 --bogus", "--bogus"),
        ] {
            let err = Args::new(line.split_whitespace())
                .parse(|args| Ok((parse_cli(args)?, args.jobs()?)))
                .err()
                .unwrap_or_else(|| panic!("{line} parsed"));
            assert!(err.contains(names), "{line}: {err}");
        }
    }
}

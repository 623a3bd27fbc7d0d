//! The study binaries end to end: `table5`, `fig10` and `ablation` print
//! their committed digests at any worker count, and the binaries that
//! run no supervised study refuse the supervision flags and unknown
//! flags by name.

use std::process::{Command, Output};

/// The committed same-behaviour digests, `NAME=hex` per line.
const DIGESTS: &str = include_str!("../../../tests/golden/digests.env");

fn committed(name: &str) -> &'static str {
    DIGESTS
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {name} in tests/golden/digests.env"))
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("DROIDSIM_JOBS")
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"))
}

#[test]
fn study_binaries_print_the_committed_digests() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_table5"), "TABLE5"),
        (env!("CARGO_BIN_EXE_fig10"), "FIG10"),
        (env!("CARGO_BIN_EXE_ablation"), "ABLATION"),
    ] {
        for jobs in ["1", "2"] {
            let out = run(bin, &["--jobs", jobs]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{name} --jobs {jobs}:\n{stdout}");
            let last = stdout.lines().last().unwrap_or_default();
            assert!(
                last.starts_with(&format!("=> fleet: jobs={jobs} ")),
                "{name} --jobs {jobs}: {last}"
            );
            assert_eq!(
                last.rsplit(' ').next(),
                Some(committed(name)),
                "{name} --jobs {jobs}: {last}"
            );
            assert!(
                stdout.contains(&format!("fleet report: jobs={jobs} seed=0 ")),
                "{name} --jobs {jobs}: every run ends with its fleet report"
            );
        }
    }
}

#[test]
fn supervision_flags_are_refused_outside_the_study_binaries() {
    let dir = std::env::temp_dir().join(format!("study-binaries-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("refused.journal");
    let journal = journal.to_str().unwrap();
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_rchlint"),
            &[
                "--corpus",
                "tp27",
                "--journal",
                journal,
                "--max-retries",
                "3",
            ][..],
        ),
        (
            env!("CARGO_BIN_EXE_all"),
            &["--journal", journal, "--max-retries", "2"],
        ),
        (env!("CARGO_BIN_EXE_fig7"), &["--journal", journal]),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("\"--journal\""), "{bin}: {stderr}");
        assert!(
            !std::path::Path::new(journal).exists(),
            "{bin} wrote a journal"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binaries_without_flags_refuse_unknown_ones() {
    // `export`'s one argument is a directory: a flag must not become one.
    let dir = std::env::temp_dir().join(format!("unknown-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (bin, args, flag) in [
        (
            env!("CARGO_BIN_EXE_table3"),
            &["--bogus"][..],
            "\"--bogus\"",
        ),
        (env!("CARGO_BIN_EXE_export"), &["--jobs", "2"], "\"--jobs\""),
    ] {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap_or_else(|e| panic!("{bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} ran anyway");
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "export wrote into {dir:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

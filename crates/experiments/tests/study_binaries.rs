//! The binaries end to end: `table5`, `fig10` and `ablation` print
//! their committed digests at any worker count, and every binary keeps
//! one command-line contract — `--version` answers, and a flag the
//! binary does not take is refused by name before any work starts.

use std::path::PathBuf;
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

/// Every binary of the crate, by name.
const BINARIES: [(&str, &str); 20] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("all", env!("CARGO_BIN_EXE_all")),
    ("bench_gate", env!("CARGO_BIN_EXE_bench_gate")),
    ("breakdown", env!("CARGO_BIN_EXE_breakdown")),
    ("droidsim-load", env!("CARGO_BIN_EXE_droidsim-load")),
    ("droidsimd", env!("CARGO_BIN_EXE_droidsimd")),
    ("energy", env!("CARGO_BIN_EXE_energy")),
    ("export", env!("CARGO_BIN_EXE_export")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("fig12", env!("CARGO_BIN_EXE_fig12")),
    ("fig13", env!("CARGO_BIN_EXE_fig13")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("rchlint", env!("CARGO_BIN_EXE_rchlint")),
    ("soak", env!("CARGO_BIN_EXE_soak")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("table5", env!("CARGO_BIN_EXE_table5")),
    ("variance", env!("CARGO_BIN_EXE_variance")),
];

/// Runs binary `name` with `args` in a fresh, empty directory; returns
/// its output and the names of whatever it left there.
fn run_in_empty_dir(name: &str, args: &[&str]) -> (Output, Vec<PathBuf>) {
    run_in_empty_dir_with(name, args, None)
}

/// [`run_in_empty_dir`] with `DROIDSIM_JOBS` set to `jobs`, or unset.
fn run_in_empty_dir_with(name: &str, args: &[&str], jobs: Option<&str>) -> (Output, Vec<PathBuf>) {
    let bin = BINARIES
        .iter()
        .find_map(|&(n, path)| (n == name).then_some(path))
        .unwrap_or_else(|| panic!("no binary {name}"));
    let dir = std::env::temp_dir().join(format!(
        "binary-contract-{}-{name}-{}",
        std::process::id(),
        args.join("_").replace(['/', '-'], "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut command = Command::new(bin);
    command
        .args(args)
        .current_dir(&dir)
        .env_remove("DROIDSIM_JOBS");
    if let Some(jobs) = jobs {
        command.env("DROIDSIM_JOBS", jobs);
    }
    let out = command.output().unwrap_or_else(|e| panic!("{name}: {e}"));
    let left = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| PathBuf::from(e.unwrap().file_name()))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (out, left)
}

#[test]
fn every_binary_answers_version() {
    for (name, _) in BINARIES {
        let (out, left) = run_in_empty_dir(name, &["--version"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name} --version: {stdout}");
        assert_eq!(stdout, format!("{name} {}\n", env!("CARGO_PKG_VERSION")));
        assert!(left.is_empty(), "{name} --version left {left:?}");
    }
}

#[test]
fn every_binary_refuses_a_flag_it_does_not_take() {
    // `--bogus` everywhere; `--jobs` where no fleet runs (`export`'s one
    // argument is a directory, and a flag must not become one); the
    // supervision flags outside the study binaries; and `soak`, whose
    // only flag is `--version`, must not start its soak (it would
    // create `target/soak`).
    let mut cases: Vec<(&str, Vec<&str>, &str)> = BINARIES
        .iter()
        .map(|&(name, _)| (name, vec!["--bogus"], "\"--bogus\""))
        .collect();
    cases.extend([
        ("fig9", vec!["--jobs", "2"], "\"--jobs\""),
        ("table3", vec!["--jobs", "2"], "\"--jobs\""),
        ("export", vec!["--jobs", "2"], "\"--jobs\""),
        ("soak", vec!["--journal", "x"], "\"--journal\""),
        (
            "rchlint",
            vec!["--corpus", "tp27", "--journal", "j", "--max-retries", "3"],
            "\"--journal\"",
        ),
        (
            "all",
            vec!["--journal", "j", "--max-retries", "2"],
            "\"--journal\"",
        ),
        ("fig7", vec!["--journal", "j"], "\"--journal\""),
    ]);
    let mut broken = Vec::new();
    for (name, args, flag) in cases {
        let (out, left) = run_in_empty_dir(name, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if out.status.code() != Some(2)
            || !stderr.contains(flag)
            || !out.stdout.is_empty()
            || !left.is_empty()
        {
            broken.push(format!(
                "{name} {args:?}: {:?}, created {left:?}, stderr {stderr:?}",
                out.status.code()
            ));
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn export_refuses_an_invalid_worker_count_before_writing() {
    // Fig. 10 and Table 5 run fleets, so a bad `DROIDSIM_JOBS` must stop
    // `export` before its first CSV, not after three.
    let (out, left) = run_in_empty_dir_with("export", &["out"], Some("three"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr:?}");
    assert!(stderr.contains("DROIDSIM_JOBS"), "stderr {stderr:?}");
    assert!(out.stdout.is_empty());
    assert!(left.is_empty(), "export left {left:?}");
}

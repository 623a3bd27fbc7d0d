//! Documentation gate: every repository path that DESIGN.md, README.md
//! and the verify skill cite in backticks exists, and every cited
//! `file.rs::name` names a file that defines `fn name`.
//!
//! A cited path starts at the repository root with one of [`ROOTS`]; a
//! `*` in its last component must match some entry of its directory,
//! and a `<placeholder>` is not checked. A `file.rs::name` citation may
//! also give the bare file name, which any file of that name in the
//! repository can satisfy.

use std::fs;
use std::path::{Path, PathBuf};

/// The documents checked, relative to the repository root.
const DOCS: [&str; 3] = ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"];

/// The top-level directories a cited repository path starts with.
const ROOTS: [&str; 7] = [
    "crates/",
    "tests/",
    "src/",
    "examples/",
    "scripts/",
    "results/",
    "rchbench/",
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` named `name`, skipping build output.
fn files_named(dir: &Path, name: &str, found: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !matches!(entry.file_name().to_str(), Some("target" | ".git")) {
                files_named(&path, name, found);
            }
        } else if entry.file_name().to_str() == Some(name) {
            found.push(path);
        }
    }
}

/// Whether `path`, relative to the repository root, exists; a `*` in
/// its last component matches any run of characters.
fn exists(path: &str) -> bool {
    let Some((prefix, suffix)) = path.split_once('*') else {
        return repo().join(path).exists();
    };
    let (dir, head) = prefix.rsplit_once('/').unwrap_or(("", prefix));
    let Ok(entries) = fs::read_dir(repo().join(dir)) else {
        return false;
    };
    entries.flatten().any(|entry| {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        name.len() >= head.len() + suffix.len() && name.starts_with(head) && name.ends_with(suffix)
    })
}

/// What is wrong with one backticked span, if it cites something the
/// repository lacks. Only the span's first word is read, so a cited
/// command line is checked by the script it runs.
fn stale(span: &str) -> Option<String> {
    let word = span.split_whitespace().next()?;
    if word.contains(['<', '>']) {
        return None;
    }
    let (path, item) = match word.split_once(".rs::") {
        Some((file, item)) => (format!("{file}.rs"), Some(item)),
        None => (word.to_owned(), None),
    };
    let rooted = ROOTS.iter().any(|root| path.starts_with(root));
    if rooted && !exists(&path) {
        return Some(format!("`{word}`: no such path"));
    }
    let item = item?;
    let name = item.rsplit("::").next()?.trim_end_matches("()");
    let files = if rooted {
        vec![repo().join(&path)]
    } else {
        let mut found = Vec::new();
        files_named(repo(), &path, &mut found);
        found
    };
    let defines = |file: &PathBuf| {
        let text = fs::read_to_string(file).unwrap_or_default();
        text.contains(&format!("fn {name}(")) || text.contains(&format!("fn {name}<"))
    };
    if files.iter().any(defines) {
        None
    } else if files.is_empty() {
        Some(format!("`{word}`: no file named `{path}`"))
    } else {
        Some(format!("`{word}`: no `fn {name}` in `{path}`"))
    }
}

#[test]
fn cited_paths_and_functions_exist() {
    let mut failures = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(repo().join(doc)).expect("a checked document is readable");
        // Odd pieces of a split on backticks are the code spans; a fenced
        // block's three backticks flip the parity once at each end.
        for span in text.split('`').skip(1).step_by(2) {
            if let Some(failure) = stale(span) {
                failures.push(format!("{doc}: {failure}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "stale citations:\n{}",
        failures.join("\n")
    );
}

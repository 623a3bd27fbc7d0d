//! Exports every figure's data as CSV.
//!
//! ```text
//! export [DIR] [--version]
//! ```
//!
//! Writes the CSVs into DIR (default `./results`). It takes no flag but
//! `--version`: a flag is refused, never taken for the directory.
fn main() {
    let dir = rch_experiments::Args::cli(|args| Ok(args.positional()))
        .unwrap_or_else(|| "results".to_owned());
    let written =
        rch_experiments::report::export_all(std::path::Path::new(&dir)).expect("export succeeds");
    for path in written {
        println!("wrote {}", path.display());
    }
}

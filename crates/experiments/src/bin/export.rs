//! Exports every figure's data as CSV.
//!
//! ```text
//! export [DIR] [--version]
//! ```
//!
//! Writes the CSVs into DIR (default `./results`). It takes no flag but
//! `--version`: a flag is refused, never taken for the directory. The
//! two studies it runs take their worker count from `DROIDSIM_JOBS`
//! (else every core); an invalid value exits 2 before anything is
//! written.
use droidsim_fleet::FleetConfig;

fn main() {
    let (dir, cfg) = rch_experiments::Args::cli(|args| {
        let dir = args.positional();
        let cfg = FleetConfig::try_from_env(None, 0).map_err(|e| e.to_string())?;
        Ok((dir, cfg))
    });
    let dir = dir.unwrap_or_else(|| "results".to_owned());
    let written = rch_experiments::report::export_all(std::path::Path::new(&dir), &cfg)
        .expect("export succeeds");
    for path in written {
        println!("wrote {}", path.display());
    }
}

//! Exports every figure's data as CSV: `export [dir]` (default ./results).
fn main() {
    rch_experiments::version_flag();
    // The one argument is a directory; a flag is never taken for one.
    if let Some(arg) = std::env::args().skip(1).find(|a| a.starts_with("--")) {
        let flag = arg.split('=').next().unwrap_or(&arg);
        eprintln!("error: unknown flag {flag:?} (usage: export [dir])");
        std::process::exit(2);
    }
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results".to_owned());
    let written =
        rch_experiments::report::export_all(std::path::Path::new(&dir)).expect("export succeeds");
    for path in written {
        println!("wrote {}", path.display());
    }
}

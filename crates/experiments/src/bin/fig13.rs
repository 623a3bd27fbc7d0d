//! Regenerates the Fig. 13 showcase as textual state dumps.
//!
//! ```text
//! fig13 [--version]
//! ```
//!
//! It takes no other flag: it runs no fleet, so `--jobs` is refused
//! like any flag it does not take (exit 2).
fn main() {
    rch_experiments::Args::cli(|_| Ok(()));
    print!("{}", rch_experiments::fig13::run().render());
}

//! Regenerates the paper's fig11 result; see `rch_experiments::fig11`.
//!
//! ```text
//! fig11 [--version]
//! ```
//!
//! It takes no other flag: it runs no fleet, so `--jobs` is refused
//! like any flag it does not take (exit 2).
fn main() {
    rch_experiments::Args::cli(|_| Ok(()));
    print!("{}", rch_experiments::fig11::run().render());
}

//! Regenerates the paper's fig7 result; see `rch_experiments::fig7`.
//!
//! ```text
//! fig7 [--version]
//! ```
//!
//! It takes no other flag: it runs no fleet, so `--jobs` is refused
//! like any flag it does not take (exit 2).
fn main() {
    rch_experiments::Args::cli(|_| Ok(()));
    print!("{}", rch_experiments::fig7::run().render());
}

//! Regenerates the paper's energy result; see `rch_experiments::energy`.
//!
//! ```text
//! energy [--version]
//! ```
//!
//! It takes no other flag: it runs no fleet, so `--jobs` is refused
//! like any flag it does not take (exit 2).
fn main() {
    rch_experiments::Args::cli(|_| Ok(()));
    print!("{}", rch_experiments::energy::run().render());
}

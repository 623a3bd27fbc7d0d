//! Regenerates the paper's table3 result; see `rch_experiments::table3`.
//!
//! ```text
//! table3 [--version]
//! ```
//!
//! It takes no other flag: it runs no fleet, so `--jobs` is refused
//! like any flag it does not take (exit 2).
fn main() {
    rch_experiments::Args::cli(|_| Ok(()));
    print!("{}", rch_experiments::table3::run().render());
}

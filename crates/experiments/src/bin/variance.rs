//! Checks the paper's §5.1 measurement protocol under injected jitter.
//!
//! ```text
//! variance [--version]
//! ```
//!
//! It takes no other flag: it runs no fleet, so `--jobs` is refused
//! like any flag it does not take (exit 2).
fn main() {
    rch_experiments::Args::cli(|_| Ok(()));
    print!("{}", rch_experiments::variance::run().render());
}

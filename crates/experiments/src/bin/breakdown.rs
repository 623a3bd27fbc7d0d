//! Prints the per-step cost decomposition of every handling path.
//!
//! ```text
//! breakdown [--version]
//! ```
//!
//! It takes no other flag: it runs no fleet, so `--jobs` is refused
//! like any flag it does not take (exit 2).
fn main() {
    rch_experiments::Args::cli(|_| Ok(()));
    print!("{}", rch_experiments::breakdown::run().render());
}

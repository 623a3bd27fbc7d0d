//! Prints the per-step cost decomposition of every handling path.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::breakdown::run().render());
}

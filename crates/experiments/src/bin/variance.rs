//! Checks the paper's §5.1 measurement protocol under injected jitter.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::variance::run().render());
}

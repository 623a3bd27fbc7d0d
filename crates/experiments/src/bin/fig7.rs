//! Regenerates the paper's fig7 result; see `rch_experiments::fig7`.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::fig7::run().render());
}

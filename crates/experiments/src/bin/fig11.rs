//! Regenerates the paper's fig11 result; see `rch_experiments::fig11`.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::fig11::run().render());
}

//! Regenerates the paper's fig12 result; see `rch_experiments::fig12`.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::fig12::run().render());
}

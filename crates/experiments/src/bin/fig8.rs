//! Regenerates the paper's fig8 result; see `rch_experiments::fig8`.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::fig8::run().render());
}

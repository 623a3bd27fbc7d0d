//! Regenerates the paper's fig9 result; see `rch_experiments::fig9`.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::fig9::run().render());
}

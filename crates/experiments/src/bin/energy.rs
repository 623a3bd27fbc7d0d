//! Regenerates the paper's energy result; see `rch_experiments::energy`.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::energy::run().render());
}

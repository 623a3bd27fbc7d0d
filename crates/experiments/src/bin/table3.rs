//! Regenerates the paper's table3 result; see `rch_experiments::table3`.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::table3::run().render());
}

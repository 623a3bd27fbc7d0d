//! Regenerates the Fig. 13 showcase as textual state dumps.
fn main() {
    rch_experiments::FleetCli::from_args();
    print!("{}", rch_experiments::fig13::run().render());
}

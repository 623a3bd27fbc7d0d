//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! all [--jobs N] [--version]
//! ```
//!
//! The fleet-ported harnesses (Fig. 10, Table 5, the ablation) run on
//! `--jobs N` workers (else `DROIDSIM_JOBS=N`, else every core); every
//! result is identical for any worker count. The supervision flags
//! belong to the study binaries alone, and are refused here by name.
use rch_experiments::{ablation, fig10, table5, Args};

fn main() {
    let cfg = Args::cli(|args| args.fleet(0));
    println!("==== Table 3 ====");
    print!("{}", rch_experiments::table3::run().render());
    println!("\n==== Fig. 7 ====");
    print!("{}", rch_experiments::fig7::run().render());
    println!("\n==== Fig. 8 ====");
    print!("{}", rch_experiments::fig8::run().render());
    println!("\n==== Fig. 9 ====");
    print!("{}", rch_experiments::fig9::run().render());
    println!("\n==== Fig. 10 ====");
    print!("{}", fig10::STUDY.complete(&cfg).render());
    println!("\n==== Fig. 11 ====");
    print!("{}", rch_experiments::fig11::run().render());
    println!("\n==== Fig. 12 / Table 4 ====");
    print!("{}", rch_experiments::fig12::run().render());
    println!("\n==== Fig. 13 ====");
    print!("{}", rch_experiments::fig13::run().render());
    println!("\n==== Table 5 / Fig. 14 ====");
    print!("{}", table5::STUDY.complete(&cfg).render());
    println!("\n==== §5.6 Energy ====");
    print!("{}", rch_experiments::energy::run().render());
    println!("\n==== Ablation (beyond the paper) ====");
    print!("{}", ablation::STUDY.complete(&cfg).render());
}

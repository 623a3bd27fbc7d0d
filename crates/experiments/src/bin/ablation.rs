//! Runs the design-choice ablation study; see `rch_experiments::ablation`.
//!
//! ```text
//! ablation [--jobs N] [--max-retries N] [--task-budget-ms N]
//!          [--journal PATH] [--resume PATH] [--version]
//! ```
//!
//! `--jobs N` (or `DROIDSIM_JOBS=N`) partitions the arms across N
//! workers; the table and digest are identical for any worker count.
//! Runs supervised, like `table5` (see it for the flag contract); exits
//! 1 if any arm stays quarantined after retries.
fn main() {
    rch_experiments::ablation::STUDY.main();
}

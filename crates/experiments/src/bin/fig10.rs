//! Regenerates the paper's fig10 result; see `rch_experiments::fig10`.
//!
//! ```text
//! fig10 [--jobs N] [--max-retries N] [--task-budget-ms N]
//!       [--journal PATH] [--resume PATH] [--version]
//! ```
//!
//! `--jobs N` (or `DROIDSIM_JOBS=N`) partitions the sweep points across
//! N workers; the rows and digest are identical for any worker count.
//! Runs supervised, like `table5` (see it for the flag contract); exits
//! 1 if any sweep point stays quarantined after retries.
fn main() {
    rch_experiments::fig10::STUDY.main();
}

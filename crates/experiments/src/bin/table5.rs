//! Regenerates the paper's table5 result; see `rch_experiments::table5`.
//!
//! ```text
//! table5 [--jobs N] [--max-retries N] [--task-budget-ms N]
//!        [--journal PATH] [--resume PATH] [--version]
//! ```
//!
//! `--jobs N` (or `DROIDSIM_JOBS=N`) partitions the 100 apps across N
//! workers; the rows and digest are identical for any worker count.
//!
//! Every run is supervised: a panicking app costs only its own row, and
//! the output ends with the fleet report and the digest line.
//! `--max-retries N` / `--task-budget-ms N` tune retries and the stall
//! watchdog, `--journal PATH` checkpoints completed apps, and
//! `--resume PATH` continues an interrupted study from its journal —
//! the resumed digest equals an uninterrupted run's. Exits 1 if any app
//! stays quarantined after retries, 2 on a usage or journal error.
fn main() {
    rch_experiments::table5::STUDY.main();
}

//! The one way a fleet study runs: supervised, ending in its fleet report.
//!
//! [`table5`](crate::table5), [`fig10`](crate::fig10) and
//! [`ablation`](crate::ablation) each describe themselves as a [`Study`]:
//! the items, the per-item task and digest, how a complete run renders,
//! and the one line a fresh row gets in a partial table. Everything else
//! is shared: every run goes through
//! [`run_fleet_supervised`], so
//! panics are isolated, transient faults retried on the same per-task
//! RNG stream, stalls timed out, and — with a journal — every completed
//! task checkpointed for `--resume`. Without flags that is the plain
//! contract: no retries, no watchdog, no journal.

use droidsim_fleet::{
    run_fleet_supervised, FleetConfig, FleetError, FleetOptions, FleetRun, TaskCtx, TaskOutcome,
};

use crate::Args;

/// A fleet study harness. `T` is one task's item, `R` its row, and `S`
/// the assembled result of a complete run.
pub struct Study<T, R, S> {
    /// Heading of a partial table.
    pub(crate) partial_title: &'static str,
    /// What one task is called in partial tables and the PARTIAL line.
    pub(crate) unit: &'static str,
    /// What the digest line calls the run (`study` or `sweep`).
    pub(crate) digest_label: &'static str,
    /// The study's items, in item order.
    pub(crate) items: fn() -> Vec<T>,
    /// One task: measures one item.
    pub(crate) measure: fn(TaskCtx, T) -> R,
    /// A row's digest — what the journal records and the study digest
    /// folds in item order.
    pub(crate) digest: fn(&R) -> u64,
    /// Assembles every row of a complete run.
    pub(crate) assemble: fn(Vec<R>) -> S,
    /// Renders a complete run.
    pub(crate) render_full: fn(&S) -> String,
    /// One line for a fresh row of a partial table.
    pub(crate) partial_row: fn(&R) -> String,
}

impl<T, R, S> Study<T, R, S>
where
    T: Clone + Send + Sync + 'static,
    R: Clone + Send + 'static,
{
    /// Runs the study under fleet supervision: per-item outcomes in item
    /// order, their digests, and the fleet report.
    pub fn run(&self, cfg: &FleetConfig, opts: &FleetOptions) -> Result<FleetRun<R>, FleetError> {
        self.run_first(usize::MAX, cfg, opts)
    }

    /// [`Study::run`] over the study's first `n` items (every item when
    /// it has fewer): a daemon job's or the soak's sized study.
    pub fn run_first(
        &self,
        n: usize,
        cfg: &FleetConfig,
        opts: &FleetOptions,
    ) -> Result<FleetRun<R>, FleetError> {
        let mut items = (self.items)();
        items.truncate(n);
        run_fleet_supervised(cfg, opts, items, self.measure, self.digest)
    }

    /// The complete study on `cfg`'s workers, for callers that need
    /// every row (tests, `export`, examples, `all`).
    ///
    /// # Panics
    ///
    /// Panics with the fleet report when any task was lost.
    pub fn complete(&self, cfg: &FleetConfig) -> S {
        let run = self
            .run(cfg, &FleetOptions::new())
            .expect("a run without a journal does no I/O");
        match fresh_rows(&run) {
            Some(rows) => (self.assemble)(rows),
            None => panic!("incomplete study run\n{}", run.report.render()),
        }
    }

    /// Renders a run. A complete fresh run gets the full table;
    /// otherwise the fresh rows print with placeholders for resumed and
    /// lost items. Either way the fleet report (with the QUARANTINED
    /// footer when tasks were lost) closes the output.
    pub fn render(&self, run: &FleetRun<R>) -> String {
        let mut out = match fresh_rows(run) {
            Some(rows) => (self.render_full)(&(self.assemble)(rows)),
            None => {
                let mut out = format!("{}\n", self.partial_title);
                for (i, o) in run.outcomes.iter().enumerate() {
                    let line = match o {
                        TaskOutcome::Ok(r) => (self.partial_row)(r),
                        TaskOutcome::Skipped { digest, .. } => format!(
                            "{} {i}: (resumed from journal, digest {digest:016x})",
                            self.unit
                        ),
                        _ => format!("{} {i}: (LOST: {})", self.unit, o.tag()),
                    };
                    out.push_str(&line);
                    out.push('\n');
                }
                out
            }
        };
        out.push('\n');
        out.push_str(&run.report.render());
        out
    }

    /// The `main` of a study binary: takes `--jobs` and the supervision
    /// flags and no other, runs the study, and prints the render and the
    /// `=> fleet: jobs=N … digest <hex>` line. Exits 1 when a task was
    /// lost (the line then says PARTIAL) and 2 on a usage or journal
    /// error.
    pub fn main(&self) {
        let (cfg, options) = Args::cli(|args| Ok((args.fleet(0)?, args.supervision()?)));
        let run = self.run(&cfg, &options).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        print!("{}", self.render(&run));
        let label = self.digest_label;
        match run.combined_digest() {
            Some(d) => println!("=> fleet: jobs={} {label} digest {d:016x}", cfg.jobs),
            None => {
                println!(
                    "=> fleet: jobs={} {label} digest PARTIAL ({} {}(s) quarantined)",
                    cfg.jobs,
                    run.report.quarantined.len(),
                    self.unit
                );
                std::process::exit(1);
            }
        }
    }
}

/// Every row, when every task produced a fresh one this run (`None`
/// after a resume or when any task is lost).
fn fresh_rows<R: Clone>(run: &FleetRun<R>) -> Option<Vec<R>> {
    run.outcomes.iter().map(|o| o.ok().cloned()).collect()
}

//! CSV export: every figure's series as a plottable file.
//!
//! The paper's artifact produces gnuplot-able logs; this module writes
//! one CSV per figure so the plots can be regenerated with any tool:
//! `cargo run --release -p rch-experiments --bin export -- <dir>`.

use droidsim_fleet::FleetConfig;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Writes one CSV file; returns its path.
fn write_csv(dir: &Path, name: &str, header: &str, rows: &[String]) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    let mut file = fs::File::create(&path)?;
    writeln!(file, "{header}")?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    Ok(path)
}

/// Exports every figure's data as CSV into `dir` (created if missing).
/// The two fleet studies, Fig. 10 and Table 5, run with `cfg`'s worker
/// count; the CSVs are the same at any. Returns the written paths.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn export_all(dir: &Path, cfg: &FleetConfig) -> std::io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    let fig7 = crate::fig7::run();
    written.push(write_csv(
        dir,
        "fig07_handling_time.csv",
        "app,android10_ms,rchdroid_ms,saving",
        &fig7
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{},{:.3},{:.3},{:.4}",
                    r.name,
                    r.android10_ms,
                    r.rchdroid_ms,
                    r.saving()
                )
            })
            .collect::<Vec<_>>(),
    )?);

    let fig8 = crate::fig8::run();
    written.push(write_csv(
        dir,
        "fig08_memory.csv",
        "app,android10_mib,rchdroid_mib",
        &fig8
            .rows
            .iter()
            .map(|r| format!("{},{:.3},{:.3}", r.name, r.android10_mib, r.rchdroid_mib))
            .collect::<Vec<_>>(),
    )?);

    let fig9 = crate::fig9::run();
    written.push(write_csv(
        dir,
        "fig09_trace.csv",
        "t_s,a10_cpu_pct,a10_mem_mib,rch_cpu_pct,rch_mem_mib",
        &fig9
            .android10
            .points
            .iter()
            .zip(&fig9.rchdroid.points)
            .map(|(a, r)| {
                format!(
                    "{:.1},{:.2},{:.2},{:.2},{:.2}",
                    a.at.as_secs_f64(),
                    a.cpu_percent,
                    a.memory_mib,
                    r.cpu_percent,
                    r.memory_mib
                )
            })
            .collect::<Vec<_>>(),
    )?);

    let fig10 = crate::fig10::STUDY.complete(cfg);
    written.push(write_csv(
        dir,
        "fig10a_scalability.csv",
        "views,android10_ms,rchdroid_ms,rchdroid_init_ms",
        &fig10
            .a
            .iter()
            .map(|r| {
                format!(
                    "{},{:.3},{:.3},{:.3}",
                    r.views, r.android10_ms, r.rchdroid_ms, r.rchdroid_init_ms
                )
            })
            .collect::<Vec<_>>(),
    )?);
    written.push(write_csv(
        dir,
        "fig10b_migration.csv",
        "views,migration_ms,android10_ms",
        &fig10
            .b
            .iter()
            .map(|r| format!("{},{:.3},{:.3}", r.views, r.migration_ms, r.android10_ms))
            .collect::<Vec<_>>(),
    )?);

    let fig11 = crate::fig11::run();
    written.push(write_csv(
        dir,
        "fig11_gc_tradeoff.csv",
        "thresh_t_s,latency_ms,cpu_ms_per_min,memory_mib,collections",
        &fig11
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{},{:.3},{:.3},{:.3},{}",
                    r.thresh_t_secs,
                    r.avg_latency_ms,
                    r.cpu_ms_per_min,
                    r.avg_memory_mib,
                    r.collections
                )
            })
            .collect::<Vec<_>>(),
    )?);

    let fig12 = crate::fig12::run();
    written.push(write_csv(
        dir,
        "fig12_runtimedroid.csv",
        "app,rchdroid_norm,runtimedroid_norm,patch_loc",
        &fig12
            .rows
            .iter()
            .map(|r| {
                format!(
                    "{},{:.4},{:.4},{}",
                    r.name, r.rchdroid_norm, r.runtimedroid_norm, r.patch_loc
                )
            })
            .collect::<Vec<_>>(),
    )?);

    let study = crate::table5::STUDY.complete(cfg);
    // Cross-reference: the static analyzer's predicted verdicts ride
    // along so the CSV exposes the lint-vs-dynamic agreement the
    // differential gate enforces (`rchlint --differential`).
    let predicted: std::collections::BTreeMap<String, (bool, bool)> = rch_workloads::top100_specs()
        .iter()
        .map(|spec| {
            let stock = droidsim_analysis::predict(spec, droidsim_analysis::AnalysisMode::Stock);
            let rch = droidsim_analysis::predict(spec, droidsim_analysis::AnalysisMode::RchDroid);
            (spec.name.clone(), (stock.has_issue(), rch.has_issue()))
        })
        .collect();
    written.push(write_csv(
        dir,
        "table5_top100.csv",
        "app,issue,fixed,predicted_stock_issue,predicted_rchdroid_issue,android10_ms,rchdroid_ms,android10_mib,rchdroid_mib",
        &study
            .rows
            .iter()
            .map(|r| {
                let (pred_stock, pred_rch) =
                    predicted.get(&r.name).copied().unwrap_or((false, false));
                format!(
                    "{},{},{},{},{},{:.3},{:.3},{:.3},{:.3}",
                    r.name,
                    r.issue_under_stock,
                    r.fixed_by_rchdroid,
                    pred_stock,
                    pred_rch,
                    r.android10_ms,
                    r.rchdroid_ms,
                    r.android10_mib,
                    r.rchdroid_mib
                )
            })
            .collect::<Vec<_>>(),
    )?);

    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_every_figure() {
        let dir = std::env::temp_dir().join(format!("rch_export_{}", std::process::id()));
        let written = export_all(&dir, &FleetConfig::new(2, 0)).expect("export succeeds");
        assert_eq!(written.len(), 8);
        for path in &written {
            let content = fs::read_to_string(path).unwrap();
            assert!(content.lines().count() > 1, "{path:?} has data rows");
            let header_cols = content.lines().next().unwrap().split(',').count();
            for line in content.lines().skip(1) {
                assert_eq!(line.split(',').count(), header_cols, "{path:?}: {line}");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }
}

//! # synergy-bench
//!
//! Experiment harnesses for the SYNERGY reproduction. Every table and figure
//! of the paper's evaluation has a corresponding function in
//! [`experiments`], and the `experiments` binary prints the rows/series.
//! Beside them: the cluster-serving benchmark ([`serving`]) and the CI
//! telemetry-overhead gate ([`regress`]). Host-time speed is measured by the
//! `perf/` benchmark, not here.
#![warn(missing_docs)]

pub mod experiments;
pub mod jsonish;
pub mod regress;
pub mod serving;

pub use experiments::{
    execution_overheads, fig10_migration, fig11_temporal, fig12_spatial, fig13_14_15_overheads,
    fig9_suspend_resume, overheads_tables, quiescence_study, table1, Condition,
    ExecutionOverheadRow, Figure, OverheadRow, Point, QuiescenceRow, Scale, Series,
};
pub use regress::{telemetry_budget, Budget};
pub use serving::{run_serving, serving_json, serving_table, ServingConfig, ServingReport};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape_holds() {
        let fig = fig9_suspend_resume(Scale::Smoke);
        let de10 = fig.series("de10").unwrap();
        let f1 = fig.series("f1").unwrap();
        // Hardware on F1 is faster than DE10, which is faster than the software
        // start of the DE10 curve.
        assert!(f1.peak() > de10.peak());
        assert!(de10.peak() > 1e6, "DE10 should reach millions of hashes/s");
        assert!(
            de10.points[0].rate < de10.peak() / 10.0,
            "software start is slow"
        );
        // The save introduces a visible dip on the DE10 curve.
        assert!(de10.trough() < de10.peak() / 2.0);
    }

    #[test]
    fn fig10_shape_holds() {
        let fig = fig10_migration(Scale::Smoke);
        let de10 = fig.series("de10").unwrap();
        let f1 = fig.series("f1").unwrap();
        assert!(f1.peak() > de10.peak());
        assert!(de10.trough() < de10.peak() / 2.0, "migration dip visible");
    }

    #[test]
    fn fig11_regex_throughput_halves_under_contention() {
        let fig = fig11_temporal(Scale::Smoke);
        let regex = fig.series("regex").unwrap();
        let n = regex.points.len();
        let solo: f64 =
            regex.points[1..n / 4].iter().map(|p| p.rate).sum::<f64>() / (n / 4 - 1) as f64;
        let mid = &regex.points[n / 3..2 * n / 3];
        let contended: f64 = mid.iter().map(|p| p.rate).sum::<f64>() / mid.len() as f64;
        assert!(
            contended < solo * 0.75,
            "contended {} should be well below solo {}",
            contended,
            solo
        );
    }

    #[test]
    fn fig12_clock_drops_when_adpcm_joins() {
        let fig = fig12_spatial(Scale::Smoke);
        let df = fig.series("df").unwrap();
        let n = df.points.len();
        let early: f64 =
            df.points[1..n / 3].iter().map(|p| p.rate).sum::<f64>() / (n / 3 - 1) as f64;
        let late: f64 = df.points[2 * n / 3 + 1..]
            .iter()
            .map(|p| p.rate)
            .sum::<f64>()
            / (n - 2 * n / 3 - 1) as f64;
        assert!(
            late < early * 0.8,
            "df virtual frequency should drop after adpcm joins: early {} late {}",
            early,
            late
        );
    }

    #[test]
    fn fig13_14_15_rows_are_complete_and_ordered() {
        let rows = fig13_14_15_overheads();
        assert_eq!(rows.len(), 6 * 5);
        for bench in synergy_workloads::all() {
            let native = rows
                .iter()
                .find(|r| r.benchmark == bench.name && r.condition == Condition::AosNative)
                .unwrap();
            let synergy = rows
                .iter()
                .find(|r| r.benchmark == bench.name && r.condition == Condition::Synergy)
                .unwrap();
            let quiesced = rows
                .iter()
                .find(|r| r.benchmark == bench.name && r.condition == Condition::SynergyQuiescence)
                .unwrap();
            assert!(
                synergy.report.luts > native.report.luts,
                "{}: Synergy must cost more LUTs than native",
                bench.name
            );
            assert!(
                synergy.report.ffs >= native.report.ffs,
                "{}: Synergy must cost at least as many FFs",
                bench.name
            );
            assert!(
                quiesced.report.luts <= synergy.report.luts,
                "{}: quiescence should not increase LUTs",
                bench.name
            );
            assert!(synergy.ff_norm >= 1.0 && synergy.lut_norm >= 1.0);
        }
        // The RAM-heavy designs are the FF outliers, as in the paper.
        let mips_synergy = rows
            .iter()
            .find(|r| r.benchmark == "mips32" && r.condition == Condition::Synergy)
            .unwrap();
        assert!(
            mips_synergy.ff_norm > 4.0,
            "mips32 RAM-as-FF blowup should dominate (got {:.2})",
            mips_synergy.ff_norm
        );
        let table = overheads_tables(&rows);
        assert!(table.contains("Figure 13") && table.contains("Figure 15"));
    }

    #[test]
    fn quiescence_study_matches_expectations() {
        let rows = quiescence_study();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.volatile_fraction > 0.0 && row.volatile_fraction < 1.0);
            assert!(row.lut_saving >= 0.0);
            assert!(row.ff_saving >= 0.0);
        }
        // df and bitcoin have mostly-volatile state, like the paper's 99%/96%.
        let df = rows.iter().find(|r| r.benchmark == "df").unwrap();
        let bitcoin = rows.iter().find(|r| r.benchmark == "bitcoin").unwrap();
        assert!(df.volatile_fraction > 0.5);
        assert!(bitcoin.volatile_fraction > 0.5);
    }

    #[test]
    fn execution_overhead_is_three_to_four_x() {
        for row in execution_overheads(Scale::Smoke) {
            assert!(
                row.slowdown >= 2.5 && row.slowdown <= 6.0,
                "{}: slowdown {} outside the expected 3-4x band",
                row.benchmark,
                row.slowdown
            );
        }
    }

    #[test]
    fn table1_lists_all_benchmarks() {
        let t = table1();
        for name in ["adpcm", "bitcoin", "df", "mips32", "nw", "regex"] {
            assert!(t.contains(name));
        }
    }
}

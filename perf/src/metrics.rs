//! The metric catalogue — the one place that names every metric, its unit,
//! its direction and (end to end) its regression bound — and the workloads.
//! `BENCHMARK.json` at the repository root is generated from it
//! (`synergy-perf manifest`) and a test keeps the two equal.

use crate::json::Json;

/// A workload: how `--seconds` is split over the five stages.
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why it is here, in one line.
    pub why: &'static str,
    /// Share of the run's seconds per stage, in `stages::STAGES` order.
    pub shares: [f64; 5],
}

/// The four traffic mixes. Every one runs all five stages, so every run
/// reports every metric; the mix decides which stage gets the bulk of the
/// time and the steadier numbers, and so which layers an optimisation must
/// move to show.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "admit_storm",
        why: "36% admission cycles over 64 sources with repeats: the compile path (vlog, codegen, opt, transform, fpga) does the work, the tick loop none; repeats make shared work show",
        shares: [0.36, 0.16, 0.16, 0.16, 0.16],
    },
    Workload {
        name: "steady_compiled",
        why: "36% rounds over 24 software-resident Table-1 tenants at tick cap 1024: the word executor under run_ticks does the work, compile and snapshot none; 4 copies a design is the shape batching needs",
        shares: [0.16, 0.36, 0.16, 0.16, 0.16],
    },
    Workload {
        name: "steady_fabric",
        why: "36% rounds over 12 deployed tenants at tick cap 64: the paper's virtualised path (transformed state machine, traps, hull, shared clock); a compiled-executor win must not show here",
        shares: [0.16, 0.16, 0.36, 0.16, 0.16],
    },
    Workload {
        name: "lifecycle_churn",
        why: "26% control-plane churn with node kills + 26% suspend/resume, live migration and fleet checkpoints: recovery and the snapshot codec dominate, encode and decode timed apart; ticks stay small",
        shares: [0.16, 0.16, 0.16, 0.26, 0.26],
    },
];

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 28;

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. Host time throughout; every `_p50` is the good
/// decile of the medians over batches of fixed work (`stats::Series`) and has
/// a tail twin over all samples among the per-layer metrics.
///
/// The bounds are what a shared 2-core host can resolve, not what one would
/// like: identical runs of ten seeds spread 2–6 % of the median between
/// their quartiles in a quiet hour and 6–14 % in a busy one (`FINDINGS.md`),
/// nearly all of it the host's own speed drifting, so every timing carries
/// the 25 % the contract allows.
pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
    e2e("admit_ms_p50", "ms", "lower", 0.25),
    e2e("fabric_ready_ms_p50", "ms", "lower", 0.25),
    e2e("admits_per_s", "1/s", "higher", 0.25),
    e2e("fleet_ticks_per_s.compiled", "ticks/s", "higher", 0.25),
    e2e("round_ms_p50.compiled", "ms", "lower", 0.25),
    e2e("fleet_ticks_per_s.fabric", "ticks/s", "higher", 0.25),
    e2e("round_ms_p50.fabric", "ms", "lower", 0.25),
    e2e("control_step_ms_p50", "ms", "lower", 0.25),
    e2e("recover_ms_p50", "ms", "lower", 0.25),
    e2e("suspend_resume_ms_p50", "ms", "lower", 0.25),
    e2e("migrate_ms_p50", "ms", "lower", 0.25),
    e2e("fleet_checkpoint_mb_per_s", "MB/s", "higher", 0.25),
    e2e("fleet_restore_mb_per_s", "MB/s", "higher", 0.25),
];

/// The `_p50` metrics that get a tail twin (`tail.<name>`, `.pct`, `.n`).
pub const TAILED: [&str; 8] = [
    "admit_ms",
    "fabric_ready_ms",
    "round_ms.compiled",
    "round_ms.fabric",
    "control_step_ms",
    "recover_ms",
    "suspend_resume_ms",
    "migrate_ms",
];

/// Span names of the traced run, as the ledger reports them.
pub const SPANS: [&str; 18] = [
    "runtime.with_policy",
    "runtime.add_file",
    "runtime.run_ticks",
    "runtime.save_checkpoint",
    "runtime.restore_checkpoint",
    "hv.connect",
    "hv.deploy",
    "hv.disconnect",
    "hv.run_round",
    "hv.control_admit",
    "hv.control_depart",
    "hv.control_step",
    "hv.live_migrate",
    "hv.checkpoint_fleet",
    "hv.restore_fleet",
    "bench.build_fleet",
    "bench.verify",
    "bench.unattributed",
];

/// Table-1 design names, in table order.
pub const DESIGNS: [&str; 6] = ["adpcm", "bitcoin", "df", "mips32", "nw", "regex"];

/// The per-layer metrics a traced run prints: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| out.push((name.to_string(), unit, better));
    add("vlog.lex_us", "us", "lower");
    add("vlog.parse_us", "us", "lower");
    add("vlog.elaborate_us", "us", "lower");
    add("vlog.src_kb_per_s", "KiB/s", "higher");
    add("codegen.compile_us", "us", "lower");
    add("codegen.construct_us", "us", "lower");
    add("codegen.ir_ops_total", "count", "lower");
    add("codegen.word_ops_total", "count", "lower");
    add("opt.optimize_us", "us", "lower");
    add("opt.optimize_us_max", "us", "lower");
    add("opt.rewrites_total", "count", "higher");
    add("opt.ops_removed_share", "share", "higher");
    add("transform.transform_us", "us", "lower");
    add("transform.states_total", "count", "lower");
    add("transform.unsupported", "count", "lower");
    add("fpga.estimate_us", "us", "lower");
    add("fpga.cache_hit_ratio", "ratio", "higher");
    add("runtime.with_policy_us", "us", "lower");
    add("ledger.admit_explained_share", "share", "higher");
    for d in DESIGNS {
        add(&format!("codegen.tick_ns.{}", d), "ns", "lower");
    }
    add("codegen.fuzz_tick_ns_p50", "ns", "lower");
    add("codegen.fuzz_tick_ns_max", "ns", "lower");
    add("runtime.run_ticks_overhead_ratio", "ratio", "lower");
    add("runtime.run_ticks1_ns", "ns", "lower");
    for d in DESIGNS {
        add(&format!("interp.tick_ns.{}", d), "ns", "lower");
    }
    for d in DESIGNS {
        add(&format!("runtime.hw_tick_us.{}", d), "us", "lower");
    }
    add("runtime.hw_native_cycles_per_tick", "cycles", "lower");
    add("runtime.migrate_to_hardware_us", "us", "lower");
    add("runtime.save_checkpoint_us", "us", "lower");
    add("runtime.restore_checkpoint_us", "us", "lower");
    add("runtime.checkpoint_kb_p50", "KiB", "lower");
    add("runtime.checkpoint_kb_max", "KiB", "lower");
    add("snapshot.encode_mb_per_s", "MB/s", "higher");
    add("snapshot.decode_mb_per_s", "MB/s", "higher");
    add("snapshot.crc_mb_per_s", "MB/s", "higher");
    add("hv.connect_us", "us", "lower");
    add("hv.deploy_us", "us", "lower");
    add("hv.deploy_us_per_resident", "us", "lower");
    add("hv.disconnect_us", "us", "lower");
    add("hv.round_overhead_us_per_tenant.cap4", "us", "lower");
    add("hv.round_overhead_us_per_tenant.cap1024", "us", "lower");
    add("hv.round_busy_share", "share", "higher");
    add("hv.parallel_ratio", "ratio", "higher");
    add("hv.pool_steals", "count", "higher");
    add("hv.pool_parks", "count", "lower");
    add("host.threads", "count", "higher");
    add("hv.checkpoint_fleet_ms", "ms", "lower");
    add("hv.restore_fleet_ms", "ms", "lower");
    add("hv.fleet_checkpoint_mb", "MB", "lower");
    add("hv.live_migrate_ms.small", "ms", "lower");
    add("hv.live_migrate_ms.large", "ms", "lower");
    add("hv.control_step_ms_checkpoint", "ms", "lower");
    add("hv.control_admit_ms", "ms", "lower");
    add("hv.control_depart_ms", "ms", "lower");
    add("hv.recover_replayed_rounds", "count", "lower");
    add("hv.migrations", "count", "lower");
    add("hv.migration_failures", "count", "lower");
    add("hv.quarantined", "count", "lower");
    add("telemetry.overhead_ratio", "ratio", "lower");
    add("telemetry.metrics_export_ms", "ms", "lower");
    add("host.calib_ns", "ns", "lower");
    add("trace.overhead_ratio", "ratio", "lower");
    for t in TAILED {
        add(&format!("tail.{}", t), "ms", "lower");
        add(&format!("tail.{}.pct", t), "%", "higher");
        add(&format!("tail.{}.n", t), "count", "higher");
    }
    for s in SPANS {
        add(&format!("ledger.{}_share", s), "share", "lower");
    }
    add("ledger.reconcile_ratio", "ratio", "higher");
    out
}

/// Measured values by name, in the order they were put.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    items: Vec<(String, f64, &'static str)>,
}

impl MetricSet {
    /// Records a value (a later value for the same name replaces it).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(item) => *item = (name.to_string(), value, unit),
            None => self.items.push((name.to_string(), value, unit)),
        }
    }

    /// `{name: {"value": v, "unit": u}}` for exactly `names`, in that order.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric that was not measured, was measured with
    /// another unit, or is not a finite number.
    pub fn to_json<'a>(
        &self,
        names: impl Iterator<Item = (&'a str, &'a str)>,
    ) -> Result<Json, String> {
        let mut members = Vec::new();
        for (name, unit) in names {
            match self.items.iter().find(|(n, _, _)| n == name) {
                Some((_, v, u)) if *u == unit && v.is_finite() => members.push((
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )),
                Some((_, v, u)) => {
                    return Err(format!(
                        "metric {} = {} {} (catalogue unit {})",
                        name, v, u, unit
                    ))
                }
                None => return Err(format!("metric {} was not measured", name)),
            }
        }
        Ok(Json::Obj(members))
    }

    /// Every value, for the human-readable listing.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.items.iter()
    }
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// `BENCHMARK.json`, from the catalogue.
pub fn manifest() -> Json {
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(vec![s("bash"), s("perf/run.sh")]),
        ),
        ("paths".into(), Json::Arr(vec![s("perf")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better)),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|(name, unit, better)| {
                        Json::Obj(vec![
                            ("name".into(), s(name)),
                            ("unit".into(), s(unit)),
                            ("better".into(), s(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `manifest()` laid out one metric a line, as it is committed.
pub fn manifest_text() -> String {
    let m = manifest();
    let mut out = String::from("{\n");
    let members = m.as_obj().expect("manifest is an object");
    for (i, (key, value)) in members.iter().enumerate() {
        let comma = if i + 1 == members.len() { "" } else { "," };
        match value {
            Json::Arr(items) if items.iter().all(|v| matches!(v, Json::Obj(_))) => {
                out.push_str(&format!("  \"{}\": [\n", key));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{}\n", item.render(), comma));
                }
                out.push_str(&format!("  ]{}\n", comma));
            }
            other => out.push_str(&format!("  \"{}\": {}{}\n", key, other.render(), comma)),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::STAGES;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_is_within_the_contract() {
        let layers = per_layer();
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut seen = BTreeSet::new();
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.better))
            .chain(layers)
        {
            assert!(valid_name(&name), "{}", name);
            assert!(valid_unit(unit), "{}: unit {}", name, unit);
            assert!(better == "lower" || better == "higher");
            assert!(seen.insert(name.clone()), "{} is used twice", name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!((w.shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert_eq!(w.shares.len(), STAGES.len());
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest_text().len() < 64 << 10);
    }

    #[test]
    fn committed_manifest_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(crate::json::parse(&committed).unwrap(), manifest());
        assert_eq!(
            committed,
            manifest_text(),
            "regenerate with `synergy-perf manifest`"
        );
    }

    #[test]
    fn metric_set_renders_only_what_the_catalogue_names() {
        let mut m = MetricSet::default();
        m.put("a", 1.5, "ms");
        m.put("b", 2.0, "s");
        m.put("a", 2.5, "ms");
        let j = m.to_json([("a", "ms")].into_iter()).unwrap();
        assert_eq!(j.render(), "{\"a\": {\"value\": 2.5, \"unit\": \"ms\"}}");
        assert!(m.to_json([("c", "ms")].into_iter()).is_err());
        assert!(
            m.to_json([("b", "ms")].into_iter()).is_err(),
            "unit mismatch"
        );
        m.put("n", f64::NAN, "ms");
        assert!(m.to_json([("n", "ms")].into_iter()).is_err());
    }
}

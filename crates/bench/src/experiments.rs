//! Experiment harnesses that regenerate every table and figure of the paper's
//! evaluation (§6) on the simulated substrate.
//!
//! Each function returns structured data, which the `experiments` binary prints
//! as the same rows/series the paper reports. Absolute numbers differ from the
//! paper — the substrate is a simulator, not the authors' testbed — but the shapes
//! match: who wins, by roughly what factor, and where the crossovers fall.

use synergy::fpga::{estimate, RamStyle, SynthOptions, SynthReport};
use synergy::transform::{transform, TransformOptions};
use synergy::{BitstreamCache, Device, Runtime, SynergyVm};
use synergy_workloads as workloads;
use workloads::Benchmark;

/// One point of a throughput time-series: simulated seconds and work units/second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Simulated wall-clock time in seconds.
    pub time_s: f64,
    /// Throughput in work units per second (hashes/s, instructions/s, reads/s).
    pub rate: f64,
}

/// A labelled throughput curve (one line of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (`de10`, `f1`, `regex`, ...).
    pub label: String,
    /// Unit of the rate axis.
    pub unit: String,
    /// Samples in time order.
    pub points: Vec<Point>,
}

impl Series {
    /// Peak rate over the curve.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.rate).fold(0.0, f64::max)
    }

    /// Minimum non-zero rate over the curve (used to detect migration dips).
    pub fn trough(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.rate)
            .filter(|r| *r > 0.0)
            .fold(f64::INFINITY, f64::min)
    }
}

/// A whole figure: several curves plus a caption.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure identifier (`fig9`, `fig10`, ...).
    pub id: String,
    /// Human-readable caption.
    pub caption: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Finds a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the figure as a text table (what the `experiments` binary prints).
    pub fn to_table(&self) -> String {
        let mut out = format!("== {}: {} ==\n", self.id, self.caption);
        for s in &self.series {
            out.push_str(&format!("-- {} ({}) --\n", s.label, s.unit));
            out.push_str("  time_s      rate\n");
            for p in &s.points {
                out.push_str(&format!("  {:>8.5}  {:>14.1}\n", p.time_s, p.rate));
            }
        }
        out
    }
}

/// Scale of an experiment run: `Paper` runs enough virtual ticks for smooth
/// curves, `Smoke` keeps unit tests and CI smoke runs fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast run for tests and `--smoke`.
    Smoke,
    /// Full run for the `experiments` binary.
    Paper,
}

impl Scale {
    fn ticks_per_sample(&self) -> u64 {
        match self {
            Scale::Smoke => 400,
            Scale::Paper => 4_000,
        }
    }

    fn samples(&self, paper: usize) -> usize {
        match self {
            Scale::Smoke => (paper / 3).max(4),
            Scale::Paper => paper,
        }
    }
}

fn sample_rate(runtime: &mut Runtime, metric: &str, ticks: u64) -> Point {
    let t0 = runtime.now_secs();
    let m0 = runtime.get_bits(metric).map(|b| b.to_u64()).unwrap_or(0);
    runtime
        .run_ticks(ticks)
        .expect("benchmark execution failed");
    let t1 = runtime.now_secs();
    let m1 = runtime.get_bits(metric).map(|b| b.to_u64()).unwrap_or(0);
    let dt = (t1 - t0).max(1e-12);
    Point {
        time_s: t1,
        rate: (m1.saturating_sub(m0)) as f64 / dt,
    }
}

fn benchmark_runtime(bench: &Benchmark, stream_len: usize) -> Runtime {
    let mut rt = Runtime::new(bench.name.clone(), &bench.source, &bench.top, &bench.clock)
        .expect("benchmark compiles");
    if let Some(path) = &bench.input_path {
        rt.add_file(path.clone(), workloads::input_data(&bench.name, stream_len));
    }
    // Software warm-up so $fopen executes before any hardware migration.
    rt.run_ticks(2).expect("software warm-up");
    rt
}

// ===================================================================== Figure 9

/// Figure 9: suspend and resume. Bitcoin executes on a DE10, is suspended via
/// `$save`, and the saved context is resumed on an F1 instance.
pub fn fig9_suspend_resume(scale: Scale) -> Figure {
    let cache = BitstreamCache::new();
    let bench = workloads::bitcoin();
    let ticks = scale.ticks_per_sample();
    let mut series_de10 = Series {
        label: "de10".into(),
        unit: "hashes/s".into(),
        points: Vec::new(),
    };
    let mut series_f1 = Series {
        label: "f1".into(),
        unit: "hashes/s".into(),
        points: Vec::new(),
    };

    // Phase 1: software start, then DE10 hardware, then $save.
    let mut rt = benchmark_runtime(&bench, 0);
    for _ in 0..scale.samples(3) {
        series_de10
            .points
            .push(sample_rate(&mut rt, &bench.metric_var, ticks / 8));
    }
    rt.migrate_to_hardware(&Device::de10(), &cache).unwrap();
    for _ in 0..scale.samples(6) {
        series_de10
            .points
            .push(sample_rate(&mut rt, &bench.metric_var, ticks));
    }
    let snapshot = rt.save("fig9");
    // The save itself shows up as a throughput dip on the DE10 curve.
    series_de10
        .points
        .push(sample_rate(&mut rt, &bench.metric_var, ticks / 16));
    for _ in 0..scale.samples(3) {
        series_de10
            .points
            .push(sample_rate(&mut rt, &bench.metric_var, ticks));
    }

    // Phase 2: a new instance on F1 restores the context and resumes.
    let mut rt2 = benchmark_runtime(&bench, 0);
    rt2.migrate_to_hardware(&Device::f1(), &cache).unwrap();
    rt2.restore(&snapshot);
    // The F1 curve continues on the same simulated timeline as the DE10 run.
    rt2.idle_for_ns(rt.now_ns().saturating_sub(rt2.now_ns()));
    series_f1
        .points
        .push(sample_rate(&mut rt2, &bench.metric_var, ticks / 16));
    for _ in 0..scale.samples(6) {
        series_f1
            .points
            .push(sample_rate(&mut rt2, &bench.metric_var, ticks));
    }

    Figure {
        id: "fig9".into(),
        caption: "Suspend and resume: bitcoin saved on a DE10 and resumed on F1".into(),
        series: vec![series_de10, series_f1],
    }
}

// ==================================================================== Figure 10

/// Figure 10: hardware migration. Mips32 begins execution on one node and is
/// migrated mid-execution to another node of the same type (DE10→DE10 and F1→F1).
pub fn fig10_migration(scale: Scale) -> Figure {
    let bench = workloads::mips32();
    let ticks = scale.ticks_per_sample();
    let mut figure = Figure {
        id: "fig10".into(),
        caption: "Hardware migration: mips32 moved between FPGAs mid-execution".into(),
        series: Vec::new(),
    };
    for device in [Device::de10(), Device::f1()] {
        let cache = BitstreamCache::new();
        let mut series = Series {
            label: device.name.clone(),
            unit: "instructions/s".into(),
            points: Vec::new(),
        };
        let mut rt = benchmark_runtime(&bench, 0);
        series
            .points
            .push(sample_rate(&mut rt, &bench.metric_var, ticks / 8));
        rt.migrate_to_hardware(&device, &cache).unwrap();
        for _ in 0..scale.samples(5) {
            series
                .points
                .push(sample_rate(&mut rt, &bench.metric_var, ticks));
        }
        // Suspend, move to a second node of the same type, resume (the bitstream is
        // already cached, so only state transfer and reconfiguration cost time).
        let snapshot = rt.save("fig10");
        let mut rt2 = benchmark_runtime(&bench, 0);
        rt2.migrate_to_hardware(&device, &cache).unwrap();
        rt2.restore(&snapshot);
        // Carry wall time over so the curve is continuous across the migration.
        rt2.idle_for_ns(rt.now_ns().saturating_sub(rt2.now_ns()));
        series
            .points
            .push(sample_rate(&mut rt2, &bench.metric_var, ticks / 16));
        for _ in 0..scale.samples(5) {
            series
                .points
                .push(sample_rate(&mut rt2, &bench.metric_var, ticks));
        }
        figure.series.push(series);
    }
    figure
}

// ==================================================================== Figure 11

/// Figure 11: temporal multiplexing. Regex and nw are time-slice scheduled on one
/// DE10 to resolve contention on the off-device IO path.
pub fn fig11_temporal(scale: Scale) -> Figure {
    let mut vm = SynergyVm::new();
    vm.set_stream_len(1 << 20);
    let node = vm.add_device(Device::de10());
    let regex_app = vm.launch_benchmark(node, "regex", false).unwrap();
    let nw_app = vm.launch_benchmark(node, "nw", false).unwrap();

    let dt = match scale {
        Scale::Smoke => 0.002,
        Scale::Paper => 0.004,
    };
    let phase = scale.samples(8);
    let mut regex_series = Series {
        label: "regex".into(),
        unit: "reads/s".into(),
        points: Vec::new(),
    };
    let mut nw_series = Series {
        label: "nw".into(),
        unit: "reads/s".into(),
        points: Vec::new(),
    };
    let mut last = (0u64, 0u64);
    let sample = |vm: &mut SynergyVm,
                  regex_series: &mut Series,
                  nw_series: &mut Series,
                  last: &mut (u64, u64)| {
        vm.run_round(node, dt).unwrap();
        let t = vm.app(node, regex_app).unwrap().now_secs();
        let r = vm.read_var(node, regex_app, "reads_lo").unwrap().to_u64();
        let n = vm
            .read_var(node, nw_app, "alignments_lo")
            .map(|b| b.to_u64() * 2)
            .unwrap_or(0);
        regex_series.points.push(Point {
            time_s: t,
            rate: (r - last.0) as f64 / dt,
        });
        nw_series.points.push(Point {
            time_s: t,
            rate: (n - last.1) as f64 / dt,
        });
        *last = (r, n);
    };

    // Phase A: only regex is deployed.
    vm.deploy(node, regex_app).unwrap();
    for _ in 0..phase {
        sample(&mut vm, &mut regex_series, &mut nw_series, &mut last);
    }
    // Phase B: nw deploys; the hypervisor time-slices the shared IO path.
    vm.deploy(node, nw_app).unwrap();
    for _ in 0..2 * phase {
        sample(&mut vm, &mut regex_series, &mut nw_series, &mut last);
    }
    // Phase C: nw is removed (its work is done); regex recovers.
    vm.cluster_mut().node_mut(node).undeploy(nw_app).unwrap();
    for _ in 0..phase {
        sample(&mut vm, &mut regex_series, &mut nw_series, &mut last);
    }

    Figure {
        id: "fig11".into(),
        caption: "Temporal multiplexing: regex and nw share one DE10 IO path".into(),
        series: vec![regex_series, nw_series],
    }
}

// ==================================================================== Figure 12

/// Figure 12: spatial multiplexing. Df, bitcoin, and adpcm are co-scheduled on one
/// F1 device; adding adpcm forces the shared clock down and lowers every tenant's
/// virtual frequency.
pub fn fig12_spatial(scale: Scale) -> Figure {
    let mut vm = SynergyVm::new();
    vm.set_stream_len(1 << 20);
    let node = vm.add_device(Device::f1());
    let df_app = vm.launch_benchmark(node, "df", false).unwrap();
    let bitcoin_app = vm.launch_benchmark(node, "bitcoin", false).unwrap();
    let adpcm_app = vm.launch_benchmark(node, "adpcm", false).unwrap();

    let dt = 0.00002;
    let phase = scale.samples(6);
    let mut series: Vec<Series> = ["df", "bitcoin", "adpcm"]
        .iter()
        .map(|name| Series {
            label: (*name).into(),
            unit: "virtual Hz".into(),
            points: Vec::new(),
        })
        .collect();
    let apps = [df_app, bitcoin_app, adpcm_app];
    let mut last = [0u64; 3];

    let sample = |vm: &mut SynergyVm, series: &mut Vec<Series>, last: &mut [u64; 3]| {
        vm.run_round(node, dt).unwrap();
        for (i, app) in apps.iter().enumerate() {
            let rt = vm.app(node, *app).unwrap();
            let t = rt.now_secs();
            let ticks = rt.ticks();
            series[i].points.push(Point {
                time_s: t,
                rate: ticks.saturating_sub(last[i]) as f64 / dt,
            });
            last[i] = ticks;
        }
    };

    vm.deploy(node, df_app).unwrap();
    for _ in 0..phase {
        sample(&mut vm, &mut series, &mut last);
    }
    vm.deploy(node, bitcoin_app).unwrap();
    for _ in 0..phase {
        sample(&mut vm, &mut series, &mut last);
    }
    let outcome = vm.deploy(node, adpcm_app).unwrap();
    let clock_lowered = outcome.clock_lowered;
    for _ in 0..phase {
        sample(&mut vm, &mut series, &mut last);
    }

    let mut figure = Figure {
        id: "fig12".into(),
        caption: format!(
            "Spatial multiplexing on F1 (global clock {} MHz after adpcm joins{})",
            vm.cluster().node(node).global_clock_hz() / 1_000_000,
            if clock_lowered { ", lowered" } else { "" }
        ),
        series,
    };
    figure.series.retain(|s| !s.points.is_empty());
    figure
}

// ============================================================== Figures 13/14/15

/// The compilation conditions compared in Figures 13-15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Condition {
    /// Native compilation on AmorphOS (the baseline everything is normalised to).
    AosNative,
    /// AmorphOS native but with RAMs forced to flip-flops (the `adpcm*`/`mips32*`
    /// comparison points).
    AosFf,
    /// Cascade on AmorphOS: the transformation without system-task support.
    Cascade,
    /// Full SYNERGY.
    Synergy,
    /// SYNERGY with the quiescence interface implemented (`$yield`).
    SynergyQuiescence,
}

impl Condition {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            Condition::AosNative => "AOS",
            Condition::AosFf => "AOS-FF",
            Condition::Cascade => "Cascade",
            Condition::Synergy => "Synergy",
            Condition::SynergyQuiescence => "Synergy+Q",
        }
    }

    /// All conditions in presentation order.
    pub fn all() -> [Condition; 5] {
        [
            Condition::AosNative,
            Condition::AosFf,
            Condition::Cascade,
            Condition::Synergy,
            Condition::SynergyQuiescence,
        ]
    }
}

/// One benchmark compiled under one condition.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Compilation condition.
    pub condition: Condition,
    /// Raw synthesis estimate.
    pub report: SynthReport,
    /// FF usage normalised to the AmorphOS-native baseline.
    pub ff_norm: f64,
    /// LUT usage normalised to the AmorphOS-native baseline.
    pub lut_norm: f64,
}

/// Compiles every benchmark under every condition on the F1 device and returns the
/// rows behind Figures 13 (FF), 14 (LUT), and 15 (frequency).
pub fn fig13_14_15_overheads() -> Vec<OverheadRow> {
    let device = Device::f1();
    let mut rows = Vec::new();
    for bench in workloads::all() {
        let native = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
        let quiescent = synergy::vlog::compile(&bench.quiescent_source, &bench.top).unwrap();
        let synergy_t = transform(&native, TransformOptions::default()).unwrap();
        let cascade_t = transform(&native, TransformOptions { strip_tasks: true }).unwrap();
        let quiescent_t = transform(&quiescent, TransformOptions::default()).unwrap();

        let baseline = estimate(&native, &device, SynthOptions::native(&device));
        let mut push = |condition: Condition, report: SynthReport| {
            rows.push(OverheadRow {
                benchmark: bench.name.clone(),
                condition,
                report,
                ff_norm: report.ffs as f64 / baseline.ffs.max(1) as f64,
                lut_norm: report.luts as f64 / baseline.luts.max(1) as f64,
            });
        };

        push(Condition::AosNative, baseline);
        push(
            Condition::AosFf,
            estimate(
                &native,
                &device,
                SynthOptions {
                    ram_style: RamStyle::Ff,
                    ..SynthOptions::native(&device)
                },
            ),
        );
        push(
            Condition::Cascade,
            estimate(
                &cascade_t.elab,
                &device,
                SynthOptions::synergy(
                    &device,
                    cascade_t.state.captured_bits() as u64,
                    cascade_t.state.vars.len() as u64,
                ),
            ),
        );
        push(
            Condition::Synergy,
            estimate(
                &synergy_t.elab,
                &device,
                SynthOptions::synergy(
                    &device,
                    synergy_t.state.captured_bits() as u64,
                    synergy_t.state.vars.len() as u64,
                ),
            ),
        );
        // Quiescence makes volatile memories the application's responsibility, so
        // they no longer need the FF-based state-access implementation (§6.3): keep
        // them in block RAM when every memory is volatile.
        let memories_volatile = quiescent_t
            .state
            .vars
            .iter()
            .filter(|v| v.is_memory)
            .all(|v| v.volatile);
        let mut quiescent_opts = SynthOptions::synergy(
            &device,
            quiescent_t.state.captured_bits() as u64,
            quiescent_t
                .state
                .vars
                .iter()
                .filter(|v| !v.volatile)
                .count() as u64,
        );
        if memories_volatile {
            quiescent_opts.ram_style = RamStyle::Bram;
        }
        push(
            Condition::SynergyQuiescence,
            estimate(&quiescent_t.elab, &device, quiescent_opts),
        );
    }
    rows
}

/// Formats the Figure 13/14/15 rows as three tables (FF, LUT, frequency).
pub fn overheads_tables(rows: &[OverheadRow]) -> String {
    let benches: Vec<String> = workloads::all().iter().map(|b| b.name.clone()).collect();
    let mut out = String::new();
    for (title, f) in [
        (
            "Figure 13: FF usage normalised to AmorphOS",
            Box::new(|r: &OverheadRow| format!("{:>8.2}", r.ff_norm))
                as Box<dyn Fn(&OverheadRow) -> String>,
        ),
        (
            "Figure 14: LUT usage normalised to AmorphOS",
            Box::new(|r: &OverheadRow| format!("{:>8.2}", r.lut_norm)),
        ),
        (
            "Figure 15: design frequency achieved (MHz)",
            Box::new(|r: &OverheadRow| format!("{:>8.1}", r.report.achieved_mhz())),
        ),
    ] {
        out.push_str(&format!("== {} ==\n", title));
        out.push_str(&format!("{:<10}", "bench"));
        for c in Condition::all() {
            out.push_str(&format!("{:>10}", c.name()));
        }
        out.push('\n');
        for b in &benches {
            out.push_str(&format!("{:<10}", b));
            for c in Condition::all() {
                let row = rows
                    .iter()
                    .find(|r| r.benchmark == *b && r.condition == c)
                    .expect("row exists");
                out.push_str(&format!("{:>10}", f(row)));
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

// ================================================================== §6.3 / §6.4

/// One row of the quiescence study (§6.3).
#[derive(Debug, Clone, PartialEq)]
pub struct QuiescenceRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Fraction of state bits that are volatile under `$yield`.
    pub volatile_fraction: f64,
    /// LUT savings of Synergy+Quiescence relative to Synergy.
    pub lut_saving: f64,
    /// FF savings of Synergy+Quiescence relative to Synergy.
    pub ff_saving: f64,
}

/// The §6.3 quiescence study: volatile state share and the LUT/FF savings from
/// implementing the quiescence interface.
pub fn quiescence_study() -> Vec<QuiescenceRow> {
    let rows = fig13_14_15_overheads();
    workloads::all()
        .iter()
        .map(|bench| {
            let quiescent = synergy::vlog::compile(&bench.quiescent_source, &bench.top).unwrap();
            let report = synergy::transform::analyze(&quiescent);
            let synergy_row = rows
                .iter()
                .find(|r| r.benchmark == bench.name && r.condition == Condition::Synergy)
                .unwrap();
            let quiesced_row = rows
                .iter()
                .find(|r| r.benchmark == bench.name && r.condition == Condition::SynergyQuiescence)
                .unwrap();
            QuiescenceRow {
                benchmark: bench.name.clone(),
                volatile_fraction: report.volatile_fraction(),
                lut_saving: 1.0
                    - quiesced_row.report.luts as f64 / synergy_row.report.luts.max(1) as f64,
                ff_saving: 1.0
                    - quiesced_row.report.ffs as f64 / synergy_row.report.ffs.max(1) as f64,
            }
        })
        .collect()
}

/// One row of the execution-overhead study (§6 / §6.4): virtual frequency under
/// SYNERGY versus native execution at the device clock.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOverheadRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Virtual clock frequency measured under SYNERGY, in Hz.
    pub synergy_virtual_hz: f64,
    /// The clock an unvirtualized design would run at, in Hz.
    pub native_hz: f64,
    /// Slowdown factor (native / SYNERGY); the paper reports 3-4x.
    pub slowdown: f64,
}

/// Measures the end-to-end execution overhead of virtualization for the batch
/// benchmarks on F1 (the "within 3-4x of unvirtualized performance" claim).
pub fn execution_overheads(scale: Scale) -> Vec<ExecutionOverheadRow> {
    let device = Device::f1();
    let cache = BitstreamCache::new();
    let mut rows = Vec::new();
    for name in ["bitcoin", "df", "mips32"] {
        let bench = workloads::by_name(name).unwrap();
        let mut rt = benchmark_runtime(&bench, 0);
        rt.migrate_to_hardware(&device, &cache).unwrap();
        let start_ticks = rt.ticks();
        let start_time = rt.now_secs();
        rt.run_ticks(scale.ticks_per_sample() * 2).unwrap();
        let virtual_hz =
            (rt.ticks() - start_ticks) as f64 / (rt.now_secs() - start_time).max(1e-12);
        let native = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
        let native_hz =
            estimate(&native, &device, SynthOptions::native(&device)).achieved_hz as f64;
        rows.push(ExecutionOverheadRow {
            benchmark: bench.name.clone(),
            synergy_virtual_hz: virtual_hz,
            native_hz,
            slowdown: native_hz / virtual_hz.max(1.0),
        });
    }
    rows
}

/// Table 1: the benchmark suite description.
pub fn table1() -> String {
    let mut out = String::from("== Table 1: benchmarks ==\n");
    for b in workloads::all() {
        out.push_str(&format!(
            "{:<10} {:<45} {}\n",
            b.name,
            b.description,
            if b.style == workloads::Style::Streaming {
                "(streaming)"
            } else {
                "(batch)"
            }
        ));
    }
    out
}

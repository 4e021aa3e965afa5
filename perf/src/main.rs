//! `synergy-perf`: the repository's host-time benchmark.
//!
//! ```text
//! synergy-perf --workload W --seed N --seconds S --trace 0|1 [--dir perf]
//! synergy-perf manifest                  # BENCHMARK.json, from the catalogue
//! synergy-perf pin [--dir perf]          # rewrite perf/expected/states.json
//! synergy-perf compare A.json B.json     # do two runs agree? (selfcheck)
//! ```
//!
//! A run builds its inputs from `--seed`, cross-checks the engines, drives
//! the five stages for `--seconds` split by the workload's mix, checks every
//! output, and prints one JSON object as its last line. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the seconds are split
//! between an untraced pass and one with the span recorder on, and the
//! metrics are the per-layer ones. See `perf/README.md`.

mod inputs;
mod json;
mod layers;
mod metrics;
mod rng;
mod stages;
mod stats;
mod trace;
mod verify;

use inputs::Inputs;
use json::Json;
use metrics::{MetricSet, Workload, END_TO_END, SPANS, TAILED, WORKLOADS};
use stages::{Report, Stages, STAGES};
use stats::{median, quantile, tail, Better, Series};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// A traced run whose loop overhead exceeds this share of its wall does not
/// reconcile: too much time is in no span.
const UNATTRIBUTED_SLACK: f64 = 0.10;

fn main() -> ExitCode {
    // The ten `SYNERGY_*` switches and `HV_FUZZ_FLEETS` change what the
    // library does; a number measured under one is not this benchmark's.
    let switches: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SYNERGY_") || k == "HV_FUZZ_FLEETS")
        .collect();
    if !switches.is_empty() {
        eprintln!(
            "synergy-perf: refusing to run with {} set",
            switches.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest_text());
            Ok(true)
        }
        Some("pin") => pin(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("synergy-perf: {}", e);
            ExitCode::from(2)
        }
    }
}

/// The value after `--name`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{} needs a value", name)),
    }
}

fn perf_dir(args: &[String]) -> Result<PathBuf, String> {
    Ok(PathBuf::from(
        flag::<String>(args, "--dir")?.unwrap_or_else(|| "perf".into()),
    ))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Drives the stages for `seconds` of stage time, whole epochs only. The next
/// epoch always goes to the stage furthest behind its share, so the stages
/// interleave: a burst of interference on a shared host lands on one epoch
/// of one stage, not on all of a stage's samples. Every stage runs at least
/// once, whatever `seconds` is. `midway` is called once, half-way through.
fn drive(
    w: &Workload,
    inp: &Inputs,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    mut midway: impl FnMut(),
) -> Report {
    let mut r = Report::default();
    let mut stages = Stages::new(inp, seed);
    let mut spent = [0.0f64; STAGES.len()];
    let mut half = false;
    loop {
        let total: f64 = spent.iter().sum();
        if total >= seconds && spent.iter().all(|s| *s > 0.0) {
            return r;
        }
        if !half && total >= seconds / 2.0 {
            half = true;
            midway();
        }
        let behind = |i: &usize| spent[*i] / w.shares[*i];
        let next = (0..STAGES.len())
            .min_by(|a, b| behind(a).total_cmp(&behind(b)))
            .expect("there are stages");
        let t = Instant::now();
        stages.epoch(next, tr, &mut r);
        spent[next] += t.elapsed().as_secs_f64();
        if r.peak_rss_mb.is_none() && spent.iter().all(|s| *s > 0.0) {
            r.peak_rss_mb = peak_rss_mb();
        }
    }
}

fn load_pins(dir: &Path) -> Result<BTreeMap<String, String>, String> {
    let path = dir.join("expected/states.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {}", path.display(), e))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {}", path.display(), e))?;
    doc.get("states")
        .and_then(Json::as_obj)
        .map(|members| {
            members
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                .collect()
        })
        .ok_or_else(|| format!("{}: no \"states\" object", path.display()))
}

/// Compares the run's seed-independent state digests with the pinned ones: a
/// simulator speed-up must leave every simulated result identical.
fn check_pins(r: &mut Report, pins: &BTreeMap<String, String>) {
    let mismatches: Vec<String> = pins
        .iter()
        .filter(|(name, hex)| r.pinned.get(*name) != Some(hex))
        .map(|(name, _)| name.clone())
        .chain(r.pinned.keys().filter(|k| !pins.contains_key(*k)).cloned())
        .collect();
    for name in mismatches {
        r.fail(format!("{}: simulated state is not the pinned one", name));
    }
}

fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of an untraced run. A time is the median over one
/// batch's operations, a rate is one batch's work over its time in the
/// library; of the batches' values the run reports the decile on the good
/// side (`Series::quiet`), which spells of interference do not move.
fn end_to_end(r: &Report, setup_s: f64, m: &mut MetricSet) {
    let time = |s: &Series| s.quiet(Better::Lower).unwrap_or(f64::NAN);
    let rate = |s: &Series| s.quiet(Better::Higher).unwrap_or(f64::NAN);
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", r.peak_rss_mb.unwrap_or(f64::NAN), "MB");
    m.put("admit_ms_p50", time(&r.admit_ms), "ms");
    m.put("fabric_ready_ms_p50", time(&r.fabric_ready_ms), "ms");
    m.put("admits_per_s", rate(&r.admits_per_s), "1/s");
    for (i, res) in ["compiled", "fabric"].iter().enumerate() {
        m.put(
            &format!("fleet_ticks_per_s.{}", res),
            rate(&r.ticks_per_s[i]),
            "ticks/s",
        );
        m.put(&format!("round_ms_p50.{}", res), time(&r.round_ms[i]), "ms");
    }
    m.put("control_step_ms_p50", time(&r.control_step_ms), "ms");
    m.put("recover_ms_p50", time(&r.recover_ms), "ms");
    m.put("suspend_resume_ms_p50", time(&r.suspend_resume_ms), "ms");
    m.put("migrate_ms_p50", time(&r.migrate_ms), "ms");
    m.put(
        "fleet_checkpoint_mb_per_s",
        rate(&r.fleet_checkpoint_mb_per_s),
        "MB/s",
    );
    m.put(
        "fleet_restore_mb_per_s",
        rate(&r.fleet_restore_mb_per_s),
        "MB/s",
    );
}

/// Per-layer metrics that come from the traced run's own samples.
fn from_samples(r: &Report, m: &mut MetricSet) {
    let control_epochs = r.epochs[3].max(1) as f64;
    m.put(
        "fpga.cache_hit_ratio",
        r.cache_hits as f64 / r.deploys.max(1) as f64,
        "ratio",
    );
    m.put("runtime.save_checkpoint_us", p50(&r.save_us), "us");
    m.put("runtime.restore_checkpoint_us", p50(&r.restore_us), "us");
    m.put("runtime.checkpoint_kb_p50", p50(&r.checkpoint_kb), "KiB");
    m.put(
        "runtime.checkpoint_kb_max",
        r.checkpoint_kb.iter().copied().fold(f64::NAN, f64::max),
        "KiB",
    );
    m.put("hv.checkpoint_fleet_ms", p50(&r.fleet_checkpoint_ms), "ms");
    m.put("hv.restore_fleet_ms", p50(&r.fleet_restore_ms), "ms");
    m.put("hv.fleet_checkpoint_mb", p50(&r.fleet_mb), "MB");
    m.put("hv.live_migrate_ms.small", p50(&r.migrate_small_ms), "ms");
    m.put("hv.live_migrate_ms.large", p50(&r.migrate_large_ms), "ms");
    m.put(
        "hv.control_step_ms_checkpoint",
        p50(&r.control_step_ckpt_ms),
        "ms",
    );
    m.put("hv.control_admit_ms", p50(&r.control_admit_ms), "ms");
    m.put("hv.control_depart_ms", p50(&r.control_depart_ms), "ms");
    // Counts are per control epoch, so that a longer run does not read as
    // more recovery work.
    m.put(
        "hv.recover_replayed_rounds",
        r.replayed_rounds as f64 / control_epochs,
        "count",
    );
    m.put(
        "hv.migrations",
        r.migrations as f64 / control_epochs,
        "count",
    );
    m.put(
        "hv.migration_failures",
        r.migration_failures as f64 / control_epochs,
        "count",
    );
    m.put("hv.quarantined", r.quarantined as f64, "count");
    let tails: [&[f64]; 8] = [
        &r.admit_ms,
        &r.fabric_ready_ms,
        &r.round_ms[0],
        &r.round_ms[1],
        &r.control_step_ms,
        &r.recover_ms,
        &r.suspend_resume_ms,
        &r.migrate_ms,
    ];
    for (name, samples) in TAILED.iter().zip(tails) {
        let t = tail(samples);
        m.put(
            &format!("tail.{}", name),
            t.map_or(f64::NAN, |t| t.value),
            "ms",
        );
        m.put(
            &format!("tail.{}.pct", name),
            t.map_or(f64::NAN, |t| t.pct),
            "%",
        );
        m.put(
            &format!("tail.{}.n", name),
            t.map_or(0, |t| t.n) as f64,
            "count",
        );
    }
}

/// The layer ledger of a traced run: each span name's self time as a share
/// of the run's wall, the stage spans' own self time being what no span
/// accounts for. Returns whether the ledger reconciles.
fn ledger(tr: &Tracer, r: &Report, m: &mut MetricSet) -> bool {
    let by_name = trace::ledger(tr.spans());
    let wall: u64 = r.stage_wall_ns.iter().sum();
    let mut covered = 0u64;
    let mut unattributed = 0u64;
    for (name, (self_ns, _)) in &by_name {
        covered += self_ns;
        if name.starts_with("stage.") {
            unattributed += self_ns;
        }
    }
    for span in SPANS {
        let self_ns = match span {
            "bench.unattributed" => unattributed,
            _ => by_name.get(span).map_or(0, |v| v.0),
        };
        m.put(
            &format!("ledger.{}_share", span),
            self_ns as f64 / wall as f64,
            "share",
        );
    }
    let reconcile = covered as f64 / wall as f64;
    m.put("ledger.reconcile_ratio", reconcile, "ratio");
    let unknown = by_name
        .keys()
        .any(|n| !n.starts_with("stage.") && !SPANS.contains(n));
    !unknown
        && (reconcile - 1.0).abs() <= UNATTRIBUTED_SLACK
        && unattributed as f64 / wall as f64 <= UNATTRIBUTED_SLACK
}

/// Geometric mean over the stages of untraced ÷ traced operations a second.
fn trace_overhead(plain: &Report, traced: &Report) -> f64 {
    let rate = |r: &Report, s: usize| r.stage_ops[s] as f64 / r.stage_wall_ns[s] as f64;
    let ratios: Vec<f64> = (0..STAGES.len())
        .map(|s| rate(plain, s) / rate(traced, s))
        .collect();
    stats::geomean(&ratios).unwrap_or(f64::NAN)
}

/// Builds the inputs, and notes how long that took.
fn timed_setup(seconds: &mut Vec<f64>) -> Result<Inputs, String> {
    let t = Instant::now();
    let inputs = Inputs::build()?;
    seconds.push(t.elapsed().as_secs_f64());
    Ok(inputs)
}

fn run(args: &[String]) -> Result<bool, String> {
    let name: String = flag(args, "--workload")?.ok_or("--workload is required")?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{}'", name))?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(metrics::RUN_SECONDS as f64);
    let traced = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let dir = perf_dir(args)?;
    let pins = load_pins(&dir)?;
    // A traced run splits its seconds between the untraced and the traced
    // pass, so that it takes as long as an untraced run.
    let pass_seconds = if traced { seconds / 2.0 } else { seconds };

    // Set-up runs three times — before, half-way through and after the
    // stages — and reports their first decile, as the stages do of their
    // batches: one sample of a half-second step is noise, and three in a row
    // would share whatever the host was doing.
    let mut setups = Vec::new();
    let inp = timed_setup(&mut setups)?;
    eprintln!(
        "# {} seed {}: set-up {:.3} s, cross-check passed",
        w.name, seed, setups[0]
    );
    let mut midway = Ok(());
    let mut plain = drive(w, &inp, seed, pass_seconds, &mut Tracer::new(false), || {
        midway = timed_setup(&mut setups).map(drop);
    });
    midway?;
    timed_setup(&mut setups)?;
    let setup_s = quantile(&setups, 0.1).expect("set-up ran");
    check_pins(&mut plain, &pins);
    let mut m = MetricSet::default();
    end_to_end(&plain, setup_s, &mut m);
    let end_to_end_json = m.to_json(END_TO_END.iter().map(|e| (e.name, e.unit)))?;

    // The traced pass: the same workload again with the span recorder on,
    // then the per-layer probes.
    let mut layer_m = MetricSet::default();
    let mut per_layer_json = None;
    let mut traced_pass = None;
    if traced {
        let mut tr = Tracer::new(true);
        let mut again = drive(w, &inp, seed, pass_seconds, &mut tr, || ());
        check_pins(&mut again, &pins);
        if again.state_digest != plain.state_digest || again.det_digest != plain.det_digest {
            again.fail("the traced run's simulated results differ from the untraced run's".into());
        }
        from_samples(&again, &mut layer_m);
        if !ledger(&tr, &again, &mut layer_m) {
            again.fail("the layer ledger does not reconcile with the stage walls".into());
        }
        layer_m.put(
            "trace.overhead_ratio",
            trace_overhead(&plain, &again),
            "ratio",
        );
        layers::probe(&inp, &mut layer_m);
        let catalogue = metrics::per_layer();
        per_layer_json = Some(layer_m.to_json(catalogue.iter().map(|(n, u, _)| (n.as_str(), *u)))?);
        write_out(
            &dir.join(format!("out/trace-{}.json", w.name)),
            &trace::spans_json(tr.spans()),
        )?;
        traced_pass = Some(again);
    }

    for (name, value, unit) in m.iter().chain(layer_m.iter()) {
        println!("{:<44} {:>16.4} {}", name, value, unit);
    }
    // The result line counts the pass whose metrics it carries; a failure in
    // either pass makes the run incorrect.
    let judged = traced_pass.as_ref().unwrap_or(&plain);
    let correct = plain.failed == 0 && judged.failed == 0;
    for f in plain
        .failures
        .iter()
        .chain(traced_pass.iter().flat_map(|r| &r.failures))
    {
        println!("FAILED: {}", f);
    }
    let verdict = |doc: &mut Vec<(String, Json)>| {
        doc.push(("correct".into(), Json::Bool(correct)));
        doc.push(("attempted".into(), Json::Num(judged.attempted as f64)));
        doc.push(("failed".into(), Json::Num(judged.failed as f64)));
    };
    let mut doc = vec![
        ("workload".into(), Json::Str(w.name.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(traced)),
    ];
    verdict(&mut doc);
    doc.push(("state_digest".into(), Json::Str(plain.state_digest.hex())));
    doc.push(("det_digest".into(), Json::Str(plain.det_digest.hex())));
    doc.push((
        "epochs".into(),
        Json::Obj(
            STAGES
                .iter()
                .zip(judged.epochs)
                .map(|(stage, n)| (stage.to_string(), Json::Num(n as f64)))
                .collect(),
        ),
    ));
    doc.push(("end_to_end".into(), end_to_end_json.clone()));
    if let Some(per_layer) = &per_layer_json {
        doc.push(("per_layer".into(), per_layer.clone()));
    }
    let suffix = if traced { "-traced" } else { "" };
    write_out(
        &dir.join(format!("out/{}{}.json", w.name, suffix)),
        &Json::Obj(doc).render(),
    )?;

    let mut line = Vec::new();
    verdict(&mut line);
    line.push(("metrics".into(), per_layer_json.unwrap_or(end_to_end_json)));
    println!("{}", Json::Obj(line).render());
    Ok(true)
}

fn write_out(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {}", parent.display(), e))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {}", path.display(), e))
}

/// Rewrites `expected/states.json` from one epoch of every stage. For the
/// change that alters simulated results on purpose; never for one that
/// claims a gain.
fn pin(args: &[String]) -> Result<bool, String> {
    let dir = perf_dir(args)?;
    let inp = Inputs::build()?;
    let r = drive(&WORKLOADS[0], &inp, 1, 0.0, &mut Tracer::new(false), || ());
    if r.failed > 0 {
        return Err(format!("cannot pin a failing run: {:?}", r.failures));
    }
    let lines: Vec<String> = r
        .pinned
        .iter()
        .map(|(name, hex)| format!("  \"{}\": \"{}\"", name, hex))
        .collect();
    let text = format!("{{\"states\": {{\n{}\n}}}}\n", lines.join(",\n"));
    write_out(&dir.join("expected/states.json"), &text)?;
    eprintln!("pinned {} states", lines.len());
    Ok(true)
}

/// `compare A.json B.json`: do two runs of one workload agree? Every
/// end-to-end metric within its bound of the other; and, when the seeds are
/// equal, digest for digest.
fn compare(args: &[String]) -> Result<bool, String> {
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {}", path, e))?;
        json::parse(&text).map_err(|e| format!("{}: {}", path, e))
    };
    let (a, b) = match args {
        [a, b] => (read(a)?, read(b)?),
        _ => return Err("compare takes two result files".into()),
    };
    let mut ok = true;
    for doc in [&a, &b] {
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            println!("a run is not correct");
            ok = false;
        }
    }
    let value = |doc: &Json, name: &str| doc.get("end_to_end")?.get(name)?.get("value")?.as_f64();
    for e in &END_TO_END {
        let (Some(x), Some(y)) = (value(&a, e.name), value(&b, e.name)) else {
            return Err(format!("{} is missing from a result file", e.name));
        };
        let off = (x - y).abs() / x.min(y);
        let verdict = if off <= e.bound { "ok" } else { "APART" };
        println!(
            "{:<32} {:>14.4} {:>14.4} {:>7.2}% of {:>4.0}%  {}",
            e.name,
            x,
            y,
            off * 100.0,
            e.bound * 100.0,
            verdict
        );
        ok &= off <= e.bound;
    }
    if a.get("seed") == b.get("seed") {
        for key in ["state_digest", "det_digest"] {
            let same = a.get(key).is_some() && a.get(key) == b.get(key);
            println!(
                "{:<32} {}",
                key,
                if same { "identical" } else { "DIFFERENT" }
            );
            ok &= same;
        }
    }
    Ok(ok)
}

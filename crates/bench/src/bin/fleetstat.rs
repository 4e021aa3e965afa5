//! `fleetstat` — a `top(1)`-style snapshot of fleet telemetry.
//!
//! Builds a representative two-node cluster from the Table-1 workloads,
//! runs it for a few rounds with telemetry enabled, and prints a summary of
//! the merged [`synergy::Cluster::metrics`] registry (plus the process-global
//! registry, which holds cross-cutting counters like CRC failures). With
//! `--out DIR` it also writes the full snapshot in both exporter formats:
//!
//! * `DIR/fleet_metrics.txt` — Prometheus text exposition;
//! * `DIR/fleet_metrics.json` — the jsonish snapshot.
//!
//! ```text
//! cargo run --release -p synergy-bench --bin fleetstat -- \
//!     [--tenants N] [--rounds N] [--policy seq|par] [--out DIR]
//! ```
//!
//! The run is deterministic: every `Det`-namespace line is bit-identical
//! across invocations and across `--policy seq` / `--policy par` (the
//! determinism contract the differential suites pin). `NonDet` lines carry
//! host-time samples and vary run to run.

use synergy::telemetry::{self, MetricValue, Namespace, Registry};
use synergy::workloads;
use synergy::{Cluster, Device, DomainId, NodeId, Runtime, SchedPolicy};

/// Per-round simulated time; generous so the tick cap binds.
const ROUND_DT: f64 = 1.0;

struct Opts {
    tenants: usize,
    rounds: usize,
    policy: SchedPolicy,
    out: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        tenants: 6,
        rounds: 4,
        policy: SchedPolicy::Sequential,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{} needs a value", flag)))
        };
        match arg.as_str() {
            "--tenants" => {
                opts.tenants = value("--tenants")
                    .parse()
                    .unwrap_or_else(|_| die("--tenants needs an integer"));
            }
            "--rounds" => {
                opts.rounds = value("--rounds")
                    .parse()
                    .unwrap_or_else(|_| die("--rounds needs an integer"));
            }
            "--policy" => {
                opts.policy = match value("--policy").as_str() {
                    "seq" => SchedPolicy::Sequential,
                    "par" => SchedPolicy::Parallel { workers: 4 },
                    other => die(&format!("unknown policy '{}' (want seq|par)", other)),
                };
            }
            "--out" => opts.out = Some(value("--out")),
            "--help" | "-h" => {
                println!("fleetstat [--tenants N] [--rounds N] [--policy seq|par] [--out DIR]");
                std::process::exit(0);
            }
            other => die(&format!("unknown argument '{}'", other)),
        }
    }
    opts
}

fn die(msg: &str) -> ! {
    eprintln!("fleetstat: {}", msg);
    std::process::exit(2);
}

/// Builds a two-node cluster with `tenants` Table-1 workloads round-robined
/// across the nodes, every tenant deployed.
fn build_cluster(tenants: usize, policy: SchedPolicy) -> Cluster {
    let mut cluster = Cluster::new();
    let a = cluster.add_node(Device::f1());
    let b = cluster.add_node(Device::f1());
    cluster.set_engine_policy(synergy::EnginePolicy::Auto);
    cluster.set_sched_policy(policy);
    let benches = workloads::all();
    for i in 0..tenants {
        let bench = &benches[i % benches.len()];
        let mut rt = Runtime::new(
            format!("{}_{}", bench.name, i),
            &bench.source,
            &bench.top,
            &bench.clock,
        )
        .unwrap_or_else(|e| {
            die(&format!(
                "workload {} failed to elaborate: {}",
                bench.name, e
            ))
        });
        if let Some(path) = &bench.input_path {
            rt.add_file(path.clone(), workloads::input_data(&bench.name, 1 << 14));
        }
        let node = if i % 2 == 0 { a } else { b };
        let id = cluster
            .node_mut(node)
            .connect(rt, DomainId(i as u64 + 1), false);
        cluster
            .node_mut(node)
            .deploy(id)
            .unwrap_or_else(|e| die(&format!("deploy of tenant {} failed: {}", i, e)));
    }
    cluster
}

/// Sums a counter across all label sets (tenant/node labels make each
/// instance a distinct key).
fn counter_sum(reg: &Registry, ns: Namespace, name: &str) -> u64 {
    counter_sum_with(reg, ns, name, &[])
}

/// [`counter_sum`] over the label sets that carry every pair in `with`.
fn counter_sum_with(reg: &Registry, ns: Namespace, name: &str, with: &[(&str, &str)]) -> u64 {
    reg.iter(ns)
        .filter(|(k, _)| k.name == name)
        .filter(|(k, _)| {
            with.iter()
                .all(|&(label, value)| k.labels.iter().any(|(l, v)| *l == label && v == value))
        })
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

fn main() {
    let opts = parse_opts();
    telemetry::set_enabled(true);

    let mut cluster = build_cluster(opts.tenants, opts.policy);
    for _ in 0..opts.rounds {
        for idx in 0..cluster.len() {
            cluster
                .node_mut(NodeId(idx))
                .run_round(ROUND_DT)
                .unwrap_or_else(|e| die(&format!("round failed on node {}: {}", idx, e)));
        }
    }

    // The cluster registry plus the process-global one (cross-cutting
    // counters such as checkpoint_crc_failures_total live there because no
    // single tenant owns them).
    let mut registry = cluster.metrics();
    registry.merge(&telemetry::global_snapshot());

    println!(
        "fleet: {} nodes, {} tenants, {} rounds/node, policy {:?}",
        cluster.len(),
        opts.tenants,
        opts.rounds,
        opts.policy
    );
    println!(
        "rounds {}   ticks {}   tasks {}   events {}",
        counter_sum(&registry, Namespace::Det, "hv_rounds_total"),
        counter_sum(&registry, Namespace::Det, "hv_round_ticks_total"),
        counter_sum(&registry, Namespace::Det, "hv_round_tasks_total"),
        counter_sum(&registry, Namespace::Det, "runtime_events_total"),
    );
    println!(
        "quarantines {}   engine errors {}   fallbacks {}   crc failures {}",
        counter_sum(&registry, Namespace::Det, "hv_quarantines_total"),
        counter_sum(&registry, Namespace::Det, "runtime_engine_errors_total"),
        counter_sum(&registry, Namespace::Det, "runtime_engine_fallbacks_total"),
        counter_sum(&registry, Namespace::Det, "checkpoint_crc_failures_total"),
    );
    // Who built a program depends on who came first, so this line is NonDet.
    // A built count of 0 means the admissions rebuilt nothing.
    let share = |artefact: &str| {
        let count = |name| {
            counter_sum_with(
                &registry,
                Namespace::NonDet,
                name,
                &[("artefact", artefact)],
            )
        };
        format!(
            "{} {}/{}",
            artefact,
            count("program_share_misses_total"),
            count("program_share_hits_total")
        )
    };
    println!(
        "programs built/found (NonDet): {}",
        ["design", "compiled", "transformed", "fabric"]
            .map(share)
            .join("  ")
    );
    for idx in 0..cluster.len() {
        let node_label = idx.to_string();
        if let Some(MetricValue::Histogram(h)) = registry
            .iter(Namespace::Det)
            .find(|(k, _)| {
                k.name == "hv_round_latency_ticks"
                    && k.labels
                        .iter()
                        .any(|(lk, lv)| *lk == "node" && *lv == node_label)
            })
            .map(|(_, v)| v)
        {
            println!(
                "node {}: round latency ticks p50 {}  p99 {}  (n={})",
                idx,
                h.quantile(0.50),
                h.quantile(0.99),
                h.count()
            );
        }
        // The share of the node's ticks that software-resident tenants of
        // one program ran in lockstep, and why lanes left their cohorts.
        let node = [("node", node_label.as_str())];
        let lockstep = counter_sum_with(
            &registry,
            Namespace::Det,
            "hv_cohort_lane_ticks_total",
            &node,
        );
        let ticks = counter_sum_with(&registry, Namespace::Det, "hv_round_ticks_total", &node);
        let exits = ["initials", "effect", "fault"].map(|reason| {
            let with = [node[0], ("reason", reason)];
            format!(
                "{} {}",
                reason,
                counter_sum_with(&registry, Namespace::Det, "hv_cohort_exits_total", &with)
            )
        });
        println!(
            "node {}: cohort share {:.3} ({} of {} ticks in lockstep)  exits {}",
            idx,
            lockstep as f64 / ticks.max(1) as f64,
            lockstep,
            ticks,
            exits.join("  ")
        );
    }
    let det_lines = registry.iter(Namespace::Det).count();
    let nondet_lines = registry.iter(Namespace::NonDet).count();
    println!("metrics: {} det, {} nondet", det_lines, nondet_lines);

    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {}", dir, e)));
        let txt = format!("{}/fleet_metrics.txt", dir);
        let json = format!("{}/fleet_metrics.json", dir);
        std::fs::write(&txt, registry.to_prometheus())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {}", txt, e)));
        std::fs::write(&json, registry.to_jsonish())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {}", json, e)));
        println!("wrote {} and {}", txt, json);
    }
}

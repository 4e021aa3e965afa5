//! Many-tenant hypervisor scaling benchmark (`BENCH_hv_scaling.json`).
//!
//! Measures aggregate virtual-clock throughput (ticks/sec of host wall time,
//! summed over every tenant) of [`synergy::Hypervisor::run_round`] as the
//! worker count and fleet size grow. Fleets mix the Table-1 workloads with
//! fuzz-generated designs, on mixed engines (compiled where the design
//! lowers, interpreter otherwise) — the same population the differential
//! suites pin as bit-identical across scheduling policies.
//!
//! Two throughput figures are reported per configuration:
//!
//! * **wall** — host wall-clock, as measured on the machine running the
//!   benchmark. Only meaningful up to the machine's core count: on a 1-core
//!   CI container every worker count measures ≈1×.
//! * **model** — the schedule's *critical path*: per-tenant host costs are
//!   measured per round (deltas of the `hv_host_round_ns_total{app}`
//!   counters in `Hypervisor::metrics()`), then
//!   packed onto `workers` workers with the same greedy longest-job-first
//!   placement a work-stealing pool converges to; the round costs what its
//!   most-loaded worker costs. This is the repo's usual device-model
//!   approach (performance is modelled, not tied to the host — compare
//!   `synergy-fpga`), and on a multi-core host the wall figure tracks it.

use std::time::Instant;
use synergy::telemetry::MetricValue;
use synergy::workloads::{fuzz_input_data, generate_fuzz_design};
use synergy::{Device, DomainId, EnginePolicy, Hypervisor, Namespace, Runtime, SchedPolicy};

/// Ticks each tenant executes per round (the DRR quantum; fleets here are
/// compute-bound, so every tenant consumes exactly this budget).
const ROUND_TICK_CAP: u64 = 512;

/// Simulated round length — generous enough that the tick cap, not dt, is
/// the binding constraint for every tenant.
const ROUND_DT: f64 = 1.0;

/// One measured configuration of the scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingMeasurement {
    /// Worker threads (`0` encodes `SchedPolicy::Sequential`).
    pub workers: usize,
    /// Fleet size.
    pub tenants: usize,
    /// Timed rounds.
    pub rounds: usize,
    /// Virtual ticks executed across the fleet during the timed rounds.
    pub total_ticks: u64,
    /// Host wall-clock nanoseconds for the timed rounds.
    pub wall_ns: u64,
    /// Critical-path nanoseconds under the scheduling model (see module
    /// docs); equals the serial sum for the sequential configuration.
    pub model_ns: u64,
}

impl ScalingMeasurement {
    /// Aggregate ticks per second of measured host wall time.
    pub fn wall_ticks_per_sec(&self) -> f64 {
        self.total_ticks as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Aggregate ticks per second under the scheduling model.
    pub fn model_ticks_per_sec(&self) -> f64 {
        self.total_ticks as f64 / (self.model_ns.max(1) as f64 / 1e9)
    }
}

/// Builds the standard mixed fleet: the six Table-1 workloads round-robin,
/// interleaved with fuzz-generated designs, all upgraded to the compiled
/// engine where the design lowers (fuzz designs always do; workloads too).
fn build_fleet(tenants: usize) -> Hypervisor {
    let mut hv = Hypervisor::new(Device::f1());
    hv.set_engine_policy(EnginePolicy::Auto);
    hv.set_round_tick_cap(ROUND_TICK_CAP);
    let workloads = synergy::workloads::all();
    for i in 0..tenants {
        let domain = DomainId(i as u64 + 1);
        if i % 2 == 0 {
            let bench = &workloads[(i / 2) % workloads.len()];
            let mut rt = Runtime::new(
                format!("{}_{}", bench.name, i),
                &bench.source,
                &bench.top,
                &bench.clock,
            )
            .expect("workload compiles");
            if let Some(path) = &bench.input_path {
                rt.add_file(
                    path.clone(),
                    synergy::workloads::input_data(&bench.name, 1 << 14),
                );
            }
            rt.run_ticks(2).expect("software warm-up");
            hv.connect(rt, domain, false);
        } else {
            let seed = i as u64;
            let d = generate_fuzz_design(seed);
            let mut rt = Runtime::new(format!("fuzz_{}", seed), &d.source, &d.top, &d.clock)
                .expect("fuzz designs elaborate");
            if let Some(path) = &d.input_path {
                rt.add_file(path.clone(), fuzz_input_data(seed, 1 << 14));
            }
            hv.connect(rt, domain, false);
        }
    }
    hv
}

/// Greedy longest-job-first packing of per-tenant costs onto `workers`
/// workers; returns the critical path (most-loaded worker).
fn critical_path_ns(costs: &[u64], workers: usize) -> u64 {
    if workers <= 1 {
        return costs.iter().sum();
    }
    let mut sorted: Vec<u64> = costs.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; workers];
    for c in sorted {
        let min = loads.iter_mut().min_by_key(|l| **l).expect("workers >= 1");
        *min += c;
    }
    loads.into_iter().max().unwrap_or(0)
}

/// Runs the sweep: every worker count in `worker_counts` (0 = sequential)
/// against every fleet size in `tenant_counts`, `rounds` timed rounds each
/// (after one untimed warm-up round).
///
/// The sequential configuration of each fleet size always runs (it is the
/// baseline), and its per-round, per-tenant host costs feed the scheduling
/// model for *every* worker count — per-job spans measured during a parallel
/// run on a host with fewer cores than workers would include other workers'
/// timeslices, which is exactly the artefact the model exists to remove.
/// Parallel configurations still execute for real on the pool: their wall
/// times are reported as measured, and the differential guarantee is
/// re-checked (every configuration of a fleet must execute the same ticks).
pub fn run_scaling_sweep(
    worker_counts: &[usize],
    tenant_counts: &[usize],
    rounds: usize,
) -> Vec<ScalingMeasurement> {
    sweep_impl(worker_counts, tenant_counts, rounds, true)
}

/// Model-only variant of [`run_scaling_sweep`]: measures each fleet size
/// sequentially once and *derives* every parallel configuration from the
/// scheduling model, without executing on the pool. This is what the
/// perf-regression gate uses — the gated metric is the model speedup, which
/// comes entirely from the sequential costs, so running the pool would only
/// add wall time (parallel==sequential execution is pinned separately by
/// `tests/hv_parallel.rs`). Modelled entries report `wall_ns == model_ns`.
pub fn run_scaling_model(
    worker_counts: &[usize],
    tenant_counts: &[usize],
    rounds: usize,
) -> Vec<ScalingMeasurement> {
    sweep_impl(worker_counts, tenant_counts, rounds, false)
}

fn sweep_impl(
    worker_counts: &[usize],
    tenant_counts: &[usize],
    rounds: usize,
    execute_parallel: bool,
) -> Vec<ScalingMeasurement> {
    // The per-tenant host costs come from the metrics registry, so telemetry
    // must record for the duration of the sweep whatever the environment says.
    let telemetry_was_on = synergy::telemetry::enabled();
    synergy::telemetry::set_enabled(true);
    let mut out = Vec::new();
    for &tenants in tenant_counts {
        // Sequential baseline + per-round cost vectors for the model.
        let mut hv = build_fleet(tenants);
        hv.run_round(ROUND_DT).expect("warm-up round");
        let mut seq_ticks = 0u64;
        let mut seq_wall_ns = 0u64;
        let mut round_costs: Vec<Vec<u64>> = Vec::with_capacity(rounds);
        let mut before = host_round_ns(&hv);
        for _ in 0..rounds {
            // Only the round is timed; reading the registry is bookkeeping.
            let start = Instant::now();
            let stats = hv.run_round(ROUND_DT).expect("round is infallible");
            seq_wall_ns += start.elapsed().as_nanos() as u64;
            seq_ticks += stats.iter().map(|s| s.ticks).sum::<u64>();
            let after = host_round_ns(&hv);
            round_costs.push(after.iter().zip(&before).map(|(a, b)| a - b).collect());
            before = after;
        }
        out.push(ScalingMeasurement {
            workers: 0,
            tenants,
            rounds,
            total_ticks: seq_ticks,
            wall_ns: seq_wall_ns,
            model_ns: round_costs.iter().map(|c| c.iter().sum::<u64>()).sum(),
        });

        for &workers in worker_counts.iter().filter(|&&w| w != 0) {
            let model_ns: u64 = round_costs
                .iter()
                .map(|costs| critical_path_ns(costs, workers))
                .sum();
            let wall_ns = if execute_parallel {
                let mut hv = build_fleet(tenants);
                hv.set_sched_policy(SchedPolicy::Parallel { workers });
                hv.run_round(ROUND_DT).expect("warm-up round");
                let mut total_ticks = 0u64;
                let start = Instant::now();
                for _ in 0..rounds {
                    let stats = hv.run_round(ROUND_DT).expect("round is infallible");
                    total_ticks += stats.iter().map(|s| s.ticks).sum::<u64>();
                }
                let wall_ns = start.elapsed().as_nanos() as u64;
                assert_eq!(
                    total_ticks, seq_ticks,
                    "scheduling policy changed the work executed ({} tenants, {} workers)",
                    tenants, workers
                );
                wall_ns
            } else {
                model_ns
            };
            out.push(ScalingMeasurement {
                workers,
                tenants,
                rounds,
                total_ticks: seq_ticks,
                wall_ns,
                model_ns,
            });
        }
    }
    synergy::telemetry::set_enabled(telemetry_was_on);
    out
}

/// Cumulative host nanoseconds each tenant's round jobs have taken so far
/// (`hv_host_round_ns_total{app}`), in registry key order — stable for a
/// fixed fleet once every tenant has run a round, which the warm-up ensures.
fn host_round_ns(hv: &Hypervisor) -> Vec<u64> {
    hv.metrics()
        .iter(Namespace::NonDet)
        .filter(|(k, _)| k.name == "hv_host_round_ns_total")
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .collect()
}

/// Model speedup of a configuration relative to the sequential run of the
/// same fleet size (`None` if either is missing).
pub fn model_speedup(
    measurements: &[ScalingMeasurement],
    workers: usize,
    tenants: usize,
) -> Option<f64> {
    let seq = measurements
        .iter()
        .find(|m| m.workers == 0 && m.tenants == tenants)?;
    let cfg = measurements
        .iter()
        .find(|m| m.workers == workers && m.tenants == tenants)?;
    Some(cfg.model_ticks_per_sec() / seq.model_ticks_per_sec().max(1e-9))
}

/// Renders the sweep as a text table (wall and model ticks/sec, model
/// speedup vs sequential per fleet size).
pub fn scaling_table(measurements: &[ScalingMeasurement]) -> String {
    let mut out = String::from(
        "workers  tenants   rounds      total_ticks    wall_ticks/s   model_ticks/s   model_speedup\n",
    );
    for m in measurements {
        let speedup = model_speedup(measurements, m.workers, m.tenants).unwrap_or(1.0);
        out.push_str(&format!(
            "{:>7}  {:>7}  {:>7}  {:>15}  {:>14.0}  {:>14.0}  {:>13.2}x\n",
            if m.workers == 0 {
                "seq".to_string()
            } else {
                m.workers.to_string()
            },
            m.tenants,
            m.rounds,
            m.total_ticks,
            m.wall_ticks_per_sec(),
            m.model_ticks_per_sec(),
            speedup,
        ));
    }
    out
}

/// Serialises the sweep to the `BENCH_hv_scaling.json` schema.
pub fn scaling_json(measurements: &[ScalingMeasurement], date: &str) -> String {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = String::new();
    for (i, m) in measurements.iter().enumerate() {
        let speedup = model_speedup(measurements, m.workers, m.tenants).unwrap_or(1.0);
        rows.push_str(&format!(
            "    {{ \"workers\": {}, \"tenants\": {}, \"rounds\": {}, \"total_ticks\": {}, \"wall_ticks_per_sec\": {:.0}, \"model_ticks_per_sec\": {:.0}, \"model_speedup\": {:.2} }}{}\n",
            m.workers,
            m.tenants,
            m.rounds,
            m.total_ticks,
            m.wall_ticks_per_sec(),
            m.model_ticks_per_sec(),
            speedup,
            if i + 1 == measurements.len() { "" } else { "," },
        ));
    }
    let headline = model_speedup(measurements, 8, 32).unwrap_or(1.0);
    format!(
        "{{\n  \"benchmark\": \"hv_scaling\",\n  \"description\": \"Aggregate virtual-clock ticks/sec of Hypervisor::run_round over mixed fleets (Table-1 workloads + fuzz-generated designs, compiled engine via EnginePolicy::Auto) as the work-stealing scheduler's worker count grows. 'wall' is host wall-clock on the benchmark machine (host_cores bounds it); 'model' is the schedule's critical path computed from measured per-tenant host costs (longest-job-first packing), the same modelled-performance methodology as the synergy-fpga device model. workers=0 is SchedPolicy::Sequential. Regenerate with `cargo run --release -p synergy-bench --bin hv_scaling`.\",\n  \"date\": \"{}\",\n  \"host_cores\": {},\n  \"round_tick_cap\": {},\n  \"results\": [\n{}  ],\n  \"summary\": {{ \"model_speedup_8_workers_32_tenants\": {:.2} }},\n  \"acceptance\": \"model speedup at 8 workers / 32-tenant mixed fleet >= 3x sequential (measured {:.2}x), with parallel rounds bit-identical to sequential (tests/hv_parallel.rs: stats, events, errors, snapshots, and $display output, for the Table-1 fleets and >=256 fuzz seeds).\"\n}}\n",
        date, host_cores, ROUND_TICK_CAP, rows, headline, headline,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_matches_hand_schedules() {
        assert_eq!(critical_path_ns(&[], 4), 0);
        assert_eq!(critical_path_ns(&[10, 20, 30], 1), 60);
        // LPT on 2 workers: {30} vs {20, 10} -> 30.
        assert_eq!(critical_path_ns(&[10, 20, 30], 2), 30);
        // More workers than jobs: the longest job bounds the round.
        assert_eq!(critical_path_ns(&[10, 20, 30], 8), 30);
    }

    #[test]
    fn smoke_sweep_scales_in_the_model_and_serialises() {
        let ms = run_scaling_sweep(&[0, 2], &[8], 2);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].total_ticks, ms[1].total_ticks);
        assert!(
            ms[0].total_ticks >= 8 * 2 * ROUND_TICK_CAP / 2,
            "fleet ticked"
        );
        let speedup = model_speedup(&ms, 2, 8).unwrap();
        assert!(
            speedup > 1.2,
            "2 workers must beat sequential in the model, got {:.2}",
            speedup
        );
        let json = scaling_json(&ms, "2026-01-01");
        assert!(json.contains("\"benchmark\": \"hv_scaling\""));
        assert!(json.contains("\"workers\": 2"));
        let table = scaling_table(&ms);
        assert!(table.contains("seq"));
    }
}

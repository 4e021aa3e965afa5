//! The tenant-churn cluster-serving benchmark behind
//! `BENCH_cluster_serving.json`.
//!
//! Drives a [`ControlPlane`] the way a production
//! fleet is driven: tenants arrive and depart every round over 4–16 simulated
//! nodes, the rebalancer sheds load across the watermarks, periodic fleet
//! checkpoints land in the ring, and (optionally) a seeded
//! [`FaultPlan`] kills nodes mid-run so crash recovery is
//! part of the measured serving loop.
//!
//! Every reported figure is **virtual** — round latencies in simulated ticks,
//! migration downtime in simulated nanoseconds, recovery cost in replayed
//! rounds — so the benchmark is bit-deterministic for a `(config, seed)`
//! pair on any machine. That is what lets every `cargo test` compare a fresh
//! gate run with the committed gate numbers with **zero tolerance**: any
//! drift in scheduling, placement, checkpointing, or recovery behaviour
//! fails the test.

use synergy::{ControlConfig, ControlPlane, Device, FaultKind, FaultPlan, TenantSpec};

/// The tenant program: a tiny counter, cheap enough that thousand-tenant
/// fleets run in seconds but stateful enough that lost ticks are visible.
const TENANT_SOURCE: &str = r#"
    module Worker(input wire clock, output wire [31:0] out);
        reg [31:0] acc = 0;
        always @(posedge clock) acc <= acc + 3;
        assign out = acc;
    endmodule
"#;

/// One serving-sweep configuration. Everything that shapes behaviour is in
/// here, so the gate can re-run the committed config exactly.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Simulated nodes (4–16 in the committed artifact).
    pub nodes: usize,
    /// Total tenants admitted over the run.
    pub tenants: usize,
    /// Control rounds driven.
    pub rounds: u64,
    /// Seed for the churn schedule (arrivals/departures per round).
    pub churn_seed: u64,
    /// Seed for the fault plan; `None` runs fault-free.
    pub fault_seed: Option<u64>,
}

impl ServingConfig {
    /// The committed full-scale artifact: 1,200 tenants over 8 nodes.
    pub fn full() -> Self {
        ServingConfig {
            nodes: 8,
            tenants: 1200,
            rounds: 48,
            churn_seed: 7,
            fault_seed: Some(11),
        }
    }

    /// The smoke-scale config the gate test re-runs on every `cargo test`.
    pub fn gate() -> Self {
        ServingConfig {
            nodes: 4,
            tenants: 48,
            rounds: 16,
            churn_seed: 7,
            fault_seed: Some(11),
        }
    }
}

/// What one serving run measured. All figures deterministic except
/// `wall_ms`, which is informational only and never gated.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// The configuration that produced the numbers.
    pub config: ServingConfig,
    /// Tenants admitted over the run.
    pub admitted: usize,
    /// Tenants departed by the churn schedule.
    pub departed: usize,
    /// Median per-round latency: the fleet's critical path in virtual ticks
    /// (max over nodes of the round's executed ticks).
    pub p50_round_ticks: u64,
    /// 99th-percentile per-round latency in virtual ticks.
    pub p99_round_ticks: u64,
    /// Rebalancing migrations performed.
    pub migrations: u64,
    /// Migrations that failed and rolled back (injected or organic).
    pub migration_failures: u64,
    /// Mean virtual downtime per successful migration, in simulated ns.
    pub mean_migration_downtime_ns: u64,
    /// Crash recoveries performed.
    pub recoveries: usize,
    /// Scheduling rounds re-executed across all recoveries (the virtual
    /// recovery cost; multiply by the round tick cap for per-tenant ticks).
    pub recovery_replayed_rounds: u64,
    /// Tenants alive at the end.
    pub survivors: usize,
    /// Tenants the journal says should be alive at the end.
    pub expected_alive: usize,
    /// `survivors / expected_alive` — 1.0 means zero tenant loss.
    pub survival: f64,
    /// Host wall-clock for the run (informational, non-deterministic).
    pub wall_ms: u64,
}

/// xorshift* churn RNG (same shape as the repo's fuzz sweeps).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn spec(index: usize) -> TenantSpec {
    TenantSpec {
        name: format!("tenant-{:05}", index),
        source: TENANT_SOURCE.to_string(),
        top: "Worker".to_string(),
        clock: "clock".to_string(),
        domain: index as u64 + 1,
        io_bound: false,
    }
}

/// Runs one serving sweep: seeded churn + optional seeded faults over a
/// control plane, collecting the virtual serving metrics.
pub fn run_serving(config: &ServingConfig) -> ServingReport {
    let start = std::time::Instant::now();
    let nodes = config.nodes.max(1);
    // Capacity sized so the peak fleet fits with ~2x headroom — admission
    // control is exercised by load scoring, not by turning tenants away.
    let capacity = (config.tenants * 2 / nodes).max(4);
    // Watermarks sit just above the fleet's steady-state load (~330‰ with
    // 2x capacity headroom): an even fleet is left alone, but the skew a
    // node kill leaves behind — packed survivors, an empty revived node —
    // trips the rebalancer, so the run measures self-healing migrations.
    // The band is wider than one tenant's worth of load (1000/capacity) so
    // steady-state churn cannot make the rebalancer thrash.
    let mut cp = ControlPlane::new(ControlConfig {
        software_capacity: Some(capacity),
        checkpoint_interval: 4,
        high_watermark: 350,
        low_watermark: 200,
        ..ControlConfig::default()
    });
    cp.set_engine_policy(synergy::EnginePolicy::Auto);
    for i in 0..nodes {
        // Heterogeneous fleet, as in the paper's cluster: every fourth node
        // is a big F1 instance, the rest are DE10s.
        cp.add_node(if i % 4 == 3 {
            Device::f1()
        } else {
            Device::de10()
        });
    }
    if let Some(seed) = config.fault_seed {
        let mut plan = FaultPlan::seeded(seed, config.rounds, nodes);
        // The seeded mix alone may roll no node kill, and a serving run must
        // always measure the recovery path — so pin one seed-derived kill on
        // top of it. The kill lands at 3/4 of the run, off the checkpoint
        // cadence (forcing journal replay) and after arrivals have drained,
        // so the revived node comes back genuinely empty and the following
        // rounds measure the rebalancer re-packing it. A checkpoint
        // corruption and an armed migration failure ride along to keep the
        // fallback and backoff paths in the measured run.
        plan.push(config.rounds / 3, FaultKind::CorruptCheckpoint);
        let kill_round = config.rounds * 3 / 4 + 1;
        plan.push(kill_round, FaultKind::KillNode(seed as usize % nodes));
        plan.push(kill_round + 2, FaultKind::FailMigration);
        cp.set_fault_plan(plan);
    }

    let mut rng = Rng::new(config.churn_seed);
    let mut admitted = 0usize;
    let mut departed = 0usize;
    let mut alive: Vec<String> = Vec::new();
    let mut round_ticks: Vec<u64> = Vec::new();
    // Arrivals finish by two-thirds of the run (departures run throughout):
    // the tail third serves a stable fleet, which is where the pinned kill
    // lands and the post-recovery rebalancing is measured.
    let arrival_span = (config.rounds as usize * 2 / 3).max(1);
    let arrivals_per_round = config.tenants.div_ceil(arrival_span).max(1);

    for round in 0..config.rounds {
        // Arrivals: front-loaded evenly; departures: a seeded third of the
        // arrival rate once the fleet has warmed up, oldest-biased.
        while admitted < config.tenants && admitted < arrivals_per_round * (round as usize + 1) {
            let s = spec(admitted);
            alive.push(s.name.clone());
            cp.admit(s)
                .expect("admission (capacity is sized with headroom)");
            admitted += 1;
        }
        if round > 2 && !alive.is_empty() {
            for _ in 0..arrivals_per_round.div_ceil(3) {
                if alive.len() <= 1 {
                    break;
                }
                let pick = (rng.below(alive.len() as u64 / 2 + 1)) as usize;
                let name = alive.remove(pick);
                cp.depart(&name).expect("departing a live tenant");
                departed += 1;
            }
        }
        cp.step().expect("control round");
        let worst = cp
            .cluster()
            .node_ids()
            .into_iter()
            .map(|id| cp.cluster().node(id).last_round_ticks())
            .max()
            .unwrap_or(0);
        round_ticks.push(worst);
    }

    round_ticks.sort_unstable();
    let pct = |p: f64| -> u64 {
        if round_ticks.is_empty() {
            return 0;
        }
        let idx = ((round_ticks.len() as f64 - 1.0) * p).round() as usize;
        round_ticks[idx]
    };
    let survivors = cp.tenants().len();
    let expected_alive = alive.len();
    let recovery_replayed_rounds = cp
        .recoveries()
        .iter()
        .map(|r| r.replayed_rounds)
        .sum::<u64>();
    ServingReport {
        config: config.clone(),
        admitted,
        departed,
        p50_round_ticks: pct(0.50),
        p99_round_ticks: pct(0.99),
        migrations: cp.migrations(),
        migration_failures: cp.migration_failures(),
        mean_migration_downtime_ns: cp
            .migration_downtime_ns()
            .checked_div(cp.migrations())
            .unwrap_or(0),
        recoveries: cp.recoveries().len(),
        recovery_replayed_rounds,
        survivors,
        expected_alive,
        survival: if expected_alive == 0 {
            1.0
        } else {
            survivors as f64 / expected_alive as f64
        },
        wall_ms: start.elapsed().as_millis() as u64,
    }
}

fn report_fields(r: &ServingReport, prefix: &str, out: &mut String) {
    let p = prefix;
    out.push_str(&format!("    \"{}nodes\": {},\n", p, r.config.nodes));
    out.push_str(&format!("    \"{}tenants\": {},\n", p, r.config.tenants));
    out.push_str(&format!("    \"{}rounds\": {},\n", p, r.config.rounds));
    out.push_str(&format!(
        "    \"{}churn_seed\": {},\n",
        p, r.config.churn_seed
    ));
    out.push_str(&format!(
        "    \"{}fault_seed\": {},\n",
        p,
        r.config.fault_seed.map_or(-1, |s| s as i64)
    ));
    out.push_str(&format!("    \"{}admitted\": {},\n", p, r.admitted));
    out.push_str(&format!("    \"{}departed\": {},\n", p, r.departed));
    out.push_str(&format!(
        "    \"{}p50_round_ticks\": {},\n",
        p, r.p50_round_ticks
    ));
    out.push_str(&format!(
        "    \"{}p99_round_ticks\": {},\n",
        p, r.p99_round_ticks
    ));
    out.push_str(&format!("    \"{}migrations\": {},\n", p, r.migrations));
    out.push_str(&format!(
        "    \"{}migration_failures\": {},\n",
        p, r.migration_failures
    ));
    out.push_str(&format!(
        "    \"{}mean_migration_downtime_ns\": {},\n",
        p, r.mean_migration_downtime_ns
    ));
    out.push_str(&format!("    \"{}recoveries\": {},\n", p, r.recoveries));
    out.push_str(&format!(
        "    \"{}recovery_replayed_rounds\": {},\n",
        p, r.recovery_replayed_rounds
    ));
    out.push_str(&format!("    \"{}survivors\": {},\n", p, r.survivors));
    out.push_str(&format!(
        "    \"{}expected_alive\": {},\n",
        p, r.expected_alive
    ));
    out.push_str(&format!("    \"{}survival\": {:.4},\n", p, r.survival));
    out.push_str(&format!("    \"{}wall_ms\": {}", p, r.wall_ms));
}

/// Emits `BENCH_cluster_serving.json`: the full-scale artifact plus the
/// smoke-scale gate section the gate test re-measures. Gate fields
/// carry a `gate_` prefix so the flat jsonish reader is unambiguous.
pub fn serving_json(full: &ServingReport, gate: &ServingReport, date: &str) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"cluster_serving\",\n");
    out.push_str(&format!("  \"date\": \"{}\",\n", date));
    out.push_str(
        "  \"note\": \"virtual (deterministic) serving metrics: round latency in simulated \
         ticks, downtime in simulated ns; wall_ms is informational only\",\n",
    );
    out.push_str("  \"full\": {\n");
    report_fields(full, "", &mut out);
    out.push_str("\n  },\n");
    out.push_str("  \"gate\": {\n");
    report_fields(gate, "gate_", &mut out);
    out.push_str("\n  }\n}\n");
    out
}

/// Renders the human-readable summary table.
pub fn serving_table(r: &ServingReport) -> String {
    format!(
        "cluster serving: {} nodes, {} tenants over {} rounds (churn seed {}, fault seed {:?})\n\
         \x20 churn        : {} admitted, {} departed, {} alive at end\n\
         \x20 round latency: p50 {} ticks, p99 {} ticks\n\
         \x20 rebalancing  : {} migrations ({} failed), mean downtime {} virtual ns\n\
         \x20 recovery     : {} recoveries, {} rounds replayed\n\
         \x20 survival     : {}/{} tenants ({:.2}%)\n\
         \x20 wall clock   : {} ms\n",
        r.config.nodes,
        r.config.tenants,
        r.config.rounds,
        r.config.churn_seed,
        r.config.fault_seed,
        r.admitted,
        r.departed,
        r.survivors,
        r.p50_round_ticks,
        r.p99_round_ticks,
        r.migrations,
        r.migration_failures,
        r.mean_migration_downtime_ns,
        r.recoveries,
        r.recovery_replayed_rounds,
        r.survivors,
        r.expected_alive,
        r.survival * 100.0,
        r.wall_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonish::num_field;

    /// A fresh [`ServingConfig::gate`] run reproduces every figure of the
    /// committed gate section exactly — all of them virtual, so equal on any
    /// machine — except the host wall time, and loses no tenant.
    #[test]
    fn gate_run_reproduces_every_committed_gate_figure() {
        const FIGURES: [&str; 17] = [
            "nodes",
            "tenants",
            "rounds",
            "churn_seed",
            "fault_seed",
            "admitted",
            "departed",
            "p50_round_ticks",
            "p99_round_ticks",
            "migrations",
            "migration_failures",
            "mean_migration_downtime_ns",
            "recoveries",
            "recovery_replayed_rounds",
            "survivors",
            "expected_alive",
            "survival",
        ];
        let committed = include_str!("../../../BENCH_cluster_serving.json");
        let report = run_serving(&ServingConfig::gate());
        let fresh = serving_json(&report, &report, "");
        for figure in FIGURES {
            let key = format!("gate_{}", figure);
            let want = num_field(committed, &key);
            assert!(want.is_some(), "the committed gate section has no {}", key);
            assert_eq!(num_field(&fresh, &key), want, "{} drifted", key);
        }
        assert_eq!(report.survival, 1.0, "no tenant may be lost");
    }

    #[test]
    fn smoke_serving_run_is_deterministic_and_lossless() {
        let cfg = ServingConfig {
            nodes: 2,
            tenants: 8,
            rounds: 6,
            churn_seed: 3,
            fault_seed: Some(5),
        };
        let a = run_serving(&cfg);
        let b = run_serving(&cfg);
        assert_eq!(a.survival, 1.0, "no tenant may be lost");
        assert_eq!(a.p50_round_ticks, b.p50_round_ticks);
        assert_eq!(a.p99_round_ticks, b.p99_round_ticks);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(a.recoveries, b.recoveries);
        assert!(a.admitted == 8);
    }

    #[test]
    fn serving_json_round_trips_through_jsonish() {
        let cfg = ServingConfig {
            nodes: 2,
            tenants: 6,
            rounds: 4,
            churn_seed: 1,
            fault_seed: None,
        };
        let r = run_serving(&cfg);
        let json = serving_json(&r, &r, "2026-01-01");
        assert_eq!(
            crate::jsonish::num_field(&json, "gate_p99_round_ticks"),
            Some(r.p99_round_ticks as f64)
        );
        assert_eq!(
            crate::jsonish::num_field(&json, "gate_survival"),
            Some((r.survival * 10000.0).round() / 10000.0)
        );
        assert_eq!(
            crate::jsonish::num_field(&json, "gate_nodes"),
            Some(r.config.nodes as f64)
        );
    }
}

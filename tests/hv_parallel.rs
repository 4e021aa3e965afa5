//! Parallel-vs-sequential hypervisor scheduling must be *observation
//! equivalent*: for any fleet of tenants, any worker count, and any number of
//! rounds, `SchedPolicy::Parallel` must produce bit-identical round stats
//! (ticks, tasks, events, errors — in stable tenant order), bit-identical
//! per-tenant `StateSnapshot`s and `$display` output, identical virtual
//! clocks, and the same quarantine set as `SchedPolicy::Sequential`.
//!
//! Fleets are drawn from the Table-1 workloads (mixed interpreter / compiled
//! / hardware engines) and from the `synergy-workloads` fuzz generator, and
//! include hostile tenants whose engines error mid-round.

use proptest::prelude::*;
use synergy::workloads::{fuzz_input_data, generate_fuzz_design, HOSTILE_DESIGN};
use synergy::{Device, DomainId, EnginePolicy, Hypervisor, RoundStats, Runtime, SchedPolicy};

/// One tenant of a differential fleet.
enum Tenant {
    /// A Table-1 workload by name; `deploy` moves it to the FPGA fabric.
    Workload {
        name: &'static str,
        policy: EnginePolicy,
        deploy: bool,
    },
    /// A fuzz-generated design from this seed.
    Fuzz { seed: u64, policy: EnginePolicy },
    /// A tenant whose engine errors mid-round.
    Hostile,
}

/// Builds the same fleet on a fresh hypervisor under the given scheduling
/// policy, with `cap` ticks a round.
fn build_hv_capped(fleet: &[Tenant], sched: SchedPolicy, cap: u64) -> Hypervisor {
    let mut hv = Hypervisor::new(Device::f1());
    hv.set_sched_policy(sched);
    hv.set_round_tick_cap(cap);
    for (i, tenant) in fleet.iter().enumerate() {
        let domain = DomainId(i as u64 + 1);
        match tenant {
            Tenant::Workload {
                name,
                policy,
                deploy,
            } => {
                let bench = synergy::workloads::by_name(name).expect("known workload");
                let mut rt = Runtime::with_policy(
                    bench.name.clone(),
                    &bench.source,
                    &bench.top,
                    &bench.clock,
                    *policy,
                )
                .expect("workload compiles");
                if let Some(path) = &bench.input_path {
                    rt.add_file(
                        path.clone(),
                        synergy::workloads::input_data(&bench.name, 4096),
                    );
                }
                rt.run_ticks(2).expect("software warm-up");
                let io_bound = bench.style == synergy::Style::Streaming;
                let app = hv.connect(rt, domain, io_bound);
                if *deploy {
                    hv.deploy(app).expect("deploys");
                }
            }
            Tenant::Fuzz { seed, policy } => {
                let d = generate_fuzz_design(*seed);
                let mut rt = Runtime::with_policy(
                    format!("fuzz_{}", seed),
                    &d.source,
                    &d.top,
                    &d.clock,
                    *policy,
                )
                .expect("fuzz designs always elaborate");
                if let Some(path) = &d.input_path {
                    rt.add_file(path.clone(), fuzz_input_data(*seed, 64));
                }
                hv.connect(rt, domain, seed % 2 == 0);
            }
            Tenant::Hostile => {
                let rt = Runtime::new("hostile", HOSTILE_DESIGN, "Hostile", "clock").unwrap();
                hv.connect(rt, domain, false);
            }
        }
    }
    hv
}

/// Runs `rounds` rounds under both policies and asserts observation
/// equivalence.
fn assert_policies_equivalent(fleet: &[Tenant], workers: usize, rounds: usize, dt: f64) {
    // Bound ticks per round via the DRR quantum so fuzz designs (whose
    // simulated clocks tick very fast relative to the round's dt) stay cheap
    // and deterministic across policies.
    assert_policies_equivalent_capped(fleet, workers, rounds, dt, 8);
}

/// [`assert_policies_equivalent`] with `cap` ticks a round; returns the
/// sequential node.
fn assert_policies_equivalent_capped(
    fleet: &[Tenant],
    workers: usize,
    rounds: usize,
    dt: f64,
    cap: u64,
) -> Hypervisor {
    let mut seq = build_hv_capped(fleet, SchedPolicy::Sequential, cap);
    let mut par = build_hv_capped(fleet, SchedPolicy::Parallel { workers }, cap);

    for round in 0..rounds {
        let s: Vec<RoundStats> = seq.run_round(dt).expect("sequential round is infallible");
        let p: Vec<RoundStats> = par.run_round(dt).expect("parallel round is infallible");
        assert_eq!(
            s, p,
            "round {} stats diverge between sequential and {}-worker parallel",
            round, workers
        );
    }

    assert_eq!(
        seq.quarantined(),
        par.quarantined(),
        "quarantine sets diverge"
    );
    // The telemetry determinism contract rides along: every Det-namespace
    // metric must be byte-identical across scheduling policies.
    assert_eq!(
        seq.metrics().det_text(),
        par.metrics().det_text(),
        "deterministic metric snapshots diverge"
    );
    for app in seq.apps() {
        let s = seq.app(app).unwrap();
        let p = par.app(app).unwrap();
        assert_eq!(
            s.peek_state(),
            p.peek_state(),
            "tenant {} snapshots diverge",
            app.0
        );
        assert_eq!(s.ticks(), p.ticks(), "tenant {} tick counts diverge", app.0);
        assert_eq!(s.now_ns(), p.now_ns(), "tenant {} clocks diverge", app.0);
        assert_eq!(s.mode(), p.mode(), "tenant {} engines diverge", app.0);
        assert_eq!(
            s.env.output_text(),
            p.env.output_text(),
            "tenant {} $display output diverges",
            app.0
        );
    }
    seq
}

#[test]
fn table1_mixed_engine_fleet_is_observation_equivalent() {
    // Every Table-1 workload twice: once on its best software engine, once
    // deployed to hardware — interpreter, compiled, and hardware engines all
    // in the same rounds.
    let mut fleet = Vec::new();
    for (i, bench) in synergy::workloads::all().into_iter().enumerate() {
        let name: &'static str = match bench.name.as_str() {
            "adpcm" => "adpcm",
            "bitcoin" => "bitcoin",
            "df" => "df",
            "mips32" => "mips32",
            "nw" => "nw",
            "regex" => "regex",
            other => panic!("unexpected workload {}", other),
        };
        fleet.push(Tenant::Workload {
            name,
            policy: if i % 2 == 0 {
                EnginePolicy::Auto
            } else {
                EnginePolicy::Interpreter
            },
            deploy: false,
        });
        fleet.push(Tenant::Workload {
            name,
            policy: EnginePolicy::Interpreter,
            deploy: true,
        });
    }
    assert_policies_equivalent(&fleet, 4, 3, 0.00002);
}

/// Fleets whose tenants tick as cohorts: every Table-1 design four times on
/// the compiled engine, and the fuzz window's designs that can tick as
/// cohorts three times each.
#[test]
fn cohort_fleets_are_observation_equivalent() {
    let mut fleet = Vec::new();
    for name in ["adpcm", "bitcoin", "df", "mips32", "nw", "regex"] {
        for _ in 0..4 {
            fleet.push(Tenant::Workload {
                name,
                policy: EnginePolicy::Auto,
                deploy: false,
            });
        }
    }
    let eligible = (1000..1250).filter(|&seed| {
        let d = generate_fuzz_design(seed);
        Runtime::with_policy("f", &d.source, &d.top, &d.clock, EnginePolicy::Auto)
            .is_ok_and(|rt| rt.cohort_ineligibility().is_none())
    });
    for seed in eligible.take(3) {
        for _ in 0..3 {
            fleet.push(Tenant::Fuzz {
                seed,
                policy: EnginePolicy::Auto,
            });
        }
    }
    assert_eq!(fleet.len(), 24 + 9);
    for workers in [2, 4] {
        let seq = assert_policies_equivalent_capped(&fleet, workers, 3, 1.0, 256);
        let lane_ticks =
            seq.metrics()
                .counter_value(synergy::Namespace::Det, "hv_cohort_lane_ticks_total", &[]);
        assert!(lane_ticks > 0, "no cohort formed");
    }
}

#[test]
fn hostile_tenants_quarantine_identically_under_parallelism() {
    let fleet = vec![
        Tenant::Workload {
            name: "bitcoin",
            policy: EnginePolicy::Auto,
            deploy: false,
        },
        Tenant::Hostile,
        Tenant::Fuzz {
            seed: 7,
            policy: EnginePolicy::Auto,
        },
        Tenant::Hostile,
    ];
    assert_policies_equivalent(&fleet, 3, 3, 0.00002);
}

/// Sweeps fleets of fuzz-generated tenants: `HV_FUZZ_FLEETS` fleets (default
/// 64) of 4 seeds each — ≥256 distinct fuzz seeds per run at the default,
/// more in the nightly CI sweep. Engine policy alternates per tenant so
/// interpreter and compiled tenants share every round.
#[test]
fn fuzz_fleets_are_observation_equivalent() {
    let fleets: u64 = std::env::var("HV_FUZZ_FLEETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    for fleet_idx in 0..fleets {
        let base = fleet_idx * 4;
        let fleet: Vec<Tenant> = (base..base + 4)
            .map(|seed| Tenant::Fuzz {
                seed,
                policy: if seed % 2 == 0 {
                    EnginePolicy::Auto
                } else {
                    EnginePolicy::Interpreter
                },
            })
            .collect();
        // Vary the worker count across fleets so every pool width is hit.
        let workers = 2 + (fleet_idx as usize % 7);
        assert_policies_equivalent(&fleet, workers, 2, 0.00001);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random fleets, random worker counts, always one hostile tenant that
    /// errors mid-round: parallel must remain observation-equivalent.
    #[test]
    fn random_fleets_with_errors_are_observation_equivalent(
        seed in any::<u64>(),
        workers in 2usize..9,
        size in 2usize..6,
    ) {
        let mut fleet: Vec<Tenant> = (0..size as u64)
            .map(|i| Tenant::Fuzz {
                seed: seed.wrapping_add(i),
                policy: if i % 2 == 0 { EnginePolicy::Auto } else { EnginePolicy::Interpreter },
            })
            .collect();
        // Splice the hostile tenant into a seed-dependent position.
        fleet.insert((seed % (size as u64 + 1)) as usize, Tenant::Hostile);
        assert_policies_equivalent(&fleet, workers, 2, 0.00001);
    }
}

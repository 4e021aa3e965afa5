//! Cohort ≡ solo: tenants of one compiled program that tick in lockstep
//! ([`synergy::runtime::lockstep`], and the hypervisor's cohort rounds) end
//! exactly where each would have ticking alone — state, time, output, events,
//! `RunReport`s, virtual clock, executor counters and every Det metric.

use synergy::runtime::{lockstep, EnginePolicy, RunReport, Runtime, RuntimeEvent};
use synergy::workloads::{self, Benchmark};

/// Everything a tenant shows of a run, compared whole.
#[derive(Debug, PartialEq)]
struct Seen {
    state: synergy::runtime::StateSnapshot,
    ticks: u64,
    now_ns: u64,
    finished: Option<u32>,
    output: Vec<String>,
    det: String,
    flight: String,
    profile: Vec<(u64, u64)>,
}

fn seen(rt: &Runtime) -> Seen {
    Seen {
        state: rt.peek_state(),
        ticks: rt.ticks(),
        now_ns: rt.now_ns(),
        finished: rt.finished(),
        output: rt.env.output.clone(),
        det: rt.metrics().det_text(),
        flight: rt.flight_dump(),
        profile: rt
            .profiler()
            .samples()
            .iter()
            .map(|s| (s.ticks, s.time_s.to_bits()))
            .collect(),
    }
}

/// A tenant of `source` with `data` as its input file (when it reads one),
/// one tick in so its initials have run.
fn tenant(
    name: &str,
    source: &str,
    top: &str,
    clock: &str,
    input: Option<(&str, Vec<u64>)>,
) -> Runtime {
    let mut rt = Runtime::with_policy(name, source, top, clock, EnginePolicy::Auto).unwrap();
    if let Some((path, data)) = input {
        rt.add_file(path, data);
    }
    rt.run_ticks(1).unwrap();
    rt
}

/// Lane `l`'s input stream: the design's own stream, or, `distinct`, a
/// rotated and perturbed copy, so that lanes branch apart.
fn stream(bench: &Benchmark, l: usize, distinct: bool, len: usize) -> Vec<u64> {
    let mut data = workloads::input_data(&bench.name, len);
    if distinct && l > 0 {
        data.rotate_left(l * 13 % len.max(1));
        for (i, v) in data.iter_mut().enumerate() {
            if i % (l + 2) == 0 {
                *v ^= l as u64;
            }
        }
    }
    data
}

type Batch = (RunReport, Vec<RuntimeEvent>);

/// Runs `plans` solo on one copy of the fleet and in lockstep (then
/// replayed) on another; asserts both end alike and returns the lockstep
/// journals' tick counts.
fn lockstep_matches_solo(
    what: &str,
    make: &dyn Fn() -> Vec<Runtime>,
    plans: &[Vec<u64>],
) -> Vec<u64> {
    synergy::telemetry::set_enabled(true);
    let mut solo = make();
    let solo_batches: Vec<Vec<Batch>> = solo
        .iter_mut()
        .zip(plans)
        .map(|(rt, plan)| plan.iter().map(|&n| rt.run_ticks(n).unwrap()).collect())
        .collect();

    let mut fleet = make();
    let mut lanes: Vec<&mut Runtime> = fleet.iter_mut().collect();
    let run = lockstep(&mut lanes, plans).unwrap_or_else(|e| panic!("{}: no cohort: {}", what, e));
    let journals = run.commit(&mut lanes);
    let mut lockstep_ticks = Vec::new();
    for (l, (mut journal, plan)) in journals.into_iter().zip(plans).enumerate() {
        lockstep_ticks.push(journal.lockstep_ticks());
        let rt = &mut *lanes[l];
        let batches: Vec<Batch> = plan
            .iter()
            .map(|&n| rt.replay_ticks(n, &mut journal).unwrap())
            .collect();
        assert_eq!(batches, solo_batches[l], "{}: lane {} reports", what, l);
        assert_eq!(seen(rt), seen(&solo[l]), "{}: lane {}", what, l);
    }
    lockstep_ticks
}

fn bench_fleet(bench: &Benchmark, n: usize, distinct: bool, len: usize) -> Vec<Runtime> {
    (0..n)
        .map(|l| {
            let input = bench
                .input_path
                .as_deref()
                .map(|p| (p, stream(bench, l, distinct, len)));
            tenant(
                &format!("{}.{}", bench.name, l),
                &bench.source,
                &bench.top,
                &bench.clock,
                input,
            )
        })
        .collect()
}

#[test]
fn every_table1_design_ticks_in_lockstep_as_it_ticks_alone() {
    for bench in workloads::all() {
        for distinct in [false, true] {
            let what = format!("{} (distinct={})", bench.name, distinct);
            let ticks = if bench.name == "nw" { 96 } else { 300 };
            // Uneven plans: lanes drop out of the lockstep at different ticks.
            let plans: Vec<Vec<u64>> = (0..4)
                .map(|l| vec![16, ticks - 16 - 7 * l as u64])
                .collect();
            let len = 4 * ticks as usize;
            let run =
                lockstep_matches_solo(&what, &|| bench_fleet(&bench, 4, distinct, len), &plans);
            assert!(run.iter().all(|&t| t > 0), "{}: lanes ran {:?}", what, run);
        }
    }
}

#[test]
fn every_table1_design_is_eligible() {
    for bench in workloads::all() {
        let rt = tenant("t", &bench.source, &bench.top, &bench.clock, None);
        assert_eq!(rt.cohort_ineligibility(), None, "{}", bench.name);
    }
}

#[test]
fn two_and_three_lanes_match_solo() {
    let bench = workloads::by_name("regex").unwrap();
    for n in [2, 3] {
        let plans: Vec<Vec<u64>> = (0..n).map(|l| vec![16, 200 + l as u64]).collect();
        let what = format!("regex x{}", n);
        lockstep_matches_solo(&what, &|| bench_fleet(&bench, n, true, 1024), &plans);
    }
}

const FINISHER: &str = r#"
module Fin(input wire clock);
    reg [31:0] n = 0;
    reg [31:0] limit = 0;
    integer fd;
    reg [31:0] v;
    initial begin
        fd = $fopen("in");
        $fread(fd, limit);
    end
    always @(posedge clock) begin
        n <= n + 1;
        if (n % 5 == 0) $display("tick %d", n);
        if (n == limit) begin
            $display("done at %d", n);
            $finish(n);
        end
    end
endmodule
"#;

#[test]
fn a_lane_that_finishes_leaves_and_the_rest_tick_on() {
    // Lane 1 finishes at tick 40, the others run their plans out.
    let make = || -> Vec<Runtime> {
        [500u64, 40, 700, 600]
            .iter()
            .enumerate()
            .map(|(l, &limit)| {
                tenant(
                    &format!("fin.{}", l),
                    FINISHER,
                    "Fin",
                    "clock",
                    Some(("in", vec![limit])),
                )
            })
            .collect()
    };
    let plans: Vec<Vec<u64>> = vec![vec![16, 200]; 4];
    let run = lockstep_matches_solo("finisher", &make, &plans);
    assert!(run[1] < 216 && run[0] == 216, "lockstep ticks {:?}", run);
}

#[test]
fn clones_of_one_program_share_a_cohort_key() {
    let bench = workloads::by_name("df").unwrap();
    let a = tenant("a", &bench.source, &bench.top, &bench.clock, None);
    let b = tenant("b", &bench.source, &bench.top, &bench.clock, None);
    let key = a.cohort_key().unwrap();
    assert_eq!(key, b.cohort_key().unwrap());
    let fresh = Runtime::with_policy(
        "c",
        &bench.source,
        &bench.top,
        &bench.clock,
        EnginePolicy::Auto,
    )
    .unwrap();
    let waiting = fresh.cohort_key().unwrap_err();
    assert_eq!((waiting.reason, waiting.program), ("initials", Some(key)));
}

// ------------------------------------------------------------------ rounds

use synergy::{Device, DomainId, Hypervisor, Namespace, RoundStats};

/// A node with `cap` ticks a round, serving `tenants` software-resident.
fn node(tenants: Vec<Runtime>, cap: u64) -> (Hypervisor, Vec<synergy::AppId>) {
    let mut hv = Hypervisor::new(Device::f1());
    hv.set_engine_policy(EnginePolicy::Auto);
    hv.set_round_tick_cap(cap);
    let ids = tenants
        .into_iter()
        .enumerate()
        .map(|(i, rt)| hv.connect(rt, DomainId(1 + i as u64), false))
        .collect();
    (hv, ids)
}

/// What a tenant's round stats say, bar the id it has on its node.
fn stat(s: &RoundStats) -> (bool, u64, u64, Vec<RuntimeEvent>, Option<String>) {
    (s.ran, s.ticks, s.tasks, s.events.clone(), s.error.clone())
}

/// Serves `make()`'s tenants on one node, where tenants of one program tick
/// as cohorts, and each on a node of its own, for `rounds` rounds; asserts
/// every tenant's stats and end state agree and returns the shared node.
fn shared_node_matches_nodes_alone(
    what: &str,
    make: &dyn Fn() -> Vec<Runtime>,
    cap: u64,
    rounds: usize,
) -> Hypervisor {
    synergy::telemetry::set_enabled(true);
    let (mut shared, ids) = node(make(), cap);
    let mut alone: Vec<(Hypervisor, synergy::AppId)> = make()
        .into_iter()
        .map(|rt| {
            let (hv, ids) = node(vec![rt], cap);
            (hv, ids[0])
        })
        .collect();
    for round in 0..rounds {
        let stats = shared.run_round(1.0).unwrap();
        for (k, (hv, _)) in alone.iter_mut().enumerate() {
            let own = hv.run_round(1.0).unwrap();
            assert_eq!(
                stat(&stats[k]),
                stat(&own[0]),
                "{}: round {} tenant {}",
                what,
                round,
                k
            );
        }
    }
    for (k, (hv, id)) in alone.iter().enumerate() {
        let (got, want) = (shared.app(ids[k]).unwrap(), hv.app(*id).unwrap());
        assert_eq!(seen(got), seen(want), "{}: tenant {}", what, k);
    }
    assert_eq!(
        shared.quarantined().len(),
        alone
            .iter()
            .map(|(hv, _)| hv.quarantined().len())
            .sum::<usize>()
    );
    shared
}

fn cohort_lane_ticks(hv: &Hypervisor) -> u64 {
    hv.metrics()
        .counter_value(Namespace::Det, "hv_cohort_lane_ticks_total", &[])
}

#[test]
fn a_table1_fleet_in_cohorts_matches_every_tenant_alone() {
    for distinct in [false, true] {
        let make = || -> Vec<Runtime> {
            workloads::all()
                .iter()
                .flat_map(|b| bench_fleet(b, 4, distinct, 2048))
                .collect()
        };
        let what = format!("table-1 x4 (distinct={})", distinct);
        let hv = shared_node_matches_nodes_alone(&what, &make, 256, 3);
        assert!(
            cohort_lane_ticks(&hv) >= 6 * 4 * 256,
            "{}: cohorts did not form",
            what
        );
    }
}

#[test]
fn a_group_larger_than_a_cohort_ticks_as_several() {
    // Six tenants of one program: two cohorts of three.
    let bench = workloads::by_name("regex").unwrap();
    let make = || bench_fleet(&bench, 6, true, 2048);
    let hv = shared_node_matches_nodes_alone("regex x6", &make, 256, 3);
    assert!(
        cohort_lane_ticks(&hv) >= 6 * 256,
        "every tenant ticked in a cohort"
    );
}

#[test]
fn a_lane_finishing_mid_round_leaves_its_cohort() {
    let make = || -> Vec<Runtime> {
        [900u64, 300, 1100, 1700]
            .iter()
            .enumerate()
            .map(|(l, &limit)| {
                tenant(
                    &format!("fin.{}", l),
                    FINISHER,
                    "Fin",
                    "clock",
                    Some(("in", vec![limit])),
                )
            })
            .collect()
    };
    let hv = shared_node_matches_nodes_alone("finisher", &make, 512, 4);
    let exits = hv.metrics().counter_value(
        Namespace::Det,
        "hv_cohort_exits_total",
        &[("reason", "effect")],
    );
    assert!(
        exits >= 2,
        "a lane that finishes leaves its cohort ({} exits)",
        exits
    );
    assert!(cohort_lane_ticks(&hv) > 0);
}

/// The fuzz window's designs that tick as cohorts, with how many were not.
fn eligible_fuzz_seeds() -> (Vec<u64>, usize) {
    let mut seeds = Vec::new();
    let mut refused = 0;
    for seed in 1000..1250 {
        let d = workloads::generate_fuzz_design(seed);
        let rt =
            Runtime::with_policy("f", &d.source, &d.top, &d.clock, EnginePolicy::Auto).unwrap();
        match rt.cohort_ineligibility() {
            None => seeds.push(seed),
            Some(_) => refused += 1,
        }
    }
    (seeds, refused)
}

#[test]
fn every_eligible_fuzz_design_ticks_in_lockstep_as_it_ticks_alone() {
    // Most fuzz designs are refused: a guard on a data net or an `@*`
    // block, or a wide value. Three of the window tick as cohorts.
    let (seeds, refused) = eligible_fuzz_seeds();
    assert_eq!((seeds.len(), refused), (3, 247));
    for seed in seeds {
        let d = workloads::generate_fuzz_design(seed);
        let make = || -> Vec<Runtime> {
            (0..4u64)
                .map(|l| {
                    let input = d
                        .input_path
                        .as_deref()
                        .map(|p| (p, workloads::fuzz_input_data(seed + 7919 * l, 48)));
                    tenant(
                        &format!("fuzz{}.{}", seed, l),
                        &d.source,
                        &d.top,
                        &d.clock,
                        input,
                    )
                })
                .collect()
        };
        let plans: Vec<Vec<u64>> = (0..4).map(|l| vec![16, 40 + l]).collect();
        lockstep_matches_solo(&format!("fuzz seed {}", seed), &make, &plans);
    }
}

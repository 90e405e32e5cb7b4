//! The benchmark's own tests: seeded inputs, exact counts, the in-band
//! correctness check, and agreement with `BENCHMARK.json`.

use perfbench::coll::{self, COLL_BULK, COLL_SMALL};
use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{run_workload, Budget, Outcome, RunOpts, WORKLOADS};
use xbgas_bench::json::{self, Json};

fn ops(seed: u64, n: u64) -> Vec<coll::Op> {
    let palette = coll::palette(&COLL_SMALL, seed);
    (0..n)
        .map(|i| coll::op_at(&COLL_SMALL, seed, &palette, i))
        .collect()
}

#[test]
fn same_seed_gives_the_same_op_sequence() {
    assert_eq!(ops(7, 2000), ops(7, 2000));
    let kernels = |seed| {
        (0..30)
            .map(|j| perfbench::derive(seed, j))
            .collect::<Vec<_>>()
    };
    assert_eq!(kernels(7), kernels(7));
}

#[test]
fn different_seed_gives_a_different_op_sequence() {
    assert_ne!(ops(7, 200), ops(8, 200));
    let shapes = |seed| coll::palette(&COLL_BULK, seed);
    assert_ne!(shapes(7), shapes(8));
}

#[test]
fn op_mix_has_every_kind_and_a_minority_of_fresh_tables() {
    let seq = ops(3, 4000);
    for k in coll::ALL_KINDS {
        assert!(seq.iter().any(|o| o.shape.kind == k), "{k:?} never issued");
    }
    let fresh = seq.iter().filter(|o| o.fresh).count();
    assert!(
        fresh > 0 && fresh * 5 < seq.len(),
        "{fresh} fresh tables in {}",
        seq.len()
    );
}

fn run(name: &str, seed: u64, n: u64) -> Outcome {
    run_workload(name, &RunOpts::new(seed, Budget::Ops(n))).expect("known workload")
}

fn assert_counts_repeat(name: &str, n: u64, keys: &[&str]) {
    let a = run(name, 11, n);
    let b = run(name, 11, n);
    assert_eq!(a.failed, 0, "{name} failed {} of {}", a.failed, a.attempted);
    for k in keys {
        let v = a
            .count(k)
            .unwrap_or_else(|| panic!("{name} has no count {k}"));
        assert!(v > 0, "{name}: {k} is zero");
        assert_eq!(
            Some(v),
            b.count(k),
            "{name}: {k} differs between same-seed runs"
        );
    }
}

const FABRIC_COUNTS: [&str; 5] = [
    "fabric.puts",
    "fabric.gets",
    "fabric.bytes",
    "fabric.barriers",
    "fabric.signals",
];

#[test]
fn collective_counts_repeat_exactly() {
    let mut keys = FABRIC_COUNTS.to_vec();
    keys.extend(["schedule.ops", "exec.stages", "plan.hits", "plan.misses"]);
    assert_counts_repeat("coll_small", 24, &keys);
    assert_counts_repeat("coll_bulk", 8, &keys);
}

#[test]
fn application_counts_repeat_exactly() {
    // The applications' collectives run in barrier mode: no signals.
    let mut keys: Vec<&str> = FABRIC_COUNTS
        .into_iter()
        .filter(|k| *k != "fabric.signals")
        .collect();
    keys.extend(["exec.stages", "plan.hits", "plan.misses"]);
    assert_counts_repeat("apps_paper", 1, &keys);
}

#[test]
fn simulator_counts_repeat_exactly() {
    // Two rounds, so that with two or more workers they run concurrently.
    assert_counts_repeat(
        "sim_kernels",
        6,
        &[
            "sim.instret",
            "sim.noc.transactions",
            "sim.noc.bytes",
            "sim.olb.translated",
        ],
    );
}

#[test]
fn a_planted_wrong_reference_fails_every_op() {
    for (name, n) in [
        ("coll_small", 8),
        ("coll_bulk", 4),
        ("apps_paper", 1),
        ("sim_kernels", 3),
    ] {
        let o = run_workload(
            name,
            &RunOpts {
                plant_wrong_reference: true,
                ..RunOpts::new(5, Budget::Ops(n))
            },
        )
        .expect("known workload");
        assert!(o.attempted > 0);
        assert_eq!(
            o.error_rate(),
            1.0,
            "{name}: {} of {} failed",
            o.failed,
            o.attempted
        );
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn printed(o: &Outcome, trace: bool) -> Vec<(String, String)> {
    report::selected(o, trace)
        .into_iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = names_units(&doc, "end_to_end");
    let layers = names_units(&doc, "per_layer");
    assert_eq!(
        e2e.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        END_TO_END
    );
    assert_eq!(
        layers,
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    );

    for (name, n) in [("coll_bulk", 8), ("apps_paper", 1), ("sim_kernels", 3)] {
        assert_eq!(printed(&run(name, 2, n), false), e2e, "{name}");
    }
    let traced = run_workload(
        "sim_kernels",
        &RunOpts {
            trace: true,
            ..RunOpts::new(2, Budget::Ops(3))
        },
    )
    .expect("known workload");
    assert_eq!(printed(&traced, true), layers);
    // The simulator workload enters no runtime layer: those read 0.
    let value = |name: &str| {
        traced
            .layers
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    };
    assert_eq!(value("policy.resolve_ns"), Some(0.0));
    assert_eq!(value("fabric.barrier_us"), Some(0.0));
    assert!(value("sim.cpi.remote").is_some_and(|v| v > 0.0));
    let ledger = traced.ledger.as_ref().expect("traced runs have a ledger");
    let sum: f64 = ledger.rows.iter().map(|r| r.value).sum();
    assert!((sum - ledger.measured).abs() <= 1e-9 * ledger.measured.abs().max(1.0));
    assert!(!traced.spans.is_empty());

    let line: Json = json::parse(&report::result_line(&traced, true)).expect("result line parses");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
}

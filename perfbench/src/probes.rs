//! Isolated probes of single runtime layers, timed from outside through
//! each layer's public functions on a workload's own shapes.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use xbrtime::collectives::extended::{
    all_gather_doubling_sched, all_gather_sched, allreduce_schedule, AllGatherAlgo, AllReduceAlgo,
};
use xbrtime::collectives::plan::{self, counts_digest, lower, tag, PlanCache, PlanKey};
use xbrtime::collectives::policy::auto_select_vrooted;
use xbrtime::collectives::scatter::adjusted_displacements;
use xbrtime::collectives::schedule::{
    broadcast_binomial, broadcast_linear_sched, broadcast_ring_sched, gather_binomial,
    gather_linear_sched, reduce_binomial, reduce_linear_sched, scatter_binomial,
    scatter_linear_sched,
};
use xbrtime::collectives::vcoll::{
    allgatherv_dissemination_sched, allgatherv_fan_sched, allgatherv_ring_sched,
    gatherv_ring_sched, prefix_displacements, scatterv_ring_sched, skew_permille, AllGatherVAlgo,
};
use xbrtime::{
    Algorithm, AlgorithmPolicy, CollectiveKind, CommSchedule, Fabric, FabricConfig, SyncMode,
};

use crate::coll::{Kind, Shape};
use crate::engine;
use crate::stats::{mean, median};

/// Broadcast under `Auto` takes the pipelined chain when the executor
/// pipelines a payload of at least this many bytes on at most
/// [`CHAIN_MAX_PES`] PEs (the library's `auto_select_broadcast_sync`,
/// which is private to it).
const CHAIN_MIN_BYTES: usize = 64 * 1024;
const CHAIN_MAX_PES: usize = 32;

/// What the policy layer resolves for one call: the algorithm pieces the
/// library's own entry points compute before keying a plan.
fn resolve(n: usize, s: &Shape) -> (Algorithm, u64) {
    let bytes = s.bytes();
    let auto = AlgorithmPolicy::Auto;
    match s.kind {
        Kind::Broadcast => {
            let resolved = SyncMode::Auto.resolve(n, bytes);
            let algo = if resolved == SyncMode::Pipelined
                && n > 2
                && n <= CHAIN_MAX_PES
                && bytes >= CHAIN_MIN_BYTES
            {
                Algorithm::Ring
            } else {
                auto.select(CollectiveKind::Broadcast, n, bytes)
            };
            (algo, 0)
        }
        Kind::Reduce => (auto.select(CollectiveKind::Reduce, n, bytes), 0),
        Kind::AllReduce => {
            let algo = AllReduceAlgo::Auto.resolve(n, bytes);
            (plan::allreduce_plan_id(algo).1, algo as u64)
        }
        Kind::AllGather => (
            Algorithm::Binomial,
            AllGatherAlgo::Auto.resolve(n, bytes) as u64,
        ),
        Kind::Scatterv | Kind::Gatherv => {
            let ck = if s.kind == Kind::Scatterv {
                CollectiveKind::Scatter
            } else {
                CollectiveKind::Gather
            };
            let skew = skew_permille(&s.counts);
            let resolved = SyncMode::Auto.resolve(n, bytes);
            (auto_select_vrooted(ck, n, bytes, skew, resolved), skew)
        }
        Kind::Allgatherv => {
            let skew = skew_permille(&s.counts);
            (
                Algorithm::Binomial,
                AllGatherVAlgo::Auto.resolve(n, bytes, skew) as u64,
            )
        }
    }
}

/// The schedule the library generates for `s` on `n` PEs and the plan-cache
/// key it files the lowered plan under, mirroring the library's dispatch.
pub fn schedule_for(n: usize, s: &Shape) -> (CommSchedule, PlanKey) {
    let (algo, _) = resolve(n, s);
    let key = |kind, algo, nelems, tag| {
        PlanKey::rooted(kind, algo, SyncMode::Auto, n, s.root, nelems, 1, 8, tag)
    };
    let ne = s.nelems;
    match s.kind {
        Kind::Broadcast => {
            let (sched, t) = match algo {
                Algorithm::Binomial => (
                    broadcast_binomial(n, s.root, ne, 1),
                    tag::BROADCAST_BINOMIAL,
                ),
                Algorithm::Linear => (
                    broadcast_linear_sched(n, s.root, ne, 1),
                    tag::BROADCAST_LINEAR,
                ),
                Algorithm::Ring => (broadcast_ring_sched(n, s.root, ne, 1), tag::BROADCAST_RING),
            };
            (sched, key(CollectiveKind::Broadcast, algo, ne, t))
        }
        Kind::Reduce => {
            let (sched, t) = match algo {
                Algorithm::Binomial => (reduce_binomial(n, s.root, ne, 1), tag::REDUCE_BINOMIAL),
                _ => (reduce_linear_sched(n, s.root, ne, 1), tag::REDUCE_LINEAR),
            };
            (sched, key(CollectiveKind::Reduce, algo, ne, t))
        }
        Kind::AllReduce => {
            let ar = AllReduceAlgo::Auto.resolve(n, s.bytes());
            let (t, key_algo) = plan::allreduce_plan_id(ar);
            let mut k = key(CollectiveKind::AllReduce, key_algo, ne, t);
            k.root = 0;
            (allreduce_schedule(ar, n, ne), k)
        }
        Kind::AllGather => {
            let mut k;
            let sched = match AllGatherAlgo::Auto.resolve(n, s.bytes()) {
                AllGatherAlgo::Fan => {
                    k = key(
                        CollectiveKind::AllGather,
                        Algorithm::Binomial,
                        ne,
                        tag::ALL_GATHER,
                    );
                    all_gather_sched(n, ne)
                }
                _ => {
                    k = key(
                        CollectiveKind::AllGather,
                        Algorithm::Binomial,
                        ne,
                        tag::ALL_GATHER_RD,
                    );
                    all_gather_doubling_sched(n, ne)
                }
            };
            k.root = 0;
            (sched, k)
        }
        Kind::Scatterv | Kind::Gatherv => {
            let adj = adjusted_displacements(&s.counts, s.root, n);
            let scatter = s.kind == Kind::Scatterv;
            let (sched, t) = match (scatter, algo) {
                (true, Algorithm::Binomial) => {
                    (scatter_binomial(n, s.root, &adj), tag::SCATTER_BINOMIAL)
                }
                (true, Algorithm::Linear) => {
                    (scatter_linear_sched(n, s.root, &adj), tag::SCATTER_LINEAR)
                }
                (true, Algorithm::Ring) => {
                    (scatterv_ring_sched(n, s.root, &adj), tag::SCATTERV_RING)
                }
                (false, Algorithm::Binomial) => {
                    (gather_binomial(n, s.root, &adj), tag::GATHER_BINOMIAL)
                }
                (false, Algorithm::Linear) => {
                    (gather_linear_sched(n, s.root, &adj), tag::GATHER_LINEAR)
                }
                (false, Algorithm::Ring) => {
                    (gatherv_ring_sched(n, s.root, &adj), tag::GATHERV_RING)
                }
            };
            let ck = if scatter {
                CollectiveKind::Scatter
            } else {
                CollectiveKind::Gather
            };
            let mut k = key(ck, algo, ne, t);
            k.shape.push(counts_digest(&adj));
            (sched, k)
        }
        Kind::Allgatherv => {
            let disp = prefix_displacements(&s.counts);
            let skew = skew_permille(&s.counts);
            let (sched, t, ka) = match AllGatherVAlgo::Auto.resolve(n, s.bytes(), skew) {
                AllGatherVAlgo::Fan => (
                    allgatherv_fan_sched(n, &disp),
                    tag::ALLGATHERV_FAN,
                    Algorithm::Linear,
                ),
                AllGatherVAlgo::Ring => (
                    allgatherv_ring_sched(n, &disp),
                    tag::ALLGATHERV_RING,
                    Algorithm::Ring,
                ),
                _ => (
                    allgatherv_dissemination_sched(n, &disp),
                    tag::ALLGATHERV_DISS,
                    Algorithm::Binomial,
                ),
            };
            let mut k = key(CollectiveKind::AllGather, ka, ne, t);
            k.root = 0;
            k.shape.push(counts_digest(&s.counts));
            (sched, k)
        }
    }
}

/// The executor telemetry a fabric reports for a call sequence, per
/// collective kind: `[calls, stages, puts, gets, bytes, signals]`, and the
/// plan cache's resident plans and bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Telemetry {
    pub per_kind: HashMap<CollectiveKind, [u64; 6]>,
    pub plans: u64,
    pub plan_bytes: u64,
}

impl Telemetry {
    /// What the library reported for one fabric.
    pub fn reported<R>(report: &xbrtime::RunReport<R>) -> Self {
        let mut t = Telemetry::default();
        for r in &report.collectives {
            let row = t.per_kind.entry(r.kind).or_default();
            let add = [
                r.calls,
                r.stages,
                r.puts,
                r.gets,
                r.bytes_put + r.bytes_get,
                r.signals,
            ];
            for (a, b) in row.iter_mut().zip(add) {
                *a += b;
            }
        }
        let cache = report.plan_cache.unwrap_or_default();
        t.plans = cache.entries;
        t.plan_bytes = cache.bytes;
        t
    }

    /// What the library should report for `shapes` on `n` PEs if
    /// [`schedule_for`] files and lowers each call as the library does:
    /// the static counters of every call's lowered plan, and one resident
    /// plan per distinct key.
    pub fn mirrored<'a>(n: usize, shapes: impl IntoIterator<Item = &'a Shape>) -> Self {
        let mut t = Telemetry::default();
        let mut per_shape: HashMap<&Shape, (CollectiveKind, [u64; 6])> = HashMap::new();
        let mut keys = std::collections::HashSet::new();
        for s in shapes {
            let (kind, add) = *per_shape.entry(s).or_insert_with(|| {
                let (sched, key) = schedule_for(n, s);
                let p = lower(&sched, SyncMode::Auto, 8);
                if keys.insert(key) {
                    t.plans += 1;
                    t.plan_bytes += p.approx_bytes() as u64;
                }
                let sum = |f: fn(&plan::SampleTemplate) -> u64| {
                    p.per_pe.iter().map(|pe| f(&pe.sample)).sum::<u64>()
                };
                let stages = p.per_pe.first().map_or(0, |pe| pe.sample.stages);
                let row = [
                    1,
                    stages,
                    sum(|s| s.puts),
                    sum(|s| s.gets),
                    sum(|s| s.bytes_put + s.bytes_get),
                    sum(|s| s.signals),
                ];
                (p.kind, row)
            });
            let row = t.per_kind.entry(kind).or_default();
            for (a, b) in row.iter_mut().zip(add) {
                *a += b;
            }
        }
        t
    }
}

/// Schedule ops summed over a call sequence (an exact count).
pub fn schedule_ops(n: usize, shapes: &[Arc<Shape>]) -> u64 {
    let mut memo: HashMap<&Shape, u64> = HashMap::new();
    shapes
        .iter()
        .map(|s| {
            *memo
                .entry(s.as_ref())
                .or_insert_with(|| schedule_for(n, s).0.total_ops() as u64)
        })
        .sum()
}

/// Costs of the policy, generator and plan layers on a workload's shapes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollProbes {
    /// Policy resolution per call.
    pub policy_ns: f64,
    /// Schedule generation per distinct shape.
    pub gen_us: f64,
    /// `plan::lower` per distinct shape.
    pub lower_us: f64,
    /// Warm `PlanCache::get_or_build` per call.
    pub lookup_ns: f64,
    /// Schedule ops per call over the call sequence.
    pub ops_per_call: f64,
}

/// Probe the collective layers: generation and lowering once per distinct
/// shape, policy resolution and warm lookups over the call sequence.
pub fn collective_probes(n: usize, distinct: &[Arc<Shape>], calls: &[Arc<Shape>]) -> CollProbes {
    let cache = PlanCache::new();
    let mut gen = Vec::new();
    let mut low = Vec::new();
    let mut keys: HashMap<&Shape, PlanKey> = HashMap::new();
    let mut ops: HashMap<&Shape, usize> = HashMap::new();
    for s in distinct {
        let t = Instant::now();
        let (sched, key) = black_box(schedule_for(n, s));
        gen.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let p = black_box(lower(&sched, SyncMode::Auto, 8));
        low.push(t.elapsed().as_secs_f64() * 1e6);
        ops.insert(s.as_ref(), sched.total_ops());
        cache.get_or_build(&key, || p);
        keys.insert(s.as_ref(), key);
    }
    let seq: Vec<&Shape> = if calls.is_empty() {
        distinct.iter().map(|s| s.as_ref()).collect()
    } else {
        calls.iter().map(|s| s.as_ref()).collect()
    };
    let seq_keys: Vec<&PlanKey> = seq.iter().filter_map(|s| keys.get(s)).collect();
    const ROUNDS: usize = 50_000;

    let t = Instant::now();
    for k in 0..ROUNDS {
        black_box(resolve(n, black_box(seq[k % seq.len()])));
    }
    let policy_ns = t.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64;

    let t = Instant::now();
    for k in 0..ROUNDS {
        let key = seq_keys[k % seq_keys.len()];
        black_box(cache.get_or_build(key, || unreachable!("every probed key is resident")));
    }
    let lookup_ns = t.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64;

    let ops_per_call = mean(
        &seq.iter()
            .filter_map(|s| ops.get(s))
            .map(|&o| o as f64)
            .collect::<Vec<_>>(),
    );
    CollProbes {
        policy_ns,
        gen_us: mean(&gen),
        lower_us: mean(&low),
        lookup_ns,
        ops_per_call,
    }
}

/// Isolated fabric primitive costs at a workload's PE count.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricProbes {
    /// One world barrier, host time.
    pub barrier_us: f64,
    /// One 8-byte put from rank 0 to rank 1.
    pub put_ns_8b: f64,
    /// One 8-byte get by rank 0 from rank 1.
    pub get_ns_8b: f64,
    /// One 64 KiB put from rank 0 to rank 1.
    pub put_us_64k: f64,
}

/// Time the fabric primitives on one paper-timed cooperative fabric of
/// `n` PEs. Rank 0 times; for the put/get probes the other PEs wait at a
/// barrier, so rank 0 runs alone.
pub fn fabric_probes(n: usize, shared_bytes: usize, seed: u64) -> FabricProbes {
    const WORDS_64K: usize = 8192;
    const SMALL: u32 = 20_000;
    const LARGE: u32 = 200;
    let barriers = (20_000 / n.max(1)).max(50) as u32;
    let cfg = FabricConfig::paper(n)
        .with_shared_bytes(shared_bytes.max(2 * WORDS_64K * 8 + (1 << 20)))
        .with_engine(engine(seed));
    let run = Fabric::try_run(cfg, |pe| {
        let buf = pe.shared_malloc::<u64>(WORDS_64K);
        let peer = 1 % pe.n_pes();
        pe.barrier();
        let t = Instant::now();
        for _ in 0..barriers {
            pe.barrier();
        }
        let barrier_us = t.elapsed().as_secs_f64() * 1e6 / barriers as f64;
        let mut out = FabricProbes {
            barrier_us,
            ..Default::default()
        };
        if pe.rank() == 0 {
            let src = vec![7u64; WORDS_64K];
            let mut dst = [0u64; 1];
            let t = Instant::now();
            for _ in 0..SMALL {
                pe.put(buf.whole(), black_box(&src[..1]), 1, 1, peer);
            }
            out.put_ns_8b = t.elapsed().as_secs_f64() * 1e9 / SMALL as f64;
            let t = Instant::now();
            for _ in 0..SMALL {
                pe.get(black_box(&mut dst[..]), buf.whole(), 1, 1, peer);
            }
            out.get_ns_8b = t.elapsed().as_secs_f64() * 1e9 / SMALL as f64;
            let t = Instant::now();
            for _ in 0..LARGE {
                pe.put(buf.whole(), black_box(&src[..]), WORDS_64K, 1, peer);
            }
            out.put_us_64k = t.elapsed().as_secs_f64() * 1e6 / LARGE as f64;
        }
        pe.barrier();
        out
    });
    match run {
        Ok(report) => report.results[0],
        Err(e) => {
            eprintln!("fabric probe failed: {e}");
            FabricProbes::default()
        }
    }
}

/// `engine.spawn_ms`: host time of an empty `Fabric::run` of `n` PEs
/// (median of three).
pub fn spawn_ms(n: usize, shared_bytes: usize, seed: u64) -> f64 {
    let cfg = FabricConfig::paper(n)
        .with_shared_bytes(shared_bytes)
        .with_engine(engine(seed));
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let _ = Fabric::try_run(cfg, |pe| black_box(pe.rank()));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

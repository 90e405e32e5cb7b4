//! Plan-cache equivalence: a collective issued from a cached, shared
//! [`xbrtime::collectives::plan`] must be observationally identical to
//! one whose PE lowers its own program afresh on every call (the
//! uncached path).
//!
//! For every collective × algorithm × sync mode × backend at paper-scale
//! PE counts, the plan-cache-on and plan-cache-off configurations must
//! produce byte-identical result buffers and identical telemetry
//! (op/byte/stage/signal counts; simulated cycle fields are masked
//! exactly as in `backend_equiv.rs`). On top of that:
//! cache-key determinism (same key ⇒ one shared plan, shape change ⇒
//! distinct entries), concurrent-issue counter exactness at 256 PEs
//! under the work-stealing engine, and nonblocking overlap of ≥2
//! in-flight collectives.

// The `..ProptestConfig::default()` spread is upstream proptest's
// canonical config idiom; the local shim happens to have no other
// fields, which trips needless_update.
#![allow(clippy::needless_update)]

use proptest::prelude::*;
use xbrtime::collectives::plan::{PlanCache, PlanKey};
use xbrtime::collectives::policy::Algorithm;
use xbrtime::collectives::schedule::broadcast_binomial;
use xbrtime::collectives::{self, AllGatherAlgo, AllReduceAlgo};
use xbrtime::{
    AlgorithmPolicy, CollectiveKind, CollectiveRecord, EngineConfig, Fabric, FabricConfig,
    ReduceOp, SyncMode,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Broadcast,
    Reduce,
    Scatter,
    Gather,
    AllReduce,
    AllGather,
    AllToAll,
}

const KINDS: [Kind; 7] = [
    Kind::Broadcast,
    Kind::Reduce,
    Kind::Scatter,
    Kind::Gather,
    Kind::AllReduce,
    Kind::AllGather,
    Kind::AllToAll,
];

const ALGOS: [AlgorithmPolicy; 4] = [
    AlgorithmPolicy::Auto,
    AlgorithmPolicy::Binomial,
    AlgorithmPolicy::Linear,
    AlgorithmPolicy::Ring,
];

const SYNCS: [SyncMode; 4] = [
    SyncMode::Auto,
    SyncMode::Barrier,
    SyncMode::Signaled,
    SyncMode::Pipelined,
];

/// Run one collective workload with the plan cache on or off and return
/// what the equivalence check compares: per-PE result buffers plus the
/// telemetry rows with interleaving-sensitive cycle fields masked.
#[allow(clippy::too_many_arguments)]
fn run_one(
    engine: EngineConfig,
    plan_cache: bool,
    kind: Kind,
    algo: AlgorithmPolicy,
    sync: SyncMode,
    n: usize,
    nelems: usize,
    root: usize,
) -> (Vec<Vec<u64>>, Vec<CollectiveRecord>) {
    let cfg = FabricConfig::paper(n)
        .with_shared_bytes(1 << 20)
        .with_engine(engine)
        .with_plan_cache(plan_cache);
    let msgs: Vec<usize> = (0..n).map(|i| 1 + (nelems + i * 3) % 17).collect();
    let disp: Vec<usize> = msgs
        .iter()
        .scan(0, |at, &m| {
            let d = *at;
            *at += m;
            Some(d)
        })
        .collect();
    let total: usize = msgs.iter().sum();
    let report = Fabric::run(cfg, |pe| {
        let me = pe.rank() as u64;
        match kind {
            Kind::Broadcast => {
                let dest = pe.shared_malloc::<u64>(nelems);
                let src: Vec<u64> = (0..nelems as u64).map(|i| i * 3 + 1).collect();
                collectives::broadcast_policy_sync(pe, &dest, &src, nelems, 1, root, algo, sync);
                pe.barrier();
                pe.heap_read_vec(dest.whole(), nelems)
            }
            Kind::Reduce => {
                let src = pe.shared_malloc::<u64>(nelems);
                let vals: Vec<u64> = (0..nelems as u64).map(|i| me * 31 + i).collect();
                pe.heap_write(src.whole(), &vals);
                pe.barrier();
                let mut dest = vec![0u64; nelems];
                collectives::reduce_policy_sync(
                    pe,
                    &mut dest,
                    &src,
                    nelems,
                    1,
                    root,
                    ReduceOp::Sum,
                    algo,
                    sync,
                );
                pe.barrier();
                dest
            }
            Kind::Scatter => {
                let src: Vec<u64> = (0..total as u64).map(|i| i * 7 + 3).collect();
                let mut dest = vec![0u64; msgs[pe.rank()]];
                collectives::scatter_policy_sync(
                    pe, &mut dest, &src, &msgs, &disp, total, root, algo, sync,
                );
                pe.barrier();
                dest
            }
            Kind::Gather => {
                let src = vec![me * 5 + 1; msgs[pe.rank()]];
                let mut dest = vec![0u64; total];
                collectives::gather_policy_sync(
                    pe, &mut dest, &src, &msgs, &disp, total, root, algo, sync,
                );
                pe.barrier();
                dest
            }
            Kind::AllReduce => {
                let src = pe.shared_malloc::<u64>(nelems);
                let vals: Vec<u64> = (0..nelems as u64).map(|i| me + i * 11).collect();
                pe.heap_write(src.whole(), &vals);
                pe.barrier();
                let mut dest = vec![0u64; nelems];
                // Map the shared policy axis onto the allreduce family so
                // every generator gets cached-vs-uncached coverage.
                let strat = match algo {
                    AlgorithmPolicy::Auto => AllReduceAlgo::Auto,
                    AlgorithmPolicy::Binomial => AllReduceAlgo::RecursiveDoubling,
                    AlgorithmPolicy::Linear => AllReduceAlgo::Rabenseifner,
                    AlgorithmPolicy::Ring => AllReduceAlgo::Ring,
                };
                collectives::reduce_all_sync(
                    pe,
                    &mut dest,
                    &src,
                    nelems,
                    ReduceOp::Sum,
                    strat,
                    sync,
                );
                pe.barrier();
                dest
            }
            Kind::AllGather => {
                let per = msgs[0];
                let src: Vec<u64> = (0..per as u64).map(|i| me * 100 + i).collect();
                let mut dest = vec![0u64; per * n];
                let strat = match algo {
                    AlgorithmPolicy::Auto => AllGatherAlgo::Auto,
                    AlgorithmPolicy::Ring => AllGatherAlgo::RecursiveDoubling,
                    _ => AllGatherAlgo::Fan,
                };
                collectives::all_gather_algo_sync(pe, &mut dest, &src, per, strat, sync);
                pe.barrier();
                dest
            }
            Kind::AllToAll => {
                let per = msgs[0];
                let src: Vec<u64> = (0..(per * n) as u64).map(|i| me * 1000 + i).collect();
                let mut dest = vec![0u64; per * n];
                collectives::all_to_all_sync(pe, &mut dest, &src, per, sync);
                pe.barrier();
                dest
            }
        }
    });
    let masked = report
        .collectives
        .into_iter()
        .map(|mut r| {
            r.cycles = 0;
            r.wait_cycles = 0;
            r
        })
        .collect();
    (report.results, masked)
}

#[allow(clippy::too_many_arguments)]
fn assert_cached_matches_uncached(
    engine: EngineConfig,
    kind: Kind,
    algo: AlgorithmPolicy,
    sync: SyncMode,
    n: usize,
    nelems: usize,
    root: usize,
) {
    let (res_on, coll_on) = run_one(engine, true, kind, algo, sync, n, nelems, root);
    let (res_off, coll_off) = run_one(engine, false, kind, algo, sync, n, nelems, root);
    assert_eq!(
        res_on, res_off,
        "results diverged: {kind:?} {algo:?} {sync:?} n={n} nelems={nelems} root={root}"
    );
    assert_eq!(
        coll_on, coll_off,
        "telemetry diverged: {kind:?} {algo:?} {sync:?} n={n} nelems={nelems} root={root}"
    );
}

/// Deterministic sweep on the thread backend: every collective kind under
/// every concrete sync mode, plan cache on vs off, byte-identical.
#[test]
fn cached_plans_match_uncached_thread_backend() {
    for kind in KINDS {
        for sync in SyncMode::CONCRETE {
            for n in [2usize, 5, 8] {
                assert_cached_matches_uncached(
                    EngineConfig::threads(),
                    kind,
                    AlgorithmPolicy::Auto,
                    sync,
                    n,
                    33,
                    n - 1,
                );
            }
        }
    }
}

/// Same sweep on the cooperative work-stealing backend.
#[test]
fn cached_plans_match_uncached_coop_backend() {
    for kind in KINDS {
        for sync in SyncMode::CONCRETE {
            for n in [2usize, 5, 8] {
                assert_cached_matches_uncached(
                    EngineConfig::coop().with_seed(0xA5),
                    kind,
                    AlgorithmPolicy::Auto,
                    sync,
                    n,
                    33,
                    n - 1,
                );
            }
        }
    }
}

/// Explicit algorithm shapes (binomial/linear/ring), cached vs
/// uncached. For AllReduce/AllGather the policy axis maps onto the extended
/// family (recursive doubling / Rabenseifner / ring, fan / dissemination
/// — see `run_one`), so every new generator gets a pinned row here.
#[test]
fn cached_plans_match_uncached_every_algorithm() {
    for kind in [
        Kind::Broadcast,
        Kind::Reduce,
        Kind::Scatter,
        Kind::Gather,
        Kind::AllReduce,
        Kind::AllGather,
    ] {
        for algo in [
            AlgorithmPolicy::Binomial,
            AlgorithmPolicy::Linear,
            AlgorithmPolicy::Ring,
        ] {
            assert_cached_matches_uncached(
                EngineConfig::threads(),
                kind,
                algo,
                SyncMode::Barrier,
                6,
                17,
                2,
            );
        }
    }
}

/// The non-power-of-two segmented generators under signaled/pipelined
/// sync, plan-on vs plan-off, both backends.
#[test]
fn cached_plans_match_uncached_allreduce_family_non_pow2() {
    for engine in [EngineConfig::threads(), EngineConfig::coop().with_seed(3)] {
        for algo in [AlgorithmPolicy::Linear, AlgorithmPolicy::Ring] {
            for sync in [SyncMode::Signaled, SyncMode::Pipelined] {
                for n in [3usize, 7] {
                    assert_cached_matches_uncached(engine, Kind::AllReduce, algo, sync, n, 41, 0);
                }
            }
        }
    }
}

/// A run that exercises every kind reports exact cache telemetry: each
/// lookup is either a hit or a miss, and each miss created one entry.
#[test]
fn cache_telemetry_is_exact() {
    let (_res, _coll) = run_one(
        EngineConfig::threads(),
        true,
        Kind::Broadcast,
        AlgorithmPolicy::Auto,
        SyncMode::Signaled,
        8,
        33,
        7,
    );
    let report = Fabric::run(FabricConfig::new(4), |pe| {
        let dest = pe.shared_malloc::<u64>(8);
        for _ in 0..5 {
            collectives::broadcast(pe, &dest, &[1, 2, 3, 4, 5, 6, 7, 8], 8, 1, 0);
        }
        pe.barrier();
    });
    let stats = report.plan_cache.expect("plan cache on by default");
    // 4 PEs x 5 episodes = 20 lookups of one key: 1 miss, 19 hits.
    assert_eq!(stats.misses, 1, "one distinct key");
    assert_eq!(stats.hits, 19, "all other lookups hit");
    assert_eq!(stats.entries, 1);
    assert!(stats.bytes > 0);
    assert!(stats.hit_rate() > 0.9);
}

/// Plan cache disabled: the report carries no stats and collectives still
/// record their resolved algorithm/sync choices.
#[test]
fn cache_off_reports_no_stats_but_full_telemetry() {
    let report = Fabric::run(FabricConfig::new(4).with_plan_cache(false), |pe| {
        let dest = pe.shared_malloc::<u64>(4);
        collectives::broadcast(pe, &dest, &[9, 9, 9, 9], 4, 1, 0);
        pe.barrier();
    });
    assert!(report.plan_cache.is_none());
    let rec = report
        .collectives
        .iter()
        .find(|r| r.kind == CollectiveKind::Broadcast)
        .expect("broadcast recorded");
    assert!(!rec.algorithms().is_empty(), "resolved algorithm recorded");
    assert!(!rec.sync_modes().is_empty(), "resolved sync mode recorded");
}

/// 256 PEs concurrently issuing the same collective over the
/// work-stealing pool: the sharded counters must stay exact — no lost
/// updates, one miss per distinct key, every other lookup a hit.
#[test]
fn concurrent_issue_counters_exact_at_256_pes() {
    let n = 256usize;
    let rounds = 3u64;
    let report = Fabric::run(
        FabricConfig::paper(n)
            .with_shared_bytes(1 << 21)
            .with_engine(EngineConfig::coop().with_seed(7)),
        move |pe| {
            let dest = pe.shared_malloc::<u64>(4);
            for r in 0..rounds {
                collectives::broadcast(pe, &dest, &[r, r + 1, r + 2, r + 3], 4, 1, 0);
            }
            pe.barrier();
            pe.heap_read_vec::<u64>(dest.whole(), 4)
        },
    );
    for (rank, got) in report.results.iter().enumerate() {
        assert_eq!(
            got,
            &vec![rounds - 1, rounds, rounds + 1, rounds + 2],
            "rank {rank}"
        );
    }
    let stats = report.plan_cache.expect("plan cache on");
    let lookups = (n as u64) * rounds;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every lookup counted exactly once"
    );
    assert_eq!(
        stats.misses, stats.entries,
        "each miss created exactly one entry"
    );
    assert_eq!(stats.entries, 1, "one distinct key across all PEs");
}

/// Two nonblocking collectives overlap: both are issued (in flight)
/// before either is completed, land in disjoint buffers, and both
/// produce correct results.
#[test]
fn two_collectives_overlap_in_flight() {
    for sync in SyncMode::CONCRETE {
        let report = Fabric::run(FabricConfig::new(8), move |pe| {
            let me = pe.rank() as u64;
            let d1 = pe.shared_malloc::<u64>(16);
            let src2 = pe.shared_malloc::<u64>(8);
            let vals: Vec<u64> = (0..8).map(|i| me + i).collect();
            pe.heap_write(src2.whole(), &vals);
            pe.barrier();

            // Issue both before waiting on either: >= 2 in flight.
            let bcast_src: Vec<u64> = (0..16u64).map(|i| i * 2 + 1).collect();
            let h1 = collectives::ixbroadcast(pe, &d1, &bcast_src, 16, 3, sync);
            let h2 = collectives::ixallreduce(pe, &src2, 8, |a, b| a.wrapping_add(b), sync);

            let mut sum = vec![0u64; 8];
            h2.wait_into(pe, &mut sum);
            h1.wait(pe);
            pe.barrier();
            (pe.heap_read_vec::<u64>(d1.whole(), 16), sum)
        });
        let n = 8u64;
        for (rank, (bc, sum)) in report.results.iter().enumerate() {
            let expect_bc: Vec<u64> = (0..16u64).map(|i| i * 2 + 1).collect();
            assert_eq!(bc, &expect_bc, "{sync:?} rank {rank} broadcast");
            // allreduce of me+i over me in 0..8: sum_me(me) + 8*i = 28 + 8i.
            let expect_sum: Vec<u64> = (0..8u64).map(|i| n * (n - 1) / 2 + n * i).collect();
            assert_eq!(sum, &expect_sum, "{sync:?} rank {rank} allreduce");
        }
    }
}

/// Regression: dropping a live `CollHandle` without `wait()` must drain
/// its in-flight steps and release its signal-slot window and episode
/// cursor. Before the `Drop` impl, the leaked reservation strided the
/// nonblocking cursor forward permanently, and ~16 further episodes
/// tripped the `OVERLAP_HEADROOM` slot-table assert.
#[test]
fn dropped_handle_releases_slots_and_cursor() {
    for sync in [SyncMode::Signaled, SyncMode::Pipelined] {
        let report = Fabric::run(FabricConfig::new(6), move |pe| {
            let me = pe.rank() as u64;
            let src = pe.shared_malloc::<u64>(8);
            let vals: Vec<u64> = (0..8).map(|i| me * 7 + i).collect();
            pe.heap_write(src.whole(), &vals);
            pe.barrier();

            // Two live collectives, abandoned on every PE. The broadcast
            // goes first so its shape sizes the slot table: a leaked
            // reservation would then consume exactly its own headroom
            // window across the same-shaped episodes below. The allreduce
            // additionally abandons a pending all-readout.
            let dest = pe.shared_malloc::<u64>(4);
            let h = collectives::ixbroadcast(pe, &dest, &[9u64, 9, 9, 9], 4, 0, sync);
            drop(h);
            let h = collectives::ixallreduce(pe, &src, 8, |a, b| a.wrapping_add(b), sync);
            drop(h);
            pe.barrier();

            // The cursor and slot table must be fully recycled: twice
            // OVERLAP_HEADROOM more same-shaped episodes, all correct.
            // With the reservations stranded, the striding cursor would
            // overrun the table sized at the first issue (the table
            // rounds its capacity to a power of two, hence 2x).
            let mut out = Vec::new();
            for ep in 0..32u64 {
                let bsrc = [ep * 4, ep * 4 + 1, ep * 4 + 2, ep * 4 + 3];
                collectives::ixbroadcast(pe, &dest, &bsrc, 4, (ep as usize) % 6, sync).wait(pe);
                pe.barrier();
                out.extend(pe.heap_read_vec::<u64>(dest.whole(), 4));
                pe.barrier();
            }
            out
        });
        for (rank, got) in report.results.iter().enumerate() {
            let expect: Vec<u64> = (0..32u64)
                .flat_map(|ep| (0..4u64).map(move |j| ep * 4 + j))
                .collect();
            assert_eq!(got, &expect, "{sync:?} rank {rank}");
        }
    }
}

/// Persistent handles re-issue the same compiled plan: one miss, then
/// hits for every subsequent start, with correct results each episode.
#[test]
fn persistent_reissue_hits_cache() {
    let report = Fabric::run(FabricConfig::new(4), |pe| {
        let dest = pe.shared_malloc::<u64>(4);
        let p = collectives::plan_create_broadcast(pe, &dest, 4, 2, SyncMode::Signaled);
        let mut out = Vec::new();
        for r in 0..4u64 {
            let src = [r * 10, r * 10 + 1, r * 10 + 2, r * 10 + 3];
            p.start(pe, &src).wait(pe);
            pe.barrier();
            out.extend(pe.heap_read_vec::<u64>(dest.whole(), 4));
            // Quiesce reads of `dest` before the next episode's root put.
            pe.barrier();
        }
        out
    });
    for (rank, got) in report.results.iter().enumerate() {
        let expect: Vec<u64> = (0..4u64)
            .flat_map(|r| (0..4u64).map(move |j| r * 10 + j))
            .collect();
        assert_eq!(got, &expect, "rank {rank}");
    }
    let stats = report.plan_cache.expect("plan cache on");
    // plan_create compiles once per PE lookup; start() reuses the Arc and
    // never performs another lookup.
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 3, "3 other PEs' plan_create lookups hit");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Randomised cache-on/off agreement across the full configuration
    /// cross-product on the thread backend.
    #[test]
    fn cached_matches_uncached_on_random_configs(
        kind_i in 0usize..KINDS.len(),
        algo_i in 0usize..ALGOS.len(),
        sync_i in 0usize..SYNCS.len(),
        n in 2usize..=8,
        nelems in 1usize..=96,
        root_i in 0usize..8,
    ) {
        assert_cached_matches_uncached(
            EngineConfig::threads(),
            KINDS[kind_i],
            ALGOS[algo_i],
            SYNCS[sync_i],
            n,
            nelems,
            root_i % n,
        );
    }

    /// Cache-key determinism: looking up the same key twice returns the
    /// same shared plan (no rebuild); varying any shape axis produces a
    /// distinct entry.
    #[test]
    fn cache_keys_are_deterministic(
        n in 2usize..=16,
        nelems in 1usize..=64,
        root_i in 0usize..16,
        sync_i in 0usize..SYNCS.len(),
    ) {
        let root = root_i % n;
        let sync = SYNCS[sync_i];
        let cache = PlanCache::new();
        let key = PlanKey::rooted(
            CollectiveKind::Broadcast,
            Algorithm::Binomial,
            sync,
            n,
            root,
            nelems,
            1,
            8,
            0, // tag::BROADCAST_BINOMIAL
        );
        let build = || {
            collectives::plan::lower(&broadcast_binomial(n, root, nelems, 1), sync, 8)
        };
        let a = cache.get_or_build(&key, build);
        let b = cache.get_or_build(&key, build);
        prop_assert!(std::sync::Arc::ptr_eq(&a, &b), "same key must share one plan");
        let s = cache.stats();
        prop_assert_eq!(s.misses, 1);
        prop_assert_eq!(s.hits, 1);

        // Perturb one axis at a time: each variant is a distinct entry.
        let mut variants = Vec::new();
        if n > 2 {
            variants.push(PlanKey::rooted(
                CollectiveKind::Broadcast, Algorithm::Binomial, sync,
                n - 1, root.min(n - 2), nelems, 1, 8, 0,
            ));
        }
        variants.push(PlanKey::rooted(
            CollectiveKind::Broadcast, Algorithm::Binomial, sync,
            n, root, nelems + 1, 1, 8, 0,
        ));
        variants.push(PlanKey::rooted(
            CollectiveKind::Broadcast, Algorithm::Binomial, sync,
            n, root, nelems, 1, 4, 0,
        ));
        for v in &variants {
            prop_assert!(v != &key, "perturbed key must differ");
            let p = cache.get_or_build(v, || {
                collectives::plan::lower(
                    &broadcast_binomial(v.n_pes, v.root, v.nelems, 1),
                    sync,
                    v.elem_bytes,
                )
            });
            prop_assert!(!std::sync::Arc::ptr_eq(&a, &p));
        }
        let s = cache.stats();
        prop_assert_eq!(s.entries, 1 + variants.len() as u64);
        prop_assert_eq!(s.misses, 1 + variants.len() as u64);
    }
}

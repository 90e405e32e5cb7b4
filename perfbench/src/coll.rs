//! `coll_small` and `coll_bulk`: every PE runs the same seeded sequence of
//! collective calls in a closed SPMD loop (the next call starts when the
//! previous one returns), under the paper timing model.
//!
//! Each call's inputs are a closed-form function of (seed, op index, rank,
//! element), so every PE can compute the dense reference result of every
//! call itself and check its output element by element.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xbrtime::collectives::extended::{AllGatherAlgo, AllReduceAlgo};
use xbrtime::collectives::vcoll::{prefix_displacements, AllGatherVAlgo};
use xbrtime::collectives::{self, PlanCacheStats};
use xbrtime::timing::SplitMix64;
use xbrtime::{
    AlgorithmPolicy, Fabric, FabricConfig, FabricStats, Pe, ReduceOp, SymmAlloc, SyncMode,
    TimingConfig,
};

use crate::spans::Tracer;
use crate::stats::{mean, median, quantile, ratio};
use crate::{
    derive, engine, metric, mix64, paired_share, probes, sys, Budget, Ledger, Metric, Outcome,
    RunOpts,
};

/// A collective in the workload mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Broadcast,
    Reduce,
    AllReduce,
    AllGather,
    Scatterv,
    Gatherv,
    Allgatherv,
}

impl Kind {
    /// Span name of a call of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            Kind::Broadcast => "collectives.broadcast",
            Kind::Reduce => "collectives.reduce",
            Kind::AllReduce => "collectives.allreduce",
            Kind::AllGather => "collectives.allgather",
            Kind::Scatterv => "collectives.scatterv",
            Kind::Gatherv => "collectives.gatherv",
            Kind::Allgatherv => "collectives.allgatherv",
        }
    }

    /// A v-collective, whose shape includes a per-PE count table.
    pub fn is_v(self) -> bool {
        matches!(self, Kind::Scatterv | Kind::Gatherv | Kind::Allgatherv)
    }

    /// A collective with a root PE.
    pub fn rooted(self) -> bool {
        matches!(
            self,
            Kind::Broadcast | Kind::Reduce | Kind::Scatterv | Kind::Gatherv
        )
    }
}

/// Every kind, in a fixed order.
pub const ALL_KINDS: [Kind; 7] = [
    Kind::Broadcast,
    Kind::Reduce,
    Kind::AllReduce,
    Kind::AllGather,
    Kind::Scatterv,
    Kind::Gatherv,
    Kind::Allgatherv,
];

/// One collective workload.
#[derive(Clone, Copy, Debug)]
pub struct CollSpec {
    pub name: &'static str,
    pub n_pes: usize,
    pub kinds: &'static [Kind],
    /// Payload sizes in `u64` elements: per PE for allgather, the total
    /// for v-collectives, the vector length otherwise. The palette holds
    /// one shape per (kind, size).
    pub sizes: &'static [usize],
    /// v-collective calls per block of calls that carry a fresh count
    /// table instead of their palette one (they miss the plan cache).
    pub fresh_per_block: usize,
    /// Symmetric segment per PE.
    pub shared_bytes: usize,
    /// Fabrics set up per run; the timed phase is split evenly over them.
    pub setups: usize,
    /// Calls in each of the fixed-length differencing runs (timing model
    /// on/off, tracing on/off); whole blocks of the palette.
    pub diff_ops: u64,
}

/// 64 PEs, 8 B–1 KiB payloads, every kind: latency-bound calls whose host
/// cost is the plan lookup, the executor step loop, signals, barriers and
/// engine park/unpark.
///
/// The mix is a synthetic choice, not recorded traffic: every (kind, size)
/// weighs the same, and two v-collective calls per block carry a fresh
/// count table, so that both the plan-cache hit path and the lowering path
/// carry load.
pub const COLL_SMALL: CollSpec = CollSpec {
    name: "coll_small",
    n_pes: 64,
    kinds: &ALL_KINDS,
    sizes: &[1, 16, 128],
    fresh_per_block: 2,
    shared_bytes: 2 << 20,
    setups: 5,
    diff_ops: 84,
};

/// 8 PEs, 64 KiB–1 MiB allreduce and broadcast: bandwidth-bound calls
/// whose host cost is data movement and the per-access timing model.
pub const COLL_BULK: CollSpec = CollSpec {
    name: "coll_bulk",
    n_pes: 8,
    kinds: &[Kind::AllReduce, Kind::Broadcast],
    sizes: &[8 << 10, 32 << 10, 128 << 10],
    fresh_per_block: 0,
    shared_bytes: 16 << 20,
    setups: 5,
    diff_ops: 24,
};

/// Op indices of the warm-up calls start here, away from the timed ones.
const WARMUP_BASE: u64 = 1 << 62;

/// The shape of one call.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Shape {
    pub kind: Kind,
    /// See [`CollSpec::sizes`]; for v-collectives the sum of `counts`.
    pub nelems: usize,
    pub root: usize,
    /// Per-PE element counts (v-collectives only).
    pub counts: Vec<usize>,
}

impl Shape {
    /// Payload bytes the policy layer keys on: the vector for rooted and
    /// all-reduce calls, one PE's block for allgather, the total for
    /// v-collectives.
    pub fn bytes(&self) -> usize {
        self.nelems * 8
    }
}

/// One call of the sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub shape: Arc<Shape>,
    /// Carries a fresh count table (a plan-cache miss).
    pub fresh: bool,
}

fn random_counts(rng: &mut SplitMix64, n_pes: usize, total: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_pes];
    for _ in 0..total {
        counts[rng.pick(n_pes as u64) as usize] += 1;
    }
    counts
}

/// The workload's palette: one shape per (kind, size), with seeded roots
/// and count tables. Its composition does not depend on the seed, so
/// every seed loads the same layers equally.
pub fn palette(spec: &CollSpec, seed: u64) -> Vec<Arc<Shape>> {
    let mut rng = SplitMix64::new(derive(seed, u64::MAX));
    let mut shapes = Vec::new();
    for &kind in spec.kinds {
        for &nelems in spec.sizes {
            shapes.push(Arc::new(random_shape(&mut rng, spec.n_pes, kind, nelems)));
        }
    }
    shapes
}

fn random_shape(rng: &mut SplitMix64, n_pes: usize, kind: Kind, nelems: usize) -> Shape {
    let root = if kind.rooted() {
        rng.pick(n_pes as u64) as usize
    } else {
        0
    };
    let counts = if kind.is_v() {
        random_counts(rng, n_pes, nelems)
    } else {
        Vec::new()
    };
    Shape {
        kind,
        nelems,
        root,
        counts,
    }
}

/// Call `i` of the sequence for `seed`. Calls come in blocks of one
/// palette's length; each block issues every palette shape once in a
/// seeded order, except that `fresh_per_block` seeded v-collective calls
/// carry a fresh count table of the same kind and total instead. So the
/// mix of every whole block is the same for every seed.
pub fn op_at(spec: &CollSpec, seed: u64, palette: &[Arc<Shape>], i: u64) -> Op {
    let len = palette.len() as u64;
    let mut rng = SplitMix64::new(derive(seed, i / len));
    let mut order: Vec<usize> = (0..palette.len()).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, rng.pick(k as u64 + 1) as usize);
    }
    let base = &palette[order[(i % len) as usize]];
    // The fresh calls of this block: the first `fresh_per_block` v-shapes
    // in a second seeded order.
    let mut v: Vec<usize> = (0..palette.len())
        .filter(|&k| palette[k].kind.is_v())
        .collect();
    for k in (1..v.len()).rev() {
        v.swap(k, rng.pick(k as u64 + 1) as usize);
    }
    let slot = order[(i % len) as usize];
    if v.iter().take(spec.fresh_per_block).any(|&k| k == slot) {
        let mut fresh = SplitMix64::new(derive(seed ^ 0xF4E5, i));
        return Op {
            shape: Arc::new(random_shape(&mut fresh, spec.n_pes, base.kind, base.nelems)),
            fresh: true,
        };
    }
    Op {
        shape: Arc::clone(base),
        fresh: false,
    }
}

/// PE `rank`'s input to call `i` is `a + j·b` at element `j`: closed form,
/// so sums over PEs have closed forms too. `a < 2^40` and `b < 2^16` keep
/// every sum far from overflow.
fn coeffs(seed: u64, i: u64, rank: usize) -> (u64, u64) {
    let h = mix64(seed ^ mix64(i) ^ (rank as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    (h & ((1 << 40) - 1), (h >> 40) & 0xFFFF)
}

fn fill(v: &mut Vec<u64>, c: (u64, u64), n: usize) {
    v.extend((0..n as u64).map(|j| c.0 + j * c.1));
}

/// Symmetric buffers of one call. Calls alternate between two sets, so a
/// PE that is still reading call `i`'s result cannot be overwritten by a
/// peer already in call `i + 1`; call `i + 2` starts only after every PE
/// has left call `i + 1`, whose closing barrier orders it.
struct Bufs {
    src: SymmAlloc<u64>,
    dst: SymmAlloc<u64>,
}

/// The local buffers of one call, reused from call to call.
#[derive(Default)]
struct Call {
    src: Vec<u64>,
    out: Vec<u64>,
    displs: Vec<usize>,
}

/// Fill `call` with this PE's inputs to call `i`.
fn prepare(pe: &Pe, shape: &Shape, seed: u64, i: u64, bufs: &Bufs, call: &mut Call) {
    let me = pe.rank();
    let n = shape.nelems;
    let mine = coeffs(seed, i, me);
    call.src.clear();
    call.displs.clear();
    if shape.kind.is_v() {
        call.displs
            .extend_from_slice(&prefix_displacements(&shape.counts)[..pe.n_pes()]);
    }
    let out_len = match shape.kind {
        Kind::Broadcast => {
            if me == shape.root {
                fill(&mut call.src, coeffs(seed, i, shape.root), n);
            } else {
                call.src.resize(n, 0);
            }
            n
        }
        Kind::Reduce | Kind::AllReduce => {
            fill(&mut call.src, mine, n);
            pe.heap_write(bufs.src.whole(), &call.src);
            n
        }
        Kind::AllGather => {
            fill(&mut call.src, mine, n);
            n * pe.n_pes()
        }
        Kind::Scatterv => {
            if me == shape.root {
                for r in 0..pe.n_pes() {
                    fill(&mut call.src, coeffs(seed, i, r), shape.counts[r]);
                }
            }
            shape.counts[me]
        }
        Kind::Gatherv | Kind::Allgatherv => {
            fill(&mut call.src, mine, shape.counts[me]);
            n
        }
    };
    call.out.clear();
    call.out.resize(out_len, 0);
}

/// The call into the collectives layer: the only timed part of an op.
fn invoke(pe: &Pe, shape: &Shape, call: &mut Call, bufs: &Bufs) -> Result<(), String> {
    let (auto, sync) = (AlgorithmPolicy::Auto, SyncMode::Auto);
    let n = shape.nelems;
    match shape.kind {
        Kind::Broadcast => collectives::broadcast_policy_sync(
            pe, &bufs.dst, &call.src, n, 1, shape.root, auto, sync,
        ),
        Kind::Reduce => collectives::reduce_policy_sync(
            pe,
            &mut call.out,
            &bufs.src,
            n,
            1,
            shape.root,
            ReduceOp::Sum,
            auto,
            sync,
        ),
        Kind::AllReduce => collectives::reduce_all_sync(
            pe,
            &mut call.out,
            &bufs.src,
            n,
            ReduceOp::Sum,
            AllReduceAlgo::Auto,
            sync,
        ),
        Kind::AllGather => collectives::all_gather_algo_sync(
            pe,
            &mut call.out,
            &call.src,
            n,
            AllGatherAlgo::Auto,
            sync,
        ),
        Kind::Scatterv => collectives::try_scatterv_policy_sync(
            pe,
            &mut call.out,
            &call.src,
            &shape.counts,
            &call.displs,
            shape.root,
            auto,
            sync,
        )
        .map_err(|e| e.to_string())?,
        Kind::Gatherv => collectives::try_gatherv_policy_sync(
            pe,
            &mut call.out,
            &call.src,
            &shape.counts,
            &call.displs,
            shape.root,
            auto,
            sync,
        )
        .map_err(|e| e.to_string())?,
        Kind::Allgatherv => collectives::try_allgatherv_algo_sync(
            pe,
            &mut call.out,
            &call.src,
            &shape.counts,
            AllGatherVAlgo::Auto,
            sync,
        )
        .map_err(|e| e.to_string())?,
    }
    Ok(())
}

/// Compare this PE's output with the dense reference. `plant` shifts the
/// reference by one, which every checked element must then fail.
fn check(
    pe: &Pe,
    shape: &Shape,
    seed: u64,
    i: u64,
    call: &mut Call,
    bufs: &Bufs,
    plant: bool,
) -> bool {
    let me = pe.rank();
    let n = shape.nelems;
    let off = u64::from(plant);
    let block_ok = |got: &[u64], c: (u64, u64)| {
        got.iter()
            .enumerate()
            .all(|(j, &v)| v == c.0 + j as u64 * c.1 + off)
    };
    match shape.kind {
        Kind::Broadcast => {
            pe.heap_read_strided(bufs.dst.whole(), &mut call.out[..n], n, 1);
            block_ok(&call.out, coeffs(seed, i, shape.root))
        }
        Kind::Reduce | Kind::AllReduce => {
            if shape.kind == Kind::Reduce && me != shape.root {
                return true;
            }
            let sum = (0..pe.n_pes()).fold((0u64, 0u64), |acc, r| {
                let c = coeffs(seed, i, r);
                (acc.0 + c.0, acc.1 + c.1)
            });
            block_ok(&call.out, sum)
        }
        Kind::AllGather => {
            (0..pe.n_pes()).all(|r| block_ok(&call.out[r * n..(r + 1) * n], coeffs(seed, i, r)))
        }
        Kind::Scatterv => block_ok(&call.out, coeffs(seed, i, me)),
        Kind::Gatherv | Kind::Allgatherv => {
            if shape.kind == Kind::Gatherv && me != shape.root {
                return true;
            }
            (0..pe.n_pes()).all(|r| {
                let d = call.displs[r];
                block_ok(&call.out[d..d + shape.counts[r]], coeffs(seed, i, r))
            })
        }
    }
}

/// What one PE reports from one fabric.
#[derive(Default)]
struct PeOut {
    /// Per timed call: this PE's clock advance across the call.
    cycles: Vec<u64>,
    /// Per timed call, rank 0 only: host time from entry to return.
    host_ns: Vec<u64>,
    /// Rank 0: when the first timed call was about to start.
    first_op: Option<Instant>,
    /// Rank 0: host seconds of the timed phase.
    phase_s: f64,
    /// Rank 0: host seconds of each whole block of calls.
    block_s: Vec<f64>,
    /// Rank 0: process CPU seconds over the timed phase.
    cpu_s: f64,
    /// Timed calls this PE completed.
    ops: u64,
}

/// Everything a collective phase measured, summed over its fabrics.
#[derive(Default)]
pub struct CollPhase {
    /// Shapes of the timed calls, in op order.
    pub shapes: Vec<Arc<Shape>>,
    /// Distinct shapes issued (palette and fresh), warm-up included.
    pub distinct: Vec<Arc<Shape>>,
    pub host_us: Vec<f64>,
    pub cycles: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub phase_s: f64,
    /// Host seconds of each whole block of calls (every block has the
    /// same mix).
    pub block_s: Vec<f64>,
    /// Calls per block.
    pub block_len: u64,
    pub cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Collective calls including warm-up (the denominator of per-op
    /// counts, which the warm-up contributes to).
    pub calls: u64,
    /// Barriers the benchmark itself issued (setup and stop decisions).
    pub bench_barriers: u64,
    pub stats: FabricStats,
    pub coll_stages: u64,
    pub coll_cycles: u64,
    pub coll_wait_cycles: u64,
    pub coll_calls: u64,
    pub plan: PlanCacheStats,
    pub grants: u64,
    pub grants_capped: bool,
    pub n_pes: usize,
    pub workers: usize,
}

impl CollPhase {
    /// Calls per host second: the median over whole blocks, which keeps a
    /// transient stall of the host from moving the figure; the mean rate
    /// when no block completed.
    pub fn calls_per_s(&self) -> f64 {
        if self.block_s.is_empty() {
            return ratio(self.shapes.len() as f64, self.phase_s);
        }
        ratio(self.block_len as f64, median(&self.block_s))
    }
}

/// Grant-log length at which `RunReport::sched_log` stops recording.
const SCHED_LOG_CAP: usize = 1 << 20;

/// Add the fabric counters the benchmark reports (blocking and
/// non-blocking transfers together) to `acc`.
pub(crate) fn add_stats(acc: &mut FabricStats, s: &FabricStats) {
    acc.puts += s.puts + s.nb_puts;
    acc.gets += s.gets + s.nb_gets;
    acc.bytes_put += s.bytes_put;
    acc.bytes_get += s.bytes_get;
    acc.barriers += s.barriers;
    acc.signals += s.signals;
}

/// Run the timed loop of `spec` on `spec.setups` fabrics (one when the
/// budget is an op count). Spans go to `tracer`.
pub fn run_phase(
    spec: &CollSpec,
    seed: u64,
    budget: Budget,
    timing: TimingConfig,
    tracer: &Tracer,
    plant: bool,
) -> CollPhase {
    let palette = palette(spec, seed);
    let max_elems = spec.sizes.iter().copied().max().unwrap_or(1);
    let setups = match budget {
        Budget::Seconds(_) => spec.setups.max(1),
        Budget::Ops(_) => 1,
    };
    let mut phase = CollPhase {
        block_len: palette.len() as u64,
        n_pes: spec.n_pes,
        workers: engine(seed).resolved_workers(spec.n_pes),
        ..Default::default()
    };
    let mut distinct: BTreeSet<Arc<Shape>> = palette.iter().cloned().collect();
    let mut next_index = 0u64;
    for f in 0..setups {
        let first = next_index;
        let stop_at = AtomicU64::new(u64::MAX);
        let issued = AtomicU64::new(0);
        let failed: Mutex<BTreeSet<u64>> = Mutex::new(BTreeSet::new());
        let cfg = FabricConfig {
            timing,
            ..FabricConfig::paper(spec.n_pes)
        }
        .with_shared_bytes(spec.shared_bytes)
        .with_engine(engine(derive(seed, f as u64)));
        let launched = Instant::now();
        let body = |pe: &Pe, parent: Option<u32>| -> PeOut {
            let rank0 = pe.rank() == 0;
            let traced = |name: &'static str, req: Option<u64>, f: &mut dyn FnMut()| {
                if rank0 {
                    tracer.span(name, parent, req, |_| f());
                } else {
                    f();
                }
            };
            let mut bufs = Vec::new();
            traced("fabric.shared_malloc", None, &mut || {
                bufs = (0..2)
                    .map(|_| Bufs {
                        src: pe.shared_malloc(max_elems),
                        dst: pe.shared_malloc(max_elems),
                    })
                    .collect();
            });
            let mut out = PeOut::default();
            let mut call = Call::default();
            let fail = |i: u64| {
                failed.lock().expect("failure set poisoned").insert(i);
            };
            // Warm-up: every palette shape once, which fills the plan cache.
            traced("warmup", None, &mut || {
                for (k, shape) in palette.iter().enumerate() {
                    let i = WARMUP_BASE + first + k as u64;
                    let b = &bufs[k % 2];
                    prepare(pe, shape, seed, i, b, &mut call);
                    let ok = invoke(pe, shape, &mut call, b).is_ok()
                        && check(pe, shape, seed, i, &mut call, b, plant);
                    if !ok {
                        fail(i);
                    }
                }
            });
            traced("fabric.barrier", None, &mut || pe.barrier());
            let start = Instant::now();
            let cpu0 = if rank0 { sys::cpu_seconds() } else { 0.0 };
            if rank0 {
                out.first_op = Some(start);
            }
            let block = palette.len() as u64;
            let mut local = 0u64;
            let mut block_start = start;
            let mut block_done = |out: &mut PeOut, local: u64| {
                if rank0 && local > 0 && local.is_multiple_of(block) {
                    let now = Instant::now();
                    out.block_s.push((now - block_start).as_secs_f64());
                    block_start = now;
                }
            };
            loop {
                block_done(&mut out, local);
                if let Budget::Ops(n) = budget {
                    if local == n {
                        break;
                    }
                }
                // Stop decisions fall on block boundaries, so a phase
                // issues whole blocks; each costs one barrier, which keeps
                // every PE's call count identical.
                if local.is_multiple_of(block) {
                    let k = local / block;
                    if let Budget::Seconds(s) = budget {
                        if rank0 && start.elapsed().as_secs_f64() >= s / setups as f64 {
                            stop_at.store(k, Ordering::SeqCst);
                        }
                    }
                    traced("fabric.barrier", Some(first + local), &mut || pe.barrier());
                    if stop_at.load(Ordering::SeqCst) <= k {
                        break;
                    }
                }
                let i = first + local;
                let op = op_at(spec, seed, &palette, i);
                let b = &bufs[(local % 2) as usize];
                prepare(pe, &op.shape, seed, i, b, &mut call);
                if rank0 {
                    issued.store(local + 1, Ordering::Relaxed);
                }
                let c0 = pe.cycles();
                let t0 = Instant::now();
                let mut res = Ok(());
                traced(op.shape.kind.span_name(), Some(i), &mut || {
                    res = invoke(pe, &op.shape, &mut call, b);
                });
                let dt = t0.elapsed();
                out.cycles.push(pe.cycles() - c0);
                if rank0 {
                    out.host_ns.push(dt.as_nanos() as u64);
                }
                let mut ok = res.is_ok();
                traced("check", Some(i), &mut || {
                    ok = ok && check(pe, &op.shape, seed, i, &mut call, b, plant);
                });
                if !ok {
                    fail(i);
                }
                local += 1;
            }
            if rank0 {
                out.phase_s = start.elapsed().as_secs_f64();
                out.cpu_s = sys::cpu_seconds() - cpu0;
            }
            out.ops = local;
            pe.barrier();
            out
        };
        let result = tracer.span("fabric.run", None, None, |fid| {
            Fabric::try_run(cfg, |pe| body(pe, fid))
        });
        let warmups = palette.len() as u64;
        match result {
            Ok(report) => {
                let pes = &report.results;
                let ops = pes[0].ops;
                let r0 = &pes[0];
                if let Some(t) = r0.first_op {
                    phase.setup_s.push((t - launched).as_secs_f64());
                }
                phase.phase_s += r0.phase_s;
                phase.block_s.extend(&r0.block_s);
                phase.cpu_s += r0.cpu_s;
                phase
                    .host_us
                    .extend(r0.host_ns.iter().map(|&ns| ns as f64 / 1e3));
                for k in 0..ops as usize {
                    let worst = pes.iter().map(|p| p.cycles[k]).max().unwrap_or(0);
                    phase.cycles.push(worst as f64);
                }
                let timed: Vec<Arc<Shape>> = (first..first + ops)
                    .map(|i| op_at(spec, seed, &palette, i).shape)
                    .collect();
                // The policy, generator and plan probes use the benchmark's
                // mirror of the library's dispatch; it must reproduce what
                // the library's executor and plan cache reported.
                let mirrored = probes::Telemetry::mirrored(
                    spec.n_pes,
                    palette.iter().chain(&timed).map(|s| s.as_ref()),
                );
                let reported = probes::Telemetry::reported(&report);
                if (mirrored != reported) != plant {
                    eprintln!(
                        "{}: fabric {f}: the mirrored dispatch disagrees with the library: \
                         mirrored {mirrored:?}, reported {reported:?}",
                        spec.name
                    );
                    phase.failed += 1;
                }
                distinct.extend(timed.iter().cloned());
                phase.shapes.extend(timed);
                let bad = failed.into_inner().expect("failure set poisoned");
                // Every call is a checked unit, and so is the mirror check.
                phase.attempted += ops + warmups + 1;
                phase.failed += bad.len() as u64;
                phase.calls += ops + warmups;
                let block = palette.len() as u64;
                phase.bench_barriers += 2
                    + ops.div_ceil(block)
                    + u64::from(ops % block == 0 && matches!(budget, Budget::Seconds(_)));
                add_stats(&mut phase.stats, &report.stats);
                for r in &report.collectives {
                    phase.coll_stages += r.stages;
                    phase.coll_cycles += r.cycles;
                    phase.coll_wait_cycles += r.wait_cycles;
                    phase.coll_calls += r.calls;
                }
                if let Some(p) = report.plan_cache {
                    phase.plan.hits += p.hits;
                    phase.plan.misses += p.misses;
                    phase.plan.entries += p.entries;
                    phase.plan.bytes = phase.plan.bytes.max(p.bytes);
                }
                phase.grants += report.sched_log.len() as u64;
                phase.grants_capped |= report.sched_log.len() >= SCHED_LOG_CAP;
                next_index = first + ops;
            }
            Err(e) => {
                eprintln!("{}: fabric {f} failed: {e}", spec.name);
                let n = issued.load(Ordering::Relaxed).max(1) + warmups;
                phase.attempted += n;
                phase.failed += n;
                next_index = first + n;
            }
        }
    }
    phase.distinct = distinct.into_iter().collect();
    phase
}

/// Run a collective workload.
pub fn run(spec: &CollSpec, opts: &RunOpts) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let phase = run_phase(
        spec,
        opts.seed,
        opts.budget,
        TimingConfig::paper(),
        &tracer,
        opts.plant_wrong_reference,
    );
    let spans = tracer.finish();
    let ops = phase.shapes.len() as f64;
    let total_cycles: f64 = phase.cycles.iter().sum();
    let mut o = Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        ..Default::default()
    };
    o.end_to_end = vec![
        metric("setup_s", "s", median(&phase.setup_s)),
        metric("peak_rss_mb", "MiB", sys::peak_rss_mib()),
        metric("host_ops_per_s", "1/s", phase.calls_per_s()),
        metric("modelled_mops", "1/us", ratio(ops, total_cycles / 1e3)),
    ];
    o.headline = vec![
        metric("coll_per_s", "1/s", phase.calls_per_s()),
        metric("coll_host_us_p50", "us", median(&phase.host_us)),
        metric("coll_host_us_p99", "us", quantile(&phase.host_us, 0.99)),
        metric("coll_host_samples", "count", phase.host_us.len() as f64),
        metric("coll_cycles_p50", "cycles", median(&phase.cycles)),
        metric("coll_cycles_p99", "cycles", quantile(&phase.cycles, 0.99)),
        metric("error_rate", "fraction", o.error_rate()),
    ];
    o.counts = phase_counts(&phase);
    o.facts = vec![
        ("n_pes".into(), spec.n_pes.to_string()),
        ("engine".into(), "coop".into()),
        ("engine_workers".into(), phase.workers.to_string()),
        ("setups".into(), phase.setup_s.len().to_string()),
    ];
    if opts.trace {
        let (layers, ledger) = traced_layers(spec, opts.seed, &phase);
        o.layers = layers;
        o.ledger = Some(ledger);
    }
    o.spans = spans;
    o
}

/// Counts that repeat exactly for the same seed and op budget.
pub fn phase_counts(phase: &CollPhase) -> Vec<(String, u64)> {
    let sched_ops = probes::schedule_ops(phase.n_pes, &phase.shapes);
    vec![
        ("ops".into(), phase.shapes.len() as u64),
        ("fabric.puts".into(), phase.stats.puts),
        ("fabric.gets".into(), phase.stats.gets),
        (
            "fabric.bytes".into(),
            phase.stats.bytes_put + phase.stats.bytes_get,
        ),
        ("fabric.barriers".into(), phase.stats.barriers),
        ("fabric.signals".into(), phase.stats.signals),
        ("schedule.ops".into(), sched_ops),
        ("exec.stages".into(), phase.coll_stages),
        ("plan.hits".into(), phase.plan.hits),
        ("plan.misses".into(), phase.plan.misses),
    ]
}

/// The runtime-layer metrics of a collective phase, and its ledger of
/// rank 0's mean call time.
fn runtime_layers(spec: &CollSpec, seed: u64, phase: &CollPhase) -> (Vec<Metric>, Ledger) {
    let n = spec.n_pes;
    let calls = phase.calls.max(1) as f64;
    let pr = probes::collective_probes(n, &phase.distinct, &phase.shapes);
    let fab = probes::fabric_probes(n, spec.shared_bytes, seed);
    let spawn_ms = probes::spawn_ms(n, spec.shared_bytes, seed);
    let lib_barriers = phase.stats.barriers.saturating_sub(phase.bench_barriers) as f64;
    let misses_per_call = phase.plan.misses as f64 / calls;
    let call_us = mean(&phase.host_us);
    let residual_us = call_us
        - pr.policy_ns / 1e3
        - pr.lookup_ns / 1e3
        - (pr.gen_us + pr.lower_us) * misses_per_call;
    let cpu_per_wall = ratio(phase.cpu_s, phase.phase_s);
    let per = |x: u64| x as f64 / calls;
    let bytes = phase.stats.bytes_put + phase.stats.bytes_get;

    let layers = vec![
        metric("policy.resolve_ns", "ns", pr.policy_ns),
        metric("schedule.gen_us", "us", pr.gen_us),
        metric("schedule.ops_per_call", "count", pr.ops_per_call),
        metric("plan.lower_us", "us", pr.lower_us),
        metric("plan.lookup_ns", "ns", pr.lookup_ns),
        metric("plan.hit_ratio", "fraction", phase.plan.hit_rate()),
        metric("plan.resident_kib", "KiB", phase.plan.bytes as f64 / 1024.0),
        metric("exec.residual_us", "us", residual_us),
        metric(
            "exec.stages_per_call",
            "count",
            ratio(phase.coll_stages as f64, phase.coll_calls as f64),
        ),
        metric(
            "exec.wait_cycle_share",
            "fraction",
            ratio(phase.coll_wait_cycles as f64, phase.coll_cycles as f64),
        ),
        metric("fabric.puts_per_op", "count", per(phase.stats.puts)),
        metric("fabric.gets_per_op", "count", per(phase.stats.gets)),
        metric("fabric.bytes_per_op", "B", per(bytes)),
        metric("fabric.barriers_per_op", "count", lib_barriers / calls),
        metric("fabric.signals_per_op", "count", per(phase.stats.signals)),
        metric("fabric.barrier_us", "us", fab.barrier_us),
        metric("fabric.put_ns_8b", "ns", fab.put_ns_8b),
        metric("fabric.get_ns_8b", "ns", fab.get_ns_8b),
        metric("fabric.put_us_64k", "us", fab.put_us_64k),
        metric("engine.spawn_ms", "ms", spawn_ms),
        metric(
            "engine.grants_per_op",
            "count",
            if phase.grants_capped {
                0.0
            } else {
                per(phase.grants)
            },
        ),
        metric("engine.cpu_per_wall", "ratio", cpu_per_wall),
    ];

    // Ledger of rank 0's mean call time. Probe rows are the probe's cost
    // times how often a call pays it; fabric rows convert CPU time summed
    // over PEs to wall time by the measured parallelism.
    let par = cpu_per_wall.max(1.0);
    let byte_ns = ((fab.put_us_64k * 1e3 - fab.put_ns_8b) / (65536.0 - 8.0)).max(0.0);
    let transfer_us = (per(phase.stats.puts) * fab.put_ns_8b
        + per(phase.stats.gets) * fab.get_ns_8b
        + per(bytes) * byte_ns)
        / 1e3
        / par;
    let mut ledger = Ledger::new("rank-0 collective call", "us", call_us);
    ledger.row("collectives::policy", "probe x 1", pr.policy_ns / 1e3);
    ledger.row("collectives::plan lookup", "probe x 1", pr.lookup_ns / 1e3);
    ledger.row(
        "schedule generators + plan::lower",
        "probe x misses/call",
        (pr.gen_us + pr.lower_us) * misses_per_call,
    );
    ledger.row(
        "fabric barrier",
        "probe x barriers/call",
        lib_barriers / calls * fab.barrier_us,
    );
    ledger.row(
        "fabric put/get",
        "probe x transfers/call / parallelism",
        transfer_us,
    );
    (layers, ledger.close("executor + engine (unexplained)"))
}

fn traced_layers(spec: &CollSpec, seed: u64, phase: &CollPhase) -> (Vec<Metric>, Ledger) {
    let (mut layers, mut ledger) = runtime_layers(spec, seed, phase);
    let timing = timing_share(spec, seed);
    layers.push(metric("fabric.timing_share", "fraction", timing));
    layers.push(metric(
        "trace.overhead_frac",
        "fraction",
        trace_overhead(spec, seed),
    ));
    ledger.notes.push(format!(
        "the timing model takes ~{:.0}% of host time (differencing, cuts across rows)",
        timing * 100.0
    ));
    (layers, ledger)
}

/// The first `spec.diff_ops` calls of the sequence, on one fabric.
fn fixed_run(spec: &CollSpec, seed: u64, timing: TimingConfig, traced: bool) -> CollPhase {
    let budget = Budget::Ops(spec.diff_ops);
    run_phase(spec, seed, budget, timing, &Tracer::new(traced), false)
}

/// `fabric.timing_share`: 1 − host time with the timing model off ÷ host
/// time with the paper timing, over the same calls.
pub fn timing_share(spec: &CollSpec, seed: u64) -> f64 {
    paired_share(
        || fixed_run(spec, seed, TimingConfig::disabled(), false).phase_s,
        || fixed_run(spec, seed, TimingConfig::paper(), false).phase_s,
    )
}

/// `trace.overhead_frac`: 1 − traced ÷ untraced calls per second over the
/// same calls.
pub fn trace_overhead(spec: &CollSpec, seed: u64) -> f64 {
    paired_share(
        || fixed_run(spec, seed, TimingConfig::paper(), false).phase_s,
        || fixed_run(spec, seed, TimingConfig::paper(), true).phase_s,
    )
}

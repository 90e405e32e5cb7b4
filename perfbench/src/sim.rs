//! `sim_kernels`: the GUPS and IS inner loops and a multi-hart remote
//! update kernel on the simulator's block engine under the paper cost
//! model, each run on a fresh machine with a seeded RNG start, its output
//! table checked against a host replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use xbgas_sim::asm::assemble;
use xbgas_sim::cost::CostConfig;
use xbgas_sim::{ExecMode, Machine, MachineConfig, RunExit};

use crate::spans::{self, Tracer};
use crate::stats::{median, ratio};
use crate::{derive, metric, paired_share, sys, Budget, Ledger, Metric, Outcome, RunOpts};

/// Where the kernels keep their tables.
const TABLE: u64 = 0x10_0000;
/// IS bucket counters (after at most 1.25 Mi 4-byte keys).
const BUCKETS: u64 = 0x60_0000;
/// Harts of the remote-update kernel.
const REMOTE_HARTS: usize = 4;

/// What a kernel computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// xorshift RNG feeding a masked 8-byte read-modify-write.
    Gups { log2_table: u32, updates: u64 },
    /// Key generation, then ranking into 256 buckets.
    Is { keys: u64 },
    /// Every hart updates its own region of a random peer's table
    /// through `eaddie` + `eld`/`esd`, so the OLB and NoC models work.
    Remote { log2_region: u32, updates: u64 },
}

/// An assembled kernel.
#[derive(Clone, Debug)]
pub struct Kernel {
    pub name: &'static str,
    pub kind: KernelKind,
    pub harts: usize,
    pub mem_bytes: usize,
    pub words: Vec<u32>,
}

const XORSHIFT: &str = "    slli t0, s1, 13
    xor  s1, s1, t0
    srli t0, s1, 7
    xor  s1, s1, t0
    slli t0, s1, 17
    xor  s1, s1, t0
";

/// Kernel source. The RNG state `s1` is preset per hart by the benchmark.
fn source(kind: KernelKind) -> String {
    match kind {
        KernelKind::Gups {
            log2_table,
            updates,
        } => format!(
            "    li   s2, {mask}
    li   s3, {TABLE}
    li   s0, {updates}
loop:
{XORSHIFT}    and  t1, s1, s2
    slli t1, t1, 3
    add  t2, s3, t1
    ld   t3, 0(t2)
    xor  t3, t3, s1
    sd   t3, 0(t2)
    addi s0, s0, -1
    bnez s0, loop
    li   a7, 0
    ecall
",
            mask = (1u64 << log2_table) - 1
        ),
        KernelKind::Is { keys } => format!(
            "    li   s2, {TABLE}
    li   s0, {keys}
gen:
{XORSHIFT}    sw   s1, 0(s2)
    addi s2, s2, 4
    addi s0, s0, -1
    bnez s0, gen
    li   s2, {TABLE}
    li   s3, {BUCKETS}
    li   s0, {keys}
rank:
    lw   t1, 0(s2)
    andi t2, t1, 255
    slli t2, t2, 3
    add  t2, s3, t2
    ld   t3, 0(t2)
    addi t3, t3, 1
    sd   t3, 0(t2)
    addi s2, s2, 4
    addi s0, s0, -1
    bnez s0, rank
    li   a7, 0
    ecall
"
        ),
        KernelKind::Remote {
            log2_region,
            updates,
        } => format!(
            "    li   a7, 2
    ecall
    mv   s5, a0
    li   a7, 3
    ecall
    mv   s6, a0
    li   s2, {mask}
    li   s4, {region_bytes}
    mul  s4, s4, s5
    li   t0, {TABLE}
    add  s4, s4, t0
    li   s0, {updates}
loop:
{XORSHIFT}    srli t4, s1, 32
    remu t4, t4, s6
    addi t4, t4, 1
    and  t1, s1, s2
    slli t1, t1, 3
    add  t0, s4, t1
    eaddie e5, t4, 0
    eld  t3, 0(t0)
    xor  t3, t3, s1
    esd  t3, 0(t0)
    addi s0, s0, -1
    bnez s0, loop
    li   a7, 4
    ecall
    li   a7, 0
    ecall
",
            mask = (1u64 << log2_region) - 1,
            region_bytes = 8u64 << log2_region,
        ),
    }
}

/// The three kernels. Sized so that each run takes a similar host time on
/// the block engine (the remote kernel retires the fewest instructions per
/// host second).
fn kernel_kinds() -> [(&'static str, KernelKind, usize, usize); 3] {
    [
        (
            "gups",
            KernelKind::Gups {
                log2_table: 17,
                updates: 600_000,
            },
            1,
            4 << 20,
        ),
        ("is", KernelKind::Is { keys: 400_000 }, 1, 8 << 20),
        (
            "remote",
            KernelKind::Remote {
                log2_region: 13,
                updates: 40_000,
            },
            REMOTE_HARTS,
            2 << 20,
        ),
    ]
}

/// Assemble the kernels.
pub fn assemble_kernels() -> Vec<Kernel> {
    kernel_kinds()
        .into_iter()
        .map(|(name, kind, harts, mem_bytes)| Kernel {
            name,
            kind,
            harts,
            mem_bytes,
            words: assemble(0x1000, &source(kind))
                .unwrap_or_else(|e| panic!("kernel {name} does not assemble: {e:?}"))
                .words,
        })
        .collect()
}

fn hart_seed(kseed: u64, hart: usize) -> u64 {
    // xorshift needs a non-zero state.
    derive(kseed, hart as u64) | 1
}

fn xorshift(s: &mut u64) {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
}

/// Initial table word `i` of hart `pe`.
fn init_word(pe: usize, i: u64) -> u64 {
    ((pe as u64) << 32) | i
}

fn table_words(kind: KernelKind) -> u64 {
    match kind {
        KernelKind::Gups { log2_table, .. } => 1 << log2_table,
        KernelKind::Is { .. } => 0,
        KernelKind::Remote { log2_region, .. } => (REMOTE_HARTS as u64) << log2_region,
    }
}

/// Build a machine for one run: program, initial tables, RNG seeds.
pub fn build(k: &Kernel, kseed: u64, cost: CostConfig, exec: ExecMode) -> Machine {
    let mut m = Machine::new(MachineConfig {
        n_harts: k.harts,
        mem_bytes: k.mem_bytes,
        cost,
        max_cycles: u64::MAX,
        exec,
    });
    m.load_program(0x1000, &k.words);
    for pe in 0..k.harts {
        let mem = m.mem_mut(pe);
        for i in 0..table_words(k.kind) {
            mem.store_u64(TABLE + 8 * i, init_word(pe, i))
                .expect("table fits in memory");
        }
        m.hart_mut(pe).x[9] = hart_seed(kseed, pe);
    }
    m
}

/// Compare the machine's tables with a host replay of the kernel. `plant`
/// shifts the reference by one.
pub fn check(k: &Kernel, kseed: u64, m: &Machine, plant: bool) -> bool {
    let off = u64::from(plant);
    let load = |pe: usize, addr: u64| m.mem(pe).load_u64(addr).ok();
    match k.kind {
        KernelKind::Gups {
            log2_table,
            updates,
        } => {
            let mask = (1u64 << log2_table) - 1;
            let mut t: Vec<u64> = (0..=mask).map(|i| init_word(0, i)).collect();
            let mut s = hart_seed(kseed, 0);
            for _ in 0..updates {
                xorshift(&mut s);
                t[(s & mask) as usize] ^= s;
            }
            t.iter()
                .enumerate()
                .all(|(i, &v)| load(0, TABLE + 8 * i as u64) == Some(v.wrapping_add(off)))
        }
        KernelKind::Is { keys } => {
            let mut b = [0u64; 256];
            let mut s = hart_seed(kseed, 0);
            for _ in 0..keys {
                xorshift(&mut s);
                b[(s & 255) as usize] += 1;
            }
            b.iter()
                .enumerate()
                .all(|(i, &v)| load(0, BUCKETS + 8 * i as u64) == Some(v.wrapping_add(off)))
        }
        KernelKind::Remote {
            log2_region,
            updates,
        } => {
            let mask = (1u64 << log2_region) - 1;
            let words = table_words(k.kind);
            let mut t: Vec<Vec<u64>> = (0..k.harts)
                .map(|pe| (0..words).map(|i| init_word(pe, i)).collect())
                .collect();
            for h in 0..k.harts {
                let mut s = hart_seed(kseed, h);
                for _ in 0..updates {
                    xorshift(&mut s);
                    let target = ((s >> 32) % k.harts as u64) as usize;
                    t[target][(h as u64 * (mask + 1) + (s & mask)) as usize] ^= s;
                }
            }
            t.iter().enumerate().all(|(pe, tab)| {
                tab.iter()
                    .enumerate()
                    .all(|(i, &v)| load(pe, TABLE + 8 * i as u64) == Some(v.wrapping_add(off)))
            })
        }
    }
}

/// One kernel run.
#[derive(Clone, Debug, Default)]
pub struct KernelRun {
    pub ok: bool,
    pub instret: u64,
    /// Modelled makespan.
    pub cycles: u64,
    pub run_s: f64,
    /// Host seconds to build and load the machine.
    pub build_s: f64,
    pub noc_transactions: u64,
    pub noc_bytes: u64,
    pub noc_peak: u64,
    pub olb_translated: u64,
}

/// Build, run and check one kernel; spans on `tracer` with request `req`.
pub fn run_kernel(
    k: &Kernel,
    kseed: u64,
    cost: CostConfig,
    exec: ExecMode,
    tracer: &Tracer,
    req: u64,
    plant: bool,
) -> KernelRun {
    let t = Instant::now();
    let mut m = tracer.span("xbgas_sim.Machine::new", None, Some(req), |_| {
        build(k, kseed, cost, exec)
    });
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let summary = tracer.span("xbgas_sim.Machine::run", None, Some(req), |_| m.run());
    let run_s = t.elapsed().as_secs_f64();
    let halted = summary.exit == RunExit::AllHalted;
    let ok = tracer.span("check", None, Some(req), |_| {
        halted && check(k, kseed, &m, plant)
    });
    let noc = m.noc_stats();
    KernelRun {
        ok,
        instret: summary.instret.iter().sum(),
        cycles: summary.makespan(),
        run_s,
        build_s,
        noc_transactions: noc.transactions,
        noc_bytes: noc.bytes,
        noc_peak: noc.peak_in_flight as u64,
        olb_translated: (0..k.harts)
            .map(|pe| m.olb_mut(pe).stats().translated)
            .sum(),
    }
}

/// The machine configuration of the timed runs: paper costs, block engine.
fn paper() -> (CostConfig, ExecMode) {
    (CostConfig::paper(), ExecMode::Block)
}

/// Times the kernels are assembled per run.
const ASSEMBLIES: usize = 9;

/// One round: a run of every kernel, by one worker.
struct Round {
    host_s: f64,
    /// Host seconds the round spent building its machines.
    build_s: f64,
    instret: u64,
}

struct Phase {
    runs: Vec<KernelRun>,
    /// Each worker's complete rounds.
    workers: Vec<Vec<Round>>,
    wall_s: f64,
}

impl Phase {
    /// Guest instructions per host second: each worker's rate over its
    /// median round, summed over workers, or the mean rate when no round
    /// completed.
    fn instr_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .workers
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let instret = w.iter().map(|r| r.instret).sum::<u64>() as f64;
                let times: Vec<f64> = w.iter().map(|r| r.host_s).collect();
                ratio(instret / w.len() as f64, median(&times))
            })
            .collect();
        if rates.is_empty() {
            let instret = self.runs.iter().map(|r| r.instret).sum::<u64>() as f64;
            return ratio(instret, self.wall_s);
        }
        rates.iter().sum()
    }

    fn rounds(&self) -> impl Iterator<Item = &Round> {
        self.workers.iter().flatten()
    }
}

/// Run kernels on one worker per host core until the budget is spent. A
/// worker takes whole rounds, numbered from a shared counter; kernel run
/// `j` is seeded from `j` alone, so which worker runs it does not matter.
///
/// One worker per core, not one thread: the host's speed wanders by
/// ±15% over tens of seconds, and partly per core. In six pairs of
/// concurrent single-threaded runs, one pinned to each core, each run
/// ranged ±14% around its median and the pair's sum ±8%.
fn run_phase(kernels: &[Kernel], seed: u64, budget: Budget, tracer: &Tracer, plant: bool) -> Phase {
    let (cost, exec) = paper();
    let per_round = kernels.len() as u64;
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let worker = || {
        let mut runs = Vec::new();
        let mut rounds = Vec::new();
        loop {
            let r = next.fetch_add(1, Ordering::Relaxed);
            let mut js = r * per_round..(r + 1) * per_round;
            match budget {
                // Seconds budgets stop on round boundaries, so every run
                // does the same mix of kernels.
                Budget::Seconds(s) => {
                    if r > 0 && start.elapsed().as_secs_f64() >= s {
                        break;
                    }
                }
                Budget::Ops(n) => js.end = js.end.min(n),
            }
            if js.is_empty() {
                break;
            }
            let t = Instant::now();
            let round: Vec<KernelRun> = js
                .map(|j| {
                    let k = &kernels[(j % per_round) as usize];
                    run_kernel(k, derive(seed, j), cost, exec, tracer, j, plant)
                })
                .collect();
            if round.len() == kernels.len() {
                rounds.push(Round {
                    host_s: t.elapsed().as_secs_f64(),
                    build_s: round.iter().map(|r| r.build_s).sum(),
                    instret: round.iter().map(|r| r.instret).sum(),
                });
            }
            runs.extend(round);
        }
        (runs, rounds)
    };
    let parts: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sys::nproc().max(1)).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel worker panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut p = Phase {
        runs: Vec::new(),
        workers: Vec::new(),
        wall_s,
    };
    for (runs, rounds) in parts {
        p.runs.extend(runs);
        p.workers.push(rounds);
    }
    p
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut assemble_s = Vec::new();
    let mut kernels = Vec::new();
    for _ in 0..ASSEMBLIES {
        let t = Instant::now();
        kernels = assemble_kernels();
        assemble_s.push(t.elapsed().as_secs_f64());
    }
    let kernels = &kernels;
    let tracer = Tracer::new(opts.trace);
    let p = run_phase(
        kernels,
        opts.seed,
        opts.budget,
        &tracer,
        opts.plant_wrong_reference,
    );
    let spans = tracer.finish();
    let instret = p.runs.iter().map(|r| r.instret).sum::<u64>();
    let cycles = p.runs.iter().map(|r| r.cycles).sum::<u64>() as f64;
    let run_s: f64 = p.runs.iter().map(|r| r.run_s).sum();
    let mut o = Outcome {
        attempted: p.runs.len() as u64,
        failed: p.runs.iter().filter(|r| !r.ok).count() as u64,
        ..Default::default()
    };
    o.end_to_end = vec![
        // Set-up: assembling the kernels, plus building and loading one
        // machine per kernel (a round's builds, median over rounds).
        metric(
            "setup_s",
            "s",
            median(&assemble_s) + median(&p.rounds().map(|r| r.build_s).collect::<Vec<_>>()),
        ),
        metric("peak_rss_mb", "MiB", sys::peak_rss_mib()),
        metric("host_ops_per_s", "1/s", p.instr_per_s()),
        metric("modelled_mops", "1/us", ratio(instret as f64, cycles / 1e3)),
    ];
    o.headline = vec![
        metric("sim_mips", "MIPS", ratio(instret as f64, run_s) / 1e6),
        metric("sim_ipc", "1/cycle", ratio(instret as f64, cycles)),
        metric("kernel_runs", "count", o.attempted as f64),
        metric("error_rate", "fraction", o.error_rate()),
    ];
    o.counts = vec![
        ("ops".into(), o.attempted),
        ("sim.instret".into(), instret),
        (
            "sim.noc.transactions".into(),
            p.runs.iter().map(|r| r.noc_transactions).sum(),
        ),
        (
            "sim.noc.bytes".into(),
            p.runs.iter().map(|r| r.noc_bytes).sum(),
        ),
        (
            "sim.noc.peak_in_flight".into(),
            p.runs.iter().map(|r| r.noc_peak).max().unwrap_or(0),
        ),
        (
            "sim.olb.translated".into(),
            p.runs.iter().map(|r| r.olb_translated).sum(),
        ),
    ];
    o.facts = vec![
        ("engine".into(), "xbgas-sim block".into()),
        ("setup_samples".into(), p.rounds().count().to_string()),
        ("engine_workers".into(), p.workers.len().to_string()),
    ];
    if opts.trace {
        let (layers, ledger) = traced_layers(opts.seed, kernels, &p, &spans);
        o.layers = layers;
        o.ledger = Some(ledger);
    }
    o.spans = spans;
    o
}

/// Simulator-layer metrics from one run of each kernel per engine and
/// cost configuration (the differencing runs), on `kernels` seeded from
/// `seed`.
fn sim_layers(kernels: &[Kernel], seed: u64) -> (Vec<Metric>, f64) {
    let quiet = Tracer::new(false);
    let asm = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(
                kernels
                    .iter()
                    .map(|k| assemble(0x1000, &source(k.kind)).map(|i| i.words.len()))
                    .collect::<Vec<_>>(),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect::<Vec<_>>();
    let mut paper = Vec::new();
    let (mut t_paper, mut t_func, mut t_interp) = (0.0, 0.0, 0.0);
    for (j, k) in kernels.iter().enumerate() {
        let kseed = derive(seed, j as u64);
        let p = run_kernel(
            k,
            kseed,
            CostConfig::paper(),
            ExecMode::Block,
            &quiet,
            0,
            false,
        );
        let f = run_kernel(
            k,
            kseed,
            CostConfig::functional(),
            ExecMode::Block,
            &quiet,
            0,
            false,
        );
        let i = run_kernel(
            k,
            kseed,
            CostConfig::paper(),
            ExecMode::Interp,
            &quiet,
            0,
            false,
        );
        t_paper += p.run_s;
        t_func += f.run_s;
        t_interp += i.run_s;
        paper.push(p);
    }
    let instret: u64 = paper.iter().map(|r| r.instret).sum();
    let cpi = |r: &KernelRun| ratio(r.cycles as f64, r.instret as f64);
    let remote = &paper[2];
    let share = 1.0 - ratio(t_func, t_paper);
    let layers = vec![
        metric(
            "sim.interp_mips",
            "MIPS",
            ratio(instret as f64, t_interp) / 1e6,
        ),
        metric(
            "sim.functional_mips",
            "MIPS",
            ratio(instret as f64, t_func) / 1e6,
        ),
        metric("sim.mem_model_share", "fraction", share),
        metric("sim.assemble_us", "us", median(&asm)),
        metric(
            "sim.noc.transactions",
            "count",
            remote.noc_transactions as f64,
        ),
        metric("sim.noc.bytes", "B", remote.noc_bytes as f64),
        metric("sim.noc.peak_in_flight", "count", remote.noc_peak as f64),
        metric("sim.olb.translated", "count", remote.olb_translated as f64),
        metric("sim.cpi.gups", "cycles", cpi(&paper[0])),
        metric("sim.cpi.is", "cycles", cpi(&paper[1])),
        metric("sim.cpi.remote", "cycles", cpi(remote)),
    ];
    (layers, share)
}

fn traced_layers(
    seed: u64,
    kernels: &[Kernel],
    p: &Phase,
    spans: &[spans::Span],
) -> (Vec<Metric>, Ledger) {
    let (mut layers, share) = sim_layers(kernels, seed);

    let round = |traced| {
        let n = Budget::Ops(kernels.len() as u64);
        run_phase(kernels, seed, n, &Tracer::new(traced), false).wall_s
    };
    layers.push(metric(
        "trace.overhead_frac",
        "fraction",
        paired_share(|| round(false), || round(true)),
    ));

    let run_s = spans::total_seconds(spans, "xbgas_sim.Machine::run");
    // Every worker is busy for the whole phase, so the spans sum to about
    // the phase's length times the workers.
    let worker_s = p.wall_s * p.workers.len() as f64;
    let mut ledger = Ledger::new("timed phase x workers", "s", worker_s);
    ledger.row(
        "xbgas_sim::Machine::new + table init",
        "span",
        spans::total_seconds(spans, "xbgas_sim.Machine::new"),
    );
    ledger.row(
        "xbgas_sim dispatch (block engine)",
        "span x (1 - mem_model_share)",
        run_s * (1.0 - share),
    );
    ledger.row(
        "xbgas_sim memory model (TLB/L1/L2/OLB/NoC)",
        "span x mem_model_share",
        run_s * share,
    );
    ledger.row(
        "host reference check",
        "span",
        spans::total_seconds(spans, "check"),
    );
    (
        layers,
        ledger.close("benchmark loop and idle workers (outside spans)"),
    )
}

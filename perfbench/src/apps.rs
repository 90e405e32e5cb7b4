//! `apps_paper`: the paper's headline runs, Fig. 4 GUPS and Fig. 5 NAS IS
//! at 8 PEs under paper timing with verification on, repeated until the
//! budget is spent. The seed drives the cooperative engine's scheduling;
//! the application inputs are the paper's.

use std::time::Instant;

use xbgas_apps::{run_gups, run_is, GupsConfig, GupsResult, IsConfig, IsResult};
use xbrtime::collectives::PlanCacheStats;
use xbrtime::{Fabric, FabricConfig, FabricStats, Pe, RunReport, TimingConfig};

use crate::spans::{self, Tracer};
use crate::stats::{mean, median, ratio};
use crate::{
    coll, derive, engine, metric, paired_share, probes, sys, Budget, Ledger, Metric, Outcome,
    RunOpts,
};

/// PEs of both runs (the largest point of Figs. 4 and 5).
pub const N_PES: usize = 8;

/// Fig. 4's configuration with the HPCC verification pass switched on.
pub fn gups_config() -> GupsConfig {
    GupsConfig {
        verify: true,
        ..GupsConfig::fig4(N_PES)
    }
}

/// Symmetric segment per PE of the GUPS fabric: its slice of the table
/// plus room for the runtime's own allocations.
fn gups_shared_bytes() -> usize {
    gups_config().table_bytes() / N_PES + (1 << 20)
}

/// What one application run measured.
#[derive(Default)]
struct AppRun {
    ok: bool,
    host_s: f64,
    /// Updates (GUPS) or keys ranked (IS), over all PEs.
    ops: u64,
    /// Modelled cycles of the timed loop (slowest PE).
    cycles: u64,
    errors: u64,
    remote_fraction: f64,
    stats: FabricStats,
    coll_stages: u64,
    coll_calls: u64,
    coll_cycles: u64,
    coll_wait_cycles: u64,
    pe_cycles: u64,
    plan: PlanCacheStats,
    grants: u64,
}

fn absorb<R>(run: &mut AppRun, report: &RunReport<R>) {
    coll::add_stats(&mut run.stats, &report.stats);
    for r in &report.collectives {
        run.coll_stages += r.stages;
        run.coll_calls += r.calls;
        run.coll_cycles += r.cycles;
        run.coll_wait_cycles += r.wait_cycles;
    }
    run.pe_cycles = report.cycles.iter().sum();
    run.plan = report.plan_cache.unwrap_or_default();
    run.grants = report.sched_log.len() as u64;
}

/// Run one application on a fresh fabric; rank 0's call is a span.
fn launch<R: Send>(
    cfg: FabricConfig,
    tracer: &Tracer,
    name: &'static str,
    app: impl Fn(&Pe) -> R + Sync,
) -> (Result<RunReport<R>, xbrtime::RunError>, f64) {
    let t = Instant::now();
    let res = tracer.span("fabric.run", None, None, |fid| {
        Fabric::try_run(cfg, |pe| {
            if pe.rank() == 0 {
                tracer.span(name, fid, None, |_| app(pe))
            } else {
                app(pe)
            }
        })
    });
    (res, t.elapsed().as_secs_f64())
}

/// The GUPS run's fabric.
fn gups_fabric(seed: u64, timing: TimingConfig) -> FabricConfig {
    FabricConfig {
        timing,
        ..FabricConfig::paper(N_PES)
    }
    .with_shared_bytes(gups_shared_bytes())
    .with_engine(engine(seed))
}

/// The IS run's fabric.
fn is_fabric(seed: u64, timing: TimingConfig) -> FabricConfig {
    let (total_keys, max_key) = IsConfig::fig5().class.sizes();
    let heap = (max_key * 8 + total_keys * 4 + (1 << 22)).max(16 << 20);
    FabricConfig {
        timing,
        ..FabricConfig::paper(N_PES)
    }
    .with_shared_bytes(heap)
    .with_engine(engine(seed))
}

/// Bring-ups of each application's fabric timed for `setup_s` before
/// each repetition. Spreading them over the whole timed phase, rather
/// than timing them in one burst before it, keeps a short stall of the
/// host from deciding the median.
const BRING_UPS_PER_REP: u64 = 4;

/// Host seconds of a fabric run with an empty body: bringing the PEs up
/// and tearing them down, which every application run pays on top of its
/// own work.
fn bring_up_s(cfg: FabricConfig, tracer: &Tracer) -> f64 {
    let t = Instant::now();
    tracer.span("fabric.run", None, None, |_| {
        let _ = Fabric::try_run(cfg, |pe| std::hint::black_box(pe.rank()));
    });
    t.elapsed().as_secs_f64()
}

fn gups_once(seed: u64, timing: TimingConfig, tracer: &Tracer, plant: bool) -> AppRun {
    let cfg = gups_config();
    let fc = gups_fabric(seed, timing);
    let (res, host_s) = launch(fc, tracer, "xbgas_apps.run_gups", |pe| run_gups(pe, &cfg));
    let mut run = AppRun {
        host_s,
        ops: (cfg.updates_per_pe * N_PES) as u64,
        ..Default::default()
    };
    match res {
        Ok(report) => {
            let rs: &[GupsResult] = &report.results;
            run.cycles = rs.iter().map(|r| r.cycles).max().unwrap_or(0);
            run.errors = rs.iter().map(|r| r.errors as u64).sum();
            run.remote_fraction = mean(&rs.iter().map(|r| r.remote_fraction).collect::<Vec<_>>());
            // HPCC accepts at most 1% of updates lost to races.
            run.ok = (run.errors * 100 <= run.ops) != plant;
            absorb(&mut run, &report);
        }
        Err(e) => eprintln!("apps_paper: GUPS failed: {e}"),
    }
    run
}

fn is_once(seed: u64, timing: TimingConfig, tracer: &Tracer, plant: bool) -> AppRun {
    let cfg = IsConfig::fig5();
    let (total_keys, _) = cfg.class.sizes();
    let fc = is_fabric(seed, timing);
    let (res, host_s) = launch(fc, tracer, "xbgas_apps.run_is", |pe| run_is(pe, &cfg));
    let mut run = AppRun {
        host_s,
        ops: (total_keys * cfg.iterations) as u64,
        ..Default::default()
    };
    match res {
        Ok(report) => {
            let rs: &[IsResult] = &report.results;
            run.cycles = rs.iter().map(|r| r.cycles).max().unwrap_or(0);
            run.ok = rs.iter().all(|r| r.verified) != plant;
            absorb(&mut run, &report);
        }
        Err(e) => eprintln!("apps_paper: IS failed: {e}"),
    }
    run
}

/// All repetitions of one phase.
#[derive(Default)]
struct Phase {
    gups: Vec<AppRun>,
    is: Vec<AppRun>,
    /// Bring-ups of GUPS's and of IS's fabric (see [`bring_up_s`]).
    gups_bring_up_s: Vec<f64>,
    is_bring_up_s: Vec<f64>,
    /// Host seconds of each repetition (one GUPS and one IS run).
    rep_s: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

impl Phase {
    fn all(&self) -> impl Iterator<Item = &AppRun> {
        self.gups.iter().chain(&self.is)
    }
    fn sum(&self, f: impl Fn(&AppRun) -> u64) -> u64 {
        self.all().map(f).sum()
    }
}

fn run_phase(
    seed: u64,
    budget: Budget,
    timing: TimingConfig,
    tracer: &Tracer,
    plant: bool,
) -> Phase {
    let mut p = Phase::default();
    let start = Instant::now();
    let cpu0 = sys::cpu_seconds();
    let mut rep = 0u64;
    loop {
        let done = match budget {
            Budget::Seconds(s) => rep > 0 && start.elapsed().as_secs_f64() >= s,
            Budget::Ops(n) => rep >= n,
        };
        if done {
            break;
        }
        for k in 0..BRING_UPS_PER_REP {
            let up = derive(seed ^ 0xB0, 2 * (rep * BRING_UPS_PER_REP + k));
            p.gups_bring_up_s
                .push(bring_up_s(gups_fabric(up, timing), tracer));
            p.is_bring_up_s
                .push(bring_up_s(is_fabric(up + 1, timing), tracer));
        }
        let t = Instant::now();
        p.gups
            .push(gups_once(derive(seed, 2 * rep), timing, tracer, plant));
        p.is.push(is_once(derive(seed, 2 * rep + 1), timing, tracer, plant));
        p.rep_s.push(t.elapsed().as_secs_f64());
        rep += 1;
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.cpu_s = sys::cpu_seconds() - cpu0;
    p
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let p = run_phase(
        opts.seed,
        opts.budget,
        TimingConfig::paper(),
        &tracer,
        opts.plant_wrong_reference,
    );
    let spans = tracer.finish();
    let updates = p.gups.iter().map(|r| r.ops).sum::<u64>() as f64;
    let keys = p.is.iter().map(|r| r.ops).sum::<u64>() as f64;
    let gups_cycles = p.gups.iter().map(|r| r.cycles).sum::<u64>() as f64;
    let is_cycles = p.is.iter().map(|r| r.cycles).sum::<u64>() as f64;
    let mut o = Outcome {
        attempted: p.all().count() as u64,
        failed: p.all().filter(|r| !r.ok).count() as u64,
        ..Default::default()
    };
    // Every repetition does the same work, so medians over repetitions
    // keep a transient host stall from moving the figures.
    let med =
        |runs: &[AppRun], f: fn(&AppRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let rep_ops = ratio(updates + keys, p.rep_s.len() as f64);
    o.end_to_end = vec![
        // The fabric bring-up and teardown of one GUPS and one IS run.
        metric(
            "setup_s",
            "s",
            median(&p.gups_bring_up_s) + median(&p.is_bring_up_s),
        ),
        metric("peak_rss_mb", "MiB", sys::peak_rss_mib()),
        metric("host_ops_per_s", "1/s", ratio(rep_ops, median(&p.rep_s))),
        metric(
            "modelled_mops",
            "1/us",
            ratio(updates + keys, (gups_cycles + is_cycles) / 1e3),
        ),
    ];
    o.headline = vec![
        metric("gups_mops_sim", "1/us", ratio(updates, gups_cycles / 1e3)),
        metric("is_mops_sim", "1/us", ratio(keys, is_cycles / 1e3)),
        metric(
            "gups_updates_per_s",
            "1/s",
            med(&p.gups, |r| r.ops as f64 / r.host_s),
        ),
        metric(
            "is_keys_per_s",
            "1/s",
            med(&p.is, |r| r.ops as f64 / r.host_s),
        ),
        metric("app_runs", "count", o.attempted as f64),
        metric("error_rate", "fraction", o.error_rate()),
    ];
    o.counts = vec![
        ("ops".into(), (updates + keys) as u64),
        ("fabric.puts".into(), p.sum(|r| r.stats.puts)),
        ("fabric.gets".into(), p.sum(|r| r.stats.gets)),
        (
            "fabric.bytes".into(),
            p.sum(|r| r.stats.bytes_put + r.stats.bytes_get),
        ),
        ("fabric.barriers".into(), p.sum(|r| r.stats.barriers)),
        ("fabric.signals".into(), p.sum(|r| r.stats.signals)),
        ("exec.stages".into(), p.sum(|r| r.coll_stages)),
        ("plan.hits".into(), p.sum(|r| r.plan.hits)),
        ("plan.misses".into(), p.sum(|r| r.plan.misses)),
    ];
    o.facts = vec![
        ("n_pes".into(), N_PES.to_string()),
        ("engine".into(), "coop".into()),
        (
            "engine_workers".into(),
            engine(opts.seed).resolved_workers(N_PES).to_string(),
        ),
    ];
    if opts.trace {
        let (layers, ledger) = traced_layers(opts.seed, &p, &spans);
        o.layers = layers;
        o.ledger = Some(ledger);
    }
    o.spans = spans;
    o
}

fn traced_layers(seed: u64, p: &Phase, spans: &[spans::Span]) -> (Vec<Metric>, Ledger) {
    let ops = (p.sum(|r| r.ops)).max(1) as f64;
    let per = |f: &dyn Fn(&AppRun) -> u64| p.sum(f) as f64 / ops;
    let hits = p.sum(|r| r.plan.hits) as f64;
    let lookups = hits + p.sum(|r| r.plan.misses) as f64;
    let resident = p.all().map(|r| r.plan.bytes).max().unwrap_or(0) as f64 / 1024.0;

    // The fabric and engine probes run at the applications' PE count on
    // GUPS's fabric. The applications' collective calls happen inside
    // `run_gups`/`run_is`, where the benchmark cannot time them, so the
    // policy, generator, lowering and executor probes are not run here.
    let fab = probes::fabric_probes(N_PES, gups_shared_bytes(), seed);
    let mut layers = vec![
        metric("fabric.barrier_us", "us", fab.barrier_us),
        metric("fabric.put_ns_8b", "ns", fab.put_ns_8b),
        metric("fabric.get_ns_8b", "ns", fab.get_ns_8b),
        metric("fabric.put_us_64k", "us", fab.put_us_64k),
        metric(
            "engine.spawn_ms",
            "ms",
            probes::spawn_ms(N_PES, gups_shared_bytes(), seed),
        ),
    ];

    // One repetition's GUPS and IS runs, without the set-up bring-ups.
    let rep = |timing, traced| {
        let p = run_phase(seed, Budget::Ops(1), timing, &Tracer::new(traced), false);
        p.rep_s.iter().sum::<f64>()
    };
    let timing_share = paired_share(
        || rep(TimingConfig::disabled(), false),
        || rep(TimingConfig::paper(), false),
    );
    let overhead = paired_share(
        || rep(TimingConfig::paper(), false),
        || rep(TimingConfig::paper(), true),
    );
    let updates = p.gups.iter().map(|r| r.ops).sum::<u64>().max(1) as f64;
    let keys = p.is.iter().map(|r| r.ops).sum::<u64>().max(1) as f64;
    let updates_per_pe = updates / N_PES as f64;
    let keys_per_pe = keys / N_PES as f64;
    layers.extend([
        metric("plan.hit_ratio", "fraction", ratio(hits, lookups)),
        metric("plan.resident_kib", "KiB", resident),
        metric(
            "exec.stages_per_call",
            "count",
            ratio(
                p.sum(|r| r.coll_stages) as f64,
                p.sum(|r| r.coll_calls) as f64,
            ),
        ),
        metric(
            "exec.wait_cycle_share",
            "fraction",
            ratio(
                p.sum(|r| r.coll_wait_cycles) as f64,
                p.sum(|r| r.coll_cycles) as f64,
            ),
        ),
        metric("fabric.puts_per_op", "count", per(&|r| r.stats.puts)),
        metric("fabric.gets_per_op", "count", per(&|r| r.stats.gets)),
        metric(
            "fabric.bytes_per_op",
            "B",
            per(&|r| r.stats.bytes_put + r.stats.bytes_get),
        ),
        metric(
            "fabric.barriers_per_op",
            "count",
            per(&|r| r.stats.barriers),
        ),
        metric("fabric.signals_per_op", "count", per(&|r| r.stats.signals)),
        metric(
            "fabric.remote_fraction",
            "fraction",
            mean(&p.gups.iter().map(|r| r.remote_fraction).collect::<Vec<_>>()),
        ),
        metric("fabric.timing_share", "fraction", timing_share),
        metric("engine.grants_per_op", "count", per(&|r| r.grants)),
        metric("engine.cpu_per_wall", "ratio", ratio(p.cpu_s, p.wall_s)),
        metric(
            "gups.cycles_per_update",
            "cycles",
            p.gups.iter().map(|r| r.cycles).sum::<u64>() as f64 / updates_per_pe,
        ),
        metric(
            "gups.race_error_frac",
            "fraction",
            p.gups.iter().map(|r| r.errors).sum::<u64>() as f64 / updates,
        ),
        metric(
            "is.cycles_per_key",
            "cycles",
            p.is.iter().map(|r| r.cycles).sum::<u64>() as f64 / keys_per_pe,
        ),
        metric(
            "apps.coll_cycle_share",
            "fraction",
            ratio(
                p.sum(|r| r.coll_cycles) as f64,
                p.sum(|r| r.pe_cycles) as f64,
            ),
        ),
        metric("trace.overhead_frac", "fraction", overhead),
    ]);

    let run_s = spans::total_seconds(spans, "fabric.run");
    let mut ledger = Ledger::new("timed phase", "s", p.wall_s);
    ledger.row(
        "engine + fabric bring-up and teardown",
        "span self time",
        spans::self_seconds(spans, "fabric.run"),
    );
    ledger.row(
        "xbgas_apps::run_gups",
        "span",
        spans::total_seconds(spans, "xbgas_apps.run_gups"),
    );
    ledger.row(
        "xbgas_apps::run_is",
        "span",
        spans::total_seconds(spans, "xbgas_apps.run_is"),
    );
    let mut ledger = ledger.close("benchmark loop and checks (outside spans)");
    ledger.notes.push(format!(
        "of the {run_s:.3} s inside fabrics, the timing model takes ~{:.0}% (differencing)",
        timing_share * 100.0
    ));
    (layers, ledger)
}

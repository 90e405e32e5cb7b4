//! Output: the result line (the last line of stdout), a human table on
//! stderr, and the result and span files.

use xbgas_bench::json::Json;

use crate::spans::{self_time_by_name, Span};
use crate::{Metric, Outcome};

/// The gated end-to-end metrics, in `BENCHMARK.json` order. Every workload
/// reports each of them; an "op" is a collective call (`coll_*`), a GUPS
/// update or IS key (`apps_paper`), or a guest instruction
/// (`sim_kernels`).
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "host_ops_per_s", "modelled_mops"];

/// The per-layer metrics with their units, in `BENCHMARK.json` order.
/// Every traced run reports each of them: a metric the workload does not
/// measure reads 0 (see [`crate::Outcome::zero_unmeasured_layers`]).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("policy.resolve_ns", "ns"),
    ("schedule.gen_us", "us"),
    ("schedule.ops_per_call", "count"),
    ("plan.lower_us", "us"),
    ("plan.lookup_ns", "ns"),
    ("plan.hit_ratio", "fraction"),
    ("plan.resident_kib", "KiB"),
    ("exec.residual_us", "us"),
    ("exec.stages_per_call", "count"),
    ("exec.wait_cycle_share", "fraction"),
    ("fabric.puts_per_op", "count"),
    ("fabric.gets_per_op", "count"),
    ("fabric.bytes_per_op", "B"),
    ("fabric.barriers_per_op", "count"),
    ("fabric.signals_per_op", "count"),
    ("fabric.barrier_us", "us"),
    ("fabric.put_ns_8b", "ns"),
    ("fabric.get_ns_8b", "ns"),
    ("fabric.put_us_64k", "us"),
    ("fabric.remote_fraction", "fraction"),
    ("fabric.timing_share", "fraction"),
    ("engine.spawn_ms", "ms"),
    ("engine.grants_per_op", "count"),
    ("engine.cpu_per_wall", "ratio"),
    ("gups.cycles_per_update", "cycles"),
    ("gups.race_error_frac", "fraction"),
    ("is.cycles_per_key", "cycles"),
    ("apps.coll_cycle_share", "fraction"),
    ("sim.interp_mips", "MIPS"),
    ("sim.functional_mips", "MIPS"),
    ("sim.mem_model_share", "fraction"),
    ("sim.assemble_us", "us"),
    ("sim.noc.transactions", "count"),
    ("sim.noc.bytes", "B"),
    ("sim.noc.peak_in_flight", "count"),
    ("sim.olb.translated", "count"),
    ("sim.cpi.gups", "cycles"),
    ("sim.cpi.is", "cycles"),
    ("sim.cpi.remote", "cycles"),
    ("trace.overhead_frac", "fraction"),
];

/// A JSON number; a non-finite value (which JSON cannot hold) becomes 0.
fn num(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { 0.0 })
}

/// The metrics the result line carries, in `BENCHMARK.json` order.
///
/// # Panics
/// If the workload did not produce one of them (a benchmark bug).
pub fn selected(o: &Outcome, trace: bool) -> Vec<&Metric> {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    let pool = if trace { &o.layers } else { &o.end_to_end };
    names
        .iter()
        .map(|n| {
            pool.iter()
                .find(|m| m.name == *n)
                .unwrap_or_else(|| panic!("workload did not report metric {n}"))
        })
        .collect()
}

/// The last line of standard output.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let metrics = selected(o, trace)
        .into_iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", num(m.value)), ("unit", Json::Str(m.unit.into()))]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(o.failed == 0)),
        ("attempted".into(), Json::Int(o.attempted as i128)),
        ("failed".into(), Json::Int(o.failed as i128)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    line.pretty()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

fn metric_rows(out: &mut String, title: &str, ms: &[Metric]) {
    if ms.is_empty() {
        return;
    }
    out.push_str(&format!("  {title}\n"));
    for m in ms {
        out.push_str(&format!(
            "    {:<28} {:>16.6} {}\n",
            m.name, m.value, m.unit
        ));
    }
}

/// Human-readable report of one workload run.
pub fn human(workload: &str, o: &Outcome) -> String {
    let mut out = format!(
        "== {workload}: attempted {} failed {} error_rate {:.6}\n",
        o.attempted,
        o.failed,
        o.error_rate()
    );
    metric_rows(&mut out, "headline", &o.headline);
    metric_rows(&mut out, "end to end (gated)", &o.end_to_end);
    metric_rows(&mut out, "per layer", &o.layers);
    if let Some(l) = &o.ledger {
        out.push_str(&format!(
            "  ledger: {} = {:.6} {}\n",
            l.measured_name, l.measured, l.unit
        ));
        for r in &l.rows {
            let share = if l.measured != 0.0 {
                r.value / l.measured * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "    {:<44} {:>14.6} {:<3} {:>6.1}%  ({})\n",
                r.layer, r.value, l.unit, share, r.source
            ));
        }
        for n in &l.notes {
            out.push_str(&format!("    note: {n}\n"));
        }
    }
    if !o.spans.is_empty() {
        out.push_str("  span self time by layer\n");
        for (name, secs, count) in self_time_by_name(&o.spans) {
            out.push_str(&format!(
                "    {name:<36} {secs:>12.6} s  {count:>8} spans\n"
            ));
        }
    }
    out
}

/// Facts about the run that every result file carries.
pub struct RunMeta {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
}

fn metric_obj(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", num(m.value)), ("unit", Json::Str(m.unit.into()))]),
                )
            })
            .collect(),
    )
}

/// The result file: run record, every metric, ledger and exact counts.
pub fn result_file(meta: &RunMeta, o: &Outcome) -> String {
    let mut run = vec![
        ("workload".to_string(), Json::Str(meta.workload.clone())),
        ("seed".into(), Json::Int(meta.seed as i128)),
        ("seconds".into(), Json::Int(meta.seconds as i128)),
        ("trace".into(), Json::Bool(meta.trace)),
        ("git_rev".into(), Json::Str(meta.git_rev.clone())),
        ("rustc".into(), Json::Str(meta.rustc.clone())),
        ("nproc".into(), Json::Int(meta.nproc as i128)),
    ];
    run.extend(
        o.facts
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
    );
    let ledger = o.ledger.as_ref().map_or(Json::Null, |l| {
        Json::obj([
            ("measured", Json::Str(l.measured_name.clone())),
            ("unit", Json::Str(l.unit.into())),
            ("value", num(l.measured)),
            (
                "rows",
                Json::Arr(
                    l.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("layer", Json::Str(r.layer.clone())),
                                ("source", Json::Str(r.source.into())),
                                ("value", num(r.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(l.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ])
    });
    Json::obj([
        ("run", Json::Obj(run)),
        ("attempted", Json::Int(o.attempted as i128)),
        ("failed", Json::Int(o.failed as i128)),
        ("error_rate", num(o.error_rate())),
        ("headline", metric_obj(&o.headline)),
        ("end_to_end", metric_obj(&o.end_to_end)),
        ("per_layer", metric_obj(&o.layers)),
        ("ledger", ledger),
        (
            "counts",
            Json::Obj(
                o.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Int(*v as i128)))
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

/// The span file: every span of the traced run.
pub fn span_file(meta: &RunMeta, spans: &[Span]) -> String {
    let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::Int(x as i128));
    Json::obj([
        ("workload", Json::Str(meta.workload.clone())),
        ("seed", Json::Int(meta.seed as i128)),
        ("git_rev", Json::Str(meta.git_rev.clone())),
        ("time_unit", Json::Str("ns".into())),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::Int(s.id as i128)),
                            ("parent", opt(s.parent.map(u64::from))),
                            ("name", Json::Str(s.name.into())),
                            ("start", Json::Int(s.start_ns as i128)),
                            ("end", Json::Int(s.end_ns as i128)),
                            ("req", opt(s.req)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

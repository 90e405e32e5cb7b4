//! The repository's benchmark: four workloads that each stress a
//! different part of the stack, end-to-end metrics measured with tracing
//! off, and a separate traced run that splits each workload by layer.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; the library receives only the inputs generated here from
//! the workload seed. See `NOTES.md` for why each workload exists and
//! which metric each layer should move.

pub mod apps;
pub mod coll;
pub mod probes;
pub mod report;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod sys;

use spans::Span;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["coll_small", "coll_bulk", "apps_paper", "sim_kernels"];

/// Every runtime workload runs on the cooperative engine with one worker
/// per host core: PE threads outnumber cores, so the thread backend would
/// measure the OS scheduler.
pub fn engine(seed: u64) -> xbrtime::EngineConfig {
    xbrtime::EngineConfig::coop()
        .with_workers(0)
        .with_seed(seed)
}

/// How long a workload's timed phase lasts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Until this many host seconds have passed.
    Seconds(f64),
    /// Exactly this many ops (the tests use it for exact counts).
    Ops(u64),
}

/// Inputs to one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed phase, split evenly over the set-ups.
    pub budget: Budget,
    /// Record spans and run the layer probes.
    pub trace: bool,
    /// Compare outputs against a deliberately wrong reference (tests only).
    pub plant_wrong_reference: bool,
}

impl RunOpts {
    /// A plain untraced run.
    pub fn new(seed: u64, budget: Budget) -> Self {
        RunOpts {
            seed,
            budget,
            trace: false,
            plant_wrong_reference: false,
        }
    }
}

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// One row of a workload's ledger: a layer's share of the measured time.
#[derive(Clone, Debug)]
pub struct LedgerRow {
    pub layer: String,
    /// How the row was obtained (span, probe × count, differencing).
    pub source: &'static str,
    pub value: f64,
}

/// A ledger: rows that sum to `measured`, the last one the residual.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    pub measured_name: String,
    pub unit: &'static str,
    pub measured: f64,
    pub rows: Vec<LedgerRow>,
    /// Cross-cutting observations that are not rows (they overlap rows).
    pub notes: Vec<String>,
}

impl Ledger {
    /// Start a ledger for a measured quantity.
    pub fn new(measured_name: &str, unit: &'static str, measured: f64) -> Self {
        Ledger {
            measured_name: measured_name.to_string(),
            unit,
            measured,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add an explained row.
    pub fn row(&mut self, layer: &str, source: &'static str, value: f64) {
        self.rows.push(LedgerRow {
            layer: layer.to_string(),
            source,
            value,
        });
    }

    /// Close the ledger with the unexplained remainder, so the rows sum
    /// to the measured value exactly.
    pub fn close(mut self, residual_layer: &str) -> Self {
        let explained: f64 = self.rows.iter().map(|r| r.value).sum();
        let residual = self.measured - explained;
        self.row(residual_layer, "residual", residual);
        self
    }
}

/// Everything one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Checked units attempted (collective calls, application runs,
    /// kernel runs).
    pub attempted: u64,
    /// Checked units whose output did not match the reference, or whose
    /// fabric deadlocked or panicked.
    pub failed: u64,
    /// The gated end-to-end metrics (`BENCHMARK.json` `end_to_end`).
    pub end_to_end: Vec<Metric>,
    /// The workload's own headline metrics under their specific names
    /// (`coll_per_s`, `gups_mops_sim`, `sim_ipc`, …).
    pub headline: Vec<Metric>,
    /// Per-layer metrics; filled by traced runs only.
    pub layers: Vec<Metric>,
    /// Per-layer time ledger; traced runs only.
    pub ledger: Option<Ledger>,
    /// Counts that must repeat exactly for the same seed and op budget.
    pub counts: Vec<(String, u64)>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
    /// Free-form facts for the result file (engine workers, probe inputs).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Report 0 for every per-layer metric the workload did not measure,
    /// because it does not enter that layer or cannot time it from
    /// outside, and name them in the facts.
    pub fn zero_unmeasured_layers(&mut self) {
        let mut unmeasured = Vec::new();
        for (name, unit) in report::PER_LAYER {
            if !self.layers.iter().any(|m| m.name == name) {
                self.layers.push(metric(name, unit, 0.0));
                unmeasured.push(name);
            }
        }
        self.facts
            .push(("layers_not_measured".into(), unmeasured.join(" ")));
    }

    /// Look up an exact count by name.
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Run one workload by name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let mut o = match name {
        "coll_small" => coll::run(&coll::COLL_SMALL, opts),
        "coll_bulk" => coll::run(&coll::COLL_BULK, opts),
        "apps_paper" => apps::run(opts),
        "sim_kernels" => sim::run(opts),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    if opts.trace {
        o.zero_unmeasured_layers();
    }
    Ok(o)
}

/// Alternating pairs behind each differencing metric.
const DIFF_PAIRS: usize = 3;

/// `1 − median(a) / median(b)` over alternating runs of `a` and `b`, each
/// returning host seconds for the same work: the share of `b`'s time that
/// `a` does not spend. Alternating and taking medians keeps a host stall
/// during one run from deciding the figure.
pub fn paired_share(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> f64 {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..DIFF_PAIRS {
        ta.push(a());
        tb.push(b());
    }
    1.0 - stats::ratio(stats::median(&ta), stats::median(&tb))
}

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive an independent stream seed for item `i` of a seeded sequence.
pub fn derive(seed: u64, i: u64) -> u64 {
    mix64(seed ^ mix64(i.wrapping_add(0x5EED)))
}

//! The deterministic interleaving explorer and the mutation harnesses.
//!
//! The oracle in [`verify`](crate::collectives::verify) checks one
//! interleaving; this module drives the same lowered plans through
//! *many*. Everything is single-threaded and cooperative — a scheduler
//! picks which PE steps next from the enabled set — so every ordering
//! bug reproduces from `(seed, config)` alone, with no wall-clock or
//! platform dependence anywhere in the loop:
//!
//! * [`RoundRobin`] — the canonical fair interleaving;
//! * [`RandomPriority`] — a PCT-style randomised-priority scheduler
//!   driven by [`SplitMix64`], whose `u64`-only arithmetic makes the
//!   schedule stream identical on every platform;
//! * [`explore_exhaustive`] — depth-first enumeration of *all*
//!   interleavings (with state-hash memoisation), feasible for the
//!   model-checking configurations CI runs (`n_pes ≤ 4`, a few
//!   elements).
//!
//! The mutation harnesses close the loop on the oracle itself. Schedule
//! mutants ([`run_mutation_harness`]) each break one real dependency
//! between ops; plan mutants ([`run_plan_mutation_harness`]) each break
//! one protocol edge of the executed steps — a dropped wait, a read
//! hoisted above its wait, two chunk puts merged under one signal. Both
//! are conflict-analysed so that equivalent mutants are not generated,
//! and the oracle must flag every one — a surviving mutant means a
//! dependency class the checks cannot see.

use std::collections::HashSet;

use crate::collectives::plan::PlanStep;
use crate::collectives::policy::SyncMode;
use crate::collectives::schedule::{CommSchedule, OpKind, TransferOp};
use crate::collectives::verify::{
    check_program, compare, run_with, step_clocks, step_signal, step_windows, CollectiveSpec,
    ConformanceReport, DeadlockInfo, Loc, Machine, Mismatch, ModelConfig, Program, Space,
};
use crate::timing::SplitMix64;

// ---------------------------------------------------------------------------
// Schedulers.
// ---------------------------------------------------------------------------

/// A deterministic interleaving policy: given the enabled ranks, pick
/// which PE steps next.
pub trait Scheduler {
    /// Choose one rank from `enabled` (never empty).
    fn pick(&mut self, enabled: &[usize]) -> usize;
    /// Human-readable identity for reports.
    fn describe(&self) -> String;
}

/// Fair rotation through the enabled set.
#[derive(Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        let pe = enabled[self.cursor % enabled.len()];
        self.cursor = self.cursor.wrapping_add(1);
        pe
    }

    fn describe(&self) -> String {
        "round-robin".into()
    }
}

/// PCT-style randomised priorities: each PE carries a random priority,
/// the highest-priority enabled PE runs, and priorities are occasionally
/// reshuffled at points drawn from the same stream. All decisions come
/// from a [`SplitMix64`] stream of `u64`s, so a `(seed, n_pes)` pair
/// produces the identical interleaving on every platform (golden-seed
/// pinned in `tests/conformance.rs`).
pub struct RandomPriority {
    seed: u64,
    rng: SplitMix64,
    prio: Vec<u64>,
}

impl RandomPriority {
    /// Scheduler for a world of `n_pes`, fully determined by `seed`.
    pub fn new(seed: u64, n_pes: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let prio = (0..n_pes).map(|_| rng.next_u64()).collect();
        RandomPriority { seed, rng, prio }
    }
}

impl Scheduler for RandomPriority {
    fn pick(&mut self, enabled: &[usize]) -> usize {
        // Priority change point roughly every 16 picks.
        if self.rng.pick(16) == 0 {
            let pe = self.rng.pick(self.prio.len() as u64) as usize;
            self.prio[pe] = self.rng.next_u64();
        }
        *enabled
            .iter()
            .max_by_key(|&&pe| (self.prio[pe], pe))
            .expect("pick from an empty enabled set")
    }

    fn describe(&self) -> String {
        format!("random-priority(seed={:#x})", self.seed)
    }
}

/// Lower `sched` under `sync` and run one full interleaving of the plan
/// chosen by `scheduler`, with the vector-clock plane attached.
pub fn check_with_scheduler(
    sched: &CommSchedule,
    sync: SyncMode,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
    scheduler: &mut dyn Scheduler,
) -> ConformanceReport {
    let prog = Program::new(sched, sync, cfg);
    run_with(&prog, spec, |enabled| scheduler.pick(enabled))
}

// ---------------------------------------------------------------------------
// Exhaustive exploration.
// ---------------------------------------------------------------------------

/// Bounds for the exhaustive explorer.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Visited-state budget; exceeding it sets
    /// [`ExploreOutcome::truncated`] instead of silently passing.
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 500_000,
        }
    }
}

/// How one explored interleaving failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// No PE could step but the programs had not completed.
    Deadlock(DeadlockInfo),
    /// A completed interleaving disagreed with the dense reference.
    Mismatch(Vec<Mismatch>),
    /// A completed interleaving left signal slots raised, as
    /// `(pe, slot)`.
    StrandedSignals(Vec<(usize, usize)>),
}

/// A failing interleaving, with the PE choice sequence that reproduces
/// it step for step.
#[derive(Clone, Debug)]
pub struct ExploreFailure {
    /// What went wrong.
    pub kind: FailureKind,
    /// The scheduler decisions leading to the failure.
    pub trace: Vec<usize>,
}

/// Result of an exhaustive exploration.
pub struct ExploreOutcome {
    /// Concrete sync mode explored.
    pub sync: SyncMode,
    /// Distinct states visited.
    pub states: usize,
    /// Complete interleavings reaching the final state.
    pub complete_runs: usize,
    /// Set when the state budget ran out before the space was covered.
    pub truncated: bool,
    /// First failure found, if any.
    pub failure: Option<ExploreFailure>,
}

impl ExploreOutcome {
    /// `true` when the whole space was covered and every interleaving
    /// conformed. A truncated run is *not* ok — a pass must mean the
    /// space was actually exhausted.
    pub fn ok(&self) -> bool {
        self.failure.is_none() && !self.truncated
    }

    /// One-line summary for harness tables.
    pub fn summary(&self) -> String {
        match &self.failure {
            Some(f) => {
                let what = match &f.kind {
                    FailureKind::Deadlock(d) => format!("deadlock ({} blocked)", d.blocked.len()),
                    FailureKind::Mismatch(m) => format!("{} mismatches", m.len()),
                    FailureKind::StrandedSignals(s) => format!("{} stranded signals", s.len()),
                };
                format!(
                    "{what} after {} states, trace len {}",
                    self.states,
                    f.trace.len()
                )
            }
            None if self.truncated => format!("truncated at {} states", self.states),
            None => format!(
                "ok ({} states, {} complete runs, {})",
                self.states,
                self.complete_runs,
                self.sync.name()
            ),
        }
    }
}

struct Frame {
    m: Machine,
    enabled: Vec<usize>,
    next: usize,
    led_by: Option<usize>,
}

/// Depth-first enumeration of every interleaving of `sched`'s plan under
/// `sync`, memoised on the functional state hash. Each complete run is
/// checked against `spec` and the all-slots-clear invariant; any wedged
/// state is reported as a deadlock with its reproducing trace.
pub fn explore_exhaustive(
    sched: &CommSchedule,
    sync: SyncMode,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
    ecfg: &ExploreConfig,
) -> ExploreOutcome {
    explore_program(&Program::new(sched, sync, cfg), spec, ecfg)
}

/// [`explore_exhaustive`] over an already lowered (or mutated) program.
pub fn explore_program(
    prog: &Program,
    spec: &CollectiveSpec,
    ecfg: &ExploreConfig,
) -> ExploreOutcome {
    let exp = prog.expectation(spec);
    let mut visited: HashSet<u64> = HashSet::new();
    let mut complete_runs = 0usize;
    let mut truncated = false;

    let m0 = Machine::new(prog);
    let trace_of = |stack: &[Frame], last: usize| -> Vec<usize> {
        let mut t: Vec<usize> = stack.iter().filter_map(|f| f.led_by).collect();
        t.push(last);
        t
    };

    let mut stack = Vec::new();
    if !m0.all_done(prog) {
        let enabled = m0.enabled(prog);
        if enabled.is_empty() {
            let info = m0.deadlock_info(prog);
            return ExploreOutcome {
                sync: prog.sync,
                states: 1,
                complete_runs: 0,
                truncated: false,
                failure: Some(ExploreFailure {
                    kind: FailureKind::Deadlock(info),
                    trace: Vec::new(),
                }),
            };
        }
        visited.insert(m0.state_hash());
        stack.push(Frame {
            m: m0,
            enabled,
            next: 0,
            led_by: None,
        });
    } else {
        complete_runs = 1;
    }

    while let Some(top) = stack.last_mut() {
        if top.next >= top.enabled.len() {
            stack.pop();
            continue;
        }
        let pe = top.enabled[top.next];
        top.next += 1;
        let mut m = top.m.clone();
        m.step(prog, pe, None);

        if m.all_done(prog) {
            complete_runs += 1;
            let stranded = m.stranded_slots();
            if !stranded.is_empty() {
                let trace = trace_of(&stack, pe);
                return failure_outcome(
                    prog,
                    visited.len(),
                    complete_runs,
                    FailureKind::StrandedSignals(stranded),
                    trace,
                );
            }
            let mismatches = compare(&m, &exp);
            if !mismatches.is_empty() {
                let trace = trace_of(&stack, pe);
                return failure_outcome(
                    prog,
                    visited.len(),
                    complete_runs,
                    FailureKind::Mismatch(mismatches),
                    trace,
                );
            }
            continue;
        }

        if !visited.insert(m.state_hash()) {
            continue;
        }
        if visited.len() > ecfg.max_states {
            truncated = true;
            break;
        }
        let enabled = m.enabled(prog);
        if enabled.is_empty() {
            let info = m.deadlock_info(prog);
            let trace = trace_of(&stack, pe);
            return failure_outcome(
                prog,
                visited.len(),
                complete_runs,
                FailureKind::Deadlock(info),
                trace,
            );
        }
        stack.push(Frame {
            m,
            enabled,
            next: 0,
            led_by: Some(pe),
        });
    }

    ExploreOutcome {
        sync: prog.sync,
        states: visited.len(),
        complete_runs,
        truncated,
        failure: None,
    }
}

fn failure_outcome(
    prog: &Program,
    states: usize,
    complete_runs: usize,
    kind: FailureKind,
    trace: Vec<usize>,
) -> ExploreOutcome {
    ExploreOutcome {
        sync: prog.sync,
        states,
        complete_runs,
        truncated: false,
        failure: Some(ExploreFailure { kind, trace }),
    }
}

/// Replay a recorded failure trace and return the resulting report —
/// the reproducibility half of the explorer's contract: a failure is
/// identified by `(schedule, sync, config, trace)` alone.
pub fn replay_trace(
    sched: &CommSchedule,
    sync: SyncMode,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
    trace: &[usize],
) -> ConformanceReport {
    let prog = Program::new(sched, sync, cfg);
    let mut i = 0usize;
    run_with(&prog, spec, |enabled| {
        let pe = trace.get(i).copied().unwrap_or(enabled[0]);
        i += 1;
        if enabled.contains(&pe) {
            pe
        } else {
            enabled[0]
        }
    })
}

// ---------------------------------------------------------------------------
// Mutation harness.
// ---------------------------------------------------------------------------

/// One schedule mutation: a single dropped or reordered dependency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Move `stages[stage].ops[op]` into the previous stage, erasing the
    /// inter-stage dependency edge that ordered it.
    Hoist {
        /// Stage the op is hoisted out of.
        stage: usize,
        /// Op index within that stage.
        op: usize,
    },
    /// Swap adjacent stages `stage` and `stage + 1`, reversing every
    /// dependency between them.
    SwapStages {
        /// The earlier of the two swapped stages.
        stage: usize,
    },
    /// Concatenate stage `stage + 1` onto `stage`, dropping the barrier
    /// or signal edges between them.
    MergeStages {
        /// The stage merged into.
        stage: usize,
    },
    /// Clear a stage's `deferred_fold` flag, dropping the read-ack edges
    /// that let partners exchange segments symmetrically.
    Undefer {
        /// The deferred stage.
        stage: usize,
    },
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mutation::Hoist { stage, op } => write!(f, "hoist stage {stage} op {op}"),
            Mutation::SwapStages { stage } => write!(f, "swap stages {stage}/{}", stage + 1),
            Mutation::MergeStages { stage } => write!(f, "merge stages {stage}/{}", stage + 1),
            Mutation::Undefer { stage } => write!(f, "undefer stage {stage}"),
        }
    }
}

/// Apply `m` to a copy of `sched`.
pub fn apply_mutation(sched: &CommSchedule, m: &Mutation) -> CommSchedule {
    let mut out = sched.clone();
    match *m {
        Mutation::Hoist { stage, op } => {
            let moved = out.stages[stage].ops.remove(op);
            out.stages[stage - 1].ops.push(moved);
        }
        Mutation::SwapStages { stage } => out.stages.swap(stage, stage + 1),
        Mutation::MergeStages { stage } => {
            let tail = out.stages.remove(stage + 1);
            out.stages[stage].ops.extend(tail.ops);
        }
        Mutation::Undefer { stage } => out.stages[stage].deferred_fold = false,
    }
    out
}

#[derive(Clone, Copy)]
struct Region {
    space: Space,
    pe: usize,
    start: usize,
    end: usize,
    write: bool,
    /// A fold's read-modify-write accumulator window. Two accumulator
    /// accesses commute (multiset merge), so acc↔acc overlap is not an
    /// ordering dependency.
    acc: bool,
}

impl Region {
    fn overlaps(&self, o: &Region) -> bool {
        self.space == o.space && self.pe == o.pe && self.start < o.end && o.start < self.end
    }
}

/// Element regions one op touches, conservatively spanning strided
/// windows and tagged read/write/accumulator.
fn accesses(op: &TransferOp) -> Vec<Region> {
    let span = op.span();
    let me = op.issuer();
    let reg = |space: Space, pe: usize, at: usize, write: bool, acc: bool| Region {
        space,
        pe,
        start: at,
        end: at + span,
        write,
        acc,
    };
    match op.kind {
        OpKind::Put | OpKind::Get => vec![
            reg(Space::Sym, op.src_pe, op.src_at, false, false),
            reg(Space::Sym, op.dst_pe, op.dst_at, true, false),
        ],
        OpKind::PutFrom | OpKind::PutNb => vec![
            reg(Space::LocalSrc, me, op.src_at, false, false),
            reg(Space::Sym, op.dst_pe, op.dst_at, true, false),
        ],
        OpKind::GetInto => vec![
            reg(Space::Sym, op.src_pe, op.src_at, false, false),
            reg(Space::LocalDst, me, op.dst_at, true, false),
        ],
        OpKind::GetFold => vec![
            reg(Space::Sym, op.src_pe, op.src_at, false, false),
            reg(Space::Sym, me, op.dst_at, true, true),
        ],
        OpKind::GetFoldInto => vec![
            reg(Space::Sym, op.src_pe, op.src_at, false, false),
            reg(Space::LocalDst, me, op.dst_at, true, true),
        ],
    }
}

/// `true` when reordering `a` against `b` can change an outcome: some
/// write of one overlaps an access of the other, excluding
/// accumulator↔accumulator pairs — folds into a shared destination
/// commute under the multiset merge, so swapping two such stages yields
/// an equivalent schedule, not a broken one.
fn conflicts(a: &TransferOp, b: &TransferOp) -> bool {
    if a.nelems == 0 || b.nelems == 0 {
        return false;
    }
    let ra = accesses(a);
    let rb = accesses(b);
    ra.iter().any(|x| {
        rb.iter()
            .any(|y| x.overlaps(y) && (x.write || y.write) && !(x.acc && y.acc))
    })
}

/// Derive the dependency-breaking mutants of `sched`. Only mutations
/// that sever a *real* cross-PE ordering edge are produced — a hoist or
/// merge whose conflicting ops share an issuer keeps program order and
/// would survive legitimately, so it is filtered out; a swap reverses
/// even same-issuer dependencies, so those stay in.
pub fn generate_mutations(sched: &CommSchedule) -> Vec<Mutation> {
    let mut out = Vec::new();
    let stages = &sched.stages;
    for s in 0..stages.len() {
        if s + 1 < stages.len() {
            // Two adjacent deferred stages are butterfly dimensions:
            // each is a complete symmetric exchange, so their order only
            // permutes merge operands — swapping them is equivalent.
            let both_deferred = stages[s].deferred_fold && stages[s + 1].deferred_fold;
            let cross = stages[s]
                .ops
                .iter()
                .any(|a| stages[s + 1].ops.iter().any(|b| conflicts(a, b)));
            if cross && !both_deferred {
                out.push(Mutation::SwapStages { stage: s });
            }
            if !stages[s].deferred_fold && !stages[s + 1].deferred_fold {
                let cross_pe = stages[s].ops.iter().any(|a| {
                    stages[s + 1]
                        .ops
                        .iter()
                        .any(|b| a.issuer() != b.issuer() && conflicts(a, b))
                });
                if cross_pe {
                    out.push(Mutation::MergeStages { stage: s });
                }
            }
        }
        if s > 0 && !stages[s].deferred_fold && !stages[s - 1].deferred_fold {
            for (oi, op) in stages[s].ops.iter().enumerate() {
                let dep = stages[s - 1]
                    .ops
                    .iter()
                    .any(|b| b.issuer() != op.issuer() && conflicts(op, b));
                if dep {
                    out.push(Mutation::Hoist { stage: s, op: oi });
                }
            }
        }
        if stages[s].deferred_fold {
            let ops = &stages[s].ops;
            let cross = ops.iter().enumerate().any(|(i, a)| {
                ops.iter()
                    .enumerate()
                    .any(|(j, b)| i != j && a.issuer() != b.issuer() && conflicts(a, b))
            });
            if cross {
                out.push(Mutation::Undefer { stage: s });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Plan-level mutants.
// ---------------------------------------------------------------------------

/// One plan mutation: a single protocol defect injected into one PE's
/// lowered step program — the encoding the runtime executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanMutation {
    /// Delete `per_pe[pe].steps[step]`, a `Wait`, together with the
    /// raise of its slot: a `Post` is deleted, a put or read keeps its
    /// data and loses its signal. Only the ordering edge between the two
    /// is lost; no signal is left stranded.
    DropWait {
        /// The mutated PE.
        pe: usize,
        /// Index of the dropped wait.
        step: usize,
        /// `(pe, step)` of the step raising the wait's slot.
        raise: (usize, usize),
    },
    /// Move the read at `step` above the nearest `Wait` before it (at
    /// `wait`), so it no longer waits for the signal that guarded it.
    HoistRead {
        /// The mutated PE.
        pe: usize,
        /// Index of the hoisted read.
        step: usize,
        /// Index of the wait it is hoisted above.
        wait: usize,
    },
    /// Widen the chunk put at `step` over the next chunk of the same op
    /// (at `next`, deleted): one window carrying one signal.
    MergeChunks {
        /// The mutated PE.
        pe: usize,
        /// Index of the widened chunk put.
        step: usize,
        /// Index of the absorbed chunk put.
        next: usize,
    },
}

impl std::fmt::Display for PlanMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanMutation::DropWait {
                pe,
                step,
                raise: (q, k),
            } => write!(
                f,
                "PE {pe}: drop wait at step {step} and its raise (PE {q} step {k})"
            ),
            PlanMutation::HoistRead { pe, step, wait } => {
                write!(f, "PE {pe}: hoist step {step} above wait {wait}")
            }
            PlanMutation::MergeChunks { pe, step, next } => {
                write!(f, "PE {pe}: merge chunk puts {step}+{next}")
            }
        }
    }
}

/// `true` for the steps that read symmetric memory: the gets, and a
/// heap-to-heap put's source.
fn reads_symmetric(step: &PlanStep) -> bool {
    matches!(
        step,
        PlanStep::GetSymm { .. }
            | PlanStep::GetInto { .. }
            | PlanStep::GetLanding { .. }
            | PlanStep::PutSymm { .. }
    )
}

/// `true` when the two `(pe, step)` pairs touch a common element, at
/// least one of them writing it.
fn steps_conflict(a: (usize, &PlanStep), b: (usize, &PlanStep)) -> bool {
    let (ra, wa) = step_windows(a.1, a.0);
    let (rb, wb) = step_windows(b.1, b.0);
    let hit =
        |x: Option<Loc>, y: Option<Loc>| matches!((x, y), (Some(x), Some(y)) if x.overlaps(&y));
    hit(wa, rb) || hit(wa, wb) || hit(ra, wb)
}

/// `true` when step `x` is ordered before step `y` (both `(pe, step)`)
/// by `clocks`. Every data step ticks its own PE's component, so `y`
/// knows `x` once its clock has reached `x`'s own entry.
fn before(clocks: &[Vec<Vec<u64>>], x: (usize, usize), y: (usize, usize)) -> bool {
    let (cx, cy) = (&clocks[x.0][x.1], &clocks[y.0][y.1]);
    !cx.is_empty() && !cy.is_empty() && cx[x.0] <= cy[x.0]
}

/// Ordered pairs of `(pe, step)` coordinates, earlier step first.
type Ordered = Vec<((usize, usize), (usize, usize))>;

/// Every pair `(x, y)` of conflicting steps on different PEs with `x`
/// ordered before `y`: the orderings the plan's result rests on.
fn ordered_conflicts(prog: &Program, clocks: &[Vec<Vec<u64>>]) -> Ordered {
    let data: Vec<(usize, usize)> = (0..prog.n_pes)
        .flat_map(|p| (0..prog.steps(p).len()).map(move |k| (p, k)))
        .filter(|&(p, k)| !matches!(step_windows(&prog.steps(p)[k], p), (None, None)))
        .collect();
    let mut out = Vec::new();
    for (i, &x) in data.iter().enumerate() {
        for &y in &data[i + 1..] {
            let (sx, sy) = (&prog.steps(x.0)[x.1], &prog.steps(y.0)[y.1]);
            if x.0 == y.0 || !steps_conflict((x.0, sx), (y.0, sy)) {
                continue;
            }
            if before(clocks, x, y) {
                out.push((x, y));
            } else if before(clocks, y, x) {
                out.push((y, x));
            }
        }
    }
    out
}

/// The `(pe, step)` raising slot `slot` of PE `to`.
fn raise_of(prog: &Program, to: usize, slot: usize) -> Option<(usize, usize)> {
    (0..prog.n_pes).find_map(|q| {
        let k = prog
            .steps(q)
            .iter()
            .position(|s| step_signal(s) == Some((to, slot)))?;
        Some((q, k))
    })
}

/// The steps a [`PlanMutation::DropWait`] deletes, later index first:
/// the wait, and its raise when that is a bare `Post`.
fn dropped_steps(
    prog: &Program,
    pe: usize,
    step: usize,
    raise: (usize, usize),
) -> Vec<(usize, usize)> {
    let mut cut = vec![(pe, step)];
    if matches!(prog.steps(raise.0)[raise.1], PlanStep::Post { .. }) {
        cut.push(raise);
    }
    cut.sort_unstable_by_key(|&(_, i)| std::cmp::Reverse(i));
    cut
}

/// `true` when `mutant`, which is `prog` less the steps in `cut`, leaves
/// one of `prog`'s ordered conflicting pairs unordered (the drop rule of
/// [`generate_plan_mutations`]).
fn drop_loses_edge(mutant: &Program, cut: &[(usize, usize)], ordered: &Ordered) -> bool {
    let clocks = step_clocks(mutant);
    // Data steps are never cut, so each maps to the mutant by the number
    // of cut steps before it on its PE.
    let at =
        |(p, k): (usize, usize)| (p, k - cut.iter().filter(|&&(q, i)| q == p && i < k).count());
    ordered.iter().any(|&(x, y)| !before(&clocks, at(x), at(y)))
}

/// `true` when moving PE `me`'s step `h` above its wait `w` drops an
/// ordering some conflicting access relies on (the hoist rule of
/// [`generate_plan_mutations`]). `clocks` are the original plan's
/// per-step vector clocks.
fn hoist_loses_edge(
    prog: &Program,
    clocks: &[Vec<Vec<u64>>],
    me: usize,
    w: usize,
    h: usize,
) -> bool {
    let steps = prog.steps(me);
    let (cw, ch) = (&clocks[me][w], &clocks[me][h]);
    if cw.is_empty() || ch.is_empty() {
        // Never reached on the canonical run: stay conservative.
        return true;
    }
    let pred = w.checked_sub(1).map(|p| &clocks[me][p]);
    // Steps of other PEs ordered before `h` only through `w`: known to
    // `w` (whose clock joined the poster's) but not to `w`'s predecessor.
    let lost: Vec<(usize, &PlanStep)> = (0..prog.n_pes)
        .filter(|&q| q != me)
        .flat_map(|q| {
            prog.steps(q).iter().enumerate().filter_map(move |(k, x)| {
                let t = *clocks[q][k].get(q)?;
                let through_w = t <= cw[q] && pred.is_none_or(|p| t > p[q]);
                through_w.then_some((q, x))
            })
        })
        .collect();
    let hoisted = (me, &steps[h]);
    if steps[w + 1..h]
        .iter()
        .any(|m| steps_conflict(hoisted, (me, m)))
        || lost.iter().any(|&x| steps_conflict(hoisted, x))
    {
        return true;
    }
    if step_signal(&steps[h]).is_none() {
        return false;
    }
    // `h`'s signal passes what `h` knows on: every step ordered after
    // `h` loses the same edges.
    (0..prog.n_pes).filter(|&q| q != me).any(|q| {
        prog.steps(q).iter().enumerate().any(|(k, y)| {
            clocks[q][k].get(me).is_some_and(|&t| t >= ch[me])
                && lost
                    .iter()
                    .any(|&(xq, x)| xq != q && steps_conflict((q, y), (xq, x)))
        })
    })
}

/// Derive the plan-level mutants of `prog`, each breaking one protocol
/// edge of the executed steps. Provably equivalent mutants are excluded
/// by these rules:
///
/// * a `Wait` `w` is dropped together with the raise of its slot, so the
///   mutant loses exactly the raise→`w` edge and strands no signal. It
///   is generated only when some pair of conflicting steps on different
///   PEs that the plan orders is left unordered by the mutant's own
///   happens-before (its [`step_clocks`]). Otherwise every conflicting
///   pair keeps its order, and no interleaving can tell the two apart —
///   as for a drain wait whose puts the closing barrier orders anyway;
/// * a symmetric read `h` is hoisted above the nearest `Wait` `w` before
///   it (no barrier in between) only when the move loses an ordering a
///   conflict needs. Hoisting drops exactly the happens-before edges
///   that reached `h` through `w` alone: from the steps ordered before
///   `w`'s post but not before `w`'s predecessor. The mutant is
///   generated when `h` conflicts with one of those steps or with a step
///   it moves above, or — if `h` raises a signal, handing its knowledge
///   on — when one of those steps conflicts with a step ordered after
///   `h`. Otherwise every conflicting pair keeps its order, and no
///   interleaving can tell `h`'s two positions apart;
/// * chunks `c` and `c + 1` of one put merge into one window that keeps
///   chunk `c`'s signal, for remote targets only: a local put carries no
///   signal and reads private memory, so merging it is equivalent.
pub fn generate_plan_mutations(prog: &Program) -> Vec<PlanMutation> {
    let clocks = step_clocks(prog);
    let ordered = ordered_conflicts(prog, &clocks);
    let mut out = Vec::new();
    for pe in 0..prog.n_pes {
        let steps = prog.steps(pe);
        let refs = prog.refs(pe);
        for (i, step) in steps.iter().enumerate() {
            if let PlanStep::Wait { slot } = *step {
                if let Some(raise) = raise_of(prog, pe, slot as usize) {
                    let m = PlanMutation::DropWait { pe, step: i, raise };
                    let cut = dropped_steps(prog, pe, i, raise);
                    if drop_loses_edge(&apply_plan_mutation(prog, &m), &cut, &ordered) {
                        out.push(m);
                    }
                }
            }
            if reads_symmetric(step) {
                let wait = steps[..i]
                    .iter()
                    .rposition(|s| matches!(s, PlanStep::Wait { .. } | PlanStep::Barrier))
                    .filter(|&j| matches!(steps[j], PlanStep::Wait { .. }));
                if let Some(wait) = wait.filter(|&w| hoist_loses_edge(prog, &clocks, pe, w, i)) {
                    out.push(PlanMutation::HoistRead { pe, step: i, wait });
                }
            }
            if let (Some(r), Some(_)) = (refs[i], step_signal(step).filter(|_| is_put(step))) {
                let Some(c) = r.chunk else { continue };
                let next = (i + 1..steps.len()).find(|&j| {
                    refs[j]
                        .is_some_and(|n| (n.stage, n.op, n.chunk) == (r.stage, r.op, Some(c + 1)))
                        && is_put(&steps[j])
                });
                if let Some(next) = next {
                    out.push(PlanMutation::MergeChunks { pe, step: i, next });
                }
            }
        }
    }
    out
}

fn is_put(step: &PlanStep) -> bool {
    matches!(
        step,
        PlanStep::PutSymm { .. } | PlanStep::PutFrom { .. } | PlanStep::PutNb { .. }
    )
}

/// Apply `m` to a copy of `prog`. Mutants are judged by the oracle only,
/// which ignores the issue/drain split, so `drain_from` is left as is.
pub fn apply_plan_mutation(prog: &Program, m: &PlanMutation) -> Program {
    let (mut plan, mut refs) = prog.clone().into_parts();
    match *m {
        PlanMutation::DropWait { pe, step, raise } => {
            let cut = dropped_steps(prog, pe, step, raise);
            match &mut plan.per_pe[raise.0].steps[raise.1] {
                PlanStep::Post { .. } => {}
                PlanStep::PutSymm { sig, .. }
                | PlanStep::PutFrom { sig, .. }
                | PlanStep::PutNb { sig, .. } => *sig = None,
                PlanStep::GetLanding { ack, .. } => *ack = None,
                _ => unreachable!("the raise carries a signal"),
            }
            for (p, i) in cut {
                plan.per_pe[p].steps.remove(i);
                refs[p].remove(i);
            }
        }
        PlanMutation::HoistRead { pe, step, wait } => {
            let s = plan.per_pe[pe].steps.remove(step);
            plan.per_pe[pe].steps.insert(wait, s);
            let r = refs[pe].remove(step);
            refs[pe].insert(wait, r);
        }
        PlanMutation::MergeChunks { pe, step, next } => {
            let steps = &mut plan.per_pe[pe].steps;
            let tail = steps.remove(next);
            refs[pe].remove(next);
            match (&mut steps[step], tail) {
                (PlanStep::PutSymm { nelems, .. }, PlanStep::PutSymm { nelems: n2, .. }) => {
                    *nelems += n2;
                }
                (
                    PlanStep::PutFrom { nelems, src_hi, .. },
                    PlanStep::PutFrom {
                        nelems: n2,
                        src_hi: h2,
                        ..
                    },
                )
                | (
                    PlanStep::PutNb { nelems, src_hi, .. },
                    PlanStep::PutNb {
                        nelems: n2,
                        src_hi: h2,
                        ..
                    },
                ) => {
                    *nelems += n2;
                    *src_hi = h2;
                }
                _ => unreachable!("chunk puts of one op share their kind"),
            }
        }
    }
    Program::from_parts(plan, refs)
}

// ---------------------------------------------------------------------------
// Verdicts.
// ---------------------------------------------------------------------------

/// Verdict on one `(mutant, sync mode)` pair.
pub struct MutationOutcome<M = Mutation> {
    /// The mutation applied.
    pub mutation: M,
    /// Sync mode the mutant was checked under.
    pub sync: SyncMode,
    /// Whether any oracle plane flagged it.
    pub killed: bool,
    /// Which plane killed it (or why it survived).
    pub how: String,
}

/// Aggregate harness result.
pub struct MutationReport<M = Mutation> {
    /// Every `(mutant, mode)` verdict.
    pub outcomes: Vec<MutationOutcome<M>>,
}

impl<M> MutationReport<M> {
    /// Fraction of `(mutant, mode)` pairs the oracle flagged.
    pub fn kill_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let killed = self.outcomes.iter().filter(|o| o.killed).count();
        killed as f64 / self.outcomes.len() as f64
    }

    /// The surviving pairs, for justification in harness output.
    pub fn survivors(&self) -> impl Iterator<Item = &MutationOutcome<M>> {
        self.outcomes.iter().filter(|o| !o.killed)
    }
}

/// Judge one mutant program: first the canonical vector-clock run, then
/// — if that passes — exhaustive exploration. Killed when either plane
/// flags it.
fn judge<M>(
    mutation: M,
    prog: &Program,
    spec: &CollectiveSpec,
    ecfg: &ExploreConfig,
) -> MutationOutcome<M> {
    let canonical = check_program(prog, spec);
    let (killed, how) = if !canonical.ok() {
        (true, format!("canonical: {}", canonical.summary()))
    } else {
        let explored = explore_program(prog, spec, ecfg);
        match explored.failure {
            Some(_) => (true, format!("explored: {}", explored.summary())),
            None => (false, format!("survived: {}", explored.summary())),
        }
    };
    MutationOutcome {
        mutation,
        sync: prog.sync,
        killed,
        how,
    }
}

/// Run every generated schedule mutant of `sched` through the oracle
/// under each mode in `modes`.
pub fn run_mutation_harness(
    sched: &CommSchedule,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
    modes: &[SyncMode],
    ecfg: &ExploreConfig,
) -> MutationReport {
    let mut outcomes = Vec::new();
    for mutation in generate_mutations(sched) {
        let mutant = apply_mutation(sched, &mutation);
        for &sync in modes {
            let prog = Program::new(&mutant, sync, cfg);
            outcomes.push(judge(mutation.clone(), &prog, spec, ecfg));
        }
    }
    MutationReport { outcomes }
}

/// Run every plan-level mutant of `sched`'s lowered plan under each mode
/// in `modes` through the oracle.
pub fn run_plan_mutation_harness(
    sched: &CommSchedule,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
    modes: &[SyncMode],
    ecfg: &ExploreConfig,
) -> MutationReport<PlanMutation> {
    let mut outcomes = Vec::new();
    for &sync in modes {
        let prog = Program::new(sched, sync, cfg);
        for mutation in generate_plan_mutations(&prog) {
            let mutant = apply_plan_mutation(&prog, &mutation);
            outcomes.push(judge(mutation, &mutant, spec, ecfg));
        }
    }
    MutationReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::schedule::{broadcast_binomial, reduce_binomial, Stage};
    use crate::collectives::verify::Violation;
    use crate::fabric::CollectiveKind;

    #[test]
    fn exhaustive_passes_correct_generators() {
        let cfg = ModelConfig::default();
        let ecfg = ExploreConfig::default();
        for n in 2..=4usize {
            for sync in SyncMode::CONCRETE {
                let sched = broadcast_binomial(n, 0, 2, 1);
                let spec = CollectiveSpec::Broadcast {
                    root: 0,
                    nelems: 2,
                    stride: 1,
                };
                let out = explore_exhaustive(&sched, sync, &spec, &cfg, &ecfg);
                assert!(out.ok(), "bcast n={n} {}: {}", sync.name(), out.summary());

                let red = reduce_binomial(n, 0, 2, 1);
                let rspec = CollectiveSpec::ReduceTree {
                    root: 0,
                    nelems: 2,
                    stride: 1,
                };
                let out = explore_exhaustive(&red, sync, &rspec, &cfg, &ecfg);
                assert!(out.ok(), "reduce n={n} {}: {}", sync.name(), out.summary());
            }
        }
    }

    #[test]
    fn explorer_finds_and_replays_ordering_bug() {
        // Merge both stages of a 4-PE binomial broadcast: some
        // interleaving lets the forwarder send stale data.
        let good = broadcast_binomial(4, 0, 1, 1);
        let mut ops = Vec::new();
        for st in &good.stages {
            ops.extend(st.ops.iter().copied());
        }
        let bad = CommSchedule {
            n_pes: 4,
            kind: CollectiveKind::Broadcast,
            stages: vec![Stage::new(ops)],
        };
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 1,
            stride: 1,
        };
        let cfg = ModelConfig::default();
        let out = explore_exhaustive(
            &bad,
            SyncMode::Barrier,
            &spec,
            &cfg,
            &ExploreConfig::default(),
        );
        let failure = out
            .failure
            .expect("merged stages must fail some interleaving");
        // Determinism: a second exploration finds the identical trace.
        let again = explore_exhaustive(
            &bad,
            SyncMode::Barrier,
            &spec,
            &cfg,
            &ExploreConfig::default(),
        );
        assert_eq!(failure.trace, again.failure.expect("still fails").trace);
        // Reproducibility: replaying the trace exhibits the failure too.
        let replay = replay_trace(&bad, SyncMode::Barrier, &spec, &cfg, &failure.trace);
        assert!(!replay.ok(), "replayed trace must reproduce the failure");
    }

    #[test]
    fn random_priority_is_deterministic() {
        let sched = broadcast_binomial(4, 0, 3, 1);
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 3,
            stride: 1,
        };
        let cfg = ModelConfig::default();
        let run = |seed: u64| {
            let mut s = RandomPriority::new(seed, 4);
            check_with_scheduler(&sched, SyncMode::Signaled, &spec, &cfg, &mut s)
        };
        let (a, b) = (run(7), run(7));
        assert!(a.ok() && b.ok());
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn mutation_harness_kills_all_broadcast_mutants() {
        let sched = broadcast_binomial(4, 0, 2, 1);
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 2,
            stride: 1,
        };
        let report = run_mutation_harness(
            &sched,
            &spec,
            &ModelConfig::default(),
            &SyncMode::CONCRETE,
            &ExploreConfig::default(),
        );
        assert!(!report.outcomes.is_empty(), "no mutants generated");
        if let Some(o) = report.survivors().next() {
            panic!(
                "survivor: {} under {}: {}",
                o.mutation,
                o.sync.name(),
                o.how
            );
        }
        assert_eq!(report.kill_rate(), 1.0);
    }

    /// Binomial broadcast forced into two chunks per put: every plan
    /// mutant class exists, and the oracle kills each mutant.
    #[test]
    fn plan_mutants_cover_every_class_and_die() {
        let sched = broadcast_binomial(4, 0, 4, 1);
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 4,
            stride: 1,
        };
        let cfg = ModelConfig {
            elem_bytes: 8,
            force_chunks: Some(2),
        };
        let report = run_plan_mutation_harness(
            &sched,
            &spec,
            &cfg,
            &SyncMode::CONCRETE,
            &ExploreConfig::default(),
        );
        let has = |f: fn(&PlanMutation) -> bool| report.outcomes.iter().any(|o| f(&o.mutation));
        assert!(has(|m| matches!(m, PlanMutation::DropWait { .. })));
        assert!(has(|m| matches!(m, PlanMutation::HoistRead { .. })));
        assert!(has(|m| matches!(m, PlanMutation::MergeChunks { .. })));
        let survivors: Vec<String> = report
            .survivors()
            .map(|o| format!("{} under {}: {}", o.mutation, o.sync.name(), o.how))
            .collect();
        assert!(survivors.is_empty(), "survivors: {survivors:?}");
    }

    /// A wait is dropped with the raise of its slot, so the mutant loses
    /// an ordering edge and nothing else: no interleaving strands a
    /// signal, and the oracle still kills every drop it generates.
    #[test]
    fn dropped_waits_die_without_stranding_a_signal() {
        let sched = broadcast_binomial(4, 0, 4, 1);
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 4,
            stride: 1,
        };
        let cfg = ModelConfig {
            elem_bytes: 8,
            force_chunks: Some(2),
        };
        let mut drops = 0;
        for sync in SyncMode::CONCRETE {
            let prog = Program::new(&sched, sync, &cfg);
            for m in generate_plan_mutations(&prog) {
                if !matches!(m, PlanMutation::DropWait { .. }) {
                    continue;
                }
                drops += 1;
                let mutant = apply_plan_mutation(&prog, &m);
                let canonical = check_program(&mutant, &spec);
                assert!(
                    !canonical
                        .violations
                        .iter()
                        .any(|v| matches!(v, Violation::StrandedSignal { .. })),
                    "{m}: {}",
                    canonical.summary()
                );
                let explored = explore_program(&mutant, &spec, &ExploreConfig::default());
                assert!(
                    !matches!(
                        explored.failure,
                        Some(ExploreFailure {
                            kind: FailureKind::StrandedSignals(_),
                            ..
                        })
                    ),
                    "{m}: {}",
                    explored.summary()
                );
                assert!(
                    !canonical.ok() || explored.failure.is_some(),
                    "{m} survived"
                );
            }
        }
        assert!(drops > 0);
    }

    /// A forwarder's put hoisted above the wait for its incoming chunk is
    /// a race the vector-clock plane sees on the canonical run alone.
    #[test]
    fn hoisted_forward_is_a_canonical_race() {
        let sched = broadcast_binomial(4, 0, 2, 1);
        let spec = CollectiveSpec::Broadcast {
            root: 0,
            nelems: 2,
            stride: 1,
        };
        let prog = Program::new(&sched, SyncMode::Signaled, &ModelConfig::default());
        let hoists: Vec<_> = generate_plan_mutations(&prog)
            .into_iter()
            .filter(|m| matches!(m, PlanMutation::HoistRead { .. }))
            .collect();
        assert!(!hoists.is_empty());
        for m in hoists {
            let report = check_program(&apply_plan_mutation(&prog, &m), &spec);
            assert!(!report.violations.is_empty(), "{m}: {}", report.summary());
        }
    }
}

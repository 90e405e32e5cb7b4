//! The schedule conformance oracle — an abstract machine that runs the
//! executed [`Plan`] against a provenance memory model.
//!
//! The runtime lowers a `(schedule, sync mode)` pair into per-PE
//! [`PlanStep`] programs ([`plan::lower`](crate::collectives::plan::lower))
//! and executes them on the fabric. This module lowers the *same* pair
//! through the *same* lowering and interprets those steps on an abstract
//! machine where every element holds the sorted multiset of
//! `(space, pe, index)` atoms that produced it, instead of numbers, and
//! where signals live in per-PE slot tables addressed exactly as on the
//! fabric: a post names its target PE and slot, a wait consumes a slot
//! of the waiting PE's own table. Three checks fall out:
//!
//! * **final-buffer equivalence** — the machine's final state is compared
//!   against a *dense single-PE reference* computed directly from the
//!   collective's semantics ([`CollectiveSpec`]), with folds modelled as
//!   multiset union so any associativity-order the schedule picks is
//!   accepted and any lost/duplicated contribution is not;
//! * **happens-before** — a vector-clock plane orders steps by program
//!   order, signal post→wait edges (per *chunk* in pipelined mode) and
//!   barriers, and flags any read of an element whose producing write is
//!   not ordered before it;
//! * **write races** — the same plane flags unordered same-destination
//!   writes and writes that overtake an unacknowledged read.
//!
//! A dependency the executed protocol relies on but the schedule does not
//! justify therefore shows up as a model violation. The deterministic
//! interleaving explorer in [`explore`](crate::collectives::explore)
//! replays these programs under pluggable schedulers, up to exhaustive
//! DFS over all interleavings, and mutates both schedules and plans to
//! check that the oracle notices.

use crate::collectives::explore::{RoundRobin, Scheduler};
use crate::collectives::plan::{lower_traced, Plan, PlanStep};
use crate::collectives::policy::SyncMode;
use crate::collectives::schedule::CommSchedule;
use crate::collectives::vrank::logical_rank;

pub use crate::collectives::plan::OpRef;

// ---------------------------------------------------------------------------
// The provenance value domain.
// ---------------------------------------------------------------------------

/// Which buffer an atom (or a [`Loc`]) refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// The symmetric working buffer (one copy per PE).
    Sym,
    /// A PE's private `local_src` slice (read-only under every schedule).
    LocalSrc,
    /// A PE's private `local_dst` slice.
    LocalDst,
}

/// An element value: the sorted multiset of origin atoms that produced
/// it. Copies replace, folds merge — multiset union keeps a duplicated
/// contribution visible instead of absorbing it.
pub type Val = Vec<u32>;

/// Origin atom `(space, pe, idx)` packed into 32 bits.
pub fn atom(space: Space, pe: usize, idx: usize) -> u32 {
    assert!(pe < 1 << 10, "provenance model supports < 1024 PEs");
    assert!(idx < 1 << 20, "provenance model supports < 2^20 elements");
    let s = match space {
        Space::Sym => 0u32,
        Space::LocalSrc => 1,
        Space::LocalDst => 2,
    };
    (s << 30) | ((pe as u32) << 20) | idx as u32
}

/// Multiset union of two sorted atom lists.
fn merge(a: &Val, b: &Val) -> Val {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

// ---------------------------------------------------------------------------
// The executed plan, as the abstract machine sees it.
// ---------------------------------------------------------------------------

/// A strided element window in one PE's copy of one space.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Loc {
    space: Space,
    pe: usize,
    at: usize,
    nelems: usize,
    stride: usize,
}

impl Loc {
    fn new(space: Space, pe: u32, at: u32, nelems: u32, stride: u32) -> Self {
        Loc {
            space,
            pe: pe as usize,
            at: at as usize,
            nelems: nelems as usize,
            stride: stride as usize,
        }
    }

    /// One past the last element the window covers.
    pub(crate) fn end(&self) -> usize {
        if self.nelems == 0 {
            self.at
        } else {
            self.at + (self.nelems - 1) * self.stride + 1
        }
    }

    /// `true` when both windows cover a common element (conservatively:
    /// their contiguous spans intersect).
    pub(crate) fn overlaps(&self, o: &Loc) -> bool {
        self.space == o.space && self.pe == o.pe && self.at < o.end() && o.at < self.end()
    }
}

/// The buffer windows PE `me`'s `step` reads and writes. The landing
/// buffer is private to the stepping PE and is not a window; signal and
/// control steps touch no data. A symmetric fold rewrites its whole span,
/// as the executor's read-modify-write does.
pub(crate) fn step_windows(step: &PlanStep, me: usize) -> (Option<Loc>, Option<Loc>) {
    let me = me as u32;
    let sym = |pe, at, n, s| Some(Loc::new(Space::Sym, pe, at, n, s));
    match *step {
        PlanStep::PutSymm {
            dst_at,
            src_at,
            nelems,
            stride,
            dst_pe,
            ..
        } => (
            sym(me, src_at, nelems, stride),
            sym(dst_pe, dst_at, nelems, stride),
        ),
        PlanStep::PutFrom {
            dst_at,
            src_lo,
            nelems,
            stride,
            dst_pe,
            ..
        }
        | PlanStep::PutNb {
            dst_at,
            src_lo,
            nelems,
            stride,
            dst_pe,
            ..
        } => (
            Some(Loc::new(Space::LocalSrc, me, src_lo, nelems, stride)),
            sym(dst_pe, dst_at, nelems, stride),
        ),
        PlanStep::GetSymm {
            dst_at,
            src_at,
            nelems,
            stride,
            src_pe,
        } => (
            sym(src_pe, src_at, nelems, stride),
            sym(me, dst_at, nelems, stride),
        ),
        PlanStep::GetInto {
            dst_lo,
            src_at,
            nelems,
            stride,
            src_pe,
            ..
        } => (
            sym(src_pe, src_at, nelems, stride),
            Some(Loc::new(Space::LocalDst, me, dst_lo, nelems, stride)),
        ),
        PlanStep::GetLanding {
            src_at,
            nelems,
            stride,
            src_pe,
            ..
        } => (sym(src_pe, src_at, nelems, stride), None),
        PlanStep::FoldSymm { dst_at, span, .. } => {
            let w = sym(me, dst_at, span, 1);
            (w, w)
        }
        PlanStep::FoldInto {
            dst_at,
            nelems,
            stride,
        } => {
            let w = Some(Loc::new(Space::LocalDst, me, dst_at, nelems, stride));
            (w, w)
        }
        PlanStep::StageStart { .. }
        | PlanStep::StageEnd { .. }
        | PlanStep::Barrier
        | PlanStep::Post { .. }
        | PlanStep::Wait { .. } => (None, None),
    }
}

/// The `(target PE, slot)` a step raises, if any: readiness posts,
/// put-with-signal completions and deferred-fold read acks.
pub(crate) fn step_signal(step: &PlanStep) -> Option<(usize, usize)> {
    match *step {
        PlanStep::Post { slot, dst_pe }
        | PlanStep::PutSymm {
            sig: Some(slot),
            dst_pe,
            ..
        }
        | PlanStep::PutFrom {
            sig: Some(slot),
            dst_pe,
            ..
        }
        | PlanStep::PutNb {
            sig: Some(slot),
            dst_pe,
            ..
        }
        | PlanStep::GetLanding {
            ack: Some(slot),
            src_pe: dst_pe,
            ..
        } => Some((dst_pe as usize, slot as usize)),
        _ => None,
    }
}

/// Stage markers only feed progress and trace telemetry: the machine
/// steps over them without an interleaving point.
fn silent(step: &PlanStep) -> bool {
    matches!(
        step,
        PlanStep::StageStart { .. } | PlanStep::StageEnd { .. }
    )
}

/// A schedule as the abstract machine runs it: the [`Plan`] the runtime
/// executes (same lowering, plus the model's optional chunk override),
/// the [`OpRef`] of every step, and the buffer extents the steps touch.
#[derive(Clone)]
pub struct Program {
    /// World size.
    pub n_pes: usize,
    /// The concrete discipline the plan encodes (after `Auto`
    /// resolution — the one the runtime runs).
    pub sync: SyncMode,
    plan: Plan,
    refs: Vec<Vec<Option<OpRef>>>,
    sym_len: usize,
    lsrc_len: usize,
    ldst_len: usize,
}

impl Program {
    /// Lower `sched` under `sync` exactly as the runtime does, recording
    /// op coordinates for reports.
    pub fn new(sched: &CommSchedule, sync: SyncMode, cfg: &ModelConfig) -> Self {
        let (plan, refs) = lower_traced(sched, sync, cfg.elem_bytes, cfg.force_chunks);
        Self::from_parts(plan, refs)
    }

    /// Wrap a (possibly mutated) plan and its per-step op coordinates.
    pub(crate) fn from_parts(plan: Plan, refs: Vec<Vec<Option<OpRef>>>) -> Self {
        let mut lens = [0usize; 3];
        for (me, prog) in plan.per_pe.iter().enumerate() {
            for step in &prog.steps {
                let (r, w) = step_windows(step, me);
                for loc in [r, w].into_iter().flatten() {
                    let len = &mut lens[loc.space as usize];
                    *len = (*len).max(loc.end());
                }
            }
        }
        Program {
            n_pes: plan.n_pes,
            sync: plan.sync,
            plan,
            refs,
            sym_len: lens[Space::Sym as usize],
            lsrc_len: lens[Space::LocalSrc as usize],
            ldst_len: lens[Space::LocalDst as usize],
        }
    }

    /// The inverse of [`Program::from_parts`].
    pub(crate) fn into_parts(self) -> (Plan, Vec<Vec<Option<OpRef>>>) {
        (self.plan, self.refs)
    }

    /// PE `pe`'s steps.
    pub(crate) fn steps(&self, pe: usize) -> &[PlanStep] {
        &self.plan.per_pe[pe].steps
    }

    /// The op coordinates of PE `pe`'s steps.
    pub(crate) fn refs(&self, pe: usize) -> &[Option<OpRef>] {
        &self.refs[pe]
    }

    /// The dense reference sized to this program's buffer geometry.
    pub fn expectation(&self, spec: &CollectiveSpec) -> Expectation {
        spec.expected(self.n_pes, self.sym_len, self.ldst_len)
    }
}

/// Knobs for lowering a schedule into the abstract machine.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Element size driving `Auto` resolution and pipeline chunking
    /// (the executor's `size_of::<T>()`).
    pub elem_bytes: usize,
    /// When set, pipelined put-kind ops are split into this many chunks
    /// regardless of payload size — exercising per-chunk dependency edges
    /// at model-checkable payload sizes (real chunking needs ≥ 16 KiB
    /// transfers, far too many elements for exhaustive exploration).
    pub force_chunks: Option<usize>,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            elem_bytes: 8,
            force_chunks: None,
        }
    }
}

// ---------------------------------------------------------------------------
// The abstract machine.
// ---------------------------------------------------------------------------

/// Functional machine state: buffers, per-PE signal tables, program
/// counters. Clones cheaply enough for DFS branching at model-checking
/// sizes.
#[derive(Clone)]
pub struct Machine {
    sym: Vec<Vec<Val>>,
    lsrc: Vec<Vec<Val>>,
    ldst: Vec<Vec<Val>>,
    landing: Vec<Vec<Val>>,
    /// Raised flags, `n_slots` per PE: slot `s` of PE `p` is
    /// `sig[p * n_slots + s]`.
    sig: Vec<u8>,
    n_slots: usize,
    pc: Vec<usize>,
}

/// Per-element access metadata for the vector-clock plane.
#[derive(Clone)]
struct Access {
    w_pe: usize,
    w_clk: u64,
    w_ref: Option<OpRef>,
    r_clk: Vec<u64>,
    r_ref: Vec<Option<OpRef>>,
}

/// The happens-before / race-checking plane, carried alongside the
/// functional state on single-interleaving runs (the exhaustive
/// explorer steps the functional state alone and passes `None`).
pub struct VcPlane {
    clocks: Vec<Vec<u64>>,
    slot_clocks: Vec<Option<Vec<u64>>>,
    sym_acc: Vec<Vec<Access>>,
    violations: Vec<Violation>,
}

/// A dependency defect the oracle detected.
#[derive(Clone, Debug)]
pub enum Violation {
    /// A step read an element whose producing write is not ordered
    /// before the read by any signal/barrier edge.
    ReadBeforeSignal {
        /// `(pe, element index)` of the racy element.
        elem: (usize, usize),
        /// The write that produced the value (`None` = initial value —
        /// cannot happen in practice).
        writer: Option<OpRef>,
        /// The racing read.
        reader: Option<OpRef>,
    },
    /// Two writes to the same element with no ordering edge between them.
    WriteRace {
        /// `(pe, element index)` of the racy element.
        elem: (usize, usize),
        /// The earlier (overwritten) write.
        first: Option<OpRef>,
        /// The unordered overwriting write.
        second: Option<OpRef>,
    },
    /// A write overtook a peer's read of the same element (the invariant
    /// deferred-fold acks exist to protect).
    WriteAfterRead {
        /// `(pe, element index)` of the racy element.
        elem: (usize, usize),
        /// The unacknowledged read.
        reader: Option<OpRef>,
        /// The overtaking write.
        writer: Option<OpRef>,
    },
    /// A signal slot was posted while already raised (slot collision —
    /// two ops sharing a slot, or a re-post before the consume).
    DoublePost {
        /// PE whose table holds the slot.
        pe: usize,
        /// The colliding slot.
        slot: usize,
        /// The op that re-posted.
        op: Option<OpRef>,
    },
    /// A slot was still raised when the collective closed (the executor
    /// relies on an all-zero table between collectives).
    StrandedSignal {
        /// PE whose table holds the slot.
        pe: usize,
        /// The stranded slot.
        slot: usize,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = |r: &Option<OpRef>| match r {
            Some(r) => r.to_string(),
            None => "initial/drain".to_string(),
        };
        match self {
            Violation::ReadBeforeSignal {
                elem,
                writer,
                reader,
            } => write!(
                f,
                "read-before-signal at PE {} elem {}: {} read before {} signaled",
                elem.0,
                elem.1,
                name(reader),
                name(writer)
            ),
            Violation::WriteRace {
                elem,
                first,
                second,
            } => write!(
                f,
                "write race at PE {} elem {}: {} and {} unordered",
                elem.0,
                elem.1,
                name(first),
                name(second)
            ),
            Violation::WriteAfterRead {
                elem,
                reader,
                writer,
            } => write!(
                f,
                "write-after-read at PE {} elem {}: {} overtook read by {}",
                elem.0,
                elem.1,
                name(writer),
                name(reader)
            ),
            Violation::DoublePost { pe, slot, op } => {
                write!(f, "double post on PE {pe} slot {slot} by {}", name(op))
            }
            Violation::StrandedSignal { pe, slot } => {
                write!(f, "PE {pe} slot {slot} still raised at collective close")
            }
        }
    }
}

/// A final-buffer element that disagreed with the dense reference.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Buffer the element lives in.
    pub space: Space,
    /// Owning PE.
    pub pe: usize,
    /// Element index.
    pub idx: usize,
    /// The reference value.
    pub expected: Val,
    /// What the schedule produced.
    pub got: Val,
}

/// Where each PE was parked when no step was enabled.
#[derive(Clone, Debug)]
pub struct DeadlockInfo {
    /// Per blocked PE: `(rank, awaited slot)` — `None` = at the barrier.
    pub blocked: Vec<(usize, Option<usize>)>,
}

/// Everything one oracle run reports.
pub struct ConformanceReport {
    /// The concrete sync mode the schedule was modelled under.
    pub sync: SyncMode,
    /// Steps executed before completion or deadlock.
    pub steps: usize,
    /// Happens-before and race findings (interleaving-independent: any
    /// single complete run exposes them).
    pub violations: Vec<Violation>,
    /// Final-buffer disagreements with the dense reference.
    pub mismatches: Vec<Mismatch>,
    /// Set when the programs wedged before completing.
    pub deadlock: Option<DeadlockInfo>,
}

impl ConformanceReport {
    /// `true` when the schedule passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.mismatches.is_empty() && self.deadlock.is_none()
    }

    /// One-line summary for harness tables.
    pub fn summary(&self) -> String {
        if self.ok() {
            return format!("ok ({} steps, {})", self.steps, self.sync.name());
        }
        let mut parts = Vec::new();
        if let Some(d) = &self.deadlock {
            parts.push(format!("deadlock ({} blocked)", d.blocked.len()));
        }
        if !self.violations.is_empty() {
            parts.push(format!("{} violations", self.violations.len()));
        }
        if !self.mismatches.is_empty() {
            parts.push(format!("{} mismatches", self.mismatches.len()));
        }
        parts.join(", ")
    }
}

impl Machine {
    /// Fresh machine for `prog`: every element holds its own singleton
    /// origin atom, every signal slot is clear.
    pub fn new(prog: &Program) -> Self {
        let init = |space: Space, len: usize| -> Vec<Vec<Val>> {
            (0..prog.n_pes)
                .map(|pe| (0..len).map(|i| vec![atom(space, pe, i)]).collect())
                .collect()
        };
        let mut m = Machine {
            sym: init(Space::Sym, prog.sym_len),
            lsrc: init(Space::LocalSrc, prog.lsrc_len),
            ldst: init(Space::LocalDst, prog.ldst_len),
            landing: prog
                .plan
                .per_pe
                .iter()
                .map(|p| vec![Vec::new(); p.landing_len])
                .collect(),
            sig: vec![0; prog.n_pes * prog.plan.n_slots],
            n_slots: prog.plan.n_slots,
            pc: vec![0; prog.n_pes],
        };
        for pe in 0..prog.n_pes {
            m.settle(prog, pe);
        }
        m
    }

    /// Advance `pe` past stage markers.
    fn settle(&mut self, prog: &Program, pe: usize) {
        let steps = prog.steps(pe);
        while self.pc[pe] < steps.len() && silent(&steps[self.pc[pe]]) {
            self.pc[pe] += 1;
        }
    }

    /// PE `pe`'s next step (`None` once its program completed).
    fn next<'p>(&self, prog: &'p Program, pe: usize) -> Option<&'p PlanStep> {
        prog.steps(pe).get(self.pc[pe])
    }

    fn raised(&self, pe: usize, slot: u32) -> bool {
        self.sig[pe * self.n_slots + slot as usize] != 0
    }

    /// `true` when every PE ran its program to completion.
    pub fn all_done(&self, prog: &Program) -> bool {
        (0..prog.n_pes).all(|pe| self.next(prog, pe).is_none())
    }

    /// Ranks whose next step can execute now. Barrier steps are enabled
    /// only when *every* unfinished PE is parked at its barrier, and then
    /// only on the lowest such rank (the rendezvous is one transition, so
    /// offering it once avoids spurious DFS branching).
    pub fn enabled(&self, prog: &Program) -> Vec<usize> {
        let all_at_barrier = (0..prog.n_pes)
            .filter_map(|pe| self.next(prog, pe))
            .all(|s| matches!(s, PlanStep::Barrier));
        let mut out = Vec::new();
        let mut barrier_offered = false;
        for pe in 0..prog.n_pes {
            let on = match self.next(prog, pe) {
                None => false,
                Some(PlanStep::Barrier) => {
                    let offer = all_at_barrier && !barrier_offered;
                    barrier_offered |= offer;
                    offer
                }
                Some(PlanStep::Wait { slot }) => self.raised(pe, *slot),
                Some(_) => true,
            };
            if on {
                out.push(pe);
            }
        }
        out
    }

    /// Diagnostic for a wedged state: where every unfinished PE is stuck.
    pub fn deadlock_info(&self, prog: &Program) -> DeadlockInfo {
        let mut blocked = Vec::new();
        for pe in 0..prog.n_pes {
            match self.next(prog, pe) {
                Some(PlanStep::Wait { slot }) => blocked.push((pe, Some(*slot as usize))),
                Some(PlanStep::Barrier) => blocked.push((pe, None)),
                _ => {}
            }
        }
        DeadlockInfo { blocked }
    }

    fn read_loc(
        &mut self,
        loc: &Loc,
        vc: &mut Option<&mut VcPlane>,
        by: usize,
        r: Option<OpRef>,
    ) -> Vec<Val> {
        let mut out = Vec::with_capacity(loc.nelems);
        for j in 0..loc.nelems {
            let idx = loc.at + j * loc.stride;
            let v = match loc.space {
                Space::Sym => {
                    if let Some(vc) = vc.as_deref_mut() {
                        vc.read(by, loc.pe, idx, r);
                    }
                    self.sym[loc.pe][idx].clone()
                }
                Space::LocalSrc => self.lsrc[loc.pe][idx].clone(),
                Space::LocalDst => self.ldst[loc.pe][idx].clone(),
            };
            out.push(v);
        }
        out
    }

    fn write_loc(
        &mut self,
        loc: &Loc,
        vals: Vec<Val>,
        vc: &mut Option<&mut VcPlane>,
        by: usize,
        r: Option<OpRef>,
    ) {
        for (j, v) in vals.into_iter().enumerate() {
            let idx = loc.at + j * loc.stride;
            match loc.space {
                Space::Sym => {
                    if let Some(vc) = vc.as_deref_mut() {
                        vc.write(by, loc.pe, idx, r);
                    }
                    self.sym[loc.pe][idx] = v;
                }
                Space::LocalSrc => self.lsrc[loc.pe][idx] = v,
                Space::LocalDst => self.ldst[loc.pe][idx] = v,
            }
        }
    }

    /// Execute PE `pe`'s next step (caller guarantees it is enabled).
    pub fn step(&mut self, prog: &Program, pe: usize, mut vc: Option<&mut VcPlane>) {
        let step = prog.steps(pe)[self.pc[pe]];
        let r = prog.refs(pe)[self.pc[pe]];
        if let Some(vc) = vc.as_deref_mut() {
            vc.clocks[pe][pe] += 1;
        }
        match step {
            PlanStep::Barrier => {
                // Global rendezvous: advance every PE parked here.
                if let Some(vc) = vc.as_deref_mut() {
                    let mut joined = vec![0u64; prog.n_pes];
                    for clk in &vc.clocks {
                        for (q, j) in joined.iter_mut().enumerate() {
                            *j = (*j).max(clk[q]);
                        }
                    }
                    for clk in vc.clocks.iter_mut() {
                        clk.clone_from(&joined);
                    }
                }
                for q in 0..prog.n_pes {
                    if self.next(prog, q).is_some() {
                        debug_assert!(matches!(self.next(prog, q), Some(PlanStep::Barrier)));
                        self.pc[q] += 1;
                        self.settle(prog, q);
                    }
                }
                return;
            }
            PlanStep::Wait { slot } => {
                let ix = pe * self.n_slots + slot as usize;
                debug_assert_ne!(self.sig[ix], 0, "stepped a blocked wait");
                self.sig[ix] = 0;
                if let Some(vc) = vc.as_deref_mut() {
                    if let Some(sc) = vc.slot_clocks[ix].take() {
                        for (q, v) in sc.iter().enumerate() {
                            vc.clocks[pe][q] = vc.clocks[pe][q].max(*v);
                        }
                    }
                }
            }
            PlanStep::FoldSymm { nelems, stride, .. }
            | PlanStep::FoldInto { nelems, stride, .. } => {
                let (Some(win), _) = step_windows(&step, pe) else {
                    unreachable!("folds have a window")
                };
                // A symmetric fold's window is its whole contiguous span;
                // a private fold's window is the strided elements alone.
                let k = if matches!(step, PlanStep::FoldSymm { .. }) {
                    stride as usize
                } else {
                    1
                };
                let mut vals = self.read_loc(&win, &mut vc, pe, r);
                for j in 0..nelems as usize {
                    vals[j * k] = merge(&vals[j * k], &self.landing[pe][j * stride as usize]);
                }
                self.write_loc(&win, vals, &mut vc, pe, r);
            }
            _ => {
                if let (Some(src), dst) = step_windows(&step, pe) {
                    let vals = self.read_loc(&src, &mut vc, pe, r);
                    match dst {
                        Some(dst) => self.write_loc(&dst, vals, &mut vc, pe, r),
                        None => {
                            for (j, v) in vals.into_iter().enumerate() {
                                self.landing[pe][j * src.stride] = v;
                            }
                        }
                    }
                }
            }
        }
        // The signal rides its step: a flag is never observable before
        // the payload it covers.
        if let Some((to, slot)) = step_signal(&step) {
            let ix = to * self.n_slots + slot;
            if self.sig[ix] != 0 {
                if let Some(vc) = vc.as_deref_mut() {
                    vc.violations.push(Violation::DoublePost {
                        pe: to,
                        slot,
                        op: r,
                    });
                }
            }
            self.sig[ix] = 1;
            if let Some(vc) = vc {
                vc.slot_clocks[ix] = Some(vc.clocks[pe].clone());
            }
        }
        self.pc[pe] += 1;
        self.settle(prog, pe);
    }

    /// `(pe, slot)` of every signal still raised — the executor requires
    /// an all-zero table at collective close, so a clean run returns an
    /// empty list.
    pub fn stranded_slots(&self) -> Vec<(usize, usize)> {
        self.sig
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(ix, _)| (ix / self.n_slots, ix % self.n_slots))
            .collect()
    }

    /// Platform-independent FNV-1a hash of the functional state (used by
    /// the exhaustive explorer's visited-set). The private sources are
    /// never written, so they are left out.
    pub fn state_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for &pc in &self.pc {
            mix(pc as u64);
        }
        for &s in &self.sig {
            mix(s as u64);
        }
        for bufs in [&self.sym, &self.ldst, &self.landing] {
            for pe in bufs {
                for val in pe {
                    mix(0x5bd1_e995 ^ val.len() as u64);
                    for &a in val {
                        mix(a as u64);
                    }
                }
            }
        }
        h
    }
}

impl VcPlane {
    fn new(prog: &Program) -> Self {
        VcPlane {
            clocks: vec![vec![0; prog.n_pes]; prog.n_pes],
            slot_clocks: vec![None; prog.n_pes * prog.plan.n_slots],
            sym_acc: (0..prog.n_pes)
                .map(|_| {
                    (0..prog.sym_len)
                        .map(|_| Access {
                            w_pe: 0,
                            w_clk: 0,
                            w_ref: None,
                            r_clk: vec![0; prog.n_pes],
                            r_ref: vec![None; prog.n_pes],
                        })
                        .collect()
                })
                .collect(),
            violations: Vec::new(),
        }
    }

    fn read(&mut self, by: usize, pe: usize, idx: usize, r: Option<OpRef>) {
        let acc = &mut self.sym_acc[pe][idx];
        if acc.w_clk > self.clocks[by][acc.w_pe] {
            self.violations.push(Violation::ReadBeforeSignal {
                elem: (pe, idx),
                writer: acc.w_ref,
                reader: r,
            });
        }
        acc.r_clk[by] = acc.r_clk[by].max(self.clocks[by][by]);
        acc.r_ref[by] = r;
    }

    fn write(&mut self, by: usize, pe: usize, idx: usize, r: Option<OpRef>) {
        let acc = &mut self.sym_acc[pe][idx];
        if acc.w_clk > self.clocks[by][acc.w_pe] {
            self.violations.push(Violation::WriteRace {
                elem: (pe, idx),
                first: acc.w_ref,
                second: r,
            });
        }
        for q in 0..self.clocks.len() {
            if q != by && acc.r_clk[q] > self.clocks[by][q] {
                self.violations.push(Violation::WriteAfterRead {
                    elem: (pe, idx),
                    reader: acc.r_ref[q],
                    writer: r,
                });
            }
        }
        acc.w_pe = by;
        acc.w_clk = self.clocks[by][by];
        acc.w_ref = r;
    }
}

// ---------------------------------------------------------------------------
// Dense single-PE references.
// ---------------------------------------------------------------------------

/// The collective a schedule claims to implement — everything the dense
/// reference needs to compute the expected final buffers directly, with
/// no schedule interpretation involved.
#[derive(Clone, Debug)]
pub enum CollectiveSpec {
    /// Every PE's `[0, nelems·stride)` window equals the root's initial
    /// window (flat or hierarchical broadcast).
    Broadcast {
        /// Source PE.
        root: usize,
        /// Elements broadcast.
        nelems: usize,
        /// Element stride.
        stride: usize,
    },
    /// The root's symmetric window holds the fold of every PE's initial
    /// window (tree reduction: `GetFold` into the symmetric buffer).
    ReduceTree {
        /// Destination PE.
        root: usize,
        /// Elements reduced.
        nelems: usize,
        /// Element stride.
        stride: usize,
    },
    /// The root's `local_dst` holds its own initial accumulator folded
    /// with every peer's symmetric contribution (linear reduction:
    /// `GetFoldInto`).
    ReduceLinear {
        /// Destination PE.
        root: usize,
        /// Elements reduced.
        nelems: usize,
        /// Element stride.
        stride: usize,
    },
    /// Virtual rank `v`'s PE holds the root's initial
    /// `[adj_disp[v], adj_disp[v+1])` segment.
    Scatter {
        /// Source PE.
        root: usize,
        /// Adjusted (virtual-rank-ordered) displacement table,
        /// `n_pes + 1` entries.
        adj_disp: Vec<usize>,
    },
    /// The root holds every virtual rank's initial segment.
    Gather {
        /// Destination PE.
        root: usize,
        /// Adjusted displacement table, `n_pes + 1` entries.
        adj_disp: Vec<usize>,
    },
    /// Every PE's window holds the fold of all PEs' initial windows.
    /// The reference is the dense multiset union, exact for any `n_pes`
    /// — the generators (recursive doubling, Rabenseifner, ring) fold
    /// their non-power-of-two tails internally.
    AllReduce {
        /// Elements reduced.
        nelems: usize,
    },
    /// Every PE's buffer holds PE `s`'s `local_src` at `[s·per_pe, …)`.
    AllGather {
        /// Elements contributed per PE.
        per_pe: usize,
    },
    /// Every PE's buffer holds PE `s`'s first `counts[s]` `local_src`
    /// elements at rank `s`'s prefix displacement — the irregular
    /// [`AllGather`](CollectiveSpec::AllGather), with zero-length blocks
    /// contributing (and constraining) nothing.
    AllGatherV {
        /// Elements contributed per PE, one entry per PE.
        counts: Vec<usize>,
    },
    /// PE `d`'s buffer holds PE `s`'s `local_src[d·per_pe ..]` at
    /// `[s·per_pe, …)`.
    AllToAll {
        /// Elements exchanged per PE pair.
        per_pe: usize,
    },
    /// Team broadcast: members hold the global root's window, and — the
    /// stronger half of the check — every non-member's buffer is
    /// untouched.
    TeamBroadcast {
        /// Global ranks of the team, in team-rank order.
        members: Vec<usize>,
        /// Global rank of the sending member.
        root_global: usize,
        /// Elements broadcast.
        nelems: usize,
    },
    /// Team reduction to team rank 0; non-members untouched.
    TeamReduce {
        /// Global ranks of the team, in team-rank order.
        members: Vec<usize>,
        /// Elements reduced.
        nelems: usize,
    },
    /// No final-buffer expectation — happens-before, race, deadlock and
    /// stranded-signal checking only.
    Unchecked,
}

/// Expected final buffers: `None` entries are unconstrained (scratch a
/// schedule may legitimately dirty), `Some(v)` must match exactly.
pub struct Expectation {
    sym: Vec<Vec<Option<Val>>>,
    ldst: Vec<Vec<Option<Val>>>,
}

impl CollectiveSpec {
    /// Symmetric/local-dst extents the spec itself constrains (a trivial
    /// schedule — e.g. `n_pes == 1` — may materialise smaller buffers
    /// than the collective's definition covers; the expectation is still
    /// checked over the full definition, with unmaterialised elements
    /// provably at their initial value).
    fn min_extent(&self) -> (usize, usize) {
        let win = |nelems: usize, stride: usize| {
            if nelems == 0 {
                0
            } else {
                (nelems - 1) * stride + 1
            }
        };
        match self {
            CollectiveSpec::Broadcast { nelems, stride, .. }
            | CollectiveSpec::ReduceTree { nelems, stride, .. } => (win(*nelems, *stride), 0),
            CollectiveSpec::ReduceLinear { nelems, stride, .. } => (0, win(*nelems, *stride)),
            CollectiveSpec::Scatter { adj_disp, .. } | CollectiveSpec::Gather { adj_disp, .. } => {
                (adj_disp.last().copied().unwrap_or(0), 0)
            }
            CollectiveSpec::AllReduce { nelems } => (*nelems, 0),
            CollectiveSpec::AllGatherV { counts } => (counts.iter().sum(), 0),
            // Sized against n_pes by the caller.
            CollectiveSpec::AllGather { .. } | CollectiveSpec::AllToAll { .. } => (0, 0),
            CollectiveSpec::TeamBroadcast { nelems, .. }
            | CollectiveSpec::TeamReduce { nelems, .. } => (*nelems, 0),
            CollectiveSpec::Unchecked => (0, 0),
        }
    }

    /// Compute the dense reference for a world of `n_pes` with the given
    /// buffer geometry — plain loops over the collective's definition.
    pub fn expected(&self, n_pes: usize, sym_len: usize, ldst_len: usize) -> Expectation {
        let (need_sym, need_ldst) = match self {
            CollectiveSpec::AllGather { per_pe } | CollectiveSpec::AllToAll { per_pe } => {
                (n_pes * per_pe, 0)
            }
            _ => self.min_extent(),
        };
        let sym_len = sym_len.max(need_sym);
        let ldst_len = ldst_len.max(need_ldst);
        let mut sym: Vec<Vec<Option<Val>>> = vec![vec![None; sym_len]; n_pes];
        let mut ldst: Vec<Vec<Option<Val>>> = vec![vec![None; ldst_len]; n_pes];
        match self {
            CollectiveSpec::Broadcast {
                root,
                nelems,
                stride,
            } => {
                for row in sym.iter_mut() {
                    for j in 0..*nelems {
                        let pos = j * stride;
                        row[pos] = Some(vec![atom(Space::Sym, *root, pos)]);
                    }
                }
            }
            CollectiveSpec::ReduceTree {
                root,
                nelems,
                stride,
            } => {
                for j in 0..*nelems {
                    let pos = j * stride;
                    let mut v: Val = (0..n_pes).map(|p| atom(Space::Sym, p, pos)).collect();
                    v.sort_unstable();
                    sym[*root][pos] = Some(v);
                }
            }
            CollectiveSpec::ReduceLinear {
                root,
                nelems,
                stride,
            } => {
                for j in 0..*nelems {
                    let pos = j * stride;
                    let mut v: Val = (0..n_pes)
                        .filter(|p| p != root)
                        .map(|p| atom(Space::Sym, p, pos))
                        .collect();
                    v.push(atom(Space::LocalDst, *root, pos));
                    v.sort_unstable();
                    ldst[*root][pos] = Some(v);
                }
            }
            CollectiveSpec::Scatter { root, adj_disp } => {
                for v in 0..n_pes {
                    let pe = logical_rank(v, *root, n_pes);
                    let seg = adj_disp[v]..adj_disp[v + 1];
                    for (pos, slot) in sym[pe].iter_mut().enumerate().take(seg.end).skip(seg.start)
                    {
                        *slot = Some(vec![atom(Space::Sym, *root, pos)]);
                    }
                }
            }
            CollectiveSpec::Gather { root, adj_disp } => {
                for v in 0..n_pes {
                    let pe = logical_rank(v, *root, n_pes);
                    let seg = adj_disp[v]..adj_disp[v + 1];
                    for (pos, slot) in sym[*root]
                        .iter_mut()
                        .enumerate()
                        .take(seg.end)
                        .skip(seg.start)
                    {
                        *slot = Some(vec![atom(Space::Sym, pe, pos)]);
                    }
                }
            }
            CollectiveSpec::AllReduce { nelems } => {
                // Shape-independent reference: every PE's window must end
                // as the multiset union of *all* PEs' initial windows.
                // Exact for any allreduce composition — butterfly,
                // reduce-then-broadcast, fused — at any world size
                // (folds normalise to sorted multisets, so combine order
                // never matters).
                for row in sym.iter_mut() {
                    for (pos, slot) in row.iter_mut().enumerate().take(*nelems) {
                        let mut v: Val = (0..n_pes).map(|p| atom(Space::Sym, p, pos)).collect();
                        v.sort_unstable();
                        *slot = Some(v);
                    }
                }
            }
            CollectiveSpec::AllGather { per_pe } => {
                for row in sym.iter_mut() {
                    for s in 0..n_pes {
                        for k in 0..*per_pe {
                            row[s * per_pe + k] = Some(vec![atom(Space::LocalSrc, s, k)]);
                        }
                    }
                }
            }
            CollectiveSpec::AllGatherV { counts } => {
                for row in sym.iter_mut() {
                    let mut disp = 0usize;
                    for (s, &c) in counts.iter().enumerate().take(n_pes) {
                        for k in 0..c {
                            row[disp + k] = Some(vec![atom(Space::LocalSrc, s, k)]);
                        }
                        disp += c;
                    }
                }
            }
            CollectiveSpec::AllToAll { per_pe } => {
                for (d, row) in sym.iter_mut().enumerate() {
                    for s in 0..n_pes {
                        for k in 0..*per_pe {
                            row[s * per_pe + k] =
                                Some(vec![atom(Space::LocalSrc, s, d * per_pe + k)]);
                        }
                    }
                }
            }
            CollectiveSpec::TeamBroadcast {
                members,
                root_global,
                nelems,
            } => {
                for (pe, row) in sym.iter_mut().enumerate() {
                    if members.contains(&pe) {
                        for (pos, slot) in row.iter_mut().enumerate().take(*nelems) {
                            *slot = Some(vec![atom(Space::Sym, *root_global, pos)]);
                        }
                    } else {
                        // Non-members must be untouched, everywhere.
                        for (pos, slot) in row.iter_mut().enumerate() {
                            *slot = Some(vec![atom(Space::Sym, pe, pos)]);
                        }
                    }
                }
            }
            CollectiveSpec::TeamReduce { members, nelems } => {
                let root = members[0];
                for (pe, row) in sym.iter_mut().enumerate() {
                    if pe == root {
                        for (pos, slot) in row.iter_mut().enumerate().take(*nelems) {
                            let mut v: Val =
                                members.iter().map(|&m| atom(Space::Sym, m, pos)).collect();
                            v.sort_unstable();
                            *slot = Some(v);
                        }
                    } else if !members.contains(&pe) {
                        for (pos, slot) in row.iter_mut().enumerate() {
                            *slot = Some(vec![atom(Space::Sym, pe, pos)]);
                        }
                    }
                }
            }
            CollectiveSpec::Unchecked => {}
        }
        Expectation { sym, ldst }
    }
}

/// Compare a completed machine against the reference. Elements the
/// schedule never materialised provably hold their initial atom.
pub fn compare(m: &Machine, exp: &Expectation) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let mut scan = |space: Space, rows: &[Vec<Option<Val>>], bufs: &[Vec<Val>]| {
        for (pe, row) in rows.iter().enumerate() {
            for (idx, want) in row.iter().enumerate() {
                let Some(want) = want else { continue };
                let initial;
                let got = match bufs[pe].get(idx) {
                    Some(v) => v,
                    None => {
                        initial = vec![atom(space, pe, idx)];
                        &initial
                    }
                };
                if got != want {
                    out.push(Mismatch {
                        space,
                        pe,
                        idx,
                        expected: want.clone(),
                        got: got.clone(),
                    });
                }
            }
        }
    };
    scan(Space::Sym, &exp.sym, &m.sym);
    scan(Space::LocalDst, &exp.ldst, &m.ldst);
    out
}

/// Run the lowered program under a caller-supplied choice function
/// (`pick(enabled) -> rank`), with the vector-clock plane attached, and
/// check the final state against `spec`.
pub fn run_with(
    prog: &Program,
    spec: &CollectiveSpec,
    mut pick: impl FnMut(&[usize]) -> usize,
) -> ConformanceReport {
    let mut m = Machine::new(prog);
    let mut vc = VcPlane::new(prog);
    let mut steps = 0usize;
    loop {
        if m.all_done(prog) {
            break;
        }
        let enabled = m.enabled(prog);
        if enabled.is_empty() {
            return ConformanceReport {
                sync: prog.sync,
                steps,
                violations: vc.violations,
                mismatches: Vec::new(),
                deadlock: Some(m.deadlock_info(prog)),
            };
        }
        let pe = pick(&enabled);
        debug_assert!(enabled.contains(&pe), "scheduler picked a blocked PE");
        m.step(prog, pe, Some(&mut vc));
        steps += 1;
    }
    for (pe, slot) in m.stranded_slots() {
        vc.violations.push(Violation::StrandedSignal { pe, slot });
    }
    let mismatches = compare(&m, &prog.expectation(spec));
    ConformanceReport {
        sync: prog.sync,
        steps,
        violations: vc.violations,
        mismatches,
        deadlock: None,
    }
}

/// The vector clock every step of `prog` completes with (`[pe][step]`)
/// on the round-robin interleaving. Each signal slot is posted and
/// consumed once, so happens-before — the order these clocks encode — is
/// the same on every interleaving. Steps a wedged run never reached keep
/// an empty clock.
pub(crate) fn step_clocks(prog: &Program) -> Vec<Vec<Vec<u64>>> {
    let mut m = Machine::new(prog);
    let mut vc = VcPlane::new(prog);
    let mut out: Vec<Vec<Vec<u64>>> = (0..prog.n_pes)
        .map(|pe| {
            let mut clocks = vec![Vec::new(); prog.steps(pe).len()];
            // Leading stage markers complete before any step.
            clocks[..m.pc[pe]].fill(vec![0; prog.n_pes]);
            clocks
        })
        .collect();
    let mut rr = RoundRobin::default();
    while !m.all_done(prog) {
        let enabled = m.enabled(prog);
        if enabled.is_empty() {
            break;
        }
        let pe = rr.pick(&enabled);
        let before = m.pc.clone();
        m.step(prog, pe, Some(&mut vc));
        for (q, clocks) in out.iter_mut().enumerate() {
            clocks[before[q]..m.pc[q]].fill(vc.clocks[q].clone());
        }
    }
    out
}

/// The oracle's front door: lower `sched` under `sync` as the runtime
/// does, run the canonical round-robin interleaving of the plan with full
/// happens-before and race checking, and compare the final buffers
/// against `spec`'s dense reference.
pub fn check_schedule(
    sched: &CommSchedule,
    sync: SyncMode,
    spec: &CollectiveSpec,
    cfg: &ModelConfig,
) -> ConformanceReport {
    check_program(&Program::new(sched, sync, cfg), spec)
}

/// [`check_schedule`] over an already lowered (or mutated) program.
pub fn check_program(prog: &Program, spec: &CollectiveSpec) -> ConformanceReport {
    let mut rr = RoundRobin::default();
    run_with(prog, spec, |enabled| rr.pick(enabled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::scatter::adjusted_displacements;
    use crate::collectives::schedule::{
        broadcast_binomial, broadcast_linear_sched, broadcast_ring_sched, gather_binomial,
        reduce_binomial, reduce_linear_sched, scatter_binomial, Stage,
    };
    use crate::fabric::CollectiveKind;

    fn uniform_disp(n: usize, per: usize, root: usize) -> Vec<usize> {
        adjusted_displacements(&vec![per; n], root, n)
    }

    #[test]
    fn oracle_passes_core_generators_under_all_modes() {
        let cfg = ModelConfig::default();
        for n in 1..=8usize {
            for root in [0, n - 1] {
                for sync in SyncMode::CONCRETE {
                    let cases: Vec<(CommSchedule, CollectiveSpec)> = vec![
                        (
                            broadcast_binomial(n, root, 5, 1),
                            CollectiveSpec::Broadcast {
                                root,
                                nelems: 5,
                                stride: 1,
                            },
                        ),
                        (
                            broadcast_linear_sched(n, root, 3, 2),
                            CollectiveSpec::Broadcast {
                                root,
                                nelems: 3,
                                stride: 2,
                            },
                        ),
                        (
                            broadcast_ring_sched(n, root, 4, 1),
                            CollectiveSpec::Broadcast {
                                root,
                                nelems: 4,
                                stride: 1,
                            },
                        ),
                        (
                            reduce_binomial(n, root, 3, 1),
                            CollectiveSpec::ReduceTree {
                                root,
                                nelems: 3,
                                stride: 1,
                            },
                        ),
                        (
                            reduce_linear_sched(n, root, 3, 1),
                            CollectiveSpec::ReduceLinear {
                                root,
                                nelems: 3,
                                stride: 1,
                            },
                        ),
                        (
                            scatter_binomial(n, root, &uniform_disp(n, 2, root)),
                            CollectiveSpec::Scatter {
                                root,
                                adj_disp: uniform_disp(n, 2, root),
                            },
                        ),
                        (
                            gather_binomial(n, root, &uniform_disp(n, 2, root)),
                            CollectiveSpec::Gather {
                                root,
                                adj_disp: uniform_disp(n, 2, root),
                            },
                        ),
                    ];
                    for (sched, spec) in cases {
                        let report = check_schedule(&sched, sync, &spec, &cfg);
                        assert!(
                            report.ok(),
                            "n={n} root={root} {:?} {}: {}",
                            sched.kind,
                            sync.name(),
                            report.summary()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_passes_forced_chunking() {
        // Per-chunk edges at model scale: 6 elements in 3 forced chunks.
        let cfg = ModelConfig {
            elem_bytes: 8,
            force_chunks: Some(3),
        };
        for n in [2, 4, 8] {
            let sched = broadcast_binomial(n, 0, 6, 1);
            let report = check_schedule(
                &sched,
                SyncMode::Pipelined,
                &CollectiveSpec::Broadcast {
                    root: 0,
                    nelems: 6,
                    stride: 1,
                },
                &cfg,
            );
            assert!(report.ok(), "n={n}: {}", report.summary());
        }
    }

    #[test]
    fn oracle_flags_missing_stage_dependency() {
        // Merge both stages of a 4-PE binomial broadcast into one: the
        // forwarding PE may now read its buffer before the root's put.
        let good = broadcast_binomial(4, 0, 2, 1);
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
            nelems: 2,
            stride: 1,
        };
        for sync in SyncMode::CONCRETE {
            let report = check_schedule(&bad, sync, &spec, &ModelConfig::default());
            assert!(
                !report.ok(),
                "{}: merged stages must be flagged",
                sync.name()
            );
        }
    }

    #[test]
    fn oracle_flags_undeferred_butterfly() {
        use crate::collectives::extended::allreduce_recursive_doubling;
        let mut sched = allreduce_recursive_doubling(4, 2);
        for st in &mut sched.stages {
            st.deferred_fold = false;
        }
        // Without the ack protocol both partners can fold into buffers the
        // other side has not finished reading.
        let report = check_schedule(
            &sched,
            SyncMode::Signaled,
            &CollectiveSpec::AllReduce { nelems: 2 },
            &ModelConfig::default(),
        );
        assert!(!report.ok(), "undeferred butterfly must be flagged");
    }

    #[test]
    fn oracle_flags_duplicated_contribution() {
        // A reduce where one contribution is pulled twice: multiset folds
        // make the duplicate visible where a sum of zeros would hide it.
        let mut sched = reduce_binomial(4, 0, 1, 1);
        let dup = sched.stages[0].ops[0];
        sched.stages[1].ops.push(dup);
        let report = check_schedule(
            &sched,
            SyncMode::Barrier,
            &CollectiveSpec::ReduceTree {
                root: 0,
                nelems: 1,
                stride: 1,
            },
            &ModelConfig::default(),
        );
        assert!(!report.ok(), "duplicated fold contribution must be flagged");
    }

    #[test]
    fn empty_schedules_are_trivially_conformant() {
        let sched = broadcast_binomial(1, 0, 9, 1);
        let report = check_schedule(
            &sched,
            SyncMode::Signaled,
            &CollectiveSpec::Broadcast {
                root: 0,
                nelems: 0,
                stride: 1,
            },
            &ModelConfig::default(),
        );
        assert!(report.ok());
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn misrouted_signal_is_caught() {
        let n = 4;
        let adj = uniform_disp(n, 1, 0);
        let sched = gather_binomial(n, 0, &adj);
        let spec = CollectiveSpec::Gather {
            root: 0,
            adj_disp: adj,
        };
        let prog = Program::new(&sched, SyncMode::Signaled, &ModelConfig::default());
        assert!(check_program(&prog, &spec).ok());
        let (mut plan, refs) = prog.into_parts();
        let post = plan.per_pe[1]
            .steps
            .iter_mut()
            .find_map(|s| match s {
                PlanStep::Post { dst_pe, .. } => Some(dst_pe),
                _ => None,
            })
            .expect("a leaf announces readiness");
        *post = (*post + 1) % n as u32;
        let report = check_program(&Program::from_parts(plan, refs), &spec);
        assert!(report.deadlock.is_some(), "{}", report.summary());
    }

    /// The oracle interprets the runtime's own plan, step for step.
    #[test]
    fn oracle_runs_the_runtime_plan() {
        use crate::collectives::plan::lower;
        let sched = reduce_binomial(5, 2, 3, 1);
        for sync in SyncMode::CONCRETE {
            let (plan, _) = Program::new(&sched, sync, &ModelConfig::default()).into_parts();
            assert_eq!(plan, lower(&sched, sync, 8), "{}", sync.name());
        }
    }
}

//! The one lowering and the one executor of the slot/READY/ACK/chunk
//! signal protocol, plus the plan cache.
//!
//! [`lower`] turns a `(CommSchedule, SyncMode, elem_bytes)` triple into a
//! [`Plan`]: per PE, a flat, branch-free array of [`PlanStep`]s with every
//! signal slot, chunk window and fold span pre-resolved and
//! `SyncMode::Auto` decided once. [`PlanStep`] is the only encoding of the
//! protocol: the runtime executes it ([`execute_plan`]), and the
//! conformance oracle and interleaving explorer
//! ([`verify`](crate::collectives::verify),
//! [`explore`](crate::collectives::explore)) interpret the very same
//! steps over provenance atoms, so what is model-checked is what runs.
//!
//! Plans are memoized in a sharded [`PlanCache`] keyed by the full
//! collective shape ([`PlanKey`]); repeat issues of the same collective
//! skip schedule generation, validation, Auto resolution and lowering
//! entirely. Without a cache, each PE lowers only its own program
//! ([`lower_pe`]) on every call. On top of cached plans sit the
//! nonblocking collectives ([`ixbroadcast`]/[`ixreduce`]/[`ixallreduce`]
//! returning a [`CollHandle`]) and their persistent
//! `plan_create`/`plan_start` variants.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::collectives::policy::{
    pipeline_chunks, Algorithm, SyncMode, ACK_SLOT, READY_SLOT, SLOTS_PER_OP,
};
use crate::collectives::schedule::{
    broadcast_binomial, is_put_kind, reduce_binomial, CommSchedule, OpKind, TransferOp,
};
use crate::fabric::{CollectiveKind, CollectiveSample, Pe, SymmAlloc, SymmRef};
use crate::trace::TraceKind;
use crate::types::XbrType;

// ---------------------------------------------------------------------------
// Plan representation
// ---------------------------------------------------------------------------

/// Signal-table slots reserved on the *first* nonblocking issue, in
/// units of that plan's slot window: room for this many same-shaped
/// episodes in flight before a later issue would need to grow the table
/// mid-overlap (which `issue_plan` refuses — growth frees the live
/// table). Deeper windows are possible by pre-sizing with
/// [`Pe::signal_table`](crate::fabric::Pe::signal_table).
const OVERLAP_HEADROOM: usize = 16;

/// One pre-lowered executor action. Offsets are element offsets into the
/// schedule's symmetric working buffer (`*_at`) or the issuer's private
/// `local_src`/`local_dst` slices (`lo..hi` ranges); signal slots are
/// *plan-relative* indices into the fabric's symmetric signal table,
/// rebased at issue time so overlapping nonblocking episodes never
/// collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanStep {
    /// Publish stage `si` to the progress plane and open its trace span.
    /// `si == n_stages` is the signaled drain.
    StageStart {
        /// Stage index.
        si: u32,
    },
    /// Close stage `si`'s trace span.
    StageEnd {
        /// Stage index.
        si: u32,
    },
    /// Full fabric barrier.
    Barrier,
    /// Post signal slot `slot` to `dst_pe` (readiness announcements).
    Post {
        /// Plan-relative slot.
        slot: u32,
        /// Target PE.
        dst_pe: u32,
    },
    /// Consume signal slot `slot` on this PE, accumulating stall cycles.
    Wait {
        /// Plan-relative slot.
        slot: u32,
    },
    /// Heap-to-heap put (one chunk of an `OpKind::Put`).
    PutSymm {
        /// Destination element offset in the symmetric buffer.
        dst_at: u32,
        /// Source element offset in the symmetric buffer.
        src_at: u32,
        /// Elements in this chunk.
        nelems: u32,
        /// Element stride.
        stride: u32,
        /// Target PE.
        dst_pe: u32,
        /// Completion signal slot (remote targets only).
        sig: Option<u32>,
        /// Chunk index when the op was pipelined into >1 chunks (drives
        /// the per-chunk trace event); `None` for unchunked transfers.
        chunk: Option<u32>,
    },
    /// Blocking put from `local_src[src_lo..src_hi]`.
    PutFrom {
        /// Destination element offset in the symmetric buffer.
        dst_at: u32,
        /// Start of the private source window.
        src_lo: u32,
        /// End of the private source window.
        src_hi: u32,
        /// Elements in this chunk.
        nelems: u32,
        /// Element stride.
        stride: u32,
        /// Target PE.
        dst_pe: u32,
        /// Completion signal slot (remote targets only).
        sig: Option<u32>,
        /// Chunk index when pipelined (see [`PlanStep::PutSymm::chunk`]).
        chunk: Option<u32>,
    },
    /// Non-blocking put from `local_src[src_lo..src_hi]`; the signal (if
    /// any) is stamped with the transfer's completion time.
    PutNb {
        /// Destination element offset in the symmetric buffer.
        dst_at: u32,
        /// Start of the private source window.
        src_lo: u32,
        /// End of the private source window.
        src_hi: u32,
        /// Elements in this chunk.
        nelems: u32,
        /// Element stride.
        stride: u32,
        /// Target PE.
        dst_pe: u32,
        /// Completion signal slot (remote targets only).
        sig: Option<u32>,
        /// Chunk index when pipelined.
        chunk: Option<u32>,
    },
    /// Heap-to-heap get.
    GetSymm {
        /// Destination element offset in the symmetric buffer.
        dst_at: u32,
        /// Source element offset in the symmetric buffer.
        src_at: u32,
        /// Elements.
        nelems: u32,
        /// Element stride.
        stride: u32,
        /// Source PE.
        src_pe: u32,
    },
    /// Get into `local_dst[dst_lo..dst_hi]`.
    GetInto {
        /// Start of the private destination window.
        dst_lo: u32,
        /// End of the private destination window.
        dst_hi: u32,
        /// Source element offset in the symmetric buffer.
        src_at: u32,
        /// Elements.
        nelems: u32,
        /// Element stride.
        stride: u32,
        /// Source PE.
        src_pe: u32,
    },
    /// Get into the reusable landing buffer, optionally acknowledging the
    /// read to the source PE (`get_signal`).
    GetLanding {
        /// Source element offset in the symmetric buffer.
        src_at: u32,
        /// Elements.
        nelems: u32,
        /// Element stride.
        stride: u32,
        /// Source PE.
        src_pe: u32,
        /// Acknowledgement slot posted to `src_pe` after the read.
        ack: Option<u32>,
    },
    /// Fold the landing buffer into the symmetric buffer at `dst_at`
    /// (`OpKind::GetFold`), over `span` elements read-modify-written.
    FoldSymm {
        /// Destination element offset in the symmetric buffer.
        dst_at: u32,
        /// Elements folded.
        nelems: u32,
        /// Element stride.
        stride: u32,
        /// Contiguous span read back and rewritten (`op.span().max(1)`).
        span: u32,
    },
    /// Fold the landing buffer into `local_dst` at `dst_at`
    /// (`OpKind::GetFoldInto`).
    FoldInto {
        /// Destination element offset in `local_dst`.
        dst_at: u32,
        /// Elements folded.
        nelems: u32,
        /// Element stride.
        stride: u32,
    },
}

/// The static (shape-determined) part of a [`CollectiveSample`]: every
/// counter except the two that depend on runtime timing (`cycles`,
/// `wait_cycles`). Pre-computed at lowering time so the plan executor
/// does no per-op counter arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SampleTemplate {
    /// Puts this PE issues per episode.
    pub puts: u64,
    /// Gets this PE issues per episode.
    pub gets: u64,
    /// Bytes this PE pushes per episode.
    pub bytes_put: u64,
    /// Bytes this PE pulls per episode.
    pub bytes_get: u64,
    /// Stages in the schedule.
    pub stages: u64,
    /// Signals this PE posts per episode.
    pub signals: u64,
    /// Signal waits this PE performs per episode.
    pub waits: u64,
}

impl SampleTemplate {
    /// Materialise a [`CollectiveSample`] with the given dynamic counters.
    pub fn sample(&self, cycles: u64, wait_cycles: u64) -> CollectiveSample {
        CollectiveSample {
            puts: self.puts,
            gets: self.gets,
            bytes_put: self.bytes_put,
            bytes_get: self.bytes_get,
            stages: self.stages,
            cycles,
            signals: self.signals,
            waits: self.waits,
            wait_cycles,
        }
    }
}

/// One PE's compiled program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeProgram {
    /// Flat step array, stage structure already linearised.
    pub steps: Vec<PlanStep>,
    /// Index of the first *drain* step (signal waits + closing barrier).
    /// A nonblocking issue runs `steps[..drain_from]`; `wait` runs the
    /// rest. Barrier-discipline plans have `drain_from == steps.len()`
    /// (the whole episode completes at issue).
    pub drain_from: usize,
    /// Landing-buffer elements this PE's folds need.
    pub landing_len: usize,
    /// Static telemetry counters for one episode.
    pub sample: SampleTemplate,
}

/// A fully lowered collective: per-PE step arrays plus the header facts
/// every episode needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Telemetry kind episodes report under.
    pub kind: CollectiveKind,
    /// The **resolved** sync discipline (`Auto` decided at build time —
    /// never re-checked at issue).
    pub sync: SyncMode,
    /// Element size the plan was lowered for.
    pub elem_bytes: usize,
    /// World size.
    pub n_pes: usize,
    /// Stage count of the source schedule.
    pub n_stages: usize,
    /// `true` when no op moves data: the episode is only a telemetry
    /// note, with no barriers, transfers or progress traffic.
    pub empty: bool,
    /// Signal-table slots one episode occupies (0 under the barrier
    /// discipline).
    pub n_slots: usize,
    /// Per-PE programs, indexed by rank.
    pub per_pe: Vec<PeProgram>,
}

impl Plan {
    /// Rough heap footprint, for cache telemetry.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Plan>()
            + self
                .per_pe
                .iter()
                .map(|p| {
                    std::mem::size_of::<PeProgram>()
                        + p.steps.len() * std::mem::size_of::<PlanStep>()
                })
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// Coordinates of the schedule op a plan step was lowered from. Only the
/// conformance oracle reads them (to name ops in its reports); plain
/// [`lower`] never materialises them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRef {
    /// Stage index in the schedule.
    pub stage: usize,
    /// Op index within the stage.
    pub op: usize,
    /// Pipeline chunk, when the op was chunked.
    pub chunk: Option<usize>,
}

impl std::fmt::Display for OpRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage {} op {}", self.stage, self.op)?;
        if let Some(c) = self.chunk {
            write!(f, " chunk {c}")?;
        }
        Ok(())
    }
}

/// Where lowering writes its steps. The runtime's sink is the bare step
/// vector, whose `at` is a no-op the optimiser deletes; the oracle's
/// [`Traced`] sink also records the op each step belongs to.
pub(crate) trait StepSink {
    /// Append one step, attributed to the op last named by `at`.
    fn push(&mut self, step: PlanStep);
    /// Name the op the following steps belong to (`None`: barriers,
    /// stage markers and the drain).
    fn at(&mut self, _op: Option<OpRef>) {}
    /// Steps emitted so far.
    fn len(&self) -> usize;
}

impl StepSink for Vec<PlanStep> {
    #[inline]
    fn push(&mut self, step: PlanStep) {
        Vec::push(self, step);
    }
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// Steps paired one-to-one with the op coordinates they were lowered from.
#[derive(Default)]
pub(crate) struct Traced {
    pub steps: Vec<PlanStep>,
    pub refs: Vec<Option<OpRef>>,
    cur: Option<OpRef>,
}

impl StepSink for Traced {
    fn push(&mut self, step: PlanStep) {
        self.steps.push(step);
        self.refs.push(self.cur);
    }
    fn at(&mut self, op: Option<OpRef>) {
        self.cur = op;
    }
    fn len(&self) -> usize {
        self.steps.len()
    }
}

/// Chunk `c` of `n` of an op covers elements `[c·per, min((c+1)·per, nelems))`.
fn chunk_elems(op: &TransferOp, c: usize, n: usize) -> (usize, usize) {
    let per = op.nelems.div_ceil(n);
    ((c * per).min(op.nelems), ((c + 1) * per).min(op.nelems))
}

/// Contiguous element range `[start, end)` that chunk window `[c0, c1)` of
/// a strided span occupies, measured from buffer offset `at`. An empty
/// window maps to an empty range rather than underflowing on `c1 - 1`.
fn chunk_range(at: usize, stride: usize, c0: usize, c1: usize) -> (usize, usize) {
    if c1 <= c0 {
        return (at, at);
    }
    (at + c0 * stride, at + (c1 - 1) * stride + 1)
}

/// The put step moving elements `[c0, c1)` of a put-kind op, with its
/// completion signal and pipeline chunk tag.
fn put_step(
    op: &TransferOp,
    c0: usize,
    c1: usize,
    sig: Option<u32>,
    chunk: Option<u32>,
) -> PlanStep {
    let dst_at = (op.dst_at + c0 * op.stride) as u32;
    let nelems = (c1 - c0) as u32;
    let stride = op.stride as u32;
    let dst_pe = op.dst_pe as u32;
    let (s0, s1) = chunk_range(op.src_at, op.stride, c0, c1);
    match op.kind {
        OpKind::Put => PlanStep::PutSymm {
            dst_at,
            src_at: (op.src_at + c0 * op.stride) as u32,
            nelems,
            stride,
            dst_pe,
            sig,
            chunk,
        },
        OpKind::PutFrom => PlanStep::PutFrom {
            dst_at,
            src_lo: s0 as u32,
            src_hi: s1 as u32,
            nelems,
            stride,
            dst_pe,
            sig,
            chunk,
        },
        OpKind::PutNb => PlanStep::PutNb {
            dst_at,
            src_lo: s0 as u32,
            src_hi: s1 as u32,
            nelems,
            stride,
            dst_pe,
            sig,
            chunk,
        },
        _ => unreachable!("put_step on a get-kind op"),
    }
}

/// The data-moving step of a get-kind op (folds land in the landing
/// buffer; their combine is [`fold_step`]).
fn get_step(op: &TransferOp) -> PlanStep {
    let (src_at, nelems, stride, src_pe) = (
        op.src_at as u32,
        op.nelems as u32,
        op.stride as u32,
        op.src_pe as u32,
    );
    match op.kind {
        OpKind::Get => PlanStep::GetSymm {
            dst_at: op.dst_at as u32,
            src_at,
            nelems,
            stride,
            src_pe,
        },
        OpKind::GetInto => PlanStep::GetInto {
            dst_lo: op.dst_at as u32,
            dst_hi: (op.dst_at + op.span()) as u32,
            src_at,
            nelems,
            stride,
            src_pe,
        },
        OpKind::GetFold | OpKind::GetFoldInto => PlanStep::GetLanding {
            src_at,
            nelems,
            stride,
            src_pe,
            ack: None,
        },
        _ => unreachable!("get_step on a put-kind op"),
    }
}

fn fold_step(op: &TransferOp) -> PlanStep {
    match op.kind {
        OpKind::GetFold => PlanStep::FoldSymm {
            dst_at: op.dst_at as u32,
            nelems: op.nelems as u32,
            stride: op.stride as u32,
            span: op.span().max(1) as u32,
        },
        OpKind::GetFoldInto => PlanStep::FoldInto {
            dst_at: op.dst_at as u32,
            nelems: op.nelems as u32,
            stride: op.stride as u32,
        },
        _ => unreachable!("fold_step on a non-fold op"),
    }
}

/// An incoming put chunk whose completion signal this PE has not consumed
/// yet, with the element range it lands in.
struct Pending {
    slot: usize,
    start: usize,
    end: usize,
}

/// One PE's program under construction: the sink, the static telemetry
/// counters, and the pending incoming-put list that turns region reuse
/// into point-to-point `Wait`s.
struct Emitter<S> {
    out: S,
    tmpl: SampleTemplate,
    pending: Vec<Pending>,
    es: usize,
}

impl<S: StepSink> Emitter<S> {
    fn op(&mut self, stage: usize, op: usize, chunk: Option<usize>) {
        self.out.at(Some(OpRef { stage, op, chunk }));
    }

    fn control(&mut self, step: PlanStep) {
        self.out.at(None);
        self.out.push(step);
    }

    fn put(&mut self, step: PlanStep, nelems: usize) {
        self.out.push(step);
        self.tmpl.puts += 1;
        self.tmpl.bytes_put += (nelems * self.es) as u64;
    }

    fn get(&mut self, step: PlanStep, nelems: usize) {
        self.out.push(step);
        self.tmpl.gets += 1;
        self.tmpl.bytes_get += (nelems * self.es) as u64;
    }

    fn post(&mut self, slot: usize, dst_pe: usize) {
        self.out.push(PlanStep::Post {
            slot: slot as u32,
            dst_pe: dst_pe as u32,
        });
        self.tmpl.signals += 1;
    }

    fn wait(&mut self, slot: usize) {
        self.out.push(PlanStep::Wait { slot: slot as u32 });
        self.tmpl.waits += 1;
    }

    /// Before this PE touches `[start, end)` of its own symmetric buffer,
    /// consume the pending signals of incoming puts that overlap it —
    /// the point-to-point replacement for the stage barrier. The
    /// `swap_remove` scan fixes the order the waits are emitted in.
    fn consume(&mut self, start: usize, end: usize) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].start < end && start < self.pending[i].end {
                let p = self.pending.swap_remove(i);
                self.wait(p.slot);
            } else {
                i += 1;
            }
        }
    }
}

/// The schedule-wide facts every PE's lowering shares, computed once:
/// the resolved discipline, the op-index base of each stage (signal-slot
/// addressing) and the pipeline chunking rule.
struct Lowering<'a> {
    sched: &'a CommSchedule,
    es: usize,
    sync: SyncMode,
    empty: bool,
    op_base: Vec<usize>,
    force_chunks: Option<usize>,
}

impl<'a> Lowering<'a> {
    fn new(
        sched: &'a CommSchedule,
        sync: SyncMode,
        es: usize,
        force_chunks: Option<usize>,
    ) -> Self {
        sched.validate();
        Lowering {
            sched,
            es,
            sync: sched.resolve_sync(sync, es),
            empty: !sched.ops().any(|op| op.nelems > 0),
            op_base: sched.op_bases(),
            force_chunks,
        }
    }

    fn n_slots(&self) -> usize {
        if self.empty || self.sync == SyncMode::Barrier {
            0
        } else {
            self.sched.total_ops() * SLOTS_PER_OP
        }
    }

    /// The plan's header fields, with no per-PE programs yet.
    fn header(&self) -> Plan {
        Plan {
            kind: self.sched.kind,
            sync: self.sync,
            elem_bytes: self.es,
            n_pes: self.sched.n_pes,
            n_stages: self.sched.stages.len(),
            empty: self.empty,
            n_slots: self.n_slots(),
            per_pe: Vec::new(),
        }
    }

    /// Pipeline segments of `op`: one unless the discipline is pipelined
    /// and the op pushes data. A forced count (the oracle's way to reach
    /// per-chunk edges at model-checkable payloads) is clamped to the
    /// chunk slots each op owns and to the op's element count.
    fn chunks_of(&self, op: &TransferOp) -> usize {
        if self.sync != SyncMode::Pipelined || !is_put_kind(op.kind) {
            return 1;
        }
        match self.force_chunks {
            Some(k) => k.clamp(1, SLOTS_PER_OP - 2).min(op.nelems.max(1)),
            None => pipeline_chunks(op.nelems * self.es),
        }
    }

    fn program(&self, me: usize) -> PeProgram {
        let (steps, drain_from, sample): (Vec<PlanStep>, _, _) = self.emit(me);
        self.finish(me, steps, drain_from, sample)
    }

    fn finish(
        &self,
        me: usize,
        steps: Vec<PlanStep>,
        drain_from: usize,
        sample: SampleTemplate,
    ) -> PeProgram {
        let folds = self
            .sched
            .ops()
            .filter(|op| op.is_fold() && op.dst_pe == me);
        let landing_len = if self.empty {
            0
        } else {
            folds.map(|op| op.span().max(1)).max().unwrap_or(0)
        };
        PeProgram {
            steps,
            drain_from,
            landing_len,
            sample,
        }
    }

    /// Emit PE `me`'s steps; returns them with the drain start and the
    /// static telemetry counters.
    fn emit<S: StepSink + Default>(&self, me: usize) -> (S, usize, SampleTemplate) {
        let mut em = Emitter {
            out: S::default(),
            tmpl: SampleTemplate {
                stages: self.sched.stages.len() as u64,
                ..SampleTemplate::default()
            },
            pending: Vec::new(),
            es: self.es,
        };
        if self.empty {
            return (em.out, 0, em.tmpl);
        }
        if self.sync == SyncMode::Barrier {
            self.emit_barrier(me, &mut em);
            let drain_from = em.out.len();
            return (em.out, drain_from, em.tmpl);
        }
        self.emit_signaled(me, &mut em);
        let drain_from = em.out.len();
        // Drain: consume every signal still in flight toward this PE, so
        // the signal table is all-zero again when the collective closes.
        // Published as one-past-the-last stage so a DeadlockReport can
        // tell "stuck in the drain" apart from "stuck inside a stage".
        let n_stages = self.sched.stages.len() as u32;
        em.control(PlanStep::StageStart { si: n_stages });
        for p in std::mem::take(&mut em.pending) {
            em.wait(p.slot);
        }
        em.control(PlanStep::Barrier);
        em.control(PlanStep::StageEnd { si: n_stages });
        (em.out, drain_from, em.tmpl)
    }

    /// The paper's discipline: each PE issues the ops it owns and a
    /// barrier closes every stage. A `deferred_fold` stage lands every
    /// read before a mid-stage barrier and folds after it, because both
    /// partners read each other's buffer.
    fn emit_barrier<S: StepSink>(&self, me: usize, em: &mut Emitter<S>) {
        for (si, stage) in self.sched.stages.iter().enumerate() {
            em.control(PlanStep::StageStart { si: si as u32 });
            let mine = stage
                .ops
                .iter()
                .enumerate()
                .filter(|(_, op)| op.issuer() == me);
            for (oi, op) in mine.clone() {
                em.op(si, oi, None);
                if is_put_kind(op.kind) {
                    em.put(put_step(op, 0, op.nelems, None, None), op.nelems);
                } else {
                    em.get(get_step(op), op.nelems);
                    if op.is_fold() && !stage.deferred_fold {
                        em.out.push(fold_step(op));
                    }
                }
            }
            if stage.deferred_fold {
                em.control(PlanStep::Barrier);
                for (oi, op) in mine {
                    em.op(si, oi, None);
                    em.out.push(fold_step(op));
                }
            }
            em.control(PlanStep::Barrier);
            em.control(PlanStep::StageEnd { si: si as u32 });
        }
    }

    /// The signaled and pipelined disciplines: no per-stage barriers.
    /// Slots are addressed by global op index, [`SLOTS_PER_OP`] per op,
    /// on the PE that waits on them: data chunks on the put's target,
    /// readiness on the get's issuer, acknowledgement on the read
    /// segment's owner.
    fn emit_signaled<S: StepSink>(&self, me: usize, em: &mut Emitter<S>) {
        for (si, stage) in self.sched.stages.iter().enumerate() {
            em.control(PlanStep::StageStart { si: si as u32 });
            let ops = stage.ops.iter().enumerate();
            let base = self.op_base[si];
            let slot = |oi: usize, role: usize| (base + oi) * SLOTS_PER_OP + role;
            // PE `me` is read this stage by a peer through `op`.
            let read_by_peer = |op: &TransferOp| {
                op.nelems > 0
                    && op.src_pe == me
                    && op.issuer() != me
                    && (stage.deferred_fold || !is_put_kind(op.kind))
            };
            // Readiness first: peers pulling from me this stage unblock
            // as soon as my segment is consistent.
            for (oi, op) in ops.clone() {
                if read_by_peer(op) {
                    em.op(si, oi, None);
                    em.consume(op.src_at, op.src_at + op.span());
                    em.post(slot(oi, READY_SLOT), op.dst_pe);
                }
            }
            let mine = ops
                .clone()
                .filter(|(_, op)| op.issuer() == me && op.nelems > 0);
            if stage.deferred_fold {
                // Pull my partners' segments, acknowledging each read…
                for (oi, op) in mine.clone() {
                    em.op(si, oi, None);
                    if op.src_pe != me {
                        em.wait(slot(oi, READY_SLOT));
                        em.get(
                            PlanStep::GetLanding {
                                src_at: op.src_at as u32,
                                nelems: op.nelems as u32,
                                stride: op.stride as u32,
                                src_pe: op.src_pe as u32,
                                ack: Some(slot(oi, ACK_SLOT) as u32),
                            },
                            op.nelems,
                        );
                        em.tmpl.signals += 1;
                    } else {
                        em.get(get_step(op), op.nelems);
                    }
                }
                // …wait until my own segment has been read, then fold.
                for (oi, op) in ops.clone() {
                    if read_by_peer(op) {
                        em.op(si, oi, None);
                        em.wait(slot(oi, ACK_SLOT));
                    }
                }
                for (oi, op) in mine {
                    em.op(si, oi, None);
                    em.out.push(fold_step(op));
                }
                em.control(PlanStep::StageEnd { si: si as u32 });
                continue;
            }

            for (oi, op) in mine {
                if is_put_kind(op.kind) {
                    let n = self.chunks_of(op);
                    for c in 0..n {
                        let (c0, c1) = chunk_elems(op, c, n);
                        if c0 >= c1 {
                            continue;
                        }
                        let chunk = (n > 1).then_some(c);
                        em.op(si, oi, chunk);
                        // Forwarding dependency, per segment: only a put
                        // from the symmetric buffer can read a region an
                        // incoming put still writes.
                        if op.kind == OpKind::Put {
                            let (s0, s1) = chunk_range(op.src_at, op.stride, c0, c1);
                            em.consume(s0, s1);
                        }
                        let remote = op.dst_pe != me;
                        let sig = remote.then_some(slot(oi, c) as u32);
                        em.put(put_step(op, c0, c1, sig, chunk.map(|c| c as u32)), c1 - c0);
                        if remote {
                            em.tmpl.signals += 1;
                        }
                    }
                    continue;
                }
                em.op(si, oi, None);
                if op.src_pe != me {
                    em.wait(slot(oi, READY_SLOT));
                } else if op.kind != OpKind::Get {
                    em.consume(op.src_at, op.src_at + op.span());
                }
                let dst = (op.dst_at, op.dst_at + op.span());
                if op.kind == OpKind::Get {
                    em.consume(dst.0, dst.1);
                }
                em.get(get_step(op), op.nelems);
                if op.kind == OpKind::GetFold {
                    em.consume(dst.0, dst.1);
                }
                if op.is_fold() {
                    em.out.push(fold_step(op));
                }
            }

            // This stage's puts into my buffer become pending: later
            // stages (or the drain) consume their signals before
            // touching the regions they land in.
            for (oi, op) in ops {
                if op.nelems == 0 || !is_put_kind(op.kind) || op.dst_pe != me || op.src_pe == me {
                    continue;
                }
                let n = self.chunks_of(op);
                for c in 0..n {
                    let (c0, c1) = chunk_elems(op, c, n);
                    if c0 < c1 {
                        let (start, end) = chunk_range(op.dst_at, op.stride, c0, c1);
                        em.pending.push(Pending {
                            slot: slot(oi, c),
                            start,
                            end,
                        });
                    }
                }
            }
            em.control(PlanStep::StageEnd { si: si as u32 });
        }
    }
}

/// Lower `sched` under the requested `sync` into a [`Plan`]: one
/// [`lower_pe`] program per rank over shared schedule-wide facts.
///
/// `SyncMode::Auto` is resolved **here**, once, through
/// [`CommSchedule::resolve_sync`]; the resolved discipline is recorded
/// in [`Plan::sync`] and never re-checked at issue.
pub fn lower(sched: &CommSchedule, sync: SyncMode, elem_bytes: usize) -> Plan {
    let l = Lowering::new(sched, sync, elem_bytes, None);
    let mut plan = l.header();
    plan.per_pe = (0..sched.n_pes).map(|me| l.program(me)).collect();
    plan
}

/// Lower PE `me`'s program alone — the whole cost of an uncached issue,
/// O(ops). Returns the plan's header (its `per_pe` left empty) and the
/// program [`lower`] would put at `per_pe[me]`.
pub fn lower_pe(
    sched: &CommSchedule,
    sync: SyncMode,
    elem_bytes: usize,
    me: usize,
) -> (Plan, PeProgram) {
    assert!(
        me < sched.n_pes,
        "PE {me} outside a schedule built for {} PEs",
        sched.n_pes
    );
    let l = Lowering::new(sched, sync, elem_bytes, None);
    (l.header(), l.program(me))
}

/// [`lower`] for the conformance oracle: an optional forced pipeline
/// chunk count, plus the [`OpRef`] of every emitted step, per PE.
pub(crate) fn lower_traced(
    sched: &CommSchedule,
    sync: SyncMode,
    elem_bytes: usize,
    force_chunks: Option<usize>,
) -> (Plan, Vec<Vec<Option<OpRef>>>) {
    let l = Lowering::new(sched, sync, elem_bytes, force_chunks);
    let mut plan = l.header();
    let mut refs = Vec::with_capacity(sched.n_pes);
    for me in 0..sched.n_pes {
        let (t, drain_from, sample): (Traced, _, _) = l.emit(me);
        plan.per_pe.push(l.finish(me, t.steps, drain_from, sample));
        refs.push(t.refs);
    }
    (plan, refs)
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

/// Run a step window. `base` rebases every plan-relative signal slot
/// (nonblocking overlap support); blocking execution passes the PE's
/// current slot floor. Returns accumulated signal-wait stall cycles.
#[allow(clippy::too_many_arguments)]
fn run_steps<T: XbrType>(
    pe: &Pe,
    steps: &[PlanStep],
    base: usize,
    table: Option<SymmRef<u64>>,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn Fn(T, T) -> T>,
    landing: &mut [T],
) -> u64 {
    let es = std::mem::size_of::<T>();
    let slot_ref = |s: u32| {
        table
            .expect("plan has signal steps but no table")
            .offset(base + s as usize)
    };
    let mut wait_cycles = 0u64;
    let mut t_st: Option<u64> = None;
    for step in steps {
        match *step {
            PlanStep::StageStart { si } => {
                pe.progress_stage(si as usize);
                t_st = pe.trace_start();
            }
            PlanStep::StageEnd { si } => {
                pe.trace_emit(t_st, TraceKind::Stage, None, 0, si as u64);
            }
            PlanStep::Barrier => pe.barrier(),
            PlanStep::Post { slot, dst_pe } => {
                pe.signal_post(slot_ref(slot), dst_pe as usize);
            }
            PlanStep::Wait { slot } => {
                wait_cycles += pe.signal_wait(slot_ref(slot));
            }
            PlanStep::PutSymm {
                dst_at,
                src_at,
                nelems,
                stride,
                dst_pe,
                sig,
                chunk,
            } => {
                let t_ck = if chunk.is_some() {
                    pe.trace_start()
                } else {
                    None
                };
                match sig {
                    Some(s) => pe.put_symm_signal(
                        buf.offset(dst_at as usize),
                        buf.offset(src_at as usize),
                        nelems as usize,
                        stride as usize,
                        dst_pe as usize,
                        slot_ref(s),
                    ),
                    None => pe.put_symm(
                        buf.offset(dst_at as usize),
                        buf.offset(src_at as usize),
                        nelems as usize,
                        stride as usize,
                        dst_pe as usize,
                    ),
                }
                if let Some(c) = chunk {
                    pe.trace_emit(
                        t_ck,
                        TraceKind::Chunk,
                        Some(dst_pe as usize),
                        (nelems as usize * es) as u64,
                        c as u64,
                    );
                }
            }
            PlanStep::PutFrom {
                dst_at,
                src_lo,
                src_hi,
                nelems,
                stride,
                dst_pe,
                sig,
                chunk,
            } => {
                let t_ck = if chunk.is_some() {
                    pe.trace_start()
                } else {
                    None
                };
                let seg = &local_src[src_lo as usize..src_hi as usize];
                match sig {
                    Some(s) => pe.put_signal(
                        buf.offset(dst_at as usize),
                        seg,
                        nelems as usize,
                        stride as usize,
                        dst_pe as usize,
                        slot_ref(s),
                    ),
                    None => pe.put(
                        buf.offset(dst_at as usize),
                        seg,
                        nelems as usize,
                        stride as usize,
                        dst_pe as usize,
                    ),
                }
                if let Some(c) = chunk {
                    pe.trace_emit(
                        t_ck,
                        TraceKind::Chunk,
                        Some(dst_pe as usize),
                        (nelems as usize * es) as u64,
                        c as u64,
                    );
                }
            }
            PlanStep::PutNb {
                dst_at,
                src_lo,
                src_hi,
                nelems,
                stride,
                dst_pe,
                sig,
                chunk,
            } => {
                let t_ck = if chunk.is_some() {
                    pe.trace_start()
                } else {
                    None
                };
                let seg = &local_src[src_lo as usize..src_hi as usize];
                let h = pe.put_nb(
                    buf.offset(dst_at as usize),
                    seg,
                    nelems as usize,
                    stride as usize,
                    dst_pe as usize,
                );
                if let Some(s) = sig {
                    pe.signal_post_at(slot_ref(s), dst_pe as usize, h.completion_cycles());
                }
                if let Some(c) = chunk {
                    pe.trace_emit(
                        t_ck,
                        TraceKind::Chunk,
                        Some(dst_pe as usize),
                        (nelems as usize * es) as u64,
                        c as u64,
                    );
                }
            }
            PlanStep::GetSymm {
                dst_at,
                src_at,
                nelems,
                stride,
                src_pe,
            } => {
                pe.get_symm(
                    buf.offset(dst_at as usize),
                    buf.offset(src_at as usize),
                    nelems as usize,
                    stride as usize,
                    src_pe as usize,
                );
            }
            PlanStep::GetInto {
                dst_lo,
                dst_hi,
                src_at,
                nelems,
                stride,
                src_pe,
            } => {
                let seg = &mut local_dst[dst_lo as usize..dst_hi as usize];
                pe.get(
                    seg,
                    buf.offset(src_at as usize),
                    nelems as usize,
                    stride as usize,
                    src_pe as usize,
                );
            }
            PlanStep::GetLanding {
                src_at,
                nelems,
                stride,
                src_pe,
                ack,
            } => match ack {
                Some(s) => pe.get_signal(
                    landing,
                    buf.offset(src_at as usize),
                    nelems as usize,
                    stride as usize,
                    src_pe as usize,
                    slot_ref(s),
                ),
                None => pe.get(
                    landing,
                    buf.offset(src_at as usize),
                    nelems as usize,
                    stride as usize,
                    src_pe as usize,
                ),
            },
            PlanStep::FoldSymm {
                dst_at,
                nelems,
                stride,
                span,
            } => {
                let t_rd = pe.trace_start();
                let f = fold.expect("plan contains fold steps but no fold function was given");
                let mut mine = pe.heap_read_vec::<T>(buf.offset(dst_at as usize), span as usize);
                for j in 0..nelems as usize {
                    let at = j * stride as usize;
                    mine[at] = f(mine[at], landing[at]);
                }
                pe.charge(pe.timing().cost.alu_cycles * nelems as u64);
                pe.heap_write(buf.offset(dst_at as usize), &mine);
                pe.trace_emit(
                    t_rd,
                    TraceKind::Reduce,
                    None,
                    (nelems as usize * es) as u64,
                    0,
                );
            }
            PlanStep::FoldInto {
                dst_at,
                nelems,
                stride,
            } => {
                let t_rd = pe.trace_start();
                let f = fold.expect("plan contains fold steps but no fold function was given");
                for j in 0..nelems as usize {
                    let at = dst_at as usize + j * stride as usize;
                    local_dst[at] = f(local_dst[at], landing[j * stride as usize]);
                }
                pe.charge(pe.timing().cost.alu_cycles * nelems as u64);
                pe.trace_emit(
                    t_rd,
                    TraceKind::Reduce,
                    None,
                    (nelems as usize * es) as u64,
                    0,
                );
            }
        }
    }
    wait_cycles
}

/// Run a compiled plan to completion on this PE. Every PE must call
/// this collectively with the same plan.
///
/// # Panics
/// Panics if the plan was lowered for a different world size or element
/// size, or contains fold steps while `fold` is `None`.
pub fn execute_plan<T: XbrType>(
    pe: &Pe,
    plan: &Plan,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn Fn(T, T) -> T>,
) {
    assert_fits::<T>(pe, plan);
    run_program(
        pe,
        plan,
        &plan.per_pe[pe.rank()],
        buf,
        local_src,
        local_dst,
        fold,
    );
}

/// Panic unless `plan` was lowered for this fabric and element type.
fn assert_fits<T: XbrType>(pe: &Pe, plan: &Plan) {
    assert_eq!(
        plan.n_pes,
        pe.n_pes(),
        "plan built for {} PEs but the fabric has {}",
        plan.n_pes,
        pe.n_pes()
    );
    assert_eq!(
        plan.elem_bytes,
        std::mem::size_of::<T>(),
        "plan lowered for {}-byte elements but T is {} bytes",
        plan.elem_bytes,
        std::mem::size_of::<T>()
    );
}

/// Run this PE's program `prog` of the plan whose header is `plan` (its
/// `per_pe` may be empty: the uncached path lowers one PE alone).
fn run_program<T: XbrType>(
    pe: &Pe,
    plan: &Plan,
    prog: &PeProgram,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn Fn(T, T) -> T>,
) {
    let t0 = pe.cycles();
    if plan.empty {
        pe.note_collective(plan.kind, prog.sample.sample(0, 0));
        return;
    }
    pe.progress_collective(Some(plan.kind));
    let t_ep = pe.trace_start();

    // Blocking plans run at the PE's current slot floor: zero normally,
    // above any outstanding nonblocking episodes otherwise, so mixing
    // blocking and in-flight collectives never collides slots.
    let base = pe.nb_slot_floor();
    // Same growth hazard as `issue_plan`: with episodes in flight the
    // table must already be big enough (growth frees it under them).
    assert!(
        base == 0 || plan.n_slots == 0 || base + plan.n_slots <= pe.signal_table_cap(),
        "PE {}: blocking collective above an overlap window needs {} \
         signal slots but the table holds {}; wait on an outstanding \
         handle, or pre-size with Pe::signal_table before issuing",
        pe.rank(),
        base + plan.n_slots,
        pe.signal_table_cap(),
    );
    let table = (plan.n_slots > 0).then(|| pe.signal_table(base + plan.n_slots));

    let mut landing: Vec<T> = pe.scratch_take();
    landing.resize(prog.landing_len, T::default());
    let wait_cycles = run_steps(
        pe,
        &prog.steps,
        base,
        table,
        buf,
        local_src,
        local_dst,
        fold,
        &mut landing,
    );
    pe.scratch_put(landing);

    pe.trace_emit(t_ep, TraceKind::Collective, None, 0, 0);
    pe.progress_collective(None);
    pe.note_collective(plan.kind, prog.sample.sample(pe.cycles() - t0, wait_cycles));
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Schedule-shape discriminator tags for [`PlanKey::shape`]: two
/// different generators must never share a key even if every scalar
/// field coincides.
pub mod tag {
    /// `broadcast_binomial`.
    pub const BROADCAST_BINOMIAL: u64 = 0;
    /// `broadcast_linear_sched`.
    pub const BROADCAST_LINEAR: u64 = 1;
    /// `broadcast_ring_sched`.
    pub const BROADCAST_RING: u64 = 2;
    /// `reduce_binomial`.
    pub const REDUCE_BINOMIAL: u64 = 3;
    /// `reduce_linear_sched`.
    pub const REDUCE_LINEAR: u64 = 4;
    /// `scatter_binomial`.
    pub const SCATTER_BINOMIAL: u64 = 5;
    /// `scatter_linear_sched`.
    pub const SCATTER_LINEAR: u64 = 6;
    /// `gather_binomial`.
    pub const GATHER_BINOMIAL: u64 = 7;
    /// `gather_linear_sched`.
    pub const GATHER_LINEAR: u64 = 8;
    /// `allreduce_recursive_doubling`.
    pub const ALLREDUCE_RD: u64 = 9;
    /// `all_gather_sched`.
    pub const ALL_GATHER: u64 = 10;
    /// `all_to_all_sched`.
    pub const ALL_TO_ALL: u64 = 11;
    /// `Team::broadcast_schedule`.
    pub const TEAM_BROADCAST: u64 = 12;
    /// `Team::reduce_schedule`.
    pub const TEAM_REDUCE: u64 = 13;
    /// Fused reduce-then-broadcast allreduce ([`super::allreduce_fused`]).
    pub const ALLREDUCE_FUSED: u64 = 14;
    /// `allreduce_rabenseifner`.
    pub const ALLREDUCE_RABENSEIFNER: u64 = 15;
    /// `allreduce_ring`.
    pub const ALLREDUCE_RING: u64 = 16;
    /// `all_gather_doubling_sched`.
    pub const ALL_GATHER_RD: u64 = 17;
    /// [`vcoll::scatterv_ring_sched`](crate::collectives::vcoll).
    pub const SCATTERV_RING: u64 = 18;
    /// [`vcoll::gatherv_ring_sched`](crate::collectives::vcoll).
    pub const GATHERV_RING: u64 = 19;
    /// [`vcoll::allgatherv_fan_sched`](crate::collectives::vcoll).
    pub const ALLGATHERV_FAN: u64 = 20;
    /// [`vcoll::allgatherv_ring_sched`](crate::collectives::vcoll).
    pub const ALLGATHERV_RING: u64 = 21;
    /// [`vcoll::allgatherv_dissemination_sched`](crate::collectives::vcoll).
    pub const ALLGATHERV_DISS: u64 = 22;
    /// [`hierarchical::broadcast_hier_sched`](crate::collectives::hierarchical);
    /// the shape carries `pes_per_node`.
    pub const HIER_BROADCAST: u64 = 23;
    /// [`hierarchical::reduce_hier_sched`](crate::collectives::hierarchical);
    /// the shape carries `pes_per_node`.
    pub const HIER_REDUCE: u64 = 24;
}

/// FNV-1a digest of a counts/displacement table, for keying irregular
/// collectives without carrying the whole table in the [`PlanKey`]: a
/// v-collective's schedule is determined by its per-PE counts, but an
/// `O(n)` shape vector would make key hashing and equality scale with
/// world size on every warm issue. The digest keeps keys `O(1)`; the
/// total element count rides separately in `PlanKey::nelems`, so a
/// (vanishingly unlikely) digest collision additionally needs matching
/// totals before two different tables could alias.
pub fn counts_digest(counts: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in counts {
        for b in (c as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(shape tag, key algorithm)` pair identifying one member of the
/// all-reduce family in a [`PlanKey`]. The tag is what disambiguates
/// plans; the algorithm additionally feeds the per-collective
/// algorithm-mask telemetry (ring shapes report as `Ring`).
pub fn allreduce_plan_id(algo: crate::collectives::extended::AllReduceAlgo) -> (u64, Algorithm) {
    use crate::collectives::extended::AllReduceAlgo;
    match algo {
        AllReduceAlgo::ReduceThenBroadcast => (tag::ALLREDUCE_FUSED, Algorithm::Binomial),
        AllReduceAlgo::RecursiveDoubling => (tag::ALLREDUCE_RD, Algorithm::Binomial),
        AllReduceAlgo::Rabenseifner => (tag::ALLREDUCE_RABENSEIFNER, Algorithm::Binomial),
        AllReduceAlgo::Ring => (tag::ALLREDUCE_RING, Algorithm::Ring),
        AllReduceAlgo::Auto => panic!("resolve AllReduceAlgo::Auto before keying a plan"),
    }
}

/// Everything that determines a lowered plan byte-for-byte: collective,
/// algorithm, the *requested* sync mode (Auto resolves deterministically
/// from the rest of the key), world size, root, payload geometry, element
/// size, and a shape vector carrying whatever else the generator consumed
/// (adjusted displacement tables, team members, generator tag).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Telemetry kind of the schedule.
    pub kind: CollectiveKind,
    /// Concrete algorithm shape (policy Auto is resolved *before* keying).
    pub algo: Algorithm,
    /// Requested sync mode, pre-resolution (`Auto` allowed: it resolves
    /// identically for identical keys).
    pub sync: SyncMode,
    /// World size.
    pub n_pes: usize,
    /// Root rank (0 for rootless collectives).
    pub root: usize,
    /// Element count.
    pub nelems: usize,
    /// Element stride.
    pub stride: usize,
    /// Element size in bytes.
    pub elem_bytes: usize,
    /// Generator tag plus any extra shape data (displacement tables,
    /// team members); first entry is always a [`tag`] constant.
    pub shape: Vec<u64>,
}

impl PlanKey {
    /// Key for the common root-collective shape: tag + scalars, no extra
    /// shape data.
    #[allow(clippy::too_many_arguments)]
    pub fn rooted(
        kind: CollectiveKind,
        algo: Algorithm,
        sync: SyncMode,
        n_pes: usize,
        root: usize,
        nelems: usize,
        stride: usize,
        elem_bytes: usize,
        tag: u64,
    ) -> Self {
        PlanKey {
            kind,
            algo,
            sync,
            n_pes,
            root,
            nelems,
            stride,
            elem_bytes,
            shape: vec![tag],
        }
    }
}

/// Cache telemetry surfaced through
/// [`RunReport::plan_cache`](crate::fabric::RunReport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a compiled plan.
    pub hits: u64,
    /// Lookups that lowered a new plan. Under concurrent issue each
    /// distinct key misses exactly once (builds run under the shard
    /// lock), so `misses == entries` after any run.
    pub misses: u64,
    /// Plans resident.
    pub entries: u64,
    /// Approximate bytes of compiled steps resident.
    pub bytes: u64,
}

impl PlanCacheStats {
    /// Fraction of lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

const PLAN_CACHE_SHARDS: usize = 16;

struct PlanShard {
    map: Mutex<HashMap<PlanKey, Arc<Plan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: AtomicU64,
}

/// Sharded, thread-safe plan memo. Shard selection hashes the key, so
/// concurrent lookups from many PEs (or the coop engine's work-stealing
/// workers) contend only when they race on the *same* collective shape —
/// and then the first arrival builds while the rest block and hit,
/// keeping the hit/miss counters exact (`misses == distinct keys`).
pub struct PlanCache {
    shards: Vec<PlanShard>,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache {
            shards: (0..PLAN_CACHE_SHARDS)
                .map(|_| PlanShard {
                    map: Mutex::new(HashMap::new()),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    bytes: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn shard_of(&self, key: &PlanKey) -> &PlanShard {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Fetch the plan for `key`, lowering it with `build` on first use.
    /// The build runs under the shard lock: peers racing on the same key
    /// block briefly and then hit, so every distinct key is lowered
    /// exactly once and the counters stay race-free.
    pub fn get_or_build(&self, key: &PlanKey, build: impl FnOnce() -> Plan) -> Arc<Plan> {
        let shard = self.shard_of(key);
        let mut map = shard.map.lock().unwrap();
        if let Some(p) = map.get(key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(p);
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build());
        shard
            .bytes
            .fetch_add(plan.approx_bytes() as u64, Ordering::Relaxed);
        map.insert(key.clone(), Arc::clone(&plan));
        plan
    }

    /// Aggregate hit/miss/footprint counters over all shards.
    pub fn stats(&self) -> PlanCacheStats {
        let mut s = PlanCacheStats::default();
        for shard in &self.shards {
            s.hits += shard.hits.load(Ordering::Relaxed);
            s.misses += shard.misses.load(Ordering::Relaxed);
            s.bytes += shard.bytes.load(Ordering::Relaxed);
            s.entries += shard.map.lock().unwrap().len() as u64;
        }
        s
    }
}

// ---------------------------------------------------------------------------
// The hot-path entry the collective wrappers route through
// ---------------------------------------------------------------------------

fn algo_bit(a: Algorithm) -> u64 {
    1 << match a {
        Algorithm::Binomial => 0,
        Algorithm::Linear => 1,
        Algorithm::Ring => 2,
    }
}

fn sync_bit(s: SyncMode) -> u64 {
    1 << match s {
        SyncMode::Barrier => 0,
        SyncMode::Signaled => 1,
        SyncMode::Pipelined => 2,
        SyncMode::Auto => 3,
    }
}

/// Issue one collective episode. With a plan cache
/// ([`FabricConfig::with_plan_cache`](crate::fabric::FabricConfig)) the
/// plan is lowered once per key and shared; without one, this PE lowers
/// its own program on every call ([`lower_pe`]). Either way the same
/// executor runs the same steps. `build` is only invoked on a cache miss
/// (or on every uncached call), so a warm issue never materialises the
/// `CommSchedule` at all.
///
/// Both paths record the resolved algorithm/sync choice in the
/// collective's [`CollectiveRecord`](crate::fabric::CollectiveRecord).
#[allow(clippy::too_many_arguments)]
pub fn run_schedule<T: XbrType>(
    pe: &Pe,
    key: PlanKey,
    build: impl FnOnce() -> CommSchedule,
    buf: SymmRef<T>,
    local_src: &[T],
    local_dst: &mut [T],
    fold: Option<&dyn Fn(T, T) -> T>,
    sync: SyncMode,
) {
    let es = std::mem::size_of::<T>();
    debug_assert_eq!(es, key.elem_bytes, "key element size disagrees with T");
    match pe.plan_cache() {
        Some(cache) => {
            let plan = cache.get_or_build(&key, || lower(&build(), sync, es));
            pe.note_choice(plan.kind, algo_bit(key.algo), sync_bit(plan.sync));
            execute_plan(pe, &plan, buf, local_src, local_dst, fold);
        }
        None => {
            let (plan, prog) = lower_pe(&build(), sync, es, pe.rank());
            assert_fits::<T>(pe, &plan);
            pe.note_choice(plan.kind, algo_bit(key.algo), sync_bit(plan.sync));
            run_program(pe, &plan, &prog, buf, local_src, local_dst, fold);
        }
    }
}

// ---------------------------------------------------------------------------
// Nonblocking / persistent collectives
// ---------------------------------------------------------------------------

/// Fused allreduce schedule: binomial reduction to rank 0 followed by a
/// binomial broadcast from rank 0, as **one** schedule — the composition
/// the paper prescribes, without the intermediate barrier/read-out round
/// trip of [`crate::collectives::extended::reduce_all`]. Tagged
/// [`CollectiveKind::AllReduce`].
pub fn allreduce_fused(n_pes: usize, nelems: usize) -> CommSchedule {
    let mut sched = reduce_binomial(n_pes, 0, nelems, 1);
    let bcast = broadcast_binomial(n_pes, 0, nelems, 1);
    sched.stages.extend(bcast.stages);
    sched.kind = CollectiveKind::AllReduce;
    sched
}

/// What [`CollHandle::finish`] must do with the handle's staging buffer
/// after the drain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Readout {
    /// Nothing to copy out (broadcast into a caller-owned buffer).
    None,
    /// The root copies `nelems` elements out (reduce).
    Root { root: usize, nelems: usize },
    /// Every PE copies `nelems` elements out (allreduce).
    All { nelems: usize },
}

/// An in-flight nonblocking collective, produced by [`ixbroadcast`],
/// [`ixreduce`], [`ixallreduce`] or a persistent plan's `start`.
///
/// SPMD discipline: every PE must issue the same handles in the same
/// order and wait on them in issue order. Overlapping episodes must
/// touch disjoint symmetric buffers. While handles are in flight,
/// blocking collectives remain safe on the compiled-plan path (they run
/// above the outstanding slot window); see
/// [`Pe::signal_table`](crate::fabric::Pe) for pre-sizing when many
/// episodes overlap.
///
/// Dropping a live handle completes the episode exactly as
/// [`CollHandle::wait`] would — drain, closing barriers, slot-window
/// release — minus the local read-out. An abandoned episode must not
/// strand its in-flight signal slots or the episode cursor: those are
/// what every *later* issue's slot window is rebased on, so a leak here
/// poisons the fabric for all subsequent nonblocking collectives. Like
/// `wait`, the drop is collective: every PE must retire the episode at
/// the same point in issue order.
#[must_use = "an issued collective must be waited on"]
pub struct CollHandle<'a, T: XbrType> {
    pe: &'a Pe<'a>,
    plan: Arc<Plan>,
    buf: SymmRef<T>,
    base: usize,
    t0: u64,
    t_ep: Option<u64>,
    wait_cycles: u64,
    staging: Option<SymmAlloc<T>>,
    owns_staging: bool,
    readout: Readout,
    done: bool,
}

fn plan_for(
    pe: &Pe,
    key: &PlanKey,
    sync: SyncMode,
    build: impl FnOnce() -> CommSchedule,
) -> Arc<Plan> {
    match pe.plan_cache() {
        Some(cache) => cache.get_or_build(key, || lower(&build(), sync, key.elem_bytes)),
        // Cache disabled: lower on every issue, no memo.
        None => Arc::new(lower(&build(), sync, key.elem_bytes)),
    }
}

/// Issue `plan`'s pre-drain steps and return the handle bookkeeping.
fn issue_plan<'a, T: XbrType>(
    pe: &'a Pe,
    plan: Arc<Plan>,
    buf: SymmRef<T>,
    local_src: &[T],
    fold: Option<&dyn Fn(T, T) -> T>,
) -> CollHandle<'a, T> {
    let prog = &plan.per_pe[pe.rank()];
    let t0 = pe.cycles();
    if plan.empty {
        pe.note_collective(plan.kind, prog.sample.sample(0, 0));
        return CollHandle {
            pe,
            plan,
            buf,
            base: 0,
            t0,
            t_ep: None,
            wait_cycles: 0,
            staging: None,
            owns_staging: false,
            readout: Readout::None,
            done: true,
        };
    }
    pe.progress_collective(Some(plan.kind));
    let t_ep = pe.trace_start();
    let (base, table) = if plan.n_slots > 0 {
        let base = pe.nb_slot_reserve(plan.n_slots);
        let table = if base == 0 {
            // Headroom on the first issue of an overlap window: size the
            // table for a deep burst of same-shaped episodes so later
            // issues never need to grow it while signals are live.
            pe.signal_table(plan.n_slots * OVERLAP_HEADROOM)
        } else {
            // Growing the table now would free-and-rezero it under the
            // episodes already in flight (and barrier mid-issue),
            // stranding their completion signals in a silent deadlock;
            // refuse loudly instead.
            assert!(
                base + plan.n_slots <= pe.signal_table_cap(),
                "PE {}: nonblocking overlap window needs {} signal slots \
                 but the table holds {}; wait on an outstanding handle, \
                 or pre-size with Pe::signal_table before the first issue",
                pe.rank(),
                base + plan.n_slots,
                pe.signal_table_cap(),
            );
            pe.signal_table(base + plan.n_slots)
        };
        (base, Some(table))
    } else {
        // Barrier-discipline plans: no slots, but the episode still owns
        // an in-flight reservation so `finish` bookkeeping is uniform.
        (pe.nb_slot_reserve(0), None)
    };
    let mut landing: Vec<T> = pe.scratch_take();
    landing.resize(prog.landing_len, T::default());
    let mut local_dst: [T; 0] = [];
    let wait_cycles = run_steps(
        pe,
        &prog.steps[..prog.drain_from],
        base,
        table,
        buf,
        local_src,
        &mut local_dst,
        fold,
        &mut landing,
    );
    pe.scratch_put(landing);
    CollHandle {
        pe,
        plan,
        buf,
        base,
        t0,
        t_ep,
        wait_cycles,
        staging: None,
        owns_staging: false,
        readout: Readout::None,
        done: false,
    }
}

impl<T: XbrType> CollHandle<'_, T> {
    /// `true` when every drain signal this PE still owes has already
    /// arrived — [`CollHandle::wait`] will not stall on a signal (it may
    /// still synchronise at the collective's closing barrier). Does not
    /// consume anything; safe to poll.
    pub fn test(&self, pe: &Pe) -> bool {
        if self.done {
            return true;
        }
        let prog = &self.plan.per_pe[pe.rank()];
        if self.plan.n_slots == 0 {
            return true;
        }
        let table = pe.signal_table(self.base + self.plan.n_slots);
        prog.steps[prog.drain_from..].iter().all(|s| match s {
            PlanStep::Wait { slot } => pe.signal_peek(table.offset(self.base + *slot as usize)),
            _ => true,
        })
    }

    /// Drain the episode (collective: every PE must call in issue order)
    /// and release its slot window. Epilogue copies (reduce/allreduce
    /// read-out) land in `dest` when present; `None` runs the same
    /// barriers but skips the local copy, so a dropping PE stays in step
    /// with peers that `wait_into`. Idempotent: the post-drop no-op run
    /// sees `done`, an empty readout and no staging.
    fn finish(&mut self, pe: &Pe, mut dest: Option<&mut [T]>) {
        if !self.done {
            let prog = &self.plan.per_pe[pe.rank()];
            let table =
                (self.plan.n_slots > 0).then(|| pe.signal_table(self.base + self.plan.n_slots));
            let mut landing: [T; 0] = [];
            let mut local_dst: [T; 0] = [];
            self.wait_cycles += run_steps(
                pe,
                &prog.steps[prog.drain_from..],
                self.base,
                table,
                self.buf,
                &[],
                &mut local_dst,
                None,
                &mut landing,
            );
            pe.trace_emit(self.t_ep, TraceKind::Collective, None, 0, 0);
            pe.progress_collective(None);
            pe.note_collective(
                self.plan.kind,
                prog.sample.sample(pe.cycles() - self.t0, self.wait_cycles),
            );
            pe.nb_slot_release();
            self.done = true;
        }
        let staging = self.staging.take();
        match self.readout {
            Readout::None => {}
            Readout::Root { root, nelems } => {
                let staging = staging.as_ref().expect("rooted readout requires staging");
                if pe.rank() == root && nelems > 0 {
                    if let Some(dest) = dest.as_deref_mut() {
                        pe.heap_read_strided(staging.whole(), &mut dest[..nelems], nelems, 1);
                    }
                }
                if nelems > 0 {
                    pe.barrier();
                }
            }
            Readout::All { nelems } => {
                let staging = staging.as_ref().expect("all readout requires staging");
                if nelems > 0 {
                    if let Some(dest) = dest {
                        pe.heap_read_strided(staging.whole(), &mut dest[..nelems], nelems, 1);
                    }
                    pe.barrier();
                }
            }
        }
        self.readout = Readout::None;
        if self.owns_staging {
            if let Some(s) = staging {
                pe.shared_free(s);
            }
            self.owns_staging = false;
        }
    }

    /// Complete a collective with no local read-out ([`ixbroadcast`] and
    /// persistent broadcasts: the result is already in the symmetric
    /// destination).
    pub fn wait(mut self, pe: &Pe) {
        debug_assert!(
            matches!(self.readout, Readout::None),
            "this handle produces output; use wait_into"
        );
        self.finish(pe, None);
    }

    /// Complete a collective whose result is copied into `dest`
    /// ([`ixreduce`] at the root, [`ixallreduce`] everywhere).
    pub fn wait_into(mut self, pe: &Pe, dest: &mut [T]) {
        self.finish(pe, Some(dest));
    }
}

impl<T: XbrType> Drop for CollHandle<'_, T> {
    fn drop(&mut self) {
        // A panicking PE cannot be asked to run collective barriers; the
        // watchdog/deadlock reporter owns that failure path.
        if std::thread::panicking() {
            return;
        }
        let pe = self.pe;
        self.finish(pe, None);
    }
}

/// Nonblocking broadcast of `nelems` elements from `root`'s `src` into
/// the symmetric `dest` on every PE. Collective call; complete with
/// [`CollHandle::wait`]. Under the signaled/pipelined disciplines,
/// non-root PEs return immediately after issuing their forwarding work
/// and absorb the incoming transfer at `wait` — the overlap window.
pub fn ixbroadcast<'a, T: XbrType>(
    pe: &'a Pe,
    dest: &SymmAlloc<T>,
    src: &[T],
    nelems: usize,
    root: usize,
    sync: SyncMode,
) -> CollHandle<'a, T> {
    let n_pes = pe.n_pes();
    assert!(root < n_pes, "root {root} out of range");
    if pe.rank() == root {
        pe.heap_write_strided(dest.whole(), src, nelems, 1);
    }
    let key = PlanKey::rooted(
        CollectiveKind::Broadcast,
        Algorithm::Binomial,
        sync,
        n_pes,
        root,
        nelems,
        1,
        std::mem::size_of::<T>(),
        tag::BROADCAST_BINOMIAL,
    );
    let plan = plan_for(pe, &key, sync, || {
        broadcast_binomial(n_pes, root, nelems, 1)
    });
    issue_plan(pe, plan, dest.whole(), &[], None)
}

/// Nonblocking reduction of every PE's symmetric `src` window toward
/// `root`. Complete with [`CollHandle::wait_into`]; the root's `dest`
/// receives the folded `nelems` elements.
pub fn ixreduce<'a, T: XbrType>(
    pe: &'a Pe,
    src: &SymmAlloc<T>,
    nelems: usize,
    root: usize,
    f: impl Fn(T, T) -> T + Copy,
    sync: SyncMode,
) -> CollHandle<'a, T> {
    let n_pes = pe.n_pes();
    assert!(root < n_pes, "root {root} out of range");
    let staging = pe.shared_malloc::<T>(nelems.max(1));
    if nelems > 0 {
        pe.get_symm(staging.whole(), src.whole(), nelems, 1, pe.rank());
        pe.barrier();
    }
    let key = PlanKey::rooted(
        CollectiveKind::Reduce,
        Algorithm::Binomial,
        sync,
        n_pes,
        root,
        nelems,
        1,
        std::mem::size_of::<T>(),
        tag::REDUCE_BINOMIAL,
    );
    let plan = plan_for(pe, &key, sync, || reduce_binomial(n_pes, root, nelems, 1));
    let mut h = issue_plan(pe, plan, staging.whole(), &[], Some(&f));
    h.staging = Some(staging);
    h.owns_staging = true;
    h.readout = Readout::Root { root, nelems };
    h
}

/// Nonblocking allreduce. Complete with [`CollHandle::wait_into`]; every
/// PE's `dest` receives the folded `nelems` elements. The strategy is
/// chosen per shape by
/// [`AllReduceAlgo::Auto`](crate::collectives::extended::AllReduceAlgo)
/// — the same calibrated family as the blocking [`reduce_all`] path, so
/// warm plans are shared between the two.
pub fn ixallreduce<'a, T: XbrType>(
    pe: &'a Pe,
    src: &SymmAlloc<T>,
    nelems: usize,
    f: impl Fn(T, T) -> T + Copy,
    sync: SyncMode,
) -> CollHandle<'a, T> {
    use crate::collectives::extended::AllReduceAlgo;
    ixallreduce_algo(pe, src, nelems, f, AllReduceAlgo::Auto, sync)
}

/// [`ixallreduce`] with an explicit [`AllReduceAlgo`]: every member of
/// the family — the fused reduce-then-broadcast schedule
/// ([`allreduce_fused`]), recursive doubling, Rabenseifner and ring —
/// lowers through the plan cache and issues nonblocking.
pub fn ixallreduce_algo<'a, T: XbrType>(
    pe: &'a Pe,
    src: &SymmAlloc<T>,
    nelems: usize,
    f: impl Fn(T, T) -> T + Copy,
    algo: crate::collectives::extended::AllReduceAlgo,
    sync: SyncMode,
) -> CollHandle<'a, T> {
    use crate::collectives::extended::{allreduce_schedule, AllReduceAlgo};
    let n_pes = pe.n_pes();
    let algo = algo.resolve(n_pes, nelems * std::mem::size_of::<T>());
    let (tag, key_algo) = allreduce_plan_id(algo);
    let staging = pe.shared_malloc::<T>(nelems.max(1));
    if nelems > 0 {
        pe.get_symm(staging.whole(), src.whole(), nelems, 1, pe.rank());
        pe.barrier();
    }
    let key = PlanKey::rooted(
        CollectiveKind::AllReduce,
        key_algo,
        sync,
        n_pes,
        0,
        nelems,
        1,
        std::mem::size_of::<T>(),
        tag,
    );
    let plan = plan_for(pe, &key, sync, || match algo {
        AllReduceAlgo::ReduceThenBroadcast => allreduce_fused(n_pes, nelems),
        direct => allreduce_schedule(direct, n_pes, nelems),
    });
    let mut h = issue_plan(pe, plan, staging.whole(), &[], Some(&f));
    h.staging = Some(staging);
    h.owns_staging = true;
    h.readout = Readout::All { nelems };
    h
}

/// A persistent broadcast: plan compiled (and destination bound) once,
/// then issued any number of times at service rate with
/// [`PersistentBroadcast::start`] — the `plan_create`/`plan_start` shape
/// of MPI persistent collectives.
pub struct PersistentBroadcast<T: XbrType> {
    plan: Arc<Plan>,
    dest: SymmAlloc<T>,
    nelems: usize,
    root: usize,
}

/// Compile a persistent broadcast plan over `dest`. Pure local work (plus
/// at most one shared lowering in the plan cache) — no communication.
pub fn plan_create_broadcast<T: XbrType>(
    pe: &Pe,
    dest: &SymmAlloc<T>,
    nelems: usize,
    root: usize,
    sync: SyncMode,
) -> PersistentBroadcast<T> {
    let n_pes = pe.n_pes();
    assert!(root < n_pes, "root {root} out of range");
    let key = PlanKey::rooted(
        CollectiveKind::Broadcast,
        Algorithm::Binomial,
        sync,
        n_pes,
        root,
        nelems,
        1,
        std::mem::size_of::<T>(),
        tag::BROADCAST_BINOMIAL,
    );
    let plan = plan_for(pe, &key, sync, || {
        broadcast_binomial(n_pes, root, nelems, 1)
    });
    PersistentBroadcast {
        plan,
        dest: *dest,
        nelems,
        root,
    }
}

impl<T: XbrType> PersistentBroadcast<T> {
    /// Issue one episode (collective call; `src` is read on the root).
    pub fn start<'a>(&self, pe: &'a Pe, src: &[T]) -> CollHandle<'a, T> {
        if pe.rank() == self.root {
            pe.heap_write_strided(self.dest.whole(), src, self.nelems, 1);
        }
        issue_plan(pe, Arc::clone(&self.plan), self.dest.whole(), &[], None)
    }
}

/// A persistent allreduce: plan and symmetric staging bound at creation;
/// each [`PersistentAllReduce::start`] folds the current contents of the
/// bound `src` window. Free the staging with
/// [`PersistentAllReduce::destroy`].
pub struct PersistentAllReduce<T: XbrType> {
    plan: Arc<Plan>,
    src: SymmAlloc<T>,
    staging: SymmAlloc<T>,
    nelems: usize,
}

/// Create a persistent allreduce over the symmetric `src` window.
/// Collective call (allocates shared staging).
pub fn plan_create_allreduce<T: XbrType>(
    pe: &Pe,
    src: &SymmAlloc<T>,
    nelems: usize,
    sync: SyncMode,
) -> PersistentAllReduce<T> {
    let n_pes = pe.n_pes();
    let key = PlanKey::rooted(
        CollectiveKind::AllReduce,
        Algorithm::Binomial,
        sync,
        n_pes,
        0,
        nelems,
        1,
        std::mem::size_of::<T>(),
        tag::ALLREDUCE_FUSED,
    );
    let plan = plan_for(pe, &key, sync, || allreduce_fused(n_pes, nelems));
    PersistentAllReduce {
        plan,
        src: *src,
        staging: pe.shared_malloc::<T>(nelems.max(1)),
        nelems,
    }
}

impl<T: XbrType> PersistentAllReduce<T> {
    /// Issue one episode over the bound `src` window (collective call).
    pub fn start<'a>(&self, pe: &'a Pe, f: impl Fn(T, T) -> T + Copy) -> CollHandle<'a, T> {
        if self.nelems > 0 {
            pe.get_symm(
                self.staging.whole(),
                self.src.whole(),
                self.nelems,
                1,
                pe.rank(),
            );
            pe.barrier();
        }
        let mut h = issue_plan(
            pe,
            Arc::clone(&self.plan),
            self.staging.whole(),
            &[],
            Some(&f),
        );
        h.staging = Some(self.staging);
        h.owns_staging = false;
        h.readout = Readout::All {
            nelems: self.nelems,
        };
        h
    }

    /// Release the staging buffer (collective call).
    pub fn destroy(self, pe: &Pe) {
        pe.shared_free(self.staging);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::scatter::adjusted_displacements;
    use crate::collectives::schedule::{
        broadcast_linear_sched, broadcast_ring_sched, reduce_linear_sched, scatter_binomial, Stage,
    };
    use crate::collectives::verify::{check_schedule, CollectiveSpec, ModelConfig};
    use crate::fabric::{Fabric, FabricConfig};

    /// Lowering resolves Auto once, through the schedule's own rule.
    #[test]
    fn lowering_resolves_auto_once() {
        let sched = broadcast_binomial(8, 0, 4, 1);
        let plan = lower(&sched, SyncMode::Auto, 8);
        assert_eq!(plan.sync, sched.resolve_sync(SyncMode::Auto, 8));
        // Small payload, 8 PEs, multi-stage → Signaled.
        assert_eq!(plan.sync, SyncMode::Signaled);
        assert!(plan.n_slots > 0);
        // A single-stage schedule has no inter-stage edge to save, so
        // Auto falls back to the barrier discipline.
        let single = lower(&broadcast_linear_sched(8, 0, 4, 1), SyncMode::Auto, 8);
        assert_eq!(single.sync, SyncMode::Barrier);
        assert_eq!(single.n_slots, 0);
        // A concrete discipline is kept as requested.
        assert_eq!(
            lower(&sched, SyncMode::Pipelined, 8).sync,
            SyncMode::Pipelined
        );
    }

    /// One PE's lowering is exactly its share of the whole plan.
    #[test]
    fn lower_pe_is_one_rank_of_lower() {
        let adj = adjusted_displacements(&[2, 0, 3, 1, 1], 1, 5);
        for sched in [
            broadcast_binomial(5, 2, 3, 2),
            reduce_binomial(5, 1, 4, 1),
            scatter_binomial(5, 1, &adj),
            allreduce_fused(5, 3),
        ] {
            for sync in [SyncMode::Auto, SyncMode::Barrier, SyncMode::Pipelined] {
                let mut whole = lower(&sched, sync, 8);
                let per_pe = std::mem::take(&mut whole.per_pe);
                for (me, prog) in per_pe.iter().enumerate() {
                    assert_eq!(lower_pe(&sched, sync, 8, me), (whole.clone(), prog.clone()));
                }
            }
        }
    }

    /// Barrier plans are fully issued (empty drain); signaled plans keep
    /// their drain tail.
    #[test]
    fn drain_split_matches_discipline() {
        let sched = broadcast_binomial(8, 0, 16, 1);
        let barrier = lower(&sched, SyncMode::Barrier, 8);
        for p in &barrier.per_pe {
            assert_eq!(p.drain_from, p.steps.len());
        }
        let signaled = lower(&sched, SyncMode::Signaled, 8);
        for p in &signaled.per_pe {
            assert!(p.drain_from < p.steps.len());
            assert!(matches!(
                p.steps[p.drain_from],
                PlanStep::StageStart { si } if si as usize == signaled.n_stages
            ));
        }
    }

    /// Empty schedules lower to telemetry-only plans.
    #[test]
    fn empty_schedule_lowers_empty() {
        let sched = broadcast_binomial(1, 0, 16, 1);
        let plan = lower(&sched, SyncMode::Signaled, 8);
        assert!(plan.empty);
        assert_eq!(plan.n_slots, 0);
        let sched = broadcast_binomial(4, 0, 0, 1);
        let plan = lower(&sched, SyncMode::Signaled, 8);
        assert!(plan.empty);
    }

    /// The static sample template matches the op/byte structure of the
    /// schedule: a binomial broadcast moves n-1 puts of nelems each.
    #[test]
    fn template_counts_match_schedule() {
        for n in [2usize, 3, 5, 8] {
            let sched = broadcast_binomial(n, 0, 4, 1);
            let plan = lower(&sched, SyncMode::Barrier, 8);
            let puts: u64 = plan.per_pe.iter().map(|p| p.sample.puts).sum();
            assert_eq!(puts, (n - 1) as u64, "n={n}");
            let bytes: u64 = plan.per_pe.iter().map(|p| p.sample.bytes_put).sum();
            assert_eq!(bytes, ((n - 1) * 4 * 8) as u64, "n={n}");
        }
    }

    /// Cache: same key hits, different shapes build distinct plans, and
    /// the counters account every lookup.
    #[test]
    fn cache_hits_and_misses() {
        let cache = PlanCache::new();
        let key = |n: usize, nelems: usize| {
            PlanKey::rooted(
                CollectiveKind::Broadcast,
                Algorithm::Binomial,
                SyncMode::Auto,
                n,
                0,
                nelems,
                1,
                8,
                tag::BROADCAST_BINOMIAL,
            )
        };
        let k1 = key(4, 8);
        let p1 = cache.get_or_build(&k1, || {
            lower(&broadcast_binomial(4, 0, 8, 1), SyncMode::Auto, 8)
        });
        let p2 = cache.get_or_build(&k1, || unreachable!("second lookup must hit"));
        assert!(Arc::ptr_eq(&p1, &p2));
        let k2 = key(4, 9);
        let p3 = cache.get_or_build(&k2, || {
            lower(&broadcast_binomial(4, 0, 9, 1), SyncMode::Auto, 8)
        });
        assert!(!Arc::ptr_eq(&p1, &p3));
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.entries, 2);
        assert!(s.bytes > 0);
    }

    /// The fused allreduce schedule satisfies the conformance oracle's
    /// AllReduce spec under every concrete sync mode (sizes 2–8).
    #[test]
    fn fused_allreduce_passes_oracle() {
        for n in 2..=8 {
            let sched = allreduce_fused(n, 3);
            for sync in SyncMode::CONCRETE {
                let report = check_schedule(
                    &sched,
                    sync,
                    &CollectiveSpec::AllReduce { nelems: 3 },
                    &ModelConfig::default(),
                );
                assert!(report.ok(), "n={n} sync={sync:?}: {}", report.summary());
            }
        }
    }

    /// Plan execution against the live fabric: fused allreduce folds and
    /// redistributes under every concrete sync mode.
    #[test]
    fn fused_allreduce_executes() {
        for n in [1usize, 2, 5, 8] {
            for sync in SyncMode::CONCRETE {
                let report = Fabric::run(FabricConfig::new(n), move |pe| {
                    let src = pe.shared_malloc::<u64>(2);
                    pe.heap_write(src.whole(), &[pe.rank() as u64 + 1, 10]);
                    pe.barrier();
                    let mut d = [0u64; 2];
                    ixallreduce(pe, &src, 2, |a, b| a + b, sync).wait_into(pe, &mut d);
                    pe.barrier();
                    d
                });
                let n64 = n as u64;
                let expect = [n64 * (n64 + 1) / 2, 10 * n64];
                for (rank, got) in report.results.iter().enumerate() {
                    assert_eq!(got, &expect, "n={n} sync={sync:?} rank={rank}");
                }
                assert_eq!(report.stats.signals, report.stats.signal_waits);
            }
        }
    }

    /// Ring and linear generators lower cleanly too (barrier-only stages,
    /// zero-op stages, GetFoldInto).
    #[test]
    fn other_generators_lower() {
        let ring = broadcast_ring_sched(5, 1, 6, 1);
        let plan = lower(&ring, SyncMode::Signaled, 8);
        assert_eq!(plan.n_stages, 4);
        let lin = reduce_linear_sched(4, 2, 3, 1);
        let plan = lower(&lin, SyncMode::Barrier, 8);
        assert!(plan
            .per_pe
            .iter()
            .flat_map(|p| p.steps.iter())
            .any(|s| matches!(s, PlanStep::FoldInto { .. })));
    }

    #[test]
    fn executor_runs_a_put_nb_schedule() {
        // A hand-built one-stage PutNb schedule: PE 0 publishes to all.
        let report = Fabric::run(FabricConfig::new(4), |pe| {
            let buf = pe.shared_malloc::<u64>(2);
            let sched = CommSchedule {
                n_pes: 4,
                kind: CollectiveKind::Broadcast,
                stages: vec![Stage::new(
                    (1..4)
                        .map(|peer| TransferOp {
                            src_pe: 0,
                            dst_pe: peer,
                            src_at: 0,
                            dst_at: 0,
                            nelems: 2,
                            stride: 1,
                            kind: OpKind::PutNb,
                        })
                        .collect(),
                )],
            };
            let src = [11u64, 22];
            if pe.rank() == 0 {
                pe.heap_write(buf.whole(), &src);
            }
            execute_plan(
                pe,
                &lower(&sched, SyncMode::Barrier, 8),
                buf.whole(),
                &src,
                &mut [],
                None,
            );
            pe.barrier();
            pe.heap_read_vec::<u64>(buf.whole(), 2)
        });
        assert!(report.results.iter().all(|v| v == &vec![11, 22]));
        assert_eq!(report.stats.nb_puts, 3);
        let rec = report.collective(CollectiveKind::Broadcast).unwrap();
        assert_eq!(rec.calls, 1);
        assert_eq!(rec.puts, 3);
        assert_eq!(rec.stages, 1);
    }

    #[test]
    #[should_panic(expected = "no fold function")]
    fn fold_schedule_without_fold_fn_panics() {
        Fabric::run(FabricConfig::new(2), |pe| {
            let buf = pe.shared_malloc::<u64>(1);
            let sched = reduce_binomial(2, 0, 1, 1);
            execute_plan(
                pe,
                &lower(&sched, SyncMode::Barrier, 8),
                buf.whole(),
                &[],
                &mut [],
                None,
            );
        });
    }

    /// 128 KiB broadcast at 8 PEs: large enough that every pipelined put
    /// splits into `MAX_PIPELINE_CHUNKS` segments, so the chunked poster
    /// and waiter sides genuinely disagree-proof each other.
    #[test]
    fn pipelined_large_broadcast_matches_barrier() {
        let nelems = 16 * 1024usize; // 128 KiB of u64
        let run = |sync: SyncMode| {
            Fabric::run(FabricConfig::paper(8), move |pe| {
                let buf = pe.shared_malloc::<u64>(nelems);
                let src: Vec<u64> = (0..nelems as u64).map(|i| i * 3 + 7).collect();
                let sched = broadcast_binomial(8, 5, nelems, 1);
                if pe.rank() == 5 {
                    pe.heap_write(buf.whole(), &src);
                }
                execute_plan(pe, &lower(&sched, sync, 8), buf.whole(), &[], &mut [], None);
                pe.barrier();
                pe.heap_read_vec::<u64>(buf.whole(), nelems)
            })
        };
        let barrier = run(SyncMode::Barrier);
        let pipelined = run(SyncMode::Pipelined);
        assert_eq!(barrier.results, pipelined.results);
        // Pipelining splits each of the 7 tree puts into 8 segments.
        assert_eq!(pipelined.stats.puts, 7 * 8);
        assert_eq!(pipelined.stats.signals, pipelined.stats.signal_waits);
        // Per-stage barriers are gone: the one-time signal-table growth
        // barrier, the executor's closing barrier and the trailing
        // explicit one remain.
        assert_eq!(pipelined.stats.barriers, 3);
        assert_eq!(barrier.stats.barriers, 4);
    }

    /// Large uneven scatter: a parent's forwarded block covers several
    /// grandchildren segments, so children forward *subspans* of the
    /// chunks they receive — the partial-overlap consume path.
    #[test]
    fn pipelined_scatter_forwards_subspans() {
        let n_pes = 8usize;
        let per = 4 * 1024usize; // 32 KiB per PE, 256 KiB total
        let msgs = vec![per; n_pes];
        let adj = adjusted_displacements(&msgs, 0, n_pes);
        let total = per * n_pes;
        let run = |sync: SyncMode| {
            let adj = adj.clone();
            Fabric::run(FabricConfig::paper(n_pes), move |pe| {
                let buf = pe.shared_malloc::<u64>(total);
                if pe.rank() == 0 {
                    let src: Vec<u64> = (0..total as u64).map(|i| i ^ 0xfeed).collect();
                    pe.heap_write(buf.whole(), &src);
                }
                pe.barrier();
                let sched = scatter_binomial(n_pes, 0, &adj);
                execute_plan(pe, &lower(&sched, sync, 8), buf.whole(), &[], &mut [], None);
                pe.barrier();
                // Each PE's own segment is what scatter delivers.
                pe.heap_read_vec::<u64>(buf.at(adj[pe.rank()]), per)
            })
        };
        let barrier = run(SyncMode::Barrier);
        let pipelined = run(SyncMode::Pipelined);
        assert_eq!(barrier.results, pipelined.results);
        assert_eq!(pipelined.stats.signals, pipelined.stats.signal_waits);
    }

    /// The signaled executor's telemetry: one signal per remote transfer,
    /// every one consumed, and the overlap ratio is a valid fraction.
    #[test]
    fn signaled_telemetry_counts_signals_and_waits() {
        let report = Fabric::run(FabricConfig::paper(8), |pe| {
            let buf = pe.shared_malloc::<u64>(64);
            let sched = broadcast_binomial(8, 0, 64, 1);
            if pe.rank() == 0 {
                pe.heap_write(buf.whole(), &[9u64; 64]);
            }
            let plan = lower(&sched, SyncMode::Signaled, 8);
            execute_plan(pe, &plan, buf.whole(), &[], &mut [], None);
            pe.barrier();
        });
        // 7 tree puts → 7 signals posted, 7 consumed, no leaks.
        assert_eq!(report.stats.signals, 7);
        assert_eq!(report.stats.signal_waits, 7);
        let rec = report.collective(CollectiveKind::Broadcast).unwrap();
        assert_eq!(rec.signals, 7);
        assert_eq!(rec.waits, 7);
        let ratio = rec.overlap_ratio();
        assert!((0.0..=1.0).contains(&ratio), "overlap ratio {ratio}");
    }

    /// Zero-payload and single-PE schedules skip every barrier in every
    /// sync mode.
    #[test]
    fn empty_schedules_skip_all_barriers() {
        for sync in [SyncMode::Barrier, SyncMode::Signaled, SyncMode::Auto] {
            let report = Fabric::run(FabricConfig::new(4), move |pe| {
                let buf = pe.shared_malloc::<u64>(1);
                let sched = broadcast_binomial(4, 0, 0, 1);
                execute_plan(pe, &lower(&sched, sync, 8), buf.whole(), &[], &mut [], None);
            });
            assert_eq!(report.stats.barriers, 0, "sync={sync:?}");
            let report = Fabric::run(FabricConfig::new(1), move |pe| {
                let buf = pe.shared_malloc::<u64>(4);
                let sched = broadcast_binomial(1, 0, 4, 1);
                execute_plan(pe, &lower(&sched, sync, 8), buf.whole(), &[], &mut [], None);
            });
            assert_eq!(report.stats.barriers, 0, "sync={sync:?}");
        }
    }

    /// Regression: a zero-`nelems` op sharing a stage with real transfers
    /// must be skipped cleanly by the pipelined chunk bookkeeping (its
    /// empty chunk window once underflowed `c1 - 1` in `chunk_range`).
    #[test]
    fn pipelined_executor_skips_empty_ops() {
        for sync in SyncMode::CONCRETE {
            let report = Fabric::run(FabricConfig::new(3), move |pe| {
                let buf = pe.shared_malloc::<u64>(8);
                pe.heap_write(buf.whole(), &[pe.rank() as u64 + 1; 8]);
                pe.barrier();
                let sched = CommSchedule {
                    n_pes: 3,
                    kind: CollectiveKind::Broadcast,
                    stages: vec![Stage::new(vec![
                        TransferOp {
                            src_pe: 0,
                            dst_pe: 1,
                            src_at: 0,
                            dst_at: 0,
                            nelems: 0, // the degenerate op
                            stride: 1,
                            kind: OpKind::Put,
                        },
                        TransferOp {
                            src_pe: 0,
                            dst_pe: 2,
                            src_at: 0,
                            dst_at: 0,
                            nelems: 8,
                            stride: 1,
                            kind: OpKind::Put,
                        },
                    ])],
                };
                execute_plan(pe, &lower(&sched, sync, 8), buf.whole(), &[], &mut [], None);
                pe.heap_read_vec(buf.whole(), 8)
            });
            assert_eq!(report.results[2], vec![1u64; 8], "sync={sync:?}");
            assert_eq!(report.results[1], vec![2u64; 8], "sync={sync:?}");
        }
    }
}

//! Asynchronous ingestion front-end with adaptive micro-batching.
//!
//! The engines and the [`MatchService`](crate::service::MatchService) apply
//! one batch at a time, synchronously, on the caller's thread. A live
//! deployment instead sees a *stream* of small submissions — often a single
//! edge — arriving from many producers at once, and the committed bench
//! artifact shows why feeding them to the engine one by one is wasteful: a
//! unit update pays the full per-batch fixed cost (validation, the `minDelta`
//! net-effect reduction set-up, shard planning), while a batched update
//! amortises it (`unit_update.counter_median_ns` vs
//! `batch.counter_median_ms / batch_size` in `BENCH_incsim.json`).
//!
//! [`Ingest`] closes that gap: a **bounded MPSC queue** in front of any
//! [`IngestSink`] — [`MatchService`](crate::service::MatchService),
//! [`DurableIndex`](crate::durable::DurableIndex) or
//! [`DurableMatchService`](crate::durable::DurableMatchService) — drained by
//! a dedicated loop that **micro-batches** queued submissions into one
//! coalesced engine batch per cycle.
//!
//! # Queue semantics
//!
//! * **Bounded, never silently dropping.** The queue admits at most
//!   [`IngestOptions::queue_capacity`] pending *updates* (not submissions).
//!   [`IngestHandle::try_submit`] reports a full queue as a typed
//!   [`SubmitError::Backpressure`] carrying the exact occupancy;
//!   [`IngestHandle::submit`] blocks until space frees up. A submission is
//!   either enqueued (the producer holds a [`Ticket`]) or refused — nothing
//!   in between.
//! * **FIFO.** Submissions are drained in arrival order; each producer's own
//!   submissions commit in its submission order.
//! * **Oneshot reply slots.** Every enqueued submission resolves exactly
//!   once: [`Ticket::wait`] returns the [`IngestApply`] of the coalesced
//!   batch the submission rode in, or the typed [`IngestError`] that befell
//!   it.
//! * **Shutdown flushes.** [`Ingest::shutdown`] (and `Drop`) refuses new
//!   submissions, drains everything already queued through the sink, then
//!   returns the sink. No accepted submission is abandoned.
//!
//! # Batching policy
//!
//! Each drain cycle takes whole submissions from the queue head up to an
//! adaptive cap of coalesced updates (always at least one submission, even
//! if it alone exceeds the cap). When the queue is near-empty a cycle ships
//! whatever is there immediately — small batches, lowest latency. The cap
//! reacts to backlog pressure after every cycle:
//!
//! * backlog ≥ [`IngestOptions::burst_backlog`] → the cap doubles, up to
//!   [`IngestOptions::max_batch`];
//! * backlog empty → the cap halves, down to [`IngestOptions::min_batch`].
//!
//! The defaults are seeded from the measured unit-vs-batch crossover of the
//! committed artifact ([`IngestOptions::from_artifact`] recomputes them from
//! a live `BENCH_incsim.json`): with a unit update costing `u` ns and a
//! batched update `c` ns, the per-batch fixed cost is `F ≈ u − c`, and a
//! coalesced batch of `n ≥ F / (0.05·c)` updates is within 5% of the batch
//! path's asymptotic per-update cost. The default
//! [`IngestOptions::min_batch`] of **8 updates** is the knee of an earlier
//! artifact (549 ns unit, 395 ns/update at batch size 2000). The committed
//! `BENCH_incsim.json` gives `u` as `unit_update.counter_median_ns` and `c`
//! as `batch.counter_median_ms` over `workload.batch_size`, which the same
//! formula turns into a knee of 13; the default is left at 8, and
//! [`IngestOptions::from_artifact`] yields the current knee for a caller
//! who wants it. This threshold controller is
//! the data-driven v1 of the reinforcement-learned adaptivity of Kanezashi
//! et al. (see `PAPERS.md`).
//!
//! # Submission semantics: strict and lenient
//!
//! The drainer validates every submission *individually*, in queue order,
//! against the sink's graph **plus every submission already accepted in the
//! same cycle** — exactly the state a synchronous caller applying the
//! submissions one by one would have validated against
//! ([`igpm_graph::update::validate_batch`] semantics, op by op).
//!
//! * A **strict** submission ([`IngestHandle::submit`] /
//!   [`IngestHandle::try_submit`]) with any invalid op is rejected whole:
//!   its ticket resolves to [`IngestError::Rejected`] with positions in the
//!   *submission's own* batch, and it contributes nothing to the coalesced
//!   batch — just as [`MatchService::apply`](crate::service::MatchService::apply)
//!   would have rejected it standalone.
//! * A **lenient** submission ([`IngestHandle::submit_lenient`] /
//!   [`IngestHandle::try_submit_lenient`]) has its invalid ops stripped and
//!   reported in [`IngestApply::rejected`] — again at original-submission
//!   positions — while the valid remainder is applied. This mirrors the
//!   engines' `apply_batch_lenient` contract, lifted through the coalescer:
//!   merging submissions never renumbers anyone's rejection positions.
//!
//! The coalesced batch is therefore valid by construction and the sink's own
//! strict validation never rejects it.
//!
//! # Equivalence contract
//!
//! For any interleaving of producers and any cap trajectory, the state after
//! draining equals the state after applying the accepted submissions
//! synchronously, one by one, in queue order — and the coalesced batches the
//! sink actually saw (recoverable from [`IngestApply::seq`] groupings) form
//! a partition of the accepted ops in order, so applying the same groupings
//! synchronously reproduces the *delta stream* of the durable tiers
//! bit-identically, for every shard count (`tests/ingest.rs`).
//!
//! # Failure model
//!
//! A sink **error** (a rejected batch cannot happen by construction, but a
//! poisoned index or a contained shared-stage panic can) fails every
//! submission of that cycle with a shared [`IngestError::Sink`]; the drainer
//! keeps running — a durable sink that turned
//! [`Poisoned`](igpm_graph::ApplyError::Poisoned) keeps failing submissions
//! with typed errors until the owner shuts the ingest down and
//! [`recover`](crate::durable::DurableMatchService::recover)s it. A sink
//! **panic** — the in-process crash model of the durability failpoints —
//! resolves the in-flight cycle's tickets with [`IngestError::SinkPanicked`],
//! fails everything still queued with [`IngestError::Closed`], and kills the
//! ingest: the sink is dropped where it stood, exactly as a `kill -9` would
//! leave it, and the durable directory reopens via the ordinary recovery
//! path (the WAL-aligned replay then re-publishes whatever the crash
//! swallowed, as always).

use crate::incremental::panic_message;
use igpm_graph::update::{RejectReason, UpdateRejection};
use igpm_graph::{BatchUpdate, DataGraph, FastHashMap, JsonValue, NodeId, Update};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Fraction of the asymptotic per-update batch cost the amortised fixed
/// cost may still contribute at the batching knee (see the module docs).
const KNEE_OVERHEAD_FRACTION: f64 = 0.05;

/// Tuning knobs of an [`Ingest`] front-end. All sizes count *updates*
/// (edge ops), not submissions. Out-of-range values are clamped at spawn
/// time: every size is at least 1 and `max_batch ≥ min_batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOptions {
    /// Maximum pending updates the queue admits before producers see
    /// [`SubmitError::Backpressure`] (default 8192). A single submission
    /// larger than the whole capacity is still admitted when the queue is
    /// empty, so oversized submissions cannot starve.
    pub queue_capacity: usize,
    /// Floor of the adaptive coalescing cap — the batch size the drainer
    /// relaxes to when the queue keeps running dry (default 8, the measured
    /// amortisation knee of an earlier bench artifact; see the module docs
    /// and [`IngestOptions::from_artifact`]).
    pub min_batch: usize,
    /// Ceiling of the adaptive coalescing cap under sustained bursts
    /// (default 2048, the batch-sweep regime the committed artifact
    /// actually measured; the policy does not extrapolate beyond it).
    pub max_batch: usize,
    /// Backlog (pending updates left after a drain cycle took its fill) at
    /// which the cap doubles (default 16). An empty backlog halves it.
    pub burst_backlog: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { queue_capacity: 8192, min_batch: 8, max_batch: 2048, burst_backlog: 16 }
    }
}

impl IngestOptions {
    /// Re-derives the batching policy from a live `BENCH_incsim.json`
    /// report: `min_batch` becomes the measured amortisation knee
    /// `⌈F / (0.05·c)⌉` (where `c` is the asymptotic per-update batch cost
    /// and `F = unit − c` the per-batch fixed cost), `max_batch` the batch
    /// size the artifact actually measured, and `burst_backlog` twice the
    /// knee. Returns `None` when the report lacks the `unit_update`/`batch`
    /// sections or their numbers are degenerate.
    pub fn from_artifact(report: &JsonValue) -> Option<IngestOptions> {
        let unit_ns = report.get("unit_update")?.get("counter_median_ns")?.as_f64()?;
        let batch_ms = report.get("batch")?.get("counter_median_ms")?.as_f64()?;
        let batch_size = report.get("workload")?.get("batch_size")?.as_f64()?;
        if unit_ns <= 0.0 || batch_ms <= 0.0 || batch_size < 1.0 {
            return None;
        }
        let per_update_ns = batch_ms * 1.0e6 / batch_size;
        let max_batch = batch_size as usize;
        let min_batch = if unit_ns > per_update_ns {
            let fixed_ns = unit_ns - per_update_ns;
            let knee = (fixed_ns / (KNEE_OVERHEAD_FRACTION * per_update_ns)).ceil() as usize;
            knee.clamp(1, max_batch)
        } else {
            // No measured amortisation advantage: stay latency-optimal.
            1
        };
        Some(IngestOptions {
            min_batch,
            max_batch,
            burst_backlog: (min_batch * 2).max(2),
            ..IngestOptions::default()
        })
    }

    /// The options with every size clamped into its documented range.
    fn normalized(self) -> IngestOptions {
        let min_batch = self.min_batch.max(1);
        IngestOptions {
            queue_capacity: self.queue_capacity.max(1),
            min_batch,
            max_batch: self.max_batch.max(min_batch),
            burst_backlog: self.burst_backlog.max(1),
        }
    }
}

/// Why a submission was refused at the queue door (it was **not** enqueued
/// and no ticket exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity. Retry later, or use the blocking
    /// [`IngestHandle::submit`] which waits for space.
    Backpressure {
        /// Updates currently pending in the queue.
        pending_ops: usize,
        /// The queue's capacity ([`IngestOptions::queue_capacity`]).
        capacity: usize,
    },
    /// The ingest is shutting down (or its sink panicked); no further
    /// submissions are accepted.
    Closed,
    /// The submission carried no updates; an empty batch has no outcome to
    /// wait for and is refused up front.
    Empty,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Backpressure { pending_ops, capacity } => {
                write!(f, "ingest queue full ({pending_ops}/{capacity} pending updates)")
            }
            SubmitError::Closed => write!(f, "ingest is closed"),
            SubmitError::Empty => write!(f, "empty submission"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an *enqueued* submission failed, reported through its [`Ticket`].
#[derive(Debug)]
pub enum IngestError<E> {
    /// Strict submission: at least one op was invalid against the state the
    /// submission would have been applied to synchronously. Positions index
    /// the submission's own batch; nothing of it was applied.
    Rejected(Vec<UpdateRejection>),
    /// The sink failed the coalesced batch the submission rode in (e.g. a
    /// poisoned durable index, or a contained shared-stage panic). The
    /// error is shared by every submission of that cycle; the ingest keeps
    /// running.
    Sink(Arc<E>),
    /// The sink panicked mid-apply — the in-process crash model. The ingest
    /// is dead; durable sinks are reopened through their recovery path.
    SinkPanicked(String),
    /// The ingest closed (or died) before this submission reached the sink.
    Closed,
}

impl<E> Clone for IngestError<E> {
    fn clone(&self) -> Self {
        match self {
            IngestError::Rejected(rejections) => IngestError::Rejected(rejections.clone()),
            IngestError::Sink(error) => IngestError::Sink(Arc::clone(error)),
            IngestError::SinkPanicked(message) => IngestError::SinkPanicked(message.clone()),
            IngestError::Closed => IngestError::Closed,
        }
    }
}

impl<E: fmt::Display> fmt::Display for IngestError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Rejected(rejections) => {
                write!(f, "submission rejected ({} invalid updates)", rejections.len())
            }
            IngestError::Sink(error) => write!(f, "sink failed the batch: {error}"),
            IngestError::SinkPanicked(message) => write!(f, "sink panicked: {message}"),
            IngestError::Closed => write!(f, "ingest closed before the submission was applied"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for IngestError<E> {}

/// What a resolved submission learned: which coalesced batch it rode in and
/// the sink's outcome for that batch.
#[derive(Debug, Clone)]
pub struct IngestApply<O> {
    /// The sink's committed sequence number after the batch: the WAL
    /// sequence for the durable sinks, the epoch for a plain
    /// [`MatchService`](crate::service::MatchService). Submissions sharing
    /// a `seq` were coalesced into the same sink batch.
    pub seq: u64,
    /// The sink's outcome for the whole coalesced batch, shared by every
    /// submission that rode in it. `None` only in the degenerate cycle
    /// where every accepted submission was lenient and fully stripped —
    /// nothing reached the sink.
    pub outcome: Option<Arc<O>>,
    /// Offset of this submission's first applied op within the coalesced
    /// batch.
    pub offset: usize,
    /// How many of this submission's ops were applied (its length minus the
    /// stripped ops of a lenient submission).
    pub applied_ops: usize,
    /// Total size of the coalesced batch.
    pub coalesced_ops: usize,
    /// Lenient submissions: the stripped ops, at positions in the
    /// submission's own batch (never renumbered by coalescing). Always
    /// empty for strict submissions — they fail whole instead.
    pub rejected: Vec<UpdateRejection>,
}

/// A hand-rolled oneshot: the drainer puts exactly once, the producer takes
/// exactly once.
struct OneShot<T> {
    value: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> OneShot<T> {
    fn new() -> Self {
        OneShot { value: Mutex::new(None), ready: Condvar::new() }
    }

    fn put(&self, value: T) {
        let mut slot = self.value.lock().expect("ingest reply lock");
        debug_assert!(slot.is_none(), "ingest reply slot resolved twice");
        *slot = Some(value);
        drop(slot);
        self.ready.notify_all();
    }

    fn take_blocking(&self) -> T {
        let mut slot = self.value.lock().expect("ingest reply lock");
        loop {
            if let Some(value) = slot.take() {
                return value;
            }
            slot = self.ready.wait(slot).expect("ingest reply lock");
        }
    }

    fn is_ready(&self) -> bool {
        self.value.lock().expect("ingest reply lock").is_some()
    }
}

/// The reply slot of one enqueued submission. [`Ticket::wait`] blocks until
/// a drain cycle resolves the submission — in manual mode that means until
/// [`Ingest::drain_once`] (or shutdown) runs on some thread.
pub struct Ticket<O, E> {
    slot: Arc<OneShot<Result<IngestApply<O>, IngestError<E>>>>,
}

impl<O, E> Ticket<O, E> {
    /// Blocks until the submission resolved and returns its result.
    pub fn wait(self) -> Result<IngestApply<O>, IngestError<E>> {
        self.slot.take_blocking()
    }

    /// True once [`Ticket::wait`] would return without blocking.
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }
}

impl<O, E> fmt::Debug for Ticket<O, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").field("ready", &self.is_ready()).finish()
    }
}

/// One queued submission.
struct SubmissionEntry<O, E> {
    batch: BatchUpdate,
    lenient: bool,
    slot: Arc<OneShot<Result<IngestApply<O>, IngestError<E>>>>,
}

/// Queue state behind the mutex.
struct QueueState<O, E> {
    queue: VecDeque<SubmissionEntry<O, E>>,
    pending_ops: usize,
    /// Shutdown requested: no new submissions; the drainer flushes what is
    /// queued and exits.
    closing: bool,
    /// The drainer died (sink panic): submissions fail immediately.
    dead: bool,
}

/// Monotonic observability counters (all `Relaxed`; they order nothing).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    submitted_ops: AtomicU64,
    committed_batches: AtomicU64,
    committed_ops: AtomicU64,
    rejected_submissions: AtomicU64,
    backpressure_events: AtomicU64,
    max_coalesced: AtomicU64,
    current_cap: AtomicU64,
}

/// Everything producers and the drainer share.
struct Shared<O, E> {
    state: Mutex<QueueState<O, E>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    counters: Counters,
}

impl<O, E> Shared<O, E> {
    fn new(capacity: usize) -> Self {
        Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                pending_ops: 0,
                closing: false,
                dead: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            counters: Counters::default(),
        }
    }

    /// Marks the ingest dead and fails everything still queued with
    /// [`IngestError::Closed`].
    fn fail_all_queued(&self) {
        let drained = {
            let mut state = self.state.lock().expect("ingest queue lock");
            state.dead = true;
            state.pending_ops = 0;
            std::mem::take(&mut state.queue)
        };
        for entry in drained {
            entry.slot.put(Err(IngestError::Closed));
        }
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("ingest queue lock").closing = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// A snapshot of the ingest counters ([`Ingest::stats`] /
/// [`IngestHandle::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Submissions accepted into the queue.
    pub submitted: u64,
    /// Updates accepted into the queue.
    pub submitted_ops: u64,
    /// Coalesced batches the sink committed.
    pub committed_batches: u64,
    /// Updates the sink committed (across all coalesced batches).
    pub committed_ops: u64,
    /// Strict submissions rejected by per-submission validation.
    pub rejected_submissions: u64,
    /// Times a producer hit a full queue (one per [`SubmitError::
    /// Backpressure`] returned and one per blocking [`IngestHandle::submit`]
    /// that had to wait).
    pub backpressure_events: u64,
    /// Largest coalesced batch committed so far.
    pub max_coalesced: u64,
    /// The drainer's current adaptive cap (updates per cycle).
    pub current_cap: u64,
}

/// The matching back-ends an [`Ingest`] can feed. Implemented by
/// [`MatchService`](crate::service::MatchService) (outcome
/// [`ServiceApply`](crate::service::ServiceApply), seq = epoch),
/// [`DurableIndex`](crate::durable::DurableIndex) and
/// [`DurableMatchService`](crate::durable::DurableMatchService) (seq = WAL
/// sequence; WAL append, auto-checkpointing, publication and the poison
/// discipline all run inside `apply_batch` exactly as in the synchronous
/// path).
pub trait IngestSink {
    /// What a committed batch reports.
    type Outcome: Send + Sync + 'static;
    /// How a failed batch errors.
    type Error: fmt::Debug + fmt::Display + Send + Sync + 'static;

    /// Applies one (already validated) coalesced batch.
    fn apply_batch(&mut self, batch: &BatchUpdate) -> Result<Self::Outcome, Self::Error>;

    /// The current data graph submissions are validated against.
    fn sink_graph(&self) -> &DataGraph;

    /// The sink's committed sequence number (WAL sequence or epoch); stamps
    /// [`IngestApply::seq`].
    fn committed_seq(&self) -> u64;
}

/// The cloneable producer side of an [`Ingest`]: submit batches, observe
/// stats. Handles stay valid after the `Ingest` shuts down — submissions
/// then fail with [`SubmitError::Closed`].
pub struct IngestHandle<O, E> {
    shared: Arc<Shared<O, E>>,
}

impl<O, E> Clone for IngestHandle<O, E> {
    fn clone(&self) -> Self {
        IngestHandle { shared: Arc::clone(&self.shared) }
    }
}

impl<O, E> IngestHandle<O, E> {
    /// Enqueues a strict submission, blocking while the queue is full.
    pub fn submit(&self, batch: BatchUpdate) -> Result<Ticket<O, E>, SubmitError> {
        self.submit_inner(batch, false, true)
    }

    /// Enqueues a strict submission, or reports
    /// [`SubmitError::Backpressure`] instead of blocking.
    pub fn try_submit(&self, batch: BatchUpdate) -> Result<Ticket<O, E>, SubmitError> {
        self.submit_inner(batch, false, false)
    }

    /// Enqueues a lenient submission (invalid ops stripped and reported,
    /// the remainder applied), blocking while the queue is full.
    pub fn submit_lenient(&self, batch: BatchUpdate) -> Result<Ticket<O, E>, SubmitError> {
        self.submit_inner(batch, true, true)
    }

    /// Enqueues a lenient submission, or reports
    /// [`SubmitError::Backpressure`] instead of blocking.
    pub fn try_submit_lenient(&self, batch: BatchUpdate) -> Result<Ticket<O, E>, SubmitError> {
        self.submit_inner(batch, true, false)
    }

    fn submit_inner(
        &self,
        batch: BatchUpdate,
        lenient: bool,
        block: bool,
    ) -> Result<Ticket<O, E>, SubmitError> {
        if batch.is_empty() {
            return Err(SubmitError::Empty);
        }
        let ops = batch.len();
        let counters = &self.shared.counters;
        let mut counted_backpressure = false;
        let mut state = self.shared.state.lock().expect("ingest queue lock");
        loop {
            if state.closing || state.dead {
                return Err(SubmitError::Closed);
            }
            // An oversized submission is admitted once the queue is empty,
            // so capacity can never starve it.
            if state.queue.is_empty() || state.pending_ops + ops <= self.shared.capacity {
                break;
            }
            if !counted_backpressure {
                counters.backpressure_events.fetch_add(1, Ordering::Relaxed);
                counted_backpressure = true;
            }
            if !block {
                return Err(SubmitError::Backpressure {
                    pending_ops: state.pending_ops,
                    capacity: self.shared.capacity,
                });
            }
            state = self.shared.not_full.wait(state).expect("ingest queue lock");
        }
        let slot = Arc::new(OneShot::new());
        state.queue.push_back(SubmissionEntry { batch, lenient, slot: Arc::clone(&slot) });
        state.pending_ops += ops;
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        counters.submitted_ops.fetch_add(ops as u64, Ordering::Relaxed);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(Ticket { slot })
    }

    /// Updates currently pending in the queue.
    pub fn pending_ops(&self) -> usize {
        self.shared.state.lock().expect("ingest queue lock").pending_ops
    }

    /// True once the ingest refuses new submissions (shut down or dead).
    pub fn is_closed(&self) -> bool {
        let state = self.shared.state.lock().expect("ingest queue lock");
        state.closing || state.dead
    }

    /// A snapshot of the observability counters.
    pub fn stats(&self) -> IngestStats {
        let counters = &self.shared.counters;
        IngestStats {
            submitted: counters.submitted.load(Ordering::Relaxed),
            submitted_ops: counters.submitted_ops.load(Ordering::Relaxed),
            committed_batches: counters.committed_batches.load(Ordering::Relaxed),
            committed_ops: counters.committed_ops.load(Ordering::Relaxed),
            rejected_submissions: counters.rejected_submissions.load(Ordering::Relaxed),
            backpressure_events: counters.backpressure_events.load(Ordering::Relaxed),
            max_coalesced: counters.max_coalesced.load(Ordering::Relaxed),
            current_cap: counters.current_cap.load(Ordering::Relaxed),
        }
    }
}

/// One accepted submission of a drain cycle, waiting for the sink outcome.
struct Accepted<O, E> {
    slot: Arc<OneShot<Result<IngestApply<O>, IngestError<E>>>>,
    offset: usize,
    applied_ops: usize,
    rejected: Vec<UpdateRejection>,
}

/// The consumer side: owns the sink and the adaptive cap.
struct Drainer<S: IngestSink> {
    shared: Arc<Shared<S::Outcome, S::Error>>,
    /// `None` after a sink panic — the ingest is dead.
    sink: Option<S>,
    opts: IngestOptions,
    cap: usize,
    /// Pending updates left behind by the last take — the backlog signal
    /// the cap adapts on.
    last_backlog: usize,
}

impl<S: IngestSink> Drainer<S> {
    fn new(shared: Arc<Shared<S::Outcome, S::Error>>, sink: S, opts: IngestOptions) -> Self {
        let cap = opts.min_batch;
        shared.counters.current_cap.store(cap as u64, Ordering::Relaxed);
        Drainer { shared, sink: Some(sink), opts, cap, last_backlog: 0 }
    }

    /// The dedicated drainer loop (threaded mode): drain until closed, then
    /// return the sink (`None` when it panicked away).
    fn run(mut self) -> Option<S> {
        loop {
            match self.take(true) {
                Some(taken) => {
                    if !self.process(taken) {
                        return None;
                    }
                }
                None => return self.sink.take(),
            }
        }
    }

    /// Takes whole submissions from the queue head up to the adaptive cap —
    /// always at least one. Blocks for work when `block` (returning `None`
    /// only once closing and empty); otherwise returns `None` on an empty
    /// queue.
    fn take(&mut self, block: bool) -> Option<Vec<SubmissionEntry<S::Outcome, S::Error>>> {
        let mut state = self.shared.state.lock().expect("ingest queue lock");
        if block {
            while state.queue.is_empty() && !state.closing {
                state = self.shared.not_empty.wait(state).expect("ingest queue lock");
            }
        }
        state.queue.front()?;
        let mut taken = Vec::new();
        let mut ops = 0usize;
        while let Some(front) = state.queue.front() {
            let len = front.batch.len();
            if !taken.is_empty() && ops + len > self.cap {
                break;
            }
            ops += len;
            taken.push(state.queue.pop_front().expect("front was just checked"));
        }
        state.pending_ops -= ops;
        self.last_backlog = state.pending_ops;
        drop(state);
        self.shared.not_full.notify_all();
        Some(taken)
    }

    /// One full drain cycle over `taken`: per-submission validation,
    /// coalescing, one sink apply, ticket resolution, cap adaptation.
    /// Returns `false` when the sink panicked and the ingest died.
    fn process(&mut self, taken: Vec<SubmissionEntry<S::Outcome, S::Error>>) -> bool {
        let counters = &self.shared.counters;
        let mut merged = BatchUpdate::new();
        let mut accepted: Vec<Accepted<S::Outcome, S::Error>> = Vec::new();
        {
            let sink = self.sink.as_ref().expect("process ran on a dead drainer");
            let graph = sink.sink_graph();
            let nv = graph.node_count();
            // The evolving presence of everything accepted this cycle; the
            // per-submission `local` overlay commits into it only when the
            // submission is accepted — a rejected strict submission leaves
            // no trace, exactly like its synchronous rejection.
            let mut presence: FastHashMap<(NodeId, NodeId), bool> = FastHashMap::default();
            for entry in taken {
                let mut local: FastHashMap<(NodeId, NodeId), bool> = FastHashMap::default();
                let mut rejected: Vec<UpdateRejection> = Vec::new();
                let mut kept: Vec<Update> = Vec::new();
                for (position, &update) in entry.batch.iter().enumerate() {
                    let (from, to) = update.endpoints();
                    if from.index() >= nv || to.index() >= nv {
                        let reason = RejectReason::NodeOutOfRange;
                        rejected.push(UpdateRejection { position, update, reason });
                        continue;
                    }
                    let current = local
                        .get(&(from, to))
                        .or_else(|| presence.get(&(from, to)))
                        .copied()
                        .unwrap_or_else(|| graph.has_edge(from, to));
                    if update.is_insert() && current {
                        let reason = RejectReason::DuplicateInsert;
                        rejected.push(UpdateRejection { position, update, reason });
                    } else if update.is_delete() && !current {
                        let reason = RejectReason::AbsentDelete;
                        rejected.push(UpdateRejection { position, update, reason });
                    } else {
                        local.insert((from, to), update.is_insert());
                        kept.push(update);
                    }
                }
                if !entry.lenient && !rejected.is_empty() {
                    counters.rejected_submissions.fetch_add(1, Ordering::Relaxed);
                    entry.slot.put(Err(IngestError::Rejected(rejected)));
                    continue;
                }
                presence.extend(local);
                let offset = merged.len();
                for &update in &kept {
                    merged.push(update);
                }
                let applied_ops = kept.len();
                accepted.push(Accepted { slot: entry.slot, offset, applied_ops, rejected });
            }
        }
        if accepted.is_empty() {
            self.adapt();
            return true;
        }
        let coalesced_ops = merged.len();
        if coalesced_ops == 0 {
            // Every accepted submission was lenient and fully stripped:
            // nothing reaches the sink, the state is untouched.
            let seq = self.sink.as_ref().expect("sink is alive").committed_seq();
            for acc in accepted {
                acc.slot.put(Ok(IngestApply {
                    seq,
                    outcome: None,
                    offset: 0,
                    applied_ops: 0,
                    coalesced_ops: 0,
                    rejected: acc.rejected,
                }));
            }
            self.adapt();
            return true;
        }
        let sink = self.sink.as_mut().expect("sink is alive");
        match catch_unwind(AssertUnwindSafe(|| sink.apply_batch(&merged))) {
            Ok(Ok(outcome)) => {
                let seq = sink.committed_seq();
                let outcome = Arc::new(outcome);
                counters.committed_batches.fetch_add(1, Ordering::Relaxed);
                counters.committed_ops.fetch_add(coalesced_ops as u64, Ordering::Relaxed);
                counters.max_coalesced.fetch_max(coalesced_ops as u64, Ordering::Relaxed);
                for acc in accepted {
                    acc.slot.put(Ok(IngestApply {
                        seq,
                        outcome: Some(Arc::clone(&outcome)),
                        offset: acc.offset,
                        applied_ops: acc.applied_ops,
                        coalesced_ops,
                        rejected: acc.rejected,
                    }));
                }
                self.adapt();
                true
            }
            Ok(Err(error)) => {
                let error = Arc::new(error);
                for acc in accepted {
                    acc.slot.put(Err(IngestError::Sink(Arc::clone(&error))));
                }
                self.adapt();
                true
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                // The crash model: the sink is dropped where it stood (a
                // durable sink's directory reopens through recovery), the
                // in-flight cycle learns what happened, the rest is closed.
                self.sink = None;
                for acc in accepted {
                    acc.slot.put(Err(IngestError::SinkPanicked(message.clone())));
                }
                self.shared.fail_all_queued();
                false
            }
        }
    }

    /// Adapts the coalescing cap to the backlog the last take left behind.
    fn adapt(&mut self) {
        if self.last_backlog >= self.opts.burst_backlog {
            self.cap = self.cap.saturating_mul(2).min(self.opts.max_batch);
        } else if self.last_backlog == 0 {
            self.cap = (self.cap / 2).max(self.opts.min_batch);
        }
        self.shared.counters.current_cap.store(self.cap as u64, Ordering::Relaxed);
    }
}

enum Mode<S: IngestSink> {
    Threaded(JoinHandle<Option<S>>),
    Manual(Drainer<S>),
    Done,
}

/// The ingestion front-end: a bounded MPSC queue plus the drainer that
/// micro-batches it into an [`IngestSink`]. See the [module docs](self) for
/// the semantics.
///
/// Two modes:
/// * [`Ingest::spawn`] runs the drainer on a dedicated thread — the
///   production mode;
/// * [`Ingest::new_manual`] runs it nowhere until [`Ingest::drain_once`] is
///   called — every coalescing decision becomes deterministic, which is
///   what the conformance tests and the equivalence contract build on.
pub struct Ingest<S: IngestSink> {
    shared: Arc<Shared<S::Outcome, S::Error>>,
    mode: Mode<S>,
}

impl<S: IngestSink> Ingest<S> {
    /// Starts a threaded ingest over `sink`.
    pub fn spawn(sink: S, opts: IngestOptions) -> Ingest<S>
    where
        S: Send + 'static,
    {
        let opts = opts.normalized();
        let shared = Arc::new(Shared::new(opts.queue_capacity));
        let drainer = Drainer::new(Arc::clone(&shared), sink, opts);
        let handle = std::thread::Builder::new()
            .name("igpm-ingest".into())
            .spawn(move || drainer.run())
            .expect("spawn the ingest drainer thread");
        Ingest { shared, mode: Mode::Threaded(handle) }
    }

    /// Builds a manual-drain ingest over `sink`: submissions queue up until
    /// [`Ingest::drain_once`] runs a cycle on the calling thread.
    pub fn new_manual(sink: S, opts: IngestOptions) -> Ingest<S> {
        let opts = opts.normalized();
        let shared = Arc::new(Shared::new(opts.queue_capacity));
        let drainer = Drainer::new(Arc::clone(&shared), sink, opts);
        Ingest { shared, mode: Mode::Manual(drainer) }
    }

    /// A cloneable producer handle.
    pub fn handle(&self) -> IngestHandle<S::Outcome, S::Error> {
        IngestHandle { shared: Arc::clone(&self.shared) }
    }

    /// [`IngestHandle::submit`] without cloning a handle.
    pub fn submit(&self, batch: BatchUpdate) -> Result<Ticket<S::Outcome, S::Error>, SubmitError> {
        self.handle().submit(batch)
    }

    /// [`IngestHandle::try_submit`] without cloning a handle.
    pub fn try_submit(
        &self,
        batch: BatchUpdate,
    ) -> Result<Ticket<S::Outcome, S::Error>, SubmitError> {
        self.handle().try_submit(batch)
    }

    /// [`IngestHandle::submit_lenient`] without cloning a handle.
    pub fn submit_lenient(
        &self,
        batch: BatchUpdate,
    ) -> Result<Ticket<S::Outcome, S::Error>, SubmitError> {
        self.handle().submit_lenient(batch)
    }

    /// [`IngestHandle::try_submit_lenient`] without cloning a handle.
    pub fn try_submit_lenient(
        &self,
        batch: BatchUpdate,
    ) -> Result<Ticket<S::Outcome, S::Error>, SubmitError> {
        self.handle().try_submit_lenient(batch)
    }

    /// A snapshot of the observability counters.
    pub fn stats(&self) -> IngestStats {
        self.handle().stats()
    }

    /// Manual mode only: runs one drain cycle on the calling thread and
    /// returns how many submissions it processed (0 when the queue was
    /// empty or the sink already panicked away).
    ///
    /// # Panics
    /// On a threaded ingest — the dedicated drainer owns its cycles.
    pub fn drain_once(&mut self) -> usize {
        let drainer = match &mut self.mode {
            Mode::Manual(drainer) => drainer,
            Mode::Threaded(_) => panic!("drain_once on a threaded ingest"),
            Mode::Done => return 0,
        };
        if drainer.sink.is_none() {
            return 0;
        }
        match drainer.take(false) {
            Some(taken) => {
                let count = taken.len();
                drainer.process(taken);
                count
            }
            None => 0,
        }
    }

    /// Shuts the ingest down: refuses new submissions, flushes everything
    /// queued through the sink, and returns the sink — `None` when it
    /// panicked away (reopen durable sinks through their recovery path).
    pub fn shutdown(mut self) -> Option<S> {
        self.shared.close();
        match std::mem::replace(&mut self.mode, Mode::Done) {
            Mode::Threaded(handle) => handle.join().unwrap_or(None),
            Mode::Manual(mut drainer) => {
                while drainer.sink.is_some() {
                    match drainer.take(false) {
                        Some(taken) => {
                            drainer.process(taken);
                        }
                        None => break,
                    }
                }
                self.shared.fail_all_queued();
                drainer.sink.take()
            }
            Mode::Done => None,
        }
    }
}

impl<S: IngestSink> Drop for Ingest<S> {
    /// Dropping an ingest flushes it like [`Ingest::shutdown`] (the sink is
    /// discarded). During a panic unwind the flush is skipped and queued
    /// submissions fail with [`IngestError::Closed`] instead.
    fn drop(&mut self) {
        self.shared.close();
        match std::mem::replace(&mut self.mode, Mode::Done) {
            Mode::Threaded(handle) => {
                let _ = handle.join();
            }
            Mode::Manual(mut drainer) => {
                if !std::thread::panicking() {
                    while drainer.sink.is_some() {
                        match drainer.take(false) {
                            Some(taken) => {
                                drainer.process(taken);
                            }
                            None => break,
                        }
                    }
                }
                self.shared.fail_all_queued();
            }
            Mode::Done => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::sim::SimulationIndex;
    use crate::service::MatchService;
    use igpm_graph::{Pattern, Predicate};

    fn toggle_graph(nodes: usize) -> DataGraph {
        let mut g = DataGraph::new();
        for i in 0..nodes {
            g.add_labeled_node(if i % 2 == 0 { "A" } else { "B" });
        }
        g
    }

    fn service(graph: DataGraph) -> MatchService<SimulationIndex> {
        let mut svc = MatchService::with_shards(graph, 1);
        let mut p = Pattern::new();
        let u = p.add_node(Predicate::label("A"));
        let v = p.add_node(Predicate::label("B"));
        p.add_normal_edge(u, v);
        svc.register(&p).unwrap();
        svc
    }

    fn insert(from: u32, to: u32) -> Update {
        Update::insert(NodeId(from), NodeId(to))
    }

    fn delete(from: u32, to: u32) -> Update {
        Update::delete(NodeId(from), NodeId(to))
    }

    #[test]
    fn options_seeded_from_committed_artifact_knee() {
        let report = JsonValue::parse(
            r#"{
                "workload": {"batch_size": 2000},
                "unit_update": {"counter_median_ns": 549},
                "batch": {"counter_median_ms": 0.790288}
            }"#,
        )
        .unwrap();
        let opts = IngestOptions::from_artifact(&report).unwrap();
        // 549 ns unit, 395.144 ns/update batched: F ≈ 153.9 ns, knee =
        // ⌈153.9 / (0.05 · 395.144)⌉ = 8 — the documented default.
        assert_eq!(opts.min_batch, 8);
        assert_eq!(opts.min_batch, IngestOptions::default().min_batch);
        assert_eq!(opts.max_batch, 2000);
        assert_eq!(opts.burst_backlog, 16);
    }

    #[test]
    fn options_degenerate_artifacts_are_refused_or_floored() {
        assert!(IngestOptions::from_artifact(&JsonValue::parse("{}").unwrap()).is_none());
        let inverted = JsonValue::parse(
            r#"{
                "workload": {"batch_size": 100},
                "unit_update": {"counter_median_ns": 200},
                "batch": {"counter_median_ms": 0.05}
            }"#,
        )
        .unwrap();
        // 500 ns/update batched beats nothing: stay latency-optimal.
        assert_eq!(IngestOptions::from_artifact(&inverted).unwrap().min_batch, 1);
    }

    #[test]
    fn adaptive_cap_doubles_under_backlog_and_halves_when_idle() {
        let opts =
            IngestOptions { queue_capacity: 1024, min_batch: 2, max_batch: 8, burst_backlog: 4 };
        let mut ingest = Ingest::new_manual(service(toggle_graph(64)), opts);
        let handle = ingest.handle();
        let mut tickets = Vec::new();
        for i in 0..10u32 {
            let batch: BatchUpdate = vec![insert(i, 32 + i)].into_iter().collect();
            tickets.push(handle.try_submit(batch).unwrap());
        }
        assert_eq!(ingest.stats().current_cap, 2);
        assert_eq!(ingest.drain_once(), 2); // backlog 8 ≥ 4 → cap 4
        assert_eq!(ingest.stats().current_cap, 4);
        assert_eq!(ingest.drain_once(), 4); // backlog 4 ≥ 4 → cap 8
        assert_eq!(ingest.stats().current_cap, 8);
        assert_eq!(ingest.drain_once(), 4); // backlog 0 → cap halves to 4
        assert_eq!(ingest.stats().current_cap, 4);
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        assert_eq!(ingest.stats().committed_batches, 3);
        assert_eq!(ingest.stats().max_coalesced, 4);
    }

    #[test]
    fn strict_rejection_reports_submission_positions_and_leaves_no_trace() {
        let mut ingest = Ingest::new_manual(service(toggle_graph(8)), IngestOptions::default());
        let handle = ingest.handle();
        let ok_before = handle.try_submit(vec![insert(0, 1)].into_iter().collect()).unwrap();
        // Valid op at 0, duplicate (vs the *previous submission*) at 1.
        let bad =
            handle.try_submit(vec![insert(2, 3), insert(0, 1)].into_iter().collect()).unwrap();
        let ok_after = handle.try_submit(vec![insert(4, 5)].into_iter().collect()).unwrap();
        ingest.drain_once();
        assert!(ok_before.wait().is_ok());
        match bad.wait() {
            Err(IngestError::Rejected(rejections)) => {
                assert_eq!(rejections.len(), 1);
                assert_eq!(rejections[0].position, 1);
                assert_eq!(rejections[0].reason, RejectReason::DuplicateInsert);
            }
            other => panic!("expected a strict rejection, got {other:?}"),
        }
        // The rejected submission's valid op (2→3) must NOT have applied.
        let sink = ingest.shutdown().expect("sink is alive");
        assert!(sink.graph().has_edge(NodeId(0), NodeId(1)));
        assert!(!sink.graph().has_edge(NodeId(2), NodeId(3)));
        assert!(sink.graph().has_edge(NodeId(4), NodeId(5)));
        drop(ok_after);
    }

    #[test]
    fn lenient_fully_stripped_cycle_touches_nothing() {
        let mut ingest = Ingest::new_manual(service(toggle_graph(8)), IngestOptions::default());
        let handle = ingest.handle();
        let ticket = handle.try_submit_lenient(vec![delete(0, 1)].into_iter().collect()).unwrap();
        ingest.drain_once();
        let apply = ticket.wait().unwrap();
        assert!(apply.outcome.is_none());
        assert_eq!(apply.applied_ops, 0);
        assert_eq!(apply.rejected.len(), 1);
        assert_eq!(apply.rejected[0].reason, RejectReason::AbsentDelete);
        let sink = ingest.shutdown().expect("sink is alive");
        assert_eq!(sink.epoch(), 0, "a fully stripped cycle must not bump the epoch");
    }

    #[test]
    fn backpressure_is_typed_and_oversize_is_admitted_when_empty() {
        let opts = IngestOptions { queue_capacity: 2, ..IngestOptions::default() };
        let mut ingest = Ingest::new_manual(service(toggle_graph(64)), opts);
        let handle = ingest.handle();
        // Oversized vs capacity 2, but the queue is empty: admitted.
        let big = handle
            .try_submit(vec![insert(0, 1), insert(2, 3), insert(4, 5)].into_iter().collect())
            .unwrap();
        match handle.try_submit(vec![insert(6, 7)].into_iter().collect()) {
            Err(SubmitError::Backpressure { pending_ops: 3, capacity: 2 }) => {}
            other => panic!("expected backpressure, got {other:?}"),
        }
        assert_eq!(handle.stats().backpressure_events, 1);
        ingest.drain_once();
        assert!(big.wait().is_ok());
        assert!(handle.try_submit(vec![insert(6, 7)].into_iter().collect()).is_ok());
        ingest.drain_once();
    }

    #[test]
    fn empty_submissions_are_refused() {
        let ingest = Ingest::new_manual(service(toggle_graph(4)), IngestOptions::default());
        assert_eq!(ingest.try_submit(BatchUpdate::new()).unwrap_err(), SubmitError::Empty);
    }

    #[test]
    fn shutdown_flushes_and_closes_handles() {
        let ingest = Ingest::new_manual(service(toggle_graph(16)), IngestOptions::default());
        let handle = ingest.handle();
        let t1 = handle.try_submit(vec![insert(0, 1)].into_iter().collect()).unwrap();
        let t2 = handle.try_submit(vec![insert(2, 3)].into_iter().collect()).unwrap();
        let sink = ingest.shutdown().expect("sink is alive");
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        assert!(sink.graph().has_edge(NodeId(0), NodeId(1)));
        assert!(sink.graph().has_edge(NodeId(2), NodeId(3)));
        assert!(handle.is_closed());
        assert_eq!(
            handle.try_submit(vec![insert(4, 5)].into_iter().collect()).unwrap_err(),
            SubmitError::Closed
        );
    }
}

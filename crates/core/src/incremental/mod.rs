//! Incremental graph pattern matching (Sections 5 and 6).
//!
//! * [`sim`] — incremental **graph simulation**: the auxiliary
//!   `match()`/`candt()` structures, `IncMatch-` (unit deletions),
//!   `IncMatch+`/`IncMatch+dag` (unit insertions) and the batch `IncMatch`
//!   with the `minDelta` update reduction.
//! * [`bsim`] — incremental **bounded simulation**: landmark/distance vectors
//!   as the distance-side auxiliary structure, cc/cs/ss *pairs* instead of
//!   edges, and the `IncBMatch+`/`IncBMatch-`/`IncBMatch` procedures.
//!
//! Shard configuration (the `IGPM_SHARDS` knob and the contiguous node-range
//! partition) lives at its canonical home, [`igpm_graph::shard`]; both
//! engines import it from there directly.
//!
//! # Failure model: panics, errors and invariants
//!
//! Both engines expose a *transactional* batch boundary (see `RECOVERY.md`
//! at the repository root):
//!
//! * [`SimulationIndex::try_apply_batch`](sim::SimulationIndex::try_apply_batch)
//!   / [`BoundedIndex::try_apply_batch`](bsim::BoundedIndex::try_apply_batch)
//!   — the canonical fallible APIs. Batches are validated up front
//!   ([`igpm_graph::update::validate_batch`]) and rejected whole
//!   ([`ApplyError::InvalidBatch`]) if any update is out of range, a
//!   duplicate insert or an absent delete; nothing is touched on rejection.
//! * `apply_batch_lenient` — the explicit lossy variant: structurally
//!   invalid updates (out-of-range ids) are stripped, redundant updates
//!   (duplicate inserts, absent deletes) are neutralised by the net-effect
//!   reduction, and every skipped update is reported.
//! * `apply_batch` — the historical infallible name, now a delegate of the
//!   lenient path: identical behaviour for well-formed input, a clean panic
//!   (with state contained as below) instead of silent corruption otherwise.
//!
//! Every batch entry point of a standalone index runs one pipeline: the
//! [`MatchService`](crate::service::MatchService) pipeline on the index's
//! own state — the net-effect reduction, the graph mutation
//! ([`IncrementalEngine::shared_mutate`] on the index's own
//! [`Shared`](IncrementalEngine::Shared) state), then the per-pattern stages
//! that [`IncrementalEngine::try_apply_shared`] runs behind a service.
//!
//! A panic *mid-batch* — an armed [`igpm_graph::fail`] failpoint or a real
//! bug — is caught at the batch boundary (`catch_unwind`; the scoped worker
//! threads of every sharded stage funnel their panics through their join
//! handles into the same containment). Each engine has one containment,
//! which consults how far the pipeline got and whether the caller owns the
//! graph. A standalone index owns it: the graph is rolled back
//! ([`igpm_graph::DataGraph::rollback_updates`]), and the index stays
//! usable if the panic landed in a stage that touches no auxiliary state —
//! the reduction stages, and plain simulation's graph mutation — or is
//! **poisoned** otherwise: reads error with [`ApplyError::Poisoned`] until
//! `recover()` rebuilds from the graph via the ordinary sharded build, which
//! is bit-identical to a fresh build by the build-equivalence invariant.
//! Behind a service the graph mutation is already committed service-wide,
//! so nothing is rolled back and the pattern's engine always poisons. The
//! stage-by-stage table is in `RECOVERY.md`.
//!
//! The `unwrap`/`expect`/`assert!` occurrences that remain in these engines
//! fall into two audited classes:
//!
//! * **Input-reachable conditions** are typed errors or documented panics at
//!   the API boundary: batch shape → [`ApplyError`]; pattern shape
//!   (non-normal pattern, arity > 64) → [`BuildError`] via `try_build*`,
//!   with the infallible `build*` names delegating and panicking; reading a
//!   poisoned index → [`ApplyError::Poisoned`] from the `try_*` readers, a
//!   documented panic from the infallible readers. No other panic is
//!   reachable from user input that passed validation.
//! * **Internal invariants** stay as asserts on purpose: worker-thread join
//!   `expect`s ("… shard panicked" — re-raising a contained panic, not an
//!   error of their own), counter-underflow and mask-consistency
//!   `debug_assert`s, and the "reduced batch contained a no-op" checks that
//!   guard the reduced-batch precondition inside the mutation kernels.
//!   Turning those into `Result`s would hide engine bugs instead of
//!   surfacing them; the containment layer above converts any such failure
//!   into rollback-or-poison rather than a torn index.

pub mod bsim;
pub mod sim;

use crate::stats::AffStats;
use igpm_graph::hash::FastHashSet;
use igpm_graph::update::{RejectReason, UpdateRejection};
use igpm_graph::{
    ApplyError, BatchUpdate, DataGraph, MatchDelta, MatchRelation, NodeId, Pattern, PatternNodeId,
    Update,
};
use std::fmt;
use std::sync::Arc;

/// The engine-shaped hole in the recovery machinery: everything an
/// orchestrator (in-memory poison recovery, or the on-disk
/// [`DurableIndex`](crate::durable::DurableIndex)) needs from an incremental
/// matching engine, implemented by both [`sim::SimulationIndex`] and
/// [`bsim::BoundedIndex`].
///
/// The trait's centrepiece is the **provided**
/// [`recover_with_shards`](IncrementalEngine::recover_with_shards): the
/// single shared rebuild-and-clear-poison step. Rebuilding via the ordinary
/// sharded cold-start build is bit-identical to a fresh build by the
/// build-equivalence invariant, and assigning the fresh value over `*self`
/// drops every possibly-torn auxiliary structure *and* the poisoned flag in
/// one move — there is no separate poison bookkeeping to forget. Both
/// engines' inherent `recover_with_shards` delegate here, and
/// `DurableIndex` composes the same step with WAL replay (see the
/// "Durability" section of `RECOVERY.md`).
pub trait IncrementalEngine: Sized {
    /// Cold-start build over `shards` shards — the engines' inherent
    /// `build_with_shards`.
    ///
    /// # Panics
    /// Panics on an unbuildable pattern (see [`BuildError`]), exactly like
    /// the inherent constructor it delegates to.
    fn rebuild_with_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self;

    /// The pattern the index was built for.
    fn pattern(&self) -> &Pattern;

    /// The transactional batch boundary — the engines' inherent
    /// `try_apply_batch_with_shards` (validate whole, apply whole, contain
    /// panics as rollback-or-poison). Returns the [`AffStats`] of the batch
    /// *and* the emitted [`MatchDelta`] — the structured `ΔM` stream the
    /// [`DurableIndex`](crate::durable::DurableIndex) re-emits verbatim
    /// during WAL-tail replay.
    fn try_apply_batch_with_shards(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError>;

    /// The current maximum match, or [`ApplyError::Poisoned`].
    fn try_matches(&self) -> Result<MatchRelation, ApplyError>;

    /// True iff a contained panic tore the auxiliary state and the index
    /// must be recovered before further use.
    fn poisoned(&self) -> bool;

    /// Rebuilds the index from `graph` via the ordinary sharded cold-start
    /// build, clearing the poisoned flag — bit-identical to a fresh build by
    /// the build-equivalence invariant. The one shared recovery step; see
    /// the trait docs.
    fn recover_with_shards(&mut self, graph: &DataGraph, shards: usize) {
        *self = Self::rebuild_with_shards(self.pattern(), graph, shards);
    }

    /// Approximate heap bytes of this engine's own auxiliary state — what
    /// one more registered pattern costs. Structures shared with other
    /// patterns (the candidate lists a service interns, the
    /// [`Shared`](IncrementalEngine::Shared) state) are left to
    /// [`shared_memory_bytes`](IncrementalEngine::shared_memory_bytes) and
    /// [`MatchService::memory_bytes`](crate::service::MatchService::memory_bytes).
    fn memory_bytes(&self) -> usize;

    // ------------------------------------------------------------------
    // Service mode (MatchService)
    // ------------------------------------------------------------------
    //
    // A `MatchService` registers many engines of one type over one shared
    // `DataGraph` and splits every batch into pattern-independent work done
    // once (validation, net-effect reduction, graph mutation, shared
    // auxiliary maintenance) and per-pattern work fanned out to every
    // registered engine. The methods below are that split: `shared_*` run
    // once per batch for the whole service; `build_in_service` /
    // `try_apply_shared` run once per registered pattern. The contract is
    // the **shard- and sharing-invariance of outcomes**: for every shard
    // count, a pattern's `ApplyOutcome` from the service path is
    // bit-identical to the outcome an independent single-pattern index —
    // built over the same graph with the same shared auxiliary state —
    // produces for the same stream. That holds by construction: a
    // standalone `try_apply_batch_with_shards` runs these very methods on
    // the index's own state (`shared_mutate` on its own `Shared`, then the
    // per-pattern stages of `try_apply_shared`); `tests/service_conformance.rs`
    // keeps checking it.

    /// The pattern-independent auxiliary structure the service maintains
    /// *once* for all registered patterns. Plain simulation needs none
    /// (`()`); bounded simulation shares one [`igpm_distance::LandmarkIndex`]
    /// — the distance side of `IncLM` is pattern-independent, so the
    /// RETE-style sharing win is running it once per batch instead of once
    /// per pattern.
    type Shared;

    /// Builds the shared auxiliary structure for the current graph, sharded.
    /// Also the service-level *recovery* step after a contained shared-stage
    /// panic: a freshly built value must be exact for the rolled-back graph.
    fn shared_build(graph: &DataGraph, shards: usize) -> Self::Shared;

    /// Approximate heap bytes of the shared auxiliary structure.
    fn shared_memory_bytes(shared: &Self::Shared) -> usize;

    /// The [`igpm_graph::StagePanic`] stage label reported when
    /// [`shared_mutate`](IncrementalEngine::shared_mutate) panics: the
    /// engine's name for the stage that mutates the graph service-wide
    /// (`"mutate"` for plain simulation, `"landmark"` for bounded).
    fn shared_stage() -> &'static str;

    /// The once-per-batch graph mutation: applies the net-effective updates
    /// to `graph` and maintains `shared` alongside, returning the
    /// [`SharedMutation`] summary every engine's
    /// [`try_apply_shared`](IncrementalEngine::try_apply_shared) consumes.
    /// Only called with a non-empty `effective` list: a service, and a
    /// standalone index running the same pipeline on its own state, skip it
    /// for an empty reduction. Fires the engine's graph-mutation failpoint
    /// ([`igpm_graph::fail`]), so fault tests can interrupt the shared stage.
    fn shared_mutate(
        shared: &mut Self::Shared,
        graph: &mut DataGraph,
        effective: &[Update],
        shards: usize,
    ) -> SharedMutation;

    /// Cold-start build *inside a service*: like
    /// [`rebuild_with_shards`](IncrementalEngine::rebuild_with_shards) but
    /// fallible, fed the interned per-pattern-node candidate lists the
    /// service deduplicates across registrations (index `u` holds the
    /// candidates of pattern node `u`, sorted ascending — exactly what
    /// `candidates_with_shards` would compute), and borrowing the shared
    /// auxiliary state for the duration of the build. The result is
    /// bit-identical to an independent index built over the same graph with
    /// the same shared state.
    fn build_in_service(
        pattern: &Pattern,
        graph: &DataGraph,
        shared: &mut Self::Shared,
        cand_lists: &[Arc<Vec<NodeId>>],
        shards: usize,
    ) -> Result<Self, BuildError>;

    /// The per-pattern half of a service batch: consumes the shared
    /// reduction ([`SharedBatch`]) and mutation summary ([`SharedMutation`])
    /// instead of redoing them, and runs only the pattern-dependent pipeline
    /// stages against the **already-mutated** graph. Statistics and deltas
    /// equal what the engine's own
    /// [`try_apply_batch_with_shards`](IncrementalEngine::try_apply_batch_with_shards)
    /// produces for the original batch by construction: the standalone path
    /// runs the same stages after its own reduction and
    /// [`shared_mutate`](IncrementalEngine::shared_mutate).
    ///
    /// Unlike the standalone path there is no rollback arm: the graph
    /// mutation is already committed service-wide, so a contained panic
    /// **always poisons** this engine (`rolled_back: false`) and never
    /// touches the graph or the other registered patterns — recovery is
    /// per-pattern, from the current graph.
    fn try_apply_shared(
        &mut self,
        graph: &DataGraph,
        shared: &mut Self::Shared,
        batch: &SharedBatch<'_>,
        mutation: &SharedMutation,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError>;

    /// The canonical candidate-set keys of this engine's pattern, one per
    /// pattern node in node order: the [`fmt::Display`] rendering of each
    /// node's predicate. Two pattern nodes (of any registered patterns)
    /// share a key iff they have equal candidate sets over every graph, so
    /// the service uses these strings to intern candidate lists across
    /// registrations.
    fn candidate_keys(&self) -> Vec<String> {
        let pattern = self.pattern();
        pattern.nodes().map(|u| pattern.predicate(u).to_string()).collect()
    }
}

/// The pattern-independent view of one service batch, computed once and
/// handed to every registered engine's
/// [`IncrementalEngine::try_apply_shared`].
#[derive(Debug, Clone, Copy)]
pub struct SharedBatch<'a> {
    /// Length of the *original* batch (before reduction) — what each
    /// engine's [`AffStats::delta_g`] reports.
    pub batch_len: usize,
    /// True iff every update of the original batch is an insertion — the
    /// CALM monotone fast-path trigger, sampled on the original batch.
    pub monotone: bool,
    /// The net-effective updates in first-touch order: the output of the
    /// `minDelta` net-effect reduction
    /// ([`igpm_graph::reduce_batch_sharded`]), run once per batch by the
    /// service, or by a standalone index for itself.
    pub effective: &'a [Update],
}

/// Summary of one [`IncrementalEngine::shared_mutate`] run, consumed by
/// every engine's per-pattern apply.
#[derive(Debug, Clone, Default)]
pub struct SharedMutation {
    /// The nodes whose shared auxiliary entries changed (the `IncLM`
    /// affected set of the bounded engine). `None` for engines whose shared
    /// state is trivial.
    pub affected: Option<FastHashSet<NodeId>>,
    /// How many effective updates the shared mutation actually processed —
    /// what the bounded engine reports as [`AffStats::reduced_delta_g`].
    pub updates_processed: usize,
    /// How many shared auxiliary entries changed — the bounded engine's
    /// [`AffStats::aux_changes`] contribution of the landmark stage.
    pub affected_entries: usize,
}

/// Typed error of the fallible index constructors
/// ([`sim::SimulationIndex::try_build`], [`bsim::BoundedIndex::try_build`]).
/// The infallible `build*` names delegate to these and panic with exactly
/// the [`fmt::Display`] text below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The pattern is not a normal pattern (unit bounds only) — required by
    /// incremental simulation, which maintains matches over graph *edges*.
    NotNormal,
    /// The pattern has more nodes than the 64-bit membership masks can
    /// represent.
    ArityTooLarge {
        /// The offending pattern's node count.
        arity: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NotNormal => write!(f, "incremental simulation needs a normal pattern"),
            BuildError::ArityTooLarge { arity } => write!(
                f,
                "pattern arity {arity} exceeds the {}-bit membership masks",
                sim::MAX_PATTERN_NODES
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Result of one successful (transactional) batch application: the
/// [`AffStats`] accounting plus the emitted [`MatchDelta`].
///
/// The delta is expressed against the observable match view and obeys the
/// exact-view identity `view(t) = view(t-1) ∖ removed ⊎ inserted`; it is
/// bit-identical for every shard count (the delta extension of the shard
/// invariant, see `tests/delta_stream.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyOutcome {
    /// Statistics of the applied batch.
    pub stats: AffStats,
    /// The structured `ΔM` of the batch: the match pairs that entered and
    /// left the view, each list sorted ascending.
    pub delta: MatchDelta,
}

impl fmt::Display for ApplyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.stats, self.delta)
    }
}

/// Result of a lenient batch application: the statistics of the applied
/// portion plus every update that was skipped (with its reason).
#[derive(Debug, Clone, PartialEq)]
pub struct LenientApply {
    /// Statistics of the applied (valid) portion of the batch.
    pub stats: AffStats,
    /// The emitted [`MatchDelta`] of the applied portion — equal to the
    /// delta the strict path emits for the surviving (non-rejected) updates.
    pub delta: MatchDelta,
    /// The skipped updates, in batch order. Structurally invalid updates
    /// (out-of-range ids) were stripped before the engine saw the batch —
    /// their reported positions refer to the **original** batch, not the
    /// post-strip layout; redundant ones (duplicate inserts, absent deletes)
    /// were neutralised by the net-effect reduction — either way they had no
    /// effect.
    pub rejected: Vec<UpdateRejection>,
}

/// What the per-batch [`DeltaTracker`] records.
///
/// `Monotone` is the CALM fast path: a batch of pure insertions can only
/// grow the maximum (bounded) simulation — edge insertions never lengthen a
/// path and never retract a counter below its old value — so removal
/// tracking is skipped entirely and a `debug_assert!` documents that the
/// skipped tracker would have stayed empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum TrackMode {
    /// Cold-start build / refinement: no previous view exists, record
    /// nothing.
    #[default]
    Off,
    /// Insert-only batch: record insertions; removals are impossible.
    Monotone,
    /// General batch: record both directions.
    Full,
}

/// Per-batch recorder of raw match-bit transitions, owned by each engine and
/// armed at the top of every apply path. "Raw" means mask-level: the
/// finalisation step ([`finalize_delta`]) converts the raw transitions into
/// the view-level [`MatchDelta`], handling the collapse to the empty view
/// when some pattern node loses its last match (`P ⋬ G`) and the
/// resurrection out of it.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaTracker {
    mode: TrackMode,
    inserted: Vec<(u32, u32)>,
    removed: Vec<(u32, u32)>,
}

impl DeltaTracker {
    /// Starts recording for one batch. `monotone` engages the CALM fast
    /// path (insert-only batch): removal tracking is skipped.
    pub(crate) fn arm(&mut self, monotone: bool) {
        self.mode = if monotone { TrackMode::Monotone } else { TrackMode::Full };
        self.inserted.clear();
        self.removed.clear();
    }

    /// Stops recording and drops anything recorded (build paths, panic
    /// containment).
    pub(crate) fn reset(&mut self) {
        self.mode = TrackMode::Off;
        self.inserted.clear();
        self.removed.clear();
    }

    /// Records the raw transition `(u, v): candidate → match`.
    #[inline]
    pub(crate) fn record_inserted(&mut self, u: usize, v: u32) {
        if self.mode != TrackMode::Off {
            self.inserted.push((u as u32, v));
        }
    }

    /// Records the raw transition `(u, v): match → candidate`. A no-op in
    /// `Off` mode; unreachable in `Monotone` mode — the debug assertion is
    /// the proof obligation of the fast path.
    #[inline]
    pub(crate) fn record_removed(&mut self, u: usize, v: u32) {
        match self.mode {
            TrackMode::Off => {}
            TrackMode::Monotone => {
                debug_assert!(
                    false,
                    "monotone fast path violated: insert-only batch demoted (u{u}, n{v})"
                );
            }
            TrackMode::Full => self.removed.push((u as u32, v)),
        }
    }
}

/// What the engine should do with its cached [`MatchRelation`] view after a
/// batch, as decided by [`finalize_delta`]. Replaces the historical
/// unconditional `invalidate_cache()` on the apply paths: an empty delta
/// keeps the cache, a non-empty one patches it in place, and only the
/// collapse/resurrection transitions install a fresh value.
pub(crate) enum CacheOp {
    /// The view did not change — leave the cache exactly as it is.
    Keep,
    /// Patch a warm cache in place with the emitted delta (a cold cache
    /// stays cold).
    Patch,
    /// Install this relation as the new cached view (collapse installs the
    /// empty relation, resurrection installs the freshly rebuilt one).
    Install(MatchRelation),
}

/// Converts the raw transitions recorded by a [`DeltaTracker`] into the
/// view-level [`MatchDelta`] and the matching [`CacheOp`].
///
/// `was_match`/`now_match` are `is_match()` sampled immediately before the
/// tracker was armed and at finalisation; `raw_current_pairs` enumerates the
/// current mask-level pairs (consulted only on a collapse); `rebuild`
/// materialises the current view (consulted only on a resurrection).
pub(crate) fn finalize_delta(
    tracker: &mut DeltaTracker,
    was_match: bool,
    now_match: bool,
    pattern_nodes: usize,
    raw_current_pairs: impl FnOnce() -> Vec<(u32, u32)>,
    rebuild: impl FnOnce() -> MatchRelation,
) -> (MatchDelta, CacheOp) {
    let mut inserted = std::mem::take(&mut tracker.inserted);
    let mut removed = std::mem::take(&mut tracker.removed);
    tracker.reset();
    inserted.sort_unstable();
    removed.sort_unstable();
    debug_assert!(inserted.windows(2).all(|w| w[0] != w[1]), "duplicate raw insertion");
    debug_assert!(removed.windows(2).all(|w| w[0] != w[1]), "duplicate raw removal");
    match (was_match, now_match) {
        // The view was empty and stays empty: raw candidate churn is not
        // observable, nothing to emit, the cache (cold, or a warm empty
        // relation) is still exact.
        (false, false) => (MatchDelta::empty(), CacheOp::Keep),
        // The ordinary case: the raw transitions are the view transitions,
        // minus the pairs that flipped both ways within the batch (demoted
        // by the deletion half, re-promoted by the insertion half).
        (true, true) => {
            let (inserted, removed) = cancel_opposites(inserted, removed);
            let delta = MatchDelta { inserted: to_pairs(inserted), removed: to_pairs(removed) };
            if delta.is_empty() {
                (delta, CacheOp::Keep)
            } else {
                (delta, CacheOp::Patch)
            }
        }
        // Collapse: some pattern node lost its last match, the view drops
        // from view(t-1) to ∅ — emit the *entire previous view* as removed,
        // reconstructed from the current masks by undoing the raw churn.
        (true, false) => {
            let mut previous = raw_current_pairs();
            previous.sort_unstable();
            previous.retain(|pair| inserted.binary_search(pair).is_err());
            previous.extend(removed);
            previous.sort_unstable();
            let delta = MatchDelta { inserted: Vec::new(), removed: to_pairs(previous) };
            (delta, CacheOp::Install(MatchRelation::empty(pattern_nodes)))
        }
        // Resurrection: every pattern node (re)gained a match, the view
        // jumps from ∅ to the full current relation — emit it whole and
        // install it as the warm cache (it was just materialised anyway).
        (false, true) => {
            let view = rebuild();
            let mut pairs: Vec<(PatternNodeId, NodeId)> = view.pairs().collect();
            pairs.sort_unstable();
            let delta = MatchDelta { inserted: pairs, removed: Vec::new() };
            (delta, CacheOp::Install(view))
        }
    }
}

/// Sorted raw `(pattern_bit, data_index)` pairs at the mask level.
type RawPairs = Vec<(u32, u32)>;

/// Two-pointer removal of the pairs present in both sorted lists — a pair
/// demoted and re-promoted within one batch has no net view effect.
fn cancel_opposites(inserted: RawPairs, removed: RawPairs) -> (RawPairs, RawPairs) {
    if inserted.is_empty() || removed.is_empty() {
        return (inserted, removed);
    }
    let mut kept_inserted = Vec::with_capacity(inserted.len());
    let mut kept_removed = Vec::with_capacity(removed.len());
    let (mut i, mut j) = (0, 0);
    while i < inserted.len() && j < removed.len() {
        match inserted[i].cmp(&removed[j]) {
            std::cmp::Ordering::Less => {
                kept_inserted.push(inserted[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                kept_removed.push(removed[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    kept_inserted.extend_from_slice(&inserted[i..]);
    kept_removed.extend_from_slice(&removed[j..]);
    (kept_inserted, kept_removed)
}

fn to_pairs(raw: Vec<(u32, u32)>) -> Vec<(PatternNodeId, NodeId)> {
    raw.into_iter().map(|(u, v)| (PatternNodeId(u), NodeId(v))).collect()
}

/// How far the batch pipeline progressed — consulted by the panic
/// containment to decide between rollback and poisoning. Stages are set
/// *before* their work begins, so the stage recorded at unwind time is the
/// stage whose work (or whose entry failpoint) panicked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PipelineStage {
    /// Growing per-node arrays / planning shards; auxiliary arrays may be
    /// mid-growth, the graph is untouched.
    Prepare,
    /// Net-effect reduction: pure reads, nothing mutated yet.
    Reduce,
    /// Graph mutation: the graph is (partially) mutated, auxiliary state is
    /// still pre-batch.
    Mutate,
    /// Landmark/distance maintenance (`IncLM`, bounded engine only): graph
    /// and landmark vectors mutate interleaved.
    Landmark,
    /// Pair re-evaluation (bounded engine only).
    Refresh,
    /// Counter absorption (plain engine only).
    Absorb,
    /// Demotion drain.
    Demote,
    /// Promotion drain.
    Promote,
}

impl PipelineStage {
    pub(crate) fn label(self) -> &'static str {
        match self {
            PipelineStage::Prepare => "prepare",
            PipelineStage::Reduce => "reduce",
            PipelineStage::Mutate => "mutate",
            PipelineStage::Landmark => "landmark",
            PipelineStage::Refresh => "refresh",
            PipelineStage::Absorb => "absorb",
            PipelineStage::Demote => "demote",
            PipelineStage::Promote => "promote",
        }
    }
}

/// Renders a `catch_unwind` payload as text (panics carry `&str` or `String`
/// payloads everywhere in this workspace).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Strips the structurally invalid updates (out-of-range ids) out of `batch`
/// for the lenient path. Returns `None` when nothing needs stripping — the
/// caller then applies the original batch unchanged, so the lenient path is
/// byte-identical to the historical `apply_batch` for well-formed input
/// (redundant updates are neutralised by the net-effect reduction either
/// way).
pub(crate) fn strip_out_of_range(
    batch: &BatchUpdate,
    rejections: &[UpdateRejection],
) -> Option<BatchUpdate> {
    if rejections.iter().all(|r| r.reason != RejectReason::NodeOutOfRange) {
        return None;
    }
    let mut bad = rejections
        .iter()
        .filter(|r| r.reason == RejectReason::NodeOutOfRange)
        .map(|r| r.position)
        .peekable();
    let mut kept = Vec::with_capacity(batch.len());
    for (position, &update) in batch.iter().enumerate() {
        if bad.peek() == Some(&position) {
            bad.next();
        } else {
            kept.push(update);
        }
    }
    Some(BatchUpdate::from_updates(kept))
}

/// Guard used by the infallible `apply_batch` delegates: re-raises a
/// contained error as a panic, preserving the historical "a bad batch or a
/// mid-batch bug panics" behaviour — but with the state guarantees of the
/// containment (rolled back or poisoned) instead of a torn index.
pub(crate) fn unwrap_apply<T>(result: Result<T, ApplyError>) -> T {
    result.unwrap_or_else(|error| panic!("apply_batch: {error}"))
}

/// Phase A of the sharded SCC-joint protocol shared by `sim::prop_cc` and
/// `bsim::promote_sccs`: evaluate every nontrivial component's verdict
/// speculatively on scoped threads — each SCC owned by one worker, ownership
/// striped over the enumeration (at most `stripes` workers) — and slot the
/// results back by enumeration index, ready for the ordered commit with
/// dirty fallback that phase B of each engine performs. `evaluate` must be a
/// pure read of the engine state: different components run concurrently
/// against the same frozen state, and a verdict is discarded (re-evaluated
/// live) whenever an earlier commit promoted something.
pub(crate) fn speculate_scc_verdicts<V: Send>(
    comp_masks: &[u64],
    stripes: usize,
    evaluate: impl Fn(u64) -> V + Sync,
) -> Vec<Option<V>> {
    let stripes = stripes.clamp(1, comp_masks.len());
    let mut slots: Vec<Option<V>> = (0..comp_masks.len()).map(|_| None).collect();
    let evaluated: Vec<Vec<(usize, V)>> = std::thread::scope(|scope| {
        let evaluate = &evaluate;
        let handles: Vec<_> = (0..stripes)
            .map(|stripe| {
                scope.spawn(move || {
                    comp_masks
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % stripes == stripe)
                        .map(|(i, &mask)| (i, evaluate(mask)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("SCC speculation worker panicked")).collect()
    });
    for (i, verdict) in evaluated.into_iter().flatten() {
        slots[i] = Some(verdict);
    }
    slots
}

//! Multi-pattern matching service: many registered patterns, one shared
//! data graph, pattern-independent work done once per batch.
//!
//! The paper maintains one auxiliary structure per pattern; a workload that
//! watches many patterns over the *same* evolving graph would redo the
//! pattern-independent work — batch validation, the `minDelta` net-effect
//! reduction, the graph mutation and (for bounded simulation) the entire
//! landmark/distance maintenance — once per pattern. [`MatchService`] hoists
//! exactly that work to the service level:
//!
//! * [`MatchService::apply`] validates the batch once, runs one net-effect
//!   reduction, mutates the graph once and maintains the shared auxiliary
//!   state once ([`IncrementalEngine::shared_mutate`]); every registered
//!   pattern then runs only its pattern-dependent pipeline
//!   ([`IncrementalEngine::try_apply_shared`]) and the outcomes come back
//!   keyed by [`PatternId`].
//! * Candidate sets are interned across registrations: two pattern nodes
//!   with the same predicate (its canonical [`std::fmt::Display`] rendering
//!   is the intern key) share one `Arc`'d candidate list, computed once.
//! * [`MatchService::matches`] serves epoch-stamped snapshot views: the
//!   sorted [`MatchRelation`] is materialised at most once per pattern per
//!   epoch and shared behind an `Arc` until the next applied batch.
//!
//! The correctness contract is the **sharing invariance** extension of the
//! shard invariance the engines already uphold: for every shard count, every
//! pattern's [`ApplyOutcome`] (statistics *and* delta) is bit-identical to
//! what an independent single-pattern index — built over the same graph with
//! the same shared auxiliary state — would produce for the same stream
//! (`tests/service_conformance.rs`).
//!
//! # Failure model
//!
//! A panic inside the shared stage (graph mutation / landmark maintenance)
//! rolls the graph back and rebuilds the shared state from the rolled-back
//! graph; no engine has been touched, so the service keeps serving every
//! pattern. A panic inside one pattern's pipeline poisons **that pattern
//! only** ([`ApplyError::StagePanicked`] in its outcome slot, subsequent
//! reads return [`ApplyError::Poisoned`]); the graph and every other pattern
//! have already committed the batch, and [`MatchService::recover`] rebuilds
//! the one poisoned index from the current graph.

use crate::incremental::{
    panic_message, ApplyOutcome, BuildError, IncrementalEngine, SharedBatch, SharedMutation,
};
use crate::simulation::candidates_for_predicate;
use igpm_graph::shard::{configured_shards, ShardPlan};
use igpm_graph::update::{reduce_batch_sharded, validate_batch, StagePanic};
use igpm_graph::{
    ApplyError, Attributes, BatchUpdate, DataGraph, FastHashMap, LabelIndex, MatchRelation, NodeId,
    Pattern, Predicate, Update,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Stable handle to a pattern registered with a [`MatchService`].
///
/// Handles are generation-checked: deregistering a pattern invalidates its
/// id immediately, and a slot reused by a later registration yields a fresh
/// id that old handles cannot alias. Ids order by registration slot, so
/// iterating a [`ServiceApply::outcomes`] map visits patterns in a stable,
/// deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId {
    slot: u32,
    gen: u32,
}

impl fmt::Display for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern#{}.{}", self.slot, self.gen)
    }
}

/// Everything a [`MatchService::apply`] reports: the new epoch and one
/// outcome per registered pattern.
#[derive(Debug, Clone)]
pub struct ServiceApply {
    /// The epoch the batch committed as; snapshot views returned by
    /// [`MatchService::matches`] are stamped with it.
    pub epoch: u64,
    /// Per-pattern outcome, keyed by [`PatternId`] in registration-slot
    /// order. A pattern whose pipeline panicked (or that was already
    /// poisoned) carries an `Err` here while every other pattern's `Ok`
    /// outcome stands — per-pattern containment, see the module docs.
    pub outcomes: BTreeMap<PatternId, Result<ApplyOutcome, ApplyError>>,
}

/// Errors of the service surface.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The [`PatternId`] does not name a currently registered pattern —
    /// never registered, already deregistered, or a stale handle to a
    /// reused slot.
    UnknownPattern(PatternId),
    /// Registration rejected the pattern (see [`BuildError`]).
    Build(BuildError),
    /// A batch-level failure: validation rejected the batch whole, or the
    /// shared stage panicked and was contained (graph rolled back, shared
    /// state rebuilt, every engine untouched).
    Apply(ApplyError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownPattern(id) => {
                write!(f, "{id} is not registered with this service")
            }
            ServiceError::Build(err) => write!(f, "pattern registration failed: {err}"),
            ServiceError::Apply(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<BuildError> for ServiceError {
    fn from(err: BuildError) -> Self {
        ServiceError::Build(err)
    }
}

impl From<ApplyError> for ServiceError {
    fn from(err: ApplyError) -> Self {
        ServiceError::Apply(err)
    }
}

/// One interned candidate set: the predicate it belongs to, the shared
/// sorted node list, and how many graph nodes the list has been evaluated
/// over (candidate sets only ever *grow* under node additions — edge updates
/// never change them — so catching up is an append over the uncovered tail).
struct CandidateEntry {
    pred: Predicate,
    nodes: Arc<Vec<NodeId>>,
    covered: usize,
}

/// Candidate-set interner: one entry per distinct predicate rendering
/// ([`IncrementalEngine::candidate_keys`]), shared by every pattern node of
/// every registered pattern that carries an equal predicate.
#[derive(Default)]
struct CandidateInterner {
    by_key: FastHashMap<String, u32>,
    entries: Vec<CandidateEntry>,
}

impl CandidateInterner {
    /// Returns the shared candidate list of `pred` over `graph`, computing
    /// it on first sight and lazily extending it over nodes added since the
    /// last time this key was requested. `labels` must already cover the
    /// graph.
    fn intern(
        &mut self,
        pred: &Predicate,
        graph: &DataGraph,
        labels: &LabelIndex,
        shards: usize,
    ) -> Arc<Vec<NodeId>> {
        let key = pred.to_string();
        let nv = graph.node_count();
        if let Some(&idx) = self.by_key.get(&key) {
            let entry = &mut self.entries[idx as usize];
            if entry.covered < nv {
                let nodes = Arc::make_mut(&mut entry.nodes);
                for raw in entry.covered..nv {
                    let v = NodeId(raw as u32);
                    if entry.pred.satisfied_by(graph.attrs(v)) {
                        nodes.push(v);
                    }
                }
                entry.covered = nv;
            }
            return Arc::clone(&entry.nodes);
        }
        let nodes = Arc::new(candidates_for_predicate(pred, graph, labels, shards));
        let idx = self.entries.len() as u32;
        self.entries.push(CandidateEntry {
            pred: pred.clone(),
            nodes: Arc::clone(&nodes),
            covered: nv,
        });
        self.by_key.insert(key, idx);
        nodes
    }
}

/// One registered pattern: its engine plus the lazily materialised,
/// epoch-stamped snapshot view.
struct PatternSlot<E> {
    engine: E,
    /// `(epoch, view)` of the last materialised snapshot; reused verbatim
    /// while the epoch matches, dropped on the next read after a batch.
    view: RefCell<Option<(u64, Arc<MatchRelation>)>>,
}

/// A multi-pattern matching service over one shared [`DataGraph`]. See the
/// module docs for the architecture and the sharing-invariance contract.
pub struct MatchService<E: IncrementalEngine> {
    graph: DataGraph,
    shards: usize,
    shared: E::Shared,
    labels: LabelIndex,
    interner: CandidateInterner,
    slots: Vec<Option<PatternSlot<E>>>,
    generations: Vec<u32>,
    free: Vec<u32>,
    epoch: u64,
}

impl<E: IncrementalEngine> MatchService<E> {
    /// Creates a service over `graph` with the ambient shard configuration
    /// ([`configured_shards`]).
    pub fn new(graph: DataGraph) -> Self {
        Self::with_shards(graph, configured_shards())
    }

    /// [`MatchService::new`] with an explicit shard count, pinned for every
    /// subsequent build and batch (the shard invariant makes the choice
    /// unobservable in results).
    pub fn with_shards(graph: DataGraph, shards: usize) -> Self {
        let shards = shards.max(1);
        let labels = LabelIndex::build_with_shards(&graph, shards);
        let shared = E::shared_build(&graph, shards);
        MatchService {
            graph,
            shards,
            shared,
            labels,
            interner: CandidateInterner::default(),
            slots: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            epoch: 0,
        }
    }

    /// The shared data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The pinned shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The current epoch: the number of successfully applied batches.
    /// Snapshot views are valid for exactly one epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of currently registered patterns.
    pub fn pattern_count(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// Number of distinct candidate sets interned so far — at most the total
    /// number of pattern nodes ever registered, and strictly less whenever
    /// registrations share predicates.
    pub fn interned_candidate_sets(&self) -> usize {
        self.interner.entries.len()
    }

    /// Approximate heap bytes of the service's matching state: every
    /// registered pattern's own auxiliary state
    /// ([`IncrementalEngine::memory_bytes`]), plus what the patterns share —
    /// the interned candidate lists (each counted once, however many
    /// pattern nodes reference it), the label index and the engine's
    /// [`Shared`](IncrementalEngine::Shared) structure. The data graph
    /// itself and the materialised snapshot views are not included.
    pub fn memory_bytes(&self) -> usize {
        let patterns: usize =
            self.slots.iter().flatten().map(|slot| slot.engine.memory_bytes()).sum();
        let interned: usize = self
            .interner
            .entries
            .iter()
            .map(|entry| entry.nodes.capacity() * std::mem::size_of::<NodeId>())
            .sum();
        patterns + interned + self.labels.memory_bytes() + E::shared_memory_bytes(&self.shared)
    }

    /// The currently registered pattern ids, in registration-slot order.
    pub fn pattern_ids(&self) -> Vec<PatternId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                slot.as_ref().map(|_| PatternId { slot: idx as u32, gen: self.generations[idx] })
            })
            .collect()
    }

    /// Adds a node to the shared graph. Registered engines pick the node up
    /// at their next batch (exactly like the single-engine flow, where nodes
    /// are added to the graph directly between batches); candidate interning
    /// catches up lazily at the next registration touching an affected key.
    pub fn add_node(&mut self, attrs: Attributes) -> NodeId {
        self.graph.add_node(attrs)
    }

    /// Registers `pattern`, building its index over the current graph with
    /// interned candidate sets and the shared auxiliary state. Returns a
    /// stable [`PatternId`] for all subsequent per-pattern calls.
    pub fn register(&mut self, pattern: &Pattern) -> Result<PatternId, ServiceError> {
        let engine = self.build_engine(pattern)?;
        let slot = PatternSlot { engine, view: RefCell::new(None) };
        let idx = match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none());
                self.slots[idx as usize] = Some(slot);
                idx as usize
            }
            None => {
                self.slots.push(Some(slot));
                self.generations.push(0);
                self.slots.len() - 1
            }
        };
        Ok(PatternId { slot: idx as u32, gen: self.generations[idx] })
    }

    /// Deregisters a pattern. Its id (and any clone of it) is invalid from
    /// this point on, even if the slot is later reused.
    pub fn deregister(&mut self, id: PatternId) -> Result<(), ServiceError> {
        let idx = self.slot_index(id)?;
        self.slots[idx] = None;
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.free.push(idx as u32);
        Ok(())
    }

    /// Applies one edge batch to the shared graph and every registered
    /// pattern: one validation, one net-effect reduction, one graph
    /// mutation and one shared-auxiliary maintenance pass, then the
    /// per-pattern pipelines. See the module docs for the failure model.
    pub fn apply(&mut self, batch: &BatchUpdate) -> Result<ServiceApply, ServiceError> {
        let rejections = validate_batch(&self.graph, batch);
        if !rejections.is_empty() {
            return Err(ServiceError::Apply(ApplyError::InvalidBatch(rejections)));
        }
        let monotone = batch.iter().all(Update::is_insert);
        let plan = ShardPlan::new(self.graph.node_count(), self.shards);
        let (effective, _) = reduce_batch_sharded(&self.graph, batch, plan);

        let mutation = if effective.is_empty() {
            SharedMutation::default()
        } else {
            let shared = &mut self.shared;
            let graph = &mut self.graph;
            let shards = self.shards;
            match catch_unwind(AssertUnwindSafe(|| {
                E::shared_mutate(shared, graph, &effective, shards)
            })) {
                Ok(mutation) => mutation,
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    // The shared stage may have partially mutated the graph
                    // and torn the shared auxiliary state — but no engine
                    // has run yet. Roll the graph back and rebuild the
                    // shared state from it: the service keeps serving every
                    // pattern at the pre-batch epoch.
                    self.graph.rollback_updates(&effective);
                    self.shared = E::shared_build(&self.graph, self.shards);
                    return Err(ServiceError::Apply(ApplyError::StagePanicked(StagePanic {
                        stage: E::shared_stage(),
                        message,
                        rolled_back: true,
                        poisoned: false,
                    })));
                }
            }
        };

        let shared_batch = SharedBatch { batch_len: batch.len(), monotone, effective: &effective };
        let mut outcomes = BTreeMap::new();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            let id = PatternId { slot: idx as u32, gen: self.generations[idx] };
            let outcome = slot.engine.try_apply_shared(
                &self.graph,
                &mut self.shared,
                &shared_batch,
                &mutation,
                self.shards,
            );
            outcomes.insert(id, outcome);
        }
        self.epoch += 1;
        Ok(ServiceApply { epoch: self.epoch, outcomes })
    }

    /// The current match of one pattern as an epoch-stamped snapshot view:
    /// materialised at most once per epoch, shared behind an `Arc` until the
    /// next applied batch. Errors with [`ApplyError::Poisoned`] (wrapped)
    /// for a pattern whose pipeline panicked, until [`MatchService::recover`].
    pub fn matches(&self, id: PatternId) -> Result<Arc<MatchRelation>, ServiceError> {
        let idx = self.slot_index(id)?;
        let slot = self.slots[idx].as_ref().expect("slot_index checked occupancy");
        let mut view = slot.view.borrow_mut();
        if let Some((epoch, relation)) = view.as_ref() {
            if *epoch == self.epoch {
                return Ok(Arc::clone(relation));
            }
        }
        let relation = Arc::new(slot.engine.try_matches().map_err(ServiceError::Apply)?);
        *view = Some((self.epoch, Arc::clone(&relation)));
        Ok(relation)
    }

    /// The pattern a [`PatternId`] was registered with.
    pub fn pattern(&self, id: PatternId) -> Result<&Pattern, ServiceError> {
        let idx = self.slot_index(id)?;
        Ok(self.slots[idx].as_ref().expect("slot_index checked occupancy").engine.pattern())
    }

    /// True iff the pattern's engine is poisoned (its pipeline panicked in
    /// an earlier batch) and must be [`MatchService::recover`]ed.
    pub fn poisoned(&self, id: PatternId) -> Result<bool, ServiceError> {
        let idx = self.slot_index(id)?;
        Ok(self.slots[idx].as_ref().expect("slot_index checked occupancy").engine.poisoned())
    }

    /// Rebuilds one pattern's index from the current graph (interned
    /// candidate sets, shared auxiliary state), clearing its poison. The
    /// result is bit-identical to a fresh registration of the same pattern;
    /// every other pattern is untouched.
    pub fn recover(&mut self, id: PatternId) -> Result<(), ServiceError> {
        let idx = self.slot_index(id)?;
        let pattern = self.slots[idx]
            .as_ref()
            .expect("slot_index checked occupancy")
            .engine
            .pattern()
            .clone();
        let engine = self.build_engine(&pattern)?;
        let slot = self.slots[idx].as_mut().expect("slot_index checked occupancy");
        slot.engine = engine;
        *slot.view.borrow_mut() = None;
        Ok(())
    }

    /// Builds an engine for `pattern` over the current graph: extends the
    /// label index over any nodes added since the last build, interns the
    /// candidate set of every pattern node, and runs the engine's in-service
    /// build against the shared auxiliary state.
    fn build_engine(&mut self, pattern: &Pattern) -> Result<E, ServiceError> {
        self.labels.ensure_node_capacity(&self.graph);
        let lists: Vec<Arc<Vec<NodeId>>> = pattern
            .nodes()
            .map(|u| {
                self.interner.intern(pattern.predicate(u), &self.graph, &self.labels, self.shards)
            })
            .collect();
        E::build_in_service(pattern, &self.graph, &mut self.shared, &lists, self.shards)
            .map_err(ServiceError::Build)
    }

    fn slot_index(&self, id: PatternId) -> Result<usize, ServiceError> {
        let idx = id.slot as usize;
        match self.slots.get(idx) {
            Some(Some(_)) if self.generations[idx] == id.gen => Ok(idx),
            _ => Err(ServiceError::UnknownPattern(id)),
        }
    }
}

/// A [`MatchService`] ingests directly: the coalesced batch runs through
/// [`MatchService::apply`] (one shared classification, per-pattern fan-out)
/// and [`IngestApply::seq`](crate::ingest::IngestApply::seq) carries the
/// epoch the batch committed as.
impl<E: IncrementalEngine> crate::ingest::IngestSink for MatchService<E> {
    type Outcome = ServiceApply;
    type Error = ServiceError;

    fn apply_batch(&mut self, batch: &BatchUpdate) -> Result<ServiceApply, ServiceError> {
        self.apply(batch)
    }

    fn sink_graph(&self) -> &DataGraph {
        self.graph()
    }

    fn committed_seq(&self) -> u64 {
        self.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::bsim::BoundedIndex;
    use crate::incremental::sim::SimulationIndex;
    use igpm_graph::{EdgeBound, Predicate};

    fn chain_graph() -> (DataGraph, Vec<NodeId>) {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        let c = g.add_labeled_node("C");
        let b2 = g.add_labeled_node("B");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, b2);
        g.add_edge(b2, c);
        (g, vec![a, b, c, b2])
    }

    fn edge_pattern(from: &str, to: &str) -> Pattern {
        let mut p = Pattern::new();
        let u = p.add_node(Predicate::label(from));
        let v = p.add_node(Predicate::label(to));
        p.add_normal_edge(u, v);
        p
    }

    #[test]
    fn register_interns_shared_candidate_sets() {
        let (g, _) = chain_graph();
        let mut svc: MatchService<SimulationIndex> = MatchService::with_shards(g, 1);
        svc.register(&edge_pattern("A", "B")).unwrap();
        svc.register(&edge_pattern("B", "C")).unwrap();
        svc.register(&edge_pattern("A", "C")).unwrap();
        // Six pattern nodes, three distinct predicates.
        assert_eq!(svc.interned_candidate_sets(), 3);
        assert_eq!(svc.pattern_count(), 3);
    }

    #[test]
    fn outcomes_match_independent_engine() {
        let (g, n) = chain_graph();
        let mut independent_graph = g.clone();
        let mut svc: MatchService<SimulationIndex> = MatchService::with_shards(g, 1);
        let p = edge_pattern("A", "B");
        let id = svc.register(&p).unwrap();
        let mut solo = SimulationIndex::build_with_shards(&p, &independent_graph, 1);

        let batch: BatchUpdate = vec![Update::delete(n[0], n[1])].into_iter().collect();
        let service_outcome = svc.apply(&batch).unwrap().outcomes.remove(&id).unwrap().unwrap();
        let solo_outcome =
            solo.try_apply_batch_with_shards(&mut independent_graph, &batch, 1).unwrap();
        assert_eq!(service_outcome.stats, solo_outcome.stats);
        assert_eq!(service_outcome.delta, solo_outcome.delta);
        assert_eq!(*svc.matches(id).unwrap(), solo.matches());
    }

    #[test]
    fn deregistered_ids_go_stale_even_after_slot_reuse() {
        let (g, _) = chain_graph();
        let mut svc: MatchService<SimulationIndex> = MatchService::with_shards(g, 1);
        let id = svc.register(&edge_pattern("A", "B")).unwrap();
        svc.deregister(id).unwrap();
        assert_eq!(svc.matches(id).unwrap_err(), ServiceError::UnknownPattern(id));
        let id2 = svc.register(&edge_pattern("B", "C")).unwrap();
        assert_ne!(id, id2, "reused slot must mint a fresh generation");
        assert!(svc.matches(id).is_err());
        assert!(svc.matches(id2).is_ok());
    }

    #[test]
    fn snapshot_views_are_shared_within_an_epoch() {
        let (g, n) = chain_graph();
        let mut svc: MatchService<SimulationIndex> = MatchService::with_shards(g, 1);
        let id = svc.register(&edge_pattern("A", "B")).unwrap();
        let first = svc.matches(id).unwrap();
        let second = svc.matches(id).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same epoch must reuse the view");
        let batch: BatchUpdate = vec![Update::delete(n[1], n[2])].into_iter().collect();
        svc.apply(&batch).unwrap();
        let third = svc.matches(id).unwrap();
        assert!(!Arc::ptr_eq(&first, &third), "new epoch must rematerialise");
    }

    #[test]
    fn memory_counts_each_interned_list_once() {
        let (g, _) = chain_graph();
        let mut svc: MatchService<SimulationIndex> = MatchService::with_shards(g, 1);
        let empty = svc.memory_bytes();
        let p = edge_pattern("A", "B");
        svc.register(&p).unwrap();
        let one = svc.memory_bytes();
        let second = svc.register(&p).unwrap();
        let two = svc.memory_bytes();
        // The second registration shares both interned lists: it adds its
        // own engine state and nothing else.
        let engine = &svc.slots[second.slot as usize].as_ref().unwrap().engine;
        assert_eq!(two - one, IncrementalEngine::memory_bytes(engine));
        assert!(two - one < one - empty, "interned lists are counted once");
    }

    #[test]
    fn bounded_registrations_keep_the_interned_lists() {
        let (g, _) = chain_graph();
        let mut svc: MatchService<BoundedIndex> = MatchService::with_shards(g, 1);
        let mut p = Pattern::new();
        let u = p.add_node(Predicate::label("A"));
        let v = p.add_node(Predicate::label("C"));
        p.add_edge(u, v, EdgeBound::Hops(2));
        let holders = |svc: &MatchService<BoundedIndex>| -> Vec<usize> {
            svc.interner.entries.iter().map(|entry| Arc::strong_count(&entry.nodes)).collect()
        };
        // Each registration holds one more reference to both lists instead
        // of a copy of them.
        svc.register(&p).unwrap();
        assert_eq!(holders(&svc), vec![2, 2]);
        svc.register(&p).unwrap();
        assert_eq!(holders(&svc), vec![3, 3]);
    }

    #[test]
    fn bounded_service_shares_one_landmark_index() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("A");
        let m = g.add_labeled_node("M");
        let c = g.add_labeled_node("C");
        g.add_edge(a, m);
        g.add_edge(m, c);

        let mut independent_graph = g.clone();
        let mut svc: MatchService<BoundedIndex> = MatchService::with_shards(g, 1);
        let mut p = Pattern::new();
        let u = p.add_node(Predicate::label("A"));
        let v = p.add_node(Predicate::label("C"));
        p.add_edge(u, v, EdgeBound::Hops(2));
        let id = svc.register(&p).unwrap();
        let mut solo = BoundedIndex::build_with_shards(&p, &independent_graph, 1);

        assert_eq!(*svc.matches(id).unwrap(), solo.matches());
        let batch: BatchUpdate = vec![Update::delete(m, c)].into_iter().collect();
        let service_outcome = svc.apply(&batch).unwrap().outcomes.remove(&id).unwrap().unwrap();
        let solo_outcome =
            solo.try_apply_batch_with_shards(&mut independent_graph, &batch, 1).unwrap();
        assert_eq!(service_outcome.stats, solo_outcome.stats);
        assert_eq!(service_outcome.delta, solo_outcome.delta);
        assert_eq!(*svc.matches(id).unwrap(), solo.matches());
    }
}

//! Incremental bounded simulation (Section 6): `IncBMatch+`, `IncBMatch-` and
//! the batch `IncBMatch`.
//!
//! The auxiliary structures follow Section 6.2/6.3:
//!
//! * a [`LandmarkIndex`] (landmark vector + distance vectors) maintained
//!   incrementally by `InsLM` / `DelLM` / `IncLM`
//!   ([`igpm_distance::landmark_inc`]);
//! * for every pattern edge, the set of **cc/cs/ss pairs** (Table III): pairs
//!   of candidate nodes whose distance satisfies the edge bound. Unlike plain
//!   simulation, these are node *pairs* connected by bounded paths rather than
//!   single graph edges.
//!
//! Like the plain-simulation index ([`crate::incremental::sim`]), the match
//! state is held in per-data-node **pattern bitmasks** (`match_bits` /
//! `cand_bits`, pattern arity ≤ 64) and supported by **counters**: for every
//! pattern edge `e = (u, u')` and source node `v`,
//! `support[e][v] = |pairs[e][v] ∩ match(u')|`. Pair churn and match churn
//! both maintain these counters, so demotion/promotion checks are `O(1)`
//! counter reads per pattern edge instead of scans over the pair targets.
//!
//! The cold-start build reads no distance index. It takes the `desc` sets of
//! `Match` (Fig. 3) literally: for every pattern edge `(u, u')` with bound
//! `k` it runs one nonempty-path BFS per candidate `v` of `u`, stopped at
//! depth `k` (unlimited for `*`), and pairs `v` with the candidates of `u'`
//! the search reaches (see [`BoundedIndex::build_with_shards`]). The balls
//! run sequentially; what the build still shards is the candidate scan and,
//! for a standalone index, the landmark blocks, which only the batch path
//! reads.
//!
//! After an update only the pairs with an endpoint in the affected area (the
//! nodes whose distance vectors changed, plus the update endpoints) can change
//! (see the covering argument in `DESIGN.md`), so `IncBMatch` re-evaluates
//! exactly those pairs and then propagates match promotions/demotions through
//! them — the reduction of bounded simulation to simulation over the result
//! pairs stated by Proposition 6.1.
//!
//! The pair re-evaluation is the landmark-query-heavy part of the batch
//! path: every bound check is one [`LandmarkIndex::query`], a min-plus scan
//! over the two nodes' 64-landmark chunks of each block of the distance
//! vectors, `8 · |lm|` contiguous bytes. It is split into a read-only
//! *evaluate* step and a sequential *commit* step.
//! The evaluate step runs the affected `(edge, source, target)` bound checks
//! on scoped threads when the batch is large enough
//! ([`igpm_graph::shard`]); the commit step replays the verdicts in
//! the fixed enumeration order, so results (including [`AffStats`]) are
//! bit-identical for every shard count.

use crate::incremental::sim::MAX_PATTERN_NODES;
use crate::incremental::{
    finalize_delta, panic_message, strip_out_of_range, unwrap_apply, ApplyOutcome, BuildError,
    CacheOp, DeltaTracker, IncrementalEngine, LenientApply, PipelineStage, SharedBatch,
    SharedMutation,
};
use crate::simulation::candidates_with_shards;
use crate::stats::AffStats;
use igpm_distance::landmark_inc::inc_lm_tracked_reduced;
use igpm_distance::{satisfies_bound, LandmarkIndex, LandmarkSelection};
use igpm_graph::fail;
use igpm_graph::hash::{FastHashMap, FastHashSet};
use igpm_graph::shard::{
    configured_shards, ShardPlan, PARALLEL_EVAL_THRESHOLD, PARALLEL_WORK_THRESHOLD,
};
use igpm_graph::traversal::{nodes_within, BallScratch, Direction};
use igpm_graph::update::{reduce_batch_sharded, validate_batch, StagePanic};
use igpm_graph::{
    ApplyError, BatchUpdate, DataGraph, MatchDelta, MatchRelation, NodeId, Pattern, PatternEdge,
    PatternNodeId, ResultGraph, StronglyConnectedComponents, Update,
};
use std::cell::{Ref, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Auxiliary state for incremental bounded simulation over one b-pattern.
#[derive(Debug, Clone)]
pub struct BoundedIndex {
    pattern: Pattern,
    landmarks: LandmarkIndex,
    /// Number of pattern nodes (`≤ 64`).
    np: usize,
    /// Number of data nodes covered by the per-node arrays.
    nv: usize,
    /// `cand_bits[v]` bit `u`: `v` satisfies the predicate of `u` (static
    /// under edge updates).
    cand_bits: Vec<u64>,
    /// The same candidates as sorted per-pattern-node lists, kept so that
    /// pair re-evaluation iterates `O(|candidates|)` instead of scanning
    /// every data node: the interned `Arc`s of a service (shared, not
    /// copied; node growth copies a list still shared before extending it),
    /// or the index's own lists when built standalone.
    cand_lists: Vec<Arc<Vec<NodeId>>>,
    /// `match_bits[v]` bit `u`: `v` is a current bounded-simulation match of `u`.
    match_bits: Vec<u64>,
    /// `|match(u)|` per pattern node.
    match_count: Vec<usize>,
    /// `pairs[e][v]` = targets `v'` such that `(v, v')` satisfies pattern edge `e`.
    pairs: Vec<FastHashMap<NodeId, FastHashSet<NodeId>>>,
    /// `rev_pairs[e][v']` = sources `v` such that `(v, v')` satisfies pattern edge `e`.
    rev_pairs: Vec<FastHashMap<NodeId, FastHashSet<NodeId>>>,
    /// `support[e][v] = |pairs[e][v] ∩ match(e.to)|` — sparse counters.
    support: Vec<FastHashMap<NodeId, u32>>,
    /// Pattern-edge indices grouped by source pattern node.
    edges_from: Vec<Vec<usize>>,
    /// Pattern-edge indices grouped by target pattern node.
    edges_to: Vec<Vec<usize>>,
    scc: StronglyConnectedComponents,
    has_cycle: bool,
    /// Statistics of the cold-start refinement drain (identical for every
    /// shard count, see [`BoundedIndex::build_with_shards`]).
    build_stats: AffStats,
    /// Lazily rebuilt sorted view of the current match, maintained
    /// incrementally from the emitted [`MatchDelta`]s.
    cache: RefCell<Option<MatchRelation>>,
    /// Per-batch recorder of raw match-bit transitions, armed at the top of
    /// every apply path (off during build refinement).
    tracker: DeltaTracker,
    /// Set by the panic containment when a mid-batch panic may have torn the
    /// auxiliary state (landmark vectors, pair sets, support counters). A
    /// poisoned index refuses reads and writes until
    /// [`BoundedIndex::recover`] rebuilds it from the graph.
    poisoned: bool,
}

/// Content view of a [`BoundedIndex`]'s auxiliary state (membership masks,
/// pair sets, support counters), used by the build-equivalence suite to
/// assert that every shard count lands on identical internals. Hash-map
/// backed structures are rendered as sorted tuples so the comparison is
/// independent of bucket order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsimAuxSnapshot {
    /// `cand_bits` per data node.
    pub cand_bits: Vec<u64>,
    /// `match_bits` per data node.
    pub match_bits: Vec<u64>,
    /// `|match(u)|` per pattern node.
    pub match_count: Vec<usize>,
    /// Sorted `(pattern edge, source, target)` satisfied pairs.
    pub pairs: Vec<(u32, u32, u32)>,
    /// Sorted `(pattern edge, target, source)` reverse-pair entries — kept
    /// separately from `pairs` because the two maps are maintained by
    /// different code paths and must stay mirror images.
    pub rev_pairs: Vec<(u32, u32, u32)>,
    /// Sorted `(pattern edge, source, support count)` entries (zero entries
    /// dropped, so map-presence differences cannot hide).
    pub support: Vec<(u32, u32, u32)>,
}

impl BoundedIndex {
    /// Builds the index: landmark vectors, cc/cs/ss pair sets and the initial
    /// maximum match (the batch `Matchbs` step), with the candidate scan and
    /// the landmark blocks sharded across [`configured_shards`] threads
    /// (see [`BoundedIndex::build_with_shards`]).
    pub fn build(pattern: &Pattern, graph: &DataGraph) -> Self {
        Self::build_with_shards(pattern, graph, configured_shards())
    }

    /// Fallible [`BoundedIndex::build`]: rejects patterns wider than
    /// [`MAX_PATTERN_NODES`] with a typed [`BuildError`] instead of
    /// panicking. (Bounded patterns need not be normal, so
    /// [`BuildError::NotNormal`] never occurs here.)
    pub fn try_build(pattern: &Pattern, graph: &DataGraph) -> Result<Self, BuildError> {
        Self::try_build_with_shards(pattern, graph, configured_shards())
    }

    /// [`BoundedIndex::try_build`] with an explicit shard count.
    pub fn try_build_with_shards(
        pattern: &Pattern,
        graph: &DataGraph,
        shards: usize,
    ) -> Result<Self, BuildError> {
        if pattern.node_count() > MAX_PATTERN_NODES {
            return Err(BuildError::ArityTooLarge { arity: pattern.node_count() });
        }
        Ok(Self::build_with_shards(pattern, graph, shards))
    }

    /// [`BoundedIndex::build`] with an explicit shard count (`IGPM_SHARDS`
    /// and machine parallelism are ignored). The count shards the candidate
    /// scan and the landmark blocks; the pair sets come from one bounded
    /// BFS per source candidate per pattern edge, run sequentially and
    /// without reading the landmark index (`rebuild_all_pairs`).
    /// `shards = 1` is the sequential engine; every count produces
    /// bit-identical masks, pair sets, support counters, cached matches and
    /// build [`AffStats`] ([`BoundedIndex::build_stats`]): the candidate
    /// lists are merged in a fixed order, the landmark blocks are
    /// independent of one another, the balls are committed source by source
    /// with targets ascending, and the initial refinement is a
    /// deterministic fixpoint.
    pub fn build_with_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        let landmarks =
            LandmarkIndex::build_with_shards(graph, LandmarkSelection::VertexCover, shards);
        Self::build_with_landmarks_with_shards(pattern, graph, landmarks, shards)
    }

    /// Builds the index around an existing landmark index, which the batch
    /// path then maintains and queries (it must be exact for the current
    /// graph; the build itself does not read it).
    ///
    /// # Panics
    /// Panics if the pattern has more than [`MAX_PATTERN_NODES`] nodes.
    pub fn build_with_landmarks(
        pattern: &Pattern,
        graph: &DataGraph,
        landmarks: LandmarkIndex,
    ) -> Self {
        Self::build_with_landmarks_with_shards(pattern, graph, landmarks, configured_shards())
    }

    /// [`BoundedIndex::build_with_landmarks`] with an explicit shard count
    /// for the candidate scan.
    ///
    /// # Panics
    /// Panics if the pattern has more than [`MAX_PATTERN_NODES`] nodes.
    pub fn build_with_landmarks_with_shards(
        pattern: &Pattern,
        graph: &DataGraph,
        landmarks: LandmarkIndex,
        shards: usize,
    ) -> Self {
        assert!(
            pattern.node_count() <= MAX_PATTERN_NODES,
            "pattern arity {} exceeds the {MAX_PATTERN_NODES}-bit membership masks",
            pattern.node_count()
        );
        // Sharded label-index pass + predicate scans (per node-range slice,
        // merged in node order) — identical lists for every shard count.
        // Collected at exact capacity: an in-place `collect` would keep the
        // source's allocation, three 8-byte `Arc`s per 24-byte list.
        let lists = candidates_with_shards(pattern, graph, shards);
        let mut cand_lists = Vec::with_capacity(lists.len());
        cand_lists.extend(lists.into_iter().map(Arc::new));
        Self::build_with_landmarks_from_candidates(pattern, graph, landmarks, cand_lists)
    }

    /// Core of the build: seeds masks and pair sets from already-computed
    /// candidate lists, then runs the initial refinement drain. Shared by the
    /// standalone builds (which compute the lists themselves) and
    /// [`IncrementalEngine::build_in_service`] (which receives interned lists
    /// from the service and keeps the `Arc`s). The lists must be exactly what
    /// [`candidates_with_shards`] would return for this pattern and graph.
    fn build_with_landmarks_from_candidates(
        pattern: &Pattern,
        graph: &DataGraph,
        landmarks: LandmarkIndex,
        cand_lists: Vec<Arc<Vec<NodeId>>>,
    ) -> Self {
        debug_assert!(pattern.node_count() <= MAX_PATTERN_NODES);
        debug_assert_eq!(cand_lists.len(), pattern.node_count());
        let np = pattern.node_count();
        let nv = graph.node_count();
        let scc = StronglyConnectedComponents::of_pattern(pattern);
        let has_cycle = scc.components().any(|c| scc.is_nontrivial(c));
        let edge_count = pattern.edge_count();

        let mut edges_from = vec![Vec::new(); np];
        let mut edges_to = vec![Vec::new(); np];
        for (e_idx, edge) in pattern.edges().iter().enumerate() {
            edges_from[edge.from.index()].push(e_idx);
            edges_to[edge.to.index()].push(e_idx);
        }

        let mut index = BoundedIndex {
            pattern: pattern.clone(),
            landmarks,
            np,
            nv,
            cand_bits: vec![0u64; nv],
            cand_lists: Vec::new(),
            match_bits: vec![0u64; nv],
            match_count: vec![0usize; np],
            pairs: vec![FastHashMap::default(); edge_count],
            rev_pairs: vec![FastHashMap::default(); edge_count],
            support: vec![FastHashMap::default(); edge_count],
            edges_from,
            edges_to,
            scc,
            has_cycle,
            build_stats: AffStats::default(),
            cache: RefCell::new(None),
            tracker: DeltaTracker::default(),
            poisoned: false,
        };
        for (u, list) in cand_lists.iter().enumerate() {
            // Every candidate starts as a match; refinement demotes below.
            index.match_count[u] = list.len();
            for v in list.iter() {
                index.cand_bits[v.index()] |= 1 << u;
                index.match_bits[v.index()] |= 1 << u;
            }
        }
        index.rebuild_all_pairs(graph, &cand_lists);
        index.cand_lists = cand_lists;
        index.build_stats = index.refine_initial_matches();
        index
    }

    /// Statistics of the build's initial refinement drain — the demotions
    /// that carve the maximum bounded simulation out of the candidate sets.
    /// Identical for every shard count.
    pub fn build_stats(&self) -> AffStats {
        self.build_stats
    }

    /// Approximate heap bytes of the index's auxiliary state: the per-node
    /// masks, the candidate lists only this index holds, the pair sets and
    /// support counters (hash tables counted by capacity, one control byte
    /// per bucket) and the landmark index the engine holds. In a service the
    /// landmark index is the shared one, and lists shared with the
    /// service's interner are the service's; both are counted there instead.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        fn table<K, V>(map: &FastHashMap<K, V>) -> usize {
            map.capacity() * (size_of::<(K, V)>() + 1)
        }
        let pair_sets: usize = self
            .pairs
            .iter()
            .chain(&self.rev_pairs)
            .map(|map| {
                table(map)
                    + map
                        .values()
                        .map(|set| set.capacity() * (size_of::<NodeId>() + 1))
                        .sum::<usize>()
            })
            .sum();
        let support: usize = self.support.iter().map(table).sum();
        let lists: usize = self
            .cand_lists
            .iter()
            .filter(|list| Arc::strong_count(list) == 1)
            .map(|list| list.capacity() * size_of::<NodeId>())
            .sum();
        (self.cand_bits.capacity() + self.match_bits.capacity()) * size_of::<u64>()
            + lists
            + pair_sets
            + support
            + self.landmarks.memory_bytes()
    }

    /// Snapshot of the auxiliary state (membership masks, pair sets, support
    /// counters), for bit-identity assertions in the equivalence suites.
    pub fn aux_snapshot(&self) -> BsimAuxSnapshot {
        let mut pairs = Vec::new();
        let mut rev_pairs = Vec::new();
        let mut support = Vec::new();
        for e_idx in 0..self.pattern.edge_count() {
            for (&v, targets) in self.pairs[e_idx].iter() {
                for &w in targets.iter() {
                    pairs.push((e_idx as u32, v.0, w.0));
                }
            }
            for (&w, sources) in self.rev_pairs[e_idx].iter() {
                for &v in sources.iter() {
                    rev_pairs.push((e_idx as u32, w.0, v.0));
                }
            }
            for (&v, &count) in self.support[e_idx].iter() {
                if count > 0 {
                    support.push((e_idx as u32, v.0, count));
                }
            }
        }
        pairs.sort_unstable();
        rev_pairs.sort_unstable();
        support.sort_unstable();
        BsimAuxSnapshot {
            cand_bits: self.cand_bits.clone(),
            match_bits: self.match_bits.clone(),
            match_count: self.match_count.clone(),
            pairs,
            rev_pairs,
            support,
        }
    }

    /// The pattern the index maintains matches for.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The landmark index currently backing distance queries.
    pub fn landmarks(&self) -> &LandmarkIndex {
        &self.landmarks
    }

    /// The current maximum bounded-simulation match (cached between
    /// mutations; see [`BoundedIndex::matches_view`] for a zero-copy borrow).
    ///
    /// # Panics
    /// Panics if the index is [poisoned](BoundedIndex::poisoned); use
    /// [`BoundedIndex::try_matches`] for a typed error.
    pub fn matches(&self) -> MatchRelation {
        self.matches_view().clone()
    }

    /// Fallible [`BoundedIndex::matches`]: returns [`ApplyError::Poisoned`]
    /// instead of panicking when a contained mid-batch panic left the
    /// auxiliary state unusable. Routed through
    /// [`BoundedIndex::try_matches_view`], so the fallible surface has a
    /// single poison check.
    pub fn try_matches(&self) -> Result<MatchRelation, ApplyError> {
        Ok(self.try_matches_view()?.clone())
    }

    /// True if a contained mid-batch panic left the auxiliary state
    /// (landmark vectors, pair sets, support counters) potentially torn. A
    /// poisoned index refuses matches and further updates until
    /// [`BoundedIndex::recover`] rebuilds it; the *graph* was rolled back to
    /// its pre-batch edge set by the containment.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Rebuilds the index (landmark vectors included) from the graph via the
    /// ordinary sharded cold-start build, clearing the
    /// [poisoned](BoundedIndex::poisoned) flag. By the build-equivalence
    /// invariant the result is bit-identical to
    /// `BoundedIndex::build(&pattern, graph)`.
    pub fn recover(&mut self, graph: &DataGraph) {
        self.recover_with_shards(graph, configured_shards());
    }

    /// [`BoundedIndex::recover`] with an explicit shard count. Delegates to
    /// the one shared rebuild-and-clear-poison step,
    /// [`IncrementalEngine::recover_with_shards`].
    pub fn recover_with_shards(&mut self, graph: &DataGraph, shards: usize) {
        IncrementalEngine::recover_with_shards(self, graph, shards);
    }

    /// Borrowed view of the current maximum match, rebuilt at most once per
    /// mutation, with deterministically sorted match lists.
    ///
    /// # Panics
    /// Panics if the index is [poisoned](BoundedIndex::poisoned); use
    /// [`BoundedIndex::try_matches_view`] for a typed error.
    pub fn matches_view(&self) -> Ref<'_, MatchRelation> {
        assert!(!self.poisoned, "bounded index is poisoned; call recover() before reading");
        self.try_matches_view().expect("poison checked above")
    }

    /// Fallible [`BoundedIndex::matches_view`]: returns
    /// [`ApplyError::Poisoned`] instead of panicking, completing the
    /// fallible read surface (`try_matches` clones, `try_matches_view`
    /// borrows).
    pub fn try_matches_view(&self) -> Result<Ref<'_, MatchRelation>, ApplyError> {
        if self.poisoned {
            return Err(ApplyError::Poisoned);
        }
        {
            let mut cache = self.cache.borrow_mut();
            if cache.is_none() {
                *cache = Some(self.rebuild_relation());
            }
        }
        Ok(Ref::map(self.cache.borrow(), |cache| cache.as_ref().expect("cache filled above")))
    }

    /// True while the lazily materialised view behind
    /// [`BoundedIndex::matches_view`] is cached. Batches whose emitted
    /// [`MatchDelta`] is empty keep a warm cache warm (no re-materialisation);
    /// non-empty deltas patch it in place — the delta suite pins both.
    pub fn view_cache_is_warm(&self) -> bool {
        self.cache.borrow().is_some()
    }

    fn rebuild_relation(&self) -> MatchRelation {
        rebuild_relation_from_bits(&self.match_bits, &self.match_count, self.np, self.nv)
    }

    fn invalidate_cache(&mut self) {
        *self.cache.get_mut() = None;
    }

    /// True if every pattern node currently has at least one match.
    pub fn is_match(&self) -> bool {
        !self.match_count.is_empty() && self.match_count.iter().all(|&c| c > 0)
    }

    /// The current matches of one pattern node, sorted (partial information).
    pub fn match_set(&self, u: PatternNodeId) -> Vec<NodeId> {
        let mask = 1u64 << u.index();
        (0..self.nv).filter(|&v| self.match_bits[v] & mask != 0).map(NodeId::from_index).collect()
    }

    /// True if `v` currently matches `u` (one word op). Nodes the index has
    /// not yet observed (added after build) match nothing.
    #[inline]
    pub fn contains(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.match_bits.get(v.index()).is_some_and(|&bits| bits & (1 << u.index()) != 0)
    }

    /// Builds the result graph `G_r` for the current match.
    pub fn result_graph(&self) -> ResultGraph {
        let mut result = ResultGraph::new();
        let matches = self.matches_view();
        for (_, v) in matches.pairs() {
            result.add_node(v);
        }
        for (e_idx, edge) in self.pattern.edges().iter().enumerate() {
            for &v in matches.matches(edge.from) {
                if let Some(targets) = self.pairs[e_idx].get(&v) {
                    for &w in targets {
                        if matches.contains(edge.to, w) {
                            result.add_edge(v, w, e_idx as u32);
                        }
                    }
                }
            }
        }
        result
    }

    /// `IncBMatch+`: single edge insertion. As an insertion, the emitted
    /// [`MatchDelta`] rides the monotone fast path (no removal tracking).
    pub fn insert_edge(&mut self, graph: &mut DataGraph, from: NodeId, to: NodeId) -> ApplyOutcome {
        let batch = BatchUpdate::from_updates(vec![Update::insert(from, to)]);
        self.apply_batch(graph, &batch)
    }

    /// `IncBMatch-`: single edge deletion. Returns the batch statistics plus
    /// the emitted [`MatchDelta`].
    pub fn delete_edge(&mut self, graph: &mut DataGraph, from: NodeId, to: NodeId) -> ApplyOutcome {
        let batch = BatchUpdate::from_updates(vec![Update::delete(from, to)]);
        self.apply_batch(graph, &batch)
    }

    /// `IncBMatch`: batch updates. The graph is updated, the landmark and
    /// distance vectors are maintained by `IncLM`, the affected cc/cs/ss pairs
    /// are re-evaluated (maintaining the support counters; the distance
    /// checks run on [`configured_shards`] threads when the affected area is
    /// large enough), and the match is repaired by demotion/promotion
    /// propagation over the pairs.
    ///
    /// Delegates to [`BoundedIndex::apply_batch_lenient`]: structurally
    /// invalid updates (out-of-range node ids) are skipped, redundant ones
    /// are neutralised by the net-effect reduction — identical behaviour to
    /// the historical infallible path for well-formed batches.
    ///
    /// # Panics
    /// Panics if the index is [poisoned](BoundedIndex::poisoned), or —
    /// re-raising a contained mid-batch panic — after a rollback/poison (see
    /// the [module docs](crate::incremental)). Use
    /// [`BoundedIndex::try_apply_batch`] for typed errors.
    pub fn apply_batch(&mut self, graph: &mut DataGraph, batch: &BatchUpdate) -> ApplyOutcome {
        self.apply_batch_with_shards(graph, batch, configured_shards())
    }

    /// [`BoundedIndex::apply_batch`] with an explicit shard count for the
    /// batch reduction and the pair re-evaluation step. Results — the match,
    /// the [`AffStats`] and the emitted [`MatchDelta`] — are bit-identical
    /// for every count.
    pub fn apply_batch_with_shards(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> ApplyOutcome {
        let lenient = unwrap_apply(self.apply_batch_lenient_with_shards(graph, batch, shards));
        ApplyOutcome { stats: lenient.stats, delta: lenient.delta }
    }

    /// The canonical fallible batch application: validates `batch` against
    /// the current graph ([`igpm_graph::update::validate_batch`]) and rejects
    /// it **whole** — [`ApplyError::InvalidBatch`], nothing touched — if any
    /// update is out of range, a duplicate insert or a removal of an absent
    /// edge. A mid-batch panic (an armed [`igpm_graph::fail`] failpoint or an
    /// engine bug) is contained: the graph is rolled back to its pre-batch
    /// edge set and the call returns [`ApplyError::StagePanicked`] telling
    /// whether the index [poisoned](BoundedIndex::poisoned) itself or stayed
    /// usable.
    pub fn try_apply_batch(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
    ) -> Result<ApplyOutcome, ApplyError> {
        self.try_apply_batch_with_shards(graph, batch, configured_shards())
    }

    /// [`BoundedIndex::try_apply_batch`] with an explicit shard count.
    pub fn try_apply_batch_with_shards(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError> {
        if self.poisoned {
            return Err(ApplyError::Poisoned);
        }
        let rejections = validate_batch(graph, batch);
        if !rejections.is_empty() {
            return Err(ApplyError::InvalidBatch(rejections));
        }
        self.apply_batch_contained(graph, batch, shards)
    }

    /// The explicit *lossy* batch application: out-of-range updates are
    /// stripped before the engine sees the batch, duplicate inserts and
    /// absent deletes are neutralised by the net-effect reduction, and every
    /// skipped update is reported in [`LenientApply::rejected`]. For a batch
    /// with no invalid updates this is byte-identical to
    /// [`BoundedIndex::apply_batch`].
    pub fn apply_batch_lenient(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
    ) -> Result<LenientApply, ApplyError> {
        self.apply_batch_lenient_with_shards(graph, batch, configured_shards())
    }

    /// [`BoundedIndex::apply_batch_lenient`] with an explicit shard count.
    pub fn apply_batch_lenient_with_shards(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<LenientApply, ApplyError> {
        if self.poisoned {
            return Err(ApplyError::Poisoned);
        }
        // Rejections are positioned against the ORIGINAL batch; the strip
        // below changes the layout the engine sees but not the report.
        let rejections = validate_batch(graph, batch);
        let outcome = match strip_out_of_range(batch, &rejections) {
            Some(stripped) => self.apply_batch_contained(graph, &stripped, shards)?,
            None => self.apply_batch_contained(graph, batch, shards)?,
        };
        Ok(LenientApply { stats: outcome.stats, delta: outcome.delta, rejected: rejections })
    }

    /// The one batch pipeline of a standalone index: the
    /// [`MatchService`](crate::service::MatchService) pipeline on the
    /// index's own state, its own [`LandmarkIndex`] as the shared structure
    /// — the net-effect reduction ([`reduce_batch_sharded`]) and `IncLM`
    /// ([`IncrementalEngine::shared_mutate`], which mutates the graph one
    /// update at a time, interleaved with the distance maintenance), then
    /// the per-pattern [`BoundedIndex::apply_shared_stages`] — so a
    /// standalone batch and a service batch have the same outcome by
    /// construction.
    ///
    /// An unwind becomes rollback-or-poison
    /// ([`BoundedIndex::contain_panic`]); `effective` is recorded before
    /// `IncLM` begins, and the scoped worker threads of the sharded stages
    /// funnel their panics through their join handles into the same
    /// containment.
    fn apply_batch_contained(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError> {
        let mut stage = PipelineStage::Prepare;
        let mut effective: Vec<Update> = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let plan = ShardPlan::new(graph.node_count(), shards);
            stage = PipelineStage::Reduce;
            fail::fire(fail::BSIM_REDUCE);
            effective = reduce_batch_sharded(graph, batch, plan).0;
            let mutation = if effective.is_empty() {
                SharedMutation::default()
            } else {
                stage = PipelineStage::Landmark;
                Self::shared_mutate(&mut self.landmarks, graph, &effective, shards)
            };
            let monotone = batch.iter().all(Update::is_insert);
            let shared = SharedBatch { batch_len: batch.len(), monotone, effective: &effective };
            self.apply_shared_stages(graph, &shared, &mutation, shards, &mut stage)
        }));
        outcome.map_err(|payload| {
            let message = panic_message(payload.as_ref());
            ApplyError::StagePanicked(self.contain_panic(Some((graph, &effective)), stage, message))
        })
    }

    /// Finalises a batch: converts the tracker's raw match-bit flips into the
    /// observable [`MatchDelta`] (collapsing to/from the empty view when
    /// totality flips, see [`finalize_delta`]) and maintains the cached view
    /// incrementally — kept untouched on an empty delta, patched in place
    /// from the delta otherwise — instead of the old unconditional
    /// invalidation.
    fn finish_apply(&mut self, stats: AffStats, was_match: bool) -> ApplyOutcome {
        let now_match = self.is_match();
        let (match_bits, match_count, np, nv) =
            (&self.match_bits, &self.match_count, self.np, self.nv);
        let (delta, cache_op): (MatchDelta, CacheOp) = finalize_delta(
            &mut self.tracker,
            was_match,
            now_match,
            np,
            || raw_bit_pairs(match_bits, nv),
            || rebuild_relation_from_bits(match_bits, match_count, np, nv),
        );
        match cache_op {
            CacheOp::Keep => {}
            CacheOp::Patch => {
                if let Some(cache) = self.cache.get_mut().as_mut() {
                    delta.apply_to(cache);
                }
            }
            CacheOp::Install(view) => *self.cache.get_mut() = Some(view),
        }
        ApplyOutcome { stats, delta }
    }

    /// Converts a mid-batch unwind into the transactional contract.
    /// `owned` is the graph and the effective updates issued to it when the
    /// caller owns the graph (a standalone batch): the graph is rolled back
    /// ([`DataGraph::rollback_updates`] tolerates the partially-applied
    /// states an `IncLM` interruption leaves), and the index stays usable
    /// iff the panic landed in `Reduce`, the only stage that touches
    /// nothing — from `Landmark` on the landmark vectors mutate interleaved
    /// with the graph. Behind a [`MatchService`](crate::service::MatchService)
    /// (`owned` is `None`) the graph mutation and landmark maintenance are
    /// committed service-wide: nothing is rolled back, the engine is behind
    /// the graph whatever stage panicked, so it always poisons and recovery
    /// rebuilds it from the current graph.
    #[cold]
    fn contain_panic(
        &mut self,
        owned: Option<(&mut DataGraph, &[Update])>,
        stage: PipelineStage,
        message: String,
    ) -> StagePanic {
        self.invalidate_cache();
        self.tracker.reset();
        let rolled_back = if let Some((graph, applied)) = owned {
            graph.rollback_updates(applied);
            true
        } else {
            false
        };
        let poisoned = !rolled_back || !matches!(stage, PipelineStage::Reduce);
        self.poisoned = poisoned;
        StagePanic { stage: stage.label(), message, rolled_back, poisoned }
    }

    /// The pattern-dependent pipeline of one batch, run after the
    /// net-effect reduction, the graph mutation and the landmark
    /// maintenance: by every [`MatchService`] pattern (see
    /// [`IncrementalEngine::try_apply_shared`]; `IncLM` runs exactly once per
    /// batch no matter how many patterns are registered, and the caller has
    /// swapped the shared landmark index into `self.landmarks`) and by a
    /// standalone index after its own `IncLM`
    /// ([`BoundedIndex::apply_batch_contained`]). What remains per pattern
    /// is node growth, the affected-pair refresh and the demotion/promotion
    /// drains, fed by the affected set `IncLM` collected.
    ///
    /// [`MatchService`]: crate::service::MatchService
    fn apply_shared_stages(
        &mut self,
        graph: &DataGraph,
        batch: &SharedBatch<'_>,
        mutation: &SharedMutation,
        shards: usize,
        stage: &mut PipelineStage,
    ) -> ApplyOutcome {
        *stage = PipelineStage::Prepare;
        let mut stats = AffStats { delta_g: batch.batch_len, ..AffStats::default() };
        // Delta tracking starts before any match-bit mutation — including the
        // childless-pattern matches `ensure_node_capacity` grants brand-new
        // nodes. Insert-only batches take the monotone fast path: inserted
        // edges can only shorten distances, so bounds only become *more*
        // satisfiable and the removal side of the tracker provably stays
        // empty (CALM).
        let was_match = self.is_match();
        self.tracker.arm(batch.monotone);
        // Nodes added since the last index operation join the candidate
        // pipeline before anything is refreshed against the batch.
        self.ensure_node_capacity(graph);
        let plan = ShardPlan::new(graph.node_count(), shards);

        if batch.effective.is_empty() {
            return self.finish_apply(stats, was_match);
        }
        // The landmark maintenance's accounting: it processed the reduced
        // updates and changed the reported distance entries.
        stats.reduced_delta_g = mutation.updates_processed;
        stats.aux_changes += mutation.affected_entries;
        if mutation.updates_processed == 0 {
            return self.finish_apply(stats, was_match);
        }
        let affected = mutation
            .affected
            .as_ref()
            .expect("bounded batches carry the landmark stage's affected set");

        // Re-evaluate the pairs whose endpoints are affected. The support
        // counters absorb every pair transition; `1 → 0` transitions on a
        // matched source seed demotions, `0 → 1` transitions on an unmatched
        // candidate source seed promotions.
        *stage = PipelineStage::Refresh;
        fail::fire(fail::BSIM_REFRESH);
        let mut demotion_seeds: Vec<(u32, u32)> = Vec::new();
        let mut promotion_seeds: Vec<(u32, u32)> = Vec::new();
        self.refresh_pairs(
            graph,
            affected,
            shards,
            &mut demotion_seeds,
            &mut promotion_seeds,
            &mut stats,
        );

        // Repair the match — demotions first, then promotions, mirroring
        // IncMatch (the SCC-joint pass of the promotion phase runs sharded
        // on the same plan).
        if !demotion_seeds.is_empty() {
            *stage = PipelineStage::Demote;
            fail::fire(fail::BSIM_DEMOTE);
            self.process_demotions(&mut demotion_seeds, &mut stats);
        }
        if !promotion_seeds.is_empty() || self.has_cycle {
            *stage = PipelineStage::Promote;
            fail::fire(fail::BSIM_PROMOTE);
            self.process_promotions(promotion_seeds, &mut stats, plan);
        }
        self.finish_apply(stats, was_match)
    }

    // ------------------------------------------------------------------
    // Pair + support maintenance
    // ------------------------------------------------------------------

    /// Derives the pair sets and support counters of every pattern edge
    /// `e = (u, u')` from one BFS ball per source candidate `v ∈ cand(u)`:
    /// the nodes a nonempty path of at most `k` hops reaches from `v`
    /// ([`nodes_within`]; unlimited depth for `*`), masked by `cand(u')`.
    /// The search is seeded at `v`'s children, so `v` reaches itself only
    /// around a cycle — exactly the reflexive-pair rule of
    /// [`satisfies_bound`]. Sources are taken in candidate order and each
    /// ball's targets ascending, the row-major order of a
    /// `cand(u) × cand(u')` scan, so the hash-backed structures see one fixed
    /// insertion sequence. No distance index is read: the cost is one
    /// bounded BFS per source candidate per pattern edge, sharing one stamp
    /// array ([`BallScratch`]).
    fn rebuild_all_pairs(&mut self, graph: &DataGraph, cand_lists: &[Arc<Vec<NodeId>>]) {
        let mut scratch = BallScratch::default();
        for (e_idx, edge) in self.pattern.edges().iter().enumerate() {
            let max_hops = edge.bound.finite().unwrap_or(u32::MAX);
            let to_bit = 1u64 << edge.to.index();
            let mut forward: FastHashMap<NodeId, FastHashSet<NodeId>> = FastHashMap::default();
            let mut backward: FastHashMap<NodeId, FastHashSet<NodeId>> = FastHashMap::default();
            let mut support: FastHashMap<NodeId, u32> = FastHashMap::default();
            for &v in cand_lists[edge.from.index()].iter() {
                for &w in nodes_within(graph, v, Direction::Forward, max_hops, &mut scratch) {
                    if self.cand_bits[w.index()] & to_bit == 0 {
                        continue;
                    }
                    forward.entry(v).or_default().insert(w);
                    backward.entry(w).or_default().insert(v);
                    // All targets are initial matches, so the initial
                    // support is simply the pair count.
                    *support.entry(v).or_insert(0) += 1;
                }
            }
            self.pairs[e_idx] = forward;
            self.rev_pairs[e_idx] = backward;
            self.support[e_idx] = support;
        }
    }

    /// Initial greatest-fixpoint refinement over the pair sets, counter-backed
    /// (replaces the seed's repeated full-relation scans). Returns the drain
    /// statistics (the build [`AffStats`]).
    fn refine_initial_matches(&mut self) -> AffStats {
        let mut worklist: Vec<(u32, u32)> = Vec::new();
        for v in 0..self.nv {
            let mut bits = self.match_bits[v];
            while bits != 0 {
                let u = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if !self.has_counter_support(u, NodeId::from_index(v)) {
                    worklist.push((u as u32, v as u32));
                }
            }
        }
        let mut stats = AffStats::default();
        self.process_demotions(&mut worklist, &mut stats);
        stats
    }

    /// Does `v` (as a match of `u`) have, for every pattern edge `(u, u2)`, a
    /// pair target currently matching `u2`? One counter read per edge.
    #[inline]
    fn has_counter_support(&self, u: usize, v: NodeId) -> bool {
        self.edges_from[u].iter().all(|&e| self.support[e].get(&v).copied().unwrap_or(0) > 0)
    }

    /// Re-evaluates every pair with an affected endpoint, maintaining
    /// `pairs`/`rev_pairs`/`support` and collecting demotion/promotion seeds.
    ///
    /// The affected pairs are enumerated in a fixed order, their distance
    /// bounds are checked read-only (on threads when [`PARALLEL_EVAL_THRESHOLD`]
    /// items warrant it — the expensive part of the batch path), and the
    /// verdicts are committed sequentially in enumeration order, making the
    /// result independent of the shard count.
    fn refresh_pairs(
        &mut self,
        graph: &DataGraph,
        affected: &FastHashSet<NodeId>,
        shards: usize,
        demotion_seeds: &mut Vec<(u32, u32)>,
        promotion_seeds: &mut Vec<(u32, u32)>,
        stats: &mut AffStats,
    ) {
        let mut items: Vec<(u32, NodeId, NodeId)> = Vec::new();
        for e_idx in 0..self.pattern.edge_count() {
            let edge = self.pattern.edges()[e_idx];
            let from_bit = 1u64 << edge.from.index();
            let to_bit = 1u64 << edge.to.index();
            // Pairs whose *source* is affected: re-evaluate against the
            // target *candidate list*, not all of V.
            for &x in affected.iter() {
                if x.index() >= self.nv || self.cand_bits[x.index()] & from_bit == 0 {
                    continue;
                }
                for &w in self.cand_lists[edge.to.index()].iter() {
                    items.push((e_idx as u32, x, w));
                }
            }
            // Pairs whose *target* is affected (skip sources already handled).
            for &x in affected.iter() {
                if x.index() >= self.nv || self.cand_bits[x.index()] & to_bit == 0 {
                    continue;
                }
                for &v in self.cand_lists[edge.from.index()].iter() {
                    if affected.contains(&v) {
                        continue;
                    }
                    items.push((e_idx as u32, v, x));
                }
            }
        }
        let verdicts = self.evaluate_bounds(graph, &items, shards);
        for (&(e_idx, v, w), &now) in items.iter().zip(verdicts.iter()) {
            self.commit_pair(e_idx as usize, v, w, now, demotion_seeds, promotion_seeds, stats);
        }
    }

    /// Evaluates the distance bound of every enumerated pair against the
    /// current landmark vectors. Pure reads — chunked across scoped threads
    /// when there are enough items to amortise the spawns.
    fn evaluate_bounds(
        &self,
        graph: &DataGraph,
        items: &[(u32, NodeId, NodeId)],
        shards: usize,
    ) -> Vec<bool> {
        let edges = self.pattern.edges();
        let landmarks = &self.landmarks;
        let eval = |&(e_idx, v, w): &(u32, NodeId, NodeId)| {
            satisfies_bound(graph, landmarks, v, w, edges[e_idx as usize].bound)
        };
        let shards = shards.max(1);
        if shards == 1 || items.len() < PARALLEL_EVAL_THRESHOLD {
            return items.iter().map(eval).collect();
        }
        let chunk = items.len().div_ceil(shards);
        let mut verdicts = vec![false; items.len()];
        std::thread::scope(|scope| {
            for (item_chunk, verdict_chunk) in items.chunks(chunk).zip(verdicts.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (item, slot) in item_chunk.iter().zip(verdict_chunk.iter_mut()) {
                        *slot = eval(item);
                    }
                });
            }
        });
        verdicts
    }

    /// Applies the verdict for one pair `(v, w)` of pattern edge `e_idx`,
    /// updating the pair sets and support counters when its status flipped.
    #[allow(clippy::too_many_arguments)]
    fn commit_pair(
        &mut self,
        e_idx: usize,
        v: NodeId,
        w: NodeId,
        now: bool,
        demotion_seeds: &mut Vec<(u32, u32)>,
        promotion_seeds: &mut Vec<(u32, u32)>,
        stats: &mut AffStats,
    ) {
        let edge = self.pattern.edges()[e_idx];
        let before = self.pairs[e_idx].get(&v).map(|s| s.contains(&w)).unwrap_or(false);
        if now == before {
            return;
        }
        stats.aux_changes += 1;
        let target_matches = self.match_bits[w.index()] & (1 << edge.to.index()) != 0;
        let source_bit = 1u64 << edge.from.index();
        if now {
            self.pairs[e_idx].entry(v).or_default().insert(w);
            self.rev_pairs[e_idx].entry(w).or_default().insert(v);
            if target_matches {
                let counter = self.support[e_idx].entry(v).or_insert(0);
                *counter += 1;
                stats.counter_updates += 1;
                if *counter == 1
                    && self.cand_bits[v.index()] & source_bit != 0
                    && self.match_bits[v.index()] & source_bit == 0
                {
                    promotion_seeds.push((edge.from.index() as u32, v.0));
                }
            }
        } else {
            if let Some(set) = self.pairs[e_idx].get_mut(&v) {
                set.remove(&w);
            }
            if let Some(set) = self.rev_pairs[e_idx].get_mut(&w) {
                set.remove(&v);
            }
            if target_matches {
                let counter = self.support[e_idx].get_mut(&v).expect("supported pair counted");
                debug_assert!(*counter > 0, "support underflow on pair ({v}, {w})");
                *counter -= 1;
                stats.counter_updates += 1;
                if *counter == 0 && self.match_bits[v.index()] & source_bit != 0 {
                    demotion_seeds.push((edge.from.index() as u32, v.0));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Match maintenance over the pair sets
    // ------------------------------------------------------------------

    /// Demotion propagation seeded by support counters that reached zero.
    fn process_demotions(&mut self, worklist: &mut Vec<(u32, u32)>, stats: &mut AffStats) {
        while let Some((u, v)) = worklist.pop() {
            let u = u as usize;
            let v_node = NodeId(v);
            stats.nodes_visited += 1;
            if self.match_bits[v as usize] & (1 << u) == 0 {
                continue;
            }
            if self.has_counter_support(u, v_node) {
                continue;
            }
            self.match_bits[v as usize] &= !(1 << u);
            self.match_count[u] -= 1;
            self.tracker.record_removed(u, v);
            stats.matches_removed += 1;
            stats.aux_changes += 1;
            // Every source that used v as a pair target for a pattern edge
            // ending in u loses one unit of support.
            for i in 0..self.edges_to[u].len() {
                let e_idx = self.edges_to[u][i];
                let Some(sources) = self.rev_pairs[e_idx].get(&v_node) else { continue };
                let sources: Vec<NodeId> = sources.iter().copied().collect();
                let source_pattern = self.pattern.edges()[e_idx].from.index();
                for p in sources {
                    let counter =
                        self.support[e_idx].get_mut(&p).expect("paired source has support entry");
                    debug_assert!(*counter > 0, "support underflow demoting (u{u}, n{v})");
                    *counter -= 1;
                    stats.counter_updates += 1;
                    if *counter == 0 && self.match_bits[p.index()] & (1 << source_pattern) != 0 {
                        worklist.push((source_pattern as u32, p.0));
                    }
                }
            }
        }
    }

    /// Promotes the pair `(u, v)` and bumps the support of every paired
    /// source; `0 → 1` transitions re-enqueue unmatched candidate sources.
    fn promote(
        &mut self,
        u: usize,
        v: NodeId,
        worklist: &mut Vec<(u32, u32)>,
        stats: &mut AffStats,
    ) {
        self.match_bits[v.index()] |= 1 << u;
        self.match_count[u] += 1;
        self.tracker.record_inserted(u, v.0);
        stats.matches_added += 1;
        stats.aux_changes += 1;
        for i in 0..self.edges_to[u].len() {
            let e_idx = self.edges_to[u][i];
            let Some(sources) = self.rev_pairs[e_idx].get(&v) else { continue };
            let sources: Vec<NodeId> = sources.iter().copied().collect();
            let source_pattern = self.pattern.edges()[e_idx].from.index();
            let source_bit = 1u64 << source_pattern;
            for p in sources {
                let counter = self.support[e_idx].entry(p).or_insert(0);
                *counter += 1;
                stats.counter_updates += 1;
                if *counter == 1
                    && self.cand_bits[p.index()] & source_bit != 0
                    && self.match_bits[p.index()] & source_bit == 0
                {
                    worklist.push((source_pattern as u32, p.0));
                }
            }
        }
    }

    /// Promotion propagation, with a joint pass for pattern SCCs (the
    /// bounded-simulation analogue of propCS / propCC), the joint pass
    /// sharded on `plan` (see [`BoundedIndex::promote_sccs`]).
    fn process_promotions(
        &mut self,
        mut worklist: Vec<(u32, u32)>,
        stats: &mut AffStats,
        plan: ShardPlan,
    ) {
        let mut run_cc = self.has_cycle;
        loop {
            let promoted_cs = self.promote_from_worklist(&mut worklist, stats);
            if promoted_cs {
                run_cc = self.has_cycle;
            }
            if !run_cc {
                break;
            }
            run_cc = false;
            let promoted_cc = self.promote_sccs(stats, &mut worklist, plan);
            if !promoted_cc && worklist.is_empty() {
                break;
            }
            if promoted_cc {
                run_cc = true;
            }
        }
    }

    fn promote_from_worklist(
        &mut self,
        worklist: &mut Vec<(u32, u32)>,
        stats: &mut AffStats,
    ) -> bool {
        let mut promoted_any = false;
        while let Some((u, v)) = worklist.pop() {
            let u = u as usize;
            let v_node = NodeId(v);
            stats.nodes_visited += 1;
            let bit = 1u64 << u;
            if self.match_bits[v as usize] & bit != 0 || self.cand_bits[v as usize] & bit == 0 {
                continue;
            }
            if !self.has_counter_support(u, v_node) {
                continue;
            }
            self.promote(u, v_node, worklist, stats);
            promoted_any = true;
        }
        promoted_any
    }

    /// Evaluates candidates of every nontrivial pattern SCC jointly:
    /// tentatively assume all of them match, refine down to the greatest
    /// fixpoint, and promote the survivors.
    ///
    /// The refinement is counter-backed, mirroring `sim.rs::prop_cc`: per
    /// (candidate `v`, SCC-internal pattern edge `e`) a *tentative support*
    /// counter `tsup[(v, e)] = |pairs[e][v] ∩ tentative(e.to)|` is derived
    /// once, and a worklist eliminates non-viable assumptions, decrementing
    /// the counters of their paired tentative sources — instead of the
    /// previous repeated full-candidate-set fixpoint sweeps that rescanned
    /// every pair target per iteration.
    ///
    /// Sharded like `sim.rs::prop_cc`: each SCC's joint evaluation is a pure
    /// read ([`evaluate_bsim_scc_joint`]) run speculatively on scoped threads
    /// (one worker per SCC, striped over the enumeration), verdicts are
    /// committed in enumeration order, and a committed promotion switches the
    /// remaining SCCs to live re-evaluation — reproducing the sequential
    /// cross-SCC data flow exactly. Within one SCC the `O(|V|)` tentative
    /// gather, the `tsup` derivation and the viability seed scan are chunked.
    /// Bit-identical (matches, pairs, support counters, [`AffStats`]) for
    /// every shard count.
    fn promote_sccs(
        &mut self,
        stats: &mut AffStats,
        worklist: &mut Vec<(u32, u32)>,
        plan: ShardPlan,
    ) -> bool {
        let comp_masks: Vec<u64> = self
            .scc
            .components()
            .filter(|&comp| self.scc.is_nontrivial(comp))
            .map(|comp| self.scc.members(comp).iter().fold(0u64, |mask, &u| mask | (1 << u)))
            .collect();
        if comp_masks.is_empty() {
            return false;
        }
        // The bounded joint evaluation walks pair *sets* per candidate —
        // orders of magnitude more work per item than a counter bump — so the
        // pair-evaluation spawn threshold applies, not the counter one.
        let fan_out = plan.count > 1 && self.nv >= PARALLEL_EVAL_THRESHOLD;

        // Phase A — speculative read-only evaluation (multi-SCC patterns
        // only; a single SCC parallelises inside its evaluation instead),
        // through the shared striping helper
        // ([`crate::incremental::speculate_scc_verdicts`]).
        let mut verdicts: Vec<Option<BsimSccVerdict>> = if fan_out && comp_masks.len() > 1 {
            let ctx = self.scc_eval_ctx();
            crate::incremental::speculate_scc_verdicts(&comp_masks, plan.count, |mask| {
                evaluate_bsim_scc_joint(ctx, mask, plan, false)
            })
        } else {
            (0..comp_masks.len()).map(|_| None).collect()
        };

        // Phase B — ordered commit with dirty fallback.
        let mut dirty = false;
        let mut promoted_any = false;
        for (i, &comp_mask) in comp_masks.iter().enumerate() {
            let verdict = match (dirty, verdicts[i].take()) {
                (false, Some(verdict)) => verdict,
                _ => evaluate_bsim_scc_joint(self.scc_eval_ctx(), comp_mask, plan, fan_out),
            };
            stats.merge(verdict.stats);
            if verdict.survivors.is_empty() {
                continue;
            }
            for (v, mut bits) in verdict.survivors {
                while bits != 0 {
                    let u = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.promote(u, NodeId(v), worklist, stats);
                }
            }
            promoted_any = true;
            dirty = true;
        }
        promoted_any
    }

    /// The read-only view of the index state that [`evaluate_bsim_scc_joint`]
    /// needs — plain `Sync` refs, so worker threads can hold it without
    /// capturing the index (whose lazy match cache is not `Sync`).
    fn scc_eval_ctx(&self) -> BsimSccCtx<'_> {
        BsimSccCtx {
            nv: self.nv,
            cand_bits: &self.cand_bits,
            match_bits: &self.match_bits,
            pairs: &self.pairs,
            rev_pairs: &self.rev_pairs,
            support: &self.support,
            edges_from: &self.edges_from,
            edges_to: &self.edges_to,
            edges: self.pattern.edges(),
        }
    }

    // ------------------------------------------------------------------
    // Node growth
    // ------------------------------------------------------------------

    /// Extends the per-node arrays when the graph gained nodes since the
    /// index was built, mirroring `SimulationIndex::ensure_node_capacity`.
    /// New nodes are isolated at this point (edges to them arrive through
    /// update batches, which also grow the landmark distance vectors), so a new
    /// node matches a pattern node iff it satisfies the predicate of a
    /// *childless* pattern node; otherwise it starts as a candidate. Pair
    /// sets stay untouched: an isolated node reaches nothing, and the first
    /// edge updates touching it put it in the affected set of
    /// [`BoundedIndex::refresh_pairs`].
    fn ensure_node_capacity(&mut self, graph: &DataGraph) {
        let new_nv = graph.node_count();
        if new_nv <= self.nv {
            return;
        }
        self.cand_bits.resize(new_nv, 0);
        self.match_bits.resize(new_nv, 0);
        for v in self.nv..new_nv {
            let node = NodeId::from_index(v);
            for u in self.pattern.nodes() {
                if !self.pattern.predicate(u).satisfied_by(graph.attrs(node)) {
                    continue;
                }
                self.cand_bits[v] |= 1 << u.index();
                // Node ids grow monotonically, so pushing keeps the candidate
                // lists sorted. A list still shared with a service's interner
                // (or another engine) is copied first; the others keep theirs.
                Arc::make_mut(&mut self.cand_lists[u.index()]).push(node);
                if self.edges_from[u.index()].is_empty() {
                    // A childless-pattern match is a view-level insertion the
                    // tracker must see (it is vacuously supported, so no
                    // later stage of this batch can demote it again).
                    self.match_bits[v] |= 1 << u.index();
                    self.match_count[u.index()] += 1;
                    self.tracker.record_inserted(u.index(), v as u32);
                }
            }
        }
        self.nv = new_nv;
    }

    /// Recomputes every support counter from the pair sets and the match
    /// bitmasks (test-only consistency oracle).
    #[cfg(test)]
    fn assert_support_consistent(&self) {
        for (e_idx, edge) in self.pattern.edges().iter().enumerate() {
            let to_bit = 1u64 << edge.to.index();
            for v in 0..self.nv {
                let v_node = NodeId::from_index(v);
                let expected = self.pairs[e_idx]
                    .get(&v_node)
                    .map(|targets| {
                        targets.iter().filter(|w| self.match_bits[w.index()] & to_bit != 0).count()
                    })
                    .unwrap_or(0) as u32;
                let actual = self.support[e_idx].get(&v_node).copied().unwrap_or(0);
                assert_eq!(actual, expected, "support drift at edge {e_idx}, node n{v}");
            }
        }
    }
}

/// Materialises the observable view from the match bitmasks: the empty
/// relation when any pattern node is unmatched (`P ⋬ G`), otherwise one
/// sorted list per pattern node. A free function over the individual fields
/// so [`BoundedIndex::finish_apply`] can call it while the delta tracker is
/// mutably borrowed.
fn rebuild_relation_from_bits(
    match_bits: &[u64],
    match_count: &[usize],
    np: usize,
    nv: usize,
) -> MatchRelation {
    if match_count.contains(&0) {
        return MatchRelation::empty(np);
    }
    let mut lists: Vec<Vec<NodeId>> = match_count.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (v, &word) in match_bits.iter().take(nv).enumerate() {
        let mut bits = word;
        while bits != 0 {
            let u = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            lists[u].push(NodeId::from_index(v));
        }
    }
    MatchRelation::from_lists(lists)
}

/// Enumerates the raw bitmask-level match pairs `(u, v)` regardless of
/// totality — the collapse case of [`finalize_delta`] reconstructs the
/// pre-batch view from these by undoing the batch's recorded churn.
fn raw_bit_pairs(match_bits: &[u64], nv: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for (v, &word) in match_bits.iter().take(nv).enumerate() {
        let mut bits = word;
        while bits != 0 {
            let u = bits.trailing_zeros();
            bits &= bits - 1;
            pairs.push((u, v as u32));
        }
    }
    pairs
}

/// Read-only slices of a [`BoundedIndex`]'s state consumed by
/// [`evaluate_bsim_scc_joint`].
#[derive(Clone, Copy)]
struct BsimSccCtx<'a> {
    nv: usize,
    cand_bits: &'a [u64],
    match_bits: &'a [u64],
    pairs: &'a [FastHashMap<NodeId, FastHashSet<NodeId>>],
    rev_pairs: &'a [FastHashMap<NodeId, FastHashSet<NodeId>>],
    support: &'a [FastHashMap<NodeId, u32>],
    edges_from: &'a [Vec<usize>],
    edges_to: &'a [Vec<usize>],
    edges: &'a [PatternEdge],
}

/// Outcome of one SCC's joint evaluation over the pair sets: survivors in
/// ascending node order plus the evaluation's statistics. A pure function of
/// the state the evaluation read — independent of chunking.
struct BsimSccVerdict {
    survivors: Vec<(u32, u64)>,
    stats: AffStats,
}

/// The read-only SCC-joint evaluation behind [`BoundedIndex::promote_sccs`]:
/// tentatively assume every unmatched candidate of the SCC matches, refine to
/// the greatest fixpoint with tentative-support counters over the pair sets,
/// and report the survivors. Mutates nothing.
///
/// With `fan_out` set, the `O(|V|)` tentative gather, the `tsup` derivation
/// (sources owned by their chunk — disjoint-key union) and the viability seed
/// scan run chunked on scoped threads with ordered merges; the elimination
/// cascade is confluent and stays on the calling thread. The verdict and its
/// statistics are identical for every chunking.
fn evaluate_bsim_scc_joint(
    ctx: BsimSccCtx<'_>,
    comp_mask: u64,
    plan: ShardPlan,
    fan_out: bool,
) -> BsimSccVerdict {
    let mut stats = AffStats::default();

    // tentative[v] = pattern nodes of this SCC that v is tentatively assumed
    // to match (candidates that do not match yet), gathered in ascending
    // node order. Unlike the pair-walking steps below, one gather item is a
    // single mask read, so the spawn gate is the counter-work threshold.
    let gather_range = |range: std::ops::Range<usize>| {
        let mut out = Vec::new();
        for v in range {
            let bits = (ctx.cand_bits[v] & !ctx.match_bits[v]) & comp_mask;
            if bits != 0 {
                out.push((v as u32, bits));
            }
        }
        out
    };
    let gathered: Vec<(u32, u64)> =
        if fan_out && plan.count > 1 && ctx.nv >= PARALLEL_WORK_THRESHOLD {
            let gather_range = &gather_range;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..plan.count)
                    .map(|shard| {
                        let range = plan.range(shard);
                        scope.spawn(move || gather_range(range))
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("bsim gather panicked")).collect()
            })
        } else {
            gather_range(0..ctx.nv)
        };
    if gathered.is_empty() {
        return BsimSccVerdict { survivors: Vec::new(), stats };
    }
    let mut tentative: FastHashMap<u32, u64> = FastHashMap::default();
    for &(v, bits) in &gathered {
        tentative.insert(v, bits);
    }

    // tsup[(v, e)] = |pairs[e][v] ∩ tentative(e.to)| for SCC-internal pattern
    // edges `e` whose source `v` tentatively assumes `e.from`, chunked over
    // the gathered sources (a source's counters are owned by its chunk).
    let chunk_plan = ShardPlan::new(gathered.len(), plan.count);
    let chunked = fan_out && chunk_plan.count > 1 && gathered.len() >= PARALLEL_EVAL_THRESHOLD;
    let mut tsup: FastHashMap<(u32, u32), u32> = FastHashMap::default();
    if chunked {
        let tentative = &tentative;
        let partials: Vec<TsupChunk> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..chunk_plan.count)
                .map(|shard| {
                    let chunk = &gathered[chunk_plan.range(shard)];
                    scope.spawn(move || derive_bsim_tsup_chunk(ctx, tentative, comp_mask, chunk))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("bsim tsup panicked")).collect()
        });
        for (partial, updates) in partials {
            tsup.extend(partial);
            stats.counter_updates += updates;
        }
    } else {
        let (partial, updates) = derive_bsim_tsup_chunk(ctx, &tentative, comp_mask, &gathered);
        tsup = partial;
        stats.counter_updates += updates;
    }

    // Seed the elimination worklist with every currently non-viable tentative
    // pair: some pattern edge out of `u` has neither real support (a counted
    // match target) nor tentative support.
    let mut eliminate: Vec<(u32, u32)> = if chunked {
        let tsup = &tsup;
        let chunks: Vec<Vec<(u32, u32)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..chunk_plan.count)
                .map(|shard| {
                    let chunk = &gathered[chunk_plan.range(shard)];
                    scope.spawn(move || seed_bsim_eliminations_chunk(ctx, tsup, chunk))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("bsim seed panicked")).collect()
        });
        chunks.concat()
    } else {
        seed_bsim_eliminations_chunk(ctx, &tsup, &gathered)
    };
    stats.nodes_visited +=
        gathered.iter().map(|&(_, bits)| bits.count_ones() as usize).sum::<usize>();

    // Eliminate with cascade: dropping the assumption (u, v) costs every
    // tentatively paired source one unit of support for the pattern edges
    // ending in u. Confluent; statistics count order-independent sets.
    while let Some((u, v)) = eliminate.pop() {
        let Some(bits) = tentative.get_mut(&v) else { continue };
        let bit = 1u64 << u;
        if *bits & bit == 0 {
            continue;
        }
        stats.nodes_visited += 1;
        *bits &= !bit;
        if *bits == 0 {
            tentative.remove(&v);
        }
        for &e_idx in &ctx.edges_to[u as usize] {
            let source_u = ctx.edges[e_idx].from.index();
            if comp_mask & (1 << source_u) == 0 {
                continue;
            }
            let Some(sources) = ctx.rev_pairs[e_idx].get(&NodeId(v)) else { continue };
            for &p in sources {
                let Some(counter) = tsup.get_mut(&(p.0, e_idx as u32)) else { continue };
                debug_assert!(*counter > 0, "tentative support underflow");
                *counter -= 1;
                stats.counter_updates += 1;
                if *counter == 0
                    && ctx.support[e_idx].get(&p).copied().unwrap_or(0) == 0
                    && tentative.get(&p.0).is_some_and(|&pb| pb & (1 << source_u) != 0)
                {
                    eliminate.push((source_u as u32, p.0));
                }
            }
        }
    }

    let mut survivors: Vec<(u32, u64)> = tentative.into_iter().collect();
    survivors.sort_unstable_by_key(|&(v, _)| v);
    BsimSccVerdict { survivors, stats }
}

/// One chunk's tentative-support counters plus the number of units counted
/// deriving them.
type TsupChunk = (FastHashMap<(u32, u32), u32>, usize);

/// Derives the tentative-support counters of one chunk of candidate sources
/// (`tsup[(v, e)] = |pairs[e][v] ∩ tentative(e.to)|`).
fn derive_bsim_tsup_chunk(
    ctx: BsimSccCtx<'_>,
    tentative: &FastHashMap<u32, u64>,
    comp_mask: u64,
    chunk: &[(u32, u64)],
) -> TsupChunk {
    let mut tsup: FastHashMap<(u32, u32), u32> = FastHashMap::default();
    let mut updates = 0usize;
    for &(v, bits) in chunk {
        let mut b = bits;
        while b != 0 {
            let u = b.trailing_zeros() as usize;
            b &= b - 1;
            for &e_idx in &ctx.edges_from[u] {
                let to_bit = 1u64 << ctx.edges[e_idx].to.index();
                if comp_mask & to_bit == 0 {
                    continue;
                }
                let Some(targets) = ctx.pairs[e_idx].get(&NodeId(v)) else { continue };
                let count = targets
                    .iter()
                    .filter(|w| tentative.get(&w.0).is_some_and(|&wbits| wbits & to_bit != 0))
                    .count() as u32;
                if count > 0 {
                    tsup.insert((v, e_idx as u32), count);
                    updates += count as usize;
                }
            }
        }
    }
    (tsup, updates)
}

/// Scans one chunk of tentative pairs for viability, returning the
/// non-viable ones in chunk order.
fn seed_bsim_eliminations_chunk(
    ctx: BsimSccCtx<'_>,
    tsup: &FastHashMap<(u32, u32), u32>,
    chunk: &[(u32, u64)],
) -> Vec<(u32, u32)> {
    let viable = |u: usize, v: u32| {
        ctx.edges_from[u].iter().all(|&e_idx| {
            ctx.support[e_idx].get(&NodeId(v)).copied().unwrap_or(0) > 0
                || tsup.get(&(v, e_idx as u32)).copied().unwrap_or(0) > 0
        })
    };
    let mut eliminate = Vec::new();
    for &(v, bits) in chunk {
        let mut b = bits;
        while b != 0 {
            let u = b.trailing_zeros() as usize;
            b &= b - 1;
            if !viable(u, v) {
                eliminate.push((u as u32, v));
            }
        }
    }
    eliminate
}

/// The recovery-orchestration view of the engine; every method delegates to
/// the inherent API of the same name (`rebuild_with_shards` to
/// [`BoundedIndex::build_with_shards`]).
impl IncrementalEngine for BoundedIndex {
    fn rebuild_with_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        Self::build_with_shards(pattern, graph, shards)
    }

    fn pattern(&self) -> &Pattern {
        self.pattern()
    }

    fn try_apply_batch_with_shards(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError> {
        BoundedIndex::try_apply_batch_with_shards(self, graph, batch, shards)
    }

    fn try_matches(&self) -> Result<MatchRelation, ApplyError> {
        BoundedIndex::try_matches(self)
    }

    fn poisoned(&self) -> bool {
        BoundedIndex::poisoned(self)
    }

    fn memory_bytes(&self) -> usize {
        BoundedIndex::memory_bytes(self)
    }

    /// The landmark/distance index is graph-wide and pattern-independent, so
    /// the service maintains exactly one and every registered bounded pattern
    /// reads it — the sharing that makes multi-pattern `IncLM` cost
    /// independent of the pattern count.
    type Shared = LandmarkIndex;

    fn shared_build(graph: &DataGraph, shards: usize) -> Self::Shared {
        LandmarkIndex::build_with_shards(graph, LandmarkSelection::VertexCover, shards)
    }

    fn shared_memory_bytes(shared: &LandmarkIndex) -> usize {
        shared.memory_bytes()
    }

    fn shared_stage() -> &'static str {
        PipelineStage::Landmark.label()
    }

    fn shared_mutate(
        shared: &mut LandmarkIndex,
        graph: &mut DataGraph,
        effective: &[Update],
        shards: usize,
    ) -> SharedMutation {
        let _ = shards;
        fail::fire(fail::BSIM_LANDMARK);
        // The pre-reduced entry point skips IncLM's own (sequential)
        // reduction: the list is already minimal. The distance maintenance
        // stays per-update, since distance propagation is order-dependent.
        let mut affected: FastHashSet<NodeId> = FastHashSet::default();
        let lm_stats = inc_lm_tracked_reduced(shared, graph, effective, &mut affected);
        SharedMutation {
            affected: Some(affected),
            updates_processed: lm_stats.updates_processed,
            affected_entries: lm_stats.affected_entries,
        }
    }

    /// The build reads no distance index (the pair sets come from bounded
    /// BFS balls), so `shared` is left alone and `shards` is unused: the
    /// service has already scanned the candidates.
    fn build_in_service(
        pattern: &Pattern,
        graph: &DataGraph,
        _shared: &mut LandmarkIndex,
        cand_lists: &[Arc<Vec<NodeId>>],
        _shards: usize,
    ) -> Result<Self, BuildError> {
        if pattern.node_count() > MAX_PATTERN_NODES {
            return Err(BuildError::ArityTooLarge { arity: pattern.node_count() });
        }
        // The engine holds a zero-landmark placeholder (`Explicit(vec![])`
        // builds no distance vectors — it is free) and has the shared index
        // swapped in around every `try_apply_shared`.
        let placeholder =
            LandmarkIndex::build_with_shards(graph, LandmarkSelection::Explicit(Vec::new()), 1);
        Ok(Self::build_with_landmarks_from_candidates(
            pattern,
            graph,
            placeholder,
            cand_lists.to_vec(),
        ))
    }

    fn try_apply_shared(
        &mut self,
        graph: &DataGraph,
        shared: &mut LandmarkIndex,
        batch: &SharedBatch<'_>,
        mutation: &SharedMutation,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError> {
        if self.poisoned {
            return Err(ApplyError::Poisoned);
        }
        // Swap the shared landmark index in for the duration of the pipeline
        // (the affected-pair refresh queries distances through
        // `self.landmarks`), and back out unconditionally — even after a
        // contained panic the index itself is intact: the pipeline only
        // *reads* it, the one mutation site ran in `shared_mutate`.
        std::mem::swap(&mut self.landmarks, shared);
        let mut stage = PipelineStage::Prepare;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.apply_shared_stages(graph, batch, mutation, shards, &mut stage)
        }));
        std::mem::swap(&mut self.landmarks, shared);
        outcome.map_err(|payload| {
            let message = panic_message(payload.as_ref());
            ApplyError::StagePanicked(self.contain_panic(None, stage, message))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded::match_bounded_with_matrix;
    use igpm_generator::{
        degree_biased_deletions, degree_biased_insertions, generate_pattern, mixed_batch,
        synthetic_graph, PatternGenConfig, PatternShape, SyntheticConfig, UpdateGenConfig,
    };
    use igpm_graph::{Attributes, EdgeBound, Predicate};

    /// The FriendFeed graph of Fig. 4 and the b-pattern P3 of Example 4.1:
    /// CTO -[2]-> DB, CTO -[1]-> Bio, DB -[1]-> Bio, DB -[*]-> CTO.
    struct Fixture {
        graph: DataGraph,
        pattern: Pattern,
        ann: NodeId,
        pat: NodeId,
        dan: NodeId,
        bill: NodeId,
        mat: NodeId,
        don: NodeId,
        tom: NodeId,
    }

    fn fixture() -> Fixture {
        let mut g = DataGraph::new();
        let person = |g: &mut DataGraph, name: &str, job: &str| {
            g.add_node(Attributes::new().with("name", name).with("job", job).with("label", job))
        };
        let ann = person(&mut g, "Ann", "CTO");
        let pat = person(&mut g, "Pat", "DB");
        let dan = person(&mut g, "Dan", "DB");
        let bill = person(&mut g, "Bill", "Bio");
        let mat = person(&mut g, "Mat", "Bio");
        let don = person(&mut g, "Don", "CTO");
        let tom = person(&mut g, "Tom", "Bio");
        let ross = person(&mut g, "Ross", "Med");
        g.add_edge(ann, pat);
        g.add_edge(pat, ann);
        g.add_edge(pat, bill);
        g.add_edge(ann, bill);
        g.add_edge(ann, dan);
        g.add_edge(dan, ann);
        g.add_edge(dan, mat);
        g.add_edge(mat, dan);
        g.add_edge(ross, tom);

        let mut p = Pattern::new();
        let cto = p.add_node(Predicate::label("CTO"));
        let db = p.add_node(Predicate::label("DB"));
        let bio = p.add_node(Predicate::label("Bio"));
        p.add_edge(cto, db, EdgeBound::Hops(2));
        p.add_edge(cto, bio, EdgeBound::Hops(1));
        p.add_edge(db, bio, EdgeBound::Hops(1));
        p.add_edge(db, cto, EdgeBound::Unbounded);
        Fixture { graph: g, pattern: p, ann, pat, dan, bill, mat, don, tom }
    }

    fn assert_consistent(
        index: &BoundedIndex,
        pattern: &Pattern,
        graph: &DataGraph,
        context: &str,
    ) {
        let expected = match_bounded_with_matrix(pattern, graph);
        assert_eq!(index.matches(), expected, "{context}: incremental result diverged from batch");
        index.assert_support_consistent();
    }

    #[test]
    fn example_4_1_initial_match() {
        let f = fixture();
        let index = BoundedIndex::build(&f.pattern, &f.graph);
        assert!(index.is_match());
        // M^k_sim(P3, G3) = {(CTO, Ann), (DB, Pat), (DB, Dan), (Bio, Bill), (Bio, Mat)}.
        assert_eq!(index.matches().matches(PatternNodeId(0)), &[f.ann]);
        assert_eq!(index.matches().matches(PatternNodeId(1)), &[f.pat, f.dan]);
        // Every Bio node (including the isolated Tom) matches the childless
        // pattern node Bio.
        assert_eq!(index.matches().matches(PatternNodeId(2)), &[f.bill, f.mat, f.tom]);
        assert_consistent(&index, &f.pattern, &f.graph, "initial build");
        // A build is exactly sized: one `Arc` per pattern node, no slack.
        assert_eq!(index.cand_lists.capacity(), f.pattern.node_count());
    }

    #[test]
    fn example_4_2_inserting_e2_adds_don_and_tom() {
        // Inserting e2 = (Don, Pat) gives Don a DB neighbour within 2 hops;
        // Example 4.2 expects Don (CTO) and Tom (Bio) to join the match once
        // the remaining insertions arrive. With e2, e1 = (Don, Tom) and
        // e4 = (Pat, Don) the new matches are exactly Don and Tom.
        let mut f = fixture();
        let mut index = BoundedIndex::build(&f.pattern, &f.graph);
        index.insert_edge(&mut f.graph, f.don, f.pat);
        assert_consistent(&index, &f.pattern, &f.graph, "after e2");
        let stats_e1 = index.insert_edge(&mut f.graph, f.don, f.tom);
        assert_consistent(&index, &f.pattern, &f.graph, "after e1");
        let stats_e4 = index.insert_edge(&mut f.graph, f.pat, f.don);
        assert_consistent(&index, &f.pattern, &f.graph, "after e4");
        assert!(index.matches().contains(PatternNodeId(0), f.don), "Don becomes a CTO match");
        assert!(index.matches().contains(PatternNodeId(2), f.tom), "Tom becomes a Bio match");
        // Don is promoted once both e2 and e1 are present; e4 changes nothing.
        assert!(stats_e1.stats.matches_added >= 1);
        assert_eq!(stats_e4.stats.matches_added, 0);
    }

    #[test]
    fn deletions_shrink_the_match() {
        let mut f = fixture();
        let mut index = BoundedIndex::build(&f.pattern, &f.graph);
        // Removing (Pat, Bill) leaves Pat without a Bio node within 1 hop.
        let stats = index.delete_edge(&mut f.graph, f.pat, f.bill);
        assert!(stats.stats.matches_removed >= 1);
        assert!(!index.matches().contains(PatternNodeId(1), f.pat));
        assert_consistent(&index, &f.pattern, &f.graph, "after deleting (Pat, Bill)");
        // Removing (Dan, Mat) as well destroys every DB match and hence the whole match.
        index.delete_edge(&mut f.graph, f.dan, f.mat);
        assert!(!index.is_match());
        assert_consistent(&index, &f.pattern, &f.graph, "after deleting (Dan, Mat)");
    }

    #[test]
    fn unboundedness_gadget_for_bounded_simulation() {
        // Theorem 6.1(1) gadget: pattern u -[*]-> t, graph made of three
        // chains; the match appears only when both bridging edges exist.
        let mut p = Pattern::new();
        let u = p.add_labeled_node("u");
        let t = p.add_labeled_node("t");
        p.add_edge(u, t, EdgeBound::Unbounded);

        let mut g = DataGraph::new();
        let us: Vec<NodeId> = (0..4).map(|_| g.add_labeled_node("u")).collect();
        let vs: Vec<NodeId> = (0..4).map(|_| g.add_labeled_node("v")).collect();
        let ts: Vec<NodeId> = (0..4).map(|_| g.add_labeled_node("t")).collect();
        for w in us.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        for w in ts.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g.add_edge(*ts.last().unwrap(), us[0]);

        let mut index = BoundedIndex::build(&p, &g);
        assert!(!index.is_match());
        index.insert_edge(&mut g, *us.last().unwrap(), vs[0]);
        assert!(!index.is_match(), "u-chain still cannot reach a t node");
        assert_consistent(&index, &p, &g, "after first bridge");
        let stats = index.insert_edge(&mut g, *vs.last().unwrap(), ts[0]);
        assert!(index.is_match(), "now every u node reaches every t node");
        assert_consistent(&index, &p, &g, "after second bridge");
        // All four u-labelled nodes become matches of the pattern node u.
        assert!(stats.stats.matches_added >= 4);
    }

    #[test]
    fn batch_updates_agree_with_batch_recomputation() {
        for seed in 0..2u64 {
            let mut graph = synthetic_graph(&SyntheticConfig::new(120, 360, 4, seed + 300));
            let pattern = generate_pattern(
                &graph,
                &PatternGenConfig::new(4, 5, 1, 3, seed + 310).with_shape(PatternShape::General),
            );
            let mut index = BoundedIndex::build(&pattern, &graph);
            assert_consistent(&index, &pattern, &graph, &format!("seed {seed}: initial"));
            for round in 0..3 {
                let batch = mixed_batch(&graph, 15, 15, seed * 31 + round);
                index.apply_batch(&mut graph, &batch);
                assert_consistent(
                    &index,
                    &pattern,
                    &graph,
                    &format!("seed {seed}, round {round}: batch"),
                );
            }
        }
    }

    #[test]
    fn unit_updates_agree_with_batch_recomputation() {
        for seed in 0..2u64 {
            let mut graph = synthetic_graph(&SyntheticConfig::new(100, 300, 4, seed + 400));
            let pattern = generate_pattern(
                &graph,
                &PatternGenConfig::new(4, 5, 1, 2, seed + 410).with_shape(PatternShape::Dag),
            );
            let mut index = BoundedIndex::build(&pattern, &graph);
            let ins = degree_biased_insertions(&graph, UpdateGenConfig::new(12, seed + 420));
            let del = degree_biased_deletions(&graph, UpdateGenConfig::new(12, seed + 430));
            for (i, update) in ins.iter().chain(del.iter()).enumerate() {
                let (a, b) = update.endpoints();
                if update.is_insert() {
                    index.insert_edge(&mut graph, a, b);
                } else {
                    index.delete_edge(&mut graph, a, b);
                }
                if i % 6 == 0 {
                    assert_consistent(&index, &pattern, &graph, &format!("seed {seed}, step {i}"));
                }
            }
            assert_consistent(&index, &pattern, &graph, &format!("seed {seed}: final"));
        }
    }

    #[test]
    fn result_graph_uses_pair_edges() {
        let f = fixture();
        let index = BoundedIndex::build(&f.pattern, &f.graph);
        let gr = index.result_graph();
        // Ann reaches the DB nodes within 2 hops and the Bio nodes within 1 hop.
        assert!(gr.has_edge(f.ann, f.pat));
        assert!(gr.has_edge(f.ann, f.dan));
        assert!(gr.has_edge(f.ann, f.bill));
        // Pat reaches Ann via an unbounded path.
        assert!(gr.has_edge(f.pat, f.ann));
        assert!(!gr.contains_node(f.don));
    }

    #[test]
    fn no_op_updates_do_not_touch_the_match() {
        let mut f = fixture();
        let mut index = BoundedIndex::build(&f.pattern, &f.graph);
        let before = index.matches();
        // Inserting an existing edge / deleting a missing edge are no-ops.
        let stats = index.insert_edge(&mut f.graph, f.ann, f.pat);
        assert_eq!(stats.stats.reduced_delta_g, 0);
        let stats = index.delete_edge(&mut f.graph, f.don, f.tom);
        assert_eq!(stats.stats.reduced_delta_g, 0);
        assert_eq!(index.matches(), before);
    }

    #[test]
    fn nodes_added_after_build_join_the_candidate_pipeline() {
        // Mirror of the SimulationIndex node-churn regression: nodes added
        // *after* the index is built must join the candidate pipeline, the
        // landmark vectors must grow with them, and their first edges must be
        // classified live.
        let mut f = fixture();
        let mut index = BoundedIndex::build(&f.pattern, &f.graph);

        // A new DB person arrives and connects to Ann (CTO) and Bill (Bio):
        // they must become a DB match exactly like a from-scratch run says.
        let eve = f
            .graph
            .add_node(Attributes::new().with("name", "Eve").with("job", "DB").with("label", "DB"));
        index.insert_edge(&mut f.graph, eve, f.ann);
        assert_consistent(&index, &f.pattern, &f.graph, "after (Eve, Ann)");
        index.insert_edge(&mut f.graph, eve, f.bill);
        assert!(index.contains(PatternNodeId(1), eve), "Eve now matches DB");
        assert_consistent(&index, &f.pattern, &f.graph, "after (Eve, Bill)");

        // A new Bio person is isolated: Bio is childless in P3, so they match
        // immediately once an (irrelevant) update lets the index observe them.
        let zed = f.graph.add_node(
            Attributes::new().with("name", "Zed").with("job", "Bio").with("label", "Bio"),
        );
        index.insert_edge(&mut f.graph, f.mat, f.tom);
        assert!(index.contains(PatternNodeId(2), zed), "childless pattern node matches");
        assert_consistent(&index, &f.pattern, &f.graph, "after adding Zed");

        // Batch path over a graph that contains post-build nodes, including
        // edges incident to one.
        let ned = f.graph.add_node(
            Attributes::new().with("name", "Ned").with("job", "CTO").with("label", "CTO"),
        );
        let mut batch = BatchUpdate::new();
        batch.insert(ned, eve);
        batch.insert(ned, f.bill);
        batch.delete(f.ann, f.bill);
        index.apply_batch(&mut f.graph, &batch);
        assert_consistent(&index, &f.pattern, &f.graph, "after batch over post-build nodes");
    }

    #[test]
    fn node_churn_interleaved_with_updates_stays_consistent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB51);
        let mut graph = synthetic_graph(&SyntheticConfig::new(60, 180, 4, 0xB52));
        let pattern = generate_pattern(
            &graph,
            &PatternGenConfig::new(4, 5, 1, 2, 0xB53).with_shape(PatternShape::General),
        );
        let mut index = BoundedIndex::build(&pattern, &graph);
        for step in 0..120usize {
            if step % 10 == 0 {
                // Grow: a brand-new node with an existing label, wired in by
                // updates drawn against the current graph.
                let label = rng.gen_range(0..4u32);
                let fresh = graph.add_node(Attributes::labeled(format!("l{label}")));
                let n = graph.node_count() - 1;
                let out = NodeId(rng.gen_range(0..n) as u32);
                index.insert_edge(&mut graph, fresh, out);
            } else {
                let n = graph.node_count();
                let a = NodeId(rng.gen_range(0..n) as u32);
                let b = NodeId(rng.gen_range(0..n) as u32);
                if a == b {
                    continue;
                }
                if rng.gen_bool(0.6) {
                    index.insert_edge(&mut graph, a, b);
                } else {
                    index.delete_edge(&mut graph, a, b);
                }
            }
            if step % 24 == 23 {
                assert_consistent(&index, &pattern, &graph, &format!("churn step {step}"));
            }
        }
        assert_consistent(&index, &pattern, &graph, "churn final");
    }

    #[test]
    fn matches_view_is_cached_and_match_set_sorted() {
        let mut f = fixture();
        let mut index = BoundedIndex::build(&f.pattern, &f.graph);
        let before = index.matches();
        assert_eq!(*index.matches_view(), before);
        assert_eq!(index.match_set(PatternNodeId(1)), vec![f.pat, f.dan]);
        assert!(index.contains(PatternNodeId(0), f.ann));
        index.delete_edge(&mut f.graph, f.pat, f.bill);
        assert_ne!(index.matches(), before, "cache invalidated by mutation");
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let f = fixture();
        let mut wide = Pattern::new();
        let mut prev = wide.add_labeled_node("CTO");
        for _ in 0..MAX_PATTERN_NODES {
            let next = wide.add_labeled_node("CTO");
            wide.add_edge(prev, next, EdgeBound::Hops(1));
            prev = next;
        }
        assert_eq!(
            BoundedIndex::try_build(&wide, &f.graph).err(),
            Some(crate::incremental::BuildError::ArityTooLarge { arity: MAX_PATTERN_NODES + 1 })
        );
        let built = BoundedIndex::try_build(&f.pattern, &f.graph).expect("fixture pattern");
        assert_eq!(built.aux_snapshot(), BoundedIndex::build(&f.pattern, &f.graph).aux_snapshot());
    }

    #[test]
    fn redundant_unit_updates_are_exact_no_ops() {
        let mut f = fixture();
        let mut index = BoundedIndex::build(&f.pattern, &f.graph);
        let aux = index.aux_snapshot();
        let matches = index.matches();
        let graph_before = f.graph.clone();

        // Duplicate insert: (Ann, Pat) already exists.
        let stats = index.insert_edge(&mut f.graph, f.ann, f.pat);
        assert_eq!(stats.stats.reduced_delta_g, 0, "a present edge never reaches IncLM");
        assert_eq!(stats.stats.delta_m(), 0);
        assert_eq!(stats.stats.aux_changes, 0);

        // Absent delete: (Don, Tom) does not exist.
        let stats = index.delete_edge(&mut f.graph, f.don, f.tom);
        assert_eq!(stats.stats.reduced_delta_g, 0);
        assert_eq!(stats.stats.delta_m(), 0);
        assert_eq!(stats.stats.aux_changes, 0);

        assert_eq!(index.aux_snapshot(), aux, "pairs/support/masks untouched by no-ops");
        assert_eq!(index.matches(), matches);
        assert_eq!(f.graph, graph_before, "graph untouched by no-ops");
        assert_consistent(&index, &f.pattern, &f.graph, "after unit no-ops");
    }

    #[test]
    fn strict_apply_rejects_invalid_batches_whole() {
        let mut f = fixture();
        let mut index = BoundedIndex::build(&f.pattern, &f.graph);
        let aux = index.aux_snapshot();
        let graph_before = f.graph.clone();

        let oob = NodeId::from_index(f.graph.node_count() + 3);
        let mut batch = BatchUpdate::new();
        batch.insert(f.don, f.pat); // valid
        batch.insert(f.ann, f.pat); // duplicate
        batch.delete(f.don, f.tom); // absent
        batch.delete(oob, f.ann); // out of range
        let err = index.try_apply_batch(&mut f.graph, &batch).unwrap_err();
        let ApplyError::InvalidBatch(rejections) = &err else {
            panic!("expected InvalidBatch, got {err}");
        };
        let reasons: Vec<_> = rejections.iter().map(|r| (r.position, r.reason)).collect();
        assert_eq!(
            reasons,
            vec![
                (1, igpm_graph::RejectReason::DuplicateInsert),
                (2, igpm_graph::RejectReason::AbsentDelete),
                (3, igpm_graph::RejectReason::NodeOutOfRange),
            ]
        );
        assert_eq!(index.aux_snapshot(), aux, "rejected batch must touch nothing");
        assert_eq!(f.graph, graph_before, "rejected batch must touch nothing");

        // Still usable: the valid part applies cleanly afterwards.
        let mut valid = BatchUpdate::new();
        valid.insert(f.don, f.pat);
        index.try_apply_batch(&mut f.graph, &valid).expect("valid batch");
        assert_consistent(&index, &f.pattern, &f.graph, "after post-rejection apply");
    }

    #[test]
    fn lenient_apply_skips_invalid_updates_and_reports_them() {
        let f = fixture();
        let oob = NodeId::from_index(f.graph.node_count() + 1);

        let mut lenient_graph = f.graph.clone();
        let mut lenient = BoundedIndex::build(&f.pattern, &lenient_graph);
        let mut batch = BatchUpdate::new();
        batch.insert(f.don, f.pat); // valid
        batch.insert(oob, f.tom); // out of range
        batch.insert(f.don, f.tom); // valid
        batch.insert(f.don, f.tom); // duplicate (of the one just inserted)
        batch.delete(f.mat, f.tom); // absent
        batch.insert(f.pat, f.don); // valid
        let report = lenient.apply_batch_lenient(&mut lenient_graph, &batch).expect("lenient");
        let reasons: Vec<_> = report.rejected.iter().map(|r| (r.position, r.reason)).collect();
        assert_eq!(
            reasons,
            vec![
                (1, igpm_graph::RejectReason::NodeOutOfRange),
                (3, igpm_graph::RejectReason::DuplicateInsert),
                (4, igpm_graph::RejectReason::AbsentDelete),
            ]
        );

        let mut control_graph = f.graph.clone();
        let mut control = BoundedIndex::build(&f.pattern, &control_graph);
        let mut valid = BatchUpdate::new();
        valid.insert(f.don, f.pat);
        valid.insert(f.don, f.tom);
        valid.insert(f.pat, f.don);
        let control_stats = control.apply_batch(&mut control_graph, &valid);

        assert_eq!(lenient_graph, control_graph, "lenient graph = valid-only graph");
        assert_eq!(lenient.aux_snapshot(), control.aux_snapshot(), "identical auxiliary state");
        assert_eq!(lenient.matches(), control.matches());
        assert_eq!(report.stats.reduced_delta_g, control_stats.stats.reduced_delta_g);
        assert_eq!(report.stats.matches_added, control_stats.stats.matches_added);
        assert_eq!(report.stats.matches_removed, control_stats.stats.matches_removed);
        assert_consistent(&lenient, &f.pattern, &lenient_graph, "after lenient apply");
    }

    #[test]
    fn redundant_batches_leave_aux_and_stats_untouched() {
        let mut f = fixture();
        let mut index = BoundedIndex::build(&f.pattern, &f.graph);
        let before = index.matches();
        let aux = index.aux_snapshot();

        let mut batch = BatchUpdate::new();
        batch.insert(f.ann, f.pat); // duplicate insert
        batch.delete(f.don, f.tom); // absent delete
        let report = index.apply_batch_lenient(&mut f.graph, &batch).expect("lenient");
        assert_eq!(report.stats.reduced_delta_g, 0);
        assert_eq!(report.stats.delta_m(), 0);
        assert_eq!(report.stats.aux_changes, 0);
        assert_eq!(report.rejected.len(), 2, "both no-ops reported");
        assert_eq!(index.aux_snapshot(), aux);
        assert_eq!(index.matches(), before);
        assert_consistent(&index, &f.pattern, &f.graph, "after redundant batch");
    }
}

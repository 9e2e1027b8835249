//! Incremental graph simulation (Section 5): `IncMatch-`, `IncMatch+`,
//! `IncMatch+dag` and the batch `IncMatch` with `minDelta`.
//!
//! The auxiliary structures are the ones the paper identifies as *necessary
//! local information* (Section 4) — for every pattern node `u`, the set
//! `match(u)` of current matches and the set `candt(u)` of candidates — but
//! represented for `O(1)` work per touched pair instead of hash-set probes,
//! and stored only for the nodes they are about:
//!
//! * **Candidate slots.** A data node that satisfies the predicate of some
//!   pattern node owns one *slot*; every other node owns nothing. Slots are
//!   numbered in ascending node order, and a rank bitvector over node ids
//!   (one bit per node plus a `u32` rank per 64 nodes) maps a node to its
//!   slot in `O(1)` — a word test and a popcount, no search. This is a RETE
//!   alpha memory: a store holding only the elements that pass a node's
//!   condition (Beyhl & Giese, generalized discrimination networks).
//! * **Pattern bitmasks.** Pattern arity is bounded by 64 (asserted at
//!   [`SimulationIndex::build`]), so the memberships `v ∈ match(u)` and
//!   `v ∈ cand(u)` over *all* pattern nodes are one `u64` word each, and
//!   `candt(u) = cand(u) \ match(u)` is one more word operation. The `ss` /
//!   `cs` / `cc` update classification of Table II — which the seed
//!   implementation answered with `|E_p|` hash probes per update — becomes
//!   a couple of word operations.
//! * **Candidacy classes.** `cand(u)` is fixed by the predicates, and edge
//!   updates never change attributes, so a slot's `cand` word never changes
//!   either; and the nodes of one pattern fall into few distinct `cand`
//!   words (one per label, for label predicates). Each distinct word is a
//!   *class*, stored once per pattern with the counter-row mask it implies,
//!   and a slot keeps only its `match` word and a class id — the sharing of
//!   one alpha memory per condition in Beyhl & Giese's discrimination
//!   networks, applied to the slot state.
//! * **Support counters.** For every slot `v` and every pattern node `u2`
//!   with a pattern parent that `v` is a candidate of,
//!   `cnt[v][u2] = |children(v) ∩ match(u2)|`, maintained incrementally in
//!   the style of Henzinger–Henzinger–Kopke counter refinement (already used
//!   by the batch [`crate::simulation::match_simulation`]). A match `(u, v)`
//!   is supported iff `cnt[v][u2] > 0` for every pattern child `u2` of `u`,
//!   so deletion propagation decrements a counter and demotes exactly when it
//!   hits zero — the `O(deg(v)·|E_p|)` `has_full_support` adjacency rescans
//!   of the seed implementation are gone, and the work per affected pair is
//!   `O(1)` plus the propagation the paper's `|AFF|` bound already charges.
//!   No other pair has a counter: nothing ever reads one.
//!
//! # Memory
//!
//! Per pattern, with `C` the set of nodes that are a candidate of some
//! pattern node (`|C| ≤ Σ|cand(u)|`):
//!
//! * 1.5 bits per data node — the slot bitvector and its ranks, the only
//!   part that grows with `|V|`;
//! * 16 bytes per slot — the `match` word, the class id and the offset of
//!   the slot's counter row;
//! * the class table — per distinct `cand` word, the word and its
//!   counter-row mask (16 bytes) plus an interning map entry; at most
//!   `min(2^|Vp|, slots)` classes, and a handful per pattern in practice. A
//!   counter lookup reads the slot's class id, then the class's row mask
//!   from a table that stays in L1, and takes a popcount: one load more
//!   than a per-slot row mask, and no walk over the slot's candidacies;
//! * 4 bytes per support counter — one per slot and pattern child of a
//!   pattern node the slot's node is a candidate of.
//!
//! The candidate lists the index was built from are kept as the `Arc`s a
//! [`MatchService`](crate::service::MatchService) interns, shared with every
//! registration that carries the same predicate, not copied.
//! [`SimulationIndex::memory_bytes`] reports the sum.
//!
//! `propCC` adds transient scratch on top, allocated per SCC evaluation and
//! freed when the evaluation returns, so no pattern keeps any of it between
//! batches: 4 bytes per slot, at most `32 + 4·|comp|` bytes per gathered
//! tentative candidate (`|comp|` the SCC's pattern nodes) and 8 bytes per
//! tentative edge (see `evaluate_scc_joint`).
//!
//! Updates are classified per pattern edge into `ss`, `cs` and `cc` edges
//! (Table II):
//!
//! * only deletions of **ss** edges can invalidate matches
//!   (Proposition 5.1) — handled by [`SimulationIndex::delete_edge`];
//! * only insertions of **cs** or **cc** edges can create matches
//!   (Proposition 5.2) — handled by [`SimulationIndex::insert_edge`]; `cc`
//!   edges matter only inside strongly connected components of the pattern,
//!   which is where the `propCC` phase runs;
//! * batch updates go through [`SimulationIndex::apply_batch`], which first
//!   reduces `ΔG` (`minDelta`): updates with no net effect on the graph and
//!   updates that are not `ss`/`cs`/`cc` edges for any pattern edge are
//!   discarded before any matching work happens.
//!
//! # Sharded batch maintenance
//!
//! Every stage of the batch pipeline is bulk-synchronous and partitions by
//! node id, so [`SimulationIndex::apply_batch`] runs the *whole* path —
//! `minDelta` reduction, graph mutation, counter absorption, demotion drain,
//! promotion drain — across the same contiguous node-range *shards*
//! ([`igpm_graph::shard`]). Slots ascend with node ids, so a node range owns
//! a contiguous slot range and a contiguous run of counter rows:
//!
//! * the **`minDelta` net-effect reduction**
//!   ([`igpm_graph::reduce_batch_sharded`]) shards by update source (all
//!   updates touching an edge share its source), nets each shard's edges,
//!   then merges deterministically by first-touch batch position — the exact
//!   sequential output. The pattern-relevance classification of the
//!   survivors reads only the frozen masks, so it runs after the graph
//!   mutation, where a [`MatchService`](crate::service::MatchService) runs
//!   it once per pattern;
//! * the **graph mutation** applies the reduced batch in two passes on the
//!   same plan — out-adjacency (and its per-node position map) sharded by
//!   source, in-adjacency by target
//!   ([`DataGraph::apply_reduced_batch_sharded`]);
//! * **absorption** touches only the counter row of each update's source
//!   node, so shards absorb their own updates with no communication at all;
//! * the **demotion/promotion drains** become synchronous *rounds*: a shard
//!   first applies the counter deltas addressed to its nodes (enqueuing
//!   demotion/promotion seeds when a counter crosses zero), then processes
//!   its seed worklist, buffering the counter deltas each demotion/promotion
//!   sends to graph parents into per-destination outboxes. Between rounds the
//!   outboxes are merged into the destination shards' inboxes; the phase ends
//!   when every worklist and inbox is empty;
//! * **`propCC`** (the SCC-joint pass of cyclic patterns, run between
//!   rounds) splits into read-only per-SCC evaluation — speculative, on
//!   scoped threads, with the tentative gather over the candidate slots and
//!   the derivation chunked, all of it on dense scratch addressed by
//!   position among the gathered candidates — and an ordered commit with a
//!   dirty fallback that reproduces the sequential cross-SCC data flow
//!   exactly (see `prop_cc`).
//!
//! Within a round every decision depends only on state frozen at the round
//! boundary, and every statistic counts a set whose contents are
//! schedule-independent, so the engine is **bit-identical — match sets,
//! counters and [`AffStats`] — for every shard count**; one shard *is* the
//! sequential engine. Threads (`std::thread::scope`) are only spawned when a
//! round has enough pending work to amortise them; below the threshold the
//! same shard code runs inline on the calling thread.
//!
//! The cold-start [`SimulationIndex::build`] reuses the same plan: the
//! label-index pass and candidate enumeration run per node-range slice with
//! ordered merges ([`crate::simulation::candidates_with_shards`]), the
//! support-counter derivation runs on disjoint node-range slices of the
//! counter rows, and the initial refinement is the round-based demotion
//! drain — so builds are bit-identical for every shard count too (see
//! [`SimulationIndex::build_with_shards`]).

use crate::incremental::{
    finalize_delta, panic_message, strip_out_of_range, unwrap_apply, ApplyOutcome, BuildError,
    CacheOp, DeltaTracker, IncrementalEngine, LenientApply, PipelineStage, SharedBatch,
    SharedMutation,
};
use crate::simulation::{candidates_with_shards, simulation_result_graph};
use crate::stats::AffStats;
use igpm_graph::fail;
use igpm_graph::hash::FastHashMap;
use igpm_graph::shard::{configured_shards, ShardPlan, PARALLEL_WORK_THRESHOLD};
use igpm_graph::update::{reduce_batch_sharded, validate_batch, StagePanic};
use igpm_graph::{
    ApplyError, BatchUpdate, DataGraph, MatchDelta, MatchRelation, NodeId, Pattern, PatternNodeId,
    ResultGraph, StronglyConnectedComponents, Update,
};
use std::cell::{Ref, RefCell};
use std::mem::size_of;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Maximum pattern arity representable in the membership bitmasks.
pub const MAX_PATTERN_NODES: usize = 64;

/// Membership bitmasks of one slot as its readers see them: bit `u` of
/// `matched` ⇔ `v ∈ match(u)`, bit `u` of `cand` ⇔ `v ∈ cand(u)`. Only
/// `matched` is stored per slot; `cand` is the slot's candidacy class
/// ([`SlotLayout::cand`]).
#[derive(Debug, Clone, Copy, Default)]
struct NodeMasks {
    matched: u64,
    cand: u64,
}

impl NodeMasks {
    /// `candt(u) = cand(u) \ match(u)`: the pattern nodes whose predicate
    /// the node satisfies but which it does not currently match.
    #[inline]
    fn candt(self) -> u64 {
        self.cand & !self.matched
    }
}

/// Iterator over the set bits of a word, ascending.
#[derive(Clone, Copy)]
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// One candidacy class: a `cand` word some slot carries, and the counter
/// row it implies. Fixed once interned.
#[derive(Debug, Clone, Copy)]
struct CandClass {
    /// The pattern nodes the class's slots are candidates of.
    cand: u64,
    /// The pattern nodes its slots keep support counters for, one per bit
    /// in ascending order ([`row_mask`] of `cand`).
    need: u64,
}

/// Where one pattern's per-node state lives: a rank bitvector over node ids
/// marking the nodes that own a slot (the candidates of some pattern node,
/// slots in ascending node order), plus every slot's candidacy class and
/// where its counter row starts. Fixed between node additions; read-only
/// during every batch stage.
#[derive(Debug, Clone)]
struct SlotLayout {
    /// Bit `v % 64` of `words[v / 64]` ⇔ node `v` owns a slot.
    words: Vec<u64>,
    /// `ranks[w]` = slots owned by the nodes below `64 · w`.
    ranks: Vec<u32>,
    /// Number of slots.
    len: usize,
    /// `rows[s]..rows[s + 1]` are slot `s`'s counter positions
    /// (`rows.len() = len + 1`).
    rows: Vec<u32>,
    /// `class[s]`: slot `s`'s candidacy class, an index into `classes`.
    class: Vec<u32>,
    /// The distinct candidacy classes, in order of first appearance.
    classes: Vec<CandClass>,
    /// `cand` word → its index in `classes`.
    class_of: FastHashMap<u64, u32>,
}

impl SlotLayout {
    /// The layout of `nv` nodes whose slot owners are the nodes listed in
    /// `lists`, with no classes or counter rows yet
    /// ([`SlotLayout::push_slot`] adds them in slot order).
    fn from_lists(nv: usize, lists: &[Arc<Vec<NodeId>>]) -> Self {
        let mut words = vec![0u64; nv.div_ceil(64)];
        for list in lists {
            for v in list.iter() {
                words[v.index() >> 6] |= 1u64 << (v.index() & 63);
            }
        }
        let mut ranks = Vec::with_capacity(words.len());
        let mut len = 0usize;
        for word in &words {
            ranks.push(u32::try_from(len).expect("slot count exceeds u32"));
            len += word.count_ones() as usize;
        }
        let mut rows = Vec::with_capacity(len + 1);
        rows.push(0);
        SlotLayout {
            words,
            ranks,
            len,
            rows,
            class: Vec::with_capacity(len),
            classes: Vec::new(),
            class_of: FastHashMap::default(),
        }
    }

    /// The slot of node `v`, if it owns one: one word test and a popcount.
    #[inline]
    fn slot(&self, v: usize) -> Option<usize> {
        let word = *self.words.get(v >> 6)?;
        let bit = 1u64 << (v & 63);
        if word & bit == 0 {
            return None;
        }
        Some(self.ranks[v >> 6] as usize + (word & (bit - 1)).count_ones() as usize)
    }

    /// Slots owned by the nodes below `v`.
    #[inline]
    fn rank(&self, v: usize) -> usize {
        match self.words.get(v >> 6) {
            Some(&word) => {
                let below = word & ((1u64 << (v & 63)) - 1);
                self.ranks[v >> 6] as usize + below.count_ones() as usize
            }
            None => self.len,
        }
    }

    /// The slots of a node range — contiguous, since slots ascend with node
    /// ids.
    fn slots_of(&self, nodes: &Range<usize>) -> Range<usize> {
        self.rank(nodes.start)..self.rank(nodes.end)
    }

    /// The counter positions of slot `s`.
    #[inline]
    fn row(&self, s: usize) -> Range<usize> {
        self.rows[s] as usize..self.rows[s + 1] as usize
    }

    /// The counter positions of a slot range (contiguous, like the slots).
    fn rows_of(&self, slots: &Range<usize>) -> Range<usize> {
        self.rows[slots.start] as usize..self.rows[slots.end] as usize
    }

    /// Total number of counters.
    fn counters(&self) -> usize {
        self.rows[self.len] as usize
    }

    /// The nodes owning a slot within `nodes`, ascending — paired with
    /// `slots_of(nodes)` they enumerate `(slot, node)` in order.
    fn nodes_in(&self, nodes: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let end = nodes.end.min(self.words.len() * 64);
        let start = nodes.start.min(end);
        (start >> 6..end.div_ceil(64)).flat_map(move |w| {
            let mut word = self.words[w];
            if w == start >> 6 {
                word &= !0u64 << (start & 63);
            }
            if (w + 1) * 64 > end {
                word &= (1u64 << (end & 63)) - 1;
            }
            Bits(word).map(move |bit| w * 64 + bit)
        })
    }

    /// Every node owning a slot, in slot order.
    fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes_in(0..self.words.len() * 64)
    }

    /// The pattern nodes slot `s` keeps support counters for: one load from
    /// the class table.
    #[inline]
    fn need(&self, s: usize) -> u64 {
        self.classes[self.class[s] as usize].need
    }

    /// The pattern nodes slot `s`'s node is a candidate of.
    #[inline]
    fn cand(&self, s: usize) -> u64 {
        self.classes[self.class[s] as usize].cand
    }

    /// The membership masks of slot `s`, whose match word is `matched`.
    #[inline]
    fn masks(&self, s: usize, matched: u64) -> NodeMasks {
        NodeMasks { matched, cand: self.cand(s) }
    }

    /// Appends the next slot, whose node is a candidate of the pattern nodes
    /// in `cand`: its class, interned on first sight, and its counter row,
    /// one counter per pattern node of the class's [`row_mask`].
    fn push_slot(&mut self, cand: u64, child_mask: &[u64]) {
        let classes = &mut self.classes;
        let class = *self.class_of.entry(cand).or_insert_with(|| {
            classes.push(CandClass { cand, need: row_mask(child_mask, cand) });
            u32::try_from(classes.len() - 1).expect("classes never outnumber slots")
        });
        let need = self.classes[class as usize].need;
        let end = self.rows[self.rows.len() - 1] as usize + need.count_ones() as usize;
        self.rows.push(u32::try_from(end).expect("support counters exceed u32 positions"));
        self.class.push(class);
    }

    /// Covers node `v`, the node after every covered one; when `cand` is
    /// non-empty, `v` owns the next slot (see [`SlotLayout::push_slot`]).
    fn push_node(&mut self, v: usize, cand: u64, child_mask: &[u64]) {
        if v >> 6 == self.words.len() {
            self.words.push(0);
            self.ranks.push(u32::try_from(self.len).expect("slot count exceeds u32"));
        }
        if cand != 0 {
            self.words[v >> 6] |= 1u64 << (v & 63);
            self.len += 1;
            self.push_slot(cand, child_mask);
        }
    }

    /// Heap bytes of the class table: the classes and the interning map
    /// (counted by capacity, one control byte per bucket).
    fn class_table_bytes(&self) -> usize {
        self.classes.capacity() * size_of::<CandClass>()
            + self.class_of.capacity() * (size_of::<(u64, u32)>() + 1)
    }

    /// Heap bytes of the layout.
    fn memory_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>()
            + (self.ranks.capacity() + self.rows.capacity() + self.class.capacity())
                * size_of::<u32>()
            + self.class_table_bytes()
    }
}

/// The pattern nodes whose support counters a slot whose node is a
/// candidate of `cand` keeps: the pattern children of every one of them.
#[inline]
fn row_mask(child_mask: &[u64], cand: u64) -> u64 {
    Bits(cand).fold(0, |need, u| need | child_mask[u])
}

/// Offset of `u2`'s counter within a row whose pattern nodes are `need`
/// (counters are kept in ascending pattern-node order).
#[inline]
fn row_offset(need: u64, u2: usize) -> usize {
    (need & ((1u64 << u2) - 1)).count_ones() as usize
}

/// One counter read per pattern child of `u` over a single slot's counter
/// row (`children` ⊆ `need` for every `u` the slot is a candidate of).
#[inline]
fn row_has_support(row: &[u32], need: u64, children: u64) -> bool {
    debug_assert_eq!(children & !need, 0, "support read outside the counter row");
    Bits(children).all(|u2| row[row_offset(need, u2)] > 0)
}

/// Read-only view of one pattern's slot state — plain shared slices, `Sync`,
/// so worker threads can hold it without capturing the index (whose lazy
/// match cache is not `Sync`).
#[derive(Clone, Copy)]
struct SlotView<'a> {
    layout: &'a SlotLayout,
    /// The `match` word of every slot.
    matched: &'a [u64],
    child_mask: &'a [u64],
}

impl SlotView<'_> {
    /// The membership masks of node `v` — empty for a node without a slot.
    #[inline]
    fn masks_of(&self, v: usize) -> NodeMasks {
        self.layout.slot(v).map_or(NodeMasks::default(), |s| self.masks(s))
    }

    /// The membership masks of slot `s`.
    #[inline]
    fn masks(&self, s: usize) -> NodeMasks {
        self.layout.masks(s, self.matched[s])
    }

    /// `masks_of(v).matched`, without the class lookup.
    #[inline]
    fn matched_of(&self, v: usize) -> u64 {
        self.layout.slot(v).map_or(0, |s| self.matched[s])
    }
}

/// Auxiliary state for incremental simulation over one pattern.
#[derive(Debug, Clone)]
pub struct SimulationIndex {
    pattern: Pattern,
    /// Number of pattern nodes (`≤ 64`).
    np: usize,
    /// Number of data nodes the index has observed (covered by `layout`).
    nv: usize,
    /// The candidate list of every pattern node over the first `listed`
    /// nodes, ascending: the interned `Arc`s of a service (shared, not
    /// copied), or the index's own lists when built standalone. Candidates
    /// among nodes observed later are found through `layout`.
    cand_lists: Vec<Arc<Vec<NodeId>>>,
    /// Number of nodes `cand_lists` covers.
    listed: usize,
    /// Node → slot map, the candidacy classes and the counter-row offsets.
    layout: SlotLayout,
    /// The `match` word per slot (its `cand` word is its class's).
    matched: Vec<u64>,
    /// The support counters, one row per slot: `cnt[v][u2] =
    /// |children(v) ∩ match(u2)|` for each `u2` in the slot's
    /// [`row_mask`], ascending.
    cnt: Vec<u32>,
    /// `|match(u)|` per pattern node (emptiness checks in O(1)).
    match_count: Vec<usize>,
    /// `child_mask[u]`: bitmask of the pattern children of `u`.
    child_mask: Vec<u64>,
    /// `parent_masks[u]`: bitmask of the pattern parents of `u`.
    parent_masks: Vec<u64>,
    /// `scc_child_mask[u]`: pattern children of `u` lying in the same
    /// *nontrivial* SCC as `u` (the edges `propCC` cares about).
    scc_child_mask: Vec<u64>,
    /// Bitmask of the pattern nodes lying in some nontrivial SCC.
    scc_member_mask: u64,
    /// Pattern SCC information, used to decide when `propCC` must run.
    scc: StronglyConnectedComponents,
    /// True if the pattern contains a nontrivial SCC (a cycle).
    has_cycle: bool,
    /// Statistics of the cold-start refinement drain (identical for every
    /// shard count, see [`SimulationIndex::build_with_shards`]).
    build_stats: AffStats,
    /// Lazily rebuilt sorted view of the current match. Kept exact across
    /// batches by the emitted [`MatchDelta`]s: an empty delta leaves it
    /// untouched, a non-empty one patches it in place (see
    /// [`SimulationIndex::finish_apply`]); only a contained panic still
    /// invalidates it.
    cache: RefCell<Option<MatchRelation>>,
    /// Per-batch recorder of raw match transitions, armed by every apply
    /// path and drained into the emitted [`MatchDelta`].
    tracker: DeltaTracker,
    /// Set by the panic containment when a mid-batch panic may have torn the
    /// auxiliary state. A poisoned index refuses reads and writes until
    /// [`SimulationIndex::recover`] rebuilds it from the graph.
    poisoned: bool,
}

/// Byte-for-byte view of a [`SimulationIndex`]'s auxiliary state, rendered
/// densely per data node, used by the build/batch equivalence suites to
/// assert that every shard count lands on *identical* internals, not merely
/// the same match relation. Nodes without a slot render as empty masks, and
/// pairs without a support counter as a zero counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimAuxSnapshot {
    /// `matched` membership mask per data node.
    pub matched: Vec<u64>,
    /// `candt` membership mask per data node.
    pub candt: Vec<u64>,
    /// The support counters, row-major (`nv × np`).
    pub counters: Vec<u32>,
    /// `|match(u)|` per pattern node.
    pub match_count: Vec<usize>,
}

impl SimulationIndex {
    /// Builds the index by computing the maximum simulation from scratch (the
    /// batch `Matchs` step that seeds every incremental session), using the
    /// label-indexed candidate pipeline and counter refinement, sharded across
    /// [`configured_shards`] node ranges (see
    /// [`SimulationIndex::build_with_shards`]).
    ///
    /// # Panics
    /// Panics if `pattern` is not a normal pattern or has more than
    /// [`MAX_PATTERN_NODES`] nodes. Use [`SimulationIndex::try_build`] for a
    /// typed [`BuildError`] instead.
    pub fn build(pattern: &Pattern, graph: &DataGraph) -> Self {
        Self::build_with_shards(pattern, graph, configured_shards())
    }

    /// Fallible [`SimulationIndex::build`]: rejects non-normal patterns and
    /// patterns wider than [`MAX_PATTERN_NODES`] with a typed [`BuildError`]
    /// instead of panicking.
    pub fn try_build(pattern: &Pattern, graph: &DataGraph) -> Result<Self, BuildError> {
        Self::try_build_with_shards(pattern, graph, configured_shards())
    }

    /// [`SimulationIndex::build`] with an explicit shard count (`IGPM_SHARDS`
    /// and machine parallelism are ignored).
    ///
    /// The cold-start path is embarrassingly parallel over nodes and reuses
    /// the batch shard plan ([`ShardPlan`]): the support-counter derivation
    /// runs on the disjoint counter rows of each node range (counters are
    /// derived from each owned node's *children*, so a shard only writes its
    /// own rows), and the initial demotion drain runs through the same
    /// bulk-synchronous round machinery as the batch engine. `shards = 1` is
    /// the sequential engine; every count produces bit-identical masks,
    /// counters, cached matches and build [`AffStats`]
    /// ([`SimulationIndex::build_stats`]).
    /// # Panics
    /// Panics (with the [`BuildError`] display text) if `pattern` is not a
    /// normal pattern or has more than [`MAX_PATTERN_NODES`] nodes.
    pub fn build_with_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        Self::try_build_with_shards(pattern, graph, shards)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// [`SimulationIndex::try_build`] with an explicit shard count.
    pub fn try_build_with_shards(
        pattern: &Pattern,
        graph: &DataGraph,
        shards: usize,
    ) -> Result<Self, BuildError> {
        check_buildable(pattern)?;
        // Collected at exact capacity: an in-place `collect` would keep the
        // source's allocation, three 8-byte `Arc`s per 24-byte list.
        let lists = candidates_with_shards(pattern, graph, shards);
        let mut cand_lists = Vec::with_capacity(lists.len());
        cand_lists.extend(lists.into_iter().map(Arc::new));
        Ok(Self::build_from_candidates(pattern, graph, cand_lists, shards))
    }

    /// Build core shared by the standalone constructors and the service path
    /// ([`IncrementalEngine::build_in_service`]): lays out one slot per
    /// candidate, seeds masks and counters from the per-pattern-node
    /// candidate lists (kept, not copied) and runs the initial refinement
    /// drain. Preconditions (checked by the callers): `pattern` is normal
    /// with arity ≤ [`MAX_PATTERN_NODES`], and `cand_lists[u]` is the
    /// ascending candidate list of pattern node `u` over every graph node,
    /// exactly as [`candidates_with_shards`] computes it.
    fn build_from_candidates(
        pattern: &Pattern,
        graph: &DataGraph,
        cand_lists: Vec<Arc<Vec<NodeId>>>,
        shards: usize,
    ) -> Self {
        debug_assert!(pattern.is_normal() && pattern.node_count() <= MAX_PATTERN_NODES);
        let np = pattern.node_count();
        let nv = graph.node_count();
        let scc = StronglyConnectedComponents::of_pattern(pattern);
        let has_cycle = scc.components().any(|c| scc.is_nontrivial(c));

        let mut child_mask = vec![0u64; np];
        let mut parent_masks = vec![0u64; np];
        let mut scc_child_mask = vec![0u64; np];
        for edge in pattern.edges() {
            child_mask[edge.from.index()] |= 1 << edge.to.index();
            parent_masks[edge.to.index()] |= 1 << edge.from.index();
            let comp = scc.component_of(edge.from.index());
            if comp == scc.component_of(edge.to.index()) && scc.is_nontrivial(comp) {
                scc_child_mask[edge.from.index()] |= 1 << edge.to.index();
            }
        }
        let mut scc_member_mask = 0u64;
        for u in 0..np {
            if scc.is_nontrivial(scc.component_of(u)) {
                scc_member_mask |= 1 << u;
            }
        }

        // Start with match(u) = cand(u): one slot per node in the union of
        // the lists, whose initial match word is its candidacy, then one
        // class and counter row per slot.
        let mut layout = SlotLayout::from_lists(nv, &cand_lists);
        let mut matched = vec![0u64; layout.len];
        let mut match_count = vec![0usize; np];
        for (u, list) in cand_lists.iter().enumerate() {
            // Slot order (and so the bit-identity of sharded builds) follows
            // node order; the label-index buckets and predicate scans of
            // `candidates()` produce ascending lists.
            debug_assert!(list.windows(2).all(|w| w[0] < w[1]), "candidate list not id-sorted");
            match_count[u] = list.len();
            for v in list.iter() {
                matched[layout.slot(v.index()).expect("listed candidates own a slot")] |= 1 << u;
            }
        }
        for &cand in &matched {
            layout.push_slot(cand, &child_mask);
        }

        let mut index = SimulationIndex {
            pattern: pattern.clone(),
            np,
            nv,
            cand_lists,
            listed: nv,
            cnt: vec![0u32; layout.counters()],
            layout,
            matched,
            match_count,
            child_mask,
            parent_masks,
            scc_child_mask,
            scc_member_mask,
            scc,
            has_cycle,
            build_stats: AffStats::default(),
            cache: RefCell::new(None),
            tracker: DeltaTracker::default(),
            poisoned: false,
        };

        // Derive the counters and scan for unsupported pairs. Each shard owns
        // the counter rows of its node range and derives them from its nodes'
        // *children* (`cnt[p][u2] = |children(p) ∩ match(u2)|` — the same
        // numbers as a reverse-adjacency pass, but writing only owned rows),
        // reading the masks seeded above.
        let plan = ShardPlan::new(nv, shards);
        let view = SlotView {
            layout: &index.layout,
            matched: &index.matched,
            child_mask: &index.child_mask,
        };
        let seeds: Vec<Seed> = if plan.count > 1 && nv >= PARALLEL_WORK_THRESHOLD {
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(plan.count);
                let mut rest = index.cnt.as_mut_slice();
                for shard in 0..plan.count {
                    let nodes = plan.range(shard);
                    let counters = view.layout.rows_of(&view.layout.slots_of(&nodes));
                    let (chunk, tail) = rest.split_at_mut(counters.len());
                    rest = tail;
                    handles.push(
                        scope.spawn(move || derive_counters_shard(view, nodes, chunk, graph)),
                    );
                }
                // Shard order concatenation = ascending node order, exactly
                // the order the sequential scan produces.
                handles.into_iter().flat_map(|h| h.join().expect("build shard panicked")).collect()
            })
        } else {
            derive_counters_shard(view, 0..nv, &mut index.cnt, graph)
        };

        // Refine to the greatest fixpoint: every unsupported pair is demoted
        // to a candidate (`candt = candidates \ match`), through the same
        // bulk-synchronous round machinery as the batch demotion phase.
        let mut build_stats = AffStats::default();
        if !seeds.is_empty() {
            index.run_drain(graph, RoundKind::Demote, seeds, plan, &mut build_stats);
        }
        index.build_stats = build_stats;
        index
    }

    /// Statistics of the build's initial refinement drain — the demotions
    /// that carve the maximum simulation out of the candidate sets. Identical
    /// for every shard count.
    pub fn build_stats(&self) -> AffStats {
        self.build_stats
    }

    /// Snapshot of the auxiliary state (membership masks, support counters,
    /// match counts) rendered densely per data node, for bit-identity
    /// assertions in the equivalence suites.
    pub fn aux_snapshot(&self) -> SimAuxSnapshot {
        let (nv, np) = (self.nv, self.np);
        let mut snapshot = SimAuxSnapshot {
            matched: vec![0; nv],
            candt: vec![0; nv],
            counters: vec![0; nv * np],
            match_count: self.match_count.clone(),
        };
        let view = self.view();
        for (s, v) in self.layout.nodes().enumerate() {
            let m = view.masks(s);
            snapshot.matched[v] = m.matched;
            snapshot.candt[v] = m.candt();
            let need = self.layout.need(s);
            for (u2, &count) in Bits(need).zip(&self.cnt[self.layout.row(s)]) {
                snapshot.counters[v * np + u2] = count;
            }
        }
        snapshot
    }

    /// Approximate heap bytes of the index's auxiliary state: the slot
    /// layout with its class table, the per-slot match words, the counter
    /// rows, the per-pattern-node arrays and the candidate lists only this
    /// index holds. Lists shared with a
    /// [`MatchService`](crate::service::MatchService)'s interner are the
    /// service's to count, and the lazily materialised match view is a copy
    /// of the answer, not auxiliary state. Grows with `Σ|cand(u)|` and by
    /// 1.5 bits per data node (see the [module docs](self)).
    pub fn memory_bytes(&self) -> usize {
        let lists: usize = self
            .cand_lists
            .iter()
            .filter(|list| Arc::strong_count(list) == 1)
            .map(|list| list.capacity() * size_of::<NodeId>())
            .sum();
        let per_pattern_node = self.match_count.capacity() * size_of::<usize>()
            + (self.child_mask.capacity()
                + self.parent_masks.capacity()
                + self.scc_child_mask.capacity())
                * size_of::<u64>()
            + self.cand_lists.capacity() * size_of::<Arc<Vec<NodeId>>>();
        self.layout.memory_bytes()
            + self.matched.capacity() * size_of::<u64>()
            + self.cnt.capacity() * size_of::<u32>()
            + per_pattern_node
            + lists
    }

    /// The pattern the index maintains matches for.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The current maximum match `M_sim(P, G)`. Empty if some pattern node has
    /// no match (i.e. `P ⋬_sim G`).
    ///
    /// The relation is materialised lazily and cached: repeated calls between
    /// mutations cost one clone of the cached vectors, not a rebuild. Use
    /// [`SimulationIndex::matches_view`] for a zero-copy borrow.
    ///
    /// # Panics
    /// Panics if the index is [poisoned](SimulationIndex::poisoned); use
    /// [`SimulationIndex::try_matches`] for a typed error.
    pub fn matches(&self) -> MatchRelation {
        self.matches_view().clone()
    }

    /// Fallible [`SimulationIndex::matches`]: returns
    /// [`ApplyError::Poisoned`] instead of panicking when a contained
    /// mid-batch panic left the auxiliary state unusable. Routed through
    /// [`SimulationIndex::try_matches_view`], so the fallible surface has a
    /// single poison check.
    pub fn try_matches(&self) -> Result<MatchRelation, ApplyError> {
        Ok(self.try_matches_view()?.clone())
    }

    /// True if a contained mid-batch panic left the auxiliary state
    /// potentially torn. A poisoned index refuses matches and further updates
    /// until [`SimulationIndex::recover`] rebuilds it; the *graph* was rolled
    /// back to its pre-batch edge set by the containment, so recovery never
    /// needs the failed batch.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Rebuilds the index from the graph via the ordinary sharded cold-start
    /// build, clearing the [poisoned](SimulationIndex::poisoned) flag. By the
    /// build-equivalence invariant the result is bit-identical to
    /// `SimulationIndex::build(&pattern, graph)`.
    pub fn recover(&mut self, graph: &DataGraph) {
        self.recover_with_shards(graph, configured_shards());
    }

    /// [`SimulationIndex::recover`] with an explicit shard count. Delegates
    /// to the one shared rebuild-and-clear-poison step,
    /// [`IncrementalEngine::recover_with_shards`].
    pub fn recover_with_shards(&mut self, graph: &DataGraph, shards: usize) {
        IncrementalEngine::recover_with_shards(self, graph, shards);
    }

    /// Borrowed view of the current maximum match, rebuilt at most once per
    /// mutation. The output is deterministic: match lists are produced in
    /// ascending node order.
    ///
    /// # Panics
    /// Panics if the index is [poisoned](SimulationIndex::poisoned); use
    /// [`SimulationIndex::try_matches_view`] for a typed error.
    pub fn matches_view(&self) -> Ref<'_, MatchRelation> {
        assert!(!self.poisoned, "simulation index is poisoned; call recover() before reading");
        self.try_matches_view().expect("poison checked above")
    }

    /// Fallible [`SimulationIndex::matches_view`]: returns
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
    /// [`SimulationIndex::matches_view`] is cached. Batches whose emitted
    /// [`MatchDelta`] is empty keep a warm cache warm (no re-materialisation);
    /// non-empty deltas patch it in place — the delta suite pins both.
    pub fn view_cache_is_warm(&self) -> bool {
        self.cache.borrow().is_some()
    }

    fn rebuild_relation(&self) -> MatchRelation {
        rebuild_relation_from(&self.layout, &self.matched, &self.match_count, self.np)
    }

    fn invalidate_cache(&mut self) {
        *self.cache.get_mut() = None;
    }

    /// The read-only slot view of the index.
    fn view(&self) -> SlotView<'_> {
        SlotView { layout: &self.layout, matched: &self.matched, child_mask: &self.child_mask }
    }

    /// True if every pattern node currently has at least one match.
    pub fn is_match(&self) -> bool {
        !self.match_count.is_empty() && self.match_count.iter().all(|&c| c > 0)
    }

    /// The current matches of one pattern node, sorted (may be nonempty even
    /// when the overall pattern does not match — this is the partial
    /// information that makes the problem semi-bounded rather than bounded,
    /// cf. Example 4.3). Costs `O(|cand(u)|)`.
    pub fn match_set(&self, u: PatternNodeId) -> Vec<NodeId> {
        self.collect_bit(u, |m| m.matched)
    }

    /// The current candidates of one pattern node, sorted. Costs
    /// `O(|cand(u)|)`.
    pub fn candidate_set(&self, u: PatternNodeId) -> Vec<NodeId> {
        self.collect_bit(u, NodeMasks::candt)
    }

    /// True if `v` currently matches `u` (one word op). Nodes the index has
    /// not yet observed (added after the last index operation) match nothing.
    #[inline]
    pub fn contains(&self, u: PatternNodeId, v: NodeId) -> bool {
        self.view().matched_of(v.index()) & (1 << u.index()) != 0
    }

    /// The candidates of `u` whose `select`ed mask has `u`'s bit: the listed
    /// candidates, then those among the nodes observed since the build.
    fn collect_bit(&self, u: PatternNodeId, select: impl Fn(NodeMasks) -> u64) -> Vec<NodeId> {
        let Some(list) = self.cand_lists.get(u.index()) else { return Vec::new() };
        let mask = 1u64 << u.index();
        let view = self.view();
        let later = self.layout.nodes_in(self.listed..self.nv).map(NodeId::from_index);
        list.iter()
            .copied()
            .chain(later)
            .filter(|v| select(view.masks_of(v.index())) & mask != 0)
            .collect()
    }

    /// Builds the result graph `G_r` for the current match.
    pub fn result_graph(&self, graph: &DataGraph) -> ResultGraph {
        simulation_result_graph(&self.pattern, graph, &self.matches_view())
    }

    // ------------------------------------------------------------------
    // Unit updates
    // ------------------------------------------------------------------

    /// `IncMatch-`: deletes the edge `(from, to)` from `graph` and maintains
    /// the match (optimal, `O(|AFF|)`, Theorem 5.1(2a)). Returns the batch
    /// statistics plus the emitted [`MatchDelta`]. An endpoint outside the
    /// graph makes the call a no-op, like an absent edge.
    ///
    /// # Panics
    /// Panics if the index is [poisoned](SimulationIndex::poisoned).
    pub fn delete_edge(&mut self, graph: &mut DataGraph, from: NodeId, to: NodeId) -> ApplyOutcome {
        assert!(!self.poisoned, "simulation index is poisoned; call recover() before updating");
        let mut stats = AffStats { delta_g: 1, ..AffStats::default() };
        let was_match = self.is_match();
        self.tracker.arm(false);
        // Grow the per-node state first: nodes added since the last index
        // operation must be classified with live masks, not skipped.
        self.ensure_node_capacity(graph);
        // Classified on the pre-update state, as in Table II.
        let relevant = is_ss_edge(self.view(), from, to);
        if !graph.remove_edge(from, to) {
            return self.finish_apply(stats, was_match);
        }
        // The counters must reflect the deletion even when it is not an ss
        // edge (`to` may match pattern nodes that `from` only *candidates*
        // for); Proposition 5.1 only says the match itself cannot change.
        let mut worklist: Vec<(u32, u32)> = Vec::new();
        self.absorb_unit(Update::delete(from, to), &mut worklist, &mut stats);
        if relevant {
            stats.reduced_delta_g = 1;
        }
        if !worklist.is_empty() {
            self.drain_demotions(graph, &mut worklist, &mut stats);
        }
        self.finish_apply(stats, was_match)
    }

    /// `IncMatch+` (general patterns) / `IncMatch+dag` (DAG patterns — the
    /// `propCC` phase simply never fires): inserts the edge `(from, to)` into
    /// `graph` and maintains the match. Returns the batch statistics plus
    /// the emitted [`MatchDelta`]; as an insertion, the delta rides the
    /// monotone fast path (no removal tracking). An endpoint outside the
    /// graph makes the call a no-op, like a present edge — the same skip
    /// [`SimulationIndex::delete_edge`] and the lenient batch path make.
    ///
    /// # Panics
    /// Panics if the index is [poisoned](SimulationIndex::poisoned).
    pub fn insert_edge(&mut self, graph: &mut DataGraph, from: NodeId, to: NodeId) -> ApplyOutcome {
        assert!(!self.poisoned, "simulation index is poisoned; call recover() before updating");
        let mut stats = AffStats { delta_g: 1, ..AffStats::default() };
        let was_match = self.is_match();
        self.tracker.arm(true);
        // Grow the per-node state first: the first edge out of a node added
        // after the last index operation must see that node as a candidate.
        self.ensure_node_capacity(graph);
        let relevant = is_cs_or_cc_edge(self.view(), from, to);
        let in_range = graph.contains_node(from) && graph.contains_node(to);
        if !in_range || !graph.add_edge(from, to) {
            return self.finish_apply(stats, was_match);
        }
        let mut worklist: Vec<(u32, u32)> = Vec::new();
        self.absorb_unit(Update::insert(from, to), &mut worklist, &mut stats);
        if !relevant {
            // Proposition 5.2: only cs/cc insertions can add matches. The
            // counters above still had to absorb the new edge.
            return self.finish_apply(stats, was_match);
        }
        stats.reduced_delta_g = 1;
        let run_cc = self.has_cycle && self.inserted_touches_scc(&[(from, to)]);
        self.propagate_insertions(graph, worklist, run_cc, &mut stats);
        self.finish_apply(stats, was_match)
    }

    // ------------------------------------------------------------------
    // Batch updates: IncMatch with minDelta
    // ------------------------------------------------------------------

    /// `IncMatch`: applies a batch of updates after reducing it with
    /// `minDelta`, processing all deletions simultaneously and then all
    /// insertions simultaneously (Fig. 10), with the phases sharded across
    /// [`configured_shards`] node ranges (see the module docs). Results are
    /// bit-identical for every shard count.
    ///
    /// Delegates to [`SimulationIndex::apply_batch_lenient`]: structurally
    /// invalid updates (out-of-range node ids) are skipped, redundant ones
    /// are neutralised by `minDelta` — identical behaviour to the historical
    /// infallible path for well-formed batches.
    ///
    /// # Panics
    /// Panics if the index is [poisoned](SimulationIndex::poisoned), or —
    /// re-raising a contained mid-batch panic — after a rollback/poison (see
    /// the [module docs](crate::incremental)). Use
    /// [`SimulationIndex::try_apply_batch`] for typed errors.
    pub fn apply_batch(&mut self, graph: &mut DataGraph, batch: &BatchUpdate) -> ApplyOutcome {
        self.apply_batch_with_shards(graph, batch, configured_shards())
    }

    /// [`SimulationIndex::apply_batch`] with an explicit shard count
    /// (`IGPM_SHARDS` and machine parallelism are ignored). `shards = 1` is
    /// the sequential engine; any other count produces the same match sets,
    /// counters, [`AffStats`] and emitted [`MatchDelta`].
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
    /// whether the index [poisoned](SimulationIndex::poisoned) itself or
    /// stayed usable.
    pub fn try_apply_batch(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
    ) -> Result<ApplyOutcome, ApplyError> {
        self.try_apply_batch_with_shards(graph, batch, configured_shards())
    }

    /// [`SimulationIndex::try_apply_batch`] with an explicit shard count.
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
    /// absent deletes are neutralised by the `minDelta` net-effect reduction,
    /// and every skipped update is reported in [`LenientApply::rejected`].
    /// For a batch with no invalid updates this is byte-identical to
    /// [`SimulationIndex::apply_batch`] (same masks, counters, `AffStats`).
    pub fn apply_batch_lenient(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
    ) -> Result<LenientApply, ApplyError> {
        self.apply_batch_lenient_with_shards(graph, batch, configured_shards())
    }

    /// [`SimulationIndex::apply_batch_lenient`] with an explicit shard count.
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
    /// index's own state — the net-effect half of `minDelta`
    /// ([`reduce_batch_sharded`]) and the graph mutation
    /// ([`IncrementalEngine::shared_mutate`]), then the per-pattern
    /// [`SimulationIndex::apply_shared_stages`] — so a standalone batch and a
    /// service batch have the same outcome by construction.
    ///
    /// An unwind becomes rollback-or-poison
    /// ([`SimulationIndex::contain_panic`]). `effective` is recorded before
    /// the mutation starts, since a panic can land anywhere inside the
    /// sharded mutation ([`DataGraph::rollback_updates`] tolerates
    /// not-yet-applied suffixes); the scoped worker threads of every sharded
    /// stage funnel their panics through their join handles into the same
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
            effective = reduce_batch_sharded(graph, batch, plan).0;
            if !effective.is_empty() {
                stage = PipelineStage::Mutate;
                Self::shared_mutate(&mut (), graph, &effective, shards);
            }
            let monotone = batch.iter().all(Update::is_insert);
            let shared = SharedBatch { batch_len: batch.len(), monotone, effective: &effective };
            self.apply_shared_stages(graph, &shared, shards, &mut stage)
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
        let (layout, matched, match_count, np) =
            (&self.layout, &self.matched, &self.match_count, self.np);
        let (delta, cache_op): (MatchDelta, CacheOp) = finalize_delta(
            &mut self.tracker,
            was_match,
            now_match,
            np,
            || raw_mask_pairs(layout, matched),
            || rebuild_relation_from(layout, matched, match_count, np),
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
    /// (an empty list is the no-op the pre-mutation stages need), and the
    /// index stays usable iff the panic landed in a stage that never touches
    /// auxiliary state — `Reduce` is pure reads and `Mutate` only mutates the
    /// graph. Behind a [`MatchService`](crate::service::MatchService)
    /// (`owned` is `None`) the graph mutation is committed service-wide:
    /// nothing is rolled back, and even a panic in the read-only
    /// classification leaves this engine *behind* the graph, so it always
    /// poisons and recovery rebuilds it from the current graph.
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
        let poisoned =
            !rolled_back || !matches!(stage, PipelineStage::Reduce | PipelineStage::Mutate);
        self.poisoned = poisoned;
        StagePanic { stage: stage.label(), message, rolled_back, poisoned }
    }

    /// The pattern-dependent pipeline of one batch, run against the
    /// already-mutated graph: by every [`MatchService`] pattern (see
    /// [`IncrementalEngine::try_apply_shared`]) and by a standalone index
    /// after its own reduction and mutation
    /// ([`SimulationIndex::apply_batch_contained`]). Grows the node state,
    /// classifies the shared net-effective list against the frozen
    /// membership masks, then runs absorption and the drains.
    ///
    /// Classification ([`is_ss_edge`]/[`is_cs_or_cc_edge`]) reads only the
    /// masks — never graph adjacency — and the masks are still pre-batch at
    /// this point, so running it *after* the graph mutation yields exactly
    /// the relevance verdicts `minDelta` would compute before mutating.
    ///
    /// [`MatchService`]: crate::service::MatchService
    fn apply_shared_stages(
        &mut self,
        graph: &DataGraph,
        batch: &SharedBatch<'_>,
        shards: usize,
        stage: &mut PipelineStage,
    ) -> ApplyOutcome {
        *stage = PipelineStage::Prepare;
        let mut stats = AffStats { delta_g: batch.batch_len, ..AffStats::default() };
        // Delta tracking starts before any match-bit mutation — including the
        // childless-pattern matches `ensure_node_capacity` grants brand-new
        // nodes. Insert-only batches take the monotone fast path: simulation
        // is monotone in the edge set, so insertions can only promote and the
        // removal side of the tracker provably stays empty (CALM).
        let was_match = self.is_match();
        self.tracker.arm(batch.monotone);
        // Grow the per-node arrays first (batches carry edge updates only, so
        // any node growth happened before this batch): classification below
        // must see nodes added since the last index operation as candidates.
        self.ensure_node_capacity(graph);
        // One plan drives every stage below: absorption and the drains
        // partition by the same contiguous node ranges.
        let plan = ShardPlan::new(self.nv, shards);

        // The per-pattern half of minDelta: count the updates relevant to
        // the pattern (ss deletions, cs/cc insertions —
        // `AffStats::reduced_delta_g`) and collect the relevant insertions,
        // the propCC trigger inputs. The irrelevant survivors were still
        // applied to the graph and are absorbed into the counters below.
        *stage = PipelineStage::Reduce;
        fail::fire(fail::SIM_REDUCE);
        let view = self.view();
        let mut relevant_insertions: Vec<(NodeId, NodeId)> = Vec::new();
        for update in batch.effective.iter().filter(|update| classify(view, update)) {
            stats.reduced_delta_g += 1;
            if update.is_insert() {
                relevant_insertions.push(update.endpoints());
            }
        }
        if batch.effective.is_empty() {
            return self.finish_apply(stats, was_match);
        }

        // Phase 1 — absorption: absorb every effective edge change into the
        // counters, sharded by each update's *source* node (the only node
        // whose counter row an update touches). The match state is untouched
        // in this phase, so afterwards
        // `cnt[v][u2] = |children_new(v) ∩ match_old(u2)|` exactly.
        *stage = PipelineStage::Absorb;
        fail::fire(fail::SIM_ABSORB);
        let (demotion_seeds, promotion_seeds) =
            self.absorb_batch(batch.effective, plan, &mut stats);

        // Phase 2 — deletions first (they can only shrink)...
        if !demotion_seeds.is_empty() {
            *stage = PipelineStage::Demote;
            fail::fire(fail::SIM_DEMOTE);
            self.run_drain(graph, RoundKind::Demote, demotion_seeds, plan, &mut stats);
        }
        // ...phase 3 — then insertions.
        let run_cc = self.has_cycle && self.inserted_touches_scc(&relevant_insertions);
        if !promotion_seeds.is_empty() || run_cc {
            *stage = PipelineStage::Promote;
            fail::fire(fail::SIM_PROMOTE);
            self.propagate_insertions_sharded(graph, promotion_seeds, run_cc, plan, &mut stats);
        }
        self.finish_apply(stats, was_match)
    }

    /// True if some inserted edge can affect the joint SCC evaluation, so
    /// `propCC` must run (Proposition 5.2(3), broadened): either the edge is
    /// a cc edge *inside* a nontrivial SCC (it adds tentative support), or it
    /// is a cs/cc edge for any pattern edge *out of* an SCC member — the
    /// support-counter rise on the member's candidate may unblock the joint
    /// fixpoint even when the pattern edge itself leaves the SCC (the
    /// candidate's last missing witness need not be the cyclic one).
    fn inserted_touches_scc(&self, inserted: &[(NodeId, NodeId)]) -> bool {
        let view = self.view();
        inserted.iter().any(|&(a, b)| {
            let known_b = view.masks_of(b.index()).cand;
            let bits = view.masks_of(a.index()).cand & self.scc_member_mask;
            Bits(bits).any(|u| self.child_mask[u] & known_b != 0)
        })
    }

    // ------------------------------------------------------------------
    // Counter maintenance
    // ------------------------------------------------------------------

    /// Does slot `s` (as a match or candidate of `u`) have, for every pattern
    /// edge `(u, u2)`, a supporting counter? One counter read per pattern
    /// child — no adjacency scan.
    #[inline]
    fn has_counter_support(&self, u: usize, s: usize) -> bool {
        let need = self.layout.need(s);
        row_has_support(&self.cnt[self.layout.row(s)], need, self.child_mask[u])
    }

    /// Absorbs one unit update into the counter row of its source — see
    /// [`absorb_edge`] for the demotion (removal) and `propCS` (insertion)
    /// seeding it performs.
    fn absorb_unit(&mut self, update: Update, worklist: &mut Vec<Seed>, stats: &mut AffStats) {
        let view =
            SlotView { layout: &self.layout, matched: &self.matched, child_mask: &self.child_mask };
        absorb_edge(view, &self.parent_masks, &mut self.cnt, 0, &update, worklist, stats);
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    /// Deletion propagation: pops `(u, v)` pairs whose support may be gone;
    /// a demotion decrements the counters of `v`'s graph parents and seeds
    /// them in turn when a counter reaches zero. Each pop costs `O(1)` checks
    /// plus `O(in-degree)` only when an actual demotion happens.
    fn drain_demotions(
        &mut self,
        graph: &DataGraph,
        worklist: &mut Vec<(u32, u32)>,
        stats: &mut AffStats,
    ) {
        while let Some((u, v)) = worklist.pop() {
            let (u, v) = (u as usize, v as usize);
            stats.nodes_visited += 1;
            let bit = 1u64 << u;
            let Some(s) = self.layout.slot(v) else { continue };
            if self.matched[s] & bit == 0 || self.has_counter_support(u, s) {
                continue;
            }
            // v no longer matches u: demote it to a candidate.
            self.matched[s] &= !bit;
            self.match_count[u] -= 1;
            self.tracker.record_removed(u, v as u32);
            stats.matches_removed += 1;
            stats.aux_changes += 1;
            let pmask = self.parent_masks[u];
            for &p in graph.parents(NodeId::from_index(v)) {
                let Some((ps, pos)) = counter_at(self.view(), p.index(), u) else {
                    continue;
                };
                let counter = &mut self.cnt[pos];
                debug_assert!(*counter > 0, "counter underflow demoting (u{u}, n{v})");
                *counter -= 1;
                stats.counter_updates += 1;
                if *counter == 0 {
                    for u_parent in Bits(self.matched[ps] & pmask) {
                        worklist.push((u_parent as u32, p.0));
                    }
                }
            }
        }
    }

    /// Insertion propagation: the `propCS` / `propCC` loop of `IncMatch+`.
    /// The unit path keeps everything on the calling thread (one update does
    /// not amortise a fan-out), so `propCC` runs on a one-shard plan.
    fn propagate_insertions(
        &mut self,
        graph: &DataGraph,
        mut worklist: Vec<(u32, u32)>,
        mut run_cc: bool,
        stats: &mut AffStats,
    ) {
        let plan = ShardPlan::new(self.nv, 1);
        loop {
            let promoted_cs = self.prop_cs(graph, &mut worklist, stats);
            if promoted_cs {
                // New matches may wake SCC candidates that depend on them.
                run_cc = self.has_cycle;
            }
            if !run_cc {
                break;
            }
            run_cc = false;
            let promoted_cc = self.prop_cc(graph, stats, &mut worklist, plan);
            if !promoted_cc && worklist.is_empty() {
                break;
            }
            if promoted_cc {
                // Another round: promotions can cascade through propCS and may
                // re-enable further SCC candidates.
                run_cc = true;
            }
        }
    }

    /// Promotes a candidate pair `(u, v)` (`v` owning slot `s`), updating the
    /// counters of `v`'s graph parents; `0 → 1` transitions re-enqueue
    /// candidate parents.
    fn promote(
        &mut self,
        graph: &DataGraph,
        u: usize,
        (s, v): (usize, usize),
        worklist: &mut Vec<(u32, u32)>,
        stats: &mut AffStats,
    ) {
        self.matched[s] |= 1u64 << u;
        self.match_count[u] += 1;
        self.tracker.record_inserted(u, v as u32);
        stats.matches_added += 1;
        stats.aux_changes += 1;
        let pmask = self.parent_masks[u];
        for &p in graph.parents(NodeId::from_index(v)) {
            let Some((ps, pos)) = counter_at(self.view(), p.index(), u) else {
                continue;
            };
            let counter = &mut self.cnt[pos];
            *counter += 1;
            stats.counter_updates += 1;
            if *counter == 1 {
                for u_parent in Bits(self.layout.masks(ps, self.matched[ps]).candt() & pmask) {
                    worklist.push((u_parent as u32, p.0));
                }
            }
        }
    }

    /// Promotes candidates from a worklist. Returns true if anything was
    /// promoted.
    fn prop_cs(
        &mut self,
        graph: &DataGraph,
        worklist: &mut Vec<(u32, u32)>,
        stats: &mut AffStats,
    ) -> bool {
        let mut promoted_any = false;
        while let Some((u, v)) = worklist.pop() {
            let (u, v) = (u as usize, v as usize);
            stats.nodes_visited += 1;
            let Some(s) = self.layout.slot(v) else { continue };
            if self.view().masks(s).candt() & (1 << u) == 0 || !self.has_counter_support(u, s) {
                continue;
            }
            self.promote(graph, u, (s, v), worklist, stats);
            promoted_any = true;
        }
        promoted_any
    }

    /// Evaluates candidates of every nontrivial pattern SCC jointly:
    /// tentatively assume all candidates of the SCC match, refine the
    /// assumption down to the greatest fixpoint, and promote the survivors.
    ///
    /// The refinement is counter-backed, mirroring the main engine: per
    /// (candidate, SCC pattern node) a *tentative support* counter
    /// `tsup[v][u2] = |children(v) ∩ tentative(u2)|` is derived once, and a
    /// worklist eliminates non-viable pairs, decrementing the counters of
    /// their tentative parents — instead of the seed's repeated
    /// full-candidate-set fixpoint sweeps with adjacency rescans. The
    /// scratch is dense and lives only for one SCC's evaluation: the
    /// gathered candidates are addressed by position (a slot → position
    /// map), `tsup` is one row of `|comp|` counters per position, and the
    /// cascade walks the tentative-induced subgraph, recorded while `tsup` is
    /// derived and reversed into CSR, instead of the graph's parent lists —
    /// see [`evaluate_scc_joint`] for its bytes.
    ///
    /// The phase is **sharded on the batch plan**. Each SCC's joint
    /// evaluation is a pure read of the index state ([`evaluate_scc_joint`]),
    /// so the SCCs are evaluated speculatively on scoped threads — each SCC
    /// owned by one worker (ownership striped over the SCC enumeration, an
    /// SCC's identity being its lowest pattern member) — and their verdicts
    /// are *committed* in enumeration order. A committed promotion dirties
    /// the frozen state later speculative verdicts were computed against;
    /// from the first dirtying commit on, every remaining SCC re-evaluates
    /// against the live state, which reproduces the sequential engine's
    /// cross-SCC data flow exactly (Tarjan numbering sends pattern edges from
    /// later-enumerated SCCs to earlier ones, so this is the only direction
    /// influence can travel). Within one SCC, the tentative gather over the
    /// candidate slots and the `tsup` derivation with its viability seed scan
    /// are chunked over node ranges / candidate positions — see
    /// [`evaluate_scc_joint`]. Matches, counters and [`AffStats`] are
    /// bit-identical for every shard count; `plan.count = 1` is the
    /// sequential engine.
    ///
    /// Survivor promotions enqueue their candidate parents on `worklist` for
    /// the next `propCS` pass. Returns true if anything was promoted.
    fn prop_cc(
        &mut self,
        graph: &DataGraph,
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
        let fan_out = plan.count > 1 && self.nv >= PARALLEL_WORK_THRESHOLD;

        // Phase A — speculative evaluation: every SCC's verdict against the
        // frozen pre-phase state, one SCC per worker
        // ([`crate::incremental::speculate_scc_verdicts`]). Only worth
        // spawning for multi-SCC patterns; a single SCC parallelises *inside*
        // its evaluation instead (phase B, `fan_out` inner chunking).
        let mut verdicts: Vec<Option<SccVerdict>> = if fan_out && comp_masks.len() > 1 {
            let ctx = self.scc_eval_ctx();
            crate::incremental::speculate_scc_verdicts(&comp_masks, plan.count, |mask| {
                evaluate_scc_joint(ctx, graph, mask, plan, false)
            })
        } else {
            (0..comp_masks.len()).map(|_| None).collect()
        };

        // Phase B — ordered commit with dirty fallback: speculative verdicts
        // are valid until the first commit that promoted something; from then
        // on each SCC re-evaluates against the live state (exactly what the
        // sequential engine reads).
        let mut dirty = false;
        let mut promoted_any = false;
        for (i, &comp_mask) in comp_masks.iter().enumerate() {
            let verdict = match (dirty, verdicts[i].take()) {
                (false, Some(verdict)) => verdict,
                _ => evaluate_scc_joint(self.scc_eval_ctx(), graph, comp_mask, plan, fan_out),
            };
            stats.merge(verdict.stats);
            if verdict.survivors.is_empty() {
                continue;
            }
            for (v, bits) in verdict.survivors {
                let s = self.layout.slot(v as usize).expect("tentative pairs are candidates");
                for u in Bits(bits) {
                    self.promote(graph, u, (s, v as usize), worklist, stats);
                }
            }
            promoted_any = true;
            dirty = true;
        }
        promoted_any
    }

    /// The read-only view of the index state that [`evaluate_scc_joint`]
    /// needs — plain slices, so worker threads can hold it without capturing
    /// the index (whose lazy match cache is not `Sync`).
    fn scc_eval_ctx(&self) -> SccEvalContext<'_> {
        SccEvalContext {
            nv: self.nv,
            view: self.view(),
            cnt: &self.cnt,
            parent_masks: &self.parent_masks,
            scc_child_mask: &self.scc_child_mask,
        }
    }

    // ------------------------------------------------------------------
    // Sharded batch phases
    // ------------------------------------------------------------------

    /// Phase 1 of the batch engine: absorbs the effective updates into the
    /// counters, sharded by each update's *source* node. Returns the demotion
    /// and promotion seed lists.
    fn absorb_batch(
        &mut self,
        effective: &[Update],
        plan: ShardPlan,
        stats: &mut AffStats,
    ) -> (Vec<Seed>, Vec<Seed>) {
        let view =
            SlotView { layout: &self.layout, matched: &self.matched, child_mask: &self.child_mask };
        let parent_masks = &self.parent_masks;
        // Absorbs `updates` into the counter rows `cnt` (starting at counter
        // position `base`).
        let absorb = |updates: &[Update], cnt: &mut [u32], base: usize| {
            let mut demo = Vec::new();
            let mut promo = Vec::new();
            let mut local = AffStats::default();
            for update in updates {
                let seeds = if update.is_insert() { &mut promo } else { &mut demo };
                absorb_edge(view, parent_masks, cnt, base, update, seeds, &mut local);
            }
            (demo, promo, local)
        };
        // Inline fast path: one shard, or too little work to pay for spawns.
        // Processing all updates in batch order on the full rows is identical
        // to the partitioned run — an update only touches its source's
        // counter row, and updates sharing a source keep their relative order
        // either way.
        let results: Vec<(Vec<Seed>, Vec<Seed>, AffStats)> = if plan.count == 1
            || effective.len() < PARALLEL_WORK_THRESHOLD
        {
            vec![absorb(effective, &mut self.cnt, 0)]
        } else {
            let mut per_shard: Vec<Vec<Update>> = vec![Vec::new(); plan.count];
            for update in effective {
                per_shard[plan.owner(update.endpoints().0.index())].push(*update);
            }
            let absorb = &absorb;
            std::thread::scope(|scope| {
                let mut rest = self.cnt.as_mut_slice();
                let mut handles = Vec::with_capacity(plan.count);
                for (shard, updates) in per_shard.into_iter().enumerate() {
                    let counters = view.layout.rows_of(&view.layout.slots_of(&plan.range(shard)));
                    let (chunk, tail) = rest.split_at_mut(counters.len());
                    rest = tail;
                    handles.push(scope.spawn(move || absorb(&updates, chunk, counters.start)));
                }
                handles.into_iter().map(|h| h.join().expect("absorption shard panicked")).collect()
            })
        };
        let mut demotion_seeds = Vec::new();
        let mut promotion_seeds = Vec::new();
        for (demo, promo, local) in results {
            demotion_seeds.extend(demo);
            promotion_seeds.extend(promo);
            stats.merge(local);
        }
        (demotion_seeds, promotion_seeds)
    }

    /// One bulk-synchronous drain phase over the shard views of the slot
    /// state — the demotion drain (phase 2 of the batch engine, and the
    /// build's refinement) or one `propCS` pass of the promotion phase:
    /// distributes `seeds` to their owners, runs rounds until quiescent and
    /// folds every shard back. Returns true if anything was promoted.
    fn run_drain(
        &mut self,
        graph: &DataGraph,
        kind: RoundKind,
        seeds: Vec<Seed>,
        plan: ShardPlan,
        stats: &mut AffStats,
    ) -> bool {
        let ctx = DrainCtx {
            graph,
            layout: &self.layout,
            child_mask: &self.child_mask,
            parent_masks: &self.parent_masks,
            np: self.np,
            plan,
        };
        let mut states = shard_states(&mut self.matched, &mut self.cnt, ctx);
        for seed in seeds {
            states[plan.owner(seed.1 as usize)].worklist.push(seed);
        }
        drive_rounds(&mut states, kind, ctx);
        let mut promoted = false;
        for st in states {
            promoted |= merge_shard(st, &mut self.match_count, stats, &mut self.tracker);
        }
        promoted
    }

    /// Phase 3 of the batch engine: the `propCS`/`propCC` alternation of
    /// [`SimulationIndex::propagate_insertions`], with the `propCS` cascade
    /// sharded as synchronous rounds and `propCC` sharded on the same plan —
    /// speculative read-only SCC-joint evaluation on scoped threads, verdicts
    /// committed in enumeration order (see [`SimulationIndex::prop_cc`]).
    /// Both run identically for every shard count.
    fn propagate_insertions_sharded(
        &mut self,
        graph: &DataGraph,
        seeds: Vec<Seed>,
        mut run_cc: bool,
        plan: ShardPlan,
        stats: &mut AffStats,
    ) {
        let mut worklist = seeds;
        loop {
            let seeds = std::mem::take(&mut worklist);
            let promoted_cs = self.run_drain(graph, RoundKind::Promote, seeds, plan, stats);
            if promoted_cs {
                run_cc = self.has_cycle;
            }
            if !run_cc {
                break;
            }
            run_cc = false;
            let promoted_cc = self.prop_cc(graph, stats, &mut worklist, plan);
            if !promoted_cc && worklist.is_empty() {
                break;
            }
            if promoted_cc {
                run_cc = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Node growth
    // ------------------------------------------------------------------

    /// Extends the slot state when the graph gained nodes since the index
    /// was last applied. A new node that satisfies some pattern node's
    /// predicate gets the next slot (node ids only grow, so slots stay in
    /// ascending node order), its candidacy class — a new one if no earlier
    /// node satisfied the same predicates — and a zeroed counter row; the
    /// batch that brings its edges absorbs them like any other. It matches a
    /// pattern node iff it satisfies the predicate of a *childless* pattern
    /// node; otherwise it starts as a candidate. Every other new node costs
    /// its bit in the slot bitvector. This is the only place the class table
    /// grows, and it runs before every batch stage.
    fn ensure_node_capacity(&mut self, graph: &DataGraph) {
        let new_nv = graph.node_count();
        if new_nv <= self.nv {
            return;
        }
        for v in self.nv..new_nv {
            let attrs = graph.attrs(NodeId::from_index(v));
            let (mut cand, mut matched) = (0u64, 0u64);
            for u in self.pattern.nodes() {
                if !self.pattern.predicate(u).satisfied_by(attrs) {
                    continue;
                }
                cand |= 1 << u.index();
                if self.child_mask[u.index()] == 0 {
                    // A childless-pattern match is a view-level insertion the
                    // tracker must see (it is vacuously supported, so no later
                    // stage of this batch can demote it again).
                    matched |= 1 << u.index();
                    self.match_count[u.index()] += 1;
                    self.tracker.record_inserted(u.index(), v as u32);
                }
            }
            self.layout.push_node(v, cand, &self.child_mask);
            if cand != 0 {
                self.matched.push(matched);
            }
        }
        self.cnt.resize(self.layout.counters(), 0);
        self.nv = new_nv;
    }

    // ------------------------------------------------------------------
    // Debug invariants
    // ------------------------------------------------------------------

    /// Recomputes every support counter from scratch and compares (test-only
    /// consistency oracle for the incremental maintenance).
    #[cfg(test)]
    fn assert_counters_consistent(&self, graph: &DataGraph) {
        let view = self.view();
        for (s, v) in self.layout.nodes().enumerate() {
            let need = view.layout.need(s);
            let row = &self.cnt[self.layout.row(s)];
            assert_eq!(row.len(), need.count_ones() as usize, "row length at n{v}");
            for u2 in Bits(need) {
                let expected = graph
                    .children(NodeId::from_index(v))
                    .iter()
                    .filter(|w| view.matched_of(w.index()) & (1 << u2) != 0)
                    .count() as u32;
                assert_eq!(row[row_offset(need, u2)], expected, "counter drift at (n{v}, u{u2})");
            }
        }
        for u in 0..self.np {
            let count = self.matched.iter().filter(|&&m| m & (1 << u) != 0).count();
            assert_eq!(self.match_count[u], count, "match_count drift at u{u}");
        }
    }
}

// ----------------------------------------------------------------------
// Sharded batch machinery
// ----------------------------------------------------------------------
//
// The batch phases operate on per-shard views of the slot state: the slots
// of contiguous node ranges (see `igpm_graph::shard` for why contiguous
// beats `v % shards`) are themselves contiguous, as are their counter rows,
// so `split_at_mut` hands worker threads disjoint `&mut` slices and the
// whole engine stays free of `unsafe`, atomics and locks. Counter deltas
// addressed to another shard's nodes travel through per-destination
// outboxes merged between rounds; every in-round decision depends only on
// state frozen at the round boundary, so match sets, counters and stats are
// independent of the shard count and of thread scheduling.

/// Demotion/promotion seed: `(pattern node, data node)`.
type Seed = (u32, u32);

/// Rejects the patterns the engine cannot index: non-normal ones and those
/// wider than the membership masks.
fn check_buildable(pattern: &Pattern) -> Result<(), BuildError> {
    if !pattern.is_normal() {
        return Err(BuildError::NotNormal);
    }
    if pattern.node_count() > MAX_PATTERN_NODES {
        return Err(BuildError::ArityTooLarge { arity: pattern.node_count() });
    }
    Ok(())
}

/// Table II relevance of one update against the frozen masks: an ss edge for
/// a deletion, a cs/cc edge for an insertion.
fn classify(view: SlotView<'_>, update: &Update) -> bool {
    let (a, b) = update.endpoints();
    match update {
        Update::DeleteEdge { .. } => is_ss_edge(view, a, b),
        Update::InsertEdge { .. } => is_cs_or_cc_edge(view, a, b),
    }
}

/// True if `(from, to)` is an ss edge for some pattern edge: both endpoints
/// currently match the edge's endpoints (Table II).
fn is_ss_edge(view: SlotView<'_>, from: NodeId, to: NodeId) -> bool {
    let target = view.matched_of(to.index());
    Bits(view.matched_of(from.index())).any(|u| view.child_mask[u] & target != 0)
}

/// True if `(from, to)` is a cs or cc edge for some pattern edge: the source
/// is a candidate and the target is a candidate or a match (Table II).
fn is_cs_or_cc_edge(view: SlotView<'_>, from: NodeId, to: NodeId) -> bool {
    let target = view.masks_of(to.index()).cand;
    Bits(view.masks_of(from.index()).candt()).any(|u| view.child_mask[u] & target != 0)
}

/// The slot of `p` and the position of its support counter for `u2` in
/// `cnt`, if `p` keeps one — only a candidate of a pattern parent of `u2`
/// does.
#[inline]
fn counter_at(view: SlotView<'_>, p: usize, u2: usize) -> Option<(usize, usize)> {
    let s = view.layout.slot(p)?;
    let need = view.layout.need(s);
    (need & (1u64 << u2) != 0).then(|| (s, view.layout.rows[s] as usize + row_offset(need, u2)))
}

/// A pending counter delta: `(data node, pattern node)`. Whether it is a
/// decrement or an increment is fixed by the phase ([`RoundKind`]).
type CounterMsg = (u32, u32);

/// Absorbs one effective edge change `(a, b)` into the counter row of its
/// source `a` (`cnt` holds the rows from counter position `base` on). For a
/// removal, `cnt[a][u2]` drops for every pattern node `u2` matched by `b`,
/// and on reaching zero every match `(u, a)` with pattern edge `(u, u2)`
/// loses its support and is seeded for demotion. For an insertion the
/// counters rise, and a `0 → 1` transition may enable the *candidate* `a`
/// for pattern parents of `u2` — the `propCS` seeding of `IncMatch+`. Only
/// the counters `a` keeps move: a pattern node `u2` outside its row has no
/// parent among `a`'s candidacies, so nothing reads that pair.
fn absorb_edge(
    view: SlotView<'_>,
    parent_masks: &[u64],
    cnt: &mut [u32],
    base: usize,
    update: &Update,
    worklist: &mut Vec<Seed>,
    stats: &mut AffStats,
) {
    let (a, b) = update.endpoints();
    let Some(sa) = view.layout.slot(a.index()) else { return };
    let am = view.masks(sa);
    let need = view.layout.need(sa);
    let row = view.layout.rows[sa] as usize - base;
    let kind = if update.is_insert() { RoundKind::Promote } else { RoundKind::Demote };
    for u2 in Bits(view.matched_of(b.index()) & need) {
        let counter = &mut cnt[row + row_offset(need, u2)];
        stats.counter_updates += 1;
        if kind.step(counter) {
            for u in Bits(kind.members(am) & parent_masks[u2]) {
                worklist.push((u as u32, a.0));
            }
        }
    }
}

/// Build phase on one shard: derive the support counters of the slots in the
/// owned node range (whose rows are `cnt`) from each owned node's children —
/// `cnt[v][u2] = |children(v) ∩ match(u2)|`, the same numbers as a
/// reverse-adjacency pass but touching only owned rows — then scan the owned
/// matches for pairs without full counter support. Returns those demotion
/// seeds in ascending node order.
fn derive_counters_shard(
    view: SlotView<'_>,
    nodes: Range<usize>,
    cnt: &mut [u32],
    graph: &DataGraph,
) -> Vec<Seed> {
    let slots = view.layout.slots_of(&nodes);
    let base = view.layout.rows[slots.start] as usize;
    let local = |s: usize| {
        let row = view.layout.row(s);
        row.start - base..row.end - base
    };
    for (s, v) in slots.clone().zip(view.layout.nodes_in(nodes.clone())) {
        let need = view.layout.need(s);
        if need == 0 {
            continue;
        }
        let row = &mut cnt[local(s)];
        for &w in graph.children(NodeId::from_index(v)) {
            for u2 in Bits(view.matched_of(w.index()) & need) {
                row[row_offset(need, u2)] += 1;
            }
        }
    }
    let mut seeds = Vec::new();
    for (s, v) in slots.zip(view.layout.nodes_in(nodes)) {
        let need = view.layout.need(s);
        let row = &cnt[local(s)];
        for u in Bits(view.matched[s]) {
            if !row_has_support(row, need, view.child_mask[u]) {
                seeds.push((u as u32, v as u32));
            }
        }
    }
    seeds
}

/// Read-only slices of the index state consumed by [`evaluate_scc_joint`] —
/// plain `Sync` data, so SCC evaluations can run on worker threads without
/// capturing the index itself (whose lazy match cache is not `Sync`).
#[derive(Clone, Copy)]
struct SccEvalContext<'a> {
    nv: usize,
    view: SlotView<'a>,
    cnt: &'a [u32],
    parent_masks: &'a [u64],
    scc_child_mask: &'a [u64],
}

/// Outcome of one SCC's joint evaluation: the surviving tentative assumptions
/// `(data node, SCC pattern bits)` in ascending node order — the pairs the
/// commit step promotes — plus the statistics of the evaluation itself
/// (tentative-counter work and pairs visited). Both are pure functions of the
/// index state the evaluation read, independent of where or in how many
/// chunks it ran.
struct SccVerdict {
    survivors: Vec<(u32, u64)>,
    stats: AffStats,
}

/// The read-only SCC-joint evaluation behind `propCC`: tentatively assume
/// every candidate of the SCC (`comp_mask`) matches, refine the assumption to
/// its greatest fixpoint with tentative-support counters, and report the
/// survivors. Mutates nothing — promotion is the caller's ordered commit.
///
/// The scratch is dense and addresses the gathered candidates by their
/// *position* in the gathered list (ascending node order):
///
/// * a slot → position map finds a child's position with one slot lookup
///   and one load;
/// * the live tentative bits are one word per position;
/// * `tsup` is one row of `|comp|` counters per position, `tsup[i][u2] =
///   |children(v_i) ∩ tentative(u2)|` (`u2`'s rank within the component
///   picks the column), biased by [`REAL_SUPPORT`] where the pair also has
///   real counter support, so that a counter reaches zero exactly when its
///   pair has lost every support;
/// * the *tentative-induced subgraph* — every edge between two gathered
///   candidates — is recorded while `tsup` is derived and reversed into
///   CSR, so the elimination cascade walks an eliminated candidate's
///   tentative parents in a local array instead of `graph.parents` plus a
///   lookup per parent.
///
/// All of it is allocated by this call and freed when it returns: 4 bytes
/// per slot of the pattern, at most `32 + 4·|comp|` bytes per gathered
/// candidate and 8 bytes per tentative edge, plus 8 bytes per queued
/// elimination. No scratch outlives the evaluation.
///
/// When `fan_out` is set, the two scan-shaped steps run chunked on scoped
/// threads, each with a deterministic ordered merge, so the verdict is
/// identical for every chunking:
///
/// * the **tentative gather** — a scan of every candidate slot — partitions
///   the node range on `plan` and concatenates in range order;
/// * the **derivation** chunks the gathered positions: each chunk writes
///   the disjoint run of `tsup` rows of its own positions, and returns its
///   tentative edges and its non-viable pairs (the elimination seeds), both
///   concatenated in chunk order. A row depends only on its source's
///   children, so a pair's viability is checked as soon as its row is
///   complete.
///
/// The elimination cascade itself stays on the calling thread: it is
/// `O(eliminated pairs)`, confluent (the greatest fixpoint is unique and
/// every counter it touches is decremented exactly once per eliminated pair,
/// in any order), and bounded by work already counted.
fn evaluate_scc_joint(
    ctx: SccEvalContext<'_>,
    graph: &DataGraph,
    comp_mask: u64,
    plan: ShardPlan,
    fan_out: bool,
) -> SccVerdict {
    let mut stats = AffStats::default();

    // The tentative candidates: every slot still assumed to match some
    // pattern node of this SCC (matches are kept implicitly: they can never
    // be invalidated by insertions), in ascending node order.
    let view = ctx.view;
    let gathered: Vec<Tentative> = if fan_out && plan.count > 1 && ctx.nv >= PARALLEL_WORK_THRESHOLD
    {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.count)
                .map(|shard| {
                    let range = plan.range(shard);
                    scope.spawn(move || gather_tentative(view, comp_mask, range))
                })
                .collect();
            // Range order concatenation = ascending node order.
            handles.into_iter().flat_map(|h| h.join().expect("propCC gather panicked")).collect()
        })
    } else {
        gather_tentative(view, comp_mask, 0..ctx.nv)
    };
    if gathered.is_empty() {
        return SccVerdict { survivors: Vec::new(), stats };
    }
    let n = gathered.len();
    let mut pos_of = vec![NOT_GATHERED; view.layout.len];
    for (i, g) in gathered.iter().enumerate() {
        pos_of[g.slot as usize] = i as u32;
    }
    let mut live: Vec<u64> = gathered.iter().map(|g| g.bits).collect();
    let width = comp_mask.count_ones() as usize;

    // tsup, the tentative edges and the elimination seeds — tentative pairs
    // without full (real or tentative) support — in one pass, chunked over
    // the gathered positions.
    let chunk_plan = ShardPlan::new(n, plan.count);
    let chunked = fan_out && chunk_plan.count > 1 && n >= PARALLEL_WORK_THRESHOLD;
    let mut tsup = vec![0u32; n * width];
    let columns = tsup_columns(comp_mask);
    let set = TentativeSet {
        ctx,
        list: &gathered,
        bits: &live,
        pos_of: &pos_of,
        comp_mask,
        columns: &columns,
    };
    let (edges, mut eliminate) = if chunked {
        let partials: Vec<(TentativeEdges, Vec<(u32, u32)>)> = std::thread::scope(|scope| {
            let mut rest = tsup.as_mut_slice();
            let mut handles = Vec::with_capacity(chunk_plan.count);
            for shard in 0..chunk_plan.count {
                let range = chunk_plan.range(shard);
                let (rows, tail) = rest.split_at_mut(range.len() * width);
                rest = tail;
                handles.push(scope.spawn(move || derive_chunk(set, graph, range, rows)));
            }
            handles.into_iter().map(|h| h.join().expect("propCC derivation panicked")).collect()
        });
        let mut edges = TentativeEdges::default();
        let mut eliminate = Vec::new();
        for (partial, seeds) in partials {
            edges.degree.extend(partial.degree);
            edges.targets.extend(partial.targets);
            edges.updates += partial.updates;
            eliminate.extend(seeds);
        }
        (edges, eliminate)
    } else {
        derive_chunk(set, graph, 0..n, &mut tsup)
    };
    stats.counter_updates += edges.updates;
    // One visit per tentative pair scanned for viability; the scan itself is
    // embarrassingly parallel, so count it from the gathered bits.
    stats.nodes_visited += live.iter().map(|bits| bits.count_ones() as usize).sum::<usize>();

    // Eliminate with cascade: dropping the assumption (u, v) costs its
    // tentative parents one unit of support for u. Confluent — the stats
    // below count sets that are independent of pop order.
    let parents = edges.reverse(n);
    while let Some((u, j)) = eliminate.pop() {
        let (u, j) = (u as usize, j as usize);
        let bit = 1u64 << u;
        if live[j] & bit == 0 {
            continue;
        }
        stats.nodes_visited += 1;
        live[j] &= !bit;
        let pmask = ctx.parent_masks[u] & comp_mask;
        let column = columns[u] as usize;
        for &i in parents.of(j) {
            let i = i as usize;
            let counter = &mut tsup[i * width + column];
            debug_assert!(*counter > 0, "tentative support underflow");
            *counter -= 1;
            stats.counter_updates += 1;
            if *counter == 0 {
                // v_i lost its last support for u: every tentative
                // assumption on v_i that relied on the pattern edge
                // (u_par, u) is dead.
                for u_par in Bits(live[i] & pmask) {
                    eliminate.push((u_par as u32, i as u32));
                }
            }
        }
    }

    let survivors = gathered
        .iter()
        .zip(&live)
        .filter(|&(_, &bits)| bits != 0)
        .map(|(g, &bits)| (g.v, bits))
        .collect();
    SccVerdict { survivors, stats }
}

/// One gathered tentative candidate: its node, its slot and the SCC
/// pattern nodes it is assumed to match.
#[derive(Clone, Copy)]
struct Tentative {
    v: u32,
    slot: u32,
    bits: u64,
}

/// Collects the tentative candidates of one node range: every slot whose
/// candidate bits intersect the component, ascending.
fn gather_tentative(view: SlotView<'_>, comp_mask: u64, nodes: Range<usize>) -> Vec<Tentative> {
    let slots = view.layout.slots_of(&nodes);
    slots
        .zip(view.layout.nodes_in(nodes))
        .filter_map(|(slot, v)| {
            let bits = view.masks(slot).candt() & comp_mask;
            (bits != 0).then_some(Tentative { v: v as u32, slot: slot as u32, bits })
        })
        .collect()
}

/// Marks a slot whose node was not gathered in the slot → position map.
const NOT_GATHERED: u32 = u32::MAX;

/// Added to a `tsup` counter whose pair also has real counter support: no
/// node has 2³¹ children, so such a counter never reaches zero.
const REAL_SUPPORT: u32 = 1 << 31;

/// `columns[u2]`: the `tsup` column of component member `u2`, its rank
/// among the members (a table, so the hot loops need no popcount).
fn tsup_columns(comp_mask: u64) -> [u8; MAX_PATTERN_NODES] {
    let mut columns = [0u8; MAX_PATTERN_NODES];
    for (column, u2) in Bits(comp_mask).enumerate() {
        columns[u2] = column as u8;
    }
    columns
}

/// The gathered candidates of one SCC evaluation, addressed by position —
/// what a derivation chunk reads.
#[derive(Clone, Copy)]
struct TentativeSet<'a> {
    ctx: SccEvalContext<'a>,
    /// The gathered candidates, ascending by node.
    list: &'a [Tentative],
    /// The tentative bits of every position, before any elimination: one
    /// dense word each, for the lookups of the children's bits.
    bits: &'a [u64],
    /// `pos_of[s]`: the position of slot `s` in `list`, or [`NOT_GATHERED`].
    pos_of: &'a [u32],
    comp_mask: u64,
    /// [`tsup_columns`] of `comp_mask`.
    columns: &'a [u8; MAX_PATTERN_NODES],
}

impl TentativeSet<'_> {
    /// The position of node `v`, if it was gathered.
    #[inline]
    fn position(&self, v: usize) -> Option<usize> {
        let i = self.pos_of[self.ctx.view.layout.slot(v)?];
        (i != NOT_GATHERED).then_some(i as usize)
    }
}

/// The tentative edges of a run of gathered sources: `degree[i]` targets
/// per source, in source order, each target a position. `updates` counts
/// the `tsup` increments that deriving them performed (the counter-update
/// work of the derivation).
#[derive(Default)]
struct TentativeEdges {
    degree: Vec<u32>,
    targets: Vec<u32>,
    updates: usize,
}

impl TentativeEdges {
    /// Reverses the edges of every gathered source (`n` positions) into
    /// CSR over their targets.
    fn reverse(self, n: usize) -> TentativeParents {
        // Counting sort by target: `off[j]` counts j's parents, prefix sums
        // turn it into the end of j's run, and filling every run back to
        // front while walking the sources in descending order leaves
        // `off[j]` at the run's start, with the run ascending.
        let mut off = vec![0u32; n + 1];
        for &j in &self.targets {
            off[j as usize] += 1;
        }
        for j in 1..=n {
            off[j] += off[j - 1];
        }
        let mut src = vec![0u32; self.targets.len()];
        let mut end = self.targets.len();
        for (i, &degree) in self.degree.iter().enumerate().rev() {
            let start = end - degree as usize;
            for &j in &self.targets[start..end] {
                off[j as usize] -= 1;
                src[off[j as usize] as usize] = i as u32;
            }
            end = start;
        }
        TentativeParents { off, src }
    }
}

/// The tentative parents of every gathered candidate: the positions of the
/// sources of position `j`'s incoming tentative edges are
/// `src[off[j]..off[j + 1]]`, one per edge, ascending.
struct TentativeParents {
    off: Vec<u32>,
    src: Vec<u32>,
}

impl TentativeParents {
    #[inline]
    fn of(&self, j: usize) -> &[u32] {
        &self.src[self.off[j] as usize..self.off[j + 1] as usize]
    }
}

/// Derives the gathered sources at positions `range`: their `tsup` rows
/// (`tsup`, this chunk's rows), their tentative edges, and their non-viable
/// tentative pairs as `(pattern node, position)` in position order. A pair
/// `(u, v)` is viable when every pattern edge out of `u` has either real
/// counter support at `v` or — for SCC-internal edges — tentative support.
fn derive_chunk(
    set: TentativeSet<'_>,
    graph: &DataGraph,
    range: Range<usize>,
    tsup: &mut [u32],
) -> (TentativeEdges, Vec<(u32, u32)>) {
    let ctx = set.ctx;
    let width = set.comp_mask.count_ones() as usize;
    let mut edges =
        TentativeEdges { degree: Vec::with_capacity(range.len()), ..TentativeEdges::default() };
    let mut seeds = Vec::new();
    for (row, i) in tsup.chunks_exact_mut(width).zip(range) {
        let Tentative { v, slot, bits } = set.list[i];
        let before = edges.targets.len();
        for &w in graph.children(NodeId(v)) {
            let Some(j) = set.position(w.index()) else { continue };
            let wbits = set.bits[j];
            for u2 in Bits(wbits) {
                row[set.columns[u2] as usize] += 1;
            }
            edges.updates += wbits.count_ones() as usize;
            edges.targets.push(j as u32);
        }
        edges.degree.push((edges.targets.len() - before) as u32);

        let s = slot as usize;
        let need = ctx.view.layout.need(s);
        let cnt = &ctx.cnt[ctx.view.layout.row(s)];
        for u2 in Bits(set.comp_mask & need) {
            if cnt[row_offset(need, u2)] > 0 {
                row[set.columns[u2] as usize] += REAL_SUPPORT;
            }
        }
        for u in Bits(bits) {
            let viable = Bits(ctx.view.child_mask[u]).all(|u2| {
                if ctx.scc_child_mask[u] & (1 << u2) != 0 {
                    row[set.columns[u2] as usize] > 0
                } else {
                    cnt[row_offset(need, u2)] > 0
                }
            });
            if !viable {
                seeds.push((u as u32, i as u32));
            }
        }
    }
    (edges, seeds)
}

/// Which kind of drain a round executes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RoundKind {
    /// Counter deltas are decrements; `1 → 0` crossings seed matched pairs,
    /// seeds demote when they lost their last support.
    Demote,
    /// Counter deltas are increments; `0 → 1` crossings seed candidate pairs,
    /// seeds promote when they gained full support.
    Promote,
}

impl RoundKind {
    /// Applies one counter delta of this phase; true on a zero crossing.
    #[inline]
    fn step(self, counter: &mut u32) -> bool {
        match self {
            RoundKind::Demote => {
                debug_assert!(*counter > 0, "support counter underflow");
                *counter -= 1;
                *counter == 0
            }
            RoundKind::Promote => {
                *counter += 1;
                *counter == 1
            }
        }
    }

    /// The pairs a zero crossing re-examines: matches when demoting,
    /// candidates when promoting.
    #[inline]
    fn members(self, m: NodeMasks) -> u64 {
        match self {
            RoundKind::Demote => m.matched,
            RoundKind::Promote => m.candt(),
        }
    }
}

/// The read-only inputs of a drain phase, shared by every shard.
#[derive(Clone, Copy)]
struct DrainCtx<'a> {
    graph: &'a DataGraph,
    layout: &'a SlotLayout,
    child_mask: &'a [u64],
    parent_masks: &'a [u64],
    np: usize,
    plan: ShardPlan,
}

/// Per-shard state of one bulk-synchronous drain phase.
struct ShardState<'a> {
    /// First slot owned by this shard.
    slot_base: usize,
    /// First counter position owned by this shard.
    cnt_base: usize,
    /// The `match` words of the owned slots.
    matched: &'a mut [u64],
    /// Counter rows of the owned slots.
    cnt: &'a mut [u32],
    /// Seeds `(u, v)` with `v` owned by this shard, pending evaluation.
    worklist: Vec<Seed>,
    /// Counter deltas addressed to this shard, applied next round.
    inbox: Vec<CounterMsg>,
    /// Counter deltas produced this round, keyed by destination shard.
    outboxes: Vec<Vec<CounterMsg>>,
    /// Signed per-pattern-node match-count changes, merged at phase end.
    match_delta: Vec<i64>,
    /// Match pairs this shard promoted, replayed into the [`DeltaTracker`]
    /// at phase end (the tracker sorts, so per-shard order is irrelevant).
    delta_inserted: Vec<(u32, u32)>,
    /// Match pairs this shard demoted, replayed like `delta_inserted`.
    delta_removed: Vec<(u32, u32)>,
    /// Stats accumulated by this shard, merged at phase end.
    stats: AffStats,
    /// True if this shard promoted at least one pair during the phase.
    promoted: bool,
}

/// Splits the slot state into disjoint per-shard views: each node range of
/// the plan owns a contiguous run of slots and of counter rows.
fn shard_states<'a>(
    matched: &'a mut [u64],
    cnt: &'a mut [u32],
    ctx: DrainCtx<'_>,
) -> Vec<ShardState<'a>> {
    let plan = ctx.plan;
    let mut states = Vec::with_capacity(plan.count);
    let mut matched_rest = matched;
    let mut cnt_rest = cnt;
    for shard in 0..plan.count {
        let slots = ctx.layout.slots_of(&plan.range(shard));
        let counters = ctx.layout.rows_of(&slots);
        let (shard_matched, matched_tail) = matched_rest.split_at_mut(slots.len());
        let (shard_cnt, cnt_tail) = cnt_rest.split_at_mut(counters.len());
        matched_rest = matched_tail;
        cnt_rest = cnt_tail;
        states.push(ShardState {
            slot_base: slots.start,
            cnt_base: counters.start,
            matched: shard_matched,
            cnt: shard_cnt,
            worklist: Vec::new(),
            inbox: Vec::new(),
            outboxes: vec![Vec::new(); plan.count],
            match_delta: vec![0; ctx.np],
            delta_inserted: Vec::new(),
            delta_removed: Vec::new(),
            stats: AffStats::default(),
            promoted: false,
        });
    }
    states
}

/// Folds one shard's accumulated deltas back into the global state,
/// replaying its match flips into the batch's [`DeltaTracker`] (no-ops when
/// the tracker is off, e.g. during a cold-start build). Returns whether the
/// shard promoted anything.
fn merge_shard(
    st: ShardState<'_>,
    match_count: &mut [usize],
    stats: &mut AffStats,
    tracker: &mut DeltaTracker,
) -> bool {
    for (u, &delta) in st.match_delta.iter().enumerate() {
        match_count[u] = (match_count[u] as i64 + delta) as usize;
    }
    for (u, v) in st.delta_inserted {
        tracker.record_inserted(u as usize, v);
    }
    for (u, v) in st.delta_removed {
        tracker.record_removed(u as usize, v);
    }
    stats.merge(st.stats);
    st.promoted
}

/// One round of a drain phase on one shard: apply the inbox (step A), then
/// evaluate the worklist (step B). Step B reads counters exactly as step A
/// left them — the deltas it produces are deferred to the next round's step A
/// — so both steps are order-independent within the round.
fn drain_round(st: &mut ShardState<'_>, kind: RoundKind, ctx: DrainCtx<'_>) {
    // The counter positions of slot `s` within this shard's rows.
    let local_row = |s: usize, cnt_base: usize| {
        let row = ctx.layout.row(s);
        row.start - cnt_base..row.end - cnt_base
    };

    // Step A: apply the counter deltas addressed to this shard. A zero
    // crossing (1→0 demoting, 0→1 promoting) seeds the owned pairs whose
    // support status may have flipped — exactly when the sequential drains
    // enqueue them. Step B only addresses nodes that keep the counter.
    let inbox = std::mem::take(&mut st.inbox);
    for (node, u2) in inbox {
        let (node, u2) = (node as usize, u2 as usize);
        let s = ctx.layout.slot(node).expect("counter messages go to slot owners");
        let m = ctx.layout.masks(s, st.matched[s - st.slot_base]);
        let need = ctx.layout.need(s);
        debug_assert!(need & (1u64 << u2) != 0, "message for a counter n{node} does not keep");
        let row = local_row(s, st.cnt_base);
        let counter = &mut st.cnt[row.start + row_offset(need, u2)];
        st.stats.counter_updates += 1;
        if kind.step(counter) {
            for u in Bits(kind.members(m) & ctx.parent_masks[u2]) {
                st.worklist.push((u as u32, node as u32));
            }
        }
    }

    // Step B: evaluate this round's seeds; demotions/promotions send one
    // counter delta through the outboxes to every graph parent that keeps a
    // counter for `u` — a candidate of a pattern parent of `u`; for the
    // other parents nothing moves.
    let worklist = std::mem::take(&mut st.worklist);
    for (u, v) in worklist {
        let (u, v) = (u as usize, v as usize);
        st.stats.nodes_visited += 1;
        let Some(s) = ctx.layout.slot(v) else { continue };
        let local = s - st.slot_base;
        let bit = 1u64 << u;
        let m = ctx.layout.masks(s, st.matched[local]);
        if kind.members(m) & bit == 0 {
            continue;
        }
        let need = ctx.layout.need(s);
        let row = &st.cnt[local_row(s, st.cnt_base)];
        let supported = row_has_support(row, need, ctx.child_mask[u]);
        match kind {
            RoundKind::Demote => {
                if supported {
                    continue;
                }
                st.matched[local] &= !bit;
                st.match_delta[u] -= 1;
                st.delta_removed.push((u as u32, v as u32));
                st.stats.matches_removed += 1;
            }
            RoundKind::Promote => {
                if !supported {
                    continue;
                }
                st.matched[local] |= bit;
                st.match_delta[u] += 1;
                st.delta_inserted.push((u as u32, v as u32));
                st.stats.matches_added += 1;
                st.promoted = true;
            }
        }
        st.stats.aux_changes += 1;
        for &p in ctx.graph.parents(NodeId::from_index(v)) {
            if ctx.layout.slot(p.index()).is_some_and(|ps| ctx.layout.need(ps) & bit != 0) {
                st.outboxes[ctx.plan.owner(p.index())].push((p.0, u as u32));
            }
        }
    }
}

/// Materialises the observable view from the match words: the empty
/// relation when any pattern node is unmatched (`P ⋬ G`), otherwise one
/// sorted list per pattern node. A free function over the individual fields
/// so [`SimulationIndex::finish_apply`] can call it while the delta tracker
/// is mutably borrowed.
fn rebuild_relation_from(
    layout: &SlotLayout,
    matched: &[u64],
    match_count: &[usize],
    np: usize,
) -> MatchRelation {
    if match_count.contains(&0) {
        return MatchRelation::empty(np);
    }
    let mut lists: Vec<Vec<NodeId>> = match_count.iter().map(|&c| Vec::with_capacity(c)).collect();
    // Ascending slots = ascending v ⇒ every per-pattern-node list is sorted.
    for (&m, v) in matched.iter().zip(layout.nodes()) {
        for u in Bits(m) {
            lists[u].push(NodeId::from_index(v));
        }
    }
    MatchRelation::from_lists(lists)
}

/// Enumerates the raw mask-level match pairs `(u, v)` regardless of totality
/// — the collapse case of [`finalize_delta`] reconstructs the pre-batch view
/// from these by undoing the batch's recorded churn.
fn raw_mask_pairs(layout: &SlotLayout, matched: &[u64]) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for (&m, v) in matched.iter().zip(layout.nodes()) {
        for u in Bits(m) {
            pairs.push((u as u32, v as u32));
        }
    }
    pairs
}

/// Runs rounds until every worklist and inbox is empty, fanning a round out
/// to scoped threads only when the pending work amortises the spawns (the
/// execution strategy never changes the computation, only where it runs).
fn drive_rounds(states: &mut [ShardState<'_>], kind: RoundKind, ctx: DrainCtx<'_>) {
    loop {
        let pending: usize = states.iter().map(|st| st.worklist.len() + st.inbox.len()).sum();
        if pending == 0 {
            break;
        }
        if states.len() > 1 && pending >= PARALLEL_WORK_THRESHOLD {
            std::thread::scope(|scope| {
                // Idle shards (no seeds, no inbox) are no-ops by construction
                // — don't pay a spawn for them.
                for st in states.iter_mut() {
                    if st.worklist.is_empty() && st.inbox.is_empty() {
                        continue;
                    }
                    scope.spawn(move || drain_round(st, kind, ctx));
                }
            });
        } else {
            for st in states.iter_mut() {
                drain_round(st, kind, ctx);
            }
        }
        // Merge step: move every outbox into its destination inbox, producers
        // in ascending shard order. (The order is irrelevant to the outcome —
        // step A is commutative — but keeping it fixed makes replays
        // byte-for-byte reproducible.)
        for i in 0..states.len() {
            for j in 0..states.len() {
                let msgs = std::mem::take(&mut states[i].outboxes[j]);
                if !msgs.is_empty() {
                    states[j].inbox.extend(msgs);
                }
            }
        }
    }
}

/// The recovery-orchestration view of the engine; every method delegates to
/// the inherent API of the same name (`rebuild_with_shards` to
/// [`SimulationIndex::build_with_shards`]).
impl IncrementalEngine for SimulationIndex {
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
        SimulationIndex::try_apply_batch_with_shards(self, graph, batch, shards)
    }

    fn try_matches(&self) -> Result<MatchRelation, ApplyError> {
        SimulationIndex::try_matches(self)
    }

    fn poisoned(&self) -> bool {
        SimulationIndex::poisoned(self)
    }

    fn memory_bytes(&self) -> usize {
        SimulationIndex::memory_bytes(self)
    }

    /// Plain simulation needs no graph-wide auxiliary structure: candidate
    /// membership is re-derived per pattern and the masks carry everything
    /// else, so the shared state is the unit type.
    type Shared = ();

    fn shared_build(_graph: &DataGraph, _shards: usize) -> Self::Shared {}

    fn shared_memory_bytes(_shared: &()) -> usize {
        0
    }

    fn shared_stage() -> &'static str {
        PipelineStage::Mutate.label()
    }

    fn shared_mutate(
        _shared: &mut (),
        graph: &mut DataGraph,
        effective: &[Update],
        shards: usize,
    ) -> SharedMutation {
        fail::fire(fail::SIM_MUTATE);
        // The whole net batch reaches the graph before any matching work, so
        // every support decision sees the final graph. Out-sides are sharded
        // by source, in-sides by target.
        let plan = ShardPlan::new(graph.node_count(), shards);
        graph.apply_reduced_batch_sharded(effective, plan);
        SharedMutation { affected: None, updates_processed: effective.len(), affected_entries: 0 }
    }

    /// Keeps the interned candidate lists (`Arc` clones, not copies): the
    /// index answers `match_set`/`candidate_set` from them.
    fn build_in_service(
        pattern: &Pattern,
        graph: &DataGraph,
        _shared: &mut (),
        cand_lists: &[Arc<Vec<NodeId>>],
        shards: usize,
    ) -> Result<Self, BuildError> {
        check_buildable(pattern)?;
        Ok(Self::build_from_candidates(pattern, graph, cand_lists.to_vec(), shards))
    }

    fn try_apply_shared(
        &mut self,
        graph: &DataGraph,
        _shared: &mut (),
        batch: &SharedBatch<'_>,
        _mutation: &SharedMutation,
        shards: usize,
    ) -> Result<ApplyOutcome, ApplyError> {
        if self.poisoned {
            return Err(ApplyError::Poisoned);
        }
        let mut stage = PipelineStage::Prepare;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.apply_shared_stages(graph, batch, shards, &mut stage)
        }));
        outcome.map_err(|payload| {
            let message = panic_message(payload.as_ref());
            ApplyError::StagePanicked(self.contain_panic(None, stage, message))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::match_simulation;
    use igpm_generator::{
        degree_biased_deletions, degree_biased_insertions, generate_pattern, mixed_batch,
        synthetic_graph, PatternGenConfig, PatternShape, SyntheticConfig, UpdateGenConfig,
    };
    use igpm_graph::{Attributes, CompareOp, EdgeBound, Predicate};

    /// The FriendFeed graph of Fig. 4 (base edges only) plus handles on the
    /// nodes used by Examples 4.1–5.5.
    struct FriendFeed {
        graph: DataGraph,
        ann: NodeId,
        pat: NodeId,
        #[allow(dead_code)]
        dan: NodeId,
        bill: NodeId,
        mat: NodeId,
        don: NodeId,
        tom: NodeId,
        ross: NodeId,
    }

    fn friendfeed() -> FriendFeed {
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
        FriendFeed { graph: g, ann, pat, dan, bill, mat, don, tom, ross }
    }

    /// Normal pattern P3' of Fig. 4: CTO -> DB, DB -> CTO, DB -> Bio, CTO -> Bio.
    fn pattern_p3() -> Pattern {
        let mut p = Pattern::new();
        let cto = p.add_node(Predicate::label("CTO"));
        let db = p.add_node(Predicate::label("DB"));
        let bio = p.add_node(Predicate::label("Bio"));
        p.add_normal_edge(cto, db);
        p.add_normal_edge(db, cto);
        p.add_normal_edge(db, bio);
        p.add_normal_edge(cto, bio);
        p
    }

    fn assert_consistent(
        index: &SimulationIndex,
        pattern: &Pattern,
        graph: &DataGraph,
        context: &str,
    ) {
        let expected = match_simulation(pattern, graph);
        assert_eq!(index.matches(), expected, "{context}: incremental result diverged from batch");
        index.assert_counters_consistent(graph);
    }

    #[test]
    fn example_5_2_unit_deletion() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        assert!(index.is_match());
        assert!(index.match_set(PatternNodeId(1)).contains(&ff.pat));

        // Deleting the ss edge (Pat, Bill) invalidates Pat as a DB match
        // (Example 5.2 / 5.3).
        let stats = index.delete_edge(&mut ff.graph, ff.pat, ff.bill);
        assert_eq!(stats.stats.matches_removed, 1);
        assert!(stats.stats.counter_updates >= 1, "deletions maintain the support counters");
        assert!(!index.match_set(PatternNodeId(1)).contains(&ff.pat));
        assert!(index.candidate_set(PatternNodeId(1)).contains(&ff.pat));
        assert!(!index.contains(PatternNodeId(1), ff.pat));
        assert_consistent(&index, &p, &ff.graph, "after deleting (Pat, Bill)");
    }

    #[test]
    fn example_5_4_unit_insertion_restores_the_match() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        index.delete_edge(&mut ff.graph, ff.pat, ff.bill);
        assert!(!index.match_set(PatternNodeId(1)).contains(&ff.pat));

        // Inserting the cs edge (Pat, Mat) makes Pat a DB match again
        // (Example 5.4).
        let stats = index.insert_edge(&mut ff.graph, ff.pat, ff.mat);
        assert!(stats.stats.matches_added >= 1);
        assert!(index.match_set(PatternNodeId(1)).contains(&ff.pat));
        assert_consistent(&index, &p, &ff.graph, "after inserting (Pat, Mat)");
    }

    #[test]
    fn example_4_1_insertions_add_don_as_cto_match() {
        // Inserting e2 = (Don, Pat), e3 = (Don, Tom), e4 = (Pat, Don) turns Don
        // into a CTO match (it now has DB and Bio children and the DB child
        // reaches a CTO), cf. Example 5.5 / Fig. 7.
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        assert!(!index.match_set(PatternNodeId(0)).contains(&ff.don));

        let mut batch = BatchUpdate::new();
        batch.insert(ff.don, ff.pat);
        batch.insert(ff.don, ff.tom);
        batch.insert(ff.pat, ff.don);
        let stats = index.apply_batch(&mut ff.graph, &batch);
        assert!(stats.stats.matches_added >= 1);
        assert!(index.match_set(PatternNodeId(0)).contains(&ff.don));
        assert_consistent(&index, &p, &ff.graph, "after the Don insertions");
    }

    #[test]
    fn irrelevant_updates_are_reduced_away() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        // (Ross, Tom) involves a Med node that matches nothing: deleting it is
        // irrelevant; inserting (Tom, Ross) likewise.
        let mut batch = BatchUpdate::new();
        batch.delete(ff.ross, ff.tom);
        batch.insert(ff.tom, ff.ross);
        let stats = index.apply_batch(&mut ff.graph, &batch);
        assert_eq!(stats.stats.delta_g, 2);
        assert_eq!(stats.stats.reduced_delta_g, 0, "minDelta removes both updates");
        assert_eq!(stats.stats.delta_m(), 0);
        assert_consistent(&index, &p, &ff.graph, "after irrelevant updates");
    }

    #[test]
    fn cancelling_updates_have_no_effect() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        let before = index.matches();
        let mut batch = BatchUpdate::new();
        batch.delete(ff.pat, ff.bill);
        batch.insert(ff.pat, ff.bill); // cancels the deletion
        let stats = index.apply_batch(&mut ff.graph, &batch);
        assert_eq!(stats.stats.reduced_delta_g, 0);
        assert_eq!(index.matches(), before);
        assert_consistent(&index, &p, &ff.graph, "after cancelling updates");
    }

    #[test]
    fn unboundedness_gadget_insertions() {
        // The Theorem 5.1(1) gadget: a cyclic pattern over two chains; the
        // match stays empty until both bridging edges are present.
        let mut p = Pattern::new();
        let u1 = p.add_labeled_node("a");
        let u2 = p.add_labeled_node("a");
        p.add_normal_edge(u1, u2);
        p.add_normal_edge(u2, u1);

        let n = 8;
        let mut g = DataGraph::new();
        let nodes: Vec<NodeId> = (0..2 * n).map(|_| g.add_labeled_node("a")).collect();
        for i in 0..n - 1 {
            g.add_edge(nodes[i], nodes[i + 1]);
            g.add_edge(nodes[n + i], nodes[n + i + 1]);
        }
        let mut index = SimulationIndex::build(&p, &g);
        assert!(!index.is_match());

        let stats = index.insert_edge(&mut g, nodes[n - 1], nodes[n]);
        assert!(!index.is_match(), "one bridge is not enough");
        assert_eq!(stats.stats.matches_added, 0);
        assert_consistent(&index, &p, &g, "after first bridge");

        let stats = index.insert_edge(&mut g, nodes[2 * n - 1], nodes[0]);
        assert!(index.is_match(), "closing the cycle matches every node");
        assert_eq!(stats.stats.matches_added, 4 * n, "both pattern nodes match all 2n nodes");
        assert_consistent(&index, &p, &g, "after closing the cycle");
    }

    #[test]
    fn deleting_and_reinserting_everything_round_trips() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        let original = index.matches();
        let edges: Vec<(NodeId, NodeId)> = ff.graph.edges().collect();
        for &(a, b) in &edges {
            index.delete_edge(&mut ff.graph, a, b);
        }
        assert!(!index.is_match());
        assert_consistent(&index, &p, &ff.graph, "after deleting every edge");
        for &(a, b) in &edges {
            index.insert_edge(&mut ff.graph, a, b);
        }
        assert_eq!(index.matches(), original);
        assert_consistent(&index, &p, &ff.graph, "after re-inserting every edge");
    }

    #[test]
    fn random_unit_updates_agree_with_batch_general_patterns() {
        for seed in 0..3u64 {
            let mut graph = synthetic_graph(&SyntheticConfig::new(150, 450, 4, seed));
            let pattern = generate_pattern(
                &graph,
                &PatternGenConfig::normal(4, 6, 1, seed + 10).with_shape(PatternShape::General),
            );
            let mut index = SimulationIndex::build(&pattern, &graph);
            let ins = degree_biased_insertions(&graph, UpdateGenConfig::new(30, seed + 20));
            let del = degree_biased_deletions(&graph, UpdateGenConfig::new(30, seed + 30));
            for update in ins.iter().chain(del.iter()) {
                let (a, b) = update.endpoints();
                if update.is_insert() {
                    index.insert_edge(&mut graph, a, b);
                } else {
                    index.delete_edge(&mut graph, a, b);
                }
            }
            assert_consistent(&index, &pattern, &graph, &format!("seed {seed}: unit updates"));
        }
    }

    #[test]
    fn random_batch_updates_agree_with_batch_recomputation() {
        for seed in 0..3u64 {
            let mut graph = synthetic_graph(&SyntheticConfig::new(200, 700, 4, seed + 100));
            let pattern = generate_pattern(
                &graph,
                &PatternGenConfig::normal(5, 8, 1, seed + 110).with_shape(PatternShape::General),
            );
            let mut index = SimulationIndex::build(&pattern, &graph);
            for round in 0..3 {
                let batch = mixed_batch(&graph, 40, 40, seed * 17 + round);
                index.apply_batch(&mut graph, &batch);
                assert_consistent(
                    &index,
                    &pattern,
                    &graph,
                    &format!("seed {seed}, round {round}: batch updates"),
                );
            }
        }
    }

    #[test]
    fn dag_pattern_insertions_are_handled_without_prop_cc() {
        for seed in 0..3u64 {
            let mut graph = synthetic_graph(&SyntheticConfig::new(150, 500, 4, seed + 200));
            let pattern = generate_pattern(
                &graph,
                &PatternGenConfig::normal(5, 7, 1, seed + 210).with_shape(PatternShape::Dag),
            );
            assert!(pattern.is_dag());
            let mut index = SimulationIndex::build(&pattern, &graph);
            let ins = degree_biased_insertions(&graph, UpdateGenConfig::new(50, seed + 220));
            for update in ins.iter() {
                let (a, b) = update.endpoints();
                index.insert_edge(&mut graph, a, b);
            }
            assert_consistent(&index, &pattern, &graph, &format!("seed {seed}: DAG insertions"));
        }
    }

    #[test]
    fn build_rejects_bounded_patterns() {
        let ff = friendfeed();
        let mut p = Pattern::new();
        let a = p.add_node(Predicate::label("CTO"));
        let b = p.add_node(Predicate::label("Bio"));
        p.add_edge(a, b, EdgeBound::Hops(2));
        let result = std::panic::catch_unwind(|| SimulationIndex::build(&p, &ff.graph));
        assert!(result.is_err());
    }

    #[test]
    fn build_rejects_patterns_wider_than_the_masks() {
        let mut g = DataGraph::new();
        g.add_labeled_node("a");
        let mut p = Pattern::new();
        for _ in 0..=MAX_PATTERN_NODES {
            p.add_labeled_node("a");
        }
        let result = std::panic::catch_unwind(|| SimulationIndex::build(&p, &g));
        assert!(result.is_err(), "65-node pattern must be rejected");
    }

    #[test]
    fn result_graph_tracks_current_matches() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        let gr_before = index.result_graph(&ff.graph);
        assert!(gr_before.has_edge(ff.pat, ff.bill));
        index.delete_edge(&mut ff.graph, ff.pat, ff.bill);
        let gr_after = index.result_graph(&ff.graph);
        assert!(!gr_after.has_edge(ff.pat, ff.bill));
        let delta = gr_before.diff(&gr_after);
        assert!(delta.removed_nodes.contains(&ff.pat));
    }

    #[test]
    fn matches_view_is_cached_and_invalidated_on_mutation() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        let before = index.matches();
        // Two consecutive views observe the same cached relation.
        assert_eq!(*index.matches_view(), before);
        assert_eq!(index.matches(), before);
        // A mutation invalidates the cache; the next view sees the change.
        index.delete_edge(&mut ff.graph, ff.pat, ff.bill);
        let after = index.matches();
        assert_ne!(before, after);
        assert_eq!(*index.matches_view(), after);
        assert_eq!(after, match_simulation(&p, &ff.graph));
    }

    #[test]
    fn nodes_added_after_build_join_the_candidate_pipeline() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);

        // A new DB person arrives and links to Ann (CTO) and Bill (Bio):
        // they must become a DB match exactly like a from-scratch run says.
        let eve = ff
            .graph
            .add_node(Attributes::new().with("name", "Eve").with("job", "DB").with("label", "DB"));
        index.insert_edge(&mut ff.graph, eve, ff.ann);
        assert_consistent(&index, &p, &ff.graph, "after (Eve, Ann)");
        index.insert_edge(&mut ff.graph, eve, ff.bill);
        assert!(index.contains(PatternNodeId(1), eve), "Eve now matches DB");
        assert_consistent(&index, &p, &ff.graph, "after (Eve, Bill)");

        // A new Bio person is isolated: Bio is childless in P3', so they match
        // immediately once an (irrelevant) update lets the index observe them.
        let zed = ff.graph.add_node(
            Attributes::new().with("name", "Zed").with("job", "Bio").with("label", "Bio"),
        );
        index.insert_edge(&mut ff.graph, ff.ross, zed);
        assert!(index.contains(PatternNodeId(2), zed), "childless pattern node matches");
        assert_consistent(&index, &p, &ff.graph, "after adding Zed");
    }

    #[test]
    fn first_edge_of_a_post_build_node_is_classified_live() {
        // Regression: insert_edge must grow the membership masks *before*
        // classifying the update, or the first edge out of a node added after
        // build is silently dropped as irrelevant.
        let mut g = DataGraph::new();
        let b = g.add_labeled_node("B");
        let mut p = Pattern::new();
        let ua = p.add_labeled_node("A");
        let ub = p.add_labeled_node("B");
        p.add_normal_edge(ua, ub);
        let mut index = SimulationIndex::build(&p, &g);
        assert!(!index.is_match());

        let a = g.add_labeled_node("A");
        let stats = index.insert_edge(&mut g, a, b);
        assert_eq!(stats.stats.reduced_delta_g, 1, "first edge of a new node is a cs edge");
        assert!(index.contains(ua, a), "new node promoted through its first edge");
        assert_consistent(&index, &p, &g, "after first edge of post-build node");
    }

    #[test]
    fn batch_over_post_build_nodes_runs_prop_cc() {
        // Regression: apply_batch must classify against grown masks, or a
        // cyclic match formed entirely by post-build nodes never triggers
        // propCC.
        let mut g = DataGraph::new();
        g.add_labeled_node("C");
        let mut p = Pattern::new();
        let ua = p.add_labeled_node("A");
        let ub = p.add_labeled_node("B");
        p.add_normal_edge(ua, ub);
        p.add_normal_edge(ub, ua);
        let mut index = SimulationIndex::build(&p, &g);
        assert!(!index.is_match());

        let x = g.add_labeled_node("A");
        let y = g.add_labeled_node("B");
        let mut batch = BatchUpdate::new();
        batch.insert(x, y);
        batch.insert(y, x);
        index.apply_batch(&mut g, &batch);
        assert!(index.contains(ua, x) && index.contains(ub, y), "cycle of new nodes matches");
        assert_consistent(&index, &p, &g, "after batch over post-build nodes");
    }

    #[test]
    fn cs_insertion_outside_the_scc_unblocks_scc_candidates() {
        // Regression (found by the cross-engine conformance suite): pattern
        // A ⇄ B with a third edge A → C; graph x(a) ⇄ y(b) and an isolated
        // z(c). Before the update nothing matches — x lacks a C child, which
        // eliminates the whole cycle. Inserting (x, z) is a cs edge for the
        // *non-SCC* pattern edge (A, C); it must still wake the joint SCC
        // evaluation, because the counter rise removes x's last non-cyclic
        // blocker. The old trigger only looked at SCC-internal pattern edges
        // and silently left the match empty.
        let build = || {
            let mut p = Pattern::new();
            let a = p.add_labeled_node("a");
            let b = p.add_labeled_node("b");
            let c = p.add_labeled_node("c");
            p.add_normal_edge(a, b);
            p.add_normal_edge(b, a);
            p.add_normal_edge(a, c);
            let mut g = DataGraph::new();
            let x = g.add_labeled_node("a");
            let y = g.add_labeled_node("b");
            let z = g.add_labeled_node("c");
            g.add_edge(x, y);
            g.add_edge(y, x);
            (p, g, x, z)
        };

        // Unit path.
        let (p, mut g, x, z) = build();
        let mut index = SimulationIndex::build(&p, &g);
        assert!(!index.is_match());
        let stats = index.insert_edge(&mut g, x, z);
        assert!(index.is_match(), "cs insertion outside the SCC must trigger propCC");
        assert_eq!(stats.stats.matches_added, 2, "x and y promoted jointly");
        assert_consistent(&index, &p, &g, "unit path after (x, z)");

        // Batch path (same trigger, sharded drains).
        let (p, mut g, x, z) = build();
        let mut index = SimulationIndex::build(&p, &g);
        let mut batch = BatchUpdate::new();
        batch.insert(x, z);
        index.apply_batch(&mut g, &batch);
        assert!(index.is_match(), "batch path must agree");
        assert_consistent(&index, &p, &g, "batch path after (x, z)");
    }

    #[test]
    fn counter_updates_are_reported() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        let batch = {
            let mut b = BatchUpdate::new();
            b.delete(ff.pat, ff.bill);
            b.insert(ff.pat, ff.mat);
            b
        };
        let stats = index.apply_batch(&mut ff.graph, &batch);
        assert!(stats.stats.counter_updates > 0);
        assert!(stats.to_string().contains("counters="));
        assert_consistent(&index, &p, &ff.graph, "after counter-reporting batch");
    }

    #[test]
    fn try_build_reports_typed_errors() {
        let ff = friendfeed();
        // A bounded (non-normal) pattern is rejected.
        let mut bounded = Pattern::new();
        let a = bounded.add_labeled_node("CTO");
        let b = bounded.add_labeled_node("DB");
        bounded.add_edge(a, b, EdgeBound::Hops(2));
        assert_eq!(
            SimulationIndex::try_build(&bounded, &ff.graph).err(),
            Some(crate::incremental::BuildError::NotNormal)
        );
        // An over-wide pattern is rejected with its arity.
        let mut wide = Pattern::new();
        let mut prev = wide.add_labeled_node("CTO");
        for _ in 0..MAX_PATTERN_NODES {
            let next = wide.add_labeled_node("CTO");
            wide.add_normal_edge(prev, next);
            prev = next;
        }
        assert_eq!(
            SimulationIndex::try_build(&wide, &ff.graph).err(),
            Some(crate::incremental::BuildError::ArityTooLarge { arity: MAX_PATTERN_NODES + 1 })
        );
        // A well-formed pattern builds the same index as the panicking name.
        let p = pattern_p3();
        let built = SimulationIndex::try_build(&p, &ff.graph).expect("normal pattern");
        assert_eq!(built.aux_snapshot(), SimulationIndex::build(&p, &ff.graph).aux_snapshot());
    }

    #[test]
    fn redundant_unit_updates_are_exact_no_ops() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        let aux = index.aux_snapshot();
        let matches = index.matches();
        let graph_before = ff.graph.clone();

        // Duplicate insert: (Ann, Pat) already exists.
        let stats = index.insert_edge(&mut ff.graph, ff.ann, ff.pat);
        assert_eq!(stats.stats.reduced_delta_g, 0, "a present edge is never relevant");
        assert_eq!(stats.stats.delta_m(), 0);
        assert_eq!(stats.stats.aux_changes, 0);
        assert_eq!(stats.stats.counter_updates, 0);

        // Absent delete: (Don, Tom) does not exist.
        let stats = index.delete_edge(&mut ff.graph, ff.don, ff.tom);
        assert_eq!(stats.stats.reduced_delta_g, 0);
        assert_eq!(stats.stats.delta_m(), 0);
        assert_eq!(stats.stats.aux_changes, 0);
        assert_eq!(stats.stats.counter_updates, 0);

        assert_eq!(index.aux_snapshot(), aux, "masks/counters untouched by no-ops");
        assert_eq!(index.matches(), matches, "match relation untouched by no-ops");
        assert_eq!(ff.graph, graph_before, "graph untouched by no-ops");
        assert_consistent(&index, &p, &ff.graph, "after unit no-ops");
    }

    #[test]
    fn strict_apply_rejects_invalid_batches_whole() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        let aux = index.aux_snapshot();
        let graph_before = ff.graph.clone();

        // A batch mixing a valid insertion with a duplicate insert, an absent
        // delete and an out-of-range endpoint: rejected whole, nothing moves.
        let oob = NodeId::from_index(ff.graph.node_count() + 7);
        let mut batch = BatchUpdate::new();
        batch.insert(ff.don, ff.pat); // valid
        batch.insert(ff.ann, ff.pat); // duplicate
        batch.delete(ff.don, ff.tom); // absent
        batch.insert(ff.ann, oob); // out of range
        let err = index.try_apply_batch(&mut ff.graph, &batch).unwrap_err();
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
        assert_eq!(ff.graph, graph_before, "rejected batch must touch nothing");

        // The index is still fully usable: the valid part applies cleanly.
        let mut valid = BatchUpdate::new();
        valid.insert(ff.don, ff.pat);
        index.try_apply_batch(&mut ff.graph, &valid).expect("valid batch");
        assert_consistent(&index, &p, &ff.graph, "after post-rejection apply");
    }

    #[test]
    fn lenient_apply_skips_invalid_updates_and_reports_them() {
        let ff = friendfeed();
        let p = pattern_p3();
        let oob = NodeId::from_index(ff.graph.node_count() + 2);

        // Lenient instance: valid updates interleaved with one of each
        // invalid kind.
        let mut lenient_graph = ff.graph.clone();
        let mut lenient = SimulationIndex::build(&p, &lenient_graph);
        let mut batch = BatchUpdate::new();
        batch.insert(ff.don, ff.pat); // valid
        batch.insert(oob, ff.pat); // out of range
        batch.delete(ff.don, ff.tom); // absent
        batch.insert(ff.don, ff.tom); // valid
        batch.insert(ff.don, ff.tom); // duplicate (of the one just inserted)
        batch.insert(ff.pat, ff.don); // valid
        let report = lenient.apply_batch_lenient(&mut lenient_graph, &batch).expect("lenient");
        let reasons: Vec<_> = report.rejected.iter().map(|r| (r.position, r.reason)).collect();
        assert_eq!(
            reasons,
            vec![
                (1, igpm_graph::RejectReason::NodeOutOfRange),
                (2, igpm_graph::RejectReason::AbsentDelete),
                (4, igpm_graph::RejectReason::DuplicateInsert),
            ]
        );

        // Control instance: only the valid updates.
        let mut control_graph = ff.graph.clone();
        let mut control = SimulationIndex::build(&p, &control_graph);
        let mut valid = BatchUpdate::new();
        valid.insert(ff.don, ff.pat);
        valid.insert(ff.don, ff.tom);
        valid.insert(ff.pat, ff.don);
        let control_stats = control.apply_batch(&mut control_graph, &valid);

        assert_eq!(lenient_graph, control_graph, "lenient graph = valid-only graph");
        assert_eq!(lenient.aux_snapshot(), control.aux_snapshot(), "identical auxiliary state");
        assert_eq!(lenient.matches(), control.matches());
        // The stats agree on everything except the raw |ΔG| (the lenient
        // batch still counts its redundant — but in-range — updates).
        assert_eq!(report.stats.reduced_delta_g, control_stats.stats.reduced_delta_g);
        assert_eq!(report.stats.matches_added, control_stats.stats.matches_added);
        assert_eq!(report.stats.matches_removed, control_stats.stats.matches_removed);
        assert_consistent(&lenient, &p, &lenient_graph, "after lenient apply");
    }

    #[test]
    fn memory_grows_with_candidates_not_with_nodes() {
        // A selective pattern (two of eight labels) over a 2k-node graph,
        // then over the same graph grown 4× with nodes of a label no
        // pattern node accepts: every added node is a non-candidate.
        let graph = synthetic_graph(&SyntheticConfig::new(2000, 8000, 8, 0x3E3));
        let mut p = Pattern::new();
        let a = p.add_labeled_node("l0");
        let b = p.add_labeled_node("l1");
        p.add_normal_edge(a, b);
        p.add_normal_edge(b, a);
        let mut grown = graph.clone();
        let added = 3 * graph.node_count();
        for _ in 0..added {
            grown.add_labeled_node("unused");
        }

        let small = SimulationIndex::build_with_shards(&p, &graph, 1);
        let large = SimulationIndex::build_with_shards(&p, &grown, 1);
        assert_eq!(large.matches(), small.matches());
        let (small_bytes, large_bytes) = (small.memory_bytes(), large.memory_bytes());
        assert!(
            large_bytes <= small_bytes + added,
            "{added} non-candidate nodes grew the index from {small_bytes} to {large_bytes} \
             bytes; at most one byte per node is allowed"
        );
        // The dense layout would have grown by a mask pair and a counter row
        // per node; the candidate-indexed one stays well below both.
        let dense_growth = added * (16 + 4 * p.node_count());
        assert!(large_bytes - small_bytes < dense_growth / 100);

        // Growing a built index by the same nodes (observed at the next
        // update) obeys the same bound, slack from vector growth included.
        let mut index = SimulationIndex::build_with_shards(&p, &graph, 1);
        let mut g = graph.clone();
        for _ in 0..added {
            g.add_labeled_node("unused");
        }
        index.apply_batch_with_shards(&mut g, &BatchUpdate::new(), 1);
        assert!(index.memory_bytes() <= small_bytes + added);
        assert_eq!(index.aux_snapshot(), large.aux_snapshot());
    }

    /// `a` accepts `l0`, `b` accepts `l1`, `c` accepts `uid ≥ uid_floor`:
    /// `c` overlaps both others, so a node's candidacy is one of up to five
    /// classes ({a}, {b}, {c}, {a, c}, {b, c}).
    fn overlapping_pattern(uid_floor: i64) -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_labeled_node("l0");
        let b = p.add_labeled_node("l1");
        let c = p.add_node(Predicate::any().and("uid", CompareOp::Ge, uid_floor));
        p.add_normal_edge(a, b);
        p.add_normal_edge(b, a);
        p.add_normal_edge(a, c);
        p.add_normal_edge(c, b);
        p
    }

    /// `memory_bytes()` as the module docs itemise it: 16 bytes per slot,
    /// 4 per counter, the rank bitvector, the class table, the
    /// per-pattern-node arrays and the index's own candidate lists.
    fn itemised_bytes(index: &SimulationIndex) -> usize {
        let layout = &index.layout;
        let bitvector = layout.words.len() * size_of::<u64>() + layout.ranks.len() * 4;
        let per_pattern_node =
            index.np * 4 * size_of::<u64>() + index.np * size_of::<Arc<Vec<NodeId>>>();
        let lists: usize =
            index.cand_lists.iter().map(|list| list.capacity() * size_of::<NodeId>()).sum();
        // `rows` holds one more offset than there are slots.
        16 * layout.len
            + 4
            + 4 * index.cnt.len()
            + bitvector
            + layout.class_table_bytes()
            + per_pattern_node
            + lists
    }

    #[test]
    fn memory_is_sixteen_bytes_per_slot_plus_counters_and_class_table() {
        let graph = synthetic_graph(&SyntheticConfig::new(2000, 8000, 8, 0x16));
        let p = overlapping_pattern(1000);
        let index = SimulationIndex::build_with_shards(&p, &graph, 1);
        let layout = &index.layout;
        assert_eq!(layout.classes.len(), 5, "{{a}}, {{b}}, {{c}}, {{a, c}}, {{b, c}}");
        assert!(layout.len > 1000, "half the nodes are candidates of c");
        for (s, v) in layout.nodes().enumerate() {
            let class = layout.classes[layout.class[s] as usize];
            assert_eq!(layout.class_of[&class.cand], layout.class[s]);
            assert_eq!(class.need, row_mask(&index.child_mask, class.cand));
            let attrs = graph.attrs(NodeId::from_index(v));
            let cand = p.nodes().filter(|&u| p.predicate(u).satisfied_by(attrs));
            assert_eq!(class.cand, cand.fold(0, |m, u| m | 1 << u.index()), "class of n{v}");
        }
        // A build is exactly sized: no slack anywhere.
        assert_eq!(index.memory_bytes(), itemised_bytes(&index));
        assert!(layout.class_table_bytes() < 1024, "a handful of classes");

        // Growth by non-candidates keeps the slots and classes and costs at
        // most one byte per added node, the slack of the bitvector's growth
        // included (as in `memory_grows_with_candidates_not_with_nodes`).
        let mut grown = graph.clone();
        let added = 3 * graph.node_count();
        for _ in 0..added {
            grown.add_node(Attributes::labeled("unused").with("uid", -1i64));
        }
        let mut index = SimulationIndex::build_with_shards(&p, &graph, 1);
        index.apply_batch_with_shards(&mut grown, &BatchUpdate::new(), 1);
        assert!(index.memory_bytes() <= itemised_bytes(&index) + added);
        assert_eq!(
            itemised_bytes(&index),
            itemised_bytes(&SimulationIndex::build_with_shards(&p, &grown, 1))
        );
    }

    #[test]
    fn nodes_added_after_build_can_open_new_classes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // No build-time node has `uid ≥ n`, so `c` has no candidate yet and
        // only {a} and {b} exist; the added nodes open {c}, {a, c} and
        // {b, c}, and their edges land in the same batch.
        let graph = synthetic_graph(&SyntheticConfig::new(1500, 6000, 4, 0x17));
        let n = graph.node_count();
        let p = overlapping_pattern(n as i64);
        let mut grown = graph.clone();
        let mut rng = StdRng::seed_from_u64(0x18);
        let mut batch = BatchUpdate::new();
        for i in 0..60 {
            let v = grown
                .add_node(Attributes::labeled(format!("l{}", i % 3)).with("uid", (n + i) as i64));
            for _ in 0..3 {
                batch.insert(v, NodeId(rng.gen_range(0..n as u32)));
                batch.insert(NodeId(rng.gen_range(0..n as u32)), v);
            }
        }
        for (a, b) in graph.edges().take(200) {
            batch.delete(a, b);
        }
        let mut final_graph = grown.clone();
        batch.apply(&mut final_graph);
        let reference = SimulationIndex::build_with_shards(&p, &final_graph, 1);
        for shards in [1, 4, 8] {
            let mut g = grown.clone();
            let mut index = SimulationIndex::build_with_shards(&p, &graph, shards);
            assert_eq!(index.layout.classes.len(), 2, "shards {shards}: only {{a}} and {{b}}");
            index.apply_batch_with_shards(&mut g, &batch, shards);
            assert_eq!(g, final_graph);
            assert_eq!(index.layout.classes.len(), 5, "shards {shards}: three new classes");
            assert_eq!(index.aux_snapshot(), reference.aux_snapshot(), "shards {shards}");
            let fresh = SimulationIndex::build_with_shards(&p, &g, shards);
            assert_eq!(fresh.aux_snapshot(), reference.aux_snapshot(), "shards {shards}");
            assert_eq!(index.matches(), reference.matches(), "shards {shards}");
            assert_consistent(&index, &p, &g, &format!("shards {shards}"));
        }
    }

    #[test]
    fn counters_exist_only_under_candidate_parents() {
        // P3' (CTO → DB, DB → CTO, DB → Bio, CTO → Bio): a CTO candidate
        // keeps counters for DB and Bio, a DB candidate for CTO and Bio, and
        // a Bio candidate (childless) none; Ross (Med) owns no slot at all.
        let ff = friendfeed();
        let index = SimulationIndex::build(&pattern_p3(), &ff.graph);
        let rows: Vec<usize> = (0..index.layout.len).map(|s| index.layout.row(s).len()).collect();
        let labels: Vec<&str> = index
            .layout
            .nodes()
            .map(|v| ff.graph.attrs(NodeId::from_index(v)).label().expect("labelled"))
            .collect();
        let expected: Vec<usize> = labels.iter().map(|&l| if l == "Bio" { 0 } else { 2 }).collect();
        assert_eq!(rows, expected);
        assert!(!labels.contains(&"Med"));
        assert_eq!(index.layout.slot(ff.ross.index()), None);
        assert_eq!(index.cnt.len(), 2 * 4, "two CTO and two DB candidates, two counters each");
    }

    #[test]
    fn redundant_batches_leave_cached_views_and_stats_untouched() {
        let mut ff = friendfeed();
        let p = pattern_p3();
        let mut index = SimulationIndex::build(&p, &ff.graph);
        let before = index.matches();
        let aux = index.aux_snapshot();

        // Entirely redundant (but in-range) batch through the lenient path:
        // everything is neutralised by the net-effect reduction.
        let mut batch = BatchUpdate::new();
        batch.insert(ff.ann, ff.pat); // duplicate insert
        batch.delete(ff.don, ff.tom); // absent delete
        let report = index.apply_batch_lenient(&mut ff.graph, &batch).expect("lenient");
        assert_eq!(report.stats.reduced_delta_g, 0);
        assert_eq!(report.stats.delta_m(), 0);
        assert_eq!(report.stats.aux_changes, 0);
        assert_eq!(report.rejected.len(), 2, "both no-ops reported");
        assert_eq!(index.aux_snapshot(), aux);
        assert_eq!(index.matches(), before);
        assert_consistent(&index, &p, &ff.graph, "after redundant batch");
    }
}

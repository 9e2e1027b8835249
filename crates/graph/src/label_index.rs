//! Inverted label → nodes index.
//!
//! The candidate sets `candt(u) ∪ match(u)` that seed every matching
//! algorithm are "all data nodes satisfying the predicate of `u`". The
//! predicates produced by the pattern generator (and by every example in the
//! paper) start with a label-equality atom, so enumerating candidates by
//! scanning all of `V` once per pattern node — `O(|V_p| · |V|)` predicate
//! evaluations — wastes almost all of its work. This index buckets the nodes
//! by their `label` attribute in one `O(|V|)` pass; a label-equality lookup
//! then returns exactly its candidates in `O(|candidates|)`, and predicates
//! that merely *contain* a label atom evaluate their remaining atoms over the
//! bucket instead of the whole graph.
//!
//! The `O(|V|)` pass itself is **shard-buildable**
//! ([`LabelIndex::build_with_shards`]): the node range is partitioned on the
//! same contiguous [`ShardPlan`] the matching engines use, each shard buckets
//! its own range on a scoped thread, and the per-shard buckets are merged in
//! ascending node order — so every shard count produces the *same* index
//! (bucket contents and their internal order alike), and `shards = 1` is the
//! sequential pass.
//!
//! The index is a snapshot over edges: it stays valid under edge
//! insertions/deletions (labels live on nodes) but must be rebuilt if node
//! attributes change. Nodes *appended* to the graph after the build can be
//! absorbed without a rebuild through [`LabelIndex::ensure_node_capacity`] —
//! the node-churn growth hook every other index in the workspace exposes — so
//! churned nodes enter the candidate scan exactly as if the index had been
//! built after them.

use crate::attr::Attributes;
use crate::graph::DataGraph;
use crate::hash::FastHashMap;
use crate::node::NodeId;
use crate::predicate::Predicate;
use crate::shard::{configured_shards, ShardPlan, PARALLEL_WORK_THRESHOLD};

/// The node domain a predicate's candidate scan must consider, classified by
/// how much of the work the label index already did ([`LabelIndex::predicate_domain`]).
///
/// This is the selectivity triage every candidate computation in the
/// workspace shares — the per-pattern scans in `igpm-core` and the service
/// layer's interned candidate sets resolve predicates through the same three
/// tiers, so a `(label, predicate)` pair always produces the same node list
/// regardless of which path computed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateDomain<'a> {
    /// The predicate is exactly a label-equality atom: the bucket *is* the
    /// candidate set, already sorted by node id. No predicate evaluation is
    /// needed.
    Bucket(&'a [NodeId]),
    /// The predicate contains a label atom plus further atoms: the bucket is
    /// a superset, and the remaining atoms must be evaluated over it.
    FilteredBucket(&'a [NodeId]),
    /// The predicate has no label-equality atom: every node of the graph must
    /// be evaluated.
    AllNodes,
}

/// Inverted index from node label to the sorted list of nodes carrying it.
///
/// Equality compares *content*: bucket vectors element-for-element (node
/// order matters — it is part of the determinism contract) and the bucket map
/// as a set of `(label, nodes)` entries, independent of hash-bucket order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelIndex {
    buckets: FastHashMap<String, Vec<NodeId>>,
    /// Nodes without a `label` attribute, in index order.
    unlabeled: Vec<NodeId>,
    /// Number of node ids covered so far (`0..covered` have been bucketed).
    covered: usize,
}

impl LabelIndex {
    /// Builds the index over the graph's nodes, sharded across
    /// [`configured_shards`] node ranges (see
    /// [`LabelIndex::build_with_shards`]).
    pub fn build(graph: &DataGraph) -> Self {
        Self::build_with_shards(graph, configured_shards())
    }

    /// [`LabelIndex::build`] with an explicit shard count (`IGPM_SHARDS` and
    /// machine parallelism are ignored). Each shard buckets one contiguous
    /// node range on a scoped thread; the per-shard buckets are concatenated
    /// in shard (= ascending node) order, so the result is identical for
    /// every shard count and `shards = 1` is the sequential pass.
    pub fn build_with_shards(graph: &DataGraph, shards: usize) -> Self {
        let nv = graph.node_count();
        let plan = ShardPlan::new(nv, shards);
        if plan.count == 1 || nv < PARALLEL_WORK_THRESHOLD {
            let mut index = LabelIndex::default();
            index.absorb_range(graph, 0..nv);
            index.covered = nv;
            return index;
        }
        let partials: Vec<LabelIndex> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.count)
                .map(|shard| {
                    let range = plan.range(shard);
                    scope.spawn(move || {
                        let mut partial = LabelIndex::default();
                        partial.absorb_range(graph, range);
                        partial
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("label shard panicked")).collect()
        });
        // Ordered merge: shard ranges ascend, and every per-shard bucket is in
        // ascending node order, so appending shard by shard keeps each merged
        // bucket sorted — the exact list the sequential pass produces.
        let mut index = LabelIndex::default();
        for partial in partials {
            for (label, nodes) in partial.buckets {
                index.buckets.entry(label).or_default().extend(nodes);
            }
            index.unlabeled.extend(partial.unlabeled);
        }
        index.covered = nv;
        index
    }

    /// Buckets the nodes of one id range (ascending).
    fn absorb_range(&mut self, graph: &DataGraph, range: std::ops::Range<usize>) {
        for v in range {
            let v = NodeId::from_index(v);
            self.insert(v, graph.attrs(v));
        }
    }

    fn insert(&mut self, v: NodeId, attrs: &Attributes) {
        match attrs.label() {
            Some(label) => match self.buckets.get_mut(label) {
                Some(bucket) => bucket.push(v),
                None => {
                    self.buckets.insert(label.to_string(), vec![v]);
                }
            },
            None => self.unlabeled.push(v),
        }
    }

    /// Absorbs the nodes appended to `graph` since the index was built (node
    /// ids grow monotonically, so appending keeps every bucket sorted). Edge
    /// churn never invalidates the index; node churn is covered by calling
    /// this before the next candidate scan. No-op when nothing grew.
    pub fn ensure_node_capacity(&mut self, graph: &DataGraph) {
        let nv = graph.node_count();
        if nv <= self.covered {
            return;
        }
        self.absorb_range(graph, self.covered..nv);
        self.covered = nv;
    }

    /// Number of node ids covered by the index (nodes added to the graph
    /// afterwards need [`LabelIndex::ensure_node_capacity`]).
    pub fn covered_nodes(&self) -> usize {
        self.covered
    }

    /// The nodes carrying `label`, sorted by node id (insertion order is
    /// id order, so no sort is ever needed).
    pub fn nodes_with_label(&self, label: &str) -> &[NodeId] {
        self.buckets.get(label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Classifies the node domain `pred`'s candidate scan must consider: the
    /// label bucket verbatim (pure label test), the bucket as a pre-filter
    /// (label atom plus more), or the whole node range (no label atom). The
    /// returned slices cover exactly [`LabelIndex::covered_nodes`] ids — call
    /// [`LabelIndex::ensure_node_capacity`] first under node churn.
    pub fn predicate_domain(&self, pred: &Predicate) -> CandidateDomain<'_> {
        if let Some(label) = pred.as_label() {
            CandidateDomain::Bucket(self.nodes_with_label(label))
        } else if let Some(label) = pred.label_atom() {
            CandidateDomain::FilteredBucket(self.nodes_with_label(label))
        } else {
            CandidateDomain::AllNodes
        }
    }

    /// The nodes that carry no `label` attribute, sorted by node id.
    pub fn unlabeled_nodes(&self) -> &[NodeId] {
        &self.unlabeled
    }

    /// Approximate heap bytes of the index: the bucket table (counted by
    /// capacity, one control byte per bucket), the label strings and the
    /// node lists.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let table = self.buckets.capacity() * (size_of::<(String, Vec<NodeId>)>() + 1);
        let entries: usize = self
            .buckets
            .iter()
            .map(|(label, nodes)| label.capacity() + nodes.capacity() * size_of::<NodeId>())
            .sum();
        table + entries + self.unlabeled.capacity() * size_of::<NodeId>()
    }

    /// Number of distinct labels.
    pub fn label_count(&self) -> usize {
        self.buckets.len()
    }

    /// Iterates over `(label, nodes)` buckets in unspecified order.
    pub fn buckets(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.buckets.iter().map(|(label, nodes)| (label.as_str(), nodes.as_slice()))
    }

    /// The buckets as a sorted `(label, nodes)` list plus the unlabeled tail —
    /// a canonical rendering for byte-equality assertions in the equivalence
    /// suites (map iteration order is unspecified; this is not).
    pub fn snapshot(&self) -> (Vec<(String, Vec<NodeId>)>, Vec<NodeId>) {
        let mut buckets: Vec<(String, Vec<NodeId>)> =
            self.buckets.iter().map(|(label, nodes)| (label.clone(), nodes.clone())).collect();
        buckets.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        (buckets, self.unlabeled.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataGraph {
        let mut g = DataGraph::new();
        g.add_labeled_node("CTO");
        g.add_labeled_node("DB");
        g.add_labeled_node("CTO");
        g.add_node(Attributes::new().with("name", "anon"));
        g.add_labeled_node("Bio");
        g
    }

    #[test]
    fn buckets_nodes_by_label_in_id_order() {
        let index = LabelIndex::build(&sample());
        assert_eq!(index.nodes_with_label("CTO"), &[NodeId(0), NodeId(2)]);
        assert_eq!(index.nodes_with_label("DB"), &[NodeId(1)]);
        assert_eq!(index.nodes_with_label("Bio"), &[NodeId(4)]);
        assert!(index.nodes_with_label("Ghost").is_empty());
        assert_eq!(index.unlabeled_nodes(), &[NodeId(3)]);
        assert_eq!(index.label_count(), 3);
        assert_eq!(index.covered_nodes(), 5);
    }

    #[test]
    fn bucket_iteration_covers_every_labeled_node() {
        let index = LabelIndex::build(&sample());
        let total: usize = index.buckets().map(|(_, nodes)| nodes.len()).sum();
        assert_eq!(total + index.unlabeled_nodes().len(), 5);
    }

    #[test]
    fn empty_graph() {
        let index = LabelIndex::build(&DataGraph::new());
        assert_eq!(index.label_count(), 0);
        assert!(index.nodes_with_label("x").is_empty());
        for shards in [1, 4] {
            assert_eq!(LabelIndex::build_with_shards(&DataGraph::new(), shards), index);
        }
    }

    #[test]
    fn sharded_builds_match_sequential_on_small_graphs() {
        // Below the spawn threshold the partition runs inline, but the merge
        // arithmetic is the same; every count must agree with shards = 1.
        let graph = sample();
        let reference = LabelIndex::build_with_shards(&graph, 1);
        for shards in [2usize, 3, 8] {
            let index = LabelIndex::build_with_shards(&graph, shards);
            assert_eq!(index, reference, "shards={shards}");
            assert_eq!(index.snapshot(), reference.snapshot(), "shards={shards}");
        }
    }

    #[test]
    fn sharded_builds_match_sequential_above_the_spawn_threshold() {
        // 3 × PARALLEL_WORK_THRESHOLD nodes with interleaved label reuse: the
        // fan-out branch actually spawns, and chunk boundaries fall inside
        // label runs, so a merge that lost node order would be caught.
        let mut graph = DataGraph::new();
        let n = 3 * PARALLEL_WORK_THRESHOLD;
        for v in 0..n {
            if v % 7 == 3 {
                graph.add_node(Attributes::new().with("name", "anon"));
            } else {
                graph.add_labeled_node(format!("l{}", v % 5));
            }
        }
        let reference = LabelIndex::build_with_shards(&graph, 1);
        for shards in [2usize, 3, 8] {
            let index = LabelIndex::build_with_shards(&graph, shards);
            assert_eq!(index, reference, "shards={shards}");
            for (label, nodes) in reference.buckets() {
                assert_eq!(index.nodes_with_label(label), nodes, "bucket {label}");
                assert!(nodes.windows(2).all(|w| w[0] < w[1]), "bucket {label} not sorted");
            }
        }
    }

    #[test]
    fn predicate_domain_triages_by_label_atom() {
        use crate::attr::CompareOp;
        use crate::predicate::Predicate;
        let index = LabelIndex::build(&sample());
        assert_eq!(
            index.predicate_domain(&Predicate::label("CTO")),
            CandidateDomain::Bucket(&[NodeId(0), NodeId(2)])
        );
        assert_eq!(
            index.predicate_domain(&Predicate::label("CTO").and("age", CompareOp::Lt, 50)),
            CandidateDomain::FilteredBucket(&[NodeId(0), NodeId(2)])
        );
        assert_eq!(
            index.predicate_domain(&Predicate::any().and_eq("name", "anon")),
            CandidateDomain::AllNodes
        );
        assert_eq!(index.predicate_domain(&Predicate::any()), CandidateDomain::AllNodes);
        // A missing label maps to the empty bucket, not AllNodes.
        assert_eq!(
            index.predicate_domain(&Predicate::label("Ghost")),
            CandidateDomain::Bucket(&[])
        );
    }

    #[test]
    fn ensure_node_capacity_absorbs_appended_nodes() {
        let mut graph = sample();
        let mut grown = LabelIndex::build(&graph);
        graph.add_labeled_node("CTO");
        graph.add_node(Attributes::new().with("name", "late-anon"));
        graph.add_labeled_node("Ops");
        grown.ensure_node_capacity(&graph);
        // Growth must land on exactly the index a fresh build produces.
        assert_eq!(grown, LabelIndex::build(&graph));
        assert_eq!(grown.nodes_with_label("CTO"), &[NodeId(0), NodeId(2), NodeId(5)]);
        assert_eq!(grown.nodes_with_label("Ops"), &[NodeId(7)]);
        assert_eq!(grown.unlabeled_nodes(), &[NodeId(3), NodeId(6)]);
        assert_eq!(grown.covered_nodes(), 8);
        // Idempotent when nothing grew.
        let before = grown.clone();
        grown.ensure_node_capacity(&graph);
        assert_eq!(grown, before);
    }
}

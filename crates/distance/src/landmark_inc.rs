//! Incremental maintenance of landmark and distance vectors (Section 6.4).
//!
//! * [`ins_lm`] — `InsLM`: maintains the index under a single edge insertion.
//!   At most one new landmark is added (keeping the vertex-cover/covering
//!   invariant, Proposition 6.2) and only the distance-vector entries that
//!   actually change are rewritten, by propagating decreases outwards from the
//!   inserted edge.
//! * [`del_lm`] — `DelLM`: maintains the index under a single edge deletion,
//!   using the two-phase affected-area computation of Fig. 14 (identify the
//!   nodes whose distance from/to a landmark lost its support, then settle
//!   their new distances from the unaffected boundary).
//! * [`inc_lm`] — `IncLM`: batch maintenance; redundant updates that cancel
//!   each other are removed before the unit procedures run.
//!
//! All three apply the graph update themselves so that the index and the graph
//! can never drift apart, and return [`LandmarkMaintenanceStats`] describing
//! `|AFF|` (changed entries), which the experiments of Fig. 20 report.
//!
//! The procedures work one landmark at a time, in landmark order. They see a
//! landmark's entries as a dense row indexed by node, a view of one lane of
//! the index's 64-landmark blocks (see [`crate::landmark`]).

use crate::landmark::{LandmarkIndex, Lane, UNREACHABLE};
use igpm_graph::hash::FastHashSet;
use igpm_graph::{BatchUpdate, DataGraph, NodeId, Update};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Statistics reported by the incremental landmark maintenance procedures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LandmarkMaintenanceStats {
    /// Unit updates actually processed (after cancellation).
    pub updates_processed: usize,
    /// Unit updates removed because they cancelled out or were no-ops.
    pub cancelled_updates: usize,
    /// Landmarks added to keep the covering invariant.
    pub landmarks_added: usize,
    /// Distance-vector entries whose value changed (`|AFF|` proxy).
    pub affected_entries: usize,
}

impl LandmarkMaintenanceStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: LandmarkMaintenanceStats) {
        self.updates_processed += other.updates_processed;
        self.cancelled_updates += other.cancelled_updates;
        self.landmarks_added += other.landmarks_added;
        self.affected_entries += other.affected_entries;
    }
}

/// `InsLM`: inserts the edge `(from, to)` into `graph` and incrementally
/// maintains `index`.
pub fn ins_lm(
    index: &mut LandmarkIndex,
    graph: &mut DataGraph,
    from: NodeId,
    to: NodeId,
) -> LandmarkMaintenanceStats {
    let mut affected = FastHashSet::default();
    ins_lm_tracked(index, graph, from, to, &mut affected)
}

/// [`ins_lm`] variant that also records, in `affected`, every node whose
/// distance-vector entries changed (plus the edge endpoints). Incremental
/// bounded simulation uses this set to bound the pairs it re-examines.
pub fn ins_lm_tracked(
    index: &mut LandmarkIndex,
    graph: &mut DataGraph,
    from: NodeId,
    to: NodeId,
    affected: &mut FastHashSet<NodeId>,
) -> LandmarkMaintenanceStats {
    let mut stats = LandmarkMaintenanceStats::default();
    index.ensure_node_capacity(graph.node_count());
    if !graph.add_edge(from, to) {
        stats.cancelled_updates = 1;
        return stats;
    }
    stats.updates_processed = 1;
    affected.insert(from);
    affected.insert(to);

    // Maintain the covering invariant: any new shortest path using the new
    // edge passes through one of its endpoints, so adding one endpoint to the
    // landmark vector restores the cover (proof of Proposition 6.2).
    if index.is_covering()
        && !index.is_landmark(from)
        && !index.is_landmark(to)
        && index.push_landmark(graph, from)
    {
        stats.landmarks_added = 1;
    }

    // Skip the freshly added landmark, the last one (its entries are
    // already exact).
    for i in 0..index.len() - stats.landmarks_added {
        // Distances from landmark i may shrink along `from -> to`.
        stats.affected_entries +=
            propagate_decrease_forward(graph, &mut index.lane_from(i), from, to, affected);
        // Distances to landmark i may shrink along `from -> to`.
        stats.affected_entries +=
            propagate_decrease_backward(graph, &mut index.lane_to(i), from, to, affected);
    }
    stats
}

/// `DelLM`: removes the edge `(from, to)` from `graph` and incrementally
/// maintains `index`.
pub fn del_lm(
    index: &mut LandmarkIndex,
    graph: &mut DataGraph,
    from: NodeId,
    to: NodeId,
) -> LandmarkMaintenanceStats {
    let mut affected = FastHashSet::default();
    del_lm_tracked(index, graph, from, to, &mut affected)
}

/// [`del_lm`] variant that also records the affected nodes in `affected`.
pub fn del_lm_tracked(
    index: &mut LandmarkIndex,
    graph: &mut DataGraph,
    from: NodeId,
    to: NodeId,
    affected: &mut FastHashSet<NodeId>,
) -> LandmarkMaintenanceStats {
    let mut stats = LandmarkMaintenanceStats::default();
    index.ensure_node_capacity(graph.node_count());
    if !graph.remove_edge(from, to) {
        stats.cancelled_updates = 1;
        return stats;
    }
    stats.updates_processed = 1;
    affected.insert(from);
    affected.insert(to);

    // A vertex cover stays a vertex cover when edges are removed, so the
    // landmark vector itself never changes on deletions (Proposition 6.2).
    for i in 0..index.len() {
        // dist(landmark, ·): the deleted edge supported `to` via `from`.
        let row = &mut index.lane_from(i);
        stats.affected_entries +=
            repair_after_deletion(graph, row, to, from, DirectionKind::FromLandmark, affected);
    }
    for i in 0..index.len() {
        // dist(·, landmark): the deleted edge supported `from` via `to`.
        let row = &mut index.lane_to(i);
        stats.affected_entries +=
            repair_after_deletion(graph, row, from, to, DirectionKind::ToLandmark, affected);
    }
    stats
}

/// `IncLM`: applies a batch of updates, cancelling redundant ones first.
pub fn inc_lm(
    index: &mut LandmarkIndex,
    graph: &mut DataGraph,
    batch: &BatchUpdate,
) -> LandmarkMaintenanceStats {
    let mut affected = FastHashSet::default();
    inc_lm_tracked(index, graph, batch, &mut affected)
}

/// [`inc_lm`] variant that also records the affected nodes in `affected`.
pub fn inc_lm_tracked(
    index: &mut LandmarkIndex,
    graph: &mut DataGraph,
    batch: &BatchUpdate,
    affected: &mut FastHashSet<NodeId>,
) -> LandmarkMaintenanceStats {
    let (effective, cancelled) = reduce_batch(graph, batch);
    let mut stats = inc_lm_tracked_reduced(index, graph, &effective, affected);
    stats.cancelled_updates += cancelled;
    stats
}

/// [`inc_lm_tracked`] for a batch **already reduced** to its net-effective
/// updates (each edge at most once, every update effective — the output of
/// [`reduce_batch`] / its sharded variant): skips the internal reduction, so
/// callers that reduce on a shard plan (the bounded batch engine) do not pay
/// a second sequential presence pass over the same updates.
pub fn inc_lm_tracked_reduced(
    index: &mut LandmarkIndex,
    graph: &mut DataGraph,
    effective: &[Update],
    affected: &mut FastHashSet<NodeId>,
) -> LandmarkMaintenanceStats {
    let mut stats = LandmarkMaintenanceStats::default();
    index.ensure_node_capacity(graph.node_count());
    for update in effective {
        let unit = match *update {
            Update::InsertEdge { from, to } => ins_lm_tracked(index, graph, from, to, affected),
            Update::DeleteEdge { from, to } => del_lm_tracked(index, graph, from, to, affected),
        };
        stats.merge(unit);
    }
    stats
}

// The net-effect batch reduction (`minDelta` step 1) moved to
// `igpm_graph::update`, where the sharded variant also lives; re-exported
// here because `IncLM` and this module's historical callers import it from
// the distance crate.
pub use igpm_graph::update::reduce_batch;

/// Propagates a distance decrease caused by the new edge `(from, to)` through
/// `row`, where `row[v]` is the distance from a fixed landmark to `v`.
/// Returns the number of entries that changed.
fn propagate_decrease_forward(
    graph: &DataGraph,
    row: &mut Lane<'_>,
    from: NodeId,
    to: NodeId,
    affected: &mut FastHashSet<NodeId>,
) -> usize {
    let base = row[from.index()];
    if base == UNREACHABLE {
        return 0;
    }
    let candidate = base.saturating_add(1);
    if candidate >= row[to.index()] {
        return 0;
    }
    let mut changed = 0;
    let mut queue = VecDeque::new();
    row[to.index()] = candidate;
    changed += 1;
    affected.insert(to);
    queue.push_back(to);
    while let Some(x) = queue.pop_front() {
        let d = row[x.index()];
        for &child in graph.children(x) {
            if d.saturating_add(1) < row[child.index()] {
                row[child.index()] = d + 1;
                changed += 1;
                affected.insert(child);
                queue.push_back(child);
            }
        }
    }
    changed
}

/// Propagates a distance decrease caused by the new edge `(from, to)` through
/// `row`, where `row[v]` is the distance from `v` to a fixed landmark.
fn propagate_decrease_backward(
    graph: &DataGraph,
    row: &mut Lane<'_>,
    from: NodeId,
    to: NodeId,
    affected: &mut FastHashSet<NodeId>,
) -> usize {
    let base = row[to.index()];
    if base == UNREACHABLE {
        return 0;
    }
    let candidate = base.saturating_add(1);
    if candidate >= row[from.index()] {
        return 0;
    }
    let mut changed = 0;
    let mut queue = VecDeque::new();
    row[from.index()] = candidate;
    changed += 1;
    affected.insert(from);
    queue.push_back(from);
    while let Some(x) = queue.pop_front() {
        let d = row[x.index()];
        for &parent in graph.parents(x) {
            if d.saturating_add(1) < row[parent.index()] {
                row[parent.index()] = d + 1;
                changed += 1;
                affected.insert(parent);
                queue.push_back(parent);
            }
        }
    }
    changed
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum DirectionKind {
    /// `row[v]` holds dist(landmark, v): supports come from graph *parents*.
    FromLandmark,
    /// `row[v]` holds dist(v, landmark): supports come from graph *children*.
    ToLandmark,
}

impl DirectionKind {
    fn supports(self, graph: &DataGraph, v: NodeId) -> &[NodeId] {
        match self {
            DirectionKind::FromLandmark => graph.parents(v),
            DirectionKind::ToLandmark => graph.children(v),
        }
    }

    fn dependents(self, graph: &DataGraph, v: NodeId) -> &[NodeId] {
        match self {
            DirectionKind::FromLandmark => graph.children(v),
            DirectionKind::ToLandmark => graph.parents(v),
        }
    }
}

/// Two-phase repair of one distance row after deleting the edge whose
/// *dependent* endpoint is `start` and whose *support* endpoint is `support`
/// (i.e. for `FromLandmark` rows the deleted edge ran `support -> start`; for
/// `ToLandmark` rows it ran `start -> support`). Returns the number of entries
/// that changed. This is the aUP/aDW computation of procedure `DelLM`
/// (Fig. 14) followed by a bounded Dijkstra re-settlement.
fn repair_after_deletion(
    graph: &DataGraph,
    row: &mut Lane<'_>,
    start: NodeId,
    support: NodeId,
    kind: DirectionKind,
    affected_nodes: &mut FastHashSet<NodeId>,
) -> usize {
    let old_start = row[start.index()];
    let support_dist = row[support.index()];
    // The removed edge was on a shortest path only if it provided the distance.
    if old_start == UNREACHABLE
        || support_dist == UNREACHABLE
        || support_dist.saturating_add(1) != old_start
    {
        return 0;
    }

    // Phase 1: collect the affected set in nondecreasing old-distance order.
    let mut affected: Vec<NodeId> = Vec::new();
    let mut is_affected = igpm_graph::hash::set_with_capacity::<NodeId>(16);
    let mut enqueued = igpm_graph::hash::set_with_capacity::<NodeId>(16);
    let mut queue = VecDeque::new();
    queue.push_back(start);
    enqueued.insert(start);
    while let Some(x) = queue.pop_front() {
        let dx = row[x.index()];
        let supported = kind.supports(graph, x).iter().any(|&p| {
            let dp = row[p.index()];
            dp != UNREACHABLE && dp.saturating_add(1) == dx && !is_affected.contains(&p)
        });
        if supported {
            continue;
        }
        is_affected.insert(x);
        affected.push(x);
        for &c in kind.dependents(graph, x) {
            if row[c.index()] != UNREACHABLE
                && row[c.index()] == dx.saturating_add(1)
                && enqueued.insert(c)
            {
                queue.push_back(c);
            }
        }
    }
    if affected.is_empty() {
        return 0;
    }

    // Phase 2: recompute the affected entries from the unaffected boundary.
    let old_values: Vec<(NodeId, u32)> = affected.iter().map(|&x| (x, row[x.index()])).collect();
    for &x in &affected {
        row[x.index()] = UNREACHABLE;
    }
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    for &x in &affected {
        let best = kind
            .supports(graph, x)
            .iter()
            .filter_map(|&p| match row[p.index()] {
                UNREACHABLE => None,
                d => Some(d.saturating_add(1)),
            })
            .min();
        if let Some(d) = best {
            heap.push(Reverse((d, x.0)));
        }
    }
    while let Some(Reverse((d, raw))) = heap.pop() {
        let x = NodeId(raw);
        if d >= row[x.index()] {
            continue;
        }
        row[x.index()] = d;
        for &c in kind.dependents(graph, x) {
            if is_affected.contains(&c) && d.saturating_add(1) < row[c.index()] {
                heap.push(Reverse((d + 1, c.0)));
            }
        }
    }

    let mut changed = 0;
    for &(x, old) in &old_values {
        if row[x.index()] != old {
            changed += 1;
            affected_nodes.insert(x);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmark::LandmarkSelection;
    use crate::matrix::DistanceMatrix;
    use crate::oracle::DistanceOracle;
    use igpm_graph::Attributes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, edges: usize, seed: u64) -> DataGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DataGraph::new();
        for i in 0..n {
            g.add_node(Attributes::labeled(format!("v{i}")));
        }
        for _ in 0..edges {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            if a != b {
                g.add_edge(a, b);
            }
        }
        g
    }

    fn assert_exact(index: &LandmarkIndex, graph: &DataGraph, context: &str) {
        let matrix = DistanceMatrix::build(graph);
        for a in graph.nodes() {
            for b in graph.nodes() {
                assert_eq!(
                    index.query(a, b),
                    matrix.distance(a, b),
                    "{context}: mismatch at ({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn ins_lm_keeps_index_exact() {
        let mut rng = StdRng::seed_from_u64(42);
        for seed in 0..4 {
            let mut graph = random_graph(25, 50, seed);
            let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
            let mut stats = LandmarkMaintenanceStats::default();
            for _ in 0..30 {
                let a = NodeId(rng.gen_range(0..25) as u32);
                let b = NodeId(rng.gen_range(0..25) as u32);
                if a == b {
                    continue;
                }
                stats.merge(ins_lm(&mut index, &mut graph, a, b));
            }
            assert_exact(&index, &graph, &format!("insertions, seed {seed}"));
            assert!(stats.updates_processed > 0);
        }
    }

    #[test]
    fn del_lm_keeps_index_exact() {
        let mut rng = StdRng::seed_from_u64(7);
        for seed in 0..4 {
            let mut graph = random_graph(25, 80, seed + 100);
            let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
            let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
            for _ in 0..25 {
                let (a, b) = edges[rng.gen_range(0..edges.len())];
                del_lm(&mut index, &mut graph, a, b);
            }
            assert_exact(&index, &graph, &format!("deletions, seed {seed}"));
        }
    }

    #[test]
    fn mixed_unit_updates_stay_exact() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut graph = random_graph(20, 45, 5);
        let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
        for step in 0..60 {
            let a = NodeId(rng.gen_range(0..20) as u32);
            let b = NodeId(rng.gen_range(0..20) as u32);
            if a == b {
                continue;
            }
            if rng.gen_bool(0.5) {
                ins_lm(&mut index, &mut graph, a, b);
            } else {
                del_lm(&mut index, &mut graph, a, b);
            }
            if step % 15 == 0 {
                assert_exact(&index, &graph, &format!("mixed step {step}"));
            }
        }
        assert_exact(&index, &graph, "mixed final");
    }

    #[test]
    fn inc_lm_batch_matches_rebuild() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut graph = random_graph(30, 70, 11);
        let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
        let mut batch = BatchUpdate::new();
        let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        for i in 0..10 {
            let (a, b) = edges[rng.gen_range(0..edges.len())];
            batch.delete(a, b);
            let c = NodeId(rng.gen_range(0..30) as u32);
            let d = NodeId(rng.gen_range(0..30) as u32);
            if c != d {
                batch.insert(c, d);
            }
            if i == 0 {
                // Insert and immediately delete an extra edge: must cancel out.
                batch.insert(NodeId(0), NodeId(15));
                batch.delete(NodeId(0), NodeId(15));
            }
        }
        let stats = inc_lm(&mut index, &mut graph, &batch);
        assert!(stats.cancelled_updates >= 2, "the insert/delete pair must cancel");
        assert_exact(&index, &graph, "after batch");
    }

    #[test]
    fn reduce_batch_cancels_net_noops() {
        let graph = {
            let mut g = DataGraph::new();
            for i in 0..3 {
                g.add_node(Attributes::labeled(format!("v{i}")));
            }
            g.add_edge(NodeId(0), NodeId(1));
            g
        };
        let mut batch = BatchUpdate::new();
        batch.delete(NodeId(0), NodeId(1));
        batch.insert(NodeId(0), NodeId(1)); // cancels the deletion
        batch.insert(NodeId(1), NodeId(2));
        batch.delete(NodeId(1), NodeId(2)); // cancels the insertion
        batch.insert(NodeId(2), NodeId(0)); // effective
        let (effective, cancelled) = reduce_batch(&graph, &batch);
        assert_eq!(effective, vec![Update::insert(NodeId(2), NodeId(0))]);
        assert_eq!(cancelled, 4);
    }

    #[test]
    fn redundant_unit_updates_are_reported_as_cancelled() {
        let mut graph = random_graph(10, 15, 2);
        let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
        let (a, b) = graph.edges().next().unwrap();
        let stats = ins_lm(&mut index, &mut graph, a, b);
        assert_eq!(stats.cancelled_updates, 1, "inserting an existing edge is a no-op");
        assert_eq!(stats.updates_processed, 0);
        // Deleting a non-existent edge is likewise a no-op.
        let mut missing = (NodeId(0), NodeId(1));
        for x in graph.nodes() {
            for y in graph.nodes() {
                if x != y && !graph.has_edge(x, y) {
                    missing = (x, y);
                }
            }
        }
        let stats = del_lm(&mut index, &mut graph, missing.0, missing.1);
        assert_eq!(stats.cancelled_updates, 1);
    }

    #[test]
    fn covering_invariant_is_maintained_on_insertions() {
        let mut graph = random_graph(15, 20, 8);
        let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
        assert!(index.is_covering());
        // Find two non-landmark nodes and connect them.
        let non_landmarks: Vec<NodeId> = graph.nodes().filter(|&v| !index.is_landmark(v)).collect();
        if non_landmarks.len() >= 2 {
            let (a, b) = (non_landmarks[0], non_landmarks[1]);
            let stats = ins_lm(&mut index, &mut graph, a, b);
            assert_eq!(stats.landmarks_added, 1);
            assert!(index.is_landmark(a));
        }
        assert_exact(&index, &graph, "after covering insertion");
    }

    #[test]
    fn inc_lm_pushes_landmarks_across_a_block_boundary_exactly() {
        // 61 hubs in a ring, each with four leaves of its own; every leaf
        // also points at the hub seven places on. The greedy cover is the 61
        // hubs (degree ≥ 6 against the leaves' 2), three short of a block.
        const HUBS: u32 = 61;
        let mut graph = DataGraph::new();
        for i in 0..HUBS * 5 {
            graph.add_node(Attributes::labeled(format!("v{i}")));
        }
        let leaf = |hub: u32, k: u32| NodeId(HUBS + hub * 4 + k);
        for hub in 0..HUBS {
            graph.add_edge(NodeId(hub), NodeId((hub + 1) % HUBS));
            for k in 0..4 {
                graph.add_edge(NodeId(hub), leaf(hub, k));
                graph.add_edge(leaf(hub, k), NodeId((hub + 7) % HUBS));
            }
        }
        let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
        assert!(index.is_covering());
        assert_eq!(index.len(), HUBS as usize);

        let mut rng = StdRng::seed_from_u64(0xb0d);
        for round in 0..6 {
            // Insertions joining two non-landmarks push one endpoint as a
            // landmark; deletions of present edges ride along.
            let plain: Vec<NodeId> = graph.nodes().filter(|&v| !index.is_landmark(v)).collect();
            let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
            let mut batch = BatchUpdate::new();
            for _ in 0..3 {
                let a = plain[rng.gen_range(0..plain.len())];
                let b = plain[rng.gen_range(0..plain.len())];
                if a != b {
                    batch.insert(a, b);
                }
                let (c, d) = edges[rng.gen_range(0..edges.len())];
                batch.delete(c, d);
            }
            let before = index.len();
            let stats = inc_lm(&mut index, &mut graph, &batch);
            assert_eq!(index.len(), before + stats.landmarks_added, "round {round}");
            let rebuilt = LandmarkIndex::build(
                &graph,
                LandmarkSelection::Explicit(index.landmarks().to_vec()),
            );
            assert_eq!(rebuilt.landmarks(), index.landmarks(), "round {round}");
            for v in graph.nodes() {
                assert_eq!(index.distvf(v), rebuilt.distvf(v), "round {round}: distvf({v})");
                assert_eq!(index.distvt(v), rebuilt.distvt(v), "round {round}: distvt({v})");
            }
        }
        assert!(index.len() > 64, "IncLM crossed the block boundary ({})", index.len());
    }

    #[test]
    fn a_thousand_added_nodes_stay_near_exact_size_and_exact() {
        // Each round adds one node and joins it to the graph with an edge
        // each way, so the new node's vectors are not all unreachable.
        let mut graph = random_graph(200, 800, 0x1000);
        let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
        let mut rng = StdRng::seed_from_u64(0x1001);
        for i in 0..1_000 {
            let v = graph.add_node(Attributes::labeled(format!("late{i}")));
            let n = graph.node_count() as u32 - 1;
            let a = NodeId(rng.gen_range(0..n));
            let b = NodeId(rng.gen_range(0..n));
            ins_lm(&mut index, &mut graph, a, v);
            ins_lm(&mut index, &mut graph, v, b);
        }
        let rebuilt =
            LandmarkIndex::build(&graph, LandmarkSelection::Explicit(index.landmarks().to_vec()));
        let (kept, exact) = (index.memory_bytes(), rebuilt.memory_bytes());
        assert!(kept as f64 <= exact as f64 * 1.25, "{kept} bytes against {exact} rebuilt");
        for v in graph.nodes() {
            assert_eq!(index.distvf(v), rebuilt.distvf(v), "distvf({v})");
            assert_eq!(index.distvt(v), rebuilt.distvt(v), "distvt({v})");
        }
        for _ in 0..20_000 {
            let a = NodeId(rng.gen_range(0..graph.node_count() as u32));
            let b = NodeId(rng.gen_range(0..graph.node_count() as u32));
            assert_eq!(index.query(a, b), rebuilt.query(a, b), "query({a}, {b})");
        }
    }

    #[test]
    fn incremental_is_equivalent_to_rebuild_distance_wise() {
        // The same final graph must yield the same distances whether the index
        // was maintained incrementally or rebuilt (BatchLM).
        let mut graph = random_graph(25, 60, 21);
        let mut index = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            let a = NodeId(rng.gen_range(0..25) as u32);
            let b = NodeId(rng.gen_range(0..25) as u32);
            if a == b {
                continue;
            }
            if rng.gen_bool(0.6) {
                ins_lm(&mut index, &mut graph, a, b);
            } else {
                del_lm(&mut index, &mut graph, a, b);
            }
        }
        let rebuilt = LandmarkIndex::build(&graph, LandmarkSelection::VertexCover);
        for a in graph.nodes() {
            for b in graph.nodes() {
                assert_eq!(index.distance(a, b), rebuilt.distance(a, b));
            }
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = LandmarkMaintenanceStats {
            updates_processed: 1,
            cancelled_updates: 2,
            landmarks_added: 3,
            affected_entries: 4,
        };
        let b = LandmarkMaintenanceStats {
            updates_processed: 10,
            cancelled_updates: 20,
            landmarks_added: 30,
            affected_entries: 40,
        };
        a.merge(b);
        assert_eq!(a.updates_processed, 11);
        assert_eq!(a.cancelled_updates, 22);
        assert_eq!(a.landmarks_added, 33);
        assert_eq!(a.affected_entries, 44);
    }
}

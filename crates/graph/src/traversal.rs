//! Breadth-first traversals over data graphs.
//!
//! These are the shared primitives behind the `Match` algorithm's
//! ancestor/descendant sets (`anc`/`desc`, Section 3), the BFS-based distance
//! oracle, and the affected-area exploration of the incremental algorithms.

use crate::graph::DataGraph;
use crate::hash::FastHashMap;
use crate::node::NodeId;
use std::collections::VecDeque;

/// Direction of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges from source to target (children / descendants).
    Forward,
    /// Follow edges from target to source (parents / ancestors).
    Backward,
}

impl Direction {
    #[inline]
    fn neighbours(self, graph: &DataGraph, node: NodeId) -> &[NodeId] {
        match self {
            Direction::Forward => graph.children(node),
            Direction::Backward => graph.parents(node),
        }
    }
}

/// Runs a BFS from `source` in the given `direction`, visiting nodes within
/// `max_hops` hops (use `u32::MAX` for an unbounded traversal), and returns
/// the distance (number of hops) to every reached node, including the source
/// at distance 0.
pub fn bfs_distances(
    graph: &DataGraph,
    source: NodeId,
    direction: Direction,
    max_hops: u32,
) -> FastHashMap<NodeId, u32> {
    let mut dist: FastHashMap<NodeId, u32> = FastHashMap::default();
    dist.insert(source, 0);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if d >= max_hops {
            continue;
        }
        for &w in direction.neighbours(graph, v) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(d + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Distances from `source` to every node of the graph, as a dense vector
/// (`u32::MAX` for unreachable nodes). Faster than [`bfs_distances`] when most
/// of the graph is reachable, e.g. when building a full distance matrix.
pub fn bfs_distances_dense(graph: &DataGraph, source: NodeId, direction: Direction) -> Vec<u32> {
    let mut dist = vec![u32::MAX; graph.node_count()];
    dist[source.index()] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        for &w in direction.neighbours(graph, v) {
            if dist[w.index()] == u32::MAX {
                dist[w.index()] = d + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Reusable scratch of [`nodes_within`]: one visit stamp per node, bumped
/// per search, plus the output buffer, so repeated searches over one graph
/// cost O(ball) each with no allocation or O(|V|) clear per call. The stamp
/// array grows with the graph on first use.
#[derive(Debug, Clone, Default)]
pub struct BallScratch {
    stamp: Vec<u32>,
    epoch: u32,
    ball: Vec<NodeId>,
}

impl BallScratch {
    /// Starts a search over `node_count` nodes: returns a stamp no node
    /// carries yet.
    fn next_epoch(&mut self, node_count: usize) -> u32 {
        if self.stamp.len() < node_count {
            // New entries carry 0, which no search ever uses.
            self.stamp.resize(node_count, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The nodes reachable from `source` (following `direction`) within
/// `max_hops` hops, sorted ascending, *excluding* the source itself unless it
/// lies on a cycle of length ≤ `max_hops` (paths must be nonempty, cf.
/// [`crate::EdgeBound`]; use `u32::MAX` for an unbounded search). The result
/// borrows `scratch`, which the next search reuses.
pub fn nodes_within<'s>(
    graph: &DataGraph,
    source: NodeId,
    direction: Direction,
    max_hops: u32,
    scratch: &'s mut BallScratch,
) -> &'s [NodeId] {
    scratch.ball.clear();
    if max_hops == 0 {
        return &scratch.ball;
    }
    let epoch = scratch.next_epoch(graph.node_count());
    let BallScratch { stamp, ball, .. } = scratch;
    // The nonempty-path requirement means the source is included only if it
    // can be reached from itself by a positive-length path; handle that by
    // starting the BFS at the source's neighbours. `ball` doubles as the
    // FIFO queue: `ball[start..end]` holds the nodes at hop distance `depth`.
    for &w in direction.neighbours(graph, source) {
        if stamp[w.index()] != epoch {
            stamp[w.index()] = epoch;
            ball.push(w);
        }
    }
    let mut start = 0;
    let mut depth = 1;
    while depth < max_hops && start < ball.len() {
        let end = ball.len();
        for i in start..end {
            let v = ball[i];
            for &w in direction.neighbours(graph, v) {
                if stamp[w.index()] != epoch {
                    stamp[w.index()] = epoch;
                    ball.push(w);
                }
            }
        }
        start = end;
        depth += 1;
    }
    ball.sort_unstable();
    ball
}

/// The shortest positive-length distance from `from` to `to` (a nonempty
/// path), or `None` if no such path exists. `from == to` requires a cycle.
pub fn shortest_path_len(graph: &DataGraph, from: NodeId, to: NodeId) -> Option<u32> {
    let mut dist: FastHashMap<NodeId, u32> = FastHashMap::default();
    let mut queue = VecDeque::new();
    for &w in graph.children(from) {
        if w == to {
            return Some(1);
        }
        if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
            e.insert(1);
            queue.push_back(w);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        for &w in graph.children(v) {
            if w == to {
                return Some(d + 1);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(d + 1);
                queue.push_back(w);
            }
        }
    }
    None
}

/// True if there is a nonempty path from `from` to `to` of length ≤ `max_hops`.
pub fn reachable_within(graph: &DataGraph, from: NodeId, to: NodeId, max_hops: u32) -> bool {
    match shortest_path_len(graph, from, to) {
        Some(d) => d <= max_hops,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attributes;

    /// Builds a graph: 0 -> 1 -> 2 -> 3, 0 -> 4, 3 -> 0 (a cycle of length 4 through 0..3).
    fn sample() -> DataGraph {
        let mut g = DataGraph::new();
        for i in 0..5 {
            g.add_node(Attributes::labeled(format!("v{i}")));
        }
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(0), NodeId(4));
        g.add_edge(NodeId(3), NodeId(0));
        g
    }

    #[test]
    fn forward_bfs_distances() {
        let g = sample();
        let dist = bfs_distances(&g, NodeId(0), Direction::Forward, u32::MAX);
        assert_eq!(dist[&NodeId(0)], 0);
        assert_eq!(dist[&NodeId(1)], 1);
        assert_eq!(dist[&NodeId(3)], 3);
        assert_eq!(dist[&NodeId(4)], 1);
        assert_eq!(dist.len(), 5);
    }

    #[test]
    fn backward_bfs_distances() {
        let g = sample();
        let dist = bfs_distances(&g, NodeId(3), Direction::Backward, u32::MAX);
        assert_eq!(dist[&NodeId(2)], 1);
        assert_eq!(dist[&NodeId(0)], 3);
        assert!(!dist.contains_key(&NodeId(4)), "4 has no path to 3");
    }

    #[test]
    fn bounded_bfs_stops_at_max_hops() {
        let g = sample();
        let dist = bfs_distances(&g, NodeId(0), Direction::Forward, 2);
        assert!(dist.contains_key(&NodeId(2)));
        assert!(!dist.contains_key(&NodeId(3)));
    }

    #[test]
    fn dense_distances_match_sparse() {
        let g = sample();
        let dense = bfs_distances_dense(&g, NodeId(0), Direction::Forward);
        let sparse = bfs_distances(&g, NodeId(0), Direction::Forward, u32::MAX);
        for v in g.nodes() {
            match sparse.get(&v) {
                Some(&d) => assert_eq!(dense[v.index()], d),
                None => assert_eq!(dense[v.index()], u32::MAX),
            }
        }
    }

    #[test]
    fn nodes_within_respects_nonempty_paths() {
        let g = sample();
        let mut scratch = BallScratch::default();
        // Within 2 hops forward of node 0: {1, 2, 4}; node 0 itself needs 4 hops.
        assert_eq!(
            nodes_within(&g, NodeId(0), Direction::Forward, 2, &mut scratch),
            &[NodeId(1), NodeId(2), NodeId(4)]
        );
        // Within 4 hops the cycle brings node 0 back into view.
        let within4 = nodes_within(&g, NodeId(0), Direction::Forward, 4, &mut scratch);
        assert!(within4.contains(&NodeId(0)));
        assert!(nodes_within(&g, NodeId(0), Direction::Forward, 0, &mut scratch).is_empty());
        // Backward within 1 hop of node 0: only node 3.
        assert_eq!(nodes_within(&g, NodeId(0), Direction::Backward, 1, &mut scratch), &[NodeId(3)]);
        // Unbounded: everything reachable, the source through its cycle.
        assert_eq!(
            nodes_within(&g, NodeId(0), Direction::Forward, u32::MAX, &mut scratch),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert!(nodes_within(&g, NodeId(4), Direction::Forward, u32::MAX, &mut scratch).is_empty());
    }

    #[test]
    fn nodes_within_reuses_its_scratch_across_searches_and_growth() {
        // One scratch serves every source, including nodes added after its
        // first use, and agrees with a hop-limited BFS from the children.
        let mut g = sample();
        let mut scratch = BallScratch::default();
        let reference = |g: &DataGraph, source: NodeId, max_hops: u32| {
            let mut nodes: Vec<NodeId> = g
                .nodes()
                .filter(|&v| {
                    g.children(source).iter().any(|&c| {
                        bfs_distances(g, c, Direction::Forward, max_hops - 1).contains_key(&v)
                    })
                })
                .collect();
            nodes.sort_unstable();
            nodes
        };
        for round in 0..2 {
            if round == 1 {
                let fresh = g.add_node(Attributes::labeled("v5"));
                g.add_edge(NodeId(4), fresh);
                g.add_edge(fresh, fresh);
            }
            for source in g.nodes() {
                for max_hops in 1..=5 {
                    assert_eq!(
                        nodes_within(&g, source, Direction::Forward, max_hops, &mut scratch),
                        reference(&g, source, max_hops).as_slice(),
                        "round {round}, source {source}, {max_hops} hops"
                    );
                }
            }
        }
        // The self-loop makes the fresh node its own 1-hop neighbour.
        assert_eq!(nodes_within(&g, NodeId(5), Direction::Forward, 1, &mut scratch), &[NodeId(5)]);
    }

    #[test]
    fn shortest_path_and_reachability() {
        let g = sample();
        assert_eq!(shortest_path_len(&g, NodeId(0), NodeId(3)), Some(3));
        assert_eq!(
            shortest_path_len(&g, NodeId(0), NodeId(0)),
            Some(4),
            "self distance uses the cycle"
        );
        assert_eq!(shortest_path_len(&g, NodeId(4), NodeId(0)), None);
        assert!(reachable_within(&g, NodeId(0), NodeId(3), 3));
        assert!(!reachable_within(&g, NodeId(0), NodeId(3), 2));
        assert!(!reachable_within(&g, NodeId(4), NodeId(1), 10));
    }
}

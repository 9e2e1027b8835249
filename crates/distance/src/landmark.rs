//! Landmark vectors and distance vectors (Section 6.2).
//!
//! A *landmark vector* `lm` is a list of nodes such that every pair of nodes
//! has a shortest path through some landmark; any vertex cover qualifies
//! (Section 6.2, "Selection of landmarks"). Each node `v` carries two
//! *distance vectors*: `distvf(v) = <dis(v, lm_1), ..., dis(v, lm_|lm|)>` and
//! `distvt(v) = <dis(lm_1, v), ..., dis(lm_|lm|, v)>`; the distance between
//! any two nodes is `min_i distvf(v)[i] + distvt(v')[i]`.
//!
//! The vectors are stored the way the paper gives them, per node, cut into
//! blocks of 64 landmarks (the width of a `u64`): landmark `i` is lane
//! `i % 64` of block `i / 64`, and block `b` holds, node-major,
//! `from_blocks[b][v * 64 + lane] = dis(lm_{64b+lane}, v)` (the `distvt`
//! entries) and likewise `to_blocks` for `distvf`. A node's 64 entries of one
//! block are 256 contiguous bytes, so a distance query is one min-plus scan
//! over two such chunks per block ([`LandmarkIndex::query`]), summing in
//! `u32`: distances stay exact while the sums fit, which holds for
//! `|V| < 2³¹`. Lanes past the last landmark hold [`UNREACHABLE`]. The
//! index takes `8 · |V| · 64 · ⌈|lm| / 64⌉` bytes of distances
//! ([`LandmarkIndex::memory_bytes`]) when built, and at most about an eighth
//! more while nodes are added ([`LandmarkIndex::ensure_node_capacity`]).
//!
//! Each block is built by one forward and one backward bit-parallel BFS that
//! carries the block's 64 sources as one `u64` per node. The incremental
//! procedures of Section 6.4 ([`crate::landmark_inc`]) keep their
//! per-landmark algorithms and update one landmark's entries in place
//! through a lane view of its block.

use crate::oracle::DistanceOracle;
use crate::vertex_cover::greedy_vertex_cover;
use igpm_graph::hash::{FastHashMap, FastHashSet};
use igpm_graph::shard::{configured_shards, MAX_SHARDS, PARALLEL_WORK_THRESHOLD};
use igpm_graph::traversal::{bfs_distances_dense, Direction};
use igpm_graph::{DataGraph, NodeId};
use std::ops::{Index, IndexMut};

/// Sentinel for "unreachable" entries of the distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;

/// Landmarks per block: one bit per landmark in the `u64` source masks of
/// [`multi_source_bfs`].
const LANES: usize = u64::BITS as usize;

/// The fewest nodes a block grows by when [`LandmarkIndex::ensure_node_capacity`]
/// reallocates it.
const MIN_GROWTH_NODES: usize = 64;

/// How the initial landmark set is chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LandmarkSelection {
    /// Use a greedy (approximately minimum) vertex cover — the choice of the
    /// paper's experiments. Queries are exact.
    VertexCover,
    /// Use the `count` highest-degree nodes. Queries are upper bounds unless
    /// the set happens to cover all shortest paths; this mirrors the
    /// "high-quality landmarks" discussion of Section 6.2 / Potamias et al.
    TopDegree(usize),
    /// Use an explicit, caller-provided landmark set. Ids that are not nodes
    /// of the graph, and repeats of an earlier id, are dropped, keeping the
    /// order of the rest.
    Explicit(Vec<NodeId>),
}

/// Landmark vector plus the distance vectors, in 64-lane node-major blocks.
#[derive(Debug, Clone)]
pub struct LandmarkIndex {
    landmarks: Vec<NodeId>,
    position: FastHashMap<NodeId, usize>,
    /// `from_blocks[b][v * 64 + lane]` = dis(lm_{64b+lane}, v) — the
    /// `distvt` entries.
    from_blocks: Vec<Vec<u32>>,
    /// `to_blocks[b][v * 64 + lane]` = dis(v, lm_{64b+lane}) — the `distvf`
    /// entries.
    to_blocks: Vec<Vec<u32>>,
    covering: bool,
    node_count: usize,
}

/// One landmark's distances inside its block, indexed by node as a dense row
/// would be: entry `v` is `block[v * 64 + lane]`. The incremental procedures
/// read and write a landmark's entries through it.
pub(crate) struct Lane<'a> {
    block: &'a mut [u32],
    lane: usize,
}

impl Index<usize> for Lane<'_> {
    type Output = u32;

    #[inline]
    fn index(&self, v: usize) -> &u32 {
        &self.block[v * LANES + self.lane]
    }
}

impl IndexMut<usize> for Lane<'_> {
    #[inline]
    fn index_mut(&mut self, v: usize) -> &mut u32 {
        &mut self.block[v * LANES + self.lane]
    }
}

/// The 64 entries of node `v` in `block`.
#[inline]
fn node_lanes(block: &[u32], v: NodeId) -> &[u32; LANES] {
    block[v.index() * LANES..][..LANES].try_into().expect("a node's lanes are one chunk")
}

/// Scratch of [`multi_source_bfs`]: three source masks per node (reached so
/// far, reached at the current level, reaching at the next) and the current
/// and next frontier lists, 24 bytes per node in all. A build keeps one per
/// thread and drops it when done.
#[derive(Default)]
struct MultiBfsScratch {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    current: Vec<NodeId>,
    upcoming: Vec<NodeId>,
}

/// One block's BFS runs at once, one per source (at most 64), all following
/// `direction` (multi-source BFS; Then et al., "The More the Merrier", VLDB
/// 2015). Every node carries the set of sources whose search reached it as
/// one `u64`, so the searches share each adjacency scan and each frontier.
/// Lane `i` of `block` becomes [`bfs_distances_dense`] from `sources[i]`:
/// `block[v * 64 + i]` is set to the hop distance of every node `v` the
/// search reaches, and every other entry is left as it was.
fn multi_source_bfs(
    graph: &DataGraph,
    sources: &[NodeId],
    direction: Direction,
    block: &mut [u32],
    scratch: &mut MultiBfsScratch,
) {
    let neighbours = |v: NodeId| match direction {
        Direction::Forward => graph.children(v),
        Direction::Backward => graph.parents(v),
    };
    let MultiBfsScratch { seen, frontier, next, current, upcoming } = scratch;
    for masks in [&mut *seen, &mut *frontier, &mut *next] {
        masks.clear();
        masks.resize(graph.node_count(), 0);
    }
    current.clear();
    upcoming.clear();
    for (lane, &source) in sources.iter().enumerate() {
        let s = source.index();
        if frontier[s] == 0 {
            current.push(source);
        }
        frontier[s] |= 1 << lane;
        seen[s] |= 1 << lane;
        block[s * LANES + lane] = 0;
    }
    let mut level = 0u32;
    while !current.is_empty() {
        level += 1;
        for &v in current.iter() {
            let reached = frontier[v.index()];
            for &w in neighbours(v) {
                let fresh = reached & !seen[w.index()];
                if fresh != 0 {
                    if next[w.index()] == 0 {
                        upcoming.push(w);
                    }
                    next[w.index()] |= fresh;
                    seen[w.index()] |= fresh;
                }
            }
        }
        for &v in current.iter() {
            frontier[v.index()] = 0;
        }
        for &w in upcoming.iter() {
            let mut lanes = std::mem::take(&mut next[w.index()]);
            frontier[w.index()] = lanes;
            let row = &mut block[w.index() * LANES..][..LANES];
            while lanes != 0 {
                row[lanes.trailing_zeros() as usize] = level;
                lanes &= lanes - 1;
            }
        }
        std::mem::swap(current, upcoming);
        upcoming.clear();
    }
}

impl LandmarkIndex {
    /// Builds the index from scratch ("BatchLM" in the experiments), running
    /// the per-block bit-parallel BFS pairs on [`configured_shards`] scoped
    /// threads when the index is large enough (see
    /// [`LandmarkIndex::build_with_shards`]).
    pub fn build(graph: &DataGraph, selection: LandmarkSelection) -> Self {
        Self::build_with_shards(graph, selection, configured_shards())
    }

    /// [`LandmarkIndex::build`] with an explicit shard count (`IGPM_SHARDS`
    /// and machine parallelism are ignored).
    ///
    /// Every block of 64 landmarks comes from one forward and one backward
    /// multi-source BFS over the (read-only) graph, independent of the other
    /// blocks, so whole blocks are handed to scoped threads, each with its
    /// own BFS scratch, and the result is bit-identical for every shard
    /// count. Threads are only spawned when there is more than one block and
    /// the entry volume (`|lm| · |V|`) is large enough to amortise them;
    /// `shards = 1` is the sequential build.
    pub fn build_with_shards(
        graph: &DataGraph,
        selection: LandmarkSelection,
        shards: usize,
    ) -> Self {
        let n = graph.node_count();
        let (mut landmarks, covering) = match selection {
            LandmarkSelection::VertexCover => (greedy_vertex_cover(graph), true),
            LandmarkSelection::TopDegree(count) => {
                let mut nodes: Vec<NodeId> = graph.nodes().collect();
                nodes.sort_unstable_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
                nodes.truncate(count);
                (nodes, false)
            }
            LandmarkSelection::Explicit(nodes) => (nodes, false),
        };
        // Ids outside the graph and duplicates (possible in an Explicit
        // selection) are dropped up front, keeping the first occurrence —
        // exactly what repeated `push_landmark` calls would do.
        let mut seen: FastHashSet<NodeId> = FastHashSet::default();
        landmarks.retain(|&lm| lm.index() < n && seen.insert(lm));

        let blocks = landmarks.len().div_ceil(LANES);
        let mut from_blocks = vec![Vec::new(); blocks];
        let mut to_blocks = vec![Vec::new(); blocks];
        let fill = |lms: &[NodeId], from: &mut [Vec<u32>], to: &mut [Vec<u32>]| {
            let mut scratch = MultiBfsScratch::default();
            for ((sources, from), to) in lms.chunks(LANES).zip(from).zip(to) {
                for (block, direction) in [(from, Direction::Forward), (to, Direction::Backward)] {
                    *block = vec![UNREACHABLE; n * LANES];
                    multi_source_bfs(graph, sources, direction, block, &mut scratch);
                }
            }
        };
        let shards = shards.clamp(1, MAX_SHARDS).min(blocks.max(1));
        if shards > 1 && landmarks.len().saturating_mul(n) >= PARALLEL_WORK_THRESHOLD {
            let per_shard = blocks.div_ceil(shards);
            let fill = &fill;
            std::thread::scope(|scope| {
                for ((lms, from), to) in landmarks
                    .chunks(per_shard * LANES)
                    .zip(from_blocks.chunks_mut(per_shard))
                    .zip(to_blocks.chunks_mut(per_shard))
                {
                    scope.spawn(move || fill(lms, from, to));
                }
            });
        } else {
            fill(&landmarks, &mut from_blocks, &mut to_blocks);
        }
        let position = landmarks.iter().enumerate().map(|(i, &lm)| (lm, i)).collect();
        LandmarkIndex { landmarks, position, from_blocks, to_blocks, covering, node_count: n }
    }

    /// Adds `lm` as a landmark and computes its distances with two BFS runs,
    /// filling the next free lane of the last block or opening a new block
    /// when that one is full. Returns `true` if it was added: `false` if it
    /// already is a landmark or is not a node of `graph`.
    pub fn push_landmark(&mut self, graph: &DataGraph, lm: NodeId) -> bool {
        if lm.index() >= graph.node_count() || self.position.contains_key(&lm) {
            return false;
        }
        self.ensure_node_capacity(graph.node_count());
        let lane = self.landmarks.len() % LANES;
        if lane == 0 {
            self.from_blocks.push(vec![UNREACHABLE; self.node_count * LANES]);
            self.to_blocks.push(vec![UNREACHABLE; self.node_count * LANES]);
        }
        self.position.insert(lm, self.landmarks.len());
        self.landmarks.push(lm);
        let (from, to) = (self.from_blocks.last_mut(), self.to_blocks.last_mut());
        for (block, direction) in [(from, Direction::Forward), (to, Direction::Backward)] {
            let mut row = Lane { block: block.expect("a block with a free lane"), lane };
            for (v, d) in bfs_distances_dense(graph, lm, direction).into_iter().enumerate() {
                row[v] = d;
            }
        }
        true
    }

    /// The landmark vector `lm`.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmarks `|lm|`.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// True if there are no landmarks.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// True if the landmark set is known to cover all shortest paths, making
    /// distance queries exact.
    pub fn is_covering(&self) -> bool {
        self.covering
    }

    /// True if `node` is a landmark.
    pub fn is_landmark(&self, node: NodeId) -> bool {
        self.position.contains_key(&node)
    }

    /// The number of data-graph nodes the index was built over.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Extends every block when the graph gained nodes since the index was
    /// built. New nodes are isolated until edge updates arrive, so all their
    /// lanes start [`UNREACHABLE`]; the covering invariant is untouched (a
    /// vertex cover stays a cover when isolated nodes are added). The
    /// incremental maintenance procedures call this before touching any
    /// entry, so indices never go out of bounds after node churn.
    ///
    /// A block that runs out of room is reallocated to exactly
    /// `max(node_count, n + max(⌈n / 8⌉, 64))` nodes, `n` the nodes it had
    /// room for: one added node costs at most an eighth more memory (or 64
    /// nodes' worth on a small graph), not the doubling of `Vec`'s own
    /// growth, and a run of single-node additions still copies each block
    /// only once per ⌈n / 8⌉ of them.
    pub fn ensure_node_capacity(&mut self, node_count: usize) {
        if node_count <= self.node_count {
            return;
        }
        for block in self.from_blocks.iter_mut().chain(self.to_blocks.iter_mut()) {
            let len = node_count * LANES;
            if len > block.capacity() {
                let room = block.capacity() / LANES;
                let target = node_count.max(room + room.div_ceil(8).max(MIN_GROWTH_NODES));
                block.reserve_exact(target * LANES - block.len());
            }
            block.resize(len, UNREACHABLE);
        }
        self.node_count = node_count;
    }

    /// The distance vector `distvf(v)`: distances from `v` to each landmark;
    /// all [`UNREACHABLE`] for a node outside the index.
    pub fn distvf(&self, v: NodeId) -> Vec<u32> {
        self.vector(&self.to_blocks, v)
    }

    /// The distance vector `distvt(v)`: distances from each landmark to `v`;
    /// all [`UNREACHABLE`] for a node outside the index.
    pub fn distvt(&self, v: NodeId) -> Vec<u32> {
        self.vector(&self.from_blocks, v)
    }

    /// Node `v`'s entries of `blocks`, one per landmark.
    fn vector(&self, blocks: &[Vec<u32>], v: NodeId) -> Vec<u32> {
        if v.index() >= self.node_count {
            return vec![UNREACHABLE; self.len()];
        }
        blocks.iter().flat_map(|block| node_lanes(block, v)).copied().take(self.len()).collect()
    }

    /// Landmark `i`'s entries `dis(lm_i, ·)`, for in-place maintenance.
    pub(crate) fn lane_from(&mut self, i: usize) -> Lane<'_> {
        Lane { block: &mut self.from_blocks[i / LANES], lane: i % LANES }
    }

    /// Landmark `i`'s entries `dis(·, lm_i)`, for in-place maintenance.
    pub(crate) fn lane_to(&mut self, i: usize) -> Lane<'_> {
        Lane { block: &mut self.to_blocks[i / LANES], lane: i % LANES }
    }

    /// The distance query `dist(v, v', lm)` of Section 6.2: the minimum over
    /// all landmarks of `distvf(v)[i] + distvt(v')[i]`, as one min-plus scan
    /// over `v`'s 64 `distvf` entries and `v'`'s 64 `distvt` entries per
    /// block. Sums are taken in `u32`, saturating at [`UNREACHABLE`]; a
    /// finite distance is below `|V|`, so the result is exact while
    /// `|V| < 2³¹`. A node outside the index reaches nothing and is reached
    /// by nothing: `None`.
    pub fn query(&self, from: NodeId, to: NodeId) -> Option<u32> {
        if from.index() >= self.node_count || to.index() >= self.node_count {
            return None;
        }
        if from == to {
            return Some(0);
        }
        let mut best = UNREACHABLE;
        for (to_lm, from_lm) in self.to_blocks.iter().zip(&self.from_blocks) {
            for (&a, &b) in node_lanes(to_lm, from).iter().zip(node_lanes(from_lm, to)) {
                best = best.min(a.saturating_add(b));
            }
        }
        (best != UNREACHABLE).then_some(best)
    }

    /// Approximate heap footprint in bytes (used by Fig. 20(b)): the blocks,
    /// slack lanes of the last one and room for added nodes included —
    /// `8 · |V| · 64 · ⌈|lm| / 64⌉` when built — plus the landmark vector
    /// and the landmark → position map (counted by capacity, one control
    /// byte per bucket).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let blocks: usize = self
            .from_blocks
            .iter()
            .chain(self.to_blocks.iter())
            .map(|block| block.capacity() * size_of::<u32>())
            .sum();
        blocks
            + self.landmarks.capacity() * size_of::<NodeId>()
            + self.position.capacity() * (size_of::<(NodeId, usize)>() + 1)
    }
}

impl DistanceOracle for LandmarkIndex {
    fn distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.query(from, to)
    }

    fn name(&self) -> &'static str {
        "landmark"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DistanceMatrix;
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

    #[test]
    fn vertex_cover_landmarks_are_exact() {
        for seed in 0..4 {
            let g = random_graph(30, 90, seed);
            let index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
            assert!(index.is_covering());
            let matrix = DistanceMatrix::build(&g);
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(
                        index.query(a, b),
                        matrix.distance(a, b),
                        "seed {seed}: mismatch at ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn top_degree_landmarks_are_upper_bounds() {
        let g = random_graph(40, 120, 11);
        let index = LandmarkIndex::build(&g, LandmarkSelection::TopDegree(5));
        assert!(!index.is_covering());
        assert_eq!(index.len(), 5);
        let matrix = DistanceMatrix::build(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                if let Some(est) = index.query(a, b) {
                    let exact = matrix.distance(a, b).expect("estimate implies reachability");
                    assert!(est >= exact, "estimate below exact at ({a}, {b})");
                }
            }
        }
    }

    #[test]
    fn explicit_landmarks_and_vectors() {
        // Path 0 -> 1 -> 2 with landmark 1 (a vertex cover of the path).
        let mut g = DataGraph::new();
        for i in 0..3 {
            g.add_node(Attributes::labeled(format!("v{i}")));
        }
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let index = LandmarkIndex::build(&g, LandmarkSelection::Explicit(vec![NodeId(1)]));
        assert_eq!(index.landmarks(), &[NodeId(1)]);
        assert!(index.is_landmark(NodeId(1)));
        assert!(!index.is_landmark(NodeId(0)));
        assert_eq!(index.distvf(NodeId(0)), vec![1], "dis(0, lm)");
        assert_eq!(index.distvt(NodeId(2)), vec![1], "dis(lm, 2)");
        assert_eq!(index.query(NodeId(0), NodeId(2)), Some(2));
        assert_eq!(index.query(NodeId(2), NodeId(0)), None);
        assert_eq!(index.query(NodeId(2), NodeId(2)), Some(0));
        assert_eq!(index.distance(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(index.name(), "landmark");
        assert_eq!(index.node_count(), 3);
        assert!(index.memory_bytes() > 0);
        assert!(!index.is_empty());
    }

    #[test]
    fn push_landmark_is_idempotent() {
        let g = random_graph(10, 20, 3);
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::Explicit(vec![NodeId(0)]));
        assert!(!index.push_landmark(&g, NodeId(0)));
        assert!(index.push_landmark(&g, NodeId(1)));
        assert_eq!(index.len(), 2);
    }

    /// 200 nodes: a random graph over the first 190, a chain through the
    /// last ten that nothing else reaches, and a self-loop on every 13th
    /// node.
    fn boundary_graph() -> DataGraph {
        let mut g = random_graph(190, 480, 0xb10c);
        for i in 190..200 {
            g.add_node(Attributes::labeled(format!("v{i}")));
        }
        for i in 190..199 {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        for i in (0..200).step_by(13) {
            g.add_edge(NodeId(i), NodeId(i));
        }
        g
    }

    /// Node `v`'s entries in every block of `index`, slack lanes included.
    fn all_lanes(index: &LandmarkIndex, v: usize) -> Vec<u32> {
        let v = NodeId(v as u32);
        index
            .from_blocks
            .iter()
            .chain(&index.to_blocks)
            .flat_map(|block| node_lanes(block, v).to_vec())
            .collect()
    }

    #[test]
    fn blocks_are_exact_on_both_sides_of_every_lane_boundary() {
        let g = boundary_graph();
        let n = g.node_count();
        let matrix = DistanceMatrix::build(&g);
        let cover = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        assert!(cover.len() > LANES, "the cover spans blocks ({} landmarks)", cover.len());
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(cover.query(a, b), matrix.distance(a, b), "({a}, {b})");
            }
        }
        for count in [0usize, 1, 63, 64, 65, 128, 129] {
            // 37 is coprime to 200: distinct landmarks spread over both parts.
            let lms: Vec<NodeId> = (0..count).map(|i| NodeId((i * 37 % n) as u32)).collect();
            let selection = LandmarkSelection::Explicit(lms.clone());
            let reference = LandmarkIndex::build_with_shards(&g, selection.clone(), 1);
            assert_eq!(reference.landmarks(), &lms[..]);
            assert!(reference.memory_bytes() >= 8 * n * LANES * count.div_ceil(LANES));
            let rows = |direction| -> Vec<Vec<u32>> {
                lms.iter().map(|&lm| bfs_distances_dense(&g, lm, direction)).collect()
            };
            let (forward, backward) = (rows(Direction::Forward), rows(Direction::Backward));
            for v in g.nodes() {
                let column = |rows: &[Vec<u32>]| -> Vec<u32> {
                    rows.iter().map(|row| row[v.index()]).collect()
                };
                assert_eq!(reference.distvt(v), column(&forward), "{count}: distvt({v})");
                assert_eq!(reference.distvf(v), column(&backward), "{count}: distvf({v})");
                // Lanes past the last landmark, on either side, are slack.
                let lanes = all_lanes(&reference, v.index());
                let per_side = lanes.len() / 2;
                for (i, &d) in lanes.iter().enumerate() {
                    if i % per_side >= count {
                        assert_eq!(d, UNREACHABLE, "{count}: slack entry {i} of {v}");
                    }
                }
            }
            for shards in [2, 3, 8] {
                let index = LandmarkIndex::build_with_shards(&g, selection.clone(), shards);
                assert_eq!(index.landmarks(), reference.landmarks(), "{count} at {shards}");
                for v in 0..n {
                    assert_eq!(
                        all_lanes(&index, v),
                        all_lanes(&reference, v),
                        "{count} at {shards}"
                    );
                }
            }
            let mut grown = reference.clone();
            grown.ensure_node_capacity(n + 5);
            assert_eq!(grown.node_count(), n + 5);
            for v in 0..n {
                assert_eq!(all_lanes(&grown, v), all_lanes(&reference, v), "{count}: node {v}");
            }
            for v in n..n + 5 {
                assert!(all_lanes(&grown, v).iter().all(|&d| d == UNREACHABLE), "{count}: {v}");
            }
        }
    }

    #[test]
    fn ids_outside_the_graph_never_become_landmarks() {
        let mut g = DataGraph::new();
        for i in 0..3 {
            g.add_node(Attributes::labeled(format!("v{i}")));
        }
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let selection = LandmarkSelection::Explicit(vec![NodeId(7), NodeId(1), NodeId(3)]);
        let index = LandmarkIndex::build(&g, selection);
        assert_eq!(index.landmarks(), &[NodeId(1)]);
        assert_eq!(index.query(NodeId(0), NodeId(2)), Some(2));
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::Explicit(vec![NodeId(7)]));
        assert!(index.is_empty());
        assert!(!index.push_landmark(&g, NodeId(9)));
        assert!(!index.push_landmark(&g, NodeId(3)));
        assert!(index.is_empty());
        assert!(index.push_landmark(&g, NodeId(1)));
        assert_eq!(index.query(NodeId(0), NodeId(2)), Some(2));
    }

    /// A graph of `bounded_stream`'s size: 1.7k nodes, 10k edges.
    fn stream_sized_graph() -> DataGraph {
        random_graph(1_700, 10_000, 0x5d)
    }

    #[test]
    fn ids_outside_the_index_are_unreachable() {
        let g = stream_sized_graph();
        let index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        let inside = NodeId(1);
        let n = g.node_count() as u32;
        for outside in [NodeId(n), NodeId(5000), NodeId(u32::MAX)] {
            assert_eq!(index.query(outside, inside), None, "query({outside}, {inside})");
            assert_eq!(index.query(inside, outside), None, "query({inside}, {outside})");
            assert_eq!(index.query(outside, outside), None, "query({outside}, {outside})");
            assert_eq!(index.distance(outside, inside), None, "distance({outside}, {inside})");
            assert_eq!(index.distance(inside, outside), None, "distance({inside}, {outside})");
            assert_eq!(index.distvf(outside), vec![UNREACHABLE; index.len()], "distvf");
            assert_eq!(index.distvt(outside), vec![UNREACHABLE; index.len()], "distvt");
        }
        assert_eq!(index.query(inside, inside), Some(0));
        assert_eq!(index.distvf(inside).len(), index.len());

        // A node the graph gained after the build is outside the index until
        // it is grown, and isolated afterwards.
        let mut grown = g.clone();
        let late = grown.add_node(Attributes::labeled("late"));
        let mut index = index;
        assert_eq!(index.query(late, inside), None);
        index.ensure_node_capacity(grown.node_count());
        assert_eq!(index.query(late, inside), None);
        assert_eq!(index.query(late, late), Some(0));
        assert_eq!(index.distvt(late), vec![UNREACHABLE; index.len()]);
    }

    #[test]
    fn one_added_node_grows_the_blocks_by_an_eighth() {
        let mut g = stream_sized_graph();
        let n = g.node_count();
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        let blocks = 2 * index.len().div_ceil(LANES);
        let block_bytes = |nodes: usize| blocks * nodes * LANES * std::mem::size_of::<u32>();
        let built = index.memory_bytes();
        let other = built - block_bytes(n);
        assert!(other < built / 100, "a built index is its blocks, exactly sized");

        g.add_node(Attributes::labeled("late"));
        index.ensure_node_capacity(g.node_count());
        let grown = index.memory_bytes();
        assert_eq!(grown, block_bytes(n + n.div_ceil(8)) + other, "room for ⌈n/8⌉ more nodes");
        assert!((grown - built) as f64 <= built as f64 * 0.126, "{built} → {grown} bytes");

        // The next ⌈n/8⌉ − 1 nodes fit without a reallocation.
        for _ in 1..n.div_ceil(8) {
            g.add_node(Attributes::labeled("late"));
            index.ensure_node_capacity(g.node_count());
        }
        assert_eq!(index.memory_bytes(), grown);
    }

    #[test]
    fn example_6_2_friendfeed_style_vectors() {
        // A small analogue of Example 6.2: Ann -> Pat -> Bill, Dan -> Pat,
        // with landmarks {Ann, Dan, Pat}.
        let mut g = DataGraph::new();
        let ann = g.add_node(Attributes::labeled("Ann"));
        let dan = g.add_node(Attributes::labeled("Dan"));
        let pat = g.add_node(Attributes::labeled("Pat"));
        let bill = g.add_node(Attributes::labeled("Bill"));
        g.add_edge(ann, pat);
        g.add_edge(dan, pat);
        g.add_edge(pat, bill);
        let index = LandmarkIndex::build(&g, LandmarkSelection::Explicit(vec![ann, dan, pat]));
        // dis(Dan, Bill) = 2 found through the landmark Pat.
        assert_eq!(index.query(dan, bill), Some(2));
        assert_eq!(index.distvf(dan), vec![UNREACHABLE, 0, 1]);
        assert_eq!(index.distvt(bill), vec![2, 2, 1]);
    }
}

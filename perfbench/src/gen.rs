//! Seeded inputs: data graphs, patterns and update streams.
//!
//! Everything here is a pure function of the `--seed` argument, and the
//! library only ever sees the generated values. Streams are valid *in
//! sequence*: every insertion adds an absent edge and every deletion removes
//! a present one, given every earlier update of the stream, so strict
//! validation never rejects a batch. Deletions pick a uniformly random
//! present edge in O(1) from an indexed edge set; insertions draw their
//! endpoints from a degree-biased pool, as preferential attachment does.

use igpm_graph::{
    AttrValue, Attributes, BatchUpdate, CompareOp, DataGraph, EdgeBound, FastHashMap, NodeId,
    Pattern, Predicate, Update,
};

/// SplitMix64: small, fast and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_1b9a_7e11)
    }

    /// A generator for one named purpose, independent of the others drawn
    /// from the same seed.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut rng = Rng::new(seed);
        rng.0 ^= purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Shape of a generated data graph. Nodes carry a `label` (`l0`, `l1`, …)
/// and an integer weight `w` in `0..1000`.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    pub nodes: usize,
    pub edges: usize,
    pub labels: usize,
    /// Share of edge endpoints drawn from the degree-biased pool (the rest
    /// are uniform), in the graph and in its update stream. A strong bias
    /// grows hubs; for simulation patterns their labels then decide how
    /// costly a pattern is, several-fold from seed to seed.
    pub bias: f64,
}

/// The edges present in a graph, indexed so that a uniformly random one can
/// be drawn and removed in O(1).
#[derive(Debug, Clone, Default)]
pub struct EdgeSet {
    edges: Vec<(u32, u32)>,
    position: FastHashMap<(u32, u32), u32>,
}

impl EdgeSet {
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn contains(&self, edge: (u32, u32)) -> bool {
        self.position.contains_key(&edge)
    }

    /// Adds an absent edge; returns false if it was present.
    pub fn insert(&mut self, edge: (u32, u32)) -> bool {
        if self.position.contains_key(&edge) {
            return false;
        }
        self.position.insert(edge, self.edges.len() as u32);
        self.edges.push(edge);
        true
    }

    /// Removes a present edge (swap-remove); returns false if it was absent.
    pub fn remove(&mut self, edge: (u32, u32)) -> bool {
        let Some(at) = self.position.remove(&edge) else { return false };
        let last = self.edges.pop().expect("a present edge implies a non-empty list");
        if last != edge {
            self.edges[at as usize] = last;
            self.position.insert(last, at);
        }
        true
    }

    pub fn sample(&self, rng: &mut Rng) -> (u32, u32) {
        self.edges[rng.below(self.edges.len())]
    }
}

/// Generates a graph and the indexed edge set that mirrors it.
pub fn graph(spec: GraphSpec, rng: &mut Rng) -> (DataGraph, Stream) {
    let mut graph = DataGraph::with_capacity(spec.nodes, spec.edges);
    for _ in 0..spec.nodes {
        let label = format!("l{}", rng.below(spec.labels));
        graph.add_node(Attributes::labeled(label).with("w", rng.below(1000) as i64));
    }
    let mut stream =
        Stream { nodes: spec.nodes, bias: spec.bias, edges: EdgeSet::default(), pool: Vec::new() };
    // A random backbone keeps the graph weakly connected; preferential
    // attachment then skews the degrees.
    for v in 1..spec.nodes {
        let u = rng.below(v);
        let edge = if rng.chance(0.5) { (v as u32, u as u32) } else { (u as u32, v as u32) };
        stream.add(&mut graph, edge);
    }
    while stream.edges.len() < spec.edges {
        let edge = stream.fresh_edge(rng);
        stream.add(&mut graph, edge);
    }
    (graph, stream)
}

/// A stream of valid updates over a graph whose edges it mirrors.
#[derive(Debug, Clone)]
pub struct Stream {
    nodes: usize,
    bias: f64,
    edges: EdgeSet,
    /// Every endpoint of every inserted edge, once per insertion — the
    /// degree-biased sampling pool.
    pool: Vec<u32>,
}

impl Stream {
    fn add(&mut self, graph: &mut DataGraph, edge: (u32, u32)) {
        if self.edges.insert(edge) {
            graph.add_edge(NodeId(edge.0), NodeId(edge.1));
            self.pool.extend([edge.0, edge.1]);
        }
    }

    fn endpoint(&self, rng: &mut Rng) -> u32 {
        if !self.pool.is_empty() && rng.chance(self.bias) {
            self.pool[rng.below(self.pool.len())]
        } else {
            rng.below(self.nodes) as u32
        }
    }

    /// An absent, non-loop edge with degree-biased endpoints.
    fn fresh_edge(&self, rng: &mut Rng) -> (u32, u32) {
        loop {
            let edge = (self.endpoint(rng), self.endpoint(rng));
            if edge.0 != edge.1 && !self.edges.contains(edge) {
                return edge;
            }
        }
    }

    /// Inserts a fresh edge into the mirrored state.
    fn insertion(&mut self, rng: &mut Rng) -> Update {
        let edge = self.fresh_edge(rng);
        self.edges.insert(edge);
        self.pool.extend([edge.0, edge.1]);
        Update::insert(NodeId(edge.0), NodeId(edge.1))
    }

    /// Deletes a uniformly random present edge from the mirrored state.
    fn deletion(&mut self, rng: &mut Rng) -> Update {
        let edge = self.edges.sample(rng);
        self.edges.remove(edge);
        Update::delete(NodeId(edge.0), NodeId(edge.1))
    }

    /// A batch of `ops` updates, half insertions and half deletions in
    /// random order.
    pub fn mixed(&mut self, rng: &mut Rng, ops: usize) -> BatchUpdate {
        let mut inserts = ops / 2 + ops % 2;
        let mut deletes = ops / 2;
        let mut batch = BatchUpdate::new();
        while inserts + deletes > 0 {
            if deletes == 0 || (inserts > 0 && rng.chance(0.5)) {
                inserts -= 1;
                batch.push(self.insertion(rng));
            } else {
                deletes -= 1;
                batch.push(self.deletion(rng));
            }
        }
        batch
    }

    /// A submission of the durable stream: one insertion and one deletion.
    pub fn submission(&mut self, rng: &mut Rng) -> BatchUpdate {
        let mut batch = BatchUpdate::new();
        batch.push(self.insertion(rng));
        batch.push(self.deletion(rng));
        batch
    }
}

/// Shape of a generated simulation pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A directed cycle through every node (a general, cyclic pattern).
    Cyclic,
    /// A chain with a forward chord: a DAG.
    Dag,
}

/// The frozen shape of one simulation pattern: everything but its labels,
/// so that workloads stay comparable across seeds.
#[derive(Debug, Clone, Copy)]
pub struct PatternSlot {
    pub shape: Shape,
    /// 2–4 nodes.
    pub nodes: usize,
    /// The predicate every node carries on `w`, besides its label.
    pub op: CompareOp,
    pub cut: i64,
}

/// `count` distinct labels out of `labels`, in random order. Patterns whose
/// nodes carry distinct labels are alike up to renaming, and labels are
/// uniform over the nodes, so every seed draws equally costly patterns.
fn distinct_labels(rng: &mut Rng, labels: usize, count: usize) -> Vec<String> {
    let mut all: Vec<usize> = (0..labels).collect();
    for i in 0..count {
        let j = i + rng.below(labels - i);
        all.swap(i, j);
    }
    all[..count].iter().map(|l| format!("l{l}")).collect()
}

/// A normal pattern in the slot's shape, its nodes carrying distinct random
/// labels and the slot's predicate on `w`. A cyclic pattern is a directed
/// cycle through every node; a DAG is a chain plus the chord 0 → 2.
pub fn sim_pattern(rng: &mut Rng, labels: usize, slot: PatternSlot) -> Pattern {
    let mut pattern = Pattern::new();
    let ids: Vec<_> = distinct_labels(rng, labels, slot.nodes)
        .into_iter()
        .map(|label| pattern.add_node(Predicate::label(label).and("w", slot.op, slot.cut)))
        .collect();
    for pair in ids.windows(2) {
        pattern.add_normal_edge(pair[0], pair[1]);
    }
    match slot.shape {
        Shape::Cyclic => pattern.add_normal_edge(ids[slot.nodes - 1], ids[0]),
        Shape::Dag if slot.nodes >= 3 => pattern.add_normal_edge(ids[0], ids[2]),
        Shape::Dag => {}
    }
    pattern
}

/// Candidates of every b-pattern node. The refresh cost grows with the
/// product of candidate counts, so drawing windows of fixed width let it
/// differ by a third between seeds; a window of fixed rank fixes it.
const BOUNDED_CANDIDATES: usize = 64;

/// A b-pattern with the parameters of the paper's Fig. 19: 4 nodes, 5
/// edges, 3 predicates per node, every edge bounded by k = 3 hops,
/// DAG-shaped. Each node has a distinct random label and a window on `w`
/// that [`BOUNDED_CANDIDATES`] consecutive weights of that label's nodes
/// span, at a random rank.
pub fn bounded_pattern(rng: &mut Rng, graph: &DataGraph, labels: usize) -> Pattern {
    let mut pattern = Pattern::new();
    let ids: Vec<_> = distinct_labels(rng, labels, 4)
        .into_iter()
        .map(|label| {
            let mut weights: Vec<i64> = graph
                .nodes()
                .map(|v| graph.attrs(v))
                .filter(|attrs| attrs.label() == Some(label.as_str()))
                .filter_map(|attrs| match attrs.get("w") {
                    Some(AttrValue::Int(w)) => Some(*w),
                    _ => None,
                })
                .collect();
            weights.sort_unstable();
            let span = BOUNDED_CANDIDATES.min(weights.len() - 1);
            let first = rng.below(weights.len() - span);
            let (low, high) = (weights[first], weights[first + span]);
            pattern.add_node(Predicate::label(label).and("w", CompareOp::Ge, low).and(
                "w",
                CompareOp::Lt,
                high,
            ))
        })
        .collect();
    for (from, to) in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)] {
        pattern.add_edge(ids[from], ids[to], EdgeBound::Hops(3));
    }
    pattern
}

#[cfg(test)]
mod tests {
    use super::*;
    use igpm_graph::validate_batch;

    #[test]
    fn generated_streams_validate_with_zero_rejections() {
        let mut rng = Rng::stream(7, 1);
        let spec = GraphSpec { nodes: 400, edges: 2000, labels: 4, bias: 0.7 };
        let (mut graph, mut stream) = graph(spec, &mut rng);
        assert_eq!(graph.node_count(), 400);
        assert_eq!(graph.edge_count(), 2000);
        let mut batches: Vec<BatchUpdate> = (0..200).map(|_| stream.submission(&mut rng)).collect();
        batches.extend((0..50).map(|_| stream.mixed(&mut rng, 37)));
        for batch in &batches {
            assert!(validate_batch(&graph, batch).is_empty(), "stream batch was rejected");
            batch.apply(&mut graph);
        }
        assert_eq!(graph.edge_count(), 2000 + 50);
        assert_eq!(graph.edge_count(), stream.edges.len());
        for &(from, to) in &stream.edges.edges {
            assert!(graph.has_edge(NodeId(from), NodeId(to)));
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let spec = GraphSpec { nodes: 300, edges: 1200, labels: 6, bias: 0.3 };
        let make = |seed| {
            let mut rng = Rng::stream(seed, 1);
            let (graph, mut stream) = graph(spec, &mut rng);
            let batch = stream.mixed(&mut rng, 20);
            let slot = PatternSlot { shape: Shape::Cyclic, nodes: 3, op: CompareOp::Ge, cut: 300 };
            let pattern = sim_pattern(&mut rng, 6, slot);
            (graph.edges().collect::<Vec<_>>(), batch, pattern.to_string())
        };
        assert_eq!(make(3), make(3));
        assert_ne!(make(3).0, make(4).0);
    }

    #[test]
    fn pattern_shapes() {
        let mut rng = Rng::new(11);
        for nodes in 2..=4 {
            let slot = PatternSlot { shape: Shape::Cyclic, nodes, op: CompareOp::Lt, cut: 500 };
            let cyclic = sim_pattern(&mut rng, 4, slot);
            assert!(cyclic.is_normal() && !cyclic.is_dag());
            assert_eq!((cyclic.node_count(), cyclic.edge_count()), (nodes, nodes));
            let dag = sim_pattern(&mut rng, 4, PatternSlot { shape: Shape::Dag, ..slot });
            assert!(dag.is_normal() && dag.is_dag());
        }
        let (g, _) = graph(GraphSpec { nodes: 1000, edges: 4000, labels: 8, bias: 0.7 }, &mut rng);
        let b = bounded_pattern(&mut rng, &g, 8);
        assert_eq!((b.node_count(), b.edge_count()), (4, 5));
        assert!(b.is_dag() && !b.is_normal());
    }

    #[test]
    fn edge_set_samples_and_removes() {
        let mut set = EdgeSet::default();
        for i in 0..10u32 {
            assert!(set.insert((i, i + 1)));
        }
        assert!(!set.insert((3, 4)));
        let mut rng = Rng::new(1);
        while set.len() > 0 {
            let edge = set.sample(&mut rng);
            assert!(set.remove(edge));
            assert!(!set.contains(edge));
        }
        assert!(!set.remove((0, 1)));
    }
}

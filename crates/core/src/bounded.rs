//! Bounded simulation matching: the `Match` algorithm (Section 3, Fig. 3).
//!
//! Given a b-pattern `P` and a data graph `G`, `Match` computes the unique
//! maximum relation `S ⊆ V_p × V` such that every pair satisfies the node
//! predicate and every pattern edge `(u, u')` maps to a nonempty path from the
//! matched node to a match of `u'` whose length respects the edge bound
//! (Section 2.2). The implementation mirrors the structure of Fig. 3:
//!
//! 1. candidate sets `mat(u)` are initialised from the node predicates (plus
//!    the out-degree check of line 6);
//! 2. for every pattern edge and every candidate pair, the distance condition
//!    is evaluated once through a [`DistanceOracle`] (this is the role of the
//!    `anc`/`desc` sets and the auxiliary matrix `X'` in the paper);
//! 3. candidates whose support for some pattern edge drops to zero are removed
//!    and the removal propagates to their ancestors, exactly like the
//!    `premv`-driven refinement loop of lines 8–17.
//!
//! The distance oracle is pluggable, giving the three `Match` variants of
//! Exp-2 (`Matrix+Match`, `BFS+Match`, `2-hop+Match`) plus the landmark-based
//! oracle whose distance vectors incremental bounded simulation maintains.
//! Incremental bounded simulation's own cold-start build
//! ([`crate::BoundedIndex`]) queries no oracle: it derives the step-2 pairs
//! from one bounded BFS per source candidate.

use crate::simulation::candidates;
use crate::stats::AffStats;
use igpm_distance::{satisfies_bound, BfsOracle, DistanceMatrix, DistanceOracle, TwoHopLabels};
use igpm_graph::hash::{FastHashMap, FastHashSet};
use igpm_graph::{DataGraph, MatchRelation, NodeId, Pattern, PatternNodeId, ResultGraph};

/// Computes the maximum bounded simulation `M^k_sim(P, G)` using `oracle` for
/// distance queries. Returns the empty relation when `P ⋬_bsim G`.
pub fn match_bounded<O: DistanceOracle + ?Sized>(
    pattern: &Pattern,
    graph: &DataGraph,
    oracle: &O,
) -> MatchRelation {
    match_bounded_with_stats(pattern, graph, oracle).0
}

/// [`match_bounded`] variant that also reports refinement statistics.
pub fn match_bounded_with_stats<O: DistanceOracle + ?Sized>(
    pattern: &Pattern,
    graph: &DataGraph,
    oracle: &O,
) -> (MatchRelation, AffStats) {
    let np = pattern.node_count();
    let mut stats = AffStats::default();

    // Line 5-6 of Fig. 3: mat(u) = candidates with the out-degree check.
    let mut mat: Vec<FastHashSet<NodeId>> = candidates(pattern, graph)
        .into_iter()
        .enumerate()
        .map(|(u_idx, list)| {
            let u = PatternNodeId::from_index(u_idx);
            list.into_iter()
                .filter(|&v| pattern.out_degree(u) == 0 || graph.out_degree(v) > 0)
                .collect()
        })
        .collect();
    if mat.iter().any(FastHashSet::is_empty) {
        return (MatchRelation::empty(np), stats);
    }

    // For each pattern edge e = (u, u') and each v ∈ mat(u):
    //   support[e][v]     = |{v' ∈ mat(u') : bound satisfied}|   (matrix X' of Fig. 3)
    //   supporters[e][v'] = {v ∈ mat(u) whose support includes v'}
    let edge_count = pattern.edge_count();
    let mut support: Vec<FastHashMap<NodeId, u32>> = vec![FastHashMap::default(); edge_count];
    let mut supporters: Vec<FastHashMap<NodeId, Vec<NodeId>>> =
        vec![FastHashMap::default(); edge_count];
    let mut worklist: Vec<(PatternNodeId, NodeId)> = Vec::new();

    for (e_idx, edge) in pattern.edges().iter().enumerate() {
        let sources: Vec<NodeId> = mat[edge.from.index()].iter().copied().collect();
        let targets: Vec<NodeId> = mat[edge.to.index()].iter().copied().collect();
        for &v in &sources {
            let mut count = 0u32;
            for &w in &targets {
                if satisfies_bound(graph, oracle, v, w, edge.bound) {
                    count += 1;
                    supporters[e_idx].entry(w).or_default().push(v);
                }
            }
            support[e_idx].insert(v, count);
            if count == 0 {
                worklist.push((edge.from, v));
            }
        }
    }

    // Refinement loop (lines 8-17 of Fig. 3).
    while let Some((u, v)) = worklist.pop() {
        if !mat[u.index()].remove(&v) {
            continue;
        }
        stats.nodes_visited += 1;
        stats.aux_changes += 1;
        if mat[u.index()].is_empty() {
            return (MatchRelation::empty(np), stats);
        }
        // v no longer matches u: every candidate that relied on v as a witness
        // for a pattern edge (u'', u) loses one unit of support.
        for (e_idx, edge) in pattern.edges().iter().enumerate() {
            if edge.to != u {
                continue;
            }
            if let Some(list) = supporters[e_idx].get(&v) {
                for &p in list {
                    if !mat[edge.from.index()].contains(&p) {
                        continue;
                    }
                    let counter = support[e_idx].get_mut(&p).expect("support initialised");
                    *counter -= 1;
                    if *counter == 0 {
                        worklist.push((edge.from, p));
                    }
                }
            }
        }
    }

    let relation = MatchRelation::from_lists(mat.into_iter().map(|set| set.into_iter().collect()));
    (relation, stats)
}

/// `Matrix+Match`: builds an all-pairs distance matrix and runs `Match` on it
/// (the configuration of Fig. 3 line 1 / Fig. 17 "Matrix+Match").
pub fn match_bounded_with_matrix(pattern: &Pattern, graph: &DataGraph) -> MatchRelation {
    let matrix = DistanceMatrix::build(graph);
    match_bounded(pattern, graph, &matrix)
}

/// `BFS+Match`: answers distance queries with bounded breadth-first searches,
/// the variant that scales to graphs too large for a matrix (Fig. 17(c,d)).
pub fn match_bounded_with_bfs(pattern: &Pattern, graph: &DataGraph) -> MatchRelation {
    let oracle = BfsOracle::with_cache(graph, 4096);
    match_bounded(pattern, graph, &oracle)
}

/// `2-hop+Match`: answers distance queries with a 2-hop label cover
/// (Fig. 17(a,b) "2-hop+Match").
pub fn match_bounded_with_two_hop(pattern: &Pattern, graph: &DataGraph) -> MatchRelation {
    let labels = TwoHopLabels::build(graph);
    match_bounded(pattern, graph, &labels)
}

/// Builds the result graph `G_r` of a bounded-simulation match: one edge
/// `(v, v')` per pattern edge `(u, u')` whose bound is satisfied by a nonempty
/// path from `v ∈ match(u)` to `v' ∈ match(u')` (Section 4, "Result graphs").
pub fn build_result_graph<O: DistanceOracle + ?Sized>(
    pattern: &Pattern,
    graph: &DataGraph,
    oracle: &O,
    matches: &MatchRelation,
) -> ResultGraph {
    let mut result = ResultGraph::new();
    for (_, v) in matches.pairs() {
        result.add_node(v);
    }
    for (e_idx, edge) in pattern.edges().iter().enumerate() {
        for &v in matches.matches(edge.from) {
            for &w in matches.matches(edge.to) {
                if satisfies_bound(graph, oracle, v, w, edge.bound) {
                    result.add_edge(v, w, e_idx as u32);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::match_simulation;
    use igpm_distance::{LandmarkIndex, LandmarkSelection};
    use igpm_graph::{Attributes, CompareOp, EdgeBound, Predicate};

    /// The drug-trafficking pattern P0 and ring G0 of Fig. 1 / Example 2.2.
    ///
    /// Returns `(pattern, graph, ams, workers)` where `ams = [A1, A2, A3]`
    /// (A3 doubles as the secretary) and `workers` are the field workers.
    fn drug_ring() -> (Pattern, DataGraph, Vec<NodeId>, Vec<NodeId>) {
        let mut p = Pattern::new();
        let b = p.add_node(Predicate::any().and_eq("role", "B"));
        let am = p.add_node(Predicate::any().and_eq("am", true));
        let s = p.add_node(Predicate::any().and_eq("s", true));
        let fw = p.add_node(Predicate::any().and_eq("role", "W"));
        p.add_edge(b, am, EdgeBound::ONE);
        p.add_edge(am, b, EdgeBound::ONE);
        p.add_edge(b, s, EdgeBound::ONE);
        p.add_edge(s, fw, EdgeBound::Hops(1));
        p.add_edge(am, fw, EdgeBound::Hops(3));
        p.add_edge(fw, am, EdgeBound::Hops(3));

        let mut g = DataGraph::new();
        let boss = g.add_node(Attributes::new().with("role", "B"));
        let a1 = g.add_node(Attributes::new().with("role", "AM").with("am", true));
        let a2 = g.add_node(Attributes::new().with("role", "AM").with("am", true));
        let a3 = g.add_node(Attributes::new().with("role", "AM").with("am", true).with("s", true));
        let w: Vec<NodeId> = (0..6)
            .map(|i| g.add_node(Attributes::new().with("role", "W").with("idx", i as i64)))
            .collect();
        for &a in &[a1, a2, a3] {
            g.add_edge(boss, a);
            g.add_edge(a, boss);
        }
        // A1 supervises a 3-level chain w0 -> w1 -> w2 reporting back to A1.
        g.add_edge(a1, w[0]);
        g.add_edge(w[0], w[1]);
        g.add_edge(w[1], w[2]);
        g.add_edge(w[2], a1);
        // A2 supervises a 2-level chain.
        g.add_edge(a2, w[3]);
        g.add_edge(w[3], w[4]);
        g.add_edge(w[4], a2);
        // A3 (also the secretary) supervises a single top-level worker.
        g.add_edge(a3, w[5]);
        g.add_edge(w[5], a3);
        (p, g, vec![a1, a2, a3], w)
    }

    #[test]
    fn example_1_1_drug_ring_is_found_by_bounded_simulation() {
        let (p, g, ams, workers) = drug_ring();
        let matrix = DistanceMatrix::build(&g);
        let m = match_bounded(&p, &g, &matrix);
        assert!(m.is_total());
        assert_eq!(m.matches(PatternNodeId(0)), &[NodeId(0)], "only the boss matches B");
        assert_eq!(m.matches(PatternNodeId(1)), ams.as_slice(), "all assistant managers match AM");
        assert_eq!(
            m.matches(PatternNodeId(2)),
            &[ams[2]],
            "the AM doubling as secretary matches S"
        );
        assert_eq!(
            m.matches(PatternNodeId(3)),
            workers.as_slice(),
            "every field worker matches FW"
        );
    }

    #[test]
    fn drug_ring_is_missed_by_plain_simulation() {
        // Example 1.1(3): the AM -> FW supervision spans up to 3 hops, so the
        // edge-to-edge semantics of graph simulation cannot identify the whole
        // ring: deep field workers and their managers are lost.
        let (p, g, ams, workers) = drug_ring();
        let normal = p.as_normal();
        let m = match_simulation(&normal, &g);
        assert!(!m.contains(PatternNodeId(1), ams[0]), "A1 only reaches its workers via paths");
        assert!(
            !m.contains(PatternNodeId(3), workers[0]),
            "third-level workers are invisible to simulation"
        );
        // Bounded simulation captures both (checked in the companion test);
        // plain simulation finds strictly fewer pairs.
        let bounded = match_bounded_with_matrix(&p, &g);
        assert!(m.pair_count() < bounded.pair_count());
    }

    #[test]
    fn bounds_are_enforced_hop_by_hop() {
        // a -> x1 -> x2 -> b: pattern edge (A, B) with bound 2 fails, bound 3 matches.
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("A");
        let x1 = g.add_labeled_node("X");
        let x2 = g.add_labeled_node("X");
        let b = g.add_labeled_node("B");
        g.add_edge(a, x1);
        g.add_edge(x1, x2);
        g.add_edge(x2, b);

        for (bound, expect_match) in [(2u32, false), (3u32, true)] {
            let mut p = Pattern::new();
            let pa = p.add_labeled_node("A");
            let pb = p.add_labeled_node("B");
            p.add_edge(pa, pb, EdgeBound::Hops(bound));
            let m = match_bounded_with_matrix(&p, &g);
            assert_eq!(m.is_total(), expect_match, "bound {bound}");
        }
    }

    #[test]
    fn unbounded_edges_use_reachability() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("A");
        let mid: Vec<NodeId> = (0..10).map(|_| g.add_labeled_node("X")).collect();
        let b = g.add_labeled_node("B");
        let c = g.add_labeled_node("B"); // unreachable B
        g.add_edge(a, mid[0]);
        for w in mid.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g.add_edge(*mid.last().unwrap(), b);
        let _ = c;

        let mut p = Pattern::new();
        let pa = p.add_labeled_node("A");
        let pb = p.add_labeled_node("B");
        p.add_edge(pa, pb, EdgeBound::Unbounded);
        let m = match_bounded_with_matrix(&p, &g);
        assert!(m.is_total());
        // Both B nodes match the childless pattern node B, but only the A node
        // with an (unbounded) path to a B matches A.
        assert_eq!(m.matches(pb), &[b, c]);
        assert_eq!(m.matches(pa), &[a]);
    }

    #[test]
    fn agrees_with_simulation_on_normal_patterns() {
        let mut g = DataGraph::new();
        let labels = ["CTO", "DB", "Bio", "DB", "CTO", "Bio", "Med"];
        let nodes: Vec<NodeId> = labels.iter().map(|l| g.add_labeled_node(*l)).collect();
        for (a, b) in [(0, 1), (1, 0), (1, 2), (0, 2), (3, 5), (4, 3), (3, 4), (6, 5), (4, 6)] {
            g.add_edge(nodes[a], nodes[b]);
        }
        let mut p = Pattern::new();
        let cto = p.add_labeled_node("CTO");
        let db = p.add_labeled_node("DB");
        let bio = p.add_labeled_node("Bio");
        p.add_normal_edge(cto, db);
        p.add_normal_edge(db, cto);
        p.add_normal_edge(db, bio);

        let sim = match_simulation(&p, &g);
        let bsim = match_bounded_with_matrix(&p, &g);
        assert_eq!(sim, bsim, "bounded simulation degenerates to simulation on normal patterns");
    }

    #[test]
    fn all_oracles_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..4 {
            let n = 40;
            let mut g = DataGraph::new();
            for i in 0..n {
                let label = format!("l{}", i % 5);
                g.add_node(Attributes::labeled(label).with("w", (i * 13 % 97) as i64));
            }
            for _ in 0..n * 3 {
                let a = NodeId(rng.gen_range(0..n) as u32);
                let b = NodeId(rng.gen_range(0..n) as u32);
                if a != b {
                    g.add_edge(a, b);
                }
            }
            let mut p = Pattern::new();
            let u0 = p.add_node(Predicate::label("l0"));
            let u1 = p.add_node(Predicate::label("l1"));
            let u2 = p.add_node(Predicate::any().and("w", CompareOp::Ge, 10));
            p.add_edge(u0, u1, EdgeBound::Hops(2));
            p.add_edge(u1, u2, EdgeBound::Hops(3));
            p.add_edge(u2, u0, EdgeBound::Unbounded);

            let via_matrix = match_bounded_with_matrix(&p, &g);
            let via_bfs = match_bounded_with_bfs(&p, &g);
            let via_two_hop = match_bounded_with_two_hop(&p, &g);
            let landmarks = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
            let via_landmarks = match_bounded(&p, &g, &landmarks);
            assert_eq!(via_matrix, via_bfs, "case {case}: BFS disagrees");
            assert_eq!(via_matrix, via_two_hop, "case {case}: 2-hop disagrees");
            assert_eq!(via_matrix, via_landmarks, "case {case}: landmarks disagree");
        }
    }

    #[test]
    fn empty_when_predicates_select_nothing() {
        let (_, g, _, _) = drug_ring();
        let mut p = Pattern::new();
        let a = p.add_node(Predicate::any().and_eq("role", "B"));
        let ghost = p.add_node(Predicate::any().and_eq("role", "Ghost"));
        p.add_edge(a, ghost, EdgeBound::Hops(2));
        assert!(match_bounded_with_matrix(&p, &g).is_empty());
    }

    #[test]
    fn out_degree_zero_candidates_are_pruned() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("A");
        let b = g.add_labeled_node("B");
        let lonely = g.add_labeled_node("A"); // no outgoing edge
        g.add_edge(a, b);
        let _ = lonely;
        let mut p = Pattern::new();
        let pa = p.add_labeled_node("A");
        let pb = p.add_labeled_node("B");
        p.add_edge(pa, pb, EdgeBound::Hops(2));
        let m = match_bounded_with_matrix(&p, &g);
        assert_eq!(m.matches(pa), &[a]);
    }

    #[test]
    fn cyclic_pattern_over_cyclic_graph() {
        // Pattern u <->(2) w over a 4-cycle: every node participates.
        let mut g = DataGraph::new();
        let nodes: Vec<NodeId> = (0..4).map(|_| g.add_labeled_node("a")).collect();
        for i in 0..4 {
            g.add_edge(nodes[i], nodes[(i + 1) % 4]);
        }
        let mut p = Pattern::new();
        let u = p.add_labeled_node("a");
        let w = p.add_labeled_node("a");
        p.add_edge(u, w, EdgeBound::Hops(2));
        p.add_edge(w, u, EdgeBound::Hops(2));
        let m = match_bounded_with_matrix(&p, &g);
        assert_eq!(m.matches(u).len(), 4);
        assert_eq!(m.matches(w).len(), 4);
    }

    #[test]
    fn worst_case_cycle_pattern_on_path_has_no_match() {
        // Remark after Theorem 3.1: a two-node cycle pattern against an
        // all-`a` path exercises the quadratic refinement and yields ∅.
        let mut g = DataGraph::new();
        let nodes: Vec<NodeId> = (0..12).map(|_| g.add_labeled_node("a")).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let mut p = Pattern::new();
        let u = p.add_labeled_node("a");
        let w = p.add_labeled_node("a");
        p.add_edge(u, w, EdgeBound::ONE);
        p.add_edge(w, u, EdgeBound::ONE);
        let (m, stats) = match_bounded_with_stats(&p, &g, &DistanceMatrix::build(&g));
        assert!(m.is_empty());
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn result_graph_reflects_edge_to_path_mappings() {
        let (p, g, ams, workers) = drug_ring();
        let matrix = DistanceMatrix::build(&g);
        let m = match_bounded(&p, &g, &matrix);
        let gr = build_result_graph(&p, &g, &matrix, &m);
        // A1 supervises w2 within 3 hops even though there is no direct edge.
        assert!(gr.has_edge(ams[0], workers[2]));
        // ... but not w4, which sits 4 hops away through the boss and A2.
        assert!(!gr.has_edge(ams[0], workers[4]));
        // The boss reaches its AMs in one hop.
        assert!(gr.has_edge(NodeId(0), ams[1]));
        assert_eq!(gr.node_count(), 1 + 3 + 6);
    }
}

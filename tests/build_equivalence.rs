//! Cold-start build equivalence suite.
//!
//! The parallel builds claim to be **bit-identical for every shard count** —
//! membership masks, support counters, pair sets, cached matches and build
//! `AffStats` alike (`SimulationIndex::build_with_shards`,
//! `BoundedIndex::build_with_shards`, `LandmarkIndex::build_with_shards`).
//! This is the cold-start mirror of `tests/parallel_batch.rs`: every index
//! type is constructed under shard counts {1, 2, 3, 8} on identical inputs
//! and the raw auxiliary state is compared byte for byte (hash-backed
//! structures as sorted tuples), with shards = 1 as the sequential reference.
//!
//! Comparing builds with one another cannot see a pair that every build
//! drops alike, so the b-pattern pair sets are also checked against brute
//! force: every `cand(from) × cand(to)` pair whose bound the all-pairs
//! distance matrix satisfies, for standalone and in-service builds, on graphs
//! with self-loops and 2-cycles and patterns whose adjacent nodes share a
//! predicate (so reflexive pairs occur), under bounds 1, 2, 3, `*` and 0.
//!
//! Degenerate inputs get their own cases under shards {1, 4}: the empty
//! graph, a pattern no node satisfies, a single-node SCC pattern (self-loop),
//! and a graph larger than the thread-spawn threshold, so the fan-out branch
//! of the build is exercised and proven identical too.
//!
//! The candidate-scan layer below the builds gets its own section: the
//! shard-buildable `LabelIndex` (per-range buckets merged in node order,
//! `ensure_node_capacity` growth under node churn) and the sharded
//! `candidates_with_shards` enumeration must be byte-identical to their
//! sequential counterparts for every shard count and every predicate
//! strategy (pure label bucket, label-atom filter, full predicate scan).

use igpm::core::{candidates_with_shards, match_bounded_with_matrix};
use igpm::distance::satisfies_bound;
use igpm::graph::LabelIndex;
use igpm::prelude::*;
use std::sync::Arc;

const BUILD_SHARDS: [usize; 4] = [1, 2, 3, 8];

/// Builds a [`SimulationIndex`] under every shard count and asserts raw-state
/// bit-identity against the sequential build, plus agreement with the
/// from-scratch batch algorithm.
fn assert_sim_build_equivalent(pattern: &Pattern, graph: &DataGraph, context: &str) {
    let reference = SimulationIndex::build_with_shards(pattern, graph, 1);
    assert_eq!(
        reference.matches(),
        igpm::core::match_simulation(pattern, graph),
        "{context}: sequential build diverged from match_simulation"
    );
    for shards in BUILD_SHARDS {
        let index = SimulationIndex::build_with_shards(pattern, graph, shards);
        assert_eq!(
            index.aux_snapshot(),
            reference.aux_snapshot(),
            "{context}: masks/counters diverged at shards={shards}"
        );
        assert_eq!(
            index.matches(),
            reference.matches(),
            "{context}: match relation diverged at shards={shards}"
        );
        assert_eq!(
            index.build_stats(),
            reference.build_stats(),
            "{context}: build AffStats diverged at shards={shards}"
        );
    }
}

/// Builds a [`BoundedIndex`] under every shard count and asserts raw-state
/// bit-identity (masks, pair sets, support counters) against the sequential
/// build, plus agreement with the from-scratch batch algorithm.
fn assert_bounded_build_equivalent(pattern: &Pattern, graph: &DataGraph, context: &str) {
    let reference = BoundedIndex::build_with_shards(pattern, graph, 1);
    assert_eq!(
        reference.matches(),
        match_bounded_with_matrix(pattern, graph),
        "{context}: sequential build diverged from match_bounded"
    );
    for shards in BUILD_SHARDS {
        let index = BoundedIndex::build_with_shards(pattern, graph, shards);
        assert_eq!(
            index.aux_snapshot(),
            reference.aux_snapshot(),
            "{context}: masks/pairs/support diverged at shards={shards}"
        );
        assert_eq!(
            index.matches(),
            reference.matches(),
            "{context}: match relation diverged at shards={shards}"
        );
        assert_eq!(
            index.build_stats(),
            reference.build_stats(),
            "{context}: build AffStats diverged at shards={shards}"
        );
        assert_eq!(
            index.landmarks().landmarks(),
            reference.landmarks().landmarks(),
            "{context}: landmark vector diverged at shards={shards}"
        );
    }
}

/// Builds a [`LandmarkIndex`] under every shard count and asserts the
/// landmark vector and every distance row identical to the sequential build.
fn assert_landmark_build_equivalent(
    graph: &DataGraph,
    selection: LandmarkSelection,
    context: &str,
) {
    let reference = LandmarkIndex::build_with_shards(graph, selection.clone(), 1);
    for shards in BUILD_SHARDS {
        let index = LandmarkIndex::build_with_shards(graph, selection.clone(), shards);
        assert_eq!(
            index.landmarks(),
            reference.landmarks(),
            "{context}: landmark vector diverged at shards={shards}"
        );
        assert_eq!(index.is_covering(), reference.is_covering(), "{context}");
        for v in graph.nodes() {
            assert_eq!(
                index.distvf(v),
                reference.distvf(v),
                "{context}: distvf({v}) diverged at shards={shards}"
            );
            assert_eq!(
                index.distvt(v),
                reference.distvt(v),
                "{context}: distvt({v}) diverged at shards={shards}"
            );
        }
    }
}

#[test]
fn simulation_builds_are_bit_identical() {
    for (shape, seed) in [(PatternShape::General, 0x31u64), (PatternShape::Dag, 0x32)] {
        let graph = synthetic_graph(&SyntheticConfig::new(300, 1_050, 4, seed + 1));
        let pattern = generate_pattern(
            &graph,
            &PatternGenConfig::normal(5, 8, 1, seed + 2).with_shape(shape),
        );
        assert_sim_build_equivalent(&pattern, &graph, &format!("{shape:?} seed {seed}"));
    }
}

#[test]
fn bounded_builds_are_bit_identical() {
    for (shape, seed) in [(PatternShape::General, 0x41u64), (PatternShape::Dag, 0x42)] {
        let graph = synthetic_graph(&SyntheticConfig::new(90, 280, 4, seed + 1));
        let pattern = generate_pattern(
            &graph,
            &PatternGenConfig::new(4, 5, 1, 2, seed + 2).with_shape(shape),
        );
        assert_bounded_build_equivalent(&pattern, &graph, &format!("{shape:?} seed {seed}"));
    }
}

#[test]
fn landmark_builds_are_bit_identical() {
    // 220 nodes with a vertex cover of over a hundred landmarks spans two
    // 64-landmark blocks and crosses the |lm|·|V| spawn threshold, so the
    // threaded branch runs and must agree.
    let graph = synthetic_graph(&SyntheticConfig::new(220, 700, 4, 0x51));
    let cover = LandmarkIndex::build_with_shards(&graph, LandmarkSelection::VertexCover, 1);
    assert!(cover.len() > 64, "the cover spans blocks ({} landmarks)", cover.len());
    assert_landmark_build_equivalent(&graph, LandmarkSelection::VertexCover, "vertex cover");
    assert_landmark_build_equivalent(&graph, LandmarkSelection::TopDegree(24), "top degree");
    // An explicit selection with duplicates: dedup must keep first occurrence
    // identically in both the sequential and the fanned-out path.
    let lms: Vec<NodeId> = (0..40).map(|i| NodeId(i % 25)).collect();
    assert_landmark_build_equivalent(&graph, LandmarkSelection::Explicit(lms), "explicit dup");
    // One landmark past a full block: the second block has a single lane.
    let lms: Vec<NodeId> = (0..65).map(|i| NodeId(i * 3)).collect();
    assert_landmark_build_equivalent(&graph, LandmarkSelection::Explicit(lms), "explicit 65");
}

#[test]
fn built_indexes_behave_identically_afterwards() {
    // Bit-identity must extend behaviourally: indexes built under different
    // shard counts, driven by the same batch, report identical stats and land
    // on identical state.
    let graph = synthetic_graph(&SyntheticConfig::new(250, 900, 4, 0x61));
    let pattern = generate_pattern(
        &graph,
        &PatternGenConfig::normal(5, 8, 1, 0x62).with_shape(PatternShape::General),
    );
    let batch = mixed_batch(&graph, 60, 60, 0x63);
    let mut reference_graph = graph.clone();
    let mut reference = SimulationIndex::build_with_shards(&pattern, &graph, 1);
    let reference_stats = reference.apply_batch_with_shards(&mut reference_graph, &batch, 1);
    for shards in BUILD_SHARDS {
        let mut g = graph.clone();
        let mut index = SimulationIndex::build_with_shards(&pattern, &graph, shards);
        let stats = index.apply_batch_with_shards(&mut g, &batch, shards);
        assert_eq!(stats, reference_stats, "batch stats diverged after shards={shards} build");
        assert_eq!(g, reference_graph);
        assert_eq!(index.aux_snapshot(), reference.aux_snapshot(), "shards={shards}");
    }
}

// ----------------------------------------------------------------------
// Pair sets against brute force (shards {1, 2, 3, 8})
// ----------------------------------------------------------------------

/// The satisfied pairs of every pattern edge by brute force: each
/// `(e, v, w)` over `cand(from) × cand(to)` whose bound some nonempty path
/// satisfies, by the all-pairs distance matrix.
fn brute_force_pairs(pattern: &Pattern, graph: &DataGraph) -> Vec<(u32, u32, u32)> {
    let matrix = DistanceMatrix::build(graph);
    let cands = candidates_with_shards(pattern, graph, 1);
    let mut pairs = Vec::new();
    for (e_idx, edge) in pattern.edges().iter().enumerate() {
        for &v in &cands[edge.from.index()] {
            for &w in &cands[edge.to.index()] {
                if satisfies_bound(graph, &matrix, v, w, edge.bound) {
                    pairs.push((e_idx as u32, v.0, w.0));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// A seeded two-label graph with self-loops and 2-cycles, so candidates
/// reach themselves around cycles of every length from 1 up.
fn cyclic_two_label_graph(seed: u64) -> DataGraph {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 60usize;
    let mut graph = DataGraph::new();
    for v in 0..n {
        graph.add_labeled_node(if v % 3 == 2 { "b" } else { "a" });
    }
    for v in (0..n).step_by(7) {
        graph.add_edge(NodeId(v as u32), NodeId(v as u32));
    }
    for _ in 0..12 {
        let a = NodeId(rng.gen_range(0..n) as u32);
        let b = NodeId(rng.gen_range(0..n) as u32);
        graph.add_edge(a, b);
        graph.add_edge(b, a);
    }
    for _ in 0..90 {
        let a = NodeId(rng.gen_range(0..n) as u32);
        let b = NodeId(rng.gen_range(0..n) as u32);
        graph.add_edge(a, b);
    }
    graph
}

/// Two `a` nodes in a 2-cycle, a `b` node with a self-loop, and edges
/// between them, every edge carrying `bounds[i % bounds.len()]`: adjacent
/// pattern nodes share a predicate, so reflexive pairs `(v, v)` occur.
fn shared_predicate_pattern(bounds: &[EdgeBound]) -> Pattern {
    let mut pattern = Pattern::new();
    let a0 = pattern.add_labeled_node("a");
    let a1 = pattern.add_labeled_node("a");
    let b = pattern.add_labeled_node("b");
    for (i, (from, to)) in [(a0, a1), (a1, a0), (a1, b), (b, b), (b, a0)].into_iter().enumerate() {
        pattern.add_edge(from, to, bounds[i % bounds.len()]);
    }
    pattern
}

#[test]
fn pair_sets_equal_brute_force_bound_checks() {
    // `Hops(0)` is admitted by no path (`EdgeBound::admits`), so its edges
    // must carry no pair at all.
    let hops0 = EdgeBound::Hops(0);
    let bound_sets: [&[EdgeBound]; 6] = [
        &[EdgeBound::Hops(1)],
        &[EdgeBound::Hops(2)],
        &[EdgeBound::Hops(3)],
        &[EdgeBound::Unbounded],
        &[hops0],
        &[EdgeBound::Hops(1), EdgeBound::Hops(2), EdgeBound::Hops(3), EdgeBound::Unbounded, hops0],
    ];
    for seed in [0x91u64, 0x92] {
        let graph = cyclic_two_label_graph(seed);
        for bounds in bound_sets {
            let pattern = shared_predicate_pattern(bounds);
            let context = format!("seed {seed:#x}, bounds {bounds:?}");
            let expected = brute_force_pairs(&pattern, &graph);
            if bounds == [hops0] {
                assert!(expected.is_empty(), "{context}: Hops(0) admitted a pair");
            } else {
                assert!(
                    expected.iter().any(|&(_, v, w)| v == w),
                    "{context}: no reflexive pair, the case is vacuous"
                );
            }
            for shards in BUILD_SHARDS {
                let standalone = BoundedIndex::build_with_shards(&pattern, &graph, shards);
                assert_eq!(
                    standalone.aux_snapshot().pairs,
                    expected,
                    "{context}: standalone build pairs at shards={shards}"
                );
                let mut shared = BoundedIndex::shared_build(&graph, shards);
                let lists: Vec<Arc<Vec<NodeId>>> = candidates_with_shards(&pattern, &graph, shards)
                    .into_iter()
                    .map(Arc::new)
                    .collect();
                let in_service =
                    BoundedIndex::build_in_service(&pattern, &graph, &mut shared, &lists, shards)
                        .expect("pattern fits the masks");
                assert_eq!(
                    in_service.aux_snapshot().pairs,
                    expected,
                    "{context}: in-service build pairs at shards={shards}"
                );
                assert_eq!(in_service.aux_snapshot(), standalone.aux_snapshot(), "{context}");
                assert_eq!(in_service.build_stats(), standalone.build_stats(), "{context}");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Degenerate builds (shards {1, 4})
// ----------------------------------------------------------------------

const DEGENERATE_SHARDS: [usize; 2] = [1, 4];

#[test]
fn empty_graph_builds() {
    let graph = DataGraph::new();
    let mut pattern = Pattern::new();
    let a = pattern.add_labeled_node("a");
    let b = pattern.add_labeled_node("b");
    pattern.add_normal_edge(a, b);
    for shards in DEGENERATE_SHARDS {
        let index = SimulationIndex::build_with_shards(&pattern, &graph, shards);
        assert!(!index.is_match(), "empty graph matches nothing (shards={shards})");
        assert_eq!(index.matches(), MatchRelation::empty(2));
        let bounded = BoundedIndex::build_with_shards(&pattern, &graph, shards);
        assert!(!bounded.is_match());
        let lm = LandmarkIndex::build_with_shards(&graph, LandmarkSelection::VertexCover, shards);
        assert!(lm.is_empty());
    }
    assert_sim_build_equivalent(&pattern, &graph, "empty graph");
    assert_bounded_build_equivalent(&pattern, &graph, "empty graph");
}

#[test]
fn pattern_with_no_label_matches_builds() {
    let graph = synthetic_graph(&SyntheticConfig::new(120, 360, 4, 0x71));
    let mut pattern = Pattern::new();
    let ghost = pattern.add_labeled_node("no-such-label");
    let other = pattern.add_labeled_node("also-missing");
    pattern.add_normal_edge(ghost, other);
    for shards in DEGENERATE_SHARDS {
        let index = SimulationIndex::build_with_shards(&pattern, &graph, shards);
        assert!(!index.is_match(), "shards={shards}");
        assert_eq!(index.build_stats(), AffStats::default(), "nothing to demote");
        let bounded = BoundedIndex::build_with_shards(&pattern, &graph, shards);
        assert!(!bounded.is_match(), "shards={shards}");
    }
    assert_sim_build_equivalent(&pattern, &graph, "no label matches");
    assert_bounded_build_equivalent(&pattern, &graph, "no label matches");
}

#[test]
fn single_node_scc_pattern_builds() {
    // A one-node pattern with a self-loop is a nontrivial SCC: a data node
    // matches iff it lies on an all-`a` cycle. Build over a graph that has
    // both an `a`-cycle and an `a`-path feeding into it.
    let mut pattern = Pattern::new();
    let u = pattern.add_labeled_node("a");
    pattern.add_normal_edge(u, u);

    let mut graph = DataGraph::new();
    let cycle: Vec<NodeId> = (0..5).map(|_| graph.add_labeled_node("a")).collect();
    for i in 0..cycle.len() {
        graph.add_edge(cycle[i], cycle[(i + 1) % cycle.len()]);
    }
    let path: Vec<NodeId> = (0..4).map(|_| graph.add_labeled_node("a")).collect();
    for w in path.windows(2) {
        graph.add_edge(w[0], w[1]);
    }
    graph.add_edge(*path.last().unwrap(), cycle[0]);

    for shards in DEGENERATE_SHARDS {
        let index = SimulationIndex::build_with_shards(&pattern, &graph, shards);
        // Node ids ascend cycle-then-path, so the chained list is sorted.
        assert_eq!(
            index.match_set(u),
            cycle.iter().chain(path.iter()).copied().collect::<Vec<_>>(),
            "every node reaching the cycle simulates the self-loop (shards={shards})"
        );
    }
    assert_sim_build_equivalent(&pattern, &graph, "single-node SCC");
    assert_bounded_build_equivalent(&pattern, &graph, "single-node SCC");
}

#[test]
fn build_crossing_the_thread_spawn_threshold_is_identical() {
    // 6000 nodes > PARALLEL_WORK_THRESHOLD (4096): the sharded build actually
    // spawns its scoped threads for seeding/derivation, and the mass demotion
    // drain floods the round machinery. A single-label cyclic pattern keeps
    // every node a candidate so the arrays are fully populated.
    let mut graph = DataGraph::new();
    let n = 6_000usize;
    for _ in 0..n {
        graph.add_labeled_node("a");
    }
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x81);
    let mut added = 0usize;
    while added < 18_000 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && graph.add_edge(NodeId(a as u32), NodeId(b as u32)) {
            added += 1;
        }
    }
    let mut pattern = Pattern::new();
    let u1 = pattern.add_labeled_node("a");
    let u2 = pattern.add_labeled_node("a");
    pattern.add_normal_edge(u1, u2);
    pattern.add_normal_edge(u2, u1);

    let reference = SimulationIndex::build_with_shards(&pattern, &graph, 1);
    for shards in DEGENERATE_SHARDS {
        let index = SimulationIndex::build_with_shards(&pattern, &graph, shards);
        assert_eq!(index.aux_snapshot(), reference.aux_snapshot(), "shards={shards}");
        assert_eq!(index.build_stats(), reference.build_stats(), "shards={shards}");
        assert_eq!(index.matches(), reference.matches(), "shards={shards}");
    }
    assert_eq!(
        reference.matches(),
        igpm::core::match_simulation(&pattern, &graph),
        "threaded build diverged from from-scratch recomputation"
    );
}

// ----------------------------------------------------------------------
// Candidate-scan layer: LabelIndex + sharded candidate enumeration
// ----------------------------------------------------------------------

/// A graph past the thread-spawn threshold with adversarial label layout:
/// labels reused in interleaved runs (so shard boundaries fall inside label
/// runs), periodic unlabeled nodes, and a secondary attribute for the
/// label-atom and full-scan predicate strategies.
fn label_churn_graph(n: usize) -> DataGraph {
    let mut graph = DataGraph::new();
    for v in 0..n {
        if v % 11 == 7 {
            graph.add_node(Attributes::new().with("kind", "anon").with("rank", (v % 5) as i64));
        } else {
            graph.add_node(
                Attributes::labeled(format!("l{}", v % 7))
                    .with("kind", "plain")
                    .with("rank", (v % 5) as i64),
            );
        }
    }
    graph
}

#[test]
fn label_index_sharded_builds_are_byte_identical() {
    let n = 3 * igpm::graph::shard::PARALLEL_WORK_THRESHOLD + 137;
    let graph = label_churn_graph(n);
    let reference = LabelIndex::build_with_shards(&graph, 1);
    for shards in BUILD_SHARDS {
        let index = LabelIndex::build_with_shards(&graph, shards);
        assert_eq!(index, reference, "LabelIndex diverged at shards={shards}");
        assert_eq!(index.snapshot(), reference.snapshot(), "snapshot diverged at shards={shards}");
        // Enumeration-order determinism: every bucket strictly ascending.
        for (label, nodes) in index.buckets() {
            assert!(
                nodes.windows(2).all(|w| w[0] < w[1]),
                "bucket {label} lost node order at shards={shards}"
            );
        }
    }
}

#[test]
fn label_index_growth_equals_fresh_build_under_node_churn() {
    // Build sharded, grow through interleaved churn (reused labels, new
    // labels, unlabeled nodes), and require exact equality with a fresh
    // build of the final graph at every step — growth must never be
    // distinguishable from having built later.
    let mut graph = label_churn_graph(600);
    let mut grown = LabelIndex::build_with_shards(&graph, 3);
    for step in 0..40 {
        match step % 4 {
            0 => graph.add_labeled_node(format!("l{}", step % 7)),
            1 => graph.add_labeled_node(format!("fresh-{step}")),
            2 => graph.add_node(Attributes::new().with("kind", "anon")),
            _ => graph.add_labeled_node("l0"),
        };
        grown.ensure_node_capacity(&graph);
        for shards in BUILD_SHARDS {
            assert_eq!(
                grown,
                LabelIndex::build_with_shards(&graph, shards),
                "step {step}: grown index diverged from fresh shards={shards} build"
            );
        }
    }
    assert_eq!(grown.covered_nodes(), graph.node_count());
}

#[test]
fn candidate_scans_are_identical_for_every_shard_count() {
    let n = 2 * igpm::graph::shard::PARALLEL_WORK_THRESHOLD + 61;
    let graph = label_churn_graph(n);
    // One pattern node per enumeration strategy: pure label bucket,
    // label-atom filter over the bucket, and the full `O(|V|)` predicate
    // scan (no label atom) — the stage this PR shards.
    let mut pattern = Pattern::new();
    let bucket = pattern.add_node(Predicate::label("l3"));
    let filtered = pattern.add_node(Predicate::label("l5").and_eq("rank", 2i64));
    let scanned = pattern.add_node(Predicate::any().and_eq("kind", "anon"));
    pattern.add_normal_edge(bucket, filtered);
    pattern.add_normal_edge(filtered, scanned);

    let reference = candidates_with_shards(&pattern, &graph, 1);
    assert!(!reference[bucket.index()].is_empty(), "bucket strategy found nothing");
    assert!(!reference[filtered.index()].is_empty(), "filter strategy found nothing");
    assert!(!reference[scanned.index()].is_empty(), "scan strategy found nothing");
    for lists in &reference {
        assert!(lists.windows(2).all(|w| w[0] < w[1]), "sequential scan lost node order");
    }
    for shards in BUILD_SHARDS {
        assert_eq!(
            candidates_with_shards(&pattern, &graph, shards),
            reference,
            "candidate lists diverged at shards={shards}"
        );
    }
}

//! Adversarial SCC-churn suite for the sharded `propCC` path.
//!
//! The generic conformance/parallel-batch streams hit `propCC` incidentally;
//! this suite is engineered to hit it *constantly and in its worst shapes*.
//! Every stream below repeatedly splits and merges strongly connected
//! components of the **data graph** under **cyclic patterns**, so the
//! SCC-joint evaluation — now sharded: speculative read-only evaluation on
//! scoped threads, verdicts committed in enumeration order, dirty fallback
//! after a promoting commit (`sim.rs::prop_cc`, `bsim.rs::promote_sccs`) —
//! runs on almost every batch, flipping between "promote everything" and
//! "eliminate everything":
//!
//! * **cycle chords** inserted and deleted inside rings (sub-cycles appear
//!   and disappear without touching ring membership);
//! * **bridges** between rings removed and re-inserted, with reverse bridges
//!   toggled so whole rings merge into one SCC and split apart again;
//! * **self-loops** toggled on individual nodes (single-node SCCs flicker in
//!   and out of existence — the `is_nontrivial` edge case);
//! * ring edges themselves removed (an SCC degrades to a path) and restored;
//! * fresh nodes spliced *into* a ring mid-stream (node churn that joins an
//!   SCC, exercising `ensure_node_capacity` → candidate-scan parity).
//!
//! Patterns cover one-node self-loop SCCs, single multi-node SCCs and — the
//! case that exercises the speculative multi-SCC fan-out and its dirty
//! fallback — patterns with **two** nontrivial SCCs joined by a bridge edge.
//!
//! Every batch is applied in lockstep to replicas at shard counts
//! {1, 2, 3, 8}; after each batch the suite asserts byte-identical auxiliary
//! state (masks + support counters), identical `AffStats`,
//! adjacency-identical graphs, and agreement with a from-scratch
//! recomputation. One stream runs on a > `PARALLEL_WORK_THRESHOLD`-node graph
//! so the scoped-thread branches actually spawn. A bounded-simulation mirror
//! drives `promote_sccs` through the same churn on a smaller graph. The
//! multi-SCC stream and the bridge storm also pin their summed work
//! counters to constants, so a rewrite that changed the algorithm's work at
//! every shard count alike would still fail.

use igpm::core::{match_bounded_with_matrix, match_simulation};
use igpm::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// A ring-of-rings graph: `rings` directed cycles of `ring_len` nodes, ring
/// `r` bridged to ring `r+1` (last ring back to the first), node labels
/// cycling through `labels`. Every ring is a nontrivial SCC; the forward
/// bridges chain them; adding reverse bridges merges neighbouring rings into
/// one SCC, deleting forward bridges splits the chain.
struct RingWorld {
    graph: DataGraph,
    rings: Vec<Vec<NodeId>>,
}

fn ring_world(rings: usize, ring_len: usize, labels: usize) -> RingWorld {
    let mut graph = DataGraph::new();
    let mut all = Vec::with_capacity(rings);
    for _ in 0..rings {
        let ring: Vec<NodeId> = (0..ring_len)
            .map(|_| graph.add_labeled_node(format!("l{}", graph.node_count() % labels)))
            .collect();
        for i in 0..ring_len {
            graph.add_edge(ring[i], ring[(i + 1) % ring_len]);
        }
        all.push(ring);
    }
    for r in 0..rings {
        let next = (r + 1) % rings;
        graph.add_edge(all[r][0], all[next][0]);
    }
    RingWorld { graph, rings: all }
}

/// One churn update aimed at SCC structure: chords, bridges (forward and
/// reverse), self-loops, ring-edge removal/restoration. Deletes flip to
/// insertions (and vice versa) when the edge is already in the target state,
/// so long streams keep oscillating instead of saturating.
fn churn_update(rng: &mut StdRng, world: &RingWorld, graph: &DataGraph) -> Option<Update> {
    let rings = &world.rings;
    let pick_ring = rng.gen_range(0..rings.len());
    let ring = &rings[pick_ring];
    let toggle = |graph: &DataGraph, a: NodeId, b: NodeId| {
        if graph.has_edge(a, b) {
            Update::delete(a, b)
        } else {
            Update::insert(a, b)
        }
    };
    match rng.gen_range(0..5u32) {
        // Chord inside a ring: a back edge (j → i, i < j) closing a sub-cycle.
        0 => {
            let i = rng.gen_range(0..ring.len() - 1);
            let j = rng.gen_range(i + 1..ring.len());
            Some(toggle(graph, ring[j], ring[i]))
        }
        // Forward bridge between neighbouring rings: deleting splits the
        // SCC chain, re-inserting heals it.
        1 => {
            let next = &rings[(pick_ring + 1) % rings.len()];
            Some(toggle(graph, ring[0], next[0]))
        }
        // Reverse bridge: inserting merges two rings into one SCC.
        2 => {
            let next = &rings[(pick_ring + 1) % rings.len()];
            Some(toggle(graph, next[rng.gen_range(0..next.len())], ring[0]))
        }
        // Self-loop on a random node: a single-node SCC flickers.
        3 => {
            let v = ring[rng.gen_range(0..ring.len())];
            Some(toggle(graph, v, v))
        }
        // Ring edge itself: the ring SCC degrades to a path and back.
        _ => {
            let i = rng.gen_range(0..ring.len());
            Some(toggle(graph, ring[i], ring[(i + 1) % ring.len()]))
        }
    }
}

/// A cyclic pattern whose shape is chosen by `kind`:
/// * 0 — one-node self-loop SCC (`l0 → l0` on itself);
/// * 1 — a single 3-node SCC over three labels, plus a non-SCC out-edge;
/// * 2 — **two** nontrivial SCCs (two 2-cycles) joined by a bridge edge —
///   the multi-SCC case whose speculative evaluation order matters.
fn churn_pattern(kind: usize) -> Pattern {
    let mut p = Pattern::new();
    match kind {
        0 => {
            let a = p.add_labeled_node("l0");
            p.add_normal_edge(a, a);
        }
        1 => {
            let a = p.add_labeled_node("l0");
            let b = p.add_labeled_node("l1");
            let c = p.add_labeled_node("l2");
            p.add_normal_edge(a, b);
            p.add_normal_edge(b, c);
            p.add_normal_edge(c, a);
            let d = p.add_labeled_node("l1");
            p.add_normal_edge(a, d);
        }
        _ => {
            let a = p.add_labeled_node("l0");
            let b = p.add_labeled_node("l1");
            p.add_normal_edge(a, b);
            p.add_normal_edge(b, a);
            let c = p.add_labeled_node("l2");
            let d = p.add_labeled_node("l0");
            p.add_normal_edge(c, d);
            p.add_normal_edge(d, c);
            // Bridge between the SCCs: Tarjan enumerates the downstream
            // component first, so promotions there feed the upstream one —
            // exactly the cross-SCC flow the dirty fallback must reproduce.
            p.add_normal_edge(b, c);
        }
    }
    p
}

/// The work counters of an [`AffStats`] record that measure how much the
/// algorithm did, as `(nodes_visited, counter_updates, matches_added,
/// matches_removed)`.
fn work(stats: AffStats) -> (usize, usize, usize, usize) {
    (stats.nodes_visited, stats.counter_updates, stats.matches_added, stats.matches_removed)
}

/// Drives one replica per shard count through the same churn stream and
/// checks bit-identity + from-scratch agreement after every batch.
/// `grow_every > 0` splices a fresh node into a ring between batches.
/// Returns the 1-shard replica's [`AffStats`] summed over the stream.
fn drive_scc_churn(
    world: &RingWorld,
    pattern: &Pattern,
    seed: u64,
    total: usize,
    grow_every: usize,
    context: &str,
) -> AffStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut replicas: Vec<(DataGraph, SimulationIndex)> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let graph = world.graph.clone();
            let index = SimulationIndex::build_with_shards(pattern, &graph, shards);
            (graph, index)
        })
        .collect();
    // The builds themselves must already agree (sharded candidate scan).
    for (i, &shards) in SHARD_COUNTS.iter().enumerate().skip(1) {
        assert_eq!(
            replicas[i].1.aux_snapshot(),
            replicas[0].1.aux_snapshot(),
            "{context}: build diverged at shards={shards}"
        );
    }

    let mut applied = 0usize;
    let mut round = 0usize;
    let mut summed = AffStats::default();
    let mut pending_splice: Option<(NodeId, NodeId, NodeId)> = None;
    while applied < total {
        round += 1;
        let batch_size = [1usize, 7, 33, 101][round % 4];
        let mut batch = BatchUpdate::new();
        if let Some((fresh, prev, next)) = pending_splice.take() {
            // Splice the fresh node into the ring: prev → fresh → next (the
            // old prev → next edge is deleted in the same batch, so the node
            // lands *inside* the cycle).
            batch.insert(prev, fresh);
            batch.insert(fresh, next);
            batch.delete(prev, next);
        }
        while batch.len() < batch_size {
            match churn_update(&mut rng, world, &replicas[0].0) {
                Some(update) => batch.push(update),
                None => break,
            }
        }
        if batch.is_empty() {
            continue;
        }
        applied += batch.len();

        let mut reference_stats: Option<ApplyOutcome> = None;
        for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
            let (graph, index) = &mut replicas[i];
            let stats = index.apply_batch_with_shards(graph, &batch, shards);
            match &reference_stats {
                None => reference_stats = Some(stats),
                Some(reference) => assert_eq!(
                    stats, *reference,
                    "{context}, round {round}: AffStats diverged at shards={shards}"
                ),
            }
        }
        summed.merge(reference_stats.expect("SHARD_COUNTS is not empty").stats);
        let (reference_graph, reference_index) = {
            let (g, idx) = &replicas[0];
            (g.clone(), idx.aux_snapshot())
        };
        for (i, &shards) in SHARD_COUNTS.iter().enumerate().skip(1) {
            let (graph, index) = &replicas[i];
            assert!(
                graph.identical_to(&reference_graph),
                "{context}, round {round}: graph diverged at shards={shards}"
            );
            assert_eq!(
                index.aux_snapshot(),
                reference_index,
                "{context}, round {round}: aux state diverged at shards={shards}"
            );
        }
        let expected = match_simulation(pattern, &reference_graph);
        assert_eq!(
            replicas[0].1.matches(),
            expected,
            "{context}, round {round}: diverged from from-scratch recomputation"
        );

        if grow_every > 0 && round.is_multiple_of(grow_every) {
            // A fresh node with a ring label, spliced in by the next batch.
            let ring = &world.rings[round % world.rings.len()];
            let pos = round % ring.len();
            let label = {
                let (graph, _) = &replicas[0];
                graph.attrs(ring[pos]).label().expect("ring nodes are labeled").to_string()
            };
            let mut fresh = NodeId(0);
            for (graph, index) in replicas.iter_mut() {
                fresh = graph.add_node(Attributes::labeled(label.clone()));
                // The index observes the node through the next batch; nothing
                // to do here — `ensure_node_capacity` runs inside apply_batch.
                let _ = index;
            }
            pending_splice = Some((fresh, ring[pos], ring[(pos + 1) % ring.len()]));
        }
    }
    assert!(applied >= total, "{context}: stream too short ({applied} updates)");
    summed
}

#[test]
fn self_loop_pattern_survives_scc_churn() {
    let world = ring_world(6, 9, 3);
    drive_scc_churn(&world, &churn_pattern(0), 0xC0FFEE, 1_100, 7, "self-loop pattern");
}

#[test]
fn three_cycle_pattern_survives_scc_churn() {
    let world = ring_world(6, 9, 3);
    drive_scc_churn(&world, &churn_pattern(1), 0xBEEF, 1_100, 6, "3-cycle pattern");
}

#[test]
fn multi_scc_pattern_survives_scc_churn() {
    // Two nontrivial pattern SCCs joined by a bridge: the speculative
    // evaluation runs both on threads, and any promoting commit forces the
    // dirty fallback for the second — the order-sensitivity this suite is
    // specifically after.
    let world = ring_world(6, 9, 3);
    let summed = drive_scc_churn(&world, &churn_pattern(2), 0xD00D, 1_100, 5, "multi-SCC pattern");
    // The algorithm's work over the whole stream, pinned: the per-batch
    // comparisons above only relate shard counts to each other, so a
    // rewrite that changed the work at every shard count alike would pass
    // them.
    assert_eq!(work(summed), (4894, 8446, 30, 24), "multi-SCC stream: work counters moved");
}

#[test]
fn threaded_branches_engage_above_the_spawn_threshold() {
    // > PARALLEL_WORK_THRESHOLD (4096) nodes: the propCC tentative gather,
    // tsup derivation and seed scans actually fan out to scoped threads at
    // shards > 1 and must agree with the inline path bit for bit. Fewer
    // updates — every batch still checks all four replicas from scratch.
    let world = ring_world(15, 300, 3);
    assert!(world.graph.node_count() > 4096);
    drive_scc_churn(&world, &churn_pattern(2), 0xFA57, 260, 0, "above-threshold churn");
}

#[test]
fn cross_scc_promotion_cascade_is_bit_identical_above_threshold() {
    // Deterministic worst case for the speculative evaluation's dirty
    // fallback. Pattern: upstream SCC a(l0) ⇄ b(l1), bridge b → c, downstream
    // SCC c(l2) ⇄ d(l3). Tarjan enumerates the downstream SCC first, so in
    // ONE propCC pass the sequential engine promotes the whole downstream
    // cycle and then — evaluating the upstream SCC against the *post-commit*
    // counters — the whole upstream cycle too. A sharded engine that kept
    // using the upstream SCC's pre-commit speculative verdict would need an
    // extra propCC pass (different AffStats trajectory); the dirty fallback
    // must make every shard count reproduce the one-pass sequential numbers.
    //
    // Data: an alternating l0/l1 cycle, an alternating l2/l3 cycle with its
    // closing edge missing (so nothing matches after the build), and an edge
    // from every l1 node into the l2/l3 cycle. The batch inserts the single
    // closing edge; 4400 nodes put the run above PARALLEL_WORK_THRESHOLD so
    // the speculative multi-SCC fan-out genuinely engages at shards > 1.
    let m = 1_100usize;
    let mut graph = DataGraph::new();
    let upstream: Vec<NodeId> =
        (0..2 * m).map(|i| graph.add_labeled_node(if i % 2 == 0 { "l0" } else { "l1" })).collect();
    for i in 0..2 * m {
        graph.add_edge(upstream[i], upstream[(i + 1) % (2 * m)]);
    }
    let downstream: Vec<NodeId> =
        (0..2 * m).map(|i| graph.add_labeled_node(if i % 2 == 0 { "l2" } else { "l3" })).collect();
    for i in 0..2 * m - 1 {
        graph.add_edge(downstream[i], downstream[i + 1]);
    }
    for i in 0..m {
        // Every l1 node can see an l2 node — the data edge of the pattern
        // bridge b → c, the channel through which the downstream commit
        // unblocks the upstream joint evaluation.
        graph.add_edge(upstream[2 * i + 1], downstream[2 * (i % m)]);
    }
    let mut pattern = Pattern::new();
    let a = pattern.add_labeled_node("l0");
    let b = pattern.add_labeled_node("l1");
    pattern.add_normal_edge(a, b);
    pattern.add_normal_edge(b, a);
    let c = pattern.add_labeled_node("l2");
    let d = pattern.add_labeled_node("l3");
    pattern.add_normal_edge(c, d);
    pattern.add_normal_edge(d, c);
    pattern.add_normal_edge(b, c);

    let mut replicas: Vec<(DataGraph, SimulationIndex)> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let g = graph.clone();
            let index = SimulationIndex::build_with_shards(&pattern, &g, shards);
            assert!(!index.is_match(), "broken downstream cycle must empty the match");
            (g, index)
        })
        .collect();

    let mut batch = BatchUpdate::new();
    batch.insert(downstream[2 * m - 1], downstream[0]);
    let mut reference_stats: Option<ApplyOutcome> = None;
    for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
        let (g, index) = &mut replicas[i];
        let stats = index.apply_batch_with_shards(g, &batch, shards);
        assert!(index.is_match(), "shards={shards}: both cycles must match after the close");
        assert_eq!(
            stats.stats.matches_added,
            4 * m,
            "shards={shards}: every node of both cycles promotes"
        );
        match &reference_stats {
            None => reference_stats = Some(stats),
            Some(reference) => {
                assert_eq!(stats, *reference, "shards={shards}: cascade AffStats diverged")
            }
        }
    }
    let expected = match_simulation(&pattern, &replicas[0].0);
    for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
        assert_eq!(replicas[i].1.matches(), expected, "shards={shards}");
        assert_eq!(replicas[i].1.aux_snapshot(), replicas[0].1.aux_snapshot(), "shards={shards}");
    }
}

#[test]
fn bridge_storm_flips_the_whole_match() {
    // The unboundedness-gadget worst case, batched: two long chains of one
    // label under a 2-cycle pattern. Closing both bridges matches *every*
    // node (propCC promotes O(|V|) candidates in one joint evaluation);
    // opening either empties the match again. Alternating batches force the
    // maximum-possible propCC volume every round.
    let mut graph = DataGraph::new();
    let n = 700usize;
    let nodes: Vec<NodeId> = (0..2 * n).map(|_| graph.add_labeled_node("a")).collect();
    for i in 0..n - 1 {
        graph.add_edge(nodes[i], nodes[i + 1]);
        graph.add_edge(nodes[n + i], nodes[n + i + 1]);
    }
    let mut pattern = Pattern::new();
    let u1 = pattern.add_labeled_node("a");
    let u2 = pattern.add_labeled_node("a");
    pattern.add_normal_edge(u1, u2);
    pattern.add_normal_edge(u2, u1);

    let bridge_a = (nodes[n - 1], nodes[n]);
    let bridge_b = (nodes[2 * n - 1], nodes[0]);
    let mut replicas: Vec<(DataGraph, SimulationIndex)> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let g = graph.clone();
            let index = SimulationIndex::build_with_shards(&pattern, &g, shards);
            (g, index)
        })
        .collect();

    let mut summed = AffStats::default();
    for round in 0..12 {
        let mut batch = BatchUpdate::new();
        match round % 4 {
            0 => {
                batch.insert(bridge_a.0, bridge_a.1);
                batch.insert(bridge_b.0, bridge_b.1);
            }
            1 => batch.delete(bridge_a.0, bridge_a.1),
            2 => batch.insert(bridge_a.0, bridge_a.1),
            _ => {
                batch.delete(bridge_a.0, bridge_a.1);
                batch.delete(bridge_b.0, bridge_b.1);
            }
        }
        let mut reference_stats: Option<ApplyOutcome> = None;
        for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
            let (g, index) = &mut replicas[i];
            let stats = index.apply_batch_with_shards(g, &batch, shards);
            match &reference_stats {
                None => reference_stats = Some(stats),
                Some(reference) => {
                    assert_eq!(stats, *reference, "round {round}: stats diverged at {shards}")
                }
            }
        }
        summed.merge(reference_stats.expect("SHARD_COUNTS is not empty").stats);
        let expected = match_simulation(&pattern, &replicas[0].0);
        for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
            let (_, index) = &replicas[i];
            assert_eq!(index.matches(), expected, "round {round}, shards={shards}");
            assert_eq!(
                index.aux_snapshot(),
                replicas[0].1.aux_snapshot(),
                "round {round}, shards={shards}"
            );
        }
        match round % 4 {
            0 => assert!(replicas[0].1.is_match(), "round {round}: both bridges closed"),
            1 | 3 => assert!(!replicas[0].1.is_match(), "round {round}: a bridge is open"),
            _ => {}
        }
    }
    // Pinned like the multi-SCC stream's work (see there).
    assert_eq!(work(summed), (33612, 50400, 16800, 16800), "bridge storm: work counters moved");
}

#[test]
fn bounded_index_promote_sccs_survives_scc_churn() {
    // The bounded-simulation mirror: cyclic b-patterns over a ring world
    // large enough (> PARALLEL_EVAL_THRESHOLD nodes) that `promote_sccs`'
    // speculative fan-out genuinely engages, driven by the same SCC churn.
    // Two nontrivial pattern SCCs joined by a bridge exercise the ordered
    // commit + dirty fallback; the suite checks aux snapshots (masks, pair
    // sets, support counters), AffStats and from-scratch agreement at every
    // batch.
    let world = ring_world(6, 45, 3);
    assert!(world.graph.node_count() > 256, "must cross the pair-evaluation spawn threshold");
    let mut pattern = Pattern::new();
    let a = pattern.add_labeled_node("l0");
    let b = pattern.add_labeled_node("l1");
    pattern.add_edge(a, b, EdgeBound::Hops(2));
    pattern.add_edge(b, a, EdgeBound::Unbounded);
    let c = pattern.add_labeled_node("l2");
    let d = pattern.add_labeled_node("l0");
    pattern.add_edge(c, d, EdgeBound::Hops(2));
    pattern.add_edge(d, c, EdgeBound::Hops(3));
    pattern.add_edge(b, c, EdgeBound::Hops(2));

    let mut rng = StdRng::seed_from_u64(0x5CC);
    let mut replicas: Vec<(DataGraph, BoundedIndex)> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let graph = world.graph.clone();
            let index = BoundedIndex::build_with_shards(&pattern, &graph, shards);
            (graph, index)
        })
        .collect();
    for (i, &shards) in SHARD_COUNTS.iter().enumerate().skip(1) {
        assert_eq!(
            replicas[i].1.aux_snapshot(),
            replicas[0].1.aux_snapshot(),
            "bounded build diverged at shards={shards}"
        );
    }

    let mut applied = 0usize;
    let mut round = 0usize;
    while applied < 80 {
        round += 1;
        let batch_size = [1usize, 5, 17][round % 3];
        let mut batch = BatchUpdate::new();
        while batch.len() < batch_size {
            match churn_update(&mut rng, &world, &replicas[0].0) {
                Some(update) => batch.push(update),
                None => break,
            }
        }
        if batch.is_empty() {
            continue;
        }
        applied += batch.len();
        let mut reference_stats: Option<ApplyOutcome> = None;
        for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
            let (graph, index) = &mut replicas[i];
            let stats = index.apply_batch_with_shards(graph, &batch, shards);
            match &reference_stats {
                None => reference_stats = Some(stats),
                Some(reference) => assert_eq!(
                    stats, *reference,
                    "bounded round {round}: AffStats diverged at shards={shards}"
                ),
            }
        }
        for (i, &shards) in SHARD_COUNTS.iter().enumerate().skip(1) {
            let (graph, index) = &replicas[i];
            assert!(
                graph.identical_to(&replicas[0].0),
                "bounded round {round}: graph diverged at shards={shards}"
            );
            assert_eq!(
                index.aux_snapshot(),
                replicas[0].1.aux_snapshot(),
                "bounded round {round}: aux diverged at shards={shards}"
            );
        }
        // The matrix-backed from-scratch recomputation is the expensive part
        // of the loop; bit-identity is already asserted every round, so the
        // semantic anchor runs on a cadence (and always on the final state).
        if round.is_multiple_of(4) {
            let expected = match_bounded_with_matrix(&pattern, &replicas[0].0);
            assert_eq!(
                replicas[0].1.matches(),
                expected,
                "bounded round {round}: diverged from from-scratch"
            );
        }
    }
    let expected = match_bounded_with_matrix(&pattern, &replicas[0].0);
    assert_eq!(replicas[0].1.matches(), expected, "bounded final: diverged from from-scratch");
}

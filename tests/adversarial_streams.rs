//! Adversarial update streams: seeded fuzz batches interleaving *invalid*
//! operations (out-of-range endpoints, duplicate inserts, deletes of absent
//! edges — including within-batch sequences like insert-then-insert) with
//! thousands of valid updates, driven through
//! `apply_batch_lenient_with_shards` in lockstep over shard counts
//! {1, 2, 3, 8}.
//!
//! After every batch the suite asserts:
//!
//! * **rejection reports** are identical across shard counts (validation is
//!   sequential-presence semantics, independent of the execution plan);
//! * **auxiliary state** (masks, counters / pairs, support) and `AffStats`
//!   are byte-identical across shard counts;
//! * the engines' graphs are adjacency-identical across shard counts and
//!   edge-set-equal to a **naive mirror** that applies the stream op by op
//!   (skipping exactly what the lenient contract says is skipped);
//! * the maintained match agrees with a **from-scratch recomputation**
//!   (`match_simulation` / `match_bounded_with_matrix`) on the mirror graph,
//!   and periodically with the independent HORNSAT least-model baseline for
//!   the plain-simulation engine.

use igpm::core::{match_bounded_with_matrix, match_simulation};
use igpm::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Random labeled digraph: `n` nodes over `labels` labels, `m` distinct
/// random edges (no self-loops barred — simulation handles them).
fn random_graph(rng: &mut StdRng, n: usize, m: usize, labels: usize) -> DataGraph {
    let mut g = DataGraph::new();
    let nodes: Vec<NodeId> =
        (0..n).map(|i| g.add_labeled_node(format!("l{}", i % labels))).collect();
    let mut added = 0;
    while added < m {
        let a = nodes[rng.gen_range(0..n)];
        let b = nodes[rng.gen_range(0..n)];
        if g.add_edge(a, b) {
            added += 1;
        }
    }
    g
}

/// One adversarial batch against the *current* graph: `valid_ops` toggles
/// (delete a present edge / insert an absent one, tracked in sequence so the
/// valid portion stays validation-clean) interleaved with `invalid_ops`
/// drawn from the three rejection classes. Returns the batch and the number
/// of invalid operations planted.
fn adversarial_batch(
    rng: &mut StdRng,
    graph: &DataGraph,
    valid_ops: usize,
    invalid_ops: usize,
) -> (BatchUpdate, usize) {
    let n = graph.node_count();
    let mut updates: Vec<Update> = Vec::with_capacity(valid_ops + invalid_ops);
    // Sequence-local presence: validity is judged against the graph *as the
    // batch would have transformed it so far*, exactly like `validate_batch`.
    let mut presence: std::collections::HashMap<(NodeId, NodeId), bool> =
        std::collections::HashMap::new();
    fn is_present(
        presence: &mut std::collections::HashMap<(NodeId, NodeId), bool>,
        graph: &DataGraph,
        a: NodeId,
        b: NodeId,
    ) -> bool {
        *presence.entry((a, b)).or_insert_with(|| graph.has_edge(a, b))
    }
    for _ in 0..valid_ops {
        let a = NodeId::from_index(rng.gen_range(0..n));
        let b = NodeId::from_index(rng.gen_range(0..n));
        if is_present(&mut presence, graph, a, b) {
            updates.push(Update::delete(a, b));
            presence.insert((a, b), false);
        } else {
            updates.push(Update::insert(a, b));
            presence.insert((a, b), true);
        }
    }
    let mut planted = 0;
    for _ in 0..invalid_ops {
        let a = NodeId::from_index(rng.gen_range(0..n));
        let b = NodeId::from_index(rng.gen_range(0..n));
        match rng.gen_range(0..3u32) {
            // Out-of-range endpoint (sometimes far out).
            0 => {
                let ghost = NodeId::from_index(n + rng.gen_range(0..7usize));
                if rng.gen_bool(0.5) {
                    updates.push(Update::insert(ghost, b));
                } else {
                    updates.push(Update::delete(a, ghost));
                }
                planted += 1;
            }
            // Duplicate insert (of an edge present at this point in the
            // sequence, when one exists nearby).
            1 => {
                if is_present(&mut presence, graph, a, b) {
                    updates.push(Update::insert(a, b));
                    planted += 1;
                } else {
                    updates.push(Update::insert(a, b));
                    presence.insert((a, b), true);
                }
            }
            // Delete of an absent edge.
            _ => {
                if is_present(&mut presence, graph, a, b) {
                    updates.push(Update::delete(a, b));
                    presence.insert((a, b), false);
                } else {
                    updates.push(Update::delete(a, b));
                    planted += 1;
                }
            }
        }
    }
    // Deterministic shuffle so invalid ops land between valid ones. Note the
    // shuffle changes which occurrence of a repeated edge is "the duplicate",
    // but validation is positional, so every replica judges identically.
    for i in (1..updates.len()).rev() {
        updates.swap(i, rng.gen_range(0..=i));
    }
    (BatchUpdate::from_updates(updates), planted)
}

/// The naive mirror: applies the batch op by op with exactly the lenient
/// contract — out-of-range ops skipped, duplicate inserts and absent deletes
/// are no-ops anyway.
fn mirror_apply(graph: &mut DataGraph, batch: &BatchUpdate) {
    let n = graph.node_count();
    for update in batch.iter() {
        let (from, to) = update.endpoints();
        if from.index() >= n || to.index() >= n {
            continue;
        }
        match update {
            Update::InsertEdge { .. } => {
                graph.add_edge(from, to);
            }
            Update::DeleteEdge { .. } => {
                graph.remove_edge(from, to);
            }
        }
    }
}

/// Cyclic normal pattern over three labels (two-node SCC plus a tail) — keeps
/// `propCC` engaged throughout the stream.
fn sim_pattern() -> Pattern {
    let mut p = Pattern::new();
    let a = p.add_labeled_node("l0");
    let b = p.add_labeled_node("l1");
    let c = p.add_labeled_node("l2");
    p.add_normal_edge(a, b);
    p.add_normal_edge(b, a);
    p.add_normal_edge(a, c);
    p
}

/// Cyclic b-pattern: `l0 -[2]-> l1 -[*]-> l0`, plus a 1-hop tail.
fn bsim_pattern() -> Pattern {
    let mut p = Pattern::new();
    let a = p.add_labeled_node("l0");
    let b = p.add_labeled_node("l1");
    let c = p.add_labeled_node("l2");
    p.add_edge(a, b, EdgeBound::Hops(2));
    p.add_edge(b, a, EdgeBound::Unbounded);
    p.add_edge(a, c, EdgeBound::Hops(1));
    p
}

#[test]
fn sim_survives_adversarial_streams_in_lockstep() {
    let mut rng = StdRng::seed_from_u64(0xFA11_F001);
    let base = random_graph(&mut rng, 90, 260, 3);
    let pattern = sim_pattern();

    let mut mirror = base.clone();
    let mut replicas: Vec<(DataGraph, SimulationIndex)> = SHARD_COUNTS
        .iter()
        .map(|&s| (base.clone(), SimulationIndex::build_with_shards(&pattern, &base, s)))
        .collect();

    let mut valid_total = 0usize;
    let mut invalid_total = 0usize;
    for step in 0..60 {
        let (batch, planted) = adversarial_batch(&mut rng, &mirror, 24, 6);
        invalid_total += planted;

        let mut reports = Vec::with_capacity(SHARD_COUNTS.len());
        for (&shards, (graph, index)) in SHARD_COUNTS.iter().zip(replicas.iter_mut()) {
            let report = index
                .apply_batch_lenient_with_shards(graph, &batch, shards)
                .unwrap_or_else(|e| panic!("step {step}, shards={shards}: {e}"));
            reports.push((shards, report));
        }
        valid_total += batch.len() - reports[0].1.rejected.len();

        // Lockstep: rejection reports, stats and auxiliary state identical
        // across shard counts; graphs adjacency-identical.
        let (_, first) = &reports[0];
        for (shards, report) in &reports[1..] {
            assert_eq!(report.rejected, first.rejected, "step {step}, shards={shards}: reports");
            assert_eq!(report.stats, first.stats, "step {step}, shards={shards}: stats");
        }
        let (graph0, index0) = &replicas[0];
        let aux0 = index0.aux_snapshot();
        for (&shards, (graph, index)) in SHARD_COUNTS.iter().zip(replicas.iter()).skip(1) {
            assert_eq!(index.aux_snapshot(), aux0, "step {step}, shards={shards}: aux");
            assert!(graph.identical_to(graph0), "step {step}, shards={shards}: graph");
        }

        // Differential vs the naive mirror.
        mirror_apply(&mut mirror, &batch);
        assert_eq!(*graph0, mirror, "step {step}: lenient apply diverged from the naive mirror");

        // From-scratch recomputation on the mirror graph.
        let expected = match_simulation(&pattern, &mirror);
        assert_eq!(index0.matches(), expected, "step {step}: diverged from scratch");

        // Periodically cross-check with the independent HORNSAT baseline.
        if step % 20 == 19 {
            let hornsat = HornSatSimulation::build(&pattern, &mirror);
            assert_eq!(index0.matches(), hornsat.matches(), "step {step}: HORNSAT disagrees");
        }
    }
    assert!(valid_total >= 1000, "stream too tame: only {valid_total} valid updates");
    assert!(invalid_total >= 100, "stream too tame: only {invalid_total} invalid updates");
}

#[test]
fn bsim_survives_adversarial_streams_in_lockstep() {
    let mut rng = StdRng::seed_from_u64(0xB51F_F001);
    let base = random_graph(&mut rng, 60, 150, 3);
    let pattern = bsim_pattern();

    let mut mirror = base.clone();
    let mut replicas: Vec<(DataGraph, BoundedIndex)> = SHARD_COUNTS
        .iter()
        .map(|&s| (base.clone(), BoundedIndex::build_with_shards(&pattern, &base, s)))
        .collect();

    let mut valid_total = 0usize;
    for step in 0..45 {
        let (batch, _) = adversarial_batch(&mut rng, &mirror, 24, 6);

        let mut reports = Vec::with_capacity(SHARD_COUNTS.len());
        for (&shards, (graph, index)) in SHARD_COUNTS.iter().zip(replicas.iter_mut()) {
            let report = index
                .apply_batch_lenient_with_shards(graph, &batch, shards)
                .unwrap_or_else(|e| panic!("step {step}, shards={shards}: {e}"));
            reports.push((shards, report));
        }
        valid_total += batch.len() - reports[0].1.rejected.len();

        let (_, first) = &reports[0];
        for (shards, report) in &reports[1..] {
            assert_eq!(report.rejected, first.rejected, "step {step}, shards={shards}: reports");
            assert_eq!(report.stats, first.stats, "step {step}, shards={shards}: stats");
        }
        let (graph0, index0) = &replicas[0];
        let aux0 = index0.aux_snapshot();
        for (&shards, (graph, index)) in SHARD_COUNTS.iter().zip(replicas.iter()).skip(1) {
            assert_eq!(index.aux_snapshot(), aux0, "step {step}, shards={shards}: aux");
            assert!(graph.identical_to(graph0), "step {step}, shards={shards}: graph");
        }

        mirror_apply(&mut mirror, &batch);
        assert_eq!(*graph0, mirror, "step {step}: lenient apply diverged from the naive mirror");

        let expected = match_bounded_with_matrix(&pattern, &mirror);
        assert_eq!(index0.matches(), expected, "step {step}: diverged from scratch");
    }
    assert!(valid_total >= 1000, "stream too tame: only {valid_total} valid updates");
}

#[test]
fn strict_rejection_is_deterministic_across_shard_counts() {
    // The strict path must produce the *same* typed rejection list for every
    // shard count and leave every replica bit-identical to its pre-batch
    // state — even when the invalid op hides behind a long valid prefix.
    let mut rng = StdRng::seed_from_u64(0x0571_21C7);
    let base = random_graph(&mut rng, 70, 200, 3);
    let pattern = sim_pattern();

    for round in 0..10 {
        let (mut batch, _) = adversarial_batch(&mut rng, &base, 30, 0);
        // Plant exactly one of each invalid class at deterministic spots.
        let n = base.node_count();
        let present = base.edges().next().expect("graph has edges");
        let mut updates: Vec<Update> = batch.iter().copied().collect();
        updates.insert(7, Update::insert(NodeId::from_index(n + 1), present.1));
        updates.insert(19, Update::insert(present.0, present.1));
        batch = BatchUpdate::from_updates(updates);

        let mut errors = Vec::new();
        for &shards in &SHARD_COUNTS {
            let mut graph = base.clone();
            let mut index = SimulationIndex::build_with_shards(&pattern, &base, shards);
            let aux = index.aux_snapshot();
            let err = index
                .try_apply_batch_with_shards(&mut graph, &batch, shards)
                .expect_err("planted invalid ops must reject the batch");
            assert!(graph.identical_to(&base), "round {round}: rejection touched the graph");
            assert_eq!(index.aux_snapshot(), aux, "round {round}: rejection touched the index");
            errors.push(err.to_string());
        }
        assert!(errors.windows(2).all(|w| w[0] == w[1]), "round {round}: divergent rejections");
    }
}

/// Probes one engine with updates whose endpoints lie outside the graph:
/// the unit insert and delete, the infallible and the lenient batch skip
/// them (graph and index untouched, empty delta) and the strict batch
/// rejects them whole.
macro_rules! probe_out_of_range {
    ($engine:ty, $pattern:expr, $base:expr) => {{
        let base: &DataGraph = $base;
        let inside = base.edges().next().expect("graph has edges");
        let far = NodeId::from_index(base.node_count() + 5);
        let mut graph = base.clone();
        let mut index = <$engine>::build_with_shards(&$pattern, &graph, 1);
        let (aux, view) = (index.aux_snapshot(), index.matches());
        for (a, b) in [(inside.0, far), (far, inside.1), (far, far)] {
            let context = format!("{} ({a}, {b})", stringify!($engine));
            for outcome in
                [index.insert_edge(&mut graph, a, b), index.delete_edge(&mut graph, a, b)]
            {
                assert!(outcome.delta.is_empty(), "{context}: unit update emitted a delta");
                assert_eq!(outcome.stats.delta_m(), 0, "{context}: unit update moved a match");
            }
            let batch = BatchUpdate::from_updates(vec![Update::insert(a, b), Update::delete(a, b)]);
            assert!(index.apply_batch(&mut graph, &batch).delta.is_empty(), "{context}: batch");
            let lenient = index.apply_batch_lenient(&mut graph, &batch).expect("lenient apply");
            assert_eq!(lenient.rejected.len(), 2, "{context}: both updates reported");
            assert!(lenient.delta.is_empty(), "{context}: lenient batch emitted a delta");
            let strict = index.try_apply_batch(&mut graph, &batch);
            assert!(matches!(strict, Err(ApplyError::InvalidBatch(_))), "{context}: strict");
            assert!(graph.identical_to(base), "{context}: the graph changed");
            assert_eq!(index.aux_snapshot(), aux, "{context}: the index changed");
        }
        assert_eq!(index.matches(), view);
    }};
}

#[test]
fn out_of_range_endpoints_are_skipped_by_every_entry_point() {
    let mut rng = StdRng::seed_from_u64(0x00B0_0B5E);
    let base = random_graph(&mut rng, 40, 120, 3);
    probe_out_of_range!(SimulationIndex, sim_pattern(), &base);
    probe_out_of_range!(BoundedIndex, bsim_pattern(), &base);
}

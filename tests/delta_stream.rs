//! Differential suite for the structured per-batch [`MatchDelta`] stream.
//!
//! Every batch application now returns an [`ApplyOutcome`] whose `delta` is
//! the exact view-level change of the batch. This suite pins the contract
//! from four directions, for both engines:
//!
//! * **Exact view identity** — on seeded 1k+-update streams (cyclic
//!   pattern, DAG pattern, and a stream with node churn) the emitted delta
//!   of every batch equals `MatchDelta::between(view(t-1), view(t))`, and
//!   folding it into the previous view reproduces the next view exactly:
//!   `view(t) = view(t-1) ∖ removed ⊎ inserted`.
//! * **Shard bit-identity** — the full `ApplyOutcome` (stats *and* delta)
//!   is bit-identical for shard counts {1, 2, 3, 8} on every batch.
//! * **Monotone fast path** — insert-only batches take the CALM fast path
//!   (no removal tracking); their emitted deltas still satisfy the exact
//!   view identity and never contain a removed pair.
//! * **Durable replay identity** — a `DurableIndex` crashed at every
//!   durability failpoint site and reopened re-emits, through its
//!   [`Subscription`] stream, exactly the per-batch deltas of the
//!   never-crashed run, each sequence number exactly once; an in-place
//!   `recover()` after a contained engine panic re-emits only the tail the
//!   crash swallowed (publication is idempotent by WAL sequence number).
//!
//! The satellite regressions ride along: empty-delta batches leave the
//! lazily cached view warm (no re-materialisation), non-empty deltas patch
//! it in place; the lenient path reports rejections at **original** batch
//! positions and emits the strict path's delta for the surviving updates;
//! and the poisoned-read surface is pinned (`matches_view` panic string
//! versus `try_matches_view` typed error) for both engines.
//!
//! The failpoint registry is process-global, so the failpoint-driven tests
//! serialise on one mutex and run with a muted panic hook while armed.

mod common;

use common::{drain_deltas, gen_batch, gen_stream, seed_world, serial, with_armed, Rng, Scratch};
use igpm::core::IncrementalEngine;
use igpm::graph::fail;
use igpm::graph::wal::FsyncPolicy;
use igpm::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

// ---------------------------------------------------------------------------
// Worlds and streams
// ---------------------------------------------------------------------------

/// One validation-clean insert-only batch (drives the monotone fast path).
fn gen_insert_batch(rng: &mut Rng, graph: &DataGraph, per_batch: usize) -> BatchUpdate {
    let nv = graph.node_count() as u64;
    let mut batch = BatchUpdate::new();
    let mut inserted: std::collections::HashSet<(NodeId, NodeId)> =
        std::collections::HashSet::new();
    let mut attempts = 0usize;
    while batch.len() < per_batch && attempts < per_batch * 200 {
        attempts += 1;
        let a = NodeId((rng.next() % nv) as u32);
        let b = NodeId((rng.next() % nv) as u32);
        if a == b || graph.has_edge(a, b) || !inserted.insert((a, b)) {
            continue;
        }
        batch.insert(a, b);
    }
    batch
}

// ---------------------------------------------------------------------------
// Engine abstraction
// ---------------------------------------------------------------------------

trait DeltaEngine: IncrementalEngine {
    const NAME: &'static str;
    /// The failpoint site whose injected panic leaves this engine poisoned.
    const POISON_SITE: &'static str;
    /// The pinned panic message of `matches_view` on a poisoned index.
    const POISON_PANIC: &'static str;
    fn build_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self;
    fn apply(&mut self, graph: &mut DataGraph, batch: &BatchUpdate, shards: usize) -> ApplyOutcome;
    fn lenient(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<LenientApply, ApplyError>;
    /// The observable match view (a clone of the cached relation).
    fn view(&self) -> MatchRelation;
    fn view_ref_panics(&self) -> MatchRelation;
    fn try_view(&self) -> Result<MatchRelation, ApplyError>;
    fn warm(&self) -> bool;
    /// Cyclic 2-node pattern `l0 ⇄ l1` (SCC promotion phases run).
    fn cyclic_pattern() -> Pattern;
    /// Acyclic 3-node pattern over labels `l0`/`l1`/`l2` (DAG path).
    fn dag_pattern() -> Pattern;
}

impl DeltaEngine for SimulationIndex {
    const NAME: &'static str = "sim";
    const POISON_SITE: &'static str = fail::SIM_PROMOTE;
    const POISON_PANIC: &'static str =
        "simulation index is poisoned; call recover() before reading";
    fn build_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        SimulationIndex::build_with_shards(pattern, graph, shards)
    }
    fn apply(&mut self, graph: &mut DataGraph, batch: &BatchUpdate, shards: usize) -> ApplyOutcome {
        self.apply_batch_with_shards(graph, batch, shards)
    }
    fn lenient(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<LenientApply, ApplyError> {
        self.apply_batch_lenient_with_shards(graph, batch, shards)
    }
    fn view(&self) -> MatchRelation {
        self.matches()
    }
    fn view_ref_panics(&self) -> MatchRelation {
        self.matches_view().clone()
    }
    fn try_view(&self) -> Result<MatchRelation, ApplyError> {
        self.try_matches_view().map(|view| view.clone())
    }
    fn warm(&self) -> bool {
        self.view_cache_is_warm()
    }
    fn cyclic_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_labeled_node("l0");
        let b = p.add_labeled_node("l1");
        p.add_normal_edge(a, b);
        p.add_normal_edge(b, a);
        p
    }
    fn dag_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_labeled_node("l0");
        let b = p.add_labeled_node("l1");
        let c = p.add_labeled_node("l2");
        p.add_normal_edge(a, b);
        p.add_normal_edge(b, c);
        p
    }
}

impl DeltaEngine for BoundedIndex {
    const NAME: &'static str = "bsim";
    const POISON_SITE: &'static str = fail::BSIM_PROMOTE;
    const POISON_PANIC: &'static str = "bounded index is poisoned; call recover() before reading";
    fn build_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        BoundedIndex::build_with_shards(pattern, graph, shards)
    }
    fn apply(&mut self, graph: &mut DataGraph, batch: &BatchUpdate, shards: usize) -> ApplyOutcome {
        self.apply_batch_with_shards(graph, batch, shards)
    }
    fn lenient(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<LenientApply, ApplyError> {
        self.apply_batch_lenient_with_shards(graph, batch, shards)
    }
    fn view(&self) -> MatchRelation {
        self.matches()
    }
    fn view_ref_panics(&self) -> MatchRelation {
        self.matches_view().clone()
    }
    fn try_view(&self) -> Result<MatchRelation, ApplyError> {
        self.try_matches_view().map(|view| view.clone())
    }
    fn warm(&self) -> bool {
        self.view_cache_is_warm()
    }
    fn cyclic_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_labeled_node("l0");
        let b = p.add_labeled_node("l1");
        p.add_edge(a, b, EdgeBound::Hops(1));
        p.add_edge(b, a, EdgeBound::Unbounded);
        p
    }
    fn dag_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_labeled_node("l0");
        let b = p.add_labeled_node("l1");
        let c = p.add_labeled_node("l2");
        p.add_edge(a, b, EdgeBound::Hops(2));
        p.add_edge(b, c, EdgeBound::Hops(1));
        p
    }
}

// ---------------------------------------------------------------------------
// 1. Exact view identity on seeded 1k+-update streams
// ---------------------------------------------------------------------------

/// Applies one batch and checks the emitted delta against the view diff:
/// `delta == between(prev, next)` and `prev ⊎ delta == next`.
fn check_batch_delta<E: DeltaEngine>(
    context: &str,
    engine: &mut E,
    graph: &mut DataGraph,
    batch: &BatchUpdate,
    shards: usize,
    prev_view: &MatchRelation,
) -> MatchRelation {
    let outcome = engine.apply(graph, batch, shards);
    let next_view = engine.view();
    let expected = MatchDelta::between(prev_view, &next_view);
    assert_eq!(
        outcome.delta,
        expected,
        "{context}: emitted delta is not the view diff (prev {} pairs, next {} pairs)",
        prev_view.pair_count(),
        next_view.pair_count()
    );
    let mut folded = prev_view.clone();
    outcome.delta.apply_to(&mut folded);
    assert_eq!(folded, next_view, "{context}: view(t-1) ⊎ delta(t) != view(t)");
    next_view
}

fn view_diff_stream<E: DeltaEngine>(pattern: &Pattern, initial: &DataGraph, seed: u64) {
    let mut rng = Rng(seed);
    let batches = gen_stream(&mut rng, initial, 64, 18); // 1152 updates
    let mut graph = initial.clone();
    let mut engine = E::build_shards(pattern, &graph, 1);
    let mut view = engine.view();
    for (i, batch) in batches.iter().enumerate() {
        let context = format!("{} seed {seed:#x} batch {i}", E::NAME);
        view = check_batch_delta(&context, &mut engine, &mut graph, batch, 1, &view);
    }
}

#[test]
fn sim_delta_equals_view_diff_on_cyclic_stream() {
    let _guard = serial();
    view_diff_stream::<SimulationIndex>(
        &SimulationIndex::cyclic_pattern(),
        &seed_world(28, 2),
        0xD51A,
    );
}

#[test]
fn bsim_delta_equals_view_diff_on_cyclic_stream() {
    let _guard = serial();
    view_diff_stream::<BoundedIndex>(&BoundedIndex::cyclic_pattern(), &seed_world(28, 2), 0xD51B);
}

#[test]
fn sim_delta_equals_view_diff_on_dag_stream() {
    let _guard = serial();
    view_diff_stream::<SimulationIndex>(
        &SimulationIndex::dag_pattern(),
        &seed_world(27, 3),
        0xDA6A,
    );
}

#[test]
fn bsim_delta_equals_view_diff_on_dag_stream() {
    let _guard = serial();
    view_diff_stream::<BoundedIndex>(&BoundedIndex::dag_pattern(), &seed_world(27, 3), 0xDA6B);
}

/// Node churn: every few batches the graph grows fresh nodes out-of-band
/// (the engine absorbs them through its capacity path, which feeds the
/// delta for childless pattern nodes), then the stream wires them in.
fn churn_stream<E: DeltaEngine>(pattern: &Pattern, labels: usize, seed: u64) {
    let initial = seed_world(18, labels);
    let mut rng = Rng(seed);
    let mut graph = initial.clone();
    let mut engine = E::build_shards(pattern, &graph, 1);
    let mut view = engine.view();
    let mut applied = 0usize;
    for round in 0..60 {
        if round % 4 == 3 {
            for _ in 0..2 {
                let label = format!("l{}", (rng.next() as usize) % labels);
                graph.add_labeled_node(label);
            }
        }
        let batch = gen_batch(&mut rng, &graph, 18);
        applied += batch.len();
        let context = format!("{} churn seed {seed:#x} round {round}", E::NAME);
        view = check_batch_delta(&context, &mut engine, &mut graph, &batch, 1, &view);
    }
    assert!(applied >= 1000, "stream too short to qualify: {applied} updates");
}

#[test]
fn sim_delta_equals_view_diff_under_node_churn() {
    let _guard = serial();
    churn_stream::<SimulationIndex>(&SimulationIndex::cyclic_pattern(), 2, 0xC0A1);
}

#[test]
fn bsim_delta_equals_view_diff_under_node_churn() {
    let _guard = serial();
    churn_stream::<BoundedIndex>(&BoundedIndex::cyclic_pattern(), 2, 0xC0A2);
}

// ---------------------------------------------------------------------------
// 2. Shard bit-identity of the emitted deltas
// ---------------------------------------------------------------------------

fn shard_identity_stream<E: DeltaEngine>(pattern: &Pattern, seed: u64) {
    let initial = seed_world(26, 2);
    let mut rng = Rng(seed);
    let batches = gen_stream(&mut rng, &initial, 24, 14);
    let mut replicas: Vec<(DataGraph, E)> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let graph = initial.clone();
            let engine = E::build_shards(pattern, &graph, shards);
            (graph, engine)
        })
        .collect();
    for (round, batch) in batches.iter().enumerate() {
        let mut outcomes: Vec<ApplyOutcome> = Vec::new();
        for (&shards, (graph, engine)) in SHARD_COUNTS.iter().zip(replicas.iter_mut()) {
            outcomes.push(engine.apply(graph, batch, shards));
        }
        for (i, outcome) in outcomes.iter().enumerate().skip(1) {
            assert_eq!(
                *outcome,
                outcomes[0],
                "{} seed {seed:#x} round {round}: ApplyOutcome (delta included) diverged \
                 between shards={} and shards=1",
                E::NAME,
                SHARD_COUNTS[i]
            );
        }
    }
    let reference = replicas[0].1.view();
    for (i, (_, engine)) in replicas.iter().enumerate().skip(1) {
        assert_eq!(
            engine.view(),
            reference,
            "{} seed {seed:#x}: final views diverged at shards={}",
            E::NAME,
            SHARD_COUNTS[i]
        );
    }
}

#[test]
fn sim_deltas_bit_identical_across_shard_counts() {
    let _guard = serial();
    shard_identity_stream::<SimulationIndex>(&SimulationIndex::cyclic_pattern(), 0x5A4D);
}

#[test]
fn bsim_deltas_bit_identical_across_shard_counts() {
    let _guard = serial();
    shard_identity_stream::<BoundedIndex>(&BoundedIndex::cyclic_pattern(), 0x5A4E);
}

// ---------------------------------------------------------------------------
// 3. Monotone (insert-only) fast path
// ---------------------------------------------------------------------------

fn monotone_stream<E: DeltaEngine>(pattern: &Pattern, seed: u64) {
    // Start from a sparse world (ring only) so insertions keep promoting.
    let initial = seed_world(24, 2);
    let mut rng = Rng(seed);
    let mut graph = initial.clone();
    let mut engine = E::build_shards(pattern, &graph, 1);
    let mut view = engine.view();
    for round in 0..24 {
        let batch = gen_insert_batch(&mut rng, &graph, 10);
        if batch.is_empty() {
            break; // world saturated
        }
        let context = format!("{} monotone seed {seed:#x} round {round}", E::NAME);
        let outcome = engine.apply(&mut graph, &batch, 1);
        assert!(
            outcome.delta.removed.is_empty(),
            "{context}: insert-only batch emitted removals: {:?}",
            outcome.delta.removed
        );
        let next_view = engine.view();
        assert_eq!(
            outcome.delta,
            MatchDelta::between(&view, &next_view),
            "{context}: monotone fast-path delta is not the view diff"
        );
        view = next_view;
    }
}

#[test]
fn sim_monotone_fast_path_emits_exact_deltas() {
    let _guard = serial();
    monotone_stream::<SimulationIndex>(&SimulationIndex::cyclic_pattern(), 0x30A0);
}

#[test]
fn bsim_monotone_fast_path_emits_exact_deltas() {
    let _guard = serial();
    monotone_stream::<BoundedIndex>(&BoundedIndex::cyclic_pattern(), 0x30A1);
}

// ---------------------------------------------------------------------------
// 4. Cache retention (satellite regression)
// ---------------------------------------------------------------------------

/// Two rings worth of matched nodes; the batch inserts one extra chord
/// `l0 → l1` between already-matched nodes — real counter work, empty
/// view-level delta.
fn cache_retention<E: DeltaEngine>() {
    let pattern = E::cyclic_pattern();
    let initial = seed_world(12, 2);
    let mut graph = initial.clone();
    let mut engine = E::build_shards(&pattern, &graph, 1);

    // Warm the cache and pin it.
    let warm_view = engine.view();
    assert!(engine.warm(), "{}: view() must leave the cache warm", E::NAME);

    // A chord between matched ring nodes: no observable view change.
    let mut chord = BatchUpdate::new();
    chord.insert(NodeId(0), NodeId(3));
    let outcome = engine.apply(&mut graph, &chord, 1);
    assert!(outcome.delta.is_empty(), "{}: chord changed the view: {}", E::NAME, outcome.delta);
    assert!(
        engine.warm(),
        "{}: empty-delta apply re-materialised (or dropped) the cached view",
        E::NAME
    );
    assert_eq!(engine.view(), warm_view, "{}: cached view drifted", E::NAME);

    // A redundant batch (insert + delete of the same absent edge) reduces to
    // nothing before the pipeline runs — the cache must also survive that.
    let mut redundant = BatchUpdate::new();
    redundant.insert(NodeId(1), NodeId(4));
    redundant.delete(NodeId(1), NodeId(4));
    let outcome = engine.apply(&mut graph, &redundant, 1);
    assert!(outcome.delta.is_empty(), "{}: redundant batch changed the view", E::NAME);
    assert!(engine.warm(), "{}: reduced-to-empty apply dropped the cached view", E::NAME);

    // A batch with a real view-level effect patches the cache in place:
    // still warm afterwards, and exact against a from-scratch rebuild.
    // Deleting n1's only outgoing edge demotes n1 while the chord keeps the
    // rest of the view alive (no total collapse, genuinely patched).
    let mut breaking = BatchUpdate::new();
    breaking.delete(NodeId(1), NodeId(2));
    let outcome = engine.apply(&mut graph, &breaking, 1);
    assert!(!outcome.delta.is_empty(), "{}: ring break left the view intact", E::NAME);
    assert!(engine.warm(), "{}: non-empty delta invalidated instead of patching", E::NAME);
    let fresh = E::build_shards(&pattern, &graph, 1);
    assert_eq!(engine.view(), fresh.view(), "{}: patched cache diverged from rebuild", E::NAME);
}

#[test]
fn sim_empty_delta_apply_keeps_cached_view() {
    let _guard = serial();
    cache_retention::<SimulationIndex>();
}

#[test]
fn bsim_empty_delta_apply_keeps_cached_view() {
    let _guard = serial();
    cache_retention::<BoundedIndex>();
}

// ---------------------------------------------------------------------------
// 5. Poisoned-read surface (satellite regression)
// ---------------------------------------------------------------------------

/// Two directed rings, ring A complete, ring B missing an edge; deleting a
/// ring-A edge and closing ring B forces both demotions and promotions, so
/// the promote-stage failpoint is guaranteed to fire on the returned batch.
struct TwoRings {
    graph: DataGraph,
    ring_a: Vec<NodeId>,
    ring_b: Vec<NodeId>,
}

impl TwoRings {
    fn new(ring_len: usize) -> Self {
        let mut graph = DataGraph::new();
        let ring = |graph: &mut DataGraph, complete: bool| -> Vec<NodeId> {
            let nodes: Vec<NodeId> =
                (0..ring_len).map(|i| graph.add_labeled_node(format!("l{}", i % 2))).collect();
            let last = if complete { ring_len } else { ring_len - 1 };
            for i in 0..last {
                graph.add_edge(nodes[i], nodes[(i + 1) % ring_len]);
            }
            nodes
        };
        let ring_a = ring(&mut graph, true);
        let ring_b = ring(&mut graph, false);
        TwoRings { graph, ring_a, ring_b }
    }

    /// The demote+promote batch: break ring A, close ring B's gap.
    fn poison_batch(&self) -> BatchUpdate {
        let n = self.ring_a.len();
        let mut batch = BatchUpdate::new();
        batch.delete(self.ring_a[0], self.ring_a[1]);
        batch.insert(self.ring_b[n - 1], self.ring_b[0]);
        batch
    }
}

fn two_ring_world(ring_len: usize) -> (DataGraph, BatchUpdate) {
    let world = TwoRings::new(ring_len);
    let batch = world.poison_batch();
    (world.graph, batch)
}

fn poisoned_read_surface<E: DeltaEngine>() {
    let pattern = E::cyclic_pattern();
    let (mut graph, batch) = two_ring_world(8);
    let mut engine = E::build_shards(&pattern, &graph, 1);
    let error =
        with_armed(E::POISON_SITE, || engine.try_apply_batch_with_shards(&mut graph, &batch, 1))
            .err()
            .unwrap_or_else(|| panic!("{}: promote failpoint never fired", E::NAME));
    let ApplyError::StagePanicked(info) = &error else {
        panic!("{}: expected StagePanicked, got {error}", E::NAME);
    };
    assert!(info.poisoned, "{}: promote-stage crash must poison", E::NAME);

    // Typed error path: `try_matches_view` (and `try_matches` through it)
    // reports `Poisoned` with the pinned Display string.
    let typed = engine.try_view().expect_err("poisoned read must fail");
    assert!(matches!(typed, ApplyError::Poisoned), "{}: wrong error: {typed:?}", E::NAME);
    assert_eq!(
        typed.to_string(),
        "index is poisoned by an earlier contained panic; call recover()",
        "{}: Poisoned Display drifted",
        E::NAME
    );
    let cloned = engine.try_matches().expect_err("poisoned try_matches must fail");
    assert!(matches!(cloned, ApplyError::Poisoned));

    // Panicking path: `matches_view` keeps its pinned message.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panic = catch_unwind(AssertUnwindSafe(|| engine.view_ref_panics()))
        .expect_err("poisoned matches_view must panic");
    std::panic::set_hook(hook);
    let message = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert_eq!(message, E::POISON_PANIC, "{}: matches_view panic message drifted", E::NAME);
}

#[test]
fn sim_poisoned_reads_pin_panic_and_error_strings() {
    let _guard = serial();
    poisoned_read_surface::<SimulationIndex>();
}

#[test]
fn bsim_poisoned_reads_pin_panic_and_error_strings() {
    let _guard = serial();
    poisoned_read_surface::<BoundedIndex>();
}

// ---------------------------------------------------------------------------
// 6. Lenient lockstep (satellite regression)
// ---------------------------------------------------------------------------

fn lenient_lockstep<E: DeltaEngine>(seed: u64) {
    let pattern = E::cyclic_pattern();
    let initial = seed_world(20, 2);
    for &shards in &SHARD_COUNTS {
        let mut rng = Rng(seed ^ shards as u64);
        let clean = gen_batch(&mut rng, &initial, 12);
        let clean_updates: Vec<Update> = clean.iter().copied().collect();

        // Splice invalid and redundant updates at known ORIGINAL positions:
        // position 0 an out-of-range insert, position 4 a duplicate insert
        // of position 3's edge, position 9 an out-of-range delete.
        let far = NodeId(initial.node_count() as u32 + 7);
        let mut updates = clean_updates.clone();
        updates.insert(0, Update::InsertEdge { from: far, to: NodeId(0) });
        let dup = updates[3]; // repeating an insert duplicates, a delete double-deletes
        updates.insert(4, dup);
        updates.insert(9, Update::DeleteEdge { from: NodeId(1), to: far });
        let dirty: BatchUpdate = updates.iter().copied().collect();

        // Lenient replica swallows the dirty batch…
        let mut lenient_graph = initial.clone();
        let mut lenient_engine = E::build_shards(&pattern, &lenient_graph, shards);
        let report = lenient_engine
            .lenient(&mut lenient_graph, &dirty, shards)
            .unwrap_or_else(|e| panic!("{} shards={shards}: lenient apply failed: {e}", E::NAME));

        // …the strict replica applies only the clean updates.
        let mut strict_graph = initial.clone();
        let mut strict_engine = E::build_shards(&pattern, &strict_graph, shards);
        let strict = strict_engine
            .try_apply_batch_with_shards(&mut strict_graph, &clean, shards)
            .unwrap_or_else(|e| panic!("{} shards={shards}: strict apply failed: {e}", E::NAME));

        // Rejections carry ORIGINAL positions — exactly the spliced slots.
        let positions: Vec<usize> = report.rejected.iter().map(|r| r.position).collect();
        assert_eq!(
            positions,
            vec![0, 4, 9],
            "{} shards={shards}: rejection positions are not original-batch positions",
            E::NAME
        );
        assert!(matches!(report.rejected[0].reason, RejectReason::NodeOutOfRange));
        assert!(matches!(
            report.rejected[1].reason,
            RejectReason::DuplicateInsert | RejectReason::AbsentDelete
        ));
        assert!(matches!(report.rejected[2].reason, RejectReason::NodeOutOfRange));

        // The emitted delta equals the strict path's delta on surviving ops,
        // and both replicas land on identical state.
        assert_eq!(
            report.delta,
            strict.delta,
            "{} shards={shards}: lenient delta diverged from strict",
            E::NAME
        );
        assert!(
            lenient_graph.identical_to(&strict_graph),
            "{} shards={shards}: graphs diverged",
            E::NAME
        );
        assert_eq!(
            lenient_engine.view(),
            strict_engine.view(),
            "{} shards={shards}: views diverged",
            E::NAME
        );
    }
}

#[test]
fn sim_lenient_reports_original_positions_and_strict_delta() {
    let _guard = serial();
    lenient_lockstep::<SimulationIndex>(0x1E41);
}

#[test]
fn bsim_lenient_reports_original_positions_and_strict_delta() {
    let _guard = serial();
    lenient_lockstep::<BoundedIndex>(0x1E42);
}

// ---------------------------------------------------------------------------
// 7. Durable replay identity and subscription semantics
// ---------------------------------------------------------------------------

const DURABILITY_SITES: [&str; 6] = [
    fail::WAL_APPEND_HEADER,
    fail::WAL_APPEND_BODY,
    fail::WAL_FSYNC,
    fail::CKPT_WRITE,
    fail::CKPT_RENAME,
    fail::WAL_PRUNE,
];

fn durable_opts(shards: usize, checkpoint_every: u64, delta_buffer: usize) -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        checkpoint_every,
        keep_checkpoints: 2,
        shards,
        delta_buffer,
    }
}

/// The uninterrupted run: every batch applied, the full delta stream
/// collected, the final matches snapshotted.
fn reference_deltas<E: DeltaEngine>(
    pattern: &Pattern,
    initial: &DataGraph,
    batches: &[BatchUpdate],
    opts: &DurableOptions,
) -> (BTreeMap<u64, MatchDelta>, MatchRelation) {
    let scratch = Scratch::new("reference");
    let mut index: DurableIndex<E> =
        DurableIndex::open(scratch.path().clone(), pattern, initial, opts.clone()).expect("open");
    let mut sub = index.subscribe_from(1);
    let mut deltas = BTreeMap::new();
    for (i, batch) in batches.iter().enumerate() {
        index.apply(batch).unwrap_or_else(|e| panic!("reference batch {i} failed: {e}"));
    }
    drain_deltas(&mut sub, &mut deltas, "reference run");
    assert_eq!(deltas.len(), batches.len(), "reference run must publish every batch");
    (deltas, index.try_matches().expect("reference readable"))
}

/// Crash at `site`, reopen fresh, and check the re-subscribed delta stream
/// (WAL-tail replay included) plus the continuation match the reference.
fn crash_site_replay_identity<E: DeltaEngine>(site: &str, seed: u64) {
    let pattern = E::cyclic_pattern();
    let initial = seed_world(20, 2);
    let mut rng = Rng(seed);
    let batches = gen_stream(&mut rng, &initial, 10, 8);
    // checkpoint_every=3 keeps the ckpt/prune sites reachable.
    let opts = durable_opts(1, 3, 1024);
    let (expected, expected_final) = reference_deltas::<E>(&pattern, &initial, &batches, &opts);

    let scratch = Scratch::new("crash");
    let context = format!("{} site `{site}`", E::NAME);
    let mut crashed = false;
    {
        let mut index: DurableIndex<E> =
            DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts.clone())
                .expect("open");
        for batch in &batches {
            let result = with_armed(site, || catch_unwind(AssertUnwindSafe(|| index.apply(batch))));
            match result {
                Ok(apply) => {
                    apply.unwrap_or_else(|e| panic!("{context}: apply failed cleanly: {e}"));
                }
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
    }
    assert!(crashed, "{context}: armed failpoint never fired");

    // Reopen: a fresh ring replays (and re-publishes) the WAL tail above the
    // newest checkpoint; everything below it surfaces as one explicit lag.
    let mut index: DurableIndex<E> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts.clone())
            .expect("reopen");
    let base = index.last_checkpoint_seq();
    if base > 0 {
        let mut from_start = index.subscribe_from(1);
        match from_start.poll() {
            Some(DeltaEvent::Lagged { missed, resume_seq }) => {
                assert_eq!(missed, base, "{context}: lag must cover the checkpointed prefix");
                assert_eq!(resume_seq, base + 1, "{context}: lag resume sequence");
            }
            other => panic!("{context}: checkpointed prefix must lag, got {other:?}"),
        }
    }
    let mut sub = index.subscribe_from(base + 1);
    let mut collected = BTreeMap::new();
    drain_deltas(&mut sub, &mut collected, &context);
    let resumed_from = index.sequence() as usize;
    for (i, batch) in batches.iter().enumerate().skip(resumed_from) {
        index.apply(batch).unwrap_or_else(|e| panic!("{context}: resumed batch {i}: {e}"));
    }
    drain_deltas(&mut sub, &mut collected, &context);

    for (seq, delta) in &collected {
        assert_eq!(
            Some(delta),
            expected.get(seq),
            "{context}: delta at seq {seq} differs from the never-crashed run"
        );
    }
    assert_eq!(
        collected.len(),
        batches.len() - base as usize,
        "{context}: replay + continuation must cover every batch above the checkpoint"
    );
    assert_eq!(
        index.try_matches().expect("recovered readable"),
        expected_final,
        "{context}: final matches diverged"
    );
}

#[test]
fn sim_crash_at_every_durability_site_replays_identical_deltas() {
    let _guard = serial();
    for (i, site) in DURABILITY_SITES.iter().enumerate() {
        crash_site_replay_identity::<SimulationIndex>(site, 0xDEAD + i as u64);
    }
}

#[test]
fn bsim_crash_at_every_durability_site_replays_identical_deltas() {
    let _guard = serial();
    for (i, site) in DURABILITY_SITES.iter().enumerate() {
        crash_site_replay_identity::<BoundedIndex>(site, 0xBEEF + i as u64);
    }
}

/// A contained engine panic mid-stream: the index turns poisoned with the
/// batch logged but unpublished; `recover()` replays it and the live
/// subscription observes every sequence number exactly once — no gap, no
/// duplicate — exactly as the never-crashed run would have shown it.
fn inplace_recover_republishes_swallowed_tail<E: DeltaEngine>() {
    let pattern = E::cyclic_pattern();
    let world = TwoRings::new(8);
    let initial = world.graph.clone();
    let poison_batch = world.poison_batch();
    // Deterministic warmup that leaves both rings' critical edges alone
    // (chords inside ring A only), so the poison batch stays valid and
    // still forces demote + promote work after the warmup.
    let chord = |from: usize, to: usize, insert: bool| {
        let mut batch = BatchUpdate::new();
        if insert {
            batch.insert(world.ring_a[from], world.ring_a[to]);
        } else {
            batch.delete(world.ring_a[from], world.ring_a[to]);
        }
        batch
    };
    let warmup = vec![chord(0, 3, true), chord(2, 5, true), chord(0, 3, false), chord(4, 7, true)];

    let opts = durable_opts(1, 0, 1024);
    let (expected, expected_final) = {
        let mut all = warmup.clone();
        all.push(poison_batch.clone());
        reference_deltas::<E>(&pattern, &initial, &all, &opts)
    };

    let scratch = Scratch::new("inplace");
    let mut index: DurableIndex<E> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts).expect("open");
    let mut sub = index.subscribe_from(1);
    let mut collected = BTreeMap::new();
    for (i, batch) in warmup.iter().enumerate() {
        index.apply(batch).unwrap_or_else(|e| panic!("warmup batch {i} failed: {e}"));
    }
    let error = with_armed(E::POISON_SITE, || index.apply(&poison_batch))
        .err()
        .unwrap_or_else(|| panic!("{}: promote failpoint never fired", E::NAME));
    assert!(
        matches!(error, DurableError::Apply(ApplyError::StagePanicked(_))),
        "{}: expected contained stage panic, got {error}",
        E::NAME
    );
    assert!(index.poisoned(), "{}: logged-not-applied must poison", E::NAME);

    index.recover().unwrap_or_else(|e| panic!("{}: recover failed: {e}", E::NAME));
    drain_deltas(&mut sub, &mut collected, E::NAME);

    assert_eq!(
        collected,
        expected,
        "{}: in-place recovery must re-emit exactly the swallowed tail",
        E::NAME
    );
    assert_eq!(
        index.try_matches().expect("recovered readable"),
        expected_final,
        "{}: recovered matches diverged",
        E::NAME
    );
}

#[test]
fn sim_inplace_recover_republishes_only_swallowed_deltas() {
    let _guard = serial();
    inplace_recover_republishes_swallowed_tail::<SimulationIndex>();
}

#[test]
fn bsim_inplace_recover_republishes_only_swallowed_deltas() {
    let _guard = serial();
    inplace_recover_republishes_swallowed_tail::<BoundedIndex>();
}

/// Bounded ring: a subscriber that falls further behind than
/// `delta_buffer` observes one explicit `Lagged` with an exact drop count,
/// then the retained tail, then catches up.
#[test]
fn slow_subscriber_observes_explicit_lag() {
    let _guard = serial();
    let pattern = SimulationIndex::cyclic_pattern();
    let initial = seed_world(16, 2);
    let mut rng = Rng(0x0F10);
    let batches = gen_stream(&mut rng, &initial, 10, 6);
    let scratch = Scratch::new("lag");
    let mut index: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, durable_opts(1, 0, 4))
            .expect("open");
    let mut sub = index.subscribe(); // next_seq = 1, never polled while 10 batches land
    assert_eq!(sub.next_seq(), 1);
    for (i, batch) in batches.iter().enumerate() {
        index.apply(batch).unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
    }
    match sub.poll() {
        Some(DeltaEvent::Lagged { missed, resume_seq }) => {
            assert_eq!(missed, 6, "ring of 4 over 10 batches drops exactly 6");
            assert_eq!(resume_seq, 7);
        }
        other => panic!("expected lag, got {other:?}"),
    }
    for expected_seq in 7..=10u64 {
        match sub.poll() {
            Some(DeltaEvent::Delta { seq, .. }) => assert_eq!(seq, expected_seq),
            other => panic!("expected delta at {expected_seq}, got {other:?}"),
        }
    }
    assert!(sub.poll().is_none(), "caught-up subscriber must poll None");
    assert_eq!(sub.next_seq(), 11);
}

/// Folding the subscription stream into a snapshot reproduces every view:
/// the advertised consumer contract, end to end through checkpoint+WAL.
#[test]
fn folding_subscription_deltas_reproduces_the_view() {
    let _guard = serial();
    let pattern = SimulationIndex::cyclic_pattern();
    let initial = seed_world(22, 2);
    let mut rng = Rng(0xF01D);
    let batches = gen_stream(&mut rng, &initial, 16, 10);
    let scratch = Scratch::new("fold");
    let mut index: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, durable_opts(1, 0, 1024))
            .expect("open");
    let mut snapshot = index.try_matches().expect("initial view");
    let mut sub = index.subscribe();
    for (i, batch) in batches.iter().enumerate() {
        index.apply(batch).unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
        match sub.poll() {
            Some(DeltaEvent::Delta { seq, delta }) => {
                assert_eq!(seq, i as u64 + 1, "subscription sequence aligns with the WAL");
                delta.apply_to(&mut snapshot);
            }
            other => panic!("batch {i}: expected delta, got {other:?}"),
        }
        assert_eq!(
            snapshot,
            index.try_matches().expect("readable"),
            "batch {i}: folded snapshot drifted from the live view"
        );
    }
}

// ---------------------------------------------------------------------------
// 8. `subscribe_from` edge cases: sequence 0 and cursors around checkpoints
// ---------------------------------------------------------------------------

/// Batch sequence numbers start at 1 (0 is the bootstrap checkpoint, not a
/// batch), so `subscribe_from(0)` on a fresh index is the full stream: it
/// must poll `None` — never a phantom `Lagged` for the nonexistent batch
/// 0 — and then see batch 1 first. Regression for the fabricated
/// `Lagged { missed: 1 }` the old cursor produced.
#[test]
fn subscribe_from_zero_is_the_full_stream_without_phantom_lag() {
    let _guard = serial();
    let pattern = SimulationIndex::cyclic_pattern();
    let initial = seed_world(16, 2);
    let mut rng = Rng(0x5EB0);
    let batches = gen_stream(&mut rng, &initial, 3, 6);
    let scratch = Scratch::new("seq0");
    let mut index: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, durable_opts(1, 0, 1024))
            .expect("open");

    let mut from_zero = index.subscribe_from(0);
    let mut from_one = index.subscribe_from(1);
    assert!(from_zero.poll().is_none(), "nothing committed yet: seq 0 must poll None, not lag");
    assert_eq!(from_zero.next_seq(), 1, "seq 0 clamps to the first real batch sequence");

    for (i, batch) in batches.iter().enumerate() {
        index.apply(batch).unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
    }
    for expected_seq in 1..=batches.len() as u64 {
        match (from_zero.poll(), from_one.poll()) {
            (
                Some(DeltaEvent::Delta { seq: a, delta: da }),
                Some(DeltaEvent::Delta { seq: b, delta: db }),
            ) => {
                assert_eq!(a, expected_seq, "seq-0 cursor out of order");
                assert_eq!(b, expected_seq, "seq-1 cursor out of order");
                assert_eq!(da, db, "seq 0 and seq 1 must be the same stream");
            }
            other => panic!("expected twin deltas at {expected_seq}, got {other:?}"),
        }
    }
    assert!(from_zero.poll().is_none());
    assert!(from_one.poll().is_none());
}

/// A cursor above the high-water mark is a *future* cursor: `poll` stays
/// `None` (no lag — the skipped prefix was skipped on purpose) until that
/// batch commits, then the stream starts exactly there.
#[test]
fn future_cursor_skips_silently_then_resumes_exactly_there() {
    let _guard = serial();
    let pattern = SimulationIndex::cyclic_pattern();
    let initial = seed_world(16, 2);
    let mut rng = Rng(0xF07E);
    let batches = gen_stream(&mut rng, &initial, 4, 6);
    let scratch = Scratch::new("future");
    let mut index: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, durable_opts(1, 0, 1024))
            .expect("open");

    let mut sub = index.subscribe_from(3);
    for (i, batch) in batches.iter().enumerate().take(2) {
        index.apply(batch).unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
        assert!(sub.poll().is_none(), "batch {i}: a future cursor must stay silent, not lag");
    }
    for (i, batch) in batches.iter().enumerate().skip(2) {
        index.apply(batch).unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
        match sub.poll() {
            Some(DeltaEvent::Delta { seq, .. }) => {
                assert_eq!(seq, i as u64 + 1, "stream must start exactly at the cursor")
            }
            other => panic!("batch {i}: expected delta, got {other:?}"),
        }
    }
    assert!(sub.poll().is_none());
}

/// After a checkpoint prunes the stream's prefix and the directory is
/// reopened (fresh ring), `subscribe_from` below the checkpoint reports the
/// unrecoverable gap as one exact `Lagged`; at the boundary it is a clean
/// future cursor. `subscribe_from(0)` misses 5 batches, not 6 — there is no
/// batch 0.
#[test]
fn subscribe_from_below_a_pruned_checkpoint_lags_exactly() {
    let _guard = serial();
    let pattern = SimulationIndex::cyclic_pattern();
    let initial = seed_world(18, 2);
    let mut rng = Rng(0xC4B0);
    let batches = gen_stream(&mut rng, &initial, 6, 6);
    let scratch = Scratch::new("pruned");
    let opts = durable_opts(1, 0, 1024);
    {
        let mut index: DurableIndex<SimulationIndex> =
            DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts.clone())
                .expect("open");
        for (i, batch) in batches.iter().enumerate().take(5) {
            index.apply(batch).unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
        }
        assert_eq!(index.checkpoint().expect("checkpoint"), 5);
    }

    let mut index: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts).expect("reopen");
    assert_eq!(index.last_checkpoint_seq(), 5);

    for (from, missed) in [(0u64, 5u64), (1, 5), (3, 3), (5, 1)] {
        let mut sub = index.subscribe_from(from);
        match sub.poll() {
            Some(DeltaEvent::Lagged { missed: m, resume_seq }) => {
                assert_eq!(m, missed, "subscribe_from({from}): exact drop count");
                assert_eq!(resume_seq, 6, "subscribe_from({from}): resume above the checkpoint");
            }
            other => panic!("subscribe_from({from}): expected lag, got {other:?}"),
        }
        assert!(sub.poll().is_none(), "subscribe_from({from}): nothing above the checkpoint yet");
    }

    // The boundary cursor is a future cursor: silent until batch 6 commits.
    let mut boundary = index.subscribe_from(6);
    assert!(boundary.poll().is_none(), "boundary cursor must not lag");
    index.apply(&batches[5]).expect("batch 6");
    match boundary.poll() {
        Some(DeltaEvent::Delta { seq, .. }) => assert_eq!(seq, 6),
        other => panic!("expected delta at 6, got {other:?}"),
    }
}

/// The same three edge cases through `DurableMatchService`, whose
/// subscription logic is a separate implementation over pattern-keyed
/// bundles: seq 0 ≡ seq 1, future cursors stay silent, and reopening above
/// a checkpoint lags with batch-granular counts.
#[test]
fn service_subscribe_from_matches_index_semantics() {
    let _guard = serial();
    let pattern = SimulationIndex::cyclic_pattern();
    let initial = seed_world(18, 2);
    let mut rng = Rng(0x5E8F);
    let batches = gen_stream(&mut rng, &initial, 6, 6);
    let scratch = Scratch::new("svc-cursor");
    let opts = durable_opts(1, 0, 1024);
    let pid;
    {
        let (mut service, pids) = DurableMatchService::<SimulationIndex>::open(
            scratch.path().clone(),
            std::slice::from_ref(&pattern),
            &initial,
            opts.clone(),
        )
        .expect("open");
        pid = pids[0];

        let mut from_zero = service.subscribe_from(0);
        assert!(from_zero.poll().is_none(), "seq 0 on a fresh service must poll None, not lag");
        let mut future = service.subscribe_from(3);

        for (i, batch) in batches.iter().enumerate().take(5) {
            service.apply(batch).unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
            match from_zero.poll() {
                Some(ServiceDeltaEvent::Delta { pattern_id, seq, .. }) => {
                    assert_eq!(pattern_id, pid);
                    assert_eq!(seq, i as u64 + 1, "seq-0 cursor sees the stream from batch 1");
                }
                other => panic!("batch {i}: expected delta, got {other:?}"),
            }
            if i < 2 {
                assert!(future.poll().is_none(), "batch {i}: future cursor must stay silent");
            } else {
                match future.poll() {
                    Some(ServiceDeltaEvent::Delta { seq, .. }) => assert_eq!(seq, i as u64 + 1),
                    other => panic!("batch {i}: expected delta, got {other:?}"),
                }
            }
        }
        assert_eq!(service.checkpoint().expect("checkpoint"), 5);
    }

    let (mut service, _pids) = DurableMatchService::<SimulationIndex>::open(
        scratch.path().clone(),
        std::slice::from_ref(&pattern),
        &initial,
        opts,
    )
    .expect("reopen");
    for (from, missed) in [(0u64, 5u64), (3, 3)] {
        let mut sub = service.subscribe_from(from);
        match sub.poll() {
            Some(ServiceDeltaEvent::Lagged { missed: m, resume_seq }) => {
                assert_eq!(m, missed, "service subscribe_from({from}): exact drop count");
                assert_eq!(resume_seq, 6);
            }
            other => panic!("service subscribe_from({from}): expected lag, got {other:?}"),
        }
        assert!(sub.poll().is_none());
    }
    let mut boundary = service.subscribe_from(6);
    assert!(boundary.poll().is_none(), "service boundary cursor must not lag");
    service.apply(&batches[5]).expect("batch 6");
    match boundary.poll() {
        Some(ServiceDeltaEvent::Delta { seq, .. }) => assert_eq!(seq, 6),
        other => panic!("expected service delta at 6, got {other:?}"),
    }
}

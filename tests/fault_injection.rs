//! Failpoint-driven crash-consistency suite.
//!
//! For every failpoint site in the batch pipeline (`igpm::graph::fail`),
//! every shard count in {1, 4, 8} and both incremental engines, this suite
//! arms the site, applies a batch that is known to reach it, and asserts the
//! transactional contract of the containment layer:
//!
//! * the injected panic is caught and surfaced as
//!   [`ApplyError::StagePanicked`] — never an unwind through the caller;
//! * the **graph** is always rolled back to its pre-batch edge set
//!   (order-insensitive equality plus an edge-index consistency check — the
//!   rollback may reorder adjacency lists, which no matching result depends
//!   on);
//! * if the containment reports the index **usable** (`poisoned == false`),
//!   its auxiliary state is byte-identical to the pre-batch snapshot and
//!   re-applying the batch lands on exactly the state of an uninterrupted
//!   control replica;
//! * if it reports the index **poisoned**, reads and writes fail with
//!   [`ApplyError::Poisoned`] until `recover()` — whose result must be
//!   byte-identical to a fresh build from the (rolled-back) graph — after
//!   which the batch applies cleanly and agrees with the control replica.
//!
//! One sim case runs a ≥ `PARALLEL_WORK_THRESHOLD` batch on a large graph so
//! the injected panic lands between the two passes of the *threaded*
//! graph-mutation fan-out, proving the rollback repairs the deliberately
//! inconsistent cross-side state.
//!
//! The failpoint registry is process-global, so every test serialises on one
//! mutex and the injected panics are silenced with a no-op panic hook while
//! a site is armed.

mod common;

use common::{cycle_pattern, serial, with_armed};
use igpm::core::{BoundedIndex, SimulationIndex};
use igpm::graph::fail;
use igpm::graph::{ApplyError, BatchUpdate, DataGraph, NodeId, Pattern};

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// Two directed rings with labels alternating `l0`/`l1`, ring A complete and
/// ring B missing one edge. Under a cyclic 2-node pattern every ring-A node
/// matches and every ring-B node is a mere candidate (the gap unravels the
/// cycle), so one batch can force demotions (break ring A) and promotions
/// via `propCC` (close ring B) at the same time.
struct World {
    graph: DataGraph,
    ring_a: Vec<NodeId>,
    ring_b: Vec<NodeId>,
}

fn two_ring_world(ring_len: usize) -> World {
    assert!(ring_len.is_multiple_of(2), "alternating labels need an even ring");
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
    World { graph, ring_a, ring_b }
}

/// Bounded b-pattern `l0 -[1]-> l1 -[*]-> l0` — cyclic, so the promotion
/// phase always runs; the 1-hop bound makes ring-edge deletions demote.
fn bounded_cycle_pattern() -> Pattern {
    use igpm::graph::EdgeBound;
    let mut p = Pattern::new();
    let a = p.add_labeled_node("l0");
    let b = p.add_labeled_node("l1");
    p.add_edge(a, b, EdgeBound::Hops(1));
    p.add_edge(b, a, EdgeBound::Unbounded);
    p
}

/// The crash batch: break ring A (demotions ripple around the whole ring)
/// and close ring B's gap (promotions, through `propCC` for the cyclic
/// pattern). Validation-clean by construction: it deletes a present edge and
/// inserts an absent one, each exactly once.
fn crash_batch(world: &World) -> BatchUpdate {
    let n = world.ring_a.len();
    let mut batch = BatchUpdate::new();
    batch.delete(world.ring_a[0], world.ring_a[1]);
    batch.insert(world.ring_b[n - 1], world.ring_b[0]);
    batch
}

/// Every site the plain-simulation batch pipeline reaches for `crash_batch`,
/// in pipeline order except for `sim.reduce`: it fires in the relevance
/// classification, which runs after the graph mutation (the net-effect
/// reduction before the mutation has no site of its own).
const SIM_SITES: [&str; 9] = [
    fail::SHARD_PLAN,
    fail::SIM_REDUCE,
    fail::SIM_MUTATE,
    fail::GRAPH_APPLY_SIDES,
    fail::GRAPH_REMOVE_EDGE,
    fail::GRAPH_ADD_EDGE,
    fail::SIM_ABSORB,
    fail::SIM_DEMOTE,
    fail::SIM_PROMOTE,
];

/// Every site the bounded-simulation batch pipeline reaches for
/// `crash_batch` (the graph mutates inside `IncLM`, so the unit-edge sites
/// fire there; `graph.apply-sides` is plain-engine-only).
const BSIM_SITES: [&str; 8] = [
    fail::SHARD_PLAN,
    fail::BSIM_REDUCE,
    fail::BSIM_LANDMARK,
    fail::GRAPH_REMOVE_EDGE,
    fail::GRAPH_ADD_EDGE,
    fail::BSIM_REFRESH,
    fail::BSIM_DEMOTE,
    fail::BSIM_PROMOTE,
];

/// Abstracts the two engines behind the handful of operations the contract
/// check needs, so one driver covers both.
trait Engine: Sized {
    type Aux: PartialEq + std::fmt::Debug;
    fn build(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self;
    fn aux(&self) -> Self::Aux;
    fn matches(&self) -> igpm::graph::MatchRelation;
    fn try_matches(&self) -> Result<igpm::graph::MatchRelation, ApplyError>;
    fn poisoned(&self) -> bool;
    fn try_apply(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<igpm::core::ApplyOutcome, ApplyError>;
    fn recover(&mut self, graph: &DataGraph, shards: usize);
}

impl Engine for SimulationIndex {
    type Aux = igpm::core::SimAuxSnapshot;
    fn build(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        SimulationIndex::build_with_shards(pattern, graph, shards)
    }
    fn aux(&self) -> Self::Aux {
        self.aux_snapshot()
    }
    fn matches(&self) -> igpm::graph::MatchRelation {
        SimulationIndex::matches(self)
    }
    fn try_matches(&self) -> Result<igpm::graph::MatchRelation, ApplyError> {
        SimulationIndex::try_matches(self)
    }
    fn poisoned(&self) -> bool {
        SimulationIndex::poisoned(self)
    }
    fn try_apply(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<igpm::core::ApplyOutcome, ApplyError> {
        self.try_apply_batch_with_shards(graph, batch, shards)
    }
    fn recover(&mut self, graph: &DataGraph, shards: usize) {
        self.recover_with_shards(graph, shards)
    }
}

impl Engine for BoundedIndex {
    type Aux = igpm::core::BsimAuxSnapshot;
    fn build(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        BoundedIndex::build_with_shards(pattern, graph, shards)
    }
    fn aux(&self) -> Self::Aux {
        self.aux_snapshot()
    }
    fn matches(&self) -> igpm::graph::MatchRelation {
        BoundedIndex::matches(self)
    }
    fn try_matches(&self) -> Result<igpm::graph::MatchRelation, ApplyError> {
        BoundedIndex::try_matches(self)
    }
    fn poisoned(&self) -> bool {
        BoundedIndex::poisoned(self)
    }
    fn try_apply(
        &mut self,
        graph: &mut DataGraph,
        batch: &BatchUpdate,
        shards: usize,
    ) -> Result<igpm::core::ApplyOutcome, ApplyError> {
        self.try_apply_batch_with_shards(graph, batch, shards)
    }
    fn recover(&mut self, graph: &DataGraph, shards: usize) {
        self.recover_with_shards(graph, shards)
    }
}

/// The full contract check for one (engine, site, shard count) cell.
fn check_site<E: Engine>(pattern: &Pattern, world: &World, site: &str, shards: usize) {
    let context = format!("site `{site}`, shards={shards}");
    let batch = crash_batch(world);

    // Control replica: the batch applied with no failpoint armed.
    let mut control_graph = world.graph.clone();
    let mut control = E::build(pattern, &control_graph, shards);
    let pre_aux = control.aux();
    let pre_matches = Engine::matches(&control);
    control
        .try_apply(&mut control_graph, &batch, shards)
        .unwrap_or_else(|e| panic!("{context}: control apply failed: {e}"));

    // Victim replica: the same batch with `site` armed.
    let mut graph = world.graph.clone();
    let mut index = E::build(pattern, &graph, shards);
    let error = with_armed(site, || index.try_apply(&mut graph, &batch, shards))
        .err()
        .unwrap_or_else(|| panic!("{context}: armed failpoint never fired"));
    let ApplyError::StagePanicked(panic_info) = &error else {
        panic!("{context}: expected StagePanicked, got {error}");
    };
    assert!(
        panic_info.message.contains("failpoint"),
        "{context}: foreign panic contained: {}",
        panic_info.message
    );
    assert!(panic_info.rolled_back, "{context}: graph must always be rolled back");

    // The graph is rolled back to the pre-batch edge set (adjacency order
    // may differ — no matching result depends on it) and stays internally
    // consistent.
    assert_eq!(graph, world.graph, "{context}: graph not rolled back");
    graph.assert_edge_index_consistent();

    if panic_info.poisoned {
        assert!(Engine::poisoned(&index), "{context}: flag disagrees with report");
        // Reads and writes refuse until recovery.
        assert!(
            matches!(Engine::try_matches(&index), Err(ApplyError::Poisoned)),
            "{context}: poisoned read must error"
        );
        assert!(
            matches!(index.try_apply(&mut graph, &batch, shards), Err(ApplyError::Poisoned)),
            "{context}: poisoned write must error"
        );
        // Recovery = fresh sharded build from the rolled-back graph,
        // bit-identical to building from scratch.
        index.recover(&graph, shards);
        let fresh = E::build(pattern, &graph, shards);
        assert_eq!(index.aux(), fresh.aux(), "{context}: recover() diverged from fresh build");
        assert_eq!(Engine::matches(&index), pre_matches, "{context}: recovered pre-batch match");
    } else {
        assert!(!Engine::poisoned(&index), "{context}: flag disagrees with report");
        // Usable: the auxiliary state must be exactly the pre-batch state.
        assert_eq!(index.aux(), pre_aux, "{context}: usable index has torn aux state");
        assert_eq!(Engine::matches(&index), pre_matches, "{context}: usable index, wrong match");
    }

    // Either way the batch now applies cleanly and lands on the control
    // replica's state (graphs compared order-insensitively: the rollback may
    // have reordered adjacency lists).
    index
        .try_apply(&mut graph, &batch, shards)
        .unwrap_or_else(|e| panic!("{context}: post-containment apply failed: {e}"));
    assert_eq!(graph, control_graph, "{context}: graph diverged from control after re-apply");
    assert_eq!(index.aux(), control.aux(), "{context}: aux diverged from control after re-apply");
    assert_eq!(Engine::matches(&index), Engine::matches(&control), "{context}: match diverged");
}

#[test]
fn every_sim_site_rolls_back_or_poisons_and_recovers() {
    let _serial = serial();
    let world = two_ring_world(8);
    let pattern = cycle_pattern();
    for shards in SHARD_COUNTS {
        for site in SIM_SITES {
            check_site::<SimulationIndex>(&pattern, &world, site, shards);
        }
    }
}

#[test]
fn every_bsim_site_rolls_back_or_poisons_and_recovers() {
    let _serial = serial();
    let world = two_ring_world(8);
    let pattern = bounded_cycle_pattern();
    for shards in SHARD_COUNTS {
        for site in BSIM_SITES {
            check_site::<BoundedIndex>(&pattern, &world, site, shards);
        }
    }
}

#[test]
fn sim_stage_reports_classify_rollback_vs_poison() {
    // The containment's poison decision is part of the public contract:
    // pre-mutation and mutation-only stages leave the index usable, anything
    // that may have touched auxiliary state poisons. Pin it per site.
    let _serial = serial();
    let world = two_ring_world(8);
    let pattern = cycle_pattern();
    let expect_poison = |site: &str| {
        !matches!(
            site,
            fail::SIM_REDUCE
                | fail::SIM_MUTATE
                | fail::GRAPH_APPLY_SIDES
                | fail::GRAPH_ADD_EDGE
                | fail::GRAPH_REMOVE_EDGE
        )
    };
    for site in SIM_SITES {
        let batch = crash_batch(&world);
        let mut graph = world.graph.clone();
        let mut index = SimulationIndex::build_with_shards(&pattern, &graph, 1);
        let error = with_armed(site, || index.try_apply_batch_with_shards(&mut graph, &batch, 1))
            .err()
            .unwrap_or_else(|| panic!("site `{site}` never fired"));
        let ApplyError::StagePanicked(panic_info) = &error else {
            panic!("site `{site}`: expected StagePanicked, got {error}");
        };
        assert_eq!(
            panic_info.poisoned,
            expect_poison(site),
            "site `{site}` (stage `{}`): unexpected poison classification",
            panic_info.stage
        );
    }
    // In the bounded engine only the pure-read reduction stage is safe.
    let pattern = bounded_cycle_pattern();
    for site in BSIM_SITES {
        let batch = crash_batch(&world);
        let mut graph = world.graph.clone();
        let mut index = BoundedIndex::build_with_shards(&pattern, &graph, 1);
        let error = with_armed(site, || index.try_apply_batch_with_shards(&mut graph, &batch, 1))
            .err()
            .unwrap_or_else(|| panic!("site `{site}` never fired"));
        let ApplyError::StagePanicked(panic_info) = &error else {
            panic!("site `{site}`: expected StagePanicked, got {error}");
        };
        assert_eq!(
            panic_info.poisoned,
            site != fail::BSIM_REDUCE,
            "site `{site}` (stage `{}`): unexpected poison classification",
            panic_info.stage
        );
    }
}

#[test]
fn threaded_mutation_fanout_crash_is_rolled_back() {
    // A ≥ PARALLEL_WORK_THRESHOLD batch on a > threshold graph drives the
    // graph mutation through the two-pass scoped-thread fan-out; the
    // `graph.apply-sides` site then fires *between* the passes, where the
    // forward adjacency is fully mutated and the reverse adjacency is still
    // pre-batch. The rollback must repair that deliberately inconsistent
    // cross-side state.
    use igpm::graph::shard::PARALLEL_WORK_THRESHOLD;
    let _serial = serial();

    let ring_len = 3 * PARALLEL_WORK_THRESHOLD / 2; // even, > threshold nodes
    let world = two_ring_world(ring_len);
    let pattern = cycle_pattern();
    // Delete every other ring-A edge and insert a matching number of absent
    // ring-B chords: ≥ threshold updates in total, each edge touched once.
    let mut batch = BatchUpdate::new();
    for i in (0..ring_len).step_by(2) {
        batch.delete(world.ring_a[i], world.ring_a[(i + 1) % ring_len]);
    }
    for i in (0..ring_len).step_by(2) {
        // A chord skipping two nodes keeps the label alternation (l0 → l1).
        batch.insert(world.ring_b[i], world.ring_b[(i + 3) % ring_len]);
    }
    assert!(batch.len() >= PARALLEL_WORK_THRESHOLD, "batch must reach the fan-out threshold");

    for shards in [4, 8] {
        let mut graph = world.graph.clone();
        let mut index = SimulationIndex::build_with_shards(&pattern, &graph, shards);
        let pre_aux = index.aux_snapshot();
        let error = with_armed(fail::GRAPH_APPLY_SIDES, || {
            index.try_apply_batch_with_shards(&mut graph, &batch, shards)
        })
        .expect_err("apply-sides must fire in the fan-out path");
        let ApplyError::StagePanicked(panic_info) = &error else {
            panic!("expected StagePanicked, got {error}");
        };
        assert!(!panic_info.poisoned, "mutation-stage crash leaves the index usable");
        assert_eq!(graph, world.graph, "cross-side partial state not rolled back");
        graph.assert_edge_index_consistent();
        assert_eq!(index.aux_snapshot(), pre_aux);

        // And the batch still applies cleanly afterwards, agreeing with an
        // uninterrupted control replica.
        let mut control_graph = world.graph.clone();
        let mut control = SimulationIndex::build_with_shards(&pattern, &control_graph, shards);
        let control_stats =
            control.try_apply_batch_with_shards(&mut control_graph, &batch, shards).expect("ok");
        let stats = index.try_apply_batch_with_shards(&mut graph, &batch, shards).expect("ok");
        assert_eq!(stats, control_stats, "shards={shards}: stats diverged after containment");
        assert_eq!(graph, control_graph);
        assert_eq!(index.aux_snapshot(), control.aux_snapshot());
    }
}

#[test]
fn unknown_failpoint_names_are_rejected() {
    let _serial = serial();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(|| fail::arm("sim.no-such-stage"));
    std::panic::set_hook(hook);
    assert!(result.is_err(), "arming an unknown site must panic");
    fail::disarm_all();
}

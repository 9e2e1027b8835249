//! Conformance suite for the asynchronous ingestion front-end (`Ingest`).
//!
//! The contract under test (see `crates/core/src/ingest.rs`):
//!
//! * **Equivalence** — for any interleaving of producers and any adaptive-cap
//!   trajectory, draining through the ingest leaves the sink in exactly the
//!   state of applying the accepted submissions synchronously, one by one, in
//!   queue order; and replaying the coalesced batches the sink actually saw
//!   (recovered from `IngestApply::seq` groupings) through a synchronous
//!   `DurableIndex` reproduces the durable **delta stream bit-identically**,
//!   for both engines and every shard count in {1, 2, 3, 8}.
//! * **Strict per-op rejection semantics** — lenient submissions keep their
//!   rejection positions in their *own* batch even after the coalescer merges
//!   them with neighbours (the `apply_batch_lenient` audit).
//! * **Bounded queue, never silently dropping** — backpressure is a typed
//!   refusal, blocking producers wake when a drain frees space, and shutdown
//!   flushes every enqueued submission mid-burst.
//! * **Failure composition** — a contained sink error (shared-stage panic in
//!   the service, rolled back) fails one cycle and the ingest keeps running;
//!   a sink panic (the durability crash model) kills the ingest, and the
//!   durable directory reopens through ordinary recovery with the WAL-aligned
//!   replay re-emitting exactly what the never-crashed run published.
//!
//! The failpoint registry is process-global, so the failpoint-driven tests
//! serialise on one mutex and run with a muted panic hook while armed.

mod common;

use common::{drain_deltas, gen_stream, seed_world, serial, with_armed, Rng, Scratch};
use igpm::core::IncrementalEngine;
use igpm::graph::fail;
use igpm::graph::wal::FsyncPolicy;
use igpm::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn durable_opts(shards: usize, checkpoint_every: u64) -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        checkpoint_every,
        keep_checkpoints: 2,
        shards,
        delta_buffer: 4096,
    }
}

// ---------------------------------------------------------------------------
// Engine abstraction (the ingest suite needs a small slice of both engines)
// ---------------------------------------------------------------------------

trait IngestEngine: IncrementalEngine {
    const NAME: &'static str;
    fn build_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self;
    fn apply(&mut self, graph: &mut DataGraph, batch: &BatchUpdate, shards: usize) -> ApplyOutcome;
    fn view(&self) -> MatchRelation;
    /// Cyclic 2-node pattern `l0 ⇄ l1` (SCC promotion phases run).
    fn cyclic_pattern() -> Pattern;
}

impl IngestEngine for SimulationIndex {
    const NAME: &'static str = "sim";
    fn build_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        SimulationIndex::build_with_shards(pattern, graph, shards)
    }
    fn apply(&mut self, graph: &mut DataGraph, batch: &BatchUpdate, shards: usize) -> ApplyOutcome {
        self.apply_batch_with_shards(graph, batch, shards)
    }
    fn view(&self) -> MatchRelation {
        self.matches()
    }
    fn cyclic_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_labeled_node("l0");
        let b = p.add_labeled_node("l1");
        p.add_normal_edge(a, b);
        p.add_normal_edge(b, a);
        p
    }
}

impl IngestEngine for BoundedIndex {
    const NAME: &'static str = "bsim";
    fn build_shards(pattern: &Pattern, graph: &DataGraph, shards: usize) -> Self {
        BoundedIndex::build_with_shards(pattern, graph, shards)
    }
    fn apply(&mut self, graph: &mut DataGraph, batch: &BatchUpdate, shards: usize) -> ApplyOutcome {
        self.apply_batch_with_shards(graph, batch, shards)
    }
    fn view(&self) -> MatchRelation {
        self.matches()
    }
    fn cyclic_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.add_labeled_node("l0");
        let b = p.add_labeled_node("l1");
        p.add_edge(a, b, EdgeBound::Hops(1));
        p.add_edge(b, a, EdgeBound::Unbounded);
        p
    }
}

// ---------------------------------------------------------------------------
// 1. Delta-stream equivalence: ingest vs synchronous application
// ---------------------------------------------------------------------------

/// The tentpole contract. A seeded stream of submissions goes through a
/// manual-drain ingest over a `DurableIndex`, drained in seeded waves so the
/// adaptive cap actually moves. Then:
///
/// * the `IngestApply::seq` groupings must partition the submissions into
///   contiguous coalesced batches (offsets tile each batch exactly);
/// * replaying those *same* coalesced batches through a synchronous
///   `DurableIndex` in a second directory reproduces the delta stream
///   bit-identically, sequence by sequence;
/// * a plain engine applying the submissions one by one — no coalescing at
///   all — lands on the identical final view and graph.
fn ingest_stream_equivalence<E: IngestEngine>(seed: u64) {
    let pattern = E::cyclic_pattern();
    let initial = seed_world(20, 2);
    for &shards in &SHARD_COUNTS {
        let context = format!("{} shards={shards}", E::NAME);
        let mut rng = Rng(seed ^ (shards as u64) << 32);
        let submissions = gen_stream(&mut rng, &initial, 36, 2);
        let opts = durable_opts(shards, 0);

        let scratch = Scratch::new("equiv");
        let sink: DurableIndex<E> =
            DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts.clone())
                .expect("open ingest sink");
        let ingest_opts =
            IngestOptions { queue_capacity: 4096, min_batch: 2, max_batch: 16, burst_backlog: 4 };
        let mut ingest = Ingest::new_manual(sink, ingest_opts);
        let handle = ingest.handle();
        let mut tickets = Vec::new();
        for batch in &submissions {
            tickets.push(handle.try_submit(batch.clone()).expect("queue is large enough"));
            if rng.next().is_multiple_of(3) {
                ingest.drain_once();
            }
        }
        while ingest.drain_once() > 0 {}
        let applies: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap_or_else(|e| panic!("{context}: submission failed: {e}")))
            .collect();

        // Recover the coalesced batches the sink actually saw.
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, apply) in applies.iter().enumerate() {
            assert!(apply.rejected.is_empty(), "{context}: spurious strip");
            assert_eq!(apply.applied_ops, submissions[i].len(), "{context}: ops went missing");
            groups.entry(apply.seq).or_default().push(i);
        }
        let coalesced: Vec<BatchUpdate> = groups
            .values()
            .map(|members| {
                let mut members = members.clone();
                members.sort_by_key(|&i| applies[i].offset);
                let mut merged = BatchUpdate::new();
                for &i in &members {
                    assert_eq!(
                        applies[i].offset,
                        merged.len(),
                        "{context}: offsets must tile the coalesced batch"
                    );
                    for &update in submissions[i].iter() {
                        merged.push(update);
                    }
                }
                let total = applies[members[0]].coalesced_ops;
                assert_eq!(merged.len(), total, "{context}: coalesced size mismatch");
                merged
            })
            .collect();
        assert!(
            coalesced.len() < submissions.len(),
            "{context}: the waves must actually coalesce something"
        );

        let sink = ingest.shutdown().expect("sink survives a clean run");
        let mut ingest_deltas = BTreeMap::new();
        drain_deltas(&mut sink.subscribe_from(1), &mut ingest_deltas, &context);
        assert_eq!(ingest_deltas.len(), coalesced.len(), "{context}: one delta per sink batch");

        // Synchronous control #1: the same coalesced batches, same shard
        // count, fresh directory — the delta stream must be bit-identical.
        let control_scratch = Scratch::new("equiv-control");
        let mut control: DurableIndex<E> =
            DurableIndex::open(control_scratch.path().clone(), &pattern, &initial, opts)
                .expect("open control");
        for (i, batch) in coalesced.iter().enumerate() {
            control.apply(batch).unwrap_or_else(|e| panic!("{context}: control batch {i}: {e}"));
        }
        let mut control_deltas = BTreeMap::new();
        drain_deltas(&mut control.subscribe_from(1), &mut control_deltas, &context);
        assert_eq!(
            ingest_deltas, control_deltas,
            "{context}: ingest delta stream diverged from synchronous application"
        );
        assert!(
            sink.graph().identical_to(control.graph()),
            "{context}: graphs diverged from the coalesced control"
        );

        // Synchronous control #2: one submission at a time, no coalescing.
        // Grouping changes the net-effect reduction's *mutation order*, so
        // adjacency lists may be permuted — the edge set and the match view
        // must still be identical.
        let mut unit_graph = initial.clone();
        let mut unit_engine = E::build_shards(&pattern, &initial, shards);
        for submission in &submissions {
            unit_engine.apply(&mut unit_graph, submission, shards);
        }
        let edge_set = |graph: &DataGraph| {
            let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
            edges.sort_unstable();
            edges
        };
        assert_eq!(
            edge_set(sink.graph()),
            edge_set(&unit_graph),
            "{context}: edge set diverged from per-submission application"
        );
        assert_eq!(
            sink.try_matches().expect("sink readable"),
            unit_engine.view(),
            "{context}: final view diverged from per-submission application"
        );
    }
}

#[test]
fn sim_ingest_delta_stream_equals_synchronous_application() {
    let _guard = serial();
    ingest_stream_equivalence::<SimulationIndex>(0x16E5_0001);
}

#[test]
fn bsim_ingest_delta_stream_equals_synchronous_application() {
    let _guard = serial();
    ingest_stream_equivalence::<BoundedIndex>(0x16E5_0002);
}

/// With the cap pinned to 1 every submission is its own sink batch, so the
/// ingest delta stream must equal the per-submission synchronous stream
/// *sequence by sequence* — the literal no-coalescing identity.
fn per_submission_cap_identity<E: IngestEngine>(seed: u64) {
    let pattern = E::cyclic_pattern();
    let initial = seed_world(16, 2);
    for &shards in &[1usize, 8] {
        let context = format!("{} shards={shards} cap=1", E::NAME);
        let mut rng = Rng(seed ^ shards as u64);
        let submissions = gen_stream(&mut rng, &initial, 12, 2);
        let opts = durable_opts(shards, 0);

        let scratch = Scratch::new("cap1");
        let sink: DurableIndex<E> =
            DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts.clone())
                .expect("open");
        let ingest_opts =
            IngestOptions { queue_capacity: 4096, min_batch: 1, max_batch: 1, burst_backlog: 4 };
        let mut ingest = Ingest::new_manual(sink, ingest_opts);
        let handle = ingest.handle();
        let tickets: Vec<_> = submissions
            .iter()
            .map(|batch| handle.try_submit(batch.clone()).expect("enqueue"))
            .collect();
        while ingest.drain_once() > 0 {}
        for (i, ticket) in tickets.into_iter().enumerate() {
            let apply = ticket.wait().unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_eq!(apply.seq, i as u64 + 1, "{context}: one WAL sequence per submission");
            assert_eq!(apply.coalesced_ops, submissions[i].len(), "{context}: no coalescing");
        }
        let sink = ingest.shutdown().expect("clean run");
        let mut ingest_deltas = BTreeMap::new();
        drain_deltas(&mut sink.subscribe_from(1), &mut ingest_deltas, &context);

        let control_scratch = Scratch::new("cap1-control");
        let mut control: DurableIndex<E> =
            DurableIndex::open(control_scratch.path().clone(), &pattern, &initial, opts)
                .expect("open control");
        for (i, batch) in submissions.iter().enumerate() {
            control.apply(batch).unwrap_or_else(|e| panic!("{context}: control {i}: {e}"));
        }
        let mut control_deltas = BTreeMap::new();
        drain_deltas(&mut control.subscribe_from(1), &mut control_deltas, &context);
        assert_eq!(ingest_deltas, control_deltas, "{context}: streams must be bit-identical");
    }
}

#[test]
fn sim_per_submission_cap_is_bit_identical_to_unit_application() {
    let _guard = serial();
    per_submission_cap_identity::<SimulationIndex>(0xCA11);
}

#[test]
fn bsim_per_submission_cap_is_bit_identical_to_unit_application() {
    let _guard = serial();
    per_submission_cap_identity::<BoundedIndex>(0xCA12);
}

// ---------------------------------------------------------------------------
// 2. Multi-producer interleavings and shutdown-flush
// ---------------------------------------------------------------------------

fn producer_world(producers: usize, region: usize) -> DataGraph {
    let mut graph = DataGraph::new();
    for _ in 0..producers {
        for i in 0..region {
            graph.add_labeled_node(if i % 2 == 0 { "A" } else { "B" });
        }
    }
    graph
}

fn edge_service(graph: DataGraph) -> (MatchService<SimulationIndex>, PatternId) {
    let mut service = MatchService::with_shards(graph, 1);
    let mut p = Pattern::new();
    let a = p.add_labeled_node("A");
    let b = p.add_labeled_node("B");
    p.add_normal_edge(a, b);
    let id = service.register(&p).expect("register");
    (service, id)
}

/// Four producer threads hammer a threaded ingest over disjoint edge
/// regions: every submission resolves `Ok`, each producer's commits are
/// FIFO (its `seq` values never go backwards), and the final state equals
/// the region-wise net effect — independent of the interleaving.
#[test]
fn multi_producer_interleavings_commit_fifo_and_converge() {
    let _guard = serial();
    const PRODUCERS: usize = 4;
    const REGION: usize = 16;
    const EDGES: usize = 4;
    const ROUNDS: usize = 5; // odd per edge → every edge ends present

    let (service, pid) = edge_service(producer_world(PRODUCERS, REGION));
    let ingest = Ingest::spawn(service, IngestOptions::default());
    let handle = ingest.handle();

    let mut joins = Vec::new();
    for p in 0..PRODUCERS {
        let handle = handle.clone();
        joins.push(std::thread::spawn(move || {
            let base = (p * REGION) as u32;
            let mut tickets = Vec::new();
            for round in 0..ROUNDS {
                for k in 0..EDGES as u32 {
                    let (from, to) = (NodeId(base + 2 * k), NodeId(base + 2 * k + 1));
                    let update = if round % 2 == 0 {
                        Update::insert(from, to)
                    } else {
                        Update::delete(from, to)
                    };
                    let batch: BatchUpdate = std::iter::once(update).collect();
                    tickets.push(handle.submit(batch).expect("ingest is open"));
                }
            }
            tickets
        }));
    }
    for join in joins {
        let tickets = join.join().expect("producer thread");
        let mut last_seq = 0u64;
        for ticket in tickets {
            let apply = ticket.wait().expect("every valid submission commits");
            assert!(apply.seq >= last_seq, "a producer's own submissions commit in order");
            last_seq = apply.seq;
        }
    }

    let stats = ingest.stats();
    assert_eq!(stats.submitted, (PRODUCERS * EDGES * ROUNDS) as u64);
    assert_eq!(stats.committed_ops, stats.submitted_ops, "nothing dropped, nothing rejected");
    assert_eq!(stats.rejected_submissions, 0);

    let service = ingest.shutdown().expect("clean shutdown returns the sink");
    let (mut control, control_pid) = edge_service(producer_world(PRODUCERS, REGION));
    let mut net = BatchUpdate::new();
    for p in 0..PRODUCERS as u32 {
        let base = p * REGION as u32;
        for k in 0..EDGES as u32 {
            net.insert(NodeId(base + 2 * k), NodeId(base + 2 * k + 1));
        }
    }
    control.apply(&net).expect("control net batch");
    assert!(service.graph().identical_to(control.graph()), "net effect diverged");
    assert_eq!(
        service.matches(pid).expect("sink view"),
        control.matches(control_pid).expect("control view"),
        "final match view diverged"
    );
}

/// Shutdown mid-burst: a producer floods the queue while the owner shuts
/// down. Every *enqueued* submission still resolves `Ok` (the flush
/// guarantee), refusals at the door are typed `Closed`, and the sink state
/// equals the synchronous application of exactly the accepted prefix.
#[test]
fn shutdown_flushes_every_enqueued_submission_mid_burst() {
    let _guard = serial();
    const SUBMISSIONS: usize = 200;
    let initial = producer_world(1, 16);
    let mut rng = Rng(0x51D0);
    let submissions = gen_stream(&mut rng, &initial, SUBMISSIONS, 1);

    let (service, _pid) = edge_service(initial.clone());
    let ingest = Ingest::spawn(
        service,
        IngestOptions { min_batch: 1, max_batch: 4, ..IngestOptions::default() },
    );
    let handle = ingest.handle();
    let stats_handle = ingest.handle();
    let producer = {
        let submissions = submissions.clone();
        std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for batch in submissions {
                match handle.submit(batch) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(SubmitError::Closed) => break,
                    Err(other) => panic!("unexpected refusal: {other}"),
                }
            }
            tickets
        })
    };
    std::thread::sleep(Duration::from_millis(2));
    let service = ingest.shutdown().expect("clean shutdown returns the sink");
    let tickets = producer.join().expect("producer thread");
    let accepted = tickets.len();
    for ticket in tickets {
        ticket.wait().expect("every enqueued submission must be flushed, not abandoned");
    }

    let mut control = initial;
    for batch in &submissions[..accepted] {
        batch.apply(&mut control);
    }
    assert!(
        service.graph().identical_to(&control),
        "sink state must equal the synchronous application of the accepted prefix"
    );
    assert_eq!(service.epoch(), stats_handle.stats().committed_batches);
}

// ---------------------------------------------------------------------------
// 3. Backpressure round-trip
// ---------------------------------------------------------------------------

/// A full queue refuses `try_submit` with the exact occupancy, a blocking
/// `submit` parks until a drain cycle frees space, and both submissions
/// commit once drained — the bounded queue never silently drops.
#[test]
fn blocking_submit_parks_until_a_drain_frees_space() {
    let _guard = serial();
    let (service, _pid) = edge_service(producer_world(1, 16));
    let opts = IngestOptions { queue_capacity: 2, ..IngestOptions::default() };
    let mut ingest = Ingest::new_manual(service, opts);
    let handle = ingest.handle();

    let first = handle
        .try_submit(
            vec![Update::insert(NodeId(0), NodeId(1)), Update::insert(NodeId(2), NodeId(3))]
                .into_iter()
                .collect(),
        )
        .expect("fills the queue");
    match handle.try_submit(std::iter::once(Update::insert(NodeId(4), NodeId(5))).collect()) {
        Err(SubmitError::Backpressure { pending_ops: 2, capacity: 2 }) => {}
        other => panic!("expected typed backpressure, got {other:?}"),
    }

    let blocked = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            handle
                .submit(std::iter::once(Update::insert(NodeId(4), NodeId(5))).collect())
                .expect("unblocks when the drain frees space")
        })
    };
    // Wait until the blocking producer has actually parked (its wait is the
    // second backpressure event), then drain to wake it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().backpressure_events < 2 {
        assert!(Instant::now() < deadline, "blocking submit never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(ingest.drain_once(), 1, "the parked producer's batch is not yet drainable");
    let second = blocked.join().expect("blocked producer thread");
    assert_eq!(ingest.drain_once(), 1);

    assert!(first.wait().is_ok());
    assert!(second.wait().is_ok());
    let service = ingest.shutdown().expect("sink is alive");
    for (from, to) in [(0, 1), (2, 3), (4, 5)] {
        assert!(service.graph().has_edge(NodeId(from), NodeId(to)));
    }
}

// ---------------------------------------------------------------------------
// 4. Lenient rejection positions through the coalescer
// ---------------------------------------------------------------------------

/// The `apply_batch_lenient` audit (satellite): a lenient submission that
/// rides a coalesced batch with neighbours keeps its rejection positions in
/// its *own* batch — merging never renumbers them — and the stripped
/// remainder applies exactly as the synchronous lenient path would.
#[test]
fn lenient_positions_survive_coalescing() {
    let _guard = serial();
    let (service, pid) = edge_service(producer_world(1, 16));
    let mut ingest = Ingest::new_manual(service, IngestOptions::default());
    let handle = ingest.handle();

    // Submission A inserts 0→1 and 2→3; lenient submission B then tries a
    // duplicate of A's first edge (position 1), a valid insert, a delete of
    // an edge nobody created (position 3), and another valid insert. Both
    // coalesce into ONE sink batch, so B's invalid ops are invalid *only*
    // relative to A inside the same cycle.
    let a: BatchUpdate =
        vec![Update::insert(NodeId(0), NodeId(1)), Update::insert(NodeId(2), NodeId(3))]
            .into_iter()
            .collect();
    let b: BatchUpdate = vec![
        Update::insert(NodeId(4), NodeId(5)),
        Update::insert(NodeId(0), NodeId(1)), // duplicate vs A — position 1
        Update::insert(NodeId(6), NodeId(7)),
        Update::delete(NodeId(8), NodeId(9)), // absent — position 3
    ]
    .into_iter()
    .collect();
    let ticket_a = handle.try_submit(a).expect("enqueue A");
    let ticket_b = handle.try_submit_lenient(b).expect("enqueue B");
    assert_eq!(ingest.drain_once(), 2, "both submissions must ride one cycle");

    let apply_a = ticket_a.wait().expect("A is valid");
    let apply_b = ticket_b.wait().expect("lenient B commits its remainder");
    assert_eq!(apply_a.seq, apply_b.seq, "one coalesced batch");
    assert_eq!(apply_a.coalesced_ops, 4, "A's 2 ops + B's 2 surviving ops");
    assert_eq!(apply_b.offset, 2, "B's slice starts after A");
    assert_eq!(apply_b.applied_ops, 2);
    let positions: Vec<usize> = apply_b.rejected.iter().map(|r| r.position).collect();
    assert_eq!(positions, vec![1, 3], "original-submission positions, never renumbered");
    assert_eq!(apply_b.rejected[0].reason, RejectReason::DuplicateInsert);
    assert_eq!(apply_b.rejected[1].reason, RejectReason::AbsentDelete);

    // Control: the synchronous path — A strict, then B's stripped remainder.
    let service = ingest.shutdown().expect("sink is alive");
    let (mut control, control_pid) = edge_service(producer_world(1, 16));
    control
        .apply(
            &vec![Update::insert(NodeId(0), NodeId(1)), Update::insert(NodeId(2), NodeId(3))]
                .into_iter()
                .collect(),
        )
        .expect("control A");
    control
        .apply(
            &vec![Update::insert(NodeId(4), NodeId(5)), Update::insert(NodeId(6), NodeId(7))]
                .into_iter()
                .collect(),
        )
        .expect("control B remainder");
    assert!(service.graph().identical_to(control.graph()));
    assert_eq!(
        service.matches(pid).expect("sink view"),
        control.matches(control_pid).expect("control view")
    );
}

// ---------------------------------------------------------------------------
// 5. Failure composition: contained sink errors and the crash model
// ---------------------------------------------------------------------------

/// A contained shared-stage panic inside `MatchService::apply` (rolled back,
/// service keeps serving) surfaces as a shared `IngestError::Sink` for that
/// cycle only — the ingest keeps draining and the next cycle commits.
#[test]
fn contained_sink_error_fails_one_cycle_and_ingest_keeps_running() {
    let _guard = serial();
    let (service, pid) = edge_service(producer_world(1, 8));
    let mut ingest = Ingest::new_manual(service, IngestOptions::default());
    let handle = ingest.handle();

    let doomed =
        handle.try_submit(std::iter::once(Update::insert(NodeId(0), NodeId(1))).collect()).unwrap();
    with_armed(fail::SIM_MUTATE, || {
        ingest.drain_once();
    });
    match doomed.wait() {
        Err(IngestError::Sink(error)) => match &*error {
            ServiceError::Apply(ApplyError::StagePanicked(panic)) => {
                assert!(panic.rolled_back, "the service must have rolled the batch back");
                assert!(!panic.poisoned, "a shared-stage panic poisons nothing");
            }
            other => panic!("expected a contained stage panic, got {other}"),
        },
        other => panic!("expected a sink error, got {other:?}"),
    }
    assert!(!handle.is_closed(), "a contained sink error must not kill the ingest");

    let retry =
        handle.try_submit(std::iter::once(Update::insert(NodeId(0), NodeId(1))).collect()).unwrap();
    assert_eq!(ingest.drain_once(), 1);
    assert!(retry.wait().is_ok(), "the next cycle commits normally");
    let service = ingest.shutdown().expect("sink is alive");
    assert!(service.graph().has_edge(NodeId(0), NodeId(1)));
    assert!(!service.matches(pid).expect("readable").is_empty(), "view serves after rollback");
}

/// The crash model end to end: a WAL-append panic under the drainer kills
/// the ingest (`SinkPanicked` for the in-flight cycle, `Closed` for the
/// queue, refusals afterwards), the sink is dropped where it stood, and the
/// reopened directory recovers through the ordinary replay path — the
/// re-emitted delta stream plus the resumed tail is bit-identical to a run
/// that never crashed.
fn sink_panic_is_crash_recoverable<E: IngestEngine>(shards: usize, seed: u64) {
    let context = format!("{} shards={shards}", E::NAME);
    let pattern = E::cyclic_pattern();
    let initial = seed_world(16, 2);
    let mut rng = Rng(seed);
    let submissions = gen_stream(&mut rng, &initial, 3, 2);
    let opts = durable_opts(shards, 0);

    // The never-crashed control.
    let control_scratch = Scratch::new("crash-control");
    let mut control: DurableIndex<E> =
        DurableIndex::open(control_scratch.path().clone(), &pattern, &initial, opts.clone())
            .expect("open control");
    for (i, batch) in submissions.iter().enumerate() {
        control.apply(batch).unwrap_or_else(|e| panic!("{context}: control {i}: {e}"));
    }
    let mut expected = BTreeMap::new();
    drain_deltas(&mut control.subscribe_from(1), &mut expected, &context);

    let scratch = Scratch::new("crash");
    let sink: DurableIndex<E> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts.clone())
            .expect("open sink");
    // Cap 1: one submission per cycle, so the crash hits exactly one.
    let ingest_opts =
        IngestOptions { queue_capacity: 4096, min_batch: 1, max_batch: 1, burst_backlog: 64 };
    let mut ingest = Ingest::new_manual(sink, ingest_opts);
    let handle = ingest.handle();

    let first = handle.try_submit(submissions[0].clone()).expect("enqueue");
    assert_eq!(ingest.drain_once(), 1);
    first.wait().unwrap_or_else(|e| panic!("{context}: first submission failed: {e}"));

    let doomed = handle.try_submit(submissions[1].clone()).expect("enqueue");
    let stranded = handle.try_submit(submissions[2].clone()).expect("enqueue");
    with_armed(fail::WAL_APPEND_BODY, || {
        ingest.drain_once();
    });
    match doomed.wait() {
        Err(IngestError::SinkPanicked(message)) => {
            assert!(!message.is_empty(), "{context}: the panic message travels to the ticket")
        }
        other => panic!("{context}: expected SinkPanicked, got {other:?}"),
    }
    match stranded.wait() {
        Err(IngestError::Closed) => {}
        other => panic!("{context}: queued submissions fail Closed, got {other:?}"),
    }
    assert!(handle.is_closed(), "{context}: a sink panic kills the ingest");
    assert_eq!(
        handle.try_submit(submissions[2].clone()).unwrap_err(),
        SubmitError::Closed,
        "{context}: further submissions are refused"
    );
    assert_eq!(ingest.drain_once(), 0, "{context}: a dead drainer drains nothing");
    assert!(ingest.shutdown().is_none(), "{context}: the sink panicked away");

    // `kill -9` semantics: the directory reopens via ordinary recovery and
    // the replayed + resumed stream matches the never-crashed run.
    let mut reopened: DurableIndex<E> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts).expect("reopen");
    let mut collected = BTreeMap::new();
    let mut sub = reopened.subscribe_from(1);
    drain_deltas(&mut sub, &mut collected, &context);
    let resume_from = reopened.sequence() as usize;
    assert!(resume_from >= 1, "{context}: the committed first batch must have survived");
    for (i, batch) in submissions.iter().enumerate().skip(resume_from) {
        reopened.apply(batch).unwrap_or_else(|e| panic!("{context}: resumed {i}: {e}"));
    }
    drain_deltas(&mut sub, &mut collected, &context);
    assert_eq!(
        collected, expected,
        "{context}: replayed + resumed deltas diverged from the never-crashed run"
    );
    assert_eq!(
        reopened.try_matches().expect("recovered readable"),
        control.try_matches().expect("control readable"),
        "{context}: final matches diverged"
    );
}

#[test]
fn sim_sink_panic_is_crash_recoverable_across_shard_counts() {
    let _guard = serial();
    for (i, &shards) in [1usize, 4, 8].iter().enumerate() {
        sink_panic_is_crash_recoverable::<SimulationIndex>(shards, 0xC7A5 + i as u64);
    }
}

#[test]
fn bsim_sink_panic_is_crash_recoverable_across_shard_counts() {
    let _guard = serial();
    for (i, &shards) in [1usize, 4, 8].iter().enumerate() {
        sink_panic_is_crash_recoverable::<BoundedIndex>(shards, 0xC7B5 + i as u64);
    }
}

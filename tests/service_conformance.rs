//! Conformance suite for the multi-pattern [`MatchService`]: the **sharing
//! invariance** extension of the repo-wide shard invariant.
//!
//! The contract under test: for every shard count, every registered
//! pattern's per-batch [`ApplyOutcome`] (statistics *and* delta) and every
//! snapshot view is bit-identical to what `N` *independent* single-pattern
//! indexes — each owning its own graph copy and fed the very same update
//! stream — produce, and to a from-scratch recomputation at every
//! checkpoint. Sharing the classification, the graph mutation and (for
//! bounded simulation) the landmark maintenance must be a pure execution
//! strategy, never observable in results.
//!
//! Also covered here:
//! * deregistration mid-stream (outcome maps shrink, stale ids error, slot
//!   reuse mints fresh generations);
//! * mid-stream registration (built over the *current* graph, then lockstep
//!   with the rest — matches and deltas checked against from-scratch
//!   recomputation);
//! * one pattern poisoned by an injected pipeline panic while every other
//!   pattern keeps serving the same batch, and per-pattern recovery;
//! * the durable service: WAL-once logging, crash → reopen → bit-identical
//!   state, pattern-keyed replay re-emission, subscription lag.
//!
//! The failpoint registry is process-global, so the poison tests serialise
//! on one mutex and run with a muted panic hook (like `fault_injection.rs`).

mod common;

use common::{serial, Scratch};
use igpm::core::{
    match_simulation, ApplyError, BoundedIndex, DurableMatchService, DurableOptions, MatchService,
    PatternId, ServiceDeltaEvent, ServiceError, SimulationIndex,
};
use igpm::graph::fail;
use igpm::graph::wal::FsyncPolicy;
use igpm::graph::{BatchUpdate, DataGraph, EdgeBound, MatchRelation, Pattern, Predicate};
use igpm::prelude::{
    generate_pattern, match_bounded_with_matrix, mixed_batch, synthetic_graph, PatternGenConfig,
    PatternShape, SyntheticConfig,
};

/// Runs `f` with the default panic hook silenced (injected panics would
/// otherwise spray backtraces over the test output). Safe under `SERIAL`.
fn with_muted_hook<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(hook);
    result
}

fn durable_opts(shards: usize) -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Never, // test speed; crash coverage lives in durability.rs
        checkpoint_every: 0,
        keep_checkpoints: 2,
        shards,
        delta_buffer: 1024,
    }
}

/// A pool of ≥8 deliberately *overlapping* normal patterns over the
/// generator's label alphabet: generated patterns (shared predicates with
/// high probability) plus handcrafted ones that repeat the same labels, so
/// the candidate interner has real sharing to exploit.
fn normal_pattern_pool(graph: &DataGraph, count: usize, seed: u64) -> Vec<Pattern> {
    let mut pool = Vec::with_capacity(count);
    for i in 0..count {
        let shape = if i % 2 == 0 { PatternShape::General } else { PatternShape::Dag };
        let nodes = 2 + (i % 4);
        let edges = nodes + (i % 3);
        pool.push(generate_pattern(
            graph,
            &PatternGenConfig::normal(nodes, edges, 1, seed.wrapping_add(i as u64))
                .with_shape(shape),
        ));
    }
    pool
}

/// Bounded patterns over the `l0..l3` labels with mixed hop bounds.
fn bounded_pattern_pool() -> Vec<Pattern> {
    let mut pool = Vec::new();
    for (bound_ab, bound_ba) in [
        (EdgeBound::Hops(1), EdgeBound::Hops(2)),
        (EdgeBound::Hops(2), EdgeBound::Unbounded),
        (EdgeBound::Hops(3), EdgeBound::Hops(1)),
        (EdgeBound::Unbounded, EdgeBound::Hops(2)),
    ] {
        for (la, lb) in [("l0", "l1"), ("l1", "l2"), ("l2", "l0"), ("l0", "l3")] {
            let mut p = Pattern::new();
            let a = p.add_node(Predicate::label(la));
            let b = p.add_node(Predicate::label(lb));
            p.add_edge(a, b, bound_ab);
            p.add_edge(b, a, bound_ba);
            pool.push(p);
        }
    }
    pool.truncate(8);
    pool
}

/// Asserts one pattern's service outcome equals the independent engine's,
/// bit for bit.
#[track_caller]
fn assert_outcome_eq(
    service: &igpm::core::ApplyOutcome,
    solo: &igpm::core::ApplyOutcome,
    context: &str,
) {
    assert_eq!(service.stats, solo.stats, "stats diverged: {context}");
    assert_eq!(service.delta, solo.delta, "delta diverged: {context}");
}

/// The tentpole invariant, plain simulation: a service with ≥8 overlapping
/// patterns, a 1k+-update seeded stream, shard counts {1, 2, 3, 8} — every
/// per-pattern outcome bit-identical to N independent indexes, every view
/// bit-identical to a from-scratch recomputation, and the whole outcome
/// stream identical across shard counts.
#[test]
fn sim_service_is_bit_identical_to_independent_indexes() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(260, 950, 4, 0x9101));
    let patterns = normal_pattern_pool(&base, 8, 0x9102);
    const ROUNDS: usize = 12;
    const BATCH: usize = 48; // 12 × (48 + 48) = 1152 updates per shard count

    let mut reference_stream: Option<Vec<Vec<igpm::core::ApplyOutcome>>> = None;
    for shards in [1usize, 2, 3, 8] {
        let mut svc: MatchService<SimulationIndex> =
            MatchService::with_shards(base.clone(), shards);
        let ids: Vec<PatternId> =
            patterns.iter().map(|p| svc.register(p).expect("register")).collect();
        assert!(
            svc.interned_candidate_sets() < patterns.iter().map(Pattern::node_count).sum(),
            "overlapping patterns must share interned candidate sets"
        );

        let mut solo_graphs: Vec<DataGraph> = patterns.iter().map(|_| base.clone()).collect();
        let mut solos: Vec<SimulationIndex> = patterns
            .iter()
            .zip(&solo_graphs)
            .map(|(p, g)| SimulationIndex::build_with_shards(p, g, shards))
            .collect();

        let mut outcome_stream: Vec<Vec<igpm::core::ApplyOutcome>> = Vec::new();
        for round in 0..ROUNDS {
            let batch = mixed_batch(svc.graph(), BATCH, BATCH, 0x9200 + round as u64);
            let apply = svc.apply(&batch).expect("service apply");
            let mut round_outcomes = Vec::with_capacity(ids.len());
            for (i, id) in ids.iter().enumerate() {
                let service_outcome = apply.outcomes[id].as_ref().expect("pattern outcome");
                let solo_outcome = solos[i]
                    .try_apply_batch_with_shards(&mut solo_graphs[i], &batch, shards)
                    .expect("solo apply");
                assert_outcome_eq(
                    service_outcome,
                    &solo_outcome,
                    &format!("shards {shards}, round {round}, pattern {i}"),
                );
                round_outcomes.push(service_outcome.clone());
            }
            if round % 4 == 3 {
                for (i, id) in ids.iter().enumerate() {
                    let view = svc.matches(*id).expect("view");
                    assert_eq!(*view, solos[i].matches(), "view diverged (pattern {i})");
                    assert_eq!(
                        *view,
                        match_simulation(&patterns[i], svc.graph()),
                        "from-scratch recomputation diverged (shards {shards}, round {round}, pattern {i})"
                    );
                }
            }
            outcome_stream.push(round_outcomes);
        }
        match &reference_stream {
            None => reference_stream = Some(outcome_stream),
            Some(reference) => assert_eq!(
                *reference, outcome_stream,
                "outcome stream diverged between shard counts (shards {shards})"
            ),
        }
    }
}

/// The tentpole invariant, bounded simulation: the shared landmark index
/// (`IncLM` once per batch for all patterns) must be invisible in results.
/// Independents build their own landmarks over the same registration graph;
/// `VertexCover` selection is deterministic, so the two landmark sets start
/// equal and evolve identically — outcomes must stay bit-identical, stats
/// included.
#[test]
fn bsim_service_is_bit_identical_to_independent_indexes() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(150, 520, 4, 0xB101));
    let patterns = bounded_pattern_pool();
    const ROUNDS: usize = 10;
    const BATCH: usize = 52; // 10 × (52 + 52) = 1040 updates per shard count

    let mut reference_stream: Option<Vec<Vec<igpm::core::ApplyOutcome>>> = None;
    for shards in [1usize, 2, 8] {
        let mut svc: MatchService<BoundedIndex> = MatchService::with_shards(base.clone(), shards);
        let ids: Vec<PatternId> =
            patterns.iter().map(|p| svc.register(p).expect("register")).collect();
        assert!(
            svc.interned_candidate_sets() <= 4,
            "8 two-node patterns over 4 labels must intern at most 4 candidate sets"
        );

        let mut solo_graphs: Vec<DataGraph> = patterns.iter().map(|_| base.clone()).collect();
        let mut solos: Vec<BoundedIndex> = patterns
            .iter()
            .zip(&solo_graphs)
            .map(|(p, g)| BoundedIndex::build_with_shards(p, g, shards))
            .collect();

        let mut outcome_stream: Vec<Vec<igpm::core::ApplyOutcome>> = Vec::new();
        for round in 0..ROUNDS {
            let batch = mixed_batch(svc.graph(), BATCH, BATCH, 0xB200 + round as u64);
            let apply = svc.apply(&batch).expect("service apply");
            let mut round_outcomes = Vec::with_capacity(ids.len());
            for (i, id) in ids.iter().enumerate() {
                let service_outcome = apply.outcomes[id].as_ref().expect("pattern outcome");
                let solo_outcome = solos[i]
                    .try_apply_batch_with_shards(&mut solo_graphs[i], &batch, shards)
                    .expect("solo apply");
                assert_outcome_eq(
                    service_outcome,
                    &solo_outcome,
                    &format!("shards {shards}, round {round}, pattern {i}"),
                );
                round_outcomes.push(service_outcome.clone());
            }
            if round % 5 == 4 {
                for (i, id) in ids.iter().enumerate() {
                    let view = svc.matches(*id).expect("view");
                    assert_eq!(*view, solos[i].matches(), "view diverged (pattern {i})");
                    assert_eq!(
                        *view,
                        match_bounded_with_matrix(&patterns[i], svc.graph()),
                        "batch recomputation diverged (shards {shards}, round {round}, pattern {i})"
                    );
                }
            }
            outcome_stream.push(round_outcomes);
        }
        match &reference_stream {
            None => reference_stream = Some(outcome_stream),
            Some(reference) => assert_eq!(
                *reference, outcome_stream,
                "outcome stream diverged between shard counts (shards {shards})"
            ),
        }
    }
}

/// Deregistration and mid-stream registration churn: outcome maps track the
/// live pattern set exactly, stale ids error (also after slot reuse), and a
/// pattern registered mid-stream over the current graph serves correct
/// matches from its first batch on.
#[test]
fn deregistration_and_midstream_registration_churn() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(180, 650, 4, 0xC101));
    let patterns = normal_pattern_pool(&base, 8, 0xC102);
    let mut svc: MatchService<SimulationIndex> = MatchService::with_shards(base, 3);
    let mut ids: Vec<PatternId> =
        patterns.iter().map(|p| svc.register(p).expect("register")).collect();
    let mut live: Vec<(PatternId, Pattern)> =
        ids.iter().copied().zip(patterns.iter().cloned()).collect();

    for round in 0..10u64 {
        let batch = mixed_batch(svc.graph(), 40, 40, 0xC200 + round);
        let apply = svc.apply(&batch).expect("service apply");
        assert_eq!(
            apply.outcomes.keys().copied().collect::<Vec<_>>(),
            live.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            "outcome map must cover exactly the live patterns, in id order"
        );
        for (id, pattern) in &live {
            assert!(apply.outcomes[id].is_ok(), "round {round}: clean batch must apply");
            assert_eq!(
                *svc.matches(*id).expect("view"),
                match_simulation(pattern, svc.graph()),
                "round {round}: live pattern diverged"
            );
        }
        match round {
            2 => {
                // Drop the middle pattern; its id must go stale immediately.
                let (dead, _) = live.remove(3);
                svc.deregister(dead).expect("deregister");
                assert_eq!(
                    svc.matches(dead).unwrap_err(),
                    ServiceError::UnknownPattern(dead),
                    "stale id must be rejected"
                );
            }
            5 => {
                // Slot reuse: the freed slot is filled by a *new* pattern;
                // the old id must stay stale.
                let newcomer = generate_pattern(
                    svc.graph(),
                    &PatternGenConfig::normal(3, 4, 1, 0xC303).with_shape(PatternShape::Dag),
                );
                let new_id = svc.register(&newcomer).expect("register mid-stream");
                assert!(
                    !ids.contains(&new_id),
                    "slot reuse must mint a fresh generation, got {new_id}"
                );
                ids.push(new_id);
                // Registered over the current graph: correct immediately.
                assert_eq!(
                    *svc.matches(new_id).expect("view"),
                    match_simulation(&newcomer, svc.graph()),
                    "mid-stream registration must match the current graph"
                );
                let position = live.iter().position(|(id, _)| *id > new_id).unwrap_or(live.len());
                live.insert(position, (new_id, newcomer));
            }
            7 => {
                let (dead, _) = live.remove(0);
                svc.deregister(dead).expect("deregister");
            }
            _ => {}
        }
    }
    assert!(svc.pattern_count() >= 6, "churn bookkeeping went wrong");
}

/// Injected per-pattern pipeline panic: exactly one pattern poisons
/// (`arm_once` self-disarms after the first hit), the graph and every other
/// pattern commit the batch with bit-identical outcomes, and per-pattern
/// recovery restores the victim without touching the rest.
#[test]
fn poisoned_pattern_leaves_every_other_pattern_serving() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(160, 600, 4, 0xD101));
    let patterns = normal_pattern_pool(&base, 8, 0xD102);
    let mut svc: MatchService<SimulationIndex> = MatchService::with_shards(base.clone(), 2);
    let ids: Vec<PatternId> = patterns.iter().map(|p| svc.register(p).expect("register")).collect();
    let mut solo_graphs: Vec<DataGraph> = patterns.iter().map(|_| base.clone()).collect();
    let mut solos: Vec<SimulationIndex> = patterns
        .iter()
        .zip(&solo_graphs)
        .map(|(p, g)| SimulationIndex::build_with_shards(p, g, 2))
        .collect();

    // A warm-up batch, then the poisoned one.
    let warmup = mixed_batch(svc.graph(), 30, 30, 0xD201);
    svc.apply(&warmup).expect("warm-up");
    for (i, solo) in solos.iter_mut().enumerate() {
        solo.try_apply_batch_with_shards(&mut solo_graphs[i], &warmup, 2).expect("solo warm-up");
    }

    let batch = mixed_batch(svc.graph(), 30, 30, 0xD202);
    let apply = with_muted_hook(|| {
        fail::arm_once(fail::SIM_ABSORB);
        svc.apply(&batch).expect("service-level apply survives a per-pattern panic")
    });
    assert!(!fail::armed(fail::SIM_ABSORB), "arm_once must self-disarm after firing");

    let mut poisoned: Vec<PatternId> = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let solo_outcome = solos[i]
            .try_apply_batch_with_shards(&mut solo_graphs[i], &batch, 2)
            .expect("solo apply");
        match &apply.outcomes[id] {
            Ok(outcome) => {
                assert_outcome_eq(outcome, &solo_outcome, &format!("surviving pattern {i}"));
                assert_eq!(*svc.matches(*id).expect("view"), solos[i].matches());
            }
            Err(ApplyError::StagePanicked(panic)) => {
                assert_eq!(panic.stage, "absorb");
                assert!(panic.poisoned, "service-mode containment always poisons");
                assert!(!panic.rolled_back, "the shared graph mutation stays committed");
                poisoned.push(*id);
            }
            Err(other) => panic!("unexpected outcome for pattern {i}: {other}"),
        }
    }
    assert_eq!(poisoned.len(), 1, "arm_once must poison exactly one pattern");
    let victim = poisoned[0];
    assert!(svc.poisoned(victim).expect("poisoned query"));
    assert!(matches!(svc.matches(victim), Err(ServiceError::Apply(ApplyError::Poisoned))));

    // Per-pattern recovery from the current (committed) graph.
    svc.recover(victim).expect("recover");
    let victim_idx = ids.iter().position(|id| *id == victim).expect("victim id");
    assert_eq!(
        *svc.matches(victim).expect("recovered view"),
        match_simulation(&patterns[victim_idx], svc.graph()),
        "recovery must land on the current graph's matches"
    );

    // The next batch is fully clean again for everyone.
    let after = mixed_batch(svc.graph(), 30, 30, 0xD203);
    let apply = svc.apply(&after).expect("post-recovery apply");
    assert!(apply.outcomes.values().all(Result::is_ok));
}

/// The acceptance-floor case: ≥256 registered patterns, bit-identical to 256
/// independent indexes for every shard count — statistics, deltas and views.
#[test]
fn service_with_256_patterns_matches_256_independent_indexes() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(130, 430, 4, 0xE101));
    let patterns = normal_pattern_pool(&base, 256, 0xE102);
    const ROUNDS: usize = 4;

    for shards in [1usize, 2, 3, 8] {
        let mut svc: MatchService<SimulationIndex> =
            MatchService::with_shards(base.clone(), shards);
        let ids: Vec<PatternId> =
            patterns.iter().map(|p| svc.register(p).expect("register")).collect();
        let total_nodes: usize = patterns.iter().map(Pattern::node_count).sum();
        assert!(
            svc.interned_candidate_sets() * 2 < total_nodes,
            "256 patterns over a small label alphabet must dedupe heavily \
             ({} sets for {total_nodes} pattern nodes)",
            svc.interned_candidate_sets()
        );

        let mut solo_graphs: Vec<DataGraph> = patterns.iter().map(|_| base.clone()).collect();
        let mut solos: Vec<SimulationIndex> = patterns
            .iter()
            .zip(&solo_graphs)
            .map(|(p, g)| SimulationIndex::build_with_shards(p, g, shards))
            .collect();

        for round in 0..ROUNDS {
            let batch = mixed_batch(svc.graph(), 24, 24, 0xE200 + round as u64);
            let apply = svc.apply(&batch).expect("service apply");
            assert_eq!(apply.outcomes.len(), 256);
            for (i, id) in ids.iter().enumerate() {
                let service_outcome = apply.outcomes[id].as_ref().expect("pattern outcome");
                let solo_outcome = solos[i]
                    .try_apply_batch_with_shards(&mut solo_graphs[i], &batch, shards)
                    .expect("solo apply");
                assert_outcome_eq(
                    service_outcome,
                    &solo_outcome,
                    &format!("shards {shards}, round {round}, pattern {i}"),
                );
            }
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                *svc.matches(*id).expect("view"),
                solos[i].matches(),
                "final view diverged (shards {shards}, pattern {i})"
            );
        }
    }
}

/// Durable service: batches logged once, pattern-keyed deltas published per
/// batch; a crash (armed WAL failpoint) followed by a reopen lands on state
/// bit-identical to the never-crashed run, and a fresh subscription replays
/// the whole pattern-keyed tail in order.
#[test]
fn durable_service_survives_crash_with_pattern_keyed_replay() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(120, 400, 4, 0xF101));
    let patterns = normal_pattern_pool(&base, 4, 0xF102);
    let scratch = Scratch::new("crash");

    // Reference: the never-crashed run over a plain in-memory service.
    let mut reference: MatchService<SimulationIndex> = MatchService::with_shards(base.clone(), 2);
    let ref_ids: Vec<PatternId> =
        patterns.iter().map(|p| reference.register(p).expect("register")).collect();

    let (mut durable, ids) = DurableMatchService::<SimulationIndex>::open(
        scratch.path(),
        &patterns,
        &base,
        durable_opts(2),
    )
    .expect("open");
    assert_eq!(ids, ref_ids, "dense registration must mint identical ids");

    let mut subscription = durable.subscribe();
    let mut batches: Vec<BatchUpdate> = Vec::new();
    for round in 0..3u64 {
        let batch = mixed_batch(durable.service().graph(), 25, 25, 0xF200 + round);
        durable.apply(&batch).expect("durable apply");
        reference.apply(&batch).expect("reference apply");
        batches.push(batch);
    }
    // The live subscription saw 3 batches × 4 patterns, in (seq, id) order.
    let mut live_events = Vec::new();
    while let Some(event) = subscription.poll() {
        live_events.push(event);
    }
    assert_eq!(live_events.len(), 12);
    assert!(live_events.iter().all(|e| matches!(e, ServiceDeltaEvent::Delta { .. })));

    // Crash in the WAL append of batch 4: logged state = 3 batches.
    let crash_batch = mixed_batch(durable.service().graph(), 25, 25, 0xF300);
    let crashed = with_muted_hook(|| {
        let _armed = fail::arm_scoped(fail::WAL_APPEND_BODY);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| durable.apply(&crash_batch)))
    });
    assert!(crashed.is_err(), "armed wal.append-body must crash the apply");
    drop(durable);

    // Reopen: replay brings every pattern to the reference state...
    let (reopened, ids2) = DurableMatchService::<SimulationIndex>::open(
        scratch.path(),
        &patterns,
        &base,
        durable_opts(2),
    )
    .expect("reopen");
    assert_eq!(ids2, ids);
    assert_eq!(reopened.sequence(), 3, "the torn batch 4 must not survive");
    for (id, ref_id) in ids2.iter().zip(&ref_ids) {
        assert_eq!(
            *reopened.try_matches(*id).expect("reopened view"),
            *reference.matches(*ref_id).expect("reference view"),
            "recovered state diverged from the never-crashed run"
        );
    }

    // ...and a from-scratch subscription replays the whole pattern-keyed
    // tail: seqs 1..=3, each with all 4 patterns in id order.
    let mut replayed = reopened.subscribe_from(1);
    let mut seen: Vec<(u64, PatternId)> = Vec::new();
    while let Some(event) = replayed.poll() {
        match event {
            ServiceDeltaEvent::Delta { pattern_id, seq, .. } => seen.push((seq, pattern_id)),
            ServiceDeltaEvent::Lagged { .. } => panic!("nothing was dropped"),
        }
    }
    let expected: Vec<(u64, PatternId)> =
        (1..=3u64).flat_map(|seq| ids2.iter().map(move |id| (seq, *id))).collect();
    assert_eq!(seen, expected, "replay re-emission must be pattern-keyed and in order");
}

/// Durable service, shared-stage panic after the WAL append: the log is
/// ahead of memory, the service refuses work, and `recover()` replays the
/// logged batch — the live subscription sees it exactly once, without
/// re-seeing anything already delivered.
#[test]
fn durable_service_recovers_shared_stage_panic_from_the_log() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(110, 360, 4, 0xF401));
    let patterns = normal_pattern_pool(&base, 3, 0xF402);
    let scratch = Scratch::new("shared-stage");
    let (mut durable, ids) = DurableMatchService::<SimulationIndex>::open(
        scratch.path(),
        &patterns,
        &base,
        durable_opts(1),
    )
    .expect("open");
    let mut subscription = durable.subscribe();

    let first = mixed_batch(durable.service().graph(), 20, 20, 0xF500);
    durable.apply(&first).expect("clean batch");
    let mut delivered = 0;
    while subscription.poll().is_some() {
        delivered += 1;
    }
    assert_eq!(delivered, ids.len());

    // SIM_MUTATE fires inside the *service-wide* shared mutation: the batch
    // is logged, the in-memory apply aborts, the graph is rolled back.
    let second = mixed_batch(durable.service().graph(), 20, 20, 0xF501);
    let outcome = with_muted_hook(|| {
        fail::arm_once(fail::SIM_MUTATE);
        durable.apply(&second)
    });
    assert!(
        matches!(outcome, Err(igpm::core::DurableError::Apply(ApplyError::StagePanicked(ref p))) if p.stage == "mutate" && p.rolled_back),
        "expected a contained shared-stage panic, got {outcome:?}"
    );
    assert!(durable.poisoned(), "the log is ahead of memory");
    assert!(durable.apply(&second).is_err(), "a dirty service must refuse work");

    // recover() replays the logged batch; ids are unchanged (no deregister
    // ever happened) and the subscription sees seq 2 exactly once.
    let remap = durable.recover().expect("recover");
    assert!(remap.iter().all(|(old, new)| old == new), "dense ids must survive recovery");
    assert_eq!(durable.sequence(), 2, "the logged batch is committed");
    let mut seqs: Vec<(u64, PatternId)> = Vec::new();
    while let Some(event) = subscription.poll() {
        match event {
            ServiceDeltaEvent::Delta { pattern_id, seq, .. } => seqs.push((seq, pattern_id)),
            ServiceDeltaEvent::Lagged { .. } => panic!("nothing was dropped"),
        }
    }
    let expected: Vec<(u64, PatternId)> = ids.iter().map(|id| (2u64, *id)).collect();
    assert_eq!(seqs, expected, "exactly the swallowed batch, exactly once");

    // The recovered state serves the batch's effects.
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(
            *durable.try_matches(*id).expect("recovered view"),
            match_simulation(&patterns[i], durable.service().graph()),
        );
    }
}

/// Bounded ring: a subscriber that falls behind observes one explicit lag
/// (counted in batches) and then a live stream again.
#[test]
fn durable_service_subscription_lags_explicitly() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(90, 280, 3, 0xF601));
    let patterns = normal_pattern_pool(&base, 2, 0xF602);
    let scratch = Scratch::new("lag");
    let mut opts = durable_opts(1);
    opts.delta_buffer = 2;
    let (mut durable, ids) =
        DurableMatchService::<SimulationIndex>::open(scratch.path(), &patterns, &base, opts)
            .expect("open");

    let mut subscription = durable.subscribe(); // next_seq = 1
    for round in 0..5u64 {
        let batch = mixed_batch(durable.service().graph(), 10, 10, 0xF700 + round);
        durable.apply(&batch).expect("apply");
    }
    // Ring capacity 2: seqs 1..=3 were dropped, 4 and 5 remain.
    match subscription.poll() {
        Some(ServiceDeltaEvent::Lagged { missed, resume_seq }) => {
            assert_eq!(missed, 3);
            assert_eq!(resume_seq, 4);
        }
        other => panic!("expected a lag marker, got {other:?}"),
    }
    let mut tail: Vec<(u64, PatternId)> = Vec::new();
    while let Some(event) = subscription.poll() {
        match event {
            ServiceDeltaEvent::Delta { pattern_id, seq, .. } => tail.push((seq, pattern_id)),
            ServiceDeltaEvent::Lagged { .. } => panic!("only one lag marker expected"),
        }
    }
    let expected: Vec<(u64, PatternId)> =
        (4..=5u64).flat_map(|seq| ids.iter().map(move |id| (seq, *id))).collect();
    assert_eq!(tail, expected);
}

/// The durable bounded-simulation service round-trips: open, apply, reopen,
/// views equal a batch recomputation (the landmark sharing must be invisible
/// through the durability boundary too).
#[test]
fn durable_bounded_service_round_trips() {
    let _serial = serial();
    let base = synthetic_graph(&SyntheticConfig::new(100, 340, 4, 0xF801));
    let patterns: Vec<Pattern> = bounded_pattern_pool().into_iter().take(3).collect();
    let scratch = Scratch::new("bounded");
    let (mut durable, ids) = DurableMatchService::<BoundedIndex>::open(
        scratch.path(),
        &patterns,
        &base,
        durable_opts(2),
    )
    .expect("open");
    for round in 0..3u64 {
        let batch = mixed_batch(durable.service().graph(), 15, 15, 0xF900 + round);
        durable.apply(&batch).expect("apply");
    }
    let views: Vec<MatchRelation> =
        ids.iter().map(|id| (*durable.try_matches(*id).expect("view")).clone()).collect();
    drop(durable);

    let (reopened, ids2) = DurableMatchService::<BoundedIndex>::open(
        scratch.path(),
        &patterns,
        &base,
        durable_opts(2),
    )
    .expect("reopen");
    for ((i, id), view) in ids2.iter().enumerate().zip(&views) {
        let _ = i;
        assert_eq!(*reopened.try_matches(*id).expect("reopened view"), *view);
    }
    for (i, id) in ids2.iter().enumerate() {
        assert_eq!(
            *reopened.try_matches(*id).expect("view"),
            match_bounded_with_matrix(&patterns[i], reopened.service().graph()),
            "bounded view diverged from batch recomputation"
        );
    }
}

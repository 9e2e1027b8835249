//! Crash-recovery suite for the durability layer (`igpm_graph::wal` +
//! `DurableIndex`).
//!
//! The crash model: an armed durability failpoint panics at its site, which
//! stands in for `kill -9` at that instruction — the in-memory object is
//! dead, whatever reached the filesystem is the surviving state. Each test
//! catches the panic, drops the object, reopens the directory and asserts
//! the **crash-anywhere invariant**: graph, matches, auxiliary state and the
//! `AffStats` of further batches are bit-identical to an uninterrupted
//! reference run. That holds for every durability failpoint site
//! (`wal.append-header`, `wal.append-body`, `wal.fsync`, `ckpt.write`,
//! `ckpt.rename`, `wal.prune`), every shard count in {1, 4, 8} and both
//! engines, plus:
//!
//! * the same crash at every site for the service tier: a
//!   `DurableMatchService` with two patterns and automatic checkpoints,
//!   reopened and compared with a never-crashed in-memory `MatchService` —
//!   graph, every view, the pattern-keyed deltas re-emitted above the
//!   newest checkpoint, and one further batch in lockstep;
//! * a seeded 1k+-update property stream with checkpoints at random
//!   intervals and a crash injected at every site along the way,
//!   differential-checked against the uninterrupted run *and* a
//!   from-scratch build;
//! * double crashes: a crash during recovery replay (and during the
//!   recovery *build*) followed by a clean recovery — possible because
//!   recovery never writes to the log it replays;
//! * tolerated damage: torn WAL tails (cut mid-record or with garbage
//!   appended) and a corrupt newest checkpoint (fall back to the older
//!   retained one) — typed errors at worst, never a panic.
//!
//! The failpoint registry is process-global, so (like `fault_injection.rs`)
//! everything serialises on one mutex and armed sections run with a muted
//! panic hook.

mod common;

use common::{cycle_pattern, gen_batch, gen_stream, seed_world, serial, with_armed, Rng, Scratch};
use igpm::core::{
    configured_shards, AffStats, ApplyOutcome, BoundedIndex, BsimAuxSnapshot, DurableError,
    DurableIndex, DurableMatchService, DurableOptions, IncrementalEngine, MatchDelta, MatchService,
    PatternId, ServiceApply, ServiceDeltaEvent, SimAuxSnapshot, SimulationIndex,
};
use igpm::graph::fail;
use igpm::graph::wal::FsyncPolicy;
use igpm::graph::{ApplyError, BatchUpdate, DataGraph, EdgeBound, Pattern};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const SHARD_COUNTS: [usize; 3] = [1, 4, 8];

/// Every durability failpoint site, in the order the pipeline reaches them.
const DURABILITY_SITES: [&str; 6] = [
    fail::WAL_APPEND_HEADER,
    fail::WAL_APPEND_BODY,
    fail::WAL_FSYNC,
    fail::CKPT_WRITE,
    fail::CKPT_RENAME,
    fail::WAL_PRUNE,
];

// ---------------------------------------------------------------------------
// World and stream generation
// ---------------------------------------------------------------------------

/// Bounded b-pattern `l0 -[1]-> l1 -[*]-> l0` for the bounded engine.
fn bounded_cycle_pattern() -> Pattern {
    let mut p = Pattern::new();
    let a = p.add_labeled_node("l0");
    let b = p.add_labeled_node("l1");
    p.add_edge(a, b, EdgeBound::Hops(1));
    p.add_edge(b, a, EdgeBound::Unbounded);
    p
}

// ---------------------------------------------------------------------------
// Engine abstraction (aux snapshots are engine-specific)
// ---------------------------------------------------------------------------

trait TestEngine: IncrementalEngine {
    type Aux: PartialEq + std::fmt::Debug;
    const NAME: &'static str;
    /// Whether every auxiliary structure is a pure function of the current
    /// graph — true for the plain-simulation engine, false for the bounded
    /// one, whose landmark cover accretes with insertion history (IncLM,
    /// Prop. 6.2: the cover only ever grows). With an accreted cover the
    /// cost-accounting `AffStats` fields of *future* batches legitimately
    /// depend on where the index was last rebuilt, even though every match
    /// result, counter and cached view is identical.
    const CANONICAL_AUX: bool;
    fn aux(&self) -> Self::Aux;
    fn test_pattern() -> Pattern;
    /// The two patterns a durable service of this engine serves: the cyclic
    /// [`TestEngine::test_pattern`] and an acyclic one over the same labels.
    fn service_patterns() -> Vec<Pattern>;
}

impl TestEngine for SimulationIndex {
    type Aux = SimAuxSnapshot;
    const NAME: &'static str = "sim";
    const CANONICAL_AUX: bool = true;
    fn aux(&self) -> SimAuxSnapshot {
        self.aux_snapshot()
    }
    fn test_pattern() -> Pattern {
        cycle_pattern()
    }
    fn service_patterns() -> Vec<Pattern> {
        // The path l0 → l1 → l0.
        let mut path = Pattern::new();
        let a = path.add_labeled_node("l0");
        let b = path.add_labeled_node("l1");
        let c = path.add_labeled_node("l0");
        path.add_normal_edge(a, b);
        path.add_normal_edge(b, c);
        vec![cycle_pattern(), path]
    }
}

impl TestEngine for BoundedIndex {
    type Aux = BsimAuxSnapshot;
    const NAME: &'static str = "bsim";
    const CANONICAL_AUX: bool = false;
    fn aux(&self) -> BsimAuxSnapshot {
        self.aux_snapshot()
    }
    fn test_pattern() -> Pattern {
        bounded_cycle_pattern()
    }
    fn service_patterns() -> Vec<Pattern> {
        // l1 -[2]-> l0 -[*]-> l1, with distinct end nodes.
        let mut path = Pattern::new();
        let a = path.add_labeled_node("l1");
        let b = path.add_labeled_node("l0");
        let c = path.add_labeled_node("l1");
        path.add_edge(a, b, EdgeBound::Hops(2));
        path.add_edge(b, c, EdgeBound::Unbounded);
        vec![bounded_cycle_pattern(), path]
    }
}

/// The uninterrupted in-memory reference: the same stream applied through
/// the ordinary engine path, no disk involved.
fn reference_run<E: TestEngine>(
    pattern: &Pattern,
    initial: &DataGraph,
    batches: &[BatchUpdate],
    shards: usize,
) -> (DataGraph, E) {
    let mut graph = initial.clone();
    let mut engine = E::rebuild_with_shards(pattern, &graph, shards);
    for (i, batch) in batches.iter().enumerate() {
        engine
            .try_apply_batch_with_shards(&mut graph, batch, shards)
            .unwrap_or_else(|e| panic!("reference batch {i} failed: {e}"));
    }
    (graph, engine)
}

fn opts(shards: usize, checkpoint_every: u64) -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        checkpoint_every,
        keep_checkpoints: 2,
        shards,
        delta_buffer: 1024,
    }
}

/// Asserts the recovered durable index is bit-identical to the in-memory
/// reference: graph (adjacency order included), matches, auxiliary state —
/// and stays in lockstep for one further batch (`AffStats` included).
fn assert_bit_identical<E: TestEngine>(
    context: &str,
    durable: &mut DurableIndex<E>,
    ref_graph: &mut DataGraph,
    ref_engine: &mut E,
    rng: &mut Rng,
    shards: usize,
) {
    assert!(
        durable.graph().identical_to(ref_graph),
        "{context}: recovered graph differs from the uninterrupted run"
    );
    durable.graph().assert_edge_index_consistent();
    assert_eq!(
        durable.try_matches().expect("recovered index must be readable"),
        ref_engine.try_matches().expect("reference must be readable"),
        "{context}: matches diverged"
    );
    assert_eq!(durable.engine().aux(), ref_engine.aux(), "{context}: aux state diverged");

    // One extra batch keeps everything in lockstep: full `AffStats` when the
    // engine's aux state is canonical, the semantic fields otherwise (see
    // [`TestEngine::CANONICAL_AUX`]).
    let extra = gen_batch(rng, ref_graph, 4);
    let durable_outcome =
        durable.apply(&extra).unwrap_or_else(|e| panic!("{context}: extra batch failed: {e}"));
    let ref_outcome = ref_engine
        .try_apply_batch_with_shards(ref_graph, &extra, shards)
        .unwrap_or_else(|e| panic!("{context}: reference extra batch failed: {e}"));
    assert_extra_outcome_eq::<E>(context, &durable_outcome, &ref_outcome);
    assert!(durable.graph().identical_to(ref_graph), "{context}: graphs diverged after extra");
    assert_eq!(durable.engine().aux(), ref_engine.aux(), "{context}: aux diverged after extra");
}

/// The lockstep check of one extra batch after a recovery: the full
/// [`ApplyOutcome`] when the engine's aux state is canonical, the semantic
/// fields otherwise (see [`TestEngine::CANONICAL_AUX`]).
fn assert_extra_outcome_eq<E: TestEngine>(
    context: &str,
    durable_outcome: &ApplyOutcome,
    ref_outcome: &ApplyOutcome,
) {
    if E::CANONICAL_AUX {
        assert_eq!(
            durable_outcome, ref_outcome,
            "{context}: ApplyOutcome diverged on the extra batch"
        );
    }
    let (durable_stats, ref_stats): (AffStats, AffStats) =
        (durable_outcome.stats, ref_outcome.stats);
    assert_eq!(durable_stats.delta_g, ref_stats.delta_g, "{context}: delta_g diverged");
    assert_eq!(
        durable_stats.reduced_delta_g, ref_stats.reduced_delta_g,
        "{context}: reduced_delta_g diverged"
    );
    assert_eq!(
        (durable_stats.matches_added, durable_stats.matches_removed),
        (ref_stats.matches_added, ref_stats.matches_removed),
        "{context}: match churn diverged on the extra batch"
    );
    assert_eq!(
        durable_outcome.delta, ref_outcome.delta,
        "{context}: ΔM diverged on the extra batch"
    );
}

// ---------------------------------------------------------------------------
// 1. Crash at every durability site × shards × engines
// ---------------------------------------------------------------------------

/// Applies `batches` through a durable index with `site` armed until the
/// failpoint "kills the process" (panics), reopens, resumes from the logged
/// sequence number, and returns the recovered index. Panics if the site
/// never fired.
fn crash_and_recover<E: TestEngine>(
    context: &str,
    dir: &Path,
    pattern: &Pattern,
    initial: &DataGraph,
    batches: &[BatchUpdate],
    site: &str,
    options: &DurableOptions,
) -> DurableIndex<E> {
    let mut victim: DurableIndex<E> =
        DurableIndex::open(dir.to_path_buf(), pattern, initial, options.clone())
            .unwrap_or_else(|e| panic!("{context}: initial open failed: {e}"));
    let mut crashed = false;
    let mut i = 0usize;
    while i < batches.len() {
        if crashed {
            victim
                .apply(&batches[i])
                .unwrap_or_else(|e| panic!("{context}: resume batch {i} failed: {e}"));
            i += 1;
            continue;
        }
        let outcome =
            with_armed(site, || catch_unwind(AssertUnwindSafe(|| victim.apply(&batches[i]))));
        match outcome {
            Ok(result) => {
                // The armed site was not on this batch's path (e.g. a
                // checkpoint site between checkpoints): the apply must have
                // succeeded normally.
                result.unwrap_or_else(|e| panic!("{context}: armed apply {i} errored: {e}"));
                i += 1;
            }
            Err(_) => {
                // The "process" died at the armed instruction. Drop the
                // corpse, reopen, and resume exactly where the log says.
                crashed = true;
                drop(victim);
                victim = DurableIndex::open(dir.to_path_buf(), pattern, initial, options.clone())
                    .unwrap_or_else(|e| panic!("{context}: reopen after crash failed: {e}"));
                let logged = victim.sequence();
                assert!(
                    logged as usize >= i && logged as usize <= i + 1,
                    "{context}: recovered sequence {logged} is not batch {i} ± the crashed one"
                );
                i = logged as usize;
            }
        }
    }
    assert!(crashed, "{context}: site never fired");
    victim
}

fn check_durability_site<E: TestEngine>(site: &str, shards: usize) {
    let context = format!("engine={}, site=`{site}`, shards={shards}", E::NAME);
    let pattern = E::test_pattern();
    let initial = seed_world(24, 2);
    let mut rng = Rng(0xD15C_0000 ^ shards as u64);
    let batches = gen_stream(&mut rng, &initial, 10, 6);
    // checkpoint_every=2 with keep_checkpoints=2 reaches every checkpoint
    // site within the stream (the third auto-checkpoint starts pruning).
    let options = opts(shards, 2);

    let (mut ref_graph, mut ref_engine) = reference_run::<E>(&pattern, &initial, &batches, shards);
    let scratch = Scratch::new(&format!("site-{}-{shards}", E::NAME));
    let mut recovered = crash_and_recover::<E>(
        &context,
        scratch.path(),
        &pattern,
        &initial,
        &batches,
        site,
        &options,
    );
    assert_bit_identical(
        &context,
        &mut recovered,
        &mut ref_graph,
        &mut ref_engine,
        &mut rng,
        shards,
    );

    // A clean close + reopen of the same directory is also bit-identical
    // (the extra batch from the lockstep check is in the log).
    drop(recovered);
    let mut reopened: DurableIndex<E> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, options)
            .unwrap_or_else(|e| panic!("{context}: clean reopen failed: {e}"));
    assert!(reopened.graph().identical_to(&ref_graph), "{context}: clean reopen diverged");
    assert_eq!(reopened.engine().aux(), ref_engine.aux(), "{context}: clean reopen aux diverged");
    let _ = reopened.checkpoint().unwrap_or_else(|e| panic!("{context}: checkpoint failed: {e}"));
}

#[test]
fn crash_at_every_durability_site_recovers_bit_identical_sim() {
    let _guard = serial();
    for shards in SHARD_COUNTS {
        for site in DURABILITY_SITES {
            check_durability_site::<SimulationIndex>(site, shards);
        }
    }
}

#[test]
fn crash_at_every_durability_site_recovers_bit_identical_bsim() {
    let _guard = serial();
    for shards in SHARD_COUNTS {
        for site in DURABILITY_SITES {
            check_durability_site::<BoundedIndex>(site, shards);
        }
    }
}

// ---------------------------------------------------------------------------
// 1b. The service tier: crash at every durability site × shards × engines
// ---------------------------------------------------------------------------

/// Every pattern's `ΔM` of one committed service batch, in [`PatternId`]
/// order.
fn service_deltas(context: &str, apply: &ServiceApply) -> Vec<(PatternId, MatchDelta)> {
    apply
        .outcomes
        .iter()
        .map(|(id, outcome)| {
            let outcome = outcome.as_ref().unwrap_or_else(|e| panic!("{context}: {id:?}: {e}"));
            (*id, outcome.delta.clone())
        })
        .collect()
}

/// Asserts that a freshly opened durable service re-emitted exactly the
/// never-crashed run's pattern-keyed deltas for every batch above its newest
/// checkpoint: `reference[seq - 1]` holds batch `seq`'s deltas.
fn assert_replayed_deltas<E: IncrementalEngine>(
    context: &str,
    service: &DurableMatchService<E>,
    reference: &[Vec<(PatternId, MatchDelta)>],
) {
    let first = service.last_checkpoint_seq() + 1;
    let mut subscription = service.subscribe_from(first);
    let mut replayed: Vec<(u64, PatternId, MatchDelta)> = Vec::new();
    while let Some(event) = subscription.poll() {
        match event {
            ServiceDeltaEvent::Delta { pattern_id, seq, delta } => {
                replayed.push((seq, pattern_id, (*delta).clone()))
            }
            ServiceDeltaEvent::Lagged { missed, resume_seq } => {
                panic!("{context}: unexpected lag (missed {missed}, resume {resume_seq})")
            }
        }
    }
    let expected: Vec<(u64, PatternId, MatchDelta)> = (first..=service.sequence())
        .flat_map(|seq| {
            reference[seq as usize - 1].iter().map(move |(id, delta)| (seq, *id, delta.clone()))
        })
        .collect();
    assert_eq!(replayed, expected, "{context}: re-emitted deltas diverged");
}

/// Asserts a durable service serves the reference service's state: the
/// graph (adjacency order included) and every pattern's view.
fn assert_service_state<E: IncrementalEngine>(
    context: &str,
    durable: &DurableMatchService<E>,
    reference: &MatchService<E>,
    ids: &[PatternId],
) {
    assert!(
        durable.service().graph().identical_to(reference.graph()),
        "{context}: recovered graph differs from the never-crashed run"
    );
    durable.service().graph().assert_edge_index_consistent();
    for id in ids {
        assert_eq!(
            *durable.try_matches(*id).expect("recovered view"),
            *reference.matches(*id).expect("reference view"),
            "{context}: view of {id:?} diverged"
        );
    }
}

/// The [`check_durability_site`] contract lifted to the service tier: a
/// [`DurableMatchService`] with two patterns and automatic checkpointing,
/// crashed at `site`, reopened and resumed, lands on the state of a
/// never-crashed in-memory [`MatchService`] fed the same batches — graph,
/// views and the deltas re-emitted above the newest checkpoint — and stays
/// in lockstep with it for one more batch.
fn check_service_durability_site<E: TestEngine>(site: &str, shards: usize) {
    let context = format!("service engine={}, site=`{site}`, shards={shards}", E::NAME);
    let patterns = E::service_patterns();
    let initial = seed_world(24, 2);
    let mut rng = Rng(0x5E41_0000 ^ shards as u64);
    let batches = gen_stream(&mut rng, &initial, 10, 6);
    // checkpoint_every=2 with keep_checkpoints=2 reaches every checkpoint
    // site within the stream, as in `check_durability_site`.
    let options = opts(shards, 2);

    let mut reference: MatchService<E> = MatchService::with_shards(initial.clone(), shards);
    let ids: Vec<PatternId> =
        patterns.iter().map(|p| reference.register(p).expect("reference register")).collect();
    let mut ref_deltas: Vec<Vec<(PatternId, MatchDelta)>> = batches
        .iter()
        .map(|batch| service_deltas(&context, &reference.apply(batch).expect("reference apply")))
        .collect();

    let scratch = Scratch::new(&format!("service-site-{}-{shards}", E::NAME));
    let open = || {
        let (service, opened_ids) =
            DurableMatchService::<E>::open(scratch.path(), &patterns, &initial, options.clone())
                .unwrap_or_else(|e| panic!("{context}: open failed: {e}"));
        assert_eq!(opened_ids, ids, "{context}: dense registration must mint identical ids");
        service
    };
    let mut victim = open();
    let mut crashed = false;
    let mut i = 0usize;
    while i < batches.len() {
        if crashed {
            victim
                .apply(&batches[i])
                .unwrap_or_else(|e| panic!("{context}: resume batch {i} failed: {e}"));
            i += 1;
            continue;
        }
        match with_armed(site, || catch_unwind(AssertUnwindSafe(|| victim.apply(&batches[i])))) {
            Ok(result) => {
                result.unwrap_or_else(|e| panic!("{context}: armed apply {i} errored: {e}"));
                i += 1;
            }
            Err(_) => {
                // The "process" died at the armed instruction: reopen, check
                // the replayed tail, and resume exactly where the log says.
                crashed = true;
                drop(victim);
                victim = open();
                let logged = victim.sequence() as usize;
                assert!(
                    logged == i || logged == i + 1,
                    "{context}: recovered sequence {logged} is not batch {i} ± the crashed one"
                );
                assert_replayed_deltas(&context, &victim, &ref_deltas);
                i = logged;
            }
        }
    }
    assert!(crashed, "{context}: site never fired");
    assert_service_state(&context, &victim, &reference, &ids);

    // One extra batch keeps every pattern in lockstep.
    let extra = gen_batch(&mut rng, reference.graph(), 4);
    let durable_apply =
        victim.apply(&extra).unwrap_or_else(|e| panic!("{context}: extra batch failed: {e}"));
    let ref_apply = reference.apply(&extra).expect("reference extra batch");
    for id in &ids {
        let pattern_context = format!("{context}, {id:?}");
        let outcome = |apply: &ServiceApply| -> ApplyOutcome {
            apply.outcomes[id].clone().unwrap_or_else(|e| panic!("{pattern_context}: {e}"))
        };
        assert_extra_outcome_eq::<E>(
            &pattern_context,
            &outcome(&durable_apply),
            &outcome(&ref_apply),
        );
    }
    ref_deltas.push(service_deltas(&context, &ref_apply));
    assert_service_state(&context, &victim, &reference, &ids);

    // A clean close + reopen re-emits the same tail and serves the same state.
    drop(victim);
    let reopened = open();
    assert_eq!(reopened.sequence() as usize, ref_deltas.len(), "{context}: lost a batch");
    assert_replayed_deltas(&context, &reopened, &ref_deltas);
    assert_service_state(&context, &reopened, &reference, &ids);
}

#[test]
fn crash_at_every_durability_site_recovers_durable_service_sim() {
    let _guard = serial();
    for shards in SHARD_COUNTS {
        for site in DURABILITY_SITES {
            check_service_durability_site::<SimulationIndex>(site, shards);
        }
    }
}

#[test]
fn crash_at_every_durability_site_recovers_durable_service_bsim() {
    let _guard = serial();
    for shards in SHARD_COUNTS {
        for site in DURABILITY_SITES {
            check_service_durability_site::<BoundedIndex>(site, shards);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Seeded 1k+-update property stream with random checkpoints
// ---------------------------------------------------------------------------

fn property_stream<E: TestEngine>(seed: u64) {
    let shards = configured_shards();
    let context = format!("engine={}, seed={seed:#x}, shards={shards}", E::NAME);
    let pattern = E::test_pattern();
    let initial = seed_world(40, 2);
    let mut rng = Rng(seed);
    // 64 batches × 18 updates = 1152 updates — and the generator's own
    // stream of checkpoint decisions rides the same seed.
    let batches = gen_stream(&mut rng, &initial, 64, 18);
    let options = opts(shards, 0); // explicit checkpoints only, at random intervals

    let (mut ref_graph, mut ref_engine) = reference_run::<E>(&pattern, &initial, &batches, shards);

    // Crash schedule: one durability site at each of these stream positions.
    // WAL sites crash inside `apply`; checkpoint sites crash inside an
    // explicit `checkpoint()` right after the batch landed.
    let crash_at = [5usize, 15, 25, 35, 45, 55];

    let scratch = Scratch::new(&format!("prop-{}", E::NAME));
    let mut victim: DurableIndex<E> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
            .unwrap_or_else(|e| panic!("{context}: open failed: {e}"));
    let mut fired = 0usize;
    for (i, batch) in batches.iter().enumerate() {
        let crash_site = crash_at.iter().position(|&at| at == i).map(|k| DURABILITY_SITES[k]);
        match crash_site {
            Some(site) if site.starts_with("wal.append") || site == fail::WAL_FSYNC => {
                let outcome =
                    with_armed(site, || catch_unwind(AssertUnwindSafe(|| victim.apply(batch))));
                assert!(outcome.is_err(), "{context}: site `{site}` never fired at batch {i}");
                fired += 1;
                drop(victim);
                victim =
                    DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
                        .unwrap_or_else(|e| panic!("{context}: reopen at batch {i} failed: {e}"));
                if victim.sequence() < (i + 1) as u64 {
                    victim
                        .apply(batch)
                        .unwrap_or_else(|e| panic!("{context}: re-apply {i} failed: {e}"));
                }
            }
            Some(site) => {
                // Checkpoint-path site: land the batch, then crash the
                // on-demand checkpoint.
                victim.apply(batch).unwrap_or_else(|e| panic!("{context}: batch {i} failed: {e}"));
                let outcome =
                    with_armed(site, || catch_unwind(AssertUnwindSafe(|| victim.checkpoint())));
                assert!(outcome.is_err(), "{context}: site `{site}` never fired at batch {i}");
                fired += 1;
                drop(victim);
                victim =
                    DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
                        .unwrap_or_else(|e| panic!("{context}: reopen at batch {i} failed: {e}"));
                assert_eq!(victim.sequence(), (i + 1) as u64, "{context}: lost batch {i}");
            }
            None => {
                victim.apply(batch).unwrap_or_else(|e| panic!("{context}: batch {i} failed: {e}"));
                // Random checkpoint intervals (~every 5 batches) from the
                // same seeded stream.
                if rng.next().is_multiple_of(5) {
                    victim
                        .checkpoint()
                        .unwrap_or_else(|e| panic!("{context}: checkpoint at {i} failed: {e}"));
                }
            }
        }
    }
    assert_eq!(fired, DURABILITY_SITES.len(), "{context}: not every site crashed");
    assert_eq!(victim.sequence(), batches.len() as u64, "{context}: stream incomplete");

    // Differential check 1: against the uninterrupted in-memory run.
    assert!(victim.graph().identical_to(&ref_graph), "{context}: graph diverged");
    assert_eq!(
        victim.try_matches().expect("readable"),
        ref_engine.try_matches().expect("readable"),
        "{context}: matches diverged"
    );
    assert_eq!(victim.engine().aux(), ref_engine.aux(), "{context}: aux diverged");

    // Differential check 2: against a from-scratch build of the final graph.
    let fresh = E::rebuild_with_shards(&pattern, victim.graph(), shards);
    assert_eq!(victim.engine().aux(), fresh.aux(), "{context}: diverged from fresh build");

    // And the recovered index keeps working: one extra batch in lockstep.
    assert_bit_identical(&context, &mut victim, &mut ref_graph, &mut ref_engine, &mut rng, shards);
}

#[test]
fn seeded_property_stream_sim() {
    let _guard = serial();
    property_stream::<SimulationIndex>(0x5EED_0001);
    property_stream::<SimulationIndex>(0x5EED_0002);
}

#[test]
fn seeded_property_stream_bsim() {
    let _guard = serial();
    property_stream::<BoundedIndex>(0x5EED_0003);
}

// ---------------------------------------------------------------------------
// 3. Double crash: a crash during recovery, then a clean recovery
// ---------------------------------------------------------------------------

/// Byte-level snapshot of every file in the durability directory — recovery
/// must be read-only, so failed recovery attempts may not change it.
fn dir_snapshot(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("durability dir readable")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("file readable"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn crash_during_recovery_replay_then_clean_recovery() {
    let _guard = serial();
    let shards = configured_shards();
    let pattern = cycle_pattern();
    let initial = seed_world(24, 2);
    let mut rng = Rng(0xDB1_CA5E);
    let batches = gen_stream(&mut rng, &initial, 8, 6);
    let options = opts(shards, 0);

    // Build durable state with a WAL tail to replay: checkpoint at batch 4,
    // then four more logged batches, then a clean close.
    let scratch = Scratch::new("double-crash");
    {
        let mut index: DurableIndex<SimulationIndex> =
            DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
                .expect("open");
        for (i, batch) in batches.iter().enumerate() {
            index.apply(batch).expect("apply");
            if i == 3 {
                index.checkpoint().expect("checkpoint");
            }
        }
    }
    let before = dir_snapshot(scratch.path());

    // First crash: an engine failpoint during the WAL *replay* of recovery.
    // The engine contains it (`StagePanicked`), so recovery surfaces a typed
    // `Replay` error instead of a torn index — and writes nothing.
    let replay_attempt = with_armed(fail::SIM_ABSORB, || {
        DurableIndex::<SimulationIndex>::open(
            scratch.path().clone(),
            &pattern,
            &initial,
            options.clone(),
        )
    });
    assert!(
        matches!(replay_attempt, Err(DurableError::Replay { seq: 5, .. })),
        "expected a Replay error at the first post-checkpoint record, got {:?}",
        replay_attempt.err().map(|e| e.to_string())
    );
    assert_eq!(dir_snapshot(scratch.path()), before, "failed replay wrote to disk");

    // Second crash, harder: a panic during the recovery *build* (shard
    // planning) unwinds straight out of `open` — the double crash.
    let build_attempt = with_armed(fail::SHARD_PLAN, || {
        catch_unwind(AssertUnwindSafe(|| {
            DurableIndex::<SimulationIndex>::open(
                scratch.path().clone(),
                &pattern,
                &initial,
                options.clone(),
            )
        }))
    });
    assert!(build_attempt.is_err(), "armed shard.plan must crash the recovery build");
    assert_eq!(dir_snapshot(scratch.path()), before, "crashed recovery wrote to disk");

    // Recovery is read-only, so the third attempt — disarmed — succeeds and
    // is bit-identical to the uninterrupted run.
    let (mut ref_graph, mut ref_engine) =
        reference_run::<SimulationIndex>(&pattern, &initial, &batches, shards);
    let mut recovered: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, options).expect("reopen");
    assert_bit_identical(
        "double-crash",
        &mut recovered,
        &mut ref_graph,
        &mut ref_engine,
        &mut rng,
        shards,
    );
}

// ---------------------------------------------------------------------------
// 4. Tolerated damage: torn WAL tails, corrupt checkpoints
// ---------------------------------------------------------------------------

/// The active WAL segment (highest first-sequence-number `wal-*.log` file).
fn active_segment(dir: &PathBuf) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("dir readable")
        .filter_map(|e| {
            let path = e.expect("entry").path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("wal-") && name.ends_with(".log")).then(|| path.clone())
        })
        .collect();
    segments.sort();
    segments.pop().expect("a WAL segment exists")
}

#[test]
fn torn_wal_tails_lose_only_the_torn_record() {
    let _guard = serial();
    let shards = configured_shards();
    let pattern = cycle_pattern();
    let initial = seed_world(24, 2);
    let mut rng = Rng(0x7042_7041);
    let batches = gen_stream(&mut rng, &initial, 6, 5);
    let options = opts(shards, 0);

    // Damage shapes applied to the active segment after a clean close.
    type Mutilate = fn(Vec<u8>) -> Vec<u8>;
    let cases: &[(&str, bool, Mutilate)] = &[
        // (description, last record lost?, mutation)
        ("garbage appended", false, |mut b| {
            b.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
            b
        }),
        ("cut mid-record", true, |b| {
            let keep = b.len() - 3;
            b[..keep].to_vec()
        }),
        ("tail bit-rot", true, |mut b| {
            let n = b.len();
            b[n - 1] ^= 0x20;
            b
        }),
    ];

    for (what, loses_last, mutilate) in cases {
        let scratch = Scratch::new("torn");
        {
            let mut index: DurableIndex<SimulationIndex> =
                DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
                    .expect("open");
            for batch in &batches {
                index.apply(batch).expect("apply");
            }
        }
        let segment = active_segment(scratch.path());
        let bytes = std::fs::read(&segment).expect("segment readable");
        std::fs::write(&segment, mutilate(bytes)).expect("segment writable");

        let mut index: DurableIndex<SimulationIndex> =
            DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
                .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
        let expected_seq = batches.len() as u64 - u64::from(*loses_last);
        assert_eq!(index.sequence(), expected_seq, "{what}: wrong surviving prefix");
        if *loses_last {
            // Re-submitting the lost batch converges on the full stream.
            index.apply(batches.last().expect("nonempty")).expect("re-apply");
        }
        let (ref_graph, ref_engine) =
            reference_run::<SimulationIndex>(&pattern, &initial, &batches, shards);
        assert!(index.graph().identical_to(&ref_graph), "{what}: graph diverged");
        assert_eq!(index.engine().aux(), ref_engine.aux(), "{what}: aux diverged");
    }
}

#[test]
fn corrupt_newest_checkpoint_falls_back_and_replays_further() {
    let _guard = serial();
    let shards = configured_shards();
    let pattern = cycle_pattern();
    let initial = seed_world(24, 2);
    let mut rng = Rng(0xC0D_FA11);
    let batches = gen_stream(&mut rng, &initial, 9, 5);
    let options = opts(shards, 0);

    let scratch = Scratch::new("ckpt-fallback");
    {
        let mut index: DurableIndex<SimulationIndex> =
            DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
                .expect("open");
        for (i, batch) in batches.iter().enumerate() {
            index.apply(batch).expect("apply");
            if i == 2 || i == 5 {
                index.checkpoint().expect("checkpoint");
            }
        }
    }

    let checkpoints: Vec<PathBuf> = {
        let mut found: Vec<PathBuf> = std::fs::read_dir(scratch.path())
            .expect("dir readable")
            .filter_map(|e| {
                let path = e.expect("entry").path();
                let name = path.file_name()?.to_str()?;
                (name.starts_with("ckpt-") && name.ends_with(".bin")).then(|| path.clone())
            })
            .collect();
        found.sort();
        found
    };
    assert_eq!(checkpoints.len(), 2, "keep_checkpoints=2 retains exactly two");

    // Corrupt the newest (covers seq 6): recovery falls back to seq 3 and
    // replays a longer WAL tail — the retention rule kept those segments.
    let newest = checkpoints.last().expect("two checkpoints");
    let mut bytes = std::fs::read(newest).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(newest, &bytes).expect("writable");

    let index: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
            .expect("fallback reopen");
    assert_eq!(index.sequence(), batches.len() as u64, "full stream must survive");
    assert_eq!(index.last_checkpoint_seq(), 3, "must have fallen back to the older checkpoint");
    let (ref_graph, ref_engine) =
        reference_run::<SimulationIndex>(&pattern, &initial, &batches, shards);
    assert!(index.graph().identical_to(&ref_graph), "fallback graph diverged");
    assert_eq!(index.engine().aux(), ref_engine.aux(), "fallback aux diverged");
    drop(index);

    // Corrupt the older one too: every checkpoint bad is a typed error —
    // never a panic, never a silent from-scratch restart.
    let oldest = checkpoints.first().expect("two checkpoints");
    let mut bytes = std::fs::read(oldest).expect("readable");
    bytes[8] ^= 0x01;
    std::fs::write(oldest, &bytes).expect("writable");
    let attempt =
        DurableIndex::<SimulationIndex>::open(scratch.path().clone(), &pattern, &initial, options);
    assert!(
        matches!(attempt, Err(DurableError::Snapshot(_))),
        "expected a Snapshot error, got {:?}",
        attempt.err().map(|e| e.to_string())
    );
}

#[test]
fn wal_without_checkpoint_is_refused() {
    let _guard = serial();
    let scratch = Scratch::new("no-ckpt");
    std::fs::create_dir_all(scratch.path()).expect("mkdir");
    std::fs::write(scratch.path().join("wal-00000000000000000001.log"), b"orphaned")
        .expect("write");
    let attempt = DurableIndex::<SimulationIndex>::open(
        scratch.path().clone(),
        &cycle_pattern(),
        &seed_world(8, 2),
        opts(1, 0),
    );
    assert!(
        matches!(attempt, Err(DurableError::NoCheckpoint)),
        "a log without a checkpoint must be refused, got {:?}",
        attempt.err().map(|e| e.to_string())
    );
}

// ---------------------------------------------------------------------------
// 5. Fsync policies change the loss window, not the state
// ---------------------------------------------------------------------------

#[test]
fn fsync_policies_produce_identical_durable_state() {
    let _guard = serial();
    let shards = configured_shards();
    let pattern = cycle_pattern();
    let initial = seed_world(24, 2);
    let mut rng = Rng(0xF5F5_F5F5);
    let batches = gen_stream(&mut rng, &initial, 12, 6);

    let mut aux: Vec<SimAuxSnapshot> = Vec::new();
    let mut seqs = Vec::new();
    for policy in [FsyncPolicy::Always, FsyncPolicy::EveryN(4), FsyncPolicy::Never] {
        let scratch = Scratch::new("fsync");
        let options = DurableOptions {
            fsync: policy,
            checkpoint_every: 5,
            keep_checkpoints: 2,
            shards,
            delta_buffer: 1024,
        };
        {
            let mut index: DurableIndex<SimulationIndex> =
                DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
                    .expect("open");
            for batch in &batches {
                index.apply(batch).expect("apply");
            }
        }
        // A process exit without an OS crash loses nothing under any policy.
        let index: DurableIndex<SimulationIndex> =
            DurableIndex::open(scratch.path().clone(), &pattern, &initial, options)
                .expect("reopen");
        seqs.push(index.sequence());
        aux.push(index.engine().aux());
    }
    assert!(seqs.iter().all(|&s| s == batches.len() as u64), "a policy lost batches: {seqs:?}");
    assert!(aux.windows(2).all(|w| w[0] == w[1]), "policies diverged in recovered state");
}

// ---------------------------------------------------------------------------
// 6. The logged-but-not-applied gap: engine crash after the append
// ---------------------------------------------------------------------------

#[test]
fn contained_engine_panic_after_logging_reconciles_from_disk() {
    let _guard = serial();
    let shards = configured_shards();
    let pattern = cycle_pattern();
    let initial = seed_world(24, 2);
    let mut rng = Rng(0x106D_106D);
    let batches = gen_stream(&mut rng, &initial, 5, 5);
    let options = opts(shards, 0);

    let scratch = Scratch::new("logged-gap");
    let mut index: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, options.clone())
            .expect("open");
    for batch in &batches[..4] {
        index.apply(batch).expect("apply");
    }

    // Arm an *engine* site: the WAL append succeeds, then the in-memory
    // apply dies with a contained panic. The log is now ahead of memory.
    let error = with_armed(fail::SIM_ABSORB, || index.apply(&batches[4]))
        .expect_err("armed engine site must abort the apply");
    assert!(matches!(error, DurableError::Apply(ApplyError::StagePanicked(_))), "got {error}");
    assert_eq!(index.sequence(), 5, "the batch is logged despite the engine abort");
    assert!(index.poisoned(), "memory lags the log: the index must refuse further use");
    assert!(matches!(index.try_matches(), Err(ApplyError::Poisoned)));
    assert!(matches!(index.apply(&batches[4]), Err(DurableError::Apply(ApplyError::Poisoned))));

    // recover() = in-place disk recovery: logged means committed, so after
    // reconciliation the batch IS applied — bit-identical to the reference.
    index.recover().expect("recover");
    let (mut ref_graph, mut ref_engine) =
        reference_run::<SimulationIndex>(&pattern, &initial, &batches, shards);
    assert_bit_identical(
        "logged-gap",
        &mut index,
        &mut ref_graph,
        &mut ref_engine,
        &mut rng,
        shards,
    );
}

// ---------------------------------------------------------------------------
// Degenerate configuration: typed rejection at open
// ---------------------------------------------------------------------------

/// Each degenerate knob is refused at `open` with a typed
/// [`DurableError::InvalidOptions`] naming the field, before anything is
/// created on disk — no half-initialised directory, no silent clamp.
#[test]
fn degenerate_durable_options_are_rejected_at_open() {
    let _guard = serial();
    let pattern = cycle_pattern();
    let initial = seed_world(8, 2);

    type Degrade = fn(&mut DurableOptions);
    let cases: [(&str, Degrade, &str); 3] = [
        (
            "delta_buffer",
            |o| o.delta_buffer = 0,
            "the delta ring must be able to buffer at least one batch",
        ),
        (
            "keep_checkpoints",
            |o| o.keep_checkpoints = 0,
            "at least one checkpoint must be retained",
        ),
        ("shards", |o| o.shards = 0, "builds and batches need at least one shard"),
    ];

    for (field, degrade, requirement) in cases {
        let mut options = opts(1, 0);
        degrade(&mut options);

        // `validate` is also callable directly, ahead of any I/O.
        let invalid = options.validate().expect_err("degenerate options must not validate");
        assert_eq!(invalid.field, field);
        assert_eq!(invalid.value, 0);
        assert_eq!(invalid.requirement, requirement);
        assert_eq!(format!("{invalid}"), format!("{field} = 0 is invalid: {requirement}"));

        let scratch = Scratch::new("degenerate");
        let result = DurableIndex::<SimulationIndex>::open(
            scratch.path().clone(),
            &pattern,
            &initial,
            options.clone(),
        );
        match result {
            Err(DurableError::InvalidOptions(inv)) => {
                assert_eq!(inv.field, field, "rejection must name the offending field");
                assert_eq!(inv.value, 0);
                let shown = format!("{}", DurableError::InvalidOptions(inv));
                assert_eq!(
                    shown,
                    format!("invalid durable options: {field} = 0 is invalid: {requirement}")
                );
            }
            Ok(_) => panic!("{field} = 0 must be rejected at open"),
            Err(other) => panic!("{field} = 0: expected InvalidOptions, got {other}"),
        }
        assert!(
            !scratch.path().exists(),
            "{field} = 0: rejection must happen before the directory is created"
        );

        // The service front-end shares the gate.
        let svc_scratch = Scratch::new("degenerate-svc");
        let svc = DurableMatchService::<SimulationIndex>::open(
            svc_scratch.path().clone(),
            std::slice::from_ref(&pattern),
            &initial,
            options,
        );
        assert!(
            matches!(svc, Err(DurableError::InvalidOptions(ref inv)) if inv.field == field),
            "{field} = 0 must be rejected by DurableMatchService::open too"
        );
        assert!(!svc_scratch.path().exists());
    }
}

/// `checkpoint_every = 0` is *not* degenerate: it disables automatic
/// checkpointing (the WAL grows until an explicit `checkpoint()`), which
/// every failpoint test in this suite relies on. Pin that it opens, never
/// auto-checkpoints, and still honours the manual call.
#[test]
fn checkpoint_every_zero_only_disables_automatic_checkpoints() {
    let _guard = serial();
    let pattern = cycle_pattern();
    let initial = seed_world(10, 2);
    let mut rng = Rng(0xCE00);
    let scratch = Scratch::new("ckpt-zero");
    let mut durable: DurableIndex<SimulationIndex> =
        DurableIndex::open(scratch.path().clone(), &pattern, &initial, opts(1, 0)).expect("open");
    for i in 0..4u64 {
        let batch = gen_batch(&mut rng, durable.graph(), 4);
        durable.apply(&batch).unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
        assert_eq!(durable.sequence(), i + 1);
        assert_eq!(
            durable.last_checkpoint_seq(),
            0,
            "checkpoint_every = 0 must never auto-checkpoint (batch {i})"
        );
    }
    assert_eq!(durable.checkpoint().expect("manual checkpoint"), 4);
    assert_eq!(durable.last_checkpoint_seq(), 4);
}

//! Machine-readable incremental-simulation benchmark.
//!
//! Compares the counter-backed [`SimulationIndex`] against the frozen
//! pre-optimisation hash-set engine ([`LegacySimulationIndex`]) **in the same
//! run**, on a Fig. 18-style synthetic workload (densification-law graph,
//! degree-biased updates), and writes the results to `BENCH_incsim.json` so
//! the performance trajectory of the incremental core is tracked from this
//! change onward (see `BENCHMARKS.md`).
//!
//! ```text
//! cargo run --release -p igpm-bench --bin incsim_bench
//! cargo run --release -p igpm-bench --bin incsim_bench -- --nodes 20000 --out BENCH_incsim.json
//! ```
//!
//! Two unit-update streams are measured:
//!
//! * **maintenance** — degree-biased updates filtered, by live replay, to the
//!   ones `minDelta` classifies as relevant (`ss` deletions / `cs`+`cc`
//!   insertions, in alternating blocks). These are the updates on which
//!   `IncMatch±` actually runs its propagation — the cost the counter rewrite
//!   targets.
//! * **mixed** — the raw degree-biased stream, most of which `minDelta`
//!   discards in O(1). It bounds the constant per-update overhead, including
//!   the counter-upkeep tax the optimised engine pays on updates whose target
//!   matches something (legacy does nothing there).
//!
//! For each stream, two statistics are reported per engine (see
//! `BENCHMARKS.md` for the full methodology):
//!
//! * **end-to-end latency** — the full `insert_edge`/`delete_edge` call,
//!   including the shared graph mutation both engines must perform;
//! * **maintenance cost** (the headline `speedup`) — the end-to-end time of a
//!   chunk minus the time the *same mutations* take on a bare `DataGraph`
//!   replica with no index attached (the legacy engine's replica deletes
//!   through the seed's linear path, matching what that engine pays). This
//!   isolates exactly the classification + auxiliary-structure upkeep +
//!   propagation work that `IncMatch±` adds on top of the graph, which is the
//!   code the counter rewrite replaces.
//!
//! Timing: chunks of 8 same-kind updates, both engines lockstep on each chunk
//! in alternating order, whole walk repeated 3× from fresh state keeping the
//! per-chunk minimum (timing noise is additive). Batch throughput (`IncMatch`
//! with `minDelta`) and the accumulated `|AFF|` are reported for both
//! engines; both engines are asserted to agree with a from-scratch
//! `match_simulation` before any number is written.
//!
//! The `batch` comparison pins the counter engine to **one shard** so its
//! trajectory stays comparable with the sequential engine of earlier runs.
//! Shard scaling is measured separately (`batch_scaling` in the report): the
//! same fig18-style workload scaled up (`--scaling-nodes`, `--scaling-edges`,
//! `--scaling-batch`) is applied at 1/2/4/8 shards, every run is asserted
//! bit-identical (matches *and* `AffStats`) to the 1-shard run, and
//! updates/sec per shard count plus the measuring host's available
//! parallelism land in the artifact — wall-clock scaling is only meaningful
//! where the host actually has cores to scale onto.
//!
//! The `unit_vs_batch_of_one` section prices a batch of one against the
//! dedicated unit path on both unit streams: the median ns per update of
//! `insert_edge`/`delete_edge`, of `apply_batch_with_shards(.., 1)` on a
//! one-update batch, and their ratio, timed in the same interleaved,
//! min-of-3 chunks as the unit sections. Both end states are asserted equal
//! to `match_simulation` before any number is written. Ungated.
//!
//! The cold-start **build** follows the same policy: the `build` section
//! times `SimulationIndex::build` on the headline workload pinned to one
//! shard (the trajectory-comparable number), and `build_scaling` sweeps the
//! scaled-up workload's build over 1/2/4/8 shards — warmup first, samples
//! interleaved round-robin, `host_parallelism` recorded — asserting every
//! build bit-identical (masks, counters, build `AffStats`) to the 1-shard
//! build before any number is written.
//!
//! The `mutation_scaling` section sweeps the bare **graph mutation path** —
//! sharded `minDelta` net-effect reduction plus the two-pass sharded
//! `DataGraph` edge-map mutation, no matching work — over the same shard
//! counts and workload, asserting every run leaves a graph adjacency-identical
//! to the 1-shard run (see `BENCHMARKS.md`).
//!
//! The `scan_scaling` section sweeps the two stages sharded last: the
//! **candidate scan** (`LabelIndex` pass + candidate enumeration,
//! `candidate_scan` runs) on the scaling workload, and a **propCC-dominated
//! batch** (`prop_cc` runs — the scaled unboundedness gadget, whose whole
//! cost is the SCC-joint evaluation) so the propCC sharding is attributed
//! separately from the scan. Lists/matches/`AffStats` are asserted identical
//! to the 1-shard run before any number is written (see `BENCHMARKS.md`).
//!
//! The `durability` section measures what the write-ahead log of
//! [`DurableIndex`] adds to the batch path, per fsync policy (`always` /
//! `every_n=64` / `never`): the same stream of mixed batches is applied
//! through the bare in-memory engine and through a durable index with
//! checkpointing disabled, both pinned to one shard, and every durable run
//! is asserted to end in the same match relation before any number is
//! written. The section is ungated — fsync latency measures the host's
//! storage stack, not this codebase.
//!
//! The `delta` section prices ΔM emission. Tracking is inherent to the apply
//! path, so the baseline is the alternative a subscriber would otherwise
//! pay: materialising the full view every batch and diffing consecutive
//! views. The tracked delta is asserted equal to the view diff before any
//! number is written, and the insert-only monotone fast path is measured
//! separately (its `removed` side asserted empty).
//!
//! The `service` section prices the multi-pattern `MatchService` against N
//! independent single-pattern indexes fed the same stream, swept over
//! 1/16/256/1024 registered patterns: shared vs independent updates/s,
//! snapshot-read p99, the interner's candidate-set dedup and the service's
//! memory per registered pattern, every service view asserted equal to its
//! independent counterpart before any number is written. Ungated — the
//! speedup depends on pattern-pool overlap, which is workload, not code.
//!
//! The `ingest` section prices the asynchronous ingestion front-end
//! ([`igpm_core::Ingest`]) under three open-loop arrival patterns (poisson /
//! bursty / saturated): sustained updates/s, submit→resolve latency (p50 and
//! p99), the coalescer's mean and max batch sizes, and how often producers hit
//! backpressure. Every run is asserted to converge to the synchronous control
//! before any number is written. Ungated — arrival pacing measures the host's
//! sleep granularity and scheduler, not this codebase (see `BENCHMARKS.md`).
//!
//! # Perf-regression gate (`--check-against`)
//!
//! `--check-against OLD.json` compares the freshly measured **1-shard-pinned**
//! `batch` and `build` sections against a previously committed artifact and
//! exits non-zero when a medium is slower than the committed number by more
//! than `--check-tolerance` (default 0.35 — generous, because hosted CI
//! runners are noisy co-tenants; see `BENCHMARKS.md` for the rationale). Only
//! the 1-shard sections are gated: they are the only numbers comparable
//! across hosts with different core counts.

use igpm_bench::harness::{median_ns, updates_per_sec};
use igpm_bench::legacy::LegacySimulationIndex;
use igpm_bench::workloads::batch_scaling_workload;
use igpm_core::{
    candidates_with_shards, match_simulation, AffStats, ApplyOutcome, DurableIndex, DurableOptions,
    Ingest, IngestOptions, MatchService, PatternId, SimulationIndex,
};
use igpm_generator::{
    degree_biased_deletions, degree_biased_insertions, generate_pattern, mixed_batch,
    synthetic_graph, PatternGenConfig, PatternShape, SyntheticConfig, UpdateGenConfig,
};
use igpm_graph::wal::FsyncPolicy;
use igpm_graph::{
    reduce_batch_sharded, BatchUpdate, DataGraph, JsonValue, MatchDelta, Pattern, ShardPlan, Update,
};
use std::time::{Duration, Instant};

struct Config {
    nodes: usize,
    edges: usize,
    labels: usize,
    unit_updates: usize,
    batch_size: usize,
    pattern_nodes: usize,
    pattern_edges: usize,
    shape: PatternShape,
    seed: u64,
    out: String,
    scaling_nodes: usize,
    scaling_edges: usize,
    scaling_batch: usize,
    check_against: Option<String>,
    check_tolerance: f64,
}

impl Default for Config {
    fn default() -> Self {
        // Fig. 18(a)-flavoured sizes, scaled to run in seconds: a
        // densification-law synthetic graph (average degree 6, like the
        // paper's |E| ≈ 4-6·|V| synthetic sweeps) and a generated normal DAG
        // pattern, large enough (10 nodes / 15 edges) that support checks are
        // non-trivial while the per-update masks stay two words.
        Config {
            nodes: 10_000,
            edges: 60_000,
            labels: 6,
            unit_updates: 600,
            batch_size: 2_000,
            pattern_nodes: 10,
            pattern_edges: 15,
            shape: PatternShape::Dag,
            seed: 0x18a,
            out: "BENCH_incsim.json".to_string(),
            // Scaling-sweep sizes: 4× the nodes and 10× the batch of the
            // headline comparison, so the sharded phases carry enough pending
            // work per round to engage the worker threads.
            scaling_nodes: 40_000,
            scaling_edges: 240_000,
            scaling_batch: 20_000,
            check_against: None,
            // Hosted runners are co-tenanted and frequency-drifty: 35% keeps
            // the gate quiet on noise while still catching real regressions
            // (an accidental O(deg) removal or a lost fast path shows up as
            // 2-10x, not 1.35x).
            check_tolerance: 0.35,
        }
    }
}

fn parse_args() -> Config {
    let mut config = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--nodes" => config.nodes = grab("--nodes"),
            "--edges" => config.edges = grab("--edges"),
            "--labels" => config.labels = grab("--labels"),
            "--unit-updates" => config.unit_updates = grab("--unit-updates"),
            "--batch-size" => config.batch_size = grab("--batch-size"),
            "--pattern-nodes" => config.pattern_nodes = grab("--pattern-nodes"),
            "--pattern-edges" => config.pattern_edges = grab("--pattern-edges"),
            "--shape" => {
                config.shape = match args.next().expect("--shape needs a value").as_str() {
                    "general" => PatternShape::General,
                    "dag" => PatternShape::Dag,
                    "tree" => PatternShape::Tree,
                    other => panic!("unknown shape {other}"),
                }
            }
            "--seed" => config.seed = grab("--seed") as u64,
            "--out" => config.out = args.next().expect("--out needs a path"),
            "--scaling-nodes" => config.scaling_nodes = grab("--scaling-nodes"),
            "--scaling-edges" => config.scaling_edges = grab("--scaling-edges"),
            "--scaling-batch" => config.scaling_batch = grab("--scaling-batch"),
            "--check-against" => {
                config.check_against = Some(args.next().expect("--check-against needs a path"))
            }
            "--check-tolerance" => {
                config.check_tolerance = args
                    .next()
                    .expect("--check-tolerance needs a value")
                    .parse::<f64>()
                    .expect("--check-tolerance needs a number (e.g. 0.35)")
            }
            other => panic!("unknown flag {other} (see crates/bench/src/bin/incsim_bench.rs)"),
        }
    }
    config
}

/// The raw degree-biased stream, interleaving insertions and deletions in
/// blocks of [`CHUNK`] (so the chunked timer always measures one kind).
fn mixed_stream(graph: &DataGraph, count: usize, seed: u64) -> Vec<Update> {
    let ins = degree_biased_insertions(graph, UpdateGenConfig::new(count / 2, seed));
    let del = degree_biased_deletions(graph, UpdateGenConfig::new(count / 2, seed + 1));
    let mut stream = Vec::with_capacity(count);
    let (mut i, mut d) = (ins.iter(), del.iter());
    'outer: loop {
        let mut emitted = false;
        for _ in 0..CHUNK {
            match i.next() {
                Some(u) => {
                    stream.push(*u);
                    emitted = true;
                }
                None => break,
            }
        }
        for _ in 0..CHUNK {
            match d.next() {
                Some(u) => {
                    stream.push(*u);
                    emitted = true;
                }
                None => break,
            }
        }
        if !emitted {
            break 'outer;
        }
    }
    stream
}

/// Builds a stream of `count` *relevant* unit updates — blocks of [`CHUNK`]
/// deletions alternating with blocks of insertions — by replaying
/// degree-biased candidates against a scratch index: relevant candidates of
/// the currently wanted kind are kept (and stay applied), everything else is
/// undone, so the replayed prefix state always equals `base + accepted
/// stream` and every acceptance-time classification stays valid on replay.
fn maintenance_stream(base: &DataGraph, pattern: &Pattern, count: usize, seed: u64) -> Vec<Update> {
    let mut graph = base.clone();
    let mut index = SimulationIndex::build(pattern, &graph);
    let mut accepted: Vec<Update> = Vec::new();
    let mut in_block = 0u128;
    let mut want_delete = true;
    let mut round = 0u64;
    while accepted.len() < count && round < 400 {
        round += 1;
        let candidates: Vec<Update> = mixed_stream(&graph, 200, seed + round * 1000);
        for update in candidates {
            if accepted.len() >= count {
                break;
            }
            let (a, b) = update.endpoints();
            if update.is_delete() != want_delete {
                continue;
            }
            let stats = if update.is_insert() {
                index.insert_edge(&mut graph, a, b).stats
            } else {
                index.delete_edge(&mut graph, a, b).stats
            };
            if stats.delta_g == 1 && stats.reduced_delta_g == 1 {
                accepted.push(update);
                in_block += 1;
                if in_block == CHUNK {
                    in_block = 0;
                    want_delete = !want_delete;
                }
            } else {
                // Irrelevant (or no-op): undo so the scratch state matches
                // base + accepted updates exactly.
                let (ia, ib) = update.inverse().endpoints();
                if update.is_insert() {
                    index.delete_edge(&mut graph, ia, ib);
                } else {
                    index.insert_edge(&mut graph, ia, ib);
                }
            }
        }
    }
    assert!(!accepted.is_empty(), "could not find any relevant updates — pattern match is empty?");
    accepted
}

/// Size of the timed chunks: per-update `Instant` reads cost ~40-100 ns,
/// which would floor a few-hundred-ns latency comparison; timing runs of
/// consecutive same-kind updates and dividing amortises that overhead
/// (the same reason criterion batches its iterations).
const CHUNK: u128 = 8;

fn time_batch<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64() * 1e3, result)
}

fn obj(entries: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Divides accumulated [`AffStats`] by the number of identical replays.
fn scale_stats(stats: AffStats, reps: usize) -> AffStats {
    AffStats {
        delta_g: stats.delta_g / reps,
        reduced_delta_g: stats.reduced_delta_g / reps,
        matches_added: stats.matches_added / reps,
        matches_removed: stats.matches_removed / reps,
        aux_changes: stats.aux_changes / reps,
        nodes_visited: stats.nodes_visited / reps,
        counter_updates: stats.counter_updates / reps,
    }
}

struct UnitComparison {
    counter_median_ns: u128,
    legacy_median_ns: u128,
    /// Median per-update *maintenance* cost (total minus the bare graph
    /// mutation of the same chunk) per engine, and its paired speedup.
    counter_maint_ns: u128,
    legacy_maint_ns: u128,
    maintenance_speedup: f64,
    /// Median of the per-chunk paired end-to-end ratios (each chunk is one
    /// trial on which both engines ran back to back).
    paired_speedup: f64,
    counter_del_ns: u128,
    legacy_del_ns: u128,
    counter_ins_ns: u128,
    legacy_ins_ns: u128,
    speedup: f64,
    counter_aff: AffStats,
    legacy_aff: AffStats,
}

/// Runs both engines over the same unit stream from the same base state and
/// checks they land on the same (from-scratch-verified) match.
fn compare_unit_stream(
    name: &str,
    graph: &DataGraph,
    pattern: &Pattern,
    stream: &[Update],
) -> UnitComparison {
    let unit_step_counter = |index: &mut SimulationIndex, g: &mut DataGraph, update: &Update| {
        let (a, b) = update.endpoints();
        if update.is_insert() {
            index.insert_edge(g, a, b).stats
        } else {
            index.delete_edge(g, a, b).stats
        }
    };
    let unit_step_legacy =
        |index: &mut LegacySimulationIndex, g: &mut DataGraph, update: &Update| {
            let (a, b) = update.endpoints();
            if update.is_insert() {
                index.insert_edge(g, a, b)
            } else {
                index.delete_edge(g, a, b)
            }
        };

    // Lockstep: both engines replay the same stream chunk by chunk, timed
    // back to back, so CPU frequency drift and co-tenant noise hit both
    // engines on the same chunk rather than on different halves of the run.
    // The whole walk is repeated REPS times from fresh state and each chunk
    // keeps its *minimum* per engine — timing noise is strictly additive, so
    // min-of-reps is the best estimate of the true chunk cost.
    const REPS: usize = 3;
    // Per rep: (per-chunk counter ns, per-chunk legacy ns, per-chunk kind).
    let mut chunk_counter: Vec<u128> = Vec::new();
    let mut chunk_legacy: Vec<u128> = Vec::new();
    let mut chunk_fast: Vec<u128> = Vec::new();
    let mut chunk_linear: Vec<u128> = Vec::new();
    let mut chunk_kind: Vec<(bool, usize)> = Vec::new(); // (is_delete, chunk_len)
    let mut counter_aff = AffStats::default();
    let mut legacy_aff = AffStats::default();
    let mut final_graph = graph.clone();
    for rep in 0..REPS {
        let mut counter_index = SimulationIndex::build(pattern, graph);
        let mut counter_graph = graph.clone();
        let mut legacy_index = LegacySimulationIndex::build(pattern, graph);
        let mut legacy_graph = graph.clone();
        // Bare graph replicas: the same mutations without any index, used to
        // subtract the shared mutation cost and isolate the *maintenance*
        // work. The legacy replica deletes through the seed's linear path,
        // matching what the legacy engine itself pays.
        let mut replica_fast = graph.clone();
        let mut replica_linear = graph.clone();
        let mut chunk_no = 0usize;
        let mut i = 0usize;
        while i < stream.len() {
            let is_delete = stream[i].is_delete();
            let mut end = i;
            while end < stream.len()
                && stream[end].is_delete() == is_delete
                && ((end - i) as u128) < CHUNK
            {
                end += 1;
            }
            let chunk = &stream[i..end];

            // Alternate which engine goes first so first-mover cache effects
            // cancel out across chunks.
            let counter_first = (chunk_no + rep).is_multiple_of(2);
            let mut time_counter = |c_aff: &mut AffStats| {
                let start = Instant::now();
                for update in chunk {
                    c_aff.merge(unit_step_counter(&mut counter_index, &mut counter_graph, update));
                }
                start.elapsed().as_nanos() / chunk.len() as u128
            };
            let mut time_legacy = |l_aff: &mut AffStats| {
                let start = Instant::now();
                for update in chunk {
                    l_aff.merge(unit_step_legacy(&mut legacy_index, &mut legacy_graph, update));
                }
                start.elapsed().as_nanos() / chunk.len() as u128
            };
            let (counter_per_update, legacy_per_update) = if counter_first {
                let c = time_counter(&mut counter_aff);
                let l = time_legacy(&mut legacy_aff);
                (c, l)
            } else {
                let l = time_legacy(&mut legacy_aff);
                let c = time_counter(&mut counter_aff);
                (c, l)
            };
            let start = Instant::now();
            for update in chunk {
                let (a, b) = update.endpoints();
                if update.is_insert() {
                    replica_fast.add_edge(a, b);
                } else {
                    replica_fast.remove_edge(a, b);
                }
            }
            let fast_per_update = start.elapsed().as_nanos() / chunk.len() as u128;
            let start = Instant::now();
            for update in chunk {
                let (a, b) = update.endpoints();
                if update.is_insert() {
                    replica_linear.add_edge(a, b);
                } else {
                    replica_linear.remove_edge_linear(a, b);
                }
            }
            let linear_per_update = start.elapsed().as_nanos() / chunk.len() as u128;
            if rep == 0 {
                chunk_counter.push(counter_per_update);
                chunk_legacy.push(legacy_per_update);
                chunk_fast.push(fast_per_update);
                chunk_linear.push(linear_per_update);
                chunk_kind.push((is_delete, chunk.len()));
            } else {
                chunk_counter[chunk_no] = chunk_counter[chunk_no].min(counter_per_update);
                chunk_legacy[chunk_no] = chunk_legacy[chunk_no].min(legacy_per_update);
                chunk_fast[chunk_no] = chunk_fast[chunk_no].min(fast_per_update);
                chunk_linear[chunk_no] = chunk_linear[chunk_no].min(linear_per_update);
            }
            chunk_no += 1;
            i = end;
        }
        assert_eq!(counter_graph, legacy_graph, "{name}: engines saw different graphs");
        if rep == 0 {
            final_graph = counter_graph;
        }
    }
    // AffStats accumulated over REPS identical replays: scale back to one.
    counter_aff = scale_stats(counter_aff, REPS);
    legacy_aff = scale_stats(legacy_aff, REPS);

    // Semantic check: a re-run of each engine must agree with from-scratch.
    let expected = match_simulation(pattern, &final_graph);
    let mut g = graph.clone();
    let mut check = SimulationIndex::build(pattern, &g);
    for u in stream {
        unit_step_counter(&mut check, &mut g, u);
    }
    assert_eq!(check.matches(), expected, "{name}: counter engine diverged");
    let mut g = graph.clone();
    let mut check = LegacySimulationIndex::build(pattern, &g);
    for u in stream {
        unit_step_legacy(&mut check, &mut g, u);
    }
    assert_eq!(check.matches(), expected, "{name}: legacy engine diverged");

    // Expand per-chunk minima to per-update samples and paired ratios. The
    // *maintenance* samples subtract the bare graph-mutation cost of the same
    // chunk (fast path for the counter engine, the seed's linear path for the
    // legacy engine), isolating classification + auxiliary-structure upkeep +
    // propagation — the work IncMatch± actually performs on top of the graph.
    let (mut c_del, mut c_ins, mut l_del, mut l_ins) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cm_all, mut lm_all) = (Vec::new(), Vec::new());
    let mut paired_ratios: Vec<f64> = Vec::new();
    let mut maint_ratios: Vec<f64> = Vec::new();
    for (chunk_no, &(is_delete, len)) in chunk_kind.iter().enumerate() {
        let c = chunk_counter[chunk_no];
        let l = chunk_legacy[chunk_no];
        let cm = c.saturating_sub(chunk_fast[chunk_no]).max(1);
        let lm = l.saturating_sub(chunk_linear[chunk_no]).max(1);
        for _ in 0..len {
            if is_delete {
                c_del.push(c);
                l_del.push(l);
            } else {
                c_ins.push(c);
                l_ins.push(l);
            }
            cm_all.push(cm);
            lm_all.push(lm);
        }
        paired_ratios.push(l as f64 / c.max(1) as f64);
        maint_ratios.push(lm as f64 / cm as f64);
    }

    let all_counter: Vec<u128> = c_del.iter().chain(c_ins.iter()).copied().collect();
    let all_legacy: Vec<u128> = l_del.iter().chain(l_ins.iter()).copied().collect();
    let counter_median_ns = median_ns(all_counter);
    let legacy_median_ns = median_ns(all_legacy);
    paired_ratios.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let paired_speedup = paired_ratios.get(paired_ratios.len() / 2).copied().unwrap_or(1.0);
    maint_ratios.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let maintenance_paired = maint_ratios.get(maint_ratios.len() / 2).copied().unwrap_or(1.0);
    let counter_maint_ns = median_ns(cm_all);
    let legacy_maint_ns = median_ns(lm_all);
    let comparison = UnitComparison {
        counter_median_ns,
        legacy_median_ns,
        counter_maint_ns,
        legacy_maint_ns,
        maintenance_speedup: maintenance_paired,
        paired_speedup,
        counter_del_ns: median_ns(c_del),
        legacy_del_ns: median_ns(l_del),
        counter_ins_ns: median_ns(c_ins),
        legacy_ins_ns: median_ns(l_ins),
        speedup: legacy_median_ns as f64 / counter_median_ns.max(1) as f64,
        counter_aff,
        legacy_aff,
    };
    println!(
        "{name}: {} updates — end-to-end counter {} ns vs legacy {} ns ({:.2}x medians, \
         {:.2}x paired); maintenance {} ns vs {} ns ({:.2}x paired) \
         (del {}/{} ns, ins {}/{} ns)",
        stream.len(),
        comparison.counter_median_ns,
        comparison.legacy_median_ns,
        comparison.speedup,
        comparison.paired_speedup,
        comparison.counter_maint_ns,
        comparison.legacy_maint_ns,
        comparison.maintenance_speedup,
        comparison.counter_del_ns,
        comparison.legacy_del_ns,
        comparison.counter_ins_ns,
        comparison.legacy_ins_ns,
    );
    comparison
}

fn unit_json(c: &UnitComparison) -> JsonValue {
    obj(vec![
        ("counter_median_ns", JsonValue::Int(c.counter_median_ns as i64)),
        ("legacy_median_ns", JsonValue::Int(c.legacy_median_ns as i64)),
        ("speedup", JsonValue::Float(c.maintenance_speedup)),
        ("counter_maintenance_median_ns", JsonValue::Int(c.counter_maint_ns as i64)),
        ("legacy_maintenance_median_ns", JsonValue::Int(c.legacy_maint_ns as i64)),
        ("end_to_end_speedup", JsonValue::Float(c.paired_speedup)),
        ("end_to_end_speedup_of_medians", JsonValue::Float(c.speedup)),
        ("counter_delete_median_ns", JsonValue::Int(c.counter_del_ns as i64)),
        ("legacy_delete_median_ns", JsonValue::Int(c.legacy_del_ns as i64)),
        ("counter_insert_median_ns", JsonValue::Int(c.counter_ins_ns as i64)),
        ("legacy_insert_median_ns", JsonValue::Int(c.legacy_ins_ns as i64)),
        ("counter_total_aff", JsonValue::Int(c.counter_aff.aff() as i64)),
        ("legacy_total_aff", JsonValue::Int(c.legacy_aff.aff() as i64)),
        ("counter_total_delta_m", JsonValue::Int(c.counter_aff.delta_m() as i64)),
        ("legacy_total_delta_m", JsonValue::Int(c.legacy_aff.delta_m() as i64)),
        ("counter_updates", JsonValue::Int(c.counter_aff.counter_updates as i64)),
    ])
}

/// The unit path against a batch of one on one stream: median ns per update
/// of each, and their ratio.
struct UnitVsBatchOfOne {
    unit_ns: u128,
    batch_of_one_ns: u128,
    ratio: f64,
}

/// Times `insert_edge`/`delete_edge` against `apply_batch_with_shards(.., 1)`
/// on a one-update batch, over the same unit stream from the same base
/// state. The two paths run the stream in lockstep chunks of [`CHUNK`]
/// same-kind updates, alternating which goes first, and the whole walk is
/// repeated from fresh state keeping each chunk's minimum — the timing of
/// [`compare_unit_stream`]. The one-update batches are built before the
/// timer starts. Both end states are asserted equal to `match_simulation`
/// before any number is returned.
fn unit_vs_batch_of_one(
    name: &str,
    graph: &DataGraph,
    pattern: &Pattern,
    stream: &[Update],
) -> UnitVsBatchOfOne {
    const REPS: usize = 3;
    let batches: Vec<BatchUpdate> =
        stream.iter().map(|&update| BatchUpdate::from_updates(vec![update])).collect();
    let mut chunk_unit: Vec<u128> = Vec::new();
    let mut chunk_batch: Vec<u128> = Vec::new();
    let mut chunk_len: Vec<usize> = Vec::new();
    for rep in 0..REPS {
        let mut unit_index = SimulationIndex::build_with_shards(pattern, graph, 1);
        let mut unit_graph = graph.clone();
        let mut batch_index = SimulationIndex::build_with_shards(pattern, graph, 1);
        let mut batch_graph = graph.clone();
        let (mut chunk_no, mut i) = (0usize, 0usize);
        while i < stream.len() {
            let is_delete = stream[i].is_delete();
            let mut end = i;
            while end < stream.len()
                && stream[end].is_delete() == is_delete
                && ((end - i) as u128) < CHUNK
            {
                end += 1;
            }
            let len = end - i;
            let mut time_unit = || {
                let start = Instant::now();
                for update in &stream[i..end] {
                    let (a, b) = update.endpoints();
                    if update.is_insert() {
                        unit_index.insert_edge(&mut unit_graph, a, b);
                    } else {
                        unit_index.delete_edge(&mut unit_graph, a, b);
                    }
                }
                start.elapsed().as_nanos() / len as u128
            };
            let mut time_batch_of_one = || {
                let start = Instant::now();
                for batch in &batches[i..end] {
                    batch_index.apply_batch_with_shards(&mut batch_graph, batch, 1);
                }
                start.elapsed().as_nanos() / len as u128
            };
            let (unit, batch) = if (chunk_no + rep).is_multiple_of(2) {
                let unit = time_unit();
                (unit, time_batch_of_one())
            } else {
                let batch = time_batch_of_one();
                (time_unit(), batch)
            };
            if rep == 0 {
                chunk_unit.push(unit);
                chunk_batch.push(batch);
                chunk_len.push(len);
            } else {
                chunk_unit[chunk_no] = chunk_unit[chunk_no].min(unit);
                chunk_batch[chunk_no] = chunk_batch[chunk_no].min(batch);
            }
            chunk_no += 1;
            i = end;
        }
        assert_eq!(unit_graph, batch_graph, "{name}: the two paths saw different graphs");
        let expected = match_simulation(pattern, &unit_graph);
        assert_eq!(unit_index.matches(), expected, "{name}: unit path diverged");
        assert_eq!(batch_index.matches(), expected, "{name}: batch-of-one path diverged");
    }
    // Per-chunk minima expanded to per-update samples.
    let per_update = |chunks: &[u128]| -> Vec<u128> {
        chunks.iter().zip(&chunk_len).flat_map(|(&ns, &len)| std::iter::repeat_n(ns, len)).collect()
    };
    let unit_ns = median_ns(per_update(&chunk_unit));
    let batch_of_one_ns = median_ns(per_update(&chunk_batch));
    let ratio = batch_of_one_ns as f64 / unit_ns.max(1) as f64;
    println!(
        "unit vs batch of one ({name}): {} updates — unit {unit_ns} ns, batch of one \
         {batch_of_one_ns} ns ({ratio:.2}x)",
        stream.len()
    );
    UnitVsBatchOfOne { unit_ns, batch_of_one_ns, ratio }
}

fn unit_vs_batch_json(c: &UnitVsBatchOfOne) -> JsonValue {
    obj(vec![
        ("unit_median_ns", JsonValue::Int(c.unit_ns as i64)),
        ("batch_of_one_median_ns", JsonValue::Int(c.batch_of_one_ns as i64)),
        ("batch_of_one_over_unit", JsonValue::Float(c.ratio)),
    ])
}

/// One measured point of the shard-scaling sweep.
struct ScalingRun {
    shards: usize,
    median_ns: u128,
    throughput: f64,
}

/// Times the cold-start `SimulationIndex` build on the headline workload,
/// pinned to **one shard** so the number stays comparable with the
/// sequential builds of earlier runs (shard scaling is measured separately
/// by [`build_scaling_sweep`]).
fn sequential_build_timing(graph: &DataGraph, pattern: &Pattern) -> u128 {
    // Warmup (allocator + caches), then median of 5.
    let _ = SimulationIndex::build_with_shards(pattern, graph, 1);
    let samples: Vec<u128> = (0..5)
        .map(|_| {
            let (ms, index) = time_batch(|| SimulationIndex::build_with_shards(pattern, graph, 1));
            assert!(index.pattern().node_count() > 0);
            (ms * 1e6) as u128
        })
        .collect();
    median_ns(samples)
}

/// Builds the scaled-up fig18-style workload's index at each shard count,
/// asserting every build bit-identical (masks, counters, cached matches and
/// build `AffStats`) to the 1-shard build before any number is reported.
/// Warmup first, then samples interleaved round-robin over the shard counts
/// so frequency drift and co-tenant noise hit every count equally.
fn build_scaling_sweep(graph: &DataGraph, pattern: &Pattern, config: &Config) -> Vec<ScalingRun> {
    let reference = SimulationIndex::build_with_shards(pattern, graph, 1);
    assert_eq!(
        reference.matches(),
        match_simulation(pattern, graph),
        "1-shard build diverged from from-scratch match_simulation"
    );
    let reference_aux = reference.aux_snapshot();
    let reference_stats = reference.build_stats();
    let mut times: Vec<Vec<u128>> = vec![Vec::with_capacity(SWEEP_SAMPLES); SHARD_SWEEP.len()];
    for _ in 0..SWEEP_SAMPLES {
        for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
            let (ms, index) =
                time_batch(|| SimulationIndex::build_with_shards(pattern, graph, shards));
            times[i].push((ms * 1e6) as u128);
            assert_eq!(
                index.aux_snapshot(),
                reference_aux,
                "{shards}-shard build produced different masks/counters than the 1-shard build"
            );
            assert_eq!(
                index.build_stats(),
                reference_stats,
                "{shards}-shard build reported different AffStats than the 1-shard build"
            );
        }
    }
    let mut runs = Vec::new();
    for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
        let median = median_ns(times[i].clone());
        // "Throughput" for a build is nodes indexed per second.
        let throughput = updates_per_sec(config.scaling_nodes, median);
        println!(
            "build_scaling (|V|={}, |E|={}): {shards} shard(s) — {:.3} ms ({:.0} nodes/s)",
            config.scaling_nodes,
            config.scaling_edges,
            median as f64 / 1e6,
            throughput,
        );
        runs.push(ScalingRun { shards, median_ns: median, throughput });
    }
    runs
}

/// Shard counts swept by both scaling sections, and samples per count.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const SWEEP_SAMPLES: usize = 5;

/// Applies the scaled-up fig18-style batch at each shard count, asserting
/// every run bit-identical (matches and `AffStats`) to the 1-shard run
/// before any number is reported.
fn batch_scaling_sweep(
    graph: &DataGraph,
    pattern: &Pattern,
    batch: &BatchUpdate,
    scaling_nodes: usize,
) -> Vec<ScalingRun> {
    let mut updated = graph.clone();
    batch.apply(&mut updated);
    let expected = match_simulation(pattern, &updated);
    let base_index = SimulationIndex::build(pattern, graph);

    // Warm up caches/allocator once untimed, then interleave the samples
    // round-robin over the shard counts so frequency drift and co-tenant
    // noise hit every count equally rather than whichever ran first.
    {
        let mut g = graph.clone();
        base_index.clone().apply_batch_with_shards(&mut g, batch, 1);
    }
    let mut times: Vec<Vec<u128>> = vec![Vec::with_capacity(SWEEP_SAMPLES); SHARD_SWEEP.len()];
    let mut reference_outcome: Option<ApplyOutcome> = None;
    for _ in 0..SWEEP_SAMPLES {
        for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
            let mut g = graph.clone();
            let mut index = base_index.clone();
            let (ms, outcome) = time_batch(|| index.apply_batch_with_shards(&mut g, batch, shards));
            times[i].push((ms * 1e6) as u128);
            assert_eq!(index.matches(), expected, "{shards}-shard run diverged from scratch");
            match &reference_outcome {
                None => reference_outcome = Some(outcome),
                Some(reference) => assert_eq!(
                    outcome, *reference,
                    "{shards}-shard run reported different AffStats/ΔM than the 1-shard run"
                ),
            }
        }
    }
    let mut runs = Vec::new();
    for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
        let median = median_ns(times[i].clone());
        let throughput = updates_per_sec(batch.len(), median);
        println!(
            "batch_scaling ({} updates, |V|={}): {shards} shard(s) — {:.3} ms ({:.0}/s)",
            batch.len(),
            scaling_nodes,
            median as f64 / 1e6,
            throughput,
        );
        runs.push(ScalingRun { shards, median_ns: median, throughput });
    }
    runs
}

/// Sweeps the bare graph-mutation path — sharded `minDelta` net-effect
/// reduction plus the two-pass sharded `DataGraph` edge-map application, no
/// matching work — over the shard counts, asserting every run leaves a graph
/// **adjacency-identical** (list order included) to the 1-shard run before
/// any number is reported. Warmup first, then samples interleaved
/// round-robin over the shard counts.
fn mutation_scaling_sweep(graph: &DataGraph, batch: &BatchUpdate) -> Vec<ScalingRun> {
    let reference = {
        let plan = ShardPlan::new(graph.node_count(), 1);
        let (effective, _) = reduce_batch_sharded(graph, batch, plan);
        let mut g = graph.clone();
        g.apply_reduced_batch_sharded(&effective, plan);
        g.assert_edge_index_consistent();
        g
    };
    // Warmup (allocator + caches) once untimed.
    {
        let plan = ShardPlan::new(graph.node_count(), SHARD_SWEEP[SHARD_SWEEP.len() - 1]);
        let (effective, _) = reduce_batch_sharded(graph, batch, plan);
        let mut g = graph.clone();
        g.apply_reduced_batch_sharded(&effective, plan);
    }
    let mut times: Vec<Vec<u128>> = vec![Vec::with_capacity(SWEEP_SAMPLES); SHARD_SWEEP.len()];
    for _ in 0..SWEEP_SAMPLES {
        for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
            let mut g = graph.clone();
            let plan = ShardPlan::new(g.node_count(), shards);
            let (ms, applied) = time_batch(|| {
                let (effective, _) = reduce_batch_sharded(&g, batch, plan);
                g.apply_reduced_batch_sharded(&effective, plan)
            });
            times[i].push((ms * 1e6) as u128);
            assert!(applied > 0, "scaling batch reduced to nothing");
            assert!(
                g.identical_to(&reference),
                "{shards}-shard mutation left a different graph than the 1-shard run"
            );
        }
    }
    let mut runs = Vec::new();
    for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
        let median = median_ns(times[i].clone());
        let throughput = updates_per_sec(batch.len(), median);
        println!(
            "mutation_scaling ({} updates, |V|={}): {shards} shard(s) — {:.3} ms ({:.0}/s)",
            batch.len(),
            graph.node_count(),
            median as f64 / 1e6,
            throughput,
        );
        runs.push(ScalingRun { shards, median_ns: median, throughput });
    }
    runs
}

/// Sweeps the **candidate scan** — the sharded `LabelIndex` pass plus the
/// per-pattern-node candidate enumeration (`candidates_with_shards`), the
/// cold-start stage this change parallelised — over the shard counts,
/// asserting every run's lists identical to the 1-shard scan before any
/// number is reported. Warmup first, samples interleaved round-robin.
fn scan_scaling_sweep(graph: &DataGraph, pattern: &Pattern) -> Vec<ScalingRun> {
    let reference = candidates_with_shards(pattern, graph, 1);
    let total: usize = reference.iter().map(Vec::len).sum();
    assert!(total > 0, "scan-scaling pattern has no candidates");
    // Warmup (allocator + caches) once untimed at the widest count.
    let _ = candidates_with_shards(pattern, graph, SHARD_SWEEP[SHARD_SWEEP.len() - 1]);
    let mut times: Vec<Vec<u128>> = vec![Vec::with_capacity(SWEEP_SAMPLES); SHARD_SWEEP.len()];
    for _ in 0..SWEEP_SAMPLES {
        for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
            let (ms, lists) = time_batch(|| candidates_with_shards(pattern, graph, shards));
            times[i].push((ms * 1e6) as u128);
            assert_eq!(
                lists, reference,
                "{shards}-shard candidate scan produced different lists than the 1-shard scan"
            );
        }
    }
    let mut runs = Vec::new();
    for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
        let median = median_ns(times[i].clone());
        // Throughput for a scan is nodes scanned per second (the label-index
        // pass walks every node once).
        let throughput = updates_per_sec(graph.node_count(), median);
        println!(
            "scan_scaling candidate_scan (|V|={}): {shards} shard(s) — {:.3} ms ({:.0} nodes/s)",
            graph.node_count(),
            median as f64 / 1e6,
            throughput,
        );
        runs.push(ScalingRun { shards, median_ns: median, throughput });
    }
    runs
}

/// Sweeps a **propCC-dominated batch** so the sharded SCC-joint evaluation is
/// attributed separately from the candidate scan: the unboundedness-gadget
/// worst case scaled up — two same-label chains of `nodes / 2` under a
/// two-node cycle pattern, the batch inserting the two bridge edges that
/// close the global cycle. `minDelta` keeps both insertions, absorption and
/// the propCS drain see two seeds, and then `propCC` tentatively evaluates
/// (and promotes) *every* node — the batch cost is the joint evaluation.
/// Every run is asserted bit-identical (matches and `AffStats`) to the
/// 1-shard run before any number is reported.
fn prop_cc_scaling_sweep(nodes: usize) -> Vec<ScalingRun> {
    let half = (nodes / 2).max(2);
    let mut graph = DataGraph::new();
    let chain: Vec<igpm_graph::NodeId> =
        (0..2 * half).map(|_| graph.add_labeled_node("a")).collect();
    for i in 0..half - 1 {
        graph.add_edge(chain[i], chain[i + 1]);
        graph.add_edge(chain[half + i], chain[half + i + 1]);
    }
    let mut pattern = Pattern::new();
    let u1 = pattern.add_labeled_node("a");
    let u2 = pattern.add_labeled_node("a");
    pattern.add_normal_edge(u1, u2);
    pattern.add_normal_edge(u2, u1);
    let mut batch = BatchUpdate::new();
    batch.insert(chain[half - 1], chain[half]);
    batch.insert(chain[2 * half - 1], chain[0]);

    let base_index = SimulationIndex::build_with_shards(&pattern, &graph, 1);
    assert!(!base_index.is_match(), "the gadget must start unmatched");
    // Warmup once untimed, and freeze the 1-shard reference outcome.
    let (reference_matches, reference_stats) = {
        let mut g = graph.clone();
        let mut index = base_index.clone();
        let stats = index.apply_batch_with_shards(&mut g, &batch, 1);
        assert!(index.is_match(), "closing the cycle must match every node");
        (index.matches(), stats)
    };
    let mut times: Vec<Vec<u128>> = vec![Vec::with_capacity(SWEEP_SAMPLES); SHARD_SWEEP.len()];
    for _ in 0..SWEEP_SAMPLES {
        for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
            let mut g = graph.clone();
            let mut index = base_index.clone();
            let (ms, stats) = time_batch(|| index.apply_batch_with_shards(&mut g, &batch, shards));
            times[i].push((ms * 1e6) as u128);
            assert_eq!(stats, reference_stats, "{shards}-shard propCC AffStats diverged");
            assert_eq!(index.matches(), reference_matches, "{shards}-shard propCC diverged");
        }
    }
    let mut runs = Vec::new();
    for (i, &shards) in SHARD_SWEEP.iter().enumerate() {
        let median = median_ns(times[i].clone());
        // Throughput is candidates jointly evaluated per second: propCC
        // tentatively evaluates all 2·half nodes for both pattern nodes.
        let throughput = updates_per_sec(2 * half, median);
        println!(
            "scan_scaling prop_cc (|V|={}): {shards} shard(s) — {:.3} ms ({:.0} candidates/s)",
            2 * half,
            median as f64 / 1e6,
            throughput,
        );
        runs.push(ScalingRun { shards, median_ns: median, throughput });
    }
    runs
}

/// Measures what write-ahead logging adds to the batch path, per fsync
/// policy: a stream of mixed batches is applied once through the bare
/// in-memory `SimulationIndex` (1 shard) and once through a
/// [`DurableIndex`] under each [`FsyncPolicy`] with checkpointing disabled,
/// so the difference is exactly the WAL append (+ sync) cost. Every durable
/// run is asserted to end in the same match relation as the in-memory run
/// before any number is reported. Ungated: fsync latency is a property of
/// the host's storage stack, not of this codebase.
fn durability_sweep(graph: &DataGraph, pattern: &Pattern, seed: u64) -> JsonValue {
    let batch_count = 32usize;
    let per_batch = 250usize;
    let samples = 3usize;

    // A sequentially valid stream: each batch generated against (and applied
    // to) the graph its predecessors left behind.
    let mut stream: Vec<BatchUpdate> = Vec::with_capacity(batch_count);
    {
        let mut g = graph.clone();
        for i in 0..batch_count {
            let batch = mixed_batch(&g, per_batch / 2, per_batch / 2, seed + i as u64);
            batch.apply(&mut g);
            stream.push(batch);
        }
    }

    // Bare in-memory baseline.
    let mut base_samples = Vec::with_capacity(samples);
    let mut expected = None;
    for _ in 0..samples {
        let mut g = graph.clone();
        let mut index = SimulationIndex::build(pattern, &g);
        let start = Instant::now();
        for batch in &stream {
            index.try_apply_batch_with_shards(&mut g, batch, 1).expect("stream is valid");
        }
        base_samples.push(start.elapsed().as_nanos());
        expected = Some(index.matches());
    }
    let base_ns = median_ns(base_samples);
    let expected = expected.expect("at least one sample");
    println!(
        "durability in-memory baseline ({batch_count} batches × {per_batch}): {:.3} ms",
        base_ns as f64 / 1e6
    );

    let policies: [(&str, FsyncPolicy); 3] = [
        ("always", FsyncPolicy::Always),
        ("every_n=64", FsyncPolicy::EveryN(64)),
        ("never", FsyncPolicy::Never),
    ];
    let mut policy_rows = Vec::new();
    for (name, policy) in policies {
        let mut policy_samples = Vec::with_capacity(samples);
        let mut wal_bytes = 0u64;
        for sample in 0..samples {
            let dir = std::env::temp_dir()
                .join(format!("igpm-bench-durability-{}-{name}-{sample}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = DurableOptions {
                fsync: policy,
                checkpoint_every: 0,
                keep_checkpoints: 2,
                shards: 1,
                delta_buffer: 1024,
            };
            let mut durable: DurableIndex<SimulationIndex> =
                DurableIndex::open(dir.clone(), pattern, graph, opts).expect("open durable dir");
            let start = Instant::now();
            for batch in &stream {
                durable.apply(batch).expect("stream is valid");
            }
            policy_samples.push(start.elapsed().as_nanos());
            assert_eq!(
                durable.try_matches().expect("durable index readable"),
                expected,
                "durable run ({name}) diverged from the in-memory run"
            );
            wal_bytes = std::fs::read_dir(&dir)
                .expect("durability dir readable")
                .filter_map(|e| e.ok())
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("wal-") && name.ends_with(".log")
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum();
            let _ = std::fs::remove_dir_all(&dir);
        }
        let policy_ns = median_ns(policy_samples);
        let overhead = policy_ns as f64 / base_ns.max(1) as f64;
        println!(
            "durability fsync={name}: {:.3} ms ({overhead:.2}x in-memory, {wal_bytes} WAL bytes)",
            policy_ns as f64 / 1e6
        );
        policy_rows.push(obj(vec![
            ("policy", JsonValue::Str(name.to_string())),
            ("median_ms", JsonValue::Float(policy_ns as f64 / 1e6)),
            ("overhead_vs_in_memory", JsonValue::Float(overhead)),
            ("wal_bytes", JsonValue::Int(wal_bytes as i64)),
        ]));
    }

    obj(vec![
        (
            "workload",
            obj(vec![
                ("batches", JsonValue::Int(batch_count as i64)),
                ("updates_per_batch", JsonValue::Int(per_batch as i64)),
                ("shards", JsonValue::Int(1)),
                ("seed", JsonValue::Int(seed as i64)),
            ]),
        ),
        ("in_memory_median_ms", JsonValue::Float(base_ns as f64 / 1e6)),
        ("policies", JsonValue::Array(policy_rows)),
    ])
}

/// Measures delta emission. Tracking is inherent to the apply path (every
/// batch returns its `MatchDelta`), so the honest baseline is not "apply
/// without deltas" — it is the alternative a subscriber would otherwise pay:
/// materialising the full view each batch and diffing consecutive views.
/// The sweep times both over the same stream, cross-checks that the tracked
/// delta equals the view diff before any number is written, and measures the
/// monotone insert-only fast path separately.
fn delta_sweep(graph: &DataGraph, pattern: &Pattern, seed: u64) -> JsonValue {
    let batch_count = 32usize;
    let per_batch = 250usize;
    let samples = 3usize;

    // Sequentially valid streams: each batch generated against (and applied
    // to) the graph its predecessors left behind.
    let build_stream = |insertions: usize, deletions: usize, seed: u64| {
        let mut g = graph.clone();
        let mut stream: Vec<BatchUpdate> = Vec::with_capacity(batch_count);
        for i in 0..batch_count {
            let batch = mixed_batch(&g, insertions, deletions, seed + i as u64);
            batch.apply(&mut g);
            stream.push(batch);
        }
        stream
    };
    let mixed_stream = build_stream(per_batch / 2, per_batch / 2, seed);
    let insert_stream = build_stream(per_batch, 0, seed + 0x1000);

    // Tracked path: the delta rides along on the ordinary apply.
    let mut tracked_samples = Vec::with_capacity(samples);
    let mut tracked_deltas: Vec<MatchDelta> = Vec::new();
    let mut pairs_inserted = 0u64;
    let mut pairs_removed = 0u64;
    for sample in 0..samples {
        let mut g = graph.clone();
        let mut index = SimulationIndex::build(pattern, &g);
        let start = Instant::now();
        let mut deltas = Vec::with_capacity(batch_count);
        for batch in &mixed_stream {
            let outcome =
                index.try_apply_batch_with_shards(&mut g, batch, 1).expect("stream is valid");
            deltas.push(outcome.delta);
        }
        tracked_samples.push(start.elapsed().as_nanos());
        if sample == 0 {
            pairs_inserted = deltas.iter().map(|d| d.inserted.len() as u64).sum();
            pairs_removed = deltas.iter().map(|d| d.removed.len() as u64).sum();
            tracked_deltas = deltas;
        }
    }
    let tracked_ns = median_ns(tracked_samples);

    // Diff path: what a consumer pays without the tracker — materialise the
    // full view each batch and diff it against the previous one.
    let mut diff_samples = Vec::with_capacity(samples);
    for sample in 0..samples {
        let mut g = graph.clone();
        let mut index = SimulationIndex::build(pattern, &g);
        let mut prev = index.matches();
        let start = Instant::now();
        let mut deltas = Vec::with_capacity(batch_count);
        for batch in &mixed_stream {
            index.try_apply_batch_with_shards(&mut g, batch, 1).expect("stream is valid");
            let next = index.matches();
            deltas.push(MatchDelta::between(&prev, &next));
            prev = next;
        }
        diff_samples.push(start.elapsed().as_nanos());
        if sample == 0 {
            assert_eq!(deltas, tracked_deltas, "tracked ΔM diverged from the view diff");
        }
    }
    let diff_ns = median_ns(diff_samples);
    let overhead = tracked_ns as f64 / diff_ns.max(1) as f64;
    println!(
        "delta ({batch_count} batches × {per_batch} mixed): tracked {:.3} ms, view-diff {:.3} ms \
         ({overhead:.2}x, +{pairs_inserted}/-{pairs_removed} pairs)",
        tracked_ns as f64 / 1e6,
        diff_ns as f64 / 1e6
    );

    // Monotone fast path: insert-only batches skip removal tracking.
    let mut monotone_samples = Vec::with_capacity(samples);
    let mut monotone_inserted = 0u64;
    for sample in 0..samples {
        let mut g = graph.clone();
        let mut index = SimulationIndex::build(pattern, &g);
        let start = Instant::now();
        let mut inserted = 0u64;
        for batch in &insert_stream {
            let outcome =
                index.try_apply_batch_with_shards(&mut g, batch, 1).expect("stream is valid");
            assert!(outcome.delta.removed.is_empty(), "insert-only batch removed matches");
            inserted += outcome.delta.inserted.len() as u64;
        }
        monotone_samples.push(start.elapsed().as_nanos());
        if sample == 0 {
            monotone_inserted = inserted;
        }
    }
    let monotone_ns = median_ns(monotone_samples);
    println!(
        "delta monotone ({batch_count} insert-only batches × {per_batch}): {:.3} ms \
         (+{monotone_inserted} pairs)",
        monotone_ns as f64 / 1e6
    );

    obj(vec![
        (
            "workload",
            obj(vec![
                ("batches", JsonValue::Int(batch_count as i64)),
                ("updates_per_batch", JsonValue::Int(per_batch as i64)),
                ("shards", JsonValue::Int(1)),
                ("seed", JsonValue::Int(seed as i64)),
            ]),
        ),
        ("tracked_median_ms", JsonValue::Float(tracked_ns as f64 / 1e6)),
        ("view_diff_median_ms", JsonValue::Float(diff_ns as f64 / 1e6)),
        ("tracked_vs_view_diff", JsonValue::Float(overhead)),
        ("pairs_inserted", JsonValue::Int(pairs_inserted as i64)),
        ("pairs_removed", JsonValue::Int(pairs_removed as i64)),
        (
            "monotone",
            obj(vec![
                ("median_ms", JsonValue::Float(monotone_ns as f64 / 1e6)),
                ("pairs_inserted", JsonValue::Int(monotone_inserted as i64)),
            ]),
        ),
    ])
}

/// Prices the multi-pattern [`MatchService`] against the alternative it
/// replaces: N independent single-pattern indexes each paying their own
/// validation, minDelta reduction and graph mutation for every batch. One
/// fixed graph and update stream, swept over 1/16/256/1024 registered
/// patterns (drawn from one overlapping pool so the candidate interner has
/// real sharing to exploit). Per pattern count the sweep reports
///
/// * shared-service wall time for the stream (registration excluded, like
///   the baseline's builds) and effective updates/s;
/// * the independent-indexes wall time for the same stream — built untimed,
///   applies timed engine by engine — and the resulting speedup;
/// * snapshot-read p99 (`matches(pattern_id)` round-robin over the handles);
/// * interned candidate sets vs total pattern nodes;
/// * bytes per pattern: `MatchService::memory_bytes()` right after the
///   registrations, divided by the pattern count.
///
/// Every service view is asserted equal to its independent counterpart
/// before any number is written. Pinned to 1 shard so the per-update cost
/// curve is attributable to sharing, not thread scaling. Ungated: the
/// speedup depends on pattern-pool overlap, which is workload, not code.
fn service_sweep(seed: u64) -> JsonValue {
    const PATTERN_COUNTS: [usize; 4] = [1, 16, 256, 1024];
    const BATCH_COUNT: usize = 8;
    const PER_BATCH: usize = 200;
    const READS: usize = 4096;

    let graph = synthetic_graph(&SyntheticConfig::new(4_000, 16_000, 4, seed));
    let pool: Vec<Pattern> = (0..PATTERN_COUNTS[PATTERN_COUNTS.len() - 1])
        .map(|i| {
            let shape = if i % 2 == 0 { PatternShape::General } else { PatternShape::Dag };
            let nodes = 2 + (i % 3);
            generate_pattern(
                &graph,
                &PatternGenConfig::normal(nodes, nodes + 1, 1, seed + 100 + i as u64)
                    .with_shape(shape),
            )
        })
        .collect();

    // One sequentially valid stream shared by every configuration: each
    // batch generated against the graph its predecessors left behind.
    let mut stream: Vec<BatchUpdate> = Vec::with_capacity(BATCH_COUNT);
    {
        let mut g = graph.clone();
        for i in 0..BATCH_COUNT {
            let batch = mixed_batch(&g, PER_BATCH / 2, PER_BATCH / 2, seed + 0x300 + i as u64);
            batch.apply(&mut g);
            stream.push(batch);
        }
    }
    let stream_updates = BATCH_COUNT * PER_BATCH;

    let mut rows = Vec::new();
    for &count in &PATTERN_COUNTS {
        let patterns = &pool[..count];

        // Shared service: register all patterns (untimed), apply the stream.
        let mut service: MatchService<SimulationIndex> =
            MatchService::with_shards(graph.clone(), 1);
        let ids: Vec<PatternId> =
            patterns.iter().map(|p| service.register(p).expect("register")).collect();
        let interned = service.interned_candidate_sets();
        let bytes_per_pattern = service.memory_bytes() / count;
        let start = Instant::now();
        for batch in &stream {
            service.apply(batch).expect("stream is valid");
        }
        let service_ns = start.elapsed().as_nanos();

        // Snapshot reads, round-robin over the registered handles.
        let mut read_ns: Vec<u128> = Vec::with_capacity(READS);
        for r in 0..READS {
            let id = ids[r % ids.len()];
            let start = Instant::now();
            let view = service.matches(id).expect("readable");
            read_ns.push(start.elapsed().as_nanos());
            std::hint::black_box(view);
        }
        read_ns.sort_unstable();
        let read_p99 = read_ns[(READS * 99) / 100 - 1];

        // Independent baseline: each pattern owns its index *and* its graph,
        // so it pays validation + reduction + mutation per pattern. Builds
        // and clones are untimed (the service's registrations were too).
        let mut baseline_ns = 0u128;
        for (i, pattern) in patterns.iter().enumerate() {
            let mut g = graph.clone();
            let mut index = SimulationIndex::build_with_shards(pattern, &g, 1);
            let start = Instant::now();
            for batch in &stream {
                index.try_apply_batch_with_shards(&mut g, batch, 1).expect("stream is valid");
            }
            baseline_ns += start.elapsed().as_nanos();
            assert_eq!(
                *service.matches(ids[i]).expect("readable"),
                index.matches(),
                "service diverged from independent index {i} at {count} patterns"
            );
        }

        let service_tput = updates_per_sec(stream_updates, service_ns);
        let baseline_tput = updates_per_sec(stream_updates, baseline_ns);
        let speedup = baseline_ns as f64 / service_ns.max(1) as f64;
        let total_nodes: usize = patterns.iter().map(Pattern::node_count).sum();
        println!(
            "service ({count} patterns): shared {:.3} ms ({:.0}/s), independent {:.3} ms \
             ({:.0}/s) ⇒ {speedup:.2}x; read p99 {:.1} µs; {interned} candidate sets for \
             {total_nodes} pattern nodes; {bytes_per_pattern} bytes per pattern",
            service_ns as f64 / 1e6,
            service_tput,
            baseline_ns as f64 / 1e6,
            baseline_tput,
            read_p99 as f64 / 1e3,
        );
        rows.push(obj(vec![
            ("patterns", JsonValue::Int(count as i64)),
            ("shared_median_ms", JsonValue::Float(service_ns as f64 / 1e6)),
            ("shared_updates_per_sec", JsonValue::Float(service_tput)),
            ("independent_total_ms", JsonValue::Float(baseline_ns as f64 / 1e6)),
            ("independent_updates_per_sec", JsonValue::Float(baseline_tput)),
            ("speedup_vs_independent", JsonValue::Float(speedup)),
            ("read_p99_us", JsonValue::Float(read_p99 as f64 / 1e3)),
            ("interned_candidate_sets", JsonValue::Int(interned as i64)),
            ("pattern_nodes", JsonValue::Int(total_nodes as i64)),
            ("bytes_per_pattern", JsonValue::Int(bytes_per_pattern as i64)),
        ]));
    }

    obj(vec![
        (
            "workload",
            obj(vec![
                ("nodes", JsonValue::Int(4_000)),
                ("edges", JsonValue::Int(16_000)),
                ("batches", JsonValue::Int(BATCH_COUNT as i64)),
                ("updates_per_batch", JsonValue::Int(PER_BATCH as i64)),
                ("shards", JsonValue::Int(1)),
                ("seed", JsonValue::Int(seed as i64)),
            ]),
        ),
        ("runs", JsonValue::Array(rows)),
    ])
}

/// One splitmix64 step — deterministic arrival jitter without a rand
/// dependency (mirrors the generator crate's internal PRNG discipline).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Prices the asynchronous ingestion front-end ([`Ingest`]) under three
/// open-loop arrival patterns — `poisson` (exponential inter-arrivals,
/// 200 µs mean), `bursty` (back-to-back bursts separated by gaps) and
/// `saturated` (a producer submitting as fast as the blocking queue
/// admits). One producer thread stamps each submission at the queue door;
/// a collector waits the tickets in FIFO order, so `submit_to_resolve`
/// latency covers queueing + coalescing + the sink's apply. Every run is
/// asserted to converge to the synchronous control — identical match view,
/// identical edge set (coalescing permutes the *order* net-effect reduction
/// mutates adjacency lists in, so graphs are compared as sets) — before any
/// number is written. Ungated: arrival pacing measures the host's sleep
/// granularity and scheduler as much as this codebase.
fn ingest_sweep(graph: &DataGraph, pattern: &Pattern, seed: u64) -> JsonValue {
    const SUBMISSIONS: usize = 512;
    const OPS_PER_SUBMISSION: usize = 4;
    const POISSON_MEAN_US: f64 = 200.0;
    const BURST_LEN: usize = 32;
    const BURST_GAP_MS: u64 = 2;

    // A sequentially valid stream of small submissions: each generated
    // against (and applied to) the graph its predecessors left behind, so
    // every strict submission passes per-submission validation.
    let mut stream: Vec<BatchUpdate> = Vec::with_capacity(SUBMISSIONS);
    {
        let mut g = graph.clone();
        for i in 0..SUBMISSIONS {
            let batch =
                mixed_batch(&g, OPS_PER_SUBMISSION / 2, OPS_PER_SUBMISSION / 2, seed + i as u64);
            batch.apply(&mut g);
            stream.push(batch);
        }
    }
    let total_ops: usize = stream.iter().map(BatchUpdate::len).sum();

    // Synchronous control: the same submissions applied one at a time.
    let mut control: MatchService<SimulationIndex> = MatchService::with_shards(graph.clone(), 1);
    let control_id = control.register(pattern).expect("register control pattern");
    for batch in &stream {
        control.apply(batch).expect("stream is valid");
    }
    let expected = control.matches(control_id).expect("control readable");
    let mut expected_edges: Vec<_> = control.graph().edges().collect();
    expected_edges.sort_unstable();

    // Queue capacity deliberately small so the saturated pattern actually
    // exercises backpressure; the paced patterns never fill it.
    let opts = IngestOptions { queue_capacity: 256, ..IngestOptions::default() };

    let mut rows = Vec::new();
    for arrival in ["poisson", "bursty", "saturated"] {
        let mut service: MatchService<SimulationIndex> =
            MatchService::with_shards(graph.clone(), 1);
        let pattern_id = service.register(pattern).expect("register pattern");
        let ingest = Ingest::spawn(service, opts);
        let handle = ingest.handle();
        let producer_stream = stream.clone();
        let (tickets_tx, tickets_rx) = std::sync::mpsc::channel();
        let mut rng = seed ^ 0xA5A5_5A5A_A5A5_5A5A;

        let start = Instant::now();
        let producer = std::thread::spawn(move || {
            for (i, batch) in producer_stream.into_iter().enumerate() {
                match arrival {
                    "poisson" => {
                        // Inverse-transform sample of Exp(1/mean); `1 - u`
                        // keeps the argument of ln strictly positive.
                        let u = (splitmix(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                        let dt_us = -POISSON_MEAN_US * (1.0 - u).ln();
                        std::thread::sleep(Duration::from_nanos((dt_us * 1e3) as u64));
                    }
                    "bursty" if i > 0 && i % BURST_LEN == 0 => {
                        std::thread::sleep(Duration::from_millis(BURST_GAP_MS));
                    }
                    _ => {}
                }
                let submitted_at = Instant::now();
                let ticket = handle.submit(batch).expect("ingest accepts the stream");
                tickets_tx.send((submitted_at, ticket)).expect("collector alive");
            }
        });

        let mut latency_ns: Vec<u128> = Vec::with_capacity(SUBMISSIONS);
        for (submitted_at, ticket) in tickets_rx {
            let apply = ticket.wait().expect("strict stream commits");
            latency_ns.push(submitted_at.elapsed().as_nanos());
            std::hint::black_box(apply.seq);
        }
        producer.join().expect("producer thread");
        let wall_ns = start.elapsed().as_nanos();
        let stats = ingest.stats();
        let service = ingest.shutdown().expect("the sink survives a clean run");

        // Equivalence before any number is written.
        assert_eq!(latency_ns.len(), SUBMISSIONS, "every submission resolved ({arrival})");
        assert_eq!(stats.committed_ops, total_ops as u64, "every op committed ({arrival})");
        assert_eq!(stats.rejected_submissions, 0, "valid stream never rejected ({arrival})");
        assert_eq!(
            *service.matches(pattern_id).expect("ingested service readable"),
            *expected,
            "ingest ({arrival}) diverged from synchronous application"
        );
        let mut got_edges: Vec<_> = service.graph().edges().collect();
        got_edges.sort_unstable();
        assert_eq!(
            got_edges, expected_edges,
            "ingest ({arrival}) left a different edge set than synchronous application"
        );

        latency_ns.sort_unstable();
        let p50 = latency_ns[latency_ns.len() / 2];
        let p99 = latency_ns[(latency_ns.len() * 99) / 100 - 1];
        let tput = updates_per_sec(total_ops, wall_ns);
        let mean_coalesced = stats.committed_ops as f64 / stats.committed_batches.max(1) as f64;
        println!(
            "ingest {arrival}: {:.3} ms wall ({tput:.0}/s), submit→resolve p50 {:.1} µs / p99 \
             {:.1} µs, {} batches (mean {mean_coalesced:.1}, max {}), {} backpressure",
            wall_ns as f64 / 1e6,
            p50 as f64 / 1e3,
            p99 as f64 / 1e3,
            stats.committed_batches,
            stats.max_coalesced,
            stats.backpressure_events,
        );
        rows.push(obj(vec![
            ("arrival", JsonValue::Str(arrival.to_string())),
            ("wall_ms", JsonValue::Float(wall_ns as f64 / 1e6)),
            ("updates_per_sec", JsonValue::Float(tput)),
            ("submit_to_resolve_p50_us", JsonValue::Float(p50 as f64 / 1e3)),
            ("submit_to_resolve_p99_us", JsonValue::Float(p99 as f64 / 1e3)),
            ("committed_batches", JsonValue::Int(stats.committed_batches as i64)),
            ("mean_coalesced_ops", JsonValue::Float(mean_coalesced)),
            ("max_coalesced_ops", JsonValue::Int(stats.max_coalesced as i64)),
            ("backpressure_events", JsonValue::Int(stats.backpressure_events as i64)),
            ("final_adaptive_cap", JsonValue::Int(stats.current_cap as i64)),
        ]));
    }

    obj(vec![
        (
            "workload",
            obj(vec![
                ("submissions", JsonValue::Int(SUBMISSIONS as i64)),
                ("ops_per_submission", JsonValue::Int(OPS_PER_SUBMISSION as i64)),
                ("total_ops", JsonValue::Int(total_ops as i64)),
                ("queue_capacity", JsonValue::Int(opts.queue_capacity as i64)),
                ("min_batch", JsonValue::Int(opts.min_batch as i64)),
                ("max_batch", JsonValue::Int(opts.max_batch as i64)),
                ("burst_backlog", JsonValue::Int(opts.burst_backlog as i64)),
                ("poisson_mean_us", JsonValue::Float(POISSON_MEAN_US)),
                ("burst_len", JsonValue::Int(BURST_LEN as i64)),
                ("burst_gap_ms", JsonValue::Int(BURST_GAP_MS as i64)),
                ("seed", JsonValue::Int(seed as i64)),
            ]),
        ),
        ("runs", JsonValue::Array(rows)),
    ])
}

/// One gated metric of the perf-regression check: a lower-is-better median
/// read from `section.key` of both the fresh and the committed report.
const GATED_METRICS: [(&str, &str, &str); 2] = [
    ("batch", "counter_median_ms", "batch IncMatch, 1 shard"),
    ("build", "median_ms", "cold-start build, 1 shard"),
];

/// Compares the fresh report's 1-shard-pinned sections against a committed
/// artifact. Returns the failure messages (empty = gate passed).
///
/// A metric **fails** when `fresh > committed * (1 + tolerance)`. Metrics
/// missing from the *committed* file are skipped with a note (they appear
/// when a new section ships); metrics missing from the fresh report are a
/// bug and fail loudly.
fn regression_gate(fresh: &JsonValue, committed: &JsonValue, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (section, key, label) in GATED_METRICS {
        let fresh_value = fresh
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("fresh report lacks {section}.{key}"));
        let Some(committed_value) =
            committed.get(section).and_then(|s| s.get(key)).and_then(JsonValue::as_f64)
        else {
            println!("check {label}: {section}.{key} absent from committed artifact — skipped");
            continue;
        };
        let limit = committed_value * (1.0 + tolerance);
        let ratio = fresh_value / committed_value.max(f64::MIN_POSITIVE);
        if fresh_value > limit {
            failures.push(format!(
                "{label}: {fresh_value:.3} ms vs committed {committed_value:.3} ms \
                 ({ratio:.2}x, tolerance {:.0}%)",
                tolerance * 100.0
            ));
            println!(
                "check {label}: FAIL ({fresh_value:.3} ms vs {committed_value:.3} ms, {ratio:.2}x)"
            );
        } else {
            println!(
                "check {label}: ok ({fresh_value:.3} ms vs {committed_value:.3} ms, {ratio:.2}x)"
            );
        }
    }
    failures
}

fn main() {
    let config = parse_args();
    // Load the committed artifact *before* the (minutes-long) measurement so
    // a bad path fails fast.
    let committed = config.check_against.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|err| panic!("--check-against {path}: {err}"));
        JsonValue::parse(&text)
            .unwrap_or_else(|err| panic!("--check-against {path}: invalid JSON: {err}"))
    });
    println!(
        "# incsim_bench — |V|={}, |E|={}, {} labels, {} unit updates, batch {}",
        config.nodes, config.edges, config.labels, config.unit_updates, config.batch_size
    );

    let graph = synthetic_graph(&SyntheticConfig::new(
        config.nodes,
        config.edges,
        config.labels,
        config.seed,
    ));
    let pattern: Pattern = generate_pattern(
        &graph,
        &PatternGenConfig::normal(config.pattern_nodes, config.pattern_edges, 1, config.seed + 7)
            .with_shape(config.shape),
    );

    // --- Unit updates -----------------------------------------------------
    let maintenance = maintenance_stream(&graph, &pattern, config.unit_updates, config.seed + 11);
    let mixed = mixed_stream(&graph, config.unit_updates, config.seed + 17);
    let maintenance_cmp = compare_unit_stream("maintenance", &graph, &pattern, &maintenance);
    let mixed_cmp = compare_unit_stream("mixed", &graph, &pattern, &mixed);
    let maintenance_vs_batch = unit_vs_batch_of_one("maintenance", &graph, &pattern, &maintenance);
    let mixed_vs_batch = unit_vs_batch_of_one("mixed", &graph, &pattern, &mixed);

    // --- Batch application ------------------------------------------------
    let batch: BatchUpdate =
        mixed_batch(&graph, config.batch_size / 2, config.batch_size / 2, config.seed + 13);
    let batch_samples = 5;
    let mut counter_batch_ms = Vec::new();
    let mut legacy_batch_ms = Vec::new();
    let mut counter_batch_aff = 0usize;
    let mut legacy_batch_aff = 0usize;
    let mut updated = graph.clone();
    batch.apply(&mut updated);
    let expected = match_simulation(&pattern, &updated);
    for _ in 0..batch_samples {
        let mut g = graph.clone();
        let mut index = SimulationIndex::build(&pattern, &g);
        // One shard: keeps the trajectory comparable with the sequential
        // engine of earlier runs (shard scaling is measured separately below).
        let (ms, outcome) = time_batch(|| index.apply_batch_with_shards(&mut g, &batch, 1));
        counter_batch_ms.push((ms * 1e6) as u128);
        counter_batch_aff = outcome.stats.aff();
        assert_eq!(index.matches(), expected, "counter engine diverged on batch");

        let mut g = graph.clone();
        let mut legacy = LegacySimulationIndex::build(&pattern, &g);
        let (ms, stats) = time_batch(|| legacy.apply_batch(&mut g, &batch));
        legacy_batch_ms.push((ms * 1e6) as u128);
        legacy_batch_aff = stats.aff();
        assert_eq!(legacy.matches(), expected, "legacy engine diverged on batch");
    }
    let counter_batch_ns = median_ns(counter_batch_ms);
    let legacy_batch_ns = median_ns(legacy_batch_ms);
    let batch_speedup = legacy_batch_ns as f64 / counter_batch_ns.max(1) as f64;
    let counter_tput = config.batch_size as f64 / (counter_batch_ns as f64 / 1e9);
    let legacy_tput = config.batch_size as f64 / (legacy_batch_ns as f64 / 1e9);
    println!(
        "batch ({} updates): counter {:.3} ms ({:.0}/s), legacy {:.3} ms ({:.0}/s)  ⇒  {batch_speedup:.2}x",
        config.batch_size,
        counter_batch_ns as f64 / 1e6,
        counter_tput,
        legacy_batch_ns as f64 / 1e6,
        legacy_tput
    );

    // --- Shard scaling ----------------------------------------------------
    // One scaled-up workload shared by the batch and build sweeps.
    let (scaling_graph, scaling_pattern, scaling_batch) = batch_scaling_workload(
        config.scaling_nodes,
        config.scaling_edges,
        config.scaling_batch,
        config.seed + 0x5c,
    );
    let scaling =
        batch_scaling_sweep(&scaling_graph, &scaling_pattern, &scaling_batch, config.scaling_nodes);
    let mutation_scaling = mutation_scaling_sweep(&scaling_graph, &scaling_batch);
    let mutation_scaling_json = obj(vec![
        (
            "workload",
            obj(vec![
                ("nodes", JsonValue::Int(config.scaling_nodes as i64)),
                ("edges", JsonValue::Int(config.scaling_edges as i64)),
                ("batch_size", JsonValue::Int(config.scaling_batch as i64)),
                ("seed", JsonValue::Int((config.seed + 0x5c) as i64)),
            ]),
        ),
        ("host_parallelism", host_parallelism_json()),
        ("runs", scaling_runs_json(&mutation_scaling, "updates_per_sec")),
    ]);
    let scaling_json = obj(vec![
        (
            "workload",
            obj(vec![
                ("nodes", JsonValue::Int(config.scaling_nodes as i64)),
                ("edges", JsonValue::Int(config.scaling_edges as i64)),
                ("batch_size", JsonValue::Int(config.scaling_batch as i64)),
                ("seed", JsonValue::Int((config.seed + 0x5c) as i64)),
            ]),
        ),
        // Wall-clock scaling is bounded by the cores the measuring host
        // actually grants; record them so flat curves are attributable.
        ("host_parallelism", host_parallelism_json()),
        ("runs", scaling_runs_json(&scaling, "updates_per_sec")),
    ]);

    // --- Candidate scan + propCC scaling ----------------------------------
    // The two stages this change sharded, attributed separately — each run
    // table carries its *own* workload block, because they measure different
    // graphs: the scan runs on the random scaling workload, propCC on the
    // deterministic two-chain gadget.
    let scan_scaling = scan_scaling_sweep(&scaling_graph, &scaling_pattern);
    let prop_cc_scaling = prop_cc_scaling_sweep(config.scaling_nodes);
    let gadget_half = (config.scaling_nodes / 2).max(2);
    let scan_scaling_json = obj(vec![
        ("host_parallelism", host_parallelism_json()),
        (
            "candidate_scan",
            obj(vec![
                (
                    "workload",
                    obj(vec![
                        ("nodes", JsonValue::Int(config.scaling_nodes as i64)),
                        ("edges", JsonValue::Int(config.scaling_edges as i64)),
                        ("seed", JsonValue::Int((config.seed + 0x5c) as i64)),
                    ]),
                ),
                ("runs", scaling_runs_json(&scan_scaling, "nodes_per_sec")),
            ]),
        ),
        (
            "prop_cc",
            obj(vec![
                (
                    "workload",
                    obj(vec![
                        ("gadget", JsonValue::Str("two-chain unboundedness cycle".to_string())),
                        ("nodes", JsonValue::Int(2 * gadget_half as i64)),
                        ("edges", JsonValue::Int(2 * (gadget_half as i64 - 1))),
                        ("batch_size", JsonValue::Int(2)),
                    ]),
                ),
                ("runs", scaling_runs_json(&prop_cc_scaling, "candidates_per_sec")),
            ]),
        ),
    ]);

    // --- Cold-start build -------------------------------------------------
    let build_ns = sequential_build_timing(&graph, &pattern);
    println!(
        "build (|V|={}, |E|={}): {:.3} ms at 1 shard",
        config.nodes,
        config.edges,
        build_ns as f64 / 1e6
    );
    // --- Durability: WAL-append overhead per fsync policy ------------------
    let durability_json = durability_sweep(&graph, &pattern, config.seed + 0xd0);

    // --- Delta emission: tracked ΔM vs view diff, monotone fast path -------
    let delta_json = delta_sweep(&graph, &pattern, config.seed + 0xde);

    // --- Multi-pattern service: shared classification vs N independents ----
    let service_json = service_sweep(config.seed + 0x5e);

    // --- Async ingestion front-end: open-loop arrival patterns -------------
    let ingest_json = ingest_sweep(&graph, &pattern, config.seed + 0x16);

    let build_scaling = build_scaling_sweep(&scaling_graph, &scaling_pattern, &config);
    let build_scaling_json = obj(vec![
        (
            "workload",
            obj(vec![
                ("nodes", JsonValue::Int(config.scaling_nodes as i64)),
                ("edges", JsonValue::Int(config.scaling_edges as i64)),
                ("seed", JsonValue::Int((config.seed + 0x5c) as i64)),
            ]),
        ),
        ("host_parallelism", host_parallelism_json()),
        ("runs", scaling_runs_json(&build_scaling, "nodes_per_sec")),
    ]);

    // --- Report -----------------------------------------------------------
    let report = obj(vec![
        (
            "workload",
            obj(vec![
                ("nodes", JsonValue::Int(config.nodes as i64)),
                ("edges", JsonValue::Int(config.edges as i64)),
                ("labels", JsonValue::Int(config.labels as i64)),
                ("pattern_nodes", JsonValue::Int(pattern.node_count() as i64)),
                ("pattern_edges", JsonValue::Int(pattern.edge_count() as i64)),
                ("maintenance_updates", JsonValue::Int(maintenance.len() as i64)),
                ("mixed_updates", JsonValue::Int(mixed.len() as i64)),
                ("batch_size", JsonValue::Int(batch.len() as i64)),
                ("seed", JsonValue::Int(config.seed as i64)),
            ]),
        ),
        ("unit_update", unit_json(&maintenance_cmp)),
        ("unit_update_mixed", unit_json(&mixed_cmp)),
        (
            "unit_vs_batch_of_one",
            obj(vec![
                ("unit_update", unit_vs_batch_json(&maintenance_vs_batch)),
                ("unit_update_mixed", unit_vs_batch_json(&mixed_vs_batch)),
            ]),
        ),
        (
            "batch",
            obj(vec![
                ("counter_median_ms", JsonValue::Float(counter_batch_ns as f64 / 1e6)),
                ("legacy_median_ms", JsonValue::Float(legacy_batch_ns as f64 / 1e6)),
                ("speedup", JsonValue::Float(batch_speedup)),
                ("counter_updates_per_sec", JsonValue::Float(counter_tput)),
                ("legacy_updates_per_sec", JsonValue::Float(legacy_tput)),
                ("counter_aff", JsonValue::Int(counter_batch_aff as i64)),
                ("legacy_aff", JsonValue::Int(legacy_batch_aff as i64)),
            ]),
        ),
        // Sequential cold-start build, pinned to 1 shard so the trajectory
        // stays comparable across runs (mirrors the `batch` baseline policy).
        (
            "build",
            obj(vec![
                ("shards", JsonValue::Int(1)),
                ("median_ms", JsonValue::Float(build_ns as f64 / 1e6)),
                ("nodes", JsonValue::Int(config.nodes as i64)),
                ("edges", JsonValue::Int(config.edges as i64)),
            ]),
        ),
        ("batch_scaling", scaling_json),
        ("build_scaling", build_scaling_json),
        ("mutation_scaling", mutation_scaling_json),
        ("scan_scaling", scan_scaling_json),
        ("durability", durability_json),
        ("delta", delta_json),
        ("service", service_json),
        ("ingest", ingest_json),
    ]);
    std::fs::write(&config.out, report.to_string()).expect("write report");
    println!("wrote {}", config.out);

    // --- Perf-regression gate --------------------------------------------
    if let Some(committed) = committed {
        let failures = regression_gate(&report, &committed, config.check_tolerance);
        if !failures.is_empty() {
            eprintln!(
                "perf-regression gate FAILED against {}:",
                config.check_against.as_deref().unwrap_or_default()
            );
            for failure in &failures {
                eprintln!("  {failure}");
            }
            std::process::exit(1);
        }
        println!(
            "perf-regression gate passed against {}",
            config.check_against.as_deref().unwrap_or_default()
        );
    }
}

/// The measuring host's available parallelism — wall-clock scaling is only
/// meaningful where the host actually has cores to scale onto.
fn host_parallelism_json() -> JsonValue {
    JsonValue::Int(std::thread::available_parallelism().map(|n| n.get() as i64).unwrap_or(1))
}

/// Renders a shard sweep as JSON: per run the shard count, median wall time,
/// a throughput figure under `rate_key` and the speedup against 1 shard.
fn scaling_runs_json(runs: &[ScalingRun], rate_key: &str) -> JsonValue {
    let one_shard_tput = runs[0].throughput;
    JsonValue::Array(
        runs.iter()
            .map(|run| {
                obj(vec![
                    ("shards", JsonValue::Int(run.shards as i64)),
                    ("median_ms", JsonValue::Float(run.median_ns as f64 / 1e6)),
                    (rate_key, JsonValue::Float(run.throughput)),
                    (
                        "speedup_vs_1_shard",
                        JsonValue::Float(run.throughput / one_shard_tput.max(f64::MIN_POSITIVE)),
                    ),
                ])
            })
            .collect(),
    )
}

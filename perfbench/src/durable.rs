//! The `durable_stream` workload: 2-op submissions (one insertion, one
//! deletion) through a `DurableMatchService<SimulationIndex>` — validate,
//! WAL append, the service's shared stage and per-pattern pipelines, ring
//! publish — each seen on a `ServiceSubscription` before the next is sent.
//!
//! It is a closed loop. One iteration is a burst of [`BURST`] submissions,
//! each applied as its own durable batch and polled until its delta
//! arrives. Kernel slices run between bursts as in the other closed loops,
//! but this workload's numbers stay raw: its small, cache-resident batches
//! did not follow the memory-bound kernel (over five runs the kernel's
//! speed fell by a quarter while the bursts slowed by a tenth, and scaling
//! widened the spread of the median from 0.07 to 0.19). The open loop the workload was first
//! built as (2000 submissions/s through `Ingest`) was not steady enough to
//! gate on — see the benchmark's doc — so the `Ingest` hand-off is measured
//! in the traced run only, by a short open-loop phase over the same service.
//!
//! Set-up is the durable open: the prepared directory holds a checkpoint
//! and a WAL tail, both written before timing, and `setup_s` is the median
//! of several opens, each registering the patterns and replaying the tail.

use crate::calib::Calibrator;
use crate::gen::{self, GraphSpec, PatternSlot, Rng, Shape, Stream};
use crate::replay::{Replica, Totals};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, percentile, tail, MIN_ITERATIONS};
use crate::trace::{self, Tracer};
use crate::Ctx;
use igpm_core::{
    match_simulation, ApplyOutcome, DurableError, DurableMatchService, DurableOptions, Ingest,
    IngestOptions, IngestSink, PatternId, ServiceApply, ServiceDeltaEvent, ServiceSubscription,
    SimulationIndex,
};
use igpm_graph::wal::{write_checkpoint, FsyncPolicy, Wal};
use igpm_graph::{
    BatchUpdate, CompareOp, DataGraph, LabelIndex, MatchDelta, MatchRelation, Pattern,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Submissions per closed-loop iteration. A burst sums enough submissions
/// that its time is not set by whether one costly propCC fell into it:
/// with 256 the tail's spread (IQR ÷ median) across ten seeds was 0.19,
/// with 1024 it was 0.09 across five.
const BURST: usize = 1024;
/// In the traced half of a traced run, one burst in this many is traced
/// (its submissions' spans and their replay), which keeps the trace to
/// tens of megabytes; the others are the untraced baseline of
/// `trace.overhead_ratio`.
const TRACE_EVERY: usize = 8;
/// Batches in the prepared WAL tail, and ops per tail batch.
const TAIL_BATCHES: usize = 600;
const TAIL_OPS: usize = 100;
/// Opens per run; `setup_s` is the median.
const OPEN_REPS: usize = 5;
/// Offered load of the traced run's open-loop `Ingest` phase, in
/// submissions per second, and its share of `--seconds`.
const INGEST_RATE: u32 = 2_000;
const INGEST_SHARE: f64 = 0.25;

type Service = DurableMatchService<SimulationIndex>;

/// Everything generated from the seed.
struct Inputs {
    graph: DataGraph,
    patterns: Vec<Pattern>,
    pattern_spans: Vec<&'static str>,
    /// The submission stream, positioned after the WAL tail.
    stream: Stream,
    rng: Rng,
}

fn inputs(ctx: &Ctx, state_dir: &Path) -> Result<Inputs, String> {
    let spec = GraphSpec { nodes: 20_000, edges: 100_000, labels: 6, bias: 0.3 };
    let (graph, mut stream) = gen::graph(spec, &mut Rng::stream(ctx.seed, 0x11_01));
    let mut rng = Rng::stream(ctx.seed, 0x11_00);
    let slots: Vec<PatternSlot> = (0..8)
        .map(|i| {
            let nodes = [2, 3, 4, 3][i % 4];
            if i < 4 {
                PatternSlot { shape: Shape::Cyclic, nodes, op: CompareOp::Lt, cut: 300 }
            } else {
                PatternSlot { shape: Shape::Dag, nodes, op: CompareOp::Lt, cut: 500 }
            }
        })
        .collect();
    let patterns =
        slots.iter().map(|&slot| gen::sim_pattern(&mut rng, spec.labels, slot)).collect();
    let pattern_spans = slots
        .iter()
        .map(|s| match s.shape {
            Shape::Cyclic => "sim.apply_shared.cyclic",
            Shape::Dag => "sim.apply_shared.dag",
        })
        .collect();

    // The prepared directory: a checkpoint of the graph and the WAL tail.
    std::fs::create_dir_all(state_dir).map_err(|e| format!("{}: {e}", state_dir.display()))?;
    write_checkpoint(state_dir, 0, &graph).map_err(|e| format!("checkpoint: {e}"))?;
    let (mut wal, _) = Wal::open(state_dir, FsyncPolicy::Never).map_err(|e| e.to_string())?;
    for seq in 1..=TAIL_BATCHES as u64 {
        let batch = stream.mixed(&mut rng, TAIL_OPS);
        wal.append(seq, &batch).map_err(|e| format!("WAL tail: {e}"))?;
    }
    Ok(Inputs { graph, patterns, pattern_spans, stream, rng })
}

fn options() -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
        keep_checkpoints: 2,
        shards: 1,
        ..DurableOptions::default()
    }
}

fn views(svc: &Service, ids: &[PatternId]) -> Result<Vec<MatchRelation>, String> {
    ids.iter()
        .map(|&id| svc.try_matches(id).map(|v| (*v).clone()).map_err(|e| format!("read: {e}")))
        .collect()
}

/// A 64-bit fingerprint of a batch's per-pattern outcomes: every statistic
/// and every delta pair, in pattern order. The replay compares these, so a
/// traced run need not keep hundreds of thousands of outcomes.
fn fingerprint<'a>(outcomes: impl Iterator<Item = Option<&'a ApplyOutcome>>) -> u64 {
    let mut h = DefaultHasher::new();
    for outcome in outcomes {
        let Some(o) = outcome else {
            h.write_u8(0);
            continue;
        };
        let s = &o.stats;
        for x in [
            s.delta_g,
            s.reduced_delta_g,
            s.matches_added,
            s.matches_removed,
            s.aux_changes,
            s.nodes_visited,
            s.counter_updates,
        ] {
            h.write_usize(x);
        }
        for pairs in [&o.delta.inserted, &o.delta.removed] {
            h.write_usize(pairs.len());
            for (u, v) in pairs {
                h.write_u32(u.0);
                h.write_u32(v.0);
            }
        }
    }
    h.finish()
}

fn service_fingerprint(apply: &ServiceApply) -> u64 {
    fingerprint(apply.outcomes.values().map(|o| o.as_ref().ok()))
}

/// Drains the subscription, keeping every delta; returns how many `Lagged`
/// events it met.
fn drain(
    sub: &mut ServiceSubscription,
    events: &mut Vec<(u64, PatternId, Arc<MatchDelta>)>,
) -> u64 {
    let mut lagged = 0;
    while let Some(event) = sub.poll() {
        match event {
            ServiceDeltaEvent::Delta { pattern_id, seq, delta } => {
                events.push((seq, pattern_id, delta))
            }
            ServiceDeltaEvent::Lagged { .. } => lagged += 1,
        }
    }
    lagged
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let dir = ctx.out_dir.join(format!("durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(ctx, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(ctx: &Ctx, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let state_dir = dir.join("state");
    let Inputs { graph, patterns, pattern_spans, mut stream, mut rng } = inputs(ctx, &state_dir)?;
    let mut calibrator = Calibrator::new();

    // Set-up: the durable open, several times.
    let mut open_s = Vec::new();
    let mut opened: Option<(Service, Vec<PatternId>)> = None;
    for _ in 0..OPEN_REPS {
        drop(opened.take());
        let start = Instant::now();
        let svc = DurableMatchService::open(&state_dir, &patterns, &graph, options())
            .map_err(|e| format!("open: {e}"))?;
        open_s.push(start.elapsed().as_secs_f64());
        opened = Some(svc);
    }
    let (mut svc, ids) = opened.expect("at least one open");
    let base_seq = svc.sequence();
    let mut folded = views(&svc, &ids)?;
    let slot: HashMap<PatternId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let replica_graph = ctx.trace.then(|| svc.service().graph().clone());
    let replay_stream = ctx.trace.then(|| (stream.clone(), rng.clone()));
    let mut sub = svc.subscribe();

    // Timed phase: bursts of durable applies, each seen on the subscription
    // before the next. A traced run traces every TRACE_EVERY-th burst of its
    // second half.
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, false);
    let budget = Duration::from_secs(ctx.seconds as u64);
    let mut burst_ms = [Vec::new(), Vec::new()];
    let mut ops = 0usize;
    let mut traced_seqs: Vec<(u64, u64)> = Vec::new();
    let mut fingerprints: Vec<u64> = Vec::new();
    let mut events = Vec::new();
    let mut applied = Vec::with_capacity(BURST);
    for iteration in 0.. {
        let elapsed = origin.elapsed();
        if elapsed >= budget && iteration >= MIN_ITERATIONS {
            break;
        }
        calibrator.run_due(elapsed);
        let traced = ctx.trace && elapsed >= budget / 2 && iteration % TRACE_EVERY == 0;
        tracer.set_on(traced);
        if traced {
            traced_seqs.push((svc.sequence() + 1, svc.sequence() + BURST as u64));
        }
        let burst: Vec<BatchUpdate> = (0..BURST).map(|_| stream.submission(&mut rng)).collect();
        let span = tracer.begin("iteration", iteration as u64);
        let start = Instant::now();
        for submission in &burst {
            let seq = svc.sequence() + 1;
            let apply_span = tracer.begin("durable.apply", seq);
            let result = svc.apply(submission);
            tracer.end(apply_span);
            let poll_span = tracer.begin("durable.poll", seq);
            report.failed += drain(&mut sub, &mut events);
            tracer.end(poll_span);
            match result {
                Ok(apply) => applied.push(apply),
                Err(_) => report.failed += 1,
            }
        }
        let took_ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        burst_ms[usize::from(traced)].push(took_ms);
        ops += burst.iter().map(BatchUpdate::len).sum::<usize>();
        report.attempted += BURST as u64;
        // Outside the sample: fold the deltas, check and fingerprint the
        // outcomes.
        for (_, id, delta) in events.drain(..) {
            delta.apply_to(&mut folded[slot[&id]]);
        }
        for apply in applied.drain(..) {
            report.failed += apply.outcomes.values().filter(|o| o.is_err()).count() as u64;
            if ctx.trace {
                fingerprints.push(service_fingerprint(&apply));
            }
        }
    }
    tracer.set_on(ctx.trace);
    let peak_rss = peak_rss_mb();

    let all_ms: Vec<f64> = burst_ms.concat();
    let busy_s = all_ms.iter().sum::<f64>() / 1e3;
    let p50 = median(&all_ms).ok_or("no iteration ran")?;
    let (tail_ms, tail_p) = tail(&all_ms).ok_or("too few iterations for a tail")?;
    report.e2e("setup_s", median(&open_s).expect("opened"));
    report.e2e("updates_per_s", ops as f64 / busy_s);
    report.e2e("latency_p50_ms", p50);
    report.e2e("latency_tail_ms", tail_ms);
    report.e2e("peak_rss_mb", peak_rss);
    report.note(format!(
        "host kernel {:.2} Medge/s (not applied here), kernel busy {:.1}% of the run",
        calibrator.medges_per_s().unwrap_or(0.0),
        100.0 * calibrator.busy().as_secs_f64() / origin.elapsed().as_secs_f64()
    ));
    report.note(format!(
        "durable_stream: setup_s: median of {OPEN_REPS} opens ({TAIL_BATCHES} tail batches); \
         latency: {} bursts of {BURST} submissions, tail = p{tail_p:.2}; all raw",
        all_ms.len()
    ));

    // The traced run's open-loop phase through `Ingest`.
    let mut ingest_batches: Vec<(u64, BatchUpdate, u64)> = Vec::new();
    if ctx.trace {
        let phase =
            ingest_phase(ctx, svc, &mut sub, &mut stream, &mut rng, &mut tracer, &mut report)?;
        svc = phase.svc;
        for (_, id, delta) in &phase.events {
            delta.apply_to(&mut folded[slot[id]]);
        }
        ingest_batches = phase.batches;
    }

    // Output checks: from-scratch matches, the folded delta stream, and a
    // reopen of the directory after a checkpoint.
    let final_views = views(&svc, &ids)?;
    for ((pattern, view), id) in patterns.iter().zip(&final_views).zip(&ids) {
        if *view != match_simulation(pattern, svc.service().graph()) {
            return Err(format!("{id} differs from a from-scratch match"));
        }
    }
    if folded != final_views {
        return Err("folding the subscribed deltas does not reproduce the final views".into());
    }
    let checkpoint_start = Instant::now();
    svc.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = checkpoint_start.elapsed().as_secs_f64() * 1e3;
    let interned = svc.service().interned_candidate_sets();
    drop(svc);
    let (reopened, reopened_ids) =
        DurableMatchService::<SimulationIndex>::open(&state_dir, &patterns, &graph, options())
            .map_err(|e| format!("reopen: {e}"))?;
    if views(&reopened, &reopened_ids)? != final_views {
        return Err("reopening the directory serves different views".into());
    }

    if ctx.trace {
        report.layer("durable.checkpoint_ms", checkpoint_ms);
        report.layer("durable.open_s", median(&open_s).expect("opened"));
        report.layer("service.interned_sets", interned as f64);
        report.layer_opt("host.calib_medges_per_s", calibrator.medges_per_s());
        if let (Some(traced), Some(untraced)) = (median(&burst_ms[1]), median(&burst_ms[0])) {
            report.layer("trace.overhead_ratio", traced / untraced);
        }
        let label_start = Instant::now();
        std::hint::black_box(LabelIndex::build_with_shards(&graph, 1));
        report.layer("label_index.build_ms", label_start.elapsed().as_secs_f64() * 1e3);
        if traced_seqs.is_empty() {
            return Err("no burst was traced".into());
        }
        let (stream, rng) = replay_stream.expect("traced runs keep the stream's start");
        let replay = ReplayInput {
            graph: replica_graph.expect("traced runs keep a replica graph"),
            patterns: &patterns,
            pattern_spans,
            stream,
            rng,
            base_seq,
            traced_seqs: &traced_seqs,
            fingerprints: &fingerprints,
            ingest_batches: &ingest_batches,
        };
        replay_durable(ctx, dir, replay, tracer, &mut report)?;
    }
    Ok(report)
}

/// What the traced run's `Ingest` phase hands back.
struct IngestPhase {
    svc: Service,
    events: Vec<(u64, PatternId, Arc<MatchDelta>)>,
    /// The coalesced batches the sink saw: sequence number, batch and the
    /// fingerprint of the service's outcomes.
    batches: Vec<(u64, BatchUpdate, u64)>,
}

/// One call of the wrapped sink, as the drainer made it.
struct SinkCall {
    start: Instant,
    end: Instant,
    seq: u64,
}

/// The durable service behind `Ingest`, with every sink call timed.
struct TimedSink {
    inner: Service,
    calls: Vec<SinkCall>,
}

impl IngestSink for TimedSink {
    type Outcome = ServiceApply;
    type Error = DurableError;

    fn apply_batch(&mut self, batch: &BatchUpdate) -> Result<ServiceApply, DurableError> {
        let start = Instant::now();
        let applied = self.inner.apply(batch);
        let end = Instant::now();
        self.calls.push(SinkCall { start, end, seq: self.inner.sequence() });
        applied
    }

    fn sink_graph(&self) -> &DataGraph {
        self.inner.service().graph()
    }

    fn committed_seq(&self) -> u64 {
        self.inner.sequence()
    }
}

/// An open loop of 2-op submissions at [`INGEST_RATE`] through `Ingest`
/// over the durable service, for [`INGEST_SHARE`] of `--seconds`: the
/// generator spins to each due time, submits, and polls the subscription
/// between sends. Records the `Ingest` layers: submit time, queue wait,
/// coalescing, backpressure, generator lateness and how long a committed
/// delta takes to be seen.
#[allow(clippy::too_many_arguments)]
fn ingest_phase(
    ctx: &Ctx,
    svc: Service,
    sub: &mut ServiceSubscription,
    stream: &mut Stream,
    rng: &mut Rng,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<IngestPhase, String> {
    let total = ((INGEST_RATE as f64 * ctx.seconds as f64 * INGEST_SHARE) as usize).max(100);
    let submissions: Vec<BatchUpdate> = (0..total).map(|_| stream.submission(rng)).collect();
    let ingest =
        Ingest::spawn(TimedSink { inner: svc, calls: Vec::new() }, IngestOptions::default());
    let handle = ingest.handle();
    let placement = pin_threads();
    let period = Duration::from_secs(1) / INGEST_RATE;
    let start = Instant::now() + Duration::from_millis(20);
    let mut events = Vec::new();
    let mut seen: HashMap<u64, Instant> = HashMap::new();
    let mut sent = Vec::with_capacity(total);
    let mut tickets = Vec::with_capacity(total);
    let mut poll = |events: &mut Vec<(u64, PatternId, Arc<MatchDelta>)>| -> u64 {
        let before = events.len();
        let lagged = drain(sub, events);
        let now = Instant::now();
        for (seq, _, _) in &events[before..] {
            seen.entry(*seq).or_insert(now);
        }
        lagged
    };
    for (i, submission) in submissions.iter().enumerate() {
        let due = start + period * i as u32;
        while Instant::now() < due {
            report.failed += poll(&mut events);
            std::hint::spin_loop();
        }
        let submit_start = Instant::now();
        let ticket = handle.submit(submission.clone());
        let submit_end = Instant::now();
        tracer.record("ingest.submit", i as u64, submit_start, submit_end);
        report.attempted += 1;
        if ticket.is_err() {
            report.failed += 1;
        }
        tickets.push(ticket.ok());
        sent.push((due, submit_start, submit_end));
    }
    let total_ops = submissions.iter().map(BatchUpdate::len).sum::<usize>() as u64;
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        let committed = handle.stats().committed_ops;
        report.failed += poll(&mut events);
        if committed >= total_ops || Instant::now() > give_up {
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    let stats = handle.stats();
    let sink = ingest.shutdown().ok_or("the ingest drainer died")?;

    // Group the submissions by the batch that carried them.
    let mut batches: Vec<(u64, BatchUpdate, u64)> = Vec::new();
    let mut queue_wait_us = Vec::new();
    let call_of: HashMap<u64, &SinkCall> = sink.calls.iter().map(|c| (c.seq, c)).collect();
    for (i, (ticket, submission)) in tickets.into_iter().zip(&submissions).enumerate() {
        let Some(Ok(applied)) = ticket.map(|t| t.wait()) else {
            report.failed += 1;
            continue;
        };
        let outcome = applied.outcome.ok_or("a submission reached no sink batch")?;
        if batches.last().map(|b| b.0) != Some(applied.seq) {
            batches.push((applied.seq, BatchUpdate::new(), service_fingerprint(&outcome)));
        }
        let batch = &mut batches.last_mut().expect("just pushed").1;
        for &update in submission.iter() {
            batch.push(update);
        }
        if let Some(call) = call_of.get(&applied.seq) {
            let wait = call.start.saturating_duration_since(sent[i].2);
            queue_wait_us.push(wait.as_secs_f64() * 1e6);
            tracer.record("ingest.queue_wait", i as u64, sent[i].2, call.start);
        }
    }
    let lag_us: Vec<f64> = sent.iter().map(|s| (s.1 - s.0).as_secs_f64() * 1e6).collect();
    let visible_us: Vec<f64> = sink
        .calls
        .iter()
        .filter_map(|c| {
            Some(seen.get(&c.seq)?.saturating_duration_since(c.end).as_secs_f64() * 1e6)
        })
        .collect();
    report.layer_opt("gen.lag_p99_us", percentile(&lag_us, 99.0));
    report.layer_opt("ingest.submit_us_p50", {
        let submit: Vec<f64> = sent.iter().map(|s| (s.2 - s.1).as_secs_f64() * 1e6).collect();
        median(&submit)
    });
    report.layer_opt("ingest.queue_wait_us_p50", median(&queue_wait_us));
    report.layer_opt("ingest.queue_wait_us_tail", tail(&queue_wait_us).map(|(v, _)| v));
    report.layer(
        "ingest.coalesced_ops_mean",
        stats.committed_ops as f64 / stats.committed_batches.max(1) as f64,
    );
    report.layer("ingest.backpressure_events", stats.backpressure_events as f64);
    report.layer_opt("durable.visible_lag_us_p50", median(&visible_us));
    report.note(format!(
        "ingest phase: {total} submissions at {INGEST_RATE}/s in {} batches; {placement}",
        batches.len()
    ));
    Ok(IngestPhase { svc: sink.inner, events, batches })
}

/// Puts the generator (this thread) and the ingest drainer on two
/// different CPUs. Left to itself, the scheduler ran the drainer on the
/// generator's CPU in some runs and on the other CPU in others, and the
/// hand-off times moved by 2× with the placement. Uses `taskset` on the
/// thread ids; without it, or with fewer than two CPUs, the threads stay
/// where the scheduler puts them and the note says so.
fn pin_threads() -> String {
    let cpus = allowed_cpus();
    // The drainer names itself once it runs; wait for it.
    let drainer = (0..1000).find_map(|_| {
        let found = std::fs::read_dir("/proc/self/task").ok()?.flatten().find_map(|task| {
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            (comm.trim() == "igpm-ingest").then(|| task.file_name().to_string_lossy().into_owned())
        });
        if found.is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        found
    });
    let (Some(drainer), [generator_cpu, drainer_cpu, ..]) = (drainer, cpus.as_slice()) else {
        return "threads unpinned (needs two CPUs and the drainer thread)".into();
    };
    let pin = |tid: &str, cpu: usize| {
        std::process::Command::new("taskset")
            .args(["-p", "-c", &cpu.to_string(), tid])
            .output()
            .is_ok_and(|out| out.status.success())
    };
    if pin(&std::process::id().to_string(), *generator_cpu) && pin(&drainer, *drainer_cpu) {
        format!("generator on CPU {generator_cpu}, drainer on CPU {drainer_cpu}")
    } else {
        "threads unpinned (taskset failed)".into()
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")) else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(lo)), Some(Ok(hi))) => cpus.extend(lo..=hi),
            (Some(Ok(cpu)), None) => cpus.push(cpu),
            _ => {}
        }
    }
    cpus
}

/// What the replay of a traced run needs.
struct ReplayInput<'a> {
    /// The graph right after the open.
    graph: DataGraph,
    patterns: &'a [Pattern],
    pattern_spans: Vec<&'static str>,
    /// The submission stream as it stood before the timed phase: it
    /// regenerates the closed loop's submissions, one batch each.
    stream: Stream,
    rng: Rng,
    base_seq: u64,
    /// The sequence numbers of the traced bursts, first and last of each.
    traced_seqs: &'a [(u64, u64)],
    /// Outcome fingerprints of the closed loop's batches, in order.
    fingerprints: &'a [u64],
    ingest_batches: &'a [(u64, BatchUpdate, u64)],
}

/// Replays every committed batch (the closed loop's, then the `Ingest`
/// phase's) through the WAL and service stages, asserts every outcome
/// matches the service's, and turns the spans of the traced bursts into the
/// durable path's per-layer metrics.
fn replay_durable(
    ctx: &Ctx,
    dir: &Path,
    input: ReplayInput<'_>,
    mut tracer: Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let ReplayInput { graph, patterns, pattern_spans, mut stream, mut rng, .. } = input;
    let mut replica =
        Replica::<SimulationIndex>::build(graph, patterns, pattern_spans, "graph.mutate", 1)?
            .with_wal(&dir.join("replay-wal"), FsyncPolicy::Never)?;
    let mut totals = Totals::default();
    let mut check = |seq: u64, batch: &BatchUpdate, expected: u64, tracer: &mut Tracer| {
        let traced = input.traced_seqs.iter().any(|&(first, last)| (first..=last).contains(&seq));
        tracer.set_on(traced);
        let replayed = replica.replay(batch, seq, tracer)?;
        if fingerprint(replayed.outcomes.iter().map(Some)) != expected {
            return Err(format!("replayed outcome of batch {seq} differs from the service's"));
        }
        if traced {
            totals.add(batch, &replayed);
        }
        Ok::<(), String>(())
    };
    for (k, &expected) in input.fingerprints.iter().enumerate() {
        let batch = stream.submission(&mut rng);
        check(input.base_seq + 1 + k as u64, &batch, expected, &mut tracer)?;
    }
    for (seq, batch, expected) in input.ingest_batches {
        check(*seq, batch, *expected, &mut tracer)?;
    }
    let spans = tracer.take();
    let by_name = trace::self_us_by_name(&spans);
    let p50 = |name: &str| by_name.get(name).and_then(|v| median(v));

    // durable.unattributed: the real apply minus the replayed validate, WAL
    // and service stages of the same batch.
    let mut stage_us: HashMap<u64, f64> = HashMap::new();
    for span in &spans {
        if matches!(
            span.name,
            "update.validate"
                | "wal.append"
                | "update.reduce"
                | "graph.mutate"
                | "sim.apply_shared.cyclic"
                | "sim.apply_shared.dag"
        ) {
            *stage_us.entry(span.req).or_default() += (span.end - span.start) as f64 / 1e3;
        }
    }
    let apply_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "durable.apply")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    let unattributed_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "durable.apply")
        .filter_map(|s| Some((s.end - s.start) as f64 / 1e3 - stage_us.get(&s.req)?))
        .collect();
    report.layer_opt("durable.apply_us_p50", median(&apply_us));
    report.layer_opt("durable.apply_us_tail", tail(&apply_us).map(|(v, _)| v));
    report.layer_opt("durable.unattributed_us_p50", median(&unattributed_us));
    report.layer_opt("durable.poll_us_p50", p50("durable.poll"));
    totals.report(report, &spans, false);
    let path = ctx.out_dir.join(format!("trace-{}.tsv", ctx.workload));
    trace::write(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))
}

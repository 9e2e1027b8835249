//! The closed-loop workloads: one caller applies a batch to a
//! `MatchService`, reads every pattern's view back, and only then sends the
//! next batch.
//!
//! * `pattern_fanout` — 256 simulation patterns (half cyclic) over a 20k /
//!   80k graph, 100-op batches.
//! * `bounded_stream` — 2 Fig. 19 b-patterns over a ~1.7k / 10k graph,
//!   10–20-op batches.
//!
//! Both services run on [`SHARDS`] shards.
//!
//! Kernel slices ([`crate::calib`]) run between iterations, outside the
//! timed samples; `updates_per_s` and `latency_*` are reported at the
//! reference host speed.

use crate::calib::{self, Calibrator};
use crate::gen::{self, GraphSpec, PatternSlot, Rng, Shape};
use crate::replay::{Replica, Totals};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, tail, MIN_ITERATIONS};
use crate::trace::{self, Tracer};
use crate::Ctx;
use igpm_core::{
    match_bounded_with_matrix, match_simulation, BoundedIndex, IncrementalEngine, MatchService,
    ServiceApply, SimulationIndex,
};
use igpm_distance::{LandmarkIndex, LandmarkSelection};
use igpm_graph::{BatchUpdate, CompareOp, DataGraph, LabelIndex, MatchRelation, Pattern};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How often set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Shards of both services. One: the calibration kernel runs on one thread,
/// and on a contended 2-vCPU host it could not follow a 2-shard service —
/// over ten seeds `pattern_fanout`'s raw median ranged 385–943 ms while the
/// kernel moved only 91–117 Medge/s, and the scaled spread reached 0.30.
const SHARDS: usize = 1;

/// Batches pre-generated per second of run time: comfortably above the
/// fastest iteration rate either workload reaches.
const BATCHES_PER_SECOND: usize = 60;

/// Batches of the traced phase whose from-scratch `Matchbs` is timed for
/// `bsim.vs_matchbs`.
const MATCHBS_SAMPLES: usize = 6;

fn batch_count(ctx: &Ctx) -> usize {
    (BATCHES_PER_SECOND * ctx.seconds).max(MIN_ITERATIONS + 1)
}

/// One closed-loop workload, fully generated.
struct Workload {
    graph: DataGraph,
    patterns: Vec<Pattern>,
    pattern_spans: Vec<&'static str>,
    batches: Vec<BatchUpdate>,
}

pub fn pattern_fanout(ctx: &Ctx) -> Result<Report, String> {
    let mut rng = Rng::stream(ctx.seed, 0xfa_00);
    let spec = GraphSpec { nodes: 20_000, edges: 80_000, labels: 4, bias: 0.3 };
    let (graph, mut stream) = gen::graph(spec, &mut rng);
    let mut patterns = Vec::new();
    let mut pattern_spans = Vec::new();
    for i in 0..256 {
        // Every shape, size and predicate in equal measure; labels random.
        let (shape, span) = if i % 2 == 0 {
            (Shape::Cyclic, "sim.apply_shared.cyclic")
        } else {
            (Shape::Dag, "sim.apply_shared.dag")
        };
        let op = if (i / 6) % 2 == 0 { CompareOp::Ge } else { CompareOp::Lt };
        let slot =
            PatternSlot { shape, nodes: 2 + (i / 2) % 3, op, cut: [300, 500, 700][(i / 12) % 3] };
        patterns.push(gen::sim_pattern(&mut rng, spec.labels, slot));
        pattern_spans.push(span);
    }
    let batches = (0..batch_count(ctx)).map(|_| stream.mixed(&mut rng, 100)).collect();
    let workload = Workload { graph, patterns, pattern_spans, batches };
    run::<SimulationIndex>(ctx, &workload, "graph.mutate", match_simulation)
}

pub fn bounded_stream(ctx: &Ctx) -> Result<Report, String> {
    let mut rng = Rng::stream(ctx.seed, 0xb0_00);
    let spec = GraphSpec { nodes: 1_700, edges: 10_000, labels: 8, bias: 0.7 };
    let (graph, mut stream) = gen::graph(spec, &mut rng);
    let patterns: Vec<Pattern> =
        (0..2).map(|_| gen::bounded_pattern(&mut rng, &graph, spec.labels)).collect();
    let pattern_spans = vec!["bsim.apply_shared"; patterns.len()];
    let batches = (0..batch_count(ctx))
        .map(|_| {
            let ops = 10 + rng.below(11);
            stream.mixed(&mut rng, ops)
        })
        .collect();
    let workload = Workload { graph, patterns, pattern_spans, batches };
    let mut report =
        run::<BoundedIndex>(ctx, &workload, "landmark.inc", match_bounded_with_matrix)?;
    if ctx.trace {
        let start = Instant::now();
        let landmarks = LandmarkIndex::build_with_shards(
            &workload.graph,
            LandmarkSelection::VertexCover,
            SHARDS,
        );
        report.layer("landmark.build_s", start.elapsed().as_secs_f64());
        report.layer("landmark.bytes", landmarks.memory_bytes() as f64);
    }
    Ok(report)
}

/// Runs one closed-loop workload: set-up, the timed phase, the output
/// checks and, when traced, the layer replay.
fn run<E: IncrementalEngine>(
    ctx: &Ctx,
    workload: &Workload,
    mutate_span: &'static str,
    from_scratch: fn(&Pattern, &DataGraph) -> MatchRelation,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut calibrator = Calibrator::new();

    // Set-up: build the service and register every pattern, several times.
    let mut setup_s = Vec::new();
    let mut register_ms = Vec::new();
    let mut service: Option<(MatchService<E>, Vec<_>)> = None;
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let graph = workload.graph.clone();
        let start = Instant::now();
        let mut svc: MatchService<E> = MatchService::with_shards(graph, SHARDS);
        let mut ids = Vec::with_capacity(workload.patterns.len());
        for pattern in &workload.patterns {
            let t = Instant::now();
            ids.push(svc.register(pattern).map_err(|e| format!("register: {e}"))?);
            register_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        service = Some((svc, ids));
    }
    let (mut svc, ids) = service.expect("at least one set-up repetition");

    // Timed phase. A traced run measures its first half untraced and its
    // second half traced; the ratio of the two is the tracing overhead.
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, false);
    let budget = Duration::from_secs(ctx.seconds as u64);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut ops = 0usize;
    let mut traced_from: Option<usize> = None;
    let mut committed: Vec<ServiceApply> = Vec::new();
    for (i, batch) in workload.batches.iter().enumerate() {
        let elapsed = origin.elapsed();
        if elapsed >= budget && i >= MIN_ITERATIONS {
            break;
        }
        calibrator.run_due(elapsed);
        if ctx.trace && traced_from.is_none() && elapsed >= budget / 2 {
            traced_from = Some(i);
            tracer.set_on(true);
        }
        let req = i as u64;
        let iteration = tracer.begin("iteration", req);
        let start = Instant::now();
        let span = tracer.begin("service.apply", req);
        let applied = svc.apply(batch);
        tracer.end(span);
        for &id in &ids {
            let span = tracer.begin("service.read", req);
            let view = svc.matches(id);
            tracer.end(span);
            if std::hint::black_box(view).is_err() {
                report.failed += 1;
            }
        }
        let took_ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.end(iteration);
        report.attempted += 1;
        ops += batch.len();
        match applied {
            Ok(apply) => {
                report.failed += apply.outcomes.values().filter(|o| o.is_err()).count() as u64;
                if ctx.trace {
                    committed.push(apply);
                }
            }
            Err(_) => report.failed += 1,
        }
        if tracer.is_on() {
            traced_ms.push(took_ms);
        } else {
            untraced_ms.push(took_ms);
        }
    }
    if report.attempted as usize == workload.batches.len() {
        return Err("ran out of pre-generated batches before the time budget".into());
    }
    let peak_rss = peak_rss_mb();

    // Output checks: every view equals a from-scratch match on the final
    // graph.
    for (pattern, &id) in workload.patterns.iter().zip(&ids) {
        let view = svc.matches(id).map_err(|e| format!("final read: {e}"))?;
        if *view != from_scratch(pattern, svc.graph()) {
            return Err(format!("{id} differs from a from-scratch match"));
        }
    }

    let f = calib::factor(calibrator.medges_per_s().ok_or("no kernel slice ran")?);
    report.note(format!(
        "host kernel {:.2} Medge/s, factor f = {f:.4}, kernel busy {:.1}% of the run",
        calibrator.medges_per_s().unwrap_or(0.0),
        100.0 * calibrator.busy().as_secs_f64() / origin.elapsed().as_secs_f64()
    ));
    let all_ms: Vec<f64> = untraced_ms.iter().chain(&traced_ms).copied().collect();
    let busy_s = all_ms.iter().sum::<f64>() / 1e3;
    let p50 = median(&all_ms).ok_or("no iteration ran")?;
    let (tail_ms, tail_p) = tail(&all_ms).ok_or("too few iterations for a tail")?;
    report.e2e("setup_s", median(&setup_s).expect("set-up ran"));
    report.e2e("updates_per_s", calib::scale_rate(ops as f64 / busy_s, f));
    report.e2e("latency_p50_ms", calib::scale_time(p50, f));
    report.e2e("latency_tail_ms", calib::scale_time(tail_ms, f));
    report.e2e("peak_rss_mb", peak_rss);
    report.note(format!(
        "setup_s: median of {SETUP_REPS} set-ups (raw); latency: {} iterations, \
         tail = p{tail_p:.2}; updates_per_s and latency_* scaled by f \
         (raw: {:.3} updates/s, p50 {p50:.3} ms, tail {tail_ms:.3} ms)",
        all_ms.len(),
        ops as f64 / busy_s
    ));

    if ctx.trace {
        report.layer("host.calib_medges_per_s", calibrator.medges_per_s().unwrap_or(0.0));
        report.layer("service.register_ms_p50", median(&register_ms).unwrap_or(0.0));
        report.layer("service.interned_sets", svc.interned_candidate_sets() as f64);
        if let (Some(traced), Some(untraced)) = (median(&traced_ms), median(&untraced_ms)) {
            report.layer("trace.overhead_ratio", traced / untraced);
        }
        let start = Instant::now();
        std::hint::black_box(LabelIndex::build_with_shards(&workload.graph, SHARDS));
        report.layer("label_index.build_ms", start.elapsed().as_secs_f64() * 1e3);
        let first = traced_from.ok_or("the traced phase never started")?;
        replay_layers::<E>(ctx, workload, first, &committed, mutate_span, tracer, &mut report)?;
    }
    Ok(report)
}

/// Replays every committed batch layer by layer on a replica built over the
/// initial graph (so its shared state — the landmark set, for bounded
/// simulation — is the service's), asserts every replayed outcome equals
/// the service's, and turns the spans of the traced batches, `first`
/// onwards, into per-layer metrics. Replay spans carry the request id of the
/// batch they replay, so each joins the `service.apply` span the timed
/// phase recorded.
#[allow(clippy::too_many_arguments)]
fn replay_layers<E: IncrementalEngine>(
    ctx: &Ctx,
    workload: &Workload,
    first: usize,
    committed: &[ServiceApply],
    mutate_span: &'static str,
    mut tracer: Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let bounded = mutate_span == "landmark.inc";
    let mut replica = Replica::<E>::build(
        workload.graph.clone(),
        &workload.patterns,
        workload.pattern_spans.clone(),
        mutate_span,
        SHARDS,
    )?;
    let mut totals = Totals::default();
    let mut matchbs_ns: Vec<(u64, f64)> = Vec::new();
    for (k, (batch, applied)) in workload.batches.iter().zip(committed).enumerate() {
        let req = k as u64;
        tracer.set_on(k >= first);
        let replayed = replica.replay(batch, req, &mut tracer)?;
        for (outcome, expected) in replayed.outcomes.iter().zip(applied.outcomes.values()) {
            if Ok(outcome) != expected.as_ref() {
                return Err(format!("replayed outcome of batch {req} differs from the service's"));
            }
        }
        if k < first {
            continue;
        }
        totals.add(batch, &replayed);
        if bounded && k < first + MATCHBS_SAMPLES {
            // The paper's Fig. 19 baseline: Matchbs from scratch, for every
            // pattern, on the graph this batch produced.
            let start = Instant::now();
            for pattern in &workload.patterns {
                std::hint::black_box(match_bounded_with_matrix(pattern, replica.graph()));
            }
            matchbs_ns.push((req, start.elapsed().as_nanos() as f64));
        }
    }
    let spans = tracer.take();
    let by_name = trace::self_us_by_name(&spans);
    let p50 = |name: &str| by_name.get(name).and_then(|v| median(v));
    let ms = |us: Option<f64>| us.map(|us| us / 1e3);

    // Per batch: the replayed stages of the service apply, and the
    // IncBMatch part of them (IncLM plus the per-pattern pipelines).
    let mut stages_ns: HashMap<u64, (u64, u64)> = HashMap::new();
    for span in &spans {
        let took = span.end - span.start;
        let entry = stages_ns.entry(span.req).or_default();
        match span.name {
            "update.validate"
            | "update.reduce"
            | "graph.mutate"
            | "sim.apply_shared.cyclic"
            | "sim.apply_shared.dag" => entry.0 += took,
            "landmark.inc" | "bsim.apply_shared" => {
                entry.0 += took;
                entry.1 += took;
            }
            _ => {}
        }
    }
    let unattributed_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "service.apply")
        .filter_map(|s| {
            let stages = stages_ns.get(&s.req)?.0;
            Some((s.end - s.start) as f64 / 1e6 - stages as f64 / 1e6)
        })
        .collect();

    report.layer_opt("service.apply_ms_p50", ms(p50("service.apply")));
    report.layer_opt("service.read_us_p50", p50("service.read"));
    report.layer_opt("service.unattributed_ms_p50", median(&unattributed_ms));
    totals.report(report, &spans, bounded);
    if bounded {
        let vs_matchbs: Vec<f64> = matchbs_ns
            .iter()
            .map(|&(req, scratch)| stages_ns.get(&req).map_or(0, |s| s.1) as f64 / scratch)
            .collect();
        report.layer_opt("landmark.inc_ms_p50", ms(p50("landmark.inc")));
        report.layer_opt("bsim.apply_shared_ms_p50", ms(p50("bsim.apply_shared")));
        report.layer_opt("bsim.vs_matchbs", median(&vs_matchbs));
    }
    let path = ctx.out_dir.join(format!("trace-{}.tsv", ctx.workload));
    trace::write(&path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))
}

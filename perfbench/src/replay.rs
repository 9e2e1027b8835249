//! Layer replay: the stages inside `MatchService::apply`, timed one by one.
//!
//! The service's apply is one opaque public call. To split it into layers,
//! the traced run feeds the batches the service committed, in order, to a
//! replica built the way the service builds its own state
//! (`IncrementalEngine::shared_build`, then `build_in_service` per pattern
//! over the same candidate lists) and drives the same public stages that
//! `apply` composes: `validate_batch`, `reduce_batch_sharded`,
//! `shared_mutate`, `try_apply_shared` per pattern, then `try_matches`.
//! Every replayed outcome must equal the one the service returned, so the
//! replay times the work the service did and nothing else.

use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::{self, Span, Tracer};
use igpm_core::{
    candidates_with_shards, ApplyOutcome, IncrementalEngine, SharedBatch, SharedMutation,
};
use igpm_graph::wal::{encode_batch, FsyncPolicy, Wal};
use igpm_graph::{
    reduce_batch_sharded, validate_batch, BatchUpdate, DataGraph, NodeId, Pattern, ShardPlan,
    Update,
};
use std::path::Path;
use std::sync::Arc;

/// A replica of a service's engines over its own copy of the graph.
pub struct Replica<E: IncrementalEngine> {
    graph: DataGraph,
    shared: E::Shared,
    engines: Vec<E>,
    /// Span name of each pattern's `try_apply_shared`.
    pattern_spans: Vec<&'static str>,
    /// Span name of the shared mutation stage.
    mutate_span: &'static str,
    shards: usize,
    /// A scratch log the replay appends every batch to, with its last
    /// sequence number.
    wal: Option<(Wal, u64)>,
}

/// What one replayed batch produced.
pub struct Replayed {
    pub effective: usize,
    pub wal_bytes: usize,
    pub outcomes: Vec<ApplyOutcome>,
}

/// Work counts over the traced batches of a replay.
#[derive(Default)]
pub struct Totals {
    submitted: usize,
    effective: usize,
    wal_bytes: usize,
    /// Σ |AFF| and Σ |ΔM| over the patterns, per batch.
    aff: Vec<f64>,
    delta_pairs: Vec<f64>,
}

impl Totals {
    pub fn add(&mut self, batch: &BatchUpdate, replayed: &Replayed) {
        self.submitted += batch.len();
        self.effective += replayed.effective;
        self.wal_bytes += replayed.wal_bytes;
        self.aff.push(replayed.outcomes.iter().map(|o| o.stats.aff()).sum::<usize>() as f64);
        self.delta_pairs
            .push(replayed.outcomes.iter().map(|o| o.delta.len()).sum::<usize>() as f64);
    }

    /// Reports the layers every replay times: validation and reduction,
    /// the WAL stages when the replay logged, and the mutation and
    /// per-pattern stages of the simulation engine (for the bounded engine,
    /// only its |AFF|; its stages are reported by its workload).
    pub fn report(&self, report: &mut Report, spans: &[Span], bounded: bool) {
        let by_name = trace::self_us_by_name(spans);
        let p50 = |name: &str| by_name.get(name).and_then(|v| median(v));
        let per_update = |n: usize| n as f64 / self.submitted.max(1) as f64;
        report.layer_opt("update.validate_us_p50", p50("update.validate"));
        report.layer_opt("update.reduce_us_p50", p50("update.reduce"));
        report.layer("update.effective_ratio", per_update(self.effective));
        if self.wal_bytes > 0 {
            report.layer_opt("wal.encode_us_p50", p50("wal.encode"));
            report.layer_opt("wal.append_us_p50", p50("wal.append"));
            report.layer("wal.bytes_per_update", per_update(self.wal_bytes));
        }
        if bounded {
            report.layer_opt("bsim.aff_per_batch", mean(&self.aff));
            return;
        }
        report.layer_opt("graph.mutate_us_p50", p50("graph.mutate"));
        report.layer_opt("sim.apply_shared_us_p50.cyclic", p50("sim.apply_shared.cyclic"));
        report.layer_opt("sim.apply_shared_us_p50.dag", p50("sim.apply_shared.dag"));
        report.layer_opt("sim.aff_per_batch", mean(&self.aff));
        report.layer_opt("sim.delta_pairs_per_batch", mean(&self.delta_pairs));
        let pattern_ns: u64 = spans
            .iter()
            .filter(|s| s.name.starts_with("sim.apply_shared"))
            .map(|s| s.end - s.start)
            .sum();
        let aff: f64 = self.aff.iter().sum();
        report.layer("sim.ns_per_aff", pattern_ns as f64 / aff.max(1.0));
    }
}

impl<E: IncrementalEngine> Replica<E> {
    /// Builds the replica over `graph` the way a service registers
    /// `patterns`, in order.
    pub fn build(
        graph: DataGraph,
        patterns: &[Pattern],
        pattern_spans: Vec<&'static str>,
        mutate_span: &'static str,
        shards: usize,
    ) -> Result<Self, String> {
        let mut shared = E::shared_build(&graph, shards);
        let engines = patterns
            .iter()
            .map(|pattern| {
                let lists: Vec<Arc<Vec<NodeId>>> = candidates_with_shards(pattern, &graph, shards)
                    .into_iter()
                    .map(Arc::new)
                    .collect();
                E::build_in_service(pattern, &graph, &mut shared, &lists, shards)
                    .map_err(|e| format!("replica build failed: {e}"))
            })
            .collect::<Result<Vec<E>, String>>()?;
        Ok(Replica { graph, shared, engines, pattern_spans, mutate_span, shards, wal: None })
    }

    /// Also appends every replayed batch to a log in `dir`, with the fsync
    /// policy the measured service used.
    pub fn with_wal(mut self, dir: &Path, policy: FsyncPolicy) -> Result<Self, String> {
        let (wal, _) = Wal::open(dir, policy).map_err(|e| format!("scratch WAL: {e}"))?;
        self.wal = Some((wal, 0));
        Ok(self)
    }

    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// Replays one committed batch through the stages of the service apply,
    /// recording one span per stage under a `replay.batch` span with
    /// request id `req`.
    pub fn replay(
        &mut self,
        batch: &BatchUpdate,
        req: u64,
        tracer: &mut Tracer,
    ) -> Result<Replayed, String> {
        let top = tracer.begin("replay.batch", req);
        let span = tracer.begin("update.validate", req);
        let rejections = validate_batch(&self.graph, batch);
        tracer.end(span);
        if !rejections.is_empty() {
            return Err(format!("replayed batch {req} was rejected: {rejections:?}"));
        }
        let mut wal_bytes = 0;
        if let Some((wal, seq)) = &mut self.wal {
            let span = tracer.begin("wal.encode", req);
            wal_bytes = std::hint::black_box(encode_batch(batch)).len();
            tracer.end(span);
            *seq += 1;
            let span = tracer.begin("wal.append", req);
            wal.append(*seq, batch).map_err(|e| format!("scratch WAL append: {e}"))?;
            tracer.end(span);
        }
        let monotone = batch.iter().all(Update::is_insert);
        let span = tracer.begin("update.reduce", req);
        let plan = ShardPlan::new(self.graph.node_count(), self.shards);
        let (effective, _) = reduce_batch_sharded(&self.graph, batch, plan);
        tracer.end(span);
        let mutation = if effective.is_empty() {
            SharedMutation::default()
        } else {
            let span = tracer.begin(self.mutate_span, req);
            let mutation =
                E::shared_mutate(&mut self.shared, &mut self.graph, &effective, self.shards);
            tracer.end(span);
            mutation
        };
        let shared_batch = SharedBatch { batch_len: batch.len(), monotone, effective: &effective };
        let mut outcomes = Vec::with_capacity(self.engines.len());
        for (engine, &name) in self.engines.iter_mut().zip(&self.pattern_spans) {
            let span = tracer.begin(name, req);
            let outcome = engine.try_apply_shared(
                &self.graph,
                &mut self.shared,
                &shared_batch,
                &mutation,
                self.shards,
            );
            tracer.end(span);
            outcomes.push(outcome.map_err(|e| format!("replayed pattern failed: {e}"))?);
        }
        for engine in &self.engines {
            let span = tracer.begin("replay.read", req);
            let view = engine.try_matches();
            tracer.end(span);
            std::hint::black_box(view.map_err(|e| format!("replayed read failed: {e}"))?);
        }
        tracer.end(top);
        Ok(Replayed { effective: effective.len(), wal_bytes, outcomes })
    }
}

//! Helpers shared by the integration suites. Every suite that declares
//! `mod common;` compiles its own copy, so the lock below serialises the
//! tests of one suite binary, not of the whole test run.

// Each suite uses a subset of the helpers.
#![allow(dead_code)]

use igpm::core::{DeltaEvent, Subscription};
use igpm::graph::fail;
use igpm::graph::{BatchUpdate, DataGraph, MatchDelta, NodeId, Pattern};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests of a suite that take it: the failpoint registry is
/// process-global, so a test that only runs engines would otherwise race
/// with a test that has a site armed.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the suite's [`SERIAL`] lock, also after a test panicked holding it.
pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with `site` armed and the default panic hook muted (the injected
/// panics would otherwise spray backtraces over the test output). The hook
/// swap is safe under [`serial`].
pub fn with_armed<T>(site: &str, f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = {
        let _armed = fail::arm_scoped(site);
        f()
    };
    std::panic::set_hook(hook);
    result
}

/// A fresh scratch directory for one durable index or service, named after
/// the suite and `tag` and removed on drop, so failures don't leak state
/// between test processes.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let suite = env!("CARGO_CRATE_NAME");
        let dir = std::env::temp_dir()
            .join(format!("igpm-{suite}-{tag}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    pub fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic splitmix-style generator: same seed, same stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = self.0;
        (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd) >> 17
    }
}

/// `n` nodes labeled `l0`/`l1`/…/`l{labels-1}` round-robin, plus a seed ring,
/// so the generated streams keep creating and destroying labelled cycles.
pub fn seed_world(n: usize, labels: usize) -> DataGraph {
    let mut graph = DataGraph::new();
    let nodes: Vec<NodeId> =
        (0..n).map(|i| graph.add_labeled_node(format!("l{}", i % labels))).collect();
    for i in 0..n {
        graph.add_edge(nodes[i], nodes[(i + 1) % n]);
    }
    graph
}

/// One validation-clean batch against `graph`: every update is effective at
/// its position (presence tracked through the batch), so `try_apply_batch`
/// accepts it whole.
pub fn gen_batch(rng: &mut Rng, graph: &DataGraph, per_batch: usize) -> BatchUpdate {
    let nv = graph.node_count() as u64;
    let mut batch = BatchUpdate::new();
    let mut overlay: std::collections::HashMap<(NodeId, NodeId), bool> =
        std::collections::HashMap::new();
    while batch.len() < per_batch {
        let a = NodeId((rng.next() % nv) as u32);
        let b = NodeId((rng.next() % nv) as u32);
        if a == b {
            continue;
        }
        let present = *overlay.entry((a, b)).or_insert_with(|| graph.has_edge(a, b));
        if present {
            batch.delete(a, b);
        } else {
            batch.insert(a, b);
        }
        overlay.insert((a, b), !present);
    }
    batch
}

/// A stream of `count` batches, each valid against the graph as left by its
/// predecessors — exactly what per-submission ingest validation admits.
pub fn gen_stream(
    rng: &mut Rng,
    initial: &DataGraph,
    count: usize,
    per_batch: usize,
) -> Vec<BatchUpdate> {
    let mut graph = initial.clone();
    (0..count)
        .map(|_| {
            let batch = gen_batch(rng, &graph, per_batch);
            batch.apply(&mut graph);
            batch
        })
        .collect()
}

/// Drains a subscription into `(seq → delta)`, asserting no `Lagged` events.
pub fn drain_deltas(sub: &mut Subscription, sink: &mut BTreeMap<u64, MatchDelta>, context: &str) {
    while let Some(event) = sub.poll() {
        match event {
            DeltaEvent::Delta { seq, delta } => {
                let prior = sink.insert(seq, (*delta).clone());
                assert!(prior.is_none(), "{context}: seq {seq} emitted twice");
            }
            DeltaEvent::Lagged { missed, resume_seq } => {
                panic!("{context}: unexpected lag (missed {missed}, resume {resume_seq})")
            }
        }
    }
}

/// Cyclic normal pattern `l0 ⇄ l1`: both nodes sit in one nontrivial SCC,
/// so insertions that close `l0`/`l1` cycles engage the `propCC` phase.
pub fn cycle_pattern() -> Pattern {
    let mut p = Pattern::new();
    let a = p.add_labeled_node("l0");
    let b = p.add_labeled_node("l1");
    p.add_normal_edge(a, b);
    p.add_normal_edge(b, a);
    p
}

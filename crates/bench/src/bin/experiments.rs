//! Regenerates every figure of the paper's evaluation (Section 8).
//!
//! ```text
//! cargo run -p igpm-bench --release --bin experiments -- all --scale 0.1
//! cargo run -p igpm-bench --release --bin experiments -- fig18a fig19a
//! ```
//!
//! Each figure prints a table with one row per (algorithm, x-axis point); the
//! shape of those series is what `EXPERIMENTS.md` compares against the paper.
//! The `--scale` flag multiplies every dataset/update size (1.0 = the sizes
//! reported in the paper; the default keeps the full sweep tractable on a
//! laptop).

use igpm_baseline::{
    apply_batch_naive, isomorphic_result_nodes, HornSatSimulation, MatrixBoundedIndex,
};
use igpm_bench::report::{print_table, time_ms, Row};
use igpm_bench::workloads as wl;
use igpm_core::{
    match_bounded, match_bounded_with_matrix, match_simulation, BoundedIndex, SimulationIndex,
};
use igpm_distance::landmark_inc::{del_lm, inc_lm, ins_lm};
use igpm_distance::{
    BfsOracle, DistanceMatrix, DistanceOracle, LandmarkIndex, LandmarkSelection, TwoHopLabels,
};
use igpm_generator::{evolution_split, mixed_batch, synthetic_graph, SyntheticConfig};
use igpm_graph::{BatchUpdate, DataGraph, NodeId, Pattern, Update};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = wl::DEFAULT_SCALE;
    let mut figures: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                scale = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs a numeric value");
            }
            other => figures.push(other.to_string()),
        }
    }
    if figures.is_empty() || figures.iter().any(|f| f == "all") {
        figures = vec![
            "fig16a", "fig16b", "fig16c", "fig17a", "fig17b", "fig17c", "fig17d", "fig18a",
            "fig18b", "fig18c", "fig18d", "fig19a", "fig19b", "fig19c", "fig19d", "fig20a",
            "fig20b", "fig20c", "fig20d", "fig20e", "fig20f",
        ]
        .into_iter()
        .map(String::from)
        .collect();
    }
    println!("# Incremental graph pattern matching — experiment harness (scale {scale})");
    for figure in figures {
        match figure.as_str() {
            "fig16a" => fig16a(scale),
            "fig16b" => fig16b(scale),
            "fig16c" => fig16c(scale),
            "fig17a" => fig17_oracles(scale, "youtube"),
            "fig17b" => fig17_oracles(scale, "citation"),
            "fig17c" => fig17c(scale),
            "fig17d" => fig17d(scale),
            "fig18a" => fig18_synthetic(scale, true),
            "fig18b" => fig18_synthetic(scale, false),
            "fig18c" => fig18_real(scale, "youtube"),
            "fig18d" => fig18_real(scale, "citation"),
            "fig19a" => fig19_synthetic(scale, true),
            "fig19b" => fig19_synthetic(scale, false),
            "fig19c" => fig19_real(scale, "youtube"),
            "fig19d" => fig19_real(scale, "citation"),
            "fig20a" => fig20a(scale),
            "fig20b" => fig20b(scale),
            "fig20c" => fig20c(scale),
            "fig20d" => fig20d(scale),
            "fig20e" => fig20e(scale),
            "fig20f" => fig20f(scale),
            other => eprintln!("unknown figure id: {other}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Exp-1: effectiveness and efficiency of bounded simulation (Fig. 16)
// ---------------------------------------------------------------------------

/// Fig. 16(a): how many community members per pattern node each notion finds.
fn fig16a(scale: f64) {
    let graph = wl::youtube(scale);
    let mut rows = Vec::new();
    let pattern_count = 10;
    let mut vf2_failures = 0usize;
    for seed in 0..pattern_count {
        let pattern = wl::bounded_pattern(&graph, 4, 5, 2, 3, 1600 + seed);
        let bsim = match_bounded_with_bfs_cached(&pattern, &graph);
        let avg_bsim = bsim.pair_count() as f64 / pattern.node_count() as f64;
        let iso_nodes = isomorphic_result_nodes(&pattern.as_normal(), &graph, 20_000);
        if iso_nodes.is_empty() {
            vf2_failures += 1;
        }
        rows.push(Row::new("Match (k=3)", format!("pattern {seed}"), avg_bsim, "matches/node"));
        rows.push(Row::new(
            "VF2",
            format!("pattern {seed}"),
            iso_nodes.len() as f64 / pattern.node_count() as f64,
            "matches/node",
        ));
    }
    rows.push(Row::new("VF2 found nothing", "patterns", vf2_failures as f64, "count"));
    print_table("Fig. 16(a) — effectiveness: community members identified (YouTube-like)", &rows);
}

/// Fig. 16(b): Match vs VF2 elapsed time, varying pattern size.
fn fig16b(scale: f64) {
    let graph = wl::youtube(scale);
    let mut rows = Vec::new();
    for size in 3..=8usize {
        let x = format!("({size},{size})");
        // |pred| = 2 keeps the candidate sets selective enough for Match yet
        // large enough that VF2's combinatorial search is visible (the paper's
        // hand-built patterns have the same flavour). The VF2 enumeration is
        // capped so a pathological pattern cannot stall the harness.
        let normal = wl::normal_pattern(&graph, size, size, 2, 1650 + size as u64);
        let bounded = wl::bounded_pattern(&graph, size, size, 2, 3, 1650 + size as u64);
        let (t_vf2, _) =
            time_ms(|| igpm_baseline::find_isomorphic_matches(&normal, &graph, 100_000).len());
        let (t_k1, _) = time_ms(|| match_bounded_with_bfs_cached(&normal, &graph));
        let (t_k3, _) = time_ms(|| match_bounded_with_bfs_cached(&bounded, &graph));
        rows.push(Row::new("VF2", x.clone(), t_vf2, "ms"));
        rows.push(Row::new("Match (k=1)", x.clone(), t_k1, "ms"));
        rows.push(Row::new("Match (k=3)", x, t_k3, "ms"));
    }
    print_table("Fig. 16(b) — Match vs VF2 efficiency (YouTube-like)", &rows);
}

/// Fig. 16(c): number of distinct matched nodes per notion, varying pattern size.
fn fig16c(scale: f64) {
    let graph = wl::youtube(scale);
    let mut rows = Vec::new();
    for size in 3..=8usize {
        let x = format!("({size},{size})");
        let normal = wl::normal_pattern(&graph, size, size, 2, 1700 + size as u64);
        let bounded = wl::bounded_pattern(&graph, size, size, 2, 3, 1700 + size as u64);
        let vf2 = isomorphic_result_nodes(&normal, &graph, 50_000).len();
        let k1 = match_bounded_with_bfs_cached(&normal, &graph).matched_data_nodes().len();
        let k3 = match_bounded_with_bfs_cached(&bounded, &graph).matched_data_nodes().len();
        rows.push(Row::new("VF2", x.clone(), vf2 as f64, "#matches"));
        rows.push(Row::new("Match (k=1)", x.clone(), k1 as f64, "#matches"));
        rows.push(Row::new("Match (k=3)", x, k3 as f64, "#matches"));
    }
    print_table("Fig. 16(c) — distinct matches found (YouTube-like)", &rows);
}

// ---------------------------------------------------------------------------
// Exp-2: Match with different distance oracles and scalability (Fig. 17)
// ---------------------------------------------------------------------------

/// Fig. 17(a)/(b): Matrix+Match vs 2-hop+Match vs BFS+Match on the real-life
/// dataset substitutes. Index construction is done once per dataset (the paper
/// likewise excludes the shared distance matrix construction).
fn fig17_oracles(scale: f64, dataset: &str) {
    let graph = if dataset == "youtube" { wl::youtube(scale) } else { wl::citation(scale) };
    let matrix = DistanceMatrix::build(&graph);
    let two_hop = TwoHopLabels::build(&graph);
    let mut rows = Vec::new();
    for (nodes, edges, k) in
        [(2usize, 3usize, 3u32), (2, 3, 4), (4, 6, 3), (4, 6, 4), (6, 9, 3), (6, 9, 4)]
    {
        let x = format!("({nodes},{edges},{k})");
        let pattern =
            wl::bounded_pattern(&graph, nodes, edges, 3, k, 1720 + nodes as u64 * 10 + k as u64);
        let (t_matrix, _) = time_ms(|| match_bounded(&pattern, &graph, &matrix));
        let (t_two_hop, _) = time_ms(|| match_bounded(&pattern, &graph, &two_hop));
        let (t_bfs, _) = time_ms(|| match_bounded_with_bfs_cached(&pattern, &graph));
        rows.push(Row::new("Matrix+Match", x.clone(), t_matrix, "ms"));
        rows.push(Row::new("2-hop+Match", x.clone(), t_two_hop, "ms"));
        rows.push(Row::new("BFS+Match", x, t_bfs, "ms"));
    }
    let title = format!(
        "Fig. 17({}) — Match efficiency with different distance oracles ({dataset}-like)",
        if dataset == "youtube" { "a" } else { "b" }
    );
    print_table(&title, &rows);
}

/// Fig. 17(c): BFS+Match scalability with pattern size on a large synthetic graph.
fn fig17c(scale: f64) {
    let nodes = wl::scaled(1_000_000, scale, 2_000);
    let edges = nodes * 2;
    let graph = wl::synthetic(nodes, edges, 0x17c);
    let mut rows = Vec::new();
    for k in [3u32, 4u32] {
        for size in 3..=8usize {
            let pattern = wl::bounded_pattern(&graph, size, size, 3, k, 1750 + size as u64);
            let (t, _) = time_ms(|| match_bounded_with_bfs_cached(&pattern, &graph));
            rows.push(Row::new(format!("BFS+Match (k={k})"), format!("|Vp|=|Ep|={size}"), t, "ms"));
        }
    }
    print_table(
        &format!("Fig. 17(c) — scalability with pattern size (synthetic |V|={nodes}, |E|={edges})"),
        &rows,
    );
}

/// Fig. 17(d): BFS+Match scalability with graph size.
fn fig17d(scale: f64) {
    let mut rows = Vec::new();
    for step in 3..=10usize {
        let nodes = wl::scaled(step * 100_000, scale, 1_000);
        let edges = nodes * 2;
        let graph = wl::synthetic(nodes, edges, 0x17d + step as u64);
        for (tag, pn, pe) in [("P1 (3,3,3)", 3usize, 3usize), ("P2 (4,4,3)", 4, 4)] {
            let pattern = wl::bounded_pattern(&graph, pn, pe, 3, 3, 1780 + step as u64);
            let (t, _) = time_ms(|| match_bounded_with_bfs_cached(&pattern, &graph));
            rows.push(Row::new(format!("BFS+Match {tag}"), format!("|V|={nodes}"), t, "ms"));
        }
    }
    print_table("Fig. 17(d) — scalability with data graph size (synthetic)", &rows);
}

// ---------------------------------------------------------------------------
// Exp (incremental simulation): Fig. 18
// ---------------------------------------------------------------------------

/// Fig. 18(a)/(b): incremental simulation on synthetic graphs under growing
/// insertion (resp. deletion) batches.
fn fig18_synthetic(scale: f64, insertions: bool) {
    let nodes = wl::scaled(17_000, scale, 1_000);
    let base_edges = wl::scaled(78_000, scale, 4_000);
    let graph = wl::synthetic(nodes, base_edges, 0x18a);
    let pattern = wl::normal_pattern(&graph, 4, 5, 3, 0x18aa);
    let mut rows = Vec::new();
    for step in 1..=6usize {
        let count = wl::scaled(5_000 * step, scale, 100 * step);
        let batch = if insertions {
            wl::insertions(&graph, count, 0x1800 + step as u64)
        } else {
            wl::deletions(&graph, count, 0x1800 + step as u64)
        };
        let x = format!("|ΔG|={count}");
        rows.extend(measure_incsim(&graph, &pattern, &batch, &x));
    }
    let title = format!(
        "Fig. 18({}) — incremental simulation, synthetic |V|={nodes} ({})",
        if insertions { "a" } else { "b" },
        if insertions { "insertions" } else { "deletions" }
    );
    print_table(&title, &rows);
}

/// Fig. 18(c)/(d): incremental simulation on the real-life dataset substitutes,
/// using timestamp-based evolution snapshots as the update workload.
fn fig18_real(scale: f64, dataset: &str) {
    let (full, time_attr) = if dataset == "youtube" {
        (wl::youtube(scale), "age")
    } else {
        (wl::citation(scale), "year")
    };
    let pattern = wl::normal_pattern(&full, 6, 8, 3, 0x18c);
    let mut rows = Vec::new();
    for step in 1..=5usize {
        let fraction = 0.06 * step as f64;
        let (base, additions) = evolution_split(&full, fraction, time_attr);
        let x = format!("+{} edges", additions.len());
        rows.extend(measure_incsim(&base, &pattern, &additions, &x));
    }
    let title = format!(
        "Fig. 18({}) — incremental simulation over the {dataset}-like evolution",
        if dataset == "youtube" { "c" } else { "d" }
    );
    print_table(&title, &rows);
}

/// Measures Matchs (batch), IncMatchn (naive), IncMatch (minDelta) and HornSat
/// on the same batch of updates applied to `base`, and checks IncMatch's
/// result against Matchs'.
fn measure_incsim(base: &DataGraph, pattern: &Pattern, batch: &BatchUpdate, x: &str) -> Vec<Row> {
    let mut rows = Vec::new();

    // Batch recomputation on the updated graph.
    let mut updated = base.clone();
    batch.apply(&mut updated);
    let (t_batch, expected) = time_ms(|| match_simulation(pattern, &updated));
    rows.push(Row::new("Matchs (batch)", x, t_batch, "ms"));

    // IncMatch (minDelta + simultaneous processing).
    let mut g = base.clone();
    let mut index = SimulationIndex::build(pattern, &g);
    let (t_inc, _) = time_ms(|| index.apply_batch(&mut g, batch));
    rows.push(Row::new("IncMatch", x, t_inc, "ms"));
    assert_eq!(index.matches(), expected, "{x}: IncMatch differs from Matchs");

    // IncMatchn: one unit update at a time.
    let mut g = base.clone();
    let mut index = SimulationIndex::build(pattern, &g);
    let (t_naive, _) = time_ms(|| apply_batch_naive(&mut index, &mut g, batch));
    rows.push(Row::new("IncMatchn (naive)", x, t_naive, "ms"));

    // HORNSAT-based incremental simulation.
    let mut g = base.clone();
    let mut horn = HornSatSimulation::build(pattern, &g);
    let (t_horn, _) = time_ms(|| horn.apply_batch(&mut g, batch));
    rows.push(Row::new("HornSat", x, t_horn, "ms"));

    rows
}

// ---------------------------------------------------------------------------
// Exp (incremental bounded simulation): Fig. 19
// ---------------------------------------------------------------------------

/// Fig. 19(a)/(b): incremental bounded simulation on synthetic graphs.
fn fig19_synthetic(scale: f64, insertions: bool) {
    let nodes = wl::scaled(17_000, scale, 800);
    let base_edges = wl::scaled(99_000, scale, 4_000);
    let graph = wl::synthetic(nodes, base_edges, 0x19a);
    let pattern = wl::dag_bounded_pattern(&graph, 4, 5, 3, 3, 0x19aa);
    let mut rows = Vec::new();
    for step in 1..=5usize {
        let count = wl::scaled(2_000 * step, scale, 40 * step);
        let batch = if insertions {
            wl::insertions(&graph, count, 0x1900 + step as u64)
        } else {
            wl::deletions(&graph, count, 0x1900 + step as u64)
        };
        let x = format!("|ΔG|={count}");
        rows.extend(measure_incbsim(&graph, &pattern, &batch, &x));
    }
    let title = format!(
        "Fig. 19({}) — incremental bounded simulation, synthetic |V|={nodes} ({})",
        if insertions { "a" } else { "b" },
        if insertions { "insertions" } else { "deletions" }
    );
    print_table(&title, &rows);
}

/// Fig. 19(c)/(d): incremental bounded simulation on the real-life substitutes.
fn fig19_real(scale: f64, dataset: &str) {
    let (full, time_attr) = if dataset == "youtube" {
        (wl::youtube(scale), "age")
    } else {
        (wl::citation(scale), "year")
    };
    let pattern = wl::dag_bounded_pattern(&full, 6, 8, 3, 3, 0x19c);
    let mut rows = Vec::new();
    for step in 1..=4usize {
        let fraction = 0.04 * step as f64;
        let (base, additions) = evolution_split(&full, fraction, time_attr);
        let x = format!("+{} edges", additions.len());
        rows.extend(measure_incbsim(&base, &pattern, &additions, &x));
    }
    let title = format!(
        "Fig. 19({}) — incremental bounded simulation over the {dataset}-like evolution",
        if dataset == "youtube" { "c" } else { "d" }
    );
    print_table(&title, &rows);
}

/// Measures Matchbs (batch), IncBMatchm (distance matrix) and IncBMatch
/// (landmarks) on the same batch, and checks both incremental results against
/// Matchbs'.
fn measure_incbsim(base: &DataGraph, pattern: &Pattern, batch: &BatchUpdate, x: &str) -> Vec<Row> {
    let mut rows = Vec::new();

    let mut updated = base.clone();
    batch.apply(&mut updated);
    let (t_batch, expected) = time_ms(|| match_bounded_with_matrix(pattern, &updated));
    rows.push(Row::new("Matchbs (batch)", x, t_batch, "ms"));

    let mut g = base.clone();
    let mut index = BoundedIndex::build(pattern, &g);
    let (t_inc, _) = time_ms(|| index.apply_batch(&mut g, batch));
    rows.push(Row::new("IncBMatch", x, t_inc, "ms"));
    assert_eq!(index.matches(), expected, "{x}: IncBMatch differs from Matchbs");

    let mut g = base.clone();
    let mut matrix_index = MatrixBoundedIndex::build(pattern, &g);
    let (t_matrix, _) = time_ms(|| matrix_index.apply_batch(&mut g, batch));
    rows.push(Row::new("IncBMatchm (matrix)", x, t_matrix, "ms"));
    assert_eq!(matrix_index.matches(), expected, "{x}: IncBMatchm differs from Matchbs");

    rows
}

// ---------------------------------------------------------------------------
// Optimisations: Fig. 20
// ---------------------------------------------------------------------------

/// Fig. 20(a): how many updates `minDelta` removes, varying the densification
/// exponent α.
fn fig20a(scale: f64) {
    let nodes = wl::scaled(20_000, scale, 1_500);
    let update_count = wl::scaled(4_000, scale, 200);
    let mut rows = Vec::new();
    for alpha_step in 0..=4usize {
        let alpha = 1.0 + 0.05 * alpha_step as f64;
        let graph = synthetic_graph(&SyntheticConfig::densification(
            nodes,
            alpha,
            8,
            0x20a + alpha_step as u64,
        ));
        let pattern = wl::normal_pattern(&graph, 4, 5, 3, 0x20aa);
        let batch = mixed_batch(&graph, update_count / 2, update_count / 2, 0x20ab);
        let mut g = graph.clone();
        let mut index = SimulationIndex::build(&pattern, &g);
        let stats = index.apply_batch(&mut g, &batch).stats;
        rows.push(Row::new(
            "original updates",
            format!("α={alpha:.2}"),
            stats.delta_g as f64,
            "#updates",
        ));
        rows.push(Row::new(
            "reduced updates",
            format!("α={alpha:.2}"),
            stats.reduced_delta_g as f64,
            "#updates",
        ));
    }
    print_table("Fig. 20(a) — minDelta update reduction (synthetic, varying α)", &rows);
}

/// Fig. 20(b): space of the landmark/distance vectors, incrementally
/// maintained (InsLM) versus rebuilt from scratch (BatchLM).
fn fig20b(scale: f64) {
    let nodes = wl::scaled(10_000, scale, 1_000);
    let graph = synthetic_graph(&SyntheticConfig::densification(nodes, 1.1, 8, 0x20b));
    let mut rows = Vec::new();
    let mut incremental_graph = graph.clone();
    let mut incremental = LandmarkIndex::build(&incremental_graph, LandmarkSelection::VertexCover);
    let mut total_inserted = 0usize;
    for step in 1..=5usize {
        let count = wl::scaled(1_000, scale, 50);
        let batch = wl::insertions(&incremental_graph, count, 0x20b0 + step as u64);
        for update in batch.iter() {
            let (a, b) = update.endpoints();
            ins_lm(&mut incremental, &mut incremental_graph, a, b);
        }
        total_inserted += count;
        let rebuilt = LandmarkIndex::build(&incremental_graph, LandmarkSelection::VertexCover);
        let x = format!("+{total_inserted} edges");
        assert_same_distances(&incremental, &rebuilt, &incremental_graph, &x);
        rows.push(Row::new(
            "InsLM (maintained)",
            x.clone(),
            incremental.memory_bytes() as f64 / 1e6,
            "MB",
        ));
        rows.push(Row::new("BatchLM (rebuilt)", x, rebuilt.memory_bytes() as f64 / 1e6, "MB"));
    }
    print_table("Fig. 20(b) — landmark + distance vector space (synthetic |V|=10K·scale)", &rows);
}

/// Fig. 20(c): InsLM vs BatchLM(+) and DelLM vs BatchLM(-) on YouTube-like data.
fn fig20c(scale: f64) {
    let graph = wl::youtube(scale);
    let mut rows = Vec::new();
    for step in 1..=4usize {
        let count = wl::scaled(750 * step, scale, 30 * step);
        // Insertions.
        let batch = wl::insertions(&graph, count, 0x20c0 + step as u64);
        let mut g = graph.clone();
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        let (t_ins, _) = time_ms(|| {
            for update in batch.iter() {
                let (a, b) = update.endpoints();
                ins_lm(&mut index, &mut g, a, b);
            }
        });
        let (t_rebuild_plus, rebuilt) =
            time_ms(|| LandmarkIndex::build(&g, LandmarkSelection::VertexCover));
        assert_same_distances(&index, &rebuilt, &g, &format!("InsLM +{count}"));
        rows.push(Row::new("InsLM", format!("+{count}"), t_ins, "ms"));
        rows.push(Row::new("BatchLM(+)", format!("+{count}"), t_rebuild_plus, "ms"));

        // Deletions.
        let batch = wl::deletions(&graph, count, 0x20c8 + step as u64);
        let mut g = graph.clone();
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        let (t_del, _) = time_ms(|| {
            for update in batch.iter() {
                let (a, b) = update.endpoints();
                del_lm(&mut index, &mut g, a, b);
            }
        });
        let (t_rebuild_minus, rebuilt) =
            time_ms(|| LandmarkIndex::build(&g, LandmarkSelection::VertexCover));
        assert_same_distances(&index, &rebuilt, &g, &format!("DelLM -{count}"));
        rows.push(Row::new("DelLM", format!("-{count}"), t_del, "ms"));
        rows.push(Row::new("BatchLM(-)", format!("-{count}"), t_rebuild_minus, "ms"));
    }
    print_table(
        "Fig. 20(c) — landmark maintenance, unit procedures vs rebuild (YouTube-like)",
        &rows,
    );
}

/// Fig. 20(d): IncLM vs BatchLM under mixed batches on YouTube-like data.
fn fig20d(scale: f64) {
    let graph = wl::youtube(scale);
    let mut rows = Vec::new();
    for step in 1..=4usize {
        let count = wl::scaled(1_500 * step, scale, 60 * step);
        let batch = mixed_batch(&graph, count / 2, count / 2, 0x20d0 + step as u64);
        let mut g = graph.clone();
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        let (t_inc, _) = time_ms(|| inc_lm(&mut index, &mut g, &batch));
        let (t_rebuild, rebuilt) =
            time_ms(|| LandmarkIndex::build(&g, LandmarkSelection::VertexCover));
        assert_same_distances(&index, &rebuilt, &g, &format!("IncLM, {count} updates"));
        rows.push(Row::new("IncLM", format!("{count} updates"), t_inc, "ms"));
        rows.push(Row::new("BatchLM", format!("{count} updates"), t_rebuild, "ms"));
    }
    print_table("Fig. 20(d) — IncLM vs BatchLM under batch updates (YouTube-like)", &rows);
}

/// Fig. 20(e): IncLM on the Citation-like dataset. The paper varies the
/// maximum pattern bound k because its lazy variant only maintains distances
/// within k hops; our implementation maintains exact vectors, so the figure
/// reports the cost against the batch size for two nominal values of k.
fn fig20e(scale: f64) {
    let graph = wl::citation(scale);
    let mut rows = Vec::new();
    for step in 1..=4usize {
        let count = wl::scaled(750 * step, scale, 30 * step);
        let batch = mixed_batch(&graph, count / 2, count / 2, 0x20e0 + step as u64);
        for k in [3u32, 6u32] {
            let mut g = graph.clone();
            let mut index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
            let (t, _) = time_ms(|| inc_lm(&mut index, &mut g, &batch));
            let rebuilt = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
            assert_same_distances(&index, &rebuilt, &g, &format!("IncLM, {count} updates"));
            rows.push(Row::new(format!("IncLM (k={k})"), format!("{count} updates"), t, "ms"));
        }
    }
    print_table("Fig. 20(e) — IncLM over the Citation-like dataset", &rows);
}

/// Fig. 20(f): IncLM vs the naive InsLM+DelLM loop on synthetic data.
fn fig20f(scale: f64) {
    let nodes = wl::scaled(15_000, scale, 1_000);
    let edges = wl::scaled(40_000, scale, 3_000);
    let graph = wl::synthetic(nodes, edges, 0x20f);
    let mut rows = Vec::new();
    for step in 1..=4usize {
        let count = wl::scaled(750 * step, scale, 30 * step);
        let batch = mixed_batch(&graph, count / 2, count / 2, 0x20f0 + step as u64);

        let mut g = graph.clone();
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        let (t_inc, _) = time_ms(|| inc_lm(&mut index, &mut g, &batch));
        let rebuilt = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        assert_same_distances(&index, &rebuilt, &g, &format!("IncLM, {count} updates"));

        let mut g = graph.clone();
        let mut index = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        let (t_naive, _) = time_ms(|| {
            for update in batch.iter() {
                match *update {
                    Update::InsertEdge { from, to } => {
                        ins_lm(&mut index, &mut g, from, to);
                    }
                    Update::DeleteEdge { from, to } => {
                        del_lm(&mut index, &mut g, from, to);
                    }
                }
            }
        });
        let rebuilt = LandmarkIndex::build(&g, LandmarkSelection::VertexCover);
        assert_same_distances(&index, &rebuilt, &g, &format!("InsLM+DelLM, {count} updates"));
        rows.push(Row::new("IncLM", format!("{count} updates"), t_inc, "ms"));
        rows.push(Row::new("InsLM+DelLM (naive)", format!("{count} updates"), t_naive, "ms"));
    }
    print_table("Fig. 20(f) — IncLM vs unit-at-a-time landmark maintenance (synthetic)", &rows);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Node pairs [`assert_same_distances`] compares.
const SAMPLED_PAIRS: u64 = 2_000;

/// Asserts that a maintained landmark index answers the distance query like
/// one rebuilt from scratch on the same graph, on [`SAMPLED_PAIRS`] pairs
/// drawn by a multiplicative hash. Both are vertex-cover indexes, so both
/// are exact.
fn assert_same_distances(
    maintained: &LandmarkIndex,
    rebuilt: &LandmarkIndex,
    graph: &DataGraph,
    context: &str,
) {
    let n = graph.node_count() as u64;
    for i in 1..=SAMPLED_PAIRS {
        let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (a, b) = (NodeId(((h >> 32) % n) as u32), NodeId((h % n) as u32));
        assert_eq!(maintained.query(a, b), rebuilt.query(a, b), "{context}: dist({a}, {b})");
    }
}

/// `BFS+Match` with a generous row cache — the workhorse configuration used by
/// the figures whose x-axis is not the distance oracle itself.
fn match_bounded_with_bfs_cached(
    pattern: &Pattern,
    graph: &DataGraph,
) -> igpm_graph::MatchRelation {
    let oracle = BfsOracle::with_cache(graph, 8192);
    let _ = oracle.name();
    match_bounded(pattern, graph, &oracle)
}

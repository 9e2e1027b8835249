//! Team formation / social matching (pattern P1 of Fig. 2): a founder looks
//! for a software engineer and an HR expert within two hops, and golf-playing
//! sales managers connected through a chain of friends.
//!
//! The example runs on the YouTube-like generated dataset's schema-free
//! cousin: a synthetic social network, to show predicates over multiple
//! attributes and `*` (unbounded) pattern edges on generated data.
//!
//! Run with `cargo run --example team_formation --release`.

use igpm::prelude::*;

fn main() {
    // A synthetic social network: people with a role and an optional hobby.
    let mut graph = synthetic_graph(&SyntheticConfig::new(3_000, 12_000, 6, 42));
    // Re-label nodes with job roles and hobbies so the pattern is meaningful.
    // The role follows uid mod 6 and the hobby uid mod 8; each hobby takes
    // one even and one odd residue mod 8, so every role/hobby pair occurs.
    let roles = ["Founder", "SE", "HR", "DM", "PM", "QA"];
    let hobbies = ["golf", "chess", "tennis", "none"];
    for v in graph.nodes().collect::<Vec<_>>() {
        let uid = v.index();
        let role = roles[(uid * 7 + 3) % roles.len()];
        let hobby = hobbies[(uid / 2) % hobbies.len()];
        let attrs = graph.attrs_mut(v);
        attrs.set("role", role);
        attrs.set("hobby", hobby);
    }

    // Pattern P1: the founder (A) needs an SE and an HR within 2 hops; sales
    // managers (DM) who play golf must be reachable through a chain of friends
    // and sit within 1 hop of the SE or 2 hops of the HR.
    let mut pattern = Pattern::new();
    let founder = pattern.add_node(Predicate::any().and_eq("role", "Founder"));
    let se = pattern.add_node(Predicate::any().and_eq("role", "SE"));
    let hr = pattern.add_node(Predicate::any().and_eq("role", "HR"));
    let dm = pattern.add_node(Predicate::any().and_eq("role", "DM").and_eq("hobby", "golf"));
    pattern.add_edge(founder, se, EdgeBound::Hops(2));
    pattern.add_edge(founder, hr, EdgeBound::Hops(2));
    pattern.add_edge(founder, dm, EdgeBound::Unbounded);
    pattern.add_edge(se, dm, EdgeBound::Hops(1));
    pattern.add_edge(hr, dm, EdgeBound::Hops(2));

    println!(
        "social network: {} people, {} connections; pattern: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count(),
        pattern.node_count(),
        pattern.edge_count()
    );

    let start = std::time::Instant::now();
    let matches = igpm::core::match_bounded_with_bfs(&pattern, &graph);
    let elapsed = start.elapsed();

    println!("\nbounded simulation ({elapsed:?}):");
    for (label, u) in [("Founder", founder), ("SE", se), ("HR", hr), ("DM+golf", dm)] {
        println!("  {label:>8}: {} candidates match", matches.matches(u).len());
    }
    assert!(matches.is_total(), "every role of the pattern has a candidate that can be staffed");
    println!("\na viable team pool exists — every role can be staffed ✓");

    // Subgraph isomorphism on the normalised pattern finds only exact-shaped
    // teams; count how much it misses (cap the enumeration for safety).
    let iso_nodes = igpm::baseline::isomorphic_result_nodes(&pattern.as_normal(), &graph, 10_000);
    let bsim_nodes = matches.matched_data_nodes();
    println!(
        "people identified: bounded simulation {} vs subgraph isomorphism {}",
        bsim_nodes.len(),
        iso_nodes.len()
    );
    // An embedding of the normalised pattern maps every pattern edge to a
    // single data edge, which satisfies any bound, so it is a bounded
    // simulation and lies inside the maximum one.
    assert!(
        iso_nodes.iter().all(|v| bsim_nodes.binary_search(v).is_ok()),
        "a person identified by isomorphism is missing from the bounded simulation"
    );
    println!("every person isomorphism identifies is identified by bounded simulation ✓");
}

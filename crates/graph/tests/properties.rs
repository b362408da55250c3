//! Property-based tests for the graph substrate: CSR invariants, BFS vs a
//! naive oracle, σ-count consistency between f64 and exact big integers,
//! generator guarantees, and I/O round-trips.

use bc_graph::algo::{self, UNREACHABLE};
use bc_graph::{generators, io, Graph, NodeId, ReversePorts};
use proptest::prelude::*;

/// Strategy: a random edge set over `n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..=max_edges.min(200)).prop_map(
            move |pairs| {
                let edges = pairs.into_iter().filter(|(u, v)| u != v);
                Graph::from_edges(n, edges).expect("filtered edges valid")
            },
        )
    })
}

/// Floyd–Warshall oracle for distances.
fn fw_distances(g: &Graph) -> Vec<Vec<u64>> {
    const INF: u64 = u64::MAX / 4;
    let n = g.n();
    let mut d = vec![vec![INF; n]; n];
    for (v, row) in d.iter_mut().enumerate() {
        row[v] = 0;
    }
    for (u, v) in g.edges() {
        d[u as usize][v as usize] = 1;
        d[v as usize][u as usize] = 1;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_adjacency_is_sorted_and_symmetric(g in arb_graph(40)) {
        for v in g.nodes() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
            for &w in ns {
                prop_assert!(g.neighbors(w).contains(&v), "symmetry");
                prop_assert_ne!(w, v, "no self loops");
            }
        }
        prop_assert_eq!(g.edges().count(), g.m());
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
    }

    #[test]
    fn reverse_ports_lead_back_through_edge_splices(
        g in arb_graph(40),
        toggles in prop::collection::vec((0u32..40, 0u32..40), 0..12),
    ) {
        // Each toggle removes the edge if present, else adds it, so the
        // table is checked on the generated graph and after every splice.
        let mut g = g;
        let n = g.n() as NodeId;
        for step in 0..=toggles.len() {
            let rev = ReversePorts::new(&g);
            for v in g.nodes() {
                let ports = rev.of(&g, v);
                prop_assert_eq!(ports.len(), g.degree(v));
                for (p, &w) in g.neighbors(v).iter().enumerate() {
                    prop_assert_eq!(g.neighbors(w)[ports[p] as usize], v, "edge {}-{} at step {}", v, w, step);
                }
            }
            let Some(&(u, v)) = toggles.get(step) else { break };
            let (u, v) = (u % n, v % n);
            if u != v {
                g = if g.has_edge(u, v) { g.remove_edge(u, v) } else { g.add_edge(u, v) }
                    .expect("toggle of a valid pair");
            }
        }
    }

    #[test]
    fn bfs_matches_floyd_warshall(g in arb_graph(25)) {
        let fw = fw_distances(&g);
        for s in g.nodes() {
            let dag = algo::bfs(&g, s);
            for v in g.nodes() {
                let expect = fw[s as usize][v as usize];
                if expect >= u64::MAX / 4 {
                    prop_assert_eq!(dag.dist[v as usize], UNREACHABLE);
                } else {
                    prop_assert_eq!(dag.dist[v as usize] as u64, expect);
                }
            }
        }
    }

    #[test]
    fn bfs_order_nondecreasing_and_preds_valid(g in arb_graph(30)) {
        let dag = algo::bfs(&g, 0);
        let mut last = 0;
        for &v in &dag.order {
            let d = dag.dist[v as usize];
            prop_assert!(d >= last);
            last = d;
        }
        for v in g.nodes() {
            for &p in &dag.preds[v as usize] {
                prop_assert!(g.has_edge(p, v));
                prop_assert_eq!(dag.dist[p as usize] + 1, dag.dist[v as usize]);
            }
        }
    }

    #[test]
    fn sigma_f64_matches_big(g in arb_graph(30)) {
        let dag = algo::bfs(&g, 0);
        let f = algo::sigma_f64(&dag);
        let b = algo::sigma_big(&dag);
        for v in g.nodes() {
            // Counts are small here; exact equality expected.
            prop_assert_eq!(f[v as usize], b[v as usize].to_f64());
        }
    }

    #[test]
    fn sigma_path_counting_identity(g in arb_graph(25)) {
        // σ_sv = Σ_{w ∈ P_s(v)} σ_sw (Eq. 6).
        let dag = algo::bfs(&g, 0);
        let sig = algo::sigma_f64(&dag);
        for &v in &dag.order {
            if v == 0 { continue; }
            let sum: f64 = dag.preds[v as usize].iter().map(|&w| sig[w as usize]).sum();
            prop_assert_eq!(sig[v as usize], sum);
        }
    }

    #[test]
    fn sigma_symmetry(g in arb_graph(20)) {
        // σ_st == σ_ts on undirected graphs.
        let n = g.n();
        let sig: Vec<Vec<f64>> = (0..n as NodeId)
            .map(|s| algo::sigma_f64(&algo::bfs(&g, s)))
            .collect();
        for (s, row) in sig.iter().enumerate() {
            for (t, &val) in row.iter().enumerate() {
                prop_assert_eq!(val, sig[t][s]);
            }
        }
    }

    #[test]
    fn components_partition(g in arb_graph(40)) {
        let (comp, k) = algo::connected_components(&g);
        prop_assert_eq!(comp.len(), g.n());
        prop_assert!(comp.iter().all(|&c| (c as usize) < k));
        // Two nodes in the same component iff reachable.
        let dag = algo::bfs(&g, 0);
        for v in g.nodes() {
            prop_assert_eq!(
                comp[v as usize] == comp[0],
                dag.dist[v as usize] != UNREACHABLE
            );
        }
    }

    #[test]
    fn largest_component_is_connected_subgraph(g in arb_graph(40)) {
        let (sub, map) = algo::largest_component(&g);
        prop_assert!(algo::is_connected(&sub));
        prop_assert_eq!(sub.n(), map.len());
        for (new_u, new_v) in sub.edges() {
            prop_assert!(g.has_edge(map[new_u as usize], map[new_v as usize]));
        }
    }

    #[test]
    fn diameter_bounds(g in arb_graph(30)) {
        let d = algo::diameter(&g);
        let ecc = algo::eccentricities(&g);
        prop_assert_eq!(d, ecc.iter().copied().max().unwrap_or(0));
        if algo::is_connected(&g) && g.n() > 1 {
            // Eccentricities differ by at most a factor of 2.
            let min = ecc.iter().copied().min().unwrap();
            prop_assert!(d <= 2 * min);
        }
    }

    #[test]
    fn io_roundtrip(g in arb_graph(40)) {
        let text = io::to_edge_list(&g);
        let h = io::parse_edge_list(&text).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn random_generators_connected(n in 5usize..80, seed in any::<u64>()) {
        prop_assert!(algo::is_connected(&generators::random_tree(n, seed)));
        prop_assert!(algo::is_connected(&generators::erdos_renyi_connected(n, 0.05, seed)));
        let ba = generators::barabasi_albert(n.max(6), 2, seed);
        prop_assert!(algo::is_connected(&ba));
    }

    #[test]
    fn deterministic_families_shapes(n in 3usize..40) {
        prop_assert_eq!(algo::diameter(&generators::path(n)) as usize, n - 1);
        prop_assert_eq!(algo::diameter(&generators::cycle(n)) as usize, n / 2);
        prop_assert_eq!(generators::complete(n).m(), n * (n - 1) / 2);
        prop_assert_eq!(generators::star(n).m(), n - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_never_panics_on_arbitrary_input(text in ".{0,200}") {
        // Fuzz the edge-list parser: any input yields Ok or a typed error,
        // never a panic.
        let _ = io::parse_edge_list(&text);
    }

    #[test]
    fn parser_never_panics_on_numeric_soup(
        nums in prop::collection::vec((any::<u32>(), any::<u32>()), 0..40),
        header in proptest::option::of(0usize..1000),
    ) {
        let mut text = String::new();
        if let Some(n) = header {
            text.push_str(&format!("n {n}\n"));
        }
        for (u, v) in nums {
            text.push_str(&format!("{u} {v}\n"));
        }
        if let Ok(g) = io::parse_edge_list(&text) {
            // Whatever parses must satisfy the CSR invariants.
            for v in g.nodes() {
                for &w in g.neighbors(v) {
                    prop_assert!(g.has_edge(w, v));
                }
            }
        }
    }
}

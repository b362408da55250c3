//! End-to-end tests of the distributed algorithm against the centralized
//! Brandes oracles: correctness (Figure 1 and generator suite), CONGEST
//! compliance (Lemmas 3–5 / Theorem 2), linear round complexity
//! (Theorem 3), and the sequential-baseline contrast.

use bc_brandes::{betweenness_f64, closeness_centrality, graph_centrality};
use bc_core::{run_distributed_bc, DistBcConfig, DistBcError, PhaseSchedule, Scheduling};
use bc_graph::{algo, generators, Graph};
use bc_numeric::{FpParams, Rounding};

/// Generous relative tolerance for the default L = Θ(log N) mantissa.
fn assert_bc_close(dist: &[f64], exact: &[f64], tol: f64) {
    for (v, (a, e)) in dist.iter().zip(exact).enumerate() {
        assert!(
            (a - e).abs() <= tol * (1.0 + e.abs()),
            "node {v}: distributed {a} vs exact {e}"
        );
    }
}

fn run_default(g: &Graph) -> bc_core::DistBcResult {
    run_distributed_bc(g, DistBcConfig::default()).expect("run succeeds")
}

#[test]
fn figure1_worked_example() {
    let g = generators::paper_figure1();
    let out = run_default(&g);
    // Paper Section VII: C_B(v2) = 7/2; diameter 3.
    assert!((out.betweenness[1] - 3.5).abs() < 1e-9);
    assert_eq!(out.diameter, 3);
    assert!(out.metrics.congest_compliant());
    // Leaf v1 has zero betweenness; symmetric v3/v5 agree.
    assert!(out.betweenness[0].abs() < 1e-9);
    assert!((out.betweenness[2] - out.betweenness[4]).abs() < 1e-9);
}

#[test]
fn matches_brandes_on_deterministic_families() {
    let graphs: Vec<(&str, Graph)> = vec![
        ("path", generators::path(17)),
        ("cycle", generators::cycle(16)),
        ("complete", generators::complete(9)),
        ("star", generators::star(12)),
        ("grid", generators::grid(4, 5)),
        ("torus", generators::torus(3, 5)),
        ("tree", generators::balanced_tree(2, 4)),
        ("hypercube", generators::hypercube(4)),
        ("barbell", generators::barbell(4, 3)),
        ("lollipop", generators::lollipop(5, 4)),
        ("caterpillar", generators::caterpillar(5, 2)),
    ];
    for (name, g) in graphs {
        let out = run_default(&g);
        let exact = betweenness_f64(&g);
        assert_bc_close(&out.betweenness, &exact, 1e-2);
        assert!(out.metrics.congest_compliant(), "{name} not compliant");
        assert_eq!(out.diameter, algo::diameter(&g), "{name} diameter mismatch");
    }
}

#[test]
fn matches_brandes_on_random_graphs() {
    for seed in 0..6 {
        let g = generators::erdos_renyi_connected(48, 0.07, seed);
        let out = run_default(&g);
        assert_bc_close(&out.betweenness, &betweenness_f64(&g), 1e-2);
    }
    for seed in 0..3 {
        let g = generators::barabasi_albert(60, 2, seed);
        let out = run_default(&g);
        assert_bc_close(&out.betweenness, &betweenness_f64(&g), 1e-2);
    }
    for seed in 0..3 {
        let g = generators::random_tree(50, seed);
        let out = run_default(&g);
        // Trees: σ ≡ 1, arithmetic exact up to ψ sums.
        assert_bc_close(&out.betweenness, &betweenness_f64(&g), 1e-6);
    }
}

#[test]
fn high_precision_l_matches_tightly() {
    let g = generators::erdos_renyi_connected(40, 0.1, 11);
    let cfg = DistBcConfig {
        fp: Some(FpParams::new(28, Rounding::Ceil)),
        ..DistBcConfig::default()
    };
    let out = run_distributed_bc(&g, cfg).unwrap();
    assert_bc_close(&out.betweenness, &betweenness_f64(&g), 1e-6);
}

#[test]
fn congest_constraints_hold() {
    let g = generators::erdos_renyi_connected(56, 0.06, 3);
    let out = run_default(&g);
    let m = &out.metrics;
    assert_eq!(m.collisions, 0, "Lemma 4 violated");
    assert_eq!(m.oversized_messages, 0, "Lemma 3/5 violated");
    assert_eq!(m.max_messages_per_edge_round, 1);
    // Message sizes are Θ(log N): below the engine's 8·⌈log₂N⌉ + 64.
    assert!(m.max_message_bits <= 8 * 6 + 64);
}

#[test]
fn rounds_are_linear_theorem3() {
    // Rounds/N stays bounded (≈ the schedule constant) across sizes and
    // families — the empirical Theorem 3.
    for n in [20usize, 60, 120] {
        let g = generators::path(n);
        let out = run_default(&g);
        assert!(
            out.rounds <= 16 * n as u64 + 64,
            "path n={n}: {} rounds",
            out.rounds
        );
    }
    let g = generators::erdos_renyi_connected(100, 0.05, 5);
    let out = run_default(&g);
    assert!(out.rounds <= 16 * 100 + 64);
    // The DFS actually finishes within its 4N bound.
    assert!(out.counting_rounds_used <= 4 * 100 + 8);
}

#[test]
fn sequential_baseline_correct_but_quadratic() {
    let g = generators::erdos_renyi_connected(30, 0.1, 7);
    let exact = betweenness_f64(&g);
    let seq = run_distributed_bc(
        &g,
        DistBcConfig {
            scheduling: Scheduling::Sequential,
            ..DistBcConfig::default()
        },
    )
    .unwrap();
    assert_bc_close(&seq.betweenness, &exact, 1e-2);
    assert!(seq.metrics.congest_compliant());
    let pip = run_default(&g);
    // The pipelined schedule is asymptotically (and here concretely) far
    // cheaper.
    assert!(
        seq.rounds > 5 * pip.rounds,
        "sequential {} vs pipelined {}",
        seq.rounds,
        pip.rounds
    );
}

#[test]
fn closeness_and_graph_centrality_byproducts() {
    let g = generators::grid(5, 4);
    let out = run_default(&g);
    let cc = closeness_centrality(&g);
    let cg = graph_centrality(&g);
    for v in 0..g.n() {
        assert!((out.closeness[v] - cc[v]).abs() < 1e-12, "closeness {v}");
        assert!(
            (out.graph_centrality[v] - cg[v]).abs() < 1e-12,
            "graph centrality {v}"
        );
    }
}

#[test]
fn parallel_engine_matches_serial() {
    let g = generators::erdos_renyi_connected(40, 0.08, 13);
    let serial = run_default(&g);
    let par = run_distributed_bc(
        &g,
        DistBcConfig {
            threads: 4,
            ..DistBcConfig::default()
        },
    )
    .unwrap();
    assert_eq!(serial.betweenness, par.betweenness);
    assert_eq!(serial.rounds, par.rounds);
    assert_eq!(serial.metrics, par.metrics);
}

#[test]
fn error_cases() {
    let empty = Graph::from_edges(0, []).unwrap();
    assert_eq!(
        run_distributed_bc(&empty, DistBcConfig::default()).unwrap_err(),
        DistBcError::EmptyGraph
    );
    let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
    assert_eq!(
        run_distributed_bc(&disconnected, DistBcConfig::default()).unwrap_err(),
        DistBcError::Disconnected
    );
    assert!(DistBcError::Disconnected
        .to_string()
        .contains("disconnected"));
}

#[test]
fn trivial_graphs() {
    let single = Graph::from_edges(1, []).unwrap();
    let out = run_distributed_bc(&single, DistBcConfig::default()).unwrap();
    assert_eq!(out.betweenness, vec![0.0]);
    assert_eq!(out.diameter, 0);

    let pair = generators::path(2);
    let out = run_distributed_bc(&pair, DistBcConfig::default()).unwrap();
    assert_eq!(out.betweenness, vec![0.0, 0.0]);
    assert_eq!(out.diameter, 1);

    let triangle = generators::cycle(3);
    let out = run_distributed_bc(&triangle, DistBcConfig::default()).unwrap();
    assert!(out.betweenness.iter().all(|&b| b.abs() < 1e-9));
}

#[test]
fn closeness_and_diameter_come_with_the_run() {
    let g = generators::star(8);
    let out = run_distributed_bc(&g, DistBcConfig::default()).unwrap();
    assert_eq!(out.closeness.len(), 8);
    assert!(out.closeness[0] > out.closeness[1]);
    assert_eq!(out.diameter, 2);
}

#[test]
fn wave_start_times_satisfy_lemma4_premise() {
    // Distinct T_s per source, and T_t ≥ T_s + d(s,t) + 1 for the DFS
    // visit order — the premise Lemma 4's collision-freeness rests on.
    use bc_congest::{Config, Network};
    let g = generators::erdos_renyi_connected(24, 0.12, 21);
    let n = g.n();
    let opts = bc_core::AlgoOptions::for_graph_size(n);
    let mut net = Network::new(&g, Config::default(), |v, _| {
        bc_core::DistBcNode::new(n, v, opts.clone())
    });
    net.run(100_000).unwrap();
    let dmat = algo::apsp(&g);
    // Read every source's T_s as observed by node 0 (all nodes agree).
    let ts: Vec<u64> = (0..n as u32)
        .map(|s| net.node(0).ts_of(s).expect("connected"))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| ts[v]);
    for w in order.windows(2) {
        let (a, b) = (w[0], w[1]);
        // The paper's premise: T_t ≥ T_s + d(s,t) + 1 (strictly later).
        assert!(
            ts[b] > ts[a] + dmat[a][b] as u64,
            "T_{b}={} vs T_{a}={} d={}",
            ts[b],
            ts[a],
            dmat[a][b]
        );
    }
}

#[test]
fn ts_observed_consistently_across_nodes() {
    use bc_congest::{Config, Network};
    let g = generators::grid(4, 4);
    let n = g.n();
    let opts = bc_core::AlgoOptions::for_graph_size(n);
    let mut net = Network::new(&g, Config::default(), |v, _| {
        bc_core::DistBcNode::new(n, v, opts.clone())
    });
    net.run(100_000).unwrap();
    for s in 0..n as u32 {
        let t0 = net.node(0).ts_of(s);
        for v in 1..n as u32 {
            assert_eq!(net.node(v).ts_of(s), t0, "source {s} seen at {v}");
        }
    }
}

#[test]
fn stress_extension_matches_centralized() {
    // The paper's footnote 3: stress centrality "can also be computed in a
    // similar way" — same schedule, aggregation messages carry (ψ, ρ).
    for (name, g) in [
        ("path", generators::path(13)),
        ("grid", generators::grid(4, 4)),
        ("er", generators::erdos_renyi_connected(36, 0.1, 19)),
    ] {
        let out = run_distributed_bc(
            &g,
            DistBcConfig {
                compute_stress: true,
                ..DistBcConfig::default()
            },
        )
        .unwrap();
        let stress = out.stress.expect("stress requested");
        let oracle = bc_brandes::stress_centrality(&g);
        for (v, (a, e)) in stress.iter().zip(&oracle).enumerate() {
            assert!(
                (a - e).abs() <= 1e-2 * (1.0 + e),
                "{name} node {v}: {a} vs {e}"
            );
        }
        assert!(out.metrics.congest_compliant(), "{name}");
        // And betweenness is still right in the same pass.
        assert_bc_close(&out.betweenness, &betweenness_f64(&g), 1e-2);
    }
}

#[test]
fn stress_disabled_by_default() {
    let g = generators::path(5);
    let out = run_default(&g);
    assert!(out.stress.is_none());
    assert_eq!(out.sample_size, 5);
}

#[test]
fn sampled_sources_estimate_reasonably() {
    use bc_core::SourceSelection;
    let g = generators::barabasi_albert(80, 3, 4);
    let exact = betweenness_f64(&g);
    let full = run_default(&g);
    // Average the estimator over several seeds: it should land near the
    // truth for the high-centrality nodes, with far less traffic per run.
    let k = 20;
    let seeds = 8;
    let mut mean = vec![0.0f64; g.n()];
    let mut traffic = 0u64;
    for seed in 0..seeds {
        let out = run_distributed_bc(
            &g,
            DistBcConfig {
                sources: SourceSelection::Sample { k, seed },
                ..DistBcConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.sample_size, k);
        assert!(out.metrics.congest_compliant());
        traffic += out.metrics.total_bits;
        for (m, e) in mean.iter_mut().zip(&out.betweenness) {
            *m += e / seeds as f64;
        }
    }
    // Traffic per sampled run is a fraction of the full run's.
    assert!(
        traffic / seeds < full.metrics.total_bits,
        "sampling must reduce traffic"
    );
    // Estimates track the truth on the top nodes (sampling noise bounded).
    let mut order: Vec<usize> = (0..g.n()).collect();
    order.sort_by(|&a, &b| exact[b].total_cmp(&exact[a]));
    for &v in order.iter().take(5) {
        let rel = (mean[v] - exact[v]).abs() / exact[v];
        assert!(
            rel < 0.5,
            "node {v}: mean {} vs exact {}",
            mean[v],
            exact[v]
        );
    }
}

#[test]
fn sampled_sequential_mode_also_works() {
    use bc_core::SourceSelection;
    let g = generators::grid(4, 4);
    let out = run_distributed_bc(
        &g,
        DistBcConfig {
            scheduling: Scheduling::Sequential,
            sources: SourceSelection::Sample { k: 6, seed: 3 },
            compute_stress: true,
            ..DistBcConfig::default()
        },
    )
    .unwrap();
    assert_eq!(out.sample_size, 6);
    assert!(out.metrics.congest_compliant());
    assert!(out.stress.is_some());
}

#[test]
fn weighted_extension_matches_dijkstra_brandes() {
    use bc_graph::weighted::random_weighted;
    for seed in 0..3 {
        let wg = random_weighted(14, 0.2, 4, seed);
        let out = bc_core::run_distributed_bc_weighted(
            &wg,
            DistBcConfig {
                fp: Some(FpParams::new(24, Rounding::Ceil)),
                ..DistBcConfig::default()
            },
        )
        .unwrap();
        let oracle = bc_brandes::weighted::betweenness_weighted_f64(&wg);
        assert_eq!(out.betweenness.len(), 14);
        for (v, (a, e)) in out.betweenness.iter().zip(&oracle).enumerate() {
            assert!(
                (a - e).abs() <= 1e-4 * (1.0 + e),
                "seed {seed} node {v}: {a} vs {e}"
            );
        }
        assert!(out.metrics.congest_compliant());
        assert!(out.simulated_n >= 14);
    }
}

#[test]
fn weighted_unit_weights_match_unweighted_run() {
    use bc_graph::weighted::WeightedGraph;
    let g = generators::cycle(9);
    let wg = WeightedGraph::from_edges(9, g.edges().map(|(u, v)| (u, v, 1))).unwrap();
    let w = bc_core::run_distributed_bc_weighted(&wg, DistBcConfig::default()).unwrap();
    let u = run_default(&g);
    for (a, b) in w.betweenness.iter().zip(&u.betweenness) {
        assert!((a - b).abs() < 1e-9);
    }
    assert_eq!(w.diameter, u.diameter);
    assert_eq!(w.simulated_n, 9);
}

#[test]
fn weighted_closeness_is_weighted() {
    use bc_graph::weighted::WeightedGraph;
    // 0 -1- 1 -10- 2: node 0's weighted distance sum is 1 + 11 = 12.
    let wg = WeightedGraph::from_edges(3, [(0, 1, 1), (1, 2, 10)]).unwrap();
    let out = bc_core::run_distributed_bc_weighted(&wg, DistBcConfig::default()).unwrap();
    assert!((out.closeness[0] - 1.0 / 12.0).abs() < 1e-12);
    assert!((out.closeness[1] - 1.0 / 11.0).abs() < 1e-12);
    assert_eq!(out.diameter, 11);
}

#[test]
fn full_protocol_runs_on_asynchronous_network_via_synchronizer() {
    // The paper assumes synchronized pulses (Section III-A); the classic
    // α-synchronizer (Peleg [14]) lifts that assumption. The complete
    // betweenness protocol, unmodified, must produce bit-identical results
    // on an asynchronous network with random FIFO delays.
    use bc_congest::asynchronous::{run_synchronized, AsyncConfig};
    let g = generators::erdos_renyi_connected(20, 0.15, 77);
    let n = g.n();
    let sync = run_default(&g);
    let pulses = sync.rounds + 1;
    let opts = bc_core::AlgoOptions::for_graph_size(n);
    for (max_delay, seed) in [(1u64, 0u64), (4, 9), (12, 5)] {
        let (nodes, report) =
            run_synchronized(&g, AsyncConfig { max_delay, seed }, pulses, |v, _| {
                bc_core::DistBcNode::new(n, v, opts.clone())
            });
        for (v, node) in nodes.iter().enumerate() {
            assert_eq!(
                node.betweenness(),
                sync.betweenness[v],
                "delay={max_delay} node {v}: async/sync divergence"
            );
        }
        assert!(report.virtual_time >= pulses);
        assert!(report.control_messages > report.payload_messages);
    }
}

#[test]
fn depth_aware_windows_on_both_sides_of_the_fallback() {
    // (graph, whether its BFS tree from node 0 is shallow enough for the
    // depth-aware windows).
    for (name, g, depth_aware) in [
        ("star", generators::star(24), true),
        ("er", generators::erdos_renyi_connected(48, 0.08, 15), true),
        ("grid", generators::grid(5, 5), true),
        ("path", generators::path(24), false),
        ("cycle", generators::cycle(16), false),
        ("figure1", generators::paper_figure1(), false),
    ] {
        let out = run_default(&g);
        assert!(out.metrics.congest_compliant(), "{name}");
        let exact = betweenness_f64(&g);
        assert_bc_close(&out.betweenness, &exact, 1e-2);
        assert_eq!(out.diameter, algo::diameter(&g), "{name}");
        let n = g.n();
        let only_n = PhaseSchedule::new(n, Scheduling::DfsPipelined);
        assert_eq!(
            out.schedule,
            PhaseSchedule::for_graph(&g, Scheduling::DfsPipelined, n),
            "{name}"
        );
        assert_eq!(out.schedule != only_n, depth_aware, "{name}");
        // The token's tour fills the counting window up to the drain.
        let h = algo::bfs(&g, 0).eccentricity() as u64;
        if depth_aware {
            assert_eq!(
                out.counting_rounds_used,
                2 * (n as u64 - 1) + n as u64,
                "{name}"
            );
            assert!(
                out.schedule.reduce_start - out.schedule.counting_start
                    <= out.counting_rounds_used + 2 * h,
                "{name}"
            );
        }
    }
}

#[test]
fn depth_aware_windows_cut_rounds_on_low_depth_graphs() {
    // BA(128, 3): depth ≈ 3, so the run takes about 6N rounds where the
    // N-only windows (sized for D = N − 1) took about 10N. The aggregation
    // phase is the same length under both, so the N-only count is this
    // run's shifted by the difference of the aggregation bases.
    let g = generators::barabasi_albert(128, 3, 2);
    let out = run_default(&g);
    let only_n = PhaseSchedule::new(g.n(), Scheduling::DfsPipelined);
    let n_only_rounds = out.rounds + only_n.agg_start - out.schedule.agg_start;
    assert!(
        out.rounds * 3 < n_only_rounds * 2,
        "depth-aware {} vs N-only {n_only_rounds}",
        out.rounds
    );
    assert!(out.rounds < 7 * g.n() as u64, "{}", out.rounds);
}

#[test]
fn trivial_graphs_are_compliant() {
    for g in [
        bc_graph_single(),
        generators::path(2),
        generators::path(3),
        generators::cycle(3),
        generators::star(4),
    ] {
        let out = run_default(&g);
        assert!(out.metrics.congest_compliant());
        assert_bc_close(&out.betweenness, &betweenness_f64(&g), 1e-2);
    }
}

fn bc_graph_single() -> Graph {
    Graph::from_edges(1, []).unwrap()
}

#[test]
fn depth_aware_windows_with_extensions() {
    use bc_core::SourceSelection;
    let g = generators::erdos_renyi_connected(40, 0.1, 8);
    let out = run_distributed_bc(
        &g,
        DistBcConfig {
            compute_stress: true,
            sources: SourceSelection::Sample { k: 10, seed: 3 },
            ..DistBcConfig::default()
        },
    )
    .unwrap();
    assert!(out.metrics.congest_compliant());
    assert_eq!(out.sample_size, 10);
    assert!(out.stress.is_some());
    assert_eq!(
        out.schedule,
        PhaseSchedule::for_graph(&g, Scheduling::DfsPipelined, 10)
    );
}

#[test]
fn depth_flood_survives_asynchrony_too() {
    // The depth flood and the windows it selects are as
    // synchronizer-transparent as the rest of the protocol.
    use bc_congest::asynchronous::{run_synchronized, AsyncConfig};
    let g = generators::erdos_renyi_connected(18, 0.15, 33);
    let n = g.n();
    let sync = run_default(&g);
    assert_ne!(
        sync.schedule,
        PhaseSchedule::new(n, Scheduling::DfsPipelined)
    );
    let opts = bc_core::AlgoOptions::for_graph_size(n);
    let (nodes, _) = run_synchronized(
        &g,
        AsyncConfig {
            max_delay: 6,
            seed: 2,
        },
        sync.rounds + 1,
        |v, _| bc_core::DistBcNode::new(n, v, opts.clone()),
    );
    for (v, node) in nodes.iter().enumerate() {
        assert_eq!(node.betweenness(), sync.betweenness[v], "node {v}");
        assert_eq!(node.schedule(), &sync.schedule, "node {v}");
    }
}

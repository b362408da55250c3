//! Property-based tests of the distributed protocol on random connected
//! graphs: correctness vs Brandes, CONGEST compliance, engine determinism
//! (serial == parallel), stress extension, sampling invariants, and the
//! codec round-trip under random parameters.

use bc_brandes::{betweenness_f64, dependencies_from, stress_centrality};
use bc_core::{
    run_distributed_bc, source_mask, Codec, DistBcConfig, Estimator, PhaseSchedule, ProtocolMsg,
    Scheduling, SourceSelection,
};
use bc_graph::{Graph, GraphBuilder, NodeId};
use bc_numeric::{CeilFloat, FpParams, Rounding};
use proptest::prelude::*;

/// Random connected graph: a random recursive tree plus extra edges.
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..max_n, any::<u64>(), 0usize..40).prop_map(|(n, seed, extra)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 1..n as NodeId {
            b.add_edge(rng.gen_range(0..v), v).expect("valid");
        }
        for _ in 0..extra {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                b.add_edge(u, v).expect("valid");
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_matches_brandes_and_is_compliant(g in arb_connected_graph(40)) {
        let out = run_distributed_bc(&g, DistBcConfig::default()).expect("runs");
        prop_assert!(out.metrics.congest_compliant());
        prop_assert_eq!(out.metrics.max_messages_per_edge_round, 1);
        let exact = betweenness_f64(&g);
        for (v, (a, e)) in out.betweenness.iter().zip(&exact).enumerate() {
            prop_assert!(
                (a - e).abs() <= 1e-2 * (1.0 + e),
                "node {}: {} vs {}", v, a, e
            );
        }
        // Rounds stay linear with the schedule constant.
        prop_assert!(out.rounds <= 16 * g.n() as u64 + 64);
    }

    #[test]
    fn parallel_engine_is_deterministic(
        g in arb_connected_graph(30),
        threads in 2usize..6,
    ) {
        let serial = run_distributed_bc(&g, DistBcConfig::default()).expect("runs");
        let par = run_distributed_bc(
            &g,
            DistBcConfig { threads, ..DistBcConfig::default() },
        )
        .expect("runs");
        prop_assert_eq!(&serial.betweenness, &par.betweenness);
        prop_assert_eq!(serial.metrics, par.metrics);
    }

    #[test]
    fn runs_end_inside_their_windows(g in arb_connected_graph(30)) {
        // Random graphs land on both sides of the depth limit: the run's
        // windows are the central function of the tree depth, never later
        // than the N-only ones, and the run ends inside the N-only cap.
        let out = run_distributed_bc(&g, DistBcConfig::default()).expect("runs");
        let n = g.n();
        let only_n = PhaseSchedule::new(n, Scheduling::DfsPipelined);
        prop_assert_eq!(out.schedule, PhaseSchedule::for_graph(&g, Scheduling::DfsPipelined, n));
        prop_assert!(out.schedule.agg_start <= only_n.agg_start);
        prop_assert!(out.rounds > out.schedule.agg_start);
        prop_assert!(out.rounds <= only_n.max_rounds());
        prop_assert!(out.metrics.congest_compliant());
        let exact = betweenness_f64(&g);
        for (v, (a, e)) in out.betweenness.iter().zip(&exact).enumerate() {
            prop_assert!((a - e).abs() <= 1e-2 * (1.0 + e), "node {}", v);
        }
        prop_assert_eq!(out.diameter, bc_graph::algo::diameter(&g));
    }

    #[test]
    fn stress_extension_matches_oracle(g in arb_connected_graph(26)) {
        let out = run_distributed_bc(
            &g,
            DistBcConfig { compute_stress: true, ..DistBcConfig::default() },
        )
        .expect("runs");
        let stress = out.stress.expect("requested");
        let oracle = stress_centrality(&g);
        for (v, (a, e)) in stress.iter().zip(&oracle).enumerate() {
            prop_assert!(
                (a - e).abs() <= 2e-2 * (1.0 + e),
                "node {}: {} vs {}", v, a, e
            );
        }
    }

    #[test]
    fn diameter_always_exact(g in arb_connected_graph(30)) {
        let out = run_distributed_bc(&g, DistBcConfig::default()).expect("runs");
        prop_assert_eq!(out.diameter, bc_graph::algo::diameter(&g));
    }

    #[test]
    fn sampling_stays_compliant_and_scales(
        g in arb_connected_graph(30),
        k in 1usize..10,
        seed in any::<u64>(),
    ) {
        let out = run_distributed_bc(
            &g,
            DistBcConfig {
                sources: SourceSelection::Sample { k, seed },
                ..DistBcConfig::default()
            },
        )
        .expect("runs");
        prop_assert!(out.metrics.congest_compliant());
        prop_assert_eq!(out.sample_size, k.min(g.n()));
        // With all sources the estimator reduces to the exact algorithm;
        // with a sample, values are nonnegative and finite.
        for &b in &out.betweenness {
            prop_assert!(b.is_finite() && b >= 0.0);
        }
    }

    #[test]
    fn sampled_run_is_bit_identical_to_its_explicit_mask(
        g in arb_connected_graph(26),
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        // Sample{k, seed} is pure notation: the run must be
        // indistinguishable from naming the drawn set explicitly, up to
        // the n/|S| extrapolation only Sample applies. Scaling by a
        // power-of-two-exact half and one shared factor commutes with
        // rounding, so even the floats agree bit for bit.
        let sources = SourceSelection::Sample { k, seed };
        let mask = source_mask(&sources, g.n());
        let sampled = run_distributed_bc(
            &g,
            DistBcConfig { sources, ..DistBcConfig::default() },
        )
        .expect("runs");
        let explicit = run_distributed_bc(
            &g,
            DistBcConfig {
                sources: SourceSelection::Explicit(mask.into()),
                ..DistBcConfig::default()
            },
        )
        .expect("runs");
        let scale = g.n() as f64 / explicit.sample_size as f64;
        for (v, (s, e)) in sampled.betweenness.iter().zip(&explicit.betweenness).enumerate() {
            prop_assert_eq!(s.to_bits(), (e * scale).to_bits(), "node {}: {} vs {}", v, s, e * scale);
        }
        prop_assert_eq!(sampled.rounds, explicit.rounds);
        prop_assert_eq!(sampled.diameter, explicit.diameter);
        prop_assert_eq!(sampled.sample_size, explicit.sample_size);
        prop_assert_eq!(sampled.metrics, explicit.metrics);
    }

    #[test]
    fn sampled_run_matches_centralized_fold(
        g in arb_connected_graph(26),
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        // The distributed sampled estimate is the Brandes–Pich fold over
        // the drawn set: (n/|S|) · Σ_{s ∈ S} δ_s·(v) / 2, up to the
        // CeilFloat rounding of the wire arithmetic.
        let sources = SourceSelection::Sample { k, seed };
        let mask = source_mask(&sources, g.n());
        let out = run_distributed_bc(
            &g,
            DistBcConfig { sources, ..DistBcConfig::default() },
        )
        .expect("runs");
        let drawn: Vec<usize> = mask.iter().enumerate().filter(|(_, &b)| b).map(|(v, _)| v).collect();
        prop_assert_eq!(drawn.len(), out.sample_size);
        let scale = g.n() as f64 / drawn.len() as f64;
        let mut expect = vec![0.0f64; g.n()];
        for &s in &drawn {
            for (v, d) in dependencies_from(&g, s as u32).into_iter().enumerate() {
                if v != s {
                    expect[v] += d;
                }
            }
        }
        for (v, (a, e)) in out.betweenness.iter().zip(&expect).enumerate() {
            let e = e * scale / 2.0;
            prop_assert!(
                (a - e).abs() <= 1e-2 * (1.0 + e),
                "node {}: {} vs {}", v, a, e
            );
        }
    }

    #[test]
    fn jiyan_with_full_sample_is_exact(g in arb_connected_graph(24), seed in any::<u64>()) {
        // At k = n the drawn set is every node, the in-sample and total
        // dependencies coincide, and the refined estimator collapses to
        // δ/2 — bit-identical to the exact run.
        let exact = run_distributed_bc(&g, DistBcConfig::default()).expect("runs");
        let refined = run_distributed_bc(
            &g,
            DistBcConfig {
                sources: SourceSelection::Sample { k: g.n(), seed },
                estimator: Estimator::JiYan,
                ..DistBcConfig::default()
            },
        )
        .expect("runs");
        prop_assert_eq!(refined.sample_size, g.n());
        prop_assert_eq!(&exact.betweenness, &refined.betweenness);
    }

    #[test]
    fn sequential_mode_matches_pipelined(g in arb_connected_graph(18)) {
        let a = run_distributed_bc(&g, DistBcConfig::default()).expect("runs");
        let b = run_distributed_bc(
            &g,
            DistBcConfig { scheduling: Scheduling::Sequential, ..DistBcConfig::default() },
        )
        .expect("runs");
        for (x, y) in a.betweenness.iter().zip(&b.betweenness) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn codec_roundtrips_random_messages(
        n in 2usize..100_000,
        l in 2u32..30,
        source in any::<u32>(),
        dist in any::<u32>(),
        ts in any::<u64>(),
        sigma_raw in 1u64..u64::MAX,
    ) {
        let fp = FpParams::new(l, Rounding::Ceil);
        let c = Codec::new(n, fp);
        let source = source % n as u32;
        let dist = dist % n as u32;
        let ts = ts % (1u64 << (c.ts_w - 1));
        let sigma = CeilFloat::from_u64(sigma_raw, fp);
        let msgs = [
            ProtocolMsg::TreeAnnounce { dist, chooses_you: sigma_raw % 2 == 0 },
            ProtocolMsg::Token,
            ProtocolMsg::Wave { source, sender_dist: dist, sigma },
            ProtocolMsg::Reduce { min_ts: ts / 2, max_ts: ts, max_d: dist },
            ProtocolMsg::AggStart { base: ts, min_ts: ts / 2, max_ts: ts, d: dist },
            ProtocolMsg::TreeDepth { depth: dist },
            ProtocolMsg::SubtreeDone { max_depth: dist },
            ProtocolMsg::Agg { source, value: sigma.recip() },
            ProtocolMsg::AggWithStress { source, psi: sigma.recip(), rho: sigma },
        ];
        for m in msgs {
            let enc = c.encode(&m);
            prop_assert!(enc.bit_len() <= c.max_message_bits());
            prop_assert_eq!(c.decode(&enc), Ok(m));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_engines_are_bit_identical(g in arb_connected_graph(22)) {
        // Serial, pooled-parallel at several widths, and the α-synchronizer
        // must agree bit-for-bit — the pool and the idle-skipping active
        // set are required to be observationally free.
        use bc_congest::asynchronous::{run_synchronized, AsyncConfig};
        let serial = run_distributed_bc(&g, DistBcConfig::default()).expect("serial runs");
        for threads in [1usize, 2, 7] {
            let par = run_distributed_bc(
                &g,
                DistBcConfig { threads, ..DistBcConfig::default() },
            )
            .expect("parallel runs");
            prop_assert_eq!(&serial.betweenness, &par.betweenness, "threads={}", threads);
            prop_assert_eq!(&serial.closeness, &par.closeness, "threads={}", threads);
            prop_assert_eq!(&serial.metrics, &par.metrics, "threads={}", threads);
            prop_assert_eq!(serial.rounds, par.rounds, "threads={}", threads);
        }
        let n = g.n();
        let opts = bc_core::AlgoOptions::for_graph_size(n);
        let (nodes, _) = run_synchronized(
            &g,
            AsyncConfig::default(),
            serial.rounds + 1,
            |v, _| bc_core::DistBcNode::new(n, v, opts.clone()),
        );
        for (v, node) in nodes.iter().enumerate() {
            prop_assert_eq!(node.betweenness(), serial.betweenness[v], "α-sync node {}", v);
        }
    }

    #[test]
    fn decode_never_panics_on_random_bits(
        n in 2usize..100_000,
        l in 2u32..30,
        words in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..8),
    ) {
        // Corrupt or truncated payloads must surface as `Err`, never as a
        // panic out of the bit reader.
        use bc_numeric::bits::BitWriter;
        let fp = FpParams::new(l, Rounding::Ceil);
        let c = Codec::new(n, fp);
        let mut w = BitWriter::new();
        for (value, width) in words {
            w.push(value & ((1u128 << width) as u64).wrapping_sub(1), width);
        }
        let raw = bc_congest::Message::new(w.finish());
        let _ = c.decode(&raw); // Ok or Err are both fine; panics are not.
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apsp_pipeline_matches_oracle(g in arb_connected_graph(40)) {
        // The DFS-free pipelined APSP (related work [7]/[15]): distances,
        // eccentricities and diameter must match the centralized oracle on
        // every random graph, under strict CONGEST enforcement, in
        // O(N + D) rounds.
        let out = bc_core::apsp_pipeline::run_apsp_pipeline(&g).expect("runs");
        prop_assert!(out.metrics.congest_compliant());
        prop_assert_eq!(out.diameter, bc_graph::algo::diameter(&g));
        let ecc = bc_graph::algo::eccentricities(&g);
        for (mine, truth) in out.eccentricity.iter().zip(&ecc) {
            prop_assert_eq!(mine, truth);
        }
        prop_assert!(out.rounds <= 4 * g.n() as u64 + out.diameter as u64 + 16);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sample_without_the_root_matches_centralized_fold(
        g in arb_connected_graph(26),
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        // The DFS starts at node 0. When the sample leaves it out, the root
        // relays the token in the round it starts, one round behind its
        // depth flood; the estimate is still the Brandes–Pich fold over
        // the drawn set.
        let k = k.min(g.n() - 1);
        let Some(seed) = (seed..seed.saturating_add(64))
            .find(|&s| !source_mask(&SourceSelection::Sample { k, seed: s }, g.n())[0])
        else {
            return Ok(());
        };
        let sources = SourceSelection::Sample { k, seed };
        let mask = source_mask(&sources, g.n());
        let out = run_distributed_bc(
            &g,
            DistBcConfig { sources, ..DistBcConfig::default() },
        )
        .expect("runs");
        prop_assert!(out.metrics.congest_compliant());
        let drawn: Vec<usize> = mask.iter().enumerate().filter(|(_, &b)| b).map(|(v, _)| v).collect();
        prop_assert_eq!(drawn.len(), out.sample_size);
        let scale = g.n() as f64 / drawn.len() as f64;
        let mut expect = vec![0.0f64; g.n()];
        for &s in &drawn {
            for (v, d) in dependencies_from(&g, s as u32).into_iter().enumerate() {
                if v != s {
                    expect[v] += d;
                }
            }
        }
        for (v, (a, e)) in out.betweenness.iter().zip(&expect).enumerate() {
            let e = e * scale / 2.0;
            prop_assert!(
                (a - e).abs() <= 1e-2 * (1.0 + e),
                "node {}: {} vs {}", v, a, e
            );
        }
    }
}

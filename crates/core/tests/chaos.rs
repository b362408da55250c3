//! Failure injection: deliberately sabotage a running protocol and verify
//! the strict CONGEST engine detects the violation — i.e. the Lemma 3–5
//! checks have teeth, and a compliant run is meaningful evidence.

use bc_congest::{Budget, Config, CongestError, Enforcement, Message, Network, Protocol, RoundCtx};
use bc_core::{run_distributed_bc, AlgoOptions, DistBcConfig, DistBcError, DistBcNode};
use bc_graph::{generators, Graph};
use bc_numeric::bits::BitWriter;

/// Wraps a [`DistBcNode`] and injects a fault at a chosen round.
struct Saboteur {
    inner: DistBcNode,
    victim: bool,
    at_round: u64,
    fault: Fault,
}

#[derive(Clone, Copy, PartialEq)]
enum Fault {
    /// Send two messages on port 0 in one round (collision — violates the
    /// Lemma 4 schedule).
    DoubleSend,
    /// Send one absurdly large message (violates the O(log N) budget of
    /// Lemmas 3/5).
    Oversized,
    /// Send a well-sized message whose tag names no protocol message; the
    /// receiver's decode must reject it (and the engine must report which
    /// node died) instead of crashing the process.
    CorruptPayload,
}

impl Protocol for Saboteur {
    fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
        self.inner.round(ctx, inbox);
        if self.victim && ctx.round() == self.at_round && ctx.degree() > 0 {
            match self.fault {
                Fault::DoubleSend => {
                    let mut w = BitWriter::new();
                    w.push(1, 4); // a Token-tagged message
                    let m = Message::new(w.finish());
                    ctx.send(0, m.clone());
                    ctx.send(0, m);
                }
                Fault::Oversized => {
                    let mut w = BitWriter::new();
                    for _ in 0..200 {
                        w.push(u64::MAX, 64);
                    }
                    ctx.send(0, Message::new(w.finish()));
                }
                Fault::CorruptPayload => {
                    let mut w = BitWriter::new();
                    w.push(15, 4); // no protocol message carries tag 15
                    ctx.send(0, Message::new(w.finish()));
                }
            }
        }
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }
}

/// The network every sabotaged run uses.
fn sabotage_graph() -> Graph {
    generators::erdos_renyi_connected(24, 0.12, 8)
}

/// A round in the middle of the clean run's counting window and one in
/// the middle of its aggregation phase, read off the run's own windows.
fn mid_phase_rounds() -> (u64, u64) {
    let clean = run_distributed_bc(&sabotage_graph(), DistBcConfig::default()).unwrap();
    let s = clean.schedule;
    (
        (s.counting_start + s.reduce_start) / 2,
        (s.agg_start + clean.rounds) / 2,
    )
}

fn run_sabotaged(fault: Fault, at_round: u64) -> Result<(), CongestError> {
    let g = sabotage_graph();
    let n = g.n();
    let opts = AlgoOptions::for_graph_size(n);
    let mut net = Network::new(&g, Config::default(), |v, _| Saboteur {
        inner: DistBcNode::new(n, v, opts.clone()),
        victim: v == 3,
        at_round,
        fault,
    });
    net.run(1_000_000).map(|_| ())
}

#[test]
fn double_send_is_caught_mid_protocol() {
    // Inject mid-waves, in the middle of the counting window.
    let (counting, _) = mid_phase_rounds();
    let err = run_sabotaged(Fault::DoubleSend, counting).unwrap_err();
    assert!(
        matches!(
            err,
            CongestError::Collision { node: 3, round, .. } if round == counting
        ),
        "got {err:?}"
    );
}

#[test]
fn double_send_is_caught_during_aggregation() {
    // Inject in the middle of the aggregation phase.
    let (_, agg) = mid_phase_rounds();
    let err = run_sabotaged(Fault::DoubleSend, agg).unwrap_err();
    assert!(
        matches!(err, CongestError::Collision { node: 3, round, .. } if round == agg),
        "got {err:?}"
    );
}

#[test]
fn oversized_message_is_caught() {
    let (counting, _) = mid_phase_rounds();
    let err = run_sabotaged(Fault::Oversized, counting).unwrap_err();
    assert!(
        matches!(
            err,
            CongestError::Oversized {
                node: 3,
                bits: 12800,
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn corrupt_payload_is_a_node_panic_error_on_every_engine() {
    // Node 3 slips a tag-15 message to its port-0 neighbour (node 2 on the
    // path) in round 1; node 2's decode refuses it in round 2. The run
    // must fail with a NodePanic naming that node and round — identically
    // on the serial and pooled engines.
    let g = generators::path(6);
    let n = g.n();
    let opts = AlgoOptions::for_graph_size(n);
    let run_engine = |threads: usize| -> CongestError {
        let mut net = Network::new(&g, Config::default(), |v, _| Saboteur {
            inner: DistBcNode::new(n, v, opts.clone()),
            victim: v == 3,
            at_round: 1,
            fault: Fault::CorruptPayload,
        });
        if threads == 0 {
            net.run(10_000).unwrap_err()
        } else {
            net.run_parallel(10_000, threads).unwrap_err()
        }
    };
    let serial_err = run_engine(0);
    match &serial_err {
        CongestError::NodePanic {
            node: 2,
            round: 2,
            message,
        } => {
            assert!(message.contains("undecodable message on port"), "{message}");
            assert!(message.contains("unknown protocol tag 15"), "{message}");
        }
        other => panic!("expected a NodePanic at node 2, round 2; got {other:?}"),
    }
    for threads in [1usize, 2, 5] {
        assert_eq!(run_engine(threads), serial_err, "threads={threads}");
    }
}

#[test]
fn starved_budget_fails_loudly_not_silently() {
    // A 10-bit budget cannot carry even a Wave message; the run must error
    // rather than quietly truncate.
    let g = generators::path(6);
    let out = run_distributed_bc(
        &g,
        DistBcConfig {
            budget: Budget::Bits(10),
            ..DistBcConfig::default()
        },
    );
    assert!(matches!(
        out.unwrap_err(),
        DistBcError::Congest(CongestError::Oversized { .. })
    ));
}

#[test]
fn record_mode_completes_but_reports_the_fault() {
    // Under Enforcement::Record the same sabotage is tallied instead of
    // fatal (useful for measuring how broken a broken schedule is). The
    // injected Token perturbs the DFS, so results are garbage — but the
    // metrics must say so.
    let g = sabotage_graph();
    let n = g.n();
    let opts = AlgoOptions::for_graph_size(n);
    let (counting, _) = mid_phase_rounds();
    let cfg = Config {
        enforcement: Enforcement::Record,
        ..Config::default()
    };
    let mut net = Network::new(&g, cfg, |v, _| Saboteur {
        inner: DistBcNode::new(n, v, opts.clone()),
        victim: v == 3,
        at_round: counting,
        fault: Fault::DoubleSend,
    });
    // The run may or may not converge to quiescence — either way, the
    // violation is recorded.
    let _ = net.run(10_000);
    assert!(net.metrics().collisions >= 1);
    assert!(!net.metrics().congest_compliant());
}

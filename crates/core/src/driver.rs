//! High-level entry points: configure and run a distributed
//! betweenness-centrality execution. Harvesting a run into a
//! [`DistBcResult`] lives in [`crate::result`]; versioning a result for
//! serving lives in [`crate::snapshot`].

use crate::node::{AlgoOptions, DistBcNode};
use crate::result::{assemble_result, phase_windows, summarize_node, summarize_root, Harvest};
use crate::sampling::{Estimator, SourceIndex, SourceSelection};
use crate::schedule::{PhaseSchedule, Scheduling};
use crate::transport::{Reliable, ReliableConfig, TransportStats, HEADER_BITS};
use bc_congest::trace::{TraceEvent, TraceSink};
use bc_congest::wire::{fnv1a64, put_str, put_u32, put_u64, put_u8};
use bc_congest::{
    Budget, Config, CongestError, EdgeCut, Enforcement, FaultPlan, NetMetrics, Network,
    ProfileReport, Protocol, RoundRecord, Telemetry,
};
use bc_graph::{algo, Graph, NodeId};
use bc_numeric::FpParams;
use std::fmt;
use std::sync::Arc;

pub use crate::result::DistBcResult;

/// Node count at or above which the parallel engine starts paying off
/// (given enough cores — see [`auto_threads`]).
///
/// E18's sweep (`repro e18`, release, best of 3 reps per cell) on a
/// shared 2-core host, `parallel(2)` / serial wall ratio over 10 sweeps
/// (13 at n = 64): median, and the sweeps the pool won.
///
/// | n   | er-n          | ba-n          |
/// | --- | ------------- | ------------- |
/// | 64  | 1.01, 5 of 13 | 1.14, 1 of 13 |
/// | 128 | 0.88, 6 of 10 | 0.98, 6 of 10 |
/// | 256 | 0.78, 9 of 10 | 0.85, 9 of 10 |
///
/// At n = 64 the two barrier crossings per round cost more than the
/// shards save; n = 128 is a coin toss on a noisy host; from n = 256 the
/// pool wins on both families. `--threads auto` uses this threshold.
pub const AUTO_THREADS_MIN_NODES: usize = 192;

/// [`auto_threads`] with the core count passed explicitly (testable
/// without depending on the host): serial (0) below
/// [`AUTO_THREADS_MIN_NODES`] or when fewer than two cores are available
/// — parallel workers cannot beat serial wall-clock without real
/// parallelism, only pay barrier overhead — otherwise up to four workers,
/// capped at the core count so the pool is never oversubscribed. On two
/// cores `parallel(4)` mostly loses to `parallel(2)`, as an oversubscribed
/// pool should; the cap of four comes from an earlier thread sweep and is
/// not re-measured on more cores.
///
/// ```
/// use bc_core::{auto_threads_for, AUTO_THREADS_MIN_NODES};
/// assert_eq!(auto_threads_for(64, 8), 0); // below the size threshold
/// assert_eq!(auto_threads_for(AUTO_THREADS_MIN_NODES, 1), 0); // no parallelism
/// assert_eq!(auto_threads_for(256, 2), 2); // capped at the core count
/// assert_eq!(auto_threads_for(256, 16), 4); // at most four workers
/// ```
pub fn auto_threads_for(n: usize, cores: usize) -> usize {
    if n < AUTO_THREADS_MIN_NODES || cores < 2 {
        0
    } else {
        cores.min(4)
    }
}

/// Thread count `--threads auto` resolves to for an `n`-node graph on
/// this host (detected via `std::thread::available_parallelism`).
pub fn auto_threads(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    auto_threads_for(n, cores)
}

/// Configuration for [`run`] and [`run_distributed_bc`].
#[derive(Debug, Clone)]
pub struct DistBcConfig {
    /// Floating-point parameters; `None` selects the paper's
    /// `L = Θ(log N)` via [`FpParams::for_graph_size`].
    pub fp: Option<FpParams>,
    /// Counting-phase scheduling (the paper's pipelined DFS or the
    /// sequential baseline).
    pub scheduling: Scheduling,
    /// CONGEST constraint handling; [`Enforcement::Strict`] (default)
    /// turns any collision or oversized message into an error.
    pub enforcement: Enforcement,
    /// Per-message bit budget (default: `Θ(log N)` auto).
    pub budget: Budget,
    /// Worker threads for the round engine; `0` or `1` runs the one
    /// shard on the calling thread. The ids are split into
    /// `min(n, threads)` contiguous shards ([`bc_congest::ShardMap`]).
    pub threads: usize,
    /// Optional edge cut across which bit flow is measured (experiment E8).
    pub cut: Option<EdgeCut>,
    /// Also compute stress centrality (Eq. 3) in the same pass — the
    /// paper's footnote 3 extension. Aggregation messages carry one extra
    /// `L + 16`-bit value (still `O(log N)`).
    pub compute_stress: bool,
    /// Which nodes act as BFS sources: all (the paper's exact algorithm)
    /// or a deterministic sample of `k` (the related-work approximation;
    /// results become `N/k`-scaled estimates).
    pub sources: SourceSelection,
    /// Which nodes count as shortest-path targets (`None` = all). The
    /// weighted extension restricts both sources and targets to the
    /// original nodes of the subdivision.
    pub targets: Option<std::sync::Arc<[bool]>>,
    /// How sampled dependencies fold into the betweenness estimate
    /// ([`Estimator::Scaled`] N/k scaling, or the Ji–Yan refinement).
    /// Only valid with [`SourceSelection::Sample`].
    pub estimator: Estimator,
    /// Let the engine skip nodes with an empty inbox and no self-timed
    /// work this round (on by default; observationally free). Turn off to
    /// force every node through `round()` each round.
    pub skip_idle: bool,
    /// Inject network faults (drops, duplicates, corruption, delays,
    /// crashes) per this plan. Without [`DistBcConfig::reliable`] the
    /// protocol sees the raw faulty network and will generally fail
    /// (stall or decode error) — useful for chaos testing the failure
    /// modes themselves.
    pub faults: Option<FaultPlan>,
    /// Run every node behind the [`Reliable`] transport
    /// ([`crate::transport`]): the per-message budget is raised by
    /// [`HEADER_BITS`], the round limit is scaled for retransmissions, and
    /// the result is bit-identical to a fault-free run for any
    /// non-crashing fault plan.
    pub reliable: bool,
    /// Shared telemetry registry: engines, the reliable transport, and the
    /// fault layer stream counters/histograms into it as the run executes,
    /// and its flight recorder retains the last K rounds for postmortems.
    /// Telemetry writes counters only — results are bit-identical with or
    /// without it (asserted by the test suite).
    pub telemetry: Option<std::sync::Arc<Telemetry>>,
}

impl DistBcConfig {
    /// A stable 64-bit fingerprint of every field that can change the
    /// *numeric output* of a run on a fixed graph — the serving layer
    /// stamps it into snapshot metadata so "same graph + same config"
    /// (the bit-identity contract of the query server vs the offline CLI)
    /// is checkable, and a client can detect a server answering under a
    /// different configuration.
    ///
    /// Observability attachments (telemetry, tracing, profiling), engine
    /// placement (`threads`, `skip_idle`), and measurement
    /// taps (`cut`) are deliberately excluded: they never alter results
    /// (the test suite asserts bit-identity across all of them).
    /// Fault plans and enforcement are likewise excluded — a reliable run
    /// under faults is bit-identical to a fault-free one by design.
    ///
    /// ```
    /// use bc_core::{DistBcConfig, SourceSelection};
    ///
    /// let base = DistBcConfig::default();
    /// let threaded = DistBcConfig { threads: 4, ..DistBcConfig::default() };
    /// assert_eq!(base.fingerprint(), threaded.fingerprint());
    /// let sampled = DistBcConfig {
    ///     sources: SourceSelection::Sample { k: 8, seed: 1 },
    ///     ..DistBcConfig::default()
    /// };
    /// assert_ne!(base.fingerprint(), sampled.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        match self.fp {
            None => put_u8(&mut buf, 0),
            Some(fp) => {
                put_u8(&mut buf, 1);
                put_u32(&mut buf, fp.mantissa_bits());
                put_u8(&mut buf, fp.rounding() as u8);
            }
        }
        put_u8(&mut buf, self.scheduling as u8);
        put_u8(&mut buf, self.compute_stress as u8);
        let put_mask = |buf: &mut Vec<u8>, tag: u8, mask: &[bool]| {
            let packed: String = mask.iter().map(|&b| if b { '1' } else { '0' }).collect();
            put_u8(buf, tag);
            put_u64(buf, mask.len() as u64);
            put_str(buf, &packed);
        };
        match &self.sources {
            SourceSelection::All => put_u8(&mut buf, 0),
            SourceSelection::Sample { k, seed } => {
                put_u8(&mut buf, 1);
                put_u64(&mut buf, *k as u64);
                put_u64(&mut buf, *seed);
            }
            SourceSelection::Explicit(mask) => put_mask(&mut buf, 2, mask),
        }
        match &self.targets {
            None => put_u8(&mut buf, 0),
            Some(mask) => put_mask(&mut buf, 1, mask),
        }
        put_u8(&mut buf, self.estimator as u8);
        fnv1a64(&buf)
    }
}

impl Default for DistBcConfig {
    fn default() -> Self {
        DistBcConfig {
            fp: None,
            scheduling: Scheduling::default(),
            enforcement: Enforcement::default(),
            budget: Budget::default(),
            threads: 0,
            cut: None,
            compute_stress: false,
            sources: SourceSelection::default(),
            targets: None,
            estimator: Estimator::default(),
            skip_idle: true,
            faults: None,
            reliable: false,
            telemetry: None,
        }
    }
}

/// Errors from [`run`] and [`run_distributed_bc`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistBcError {
    /// The graph has no nodes.
    EmptyGraph,
    /// The graph is disconnected; the paper's algorithm (and betweenness
    /// on shortest paths between all pairs) assumes a connected network.
    Disconnected,
    /// The configuration combines options that contradict each other
    /// (e.g. the Ji–Yan estimator without sampled sources).
    BadConfig(String),
    /// The simulated execution violated the CONGEST model or did not halt.
    Congest(CongestError),
}

impl fmt::Display for DistBcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistBcError::EmptyGraph => write!(f, "graph has no nodes"),
            DistBcError::Disconnected => write!(f, "graph is disconnected"),
            DistBcError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            DistBcError::Congest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistBcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistBcError::Congest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CongestError> for DistBcError {
    fn from(e: CongestError) -> Self {
        DistBcError::Congest(e)
    }
}

/// Runs the paper's distributed betweenness-centrality algorithm on `g`
/// under the CONGEST simulator: [`run`] with no instruments attached.
///
/// With [`SourceSelection::Sample`], the returned betweenness/closeness
/// values are `N/k`-extrapolated estimates and `diameter` is the sampled
/// horizon `max_{s ∈ S} ecc(s)` (a lower bound on the true diameter).
///
/// # Errors
///
/// * [`DistBcError::EmptyGraph`] / [`DistBcError::Disconnected`] for
///   inputs outside the paper's model (connected networks);
/// * [`DistBcError::Congest`] if the execution violates the CONGEST
///   constraints under strict enforcement (a protocol bug) or exceeds its
///   round bound.
///
/// # Examples
///
/// ```
/// use bc_core::{run_distributed_bc, DistBcConfig};
/// use bc_graph::generators;
///
/// // Figure 1 of the paper: C_B(v2) = 7/2.
/// let g = generators::paper_figure1();
/// let out = run_distributed_bc(&g, DistBcConfig::default())?;
/// assert!((out.betweenness[1] - 3.5).abs() < 1e-6);
/// assert_eq!(out.diameter, 3);
/// assert!(out.metrics.congest_compliant());
/// # Ok::<(), bc_core::DistBcError>(())
/// ```
pub fn run_distributed_bc(g: &Graph, config: DistBcConfig) -> Result<DistBcResult, DistBcError> {
    run(g, config, Instruments::default()).map(|r| r.result)
}

/// Observability attachments for one [`run`]. Neither alters the
/// execution: the result is bit-identical to an uninstrumented run
/// (asserted by the test suite). Telemetry rides on
/// [`DistBcConfig::telemetry`].
#[derive(Default)]
pub struct Instruments {
    /// Receives the run's event stream. Before the first round the driver
    /// records the context an offline analyzer needs: a
    /// [`TraceEvent::Topology`] with the full edge list and, unless the
    /// run is reliable, a [`TraceEvent::Schedule`] with the run's phase
    /// windows. The recorded stream satisfies the invariants validated by
    /// [`bc_congest::trace::check::check`].
    pub trace: Option<Box<dyn TraceSink>>,
    /// Profile the run: switch the telemetry registry's clock on
    /// ([`Telemetry::set_clock`]) — a private registry when
    /// [`DistBcConfig::telemetry`] is `None` — and derive the profile from
    /// its round log: per-round wall time split into node compute vs
    /// engine overhead, inbox depths, and (for `threads > 1`) per-worker
    /// busy times, sliced at the run's phase windows.
    pub profile: bool,
}

/// What an instrumented [`run`] returns.
pub struct Run {
    /// The run's result.
    pub result: DistBcResult,
    /// The trace sink handed in, for flushing or draining.
    pub trace: Option<Box<dyn TraceSink>>,
    /// The wall-clock profile, when [`Instruments::profile`] was set.
    pub profile: Option<ProfileReport>,
}

/// Runs the paper's algorithm on `g` with `instruments` attached — the
/// one way into an in-process run; [`run_distributed_bc`] is its
/// uninstrumented shorthand.
///
/// # Errors
///
/// Same as [`run_distributed_bc`]. On error the trace sink is dropped (a
/// file sink will have written the events up to the failure).
pub fn run(g: &Graph, config: DistBcConfig, instruments: Instruments) -> Result<Run, DistBcError> {
    let plan = Plan::new(g, &config)?;
    let (n, opts) = (g.n(), &plan.opts);
    if config.reliable {
        let rcfg = ReliableConfig {
            rto: config.faults.as_ref().map_or(3, |f| f.max_delay + 2),
        };
        let telemetry = &config.telemetry;
        run_engine(g, &plan, &config, instruments, |v, gg| {
            let mut node = Reliable::new(DistBcNode::new(n, v, opts.clone()), gg.degree(v), rcfg);
            if let Some(t) = telemetry {
                node.set_telemetry(t.clone(), v as usize % t.shards());
            }
            node
        })
    } else {
        run_engine(g, &plan, &config, instruments, |v, _| {
            DistBcNode::new(n, v, opts.clone())
        })
    }
}

/// A node the driver runs: the protocol itself, or the protocol behind
/// the reliable transport, whose repair counts the harvest sums.
pub(crate) trait RunNode: Protocol + Send {
    /// The protocol state, adding any transport counts to `transport`.
    fn harvest(self, transport: &mut TransportStats) -> DistBcNode;
}

impl RunNode for DistBcNode {
    fn harvest(self, _: &mut TransportStats) -> DistBcNode {
        self
    }
}

impl RunNode for Reliable<DistBcNode> {
    fn harvest(self, transport: &mut TransportStats) -> DistBcNode {
        transport.merge(&self.stats());
        self.into_inner()
    }
}

/// Attaches the instruments to a network of `factory`'s nodes, runs it on
/// the configured engine, and harvests it.
fn run_engine<P: RunNode>(
    g: &Graph,
    plan: &Plan,
    config: &DistBcConfig,
    instruments: Instruments,
    factory: impl FnMut(NodeId, &Graph) -> P,
) -> Result<Run, DistBcError> {
    let workers = if instruments.profile && config.threads > 1 {
        config.threads.min(g.n())
    } else {
        1
    };
    let clock = Plan::profile_registry(config, workers, instruments.profile)?;
    let engine_cfg = Config {
        budget: plan.budget,
        enforcement: config.enforcement,
        cut: config.cut.clone(),
        skip_idle: config.skip_idle,
        faults: config.faults.clone(),
    };
    let mut net = Network::new(g, engine_cfg, factory);
    if let Some(mut s) = instruments.trace {
        s.event(&TraceEvent::Topology {
            n: g.n(),
            edges: g.edges().collect(),
        });
        // A reliable run's trace records physical transport frames whose
        // rounds drift past the virtual schedule under faults, so no
        // schedule is declared and the checker skips its window checks.
        if !config.reliable {
            let sched = &plan.sched;
            s.event(&TraceEvent::Schedule {
                counting_start: sched.counting_start,
                reduce_start: sched.reduce_start,
                broadcast_start: sched.broadcast_start,
                agg_start: sched.agg_start,
            });
        }
        net.set_trace_sink(s);
    }
    if let Some(t) = &clock {
        t.set_clock(true);
    }
    if let Some(t) = clock.as_ref().or(config.telemetry.as_ref()) {
        net.set_telemetry(t.clone());
    }
    let report = net.run_parallel(plan.max_rounds, config.threads.max(1));
    let rounds = clock.map(|t| Plan::stop_clock(&t));
    let report = report?;
    let (trace, metrics) = (net.take_trace_sink(), net.metrics().clone());
    let mut transport = TransportStats::default();
    let nodes: Vec<DistBcNode> = net
        .into_nodes()
        .into_iter()
        .map(|node| node.harvest(&mut transport))
        .collect();
    debug_assert_eq!(
        nodes[0].schedule(),
        &plan.sched,
        "root and driver windows differ"
    );
    let harvest = Harvest {
        rounds: report.rounds,
        metrics,
        transport,
        summaries: nodes.iter().map(summarize_node).collect(),
        root: summarize_root(&nodes[0]),
    };
    let sharded = (config.threads > 1).then(|| format!("parallel({})", config.threads));
    let (result, profile) = plan.finish(config, harvest, rounds, sharded);
    Ok(Run {
        result,
        trace,
        profile,
    })
}

/// Everything a run derives from its graph and configuration before the
/// first round. The in-process driver, the wire leader and every shard
/// process build it the same way, so none of them can disagree.
pub(crate) struct Plan {
    /// The windows the nodes will settle on, for every view of the run.
    pub(crate) sched: PhaseSchedule,
    pub(crate) opts: AlgoOptions,
    /// The engine's per-message budget: the configured one, plus
    /// [`HEADER_BITS`] for the frame header of a reliable run.
    pub(crate) budget: Budget,
    /// The engine's round cap.
    pub(crate) max_rounds: u64,
}

impl Plan {
    /// Validates `config` against `g` and derives the run's parameters;
    /// publishes the windows to the configured telemetry.
    pub(crate) fn new(g: &Graph, config: &DistBcConfig) -> Result<Plan, DistBcError> {
        let n = g.n();
        if n == 0 {
            return Err(DistBcError::EmptyGraph);
        }
        if !algo::is_connected(g) {
            return Err(DistBcError::Disconnected);
        }
        if config.estimator == Estimator::JiYan {
            if !matches!(config.sources, SourceSelection::Sample { .. }) {
                return Err(DistBcError::BadConfig(
                    "the Ji–Yan estimator requires sampled sources".into(),
                ));
            }
            if config.compute_stress {
                return Err(DistBcError::BadConfig(
                    "the Ji–Yan estimator cannot be combined with stress centrality \
                     (both extend the aggregation message)"
                        .into(),
                ));
            }
        }
        let fp = config.fp.unwrap_or_else(|| FpParams::for_graph_size(n));
        // Built once and shared: every node keys its O(|S|) state off this map.
        let source_index = Arc::new(SourceIndex::build(&config.sources, n));
        let sched = PhaseSchedule::for_graph(g, config.scheduling, source_index.len());
        // Nodes store each wave start round `T_s` as a `u32`, and every
        // wave starts before the counting window closes.
        if sched.reduce_start > u32::MAX as u64 {
            return Err(DistBcError::BadConfig(format!(
                "the counting window ends at round {}, past the largest wave start \
                 round a node stores ({}); use pipelined scheduling or a smaller graph",
                sched.reduce_start,
                u32::MAX
            )));
        }
        if let Some(t) = &config.telemetry {
            sched.publish(t);
        }
        let opts = AlgoOptions {
            fp,
            scheduling: config.scheduling,
            compute_stress: config.compute_stress,
            sources: config.sources.clone(),
            targets: config.targets.clone(),
            estimator: config.estimator,
            source_index: Some(source_index),
        };
        let (budget, max_rounds) = if config.reliable {
            // Frames wrap each protocol message in a HEADER_BITS-bit
            // header; the inner protocol still respects the configured
            // budget. Fault-free reliable runs pipeline one virtual round
            // per physical round; under faults every loss stalls its edge
            // for up to an RTO. The limit only guards non-termination, so
            // scale generously.
            let budget = match config.budget.resolve(n) {
                Some(b) => Budget::Bits(b + HEADER_BITS),
                None => Budget::Unlimited,
            };
            (budget, sched.max_rounds() * 8 + 64)
        } else {
            (config.budget, sched.max_rounds())
        };
        Ok(Plan {
            sched,
            opts,
            budget,
            max_rounds,
        })
    }

    /// The registry a profiled run times itself into: the configured one,
    /// or a private one with a shard per worker when telemetry is off;
    /// `None` without `profile`. The caller switches its clock on.
    ///
    /// # Errors
    ///
    /// [`DistBcError::BadConfig`] when the configured registry has fewer
    /// shards than the run has workers: the workers' busy times would
    /// share shards and the per-worker statistics would be wrong.
    pub(crate) fn profile_registry(
        config: &DistBcConfig,
        workers: usize,
        profile: bool,
    ) -> Result<Option<Arc<Telemetry>>, DistBcError> {
        if !profile {
            return Ok(None);
        }
        let t = match &config.telemetry {
            Some(t) if workers > 1 && t.shards() < workers => {
                return Err(DistBcError::BadConfig(format!(
                    "profiling {workers} workers needs a telemetry registry with at least \
                     {workers} shards, not {}",
                    t.shards()
                )))
            }
            Some(t) => t.clone(),
            None => Arc::new(Telemetry::new(workers, 1)),
        };
        Ok(Some(t))
    }

    /// Switches `t`'s clock off and returns the rounds it logged.
    pub(crate) fn stop_clock(t: &Telemetry) -> Vec<RoundRecord> {
        let rounds = t.round_log();
        t.set_clock(false);
        rounds
    }

    /// Turns a harvest into the result and, given the profiled run's
    /// round log, the profile: records the state footprint into
    /// telemetry, and the transport's repair counts and the engine label
    /// into the profile. `sharded` names a sharded engine (`parallel(4)`,
    /// `wire(2)`); `None` is the serial one.
    pub(crate) fn finish(
        &self,
        config: &DistBcConfig,
        harvest: Harvest,
        rounds: Option<Vec<RoundRecord>>,
        sharded: Option<String>,
    ) -> (DistBcResult, Option<ProfileReport>) {
        let result = assemble_result(config, self.sched, self.opts.fp, harvest);
        if let Some(t) = &config.telemetry {
            t.add(0, bc_congest::Counter::StateBytes, result.state_bytes_total);
        }
        let profile = rounds.map(|rounds| {
            let mut engine = sharded.unwrap_or_else(|| "serial".to_string());
            if config.reliable {
                engine.push_str("+reliable");
            }
            let m = &result.metrics;
            let windows = phase_windows(&self.sched, result.rounds);
            let mut rep = ProfileReport::from_rounds(engine, rounds, &windows);
            rep.messages_retransmitted = m.messages_retransmitted;
            rep.messages_deduped = m.messages_deduped;
            rep.faults_injected =
                m.faults_dropped + m.faults_duplicated + m.faults_corrupted + m.faults_delayed;
            rep.state_bytes_total = result.state_bytes_total;
            rep.state_bytes_peak = result.state_bytes_peak;
            rep
        });
        (result, profile)
    }
}

/// Results of a weighted run (see [`run_distributed_bc_weighted`]),
/// projected back to the original nodes.
#[derive(Debug, Clone)]
pub struct WeightedDistBcResult {
    /// Weighted betweenness centrality of each original node.
    pub betweenness: Vec<f64>,
    /// Weighted closeness centrality of each original node.
    pub closeness: Vec<f64>,
    /// The weighted diameter (max weighted distance between original
    /// nodes... realized over original sources; equals the classic
    /// weighted diameter since virtual nodes lie on edges).
    pub diameter: u32,
    /// Nodes of the subdivided (simulated) network.
    pub simulated_n: usize,
    /// Rounds of the simulated execution: `O(Σ_e w(e) + N)`.
    pub rounds: u64,
    /// Engine metrics of the run.
    pub metrics: NetMetrics,
}

/// The paper's future-work extension (Section X): weighted betweenness via
/// virtual-node subdivision. Every weight-`w` edge becomes a path of `w`
/// unit edges; the unweighted distributed algorithm runs on the result
/// with sources and targets restricted to original nodes, which makes the
/// computation *exact* for positive integer weights (not merely the
/// `(1+ε)`-approximation the paper sketches).
///
/// Cost: the simulated network has `N' = N + Σ_e (w(e) − 1)` nodes, so the
/// round count is `O(Σ_e w(e))` — worthwhile for small integer weights.
///
/// # Errors
///
/// Same as [`run_distributed_bc`] (the subdivision of a connected weighted
/// graph is connected, so only engine errors can occur in practice).
///
/// # Examples
///
/// ```
/// use bc_core::{run_distributed_bc_weighted, DistBcConfig};
/// use bc_graph::weighted::WeightedGraph;
///
/// // Weighted path 0 -2- 1 -3- 2: node 1 is between 0 and 2.
/// let wg = WeightedGraph::from_edges(3, [(0, 1, 2), (1, 2, 3)])?;
/// let out = run_distributed_bc_weighted(&wg, DistBcConfig::default())?;
/// assert!((out.betweenness[1] - 1.0).abs() < 1e-6);
/// assert_eq!(out.diameter, 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_distributed_bc_weighted(
    wg: &bc_graph::weighted::WeightedGraph,
    config: DistBcConfig,
) -> Result<WeightedDistBcResult, DistBcError> {
    let sub = wg.subdivide();
    let real: std::sync::Arc<[bool]> = sub.real.clone().into();
    let cfg = DistBcConfig {
        sources: SourceSelection::Explicit(real.clone()),
        targets: Some(real),
        ..config
    };
    let out = run_distributed_bc(&sub.graph, cfg)?;
    Ok(WeightedDistBcResult {
        betweenness: out.betweenness[..sub.original_n].to_vec(),
        closeness: out.closeness[..sub.original_n].to_vec(),
        diameter: out.diameter,
        simulated_n: sub.graph.n(),
        rounds: out.rounds,
        metrics: out.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_graph::generators;

    /// Sequential windows on a 70,000-node path close after round
    /// n(n + 2) > 2^32: planning refuses them, before any node (each of
    /// which would hold 70,000 records) is built.
    #[test]
    fn plan_rejects_wave_starts_past_u32() {
        let g = generators::path(70_000);
        let sequential = DistBcConfig {
            scheduling: Scheduling::Sequential,
            ..DistBcConfig::default()
        };
        match Plan::new(&g, &sequential) {
            Err(DistBcError::BadConfig(msg)) => assert!(msg.contains("counting window"), "{msg}"),
            Err(e) => panic!("expected BadConfig, got {e}"),
            Ok(plan) => panic!("planned windows {:?}", plan.sched),
        }
        // Pipelined windows on the same graph are linear in n.
        assert!(Plan::new(&g, &DistBcConfig::default()).is_ok());
    }
}

//! The per-node state machine of the distributed algorithm.
//!
//! One [`DistBcNode`] runs at every vertex and advances through the phases
//! of [`crate::schedule::PhaseSchedule`]:
//!
//! * **Tree build** — synchronous BFS flooding from node 0; each node
//!   learns its parent, children, and depth. A subtree-done convergecast
//!   tells the root the tree depth `h`; if `h` is small enough the root
//!   floods it back down and every node switches to the depth-aware
//!   windows of [`crate::schedule`].
//! * **Counting (Algorithm 2)** — a DFS token walks the tree. A node first
//!   visited at round `r` waits one slot and broadcasts its BFS wave at
//!   `T_s = r + 1`; waves from different sources are pipelined and, by the
//!   triangle-inequality argument of Lemma 4 (and Holzer–Wattenhofer's
//!   token-lags-behind-waves invariant), no two messages ever share a
//!   directed edge in a round. Each node ends up with
//!   `(T_s, d(s,v), σ̂_sv, P_s(v))` for every source `s` — the list `L_v`
//!   of Algorithm 2 — with `σ̂` carried in the paper's `L`-bit floating
//!   point (Section VI).
//! * **Reduce / broadcast** — `(max T_s, D)` is convergecast to the root
//!   and flooded back (Algorithm 2 line 22's diameter broadcast).
//! * **Aggregation (Algorithm 3)** — node `u` sends
//!   `1/σ̂_su + ψ̂_s(u)` to each predecessor in `P_s(u)` at round
//!   `agg_start + (T_s − min T_s) + D − d(s,u)`, accumulating incoming
//!   values into `ψ̂_s(u)` (Eq. 14). When it sends for source `s` it also
//!   locally finalizes `δ̂_s·(u) = ψ̂_s(u) · σ̂_su` and adds it to its
//!   betweenness accumulator (Algorithm 3 lines 16–18).
//!
//! Two extensions beyond the paper's pseudocode, both opt-in:
//!
//! * **Stress centrality** (the paper's footnote 3): aggregation messages
//!   additionally carry `1 + ρ̂_s(u)` where
//!   `ρ_s(v) = Σ_{w: v ∈ P_s(w)} (1 + ρ_s(w))`; then
//!   `C_S`-dependency is `σ̂_sv · ρ̂_s(v)`. Same schedule, one message.
//! * **Sampled sources** (the related-work approximation): only a
//!   deterministic pseudo-random subset of `k` nodes launch waves, and
//!   betweenness is extrapolated by `N/k`. Sampling is coordination-free —
//!   every node recomputes the same sample locally.

use crate::codec::{Codec, ProtocolMsg};
use crate::sampling::{Estimator, SourceIndex, SourceSelection};
use crate::schedule::{PhaseSchedule, Scheduling};
use bc_congest::trace::ProtocolDetail;
use bc_congest::{Message, Protocol, RoundCtx};
use bc_numeric::{CeilFloat, FpParams};
use std::sync::Arc;

/// The globally agreed aggregation parameters, fixed by the root's
/// `AggStart` broadcast: a common base round plus the reduced
/// `(min T_s, max T_s, D)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggInfo {
    /// Common base round of the aggregation phase.
    pub base: u64,
    /// Global minimum wave start round.
    pub min_ts: u64,
    /// Global maximum wave start round.
    pub max_ts: u64,
    /// The diameter (with [`SourceSelection::All`]) or sampled horizon.
    pub d: u32,
}

impl AggInfo {
    /// Algorithm 3 line 3: the send round of a node for the source of
    /// its record `rec` (the wave started at `T_s`, `d` hops away).
    fn send_round(&self, rec: &SourceState) -> u64 {
        self.base + (rec.ts as u64 - self.min_ts) + self.d as u64 - rec.dist as u64
    }

    /// First round by which all aggregation messages are processed.
    fn end_round(&self) -> u64 {
        self.base + (self.max_ts - self.min_ts) + self.d as u64 + 2
    }
}

/// The entry of `L_v` for one source — everything a counting or
/// aggregation message of the source touches, and the aggregation
/// schedule's send round — in one 32-byte record (valid iff the source is
/// seen). An exact run holds N of these per node, so its size sets the
/// run's memory.
#[derive(Debug, Clone, Copy)]
struct SourceState {
    /// `T_s`: every wave starts before the counting window closes, and
    /// [`crate::driver`] rejects windows past `u32::MAX`.
    ts: u32,
    /// `d(s, v)`.
    dist: u32,
    /// `P_s(v)` as the CSR slice `pred_arena[pred_start..][..pred_len]`.
    pred_start: u32,
    pred_len: u32,
    /// `σ̂_sv`.
    sigma: CeilFloat,
    /// Accumulated `ψ̂_s(v)` (Eq. 14).
    psi: CeilFloat,
}

const _: () = assert!(std::mem::size_of::<SourceState>() == 32);

/// Algorithm-level options shared by every node of a run (engine-level
/// options live in [`crate::DistBcConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoOptions {
    /// Floating-point parameters for σ/ψ values on the wire.
    pub fp: FpParams,
    /// Counting-phase scheduling discipline.
    pub scheduling: Scheduling,
    /// Also compute stress centrality (Eq. 3) in the same pass.
    pub compute_stress: bool,
    /// Which nodes act as BFS sources.
    pub sources: SourceSelection,
    /// Which nodes count as shortest-path *targets* (`None` = all): the
    /// `1/σ` (resp. `1`) own-term of Eq. 14 is emitted only by targets.
    /// The weighted extension restricts targets to original nodes.
    pub targets: Option<std::sync::Arc<[bool]>>,
    /// How sampled runs fold dependencies into an estimate. Only
    /// meaningful with [`SourceSelection::Sample`].
    pub estimator: Estimator,
    /// Precomputed dense source remap, shared across all nodes of a run.
    /// `None` means "build it locally from `sources`" — the result is
    /// identical either way (the index is a pure function of the
    /// selection), sharing just saves the per-node rebuild.
    pub source_index: Option<Arc<SourceIndex>>,
}

impl AlgoOptions {
    /// The paper's configuration for an `n`-node network: `L = Θ(log N)`
    /// ceiling floats, pipelined scheduling, all sources, no extensions.
    pub fn for_graph_size(n: usize) -> Self {
        AlgoOptions {
            fp: FpParams::for_graph_size(n),
            scheduling: Scheduling::DfsPipelined,
            compute_stress: false,
            sources: SourceSelection::All,
            targets: None,
            estimator: Estimator::default(),
            source_index: None,
        }
    }
}

/// Protocol state of one node.
#[derive(Debug)]
pub struct DistBcNode {
    /// This node's id (also available as `ctx.id()`; stored so
    /// [`Protocol::next_wake`] can answer without a context).
    me: u32,
    /// Network size `N` (per-source arrays below are `O(|S|)`, not `O(N)`).
    n: usize,
    codec: Codec,
    sched: PhaseSchedule,
    opts: AlgoOptions,
    /// Dense remap of sampled source ids (same at every node).
    src_index: Arc<SourceIndex>,
    /// Whether this node is itself a source.
    is_source_self: bool,
    /// Ji–Yan refinement active: track the in-sample-target dependency
    /// sum `ψ_in` alongside `ψ` (sampled runs only).
    refined: bool,
    // Phase A.
    tree_dist: Option<u32>,
    parent_port: Option<usize>,
    children_ports: Vec<usize>,
    announce_round: Option<u64>,
    // Phase-A convergecast: children that reported, whether this node is
    // done with it, and the deepest tree depth in its subtree.
    children_done: usize,
    subtree_done: bool,
    subtree_max_depth: u32,
    // Phase B: per-source state keyed by the dense source index (`L_v` of
    // Algorithm 2, memory-dieted to O(|S|)): one record per source, plus
    // the arrays only opt-in extensions read.
    /// Bitset over dense indices: which sources' waves reached this node.
    seen: Vec<u64>,
    /// The record per dense index.
    src: Vec<SourceState>,
    /// Accumulated `ρ̂_s(v)` per dense index (empty unless stress).
    rho: Vec<CeilFloat>,
    /// Accumulated in-sample-target `ψ̂^S_s(v)` per dense index (empty
    /// unless `refined`).
    psi_in: Vec<CeilFloat>,
    /// Predecessor ports of every source, one contiguous slice each (see
    /// [`SourceState`]). Valid because each source's first-contact wave
    /// batch arrives in exactly one round (Lemma 4), so the arena is
    /// bump-appended once per source.
    pred_arena: Vec<u32>,
    visited: bool,
    wave_round: Option<u64>,
    token_forward_round: Option<u64>,
    next_child: usize,
    dfs_done_round: Option<u64>,
    // Phase C.
    reduce_armed: bool,
    reduce_sent: bool,
    reduce_received: usize,
    acc_min_ts: u64,
    acc_max_ts: u64,
    acc_max_d: u32,
    agg_info: Option<AggInfo>,
    /// Dense source indices sorted by (send round, index) and consumed
    /// front-to-back by `agg_cursor`; the round is recomputed from the
    /// record (`AggInfo::send_round`). Dense order is id order, so this
    /// is the ascending (round, id) send order bit-identity depends on.
    agg_schedule: Vec<u32>,
    agg_cursor: usize,
    // Per-round staging: the waves to rebroadcast, `(source, own
    // distance, σ̂)` each, expanded to every port at flush (at most one per
    // round — Lemma 4), and an optional token move, merged at flush into
    // `WaveWithToken` when they share an edge so the token travels at
    // wave speed without collisions.
    out_waves: Vec<(u32, u32, CeilFloat)>,
    out_token: Option<usize>,
    // Results.
    delta_sum: f64,
    delta_in_sum: f64,
    stress_sum: f64,
    done: bool,
}

impl DistBcNode {
    /// Creates the initial state for one node (id `me`) of an `n`-node
    /// network.
    pub fn new(n: usize, me: u32, opts: AlgoOptions) -> Self {
        // The index is a pure function of the (coordination-free) source
        // selection; runs share one Arc, ad-hoc constructions rebuild it.
        let src_index = opts
            .source_index
            .clone()
            .unwrap_or_else(|| Arc::new(SourceIndex::build(&opts.sources, n)));
        debug_assert_eq!(src_index.n(), n, "source index built for wrong n");
        let k = src_index.len();
        let refined = opts.estimator == Estimator::JiYan
            && matches!(opts.sources, SourceSelection::Sample { .. });
        let zero = CeilFloat::zero(opts.fp);
        DistBcNode {
            me,
            n,
            codec: Codec::new(n, opts.fp),
            sched: PhaseSchedule::new(n, opts.scheduling),
            is_source_self: src_index.contains(me),
            refined,
            seen: vec![0u64; k.div_ceil(64)],
            src: vec![
                SourceState {
                    ts: 0,
                    dist: 0,
                    pred_start: 0,
                    pred_len: 0,
                    sigma: zero,
                    psi: zero,
                };
                k
            ],
            rho: if opts.compute_stress {
                vec![zero; k]
            } else {
                Vec::new()
            },
            psi_in: if refined { vec![zero; k] } else { Vec::new() },
            pred_arena: Vec::new(),
            src_index,
            opts,
            tree_dist: None,
            parent_port: None,
            children_ports: Vec::new(),
            announce_round: None,
            children_done: 0,
            subtree_done: false,
            subtree_max_depth: 0,
            visited: false,
            wave_round: None,
            token_forward_round: None,
            next_child: 0,
            dfs_done_round: None,
            reduce_armed: false,
            reduce_sent: false,
            reduce_received: 0,
            acc_min_ts: u64::MAX,
            acc_max_ts: 0,
            acc_max_d: 0,
            agg_info: None,
            agg_schedule: Vec::new(),
            agg_cursor: 0,
            out_waves: Vec::new(),
            out_token: None,
            delta_sum: 0.0,
            delta_in_sum: 0.0,
            stress_sum: 0.0,
            done: false,
        }
    }

    /// Whether the wave of dense source `i` has reached this node.
    #[inline]
    fn seen(&self, i: u32) -> bool {
        self.seen[i as usize / 64] >> (i % 64) & 1 != 0
    }

    #[inline]
    fn mark_seen(&mut self, i: u32) {
        self.seen[i as usize / 64] |= 1 << (i % 64);
    }

    /// Extrapolation factor: `N / |S|` when sampling, 1 otherwise
    /// (explicit masks are restricted sums, not estimates).
    fn scale(&self) -> f64 {
        match self.opts.sources {
            SourceSelection::Sample { .. } => self.n as f64 / self.src_index.len() as f64,
            _ => 1.0,
        }
    }

    /// Whether this node counts as a shortest-path target.
    fn is_target(&self, me: u32) -> bool {
        self.opts.targets.as_ref().is_none_or(|m| m[me as usize])
    }

    /// Betweenness centrality of this node (paper convention: unordered
    /// pairs, i.e. the directed dependency sum halved). With sampled
    /// sources this is the `N/k`-scaled estimate.
    pub fn betweenness(&self) -> f64 {
        self.delta_sum * self.scale() / 2.0
    }

    /// Stress centrality (Eq. 3) under the same conventions, if the run
    /// computed it.
    pub fn stress(&self) -> Option<f64> {
        self.opts
            .compute_stress
            .then(|| self.stress_sum * self.scale() / 2.0)
    }

    /// Raw directed dependency sum `Σ_{s∈S} δ̂_s(v)` (unscaled).
    pub fn delta_all(&self) -> f64 {
        self.delta_sum
    }

    /// Raw in-sample-target dependency sum `Σ_{s∈S} δ̂^S_s(v)` — zero
    /// unless the run used the Ji–Yan estimator.
    pub fn delta_in(&self) -> f64 {
        self.delta_in_sum
    }

    /// Dense index of global source id `s`, if `s` is a source whose wave
    /// reached this node.
    #[inline]
    fn seen_index(&self, s: u32) -> Option<u32> {
        self.src_index.index_of(s).filter(|&i| self.seen(i))
    }

    /// `d(s, self)` for every node `s` (`None` for non-sources or, on
    /// disconnected graphs, unreachable ones).
    pub fn distances(&self) -> Vec<Option<u32>> {
        (0..self.n as u32)
            .map(|s| self.seen_index(s).map(|i| self.src[i as usize].dist))
            .collect()
    }

    /// `(Σ_s d(s,v), max_s d(s,v))` over seen sources — the O(|S|)
    /// harvest used for result assembly (no O(N) materialization).
    pub fn distance_stats(&self) -> (u64, u32) {
        let mut total = 0u64;
        let mut ecc = 0u32;
        for i in 0..self.src_index.len() as u32 {
            if self.seen(i) {
                let d = self.src[i as usize].dist;
                total += d as u64;
                ecc = ecc.max(d);
            }
        }
        (total, ecc)
    }

    /// Heap + inline bytes of this node's protocol state: the measured
    /// footprint behind the `state_bytes` telemetry. Arrays only grow over
    /// a run, so the end-of-run value is the peak. The source remap is one
    /// `Arc` shared by every node in the process, so each node carries its
    /// `1/N` share of it rather than the full `O(N)` table.
    pub fn state_bytes(&self) -> u64 {
        use std::mem::{size_of, size_of_val};
        fn heap<T>(v: &[T]) -> u64 {
            size_of_val(v) as u64
        }
        let shared_index =
            heap(self.src_index.ids()) + self.src_index.n() as u64 * size_of::<u32>() as u64;
        size_of::<Self>() as u64
            + heap(&self.seen)
            + heap(&self.src)
            + heap(&self.rho)
            + heap(&self.psi_in)
            + heap(&self.pred_arena)
            + heap(&self.agg_schedule)
            + heap(&self.children_ports)
            + shared_index.div_ceil(self.n as u64)
    }

    /// `σ̂_{s,self}` as learned during counting.
    pub fn sigma_to(&self, s: u32) -> Option<CeilFloat> {
        self.seen_index(s).map(|i| self.src[i as usize].sigma)
    }

    /// Absolute wave start round `T_s` observed for source `s`.
    pub fn ts_of(&self, s: u32) -> Option<u64> {
        self.seen_index(s).map(|i| self.src[i as usize].ts as u64)
    }

    /// The globally agreed aggregation parameters, once broadcast.
    pub fn agg_info(&self) -> Option<AggInfo> {
        self.agg_info
    }

    /// Network diameter as broadcast by the root (exact with
    /// [`SourceSelection::All`]; a lower bound under sampling).
    pub fn diameter(&self) -> Option<u32> {
        self.agg_info.map(|i| i.d)
    }

    /// Port of the tree parent (None for the root).
    pub fn tree_parent(&self) -> Option<usize> {
        self.parent_port
    }

    /// The windows this node runs under: the depth-aware ones once it has
    /// heard the tree depth, the N-only ones otherwise.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.sched
    }

    /// Number of BFS sources in this run.
    pub fn source_count(&self) -> usize {
        self.src_index.len()
    }

    /// The round the DFS token returned to the root (root only): the
    /// *actual* end of the counting phase, as opposed to the provisioned
    /// window.
    pub fn dfs_done_round(&self) -> Option<u64> {
        self.dfs_done_round
    }

    fn send_pm(&self, ctx: &mut RoundCtx<'_>, port: usize, msg: &ProtocolMsg) {
        ctx.send(port, self.codec.encode(msg));
    }

    /// Sends `msg` to every tree child, encoded once.
    fn send_to_children(&self, ctx: &mut RoundCtx<'_>, msg: &ProtocolMsg) {
        let msg = self.codec.encode(msg);
        for &port in &self.children_ports {
            ctx.send(port, msg.clone());
        }
    }

    /// Phase A: adopt a tree depth and announce it (flagging the parent).
    fn announce_tree(&mut self, ctx: &mut RoundCtx<'_>, r: u64, dist: u32) {
        ctx.trace(ProtocolDetail::PhaseEnter { phase: 'A' });
        self.tree_dist = Some(dist);
        self.announce_round = Some(r);
        self.subtree_max_depth = dist;
        let announce = |chooses_you| {
            self.codec
                .encode(&ProtocolMsg::TreeAnnounce { dist, chooses_you })
        };
        let plain = announce(false);
        for port in 0..ctx.degree() {
            let msg = if Some(port) == self.parent_port {
                announce(true)
            } else {
                plain.clone()
            };
            ctx.send(port, msg);
        }
    }

    /// Phase-A convergecast: once this node's children are known (exactly
    /// two rounds after its announce) and all have reported, report the
    /// subtree's depth upward — or, at the root, adopt the depth-aware
    /// windows. A subtree deeper than [`PhaseSchedule::depth_limit`]
    /// already forces the N-only windows, so it reports nothing; every
    /// report is then sent before the N-only counting start, where no
    /// wave or token can share its edge.
    fn maybe_finish_tree(&mut self, ctx: &mut RoundCtx<'_>, r: u64) {
        let Some(announced) = self.announce_round else {
            return;
        };
        if self.subtree_done || r < announced + 2 || self.children_done < self.children_ports.len()
        {
            return;
        }
        self.subtree_done = true;
        if PhaseSchedule::depth_limit(self.n, self.opts.scheduling)
            .is_none_or(|limit| self.subtree_max_depth > limit)
        {
            return;
        }
        match self.parent_port {
            Some(p) => {
                let msg = ProtocolMsg::SubtreeDone {
                    max_depth: self.subtree_max_depth,
                };
                self.send_pm(ctx, p, &msg);
            }
            None => self.adopt_depth(ctx, self.subtree_max_depth),
        }
    }

    /// Switches to the depth-aware windows for tree depth `h` and floods
    /// `h` on down the tree.
    fn adopt_depth(&mut self, ctx: &mut RoundCtx<'_>, h: u32) {
        self.sched =
            PhaseSchedule::for_depth(self.n, self.opts.scheduling, self.src_index.len(), h);
        self.send_to_children(ctx, &ProtocolMsg::TreeDepth { depth: h });
    }

    /// Arms the reduce convergecast: local (min, max) of wave start times
    /// and the local max distance (all waves are complete by now).
    fn arm_reduce(&mut self, ctx: &mut RoundCtx<'_>) {
        if self.reduce_armed {
            return;
        }
        self.reduce_armed = true;
        ctx.trace(ProtocolDetail::PhaseEnter { phase: 'C' });
        for i in 0..self.src_index.len() as u32 {
            if self.seen(i) {
                let rec = &self.src[i as usize];
                self.acc_min_ts = self.acc_min_ts.min(rec.ts as u64);
                self.acc_max_ts = self.acc_max_ts.max(rec.ts as u64);
                self.acc_max_d = self.acc_max_d.max(rec.dist);
            }
        }
    }

    /// Phase B: broadcast this node's own BFS wave and register itself as a
    /// source (Algorithm 2 lines 2–6).
    fn start_own_wave(&mut self, ctx: &mut RoundCtx<'_>, r: u64) {
        ctx.trace(ProtocolDetail::WaveStart { ts: r });
        let one = CeilFloat::one(self.codec.fp);
        let i = self
            .src_index
            .index_of(ctx.id())
            .expect("own wave from a non-source") as usize;
        let rec = &mut self.src[i];
        rec.ts = wave_start(r);
        rec.dist = 0;
        rec.pred_start = self.pred_arena.len() as u32;
        rec.pred_len = 0;
        rec.sigma = one;
        self.mark_seen(i as u32);
        self.out_waves.push((ctx.id(), 0, one));
    }

    /// Phase B: move the DFS token onward — next unvisited child, else back
    /// to the parent, else (at the root) the traversal is complete. The
    /// move is staged; [`DistBcNode::flush_counting_sends`] merges it with
    /// a same-edge wave if one is staged this round.
    fn forward_token(&mut self, r: u64) {
        debug_assert!(self.out_token.is_none(), "token moved twice in a round");
        if self.next_child < self.children_ports.len() {
            let port = self.children_ports[self.next_child];
            self.next_child += 1;
            self.out_token = Some(port);
        } else if let Some(p) = self.parent_port {
            self.out_token = Some(p);
        } else {
            self.dfs_done_round = Some(r);
        }
    }

    /// Ships this round's staged counting-phase messages: each wave
    /// encoded once and sent on every port, the token merged into a wave
    /// on its edge (`WaveWithToken`) when possible.
    fn flush_counting_sends(&mut self, ctx: &mut RoundCtx<'_>) {
        let token_port = self.out_token.take();
        if let Some(port) = token_port {
            let to = ctx.neighbor(port);
            ctx.trace(ProtocolDetail::TokenSend { to });
        }
        let mut token_merged = false;
        for &(source, sender_dist, sigma) in &self.out_waves {
            let wave = self.codec.encode(&ProtocolMsg::Wave {
                source,
                sender_dist,
                sigma,
            });
            for port in 0..ctx.degree() {
                let msg = if token_port == Some(port) {
                    token_merged = true;
                    self.codec.encode(&ProtocolMsg::WaveWithToken {
                        source,
                        sender_dist,
                        sigma,
                    })
                } else {
                    wave.clone()
                };
                ctx.send(port, msg);
            }
        }
        self.out_waves.clear();
        if let (Some(port), false) = (token_port, token_merged) {
            self.send_pm(ctx, port, &ProtocolMsg::Token);
        }
    }

    /// Phase B, while decoding the inbox: a wave for dense source `i`,
    /// not seen before this round, from the predecessor on `port`. The
    /// record accumulates σ̂ in inbox order (ceiling rounding is not
    /// associative, so the order is part of the result) and counts the
    /// predecessor. The first such source of the round (`fresh`) appends
    /// its ports to the arena directly; Lemma 4 admits no second one, so
    /// further sources — only on a collided schedule — park their ports in
    /// `more` until [`DistBcNode::absorb_fresh`] lays them out.
    fn first_contact(
        &mut self,
        i: u32,
        port: usize,
        sender_dist: u32,
        sigma: CeilFloat,
        fresh: &mut Option<u32>,
        more: &mut Vec<(u32, u32)>,
    ) {
        let (direct, new) = match *fresh {
            None => {
                *fresh = Some(i);
                (true, true)
            }
            Some(f) => (f == i, f != i && more.iter().all(|&(j, _)| j != i)),
        };
        let rec = &mut self.src[i as usize];
        if new {
            rec.dist = sender_dist + 1;
            // Final for the direct source; `absorb_fresh` moves the others.
            rec.pred_start = self.pred_arena.len() as u32;
            rec.pred_len = 0;
            rec.sigma = CeilFloat::zero(self.codec.fp);
        }
        debug_assert_eq!(rec.dist, sender_dist + 1, "mixed-distance wave batch");
        rec.sigma += sigma;
        rec.pred_len += 1;
        if direct {
            self.pred_arena.push(port as u32);
        } else {
            more.push((i, port as u32));
        }
    }

    /// Phase B, after decoding: registers this round's first-contact
    /// sources (see [`DistBcNode::first_contact`]) in order of first
    /// appearance and stages their rebroadcasts.
    fn absorb_fresh(&mut self, r: u64, fresh: Option<u32>, more: &[(u32, u32)]) {
        let Some(first) = fresh else { return };
        self.absorb_wave(r, first);
        for (k, &(i, _)) in more.iter().enumerate() {
            if more[..k].iter().all(|&(j, _)| j != i) {
                self.src[i as usize].pred_start = self.pred_arena.len() as u32;
                let ports = more[k..].iter().filter(|&&(j, _)| j == i);
                self.pred_arena.extend(ports.map(|&(_, port)| port));
                self.absorb_wave(r, i);
            }
        }
    }

    /// Phase B: source `i`'s wave has reached this node (Algorithm 2
    /// lines 8–12); record `T_s` and stage the rebroadcast.
    fn absorb_wave(&mut self, r: u64, i: u32) {
        let rec = &mut self.src[i as usize];
        rec.ts = wave_start(r - rec.dist as u64);
        let (dist, sigma) = (rec.dist, rec.sigma);
        self.mark_seen(i);
        self.out_waves.push((self.src_index.id_of(i), dist, sigma));
    }

    /// Phase C1: send the subtree extrema to the parent once armed and all
    /// children reported; the root finalizes the global `AggInfo` instead.
    fn maybe_finish_reduce(&mut self, ctx: &mut RoundCtx<'_>) {
        if self.reduce_sent
            || !self.reduce_armed
            || self.reduce_received < self.children_ports.len()
        {
            return;
        }
        self.reduce_sent = true;
        if let Some(p) = self.parent_port {
            let msg = ProtocolMsg::Reduce {
                min_ts: self.acc_min_ts,
                max_ts: self.acc_max_ts,
                max_d: self.acc_max_d,
            };
            self.send_pm(ctx, p, &msg);
        } else {
            // Root: the reduced triple is global.
            self.agg_info = Some(AggInfo {
                base: self.sched.agg_start,
                min_ts: self.acc_min_ts,
                max_ts: self.acc_max_ts,
                d: self.acc_max_d,
            });
        }
    }

    /// The send round of the next scheduled source, if any.
    fn next_agg_round(&self) -> Option<u64> {
        let info = self.agg_info.as_ref()?;
        let &i = self.agg_schedule.get(self.agg_cursor)?;
        Some(info.send_round(&self.src[i as usize]))
    }

    /// Phase C2/D setup: with the global [`AggInfo`] known, order this
    /// node's seen sources by aggregation send round. Counting is over, so
    /// the predecessor arena is final: it is shrunk to fit first.
    fn build_agg_schedule(&mut self, my_id: u32) {
        let info = self.agg_info.expect("agg info set");
        self.pred_arena.shrink_to_fit();
        let k = self.src_index.len() as u32;
        let scheduled = |i: &u32| self.seen(*i) && self.src_index.id_of(*i) != my_id;
        let mut schedule = Vec::with_capacity((0..k).filter(scheduled).count());
        schedule.extend((0..k).filter(scheduled));
        // Keys are unique (one entry per source): ascending rounds,
        // ascending ids within a round — the bit-identity-critical send
        // order.
        schedule.sort_unstable_by_key(|&i| (info.send_round(&self.src[i as usize]), i));
        self.agg_schedule = schedule;
    }

    /// Phase D: finalize dense source `i` (its ψ/ρ are complete), add its
    /// dependency contributions, and ship the values to the predecessors.
    fn aggregate_and_send(&mut self, ctx: &mut RoundCtx<'_>, i: u32) {
        let s = self.src_index.id_of(i);
        ctx.trace(ProtocolDetail::AggSend { source: s });
        let zero = CeilFloat::zero(self.codec.fp);
        let one = CeilFloat::one(self.codec.fp);
        let is_target = self.is_target(ctx.id());
        debug_assert!(self.seen(i), "scheduled source was seen");
        let i = i as usize;
        let SourceState {
            sigma,
            psi,
            pred_start,
            pred_len,
            ..
        } = self.src[i];
        // δ̂_s·(u) = ψ̂_s(u)·σ̂_su — ψ is complete at this round (all
        // descendants sent one round earlier).
        self.delta_sum += (psi * sigma).to_f64();
        // The own-term of Eq. 14 (1/σ) is contributed only by targets:
        // restricting it projects out virtual nodes in the weighted
        // extension.
        let own_psi = if is_target { sigma.recip() } else { zero };
        let psi_msg = own_psi + psi;
        let msg = if self.opts.compute_stress {
            let rho = self.rho[i];
            self.stress_sum += (rho * sigma).to_f64();
            let own_rho = if is_target { one } else { zero };
            ProtocolMsg::AggWithStress {
                source: s,
                psi: psi_msg,
                rho: own_rho + rho,
            }
        } else if self.refined {
            // Ji–Yan: the ψ_in own-term is emitted only when this node is
            // itself in the sample (targets restricted to S).
            let psi_in = self.psi_in[i];
            self.delta_in_sum += (psi_in * sigma).to_f64();
            let own_in = if is_target && self.is_source_self {
                sigma.recip()
            } else {
                zero
            };
            ProtocolMsg::AggRefined {
                source: s,
                psi: psi_msg,
                psi_in: own_in + psi_in,
            }
        } else {
            ProtocolMsg::Agg {
                source: s,
                value: psi_msg,
            }
        };
        let msg = self.codec.encode(&msg);
        for &port in &self.pred_arena[pred_start as usize..][..pred_len as usize] {
            ctx.send(port as usize, msg.clone());
        }
    }

    /// Extracts the (uniform) announced depth from this round's
    /// tree-announce messages.
    fn tree_dist_from_inbox(&self, inbox: &[(usize, Message)]) -> u32 {
        for (_, raw) in inbox {
            if let Ok(ProtocolMsg::TreeAnnounce { dist, .. }) = self.codec.decode(raw) {
                return dist + 1;
            }
        }
        unreachable!("caller guarantees an announce is present")
    }
}

/// A wave start round `T_s` as stored in [`SourceState`]. Planning
/// rejects any schedule whose counting window ends past `u32::MAX`.
fn wave_start(round: u64) -> u32 {
    u32::try_from(round).expect("wave start inside the planned counting window")
}

impl Protocol for DistBcNode {
    fn round(&mut self, ctx: &mut RoundCtx<'_>, inbox: &[(usize, Message)]) {
        let r = ctx.round();
        let my_id = ctx.id();

        // ---- 1. Decode and dispatch the inbox. -------------------------
        // First-contact sources of this round (see `first_contact`); `more`
        // stays empty, and allocates nothing, on a collision-free schedule.
        let mut fresh: Option<u32> = None;
        let mut more: Vec<(u32, u32)> = Vec::new();
        let mut token_arrived = false;
        let mut got_agg_start: Option<AggInfo> = None;
        let mut got_depth: Option<u32> = None;
        let mut first_announce: Option<usize> = None;
        for (port, raw) in inbox {
            // A corrupt payload becomes a CongestError::NodePanic naming
            // this node and round, not a process abort.
            let decoded = match self.codec.decode(raw) {
                Ok(m) => m,
                Err(e) => panic!("undecodable message on port {port}: {e}"),
            };
            match decoded {
                ProtocolMsg::TreeAnnounce {
                    dist: _,
                    chooses_you,
                } => {
                    if chooses_you {
                        self.children_ports.push(*port);
                    }
                    if self.tree_dist.is_none() && first_announce.is_none() {
                        first_announce = Some(*port);
                    }
                }
                ProtocolMsg::Token => token_arrived = true,
                decoded @ (ProtocolMsg::Wave {
                    source,
                    sender_dist,
                    sigma,
                }
                | ProtocolMsg::WaveWithToken {
                    source,
                    sender_dist,
                    sigma,
                }) => {
                    if matches!(decoded, ProtocolMsg::WaveWithToken { .. }) {
                        token_arrived = true;
                    }
                    // Waves for unindexed ids (possible only via best-effort
                    // corruption) are dropped: there is no slot to store
                    // them, and they can't be legitimate first contacts.
                    if let Some(i) = self.src_index.index_of(source).filter(|&i| !self.seen(i)) {
                        self.first_contact(i, *port, sender_dist, sigma, &mut fresh, &mut more);
                    }
                }
                ProtocolMsg::Reduce {
                    min_ts,
                    max_ts,
                    max_d,
                } => {
                    self.reduce_received += 1;
                    self.acc_min_ts = self.acc_min_ts.min(min_ts);
                    self.acc_max_ts = self.acc_max_ts.max(max_ts);
                    self.acc_max_d = self.acc_max_d.max(max_d);
                }
                ProtocolMsg::AggStart {
                    base,
                    min_ts,
                    max_ts,
                    d,
                } => {
                    got_agg_start = Some(AggInfo {
                        base,
                        min_ts,
                        max_ts,
                        d,
                    });
                }
                ProtocolMsg::TreeDepth { depth } => got_depth = Some(depth),
                ProtocolMsg::SubtreeDone { max_depth } => {
                    self.children_done += 1;
                    self.subtree_max_depth = self.subtree_max_depth.max(max_depth);
                }
                ProtocolMsg::Agg { source, value } => {
                    if let Some(i) = self.seen_index(source) {
                        self.src[i as usize].psi += value;
                    }
                }
                ProtocolMsg::AggWithStress { source, psi, rho } => {
                    if let Some(i) = self.seen_index(source) {
                        self.src[i as usize].psi += psi;
                        if self.opts.compute_stress {
                            self.rho[i as usize] += rho;
                        }
                    }
                }
                ProtocolMsg::AggRefined {
                    source,
                    psi,
                    psi_in,
                } => {
                    if let Some(i) = self.seen_index(source) {
                        self.src[i as usize].psi += psi;
                        if self.refined {
                            self.psi_in[i as usize] += psi_in;
                        }
                    }
                }
            }
        }

        // ---- 2. Phase A: tree build. ------------------------------------
        if r == 0 && my_id == 0 {
            self.announce_tree(ctx, r, 0);
        } else if let (None, Some(port)) = (self.tree_dist, first_announce) {
            // All announces in one round carry the same depth (synchronous
            // BFS); adopt the lowest-port sender as parent.
            self.parent_port = Some(port);
            let dist = self.tree_dist_from_inbox(inbox);
            self.announce_tree(ctx, r, dist);
        }
        self.maybe_finish_tree(ctx, r);
        if let Some(h) = got_depth {
            self.adopt_depth(ctx, h);
        }

        // ---- 3. Phase B: counting. --------------------------------------
        if token_arrived {
            ctx.trace(ProtocolDetail::TokenReceive);
        }
        match self.opts.scheduling {
            Scheduling::DfsPipelined => {
                let virtual_root_arrival =
                    r == self.sched.counting_start && my_id == 0 && !self.visited;
                if token_arrived || virtual_root_arrival {
                    if self.visited {
                        // Returning token: forward immediately (staged; it
                        // merges with this round's wave rebroadcasts).
                        self.forward_token(r);
                    } else {
                        self.visited = true;
                        ctx.trace(ProtocolDetail::PhaseEnter { phase: 'B' });
                        if self.is_source_self {
                            // Wait one slot, then wave with the token
                            // riding it — the paper's T_next = T_prev + d + 1
                            // spacing.
                            self.wave_round = Some(r + 1);
                            self.token_forward_round = Some(r + 1);
                        } else {
                            // Sampled out: relay the token without delay.
                            self.forward_token(r);
                        }
                    }
                }
            }
            Scheduling::Sequential => {
                if r >= self.sched.counting_start && self.wave_round.is_none() {
                    // Sources wave in ascending-id order; the dense index
                    // is exactly this node's rank among sources.
                    if let Some(rank) = self.src_index.index_of(my_id) {
                        self.wave_round = Some(self.sched.sequential_ts(rank as u64));
                    }
                }
            }
        }
        self.absorb_fresh(r, fresh, &more);
        if self.wave_round == Some(r) {
            self.start_own_wave(ctx, r);
        }
        if self.token_forward_round == Some(r) {
            self.token_forward_round = None;
            self.forward_token(r);
        }
        self.flush_counting_sends(ctx);

        // ---- 4. Phase C: reduce and broadcast. --------------------------
        if r == self.sched.reduce_start {
            self.arm_reduce(ctx);
        }
        if self.agg_info.is_none() {
            self.maybe_finish_reduce(ctx);
        }
        // The root broadcasts in its window; everyone else relays on
        // receipt.
        let root_broadcast = my_id == 0 && r == self.sched.broadcast_start;
        debug_assert!(
            !root_broadcast || self.agg_info.is_some(),
            "root reduce incomplete"
        );
        if got_agg_start.is_some() {
            self.agg_info = got_agg_start;
        }
        if root_broadcast || got_agg_start.is_some() {
            if let Some(info) = self.agg_info {
                let msg = ProtocolMsg::AggStart {
                    base: info.base,
                    min_ts: info.min_ts,
                    max_ts: info.max_ts,
                    d: info.d,
                };
                self.send_to_children(ctx, &msg);
                ctx.trace(ProtocolDetail::PhaseEnter { phase: 'D' });
                self.build_agg_schedule(my_id);
            }
        }

        // ---- 5. Phase D: aggregation. -----------------------------------
        while let Some(round) = self.next_agg_round() {
            if round != r {
                debug_assert!(round > r, "missed aggregation slot");
                break;
            }
            let i = self.agg_schedule[self.agg_cursor];
            self.agg_cursor += 1;
            self.aggregate_and_send(ctx, i);
        }
        if let Some(info) = self.agg_info {
            if r >= info.end_round() {
                self.done = true;
            }
        }
    }

    fn is_halted(&self) -> bool {
        self.done
    }

    /// The next round `≥ r` in which `round` with an empty inbox does
    /// something. Each candidate below mirrors one self-timed trigger in
    /// [`DistBcNode::round`]: a trigger at a fixed round `X` contributes
    /// `X` until it has passed, one that holds from `X` on contributes
    /// `max(X, r)`, and one that depends on state alone contributes `r`.
    /// Message-driven work needs no candidate: the engine steps every node
    /// with mail.
    fn next_wake(&self, r: u64) -> Option<u64> {
        // Plain minima over `u64`, `NONE` standing for no candidate: a
        // polling engine asks this of every idle node in every round.
        const NONE: u64 = u64::MAX;
        let at = |x: u64| if x >= r { x } else { NONE };
        let root = self.me == 0;
        let mut wake = NONE;
        // Phase A: the root kicks off the tree at round 0; the convergecast
        // reports two rounds after a node's own announce, once every child
        // has.
        if root {
            wake = wake.min(at(0));
        }
        if let Some(a) = self.announce_round {
            if !self.subtree_done && self.children_done >= self.children_ports.len() {
                wake = wake.min((a + 2).max(r));
            }
        }
        // Phase B: self-timed wave starts and token forwards.
        match self.opts.scheduling {
            Scheduling::DfsPipelined if root && !self.visited => {
                wake = wake.min(at(self.sched.counting_start));
            }
            Scheduling::Sequential if self.wave_round.is_none() && self.is_source_self => {
                wake = wake.min(self.sched.counting_start.max(r));
            }
            _ => {}
        }
        if let Some(x) = self.wave_round {
            wake = wake.min(at(x));
        }
        if let Some(x) = self.token_forward_round {
            wake = wake.min(at(x));
        }
        // Phase C: reduce arming and the root's broadcast trigger.
        wake = wake.min(at(self.sched.reduce_start));
        if root {
            wake = wake.min(at(self.sched.broadcast_start));
        }
        if self.agg_info.is_none()
            && self.reduce_armed
            && !self.reduce_sent
            && self.reduce_received >= self.children_ports.len()
        {
            wake = wake.min(r);
        }
        // Phase D: scheduled aggregation slots and the halting round.
        if let Some(x) = self.next_agg_round() {
            wake = wake.min(at(x));
        }
        if let (Some(info), false) = (self.agg_info, self.done) {
            wake = wake.min(info.end_round().max(r));
        }
        (wake != NONE).then_some(wake)
    }
}

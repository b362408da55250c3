//! Global round schedule of the distributed algorithm.
//!
//! Phases:
//!
//! * **A — tree build** `[0, counting_start)`: BFS tree rooted at node 0
//!   (the paper roots it at an arbitrary vertex), closed by a subtree-done
//!   convergecast that tells the root the tree depth `h`.
//! * **B — counting** (Algorithm 2) `[counting_start, reduce_start)`: a DFS
//!   token walks the tree; each first visit launches one pipelined BFS
//!   wave that computes `T_s`, `d(s,v)`, `σ_sv`, `P_s(v)` everywhere.
//! * **C1 — reduce** `[reduce_start, broadcast_start)`: convergecast of
//!   `(max T_s, D)` to the root (the paper's Algorithm 2 line 22).
//! * **C2 — broadcast** `[broadcast_start, agg_start)`: the root floods
//!   `(max T_s, D)` so every node can compute Algorithm 3's send times.
//! * **D — aggregation** (Algorithm 3) `[agg_start, …)`: node `u` sends,
//!   for each source `s`, at `agg_start + (T_s − min T_s) + D − d(s,u)` —
//!   a uniform shift of the paper's `T_s(u) = T_s + D − d(s,u)`, which
//!   preserves the collision-freeness argument of Lemma 4 (only
//!   differences of send times appear in it).
//!
//! # Windows
//!
//! Every node knows `N` and the source count `k = |S|` (the sample is a
//! pure function of its seed). The root learns `h` when the convergecast
//! completes, in round `2h + 2`, and floods it down the tree once; from
//! then on every boundary is a pure function of `(N, k, h)`
//! ([`PhaseSchedule::for_depth`]), so no further synchronization
//! messages are needed:
//!
//! * `counting_start = 2h + 3`: one round after the flood leaves the
//!   root, so the flood stays a hop ahead of the DFS token and its waves
//!   and never shares an edge with them;
//! * `reduce_start = counting_start + 2(N − 1) + k + 2h`: the token's tour
//!   takes exactly `2(N − 1) + k` rounds (one per tree edge each way, plus
//!   one wait slot per source), and the last wave drains within
//!   `ecc(s) ≤ 2h` more;
//! * `broadcast_start = reduce_start + h` (convergecast up `h` levels);
//! * `agg_start = broadcast_start + h` (flood down `h` levels).
//!
//! That is `2N + k + O(h)` rounds through the reduce and, with the
//! aggregation's `T_s` spread of at most `2(N − 1) + k`, about
//! `4N + 2k + O(h)` in total — `≈ 6N` with all sources.
//!
//! The flood must reach every node, by round `3h + 2`, before round
//! `N + 2`. Where it cannot (`3h + 2 ≥ N + 2`, e.g. on a path), the root
//! does not flood, and every node keeps the N-only windows of
//! [`PhaseSchedule::new`], which size every phase for `D = N − 1`. A
//! subtree deeper than [`PhaseSchedule::depth_limit`] already decides
//! that, so it reports nothing and the convergecast falls silent before
//! the N-only counting start. The depth-aware windows never exceed the
//! N-only ones, so no graph takes more rounds than under N-only windows.
//!
//! Both choices shift every `T_s` by one constant. Lemma 4 and the
//! aggregation order use only differences of send times, so the scores
//! are bit-identical under either set of windows.
//!
//! Every bound is `O(N)` for [`Scheduling::DfsPipelined`], giving the
//! paper's `O(N)` total; the [`Scheduling::Sequential`] baseline provisions
//! `Θ(N²)` counting rounds (one BFS at a time) and always runs N-only
//! windows, which is exactly the ablation E10a measures.

use bc_congest::Telemetry;
use bc_graph::{algo, Graph};

/// Counting-phase scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// The paper's Algorithm 2: DFS-token-driven pipelined BFS waves;
    /// counting completes in `O(N)` rounds. Phase windows are sized from
    /// the BFS-tree depth where it is small enough (see the module doc),
    /// and from `N` alone otherwise.
    #[default]
    DfsPipelined,
    /// Strawman baseline: sources run their BFS one at a time in fixed
    /// `N + 2`-round slots; counting takes `Θ(N²)` rounds. Used by the
    /// E10a ablation to show what the pipelining buys.
    Sequential,
}

/// The deterministic phase boundaries of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSchedule {
    /// Number of nodes.
    pub n: u64,
    /// Scheduling discipline.
    pub mode: Scheduling,
    /// First round of the counting phase (phase A occupies `[0, this)`).
    pub counting_start: u64,
    /// First round of the reduce convergecast; all waves and the DFS token
    /// are provably finished before this round.
    pub reduce_start: u64,
    /// Round in which the root broadcasts `(max T_s, D)`.
    pub broadcast_start: u64,
    /// Base round of the aggregation phase.
    pub agg_start: u64,
}

impl PhaseSchedule {
    /// The N-only windows for `n` nodes: every phase sized for a tree and
    /// a diameter of depth `n − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, mode: Scheduling) -> Self {
        assert!(n > 0, "schedule for an empty network");
        let n64 = n as u64;
        // Phase A: announcements reach depth ≤ n−1 by round n−1; parent
        // choices arrive one round later; +2 margin.
        let counting_start = n64 + 2;
        // Phase B window:
        // DfsPipelined: each of the n first visits costs 2 rounds (arrive,
        // wave with the token riding it) and each of the n−1 up-moves 1
        // round ⇒ token done by counting_start + 3n; last wave drains in
        // ≤ n more rounds; +8 margin.
        // Sequential: n slots of (n + 2) rounds each, +8 margin.
        let counting_window = match mode {
            Scheduling::DfsPipelined => 4 * n64 + 8,
            Scheduling::Sequential => n64 * (n64 + 2) + n64 + 8,
        };
        let reduce_start = counting_start + counting_window;
        // Convergecast depth ≤ n; +2 margin.
        let broadcast_start = reduce_start + n64 + 2;
        // Downward flood depth ≤ n; +2 margin.
        let agg_start = broadcast_start + n64 + 2;
        PhaseSchedule {
            n: n64,
            mode,
            counting_start,
            reduce_start,
            broadcast_start,
            agg_start,
        }
    }

    /// The largest BFS-tree depth that gets depth-aware windows: the
    /// depth flood, launched in round `2h + 2`, reaches depth `h` in
    /// round `3h + 2`, which must come before the N-only counting start
    /// `n + 2`. `None` for [`Scheduling::Sequential`], which always runs
    /// N-only windows.
    pub fn depth_limit(n: usize, mode: Scheduling) -> Option<u32> {
        match mode {
            Scheduling::DfsPipelined => Some((n.saturating_sub(1) / 3) as u32),
            Scheduling::Sequential => None,
        }
    }

    /// The windows of a run on `n` nodes with `k` sources whose BFS tree
    /// from node 0 has depth `h`: depth-aware if `h` is within
    /// [`PhaseSchedule::depth_limit`], else [`PhaseSchedule::new`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn for_depth(n: usize, mode: Scheduling, k: usize, h: u32) -> Self {
        let fallback = PhaseSchedule::new(n, mode);
        if Self::depth_limit(n, mode).is_none_or(|limit| h > limit) {
            return fallback;
        }
        let (n64, h) = (n as u64, h as u64);
        let counting_start = 2 * h + 3;
        let reduce_start = counting_start + 2 * (n64 - 1) + k as u64 + 2 * h;
        let broadcast_start = reduce_start + h;
        PhaseSchedule {
            counting_start,
            reduce_start,
            broadcast_start,
            agg_start: broadcast_start + h,
            ..fallback
        }
    }

    /// The windows a run on `g` with `k` sources takes: the same pure
    /// function the nodes apply, fed the depth of the BFS tree from node 0.
    /// Drivers use it to publish the run's windows to every view.
    ///
    /// # Panics
    ///
    /// Panics if `g` has no nodes.
    pub fn for_graph(g: &Graph, mode: Scheduling, k: usize) -> Self {
        let h = algo::bfs(g, 0).eccentricity();
        Self::for_depth(g.n(), mode, k, h)
    }

    /// In sequential mode, the wave start round of source `s`: the root
    /// receives the (virtual) token at `counting_start` and waves one slot
    /// later, and each further source gets an `n + 2`-round slot.
    pub fn sequential_ts(&self, s: u64) -> u64 {
        self.counting_start + 1 + s * (self.n + 2)
    }

    /// Publishes these windows to `telemetry`'s live phase labels.
    pub fn publish(&self, telemetry: &Telemetry) {
        telemetry.set_schedule(
            self.counting_start,
            self.reduce_start,
            self.broadcast_start,
            self.agg_start,
        );
    }

    /// Engine round cap: a loose upper bound on any run under this
    /// schedule (a run ends by `agg_start + spread + D + 2`, with the
    /// `T_s` spread inside the counting window and `D < n`). The N-only
    /// cap also bounds every depth-aware run, whose windows are no
    /// later.
    pub fn max_rounds(&self) -> u64 {
        4 * (self.agg_start + (self.reduce_start - self.counting_start) + self.n) + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_monotone_and_linear() {
        for n in [1usize, 2, 5, 100, 1000] {
            let s = PhaseSchedule::new(n, Scheduling::DfsPipelined);
            assert!(s.counting_start < s.reduce_start);
            assert!(s.reduce_start < s.broadcast_start);
            assert!(s.broadcast_start < s.agg_start);
            // Linear in n: agg_start ≤ 9n + c.
            assert!(s.agg_start <= 9 * n as u64 + 32, "n={n}: {}", s.agg_start);
        }
    }

    #[test]
    fn depth_aware_windows_follow_the_formulas() {
        // BA-like: n = 512, all sources, depth 5.
        let s = PhaseSchedule::for_depth(512, Scheduling::DfsPipelined, 512, 5);
        assert_eq!(s.counting_start, 2 * 5 + 3);
        assert_eq!(s.reduce_start, 13 + 2 * 511 + 512 + 2 * 5);
        assert_eq!(s.broadcast_start, s.reduce_start + 5);
        assert_eq!(s.agg_start, s.broadcast_start + 5);
        // Sampled: only the k wait slots shrink.
        let k = PhaseSchedule::for_depth(512, Scheduling::DfsPipelined, 64, 5);
        assert_eq!(s.reduce_start - k.reduce_start, 512 - 64);
        // Sequential never leaves the N-only windows.
        assert_eq!(
            PhaseSchedule::for_depth(512, Scheduling::Sequential, 512, 5),
            PhaseSchedule::new(512, Scheduling::Sequential)
        );
    }

    #[test]
    fn depth_aware_windows_fall_back_past_the_depth_limit() {
        for n in [1usize, 2, 3, 4, 10, 64, 100, 1000] {
            let limit = PhaseSchedule::depth_limit(n, Scheduling::DfsPipelined).unwrap();
            // The flood reaches depth `limit` before the N-only counting
            // start, and depth `limit + 1` would not.
            assert!(3 * limit as u64 + 2 < n as u64 + 2, "n={n}");
            assert!(3 * (limit as u64 + 1) + 2 >= n as u64 + 2, "n={n}");
            let only_n = PhaseSchedule::new(n, Scheduling::DfsPipelined);
            let at = PhaseSchedule::for_depth(n, Scheduling::DfsPipelined, n, limit);
            assert_ne!(at, only_n, "n={n}");
            let past = PhaseSchedule::for_depth(n, Scheduling::DfsPipelined, n, limit + 1);
            assert_eq!(past, only_n, "n={n}");
        }
    }

    #[test]
    fn depth_aware_windows_never_exceed_the_n_only_windows() {
        let starts = |s: PhaseSchedule| {
            [
                s.counting_start,
                s.reduce_start,
                s.broadcast_start,
                s.agg_start,
            ]
        };
        for n in 1usize..=130 {
            let only_n = PhaseSchedule::new(n, Scheduling::DfsPipelined);
            for h in 0..n as u32 {
                for k in 0..=n {
                    let s = PhaseSchedule::for_depth(n, Scheduling::DfsPipelined, k, h);
                    let (got, cap) = (starts(s), starts(only_n));
                    assert!(
                        got.iter().zip(cap).all(|(&a, b)| a <= b),
                        "n={n} h={h} k={k}"
                    );
                    assert!(got.is_sorted(), "n={n} h={h} k={k}");
                    assert!(s.max_rounds() <= only_n.max_rounds());
                }
            }
        }
    }

    #[test]
    fn sequential_is_quadratic() {
        let s = PhaseSchedule::new(100, Scheduling::Sequential);
        assert!(s.reduce_start > 100 * 100);
        let p = PhaseSchedule::new(100, Scheduling::DfsPipelined);
        assert!(s.reduce_start > 10 * p.reduce_start);
    }

    #[test]
    fn sequential_slots_disjoint_and_ordered() {
        let s = PhaseSchedule::new(50, Scheduling::Sequential);
        for src in 0..49u64 {
            let a = s.sequential_ts(src);
            let b = s.sequential_ts(src + 1);
            // Next slot starts after the previous wave fully drained
            // (≤ n − 1 rounds of propagation).
            assert!(b > a + s.n - 1);
        }
        // Last wave drains before the reduce phase.
        assert!(s.sequential_ts(49) + s.n < s.reduce_start);
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn zero_nodes_panics() {
        let _ = PhaseSchedule::new(0, Scheduling::DfsPipelined);
    }
}

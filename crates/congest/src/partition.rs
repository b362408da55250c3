//! Node→shard assignment for the pooled and socket engines.
//!
//! [`crate::Network::run_parallel`] and the socket shards of
//! [`crate::wire`] split the node set into `min(n, k)` contiguous,
//! equal-count shards of ascending ids ([`ShardMap::new`]). The
//! assignment is *fixed for the whole run*, which is what makes message
//! routing a table lookup ([`ShardMap::shard_of`]) and keeps every
//! worker's step order (ascending node id within its shard)
//! deterministic. The assignment never changes observable output — node
//! states, metrics, and traces are bit-identical for every shard count —
//! it only changes how the per-round work spreads across the workers.

use bc_graph::NodeId;

/// Fixed node→shard assignment for one sharded run.
///
/// Invariants: shard `s` holds the ids `start(s)..start(s + 1)` with
/// `start(s) = s·⌊n/k⌋ + min(s, n mod k)`, so the first `n mod k` shards
/// hold one node more than the rest; there are exactly `min(n, k)` shards
/// and none is empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `shard_of[v]` — the worker owning node `v`.
    shard_of: Vec<u32>,
    /// `local_of[v]` — node `v`'s index within its shard's node list.
    local_of: Vec<u32>,
    /// Per-shard node ids, ascending.
    shards: Vec<Vec<NodeId>>,
}

impl ShardMap {
    /// Splits `n` node ids into `min(n, k)` contiguous shards whose sizes
    /// differ by at most one (`k = 0` counts as 1).
    pub fn new(n: usize, k: usize) -> ShardMap {
        let k = k.clamp(1, n.max(1));
        let (base, extra) = (n / k, n % k);
        let mut shard_of = Vec::with_capacity(n);
        let mut local_of = Vec::with_capacity(n);
        let mut shards = Vec::with_capacity(k);
        let mut next = 0;
        for s in 0..k.min(n) {
            let len = base + usize::from(s < extra);
            shard_of.extend(std::iter::repeat_n(s as u32, len));
            local_of.extend(0..len as u32);
            shards.push((next..next + len).map(|v| v as NodeId).collect());
            next += len;
        }
        ShardMap {
            shard_of,
            local_of,
            shards,
        }
    }

    /// Number of shards (= workers the sharded engine runs).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` for a zero-node map.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The worker owning node `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.shard_of[v as usize] as usize
    }

    /// Node `v`'s index within its owning shard.
    #[inline]
    pub fn local_of(&self, v: NodeId) -> usize {
        self.local_of[v as usize] as usize
    }

    /// Per-shard node ids, ascending within each shard.
    pub fn shards(&self) -> &[Vec<NodeId>] {
        &self.shards
    }

    /// Load skew of this map under per-node loads: `max / mean` of the
    /// per-shard load sums (1.0 = perfectly balanced). Used by
    /// `trace::stats` to report how the engine's shards would have spread
    /// an observed run.
    pub fn skew(&self, node_load: &[u64]) -> ShardSkew {
        let per_shard: Vec<u64> = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .iter()
                    .map(|&v| node_load.get(v as usize).copied().unwrap_or(0))
                    .sum()
            })
            .collect();
        let max = per_shard.iter().copied().max().unwrap_or(0);
        let total: u64 = per_shard.iter().sum();
        let mean = if per_shard.is_empty() {
            0.0
        } else {
            total as f64 / per_shard.len() as f64
        };
        ShardSkew {
            shards: per_shard.len(),
            max_load: max,
            mean_load: mean,
            skew: if mean == 0.0 { 1.0 } else { max as f64 / mean },
        }
    }
}

/// Per-shard load summary produced by [`ShardMap::skew`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSkew {
    /// Shards the load was spread over.
    pub shards: usize,
    /// Heaviest shard's load.
    pub max_load: u64,
    /// Mean shard load.
    pub mean_load: f64,
    /// `max / mean` ≥ 1; the slowest worker's stretch factor under this
    /// assignment.
    pub skew: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_are_contiguous_equal_and_indexed() {
        for n in 1..=64usize {
            for k in 1..=9usize {
                let map = ShardMap::new(n, k);
                let tag = format!("n={n} k={k}");
                assert_eq!(map.len(), n.min(k), "{tag}: shard count");
                let sizes: Vec<usize> = map.shards().iter().map(Vec::len).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(*lo >= 1 && hi - lo <= 1, "{tag}: sizes {sizes:?}");
                let ids: Vec<NodeId> = map.shards().concat();
                assert_eq!(ids, (0..n as NodeId).collect::<Vec<_>>(), "{tag}: ids");
                for (s, shard) in map.shards().iter().enumerate() {
                    for (i, &v) in shard.iter().enumerate() {
                        assert_eq!(map.shard_of(v), s, "{tag}: shard_of({v})");
                        assert_eq!(map.local_of(v), i, "{tag}: local_of({v})");
                    }
                }
                // k = 2, and every k dividing n, is the `ceil(n/k)` chunking
                // earlier engines used (golden `threads2`/`socket2` runs).
                if k == 2 || n % k == 0 {
                    let chunk = n.div_ceil(k);
                    let ceil: Vec<Vec<NodeId>> = (0..n as NodeId)
                        .collect::<Vec<_>>()
                        .chunks(chunk)
                        .map(<[NodeId]>::to_vec)
                        .collect();
                    assert_eq!(map.shards(), &ceil[..], "{tag}: ceil(n/k) split");
                }
            }
        }
    }

    #[test]
    fn zero_nodes_make_zero_shards() {
        assert!(ShardMap::new(0, 4).is_empty());
        assert_eq!(ShardMap::new(5, 0).len(), 1);
    }

    #[test]
    fn skew_of_uniform_load_is_balanced() {
        let skew = ShardMap::new(12, 4).skew(&[5u64; 12]);
        assert_eq!(skew.shards, 4);
        assert!((skew.skew - 1.0).abs() < 1e-9);
    }
}

//! Deterministic, seeded fault injection for all three round engines.
//!
//! A [`FaultPlan`] sits between node outboxes and inboxes and decides, per
//! directed edge per round, whether the message crossing it is dropped,
//! duplicated, bit-corrupted, or delayed — plus which nodes are crashed in
//! which round windows. Every decision is a **pure function** of
//! `(seed, from, to, round)`, so the shard round loop at every shard
//! count and the α-synchronizer all see the *same* fault pattern regardless of iteration order
//! or thread interleaving: a chaos run is exactly reproducible from its
//! plan string and seed.
//!
//! The plan grammar (also accepted by `distbc --faults`):
//!
//! ```text
//! drop=0.1,dup=0.05,corrupt=0.01,delay=0.1:3,crash=4@100..200,crash=7@50..
//! ```
//!
//! `delay=P:D` delays each message with probability `P` by 1–`D` extra
//! rounds; `crash=V@A..B` crash-stops node `V` from round `A` (inclusive)
//! to round `B` (exclusive; omit `B` for crash-forever).

use crate::Message;
use bc_numeric::bits::BitWriter;

/// One crash window: node `node` is down for rounds
/// `from_round..to_round` (crash-recover) or `from_round..` forever
/// (crash-stop) when `to_round` is `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node id.
    pub node: u32,
    /// First round (inclusive) in which the node is down.
    pub from_round: u64,
    /// First round in which the node is back up; `None` = never recovers.
    pub to_round: Option<u64>,
}

impl CrashWindow {
    /// True when the node is down in `round`.
    pub fn covers(&self, round: u64) -> bool {
        round >= self.from_round && self.to_round.is_none_or(|t| round < t)
    }
}

/// The outcome of [`FaultPlan::decide`] for one `(from, to, round)` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// Message is silently lost.
    pub drop: bool,
    /// Message is delivered twice.
    pub duplicate: bool,
    /// Raw entropy for bit corruption: flip bit `entropy % bit_len`.
    pub corrupt: Option<u64>,
    /// Extra delivery delay in rounds (0 = on time).
    pub delay: u64,
}

impl FaultDecision {
    /// True when no fault fires on this slot.
    pub fn is_clean(&self) -> bool {
        !self.drop && !self.duplicate && self.corrupt.is_none() && self.delay == 0
    }
}

/// A reproducible fault schedule: per-edge/per-round probabilities driven
/// by a seed, plus explicit crash windows.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every per-slot decision.
    pub seed: u64,
    /// Probability a message is dropped.
    pub drop: f64,
    /// Probability a message is delivered twice.
    pub duplicate: f64,
    /// Probability one payload bit is flipped.
    pub corrupt: f64,
    /// Probability delivery is delayed by 1–`max_delay` rounds.
    pub delay: f64,
    /// Maximum extra delay in rounds (≥ 1 when `delay > 0`).
    pub max_delay: u64,
    /// Crash-stop / crash-recover windows.
    pub crashes: Vec<CrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            max_delay: 1,
            crashes: Vec::new(),
        }
    }
}

/// Salts separating the per-decision hash streams, so e.g. the drop and
/// duplicate decisions on the same slot are independent.
const SALT_DROP: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_DUP: u64 = 0x5851_f42d_4c95_7f2d;
const SALT_CORRUPT: u64 = 0x2545_f491_4f6c_dd1d;
const SALT_DELAY: u64 = 0x1405_7b7e_f767_814f;

/// `splitmix64` finalizer: a cheap, well-mixed 64-bit hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes one `(seed, from, to, round)` slot under a salt.
fn slot_hash(seed: u64, salt: u64, from: u32, to: u32, round: u64) -> u64 {
    let a = splitmix64(seed ^ salt);
    let b = splitmix64(a ^ ((from as u64) << 32 | to as u64));
    splitmix64(b ^ round)
}

/// Converts a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// A plan with the given seed and no faults (useful as a base for
    /// struct-update syntax).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// True when no probabilistic fault can ever fire (crash windows may
    /// still exist).
    pub fn is_lossless(&self) -> bool {
        self.drop == 0.0 && self.duplicate == 0.0 && self.corrupt == 0.0 && self.delay == 0.0
    }

    /// The fault decision for the message crossing `from → to` in `round`.
    /// Pure in `(self.seed, from, to, round)` — every engine computes the
    /// same answer for the same slot, in any order, on any thread.
    pub fn decide(&self, from: u32, to: u32, round: u64) -> FaultDecision {
        let mut d = FaultDecision::default();
        if self.drop > 0.0 && unit(slot_hash(self.seed, SALT_DROP, from, to, round)) < self.drop {
            d.drop = true;
            return d; // a dropped message can suffer no further fault
        }
        if self.duplicate > 0.0
            && unit(slot_hash(self.seed, SALT_DUP, from, to, round)) < self.duplicate
        {
            d.duplicate = true;
        }
        if self.corrupt > 0.0 {
            let h = slot_hash(self.seed, SALT_CORRUPT, from, to, round);
            if unit(h) < self.corrupt {
                d.corrupt = Some(splitmix64(h));
            }
        }
        if self.delay > 0.0 && self.max_delay > 0 {
            let h = slot_hash(self.seed, SALT_DELAY, from, to, round);
            if unit(h) < self.delay {
                d.delay = 1 + splitmix64(h) % self.max_delay;
            }
        }
        d
    }

    /// True when `node` is crashed (down) in `round`.
    pub fn crashed(&self, node: u32, round: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && c.covers(round))
    }

    /// Parses the CLI plan grammar (see module docs). Returns a
    /// human-readable error for malformed specs.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec {part:?}: expected key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault spec {part:?}: bad probability {v:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault spec {part:?}: probability outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = val
                        .parse()
                        .map_err(|_| format!("fault spec {part:?}: bad seed"))?
                }
                "drop" => plan.drop = prob(val)?,
                "dup" => plan.duplicate = prob(val)?,
                "corrupt" => plan.corrupt = prob(val)?,
                "delay" => {
                    let (p, d) = val
                        .split_once(':')
                        .ok_or_else(|| format!("fault spec {part:?}: expected delay=P:D"))?;
                    plan.delay = prob(p)?;
                    plan.max_delay = d
                        .parse()
                        .map_err(|_| format!("fault spec {part:?}: bad max delay {d:?}"))?;
                    if plan.max_delay == 0 {
                        return Err(format!("fault spec {part:?}: max delay must be ≥ 1"));
                    }
                }
                "crash" => {
                    let (node, window) = val
                        .split_once('@')
                        .ok_or_else(|| format!("fault spec {part:?}: expected crash=V@A..B"))?;
                    let node: u32 = node
                        .parse()
                        .map_err(|_| format!("fault spec {part:?}: bad node id {node:?}"))?;
                    let (from, to) = window.split_once("..").ok_or_else(|| {
                        format!("fault spec {part:?}: expected round window A..B")
                    })?;
                    let from_round: u64 = from
                        .parse()
                        .map_err(|_| format!("fault spec {part:?}: bad round {from:?}"))?;
                    let to_round = if to.is_empty() {
                        None
                    } else {
                        let t: u64 = to
                            .parse()
                            .map_err(|_| format!("fault spec {part:?}: bad round {to:?}"))?;
                        if t <= from_round {
                            return Err(format!("fault spec {part:?}: empty crash window"));
                        }
                        Some(t)
                    };
                    plan.crashes.push(CrashWindow {
                        node,
                        from_round,
                        to_round,
                    });
                }
                other => return Err(format!("fault spec: unknown key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Returns `msg` with one bit flipped at `entropy % bit_len`. An empty
/// message is returned unchanged (there is no bit to flip).
pub fn corrupt_message(msg: &Message, entropy: u64) -> Message {
    let bits = msg.bit_len();
    if bits == 0 {
        return msg.clone();
    }
    let flip = (entropy % bits as u64) as usize;
    let mut r = msg.payload().reader();
    let mut w = BitWriter::new();
    let mut at = 0usize;
    while at < bits {
        let chunk = (bits - at).min(64) as u32;
        let mut v = r.read(chunk);
        if (at..at + chunk as usize).contains(&flip) {
            v ^= 1u64 << (flip - at);
        }
        w.push(v, chunk);
        at += chunk as usize;
    }
    Message::new(w.finish())
}

/// A stable 64-bit content hash of a message (FNV-1a over 64-bit chunks
/// plus the bit length) — used to tag trace events so the offline checker
/// can tell an injected duplicate from a schedule collision.
pub fn payload_hash(msg: &Message) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let bits = msg.bit_len();
    let mut h = FNV_OFFSET ^ bits as u64;
    let mut r = msg.payload().reader();
    let mut at = 0usize;
    while at < bits {
        let chunk = (bits - at).min(64) as u32;
        h = (h ^ r.read(chunk)).wrapping_mul(FNV_PRIME);
        at += chunk as usize;
    }
    h
}

/// Rebuilds a message from its bit content (identity transform) — shared
/// helper for tests that need a structurally fresh copy.
#[cfg(test)]
fn roundtrip(msg: &Message) -> Message {
    let bits = msg.bit_len();
    let mut r = msg.payload().reader();
    let mut w = BitWriter::new();
    let mut at = 0usize;
    while at < bits {
        let chunk = (bits - at).min(64) as u32;
        w.push(r.read(chunk), chunk);
        at += chunk as usize;
    }
    Message::new(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(bits: &[(u64, u32)]) -> Message {
        let mut w = BitWriter::new();
        for &(v, width) in bits {
            w.push(v, width);
        }
        Message::new(w.finish())
    }

    #[test]
    fn decisions_are_deterministic_and_slot_local() {
        let plan = FaultPlan {
            seed: 42,
            drop: 0.3,
            duplicate: 0.2,
            corrupt: 0.1,
            delay: 0.2,
            max_delay: 3,
            ..FaultPlan::default()
        };
        for round in 0..50 {
            for (from, to) in [(0u32, 1u32), (1, 0), (3, 7)] {
                let a = plan.decide(from, to, round);
                let b = plan.decide(from, to, round);
                assert_eq!(a, b);
                assert!(a.delay <= 3);
                if a.drop {
                    assert!(a.is_clean() || a.drop); // drop short-circuits
                    assert!(!a.duplicate && a.corrupt.is_none() && a.delay == 0);
                }
            }
        }
    }

    #[test]
    fn fault_rates_are_roughly_honored() {
        let plan = FaultPlan {
            seed: 7,
            drop: 0.2,
            ..FaultPlan::default()
        };
        let trials = 10_000;
        let drops = (0..trials).filter(|&r| plan.decide(0, 1, r).drop).count();
        let rate = drops as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn direction_and_seed_decorrelate() {
        let a = FaultPlan {
            seed: 1,
            drop: 0.5,
            ..FaultPlan::default()
        };
        let b = FaultPlan {
            seed: 2,
            ..a.clone()
        };
        let forward: Vec<bool> = (0..64).map(|r| a.decide(2, 3, r).drop).collect();
        let backward: Vec<bool> = (0..64).map(|r| a.decide(3, 2, r).drop).collect();
        let reseeded: Vec<bool> = (0..64).map(|r| b.decide(2, 3, r).drop).collect();
        assert_ne!(forward, backward);
        assert_ne!(forward, reseeded);
    }

    #[test]
    fn crash_windows() {
        let plan = FaultPlan {
            crashes: vec![
                CrashWindow {
                    node: 4,
                    from_round: 10,
                    to_round: Some(20),
                },
                CrashWindow {
                    node: 7,
                    from_round: 5,
                    to_round: None,
                },
            ],
            ..FaultPlan::default()
        };
        assert!(!plan.crashed(4, 9));
        assert!(plan.crashed(4, 10));
        assert!(plan.crashed(4, 19));
        assert!(!plan.crashed(4, 20));
        assert!(plan.crashed(7, 1_000_000));
        assert!(!plan.crashed(0, 10));
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=9,drop=0.1,dup=0.05,corrupt=0.01,delay=0.2:3,crash=4@100..200,crash=7@50..",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.drop, 0.1);
        assert_eq!(plan.duplicate, 0.05);
        assert_eq!(plan.corrupt, 0.01);
        assert_eq!(plan.delay, 0.2);
        assert_eq!(plan.max_delay, 3);
        assert_eq!(
            plan.crashes,
            vec![
                CrashWindow {
                    node: 4,
                    from_round: 100,
                    to_round: Some(200)
                },
                CrashWindow {
                    node: 7,
                    from_round: 50,
                    to_round: None
                },
            ]
        );
        assert!(!plan.is_lossless());
        assert!(FaultPlan::parse("").unwrap().is_lossless());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "drop",
            "drop=1.5",
            "drop=-0.1",
            "delay=0.5",
            "delay=0.5:0",
            "crash=4",
            "crash=4@10",
            "crash=4@20..10",
            "warp=0.5",
            "seed=x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let m = msg(&[(0xdead_beef, 32), (0b101, 3), (u64::MAX, 64)]);
        for entropy in [0u64, 1, 31, 32, 63, 64, 98, u64::MAX] {
            let c = corrupt_message(&m, entropy);
            assert_eq!(c.bit_len(), m.bit_len());
            assert_ne!(c, m, "entropy {entropy} flipped nothing");
            // Flipping the same bit again restores the original.
            let restored = corrupt_message(&c, entropy);
            assert_eq!(restored, m);
        }
        let empty = Message::default();
        assert_eq!(corrupt_message(&empty, 5), empty);
    }

    #[test]
    fn payload_hash_distinguishes_content_and_length() {
        let a = msg(&[(0b1011, 4)]);
        let b = msg(&[(0b1010, 4)]);
        let c = msg(&[(0b1011, 5)]);
        assert_eq!(payload_hash(&a), payload_hash(&a));
        assert_ne!(payload_hash(&a), payload_hash(&b));
        assert_ne!(payload_hash(&a), payload_hash(&c));
        assert_eq!(payload_hash(&roundtrip(&a)), payload_hash(&a));
    }
}

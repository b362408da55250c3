//! Bit-exact wire format for the protocol's messages.
//!
//! Every logical message of Algorithms 2–3 is encoded to a bit string whose
//! width is `O(log N)`: node identifiers take `⌈log₂ N⌉` bits, distances
//! one more, schedule offsets `2⌈log₂ N⌉ + 4` (enough for the sequential
//! baseline's quadratic schedule too), and σ/ψ values the `L + 16` bits of
//! [`FpParams::encoded_bits`]. The CONGEST engine charges each message its
//! exact encoded size, so Lemma 3 / Lemma 5 ("all the values sent can be
//! packed into `O(log N)` bits") is enforced rather than assumed.

use bc_congest::Message;
use bc_numeric::bits::{id_bits, BitReader, BitWriter};
use bc_numeric::{CeilFloat, FpParams};

/// Field widths for an `n`-node network with float parameters `fp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codec {
    /// Node-id width: `⌈log₂ n⌉`.
    pub id_w: u32,
    /// Distance width (distances are `< n`).
    pub dist_w: u32,
    /// Schedule-offset width (covers the sequential baseline's `Θ(n²)`
    /// offsets).
    pub ts_w: u32,
    /// Float parameters (mantissa width, rounding).
    pub fp: FpParams,
}

/// Message tag width (11 tags).
const TAG_BITS: u32 = 4;

impl Codec {
    /// Builds the codec for an `n`-node network.
    pub fn new(n: usize, fp: FpParams) -> Self {
        let id_w = id_bits(n.max(2));
        Codec {
            id_w,
            dist_w: id_w + 1,
            ts_w: 2 * id_w + 6,
            fp,
        }
    }

    /// Upper bound on any encoded message, in bits. `O(log N)`:
    /// `4 + max(3·ts_w + dist_w, id_w + dist_w + L + 16, id_w + 2(L + 16))`.
    pub fn max_message_bits(&self) -> usize {
        let body = (3 * self.ts_w + self.dist_w)
            .max(self.id_w + self.dist_w + self.fp.encoded_bits())
            .max(self.id_w + 2 * self.fp.encoded_bits());
        (TAG_BITS + body) as usize
    }

    /// Encodes a message.
    pub fn encode(&self, msg: &ProtocolMsg) -> Message {
        let mut w = BitWriter::new();
        match *msg {
            ProtocolMsg::TreeAnnounce { dist, chooses_you } => {
                w.push(0, TAG_BITS);
                w.push(dist as u64, self.dist_w);
                w.push_bool(chooses_you);
            }
            ProtocolMsg::Token => {
                w.push(1, TAG_BITS);
            }
            ProtocolMsg::Wave {
                source,
                sender_dist,
                sigma,
            } => {
                w.push(2, TAG_BITS);
                w.push(source as u64, self.id_w);
                w.push(sender_dist as u64, self.dist_w);
                w.push(sigma.encode(), self.fp.encoded_bits());
            }
            ProtocolMsg::Reduce {
                min_ts,
                max_ts,
                max_d,
            } => {
                w.push(3, TAG_BITS);
                w.push(min_ts, self.ts_w);
                w.push(max_ts, self.ts_w);
                w.push(max_d as u64, self.dist_w);
            }
            ProtocolMsg::AggStart {
                base,
                min_ts,
                max_ts,
                d,
            } => {
                w.push(4, TAG_BITS);
                w.push(base, self.ts_w);
                w.push(min_ts, self.ts_w);
                w.push(max_ts, self.ts_w);
                w.push(d as u64, self.dist_w);
            }
            ProtocolMsg::Agg { source, value } => {
                w.push(5, TAG_BITS);
                w.push(source as u64, self.id_w);
                w.push(value.encode(), self.fp.encoded_bits());
            }
            ProtocolMsg::AggWithStress { source, psi, rho } => {
                w.push(6, TAG_BITS);
                w.push(source as u64, self.id_w);
                w.push(psi.encode(), self.fp.encoded_bits());
                w.push(rho.encode(), self.fp.encoded_bits());
            }
            ProtocolMsg::TreeDepth { depth } => {
                w.push(7, TAG_BITS);
                w.push(depth as u64, self.dist_w);
            }
            ProtocolMsg::SubtreeDone { max_depth } => {
                w.push(8, TAG_BITS);
                w.push(max_depth as u64, self.dist_w);
            }
            ProtocolMsg::WaveWithToken {
                source,
                sender_dist,
                sigma,
            } => {
                w.push(9, TAG_BITS);
                w.push(source as u64, self.id_w);
                w.push(sender_dist as u64, self.dist_w);
                w.push(sigma.encode(), self.fp.encoded_bits());
            }
            ProtocolMsg::AggRefined {
                source,
                psi,
                psi_in,
            } => {
                w.push(10, TAG_BITS);
                w.push(source as u64, self.id_w);
                w.push(psi.encode(), self.fp.encoded_bits());
                w.push(psi_in.encode(), self.fp.encoded_bits());
            }
        }
        Message::new(w.finish())
    }

    /// Bits the body of a `tag` message occupies beyond the tag field, or
    /// `None` for an unknown tag.
    fn body_bits(&self, tag: u64) -> Option<u32> {
        Some(match tag {
            0 => self.dist_w + 1,
            1 => 0,
            2 | 9 => self.id_w + self.dist_w + self.fp.encoded_bits(),
            3 => 2 * self.ts_w + self.dist_w,
            4 => 3 * self.ts_w + self.dist_w,
            5 => self.id_w + self.fp.encoded_bits(),
            6 | 10 => self.id_w + 2 * self.fp.encoded_bits(),
            7 | 8 => self.dist_w,
            _ => return None,
        })
    }

    /// Reads one σ/ψ float field, rejecting bit patterns `encode` cannot
    /// produce (the unchecked decoder would assert on them).
    fn take_float(&self, r: &mut BitReader<'_>) -> Result<CeilFloat, DecodeError> {
        let raw = r.read(self.fp.encoded_bits());
        CeilFloat::try_decode(raw, self.fp).ok_or(DecodeError::BadFloat { raw })
    }

    /// Decodes a message previously encoded with the same codec.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on an unknown tag or a payload shorter
    /// than the tag's fields — a corrupt message is surfaced to the caller
    /// instead of crashing the simulator.
    pub fn decode(&self, msg: &Message) -> Result<ProtocolMsg, DecodeError> {
        let have = msg.bit_len();
        if have < TAG_BITS as usize {
            return Err(DecodeError::Truncated {
                tag: None,
                needed_bits: TAG_BITS as usize,
                have_bits: have,
            });
        }
        let mut r = msg.payload().reader();
        let tag = r.read(TAG_BITS);
        let body = self
            .body_bits(tag)
            .ok_or(DecodeError::UnknownTag { tag: tag as u8 })?;
        let needed = (TAG_BITS + body) as usize;
        if have < needed {
            return Err(DecodeError::Truncated {
                tag: Some(tag as u8),
                needed_bits: needed,
                have_bits: have,
            });
        }
        Ok(match tag {
            0 => ProtocolMsg::TreeAnnounce {
                dist: r.read(self.dist_w) as u32,
                chooses_you: r.read_bool(),
            },
            1 => ProtocolMsg::Token,
            2 => ProtocolMsg::Wave {
                source: r.read(self.id_w) as u32,
                sender_dist: r.read(self.dist_w) as u32,
                sigma: self.take_float(&mut r)?,
            },
            3 => ProtocolMsg::Reduce {
                min_ts: r.read(self.ts_w),
                max_ts: r.read(self.ts_w),
                max_d: r.read(self.dist_w) as u32,
            },
            4 => ProtocolMsg::AggStart {
                base: r.read(self.ts_w),
                min_ts: r.read(self.ts_w),
                max_ts: r.read(self.ts_w),
                d: r.read(self.dist_w) as u32,
            },
            5 => ProtocolMsg::Agg {
                source: r.read(self.id_w) as u32,
                value: self.take_float(&mut r)?,
            },
            6 => ProtocolMsg::AggWithStress {
                source: r.read(self.id_w) as u32,
                psi: self.take_float(&mut r)?,
                rho: self.take_float(&mut r)?,
            },
            7 => ProtocolMsg::TreeDepth {
                depth: r.read(self.dist_w) as u32,
            },
            8 => ProtocolMsg::SubtreeDone {
                max_depth: r.read(self.dist_w) as u32,
            },
            9 => ProtocolMsg::WaveWithToken {
                source: r.read(self.id_w) as u32,
                sender_dist: r.read(self.dist_w) as u32,
                sigma: self.take_float(&mut r)?,
            },
            10 => ProtocolMsg::AggRefined {
                source: r.read(self.id_w) as u32,
                psi: self.take_float(&mut r)?,
                psi_in: self.take_float(&mut r)?,
            },
            _ => unreachable!("body_bits vetted the tag"),
        })
    }
}

/// Why a payload failed to decode — the simulator surfaces it as a node
/// error ([`bc_congest::CongestError::NodePanic`]) instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The tag field names no protocol message.
    UnknownTag {
        /// The unrecognized tag value.
        tag: u8,
    },
    /// The payload ended before the message's fields were read.
    Truncated {
        /// The tag whose body was being read (`None`: too short for a tag).
        tag: Option<u8>,
        /// Bits the message needed in total.
        needed_bits: usize,
        /// Bits actually present.
        have_bits: usize,
    },
    /// A σ/ψ field holds a bit pattern the float encoder cannot produce.
    BadFloat {
        /// The offending field bits.
        raw: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownTag { tag } => write!(f, "unknown protocol tag {tag}"),
            DecodeError::Truncated {
                tag,
                needed_bits,
                have_bits,
            } => match tag {
                Some(tag) => write!(
                    f,
                    "truncated message: tag {tag} needs {needed_bits} bits, got {have_bits}"
                ),
                None => write!(
                    f,
                    "truncated message: {have_bits} bits is too short for a tag"
                ),
            },
            DecodeError::BadFloat { raw } => {
                write!(f, "corrupt float field {raw:#x} in message body")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The logical messages of the distributed algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolMsg {
    /// Phase A: BFS-tree construction announce; `chooses_you` marks the
    /// receiver as the sender's tree parent.
    TreeAnnounce {
        /// Sender's tree depth.
        dist: u32,
        /// Whether the receiver is the sender's chosen parent.
        chooses_you: bool,
    },
    /// Phase B: the DFS coordination token (Algorithm 2, line 1).
    Token,
    /// Phase B: a BFS wave of source `source` (Algorithm 2, lines 10–19).
    Wave {
        /// The BFS source `s`.
        source: u32,
        /// `d(s, sender)`.
        sender_dist: u32,
        /// `σ̂_{s,sender}` in the paper's floating point.
        sigma: CeilFloat,
    },
    /// Phase C1: convergecast of `(min T_s, max T_s, max d)` toward the
    /// root.
    Reduce {
        /// Minimum wave start round seen in the subtree (absolute).
        min_ts: u64,
        /// Maximum wave start round seen in the subtree (absolute).
        max_ts: u64,
        /// Maximum distance seen in the subtree (→ diameter at the root).
        max_d: u32,
    },
    /// Phase C2: root's broadcast of the aggregation base round and the
    /// global `(min T_s, max T_s, D)` that fix every send time
    /// (Algorithm 3, line 3).
    AggStart {
        /// Common base round of the aggregation phase (absolute).
        base: u64,
        /// Global minimum wave start round.
        min_ts: u64,
        /// Global maximum wave start round.
        max_ts: u64,
        /// The diameter `D`.
        d: u32,
    },
    /// Phase D: the aggregation value `1/σ̂_su + ψ̂_s(u)` sent to a
    /// predecessor (Algorithm 3, line 12).
    Agg {
        /// The source `s` this value belongs to.
        source: u32,
        /// `1/σ̂_su + ψ̂_s(u)` in the paper's floating point.
        value: CeilFloat,
    },
    /// Phase A: the root's flood of the BFS-tree depth `h`, from which
    /// every node derives the depth-aware phase windows
    /// ([`crate::PhaseSchedule::for_depth`]).
    TreeDepth {
        /// The tree depth `h` (so `D ≤ 2h`).
        depth: u32,
    },
    /// Phase A: the convergecast closing the tree build — a node reports
    /// to its parent that its whole subtree has joined the tree, carrying
    /// the subtree's maximum depth.
    SubtreeDone {
        /// Maximum tree depth within the reporting subtree.
        max_depth: u32,
    },
    /// A [`ProtocolMsg::Wave`] carrying the DFS token on the same edge in
    /// the same round (CONGEST permits one merged `O(log N)`-bit message;
    /// merging is what lets the token travel at wave speed — the paper's
    /// `T_next = T_prev + d + 1` spacing — without ever colliding).
    WaveWithToken {
        /// The BFS source `s`.
        source: u32,
        /// `d(s, sender)`.
        sender_dist: u32,
        /// `σ̂_{s,sender}`.
        sigma: CeilFloat,
    },
    /// Phase D with the stress-centrality extension enabled (the paper's
    /// footnote 3: stress "can also be computed in a similar way"): the ψ
    /// value plus the stress recursion value `1 + ρ̂_s(u)`, where
    /// `ρ_s(v) = Σ_{w: v ∈ P_s(w)} (1 + ρ_s(w))` counts shortest-path
    /// continuations below `v` and `C_S`-dependency is `σ̂_sv · ρ̂_s(v)`.
    AggWithStress {
        /// The source `s` these values belong to.
        source: u32,
        /// `1/σ̂_su + ψ̂_s(u)`.
        psi: CeilFloat,
        /// `1 + ρ̂_s(u)`.
        rho: CeilFloat,
    },
    /// Phase D with the Ji–Yan refined estimator (arXiv:1608.04472): the ψ
    /// value plus a second accumulator `ψ^S` whose own-term is emitted only
    /// by in-sample nodes — it tracks dependencies restricted to targets in
    /// `S`, letting the driver count in-sample pairs exactly and
    /// extrapolate only the remainder.
    AggRefined {
        /// The source `s` these values belong to.
        source: u32,
        /// `1/σ̂_su + ψ̂_s(u)` (all targets).
        psi: CeilFloat,
        /// `[u ∈ S]/σ̂_su + ψ̂^S_s(u)` (in-sample targets only).
        psi_in: CeilFloat,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_numeric::Rounding;

    fn codec(n: usize) -> Codec {
        Codec::new(n, FpParams::new(12, Rounding::Ceil))
    }

    #[test]
    fn roundtrip_all_variants() {
        let c = codec(100);
        let fp = c.fp;
        let sigma = CeilFloat::from_u64(123_456, fp);
        let value = CeilFloat::from_u64(7, fp).recip();
        let msgs = [
            ProtocolMsg::TreeAnnounce {
                dist: 42,
                chooses_you: true,
            },
            ProtocolMsg::TreeAnnounce {
                dist: 0,
                chooses_you: false,
            },
            ProtocolMsg::Token,
            ProtocolMsg::Wave {
                source: 99,
                sender_dist: 55,
                sigma,
            },
            ProtocolMsg::Reduce {
                min_ts: 120,
                max_ts: 40_000,
                max_d: 99,
            },
            ProtocolMsg::AggStart {
                base: 50_000,
                min_ts: 120,
                max_ts: 12_345,
                d: 31,
            },
            ProtocolMsg::Agg { source: 3, value },
            ProtocolMsg::TreeDepth { depth: 5 },
            ProtocolMsg::SubtreeDone { max_depth: 77 },
            ProtocolMsg::WaveWithToken {
                source: 12,
                sender_dist: 9,
                sigma,
            },
            ProtocolMsg::AggWithStress {
                source: 5,
                psi: value,
                rho: sigma,
            },
            ProtocolMsg::AggRefined {
                source: 8,
                psi: value,
                psi_in: value,
            },
        ];
        for m in msgs {
            let enc = c.encode(&m);
            assert_eq!(c.decode(&enc), Ok(m), "roundtrip failed for {m:?}");
            assert!(enc.bit_len() <= c.max_message_bits());
        }
    }

    #[test]
    fn sizes_are_logarithmic() {
        // Message size grows like log n, not n.
        let small = codec(16).max_message_bits();
        let large = codec(1 << 20).max_message_bits();
        assert!(large < 4 * small, "small={small}, large={large}");
        // And fits the engine's Auto budget at every scale.
        for n in [2usize, 10, 100, 1000, 100_000] {
            let c = Codec::new(n, FpParams::for_graph_size(n));
            let budget = bc_congest::Budget::Auto.resolve(n).unwrap();
            assert!(
                c.max_message_bits() <= budget,
                "n={n}: {} > {budget}",
                c.max_message_bits()
            );
        }
    }

    #[test]
    fn sequential_offsets_fit() {
        // ts field must hold the sequential baseline's Θ(n²) offsets.
        for n in [4usize, 100, 5000] {
            let c = codec(n);
            let max_off = (n as u64 + 2) * n as u64 + 16;
            assert!(max_off < (1u64 << c.ts_w), "n={n}");
        }
    }

    #[test]
    fn bad_tag_is_an_error() {
        let c = codec(8);
        let mut w = BitWriter::new();
        w.push(15, 4);
        assert_eq!(
            c.decode(&Message::new(w.finish())),
            Err(DecodeError::UnknownTag { tag: 15 })
        );
    }

    #[test]
    fn truncated_payloads_are_errors() {
        let c = codec(8);
        // Too short for even a tag.
        let mut w = BitWriter::new();
        w.push(0, 2);
        assert!(matches!(
            c.decode(&Message::new(w.finish())),
            Err(DecodeError::Truncated { tag: None, .. })
        ));
        // A valid tag whose body is cut off.
        let mut w = BitWriter::new();
        w.push(3, 4);
        w.push(0, 5);
        let err = c.decode(&Message::new(w.finish())).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { tag: Some(3), .. }));
        assert!(err.to_string().contains("truncated"), "{err}");
    }
}

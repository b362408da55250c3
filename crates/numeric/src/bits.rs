//! Bit-exact message payload packing.
//!
//! The CONGEST model charges algorithms per *bit*: each message may carry
//! only `O(log N)` of them. To make that accounting honest rather than
//! notional, every message payload in this workspace is actually serialized
//! to a bit string with [`BitWriter`] and parsed back with [`BitReader`];
//! the simulator then enforces its per-message bit budget against
//! [`BitBuf::bit_len`].
//!
//! A [`BitBuf`] of up to 192 bits keeps its words inline, so building,
//! cloning, reading and dropping an `O(log N)`-bit message never touches
//! the heap. Longer strings spill to a `Vec`; the representation is
//! invisible to every caller (`==` and `Hash` compare content).

use std::fmt;
use std::hash::{Hash, Hasher};

/// 64-bit words a [`BitBuf`] stores inline before it spills to the heap.
/// Their 192 bits cover every protocol message in the workspace and every
/// reliable frame with up to 117 payload bits.
const INLINE_WORDS: usize = 3;

/// Backing words. Bits past the string's length are always zero, and a
/// heap vector holds exactly the words the length needs.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// An immutable packed bit string (little-endian within 64-bit words).
#[derive(Clone)]
pub struct BitBuf {
    words: Words,
    bits: usize,
}

impl Default for BitBuf {
    fn default() -> Self {
        BitBuf {
            words: Words::Inline([0; INLINE_WORDS]),
            bits: 0,
        }
    }
}

impl BitBuf {
    /// The empty bit string.
    pub fn new() -> Self {
        BitBuf::default()
    }

    /// Number of bits stored.
    pub fn bit_len(&self) -> usize {
        self.bits
    }

    /// Returns `true` if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Starts reading this buffer from the beginning.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader {
            words: self.storage(),
            bits: self.bits,
            pos: 0,
        }
    }

    /// Every backing word, including zero inline words past the end.
    fn storage(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(v) => v,
        }
    }

    /// The words that hold the string's bits.
    fn used_words(&self) -> &[u64] {
        &self.storage()[..self.bits.div_ceil(64)]
    }

    /// The backing words, grown (spilling to the heap past
    /// `INLINE_WORDS` words) to hold `bits` bits.
    fn storage_for(&mut self, bits: usize) -> &mut [u64] {
        let need = bits.div_ceil(64);
        if need > INLINE_WORDS {
            if let Words::Inline(w) = self.words {
                let mut v = Vec::with_capacity(need.max(2 * INLINE_WORDS));
                v.extend_from_slice(&w);
                self.words = Words::Heap(v);
            }
        }
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(v) => {
                if v.len() < need {
                    v.resize(need, 0);
                }
                v
            }
        }
    }
}

impl PartialEq for BitBuf {
    fn eq(&self, other: &Self) -> bool {
        self.bits == other.bits && self.used_words() == other.used_words()
    }
}

impl Eq for BitBuf {}

impl Hash for BitBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.used_words().hash(state);
        self.bits.hash(state);
    }
}

impl fmt::Debug for BitBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitBuf({} bits)", self.bits)
    }
}

/// Incrementally builds a [`BitBuf`].
///
/// # Examples
///
/// ```
/// use bc_numeric::bits::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.push(0b101, 3);
/// w.push(42, 17);
/// let buf = w.finish();
/// assert_eq!(buf.bit_len(), 20);
/// let mut r = buf.reader();
/// assert_eq!(r.read(3), 0b101);
/// assert_eq!(r.read(17), 42);
/// ```
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: BitBuf,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `width` bits of `value` (most-significant-first order
    /// is *not* used; bits are stored LSB-first which round-trips with
    /// [`BitReader::read`]).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits above `width`.
    pub fn push(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "bit field wider than 64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let start = self.buf.bits;
        let end = start + width as usize;
        let words = self.buf.storage_for(end);
        let (idx, bit_pos) = (start / 64, (start % 64) as u32);
        words[idx] |= value << bit_pos;
        if bit_pos + width > 64 {
            words[idx + 1] = value >> (64 - bit_pos);
        }
        self.buf.bits = end;
    }

    /// Appends a single boolean bit.
    pub fn push_bool(&mut self, b: bool) {
        self.push(b as u64, 1);
    }

    /// Finalizes into an immutable [`BitBuf`].
    pub fn finish(self) -> BitBuf {
        self.buf
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.bits
    }
}

/// Sequential reader over a [`BitBuf`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    words: &'a [u64],
    bits: usize,
    pos: usize,
}

impl BitReader<'_> {
    /// Reads the next `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `width` bits remain or `width > 64`.
    pub fn read(&mut self, width: u32) -> u64 {
        assert!(width <= 64, "bit field wider than 64");
        assert!(
            self.pos + width as usize <= self.bits,
            "BitReader overrun: reading {width} bits at position {} of {}",
            self.pos,
            self.bits
        );
        if width == 0 {
            return 0;
        }
        let word_idx = self.pos / 64;
        let bit_pos = (self.pos % 64) as u32;
        let lo = self.words[word_idx] >> bit_pos;
        let avail = 64 - bit_pos;
        let v = if width <= avail {
            if width == 64 {
                lo
            } else {
                lo & ((1u64 << width) - 1)
            }
        } else {
            let hi = self.words[word_idx + 1] << avail;
            (lo | hi)
                & if width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                }
        };
        self.pos += width as usize;
        v
    }

    /// Reads a single boolean bit.
    pub fn read_bool(&mut self) -> bool {
        self.read(1) == 1
    }

    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bits - self.pos
    }
}

/// Number of bits needed to address values in `0..n` (at least 1).
///
/// This is the `O(log N)` node-identifier width of the CONGEST model.
///
/// ```
/// use bc_numeric::bits::id_bits;
/// assert_eq!(id_bits(1), 1);
/// assert_eq!(id_bits(2), 1);
/// assert_eq!(id_bits(5), 3);
/// assert_eq!(id_bits(1024), 10);
/// ```
pub fn id_bits(n: usize) -> u32 {
    if n <= 2 {
        1
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buf() {
        let b = BitBuf::new();
        assert!(b.is_empty());
        assert_eq!(b.bit_len(), 0);
        assert_eq!(b.reader().remaining(), 0);
    }

    #[test]
    fn single_field_roundtrip() {
        for width in 1..=64u32 {
            let value = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let mut w = BitWriter::new();
            w.push(value, width);
            let buf = w.finish();
            assert_eq!(buf.bit_len(), width as usize);
            assert_eq!(buf.reader().read(width), value);
        }
    }

    #[test]
    fn unaligned_spill_across_words() {
        let mut w = BitWriter::new();
        w.push(0x7, 3);
        w.push(0xDEAD_BEEF_CAFE_F00D & ((1 << 62) - 1), 62);
        w.push(0x3FF, 10);
        let buf = w.finish();
        let mut r = buf.reader();
        assert_eq!(r.read(3), 0x7);
        assert_eq!(r.read(62), 0xDEAD_BEEF_CAFE_F00D & ((1 << 62) - 1));
        assert_eq!(r.read(10), 0x3FF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn many_small_fields() {
        let mut w = BitWriter::new();
        for i in 0..1000u64 {
            w.push(i % 8, 3);
        }
        let buf = w.finish();
        assert_eq!(buf.bit_len(), 3000);
        let mut r = buf.reader();
        for i in 0..1000u64 {
            assert_eq!(r.read(3), i % 8);
        }
    }

    #[test]
    fn bools() {
        let mut w = BitWriter::new();
        w.push_bool(true);
        w.push_bool(false);
        w.push_bool(true);
        let buf = w.finish();
        let mut r = buf.reader();
        assert!(r.read_bool());
        assert!(!r.read_bool());
        assert!(r.read_bool());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_oversized_value_panics() {
        let mut w = BitWriter::new();
        w.push(8, 3);
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn read_overrun_panics() {
        let mut w = BitWriter::new();
        w.push(1, 1);
        let buf = w.finish();
        let mut r = buf.reader();
        let _ = r.read(2);
    }

    #[test]
    fn zero_width_noop() {
        let mut w = BitWriter::new();
        w.push(0, 0);
        let buf = w.finish();
        assert!(buf.is_empty());
        assert_eq!(buf.reader().read(0), 0);
    }

    #[test]
    fn id_bits_values() {
        assert_eq!(id_bits(0), 1);
        assert_eq!(id_bits(3), 2);
        assert_eq!(id_bits(4), 2);
        assert_eq!(id_bits(1_000_000), 20);
    }
}

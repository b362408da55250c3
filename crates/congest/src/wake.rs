//! The wake calendar: which nodes of a shard a round must visit.
//!
//! Most protocol work in a CONGEST run is either message-driven or
//! self-timed at a round the node already knows ([`Protocol::next_wake`]).
//! Scanning every node every round to find the few that act costs `O(n)`
//! per round; a [`WakeSet`] instead keeps the nodes due this round as a
//! bitset built from two sources:
//!
//! - **timers** — after a node is visited it is rescheduled from
//!   `next_wake(round + 1)`: into the next round's bitset, into the slot
//!   of its round in a timing wheel (a fixed ring of [`WHEEL`] bitsets)
//!   when that is at most `WHEEL` rounds ahead, into a `(round, node)`
//!   min-heap when it is further ahead, or nowhere if only a message can
//!   wake it. A node keeps one stored wake: rescheduling clears its old
//!   wheel bit, and a heap entry whose round no longer matches the stored
//!   one is dropped when it comes up;
//! - **mail** — the engine marks every node whose inbox received messages.
//!
//! Round `r` visits exactly the nodes with mail and the nodes whose latest
//! wake is `r`. It costs `O(due nodes + n/64)`: the round takes its wheel
//! slot and the next-round bits word by word, pops the heap entries due,
//! and walks the set bits in ascending order, so nodes are still visited
//! in id order and traces and metrics do not change. The wheel and the
//! per-node arrays are sized once from the shard; only the heap, which
//! holds the rare far-ahead wakes, can grow. The set also tracks how many
//! nodes are halted, which replaces the shard's per-round full scan for
//! quiescence.
//!
//! A round that cannot trust the calendar — a run's first round, or any
//! round the engine runs without it (faults, `skip_idle` off) — marks
//! every node due, which is the plain scan.
//!
//! [`Protocol::next_wake`]: crate::Protocol::next_wake

use crate::network::Protocol;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stored wake round of a node with no timer.
const NEVER: u64 = u64::MAX;

/// Rounds the timing wheel covers: a wake at most this far past the
/// current round takes a wheel bit, one further ahead a heap entry.
const WHEEL: u64 = 256;

/// The calendar of one shard's nodes, addressed by shard-local index.
#[derive(Debug)]
pub(crate) struct WakeSet {
    len: usize,
    /// Words per bitset.
    words: usize,
    /// Nodes due this round; [`WakeSet::next_due`] clears bits as it
    /// yields them.
    due: Vec<u64>,
    /// Nodes due next round: rescheduled for `round + 1`.
    /// The next round takes these bits whole, so a node woken every round
    /// (a polled one) needs no stored wake and no wheel slot.
    next: Vec<u64>,
    /// `WHEEL` bitsets of `words` words: slot `r % WHEEL` holds the nodes
    /// whose stored wake is round `r`, for `r` up to `WHEEL` rounds past
    /// the current one.
    wheel: Vec<u64>,
    /// Bit `s` is set iff wheel slot `s` may hold bits; a round whose slot
    /// is empty (every round of a polled shard) leaves the wheel alone.
    filled: [u64; WHEEL as usize / 64],
    /// Word of `due` that [`WakeSet::next_due`] is scanning.
    cursor: usize,
    /// Each node's stored wake round, `NEVER` if none. A node has a wheel
    /// bit only at its stored round, and a heap entry is live iff it
    /// matches it.
    at: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    halted: Vec<u64>,
    halted_count: usize,
    /// No round has run yet: the next round visits every node, and the
    /// halted count is not known yet.
    fresh: bool,
    /// This round is the run's first: every node's halted flag is read,
    /// stepped or not.
    priming: bool,
    /// This round reschedules nodes from their timers.
    calendar: bool,
}

impl WakeSet {
    pub(crate) fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        WakeSet {
            len,
            words,
            due: vec![0; words],
            next: vec![0; words],
            wheel: vec![0; WHEEL as usize * words],
            filled: [0; WHEEL as usize / 64],
            cursor: 0,
            at: vec![NEVER; len],
            heap: BinaryHeap::new(),
            halted: vec![0; words],
            halted_count: 0,
            fresh: true,
            priming: false,
            calendar: false,
        }
    }

    /// The wheel slot of `round`.
    fn slot(&mut self, round: u64) -> &mut [u64] {
        let at = (round % WHEEL) as usize * self.words;
        &mut self.wheel[at..at + self.words]
    }

    /// Sets node `i`'s bit in the wheel slot of `round`.
    fn set_slot_bit(&mut self, round: u64, i: usize) {
        let s = (round % WHEEL) as usize;
        self.filled[s / 64] |= 1 << (s % 64);
        self.slot(round)[i / 64] |= 1 << (i % 64);
    }

    /// Builds the due set of `round`. With `calendar` off every node is
    /// due, as in a run's first round; with it on, the nodes whose stored
    /// wake is this round are. Mail that arrives at the start of the round
    /// is added with [`WakeSet::mark`]. Rounds must be begun in order.
    pub(crate) fn begin_round(&mut self, round: u64, calendar: bool) {
        // A round that stopped early (a node panic) leaves `due` bits
        // behind; they are overwritten here.
        let s = (round % WHEEL) as usize;
        if self.filled[s / 64] >> (s % 64) & 1 != 0 {
            self.filled[s / 64] &= !(1 << (s % 64));
            let slot = &mut self.wheel[s * self.words..][..self.words];
            for ((due, timer), next) in self.due.iter_mut().zip(slot).zip(&mut self.next) {
                *due = std::mem::take(timer) | std::mem::take(next);
            }
        } else {
            std::mem::swap(&mut self.due, &mut self.next);
            self.next.fill(0);
        }
        self.cursor = 0;
        self.calendar = calendar;
        self.priming = std::mem::take(&mut self.fresh);
        if self.priming || !calendar {
            self.due.fill(!0);
            if let (Some(last), tail @ 1..) = (self.due.last_mut(), self.len % 64) {
                *last = (1u64 << tail) - 1;
            }
            return;
        }
        while let Some(&Reverse((at, i))) = self.heap.peek() {
            if at > round {
                break;
            }
            self.heap.pop();
            if self.at[i as usize] == at {
                self.at[i as usize] = NEVER;
                self.due[i as usize / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Marks node `i` due this round (its inbox has mail).
    pub(crate) fn mark(&mut self, i: usize) {
        self.due[i / 64] |= 1 << (i % 64);
    }

    /// The next due node of this round, in ascending order.
    pub(crate) fn next_due(&mut self) -> Option<usize> {
        while let Some(word) = self.due.get_mut(self.cursor) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.cursor * 64 + bit);
            }
            self.cursor += 1;
        }
        None
    }

    /// Records node `i` after the engine visited it in `round`. Only a
    /// node that `stepped` can have halted; one that was skipped (idle or
    /// crashed) kept its state, so its halted flag is read only in the
    /// run's first round. With the calendar on, the node is then
    /// rescheduled from `next_wake(round + 1)`.
    pub(crate) fn settle<P: Protocol>(&mut self, i: usize, round: u64, node: &P, stepped: bool) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if stepped || self.priming {
            let was = self.halted[word] & bit != 0;
            if node.is_halted() != was {
                self.halted[word] ^= bit;
                if was {
                    self.halted_count -= 1;
                } else {
                    self.halted_count += 1;
                }
            }
        }
        if !self.calendar {
            return;
        }
        let wake = node
            .next_wake(round + 1)
            .map_or(NEVER, |at| at.max(round + 1));
        let old = self.at[i];
        if old == wake {
            return;
        }
        // Only a stored wake still inside the wheel can hold a bit: a
        // taken one's slot has been cleared, and a heap entry goes stale.
        if old != NEVER && old > round && old - round <= WHEEL {
            self.slot(old)[word] &= !bit;
        }
        if wake == round + 1 {
            self.next[word] |= bit;
            if old != NEVER {
                self.at[i] = NEVER;
            }
            return;
        }
        self.at[i] = wake;
        match wake {
            NEVER => {}
            at if at - round <= WHEEL => self.set_slot_bit(at, i),
            at => self.heap.push(Reverse((at, i as u32))),
        }
    }

    /// Whether every node is halted (as of its last visit).
    pub(crate) fn all_halted(&self) -> bool {
        self.halted_count == self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, RoundCtx};

    /// Wakes at the rounds it lists and halts after the last one.
    struct Alarm(Vec<u64>);

    impl Protocol for Alarm {
        fn round(&mut self, ctx: &mut RoundCtx<'_>, _: &[(usize, Message)]) {
            self.0.retain(|&r| r > ctx.round());
        }
        fn is_halted(&self) -> bool {
            self.0.is_empty()
        }
        fn next_wake(&self, round: u64) -> Option<u64> {
            self.0.iter().copied().filter(|&r| r >= round).min()
        }
    }

    fn due(set: &mut WakeSet) -> Vec<usize> {
        std::iter::from_fn(|| set.next_due()).collect()
    }

    #[test]
    fn first_round_is_full_then_timers_and_mail_drive_it() {
        let nodes = [
            Alarm(vec![1]),
            Alarm(vec![5, 9]),
            Alarm(vec![]),
            Alarm(vec![1]),
        ];
        let idle = Alarm(vec![]);
        let mut set = WakeSet::new(70);
        set.begin_round(0, true);
        assert_eq!(due(&mut set), (0..70).collect::<Vec<_>>());
        for i in 0..70 {
            set.settle(i, 0, nodes.get(i).unwrap_or(&idle), false);
        }
        set.begin_round(1, true);
        set.mark(65);
        assert_eq!(due(&mut set), vec![0, 3, 65]);
        set.settle(0, 1, &Alarm(vec![]), true);
        set.begin_round(2, true);
        set.mark(40);
        assert_eq!(due(&mut set), vec![40]);
        for r in 3..5 {
            set.begin_round(r, true);
            assert_eq!(due(&mut set), Vec::<usize>::new());
        }
        set.begin_round(5, true);
        assert_eq!(due(&mut set), vec![1]);
        // Rescheduling to the round already stored keeps one heap entry.
        set.settle(1, 5, &nodes[1], true);
        set.settle(1, 5, &nodes[1], true);
        set.begin_round(9, true);
        assert_eq!(due(&mut set), vec![1]);
    }

    /// Answers `next_wake` with whatever the test scripted for this visit.
    struct Scripted(Option<u64>);

    impl Protocol for Scripted {
        fn round(&mut self, _: &mut RoundCtx<'_>, _: &[(usize, Message)]) {}
        fn is_halted(&self) -> bool {
            false
        }
        fn next_wake(&self, _: u64) -> Option<u64> {
            self.0
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn calendar_matches_a_brute_force_model(
            len in 1usize..150,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut set = WakeSet::new(len);
            let storage = |s: &WakeSet| {
                (s.wheel.len(), s.wheel.capacity(), s.due.capacity(), s.next.capacity(), s.at.capacity())
            };
            let before = storage(&set);
            // The model: each node's latest wake answer.
            let mut wake: Vec<Option<u64>> = vec![None; len];
            for round in 0..1200u64 {
                set.begin_round(round, true);
                let mut want: Vec<usize> = (0..len)
                    .filter(|&i| round == 0 || wake[i] == Some(round))
                    .collect();
                // Mail that arrives at the start of the round.
                for _ in 0..rng.gen_range(0..len / 8 + 3) {
                    let i = rng.gen_range(0..len);
                    set.mark(i);
                    want.push(i);
                }
                want.sort_unstable();
                want.dedup();
                let got = due(&mut set);
                proptest::prop_assert_eq!(&got, &want, "round {}", round);
                for &i in &got {
                    // None, the next round, a gap below the wheel, its
                    // edge, past it, or the stored answer again; visits
                    // by mail move a stored wake earlier or later.
                    let ahead = match rng.gen_range(0..7u32) {
                        0 => None,
                        1 => Some(1),
                        2 => Some(rng.gen_range(2..WHEEL)),
                        3 => Some(WHEEL + rng.gen_range(0..2u64)),
                        4 => Some(rng.gen_range(WHEEL + 2..4 * WHEEL)),
                        5 => wake[i].map(|w| w.max(round + 1) - round),
                        _ => Some(0),
                    };
                    let answer = ahead.map(|a| round + a);
                    set.settle(i, round, &Scripted(answer), true);
                    wake[i] = answer.map(|a| a.max(round + 1));
                }
            }
            // The wheel and the per-node arrays keep their size however
            // many rounds run; only far-ahead wakes reach the heap.
            proptest::prop_assert_eq!(storage(&set), before);
        }
    }

    #[test]
    fn halted_counter_and_full_mode() {
        let mut set = WakeSet::new(3);
        set.begin_round(0, false);
        assert_eq!(due(&mut set), vec![0, 1, 2]);
        for i in 0..3 {
            set.settle(i, 0, &Alarm(vec![]), false);
        }
        assert!(set.all_halted());
        set.begin_round(1, false);
        assert_eq!(due(&mut set), vec![0, 1, 2]);
        // A skipped node keeps its halted flag; a stepped one updates it.
        set.settle(1, 1, &Alarm(vec![4]), false);
        assert!(set.all_halted());
        set.settle(1, 1, &Alarm(vec![4]), true);
        assert!(!set.all_halted());
    }
}

//! The wake calendar: which nodes of a shard a round must visit.
//!
//! Most protocol work in a CONGEST run is either message-driven or
//! self-timed at a round the node already knows ([`Protocol::next_wake`]).
//! Scanning every node every round to find the few that act costs `O(n)`
//! per round; a [`WakeSet`] instead keeps the nodes due this round as a
//! bitset built from two sources:
//!
//! - **timers** — after a node is visited it is rescheduled from
//!   `next_wake(round + 1)`: into the next round's bitset, into a
//!   `(round, node)` min-heap for later rounds, or nowhere if only a
//!   message can wake it;
//! - **mail** — the engine marks every node whose inbox received messages.
//!
//! A round then costs `O(due nodes + n/64)`: heap entries are popped as
//! their round arrives (stale ones are recognised by the node's stored
//! wake round and dropped), and the set bits are walked in ascending
//! order, so nodes are still visited in id order and traces and metrics
//! do not change. The set also tracks how many nodes are halted and how
//! many inboxes hold mail, which replaces the engines' per-round full
//! scans for quiescence.
//!
//! A round that cannot trust the calendar — the first round after
//! [`WakeSet::reset`], or any round the engine runs without it (faults,
//! `skip_idle` off) — marks every node due, which is the plain scan.
//!
//! [`Protocol::next_wake`]: crate::Protocol::next_wake

use crate::network::Protocol;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stored wake round of a node with no heap entry.
const NEVER: u64 = u64::MAX;

/// The calendar of one shard's nodes, addressed by shard-local index.
#[derive(Debug)]
pub(crate) struct WakeSet {
    len: usize,
    /// Nodes due this round; [`WakeSet::next_due`] clears bits as it
    /// yields them.
    due: Vec<u64>,
    /// Nodes due next round: rescheduled for `round + 1`, or sent mail.
    next: Vec<u64>,
    /// Word of `due` that [`WakeSet::next_due`] is scanning.
    cursor: usize,
    /// Each node's stored wake round, `NEVER` if none. A heap entry is
    /// live iff it matches this. A stored round is kept when the node is
    /// rescheduled for the next round or loses its timer, so a timer that
    /// recurs needs no second heap entry; if it does not recur, the visit
    /// it causes finds an empty inbox and `idle_at` skips the node.
    at: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    halted: Vec<u64>,
    halted_count: usize,
    /// Inboxes holding mail for the next round (counted by
    /// [`WakeSet::post`]).
    mail: usize,
    /// No round has run since [`WakeSet::reset`]: the next round visits
    /// every node, and the halted and mail counts are not known yet.
    fresh: bool,
    /// This round is the first since a reset: every node's halted flag
    /// is read, stepped or not.
    priming: bool,
    /// This round reschedules nodes from their timers.
    calendar: bool,
}

impl WakeSet {
    pub(crate) fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        WakeSet {
            len,
            due: vec![0; words],
            next: vec![0; words],
            cursor: 0,
            at: vec![NEVER; len],
            heap: BinaryHeap::new(),
            halted: vec![0; words],
            halted_count: 0,
            mail: 0,
            fresh: true,
            priming: false,
            calendar: false,
        }
    }

    /// Forgets the calendar: the next round visits every node. Engines
    /// call this at the start of each run, since node state may have
    /// moved since the last one.
    pub(crate) fn reset(&mut self) {
        self.next.fill(0);
        self.at.fill(NEVER);
        self.heap.clear();
        self.halted.fill(0);
        self.halted_count = 0;
        self.mail = 0;
        self.fresh = true;
    }

    /// Builds the due set of `round`. With `calendar` off every node is
    /// due, as in the first round after a reset; with it on, the nodes
    /// rescheduled for this round or sent mail last round are. Mail that
    /// arrives at the start of the round is added with [`WakeSet::mark`].
    pub(crate) fn begin_round(&mut self, round: u64, calendar: bool) {
        std::mem::swap(&mut self.due, &mut self.next);
        // A round that stopped early (a node panic) leaves bits behind.
        self.next.fill(0);
        self.cursor = 0;
        self.mail = 0;
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

    /// Records that node `i`'s inbox received mail for the next round.
    pub(crate) fn post(&mut self, i: usize) {
        self.next[i / 64] |= 1 << (i % 64);
        self.mail += 1;
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
    /// first round after a reset. With the calendar on, the node is then
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
        match node.next_wake(round + 1) {
            Some(at) if at <= round + 1 => self.next[word] |= bit,
            Some(at) if self.at[i] != at => {
                self.at[i] = at;
                self.heap.push(Reverse((at, i as u32)));
            }
            _ => {}
        }
    }

    /// Whether every node is halted (as of its last visit).
    pub(crate) fn all_halted(&self) -> bool {
        self.halted_count == self.len
    }

    /// Whether every node is halted and no inbox holds mail, or `None`
    /// right after a reset, when neither is known.
    pub(crate) fn quiet(&self) -> Option<bool> {
        (!self.fresh).then(|| self.mail == 0 && self.all_halted())
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
        set.post(65);
        assert_eq!(set.quiet(), Some(false));
        set.begin_round(1, true);
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

    #[test]
    fn halted_counter_and_full_mode() {
        let mut set = WakeSet::new(3);
        assert_eq!(set.quiet(), None);
        set.begin_round(0, false);
        assert_eq!(due(&mut set), vec![0, 1, 2]);
        for i in 0..3 {
            set.settle(i, 0, &Alarm(vec![]), false);
        }
        assert!(set.all_halted());
        assert_eq!(set.quiet(), Some(true));
        set.begin_round(1, false);
        assert_eq!(due(&mut set), vec![0, 1, 2]);
        // A skipped node keeps its halted flag; a stepped one updates it.
        set.settle(1, 1, &Alarm(vec![4]), false);
        assert!(set.all_halted());
        set.settle(1, 1, &Alarm(vec![4]), true);
        assert!(!set.all_halted());
        set.reset();
        assert_eq!(set.quiet(), None);
    }
}

//! The issue queue with event-driven dependency wakeup.
//!
//! [`Scheduler`] owns every dispatched-but-unissued instruction and
//! decides which of them issue each cycle. It follows gem5 O3's
//! `InstructionQueue`: a dependency graph plus a ready list, so the per-
//! cycle select never touches an entry that is still waiting on an
//! operand.
//!
//! * **Dispatch.** Each operand's completion cycle is either already
//!   known (the producer has issued) or the entry registers on the
//!   unissued producer's waiter list.
//! * **Issue.** When a producer issues, its completion cycle is handed to
//!   every waiter. A waiter whose last operand is now known is scheduled
//!   on the `wakeups` heap for the cycle that operand completes.
//! * **Select.** Entries whose operands have all completed sit in the
//!   `ready` bitset, indexed by sequence number on a ring, beside the
//!   `unissued` bitset that gives age order. Select issues the oldest
//!   `width` ready entries among the oldest `window` unissued ones; an
//!   entry's age rank is a popcount over `unissued`.
//!
//! The simulated behaviour is exactly the windowed rescan this replaced
//! (kept as the test-only `reference::ScanScheduler` and differentially
//! tested against it below), provided every issued instruction completes
//! at least one cycle later — `SimConfig::validate` rejects the zero
//! latencies that would allow same-cycle wakeup.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-entry state lives at `seq & (SEQ_RING - 1)`. The ring must exceed
/// ROB size + [`MAX_DEP_DISTANCE`], so an in-flight entry, and every
/// producer it may name, still owns its slot (`SimConfig::validate`
/// rejects larger ROBs).
pub(crate) const SEQ_RING: usize = 4096;
/// Longest dependence distance an instruction can encode (`u8`).
pub(crate) const MAX_DEP_DISTANCE: usize = u8::MAX as usize;
/// Completion cycle of an entry that has not issued yet.
const PENDING: u64 = u64::MAX;
/// End of a waiter list.
const NO_EDGE: u32 = u32::MAX;
const WORDS: usize = SEQ_RING / 64;

/// One ring slot. An operand edge is `slot * 2 + operand`; a producer's
/// waiter list threads through its consumers' `next` links, so wakeup
/// bookkeeping never allocates.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Completion cycle once issued; [`PENDING`] before.
    comp_time: u64,
    /// Latest completion cycle among the operands known so far.
    operands_at: u64,
    /// Operands whose producer has not issued yet.
    unknown: u8,
    /// First edge waiting on this entry, or [`NO_EDGE`].
    waiters: u32,
    /// Next edge in the producer's waiter list, per operand.
    next: [u32; 2],
}

impl Slot {
    const EMPTY: Slot = Slot {
        comp_time: 0,
        operands_at: 0,
        unknown: 0,
        waiters: NO_EDGE,
        next: [NO_EDGE; 2],
    };
}

/// The issue queue. See the module docs.
#[derive(Debug)]
pub(crate) struct Scheduler {
    slots: Vec<Slot>,
    /// Dispatched and not yet issued.
    unissued: Vec<u64>,
    /// Unissued with every operand complete (a subset of `unissued`).
    ready: Vec<u64>,
    /// Entries whose operands are all known but not yet complete:
    /// (cycle the last operand completes, slot).
    wakeups: BinaryHeap<Reverse<(u64, u32)>>,
    len: usize,
    ready_len: usize,
    /// Oldest unissued seq, or an older seq whose slot has since issued
    /// (advanced lazily by [`Scheduler::oldest`]).
    head: u64,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self {
            slots: vec![Slot::EMPTY; SEQ_RING],
            unissued: vec![0; WORDS],
            ready: vec![0; WORDS],
            wakeups: BinaryHeap::new(),
            len: 0,
            ready_len: 0,
            head: 0,
        }
    }
}

impl Scheduler {
    /// Entries dispatched and not yet issued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Completion cycle of in-flight `seq`: `u64::MAX` until it issues.
    pub(crate) fn completed_at(&self, seq: u64) -> u64 {
        self.slots[slot_of(seq)].comp_time
    }

    /// Inserts `seq` (one above the previous dispatch), whose operands
    /// come from the instructions `distances` before it (`0` = none).
    /// Call after this cycle's [`Scheduler::issue_cycle`]; `seq` is
    /// eligible from the next one.
    pub(crate) fn dispatch(&mut self, seq: u64, distances: [u8; 2], now: u64) {
        let slot = slot_of(seq);
        let mut operands_at = 0;
        let mut unknown = 0;
        for (k, d) in distances.into_iter().enumerate() {
            let Some(dep) = producer(seq, d) else {
                continue;
            };
            let src = slot_of(dep);
            let done = self.slots[src].comp_time;
            if done == PENDING {
                self.slots[slot].next[k] = self.slots[src].waiters;
                self.slots[src].waiters = (slot * 2 + k) as u32;
                unknown += 1;
            } else {
                operands_at = operands_at.max(done);
            }
        }
        let s = &mut self.slots[slot];
        s.comp_time = PENDING;
        s.operands_at = operands_at;
        s.unknown = unknown;
        if self.len == 0 {
            self.head = seq;
        }
        self.len += 1;
        set_bit(&mut self.unissued, slot);
        if unknown == 0 {
            self.schedule(slot, operands_at, now);
        }
    }

    /// One cycle of select: issues, oldest first, up to `width` entries
    /// whose operands have all completed by `now`, from among the oldest
    /// `window` unissued entries. `exec` is called once per issued seq,
    /// in age order, and returns the cycle that instruction completes
    /// (after `now`).
    pub(crate) fn issue_cycle(
        &mut self,
        now: u64,
        width: usize,
        window: usize,
        mut exec: impl FnMut(u64) -> u64,
    ) {
        while let Some(&Reverse((at, slot))) = self.wakeups.peek() {
            if at > now {
                break;
            }
            self.wakeups.pop();
            self.mark_ready(slot as usize);
        }
        if self.ready_len == 0 || width == 0 {
            return;
        }
        let head = self.oldest();
        let head_slot = slot_of(head);
        let mut word = head_slot / 64;
        let mut from = !0u64 << (head_slot % 64);
        // Unissued entries in the words before `word`, and ready entries
        // not yet reached.
        let (mut older, mut ready_left) = (0usize, self.ready_len);
        let mut issued = 0;
        loop {
            // Snapshot both words: issuing clears bits in them, but the
            // window is defined over the queue as it stood at cycle start.
            let unissued = self.unissued[word] & from;
            let mut ready = self.ready[word] & from;
            ready_left -= ready.count_ones() as usize;
            while ready != 0 {
                let bit = ready.trailing_zeros() as usize;
                let rank = older + (unissued & ((1u64 << bit) - 1)).count_ones() as usize;
                if rank >= window {
                    return;
                }
                let slot = word * 64 + bit;
                let seq = head + ((slot.wrapping_sub(head_slot)) & (SEQ_RING - 1)) as u64;
                let completed_at = exec(seq);
                self.complete(slot, completed_at, now);
                issued += 1;
                if issued == width {
                    return;
                }
                ready &= ready - 1;
            }
            older += unissued.count_ones() as usize;
            if older >= window || ready_left == 0 {
                return;
            }
            word = (word + 1) % WORDS;
            from = !0;
        }
    }

    /// Oldest unissued seq; the queue must be non-empty.
    fn oldest(&mut self) -> u64 {
        debug_assert!(self.len > 0);
        loop {
            let slot = slot_of(self.head);
            let bits = self.unissued[slot / 64] >> (slot % 64);
            if bits != 0 {
                self.head += u64::from(bits.trailing_zeros());
                return self.head;
            }
            self.head += (64 - slot % 64) as u64;
        }
    }

    /// Marks the entry in `slot` issued, completing at `completed_at`,
    /// and hands that cycle to every entry waiting on it.
    fn complete(&mut self, slot: usize, completed_at: u64, now: u64) {
        debug_assert!(completed_at > now, "same-cycle wakeup is not modelled");
        clear_bit(&mut self.unissued, slot);
        clear_bit(&mut self.ready, slot);
        self.len -= 1;
        self.ready_len -= 1;
        let producer = &mut self.slots[slot];
        producer.comp_time = completed_at;
        let mut edge = std::mem::replace(&mut producer.waiters, NO_EDGE);
        while edge != NO_EDGE {
            let consumer = (edge / 2) as usize;
            let c = &mut self.slots[consumer];
            edge = c.next[(edge % 2) as usize];
            c.operands_at = c.operands_at.max(completed_at);
            c.unknown -= 1;
            if c.unknown == 0 {
                let at = c.operands_at;
                self.schedule(consumer, at, now);
            }
        }
    }

    /// `slot`'s last operand completes at `at`: ready now, or woken then.
    fn schedule(&mut self, slot: usize, at: u64, now: u64) {
        if at <= now {
            self.mark_ready(slot);
        } else {
            self.wakeups.push(Reverse((at, slot as u32)));
        }
    }

    fn mark_ready(&mut self, slot: usize) {
        set_bit(&mut self.ready, slot);
        self.ready_len += 1;
    }
}

/// The producer `distance` instructions before `seq`, if any.
fn producer(seq: u64, distance: u8) -> Option<u64> {
    let d = u64::from(distance);
    (d != 0 && d < seq).then(|| seq - d)
}

fn slot_of(seq: u64) -> usize {
    (seq as usize) & (SEQ_RING - 1)
}

fn set_bit(words: &mut [u64], slot: usize) {
    words[slot / 64] |= 1 << (slot % 64);
}

fn clear_bit(words: &mut [u64], slot: usize) {
    words[slot / 64] &= !(1 << (slot % 64));
}

#[cfg(test)]
pub(crate) mod reference {
    //! The per-cycle windowed rescan that [`super::Scheduler`] replaced,
    //! kept as the obviously-right oracle for the differential test.

    use std::collections::VecDeque;

    use super::{producer, PENDING, SEQ_RING};

    /// Issue queue as a `VecDeque` of seqs, rescanned every cycle.
    #[derive(Debug)]
    pub(crate) struct ScanScheduler {
        iq: VecDeque<u64>,
        /// Producer seqs per ring slot (`0` = none).
        deps: Vec<[u64; 2]>,
        comp_time: Vec<u64>,
    }

    impl Default for ScanScheduler {
        fn default() -> Self {
            Self {
                iq: VecDeque::new(),
                deps: vec![[0; 2]; SEQ_RING],
                comp_time: vec![0; SEQ_RING],
            }
        }
    }

    impl ScanScheduler {
        pub(crate) fn len(&self) -> usize {
            self.iq.len()
        }

        pub(crate) fn dispatch(&mut self, seq: u64, distances: [u8; 2], _now: u64) {
            let dep = |d| producer(seq, d).unwrap_or(0);
            self.comp_time[(seq as usize) & (SEQ_RING - 1)] = PENDING;
            self.deps[(seq as usize) & (SEQ_RING - 1)] = distances.map(dep);
            self.iq.push_back(seq);
        }

        pub(crate) fn issue_cycle(
            &mut self,
            now: u64,
            width: usize,
            window: usize,
            mut exec: impl FnMut(u64) -> u64,
        ) {
            let ScanScheduler {
                iq,
                deps,
                comp_time,
            } = self;
            let ready = |comp_time: &[u64], dep_seq: u64| {
                dep_seq == 0 || comp_time[(dep_seq as usize) & (SEQ_RING - 1)] <= now
            };
            let q = iq.make_contiguous();
            let len = q.len();
            let (mut issued, mut examined) = (0usize, 0usize);
            let (mut read, mut write) = (0usize, 0usize);
            while read < len && issued < width && examined < window {
                let seq = q[read];
                examined += 1;
                let [dep1, dep2] = deps[(seq as usize) & (SEQ_RING - 1)];
                if !ready(comp_time, dep1) || !ready(comp_time, dep2) {
                    q[write] = seq;
                    write += 1;
                    read += 1;
                    continue;
                }
                let completed_at = exec(seq);
                comp_time[(seq as usize) & (SEQ_RING - 1)] = completed_at;
                issued += 1;
                read += 1;
            }
            if write != read {
                q.copy_within(read..len, write);
                let new_len = len - (read - write);
                iq.truncate(new_len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::reference::ScanScheduler;
    use super::*;

    /// One dispatched instruction: dependence distances and latency.
    type Op = (u8, u8, u64);

    /// Geometry of one differential run.
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        width: usize,
        window: usize,
        iq_cap: usize,
        rob_cap: usize,
        commit_width: usize,
    }

    /// Drives both schedulers through one op stream inside a minimal
    /// in-order-commit core and returns the first cycle on which their
    /// issued seqs (in call order) differ, or the total cycle count.
    fn differential(shape: Shape, ops: &[Op], bursts: &[usize]) -> Result<u64, String> {
        let mut fast = Scheduler::default();
        let mut slow = ScanScheduler::default();
        let mut comp = vec![PENDING; ops.len() + 1];
        let mut rob: VecDeque<u64> = VecDeque::new();
        let (mut next, mut committed) = (1u64, 0usize);
        let (mut fast_log, mut slow_log) = (Vec::new(), Vec::new());
        let mut now = 0u64;
        while committed < ops.len() {
            if now > 1_000_000 {
                return Err(format!("no forward progress by cycle {now}"));
            }
            for _ in 0..shape.commit_width {
                match rob.front() {
                    Some(&s) if comp[s as usize] <= now => {
                        rob.pop_front();
                        committed += 1;
                    }
                    _ => break,
                }
            }
            fast_log.clear();
            slow_log.clear();
            let latency = |seq: u64| now + ops[seq as usize - 1].2;
            fast.issue_cycle(now, shape.width, shape.window, |seq| {
                fast_log.push(seq);
                latency(seq)
            });
            slow.issue_cycle(now, shape.width, shape.window, |seq| {
                slow_log.push(seq);
                latency(seq)
            });
            if fast_log != slow_log {
                return Err(format!(
                    "cycle {now}: wakeup issued {fast_log:?}, scan issued {slow_log:?}"
                ));
            }
            for &seq in &fast_log {
                comp[seq as usize] = latency(seq);
                if fast.completed_at(seq) != comp[seq as usize] {
                    return Err(format!("cycle {now}: seq {seq} completion not recorded"));
                }
            }
            for _ in 0..bursts[now as usize % bursts.len()] {
                if next as usize > ops.len()
                    || rob.len() >= shape.rob_cap
                    || fast.len() >= shape.iq_cap
                {
                    break;
                }
                let (d1, d2, _) = ops[next as usize - 1];
                fast.dispatch(next, [d1, d2], now);
                slow.dispatch(next, [d1, d2], now);
                rob.push_back(next);
                next += 1;
            }
            if fast.len() != slow.len() || fast.is_empty() != (slow.len() == 0) {
                return Err(format!(
                    "cycle {now}: queue lengths {} vs {}",
                    fast.len(),
                    slow.len()
                ));
            }
            now += 1;
        }
        Ok(now)
    }

    /// Dependence distances 0..=255, biased towards short ones so most
    /// producers are still in flight, with `dep1 == dep2` a quarter of
    /// the time.
    fn op() -> impl Strategy<Value = Op> {
        let distance = || prop_oneof![0u16..8, 0u16..32, 0u16..256].prop_map(|d| d as u8);
        (distance(), distance(), 0u8..4, 1u64..401)
            .prop_map(|(d1, d2, same, lat)| (d1, if same == 0 { d1 } else { d2 }, lat))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn wakeup_scheduler_matches_windowed_scan(
            width in 1usize..9,
            window in 1usize..65,
            iq_cap in 1usize..97,
            rob_cap in 1usize..513,
            commit_width in 1usize..9,
            ops in proptest::collection::vec(op(), 1..1500),
            bursts in proptest::collection::vec(0usize..9, 1..16),
        ) {
            let shape = Shape { width, window, iq_cap, rob_cap, commit_width };
            let outcome = differential(shape, &ops, &bursts);
            prop_assert!(outcome.is_ok(), "{shape:?}: {}", outcome.unwrap_err());
        }
    }

    #[test]
    fn window_narrower_than_width_and_long_chains() {
        // Fixed corner cases on top of the random streams: a window of 1
        // (in-order issue), window < width, a full-ROB dependence chain
        // at distance 1, and every producer at distance 255 and 0.
        let chain: Vec<Op> = (0..2000).map(|i| (1, 1, 1 + (i % 400))).collect();
        let far: Vec<Op> = (0..2000).map(|i| (255, 0, 1 + (i * 7) % 400)).collect();
        let mixed: Vec<Op> = (0..2000)
            .map(|i| ((i % 256) as u8, ((i * 37) % 256) as u8, 1 + (i * 13) % 400))
            .collect();
        for ops in [&chain, &far, &mixed] {
            for (width, window) in [(1, 1), (8, 1), (8, 3), (4, 64), (8, 64)] {
                let shape = Shape {
                    width,
                    window,
                    iq_cap: 240,
                    rob_cap: 512,
                    commit_width: 8,
                };
                differential(shape, ops, &[8]).unwrap();
            }
        }
    }

    #[test]
    fn an_entry_is_eligible_exactly_when_its_last_operand_completes() {
        let mut s = Scheduler::default();
        s.dispatch(1, [0, 0], 0);
        s.dispatch(2, [1, 1], 0);
        let mut issued = Vec::new();
        // Seq 1 issues at cycle 1 and completes at 10.
        s.issue_cycle(1, 8, 64, |seq| {
            issued.push((1, seq));
            10
        });
        for now in 2..=10 {
            s.issue_cycle(now, 8, 64, |seq| {
                issued.push((now, seq));
                now + 1
            });
        }
        assert_eq!(issued, vec![(1, 1), (10, 2)]);
        assert!(s.is_empty());
        assert_eq!(s.completed_at(2), 11);
    }
}

//! The simulator's future-event queue: a hierarchical timer wheel with a
//! binary-heap reference backend.
//!
//! Profiling showed [`crate::world::World`]'s event-queue pops dominating
//! the DIS-scenario step rate once sites × receivers grows past a few
//! hundred hosts — exactly the dense heartbeat/timer traffic LBRM §2.1
//! generates. A [`BinaryHeap`] pays O(log n) compares *and moves* per
//! pop; the [`QueueBackend::Wheel`] backend replaces that with a
//! hierarchical timer wheel whose push and pop are amortized O(1).
//!
//! # Shape
//!
//! Virtual time is bucketed into ticks of `2^22` ns (≈4.2 ms). The wheel
//! has [`LEVELS`] levels of [`SLOTS`] slots each; a level-`l` slot spans
//! `256^l` ticks, so level 0 covers deadlines up to ≈1.07 s away (one
//! tick per slot), level 1 up to ≈4.6 min, and six levels cover the
//! entire `u64` nanosecond range. The tick size is tuned (empirically,
//! against the DIS-scenario step rate) to the traffic the scenario
//! actually schedules: per-link latencies from [`crate::topology`] (a
//! few to ~80 ms) and the heartbeat band (`h_min` = 250 ms) land in
//! level 0, so the common case is a single bucket push with no cascade;
//! only the idle `h_max` backoff tail (seconds) sits higher.
//!
//! Events whose deadline falls inside the currently *open* tick live in
//! `near`, a min-heap on `(deadline, tiebreak)`. Advancing the clock
//! turns the next occupied level-0 slot into `near` with one O(n)
//! heapify, or cascades a higher slot one level down; per-level
//! occupancy bitmaps make "find the next occupied slot" a handful of
//! word scans instead of a walk over empty buckets.
//!
//! # Entry layout
//!
//! Neither structure moves payloads. [`EventQueue`] keeps every
//! scheduled item in a slab of fixed-size chunks whose vacated slots go
//! on a LIFO free list and are refilled before the slab grows, so the
//! slab never holds more slots than the peak queue depth, and growing it
//! never copies a payload. The wheel buckets,
//! the open-tick heap and the heap backend order only a 32-byte
//! `(at, tiebreak, slot)` entry — `at` is 8 bytes, the `u128` tiebreak
//! 16, the `u32` slot index 4, padded to the tiebreak's alignment. The
//! simulator's payload, a packet delivery or timer, is 96 bytes on
//! x86-64; with it inline every heap sift and bucket drain moved a
//! 128-byte entry, and in a profile of the paper-scale DIS run
//! (50 sites × 20 receivers) the sifts alone took about a sixth of
//! `World::step`.
//!
//! # Determinism
//!
//! Pop order is **exactly** the heap's: strictly increasing
//! `(deadline, tiebreak)` with the tiebreak assigned at push (FIFO within
//! a deadline). The wheel only ever partitions events by time bucket —
//! the `near` heap restores the total order inside a bucket, buckets are
//! opened in time order, and cascading moves events between buckets
//! without reordering them. Every experiment therefore produces
//! byte-identical output under either backend, which
//! `tests/event_queue_diff_sim.rs` pins on seeded lossy runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Hierarchical timer wheel: amortized O(1) push/pop (the default).
    #[default]
    Wheel,
    /// Binary heap: O(log n) push/pop. Kept for differential testing —
    /// the wheel must reproduce its pop order bit-for-bit.
    Heap,
}

impl QueueBackend {
    /// Backend selected by the `LBRM_SIM_QUEUE` environment variable.
    /// This is the hook the differential tests use to run whole
    /// experiment binaries under both backends, so it is strict: only
    /// `"wheel"`, `"heap"`, the empty string, or unset are accepted. A
    /// typo in the CI matrix must fail loudly — silently falling back to
    /// the wheel would run the same backend twice and the differential
    /// coverage would evaporate without anyone noticing.
    ///
    /// # Panics
    ///
    /// Panics on any other value.
    pub fn from_env() -> QueueBackend {
        match std::env::var("LBRM_SIM_QUEUE") {
            Err(std::env::VarError::NotPresent) => QueueBackend::Wheel,
            Err(e) => panic!("LBRM_SIM_QUEUE is not valid unicode: {e}"),
            Ok(v) => match Self::parse(&v) {
                Some(b) => b,
                None => {
                    panic!("LBRM_SIM_QUEUE must be \"wheel\" or \"heap\" (or unset), got {v:?}")
                }
            },
        }
    }

    /// Parses a backend name: `"wheel"`, `"heap"` (case-insensitive), or
    /// the empty string (treated as unset → the default wheel).
    pub fn parse(v: &str) -> Option<QueueBackend> {
        if v.is_empty() || v.eq_ignore_ascii_case("wheel") {
            Some(QueueBackend::Wheel)
        } else if v.eq_ignore_ascii_case("heap") {
            Some(QueueBackend::Heap)
        } else {
            None
        }
    }
}

/// One scheduled event as the ordering structures see it: ordered by
/// `(at, tiebreak)` only; `slot` names the payload's slab slot and never
/// participates in comparisons.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    tiebreak: u128,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tiebreak == other.tiebreak
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tiebreak).cmp(&(other.at, other.tiebreak))
    }
}

/// log2 of the tick size in nanoseconds: `2^22` ns ≈ 4.2 ms per tick.
///
/// Re-measured at the 1000-site × 30-receiver regime (per-shard queues,
/// ~100k+ resident events): shifts 18/20 (finer) and 26 (coarser) all
/// lose 10–25% on the `dis_scenario_1000x30` workload, 24 is within
/// noise of 22. The scenario's dominant deltas (5–80 ms links, 250 ms
/// heartbeat) land in level 0 at 22 with small enough buckets that the
/// open-tick heapify stays cheap.
const GRANULARITY_SHIFT: u32 = 22;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level (`2^LEVEL_BITS`).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels: 6 × 8 bits of tick ≥ the 42 tick bits a `u64` of nanoseconds
/// leaves after the granularity shift, so any `SimTime` is addressable.
const LEVELS: usize = 6;
/// Words in a level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// One wheel level: `SLOTS` buckets plus an occupancy bitmap so the next
/// occupied bucket is found by word scans, not a slot walk.
struct Level {
    slots: Vec<Vec<Entry>>,
    occupied: [u64; WORDS],
    count: usize,
}

impl Level {
    fn new() -> Level {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            count: 0,
        }
    }
}

/// Slot index of `tick` at `level` (its residue in that level's rotation).
#[inline]
fn slot_index(tick: u64, level: usize) -> usize {
    ((tick >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
}

/// Level housing an event `delta` ticks ahead of the open tick
/// (`delta ≥ 1`). Level `l` takes `delta ∈ (256^l, 256^(l+1)]` — the
/// *inclusive* upper bound (one full rotation ahead, which aliases onto
/// the current slot index) is what the distance-256 case of
/// [`next_occupied`] exists for.
#[inline]
fn level_for(delta: u64) -> usize {
    let d = delta - 1;
    if d == 0 {
        0
    } else {
        (((63 - d.leading_zeros()) / LEVEL_BITS) as usize).min(LEVELS - 1)
    }
}

/// Distance (in slots, `1..=SLOTS`) and index of the next occupied slot
/// strictly after `idx`, wrapping circularly; `idx` itself is reported at
/// distance `SLOTS` (an event one full rotation ahead).
fn next_occupied(occ: &[u64; WORDS], idx: usize) -> Option<(u64, usize)> {
    let mut scanned = 0usize;
    while scanned < SLOTS {
        let pos = (idx + 1 + scanned) & (SLOTS - 1);
        let word = pos / 64;
        let bit = pos % 64;
        let w = occ[word] >> bit;
        if w != 0 {
            let t = w.trailing_zeros() as usize;
            if scanned + t < SLOTS {
                let dist = (scanned + t + 1) as u64;
                return Some((dist, (idx + dist as usize) & (SLOTS - 1)));
            }
        }
        scanned += 64 - bit;
    }
    None
}

/// The hierarchical timer wheel.
struct Wheel {
    /// The open tick: events at `tick <= cur` live in `near`.
    cur: u64,
    /// Events inside the open tick, a min-heap on `(at, tiebreak)`.
    ///
    /// This was a descending-sorted `Vec` with exact-position inserts
    /// until the 1000-site regime: a single heartbeat fan-out there
    /// lands tens of thousands of LAN deliveries inside one 4.2 ms
    /// tick, and O(n) `Vec::insert` per same-tick push turns that burst
    /// into O(n²) memmoves. A binary heap keeps the burst at
    /// O(n log n) while popping the identical `(at, tiebreak)` order
    /// (tiebreaks are unique, so heap ordering is total).
    near: BinaryHeap<Reverse<Entry>>,
    levels: Vec<Level>,
    /// Events resident in wheel slots (excludes `near`).
    resident: usize,
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            cur: 0,
            near: BinaryHeap::new(),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            resident: 0,
        }
    }

    fn push(&mut self, e: Entry) {
        let tick = e.at.nanos() >> GRANULARITY_SHIFT;
        if tick <= self.cur {
            self.near.push(Reverse(e));
            return;
        }
        let level = level_for(tick - self.cur);
        let slot = slot_index(tick, level);
        let lv = &mut self.levels[level];
        lv.slots[slot].push(e);
        lv.occupied[slot / 64] |= 1 << (slot % 64);
        lv.count += 1;
        self.resident += 1;
    }

    /// Moves the clock to the next occupied bucket, draining it into
    /// `near` (level 0) or cascading it a level down (levels ≥ 1).
    /// Returns `false` when the wheel holds no events at all.
    fn advance(&mut self) -> bool {
        loop {
            if self.resident == 0 {
                return false;
            }
            // Earliest bucket across levels. A level-0 hit is an exact
            // tick; a level-l hit is that slot's base tick, a lower bound
            // on its contents. Ties go to the *highest* level so a
            // coarse bucket sharing its base with a finer one cascades
            // first and its events merge into the finer buckets below.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in 0..LEVELS {
                let lv = &self.levels[level];
                if lv.count == 0 {
                    continue;
                }
                let idx = slot_index(self.cur, level);
                if let Some((dist, slot)) = next_occupied(&lv.occupied, idx) {
                    let shift = LEVEL_BITS as usize * level;
                    let base = ((self.cur >> shift) + dist) << shift;
                    match best {
                        Some((b, _, _)) if b < base => {}
                        _ => best = Some((base, level, slot)),
                    }
                }
            }
            let Some((base, level, slot)) = best else {
                debug_assert!(false, "resident events but no occupied slot");
                return false;
            };
            let lv = &mut self.levels[level];
            let mut entries = std::mem::take(&mut lv.slots[slot]);
            lv.occupied[slot / 64] &= !(1 << (slot % 64));
            lv.count -= entries.len();
            self.resident -= entries.len();
            if level == 0 {
                self.cur = base;
                // `near` is empty here (advance only runs when it is), so
                // the drained bucket *becomes* the ready list after one
                // O(n) heapify; `map(Reverse)` collects in place, so
                // steady state moves one buffer per open tick.
                debug_assert!(self.near.is_empty());
                self.near = BinaryHeap::from(entries.into_iter().map(Reverse).collect::<Vec<_>>());
                return true;
            }
            // Cascade: park the clock one tick shy of the bucket's base
            // so every re-push lands strictly below this level (an event
            // exactly at `base` gets delta 1 → level 0, not `near`).
            self.cur = base - 1;
            for e in entries.drain(..) {
                self.push(e);
            }
            self.levels[level].slots[slot] = entries;
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        loop {
            if let Some(Reverse(e)) = self.near.pop() {
                self.resident_check();
                return Some(e);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn next_at(&mut self) -> Option<SimTime> {
        loop {
            if let Some(Reverse(e)) = self.near.peek() {
                return Some(e.at);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    #[inline]
    fn resident_check(&self) {
        debug_assert!(self.levels.iter().map(|l| l.count).sum::<usize>() == self.resident);
    }
}

enum Backend {
    Heap(BinaryHeap<Reverse<Entry>>),
    Wheel(Wheel),
}

/// Tiebreak bit marking auto-assigned (push-order) keys. Caller-provided
/// keys from [`EventQueue::push_keyed`] must stay below this bit, so the
/// two key spaces never collide even when mixed in one queue.
const AUTO_KEY_BIT: u128 = 1 << 127;

/// log2 of the payload slots per slab chunk (512 × the simulator's
/// 96-byte payload = 48 KiB).
const CHUNK_BITS: u32 = 9;
/// Payload slots per slab chunk.
const CHUNK: usize = 1 << CHUNK_BITS;

/// The queue's payload store. Slots live in fixed-size chunks that
/// never move, so growing the slab allocates one more chunk instead of
/// copying every queued payload: with one flat `Vec`, the doubling
/// copies made building a paper-scale world (which schedules the run's
/// whole update script) about 13% slower.
struct Slab<T> {
    /// Full chunks, then a partly filled last one; `None` marks a slot
    /// on the free list.
    chunks: Vec<Vec<Option<T>>>,
    /// Vacated slots, reused last-in first-out before the slab grows.
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            chunks: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Slots handed out so far, occupied or free.
    fn slots(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Occupied slots.
    fn len(&self) -> usize {
        self.slots() - self.free.len()
    }

    fn slot_mut(&mut self, slot: u32) -> &mut Option<T> {
        &mut self.chunks[(slot >> CHUNK_BITS) as usize][slot as usize & (CHUNK - 1)]
    }

    fn insert(&mut self, item: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            *self.slot_mut(slot) = Some(item);
            return slot;
        }
        let slot = u32::try_from(self.slots()).expect("more than 2^32 queued events");
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(Some(item)),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(Some(item));
                self.chunks.push(chunk);
            }
        }
        slot
    }

    fn remove(&mut self, slot: u32) -> T {
        let item = self
            .slot_mut(slot)
            .take()
            .expect("queued entry names an occupied slot");
        self.free.push(slot);
        item
    }
}

/// The simulator's future-event queue: events pop in strictly increasing
/// `(deadline, tiebreak)` under either backend. [`EventQueue::push`]
/// assigns tiebreaks in push order (FIFO within a deadline);
/// [`EventQueue::push_keyed`] lets the caller supply the tiebreak, which
/// is how the sharded [`crate::world::World`] imposes one global,
/// placement-invariant event order across per-shard queues.
///
/// Payloads live in a chunked slab indexed by the entries' `slot` (see the
/// module docs); the backend orders only the 32-byte entries.
pub struct EventQueue<T> {
    tiebreak: u64,
    backend: Backend,
    slab: Slab<T>,
}

impl<T> EventQueue<T> {
    /// An empty queue on the given backend.
    pub fn new(backend: QueueBackend) -> EventQueue<T> {
        EventQueue {
            tiebreak: 0,
            backend: match backend {
                QueueBackend::Heap => Backend::Heap(BinaryHeap::new()),
                QueueBackend::Wheel => Backend::Wheel(Wheel::new()),
            },
            slab: Slab::new(),
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.backend {
            Backend::Heap(_) => QueueBackend::Heap,
            Backend::Wheel(_) => QueueBackend::Wheel,
        }
    }

    /// Schedules `item` at `at`, after everything already scheduled at
    /// the same instant (and after any [`EventQueue::push_keyed`] event
    /// at that instant — auto keys sort above all caller keys).
    pub fn push(&mut self, at: SimTime, item: T) {
        self.tiebreak += 1;
        self.push_entry(at, AUTO_KEY_BIT | u128::from(self.tiebreak), item);
    }

    /// Schedules `item` at `at` with a caller-supplied tiebreak key.
    /// Keys must be unique per `(at, key)` pair and below the auto-key
    /// bit (`1 << 127`); events at the same instant pop in key order
    /// regardless of push order.
    pub fn push_keyed(&mut self, at: SimTime, key: u128, item: T) {
        debug_assert!(
            key & AUTO_KEY_BIT == 0,
            "keyed pushes must stay below bit 127"
        );
        self.push_entry(at, key, item);
    }

    fn push_entry(&mut self, at: SimTime, tiebreak: u128, item: T) {
        let slot = self.slab.insert(item);
        let e = Entry { at, tiebreak, slot };
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse(e)),
            Backend::Wheel(w) => w.push(e),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(at, _, item)| (at, item))
    }

    /// Removes and returns the earliest event with its tiebreak key.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u128, T)> {
        let e = match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|Reverse(e)| e),
            Backend::Wheel(w) => w.pop(),
        }?;
        Some((e.at, e.tiebreak, self.slab.remove(e.slot)))
    }

    /// Deadline of the earliest event without removing it. (`&mut`
    /// because the wheel may advance its clock to locate the minimum —
    /// invisible to callers.)
    pub fn next_at(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse(e)| e.at),
            Backend::Wheel(w) => w.next_at(),
        }
    }

    /// Number of scheduled events (bucket-resident ones included).
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Pops from both backends after an identical push schedule must
    /// agree exactly — including interleaved pushes at and around the
    /// current time, which is how the simulator actually drives it.
    #[test]
    fn wheel_matches_heap_under_random_interleaved_churn() {
        for seed in [1u64, 7, 99, 4242] {
            let mut heap = EventQueue::new(QueueBackend::Heap);
            let mut wheel = EventQueue::new(QueueBackend::Wheel);
            let mut s1 = seed;
            let mut s2 = seed;
            let drive = |q: &mut EventQueue<u64>, s: &mut u64| {
                let mut now = SimTime::ZERO;
                let mut popped = Vec::new();
                let mut id = 0u64;
                for _ in 0..64 {
                    q.push(SimTime::from_nanos(splitmix(s) % 2_000_000), id);
                    id += 1;
                }
                while let Some((at, item)) = q.pop() {
                    assert!(at >= now, "pops must be time-monotonic");
                    now = at;
                    popped.push((at.nanos(), item));
                    if popped.len() >= 4_000 {
                        break;
                    }
                    // Re-arm with deltas spanning near (same tick), the
                    // tick size, link latencies, heartbeats, and far
                    // cascade-heavy backoffs.
                    let r = splitmix(s);
                    let delta = match r % 7 {
                        0 => 0,
                        1 => r % 1_000,
                        2 => 100_000 + r % 900_000,
                        3 => 1_000_000 + r % 30_000_000,
                        4 => 250_000_000,
                        5 => 2_000_000_000 + r % 30_000_000_000,
                        _ => 300_000_000_000 + r % 1_000_000_000_000,
                    };
                    if !r.is_multiple_of(3) {
                        q.push(now + Duration::from_nanos(delta), id);
                        id += 1;
                    }
                }
                popped
            };
            let h = drive(&mut heap, &mut s1);
            let w = drive(&mut wheel, &mut s2);
            assert_eq!(h, w, "seed {seed}: wheel must replay the heap exactly");
        }
    }

    /// Vacated payload slots are reused before the slab grows: under
    /// interleaved push/pop churn the slab never holds more slots than
    /// the peak queue depth, and the slab-backed wheel still pops
    /// exactly what the heap does.
    #[test]
    fn slab_stays_within_peak_depth_under_churn() {
        let mut heap: EventQueue<u64> = EventQueue::new(QueueBackend::Heap);
        let mut wheel: EventQueue<u64> = EventQueue::new(QueueBackend::Wheel);
        let mut s = 0x5EED_u64;
        let mut now = SimTime::ZERO;
        let mut peak = 0;
        let mut id = 0u64;
        for round in 0..2_000 {
            // Bursts of pushes (a multicast fan-out), then a few pops.
            let burst = splitmix(&mut s) % if round % 50 == 0 { 200 } else { 6 };
            for _ in 0..burst {
                let at = now + Duration::from_nanos(splitmix(&mut s) % 400_000_000);
                heap.push(at, id);
                wheel.push(at, id);
                id += 1;
            }
            peak = peak.max(wheel.len());
            for _ in 0..splitmix(&mut s) % 8 {
                let h = heap.pop();
                assert_eq!(h, wheel.pop(), "round {round}");
                let Some((at, _)) = h else { break };
                now = at;
            }
            for q in [&heap, &wheel] {
                let slots = q.slab.slots();
                assert!(slots <= peak, "slab {slots} > peak {peak}");
                assert_eq!(q.len(), slots - q.slab.free.len());
            }
        }
        assert!(peak > 2 * CHUNK, "the churn spans several slab chunks");
        while let Some(h) = heap.pop() {
            assert_eq!(Some(h), wheel.pop());
        }
        assert!(wheel.pop().is_none());
        assert_eq!(
            wheel.slab.slots(),
            peak,
            "every slot vacated, none beyond the peak"
        );
        assert_eq!(wheel.slab.free.len(), peak);
    }

    #[test]
    fn fifo_within_identical_deadline() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q = EventQueue::new(backend);
            let t = SimTime::from_millis(5);
            for i in 0..100u64 {
                q.push(t, i);
            }
            let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    /// Deltas of exactly one full rotation (256 ticks, 65536 ticks, …)
    /// alias onto the pusher's own slot index — the distance-256 scan
    /// case — and must still fire at the right time.
    #[test]
    fn full_rotation_aliases_fire_on_time() {
        let tick = 1u64 << GRANULARITY_SHIFT;
        let mut q: EventQueue<u64> = EventQueue::new(QueueBackend::Wheel);
        q.push(SimTime::from_nanos(1), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        for (i, rot) in [256u64, 65_536, 16_777_216].iter().enumerate() {
            q.push(SimTime::from_nanos(rot * tick), i as u64 + 1);
        }
        q.push(SimTime::from_nanos(2 * tick), 100);
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(2 * tick), 100));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(256 * tick), 1));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(65_536 * tick), 2));
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_nanos(16_777_216 * tick), 3)
        );
        assert!(q.pop().is_none());
    }

    /// A coarse bucket whose base coincides with an occupied fine bucket
    /// must cascade first so same-tick events from both merge in
    /// tiebreak order.
    #[test]
    fn tied_bucket_bases_merge_in_push_order() {
        let tick = 1u64 << GRANULARITY_SHIFT;
        let mut q: EventQueue<u64> = EventQueue::new(QueueBackend::Wheel);
        // 512 ticks ahead: level 1, slot base 512. Same instant also
        // reachable later as a level-0 push once cur advances.
        let far = SimTime::from_nanos(512 * tick + 7);
        q.push(far, 1);
        q.push(SimTime::from_nanos(300 * tick), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        // cur is now within level-1 range of `far`; this lands level 0.
        q.push(far, 3);
        assert_eq!(q.pop().unwrap(), (far, 1));
        assert_eq!(q.pop().unwrap(), (far, 3));
    }

    #[test]
    fn next_at_matches_pop_and_len_tracks() {
        let mut q: EventQueue<u32> = EventQueue::new(QueueBackend::Wheel);
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
        let mut s = 33u64;
        for i in 0..500u32 {
            q.push(SimTime::from_nanos(splitmix(&mut s) % 40_000_000_000), i);
        }
        assert_eq!(q.len(), 500);
        let mut n = 500;
        while let Some(at) = q.next_at() {
            let (popped_at, _) = q.pop().expect("next_at implies nonempty");
            assert_eq!(at, popped_at);
            n -= 1;
            assert_eq!(q.len(), n);
        }
        assert_eq!(n, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_and_max_deadlines_survive() {
        let mut q: EventQueue<&'static str> = EventQueue::new(QueueBackend::Wheel);
        q.push(SimTime::MAX, "max");
        q.push(SimTime::from_secs(86_400 * 365), "year");
        q.push(SimTime::from_nanos(1), "now");
        assert_eq!(q.pop().unwrap().1, "now");
        assert_eq!(q.pop().unwrap().1, "year");
        assert_eq!(q.pop().unwrap().1, "max");
        assert!(q.pop().is_none());
    }

    #[test]
    fn env_selects_backend() {
        // Only asserts the parser, not the process env (tests share it).
        assert_eq!(QueueBackend::default(), QueueBackend::Wheel);
        assert_eq!(QueueBackend::parse("wheel"), Some(QueueBackend::Wheel));
        assert_eq!(QueueBackend::parse("WHEEL"), Some(QueueBackend::Wheel));
        assert_eq!(QueueBackend::parse("heap"), Some(QueueBackend::Heap));
        assert_eq!(QueueBackend::parse("Heap"), Some(QueueBackend::Heap));
        assert_eq!(QueueBackend::parse(""), Some(QueueBackend::Wheel));
    }

    /// A typo in the backend name (`"haep"`, `"wheell"`, …) must be a
    /// hard error, not a silent fall-back to the wheel: the CI matrix
    /// relies on `LBRM_SIM_QUEUE=heap` actually switching backends.
    #[test]
    fn unrecognized_backend_is_rejected() {
        for typo in ["haep", "wheell", "binaryheap", "0", "default"] {
            assert_eq!(QueueBackend::parse(typo), None, "{typo:?}");
        }
    }

    /// Keyed pushes impose `(at, key)` order regardless of push order,
    /// identically on both backends; auto-keyed pushes at the same
    /// instant sort after all keyed ones.
    #[test]
    fn keyed_pushes_pop_in_key_order_on_both_backends() {
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            let mut q: EventQueue<u32> = EventQueue::new(backend);
            let t = SimTime::from_millis(3);
            q.push_keyed(t, (7u128 << 64) | 1, 71);
            q.push_keyed(t, (2u128 << 64) | 9, 29);
            q.push(t, 999); // auto key: after every keyed event at `t`
            q.push_keyed(t, (2u128 << 64) | 3, 23);
            q.push_keyed(SimTime::from_millis(1), (9u128 << 64) | 9, 99);
            let order: Vec<(u128, u32)> =
                std::iter::from_fn(|| q.pop_keyed().map(|(_, k, i)| (k & !AUTO_KEY_BIT, i)))
                    .collect();
            assert_eq!(
                order,
                vec![
                    ((9u128 << 64) | 9, 99),
                    ((2u128 << 64) | 3, 23),
                    ((2u128 << 64) | 9, 29),
                    ((7u128 << 64) | 1, 71),
                    (1, 999),
                ],
                "{backend:?}"
            );
        }
    }

    /// Same keyed schedule, different push interleavings, both backends:
    /// the pop sequence (time, key, item) must be identical — this is
    /// the property the sharded world's cross-shard merge rests on.
    #[test]
    fn keyed_pop_order_is_push_order_invariant() {
        let mut s = 0xD15_EA5E_u64;
        let mut events: Vec<(SimTime, u128, u32)> = (0..500u32)
            .map(|i| {
                let at = SimTime::from_nanos(splitmix(&mut s) % 3_000_000_000);
                let ent = u128::from(splitmix(&mut s) % 64);
                ((at), (ent << 64) | u128::from(i), i)
            })
            .collect();
        let mut reference: Option<Vec<(SimTime, u128, u32)>> = None;
        for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
            for pass in 0..2 {
                let mut q = EventQueue::new(backend);
                if pass == 1 {
                    events.reverse();
                }
                for (at, key, item) in &events {
                    q.push_keyed(*at, *key, *item);
                }
                let popped: Vec<_> = std::iter::from_fn(|| q.pop_keyed()).collect();
                match &reference {
                    None => reference = Some(popped),
                    Some(r) => assert_eq!(r, &popped, "{backend:?} pass {pass}"),
                }
            }
        }
    }

    #[test]
    fn level_for_boundaries() {
        assert_eq!(level_for(1), 0);
        assert_eq!(level_for(255), 0);
        assert_eq!(level_for(256), 0); // full rotation alias stays low
        assert_eq!(level_for(257), 1);
        assert_eq!(level_for(65_536), 1);
        assert_eq!(level_for(65_537), 2);
        assert_eq!(level_for(u64::MAX >> GRANULARITY_SHIFT), 5);
    }

    #[test]
    fn next_occupied_scans_wrap() {
        let mut occ = [0u64; WORDS];
        assert_eq!(next_occupied(&occ, 0), None);
        occ[0] |= 1 << 5;
        assert_eq!(next_occupied(&occ, 0), Some((5, 5)));
        assert_eq!(next_occupied(&occ, 5), Some((256, 5)));
        assert_eq!(next_occupied(&occ, 200), Some((61, 5)));
        occ[3] |= 1 << 63;
        assert_eq!(next_occupied(&occ, 5), Some((250, 255)));
    }
}

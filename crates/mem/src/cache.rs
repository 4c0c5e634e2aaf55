//! Set-associative write-back caches with LRU replacement.
//!
//! Table 1 of the paper: 16 kB 2-way L1 and 64 kB 8-way L2, both with 64 B
//! lines. The caches are deliberately small "to capture the behavior that
//! real-sized input data would exhibit on an actual machine with larger
//! caches", following the SPLASH-2 methodology the paper cites.
//!
//! The cache stores coherence state only — the machine layer tracks logical
//! values (such as the barrier flag's sense) separately, so no data payload
//! is simulated. A per-cache dirty index (one bit per way, set while the
//! way holds a `Modified` line) lets the deep-sleep flush visit only the
//! dirty lines a CPU must flush before entering a non-snoopable
//! sleep state, instead of every way.
//!
//! # Layout
//!
//! The ways are stored as one flat `Vec<Way>` of length `sets × assoc`,
//! with set `s` occupying the contiguous slice
//! `[s * assoc, (s + 1) * assoc)`. Empty slots are marked
//! [`LineState::Invalid`] in place, so a lookup is a short inline scan over
//! at most `assoc` contiguous entries — no per-set `Vec` headers, no
//! pointer chase, no allocation after construction. The set count is a
//! power of two (asserted by [`CacheConfig::new`]), so the set index is a
//! bit-mask rather than a division.

use crate::addr::{Addr, LineAddr, LINE_BYTES};
use crate::mesi::LineState;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    size_bytes: u64,
    associativity: u32,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the size is a positive multiple of
    /// `associativity * 64 B` and the resulting set count is a power of two.
    pub fn new(size_bytes: u64, associativity: u32) -> Self {
        assert!(associativity > 0, "associativity must be positive");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(LINE_BYTES * associativity as u64),
            "cache size must be a positive multiple of associativity * line size"
        );
        let sets = size_bytes / (LINE_BYTES * associativity as u64);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            associativity,
        }
    }

    /// Table 1 L1: 16 kB, 2-way, 64 B lines.
    pub fn table1_l1() -> Self {
        CacheConfig::new(16 * 1024, 2)
    }

    /// Table 1 L2: 64 kB, 8-way, 64 B lines.
    pub fn table1_l2() -> Self {
        CacheConfig::new(64 * 1024, 8)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Ways per set.
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.associativity as u64)
    }
}

/// One slot of the flat way array. `state == Invalid` marks an empty slot;
/// `line`/`last_used` are meaningless then.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Way {
    line: LineAddr,
    state: LineState,
    last_used: u64,
}

impl Way {
    fn empty() -> Self {
        Way {
            line: Addr::new(0).line(),
            state: LineState::Invalid,
            last_used: 0,
        }
    }

    fn holds(&self, line: LineAddr) -> bool {
        self.state.is_valid() && self.line == line
    }
}

/// A single cache level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × assoc` slots; set `s` is the slice `[s*assoc, (s+1)*assoc)`.
    ways: Vec<Way>,
    /// `sets - 1`: power-of-two set count makes the index a mask.
    set_mask: u64,
    assoc: usize,
    /// Valid (non-`Invalid`) slots, kept incrementally so `len()` is O(1).
    valid: usize,
    tick: u64,
    /// The dirty index: bit `i` is set while `ways[i]` is `Modified`.
    /// Every state change goes through [`Cache::put`], which keeps it exact.
    dirty: Vec<u64>,
}

/// A line pushed out of the cache by [`Cache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evicted {
    /// The displaced line.
    pub line: LineAddr,
    /// Its state at eviction; `Modified` means a write-back is required.
    pub state: LineState,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.associativity as usize;
        Cache {
            config,
            ways: vec![Way::empty(); sets as usize * assoc],
            set_mask: sets - 1,
            assoc,
            valid: 0,
            tick: 0,
            dirty: vec![0; (sets as usize * assoc).div_ceil(64)],
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// First slot of `line`'s set in the flat way array.
    fn set_base(&self, line: LineAddr) -> usize {
        // Mix the high bits in so private-region lines (which share high
        // tag bits) spread across sets. Set count is a power of two, so
        // the modulo is a mask.
        let raw = line.as_u64();
        let mixed = raw ^ (raw >> 32);
        (mixed & self.set_mask) as usize * self.assoc
    }

    /// The slot holding `line`, if resident.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        (base..base + self.assoc).find(|&i| self.ways[i].holds(line))
    }

    /// Stores `state` in slot `i`, keeping the dirty index in step.
    fn put(&mut self, i: usize, state: LineState) {
        self.ways[i].state = state;
        let bit = 1u64 << (i % 64);
        if state.is_dirty() {
            self.dirty[i / 64] |= bit;
        } else {
            self.dirty[i / 64] &= !bit;
        }
    }

    /// The state of `line`, updating LRU recency. `Invalid` if absent.
    pub fn access(&mut self, line: LineAddr) -> LineState {
        self.tick += 1;
        let Some(i) = self.find(line) else {
            return LineState::Invalid;
        };
        self.ways[i].last_used = self.tick;
        self.ways[i].state
    }

    /// One-scan write probe: behaves like [`Cache::access`] (LRU bump,
    /// tick advance) and *additionally* performs the silent-write upgrade
    /// in the same pass when the line is writable without coherence
    /// (`Modified`/`Exclusive` — see [`LineState::can_write_silently`]).
    ///
    /// Returns the state **before** the upgrade, so `can_write_silently()`
    /// on it means the write has already been applied, and the line's
    /// slot, so a coherence upgrade can finish with [`Cache::modify_at`]
    /// instead of a second tag scan (the slot is meaningless for `Invalid`).
    pub fn write_access(&mut self, line: LineAddr) -> (LineState, usize) {
        self.tick += 1;
        let Some(i) = self.find(line) else {
            return (LineState::Invalid, 0);
        };
        self.ways[i].last_used = self.tick;
        let before = self.ways[i].state;
        if before == LineState::Exclusive {
            self.put(i, LineState::Modified);
        }
        (before, i)
    }

    /// [`Cache::write_access`] over up to `n` consecutive lines from
    /// `first`, in one tight loop that stops at the first line that cannot
    /// be written silently. Returns the number of silent writes and the
    /// stopping line's probe (`Invalid` when all `n` were silent).
    pub(crate) fn write_silent_run(&mut self, first: LineAddr, n: u64) -> (u64, LineState, usize) {
        let mut tick = self.tick;
        let mut k = 0;
        let mut stop = (LineState::Invalid, 0);
        while k < n {
            tick += 1;
            let line = first.base_addr().offset(k * LINE_BYTES).line();
            let Some(i) = self.find(line) else { break };
            self.ways[i].last_used = tick;
            match self.ways[i].state {
                LineState::Modified => {}
                LineState::Exclusive => self.put(i, LineState::Modified),
                state => {
                    stop = (state, i);
                    break;
                }
            }
            k += 1;
        }
        self.tick = tick;
        (k, stop.0, stop.1)
    }

    /// Makes the line in `slot` (from a write probe) `Modified` in place,
    /// without counting a use.
    pub(crate) fn modify_at(&mut self, slot: usize) {
        self.put(slot, LineState::Modified);
    }

    /// The state of `line` without touching LRU state (a coherence probe).
    pub fn probe(&self, line: LineAddr) -> LineState {
        self.find(line)
            .map_or(LineState::Invalid, |i| self.ways[i].state)
    }

    /// Inserts (or updates) `line` with `state`, evicting the LRU way if
    /// the set is full. Returns the evicted line, if any.
    ///
    /// # Panics
    ///
    /// Panics if `state` is `Invalid` — use [`Cache::invalidate`] instead.
    pub fn insert(&mut self, line: LineAddr, state: LineState) -> Option<Evicted> {
        assert!(state.is_valid(), "cannot insert a line in Invalid state");
        self.tick += 1;
        let tick = self.tick;
        let base = self.set_base(line);
        let mut free: Option<usize> = None;
        let mut victim = base;
        let mut victim_used = u64::MAX;
        for i in base..base + self.assoc {
            let way = &self.ways[i];
            if way.holds(line) {
                self.ways[i].last_used = tick;
                self.put(i, state);
                return None;
            }
            if !way.state.is_valid() {
                if free.is_none() {
                    free = Some(i);
                }
            } else if way.last_used < victim_used {
                // `last_used` ticks are unique (tick advances on every
                // access/insert), so the LRU victim is unambiguous.
                victim_used = way.last_used;
                victim = i;
            }
        }
        let slot = free.unwrap_or(victim);
        let old = &self.ways[slot];
        let evicted = old.state.is_valid().then_some(Evicted {
            line: old.line,
            state: old.state,
        });
        self.valid += usize::from(evicted.is_none());
        self.ways[slot].line = line;
        self.ways[slot].last_used = tick;
        self.put(slot, state);
        evicted
    }

    /// Changes the state of a resident line in place; returns `false` if
    /// the line is absent.
    pub fn set_state(&mut self, line: LineAddr, state: LineState) -> bool {
        assert!(state.is_valid(), "use invalidate to drop a line");
        match self.find(line) {
            Some(i) => {
                self.put(i, state);
                true
            }
            None => false,
        }
    }

    /// Removes `line`; returns its prior state if it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let i = self.find(line)?;
        let prior = self.ways[i].state;
        self.put(i, LineState::Invalid);
        self.valid -= 1;
        Some(prior)
    }

    /// The deep-sleep flush of one node (§3.1): downgrades every dirty
    /// shared line of this L1 and of its inclusive `l2` to `Shared` in
    /// place, calling `on_line` once per distinct line. Private lines stay
    /// dirty. The L1 goes first and sets each line's L2 copy to `Shared`,
    /// so the L2 pass finds only the lines dirty there alone. Both passes
    /// walk the dirty index, so the cost is O(dirty lines), and the
    /// outcome does not depend on the order the lines are visited in.
    pub(crate) fn flush_dirty_shared(&mut self, l2: &mut Cache, mut on_line: impl FnMut(LineAddr)) {
        self.downgrade_dirty_shared(|line| {
            if !l2.set_state(line, LineState::Shared) {
                // Inclusion makes this unreachable; keep the copy coherent.
                l2.insert(line, LineState::Shared);
            }
            on_line(line);
        });
        l2.downgrade_dirty_shared(on_line);
    }

    /// Sets every dirty non-private line to `Shared`, reporting each.
    fn downgrade_dirty_shared(&mut self, mut on_line: impl FnMut(LineAddr)) {
        for w in 0..self.dirty.len() {
            let mut bits = self.dirty[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let line = self.ways[i].line;
                if !line.base_addr().is_private() {
                    self.put(i, LineState::Shared);
                    on_line(line);
                }
            }
        }
    }

    /// All valid lines, for invariant checks.
    pub fn resident_lines(&self) -> Vec<(LineAddr, LineState)> {
        let mut out = Vec::new();
        self.resident_lines_into(&mut out);
        out.sort_unstable_by_key(|(l, _)| *l);
        out
    }

    /// Appends all valid lines to `out` without sorting.
    pub fn resident_lines_into(&self, out: &mut Vec<(LineAddr, LineState)>) {
        out.extend(
            self.ways
                .iter()
                .filter(|w| w.state.is_valid())
                .map(|w| (w.line, w.state)),
        );
    }

    /// Number of valid lines resident.
    pub fn len(&self) -> usize {
        self.valid
    }

    /// `true` when the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dirty: u32 = self.dirty.iter().map(|w| w.count_ones()).sum();
        write!(
            f,
            "{}B {}-way: {} lines resident ({} dirty)",
            self.config.size_bytes,
            self.config.associativity,
            self.len(),
            dirty
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn line(n: u64) -> LineAddr {
        Addr::new(n * LINE_BYTES).line()
    }

    #[test]
    fn table1_geometries() {
        let l1 = CacheConfig::table1_l1();
        assert_eq!(l1.sets(), 128);
        assert_eq!(l1.associativity(), 2);
        let l2 = CacheConfig::table1_l2();
        assert_eq!(l2.sets(), 128);
        assert_eq!(l2.associativity(), 8);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        assert_eq!(c.access(line(1)), LineState::Invalid);
        assert!(c.insert(line(1), LineState::Shared).is_none());
        assert_eq!(c.access(line(1)), LineState::Shared);
        assert_eq!(c.probe(line(1)), LineState::Shared);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way: fill a set with lines A and B, touch A, insert C in the
        // same set: B must be the victim.
        let cfg = CacheConfig::new(2 * 64 * 2, 2); // 2 sets, 2-way
        let mut c = Cache::new(cfg);
        let sets = cfg.sets();
        // Lines mapping to set 0 under the mixed index: choose multiples of sets.
        let a = line(0);
        let b = line(sets);
        let x = line(2 * sets);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.access(a); // make B the LRU
        let ev = c.insert(x, LineState::Shared).expect("set was full");
        assert_eq!(ev.line, b);
        assert_eq!(c.probe(a), LineState::Shared);
        assert_eq!(c.probe(b), LineState::Invalid);
    }

    #[test]
    fn dirty_eviction_reports_modified() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::new(cfg);
        c.insert(line(0), LineState::Modified);
        c.insert(line(1), LineState::Shared);
        let ev = c.insert(line(2), LineState::Exclusive).unwrap();
        assert_eq!(ev.line, line(0));
        assert!(ev.state.is_dirty());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(9), LineState::Exclusive);
        assert!(c.insert(line(9), LineState::Modified).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.probe(line(9)), LineState::Modified);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(4), LineState::Shared);
        assert_eq!(c.invalidate(line(4)), Some(LineState::Shared));
        assert_eq!(c.invalidate(line(4)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn set_state_transitions() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(7), LineState::Exclusive);
        assert!(c.set_state(line(7), LineState::Modified));
        assert_eq!(c.probe(line(7)), LineState::Modified);
        assert!(!c.set_state(line(8), LineState::Shared));
    }

    /// The dirty index agrees with a scan of the ways.
    fn assert_index_exact(c: &Cache) {
        for (i, w) in c.ways.iter().enumerate() {
            let bit = c.dirty[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(bit, w.state.is_dirty(), "slot {i} in {:?}", w.state);
        }
    }

    #[test]
    fn flush_downgrades_each_dirty_shared_line_once() {
        let mut l1 = Cache::new(CacheConfig::table1_l1());
        let mut l2 = Cache::new(CacheConfig::table1_l2());
        let layout = crate::addr::MemLayout::new(4);
        let private = layout.private_addr(crate::NodeId::new(1), 0, 0).line();
        // Line 1 dirty at both levels, line 2 dirty only in the L2, line 3
        // clean, and a dirty private line that must stay dirty.
        for l in [line(1), line(2), line(3), private] {
            l2.insert(l, LineState::Modified);
        }
        l2.set_state(line(3), LineState::Shared);
        l1.insert(line(1), LineState::Modified);
        l1.insert(line(3), LineState::Shared);
        l1.insert(private, LineState::Modified);
        let mut flushed = Vec::new();
        l1.flush_dirty_shared(&mut l2, |l| flushed.push(l));
        flushed.sort_unstable();
        assert_eq!(flushed, vec![line(1), line(2)]);
        for l in [line(1), line(3)] {
            assert_eq!(l1.probe(l), LineState::Shared);
        }
        for l in [line(1), line(2), line(3)] {
            assert_eq!(l2.probe(l), LineState::Shared);
        }
        assert_eq!(l1.probe(private), LineState::Modified);
        assert_eq!(l2.probe(private), LineState::Modified);
        assert!(l1.to_string().contains("1 dirty"));
        assert!(l2.to_string().contains("1 dirty"));
        assert_index_exact(&l1);
        assert_index_exact(&l2);
        l1.flush_dirty_shared(&mut l2, |l| panic!("{l} flushed twice"));
    }

    #[test]
    fn dirty_index_tracks_every_state_change() {
        let mut c = Cache::new(CacheConfig::new(4 * 64 * 2, 2)); // 4 sets, 2-way
        let states = [LineState::Modified, LineState::Exclusive, LineState::Shared];
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..2_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let l = line(rng % 16);
            let state = states[(rng >> 8) as usize % 3];
            match (rng >> 16) % 5 {
                0 => {
                    c.insert(l, state);
                }
                1 => {
                    c.set_state(l, state);
                }
                2 => {
                    c.invalidate(l);
                }
                3 => {
                    c.write_access(l);
                }
                _ => {
                    let (before, slot) = c.write_access(l);
                    if before.is_valid() {
                        c.modify_at(slot);
                        assert_eq!(c.probe(l), LineState::Modified);
                    }
                }
            }
            assert_index_exact(&c);
        }
    }

    #[test]
    fn write_silent_run_matches_write_access() {
        // Same slots, states, LRU ticks and dirty index as probing the
        // lines one by one, stopping where a write needs coherence.
        let states = [LineState::Modified, LineState::Exclusive, LineState::Shared];
        for seed in 0..64u64 {
            let mut c = Cache::new(CacheConfig::new(8 * 64 * 2, 2)); // 8 sets, 2-way
            for l in 0..24 {
                if (seed >> (l % 6)) & 1 == 1 || l % 5 == 0 {
                    c.insert(line(l), states[((seed + l) % 3) as usize]);
                }
            }
            let (first, n) = (seed % 8, 4 + seed % 12);
            let mut run = c.clone();
            let (silent, state, slot) = run.write_silent_run(line(first), n);
            let mut k = 0;
            let stop = loop {
                if k == n {
                    break (LineState::Invalid, 0);
                }
                let (before, slot) = c.write_access(line(first + k));
                if !before.can_write_silently() {
                    break (before, slot);
                }
                k += 1;
            };
            assert_eq!((silent, state), (k, stop.0), "seed {seed}");
            if state.is_valid() {
                assert_eq!(slot, stop.1);
            }
            assert!(run.ways == c.ways && run.tick == c.tick && run.dirty == c.dirty);
        }
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::new(cfg);
        c.insert(line(0), LineState::Shared);
        c.insert(line(1), LineState::Shared);
        c.probe(line(0)); // must NOT refresh line 0
        let ev = c.insert(line(2), LineState::Shared).unwrap();
        assert_eq!(ev.line, line(0), "probe must not count as a use");
    }

    #[test]
    fn invalidated_slot_is_reused_before_eviction() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::new(cfg);
        c.insert(line(0), LineState::Shared);
        c.insert(line(1), LineState::Shared);
        c.invalidate(line(0));
        // The set has a free slot again: no eviction on the next insert.
        assert!(c.insert(line(2), LineState::Shared).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.probe(line(1)), LineState::Shared);
        assert_eq!(c.probe(line(2)), LineState::Shared);
    }

    #[test]
    #[should_panic(expected = "Invalid state")]
    fn inserting_invalid_panics() {
        Cache::new(CacheConfig::table1_l1()).insert(line(0), LineState::Invalid);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(3 * 64 * 2, 2);
    }

    #[test]
    fn capacity_is_respected() {
        let cfg = CacheConfig::table1_l1();
        let mut c = Cache::new(cfg);
        let capacity = (cfg.size_bytes() / LINE_BYTES) as usize;
        for i in 0..10_000 {
            c.insert(line(i), LineState::Shared);
        }
        assert!(c.len() <= capacity);
    }

    #[test]
    fn display_mentions_dirty_count() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(0), LineState::Modified);
        assert!(c.to_string().contains("1 dirty"));
    }
}

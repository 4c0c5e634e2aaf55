//! Two-tier full-map coherence directory storage.
//!
//! Every coherence transaction consults (and usually updates) the
//! directory entry of its line, so the entry lookup sits squarely on the
//! simulator's hot path. A `HashMap<LineAddr, DirState>` pays a SipHash
//! plus probe sequence per transaction; this module replaces it with:
//!
//! * a **dense tier** — a flat `Vec<DirState>` indexed directly by line
//!   number, pre-sized to cover the shared pages the machine layer
//!   actually touches (barrier count/flag pages and the per-thread
//!   working-set pages all live in the first few hundred shared pages),
//!   making the common lookup a bounds-checked array load; and
//! * a **sparse tier** — an integer-hashed `HashMap` fallback for
//!   stragglers (private-region lines, whose addresses carry the private
//!   tag in bit 63, and any shared line beyond the dense window). The
//!   hasher is a single multiply (Fibonacci-style, the `fxhash`
//!   finalizer), not SipHash; entries are removed when they return to
//!   [`DirState::Uncached`] so iteration and memory stay proportional to
//!   the genuinely-cached straggler population.
//!
//! Both tiers agree on semantics: an absent entry *is*
//! [`DirState::Uncached`], exactly like the old map's
//! `get().unwrap_or_default()`.

use crate::addr::{LineAddr, LINE_BYTES};
use crate::mesi::DirState;
use crate::Addr;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Shared pages covered by the dense tier. The machine layer places the
/// barrier pages at 2–3 and the working sets at pages 64..576
/// (`DIRTY_BASE_PAGE + 64 threads × 8 pages`); 1024 pages leaves slack
/// for future layouts. A `DirState` is 16 B, so the tier costs
/// `1024 pages × 64 lines × 16 B` = 1 MiB per memory system.
const DENSE_PAGES: u64 = 1024;

/// Line numbers below this hit the dense tier.
const DENSE_LINES: u64 = DENSE_PAGES * (crate::addr::PAGE_BYTES / LINE_BYTES);

/// A 64-bit integer hasher in the `fxhash` family: one XOR-fold and one
/// multiply. Keys are line numbers (already well-mixed by the private-bit
/// layout), so this is collision-adequate and an order of magnitude
/// cheaper than the default SipHash.
#[derive(Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold arbitrary input anyway so
        // the impl is total.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x517cc1b727220a95);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x517cc1b727220a95);
    }
}

type SparseMap = HashMap<u64, DirState, BuildHasherDefault<LineHasher>>;

/// Full-map directory storage: dense array for the known-hot shared page
/// window, integer-hashed map for everything else.
#[derive(Debug, Clone)]
pub struct Directory {
    dense: Vec<DirState>,
    sparse: SparseMap,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// Creates an empty directory (every line `Uncached`).
    pub fn new() -> Self {
        Directory {
            dense: vec![DirState::Uncached; DENSE_LINES as usize],
            sparse: SparseMap::default(),
        }
    }

    /// The entry for `line`; `Uncached` if never set.
    #[inline]
    pub fn get(&self, line: LineAddr) -> DirState {
        let n = line.as_u64();
        if n < DENSE_LINES {
            self.dense[n as usize]
        } else {
            self.sparse.get(&n).copied().unwrap_or_default()
        }
    }

    /// Sets the entry for `line`. Setting `Uncached` erases it.
    #[inline]
    pub fn set(&mut self, line: LineAddr, state: DirState) {
        let n = line.as_u64();
        if n < DENSE_LINES {
            self.dense[n as usize] = state;
        } else if state == DirState::Uncached {
            self.sparse.remove(&n);
        } else {
            self.sparse.insert(n, state);
        }
    }

    /// All lines whose entry is not `Uncached`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, DirState)> + '_ {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != DirState::Uncached)
            .map(|(n, s)| (line_from_raw(n as u64), *s));
        let sparse = self
            .sparse
            .iter()
            .filter(|(_, s)| **s != DirState::Uncached)
            .map(|(n, s)| (line_from_raw(*n), *s));
        dense.chain(sparse)
    }
}

fn line_from_raw(n: u64) -> LineAddr {
    Addr::new(n * LINE_BYTES).line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesi::SharerSet;
    use crate::NodeId;

    fn line(n: u64) -> LineAddr {
        line_from_raw(n)
    }

    fn shared(nodes: &[u16]) -> DirState {
        let mut s = SharerSet::EMPTY;
        for &n in nodes {
            s.insert(NodeId::new(n));
        }
        DirState::Shared(s)
    }

    #[test]
    fn absent_is_uncached_in_both_tiers() {
        let d = Directory::new();
        assert_eq!(d.get(line(0)), DirState::Uncached);
        assert_eq!(d.get(line(DENSE_LINES + 7)), DirState::Uncached);
        assert_eq!(d.get(line(u64::MAX / LINE_BYTES)), DirState::Uncached);
    }

    #[test]
    fn set_get_roundtrip_across_the_boundary() {
        let mut d = Directory::new();
        for n in [0, 1, DENSE_LINES - 1, DENSE_LINES, DENSE_LINES + 1, 1 << 40] {
            let st = shared(&[3]);
            d.set(line(n), st);
            assert_eq!(d.get(line(n)), st, "line {n}");
        }
    }

    #[test]
    fn setting_uncached_erases() {
        let mut d = Directory::new();
        d.set(line(5), shared(&[1]));
        d.set(line(DENSE_LINES + 5), shared(&[2]));
        d.set(line(5), DirState::Uncached);
        d.set(line(DENSE_LINES + 5), DirState::Uncached);
        assert_eq!(d.get(line(5)), DirState::Uncached);
        assert_eq!(d.get(line(DENSE_LINES + 5)), DirState::Uncached);
        assert_eq!(d.iter().count(), 0);
        assert!(
            d.sparse.is_empty(),
            "sparse tier must not retain tombstones"
        );
    }

    #[test]
    fn iter_spans_both_tiers() {
        let mut d = Directory::new();
        d.set(line(2), shared(&[0]));
        d.set(line(DENSE_LINES + 9), shared(&[1]));
        let mut got: Vec<u64> = d.iter().map(|(l, _)| l.as_u64()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![2, DENSE_LINES + 9]);
    }

    #[test]
    fn dense_tier_costs_one_mib() {
        let bytes = std::mem::size_of::<DirState>() * DENSE_LINES as usize;
        assert_eq!(bytes, 1 << 20);
    }

    #[test]
    fn dense_window_covers_machine_layout() {
        // The machine layer's hottest lines: barrier pages 2–3 and
        // working-set pages 64..(64 + 64 × 8). All must be dense hits.
        let lines_per_page = crate::addr::PAGE_BYTES / LINE_BYTES;
        let last_ws_page = 64 + 64 * 8 - 1;
        assert!((last_ws_page + 1) * lines_per_page <= DENSE_LINES);
    }
}

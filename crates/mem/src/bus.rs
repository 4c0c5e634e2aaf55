//! A snooping-bus SMP memory system — the alternative substrate.
//!
//! The paper's machine is a directory-based CC-NUMA; its related work
//! (Jetty, serial snooping) targets *bus-based SMPs*, where every cache
//! snoops a shared bus and writes broadcast their invalidations. For the
//! thrifty barrier the difference is concentrated in one place: the
//! external wake-up. On a bus, the flag-flip's invalidation is observed by
//! **all** sharers at the same instant (one broadcast), while the
//! directory fans out point-to-point messages with per-destination
//! latencies. The bus also serializes *every* miss, so barrier arrival
//! storms contend.
//!
//! [`BusMemorySystem`] exposes the same transactional API as the directory
//! [`crate::MemorySystem`] (reads/writes returning completion times and
//! invalidation deliveries, plus dirty-shared flushes), so the machine
//! simulator runs unchanged on either substrate via
//! [`crate::CoherentMemory`].
//!
//! Internally the model keeps an exact sharer map per line — the moral
//! equivalent of duplicate snoop tags — while the *timing* follows the
//! bus: arbitration, one address phase that every controller snoops, and
//! a data phase from memory or the owning cache.

use crate::addr::{Addr, LineAddr, MemLayout, NodeId};
use crate::cache::{Cache, CacheConfig, Evicted};
use crate::dir::Directory;
use crate::mesi::{DirState, LineState, SharerSet};
use crate::system::{Access, AccessClass, FlushOutcome, Invalidation, MemStats};
use serde::{Deserialize, Serialize};
use std::fmt;
use tb_sim::Cycles;

/// Bus-based SMP parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Number of processors on the bus.
    pub nodes: u16,
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L1 round-trip latency.
    pub l1_round_trip: Cycles,
    /// L2 round-trip latency.
    pub l2_round_trip: Cycles,
    /// Bus arbitration latency (request to grant, uncontended).
    pub arbitration: Cycles,
    /// Address-phase duration; every controller snoops it.
    pub snoop: Cycles,
    /// DRAM access time for a miss served by memory.
    pub mem_access: Cycles,
    /// Data-phase duration for one 64 B line.
    pub data_transfer: Cycles,
}

impl BusConfig {
    /// A Table 1-flavored bus SMP: same caches and DRAM as the CC-NUMA
    /// machine, a 250 MHz bus with 20 ns arbitration and 12 ns snoop
    /// phases.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= nodes <= 64`.
    pub fn smp(nodes: u16) -> Self {
        assert!(
            (2..=64).contains(&nodes),
            "bus SMP size must be in 2..=64, got {nodes}"
        );
        BusConfig {
            nodes,
            l1: CacheConfig::table1_l1(),
            l2: CacheConfig::table1_l2(),
            l1_round_trip: Cycles::from_nanos(2),
            l2_round_trip: Cycles::from_nanos(12),
            arbitration: Cycles::from_nanos(20),
            snoop: Cycles::from_nanos(12),
            mem_access: Cycles::from_nanos(60),
            data_transfer: Cycles::from_nanos(16),
        }
    }
}

impl fmt::Display for BusConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-processor snooping bus (arb {}, snoop {}, data {})",
            self.nodes, self.arbitration, self.snoop, self.data_transfer
        )
    }
}

#[derive(Debug)]
struct NodeCaches {
    l1: Cache,
    l2: Cache,
}

/// The snooping-bus SMP memory system.
#[derive(Debug)]
pub struct BusMemorySystem {
    cfg: BusConfig,
    layout: MemLayout,
    nodes: Vec<NodeCaches>,
    lines: Directory,
    bus_free_at: Cycles,
    stats: MemStats,
    /// Wake-up fault injector (`None` outside fault experiments).
    faults: Option<crate::faults::InvalidationFaults>,
}

impl BusMemorySystem {
    /// Creates a bus SMP with cold caches.
    pub fn new(cfg: BusConfig) -> Self {
        let layout = MemLayout::new(cfg.nodes);
        let nodes = (0..cfg.nodes)
            .map(|_| NodeCaches {
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
            })
            .collect();
        BusMemorySystem {
            cfg,
            layout,
            nodes,
            lines: Directory::new(),
            bus_free_at: Cycles::ZERO,
            stats: MemStats::default(),
            faults: None,
        }
    }

    /// Installs a wake-up fault injector. Invalidations of its watched line
    /// produced by subsequent [`write`](Self::write) calls may be lost or
    /// delayed; everything else is untouched.
    pub fn set_faults(&mut self, faults: crate::faults::InvalidationFaults) {
        self.faults = Some(faults);
    }

    /// Drains the injector's fault log (empty when no injector is set).
    pub fn drain_fault_log(&mut self) -> Vec<crate::faults::InvalidationFaultRecord> {
        self.faults
            .as_mut()
            .map(crate::faults::InvalidationFaults::drain_log)
            .unwrap_or_default()
    }

    /// The machine's address layout (homes are irrelevant on a bus; every
    /// line's backing store is the one shared memory).
    pub fn layout(&self) -> &MemLayout {
        &self.layout
    }

    /// The configuration.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Event counters.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Sharing state of a line (for tests).
    pub fn line_state(&self, line: LineAddr) -> DirState {
        self.lines.get(line)
    }

    /// When the bus next falls idle.
    pub fn bus_free_at(&self) -> Cycles {
        self.bus_free_at
    }

    /// The per-level cache states of `line` at `node` (L1, L2), without
    /// perturbing LRU state — for invariant checks.
    pub fn probe_levels(&self, node: NodeId, line: LineAddr) -> (LineState, LineState) {
        let nc = &self.nodes[node.index()];
        (nc.l1.probe(line), nc.l2.probe(line))
    }

    /// Cache state at a node without LRU perturbation.
    pub fn cached_state(&self, node: NodeId, line: LineAddr) -> LineState {
        let nc = &self.nodes[node.index()];
        let l1 = nc.l1.probe(line);
        if l1.is_valid() {
            l1
        } else {
            nc.l2.probe(line)
        }
    }

    /// Acquires the bus at or after `ready`; returns the grant time and
    /// marks the bus busy until the transaction's `occupancy` completes.
    fn bus_grant(&mut self, ready: Cycles, occupancy: Cycles) -> Cycles {
        let grant = (ready + self.cfg.arbitration).max(self.bus_free_at);
        self.bus_free_at = grant + occupancy;
        grant
    }

    /// Performs a read by `node` at `now`.
    pub fn read(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
        self.stats.reads += 1;
        let line = addr.line();
        let nc = &mut self.nodes[node.index()];
        let l1 = nc.l1.access(line);
        if l1.is_valid() {
            self.stats.l1_hits += 1;
            return Access {
                completion: now + self.cfg.l1_round_trip,
                class: AccessClass::L1Hit,
                line,
                invalidations: Vec::new(),
            };
        }
        let l2 = nc.l2.access(line);
        if l2.is_valid() {
            self.stats.l2_hits += 1;
            self.fill_l1(node, line, l2);
            return Access {
                completion: now + self.cfg.l2_round_trip,
                class: AccessClass::L2Hit,
                line,
                invalidations: Vec::new(),
            };
        }
        // Bus read (BusRd).
        self.stats.dir_transactions += 1;
        let state = self.line_state(line);
        let (occupancy, class, new_cache_state) = match state {
            DirState::Exclusive(owner) if owner != node => {
                // The owning cache supplies the data and downgrades.
                self.stats.cache_to_cache += 1;
                let was_dirty = {
                    let onc = &mut self.nodes[owner.index()];
                    let dirty = onc.l1.probe(line).is_dirty() || onc.l2.probe(line).is_dirty();
                    if onc.l1.probe(line).is_valid() {
                        onc.l1.set_state(line, LineState::Shared);
                    }
                    if onc.l2.probe(line).is_valid() {
                        onc.l2.set_state(line, LineState::Shared);
                    }
                    dirty
                };
                if was_dirty {
                    self.stats.writebacks += 1;
                }
                (
                    self.cfg.snoop + self.cfg.data_transfer,
                    AccessClass::CacheToCache,
                    LineState::Shared,
                )
            }
            DirState::Shared(_) => (
                self.cfg.snoop + self.cfg.mem_access + self.cfg.data_transfer,
                AccessClass::LocalMem,
                LineState::Shared,
            ),
            _ => (
                self.cfg.snoop + self.cfg.mem_access + self.cfg.data_transfer,
                AccessClass::LocalMem,
                LineState::Exclusive,
            ),
        };
        let grant = self.bus_grant(now + self.cfg.l2_round_trip, occupancy);
        let completion = grant + occupancy;
        let mut holders = state.holders();
        holders.insert(node);
        self.lines.set(
            line,
            if new_cache_state == LineState::Exclusive {
                DirState::Exclusive(node)
            } else {
                DirState::Shared(holders)
            },
        );
        self.fill_both(node, line, new_cache_state);
        Access {
            completion,
            class,
            line,
            invalidations: Vec::new(),
        }
    }

    /// Performs a write by `node` at `now`.
    pub fn write(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
        self.stats.writes += 1;
        let line = addr.line();
        let nc = &mut self.nodes[node.index()];
        let (l1, _) = nc.l1.write_access(line);
        if l1.can_write_silently() {
            self.stats.l1_hits += 1;
            return Access {
                completion: now + self.cfg.l1_round_trip,
                class: AccessClass::L1Hit,
                line,
                invalidations: Vec::new(),
            };
        }
        let mut access = self.write_after_l1(node, line, l1, now);
        if let Some(f) = self.faults.as_mut() {
            f.apply(&mut access.invalidations);
        }
        access
    }

    /// The non-silent remainder of [`write`](Self::write), entered after the
    /// L1 probe (whose LRU bump already happened) returned `l1`.
    fn write_after_l1(
        &mut self,
        node: NodeId,
        line: LineAddr,
        l1: LineState,
        now: Cycles,
    ) -> Access {
        let nc = &mut self.nodes[node.index()];
        if !l1.is_valid() {
            let (l2, _) = nc.l2.write_access(line);
            if l2.can_write_silently() {
                self.stats.l2_hits += 1;
                self.fill_l1(node, line, LineState::Modified);
                return Access {
                    completion: now + self.cfg.l2_round_trip,
                    class: AccessClass::L2Hit,
                    line,
                    invalidations: Vec::new(),
                };
            }
        }
        // Bus upgrade or read-exclusive (BusRdX): one broadcast address
        // phase invalidates every other copy simultaneously.
        self.stats.dir_transactions += 1;
        let state = self.line_state(line);
        let had_copy = self.cached_state(node, line).is_valid();
        let needs_data = !had_copy;
        let supplies_from_cache = matches!(state, DirState::Exclusive(owner) if owner != node);
        let occupancy = if needs_data {
            if supplies_from_cache {
                self.cfg.snoop + self.cfg.data_transfer
            } else {
                self.cfg.snoop + self.cfg.mem_access + self.cfg.data_transfer
            }
        } else {
            self.cfg.snoop
        };
        let grant = self.bus_grant(now + self.cfg.l2_round_trip, occupancy);
        let completion = grant + occupancy;
        // Broadcast invalidation: every other holder sees the address
        // phase at the same instant.
        let observed = grant + self.cfg.snoop;
        let targets = state.holders().without(node);
        let mut invalidations = Vec::with_capacity(targets.len());
        for sharer in targets.iter() {
            let snc = &mut self.nodes[sharer.index()];
            snc.l1.invalidate(line);
            snc.l2.invalidate(line);
            invalidations.push(Invalidation {
                node: sharer,
                line,
                at: observed,
            });
            self.stats.invalidations_sent += 1;
        }
        if supplies_from_cache {
            self.stats.cache_to_cache += 1;
            self.stats.writebacks += 1;
        }
        self.lines.set(line, DirState::Exclusive(node));
        self.fill_both(node, line, LineState::Modified);
        Access {
            completion,
            class: if had_copy {
                AccessClass::Upgrade
            } else if supplies_from_cache {
                AccessClass::CacheToCache
            } else {
                AccessClass::LocalMem
            },
            line,
            invalidations,
        }
    }

    /// Performs `lines` back-to-back writes to consecutive cache lines
    /// starting at `base`, chaining completions, exactly as if
    /// [`write`](Self::write) were called once per line (see the directory
    /// substrate's `write_line_run` for rationale).
    pub fn write_line_run(&mut self, node: NodeId, base: Addr, lines: u32, now: Cycles) -> Cycles {
        let mut t = now;
        for i in 0..lines as u64 {
            let line = base.offset(i * crate::addr::LINE_BYTES).line();
            self.stats.writes += 1;
            let nc = &mut self.nodes[node.index()];
            let (l1, _) = nc.l1.write_access(line);
            if l1.can_write_silently() {
                self.stats.l1_hits += 1;
                t += self.cfg.l1_round_trip;
            } else {
                t = self.write_after_l1(node, line, l1, t).completion;
            }
        }
        t
    }

    /// Flushes `node`'s dirty shared lines over the bus (each write-back
    /// occupies a data phase, so their order does not matter).
    pub fn flush_dirty_shared(&mut self, node: NodeId, now: Cycles) -> FlushOutcome {
        let dir = &mut self.lines;
        let mut lines = 0;
        let nc = &mut self.nodes[node.index()];
        nc.l1.flush_dirty_shared(&mut nc.l2, |line| {
            lines += 1;
            dir.set(line, DirState::Shared(SharerSet::singleton(node)));
        });
        let mut end = now + self.cfg.l2_round_trip;
        for _ in 0..lines {
            end = self.bus_grant(end, self.cfg.data_transfer) + self.cfg.data_transfer;
        }
        self.stats.writebacks += lines as u64;
        self.stats.flushes += 1;
        self.stats.flushed_lines += lines as u64;
        FlushOutcome {
            lines,
            duration: end.saturating_sub(now),
        }
    }

    fn fill_l1(&mut self, node: NodeId, line: LineAddr, state: LineState) {
        let nc = &mut self.nodes[node.index()];
        if let Some(Evicted {
            line: vl,
            state: vs,
        }) = nc.l1.insert(line, state)
        {
            if vs.is_dirty() && !nc.l2.set_state(vl, LineState::Modified) {
                self.writeback_on_evict(node, vl);
            }
        }
    }

    fn fill_both(&mut self, node: NodeId, line: LineAddr, state: LineState) {
        let evicted = self.nodes[node.index()].l2.insert(line, state);
        if let Some(Evicted {
            line: vl,
            state: vs,
        }) = evicted
        {
            let l1_state = self.nodes[node.index()].l1.invalidate(vl);
            if vs.is_dirty() || l1_state.is_some_and(|s| s.is_dirty()) {
                self.writeback_on_evict(node, vl);
            } else {
                self.drop_holder(node, vl);
            }
        }
        self.fill_l1(node, line, state);
    }

    fn writeback_on_evict(&mut self, node: NodeId, line: LineAddr) {
        self.stats.writebacks += 1;
        if let DirState::Exclusive(owner) = self.line_state(line) {
            if owner == node {
                self.lines.set(line, DirState::Uncached);
            }
        }
    }

    fn drop_holder(&mut self, node: NodeId, line: LineAddr) {
        match self.line_state(line) {
            DirState::Exclusive(owner) if owner == node => {
                self.lines.set(line, DirState::Uncached);
            }
            DirState::Shared(s) => {
                let s = s.without(node);
                self.lines.set(
                    line,
                    if s.is_empty() {
                        DirState::Uncached
                    } else {
                        DirState::Shared(s)
                    },
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(nodes: u16) -> BusMemorySystem {
        BusMemorySystem::new(BusConfig::smp(nodes))
    }

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn broadcast_invalidation_is_simultaneous() {
        // The defining bus property: all sharers observe the flag flip at
        // the same instant.
        let mut m = sys(16);
        let flag = m.layout().shared_addr(0, 0);
        let mut t = Cycles::ZERO;
        for i in 1..16 {
            t += Cycles::from_micros(1);
            m.read(n(i), flag, t);
        }
        let w = m.write(n(0), flag, t + Cycles::from_micros(1));
        assert_eq!(w.invalidations.len(), 15);
        let first = w.invalidations[0].at;
        assert!(w.invalidations.iter().all(|i| i.at == first));
        assert!(w.completion >= first);
    }

    #[test]
    fn misses_serialize_on_the_bus() {
        // Two cold misses issued at the same instant: the second must wait
        // for the first transaction's occupancy.
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        let b = m.layout().shared_addr(1, 0);
        let r1 = m.read(n(0), a, Cycles::ZERO);
        let r2 = m.read(n(1), b, Cycles::ZERO);
        assert!(
            r2.completion > r1.completion,
            "bus contention must serialize: {} vs {}",
            r2.completion,
            r1.completion
        );
    }

    #[test]
    fn hit_paths_bypass_the_bus() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        let r1 = m.read(n(2), a, Cycles::ZERO);
        let busy_before = m.bus_free_at;
        let r2 = m.read(n(2), a, r1.completion);
        assert_eq!(r2.class, AccessClass::L1Hit);
        assert_eq!(m.bus_free_at, busy_before, "hits leave the bus alone");
    }

    #[test]
    fn owner_supplies_and_downgrades() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        m.write(n(1), a, Cycles::ZERO);
        let r = m.read(n(2), a, Cycles::from_micros(1));
        assert_eq!(r.class, AccessClass::CacheToCache);
        assert_eq!(m.cached_state(n(1), a.line()), LineState::Shared);
        match m.line_state(a.line()) {
            DirState::Shared(s) => assert_eq!(s.len(), 2),
            other => panic!("expected Shared, got {other}"),
        }
    }

    #[test]
    fn upgrade_invalidates_other_sharers() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        m.read(n(0), a, Cycles::ZERO);
        m.read(n(1), a, Cycles::from_micros(1));
        let w = m.write(n(0), a, Cycles::from_micros(2));
        assert_eq!(w.class, AccessClass::Upgrade);
        assert_eq!(w.invalidations.len(), 1);
        assert_eq!(m.cached_state(n(1), a.line()), LineState::Invalid);
        assert_eq!(m.line_state(a.line()), DirState::Exclusive(n(0)));
    }

    #[test]
    fn flush_occupies_the_bus_per_line() {
        let mut m = sys(4);
        let mut t = Cycles::ZERO;
        for page in 0..8 {
            t += Cycles::from_micros(1);
            m.write(n(1), m.layout().shared_addr(page, 0), t);
        }
        let f = m.flush_dirty_shared(n(1), t + Cycles::from_micros(1));
        assert_eq!(f.lines, 8);
        assert!(
            f.duration >= Cycles::from_nanos(8 * 16),
            "eight data phases: {}",
            f.duration
        );
        let f2 = m.flush_dirty_shared(n(1), t + Cycles::from_millis(1));
        assert_eq!(f2.lines, 0);
    }

    #[test]
    fn first_reader_gets_exclusive() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(2, 0);
        m.read(n(3), a, Cycles::ZERO);
        assert_eq!(m.cached_state(n(3), a.line()), LineState::Exclusive);
        let w = m.write(n(3), a, Cycles::from_micros(1));
        assert_eq!(w.class, AccessClass::L1Hit, "silent upgrade from E");
    }

    #[test]
    #[should_panic(expected = "bus SMP size")]
    fn single_node_rejected() {
        let _ = BusConfig::smp(1);
    }

    #[test]
    fn display_mentions_bus() {
        assert!(BusConfig::smp(8).to_string().contains("snooping bus"));
    }
}

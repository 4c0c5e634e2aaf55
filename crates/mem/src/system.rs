//! The coherent CC-NUMA memory system.
//!
//! Per-node two-level write-back caches sit in front of directory-controlled
//! home memories connected by a hypercube (Table 1 of the paper). The model
//! is *transaction-level*: the machine executes accesses in global time
//! order, and each access atomically updates coherence state and returns
//!
//! * its **completion time**, composed from Table 1 latencies (L1/L2 round
//!   trips, memory row access, network hops, invalidation fan-out and
//!   acknowledgment collection), and
//! * the **invalidation messages** it caused, each with its delivery time at
//!   the destination node.
//!
//! The second item is the load-bearing one for this paper: when the last
//! thread flips the barrier flag, the directory invalidates every sharer,
//! and those deliveries are the *external wake-up* signals (§3.3.1) that the
//! extended cache controller turns into CPU wake-ups.
//!
//! # Model simplifications (documented in DESIGN.md §7)
//!
//! * No data payloads are stored; the machine layer tracks logical values.
//! * Write-backs and replacement hints are off the critical path (a write
//!   buffer is assumed), so they update state but add no latency.
//! * Directory occupancy/contention is approximated by a per-message
//!   dispatch delay when fanning out invalidations.

use crate::addr::{Addr, LineAddr, MemLayout, NodeId, LINE_BYTES};
use crate::cache::{Cache, CacheConfig, Evicted};
use crate::dir::Directory;
use crate::mesi::{DirState, LineState, SharerSet};
use crate::network::Hypercube;
use serde::{Deserialize, Serialize};
use std::fmt;
use tb_sim::Cycles;

/// Architecture parameters (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of nodes (1 CPU per node); must be a power of two ≤ 64.
    pub nodes: u16,
    /// L1 geometry (Table 1: 16 kB, 2-way).
    pub l1: CacheConfig,
    /// L2 geometry (Table 1: 64 kB, 8-way).
    pub l2: CacheConfig,
    /// L1 round-trip latency from the processor (Table 1: 2 ns).
    pub l1_round_trip: Cycles,
    /// L2 round-trip latency from the processor (Table 1: 12 ns).
    pub l2_round_trip: Cycles,
    /// DRAM row-miss access time (Table 1: 60 ns, interleaved).
    pub mem_access: Cycles,
    /// Time to stream one 64 B line over the 16 B-wide 250 MHz bus.
    pub mem_transfer: Cycles,
    /// Serialization gap between successive invalidations dispatched by a
    /// directory (models controller occupancy).
    pub dir_dispatch: Cycles,
}

impl MachineConfig {
    /// The paper's 64-node configuration (Table 1).
    pub fn table1() -> Self {
        MachineConfig::table1_with_nodes(64)
    }

    /// Table 1 latencies with a different machine size (for the scaling
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of two in `1..=64`.
    pub fn table1_with_nodes(nodes: u16) -> Self {
        assert!(
            (1..=64).contains(&nodes) && nodes.is_power_of_two(),
            "node count must be a power of two in 1..=64, got {nodes}"
        );
        MachineConfig {
            nodes,
            l1: CacheConfig::table1_l1(),
            l2: CacheConfig::table1_l2(),
            l1_round_trip: Cycles::from_nanos(2),
            l2_round_trip: Cycles::from_nanos(12),
            mem_access: Cycles::from_nanos(60),
            mem_transfer: Cycles::from_nanos(16),
            dir_dispatch: Cycles::from_nanos(4),
        }
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nodes              {}", self.nodes)?;
        writeln!(
            f,
            "L1                 {} B, {}-way, 64 B lines, RT {}",
            self.l1.size_bytes(),
            self.l1.associativity(),
            self.l1_round_trip
        )?;
        writeln!(
            f,
            "L2                 {} B, {}-way, 64 B lines, RT {}",
            self.l2.size_bytes(),
            self.l2.associativity(),
            self.l2_round_trip
        )?;
        writeln!(f, "memory             row miss {}", self.mem_access)?;
        writeln!(f, "line transfer      {}", self.mem_transfer)?;
        write!(f, "network            hypercube, wormhole, 16ns/hop")
    }
}

/// How an access was satisfied (for statistics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessClass {
    /// Satisfied by the L1.
    L1Hit,
    /// Satisfied by the L2 (L1 filled).
    L2Hit,
    /// Satisfied by the local node's memory.
    LocalMem,
    /// Satisfied by a remote home's memory.
    RemoteMem,
    /// Satisfied by a cache-to-cache transfer from the owning node.
    CacheToCache,
    /// A write upgrade of an already-cached shared line.
    Upgrade,
}

/// One invalidation message caused by a write, with its delivery time.
///
/// The machine layer turns deliveries on *watched* lines into external
/// wake-up signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Invalidation {
    /// Destination node whose cached copy is invalidated.
    pub node: NodeId,
    /// The invalidated line.
    pub line: LineAddr,
    /// When the message reaches the destination's cache controller.
    pub at: Cycles,
}

/// Result of a memory access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// When the requesting processor can proceed.
    pub completion: Cycles,
    /// How the access was satisfied.
    pub class: AccessClass,
    /// The line involved.
    pub line: LineAddr,
    /// Invalidations sent to other nodes (writes only).
    pub invalidations: Vec<Invalidation>,
}

impl Access {
    /// Latency from issue to completion.
    pub fn latency(&self, issued: Cycles) -> Cycles {
        self.completion.saturating_sub(issued)
    }
}

/// Result of flushing dirty shared lines before a non-snoopable sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushOutcome {
    /// Number of dirty shared lines written back.
    pub lines: usize,
    /// Time the flush occupied the processor/cache controller.
    pub duration: Cycles,
}

/// Aggregate event counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Total read accesses.
    pub reads: u64,
    /// Total write accesses.
    pub writes: u64,
    /// Accesses satisfied by the L1.
    pub l1_hits: u64,
    /// Accesses satisfied by the L2.
    pub l2_hits: u64,
    /// Directory transactions (anything past the L2).
    pub dir_transactions: u64,
    /// Invalidation messages sent.
    pub invalidations_sent: u64,
    /// Dirty lines written back (evictions and sharing write-backs).
    pub writebacks: u64,
    /// Cache-to-cache transfers.
    pub cache_to_cache: u64,
    /// Flush operations performed.
    pub flushes: u64,
    /// Lines written back by flushes.
    pub flushed_lines: u64,
}

#[derive(Debug)]
struct NodeCaches {
    l1: Cache,
    l2: Cache,
}

/// The coherent memory system: all caches, directories, and the network.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MachineConfig,
    layout: MemLayout,
    net: Hypercube,
    nodes: Vec<NodeCaches>,
    dir: Directory,
    stats: MemStats,
    /// Wake-up fault injector (`None` outside fault experiments, so the
    /// baseline write path never even branches on a watched line).
    faults: Option<crate::faults::InvalidationFaults>,
}

impl MemorySystem {
    /// Creates a memory system with cold caches.
    pub fn new(cfg: MachineConfig) -> Self {
        let layout = MemLayout::new(cfg.nodes);
        let net = Hypercube::table1(cfg.nodes);
        let nodes = (0..cfg.nodes)
            .map(|_| NodeCaches {
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
            })
            .collect();
        MemorySystem {
            cfg,
            layout,
            net,
            nodes,
            dir: Directory::new(),
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

    /// The machine's address layout.
    pub fn layout(&self) -> &MemLayout {
        &self.layout
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The interconnect.
    pub fn network(&self) -> &Hypercube {
        &self.net
    }

    /// Event counters accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Directory state of a line (for tests and invariant checks).
    pub fn dir_state(&self, line: LineAddr) -> DirState {
        self.dir.get(line)
    }

    /// The per-level cache states of `line` at `node` (L1, L2), without
    /// perturbing LRU state — for invariant checks.
    pub fn probe_levels(&self, node: NodeId, line: LineAddr) -> (LineState, LineState) {
        let nc = &self.nodes[node.index()];
        (nc.l1.probe(line), nc.l2.probe(line))
    }

    /// The cache state of `line` at `node` (L1 first, then L2), without
    /// perturbing LRU state.
    pub fn cached_state(&self, node: NodeId, line: LineAddr) -> LineState {
        let nc = &self.nodes[node.index()];
        let l1 = nc.l1.probe(line);
        if l1.is_valid() {
            l1
        } else {
            nc.l2.probe(line)
        }
    }

    /// Performs a read by `node` at time `now`.
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
        self.read_miss(node, line, now)
    }

    /// Performs a write by `node` at time `now`.
    ///
    /// Atomic read-modify-writes (the barrier's `count++` under its lock)
    /// are modeled as writes: the line ends up Modified at the writer.
    pub fn write(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
        self.stats.writes += 1;
        let line = addr.line();
        // Silent-write fast path: a line held Modified or Exclusive can be
        // written without consulting the directory at all, so the compute
        // phase's working-set rewrite stays entirely inside the node.
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
            if !l2.is_valid() {
                return self.write_miss(node, line, now);
            }
        }
        // Cached in Shared state somewhere locally: upgrade.
        self.upgrade(node, line, now)
    }

    /// Performs `lines` back-to-back writes to consecutive cache lines
    /// starting at `base`, chaining each write's completion into the next
    /// write's issue time, and returns the final completion.
    ///
    /// This is the compute phase's working-set rewrite loop, pulled below
    /// the dispatch layer. Stretches of silent writes run in one tight loop
    /// over the L1 (`Cache::write_silent_run`). The refill after a
    /// deep-sleep flush — an upgrade by the line's sole sharer, which needs
    /// no invalidations, so its grant is one control round trip to the
    /// home (computed once per page) — is done inline on the way the L1
    /// probe found. The sequence of coherence actions — and thus every
    /// timestamp and counter — is identical to calling
    /// [`write`](Self::write) once per line.
    pub fn write_line_run(&mut self, node: NodeId, base: Addr, lines: u32, now: Cycles) -> Cycles {
        let sole_sharer = DirState::Shared(SharerSet::singleton(node));
        let line_at = |i: u64| base.offset(i * LINE_BYTES).line();
        let n = lines as u64;
        self.stats.writes += n;
        let mut t = now;
        let (mut page, mut upgrade) = (u64::MAX, Cycles::ZERO);
        let mut i = 0;
        loop {
            let (silent, l1, slot) = self.nodes[node.index()]
                .l1
                .write_silent_run(line_at(i), n - i);
            self.stats.l1_hits += silent;
            t += self.cfg.l1_round_trip * silent;
            i += silent;
            if i == n {
                break;
            }
            // The run stopped on a line that needs coherence.
            let line = line_at(i);
            if l1.is_valid() && self.dir.get(line) == sole_sharer {
                if line.base_addr().page() != page {
                    page = line.base_addr().page();
                    let home = self.layout.home_of(line);
                    upgrade = self.cfg.l1_round_trip
                        + self.net.control_latency(node, home)
                        + self.net.control_latency(home, node);
                }
                self.stats.dir_transactions += 1;
                t += upgrade;
                self.dir.set(line, DirState::Exclusive(node));
                let nc = &mut self.nodes[node.index()];
                if !nc.l2.set_state(line, LineState::Modified) {
                    nc.l2.insert(line, LineState::Modified);
                }
                nc.l1.modify_at(slot);
            } else {
                t = self.write_after_l1(node, line, l1, t).completion;
            }
            i += 1;
        }
        t
    }

    /// Flushes `node`'s dirty **shared** lines to their homes, as required
    /// before entering a sleep state whose cache cannot service coherence
    /// requests (§3.1). Dirty copies are retained clean (the supply voltage
    /// is not interrupted, so data are preserved); the directory records the
    /// node as a clean sharer, letting the cache controller acknowledge
    /// later invalidations on the sleeping CPU's behalf.
    pub fn flush_dirty_shared(&mut self, node: NodeId, now: Cycles) -> FlushOutcome {
        let _ = now;
        let (layout, net, dir) = (&self.layout, &self.net, &mut self.dir);
        let mut lines = 0;
        let mut farthest = Cycles::ZERO;
        let nc = &mut self.nodes[node.index()];
        nc.l1.flush_dirty_shared(&mut nc.l2, |line| {
            lines += 1;
            farthest = farthest.max(net.line_latency(node, layout.home_of(line)));
            dir.set(line, DirState::Shared(SharerSet::singleton(node)));
        });
        self.stats.writebacks += lines as u64;
        self.stats.flushes += 1;
        self.stats.flushed_lines += lines as u64;
        let duration = if lines == 0 {
            self.cfg.l2_round_trip
        } else {
            // Pipelined write-back stream: startup + per-line bus occupancy
            // + the tail message reaching the farthest home involved.
            self.cfg.l2_round_trip + self.cfg.mem_transfer * lines as u64 + farthest
        };
        FlushOutcome { lines, duration }
    }

    // ----- internal helpers ------------------------------------------------

    /// Fills the L1 with `line`, handling the inclusion consequences of the
    /// victim.
    fn fill_l1(&mut self, node: NodeId, line: LineAddr, state: LineState) {
        let nc = &mut self.nodes[node.index()];
        if let Some(Evicted {
            line: vl,
            state: vs,
        }) = nc.l1.insert(line, state)
        {
            if vs.is_dirty() {
                // Fold the dirty data back into the (inclusive) L2 copy.
                if !nc.l2.set_state(vl, LineState::Modified) {
                    // L2 lost the line (its own eviction invalidated our L1
                    // copy first, so this cannot normally happen); write back.
                    self.writeback_to_home(node, vl);
                }
            }
        }
    }

    /// Fills L2 then L1 with `line`, handling evictions at both levels.
    fn fill_both(&mut self, node: NodeId, line: LineAddr, state: LineState) {
        let evicted = self.nodes[node.index()].l2.insert(line, state);
        if let Some(Evicted {
            line: vl,
            state: vs,
        }) = evicted
        {
            // Inclusion: the L1 copy (if any) goes too; it may be dirtier
            // than the L2's record of it.
            let l1_state = self.nodes[node.index()].l1.invalidate(vl);
            let dirty = vs.is_dirty() || l1_state.is_some_and(|s| s.is_dirty());
            if dirty {
                self.writeback_to_home(node, vl);
            } else {
                self.drop_clean_holder(node, vl);
            }
        }
        self.fill_l1(node, line, state);
    }

    /// Write-back of a dirty line on eviction: memory becomes the only copy.
    fn writeback_to_home(&mut self, node: NodeId, line: LineAddr) {
        self.stats.writebacks += 1;
        match self.dir_state(line) {
            DirState::Exclusive(owner) if owner == node => {
                self.dir.set(line, DirState::Uncached);
            }
            other => panic!("write-back of {line} from {node} but directory says {other}"),
        }
    }

    /// Replacement hint for a clean eviction: the directory drops the node.
    fn drop_clean_holder(&mut self, node: NodeId, line: LineAddr) {
        match self.dir_state(line) {
            DirState::Exclusive(owner) if owner == node => {
                self.dir.set(line, DirState::Uncached);
            }
            DirState::Shared(s) => {
                let s = s.without(node);
                self.dir.set(
                    line,
                    if s.is_empty() {
                        DirState::Uncached
                    } else {
                        DirState::Shared(s)
                    },
                );
            }
            DirState::Uncached | DirState::Exclusive(_) => {
                // A stale hint; full-map directories tolerate it.
            }
        }
    }

    fn read_miss(&mut self, node: NodeId, line: LineAddr, now: Cycles) -> Access {
        self.stats.dir_transactions += 1;
        let home = self.layout.home_of(line);
        let t_home = now + self.cfg.l2_round_trip + self.net.control_latency(node, home);
        match self.dir_state(line) {
            DirState::Uncached => {
                let t_data = t_home + self.cfg.mem_access + self.cfg.mem_transfer;
                let completion = t_data + self.net.line_latency(home, node);
                self.dir.set(line, DirState::Exclusive(node));
                self.fill_both(node, line, LineState::Exclusive);
                Access {
                    completion,
                    class: if home == node {
                        AccessClass::LocalMem
                    } else {
                        AccessClass::RemoteMem
                    },
                    line,
                    invalidations: Vec::new(),
                }
            }
            DirState::Shared(s) => {
                debug_assert!(
                    !s.contains(node),
                    "missed a line the directory says we share"
                );
                let t_data = t_home + self.cfg.mem_access + self.cfg.mem_transfer;
                let completion = t_data + self.net.line_latency(home, node);
                let mut s = s;
                s.insert(node);
                self.dir.set(line, DirState::Shared(s));
                self.fill_both(node, line, LineState::Shared);
                Access {
                    completion,
                    class: if home == node {
                        AccessClass::LocalMem
                    } else {
                        AccessClass::RemoteMem
                    },
                    line,
                    invalidations: Vec::new(),
                }
            }
            DirState::Exclusive(owner) => {
                assert_ne!(owner, node, "missed a line the directory says we own");
                self.stats.cache_to_cache += 1;
                // Forward to owner; owner supplies data and downgrades to
                // Shared, writing dirty data back to home off-path.
                let t_owner =
                    t_home + self.net.control_latency(home, owner) + self.cfg.l2_round_trip;
                let completion = t_owner + self.net.line_latency(owner, node);
                let onc = &mut self.nodes[owner.index()];
                let was_dirty = onc.l1.probe(line).is_dirty() || onc.l2.probe(line).is_dirty();
                if onc.l1.probe(line).is_valid() {
                    onc.l1.set_state(line, LineState::Shared);
                }
                if onc.l2.probe(line).is_valid() {
                    onc.l2.set_state(line, LineState::Shared);
                }
                if was_dirty {
                    self.stats.writebacks += 1; // sharing write-back to home
                }
                let holders: SharerSet = [owner, node].into_iter().collect();
                self.dir.set(line, DirState::Shared(holders));
                self.fill_both(node, line, LineState::Shared);
                Access {
                    completion,
                    class: AccessClass::CacheToCache,
                    line,
                    invalidations: Vec::new(),
                }
            }
        }
    }

    fn write_miss(&mut self, node: NodeId, line: LineAddr, now: Cycles) -> Access {
        self.stats.dir_transactions += 1;
        let home = self.layout.home_of(line);
        let t_home = now + self.cfg.l2_round_trip + self.net.control_latency(node, home);
        match self.dir_state(line) {
            DirState::Uncached => {
                let t_data = t_home + self.cfg.mem_access + self.cfg.mem_transfer;
                let completion = t_data + self.net.line_latency(home, node);
                self.dir.set(line, DirState::Exclusive(node));
                self.fill_both(node, line, LineState::Modified);
                Access {
                    completion,
                    class: if home == node {
                        AccessClass::LocalMem
                    } else {
                        AccessClass::RemoteMem
                    },
                    line,
                    invalidations: Vec::new(),
                }
            }
            DirState::Shared(s) => {
                let targets = s.without(node);
                let (invalidations, last_ack) =
                    self.fan_out_invalidations(node, line, home, t_home, targets);
                let t_data = t_home + self.cfg.mem_access + self.cfg.mem_transfer;
                let t_grant = t_data + self.net.line_latency(home, node);
                let completion = t_grant.max(last_ack);
                self.dir.set(line, DirState::Exclusive(node));
                self.fill_both(node, line, LineState::Modified);
                Access {
                    completion,
                    class: if home == node {
                        AccessClass::LocalMem
                    } else {
                        AccessClass::RemoteMem
                    },
                    line,
                    invalidations,
                }
            }
            DirState::Exclusive(owner) => {
                assert_ne!(owner, node, "write-missed a line the directory says we own");
                self.stats.cache_to_cache += 1;
                let t_owner =
                    t_home + self.net.control_latency(home, owner) + self.cfg.l2_round_trip;
                let completion = t_owner + self.net.line_latency(owner, node);
                let onc = &mut self.nodes[owner.index()];
                onc.l1.invalidate(line);
                onc.l2.invalidate(line);
                let invalidations = vec![Invalidation {
                    node: owner,
                    line,
                    at: t_owner,
                }];
                self.stats.invalidations_sent += 1;
                self.dir.set(line, DirState::Exclusive(node));
                self.fill_both(node, line, LineState::Modified);
                Access {
                    completion,
                    class: AccessClass::CacheToCache,
                    line,
                    invalidations,
                }
            }
        }
    }

    fn upgrade(&mut self, node: NodeId, line: LineAddr, now: Cycles) -> Access {
        self.stats.dir_transactions += 1;
        let home = self.layout.home_of(line);
        let t_home = now + self.cfg.l1_round_trip + self.net.control_latency(node, home);
        let targets = match self.dir_state(line) {
            DirState::Shared(s) => s.without(node),
            // The directory may already say Exclusive(us) if the L2 held E
            // while the L1 held S; treat as silent upgrade.
            DirState::Exclusive(owner) if owner == node => SharerSet::EMPTY,
            other => panic!("upgrade of {line} by {node} but directory says {other}"),
        };
        let (invalidations, last_ack) =
            self.fan_out_invalidations(node, line, home, t_home, targets);
        let t_grant = t_home + self.net.control_latency(home, node);
        let completion = t_grant.max(last_ack).max(now + self.cfg.l1_round_trip);
        self.dir.set(line, DirState::Exclusive(node));
        let nc = &mut self.nodes[node.index()];
        if !nc.l2.set_state(line, LineState::Modified) {
            nc.l2.insert(line, LineState::Modified);
        }
        if !nc.l1.set_state(line, LineState::Modified) {
            self.fill_l1(node, line, LineState::Modified);
        }
        Access {
            completion,
            class: AccessClass::Upgrade,
            line,
            invalidations,
        }
    }

    /// Sends invalidations for `line` from `home` to every node in
    /// `targets`, removing their copies. Returns the messages (with
    /// delivery times) and the time the last acknowledgment reaches the
    /// requester.
    fn fan_out_invalidations(
        &mut self,
        requester: NodeId,
        line: LineAddr,
        home: NodeId,
        t_home: Cycles,
        targets: SharerSet,
    ) -> (Vec<Invalidation>, Cycles) {
        let mut invalidations = Vec::with_capacity(targets.len());
        let mut last_ack = t_home;
        for (i, sharer) in targets.iter().enumerate() {
            let dispatched = t_home + self.cfg.dir_dispatch * i as u64;
            let delivered = dispatched + self.net.control_latency(home, sharer);
            let nc = &mut self.nodes[sharer.index()];
            nc.l1.invalidate(line);
            nc.l2.invalidate(line);
            invalidations.push(Invalidation {
                node: sharer,
                line,
                at: delivered,
            });
            let ack = delivered + self.net.control_latency(sharer, requester);
            last_ack = last_ack.max(ack);
            self.stats.invalidations_sent += 1;
        }
        (invalidations, last_ack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(nodes: u16) -> MemorySystem {
        MemorySystem::new(MachineConfig::table1_with_nodes(nodes))
    }

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn first_read_misses_then_hits() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        let r1 = m.read(n(1), a, Cycles::ZERO);
        assert_ne!(r1.class, AccessClass::L1Hit);
        assert!(r1.completion > Cycles::ZERO);
        let r2 = m.read(n(1), a, r1.completion);
        assert_eq!(r2.class, AccessClass::L1Hit);
        assert_eq!(r2.latency(r1.completion), Cycles::from_nanos(2));
    }

    #[test]
    fn first_reader_gets_exclusive_then_sharers_downgrade() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        m.read(n(1), a, Cycles::ZERO);
        assert_eq!(m.dir_state(a.line()), DirState::Exclusive(n(1)));
        assert_eq!(m.cached_state(n(1), a.line()), LineState::Exclusive);
        let r = m.read(n(2), a, Cycles::from_nanos(500));
        assert_eq!(r.class, AccessClass::CacheToCache);
        assert_eq!(m.cached_state(n(1), a.line()), LineState::Shared);
        assert_eq!(m.cached_state(n(2), a.line()), LineState::Shared);
        match m.dir_state(a.line()) {
            DirState::Shared(s) => {
                assert!(s.contains(n(1)) && s.contains(n(2)) && s.len() == 2)
            }
            other => panic!("expected Shared, got {other}"),
        }
    }

    #[test]
    fn write_to_shared_line_invalidates_all_sharers() {
        let mut m = sys(8);
        let a = m.layout().shared_addr(0, 0);
        for i in 1..6 {
            m.read(n(i), a, Cycles::from_nanos(i as u64 * 1000));
        }
        let w = m.write(n(0), a, Cycles::from_micros(10));
        assert_eq!(w.invalidations.len(), 5);
        for inv in &w.invalidations {
            assert!(inv.at > Cycles::from_micros(10));
            assert_eq!(inv.line, a.line());
            assert_eq!(m.cached_state(inv.node, a.line()), LineState::Invalid);
        }
        assert_eq!(m.dir_state(a.line()), DirState::Exclusive(n(0)));
        assert_eq!(m.cached_state(n(0), a.line()), LineState::Modified);
        // Completion waits for the last acknowledgment.
        let max_delivery = w.invalidations.iter().map(|i| i.at).max().unwrap();
        assert!(w.completion >= max_delivery);
    }

    #[test]
    fn silent_write_on_exclusive() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        let r = m.read(n(2), a, Cycles::ZERO);
        let w = m.write(n(2), a, r.completion);
        assert_eq!(w.class, AccessClass::L1Hit);
        assert!(w.invalidations.is_empty());
        assert_eq!(m.cached_state(n(2), a.line()), LineState::Modified);
        assert_eq!(m.dir_state(a.line()), DirState::Exclusive(n(2)));
    }

    #[test]
    fn upgrade_from_shared_pays_coherence() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        m.read(n(0), a, Cycles::ZERO);
        m.read(n(1), a, Cycles::from_micros(1));
        let w = m.write(n(0), a, Cycles::from_micros(2));
        assert_eq!(w.class, AccessClass::Upgrade);
        assert_eq!(w.invalidations.len(), 1);
        assert_eq!(w.invalidations[0].node, n(1));
        assert_eq!(m.cached_state(n(1), a.line()), LineState::Invalid);
    }

    #[test]
    fn write_miss_on_modified_steals_ownership() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        m.write(n(1), a, Cycles::ZERO);
        let w = m.write(n(2), a, Cycles::from_micros(1));
        assert_eq!(w.class, AccessClass::CacheToCache);
        assert_eq!(w.invalidations.len(), 1);
        assert_eq!(w.invalidations[0].node, n(1));
        assert_eq!(m.dir_state(a.line()), DirState::Exclusive(n(2)));
        assert_eq!(m.cached_state(n(1), a.line()), LineState::Invalid);
    }

    #[test]
    fn local_vs_remote_memory_latency() {
        let mut m = sys(4);
        // Page 0 homes at node 0; page 1 at node 1.
        let local = m.layout().shared_addr(0, 0);
        let remote = m.layout().shared_addr(1, 0);
        let rl = m.read(n(0), local, Cycles::ZERO);
        let rr = m.read(n(0), remote, Cycles::ZERO);
        assert_eq!(rl.class, AccessClass::LocalMem);
        assert_eq!(rr.class, AccessClass::RemoteMem);
        assert!(rr.latency(Cycles::ZERO) > rl.latency(Cycles::ZERO));
    }

    #[test]
    fn flush_writes_back_shared_dirty_and_keeps_clean_copy() {
        let mut m = sys(4);
        let shared = m.layout().shared_addr(0, 0);
        let private = m.layout().private_addr(n(1), 0, 0);
        m.write(n(1), shared, Cycles::ZERO);
        m.write(n(1), private, Cycles::from_micros(1));
        let f = m.flush_dirty_shared(n(1), Cycles::from_micros(2));
        assert_eq!(f.lines, 1, "only the shared dirty line is flushed");
        assert!(f.duration > Cycles::ZERO);
        assert_eq!(m.cached_state(n(1), shared.line()), LineState::Shared);
        assert_eq!(
            m.dir_state(shared.line()),
            DirState::Shared(SharerSet::singleton(n(1)))
        );
        // Private line untouched.
        assert_eq!(m.cached_state(n(1), private.line()), LineState::Modified);
    }

    #[test]
    fn flush_with_nothing_dirty_is_cheap() {
        let mut m = sys(2);
        let f = m.flush_dirty_shared(n(0), Cycles::ZERO);
        assert_eq!(f.lines, 0);
        assert_eq!(f.duration, m.config().l2_round_trip);
    }

    #[test]
    fn reread_after_flush_hits_locally() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        m.write(n(1), a, Cycles::ZERO);
        m.flush_dirty_shared(n(1), Cycles::from_micros(1));
        let r = m.read(n(1), a, Cycles::from_micros(2));
        assert_eq!(r.class, AccessClass::L1Hit, "clean copy retained");
    }

    #[test]
    fn rewrite_after_flush_needs_upgrade() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        m.write(n(1), a, Cycles::ZERO);
        m.flush_dirty_shared(n(1), Cycles::from_micros(1));
        let w = m.write(n(1), a, Cycles::from_micros(2));
        assert_eq!(
            w.class,
            AccessClass::Upgrade,
            "flush cost resurfaces on re-write"
        );
    }

    #[test]
    fn barrier_flag_pattern_end_to_end() {
        // The paper's §3.3.1 mechanism: spinners cache the flag Shared; the
        // releaser's write invalidates every spinner, and the deliveries are
        // the wake-up signals.
        let mut m = sys(64);
        let flag = m.layout().shared_addr(10, 0);
        let releaser = n(13);
        let mut t = Cycles::ZERO;
        for i in 0..64u16 {
            if n(i) != releaser {
                m.read(n(i), flag, t);
                t += Cycles::from_nanos(200);
            }
        }
        let w = m.write(releaser, flag, Cycles::from_micros(100));
        assert_eq!(w.invalidations.len(), 63);
        let mut seen: Vec<u16> = w.invalidations.iter().map(|i| i.node.as_u16()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 63);
        for inv in &w.invalidations {
            assert!(inv.at >= Cycles::from_micros(100));
            // Wake-up delivery is microseconds, not milliseconds: "much
            // smaller than the barrier interval time".
            assert!(inv.at < Cycles::from_micros(102));
        }
    }

    #[test]
    fn eviction_notifies_directory() {
        let mut m = sys(2);
        // Fill node 0's L2 far beyond capacity with private lines.
        let total_lines = (m.config().l2.size_bytes() / 64) * 4;
        let mut t = Cycles::ZERO;
        for i in 0..total_lines {
            let a = m.layout().private_addr(n(0), i / 64, (i % 64) * 64);
            m.write(n(0), a, t);
            t += Cycles::from_micros(1);
        }
        // Every line the directory still attributes to node 0 must actually
        // be resident somewhere in node 0's hierarchy.
        let mut resident = std::collections::HashSet::new();
        for (l, _) in m.nodes[0].l1.resident_lines() {
            resident.insert(l);
        }
        for (l, _) in m.nodes[0].l2.resident_lines() {
            resident.insert(l);
        }
        for (line, state) in m.dir.iter() {
            if let DirState::Exclusive(owner) = state {
                if owner == n(0) {
                    assert!(resident.contains(&line), "directory stale for {line}");
                }
            }
        }
        assert!(m.stats().writebacks > 0, "capacity evictions wrote back");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = sys(4);
        let a = m.layout().shared_addr(0, 0);
        m.read(n(0), a, Cycles::ZERO);
        m.read(n(0), a, Cycles::from_nanos(100));
        m.write(n(1), a, Cycles::from_micros(1));
        let s = m.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.l1_hits, 1);
        assert!(s.dir_transactions >= 2);
        assert!(s.invalidations_sent >= 1);
    }

    #[test]
    fn config_display_mentions_table1_values() {
        let c = MachineConfig::table1();
        let s = c.to_string();
        assert!(s.contains("64"));
        assert!(s.contains("hypercube"));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_node_count_rejected() {
        let _ = MachineConfig::table1_with_nodes(5);
    }
}

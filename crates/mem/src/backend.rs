//! A unified front over the two coherence substrates, so the machine
//! simulator runs unchanged on the paper's directory CC-NUMA or on the
//! snooping-bus SMP.

use crate::addr::{Addr, MemLayout, NodeId};
use crate::bus::{BusConfig, BusMemorySystem};
use crate::faults::{InvalidationFaultRecord, InvalidationFaults};
use crate::system::{Access, FlushOutcome, MachineConfig, MemStats, MemorySystem};
use std::fmt;
use tb_sim::Cycles;

/// Either coherent memory substrate behind one API.
#[derive(Debug)]
pub enum CoherentMemory {
    /// The paper's directory-based CC-NUMA (Table 1).
    Directory(MemorySystem),
    /// A snooping-bus SMP.
    Bus(BusMemorySystem),
}

impl CoherentMemory {
    /// Builds the directory machine.
    pub fn directory(cfg: MachineConfig) -> Self {
        CoherentMemory::Directory(MemorySystem::new(cfg))
    }

    /// Builds the bus SMP.
    pub fn bus(cfg: BusConfig) -> Self {
        CoherentMemory::Bus(BusMemorySystem::new(cfg))
    }

    /// The address layout.
    pub fn layout(&self) -> &MemLayout {
        match self {
            CoherentMemory::Directory(m) => m.layout(),
            CoherentMemory::Bus(m) => m.layout(),
        }
    }

    /// Performs a read.
    pub fn read(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
        match self {
            CoherentMemory::Directory(m) => m.read(node, addr, now),
            CoherentMemory::Bus(m) => m.read(node, addr, now),
        }
    }

    /// Performs a write.
    pub fn write(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
        match self {
            CoherentMemory::Directory(m) => m.write(node, addr, now),
            CoherentMemory::Bus(m) => m.write(node, addr, now),
        }
    }

    /// Performs `lines` back-to-back writes to consecutive cache lines
    /// starting at `base`, chaining each completion into the next issue
    /// time. One substrate dispatch covers the whole run; the coherence
    /// actions and timestamps are identical to per-line [`write`] calls.
    ///
    /// [`write`]: Self::write
    pub fn write_line_run(&mut self, node: NodeId, base: Addr, lines: u32, now: Cycles) -> Cycles {
        match self {
            CoherentMemory::Directory(m) => m.write_line_run(node, base, lines, now),
            CoherentMemory::Bus(m) => m.write_line_run(node, base, lines, now),
        }
    }

    /// Flushes a node's dirty shared lines.
    pub fn flush_dirty_shared(&mut self, node: NodeId, now: Cycles) -> FlushOutcome {
        match self {
            CoherentMemory::Directory(m) => m.flush_dirty_shared(node, now),
            CoherentMemory::Bus(m) => m.flush_dirty_shared(node, now),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> &MemStats {
        match self {
            CoherentMemory::Directory(m) => m.stats(),
            CoherentMemory::Bus(m) => m.stats(),
        }
    }

    /// Installs a wake-up fault injector on whichever substrate is active.
    pub fn set_faults(&mut self, faults: InvalidationFaults) {
        match self {
            CoherentMemory::Directory(m) => m.set_faults(faults),
            CoherentMemory::Bus(m) => m.set_faults(faults),
        }
    }

    /// Drains the injector's fault log (empty when no injector is set).
    pub fn drain_fault_log(&mut self) -> Vec<InvalidationFaultRecord> {
        match self {
            CoherentMemory::Directory(m) => m.drain_fault_log(),
            CoherentMemory::Bus(m) => m.drain_fault_log(),
        }
    }
}

impl fmt::Display for CoherentMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoherentMemory::Directory(m) => write!(f, "directory CC-NUMA: {}", m.config().nodes),
            CoherentMemory::Bus(m) => write!(f, "{}", m.config()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_backends_answer_the_same_api() {
        let mut backends = [
            CoherentMemory::directory(MachineConfig::table1_with_nodes(4)),
            CoherentMemory::bus(BusConfig::smp(4)),
        ];
        for m in &mut backends {
            let a = m.layout().shared_addr(0, 0);
            let r = m.read(NodeId::new(1), a, Cycles::ZERO);
            assert!(r.completion > Cycles::ZERO);
            let w = m.write(NodeId::new(2), a, Cycles::from_micros(1));
            assert_eq!(w.invalidations.len(), 1, "{m}");
            let f = m.flush_dirty_shared(NodeId::new(2), Cycles::from_micros(2));
            assert_eq!(f.lines, 1);
            assert!(m.stats().reads >= 1);
        }
    }

    #[test]
    fn write_line_run_matches_per_line_writes() {
        // The batched entry point must produce the same completion chain and
        // the same coherence state as issuing the writes one at a time,
        // through every branch: cold misses, silent rewrites, the upgrade
        // after a flush (inline on the directory), the general upgrade where a
        // remote sharer must be invalidated, and (for a run longer than the
        // L1) L1 misses that find the line Shared in the L2.
        for make in [
            (|| CoherentMemory::directory(MachineConfig::table1_with_nodes(8)))
                as fn() -> CoherentMemory,
            || CoherentMemory::bus(BusConfig::smp(8)),
        ] {
            let mut batched = make();
            let mut looped = make();
            let node = NodeId::new(2);
            let remote = NodeId::new(5);
            let l1_lines = MachineConfig::table1().l1.size_bytes() / 64;
            let mut t = Cycles::ZERO;
            for (page, len) in [(3, 40), (16, l1_lines + 64)] {
                let base = batched.layout().shared_addr(page, 0);
                // Remote sharers on every other line of the first 16, before
                // the first run and again after the flush.
                let share = |m: &mut CoherentMemory, t| {
                    for i in 0..8u64 {
                        m.read(remote, base.offset(i * 2 * 64), t);
                    }
                };
                t += Cycles::from_micros(1);
                share(&mut batched, t);
                share(&mut looped, t);
                for pass in 0..3 {
                    t += Cycles::from_micros(1);
                    if pass == 2 {
                        let fb = batched.flush_dirty_shared(node, t);
                        assert_eq!(fb, looped.flush_dirty_shared(node, t));
                        assert!(fb.lines > 0);
                        t += fb.duration;
                        share(&mut batched, t);
                        share(&mut looped, t);
                    }
                    let end_b = batched.write_line_run(node, base, len as u32, t);
                    let mut end_l = t;
                    for i in 0..len {
                        end_l = looped.write(node, base.offset(i * 64), end_l).completion;
                    }
                    assert_eq!(end_b, end_l, "{batched} page {page} pass {pass}");
                    assert_eq!(batched.stats(), looped.stats(), "{batched} pass {pass}");
                    t = end_b;
                }
                for i in 0..len {
                    let line = base.offset(i * 64).line();
                    let levels = |m: &CoherentMemory| match m {
                        CoherentMemory::Directory(m) => {
                            (m.probe_levels(node, line), m.dir_state(line))
                        }
                        CoherentMemory::Bus(m) => (m.probe_levels(node, line), m.line_state(line)),
                    };
                    assert_eq!(levels(&batched), levels(&looped), "{batched} {line}");
                }
            }
            let s = batched.stats();
            assert!(
                s.invalidations_sent > 0 && s.l2_hits > 0,
                "{batched}: {s:?}"
            );
        }
    }

    #[test]
    fn display_distinguishes_backends() {
        let d = CoherentMemory::directory(MachineConfig::table1_with_nodes(4));
        let b = CoherentMemory::bus(BusConfig::smp(4));
        assert!(d.to_string().contains("directory"));
        assert!(b.to_string().contains("bus"));
    }
}

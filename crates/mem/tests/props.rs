//! Property-based tests of the coherence protocol: after any sequence of
//! reads, writes, and flushes, the full-map directory and the caches must
//! agree exactly; and the deep-sleep flush and the batched rewrite match
//! their per-line reference on both substrates.

use proptest::prelude::*;
use tb_mem::{
    Addr, BusConfig, CoherentMemory, DirState, FlushOutcome, LineAddr, LineState, MachineConfig,
    MemStats, MemorySystem, NodeId, SharerSet,
};
use tb_sim::Cycles;

#[derive(Debug, Clone)]
enum Op {
    Read { node: u16, addr_idx: usize },
    Write { node: u16, addr_idx: usize },
    Flush { node: u16 },
}

fn op_strategy(nodes: u16, addrs: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..nodes, 0..addrs).prop_map(|(node, addr_idx)| Op::Read { node, addr_idx }),
        4 => (0..nodes, 0..addrs).prop_map(|(node, addr_idx)| Op::Write { node, addr_idx }),
        1 => (0..nodes).prop_map(|node| Op::Flush { node }),
    ]
}

/// The address pool: a mix of shared lines (some colliding in cache sets)
/// and per-node private lines.
fn addr_pool(mem: &MemorySystem, nodes: u16) -> Vec<Addr> {
    let mut pool = Vec::new();
    for page in 0..6u64 {
        for line in 0..4u64 {
            pool.push(mem.layout().shared_addr(page, line * 64));
        }
    }
    for n in 0..nodes.min(4) {
        pool.push(mem.layout().private_addr(NodeId::new(n), 0, 0));
    }
    pool
}

/// Checks every protocol invariant for every address in the pool.
fn check_invariants(mem: &MemorySystem, pool: &[Addr], nodes: u16) -> Result<(), TestCaseError> {
    for &addr in pool {
        let line = addr.line();
        let dir = mem.dir_state(line);
        let mut m_or_e_holders = 0;
        for n in 0..nodes {
            let node = NodeId::new(n);
            let (l1, l2) = mem.probe_levels(node, line);
            // Inclusion: a valid L1 line implies a valid L2 line.
            if l1.is_valid() {
                prop_assert!(
                    l2.is_valid(),
                    "inclusion violated at {node} for {line}: L1={l1} L2={l2}"
                );
            }
            let held = l1.is_valid() || l2.is_valid();
            let state = if l1.is_valid() { l1 } else { l2 };
            match dir {
                DirState::Uncached => {
                    prop_assert!(!held, "{node} holds {line} but directory says Uncached");
                }
                DirState::Shared(s) => {
                    prop_assert_eq!(
                        held,
                        s.contains(node),
                        "sharer set mismatch at {} for {}",
                        node,
                        line
                    );
                    if held {
                        prop_assert_eq!(
                            state,
                            LineState::Shared,
                            "{} holds {} in {} under a Shared directory",
                            node,
                            line,
                            state
                        );
                    }
                }
                DirState::Exclusive(owner) => {
                    prop_assert_eq!(
                        held,
                        node == owner,
                        "exclusivity mismatch at {} for {}",
                        node,
                        line
                    );
                }
            }
            if held && state.can_write_silently() {
                m_or_e_holders += 1;
            }
        }
        prop_assert!(m_or_e_holders <= 1, "multiple M/E holders of {line}");
        if m_or_e_holders == 1 {
            prop_assert!(
                matches!(dir, DirState::Exclusive(_)),
                "M/E holder of {line} but directory says {dir}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Directory and caches agree exactly after any operation sequence.
    #[test]
    fn coherence_invariants_hold(
        ops in proptest::collection::vec(op_strategy(8, 28), 1..120),
    ) {
        let nodes = 8u16;
        let mut mem = MemorySystem::new(MachineConfig::table1_with_nodes(nodes));
        let pool = addr_pool(&mem, nodes);
        let mut t = Cycles::ZERO;
        for op in &ops {
            t += Cycles::from_micros(1);
            match *op {
                Op::Read { node, addr_idx } => {
                    let addr = pool[addr_idx % pool.len()];
                    if addr.is_private() && addr.private_owner() != Some(NodeId::new(node)) {
                        continue; // private data is only touched by its owner
                    }
                    mem.read(NodeId::new(node), addr, t);
                }
                Op::Write { node, addr_idx } => {
                    let addr = pool[addr_idx % pool.len()];
                    if addr.is_private() && addr.private_owner() != Some(NodeId::new(node)) {
                        continue;
                    }
                    mem.write(NodeId::new(node), addr, t);
                }
                Op::Flush { node } => {
                    mem.flush_dirty_shared(NodeId::new(node), t);
                }
            }
            check_invariants(&mem, &pool, nodes)?;
        }
    }

    /// A write's invalidation fan-out exactly matches the prior sharers,
    /// and its completion is no earlier than any delivery.
    #[test]
    fn write_invalidates_exactly_the_sharers(
        readers in proptest::collection::btree_set(1u16..8, 0..7),
        writer in 0u16..1,
    ) {
        let mut mem = MemorySystem::new(MachineConfig::table1_with_nodes(8));
        let addr = mem.layout().shared_addr(0, 0);
        let mut t = Cycles::ZERO;
        for &r in &readers {
            t += Cycles::from_micros(1);
            mem.read(NodeId::new(r), addr, t);
        }
        let w = mem.write(NodeId::new(writer), addr, t + Cycles::from_micros(1));
        let mut invalidated: Vec<u16> =
            w.invalidations.iter().map(|i| i.node.as_u16()).collect();
        invalidated.sort_unstable();
        let expected: Vec<u16> = readers.iter().copied().collect();
        prop_assert_eq!(invalidated, expected);
        for inv in &w.invalidations {
            prop_assert!(w.completion >= inv.at || !readers.is_empty());
            prop_assert_eq!(
                mem.cached_state(inv.node, addr.line()),
                LineState::Invalid
            );
        }
        prop_assert_eq!(mem.dir_state(addr.line()), DirState::Exclusive(NodeId::new(writer)));
    }

    /// Flushing leaves no dirty shared lines and never touches private
    /// dirty data; flushing twice is idempotent in line count.
    #[test]
    fn flush_clears_exactly_shared_dirty(
        shared_writes in proptest::collection::vec(0u64..16, 0..20),
        private_writes in 0u32..10,
    ) {
        let mut mem = MemorySystem::new(MachineConfig::table1_with_nodes(4));
        let node = NodeId::new(1);
        let mut t = Cycles::ZERO;
        let mut distinct = std::collections::HashSet::new();
        for &page in &shared_writes {
            t += Cycles::from_micros(1);
            let addr = mem.layout().shared_addr(page, 0);
            mem.write(node, addr, t);
            distinct.insert(addr.line());
        }
        for i in 0..private_writes {
            t += Cycles::from_micros(1);
            let addr = mem.layout().private_addr(node, 0, (i as u64) * 64);
            mem.write(node, addr, t);
        }
        // Capacity evictions may already have written some lines back
        // (the pool collides in cache sets on purpose); the flush handles
        // exactly the lines still dirty in the hierarchy.
        let still_dirty = distinct
            .iter()
            .filter(|&&l| mem.cached_state(node, l) == LineState::Modified)
            .count();
        let f1 = mem.flush_dirty_shared(node, t + Cycles::from_micros(1));
        prop_assert_eq!(f1.lines, still_dirty);
        let f2 = mem.flush_dirty_shared(node, t + Cycles::from_micros(2));
        prop_assert_eq!(f2.lines, 0, "second flush finds nothing dirty");
        // Private data stayed dirty.
        for i in 0..private_writes {
            let addr = mem.layout().private_addr(node, 0, (i as u64) * 64);
            prop_assert_eq!(mem.cached_state(node, addr.line()), LineState::Modified);
        }
    }

    /// Access completion never precedes issue, and repeated reads of the
    /// same location from the same node eventually become L1 hits.
    #[test]
    fn latencies_are_causal_and_caches_warm(
        node in 0u16..8,
        page in 0u64..32,
    ) {
        let mut mem = MemorySystem::new(MachineConfig::table1_with_nodes(8));
        let addr = mem.layout().shared_addr(page, 0);
        let mut t = Cycles::from_micros(1);
        let first = mem.read(NodeId::new(node), addr, t);
        prop_assert!(first.completion > t);
        t = first.completion + Cycles::from_micros(1);
        let second = mem.read(NodeId::new(node), addr, t);
        prop_assert_eq!(second.class, tb_mem::AccessClass::L1Hit);
        prop_assert_eq!(second.latency(t), Cycles::from_nanos(2));
    }
}

// ----- differential test of the deep-sleep flush and the batched rewrite ---

#[derive(Debug, Clone)]
enum DiffOp {
    Read {
        node: u16,
        line: usize,
    },
    Write {
        node: u16,
        line: usize,
    },
    /// A `write_line_run` of `len` consecutive lines starting at `line`.
    Run {
        node: u16,
        line: usize,
        len: u32,
    },
    Flush {
        node: u16,
    },
}

const DIFF_NODES: u16 = 8;
/// Shared pages in the pool. Even and odd pages fill disjoint halves of
/// the 128 L1/L2 sets, ten pages deep, so both levels evict.
const DIFF_PAGES: u64 = 20;
/// Lines used at the start of each shared page; runs stay inside them.
const DIFF_LINES: u64 = 4;

fn diff_op() -> impl Strategy<Value = DiffOp> {
    let shared = (DIFF_PAGES * DIFF_LINES) as usize;
    prop_oneof![
        3 => (0..DIFF_NODES, 0..shared + 4).prop_map(|(node, line)| DiffOp::Read { node, line }),
        3 => (0..DIFF_NODES, 0..shared + 4).prop_map(|(node, line)| DiffOp::Write { node, line }),
        3 => (0..DIFF_NODES, 0..shared, 1..=DIFF_LINES as u32)
            .prop_map(|(node, line, len)| DiffOp::Run { node, line, len }),
        2 => (0..DIFF_NODES).prop_map(|node| DiffOp::Flush { node }),
    ]
}

/// Every line the history can touch: `DIFF_LINES` lines of each shared
/// page, then one private line for each of the first four nodes.
fn diff_pool(mem: &CoherentMemory) -> Vec<Addr> {
    let layout = mem.layout();
    let mut pool: Vec<Addr> = (0..DIFF_PAGES)
        .flat_map(|p| (0..DIFF_LINES).map(move |l| (p, l * 64)))
        .map(|(p, off)| layout.shared_addr(p, off))
        .collect();
    pool.extend((0..4).map(|n| layout.private_addr(NodeId::new(n), 0, 0)));
    pool
}

/// Everything a flush may change, observed through the public API.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    /// `levels[node][k]`: (L1, L2) state of pool line `k`.
    levels: Vec<Vec<(LineState, LineState)>>,
    dir: Vec<DirState>,
    stats: MemStats,
    bus_free_at: Option<Cycles>,
}

fn snapshot(mem: &CoherentMemory, pool: &[Addr]) -> Snapshot {
    let levels = |node: NodeId| {
        pool.iter()
            .map(|a| match mem {
                CoherentMemory::Directory(m) => m.probe_levels(node, a.line()),
                CoherentMemory::Bus(m) => m.probe_levels(node, a.line()),
            })
            .collect()
    };
    Snapshot {
        levels: (0..DIFF_NODES).map(|n| levels(NodeId::new(n))).collect(),
        dir: pool
            .iter()
            .map(|a| match mem {
                CoherentMemory::Directory(m) => m.dir_state(a.line()),
                CoherentMemory::Bus(m) => m.line_state(a.line()),
            })
            .collect(),
        stats: mem.stats().clone(),
        bus_free_at: match mem {
            CoherentMemory::Directory(_) => None,
            CoherentMemory::Bus(m) => Some(m.bus_free_at()),
        },
    }
}

/// The flush as the substrates did it before the dirty index: collect the
/// dirty lines of both levels, drop private ones, sort, dedup, then apply
/// each line in order. Works on a snapshot, so it can check the real flush
/// from outside; fails if an L1-dirty line is missing from the L2 (the
/// old code's re-insert fallback, which inclusion should make dead).
fn reference_flush(
    mem: &CoherentMemory,
    before: &Snapshot,
    pool: &[Addr],
    node: NodeId,
    now: Cycles,
) -> Result<(FlushOutcome, Snapshot), TestCaseError> {
    let mut after = before.clone();
    let levels = &mut after.levels[node.index()];
    let mut lines: Vec<(LineAddr, usize)> = Vec::new();
    for (k, &(l1, l2)) in levels.iter().enumerate() {
        for state in [l1, l2] {
            if state.is_dirty() && !pool[k].is_private() {
                lines.push((pool[k].line(), k));
            }
        }
    }
    lines.sort_unstable();
    lines.dedup();
    let mut farthest = Cycles::ZERO;
    for &(line, k) in &lines {
        let (l1, l2) = &mut levels[k];
        if l1.is_dirty() {
            *l1 = LineState::Shared;
        }
        prop_assert!(l2.is_valid(), "L1-dirty {line} is absent from the L2");
        *l2 = LineState::Shared;
        after.dir[k] = DirState::Shared(SharerSet::singleton(node));
        after.stats.writebacks += 1;
        if let CoherentMemory::Directory(m) = mem {
            let home = m.layout().home_of(line);
            farthest = farthest.max(m.network().line_latency(node, home));
        }
    }
    after.stats.flushes += 1;
    after.stats.flushed_lines += lines.len() as u64;
    let n = lines.len() as u64;
    let duration = match mem {
        CoherentMemory::Directory(m) if n == 0 => m.config().l2_round_trip,
        CoherentMemory::Directory(m) => {
            m.config().l2_round_trip + m.config().mem_transfer * n + farthest
        }
        CoherentMemory::Bus(m) => {
            let cfg = m.config();
            let mut end = now + cfg.l2_round_trip;
            let mut free = before.bus_free_at.expect("bus snapshot");
            for _ in 0..n {
                let grant = (end + cfg.arbitration).max(free);
                end = grant + cfg.data_transfer;
                free = end;
            }
            after.bus_free_at = Some(free);
            end.saturating_sub(now)
        }
    };
    let outcome = FlushOutcome {
        lines: lines.len(),
        duration,
    };
    Ok((outcome, after))
}

/// Runs a history on a `write_line_run` machine and on a per-line-write
/// twin. Every flush of the first is checked against [`reference_flush`];
/// after every step, both machines must agree on completions, counters,
/// cache states and directory states.
fn run_differential(make: fn() -> CoherentMemory, ops: &[DiffOp]) -> Result<(), TestCaseError> {
    let mut batched = make();
    let mut looped = make();
    let pool = diff_pool(&batched);
    let mut t = Cycles::ZERO;
    for op in ops {
        t += Cycles::from_micros(1);
        match *op {
            DiffOp::Read { node, line } | DiffOp::Write { node, line } => {
                let addr = pool[line];
                let node = match addr.private_owner() {
                    Some(owner) => owner, // private data is only touched by its owner
                    None => NodeId::new(node),
                };
                let (a, b) = if matches!(op, DiffOp::Read { .. }) {
                    (batched.read(node, addr, t), looped.read(node, addr, t))
                } else {
                    (batched.write(node, addr, t), looped.write(node, addr, t))
                };
                prop_assert_eq!(a, b);
            }
            DiffOp::Run { node, line, len } => {
                let node = NodeId::new(node);
                let len = len.min((DIFF_LINES - line as u64 % DIFF_LINES) as u32);
                let end = batched.write_line_run(node, pool[line], len, t);
                let mut end_l = t;
                for i in 0..len as u64 {
                    end_l = looped
                        .write(node, pool[line].offset(i * 64), end_l)
                        .completion;
                }
                prop_assert_eq!(end, end_l, "run of {} at {}", len, pool[line]);
            }
            DiffOp::Flush { node } => {
                let node = NodeId::new(node);
                let before = snapshot(&batched, &pool);
                let (expected, expected_after) =
                    reference_flush(&batched, &before, &pool, node, t)?;
                let got = batched.flush_dirty_shared(node, t);
                prop_assert_eq!(got, expected);
                prop_assert_eq!(&snapshot(&batched, &pool), &expected_after);
                prop_assert_eq!(looped.flush_dirty_shared(node, t), got);
            }
        }
        prop_assert_eq!(snapshot(&batched, &pool), snapshot(&looped, &pool));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The single-pass flush over the dirty index equals the old
    /// collect/sort/apply flush, and the batched rewrite (with the
    /// directory's inline sole-sharer upgrade) equals per-line writes, on
    /// both substrates.
    #[test]
    fn flush_and_batched_rewrite_match_reference(
        ops in proptest::collection::vec(diff_op(), 1..160),
    ) {
        run_differential(|| CoherentMemory::directory(MachineConfig::table1_with_nodes(DIFF_NODES)), &ops)?;
        run_differential(|| CoherentMemory::bus(BusConfig::smp(DIFF_NODES)), &ops)?;
    }
}

//! Criterion micro-benchmarks of the four flattened hot paths: event-queue
//! churn (slab + packed-key heap), cache write hits (flat way array),
//! directory upgrades (dense two-tier directory, inline sole-sharer
//! refill), and deep-sleep flushes (per-cache dirty index), the last two
//! at the working-set sizes of the applications; plus calibrated trace
//! generation, the sweep's setup cost. These isolate the data structures
//! the macro benchmark (`bench_sim`) exercises end-to-end, so a regression
//! in one shows up by name.
//!
//! The directory benches honor `TB_BENCH_NODES` (machine size).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tb_machine::run::PAPER_SEED;
use tb_mem::{Cache, CacheConfig, LineState, MachineConfig, MemorySystem, NodeId};
use tb_sim::{Cycles, EventQueue};
use tb_workloads::AppSpec;

/// Steady-state churn at a realistic pending population (64 events, the
/// paper machine's thread count): every iteration pops the earliest event,
/// reschedules it, and cancels/reschedules a second one — the hybrid
/// wake-up pattern (timer vs. invalidation) that motivates the queue.
fn event_queue_churn(c: &mut Criterion) {
    c.bench_function("event_queue_churn", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut step = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % 97
        };
        let mut shadow = Vec::new();
        for i in 0..64u64 {
            shadow.push(q.schedule(Cycles::new(1 + step()), i));
        }
        b.iter(|| {
            let (now, ev) = q.pop().expect("queue stays populated");
            q.schedule(now + Cycles::new(1 + step()), ev);
            // Cancel-and-replace a shadow timer, like a spinner whose
            // external wake-up beat its internal timer.
            let idx = (step() % shadow.len() as u64) as usize;
            q.cancel(shadow[idx]);
            shadow[idx] = q.schedule(now + Cycles::new(1 + step()), ev);
            black_box(now)
        });
    });
}

/// L1 write hits on a resident working set: the compute-phase rewrite's
/// inner operation (single tag scan, silent M/E upgrade in the same pass).
fn cache_access_hit(c: &mut Criterion) {
    c.bench_function("cache_access_hit", |b| {
        let mut cache = Cache::new(CacheConfig::table1_l1());
        let layout = tb_mem::MemLayout::new(64);
        let lines: Vec<_> = (0..128u64)
            .map(|i| layout.shared_addr(i / 64, (i % 64) * 64).line())
            .collect();
        for &l in &lines {
            cache.insert(l, LineState::Modified);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % lines.len();
            black_box(cache.write_access(lines[i]))
        });
    });
}

/// Working-set sizes for the flush/refill cases: 64 lines, and FMM-scale
/// sets (256 lines is the largest working set in `tb-workloads`'
/// applications).
const FLUSH_LINES: [u32; 3] = [64, 192, 256];

/// The post-flush rewrite transaction: a sole sharer re-acquiring write
/// permission (Shared at the writer -> directory upgrade, no remote
/// invalidations). Each iteration flushes the dirty lines and rewrites
/// them, so the upgrades dominate the loop.
fn directory_upgrade(c: &mut Criterion) {
    for lines in FLUSH_LINES {
        c.bench_function(&format!("directory_upgrade/{lines}"), |b| {
            let nodes = tb_bench::bench_nodes();
            let mut m = MemorySystem::new(MachineConfig::table1_with_nodes(nodes));
            let node = NodeId::new(nodes / 2);
            let base = m.layout().shared_addr(3, 0);
            let mut t = m.write_line_run(node, base, lines, Cycles::ZERO);
            b.iter(|| {
                let f = m.flush_dirty_shared(node, t);
                t += f.duration;
                t = m.write_line_run(node, base, lines, t);
                black_box(t)
            });
        });
    }
}

/// The deep-sleep entry cost: downgrading a node's dirty shared lines
/// through the dirty index. Each iteration re-dirties the set first (by
/// post-flush upgrades, the only way back to Modified), so the flush
/// always has the whole set to do.
fn flush_dirty_lines(c: &mut Criterion) {
    for lines in FLUSH_LINES {
        c.bench_function(&format!("flush_dirty_lines/{lines}"), |b| {
            let nodes = tb_bench::bench_nodes();
            let mut m = MemorySystem::new(MachineConfig::table1_with_nodes(nodes));
            let node = NodeId::new(1);
            let base = m.layout().shared_addr(3, 0);
            let mut t = m.write_line_run(node, base, lines, Cycles::ZERO);
            b.iter(|| {
                t = m.write_line_run(node, base, lines, t);
                let f = m.flush_dirty_shared(node, t);
                t += f.duration;
                black_box(f.lines)
            });
        });
    }
}

/// One calibrated trace, as the harness builds it once per (app, nodes,
/// seed): FMM at the paper seed on an 8- and a 64-processor machine.
fn trace_generate(c: &mut Criterion) {
    let fmm = AppSpec::by_name("FMM").expect("FMM is a SPLASH-2 model");
    for threads in [8, 64] {
        c.bench_function(&format!("trace_generate/{threads}"), |b| {
            b.iter(|| black_box(fmm.generate(black_box(threads), PAPER_SEED)))
        });
    }
}

criterion_group!(
    hotpaths,
    event_queue_churn,
    cache_access_hit,
    directory_upgrade,
    flush_dirty_lines,
    trace_generate
);
criterion_main!(hotpaths);

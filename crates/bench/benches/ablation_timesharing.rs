//! A6 — the §3.4.1 alternative: time-sharing (spin-then-yield to another
//! process) versus the thrifty barrier.
//!
//! Time-sharing also stops the energy waste (the core does another
//! process's useful work), but "unless scheduling is carefully planned,
//! time-sharing may hurt performance significantly": a yielded thread
//! resumes only at a scheduling-quantum boundary after the release, and
//! with OS-scale quanta that lag lands on the critical path of the next
//! barrier. "In contrast, the thrifty barrier tries to achieve lower
//! energy consumption while at the same time striving for maintaining the
//! same level of performance."

use tb_bench::{banner, bench_nodes, bench_seed};
use tb_core::{AlgorithmConfig, SystemConfig};
use tb_machine::run::run_trace;
use tb_machine::sim::{simulate, SimulatorConfig, TimeSharing};
use tb_sim::Cycles;
use tb_workloads::AppSpec;

fn main() {
    banner(
        "A6 (time-sharing)",
        "spin-then-yield vs the thrifty barrier (§3.4.1)",
    );
    let nodes = bench_nodes();
    println!(
        "{:<11} {:<24} {:>9} {:>10}",
        "app", "policy", "energy", "slowdown"
    );
    println!("{}", "-".repeat(58));
    for name in ["Volrend", "FMM", "Water-Nsq"] {
        let app = AppSpec::by_name(name).expect("known app");
        let trace = app.generate(nodes as usize, bench_seed());
        let base = run_trace(&trace, nodes, SystemConfig::Baseline);
        let thrifty = run_trace(&trace, nodes, SystemConfig::Thrifty);
        println!(
            "{:<11} {:<24} {:>8.1}% {:>+9.2}%",
            app.name,
            "thrifty",
            thrifty.energy_normalized_to(&base).total() * 100.0,
            thrifty.slowdown_vs(&base) * 100.0
        );
        for quantum_ms in [1u64, 10] {
            let mut cfg = SimulatorConfig::paper_with_nodes("TimeSharing", nodes);
            cfg.time_sharing = Some(TimeSharing {
                spin_before_yield: Cycles::from_micros(50),
                quantum: Cycles::from_millis(quantum_ms),
            });
            let ts = simulate(cfg, &trace, AlgorithmConfig::baseline(), None)
                .unwrap()
                .0;
            println!(
                "{:<11} {:<24} {:>8.1}% {:>+9.2}%",
                app.name,
                format!("yield (quantum {quantum_ms} ms)"),
                ts.energy_normalized_to(&base).total() * 100.0,
                ts.slowdown_vs(&base) * 100.0
            );
        }
        println!();
    }
    println!(
        "expected shape: time-sharing shows larger *apparent* energy savings (another \
         process\npays for the core) but significant slowdowns at OS-scale quanta; \
         thrifty keeps the\nperformance"
    );
}

//! X2 — the thrifty barrier on a snooping-bus SMP vs the paper's
//! directory CC-NUMA.
//!
//! The paper's related work (Jetty, serial snooping) lives on bus-based
//! SMPs; this harness shows the external wake-up mechanism carries over:
//! on a bus the flag-flip's invalidation is one *broadcast*, so every
//! sleeper observes it simultaneously, while the directory staggers
//! point-to-point deliveries.

use tb_bench::{banner, bench_seed};
use tb_core::{AlgorithmConfig, SystemConfig};
use tb_machine::run::run_trace;
use tb_machine::sim::{simulate, SimulatorConfig};
use tb_mem::BusConfig;
use tb_workloads::AppSpec;

fn main() {
    banner(
        "X2 (snooping bus)",
        "thrifty barrier on a 16-processor bus SMP",
    );
    let nodes = 16u16; // bus SMPs are small machines
    println!(
        "{:<11} {:<11} {:>9} {:>10} {:>9} {:>9}",
        "app", "substrate", "energy", "slowdown", "sleeps", "spins"
    );
    println!("{}", "-".repeat(64));
    for name in ["Volrend", "FMM", "Water-Nsq", "Ocean"] {
        let app = AppSpec::by_name(name).expect("known app");
        let trace = app.generate(nodes as usize, bench_seed());

        // Directory machine (the paper's), downscaled to 16 nodes.
        let dir_base = run_trace(&trace, nodes, SystemConfig::Baseline);
        let dir_thrifty = run_trace(&trace, nodes, SystemConfig::Thrifty);
        println!(
            "{:<11} {:<11} {:>8.1}% {:>+9.2}% {:>9} {:>9}",
            app.name,
            "directory",
            dir_thrifty.energy_normalized_to(&dir_base).total() * 100.0,
            dir_thrifty.slowdown_vs(&dir_base) * 100.0,
            dir_thrifty.counts.total_sleeps(),
            dir_thrifty.counts.spins,
        );

        // Bus SMP.
        let mut bus_cfg = SimulatorConfig::paper_with_nodes("Baseline", nodes);
        bus_cfg.bus = Some(BusConfig::smp(nodes));
        let bus_base = simulate(bus_cfg.clone(), &trace, AlgorithmConfig::baseline(), None)
            .unwrap()
            .0;
        bus_cfg.config_name = "Thrifty".into();
        let bus_thrifty = simulate(bus_cfg, &trace, AlgorithmConfig::thrifty(), None)
            .unwrap()
            .0;
        println!(
            "{:<11} {:<11} {:>8.1}% {:>+9.2}% {:>9} {:>9}",
            app.name,
            "bus",
            bus_thrifty.energy_normalized_to(&bus_base).total() * 100.0,
            bus_thrifty.slowdown_vs(&bus_base) * 100.0,
            bus_thrifty.counts.total_sleeps(),
            bus_thrifty.counts.spins,
        );
        println!();
    }
    println!(
        "expected shape: savings and slowdowns track the directory machine — the \
         external\nwake-up works on broadcast snooping exactly as on point-to-point \
         invalidations"
    );
}

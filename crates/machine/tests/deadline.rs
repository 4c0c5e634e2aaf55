//! A timed-out attempt stops running: once `run_cells_supervised_with`
//! returns, the process has exactly the threads it had before.
//!
//! This is its own test binary with a single test, so no sibling test can
//! start or end threads while the count is compared.

use std::time::Duration;
use tb_core::SystemConfig;
use tb_machine::harness::{Cell, CellError, Harness, SupervisionPolicy};
use tb_workloads::AppSpec;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has a Threads line")
}

#[test]
fn timed_out_attempts_leave_no_thread_behind() {
    let cells: Vec<Cell> = ["Ocean", "FMM"]
        .into_iter()
        .flat_map(|name| {
            let app = AppSpec::by_name(name).unwrap();
            [SystemConfig::Baseline, SystemConfig::Thrifty]
                .map(|config| Cell::new(app.clone(), 64, 1, config))
        })
        .collect();
    let harness = Harness::new(2);
    let policy = SupervisionPolicy::default()
        .with_retries(2)
        .with_timeout(Some(Duration::from_millis(1)));

    let before = os_threads();
    let outcomes = harness.run_cells_supervised_with(&cells, &policy, |_, _| {});
    let after = os_threads();

    assert_eq!(after, before, "an attempt is still running");
    for outcome in &outcomes {
        assert_eq!(outcome.attempts(), 3, "1 attempt + 2 retries");
        assert_eq!(
            outcome.report.as_ref().unwrap_err(),
            &CellError::Timeout { limit_ms: 1 }
        );
    }
}

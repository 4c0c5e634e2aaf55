//! Parallel experiment harness with shared trace/oracle caching and
//! supervised execution.
//!
//! The paper's evaluation is a matrix: applications × configurations
//! (× seeds, once replication enters the picture). Every cell is an
//! independent deterministic simulation, which makes the matrix
//! embarrassingly parallel — *except* that cells share expensive inputs:
//!
//! * the generated [`AppTrace`] is identical for every configuration of one
//!   (app, nodes, seed) triple, and
//! * the Oracle-Halt and Ideal configurations both need the Baseline run of
//!   that same triple to build their [`RecordedBitOracle`] (and the
//!   Baseline cell itself *is* that run).
//!
//! [`Harness`] therefore fans cells out across a scoped worker pool while
//! interning both inputs in content-keyed caches: each (app, nodes, seed)
//! generates its trace once and simulates Baseline exactly once, no matter
//! how many configurations, workers, or calls consume it. Results come
//! back in the caller's cell order (workers fill indexed slots, so
//! completion order never shows), which keeps parallel output byte-for-byte
//! identical to a serial run.
//!
//! # Supervision
//!
//! Long fault sweeps must survive individual cells misbehaving, so cells
//! run under a [`SupervisionPolicy`] (see DESIGN.md §11):
//!
//! * a **panicking** cell is caught (`catch_unwind`) and reported as
//!   [`CellError::Panic`] with its message preserved;
//! * a **livelocked** simulation is stopped by the simulator's own
//!   progress watchdog and reported as [`CellError::Livelock`] with
//!   queue/episode diagnostics;
//! * a cell that exceeds the policy's **wall-clock deadline** is stopped
//!   by the simulator, which polls the attempt's [`Deadline`], and is
//!   reported as [`CellError::Timeout`]. The deadline covers the whole
//!   attempt, a Baseline cache fill included; a timed-out fill leaves its
//!   cache key empty for the next attempt;
//! * **transient** failures (panic, timeout) are re-run up to
//!   `policy.retries` times on the same worker, after a deterministic,
//!   seed-derived exponential backoff ([`retry_backoff`]); the full failure
//!   history lands in [`CellOutcome::retries`]. Livelocks are deterministic
//!   (same seed → same wedge schedule), so they are never retried.
//!
//! Every attempt runs on the worker that claimed its cell, so when
//! [`Harness::run_cells_supervised_with`] returns, no attempt is still
//! running.

use crate::report::{AggregateReport, RunReport};
use crate::run::oracle_from_baseline;
use crate::sim::{simulate, Deadline, LivelockDiagnostics, SimulatorConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;
use tb_core::{FaultPlan, QuarantineConfig, RecordedBitOracle, SystemConfig};
use tb_faults::FaultSummary;
use tb_sim::SimRng;
use tb_workloads::{AppSpec, AppTrace};

/// One cell of the experiment matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The application to simulate.
    pub app: AppSpec,
    /// Machine size (power of two in `2..=64`).
    pub nodes: u16,
    /// Workload seed.
    pub seed: u64,
    /// The barrier system configuration.
    pub config: SystemConfig,
    /// Fault plan injected into this cell's simulation (`None`, or a
    /// disabled plan, runs the clean simulator path).
    pub faults: Option<FaultPlan>,
}

impl Cell {
    /// Creates a fault-free cell.
    pub fn new(app: AppSpec, nodes: u16, seed: u64, config: SystemConfig) -> Self {
        Cell {
            app,
            nodes,
            seed,
            config,
            faults: None,
        }
    }

    /// Attaches a fault plan to the cell.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Why a supervised cell failed to produce a report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum CellError {
    /// The simulation panicked; the payload is the panic message.
    Panic(String),
    /// The simulator's progress watchdog declared the run livelocked.
    Livelock(LivelockDiagnostics),
    /// The attempt overran its wall-clock deadline and was stopped.
    Timeout {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The cell killed `strikes` worker processes in a row and was
    /// quarantined as poison by the multi-process sweep coordinator
    /// (`tb-serve`): it is recorded in coverage and never dispatched
    /// again. Only the coordinator produces this variant — an in-process
    /// harness has no worker processes to lose.
    Poisoned {
        /// Consecutive worker deaths that condemned the cell.
        strikes: u32,
    },
}

impl CellError {
    /// Whether a retry could plausibly succeed. Panics and timeouts are
    /// treated as transient (OOM, scheduling jitter, host interference);
    /// livelocks are deterministic — the same seed wedges the same guard
    /// timers — so retrying one only wastes the budget. A poisoned cell
    /// already exhausted its worker-death strikes, so it is final by
    /// definition.
    pub fn is_transient(&self) -> bool {
        matches!(self, CellError::Panic(_) | CellError::Timeout { .. })
    }

    /// Short machine-readable class name ("panic" / "livelock" /
    /// "timeout" / "poisoned").
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Panic(_) => "panic",
            CellError::Livelock(_) => "livelock",
            CellError::Timeout { .. } => "timeout",
            CellError::Poisoned { .. } => "poisoned",
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panic(msg) => write!(f, "panic: {msg}"),
            CellError::Livelock(d) => write!(f, "livelock: {d}"),
            CellError::Timeout { limit_ms } => write!(f, "timeout after {limit_ms} ms"),
            CellError::Poisoned { strikes } => {
                write!(f, "poisoned after {strikes} worker deaths")
            }
        }
    }
}

/// The result of one supervised cell: the report (or the typed error that
/// ended the final attempt) together with its injected-fault/recovery
/// tallies and the errors of every failed earlier attempt.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The run report, or the error of the last attempt.
    pub report: Result<RunReport, CellError>,
    /// Fault-injection and recovery tallies for the cell (all zero for
    /// fault-free or failed cells).
    pub faults: FaultSummary,
    /// The error of each failed attempt that was retried, oldest first.
    /// Empty when the first attempt succeeded or the policy allowed no
    /// retries.
    pub retries: Vec<CellError>,
    /// How many times the cell's lease was revoked from a dead worker and
    /// the cell requeued (`tb-serve` fleets only; always zero for
    /// in-process runs). Reassignments are worker deaths, not cell
    /// failures, so they are tracked separately from `retries`.
    pub reassigned: u32,
}

impl CellOutcome {
    /// Whether the cell failed to produce a report after all attempts.
    pub fn is_failed(&self) -> bool {
        self.report.is_err()
    }

    /// How many times the cell was attempted (1 = no retries).
    pub fn attempts(&self) -> u32 {
        self.retries.len() as u32 + 1
    }
}

/// How [`Harness::run_cells_supervised_with`] handles misbehaving cells.
#[derive(Debug, Clone, Default)]
pub struct SupervisionPolicy {
    /// How many times a transiently failed cell (panic, timeout) is re-run
    /// before its error becomes final. `0` (the default) fails fast.
    pub retries: u32,
    /// Per-attempt wall-clock deadline. `None` (the default) waits
    /// indefinitely; `Some` stops an attempt that overruns it and records
    /// [`CellError::Timeout`].
    pub timeout: Option<Duration>,
}

impl SupervisionPolicy {
    /// Sets the transient-failure retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the per-attempt wall-clock deadline.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }
}

/// The deterministic backoff slept before retry number `attempt`
/// (1-based): 50 ms doubling per attempt, capped at 2 s, scaled by a
/// jitter factor in `[0.5, 1.0)` drawn from the cell seed's dedicated
/// `"retry-backoff"` RNG stream — reproducible across runs, decorrelated
/// across cells.
pub fn retry_backoff(seed: u64, attempt: u32) -> Duration {
    const BASE_MS: u64 = 50;
    const CAP_MS: u64 = 2_000;
    let shift = attempt.saturating_sub(1).min(6);
    let nominal = (BASE_MS << shift).min(CAP_MS);
    let mut rng = SimRng::new(seed).derive("retry-backoff", attempt as u64);
    let jitter = 0.5 + 0.5 * rng.uniform();
    Duration::from_millis((nominal as f64 * jitter).round() as u64)
}

/// Renders a `catch_unwind` payload as the human-readable panic message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// The Baseline run of one (app, nodes, seed) triple together with the
/// oracle table derived from it — the shared input of the Baseline,
/// Oracle-Halt, and Ideal cells.
#[derive(Debug)]
pub struct BaselineBundle {
    /// The Baseline run report.
    pub report: RunReport,
    /// Perfect BIT prediction recorded from that run.
    pub oracle: RecordedBitOracle,
}

/// Cache key: (app name, nodes, seed). App specs are identified by name —
/// [`AppSpec::splash2`] names are unique, and callers mixing custom specs
/// under one name would already be ambiguous everywhere else.
type Key = (String, u16, u64);

/// One key's cached value, empty until a fill succeeds.
type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

/// A content-keyed exactly-once cache. Each key holds a slot behind its
/// own mutex: the first looker-up fills it, concurrent ones block on the
/// slot and then share the value, later ones hit. A fill that fails (a
/// Baseline run that overran its deadline) leaves the slot empty, so the
/// next looker-up fills it instead.
struct Cache<T> {
    slots: Mutex<HashMap<Key, Slot<T>>>,
    hits: AtomicU64,
    fills: AtomicU64,
}

impl<T> Default for Cache<T> {
    fn default() -> Self {
        Cache {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            fills: AtomicU64::new(0),
        }
    }
}

impl<T> Cache<T> {
    fn get_or_try_fill<E>(
        &self,
        key: Key,
        fill: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let slot = {
            // A worker that panicked while holding the lock poisons it, but
            // the map itself is never left mid-update (entry insertion is
            // atomic from the map's point of view), so recover the guard
            // instead of cascading the panic into every later lookup.
            let mut map = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        // The map lock is released before filling, so a slow fill never
        // blocks lookups of other keys; the slot lock serializes fills of
        // the *same* key, which is exactly the exactly-once guarantee. A
        // fill that panicked poisoned the slot while it was still empty,
        // so its guard is recovered too.
        let mut value = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = value.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(value));
        }
        let filled = Arc::new(fill()?);
        self.fills.fetch_add(1, Ordering::Relaxed);
        *value = Some(Arc::clone(&filled));
        Ok(filled)
    }

    fn fills(&self) -> u64 {
        self.fills.load(Ordering::Relaxed)
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Parallel experiment runner with shared trace and Baseline/oracle caches.
///
/// The caches live for the lifetime of the harness, so sequential calls
/// (`run` then `cutoff`, or repeated sweeps) keep amortizing the same
/// Baseline recordings — build one harness per process, not per call.
///
/// # Examples
///
/// ```
/// use tb_core::SystemConfig;
/// use tb_machine::harness::{Cell, Harness};
/// use tb_workloads::AppSpec;
///
/// let app = AppSpec::by_name("FMM").unwrap();
/// let harness = Harness::new(2);
/// let cells: Vec<Cell> = SystemConfig::ALL
///     .into_iter()
///     .map(|c| Cell::new(app.clone(), 16, 1, c))
///     .collect();
/// let reports = harness.run_cells(&cells).unwrap();
/// assert_eq!(reports.len(), 5);
/// // All five configurations shared one trace and one Baseline run.
/// assert_eq!(harness.trace_generations(), 1);
/// assert_eq!(harness.baseline_runs(), 1);
/// assert!(reports[3].total_energy() < reports[0].total_energy());
/// ```
pub struct Harness {
    jobs: usize,
    traces: Cache<AppTrace>,
    baselines: Cache<BaselineBundle>,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("jobs", &self.jobs)
            .field("trace_generations", &self.trace_generations())
            .field("baseline_runs", &self.baseline_runs())
            .field("cache_hits", &self.cache_hits())
            .finish()
    }
}

impl Harness {
    /// Creates a harness running up to `jobs` cells concurrently; `0`
    /// means one worker per available hardware thread.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        Harness {
            jobs,
            traces: Cache::default(),
            baselines: Cache::default(),
        }
    }

    /// A single-worker harness: runs cells inline in caller order, still
    /// with the shared caches.
    pub fn serial() -> Self {
        Harness::new(1)
    }

    /// The worker-pool size.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The interned trace of (app, nodes, seed), generating it on first
    /// use.
    pub fn trace(&self, app: &AppSpec, nodes: u16, seed: u64) -> Arc<AppTrace> {
        let key = (app.name.clone(), nodes, seed);
        let Ok(trace) = self.traces.get_or_try_fill(key, || {
            Ok::<_, std::convert::Infallible>(app.generate(nodes as usize, seed))
        });
        trace
    }

    /// The interned Baseline run (and derived oracle) of (app, nodes,
    /// seed), simulating it on first use. This is the *only* place the
    /// harness runs Baseline, so each triple runs it exactly once.
    ///
    /// # Panics
    ///
    /// Panics if the Baseline simulation livelocks.
    pub fn baseline(&self, app: &AppSpec, nodes: u16, seed: u64) -> Arc<BaselineBundle> {
        self.baseline_within(app, nodes, seed, None)
            .expect("a Baseline run without a deadline completes")
    }

    /// [`Harness::baseline`] under an attempt's deadline: a fill that
    /// overruns it returns [`CellError::Timeout`] and caches nothing.
    fn baseline_within(
        &self,
        app: &AppSpec,
        nodes: u16,
        seed: u64,
        deadline: Option<Deadline>,
    ) -> Result<Arc<BaselineBundle>, CellError> {
        let trace = self.trace(app, nodes, seed);
        self.baselines
            .get_or_try_fill((app.name.clone(), nodes, seed), || {
                let mut cfg =
                    SimulatorConfig::paper_with_nodes(SystemConfig::Baseline.name(), nodes);
                cfg.deadline = deadline;
                let algo = SystemConfig::Baseline.algorithm_config();
                let (report, _) = simulate(cfg, &trace, algo, None)?;
                let oracle = oracle_from_baseline(&report);
                Ok(BaselineBundle { report, oracle })
            })
    }

    /// Runs one cell, reusing the cached trace and (for Baseline and the
    /// oracle configurations) the cached Baseline run, and returns its
    /// report with its fault tallies.
    ///
    /// A cell whose plan is absent or disabled takes exactly the clean
    /// path (including the shared-Baseline cache shortcut) and reports an
    /// all-zero [`FaultSummary`]. A faulted cell never reads from or
    /// writes to the Baseline cache — cached bundles are fault-free by
    /// definition — though it still shares the trace cache and, for oracle
    /// configurations, consumes the clean Baseline's oracle (the oracle
    /// models *prediction* knowledge, not fault knowledge).
    ///
    /// A livelocked simulation returns [`CellError::Livelock`]; a panic
    /// is not caught here.
    pub fn try_run_cell_faulted(
        &self,
        cell: &Cell,
    ) -> Result<(RunReport, FaultSummary), CellError> {
        self.run_cell_within(cell, None)
    }

    fn run_cell_within(
        &self,
        cell: &Cell,
        deadline: Option<Deadline>,
    ) -> Result<(RunReport, FaultSummary), CellError> {
        let plan = cell.faults.clone().filter(FaultPlan::enabled);
        if plan.is_none() && cell.config == SystemConfig::Baseline {
            let bundle = self.baseline_within(&cell.app, cell.nodes, cell.seed, deadline)?;
            return Ok((bundle.report.clone(), FaultSummary::default()));
        }
        let trace = self.trace(&cell.app, cell.nodes, cell.seed);
        let oracle = if cell.config.needs_oracle() {
            let bundle = self.baseline_within(&cell.app, cell.nodes, cell.seed, deadline)?;
            Some(bundle.oracle.clone())
        } else {
            None
        };
        let mut cfg = SimulatorConfig::paper_with_nodes(cell.config.name(), cell.nodes);
        let mut algo = cell.config.algorithm_config();
        if plan.is_some() {
            // Under injected faults the predictor needs its misprediction
            // backstop; quarantine is part of the hardened configuration.
            algo = algo.with_quarantine(Some(QuarantineConfig::default()));
        }
        cfg.faults = plan;
        cfg.deadline = deadline;
        simulate(cfg, &trace, algo, oracle)
    }

    /// Runs one attempt of a cell with panic isolation, classifying every
    /// failure mode into a [`CellError`].
    fn run_cell_attempt(
        &self,
        cell: &Cell,
        deadline: Option<Deadline>,
    ) -> Result<(RunReport, FaultSummary), CellError> {
        catch_unwind(AssertUnwindSafe(|| self.run_cell_within(cell, deadline)))
            .unwrap_or_else(|payload| Err(CellError::Panic(panic_message(payload))))
    }

    /// Runs every cell and returns the reports **in `cells` order**, or
    /// the error of the first (in cell order) cell that failed.
    pub fn run_cells(&self, cells: &[Cell]) -> Result<Vec<RunReport>, CellError> {
        self.run_cells_supervised_with(cells, &SupervisionPolicy::default(), |_, _| {})
            .into_iter()
            .map(|outcome| outcome.report)
            .collect()
    }

    /// Runs every cell under `policy` and returns the outcomes **in
    /// `cells` order**, regardless of completion order. `on_complete` is
    /// invoked with each cell's index and final outcome *as soon as that
    /// cell finishes* (from whichever worker finished it — the callback
    /// must be `Sync`). This is the checkpointing hook: a sweep journal can
    /// persist every completed cell without waiting for the whole batch.
    ///
    /// Workers pull the next unclaimed index from a shared counter (cheap
    /// work stealing: a long cell never blocks the queue behind it), run
    /// that cell's attempts and retries themselves, and write into that
    /// index's slot, so the result layout — and therefore any output
    /// rendered from it — is identical at every `jobs` level. One worker
    /// runs on the calling thread; more run on scoped threads, all joined
    /// before this returns.
    pub fn run_cells_supervised_with<F>(
        &self,
        cells: &[Cell],
        policy: &SupervisionPolicy,
        on_complete: F,
    ) -> Vec<CellOutcome>
    where
        F: Fn(usize, &CellOutcome) + Sync,
    {
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<CellOutcome>> = cells.iter().map(|_| OnceLock::new()).collect();
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else { break };
            let outcome = self.run_cell_supervised(cell, policy);
            on_complete(i, &outcome);
            slots[i].set(outcome).expect("each index is claimed once");
        };
        let workers = self.jobs.min(cells.len());
        if workers <= 1 {
            work();
        } else {
            // Joining each handle (rather than letting the scope end)
            // waits for its OS thread to exit, not just for `work` to
            // return, so no worker outlives this call.
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
                for handle in handles {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("worker filled every slot"))
            .collect()
    }

    /// One cell's retry loop: each attempt fixes its own deadline, and the
    /// backoff before a retry is slept on the calling worker.
    fn run_cell_supervised(&self, cell: &Cell, policy: &SupervisionPolicy) -> CellOutcome {
        let mut retries = Vec::new();
        loop {
            let deadline = policy.timeout.and_then(Deadline::after);
            let err = match self.run_cell_attempt(cell, deadline) {
                Ok((report, faults)) => {
                    return CellOutcome {
                        report: Ok(report),
                        faults,
                        retries,
                        reassigned: 0,
                    }
                }
                Err(err) => err,
            };
            if !err.is_transient() || retries.len() as u32 >= policy.retries {
                return CellOutcome {
                    report: Err(err),
                    faults: FaultSummary::default(),
                    retries,
                    reassigned: 0,
                };
            }
            retries.push(err);
            std::thread::sleep(retry_backoff(cell.seed, retries.len() as u32));
        }
    }

    /// Runs the full `apps × configs × seeds` matrix and reshapes the
    /// reports per application (see [`AppMatrix`]). Cells are flattened
    /// app-major, then config, then seed, and the whole flat list is
    /// scheduled at once so parallelism spans applications.
    pub fn run_matrix(
        &self,
        apps: &[AppSpec],
        configs: &[SystemConfig],
        nodes: u16,
        seeds: &[u64],
    ) -> Result<Vec<AppMatrix>, CellError> {
        let cells: Vec<Cell> = apps
            .iter()
            .flat_map(|app| {
                configs.iter().flat_map(move |&config| {
                    seeds
                        .iter()
                        .map(move |&seed| Cell::new(app.clone(), nodes, seed, config))
                })
            })
            .collect();
        let mut reports = self.run_cells(&cells)?.into_iter();
        Ok(apps
            .iter()
            .map(|app| AppMatrix {
                app: app.clone(),
                configs: configs.to_vec(),
                seeds: seeds.to_vec(),
                reports: configs
                    .iter()
                    .map(|_| (&mut reports).take(seeds.len()).collect())
                    .collect(),
            })
            .collect())
    }

    /// Traces generated so far (one per distinct (app, nodes, seed)).
    pub fn trace_generations(&self) -> u64 {
        self.traces.fills()
    }

    /// Baseline simulations that completed and were cached so far (one per
    /// distinct triple — the exactly-once guarantee the caches exist for).
    pub fn baseline_runs(&self) -> u64 {
        self.baselines.fills()
    }

    /// Lookups served from a cache instead of recomputed, across both
    /// caches.
    pub fn cache_hits(&self) -> u64 {
        self.traces.hits() + self.baselines.hits()
    }
}

/// One application's slice of a [`Harness::run_matrix`] result.
#[derive(Debug, Clone)]
pub struct AppMatrix {
    /// The application.
    pub app: AppSpec,
    /// Configuration order of the `reports` rows.
    pub configs: Vec<SystemConfig>,
    /// Seed order of the `reports` columns.
    pub seeds: Vec<u64>,
    /// `reports[config][seed]`, in the order of `configs` and `seeds`.
    pub reports: Vec<Vec<RunReport>>,
}

impl AppMatrix {
    /// The reports of one configuration across all seeds.
    ///
    /// # Panics
    ///
    /// Panics if `config` was not part of the matrix.
    pub fn config_reports(&self, config: SystemConfig) -> &[RunReport] {
        let i = self
            .configs
            .iter()
            .position(|&c| c == config)
            .unwrap_or_else(|| panic!("{} not in the matrix", config.name()));
        &self.reports[i]
    }

    /// Mean/σ aggregation of every configuration across seeds, in the
    /// matrix's configuration order. Each seed's sample is normalized to
    /// the *same seed's* Baseline run.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not include Baseline (nothing to
    /// normalize against).
    pub fn aggregates(&self) -> Vec<AggregateReport> {
        let baselines = self.config_reports(SystemConfig::Baseline);
        self.configs
            .iter()
            .zip(&self.reports)
            .map(|(&config, row)| {
                let mut agg =
                    AggregateReport::new(self.app.name.clone(), config.name(), row[0].threads);
                for (report, baseline) in row.iter().zip(baselines) {
                    agg.push(report, baseline);
                }
                agg
            })
            .collect()
    }

    /// The per-seed reports flattened config-major — the exact layout the
    /// serial `run_config_matrix` loop produces for one seed.
    pub fn into_flat_reports(self) -> Vec<RunReport> {
        self.reports.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> AppSpec {
        AppSpec::by_name("FMM").unwrap()
    }

    fn supervised(
        harness: &Harness,
        cells: &[Cell],
        policy: &SupervisionPolicy,
    ) -> Vec<CellOutcome> {
        harness.run_cells_supervised_with(cells, policy, |_, _| {})
    }

    fn report(harness: &Harness, cell: &Cell) -> RunReport {
        harness.try_run_cell_faulted(cell).unwrap().0
    }

    #[test]
    fn faulted_cells_bypass_the_baseline_cache() {
        let harness = Harness::serial();
        let plan = FaultPlan::by_name("storm", 9).unwrap();
        let cell = Cell::new(app(), 8, 1, SystemConfig::Baseline).with_faults(plan);
        let (faulted, summary) = harness.try_run_cell_faulted(&cell).unwrap();
        assert!(summary.injected() > 0, "storm plan injects faults");
        assert_eq!(
            harness.baseline_runs(),
            0,
            "a faulted Baseline cell must not populate the fault-free cache"
        );
        // The clean cell afterwards runs (and caches) the real Baseline,
        // and differs from the faulted run.
        let clean = report(&harness, &Cell::new(app(), 8, 1, SystemConfig::Baseline));
        assert_eq!(harness.baseline_runs(), 1);
        assert!(faulted.wall_time >= clean.wall_time);
    }

    #[test]
    fn disabled_plan_takes_the_clean_cached_path() {
        let harness = Harness::serial();
        let clean = report(&harness, &Cell::new(app(), 8, 1, SystemConfig::Baseline));
        let cell = Cell::new(app(), 8, 1, SystemConfig::Baseline).with_faults(FaultPlan::none());
        let (faulted, summary) = harness.try_run_cell_faulted(&cell).unwrap();
        assert_eq!(summary, FaultSummary::default());
        assert_eq!(faulted.wall_time, clean.wall_time);
        assert_eq!(
            harness.baseline_runs(),
            1,
            "the disabled-plan cell is served from the cache"
        );
    }

    #[test]
    fn panicking_cell_is_isolated_and_reported() {
        let harness = Harness::new(2);
        // nodes = 3 is rejected deep inside the machine model (the
        // hypercube needs a power of two) — an organic panic.
        let cells = vec![
            Cell::new(app(), 8, 1, SystemConfig::Thrifty),
            Cell::new(app(), 3, 1, SystemConfig::Thrifty),
            Cell::new(app(), 8, 2, SystemConfig::Thrifty),
        ];
        let outcomes = supervised(&harness, &cells, &SupervisionPolicy::default());
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].report.is_ok());
        assert!(outcomes[2].report.is_ok());
        assert!(outcomes[1].is_failed());
        let err = outcomes[1].report.as_ref().unwrap_err();
        let CellError::Panic(msg) = err else {
            panic!("expected a panic error, got {err}");
        };
        assert!(msg.contains("power of two"), "panic message kept: {msg}");
        assert_eq!(err.kind(), "panic");
        assert!(err.is_transient());
        // The typed error round-trips through the journal encoding.
        let back: CellError = serde::json::from_str(&serde::json::to_string(err)).unwrap();
        assert_eq!(&back, err);
        // The caches survive the panic: later cells still run normally.
        let after = report(&harness, &Cell::new(app(), 8, 1, SystemConfig::Baseline));
        assert_eq!(after.config, "Baseline");
    }

    #[test]
    fn retry_history_records_each_attempt() {
        let harness = Harness::serial();
        let policy = SupervisionPolicy::default().with_retries(2);
        // Deterministic panic: every retry fails the same way, exhausting
        // the budget.
        let cells = vec![Cell::new(app(), 3, 1, SystemConfig::Thrifty)];
        let outcomes = supervised(&harness, &cells, &policy);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_failed());
        assert_eq!(outcomes[0].attempts(), 3, "1 attempt + 2 retries");
        assert_eq!(outcomes[0].retries.len(), 2);
        for err in &outcomes[0].retries {
            assert!(matches!(err, CellError::Panic(_)));
        }
    }

    #[test]
    fn deadline_times_out_slow_cells() {
        let harness = Harness::new(2);
        // Ocean at 64 nodes takes far longer than 1 ms: the simulator
        // stops at the deadline and the cell reports a timeout.
        let cells = vec![Cell::new(
            AppSpec::by_name("Ocean").unwrap(),
            64,
            1,
            SystemConfig::Baseline,
        )];
        let policy = SupervisionPolicy::default().with_timeout(Some(Duration::from_millis(1)));
        let outcomes = supervised(&harness, &cells, &policy);
        assert_eq!(outcomes.len(), 1);
        let err = outcomes[0].report.as_ref().unwrap_err();
        assert_eq!(err, &CellError::Timeout { limit_ms: 1 });
        assert!(err.is_transient());
        assert_eq!(format!("{err}"), "timeout after 1 ms");
    }

    #[test]
    fn deadline_completes_fast_cells_and_retries_slow_ones() {
        let harness = Harness::new(2);
        let cells = vec![Cell::new(
            AppSpec::by_name("Ocean").unwrap(),
            64,
            2,
            SystemConfig::Baseline,
        )];
        let policy = SupervisionPolicy::default()
            .with_retries(1)
            .with_timeout(Some(Duration::from_millis(1)));
        let outcomes = supervised(&harness, &cells, &policy);
        assert_eq!(outcomes[0].attempts(), 2, "one timeout retry was burned");
        assert_eq!(
            outcomes[0].retries,
            vec![CellError::Timeout { limit_ms: 1 }]
        );
        assert!(outcomes[0].is_failed(), "the retry times out as well");

        // A roomy deadline lets a normal matrix complete with no retries,
        // identical to the plain path.
        let roomy = SupervisionPolicy::default().with_timeout(Some(Duration::from_secs(600)));
        let cells: Vec<Cell> = SystemConfig::ALL
            .into_iter()
            .map(|c| Cell::new(app(), 8, 1, c))
            .collect();
        let timed = supervised(&harness, &cells, &roomy);
        let plain = harness.run_cells(&cells).unwrap();
        for (outcome, report) in timed.iter().zip(&plain) {
            assert_eq!(outcome.attempts(), 1);
            assert_eq!(outcome.faults, FaultSummary::default());
            assert_eq!(outcome.report.as_ref().unwrap().wall_time, report.wall_time);
        }
    }

    #[test]
    fn timed_out_baseline_fill_leaves_the_cache_empty() {
        let harness = Harness::serial();
        let cell = Cell::new(app(), 8, 1, SystemConfig::OracleHalt);
        // A deadline that has already passed stops the Baseline fill the
        // oracle configuration needs before it simulates anything.
        let err = harness
            .run_cell_within(&cell, Deadline::after(Duration::ZERO))
            .unwrap_err();
        assert!(matches!(err, CellError::Timeout { .. }), "{err}");
        assert_eq!(harness.baseline_runs(), 0, "nothing was cached");
        // An untimed cell fills the key, exactly once.
        report(&harness, &cell);
        report(&harness, &Cell::new(app(), 8, 1, SystemConfig::Baseline));
        assert_eq!(harness.baseline_runs(), 1);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 1..=10u32 {
            let a = retry_backoff(42, attempt);
            let b = retry_backoff(42, attempt);
            assert_eq!(a, b, "same seed and attempt, same backoff");
            assert!(a >= Duration::from_millis(25), "attempt {attempt}: {a:?}");
            assert!(
                a <= Duration::from_millis(2_000),
                "attempt {attempt}: {a:?}"
            );
        }
        // Different seeds decorrelate the jitter.
        assert_ne!(retry_backoff(1, 1), retry_backoff(2, 1));
        // The nominal delay grows until the cap.
        assert!(retry_backoff(7, 6) > retry_backoff(7, 1));
    }
}

//! `perfbench-probe` — the library-side half of the sweep benchmark.
//!
//! ```text
//! perfbench-probe setup --nodes N --seed S --seeds K [--workers W --bin PATH] --reps R
//! perfbench-probe trace --nodes N --seed S --seeds K [--faults SCENARIO] --jobs J
//!                       [--retries R] [--timeout-ms MS] [--journal-dir DIR]
//!                       [--workers W --bin PATH] --spans FILE --reports FILE
//! ```
//!
//! `setup` times what a sweep must build before its first cell can run:
//! every trace the workload needs (`AppSpec::generate`) and, for a fleet,
//! the worker processes up to their first `Ready` frame. It prints one
//! JSON object with the time of each repetition.
//!
//! `trace` replays the workload's cells, in sweep order, through the
//! public entry point of each layer and records a span around every call:
//! name, start, end, parent, and the cell it belongs to. Spans stay in
//! memory and are written to `--spans` as JSON lines when the replay ends;
//! the flat reports go to `--reports` in the exact form `sweep --json`
//! prints, and the replay's exact counters go to stdout as one JSON line.
//! `run.py` turns the spans into per-layer self times and percentiles.

use serde::json;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::{BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use tb_core::{FaultPlan, SystemConfig};
use tb_faults::FaultSummary;
use tb_machine::{
    AppMatrix, Cell, CellKey, CellOutcome, Harness, RunReport, StoredOutcome, SupervisionPolicy,
    SweepJournal,
};
use tb_serve::proto::{
    read_frame, send_from_worker, send_to_worker, Assignment, FromWorker, HelloInfo, ToWorker,
};
use tb_serve::FleetConfig;
use tb_workloads::AppSpec;

/// One workload's sweep arguments, as `run.py` passes them.
struct Workload {
    nodes: u16,
    seed: u64,
    seeds: u64,
    faults: Option<String>,
    jobs: usize,
    retries: u32,
    timeout_ms: Option<u64>,
    workers: usize,
    bin: Option<String>,
}

impl Workload {
    fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds).map(|i| self.seed.wrapping_add(i)).collect()
    }

    /// The sweep's cells, app-major, then configuration, then seed — the
    /// order `sweep` schedules and journals them in.
    fn cells(&self) -> Result<Vec<Cell>, String> {
        let mut cells = Vec::new();
        for app in AppSpec::splash2() {
            for config in SystemConfig::ALL {
                for seed in self.seed_list() {
                    let mut cell = Cell::new(app.clone(), self.nodes, seed, config);
                    if let Some(name) = &self.faults {
                        let plan = FaultPlan::by_name(name, seed)
                            .ok_or_else(|| format!("unknown fault scenario {name:?}"))?;
                        cell = cell.with_faults(plan);
                    }
                    cells.push(cell);
                }
            }
        }
        Ok(cells)
    }

    fn policy(&self) -> SupervisionPolicy {
        SupervisionPolicy::default()
            .with_retries(self.retries)
            .with_timeout(self.timeout_ms.map(Duration::from_millis))
    }

    fn bin(&self) -> Result<&str, String> {
        self.bin
            .as_deref()
            .ok_or_else(|| "--workers needs --bin, the thrifty-barrier binary".to_string())
    }
}

/// One recorded call.
struct Span {
    parent: Option<usize>,
    name: &'static str,
    cell: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder. Spans nest: `enter` makes the innermost open
/// span the new span's parent.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str, cell: Option<usize>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            cell,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    fn write(&self, path: &str) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"cell\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                opt(s.parent),
                s.name,
                opt(s.cell),
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))
    }
}

/// The span that times one configuration's simulation.
fn sim_span(config: SystemConfig) -> &'static str {
    match config {
        SystemConfig::Baseline => "sim.Baseline",
        SystemConfig::ThriftyHalt => "sim.ThriftyHalt",
        SystemConfig::OracleHalt => "sim.OracleHalt",
        SystemConfig::Thrifty => "sim.Thrifty",
        SystemConfig::Ideal => "sim.Ideal",
    }
}

/// A spawned `thrifty-barrier __worker` and its pipes. Dropping it kills
/// and reaps the process, so no error path leaves a worker behind.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    /// Spawns a worker and sends its `Hello`.
    fn spawn(bin: &str, id: u64, w: &Workload) -> Result<Worker, String> {
        let mut child = Command::new(bin)
            .arg("__worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {bin} __worker: {e}"))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker pipes missing".to_string());
        };
        let mut worker = Worker {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        };
        let hello = ToWorker::Hello {
            info: HelloInfo {
                worker: id,
                retries: w.retries,
                timeout_ms: w.timeout_ms.unwrap_or(0),
                heartbeat_ms: FleetConfig::default().heartbeat_ms,
            },
        };
        send_to_worker(&mut worker.stdin, &hello).map_err(|e| format!("sending Hello: {e}"))?;
        Ok(worker)
    }

    /// The next frame that is not a heartbeat.
    fn next_frame(&mut self) -> Result<FromWorker, String> {
        loop {
            let text = read_frame(&mut self.stdout)
                .map_err(|e| format!("reading worker frame: {e}"))?
                .ok_or("worker closed its stdout")?;
            let msg: FromWorker =
                json::from_str(&text).map_err(|e| format!("bad worker frame: {e:?}"))?;
            if !matches!(msg, FromWorker::Heartbeat { .. }) {
                return Ok(msg);
            }
        }
    }

    fn await_ready(&mut self) -> Result<(), String> {
        match self.next_frame()? {
            FromWorker::Ready { .. } => Ok(()),
            _ => Err("worker answered Hello with something other than Ready".to_string()),
        }
    }

    /// Sends `Shutdown` and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let bye = ToWorker::Shutdown {
            reason: "replay complete".to_string(),
        };
        send_to_worker(&mut self.stdin, &bye).map_err(|e| format!("sending Shutdown: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for worker: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("worker exited with {status}"))
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Times the workload's set-up `reps` times.
fn cmd_setup(w: &Workload, reps: usize) -> Result<(), String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        let mut workers = (0..w.workers)
            .map(|id| Worker::spawn(w.bin()?, id as u64, w))
            .collect::<Result<Vec<_>, _>>()?;
        for worker in &mut workers {
            worker.await_ready()?;
        }
        for app in AppSpec::splash2() {
            for seed in w.seed_list() {
                black_box(app.generate(w.nodes as usize, seed));
            }
        }
        times.push(start.elapsed().as_secs_f64());
        for worker in workers {
            worker.shutdown()?;
        }
    }
    let times: Vec<String> = times.iter().map(|t| format!("{t:.9}")).collect();
    println!("{{\"setup_s\":[{}]}}", times.join(","));
    Ok(())
}

/// Serializes an outcome the way the journal and the wire both do.
fn stored(outcome: &CellOutcome) -> String {
    json::to_string(&StoredOutcome::from_outcome(outcome))
}

/// The traced replay. See the crate docs for what each pass records.
fn cmd_trace(w: &Workload, args: &HashMap<String, String>) -> Result<(), String> {
    let spans_path = args.get("spans").ok_or("trace needs --spans FILE")?;
    let reports_path = args.get("reports").ok_or("trace needs --reports FILE")?;
    let cells = w.cells()?;
    let mut tr = Tracer::new();
    let mut counters: Vec<(&str, u64)> = Vec::new();

    // Pass 1, the serial replay: each cell fetches its trace and Baseline
    // bundle in spans of their own the first time they are needed, then
    // runs. The Baseline and oracle cells of a clean sweep are cache hits.
    let harness = Harness::serial();
    let mut fetched: HashSet<(String, u64)> = HashSet::new();
    let mut based: HashSet<(String, u64)> = HashSet::new();
    let mut outcomes: Vec<CellOutcome> = Vec::with_capacity(cells.len());
    let replay = tr.enter("probe.replay", None);
    for (i, cell) in cells.iter().enumerate() {
        let span = tr.enter("harness.cell", Some(i));
        let key = (cell.app.name.clone(), cell.seed);
        if !fetched.contains(&key) {
            let s = tr.enter("workloads.generate", Some(i));
            black_box(harness.trace(&cell.app, cell.nodes, cell.seed));
            tr.exit(s);
            fetched.insert(key.clone());
        }
        let faulted = cell.faults.as_ref().is_some_and(FaultPlan::enabled);
        let cached_baseline = !faulted && cell.config == SystemConfig::Baseline;
        if (cached_baseline || cell.config.needs_oracle()) && !based.contains(&key) {
            let s = tr.enter("harness.baseline", Some(i));
            black_box(harness.baseline(&cell.app, cell.nodes, cell.seed));
            tr.exit(s);
            based.insert(key);
        }
        let name = if cached_baseline {
            "harness.hit"
        } else {
            sim_span(cell.config)
        };
        let s = tr.enter(name, Some(i));
        let result = harness.try_run_cell_faulted(cell);
        tr.exit(s);
        tr.exit(span);
        let (report, faults) = result.map_err(|d| {
            format!(
                "{}/{} seed {} livelocked: {d}",
                cell.app.name,
                cell.config.name(),
                cell.seed
            )
        })?;
        outcomes.push(CellOutcome {
            report: Ok(report),
            faults,
            retries: Vec::new(),
            reassigned: 0,
        });
    }
    let reports: Vec<&RunReport> = outcomes
        .iter()
        .map(|o| o.report.as_ref().expect("replayed cells all succeeded"))
        .collect();

    // The report layer: per-app aggregates and the flat-report JSON that
    // `sweep --json` prints for a clean sweep.
    let render = tr.enter("report.render", None);
    let per_app = SystemConfig::ALL.len() * w.seed_list().len();
    let mut flat: Vec<RunReport> = Vec::with_capacity(reports.len());
    for (a, app) in AppSpec::splash2().into_iter().enumerate() {
        let rows = &reports[a * per_app..(a + 1) * per_app];
        let matrix = AppMatrix {
            app,
            configs: SystemConfig::ALL.to_vec(),
            seeds: w.seed_list(),
            reports: rows
                .chunks(w.seed_list().len())
                .map(|seeds| seeds.iter().map(|&r| r.clone()).collect())
                .collect(),
        };
        black_box(matrix.aggregates());
        flat.extend(matrix.into_flat_reports());
    }
    let json_text = json::to_string(&flat);
    tr.exit(render);
    tr.exit(replay);
    std::fs::write(reports_path, format!("{json_text}\n"))
        .map_err(|e| format!("writing {reports_path}: {e}"))?;
    counters.push(("json_bytes", json_text.len() as u64));
    let mut faults = FaultSummary::default();
    for outcome in &outcomes {
        faults.merge(&outcome.faults);
    }
    counters.extend([
        ("episodes", reports.iter().map(|r| r.counts.episodes).sum()),
        (
            "flushed_lines",
            reports.iter().map(|r| r.counts.flushed_lines).sum(),
        ),
        ("faults_injected", faults.injected()),
        ("guard_recoveries", faults.guard_recoveries),
        ("quarantine_entries", faults.quarantine_entries),
    ]);

    // Pass 2, the scheduler: the same cells through the supervised pool at
    // the workload's parallelism, on a fresh harness whose cache counters
    // are therefore the sweep's own (pass 1's prefetches add lookups). A
    // fleet's workers each run such a pool serially.
    let fresh = Harness::new(w.jobs);
    let s = tr.enter("harness.run_cells", None);
    let scheduled = fresh.run_cells_supervised_with(&cells, &w.policy(), |_, _| {});
    tr.exit(s);
    for (i, (a, b)) in outcomes.iter().zip(&scheduled).enumerate() {
        if stored(a) != stored(b) {
            return Err(format!("cell {i}: scheduled outcome differs from replay"));
        }
    }
    counters.push(("jobs", fresh.jobs() as u64));
    counters.push(("trace_generations", fresh.trace_generations()));
    counters.push(("baseline_runs", fresh.baseline_runs()));
    counters.push(("cache_hits", fresh.cache_hits()));

    // Pass 3, the journal: append every outcome, fsync included, to a
    // fresh journal in the sweep's own format.
    if let Some(dir) = args.get("journal-dir") {
        let path = format!("{dir}/probe-journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let params = format!(
            "sweep nodes={} seed={} seeds={} faults={}",
            w.nodes,
            w.seed,
            w.seeds,
            w.faults.as_deref().unwrap_or("-")
        );
        let mut journal =
            SweepJournal::create(&path, &params).map_err(|e| format!("journal create: {e}"))?;
        let header = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        for (i, (cell, outcome)) in cells.iter().zip(&outcomes).enumerate() {
            let s = tr.enter("journal.append", Some(i));
            journal
                .append(&CellKey::of(cell), outcome)
                .map_err(|e| format!("journal append: {e}"))?;
            tr.exit(s);
        }
        drop(journal);
        let total = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        std::fs::remove_file(&path).map_err(|e| format!("removing {path}: {e}"))?;
        counters.push(("journal_bytes", total - header));
    }

    // Pass 4, the fleet protocol: spawn the workers to Ready, encode and
    // decode every Done frame in process, then lease every cell, in order,
    // to one worker and time each Assign→Done round trip.
    if w.workers > 0 {
        let mut workers = Vec::with_capacity(w.workers);
        for id in 0..w.workers {
            let s = tr.enter("serve.spawn", None);
            let mut worker = Worker::spawn(w.bin()?, id as u64, w)?;
            worker.await_ready()?;
            tr.exit(s);
            workers.push(worker);
        }
        let mut frame_bytes = 0u64;
        for (i, outcome) in outcomes.iter().enumerate() {
            let s = tr.enter("serve.encode", Some(i));
            let done = FromWorker::Done {
                worker: 0,
                lease: i as u64 + 1,
                cell: i as u64,
                outcome: StoredOutcome::from_outcome(outcome),
            };
            let mut buf = Vec::new();
            send_from_worker(&mut buf, &done).map_err(|e| e.to_string())?;
            tr.exit(s);
            let s = tr.enter("serve.decode", Some(i));
            let text = read_frame(&mut &buf[..])
                .map_err(|e| e.to_string())?
                .ok_or("empty frame")?;
            let back: FromWorker = json::from_str(&text).map_err(|e| format!("{e:?}"))?;
            tr.exit(s);
            black_box(back);
            frame_bytes += buf.len() as u64;
        }
        counters.push(("frame_bytes", frame_bytes));
        let worker = &mut workers[0];
        for (i, cell) in cells.iter().enumerate() {
            let s = tr.enter("serve.lease", Some(i));
            let assign = ToWorker::Assign {
                work: Assignment {
                    lease: i as u64 + 1,
                    cell: i as u64,
                    key: CellKey::of(cell),
                },
            };
            send_to_worker(&mut worker.stdin, &assign).map_err(|e| e.to_string())?;
            let reply = worker.next_frame()?;
            tr.exit(s);
            match reply {
                FromWorker::Done { lease, outcome, .. } if lease == i as u64 + 1 => {
                    if json::to_string(&outcome) != stored(&outcomes[i]) {
                        return Err(format!("cell {i}: worker outcome differs from replay"));
                    }
                }
                _ => return Err(format!("cell {i}: worker did not answer with its Done")),
            }
        }
        for worker in workers {
            worker.shutdown()?;
        }
    }

    tr.write(spans_path)?;
    let body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{{}}}", body.join(","));
    std::io::stdout().flush().map_err(|e| e.to_string())
}

fn parse_args(argv: &[String]) -> Result<HashMap<String, String>, String> {
    let mut args = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        args.insert(key.to_string(), value.clone());
    }
    Ok(args)
}

fn num<T: std::str::FromStr>(
    args: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    args.get(key)
        .map(|v| v.parse().map_err(|_| format!("bad --{key} {v:?}")))
        .transpose()
}

fn workload(args: &HashMap<String, String>) -> Result<Workload, String> {
    Ok(Workload {
        nodes: num(args, "nodes")?.ok_or("--nodes is required")?,
        seed: num(args, "seed")?.ok_or("--seed is required")?,
        seeds: num(args, "seeds")?.ok_or("--seeds is required")?,
        faults: args.get("faults").cloned(),
        jobs: num(args, "jobs")?.unwrap_or(1),
        retries: num(args, "retries")?.unwrap_or(0),
        timeout_ms: num(args, "timeout-ms")?,
        workers: num(args, "workers")?.unwrap_or(0),
        bin: args.get("bin").cloned(),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.split_first() {
        Some((cmd, rest)) => parse_args(rest).and_then(|args| {
            let w = workload(&args)?;
            match cmd.as_str() {
                "setup" => cmd_setup(&w, num(&args, "reps")?.unwrap_or(1)),
                "trace" => cmd_trace(&w, &args),
                other => Err(format!("unknown command {other:?}")),
            }
        }),
        None => Err("usage: perfbench-probe setup|trace --nodes N --seed S --seeds K ...".into()),
    };
    if let Err(e) = result {
        eprintln!("perfbench-probe: {e}");
        std::process::exit(1);
    }
}

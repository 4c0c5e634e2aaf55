"""Pure logic of the sweep benchmark: workloads, output checks, span
arithmetic and the per-layer metrics. `run.py` does the process work;
everything here is a function of its arguments, so it is unit-tested in
`tests/test_benchlib.py`."""

import json
import math
import re
import statistics
from fractions import Fraction

PAPER_SEED = 0x7B41

# Each workload is one `thrifty-barrier sweep` invocation, short (about
# 0.4-0.7 s on 2 vCPUs) so that one run times dozens of them and its
# fastest is a repeatable figure on a host whose speed changes every few
# seconds. The traced replay pools its timing samples across the run's
# replays, so even a 50-cell workload reports a true p95. `ref_args`
# replaces the measured mode's execution flags with the mode whose output
# is the reference: the in-process serial loop for storm64 and fleet8, and
# a two-thread pool for paper64, whose measured mode is already serial.
WORKLOADS = {
    "paper64": {
        "why": "the paper's 64-node machine and sweep on a serial loop: the "
        "simulator and Thrifty's flush/refill dominate; no journal, no IPC",
        "nodes": 64,
        "seeds": 1,
        "faults": None,
        "jobs": 1,
        "retries": 0,
        "timeout_ms": None,
        "workers": 0,
        "journal": False,
        "run_args": ["--jobs", "1"],
        "ref_args": ["--jobs", "2"],
    },
    "storm64": {
        "why": "64 nodes under the storm fault plan on the deadline "
        "supervisor's 2 threads: guard timers, uncached faulted Baselines, "
        "scheduler",
        "nodes": 64,
        "seeds": 1,
        "faults": "storm",
        "jobs": 2,
        "retries": 1,
        "timeout_ms": 60000,
        "workers": 0,
        "journal": False,
        "run_args": ["--faults", "storm", "--jobs", "2", "--retries", "1",
                     "--timeout-ms", "60000"],
        "ref_args": ["--faults", "storm", "--jobs", "1"],
    },
    "fleet8": {
        "why": "many small 8-node cells on 2 worker processes with a "
        "journal: fixed per-cell costs of fsync and frame IPC dominate",
        "nodes": 8,
        "seeds": 6,
        "faults": None,
        "jobs": 1,
        "retries": 0,
        "timeout_ms": None,
        "workers": 2,
        "journal": True,
        "run_args": ["--workers", "2"],
        "ref_args": ["--jobs", "1"],
    },
}

CONFIGS = 5
APPS = 10

END_TO_END = [
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("sim_mcycles_per_s", "Mcycles/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("ok_cell_ratio", "ratio", "higher", 0.01),
]

PER_LAYER = [
    ("workloads.trace_gen_s", "s", "lower"),
    ("workloads.traces", "count", "lower"),
    ("harness.baseline_s", "s", "lower"),
    ("harness.baseline_runs", "count", "lower"),
    ("harness.cache_hit_ratio", "ratio", "higher"),
    ("harness.cell_p50_ms", "ms", "lower"),
    ("harness.cell_p95_ms", "ms", "lower"),
    ("harness.cell_max_ms", "ms", "lower"),
    ("harness.cell_samples", "count", "higher"),
    ("harness.sched_overhead_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("sim.baseline_s", "s", "lower"),
    ("sim.thrifty_halt_s", "s", "lower"),
    ("sim.oracle_halt_s", "s", "lower"),
    ("sim.thrifty_s", "s", "lower"),
    ("sim.ideal_s", "s", "lower"),
    ("sim.flush_refill_s", "s", "lower"),
    ("sim.flushed_lines", "count", "lower"),
    ("sim.ns_per_flushed_line", "ns", "lower"),
    ("sim.episodes", "count", "higher"),
    ("sim.host_us_per_episode", "us", "lower"),
    ("faults.injected", "count", "higher"),
    ("faults.guard_recoveries", "count", "higher"),
    ("faults.quarantine_entries", "count", "lower"),
    ("journal.append_ms_p50", "ms", "lower"),
    ("journal.append_ms_p95", "ms", "lower"),
    ("journal.appends", "count", "higher"),
    ("journal.bytes_per_cell", "B", "lower"),
    ("serve.spawn_to_ready_ms", "ms", "lower"),
    ("serve.frame_rt_ms_p50", "ms", "lower"),
    ("serve.frame_bytes_per_cell", "B", "lower"),
    ("serve.lease_rt_ms_p50", "ms", "lower"),
    ("serve.leases", "count", "higher"),
    ("report.render_ms", "ms", "lower"),
    ("report.json_bytes", "B", "lower"),
    ("trace.replay_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
]

# Percentiles a distribution may be summarised by, lowest first.
PERCENTILES = (50, 90, 95, 99, 99.9)


def cells_of(workload):
    return APPS * CONFIGS * workload["seeds"]


def seed_list(workload, seed):
    return [(seed + i) % 2**64 for i in range(workload["seeds"])]


def sweep_args(workload, seed, mode_args):
    """`thrifty-barrier` arguments of one sweep of `workload`."""
    return (["sweep", "--nodes", str(workload["nodes"]), "--seed", str(seed),
             "--seeds", str(workload["seeds"])] + list(mode_args))


# ---------------------------------------------------------------- summaries

def rank(n, p):
    """1-based nearest rank of percentile `p` in `n` samples, computed
    exactly (99.9 is not a binary fraction)."""
    return max(1, math.ceil(n * Fraction(str(p)) / 100))


def reportable_percentile(n, wanted):
    """The highest percentile no higher than `wanted` that leaves at least
    ten of `n` samples beyond it, or None when even the median does not."""
    best = None
    for p in PERCENTILES:
        if p <= wanted and n - rank(n, p) >= 10:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    return sorted(values)[rank(len(values), p) - 1]


def tail(values, wanted):
    """`values` at the highest reportable percentile up to `wanted`, as
    (percentile, value); (None, max) when the sample is too small to
    have a reportable percentile."""
    p = reportable_percentile(len(values), wanted)
    if p is None:
        return None, max(values)
    return p, percentile(values, p)


# ------------------------------------------------------------------- checks

def check_stdout(actual, reference):
    """None when `actual` is byte-identical to `reference`, else a message
    naming the first differing byte."""
    if actual == reference:
        return None
    for i, (a, b) in enumerate(zip(actual, reference)):
        if a != b:
            return f"stdout differs from the reference at byte {i}"
    return (f"stdout is {len(actual)} bytes, the reference "
            f"{len(reference)}")


def check_journal(text, workload, seed):
    """None when the journal holds its header and exactly one record per
    cell of the sweep, else a message saying what is wrong."""
    lines = text.splitlines()
    if not lines:
        return "journal is empty"
    try:
        header = json.loads(lines[0])
    except ValueError:
        return "journal header is not JSON"
    if "magic" not in header:
        return "journal header has no magic"
    keys = []
    for n, line in enumerate(lines[1:], start=2):
        try:
            key = json.loads(line)["key"]
        except (ValueError, KeyError, TypeError):
            return f"journal line {n} is not a cell record"
        if not isinstance(key, dict) or key.get("nodes") != workload["nodes"] or \
                key.get("seed") not in seed_list(workload, seed):
            return f"journal line {n} holds a cell of another sweep"
        keys.append(json.dumps(key, sort_keys=True))
    want = cells_of(workload)
    if len(set(keys)) != len(keys):
        return "journal holds a cell twice"
    if len(keys) != want:
        return f"journal holds {len(keys)} records for {want} cells"
    return None


def fault_totals(reference_text):
    """(injected, recoveries, quarantines) from a fault sweep's totals
    line, or None when the text has none."""
    for line in reference_text.splitlines():
        if "faults injected," in line:
            words = line.replace(",", "").split()
            return (int(words[1]), int(words[4]), int(words[7]))
    return None


WALL_TIME = re.compile(
    rb'"wall_time":(?:(\d+)|\{"count":(\d+),"mean":([0-9.eE+-]+))')


def sim_cycles_from_json(data):
    """Simulated cycles summed over every cell of a `sweep --json` output
    (bytes): flat run reports for a clean sweep, aggregates (count, mean)
    for a fault sweep. Scanned, not parsed, so the interpreter stays small
    next to the sweeps it forks."""
    total = 0
    for cycles, count, mean in WALL_TIME.findall(data):
        total += int(cycles) if cycles else int(count) * float(mean)
    return total


# -------------------------------------------------------------------- spans

def load_spans(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def duration_ns(span):
    return span["end_ns"] - span["start_ns"]


def self_times(spans):
    """Each span's self time in ns: its duration minus the part of its
    interval that its children cover (overlapping children count once)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start_ns"])
        for c in kids:
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = duration_ns(s) - covered
    return out


def descendants(spans, root_id):
    """Ids of `root_id` and every span below it."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s["id"])
    found, stack = [], [root_id]
    while stack:
        i = stack.pop()
        found.append(i)
        stack.extend(children.get(i, []))
    return set(found)


def layer_of(name):
    """The layer a span's self time belongs to. `Harness::baseline`, on the
    miss the replay records, is a Baseline simulation plus deriving its
    oracle table, so its time is the simulator's."""
    if name == "harness.baseline":
        return "sim"
    return name.split(".")[0]


def layer_self_s(spans, root_id):
    """Self time per layer, in seconds, over the tree under `root_id`."""
    selfs = self_times(spans)
    keep = descendants(spans, root_id)
    out = {}
    for s in spans:
        if s["id"] in keep:
            layer = layer_of(s["name"])
            out[layer] = out.get(layer, 0) + selfs[s["id"]] / 1e9
    return out


SIM_METRIC = {
    "sim.Baseline": "sim.baseline_s",
    "sim.ThriftyHalt": "sim.thrifty_halt_s",
    "sim.OracleHalt": "sim.oracle_halt_s",
    "sim.Thrifty": "sim.thrifty_s",
    "sim.Ideal": "sim.ideal_s",
}


def replay_metrics(spans, counters, untraced_wall_s):
    """One traced replay: (metrics, samples). `metrics` holds every
    per-layer metric that is a sum or a count; `samples` holds the timings
    that `layer_metrics` pools across replays before taking percentiles.
    Layers the workload bypasses read 0, and their counts say so."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total_s(name):
        return sum(duration_ns(s) for s in by_name.get(name, [])) / 1e9

    def per_cell_ms(*names):
        acc = {}
        for name in names:
            for s in by_name.get(name, []):
                acc[s["cell"]] = acc.get(s["cell"], 0) + duration_ns(s) / 1e6
        return acc

    m = {}
    (replay,) = by_name["probe.replay"]
    layers = layer_self_s(spans, replay["id"])
    m["trace.replay_s"] = duration_ns(replay) / 1e9
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_ratio"] = m["trace.replay_s"] / untraced_wall_s - 1
    m["trace.unaccounted_s"] = layers.get("probe", 0)

    m["workloads.trace_gen_s"] = total_s("workloads.generate")
    m["workloads.traces"] = counters["trace_generations"]

    cells = per_cell_ms("harness.cell")
    lookups = counters["cache_hits"] + counters["trace_generations"] + \
        counters["baseline_runs"]
    m["harness.baseline_s"] = total_s("harness.baseline")
    m["harness.baseline_runs"] = counters["baseline_runs"]
    m["harness.cache_hit_ratio"] = counters["cache_hits"] / lookups
    m["harness.sched_overhead_s"] = (
        total_s("harness.run_cells") - sum(cells.values()) / 1e3 / counters["jobs"])
    m["harness.self_s"] = layers.get("harness", 0)

    for span, metric in SIM_METRIC.items():
        m[metric] = total_s(span)
    m["sim.baseline_s"] += m["harness.baseline_s"]
    m["sim.flush_refill_s"] = m["sim.thrifty_s"] - m["sim.thrifty_halt_s"]
    m["sim.flushed_lines"] = counters["flushed_lines"]
    m["sim.ns_per_flushed_line"] = (
        m["sim.flush_refill_s"] * 1e9 / counters["flushed_lines"]
        if counters["flushed_lines"] else 0)
    m["sim.episodes"] = counters["episodes"]
    m["sim.host_us_per_episode"] = (
        layers.get("sim", 0) * 1e6 / counters["episodes"])

    m["faults.injected"] = counters["faults_injected"]
    m["faults.guard_recoveries"] = counters["guard_recoveries"]
    m["faults.quarantine_entries"] = counters["quarantine_entries"]

    appends = [duration_ns(s) / 1e6 for s in by_name.get("journal.append", [])]
    m["journal.bytes_per_cell"] = (
        counters["journal_bytes"] / len(appends) if appends else 0)
    frames = per_cell_ms("serve.encode", "serve.decode")
    m["serve.frame_bytes_per_cell"] = (
        counters["frame_bytes"] / len(frames) if frames else 0)
    leases = per_cell_ms("serve.lease")

    m["report.render_ms"] = total_s("report.render") * 1e3
    m["report.json_bytes"] = counters["json_bytes"]

    samples = {
        "cell_ms": list(cells.values()),
        "append_ms": appends,
        "frame_ms": list(frames.values()),
        "lease_ms": [leases[c] - cells[c] for c in leases],
        "spawn_ms": [duration_ns(s) / 1e6 for s in by_name.get("serve.spawn", [])],
    }
    return m, samples


def layer_metrics(replays):
    """Every per-layer metric of a run, from its `replay_metrics` results:
    each sum or count is the median over the replays, and each percentile
    is taken over the samples of all replays pooled, so that a workload
    with few cells still has enough samples beyond its p95."""
    m = {n: statistics.median([r[0][n] for r in replays]) for n in replays[0][0]}
    pooled = {k: [x for r in replays for x in r[1][k]] for k in replays[0][1]}

    def p50(values):
        return percentile(values, 50) if values else 0

    cells = pooled["cell_ms"]
    m["harness.cell_p50_ms"] = p50(cells)
    m["harness.cell_p95_ms"] = tail(cells, 95)[1]
    m["harness.cell_max_ms"] = max(cells)
    m["harness.cell_samples"] = len(cells)
    appends = pooled["append_ms"]
    m["journal.append_ms_p50"] = p50(appends)
    m["journal.append_ms_p95"] = tail(appends, 95)[1] if appends else 0
    m["journal.appends"] = len(appends)
    m["serve.frame_rt_ms_p50"] = p50(pooled["frame_ms"])
    m["serve.lease_rt_ms_p50"] = p50(pooled["lease_ms"])
    m["serve.leases"] = len(pooled["lease_ms"])
    spawns = pooled["spawn_ms"]
    m["serve.spawn_to_ready_ms"] = statistics.median(spawns) if spawns else 0
    return {n: m[n] for n, _, _ in PER_LAYER}

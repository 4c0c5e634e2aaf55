#!/usr/bin/env python3
"""Sweep benchmark for `thrifty-barrier`.

    python3 perfbench/run.py --workload paper64|storm64|fleet8 \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. It builds the `thrifty-barrier`
binary and the `perfbench-probe` replay tool with cargo (into
$CARGO_TARGET_DIR, default `.bench_build`), then:

  --trace 0  runs the workload's sweep through the binary, again and again
             for S seconds, checks every run's stdout (and fleet8's
             journal), and reports the end-to-end metrics as medians;
  --trace 1  replays the workload's cells through the library with a span
             around every layer call and reports the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The line before it is the host fingerprint. Every result is also
appended, with its fingerprint, to <target>/perfbench/results.jsonl.
See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import benchlib as bl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_LIMIT_S = 150  # stop starting new sweeps after this; the run must end by 180 s
SWEEP_LIMIT_S = 60  # one sweep; the slowest workload takes about 3 s
SETUP_REPS = 15
BUILD_LIMIT_S = 850  # both cold builds; a checkout's first run may take 900 s


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def work_dir(*parts):
    path = os.path.join(target_dir(), "perfbench", *parts)
    os.makedirs(path, exist_ok=True)
    return path


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build():
    """Builds both programs; returns (thrifty-barrier, perfbench-probe)."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError("no Cargo.toml here: run from the root of a checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--bin", "thrifty-barrier"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, check=False,
                              timeout=max(1, deadline - time.monotonic()))
        if done.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed ({done.returncode})")
    release = os.path.join(target_dir(), "release")
    return (os.path.join(release, "thrifty-barrier"),
            os.path.join(release, "perfbench-probe"))


class Launcher:
    """The small process that forks every measured sweep (see launch.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(HERE, "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, out_path, limit_s=SWEEP_LIMIT_S):
        """Runs `argv` with stdout to `out_path`. Returns (exit code, wall s,
        cpu s, peak RSS KiB). CPU and RSS come from wait4, so they cover the
        process and every descendant it reaped, and nothing else."""
        req = {"argv": argv, "cwd": ROOT, "out": out_path, "limit_s": limit_s}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher died")
        reply = json.loads(line)
        return reply["code"], reply["wall_s"], reply["cpu_s"], reply["rss_kib"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def capture(argv, limit_s=SWEEP_LIMIT_S):
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=limit_s, check=False)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])}... exited {done.returncode}")
    return done.stdout


def write_atomic(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


class Run:
    """One benchmark run: the built programs, the workload and its seed."""

    def __init__(self, binary, probe, launcher, name, seed, seconds):
        self.binary, self.probe, self.launcher = binary, probe, launcher
        self.name, self.workload, self.seed = name, bl.WORKLOADS[name], seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.window_end = self.started
        self.samples = {}

    def keep_going(self, done):
        """Whether to start another timed repetition after `done` of them."""
        now = time.monotonic()
        return not done or (now - self.started < RUN_LIMIT_S
                            and now < self.window_end)

    def open_window(self):
        self.window_end = time.monotonic() + self.seconds

    def references(self):
        """The reference stdout and `--json` output at the run's seed, from
        the reference mode of the same binary (cached per binary digest and
        sweep arguments).
        Checks, once per binary, that the reference mode still prints the
        committed reference at the paper seed. Returns (text, json,
        problem)."""
        cache = work_dir("cache", sha256_file(self.binary)[:16])

        def output(seed, extra):
            args = bl.sweep_args(self.workload, seed, self.workload["ref_args"]) + extra
            key = hashlib.sha256(" ".join(args).encode()).hexdigest()[:16]
            path = os.path.join(cache, f"{self.name}-{key}")
            if not os.path.exists(path):
                write_atomic(path, capture([self.binary] + args))
            with open(path, "rb") as f:
                return f.read()

        with open(os.path.join(HERE, "refs", f"{self.name}.txt"), "rb") as f:
            committed = f.read()
        problem = bl.check_stdout(output(bl.PAPER_SEED, []), committed)
        if problem:
            problem = f"committed reference refs/{self.name}.txt: {problem}"
        return output(self.seed, []), output(self.seed, ["--json"]), problem

    def sweep(self, reference):
        """One timed sweep: (wall s, cpu s, rss KiB, problem or None)."""
        tmp = work_dir("tmp")
        args = list(self.workload["run_args"])
        journal = None
        if self.workload["journal"]:
            journal = os.path.join(tmp, f"{self.name}.journal.jsonl")
            if os.path.exists(journal):
                os.remove(journal)
            args += ["--journal", journal]
        out = os.path.join(tmp, f"{self.name}.stdout")
        code, wall, cpu, rss = self.launcher.run(
            [self.binary] + bl.sweep_args(self.workload, self.seed, args), out)
        with open(out, "rb") as f:
            problem = bl.check_stdout(f.read(), reference)
        if code != 0:
            problem = f"sweep exited {code}"
        if journal:
            if os.path.exists(journal):
                with open(journal, encoding="utf-8", errors="replace") as f:
                    text = f.read()
                problem = problem or bl.check_journal(text, self.workload, self.seed)
                os.remove(journal)
            else:
                problem = problem or "sweep left no journal"
        return wall, cpu, rss, problem

    def probe_args(self):
        w = self.workload
        args = ["--nodes", str(w["nodes"]), "--seed", str(self.seed),
                "--seeds", str(w["seeds"]), "--jobs", str(w["jobs"]),
                "--retries", str(w["retries"])]
        if w["faults"]:
            args += ["--faults", w["faults"]]
        if w["timeout_ms"]:
            args += ["--timeout-ms", str(w["timeout_ms"])]
        if w["workers"]:
            args += ["--workers", str(w["workers"]), "--bin", self.binary]
        return args

    def end_to_end(self):
        reference, ref_json, problem = self.references()
        sim_mcycles = bl.sim_cycles_from_json(ref_json) / 1e6
        out = capture([self.probe, "setup", "--reps", str(SETUP_REPS)]
                      + self.probe_args())
        setup = json.loads(out.decode().splitlines()[-1])["setup_s"]
        runs = []
        self.open_window()
        while self.keep_going(len(runs)):
            runs.append(self.sweep(reference))
        cells = bl.cells_of(self.workload)
        attempted = cells * len(runs)
        # A binary that no longer prints the committed reference fails
        # every sweep, whatever the seed.
        failed = cells * sum(1 for r in runs if r[3] or problem)
        problem = problem or next((r[3] for r in runs if r[3]), None)
        walls = [r[0] for r in runs]
        cpus = [r[1] for r in runs]
        rss_mb = [r[2] / 1024 for r in runs]
        self.samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss_mb,
                        "setup_s": setup}
        # Times are the best of the run's sweeps, not their median: the
        # shared host alternates, every few seconds, between two speeds
        # about 1.7x apart, so a run's median jumps with the share of its
        # sweeps that hit the slow state, while its fastest sweep repeats.
        metrics = {
            "wall_s": min(walls),
            "sim_mcycles_per_s": sim_mcycles / min(walls),
            "cpu_s": min(cpus),
            "peak_rss_mb": statistics.median(rss_mb),
            "setup_s": statistics.median(setup),
            "ok_cell_ratio": (attempted - failed) / attempted,
        }
        units = {n: u for n, u, _, _ in bl.END_TO_END}
        log(f"{self.name} seed {self.seed}: {len(runs)} timed sweeps")
        return problem, attempted, failed, metrics, units

    def per_layer(self):
        reference, ref_json, problem = self.references()
        tmp = work_dir("tmp")
        spans_path = os.path.join(tmp, f"{self.name}.spans.jsonl")
        reports_path = os.path.join(tmp, f"{self.name}.reports.json")
        args = self.probe_args() + ["--spans", spans_path, "--reports", reports_path]
        if self.workload["journal"]:
            args += ["--journal-dir", tmp]
        expected_faults = bl.fault_totals(reference.decode())
        replays, counters = [], None
        self.open_window()
        while self.keep_going(len(replays)):
            # An untraced sweep next to each replay, so both see the same
            # phase of the host when the tracing overhead is computed.
            untraced_wall, _, _, sweep_problem = self.sweep(reference)
            problem = problem or sweep_problem
            out = capture([self.probe, "trace"] + args, limit_s=120)
            got = json.loads(out.decode().splitlines()[-1])
            if counters is not None and got != counters:
                problem = problem or "replay counters differ between replays"
            counters = got
            with open(reports_path, "rb") as f:
                reports = f.read()
            if expected_faults is None and reports != ref_json:
                problem = problem or "replayed reports differ from sweep --json"
            tallies = (got["faults_injected"], got["guard_recoveries"],
                       got["quarantine_entries"])
            if expected_faults is not None and expected_faults != tallies:
                problem = problem or "replayed fault tallies differ from the sweep"
            with open(spans_path, encoding="utf-8") as f:
                spans = bl.load_spans(f.read())
            replays.append(bl.replay_metrics(spans, counters, untraced_wall))
        metrics = bl.layer_metrics(replays)
        units = {n: u for n, u, _ in bl.PER_LAYER}
        attempted = bl.cells_of(self.workload) * len(replays)
        failed = 0 if problem is None else attempted
        log(f"{self.name} seed {self.seed}: {len(replays)} traced replays")
        return problem, attempted, failed, metrics, units


def fs_type(path):
    """Filesystem type of the mount holding `path`, from /proc/mounts."""
    real, best = os.path.realpath(path), ("", "unknown")
    try:
        with open("/proc/mounts", encoding="utf-8") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[0]):
                    best = (mount, fields[2])
    except OSError:
        pass
    return best[1]


def fingerprint(binary):
    """What a result must be compared by: host, toolchain and code."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def output(argv):
        try:
            done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  timeout=30, check=False)
        except OSError:
            return None
        return done.stdout.decode().strip() if done.returncode == 0 else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "rustc": output(["rustc", "-V"]),
        "git_rev": output(["git", "rev-parse", "--short", "HEAD"]),
        "binary_sha256": sha256_file(binary)[:16],
        "journal_fs": fs_type(work_dir("tmp")),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bl.PAPER_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seed >= 2**64:
        parser.error("--seed must fit in 64 bits")
    launcher = None
    try:
        binary, probe = build()
        launcher = Launcher()
        run = Run(binary, probe, launcher, opts.workload, opts.seed, opts.seconds)
        measure = run.per_layer if opts.trace else run.end_to_end
        problem, attempted, failed, metrics, units = measure()
        host = fingerprint(binary)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    finally:
        if launcher:
            launcher.close()
    if problem:
        log(f"incorrect: {problem}")
    result = {
        "correct": problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    record = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
              "host": host, "result": result, "samples": run.samples}
    with open(os.path.join(work_dir(), "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print("host " + json.dumps(host))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

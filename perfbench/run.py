#!/usr/bin/env python3
"""End-to-end benchmark of mergescale: explore -> persist -> archive -> serve.

One run drives the built explore_cli and serve_cli through a user journey
and prints every end-to-end metric by name, with its unit, then one JSON
line (the last line of stdout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

--trace 1 runs the same journey with spans recorded around each phase,
then the traced per-layer run (perfbench_tool layers), and prints the
per-layer metrics instead.  --steadiness N runs each workload N times and
prints each metric's median, quartiles and spread against its bound;
--compare A.json B.json compares two saved steadiness runs.  See
perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORKLOADS = ("sweep", "anneal")
WALKERS = 8  # annealing walkers; perfbench_tool layers has the same kWalkers
SETUPS_PER_REP = 3  # serve_cli starts per repetition; setup_s is their median

# Every end-to-end figure a run prints.  The interactive latencies are
# printed by every run but gated by none: on the development VM they
# doubled with the host's load from run to run (see perfbench/README.md).
# BENCHMARK.json lists them with the traced run's per-layer metrics.
UNGATED = ("p50_ms.low", "p99_ms.low", "p50_ms.high", "p99_ms.high")
E2E_NAMES = ("points_per_s", "points_per_s_1t", "log_bytes_per_point",
             "peak_rss_mb", "archive_s", "setup_s", "peak_rss_mb.serve",
             *UNGATED, "pareto_ms", "ok_frac")

# The design space both workloads explore: every model variant, three
# growth laws and three interconnects, core sizes 1..256 on three chip
# budgets.  The exhaustive sweep evaluates all 221,184 distinct points;
# the anneal walks the 552,960-point grid (inert axes included).
SPACE = {
    "budgets": "256,512,1024",
    "apps": "kmeans,fuzzy,hop,custom",
    "small-cores": "1,2,4,8,16",
    "growths": "linear,log,parallel",
    "variants": "symmetric,asymmetric,symmetric-comm,asymmetric-comm",
    "topologies": "mesh,bus,ring",
    "sizes": ",".join(str(size) for size in range(1, 257)),
}

SCALES = {
    "full": {
        "space": {},
        "anneal_budget": 120000,
        "reps": 3,
        "warmup_s": 1.0,
        "low_rate": 2000.0,
        "high_rate": 4000.0,
        "pareto_rate": 15.0,
        "min_windows": 15,
        "min_beyond": 10,
        "sweep_search_budget": 20000,
    },
    # Seconds-long runs for the self-tests; same code paths.
    "smoke": {
        "space": {"budgets": "64,256",
                  "sizes": ",".join(str(size) for size in range(1, 33))},
        "anneal_budget": 3000,
        "reps": 1,
        "warmup_s": 0.3,
        "low_rate": 100.0,
        "high_rate": 300.0,
        "pareto_rate": 8.0,
        "min_windows": 1,
        "min_beyond": 0,
        "sweep_search_budget": 1000,
    },
}


def log(*parts):
    print(*parts, flush=True)


def fail_setup(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------------

def build():
    """Configures (once) and builds the three binaries; returns their dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail_setup(f"no mergescale sources at {ROOT} (CMakeLists.txt, src/)")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "--target",
                    "explore_cli", "serve_cli", "perfbench_tool", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return CMAKE_DIR / "bin"


def provenance(seed, scale):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = (CMAKE_DIR / "CMakeCache.txt").read_text()
    compiler_path = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    compiler = "unknown"
    if compiler_path:
        version = subprocess.run([compiler_path.group(1), "--version"],
                                 capture_output=True, text=True)
        compiler = (version.stdout.splitlines() or ["unknown"])[0]
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    digest = hashlib.sha256()
    for base in ("src", "examples", "perfbench/tool"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    knobs = SCALES[scale]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": build_type.group(1) if build_type else "unknown",
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "none",
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "scale": scale,
        "rates_per_s": {"low": knobs["low_rate"], "high": knobs["high_rate"],
                        "pareto": knobs["pareto_rate"]},
        "explore_threads": [1, 2],
    }


# ---------------------------------------------------------------------------
# Journey spans (the traced run records them in memory, writes at the end)
# ---------------------------------------------------------------------------

class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.epoch = time.perf_counter()

    def span(self, name):
        tracer = self

        class Scope:
            def __enter__(self):
                if not tracer.enabled:
                    return self
                self.id = len(tracer.spans)
                parent = tracer.stack[-1] if tracer.stack else -1
                trace = tracer.spans[parent]["trace"] if parent >= 0 else self.id
                tracer.spans.append({"name": name, "parent": parent,
                                     "trace": trace,
                                     "start_ns": tracer._now()})
                tracer.stack.append(self.id)
                return self

            def __exit__(self, *exc):
                if tracer.enabled:
                    tracer.spans[self.id]["end_ns"] = tracer._now()
                    tracer.stack.pop()
                return False

        return Scope()

    def _now(self):
        return int((time.perf_counter() - self.epoch) * 1e9)

    def self_ns(self):
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] >= 0:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        totals = {}
        for s, ns in zip(self.spans, own):
            totals[s["name"]] = totals.get(s["name"], 0) + ns
        return totals

    def write(self, path):
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def run_timed(cmd, out_path):
    """Runs `cmd` to completion; returns (wall s, exit code, peak RSS MB,
    stdout text).  wait4 gives this child's own peak RSS."""
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, Path(
        out_path).read_text()


def stop_server(proc):
    """SIGTERM, then reap; returns (exit code, peak RSS MB)."""
    if proc.returncode is not None:
        return proc.returncode, 0.0
    proc.send_signal(signal.SIGTERM)
    deadline = time.time() + 30
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.time() > deadline:
            proc.kill()
        time.sleep(0.01)


def query(port, line, timeout=10.0):
    """One closed-loop request over a fresh connection; the framed reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall((line + "\n").encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                return data.decode()
            data += chunk
            text = data.decode(errors="replace")
            if text.startswith("ERR") and text.endswith("\n"):
                return text
            if text.endswith("END\n"):
                return text


# ---------------------------------------------------------------------------
# The journey
# ---------------------------------------------------------------------------

def space_args(seed, scale):
    space = dict(SPACE, **SCALES[scale]["space"])
    rng = random.Random(seed)
    # The seed picks the custom application's parameters: other values,
    # the same amount of work.
    space["f"] = f"{rng.uniform(0.95, 0.999):.4f}"
    space["fcon"] = f"{rng.uniform(0.2, 0.9):.3f}"
    space["fored"] = f"{rng.uniform(0.3, 1.0):.3f}"
    args = []
    for key, value in space.items():
        args += [f"--{key}", value]
    return args


class Journey:
    def __init__(self, workload, seed, seconds, scale, bin_dir, work, tracer,
                 inject_wrong_reply=False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.knobs = SCALES[scale]
        self.scale = scale
        self.bin = bin_dir
        self.work = work
        self.tracer = tracer
        self.inject = inject_wrong_reply
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.notes = {}
        self.counts = {}

    def problem(self, message, count=1):
        self.failed += count
        log(f"FAIL: {message}")

    # -- explore ------------------------------------------------------------
    def explore(self, threads, run_dir, tag):
        cmd = [str(self.bin / "explore_cli"), "--quiet", "--threads",
               str(threads), "--run-dir", str(run_dir), "--log-format",
               "binary", "--flush-every", "1024", "--out",
               str(self.work / f"report-{tag}")]
        cmd += space_args(self.seed, self.scale)
        if self.workload == "anneal":
            cmd += ["--strategy", "anneal", "--walkers", str(WALKERS),
                    "--budget", str(self.knobs["anneal_budget"]),
                    "--seed", str(self.seed)]
        self.attempted += 1
        with self.tracer.span(f"explore_cli.{threads}t"):
            wall, code, rss, out = run_timed(cmd, self.work / f"{tag}.out")
        if code != 0:
            self.problem(f"explore_cli {tag} exited {code}: {out[-400:]}")
            return None
        best = next((l for l in out.splitlines() if l.startswith("best: ")),
                    None)
        if self.workload == "sweep":
            m = re.search(r"run 1: (\d+) points .*cache hits (\d+), "
                          r"misses (\d+)", out)
            points, hits, logged = (int(m.group(i)) for i in (1, 2, 3))
            info = {"points": points, "hit_ratio": hits / points}
        else:
            m = re.search(r"search: (\d+) unique evaluations \((\d+) "
                          r"proposals", out)
            unique, proposals = int(m.group(1)), int(m.group(2))
            logged = int(re.search(r"log: (\d+) fresh results", out).group(1))
            info = {"points": unique, "proposals_per_unique": proposals / unique}
        log_path = run_dir / "results.msbin"
        info.update(wall=wall, rss=rss, logged=logged, best=best,
                    log_bytes=log_path.stat().st_size)
        log(f"explore_cli {tag}: {logged} points logged in {wall:.3f} s "
            f"({logged / wall:.0f} pts/s), peak RSS {rss:.1f} MB")
        return info

    # -- archive ------------------------------------------------------------
    def archive(self, run_dir):
        self.attempted += 1
        with self.tracer.span("explore_cli.archive"):
            wall, code, _, out = run_timed(
                [str(self.bin / "explore_cli"), "--archive", "--run-dir",
                 str(run_dir)], self.work / "archive.out")
        if code != 0:
            self.problem(f"explore_cli --archive exited {code}: {out}")
            return None
        self.archived_rows = int(re.search(r"archive: (\d+) unique",
                                           out).group(1))
        log(f"explore_cli --archive: {self.archived_rows} rows in {wall:.3f} s")
        return wall

    # -- serve --------------------------------------------------------------
    def launch_server(self, run_dir, tag):
        """Starts serve_cli; returns (process, port, set-up seconds): launch
        to the first `best` reply, which must equal the CLI's best line."""
        port_file = self.work / f"port-{tag}"
        cmd = [str(self.bin / "serve_cli"), "--run-dir", str(run_dir),
               "--port-file", str(port_file), "--threads", "2"]
        self.attempted += 1
        with open(self.work / f"serve-{tag}.out", "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        try:
            expected = f"OK best lines=1\n{self.best_line}\nEND\n"
            deadline = start + 120
            port = None
            while time.perf_counter() < deadline and proc.poll() is None:
                if port is None:
                    try:
                        port = int(port_file.read_text())
                    except (OSError, ValueError):
                        time.sleep(0.001)
                        continue
                try:
                    reply = query(port, "best")
                except OSError:
                    time.sleep(0.001)
                    continue
                setup = time.perf_counter() - start
                if reply != expected and not self.tied_best(run_dir, reply):
                    self.problem(f"first `best` reply {reply!r} != {expected!r}")
                return proc, port, setup
        except BaseException:
            stop_server(proc)
            raise
        self.problem(f"serve_cli {tag} never answered `best`")
        stop_server(proc)
        return None, None, None

    def tied_best(self, run_dir, reply):
        """Whether a `best` reply that differs from the CLI's line is the
        same answer up to fully tied records (see perfbench/README.md),
        by the checker's rules over the run directory as it stands."""
        samples = self.work / "best-sample.bin"
        body = reply.encode()
        samples.write_bytes(b"final -1 4 %d\nbest" % len(body) + body)
        check = subprocess.run(
            [str(self.bin / "perfbench_tool"), "check", "--run-dir",
             str(run_dir), "--samples", str(samples)],
            capture_output=True, text=True, timeout=170)
        if check.returncode == 0:
            log(f"first `best` reply {reply.splitlines()[1]!r} equals the "
                f"CLI's up to fully tied records")
        return check.returncode == 0

    def traffic(self, run_dir, port):
        samples = self.work / "samples.bin"
        # 55 % of the measured time at the low rate, 25 % at the high
        # rate, 20 % in pareto segments: 17 and 16 windows of 1000
        # requests and 48 paretos in a 16 s run.
        cmd = [str(self.bin / "perfbench_tool"), "load", "--port",
               str(port), "--run-dir", str(run_dir), "--seed",
               str(self.seed), "--evals",
               "uniform" if self.workload == "sweep" else "zipf",
               "--low-rate", str(self.knobs["low_rate"]),
               "--high-rate", str(self.knobs["high_rate"]),
               "--low-seconds", str(self.seconds * 0.55),
               "--high-seconds", str(self.seconds * 0.25),
               "--pareto-rate", str(self.knobs["pareto_rate"]),
               "--pareto-seconds", str(self.seconds * 0.2),
               "--warmup-seconds", str(self.knobs["warmup_s"]),
               "--samples", str(samples)]
        if self.inject:
            cmd.append("--corrupt-sample")
        with self.tracer.span("serve.load"):
            load = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=self.seconds + 150)
        if load.returncode != 0:
            self.problem(f"load generator failed: {load.stderr[-400:]}")
            return None
        return json.loads(load.stdout.strip().splitlines()[-1]), samples

    def check(self, run_dir, samples):
        cmd = [str(self.bin / "perfbench_tool"), "check", "--run-dir",
               str(run_dir), "--samples", str(samples)]
        if self.workload == "sweep":
            cmd.append("--read-only")
        with self.tracer.span("serve.check"):
            check = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=170)
        try:
            verdict = json.loads(check.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            verdict = {"checked": 0, "mismatches": 1,
                       "first_mismatch": check.stderr[-400:]}
        self.attempted += verdict["checked"]
        log(f"correctness: {verdict['checked']} sampled replies checked, "
            f"{verdict['mismatches']} mismatches, "
            f"{verdict.get('tie_order', 0)} equal up to fully tied records "
            f"(a known report defect, see perfbench/README.md)")
        if check.returncode != 0:
            self.problem("serve reply differs from the in-process answer:\n"
                         + verdict["first_mismatch"],
                         max(1, verdict["mismatches"]))

    # -- the whole journey -------------------------------------------------
    def run(self):
        """Repetitions of explore 1t, explore 2t, archive of both and
        three serve set-ups, interleaved so every figure samples the
        whole run; the last server then takes the traffic.  Returns the
        served run directory, or None when a step failed."""
        reps = self.knobs["reps"]
        runs = {1: [], 2: []}
        archive_s, setup_s = [], []
        proc = None
        with self.tracer.span("journey"):
            try:
                for rep in range(reps):
                    for threads in (1, 2):
                        run_dir = self.work / f"run-{threads}t-{rep}"
                        info = self.explore(threads, run_dir,
                                            f"{threads}t-{rep}")
                        if info is None:
                            return None
                        runs[threads].append(info)
                    if rep > 0:
                        shutil.rmtree(self.work / f"run-2t-{rep - 1}")
                    bests = {i["best"] for i in runs[1] + runs[2]}
                    if len(bests) != 1 or None in bests:
                        self.problem(f"best: line differs across runs and "
                                     f"thread counts: {bests}")
                        return None
                    self.best_line = runs[2][-1]["best"]
                    # Both runs' directories are archived (the same
                    # records); the 2-thread one is then served.
                    for threads in (1, 2):
                        wall = self.archive(self.work / f"run-{threads}t-{rep}")
                        if wall is None:
                            return None
                        archive_s.append(wall)
                    shutil.rmtree(self.work / f"run-1t-{rep}")
                    for start in range(SETUPS_PER_REP):
                        if proc is not None:
                            stop_server(proc)
                        with self.tracer.span("serve.setup"):
                            proc, port, setup = self.launch_server(
                                run_dir, f"{rep}-{start}")
                        if proc is None:
                            return None
                        setup_s.append(setup)
                        log(f"serve_cli set-up: {setup:.3f} s")
                result = self.traffic(run_dir, port)
            finally:
                if proc is not None:
                    code, rss = stop_server(proc)
                    if code != 0:
                        self.problem(f"serve_cli exited {code}")
                    self.metrics["peak_rss_mb.serve"] = rss
            if result is None:
                return None
            self.load, samples = result
            self.check(run_dir, samples)

        # Throughput and archive time: the fastest repetition.  The host
        # only ever slows a repetition down, so the fastest is the one
        # nearest to what the code costs (see perfbench/README.md).
        last = runs[2][-1]
        self.metrics["points_per_s"] = max(
            i["logged"] / i["wall"] for i in runs[2])
        self.metrics["points_per_s_1t"] = max(
            i["logged"] / i["wall"] for i in runs[1])
        self.metrics["log_bytes_per_point"] = last["log_bytes"] / last["logged"]
        self.metrics["peak_rss_mb"] = statistics.median(
            i["rss"] for i in runs[2])
        self.metrics["archive_s"] = min(archive_s)
        self.metrics["setup_s"] = statistics.median(setup_s)
        self.counts["points_logged"] = last["logged"]
        self.counts["log_bytes_per_point"] = self.metrics["log_bytes_per_point"]
        for key in ("hit_ratio", "proposals_per_unique"):
            if key in last:
                self.counts[key] = last[key]

        load = self.load
        self.attempted += load["attempted"]
        if load["failed"]:
            self.problem(f"{load['failed']} serve requests failed (refused "
                         f"{load['refused']}, timeouts {load['timeouts']}, "
                         f"ERR {load['err_replies']}, late "
                         f"{load['late_replies']})", load["failed"])
        for phase in ("low", "high"):
            summary = load[phase]["interactive"]
            self.metrics[f"p50_ms.{phase}"] = summary["p50_ms"]
            self.metrics[f"p99_ms.{phase}"] = summary["p99_ms"]
            self.notes[f"p50_ms.{phase}"] = f"n={summary['count']}"
            self.notes[f"p99_ms.{phase}"] = (
                f"n={summary['count']}, lower decile of {summary['windows']} "
                f"window p99s, {summary['beyond_p99']} beyond each; median "
                f"window {summary['p99_median_window_ms']:.4g} ms, pooled "
                f"{summary['p99_pooled_ms']:.4g} ms")
            if (summary["windows"] < self.knobs["min_windows"]
                    or summary["beyond_p99"] < self.knobs["min_beyond"]):
                self.problem(f"p99 at the {phase} rate rests on "
                             f"{summary['windows']} windows with "
                             f"{summary['beyond_p99']} samples beyond")
        self.metrics["pareto_ms"] = load["pareto"]["p50_ms"]
        self.notes["pareto_ms"] = f"n={load['pareto']['count']}"
        self.counts["serve.live_evals"] = load["stats"]["live_evals"]
        self.counts["serve.distinct_eval_points"] = load["distinct_eval_points"]
        self.metrics["ok_frac"] = 1.0 - self.failed / max(1, self.attempted)
        return run_dir


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def emit(correct, attempted, failed, metrics, names):
    out = {}
    for entry in names:
        value = metrics.get(entry["name"])
        if value is None:
            correct = False
            continue
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return correct


def one_run(args):
    bench = load_bench()
    bin_dir = build()
    prov = provenance(args.seed, args.scale)
    log(f"perfbench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} scale={args.scale}")
    log("provenance: " + json.dumps(prov))
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer(args.trace == 1)
    journey = Journey(args.workload, args.seed, args.seconds, args.scale,
                      bin_dir, work, tracer, args.inject_wrong_reply)
    try:
        run_dir = journey.run()
        names = bench["per_layer" if args.trace else "end_to_end"]
        if run_dir is None:
            journey.problem("journey did not complete")
            return emit(False, max(1, journey.attempted), journey.failed, {},
                        names)
        units = {e["name"]: e["unit"]
                 for e in bench["end_to_end"] + bench["per_layer"]}
        for name in E2E_NAMES:
            if name in journey.metrics:
                note = journey.notes.get(name)
                log(f"metric {name} = {journey.metrics[name]:.6g} "
                    f"{units[name]}" + (f" ({note})" if note else ""))
        log(f"fail_frac = {journey.failed / max(1, journey.attempted):.6g} "
            f"({journey.failed}/{journey.attempted} operations failed)")
        correct = journey.failed == 0
        log("journey-e2e: " + json.dumps(journey.metrics, sort_keys=True))
        if args.trace == 0:
            log("counts: " + json.dumps(journey.counts, sort_keys=True))
            return emit(correct, journey.attempted, journey.failed,
                        journey.metrics, bench["end_to_end"])

        # Traced run: the journey above ran with spans; now the layers.
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-{args.seed}"
        search_budget = (SCALES[args.scale]["anneal_budget"]
                         if args.workload == "anneal"
                         else SCALES[args.scale]["sweep_search_budget"])
        layers_cmd = [str(bin_dir / "perfbench_tool"), "layers", "--run-dir",
                      str(run_dir), "--work", str(work / "layers"),
                      "--workload", args.workload, "--search-budget",
                      str(search_budget), "--seed", str(args.seed),
                      "--trace-out",
                      str(traces / f"{stem}.layers.ndjson")]
        layers = subprocess.run(layers_cmd, capture_output=True, text=True,
                                timeout=170)
        if layers.returncode != 0:
            journey.problem(f"layers failed: {layers.stderr[-400:]}")
            return emit(False, journey.attempted, journey.failed, {}, names)
        lines = layers.stdout.strip().splitlines()
        for line in lines[:-1]:
            log(line)
        per_layer = json.loads(lines[-1])
        tracer.write(traces / f"{stem}.journey.ndjson")
        for name, ns in tracer.self_ns().items():
            log(f"self {name:<40} {ns / 1e6:10.2f} ms (journey)")

        load = journey.load
        for cls in ("best", "topk", "eval", "stats"):
            per_layer[f"serve.tcp_overhead_us.{cls}"] = (
                load["low"][cls]["p50_ms"] * 1e3
                - per_layer[f"serve.execute_line_us.{cls}"])
        for name in UNGATED:
            per_layer[name] = journey.metrics[name]
        per_layer["serve.live_evals"] = load["stats"]["live_evals"]
        per_layer["serve.delta_rows"] = (load["stats"]["archive_records"]
                                         - journey.archived_rows)
        per_layer["serve.concurrency_limit"] = load["stats"]["concurrency_limit"]
        per_layer["serve.probe_windows"] = load["stats"]["probe_windows"]
        per_layer["serve.lateness_ms"] = load["lateness_p99_ms"]
        span_count = len(tracer.spans) + int(
            next(l for l in lines if l.startswith("spans ")).split()[1])
        per_layer["trace.spans"] = span_count
        counts = dict(journey.counts)
        counts["search.run_search.proposals_per_unique"] = per_layer[
            "search.run_search.proposals_per_unique"]
        counts["explore.memo.hit_ratio"] = per_layer["explore.memo.hit_ratio"]
        log("counts: " + json.dumps(counts, sort_keys=True))
        for entry in bench["per_layer"]:
            if entry["name"] in per_layer:
                log(f"layer {entry['name']} = {per_layer[entry['name']]:.6g} "
                    f"{entry['unit']}")
        return emit(correct, journey.attempted, journey.failed, per_layer,
                    names)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Steadiness report and comparison
# ---------------------------------------------------------------------------

def child(workload, seed, seconds, trace, scale):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--scale", scale]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    extra = {}
    for line in lines:
        for key in ("counts", "journey-e2e"):
            if line.startswith(key + ": "):
                extra[key] = json.loads(line[len(key) + 2:])
    result.update(extra, exit=proc.returncode, wall=wall, seed=seed)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(args):
    bench = load_bench()
    build()
    bounds = {e["name"]: e for e in bench["end_to_end"]}
    units = {e["name"]: e["unit"]
             for e in bench["end_to_end"] + bench["per_layer"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",")
    report = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.steadiness):
            result = child(workload, args.seed + i, seconds, 0, args.scale)
            values = " ".join(
                f"{name}={value:.4g}"
                for name, value in result.get("journey-e2e", {}).items())
            log(f"{workload} seed {args.seed + i}: exit {result['exit']}, "
                f"correct {result.get('correct')}, {result['wall']:.1f} s; "
                f"{values}")
            runs.append(result)
        traced = [child(workload, args.seed + j, seconds, 1, args.scale)
                  for j in range(args.traced)]
        repeat = (child(workload, args.seed, seconds, 0, args.scale)
                  if args.traced else None)
        report["workloads"][workload] = {"untraced": runs, "traced": traced,
                                         "repeat": repeat}
        log(f"\n== {workload}: {len(runs)} runs, seeds {args.seed}.."
            f"{args.seed + len(runs) - 1}, {seconds} s each")
        log(f"{'metric':<22}{'unit':>8}{'median':>13}{'q1':>13}{'q3':>13}"
            f"{'spread':>9}{'bound':>7}  verdict")
        for name in E2E_NAMES:
            values = [r["journey-e2e"][name] for r in runs
                      if r.get("correct") and name in r.get("journey-e2e", {})]
            if not values:
                log(f"{name:<22} no values")
                ok = False
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            entry = bounds.get(name)
            if entry is None:
                bound, verdict = "-", "not gated"
            else:
                bound = entry["bound"]
                verdict = ("steady" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "NOISY")
            if verdict == "NOISY":
                ok = False
            log(f"{name:<22}{units[name]:>8}{med:>13.6g}{q1:>13.6g}"
                f"{q3:>13.6g}{spread:>9.3f}{bound:>7}  {verdict}")
        if traced:
            log(f"-- tracing overhead ({workload}): traced vs untraced "
                f"medians over seeds {args.seed}..{args.seed + len(traced) - 1}")
            for name in E2E_NAMES:
                plain = [r["journey-e2e"][name] for r in runs[:len(traced)]
                         if name in r.get("journey-e2e", {})]
                with_spans = [t["journey-e2e"][name] for t in traced
                              if name in t.get("journey-e2e", {})]
                if plain and with_spans:
                    a, b = statistics.median(plain), statistics.median(with_spans)
                    log(f"  {name:<22} untraced {a:>12.6g}  traced {b:>12.6g}"
                        f"  diff {(b - a) / a * 100 if a else 0.0:+7.2f}%")
            same = all(t.get("counts", {}).get(k) == r.get("counts", {}).get(k)
                       for t, r in zip(traced, runs)
                       for k in r.get("counts", {}))
            repeat_same = repeat is not None and repeat.get("counts") == runs[0].get("counts")
            log(f"-- counts identical traced vs untraced: {same}; "
                f"same seed twice: {repeat_same}")
            ok = ok and same and repeat_same
    if args.save:
        Path(args.save).write_text(json.dumps(report, indent=1))
    return ok


def compare(paths):
    """Median of each end-to-end metric in two saved steadiness runs
    (parent first), and whether the change stays within each bound."""
    bench = load_bench()
    parent, change = (json.loads(Path(p).read_text()) for p in paths)
    ok = True
    for workload in parent["workloads"]:
        log(f"== {workload}")
        for entry in bench["end_to_end"]:
            name = entry["name"]

            def med(report):
                runs = report["workloads"].get(workload, {}).get("untraced", [])
                values = [r["metrics"][name]["value"] for r in runs
                          if name in r.get("metrics", {})]
                return statistics.median(values) if values else None

            a, b = med(parent), med(change)
            if a is None or b is None:
                continue
            worse = (b - a) / a if entry["better"] == "lower" else (a - b) / a
            verdict = "worse than bound" if worse > entry["bound"] else "ok"
            ok = ok and verdict == "ok"
            log(f"  {name:<22} parent {a:>12.6g}  change {b:>12.6g}  "
                f"worse by {worse * 100:+7.2f}% (bound "
                f"{entry['bound'] * 100:.0f}%)  {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured serve time (split over two rates)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--inject-wrong-reply", action="store_true",
                        help="self-test: alter one sampled reply")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run each workload N times; report spreads")
    parser.add_argument("--traced", type=int, default=2, metavar="M",
                        help="with --steadiness: traced runs per workload")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--save", help="with --steadiness: write results")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--all", action="store_true",
                        help="one untraced run of every workload")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.compare:
        return 0 if compare(args.compare) else 1
    if args.steadiness:
        return 0 if steadiness(args) else 1
    if args.all:
        ok = True
        for workload in WORKLOADS:
            args.workload = workload
            args.seconds = args.seconds or load_bench()["run_seconds"]
            ok = one_run(args) and ok
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_bench()["run_seconds"]
    return 0 if one_run(args) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark at smoke scale (seconds per run).

    python3 -m unittest discover -s perfbench/tests -v

They build the binaries the benchmark drives (into .bench_build/, as the
benchmark itself does) and then check: the output schema against
BENCHMARK.json, that a wrong serve reply fails the run, that the load
generator counts a stalled server's backlog as latency, and that the
command fails cleanly without the sources.
"""

import json
import shutil
import socket
import subprocess
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "selftest"

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark module under test)


def bench_run(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def last_json(lines):
    return json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bin = run.build()
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def check_schema(self, result, entries):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {e["name"] for e in entries})
        for entry in entries:
            metric = result["metrics"][entry["name"]]
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], entry["unit"])
            self.assertIsInstance(metric["value"], (int, float))

    def test_untraced_schema_matches_benchmark_json(self):
        for workload in ("sweep", "anneal"):
            with self.subTest(workload=workload):
                proc, lines = bench_run("--workload", workload, "--seed", "3",
                                        "--seconds", "2", "--trace", "0",
                                        "--scale", "smoke")
                self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
                self.check_schema(last_json(lines), self.spec["end_to_end"])
                # Every percentile is printed with its sample count.
                p99 = [l for l in lines if l.startswith("metric p99_ms.")]
                self.assertEqual(len(p99), 2)
                for line in p99:
                    self.assertRegex(line, r"\(n=\d+, lower decile of \d+ "
                                           r"window p99s, \d+ beyond each; ")

    def test_traced_schema_matches_benchmark_json(self):
        proc, lines = bench_run("--workload", "anneal", "--seed", "3",
                                "--seconds", "2", "--trace", "1",
                                "--scale", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:])
        self.check_schema(last_json(lines), self.spec["per_layer"])
        self.assertTrue(any(l.startswith("self ") for l in lines))
        trace = ROOT / ".bench_build" / "traces" / "anneal-3.layers.ndjson"
        span = json.loads(trace.read_text().splitlines()[0])
        self.assertEqual(set(span),
                         {"name", "start_ns", "end_ns", "parent", "trace"})

    def test_wrong_reply_fails_the_run(self):
        proc, lines = bench_run("--workload", "sweep", "--seed", "3",
                                "--seconds", "2", "--scale", "smoke",
                                "--inject-wrong-reply")
        self.assertNotEqual(proc.returncode, 0)
        result = last_json(lines)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_stalled_server_backlog_counts_as_latency(self):
        run_dir = SCRATCH / "stall-run"
        shutil.rmtree(run_dir, ignore_errors=True)
        subprocess.run([str(self.bin / "explore_cli"), "--quiet",
                        "--run-dir", str(run_dir), "--budgets", "64",
                        "--out", str(SCRATCH / "stall-report")],
                       check=True, capture_output=True)

        # A server that answers instantly on every connection, except
        # that it stalls all of them for 0.8 s on the first request of
        # the measured low-rate segments.
        warmup, rate, stall_s = 0.2, 100.0, 0.8
        stall_at = round(warmup * rate) + 1
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        stall = threading.Lock()
        seen = [0]

        def session(conn):
            with conn, conn.makefile("rb") as lines:
                for line in lines:
                    with stall:
                        seen[0] += 1
                        if seen[0] == stall_at:
                            threading.Event().wait(stall_s)
                    kind = line.split()[0].decode()
                    conn.sendall(f"OK {kind} lines=1\nx\nEND\n".encode())

        def accept():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                threading.Thread(target=session, args=(conn,),
                                 daemon=True).start()

        threading.Thread(target=accept, daemon=True).start()
        # Four rounds of 0.1 s low, 0.1 s high and 0.05 s pareto: the
        # stall covers rounds 1-3, so most low-rate requests fall due
        # while every connection is held.
        proc = subprocess.run(
            [str(self.bin / "perfbench_tool"), "load", "--port", str(port),
             "--run-dir", str(run_dir), "--low-rate", str(rate),
             "--high-rate", str(rate), "--low-seconds", "0.4",
             "--high-seconds", "0.4", "--warmup-seconds", str(warmup),
             "--pareto-seconds", "0.2", "--pareto-rate", "10"],
            capture_output=True, text=True, timeout=60)
        listener.close()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        low = json.loads(proc.stdout.strip().splitlines()[-1])["low"]
        summary = low["interactive"]
        self.assertEqual(summary["count"], 40)
        # The server held only the four requests in flight; the ones due
        # behind them waited in the generator.  Timed from their due
        # time, most of the low-rate samples are slow: the median itself
        # sits in the backlog.
        self.assertGreater(summary["p99_ms"], 0.8 * stall_s * 1e3)
        self.assertGreater(summary["p50_ms"], 100.0)

    def test_fails_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = bench_run("--workload", "sweep", "--seed", "1",
                                "--seconds", "2", "--trace", "0", cwd=bare,
                                script=bare / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()

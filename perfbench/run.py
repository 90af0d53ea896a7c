"""End-to-end and per-layer benchmark of the opentc CLI.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every workload process is a fresh Python
with ``src`` on PYTHONPATH and one BLAS thread. With ``--trace 0`` the
benchmark sets up the workload at least three times (``setup_s`` is the
median), runs one command in a memory probe (``peak_rss_mb``), then runs the
CLI command untraced for ``--seconds``. With ``--trace 1`` it sets up once,
runs untraced, then traced, each for half of ``--seconds``, and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the machine and a readable summary. Exits non-zero, without
a result, when the checkout has no ``src/opentc`` or a workload process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_paper", "predict_cli", "sweep_rep")
SETUP_REPEATS = 3  # at least; short set-ups repeat until SETUP_MIN_S are timed
SETUP_MIN_S = 2.0
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0  # every process this run starts ends within this


class BenchError(RuntimeError):
    pass


def _declared_metrics(root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


class Runner:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = monotonic() + RUN_LIMIT_S
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS=BLAS_THREADS,
            OMP_NUM_THREADS=BLAS_THREADS,
            MKL_NUM_THREADS=BLAS_THREADS,
        )

    def worker(self, *args: str, env: dict | None = None) -> float:
        """Run perfbench/workloads.py in a fresh process; returns its wall time."""
        cmd = [sys.executable, str(HERE / "workloads.py"), *args, "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(self.work)]  # fmt: skip
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=env or self.env)
        # A blocking wait returns as soon as the child exits; waiting with a
        # timeout would poll in steps of up to 50 ms and blur setup_s.
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        killer = threading.Timer(max(1.0, self.deadline - monotonic()), kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
            proc.kill()  # no-op once the child has been reaped
            proc.wait()
        wall = perf_counter() - start
        if timed_out.is_set():
            raise BenchError(f"workload process exceeded the run's time limit: {' '.join(args)}")
        if returncode != 0:
            raise BenchError(f"workload process exited with {returncode}: {' '.join(args)}")
        return wall

    def measure(self, seconds: float, trace: int = 0) -> dict:
        out = self.work / f"result-trace{trace}.json"
        self.worker("measure", "--seconds", str(seconds), "--trace", str(trace), "--out", str(out))
        return json.loads(out.read_text(encoding="utf-8"))

    def memory_probe(self) -> dict:
        """One command in a process whose allocator returns every block of
        128 KiB or more to the system when freed, so its peak resident memory
        is the program's peak live memory rather than what glibc kept."""
        out = self.work / "result-memory.json"
        env = dict(self.env, MALLOC_MMAP_THRESHOLD_=str(128 * 1024))
        self.worker("measure", "--seconds", "0", "--out", str(out), env=env)
        return json.loads(out.read_text(encoding="utf-8"))


# The workload-specific names the generic docs_per_s stands for.
ALIASES = {
    "train_paper": "train_docs_per_s",
    "predict_cli": "predict_docs_per_s",
    "sweep_rep": "corpus docs / sweep_rep_s",
}


def _summary(workload: str, untraced: dict, setup: list[float], attempted: int, failed: int) -> str:
    walls = untraced["command_s"]
    return (
        f"summary {workload}: command_s median {statistics.median(walls):.4f} min {min(walls):.4f} "
        f"max {max(walls):.4f} over n={len(walls)} commands of {untraced['docs_per_command']} docs "
        f"(docs_per_s is {ALIASES[workload]}); setup_s runs {[round(s, 3) for s in setup]}; "
        f"error_rate {failed}/{attempted} = {failed / attempted:.4f}"
    )


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    end_to_end, per_layer = _declared_metrics(root)
    runner = Runner(root, workload, seed)
    try:
        setup = [runner.worker("setup")]
        while not trace and (len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S):
            setup.append(runner.worker("setup"))
        probe = None if trace else runner.memory_probe()
        untraced = runner.measure(seconds / 2 if trace else seconds)
        traced = runner.measure(seconds / 2, 1) if trace else None
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds the work of a concurrent run
            runner.work.parent.rmdir()

    runs = [r for r in (probe, untraced, traced) if r is not None]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    command_s = statistics.median(untraced["command_s"])
    if trace:
        values = dict(traced["layers"])
        values["trace_overhead_frac"] = statistics.median(traced["command_s"]) / command_s - 1.0
        units = per_layer
        correct = failed == 0 and traced["adds_up"]
        if not traced["adds_up"]:
            print("per-layer self times do not add up to the traced command wall time", file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "docs_per_s": untraced["docs_per_command"] / command_s,
            "peak_rss_mb": probe["peak_rss_mb"],
        }
        units = end_to_end
        correct = failed == 0
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    print("machine " + json.dumps(untraced["machine"], sort_keys=True))
    print(_summary(workload, untraced, setup, attempted, failed))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "opentc" / "cli.py").is_file():
        print("error: run from the root of an opentc checkout (no src/opentc here)", file=sys.stderr)
        return 2
    try:
        result = run(root, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

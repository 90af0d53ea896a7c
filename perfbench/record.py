"""Run the benchmark over several seeds and write one BENCH_<n>.json record.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BENCH_0.json

Run from the root of a checkout. For every workload it makes one untraced run
per seed, then one traced run on the first seed. The record holds every run's
result line, each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median), the traced
per-layer metrics and the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines if line.startswith("machine "))
    summary = next(line for line in lines if line.startswith("summary "))
    return {**json.loads(lines[-1]), "summary": summary}, machine


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)

    record = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, record["machine"] = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
        entry = {
            "runs": runs,
            "end_to_end": {
                m["name"]: spread([r["metrics"][m["name"]]["value"] for r in runs]) for m in spec["end_to_end"]
            },
        }
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
        traced, _ = run_once(workload, seeds[0], spec["run_seconds"], 1)
        entry["traced"] = {"seed": seeds[0], **traced}
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

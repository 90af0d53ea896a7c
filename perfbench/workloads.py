"""One workload in one fresh process: write its inputs, or run its CLI command
in a closed loop and check every output.

run.py starts this file with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/workloads.py setup   --workload W --seed N --workdir DIR
    python3 perfbench/workloads.py measure --workload W --seed N --workdir DIR \\
        --seconds S --trace 0|1 --out RESULT.json

``measure`` runs ``opentc.cli.main`` with the workload's arguments, one command
at a time, until ``S`` seconds have passed, and writes the per-command wall
times, the peak resident memory, the check counts and, with ``--trace 1``,
the per-layer metrics to ``RESULT.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import opentc
from opentc import cli
from opentc.synthetic import generate_synthetic_dataset

from machine import machine_record
from tracer import LOSSES, SPANS, TAPE_OPS, Tracer, gemm_gflop_per_s

MIB = 1024 * 1024
NUM_CLASSES = 8
SEEN_FRACTION = 0.5
LONG_DOCS = (150, 250)  # tokens; the 200-token window is almost all real tokens
PROB_ATOL = 1e-9  # predict output against the public-API reference
UNATTRIBUTED_MAX = 0.01  # share of a traced command's wall time outside every span


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class TrainPaper:
    """``opentc train`` at the paper shapes (CLI defaults), fixed epoch count."""

    name = "train_paper"
    command = "train"
    epochs = 2
    docs_per_class = 50  # 120 training docs: two batches of 64 per epoch

    def setup(self, work: Path, seed: int) -> None:
        docs = generate_synthetic_dataset(
            num_classes=NUM_CLASSES, docs_per_class=self.docs_per_class, doc_len_range=LONG_DOCS, seed=seed
        )
        opentc.save_jsonl(work / "corpus.jsonl", docs)

    def argv(self, work: Path, seed: int) -> list[str]:
        return [
            self.command, "--data", str(work / "corpus.jsonl"), "--out", str(work / "model.docm"),
            "--seed", str(seed), "--seen-fraction", str(SEEN_FRACTION),
            "--epochs", str(self.epochs), "--patience", str(self.epochs),
            "--report", str(work / "report.json"),
        ]  # fmt: skip

    def docs_per_command(self, work: Path, seed: int) -> int:
        split = opentc.make_open_split(opentc.load_jsonl(work / "corpus.jsonl"), SEEN_FRACTION, seed)
        return self.epochs * len(split.train)

    def collect(self, work: Path):
        return {"sha256": _sha256(work / "model.docm"), "report": _read(work / "report.json")}

    def check(self, work: Path, results) -> tuple[int, int, dict]:
        """Losses finite and decreasing, model loads, model bytes equal across commands."""
        first_sha = results[0][2]["sha256"]
        try:
            opentc.load_model(work / "model.docm")
            loads = True
        except (ValueError, KeyError, OSError):
            loads = False
        failed, info = 0, {}
        for rc, _, art in results:
            try:
                losses = json.loads(art["report"])["train_losses"]
                ok = (
                    rc == 0
                    and loads
                    and art["sha256"] == first_sha
                    and len(losses) == self.epochs
                    and all(math.isfinite(x) for x in losses)
                    and losses[-1] < losses[0]
                )
                info["train_loss_final"] = losses[-1]
            except (TypeError, ValueError, KeyError, IndexError):
                ok = False
            failed += not ok
        info["model_file"] = work / "model.docm"
        return len(results), failed, info


class PredictCli:
    """``opentc predict`` (JSON) over seen- and unseen-class lines, B=1 forward."""

    name = "predict_cli"
    command = "predict"
    fixture_docs_per_class = 100  # training documents of the fixture model
    input_docs_per_class = 64  # 8 x 64 = 512 input lines
    fixture_epochs = 1
    fixture_lr = "0.01"  # at the default 1e-3 a 1- or 2-epoch model rejects every line

    def setup(self, work: Path, seed: int) -> None:
        n = self.fixture_docs_per_class + self.input_docs_per_class
        docs = generate_synthetic_dataset(
            num_classes=NUM_CLASSES, docs_per_class=n, doc_len_range=LONG_DOCS, seed=seed
        )
        per_class = [docs[c * n : (c + 1) * n] for c in range(NUM_CLASSES)]
        opentc.save_jsonl(work / "train.jsonl", [d for cls in per_class for d in cls[: self.fixture_docs_per_class]])
        held_out = [d.text for cls in per_class for d in cls[self.fixture_docs_per_class :]]
        order = np.random.default_rng(seed).permutation(len(held_out))
        (work / "input.txt").write_text("".join(held_out[i] + "\n" for i in order), encoding="utf-8")
        argv = [
            "train", "--data", str(work / "train.jsonl"), "--out", str(work / "model.docm"),
            "--seed", str(seed), "--seen-fraction", str(SEEN_FRACTION),
            "--epochs", str(self.fixture_epochs), "--patience", str(self.fixture_epochs),
            "--lr", self.fixture_lr, "--calibrate",
        ]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"fixture model training exited with {rc}")

    def argv(self, work: Path, seed: int) -> list[str]:
        return [self.command, "--model", str(work / "model.docm"), "--input", str(work / "input.txt"), "--format", "json"]

    def docs_per_command(self, work: Path, seed: int) -> int:
        return len(_read(work / "input.txt").splitlines())

    def collect(self, work: Path):
        return None

    def _reference(self, work: Path):
        """(label, probs) per input line through the public API.

        Forwarded in batches of 64, which differs from the CLI's one-document
        forward only by GEMM rounding, far below PROB_ATOL. Cached in the work
        directory, so the processes of one run compute it once.
        """
        cache = work / "reference.json"
        if not cache.exists():
            model = opentc.load_model(work / "model.docm")
            texts = _read(work / "input.txt").splitlines()
            ids = np.stack([opentc.encode(opentc.tokenize(t), model.vocab, model.config.doc_len) for t in texts])
            out = []
            for start in range(0, len(ids), 64):
                for probs in opentc.class_probabilities(opentc.forward(model.params, ids[start : start + 64]).data):
                    pred = opentc.predict_open(probs, model.thresholds)
                    label = "REJECT" if pred.is_reject else model.class_names[pred.class_index]
                    out.append((label, probs.tolist()))
            cache.write_text(json.dumps([model.class_names, out]), encoding="utf-8")
        names, out = json.loads(cache.read_text(encoding="utf-8"))
        return names, [(label, np.array(probs)) for label, probs in out]

    def check(self, work: Path, results) -> tuple[int, int, dict]:
        """Each output line: valid JSON, same label as the reference, probabilities within PROB_ATOL."""
        names, reference = self._reference(work)
        attempted = failed = 0
        for rc, stdout, _ in results:
            lines = stdout.splitlines()
            attempted += len(reference)
            if rc != 0:
                failed += len(reference)
                continue
            failed += max(0, len(reference) - len(lines))
            for line, (label, probs) in zip(lines, reference):
                try:
                    rec = json.loads(line)
                    got = np.array([rec["probs"][c] for c in names], dtype=np.float64)
                    ok = (
                        rec["prediction"] == label
                        and len(rec["probs"]) == len(names)
                        and np.allclose(got, probs, rtol=0.0, atol=PROB_ATOL)
                        and abs(rec["probability"] - probs.max()) <= PROB_ATOL
                    )
                except (TypeError, ValueError, KeyError):
                    ok = False
                failed += not ok
        return attempted, failed, {"model_file": work / "model.docm"}


class SweepRep:
    """One ``opentc experiment`` repetition at the acceptance-test shapes."""

    name = "sweep_rep"
    command = "experiment"
    docs_per_class = 100  # half the default corpus
    epochs = 2
    lr = "0.01"  # fewer steps than this leave the DOC heads rejecting every document

    def setup(self, work: Path, seed: int) -> None:
        opentc.save_jsonl(work / "corpus.jsonl", generate_synthetic_dataset(docs_per_class=self.docs_per_class, seed=seed))

    def argv(self, work: Path, seed: int) -> list[str]:
        return [
            self.command, "--data", str(work / "corpus.jsonl"), "--fractions", str(SEEN_FRACTION),
            "--reps", "1", "--seed", str(seed),
            "--vocab-size", "500", "--filters-per-width", "50", "--hidden-dim", "100",
            "--epochs", str(self.epochs), "--patience", str(self.epochs), "--lr", self.lr,
            "--report", str(work / "report.json"),
        ]  # fmt: skip

    def docs_per_command(self, work: Path, seed: int) -> int:
        return len(opentc.load_jsonl(work / "corpus.jsonl"))

    def collect(self, work: Path):
        return _read(work / "report.json")

    def check(self, work: Path, results) -> tuple[int, int, dict]:
        """Three methods, every F1 in [0, 1], report identical across commands."""
        failed, info = 0, {}
        for rc, _, report in results:
            try:
                runs = json.loads(report)["runs"]
                scores = [v for vals in runs.values() for v in vals]
                ok = (
                    rc == 0
                    and report == results[0][2]
                    and sorted(k.split("@")[0] for k in runs) == ["doc", "doc_t0.5", "softmax"]
                    and all(0.0 <= s <= 1.0 for s in scores)
                )
                info["macro_f1_doc"] = runs[f"doc@{SEEN_FRACTION}"][0]
            except (TypeError, ValueError, KeyError, IndexError):
                ok = False
            failed += not ok
        return len(results), failed, info


WORKLOADS = {w.name: w for w in (TrainPaper(), PredictCli(), SweepRep())}


def run_commands(argv: list[str], seconds: float, tracer: Tracer | None, collect, work: Path):
    """Closed loop: start the next command only after the previous one returns."""
    span = f"cli.cmd_{argv[0]}"
    walls, results = [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv) if tracer is None else tracer.span(span, cli.main, argv)
        except (Exception, SystemExit):  # a crash is a failed command, not a benchmark error
            traceback.print_exc()
            rc = None
        walls.append(perf_counter() - t0)
        results.append((rc, out.getvalue(), collect(work)))
    return walls, results


def _self_metric(span: str) -> str:
    """Per-layer metric that a span's self time is reported under."""
    parts = span.split(".")
    if parts[0] == "tensor":
        return f"tensor.{parts[1]}.{parts[2]}_ms"
    if parts[0] == "head" and parts[1] in LOSSES:
        return f"head.{parts[1]}.ms"
    if span in ("trainer.train", "trainer.training_step") or parts[0] == "cli":
        return f"{span}.self_ms"
    return f"{span}.ms"


def layer_metrics(tracer: Tracer, walls: list[float], info: dict) -> tuple[dict, bool]:
    """Per-layer metrics per CLI command, and whether the self times add up
    to the command wall time."""
    n = len(walls)
    spans = SPANS + tuple(f"cli.cmd_{w.command}" for w in WORKLOADS.values())
    self_keys = {_self_metric(span) for span in spans}
    m = dict.fromkeys(self_keys, 0.0)
    for span, seconds in tracer.self_s.items():
        m[_self_metric(span)] += seconds * 1e3 / n
    calls = {span: count / n for span, count in tracer.calls.items()}
    for op in TAPE_OPS:
        m[f"tensor.{op}.calls"] = calls.get(f"tensor.{op}.fwd", 0.0)
    conv_s = tracer.self_s.get("tensor.conv1d_valid.fwd", 0.0) + tracer.self_s.get("tensor.conv1d_valid.bwd", 0.0)
    m["tensor.conv1d_valid.gflop_per_s"] = tracer.conv_flops / conv_s / 1e9 if conv_s else 0.0
    m["tensor.conv1d_valid.im2col_mb"] = tracer.im2col_bytes_max / MIB
    forward_calls = tracer.calls.get("encoder.forward", 0)
    m["encoder.forward.docs_per_call"] = tracer.docs_forwarded / forward_calls if forward_calls else 0.0
    predicts = tracer.calls.get("head.predict_open", 0)
    m["head.predict_open.calls"] = predicts / n
    m["head.reject_frac"] = tracer.rejects / predicts if predicts else 0.0
    steps = tracer.durations.get("trainer.training_step", [])
    m["trainer.training_step.ms_p50"] = statistics.median(steps) * 1e3 if steps else 0.0
    m["trainer.training_step.calls"] = len(steps) / n
    m["trainer.epochs"] = tracer.epochs / n
    m["trainer.train_loss_final"] = info.get("train_loss_final", 0.0)
    m["evaluation.macro_f1_doc"] = info.get("macro_f1_doc", 0.0)
    m["data.encode.calls"] = calls.get("data.encode", 0.0)
    model_file = info.get("model_file")
    m["model_io.file_mb"] = model_file.stat().st_size / MIB if model_file and model_file.exists() else 0.0

    # The self times add up to the time inside root spans by construction;
    # what is checked is that the root spans cover the command wall time,
    # which run_commands takes with its own clock, up to UNATTRIBUTED_MAX.
    wall_ms = sum(walls) * 1e3 / n
    m["trace.command_ms"] = wall_ms
    m["trace.unattributed_ms"] = wall_ms - sum(m[k] for k in self_keys)
    adds_up = (
        min(m[k] for k in self_keys) >= -1e-3
        and -1e-3 <= m["trace.unattributed_ms"] <= UNATTRIBUTED_MAX * wall_ms
    )
    return m, adds_up


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["setup", "measure"])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    work = args.workdir

    if args.mode == "setup":
        work.mkdir(parents=True, exist_ok=True)
        wl.setup(work, args.seed)
        return 0

    docs = wl.docs_per_command(work, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    walls, results = run_commands(wl.argv(work, args.seed), args.seconds, tracer, wl.collect, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    if tracer is not None:
        tracer.uninstall()
    attempted, failed, info = wl.check(work, results)
    out = {
        "command_s": walls,
        "docs_per_command": docs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "machine": machine_record(),
    }
    if tracer is not None:
        out["layers"], out["adds_up"] = layer_metrics(tracer, walls, info)
        out["layers"]["tensor.gemm_ref.gflop_per_s"] = gemm_gflop_per_s()
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

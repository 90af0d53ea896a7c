"""The benchmark's tracer wraps opentc functions by name; a rename must fail here.

perfbench/tracer.py looks each traced function up with getattr and replaces
every module-level reference to it. This runs the three benchmarked CLI
commands at toy shapes under the installed tracer and checks that the
inference and training layers the benchmark reports were recorded.
"""

import contextlib
import io
from pathlib import Path

import opentc.encoder
from opentc.cli import main  # imports every opentc module the tracer patches
from opentc.data import save_jsonl
from opentc.synthetic import generate_synthetic_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TOY = [
    "--embed-dim", "8", "--doc-len", "20", "--vocab-size", "150", "--filter-widths", "2,3",
    "--filters-per-width", "4", "--hidden-dim", "8", "--epochs", "2", "--batch-size", "32",
]  # fmt: skip

TRACED = (
    "encoder.forward",
    "calibration.fit_thresholds",
    "evaluation.evaluate",
    "evaluation.evaluate_closed",
    "trainer.evaluate_loss",
    # backward spans, empty if an op's backward stops reaching the tape through push
    "tensor.embed_lookup.bwd",
    "tensor.relu.bwd",
    "tensor.dense.bwd",
    "tensor.concat.bwd",
    "head.ovr_loss.bwd",
)


def test_tracer_records_the_benchmarked_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    data = tmp_path / "toy.jsonl"
    docs = generate_synthetic_dataset(num_classes=4, docs_per_class=30, seed=2)
    save_jsonl(data, docs)
    inp = tmp_path / "docs.txt"
    inp.write_text("".join(d.text + "\n" for d in docs[::20]), encoding="utf-8")
    model = tmp_path / "m.docm"

    forward = opentc.encoder.forward
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["train", "--data", str(data), "--out", str(model), "--calibrate", *TOY]
            assert main(argv) == 0
            assert main(["predict", "--model", str(model), "--input", str(inp)]) == 0
            argv = ["experiment", "--data", str(data), "--fractions", "0.5", "--reps", "1", *TOY]
            assert main(argv) == 0
    finally:
        tracer.uninstall()

    missing = [name for name in TRACED if tracer.calls[name] == 0]
    assert not missing, f"no spans recorded for {missing}"
    assert opentc.encoder.forward is forward  # uninstall restored the module namespaces

import inspect
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opentc import cli, evaluation, parallel
from opentc.calibration import fit_thresholds
from opentc.cli import _from_flags, build_parser, main
from opentc.data import Document, encode, load_jsonl, save_jsonl, tokenize
from opentc.encoder import INFERENCE_CHUNK, ModelSpec, forward
from opentc.evaluation import ExperimentSpec
from opentc.head import class_probabilities, predict_open
from opentc.model_io import load_model
from opentc.synthetic import generate_synthetic_dataset
from opentc.trainer import HEAD_ONE_VS_REST, HEAD_SOFTMAX, TrainConfig, train


FAST_FLAGS = [
    "--embed-dim", "8",
    "--doc-len", "20",
    "--vocab-size", "150",
    "--filter-widths", "2,3",
    "--filters-per-width", "4",
    "--hidden-dim", "8",
    "--epochs", "3",
    "--batch-size", "32",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.jsonl"
    docs = generate_synthetic_dataset(num_classes=3, docs_per_class=40, seed=1)
    save_jsonl(path, docs)
    return str(path)


def _train(dataset, out, *extra):
    rc = main(["train", "--data", dataset, "--out", str(out), "--seed", "0", *FAST_FLAGS, *extra])
    assert rc == 0
    return str(out)


def test_train_writes_model_and_report(dataset, tmp_path, capsys):
    report = tmp_path / "report.json"
    _train(dataset, tmp_path / "m.docm", "--report", str(report))
    out = capsys.readouterr().out
    assert "saved model" in out
    rep = json.loads(report.read_text())
    assert "train_losses" in rep and len(rep["train_losses"]) >= 1


def test_train_with_calibrate_then_predict_json(dataset, tmp_path, capsys):
    model = _train(dataset, tmp_path / "m.docm", "--calibrate")
    capsys.readouterr()
    inp = tmp_path / "docs.txt"
    inp.write_text("cls0kw00 cls0kw01 cls0kw02 cls0kw03\n")
    rc = main(["predict", "--model", model, "--input", str(inp)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out.strip())
    assert set(rec) == {"prediction", "probability", "probs", "margins"}
    assert rec["prediction"] in {"class0", "class1", "class2", "REJECT"}
    assert set(rec["probs"]) == {"class0", "class1", "class2"}
    assert set(rec["margins"]) == {"class0", "class1", "class2"}


def test_predict_tsv_format_and_t_override(dataset, tmp_path, capsys):
    model = _train(dataset, tmp_path / "m.docm")
    capsys.readouterr()
    inp = tmp_path / "docs.txt"
    inp.write_text("cls1kw00 cls1kw01\nunrelated gibberish words\n")
    rc = main(["predict", "--model", model, "--input", str(inp), "--format", "tsv", "--t", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    cols = lines[0].split("\t")
    assert len(cols) == 2 + 3  # name, top prob, one prob per class


def test_predict_without_thresholds_errors(dataset, tmp_path, capsys):
    model = _train(dataset, tmp_path / "m.docm")  # no --calibrate
    capsys.readouterr()
    inp = tmp_path / "docs.txt"
    inp.write_text("anything\n")
    rc = main(["predict", "--model", model, "--input", str(inp)])
    assert rc == 2
    assert "calibrate" in capsys.readouterr().err


def test_calibrate_command_updates_model(dataset, tmp_path, capsys):
    model = _train(dataset, tmp_path / "m.docm")
    rc = main(["calibrate", "--model", model, "--data", dataset, "--alpha", "2.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sigma" in out and "class0" in out
    loaded = load_model(model)
    assert loaded.thresholds is not None
    assert loaded.thresholds.alpha == 2.0
    assert (loaded.thresholds.t >= 0.5).all()


def test_calibrate_refuses_classes_the_model_does_not_know(calibrated_model, tmp_path, capsys):
    data, model = tmp_path / "four.jsonl", tmp_path / "m.docm"
    save_jsonl(data, generate_synthetic_dataset(num_classes=5, docs_per_class=2, seed=0))
    model.write_bytes(Path(calibrated_model).read_bytes())
    assert main(["calibrate", "--model", str(model), "--data", str(data)]) == 2
    assert capsys.readouterr().err == "error: data contains classes unknown to the model: ['class3', 'class4']\n"
    assert model.read_bytes() == Path(calibrated_model).read_bytes()


def test_a_validation_divergence_exits_3_and_names_the_pass(dataset, tmp_path, capsys):
    # one batch per epoch: the step that diverges is the validation pass after it
    argv = ["train", "--data", dataset, "--out", str(tmp_path / "m.docm"), *FAST_FLAGS, "--batch-size", "1000"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--lr", "1e308"]) == 3
    assert capsys.readouterr().err == "error: non-finite validation loss at epoch 0\n"
    assert not (tmp_path / "m.docm").exists()


def test_inspect_command(dataset, tmp_path, capsys):
    model = _train(dataset, tmp_path / "m.docm", "--calibrate")
    capsys.readouterr()
    rc = main(["inspect", "--model", model])
    assert rc == 0
    out = capsys.readouterr().out
    assert "format: DOCM v1" in out.splitlines()
    assert "head: one_vs_rest" in out
    assert "class0" in out and "thresholds" in out
    tv = load_model(model).thresholds
    for name, t, sigma in zip(["class0", "class1", "class2"], tv.t, tv.sigma):
        assert f"  {name}: {t:.6f} (sigma={sigma:.6f})" in out.splitlines()


def test_experiment_command(dataset, tmp_path, capsys):
    report = tmp_path / "exp.json"
    rc = main(
        [
            "experiment",
            "--data", dataset,
            "--fractions", "1.0",
            "--reps", "1",
            "--seed", "0",
            "--report", str(report),
            *FAST_FLAGS,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "doc" in out and "softmax" in out and "100%" in out
    rep = json.loads(report.read_text())
    assert "summary" in rep and "doc@1.0" in rep["summary"]


def test_missing_data_file_exit_code(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "m"), *FAST_FLAGS])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_data_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "m"), *FAST_FLAGS])
    assert rc == 2


def test_corrupt_model_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.docm"
    bad.write_bytes(b"garbage")
    rc = main(["inspect", "--model", str(bad)])
    assert rc == 2


def test_pretrained_embeddings_flag(dataset, tmp_path, capsys):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text("cls0kw00 " + " ".join(["0.1"] * 8) + "\n")
    model = _train(dataset, tmp_path / "m.docm", "--pretrained", str(vecs))
    err = capsys.readouterr().err
    assert "pretrained vectors loaded for 1 tokens" in err


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.fixture(scope="module")
def calibrated_model(dataset, tmp_path_factory):
    return _train(dataset, tmp_path_factory.mktemp("model") / "m.docm", "--calibrate")


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "{dir}", "--out", "{dir}/m.docm"],
        ["calibrate", "--model", "{dir}", "--data", "{data}"],
        ["calibrate", "--model", "{model}", "--data", "{dir}"],
        ["predict", "--model", "{dir}", "--input", "{data}"],
        ["predict", "--model", "{model}", "--input", "{dir}"],
        ["experiment", "--data", "{dir}"],
        ["inspect", "--model", "{dir}"],
    ],
    ids=[
        "train-data",
        "calibrate-model",
        "calibrate-data",
        "predict-model",
        "predict-input",
        "experiment-data",
        "inspect-model",
    ],
)
def test_directory_path_exit_code(argv, dataset, calibrated_model, tmp_path, capsys):
    paths = {"dir": tmp_path, "data": dataset, "model": calibrated_model}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("t", ["nan", "1.5", "-0.1"])
def test_predict_threshold_outside_unit_interval_exit_code(calibrated_model, tmp_path, capsys, t):
    inp = tmp_path / "docs.txt"
    inp.write_text("cls0kw00 cls0kw01\n")
    assert main(["predict", "--model", calibrated_model, "--input", str(inp), "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def _predict_lines(model, inp, capsys, *extra):
    assert main(["predict", "--model", model, "--input", str(inp), *extra]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.mark.parametrize("t", [None, "0", "1"], ids=["fitted", "t-0", "t-1"])
def test_predict_json_margins_explain_a_reject(dataset, calibrated_model, tmp_path, capsys, t):
    inp = tmp_path / "docs.txt"
    texts = [d.text for d in load_jsonl(dataset)[::4]] + ["unrelated gibberish words"]
    inp.write_text("".join(text + "\n" for text in texts))
    records = _predict_lines(calibrated_model, inp, capsys, *([] if t is None else ["--t", t]))
    model = load_model(calibrated_model)
    thresholds = model.thresholds.t if t is None else np.full(3, float(t))
    for rec in records:
        margins = [rec["margins"][c] for c in model.class_names]
        assert margins == [rec["probs"][c] - ti for c, ti in zip(model.class_names, thresholds)]
        assert (rec["prediction"] == "REJECT") == all(d < 0 for d in margins)
    if t is not None:  # every probability lies in (0, 1)
        assert {rec["prediction"] == "REJECT" for rec in records} == {t == "1"}


def test_predict_chunks_agree_with_one_document_forwards(calibrated_model, tmp_path, capsys):
    n = 2 * INFERENCE_CHUNK + 4  # two full chunks and a partial one
    texts = [d.text for d in generate_synthetic_dataset(num_classes=3, docs_per_class=-(-n // 3), seed=1)[:n]]
    texts.insert(INFERENCE_CHUNK + 3, "")  # an empty line is a document of PAD only
    inp = tmp_path / "docs.txt"
    inp.write_text("\n".join(texts), encoding="utf-8")  # no newline after the last line
    records = _predict_lines(calibrated_model, inp, capsys)
    assert len(records) == len(texts) == 2 * INFERENCE_CHUNK + 5
    model = load_model(calibrated_model)
    for rec, text in zip(records, texts):
        ids = encode(tokenize(text), model.vocab, model.config.doc_len)
        probs = class_probabilities(forward(model.params, ids).data)
        pred = predict_open(probs, model.thresholds)
        assert rec["prediction"] == ("REJECT" if pred.is_reject else model.class_names[pred.class_index])
        got = [rec["probs"][c] for c in model.class_names]
        np.testing.assert_allclose(got, probs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_predict_ends_a_line_at_newline_only(calibrated_model, texts, source, tmp_path, monkeypatch, capsys):
    def predict(raw: bytes) -> str:
        if source == "file":
            inp = tmp_path / "docs.txt"
            inp.write_bytes(raw)
            assert main(["predict", "--model", calibrated_model, "--input", str(inp)]) == 0
        else:
            r, w = os.pipe()
            os.write(w, raw)  # well under a pipe's buffer
            os.close(w)
            with os.fdopen(r, "rb") as pipe:
                monkeypatch.setattr(sys, "stdin", pipe)
                assert main(["predict", "--model", calibrated_model]) == 0
        return capsys.readouterr().out

    lone_cr = predict(b"cls0kw00\rcls0kw01\nunrelated words\n")
    assert len(lone_cr.splitlines()) == 2  # a lone CR separates two words of one document
    assert lone_cr == predict(b"cls0kw00 cls0kw01\nunrelated words\n")
    lf = "".join(text + "\n" for text in texts[:20]).encode()
    assert predict(lf.replace(b"\n", b"\r\n")) == predict(lf)


def test_predict_empty_input_prints_nothing(calibrated_model, tmp_path, capsys):
    inp = tmp_path / "empty.txt"
    inp.write_text("")
    assert _predict_lines(calibrated_model, inp, capsys) == []


def _experiment_error(dataset, capsys) -> tuple[int, str]:
    rc = main(["experiment", "--data", dataset, "--fractions", "0.5", "--reps", "1", *FAST_FLAGS])
    return rc, capsys.readouterr().err


def test_a_softmax_divergence_in_the_child_exits_3_like_a_serial_run(forks, dataset, monkeypatch, capsys):
    def softmax_diverges(split, enc_cfg, cfg, *, seed, head=HEAD_ONE_VS_REST):
        if head == HEAD_SOFTMAX:
            cfg = replace(cfg, lr=1e300)
        return real_train(split, enc_cfg, cfg, seed=seed, head=head)

    real_train = evaluation.train
    monkeypatch.setattr(evaluation, "train", softmax_diverges)
    with np.errstate(over="ignore", invalid="ignore"):
        rc, err = _experiment_error(dataset, capsys)
        assert len(forks) == 1 and rc == 3 and err.startswith("error: non-finite loss at epoch 0, batch ")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _experiment_error(dataset, capsys) == (rc, err)


def test_a_child_that_dies_exits_2(forks, dataset, monkeypatch, capsys):
    def softmax_killed(split, enc_cfg, cfg, *, seed, head=HEAD_ONE_VS_REST):
        if head == HEAD_SOFTMAX:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_train(split, enc_cfg, cfg, seed=seed, head=head)

    real_train = evaluation.train
    monkeypatch.setattr(evaluation, "train", softmax_killed)
    rc, err = _experiment_error(dataset, capsys)
    assert (rc, err) == (2, "error: forked child ended without a result (killed by signal 9)\n")


def test_main_runs_at_one_blas_thread_and_gives_the_count_back(two_blas_threads, monkeypatch):
    inside = []
    monkeypatch.setitem(cli._COMMANDS, "inspect", lambda args: inside.append(two_blas_threads()) or 0)
    assert main(["inspect", "--model", "m.docm"]) == 0
    counts = two_blas_threads()
    assert inside == [[1] * len(counts)] and counts == [2] * len(counts)


def test_train_and_predict_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    if not parallel._openblas():
        pytest.skip("no OpenBLAS is loaded; the CLI runs at the BLAS build's own thread setting")
    data, inp = tmp_path / "corpus.jsonl", tmp_path / "docs.txt"
    save_jsonl(data, generate_synthetic_dataset(num_classes=4, docs_per_class=30, seed=0))
    inp.write_text("".join(d.text + "\n" for d in generate_synthetic_dataset(num_classes=4, docs_per_class=5, seed=1)))
    outputs = []
    for threads in ("1", "2"):
        # the paper shapes: GEMMs large enough that two OpenBLAS threads round differently
        model = tmp_path / f"m{threads}.docm"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        command = [sys.executable, "-m", "opentc.cli"]
        train_argv = ["train", "--data", str(data), "--out", str(model), "--calibrate", "--epochs", "1"]
        subprocess.run([*command, *train_argv], env=env, check=True, capture_output=True, timeout=120)
        predict_argv = ["predict", "--model", str(model), "--input", str(inp)]
        done = subprocess.run([*command, *predict_argv], env=env, check=True, capture_output=True, timeout=120)
        outputs.append((model.read_bytes(), done.stdout))
    assert outputs[0] == outputs[1]


def _predict_in_subprocess(model, *extra) -> dict:
    """Keyword arguments of ``subprocess`` for ``opentc predict`` in a fresh interpreter."""
    argv = [sys.executable, "-m", "opentc.cli", "predict", "--model", model, *extra]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)  # a pipe to stdout is block-buffered, as in a plain shell
    return {"args": argv, "env": env}


@pytest.mark.parametrize("source", ["stdin", "file"])
def test_predict_non_utf8_input_exits_2(calibrated_model, tmp_path, source):
    raw = b"cls0kw00 cls0kw01\n\xff bad\n"
    inp = tmp_path / "docs.txt"
    inp.write_bytes(raw)
    extra = ["--input", str(inp)] if source == "file" else []
    command = _predict_in_subprocess(calibrated_model, *extra)
    done = subprocess.run(**command, input=raw, capture_output=True, timeout=60)
    assert done.returncode == 2, done.stdout
    assert b"error: 'utf-8' codec can't decode byte 0xff" in done.stderr
    assert b"Traceback" not in done.stderr


def test_predict_streams_a_chunk_before_stdin_closes(calibrated_model):
    pipes = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE, "stderr": subprocess.DEVNULL}
    proc = subprocess.Popen(**_predict_in_subprocess(calibrated_model), **pipes)
    try:
        proc.stdin.write(b"cls0kw00 cls0kw01\n" * INFERENCE_CHUNK)
        proc.stdin.flush()  # and leave stdin open
        lines = []

        def read() -> None:
            lines.extend(proc.stdout.readline() for _ in range(INFERENCE_CHUNK))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=60)
        assert len(lines) == INFERENCE_CHUNK and all(json.loads(line)["probs"] for line in lines)
        proc.stdin.close()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()


@pytest.fixture(scope="module")
def texts():
    """512 input lines from four synthetic classes; ``calibrated_model`` was trained on three."""
    return [d.text for d in generate_synthetic_dataset(num_classes=4, docs_per_class=128, seed=2)]


def _input_file(tmp_path, lines) -> str:
    inp = tmp_path / "docs.txt"
    inp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(inp)


def _predict_both_ways(argv, monkeypatch, capsys) -> tuple:
    """(rc, (stdout, stderr)) of ``argv`` with two CPUs in view, once they
    are checked to equal a run on one CPU, which renders every chunk in this
    process."""
    two_cpus = (main(argv), tuple(capsys.readouterr()))
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert (main(argv), tuple(capsys.readouterr())) == two_cpus
    return two_cpus


@pytest.mark.parametrize("mode", [["--format", "json"], ["--format", "tsv"], ["--t", "0.5"]], ids=["json", "tsv", "t"])
@pytest.mark.parametrize("n", [0, 1, INFERENCE_CHUNK, INFERENCE_CHUNK + 1, 2 * INFERENCE_CHUNK + 1, 512])
def test_the_predict_worker_changes_no_byte(forks, calibrated_model, texts, tmp_path, monkeypatch, capsys, n, mode):
    argv = ["predict", "--model", calibrated_model, "--input", _input_file(tmp_path, texts[:n]), *mode]
    rc, (out, err) = _predict_both_ways(argv, monkeypatch, capsys)
    assert (rc, len(out.splitlines()), err) == (0, n, "")
    assert len(forks) == (n > INFERENCE_CHUNK)  # one worker per command, and none for one chunk


def test_predict_forks_no_worker_for_a_pipe(forks, calibrated_model, texts, monkeypatch, capsys):
    r, w = os.pipe()

    def feed() -> None:
        with os.fdopen(w, "w", encoding="utf-8") as pipe:
            pipe.write("".join(text + "\n" for text in texts[:129]))

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with os.fdopen(r, encoding="utf-8") as pipe:
        monkeypatch.setattr(sys, "stdin", pipe)
        assert main(["predict", "--model", calibrated_model]) == 0
    writer.join(timeout=60)
    assert not writer.is_alive() and forks == [] and len(capsys.readouterr().out.splitlines()) == 129


def test_a_decode_error_in_the_look_ahead_prints_the_chunk_before_it(
    forks, calibrated_model, texts, tmp_path, monkeypatch, capsys
):
    inp = _input_file(tmp_path, texts)
    lines = Path(inp).read_bytes().split(b"\n")
    lines[230] = b"\xff bad"
    Path(inp).write_bytes(b"\n".join(lines))
    rc, (out, err) = _predict_both_ways(["predict", "--model", calibrated_model, "--input", inp], monkeypatch, capsys)
    assert rc == 2 and err.startswith("error: 'utf-8' codec can't decode byte 0xff") and len(forks) == 1
    # the failed read was chunk 3, a look-ahead: chunks 0 to 2 were printed
    assert len(out.splitlines()) == 3 * INFERENCE_CHUNK


def test_out_of_memory_in_the_predict_worker_exits_2(forks, calibrated_model, texts, tmp_path, monkeypatch, capsys):
    def encode_or_fail(tokens, vocab, doc_len):
        if tokens == ["poison"]:
            raise MemoryError("poison")
        return encode(tokens, vocab, doc_len)

    monkeypatch.setattr(cli, "encode", encode_or_fail)
    lines = texts[: 2 * INFERENCE_CHUNK]
    lines[INFERENCE_CHUNK + 5] = "poison"  # in chunk 1, which the worker renders
    inp = _input_file(tmp_path, lines)
    rc, (out, err) = _predict_both_ways(["predict", "--model", calibrated_model, "--input", inp], monkeypatch, capsys)
    assert (rc, err, len(out.splitlines())) == (2, "error: out of memory: poison\n", INFERENCE_CHUNK)
    assert len(forks) == 1


def test_an_interrupt_in_predict_leaves_no_worker(forks, calibrated_model, texts, tmp_path, monkeypatch):
    parent, chunks = os.getpid(), []

    def interrupted(logits):
        if os.getpid() == parent:
            chunks.append(len(logits))
            if len(chunks) == 2:  # chunk 2, while the worker holds chunk 3
                raise KeyboardInterrupt
        return class_probabilities(logits)

    monkeypatch.setattr(cli, "class_probabilities", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["predict", "--model", calibrated_model, "--input", _input_file(tmp_path, texts)])
    assert len(forks) == 1  # and the fixture checks that it was reaped


def test_predict_exits_0_when_its_reader_closes(calibrated_model, texts, tmp_path):
    inp = _input_file(tmp_path, texts)  # output well past a pipe buffer
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    proc = subprocess.Popen(**_predict_in_subprocess(calibrated_model, "--input", inp), **pipes)
    try:
        assert json.loads(proc.stdout.readline())["probs"]
        proc.stdout.close()  # as `| head -1` does
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


READER_GONE_ARGV = {
    "train": ["--data", "{data}", "--out", "{tmp}/out.docm", *FAST_FLAGS, "--epochs", "1"],
    "calibrate": ["--model", "{tmp}/m.docm", "--data", "{data}"],
    "predict": ["--model", "{tmp}/m.docm", "--input", "{tmp}/docs.txt"],
    "experiment": ["--data", "{data}", "--fractions", "1.0", "--reps", "1", *FAST_FLAGS, "--epochs", "1"],
    "inspect": ["--model", "{tmp}/m.docm"],
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", READER_GONE_ARGV)
def test_every_command_exits_0_when_its_reader_is_gone(command, unbuffered, dataset, calibrated_model, tmp_path, capsys):
    Path(tmp_path, "m.docm").write_bytes(Path(calibrated_model).read_bytes())
    Path(tmp_path, "docs.txt").write_text("cls0kw00 cls0kw01\nunrelated words\n", encoding="utf-8")
    argv = [command, *(arg.format(data=dataset, tmp=tmp_path) for arg in READER_GONE_ARGV[command])]
    if command == "experiment":  # the report of a run whose output is read, to compare against
        assert main([*argv, "--report", str(tmp_path / "read.json")]) == 0
        capsys.readouterr()
        argv += ["--report", str(tmp_path / "gone.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"  # each print writes at once, inside the command
    reader, writer = os.pipe()
    os.close(reader)  # gone before the command writes, as `| true` is
    try:
        process = [sys.executable, "-m", "opentc.cli", *argv]
        done = subprocess.run(process, env=env, stdout=writer, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(writer)
    assert (done.returncode, done.stderr) == (0, b"")
    if command == "experiment":
        assert Path(tmp_path, "gone.json").read_bytes() == Path(tmp_path, "read.json").read_bytes()


def _with_section(raw: bytes, index: int, payload: bytes) -> bytes:
    """Model bytes ``raw`` with section ``index`` (0 the header, 1 the vocabulary) replaced by ``payload``."""
    at = 8  # after the magic and the version
    for _ in range(index):
        at += 8 + struct.unpack_from("<Q", raw, at)[0]
    end = at + 8 + struct.unpack_from("<Q", raw, at)[0]
    return raw[:at] + struct.pack("<Q", len(payload)) + payload + raw[end:]


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "{deep_data}", "--out", "{tmp}/m.docm", *FAST_FLAGS],
        ["experiment", "--data", "{deep_data}", *FAST_FLAGS],
        ["calibrate", "--model", "{model}", "--data", "{deep_data}"],
        ["calibrate", "--model", "{deep_header}", "--data", "{data}"],
        ["inspect", "--model", "{deep_header}"],
        ["inspect", "--model", "{deep_vocab}"],
        ["predict", "--model", "{deep_header}", "--input", "{data}"],
        ["predict", "--model", "{deep_vocab}", "--input", "{data}"],
    ],
    ids=[
        "train-data",
        "experiment-data",
        "calibrate-data",
        "calibrate-header",
        "inspect-header",
        "inspect-vocabulary",
        "predict-header",
        "predict-vocabulary",
    ],
)
def test_json_nested_too_deeply_exits_2(argv, dataset, calibrated_model, tmp_path, capsys, no_training):
    deep = b"[" * 100_000
    raw = Path(calibrated_model).read_bytes()
    paths = {
        "tmp": tmp_path / "out",
        "data": dataset,
        "model": tmp_path / "model.docm",
        "deep_data": tmp_path / "deep.jsonl",
        "deep_header": tmp_path / "deep_header.docm",
        "deep_vocab": tmp_path / "deep_vocab.docm",
    }
    paths["tmp"].mkdir()
    paths["model"].write_bytes(raw)
    paths["deep_data"].write_bytes(b'{"label": "a", "text": "x"}\n' + deep + b"\n")
    paths["deep_header"].write_bytes(_with_section(raw, 0, deep))
    paths["deep_vocab"].write_bytes(_with_section(raw, 1, deep))
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err
    assert ("line 2:" in err) == ("{deep_data}" in argv)
    assert list(paths["tmp"].iterdir()) == [] and paths["model"].read_bytes() == raw


@pytest.mark.parametrize("command", ["train", "experiment", "calibrate"])
def test_non_string_jsonl_field_exits_2(command, calibrated_model, tmp_path, capsys, no_training):
    data = tmp_path / "d.jsonl"
    data.write_text('{"label": "a", "text": "x"}\n{"label": "b", "text": null}\n')
    model = tmp_path / "m.docm"
    flags = {
        "train": ["--out", str(model), *FAST_FLAGS],
        "experiment": FAST_FLAGS,
        "calibrate": ["--model", str(model)],
    }[command]
    if command == "calibrate":
        model.write_bytes(Path(calibrated_model).read_bytes())
    assert main([command, "--data", str(data), *flags]) == 2
    err = capsys.readouterr().err
    assert "error: line 2: 'label' and 'text' must be strings" in err


@pytest.fixture
def no_training(monkeypatch):
    """Fail the test if training starts: bad input must be refused before it."""

    def fail(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("opentc.cli.train", fail)
    monkeypatch.setattr("opentc.evaluation.train", fail)


def test_train_calibrate_with_nan_alpha_writes_no_model(dataset, tmp_path, capsys, no_training):
    out = tmp_path / "m.docm"
    argv = ["train", "--data", dataset, "--out", str(out), "--calibrate", "--alpha", "nan"]
    assert main([*argv, *FAST_FLAGS]) == 2
    assert "alpha" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--out", "{tmp}/missing/m.docm"],
        ["train", "--out", "{tmp}"],
        ["train", "--out", "{tmp}/m.docm", "--report", "{tmp}/missing/report.json"],
        ["train", "--out", "{tmp}/m.docm", "--lr", "nan"],
        ["train", "--out", "{tmp}/m.docm", "--lr", "inf"],
        ["experiment", "--alpha", "nan"],
        ["experiment", "--report", "{tmp}/missing/report.json"],
        ["experiment", "--report", "{tmp}"],
        ["experiment", "--fractions", "0.5,0.5"],
        ["experiment", "--lr", "inf"],
        ["train", "--out", "{tmp}/m.docm", "--filter-widths", "0"],
        ["train", "--out", "{tmp}/m.docm", "--filter-widths=-1"],
        ["experiment", "--filter-widths", "0,2"],
        ["train", "--out", ""],
        ["train", "--out", "{tmp}/m.docm", "--report", ""],
        ["experiment", "--report", ""],
        ["train", "--out", "{tmp}/m.docm", "--pretrained", ""],
    ],
    ids=[
        "train-out-dir-missing",
        "train-out-is-dir",
        "train-report-dir-missing",
        "train-lr-nan",
        "train-lr-inf",
        "experiment-alpha-nan",
        "experiment-report-dir-missing",
        "experiment-report-is-dir",
        "experiment-duplicate-fractions",
        "experiment-lr-inf",
        "train-filter-width-0",
        "train-filter-width-negative",
        "experiment-filter-width-0",
        "train-out-empty",
        "train-report-empty",
        "experiment-report-empty",
        "train-pretrained-empty",
    ],
)
def test_bad_input_exits_2_before_training(argv, dataset, tmp_path, capsys, no_training):
    command, *flags = argv
    flags = [flag.format(tmp=tmp_path) for flag in flags]
    assert main([command, "--data", dataset, *FAST_FLAGS, *flags]) == 2  # flags override FAST_FLAGS
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_pretrained_vector_exit_code(dataset, tmp_path, capsys, no_training):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text("cls0kw00 nan " + " ".join(["0.1"] * 7) + "\n")
    argv = ["train", "--data", dataset, "--out", str(tmp_path / "m.docm"), "--pretrained", str(vecs)]
    assert main([*argv, *FAST_FLAGS]) == 2
    assert "line 1: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "m.docm").exists()


def test_malformed_vector_of_unknown_token_exit_code(dataset, tmp_path, capsys, no_training):
    vecs = tmp_path / "vecs.txt"
    vecs.write_text("zzz nan abc 1 2\nyyy 1 2 3 4\n")  # tokens outside the vocabulary
    argv = ["train", "--data", dataset, "--out", str(tmp_path / "m.docm"), "--pretrained", str(vecs)]
    assert main([*argv, *FAST_FLAGS, "--embed-dim", "4"]) == 2
    assert "line 1: non-numeric value" in capsys.readouterr().err
    assert not (tmp_path / "m.docm").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "d.jsonl", "--out", "m.docm", "--filter-widths", "3,x"],
        ["experiment", "--data", "d.jsonl", "--filter-widths", "3,,4"],
        ["experiment", "--data", "d.jsonl", "--fractions", "a"],
        ["experiment", "--data", "d.jsonl", "--fractions", "0.5,"],
    ],
)
def test_malformed_comma_separated_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 1
    assert "invalid comma-separated" in capsys.readouterr().err


def _non_default(value):
    """A valid flag value other than ``value``, and the field value it parses to."""
    if isinstance(value, tuple):
        other = tuple(v + 1 if isinstance(v, int) else v / 2 for v in value)  # fractions stay in (0, 1]
        return ",".join(map(str, other)), other
    other = value * 2 if isinstance(value, float) else value + 1
    return str(other), other


def test_generated_flags_round_trip():
    parser = build_parser()
    train_argv, experiment_argv = ["train", "--data", "d.jsonl", "--out", "m.docm"], ["experiment", "--data", "d.jsonl"]
    args = parser.parse_args(train_argv)
    assert _from_flags(ModelSpec, args) == ModelSpec()
    assert _from_flags(TrainConfig, args) == TrainConfig()
    assert args.alpha == inspect.signature(fit_thresholds).parameters["alpha"].default
    assert args.seed == inspect.signature(train).parameters["seed"].default
    args = parser.parse_args(["calibrate", "--model", "m.docm", "--data", "d.jsonl"])
    assert args.alpha == inspect.signature(fit_thresholds).parameters["alpha"].default

    def experiment(*flags):
        return _from_flags(ExperimentSpec, parser.parse_args([*experiment_argv, *flags]))

    assert experiment() == ExperimentSpec()
    for name in ["fractions", "reps", "seed", "alpha"]:
        text, want = _non_default(getattr(ExperimentSpec(), name))
        assert experiment(f"--{name}", text) == replace(ExperimentSpec(), **{name: want})
    for cls, part in [(ModelSpec, "model"), (TrainConfig, "train_config")]:
        for f in fields(cls):
            text, want = _non_default(f.default)
            flag = f"--{f.name.replace('_', '-')}"
            assert getattr(_from_flags(cls, parser.parse_args([*train_argv, flag, text])), f.name) == want
            assert getattr(getattr(experiment(flag, text), part), f.name) == want


def test_train_seed_reaches_the_seed_argument(dataset, tmp_path, monkeypatch):
    calls = []

    def stop(split, enc_cfg, config, *, initial_params=None, **kwargs):
        calls.append((config, kwargs))
        raise ValueError("stopped before training")

    monkeypatch.setattr("opentc.cli.train", stop)
    assert main(["train", "--data", dataset, "--out", str(tmp_path / "m.docm"), "--seed", "7", *FAST_FLAGS]) == 2
    assert calls == [(TrainConfig(batch_size=32, epochs=3), {"seed": 7})]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["train", "--out", "{tmp}/m.docm", "--filter-widths", "0"], "filter widths must be >= 1"),
        (["experiment", "--filter-widths", "2,1"], "filter_widths must be ascending"),
        (["train", "--out", "{tmp}/m.docm", "--vocab-size", "1"], "vocab_size must be >= 3 (PAD, UNK and one token), got 1"),
        (["experiment", "--vocab-size", "2"], "vocab_size must be >= 3 (PAD, UNK and one token), got 2"),
        (["train", "--out", "{tmp}/m.docm", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["experiment", "--seed=-1"], "seed must be >= 0, got -1"),
        (["train", "--out", "{tmp}/m.docm", "--seen-fraction", "0"], "seen fraction must lie in (0, 1], got 0.0"),
        (["experiment", "--fractions", "0.5,1.5"], "seen fraction must lie in (0, 1], got 1.5"),
    ],
    ids=[
        "train", "experiment", "train-vocab-size-1", "experiment-vocab-size-2", "train-seed", "experiment-seed",
        "train-seen-fraction", "experiment-fractions",
    ],
)
def test_shape_error_comes_before_the_data_file(argv, error, tmp_path, capsys):
    command, *flags = argv
    assert main([command, "--data", str(tmp_path / "missing.jsonl"), *[f.format(tmp=tmp_path) for f in flags]]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("report", ["{tmp}/m.docm", "{tmp}/./sub/../m.docm"], ids=["same", "same-file-other-name"])
def test_train_refuses_one_path_for_model_and_report(report, dataset, tmp_path, capsys, no_training):
    (tmp_path / "sub").mkdir()
    argv = ["train", "--data", dataset, "--out", str(tmp_path / "m.docm"), "--report", report.format(tmp=tmp_path)]
    assert main([*argv, *FAST_FLAGS]) == 2
    assert "output paths name the same file" in capsys.readouterr().err
    assert not (tmp_path / "m.docm").exists()


@pytest.mark.parametrize(
    "command, read, written",
    [
        ("train", "--data", "--out"),
        ("train", "--data", "--report"),
        ("train", "--pretrained", "--out"),
        ("train", "--pretrained", "--report"),
        ("experiment", "--data", "--report"),
    ],
    ids=["train-data-out", "train-data-report", "train-pretrained-out", "train-pretrained-report", "experiment-data-report"],
)
def test_an_output_that_names_an_input_is_refused_before_any_work(
    command, read, written, dataset, tmp_path, monkeypatch, capsys, no_training
):
    def not_read(path):
        raise AssertionError("dataset read")

    monkeypatch.setattr(cli, "load_jsonl", not_read)
    (tmp_path / "sub").mkdir()
    data, vectors = tmp_path / "c.jsonl", tmp_path / "v.txt"
    data.write_bytes(Path(dataset).read_bytes())
    vectors.write_text("cls0kw00 " + " ".join(["0.1"] * 8) + "\n")
    paths = {"--data": data, "--pretrained": vectors, "--out": tmp_path / "m.docm", "--report": tmp_path / "r.json"}
    paths[written] = tmp_path / "sub" / ".." / paths[read].name  # the input's file under another name
    flags = {"train": ["--data", "--out", "--report", "--pretrained"], "experiment": ["--data", "--report"]}[command]
    before = {path: path.read_bytes() for path in (data, vectors)}
    assert main([command, *FAST_FLAGS, *[arg for flag in flags for arg in (flag, str(paths[flag]))]]) == 2
    assert capsys.readouterr().err == f"error: output path names an input file: {paths[written]}\n"
    assert {path: path.read_bytes() for path in (data, vectors)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "sub", "v.txt"]


@pytest.mark.parametrize("target", ["model", "train-report", "experiment-report"])
def test_failed_rename_keeps_the_previous_file(target, dataset, tmp_path, monkeypatch, capsys):
    out, report = tmp_path / "m.docm", tmp_path / "report.json"
    command, *flags = {
        "model": ["train", "--out", str(out)],
        "train-report": ["train", "--out", str(out), "--report", str(report)],
        "experiment-report": ["experiment", "--fractions", "1.0", "--reps", "1", "--report", str(report)],
    }[target]
    path = out if target == "model" else report
    path.write_bytes(b"previous")
    real_replace = os.replace

    def replace(src, dst):
        if os.fspath(dst) == str(path):
            raise OSError("rename failed")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main([command, "--data", dataset, *flags, *FAST_FLAGS]) == 2
    assert "rename failed" in capsys.readouterr().err
    assert path.read_bytes() == b"previous"
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("flag", ["--doc-len", "--embed-dim", "--filters-per-width", "--hidden-dim"])
def test_size_too_large_to_allocate_exits_2(flag, dataset, tmp_path, capsys):
    # 1e11 entries fail at once, before any allocation, on any machine
    argv = ["train", "--data", dataset, "--out", str(tmp_path / "m.docm"), *FAST_FLAGS, flag, str(10**11)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: out of memory" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


TOY_FLAGS = [
    "--embed-dim", "4",
    "--doc-len", "8",
    "--vocab-size", "40",
    "--filter-widths", "2,3",
    "--filters-per-width", "2",
    "--hidden-dim", "4",
    "--epochs", "1",
    "--batch-size", "16",
]

# One valid command line per subcommand; the property test replaces one flag's value.
VALID_ARGV = {
    "train": [
        "--data", "{data}", "--out", "{out}", "--report", "{report}", "--pretrained", "{vectors}",
        "--calibrate", "--alpha", "2", "--seed", "0", "--seen-fraction", "1.0", *TOY_FLAGS,
    ],
    "calibrate": ["--model", "{model}", "--data", "{data}", "--alpha", "2"],
    "predict": ["--model", "{model}", "--input", "{text}", "--t", "0.5"],
    "experiment": [
        "--data", "{data}", "--fractions", "1.0", "--reps", "1", "--seed", "0", "--alpha", "2",
        "--report", "{report}", *TOY_FLAGS,
    ],
    "inspect": ["--model", "{model}"],
}

BAD_VALUES = ["nan", "inf", "-1", "0", "", "x", "3,,4", "1e309", "2,1"]
BAD_PATHS = ["{dir}", "{missing}", "{noise}", "{data}", "{model}", "{text}"]  # the last three: a wrong kind


@pytest.fixture(scope="module")
def cli_inputs(dataset, calibrated_model):
    """The contents of every input file a command line of VALID_ARGV names."""
    return {
        "data": Path(dataset).read_bytes(),
        "model": Path(calibrated_model).read_bytes(),
        "text": b"cls0kw00 cls0kw01\nunrelated words\n",
        "vectors": ("cls0kw00 " + " ".join(["0.1"] * 4) + "\n").encode(),
        "noise": bytes(range(256)) * 4,
    }


@pytest.mark.parametrize("command", VALID_ARGV)
@settings(max_examples=300)  # above every subcommand's flags x values, so every case runs
@given(data=st.data())
def test_any_bad_flag_value_exits_0_to_3(command, cli_inputs, data):
    argv = VALID_ARGV[command]
    valued = [i + 1 for i, a in enumerate(argv[:-1]) if a.startswith("--") and not argv[i + 1].startswith("--")]
    at = data.draw(st.sampled_from(valued), label="value index")
    bad = data.draw(st.sampled_from(BAD_VALUES + BAD_PATHS), label="bad value")
    with tempfile.TemporaryDirectory() as tmp:  # fresh inputs: a bad value may name one as an output
        paths = {name: str(Path(tmp, name)) for name in [*cli_inputs, "out", "report", "missing"]}
        for name, content in cli_inputs.items():
            Path(paths[name]).write_bytes(content)
        paths["dir"] = tmp
        line = [arg.format(**paths) for arg in [*argv[:at], bad, *argv[at + 1 :]]]
        cwd = os.getcwd()
        os.chdir(tmp)  # a bad value may be a relative output path
        try:
            rc = main([command, *line])
        except SystemExit as exc:  # argparse refuses a usage error this way
            rc = exc.code
        finally:
            os.chdir(cwd)
    assert rc in (0, 1, 2, 3)

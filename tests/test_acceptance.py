"""Acceptance gate: every numeric behavior claim, one PASS/FAIL line each.

Criteria 1-4 and 6 check the math against independent oracles at pinned
tolerances. Criterion 7 checks end-to-end determinism. Criteria 5 and 8 run
the full pipeline on the synthetic corpus (8 classes, 200 docs/class,
embed_dim=50, doc_len=200).

Criterion 5b is expected to FAIL, and deliberately left failing: at
seen_fraction=0.25 of 8 classes only two classes are seen, and with exactly
two classes one-vs-rest training is degenerate for fixed-threshold
rejection. Every training document is a positive for one sigmoid and a
negative for the other, so any feature that is evidence against class a is
evidence for class b; the two logits become antisymmetric (measured
corr(d0, d1) is about -0.95 on unseen documents) and at least one
probability exceeds 0.5 for essentially every input. The t=0.5 variant
therefore almost never rejects and cannot beat forced-accept softmax by the
required margin. The supplementary test at the bottom shows the expected
ordering appears as soon as more than two classes are seen (same data, same
code, seen_fraction=0.5).
"""

import math
import sys
import time

import numpy as np
import pytest

from opentc.calibration import fit_sigma, fit_thresholds, fixed_thresholds
from opentc.data import build_vocab_from_split, encode_open_split, make_open_split
from opentc.encoder import EncoderConfig, ModelSpec, batched_logits, init_params, forward
from opentc.evaluation import ExperimentSpec, evaluate, evaluate_closed, macro_f1, run_experiment
from opentc.head import open_predictions, ovr_loss
from opentc.synthetic import generate_synthetic_dataset
from opentc.tensor import Tape, Tensor, grad_check
from opentc.trainer import TrainConfig, train
from opentc.cli import main as cli_main


def _report(capsys, number: str, description: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({description}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed: {description}"


# --------------------------------------------------------------------------
# 1. Gradient correctness of the full forward + one-vs-rest loss
# --------------------------------------------------------------------------


def test_criterion_1_gradient_correctness(capsys):
    start = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cfg = EncoderConfig(
            vocab_size=int(rng.integers(8, 21)),
            embed_dim=int(rng.integers(2, 9)),
            num_classes=int(rng.integers(2, 5)),
            doc_len=int(rng.integers(6, 13)),
            filter_widths=(2, 3),
            filters_per_width=int(rng.integers(2, 5)),
            hidden_dim=int(rng.integers(3, 7)),
        )
        params = init_params(cfg, rng)
        ids = rng.integers(1, cfg.vocab_size, size=cfg.doc_len)
        label = int(rng.integers(0, cfg.num_classes))

        def build(tape):
            return ovr_loss(tape, forward(params, ids, tape), [label])

        err = grad_check(build, params.all_tensors())
        worst = max(worst, err)
    elapsed = time.time() - start
    _report(
        capsys,
        "1",
        f"gradients, 20 seeds, max rel err {worst:.2e}, {elapsed:.1f}s",
        worst < 1e-4 and elapsed < 30,
    )


# --------------------------------------------------------------------------
# 2. Calibration oracle
# --------------------------------------------------------------------------


def test_criterion_2_calibration_oracle(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        pts = rng.uniform(1e-9, 1.0, size=int(rng.integers(1, 40)))
        mirrored = list(pts) + [2.0 - p for p in pts]
        mean = sum(mirrored) / len(mirrored)
        literal = math.sqrt(sum((x - mean) ** 2 for x in mirrored) / len(mirrored))
        worst = max(worst, abs(fit_sigma(pts) - literal))
    hand = (
        abs(fit_sigma([0.9, 1.0]) - 0.07071067811865475) < 1e-7
        and abs(fit_sigma([0.5]) - 0.5) < 1e-12
        and fit_sigma([1.0, 1.0, 1.0]) == 0.0
    )

    # thresholds obey t_i = max(0.5, 1 - alpha*sigma_i) exactly
    cfg = EncoderConfig(
        vocab_size=30, embed_dim=4, num_classes=3, doc_len=10, filter_widths=(2,), filters_per_width=3, hidden_dim=4
    )
    params = init_params(cfg, 0)
    from opentc.data import EncodedDocs

    labels = [0, 1, 2] * 5
    docs = EncodedDocs(
        ids=np.stack([rng.integers(0, 30, size=10) for _ in labels]),
        labels=np.array(labels, dtype=np.int64),
    )
    logits = batched_logits(params, docs.ids)
    exact = True
    for alpha in (0.5, 3.0, 50.0):
        tv = fit_thresholds(logits, docs.labels, alpha)
        want = np.maximum(0.5, 1.0 - alpha * tv.sigma)
        exact = exact and np.array_equal(tv.t, want)

    _report(
        capsys,
        "2",
        f"fit_sigma oracle 1000 inputs, max dev {worst:.2e}, hand examples, exact thresholds",
        worst < 1e-12 and hand and exact,
    )


# --------------------------------------------------------------------------
# 3. Decision-rule oracle
# --------------------------------------------------------------------------


def test_criterion_3_predict_open_oracle(capsys):
    rng = np.random.default_rng(1)
    agree = True
    for case in range(10_000):
        m = int(rng.integers(1, 7))
        probs = rng.uniform(0, 1, size=m)
        thresholds = rng.uniform(0.3, 1.0, size=m)
        if case % 3 == 0:  # force the all-below corner
            probs = np.minimum(probs, thresholds - 1e-9)
        elif case % 3 == 1:  # force at least one above
            j = int(rng.integers(0, m))
            probs[j] = min(1.0, thresholds[j] + rng.uniform(0, 0.2))
        reject = all(p < t for p, t in zip(probs, thresholds))
        want = m if reject else max(range(m), key=lambda i: probs[i])
        got = open_predictions(probs[None], thresholds)[0]
        agree = agree and got == want
    _report(capsys, "3", "open_predictions vs brute force, 10000 pairs", agree)


# --------------------------------------------------------------------------
# 4. Macro-F1 oracle
# --------------------------------------------------------------------------


def _pairwise_macro_f1(counts: np.ndarray, classes) -> float:
    scores = []
    for c in classes:
        tp = counts[c, c]
        fp = counts[:, c].sum() - tp
        fn = counts[c, :].sum() - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(scores) / len(scores)


def test_criterion_4_macro_f1_oracle(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        counts = rng.integers(0, 20, size=(m + 1, m + 1))
        cm = counts.astype(np.int64)
        classes = list(range(m + 1))
        if counts[m, :].sum() == 0 and counts[:, m].sum() == 0:
            classes.remove(m)
        worst = max(worst, abs(macro_f1(cm) - _pairwise_macro_f1(counts, classes)))

    # hand-worked example: rows gold0 [8,1,1], gold1 [0,9,1], goldR [2,0,8]
    hand_cm = np.array([[8, 1, 1], [0, 9, 1], [2, 0, 8]], dtype=np.int64)
    hand_ok = abs(macro_f1(hand_cm) - (0.8 + 0.9 + 0.8) / 3) < 1e-12

    _report(
        capsys,
        "4",
        f"macro-F1 oracle 1000 matrices, max dev {worst:.2e}, hand example 0.8333",
        worst < 1e-12 and hand_ok,
    )


# --------------------------------------------------------------------------
# 5 & 8. Full-pipeline experiments on the synthetic corpus
# --------------------------------------------------------------------------

_SPEC_KW = dict(
    seed=0,
    alpha=3.0,
    model=ModelSpec(
        embed_dim=50,
        doc_len=200,
        vocab_size=500,
        filter_widths=(3, 4, 5),
        filters_per_width=50,
        hidden_dim=100,
    ),
)
_TRAIN = TrainConfig(epochs=12, patience=3, batch_size=64)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_dataset(num_classes=8, docs_per_class=200, seed=0)


@pytest.fixture(scope="module")
def directional_result(corpus):
    spec = ExperimentSpec(
        fractions=(0.25,), reps=5, train_config=_TRAIN, **_SPEC_KW
    )
    start = time.time()
    result = run_experiment(spec, corpus)
    return result, time.time() - start


def test_criterion_5a_calibrated_beats_fixed_threshold(capsys, directional_result):
    result, elapsed = directional_result
    doc = result.summary[("doc", 0.25)][0]
    t05 = result.summary[("doc_t0.5", 0.25)][0]
    gap = doc - t05
    _report(
        capsys,
        "5a",
        f"25% seen, 5 reps: DOC {doc:.4f} > DOC(t=0.5) {t05:.4f} by {gap:.4f} "
        f"(need >= 0.02), {elapsed:.0f}s",
        gap >= 0.02 and elapsed < 600,
    )


def test_criterion_5b_fixed_threshold_beats_softmax(capsys, directional_result):
    # Expected to FAIL: see the module docstring. With only two seen classes
    # the one-vs-rest logits are antisymmetric and t=0.5 never rejects.
    result, _ = directional_result
    t05 = result.summary[("doc_t0.5", 0.25)][0]
    softmax = result.summary[("softmax", 0.25)][0]
    gap = t05 - softmax
    _report(
        capsys,
        "5b",
        f"25% seen, 5 reps: DOC(t=0.5) {t05:.4f} > softmax {softmax:.4f} by {gap:.4f} "
        f"(need >= 0.10)",
        gap >= 0.10,
    )


def test_criterion_8_closed_world_sanity(capsys, corpus):
    enc, _, cfg = _SPEC_KW["model"].prepare(corpus, seen_fraction=1.0, seed=0)
    scores = {}
    for head in ("one_vs_rest", "softmax"):
        params, _ = train(enc, cfg, _TRAIN, seed=0, head=head)
        scores[head] = macro_f1(evaluate_closed(batched_logits(params, enc.test.ids), enc.test.labels))
    _report(
        capsys,
        "8",
        "100% seen closed-world: "
        + ", ".join(f"{h} {s:.4f}" for h, s in scores.items())
        + " (need >= 0.95)",
        all(s >= 0.95 for s in scores.values()),
    )


# --------------------------------------------------------------------------
# 6. Clamp equivalence: alpha = 1e9 is bit-for-bit the t=0.5 override
# --------------------------------------------------------------------------


def test_criterion_6_clamp_equivalence(capsys):
    docs = generate_synthetic_dataset(num_classes=4, docs_per_class=60, seed=3)
    split = make_open_split(docs, seen_fraction=0.5, rep_seed=0)
    vocab = build_vocab_from_split(split, 300)
    enc = encode_open_split(split, vocab, 60)
    cfg = EncoderConfig(
        vocab_size=300, embed_dim=16, num_classes=2, doc_len=60, filter_widths=(3,), filters_per_width=8, hidden_dim=16
    )
    params, _ = train(enc, cfg, TrainConfig(epochs=5), seed=0)

    huge_alpha = fit_thresholds(batched_logits(params, enc.train.ids), enc.train.labels, alpha=1e9)
    test_logits = batched_logits(params, enc.test.ids)
    cm_alpha = evaluate(test_logits, huge_alpha, enc.test.labels)
    cm_fixed = evaluate(test_logits, fixed_thresholds(2, 0.5), enc.test.labels)
    identical = np.array_equal(cm_alpha, cm_fixed)
    clamped = np.array_equal(huge_alpha.t, np.full(2, 0.5))
    _report(capsys, "6", "alpha=1e9 calibration == t=0.5 override, identical matrices", identical and clamped)


# --------------------------------------------------------------------------
# 7. End-to-end determinism of the CLI
# --------------------------------------------------------------------------


def test_criterion_7_cli_determinism(capsys, tmp_path):
    from opentc.data import save_jsonl

    data = tmp_path / "data.jsonl"
    save_jsonl(data, generate_synthetic_dataset(num_classes=3, docs_per_class=40, seed=4))
    fast = [
        "--embed-dim", "8", "--doc-len", "20", "--vocab-size", "150",
        "--filter-widths", "2,3", "--filters-per-width", "4",
        "--hidden-dim", "8", "--epochs", "3",
    ]

    models = []
    for name in ("a.docm", "b.docm"):
        out = tmp_path / name
        rc = cli_main(
            ["train", "--data", str(data), "--out", str(out), "--seed", "7", "--calibrate", *fast]
        )
        assert rc == 0
        models.append(out.read_bytes())
    train_ok = models[0] == models[1]

    reports = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        rc = cli_main(
            [
                "experiment", "--data", str(data), "--fractions", "1.0",
                "--reps", "1", "--seed", "5", "--report", str(rep), *fast,
            ]
        )
        assert rc == 0
        reports.append(rep.read_text())
    exp_ok = reports[0] == reports[1]

    capsys.readouterr()  # swallow the CLI chatter before reporting
    _report(
        capsys,
        "7",
        "byte-identical models from cmd_train, identical JSON from cmd_experiment",
        train_ok and exp_ok,
    )


# --------------------------------------------------------------------------
# Supplementary (not an acceptance criterion): the ordering criterion 5b
# demands does hold once more than two classes are seen.
# --------------------------------------------------------------------------


def test_supplementary_ordering_holds_beyond_two_classes(capsys, corpus):
    spec = ExperimentSpec(
        fractions=(0.5,), reps=2, train_config=_TRAIN, **_SPEC_KW
    )
    result = run_experiment(spec, corpus)
    t05 = result.summary[("doc_t0.5", 0.5)][0]
    softmax = result.summary[("softmax", 0.5)][0]
    gap = t05 - softmax
    _report(
        capsys,
        "supplementary",
        f"50% seen (4 classes): DOC(t=0.5) {t05:.4f} > softmax {softmax:.4f} by {gap:.4f}",
        gap >= 0.10,
    )

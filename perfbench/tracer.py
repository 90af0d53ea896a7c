"""Span tracer that wraps opentc's public functions from outside.

Every wrapped call becomes a span. A span's self time is its duration minus
the durations of the spans it directly contains, so the self times of all
spans add up to the time spent inside root spans. Tape ops get a proxy
``Tape`` whose ``push`` wraps each backward closure in its own span, which
times the backward pass of each op without touching ``opentc.tensor``.

Wrappers are installed at each place a function is looked up: every
module-level name in the opentc modules that refers to the original
(``opentc.encoder.conv1d_valid``, ``opentc.cli.forward`` and so on) and every
value of a module-level dict that does (the loss table in ``opentc.trainer``).
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Tape ops of opentc.tensor: forward and backward are timed separately.
TAPE_OPS = ("embed_lookup", "conv1d_valid", "max_over_time", "relu", "dense", "concat")
# Losses of opentc.head also record backward closures; both passes count.
LOSSES = ("ovr_loss", "softmax_loss")
# (module, attribute, span name) of plain functions.
PLAIN = (
    ("encoder", "forward", "encoder.forward"),
    ("head", "class_probabilities", "head.class_probabilities"),
    ("head", "predict_open", "head.predict_open"),
    ("trainer", "train", "trainer.train"),
    ("trainer", "training_step", "trainer.training_step"),
    ("trainer", "evaluate_loss", "trainer.evaluate_loss"),
    ("calibration", "fit_thresholds", "calibration.fit_thresholds"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "evaluate_closed", "evaluation.evaluate_closed"),
    ("evaluation", "run_single", "evaluation.run_single"),
    ("data", "load_jsonl", "data.load_jsonl"),
    ("data", "build_vocab_from_split", "data.build_vocab_from_split"),
    ("data", "encode_open_split", "data.encode_open_split"),
    ("data", "tokenize", "data.tokenize"),
    ("data", "encode", "data.encode"),
    ("model_io", "load_model", "model_io.load_model"),
    ("model_io", "save_model", "model_io.save_model"),
)
ADAM_SPAN = "trainer.adam_apply"  # opentc.trainer.AdamState.apply
# Every span name the tracer records.
SPANS = (
    tuple(f"tensor.{op}.{p}" for op in TAPE_OPS for p in ("fwd", "bwd"))
    + tuple(f"head.{loss}.{p}" for loss in LOSSES for p in ("fwd", "bwd"))
    + tuple(name for _, _, name in PLAIN)
    + (ADAM_SPAN,)
)


class _TimedTape:
    """Stands in for a ``Tape`` inside one op; times the closures it pushes."""

    __slots__ = ("_tape", "_tracer", "_name", "_on_backward")

    def __init__(self, tape, tracer: "Tracer", name: str, on_backward=None) -> None:
        self._tape = tape
        self._tracer = tracer
        self._name = name
        self._on_backward = on_backward

    @property
    def record(self) -> bool:
        return self._tape.record

    def push(self, fn) -> None:
        if not self._tape.record:
            return
        tracer, name, on_backward = self._tracer, self._name, self._on_backward

        def timed() -> None:
            tracer.span(name, fn)
            if on_backward is not None:
                on_backward()

        self._tape.push(timed)


class Tracer:
    """In-memory spans: self time, call count and inclusive durations per name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.conv_flops = 0.0
        self.im2col_bytes_max = 0
        self.docs_forwarded = 0
        self.rejects = 0
        self.epochs = 0
        self._open: list[list[float]] = []  # child time of each open span
        self._undo: list = []

    def span(self, name: str, fn, *args, **kwargs):
        frame = [0.0]
        self._open.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._open.pop()
            self.self_s[name] += duration - frame[0]
            self.calls[name] += 1
            self.durations[name].append(duration)
            if self._open:
                self._open[-1][0] += duration

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function of TAPE_OPS, LOSSES, PLAIN and AdamState.apply;
        the opentc package must already be imported."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "opentc" and m]
        for op in TAPE_OPS:
            self._replace(modules, getattr(sys.modules["opentc.tensor"], op), self._tape_op(op))
        for loss in LOSSES:
            self._replace(modules, getattr(sys.modules["opentc.head"], loss), self._loss(loss))
        for mod, attr, name in PLAIN:
            fn = getattr(sys.modules[f"opentc.{mod}"], attr)
            self._replace(modules, fn, self._plain(name, fn))
        adam = sys.modules["opentc.trainer"].AdamState
        original = adam.apply
        self._undo.append(lambda: setattr(adam, "apply", original))
        adam.apply = self._plain(ADAM_SPAN, original)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            namespaces = [vars(module)]
            namespaces += [v for v in vars(module).values() if isinstance(v, dict)]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._undo.append(lambda ns=ns, key=key: ns.__setitem__(key, original))
                        ns[key] = wrapper

    # -- wrappers -----------------------------------------------------------

    def _tape_op(self, op: str):
        fn = getattr(sys.modules["opentc.tensor"], op)
        fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

        def wrapper(tape, *args, **kwargs):
            on_backward = None
            if op == "conv1d_valid":
                flops = self._conv_shapes(args[0], args[1])

                def on_backward() -> None:  # dW and dx: two GEMMs of the forward size
                    self.conv_flops += 2 * flops

            return self.span(fwd, fn, _TimedTape(tape, self, bwd, on_backward), *args, **kwargs)

        return wrapper

    def _conv_shapes(self, x, filters) -> float:
        num_filters, width, edim = filters.shape
        rows = int(np.prod(x.shape[:-2], dtype=np.int64)) * (x.shape[-2] - width + 1)
        self.im2col_bytes_max = max(self.im2col_bytes_max, rows * width * edim * 8)
        flops = 2.0 * rows * width * edim * num_filters
        self.conv_flops += flops
        return flops

    def _loss(self, loss: str):
        fn = getattr(sys.modules["opentc.head"], loss)
        name = f"head.{loss}"

        def wrapper(tape, *args, **kwargs):
            return self.span(f"{name}.fwd", fn, _TimedTape(tape, self, f"{name}.bwd"), *args, **kwargs)

        return wrapper

    def _plain(self, name: str, fn):
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if name == "encoder.forward":
                ids = np.asarray(args[1])
                self.docs_forwarded += 1 if ids.ndim == 1 else ids.shape[0]
            elif name == "head.predict_open":
                self.rejects += out.is_reject
            elif name == "trainer.train":
                self.epochs += len(out[1].train_losses)
            return out

        return wrapper


def gemm_gflop_per_s(n: int = 1024, reps: int = 5) -> float:
    """Median rate of a plain float64 n x n GEMM, the machine's peak reference."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b  # first call pays BLAS start-up
    times = []
    for _ in range(reps):
        start = perf_counter()
        a @ b
        times.append(perf_counter() - start)
    return 2.0 * n**3 / float(np.median(times)) / 1e9

"""Command-line surface: train / calibrate / predict / experiment / inspect.

Exit codes: 0 success, 1 usage error, 2 data or format error (a size too
large to allocate included), 3 numerical failure (training divergence).
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from dataclasses import MISSING, fields, is_dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .calibration import DEFAULT_ALPHA, CalibrationError, check_alpha, fit_thresholds, fixed_thresholds
from .data import check_seed, encode, encode_documents, load_jsonl, tokenize
from .encoder import INFERENCE_CHUNK, ModelSpec, batched_logits, init_params, load_pretrained_embeddings
from .evaluation import ExperimentSpec, run_experiment
from .head import class_probabilities, open_predictions
from .model_io import MAGIC, VERSION, TrainedModel, atomic_write, load_model, save_model
from .parallel import one_blas_thread, worker
from .trainer import HEAD_ONE_VS_REST, TrainConfig, TrainingDivergedError, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _comma_separated(kind: type):
    """argparse ``type=`` callable: "3,4,5" -> (3, 4, 5) for ``kind=int``."""

    def parse(text: str) -> tuple:
        return tuple(kind(item) for item in text.split(","))

    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse names it in errors
    return parse


def _default(f):
    """A dataclass field's default, built by its ``default_factory`` if it has one."""
    return f.default_factory() if f.default is MISSING else f.default


def _add_flags(p: argparse.ArgumentParser, cls: type) -> None:
    """One flag per field of the dataclass ``cls``, named after it and
    defaulting to it; a tuple field takes a comma-separated list, and a field
    whose default is a dataclass gives that dataclass's flags."""
    for f in fields(cls):
        default = _default(f)
        if is_dataclass(default):
            _add_flags(p, type(default))
            continue
        kind = type(default)
        if kind is tuple:
            kind = _comma_separated(type(default[0]))
        p.add_argument(f"--{f.name.replace('_', '-')}", type=kind, default=default)


def _from_flags(cls: type, args):
    """Inverse of ``_add_flags``: an instance of ``cls`` from the parsed flags."""
    return cls(**{
        f.name: _from_flags(type(d), args) if is_dataclass(d := _default(f)) else getattr(args, f.name)
        for f in fields(cls)
    })


def _check_output_paths(*paths) -> None:
    """Refuse, before any training, an output path that is a directory or lies
    in a missing one, and two output paths that name the same file."""
    outputs = [Path(p) for p in paths if p is not None]  # None is an unset --report; "" is "."
    for path in outputs:
        if not path.parent.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {path.parent}")
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
    if len({os.path.realpath(path) for path in outputs}) < len(outputs):
        raise ValueError(f"output paths name the same file: {', '.join(map(str, outputs))}")


def build_parser() -> _Parser:
    parser = _Parser(prog="opentc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSONL dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seen-fraction", type=float, default=1.0)
    p.add_argument("--calibrate", action="store_true", help="fit thresholds after training")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--report", help="write the training report JSON here")
    p.add_argument("--pretrained", help="word-vector text file to initialize embeddings")
    _add_flags(p, ModelSpec)
    _add_flags(p, TrainConfig)

    p = sub.add_parser("calibrate", help="fit per-class thresholds into a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)

    p = sub.add_parser("predict", help="classify or reject documents, one per line")
    p.add_argument("--model", required=True)
    p.add_argument("--input", default="-", help="text file, one document per line; - for stdin")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.add_argument("--t", type=float, help="override all thresholds with this value in [0, 1]")

    p = sub.add_parser("experiment", help="seen-fraction sweep with repeated class choices")
    p.add_argument("--data", required=True)
    p.add_argument("--report", help="write the result JSON here")
    _add_flags(p, ExperimentSpec)

    p = sub.add_parser("inspect", help="print model file contents")
    p.add_argument("--model", required=True)

    return parser


def cmd_train(args) -> int:
    _check_output_paths(args.out, args.report)
    spec, train_config = _from_flags(ModelSpec, args), _from_flags(TrainConfig, args)
    check_seed(args.seed)
    if args.calibrate:
        check_alpha(args.alpha)
    # the raw corpus is freed once prepare has encoded it
    enc_split, vocab, cfg = spec.prepare(load_jsonl(args.data), args.seen_fraction, args.seed)
    initial = None
    if args.pretrained is not None:
        initial = init_params(cfg, args.seed)
        with open(args.pretrained, "r", encoding="utf-8") as fh:
            n = load_pretrained_embeddings(initial, fh, vocab)
        print(f"pretrained vectors loaded for {n} tokens", file=sys.stderr)
    params, report = train(enc_split, cfg, train_config, initial_params=initial, seed=args.seed)

    thresholds = None
    if args.calibrate:
        logits = batched_logits(params, enc_split.train.ids)
        thresholds = fit_thresholds(logits, enc_split.train.labels, args.alpha)
    model = TrainedModel(
        params=params,
        vocab=vocab,
        class_names=list(enc_split.seen_classes),
        thresholds=thresholds,
    )
    save_model(args.out, model)
    if args.report:
        with atomic_write(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    print(f"saved model to {args.out} (best epoch {report.best_epoch})")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    model = load_model(args.model)
    docs = load_jsonl(args.data)
    known = set(model.class_names)
    labels = {d.label for d in docs}
    if not labels <= known:
        raise CalibrationError(
            f"data contains classes unknown to the model: {sorted(labels - known)}"
        )
    encoded = encode_documents(docs, model.vocab, model.config.doc_len, model.class_names)
    logits = batched_logits(model.params, encoded.ids)
    thresholds = fit_thresholds(logits, encoded.labels, args.alpha)
    model.thresholds = thresholds
    save_model(args.model, model)
    print(f"{'class':<20} {'sigma':>10} {'t':>10}")
    for name, s, t in zip(model.class_names, thresholds.sigma, thresholds.t):
        print(f"{name:<20} {s:>10.6f} {t:>10.6f}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.t is not None:
        thresholds = fixed_thresholds(model.config.num_classes, args.t)
    elif model.thresholds is not None:
        thresholds = model.thresholds
    else:
        raise CalibrationError("model has no fitted thresholds; calibrate first or pass --t")
    names = model.class_names
    labels = names + ["REJECT"]  # indexed by open_predictions, m for a rejection

    def render(chunk: list[str]) -> str:
        """The output lines of one chunk of input lines."""
        ids = np.stack([encode(tokenize(line.rstrip("\n")), model.vocab, model.config.doc_len) for line in chunk])
        probs = class_probabilities(batched_logits(model.params, ids))
        predicted = [labels[k] for k in open_predictions(probs, thresholds).tolist()]
        rows = zip(predicted, probs.max(axis=1).tolist(), probs.tolist(), (probs - thresholds.t).tolist())
        out = []
        for name, top, row, margins in rows:
            if args.format == "json":
                record = {"prediction": name, "probability": top, "probs": dict(zip(names, row))}
                record["margins"] = dict(zip(names, margins))
                out.append(json.dumps(record, sort_keys=True) + "\n")
            else:
                out.append("\t".join([name, f"{top:.6f}"] + [f"{p:.6f}" for p in row]) + "\n")
        return "".join(out)

    def write(text: str) -> None:
        sys.stdout.write(text)
        sys.stdout.flush()  # piped output streams chunk by chunk

    # one strict UTF-8 reader for a file and for stdin alike
    source = sys.stdin.fileno() if args.input == "-" else args.input
    with open(source, "r", encoding="utf-8", closefd=args.input != "-") as stream:
        # Read ahead only where a read cannot block, so a pipe still streams:
        # chunk k+1 goes to the worker while this process renders chunk k.
        ahead = stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
        try:
            with worker(render) as alongside:
                while chunk := list(islice(stream, INFERENCE_CHUNK)):
                    try:
                        after = list(islice(stream, INFERENCE_CHUNK)) if ahead else []
                    except (ValueError, OSError):  # a decode or read error: print what came before it
                        write(render(chunk))
                        raise
                    # chunk k prints inside the call, so it is out before any error of the worker's
                    write(alongside(after, lambda: write(render(chunk)))[1] if after else render(chunk))
        except BrokenPipeError:  # the reader is gone, as under `| head`: not an error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())  # so the exit's last flush stays silent
            os.close(devnull)
    return EXIT_OK


def cmd_experiment(args) -> int:
    _check_output_paths(args.report)
    spec = _from_flags(ExperimentSpec, args)
    docs = load_jsonl(args.data)
    result = run_experiment(spec, docs)
    print(result.to_text())
    if args.report:
        with atomic_write(args.report, "w", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    cfg = model.config
    print(f"format: {MAGIC.decode()} v{VERSION}")
    print(f"head: {HEAD_ONE_VS_REST}")
    print(f"classes ({cfg.num_classes}): {', '.join(model.class_names)}")
    print(f"vocab size: {len(model.vocab)}")
    print(
        f"encoder: embed_dim={cfg.embed_dim} doc_len={cfg.doc_len} "
        f"widths={list(cfg.filter_widths)} filters={cfg.filters_per_width} "
        f"hidden={cfg.hidden_dim}"
    )
    if model.thresholds is None:
        print("thresholds: not fitted")
    else:
        print(f"thresholds (alpha={model.thresholds.alpha}):")
        for name, t, sigma in zip(model.class_names, model.thresholds.t, model.thresholds.sigma):
            print(f"  {name}: {t:.6f} (sigma={sigma:.6f})")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "predict": cmd_predict,
    "experiment": cmd_experiment,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    """Run one command at one BLAS thread, so its output bytes do not depend
    on the caller's thread count, which it gets back on return."""
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():
            return _COMMANDS[args.command](args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # every format error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # a size from a flag or a model header too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

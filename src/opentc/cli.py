"""Command-line surface: train / calibrate / predict / experiment / inspect.

Exit codes: 0 success, 1 usage error, 2 data or format error, 3 numerical
failure (training divergence).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .calibration import CalibrationError, check_alpha, fit_thresholds, fixed_thresholds
from .data import (
    build_vocab_from_split,
    encode,
    encode_documents,
    encode_open_split,
    load_jsonl,
    make_open_split,
    tokenize,
)
from .encoder import EncoderConfig, forward, init_params, load_pretrained_embeddings
from .evaluation import ExperimentSpec, run_experiment
from .head import class_probabilities, predict_open
from .model_io import TrainedModel, load_model, save_model
from .trainer import HEAD_ONE_VS_REST, HEAD_SOFTMAX, TrainConfig, TrainingDivergedError, train

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


def _add_encoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embed-dim", type=int, default=50)
    p.add_argument("--doc-len", type=int, default=200)
    p.add_argument("--vocab-size", type=int, default=5000)
    p.add_argument(
        "--filter-widths", type=_comma_separated(int), default="3,4,5", help="comma-separated widths"
    )
    p.add_argument("--filters-per-width", type=int, default=150)
    p.add_argument("--hidden-dim", type=int, default=250)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--patience", type=int, default=3)


def _train_config(args, head: str) -> TrainConfig:
    return TrainConfig(
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        learning_rate=args.lr,
        patience=args.patience,
        seed=args.seed,
        head=head,
    )


def _check_output_paths(*paths) -> None:
    """Refuse, before any training, an output path that is a directory or lies in a missing one."""
    for path in map(Path, filter(None, paths)):
        if not path.parent.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {path.parent}")
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")


def build_parser() -> _Parser:
    parser = _Parser(prog="opentc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSONL dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--head", choices=[HEAD_ONE_VS_REST, HEAD_SOFTMAX], default=HEAD_ONE_VS_REST)
    p.add_argument("--seen-fraction", type=float, default=1.0)
    p.add_argument("--calibrate", action="store_true", help="fit thresholds after training")
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--report", help="write the training report JSON here")
    p.add_argument("--pretrained", help="word-vector text file to initialize embeddings")
    _add_encoder_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("calibrate", help="fit per-class thresholds into a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, default=3.0)

    p = sub.add_parser("predict", help="classify or reject documents, one per line")
    p.add_argument("--model", required=True)
    p.add_argument("--input", default="-", help="text file, one document per line; - for stdin")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.add_argument("--t", type=float, help="override all thresholds with this value in [0, 1]")

    p = sub.add_parser("experiment", help="seen-fraction sweep with repeated class choices")
    p.add_argument("--data", required=True)
    p.add_argument("--fractions", type=_comma_separated(float), default="0.25,0.5,0.75,1.0")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--report", help="write the result JSON here")
    _add_encoder_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("inspect", help="print model file contents")
    p.add_argument("--model", required=True)

    return parser


def cmd_train(args) -> int:
    _check_output_paths(args.out, args.report)
    if args.calibrate:
        check_alpha(args.alpha)
    train_config = _train_config(args, args.head)
    docs = load_jsonl(args.data)
    split = make_open_split(docs, args.seen_fraction, args.seed)
    vocab = build_vocab_from_split(split, args.vocab_size)
    enc_split = encode_open_split(split, vocab, args.doc_len)
    cfg = EncoderConfig(
        vocab_size=len(vocab),
        embed_dim=args.embed_dim,
        num_classes=len(split.seen_classes),
        doc_len=args.doc_len,
        filter_widths=args.filter_widths,
        filters_per_width=args.filters_per_width,
        hidden_dim=args.hidden_dim,
    )
    initial = None
    if args.pretrained:
        initial = init_params(cfg, args.seed)
        with open(args.pretrained, "r", encoding="utf-8") as fh:
            n = load_pretrained_embeddings(initial, fh, vocab)
        print(f"pretrained vectors loaded for {n} tokens", file=sys.stderr)
    params, report = train(enc_split, cfg, train_config, initial_params=initial)

    thresholds = None
    if args.calibrate:
        thresholds = fit_thresholds(params, enc_split.train, args.alpha)
    model = TrainedModel(
        params=params,
        vocab=vocab,
        class_names=list(split.seen_classes),
        head=args.head,
        thresholds=thresholds,
    )
    save_model(args.out, model)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
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
    thresholds = fit_thresholds(model.params, encoded, args.alpha)
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
        raise CalibrationError(
            "model has no fitted thresholds; calibrate first or pass --t"
        )
    stream = sys.stdin if args.input == "-" else open(args.input, "r", encoding="utf-8")
    try:
        for line in stream:
            text = line.rstrip("\n")
            ids = encode(tokenize(text), model.vocab, model.config.doc_len)
            probs = class_probabilities(forward(model.params, ids).data)
            pred = predict_open(probs, thresholds)
            name = "REJECT" if pred.is_reject else model.class_names[pred.class_index]
            top = float(probs.max())
            if args.format == "json":
                print(
                    json.dumps(
                        {
                            "prediction": name,
                            "probability": top,
                            "probs": {
                                c: float(p) for c, p in zip(model.class_names, probs)
                            },
                        },
                        sort_keys=True,
                    )
                )
            else:
                cols = [name, f"{top:.6f}"] + [f"{p:.6f}" for p in probs]
                print("\t".join(cols))
    finally:
        if stream is not sys.stdin:
            stream.close()
    return EXIT_OK


def cmd_experiment(args) -> int:
    _check_output_paths(args.report)
    docs = load_jsonl(args.data)
    spec = ExperimentSpec(
        seen_fractions=args.fractions,
        repetitions=args.reps,
        base_seed=args.seed,
        alpha=args.alpha,
        embed_dim=args.embed_dim,
        doc_len=args.doc_len,
        vocab_size=args.vocab_size,
        filter_widths=args.filter_widths,
        filters_per_width=args.filters_per_width,
        hidden_dim=args.hidden_dim,
        train_config=_train_config(args, HEAD_ONE_VS_REST),
    )
    result = run_experiment(spec, docs)
    print(result.to_text())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    cfg = model.config
    print(f"head: {model.head}")
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
        for name, t in zip(model.class_names, model.thresholds.t):
            print(f"  {name}: {t:.6f}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "predict": cmd_predict,
    "experiment": cmd_experiment,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # every format error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

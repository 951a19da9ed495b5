"""Command line front end: train, predict, evaluate, inspect.

Settings come from an optional flat key=value config file plus flags; flags
win. Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

import argparse
import logging
import sys

import numpy as np

from .conll_io import (
    ConllError,
    Corpus,
    EmbeddingError,
    load_embeddings,
    parse_conll,
    write_conll,
)
from .crf import CrfError, NoValidPathError
from .encoders import ARCHITECTURES, EncoderError
from .metrics import (
    ScoringError,
    error_breakdown,
    render_breakdown,
    render_kv,
    render_text,
    score,
)
from .tagscheme import (
    DEFAULT_ENTITY_TYPES,
    REPAIR_MODES,
    EntityTypeSet,
    TagSchemeError,
    expand_bio,
    flat_tags,
    repair_bio,
)
from .training import (
    CONFIG_TYPES,
    CheckpointError,
    LayoutError,
    NonFiniteError,
    TrainConfig,
    TrainingError,
    ensure_compatible,
    load_checkpoint,
    predict_with_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _str2bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {value!r}")


def _choice(choices):
    """Converter that accepts the values a flag with these choices accepts."""

    def convert(value: str) -> str:
        if value not in choices:
            raise UsageError(f"invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        return value

    return convert


FORMATS = ("text", "kv")

# configurable settings: name -> (converter, default); the training fields
# and their defaults come from TrainConfig
_SETTINGS = {
    "train_file": (str, None),
    "dev_file": (str, None),
    "input": (str, None),
    "gold": (str, None),
    "pred": (str, None),
    "checkpoint": (str, None),
    "embeddings": (str, None),
    "output": (str, None),
    "constrained": (_str2bool, False),
    "repair": (_choice(REPAIR_MODES), None),
    "token_col": (int, 0),
    "tag_col": (int, -1),
    "format": (_choice(FORMATS), "text"),
    "types": (str, ",".join(DEFAULT_ENTITY_TYPES)),
    **{name: (cast, getattr(TrainConfig(), name)) for name, cast in CONFIG_TYPES.items()},
    "arch": (_choice(ARCHITECTURES), TrainConfig().arch),  # checked as --arch is
}


def _read(path, error, reader, *args):
    """reader(open text handle, *args); an unreadable or non-UTF-8 file raises
    error naming it, and a data error of the reader gains the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            return reader(handle, *args)
    except (ConllError, EmbeddingError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as handle:  # a line is UTF-8 iff it survives a round trip
            bad = next((lineno for lineno, raw in enumerate(handle, start=1)
                        if raw.decode("utf-8", "replace").encode("utf-8") != raw), "?")
        raise error(f"{path}:{bad}: not UTF-8 text") from None


def _config_entries(handle) -> dict:
    path, values = handle.name, {}
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown config entry {line!r}")
        try:
            values[key] = _SETTINGS[key][0](value.strip())
        except ValueError as exc:  # UsageError from _str2bool included
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


class Settings:
    """Flag values layered over config file values over defaults."""

    def __init__(self, args: argparse.Namespace):
        config = getattr(args, "config", None)
        from_file = _read(config, UsageError, _config_entries) if config else {}
        self._values = {}
        for name, (_, default) in _SETTINGS.items():
            flag = getattr(args, name, None)
            if flag is not None:
                self._values[name] = flag
            elif name in from_file:
                self._values[name] = from_file[name]
            else:
                self._values[name] = default

    def __getattr__(self, name):
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def require(self, *names):
        for name in names:
            if self._values.get(name) is None:
                raise UsageError(f"--{name.replace('_', '-')} is required")


def build_parser() -> _Parser:
    parser = _Parser(prog="nerchain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(p):
        p.add_argument("--config", help="flat key=value settings file; flags override it")
        p.add_argument("--token-col", type=int, dest="token_col",
                       help="token column in input files (default 0)")
        p.add_argument("--tag-col", type=int, dest="tag_col",
                       help="tag column in input files (default -1, the last column)")

    p = sub.add_parser("train", help="train a model and write a checkpoint",
                       description="Train one architecture and keep the best dev epoch.")
    add_common(p)
    p.add_argument("--train-file", dest="train_file", help="labeled training file")
    p.add_argument("--dev-file", dest="dev_file", help="labeled validation file")
    p.add_argument("--checkpoint", help="output checkpoint path")
    p.add_argument("--embeddings", help="precomputed embedding file; omit to train a lookup table")
    p.add_argument("--arch", choices=ARCHITECTURES,
                   help="model architecture (default crf)")
    p.add_argument("--epochs", type=int, help="training epochs (default 10)")
    p.add_argument("--dropout", type=float,
                   help="dropout rate, sensible range 0.2 to 0.5 (default 0.3)")
    p.add_argument("--lr-min", type=float, dest="lr_min",
                   help="cyclic learning rate lower bound (default 1e-6)")
    p.add_argument("--lr-max", type=float, dest="lr_max",
                   help="cyclic learning rate upper bound (default 1e-4)")
    p.add_argument("--hidden", type=int, help="BiLSTM hidden size per direction (default 256)")
    p.add_argument("--fc-size", type=int, dest="fc_size",
                   help="width of the two FC layers in the linear head (default 512)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument("--format", choices=FORMATS, help="final report format (default text)")

    p = sub.add_parser("predict", help="tag a file with a trained model",
                       description="Decode an input file and write CoNLL output.")
    add_common(p)
    p.add_argument("--checkpoint", help="trained checkpoint")
    p.add_argument("--input", help="file to tag (labels, if present, are ignored)")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--embeddings", help="embedding file for the input sentences")
    p.add_argument("--constrained", action="store_true", default=None,
                   help="force BIO-valid decoding (default for the linear head)")
    p.add_argument("--repair", choices=REPAIR_MODES,
                   help="post-hoc repair mode applied to predictions")

    p = sub.add_parser("evaluate", help="entity-level scores of predictions against gold",
                       description="Compare a predicted file with a gold file, aligned by id.")
    add_common(p)
    p.add_argument("--gold", help="gold labeled file")
    p.add_argument("--pred", help="predicted labeled file")
    p.add_argument("--repair", choices=REPAIR_MODES,
                   help="repair mode applied before scoring (default convert)")
    p.add_argument("--format", choices=FORMATS, help="report format (default text)")

    p = sub.add_parser("inspect", help="error breakdown of predictions against gold",
                       description="Confusions, boundary errors, misses and spurious spans.")
    add_common(p)
    p.add_argument("--gold", help="gold labeled file")
    p.add_argument("--pred", help="predicted labeled file")
    p.add_argument("--repair", choices=REPAIR_MODES,
                   help="repair mode applied before span extraction (default convert)")

    return parser


def _tag_vocabulary(settings: Settings):
    names = [t for t in settings.types.split(",") if t]
    return expand_bio(EntityTypeSet(tuple(names)))


def _parse_file(path, voc, settings, has_labels=True) -> Corpus:
    return _read(path, ConllError, parse_conll, voc, settings.token_col, settings.tag_col,
                 has_labels)


def cmd_train(settings: Settings) -> int:
    settings.require("train_file", "dev_file", "checkpoint")
    voc = _tag_vocabulary(settings)
    train_corpus = _parse_file(settings.train_file, voc, settings)
    dev_corpus = _parse_file(settings.dev_file, voc, settings)

    embeddings = None
    if settings.embeddings:
        # one lookup corpus: an id that train and dev share must name the same tokens
        by_id = {sent.id: sent for sent in train_corpus}
        for sent in dev_corpus:
            if by_id.setdefault(sent.id, sent).tokens != sent.tokens:
                raise ConllError(f"sentence id {sent.id!r} names different sentences in "
                                 f"{settings.train_file} and {settings.dev_file}")
        embeddings = _read(settings.embeddings, EmbeddingError, load_embeddings,
                           Corpus(tuple(by_id.values()), voc))

    config = TrainConfig(**{name: getattr(settings, name) for name in CONFIG_TYPES})

    log_path = settings.checkpoint + ".log"
    handler = logging.FileHandler(log_path, mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(message)s"))
    echo = logging.StreamHandler(sys.stderr)
    echo.setFormatter(logging.Formatter("%(message)s"))
    train_logger = logging.getLogger("nerchain.training")
    train_logger.setLevel(logging.INFO)
    train_logger.addHandler(handler)
    train_logger.addHandler(echo)
    try:
        checkpoint, history = train(train_corpus, dev_corpus, config, embeddings)
    finally:
        train_logger.removeHandler(handler)
        train_logger.removeHandler(echo)
        handler.close()

    save_checkpoint(checkpoint, settings.checkpoint)
    report = history[checkpoint.best_epoch - 1].report  # the kept epoch's dev scores
    print(render_kv(report) if settings.format == "kv" else render_text(report))
    return EXIT_OK


def cmd_predict(settings: Settings) -> int:
    settings.require("checkpoint", "input")
    checkpoint = load_checkpoint(settings.checkpoint)
    voc = _tag_vocabulary(settings)
    ensure_compatible(checkpoint, voc)
    corpus = _parse_file(settings.input, voc, settings, has_labels=False)

    embeddings = None
    if settings.embeddings:
        embeddings = _read(settings.embeddings, EmbeddingError, load_embeddings, corpus)

    # an unforced run keeps the architecture's default; a diverged model's
    # overflow ends in a CrfError (exit 2 or 3), not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        predictions = predict_with_checkpoint(checkpoint, corpus, embeddings,
                                              settings.constrained or None)
    if settings.repair:  # the whole corpus in one pass
        tags, starts = flat_tags(predictions)
        repaired = repair_bio(voc, tags, settings.repair, starts=starts).tags.tolist()
        bounds = [*starts.tolist(), len(repaired)]
        predictions = [repaired[a:b] for a, b in zip(bounds, bounds[1:])]

    if settings.output:
        with open(settings.output, "w", encoding="utf-8") as handle:
            write_conll(corpus, handle, tags=predictions)
    else:
        write_conll(corpus, sys.stdout, tags=predictions)
    return EXIT_OK


def _aligned_gold_pred(settings: Settings):
    voc = _tag_vocabulary(settings)
    gold = _parse_file(settings.gold, voc, settings)
    pred = _parse_file(settings.pred, voc, settings)
    if len(pred) != len(gold):
        raise ScoringError(f"{len(pred)} predicted sentences for {len(gold)} gold sentences")
    by_id = {s.id: s for s in pred}
    predictions = []
    for sent in gold:
        if sent.id not in by_id:
            raise ScoringError(f"no prediction for sentence id {sent.id!r}")
        p = by_id[sent.id]
        if len(p) != len(sent):
            raise ScoringError(
                f"sentence {sent.id!r}: {len(p)} predicted tokens for {len(sent)} gold tokens")
        predictions.append(p.gold_tags)
    return gold, predictions


def cmd_evaluate(settings: Settings) -> int:
    settings.require("gold", "pred")
    gold, predictions = _aligned_gold_pred(settings)
    report = score(gold, predictions, repair=settings.repair or "convert")
    print(render_kv(report) if settings.format == "kv" else render_text(report))
    return EXIT_OK


def cmd_inspect(settings: Settings) -> int:
    settings.require("gold", "pred")
    gold, predictions = _aligned_gold_pred(settings)
    breakdown = error_breakdown(gold, predictions, repair=settings.repair or "convert")
    print(render_breakdown(breakdown, gold.tag_vocabulary.entity_types.types))
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse help (0) or usage error (1)
        return exc.code or 0
    try:
        settings = Settings(args)
        return _COMMANDS[args.command](settings)
    except (UsageError, LayoutError) as exc:  # a layout too large is a bad flag value
        print(f"nerchain: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteError, NoValidPathError) as exc:
        print(f"nerchain: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConllError, EmbeddingError, TagSchemeError, ScoringError, CheckpointError,
            TrainingError, EncoderError, CrfError, OSError) as exc:
        print(f"nerchain: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

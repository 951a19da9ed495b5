"""Command line front end: train, predict, evaluate, inspect.

Settings come from an optional flat key=value config file plus flags; flags
win. Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

import argparse
import logging
import sys
from typing import Callable, NamedTuple

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
    REPAIR_MODES,
    EntityTypeSet,
    SchemeViolation,
    TagSchemeError,
    expand_bio,
    flat_tags,
    repair_bio,
)
from .training import (
    CONFIG_TYPES,
    CheckpointError,
    CorpusMemoryError,
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


class _Setting(NamedTuple):
    """One setting, keyed in _SETTINGS by its config key. `flags` maps each
    command with a flag for it (the key, dashes for underscores) to its help."""

    convert: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] | None = None
    flags: dict[str, str] = {}

    def parse(self, text: str):
        """The value of a config entry, checked as its flag's value is."""
        value = self.convert(text)
        if self.choices and value not in self.choices:
            raise UsageError(f"invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, self.choices))})")
        return value


def _entity_types(text: str) -> EntityTypeSet:
    return EntityTypeSet(tuple(name for name in text.split(",") if name))


def _table(**settings) -> dict[str, _Setting]:
    """The settings in help-screen order; a TrainConfig field takes its type and
    default from TrainConfig."""
    defaults = TrainConfig()
    return {name: setting._replace(convert=CONFIG_TYPES[name], default=getattr(defaults, name))
            if name in CONFIG_TYPES else setting for name, setting in settings.items()}


FORMATS = ("text", "kv")

# command -> (help in the command list, description on its help screen)
_COMMAND_HELP = {
    "train": ("train a model and write a checkpoint",
              "Train one architecture and keep the best dev epoch."),
    "predict": ("tag a file with a trained model", "Decode an input file and write CoNLL output."),
    "evaluate": ("entity-level scores of predictions against gold",
                 "Compare a predicted file with a gold file, aligned by id."),
    "inspect": ("error breakdown of predictions against gold",
                "Confusions, boundary errors, misses and spurious spans."),
}

_SETTINGS = _table(
    token_col=_Setting(int, 0, flags=dict.fromkeys(
        _COMMAND_HELP, "token column in input files (default 0)")),
    tag_col=_Setting(int, -1, flags=dict.fromkeys(("train", "evaluate", "inspect"),
        "tag column in input files (default -1, the last column)")),  # predict reads no tags
    train_file=_Setting(flags={"train": "labeled training file"}),
    dev_file=_Setting(flags={"train": "labeled validation file"}),
    gold=_Setting(flags=dict.fromkeys(("evaluate", "inspect"), "gold labeled file")),
    pred=_Setting(flags=dict.fromkeys(("evaluate", "inspect"), "predicted labeled file")),
    checkpoint=_Setting(flags={"train": "output checkpoint path",
                               "predict": "trained checkpoint"}),
    input=_Setting(flags={"predict": "file to tag (labels, if present, are ignored)"}),
    output=_Setting(flags={"predict": "output file (default stdout)"}),
    embeddings=_Setting(flags={"train": "precomputed embedding file; omit to train a lookup table",
                               "predict": "embedding file for the input sentences"}),
    constrained=_Setting(_str2bool, flags={
        "predict": "BIO-valid decoding (default on for the linear head)"}),
    repair=_Setting(choices=REPAIR_MODES, flags={
        "predict": "post-hoc repair mode applied to predictions",
        "evaluate": "repair mode applied before scoring (default convert)",
        "inspect": "repair mode applied before span extraction (default convert)"}),
    arch=_Setting(choices=ARCHITECTURES, flags={"train": "model architecture (default crf)"}),
    epochs=_Setting(flags={"train": "training epochs (default 10)"}),
    dropout=_Setting(flags={"train": "dropout rate, sensible range 0.2 to 0.5 (default 0.3)"}),
    lr_min=_Setting(flags={"train": "cyclic learning rate lower bound (default 1e-6)"}),
    lr_max=_Setting(flags={"train": "cyclic learning rate upper bound (default 1e-4)"}),
    hidden=_Setting(flags={"train": "BiLSTM hidden size per direction (default 256)"}),
    fc_size=_Setting(flags={
        "train": "width of the two FC layers in the linear head (default 512)"}),
    seed=_Setting(flags={"train": "random seed (default 0)"}),
    format=_Setting(default="text", choices=FORMATS, flags={
        "train": "final report format (default text)",
        "evaluate": "report format (default text)"}),
    types=_Setting(_entity_types, EntityTypeSet()),
    cycle_length=_Setting(),
    min_count=_Setting(),
    dim=_Setting(),
)


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
            values[key] = _SETTINGS[key].parse(value.strip())
        except ValueError as exc:  # UsageError and TagSchemeError included
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


class Settings:
    """Flag values layered over config file values over defaults, one attribute
    per setting."""

    def __init__(self, args: argparse.Namespace):
        config = getattr(args, "config", None)
        from_file = _read(config, UsageError, _config_entries) if config else {}
        for name, setting in _SETTINGS.items():
            flag = getattr(args, name, None)
            if flag == []:  # `--key=--`: Python 3.11's argparse drops the value "--"
                try:
                    flag = setting.parse("--")
                except ValueError as exc:
                    raise UsageError(f"argument --{name.replace('_', '-')}: {exc}") from None
            setattr(self, name, from_file.get(name, setting.default) if flag is None else flag)

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise UsageError(f"--{name.replace('_', '-')} is required")


def _flag_arguments(command: str):
    """(flag, add_argument keywords) of each setting with a flag on command."""
    for name, setting in _SETTINGS.items():
        if command in setting.flags:  # an unset switch is None: the config decides
            kind = ({"action": argparse.BooleanOptionalAction} if setting.convert is _str2bool
                    else {"type": setting.convert, "choices": setting.choices})
            yield "--" + name.replace("_", "-"), {"help": setting.flags[command], **kind}


def build_parser() -> _Parser:
    parser = _Parser(prog="nerchain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (help_text, description) in _COMMAND_HELP.items():
        p = sub.add_parser(command, help=help_text, description=description)
        p.add_argument("--config", help="flat key=value settings file; flags override it")
        for flag, keywords in _flag_arguments(command):
            p.add_argument(flag, **keywords)
    return parser


def _parse_file(path, voc, settings, has_labels=True) -> Corpus:
    return _read(path, ConllError, parse_conll, voc, settings.token_col, settings.tag_col,
                 has_labels)


def cmd_train(settings: Settings) -> int:
    settings.require("train_file", "dev_file", "checkpoint")
    try:
        config = TrainConfig(**{name: getattr(settings, name) for name in CONFIG_TYPES})
    except TrainingError as exc:  # a setting out of range, as a bad flag value is
        raise UsageError(exc) from None
    voc = expand_bio(settings.types)
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
    except CorpusMemoryError as exc:  # name the file of the corpus memory ran out on
        path = settings.train_file if exc.corpus == "train" else settings.dev_file
        raise MemoryError(f"{path}: {exc}") from None
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
    voc = expand_bio(settings.types)
    try:  # checking the model against the input, or decoding with it, names its file
        ensure_compatible(checkpoint, voc)  # before the input is parsed
        corpus = _parse_file(settings.input, voc, settings, has_labels=False)
        embeddings = None
        if settings.embeddings:
            embeddings = _read(settings.embeddings, EmbeddingError, load_embeddings, corpus)
        try:
            predictions = predict_with_checkpoint(checkpoint, corpus, embeddings,
                                                  settings.constrained)
        except MemoryError as exc:  # the message names the batch; the input names the file
            raise MemoryError(f"{settings.input}: {exc}") from None
    except (CheckpointError, CrfError) as exc:
        raise type(exc)(f"{settings.checkpoint}: {exc}") from None
    if settings.repair:  # the whole corpus in one pass
        tags, starts = flat_tags(predictions)
        try:
            repaired = repair_bio(voc, tags, settings.repair, starts=starts).tags.tolist()
        except SchemeViolation as exc:  # strict: name the sentence of the first violation
            raise type(exc)(f"sentence {corpus.sentences[exc.sentence].id!r}: {exc}") from None
        bounds = [*starts.tolist(), len(repaired)]
        predictions = [repaired[a:b] for a, b in zip(bounds, bounds[1:])]

    if settings.output:
        with open(settings.output, "w", encoding="utf-8") as handle:
            write_conll(corpus, handle, tags=predictions)
    else:
        write_conll(corpus, sys.stdout, tags=predictions)
    return EXIT_OK


def _aligned_gold_pred(settings: Settings):
    voc = expand_bio(settings.types)
    gold = _parse_file(settings.gold, voc, settings)
    pred = _parse_file(settings.pred, voc, settings)
    if len(pred) != len(gold):
        raise ScoringError(f"{len(pred)} predicted sentences for {len(gold)} gold sentences")
    by_id = {s.id: s for s in pred}
    predictions = []
    for sent in gold:
        if sent.id not in by_id:
            raise ScoringError(f"no prediction for sentence id {sent.id!r}")
        other = by_id[sent.id]  # another length is the scorer's error, naming the sentence
        if len(other) == len(sent) and other.tokens != sent.tokens:
            raise ConllError(f"sentence id {sent.id!r} names different sentences in "
                             f"{settings.gold} and {settings.pred}")
        predictions.append(other.gold_tags)
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
    except MemoryError as exc:  # the library's message names the sentence
        where = f": {exc}" if str(exc) else ""
        print(f"nerchain: error: {args.command}: out of memory{where}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteError, NoValidPathError) as exc:
        print(f"nerchain: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConllError, EmbeddingError, TagSchemeError, ScoringError, CheckpointError,
            TrainingError, EncoderError, CrfError, OSError) as exc:
        print(f"nerchain: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""Training loop, Adam with a triangular cyclic learning rate, checkpoints.

Sentences are processed one at a time (batch size 1); every epoch shuffles
with the run's seeded generator, applies exact per-sentence gradients with
global-norm clipping at 5.0, and evaluates entity macro-F1 on the dev set.
The checkpoint of the best dev epoch is returned. Given the same seed,
config and data, training is bit-for-bit reproducible.

The optimizer state is one contiguous float64 vector each for the
parameters, both Adam moments and the step's gradient: init_adam adopts
the parameter arrays as views of its vector and hands out each key's view
of the gradient vector, into which the backward passes write, and
adam_step makes each elementwise pass once over all parameters. Clipping
stays per array, summing the squared norms in the order the backward
passes return their arrays.

Decoding (predict_with_checkpoint, each epoch's dev evaluation included)
cuts the corpus's LengthLayout order, longest first, into batches of at most
DECODE_BATCH sentences: one Viterbi time loop per batch, and for the
bilstm-crf head one LSTM time loop as well; the cap bounds their buffers.
The batched kernels give each sentence the bits it gets alone, and a corpus
that fails raises the error of its first failing sentence in input order,
naming that sentence.

Checkpoint container format, version 2 (little endian): magic b"NERCHKP",
one version byte and a u64 header length; a JSON header with sorted keys,
holding the TrainConfig fields under "config", the entity types, the best
dev F1 and epoch, the token list (null for ingested embeddings) and each
array's shape under "arrays", by name; the arrays' float64 values in that
name order; and a u32 CRC-32 of every byte before it. The header is UTF-8
with surrogates passed through, so any str is a token: a lone surrogate, or
two that JSON's escapes would read back as one character.
"""

import json
import logging
import math
import os
import struct
import tempfile
import typing
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .conll_io import Corpus, EmbeddingSet, TokenVocabulary, build_token_vocabulary
from .crf import (
    CrfError,
    LengthLayout,
    NonFiniteScoreError,
    TransitionMatrix,
    nll_gradients,
    viterbi_decode,
)
from .encoders import (
    ARCHITECTURES,
    EmbeddingSource,
    cross_entropy_and_grads,
    embed,
    embed_backward,
    emissions_backward,
    emissions_forward,
    init_params,
    param_shapes,
)
from .metrics import MetricsReport, score
from .tagscheme import EntityTypeSet, TagVocabulary, transition_mask

logger = logging.getLogger(__name__)

GRAD_CLIP_NORM = 5.0
DECODE_BATCH = 32  # sentences per decode time loop; bounds its buffers
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"NERCHKP"
CHECKPOINT_VERSION = 2


class TrainingError(ValueError):
    pass


class NonFiniteError(TrainingError):
    """A loss or gradient stopped being finite."""


class LayoutError(TrainingError):
    """The configured parameter layout exceeds memory or cannot be allocated."""


def physical_memory() -> float:
    """Bytes of physical memory from os.sysconf, or inf where it has none."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# optimizer


@dataclass(eq=False)
class AdamState:
    """The parameters, both moments, the step's gradient and one scratch
    array, each one contiguous float64 vector over the keys in sorted order;
    views holds each key's parameter array, a view of params, and grads each
    key's gradient array, a view of grad."""

    views: dict[str, np.ndarray]
    grads: dict[str, np.ndarray]
    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    scratch: np.ndarray
    step: int = 0


def init_adam(params: dict) -> AdamState:
    """Zero moments for params, whose arrays it adopts: each is copied into
    the state's parameter vector and replaced in the dict by its view of it."""
    keys = sorted(params)
    flat = np.empty(sum(params[key].size for key in keys))
    m, v, grad, scratch = np.zeros((4, flat.size))
    grads, at = {}, 0
    for key in keys:
        view = flat[at:at + params[key].size].reshape(params[key].shape)
        view[...] = params[key]
        params[key], grads[key] = view, grad[at:at + view.size].reshape(view.shape)
        at += view.size
    return AdamState({key: params[key] for key in keys}, grads, flat, m, v, grad, scratch)


def adam_step(state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of every parameter in state.views, in
    place, from state.grad, checked for finiteness once; each elementwise pass
    runs once over all parameters, and the last leaves its result in state.grad."""
    g, s, m, v = state.grad, state.scratch, state.m, state.v
    if not np.isfinite(g).all():
        for key, grad in state.grads.items():  # name the first key holding a non-finite value
            if not np.isfinite(grad).all():
                raise NonFiniteError(f"non-finite gradient in {key!r}")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    # p -= lr (m / c1) / (sqrt(v / c2) + eps), each product in that order
    np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    m *= ADAM_BETA1
    m += s
    np.multiply(g, 1.0 - ADAM_BETA2, out=s)
    s *= g
    v *= ADAM_BETA2
    v += s
    np.divide(v, c2, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPS
    np.divide(m, c1, out=g)
    g *= lr
    g /= s
    state.params -= g


def clip_global_norm(grads: dict, max_norm: float = GRAD_CLIP_NORM) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


# ---------------------------------------------------------------------------
# learning rate schedule


@dataclass(frozen=True)
class LrSchedule:
    """Triangular wave from lr_min up to lr_max and back, period cycle_length."""

    lr_min: float
    lr_max: float
    cycle_length: int

    def __post_init__(self):
        if not 0.0 < self.lr_min <= self.lr_max:
            raise TrainingError(f"need 0 < lr_min <= lr_max, got ({self.lr_min}, {self.lr_max})")
        if self.cycle_length < 2:
            raise TrainingError(f"cycle_length must be >= 2, got {self.cycle_length}")


def lr_at(schedule: LrSchedule, step: int) -> float:
    if step < 0:
        raise TrainingError(f"step must be >= 0, got {step}")
    half = schedule.cycle_length / 2.0
    pos = step % schedule.cycle_length
    span = schedule.lr_max - schedule.lr_min
    if pos <= half:
        return schedule.lr_min + span * (pos / half)
    return schedule.lr_max - span * ((pos - half) / half)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    arch: str = "crf"
    epochs: int = 10
    dropout: float = 0.3
    hidden: int = 256
    fc_size: int = 512
    lr_min: float = 1e-6
    lr_max: float = 1e-4
    cycle_length: int | None = None  # default: two epochs' worth of steps
    seed: int = 0
    min_count: int = 1
    dim: int = 64  # trainable-embedding width when no embedding file is given

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise TrainingError(f"unknown architecture {self.arch!r}")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise TrainingError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("hidden", "fc_size", "dim", "min_count"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1")
        if self.seed < 0:  # numpy seeds with non-negative integers only
            raise TrainingError(f"seed must be >= 0, got {self.seed}")
        LrSchedule(self.lr_min, self.lr_max, 2 if self.cycle_length is None else self.cycle_length)


# field name -> value type (`int | None` reads as int), in declaration order:
# the CLI settings and the checkpoint metadata both derive from it
CONFIG_TYPES = {f.name: (typing.get_args(f.type) or (f.type,))[0]
                for f in fields(TrainConfig)}


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_nll: float
    report: MetricsReport  # the epoch's dev scores


# ---------------------------------------------------------------------------
# per-sentence forward/backward


def _loss_and_grads(arch, params, x, gold, embed_cache, dropout, rng, out):
    """(loss, param grads), the latter written into out's arrays."""
    (scores,), cache = emissions_forward(arch, params, [x], dropout, rng)
    if arch == "linear":
        loss, d_scores = cross_entropy_and_grads(scores, gold)
        head_grads = {}
    else:
        trans = TransitionMatrix(params["crf.trans"])
        loss, d_scores, out["crf.trans"][...] = nll_gradients(scores, trans, gold)
        head_grads = {"crf.trans": out["crf.trans"]}
    dx, grads = emissions_backward(params, cache, d_scores, out)
    grads.update(head_grads)
    grads.update(embed_backward(embed_cache, dx, out))
    return loss, grads


# ---------------------------------------------------------------------------
# checkpoint


@dataclass(eq=False)
class Checkpoint:
    config: TrainConfig
    entity_types: tuple[str, ...]
    params: dict[str, np.ndarray]
    token_vocab: TokenVocabulary | None = None
    best_f1: float = 0.0
    best_epoch: int = 0

    @property
    def dim(self) -> int:
        """Embedding width: config.dim for a trainable table, else the column
        count of the layout's first array, the input-side weight (0 if missing)."""
        if self.token_vocab is not None:
            return self.config.dim
        cfg = self.config
        first = next(iter(param_shapes(cfg.arch, 0, 1, cfg.hidden, cfg.fc_size)))
        weight = self.params.get(first)
        return weight.shape[1] if weight is not None and weight.ndim == 2 else 0

    def tag_vocabulary(self) -> TagVocabulary:
        return TagVocabulary(EntityTypeSet(self.entity_types))

    def embedding_source(self, embeddings: EmbeddingSet | None) -> EmbeddingSource:
        """Rebuild the embedding source this model was trained with."""
        if self.token_vocab is not None:
            return EmbeddingSource(table=self.params["embed.table"], token_vocab=self.token_vocab)
        if embeddings is None:
            raise CheckpointError("model was trained on ingested embeddings; none provided")
        if embeddings.dim != self.dim:
            raise CheckpointError(
                f"embedding dimension {embeddings.dim} != checkpoint dimension {self.dim}")
        return EmbeddingSource(embeddings)

    def __eq__(self, other):
        """Equal when both serialize to the same bytes."""
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return _serialize(self) == _serialize(other)


def ensure_compatible(checkpoint: Checkpoint, voc: TagVocabulary) -> None:
    """Reject a checkpoint whose label space differs from the given vocabulary."""
    if tuple(checkpoint.entity_types) != tuple(voc.entity_types.types):
        raise CheckpointError(
            f"checkpoint label space has {checkpoint.tag_vocabulary().k} tags "
            f"({','.join(checkpoint.entity_types)}), vocabulary has {voc.k} "
            f"({','.join(voc.entity_types.types)})"
        )


def _validate_arrays(checkpoint: Checkpoint) -> None:
    cfg = checkpoint.config
    vocab_len = len(checkpoint.token_vocab) if checkpoint.token_vocab is not None else None
    expected = param_shapes(cfg.arch, checkpoint.dim, checkpoint.tag_vocabulary().k,
                            cfg.hidden, cfg.fc_size, vocab_len)
    if sorted(expected) != sorted(checkpoint.params):
        raise CheckpointError(
            f"checkpoint arrays {sorted(checkpoint.params)} do not match "
            f"architecture {cfg.arch!r} (expected {sorted(expected)})"
        )
    for key, shape in expected.items():
        if checkpoint.params[key].shape != shape:
            raise CheckpointError(
                f"array {key!r} has shape {checkpoint.params[key].shape}, expected {shape}"
            )


def _refuse_non_finite(params: dict) -> None:
    for key in sorted(params):
        if not np.isfinite(params[key]).all():
            raise CheckpointError(f"array {key!r} holds a non-finite value")


def _serialize(checkpoint: Checkpoint) -> bytes:
    header = json.dumps({
        "config": {name: None if value is None else CONFIG_TYPES[name](value)
                   for name, value in vars(checkpoint.config).items()},
        "entity_types": list(checkpoint.entity_types),
        "best_f1": float(checkpoint.best_f1),
        "best_epoch": int(checkpoint.best_epoch),
        "tokens": None if checkpoint.token_vocab is None else list(checkpoint.token_vocab.tokens),
        "arrays": {key: list(np.shape(array)) for key, array in checkpoint.params.items()},
    }, sort_keys=True, ensure_ascii=False).encode("utf-8", "surrogatepass")
    parts = [CHECKPOINT_MAGIC, bytes([CHECKPOINT_VERSION]), struct.pack("<Q", len(header)), header]
    parts += [np.ascontiguousarray(checkpoint.params[key], dtype="<f8").tobytes()
              for key in sorted(checkpoint.params)]
    crc = 0
    for part in parts:  # part by part: one copy of the payload, in the join
        crc = zlib.crc32(part, crc)
    return b"".join(parts + [struct.pack("<I", crc)])


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Serialize; atomic on the destination (no partial file is left behind).
    An array holding a non-finite value is refused before anything is
    written, since load_checkpoint would not take it back."""
    _refuse_non_finite(checkpoint.params)
    blob = _serialize(checkpoint)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; every CheckpointError it raises names path."""
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        return _deserialize(blob)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _typed(value, kind, what):
    """value if it is an instance of kind, and no bool; else a TypeError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{what} has type {type(value).__name__}")
    return value


def _deserialize(blob: bytes) -> Checkpoint:
    offset, end = 0, len(blob) - 4  # the CRC-32 trailer covers blob[:end]

    def take(count, what):
        nonlocal offset
        if offset + count > end:
            raise CheckpointError(f"corrupt checkpoint: truncated while reading {what}")
        piece = blob[offset:offset + count]
        offset += count
        return piece

    header = take(len(CHECKPOINT_MAGIC) + 1, "header")
    if header[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError("corrupt checkpoint: bad magic")
    version = header[-1]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} is not supported (expected {CHECKPOINT_VERSION})"
        )
    if zlib.crc32(memoryview(blob)[:end]) != int.from_bytes(blob[end:], "little"):
        raise CheckpointError("corrupt checkpoint: checksum mismatch")

    (header_len,) = struct.unpack("<Q", take(8, "header length"))
    text = take(header_len, "header")
    floats = (end - offset) // 8  # bounds every extent, a zero-size array's too
    try:  # a crafted header can carry a valid checksum, and hold any JSON
        meta = json.loads(text.decode("utf-8", "surrogatepass"))
        config = TrainConfig(**{f.name: _typed(meta["config"][f.name], f.type, f.name)
                                for f in fields(TrainConfig)})
        entity_types = EntityTypeSet(tuple(_typed(meta["entity_types"], list,
                                                  "entity_types"))).types
        best_f1 = _typed(meta["best_f1"], float, "best_f1")
        best_epoch = _typed(meta["best_epoch"], int, "best_epoch")
        tokens = _typed(meta["tokens"], list | None, "tokens")
        if tokens is not None and not set(map(type, tokens)) <= {str}:
            raise TypeError("a token is not a str")
        token_vocab = None if tokens is None else TokenVocabulary(tokens)
        shapes = {}
        for name, shape in _typed(meta["arrays"], dict, "arrays").items():
            shape = tuple(_typed(extent, int, f"extent of {name!r}")
                          for extent in _typed(shape, list, f"shape of {name!r}"))
            if len(shape) > 2 or not all(0 <= extent <= floats for extent in shape):
                raise ValueError(f"array {name!r} has shape {shape}")  # vector or matrix
            shapes[name] = shape
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CheckpointError(f"corrupt checkpoint metadata: {exc}") from None

    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        data = take(8 * math.prod(shape), f"array {name!r} data")
        params[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    if offset != end:
        raise CheckpointError("corrupt checkpoint: trailing bytes")
    _refuse_non_finite(params)

    checkpoint = Checkpoint(config, entity_types, params, token_vocab, best_f1, best_epoch)
    _validate_arrays(checkpoint)
    return checkpoint


# ---------------------------------------------------------------------------
# training loop and decoding


def train(train_corpus: Corpus, dev_corpus: Corpus, config: TrainConfig,
          embeddings: EmbeddingSet | None = None):
    """Train one architecture; returns (best checkpoint, per-epoch stats), where
    each epoch's stats carry its dev MetricsReport.

    embeddings: precomputed vectors covering both corpora, or None to learn
    a token embedding table (built from the train corpus, UNK for the rest).
    """
    voc = train_corpus.tag_vocabulary
    if dev_corpus.tag_vocabulary.tags != voc.tags:
        raise TrainingError("train and dev corpora use different tag vocabularies")
    if not train_corpus.sentences:
        raise TrainingError("the train corpus has no sentences")
    for name, corpus in (("train", train_corpus), ("dev", dev_corpus)):
        for sent in corpus:
            if sent.gold_tags is None:
                raise TrainingError(f"{name} sentence {sent.id!r} has no gold tags")
            if embeddings is not None and sent.id not in embeddings:
                raise TrainingError(f"no embeddings for {name} sentence {sent.id!r}")

    rng = np.random.default_rng(config.seed)
    if embeddings is None:
        token_vocab = build_token_vocabulary(train_corpus, config.min_count)
        dim, vocab_size = config.dim, len(token_vocab)
    else:
        token_vocab, dim, vocab_size = None, embeddings.dim, None
    layout = (config.arch, dim, voc.k, config.hidden, config.fc_size, vocab_size)
    floats = sum(math.prod(shape) for shape in param_shapes(*layout).values())
    try:
        # the optimizer's five vectors; rejected before anything is allocated
        if 5 * 8 * floats > physical_memory():
            raise MemoryError
        state = init_adam(init_params(*layout, rng))
    except MemoryError:
        raise LayoutError(
            f"cannot allocate the {config.arch} layout (hidden={config.hidden}, "
            f"fc_size={config.fc_size}, dim={dim}): {floats} parameter floats, "
            f"five times that with the optimizer state"
        ) from None
    # the model being trained, over the optimizer's live parameter views
    model = Checkpoint(config, tuple(voc.entity_types.types), state.views, token_vocab)
    source = model.embedding_source(embeddings)

    sentences = list(train_corpus.sentences)
    cycle = max(2, 2 * len(sentences)) if config.cycle_length is None else config.cycle_length
    schedule = LrSchedule(config.lr_min, config.lr_max, cycle)

    best: Checkpoint | None = None
    history: list[EpochStats] = []
    step = 0

    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFiniteError, not warned
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(sentences))
            total_nll = 0.0
            for idx in order:
                sent = sentences[idx]
                try:  # a diverged model fails the CRF score checks; that is a numeric failure
                    x, embed_cache = embed(sent, source, config.dropout, rng)
                    loss, grads = _loss_and_grads(config.arch, model.params, x, sent.gold_tags,
                                                  embed_cache, config.dropout, rng, state.grads)
                    if not math.isfinite(loss):
                        raise NonFiniteError(f"non-finite loss {loss!r}")
                    clip_global_norm(grads)
                    adam_step(state, lr_at(schedule, step))
                except (NonFiniteError, NonFiniteScoreError) as exc:
                    raise NonFiniteError(f"training diverged at epoch {epoch}, "
                                         f"sentence {sent.id!r}: {exc}") from None
                except MemoryError:
                    raise MemoryError(f"epoch {epoch}, sentence {sent.id!r} "
                                      f"({len(sent)} tokens)") from None
                step += 1
                total_nll += loss
            mean_nll = total_nll / len(sentences)

            try:
                report = evaluate_corpus(model, dev_corpus, embeddings)
            except NonFiniteScoreError as exc:
                raise NonFiniteError(f"training diverged at epoch {epoch}, "
                                     f"dev evaluation: {exc}") from None
            except MemoryError as exc:
                raise MemoryError(f"epoch {epoch}, dev evaluation: {exc}") from None
            history.append(EpochStats(epoch, mean_nll, report))
            logger.info(
                "epoch %d nll %.6f dev P %.4f R %.4f F1 %.4f",
                epoch, mean_nll, report.macro_precision, report.macro_recall, report.macro_f1,
            )
            if best is None or report.macro_f1 > best.best_f1:  # ties keep the first
                best = replace(
                    model, params={k: v.copy() for k, v in model.params.items()},
                    best_f1=report.macro_f1, best_epoch=epoch)
    return best, history


@np.errstate(over="ignore", invalid="ignore")
def predict_with_checkpoint(checkpoint: Checkpoint, corpus: Corpus,
                            embeddings: EmbeddingSet | None = None,
                            constrained: bool | None = None) -> list[list[int]]:
    """Predicted tag indices for every sentence (no dropout), under the
    hard BIO mask if constrained; None is the head's default. The linear
    head's log-probabilities are decoded with zero transitions. Every head
    decodes the corpus longest first, DECODE_BATCH sentences per batch: one
    emissions_forward call and one viterbi_decode call each. A failing corpus
    is decoded again by the same loop in batches of one, in input order, and
    the CrfError of its first failing sentence is raised naming that sentence;
    numpy's overflow warnings are off, since overflow ends in that CrfError.
    A MemoryError names the longest sentence of the batch that raised it."""
    voc = corpus.tag_vocabulary
    ensure_compatible(checkpoint, voc)
    source = checkpoint.embedding_source(embeddings)
    arch, params = checkpoint.config.arch, checkpoint.params
    trans = (TransitionMatrix.zeros(voc) if arch == "linear"
             else TransitionMatrix(params["crf.trans"]))
    if constrained is None:  # CRF heads learn transitions and decode freely; the
        constrained = arch == "linear"  # softmax head cannot, so it gets the BIO mask
    mask = transition_mask(voc) if constrained else None
    sentences = corpus.sentences

    def paths(order, size):
        for start in range(0, len(order), size):
            batch = order[start:start + size]
            try:
                xs = [embed(sentences[j], source)[0] for j in batch]
                decoded = viterbi_decode(emissions_forward(arch, params, xs)[0], trans, mask)
            except MemoryError:
                longest = sentences[batch[0]]  # a batch is longest first
                raise MemoryError(f"decoding a batch of {len(batch)} sentences, the longest "
                                  f"{longest.id!r} ({len(longest)} tokens)") from None
            for path, _ in decoded:
                yield path

    layout = LengthLayout(len(s) for s in sentences)
    try:
        return layout.unstack(paths(layout.order, DECODE_BATCH))
    except ValueError:  # raise what the first failing sentence in input order raises alone
        for j, sent in enumerate(sentences):
            try:
                list(paths([j], 1))
            except CrfError as exc:
                raise type(exc)(f"sentence {sent.id!r}: {exc}") from None
        raise


def evaluate_corpus(checkpoint: Checkpoint, corpus: Corpus,
                    embeddings: EmbeddingSet | None) -> MetricsReport:
    return score(corpus, predict_with_checkpoint(checkpoint, corpus, embeddings))

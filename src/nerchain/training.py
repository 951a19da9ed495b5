"""Training loop, Adam with a triangular cyclic learning rate, checkpoints.

Sentences are processed one at a time (batch size 1); every epoch shuffles
with the run's seeded generator, applies exact per-sentence gradients with
global-norm clipping at 5.0, and evaluates entity macro-F1 on the dev set.
The checkpoint of the best dev epoch is returned. Given the same seed,
config and data, training is bit-for-bit reproducible.

Decoding (predict_corpus, and so each epoch's dev evaluation) cuts the
corpus's LengthLayout order, longest first, into batches of at most
DECODE_BATCH sentences: one Viterbi time loop per batch, and for the
bilstm-crf head one LSTM time loop as well; the cap bounds their buffers.
The batched kernels give each sentence the bits it gets alone, and a corpus
that fails raises the error of its first failing sentence in input order.

Checkpoint container format (little endian): magic b"NERCHKP" + one version
byte, a UTF-8 metadata block of key=value lines, then named float64 arrays
with explicit dimension headers.
"""

import logging
import math
import os
import struct
import tempfile
import typing
from dataclasses import dataclass, fields

import numpy as np

from .conll_io import Corpus, EmbeddingSet, TokenVocabulary, build_token_vocabulary
from .crf import LengthLayout, NonFiniteScoreError, TransitionMatrix, nll_gradients, viterbi_decode
from .encoders import (
    ARCHITECTURES,
    EmbeddingSource,
    cross_entropy_and_grads,
    embed,
    embed_backward,
    emissions_backward,
    emissions_batch,
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
CHECKPOINT_VERSION = 1


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


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(params: dict) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update, in place over every parameter array."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for key in sorted(params):
        if key not in grads:
            raise TrainingError(f"missing gradient for parameter {key!r}")
        g = grads[key]
        p = params[key]
        if g.shape != p.shape:
            raise TrainingError(f"gradient shape {g.shape} != parameter shape {p.shape} for {key!r}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient in {key!r}")
        m = state.m[key]
        v = state.v[key]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state


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
# per-sentence forward/backward and decoding


def _loss_and_grads(arch, params, x, gold, embed_cache, dropout, rng):
    scores, cache = emissions_forward(arch, params, x, dropout, rng)
    if arch == "linear":
        loss, d_scores = cross_entropy_and_grads(scores, gold)
        head_grads = {}
    else:
        trans = TransitionMatrix(params["crf.trans"])
        loss, d_scores, d_trans = nll_gradients(scores, trans, gold)
        head_grads = {"crf.trans": d_trans}
    dx, grads = emissions_backward(params, cache, d_scores)
    grads.update(head_grads)
    grads.update(embed_backward(embed_cache, dx))
    return loss, grads


def predict_corpus(arch, params, corpus: Corpus, source: EmbeddingSource,
                   constrained: bool | None = None) -> list[list[int]]:
    """Predicted tag indices for every sentence (no dropout), under the
    hard BIO mask if constrained; None is the head's default. The linear
    head's log-probabilities are decoded with zero transitions. Every head
    decodes the corpus longest first, DECODE_BATCH sentences per batch: one
    emissions_batch call and one viterbi_decode call each. A failing corpus
    is decoded again by the same loop in batches of one, in input order, so
    that it raises the error of its first failing sentence."""
    voc = corpus.tag_vocabulary
    trans = (TransitionMatrix.zeros(voc) if arch == "linear"
             else TransitionMatrix(params["crf.trans"]))
    if constrained is None:  # CRF heads learn transitions and decode freely; the
        constrained = arch == "linear"  # softmax head cannot, so it gets the BIO mask
    mask = transition_mask(voc) if constrained else None
    sentences = corpus.sentences

    def paths(order, size):
        for start in range(0, len(order), size):
            xs = [embed(sentences[j], source)[0] for j in order[start:start + size]]
            for path, _ in viterbi_decode(emissions_batch(arch, params, xs), trans, mask):
                yield path

    layout = LengthLayout(len(s) for s in sentences)
    try:
        return layout.unstack(paths(layout.order, DECODE_BATCH))
    except ValueError:  # raise what the first failing sentence in input order raises alone
        list(paths(range(len(sentences)), 1))
        raise


def evaluate_corpus(arch, params, corpus, source):
    return score(corpus, predict_corpus(arch, params, corpus, source))


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


def _serialize(checkpoint: Checkpoint) -> bytes:
    meta: dict[str, str] = {}
    for name in CONFIG_TYPES:
        value = getattr(checkpoint.config, name)
        if value is None:
            value = ""
        meta[name] = repr(value) if isinstance(value, float) else str(value)
    meta["entity_types"] = " ".join(checkpoint.entity_types)
    meta["activation"] = "relu"
    meta["selection"] = "dev-macro-f1"
    meta["best_f1"] = repr(float(checkpoint.best_f1))
    meta["best_epoch"] = str(checkpoint.best_epoch)
    if checkpoint.token_vocab is not None:
        meta["tokens"] = " ".join(checkpoint.token_vocab.tokens)

    blob = bytearray()
    blob += CHECKPOINT_MAGIC + bytes([CHECKPOINT_VERSION])
    meta_bytes = "".join(f"{k}={v}\n" for k, v in sorted(meta.items())).encode("utf-8")
    blob += struct.pack("<Q", len(meta_bytes)) + meta_bytes
    blob += struct.pack("<I", len(checkpoint.params))
    for key in sorted(checkpoint.params):
        array = np.ascontiguousarray(checkpoint.params[key], dtype="<f8")
        name = key.encode("utf-8")
        blob += struct.pack("<H", len(name)) + name
        blob += struct.pack("<B", array.ndim)
        for extent in array.shape:
            blob += struct.pack("<Q", extent)
        blob += array.tobytes()
    return bytes(blob)


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Serialize; atomic on the destination (no partial file is left behind)."""
    for token in checkpoint.token_vocab.tokens if checkpoint.token_vocab is not None else ():
        if token.split() != [token]:  # load reads the tokens back with split()
            raise CheckpointError(f"token {token!r} cannot be stored in a checkpoint")
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
    with open(path, "rb") as handle:
        blob = handle.read()

    offset = 0

    def take(count, what):
        nonlocal offset
        if offset + count > len(blob):
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

    (meta_len,) = struct.unpack("<Q", take(8, "metadata length"))
    meta_bytes = take(meta_len, "metadata")
    try:  # every decoding failure below is a ValueError (UnicodeDecodeError included)
        meta: dict[str, str] = {}
        for line in meta_bytes.decode("utf-8").splitlines():
            if line:
                key, _, value = line.partition("=")
                meta[key] = value
        kwargs = {}
        for f in fields(TrainConfig):
            text = meta[f.name]  # "" stands for None in the optional fields
            kwargs[f.name] = None if f.default is None and not text else CONFIG_TYPES[f.name](text)
        config = TrainConfig(**kwargs)
        entity_types = EntityTypeSet(tuple(meta["entity_types"].split())).types
        best_f1 = float(meta["best_f1"])
        best_epoch = int(meta["best_epoch"])
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint metadata: {exc}") from None
    token_vocab = TokenVocabulary(meta["tokens"].split()) if "tokens" in meta else None

    (n_arrays,) = struct.unpack("<I", take(4, "array count"))
    params: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack("<H", take(2, "array name length"))
        try:
            name = take(name_len, "array name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("corrupt checkpoint: array name is not UTF-8") from None
        (ndim,) = struct.unpack("<B", take(1, "array rank"))
        if ndim > 2:  # every layout array is a vector or a matrix
            raise CheckpointError(f"corrupt checkpoint: array {name!r} has rank {ndim}")
        shape = tuple(struct.unpack("<Q", take(8, "array dimension"))[0] for _ in range(ndim))
        count = math.prod(shape)  # exact: a corrupted extent cannot wrap around
        data = take(8 * count, f"array {name!r} data")
        params[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    if offset != len(blob):
        raise CheckpointError("corrupt checkpoint: trailing bytes")

    checkpoint = Checkpoint(config, entity_types, params, token_vocab, best_f1, best_epoch)
    _validate_arrays(checkpoint)
    return checkpoint


# ---------------------------------------------------------------------------
# training loop


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
        if 3 * 8 * floats > physical_memory():  # rejected before anything is allocated
            raise MemoryError
        params = init_params(*layout, rng)
        state = init_adam(params)
    except MemoryError:
        raise LayoutError(
            f"cannot allocate the {config.arch} layout (hidden={config.hidden}, "
            f"fc_size={config.fc_size}, dim={dim}): {floats} parameter floats, "
            f"three times that with the Adam moments"
        ) from None
    source = EmbeddingSource(embeddings, params.get("embed.table"), token_vocab)

    sentences = list(train_corpus.sentences)
    cycle = max(2, 2 * len(sentences)) if config.cycle_length is None else config.cycle_length
    schedule = LrSchedule(config.lr_min, config.lr_max, cycle)

    best_params: dict[str, np.ndarray] = {}
    history: list[EpochStats] = []
    step = 0

    with np.errstate(over="ignore", invalid="ignore"):  # reported as NonFiniteError, not warned
        try:  # a diverged model fails the CRF score checks; that is a numeric failure
            for epoch in range(1, config.epochs + 1):
                order = rng.permutation(len(sentences))
                total_nll = 0.0
                for idx in order:
                    sent = sentences[idx]
                    x, embed_cache = embed(sent, source, config.dropout, rng)
                    loss, grads = _loss_and_grads(config.arch, params, x, sent.gold_tags,
                                                  embed_cache, config.dropout, rng)
                    if not np.isfinite(loss):
                        raise NonFiniteError(
                            f"non-finite loss {loss!r} at epoch {epoch}, sentence {sent.id!r}"
                        )
                    clip_global_norm(grads)
                    try:
                        adam_step(params, grads, state, lr_at(schedule, step))
                    except NonFiniteError as exc:
                        raise NonFiniteError(
                            f"{exc} at epoch {epoch}, sentence {sent.id!r}") from None
                    step += 1
                    total_nll += loss
                mean_nll = total_nll / len(sentences)

                report = evaluate_corpus(config.arch, params, dev_corpus, source)
                stats = EpochStats(epoch, mean_nll, report)
                history.append(stats)
                logger.info(
                    "epoch %d nll %.6f dev P %.4f R %.4f F1 %.4f",
                    epoch, mean_nll, report.macro_precision, report.macro_recall, report.macro_f1,
                )
                # a new best epoch; ties keep the first
                if max(history, key=lambda h: h.report.macro_f1) is stats:
                    best_params = {k: v.copy() for k, v in params.items()}
        except NonFiniteScoreError as exc:
            raise NonFiniteError(f"training diverged at epoch {epoch}: {exc}") from None

    best = max(history, key=lambda h: h.report.macro_f1)
    checkpoint = Checkpoint(config, tuple(voc.entity_types.types), best_params,
                            token_vocab, best.report.macro_f1, best.epoch)
    return checkpoint, history


def predict_with_checkpoint(checkpoint: Checkpoint, corpus: Corpus,
                            embeddings: EmbeddingSet | None = None,
                            constrained: bool | None = None) -> list[list[int]]:
    """Decode a corpus with a trained model; constrained as predict_corpus."""
    ensure_compatible(checkpoint, corpus.tag_vocabulary)
    source = checkpoint.embedding_source(embeddings)
    return predict_corpus(checkpoint.config.arch, checkpoint.params, corpus, source, constrained)

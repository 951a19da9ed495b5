"""CoNLL-style column file I/O, token vocabularies, and embedding ingestion.

File grammar: sentences are maximal runs of non-blank lines; a line starting
with "# id " carries the sentence id, other "#" lines are comments; fields
are whitespace separated, token in column 0 and tag in the last column by
default (filler columns written as "_").

The embedding file format replaces the contextual encoder: a "dim <d>"
header, then per sentence a "# id <sid>" line followed by one row of d
decimal floats per token, sentences separated by blank lines.
"""

import io
from dataclasses import dataclass, field

import numpy as np

from .tagscheme import TagVocabulary

PAD_INDEX = 0
UNK_INDEX = 1
_N_RESERVED = 2


class ConllError(ValueError):
    pass


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class Sentence:
    id: str
    tokens: tuple[str, ...]
    gold_tags: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.tokens:
            raise ConllError(f"sentence {self.id!r} has no tokens")
        if self.gold_tags is not None and len(self.gold_tags) != len(self.tokens):
            raise ConllError(
                f"sentence {self.id!r}: {len(self.gold_tags)} tags for {len(self.tokens)} tokens"
            )

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    tag_vocabulary: TagVocabulary

    def __post_init__(self):
        seen = set()
        for sent in self.sentences:
            if sent.id in seen:
                raise ConllError(f"duplicate sentence id {sent.id!r}")
            seen.add(sent.id)
            if sent.gold_tags is not None:
                k = self.tag_vocabulary.k
                for tag in sent.gold_tags:
                    if not 0 <= tag < k:
                        raise ConllError(f"sentence {sent.id!r}: tag index {tag} out of range")

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self):
        return len(self.sentences)


def parse_conll(
    stream,
    voc: TagVocabulary,
    token_column: int = 0,
    tag_column: int = -1,
    has_labels: bool = True,
) -> Corpus:
    """Parse a column file into a Corpus. Sentences without an explicit
    "# id" line are numbered by their ordinal position."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    sentences: list[Sentence] = []
    tokens: list[str] = []
    tags: list[int] = []
    pending_id: str | None = None

    def flush():
        nonlocal pending_id, tokens, tags
        if tokens:
            sid = pending_id if pending_id is not None else str(len(sentences))
            sentences.append(
                Sentence(sid, tuple(tokens), tuple(tags) if has_labels else None)
            )
        pending_id = None
        tokens = []
        tags = []

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            if line.startswith("# id "):
                pending_id = line[len("# id "):].strip()
            continue
        fields = line.split()
        if not -len(fields) <= token_column < len(fields):
            raise ConllError(f"line {lineno}: expected token in column {token_column}: {line!r}")
        tokens.append(fields[token_column])
        if has_labels:
            col = tag_column if tag_column >= 0 else len(fields) + tag_column
            if not 0 <= col < len(fields) or len(fields) == 1:
                raise ConllError(f"line {lineno}: too few fields for tag column: {line!r}")
            if col == token_column % len(fields):
                raise ConllError(f"line {lineno}: token column {token_column} and tag column "
                                 f"{tag_column} are the same field: {line!r}")
            name = fields[col]
            try:
                tags.append(voc.index(name))
            except ValueError:
                raise ConllError(f"line {lineno}: unknown tag name {name!r}") from None
    flush()
    return Corpus(tuple(sentences), voc)


def write_conll(corpus: Corpus, stream, tags=None) -> None:
    """Write a corpus in the same grammar parse_conll accepts.

    tags: optional per-sentence tag index sequences overriding gold_tags.
    """
    if tags is not None and len(tags) != len(corpus.sentences):
        raise ConllError(f"{len(tags)} tag sequences for {len(corpus.sentences)} sentences")
    for pos, sent in enumerate(corpus.sentences):
        seq = tags[pos] if tags is not None else sent.gold_tags
        if seq is None or len(seq) != len(sent):
            raise ConllError(f"sentence {sent.id!r} is missing a full tag sequence")
        stream.write(f"# id {sent.id}\n")
        for token, tag in zip(sent.tokens, seq):
            if not token or any(c.isspace() for c in token) or token.startswith("#"):
                raise ConllError(f"token {token!r} cannot be serialized")
            stream.write(f"{token} _ _ {corpus.tag_vocabulary.name(int(tag))}\n")
        stream.write("\n")


class TokenVocabulary:
    """Token to index map with reserved PAD (0) and UNK (1) entries."""

    def __init__(self, tokens):
        self._index = {}
        for token in tokens:
            if token not in self._index:
                self._index[token] = _N_RESERVED + len(self._index)
        self._tokens = tuple(self._index)

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    def __len__(self):
        return _N_RESERVED + len(self._tokens)

    def lookup(self, token: str) -> int:
        return self._index.get(token, UNK_INDEX)

    def __contains__(self, token):
        return token in self._index

    def __eq__(self, other):
        return isinstance(other, TokenVocabulary) and self._tokens == other._tokens


def build_token_vocabulary(corpus: Corpus, min_count: int = 1) -> TokenVocabulary:
    """Tokens with frequency >= min_count, indexed in first-occurrence order."""
    if min_count < 1:
        raise ConllError(f"min_count must be >= 1, got {min_count}")
    counts: dict[str, int] = {}
    for sent in corpus:
        for token in sent.tokens:
            counts[token] = counts.get(token, 0) + 1
    return TokenVocabulary(t for t, c in counts.items() if c >= min_count)


@dataclass(frozen=True)
class EmbeddingSet:
    dim: int
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def __contains__(self, sid):
        return sid in self.matrices

    def __getitem__(self, sid) -> np.ndarray:
        try:
            return self.matrices[sid]
        except KeyError:
            raise EmbeddingError(f"no embeddings for sentence id {sid!r}") from None


def load_embeddings(stream, corpus: Corpus) -> EmbeddingSet:
    """Load per-token embedding matrices keyed by sentence id."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lengths = {s.id: len(s) for s in corpus}
    dim = None
    matrices: dict[str, np.ndarray] = {}
    sid = None
    rows: list[list[float]] = []

    def flush():
        nonlocal sid, rows
        if sid is None:
            return
        if len(rows) != lengths[sid]:
            raise EmbeddingError(
                f"sentence {sid!r}: {len(rows)} rows for {lengths[sid]} tokens"
            )
        matrices[sid] = np.array(rows, dtype=np.float64)
        sid = None
        rows = []

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise EmbeddingError(f"line {lineno}: expected 'dim <d>' header, got {line!r}")
            try:
                dim = int(parts[1])
            except ValueError:
                dim = 0
            if dim < 1:
                raise EmbeddingError(f"line {lineno}: bad dimension {parts[1]!r}")
            continue
        if line.startswith("# id "):
            flush()
            sid = line[len("# id "):].strip()
            if sid not in lengths:
                raise EmbeddingError(f"line {lineno}: unknown sentence id {sid!r}")
            if sid in matrices:
                raise EmbeddingError(f"line {lineno}: duplicate sentence id {sid!r}")
            continue
        if sid is None:
            raise EmbeddingError(f"line {lineno}: row outside a sentence block")
        try:
            values = [float(v) for v in line.split()]
        except ValueError:
            raise EmbeddingError(f"line {lineno}: non-numeric embedding value in {line!r}") from None
        if len(values) != dim:
            raise EmbeddingError(f"line {lineno}: {len(values)} values, header says dim {dim}")
        if not all(np.isfinite(values)):
            raise EmbeddingError(f"line {lineno}: non-finite embedding value")
        rows.append(values)
    flush()
    if dim is None:
        raise EmbeddingError("empty embedding file")
    return EmbeddingSet(dim, matrices)


def write_embeddings(embeddings: EmbeddingSet, stream) -> None:
    """Write an EmbeddingSet losslessly (float64 repr round-trips)."""
    stream.write(f"dim {embeddings.dim}\n")
    for sid, matrix in embeddings.matrices.items():
        stream.write(f"# id {sid}\n")
        for row in matrix:
            stream.write(" ".join(repr(float(v)) for v in row) + "\n")
        stream.write("\n")

"""CoNLL-style column file I/O, token vocabularies, and embedding ingestion.

File grammar: sentences are maximal runs of non-blank lines; a line starting
with "# id " carries the sentence id, other "#" lines are comments; fields
are whitespace separated, token in column 0 and tag in the last column by
default (filler columns written as "_"). A token may not begin with "#".

The embedding file format replaces the contextual encoder: a "dim <d>"
header, then per sentence a "# id <sid>" line followed by one row of d
decimal floats per token, sentences separated by blank lines.
"""

import io
import operator
import re
from array import array
from functools import cached_property
from itertools import repeat
from dataclasses import dataclass, field

import numpy as np

from .tagscheme import BioPass, TagSchemeError, TagVocabulary, bio_pass, flat_tags

PAD_INDEX = 0
UNK_INDEX = 1
_N_RESERVED = 2
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # the code points UTF-8 cannot encode


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


def _check_gold(sentences, k: int) -> None:
    """Raise the ConllError of the first gold tag that is not an integer in
    [0, k). A tag is an integer by operator.index's rule, as crf._tag_indices
    has it. array("Q") reads each sentence's gold tags by that rule, in C,
    into an unsigned 64-bit array of its exact size (a buffer grown tag by tag
    raised train()'s peak RSS), and the max of them all gives the range check;
    only a failing corpus is checked again one tag at a time, for the error."""
    labelled = [sent for sent in sentences if sent.gold_tags is not None]
    try:
        values = b"".join([array("Q", sent.gold_tags) for sent in labelled])
        if not values or np.frombuffer(values, np.uint64).max() < k:
            return
    except (TypeError, OverflowError):  # not an integer, or negative, or past 64 bits
        pass
    for sent in labelled:
        for tag in sent.gold_tags:
            try:
                index = operator.index(tag)
            except TypeError:
                raise ConllError(
                    f"sentence {sent.id!r}: tag index {tag!r} is not an integer") from None
            if not 0 <= index < k:
                raise ConllError(f"sentence {sent.id!r}: tag index {tag} out of range")


@dataclass(frozen=True)
class Corpus:
    """Sentences with distinct ids, and the tag vocabulary their gold tags
    index: every gold tag is an integer in the vocabulary's range.

    gold_pass, what scoring matches predictions against, is computed from the
    gold tags on first use and kept, which relies on the corpus being frozen:
    mutating a tag list that was passed in afterwards leaves it stale. It is
    not a field, so a scored corpus equals and hashes like an unscored one.
    """

    sentences: tuple[Sentence, ...]
    tag_vocabulary: TagVocabulary

    def __post_init__(self):
        sentences = self.sentences
        seen = set()
        for row, sent in enumerate(sentences):
            if sent.id in seen:  # a bad gold tag in an earlier sentence raises first
                _check_gold(sentences[:row], self.tag_vocabulary.k)
                raise ConllError(f"duplicate sentence id {sent.id!r}")
            seen.add(sent.id)
        _check_gold(sentences, self.tag_vocabulary.k)

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self):
        return len(self.sentences)

    @cached_property
    def gold_pass(self) -> tuple[BioPass, np.ndarray]:
        """tagscheme.bio_pass of the gold tags end to end, as they are, and each
        sentence's start offset (tagscheme.flat_tags): computed once, read-only."""
        tags, starts = flat_tags([sent.gold_tags for sent in self.sentences])
        truth = bio_pass(self.tag_vocabulary, tags, starts)
        for kept in (*truth[1:], starts):
            kept.flags.writeable = False
        return truth, starts


def _id_line(line: str) -> str | None:
    """The sentence id an id line carries, "" when it carries none; None for any
    other line. Both readers recognise id lines here: "# id", a space and the id,
    or "# id" with nothing but whitespace after it."""
    if line.startswith("# id ") or line.rstrip() == "# id":
        return line[len("# id"):].strip()
    return None


def _columns(n_fields, token_column, tag_column, has_labels, lineno, line):
    """(token position, tag position) in a row of n_fields fields; raises the
    row's ConllError where there are none. They depend only on the field count."""
    if not -n_fields <= token_column < n_fields:
        raise ConllError(f"line {lineno}: expected token in column {token_column}: {line!r}")
    if not has_labels:
        return token_column, None
    col = tag_column if tag_column >= 0 else n_fields + tag_column
    if not 0 <= col < n_fields or n_fields == 1:
        raise ConllError(f"line {lineno}: too few fields for tag column: {line!r}")
    if col == token_column % n_fields:
        raise ConllError(f"line {lineno}: token column {token_column} and tag column "
                         f"{tag_column} are the same field: {line!r}")
    return token_column, col


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
    index = {name: i for i, name in enumerate(voc.tags)}
    columns = {}  # field count -> (token position, tag position)
    sentences: list[Sentence] = []
    tokens: list[str] = []
    tags: list[int] = []
    pending_id: str | None = None

    def flush():
        nonlocal pending_id
        if tokens:
            sid = pending_id if pending_id is not None else str(len(sentences))
            sentences.append(
                Sentence(sid, tuple(tokens), tuple(tags) if has_labels else None)
            )
            tokens.clear()
            tags.clear()
        pending_id = None

    add_token, add_tag = tokens.append, tags.append
    for lineno, raw in enumerate(stream, start=1):
        fields = raw.split()
        if not fields:
            flush()
            continue
        if raw[0] == "#":
            sid = _id_line(raw)
            if sid == "":
                raise ConllError(f"line {lineno}: empty sentence id")
            if sid is not None:
                pending_id = sid
            continue
        positions = columns.get(len(fields))
        if positions is None:
            positions = columns[len(fields)] = _columns(
                len(fields), token_column, tag_column, has_labels, lineno,
                raw.rstrip("\n").rstrip("\r"))
        token_at, tag_at = positions
        if "#" in raw and fields[token_at][0] == "#":  # write_conll could not write it back
            raise ConllError(f"line {lineno}: token {fields[token_at]!r} starts with '#'")
        add_token(fields[token_at])
        if has_labels:
            try:
                add_tag(index[fields[tag_at]])
            except KeyError:
                raise ConllError(f"line {lineno}: unknown tag name {fields[tag_at]!r}") from None
    flush()
    return Corpus(tuple(sentences), voc)


def _check_id(sid: str, error) -> None:
    """Raise error unless the line "# id " + sid reads back as sid: one line
    (a file opened in text mode also ends a line at a carriage return),
    non-empty, without the whitespace at either end that _id_line strips,
    and encodable as UTF-8."""
    if (not sid or "\n" in sid or "\r" in sid or _id_line("# id " + sid) != sid
            or _SURROGATE.search(sid)):
        raise error(f"sentence id {sid!r} cannot be serialized")


def write_conll(corpus: Corpus, stream, tags=None) -> None:
    """Write a corpus in the grammar parse_conll accepts. The whole corpus is
    checked first: an id or token that parse_conll would not read back as
    written, or a missing tag sequence, raises ConllError (a tag index out of
    range TagSchemeError) before anything is written.

    tags: optional per-sentence tag index sequences overriding gold_tags.
    """
    sentences = corpus.sentences
    if tags is None:
        tags = [sent.gold_tags for sent in sentences]
    elif len(tags) != len(sentences):
        raise ConllError(f"{len(tags)} tag sequences for {len(sentences)} sentences")
    names = corpus.tag_vocabulary.tags
    for sent, seq in zip(sentences, tags):
        _check_id(sent.id, ConllError)
        if seq is None or len(seq) != len(sent):
            raise ConllError(f"sentence {sent.id!r} is missing a full tag sequence")
        for token in sent.tokens:  # one field, in UTF-8; a line that begins with "#" is a comment
            if token.split() != [token] or token[0] == "#" or _SURROGATE.search(token):
                raise ConllError(f"token {token!r} cannot be serialized")
        for tag in seq:
            if not 0 <= int(tag) < len(names):
                raise TagSchemeError(f"tag index out of range: {int(tag)}")
    for sent, seq in zip(sentences, tags):
        stream.write(f"# id {sent.id}\n")
        for token, tag in zip(sent.tokens, seq):
            stream.write(f"{token} _ _ {names[int(tag)]}\n")
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

    def indices(self, tokens) -> np.ndarray:
        """lookup of every token of a sequence, in one pass, as an index array."""
        return np.fromiter(map(self._index.get, tokens, repeat(UNK_INDEX)), np.intp, len(tokens))

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


def _reject_rows(rows, first_lineno, dim):
    """Raise the error of the first bad row in a block the bulk parse rejected,
    checking one row and one value at a time. float() is the parser
    np.array(..., dtype=np.float64) applies to strings, so some row fails."""
    for lineno, raw in enumerate(rows, start=first_lineno):
        line = raw.strip()
        try:
            values = [float(v) for v in line.split()]
        except ValueError:
            raise EmbeddingError(f"line {lineno}: non-numeric embedding value in {line!r}") from None
        if len(values) != dim:
            raise EmbeddingError(f"line {lineno}: {len(values)} values, header says dim {dim}")
        if not all(np.isfinite(values)):
            raise EmbeddingError(f"line {lineno}: non-finite embedding value")


def load_embeddings(stream, corpus: Corpus) -> EmbeddingSet:
    """Load per-token embedding matrices keyed by sentence id.

    The file may hold only sentences of corpus: a block whose id corpus does
    not have is an EmbeddingError, so a file for train plus dev, or for a
    predict input, holds those sentences and no others.

    The file is read line by line. A block's values are kept as strings and
    converted once the block ends, in one np.array call and one finiteness
    check; a rejected block is re-read row by row for the error."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lengths = {s.id: len(s) for s in corpus}
    dim = None
    matrices: dict[str, np.ndarray] = {}
    sid = None
    first = 0  # line number of the block's first row
    rows: list[str] = []  # the block's lines
    values: list[str] = []  # the block's fields, row after row

    def flush():
        nonlocal sid, rows, values
        if sid is None:
            return
        try:
            matrix = np.array(values, dtype=np.float64).reshape(len(rows), dim)
        except ValueError:
            matrix = None
        if matrix is None or not np.isfinite(matrix).all():
            _reject_rows(rows, first, dim)
        if len(rows) != lengths[sid]:
            raise EmbeddingError(
                f"sentence {sid!r}: {len(rows)} rows for {lengths[sid]} tokens"
            )
        matrices[sid] = matrix
        sid = None
        rows = []
        values = []

    for lineno, raw in enumerate(stream, start=1):
        fields = raw.split()
        if not fields:
            flush()
            continue
        if dim is None:
            if len(fields) != 2 or fields[0] != "dim":
                raise EmbeddingError(
                    f"line {lineno}: expected 'dim <d>' header, got {raw.strip()!r}")
            try:
                dim = int(fields[1])
            except ValueError:
                dim = 0
            if dim < 1:
                raise EmbeddingError(f"line {lineno}: bad dimension {fields[1]!r}")
            continue
        new_sid = _id_line(raw.strip()) if "#" in raw else None
        if new_sid is not None:
            flush()
            if not new_sid:
                raise EmbeddingError(f"line {lineno}: empty sentence id")
            if new_sid not in lengths:
                raise EmbeddingError(f"line {lineno}: unknown sentence id {new_sid!r}")
            if new_sid in matrices:
                raise EmbeddingError(f"line {lineno}: duplicate sentence id {new_sid!r}")
            sid, first = new_sid, lineno + 1
            continue
        if sid is None:
            raise EmbeddingError(f"line {lineno}: row outside a sentence block")
        rows.append(raw)
        if len(fields) != dim:
            _reject_rows(rows, first, dim)
        values += fields
    flush()
    if dim is None:
        raise EmbeddingError("empty embedding file")
    return EmbeddingSet(dim, matrices)


def write_embeddings(embeddings: EmbeddingSet, stream) -> None:
    """Write an EmbeddingSet losslessly (float64 repr round-trips). The whole set
    is checked first: an id, dimension or matrix that load_embeddings would not
    read back as written raises EmbeddingError before anything is written."""
    dim = embeddings.dim
    if dim < 1:
        raise EmbeddingError(f"bad dimension {dim}")
    for sid, matrix in embeddings.matrices.items():
        _check_id(sid, EmbeddingError)
        shape = np.shape(matrix)
        if len(shape) != 2 or shape[0] < 1 or shape[1] != dim:
            raise EmbeddingError(
                f"sentence {sid!r}: matrix of shape {shape}, expected (tokens, {dim})")
        if not np.isfinite(matrix).all():
            raise EmbeddingError(f"sentence {sid!r}: non-finite embedding value")
    stream.write(f"dim {dim}\n")
    for sid, matrix in embeddings.matrices.items():
        stream.write(f"# id {sid}\n")
        for row in matrix:
            stream.write(" ".join(repr(float(v)) for v in row) + "\n")
        stream.write("\n")

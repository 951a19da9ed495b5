"""BIO tag scheme: label space, transition validity, span extraction and repair.

Tag indices are laid out as [O, B-T1, I-T1, B-T2, I-T2, ...] in entity-type
order, followed by two virtual states START and STOP used only by the chain
model. All functions here are pure. Entity spans are plain (start, end,
entity_type) tuples; spans_to_tags, the one function that takes spans built
by a caller, checks their bounds.

BIO repair and span extraction have one implementation, bio_pass: a corpus's
tags end to end in one flat array, with each sentence's start, go through a
few whole-array numpy steps. extract_spans, repair_bio and
count_invalid_transitions run it on one sequence; repair_bio with starts,
and score through it, run it once per corpus.
"""

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

DEFAULT_ENTITY_TYPES = ("PER", "LOC", "GRP", "CORP", "PROD", "CW")

REPAIR_MODES = ("strict", "convert", "ignore")


class TagSchemeError(ValueError):
    pass


class SchemeViolation(TagSchemeError):
    """Raised by strict repair when a tag sequence breaks the BIO scheme."""


@dataclass(frozen=True)
class EntityTypeSet:
    types: tuple[str, ...] = DEFAULT_ENTITY_TYPES

    def __post_init__(self):
        if not self.types:
            raise TagSchemeError("entity type set must not be empty")
        seen = set()
        for name in self.types:
            if not name or any(c.isspace() for c in name):
                raise TagSchemeError(f"bad entity type name: {name!r}")
            if name in seen:
                raise TagSchemeError(f"duplicate entity type: {name!r}")
            seen.add(name)

    def __iter__(self):
        return iter(self.types)

    def __len__(self):
        return len(self.types)


class EntitySpan(NamedTuple):
    """Half-open token span [start, end) carrying one entity type.

    A tuple: it equals and hashes like (start, end, entity_type), in C.
    Construction does not check the bounds; spans_to_tags does.
    """

    start: int
    end: int
    entity_type: str

    def overlaps(self, other: "EntitySpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class TagVocabulary:
    """Real tags plus the two virtual chain states.

    k real tags (index 0 is O, then B-X/I-X pairs); START = k, STOP = k + 1.
    """

    entity_types: EntityTypeSet
    tags: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        tags = ["O"]
        for name in self.entity_types:
            tags.append(f"B-{name}")
            tags.append(f"I-{name}")
        object.__setattr__(self, "tags", tuple(tags))

    @property
    def k(self) -> int:
        return len(self.tags)

    @property
    def start_index(self) -> int:
        return self.k

    @property
    def stop_index(self) -> int:
        return self.k + 1

    def index(self, name: str) -> int:
        try:
            return self.tags.index(name)
        except ValueError:
            raise TagSchemeError(f"unknown tag name: {name!r}") from None

    def name(self, index: int) -> str:
        if index == self.start_index:
            return "<START>"
        if index == self.stop_index:
            return "<STOP>"
        if not 0 <= index < self.k:
            raise TagSchemeError(f"tag index out of range: {index}")
        return self.tags[index]

    def type_of(self, index: int) -> str | None:
        """Entity type of a real tag index, None for O."""
        if not 0 <= index < self.k:
            raise TagSchemeError(f"tag index out of range: {index}")
        return None if index == 0 else self.entity_types.types[(index - 1) // 2]

    def is_begin(self, index: int) -> bool:
        return 0 < index < self.k and (index - 1) % 2 == 0

    def is_inside(self, index: int) -> bool:
        return 0 < index < self.k and (index - 1) % 2 == 1

    def begin_of(self, entity_type: str) -> int:
        return self.index(f"B-{entity_type}")

    def inside_of(self, entity_type: str) -> int:
        return self.index(f"I-{entity_type}")


def expand_bio(types: EntityTypeSet) -> TagVocabulary:
    """Expand an entity type set to the BIO tag vocabulary (k = 1 + 2 * |types|)."""
    return TagVocabulary(types)


def is_valid_transition(voc: TagVocabulary, from_tag: int, to_tag: int) -> bool:
    """BIO validity of the tag bigram (from_tag, to_tag).

    The only forbidden pairs are those entering I-X from anything other than
    B-X or I-X of the same X (this includes START -> I-X). Virtual indices are
    accepted on either side.
    """
    hi = voc.stop_index
    if not (0 <= from_tag <= hi and 0 <= to_tag <= hi):
        raise TagSchemeError(f"transition index out of range: ({from_tag}, {to_tag})")
    if voc.is_inside(to_tag):
        if from_tag >= voc.k:  # START (or STOP) cannot open an entity
            return False
        return voc.type_of(from_tag) == voc.type_of(to_tag) and from_tag != 0
    return True


def transition_mask(voc: TagVocabulary) -> np.ndarray:
    """(k+2)x(k+2) boolean mask, True where a transition is BIO-valid.

    Cells into START and out of STOP are structurally impossible and masked
    False; decoders never consult them. Built once per vocabulary with its
    other tables and shared, so the array is read-only.
    """
    return _tables(voc).mask


class _Tables(NamedTuple):
    begin: np.ndarray  # per real tag: is it a B tag
    inside: np.ndarray  # per real tag: is it an I tag
    type_index: np.ndarray  # per real tag: its entity type's index, -1 for O
    mask: np.ndarray  # per tag pair, virtual states included: transition_mask


@functools.lru_cache(maxsize=16)
def _tables(voc: TagVocabulary) -> _Tables:
    """Per-tag lookups for the kernel and the decoders, built once per (frozen,
    hashable) vocabulary from the predicates and shared, so they are read-only."""
    names = voc.entity_types.types
    n = voc.k + 2
    mask = np.array([[is_valid_transition(voc, i, j) for j in range(n)] for i in range(n)])
    mask[:, voc.start_index] = mask[voc.stop_index, :] = False
    tables = _Tables(np.array([voc.is_begin(t) for t in range(voc.k)]),
                     np.array([voc.is_inside(t) for t in range(voc.k)]),
                     np.array([-1] + [names.index(voc.type_of(t)) for t in range(1, voc.k)]),
                     mask)
    for table in tables:
        table.flags.writeable = False
    return tables


class BioPass(NamedTuple):
    """What bio_pass finds in a flat tag array: the raw invalid-transition
    count, the repaired tags, and the entity spans of the repaired tags as
    flat-array positions [starts, ends) and entity type indices, in order."""

    invalid: int
    tags: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    types: np.ndarray


def _transitions(voc: TagVocabulary, codes: np.ndarray, starts):
    """The tag before each position (START at every sentence start) and
    whether that transition is valid in transition_mask."""
    starts = np.asarray(starts, dtype=np.intp)
    prev = np.empty_like(codes)
    prev[1:] = codes[:-1]
    prev[starts[starts < len(codes)]] = voc.start_index
    return prev, transition_mask(voc)[prev, codes]


def _runs(voc: TagVocabulary, codes: np.ndarray, valid: np.ndarray):
    """Where each run of tags starts and ends: a tag continues the run of the
    tag before it when it is an I tag validly after that tag (an I tag of its
    type), and every other tag, a sentence's first included, opens a run."""
    heads = np.flatnonzero(~(valid & _tables(voc).inside[codes]))
    return heads, np.append(heads[1:], len(codes))


def bio_pass(voc: TagVocabulary, tags: np.ndarray, starts, mode: str | None = None) -> BioPass:
    """BIO repair and span extraction of many sentences in one array pass.

    tags holds the sentences' tag indices end to end (integers, or Python ints
    in an object array), and starts the offset at which each sentence begins.
    mode is a repair mode, or None to take the tags as they are. A tag outside
    the real tags, or in strict mode an invalid transition, raises as
    repair_bio does, at the first failing position and counted from the start
    of its sentence.

    Every step works on the whole array. An invalid transition can only enter
    an orphan I-X. Convert turns each into B-X: that keeps the tag's type, so
    validity against the repaired prefix equals validity against the raw one.
    Ignore turns the whole run an orphan opens into O. The spans are then the
    runs of the repaired tags that a B tag opens.
    """
    if mode is not None and mode not in REPAIR_MODES:
        raise TagSchemeError(f"unknown repair mode: {mode!r}")
    bad = (tags < 0) | (tags >= voc.k)
    codes = np.where(bad, 0, tags).astype(np.intp)
    prev, valid = _transitions(voc, codes, starts)
    failed = bad | ~valid if mode == "strict" else bad
    if failed.any():
        pos = int(np.argmax(failed))
        starts = np.asarray(starts)
        at = pos - int(starts[np.searchsorted(starts, pos, "right") - 1])
        if bad[pos]:
            raise TagSchemeError(f"tag index out of range at position {at}: {tags[pos]}")
        raise SchemeViolation(f"invalid transition {voc.name(int(prev[pos]))} -> "
                              f"{voc.name(int(codes[pos]))} at position {at}")
    invalid = len(codes) - int(np.count_nonzero(valid))
    if invalid and mode in ("convert", "ignore"):
        if mode == "convert":
            codes -= ~valid  # I-X sits right after B-X
        else:
            heads, ends = _runs(voc, codes, valid)
            codes *= np.repeat(valid[heads], ends - heads)
        valid = _transitions(voc, codes, starts)[1]
    heads, ends = _runs(voc, codes, valid)
    tables = _tables(voc)
    spans = tables.begin[codes[heads]]
    return BioPass(invalid, codes, heads[spans], ends[spans],
                   tables.type_index[codes[heads[spans]]])


def flat_tags(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Tag sequences end to end as one int64 array, and each one's start
    offset. Each value is what int() makes of the tag; a tag int() rejects,
    or that int64 cannot hold, raises."""
    lengths = np.fromiter(map(len, sequences), np.intp, len(sequences))
    starts = np.zeros(len(lengths), np.intp)
    np.cumsum(lengths[:-1], out=starts[1:])
    total = int(lengths.sum())
    return np.fromiter(itertools.chain.from_iterable(sequences), np.int64, total), starts


def _tag_array(tags):
    """The tags as int() reads them, as an array (of Python ints where int64
    cannot hold one), and what int() raised on the first tag it rejects, or
    None: the array then holds the tags before that one, which the caller
    checks before raising it, as a loop over the tags would."""
    values, error = [], None
    try:
        values.extend(map(int, tags))  # keeps the tags converted before a failure
    except (TypeError, ValueError, OverflowError) as exc:  # as int() or iterating raises
        error = exc
    try:
        return np.array(values, dtype=np.int64), error
    except OverflowError:
        return np.array(values, dtype=object), error


def extract_spans(voc: TagVocabulary, tags) -> list[EntitySpan]:
    """Entity spans of a real-tag sequence.

    A span opens at B-X and extends through consecutive I-X of the same X.
    Orphan I tags (no matching open span) do not open or extend anything.
    """
    values, error = _tag_array(tags)
    found = bio_pass(voc, values, [0])
    if error is not None:
        raise error
    names = voc.entity_types.types
    return [EntitySpan(start, end, names[t]) for start, end, t in
            zip(found.starts.tolist(), found.ends.tolist(), found.types.tolist())]


def spans_to_tags(voc: TagVocabulary, spans, length: int) -> list[int]:
    """Render non-overlapping spans back to a BIO tag index sequence."""
    tags = [0] * length
    ordered = sorted(spans, key=lambda s: s.start)
    prev_end = 0
    for span in ordered:
        if not 0 <= span.start < span.end:
            raise TagSchemeError(f"bad span bounds ({span.start}, {span.end})")
        if span.start < prev_end or span.end > length:
            raise TagSchemeError(f"overlapping or out-of-range span {span}")
        prev_end = span.end
        tags[span.start] = voc.begin_of(span.entity_type)
        for pos in range(span.start + 1, span.end):
            tags[pos] = voc.inside_of(span.entity_type)
    return tags


def repair_bio(voc: TagVocabulary, tags, mode: str = "convert", *,
               starts=None) -> list[int] | BioPass:
    """Repair orphan I tags so every pair is valid in transition_mask.

    strict  -> raise SchemeViolation at the first offending position;
    convert -> promote the orphan I-X to B-X;
    ignore  -> demote the orphan I-X to O.
    Repairs are applied left to right against the already-repaired prefix.

    With starts, tags holds many sentences end to end (flat_tags), each
    repaired on its own, and the result is their bio_pass: the whole corpus
    in one array pass, traced as repair_bio like a single sequence.
    """
    if mode not in REPAIR_MODES:
        raise TagSchemeError(f"unknown repair mode: {mode!r}")
    if starts is not None:
        return bio_pass(voc, tags, starts, mode)
    values, error = _tag_array(tags)
    repaired = bio_pass(voc, values, [0], mode).tags
    if error is not None:
        raise error
    return repaired.tolist()


def count_invalid_transitions(voc: TagVocabulary, tags) -> int:
    """Number of invalid bigrams in a tag sequence, counting START -> first.

    A virtual state inside the sequence counts as the mask has it: nothing
    enters START and nothing leaves STOP.
    """
    values, error = _tag_array(tags)
    bad = (values < 0) | (values > voc.stop_index)
    if bad.any():
        pos = int(np.argmax(bad))
        prev = values[pos - 1] if pos else voc.start_index
        raise TagSchemeError(f"transition index out of range: ({prev}, {values[pos]})")
    if error is not None:
        raise error
    return int(np.count_nonzero(~_transitions(voc, values.astype(np.intp), [0])[1]))

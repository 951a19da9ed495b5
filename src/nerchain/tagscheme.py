"""BIO tag scheme: label space, transition validity, span extraction and repair.

Tag indices are laid out as [O, B-T1, I-T1, B-T2, I-T2, ...] in entity-type
order, followed by two virtual states START and STOP used only by the chain
model. All functions here are pure and all containers immutable. Entity spans
are plain (start, end, entity_type) tuples; spans_to_tags, the one function
that takes spans built by a caller, checks their bounds.
"""

import functools
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
        # hashed once: the per-vocabulary caches below look the vocabulary up on
        # every call, and the generated hash would rehash both dataclasses each time
        object.__setattr__(self, "_hash", hash((self.entity_types, self.tags)))

    def __hash__(self):
        return self._hash

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


@functools.lru_cache(maxsize=16)
def transition_mask(voc: TagVocabulary) -> np.ndarray:
    """(k+2)x(k+2) boolean mask, True where a transition is BIO-valid.

    Cells into START and out of STOP are structurally impossible and masked
    False; decoders never consult them. Built once per vocabulary (which is
    frozen and hashable) and shared, so the array is read-only.
    """
    n = voc.k + 2
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            mask[i, j] = is_valid_transition(voc, i, j)
    mask[:, voc.start_index] = False
    mask[voc.stop_index, :] = False
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=16)
def _tables(voc: TagVocabulary):
    """Lookup tables for the per-token loops, built once per vocabulary: the
    entity type of each real tag (None for O), whether it is a B tag, and
    transition_mask as nested tuples."""
    types = (None,) + tuple(name for name in voc.entity_types for _ in "BI")
    begins = (False,) + (True, False) * len(voc.entity_types)
    return types, begins, tuple(map(tuple, transition_mask(voc).tolist()))


def extract_spans(voc: TagVocabulary, tags) -> list[EntitySpan]:
    """Entity spans of a real-tag sequence.

    A span opens at B-X and extends through consecutive I-X of the same X.
    Orphan I tags (no matching open span) do not open or extend anything.
    """
    types, begins, _ = _tables(voc)
    k = voc.k
    spans = []
    open_start = -1
    open_type = None
    for pos, tag in enumerate(tags):
        tag = int(tag)
        if not 0 <= tag < k:
            raise TagSchemeError(f"tag index out of range at position {pos}: {tag}")
        if begins[tag]:
            if open_type is not None:
                spans.append(EntitySpan(open_start, pos, open_type))
            open_start, open_type = pos, types[tag]
        elif types[tag] != open_type:  # O, or an I tag that does not continue the open span
            if open_type is not None:
                spans.append(EntitySpan(open_start, pos, open_type))
            open_start, open_type = -1, None
    if open_type is not None:
        spans.append(EntitySpan(open_start, len(tags), open_type))
    return spans


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


def repair_bio(voc: TagVocabulary, tags, mode: str = "convert") -> list[int]:
    """Repair orphan I tags so every pair is valid in transition_mask.

    strict  -> raise SchemeViolation at the first offending position;
    convert -> promote the orphan I-X to B-X;
    ignore  -> demote the orphan I-X to O.
    Repairs are applied left to right against the already-repaired prefix.
    """
    if mode not in REPAIR_MODES:
        raise TagSchemeError(f"unknown repair mode: {mode!r}")
    valid = _tables(voc)[2]
    k = voc.k
    out: list[int] = []
    prev = voc.start_index
    for pos, tag in enumerate(tags):
        tag = int(tag)
        if not 0 <= tag < k:
            raise TagSchemeError(f"tag index out of range at position {pos}: {tag}")
        if not valid[prev][tag]:
            if mode == "strict":
                raise SchemeViolation(
                    f"invalid transition {voc.name(prev)} -> {voc.name(tag)} at position {pos}"
                )
            tag = tag - 1 if mode == "convert" else 0  # I-X sits right after B-X
        out.append(tag)
        prev = tag
    return out


def count_invalid_transitions(voc: TagVocabulary, tags) -> int:
    """Number of invalid bigrams in a tag sequence, counting START -> first.

    A virtual state inside the sequence counts as the mask has it: nothing
    enters START and nothing leaves STOP.
    """
    valid = _tables(voc)[2]
    hi = voc.stop_index
    bad = 0
    prev = voc.start_index
    for tag in tags:
        tag = int(tag)
        if not 0 <= tag <= hi:
            raise TagSchemeError(f"transition index out of range: ({prev}, {tag})")
        if not valid[prev][tag]:
            bad += 1
        prev = tag
    return bad

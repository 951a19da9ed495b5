"""Entity-level precision/recall/F1 and error analysis.

Scoring is exact-span matching: a predicted span counts as a true positive
only when a gold span with the same (start, end, type) exists in the same
sentence. Per-class scores aggregate over the corpus; the macro row is the
unweighted mean of the per-class values.

A corpus is scored in one array pass: its gold tags and its predictions go
end to end into one flat array each (the gold one once per Corpus, which
keeps it), tagscheme.bio_pass repairs each array and extracts its spans at
once, and the spans are matched and counted per type as arrays. Only the
error listings build Python objects, one per span that does not match. Any
failure is replayed one sentence at a time, so the error raised is that of
the first failing sentence, and names it.
"""

from dataclasses import dataclass, field

import numpy as np

from .conll_io import Corpus
from .tagscheme import (
    BioPass,
    EntitySpan,
    bio_pass,
    count_invalid_transitions,
    flat_tags,
    repair_bio,
)


class ScoringError(ValueError):
    pass


def f1(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if not (0.0 <= p <= 1.0 and 0.0 <= r <= 1.0):
        raise ScoringError(f"precision/recall must lie in [0, 1], got ({p}, {r})")
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


@dataclass(frozen=True)
class ClassScore:
    entity_type: str
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        return f1(self.precision, self.recall)


@dataclass
class MetricsReport:
    per_class: list[ClassScore]
    invalid_transition_count: int

    @property
    def macro_precision(self) -> float:
        return sum(c.precision for c in self.per_class) / len(self.per_class)

    @property
    def macro_recall(self) -> float:
        return sum(c.recall for c in self.per_class) / len(self.per_class)

    @property
    def macro_f1(self) -> float:
        return sum(c.f1 for c in self.per_class) / len(self.per_class)


@dataclass
class ErrorBreakdown:
    """Span-level error listings. Confusions pair overlapping gold/predicted
    spans of different types; boundary errors overlap with the right type but
    the wrong extent; misses/spurious have no overlapping counterpart."""

    confusion: dict[tuple[str, str], int] = field(default_factory=dict)
    boundary: list[tuple[str, EntitySpan, EntitySpan]] = field(default_factory=list)
    misses: list[tuple[str, EntitySpan]] = field(default_factory=list)
    spurious: list[tuple[str, EntitySpan]] = field(default_factory=list)


def _check_aligned(sent, tags):
    if sent.gold_tags is None:
        raise ScoringError(f"sentence {sent.id!r} has no gold tags")
    if len(tags) != len(sent):
        raise ScoringError(
            f"sentence {sent.id!r}: {len(tags)} predicted tags for {len(sent)} tokens"
        )


def _found_in(a: BioPass, b: BioPass) -> np.ndarray:
    """For each span of b, whether a has the same span. The spans of one pass
    have distinct starts, so the only candidate is a's span starting there."""
    if not len(a.starts):
        return np.zeros(len(b.starts), dtype=bool)
    at = np.searchsorted(a.starts, b.starts).clip(max=len(a.starts) - 1)
    return (a.starts[at] == b.starts) & (a.ends[at] == b.ends) & (a.types[at] == b.types)


def _match(gold: Corpus, predicted, repair: str):
    """The exact-span matching pass behind score and error_breakdown.

    Validates alignment, counts raw invalid transitions, repairs predictions,
    and matches the spans. Returns the bio_pass of the gold tags as they are,
    the bio_pass of the repaired predictions, the sentence starts, and for
    each gold and each predicted span whether the other side has it too. A
    failing corpus is checked again one sentence at a time, so that it raises
    what its first failing sentence raises, prefixed with that sentence's id
    (the alignment errors name it already).
    """
    if len(predicted) != len(gold.sentences):
        raise ScoringError(
            f"{len(predicted)} predictions for {len(gold.sentences)} sentences"
        )
    voc = gold.tag_vocabulary
    try:
        gold_tags, starts = gold.flat_gold
        pred_tags, pred_starts = flat_tags(predicted)
        if len(pred_tags) != len(gold_tags) or not np.array_equal(pred_starts, starts):
            raise ScoringError("predicted and gold tag counts differ")
        truth = bio_pass(voc, gold_tags, starts)
        found = repair_bio(voc, pred_tags, repair, starts=starts)
    except (TypeError, ValueError, OverflowError):  # raised as the per-sentence checks raise it
        for sent, tags in zip(gold.sentences, predicted):
            try:
                _check_aligned(sent, tags)
                count_invalid_transitions(voc, tags)
                repair_bio(voc, tags, repair)
            except (TypeError, ValueError, OverflowError) as exc:
                if not isinstance(exc, ScoringError):  # which names the sentence already
                    exc.args = (f"sentence {sent.id!r}: {exc}",)
                raise
        raise
    return truth, found, starts, _found_in(found, truth), _found_in(truth, found)


def score(gold: Corpus, predicted, repair: str = "convert") -> MetricsReport:
    """Entity-level scores of predicted tag sequences against a gold corpus.

    predicted: one tag index sequence per sentence, in corpus order. Invalid
    BIO is repaired per `repair` before span extraction; raw violations are
    counted in the report.
    """
    truth, found, _, gold_hit, pred_hit = _match(gold, predicted, repair)
    names = gold.tag_vocabulary.entity_types.types
    tp, fp, fn = (np.bincount(types, minlength=len(names)).tolist() for types in
                  (found.types[pred_hit], found.types[~pred_hit], truth.types[~gold_hit]))
    return MetricsReport([ClassScore(*c) for c in zip(names, tp, fp, fn)], found.invalid)


def _by_sentence(gold: Corpus, starts, spans: BioPass, picked) -> dict:
    """The picked spans as EntitySpans counted from their sentence's start,
    in lists keyed by sentence index."""
    names = gold.tag_vocabulary.entity_types.types
    start, end = spans.starts[picked], spans.ends[picked]
    rows = np.searchsorted(starts, start, "right") - 1
    offset = starts[rows]
    out = {}
    for row, s, e, t in zip(rows.tolist(), (start - offset).tolist(), (end - offset).tolist(),
                            spans.types[picked].tolist()):
        out.setdefault(row, []).append(EntitySpan(s, e, names[t]))
    return out


def error_breakdown(gold: Corpus, predicted, repair: str = "convert") -> ErrorBreakdown:
    """Classify every non-matching span: confusion, boundary error, miss, spurious."""
    truth, found, starts, gold_hit, pred_hit = _match(gold, predicted, repair)
    missed = _by_sentence(gold, starts, truth, ~gold_hit)
    extra = _by_sentence(gold, starts, found, ~pred_hit)
    out = ErrorBreakdown()
    for row in sorted(missed.keys() | extra.keys()):
        sid = gold.sentences[row].id
        fn, fp = missed.get(row, []), extra.get(row, [])
        touched_gold = set()
        touched_pred = set()
        for g in fn:
            for p in fp:
                if not g.overlaps(p):
                    continue
                touched_gold.add(g)
                touched_pred.add(p)
                if g.entity_type == p.entity_type:
                    out.boundary.append((sid, g, p))
                else:
                    key = (g.entity_type, p.entity_type)
                    out.confusion[key] = out.confusion.get(key, 0) + 1
        out.misses.extend((sid, g) for g in fn if g not in touched_gold)
        out.spurious.extend((sid, p) for p in fp if p not in touched_pred)
    return out


# ---------------------------------------------------------------------------
# report rendering


def render_text(report: MetricsReport) -> str:
    """Aligned per-class table with an Average row."""
    lines = [f"{'Class':<8s} {'Prec':>8s} {'Rec':>8s} {'F1':>8s} {'TP':>6s} {'FP':>6s} {'FN':>6s}"]
    for c in report.per_class:
        lines.append(
            f"{c.entity_type:<8s} {c.precision:8.4f} {c.recall:8.4f} {c.f1:8.4f}"
            f" {c.tp:6d} {c.fp:6d} {c.fn:6d}"
        )
    lines.append(
        f"{'Average':<8s} {report.macro_precision:8.4f} {report.macro_recall:8.4f}"
        f" {report.macro_f1:8.4f}"
    )
    lines.append(f"invalid transitions: {report.invalid_transition_count}")
    return "\n".join(lines)


def render_kv(report: MetricsReport) -> str:
    """Machine-readable key=value form."""
    lines = []
    for c in report.per_class:
        t = c.entity_type
        lines.append(f"{t}.precision={c.precision:.6f}")
        lines.append(f"{t}.recall={c.recall:.6f}")
        lines.append(f"{t}.f1={c.f1:.6f}")
        lines.append(f"{t}.tp={c.tp}")
        lines.append(f"{t}.fp={c.fp}")
        lines.append(f"{t}.fn={c.fn}")
    lines.append(f"macro.precision={report.macro_precision:.6f}")
    lines.append(f"macro.recall={report.macro_recall:.6f}")
    lines.append(f"macro.f1={report.macro_f1:.6f}")
    lines.append(f"invalid_transitions={report.invalid_transition_count}")
    return "\n".join(lines)


def render_breakdown(breakdown: ErrorBreakdown, entity_types) -> str:
    """Confusion matrix and error listings, worst classes first."""
    per_class_errors = {t: 0 for t in entity_types}
    for (g, p), n in breakdown.confusion.items():
        per_class_errors[g] += n
    for _, g, _ in breakdown.boundary:
        per_class_errors[g.entity_type] += 1
    for _, g in breakdown.misses:
        per_class_errors[g.entity_type] += 1
    for _, p in breakdown.spurious:
        per_class_errors[p.entity_type] += 1

    order = sorted(entity_types, key=lambda t: -per_class_errors[t])
    lines = ["errors by class (worst first):"]
    for t in order:
        lines.append(f"  {t:<8s} {per_class_errors[t]}")
    lines.append("confusions (gold -> predicted):")
    for (g, p), n in sorted(breakdown.confusion.items()):
        lines.append(f"  {g} -> {p}: {n}")
    lines.append(f"boundary errors: {len(breakdown.boundary)}")
    for sid, g, p in breakdown.boundary:
        lines.append(f"  {sid}: {g.entity_type} gold ({g.start},{g.end}) pred ({p.start},{p.end})")
    lines.append(f"missed spans: {len(breakdown.misses)}")
    lines.append(f"spurious spans: {len(breakdown.spurious)}")
    return "\n".join(lines)

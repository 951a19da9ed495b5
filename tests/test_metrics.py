import numpy as np
import pytest

from nerchain.conll_io import Corpus, Sentence
from nerchain.metrics import (
    ClassScore,
    MetricsReport,
    ScoringError,
    error_breakdown,
    f1,
    render_kv,
    render_text,
    score,
)
from nerchain.tagscheme import EntityTypeSet, expand_bio, extract_spans, spans_to_tags

from oracles import random_corpus, random_valid_tags, reference_prf, reference_spans

VOC = expand_bio(EntityTypeSet())

# Validation-set results, Spanish and Chinese, CRF-headed model:
# per-class (precision, recall, f1) plus the macro row.
# The published Chinese PER precision cell (0.8497) contradicts both its own
# F1 cell and the macro precision; 0.8947 (transposed digits) is consistent
# with both and is used here.
SPANISH_ROWS = {
    "LOC": (0.8368, 0.8796, 0.8577),
    "PER": (0.9065, 0.9028, 0.9047),
    "PROD": (0.6970, 0.7468, 0.7210),
    "GRP": (0.7952, 0.7857, 0.7904),
    "CW": (0.7965, 0.7135, 0.7527),
    "CORP": (0.8657, 0.8227, 0.8436),
}
SPANISH_MACRO = (0.8163, 0.8085, 0.8117)
CHINESE_ROWS = {
    "LOC": (0.9465, 0.9365, 0.9415),
    "PER": (0.8947, 0.9225, 0.9084),
    "PROD": (0.8867, 0.8285, 0.8566),
    "GRP": (0.7500, 0.6923, 0.7200),
    "CW": (0.8265, 0.8617, 0.8437),
    "CORP": (0.8615, 0.8750, 0.8682),
}
CHINESE_MACRO = (0.8610, 0.8527, 0.8564)


def make_corpus(tagged):
    """tagged: list of (tokens, tag names)."""
    sentences = []
    for i, (tokens, names) in enumerate(tagged):
        tags = tuple(VOC.index(n) for n in names)
        sentences.append(Sentence(f"s{i}", tuple(tokens), tags))
    return Corpus(tuple(sentences), VOC)


class TestF1:
    def test_loc_row(self):
        assert f1(0.8368, 0.8796) == pytest.approx(0.8577, abs=1e-4)

    def test_perfect(self):
        assert f1(1.0, 1.0) == 1.0

    def test_zero_precision(self):
        for r in (0.0, 0.3, 1.0):
            assert f1(0.0, r) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ScoringError):
            f1(1.2, 0.5)
        with pytest.raises(ScoringError):
            f1(0.5, -0.1)

    @pytest.mark.parametrize("rows,macro", [(SPANISH_ROWS, SPANISH_MACRO),
                                            (CHINESE_ROWS, CHINESE_MACRO)])
    def test_table_cells_consistent(self, rows, macro):
        for etype, (p, r, printed) in rows.items():
            assert f1(p, r) == pytest.approx(printed, abs=1e-4), etype
        assert np.mean([v[0] for v in rows.values()]) == pytest.approx(macro[0], abs=5e-4)
        assert np.mean([v[1] for v in rows.values()]) == pytest.approx(macro[1], abs=5e-4)
        assert np.mean([v[2] for v in rows.values()]) == pytest.approx(macro[2], abs=5e-4)


class TestClassScore:
    def test_zero_denominators(self):
        empty = ClassScore("PER", 0, 0, 0)
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0

    def test_counts(self):
        c = ClassScore("PER", 3, 1, 2)
        assert c.precision == pytest.approx(0.75)
        assert c.recall == pytest.approx(0.6)
        assert c.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)


class TestScore:
    def test_identity_predictions(self):
        corpus = make_corpus([
            (("New", "York", "is"), ("B-LOC", "I-LOC", "O")),
            (("Bob",), ("B-PER",)),
        ])
        report = score(corpus, [s.gold_tags for s in corpus])
        for c in report.per_class:
            if c.entity_type in ("LOC", "PER"):
                assert (c.precision, c.recall, c.f1) == (1.0, 1.0, 1.0)
        assert report.macro_f1 == pytest.approx(2 / 6)
        assert report.invalid_transition_count == 0

    def test_all_o_predictions(self):
        corpus = make_corpus([(("a", "b"), ("B-PER", "I-PER"))])
        report = score(corpus, [[0, 0]])
        per = {c.entity_type: c for c in report.per_class}
        assert per["PER"].precision == 0.0
        assert per["PER"].recall == 0.0
        assert per["PER"].f1 == 0.0

    def test_length_mismatch(self):
        corpus = make_corpus([(("a", "b"), ("O", "O"))])
        with pytest.raises(ScoringError):
            score(corpus, [[0]])
        with pytest.raises(ScoringError):
            score(corpus, [[0, 0], [0]])

    def test_strict_mode_raises_on_invalid(self):
        corpus = make_corpus([(("a", "b"), ("O", "O"))])
        with pytest.raises(Exception):
            score(corpus, [[0, VOC.index("I-PER")]], repair="strict")

    def test_invalid_transitions_counted_and_repaired(self):
        corpus = make_corpus([(("a", "b"), ("B-LOC", "I-LOC"))])
        # orphan I-LOC at position 0 becomes B-LOC under convert
        report = score(corpus, [[VOC.index("I-LOC"), VOC.index("I-LOC")]])
        assert report.invalid_transition_count == 1
        per = {c.entity_type: c for c in report.per_class}
        assert per["LOC"].tp == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        corpus = random_corpus(rng, VOC, 30)
        preds = [random_valid_tags(rng, VOC, len(s)) for s in corpus]
        base = score(corpus, preds)
        order = rng.permutation(len(preds))
        shuffled = Corpus(tuple(corpus.sentences[i] for i in order), VOC)
        shuffled_preds = [preds[i] for i in order]
        permuted = score(shuffled, shuffled_preds)
        for a, b in zip(base.per_class, permuted.per_class):
            assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)

    def test_swap_gold_and_pred_swaps_p_and_r(self):
        rng = np.random.default_rng(5)
        corpus = random_corpus(rng, VOC, 40)
        preds = [random_valid_tags(rng, VOC, len(s)) for s in corpus]
        forward = score(corpus, preds)
        swapped_corpus = Corpus(
            tuple(Sentence(s.id, s.tokens, tuple(p)) for s, p in zip(corpus, preds)), VOC)
        backward = score(swapped_corpus, [s.gold_tags for s in corpus])
        for a, b in zip(forward.per_class, backward.per_class):
            assert a.precision == pytest.approx(b.recall, abs=0)
            assert a.recall == pytest.approx(b.precision, abs=0)

    def test_agrees_with_set_intersection_scorer(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            corpus = random_corpus(rng, VOC, 25)
            preds = [random_valid_tags(rng, VOC, len(s)) for s in corpus]
            report = score(corpus, preds)
            gold_spans = [reference_spans(VOC, list(s.gold_tags)) for s in corpus]
            pred_spans = [reference_spans(VOC, p) for p in preds]
            tp, fp, fn = reference_prf(gold_spans, pred_spans, VOC.entity_types.types)
            for c in report.per_class:
                assert (c.tp, c.fp, c.fn) == (tp[c.entity_type], fp[c.entity_type],
                                              fn[c.entity_type])

    def test_macro_is_unweighted_mean(self):
        per = [ClassScore(t, *np.random.default_rng(i).integers(0, 9, 3))
               for i, t in enumerate(VOC.entity_types)]
        report = MetricsReport(per, 0)
        assert report.macro_precision == pytest.approx(
            np.mean([c.precision for c in per]), abs=1e-12)
        assert report.macro_f1 == pytest.approx(np.mean([c.f1 for c in per]), abs=1e-12)


class TestErrorBreakdown:
    def test_type_confusion(self):
        corpus = make_corpus([(("a", "b"), ("B-PER", "I-PER"))])
        pred = [[VOC.index("B-LOC"), VOC.index("I-LOC")]]
        breakdown = error_breakdown(corpus, pred)
        assert breakdown.confusion == {("PER", "LOC"): 1}
        assert breakdown.boundary == []

    def test_boundary_only_error(self):
        corpus = make_corpus([(("a", "b", "c"), ("B-LOC", "I-LOC", "I-LOC"))])
        pred = [spans_to_tags(VOC, extract_spans(VOC, [VOC.index("B-LOC"),
                                                       VOC.index("I-LOC"), 0]), 3)]
        breakdown = error_breakdown(corpus, pred)
        assert breakdown.confusion == {}
        assert len(breakdown.boundary) == 1
        sid, gold_span, pred_span = breakdown.boundary[0]
        assert (gold_span.start, gold_span.end) == (0, 3)
        assert (pred_span.start, pred_span.end) == (0, 2)

    def test_identity_is_empty(self):
        corpus = make_corpus([(("a", "b"), ("B-PER", "O"))])
        breakdown = error_breakdown(corpus, [s.gold_tags for s in corpus])
        assert breakdown.confusion == {}
        assert breakdown.boundary == []
        assert breakdown.misses == []
        assert breakdown.spurious == []

    def test_counts_reconcile_with_score(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            corpus = random_corpus(rng, VOC, 30)
            preds = [random_valid_tags(rng, VOC, len(s)) for s in corpus]
            report = score(corpus, preds)
            breakdown = error_breakdown(corpus, preds)
            total_fn = sum(c.fn for c in report.per_class)
            total_fp = sum(c.fp for c in report.per_class)
            confused = sum(breakdown.confusion.values())
            # every FN is a miss, a boundary error, or confused with >= 1 FP
            assert len(breakdown.misses) <= total_fn
            assert len(breakdown.spurious) <= total_fp
            assert confused + len(breakdown.boundary) + len(breakdown.misses) >= total_fn


class TestRendering:
    def test_text_layout(self):
        corpus = make_corpus([(("a",), ("B-PER",))])
        text = render_text(score(corpus, [s.gold_tags for s in corpus]))
        lines = text.splitlines()
        assert lines[0].split() == ["Class", "Prec", "Rec", "F1", "TP", "FP", "FN"]
        assert any(line.startswith("Average") for line in lines)
        assert any(line.startswith("PER") for line in lines)

    def test_kv_layout(self):
        corpus = make_corpus([(("a",), ("B-PER",))])
        kv = render_kv(score(corpus, [s.gold_tags for s in corpus]))
        entries = dict(line.split("=", 1) for line in kv.splitlines())
        assert entries["PER.f1"] == "1.000000"
        assert entries["macro.f1"] == f"{1/6:.6f}"
        assert entries["invalid_transitions"] == "0"

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerchain import conll_io
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
from nerchain.tagscheme import (
    REPAIR_MODES,
    EntityTypeSet,
    TagSchemeError,
    bio_pass,
    expand_bio,
    extract_spans,
    flat_tags,
    spans_to_tags,
)

from oracles import (
    predicate_error_breakdown,
    random_corpus,
    random_valid_tags,
    reference_prf,
    reference_spans,
)

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


def int_array(tags):
    """tags as a numpy integer array, of Python ints where int64 cannot hold one."""
    try:
        return np.array(tags, dtype=np.int64)
    except OverflowError:
        return np.array(tags, dtype=object)


FORMS = (list, tuple, int_array)  # the forms predictions come in


def chain_inside(sequences):
    """The sequences with each one after a sequence ending in B-X or I-X made
    to open with I-X, which must not continue the entity across sentences."""
    out = [list(tags) for tags in sequences]
    for before, tags in zip(out, out[1:]):
        if before[-1]:
            tags[0] = before[-1] + before[-1] % 2  # B-X is odd, I-X = B-X + 1
    return out


def matching(corpus, preds, repair):
    """score and error_breakdown in the oracle's form: the per-type counts,
    the invalid-transition count and the error listings."""
    report = score(corpus, preds, repair)
    counts = {c.entity_type: [c.tp, c.fp, c.fn] for c in report.per_class}
    return counts, report.invalid_transition_count, error_breakdown(corpus, preds, repair)


def outcome(fn, *args):
    """fn's result, or the class and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


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

    def test_a_corpus_flattens_its_gold_tags_once(self, monkeypatch):
        # train scores one dev corpus every epoch: its gold tags are flattened
        # and passed through bio_pass by the first score and kept, read-only,
        # for every later score or error_breakdown
        rng = np.random.default_rng(13)
        corpus = random_corpus(rng, VOC, 25)
        rounds = [[random_valid_tags(rng, VOC, len(s)) for s in corpus] for _ in range(3)]
        calls = []
        for name in ("flat_tags", "bio_pass"):
            real = getattr(conll_io, name)
            monkeypatch.setattr(conll_io, name, lambda *args, name=name, real=real:
                                calls.append(name) or real(*args))
        kept = Corpus(corpus.sentences, VOC)
        for preds in rounds:  # against a new corpus, which flattens its gold anew
            assert matching(kept, preds, "convert") == matching(
                Corpus(corpus.sentences, VOC), preds, "convert")
        # once per new corpus, once for kept
        assert calls == ["flat_tags", "bio_pass"] * (len(rounds) + 1)
        truth, starts = kept.gold_pass
        arrays = (*truth[1:], starts)
        assert not any(array.flags.writeable for array in arrays)
        expected_tags, expected_starts = flat_tags([s.gold_tags for s in corpus])
        expected = bio_pass(VOC, expected_tags, expected_starts)
        assert truth.invalid == expected.invalid
        assert all(np.array_equal(a, b) for a, b in zip(arrays, (*expected[1:], expected_starts)))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(REPAIR_MODES), st.sampled_from(FORMS))
    @settings(max_examples=60, deadline=None)
    def test_a_kept_gold_pass_scores_as_a_new_corpus_does(self, seed, repair, form):
        # one corpus scored round after round, invalid predictions included,
        # gives what a corpus built for each round gives, errors included
        rng = np.random.default_rng(seed)
        kept = random_corpus(rng, VOC, 10, max_len=10)
        for _ in range(3):
            preds = [form(list(rng.integers(0, VOC.k, len(s))) if rng.random() < 0.5
                          else random_valid_tags(rng, VOC, len(s))) for s in kept]
            fresh = Corpus(kept.sentences, VOC)
            assert (outcome(matching, kept, preds, repair)
                    == outcome(matching, fresh, preds, repair))

    def test_a_scored_corpus_equals_and_hashes_like_an_unscored_one(self):
        corpus = random_corpus(np.random.default_rng(5), VOC, 6)
        scored = Corpus(corpus.sentences, VOC)
        score(scored, [s.gold_tags for s in scored])
        assert "gold_pass" in vars(scored) and "gold_pass" not in vars(corpus)
        assert scored == corpus and hash(scored) == hash(corpus)
        assert {scored: 1}[corpus] == 1

    def test_an_out_of_range_tag_names_its_sentence(self):
        corpus = make_corpus([(("a",), ("O",)), (("b", "c"), ("B-PER", "O"))])
        # 13 is START in the 13-tag vocabulary; bio_pass refuses both as tags
        for tag, message in ((13, "tag index out of range at position 0: 13"),
                             (99, "tag index out of range at position 0: 99")):
            with pytest.raises(TagSchemeError) as info:
                score(corpus, [[0], [tag, 0]])
            assert str(info.value) == f"sentence 's1': {message}"

    def test_a_prediction_that_is_no_sequence_names_its_sentence(self):
        corpus = make_corpus([(("a",), ("O",)), (("b", "c"), ("B-PER", "O"))])
        for fn in (score, error_breakdown):
            with pytest.raises(TypeError) as info:
                fn(corpus, [[0], 5])
            assert str(info.value).startswith("sentence 's1': ")
        # a tag that int() rejects raises after the replay reaches its sentence
        with pytest.raises(ValueError) as info:
            score(corpus, [[0], [0, "x"]])
        assert str(info.value).startswith("sentence 's1': ")

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


    @given(st.integers(0, 2**32 - 1), st.sampled_from(REPAIR_MODES), st.sampled_from(FORMS),
           st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_predicate_matching(self, seed, repair, form, chained):
        # predictions of any tags, valid or not, against random gold corpora
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, VOC, 12, max_len=12)
        preds = [list(rng.integers(0, VOC.k, len(s))) if rng.random() < 0.5
                 else random_valid_tags(rng, VOC, len(s)) for s in corpus]
        if chained:  # each sentence after one that ends in an entity opens with its I tag
            corpus = Corpus(tuple(Sentence(s.id, s.tokens, tuple(tags)) for s, tags in
                                  zip(corpus, chain_inside(s.gold_tags for s in corpus))), VOC)
            preds = chain_inside(preds)
        preds = [form(p) for p in preds]
        expected = outcome(predicate_error_breakdown, corpus, preds, repair)
        assert outcome(matching, corpus, preds, repair) == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_failing_corpus_raises_what_its_first_failing_sentence_raises(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        corpus = random_corpus(rng, VOC, 8, max_len=6)
        sentences = list(corpus.sentences)
        preds = [random_valid_tags(rng, VOC, len(s)) for s in sentences]
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(preds) - 1))
            if not preds[i]:  # shortened to nothing by a length fault
                continue
            pos = data.draw(st.integers(0, len(preds[i]) - 1))
            fault = data.draw(st.sampled_from(["virtual", "out of range", "huge", "orphan",
                                               "length", "no gold"]))
            if fault == "virtual":
                preds[i][pos] = data.draw(st.sampled_from([VOC.start_index, VOC.stop_index]))
            elif fault == "out of range":
                preds[i][pos] = data.draw(st.integers(-3, -1) | st.integers(VOC.k + 2, 99))
            elif fault == "huge":  # int() accepts it, int64 cannot hold it
                preds[i][pos] = data.draw(st.sampled_from([2**70, -2**70, 2**63]))
            elif fault == "orphan":  # raises in strict mode only
                preds[i][pos] = VOC.index("I-PER") if pos == 0 else VOC.index("I-LOC")
                if pos:
                    preds[i][pos - 1] = 0
            elif fault == "length":
                preds[i] = preds[i] + [0] if data.draw(st.booleans()) else preds[i][:-1]
            else:
                sentences[i] = Sentence(sentences[i].id, sentences[i].tokens, None)
        corpus = Corpus(tuple(sentences), VOC)
        preds = [data.draw(st.sampled_from(FORMS))(p) for p in preds]
        repair = data.draw(st.sampled_from(REPAIR_MODES))
        expected = outcome(predicate_error_breakdown, corpus, preds, repair)
        assert outcome(matching, corpus, preds, repair) == expected


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

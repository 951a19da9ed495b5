import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerchain.tagscheme import (
    DEFAULT_ENTITY_TYPES,
    REPAIR_MODES,
    EntitySpan,
    EntityTypeSet,
    SchemeViolation,
    TagSchemeError,
    count_invalid_transitions,
    expand_bio,
    extract_spans,
    flat_tags,
    is_valid_transition,
    repair_bio,
    spans_to_tags,
    transition_mask,
    _tables,
)

from oracles import (
    predicate_count_invalid,
    predicate_extract_spans,
    predicate_repair_bio,
    random_valid_tags,
    reference_spans,
)

VOC = expand_bio(EntityTypeSet())
PER_VOC = expand_bio(EntityTypeSet(("PER",)))


def tag(name):
    return VOC.index(name)


class TestExpandBio:
    def test_single_type(self):
        voc = PER_VOC
        assert voc.tags == ("O", "B-PER", "I-PER")
        assert voc.k == 3
        assert voc.start_index == 3
        assert voc.stop_index == 4

    def test_default_six_types_k13(self):
        assert VOC.k == 13
        assert VOC.tags[0] == "O"

    def test_empty_set_rejected(self):
        with pytest.raises(TagSchemeError):
            EntityTypeSet(())

    def test_duplicate_and_bad_names_rejected(self):
        with pytest.raises(TagSchemeError):
            EntityTypeSet(("PER", "PER"))
        with pytest.raises(TagSchemeError):
            EntityTypeSet(("PER", ""))
        with pytest.raises(TagSchemeError):
            EntityTypeSet(("PER", "A B"))

    def test_bijection(self):
        for i in range(VOC.k):
            assert VOC.index(VOC.name(i)) == i

    def test_adjacent_bi_pairs(self):
        for t in DEFAULT_ENTITY_TYPES:
            assert VOC.inside_of(t) == VOC.begin_of(t) + 1

    def test_order_preserved(self):
        voc = expand_bio(EntityTypeSet(("LOC", "PER")))
        assert voc.tags == ("O", "B-LOC", "I-LOC", "B-PER", "I-PER")


class TestIsValidTransition:
    def test_b_per_to_i_prod_invalid(self):
        assert not is_valid_transition(VOC, tag("B-PER"), tag("I-PROD"))

    def test_b_per_to_i_per_valid(self):
        assert is_valid_transition(VOC, tag("B-PER"), tag("I-PER"))

    def test_start_to_inside_invalid(self):
        assert not is_valid_transition(VOC, VOC.start_index, tag("I-LOC"))

    def test_start_to_o_and_begin_valid(self):
        assert is_valid_transition(VOC, VOC.start_index, tag("O"))
        for t in DEFAULT_ENTITY_TYPES:
            assert is_valid_transition(VOC, VOC.start_index, VOC.begin_of(t))

    def test_anything_to_stop_valid(self):
        for i in range(VOC.k):
            assert is_valid_transition(VOC, i, VOC.stop_index)
        assert is_valid_transition(VOC, VOC.start_index, VOC.stop_index)

    def test_o_to_inside_invalid(self):
        assert not is_valid_transition(VOC, tag("O"), tag("I-CW"))

    def test_i_to_same_i_valid(self):
        assert is_valid_transition(VOC, tag("I-GRP"), tag("I-GRP"))

    def test_out_of_range_rejected(self):
        with pytest.raises(TagSchemeError):
            is_valid_transition(VOC, -1, 0)
        with pytest.raises(TagSchemeError):
            is_valid_transition(VOC, 0, VOC.stop_index + 1)

    def test_mask_matches_predicate(self):
        mask = transition_mask(VOC)
        for i in range(VOC.k):
            for j in range(VOC.k):
                assert mask[i, j] == is_valid_transition(VOC, i, j)
        assert not mask[:, VOC.start_index].any()
        assert not mask[VOC.stop_index, :].any()

    @pytest.mark.parametrize("types", [("PER",), ("LOC", "PER"), DEFAULT_ENTITY_TYPES,
                                       tuple("ABCDEFGHIJ")])
    def test_tables_equal_the_predicates_and_are_shared_by_equal_vocabularies(self, types):
        voc = expand_bio(EntityTypeSet(types))
        n = voc.k + 2
        mask = [[is_valid_transition(voc, i, j) and j != voc.start_index and i != voc.stop_index
                 for j in range(n)] for i in range(n)]
        real = range(voc.k)
        names = voc.entity_types.types
        expected = [[voc.is_begin(t) for t in real], [voc.is_inside(t) for t in real],
                    [-1 if t == 0 else names.index(voc.type_of(t)) for t in real], mask]
        assert [table.tolist() for table in _tables(voc)] == expected
        assert not any(table.flags.writeable for table in _tables(voc))
        assert transition_mask(voc).tolist() == mask
        # a vocabulary built anew equals and hashes alike, so it reaches the same tables
        again = expand_bio(EntityTypeSet(types))
        assert again == voc and hash(again) == hash(voc)
        assert _tables(again) is _tables(voc)
        assert transition_mask(again) is transition_mask(voc)
        assert expand_bio(EntityTypeSet(types + ("EXTRA",))) != voc

    def test_mask_is_built_once_and_read_only(self):
        mask = transition_mask(VOC)
        assert transition_mask(expand_bio(EntityTypeSet(VOC.entity_types.types))) is mask
        with pytest.raises(ValueError):
            mask[0, 0] = False


class TestExtractSpans:
    def test_three_token_location(self):
        tags = [tag("B-LOC"), tag("I-LOC"), tag("I-LOC"), tag("O")]
        assert extract_spans(VOC, tags) == [EntitySpan(0, 3, "LOC")]

    def test_no_entities(self):
        assert extract_spans(VOC, [tag("O"), tag("O")]) == []

    def test_mismatched_inside_closes_span(self):
        assert extract_spans(VOC, [tag("B-PER"), tag("I-PROD")]) == [EntitySpan(0, 1, "PER")]

    def test_adjacent_begins(self):
        tags = [tag("B-PER"), tag("B-PER")]
        assert extract_spans(VOC, tags) == [EntitySpan(0, 1, "PER"), EntitySpan(1, 2, "PER")]

    def test_span_at_sequence_end(self):
        tags = [tag("O"), tag("B-CW"), tag("I-CW")]
        assert extract_spans(VOC, tags) == [EntitySpan(1, 3, "CW")]

    def test_matches_reference_on_all_short_sequences(self):
        # exhaustive agreement with the independent extractor, n <= 4
        import itertools

        voc = expand_bio(EntityTypeSet(("PER", "PROD")))
        for n in range(1, 5):
            for tags in itertools.product(range(voc.k), repeat=n):
                got = [(s.start, s.end, s.entity_type) for s in extract_spans(voc, tags)]
                assert got == reference_spans(voc, list(tags)), tags

    def test_rejects_virtual_indices(self):
        with pytest.raises(TagSchemeError):
            extract_spans(VOC, [VOC.start_index])

    def test_spans_equal_and_hash_like_plain_tuples(self):
        assert EntitySpan(1, 3, "PER") == (1, 3, "PER")
        tags = [tag("B-PER"), tag("I-PER"), tag("O"), tag("B-LOC")]
        spans = extract_spans(VOC, tags)
        plain = [(0, 2, "PER"), (3, 4, "LOC")]
        assert spans == plain
        assert [hash(s) for s in spans] == [hash(t) for t in plain]
        assert set(spans) == set(plain)
        assert [(s.start, s.end, s.entity_type) for s in spans] == plain

    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_on_valid_sequences(self, seed, n):
        rng = np.random.default_rng(seed)
        tags = random_valid_tags(rng, VOC, n)
        spans = extract_spans(VOC, tags)
        assert spans_to_tags(VOC, spans, n) == tags
        starts_ends = [(s.start, s.end) for s in spans]
        assert starts_ends == sorted(starts_ends)
        for (_, e1), (s2, _) in zip(starts_ends, starts_ends[1:]):
            assert e1 <= s2  # non-overlapping
        for s in spans:
            assert 0 <= s.start < s.end <= n


class TestSpansToTags:
    @pytest.mark.parametrize("start, end", [(2, 2), (3, 1), (-1, 2)])
    def test_rejects_bad_bounds(self, start, end):
        with pytest.raises(TagSchemeError, match=rf"bad span bounds \({start}, {end}\)"):
            spans_to_tags(VOC, [EntitySpan(start, end, "PER")], 5)

    def test_rejects_overlap_and_overrun(self):
        for spans in ([EntitySpan(0, 2, "PER"), EntitySpan(1, 3, "LOC")],
                      [EntitySpan(3, 6, "PER")]):
            with pytest.raises(TagSchemeError, match="overlapping or out-of-range span"):
                spans_to_tags(VOC, spans, 5)

    def test_renders_spans_in_any_order(self):
        got = spans_to_tags(VOC, [EntitySpan(3, 4, "LOC"), EntitySpan(0, 2, "PER")], 5)
        assert got == [tag("B-PER"), tag("I-PER"), tag("O"), tag("B-LOC"), tag("O")]


class TestRepairBio:
    def test_orphan_head_promoted(self):
        got = repair_bio(VOC, [tag("I-LOC"), tag("I-LOC")], "convert")
        assert got == [tag("B-LOC"), tag("I-LOC")]

    def test_valid_input_unchanged(self):
        tags = [tag("B-PER"), tag("I-PER")]
        for mode in ("strict", "convert", "ignore"):
            assert repair_bio(VOC, tags, mode) == tags

    def test_ignore_cascades(self):
        got = repair_bio(VOC, [tag("O"), tag("I-CW"), tag("I-CW")], "ignore")
        assert got == [tag("O"), tag("O"), tag("O")]

    def test_strict_raises_with_position(self):
        with pytest.raises(SchemeViolation, match="position 1"):
            repair_bio(VOC, [tag("B-PER"), tag("I-PROD")], "strict")

    def test_unknown_mode(self):
        with pytest.raises(TagSchemeError):
            repair_bio(VOC, [0], "fixup")

    def test_exhaustive_short_sequences(self):
        # reference semantics over every sequence of length <= 3
        import itertools

        voc = expand_bio(EntityTypeSet(("PER", "LOC")))

        def reference(tags, mode):
            out = []
            prev = voc.start_index
            for t in tags:
                if voc.is_inside(t):
                    ok = prev < voc.k and prev != 0 and voc.type_of(prev) == voc.type_of(t)
                    if not ok:
                        t = t - 1 if mode == "convert" else 0
                out.append(t)
                prev = t
            return out

        for n in range(1, 4):
            for tags in itertools.product(range(voc.k), repeat=n):
                for mode in ("convert", "ignore"):
                    assert repair_bio(voc, list(tags), mode) == reference(tags, mode)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30),
           st.sampled_from(["convert", "ignore"]))
    @settings(max_examples=80, deadline=None)
    def test_output_always_valid(self, seed, n, mode):
        rng = np.random.default_rng(seed)
        tags = [int(rng.integers(VOC.k)) for _ in range(n)]
        repaired = repair_bio(VOC, tags, mode)
        assert count_invalid_transitions(VOC, repaired) == 0
        # strict either matches validity or raises
        if count_invalid_transitions(VOC, tags) == 0:
            assert repair_bio(VOC, tags, "strict") == tags
        else:
            with pytest.raises(SchemeViolation):
                repair_bio(VOC, tags, "strict")


def outcome(fn, *args):
    """fn's result, or the class and message of the TagSchemeError it raised."""
    try:
        return fn(*args)
    except TagSchemeError as exc:
        return type(exc), str(exc)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mask_lookups_match_the_predicate(data):
    voc = expand_bio(EntityTypeSet(DEFAULT_ENTITY_TYPES[:data.draw(st.integers(1, 4))]))
    # real tags, and indices out of range on either side; the virtual states
    # START and STOP are left to test_virtual_states_count_as_the_mask_has_them
    index = st.one_of(st.integers(0, voc.k - 1), st.integers(-3, -1),
                      st.integers(voc.k + 2, voc.k + 4))
    tags = data.draw(st.lists(st.one_of(index, st.integers(0, voc.k - 1)), max_size=30))
    for mode in ("strict", "convert", "ignore"):
        assert outcome(repair_bio, voc, tags, mode) == \
            outcome(predicate_repair_bio, voc, tags, mode)
    assert outcome(count_invalid_transitions, voc, tags) == \
        outcome(predicate_count_invalid, voc, tags)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_span_tables_match_the_predicates(data):
    voc = expand_bio(EntityTypeSet(DEFAULT_ENTITY_TYPES[:data.draw(st.integers(1, 4))]))
    index = st.one_of(st.integers(0, voc.k - 1), st.integers(0, voc.k - 1),
                      st.integers(-3, -1), st.integers(voc.k, voc.k + 3))
    tags = data.draw(st.lists(index, max_size=30))
    if data.draw(st.booleans()):
        tags = np.array(tags, dtype=np.int64)  # predictions may come as numpy integers
    assert outcome(extract_spans, voc, tags) == outcome(predicate_extract_spans, voc, tags)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_corpus_error_names_the_first_sentence_that_raises_alone(data):
    voc = expand_bio(EntityTypeSet(DEFAULT_ENTITY_TYPES[:data.draw(st.integers(1, 4))]))
    # real tags (orphan I tags among them), negative indices, START, STOP and past STOP
    index = st.one_of(st.integers(0, voc.k - 1), st.integers(0, voc.k - 1),
                      st.integers(-3, -1), st.integers(voc.k, voc.k + 3))
    sequences = data.draw(st.lists(st.lists(index, max_size=6), max_size=6))
    mode = data.draw(st.sampled_from(REPAIR_MODES))
    alone = [outcome(repair_bio, voc, seq, mode) for seq in sequences]
    first = next((row for row, result in enumerate(alone) if isinstance(result, tuple)), None)
    tags, starts = flat_tags(sequences)
    try:
        repair_bio(voc, tags, mode, starts=starts)
    except TagSchemeError as exc:
        assert first is not None
        assert (exc.sentence, type(exc), str(exc)) == (first, *alone[first])
    else:
        assert first is None


def test_virtual_states_count_as_the_mask_has_them():
    # nothing enters START and nothing leaves STOP
    assert count_invalid_transitions(VOC, [tag("O"), VOC.start_index]) == 1
    assert count_invalid_transitions(VOC, [tag("O"), VOC.stop_index, tag("O")]) == 1
    assert count_invalid_transitions(VOC, [tag("O"), VOC.stop_index]) == 0


def test_a_tag_that_int_rejects_is_raised_after_the_tags_before_it_are_checked():
    # as a loop over the tags would: an out-of-range tag before it is raised first
    ranged = {count_invalid_transitions: "transition index out of range: (0, 99)",
              repair_bio: "tag index out of range at position 1: 99",
              extract_spans: "tag index out of range at position 1: 99"}
    for fn, message in ranged.items():
        with pytest.raises(TagSchemeError) as info:
            fn(VOC, [0, 99, "x"])
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            fn(VOC, [0, "x"])
        assert type(info.value) is ValueError
        assert str(info.value) == "invalid literal for int() with base 10: 'x'"

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerchain.crf import (
    INTP,
    CrfError,
    LengthLayout,
    Marginals,
    NonFiniteScoreError,
    NoValidPathError,
    SENTINEL,
    TransitionMatrix,
    forward_backward,
    log_likelihood,
    log_partition,
    nll_gradients,
    _tag_indices,
    sequence_score,
    viterbi_decode,
)
from nerchain.encoders import EncoderError, cross_entropy_and_grads
from nerchain.tagscheme import (
    EntityTypeSet,
    count_invalid_transitions,
    expand_bio,
    transition_mask,
)

from oracles import (
    all_paths,
    enum_best_path,
    enum_log_partition,
    enum_marginals,
    finite_difference,
    logsumexp,
    max_rel_err,
    path_score,
    reference_forward_backward,
    reference_nll_gradients,
    reference_tag_indices,
    reference_viterbi,
)


def make_instance(rng, n=None, k=None, scale=5.0):
    n = n or int(rng.integers(1, 7))
    k = k or int(rng.integers(1, 6))
    P = rng.uniform(-scale, scale, (n, k))
    values = rng.uniform(-scale, scale, (k + 2, k + 2))
    A = TransitionMatrix(values)
    return P, A


def zero_trans(k):
    return TransitionMatrix(np.zeros((k + 2, k + 2)))


class TestTransitionMatrix:
    def test_boundary_pinned(self):
        A = zero_trans(3)
        assert np.all(A.values[:, A.start] == SENTINEL)
        assert np.all(A.values[A.stop, :] == SENTINEL)

    def test_non_finite_rejected(self):
        values = np.zeros((5, 5))
        values[0, 1] = np.inf
        with pytest.raises(CrfError):
            TransitionMatrix(values)

    def test_shape_rejected(self):
        with pytest.raises(CrfError):
            TransitionMatrix(np.zeros((4, 5)))

    def test_a_float64_array_is_adopted_in_place(self):
        values = np.zeros((5, 5))  # as the optimizer's live view of crf.trans
        A = TransitionMatrix(values)
        assert A.values is values
        assert values[0, A.start] == values[A.stop, 0] == SENTINEL

    def test_an_integer_array_is_held_as_float64(self):
        # held as integers, the pins would be truncated, and nll_gradients could
        # not write float marginals into an integer dA
        values = np.zeros((5, 5), dtype=np.int64)
        A = TransitionMatrix(values)
        assert A.values.dtype == np.float64 and not values.any()
        got = nll_gradients(np.zeros((3, 3)), A, [0, 1, 2])
        expected = nll_gradients(np.zeros((3, 3)), zero_trans(3), [0, 1, 2])
        assert [_bits(g) for g in got] == [_bits(e) for e in expected]

    @pytest.mark.parametrize("values", [np.full((5, 5), "0"), np.zeros((5, 5), dtype=complex),
                                        np.zeros((5, 5), dtype=bool)])
    def test_a_non_real_array_is_refused(self, values):
        with pytest.raises(CrfError, match=f"real numbers, got dtype {values.dtype}"):
            TransitionMatrix(values)


class TestSequenceScore:
    def test_zero_parameters(self):
        A = zero_trans(3)
        P = np.zeros((4, 3))
        for y in ([0, 1, 2, 0], [2, 2, 2, 2]):
            assert sequence_score(P, A, y) == 0.0

    def test_hand_sum(self):
        # n=1, k=2: start->1 is 0.5, 1->stop is 0.25, emission 2
        A = zero_trans(2)
        A.values[A.start, 1] = 0.5
        A.values[1, A.stop] = 0.25
        P = np.array([[1.0, 2.0]])
        assert sequence_score(P, A, [1]) == pytest.approx(2.75, abs=0)

    def test_matches_bruteforce_accumulation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            P, A = make_instance(rng, n=int(rng.integers(1, 6)), k=int(rng.integers(1, 5)))
            n, k = P.shape
            y = [int(rng.integers(k)) for _ in range(n)]
            assert sequence_score(P, A, y) == path_score(P, A.values, A.start, A.stop, y)

    def test_shape_mismatch(self):
        P, A = make_instance(np.random.default_rng(0), n=3, k=4)
        with pytest.raises(CrfError):
            sequence_score(P, A, [0, 1])
        with pytest.raises(CrfError):
            sequence_score(P, A, [0, 1, 4])

    @pytest.mark.parametrize("score", [sequence_score, log_likelihood, nll_gradients])
    def test_a_non_integral_tag_index_is_refused_naming_it(self, score):
        # truncated, these would score the path [0, 1, 2], which training would fit
        P, A = make_instance(np.random.default_rng(0), n=3, k=4)
        with pytest.raises(CrfError, match=r"tag index 0\.7 is not an integer"):
            score(P, A, [0.7, 1.9, 2.2])
        with pytest.raises(CrfError, match=r"tag index np\.float64\(0\.0\) is not an integer"):
            score(P, A, np.array([0.0, 1.0, 2.0]))

    def test_numpy_integer_tag_indices_are_accepted(self):
        P, A = make_instance(np.random.default_rng(0), n=3, k=4)
        expected = sequence_score(P, A, [0, 1, 2])
        assert sequence_score(P, A, np.array([0, 1, 2], dtype=np.int32)) == expected
        assert sequence_score(P, A, [np.uint8(0), np.int64(1), 2]) == expected

    @pytest.mark.parametrize("score", [sequence_score, log_likelihood, nll_gradients])
    def test_a_path_that_is_no_sequence_is_refused(self, score):
        P, A = make_instance(np.random.default_rng(0), n=3, k=4)
        with pytest.raises(CrfError, match="^tag indices must be a sequence, not int$"):
            score(P, A, 5)

    def test_an_index_beyond_intp_is_out_of_range(self):
        # not wrapped or truncated into a tag: 2**64 would wrap to 0
        P, A = make_instance(np.random.default_rng(0), n=2, k=4)
        for y in ([0, 2**64], [0, -2**64 + 1], np.array([0, 2**64 - 1], dtype=np.uint64)):
            with pytest.raises(CrfError, match="out-of-range tag index"):
                sequence_score(P, A, y)


class TestLogPartition:
    def test_single_token_logsumexp(self):
        A = zero_trans(2)
        P = np.array([[0.3, -1.2]])
        expected = math.log(math.exp(0.3) + math.exp(-1.2))
        assert log_partition(P, A) == pytest.approx(expected, abs=1e-12)

    def test_uniform_model_counts_paths(self):
        for n, k in [(1, 3), (3, 2), (4, 4)]:
            A = zero_trans(k)
            P = np.zeros((n, k))
            assert log_partition(P, A) == pytest.approx(n * math.log(k), abs=1e-10)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            P, A = make_instance(rng)
            expected = enum_log_partition(P, A.values, A.start, A.stop)
            assert log_partition(P, A) == pytest.approx(expected, abs=1e-8)

    def test_stable_at_large_magnitudes(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(-1e3, 1e3, (6, 4))
        values = rng.uniform(-1e3, 1e3, (6, 6))
        A = TransitionMatrix(values)
        got = log_partition(P, A)
        assert np.isfinite(got)
        assert got == pytest.approx(enum_log_partition(P, A.values, A.start, A.stop),
                                    rel=1e-12)

    def test_emission_row_shift_property(self):
        # adding c to one emission row shifts log Z by exactly c
        rng = np.random.default_rng(5)
        for _ in range(20):
            P, A = make_instance(rng, n=4, k=3)
            base = log_partition(P, A)
            shifted = P.copy()
            shifted[2] += 1.7
            assert log_partition(shifted, A) == pytest.approx(base + 1.7, abs=1e-9)
            path, _ = viterbi_decode(P, A)
            path2, _ = viterbi_decode(shifted, A)
            assert path == path2


class TestLogLikelihood:
    def test_single_path_certainty(self):
        A = zero_trans(1)
        P = np.array([[0.7]])
        assert log_likelihood(P, A, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_zero_model(self):
        A = zero_trans(3)
        P = np.zeros((2, 3))
        assert log_likelihood(P, A, [1, 2]) == pytest.approx(-math.log(9), abs=1e-12)

    def test_matches_enumeration_probability(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            P, A = make_instance(rng, n=int(rng.integers(1, 6)), k=int(rng.integers(1, 5)))
            n, k = P.shape
            y = [int(rng.integers(k)) for _ in range(n)]
            scores = {p: path_score(P, A.values, A.start, A.stop, p) for p in all_paths(n, k)}
            m = max(scores.values())
            z = sum(math.exp(s - m) for s in scores.values())
            expected = math.log(math.exp(scores[tuple(y)] - m) / z)
            assert log_likelihood(P, A, y) == pytest.approx(expected, abs=1e-8)
            assert log_likelihood(P, A, y) <= 1e-12

    def test_total_probability_is_one(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            P, A = make_instance(rng, n=int(rng.integers(1, 6)), k=int(rng.integers(1, 5)))
            n, k = P.shape
            total = sum(math.exp(log_likelihood(P, A, list(p))) for p in all_paths(n, k))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_log_partition_dominates_every_path(self):
        rng = np.random.default_rng(19)
        P, A = make_instance(rng, n=4, k=3)
        z = log_partition(P, A)
        for p in all_paths(4, 3):
            assert z >= sequence_score(P, A, list(p))


class TestForwardBackward:
    def test_uniform_model_node_marginals(self):
        A = zero_trans(4)
        P = np.zeros((3, 4))
        marg = forward_backward(P, A)
        assert np.allclose(marg.node, 0.25, atol=1e-12)

    def test_single_token_closed_form(self):
        rng = np.random.default_rng(23)
        P, A = make_instance(rng, n=1, k=4)
        logits = P[0] + A.values[A.start, :4] + A.values[:4, A.stop]
        expected = np.exp(logits - logsumexp(logits))
        marg = forward_backward(P, A)
        assert np.allclose(marg.node[0], expected, atol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            P, A = make_instance(rng, n=int(rng.integers(1, 6)), k=int(rng.integers(1, 5)))
            node, edge = enum_marginals(P, A.values, A.start, A.stop)
            marg = forward_backward(P, A)
            assert np.allclose(marg.node, node, atol=1e-8)
            assert np.allclose(marg.edge, edge, atol=1e-8)

    def test_normalization_and_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            P, A = make_instance(rng, n=int(rng.integers(2, 6)), k=int(rng.integers(1, 5)))
            marg = forward_backward(P, A)
            assert np.allclose(marg.node.sum(axis=1), 1.0, atol=1e-9)
            n = P.shape[0]
            for t in range(n - 1):
                assert abs(marg.edge[t].sum() - 1.0) <= 1e-9
                assert np.allclose(marg.edge[t].sum(axis=1), marg.node[t], atol=1e-9)
                assert np.allclose(marg.edge[t].sum(axis=0), marg.node[t + 1], atol=1e-9)


class TestNllGradients:
    def test_uniform_two_tags(self):
        A = zero_trans(2)
        P = np.zeros((1, 2))
        _, dP, dA = nll_gradients(P, A, [0])
        assert np.allclose(dP, [[-0.5, 0.5]], atol=1e-12)

    def test_peaked_model_has_zero_gradients(self):
        A = zero_trans(3)
        P = np.full((4, 3), -60.0)
        y = [0, 2, 1, 0]
        for t, tag in enumerate(y):
            P[t, tag] = 60.0
        _, dP, dA = nll_gradients(P, A, y)
        assert np.max(np.abs(dP)) < 1e-8
        assert np.max(np.abs(dA)) < 1e-8

    def test_boundary_cells_zero(self):
        rng = np.random.default_rng(37)
        P, A = make_instance(rng, n=4, k=3)
        _, _, dA = nll_gradients(P, A, [0, 1, 2, 0])
        assert np.all(dA[:, A.start] == 0.0)
        assert np.all(dA[A.stop, :] == 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            P, A = make_instance(rng, n=int(rng.integers(1, 6)), k=int(rng.integers(1, 5)),
                                 scale=2.0)
            n, k = P.shape
            y = [int(rng.integers(k)) for _ in range(n)]
            _, dP, dA = nll_gradients(P, A, y)
            fd = finite_difference(lambda: -log_likelihood(P, A, y),
                                   {"P": P, "A": A.values})
            assert max_rel_err(dP, fd["P"]) <= 1e-4
            assert max_rel_err(dA, fd["A"]) <= 1e-4


    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 5.0, 80.0, 1e306]))
    @settings(max_examples=100, deadline=None)
    def test_every_log_partition_is_the_same_bits(self, seed, scale):
        # log_partition, the marginals and log_likelihood share one forward pass
        rng = np.random.default_rng(seed)
        P, A = make_instance(rng, scale=scale)
        y = [int(rng.integers(A.k)) for _ in range(P.shape[0])]
        with np.errstate(all="ignore"):
            log_z = log_partition(P, A)
            assert forward_backward(P, A).log_z.hex() == log_z.hex()
            assert (log_likelihood(P, A, y).hex()
                    == (sequence_score(P, A, y) - log_z).hex())

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 5.0, 80.0]))
    @settings(max_examples=100, deadline=None)
    def test_nll_is_negated_log_likelihood_bit_for_bit(self, seed, scale):
        rng = np.random.default_rng(seed)
        P, A = make_instance(rng, scale=scale)
        y = [int(rng.integers(A.k)) for _ in range(P.shape[0])]
        nll, _, _ = nll_gradients(P, A, y)
        assert nll.hex() == (-log_likelihood(P, A, y)).hex()


class TestViterbi:
    def test_single_token_argmax(self):
        A = zero_trans(2)
        P = np.array([[3.0, 1.0]])
        path, score = viterbi_decode(P, A)
        assert path == [0]
        assert score == 3.0

    def test_tie_breaks_to_all_o(self):
        voc = expand_bio(EntityTypeSet(("PER",)))
        A = TransitionMatrix.zeros(voc)
        P = np.zeros((2, voc.k))
        path, score = viterbi_decode(P, A, transition_mask(voc))
        assert path == [0, 0]
        assert score == 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            P, A = make_instance(rng)
            expected_path, expected_score = enum_best_path(P, A.values, A.start, A.stop)
            path, score = viterbi_decode(P, A)
            assert score == expected_score
            assert path == expected_path

    def test_tie_break_matches_enumeration_on_integer_scores(self):
        rng = np.random.default_rng(47)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            P = rng.integers(0, 2, (n, k)).astype(float)
            values = rng.integers(0, 2, (k + 2, k + 2)).astype(float)
            A = TransitionMatrix(values)
            expected_path, expected_score = enum_best_path(P, A.values, A.start, A.stop)
            path, score = viterbi_decode(P, A)
            assert score == expected_score
            assert path == expected_path

    def test_constrained_matches_masked_enumeration(self):
        voc = expand_bio(EntityTypeSet(("PER", "LOC")))
        mask = transition_mask(voc)
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            P = rng.uniform(-3, 3, (n, voc.k))
            values = rng.uniform(-3, 3, (voc.k + 2, voc.k + 2))
            A = TransitionMatrix(values)
            expected_path, expected_score = enum_best_path(P, A.values, A.start, A.stop, mask)
            path, score = viterbi_decode(P, A, mask)
            assert path == expected_path
            assert score == expected_score
            assert count_invalid_transitions(voc, path) == 0

    def test_no_valid_path_raises(self):
        A = zero_trans(2)
        mask = np.zeros((4, 4), dtype=bool)  # nothing allowed
        with pytest.raises(NoValidPathError):
            viterbi_decode(np.zeros((2, 2)), A, mask)

    def test_a_mask_is_any_boolean_array_like(self):
        rng = np.random.default_rng(5)
        P, A = make_instance(rng, n=4, k=2)
        mask = rng.random((4, 4)) < 0.8
        mask[2, :2] = mask[:2, 3] = mask[0, 0] = True  # a path is always allowed
        nested = mask.tolist()
        assert viterbi_decode(P, A, nested) == viterbi_decode(P, A, mask)
        assert viterbi_decode([P, P[:2]], A, nested) == viterbi_decode([P, P[:2]], A, mask)
        assert viterbi_decode(P, A, [[True] * 4] * 4) == viterbi_decode(P, A)

    @pytest.mark.parametrize("mask, message", [
        (np.ones((4, 4), dtype=np.int64), "mask must be boolean, got dtype int64"),
        ([[1.0] * 4] * 4, "mask must be boolean, got dtype float64"),
        ([[True] * 3] * 3, r"mask shape \(3, 3\) != transition shape \(4, 4\)"),
        (True, r"mask shape \(\) != transition shape \(4, 4\)"),
    ])
    def test_a_mask_that_is_not_a_boolean_transition_table_is_refused(self, mask, message):
        P, A = make_instance(np.random.default_rng(0), n=3, k=2)
        for Ps in (P, [P, P]):
            with pytest.raises(CrfError, match=message):
                viterbi_decode(Ps, A, mask)

    def test_overflowing_best_score_is_a_non_finite_score(self):
        # finite scores whose path sum overflows: not the mask's doing
        A = zero_trans(2)
        P = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"):
            for mask in (None, np.ones((4, 4), dtype=bool)):
                with pytest.raises(NonFiniteScoreError, match="non-finite best path score inf"):
                    viterbi_decode(P, A, mask)
            with pytest.raises(NonFiniteScoreError, match="-inf"):
                viterbi_decode(-P, A)

    def test_purity(self):
        rng = np.random.default_rng(59)
        P, A = make_instance(rng, n=5, k=4)
        first = viterbi_decode(P, A)
        for _ in range(3):
            assert viterbi_decode(P, A) == first


def _bits(value):
    value = np.asarray(value, dtype=np.float64)
    return value.shape, value.tobytes()


@st.composite
def chain_instances(draw):
    """(P, A, y, mask) with k 1-15 or 16-67 (67 is the BIO size of 33 entity
    types; from k = 8 on, a sum in index order and numpy's pairwise sum can
    differ) and n 1-45: uniform scores at magnitudes 1e-3 to 1e5, small
    integers (ties everywhere), or magnitudes near the float64 limit, where the
    recursions overflow; mask is None or random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 15) | st.integers(16, 67))
    n = draw(st.integers(1, 45))
    kind = draw(st.sampled_from(["uniform", "ties", "overflow"]))
    if kind == "ties":
        P = rng.integers(-2, 3, (n, k)).astype(float)
        values = rng.integers(-2, 3, (k + 2, k + 2)).astype(float)
    else:
        scale = 10.0 ** (draw(st.floats(-3.0, 5.0)) if kind == "uniform"
                         else draw(st.floats(300.0, 307.9)))
        P = scale * rng.uniform(-1.0, 1.0, (n, k))
        values = scale * rng.uniform(-1.0, 1.0, (k + 2, k + 2))
    mask = rng.random((k + 2, k + 2)) < 0.8 if draw(st.booleans()) else None
    return P, TransitionMatrix(values), rng.integers(0, k, n).tolist(), mask


@given(chain_instances())
@settings(max_examples=300, deadline=None)
def test_kernels_match_the_per_step_reference_bit_for_bit(instance):
    P, A, y, mask = instance
    with np.errstate(all="ignore"):
        expected_nll = reference_nll_gradients(P, A.values, y)
        node, edge, log_z = reference_forward_backward(P, A.values)
        expected_path, expected_score = reference_viterbi(P, A.values, mask)
        got_nll = nll_gradients(P, A, y)
        marg = forward_backward(P, A)
        got_z = log_partition(P, A)
        try:
            got_path, got_score = viterbi_decode(P, A, mask)
        except (NoValidPathError, NonFiniteScoreError):
            got_path, got_score = None, expected_score
            assert not math.isfinite(expected_score)
    for got, expected in zip(got_nll, expected_nll):
        assert _bits(got) == _bits(expected)
    assert _bits(marg.node) == _bits(node)
    assert _bits(marg.edge) == _bits(edge)
    assert _bits(marg.log_z) == _bits(log_z) == _bits(got_z)
    assert got_path == expected_path
    assert _bits(got_score) == _bits(expected_score)


def _refusal(call):
    """call()'s result, or the type and message of the CrfError or
    EncoderError it raises; any other exception fails the test."""
    try:
        return call()
    except (CrfError, EncoderError) as exc:
        return type(exc), str(exc)


_INTEGER_DTYPES = [np.dtype(code) for code in np.typecodes["AllInteger"]]


def _numpy_integers(dtype):
    info = np.iinfo(dtype)
    return st.integers(int(info.min), int(info.max)).map(dtype.type)


@st.composite
def tag_index_inputs(draw):
    """What a caller may pass as tag indices: sequences of Python ints (small,
    huge and around intp's limits), bools, numpy integers of every dtype,
    np.bool_, floats, numpy floats and nested lists; integer arrays of every
    dtype (uint64 beyond intp's maximum included), float, bool and 2-D arrays;
    and non-iterables."""
    python_ints = (st.integers(-2, 15) | st.integers() | st.integers(INTP.max - 2, 2**65)
                   | st.integers(-2**65, INTP.min + 2))
    element = st.one_of(
        python_ints, st.booleans(), st.sampled_from(_INTEGER_DTYPES).flatmap(_numpy_integers),
        st.booleans().map(np.bool_), st.floats(), st.floats(width=32).map(np.float32),
        st.lists(st.integers(0, 4), max_size=2))
    small_ints = st.lists(st.integers(0, 12), max_size=8)
    kind = draw(st.sampled_from(["ints", "elements", "integer array", "other array",
                                 "non-iterable"]))
    if kind == "ints":  # the usual case, as training passes it
        return draw(small_ints.map(tuple) | small_ints)
    if kind == "elements":
        return draw(st.lists(element, max_size=6) | st.lists(st.integers(0, 12) | element,
                                                             max_size=6).map(tuple))
    if kind == "integer array":
        dtype = draw(st.sampled_from(_INTEGER_DTYPES))
        values = draw(st.lists(_numpy_integers(dtype) | st.integers(0, 12).map(dtype.type),
                               max_size=8))
        return np.array(values, dtype=dtype)
    if kind == "other array":
        return draw(st.sampled_from([
            np.array([0.0, 1.0]), np.array([0.5]), np.array([True, False]),
            np.zeros((2, 2), dtype=np.int64), np.array([], dtype=np.float64),
            np.array([1, 2], dtype=object), np.array([], dtype=np.int8)]))
    return draw(st.sampled_from([5, np.int64(3), 1.5, None, np.array(2), np.float64(0.0)]))


def _same_indices(got, expected):
    """got, an intp array, holds expected's indices; one that intp cannot hold
    is negative in got, out of every tag set's range."""
    assert isinstance(got, np.ndarray) and got.dtype == np.intp and got.shape == (len(expected),)
    for g, e in zip(got.tolist(), expected):
        assert g == e if INTP.min <= e <= INTP.max else g < 0


def _gold_checks(tags, n, k, error, length_message, range_message):
    """The per-element loop's indices, then the callers' length and range checks."""
    gold = reference_tag_indices(tags, error)
    if len(gold) != n:
        raise error(length_message.format(len(gold), n))
    if any(not 0 <= t < k for t in gold):
        raise error(range_message)
    return gold


@given(tag_index_inputs(), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=500, deadline=None)
def test_tag_indices_take_what_the_per_element_loop_takes(tags, seed, fits):
    expected = _refusal(lambda: reference_tag_indices(tags, CrfError))
    got = _refusal(lambda: _tag_indices(tags))
    if isinstance(expected, tuple):
        assert got == expected
        return
    _same_indices(got, expected)
    # through a path score: the same checks, and the float loop's bits
    rng = np.random.default_rng(seed)
    P, A = make_instance(rng, n=max(len(expected), 1) + (not fits), k=int(rng.integers(1, 14)))
    gold = _refusal(lambda: _gold_checks(tags, *P.shape, CrfError,
                                         "label path length {} != sequence length {}",
                                         "label path contains an out-of-range tag index"))
    score = _refusal(lambda: sequence_score(P, A, tags))
    if isinstance(gold, tuple):
        assert score == gold
    else:
        expected_score = path_score(P, A.values, A.start, A.stop, gold)
        assert np.float64(score).view(np.uint64) == np.float64(expected_score).view(np.uint64)


@given(tag_index_inputs(), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=500, deadline=None)
def test_cross_entropy_takes_the_gold_the_per_element_loop_takes(tags, seed, fits):
    rng = np.random.default_rng(seed)
    indices = _refusal(lambda: reference_tag_indices(tags, EncoderError))
    n = max(len(indices), 1) + (not fits) if isinstance(indices, list) else 2
    k = int(rng.integers(1, 14))
    logits = rng.uniform(-3.0, 3.0, (n, k))
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    gold = _refusal(lambda: _gold_checks(tags, n, k, EncoderError, "{} gold tags for {} tokens",
                                         "gold tag index out of range"))
    got = _refusal(lambda: cross_entropy_and_grads(log_probs, tags))
    if isinstance(gold, tuple):
        assert got == gold
        return
    loss = -float(log_probs[np.arange(n), gold].mean())
    d_logits = np.exp(log_probs)
    d_logits[np.arange(n), gold] -= 1.0
    d_logits /= n
    assert _bits(got[0]) == _bits(loss) and _bits(got[1]) == _bits(d_logits)


@given(chain_instances(), st.sampled_from([list, tuple, np.array]))
@settings(max_examples=300, deadline=None)
def test_a_path_score_is_the_float_loops_bits(instance, container):
    # near the float64 limit the sums overflow to inf, or to nan where an inf
    # meets a -inf; like the loop, the score warns of neither
    P, A, y, _ = instance
    got = sequence_score(P, A, container(y))
    expected = path_score(P, A.values, A.start, A.stop, y)
    assert isinstance(got, float)
    assert np.float64(got).view(np.uint64) == np.float64(expected).view(np.uint64)


def _outcome(decode):
    """decode()'s result, or the type and message of the CrfError it raises."""
    try:
        return decode()
    except CrfError as exc:
        return type(exc), str(exc)


def _as_bits(value):
    """value with each float and float array as its shape and bytes."""
    if isinstance(value, Marginals):
        value = (value.node, value.edge, value.log_z)
    if isinstance(value, (tuple, list)):
        return tuple(map(_as_bits, value))
    return value if isinstance(value, (int, str, type)) else _bits(value)


@given(chain_instances())
@example((np.array([[800.0, -800.0], [-800.0, 800.0]]), TransitionMatrix(np.zeros((4, 4))),
          [0, 1], None))
@settings(max_examples=200, deadline=None)
def test_no_public_function_warns_and_each_gives_the_bits_it_gives_with_warnings_off(instance):
    # called outside any errstate, where the repository's pytest settings make
    # a RuntimeWarning an error; near the float64 limit the recursions overflow.
    # A caller's errstate changes no result either, not even one that raises on
    # the underflow of exp at large magnitudes.
    P, A, y, mask = instance
    calls = (
        lambda: sequence_score(P, A, y),
        lambda: log_partition(P, A),
        lambda: log_likelihood(P, A, y),
        lambda: forward_backward(P, A),
        lambda: nll_gradients(P, A, y),
        lambda: viterbi_decode(P, A, mask),
        lambda: viterbi_decode([P, P[::-1]], A, mask),
    )
    for call in calls:
        got = _as_bits(_outcome(call))
        for policy in ({"all": "ignore"}, {"under": "raise"}):
            with np.errstate(**policy):
                assert got == _as_bits(_outcome(call))


@st.composite
def viterbi_batches(draw):
    """(Ps, A, mask): 1-12 emission matrices of lengths 1-40, drawn from a pool
    that always holds 1, so 1-token sentences and repeated lengths are common;
    small signed integers (ties everywhere), zeros of either sign (every
    candidate ties, and a max, unlike a gather of the argmax cell, may pick
    the +0.0 of a column led by a -0.0), uniform scores, or magnitudes near the float64
    limit, where scores overflow; mask is None or random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 15))
    pool = [1] + draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    lengths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    kind = draw(st.sampled_from(["ties", "zeros", "uniform", "overflow"]))

    def scores(shape):
        if kind == "ties":
            return np.copysign(rng.integers(-1, 2, shape), rng.choice([-1.0, 1.0], shape))
        if kind == "zeros":  # mostly -0.0, whose sums stay -0.0 until a +0.0 joins
            return np.copysign(np.zeros(shape), rng.choice([-1.0, 1.0], shape, p=[0.9, 0.1]))
        scale = 10.0 ** (2.0 if kind == "uniform" else draw(st.floats(300.0, 307.9)))
        return scale * rng.uniform(-1.0, 1.0, shape)

    Ps = [scores((n, k)) for n in lengths]
    mask = rng.random((k + 2, k + 2)) < 0.8 if draw(st.booleans()) else None
    return Ps, TransitionMatrix(scores((k + 2, k + 2))), mask


@given(viterbi_batches())
@settings(max_examples=300, deadline=None)
def test_decoding_a_list_is_decoding_each_matrix_alone_bit_for_bit(batch):
    Ps, A, mask = batch
    with np.errstate(all="ignore"):
        expected = [reference_viterbi(P, A.values, mask) for P in Ps]
        alone = [_outcome(lambda P=P: viterbi_decode(P, A, mask)) for P in Ps]
        got = _outcome(lambda: viterbi_decode(Ps, A, mask))
    failing = [j for j, (path, _) in enumerate(expected) if path is None]
    if failing:  # the first failing matrix's own error
        assert got == alone[failing[0]]
        assert issubclass(got[0], (NonFiniteScoreError, NoValidPathError))
        return
    assert [path for path, _ in got] == [path for path, _ in expected]
    assert ([np.float64(score).view(np.uint64) for _, score in got]
            == [np.float64(score).view(np.uint64) for _, score in expected])
    assert got == alone


class TestViterbiList:
    def test_an_empty_list_gives_an_empty_list(self):
        assert viterbi_decode([], zero_trans(3)) == []

    def test_one_matrix_gives_a_list_of_one(self):
        rng = np.random.default_rng(61)
        P, A = make_instance(rng, n=5, k=4)
        assert viterbi_decode([P], A) == [viterbi_decode(P, A)]

    def test_a_list_raises_what_its_first_failing_matrix_raises_alone(self):
        # with this mask a path must run START -> 0 -> 1 -> STOP or START -> 0 -> STOP,
        # so no path fits three tokens
        A = zero_trans(2)
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 0] = mask[0, 1] = mask[0, 3] = mask[1, 3] = True
        good = np.ones((2, 2))
        failing = {
            (NonFiniteScoreError, "non-finite best path score inf"): np.full((2, 2), 1e308),
            (NoValidPathError, "no path satisfies the transition mask"): np.ones((3, 2)),
            (NonFiniteScoreError, "non-finite emission score"): np.array([[np.nan, 0.0]]),
            (CrfError, "emissions have 3 tags, transitions expect 2"): np.ones((1, 3)),
        }
        rng = np.random.default_rng(67)
        with np.errstate(over="ignore"):
            assert viterbi_decode(good, A, mask)[0] == [0, 1]
            for error, P in failing.items():
                assert _outcome(lambda P=P: viterbi_decode(P, A, mask)) == error
            # good matrices around the failing ones, in every order, so that the
            # first failing matrix is often not the longest
            errors = list(failing)
            for _ in range(40):
                chosen = [errors[j] for j in rng.permutation(len(errors))[:rng.integers(1, 5)]]
                Ps = [failing[error] for error in chosen]
                for _ in range(int(rng.integers(1, 3))):
                    Ps.insert(int(rng.integers(len(Ps) + 1)), good)
                assert _outcome(lambda: viterbi_decode(Ps, A, mask)) == chosen[0]

    def test_a_bad_mask_is_the_error_of_the_first_matrix(self):
        A = zero_trans(2)
        bad_mask = np.ones((3, 3), dtype=bool)
        good, not_finite = np.ones((2, 2)), np.array([[np.inf, 0.0]])
        assert _outcome(lambda: viterbi_decode([good, not_finite], A, bad_mask)) == (
            CrfError, "mask shape (3, 3) != transition shape (4, 4)")
        assert _outcome(lambda: viterbi_decode([not_finite, good], A, bad_mask)) == (
            NonFiniteScoreError, "non-finite emission score")


@pytest.mark.parametrize("k", [1, 2, 13])
def test_the_kernels_leave_their_inputs_alone(k):
    # every input read-only, so a write through an out= buffer or a view that
    # aliases one raises, and byte-compared afterwards
    rng = np.random.default_rng(k)
    Ps = [rng.uniform(-3.0, 3.0, (n, k)) for n in (5, 1, 3)]
    A = TransitionMatrix(rng.uniform(-1.0, 1.0, (k + 2, k + 2)))
    mask = np.ones((k + 2, k + 2), dtype=bool)
    mask[0, 0] = k == 1  # one forbidden cell, unless it would leave no path
    inputs = Ps + [A.values, mask]
    before = [x.tobytes() for x in inputs]
    for x in inputs:
        x.flags.writeable = False
    y = rng.integers(0, k, 5).tolist()
    nll_gradients(Ps[0], A, y)
    forward_backward(Ps[0], A)
    log_partition(Ps[0], A)
    for m in (None, mask):
        viterbi_decode(Ps[0], A, m)
        viterbi_decode(Ps, A, m)
    assert [x.tobytes() for x in inputs] == before


@given(lengths=st.lists(st.integers(1, 40), max_size=40), width=st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_length_layout_sorts_longest_first_and_round_trips(lengths, width):
    layout = LengthLayout(lengths)
    rows = len(lengths)
    # the order: a permutation, lengths not increasing, ties in input order
    assert sorted(layout.order) == list(range(rows))
    assert layout.lengths == [lengths[j] for j in layout.order]
    assert all(a >= b for a, b in zip(layout.lengths, layout.lengths[1:]))
    assert all(i < j for i, j, a, b in zip(layout.order, layout.order[1:], layout.lengths,
                                           layout.lengths[1:]) if a == b)
    # the runs cover every step once, in order, each running the rows longer than it
    steps = max(lengths, default=0)
    assert ([(t, count) for start, end, count in layout.runs for t in range(start, end)]
            == [(t, sum(n > t for n in lengths)) for t in range(steps)])
    # unstack inverts the order, also for generators and no rows at all
    assert layout.unstack(iter(layout.order)) == list(range(rows))
    assert layout.unstack(layout.lengths) == lengths
    # stack puts each array in its row's first n steps
    arrays = [np.full((n, width), float(j)) for j, n in enumerate(lengths)]
    stacked = layout.stack(iter(arrays), width)
    assert stacked.shape == (steps, rows, width)
    for row, (j, n) in enumerate(zip(layout.order, layout.lengths)):
        assert np.array_equal(stacked[:n, row], arrays[j])

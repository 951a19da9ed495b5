import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerchain.crf import (
    CrfError,
    NoValidPathError,
    SENTINEL,
    TransitionMatrix,
    forward_backward,
    log_likelihood,
    log_partition,
    logsumexp,
    nll_gradients,
    sequence_score,
    viterbi_decode,
)
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
    max_rel_err,
    path_score,
)


def make_instance(rng, n=None, k=None, scale=5.0):
    n = n or int(rng.integers(1, 7))
    k = k or int(rng.integers(1, 6))
    P = rng.uniform(-scale, scale, (n, k))
    values = rng.uniform(-scale, scale, (k + 2, k + 2))
    A = TransitionMatrix(values, k, k + 1)
    return P, A


def zero_trans(k):
    return TransitionMatrix(np.zeros((k + 2, k + 2)), k, k + 1)


class TestTransitionMatrix:
    def test_boundary_pinned(self):
        A = zero_trans(3)
        assert np.all(A.values[:, A.start] == SENTINEL)
        assert np.all(A.values[A.stop, :] == SENTINEL)

    def test_non_finite_rejected(self):
        values = np.zeros((5, 5))
        values[0, 1] = np.inf
        with pytest.raises(CrfError):
            TransitionMatrix(values, 3, 4)

    def test_shape_rejected(self):
        with pytest.raises(CrfError):
            TransitionMatrix(np.zeros((4, 5)), 2, 3)


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
        A = TransitionMatrix(values, 4, 5)
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
            assert np.allclose(marg.start_edge, marg.node[0], atol=0)
            assert np.allclose(marg.stop_edge, marg.node[-1], atol=0)


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
            A = TransitionMatrix(values, k, k + 1)
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
            A = TransitionMatrix(values, voc.start_index, voc.stop_index)
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

    def test_purity(self):
        rng = np.random.default_rng(59)
        P, A = make_instance(rng, n=5, k=4)
        first = viterbi_decode(P, A)
        for _ in range(3):
            assert viterbi_decode(P, A) == first

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerchain.conll_io import EmbeddingError, EmbeddingSet, Sentence, TokenVocabulary
from nerchain.encoders import (
    ARCHITECTURES,
    DIRECTIONS,
    EncoderError,
    EmbeddingSource,
    bilstm_backward,
    bilstm_forward,
    cross_entropy_and_grads,
    embed,
    embed_backward,
    emissions_backward,
    emissions_forward,
    fc_head_forward,
    init_params,
    project,
)

from oracles import (
    LstmDirection,
    assert_written,
    finite_difference,
    gradient_arrays,
    max_rel_err,
    reference_lstm_backward,
    reference_lstm_backward_kernel,
    reference_lstm_forward,
    reference_lstm_kernel,
    scalar_bilstm,
)

SENT = Sentence("s0", ("a", "b", "c"))


def lstm_params(rng, d, h):
    params = {key: arr for key, arr in init_params("bilstm-crf", d, k=1, hidden=h, rng=rng).items()
              if key.startswith("lstm.")}
    # break symmetry harder than the small init for gradient visibility
    for key, arr in params.items():
        if arr.ndim == 2:
            params[key] = rng.uniform(-0.8, 0.8, arr.shape)
    return params


def trainable(vocab, dim, rng):
    """A trainable source: a uniform(-0.1, 0.1) table with one row per vocab entry."""
    return EmbeddingSource(table=rng.uniform(-0.1, 0.1, (len(vocab), dim)), token_vocab=vocab)


class TestEmbed:
    def make_ingested(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((3, 4))
        return EmbeddingSource(EmbeddingSet(4, {"s0": matrix})), matrix

    def test_ingested_identity(self):
        source, matrix = self.make_ingested()
        x, _ = embed(SENT, source)
        assert np.array_equal(x, matrix)
        x[0, 0] = 99.0  # returned matrix is a copy
        assert source.embeddings["s0"][0, 0] == matrix[0, 0]

    def test_eval_mode_ignores_dropout(self):
        # evaluation passes no rate; a zero or negative one draws nothing
        source, matrix = self.make_ingested()
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        for rate in (0.0, -0.5):
            x, cache = embed(SENT, source, dropout=rate, rng=rng)
            assert np.array_equal(x, matrix) and cache.mask is None
        assert rng.bit_generator.state == state

    def test_train_dropout_scales(self):
        source, matrix = self.make_ingested()
        x, cache = embed(SENT, source, dropout=0.5, rng=np.random.default_rng(1))
        kept = x != 0.0
        assert np.allclose(x[kept], 2.0 * matrix[kept])
        assert cache.mask is not None

    def test_rate_of_one_or_more_raises(self):
        source, _ = self.make_ingested()
        for rate in (1.0, 1.5):
            with pytest.raises(EncoderError, match="dropout rate must be in"):
                embed(SENT, source, dropout=rate, rng=np.random.default_rng(1))

    def test_missing_sentence_id(self):
        source, _ = self.make_ingested()
        with pytest.raises(EmbeddingError, match="s9"):
            embed(Sentence("s9", ("x",)), source)

    def test_a_matrix_of_the_wrong_shape_is_refused(self):
        source = EmbeddingSource(EmbeddingSet(4, {"s0": np.zeros((2, 4))}))
        with pytest.raises(EmbeddingError) as info:
            embed(SENT, source)
        assert str(info.value) == "sentence 's0': embedding shape (2, 4), expected (3, 4)"

    def test_width_and_gradient_follow_the_source_data(self):
        ingested, _ = self.make_ingested()
        table = trainable(TokenVocabulary(["a", "b"]), 3, np.random.default_rng(7))
        assert (ingested.dim, table.dim) == (4, 3)
        for source, written in ((ingested, set()), (table, {"embed.table"})):
            x, cache = embed(SENT, source)
            out = gradient_arrays({"embed.table": table.table})
            assert embed_backward(cache, np.ones_like(x), out) is None
            assert_written(out, written)

    def test_trainable_deterministic(self):
        vocab = TokenVocabulary(["a", "b", "c"])
        one = trainable(vocab, 5, np.random.default_rng(7))
        two = trainable(vocab, 5, np.random.default_rng(7))
        x1, _ = embed(SENT, one)
        x2, _ = embed(SENT, two)
        assert np.array_equal(x1, x2)

    def test_trainable_unknown_token_uses_unk_row(self):
        vocab = TokenVocabulary(["a"])
        source = trainable(vocab, 3, np.random.default_rng(7))
        x, _ = embed(Sentence("s1", ("zzz",)), source)
        assert np.array_equal(x[0], source.table[1])

    def test_trainable_scatter_gradients(self):
        vocab = TokenVocabulary(["a", "b"])
        source = trainable(vocab, 2, np.random.default_rng(7))
        sent = Sentence("s1", ("a", "a", "b"))
        x, cache = embed(sent, source)
        out = gradient_arrays({"embed.table": source.table})
        embed_backward(cache, np.ones_like(x), out)
        table_grad = out["embed.table"]
        assert np.allclose(table_grad[vocab.lookup("a")], [2.0, 2.0])
        assert np.allclose(table_grad[vocab.lookup("b")], [1.0, 1.0])
        assert np.allclose(table_grad[0], 0.0)


class TestBiLstmForward:
    def test_zero_network_outputs_zero(self):
        d, h = 3, 2
        params = {k: np.zeros_like(v)
                  for k, v in lstm_params(np.random.default_rng(0), d, h).items()}
        (out,), _ = bilstm_forward([np.random.default_rng(1).standard_normal((4, d))], params)
        assert np.allclose(out, 0.0)

    def test_length_one_is_two_single_cells(self):
        rng = np.random.default_rng(3)
        d, h = 2, 2
        params = lstm_params(rng, d, h)
        x = rng.standard_normal((1, d))
        (out,), _ = bilstm_forward([x], params)
        (fwd,), _ = bilstm_forward([x], {**params,
                                         "lstm.bw.wx": params["lstm.fw.wx"],
                                         "lstm.bw.wh": params["lstm.fw.wh"],
                                         "lstm.bw.b": params["lstm.fw.b"]})
        assert np.allclose(out[:, :h], fwd[:, :h])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        d, h = 2, 2
        params = lstm_params(rng, d, h)
        x = rng.standard_normal((3, d))
        (out,), _ = bilstm_forward([x], params)
        ref = scalar_bilstm(x, params["lstm.fw.wx"], params["lstm.fw.wh"], params["lstm.fw.b"],
                            params["lstm.bw.wx"], params["lstm.bw.wh"], params["lstm.bw.b"])
        assert np.allclose(out, ref, atol=1e-10)

    def test_direction_symmetry(self):
        rng = np.random.default_rng(9)
        d, h = 3, 4
        params = lstm_params(rng, d, h)
        x = rng.standard_normal((5, d))
        (out,), _ = bilstm_forward([x], params)
        swapped = {
            "lstm.fw.wx": params["lstm.bw.wx"], "lstm.fw.wh": params["lstm.bw.wh"],
            "lstm.fw.b": params["lstm.bw.b"], "lstm.bw.wx": params["lstm.fw.wx"],
            "lstm.bw.wh": params["lstm.fw.wh"], "lstm.bw.b": params["lstm.fw.b"],
        }
        (out2,), _ = bilstm_forward([x[::-1]], swapped)
        assert np.allclose(out2[:, :h], out[::-1, h:], atol=1e-12)
        assert np.allclose(out2[:, h:], out[::-1, :h], atol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        params = init_params("bilstm-crf", 3, k=1, hidden=4, rng=np.random.default_rng(0))
        assert np.all(params["lstm.fw.b"][4:8] == 1.0)
        assert np.all(params["lstm.fw.b"][:4] == 0.0)

    def test_shape_mismatch(self):
        params = lstm_params(np.random.default_rng(0), 3, 2)
        with pytest.raises(EncoderError):
            bilstm_forward([np.zeros((2, 5))], params)


class TestBiLstmBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(11)
        params = lstm_params(rng, 2, 3)
        x = rng.standard_normal((4, 2))
        (out,), cache = bilstm_forward([x], params)
        grads = gradient_arrays(params)
        dx = bilstm_backward(cache, np.zeros_like(out), grads)
        assert np.allclose(dx, 0.0)
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_a_gradient_of_the_wrong_shape_is_refused(self):
        rng = np.random.default_rng(11)
        params = lstm_params(rng, 2, 3)
        _, cache = bilstm_forward([rng.standard_normal((4, 2))], params)
        for shape in ((4, 3), (3, 6)):
            with pytest.raises(EncoderError) as info:
                bilstm_backward(cache, np.zeros(shape), gradient_arrays(params))
            assert str(info.value) == f"grad shape {shape} does not match cache"

    def test_single_cell_hand_derivative(self):
        # h=1, n=1, forward direction only: dh/dwx via the closed form
        rng = np.random.default_rng(13)
        d, h = 1, 1
        params = lstm_params(rng, d, h)
        x = np.array([[0.7]])
        (out,), cache = bilstm_forward([x], params)
        grad_out = np.zeros((1, 2))
        grad_out[0, 0] = 1.0
        grads = gradient_arrays(params)
        bilstm_backward(cache, grad_out, grads)

        wx = params["lstm.fw.wx"][:, 0]
        b = params["lstm.fw.b"]
        z = wx * x[0, 0] + b

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        i, f, g, o = sig(z[0]), sig(z[1]), np.tanh(z[2]), sig(z[3])
        c = i * g  # c_prev = 0
        tc = np.tanh(c)
        # dh/dz for each gate, times x for the input weight
        dh_dz = np.array([
            o * (1 - tc**2) * g * i * (1 - i),
            0.0,  # forget gate sees c_prev = 0
            o * (1 - tc**2) * i * (1 - g**2),
            tc * o * (1 - o),
        ])
        assert np.allclose(grads["lstm.fw.wx"][:, 0], dh_dz * x[0, 0], atol=1e-12)
        assert np.allclose(grads["lstm.fw.b"], dh_dz, atol=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(17)
        for trial in range(22):
            d = int(rng.integers(1, 5))
            h = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            params = lstm_params(rng, d, h)
            x = rng.standard_normal((n, d))
            grad_out = rng.standard_normal((n, 2 * h))

            def loss():
                (out,), _ = bilstm_forward([x], params)
                return float((grad_out * out).sum())

            _, cache = bilstm_forward([x], params)
            grads = gradient_arrays(params)
            dx = bilstm_backward(cache, grad_out, grads)
            arrays = {"x": x, **params}
            fd = finite_difference(loss, arrays)
            assert max_rel_err(dx, fd["x"]) <= 1e-4, trial
            for key in params:
                assert max_rel_err(grads[key], fd[key]) <= 1e-4, (trial, key)


def by_direction(cache):
    """Each direction's name and its one-direction view of bilstm_forward's
    cache, with the gate-major (n, 4, 2, h) gates as (n, 4h) rows."""
    n, _, h = cache.h.shape
    for r, (d, x) in enumerate(zip(DIRECTIONS, (cache.x, cache.x[::-1]))):
        yield d, LstmDirection(x, cache.wx[r], cache.wh[r], cache.gates[:, :, r].reshape(n, 4 * h),
                               cache.c[:, r], cache.tanh_c[:, r], cache.h[:, r])


def reference_cache(cache):
    """The per-step reference's cache tuple holding one direction's states."""
    i, f, g, o = np.split(cache.gates, 4, axis=1)
    return (cache.x, cache.wx, cache.wh, i, f, g, o, cache.c, cache.tanh_c, cache.h)


@given(n=st.integers(1, 40), d=st.integers(1, 8), h=st.integers(1, 8),
       log_scale=st.floats(-3.0, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_hoisted_cell_loop_matches_the_per_step_reference(n, d, h, log_scale, seed):
    # The hoisted input projection sums in a different order than the per-step
    # matmul, so states differ by rounding. The forward is compared end to end;
    # each backward runs against the reference backward on the same states, so
    # that a state's rounding is not amplified by the gradient's sensitivity to it.
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale  # multiplies init draws: weights up to 1, forget bias up to 10
    params = {key: arr * scale
              for key, arr in init_params("bilstm-crf", d, k=1, hidden=h, rng=rng).items()
              if key.startswith("lstm.")}
    x = rng.standard_normal((n, d))
    grad_out = rng.standard_normal((n, 2 * h))
    (out,), cache = bilstm_forward([x], params)
    grads = gradient_arrays(params)
    dx = bilstm_backward(cache, grad_out, grads)

    def assert_close(got, ref):
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    ref_dx = np.zeros_like(x)
    views = dict(by_direction(cache))
    for name, inp, cols, rev in (("fw", x, slice(0, h), slice(None)),
                                 ("bw", x[::-1], slice(h, 2 * h), slice(None, None, -1))):
        wx, wh, b = (params[f"lstm.{name}.{p}"] for p in ("wx", "wh", "b"))
        ref_h, _ = reference_lstm_forward(inp, wx, wh, b)
        assert_close(out[:, cols], ref_h[rev])
        dx_dir, *ref_grads = reference_lstm_backward(reference_cache(views[name]),
                                                     grad_out[rev, cols])
        ref_dx += dx_dir[rev]
        for p, ref in zip(("wx", "wh", "b"), ref_grads):
            assert_close(grads[f"lstm.{name}.{p}"], ref)
    assert_close(dx, ref_dx)


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def assert_same_bits(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(bits(got), bits(ref))


# lengths 1-40, weighted towards 1-token sentences and towards repeats
LENGTHS = st.lists(st.one_of(st.just(1), st.integers(2, 4), st.integers(1, 40)),
                   min_size=1, max_size=12)


def random_lstm(rng, d, h, scale):
    """LSTM parameters of both directions, uniform in [-scale, scale]."""
    return {f"lstm.{name}.{p}": rng.uniform(-1.0, 1.0, shape) * scale
            for name in DIRECTIONS
            for p, shape in (("wx", (4 * h, d)), ("wh", (4 * h, h)), ("b", (4 * h,)))}


def reference_direction(params, x, name):
    """reference_lstm_kernel of one direction, which reads x reversed if it
    is the backward one."""
    inp = x if name == "fw" else x[::-1]
    return reference_lstm_kernel(inp, *(params[f"lstm.{name}.{p}"] for p in ("wx", "wh", "b")))


@given(lengths=LENGTHS, d=st.integers(1, 8), h=st.integers(1, 8),
       log_scale=st.floats(-3.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(lengths=[7] * 12, d=3, h=4, log_scale=0.0, seed=0)
@example(lengths=[1] * 12, d=3, h=4, log_scale=0.0, seed=0)
@example(lengths=[40, 1, 1, 17, 17, 1, 40], d=8, h=8, log_scale=1.0, seed=1)
@example(lengths=[1], d=3, h=4, log_scale=0.0, seed=2)
@example(lengths=[40], d=8, h=8, log_scale=1.0, seed=3)
@example(lengths=[40], d=8, h=1, log_scale=1.0, seed=3)
@settings(max_examples=200, deadline=None)
def test_batched_kernel_matches_the_single_sentence_kernel_bit_for_bit(lengths, d, h, log_scale,
                                                                       seed):
    # every (sentence, direction) row of the loop against one direction of
    # one sentence alone; the bw columns hold the bw states in token order
    rng = np.random.default_rng(seed)
    params = random_lstm(rng, d, h, 10.0 ** log_scale)
    xs = [rng.standard_normal((n, d)) for n in lengths]
    states, cache = bilstm_forward(xs, params)
    refs = [[reference_direction(params, x, name) for name in DIRECTIONS] for x in xs]
    assert len(states) == len(xs)
    for got, sentence_refs in zip(states, refs):
        assert got.shape == (len(sentence_refs[0][0]), 2 * h)
        for (ref, _), cols in zip(sentence_refs, (got[:, :h], got[::-1, h:])):
            assert_same_bits(cols, ref)
    if len(xs) > 1:
        assert cache is None
        return
    # one sentence: the cache bilstm_backward reads, row by row
    assert cache.x is xs[0]
    assert cache.gates.shape == (lengths[0], 4, 2, h)  # gate-major
    views = dict(by_direction(cache))
    for r, (name, (_, ref_cache)) in enumerate(zip(DIRECTIONS, refs[0])):
        assert cache.wx[r] is params[f"lstm.{name}.wx"]
        assert_same_bits(cache.wh[r], params[f"lstm.{name}.wh"])
        for field in ("gates", "c", "tanh_c", "h"):
            assert_same_bits(getattr(views[name], field), getattr(ref_cache, field))


@given(n=st.integers(1, 40), d=st.integers(1, 8), h=st.integers(1, 8),
       log_scale=st.floats(-3.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=1, d=1, h=1, log_scale=0.0, seed=0)
@example(n=40, d=8, h=1, log_scale=1.0, seed=1)
@example(n=40, d=8, h=8, log_scale=-3.0, seed=2)
@settings(max_examples=200, deadline=None)
def test_two_row_backward_matches_the_one_direction_kernel_bit_for_bit(n, d, h, log_scale, seed):
    # each direction against the kernel given its columns of grad_out in its
    # own step order: the bw columns reversed
    rng = np.random.default_rng(seed)
    params = random_lstm(rng, d, h, 10.0 ** log_scale)
    x = rng.standard_normal((n, d))
    grad_out = rng.standard_normal((n, 2 * h))
    _, cache = bilstm_forward([x], params)
    grads = gradient_arrays(params)
    dx = bilstm_backward(cache, grad_out, grads)
    assert_written(grads, {f"lstm.{name}.{p}" for name in DIRECTIONS for p in ("wx", "wh", "b")})
    ref_dx = []
    for name, grad_h in zip(DIRECTIONS, (grad_out[:, :h], grad_out[::-1, h:])):
        _, ref_cache = reference_direction(params, x, name)
        dx_dir, *ref_grads = reference_lstm_backward_kernel(ref_cache, grad_h)
        ref_dx.append(dx_dir)
        for p, ref in zip(("wx", "wh", "b"), ref_grads):
            assert_same_bits(grads[f"lstm.{name}.{p}"], ref)
    assert_same_bits(dx, ref_dx[0] + ref_dx[1][::-1])


def test_batched_kernel_takes_an_empty_batch_and_rejects_an_empty_sentence():
    rng = np.random.default_rng(2)
    params = lstm_params(rng, 3, 2)
    assert bilstm_forward([], params) == ([], None)
    assert emissions_forward("bilstm-crf", params, []) == ([], None)
    empty = np.zeros((0, 3))
    messages = []
    for call in (lambda: bilstm_forward([empty], params),
                 lambda: bilstm_forward([rng.standard_normal((2, 3)), empty], params)):
        with pytest.raises(EncoderError) as info:
            call()
        messages.append(str(info.value))
    assert messages == ["input must be (n, d) with n >= 1, got (0, 3)"] * 2


@pytest.mark.parametrize("arch", ARCHITECTURES)
@given(lengths=LENGTHS | st.just([]), d=st.integers(1, 8), h=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
@example(lengths=[], d=3, h=4, seed=0)
@example(lengths=[4, 1, 7, 4, 2], d=3, h=4, seed=4)
@settings(max_examples=100, deadline=None)
def test_emissions_forward_of_a_list_is_emissions_forward_of_each_sentence(arch, lengths, d, h,
                                                                          seed):
    rng = np.random.default_rng(seed)
    params = init_params(arch, d, k=5, hidden=h, fc_size=h + 2, rng=rng)
    # init_params starts the output biases at zero, where a dropped or doubled
    # bias add would go unseen: every bias is drawn nonzero
    for key, array in params.items():
        if array.ndim == 1:
            params[key] = rng.uniform(0.5, 1.5, array.shape) * rng.choice([-1.0, 1.0], array.shape)
    xs = [rng.standard_normal((n, d)) for n in lengths]
    scores, cache = emissions_forward(arch, params, xs)
    assert len(scores) == len(xs)
    assert (cache is None) == (len(xs) != 1)
    for got, x in zip(scores, xs):
        (ref,), _ = emissions_forward(arch, params, [x])
        assert_same_bits(got, ref)
        if arch == "linear":
            alone = fc_head_forward(x, params)[0]
        else:
            alone = project(bilstm_forward([x], params)[0][0] if arch == "bilstm-crf" else x,
                            params)
        assert_same_bits(got, alone)


class TestProject:
    def test_zero_params(self):
        params = {"proj.w": np.zeros((3, 4)), "proj.b": np.zeros(3)}
        assert np.allclose(project(np.ones((2, 4)), params), 0.0)

    def test_identity_weight(self):
        params = {"proj.w": np.eye(3), "proj.b": np.zeros(3)}
        feats = np.random.default_rng(0).standard_normal((4, 3))
        assert np.allclose(project(feats, params), feats)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(19)
        feats = rng.standard_normal((5, 6))
        params = {"proj.w": rng.standard_normal((3, 6)), "proj.b": rng.standard_normal(3)}
        got = project(feats, params)
        naive = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                naive[i, j] = params["proj.b"][j]
                for l in range(6):
                    naive[i, j] += params["proj.w"][j, l] * feats[i, l]
        assert np.allclose(got, naive, atol=1e-12)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(23)
        feats = rng.standard_normal((4, 3))
        params = {"proj.w": rng.standard_normal((2, 3)), "proj.b": rng.standard_normal(2)}
        grad_scores = rng.standard_normal((4, 2))

        def loss():
            return float((grad_scores * project(feats, params)).sum())

        _, cache = emissions_forward("crf", params, [feats])
        grads = gradient_arrays(params)
        dfeats = emissions_backward(params, cache, grad_scores, grads)
        fd = finite_difference(loss, {"feats": feats, **params})
        assert max_rel_err(dfeats, fd["feats"]) <= 1e-6
        assert max_rel_err(grads["proj.w"], fd["proj.w"]) <= 1e-6
        assert max_rel_err(grads["proj.b"], fd["proj.b"]) <= 1e-6


class TestFcHead:
    def test_zero_params_uniform(self):
        params = init_params("linear", 3, k=5, fc_size=8, rng=np.random.default_rng(0))
        params = {k: np.zeros_like(v) for k, v in params.items()}
        log_probs, _ = fc_head_forward(np.random.default_rng(1).standard_normal((4, 3)), params)
        assert np.allclose(np.exp(log_probs), 0.2, atol=1e-12)

    def test_eval_deterministic_under_dropout(self):
        rng = np.random.default_rng(29)
        params = init_params("linear", 3, k=4, fc_size=8, rng=rng)
        x = rng.standard_normal((5, 3))
        one, _ = fc_head_forward(x, params, rng=np.random.default_rng(1))
        two, _ = fc_head_forward(x, params, rng=np.random.default_rng(2))
        assert np.array_equal(one, two)
        dropped, _ = fc_head_forward(x, params, dropout=0.5, rng=np.random.default_rng(1))
        assert not np.array_equal(one, dropped)  # a rate is training mode

    def test_rows_sum_to_one_and_match_naive(self):
        rng = np.random.default_rng(31)
        params = {
            "fc.w1": rng.standard_normal((6, 3)), "fc.b1": rng.standard_normal(6),
            "fc.w2": rng.standard_normal((4, 6)), "fc.b2": rng.standard_normal(4),
        }
        x = rng.standard_normal((5, 3))
        log_probs, _ = fc_head_forward(x, params)
        probs = np.exp(log_probs)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        for i in range(5):
            z1 = params["fc.w1"] @ x[i] + params["fc.b1"]
            a = np.maximum(z1, 0.0)
            z2 = params["fc.w2"] @ a + params["fc.b2"]
            ref = np.exp(z2) / np.exp(z2).sum()
            assert np.allclose(probs[i], ref, atol=1e-10)


class TestCrossEntropy:
    def test_perfect_predictions_zero_loss(self):
        rng = np.random.default_rng(37)
        params = {
            "fc.w1": rng.standard_normal((4, 2)), "fc.b1": np.zeros(4),
            "fc.w2": np.zeros((3, 4)), "fc.b2": np.array([40.0, -40.0, -40.0]),
        }
        x = rng.standard_normal((3, 2))
        log_probs, _ = fc_head_forward(x, params)
        loss, _ = cross_entropy_and_grads(log_probs, [0, 0, 0])
        assert loss < 1e-8

    def test_uniform_predictions_log_k(self):
        k = 5
        params = {"fc.w1": np.zeros((4, 2)), "fc.b1": np.zeros(4),
                  "fc.w2": np.zeros((k, 4)), "fc.b2": np.zeros(k)}
        x = np.ones((2, 2))
        log_probs, _ = fc_head_forward(x, params)
        loss, _ = cross_entropy_and_grads(log_probs, [1, 3])
        assert loss == pytest.approx(np.log(k), abs=1e-12)

    def _fd_instance(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        fc = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        params = {
            "fc.w1": rng.uniform(-0.9, 0.9, (fc, d)), "fc.b1": rng.uniform(-0.5, 0.5, fc),
            "fc.w2": rng.uniform(-0.9, 0.9, (k, fc)), "fc.b2": rng.uniform(-0.5, 0.5, k),
        }
        x = rng.standard_normal((n, d))
        gold = [int(rng.integers(k)) for _ in range(n)]
        return params, x, gold

    def test_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 22:
            seed += 1
            params, x, gold = self._fd_instance(seed)
            (log_probs,), cache = emissions_forward("linear", params, [x])
            if np.min(np.abs(cache.z1)) < 1e-3:
                continue  # keep finite differences away from the relu kink
            checked += 1

            def loss():
                (log_probs,), _ = emissions_forward("linear", params, [x])
                return -float(log_probs[np.arange(len(gold)), gold].mean())

            _, d_logits = cross_entropy_and_grads(log_probs, gold)
            grads = gradient_arrays(params)
            dx = emissions_backward(params, cache, d_logits, grads)
            fd = finite_difference(loss, {"x": x, **params})
            assert max_rel_err(dx, fd["x"]) <= 1e-4, seed
            for key in params:
                assert max_rel_err(grads[key], fd[key]) <= 1e-4, (seed, key)

    def test_shape_errors(self):
        params = init_params("linear", 3, k=2, fc_size=4, rng=np.random.default_rng(0))
        log_probs, _ = fc_head_forward(np.zeros((2, 3)), params)
        with pytest.raises(EncoderError):
            cross_entropy_and_grads(log_probs, [0])
        with pytest.raises(EncoderError):
            cross_entropy_and_grads(log_probs, [0, 5])

    def test_tag_indices_must_be_integers(self):
        # truncated, 1.5 would be tag 1, and training would fit it
        log_probs = np.log(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(EncoderError, match=r"tag index 1\.5 is not an integer"):
            cross_entropy_and_grads(log_probs, [0, 1.5])
        expected = cross_entropy_and_grads(log_probs, [0, 2])
        got = cross_entropy_and_grads(log_probs, np.array([0, 2], dtype=np.int16))
        assert got[0] == expected[0] and np.array_equal(got[1], expected[1])

    def test_a_sentence_without_tokens_is_refused(self):
        # as the CRF heads' _check refuses n = 0, rather than a nan mean loss
        with pytest.raises(EncoderError, match=r"^log-probabilities must be \(n, k\) with "
                                               r"n >= 1, got \(0, 3\)$"):
            cross_entropy_and_grads(np.zeros((0, 3)), [])

    def test_gold_that_is_no_sequence_is_refused(self):
        log_probs = np.log(np.full((1, 3), 1.0 / 3.0))
        with pytest.raises(EncoderError, match="^tag indices must be a sequence, not int$"):
            cross_entropy_and_grads(log_probs, 2)


class TestArchitectureAssembly:
    def test_init_shapes(self):
        rng = np.random.default_rng(41)
        params = init_params("bilstm-crf", dim=3, k=5, hidden=2, rng=rng)
        assert params["lstm.fw.wx"].shape == (8, 3)
        assert params["proj.w"].shape == (5, 4)
        assert params["crf.trans"].shape == (7, 7)
        params = init_params("linear", dim=3, k=5, fc_size=6, vocab_size=9, rng=rng)
        assert params["fc.w1"].shape == (6, 3)
        assert params["embed.table"].shape == (9, 3)
        assert "crf.trans" not in params

    def test_unknown_arch(self):
        with pytest.raises(EncoderError):
            init_params("transformer", dim=2, k=3, rng=np.random.default_rng(0))

    def test_emission_paths_backward(self):
        rng = np.random.default_rng(43)
        for arch, size in (("crf", 1), ("bilstm-crf", 3), ("linear", 3)):
            params = init_params(arch, dim=4, k=3, hidden=size, fc_size=size, rng=rng)
            for key, arr in params.items():
                if key != "crf.trans":
                    params[key] = rng.uniform(-0.7, 0.7, arr.shape)
            x = rng.standard_normal((4, 4))
            grad_scores = rng.standard_normal((4, 3))
            if arch == "linear":  # the linear head's backward takes the gradient at the
                # logits; rows summing to zero make it equal the one at the log-probs
                grad_scores -= grad_scores.mean(axis=1, keepdims=True)

            def loss():
                (scores,), _ = emissions_forward(arch, params, [x])
                return float((grad_scores * scores).sum())

            _, cache = emissions_forward(arch, params, [x])
            grads = gradient_arrays(params)
            dx = emissions_backward(params, cache, grad_scores, grads)
            arrays = {"x": x, **{k: v for k, v in params.items() if k != "crf.trans"}}
            assert_written(grads, set(arrays))
            fd = finite_difference(loss, arrays)
            assert max_rel_err(dx, fd["x"]) <= 1e-4, arch
            for key in arrays:
                if key == "x":
                    continue
                assert max_rel_err(grads[key], fd[key]) <= 1e-4, (arch, key)

    def test_eval_forward_pure(self):
        rng = np.random.default_rng(47)
        params = init_params("bilstm-crf", dim=2, k=3, hidden=2, rng=rng)
        x = rng.standard_normal((3, 2))
        (one,), _ = emissions_forward("bilstm-crf", params, [x])
        (two,), _ = emissions_forward("bilstm-crf", params, [x])
        assert np.array_equal(one, two)

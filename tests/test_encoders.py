import numpy as np
import pytest

from nerchain.conll_io import EmbeddingError, EmbeddingSet, Sentence, TokenVocabulary
from nerchain.encoders import (
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
    project_backward,
)

from oracles import finite_difference, max_rel_err, scalar_bilstm

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
        source, matrix = self.make_ingested()
        x, _ = embed(SENT, source, dropout=0.5, rng=np.random.default_rng(1), train=False)
        assert np.array_equal(x, matrix)

    def test_train_dropout_scales(self):
        source, matrix = self.make_ingested()
        x, cache = embed(SENT, source, dropout=0.5, rng=np.random.default_rng(1), train=True)
        kept = x != 0.0
        assert np.allclose(x[kept], 2.0 * matrix[kept])
        assert cache.mask is not None

    def test_missing_sentence_id(self):
        source, _ = self.make_ingested()
        with pytest.raises(EmbeddingError, match="s9"):
            embed(Sentence("s9", ("x",)), source)

    def test_width_and_gradient_follow_the_source_data(self):
        ingested, _ = self.make_ingested()
        table = trainable(TokenVocabulary(["a", "b"]), 3, np.random.default_rng(7))
        assert (ingested.dim, table.dim) == (4, 3)
        x, cache = embed(SENT, ingested)
        assert embed_backward(cache, np.ones_like(x)) == {}
        x, cache = embed(SENT, table)
        assert sorted(embed_backward(cache, np.ones_like(x))) == ["embed.table"]

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
        grads = embed_backward(cache, np.ones_like(x))
        table_grad = grads["embed.table"]
        assert np.allclose(table_grad[vocab.lookup("a")], [2.0, 2.0])
        assert np.allclose(table_grad[vocab.lookup("b")], [1.0, 1.0])
        assert np.allclose(table_grad[0], 0.0)


class TestBiLstmForward:
    def test_zero_network_outputs_zero(self):
        d, h = 3, 2
        params = {k: np.zeros_like(v)
                  for k, v in lstm_params(np.random.default_rng(0), d, h).items()}
        out, _ = bilstm_forward(np.random.default_rng(1).standard_normal((4, d)), params)
        assert np.allclose(out, 0.0)

    def test_length_one_is_two_single_cells(self):
        rng = np.random.default_rng(3)
        d, h = 2, 2
        params = lstm_params(rng, d, h)
        x = rng.standard_normal((1, d))
        out, _ = bilstm_forward(x, params)
        fwd, _ = bilstm_forward(x, {**params,
                                    "lstm.bw.wx": params["lstm.fw.wx"],
                                    "lstm.bw.wh": params["lstm.fw.wh"],
                                    "lstm.bw.b": params["lstm.fw.b"]})
        assert np.allclose(out[:, :h], fwd[:, :h])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        d, h = 2, 2
        params = lstm_params(rng, d, h)
        x = rng.standard_normal((3, d))
        out, _ = bilstm_forward(x, params)
        ref = scalar_bilstm(x, params["lstm.fw.wx"], params["lstm.fw.wh"], params["lstm.fw.b"],
                            params["lstm.bw.wx"], params["lstm.bw.wh"], params["lstm.bw.b"])
        assert np.allclose(out, ref, atol=1e-10)

    def test_direction_symmetry(self):
        rng = np.random.default_rng(9)
        d, h = 3, 4
        params = lstm_params(rng, d, h)
        x = rng.standard_normal((5, d))
        out, _ = bilstm_forward(x, params)
        swapped = {
            "lstm.fw.wx": params["lstm.bw.wx"], "lstm.fw.wh": params["lstm.bw.wh"],
            "lstm.fw.b": params["lstm.bw.b"], "lstm.bw.wx": params["lstm.fw.wx"],
            "lstm.bw.wh": params["lstm.fw.wh"], "lstm.bw.b": params["lstm.fw.b"],
        }
        out2, _ = bilstm_forward(x[::-1], swapped)
        assert np.allclose(out2[:, :h], out[::-1, h:], atol=1e-12)
        assert np.allclose(out2[:, h:], out[::-1, :h], atol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        params = init_params("bilstm-crf", 3, k=1, hidden=4, rng=np.random.default_rng(0))
        assert np.all(params["lstm.fw.b"][4:8] == 1.0)
        assert np.all(params["lstm.fw.b"][:4] == 0.0)

    def test_shape_mismatch(self):
        params = lstm_params(np.random.default_rng(0), 3, 2)
        with pytest.raises(EncoderError):
            bilstm_forward(np.zeros((2, 5)), params)


class TestBiLstmBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(11)
        params = lstm_params(rng, 2, 3)
        x = rng.standard_normal((4, 2))
        out, cache = bilstm_forward(x, params)
        dx, grads = bilstm_backward(cache, np.zeros_like(out))
        assert np.allclose(dx, 0.0)
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_single_cell_hand_derivative(self):
        # h=1, n=1, forward direction only: dh/dwx via the closed form
        rng = np.random.default_rng(13)
        d, h = 1, 1
        params = lstm_params(rng, d, h)
        x = np.array([[0.7]])
        out, cache = bilstm_forward(x, params)
        grad_out = np.zeros((1, 2))
        grad_out[0, 0] = 1.0
        _, grads = bilstm_backward(cache, grad_out)

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
                out, _ = bilstm_forward(x, params)
                return float((grad_out * out).sum())

            _, cache = bilstm_forward(x, params)
            dx, grads = bilstm_backward(cache, grad_out)
            arrays = {"x": x, **params}
            fd = finite_difference(loss, arrays)
            assert max_rel_err(dx, fd["x"]) <= 1e-4, trial
            for key in params:
                assert max_rel_err(grads[key], fd[key]) <= 1e-4, (trial, key)


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

        dfeats, grads = project_backward(feats, params, grad_scores)
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
        one, _ = fc_head_forward(x, params, dropout=0.5, rng=np.random.default_rng(1))
        two, _ = fc_head_forward(x, params, dropout=0.5, rng=np.random.default_rng(2))
        assert np.array_equal(one, two)

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
            log_probs, cache = emissions_forward("linear", params, x)
            if np.min(np.abs(cache.z1)) < 1e-3:
                continue  # keep finite differences away from the relu kink
            checked += 1

            def loss():
                log_probs, _ = emissions_forward("linear", params, x)
                return -float(log_probs[np.arange(len(gold)), gold].mean())

            _, d_logits = cross_entropy_and_grads(log_probs, gold)
            dx, grads = emissions_backward(params, cache, d_logits)
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
                scores, _ = emissions_forward(arch, params, x)
                return float((grad_scores * scores).sum())

            _, cache = emissions_forward(arch, params, x)
            dx, grads = emissions_backward(params, cache, grad_scores)
            arrays = {"x": x, **{k: v for k, v in params.items() if k != "crf.trans"}}
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
        one, _ = emissions_forward("bilstm-crf", params, x)
        two, _ = emissions_forward("bilstm-crf", params, x)
        assert np.array_equal(one, two)

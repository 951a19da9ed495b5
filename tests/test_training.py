import dataclasses
import functools
import hashlib
import io
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nerchain import conll_io, crf, encoders, training
from nerchain.conll_io import Corpus, EmbeddingSet, Sentence, TokenVocabulary
from nerchain.crf import NonFiniteScoreError
from nerchain.encoders import ARCHITECTURES, init_params, param_shapes
from nerchain.metrics import MetricsReport, score
from nerchain.tagscheme import EntityTypeSet, count_invalid_transitions, expand_bio
from nerchain.training import (
    Checkpoint,
    CheckpointError,
    LayoutError,
    LrSchedule,
    NonFiniteError,
    TrainConfig,
    TrainingError,
    adam_step,
    clip_global_norm,
    ensure_compatible,
    init_adam,
    load_checkpoint,
    lr_at,
    predict_with_checkpoint,
    save_checkpoint,
    train,
)

from oracles import (
    ReferenceAdam,
    assert_written,
    markov_cycle_corpus,
    random_corpus,
    reference_clip_global_norm,
    reference_lstm_backward_kernel,
    reference_lstm_kernel,
    reference_nll_gradients,
    reference_viterbi,
    resealed,
    scalar_adam,
)

VOC = expand_bio(EntityTypeSet())


def tiny_corpus(voc=VOC):
    def sent(i, tokens, names):
        return Sentence(f"s{i}", tuple(tokens), tuple(voc.index(n) for n in names))

    return Corpus((
        sent(0, ("John", "lives", "in", "New", "York"), ("B-PER", "O", "O", "B-LOC", "I-LOC")),
        sent(1, ("Acme", "Corp", "ships", "Widget"), ("B-CORP", "I-CORP", "O", "B-PROD")),
        sent(2, ("nothing", "here"), ("O", "O")),
    ), voc)


def count_calls(monkeypatch, module, names) -> dict:
    """Patches each named function of module to count its calls; returns the counts."""
    calls = dict.fromkeys(names, 0)

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = {"w": np.array([1.0, -2.0]), "b": np.array([[0.5]])}
        state = init_adam(params)
        assert list(state.grads) == ["b", "w"]
        for key, grad in state.grads.items():
            assert grad.shape == params[key].shape
            grad[...] = 0.0
        before = {k: v.copy() for k, v in params.items()}
        adam_step(state, 0.1)
        assert state.step == 1
        for key in params:
            assert np.array_equal(params[key], before[key])

    def test_first_step_moves_by_lr(self):
        params = {"w": np.array([0.0])}
        state = init_adam(params)
        state.grads["w"][...] = 1.0
        adam_step(state, 0.05)
        assert params["w"][0] == pytest.approx(-0.05, rel=1e-6)

    def test_ten_steps_quadratic_matches_scalar_reference(self):
        params = {"theta": np.array([1.0])}
        state = init_adam(params)
        for _ in range(10):
            state.grads["theta"][...] = 2.0 * params["theta"]
            adam_step(state, 0.1)
        expected = scalar_adam(lambda t: 2.0 * t, 1.0, 0.1, 10)
        assert params["theta"][0] == pytest.approx(expected, abs=1e-12)

    def test_non_finite_gradient_names_tensor(self):
        params = {"proj.w": np.zeros(2), "a": np.zeros(1), "z": np.zeros(1)}
        state = init_adam(params)
        state.grads["proj.w"][0] = np.nan
        state.grads["z"][0] = np.inf
        with pytest.raises(NonFiniteError, match=r"^non-finite gradient in 'proj.w'$"):
            adam_step(state, 0.1)

    def test_clip_global_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(grads, 5.0)
        assert norm == pytest.approx(5.0)
        assert grads["a"][0] == pytest.approx(3.0)
        grads = {"a": np.array([30.0]), "b": np.array([40.0])}
        clip_global_norm(grads, 5.0)
        assert np.hypot(grads["a"][0], grads["b"][0]) == pytest.approx(5.0)


# magnitudes 1e-300 to 1e300: squares from underflow to overflow
_ENTRIES = st.lists(st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                              st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)),
                    min_size=1, max_size=5)


@given(arrays=st.lists(_ENTRIES, min_size=1, max_size=4))
@example(arrays=[[1e200, 1e200], [3.0]])
@example(arrays=[[1e-300], [1e300, -1e300, 1e160]])
@settings(max_examples=200, deadline=None)
def test_clip_global_norm_agrees_with_hypot_at_any_magnitude(arrays):
    grads = {f"g{i}": np.array(entries) for i, entries in enumerate(arrays)}
    ref = math.hypot(*(v for entries in arrays for v in entries))
    with np.errstate(over="ignore"):  # as in train()
        norm = clip_global_norm(grads, 5.0)
    if ref > 1e-100:  # below, squares underflow; the norm is far under any clip
        assert norm == pytest.approx(ref, rel=1e-12)
    scale = min(1.0, 5.0 / ref)
    for i, entries in enumerate(arrays):
        assert np.allclose(grads[f"g{i}"], np.array(entries) * scale, rtol=1e-12,
                           atol=np.finfo(float).tiny), i


def bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


def assert_array_bits(got, ref):
    assert got.shape == ref.shape
    assert np.array_equal(bits(got), bits(ref))


# 1-6 arrays: vectors and matrices with 1-5 entries a side, under names
# whose insertion order differs from their sorted order
_SHAPES = st.one_of(st.tuples(st.integers(1, 5)), st.tuples(st.integers(1, 5), st.integers(1, 5)))
_LAYOUTS = st.dictionaries(st.text("ab.z", min_size=1, max_size=3), _SHAPES, min_size=1,
                           max_size=6)
# per step, a gradient scale; 10**-3 never reaches the clip norm, 10**1.5 always does
_SCALES = st.lists(st.floats(-3.0, 1.5), min_size=1, max_size=20)
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@given(layout=_LAYOUTS, log_scales=_SCALES, seed=st.integers(0, 2**32 - 1),
       poison=st.none() | st.tuples(st.integers(0, 19), st.lists(
           st.tuples(st.integers(0, 5), _NON_FINITE), min_size=1, max_size=3)))
@example(layout={"b": (3,), "a": (4, 2)}, log_scales=[-3.0, 1.5, -3.0, 1.5], seed=0, poison=None)
@example(layout={"z": (2, 2), "a.b": (5,), "b": (1,)}, log_scales=[1.5] * 20, seed=1,
         poison=None)
@example(layout={"z": (3, 4), "a": (2,)}, log_scales=[0.0, 0.0], seed=2,
         poison=(1, [(0, np.inf), (1, np.nan)]))
@settings(max_examples=200, deadline=None)
def test_one_vector_adam_step_matches_the_per_array_reference_bit_for_bit(layout, log_scales,
                                                                          seed, poison):
    rng = np.random.default_rng(seed)
    params = {key: rng.uniform(-1.0, 1.0, shape) for key, shape in layout.items()}
    expected = {key: p.copy() for key, p in params.items()}
    reference = ReferenceAdam(expected)
    state = init_adam(params)
    keys = list(layout)
    # the views in layout order, not sorted: each clip sums the dict it is given in its order
    grads = {key: state.grads[key] for key in keys}
    with np.errstate(over="ignore", invalid="ignore"):  # as in train()
        for step, log_scale in enumerate(log_scales):
            lr = rng.uniform(1e-6, 1e-1)
            for key, shape in layout.items():
                grads[key][...] = rng.standard_normal(shape) * 10.0 ** log_scale
            for g in grads.values():  # rows of a table that no token of a sentence reached
                if g.ndim == 2:
                    g[rng.random(len(g)) < 0.5] = 0.0
            if poison is not None and poison[0] == step:
                for index, value in poison[1]:
                    grads[keys[index % len(keys)]].flat[0] = value
            ref_grads = {key: g.copy() for key, g in grads.items()}
            norm = clip_global_norm(grads)
            assert bits(norm) == bits(reference_clip_global_norm(ref_grads, 5.0))
            try:
                reference.update(expected, ref_grads, lr)
            except ValueError as exc:
                with pytest.raises(NonFiniteError) as raised:
                    adam_step(state, lr)
                assert str(raised.value) == str(exc)
                return
            adam_step(state, lr)
            assert state.step == reference.step
            for key in layout:
                assert_array_bits(params[key], expected[key])
            for flat, per_key in ((state.m, reference.m), (state.v, reference.v)):
                assert_array_bits(flat, np.concatenate([per_key[k].ravel()
                                                        for k in sorted(per_key)]))
    assert poison is None or poison[0] >= len(log_scales)  # a poisoned step returns above


@pytest.mark.parametrize("arch, table", [("crf", False), ("crf", True), ("bilstm-crf", True),
                                         ("linear", True)])
def test_one_training_step_writes_every_gradient_view(arch, table):
    # a view that no backward pass writes would keep what adam_step left in it
    rng = np.random.default_rng(8)
    sent = tiny_corpus().sentences[0]
    vocab = TokenVocabulary(sent.tokens[:3]) if table else None
    params = init_params(arch, 4, VOC.k, hidden=3, fc_size=5,
                         vocab_size=len(vocab) if table else None, rng=rng)
    state = init_adam(params)
    if table:
        source = encoders.EmbeddingSource(table=params["embed.table"], token_vocab=vocab)
    else:
        matrix = rng.standard_normal((len(sent), 4))
        source = encoders.EmbeddingSource(EmbeddingSet(4, {sent.id: matrix}))
    state.grad[...] = np.nan
    x, cache = encoders.embed(sent, source, 0.3, rng)
    loss = training._loss_and_grads(arch, params, x, sent.gold_tags, cache, 0.3, rng,
                                    state.grads)
    assert math.isfinite(loss)
    assert_written(state.grads, set(state.grads))


class TestLrSchedule:
    def test_phase_origin_peak_and_period(self):
        sched = LrSchedule(1e-6, 1e-4, 100)
        assert lr_at(sched, 0) == pytest.approx(1e-6)
        assert lr_at(sched, 50) == pytest.approx(1e-4)
        assert lr_at(sched, 100) == pytest.approx(1e-6)
        assert lr_at(sched, 25) == pytest.approx((1e-6 + 1e-4) / 2)

    def test_periodic_and_bounded(self):
        sched = LrSchedule(1e-5, 1e-3, 14)
        for step in range(40):
            lr = lr_at(sched, step)
            assert sched.lr_min <= lr <= sched.lr_max
            assert lr == pytest.approx(lr_at(sched, step + 14))

    def test_validation(self):
        with pytest.raises(TrainingError):
            LrSchedule(1e-3, 1e-4, 10)
        with pytest.raises(TrainingError):
            LrSchedule(0.0, 1e-4, 10)
        with pytest.raises(TrainingError):
            LrSchedule(1e-5, 1e-4, 1)
        with pytest.raises(TrainingError):
            lr_at(LrSchedule(1e-5, 1e-4, 10), -1)

    def test_constant_when_min_equals_max(self):
        sched = LrSchedule(0.01, 0.01, 8)
        assert all(lr_at(sched, s) == 0.01 for s in range(20))


class TestTrainConfig:
    def test_defaults_trace_documented_values(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.hidden, cfg.fc_size) == (10, 256, 512)
        assert (cfg.lr_min, cfg.lr_max) == (1e-6, 1e-4)
        assert cfg.dropout == 0.3

    def test_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(arch="gru")
        with pytest.raises(TrainingError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainConfig(dropout=1.0)


class TestTrain:
    def overfit(self, arch="crf", epochs=40, **kwargs):
        corpus = Corpus(tiny_corpus().sentences[:1], VOC)
        cfg = TrainConfig(arch=arch, epochs=epochs, dropout=0.0, lr_min=0.1, lr_max=0.1,
                          cycle_length=2, seed=1, dim=8, **kwargs)
        return corpus, *train(corpus, corpus, cfg)

    def test_memorizes_one_sentence(self):
        corpus, checkpoint, history = self.overfit()
        assert history[-1].mean_nll < 0.01
        predictions = predict_with_checkpoint(checkpoint, corpus)
        assert tuple(predictions[0]) == corpus.sentences[0].gold_tags

    def test_nll_monotone_under_constant_small_lr(self):
        _, _, history = self.overfit(epochs=40)
        nlls = [h.mean_nll for h in history]
        for prev, cur in zip(nlls[5:], nlls[6:]):
            assert cur <= prev * 1.01

    def test_bit_identical_checkpoints(self, tmp_path):
        corpus = tiny_corpus()
        cfg = TrainConfig(arch="bilstm-crf", epochs=2, hidden=3, dropout=0.4,
                          seed=11, dim=6)
        digests = []
        for run in range(2):
            checkpoint, _ = train(corpus, corpus, cfg)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(checkpoint, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_different_seed_changes_checkpoint(self, tmp_path):
        corpus = tiny_corpus()
        outs = []
        for seed in (1, 2):
            cfg = TrainConfig(arch="crf", epochs=1, seed=seed, dim=4)
            checkpoint, _ = train(corpus, corpus, cfg)
            outs.append(checkpoint)
        assert outs[0] != outs[1]

    def test_ingested_embeddings_path(self):
        corpus = tiny_corpus()
        rng = np.random.default_rng(0)
        emb = EmbeddingSet(5, {s.id: rng.standard_normal((len(s), 5)) for s in corpus})
        cfg = TrainConfig(arch="crf", epochs=2, seed=3)
        checkpoint, history = train(corpus, corpus, cfg, emb)
        assert checkpoint.token_vocab is None
        assert checkpoint.dim == 5
        assert len(history) == 2
        predictions = predict_with_checkpoint(checkpoint, corpus, emb)
        assert len(predictions) == 3

    def test_linear_arch_trains_and_decodes_valid(self):
        corpus = tiny_corpus()
        cfg = TrainConfig(arch="linear", epochs=2, seed=5, dim=6, fc_size=8)
        checkpoint, _ = train(corpus, corpus, cfg)
        predictions = predict_with_checkpoint(checkpoint, corpus)
        for tags in predictions:
            assert count_invalid_transitions(VOC, tags) == 0

    def test_missing_embedding_coverage(self):
        corpus = tiny_corpus()
        emb = EmbeddingSet(4, {"s0": np.zeros((5, 4))})  # s1, s2 missing
        with pytest.raises(TrainingError, match="s1"):
            train(corpus, corpus, TrainConfig(epochs=1), emb)

    def test_unlabeled_corpus_rejected(self):
        bad = Corpus((Sentence("u0", ("a",)),), VOC)
        with pytest.raises(TrainingError, match="u0"):
            train(bad, bad, TrainConfig(epochs=1))

    def test_best_epoch_selected(self):
        corpus, checkpoint, history = self.overfit(epochs=12)
        best = max(history, key=lambda h: h.report.macro_f1)
        assert checkpoint.best_f1 == best.report.macro_f1
        assert checkpoint.best_epoch <= 12

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_history_carries_each_epochs_dev_report(self, arch):
        corpus = tiny_corpus()
        cfg = TrainConfig(arch=arch, epochs=3, hidden=3, fc_size=8, seed=4, dim=6)
        checkpoint, history = train(corpus, corpus, cfg)
        assert [h.epoch for h in history] == [1, 2, 3]
        for h in history:
            assert isinstance(h.report, MetricsReport)
            assert isinstance(h.report.invalid_transition_count, int)
            assert h.report.invalid_transition_count >= 0
        best = history[checkpoint.best_epoch - 1]
        assert checkpoint.best_f1 == best.report.macro_f1
        # the kept epoch's report is what decoding with the checkpoint gives
        predictions = predict_with_checkpoint(checkpoint, corpus)
        assert best.report == score(corpus, predictions)
        assert best.report.invalid_transition_count == sum(
            count_invalid_transitions(VOC, tags) for tags in predictions)

    def test_the_dev_corpus_computes_its_gold_spans_once(self, monkeypatch):
        # every epoch scores the dev corpus against gold spans that its first
        # score computed and the corpus kept
        corpus = tiny_corpus()
        passes = []
        real = conll_io.bio_pass
        monkeypatch.setattr(conll_io, "bio_pass",
                            lambda *args: passes.append(len(args[1])) or real(*args))
        _, history = train(corpus, corpus, TrainConfig(arch="crf", epochs=2, seed=3, dim=4))
        assert len(history) == 2
        assert passes == [sum(map(len, corpus))]

    def test_non_finite_gradient_names_epoch_and_sentence(self, monkeypatch):
        # only sentence s1's gradient goes non-finite, wherever the shuffle puts it
        real = training._loss_and_grads
        corpus = tiny_corpus()
        target = corpus.sentences[1]

        def nan_gradient(arch, params, x, gold, *args):
            loss = real(arch, params, x, gold, *args)
            if gold == target.gold_tags:
                args[-1]["crf.trans"][0, 0] = np.nan  # out, the gradient views
            return loss

        monkeypatch.setattr(training, "_loss_and_grads", nan_gradient)
        with pytest.raises(NonFiniteError) as raised:
            train(corpus, corpus, TrainConfig(epochs=1, dim=4))
        assert str(raised.value) == ("training diverged at epoch 1, sentence 's1': "
                                     "non-finite gradient in 'crf.trans'")

    def test_finite_gradients_past_the_float_range_are_clipped_not_zeroed(self):
        # embeddings of 1e200 give proj.w gradients whose squares overflow;
        # 1-token sentences keep the CRF's marginals exact at such scores
        names = ("B-PER", "B-LOC", "O")
        corpus = Corpus(tuple(Sentence(f"s{i}", (f"t{i}",), (VOC.index(names[i % 3]),))
                              for i in range(6)), VOC)
        signs = np.random.default_rng(0).choice([-1.0, 1.0], (len(corpus), 4))
        embeddings = EmbeddingSet(4, {s.id: 1e200 * row[None] for s, row in zip(corpus, signs)})
        config = TrainConfig(arch="crf", epochs=2, dim=4, seed=3)
        best, _ = train(corpus, corpus, config, embeddings)
        initial = init_params("crf", 4, VOC.k, rng=np.random.default_rng(config.seed))
        for key, value in initial.items():  # a zeroed gradient would leave them all
            assert not np.array_equal(best.params[key], value), key

    def test_crf_kernels_give_the_reference_checkpoint_bytes(self, monkeypatch):
        # DECODE_BATCH + 1 dev sentences decode as a batch of 32 and a batch of
        # one, so each epoch runs both Viterbi kernels; the tag cycle is learnt
        # within an epoch, so a wrong path in either batch changes the reports
        corpus = markov_cycle_corpus(np.random.default_rng(11), VOC, training.DECODE_BATCH + 1)
        cfg = TrainConfig(arch="crf", epochs=3, dropout=0.2, lr_min=1e-3, lr_max=1e-1, seed=7,
                          dim=6)
        calls = count_calls(monkeypatch, crf, ["_viterbi_one", "_viterbi_batch"])
        kernels, history = train(corpus, corpus, cfg)
        assert calls == {"_viterbi_one": 3, "_viterbi_batch": 3}
        monkeypatch.setattr(training, "nll_gradients",
                            lambda P, A, y: reference_nll_gradients(P, A.values, y))
        monkeypatch.setattr(training, "viterbi_decode",
                            lambda Ps, A, mask=None: [reference_viterbi(P, A.values, mask)
                                                      for P in Ps])
        reference, reference_history = train(corpus, corpus, cfg)
        assert reference == kernels  # same checkpoint bytes
        assert [h.report for h in reference_history] == [h.report for h in history]

    def test_bilstm_kernel_gives_the_reference_checkpoint_bytes(self, monkeypatch):
        # 40 dev sentences: each epoch decodes them in two length-sorted batches.
        # The reference runs every direction of every sentence alone, forward
        # and backward.
        corpus = random_corpus(np.random.default_rng(3), VOC, 40, max_len=12,
                               vocab=tuple("abcdefgh"))
        cfg = TrainConfig(arch="bilstm-crf", epochs=3, dropout=0.2, hidden=4, lr_min=1e-3,
                          lr_max=1e-1, seed=7, dim=6)
        kernel, history = train(corpus, corpus, cfg)

        def one_direction_at_a_time(xs, params):
            runs = [[reference_lstm_kernel(inp, *(params[f"lstm.{d}.{p}"]
                                                  for p in ("wx", "wh", "b")))
                     for d, inp in zip(encoders.DIRECTIONS, (x, x[::-1]))] for x in xs]
            states = [np.concatenate([fw, bw[::-1]], axis=1) for (fw, _), (bw, _) in runs]
            return states, [c for _, c in runs[0]] if len(xs) == 1 else None

        def one_direction_backward(rows, grad_out, out):
            h = grad_out.shape[1] // 2
            (dx_fw, *fw), (dx_bw, *bw) = (
                reference_lstm_backward_kernel(c, grad_h)
                for c, grad_h in zip(rows, (grad_out[:, :h], grad_out[::-1, h:])))
            for d, dir_grads in zip(encoders.DIRECTIONS, (fw, bw)):
                for p, grad in zip(("wx", "wh", "b"), dir_grads):
                    out[f"lstm.{d}.{p}"][...] = grad
            return dx_fw + dx_bw[::-1]

        monkeypatch.setattr(encoders, "bilstm_forward", one_direction_at_a_time)
        monkeypatch.setattr(encoders, "bilstm_backward", one_direction_backward)
        reference, reference_history = train(corpus, corpus, cfg)
        assert reference == kernel  # same checkpoint bytes
        assert [h.report for h in reference_history] == [h.report for h in history]

    def test_corpus_predictions_equal_one_sentence_calls(self):
        # more sentences than two batches hold, of lengths 1-40 in no order
        rng = np.random.default_rng(5)
        vocab = TokenVocabulary(list("abcdefgh"))
        corpus = random_corpus(rng, VOC, 2 * training.DECODE_BATCH + 5, max_len=40,
                               vocab=vocab.tokens)
        for arch in ARCHITECTURES:
            params = init_params(arch, dim=4, k=VOC.k, hidden=5, fc_size=6,
                                 vocab_size=len(vocab), rng=rng)
            for key, value in params.items():  # emissions large enough that the tags vary
                scale = 0.5 if key == "crf.trans" else 2.0
                params[key] = rng.uniform(-scale, scale, value.shape)
            checkpoint = Checkpoint(TrainConfig(arch=arch, hidden=5, fc_size=6, dim=4),
                                    tuple(VOC.entity_types.types), params, vocab)
            for constrained in (False, True):
                predictions = predict_with_checkpoint(checkpoint, corpus, constrained=constrained)
                assert predictions == [
                    predict_with_checkpoint(checkpoint, Corpus((s,), VOC),
                                            constrained=constrained)[0]
                    for s in corpus
                ], (arch, constrained)
                assert len({tag for tags in predictions for tag in tags}) > 3, arch

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_decoding_calls_each_layer_through_training_once_per_sentence_or_batch(
            self, arch, monkeypatch):
        # the bench tracer times these layers at training's bindings: a decode
        # that went around them would leave its spans empty
        rng = np.random.default_rng(13)
        vocab = TokenVocabulary(list("abcdefgh"))
        corpus = random_corpus(rng, VOC, 2 * training.DECODE_BATCH + 5, max_len=12,
                               vocab=vocab.tokens)
        params = init_params(arch, dim=4, k=VOC.k, hidden=5, fc_size=6,
                             vocab_size=len(vocab), rng=rng)
        checkpoint = Checkpoint(TrainConfig(arch=arch, hidden=5, fc_size=6, dim=4),
                                tuple(VOC.entity_types.types), params, vocab)
        calls = count_calls(monkeypatch, training, ["embed", "emissions_forward", "viterbi_decode"])
        predictions = predict_with_checkpoint(checkpoint, corpus)
        assert len(predictions) == len(corpus)
        assert calls == {"embed": len(corpus), "emissions_forward": 3, "viterbi_decode": 3}

    def test_an_empty_corpus_decodes_to_an_empty_list(self):
        rng = np.random.default_rng(8)
        vocab = TokenVocabulary(list("ab"))
        for arch in ARCHITECTURES:
            params = init_params(arch, dim=4, k=VOC.k, hidden=3, fc_size=5,
                                 vocab_size=len(vocab), rng=rng)
            checkpoint = Checkpoint(TrainConfig(arch=arch, hidden=3, fc_size=5, dim=4),
                                    tuple(VOC.entity_types.types), params, vocab)
            for constrained in (False, True):
                assert predict_with_checkpoint(checkpoint, Corpus((), VOC),
                                               constrained=constrained) == [], arch

    def test_a_layout_beyond_physical_memory_is_rejected_before_allocating(self, monkeypatch):
        # parameters, two Adam moments, gradient and scratch of 8-byte floats;
        # the bound is patched, and the allocation is simulated: it fails, as
        # one beyond the bound would
        allocations = []

        def no_memory(*args):
            allocations.append(args)
            raise MemoryError

        corpus = tiny_corpus()
        embeddings = EmbeddingSet(4, {s.id: np.ones((len(s), 4)) for s in corpus})
        cfg = TrainConfig(arch="bilstm-crf", epochs=1, hidden=5)
        floats = sum(math.prod(shape) for shape in param_shapes(
            "bilstm-crf", 4, VOC.k, cfg.hidden, cfg.fc_size).values())
        message = (f"cannot allocate the bilstm-crf layout (hidden=5, fc_size={cfg.fc_size}, "
                   f"dim=4): {floats} parameter floats, five times that with the optimizer state")
        monkeypatch.setattr(training, "init_params", no_memory)
        for memory, allocated in ((5 * 8 * floats - 1, 0), (5 * 8 * floats, 1)):
            monkeypatch.setattr(training, "physical_memory", lambda: memory)
            with pytest.raises(LayoutError) as raised:
                train(corpus, corpus, cfg, embeddings)
            assert str(raised.value) == message
            assert len(allocations) == allocated

    def test_a_failing_corpus_raises_its_first_failing_sentence_in_input_order(self):
        # decoded longest first, the overflowing sentence (30 tokens, first
        # batch) would fail before the nan one (one token, last batch)
        rng = np.random.default_rng(11)
        corpus = random_corpus(rng, VOC, 2 * training.DECODE_BATCH, min_len=2, max_len=20)
        matrices = {s.id: rng.uniform(-1.0, 1.0, (len(s), 1)) for s in corpus}
        overflow = Sentence("overflow", ("a",) * 30, (0,) * 30)
        not_finite = Sentence("nan", ("a",), (0,))
        matrices.update(overflow=np.full((30, 1), 1e307), nan=np.full((1, 1), np.nan))
        embeddings = EmbeddingSet(1, matrices)
        params = {"crf.trans": np.zeros((VOC.k + 2, VOC.k + 2)),
                  "proj.w": np.ones((VOC.k, 1)), "proj.b": np.zeros(VOC.k)}
        checkpoint = Checkpoint(TrainConfig(arch="crf"), tuple(VOC.entity_types.types), params)
        sentences = list(corpus.sentences)
        for first, second, message in (
                (overflow, not_finite, "sentence 'overflow': non-finite best path score inf"),
                (not_finite, overflow, "sentence 'nan': non-finite emission score")):
            failing = Corpus(tuple(sentences[:10] + [first] + sentences[10:] + [second]), VOC)
            with pytest.raises(NonFiniteScoreError) as raised:
                predict_with_checkpoint(checkpoint, failing, embeddings)
            assert str(raised.value) == message

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_an_overflowed_model_raises_its_crf_error_not_a_numpy_warning(self, arch):
        # every weight matrix at 1.7e308 overflows the matmuls; under the
        # repository's warning settings an escaped RuntimeWarning is an error
        corpus = tiny_corpus()
        embeddings = EmbeddingSet(2, {s.id: np.ones((len(s), 2)) for s in corpus})
        params = init_params(arch, 2, VOC.k, 2, 2, None, np.random.default_rng(0))
        for key, value in params.items():
            if key != "crf.trans" and value.ndim == 2:
                value[...] = 1.7e308
        config = TrainConfig(arch=arch, hidden=2, fc_size=2)
        checkpoint = Checkpoint(config, tuple(VOC.entity_types.types), params)
        with pytest.raises(NonFiniteScoreError) as raised:
            predict_with_checkpoint(checkpoint, corpus, embeddings)
        assert str(raised.value) == "sentence 's0': non-finite emission score"


def test_bilstm_decoding_memory_does_not_grow_with_the_corpus():
    # the LSTM buffers hold at most DECODE_BATCH sentences; what grows with the
    # corpus is the predictions alone, a few hundred bytes a sentence
    rng = np.random.default_rng(6)
    vocab = TokenVocabulary(list("abcdefgh"))
    corpus = random_corpus(rng, VOC, 2000, min_len=5, max_len=30, vocab=vocab.tokens)
    params = init_params("bilstm-crf", dim=16, k=VOC.k, hidden=64, vocab_size=len(vocab),
                         rng=rng)
    checkpoint = Checkpoint(TrainConfig(arch="bilstm-crf", hidden=64, dim=16),
                            tuple(VOC.entity_types.types), params, vocab)

    def peak(n):
        part = Corpus(corpus.sentences[:n], VOC)
        tracemalloc.start()
        try:
            predict_with_checkpoint(checkpoint, part, constrained=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(200), peak(2000)
    assert large <= 1.2 * small, (small, large)


class TestCheckpointIO:
    def checkpoints(self):
        rng = np.random.default_rng(0)
        out = []
        for arch, vocab_size in (("crf", None), ("bilstm-crf", None), ("linear", 7)):
            cfg = TrainConfig(arch=arch, hidden=3, fc_size=4, dim=5, seed=9,
                              cycle_length=6)
            params = init_params(arch, dim=5, k=VOC.k, hidden=3, fc_size=4,
                                 vocab_size=vocab_size, rng=rng)
            vocab = None
            if vocab_size is not None:
                vocab = TokenVocabulary([f"t{i}" for i in range(vocab_size - 2)])
            out.append(Checkpoint(cfg, tuple(VOC.entity_types.types), params, vocab,
                                  best_f1=0.625, best_epoch=3))
        return out

    def test_round_trip_bit_exact(self, tmp_path):
        for i, checkpoint in enumerate(self.checkpoints()):
            path = tmp_path / f"c{i}.ckpt"
            save_checkpoint(checkpoint, path)
            loaded = load_checkpoint(path)
            assert loaded == checkpoint
            save_checkpoint(loaded, tmp_path / "again.ckpt")
            assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("token", ["a b", "a\u2028b", "a\x1cb", "a\n", "", "\ud800"])
    def test_any_token_round_trips_through_a_checkpoint(self, tmp_path, token):
        # a library-built corpus can hold such a token and train on it; a
        # column file cannot, the checkpoint's JSON header holds any str
        corpus = Corpus((Sentence("s0", ("x", token), (0, 0)),), VOC)
        checkpoint, _ = train(corpus, corpus, TrainConfig(epochs=1, dim=2))
        assert token in checkpoint.token_vocab.tokens
        path = tmp_path / "c.ckpt"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.token_vocab.tokens == checkpoint.token_vocab.tokens
        save_checkpoint(loaded, tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    @given(st.lists(st.text(min_size=1, max_size=4)
                    | st.text(st.sampled_from(list("ab# \t\n\r\x1c\x85\u2028\ud800\udfff")),
                              max_size=4),
                    min_size=1, max_size=5))
    @example(["#NLP", "#"])  # a comment in a column file, a token here
    @example(["\ud800\udfff"])  # two code points; the escapes "\ud800\udfff" read as one
    @settings(max_examples=100, deadline=None)
    def test_tokens_load_back(self, tokens):
        vocab = TokenVocabulary(tokens)
        params = init_params("crf", dim=2, k=VOC.k, vocab_size=len(vocab),
                             rng=np.random.default_rng(0))
        checkpoint = Checkpoint(TrainConfig(dim=2), tuple(VOC.entity_types.types), params, vocab)
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "c.ckpt")
            save_checkpoint(checkpoint, path)
            assert load_checkpoint(path).token_vocab.tokens == vocab.tokens

    def test_equal_exactly_when_bytes_match(self):
        base = self.checkpoints()[2]  # the one with a token vocabulary
        assert self.checkpoints()[2] == base

        params = {key: value.copy() for key, value in base.params.items()}
        params["fc.w1"].view(np.uint64)[0, 0] ^= 1  # one mantissa bit
        tokens = list(base.token_vocab.tokens)
        tokens[-1] += "x"
        variants = [
            dataclasses.replace(base, params=params),
            dataclasses.replace(base, best_f1=float(np.nextafter(base.best_f1, 1.0))),
            dataclasses.replace(base, token_vocab=TokenVocabulary(tokens)),
        ]
        for f in dataclasses.fields(TrainConfig):
            value = getattr(base.config, f.name)
            if isinstance(value, str):
                value = "crf"
            elif isinstance(value, float):
                value = float(np.nextafter(value, 1.0))
            else:
                value += 1
            variants.append(dataclasses.replace(
                base, config=dataclasses.replace(base.config, **{f.name: value})))
        for variant in variants:
            assert variant != base

    def test_dim_is_read_off_the_model_and_survives_a_reload(self, tmp_path):
        # ingested crf and bilstm-crf: the input-side weight; linear: its table
        inputs = ("proj.w", "lstm.fw.wx", "embed.table")
        for i, (checkpoint, key) in enumerate(zip(self.checkpoints(), inputs)):
            path = tmp_path / f"c{i}.ckpt"
            save_checkpoint(checkpoint, path)
            assert checkpoint.dim == load_checkpoint(path).dim == checkpoint.params[key].shape[1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_array_is_refused_by_name(self, tmp_path, value):
        # saving writes nothing; the bytes it would have written do not load
        path = tmp_path / "c.ckpt"
        for i, checkpoint in enumerate(self.checkpoints()):
            key = sorted(checkpoint.params)[i]
            checkpoint.params[key].flat[-1] = value
            message = f"array {key!r} holds a non-finite value"
            with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
                save_checkpoint(checkpoint, path)
            assert os.listdir(tmp_path) == []
            path.write_bytes(training._serialize(checkpoint))
            with pytest.raises(CheckpointError, match=f"^{re.escape(f'{path}: {message}')}$"):
                load_checkpoint(path)
            path.unlink()

    def test_undecodable_text_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(self.checkpoints()[2], path)
        blob = path.read_bytes()
        for text in (b'"arch"', b'"t0"', b'"fc.w1"'):  # a key, a token, an array name
            assert blob.count(text) == 1
            path.write_bytes(resealed(blob, header=lambda h: h.replace(text, b"\xff" + text)))
            message = f"{path}: corrupt checkpoint metadata: 'utf-8' codec can't decode byte 0xff"
            with pytest.raises(CheckpointError, match=f"^{re.escape(message)}"):
                load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        checkpoint = self.checkpoints()[0]
        path = tmp_path / "c.ckpt"
        save_checkpoint(checkpoint, path)
        blob = path.read_bytes()
        for cut in (4, 20, len(blob) // 2, len(blob) - 3):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="corrupt|truncated"):
                load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 40)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_message(self, tmp_path):
        checkpoint = self.checkpoints()[0]
        path = tmp_path / "c.ckpt"
        save_checkpoint(checkpoint, path)
        blob = bytearray(path.read_bytes())
        for version in (99, 1):  # 1: the key=value metadata and per-array headers
            blob[7] = version  # version byte follows the 7-byte magic
            path.write_bytes(bytes(blob))
            message = f"{path}: checkpoint format version {version} is not supported (expected 2)"
            with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
                load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        checkpoint = self.checkpoints()[0]
        path = tmp_path / "c.ckpt"
        save_checkpoint(checkpoint, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_vocabulary_mismatch(self, tmp_path):
        checkpoint = self.checkpoints()[0]  # six types, k=13
        small = expand_bio(EntityTypeSet(("PER",)))  # k=3
        with pytest.raises(CheckpointError, match="13 tags.*3"):
            ensure_compatible(checkpoint, small)

    def test_dimension_inconsistency_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        checkpoint = self.checkpoints()[0]
        checkpoint.params["crf.trans"] = np.zeros((4, 4))  # k=13 needs (15, 15)
        save_checkpoint(checkpoint, path)
        with pytest.raises(CheckpointError, match="crf.trans"):
            load_checkpoint(path)
        trainable = self.checkpoints()[2]  # dim in metadata, table must agree
        trainable.params["embed.table"] = np.zeros((7, 9))
        save_checkpoint(trainable, path)
        with pytest.raises(CheckpointError, match="embed.table"):
            load_checkpoint(path)
        bilstm = self.checkpoints()[1]  # a huge header must not be allocated
        bilstm.config = dataclasses.replace(bilstm.config, hidden=10**9)
        save_checkpoint(bilstm, path)
        with pytest.raises(CheckpointError, match="lstm"):
            load_checkpoint(path)

    def test_missing_array_detected(self, tmp_path):
        for key in ("proj.b", "proj.w"):  # proj.w also gives an ingested model its width
            checkpoint = self.checkpoints()[0]
            del checkpoint.params[key]
            path = tmp_path / "c.ckpt"
            save_checkpoint(checkpoint, path)
            with pytest.raises(CheckpointError, match="do not match"):
                load_checkpoint(path)

    def test_ingested_checkpoint_requires_embeddings_at_predict(self):
        checkpoint = self.checkpoints()[0]
        with pytest.raises(CheckpointError, match="ingested"):
            checkpoint.embedding_source(None)

    def test_embedding_dim_mismatch_at_predict(self):
        checkpoint = self.checkpoints()[0]
        with pytest.raises(CheckpointError, match="dimension"):
            checkpoint.embedding_source(EmbeddingSet(3, {}))


@functools.cache
def bilstm_checkpoint_bytes() -> bytes:
    """A small bilstm-crf checkpoint with a trainable table and token vocabulary."""
    params = init_params("bilstm-crf", dim=4, k=VOC.k, hidden=3, vocab_size=6,
                         rng=np.random.default_rng(2))
    checkpoint = Checkpoint(TrainConfig(arch="bilstm-crf", hidden=3, dim=4),
                            tuple(VOC.entity_types.types), params,
                            TokenVocabulary(["John", "lives", "in", "Acme"]), 0.5, 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ckpt")
        save_checkpoint(checkpoint, path)
        with open(path, "rb") as handle:
            return handle.read()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 255)), min_size=1, max_size=4))
def test_corrupted_checkpoint_loads_or_raises_checkpoint_error(edits):
    """A blob equal to the original loads; any other raises a CheckpointError
    that names the file: no corrupted byte loads silently."""
    original = bilstm_checkpoint_bytes()
    blob = bytearray(original)
    for at, value in edits:
        blob[at % len(blob)] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ckpt")
        with open(path, "wb") as handle:
            handle.write(blob)
        if blob == original:
            load_checkpoint(path)
        else:
            with pytest.raises(CheckpointError, match=f"^{re.escape(path)}: "):
                load_checkpoint(path)

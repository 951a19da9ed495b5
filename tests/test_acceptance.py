"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import hashlib
import io
import math
import time

import numpy as np
import pytest

from nerchain.conll_io import Corpus, Sentence, parse_conll, write_conll
from nerchain.crf import (
    TransitionMatrix,
    forward_backward,
    log_likelihood,
    log_partition,
    nll_gradients,
    viterbi_decode,
)
from nerchain.encoders import (
    bilstm_backward,
    bilstm_forward,
    cross_entropy_and_grads,
    emissions_backward,
    emissions_forward,
    init_params,
)
from nerchain.metrics import f1
from nerchain.tagscheme import (
    EntityTypeSet,
    SchemeViolation,
    count_invalid_transitions,
    expand_bio,
    repair_bio,
    transition_mask,
)
from nerchain.training import (
    TrainConfig,
    load_checkpoint,
    predict_with_checkpoint,
    save_checkpoint,
    train,
)

from oracles import (
    all_paths,
    finite_difference,
    gradient_arrays,
    markov_cycle_corpus,
    max_rel_err,
    path_score,
    random_corpus,
)
from test_metrics import (
    CHINESE_MACRO,
    CHINESE_ROWS,
    SPANISH_MACRO,
    SPANISH_ROWS,
)

VOC = expand_bio(EntityTypeSet())


def verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_crf_enumeration_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst_z = 0.0
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 6))
        P = rng.uniform(-5.0, 5.0, (n, k))
        A = TransitionMatrix(rng.uniform(-5.0, 5.0, (k + 2, k + 2)))

        # one enumeration pass feeds both oracles
        scores = []
        best_key = None
        best_path = None
        best_score = None
        for path in all_paths(n, k):
            s = path_score(P, A.values, A.start, A.stop, path)
            scores.append(s)
            key = tuple(reversed(path))
            if best_score is None or s > best_score or (s == best_score and key < best_key):
                best_score, best_key, best_path = s, key, list(path)
        m = max(scores)
        enum_z = m + math.log(sum(math.exp(s - m) for s in scores))

        worst_z = max(worst_z, abs(log_partition(P, A) - enum_z))
        path, score = viterbi_decode(P, A)
        if score != best_score or path != best_path:
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = worst_z <= 1e-8 and mismatches == 0 and elapsed < 30.0
    verdict(1, ok, f"log-partition max |err| {worst_z:.2e} (<=1e-8), "
                   f"viterbi mismatches {mismatches}/200, {elapsed:.1f}s (<30s)")


def test_criterion_2_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    worst = {"crf": 0.0, "bilstm": 0.0, "fc": 0.0}

    for _ in range(20):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        P = rng.uniform(-2.0, 2.0, (n, k))
        A = TransitionMatrix(rng.uniform(-2.0, 2.0, (k + 2, k + 2)))
        y = [int(rng.integers(k)) for _ in range(n)]
        _, dP, dA = nll_gradients(P, A, y)
        fd = finite_difference(lambda: -log_likelihood(P, A, y), {"P": P, "A": A.values})
        worst["crf"] = max(worst["crf"], max_rel_err(dP, fd["P"]), max_rel_err(dA, fd["A"]))

    for _ in range(20):
        d = int(rng.integers(1, 5))
        h = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        params = init_params("bilstm-crf", dim=d, k=2, hidden=h, rng=rng)
        del params["proj.w"], params["proj.b"], params["crf.trans"]
        for key, arr in params.items():
            if arr.ndim == 2:
                params[key] = rng.uniform(-0.8, 0.8, arr.shape)
        x = rng.standard_normal((n, d))
        grad_out = rng.standard_normal((n, 2 * h))

        def lstm_loss():
            (out,), _ = bilstm_forward([x], params)
            return float((grad_out * out).sum())

        _, cache = bilstm_forward([x], params)
        grads = gradient_arrays(params)
        dx = bilstm_backward(cache, grad_out, grads)
        fd = finite_difference(lstm_loss, {"x": x, **params})
        worst["bilstm"] = max(worst["bilstm"], max_rel_err(dx, fd["x"]),
                              *(max_rel_err(grads[kk], fd[kk]) for kk in params))

    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        r = np.random.default_rng(3000 + seed)
        d = int(r.integers(1, 5))
        fc = int(r.integers(2, 6))
        k = int(r.integers(2, 5))
        n = int(r.integers(1, 6))
        params = {
            "fc.w1": r.uniform(-0.9, 0.9, (fc, d)), "fc.b1": r.uniform(-0.5, 0.5, fc),
            "fc.w2": r.uniform(-0.9, 0.9, (k, fc)), "fc.b2": r.uniform(-0.5, 0.5, k),
        }
        x = r.standard_normal((n, d))
        gold = [int(r.integers(k)) for _ in range(n)]
        (log_probs,), cache = emissions_forward("linear", params, [x])
        if np.min(np.abs(cache.z1)) < 1e-3:
            continue  # stay away from the relu kink
        checked += 1

        def fc_loss():
            (lp,), _ = emissions_forward("linear", params, [x])
            return -float(lp[np.arange(n), gold].mean())

        _, d_logits = cross_entropy_and_grads(log_probs, gold)
        grads = gradient_arrays(params)
        dx = emissions_backward(params, cache, d_logits, grads)
        fd = finite_difference(fc_loss, {"x": x, **params})
        worst["fc"] = max(worst["fc"], max_rel_err(dx, fd["x"]),
                          *(max_rel_err(grads[kk], fd[kk]) for kk in params))

    elapsed = time.monotonic() - started
    ok = all(v <= 1e-4 for v in worst.values()) and elapsed < 60.0
    verdict(2, ok, "worst rel err: chain {crf:.2e}, bilstm {bilstm:.2e}, "
                   "fc {fc:.2e} (<=1e-4), {t:.1f}s (<60s)".format(t=elapsed, **worst))


def test_criterion_3_probability_normalization():
    rng = np.random.default_rng(303)
    worst_norm = 0.0
    worst_enum = 0.0
    for _ in range(120):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        P = rng.uniform(-5.0, 5.0, (n, k))
        A = TransitionMatrix(rng.uniform(-5.0, 5.0, (k + 2, k + 2)))
        marg = forward_backward(P, A)
        worst_norm = max(worst_norm, float(np.max(np.abs(marg.node.sum(axis=1) - 1.0))))
        for t in range(n - 1):
            worst_norm = max(worst_norm, abs(float(marg.edge[t].sum()) - 1.0))

        node = np.zeros((n, k))
        edge = np.zeros((max(n - 1, 0), k, k))
        scores = {p: path_score(P, A.values, A.start, A.stop, p) for p in all_paths(n, k)}
        m = max(scores.values())
        z = sum(math.exp(s - m) for s in scores.values())
        for p, s in scores.items():
            pr = math.exp(s - m) / z
            for t, tg in enumerate(p):
                node[t, tg] += pr
            for t in range(n - 1):
                edge[t, p[t], p[t + 1]] += pr
        worst_enum = max(worst_enum, float(np.max(np.abs(marg.node - node))))
        if n > 1:
            worst_enum = max(worst_enum, float(np.max(np.abs(marg.edge - edge))))
    ok = worst_norm <= 1e-9 and worst_enum <= 1e-8
    verdict(3, ok, f"normalization err {worst_norm:.2e} (<=1e-9), "
                   f"enumeration err {worst_enum:.2e} (<=1e-8)")


def test_criterion_4_table_arithmetic():
    worst_cell = 0.0
    worst_macro = 0.0
    for rows, macro in ((SPANISH_ROWS, SPANISH_MACRO), (CHINESE_ROWS, CHINESE_MACRO)):
        for p, r, printed in rows.values():
            worst_cell = max(worst_cell, abs(f1(p, r) - printed))
        for col, target in enumerate(macro):
            computed = float(np.mean([v[col] for v in rows.values()]))
            worst_macro = max(worst_macro, abs(computed - target))
    ok = worst_cell <= 1e-4 and worst_macro <= 5e-4
    verdict(4, ok, f"12 f1 cells, worst |err| {worst_cell:.2e} (<=1e-4); "
                   f"macro rows worst |err| {worst_macro:.2e} (<=5e-4)")


def test_criterion_5_transition_learning_separation():
    started = time.monotonic()
    voc = expand_bio(EntityTypeSet(("PER", "LOC")))
    rng = np.random.default_rng(505)
    train_corpus = markov_cycle_corpus(rng, voc, 2000, vocab_size=50, id_prefix="t")
    dev_corpus = markov_cycle_corpus(rng, voc, 400, vocab_size=50, id_prefix="d")

    results = {}
    for arch in ("crf", "linear"):
        config = TrainConfig(arch=arch, epochs=10, dropout=0.0, lr_min=1e-3, lr_max=1e-3,
                             cycle_length=2, seed=7, dim=16, fc_size=32)
        _, history = train(train_corpus, dev_corpus, config)
        results[arch] = max(h.report.macro_f1 for h in history)
    elapsed = time.monotonic() - started
    ok = results["crf"] >= 0.95 and results["linear"] <= 0.80 and elapsed < 300.0
    verdict(5, ok, f"chain-head dev F1 {results['crf']:.3f} (>=0.95), "
                   f"per-token head {results['linear']:.3f} (<=0.80), {elapsed:.0f}s (<300s)")


def memorization_corpus():
    names = ("B-PER", "O", "O", "B-LOC", "I-LOC")
    sent = Sentence("s0", ("John", "lives", "in", "New", "York"),
                    tuple(VOC.index(t) for t in names))
    return Corpus((sent,), VOC)


def test_criterion_6_memorization_sanity():
    corpus = memorization_corpus()
    config = TrainConfig(arch="crf", epochs=100, dropout=0.0, lr_min=0.1, lr_max=0.1,
                         cycle_length=2, seed=1, dim=8)
    checkpoint, history = train(corpus, corpus, config)
    final_nll = history[-1].mean_nll
    predictions = predict_with_checkpoint(checkpoint, corpus)
    exact = tuple(predictions[0]) == corpus.sentences[0].gold_tags
    ok = final_nll < 0.01 and exact
    verdict(6, ok, f"nll after 100 epochs {final_nll:.2e} (<0.01), "
                   f"predict reproduces gold: {exact}")


def test_criterion_7_bio_guarantees():
    rng = np.random.default_rng(707)
    mask = transition_mask(VOC)
    k = VOC.k
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        P = rng.uniform(-8.0, 8.0, (n, k))
        A = TransitionMatrix(rng.uniform(-8.0, 8.0, (k + 2, k + 2)))
        path, _ = viterbi_decode(P, A, mask)
        violations += count_invalid_transitions(VOC, path)

        raw = [int(t) for t in rng.integers(0, k, n)]
        violations += count_invalid_transitions(VOC, repair_bio(VOC, raw, "convert"))
        violations += count_invalid_transitions(VOC, repair_bio(VOC, raw, "ignore"))
        try:
            violations += count_invalid_transitions(VOC, repair_bio(VOC, raw, "strict"))
        except SchemeViolation:
            pass
    verdict(7, violations == 0,
            f"{violations} invalid transitions over 10000 decodes plus all repair modes")


def test_criterion_8_determinism_and_round_trips(tmp_path):
    problems = []

    # bit-identical checkpoints for identical (seed, config, data)
    corpus = memorization_corpus()
    extra = Sentence("s1", ("Acme", "makes", "Widget"),
                     (VOC.index("B-CORP"), VOC.index("O"), VOC.index("B-PROD")))
    corpus = Corpus(corpus.sentences + (extra,), VOC)
    config = TrainConfig(arch="bilstm-crf", epochs=2, hidden=3, dropout=0.4, seed=5, dim=6)
    digests = []
    for run in range(2):
        checkpoint, _ = train(corpus, corpus, config)
        path = tmp_path / f"r{run}.ckpt"
        save_checkpoint(checkpoint, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    if digests[0] != digests[1]:
        problems.append("checkpoints differ across identical runs")

    # parse . write identity on random corpora
    rng = np.random.default_rng(808)
    for trial in range(5):
        random = random_corpus(rng, VOC, 50)
        buffer = io.StringIO()
        write_conll(random, buffer)
        again = parse_conll(buffer.getvalue(), VOC)
        same = len(again) == len(random) and all(
            (a.id, a.tokens, a.gold_tags) == (b.id, b.tokens, b.gold_tags)
            for a, b in zip(random, again))
        if not same:
            problems.append(f"conll round trip failed on trial {trial}")
            break

    # load . save identity on checkpoints
    checkpoint, _ = train(corpus, corpus, config)
    first = tmp_path / "a.ckpt"
    save_checkpoint(checkpoint, first)
    loaded = load_checkpoint(first)
    if loaded != checkpoint:
        problems.append("loaded checkpoint differs from saved one")
    second = tmp_path / "b.ckpt"
    save_checkpoint(loaded, second)
    if first.read_bytes() != second.read_bytes():
        problems.append("re-saved checkpoint bytes differ")

    verdict(8, not problems, "; ".join(problems) or
            "bit-identical checkpoints, conll and checkpoint round trips hold")

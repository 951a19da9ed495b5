"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (exhaustive
enumeration, scalar loops, central finite differences) and never calls the
code paths it checks.
"""

import itertools
import math
import operator
import zlib
from typing import NamedTuple

import numpy as np


# ---------------------------------------------------------------------------
# chain model: exhaustive enumeration over all k^n label paths


def path_score(P, A, start, stop, path):
    """Scalar accumulation of one path's score, mirroring the DP's add order."""
    s = float(A[start, path[0]]) + float(P[0, path[0]])
    for t in range(1, len(path)):
        s = s + float(A[path[t - 1], path[t]])
        s = s + float(P[t, path[t]])
    return s + float(A[path[-1], stop])


def reference_tag_indices(tags, error):
    """tags as a list of Python ints, one operator.index call per element; what
    it refuses, or a tags that is no sequence, raises error naming it."""
    try:
        items = iter(tags)
    except TypeError:
        raise error(f"tag indices must be a sequence, not {type(tags).__name__}") from None
    indices = []
    for t in items:
        try:
            indices.append(operator.index(t))
        except TypeError:
            raise error(f"tag index {t!r} is not an integer") from None
    return indices


def all_paths(n, k):
    return itertools.product(range(k), repeat=n)


def enum_log_partition(P, A, start, stop):
    scores = [path_score(P, A, start, stop, p) for p in all_paths(P.shape[0], P.shape[1])]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def enum_best_path(P, A, start, stop, mask=None):
    """Max score and the argmax path minimal under reversed-tuple order."""
    n, k = P.shape
    best_score = None
    best = None
    for path in all_paths(n, k):
        if mask is not None:
            chain = (start,) + path + (stop,)
            if not all(mask[a, b] for a, b in zip(chain, chain[1:])):
                continue
        s = path_score(P, A, start, stop, path)
        key = tuple(reversed(path))
        if best_score is None or s > best_score or (s == best_score and key < best[0]):
            best_score = s
            best = (key, list(path))
    return (None, None) if best is None else (best[1], best_score)


def enum_marginals(P, A, start, stop):
    """Node and edge posteriors by enumerating every path's probability."""
    n, k = P.shape
    scores = {p: path_score(P, A, start, stop, p) for p in all_paths(n, k)}
    m = max(scores.values())
    weights = {p: math.exp(s - m) for p, s in scores.items()}
    z = sum(weights.values())
    node = np.zeros((n, k))
    edge = np.zeros((max(n - 1, 0), k, k))
    for p, w in weights.items():
        pr = w / z
        for t, tag in enumerate(p):
            node[t, tag] += pr
        for t in range(n - 1):
            edge[t, p[t], p[t + 1]] += pr
    return node, edge


# ---------------------------------------------------------------------------
# chain model: the dynamic programs with one generic log-sum-exp call per step
# (the kernels must match these bit for bit). A is the raw (k+2) x (k+2) array
# with START = k and STOP = k + 1.


def logsumexp(x, axis=None):
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(x - shift).sum(axis=axis, keepdims=True)) + shift
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


def reference_forward_backward(P, A):
    """(node, edge, log_z) by the per-step log-sum-exp recursions."""
    n, k = P.shape
    trans = A[:k, :k]
    log_alpha = np.empty((n, k))
    log_alpha[0] = A[k, :k] + P[0]
    for t in range(1, n):
        log_alpha[t] = logsumexp(log_alpha[t - 1][:, None] + trans, axis=0) + P[t]
    log_z = logsumexp(log_alpha[n - 1] + A[:k, k + 1])

    log_beta = np.empty((n, k))
    log_beta[n - 1] = A[:k, k + 1]
    for t in range(n - 2, -1, -1):
        log_beta[t] = logsumexp(
            np.ascontiguousarray((P[t + 1] + log_beta[t + 1])[:, None] + trans.T), axis=0)

    # each exponent clamped at 0, as the kernel does: rounding can put a
    # probability's log above 0
    node = np.exp(np.minimum(log_alpha + log_beta - log_z, 0.0))
    edge = np.empty((n - 1, k, k))
    for t in range(n - 1):
        edge[t] = np.exp(np.minimum(
            log_alpha[t][:, None] + trans + (P[t + 1] + log_beta[t + 1])[None, :] - log_z, 0.0))
    return node, edge, log_z


def reference_nll_gradients(P, A, y):
    """(nll, dP, dA): expected minus observed counts, one step at a time."""
    n, k = P.shape
    node, edge, log_z = reference_forward_backward(P, A)
    y = [int(t) for t in y]
    score = A[k, y[0]] + P[0, y[0]]
    for t in range(1, n):
        score = score + A[y[t - 1], y[t]]
        score = score + P[t, y[t]]
    nll = -(float(score + A[y[n - 1], k + 1]) - log_z)

    dP = node.copy()
    for t in range(n):
        dP[t, y[t]] -= 1.0
    dA = np.zeros_like(A)
    if n > 1:
        dA[:k, :k] = edge.sum(axis=0)
    dA[k, :k] = node[0]
    dA[:k, k + 1] += node[n - 1]
    dA[k, y[0]] -= 1.0
    for t in range(1, n):
        dA[y[t - 1], y[t]] -= 1.0
    dA[y[n - 1], k + 1] -= 1.0
    return nll, dP, dA


def reference_viterbi(P, A, mask=None):
    """(path, score) of the best path, lowest tag index on ties, or
    (None, score) when the best score is not finite."""
    n, k = P.shape
    av = A if mask is None else A + np.where(mask, 0.0, -np.inf)
    trans = av[:k, :k]
    delta = av[k, :k] + P[0]
    back = np.empty((n, k), dtype=np.intp)
    for t in range(1, n):
        cand = delta[:, None] + trans
        back[t] = np.argmax(cand, axis=0)
        delta = cand[back[t], np.arange(k)] + P[t]
    final = delta + av[:k, k + 1]
    best = int(np.argmax(final))
    score = float(final[best])
    if not np.isfinite(score):
        return None, score
    path = [0] * n
    path[n - 1] = best
    for t in range(n - 1, 0, -1):
        path[t - 1] = int(back[t, path[t]])
    return path, score


# ---------------------------------------------------------------------------
# finite differences


def finite_difference(loss_fn, arrays, step=1e-5):
    """Central-difference gradients of loss_fn() wrt each array, in place."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss_fn()
            flat[i] = keep - step
            down = loss_fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def gradient_arrays(arrays):
    """For each key, a nan-filled array of that array's shape: what a backward
    pass writes its gradients into, so that an entry it leaves unwritten shows."""
    return {key: np.full(np.shape(array), np.nan) for key, array in arrays.items()}


def assert_written(out, keys):
    """Require that a backward pass filled exactly out's arrays under keys, with
    finite values, and left every other array all nan, as gradient_arrays made it."""
    for key, array in out.items():
        assert np.isfinite(array).all() if key in keys else np.isnan(array).all(), key


def max_rel_err(analytic, numeric):
    """Worst per-coordinate relative error with a 1e-4 denominator floor
    (so coordinates near zero are compared at absolute tolerance 1e-8
    when checked against rel err 1e-4)."""
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# scalar LSTM reference (pure python loops, no vectorization)


def scalar_bilstm(x, wx_f, wh_f, b_f, wx_b, wh_b, b_b):
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def run(inp, wx, wh, b):
        n = len(inp)
        d = len(inp[0])
        h = len(wh[0])
        h_prev = [0.0] * h
        c_prev = [0.0] * h
        out = []
        for t in range(n):
            z = []
            for row in range(4 * h):
                acc = b[row]
                for col in range(d):
                    acc += wx[row][col] * inp[t][col]
                for col in range(h):
                    acc += wh[row][col] * h_prev[col]
                z.append(acc)
            i = [sig(z[j]) for j in range(h)]
            f = [sig(z[h + j]) for j in range(h)]
            g = [math.tanh(z[2 * h + j]) for j in range(h)]
            o = [sig(z[3 * h + j]) for j in range(h)]
            c = [f[j] * c_prev[j] + i[j] * g[j] for j in range(h)]
            hh = [o[j] * math.tanh(c[j]) for j in range(h)]
            out.append(hh)
            h_prev, c_prev = hh, c
        return out

    xl = [list(map(float, row)) for row in x]
    fwd = run(xl, wx_f.tolist(), wh_f.tolist(), b_f.tolist())
    bwd = run(xl[::-1], wx_b.tolist(), wh_b.tolist(), b_b.tolist())[::-1]
    return np.array([f + b for f, b in zip(fwd, bwd)])


# ---------------------------------------------------------------------------
# one LSTM direction, one token at a time: an input matmul and four gate
# activations per step forward, two rank-1 weight updates per step backward
# (the hoisted cell loop must match these to rounding). The cache is the tuple
# (x, wx, wh, i, f, g, o, c, tanh_c, h) of per-step (n, h) gate arrays.


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_lstm_forward(x, wx, wh, b):
    """(h, cache): the (n, h) states of one direction and what backward reads."""
    n = x.shape[0]
    h = wh.shape[1]
    gi = np.empty((n, h)); gf = np.empty((n, h)); gg = np.empty((n, h)); go = np.empty((n, h))
    cs = np.empty((n, h)); tc = np.empty((n, h)); hs = np.empty((n, h))
    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    for t in range(n):
        z = wx @ x[t] + wh @ h_prev + b
        gi[t] = _sigmoid(z[:h])
        gf[t] = _sigmoid(z[h:2 * h])
        gg[t] = np.tanh(z[2 * h:3 * h])
        go[t] = _sigmoid(z[3 * h:])
        cs[t] = gf[t] * c_prev + gi[t] * gg[t]
        tc[t] = np.tanh(cs[t])
        hs[t] = go[t] * tc[t]
        h_prev = hs[t]
        c_prev = cs[t]
    return hs, (x, wx, wh, gi, gf, gg, go, cs, tc, hs)


def reference_lstm_backward(cache, grad_h):
    """(dx, dwx, dwh, db) of one direction given the gradient at its states."""
    x, wx, wh, gi, gf, gg, go, cs, tc, hs = cache
    n, h = hs.shape
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * h)
    dx = np.zeros_like(x)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(n - 1, -1, -1):
        dh = grad_h[t] + dh_next
        do = dh * tc[t]
        dc = dc_next + dh * go[t] * (1.0 - tc[t] ** 2)
        c_prev = cs[t - 1] if t > 0 else np.zeros(h)
        h_prev = hs[t - 1] if t > 0 else np.zeros(h)
        di = dc * gg[t]
        df = dc * c_prev
        dg = dc * gi[t]
        dc_next = dc * gf[t]
        dz = np.concatenate([
            di * gi[t] * (1.0 - gi[t]),
            df * gf[t] * (1.0 - gf[t]),
            dg * (1.0 - gg[t] ** 2),
            do * go[t] * (1.0 - go[t]),
        ])
        dwx += np.outer(dz, x[t])
        dwh += np.outer(dz, h_prev)
        db += dz
        dx[t] = wx.T @ dz
        dh_next = wh.T @ dz
    return dx, dwx, dwh, db


# ---------------------------------------------------------------------------
# one LSTM direction of one sentence with the input projection hoisted out of
# the time loop, and its backward with the weight gradients hoisted out of
# the reversed loop: the kernels that the two-row bilstm_forward and
# bilstm_backward must match bit for bit, row by row, on every sentence of a
# batch, one direction per row


class LstmDirection(NamedTuple):
    """One direction's cache: its input, weights, and per-step (n, .) arrays."""

    x: np.ndarray
    wx: np.ndarray
    wh: np.ndarray
    gates: np.ndarray  # (n, 4h): sigmoid(i), sigmoid(f), tanh(g), sigmoid(o) per step
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


def reference_lstm_kernel(x, wx, wh, b):
    """(h, cache): the (n, h) states of one direction and the LstmDirection
    that reference_lstm_backward_kernel reads."""
    n = x.shape[0]
    h = wh.shape[1]
    gates = x @ wx.T + b  # every step's input projection; the loop adds h_prev @ wh.T
    cs = np.empty((n, h)); tc = np.empty((n, h)); hs = np.empty((n, h))
    g = np.empty(h)
    # the recurrent product is the kernel's gemm over two rows, h_prev over a
    # zero row, against wh.T made contiguous (the view takes another kernel)
    # with 4h rounded up to a multiple of 8 columns by zeros
    wh_t, two_rows = np.zeros((h, 4 * (h + h % 2))), np.zeros((2, h))
    wh_t[:, :4 * h] = wh.T
    h_prev = c_prev = None
    for z, (i, f, g_z, o), c, tanh_c, h_t in zip(gates, gates.reshape(n, 4, h), cs, tc, hs):
        if h_prev is not None:
            two_rows[0] = h_prev
            z += (two_rows @ wh_t)[0, :4 * h]
        np.tanh(g_z, out=g)
        np.negative(z, out=z)  # sigmoid over the whole gate block, in place ...
        np.exp(z, out=z)
        z += 1.0
        np.reciprocal(z, out=z)
        g_z[...] = g  # ... with tanh on the g slice
        np.multiply(i, g, out=c)
        if c_prev is not None:
            c += f * c_prev
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h_t)
        h_prev, c_prev = h_t, c
    return hs, LstmDirection(x, wx, wh, gates, cs, tc, hs)


def reference_lstm_backward_kernel(cache, grad_h):
    """(dx, dwx, dwh, db) of one direction, given its LstmDirection cache and
    the (n, h) gradient at its states."""
    x, wx, wh, tc = cache.x, cache.wx, cache.wh, cache.tanh_c
    n, h = cache.h.shape
    i, f, g, o = cache.gates.reshape(n, 4, h).transpose(1, 0, 2)
    c_prev = np.zeros((n, h))
    c_prev[1:] = cache.c[:-1]
    dz_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)], axis=1)
    dz_dh = tc * o * (1.0 - o)
    dc_dh = o * (1.0 - tc * tc)
    dz = np.empty((n, 4, h))  # row t is the gradient at step t's gate pre-activations
    flat = dz.reshape(n, 4 * h)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    steps = zip(grad_h, dc_dh, dz_dc, dz_dh, f, dz, flat)
    for grad, dc_dh_t, dz_dc_t, dz_dh_t, f_t, dz_t, dz_flat in reversed(list(steps)):
        dh = grad + dh_next
        dc = dh * dc_dh_t
        dc += dc_next
        np.multiply(dz_dc_t, dc, out=dz_t[:3])
        np.multiply(dz_dh_t, dh, out=dz_t[3])
        dc_next = dc * f_t
        dh_next = dz_flat @ wh
    dwh = flat[1:].T @ cache.h[:-1]
    return flat @ wx, flat.T @ x, dwh, flat.sum(axis=0)


# ---------------------------------------------------------------------------
# scalar Adam reference


def scalar_adam(grad_fn, theta0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    theta = float(theta0)
    m = 0.0
    v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        theta -= lr * mhat / (math.sqrt(vhat) + eps)
    return theta


# ---------------------------------------------------------------------------
# per-array clipping and Adam: one pass over each array in turn, the
# reference that the one-vector optimizer must match bit for bit


def reference_clip_global_norm(grads, max_norm):
    """Scale the dict's gradients in place so their joint L2 norm is at most
    max_norm; returns the norm before scaling."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = total ** 0.5
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class ReferenceAdam:
    """Bias-corrected Adam with one (m, v) pair of arrays per key."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0

    def update(self, params, grads, lr):
        """One step in place over params, key by key in sorted order; a
        non-finite gradient raises ValueError naming its key."""
        self.step += 1
        c1 = 1.0 - self.beta1 ** self.step
        c2 = 1.0 - self.beta2 ** self.step
        for key in sorted(params):
            g, p, m, v = grads[key], params[key], self.m[key], self.v[key]
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite gradient in {key!r}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# ---------------------------------------------------------------------------
# declarative span extractor: checks every candidate (start, end, type) triple


def reference_spans(voc, tags):
    n = len(tags)
    found = []
    for s in range(n):
        if not voc.is_begin(tags[s]):
            continue
        etype = voc.type_of(tags[s])
        inside = voc.inside_of(etype)
        e = s + 1
        for e in range(s + 1, n + 1):
            if e == n or tags[e] != inside:
                break
        found.append((s, e, etype))
    return found


def reference_prf(gold_spans_by_sentence, pred_spans_by_sentence, entity_types):
    """Set-intersection scorer over (start, end, type) triples per sentence."""
    tp = {t: 0 for t in entity_types}
    fp = {t: 0 for t in entity_types}
    fn = {t: 0 for t in entity_types}
    for gold, pred in zip(gold_spans_by_sentence, pred_spans_by_sentence):
        gset, pset = set(gold), set(pred)
        for s in gset & pset:
            tp[s[2]] += 1
        for s in pset - gset:
            fp[s[2]] += 1
        for s in gset - pset:
            fn[s[2]] += 1
    return tp, fp, fn


# ---------------------------------------------------------------------------
# BIO repair and invalid-transition count through the is_valid_transition
# predicate, one call per token (the mask lookups must give the same results)


def predicate_repair_bio(voc, tags, mode):
    from nerchain.tagscheme import SchemeViolation, TagSchemeError, is_valid_transition

    out = []
    prev = voc.start_index
    for pos, tag in enumerate(tags):
        if not 0 <= tag < voc.k:
            raise TagSchemeError(f"tag index out of range at position {pos}: {tag}")
        if not is_valid_transition(voc, prev, tag):
            if mode == "strict":
                raise SchemeViolation(
                    f"invalid transition {voc.name(prev)} -> {voc.name(tag)} at position {pos}"
                )
            tag = tag - 1 if mode == "convert" else 0
        out.append(tag)
        prev = tag
    return out


def predicate_count_invalid(voc, tags):
    from nerchain.tagscheme import is_valid_transition

    bad = 0
    prev = voc.start_index
    for tag in tags:
        bad += not is_valid_transition(voc, prev, tag)
        prev = tag
    return bad


def predicate_extract_spans(voc, tags):
    """Span extraction through the is_begin/is_inside/type_of predicates, one
    call each per token (the table lookups must give the same spans)."""
    from nerchain.tagscheme import EntitySpan, TagSchemeError

    spans = []
    open_start = -1
    open_type = None
    for pos, tag in enumerate(tags):
        tag = int(tag)
        if not 0 <= tag < voc.k:
            raise TagSchemeError(f"tag index out of range at position {pos}: {tag}")
        if voc.is_begin(tag):
            if open_type is not None:
                spans.append(EntitySpan(open_start, pos, open_type))
            open_start, open_type = pos, voc.type_of(tag)
        elif voc.is_inside(tag) and open_type == voc.type_of(tag):
            continue
        else:  # O, or an I tag that does not continue the open span
            if open_type is not None:
                spans.append(EntitySpan(open_start, pos, open_type))
            open_start, open_type = -1, None
    if open_type is not None:
        spans.append(EntitySpan(open_start, len(tags), open_type))
    return spans


def predicate_error_breakdown(gold, predicted, repair):
    """Span matching over EntitySpan objects from the predicate extractor and
    repair: per-type [tp, fp, fn] counts, the raw invalid-transition count and
    the error listings. Checks each sentence in turn, as the per-sentence
    scorer did: alignment, the repair, the raw transitions, the gold spans;
    an error past the alignment checks gains the sentence's id."""
    from nerchain.metrics import ErrorBreakdown, ScoringError

    if len(predicted) != len(gold.sentences):
        raise ScoringError(f"{len(predicted)} predictions for {len(gold.sentences)} sentences")
    voc = gold.tag_vocabulary
    counts = {t: [0, 0, 0] for t in voc.entity_types}
    invalid = 0
    out = ErrorBreakdown()
    for sent, tags in zip(gold.sentences, predicted):
        if sent.gold_tags is None:
            raise ScoringError(f"sentence {sent.id!r} has no gold tags")
        if len(tags) != len(sent):
            raise ScoringError(
                f"sentence {sent.id!r}: {len(tags)} predicted tags for {len(sent)} tokens")
        try:
            repaired = predicate_repair_bio(voc, tags, repair)
            invalid += predicate_count_invalid(voc, tags)
            gold_spans = predicate_extract_spans(voc, sent.gold_tags)
            pred_spans = predicate_extract_spans(voc, repaired)
        except ValueError as exc:
            raise type(exc)(f"sentence {sent.id!r}: {exc}") from None
        fp = [s for s in pred_spans if s not in gold_spans]
        fn = [s for s in gold_spans if s not in pred_spans]
        for span in pred_spans:
            counts[span.entity_type][0 if span in gold_spans else 1] += 1
        for span in fn:
            counts[span.entity_type][2] += 1
        touched_gold, touched_pred = [], []
        for g in fn:
            for p in fp:
                if g.overlaps(p):
                    touched_gold.append(g)
                    touched_pred.append(p)
                    if g.entity_type == p.entity_type:
                        out.boundary.append((sent.id, g, p))
                    else:
                        key = (g.entity_type, p.entity_type)
                        out.confusion[key] = out.confusion.get(key, 0) + 1
        out.misses.extend((sent.id, g) for g in fn if g not in touched_gold)
        out.spurious.extend((sent.id, p) for p in fp if p not in touched_pred)
    return counts, invalid, out


# ---------------------------------------------------------------------------
# file readers one line and one value at a time (the streamed readers must
# build equal corpora, bit-identical matrices and the same errors). Three
# changes from the original per-line readers: a "# id" line with no id after
# it is a data error in both, where it used to give the id "" in a column
# file and read as an embedding row; a column-file token that starts with
# "#" (an indented row such as " #tag _ _ O") is a data error, where it used
# to be read as a token that write_conll then refused; and a column-file id
# line inside a sentence, or with no token after it before a blank line,
# another id line or the end, is a data error, where it used to rename or
# drop a sentence's id.


def reference_parse_conll(stream, voc, token_column=0, tag_column=-1, has_labels=True):
    import io

    from nerchain.conll_io import ConllError, Corpus, Sentence

    if isinstance(stream, str):
        stream = io.StringIO(stream)
    sentences = []
    tokens = []
    tags = []
    pending_id = None
    id_lineno = 0

    def flush():
        nonlocal pending_id, tokens, tags
        if tokens:
            sid = pending_id if pending_id is not None else str(len(sentences))
            sentences.append(
                Sentence(sid, tuple(tokens), tuple(tags) if has_labels else None)
            )
        elif pending_id is not None:
            raise ConllError(f"line {id_lineno}: no token follows sentence id {pending_id!r}")
        pending_id = None
        tokens = []
        tags = []

    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            if line.startswith("# id ") or line.rstrip() == "# id":
                sid = line[len("# id "):].strip()
                if not sid:
                    raise ConllError(f"line {lineno}: empty sentence id")
                if tokens:
                    raise ConllError(f"line {lineno}: sentence id {sid!r} inside a sentence")
                flush()
                pending_id, id_lineno = sid, lineno
            continue
        fields = line.split()
        if not -len(fields) <= token_column < len(fields):
            raise ConllError(f"line {lineno}: expected token in column {token_column}: {line!r}")
        token = fields[token_column]
        if has_labels:
            col = tag_column if tag_column >= 0 else len(fields) + tag_column
            if not 0 <= col < len(fields) or len(fields) == 1:
                raise ConllError(f"line {lineno}: too few fields for tag column: {line!r}")
            if col == token_column % len(fields):
                raise ConllError(f"line {lineno}: token column {token_column} and tag column "
                                 f"{tag_column} are the same field: {line!r}")
        if token.startswith("#"):
            raise ConllError(f"line {lineno}: token {token!r} starts with '#'")
        tokens.append(token)
        if has_labels:
            name = fields[col]
            try:
                tags.append(voc.index(name))
            except ValueError:
                raise ConllError(f"line {lineno}: unknown tag name {name!r}") from None
    flush()
    return Corpus(tuple(sentences), voc)


def reference_load_embeddings(stream, corpus):
    import io

    from nerchain.conll_io import EmbeddingError, EmbeddingSet

    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lengths = {s.id: len(s) for s in corpus}
    dim = None
    matrices = {}
    sid = None
    rows = []

    def flush():
        nonlocal sid, rows
        if sid is None:
            return
        if len(rows) != lengths[sid]:
            raise EmbeddingError(
                f"sentence {sid!r}: {len(rows)} rows for {lengths[sid]} tokens"
            )
        matrices[sid] = np.array(rows, dtype=np.float64)
        sid = None
        rows = []

    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise EmbeddingError(f"line {lineno}: expected 'dim <d>' header, got {line!r}")
            try:
                dim = int(parts[1])
            except ValueError:
                dim = 0
            if dim < 1:
                raise EmbeddingError(f"line {lineno}: bad dimension {parts[1]!r}")
            continue
        if line.startswith("# id ") or line == "# id":
            flush()
            sid = line[len("# id "):].strip()
            if not sid:
                raise EmbeddingError(f"line {lineno}: empty sentence id")
            if sid not in lengths:
                raise EmbeddingError(f"line {lineno}: unknown sentence id {sid!r}")
            if sid in matrices:
                raise EmbeddingError(f"line {lineno}: duplicate sentence id {sid!r}")
            continue
        if sid is None:
            raise EmbeddingError(f"line {lineno}: row outside a sentence block")
        try:
            values = [float(v) for v in line.split()]
        except ValueError:
            raise EmbeddingError(f"line {lineno}: non-numeric embedding value in {line!r}") from None
        if len(values) != dim:
            raise EmbeddingError(f"line {lineno}: {len(values)} values, header says dim {dim}")
        if not all(np.isfinite(values)):
            raise EmbeddingError(f"line {lineno}: non-finite embedding value")
        rows.append(values)
    flush()
    if dim is None:
        raise EmbeddingError("empty embedding file")
    return EmbeddingSet(dim, matrices)


# ---------------------------------------------------------------------------
# checkpoint container


def resealed(blob, header=None, payload=None):
    """A version 2 checkpoint blob with its JSON header text and its payload
    bytes passed through the given bytes -> bytes edits, and its header
    length and CRC-32 trailer written anew, so that a load of an edited file
    gets past the checksum to the check the edit targets. The layout: 7-byte
    magic and version byte, u64 header length, header, payload, u32 CRC-32."""
    size = int.from_bytes(blob[8:16], "little")
    text, data = blob[16:16 + size], blob[16 + size:-4]
    text = text if header is None else header(text)
    data = data if payload is None else payload(data)
    body = blob[:8] + len(text).to_bytes(8, "little") + text + data
    return body + zlib.crc32(body).to_bytes(4, "little")


# ---------------------------------------------------------------------------
# corpus generators


def random_valid_tags(rng, voc, n):
    """Random BIO-valid tag sequence built from random non-overlapping spans."""
    tags = [0] * n
    pos = 0
    while pos < n:
        if rng.random() < 0.4:
            etype = voc.entity_types.types[rng.integers(len(voc.entity_types))]
            length = int(rng.integers(1, min(4, n - pos) + 1))
            tags[pos] = voc.begin_of(etype)
            for t in range(pos + 1, pos + length):
                tags[t] = voc.inside_of(etype)
            pos += length
        else:
            pos += 1
    return tags


def random_corpus(rng, voc, n_sentences, min_len=1, max_len=8, vocab=("a", "b", "c", "d")):
    from nerchain.conll_io import Corpus, Sentence

    sentences = []
    for i in range(n_sentences):
        n = int(rng.integers(min_len, max_len + 1))
        tokens = tuple(vocab[rng.integers(len(vocab))] for _ in range(n))
        sentences.append(Sentence(f"s{i}", tokens, tuple(random_valid_tags(rng, voc, n))))
    return Corpus(tuple(sentences), voc)


def markov_cycle_corpus(rng, voc, n_sentences, vocab_size=50, min_len=5, max_len=12,
                        id_prefix="s"):
    """Corpus whose tags follow a deterministic cycle driven only by the
    previous tag; tokens are uniform noise, so per-token models are blind."""
    from nerchain.conll_io import Corpus, Sentence

    cycle = {voc.start_index: 0}
    prev = 0
    for etype in voc.entity_types:
        cycle[prev] = voc.begin_of(etype)
        cycle[voc.begin_of(etype)] = voc.inside_of(etype)
        prev = voc.inside_of(etype)
    cycle[prev] = 0

    sentences = []
    for i in range(n_sentences):
        n = int(rng.integers(min_len, max_len + 1))
        tokens = tuple(f"w{rng.integers(vocab_size)}" for _ in range(n))
        tags = []
        state = voc.start_index
        for _ in range(n):
            state = cycle[state]
            tags.append(state)
        sentences.append(Sentence(f"{id_prefix}{i}", tokens, tuple(tags)))
    return Corpus(tuple(sentences), voc)

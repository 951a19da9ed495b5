"""Token encoders: embedding lookup, BiLSTM, linear projection, FC softmax head.

One pair, emissions_forward/emissions_backward, maps embeddings to per-tag
scores (n, k) and back for all three heads:

  crf         embeddings -> dropout -> linear projection -> emissions
  bilstm-crf  embeddings -> dropout -> BiLSTM -> dropout -> projection -> emissions
  linear      embeddings -> dropout -> FC -> relu -> dropout -> FC -> log-softmax

The CRF heads' scores are emissions; the linear head's are log-probabilities,
and its backward takes the gradient at the logits (cross_entropy_and_grads).
emissions_forward takes a list of sentences, for training and decoding alike,
and gives each sentence the bits it gets alone; a one-sentence list also
yields the cache that emissions_backward consumes.

The embeddings come from an EmbeddingSource: ingested per-sentence matrices
(an embedding file) or a trainable lookup table. It stores only the data;
its kind and width are read off that data.

All parameters live in a flat dict[str, ndarray] so the optimizer and the
checkpoint can treat every architecture uniformly. Keys:

  embed.table                                  (|V|, d)   trainable source only
  lstm.{fw,bw}.wx / .wh / .b                   (4h, d) / (4h, h) / (4h,)
  proj.w / proj.b                              (k, m) / (k,)
  fc.w1 / fc.b1 / fc.w2 / fc.b2                (fc, d) / (fc,) / (k, fc) / (k,)
  crf.trans                                    (k+2, k+2)

Forward passes are pure given parameters and input; a one-sentence forward
returns a cache consumed exactly once by its backward. Backward passes are exact
reverse-mode gradients, which they write into the arrays of the dict they are
given (in training, views of the optimizer's gradient vector) and return by key.
Dropout uses inverted scaling and is applied only at a rate above 0; evaluation
passes none, so it is deterministic.

The LSTM cell is the standard 4-gate form: gate order (i, f, g, o) with
sigmoid/sigmoid/tanh/sigmoid, c_t = f*c_{t-1} + i*g, h_t = o*tanh(c_t),
zero initial state. Weights initialize uniform(-0.1, 0.1); biases zero
except the forget-gate section, which starts at 1.

bilstm_forward is the time loop, and bilstm_backward the reversed one. Only
the recurrence runs in the Python time loop, and one loop serves any list of
sentences, one included, and both directions of each: sentence r of a
crf.LengthLayout (longest first, so the sentences still running at a step are
a prefix) puts its forward and backward directions in rows 2r and 2r + 1;
both directions of a sentence run the same number of steps, so the running
rows stay a prefix. Each (sentence, direction) input projection x @ wx.T + b
is written into its row of a (steps, rows, 4h) array as one matmul (one
stacked matmul would send 1-token sentences down another BLAS path). A step
adds wh @ h_prev to its rows there and copies them into a gate-major
(4, rows, h) block, so that each gate i, f, g and o of the running rows is
one contiguous (rows, h) array for the activations and the cell update: one
in-place sigmoid over the block, with tanh on the g gate. (Adding straight
into the block reads both operands across gates, which cost more than the
copy at decode batch sizes.) States are kept as (sentences, 2, h, 1) columns
against the (2, 4h, h) stack of both directions' recurrent weights, for which
np.matmul makes one BLAS gemv per row, the call wh @ h_prev makes for one
direction of one sentence; the rest is elementwise, so a sentence gets the
same bits in any batch (h_prev @ wh.T, one gemm, might not). A one-sentence
list keeps the loop's arrays as the cache its backward reads (LstmCache); a
longer list keeps no cache, and there every step writes its gates, c and
tanh(c) over the step before's, since a step reads only the c before it.
The loop's rows run each direction in its own step order; after the loop, each
sentence's token-order (n, 2h) rows are its forward states beside its backward
states reversed.

bilstm_backward lays the gradient at those rows out per direction in step
order and runs one reversed loop over the same rows; each step forms
every row's dh_next = dz @ wh as one stacked matmul of (1, 4h) rows against
the weight stack. It writes each step's gate gradient into a row of dZ and,
after the loop, forms each direction's weight gradients as one matmul each:
dwx = dZ.T @ x, dwh = dZ[1:].T @ h[:-1], db = dZ.sum(0), and dx = dZ @ wx,
the backward direction's dx reversed back to token order before the two are
added. The sums run in a different order than a per-step loop would take, so
results agree with one to rounding, not bits.
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .conll_io import EmbeddingError, EmbeddingSet, Sentence, TokenVocabulary
from .crf import LengthLayout, _tag_indices, pin_boundary

ARCHITECTURES = ("crf", "bilstm-crf", "linear")
DIRECTIONS = ("fw", "bw")  # the BiLSTM's directions, in their row order

INIT_SCALE = 0.1


class EncoderError(ValueError):
    pass


def _uniform(rng, shape):
    return rng.uniform(-INIT_SCALE, INIT_SCALE, shape)


def _dropout(values, rate, rng):
    """Inverted dropout at a rate above 0: (values, mask), mask None when off."""
    if not rate > 0.0:
        return values, None
    if rate >= 1.0:
        raise EncoderError(f"dropout rate must be in [0, 1), got {rate}")
    mask = (rng.random(values.shape) >= rate) / (1.0 - rate)
    return values * mask, mask


# ---------------------------------------------------------------------------
# embedding source


@dataclass
class EmbeddingSource:
    """Either precomputed per-sentence matrices (embeddings) or a trainable
    lookup table over token_vocab; the source is trainable iff table is set."""

    embeddings: EmbeddingSet | None = None
    table: np.ndarray | None = None
    token_vocab: TokenVocabulary | None = None

    @property
    def dim(self) -> int:
        return self.embeddings.dim if self.table is None else self.table.shape[1]


@dataclass
class EmbedCache:
    mask: np.ndarray | None
    indices: np.ndarray | None  # None for an ingested source


def embed(sentence: Sentence, source: EmbeddingSource, dropout: float = 0.0, rng=None):
    """Token representations for one sentence, (n, d) plus backward cache."""
    if source.table is None:
        base = source.embeddings[sentence.id]
        if base.shape != (len(sentence), source.dim):
            raise EmbeddingError(
                f"sentence {sentence.id!r}: embedding shape {base.shape}, "
                f"expected ({len(sentence)}, {source.dim})"
            )
        # a copy, made here only when dropout's multiply will not make one
        x = base.astype(np.float64, copy=not dropout > 0.0)
        indices = None
    else:
        indices = source.token_vocab.indices(sentence.tokens)
        x = source.table[indices].astype(np.float64, copy=False)

    x, mask = _dropout(x, dropout, rng)
    return x, EmbedCache(mask, indices)


def embed_backward(cache: EmbedCache, grad_x: np.ndarray, out: dict) -> dict:
    """Gradient of the embedding table, written into out; {} for ingested sources."""
    if cache.indices is None:
        return {}
    if cache.mask is not None:
        grad_x = grad_x * cache.mask
    out["embed.table"][...] = 0.0
    np.add.at(out["embed.table"], cache.indices, grad_x)
    return {"embed.table": out["embed.table"]}


# ---------------------------------------------------------------------------
# BiLSTM


@dataclass
class LstmCache:
    """One sentence's time loop: [t, r] of each (n, 2, h) array, and [t, :, r]
    of the gates, is direction DIRECTIONS[r] at its step t. The backward
    direction steps through the sentence in reverse."""

    x: np.ndarray  # the forward input; the backward direction reads x[::-1]
    wx: tuple  # each direction's (4h, d) input weights
    wh: np.ndarray  # (2, 4h, h): each direction's recurrent weights
    # (n, 4, 2, h), gate-major: gates[t, 0..3] are sigmoid(i), sigmoid(f),
    # tanh(g), sigmoid(o) of both directions at step t
    gates: np.ndarray
    c: np.ndarray  # (n, 2, h), each direction's cell state per step
    tanh_c: np.ndarray  # (n, 2, h)
    h: np.ndarray  # (n, 2, h), h[t, r] is the state direction r emits at its step t


def bilstm_forward(xs, params: dict):
    """Concatenated forward/backward hidden states of every sentence in xs, one
    (n_j, 2h) array each, from one time loop, plus the cache of a one-sentence
    list (None for any other length).

    Row t is [h_fw(t) ; h_bw(t)] where the backward direction scans the
    reversed sequence and its states are re-aligned to token positions.
    """
    wxs, whs, bs = ([params[f"lstm.{d}.{p}"] for d in DIRECTIONS] for p in ("wx", "wh", "b"))
    h = whs[0].shape[1]
    for x in xs:
        if x.ndim != 2 or x.shape[0] < 1:
            raise EncoderError(f"input must be (n, d) with n >= 1, got {x.shape}")
        for wx, wh, b in zip(wxs, whs, bs):
            if wx.shape != (4 * h, x.shape[1]) or wh.shape != (4 * h, h) or b.shape != (4 * h,):
                raise EncoderError(f"inconsistent lstm shapes wx={wx.shape} wh={wh.shape} "
                                   f"b={b.shape} d={x.shape[1]}")
    wh = np.stack(whs)
    layout = LengthLayout(len(x) for x in xs)
    steps, rows = max(layout.lengths, default=0), 2 * len(xs)
    proj = np.empty((steps, rows, 4 * h))  # the input projections; the loop adds wh @ h_prev
    for row, j in enumerate(layout.order):
        for r, (x, wx, b) in enumerate(zip((xs[j], xs[j][::-1]), wxs, bs)):
            z = proj[:len(x), 2 * row + r]
            np.matmul(x, wx.T, out=z)
            z += b
    proj_gm = proj.reshape(steps, rows, 4, h).transpose(0, 2, 1, 3)  # step -> (4, rows, h)
    keep = len(xs) == 1
    if keep:  # the cache keeps every step's gates, c and tanh(c)
        gates, cs, tc = np.empty((steps, 4, rows, h)), *np.empty((2, steps, rows, h))
    else:  # a step reads only the c before it, so all steps write one buffer each
        block, c_all, tc_all = np.empty(4 * rows * h), *np.empty((2, rows, h))
    cols = np.empty((steps, len(xs), 2, h, 1))  # states as (h, 1) columns, for which
    hs = cols.reshape(steps, rows, h)  # matmul(wh, h_prev) makes one gemv call per row
    g_all = np.empty((rows, h))
    rec_all = np.empty((len(xs), 2, 4 * h, 1))
    h_prev = c_prev = None
    for start, end, count in layout.runs:
        m = 2 * count  # the running rows
        if start:  # the states the run's rows carry in from the run before
            h_prev, c_prev = h_prev[:count], c_prev[:m]
        # the tanh(g) and wh @ h_prev buffers (the latter as columns and rows)
        g, rec, rec_rows = g_all[:m], rec_all[:count], rec_all[:count].reshape(m, 4 * h)
        # each step's contiguous (4, m, h) gate block, c and tanh(c); one sentence is one run
        kept = (gates, cs, tc) if keep else map(
            repeat, (block[:4 * m * h].reshape(4, m, h), c_all[:m], tc_all[:m]))
        run = (proj[start:end, :m], proj_gm[start:end, :, :m], *kept, hs[start:end, :m],
               cols[start:end, :count])
        # one view per step and array, so the loop body only calls ufuncs
        for p, p_gm, z, c, tanh_c, h_t, col in zip(*run):
            if h_prev is not None:
                np.matmul(wh, h_prev, out=rec)
                p += rec_rows
            z[...] = p_gm  # gate-major from here on
            i, f, g_z, o = z
            np.tanh(g_z, out=g)
            np.negative(z, out=z)  # sigmoid over the whole gate block, in place ...
            np.exp(z, out=z)
            z += 1.0
            np.reciprocal(z, out=z)
            g_z[...] = g  # ... with tanh on the g gate
            if c_prev is None:
                np.multiply(i, g, out=c)
            else:  # c may be c_prev itself, so c_prev is read first
                np.multiply(f, c_prev, out=c)
                g *= i
                c += g
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h_t)
            h_prev, c_prev = col, c
    cache = LstmCache(xs[0], tuple(wxs), wh, gates, cs, tc, hs) if keep else None
    states = (hs.reshape(steps, len(xs), 2, h)[:n, row] for row, n in enumerate(layout.lengths))
    return layout.unstack(np.concatenate([s[:, 0], s[::-1, 1]], axis=1) for s in states), cache


def bilstm_backward(cache: LstmCache, grad_out: np.ndarray, out: dict):
    """Exact gradients through both directions from one reversed time loop,
    given grad_out (n, 2h), the gradient at bilstm_forward's rows; returns
    (grad_x, param grads), the latter written into out's arrays."""
    n, _, h = cache.h.shape
    if grad_out.shape != (n, 2 * h):
        raise EncoderError(f"grad shape {grad_out.shape} does not match cache")
    # each direction's gradient at cache.h, in its own step order
    grad_h = np.stack([grad_out[:, :h], grad_out[::-1, h:]], axis=1)
    i, f, g, o = cache.gates.transpose(1, 0, 2, 3)
    tc = cache.tanh_c
    c_prev = np.zeros((n, 2, h))
    c_prev[1:] = cache.c[:-1]
    # the factors that do not depend on the recurrence, for every step at once:
    # dc = dc_next + dh * dc_dh, dz_(i,f,g) = dc * dz_dc and dz_o = dh * dz_dh
    dz_dc = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g)], axis=2)
    dz_dh = tc * o * (1.0 - o)
    dc_dh = o * (1.0 - tc * tc)
    dz = np.empty((2, n, 4 * h))  # dz[r, t] is direction r's gradient at its step t's gates
    by_step = dz.reshape(2, n, 4, h).transpose(1, 0, 2, 3)  # step -> (2, 4, h)
    rows = dz.reshape(2, n, 1, 4 * h).transpose(1, 0, 2, 3)  # step -> (2, 1, 4h)
    dh_next = np.zeros((2, h))
    dc_next = np.zeros((2, h))
    rec = np.empty((2, 1, h))
    steps = zip(grad_h, dc_dh, dz_dc, dz_dh, f, by_step, rows)
    for grad, dc_dh_t, dz_dc_t, dz_dh_t, f_t, dz_t, dz_rows in reversed(list(steps)):
        dh = grad + dh_next
        dc = dh * dc_dh_t
        dc += dc_next
        np.multiply(dz_dc_t, dc[:, None], out=dz_t[:, :3])
        np.multiply(dz_dh_t, dh, out=dz_t[:, 3])
        dc_next = dc * f_t
        np.matmul(dz_rows, cache.wh, out=rec)  # one (1, 4h) @ (4h, h) per direction
        dh_next = rec[:, 0]
    # each weight gradient sums every step's outer product in one matmul;
    # step 0 has no h_prev, so it adds nothing to dwh. The states go in
    # contiguous, as a one-direction loop wrote them: at h = 1 the matmul is
    # a gemv, whose sum over a strided vector takes another order.
    grads, dx = {}, []
    for d, flat, wx, x, states in zip(DIRECTIONS, dz, cache.wx, (cache.x, cache.x[::-1]),
                                      cache.h.transpose(1, 0, 2)):
        dx.append(flat @ wx)  # in the direction's step order
        wx_key, wh_key, b_key = (f"lstm.{d}.{p}" for p in ("wx", "wh", "b"))
        grads[wx_key] = np.matmul(flat.T, x, out=out[wx_key])
        grads[wh_key] = np.matmul(flat[1:].T, np.ascontiguousarray(states[:-1]), out=out[wh_key])
        grads[b_key] = np.add.reduce(flat, axis=0, out=out[b_key])
    return dx[0] + dx[1][::-1], grads


# ---------------------------------------------------------------------------
# linear projection to emission scores


def project(features: np.ndarray, params: dict) -> np.ndarray:
    """Per-row affine map to tag space: row i = W @ feature_i + b."""
    w, b = params["proj.w"], params["proj.b"]
    if features.ndim != 2 or features.shape[1] != w.shape[1]:
        raise EncoderError(f"feature shape {features.shape} does not match W {w.shape}")
    return features @ w.T + b


def _affine_backward(x, w, grad_y, dw, db):
    """(dx, dw, db) of the rows y = x @ w.T + b, given the gradient at y, into dw and db."""
    return grad_y @ w, np.matmul(grad_y.T, x, out=dw), np.add.reduce(grad_y, axis=0, out=db)


# ---------------------------------------------------------------------------
# FC softmax head


def fc_head_forward(x: np.ndarray, params: dict, dropout: float = 0.0, rng=None):
    """Two affine layers with relu between, then per-token log-softmax.

    Returns (log_probs, cache); probability rows sum to 1.
    """
    w1, b1, w2, b2 = params["fc.w1"], params["fc.b1"], params["fc.w2"], params["fc.b2"]
    if x.ndim != 2 or x.shape[1] != w1.shape[1]:
        raise EncoderError(f"input shape {x.shape} does not match W1 {w1.shape}")
    z1 = x @ w1.T + b1
    hidden, mask = _dropout(np.maximum(z1, 0.0), dropout, rng)
    logits = hidden @ w2.T + b2
    shift = logits - logits.max(axis=1, keepdims=True)
    log_probs = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
    return log_probs, EmissionCache(hidden, mask, x=x, z1=z1)


def cross_entropy_and_grads(log_probs: np.ndarray, gold):
    """Mean token-level negative log probability of the gold tags and its
    gradient with respect to the logits; returns (loss, d_logits)."""
    gold = _tag_indices(gold, EncoderError)
    if log_probs.ndim != 2 or log_probs.shape[0] < 1:
        raise EncoderError(f"log-probabilities must be (n, k) with n >= 1, got {log_probs.shape}")
    n, k = log_probs.shape
    if len(gold) != n:
        raise EncoderError(f"{len(gold)} gold tags for {n} tokens")
    if (gold.view(np.uintp) >= k).any():  # a negative index reads as a huge unsigned one
        raise EncoderError("gold tag index out of range")
    loss = -float(log_probs[np.arange(n), gold].mean())

    d_logits = np.exp(log_probs)
    d_logits[np.arange(n), gold] -= 1.0
    d_logits /= n
    return loss, d_logits


# ---------------------------------------------------------------------------
# architecture assembly


def param_shapes(arch: str, dim: int, k: int, hidden: int = 256, fc_size: int = 512,
                 vocab_size: int | None = None) -> dict[str, tuple[int, ...]]:
    """Key -> shape of every trainable array of one architecture, in the
    order init_params draws them. Pure: allocates nothing."""
    if arch not in ARCHITECTURES:
        raise EncoderError(f"unknown architecture {arch!r}")
    shapes: dict[str, tuple[int, ...]] = {}
    if vocab_size is not None:
        shapes["embed.table"] = (vocab_size, dim)
    if arch == "bilstm-crf":
        for d in DIRECTIONS:
            shapes[f"lstm.{d}.wx"] = (4 * hidden, dim)
            shapes[f"lstm.{d}.wh"] = (4 * hidden, hidden)
            shapes[f"lstm.{d}.b"] = (4 * hidden,)
    if arch == "linear":
        shapes.update({"fc.w1": (fc_size, dim), "fc.b1": (fc_size,),
                       "fc.w2": (k, fc_size), "fc.b2": (k,)})
    else:
        shapes["proj.w"] = (k, 2 * hidden if arch == "bilstm-crf" else dim)
        shapes["proj.b"] = (k,)
        shapes["crf.trans"] = (k + 2, k + 2)
    return shapes


def init_params(arch: str, dim: int, k: int, hidden: int = 256, fc_size: int = 512,
                vocab_size: int | None = None, rng=None) -> dict:
    """All trainable arrays for one architecture, in a fixed draw order."""
    params: dict[str, np.ndarray] = {}
    for key, shape in param_shapes(arch, dim, k, hidden, fc_size, vocab_size).items():
        if key == "crf.trans":
            params[key] = np.zeros(shape)
            pin_boundary(params[key])
        elif len(shape) == 2:  # weight matrices and the embedding table
            params[key] = _uniform(rng, shape)
        else:  # biases
            params[key] = np.zeros(shape)
            if key.startswith("lstm."):
                params[key][hidden:2 * hidden] = 1.0  # forget gate opens by default
    return params


@dataclass
class EmissionCache:
    feats: np.ndarray  # input of the output layer (proj.w or fc.w2)
    mask: np.ndarray | None  # dropout mask applied to feats
    lstm: LstmCache | None = None  # bilstm-crf only
    x: np.ndarray | None = None  # linear only: the head's input
    z1: np.ndarray | None = None  # linear only: the first layer before relu


def emissions_forward(arch: str, params: dict, xs: list, dropout: float = 0.0, rng=None):
    """Per-tag scores (n_j, k) of every sentence in xs, in input order:
    emissions for the CRF heads, log-probabilities for the linear head.

    Returns (scores, cache), cache the backward cache of a one-sentence list
    and None for any other length. Dropout masks are drawn per sentence in
    input order. The bilstm-crf head runs one LSTM time loop for all of xs;
    the other heads map each sentence with its own matmuls.
    """
    if arch == "linear":
        pairs = [fc_head_forward(x, params, dropout, rng) for x in xs]
    elif arch == "crf":
        pairs = [(project(x, params), EmissionCache(x, None)) for x in xs]
    elif arch == "bilstm-crf":
        states, lstm_cache = bilstm_forward(xs, params)
        pairs = [(project(hidden, params), EmissionCache(hidden, mask, lstm_cache))
                 for hidden, mask in (_dropout(s, dropout, rng) for s in states)]
    else:
        raise EncoderError(f"unknown architecture {arch!r}")
    return [scores for scores, _ in pairs], pairs[0][1] if len(pairs) == 1 else None


def emissions_backward(params: dict, cache: EmissionCache, grad_scores: np.ndarray, out: dict):
    """Backward through one sentence's emission path; returns (grad_x, param grads),
    written into out. For the linear head grad_scores is the gradient at the logits."""
    w, b = ("proj.w", "proj.b") if cache.z1 is None else ("fc.w2", "fc.b2")
    dfeats, dw, db = _affine_backward(cache.feats, params[w], grad_scores, out[w], out[b])
    grads = {w: dw, b: db}
    if cache.mask is not None:
        dfeats = dfeats * cache.mask
    if cache.lstm is not None:
        dx, lstm_grads = bilstm_backward(cache.lstm, dfeats, out)
        grads.update(lstm_grads)
        return dx, grads
    if cache.z1 is not None:
        dz1 = dfeats * (cache.z1 > 0.0)
        dx, grads["fc.w1"], grads["fc.b1"] = _affine_backward(cache.x, params["fc.w1"], dz1,
                                                              out["fc.w1"], out["fc.b1"])
        return dx, grads
    return dfeats, grads

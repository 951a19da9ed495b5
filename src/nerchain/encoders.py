"""Token encoders: embedding lookup, BiLSTM, linear projection, FC softmax head.

One pair, emissions_forward/emissions_backward, maps a sentence's embeddings
to per-tag scores (n, k) and back for all three heads:

  crf         embeddings -> dropout -> linear projection -> emissions
  bilstm-crf  embeddings -> dropout -> BiLSTM -> dropout -> projection -> emissions
  linear      embeddings -> dropout -> FC -> relu -> dropout -> FC -> log-softmax

The CRF heads' scores are emissions; the linear head's are log-probabilities,
and its backward takes the gradient at the logits (cross_entropy_and_grads).
emissions_batch gives the evaluation-mode scores of a list of sentences, bit
for bit those of emissions_forward on each.

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

Forward passes are pure given parameters and input; every forward returns a
cache consumed exactly once by its backward. Backward passes are exact
reverse-mode gradients. Dropout uses inverted scaling and is applied only at
a rate above 0; evaluation passes none, so it is deterministic.

The LSTM cell is the standard 4-gate form: gate order (i, f, g, o) with
sigmoid/sigmoid/tanh/sigmoid, c_t = f*c_{t-1} + i*g, h_t = o*tanh(c_t),
zero initial state. Weights initialize uniform(-0.1, 0.1); biases zero
except the forget-gate section, which starts at 1.

Only the recurrence runs in the Python time loop, and one loop serves any
list of sentences, one included: they are the rows of a crf.LengthLayout
(longest first, so the rows still running at a step are a prefix) in a
(steps, rows, 4h) gate array, into which each sentence's input projection
x @ wx.T + b is written as one matmul (one stacked matmul would send 1-token
sentences down another BLAS path). A step adds wh @ h_prev to its rows, then
applies one in-place sigmoid to the gate block, with tanh on the g slice.
States are kept as (rows, h, 1) columns, for which np.matmul(wh, h_prev)
makes one BLAS gemv per row, the call wh @ h_prev makes for one sentence;
the rest is elementwise, so a sentence gets the same bits in any batch
(h_prev @ wh.T, one gemm, might not). Training passes one sentence, and its
backward reads a cache of row 0's views; decoding (emissions_batch) passes
batches and keeps no cache.

The backward writes each step's gate gradient into a row of dZ and, after
the loop, forms the weight gradients as one matmul each: dwx = dZ.T @ x,
dwh = dZ[1:].T @ h[:-1], db = dZ.sum(0), and dx = dZ @ wx. The sums run in
a different order than a per-step loop would take, so results agree with one
to rounding, not bits.
"""

from dataclasses import dataclass

import numpy as np

from .conll_io import EmbeddingError, EmbeddingSet, Sentence, TokenVocabulary
from .crf import LengthLayout, pin_boundary

ARCHITECTURES = ("crf", "bilstm-crf", "linear")

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
    table_shape: tuple | None


def embed(sentence: Sentence, source: EmbeddingSource, dropout: float = 0.0, rng=None):
    """Token representations for one sentence, (n, d) plus backward cache."""
    if source.table is None:
        base = source.embeddings[sentence.id]
        if base.shape != (len(sentence), source.dim):
            raise EmbeddingError(
                f"sentence {sentence.id!r}: embedding shape {base.shape}, "
                f"expected ({len(sentence)}, {source.dim})"
            )
        x = base.astype(np.float64, copy=True)
        indices = shape = None
    else:
        indices = source.token_vocab.indices(sentence.tokens)
        x = source.table[indices].astype(np.float64)
        shape = source.table.shape

    x, mask = _dropout(x, dropout, rng)
    return x, EmbedCache(mask, indices, shape)


def embed_backward(cache: EmbedCache, grad_x: np.ndarray) -> dict:
    """Gradient of the embedding table; empty for ingested sources."""
    if cache.indices is None:
        return {}
    if cache.mask is not None:
        grad_x = grad_x * cache.mask
    grad_table = np.zeros(cache.table_shape)
    np.add.at(grad_table, cache.indices, grad_x)
    return {"embed.table": grad_table}


# ---------------------------------------------------------------------------
# BiLSTM


@dataclass
class _LstmCache:
    x: np.ndarray
    wx: np.ndarray
    wh: np.ndarray
    gates: np.ndarray  # (n, 4h): sigmoid(i), sigmoid(f), tanh(g), sigmoid(o) per step
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray  # (n, h), h[t] is the state emitted at step t


def _lstm_forward(xs, wx, wh, b):
    """One direction's states for every sentence in xs, from one time loop.

    Returns (states, cache): states[j] is the (n_j, h) state matrix of xs[j].
    The sentences are the rows of one LengthLayout, even one sentence, for
    which cache is what _lstm_backward reads (row 0's views); else None.
    """
    h = wh.shape[1]
    for x in xs:
        if x.ndim != 2 or x.shape[0] < 1:
            raise EncoderError(f"input must be (n, d) with n >= 1, got {x.shape}")
        if wx.shape != (4 * h, x.shape[1]) or wh.shape != (4 * h, h) or b.shape != (4 * h,):
            raise EncoderError(
                f"inconsistent lstm shapes wx={wx.shape} wh={wh.shape} b={b.shape} d={x.shape[1]}"
            )
    layout = LengthLayout(len(x) for x in xs)
    steps, rows = max(layout.lengths, default=0), len(xs)
    gates = np.empty((steps, rows, 4 * h))  # the input projections; the loop adds wh @ h_prev
    for row, j in enumerate(layout.order):
        z = gates[:len(xs[j]), row]
        np.matmul(xs[j], wx.T, out=z)
        z += b
    split = gates.reshape(steps, rows, 4, h).transpose(0, 2, 1, 3)  # step -> (4, rows, h)
    cs = np.empty((steps, rows, h)); tc = np.empty((steps, rows, h))
    cols = np.empty((steps, rows, h, 1))  # states as a stack of (h, 1) columns, so
    hs = cols[..., 0]  # that matmul(wh, h_prev) makes one gemv call per row
    g_all = np.empty((rows, h))
    rec_all = np.empty((rows, 4 * h, 1))
    h_prev = c_prev = None
    for start, end, count in layout.runs:
        if start:  # the states the run's rows carry in from the run before
            h_prev, c_prev = cols[start - 1, :count], cs[start - 1, :count]
        # the tanh(g) and wh @ h_prev buffers (the latter as columns and rows)
        g, rec, rec_rows = g_all[:count], rec_all[:count], rec_all[:count, :, 0]
        run = (gates[start:end, :count], split[start:end, :, :count], cs[start:end, :count],
               tc[start:end, :count], hs[start:end, :count], cols[start:end, :count])
        # one view per step and array, so the loop body only calls ufuncs
        for z, (i, f, g_z, o), c, tanh_c, h_t, col in zip(*run):
            if h_prev is not None:
                np.matmul(wh, h_prev, out=rec)
                z += rec_rows
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
            h_prev, c_prev = col, c
    cache = (_LstmCache(xs[0], wx, wh, gates[:, 0], cs[:, 0], tc[:, 0], hs[:, 0])
             if rows == 1 else None)
    return layout.unstack(hs[:n, row] for row, n in enumerate(layout.lengths)), cache


def _lstm_backward(cache: _LstmCache, grad_h):
    x, wx, wh, tc = cache.x, cache.wx, cache.wh, cache.tanh_c
    n, h = cache.h.shape
    i, f, g, o = cache.gates.reshape(n, 4, h).transpose(1, 0, 2)
    c_prev = np.zeros((n, h))
    c_prev[1:] = cache.c[:-1]
    # the factors that do not depend on the recurrence, for every step at once:
    # dc = dc_next + dh * dc_dh, dz_(i,f,g) = dc * dz_dc and dz_o = dh * dz_dh
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
    # each weight gradient sums every step's outer product in one matmul;
    # step 0 has no h_prev, so it adds nothing to dwh
    dwh = flat[1:].T @ cache.h[:-1]
    return flat @ wx, flat.T @ x, dwh, flat.sum(axis=0)


@dataclass
class BiLstmCache:
    fw: _LstmCache
    bw: _LstmCache


def bilstm_forward(x: np.ndarray, params: dict):
    """Concatenated forward/backward hidden states, (n, 2h) plus cache.

    Row t is [h_fw(t) ; h_bw(t)] where the backward direction scans the
    reversed sequence and its states are re-aligned to token positions.
    """
    (out,), cache = _bilstm([x], params)
    return out, cache


def _bilstm(xs, params):
    """bilstm_forward of every sentence in xs, one time loop per direction;
    the caches are set when xs holds one sentence."""
    fw, cache_fw = _lstm_forward(xs, params["lstm.fw.wx"], params["lstm.fw.wh"],
                                 params["lstm.fw.b"])
    bw, cache_bw = _lstm_forward([x[::-1] for x in xs], params["lstm.bw.wx"],
                                 params["lstm.bw.wh"], params["lstm.bw.b"])
    outs = [np.concatenate([h_fw, h_bw[::-1]], axis=1) for h_fw, h_bw in zip(fw, bw)]
    return outs, BiLstmCache(cache_fw, cache_bw)


def bilstm_backward(cache: BiLstmCache, grad_out: np.ndarray):
    """Exact gradients through both directions; returns (grad_x, param grads)."""
    h = cache.fw.h.shape[1]
    if grad_out.shape != (cache.fw.h.shape[0], 2 * h):
        raise EncoderError(f"grad shape {grad_out.shape} does not match cache")
    dx_fw, dwx_fw, dwh_fw, db_fw = _lstm_backward(cache.fw, grad_out[:, :h])
    dx_bw, dwx_bw, dwh_bw, db_bw = _lstm_backward(cache.bw, grad_out[:, h:][::-1])
    grads = {
        "lstm.fw.wx": dwx_fw, "lstm.fw.wh": dwh_fw, "lstm.fw.b": db_fw,
        "lstm.bw.wx": dwx_bw, "lstm.bw.wh": dwh_bw, "lstm.bw.b": db_bw,
    }
    return dx_fw + dx_bw[::-1], grads


# ---------------------------------------------------------------------------
# linear projection to emission scores


def project(features: np.ndarray, params: dict) -> np.ndarray:
    """Per-row affine map to tag space: row i = W @ feature_i + b."""
    w, b = params["proj.w"], params["proj.b"]
    if features.ndim != 2 or features.shape[1] != w.shape[1]:
        raise EncoderError(f"feature shape {features.shape} does not match W {w.shape}")
    return features @ w.T + b


def project_backward(features: np.ndarray, params: dict, grad_scores: np.ndarray):
    w = params["proj.w"]
    grads = {"proj.w": grad_scores.T @ features, "proj.b": grad_scores.sum(axis=0)}
    return grad_scores @ w, grads


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
    gold = [int(t) for t in gold]
    n, k = log_probs.shape
    if len(gold) != n:
        raise EncoderError(f"{len(gold)} gold tags for {n} tokens")
    if any(not 0 <= t < k for t in gold):
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
        for d in ("fw", "bw"):
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
    lstm: BiLstmCache | None = None  # bilstm-crf only
    x: np.ndarray | None = None  # linear only: the head's input
    z1: np.ndarray | None = None  # linear only: the first layer before relu


def emissions_forward(arch: str, params: dict, x: np.ndarray, dropout: float = 0.0, rng=None):
    """Per-tag scores (n, k) of one sentence plus backward cache: emissions
    for the CRF heads, log-probabilities for the linear head."""
    if arch == "linear":
        return fc_head_forward(x, params, dropout, rng)
    if arch == "crf":
        return project(x, params), EmissionCache(x, None)
    if arch == "bilstm-crf":
        hidden, lstm_cache = bilstm_forward(x, params)
        hidden, mask = _dropout(hidden, dropout, rng)
        return project(hidden, params), EmissionCache(hidden, mask, lstm_cache)
    raise EncoderError(f"unknown architecture {arch!r}")


def emissions_batch(arch: str, params: dict, xs: list) -> list[np.ndarray]:
    """Evaluation-mode scores of several sentences, bit for bit emissions_forward
    of each; the bilstm-crf head runs one LSTM time loop per direction for all."""
    if arch != "bilstm-crf":
        return [emissions_forward(arch, params, x)[0] for x in xs]
    return [project(hidden, params) for hidden in _bilstm(xs, params)[0]]


def emissions_backward(params: dict, cache: EmissionCache, grad_scores: np.ndarray):
    """Backward through the emission path; returns (grad_x, param grads).
    For the linear head grad_scores is the gradient at the logits."""
    if cache.z1 is None:
        dfeats, grads = project_backward(cache.feats, params, grad_scores)
    else:
        grads = {"fc.w2": grad_scores.T @ cache.feats, "fc.b2": grad_scores.sum(axis=0)}
        dfeats = grad_scores @ params["fc.w2"]
    if cache.mask is not None:
        dfeats = dfeats * cache.mask
    if cache.lstm is not None:
        dx, lstm_grads = bilstm_backward(cache.lstm, dfeats)
        grads.update(lstm_grads)
        return dx, grads
    if cache.z1 is not None:
        dz1 = dfeats * (cache.z1 > 0.0)
        grads["fc.w1"] = dz1.T @ cache.x
        grads["fc.b1"] = dz1.sum(axis=0)
        return dz1 @ params["fc.w1"], grads
    return dfeats, grads

"""Token encoders: embedding lookup, BiLSTM, linear projection, FC softmax head.

One pair, emissions_forward/emissions_backward, maps a sentence's embeddings
to per-tag scores (n, k) and back for all three heads:

  crf         embeddings -> dropout -> linear projection -> emissions
  bilstm-crf  embeddings -> dropout -> BiLSTM -> dropout -> projection -> emissions
  linear      embeddings -> dropout -> FC -> relu -> dropout -> FC -> log-softmax

The CRF heads' scores are emissions; the linear head's are log-probabilities,
and its backward takes the gradient at the logits (cross_entropy_and_grads).

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
reverse-mode gradients. Dropout uses inverted scaling and is applied only in
training mode, so evaluation is deterministic.

The LSTM cell is the standard 4-gate form: gate order (i, f, g, o) with
sigmoid/sigmoid/tanh/sigmoid, c_t = f*c_{t-1} + i*g, h_t = o*tanh(c_t),
zero initial state. Weights initialize uniform(-0.1, 0.1); biases zero
except the forget-gate section, which starts at 1.
"""

from dataclasses import dataclass

import numpy as np

from .conll_io import EmbeddingError, EmbeddingSet, Sentence, TokenVocabulary
from .crf import pin_boundary

ARCHITECTURES = ("crf", "bilstm-crf", "linear")

INIT_SCALE = 0.1


class EncoderError(ValueError):
    pass


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _uniform(rng, shape):
    return rng.uniform(-INIT_SCALE, INIT_SCALE, shape)


def _dropout(values, rate, rng, train):
    """Inverted dropout in training mode: (values, mask), mask None when off."""
    if not (train and rate > 0.0):
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


def embed(sentence: Sentence, source: EmbeddingSource, dropout: float = 0.0,
          rng=None, train: bool = False):
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
        indices = np.array([source.token_vocab.lookup(t) for t in sentence.tokens])
        x = source.table[indices].astype(np.float64)
        shape = source.table.shape

    x, mask = _dropout(x, dropout, rng, train)
    return x, EmbedCache(mask, indices, shape)


def embed_backward(cache: EmbedCache, grad_x: np.ndarray) -> dict:
    """Gradient of the embedding table; empty for ingested sources."""
    if cache.mask is not None:
        grad_x = grad_x * cache.mask
    if cache.indices is None:
        return {}
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
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray  # (n, h), h[t] is the state emitted at step t


def _lstm_forward(x, wx, wh, b):
    n = x.shape[0]
    h = wh.shape[1]
    if wx.shape != (4 * h, x.shape[1]) or wh.shape != (4 * h, h) or b.shape != (4 * h,):
        raise EncoderError(
            f"inconsistent lstm shapes wx={wx.shape} wh={wh.shape} b={b.shape} d={x.shape[1]}"
        )
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
    return hs, _LstmCache(x, wx, wh, gi, gf, gg, go, cs, tc, hs)


def _lstm_backward(cache: _LstmCache, grad_h):
    x, wx, wh = cache.x, cache.wx, cache.wh
    n, h = cache.h.shape
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * h)
    dx = np.zeros_like(x)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(n - 1, -1, -1):
        dh = grad_h[t] + dh_next
        do = dh * cache.tanh_c[t]
        dc = dc_next + dh * cache.o[t] * (1.0 - cache.tanh_c[t] ** 2)
        c_prev = cache.c[t - 1] if t > 0 else np.zeros(h)
        h_prev = cache.h[t - 1] if t > 0 else np.zeros(h)
        di = dc * cache.g[t]
        df = dc * c_prev
        dg = dc * cache.i[t]
        dc_next = dc * cache.f[t]
        dz = np.concatenate([
            di * cache.i[t] * (1.0 - cache.i[t]),
            df * cache.f[t] * (1.0 - cache.f[t]),
            dg * (1.0 - cache.g[t] ** 2),
            do * cache.o[t] * (1.0 - cache.o[t]),
        ])
        dwx += np.outer(dz, x[t])
        dwh += np.outer(dz, h_prev)
        db += dz
        dx[t] = wx.T @ dz
        dh_next = wh.T @ dz
    return dx, dwx, dwh, db


@dataclass
class BiLstmCache:
    fw: _LstmCache
    bw: _LstmCache


def bilstm_forward(x: np.ndarray, params: dict):
    """Concatenated forward/backward hidden states, (n, 2h) plus cache.

    Row t is [h_fw(t) ; h_bw(t)] where the backward direction scans the
    reversed sequence and its states are re-aligned to token positions.
    """
    if x.ndim != 2 or x.shape[0] < 1:
        raise EncoderError(f"input must be (n, d) with n >= 1, got {x.shape}")
    h_fw, cache_fw = _lstm_forward(x, params["lstm.fw.wx"], params["lstm.fw.wh"],
                                   params["lstm.fw.b"])
    h_bw, cache_bw = _lstm_forward(x[::-1], params["lstm.bw.wx"], params["lstm.bw.wh"],
                                   params["lstm.bw.b"])
    out = np.concatenate([h_fw, h_bw[::-1]], axis=1)
    return out, BiLstmCache(cache_fw, cache_bw)


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


def fc_head_forward(x: np.ndarray, params: dict, dropout: float = 0.0,
                    rng=None, train: bool = False):
    """Two affine layers with relu between, then per-token log-softmax.

    Returns (log_probs, cache); probability rows sum to 1.
    """
    w1, b1, w2, b2 = params["fc.w1"], params["fc.b1"], params["fc.w2"], params["fc.b2"]
    if x.ndim != 2 or x.shape[1] != w1.shape[1]:
        raise EncoderError(f"input shape {x.shape} does not match W1 {w1.shape}")
    z1 = x @ w1.T + b1
    hidden, mask = _dropout(np.maximum(z1, 0.0), dropout, rng, train)
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


def emissions_forward(arch: str, params: dict, x: np.ndarray, dropout: float = 0.0,
                      rng=None, train: bool = False):
    """Per-tag scores (n, k) of one sentence plus backward cache: emissions
    for the CRF heads, log-probabilities for the linear head."""
    if arch == "linear":
        return fc_head_forward(x, params, dropout, rng, train)
    if arch == "crf":
        return project(x, params), EmissionCache(x, None)
    if arch == "bilstm-crf":
        hidden, lstm_cache = bilstm_forward(x, params)
        hidden, mask = _dropout(hidden, dropout, rng, train)
        return project(hidden, params), EmissionCache(hidden, mask, lstm_cache)
    raise EncoderError(f"unknown architecture {arch!r}")


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

"""Exact linear-chain CRF over emission scores.

A path y = (y_1..y_n) through an emission matrix P (n x k) and transition
matrix A ((k+2) x (k+2), virtual START/STOP states at indices k and k+1)
scores

    s(y) = sum_{i=0..n} A[y_i, y_{i+1}] + sum_{i=1..n} P[i, y_i]

with y_0 = START and y_{n+1} = STOP. The path distribution is the global
softmax of s over all k^n label sequences. All dynamic programs run in log
space with max-shifted logsumexp, in float64. Everything here is pure.
"""

from dataclasses import dataclass

import numpy as np

# Finite stand-in for -inf on the structurally impossible transition cells
# (into START, out of STOP); keeps all gradients defined.
SENTINEL = -1e4


class CrfError(ValueError):
    pass


class NoValidPathError(CrfError):
    """Constrained decoding found no path allowed by the mask."""


class NonFiniteScoreError(CrfError):
    """An emission or transition score is inf or nan."""


def logsumexp(x, axis=None):
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(x - shift).sum(axis=axis, keepdims=True)) + shift
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


@dataclass
class TransitionMatrix:
    """(k+2) x (k+2) transition scores; START is state k, STOP state k+1, and
    their impossible cells are pinned."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 3:
            raise CrfError(f"transition matrix must be square (k+2), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteScoreError("non-finite transition score")
        pin_boundary(v)

    @property
    def k(self) -> int:
        return self.values.shape[0] - 2

    @property
    def start(self) -> int:
        return self.k

    @property
    def stop(self) -> int:
        return self.k + 1

    @classmethod
    def zeros(cls, voc) -> "TransitionMatrix":
        return cls(np.zeros((voc.k + 2, voc.k + 2), dtype=np.float64))


def pin_boundary(values: np.ndarray) -> None:
    """Fix the impossible cells (into START, out of STOP; the last two states)
    at the sentinel."""
    values[:, -2] = SENTINEL
    values[-1, :] = SENTINEL


def _check(P: np.ndarray, A: TransitionMatrix, y=None):
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] < 1:
        raise CrfError(f"emission matrix must be (n, k) with n >= 1, got {P.shape}")
    if P.shape[1] != A.k:
        raise CrfError(f"emissions have {P.shape[1]} tags, transitions expect {A.k}")
    if not np.all(np.isfinite(P)):
        raise NonFiniteScoreError("non-finite emission score")
    if y is not None:
        y = [int(t) for t in y]
        if len(y) != P.shape[0]:
            raise CrfError(f"label path length {len(y)} != sequence length {P.shape[0]}")
        if any(not 0 <= t < A.k for t in y):
            raise CrfError("label path contains an out-of-range tag index")
    return P, y


def sequence_score(P: np.ndarray, A: TransitionMatrix, y) -> float:
    """Score of one label path (transitions including START/STOP, plus emissions)."""
    P, y = _check(P, A, y)
    n = P.shape[0]
    score = A.values[A.start, y[0]] + P[0, y[0]]
    for t in range(1, n):
        score = score + A.values[y[t - 1], y[t]]
        score = score + P[t, y[t]]
    return float(score + A.values[y[n - 1], A.stop])


def _forward(P: np.ndarray, A: TransitionMatrix):
    """Forward algorithm on checked input: log_alpha (n, k) and log Z."""
    n, k = P.shape
    trans = A.values[:k, :k]
    log_alpha = np.empty((n, k))
    log_alpha[0] = A.values[A.start, :k] + P[0]
    for t in range(1, n):
        log_alpha[t] = logsumexp(log_alpha[t - 1][:, None] + trans, axis=0) + P[t]
    return log_alpha, logsumexp(log_alpha[n - 1] + A.values[:k, A.stop])


def log_partition(P: np.ndarray, A: TransitionMatrix) -> float:
    """log sum over all k^n paths of exp(sequence_score), by the forward algorithm."""
    P, _ = _check(P, A)
    return _forward(P, A)[1]


def log_likelihood(P: np.ndarray, A: TransitionMatrix, y) -> float:
    """log p(y) = sequence_score(y) - log_partition; always <= 0."""
    return sequence_score(P, A, y) - log_partition(P, A)


@dataclass
class Marginals:
    """Posterior node/edge probabilities under the path distribution.

    node[i, j]      = p(y_i = j), shape (n, k)
    edge[i, j, j']  = p(y_i = j, y_{i+1} = j'), shape (n-1, k, k)
    log_z           = log_partition, from the same forward pass

    The START and STOP edge probabilities are node[0] and node[n-1]: every
    path leaves START into its first tag and enters STOP from its last.
    """

    node: np.ndarray
    edge: np.ndarray
    log_z: float


def forward_backward(P: np.ndarray, A: TransitionMatrix) -> Marginals:
    P, _ = _check(P, A)
    n, k = P.shape
    trans = A.values[:k, :k]
    log_alpha, log_z = _forward(P, A)

    log_beta = np.empty((n, k))
    log_beta[n - 1] = A.values[:k, A.stop]
    for t in range(n - 2, -1, -1):
        log_beta[t] = logsumexp(trans + (P[t + 1] + log_beta[t + 1])[None, :], axis=1)

    node = np.exp(log_alpha + log_beta - log_z)
    edge = np.empty((n - 1, k, k))
    for t in range(n - 1):
        edge[t] = np.exp(
            log_alpha[t][:, None] + trans + (P[t + 1] + log_beta[t + 1])[None, :] - log_z
        )
    return Marginals(node, edge, log_z)


def nll_gradients(P: np.ndarray, A: TransitionMatrix, y):
    """-log_likelihood and its exact gradients wrt P and A, as (nll, dP, dA),
    from a single forward-backward pass.

    dP[i, j] = p(y_i = j) - 1[gold_i = j]; dA accumulates expected minus
    observed transition counts, START/STOP edges included. The pinned
    boundary cells are structurally unused and receive zero gradient.
    """
    P, y = _check(P, A, y)
    n, k = P.shape
    marg = forward_backward(P, A)
    nll = -(sequence_score(P, A, y) - marg.log_z)  # as -log_likelihood, to the bit

    dP = marg.node.copy()
    dP[np.arange(n), y] -= 1.0

    dA = np.zeros_like(A.values)
    if n > 1:
        dA[:k, :k] = marg.edge.sum(axis=0)
    dA[A.start, :k] = marg.node[0]
    dA[:k, A.stop] += marg.node[n - 1]
    dA[A.start, y[0]] -= 1.0
    for t in range(1, n):
        dA[y[t - 1], y[t]] -= 1.0
    dA[y[n - 1], A.stop] -= 1.0
    return nll, dP, dA


def viterbi_decode(P: np.ndarray, A: TransitionMatrix, mask: np.ndarray | None = None):
    """Highest-scoring path and its score, optionally restricted to mask-valid
    transitions (mask True = allowed, shape (k+2, k+2)).

    Ties are broken toward the lowest tag index at every backtracking step,
    i.e. the returned path is the minimum of the argmax set under reversed
    lexicographic order.
    """
    P, _ = _check(P, A)
    n, k = P.shape
    if mask is None:
        av = A.values
    else:
        if mask.shape != A.values.shape:
            raise CrfError(f"mask shape {mask.shape} != transition shape {A.values.shape}")
        av = A.values + np.where(mask, 0.0, -np.inf)

    trans = av[:k, :k]
    delta = av[A.start, :k] + P[0]
    back = np.empty((n, k), dtype=np.intp)
    for t in range(1, n):
        cand = delta[:, None] + trans
        back[t] = np.argmax(cand, axis=0)
        delta = cand[back[t], np.arange(k)] + P[t]

    final = delta + av[:k, A.stop]
    best = int(np.argmax(final))
    score = final[best]
    if not np.isfinite(score):
        raise NoValidPathError("no path satisfies the transition mask")

    path = [0] * n
    path[n - 1] = best
    for t in range(n - 1, 0, -1):
        path[t - 1] = int(back[t, path[t]])
    return path, float(score)

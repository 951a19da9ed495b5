"""Exact linear-chain CRF over emission scores.

A path y = (y_1..y_n) through an emission matrix P (n x k) and transition
matrix A ((k+2) x (k+2), virtual START/STOP states at indices k and k+1)
scores

    s(y) = sum_{i=0..n} A[y_i, y_{i+1}] + sum_{i=1..n} P[i, y_i]

with y_0 = START and y_{n+1} = STOP. The path distribution is the global
softmax of s over all k^n label sequences. All dynamic programs run in log
space with max-shifted log-sum-exp, in float64. Everything here is pure.

Kernel invariant: each step of the forward and backward recursions does the
float operations of one generic log-sum-exp call, in the same order (max over
the reduced axis, a shift of 0 where that max is not finite, exp, sum, log,
add the shift back). The kernels only reuse buffers, skip the per-call
overhead and lay their arrays out where numpy reduces them cheaply, so every
result is bit-identical to the per-step log-sum-exp recursion; the tests hold
them to that reference (tests/oracles.py) bit for bit. One time loop
(_alpha_beta) runs both recursions as one stacked log-sum-exp per step, over
the leading axis of a C-contiguous (k, 2, k) block laid out [from, pass, to]:
alpha sums over the tags it comes from, beta over the tags it goes to. A
reduction over the leading axis adds whole rows, so each pass sums its k
terms in index order, one after the other, as the reference's reduction over
the leading axis of its (k, k) block does (numpy's pairwise sum only runs
along contiguous memory). Viterbi only adds, compares and gathers: both of its
kernels hold a step's candidates [to, from], so that the first maximum over
the tag they come from is taken along contiguous memory. Every time-loop body
calls its ufuncs and methods through locals and passes axis, out and mode
positionally: numpy parses call keywords on every call, and the arithmetic is
the same. A gold path is checked once, where it enters (_check, and
encoders.cross_entropy_and_grads for the linear head), by _tag_indices, into
the intp array that the kernels index with; its score is one accumulate over
its interleaved terms, the float loop's adds in the loop's order.

Numeric policy: each public function runs under one np.errstate (_QUIET) that
ignores every floating-point error: overflowing scores show up as inf or nan
in its result, or as a CrfError, never as a numpy warning, and exp's underflow
is never an error. The kernels enter none of their own. A marginal is the exp
of log_alpha + log_beta - log Z (an edge's likewise), a log-probability at
most 0 in exact arithmetic; at large scores its rounding can be far above 0,
so each exponent is clamped at 0 first, and the marginals stay in [0, 1] and
the gradients finite wherever log Z is finite. No exponent is clamped where
rounding keeps it at or below 0, so there the bits are unchanged.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

# Finite stand-in for -inf on the structurally impossible transition cells
# (into START, out of STOP); keeps all gradients defined.
SENTINEL = -1e4
INTP = np.iinfo(np.intp)
# the numeric policy of every public function (see above)
_QUIET = np.errstate(all="ignore")


class CrfError(ValueError):
    pass


class NoValidPathError(CrfError):
    """Constrained decoding found no path allowed by the mask."""


class NonFiniteScoreError(CrfError):
    """An emission, transition or path score is inf or nan."""


@dataclass
class TransitionMatrix:
    """(k+2) x (k+2) transition scores; START is state k, STOP state k+1, and
    their impossible cells are pinned. A float64 array is adopted in place
    (the pins write into it); any other real array is copied to float64."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype.kind not in "iuf":
            raise CrfError(f"transition scores must be real numbers, got dtype {v.dtype}")
        self.values = v = v.astype(np.float64, copy=False)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] < 3:
            raise CrfError(f"transition matrix must be square (k+2), got {v.shape}")
        if not np.isfinite(v).all():
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


def _tag_indices(tags, error=CrfError) -> np.ndarray:
    """tags as an intp array. What operator.index refuses, such as the float
    1.9 or np.True_, raises error naming it, instead of being truncated to
    another tag, and so does input that is not iterable. An index that intp
    cannot hold, which no tag set reaches, comes back negative, out of every
    tag set's range."""
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
    try:
        return np.array(indices, dtype=np.intp)
    except OverflowError:
        return np.array([t if INTP.min <= t <= INTP.max else -1 for t in indices], dtype=np.intp)


def _emission_matrix(P, A: TransitionMatrix) -> np.ndarray:
    """P as a float64 array, refused unless it is (n, k) with n >= 1."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] < 1:
        raise CrfError(f"emission matrix must be (n, k) with n >= 1, got {P.shape}")
    if P.shape[1] != A.k:
        raise CrfError(f"emissions have {P.shape[1]} tags, transitions expect {A.k}")
    return P


def _require_finite(P: np.ndarray) -> None:
    if not np.isfinite(P).all():
        raise NonFiniteScoreError("non-finite emission score")


def _check(P: np.ndarray, A: TransitionMatrix, y=None):
    P = _emission_matrix(P, A)
    _require_finite(P)
    if y is not None:
        y = _tag_indices(y)
        if len(y) != P.shape[0]:
            raise CrfError(f"label path length {len(y)} != sequence length {P.shape[0]}")
        if y.view(np.uintp).max() >= A.k:  # a negative index reads as a huge unsigned one
            raise CrfError("label path contains an out-of-range tag index")
    return P, y


def _path_score(P: np.ndarray, A: TransitionMatrix, y: np.ndarray) -> float:
    """Score of a checked path, added left to right: the START edge, then each
    emission followed by the edge out of it. One accumulate over the
    interleaved terms makes those adds one after the other, as a float loop
    would."""
    n, k = P.shape
    av = A.values
    terms = np.empty(2 * n + 1)
    terms[0] = av[k, y[0]]
    terms[1::2] = P[np.arange(n), y]
    terms[2:-1:2] = av[y[:-1], y[1:]]
    terms[-1] = av[y[-1], k + 1]
    np.add.accumulate(terms, out=terms)
    return float(terms[-1])


@_QUIET
def sequence_score(P: np.ndarray, A: TransitionMatrix, y) -> float:
    """Score of one label path (transitions including START/STOP, plus emissions)."""
    P, y = _check(P, A, y)
    return _path_score(P, A, y)


@_QUIET
def log_partition(P: np.ndarray, A: TransitionMatrix) -> float:
    """log sum over all k^n paths of exp(sequence_score), by the forward algorithm."""
    P, _ = _check(P, A)
    return _alpha_beta(P, A)[-1]


@_QUIET
def log_likelihood(P: np.ndarray, A: TransitionMatrix, y) -> float:
    """log p(y) = sequence_score(y) - log_partition; always <= 0."""
    P, y = _check(P, A, y)
    return _path_score(P, A, y) - _alpha_beta(P, A)[-1]


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


def _alpha_beta(P: np.ndarray, A: TransitionMatrix, guard: bool = False):
    """The forward and backward algorithms on checked input, in one time loop:
    (log_alpha, log_beta, ahead, log Z), with log_beta[n-1] the STOP column and
    ahead[t] = P[t] + log_beta[t], the row that a beta step and an edge add.

    Step s is alpha step s and beta step n-1-s as one log-sum-exp over axis 0
    of a (k, 2, k) buffer laid out [from, pass, to], filled against the stack
    of trans and trans.T: pass 0 holds alpha[i] + trans[i, j] at [i, 0, j],
    pass 1 ahead[j] + trans[i, j] at [j, 1, i]. lse[s] receives both sums as
    [pass, to]; runs[s] = lse[s] + (P[s], P[n-1-s]) is alpha row s and ahead
    row n-1-s, which step s+1 reads as [from, pass]. log Z is a log-sum-exp
    over one contiguous row, which numpy sums pairwise, as in the reference.
    A max that is not finite makes the unguarded pass subtract inf from inf,
    and the nan reaches log Z or log_beta[0]; both passes are then rerun with
    the reference's shift of 0 there, so overflowing scores give the
    reference's inf, -inf or nan as well. The guard changes nothing in a pass
    whose maxima are finite."""
    n, k = P.shape
    av = A.values
    stacked = np.empty((k, 2, k))
    stacked[:, 0], stacked[:, 1] = av[:k, :k], av[:k, :k].T
    lse = np.empty((n, 2, k))
    lse[0, 0], lse[0, 1] = av[k, :k], av[:k, k + 1]
    runs = np.empty((n, 2, k))
    runs[:, 0], runs[:, 1] = P, P[::-1]  # the emissions, to which each step adds its sums
    np.add(lse[0], runs[0], out=runs[0])
    buf = np.empty((k, 2, k))
    shift = np.empty((2, k))
    # one view per step and array, so the loop body only calls ufuncs
    steps = zip(runs[:-1, :, :, None].transpose(0, 2, 1, 3), lse[1:], runs[1:])
    add, subtract, exp, log = np.add, np.subtract, np.exp, np.log
    maximum, total = np.maximum.reduce, np.add.reduce
    for prev, sums, runs_s in steps:
        add(prev, stacked, buf)
        maximum(buf, 0, None, shift)
        if guard:
            np.copyto(shift, 0.0, where=~np.isfinite(shift))
        subtract(buf, shift, buf)  # inf - inf: only in an unguarded pass, rerun below
        exp(buf, buf)
        total(buf, 0, None, sums)
        log(sums, sums)  # log(0) of an all -inf column is -inf
        add(sums, shift, sums)
        add(sums, runs_s, runs_s)
    last = runs[n - 1, 0] + av[:k, k + 1]
    top = last.max()
    top = top if math.isfinite(top) or not guard else 0.0
    log_z = (np.log(np.exp(last - top).sum(keepdims=True)) + top).item()
    if not guard and not (math.isfinite(log_z) and np.isfinite(lse[n - 1, 1]).all()):
        return _alpha_beta(P, A, guard=True)
    return runs[:, 0], lse[::-1, 1], runs[::-1, 1], log_z


def _marginals(P: np.ndarray, A: TransitionMatrix) -> Marginals:
    k = P.shape[1]
    log_alpha, log_beta, ahead, log_z = _alpha_beta(P, A)
    node = log_alpha + log_beta - log_z
    edge = log_alpha[:-1, :, None] + A.values[:k, :k]
    edge += ahead[1:, None, :]
    edge -= log_z
    for log_p in (node, edge):  # a probability's log is at most 0; rounding can pass it
        np.minimum(log_p, 0.0, out=log_p)
        np.exp(log_p, out=log_p)
    return Marginals(node, edge, log_z)


@_QUIET
def forward_backward(P: np.ndarray, A: TransitionMatrix) -> Marginals:
    P, _ = _check(P, A)
    return _marginals(P, A)


@_QUIET
def nll_gradients(P: np.ndarray, A: TransitionMatrix, y):
    """-log_likelihood and its exact gradients wrt P and A, as (nll, dP, dA),
    from a single forward-backward pass.

    dP[i, j] = p(y_i = j) - 1[gold_i = j]; dA accumulates expected minus
    observed transition counts, START/STOP edges included. The pinned
    boundary cells are structurally unused and receive zero gradient.
    """
    P, y = _check(P, A, y)
    n, k = P.shape
    marg = _marginals(P, A)
    nll = -(_path_score(P, A, y) - marg.log_z)  # as -log_likelihood, to the bit

    dA = np.zeros((k + 2, k + 2))
    np.add.reduce(marg.edge, axis=0, out=dA[:k, :k])
    dA[k, :k] = marg.node[0]
    dA[:k, k + 1] += marg.node[n - 1]
    dA[k, y[0]] -= 1.0
    np.subtract.at(dA, (y[:-1], y[1:]), 1.0)
    dA[y[n - 1], k + 1] -= 1.0

    dP = marg.node
    dP[np.arange(n), y] -= 1.0
    return nll, dP, dA


class LengthLayout:
    """The rows of a batch of sequences, longest first with ties in input
    order, so that the rows still running at any step are a prefix.

    order[row] is a row's input index and lengths[row] its length. runs holds
    (start, end, count) in step order: steps start..end-1 run the first count
    rows.
    """

    def __init__(self, lengths):
        lengths = list(lengths)
        self.order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
        self.lengths = [lengths[j] for j in self.order]
        self.runs, start = [], 0
        for count in range(len(lengths), 0, -1):  # the steps that run exactly `count` rows
            end = self.lengths[count - 1]
            if end > start:
                self.runs.append((start, end, count))
                start = end

    def stack(self, arrays, width: int) -> np.ndarray:
        """A (steps, rows, width) array with arrays[j], given in input order and
        copied in as they come, in the first n_j steps of j's row."""
        rows = sorted(range(len(self.order)), key=self.order.__getitem__)  # row of input j
        out = np.empty((max(self.lengths, default=0), len(self.order), width))
        for row, array in zip(rows, arrays):
            out[:len(array), row] = array
        return out

    def unstack(self, per_row) -> list:
        """Per-row results, in row order, as a list in input order."""
        results = [None] * len(self.order)
        for j, result in zip(self.order, per_row):
            results[j] = result
        return results


def _allowed(A: TransitionMatrix, mask) -> np.ndarray:
    """The transition scores with the cells the mask forbids at -inf. The mask
    is any boolean array-like of the transitions' shape; others are refused."""
    if mask is None:
        return A.values
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise CrfError(f"mask must be boolean, got dtype {mask.dtype}")
    if mask.shape != A.values.shape:
        raise CrfError(f"mask shape {mask.shape} != transition shape {A.values.shape}")
    return A.values + np.where(mask, 0.0, -np.inf)


def _best_score_error(score: float, mask) -> CrfError:
    if mask is None or score != -math.inf:
        return NonFiniteScoreError(f"non-finite best path score {score}")
    return NoValidPathError("no path satisfies the transition mask")


@_QUIET
def viterbi_decode(P, A: TransitionMatrix, mask=None):
    """Highest-scoring path and its score, optionally restricted to mask-valid
    transitions (mask True = allowed: a boolean array-like of shape
    (k+2, k+2); any other mask raises CrfError).

    Ties are broken toward the lowest tag index at every backtracking step,
    i.e. the returned path is the minimum of the argmax set under reversed
    lexicographic order. A best score of -inf under a mask means no path is
    allowed (NoValidPathError); any other non-finite best score comes from
    overflowing scores (NonFiniteScoreError).

    P is one (n, k) emission matrix, or a list of them: a list gives one
    (path, score) per matrix, in input order, and several matrices share one
    time loop (_viterbi_batch). Each result has the bits that matrix gets
    alone: the loop does the same additions, takes the same first maximum
    and gathers the value of the argmax cell rather than taking a max (which
    could flip the sign of a zero). A list raises what its first failing
    matrix raises alone: on any failure it is decoded again one at a time.
    A list's matrices are converted and shape-checked in input order, and
    checked for finite scores once per run of the stacked batch.
    """
    if not isinstance(P, list):
        return _viterbi_one(P, A, mask)
    if len(P) > 1:
        try:
            return _viterbi_batch([_emission_matrix(p, A) for p in P], A, mask)
        except CrfError:  # decoded alone, the first failing matrix raises its own error
            pass
    return [_viterbi_one(p, A, mask) for p in P]


def _viterbi_one(P, A: TransitionMatrix, mask):
    """Viterbi on one emission matrix, in _viterbi_batch's layout: each step
    forms delta[i] + trans[i, j] as cand[j, i], takes the first maximum over
    i along contiguous memory, gathers its cell with one flat take into
    delta and adds the emissions there."""
    P, _ = _check(P, A)
    n, k = P.shape
    av = _allowed(A, mask)
    trans_t = np.ascontiguousarray(av[:k, :k].T)  # trans_t[j, i] = trans[i, j]
    cand = np.empty((k, k))
    flat = cand.reshape(-1)
    base = np.arange(0, k * k, k, dtype=np.intp)  # cand's flat index of (j, 0)
    pick = np.empty(k, dtype=np.intp)
    back = np.empty((n, k), dtype=np.intp)
    delta = av[k, :k] + P[0]
    add, argmax, take = np.add, cand.argmax, flat.take
    for best_from, emissions in zip(back[1:], P[1:]):
        add(delta, trans_t, cand)
        argmax(1, best_from)
        add(best_from, base, pick)
        take(pick, None, delta, "clip")
        add(delta, emissions, delta)

    final = delta + av[:k, k + 1]
    best = int(np.argmax(final))
    score = float(final[best])
    if not math.isfinite(score):
        raise _best_score_error(score, mask)

    rows = back.tolist()
    path = [best] * n
    for t in range(n - 1, 0, -1):
        path[t - 1] = rows[t][path[t]]
    return path, score


def _viterbi_batch(Ps: list, A: TransitionMatrix, mask) -> list:
    """Viterbi over several shape-checked emission matrices in one time loop.

    Rows run longest first, so the rows still running at step t are a prefix.
    Each step forms, per row, every delta[i] + trans[i, j] (held as [j, i],
    so that the argmax over i runs along contiguous memory), takes the first
    maximum over i and gathers its cell, then adds the emissions; the
    backtrack follows all rows at once. Raises a CrfError if any emission,
    checked one run of stacked rows at a time, or any best score is not
    finite.
    """
    av = _allowed(A, mask)
    k = A.k
    layout = LengthLayout(len(P) for P in Ps)
    emissions = layout.stack(Ps, k)
    for start, end, m in layout.runs:  # the cells the rows fill, and no padding
        _require_finite(emissions[start:end, :m])
    steps, rows = emissions.shape[:2]
    trans_t = np.ascontiguousarray(av[:k, :k].T)  # trans_t[j, i] = trans[i, j]
    delta = av[k, :k] + emissions[0]
    cand = np.empty((rows, k, k))
    flat = cand.reshape(-1)
    back = np.empty((steps, rows, k), dtype=np.intp)
    # cand's flat index of (row, j, 0), to which a step adds the argmax i
    base = (np.arange(rows)[:, None] * (k * k) + np.arange(k) * k).astype(np.intp)
    pick = np.empty((rows, k), dtype=np.intp)
    add, take = np.add, flat.take
    for start, end, m in layout.runs:
        c, p, d, o = cand[:m], pick[:m], delta[:m], base[:m]
        for t in range(max(start, 1), end):
            b = back[t, :m]
            add(d[:, None, :], trans_t, c)
            c.argmax(2, b)
            add(b, o, p)
            take(p, None, d, "clip")
            add(d, emissions[t, :m], d)
    final = delta + av[:k, k + 1]
    best = np.argmax(final, axis=1)
    scores = final[np.arange(rows), best].tolist()
    for score in scores:
        if not math.isfinite(score):
            raise _best_score_error(score, mask)

    # backtrack all rows at once
    offsets = np.arange(rows) * k
    paths = np.empty((steps, rows), dtype=np.intp)
    tag = best  # a row holds its best last tag until the backtrack reaches its last step
    for start, end, m in reversed(layout.runs):
        for t in range(end - 1, start - 1, -1):
            paths[t, :m] = tag[:m]
            if t:
                back[t].reshape(-1).take(offsets[:m] + tag[:m], None, tag[:m], "clip")
    return layout.unstack((path[:n], score) for path, n, score
                          in zip(paths.T.tolist(), layout.lengths, scores))

"""Dense polynomials in the discount factor and the matrix identities built on them.

Everything downstream reduces to scalar polynomials ``p(beta)`` and matrix
polynomials ``M(beta)`` with real coefficients: the determinant and adjugate of
``I - beta*Q`` for a row-stochastic ``Q``, root extraction on ``[0, 1)``, and
sign-region scans for systems of polynomial inequalities.  A system of
polynomials is one float matrix ``C`` whose row ``i`` holds polynomial ``i``'s
coefficients, ``C[i, j]`` multiplying ``beta**j``; rows are not trimmed, and a
zero row is the zero polynomial.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

# Default numerical policy.  Coefficients are always normalized by their
# max-abs value before root or sign work, so these are relative tolerances.
ROOT_RESIDUAL_TOL = 1e-8
ROOT_IMAG_TOL = 1e-8
ROOT_CLUSTER_TOL = 1e-7
LEADING_COEFF_TOL = 1e-12
SIGN_GRID_POINTS = 2001
SIGN_REFINE_TOL = 1e-10
_CROSSING_LEVELS = 6  # bisection levels per call of ``crossing``'s ``f``


def polyval_rows(C, x) -> np.ndarray:
    """Every row of a coefficient matrix at ``x``, shape ``(rows,) + shape(x)``.

    Horner's rule with ``numpy.polynomial.polynomial.polyval``'s arithmetic,
    so the values are bit-for-bit the same, but in place in one buffer:
    ``polyval`` allocates two temporaries per degree, which on 143
    degree-144 rows at 2,001 points takes about twice as long.
    """
    cols = C.T.reshape(C.T.shape + (1,) * np.ndim(x))
    v = cols[-1] + 0.0 * x
    for c in cols[-2::-1]:
        v *= x
        v += c
    return v


class MatrixPoly:
    """Matrix whose entries are polynomials in the discount factor.

    Stored as a stack of coefficient matrices: ``coeff_mats[j]`` multiplies
    ``beta**j``.  All coefficient matrices share the same shape (rectangular
    allowed).
    """

    __slots__ = ("coeff_mats",)

    def __init__(self, coeff_mats):
        mats = np.asarray(coeff_mats, dtype=float)
        if mats.ndim != 3:
            raise ValueError("expected a stack of equally shaped coefficient matrices")
        self.coeff_mats = mats
        self.coeff_mats.setflags(write=False)


@dataclass(frozen=True)
class RootSet:
    """Real roots of a polynomial (system) on an interval, sorted ascending.

    ``residuals`` holds ``|p(root)| / max|coeff|`` per root.  ``uninformative``
    marks a restriction that held identically, so every point of the domain was
    consistent with it.
    """

    points: np.ndarray
    residuals: np.ndarray
    uninformative: bool = False

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


_STOCH_TOL = 1e-10


def check_stochastic(M, name: str, labels, axis: int = -1) -> np.ndarray:
    """``M`` as a float array, checked to hold probability distributions along
    ``axis`` (entries at least ``-_STOCH_TOL``, sums within ``_STOCH_TOL`` of
    1); the ValueError names the first bad one by index, a label per other axis
    (entries by :func:`_numbers`, so a NaN is named by its sum)."""
    M = _numbers(M, name)
    P = np.moveaxis(M, axis, -1)
    sums = P.sum(axis=-1)
    negative = np.any(P < -_STOCH_TOL, axis=-1)
    bad = negative | ~(np.abs(sums - 1.0) <= _STOCH_TOL)  # a NaN sum is bad too
    if np.any(bad):
        idx = tuple(np.argwhere(bad)[0])
        where = ", ".join(f"{label} {i}" for label, i in zip(labels, idx))
        problem = "has a negative entry" if negative[idx] else f"sums to {sums[idx]:.12g}, not 1"
        raise ValueError(f"{name} ({where}) {problem}")
    return M


# Error-free transformations: a pair of floats whose exact sum is the exact
# result, so that a caller can carry double-double values and round once.


def two_sum(a, b):
    """``a + b = s + e`` exactly (Knuth)."""
    s = a + b
    return s, (a - (s - (s - a))) + (b - (s - a))


def two_prod(a, b):
    """``a * b = p + e`` exactly (Dekker, on Veltkamp's 26-bit halves)."""
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1
    a1, b1 = ca - (ca - a), cb - (cb - b)
    p, a2, b2 = a * b, a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def grid_split(X, n: int, axis=None):
    """``X = hi + lo`` exactly, ``hi`` a multiple of ``2^(e - p)`` for ``2^e``
    the power of two above ``max|X|`` along ``axis`` (all of ``X`` by
    default) and ``p = (51 - bit_length(n)) // 2``, so that a product of such
    parts with ``n`` terms an entry is exact when the left factor's unit is
    constant along its rows and the right factor's along its columns."""
    bits = (51 - n.bit_length()) // 2
    unit = np.ldexp(1.0, np.frexp(np.max(np.abs(X), axis=axis, keepdims=True))[1] - bits)
    hi = np.rint(X / unit) * unit
    return hi, X - hi


_BLOCKED_FROM = 64  # the blocked path overtakes the plain one between 64 and 80 states


def det_coeffs(Q) -> np.ndarray:
    """The ``J + 1`` coefficients of ``det(I - beta*Q)``, ``d[j]`` multiplying
    ``beta**j``: those of the Faddeev-LeVerrier recursion ``j d_j = -tr(Q
    A_{j-1})``, ``A_j = Q A_{j-1} + d_j I``, run as written below
    ``_BLOCKED_FROM`` states, where its ``J`` products are fastest.

    Above, ``m = ceil(sqrt(J/2))`` coefficients at a time from about ``3m +
    J/m`` products (Paterson and Stockmeyer's baby and giant steps): with
    ``Q^1..Q^m`` in one ``(m, J, J)`` array, the block from ``A_s`` solves
    ``(s + b) d_(s+b) + sum_{i<b} tr(Q^(b-i)) d_(s+i) = -tr(Q^b A_s)``, ``b =
    1..m``, and ``A_(s+m) = Q^m A_s + sum_i d_(s+i) Q^(m-i)``.  That system
    cancels, losing up to ten times the recursion's accuracy by ``J = 144`` on
    float64 traces, so the baby steps are double-double (a part on a fixed
    grid, whose product with that of ``Q`` is exact, plus a remainder: three
    products a step) and each solve is refined once on a residual
    :func:`math.fsum` adds exactly.  About ``(m + 7) J^2`` floats; ``Q`` is
    checked (square, nonempty, row-stochastic) before any product."""
    shape = np.shape(Q)
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise ValueError(f"transition matrix must be square with at least one state, got shape {shape}")
    Q = check_stochastic(Q, "transition row", ("state",))
    J = Q.shape[0]
    d, A = np.ones(J + 1), np.eye(J)
    if J < _BLOCKED_FROM:  # the plain recursion
        for j in range(1, J + 1):
            A = Q @ A
            d[j] = -np.trace(A) / j
            A.flat[:: J + 1] += d[j]
        return d
    m = math.isqrt((J - 1) // 2) + 1
    scale = 2.0 ** ((51 - J.bit_length()) // 2 - 1)  # grid parts, all below 2, multiply exactly
    Q1 = np.rint(Q * scale) / scale
    Q2 = Q - Q1
    baby = np.empty((m, J, J))  # baby[b - 1] = Q^b, rounded
    baby[0] = Q
    P1, P2, S2, W = Q1.copy(), Q2.copy(), Q2.copy(), np.empty((J, J))  # Q^b = P1 + P2, P1 on the grid
    t = np.empty((2, m))  # tr(Q^b) = t[0, b - 1] + t[1, b - 1]
    t[:, 0] = two_sum(np.trace(Q1), np.trace(Q2))
    for b in range(1, m):
        S1 = np.matmul(Q1, P1, out=baby[b])  # exact
        np.matmul(Q2, P1, out=S2)
        S2 += np.matmul(Q, P2, out=W)
        t[:, b] = two_sum(np.trace(S1), np.trace(S2))
        np.add(S1, S2, out=P1)
        P1 *= scale
        np.rint(P1, out=P1)
        P1 /= scale
        np.subtract(S1, P1, out=P2)
        P2 += S2
        S1 += S2
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    T, Tlo = np.where(lag > 0, t[:, lag - 1], 0.0)  # T[b, i] = tr(Q^(b-i)) below the diagonal
    flat, AT, A2 = baby.reshape(m, J * J), P1, P2  # P1 and P2 reused as buffers
    del Q1, Q2, S2, W
    for s in range(0, J, m):
        n = min(m, J - s)
        np.copyto(AT, A.T)
        tA = flat[:n] @ AT.ravel()  # tr(Q^b A_s)
        L = T[:n, :n] + np.diag(np.arange(s + 1.0, s + n + 1.0))
        Linv = np.linalg.inv(L)
        x = Linv @ -tA
        terms = np.hstack([tA[:, None], *two_prod(L, x), Tlo[:n, :n] * x])
        d[s + 1 : s + n + 1] = x - Linv @ [math.fsum(row) for row in terms]
        if s + m < J:  # A_(s+m), the sum of the d_(s+i) Q^(m-i) formed in AT
            np.matmul(baby[-1], A, out=A2)
            A2 += np.matmul(d[s + m - 1 : s : -1].copy(), flat[: m - 1], out=AT.reshape(-1)).reshape(J, J)
            A2.flat[:: J + 1] += d[s + m]
            A, A2 = A2, A
    return d


def horner_stack(Q, C) -> np.ndarray:
    """``Y_0 = C_0``, ``Y_j = Q Y_{j-1} + C_j``, written over the float array
    ``C`` and returned: with ``C_j = d_j X`` for the :func:`det_coeffs`
    ``d``, ``Y_j = A_j X``, the adjugate's coefficient matrices ``A_j``
    (powers of beta matched in ``(I - beta*Q) adj = det I``) times ``X``.
    ``len(C) - 1`` products."""
    for j in range(1, len(C)):
        C[j] += Q @ C[j - 1]
    return C


def faddeev_adj_det(Q) -> tuple[MatrixPoly, npoly.Polynomial]:
    """Adjugate and determinant of ``I - beta*Q`` as explicit polynomials: the
    determinant's ``coef`` is :func:`det_coeffs`, and the degree ``J - 1``
    adjugate is :func:`horner_stack` of ``d_j I``, ``J^3`` floats."""
    d = det_coeffs(Q)  # checks Q
    return MatrixPoly(horner_stack(np.asarray(Q), d[:-1, None, None] * np.eye(len(Q)))), npoly.Polynomial(d)


def _real(v) -> bool:
    """A Python or numpy int or float, not a bool."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _number(v) -> bool:
    """The row format's number: an int or a float, not a bool, finite as a float."""
    return _real(v) and abs(v) <= sys.float_info.max


def _numbers(x, name: str) -> np.ndarray:
    """``x`` as a float array if every entry is an int or a float, a list's
    read before numpy converts them: a bool anywhere, a string, bytes or any
    other object is a ValueError ``name[index] = value is not a number``."""
    a = np.asarray(x)
    if a.dtype.kind not in "iuf" or (isinstance(x, (list, tuple))
                                     and not all(map(_real, np.asarray(x, dtype=object).flat))):
        i, v = next(((i, v) for i, v in np.ndenumerate(np.asarray(x, dtype=object)) if not _real(v)), ((), x))
        raise ValueError(f"{name}{list(i) if i else ''} = {v!r} is not a number")
    return a.astype(float, copy=False)


def require_finite(x, name: str) -> np.ndarray:
    """``x`` as a float array, every entry finite: the package's one check of
    a number it is given.  The first NaN or infinite entry is a ValueError
    ``name[index] = value is not finite``; a bool, wherever it sits, and
    string, bytes or object input are ``name[index] = value is not a number``."""
    a = _numbers(x, name)
    if not np.isfinite(a).all():
        i = tuple(int(k) for k in np.argwhere(~np.isfinite(a))[0])
        raise ValueError(f"{name}{list(i) if i else ''} = {a[i]} is not finite")
    return a


def frozen(x, name: str) -> np.ndarray:
    """A read-only float copy of ``x``, checked first by :func:`require_finite`."""
    a = np.array(require_finite(x, name))
    a.setflags(write=False)
    return a


def freeze(obj, **arrays) -> None:
    """Set each named field of the frozen dataclass ``obj`` to :func:`frozen` of the given value."""
    for name, x in arrays.items():
        object.__setattr__(obj, name, frozen(x, name))


def roots_in_interval(p) -> RootSet:
    """All real roots in ``[0, 1)`` of the polynomial with coefficient vector
    ``p`` (``p[j]`` multiplies ``beta**j``).

    Companion-matrix eigenvalues of the max-abs-scaled polynomial, its
    leading coefficients up to ``LEADING_COEFF_TOL`` dropped, then eight
    Newton steps on ``p`` and ``p'`` from one :func:`polyval_rows` pass.  No
    step is taken where both are within the rounding bounds of their
    evaluation, as at an exact double root.  A candidate is accepted when its
    imaginary part is within ``ROOT_IMAG_TOL`` and its relative residual
    within ``ROOT_RESIDUAL_TOL``; accepted roots are deduplicated within
    ``ROOT_CLUSTER_TOL``.  The zero polynomial holds at every point: its root
    set is empty and flagged ``uninformative``.  A NaN or infinite coefficient
    raises a ValueError.
    """
    p = require_finite(p, "p")
    scale = np.max(np.abs(p))
    if scale == 0.0:
        return RootSet(np.empty(0), np.empty(0), uninformative=True)
    c = p / scale
    c = c[: np.flatnonzero(np.abs(c) > LEADING_COEFF_TOL)[-1] + 1]
    if len(c) == 1:
        return RootSet(np.empty(0), np.empty(0))

    cand = npoly.polyroots(c)
    dc = npoly.polyder(c)
    rows = np.vstack([c, np.append(dc, 0.0)])
    # p and p' at x, and at |x| the rounding bounds of their evaluation
    rows = np.vstack([rows, 4 * len(c) * np.finfo(float).eps * np.abs(rows)])
    for _ in range(8):
        vals = polyval_rows(rows, np.stack([cand, np.abs(cand)]))
        move = np.any(np.abs(vals[:2, 0]) > np.abs(vals[2:, 1]), axis=0)
        cand = cand - np.where(move, vals[0, 0] / np.where(move, vals[1, 0], 1.0), 0.0)

    real = cand[np.abs(cand.imag) <= ROOT_IMAG_TOL].real
    # half-open interval: points indistinguishable from 1 (within the cluster
    # radius) are treated as 1 and excluded; likewise snapped up to 0
    real = real[(real >= -ROOT_CLUSTER_TOL) & (real < 1.0 - ROOT_CLUSTER_TOL)]
    real = np.clip(real, 0.0, None)
    real = real[np.abs(polyval_rows(c[None], real)[0]) <= ROOT_RESIDUAL_TOL]
    if real.size == 0:
        return RootSet(np.empty(0), np.empty(0))

    real.sort()
    clusters = [[real[0]]]
    for r in real[1:]:
        if r - clusters[-1][-1] <= ROOT_CLUSTER_TOL:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    pts = np.array([np.mean(cl) for cl in clusters])
    res = np.abs(polyval_rows(c[None], pts)[0])
    return RootSet(pts, res)


def crossing(f, a: float, b: float) -> float:
    """Bisect ``[a, b]`` down to ``SIGN_REFINE_TOL`` for the point where
    ``f >= 0`` flips; ``f(a)`` and ``f(b)`` must lie on opposite sides.  A NaN
    value counts as negative.

    ``f`` takes an array, and a point's value must not depend on the others.
    One call covers every branch's midpoint ``0.5 * (lo + hi)`` over the next
    ``_CROSSING_LEVELS`` levels, which are then walked: the same float as one
    call per level.
    """
    for level in range(200):
        if b - a <= SIGN_REFINE_TOL:
            break
        if level % _CROSSING_LEVELS == 0:
            ends, pts = np.array([a, b]), [np.array([a])]
            for _ in range(_CROSSING_LEVELS):  # each level's branches, left to right
                pts.append(0.5 * (ends[:-1] + ends[1:]))
                ends = np.repeat(ends, 2)[:-1]
                ends[1::2] = pts[-1]
            pts = np.concatenate(pts)  # for k >= 1 pts[k]'s halves have midpoints pts[2k], pts[2k + 1]
            above = f(pts) >= 0.0
            fa, node = above[0], 1  # a only ever moves to points on its side
        if above[node] == fa:
            a, node = pts[node], 2 * node + 1
        else:
            b, node = pts[node], 2 * node
    return 0.5 * (a + b)


def sign_region(C) -> list:
    """Disjoint sorted subintervals ``(lo, hi)`` of ``[0, 1)`` where every row
    of the coefficient matrix ``C`` is nonnegative as a polynomial.  An upper
    endpoint of ``1.0`` is the open right edge of the domain.

    Every row, scaled by its max-abs coefficient, is evaluated on an
    equispaced grid of ``SIGN_GRID_POINTS`` points, one block of consecutive
    points at a time: each block's Vandermonde matrix times the rows (only
    signs are read, and they are Horner's rule's wherever a row is above
    rounding noise).  A block is the largest whole multiple of 256 points
    whose powers and values, ``points * (rows + columns)`` floats, fit in
    ``2**17`` (256 points where even those do not fit), so beside the scaled
    rows the scan holds 1 MB, or one 256-point block of a wider system,
    whatever the grid; a system of ``rows + columns <= 64`` takes the whole
    grid in one block.  Each flip of the mask is refined by :func:`crossing`
    on :func:`polyval_rows` values.  An interval narrower than one grid step
    (``1 / SIGN_GRID_POINTS``), or a tangent point, can fall between grid
    points and be missed.  A NaN or infinite coefficient raises a ValueError.
    """
    C = require_finite(C, "C")
    scale = np.max(np.abs(C), axis=1)
    keep = scale != 0.0
    C = C[keep]  # a copy, scaled in place: one copy of the rows at a time
    C /= scale[keep, None]
    if not C.size:
        # no row, or only zero ones: the condition holds everywhere
        return [(0.0, 1.0)]

    def slack(x):
        return np.min(polyval_rows(C, x), axis=0)

    n = SIGN_GRID_POINTS
    xs = np.arange(n) / n
    # whole multiples of 256 points: with them the blocked products gave the
    # one-shot product's bits, where other block sizes changed low bits
    block = 256 * max(1, 2**17 // (256 * sum(C.shape)))
    feas = np.concatenate([np.min(C @ np.vander(xs[i:i + block], C.shape[1], increasing=True).T, axis=0)
                           for i in range(0, n, block)]) >= 0.0
    flips = np.flatnonzero(feas[1:] != feas[:-1])  # the mask flips between i and i + 1
    ends = [crossing(slack, xs[i], xs[i + 1]) for i in flips]
    if feas[0]:
        ends.insert(0, 0.0)
    if feas[-1]:
        ends.append(1.0)
    return [(float(lo), float(hi)) for lo, hi in zip(ends[::2], ends[1::2])]

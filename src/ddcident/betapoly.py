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

    def apply(self, vec) -> np.ndarray:
        """Right-multiply by a constant vector; rows of the result are
        polynomial coefficient vectors, shape ``(nrows, degree + 1)``."""
        v = np.asarray(vec, dtype=float)
        return np.einsum("dij,j->id", self.coeff_mats, v)


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


def check_stochastic(M, name: str, labels, axis: int = -1) -> None:
    """Check that ``M`` holds probability distributions along ``axis``: entries
    at least ``-_STOCH_TOL``, sums within ``_STOCH_TOL`` of 1.  The ValueError
    names the first bad one by its index, with one label per other axis."""
    M = np.moveaxis(np.asarray(M, dtype=float), axis, -1)
    sums = M.sum(axis=-1)
    negative = np.any(M < -_STOCH_TOL, axis=-1)
    bad = negative | ~(np.abs(sums - 1.0) <= _STOCH_TOL)  # a NaN sum is bad too
    if np.any(bad):
        idx = tuple(np.argwhere(bad)[0])
        where = ", ".join(f"{label} {i}" for label, i in zip(labels, idx))
        problem = "has a negative entry" if negative[idx] else f"sums to {sums[idx]:.12g}, not 1"
        raise ValueError(f"{name} ({where}) {problem}")


def faddeev_adj_det(Q) -> tuple[MatrixPoly, npoly.Polynomial]:
    """Adjugate and determinant of ``I - beta*Q`` as explicit polynomials.

    Uses the trace recursion obtained by matching powers of beta in
    ``(I - beta*Q) adj(I - beta*Q) = det(I - beta*Q) I`` together with the
    derivative identity ``d/dbeta det(I - beta*Q) = -tr(Q adj(I - beta*Q))``:

        A_0 = I,  d_0 = 1,
        d_j = -tr(Q A_{j-1}) / j,
        A_j = Q A_{j-1} + d_j I.

    Returns the degree ``J - 1`` adjugate and the degree ``J`` determinant,
    whose ``coef`` holds all ``J + 1`` coefficients, trailing zeros included.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {Q.shape}")
    check_stochastic(Q, "transition row", ("state",))
    J = Q.shape[0]
    adj = np.zeros((J, J, J))
    det = np.zeros(J + 1)
    adj[0] = np.eye(J)
    det[0] = 1.0
    work = np.eye(J)
    for j in range(1, J + 1):
        work = Q @ work
        det[j] = -np.trace(work) / j
        if j < J:
            work = work + det[j] * np.eye(J)
            adj[j] = work
    return MatrixPoly(adj), npoly.Polynomial(det)


def require_finite(C) -> None:
    """Raise a ValueError naming the first row of ``C`` with a NaN or inf."""
    C = np.atleast_2d(C)
    bad = np.argwhere(~np.isfinite(C))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"coefficient row {i} is not finite: {C[i, j]} multiplies beta**{j}")


def roots_in_interval(p, *, residual_tol: float = ROOT_RESIDUAL_TOL) -> RootSet:
    """All real roots in ``[0, 1)`` of the polynomial with coefficient vector
    ``p`` (``p[j]`` multiplies ``beta**j``).

    Companion-matrix eigenvalues of the max-abs-scaled polynomial, its
    leading coefficients up to ``LEADING_COEFF_TOL`` dropped, then eight
    Newton steps on ``p`` and ``p'`` from one :func:`polyval_rows` pass.  No
    step is taken where both are within the rounding bounds of their
    evaluation, as at an exact double root.  A candidate is accepted when its
    imaginary part is within ``ROOT_IMAG_TOL`` and its relative residual
    within ``residual_tol``; accepted roots are deduplicated within
    ``ROOT_CLUSTER_TOL``.  The zero polynomial holds at every point: its root
    set is empty and flagged ``uninformative``.  A NaN or infinite coefficient
    raises a ValueError.
    """
    p = np.asarray(p, dtype=float)
    require_finite(p)
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
    real = real[np.abs(npoly.polyval(real, c)) <= residual_tol]
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
    res = np.abs(npoly.polyval(pts, c))
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
    equispaced grid of ``SIGN_GRID_POINTS`` points by one product with the
    grid's Vandermonde matrix (only signs are read, and they are Horner's
    rule's wherever a row is above rounding noise), and each flip of the mask
    is refined by :func:`crossing` on :func:`polyval_rows` values.  An
    interval narrower than one grid step (``1 / SIGN_GRID_POINTS``), or a
    tangent point, can fall between grid points and be missed.  A NaN or
    infinite coefficient raises a ValueError.
    """
    C = np.asarray(C, dtype=float)
    require_finite(C)
    scale = np.max(np.abs(C), axis=1)
    keep = scale != 0.0
    C = C[keep] / scale[keep, None]
    if not C.size:
        # no row, or only zero ones: the condition holds everywhere
        return [(0.0, 1.0)]

    def slack(x):
        return np.min(polyval_rows(C, x), axis=0)

    n = SIGN_GRID_POINTS
    xs = np.arange(n) / n
    feas = np.min(C @ np.vander(xs, C.shape[1], increasing=True).T, axis=0) >= 0.0
    flips = np.flatnonzero(feas[1:] != feas[:-1])  # the mask flips between i and i + 1
    ends = [crossing(slack, xs[i], xs[i + 1]) for i in flips]
    if feas[0]:
        ends.insert(0, 0.0)
    if feas[-1]:
        ends.append(1.0)
    return [(float(lo), float(hi)) for lo, hi in zip(ends[::2], ends[1::2])]

"""Dense polynomials in the discount factor and the matrix identities built on them.

Everything downstream reduces to scalar polynomials ``p(beta)`` and matrix
polynomials ``M(beta)`` with real coefficients: the determinant and adjugate of
``I - beta*Q`` for a row-stochastic ``Q``, root extraction on ``[0, 1)``, and
sign-region scans for systems of polynomial inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import UninformativeRestrictionError

# Default numerical policy.  Coefficients are always normalized by their
# max-abs value before root or sign work, so these are relative tolerances.
ROOT_RESIDUAL_TOL = 1e-8
ROOT_IMAG_TOL = 1e-8
ROOT_CLUSTER_TOL = 1e-7
LEADING_COEFF_TOL = 1e-12
SIGN_GRID_POINTS = 2001
SIGN_REFINE_TOL = 1e-10


class BetaPoly:
    """Polynomial in the discount factor with real coefficients.

    It holds and evaluates coefficients and has no arithmetic: every row is
    built as one coefficient vector.  ``coeffs[j]`` multiplies ``beta**j``.
    Exact trailing zeros are trimmed on construction so the stored degree is
    the true degree (the zero polynomial is the single coefficient ``0.0``).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else c[:1] * 0.0
        self.coeffs = c
        self.coeffs.setflags(write=False)

    @classmethod
    def zero(cls) -> "BetaPoly":
        return cls([0.0])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __call__(self, beta):
        return npoly.polyval(beta, self.coeffs)

    def normalized(self) -> "BetaPoly":
        """Divide by the max-abs coefficient; the zero polynomial is returned as is."""
        s = self.max_abs_coeff
        return self if s == 0.0 else BetaPoly(self.coeffs / s)

    def __repr__(self):
        return f"BetaPoly(degree={self.degree}, coeffs={np.array2string(self.coeffs, precision=6)})"


def coeff_matrix(polys) -> np.ndarray:
    """Coefficients of a list of polynomials as the rows of one matrix,
    zero-padded to the longest."""
    width = max(len(p.coeffs) for p in polys)
    return np.array([np.pad(p.coeffs, (0, width - len(p.coeffs))) for p in polys])


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

    @property
    def degree(self) -> int:
        return self.coeff_mats.shape[0] - 1

    @property
    def shape(self):
        return self.coeff_mats.shape[1:]

    def __call__(self, beta: float) -> np.ndarray:
        powers = float(beta) ** np.arange(self.coeff_mats.shape[0])
        return np.tensordot(powers, self.coeff_mats, axes=1)

    def apply(self, vec) -> np.ndarray:
        """Right-multiply by a constant vector; rows of the result are
        polynomial coefficient vectors, shape ``(nrows, degree + 1)``."""
        v = np.asarray(vec, dtype=float)
        return np.einsum("dij,j->id", self.coeff_mats, v)

    def premultiply_i_minus_beta(self, Q) -> "MatrixPoly":
        """Return ``(I - beta*Q)`` times this polynomial (degree rises by one)."""
        Q = np.asarray(Q, dtype=float)
        d, n, m = self.coeff_mats.shape
        out = np.zeros((d + 1, n, m))
        out[:d] = self.coeff_mats
        out[1:] -= np.matmul(Q, self.coeff_mats)
        return MatrixPoly(out)


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


@dataclass(frozen=True)
class SignRegion:
    """Disjoint sorted subintervals of ``[0, 1)`` where a polynomial system
    satisfies a sign condition.

    An upper endpoint equal to ``1.0`` denotes the open right edge of the
    domain (the point ``1`` itself is always excluded).
    """

    intervals: list = field(default_factory=list)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= x <= hi + tol for lo, hi in self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)


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


def faddeev_adj_det(Q) -> tuple[MatrixPoly, BetaPoly]:
    """Adjugate and determinant of ``I - beta*Q`` as explicit polynomials.

    Uses the trace recursion obtained by matching powers of beta in
    ``(I - beta*Q) adj(I - beta*Q) = det(I - beta*Q) I`` together with the
    derivative identity ``d/dbeta det(I - beta*Q) = -tr(Q adj(I - beta*Q))``:

        A_0 = I,  d_0 = 1,
        d_j = -tr(Q A_{j-1}) / j,
        A_j = Q A_{j-1} + d_j I.

    Returns the degree ``J - 1`` adjugate and the degree ``J`` determinant.
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
    return MatrixPoly(adj), BetaPoly(det)


def _effective_coeffs(p: BetaPoly, leading_tol: float):
    """Normalize by max-abs and drop numerically negligible leading coefficients."""
    scale = p.max_abs_coeff
    if scale == 0.0:
        raise UninformativeRestrictionError(
            "polynomial is identically zero; the restriction is uninformative"
        )
    c = p.coeffs / scale
    keep = len(c)
    while keep > 1 and abs(c[keep - 1]) <= leading_tol:
        keep -= 1
    return c[:keep], scale


def roots_in_interval(p: BetaPoly, *, residual_tol: float = ROOT_RESIDUAL_TOL) -> RootSet:
    """All real roots of ``p`` in ``[0, 1)``.

    Companion-matrix eigenvalues of the max-abs-scaled polynomial, followed by
    Newton refinement.  A candidate is accepted when its imaginary part is
    within ``ROOT_IMAG_TOL`` and its relative residual within
    ``residual_tol``; accepted roots are deduplicated within
    ``ROOT_CLUSTER_TOL``.

    Raises
    ------
    UninformativeRestrictionError
        If ``p`` is identically zero (distinct from an empty root set).
    """
    c, _ = _effective_coeffs(p, LEADING_COEFF_TOL)
    if len(c) == 1:
        return RootSet(np.empty(0), np.empty(0))

    cand = npoly.polyroots(c)
    dc = npoly.polyder(c)
    for _ in range(8):
        val = npoly.polyval(cand, c)
        der = npoly.polyval(cand, dc)
        step = np.where(der != 0.0, val / np.where(der == 0.0, 1.0, der), 0.0)
        cand = cand - step

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


def sign_region(ps) -> SignRegion:
    """Subintervals of ``[0, 1)`` where every polynomial is nonnegative.

    Feasibility is detected on an equispaced grid of ``SIGN_GRID_POINTS``
    points and interval boundaries are refined by bisection to
    ``SIGN_REFINE_TOL``.  The grid resolution is a documented heuristic: the
    polynomials this package produces (degree <= ~24) do not oscillate between
    adjacent points.
    """
    coeff_list = [pn.coeffs for p in ps if not (pn := p.normalized()).is_zero]
    if not coeff_list:
        # every polynomial is identically zero: the condition holds everywhere
        return SignRegion([(0.0, 1.0)])

    def slack(x):
        return min(npoly.polyval(x, c) for c in coeff_list)

    n = SIGN_GRID_POINTS
    xs = np.arange(n) / n
    feas = np.min(np.stack([npoly.polyval(xs, c) for c in coeff_list]), axis=0) >= 0.0

    def bisect(a, b):
        # slack(a) and slack(b) straddle zero; return the crossing
        fa = slack(a)
        for _ in range(200):
            if b - a <= SIGN_REFINE_TOL:
                break
            m = 0.5 * (a + b)
            fm = slack(m)
            if (fm >= 0.0) == (fa >= 0.0):
                a, fa = m, fm
            else:
                b = m
        return 0.5 * (a + b)

    intervals = []
    i = 0
    while i < n:
        if not feas[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and feas[j + 1]:
            j += 1
        left = xs[i] if i == 0 else bisect(xs[i - 1], xs[i])
        right = 1.0 if j == n - 1 else bisect(xs[j], xs[j + 1])
        intervals.append((float(left), float(right)))
        i = j + 1
    return SignRegion(intervals)

"""Identified sets for the discount factor from restriction systems.

Equality restrictions yield root systems of degree-J polynomials; inequality
restrictions yield sign regions; both can be combined.  Under finite
dependence each row's polynomial collapses to the dependence order ``rho``:
``finite_restriction_poly`` writes it in closed form from the payoff identity,
and one certificate, ``max |D Q_last^rho|`` over stacked bracket rows ``D``,
serves both a row and ``check_finite_dependence``'s pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .betapoly import (
    RootSet,
    check_stochastic,
    crossing,
    polyval_rows,
    require_finite,
    roots_in_interval,
    sign_region,
)
from .ddc import MasterSystem, _model_arrays
from .restrictions import RestrictionSet, _flat_points

COMMON_ROOT_TOL = 1e-6
COMBINE_TOL = 1e-6
FD_CERT_TOL = 1e-10
LOG_DIFF_GRID_POINTS = 4001


@dataclass(frozen=True)
class IdentifiedSet:
    """Discount factors consistent with the model and a restriction set.

    ``equality_roots`` lists common roots of the equality system on ``[0, 1)``;
    ``inequality_intervals`` the feasible subintervals; ``combined`` their
    intersection.  Components that were not computed are ``None``.
    ``diagnostics`` records per-polynomial degrees, scales, and uninformative
    flags.  ``rows`` holds the coefficient matrix of the identifying
    polynomials the set was computed from; it is not serialized.
    """

    equality_roots: list | None = None
    inequality_intervals: list | None = None
    combined: list | None = None
    diagnostics: dict = field(default_factory=dict)
    rows: np.ndarray = field(default_factory=lambda: np.zeros((0, 1)), repr=False, compare=False)

    def to_json_dict(self) -> dict:
        def _clean(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, dict):
                return {k: _clean(x) for k, x in v.items()}
            if isinstance(v, (list, tuple)):
                return [_clean(x) for x in v]
            return v

        return {
            "equality_roots": _clean(self.equality_roots),
            "inequality_intervals": _clean(self.inequality_intervals),
            "combined": _clean(self.combined),
            "diagnostics": _clean(self.diagnostics),
        }


@dataclass(frozen=True)
class FiniteDependenceCert:
    """Certificate that paired action-state transitions wash out after ``rho`` steps.

    ``rho`` is the smallest verified order (``None`` if none up to the searched
    bound); ``max_violation`` is the worst deviation at the certified order.
    """

    rho: int | None
    pairs: tuple
    max_violation: float

    @property
    def satisfied(self) -> bool:
        return self.rho is not None


def _poly_diagnostics(rows):
    """Per row: degree (index of the last nonzero coefficient), max-abs
    coefficient, and whether the row is zero, so holds at every discount factor."""
    scale = np.max(np.abs(rows), axis=1)
    last_nonzero = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] != 0.0, axis=1)
    degree = np.where(scale > 0.0, last_nonzero, 0)
    uninformative = scale == 0.0
    return [{"degree": int(d), "scale": float(s), "uninformative": bool(u)}
            for d, s, u in zip(degree, scale, uninformative)]


def _common_roots(rows, diag):
    """Common roots on [0, 1) of the rows of a coefficient matrix.

    Candidates are the roots of the first informative row; a candidate
    survives if every other informative row is within ``COMMON_ROOT_TOL`` of
    zero there (relative to its own coefficient scale).
    """
    informative = rows[[not d["uninformative"] for d in diag]]
    if not len(informative):
        return None
    candidates = roots_in_interval(informative[0])
    rest = informative[1:]
    vals = np.abs(polyval_rows(rest, candidates.points)) / np.max(np.abs(rest), axis=1)[:, None]
    keep = np.all(vals <= COMMON_ROOT_TOL, axis=0)
    res = np.max(np.vstack([candidates.residuals, vals]), axis=0)
    return RootSet(candidates.points[keep], res[keep])


def identified_set(rows, kind: str, diagnostics: dict) -> IdentifiedSet:
    """The identified set of a system of restriction rows, the rows of a
    coefficient matrix (``rows[i, j]`` multiplies ``beta**j``), each a
    polynomial that is ``>= 0`` (kind ``"ge"``) or ``== 0`` (kind ``"eq"``) at
    the discount factors consistent with it.

    Equality rows give their common roots on ``[0, 1)``, at fixed tolerances
    (``betapoly.ROOT_RESIDUAL_TOL``, ``COMMON_ROOT_TOL``); identically-zero rows
    are flagged uninformative and excluded, and if every row is, the set
    carries ``no_identifying_content`` and an empty root list.  Inequality
    rows give the subintervals of ``[0, 1)`` where all are nonnegative.  The
    caller's ``diagnostics`` (a label, a firm) are merged into the set's; an
    equality system with a nonzero row also reports
    ``independent_polynomials``, its numerical rank.  A NaN or infinite
    coefficient raises a ValueError that names its row and column.
    """
    rows = require_finite(rows, "rows")
    diag = _poly_diagnostics(rows)
    if kind == "ge":
        return IdentifiedSet(inequality_intervals=sign_region(rows), rows=rows,
                             diagnostics={**diagnostics, "polynomials": diag})
    if kind != "eq":
        raise ValueError("kind must be 'eq' or 'ge'")
    roots = _common_roots(rows, diag)
    if roots is None:
        return IdentifiedSet(equality_roots=[], rows=rows, diagnostics={
            **diagnostics, "polynomials": diag, "no_identifying_content": True})
    sv = np.linalg.svd(rows, compute_uv=False)
    return IdentifiedSet(equality_roots=list(roots.points), rows=rows, diagnostics={
        **diagnostics, "polynomials": diag, "root_residuals": list(roots.residuals),
        "independent_polynomials": int(np.sum(sv > 1e-10 * sv[0]))})


def equality_identified_set(master: MasterSystem, rs: RestrictionSet) -> IdentifiedSet:
    """Common roots on ``[0, 1)`` of the equality restriction's rows (see
    :func:`identified_set`)."""
    if rs.kind != "eq":
        raise ValueError("restriction set must be of equality kind")
    return identified_set(master.payoff_polys(rs.R, rs.c), "eq", {"label": rs.label, **master.info})


def inequality_region(master: MasterSystem, rs: RestrictionSet) -> IdentifiedSet:
    """Subset of ``[0, 1)`` on which the payoffs recovered at each discount
    factor satisfy the inequality restriction ``R U >= c``."""
    if rs.kind != "ge":
        raise ValueError("restriction set must be of inequality kind")
    return identified_set(master.payoff_polys(rs.R, rs.c), "ge", {"label": rs.label, **master.info})


def combine(*sets: IdentifiedSet) -> IdentifiedSet:
    """Intersect any number of equality root sets and inequality regions.

    Roots of different equality sets match within ``COMBINE_TOL``, and a root
    is kept if it lies within ``COMBINE_TOL`` of the intersected region.  An
    equality set flagged ``no_identifying_content`` holds at every discount
    factor, so it constrains nothing; if every equality set is flagged, the
    roots and the combined set are ``None`` and the result carries the flag
    instead of an empty intersection.
    """
    roots, region, flagged = None, None, False
    for s in sets:
        if s.diagnostics.get("no_identifying_content"):
            flagged = True
        elif s.equality_roots is not None:
            roots = list(s.equality_roots) if roots is None else [
                r for r in roots if any(abs(r - q) <= COMBINE_TOL for q in s.equality_roots)]
        if s.inequality_intervals is not None:
            region = list(s.inequality_intervals) if region is None else [
                (max(lo1, lo2), min(hi1, hi2)) for lo1, hi1 in region
                for lo2, hi2 in s.inequality_intervals if max(lo1, lo2) <= min(hi1, hi2)]
    combined = roots
    if roots is not None and region is not None:
        combined = [r for r in roots
                    if any(lo - COMBINE_TOL <= r <= hi + COMBINE_TOL for lo, hi in region)]
    return IdentifiedSet(
        equality_roots=roots,
        inequality_intervals=region,
        combined=combined,
        diagnostics={"no_identifying_content": True} if flagged and roots is None else {},
    )


def solve_log_diff(master: MasterSystem, r, c: float) -> RootSet:
    """Roots of a log-payoff-difference restriction on ``[0, 1)``.

    Solves ``sum_k r_k * log(G_k(beta)) = c`` where ``G`` is the vector of
    determinant-scaled recovered payoffs, working in log space.  Subdomains
    where any required ``G_k`` is nonpositive are excluded.  The objective is
    evaluated on a grid of ``LOG_DIFF_GRID_POINTS`` points in one call; exact
    zeros and sign changes between defined neighbours are the roots, each
    change refined by :func:`betapoly.crossing`.  If the objective is within
    tolerance of zero everywhere on its domain the restriction holds
    identically and the result is flagged uninformative.
    """
    r = require_finite(r, "log-difference weights")  # NaN would pass every check below
    require_finite(c, "log-difference target")
    if r.shape != (master.n_rows,):
        raise ValueError(f"log-difference weights have length {r.size}; the system has {master.n_rows} rows")
    if abs(r.sum()) > 1e-10:
        raise ValueError("log-difference weights must sum to zero")
    active = np.nonzero(r)[0]
    if active.size == 0:
        raise ValueError("weight vector is identically zero")
    ga = master.payoff_polys(np.eye(master.n_rows)[active])
    ra = r[active]
    scale = np.max(np.abs(ga))

    def h(x):
        # c - sum_k r_k log G_k(x), NaN where an active G_k <= 0; the scale
        # cancels because sum(r) = 0.  Summed term by term, not by a BLAS
        # product, so a point's value does not depend on the points beside it
        vals = polyval_rows(ga, x)
        return c - sum(w * v for w, v in zip(ra, np.log(np.where(vals > 0.0, vals / scale, np.nan))))

    xs = np.arange(LOG_DIFF_GRID_POINTS) / LOG_DIFF_GRID_POINTS
    fs = h(xs)
    valid = ~np.isnan(fs)
    if not valid.any():
        raise ValueError("log-difference objective is undefined everywhere on [0, 1)")
    if np.nanmax(np.abs(fs)) <= 1e-10:
        return RootSet(np.empty(0), np.empty(0), uninformative=True)
    defined = valid[:-1] & valid[1:]
    zeros = defined & (fs[:-1] == 0.0)
    flips = defined & (fs[:-1] * fs[1:] < 0.0)
    pts = np.array([xs[i] if zeros[i] else crossing(h, xs[i], xs[i + 1])
                    for i in np.flatnonzero(zeros | flips)])
    return RootSet(pts, np.abs(h(pts)))


def _dependence_powers(D, QK, rho: int) -> list:
    """``D, D Q_last, ..., D Q_last^rho`` for a bracket row (or matrix of rows) ``D``."""
    out = [D]
    for _ in range(rho):
        out.append(out[-1] @ QK)
    return out


def check_finite_dependence(Q, pairs, rho_max: int = 5) -> FiniteDependenceCert:
    """Find the smallest order at which paired action-state transitions coincide.

    Each pair is ``((k_a, x_a), (k_b, x_b))`` with actions in ``0..K-2`` and
    states in ``0..J-1``, checked, not wrapped; a bool or a fraction is an
    ``IndexError``.  The pair brackets
    ``Q_ka(x_a) - Q_kb(x_b) - Q_last(x_a) + Q_last(x_b)`` are stacked as the
    rows of one matrix ``D``; the certificate verifies
    ``max |D Q_last^rho| <= FD_CERT_TOL``, returning the smallest such
    ``rho <= rho_max`` or an unsatisfied certificate.  ``Q`` must be
    row-stochastic, so finite, of shape ``(K, J, J)`` with ``K >= 2``.
    """
    Q = check_stochastic(Q, "transition row", ("action", "state"))
    if Q.ndim != 3 or Q.shape[0] < 2 or Q.shape[1] != Q.shape[2]:
        raise ValueError(f"Q must have shape (K, J, J) with K >= 2 actions, got {Q.shape}")
    K, J = Q.shape[:2]
    pairs = tuple((tuple(a), tuple(b)) for a, b in pairs)
    if not pairs:
        raise ValueError("finite dependence needs at least one pair")
    if any(a not in range(K - 1) for pair in pairs for a, _ in pair):
        raise ValueError(f"finite-dependence pairs must use actions other than the last, 0..{K - 2}")
    k = _flat_points([a for pair in pairs for a, _ in pair], ("action",), (K - 1,)).reshape(-1, 2)
    x = _flat_points([s for pair in pairs for _, s in pair], ("state",), (J,)).reshape(-1, 2)
    QK = Q[K - 1]
    D = Q[k[:, 0], x[:, 0]] - Q[k[:, 1], x[:, 1]] - QK[x[:, 0]] + QK[x[:, 1]]
    gaps = [float(np.max(np.abs(W))) for W in _dependence_powers(D, QK, rho_max)[1:]]
    for rho, gap in enumerate(gaps, start=1):
        if gap <= FD_CERT_TOL:
            return FiniteDependenceCert(rho=rho, pairs=pairs, max_violation=gap)
    return FiniteDependenceCert(rho=None, pairs=pairs, max_violation=min(gaps, default=np.inf))


def finite_restriction_poly(psi, Q, row, c: float, rho: int) -> np.ndarray:
    """Coefficients (length ``rho + 1``) of the identifying polynomial
    ``r U(beta) - c`` of one restriction row under ``rho``-dependence.

    Every recovered payoff satisfies ``u_k(x) = psi_last(x) - psi_k(x) +
    beta (Q_last(x) - Q_k(x)) V(beta)`` with ``V = (I - beta Q_last)^-1
    psi_last = sum_s beta^s Q_last^s psi_last``.  With the row's bracket
    ``d = sum_kx r_kx (Q_last(x) - Q_k(x))``, the row is certified when
    ``max |d Q_last^rho| <= FD_CERT_TOL * max(1, sum |r|)``; the series then stops
    and the coefficients are ``a_0 = sum_kx r_kx (psi_last(x) - psi_k(x)) - c``
    and ``a_(s+1) = d Q_last^s psi_last`` for ``s < rho``.  ``psi`` and ``Q``
    are checked by :func:`ddc._model_arrays`; a NaN or infinite ``row`` or
    ``c`` is a ValueError.
    """
    psi, Q = _model_arrays(psi, Q, "psi")
    require_finite(c, "c")
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    K, J = psi.shape
    r = require_finite(row, "row").reshape(K - 1, J)
    weight = max(1.0, float(np.sum(np.abs(r))))
    d = r.sum(axis=0) @ Q[K - 1] - np.einsum("kx,kxy->y", r, Q[: K - 1])
    powers = _dependence_powers(d, Q[K - 1], rho)
    gap = float(np.max(np.abs(powers[-1])))
    if gap > FD_CERT_TOL * weight:
        raise ValueError(f"restriction row lacks {rho}-dependence (max violation {gap:.3e})")
    coeffs = np.array([float(np.sum(r * (psi[K - 1] - psi[: K - 1]))) - c]
                      + [float(w @ psi[K - 1]) for w in powers[:-1]])
    # coefficients at rounding level of the inputs mean the row holds at every
    # discount factor; return zeros so it is flagged uninformative
    input_scale = max(1.0, float(np.max(np.abs(psi))), abs(c)) * weight
    if np.max(np.abs(coeffs)) <= 1e-12 * input_scale:
        coeffs[:] = 0.0
    return coeffs


def finite_equality_set(polys) -> IdentifiedSet:
    """Common roots on ``[0, 1)`` of a list of degree-``rho`` equality rows."""
    return identified_set(np.vstack(polys), "eq", {})


def finite_inequality_region(polys) -> IdentifiedSet:
    """Subset of ``[0, 1)`` where every row of a list of degree-``rho``
    inequality rows is nonnegative (rows were stored as ``r @ U >= c``)."""
    return identified_set(np.vstack(polys), "ge", {})

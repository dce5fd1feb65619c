"""Identified sets for the discount factor from restriction systems.

Equality restrictions yield root systems of degree-J polynomials; inequality
restrictions yield sign regions; both can be combined.  Under finite
dependence the identifying polynomials collapse to the dependence order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npoly

from .betapoly import (
    ROOT_RESIDUAL_TOL,
    BetaPoly,
    RootSet,
    SignRegion,
    coeff_matrix,
    roots_in_interval,
    sign_region,
)
from .ddc import MasterSystem
from .restrictions import RestrictionSet

ZERO_POLY_TOL = 1e-12
COMMON_ROOT_TOL = 1e-6
COMBINE_TOL = 1e-6
FD_CERT_TOL = 1e-10
LOG_DIFF_GRID_POINTS = 4001
LOG_DIFF_REFINE_TOL = 1e-10


@dataclass(frozen=True)
class IdentifiedSet:
    """Discount factors consistent with the model and a restriction set.

    ``equality_roots`` lists common roots of the equality system on ``[0, 1)``;
    ``inequality_intervals`` the feasible subintervals; ``combined`` their
    intersection.  Components that were not computed are ``None``.
    ``diagnostics`` records per-polynomial degrees, scales, and uninformative
    flags.  ``polys`` holds the identifying polynomials the set was computed
    from; it is not serialized.
    """

    equality_roots: list | None = None
    inequality_intervals: list | None = None
    combined: list | None = None
    diagnostics: dict = field(default_factory=dict)
    polys: list = field(default_factory=list, repr=False, compare=False)

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
    tol: float
    max_violation: float

    @property
    def satisfied(self) -> bool:
        return self.rho is not None


def _poly_diagnostics(polys, system_scale):
    diag = []
    for p in polys:
        diag.append({
            "degree": p.degree,
            "scale": p.max_abs_coeff,
            "uninformative": p.max_abs_coeff <= ZERO_POLY_TOL * system_scale,
        })
    return diag


def _common_roots(polys, residual_tol):
    """Common roots on [0, 1) of a list of polynomials.

    Candidates are the roots of the first informative polynomial; a candidate
    survives if every other informative polynomial is within
    ``COMMON_ROOT_TOL`` of zero there (relative to its own coefficient scale).
    """
    system_scale = max((p.max_abs_coeff for p in polys), default=0.0)
    diag = _poly_diagnostics(polys, system_scale)
    informative = [p for p, d in zip(polys, diag) if not d["uninformative"]]
    if not informative:
        return None, diag
    candidates = roots_in_interval(informative[0], residual_tol=residual_tol)
    pts, res = [], []
    for r, rr in zip(candidates.points, candidates.residuals):
        vals = [abs(p(r)) / p.max_abs_coeff for p in informative[1:]]
        if all(v <= COMMON_ROOT_TOL for v in vals):
            pts.append(float(r))
            res.append(max([float(rr)] + vals))
    return RootSet(np.asarray(pts), np.asarray(res)), diag


def identified_set(polys, kind: str, diagnostics: dict, *,
                   residual_tol: float = ROOT_RESIDUAL_TOL) -> IdentifiedSet:
    """The identified set of a system of restriction rows, each a polynomial
    that is ``>= 0`` (kind ``"ge"``) or ``== 0`` (kind ``"eq"``) at the
    discount factors consistent with it.

    Equality rows give their common roots on ``[0, 1)``; identically-zero rows
    are flagged uninformative and excluded, and if every row is, the set
    carries ``no_identifying_content`` and an empty root list.  Inequality
    rows give the subintervals of ``[0, 1)`` where all are nonnegative.  The
    caller's ``diagnostics`` (a label, a firm) are merged into the set's.
    """
    polys = list(polys)
    if kind == "ge":
        scale = max((p.max_abs_coeff for p in polys), default=0.0)
        return IdentifiedSet(inequality_intervals=list(sign_region(polys).intervals), polys=polys,
                             diagnostics={**diagnostics, "polynomials": _poly_diagnostics(polys, scale)})
    if kind != "eq":
        raise ValueError("kind must be 'eq' or 'ge'")
    roots, diag = _common_roots(polys, residual_tol)
    if roots is None:
        return IdentifiedSet(equality_roots=[], polys=polys, diagnostics={
            **diagnostics, "polynomials": diag, "no_identifying_content": True})
    return IdentifiedSet(equality_roots=list(roots.points), polys=polys, diagnostics={
        **diagnostics, "polynomials": diag, "root_residuals": list(roots.residuals)})


def equality_identified_set(master: MasterSystem, rs: RestrictionSet, *,
                            residual_tol: float = ROOT_RESIDUAL_TOL) -> IdentifiedSet:
    """Common roots on ``[0, 1)`` of the equality restriction's rows (see
    :func:`identified_set`)."""
    if rs.kind != "eq":
        raise ValueError("restriction set must be of equality kind")
    return identified_set(master.payoff_polys(rs.R, rs.c), "eq", {"label": rs.label},
                          residual_tol=residual_tol)


def inequality_region(master: MasterSystem, rs: RestrictionSet) -> IdentifiedSet:
    """Subset of ``[0, 1)`` on which the payoffs recovered at each discount
    factor satisfy the inequality restriction ``R U >= c``."""
    if rs.kind != "ge":
        raise ValueError("restriction set must be of inequality kind")
    return identified_set(master.payoff_polys(rs.R, rs.c), "ge", {"label": rs.label})


def combine(*sets: IdentifiedSet, tol: float = COMBINE_TOL) -> IdentifiedSet:
    """Intersect any number of equality root sets and inequality regions.

    Roots of different equality sets match within ``tol``, and a root is kept
    if it lies within ``tol`` of the intersected region.  An equality set
    flagged ``no_identifying_content`` holds at every discount factor, so it
    constrains nothing; if every equality set is flagged, the roots and the
    combined set are ``None`` and the result carries the flag instead of an
    empty intersection.
    """
    roots, region, flagged = None, None, False
    for s in sets:
        if s.diagnostics.get("no_identifying_content"):
            flagged = True
        elif s.equality_roots is not None:
            roots = list(s.equality_roots) if roots is None else [
                r for r in roots if any(abs(r - q) <= tol for q in s.equality_roots)]
        if s.inequality_intervals is not None:
            region = list(s.inequality_intervals) if region is None else [
                (max(lo1, lo2), min(hi1, hi2)) for lo1, hi1 in region
                for lo2, hi2 in s.inequality_intervals if max(lo1, lo2) <= min(hi1, hi2)]
    combined = roots
    if roots is not None and region is not None:
        combined = [r for r in roots if SignRegion(region).contains(r, tol=tol)]
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
    where any required ``G_k`` is nonpositive are excluded.  If the objective
    is within tolerance of zero everywhere on its domain the restriction holds
    identically and the result is flagged uninformative.
    """
    r = np.asarray(r, dtype=float)
    if abs(r.sum()) > 1e-10:
        raise ValueError("log-difference weights must sum to zero")
    active = np.nonzero(r)[0]
    if active.size == 0:
        raise ValueError("weight vector is identically zero")
    ga = coeff_matrix(master.payoff_polys(np.eye(master.n_rows)[active]))
    ra = r[active]
    scale = np.max(np.abs(ga))

    def objective(x):
        vals = npoly.polyval(x, ga.T)  # g-values of the active rows at x
        vals = np.atleast_1d(vals)
        if np.any(vals <= 0.0):
            return None
        return float(np.dot(ra, np.log(vals / scale)))  # scale cancels: sum(r)=0

    xs = np.arange(LOG_DIFF_GRID_POINTS) / LOG_DIFF_GRID_POINTS
    fs = np.array([np.nan if (v := objective(x)) is None else v - c for x in xs])
    valid = ~np.isnan(fs)
    if not valid.any():
        raise ValueError("log-difference objective is undefined everywhere on [0, 1)")
    if np.nanmax(np.abs(fs)) <= 1e-10:
        return RootSet(np.empty(0), np.empty(0), uninformative=True)

    def bisect(a, b, fa):
        for _ in range(200):
            if b - a <= LOG_DIFF_REFINE_TOL:
                break
            m = 0.5 * (a + b)
            fm = objective(m)
            if fm is None:
                break
            fm -= c
            if (fm <= 0.0) == (fa <= 0.0):
                a, fa = m, fm
            else:
                b = m
        return 0.5 * (a + b)

    pts = []
    for i in range(LOG_DIFF_GRID_POINTS - 1):
        if not (valid[i] and valid[i + 1]):
            continue
        if fs[i] == 0.0:
            pts.append(xs[i])
        elif fs[i] * fs[i + 1] < 0.0:
            pts.append(bisect(xs[i], xs[i + 1], fs[i]))
    pts = np.asarray(sorted(pts))
    res = np.array([abs((objective(x) or 0.0) - c) for x in pts])
    return RootSet(pts, res)


def check_finite_dependence(Q, pairs, rho_max: int = 5,
                            tol: float = FD_CERT_TOL) -> FiniteDependenceCert:
    """Find the smallest order at which paired action-state transitions coincide.

    Each pair is ``((k_a, x_a), (k_b, x_b))`` with actions different from the
    last one.  The certificate verifies

        [Q_ka(x_a) - Q_kb(x_b)] Q_last^rho == [Q_last(x_a) - Q_last(x_b)] Q_last^rho

    within ``tol`` for all pairs, returning the smallest such ``rho <= rho_max``
    or an unsatisfied certificate.
    """
    Q = np.asarray(Q, dtype=float)
    K = Q.shape[0]
    pairs = tuple((tuple(a), tuple(b)) for a, b in pairs)
    for (ka, _), (kb, _) in pairs:
        if ka == K - 1 or kb == K - 1:
            raise ValueError("finite-dependence pairs must use actions other than the last")
    power = Q[K - 1].copy()
    best_violation = np.inf
    for rho in range(1, rho_max + 1):
        worst = 0.0
        for (ka, xa), (kb, xb) in pairs:
            lhs = (Q[ka][xa] - Q[kb][xb]) @ power
            rhs = (Q[K - 1][xa] - Q[K - 1][xb]) @ power
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        best_violation = min(best_violation, worst)
        if worst <= tol:
            return FiniteDependenceCert(rho=rho, pairs=pairs, tol=tol, max_violation=worst)
        power = power @ Q[K - 1]
    return FiniteDependenceCert(rho=None, pairs=pairs, tol=tol, max_violation=best_violation)


def finite_dependence_g(psi, Q, k: int, x: int, rho: int) -> BetaPoly:
    """Degree-``rho`` building block of the finite-dependence payoff identity:
    ``-psi_k(x) - beta * Q_k(x) (I + beta Q_last + ... + beta^(rho-1) Q_last^(rho-1)) psi_last``."""
    psi = np.asarray(psi, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    K = psi.shape[0]
    coeffs = np.zeros(rho + 1)
    coeffs[0] = -psi[k, x]
    w = psi[K - 1].copy()
    for s in range(rho):
        coeffs[s + 1] = -float(Q[k][x] @ w)
        w = Q[K - 1] @ w
    return BetaPoly(coeffs)


def pair_difference_poly(psi, Q, pair_a, pair_b, rho: int) -> BetaPoly:
    """Polynomial equal to ``u_ka(x_a) - u_kb(x_b)`` at the true discount factor
    under ``rho``-dependence of the pair."""
    (ka, xa), (kb, xb) = pair_a, pair_b
    K = np.asarray(psi).shape[0]
    g = lambda k, x: finite_dependence_g(psi, Q, k, x, rho)
    return g(ka, xa) - g(kb, xb) - g(K - 1, xa) + g(K - 1, xb)


def decompose_row_to_pairs(row, n_states: int, Q=None, tol: float = 1e-12):
    """Write a stacked-payoff restriction row as a signed sum of payoff differences.

    Returns ``(alphas, pairs)`` with ``row @ U == sum_j alphas[j] *
    (U[p_j] - U[q_j])`` for pair positions expressed as ``(action, state)``.
    Requires the row weights to sum to zero (payoff-difference form).

    The pairing of positive against negative weights is not unique.  When the
    transition matrices are supplied, each greedy step picks the pairing whose
    dependence bracket

        Q_ka(x_a) - Q_kb(x_b) - Q_last(x_a) + Q_last(x_b)

    is largest, so the resulting difference polynomials carry identifying
    content whenever any valid pairing does.
    """
    row = np.asarray(row, dtype=float)
    if abs(row.sum()) > 1e-9 * max(1.0, np.max(np.abs(row))):
        raise ValueError("row weights must sum to zero to decompose into payoff differences")
    if Q is not None:
        Q = np.asarray(Q, dtype=float)
        K = Q.shape[0]

    def bracket(ip, im):
        if Q is None:
            return 0.0
        ka, xa = divmod(ip, n_states)
        kb, xb = divmod(im, n_states)
        d = Q[ka][xa] - Q[kb][xb] - Q[K - 1][xa] + Q[K - 1][xb]
        return float(np.max(np.abs(d)))

    pos = {i: v for i, v in enumerate(row) if v > tol}
    neg = {i: -v for i, v in enumerate(row) if v < -tol}
    alphas, pairs = [], []
    while pos and neg:
        ip, im = max(((p, m) for p in sorted(pos) for m in sorted(neg)),
                     key=lambda pm: bracket(*pm))
        a = min(pos[ip], neg[im])
        alphas.append(a)
        pairs.append(((ip // n_states, ip % n_states), (im // n_states, im % n_states)))
        pos[ip] -= a
        neg[im] -= a
        if pos[ip] <= tol:
            del pos[ip]
        if neg[im] <= tol:
            del neg[im]
    return alphas, pairs


def finite_restriction_poly(psi, Q, row, c: float, rho: int, *,
                            cert_tol: float = FD_CERT_TOL) -> BetaPoly:
    """Identifying polynomial of one restriction row under finite dependence.

    The row is decomposed into payoff differences; each difference pair is
    verified against the dependence certificate tolerance before its degree-
    ``rho`` polynomial enters the combination ``sum_j alpha_j D_j(beta) - c``.
    """
    psi = np.asarray(psi, dtype=float)
    Q = np.asarray(Q, dtype=float)
    J = psi.shape[1]
    alphas, pairs = decompose_row_to_pairs(row, J, Q=Q)
    cert = check_finite_dependence(Q, pairs, rho_max=rho, tol=cert_tol)
    if not (cert.satisfied and cert.rho <= rho):
        raise ValueError(
            f"restriction row references pairs without {rho}-dependence "
            f"(max violation {cert.max_violation:.3e})"
        )
    poly = BetaPoly([-c])
    for a, (pa, pb) in zip(alphas, pairs):
        poly = poly + a * pair_difference_poly(psi, Q, pa, pb, rho)
    # coefficients at rounding level of the inputs mean the row holds at every
    # discount factor; return the zero polynomial so it is flagged uninformative
    input_scale = max(1.0, float(np.max(np.abs(psi))), abs(c)) * max(1.0, float(np.sum(np.abs(row))))
    if poly.max_abs_coeff <= 1e-12 * input_scale:
        return BetaPoly.zero()
    return poly


def finite_equality_set(polys, *, residual_tol: float = ROOT_RESIDUAL_TOL) -> IdentifiedSet:
    """Common roots on ``[0, 1)`` of degree-``rho`` equality polynomials."""
    return identified_set(polys, "eq", {}, residual_tol=residual_tol)


def finite_inequality_region(polys) -> IdentifiedSet:
    """Subset of ``[0, 1)`` where every degree-``rho`` inequality polynomial is
    nonnegative (rows were stored as ``r @ U >= c``)."""
    return identified_set(polys, "ge", {})

"""Linear shape restrictions on stacked per-period payoffs.

Builders translate nonparametric economic assumptions (homogeneity, zero
cross-differences, monotonicity, curvature, complementarity, linearity in
parameters, exclusions) into ``(R, c)`` pairs acting on the action-major
stacked payoff vector.  Equalities are stored as ``R @ U = c`` and
inequalities as ``R @ U >= c``.

Each shape restriction is a stencil along one or two grid axes: its builder
slices the index array of ``FactoredStates.cells`` (``u[..., 1:]`` against
``u[..., :-1]``, say) and passes the weighted slices to one assembler,
``_stencil_rows``.  The game row builders in ``games`` slice the index array
of ``games.payoff_cells`` and use the same assembler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .betapoly import _number, freeze, frozen, require_finite
from .errors import RankDeficiencyError

RANK_TOL = 1e-10
GRID_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class FactoredStates:
    """Index map for a product of named scalar grids, kept as read-only, finite, ascending copies.

    The first axis varies fastest in the flat state index.  Payoff columns are
    action-major: column of ``(action k, state x)`` is ``k * J + x`` for
    actions ``k = 0..K-2`` (the last action is normalized away).

    ``cells(action, *axes)`` holds those columns, one dimension per axis: the
    other axes in ``axes`` order, then the named ones as given.  Its C order is
    every stencil builder's row order (``itertools.product`` over the other
    axes, then the stencil positions along the named ones).
    """

    axes: tuple[str, ...]
    grids: tuple[np.ndarray, ...]
    n_actions: int

    def __post_init__(self):
        if len(self.axes) != len(self.grids) or len(set(self.axes)) < len(self.axes):
            raise ValueError(f"axes {self.axes} must be distinct and align with the {len(self.grids)} grids")
        grids = tuple(frozen(g, f"axis {name!r} grid") for name, g in zip(self.axes, self.grids))
        for name, g in zip(self.axes, grids):
            if g.ndim != 1 or len(g) < 1 or np.any(np.diff(g) <= 0):
                raise ValueError(f"grid for axis {name!r} must be a nonempty, strictly ascending vector")
        object.__setattr__(self, "grids", grids)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.grids)

    @property
    def n_states(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_columns(self) -> int:
        return (self.n_actions - 1) * self.n_states

    def axis_pos(self, axis: str) -> int:
        try:
            return self.axes.index(axis)
        except ValueError:
            raise KeyError(f"unknown axis {axis!r}; have {self.axes}") from None

    def grid(self, axis: str) -> np.ndarray:
        return self.grids[self.axis_pos(axis)]

    def cells(self, action: int, *axes: str) -> np.ndarray:
        """Payoff columns of ``action``, one dimension per grid axis, with the
        named ``axes`` moved last in the order given (see the class docstring);
        an action outside ``0..K-2``, or not an integer, raises ``IndexError``."""
        k = _flat_points(action, ("action",), (self.n_actions - 1,))[0]
        pos = [self.axis_pos(a) for a in axes]
        if len(set(axes)) < len(axes):
            raise ValueError(f"axis {max(axes, key=axes.count)!r} is named more than once")
        flat = k * self.n_states + np.arange(self.n_states).reshape(self.shape, order="F")
        return np.moveaxis(flat, pos, range(len(self.axes) - len(pos), len(self.axes)))

    def find_on_grid(self, axis: str, value: float) -> int:
        """Grid index of a value on an axis, matched within ``GRID_MATCH_TOL``
        relative to ``max(1, max|grid|)``; errors if the point is absent."""
        g = self.grid(axis)
        scale = max(1.0, float(np.max(np.abs(g))))
        hits = np.where(np.abs(g - value) <= GRID_MATCH_TOL * scale)[0]
        if hits.size == 0:
            raise ValueError(f"value {value} is not on the {axis!r} grid {g}")
        return int(hits[0])


def _targets(c, n_rows: int) -> np.ndarray:
    """The targets of ``n_rows`` restriction rows as a float vector, by the
    row format's rule: one finite number per row, or one number for every row
    (the builders' ``0.0``).  Anything else, a bool or a string included, is a
    ``ValueError`` that names the shape or the entry."""
    a = np.asarray(c)
    if a.dtype.kind not in "iuf" or (a.ndim and a.shape != (n_rows,)):
        raise ValueError(f"c must be a number or one number per row ({n_rows}), not {a.dtype} of shape {a.shape}")
    return np.broadcast_to(require_finite(c, "c"), (n_rows,))


@dataclass(frozen=True)
class RestrictionSet:
    """A batch of linear restrictions ``R @ U (=|>=) c`` on stacked payoffs,
    kept as read-only float copies.  ``R`` is finite and ``c`` is one finite
    number per row, or one for every row; anything else is a ``ValueError``."""

    R: np.ndarray
    c: np.ndarray
    kind: str  # "eq" or "ge"
    label: str = ""

    def __post_init__(self):
        R = np.atleast_2d(require_finite(self.R, "R"))
        freeze(self, R=R, c=_targets(self.c, R.shape[0]))
        if self.kind not in ("eq", "ge"):
            raise ValueError("kind must be 'eq' or 'ge'")

    @property
    def n_rows(self) -> int:
        return self.R.shape[0]

    def to_json_dict(self) -> dict:
        rows = []
        for row in self.R:
            cols = np.nonzero(row)[0]
            rows.append({"cols": cols.tolist(), "vals": row[cols].tolist()})
        kind = "equality" if self.kind == "eq" else "inequality_ge"
        return {"label": self.label, "kind": kind, "n_columns": self.R.shape[1],
                "c": self.c.tolist(), "rows": rows}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RestrictionSet":
        """Decode :meth:`to_json_dict`, naming what it cannot read: a column
        that is not an int (a bool included) or is off ``0..n_columns-1`` is
        an ``IndexError``, and any other departure from the format (an unknown
        ``kind``, a column given twice, ``vals`` or ``c`` entries that are not
        finite numbers, bools and strings included, ``vals`` not one per
        column, ``c`` not one per row) is a ``ValueError``."""
        def numbers(xs):
            return isinstance(xs, list) and all(map(_number, xs))
        if not isinstance(d, dict) or d.get("kind") not in ("equality", "inequality_ge"):
            raise ValueError("a restriction must be an object whose kind is 'equality' or 'inequality_ge'")
        n, rows, label = d.get("n_columns"), d.get("rows"), d.get("label", "")
        if not (type(n) is int and n >= 0 and isinstance(rows, list) and isinstance(label, str)):
            raise ValueError("n_columns must be an integer of at least 0, rows a list and label a string")
        R = np.zeros((len(rows), n))
        for i, row in enumerate(rows):
            cols, vals = (row.get("cols"), row.get("vals")) if isinstance(row, dict) else (None, None)
            if not (isinstance(cols, list) and all(type(c) is int for c in cols)):
                raise IndexError(f"rows[{i}]: cols must be a list of integers")
            bad = [c for c in cols if not 0 <= c < n]
            if bad:
                raise IndexError(f"rows[{i}]: column {bad[0]} out of range for {n} stacked payoff cells")
            if len(set(cols)) < len(cols):
                twice = next(c for c in cols if cols.count(c) > 1)
                raise ValueError(f"rows[{i}]: column {twice} is given more than once")
            if not numbers(vals):
                raise ValueError(f"rows[{i}]: vals must be a list of numbers, all finite")
            if len(vals) != len(cols):
                raise ValueError(f"rows[{i}]: {len(vals)} vals for {len(cols)} cols")
            R[i, cols] = vals
        if not (numbers(d.get("c")) and len(d["c"]) == len(rows)):
            raise ValueError(f"c must be a list of numbers, all finite, one per row ({len(rows)})")
        return cls(R=R, c=d["c"], kind="eq" if d["kind"] == "equality" else "ge", label=label)


def _stencil_rows(n_columns: int, *terms) -> np.ndarray:
    """Rows of width ``n_columns``, one per cell of the common shape of the
    ``(columns, weights)`` terms: term by term, in the order given, row ``i``
    adds the ``i``-th weight at the ``i``-th column (both in C order)."""
    shape = np.broadcast_shapes(*(np.shape(x) for term in terms for x in term))
    n = math.prod(shape)
    R = np.zeros((n, n_columns))
    for cols, weights in terms:
        R[np.arange(n), np.broadcast_to(cols, shape).ravel()] += np.broadcast_to(weights, shape).ravel()
    return R


def _flat_points(points, axes, shape) -> np.ndarray:
    """Flat C-order indices of grid index tuples over ``axes``, a single
    index standing for a one-element list (the command line gives one as a
    scalar); an index off its axis, or not an integer, raises ``IndexError``
    (numpy would wrap a negative one, a cast would truncate a fraction, a
    bool in a list of ints would read as 0 or 1, and a string as its digits)."""
    flags = [v for v in np.asarray(points, dtype=object).flat if isinstance(v, (bool, np.bool_, str))]
    if flags:
        raise IndexError(f"index {flags[0]} on axes {axes} is not an integer")
    pts = np.asarray(points)
    if pts.ndim == 0:
        pts = pts[None]
    if pts.dtype.kind == "f" and np.any(pts != np.trunc(pts)):
        raise IndexError(f"index {pts[pts != np.trunc(pts)][0]} on axes {axes} is not an integer")
    pts = pts.astype(int).reshape(len(pts), len(axes))
    for axis, n, col in zip(axes, shape, pts.T):
        bad = col[(col < 0) | (col >= n)]
        if bad.size:
            raise IndexError(f"axis {axis!r} index {bad[0]} out of range")
    return np.ravel_multi_index(tuple(pts.T), shape)


def _orientation(direction, positive: str, negative: str) -> float:
    """1.0 for ``positive``, -1.0 for ``negative``, else a ``ValueError`` naming both."""
    if direction not in (positive, negative):
        raise ValueError(f"direction must be {positive!r} or {negative!r}, not {direction!r}")
    return 1.0 if direction == positive else -1.0


def _ray(fs: FactoredStates, axis: str, base: float, lambdas):
    """Grid indices on ``axis`` of ``base`` and each ``lam * base`` (all on it), then the multipliers
    as floats, all read by :func:`require_finite`; a multiplier not positive, or 1, is a ``ValueError``."""
    base = require_finite(base, "ray base").item()
    lams = require_finite(lambdas, "ray multipliers").tolist()
    for lam in lams:
        if not (lam > 0.0 and lam != 1.0):
            raise ValueError(f"ray multiplier {lam} must be positive and other than 1")
    return fs.find_on_grid(axis, base), [fs.find_on_grid(axis, lam * base) for lam in lams], lams


def _power(lam: float, nu) -> float:
    """``lam**nu`` by scalar float power (numpy's may round differently); an overflow is a ``ValueError``."""
    try:
        return lam ** float(nu)
    except OverflowError:
        raise ValueError(f"ray multiplier {lam} to the degree nu={nu} overflows") from None


def _ray_stencil(fs, action, axis, i0, i1, i2, lam1, lam2, nu) -> np.ndarray:
    """Rows ``w2 [u(i2) - u(i0)] - w1 [u(i1) - u(i0)]`` along ``axis`` (C order: other axes, then
    the indices), ``lam1`` and ``lam2`` listing the multipliers of ``i1`` and ``i2`` over ``i0``.
    The weights are ``w = 1/log(lam)`` (``nu=None``) or ``1/(lam**nu - 1)`` by :func:`_power`; one
    with ``lam**nu == 1`` is a ``ValueError``."""
    def weight(lam):
        if nu is None:
            return 1.0 / np.log(lam)
        if (power := _power(lam, nu)) == 1.0:
            raise ValueError(f"ray multiplier {lam} has lam**nu == 1 at nu={nu}: its weight is undefined")
        return 1.0 / (power - 1.0)
    w1, w2 = (np.array([weight(lam) for lam in lams]) for lams in (lam1, lam2))
    u = fs.cells(action, axis)
    return _stencil_rows(fs.n_columns, (u[..., i2], w2), (u[..., i1], -w1), (u[..., i0], w1 - w2))


def homogeneity_known_nu(fs: FactoredStates, action: int, base: float, lambdas, nu: float,
                         axis: str = "w") -> RestrictionSet:
    """Rows ``u(base*lam, z) - lam**nu * u(base, z) = 0`` for each multiplier and
    each combination of the remaining axes.  Every ray point must be on the grid."""
    require_finite(nu, "homogeneity degree nu")
    i_base, i_ray, lams = _ray(fs, axis, base, lambdas)
    u = fs.cells(action, axis)
    R = _stencil_rows(fs.n_columns, (np.take(u, i_ray, axis=-1), 1.0),
                      (u[..., [i_base]], [-_power(lam, nu) for lam in lams]))
    return RestrictionSet(R, 0.0, "eq", f"homogeneity(nu={nu})")


def log_homogeneity(fs: FactoredStates, action: int, base: float, lambdas,
                    axis: str = "w") -> RestrictionSet:
    """Degree-free homogeneity of a log-transformed payoff: scaled increments along a
    ray agree across multipliers, eliminating the unknown degree.

    ``lambdas`` lists the ray multipliers beyond 1; at least two are required.
    """
    return RestrictionSet(_log_ray_rows(fs, action, base, lambdas, axis), 0.0, "eq", "log_homogeneity")


def _log_ray_rows(fs: FactoredStates, action: int, base: float, lambdas, axis: str,
                  nu: float | None = None) -> np.ndarray:
    """Rows ``w_j [u(lam_j base) - u(base)] - w_0 [u(lam_0 base) - u(base)]``
    for ``j >= 1`` by :func:`_ray_stencil`, one block per cell of the other axes."""
    if len(lambdas) < 2:
        raise ValueError("insufficient ray points: need at least two multipliers besides 1")
    i_base, i_ray, lams = _ray(fs, axis, base, lambdas)
    if nu is not None:
        require_finite(nu, "homogeneity degree nu")
    return _ray_stencil(fs, action, axis, [i_base], i_ray[:1], i_ray[1:], lams[:1], lams[1:], nu)


def additive_homogeneous(fs: FactoredStates, action: int, nu: float = 1.0,
                         axis: str = "w") -> RestrictionSet:
    """Additive separability with a homogeneous-of-degree-``nu`` component in a scalar axis.

    For ``nu == 1`` this is the divided-second-difference form over consecutive
    grid triplets (valid on any grid, including one through zero); for other
    degrees the grid points of each triplet must be nonzero with a common sign
    and are treated as a ray anchored at the leftmost point.
    """
    require_finite(nu, "homogeneity degree nu")
    if nu == 1.0:
        R = _second_differences(fs, action, axis, 1.0)
    else:
        g = fs.grid(axis)
        if len(g) < 3:
            raise ValueError(f"axis {axis!r} needs at least 3 grid points, has {len(g)}")
        if g[0] <= 0.0 <= g[-1]:  # the ascending grid has a point at or across zero
            raise ValueError(
                f"axis {axis!r} grid is not a ray away from zero; "
                f"degree-{nu} homogeneity rows are not available"
            )
        R = _ray_stencil(fs, action, axis, np.s_[:-2], np.s_[1:-1], np.s_[2:],
                         (g[1:-1] / g[:-2]).tolist(), (g[2:] / g[:-2]).tolist(), nu)
    return RestrictionSet(R, 0.0, "eq", f"additive_homogeneous(nu={nu})")


def zero_cross_difference(fs: FactoredStates, action: int, diff_axis: str,
                          invariant_axes=None, diff_points=None,
                          invariant_points=None) -> RestrictionSet:
    """Differences along ``diff_axis`` are invariant across the named axes.

    Rows anchor at the first listed point of each set:
    ``[u(d_i, a_j) - u(d_0, a_j)] - [u(d_i, a_0) - u(d_0, a_0)] = 0`` giving
    ``(n_diff - 1) * (n_invariant - 1)`` rows (per combination of any axes not
    named, if the two sets do not exhaust the state space).  Invariant points
    are index tuples over ``invariant_axes``; by default every combination,
    last axis fastest.  A single index in place of a list is one point.
    """
    if invariant_axes is None:
        invariant_axes = tuple(a for a in fs.axes if a != diff_axis)
    invariant_axes = tuple(invariant_axes)
    u = fs.cells(action, diff_axis, *invariant_axes)
    k = len(invariant_axes)
    n_d, inv_shape = u.shape[-1 - k], u.shape[u.ndim - k:]
    d_pts = range(n_d) if diff_points is None else diff_points
    a_pts = list(np.ndindex(inv_shape)) if invariant_points is None else invariant_points
    if len(np.atleast_1d(d_pts)) < 2 or len(np.atleast_1d(a_pts)) < 2:  # a scalar is one point
        raise ValueError("need at least two points along the difference axis and two across")
    u = u.reshape(u.shape[:u.ndim - k] + (-1,))  # invariant points flattened in C order
    v = u[..., _flat_points(d_pts, (diff_axis,), (n_d,))[:, None],
          _flat_points(a_pts, invariant_axes, inv_shape)]
    R = _stencil_rows(fs.n_columns, (v[..., 1:, 1:], 1.0), (v[..., 1:, :1], -1.0),
                      (v[..., :1, 1:], -1.0), (v[..., :1, :1], 1.0))
    return RestrictionSet(R, 0.0, "eq", f"zero_cross({diff_axis})")


def exclusion(fs: FactoredStates, pair_a, pair_b) -> RestrictionSet:
    """Equate the payoff at two action-state pairs (one row).

    Each pair is ``(action, coords)``, ``coords`` one grid index for each axis and no other
    (a ``ValueError`` otherwise).  If the second action is the normalized last action, its
    term is dropped (that payoff is identically zero).
    """
    (ka, ca), (kb, cb) = pair_a, pair_b
    for pair, coords in (("first", ca), ("second", cb)):
        if set(coords) != set(fs.axes):
            raise ValueError(f"exclusion's {pair} pair gives the axes {list(coords)}; the grid's are {list(fs.axes)}")
    axes = fs.axes[::-1]  # C order over the reversed axes is the flat state order
    xa, xb = (_flat_points([[x[a] for a in axes]], axes, fs.shape[::-1])[0] for x in (ca, cb))
    kb = _flat_points(kb, ("action",), (fs.n_actions,))[0]
    pairs = [(ka, xa)] if kb == fs.n_actions - 1 else [(ka, xa), (kb, xb)]  # the normalized action has no column
    cols = [fs.cells(k, *axes).flat[x] for k, x in pairs]
    if len(set(cols)) < len(cols):
        raise ValueError("exclusion must reference two distinct action-state pairs")
    row = np.zeros(fs.n_columns)
    row[cols] = [1.0, -1.0][: len(cols)]
    return RestrictionSet(row[None, :], 0.0, "eq", label="exclusion")


def _second_differences(fs: FactoredStates, action: int, axis: str, sgn: float) -> np.ndarray:
    """Rows ``sgn`` times the divided second differences along ``axis`` (``>= 0`` if convex)."""
    g = fs.grid(axis)
    if len(g) < 3:
        raise ValueError(f"axis {axis!r} needs at least 3 grid points, has {len(g)}")
    d1, d2 = g[1:-1] - g[:-2], g[2:] - g[1:-1]
    u = fs.cells(action, axis)
    return _stencil_rows(fs.n_columns, (u[..., :-2], sgn / d1),
                         (u[..., 1:-1], -(sgn * (1.0 / d1 + 1.0 / d2))), (u[..., 2:], sgn / d2))


def monotonicity(fs: FactoredStates, action: int, axis: str,
                 direction: str = "increasing") -> RestrictionSet:
    """Weak monotonicity along a scalar axis:
    ``u(next) - u(cur) >= 0`` (or the reverse for ``direction='decreasing'``)."""
    sgn = _orientation(direction, "increasing", "decreasing")
    u = fs.cells(action, axis)
    R = _stencil_rows(fs.n_columns, (u[..., 1:], sgn), (u[..., :-1], -sgn))
    return RestrictionSet(R, 0.0, "ge", f"monotonicity({axis},{direction})")


def concavity(fs: FactoredStates, action: int, axis: str, *, convex: bool = False) -> RestrictionSet:
    """Curvature along a scalar axis via divided second differences.

    With ``convex=False`` the rows assert weak concavity (consecutive divided
    differences are non-increasing, so a function like ``-x**2`` satisfies every
    row); ``convex=True`` flips the orientation.  Divided differences use the
    actual grid coordinates, so non-equispaced grids are handled correctly.
    A ``convex`` other than a bool is a ``ValueError``.
    """
    if not isinstance(convex, (bool, np.bool_)):
        raise ValueError(f"convex must be true or false, not {convex!r}")
    R = _second_differences(fs, action, axis, 1.0 if convex else -1.0)
    return RestrictionSet(R, 0.0, "ge", f"{'convexity' if convex else 'concavity'}({axis})")


def complementarity(fs: FactoredStates, action: int, axes=("w", "z"),
                    direction: str = "complements") -> RestrictionSet:
    """Sign-restricted cross-differences between two scalar axes.

    ``complements`` asserts ``u(w+, z+) - u(w+, z) - u(w, z+) + u(w, z) >= 0``
    for every adjacent cell of the two grids (per combination of remaining
    axes); ``substitutes`` reverses the sign.
    """
    ax_w, ax_z = axes
    u = fs.cells(action, ax_w, ax_z)
    sgn = _orientation(direction, "complements", "substitutes")
    R = _stencil_rows(fs.n_columns, (u[..., 1:, 1:], sgn), (u[..., 1:, :-1], -sgn),
                      (u[..., :-1, 1:], -sgn), (u[..., :-1, :-1], sgn))
    return RestrictionSet(R, 0.0, "ge", f"complementarity({ax_w},{ax_z})")


def linear_in_parameters(H) -> RestrictionSet:
    """Kernel restrictions for a payoff that is linear in parameters, ``U = H theta``.

    Returns an orthonormal basis of the left null space of ``H`` as equality
    rows, so ``R @ U = R @ H @ theta = 0`` for every parameter vector.
    """
    H = np.atleast_2d(require_finite(H, "design"))
    p, d = H.shape
    Umat, s, _ = np.linalg.svd(H, full_matrices=True)
    rank = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    if rank < d:
        raise RankDeficiencyError(
            f"design matrix must have full column rank {d}, numeric rank is {rank}",
            rank=rank, required=d,
        )
    R = Umat[:, rank:].T
    return RestrictionSet(R, np.zeros(p - rank), "eq", "linearity")


def log_diff_restriction(fs: FactoredStates, action: int, base: float, lambdas,
                         nu: float | None = None, axis: str = "w") -> tuple[np.ndarray, float]:
    """Weight vector ``r`` with ``sum(r) = 0`` for a restriction on log payoffs,
    ``r @ log(U) = 0``, on the first cell of the axes other than ``axis``;
    ``lambdas`` is exactly two ray multipliers.

    With ``nu=None`` the payoff is homogeneous of unknown degree along the ray
    (weights ``1/log(lambda)``, the first row of :func:`log_homogeneity`); with
    a known ``nu`` the payoff is the exponential of an additively separable
    function whose ray component is homogeneous of degree ``nu`` (weights
    ``1/(lambda**nu - 1)``).
    """
    if len(lambdas) != 2:
        raise ValueError(f"log-difference weights take exactly two ray multipliers, got {len(lambdas)}")
    r = _log_ray_rows(fs, action, base, lambdas, axis, nu)[0]
    if abs(r.sum()) > 1e-12:
        raise ValueError("log-difference weights failed to sum to zero")
    return r, 0.0

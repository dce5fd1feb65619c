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

from .errors import RankDeficiencyError

RANK_TOL = 1e-10
GRID_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class FactoredStates:
    """Index map for a state space that is a product of named scalar grids.

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
        if len(self.axes) != len(self.grids):
            raise ValueError("axes and grids must align")
        grids = tuple(np.asarray(g, dtype=float) for g in self.grids)
        for name, g in zip(self.axes, grids):
            if g.ndim != 1 or len(g) < 1:
                raise ValueError(f"grid for axis {name!r} must be a nonempty vector")
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

    def state_index(self, coords) -> int:
        """Flat state index from per-axis grid indices (first axis fastest); an
        index off its axis, or not an integer, raises ``IndexError``."""
        axes = self.axes[::-1]
        return int(_flat_points([[coords[a] for a in axes]], axes, self.shape[::-1])[0])

    def column(self, action: int, coords) -> int:
        if not 0 <= action < self.n_actions - 1:
            raise IndexError(f"action {action} has no payoff column (normalized or out of range)")
        return action * self.n_states + self.state_index(coords)

    def cells(self, action: int, *axes: str) -> np.ndarray:
        """Payoff columns of ``action``, one dimension per grid axis, with the
        named ``axes`` moved last in the order given (see the class docstring)."""
        if not 0 <= action < self.n_actions - 1:
            raise IndexError(f"action {action} has no payoff column (normalized or out of range)")
        pos = [self.axis_pos(a) for a in axes]
        if len(set(axes)) < len(axes):
            raise ValueError(f"axis {max(axes, key=axes.count)!r} is named more than once")
        flat = action * self.n_states + np.arange(self.n_states).reshape(self.shape, order="F")
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


@dataclass(frozen=True)
class RestrictionSet:
    """A batch of linear restrictions ``R @ U (=|>=) c`` on stacked payoffs."""

    R: np.ndarray
    c: np.ndarray
    kind: str  # "eq" or "ge"
    label: str = ""

    def __post_init__(self):
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        c = np.broadcast_to(np.asarray(self.c, dtype=float), (R.shape[0],)).copy()
        if self.kind not in ("eq", "ge"):
            raise ValueError("kind must be 'eq' or 'ge'")
        R.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "c", c)

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
        """Decode :meth:`to_json_dict`; a column that is not an int (a bool
        included) or is off ``0..n_columns-1`` is an ``IndexError``."""
        kind = {"equality": "eq", "inequality_ge": "ge"}[d["kind"]]
        n = d["n_columns"]
        R = np.zeros((len(d["rows"]), n))
        for i, row in enumerate(d["rows"]):
            cols = row["cols"]
            if not (isinstance(cols, list) and all(type(c) is int for c in cols)):
                raise IndexError(f"rows[{i}]: cols must be a list of integers")
            bad = [c for c in cols if not 0 <= c < n]
            if bad:
                raise IndexError(f"rows[{i}]: column {bad[0]} out of range for {n} stacked payoff cells")
            R[i, cols] = row["vals"]
        return cls(R=R, c=np.asarray(d["c"], dtype=float), kind=kind, label=d.get("label", ""))


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
    (numpy would wrap a negative one, a cast would truncate a fraction, and a
    bool in a list of ints would read as 0 or 1)."""
    flags = [v for v in np.asarray(points, dtype=object).flat if isinstance(v, (bool, np.bool_))]
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


def _ray(fs: FactoredStates, axis: str, base: float, lambdas):
    """Grid indices on ``axis`` of ``base`` and of each ``lam * base``, all of which must be on it.
    A multiplier that is not positive, or is 1, raises ``ValueError``."""
    for lam in lambdas:
        if not (lam > 0.0 and lam != 1.0):
            raise ValueError(f"ray multiplier {lam} must be positive and other than 1")
    return fs.find_on_grid(axis, base), [fs.find_on_grid(axis, lam * base) for lam in lambdas]


def homogeneity_known_nu(fs: FactoredStates, action: int, base: float, lambdas, nu: float,
                         axis: str = "w") -> RestrictionSet:
    """Rows ``u(base*lam, z) - lam**nu * u(base, z) = 0`` for each multiplier and
    each combination of the remaining axes.  Every ray point must be on the grid."""
    lambdas = [float(l) for l in lambdas]
    i_base, i_ray = _ray(fs, axis, base, lambdas)
    u = fs.cells(action, axis)
    R = _stencil_rows(fs.n_columns, (np.take(u, i_ray, axis=-1), 1.0),
                      (u[..., [i_base]], [-(lam ** nu) for lam in lambdas]))
    return RestrictionSet(R, 0.0, "eq", f"homogeneity(nu={nu})")


def log_homogeneity(fs: FactoredStates, action: int, base: float, lambdas,
                    axis: str = "w") -> RestrictionSet:
    """Degree-free homogeneity of a log-transformed payoff: scaled increments along a
    ray agree across multipliers, eliminating the unknown degree.

    ``lambdas`` lists the ray multipliers beyond 1; at least two are required.
    """
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) < 2:
        raise ValueError("insufficient ray points: need at least two multipliers besides 1")
    i_base, i_ray = _ray(fs, axis, base, lambdas)
    inv = [1.0 / np.log(lam) for lam in lambdas]
    u = fs.cells(action, axis)
    R = _stencil_rows(fs.n_columns, (u[..., i_ray[1:]], inv[1:]), (u[..., [i_ray[0]]], -inv[0]),
                      (u[..., [i_base]], [inv[0] - w for w in inv[1:]]))
    return RestrictionSet(R, 0.0, "eq", "log_homogeneity")


def additive_homogeneous(fs: FactoredStates, action: int, nu: float = 1.0,
                         axis: str = "w") -> RestrictionSet:
    """Additive separability with a homogeneous-of-degree-``nu`` component in a scalar axis.

    For ``nu == 1`` this is the divided-second-difference form over consecutive
    grid triplets (valid on any grid, including one through zero); for other
    degrees the grid points of each triplet must be nonzero with a common sign
    and are treated as a ray anchored at the leftmost point.
    """
    g = fs.grid(axis)
    if len(g) < 3:
        raise ValueError(f"axis {axis!r} needs at least 3 grid points, has {len(g)}")
    g0, g1, g2 = g[:-2], g[1:-1], g[2:]
    if nu == 1.0:
        w2, w0 = 1.0 / (g2 - g1), 1.0 / (g1 - g0)
        w1 = -(w2 + w0)
    else:
        if np.any((g0 == 0.0) | (g0 * g1 <= 0.0) | (g0 * g2 <= 0.0)):
            raise ValueError(
                f"axis {axis!r} grid is not a ray away from zero; "
                f"degree-{nu} homogeneity rows are not available"
            )
        # scalar powers: numpy's vectorized power may round differently
        a2 = np.array([x ** nu for x in g2 / g0]) - 1.0
        a1 = np.array([x ** nu for x in g1 / g0]) - 1.0
        w2, w1, w0 = 1.0 / a2, -1.0 / a1, 1.0 / a1 - 1.0 / a2
    u = fs.cells(action, axis)
    R = _stencil_rows(fs.n_columns, (u[..., 2:], w2), (u[..., 1:-1], w1), (u[..., :-2], w0))
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
    last axis fastest.
    """
    if invariant_axes is None:
        invariant_axes = tuple(a for a in fs.axes if a != diff_axis)
    invariant_axes = tuple(invariant_axes)
    u = fs.cells(action, diff_axis, *invariant_axes)
    k = len(invariant_axes)
    n_d, inv_shape = u.shape[-1 - k], u.shape[u.ndim - k:]
    d_pts = range(n_d) if diff_points is None else list(diff_points)
    a_pts = list(np.ndindex(inv_shape)) if invariant_points is None else list(invariant_points)
    if len(d_pts) < 2 or len(a_pts) < 2:
        raise ValueError("need at least two points along the difference axis and two across")
    u = u.reshape(u.shape[:u.ndim - k] + (-1,))  # invariant points flattened in C order
    v = u[..., _flat_points(d_pts, (diff_axis,), (n_d,))[:, None],
          _flat_points(a_pts, invariant_axes, inv_shape)]
    R = _stencil_rows(fs.n_columns, (v[..., 1:, 1:], 1.0), (v[..., 1:, :1], -1.0),
                      (v[..., :1, 1:], -1.0), (v[..., :1, :1], 1.0))
    return RestrictionSet(R, 0.0, "eq", f"zero_cross({diff_axis})")


def exclusion(fs: FactoredStates, pair_a, pair_b) -> RestrictionSet:
    """Equate the payoff at two action-state pairs (one row).

    Each pair is ``(action, coords)``.  If the second action is the normalized
    last action, its term is dropped (that payoff is identically zero).
    """
    (ka, ca), (kb, cb) = pair_a, pair_b
    row = np.zeros(fs.n_columns)
    row[fs.column(ka, ca)] += 1.0
    if kb != fs.n_actions - 1:  # the normalized action contributes nothing
        col_b = fs.column(kb, cb)
        if row[col_b] != 0.0:
            raise ValueError("exclusion must reference two distinct action-state pairs")
        row[col_b] -= 1.0
    return RestrictionSet(row[None, :], 0.0, "eq", label="exclusion")


def monotonicity(fs: FactoredStates, action: int, axis: str,
                 direction: str = "increasing") -> RestrictionSet:
    """Weak monotonicity along an ascending scalar axis:
    ``u(next) - u(cur) >= 0`` (or the reverse for ``direction='decreasing'``)."""
    g = fs.grid(axis)
    if np.any(np.diff(g) <= 0):
        raise ValueError(f"axis {axis!r} grid must be strictly ascending")
    sgn = {"increasing": 1.0, "decreasing": -1.0}[direction]
    u = fs.cells(action, axis)
    R = _stencil_rows(fs.n_columns, (u[..., 1:], sgn), (u[..., :-1], -sgn))
    return RestrictionSet(R, 0.0, "ge", f"monotonicity({axis},{direction})")


def concavity(fs: FactoredStates, action: int, axis: str, *, convex: bool = False) -> RestrictionSet:
    """Curvature along a scalar axis via divided second differences.

    With ``convex=False`` the rows assert weak concavity (consecutive divided
    differences are non-increasing, so a function like ``-x**2`` satisfies every
    row); ``convex=True`` flips the orientation.  Divided differences use the
    actual grid coordinates, so non-equispaced grids are handled correctly.
    """
    g = fs.grid(axis)
    if len(g) < 3:
        raise ValueError(f"axis {axis!r} needs at least 3 grid points, has {len(g)}")
    # divided second difference: nonnegative for convex u, nonpositive for concave u
    sgn = 1.0 if convex else -1.0
    d1, d2 = g[1:-1] - g[:-2], g[2:] - g[1:-1]
    u = fs.cells(action, axis)
    R = _stencil_rows(fs.n_columns, (u[..., :-2], sgn / d1),
                      (u[..., 1:-1], -(sgn * (1.0 / d1 + 1.0 / d2))), (u[..., 2:], sgn / d2))
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
    sgn = {"complements": 1.0, "substitutes": -1.0}[direction]
    R = _stencil_rows(fs.n_columns, (u[..., 1:, 1:], sgn), (u[..., 1:, :-1], -sgn),
                      (u[..., :-1, 1:], -sgn), (u[..., :-1, :-1], sgn))
    return RestrictionSet(R, 0.0, "ge", f"complementarity({ax_w},{ax_z})")


def linear_in_parameters(H) -> RestrictionSet:
    """Kernel restrictions for a payoff that is linear in parameters, ``U = H theta``.

    Returns an orthonormal basis of the left null space of ``H`` as equality
    rows, so ``R @ U = R @ H @ theta = 0`` for every parameter vector.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
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
    ``r @ log(U) = 0``, on the first cell of the axes other than ``axis``.

    With ``nu=None`` the payoff is homogeneous of unknown degree along the ray
    (weights ``1/log(lambda)``); with a known ``nu`` the payoff is the
    exponential of an additively separable function whose ray component is
    homogeneous of degree ``nu`` (weights ``1/(lambda**nu - 1)``).
    """
    lambdas = [float(l) for l in lambdas]
    if len(lambdas) < 2:
        raise ValueError("insufficient ray points: need at least two multipliers besides 1")
    i_base, i_ray = _ray(fs, axis, base, lambdas)
    for lam in lambdas:
        if nu is not None and lam ** nu == 1.0:
            raise ValueError(f"ray multiplier {lam} has lam**nu == 1 at nu={nu}: its weight is undefined")

    def weight(lam):
        return 1.0 / np.log(lam) if nu is None else 1.0 / (lam ** nu - 1.0)

    col = fs.cells(action, axis)[(0,) * (len(fs.axes) - 1)]
    r = np.zeros(fs.n_columns)
    r[col[i_ray[1]]] += weight(lambdas[1])
    r[col[i_ray[0]]] -= weight(lambdas[0])
    r[col[i_base]] += weight(lambdas[0]) - weight(lambdas[1])
    if abs(r.sum()) > 1e-12:
        raise ValueError("log-difference weights failed to sum to zero")
    return r, 0.0

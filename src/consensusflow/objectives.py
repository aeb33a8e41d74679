"""Convex objective components, projectors, and argmin-set calculus.

All evaluators broadcast: points may be a single vector of length ``m`` or
any batch shaped ``(..., m)``.  Projections return the input unchanged (bit
for bit) on points already inside the set, so gradients vanish exactly on
minimizers.  :class:`Point`, :class:`Ball`, :class:`Box` and :class:`Quadratic`
also take a leading node axis (centres and bounds ``(N, m)``, radii ``(N,)``,
matrices ``(N, m, m)``): one object then evaluates points ``(..., N, m)`` row
by row, bit for bit as the N single objects would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UnsupportedRepresentationError(ValueError):
    """The requested set has no exact representation in this library."""


def _vector(v, name="vector", rows=False):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 and not (rows and arr.ndim == 2):
        rows = " or (N, m) rows on a node axis" if rows else ""
        raise ValueError(f"{name} must be one-dimensional{rows}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _check_dim(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"point has dimension {x.shape[-1]}, expected {dim}")
    return x


def _length(x, c):
    """``|x - c|`` over the last axis, the squares summed in component order:
    ``np.linalg.norm``'s order, and so its bits, for fewer than 8 components."""
    d = np.zeros(np.broadcast_shapes(x.shape, c.shape)[:-1])
    for k in range(x.shape[-1]):
        dk = x[..., k] - c[..., k]
        d += dk * dk  # a scalar's ** 2 is pow, which can round off the square
    return np.sqrt(d, out=d)[()]  # a scalar for one point


class ConvexSet:
    """Closed convex set with an exact Euclidean projector."""

    dim: int

    def project(self, x):
        x = _check_dim(x, self.dim)
        with np.errstate(invalid="ignore"):  # an infinite point's inf * 0 or inf - inf
            return self._projector(x.shape)(x)

    def _project(self, x):
        """Projection of validated points, the default :meth:`_projector`."""
        raise NotImplementedError

    def _projector(self, shape):
        """``project(x)`` for validated points shaped ``shape``, built once
        for a loop over them: :meth:`_project`, or for a kind whose projection
        has workspaces, a kernel that builds them here as its own."""
        return self._project

    def _residual(self, shape):
        """``x - project(x)``, a squared distance's gradient, for validated
        points shaped ``shape`` (see :meth:`_projector`); it writes into the
        projection's fresh array."""
        project = self._projector(shape)

        def residual(x):
            p = project(x)
            return np.subtract(x, p, p)
        return residual

    def distance(self, x):
        x = _check_dim(x, self.dim)
        with np.errstate(invalid="ignore"):  # inf - inf along an unbounded box side
            return _length(x, self._projector(x.shape)(x))

    def interior_margin(self, x):
        """Radius of the largest ball around ``x`` inside the set (<= 0 outside)."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class Point(ConvexSet):
    """Singleton set {c}."""

    def __init__(self, c):
        self.c = _vector(c, "point", rows=True)
        self.c.flags.writeable = False
        self.dim = self.c.shape[-1]

    def _project(self, x):
        out = np.empty_like(x)
        out[...] = self.c
        return out

    def _residual(self, shape):
        """``x - c``, with no copy of ``c`` to subtract (see :meth:`ConvexSet._residual`)."""
        c = self.c

        def residual(x):
            return np.subtract(x, c)
        return residual

    def distance(self, x):
        return _length(_check_dim(x, self.dim), self.c)

    def interior_margin(self, x):
        return -self.distance(x)

    def describe(self):
        return {"kind": "point", "at": self.c.tolist()}

    def __repr__(self):
        return f"Point({self.c.tolist()})"


class Ball(ConvexSet):
    """Closed Euclidean ball; radius zero degenerates to a point."""

    def __init__(self, center, radius):
        self.center = _vector(center, "center", rows=True)
        self.center.flags.writeable = False
        radius = np.array(radius, dtype=float)
        if radius.shape != self.center.shape[:-1]:
            raise ValueError(f"radius must have shape {self.center.shape[:-1]}, one per center")
        if not (np.isfinite(radius) & (radius >= 0.0)).all():
            raise ValueError("radius must be a finite nonnegative real")
        radius.flags.writeable = False
        self.radius = radius[()]  # a float64 scalar for one ball
        self.dim = self.center.shape[-1]
        # radius columns for both kernels; the floor is the radius, or
        # the smallest subnormal for radius 0, so the divisor is never 0
        self._rcol = radius[..., None]
        self._floor = np.where(radius > 0.0, radius, np.finfo(float).smallest_subnormal)[..., None]

    def _norms(self, shape):
        """The prologue both ball kernels share, for validated points shaped
        ``shape``: workspaces ``d`` and ``r`` of their own, and ``norm(x)``,
        which writes ``d = x - c`` and ``r = |d|`` into them.

        ``r`` is summed as ``np.linalg.norm(d, axis=-1)`` sums it: below 8
        components ``add.reduce`` adds them in order, which one add per
        strided column of the flat squares repeats (``s_0 + 0.0`` is ``s_0``).
        """
        rows = self.center.shape  # a state that ends in them is its own broadcast
        shape = shape if shape[-len(rows):] == rows else np.broadcast_shapes(shape, rows)
        d, squares, r = np.empty(shape), np.empty(shape), np.empty(shape[:-1] + (1,))
        center = self.center
        m, flat = shape[-1], squares.reshape(-1)
        columns = [flat[k::m] for k in range(m)] + [0.0]
        first, second, rest, total = columns[0], columns[1], columns[2:m], r.reshape(-1)
        # the kernels' ufuncs as locals: at N = 5 each global lookup is a
        # measurable share of a kernel call, which an RK4 step makes four times
        subtract, multiply, add, sqrt = np.subtract, np.multiply, np.add, np.sqrt

        def norm(x):
            subtract(x, center, d)
            multiply(d, d, squares)
            if m < 8:
                add(first, second, total)
                for column in rest:
                    add(total, column, total)
            else:
                add.reduce(squares, axis=-1, keepdims=True, out=r)
            sqrt(r, r)
        return d, r, norm

    def _projector(self, shape):
        """The projection kernel (see :meth:`ConvexSet._projector`) over the
        norm prologue (:meth:`_norms`).

        The divisor ``max(r, floor)`` is ``r`` wherever the shrunk point is
        kept (``r > radius``) and is never 0 elsewhere, so no lane warns.  A
        point with a NaN coordinate projects to NaN in every coordinate, and
        an infinite coordinate to NaN: the shrink multiplies ``inf`` by 0,
        which numpy reports as an invalid value here (the public
        :meth:`project` does not).
        """
        d, r, norm = self._norms(shape)
        inside = np.empty(r.shape, dtype=bool)
        center, rcol, floor = self.center, self._rcol, self._floor
        multiply, add, maximum, divide, less_equal, copyto = (
            np.multiply, np.add, np.maximum, np.divide, np.less_equal, np.copyto)

        def project(x):
            norm(x)
            less_equal(r, rcol, inside)
            maximum(r, floor, out=r)  # r becomes the divisor, then the scale
            divide(rcol, r, r)
            multiply(d, r, d)
            out = add(d, center)
            copyto(out, x, where=inside)
            return out
        return project

    def _residual(self, shape):
        """The residual kernel (see :meth:`ConvexSet._residual`) over the norm
        prologue (:meth:`_norms`): ``g = d - d * (radius / max(r, floor))``
        with ``d = x - c``, into a fresh array.

        Inside the ball the scale is ``radius / radius = 1``, so ``g = d - d``
        is exactly ``+0.0``; a radius-0 ball's scale is 0, so ``g`` is ``x - c``
        (a ``-0.0`` as ``+0.0``).  ``g`` never forms ``P(x) = c + d * s``, so it
        does not cancel ``x`` against a rounded ``P(x)``: its error is within a
        few ``u * |x - c|`` at any centre, where that of ``x - P(x)`` grows with
        ``|c|``.  A point with a NaN coordinate gives NaN in every coordinate,
        and an infinite coordinate gives NaN (``inf * 0``) with numpy's invalid
        multiply warning, as in the projection.
        """
        d, r, norm = self._norms(shape)
        rcol, floor = self._rcol, self._floor
        subtract, multiply, maximum, divide = np.subtract, np.multiply, np.maximum, np.divide

        def residual(x):
            norm(x)
            maximum(r, floor, out=r)  # r becomes the divisor, then the scale
            divide(rcol, r, r)
            g = multiply(d, r)
            return subtract(d, g, g)
        return residual

    def distance(self, x):
        return np.maximum(_length(_check_dim(x, self.dim), self.center) - self.radius, 0.0)

    def interior_margin(self, x):
        x = _check_dim(x, self.dim)
        return self.radius - np.linalg.norm(x - self.center, axis=-1)

    def describe(self):
        return {"kind": "ball", "center": self.center.tolist(), "radius": self.radius.tolist()}

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius.tolist()})"


class Box(ConvexSet):
    """Axis-aligned box; bounds may be infinite componentwise."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.ndim not in (1, 2) or self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must share a shape, (m,) or (N, m) on a node axis")
        if np.any(np.isnan(self.lower)) or np.any(np.isnan(self.upper)):
            raise ValueError("box bounds must not be NaN")
        if np.any(self.lower > self.upper):
            raise ValueError("box needs lower <= upper componentwise")
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False
        self.dim = self.lower.shape[-1]

    def _project(self, x):
        return np.clip(x, self.lower, self.upper)

    def interior_margin(self, x):
        x = _check_dim(x, self.dim)
        lo = x - self.lower
        hi = self.upper - x
        return np.minimum(lo, hi).min(axis=-1)

    def describe(self):
        return {"kind": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}

    def __repr__(self):
        return f"Box({self.lower.tolist()}, {self.upper.tolist()})"


class ConvexComponent:
    """Differentiable convex function on R^m with an exact gradient."""

    dim: int

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        x = _check_dim(x, self.dim)
        with np.errstate(invalid="ignore"):  # a squared distance's inf * 0 or inf - inf
            return self._kernel(x.shape)(x)

    def argmin_set(self) -> ConvexSet:
        raise NotImplementedError

    def gradient_lipschitz(self) -> float:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def _kernel(self, shape):
        """``grad(x)``: the gradient at validated points shaped ``shape``,
        built once for a loop over them; a component whose gradient has
        workspaces builds them here, and they are the kernel's own."""
        raise NotImplementedError


class Quadratic(ConvexComponent):
    """f(x) = 0.5 (x - c)^T Q (x - c) with symmetric PSD Q (stacked: worst-case eigenvalues)."""

    def __init__(self, matrix, center):
        q = np.asarray(matrix, dtype=float)
        c = _vector(center, "center", rows=True)
        if q.shape != c.shape + c.shape[-1:]:
            raise ValueError("matrix must be square and match the center dimension")
        qt = np.swapaxes(q, -1, -2)
        if not np.allclose(q, qt, atol=1e-10, rtol=0.0):
            raise ValueError("matrix must be symmetric")
        with np.errstate(over="ignore"):  # entries above about 8.99e307 overflow to inf
            q = 0.5 * (q + qt)
        eigs = np.linalg.eigvalsh(q) if np.isfinite(q).all() else q
        if not np.isfinite(eigs).all():
            raise ValueError("matrix and its eigenvalues must be finite")
        self._eig_min, self._eig_max = float(eigs[..., 0].min()), float(eigs[..., -1].max())
        if self._eig_min < -1e-10:
            raise ValueError(f"matrix must be positive semidefinite, found eigenvalue {eigs.min()}")
        self.matrix = q
        self.matrix.flags.writeable = False
        self.center = c
        self.center.flags.writeable = False
        self.dim = c.shape[-1]

    @property
    def is_positive_definite(self) -> bool:
        return self._eig_min > 1e-10

    def value(self, x):
        # 0.5 sum_k e_k (Q e)_k along the last axis: one order for every shape
        x = _check_dim(x, self.dim)
        return 0.5 * np.add.reduce((x - self.center) * self._grad(x), axis=-1)

    def _grad(self, x):
        """Gradient at validated points: the kernel, and the value's factor."""
        return np.einsum("...ij,...j->...i", self.matrix, x - self.center)

    def _kernel(self, shape):
        return self._grad

    def argmin_set(self):
        if not self.is_positive_definite:
            raise UnsupportedRepresentationError(
                "argmin of a singular quadratic is an affine subspace, "
                "which this library does not represent"
            )
        return Point(self.center)

    def gradient_lipschitz(self):
        return self._eig_max

    def describe(self):
        return {
            "kind": "quadratic",
            "matrix": self.matrix.tolist(),
            "center": self.center.tolist(),
        }


class SquaredDistance(ConvexComponent):
    """f(x) = 0.5 dist(x, S)^2; gradient is x - P_S(x)."""

    def __init__(self, target: ConvexSet):
        if not isinstance(target, ConvexSet):
            raise TypeError("target must be a ConvexSet")
        self.target = target
        self.dim = target.dim

    def value(self, x):
        return 0.5 * np.square(self.target.distance(x))  # a scalar's ** 2 is pow

    def _kernel(self, shape):
        return self.target._residual(shape)

    def argmin_set(self):
        return self.target

    def gradient_lipschitz(self):
        return 1.0

    def describe(self):
        return {"kind": "sqdist", "set": self.target.describe()}


class Sum(ConvexComponent):
    """Pointwise sum of convex components."""

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("sum needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError("all parts must share one dimension")
        self.parts = parts
        self.dim = parts[0].dim

    def value(self, x):
        return sum(p.value(x) for p in self.parts)

    def _kernel(self, shape):
        first, *rest = [p._kernel(shape) for p in self.parts]

        def grad(x):
            # the parts' gradients added in order, out of place: parts with
            # and without a node axis broadcast
            out = first(x)
            for kernel in rest:
                out = out + kernel(x)
            return out
        return grad

    def argmin_set(self):
        raise UnsupportedRepresentationError(
            "argmin of a sum has no exact representation in this library"
        )

    def gradient_lipschitz(self):
        return sum(p.gradient_lipschitz() for p in self.parts)

    def describe(self):
        return {"kind": "sum", "parts": [p.describe() for p in self.parts]}


_TEAM_CHUNK = 1 << 14  # entries per block of the team value and separation: 128 kB
_U = np.finfo(float).eps / 2  # unit roundoff, 2**-53
_FINITE_SQUARES = 2.0 ** 500  # lengths below this have finite squares
_WITNESS_TOL = 1e-9  # a projection witness lies this close to every set
_DESCENT_GRAD_TOL, _DESCENT_MAX_ITER = 1e-10, 200000  # where global_min's descent stops


def _inside_every_ball(balls: Ball, pts):
    """Mask of the points ``(P, m)`` that are certainly inside every ball.

    The anchor ``z`` is the centroid of the centres and ``rho = min_i (r_i -
    |z - c_i|)`` its depth; a point with ``|p - z| <= rho - delta`` is inside
    every ball by the triangle inequality, and stays inside after rounding:
    ``Ball.distance``'s computed ``|p - c_i|`` is at most ``r_i``.  Each computed
    norm (m differences, m squares, m - 1 additions and a root) is within
    ``eta = (m + 4) u`` of the exact one, plus ``2**-535`` where squares
    underflow.  ``rho``, ``|p - z|`` and ``|p - c_i|`` are three such norms,
    ``rho`` and ``rho - delta`` take one more rounding each, and for a marked
    point every term is at most ``r_max``; so the rounding errors sum to less
    than ``(3 eta + 2 u) r_max + 3 * 2**-535``, which ``delta`` covers.  Radii
    below ``2**500`` keep every square ``Ball.distance`` forms finite.  NaN and
    infinite points are never marked; with ``rho <= delta`` nothing is.
    """
    c, r = balls.center, balls.radius
    m = c.shape[-1]
    z = c.mean(axis=0)
    rho = (r - np.linalg.norm(z - c, axis=-1)).min()
    r_max = r.max()
    delta = 4 * (m + 4) * (_U * r_max + 2.0 ** -535)
    if not (rho > delta and r_max < _FINITE_SQUARES):
        return np.zeros(pts.shape[0], dtype=bool)
    return Ball(z, 0.0).distance(pts) <= rho - delta  # |p - z|, summed as |p - c_i| is


_FIELDS = {Quadratic: ("matrix", "center"), Ball: ("center", "radius"),
           Box: ("lower", "upper"), Point: ("c",)}


def _shape_key(o):
    """What ``o`` stacks with: its kind (a squared distance's is its set's),
    or for a sum ``(Sum, *keys of its parts)``."""
    if type(o) is Sum:
        return (Sum, *map(_shape_key, o.parts))
    kind = type(o.target) if type(o) is SquaredDistance else type(o)
    if kind not in _FIELDS:
        what = "set" if isinstance(o, ConvexSet) else "objective"
        raise TypeError(f"unsupported {what} kind: {kind.__name__}")
    return kind


def _stack(objs):
    """Objects of one shape key as one with a node axis: a sum is the sum of
    its stacked part positions, a squared distance stacks its target, and a
    kind stacks the arrays ``_FIELDS`` names."""
    o = objs[0]
    if type(o) is Sum:
        return Sum([_stack(parts) for parts in zip(*(s.parts for s in objs))])
    if type(o) is SquaredDistance:
        return SquaredDistance(_stack([s.target for s in objs]))
    return type(o)(*(np.array([getattr(s, f) for s in objs]) for f in _FIELDS[type(o)]))


def _grouped(objs, nodes):
    """``[(stack, node indices)]``: the objects stacked by shape key, in
    order of first appearance."""
    groups = {}
    for o, i in zip(objs, nodes):
        groups.setdefault(_shape_key(o), []).append((o, i))
    return [(_stack([o for o, _ in g]), np.array([i for _, i in g])) for g in groups.values()]


class ObjectiveSet:
    """One convex component per node, all on a common R^m.

    Stacked evaluators take states shaped ``(..., n_nodes, m)``.  The
    components are grouped by shape (:func:`_shape_key`), each group one
    component with a node axis and its node indices: components of one kind
    stack, and sums whose parts stack position by position stack into the sum
    of those stacks, which adds them in the order each node's own sum does.
    So row i of the gradient is ``components[i].grad`` bit for bit, and each
    node's value is its component's ``value``.
    """

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("an objective set needs at least one component")
        for c in comps:
            if not isinstance(c, ConvexComponent):
                raise TypeError("components must be ConvexComponent instances")
        if len({c.dim for c in comps}) != 1:
            raise ValueError("all components must share one dimension")
        self.components = comps
        self.m = comps[0].dim
        self.n_nodes = len(comps)
        self._shape = (self.n_nodes, self.m)

        self._groups = _grouped(comps, range(self.n_nodes))  # a node axis fails to stack
        single = len(self._groups) == 1
        first = self._groups[0][0]
        # the family's gradient kernel, built per state shape by stacked_grad
        # and once per run by the integrator, and a family of one ball group,
        # whose team value has a certificate
        self._kernel = first._kernel if single else self._grouped_kernel
        self._balls = first.target if single and type(getattr(first, "target", None)) is Ball else None

    def stacked_grad(self, x):
        """Per-node gradients: ``out[..., i, :] = grad f_i(x[..., i, :])``,
        from the family's kernel built for the state's shape."""
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] != self._shape:
            raise ValueError(
                f"stacked state must end with shape ({self.n_nodes}, {self.m}), got {x.shape}"
            )
        return self._kernel(x.shape)(x)

    def _grouped_kernel(self, shape):
        """The gradient kernel (see :meth:`ConvexComponent._kernel`) of
        several groups, each with a kernel for its own rows."""
        steps = [(idx, group._kernel(shape[:-2] + (idx.size, shape[-1])))
                 for group, idx in self._groups]

        def grad(x):
            out = np.empty(shape)
            for idx, kernel in steps:
                out[..., idx, :] = kernel(x.take(idx, axis=-2))
            return out
        return grad

    def team_value(self, x):
        """Team objective ``F = sum_i f_i`` at every point of ``x`` shaped
        ``(..., m)``, ``Sum(components).value(x)`` bit for bit: blocks of
        points (128 kB of values) add their per-node values (:meth:`_values`)
        in node order from ``+0.0``, as :class:`Sum` adds.  For a family of
        one ball group, points certainly inside every ball get that exact
        ``+0.0`` first.
        """
        x = _check_dim(x, self.m)
        pts = x.reshape(-1, self.m)
        out = np.zeros(pts.shape[0])
        rest = (np.arange(pts.shape[0]) if self._balls is None
                else np.flatnonzero(~_inside_every_ball(self._balls, pts)))
        step = max(1, _TEAM_CHUNK // self.n_nodes)
        for lo in range(0, rest.size, step):
            block = rest[lo:lo + step]
            v = self._values(pts[block])
            # columns add row by row, but a single column would sum pairwise:
            # that one is accumulated, and plus 0.0 drops a -0.0 as 0.0 + does
            out[block] = (np.add.reduce(v, axis=0, initial=0.0) if v.shape[1] > 1
                          else np.add.accumulate(v[:, 0])[-1] + 0.0)
        return out.reshape(x.shape[:-1])[()]

    def _values(self, pts):
        """Per-node values ``(n_nodes, P)`` at the points ``(P, m)``, each
        group's from its ``value``."""
        out = np.empty((self.n_nodes, pts.shape[0]))
        for group, idx in self._groups:
            # a group of every node holds them in node order: no scatter
            out[slice(None) if idx.size == self.n_nodes else idx] = group.value(pts[:, None, :]).T
        return out

    def argmin_sets(self):
        return [c.argmin_set() for c in self.components]

    def describe(self):
        return {"kind": "objectives", "m": self.m, "components": [c.describe() for c in self.components]}


@dataclass
class IntersectionResult:
    """Three-valued intersection decision with an optional witness point."""

    status: str  # "nonempty" | "empty" | "undecided"
    witness: np.ndarray | None = None

    @property
    def nonempty(self) -> bool:
        return self.status == "nonempty"


def _representative(s: ConvexSet) -> np.ndarray:
    """A point of ``s``, one per row of a stacked set."""
    if type(s) is Box:
        return np.clip(np.zeros(s.dim), s.lower, s.upper)
    return s.c if type(s) is Point else s.center


def _rows(s: ConvexSet, sl) -> ConvexSet:
    """Rows ``sl`` of a stacked set, as a set of its kind."""
    return type(s)(*(getattr(s, f)[sl] for f in _FIELDS[type(s)]))


def _apart(a: ConvexSet, b: ConvexSet) -> np.ndarray:
    """Exact separation certificate for every pair of rows of two stacked
    sets, ``(rows of a, rows of b)``; False means unknown."""
    if type(a) is Point:
        return b.distance(a.c[:, None]) > 1e-12
    if type(b) is Point or (type(a), type(b)) == (Box, Ball):
        return _apart(b, a).T
    if type(b) is Box:
        if type(a) is Box:
            return (np.maximum(a.lower[:, None], b.lower)
                    > np.minimum(a.upper[:, None], b.upper)).any(axis=-1)
        return b.distance(a.center[:, None]) > a.radius[:, None]
    # axis=-1 sums the squares in component order; without it numpy
    # takes a dot product, which can round differently
    return np.linalg.norm(a.center[:, None] - b.center, axis=-1) > a.radius[:, None] + b.radius


def intersection_nonempty(sets, max_iter=20000) -> IntersectionResult:
    """Decide whether closed convex sets share a point.

    The sets are stacked by kind (``Ball``, ``Box`` or ``Point``; any other
    kind is a ``TypeError`` naming it).  An exact separation certificate on
    some pair proves emptiness.  Otherwise box-only and two-ball families
    are decided exactly, and a cyclic projection pass either produces a
    witness within ``_WITNESS_TOL`` of every set in ``max_iter`` passes, or
    the result is reported as undecided rather than guessed.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("at least one set is required")
    dims = {s.dim for s in sets}
    if len(dims) != 1:
        raise ValueError("all sets must share one dimension")
    n, m = len(sets), dims.pop()
    groups = _grouped(sets, range(n))
    start = np.empty((n, m))
    for g, idx in groups:
        start[idx] = _representative(g)
    if n == 1:
        return IntersectionResult("nonempty", start[0])

    # a block of rows against the rest of its group from the block's first
    # row on, and against every later group: each pair is compared once, and
    # the mirrored pairs and the diagonal also in the block decide the same or never
    rows = max(1, _TEAM_CHUNK // (n * m))
    for k, (a, idx) in enumerate(groups):
        for lo in range(0, len(idx), rows):
            tail = _rows(a, slice(lo, None)) if lo else a
            block = _rows(tail, slice(rows)) if len(idx) - lo > rows else tail
            if any(_apart(block, b).any() for b in [tail] + [b for b, _ in groups[k + 1:]]):
                return IntersectionResult("empty")

    kinds = [type(g) for g, _ in groups]
    if kinds == [Box]:
        # boxes that meet pairwise share the box of their tightest bounds
        box = groups[0][0]
        return IntersectionResult("nonempty", np.clip(np.zeros(m), box.lower.max(axis=0),
                                                      box.upper.min(axis=0)))
    if kinds == [Ball] and n == 2:
        a, b = sets
        gap = b.center - a.center
        d = float(np.linalg.norm(gap, axis=-1))
        if d <= abs(a.radius - b.radius):
            inner = a if a.radius <= b.radius else b
            return IntersectionResult("nonempty", inner.center.copy())
        t = np.clip((d + a.radius - b.radius) / (2.0 * d), 0.0, 1.0)
        return IntersectionResult("nonempty", a.center + t * gap)

    def worst(x):
        return max(float(g.distance(x).max()) for g, _ in groups)

    x = start.mean(axis=0)
    projectors = [s._projector(x.shape) for s in sets]  # built once for every pass
    for _ in range(max_iter):
        if worst(x) <= 0.1 * _WITNESS_TOL:
            break
        for project in projectors:
            x = project(x)
    if worst(x) <= _WITNESS_TOL:
        return IntersectionResult("nonempty", x)
    return IntersectionResult("undecided")


def interior_simplex(sets, base_point) -> np.ndarray:
    """m+1 affinely independent points interior to every set.

    ``base_point`` must sit strictly inside the intersection; the remaining
    points shift it by half the worst-case interior margin along each axis,
    which keeps them interior because the margin is 1-Lipschitz.
    """
    sets = list(sets)
    base = _vector(base_point, "base point")
    margin = min(float(s.interior_margin(base)) for s in sets)
    if margin <= 0.0:
        raise ValueError("base point is not interior to every set")
    m = base.shape[0]
    pts = [base]
    for k in range(m):
        p = base.copy()
        p[k] += 0.5 * margin
        pts.append(p)
    return np.stack(pts)


@dataclass
class GlobalMinimum:
    """Minimum of the team objective F(z) = sum_i f_i(z)."""

    value: float
    minimizer: np.ndarray
    method: str  # "closed-form" | "intersection" | "numerical"
    tolerance: float


def global_min(objectives: ObjectiveSet) -> GlobalMinimum:
    """Minimize the team objective over a common decision variable.

    All-quadratic collections with positive-definite total curvature are
    solved in closed form; squared-distance collections with a certified
    nonempty intersection attain zero there.  Any other mix falls back to a
    fixed-step gradient descent to a gradient norm of ``_DESCENT_GRAD_TOL``.
    """
    comps = objectives.components
    if all(isinstance(c, Quadratic) for c in comps):
        q_total = np.sum([c.matrix for c in comps], axis=0)
        eigs = np.linalg.eigvalsh(q_total)
        if eigs[0] > 1e-10:
            rhs = np.sum([c.matrix @ c.center for c in comps], axis=0)
            z = np.linalg.solve(q_total, rhs)
            return GlobalMinimum(float(objectives.team_value(z)), z, "closed-form", 0.0)
    if all(isinstance(c, SquaredDistance) for c in comps):
        res = intersection_nonempty([c.target for c in comps])
        if res.nonempty:
            return GlobalMinimum(0.0, res.witness, "intersection", 0.0)

    step = 1.0 / max(sum(c.gradient_lipschitz() for c in comps), 1e-12)
    z = np.mean([_representative(c.argmin_set()) if _has_argmin(c) else np.zeros(objectives.m)
                 for c in comps], axis=0)
    kernel = objectives._kernel(objectives._shape)  # built once for the whole descent
    for i in range(_DESCENT_MAX_ITER + 1):
        # F's gradient: every node's at z, the rows added in node order as Sum
        # adds them (an add.reduce over a single column may sum pairwise)
        g = np.add.accumulate(kernel(np.broadcast_to(z, objectives._shape)), axis=0)[-1]
        norm = float(np.linalg.norm(g))
        if norm <= _DESCENT_GRAD_TOL or i == _DESCENT_MAX_ITER:
            break
        z = z - step * g
    return GlobalMinimum(float(objectives.team_value(z)), z, "numerical", norm)


def _has_argmin(c: ConvexComponent) -> bool:
    try:
        c.argmin_set()
        return True
    except UnsupportedRepresentationError:
        return False

from __future__ import annotations

import decimal
import warnings

import numpy as np
import pytest

from consensusflow import (
    Ball,
    Box,
    ConvexComponent,
    GlobalMinimum,
    ObjectiveSet,
    Point,
    Quadratic,
    SquaredDistance,
    Sum,
    UnsupportedRepresentationError,
    global_min,
    interior_simplex,
    intersection_nonempty,
)
from consensusflow import objectives
from consensusflow.objectives import _inside_every_ball

from conftest import (
    first_order_convexity_worst,
    gradient_fd_worst,
    nonexpansiveness_worst,
    projector_inequality_worst,
    random_component,
    random_convex_set,
)


# --- value / gradient anchors ---------------------------------------------

def test_quadratic_anchor():
    f = Quadratic(np.eye(2), [0.0, 0.0])
    assert f.value([3.0, 4.0]) == 12.5
    assert np.array_equal(f.grad([3.0, 4.0]), [3.0, 4.0])
    assert f.gradient_lipschitz() == 1.0


def test_quadratic_shifted_anisotropic():
    f = Quadratic([[2.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    assert f.value([2.0, 2.0]) == 3.0
    assert np.array_equal(f.grad([2.0, 2.0]), [2.0, 2.0])
    assert f.gradient_lipschitz() == 2.0


def test_sqdist_ball_anchor():
    f = SquaredDistance(Ball([0.0, 0.0], 1.0))
    assert f.value([2.0, 0.0]) == 0.5
    assert np.array_equal(f.grad([2.0, 0.0]), [1.0, 0.0])
    assert f.gradient_lipschitz() == 1.0


def test_sqdist_vanishes_inside():
    f = SquaredDistance(Ball([1.0, 1.0], 2.0))
    x = np.array([0.3, 1.7])
    assert f.value(x) == 0.0
    assert np.array_equal(f.grad(x), [0.0, 0.0])


def test_sum_adds_values_and_grads():
    f = Sum([Quadratic([[1.0]], [0.0]), Quadratic([[1.0]], [3.0])])
    assert f.value([1.5]) == 2.25
    assert np.array_equal(f.grad([0.0]), [-3.0])
    assert f.gradient_lipschitz() == 2.0


# --- projections ------------------------------------------------------------

def test_projection_anchors():
    ball = Ball([0.0, 0.0], 1.0)
    assert np.array_equal(ball.project([2.0, 0.0]), [1.0, 0.0])
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert np.array_equal(box.project([3.0, 0.25]), [1.0, 0.25])
    pt = Point([1.0, 2.0])
    assert np.array_equal(pt.project([9.0, 9.0]), [1.0, 2.0])


def test_projection_is_identity_inside_bitwise():
    rng = np.random.default_rng(10)
    ball = Ball([0.5, -0.5], 2.0)
    box = Box([-1.0, -1.0], [3.0, 3.0])
    for _ in range(100):
        x = ball.center + rng.uniform(-1.0, 1.0, 2)
        assert ball.project(x).tobytes() == x.tobytes()
        y = rng.uniform(-1.0, 1.0, 2)
        assert box.project(y).tobytes() == y.tobytes()


def test_projection_batch_shapes():
    ball = Ball([0.0, 0.0], 1.0)
    pts = np.array([[[2.0, 0.0], [0.0, 0.5]], [[0.0, -3.0], [1.0, 0.0]]])
    out = ball.project(pts)
    assert out.shape == pts.shape
    assert np.allclose(out[0, 0], [1.0, 0.0])
    assert np.array_equal(out[0, 1], [0.0, 0.5])
    d = ball.distance(pts)
    assert d.shape == (2, 2)
    assert d[1, 0] == 2.0
    # every kind's public projection validates and returns a new writable array
    for s in (ball, Box([-1.0, -1.0], [1.0, 1.0]), Point([1.0, 2.0])):
        out = s.project(pts)
        assert out.shape == pts.shape and out.flags.writeable
        with pytest.raises(ValueError, match="dimension"):
            s.project([1.0])


def test_interior_margin_signs():
    ball = Ball([0.0, 0.0], 1.0)
    assert ball.interior_margin([0.0, 0.0]) == 1.0
    assert ball.interior_margin([2.0, 0.0]) == -1.0
    box = Box([0.0], [4.0])
    assert box.interior_margin([1.0]) == 1.0
    assert box.interior_margin([5.0]) == -1.0
    assert Point([1.0]).interior_margin([1.0]) == 0.0


# --- argmin sets ------------------------------------------------------------

def test_argmin_anchors():
    q = Quadratic(np.eye(2), [1.0, 2.0])
    s = q.argmin_set()
    assert isinstance(s, Point) and np.array_equal(s.c, [1.0, 2.0])
    ball = Ball([0.0], 1.0)
    assert SquaredDistance(ball).argmin_set() is ball


def test_argmin_unsupported_cases():
    singular = Quadratic([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
    with pytest.raises(UnsupportedRepresentationError):
        singular.argmin_set()
    with pytest.raises(UnsupportedRepresentationError):
        Sum([Quadratic([[1.0]], [0.0])]).argmin_set()
    assert issubclass(UnsupportedRepresentationError, ValueError)


def test_gradient_vanishes_on_argmin_samples():
    rng = np.random.default_rng(11)
    for _ in range(250):
        m = int(rng.integers(1, 4))
        comp = (
            Quadratic(np.eye(m) * rng.uniform(0.5, 2.0), rng.uniform(-2, 2, m))
            if rng.random() < 0.5
            else SquaredDistance(random_convex_set(rng, m))
        )
        z = comp.argmin_set().project(rng.uniform(-4.0, 4.0, m))
        assert np.linalg.norm(comp.grad(z)) <= 1e-10


# --- validation -------------------------------------------------------------

def test_component_validation_errors():
    with pytest.raises(ValueError, match="symmetric"):
        Quadratic([[1.0, 1.0], [0.0, 1.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="semidefinite"):
        Quadratic([[-1.0]], [0.0])
    with pytest.raises(ValueError):
        Quadratic(np.eye(2), [0.0])
    with pytest.raises(ValueError):
        Ball([0.0], -1.0)
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Box([np.nan], [1.0])
    with pytest.raises(ValueError, match="^box is empty along axis 0: "):
        Box([np.inf, 0.0], [np.inf, 1.0])
    with pytest.raises(ValueError, match="^box is empty along axis 1: "):
        Box([0.0, -np.inf], [1.0, -np.inf])
    with pytest.raises(ValueError):
        Sum([])
    with pytest.raises(ValueError, match="share one dimension"):
        Sum([Quadratic([[1.0]], [0.0]), Quadratic(np.eye(2), [0.0, 0.0])])
    with pytest.raises(TypeError):
        SquaredDistance("not a set")
    with pytest.raises(ValueError):
        Quadratic(np.eye(2), [0.0, 0.0]).value([1.0])
    # stacks: one radius per centre, centres at most (N, m), matching batches
    centers = np.zeros((3, 2))
    for radius in ([1.0, 1.0], [1.0] * 4, 1.0, [1.0, -1.0, 1.0], [1.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match="radius"):
            Ball(centers, radius)
    with pytest.raises(ValueError, match="center"):
        Ball(np.zeros((2, 3, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="point"):
        Point(np.zeros((2, 3, 2)))
    for lower, upper in ((np.zeros((2, 3, 2)), np.ones((2, 3, 2))), (np.zeros((3, 2)), np.ones(2))):
        with pytest.raises(ValueError, match="lower and upper"):
            Box(lower, upper)
    with pytest.raises(ValueError):
        Ball([np.inf, 0.0], 1.0)
    mats = np.stack([np.eye(2)] * 3)
    with pytest.raises(ValueError, match="match"):
        Quadratic(mats[:2], centers)
    with pytest.raises(ValueError, match="match"):
        Quadratic(mats, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="center"):
        Quadratic(mats[None], centers[None])
    with pytest.raises(ValueError, match="match"):
        Quadratic(np.eye(2), centers)
    bad = mats.copy()
    bad[1] = [[1.0, 0.0], [0.0, -0.5]]
    with pytest.raises(ValueError, match="semidefinite"):
        Quadratic(bad, centers)
    bad[1] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(ValueError, match="symmetric"):
        Quadratic(bad, centers)
    # entries above about 8.99e307 overflow when symmetrised; eigenvalues may too
    for huge in ([[1e308]], np.full((2, 1, 1), 1e308), [[1e308, 1e308], [1e308, 1e308]],
                 [[np.inf]]):
        with pytest.raises(ValueError, match="finite"):
            Quadratic(huge, np.zeros(np.shape(huge)[:-1]))


def test_objective_set_validation():
    with pytest.raises(ValueError):
        ObjectiveSet([])
    with pytest.raises(TypeError):
        ObjectiveSet([Ball([0.0], 1.0)])
    with pytest.raises(ValueError):
        ObjectiveSet([Quadratic([[1.0]], [0.0]), Quadratic(np.eye(2), [0.0, 0.0])])
    # a component with a node axis does not stack, nor does one inside a sum
    for comps in ([Quadratic(np.eye(1)[None], np.zeros((1, 1))), SquaredDistance(Ball([0.0], 1.0))],
                  [Sum([SquaredDistance(Point([0.0])), Sum([SquaredDistance(Box([[0.0]], [[1]]))])])]):
        with pytest.raises(ValueError, match="node axis"):
            ObjectiveSet(comps)
    # a kind without a stacked kernel is named, a subclass too
    flat = type("Flat", (ConvexComponent,), {"dim": 1})()
    with pytest.raises(TypeError, match="unsupported objective kind: Flat"):
        ObjectiveSet([Quadratic([[1.0]], [0.0]), Sum([Quadratic([[1.0]], [0.0]), flat])])
    with pytest.raises(TypeError, match="unsupported objective kind: Slab"):
        ObjectiveSet([SquaredDistance(type("Slab", (Box,), {})([0.0], [1.0]))])


# --- stacked evaluation -----------------------------------------------------

def _node_rows(fn, x):
    # per-node results stacked along the node axis
    return np.stack([fn(i, x[..., i, :]) for i in range(x.shape[-2])], axis=x.ndim - 2)


def _public_grads(objectives, x):
    return _node_rows(lambda i, xi: objectives.components[i].grad(xi), x)


def _assert_sets_match(stack, sets, x):
    for name in ("project", "distance", "interior_margin"):
        rows = _node_rows(lambda i, xi: getattr(sets[i], name)(xi), x)
        assert getattr(stack, name)(x).tobytes() == rows.tobytes(), name


def test_quadratic_fast_path_matches_loop():
    rng = np.random.default_rng(12)
    for m in (1, 2, 3):
        comps = []
        for _ in range(4):
            a = rng.uniform(-1.0, 1.0, (m, m))
            comps.append(Quadratic(a.T @ a + 0.2 * np.eye(m), rng.uniform(-1, 1, m)))
        fast = ObjectiveSet(comps)
        stack = Quadratic(np.stack([c.matrix for c in comps]), np.stack([c.center for c in comps]))
        for x in (rng.uniform(-2.0, 2.0, (4, m)), rng.uniform(-2.0, 2.0, (7, 4, m))):
            assert fast.stacked_grad(x).tobytes() == _public_grads(fast, x).tobytes()
            assert stack.grad(x).tobytes() == _public_grads(fast, x).tobytes()
            value = _node_rows(lambda i, xi: comps[i].value(xi), x)
            assert stack.value(x).tobytes() == value.tobytes()
            _assert_sets_match(stack.argmin_set(), [c.argmin_set() for c in comps], x)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_value_is_batch_independent(m):
    # 0.5 sum_k e_k (Q e)_k is summed along the last axis in one order for
    # every shape; a 3-operand einsum picks its order from the operand shapes
    q = Quadratic([[2.0, 1.0], [1.0, 3.0]], [0.1, 0.2])
    x = np.array([[0.26, 2.61], [1.9, -2.98], [2.14, -2.8], [1.38, -1.95]])
    assert q.value(x)[0] == q.value(x[0]) == 9.123349999999999
    # a lone distance is squared as a batch's is: a scalar's ** 2 is pow,
    # which rounds this one an ulp above the square
    a = float.fromhex("0x1.079c2b3bb0737p+2")
    for f in (SquaredDistance(Point([0.0])), SquaredDistance(Ball([0.0], 0.0))):
        assert f.value([a]) == f.value([[a]])[0] == 0.5 * (a * a)
    rng = np.random.default_rng(70 + m)
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0, (m, m))
        q = Quadratic(a.T @ a + 0.1 * np.eye(m), rng.uniform(-2.0, 2.0, m))
        x = rng.uniform(-3.0, 3.0, (6, m))
        x[0] = q.center
        for f in (q, SquaredDistance(random_convex_set(rng, m))):
            rows = np.array([f.value(xi) for xi in x])
            for batch in (x, x.reshape(2, 3, m), x[:, None, :]):
                assert f.value(batch).tobytes() == rows.tobytes()


def test_ball_fast_path_matches_loop():
    # and the box and point stacks, with unbounded box sides
    rng = np.random.default_rng(13)
    for m in (1, 2, 3):
        balls = [Ball(rng.uniform(-1, 1, m), float(rng.uniform(0.3, 2.0))) for _ in range(4)]
        balls.append(Ball(rng.uniform(-1, 1, m), 0.0))
        lower = rng.uniform(-2.0, 0.0, (5, m))
        upper = lower + rng.uniform(0.0, 2.0, (5, m))
        states = rng.uniform(-3.0, 3.0, (6, 5, m))
        # at each centre, on each sphere, on each box corner, and non-finite
        states[0] = [b.center for b in balls]
        states[1] = [b.center + np.eye(m)[0] * b.radius for b in balls]
        states[2, 0], states[2, 1], states[3] = np.nan, np.inf, lower
        lower[0, 0], upper[1, -1], upper[2] = -np.inf, np.inf, np.inf
        centers = np.stack([b.center for b in balls])
        for sets, stack in ((balls, Ball(centers, [b.radius for b in balls])),
                            ([Box(lo, hi) for lo, hi in zip(lower, upper)], Box(lower, upper)),
                            ([Point(c) for c in centers], Point(centers))):
            fast = ObjectiveSet([SquaredDistance(s) for s in sets])
            for x in (states[1], states):
                # inf * 0 or inf - inf makes the infinite state NaN, on both paths alike
                with np.errstate(invalid="ignore"):
                    assert fast.stacked_grad(x).tobytes() == _public_grads(fast, x).tobytes()
                    value = _node_rows(lambda i, xi: fast.components[i].value(xi), x)
                    assert SquaredDistance(stack).value(x).tobytes() == value.tobytes()
                    _assert_sets_match(stack, sets, x)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_grouped_grad_matches_public_grads(m):
    rng = np.random.default_rng(60 + m)

    def leaf():
        return random_component(rng, m, allow_sum=False)

    # every kind alone, and sums with nested sums first, between, last, of one summand
    unbounded = SquaredDistance(Box(np.full(m, -np.inf), np.zeros(m)))
    comps = [leaf() for _ in range(6)] + [
        unbounded, Sum([leaf(), Sum([leaf(), unbounded])]),
        Sum([Sum([leaf(), leaf()]), leaf(), leaf()]),
        Sum([leaf(), Sum([unbounded]), leaf(), Sum([leaf(), leaf(), Sum([leaf(), leaf()])])])]
    # and one kind, each in a sum of one: a single group
    families = (ObjectiveSet(comps), ObjectiveSet([Sum([comps[0]])] * len(comps)))
    states = rng.uniform(-3.0, 3.0, (6, len(comps), m))
    states[0], states[1], states[2] = np.nan, np.inf, -np.inf
    states[3, ::2], states[3, 1::2, 0] = np.inf, np.nan
    # the kernels' inf * 0 and inf - inf, which the public grad keeps to itself
    with np.errstate(invalid="ignore"):
        for x in (states[5], states[1], states):
            for obj in families:
                assert obj.stacked_grad(x).tobytes() == _public_grads(obj, x).tobytes()

    # the public grad is its kernel on validated points, for every kind alone,
    # in a sum and in a nested sum, and it keeps the kernels' warnings to itself
    kinds = [Quadratic(np.eye(m) + 0.5, rng.uniform(-2.0, 2.0, m)),
             SquaredDistance(Point(rng.uniform(-2.0, 2.0, m))),
             SquaredDistance(Ball(rng.uniform(-2.0, 2.0, m), 1.5)), unbounded]
    kinds += [Sum(kinds), Sum([Sum(kinds[:2]), kinds[2], Sum([kinds[3], Sum(kinds[1:3])])])]
    rows = np.stack([rng.uniform(-3.0, 3.0, m), rng.uniform(-3.0, 3.0, m), np.full(m, -0.0),
                     np.full(m, np.nan), np.full(m, np.inf), np.full(m, -np.inf)])
    rows[1, 0], rows[1, -1] = np.inf, np.nan
    for f in kinds:
        for x in (rows, rows[0], rows[2], rows[3], rows[4], rows.reshape(2, 3, m)):
            with np.errstate(invalid="ignore"):
                kernel = f._kernel(x.shape)(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert f.grad(x).tobytes() == kernel.tobytes()


def _norm_projection(center, radius, x):
    # the ball projection written with np.linalg.norm and where(r > 0, r, 1)
    d = x - center
    r = np.linalg.norm(d, axis=-1)
    shrunk = center + d * (radius / np.where(r > 0.0, r, 1.0))[..., None]
    return np.where((r <= radius)[..., None], x, shrunk)


def _norm_residual(center, radius, x):
    # the ball gradient d - d * s, d = x - c, written with np.linalg.norm and
    # where: s is radius / r outside, 1 inside and 0 for radius 0 (NaN for NaN)
    d = x - center
    r = np.linalg.norm(d, axis=-1)
    inside = r <= radius
    s = np.where(inside, radius > 0.0, radius / np.where(inside, 1.0, r))
    return d - d * s[..., None]


def _node_residuals(balls, x):
    # the gradient formula applied to each single ball's own rows
    return _node_rows(lambda i, xi: _norm_residual(balls[i].center, balls[i].radius, xi), x)


def _warnings_of(fn, x):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = fn(x)
    return out, sorted(str(w.message) for w in seen)


def _residual_rows(sets, x):
    # each single set's residual kernel on its own rows
    return _node_rows(lambda i, xi: sets[i]._residual(xi.shape)(xi), x)


@pytest.mark.parametrize("m", range(1, 10))
def test_ball_projection_core_edges(m):
    rng = np.random.default_rng(20 + m)
    balls = [Ball(rng.uniform(-1.0, 1.0, m), float(rng.uniform(0.3, 2.0))) for _ in range(3)]
    balls += [Ball(rng.uniform(-1.0, 1.0, m), 0.0), Ball(np.zeros(m), 0.0)]
    n = len(balls)
    stack = Ball(np.stack([b.center for b in balls]), [b.radius for b in balls])
    obj = ObjectiveSet([SquaredDistance(b) for b in balls])

    # each centre (on a radius-0 ball the point is the ball), then points up
    # to two ulp either side of every sphere, radius-0 ones included
    states = [stack.center.copy()]
    for _ in range(12):
        u = rng.normal(size=(n, m))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        sphere = stack.center + stack.radius[:, None] * u
        outward = stack.center + 2.0 * (stack.radius[:, None] + 1.0) * u
        for target in (stack.center, outward):
            p = sphere
            for _ in range(2):
                p = np.nextafter(p, target)
                states.append(p)
        states.append(sphere)
    states.append(np.where(np.arange(n)[:, None] == n - 1, 5e-324, stack.center))
    states = np.stack(states)
    r = np.linalg.norm(states - stack.center, axis=-1)
    for i in range(3):  # the probes land on both sides of each positive sphere
        assert (r[:, i] < stack.radius[i]).any() and (r[:, i] > stack.radius[i]).any()
        assert (r[:, i] == stack.radius[i]).any()

    nan_rows = np.full((2, n, m), np.nan)
    nan_rows[1, 1:, :] = stack.center[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (states, states[0], nan_rows):
            reference = _node_rows(lambda i, xi: balls[i].project(xi), x)
            assert stack.project(x).tobytes() == reference.tobytes()
            assert stack.project(x).tobytes() == _norm_projection(
                stack.center, stack.radius, x).tobytes()
            # the gradient, and the residual kernel stacked and single, are
            # d - d * (radius / max(r, floor)), within a few ulp of x - P(x)
            grad = _node_residuals(balls, x)
            assert obj.stacked_grad(x).tobytes() == grad.tobytes()
            assert stack._residual(x.shape)(x).tobytes() == grad.tobytes()
            assert _residual_rows(balls, x).tobytes() == grad.tobytes()
            ulp = np.spacing(np.maximum(abs(x), abs(stack.center)).max(axis=-1, keepdims=True))
            assert np.array_equal(np.isnan(grad), np.isnan(x - reference))
            assert (abs(grad - (x - reference)) <= 4 * ulp).all(where=~np.isnan(grad))
        # exactly +0.0 inside a ball, x - c on a radius-0 one, and NaN in
        # every coordinate of a NaN point
        grad, zero = obj.stacked_grad(states), stack.radius == 0.0
        inside = (r <= stack.radius) & ~zero
        assert inside.any() and not grad[inside].any() and not np.signbit(grad[inside]).any()
        assert grad[:, zero].tobytes() == (states - stack.center)[:, zero].tobytes()
        grad = obj.stacked_grad(nan_rows)
        assert np.isnan(grad[0]).all() and np.isnan(grad[1, 0]).all()
        assert not grad[1, 1:].any() and not np.signbit(grad[1, 1:]).any()
        if m > 1:
            # with one NaN coordinate the point projects to NaN in every one
            # (the norm formula keeps the finite ones, shrunk by radius / 1),
            # and its gradient is NaN in every one
            partial = stack.center + 3.0
            partial[:, 0] = np.nan
            assert np.isnan(stack.project(partial)).all()
            assert np.isnan(obj.stacked_grad(partial)).all()

    # inf * 0 in the shrink makes an infinite point NaN, as the norm formula
    # does; the core reports numpy's invalid multiply warning (the divisor adds
    # none), and the public projection and gradient keep it to themselves
    inf_rows = np.stack([np.full((n, m), np.inf), np.full((n, m), -np.inf), stack.center + 1.0])
    inf_rows[2, :, 0] = np.inf
    expected, expected_seen = _warnings_of(
        lambda x: _norm_projection(stack.center, stack.radius, x), inf_rows)
    core, seen = _warnings_of(stack._projector(inf_rows.shape), inf_rows)
    assert core.tobytes() == expected.tobytes()
    assert seen and set(seen) == {"invalid value encountered in multiply"}
    assert set(expected_seen) == set(seen)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert stack.project(inf_rows).tobytes() == expected.tobytes()
        reference = _node_rows(lambda i, xi: balls[i].project(xi), inf_rows)
        assert reference.tobytes() == expected.tobytes()
        with np.errstate(invalid="ignore"):  # the formula's inf * 0
            grad = _node_residuals(balls, inf_rows)
        assert np.isnan(grad[:2]).all() and np.isnan(grad[2, :, 0]).all()
        grads = _node_rows(lambda i, xi: obj.components[i].grad(xi), inf_rows)
        assert grads.tobytes() == grad.tobytes()
        assert SquaredDistance(stack).grad(inf_rows).tobytes() == grad.tobytes()
        with np.errstate(invalid="ignore"):  # the core's inf * 0
            assert stack._residual(inf_rows.shape)(inf_rows).tobytes() == grad.tobytes()
            assert _residual_rows(balls, inf_rows).tobytes() == grad.tobytes()
        # box and point gradients, distances and values keep their inf - inf
        # to themselves too, and so does a box family's team value
        lower = np.full((n, m), -np.inf)
        box = Box(lower, stack.center)
        for f, proj in ((SquaredDistance(box), np.clip(inf_rows, box.lower, box.upper)),
                        (SquaredDistance(Point(stack.center)), stack.center)):
            with np.errstate(invalid="ignore"):
                parent = inf_rows - proj
            assert f.grad(inf_rows).tobytes() == parent.tobytes()
            dist = np.linalg.norm(parent, axis=-1)
            assert f.target.distance(inf_rows).tobytes() == dist.tobytes()
            assert f.value(inf_rows).tobytes() == (0.5 * dist ** 2).tobytes()
        boxes = ObjectiveSet([SquaredDistance(Box(lower[0], c)) for c in stack.center])
        with np.errstate(invalid="ignore"):
            team = sum(0.5 * np.linalg.norm(inf_rows - np.clip(inf_rows, lower[0], c), axis=-1) ** 2
                       for c in stack.center)
        assert np.isnan(team).any()
        assert boxes.team_value(inf_rows).tobytes() == team.tobytes()


def _exact_ball_gradient(x, c, radius):
    # d * (1 - radius / |d|) outside the ball, 0 inside, and |d|, for d = x - c,
    # from the floats' exact decimal values in 40 significant digits
    with decimal.localcontext(decimal.Context(prec=40)):
        d = [decimal.Decimal(a) - decimal.Decimal(b) for a, b in zip(x, c)]
        r = sum(v * v for v in d).sqrt()
        radius = decimal.Decimal(radius)
        return [v * (1 - radius / r) if r > radius else 0 * v for v in d], r


def test_ball_gradient_is_accurate_at_any_centre():
    # just outside the sphere (1e-12 to 1 radius out) of balls centred at
    # |c| = 1, 1e2 and 1e4, the gradient is within 4 u |x - c| of the exact
    # one; x - P(x) cancels x against c + d * s and loses digits with |c|
    u = np.finfo(float).eps / 2
    for m in (2, 3):
        for norm_c in (1.0, 1e2, 1e4):
            rng = np.random.default_rng([m, int(norm_c)])
            n = 100
            c, v = rng.normal(size=(2, n, m))
            c *= norm_c / np.linalg.norm(c, axis=-1, keepdims=True)
            v /= np.linalg.norm(v, axis=-1, keepdims=True)
            radius = rng.uniform(0.5, 2.0, n)
            x = c + (radius * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0, n)))[:, None] * v
            grads = (ObjectiveSet([SquaredDistance(Ball(ci, ri)) for ci, ri in zip(c, radius)])
                     .stacked_grad(x))
            for g, xi, ci, ri in zip(grads, x, c, radius):
                exact, r = _exact_ball_gradient(xi, ci, ri)
                error = sum((decimal.Decimal(a) - b) ** 2 for a, b in zip(g, exact)).sqrt()
                assert error <= 4 * decimal.Decimal(u) * r, (m, norm_c, xi, ci, ri)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_residual_kernels_of_points_and_boxes(m):
    # _residual(shape)(x) is x - project(x) bit for bit, stacked and single,
    # at finite, NaN and infinite points, on boxes with infinite sides too
    rng = np.random.default_rng(30 + m)
    n = 4
    centers = rng.uniform(-2.0, 2.0, (n, m))
    lower = rng.uniform(-2.0, 0.0, (n, m))
    upper = lower + rng.uniform(0.0, 2.0, (n, m))
    lower[0, 0], lower[1], upper[2] = -np.inf, -np.inf, np.inf
    upper[3] = lower[3]  # a box of one point
    families = [(Point(centers), [Point(c) for c in centers]),
                (Box(lower, upper), [Box(lo, hi) for lo, hi in zip(lower, upper)])]
    states = rng.uniform(-4.0, 4.0, (6, n, m))
    states[1] = centers  # on every point
    states[2] = np.clip(states[2], lower, upper)  # inside every box
    states[3, :, 0] = np.nan
    states[4], states[5, ::2], states[5, 1::2] = np.inf, -np.inf, np.nan
    with np.errstate(invalid="ignore"):  # inf - inf along an infinite side, or at a point
        for stack, sets in families:
            for x in (states, states[0], states[4], states[5]):
                expected = x - stack.project(x)
                assert stack._residual(x.shape)(x).tobytes() == expected.tobytes()
                assert _residual_rows(sets, x).tobytes() == expected.tobytes()
                assert SquaredDistance(stack).grad(x).tobytes() == expected.tobytes()


def _ball_family(rng, n, m):
    return ObjectiveSet([SquaredDistance(Ball(rng.uniform(-2.0, 2.0, m),
                                              float(rng.uniform(0.0, 1.5))))
                         for _ in range(n)])


def _team_families(rng, m):
    """Families of every kind alone, and of every kind mixed with nested sums."""
    def leaf():
        return random_component(rng, m, allow_sum=False)

    quads = []
    for _ in range(4):
        a = rng.uniform(-1.0, 1.0, (m, m))
        quads.append(Quadratic(a.T @ a + 0.1 * np.eye(m), rng.uniform(-2.0, 2.0, m)))
    lower = rng.uniform(-2.0, 0.0, (4, m))
    upper = lower + 1.0
    lower[0, 0], lower[1], upper[2] = -np.inf, -np.inf, np.inf
    boxes = [SquaredDistance(Box(lo, hi)) for lo, hi in zip(lower, upper)]
    points = [SquaredDistance(Point(c)) for c in rng.uniform(-2.0, 2.0, (4, m))]
    mixed = [leaf() for _ in range(4)] + [
        quads[0], boxes[0], Sum([leaf(), Sum([leaf(), boxes[1]])]),
        Sum([Sum([leaf(), quads[1]]), leaf()]), Sum([points[0]])]
    families = [_ball_family(rng, n, m) for n in (1, 2, 7)]
    return families + [ObjectiveSet(f) for f in (quads, boxes, points, mixed)]


def _probes(c):
    """A quadratic's, a ball's or a point's centre as given, and a point on a ball's sphere."""
    if type(c) is Sum:
        return [p for part in c.parts for p in _probes(part)]
    s = c if type(c) is Quadratic else c.target
    if type(s) is Ball:
        return [s.center, s.center + np.eye(s.dim)[0] * s.radius]
    return [s.center] if type(s) is Quadratic else [s.c] if type(s) is Point else []


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9])
def test_team_value_is_sum_bitwise(m, monkeypatch):
    rng = np.random.default_rng(14 + m)
    # one block, and blocks of one point or of a few, with a single-column last block
    chunks = (objectives._TEAM_CHUNK, 1, 7)
    for obj in _team_families(rng, m):
        n = obj.n_nodes
        # non-finite and signed-zero points, and every centre given exactly
        probes = [np.full(m, v) for v in (-0.0, np.nan, np.inf, -np.inf)]
        probes += [p for c in obj.components for p in _probes(c)]
        pts = rng.uniform(-4.0, 4.0, (3 * n + len(probes), m))
        pts[:len(probes)] = probes
        for chunk in chunks:
            monkeypatch.setattr(objectives, "_TEAM_CHUNK", chunk)
            for x in (pts[0], pts[len(probes) - 1], pts, pts[:(len(pts) // n) * n].reshape(-1, n, m)):
                # inf - inf and inf * 0 on both paths alike
                with np.errstate(invalid="ignore"):
                    fast, slow = obj.team_value(x), Sum(obj.components).value(x)
                assert np.shape(fast) == np.shape(slow) == x.shape[:-1]
                assert np.asarray(fast).tobytes() == np.asarray(slow).tobytes()


def _nested_family(rng, n, m, slack=2.0):
    # radius |c| + slack: every ball holds the ball of radius slack about 0
    c = rng.uniform(-0.4, 0.4, (n, m))
    return ObjectiveSet([SquaredDistance(Ball(ci, float(np.linalg.norm(ci)) + slack))
                         for ci in c])


def _balls(obj):
    return Ball(np.stack([c.target.center for c in obj.components]),
                [c.target.radius for c in obj.components])


def _certified(obj, pts):
    """The certificate's mask, after checking it against the team's ``Sum``."""
    marked = _inside_every_ball(_balls(obj), pts)
    slow = Sum(obj.components).value(pts)
    # a marked point is one the team value scores +0.0
    assert slow[marked].tobytes() == np.zeros(marked.sum()).tobytes()
    assert obj.team_value(pts).tobytes() == slow.tobytes()
    return marked


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gap_certificate_is_bitwise_sound(m):
    rng = np.random.default_rng(40 + m)
    eps = np.finfo(float).eps
    for n in (1, 2, 9):
        obj = _nested_family(rng, n, m)
        balls = _balls(obj)
        probes = [balls.center.mean(axis=0), np.full(m, np.nan), np.full(m, np.inf),
                  np.full(m, -np.inf), np.full(m, -0.0)]
        # a few ulp inside and outside each sphere: in a random direction,
        # and where it passes closest to the anchor
        for c, r in zip(balls.center, balls.radius):
            for u in (rng.normal(size=m), probes[0] - c + eps):
                u /= np.linalg.norm(u)
                probes += [c + r * (1.0 + k * eps) * u for k in (-4, -1, 0, 1, 4)]
        step = objectives._TEAM_CHUNK // n
        pts = rng.uniform(-6.0, 6.0, (2 * step + 1, m))
        pts[:len(probes)] = probes
        marked = _certified(obj, pts)
        # the anchor and -0.0 are deep inside, non-finite points never marked
        assert marked[0] and marked[4] and not marked[1:4].any()
        assert (~marked).sum() > step  # the rest still takes more than one block
        # the last block holds a single point, which must not sum pairwise
        rest = pts[~marked][:step + 1]
        team = Sum(obj.components)
        assert obj.team_value(rest).tobytes() == team.value(rest).tobytes()
        assert obj.team_value(rest[-1]).tobytes() == team.value(rest[-1]).tobytes()
        # a converged cloud near the origin is marked whole
        cloud = rng.uniform(-0.25, 0.25, (500, m))
        assert _certified(obj, cloud).all()


def test_gap_certificate_rounding_bound():
    # points within a few ulp of the certified radius rho about the anchor, on
    # the side of the shallowest ball; without the rounding bound some of
    # them are marked although the team's `Sum` scores them above 0
    rng = np.random.default_rng(45)
    eps = np.finfo(float).eps
    for _ in range(300):
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        c = rng.uniform(-0.4, 0.4, (n, m)) * 10.0 ** rng.uniform(-3.0, 3.0)
        r = np.linalg.norm(c, axis=-1) + rng.uniform(0.1, 2.0) * np.abs(c).max()
        obj = ObjectiveSet([SquaredDistance(Ball(ci, ri)) for ci, ri in zip(c, r)])
        z = c.mean(axis=0)
        depth = r - np.linalg.norm(z - c, axis=-1)
        u = z - c[depth.argmin()]
        u /= np.linalg.norm(u)
        _certified(obj, z + depth.min() * (1.0 + np.arange(-40, 9)[:, None] * eps) * u)


def test_gap_certificate_steps_aside():
    rng = np.random.default_rng(44)
    pts = rng.uniform(-3.0, 3.0, (200, 2))
    # disjoint balls, a radius-0 ball, and a lone radius-0 ball: depth <= 0
    for family in ([Ball([-2.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0)],
                   [Ball([0.0, 0.0], 5.0), Ball([0.5, 0.5], 0.0)],
                   [Ball([0.5, 0.5], 0.0)]):
        obj = ObjectiveSet([SquaredDistance(b) for b in family])
        pts[0] = _balls(obj).center.mean(axis=0)
        assert not _certified(obj, pts).any()
    # random families, with and without a common interior
    for k in range(60):
        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        obj = (_nested_family(rng, n, m, slack=float(rng.uniform(0.0, 1.0))) if k % 2
               else _ball_family(rng, n, m))
        _certified(obj, rng.uniform(-2.0, 2.0, (300, m)))


def test_total_value_and_grad():
    obj = ObjectiveSet([Quadratic([[1.0]], [0.0]), Quadratic([[1.0]], [3.0])])
    team = Sum(obj.components)
    assert team.parts == obj.components
    assert team.value([1.5]) == obj.team_value([1.5]) == 2.25
    assert np.array_equal(team.grad([1.5]), [0.0])
    assert team.gradient_lipschitz() == 2.0
    assert np.array_equal(team.value([[1.5], [0.0]]), [2.25, 4.5])
    assert np.array_equal(obj.team_value([[1.5], [0.0]]), [2.25, 4.5])


def test_stacked_shape_errors():
    obj = ObjectiveSet([Quadratic([[1.0]], [0.0]), Quadratic([[1.0]], [3.0])])
    with pytest.raises(ValueError):
        obj.stacked_grad(np.zeros((3, 1)))


# --- property suites --------------------------------------------------------

def test_projector_inequality_property():
    assert projector_inequality_worst(np.random.default_rng(20), 250) <= 1e-12


def test_nonexpansiveness_property():
    assert nonexpansiveness_worst(np.random.default_rng(21), 250) <= 1e-12


def test_gradient_matches_finite_differences():
    assert gradient_fd_worst(np.random.default_rng(22), 250) <= 1e-5


def test_first_order_convexity_property():
    assert first_order_convexity_worst(np.random.default_rng(23), 250) <= 1e-12


# --- intersections ----------------------------------------------------------

def test_two_ball_intersections():
    r = intersection_nonempty([Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)])
    assert r.status == "nonempty" and np.array_equal(r.witness, [0.5, 0.0])
    r = intersection_nonempty([Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0)])
    assert r.status == "empty" and r.witness is None
    # nested and concentric cases pick the inner center
    r = intersection_nonempty([Ball([0.0, 0.0], 2.0), Ball([0.5, 0.0], 1.0)])
    assert r.status == "nonempty" and np.array_equal(r.witness, [0.5, 0.0])
    r = intersection_nonempty([Ball([0.0], 1.0), Ball([0.0], 2.0)])
    assert r.status == "nonempty" and np.array_equal(r.witness, [0.0])


def test_box_intersections_exact():
    boxes = [Box([0.0, 0.0], [2.0, 2.0]), Box([1.0, -1.0], [3.0, 1.5])]
    r = intersection_nonempty(boxes)
    assert r.status == "nonempty"
    assert all(b.distance(r.witness) <= 0.0 for b in boxes)
    r = intersection_nonempty([Box([0.0], [1.0]), Box([2.0], [3.0])])
    assert r.status == "empty"


def test_point_member_intersections():
    r = intersection_nonempty([Ball([0.0, 0.0], 1.0), Point([0.5, 0.0])])
    assert r.status == "nonempty" and np.array_equal(r.witness, [0.5, 0.0])
    r = intersection_nonempty([Ball([0.0, 0.0], 1.0), Point([2.0, 0.0])])
    assert r.status == "empty"


def test_mixed_intersection_via_projections():
    sets = [Ball([0.0, 0.0], 1.5), Box([0.5, -2.0], [4.0, 2.0]), Ball([1.0, 0.0], 1.0)]
    r = intersection_nonempty(sets)
    assert r.status == "nonempty"
    assert max(float(s.distance(r.witness)) for s in sets) <= 1e-9


def test_tangent_triple_is_undecided():
    # pairwise tangent balls meet pairwise in single distinct points, so the
    # common intersection is empty, but no pairwise certificate can prove it
    sets = [
        Ball([0.0, 0.0], 1.0),
        Ball([2.0, 0.0], 1.0),
        Ball([1.0, np.sqrt(3.0)], 1.0),
    ]
    r = intersection_nonempty(sets, max_iter=300)
    assert r.status == "undecided"


def _pair_disjoint(a, b):
    # the per-pair separation certificate, one pair of single sets at a time
    if isinstance(a, Point):
        return bool(b.distance(a.c) > 1e-12)
    if isinstance(b, Point):
        return _pair_disjoint(b, a)
    if isinstance(a, Ball) and isinstance(b, Ball):
        return bool(np.linalg.norm(a.center - b.center, axis=-1) > a.radius + b.radius)
    if isinstance(a, Box) and isinstance(b, Box):
        return bool(np.any(np.maximum(a.lower, b.lower) > np.minimum(a.upper, b.upper)))
    if isinstance(a, Ball):
        return bool(b.distance(a.center) > a.radius)
    return _pair_disjoint(b, a)


def _loop_certificate(sets):
    return any(_pair_disjoint(sets[i], sets[j])
               for i in range(len(sets)) for j in range(i + 1, len(sets)))


def _touching_pair(rng, m):
    # two random sets within an ulp of touching (or of the points' 1e-12)
    ulp = rng.choice([-1.0, 0.0, 1.0])
    c = rng.uniform(-3.0, 3.0, m)
    lo = c - rng.uniform(0.1, 2.0, m)
    hi = c + rng.uniform(0.1, 2.0, m)
    lo[rng.random(m) < 0.3] = -np.inf
    k = int(rng.integers(m))
    hi[k] = c[k] + 1.0
    box = Box(lo, hi)
    out = c.copy()
    out[k] = hi[k] + rng.uniform(0.5, 2.0)
    r = float(box.distance(out))
    kind = int(rng.integers(4))
    if kind == 0:  # boxes sharing a face
        lo2, hi2 = lo.copy(), np.full(m, np.inf)
        lo2[k] = hi[k] + ulp * np.spacing(hi[k])
        return [box, Box(lo2, hi2)]
    if kind == 1:  # a ball on a box face
        return [Ball(out, r + ulp * np.spacing(r)), box]
    if kind == 2:  # a point 1e-12 off a box face
        out[k] = hi[k] + 1e-12 * (1.0 + ulp * np.finfo(float).eps)
        return [Point(out), box]
    # a point on a sphere
    u = rng.normal(size=m)
    u /= np.linalg.norm(u)
    rad = float(rng.uniform(0.1, 2.0))
    return [Ball(c, rad), Point(c + rad * (1.0 + ulp * np.finfo(float).eps) * u)]


def _mixed_family(rng, m):
    # the pair and more sets, most of them large enough to hold the pair
    sets = _touching_pair(rng, m)
    for _ in range(int(rng.integers(1, 7))):
        c = rng.uniform(-3.0, 3.0, m)
        big = 12.0 * (rng.random() < 0.75)
        kind = int(rng.choice(3, p=[0.45, 0.45, 0.1]))
        if kind == 0:
            sets.append(Ball(c, big + float(rng.uniform(0.0, 4.0))))
        elif kind == 1:
            lo, hi = c - big - rng.uniform(0.0, 4.0, m), c + big + rng.uniform(0.0, 4.0, m)
            lo[rng.random(m) < 0.3] = -np.inf
            hi[rng.random(m) < 0.3] = np.inf
            sets.append(Box(lo, hi))
        else:
            sets.append(Point(c))
    return [sets[i] for i in rng.permutation(len(sets))]


def test_ball_separation_rows_match_pair_loop(monkeypatch):
    rng = np.random.default_rng(24)
    tangent = [Ball([0.0, 0.0], 0.0),
               Ball([2.23, -2.89], float(np.linalg.norm([2.23, -2.89], axis=-1)))]
    assert float(np.linalg.norm([2.23, -2.89])) > tangent[1].radius
    families = [
        # tangent pairs: touching balls are not disjoint
        [Ball([0.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), Ball([1.0, 0.5], 1.0)],
        [Ball([0.0, 0.0], 2.0), Ball([3.0, 4.0], 3.0), Ball([1.5, 2.0], 0.5)],
        # only the last pair is disjoint
        [Ball([0.0, 0.0], 5.0)] * 3 + [Ball([-3.0, 0.0], 1.0), Ball([3.0, 0.0], 1.0)],
        # tangent at a distance whose dot-product norm rounds one ulp higher,
        # alone and with a ball that holds both
        tangent,
        tangent + [Ball([1.0, -1.0], 5.0)],
    ]
    for _ in range(30):
        m = int(rng.integers(1, 4))
        c = rng.uniform(-3.0, 3.0, (int(rng.integers(3, 9)), m))
        d = float(np.linalg.norm(c[-1] - c[-2], axis=-1))
        r = rng.uniform(d, 2.0 * d, len(c))
        # the last two balls within an ulp of touching
        r[-2] = d / 2.0
        r[-1] = rng.choice([np.nextafter(d - r[-2], 0.0), d - r[-2], np.nextafter(d - r[-2], 9.0)])
        families.append([Ball(ci, ri) for ci, ri in zip(c, r)])
    # balls, boxes with infinite sides and points, each family with a pair
    # within an ulp of touching, in any order of kinds
    families += [f(rng, m) for m in (1, 2, 3) for f in [_mixed_family] * 40 + [_touching_pair] * 10]
    decisions = []
    for sets in families:
        decisions.append(intersection_nonempty(sets, max_iter=50).status == "empty")
        assert decisions[-1] == _loop_certificate(sets)
    # row blocks of one to a few sets decide the same
    for chunk in (1, 7, 64):
        monkeypatch.setattr(objectives, "_TEAM_CHUNK", chunk)
        assert decisions == [intersection_nonempty(sets, max_iter=50).status == "empty"
                             for sets in families]
    assert decisions[:5] == [False, False, True, False, False]
    assert 5 <= sum(decisions[5:35]) <= 25
    assert 20 <= sum(decisions[35:]) <= len(families) - 55
    assert np.array_equal(intersection_nonempty(tangent).witness, [0.0, 0.0])


def test_stacked_ball_distance_matches_per_ball():
    # the projection phase of intersection_nonempty takes each sweep's worst
    # distance from the stacked arrays; per row it is Ball.distance bit for bit
    rng = np.random.default_rng(26)
    for m in (1, 2, 3, 9):
        balls = [Ball(rng.uniform(-2.0, 2.0, m), float(rng.uniform(0.0, 1.5))) for _ in range(40)]
        c, r = np.stack([b.center for b in balls]), np.array([b.radius for b in balls])
        for x in rng.uniform(-3.0, 3.0, (20, m)):
            rows = np.array([b.distance(x) for b in balls])
            assert Ball(c, r).distance(x).tobytes() == rows.tobytes()


@pytest.mark.parametrize("m", range(1, 8))
def test_set_distances_sum_as_linalg_norm_below_8_components(m):
    # every set kind sums the squares in component order, which is
    # np.linalg.norm's order, and so its bits, for fewer than 8 components
    rng = np.random.default_rng(90 + m)
    n = 6
    c = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4, (n, m))
    lower = c - rng.uniform(0.0, 2.0, (n, m))
    r = rng.uniform(0.0, 2.0, n)
    x = rng.normal(size=(30, n, m)) * 10.0 ** rng.integers(-150, 150, (30, n, m))
    cases = [(Point(c), Point(c[0]), np.linalg.norm(x - c, axis=-1)),
             (Box(lower, c), Box(lower[0], c[0]), np.linalg.norm(x - np.clip(x, lower, c), axis=-1)),
             (Ball(c, r), Ball(c[0], r[0]), np.maximum(np.linalg.norm(x - c, axis=-1) - r, 0.0))]
    for stacked, single, reference in cases:
        assert stacked.distance(x).tobytes() == reference.tobytes()
        assert single.distance(x[:, 0]).tobytes() == reference[:, 0].tobytes()
        assert single.distance(x[0, 0]) == reference[0, 0]


def test_single_set_and_validation():
    r = intersection_nonempty([Box([0.0], [1.0])])
    assert r.status == "nonempty" and r.nonempty
    with pytest.raises(ValueError):
        intersection_nonempty([])
    with pytest.raises(ValueError):
        intersection_nonempty([Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0)])
    slab = type("Slab", (Box,), {})([0.0], [1.0])
    for sets in ([Ball([0.0], 1.0), slab], [slab]):
        with pytest.raises(TypeError, match="unsupported set kind: Slab"):
            intersection_nonempty(sets)


def test_interior_simplex_properties():
    sets = [Ball([0.0, 0.0], 2.0), Box([-1.5, -1.5], [1.5, 1.5])]
    pts = interior_simplex(sets, [0.0, 0.0])
    assert pts.shape == (3, 2)
    diffs = pts[1:] - pts[0]
    assert np.linalg.matrix_rank(diffs) == 2
    for p in pts:
        assert all(float(s.interior_margin(p)) > 0.0 for s in sets)
    with pytest.raises(ValueError, match="interior"):
        interior_simplex(sets, [2.0, 0.0])


# --- global minimum ---------------------------------------------------------

def test_global_min_quadratic_closed_form():
    obj = ObjectiveSet([Quadratic([[1.0]], [0.0]), Quadratic([[1.0]], [3.0])])
    res = global_min(obj)
    assert isinstance(res, GlobalMinimum)
    assert res.method == "closed-form" and res.tolerance == 0.0
    assert abs(res.value - 2.25) <= 1e-12
    assert abs(res.minimizer[0] - 1.5) <= 1e-12


def test_global_min_from_intersection():
    obj = ObjectiveSet(
        [SquaredDistance(Ball([0.0, 0.0], 1.0)), SquaredDistance(Ball([1.0, 0.0], 1.0))]
    )
    res = global_min(obj)
    assert res.method == "intersection"
    assert res.value == 0.0
    assert np.array_equal(res.minimizer, [0.5, 0.0])


def test_global_min_on_unbounded_boxes():
    # a box-only family meets in the box of its tightest bounds, unbounded sides too
    obj = ObjectiveSet(
        [SquaredDistance(Box([0.0], [np.inf])), SquaredDistance(Box([-np.inf], [1.0]))]
    )
    res = global_min(obj)
    assert res.method == "intersection"
    assert res.value == 0.0
    assert np.array_equal(res.minimizer, [0.0])


def test_global_min_numerical_fallback():
    obj = ObjectiveSet(
        [Quadratic([[1.0]], [0.0]), SquaredDistance(Box([2.0], [np.inf]))]
    )
    res = global_min(obj)
    assert res.method == "numerical"
    assert abs(res.minimizer[0] - 1.0) <= 1e-8
    assert abs(res.value - 1.0) <= 1e-8
    assert res.tolerance <= 1e-10


def test_global_min_with_sum_components():
    obj = ObjectiveSet(
        [Sum([Quadratic([[1.0]], [1.0]), Quadratic([[1.0]], [3.0])])]
    )
    res = global_min(obj)
    assert res.method == "numerical"
    assert abs(res.minimizer[0] - 2.0) <= 1e-8


def _descent_families():
    """Three families with no closed form: mixed kinds, sums, a nested sum."""
    eye = np.eye(3)
    return [
        ObjectiveSet([Quadratic([[2.0, 0.5], [0.5, 1.0]], [1.0, 0.0]),
                      SquaredDistance(Ball([3.0, 1.0], 0.5)),
                      Quadratic(np.eye(2), [-1.0, 2.0]),
                      SquaredDistance(Box([0.0, -1.0], [1.0, 0.0]))]),
        ObjectiveSet([Sum([Quadratic([[1.0]], [0.0]), SquaredDistance(Point([2.5]))]),
                      Sum([Quadratic([[0.5]], [4.0]), SquaredDistance(Box([-1.0], [-0.5]))]),
                      Quadratic([[3.0]], [1.0])]),
        ObjectiveSet([Quadratic(eye + 0.5, [1.0, 0.0, -1.0]),
                      Sum([Quadratic(np.diag([1.0, 2.0, 3.0]), [0.0, 1.0, 0.0]),
                           Sum([SquaredDistance(Ball([2.0, 2.0, 2.0], 1.0)),
                                SquaredDistance(Point([0.0, 0.0, 3.0]))])]),
                      SquaredDistance(Box([-np.inf, 0.0, 0.0], [0.0, 1.0, np.inf])),
                      Sum([Sum([Quadratic(0.5 * eye, [-1.0, -1.0, -1.0]),
                                SquaredDistance(Ball([0.0, 0.0, 0.0], 0.5))]),
                           SquaredDistance(Point([1.0, 1.0, 1.0]))]),
                      SquaredDistance(Ball([-2.0, 0.0, 1.0], 0.0))]),
    ]


def test_global_min_descent_is_pinned(monkeypatch):
    # minimizer, value and tolerance of the fixed-step descent, as hex
    pins = [
        (["0x1.8f71a168d140dp-1", "0x1.874fbd7a48732p-1"], "0x1.1966c40731e59p+2",
         "0x1.60e9712466731p-34"),
        (["0x1.13b13b13b13b1p+0"], "0x1.3ec4ec4ec4ec6p+2", "0x1.0000000000000p-51"),
        (["0x1.58a63ff98e5adp-5", "0x1.c9032a6f8e113p-2", "0x1.062b502c4e739p-1"],
         "0x1.82cf7514c23bap+3", "0x1.5a2ee7630a751p-34"),
    ]
    for obj, (minimizer, value, tolerance) in zip(_descent_families(), pins, strict=True):
        res = global_min(obj)
        assert res.method == "numerical"
        assert res.minimizer.tobytes() == np.array([float.fromhex(v) for v in minimizer]).tobytes()
        assert (res.value, res.tolerance) == (float.fromhex(value), float.fromhex(tolerance))

    # each descent gradient calls the quadratics' kernel once per group that
    # holds a quadratic, on that group's nodes together, and so does the team
    # value at the end, on its one point against those nodes
    calls = []
    grad = Quadratic._grad
    monkeypatch.setattr(Quadratic, "_grad", lambda self, x: calls.append(x.shape) or grad(self, x))
    monkeypatch.setattr(objectives, "_DESCENT_MAX_ITER", 25)
    monkeypatch.setattr(objectives, "_DESCENT_GRAD_TOL", -1.0)  # never met
    # the quadratic groups' (nodes, m): two quadratic nodes in one group, then
    # a lone quadratic and two sum shapes, one node each, in either other family
    groups = [[(2, 2)], [(1, 1)] * 3, [(1, 3)] * 3]
    for obj, shapes in zip(_descent_families(), groups, strict=True):
        calls.clear()
        res = global_min(obj)
        # each step's gradient and the final one, then the value's (P, 1, m) point
        assert calls == shapes * (25 + 1) + [(1, 1, obj.m)] * len(shapes)
        assert res.tolerance > 0.0


def test_describe_payloads_are_json_like():
    obj = ObjectiveSet(
        [SquaredDistance(Ball([0.0], 1.0)), Sum([Quadratic([[1.0]], [0.0])])]
    )
    d = obj.describe()
    assert d["m"] == 1 and len(d["components"]) == 2
    assert d["components"][0] == {"kind": "sqdist", "set": {"kind": "ball", "center": [0.0], "radius": 1.0}}
    assert d["components"][1]["kind"] == "sum"

"""Weighted digraphs, Laplacians, and piecewise-constant graph schedules."""

from __future__ import annotations

import bisect
import itertools
import math
from types import MappingProxyType

import numpy as np

def coupling_kernel(graphs, m):
    """Return ``x -> n`` with ``n_i = sum_j a_ij (x_j - x_i)`` on the disjoint
    union of ``graphs``, which share a node count ``n``: graph b's arc
    ``(j, i)`` is ``(j + b*n, i + b*n)`` and ``x`` stacks their states.

    Differences are formed per arc, so exact consensus states give exactly
    zero (no cancellation error).  They are scatter-added into their entering
    node by one ``bincount`` over the flattened ``(E, m)`` array, which sums
    each node's in-arcs in arc order, as in its own graph: O(N + E) memory,
    and deterministic.  One ``take`` gathers both ends of every arc into a
    fresh array, so the kernel keeps no state between calls.  Each call
    returns a fresh array.
    """
    n = graphs[0].n_nodes
    n_nodes = n * len(graphs)
    offsets = range(0, n_nodes, n)
    src, dst, w = zip(*(g.arc_arrays() for g in graphs))
    src = np.concatenate([a + o for a, o in zip(src, offsets)])
    dst = np.concatenate([a + o for a, o in zip(dst, offsets)])
    w = np.concatenate(w)
    arcs = src.size
    ends_index = np.concatenate([dst, src])
    slot = (dst[:, None] * m + np.arange(m)).ravel()
    wcol = None if (w == 1.0).all() else w[:, None]  # a unit weight multiplies exactly

    def coupling(x):
        ends = x.take(ends_index, axis=0)  # x[dst], then x[src]
        per_arc = ends[arcs:]
        per_arc -= ends[:arcs]
        if wcol is not None:
            per_arc *= wcol
        return np.bincount(slot, per_arc.ravel(), minlength=n_nodes * m).reshape(n_nodes, m)

    return coupling if arcs else np.zeros_like


def _walk(fwd, root, seen) -> list:
    """Mark in ``seen`` what ``root`` reaches through unseen nodes along ``fwd``."""
    seen[root] = True
    stack = [root]
    while stack:
        for v in fwd.get(stack.pop(), ()):
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


class WeightedDigraph:
    """Weighted directed graph on nodes ``0 .. n_nodes-1``.

    An arc ``(j, i)`` leaves node ``j`` and enters node ``i``; its weight is
    the coupling gain node ``i`` applies to information received from ``j``.
    Self-loops are rejected, weights must be positive, and instances are
    treated as immutable.

    Parameters
    ----------
    n_nodes : int
        Number of nodes, at least 1.
    weights : mapping, optional
        Maps arcs ``(j, i)`` to positive weights.  Omitted means no arcs.
    weight_bounds : (float, float), optional
        Declared bounds ``0 < low <= high``; every weight must fall inside.
    """

    def __init__(self, n_nodes, weights=None, weight_bounds=None):
        n_nodes = int(n_nodes)
        if n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        self._n = n_nodes

        if weight_bounds is not None:
            low, high = float(weight_bounds[0]), float(weight_bounds[1])
            if not (0.0 < low <= high):
                raise ValueError("weight bounds must satisfy 0 < low <= high")
            weight_bounds = (low, high)
        self._bounds = weight_bounds

        cleaned = {}
        for arc, w in dict(weights or {}).items():
            j, i = int(arc[0]), int(arc[1])
            if not (0 <= j < n_nodes and 0 <= i < n_nodes):
                raise ValueError(f"arc ({j}, {i}) is outside node range 0..{n_nodes - 1}")
            if j == i:
                raise ValueError(f"self-loop ({j}, {i}) is not allowed")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(f"arc ({j}, {i}): weights must be positive, got {w}")
            if weight_bounds is not None and not (weight_bounds[0] <= w <= weight_bounds[1]):
                raise ValueError(
                    f"arc ({j}, {i}): weight {w} violates declared bounds {weight_bounds}"
                )
            cleaned[(j, i)] = w
        self._weights = cleaned

        arcs = np.array(list(cleaned), dtype=np.intp).reshape(-1, 2)  # (E, 2): j, i
        order = np.lexsort((arcs[:, 1], arcs[:, 0]))  # by j, then i: sorted()'s order
        self._src, self._dst = arcs[order].T.copy()  # two contiguous rows
        self._w = np.fromiter(cleaned.values(), float, len(cleaned))[order]

    @classmethod
    def from_arcs(cls, n_nodes, arcs):
        """Build a graph with unit weight on every listed arc."""
        return cls(n_nodes, {tuple(a): 1.0 for a in arcs})

    @classmethod
    def directed_cycle(cls, n_nodes):
        return cls.from_arcs(n_nodes, [(k, (k + 1) % n_nodes) for k in range(n_nodes)])

    @classmethod
    def complete(cls, n_nodes):
        arcs = [(j, i) for j in range(n_nodes) for i in range(n_nodes) if j != i]
        return cls.from_arcs(n_nodes, arcs)

    @classmethod
    def bidirectional_path(cls, n_nodes):
        arcs = []
        for k in range(n_nodes - 1):
            arcs += [(k, k + 1), (k + 1, k)]
        return cls.from_arcs(n_nodes, arcs)

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def arcs(self) -> frozenset:
        return frozenset(self._weights)

    @property
    def weights(self):
        return MappingProxyType(self._weights)

    @property
    def weight_bounds(self):
        return self._bounds

    def arc_arrays(self):
        """Return ``(src, dst, weight)`` arrays sorted by arc."""
        return self._src, self._dst, self._w

    def segments(self, t1, t2) -> list:
        """A fixed graph is a one-stretch schedule: ``[(t1, t2, self)]``, or
        ``[]`` when ``t2 <= t1``."""
        t1, t2 = float(t1), float(t2)
        return [(t1, t2, self)] if t2 > t1 else []

    def graph_at(self, t) -> WeightedDigraph:
        return self

    def aggregation_matrix(self) -> np.ndarray:
        """0/1 matrix mapping per-arc values to their entering node.

        The dense O(N·E) reference for the coupling scatter-add; it is built
        on every call and the integrator never uses it.
        """
        agg = np.zeros((self._n, self._src.size))
        agg[self._dst, np.arange(self._src.size)] = 1.0
        return agg

    def adjacency(self) -> np.ndarray:
        """A[i, j] holds the weight of arc (j, i), zero when absent."""
        a = np.zeros((self._n, self._n))
        a[self._dst, self._src] = self._w
        return a

    def laplacian(self) -> np.ndarray:
        """In-degree Laplacian ``D - A``; rows sum to zero."""
        a = self.adjacency()
        return np.diag(a.sum(axis=1)) - a

    def _successors(self, reverse=False) -> dict:
        """Each node's arc heads, or its arc tails when ``reverse``."""
        fwd = {}
        for (j, i) in self._weights:
            if reverse:
                j, i = i, j
            fwd.setdefault(j, []).append(i)
        return fwd

    def is_strongly_connected(self) -> bool:
        """True iff every node reaches every other along directed arcs."""
        return all(all(_walk(self._successors(rev), 0, [False] * self._n)) for rev in (False, True))

    def has_spanning_tree(self) -> bool:
        """True iff some root reaches all nodes along directed arcs.

        Walks from each unseen node in turn share one ``seen`` record.  The
        walk that sees a root sees all and is the last, and its start reaches
        that root, so only that start is checked: O(N + E) in all."""
        fwd, seen = self._successors(), [False] * self._n
        for r in range(self._n):
            if not seen[r]:
                _walk(fwd, r, seen)
                last = r
        return all(_walk(fwd, last, [False] * self._n))

    def is_bidirectional(self) -> bool:
        """True iff the arc set is symmetric (weights may still differ)."""
        return all((i, j) in self._weights for (j, i) in self._weights)

    def has_symmetric_weights(self) -> bool:
        """True iff every arc's reverse is present with the same weight."""
        return all(self._weights.get((i, j)) == w for (j, i), w in self._weights.items())

    def lambda2(self) -> float:
        """Second-smallest Laplacian eigenvalue of a connected symmetric graph.

        Requires a bidirectional arc set with symmetric weights, so the
        Laplacian is symmetric PSD and the spectrum is real.  Ties in the
        second eigenvalue are fine; the sorted value is returned.
        """
        if not self.has_symmetric_weights():
            raise ValueError("lambda2 requires a bidirectional graph with symmetric weights")
        if not self.is_strongly_connected():
            raise ValueError("lambda2 requires a connected graph")
        if self._n == 1:
            raise ValueError("lambda2 is undefined on a single node")
        eigs = np.linalg.eigvalsh(self.laplacian())
        return float(eigs[1])

    def describe(self) -> dict:
        return {
            "kind": "digraph",
            "n_nodes": self._n,
            "arcs": [[int(j), int(i), self._weights[(j, i)]] for (j, i) in sorted(self._weights)],
            "weight_bounds": list(self._bounds) if self._bounds else None,
        }

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self._n == other._n and self._weights == other._weights

    def __hash__(self):
        return hash((self._n, frozenset(self._weights.items())))

    def __repr__(self):
        return f"WeightedDigraph(n_nodes={self._n}, arcs={len(self._weights)})"


_SNAP_ULPS = 4  # start + k * period + offset rounds three times: a few ulp at most


def _near(a, b) -> bool:
    """Whether ``a`` and ``b`` differ by at most ``_SNAP_ULPS`` ulp."""
    return abs(a - b) <= _SNAP_ULPS * math.ulp(max(abs(a), abs(b)))


class SwitchingSignal:
    """Piecewise-constant schedule of graphs over time.

    ``intervals`` is a sequence of ``(start, graph)`` pairs with strictly
    increasing starts; the k-th graph is active on ``[start_k, start_{k+1})``.
    Exactly one of ``horizon`` (finite end time) or ``period`` (the pattern
    repeats with that period) must be given.  Consecutive starts, and the
    wrap-around gap for periodic signals, must respect the dwell time.
    """

    def __init__(self, intervals, dwell, horizon=None, period=None):
        items = [(float(t), g) for (t, g) in intervals]
        if not items:
            raise ValueError("at least one interval is required")
        starts = [t for t, _ in items]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("interval starts must be strictly increasing")
        n_set = {g.n_nodes for _, g in items}
        if len(n_set) != 1:
            raise ValueError("all graphs in a schedule must share the node count")
        dwell = float(dwell)
        if dwell <= 0.0:
            raise ValueError("dwell time must be positive")
        if (horizon is None) == (period is None):
            raise ValueError("exactly one of horizon or period must be given")

        gaps = [b - a for a, b in zip(starts, starts[1:])]
        if period is not None:
            period = float(period)
            if period <= 0.0:
                raise ValueError("period must be positive")
            span = starts[-1] - starts[0]
            if span >= period:
                raise ValueError("intervals must fit inside one period")
            gaps.append(starts[0] + period - starts[-1])
        else:
            horizon = float(horizon)
            if horizon <= starts[-1]:
                raise ValueError("horizon must exceed the last interval start")
            gaps.append(horizon - starts[-1])
        bad = [g for g in gaps if g < dwell - 1e-12]
        if bad:
            raise ValueError(
                f"interval gap {min(bad)} is smaller than the dwell time {dwell}"
            )

        self._items = items
        self._starts = starts
        self._dwell = dwell
        self._horizon = horizon
        self._period = period

    @property
    def n_nodes(self) -> int:
        return self._items[0][1].n_nodes

    @property
    def start_time(self) -> float:
        return self._starts[0]

    @property
    def horizon(self):
        return self._horizon

    @property
    def period(self):
        return self._period

    @property
    def is_periodic(self) -> bool:
        return self._period is not None

    def _check_inside(self, t):
        if t < self._starts[0]:
            raise ValueError(f"time {t} precedes the schedule start {self._starts[0]}")
        if self._horizon is not None and t >= self._horizon:
            raise ValueError(f"time {t} is outside the schedule horizon {self._horizon}")

    def _walk(self, t):
        """Yield ``(instant, graph it activates)`` in time order, from one at or before ``t``.

        A finite schedule's instants are its starts.  A periodic schedule's
        are ``start + k * period + offset``, with offsets ``s_j - start`` and,
        for the wrap back to the first graph, ``period``; periods wholly
        before the one preceding ``t`` are skipped.
        """
        if self._period is None:
            yield from self._items[bisect.bisect_right(self._starts, t) - 1:]
            return
        base, p = self._starts[0], self._period
        first = self._items[0][1]
        offsets = [(s - base, g) for s, g in self._items[1:]] + [(p, first)]
        yield base, first
        for k in itertools.count(max(0, math.floor((t - base) / p) - 1)):
            yield from ((base + k * p + off, g) for off, g in offsets)

    def segments(self, t1, t2) -> list:
        """``(a, b, graph)`` for each constant stretch of ``[t1, t2)``, in order; the
        graph in force at ``t1`` is the one set by the last instant at or before it.

        Periodic instants drift off a decimal grid (``9 * 0.3 + 0.3`` is
        ``2.9999999999999996``), so an instant within ``_SNAP_ULPS`` ulp of
        ``t2`` is taken to be ``t2``, and one that close to the stretch's start
        takes effect at that start: no stretch is a rounding artefact.
        """
        t1, t2 = float(t1), float(t2)
        self._check_inside(t1)
        if self._horizon is not None and t2 > self._horizon:
            raise ValueError(f"window end {t2} is outside the schedule horizon {self._horizon}")
        if t2 <= t1:
            return []
        out, a = [], t1
        for s, g in self._walk(t1):
            if s > t1 and not _near(s, a):
                if s >= t2 or _near(s, t2):
                    break
                out.append((a, s, active))
                a = s
            active = g
        return out + [(a, t2, active)]

    def graph_at(self, t) -> WeightedDigraph:
        """Graph active at time ``t`` (intervals are closed-open)."""
        t = float(t)
        return self.segments(t, math.nextafter(t, math.inf))[0][2]

    def joint_graph(self, t1, t2) -> WeightedDigraph:
        """Union of arcs active anywhere on ``[t1, t2)``.

        A repeated arc takes the weight of its latest activation inside the
        window.
        """
        t1, t2 = float(t1), float(t2)
        if t2 <= t1:
            raise ValueError("joint graph needs t1 < t2")
        self._check_inside(t1)  # before the clamp, which would hide an early t1
        if self._period is not None:
            t1 = max(t1, t2 - self._period)  # one period already covers every interval
        merged = {}
        for _, _, g in self.segments(t1, t2):
            merged.update(g.weights)
        return WeightedDigraph(self.n_nodes, merged)

    def check_ujsc(self, window) -> bool:
        """Uniform joint strong connectivity over windows of the given length.

        Only windows starting at interval starts are tested: a window starting
        inside an interval holds every arc of the window starting at that
        interval's start, and strong connectivity only gains from more arcs.
        A periodic schedule takes one period's starts.  A finite-horizon one
        takes the starts whose window fits inside the horizon, falling back
        to the whole-span union when none does.  A window too short to move a
        start in floating point still holds the graph in force at that start.
        """
        window = float(window)
        if window <= 0.0:
            raise ValueError("window must be positive")
        base = self._starts[0]
        end = base + self._period if self._period is not None else self._horizon
        windows = [(a, max(a + window, math.nextafter(a, math.inf)))
                   for a, _, _ in self.segments(base, end)
                   if self._period is not None or a + window <= end]
        return all(self.joint_graph(a, b).is_strongly_connected()
                   for a, b in windows or [(base, end)])

    def describe(self) -> dict:
        return {
            "kind": "switching",
            "dwell": self._dwell,
            "horizon": self._horizon,
            "period": self._period,
            "intervals": [[t, g.describe()] for t, g in self._items],
        }

    def __repr__(self):
        tail = f"period={self._period}" if self._period is not None else f"horizon={self._horizon}"
        return f"SwitchingSignal(intervals={len(self._items)}, dwell={self._dwell}, {tail})"

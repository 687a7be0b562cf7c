"""Exact effective resistance by star-mesh elimination of a conductance map.

Rationals are stdlib ``fractions.Fraction``. A network is held as a sparse
map ``{v: {w: conductance}}``, and one routine eliminates vertices from it:
least degree first (minimum-degree order), each step joining the eliminated
vertex's neighbours pairwise (star-mesh, i.e. Kron reduction). Eliminating
all but the ground vertex factors the grounded system once, and each
resistance query replays the recorded steps forward and back; stopping
short leaves the Kron reduction onto the kept vertices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DisconnectedNetworkError,
    MalformedNetworkError,
    SingularSystemError,
)
from .network import ResistorNetwork

__all__ = [
    "GroundedSystem",
    "ResistanceTable",
    "resistance_exact",
    "resistance_matrix_exact",
]

_ZERO = Fraction(0)


def _require_solvable(net: ResistorNetwork):
    if not net.all_rational:
        raise MalformedNetworkError("exact solver requires rational resistances")
    if not net.is_connected():
        raise DisconnectedNetworkError(
            "resistance is undefined on a disconnected network"
        )


def _conductances(vertices, edges) -> dict[int, dict[int, Fraction]]:
    """``{v: {w: g}}`` over ``vertices``, summing the conductances of ``edges``.

    Parallel edges add, and a pair whose sum cancels to zero is dropped.
    """
    g = {v: {} for v in vertices}
    for e in edges:
        if not isinstance(e.r, Fraction):
            raise MalformedNetworkError("exact solver requires rational resistances")
        _link(g, e.u, e.v, g[e.u].get(e.v, _ZERO) + 1 / e.r)
    return g


def _link(g, a: int, b: int, c: Fraction) -> None:
    """Set the a-b conductance to c, dropping the pair when c is zero."""
    if c:
        g[a][b] = g[b][a] = c
    else:
        g[a].pop(b, None)
        g[b].pop(a, None)


def _eliminate(g, doomed) -> list[tuple[int, Fraction, dict[int, Fraction]]]:
    """Star-mesh elimination of the ``doomed`` vertices of ``g``, in place.

    Each step takes the vertex of least degree (then smallest id) whose
    conductance sum, the pivot, is nonzero, and joins every pair of its
    neighbours a, b by g_va * g_vb / pivot. What is left in ``g`` is the Kron
    reduction onto the kept vertices. Returns the steps as
    ``(v, pivot, arms)``, ``arms`` being v's neighbours when it went.

    One heap of ``(degree, id)`` serves every step. A vertex's degree and
    pivot change only when a neighbour goes, and then it is pushed again, so
    a popped entry whose degree no longer matches, or whose pivot is zero, is
    dropped.
    """
    left = set(doomed)
    heap = [(len(g[w]), w) for w in left]
    heapq.heapify(heap)
    steps = []
    while left:
        while heap:
            d, v = heapq.heappop(heap)
            if v in left and d == len(g[v]):
                pivot = sum(g[v].values())
                if pivot:
                    break
        else:
            raise SingularSystemError(
                f"no usable pivot while eliminating vertex {min(left)}"
            )
        left.remove(v)
        arms = g.pop(v)
        items = list(arms.items())
        for x, (a, ga) in enumerate(items):
            del g[a][v]
            f = ga / pivot
            for b, gb in items[x + 1 :]:
                _link(g, a, b, g[a].get(b, _ZERO) + f * gb)
        for a in arms:
            if a in left:
                heapq.heappush(heap, (len(g[a]), a))
        steps.append((v, pivot, arms))
    return steps


class GroundedSystem:
    """Star-mesh elimination of every vertex but the ground, kept for solves."""

    def __init__(self, net: ResistorNetwork, ground: int):
        if ground not in net._adj:
            raise MalformedNetworkError(f"unknown ground vertex {ground}")
        self.ground = ground
        g = _conductances(net.vertices, net.edges)
        self._steps = _eliminate(g, (v for v in net.vertices if v != ground))

    def solve(self, rhs: dict[int, Fraction]) -> dict[int, Fraction]:
        """Solve for node potentials; rhs and result are keyed by vertex id.

        The ground vertex is held at potential zero and must not appear in
        the rhs.
        """
        b = dict(rhs)
        for v, pivot, arms in self._steps:
            bv = b.get(v)
            if bv:
                f = bv / pivot
                for a, ga in arms.items():
                    b[a] = b.get(a, _ZERO) + ga * f
        x = {self.ground: _ZERO}
        for v, pivot, arms in reversed(self._steps):
            acc = b.get(v, _ZERO)
            for a, ga in arms.items():
                xa = x[a]
                if xa:
                    acc += ga * xa
            x[v] = acc / pivot
        del x[self.ground]
        return x


@dataclass(frozen=True)
class ResistanceTable:
    """Symmetric table of pairwise effective resistances."""

    vertices: tuple[int, ...]
    _values: dict

    def __getitem__(self, pair) -> Fraction:
        u, v = pair
        if u == v:
            return _ZERO
        return self._values[(u, v) if u < v else (v, u)]

    def items(self):
        return self._values.items()


def resistance_exact(
    net: ResistorNetwork, u: int, v: int, ground: int | None = None
) -> Fraction:
    """Effective resistance between u and v as an exact rational.

    The answer does not depend on the choice of ground vertex; the parameter
    exists so tests can verify exactly that.
    """
    if u not in net._adj or v not in net._adj:
        raise MalformedNetworkError(f"unknown vertex in pair ({u}, {v})")
    if u == v:
        return _ZERO
    _require_solvable(net)
    if ground is None:
        ground = v
    sys = GroundedSystem(net, ground)
    rhs = {}
    if u != ground:
        rhs[u] = Fraction(1)
    if v != ground:
        rhs[v] = Fraction(-1)
    x = sys.solve(rhs)
    return x.get(u, _ZERO) - x.get(v, _ZERO)


def _subset_table(net: ResistorNetwork, subset) -> dict:
    """Exact resistances between the vertices of ``subset``, in pair order.

    Factors once, grounded at ``subset[0]``, and solves once per other vertex
    v for the potentials x[v] of a unit current into v (zero at the ground):
    R(u, v) = x[u][u] + x[v][v] - 2 x[v][u].
    """
    _require_solvable(net)
    if len(subset) < 2:
        return {}
    sys = GroundedSystem(net, subset[0])
    x = {subset[0]: {}}
    x.update((v, sys.solve({v: Fraction(1)})) for v in subset[1:])
    return {
        (u, v): x[u].get(u, _ZERO) + x[v].get(v, _ZERO) - 2 * x[v].get(u, _ZERO)
        for i, u in enumerate(subset)
        for v in subset[i + 1 :]
    }


def resistance_matrix_exact(net: ResistorNetwork) -> ResistanceTable:
    """All-pairs resistance from a single factorization plus n-1 solves."""
    return ResistanceTable(net.vertices, _subset_table(net, net.vertices))

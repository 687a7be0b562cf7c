"""Exact effective resistance by rational elimination of the grounded system.

Rationals are stdlib ``fractions.Fraction``. One vertex is grounded, the
remaining conductance matrix is LU-factored once, and each resistance query
is a pair of triangular solves. Row pivoting prefers the candidate whose
numerator plus denominator bit length is smallest, which keeps intermediate
rationals from blowing up. The same elimination loop, stopped early, gives
the Kron reduction (Schur complement) of a Laplacian onto kept vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DisconnectedNetworkError,
    MalformedNetworkError,
    SingularSystemError,
)
from .network import ResistorNetwork, build_laplacian

__all__ = [
    "GroundedSystem",
    "ResistanceTable",
    "resistance_exact",
    "resistance_matrix_exact",
]

_ZERO = Fraction(0)


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _require_solvable(net: ResistorNetwork):
    if not net.all_rational:
        raise MalformedNetworkError("exact solver requires rational resistances")
    if not net.is_connected():
        raise DisconnectedNetworkError(
            "resistance is undefined on a disconnected network"
        )


def _eliminate(a, stop: int, names) -> list[int]:
    """Pivoted elimination of the leading ``stop`` rows of ``a``, in place.

    Pivots come only from those rows and multipliers are stored below the
    diagonal: with ``stop == len(a)`` this is an LU factorization, otherwise
    the trailing block becomes the Schur complement of the leading one.
    Returns the row permutation; ``names[k]`` names column k in errors.
    """
    n = len(a)
    perm = list(range(n))
    for k in range(stop):
        best = -1
        best_bits = 0
        for i in range(k, stop):
            p = a[i][k]
            if p:
                b = _bits(p)
                if best < 0 or b < best_bits:
                    best, best_bits = i, b
        if best < 0:
            raise SingularSystemError(
                f"no usable pivot while eliminating vertex {names[k]}"
            )
        if best != k:
            a[k], a[best] = a[best], a[k]
            perm[k], perm[best] = perm[best], perm[k]
        piv = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            f = a[i][k]
            if not f:
                continue
            mult = f / piv
            a[i][k] = mult
            row_i = a[i]
            for j in range(k + 1, n):
                x = row_k[j]
                if x:
                    row_i[j] -= mult * x
    return perm


def _kron_reduce(lap, keep) -> list[list[Fraction]]:
    """Kron reduction of ``lap`` onto indices ``keep``, rows in ``keep`` order."""
    kept = set(keep)
    order = [x for x in range(len(lap)) if x not in kept] + list(keep)
    a = [[lap[r][c] for c in order] for r in order]
    stop = len(order) - len(keep)
    _eliminate(a, stop, order)
    return [row[stop:] for row in a[stop:]]


class GroundedSystem:
    """LU factorization of the conductance matrix with one vertex grounded."""

    def __init__(self, net: ResistorNetwork, ground: int):
        if ground not in net._adj:
            raise MalformedNetworkError(f"unknown ground vertex {ground}")
        self.ground = ground
        self.order = tuple(v for v in net.vertices if v != ground)
        self.index = {v: i for i, v in enumerate(self.order)}
        gi = net.vertices.index(ground)
        lap = build_laplacian(net, exact=True)
        a = [row[:gi] + row[gi + 1 :] for i, row in enumerate(lap) if i != gi]
        self._perm = _eliminate(a, len(a), self.order)
        self._lu = a

    def solve(self, rhs: dict[int, Fraction]) -> dict[int, Fraction]:
        """Solve for node potentials; rhs and result are keyed by vertex id.

        The ground vertex is held at potential zero and must not appear in
        the rhs.
        """
        lu = self._lu
        n = len(lu)
        b = [_ZERO] * n
        for v, val in rhs.items():
            b[self.index[v]] = val
        b = [b[p] for p in self._perm]
        for k in range(n):
            bk = b[k]
            if not bk:
                continue
            for i in range(k + 1, n):
                f = lu[i][k]
                if f:
                    b[i] -= f * bk
        for k in range(n - 1, -1, -1):
            row = lu[k]
            acc = b[k]
            for j in range(k + 1, n):
                x = b[j]
                if x:
                    acc -= row[j] * x
            b[k] = acc / row[k]
        return {v: b[i] for v, i in self.index.items()}


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

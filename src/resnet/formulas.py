"""Closed-form resistances for structured families.

Everything here is a direct formula evaluation: no linear solves, no graph
walks. The spectral-sum formulas take precomputed factor spectra so callers
can amortize them across many pairs. Towers, ladders and fans share one
path-block recurrence, ``_tower_values``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .spectra import Spectrum

__all__ = [
    "LadderConstants",
    "LADDER",
    "kmn_resistance",
    "join_resistance",
    "cone_resistance",
    "ladder_endpoint_resistance",
    "ladder_gap",
    "hypercube_diameter",
    "block_tower_decomposition",
    "DecompositionReport",
]


@dataclass(frozen=True)
class LadderConstants:
    """Growth constants of the two-rail ladder recurrences.

    ``a`` and ``b`` are the roots of x**2 - 4x + 1 = 0; their product is 1,
    so b == 1/a == alpha.
    """

    alpha: float = 2.0 - math.sqrt(3.0)
    a: float = 2.0 + math.sqrt(3.0)
    b: float = 2.0 - math.sqrt(3.0)


LADDER = LadderConstants()


def kmn_resistance(m: int, n: int, side_u: str, side_v: str) -> Fraction:
    """Resistance in the unit complete bipartite network on m + n vertices.

    ``side_u`` and ``side_v`` name the parts ("x" for the m-side, "y" for
    the n-side) holding the two distinct vertices. Only the sides matter;
    the network is transitive within each part.
    """
    if m < 1 or n < 1:
        raise ValueError("both sides need at least one vertex")
    sides = (side_u, side_v)
    if any(s not in ("x", "y") for s in sides):
        raise ValueError("sides must be 'x' or 'y'")
    if sides == ("x", "x"):
        if m < 2:
            raise ValueError("two distinct x-side vertices need m >= 2")
        return Fraction(2, n)
    if sides == ("y", "y"):
        if n < 2:
            raise ValueError("two distinct y-side vertices need n >= 2")
        return Fraction(2, m)
    return Fraction(m + n - 1, m * n)


def join_resistance(sg: Spectrum, sh: Spectrum, u: int, v: int) -> float:
    """Resistance in the join of two networks from their factor spectra.

    The join adds a unit edge between every vertex of the first network
    (ids 0..n-1) and every vertex of the second (ids n..n+m-1). Vertex ids
    follow that shifted numbering. Spectra must carry the rotated basis in
    which the constant vector sits last; disconnected factors are fine
    because every factor eigenvalue is shifted by the other side's order.
    """
    n, m = sg.n, sh.n
    total = n + m
    if not (0 <= u < total and 0 <= v < total):
        raise ValueError(f"vertex ids must lie in [0, {total})")
    if u == v:
        return 0.0
    gu, gv = u < n, v < n
    if gu and gv:
        diffs = sg.vectors[:-1, u] - sg.vectors[:-1, v]
        return float(((diffs * diffs) / (sg.values[:-1] + m)).sum())
    if not gu and not gv:
        diffs = sh.vectors[:-1, u - n] - sh.vectors[:-1, v - n]
        return float(((diffs * diffs) / (sh.values[:-1] + n)).sum())
    if not gu:
        u, v = v, u
    x, w = u, v - n
    gpart = ((sg.vectors[:-1, x] ** 2) / (sg.values[:-1] + m)).sum()
    hpart = ((sh.vectors[:-1, w] ** 2) / (sh.values[:-1] + n)).sum()
    return float(gpart + hpart + 1.0 / (n * m))


def cone_resistance(sg: Spectrum, m: int, u: int, v: int) -> float:
    """Resistance in the cone over a network, each apex edge of
    resistance 1/m, from the base spectrum.

    Base vertices keep ids 0..n-1; the apex is vertex n. The cone over a
    base on n vertices behaves exactly like joining the base with a single
    m-fold-conductance hub, which shifts every base eigenvalue by m.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m <= 1:
        raise ValueError("cone strength m must be an integer greater than 1")
    n = sg.n
    if not (0 <= u <= n and 0 <= v <= n):
        raise ValueError(f"vertex ids must lie in [0, {n}]")
    if u == v:
        return 0.0
    if u == n or v == n:
        x = v if u == n else u
        base = ((sg.vectors[:-1, x] ** 2) / (sg.values[:-1] + m)).sum()
        return float(base + 1.0 / (n * m))
    diffs = sg.vectors[:-1, u] - sg.vectors[:-1, v]
    return float(((diffs * diffs) / (sg.values[:-1] + m)).sum())


def ladder_endpoint_resistance(n: int) -> float:
    """Diagonal corner-to-corner resistance of the n-rung unit ladder.

    The ladder is the product of an n-vertex path with a single rung edge;
    the value grows like (n - 1)/2 plus a correction that settles toward a
    constant as the alternating alpha powers die out.
    """
    if n < 2:
        raise ValueError("the ladder needs at least two rungs")
    al = LADDER.alpha
    top = (1.0 + al ** (n - 1)) * (2.0 + 2.0 * al ** (n + 1) + 2.0 * al**n + 2.0 * al)
    bottom = 4.0 * math.sqrt(3.0) * (1.0 - al ** (2 * n))
    return (n - 1) / 2.0 + top / bottom


def ladder_gap(n: int) -> float:
    """How much farther the diagonal corner pair of the n-rung ladder is
    than the same-rail corner pair.

    Equals 2*sqrt(3)/(a**n - b**n): strictly positive, strictly
    decreasing, and geometrically small in n.
    """
    if n < 2:
        raise ValueError("the ladder needs at least two rungs")
    return 2.0 * math.sqrt(3.0) / (LADDER.a**n - LADDER.b**n)


def hypercube_diameter(k: int) -> Fraction:
    """Largest resistance in the unit k-cube: between antipodal corners.

    Exact value sum_{i=1..k} (k-i)! (i-1)! / k!, from peeling the cube
    into distance layers.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("dimension k must be a positive integer")
    kf = math.factorial(k)
    return sum(
        Fraction(math.factorial(k - i) * math.factorial(i - 1), kf)
        for i in range(1, k + 1)
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Corner resistance of the square tower split into its two parts."""

    n: int
    lhs: Fraction
    ladder_part: Fraction
    fan_part: Fraction
    rhs: Fraction

    @property
    def residual(self) -> Fraction:
        return self.lhs - self.rhs


def block_tower_decomposition(n: int) -> DecompositionReport:
    """Split the square tower's diagonal corner resistance.

    The tower of n stacked unit squares (path times 4-cycle) satisfies

        R_tower(corner, far corner) =
            R_ladder(corner, far corner) + R_fan(end, end)/4 - (n - 1)/4

    where the fan has n path vertices and strength 4. C_4 is Q_2 with the
    corners antipodal and the rung is Q_1, so all three come from
    ``_tower_values`` in rationals and the residual is an exact zero.
    """
    if n < 2:
        raise ValueError("the tower needs n >= 2 levels")
    lhs = _tower_values(_cube_modes(2, 2), Fraction(1, 4), n)[0][-1]
    lpart = _tower_values(_cube_modes(1, 1), Fraction(1, 2), n)[0][-1]
    fpart = _tower_values([(Fraction(4), 2, 1)], 0, n)[0][-1]
    rhs = lpart + fpart / 4 - Fraction(n - 1, 4)
    return DecompositionReport(n=n, lhs=lhs, ladder_part=lpart, fan_part=fpart, rhs=rhs)


def _cube_modes(k: int, d: int) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
    """Modes of Q_k for a pair at Hamming distance d: mu = 2q, projector
    diagonal C(k, q)/2**k and entry K_q(d)/2**k (Krawtchouk), q = 1..k."""
    side = 2**k
    for q in range(1, k + 1):
        kq = sum((-1) ** s * comb(d, s) * comb(k - d, q - s) for s in range(q + 1))
        yield Fraction(2 * q), Fraction(2 * comb(k, q), side), Fraction(kq, side)


def _tower_values(modes, unit, n_max: int) -> tuple[list, list]:
    """R_n of a tower P_n x H for n = 2..n_max, one path block per mode of H,
    and the steps R_{n+1} - R_n - unit for n = 2..n_max-1.

    Each nonzero eigenvalue mu of H adds the block L_P + mu*I, the grounded
    Laplacian of the fan of strength mu, to L(P_n x H) = L_P (x) I + I (x) L_H.
    A mode is (mu, w, wxy): w = P(x,x) + P(y,y), wxy = P(x,y) for mu's
    eigenprojector P; unit is 1/|V(H)|. With a_0 = 1, a_1 = 1 + mu,
    a_{l+1} = (2 + mu) a_l - a_{l-1}, a = a_{n-1}, c = a/a_{n-2} and
    den = 1 + mu - 1/c, R_n = (n-1)*unit + sum (w - 2*wxy/a) / den; steps are
    summed from each mode's dc = c' - c, so floats keep their digits. A float
    a overflows to inf at great heights, which takes its terms to 0.
    """
    state = [[mu, w, wxy, 1 + mu, 1 + mu, mu / (1 + mu), 1 + mu - 1 / (1 + mu)]
             for mu, w, wxy in modes]
    values, steps = [], []
    for n in range(2, n_max + 1):
        total = (n - 1) * unit
        step = 0
        for mode in state:
            mu, w, wxy, c, a, dc, den = mode
            term = (w - 2 * wxy / a) / den
            total += term
            c2 = 2 + mu - 1 / c
            den2 = 1 + mu - 1 / c2
            dc = dc / (c * c2)
            a2 = a * c2
            # w*(g' - g) - 2*wxy*(g'/a' - g/a) with g = 1/den, g' - g = -dc*g*g'
            step += (2 * wxy * den / a2 - dc * term) / den2
            mode[3:] = c2, a2, dc, den2
        values.append(total)
        steps.append(step)
    return values, steps[:-1]

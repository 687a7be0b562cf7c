"""Weighted resistor networks as immutable values.

A network is a multigraph whose edges carry resistances. Vertex ids are
nonnegative integers, kept as given: builders number ``0..n-1``, the parser
keeps a file's ids, and reductions may leave holes. Row ``k`` of any matrix or
spectrum is ``vertices[k]`` (sorted ids); ``index`` maps an id to its row.
Weights are exact ``fractions.Fraction`` values wherever possible. Floats are
tolerated so spectral code can consume measured data, but they are never
silently converted back to rationals and the exact solver refuses them.

Negative resistances model substitution gadgets and must be flagged
``gadget=True`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import MalformedNetworkError, ParseError

__all__ = [
    "Edge",
    "ResistorNetwork",
    "build_laplacian",
    "parse_network",
    "render_network",
    "path",
    "cycle",
    "clique2",
    "empty_network",
    "complete_bipartite",
    "hypercube",
    "cartesian_product",
    "cone",
    "join",
    "ladder",
    "block_tower",
    "fan",
]


def _as_weight(r):
    if isinstance(r, bool):
        raise MalformedNetworkError(f"bad resistance {r!r}")
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, Fraction) or (isinstance(r, float) and np.isfinite(r)):
        return r
    raise MalformedNetworkError(f"bad resistance {r!r}")


@dataclass(frozen=True)
class Edge:
    """One resistor between vertices ``u`` and ``v`` (stored with u < v)."""

    u: int
    v: int
    r: Fraction | float
    gadget: bool = False

    def __post_init__(self):
        u, v = self.u, self.v
        if not isinstance(u, int) or not isinstance(v, int) or u < 0 or v < 0:
            raise MalformedNetworkError(f"bad endpoints ({u!r}, {v!r})")
        if u == v:
            raise MalformedNetworkError(f"self-loop at vertex {u}")
        if u > v:
            object.__setattr__(self, "u", v)
            object.__setattr__(self, "v", u)
        object.__setattr__(self, "r", _as_weight(self.r))
        if self.r == 0:
            raise MalformedNetworkError(f"zero resistance on edge [{u}, {v}]")
        if self.r < 0 and not self.gadget:
            raise MalformedNetworkError(
                f"negative resistance on edge [{u}, {v}] requires gadget=True"
            )

    @property
    def conductance(self):
        return 1 / self.r

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


def _coerce_edge(spec) -> Edge:
    if isinstance(spec, Edge):
        return spec
    u, v, r, *rest = spec
    gadget = bool(rest[0]) if rest else False
    return Edge(u, v, r, gadget)


@dataclass(frozen=True)
class ResistorNetwork:
    """Immutable weighted multigraph.

    ``vertices`` is a sorted tuple of ids, ``edges`` a tuple of ``Edge``
    records, ``labels`` an optional id -> name table (names unique, no
    whitespace). Resistance queries additionally require connectivity; that
    is checked at query time, not here.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...] = ()
    labels: dict[int, str] | None = None

    def __post_init__(self):
        verts = tuple(sorted(set(self.vertices)))
        if not verts:
            raise MalformedNetworkError("network needs at least one vertex")
        if any(not isinstance(v, int) or v < 0 for v in verts):
            raise MalformedNetworkError("vertex ids must be nonnegative integers")
        object.__setattr__(self, "vertices", verts)
        edges = tuple(_coerce_edge(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        vset = set(verts)
        for e in edges:
            if e.u not in vset or e.v not in vset:
                raise MalformedNetworkError(
                    f"edge [{e.u}, {e.v}] references an undeclared vertex"
                )
        if self.labels is not None:
            labels = dict(self.labels)
            for v, name in labels.items():
                if v not in vset:
                    raise MalformedNetworkError(f"label for unknown vertex {v}")
                if not name or any(ch.isspace() for ch in name):
                    raise MalformedNetworkError(f"bad label {name!r}")
            if len(set(labels.values())) != len(labels):
                raise MalformedNetworkError("labels must be unique")
            object.__setattr__(self, "labels", labels)

    @classmethod
    def build(cls, vertices, edges, labels=None) -> "ResistorNetwork":
        """Construct from a vertex count or id iterable plus edge specs.

        Edge specs are ``Edge`` instances or ``(u, v, r)`` /
        ``(u, v, r, gadget)`` tuples.
        """
        if isinstance(vertices, int):
            vertices = range(vertices)
        return cls(tuple(vertices), tuple(_coerce_edge(e) for e in edges), labels)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def __repr__(self):
        return f"<ResistorNetwork n={self.n} edges={len(self.edges)}>"

    @cached_property
    def _adj(self) -> dict[int, tuple[Edge, ...]]:
        adj: dict[int, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        return {v: tuple(es) for v, es in adj.items()}

    def incident(self, v: int) -> tuple[Edge, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted({e.other(v) for e in self._adj[v]}))

    def edges_between(self, u: int, v: int) -> tuple[Edge, ...]:
        if u > v:
            u, v = v, u
        return tuple(e for e in self._adj.get(u, ()) if e.u == u and e.v == v)

    def is_connected(self) -> bool:
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    @property
    def all_rational(self) -> bool:
        return all(isinstance(e.r, Fraction) for e in self.edges)

    @cached_property
    def index(self) -> dict[int, int]:
        """Row of each vertex id in any matrix or spectrum of this network."""
        return {v: k for k, v in enumerate(self.vertices)}

    def label_of(self, v: int) -> str:
        if self.labels and v in self.labels:
            return self.labels[v]
        return str(v)

    def find_label(self, name: str) -> int:
        if self.labels:
            for v, lab in self.labels.items():
                if lab == name:
                    return v
        raise KeyError(name)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def path(n: int) -> ResistorNetwork:
    """Unit-resistance path on vertices a1..an (ids 0..n-1)."""
    if n < 1:
        raise MalformedNetworkError("path needs n >= 1")
    edges = [(i, i + 1, 1) for i in range(n - 1)]
    return ResistorNetwork.build(n, edges, {i: f"a{i + 1}" for i in range(n)})


def cycle(n: int) -> ResistorNetwork:
    """Unit-resistance cycle b1..bn; n = 2 yields a doubled edge."""
    if n < 2:
        raise MalformedNetworkError("cycle needs n >= 2")
    edges = [(i, (i + 1) % n, 1) for i in range(n)]
    return ResistorNetwork.build(n, edges, {i: f"b{i + 1}" for i in range(n)})


def clique2() -> ResistorNetwork:
    """Single unit resistor c1c2."""
    return ResistorNetwork.build(2, [(0, 1, 1)], {0: "c1", 1: "c2"})


def empty_network(n: int) -> ResistorNetwork:
    """n isolated vertices (useful as a join factor)."""
    if n < 1:
        raise MalformedNetworkError("empty_network needs n >= 1")
    return ResistorNetwork.build(n, [])


def complete_bipartite(m: int, n: int) -> ResistorNetwork:
    """Unit-resistance K_{m,n}: x-side ids 0..m-1, y-side ids m..m+n-1."""
    if m < 1 or n < 1:
        raise MalformedNetworkError("complete_bipartite needs m, n >= 1")
    edges = [(i, m + j, 1) for i in range(m) for j in range(n)]
    labels = {i: f"x{i + 1}" for i in range(m)}
    labels.update({m + j: f"y{j + 1}" for j in range(n)})
    return ResistorNetwork.build(m + n, edges, labels)


def _positional_edges(g: ResistorNetwork, shift: int = 0) -> list[Edge]:
    """g's edges moved to their rows plus ``shift``; an edge already there is
    reused, not validated again."""
    row = g.index
    out = ((e, row[e.u] + shift, row[e.v] + shift) for e in g.edges)
    return [Edge(u, v, e.r, e.gadget) if u != e.u or v != e.v else e for e, u, v in out]


def cartesian_product(g: ResistorNetwork, h: ResistorNetwork) -> ResistorNetwork:
    """Cartesian product; vertex (u, x) gets id u * |V(h)| + x (row-major).

    u and x are the factors' rows (``index``), whatever their ids. Each
    g-edge is copied into every h-layer and vice versa, keeping its
    resistance, so degrees add and edge counts are
    |E(g)|*|V(h)| + |E(h)|*|V(g)|.
    """
    m = h.n
    row, h_edges = g.index, _positional_edges(h)
    edges = []
    for e in g.edges:
        u, v = row[e.u] * m, row[e.v] * m
        for x in range(m):
            edges.append(Edge(u + x, v + x, e.r, e.gadget))
    for u in range(g.n):
        for e in h_edges:
            edges.append(Edge(u * m + e.u, u * m + e.v, e.r, e.gadget))
    labels = None
    if g.labels or h.labels:
        labels = {
            u * m + x: f"({g.label_of(a)},{h.label_of(b)})"
            for u, a in enumerate(g.vertices)
            for x, b in enumerate(h.vertices)
        }
    return ResistorNetwork.build(g.n * m, edges, labels)


def cone(g: ResistorNetwork, m: int) -> ResistorNetwork:
    """Attach an apex joined to every vertex of g by an edge of resistance 1/m.

    g's vertices take their rows as ids; the apex gets id n and label "b".
    m must be an integer larger than 1; the apex-edge RESISTANCE is 1/m (so
    n parallel routes through the apex between two g-vertices carry total
    conductance proportional to m).
    """
    if not isinstance(m, int) or m <= 1:
        raise MalformedNetworkError("cone needs an integer m > 1")
    apex = g.n
    edges = _positional_edges(g) + [Edge(u, apex, Fraction(1, m)) for u in range(g.n)]
    labels = None
    if g.labels is not None:
        labels = {g.index[v]: name for v, name in g.labels.items()}
        name = "b"
        while name in labels.values():
            name += "'"
        labels[apex] = name
    return ResistorNetwork.build(g.n + 1, edges, labels)


def join(g: ResistorNetwork, h: ResistorNetwork) -> ResistorNetwork:
    """Disjoint union plus all unit cross edges; h-side ids shift by |V(g)|.

    Ids are the factors' rows (``index``). The h side is relabelled w1..wm
    so label tables never collide.
    """
    off = g.n
    edges = _positional_edges(g) + _positional_edges(h, off)
    edges += [Edge(u, off + x, 1) for u in range(g.n) for x in range(h.n)]
    labels = None
    if g.labels is not None or h.labels is not None:
        labels = {u: g.label_of(v) for u, v in enumerate(g.vertices)}
        labels.update({off + x: f"w{x + 1}" for x in range(h.n)})
    return ResistorNetwork.build(g.n + h.n, edges, labels)


def hypercube(k: int) -> ResistorNetwork:
    """Unit-resistance k-cube; vertex ids read the coordinate string as binary.

    Built as repeated products with a single edge, then labelled b1..b_{2^k}.
    Vertex 0 and 2^k - 1 form an antipodal pair.
    """
    if k < 1:
        raise MalformedNetworkError("hypercube needs k >= 1")
    q = clique2()
    for _ in range(k - 1):
        q = cartesian_product(q, clique2())
    return ResistorNetwork.build(
        q.n, q.edges, {v: f"b{v + 1}" for v in range(q.n)}
    )


def ladder(n: int) -> ResistorNetwork:
    """Product of a path with a single edge: labels (ai,cj)."""
    if n < 1:
        raise MalformedNetworkError("ladder needs n >= 1")
    return cartesian_product(path(n), clique2())


def block_tower(n: int) -> ResistorNetwork:
    """Product of a path with a 4-cycle: labels (ai,bj)."""
    if n < 1:
        raise MalformedNetworkError("block_tower needs n >= 1")
    return cartesian_product(path(n), cycle(4))


def fan(n: int, m: int) -> ResistorNetwork:
    """Cone over a path: path a1..an plus apex b on 1/m resistors."""
    return cone(path(n), m)


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------

def build_laplacian(net: ResistorNetwork):
    """Weighted Laplacian as a float ndarray, conductances 1/r; parallel
    edges accumulate. Row order follows ``net.index``."""
    idx = net.index
    n = net.n
    lap = np.zeros((n, n))
    for e in net.edges:
        g = 1.0 / float(e.r)
        i, j = idx[e.u], idx[e.v]
        lap[i, i] += g
        lap[j, j] += g
        lap[i, j] -= g
        lap[j, i] -= g
    return lap


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------

def _parse_weight(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad resistance {token!r}", lineno) from None


def _parse_id(token: str, lineno: int) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"bad vertex id {token!r}", lineno)
    return int(token)


def parse_network(text) -> ResistorNetwork:
    """Parse the edge-list format.

    One record per line: ``u v r [gadget]`` with ``r`` a decimal or ``p/q``
    rational, or ``node ID LABEL`` to declare a labelled vertex. ``#``
    starts a comment and blank lines are ignored. Ids and labels are kept as
    written, holes included.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    declared: dict[int, str] = {}
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "node":
            if len(tok) != 3:
                raise ParseError("node record needs 'node ID LABEL'", lineno)
            vid = _parse_id(tok[1], lineno)
            if vid in declared:
                raise ParseError(f"duplicate vertex declaration for {vid}", lineno)
            declared[vid] = tok[2]
            continue
        if len(tok) not in (3, 4):
            raise ParseError(f"expected 'u v r [gadget]', got {line!r}", lineno)
        u = _parse_id(tok[0], lineno)
        v = _parse_id(tok[1], lineno)
        r = _parse_weight(tok[2], lineno)
        gadget = False
        if len(tok) == 4:
            if tok[3] != "gadget":
                raise ParseError(f"unknown flag {tok[3]!r}", lineno)
            gadget = True
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        if r == 0:
            raise ParseError(f"zero resistance on edge [{u}, {v}]", lineno)
        if r < 0 and not gadget:
            raise ParseError(
                f"negative resistance on edge [{u}, {v}] without gadget flag", lineno
            )
        edges.append(Edge(u, v, r, gadget))
    ids = {*declared, *(w for e in edges for w in (e.u, e.v))}
    if not ids:
        raise ParseError("empty network", None)
    return ResistorNetwork.build(ids, edges, declared or None)


def _weight_str(r) -> str:
    if isinstance(r, float):
        r = Fraction(r)  # exact binary expansion, lossless round trip
    return str(r)


def render_network(net: ResistorNetwork) -> str:
    """Inverse of parse_network; rationals are written exactly as p/q."""
    lines = []
    if net.labels:
        for v in sorted(net.labels):
            lines.append(f"node {v} {net.labels[v]}")
    for e in net.edges:
        flag = " gadget" if e.gadget else ""
        lines.append(f"{e.u} {e.v} {_weight_str(e.r)}{flag}")
    return "\n".join(lines) + "\n"

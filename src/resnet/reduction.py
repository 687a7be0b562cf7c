"""Terminal-preserving network rewrites with replayable traces.

Every rewrite returns a ``ReductionStep`` describing exactly which vertices
and edges it removes and adds; ``apply_step`` replays a step against the
network it was derived from. Steps never renumber surviving vertices, so
terminal ids stay valid across a whole trace.

The delta-to-star convention: for a triangle on corners (u, v, w), the new
star arm at a corner equals the product of the two triangle edges meeting at
that corner divided by the perimeter sum. With r1 = r(u, v), r2 = r(v, w),
r3 = r(u, w) that is r_u = r1*r3/s, r_v = r1*r2/s, r_w = r2*r3/s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ReductionError
from .exact import _conductances, _eliminate, _subset_table
from .network import Edge, ResistorNetwork, _weight_str, fan

__all__ = [
    "ReductionStep",
    "ReductionTrace",
    "FanChainReduction",
    "apply_step",
    "series_reduce",
    "parallel_reduce",
    "delta_y",
    "eliminate_block",
    "substitute_bipartite_star",
    "greedy_reduce",
    "fan_chain_reduce",
    "terminal_table",
    "trace_to_json",
    "trace_to_text",
]


@dataclass(frozen=True)
class ReductionStep:
    """Delta between two networks: apply to the pre-network to get the post."""

    kind: str
    removed_vertices: tuple[int, ...] = ()
    added_vertices: tuple[int, ...] = ()
    removed_edges: tuple[Edge, ...] = ()
    added_edges: tuple[Edge, ...] = ()
    added_labels: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class ReductionTrace:
    """A reduction run: initial network, steps, final network.

    ``certificates``, when requested, holds the terminal-resistance table
    of every network the run passed through (len(steps) + 1 tables). They
    are one table: it is solved on the initial network and checked on the
    final one, and each step in between is proved to change no resistance.
    """

    initial: ResistorNetwork
    steps: tuple[ReductionStep, ...]
    final: ResistorNetwork
    certificates: tuple[dict, ...] | None = None

    def replay(self) -> ResistorNetwork:
        net = self.initial
        for step in self.steps:
            net = apply_step(net, step)
        return net


def apply_step(net: ResistorNetwork, step: ReductionStep) -> ResistorNetwork:
    """Replay one step. Raises if the step does not match the network."""
    edges = list(net.edges)
    for e in step.removed_edges:
        try:
            edges.remove(e)
        except ValueError:
            raise ReductionError(f"step removes absent edge {e}") from None
    vset = set(net.vertices)
    for v in step.removed_vertices:
        if v not in vset:
            raise ReductionError(f"step removes absent vertex {v}")
        vset.remove(v)
    for v in step.added_vertices:
        if v in vset:
            raise ReductionError(f"step adds existing vertex {v}")
        vset.add(v)
    edges.extend(step.added_edges)
    labels = None
    if net.labels is not None or step.added_labels:
        labels = {
            v: name for v, name in (net.labels or {}).items() if v in vset
        }
        labels.update(step.added_labels)
        labels = labels or None
    return ResistorNetwork(tuple(sorted(vset)), tuple(edges), labels)


def _fresh_id(net: ResistorNetwork) -> int:
    return net.vertices[-1] + 1


# ---------------------------------------------------------------------------
# single rewrites
# ---------------------------------------------------------------------------

def series_reduce(net, mid: int, terminals=frozenset()) -> ReductionStep:
    """Merge the two resistors meeting at a degree-2 non-terminal vertex."""
    if mid in terminals:
        raise ReductionError(f"vertex {mid} is a terminal")
    inc = net.incident(mid)
    if len(inc) != 2:
        raise ReductionError(f"vertex {mid} has degree {len(inc)}, not 2")
    e1, e2 = inc
    a, b = e1.other(mid), e2.other(mid)
    if a == b:
        raise ReductionError(
            f"edges at {mid} are parallel; use parallel_reduce first"
        )
    r = e1.r + e2.r
    if r == 0:
        raise ReductionError(
            f"series of [{a}, {mid}] and [{mid}, {b}] cancels to zero resistance"
        )
    return ReductionStep(
        kind="series",
        removed_vertices=(mid,),
        removed_edges=(e1, e2),
        added_edges=(Edge(a, b, r, gadget=r < 0),),
    )


def parallel_reduce(net, u: int, v: int) -> ReductionStep:
    """Collapse all edges between u and v into one."""
    bundle = net.edges_between(u, v)
    if len(bundle) < 2:
        raise ReductionError(f"fewer than two edges between {u} and {v}")
    g = sum((1 / e.r for e in bundle), Fraction(0) if all(
        isinstance(e.r, Fraction) for e in bundle) else 0.0)
    if g == 0:
        raise ReductionError(
            f"parallel conductances between {u} and {v} cancel; not reducible"
        )
    r = 1 / g
    return ReductionStep(
        kind="parallel",
        removed_edges=bundle,
        added_edges=(Edge(u, v, r, gadget=r < 0),),
    )


def _single_edge(net, u, v) -> Edge:
    bundle = net.edges_between(u, v)
    if len(bundle) == 0:
        raise ReductionError(f"no edge between {u} and {v}")
    if len(bundle) > 1:
        raise ReductionError(
            f"parallel edges between {u} and {v}; use parallel_reduce first"
        )
    return bundle[0]


def delta_y(net, triangle, center_label: str | None = None) -> ReductionStep:
    """Replace a triangle by a star on a fresh center vertex.

    Arm values follow the product-over-perimeter rule in the module
    docstring, which keeps each corner pair's resistance unchanged.
    """
    u, v, w = triangle
    if len({u, v, w}) != 3:
        raise ReductionError(f"triangle corners must be distinct, got {triangle}")
    e_uv = _single_edge(net, u, v)
    e_vw = _single_edge(net, v, w)
    e_uw = _single_edge(net, u, w)
    s = e_uv.r + e_vw.r + e_uw.r
    if s == 0:
        raise ReductionError(
            f"triangle ({u}, {v}, {w}) has zero perimeter resistance"
        )
    c = _fresh_id(net)
    r_u = e_uv.r * e_uw.r / s
    r_v = e_uv.r * e_vw.r / s
    r_w = e_vw.r * e_uw.r / s
    added = tuple(
        Edge(x, c, r, gadget=r < 0)
        for x, r in ((u, r_u), (v, r_v), (w, r_w))
        if r != 0
    )
    if len(added) != 3:
        raise ReductionError(
            f"delta-to-star on ({u}, {v}, {w}) would create a zero-resistance arm"
        )
    return ReductionStep(
        kind="delta_y",
        added_vertices=(c,),
        removed_edges=(e_uv, e_vw, e_uw),
        added_edges=added,
        added_labels=((c, center_label),) if center_label else (),
    )


def _blocks_and_cuts(net: ResistorNetwork):
    """Biconnected components (vertex sets) and cut vertices.

    Edge multiplicity affects neither, so the walk runs on the simple
    projection of the multigraph.
    """
    adj = {v: net.neighbors(v) for v in net.vertices}
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int] = {}
    blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
    counter = 0
    for root in net.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = counter
        counter += 1
        root_children = 0
        stack = [(root, iter(adj[root]))]
        estack: list[tuple[int, int]] = []
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w not in disc:
                    parent[w] = v
                    estack.append((v, w))
                    disc[w] = low[w] = counter
                    counter += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w != parent.get(v) and disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                comp = set()
                while estack:
                    e = estack.pop()
                    comp.add(e[0])
                    comp.add(e[1])
                    if e == (u, v):
                        break
                if comp:
                    blocks.append(frozenset(comp))
                if u != root:
                    cuts.add(u)
        if root_children >= 2:
            cuts.add(root)
    return blocks, cuts


def eligible_blocks(net, terminals=frozenset()):
    """Blocks hanging off a single cut vertex and free of other terminals."""
    terminals = frozenset(terminals)
    blocks, cuts = _blocks_and_cuts(net)
    out = []
    for b in blocks:
        bc = b & cuts
        if len(bc) != 1:
            continue
        (x,) = bc
        if (b - {x}) & terminals:
            continue
        out.append((tuple(sorted(b)), x))
    out.sort()
    return out


def eliminate_block(net, terminals=frozenset()) -> ReductionStep:
    """Delete one pendant block, keeping its cut vertex.

    A block is eligible when it meets the rest of the network in exactly one
    cut vertex and contains no terminal besides possibly that vertex.
    Resistances between surviving vertices are unaffected.
    """
    candidates = eligible_blocks(net, terminals)
    if not candidates:
        raise ReductionError("no eligible block to eliminate")
    bverts, x = candidates[0]
    doomed = set(bverts) - {x}
    removed_edges = tuple(
        e for e in net.edges if e.u in doomed or e.v in doomed
    )
    return ReductionStep(
        kind="eliminate_block",
        removed_vertices=tuple(sorted(doomed)),
        removed_edges=removed_edges,
    )


def substitute_bipartite_star(net, xs, ys) -> ReductionStep:
    """Swap a complete bipartite unit block for its two-hub gadget.

    The m*n unit edges between X and Y are replaced by hubs x0, y0 with
    edges [x0, x_i] of resistance 1/n, [y0, y_j] of resistance 1/m and a
    negative bridge [x0, y0] of resistance -1/(m*n). The replacement is
    equivalent on X union Y, trading edge count m*n for m + n + 1.
    """
    xs = tuple(sorted(set(xs)))
    ys = tuple(sorted(set(ys)))
    if not xs or not ys:
        raise ReductionError("both sides of the bipartition must be nonempty")
    if set(xs) & set(ys):
        raise ReductionError("bipartition sides overlap")
    vset = set(net.vertices)
    if not (set(xs) <= vset and set(ys) <= vset):
        raise ReductionError("bipartition references unknown vertices")
    m, n = len(xs), len(ys)
    both = set(xs) | set(ys)
    induced = [e for e in net.edges if e.u in both and e.v in both]
    want = {(min(x, y), max(x, y)) for x in xs for y in ys}
    got = {(e.u, e.v) for e in induced}
    if got != want or len(induced) != m * n or any(e.r != 1 for e in induced):
        raise ReductionError(
            "induced subnetwork is not a unit-resistance complete bipartite graph"
        )
    x0 = _fresh_id(net)
    y0 = x0 + 1
    added = [Edge(x, x0, Fraction(1, n)) for x in xs]
    added += [Edge(y, y0, Fraction(1, m)) for y in ys]
    added.append(Edge(x0, y0, Fraction(-1, m * n), gadget=True))
    return ReductionStep(
        kind="substitute_bipartite",
        added_vertices=(x0, y0),
        removed_edges=tuple(induced),
        added_edges=tuple(added),
    )


# ---------------------------------------------------------------------------
# driving loops
# ---------------------------------------------------------------------------

def terminal_table(net, terminals) -> dict:
    """Exact pairwise resistances over the terminal set."""
    return _subset_table(net, tuple(sorted(terminals)))


def _step_holds(step: ReductionStep) -> bool:
    """Whether ``step`` keeps every resistance: by the principle of
    substitution, when its removed and its added edges, each Kron-reduced
    onto the vertices they touch that the step neither removes nor adds,
    give the same conductances."""
    inner = {*step.removed_vertices, *step.added_vertices}
    touched = {x for e in step.removed_edges + step.added_edges for x in (e.u, e.v)}
    sides = []
    for verts, edges in ((step.removed_vertices, step.removed_edges),
                         (step.added_vertices, step.added_edges)):
        g = _conductances((touched - inner).union(verts), edges)
        _eliminate(g, verts)
        sides.append(g)
    return sides[0] == sides[1]


class _Run:
    """The network a run started from, the one it is at, and the steps."""

    def __init__(self, start: ResistorNetwork):
        self.start = self.cur = start
        self.steps = []

    def apply(self, step: ReductionStep) -> None:
        self.cur = apply_step(self.cur, step)
        self.steps.append(step)

    def trace(self, terminals, certify: bool) -> ReductionTrace:
        tables = None
        if certify:
            first = terminal_table(self.start, terminals)
            for i, step in enumerate(self.steps, start=1):
                if not _step_holds(step):
                    raise ReductionError(f"step {i} ({step.kind}) changes a resistance")
            if terminal_table(self.cur, terminals) != first:
                raise ReductionError("the final network changes a resistance")
            tables = (first,) * (len(self.steps) + 1)
        return ReductionTrace(self.start, tuple(self.steps), self.cur, tables)


def _next_step(net, terminals, use_delta_y):
    seen_pairs = sorted({(e.u, e.v) for e in net.edges})
    for u, v in seen_pairs:
        if len(net.edges_between(u, v)) >= 2:
            try:
                return parallel_reduce(net, u, v)
            except ReductionError:
                continue
    for v in net.vertices:
        if v in terminals or net.degree(v) != 2:
            continue
        try:
            return series_reduce(net, v, terminals)
        except ReductionError:
            continue
    try:
        return eliminate_block(net, terminals)
    except ReductionError:
        pass
    if use_delta_y:
        verts = net.vertices
        for i, u in enumerate(verts):
            nu = [w for w in net.neighbors(u) if w > u]
            for j, v in enumerate(nu):
                for w in nu[j + 1 :]:
                    if net.edges_between(v, w):
                        try:
                            return delta_y(net, (u, v, w))
                        except ReductionError:
                            continue
    return None


def greedy_reduce(net, terminals, use_delta_y=False, certify=False) -> ReductionTrace:
    """Reduce toward the terminal set; fixed priority order.

    Parallel merges run first, then series merges, then pendant-block
    deletion; triangle-to-star steps join the rotation only when
    ``use_delta_y`` is set. Reduction stops at a fixed point, which for
    three or more terminals generally still contains star centers. A run
    longer than 20 * (n + |E| + 5) steps raises ``ReductionError``.
    """
    terminals = frozenset(terminals)
    if not terminals <= set(net.vertices):
        raise ReductionError("terminals must be existing vertices")
    cap = 20 * (net.n + len(net.edges) + 5)
    run = _Run(net)
    while True:
        if len(run.steps) > cap:
            raise ReductionError("reduction did not reach a fixed point in budget")
        step = _next_step(run.cur, terminals, use_delta_y)
        if step is None:
            return run.trace(terminals, certify)
        run.apply(step)


@dataclass(frozen=True)
class FanChainReduction:
    """Result of collapsing a fan into a resistor chain with an apex pendant.

    ``chain_links`` walks the final chain from the first path endpoint
    through the star centers to the last path endpoint; ``apex_arms[i]`` is
    the apex arm resistance recorded when center i+1 was created. The last
    apex arm survives in the final network as the pendant edge.
    """

    n: int
    m: int
    trace: ReductionTrace
    centers: tuple[int, ...]
    chain_links: tuple[Fraction, ...]
    apex_arms: tuple[Fraction, ...]

    @property
    def tail_apex_arm(self) -> Fraction:
        """Apex arm at the second-to-last center, bounded by 1/m**n."""
        return self.apex_arms[-2]

    @property
    def tail_chain_link(self) -> Fraction:
        """Resistance of the link between the last two centers."""
        return self.chain_links[-2]

    @property
    def endpoint_resistance(self) -> Fraction:
        """Resistance between the two path endpoints (chain sum)."""
        return sum(self.chain_links)


def fan_chain_reduce(n: int, m: int, certify: bool = False) -> FanChainReduction:
    """Run the alternating star/series pipeline on the fan over an
    (n+1)-vertex path.

    Each round converts the triangle made of the current chain head, the
    next path vertex and the apex into a star, then series-merges the freed
    path vertex. After n rounds the network is a chain from a1 to a_{n+1}
    through centers c1..cn with a single apex pendant at cn. The apex arm
    shrinks geometrically; the second-to-last arm is strictly below 1/m**n.
    """
    if n < 2:
        raise ReductionError("fan_chain_reduce needs n >= 2")
    if not isinstance(m, int) or m <= 1:
        raise ReductionError("fan_chain_reduce needs an integer m > 1")
    run = _Run(fan(n + 1, m))
    apex = n + 1
    terminals = frozenset({0, n, apex})
    centers: list[int] = []
    apex_arms: list[Fraction] = []
    head = 0  # chain end that still faces unprocessed path vertices
    for i in range(1, n + 1):
        step = delta_y(run.cur, (head, i, apex), center_label=f"c{i}")
        run.apply(step)
        center = step.added_vertices[0]
        centers.append(center)
        (arm,) = [e.r for e in step.added_edges if {e.u, e.v} == {center, apex}]
        apex_arms.append(arm)
        if i < n:
            run.apply(series_reduce(run.cur, i, terminals))
        head = center
    trace = run.trace(terminals, certify)
    chain = [0] + centers + [n]
    links = tuple(
        _single_edge(trace.final, a, b).r for a, b in zip(chain, chain[1:])
    )
    return FanChainReduction(
        n=n,
        m=m,
        trace=trace,
        centers=tuple(centers),
        chain_links=links,
        apex_arms=tuple(apex_arms),
    )


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def _edge_obj(e: Edge):
    return [e.u, e.v, _weight_str(e.r), e.gadget]


def _net_obj(net: ResistorNetwork):
    obj = {
        "vertices": list(net.vertices),
        "edges": [_edge_obj(e) for e in net.edges],
    }
    if net.labels:
        obj["labels"] = {str(v): net.labels[v] for v in sorted(net.labels)}
    return obj


def _step_obj(step: ReductionStep):
    obj = {
        "kind": step.kind,
        "removed_vertices": list(step.removed_vertices),
        "added_vertices": list(step.added_vertices),
        "removed_edges": [_edge_obj(e) for e in step.removed_edges],
        "added_edges": [_edge_obj(e) for e in step.added_edges],
    }
    if step.added_labels:
        obj["added_labels"] = {str(v): name for v, name in step.added_labels}
    return obj


def trace_to_json(trace: ReductionTrace) -> str:
    obj = {
        "initial": _net_obj(trace.initial),
        "steps": [_step_obj(s) for s in trace.steps],
        "final": _net_obj(trace.final),
    }
    if trace.certificates is not None:
        obj["certificates"] = [
            {f"{u},{v}": _weight_str(r) for (u, v), r in table.items()}
            for table in trace.certificates
        ]
    return json.dumps(obj, indent=2)


def trace_to_text(trace: ReductionTrace) -> str:
    lines = [
        f"initial: {trace.initial.n} vertices, {len(trace.initial.edges)} edges"
    ]
    for i, s in enumerate(trace.steps, start=1):
        bits = [f"{i}. {s.kind}"]
        if s.removed_vertices:
            bits.append(f"-v{list(s.removed_vertices)}")
        if s.added_vertices:
            bits.append(f"+v{list(s.added_vertices)}")
        bits.append(f"-e{[f'{e.u}-{e.v}' for e in s.removed_edges]}")
        bits.append(
            f"+e{[f'{e.u}-{e.v}({_weight_str(e.r)})' for e in s.added_edges]}"
        )
        lines.append(" ".join(bits))
    lines.append(
        f"final: {trace.final.n} vertices, {len(trace.final.edges)} edges"
    )
    return "\n".join(lines) + "\n"

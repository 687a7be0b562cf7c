"""Independent reference values and output checks for the benchmark.

Nothing here imports ``resnet``. The structured families are rebuilt from
their documented conventions (row-major Cartesian products, label schemes),
and every resistance comes from a float solve of the grounded Laplacian in
numpy. Agreement between the package and this module is therefore a
cross-check, not the same code twice.

``check`` takes an op's check spec plus what the op returned (exit code,
stdout, API result) and yields ``(ok, reason, exact_text)``. ``exact_text`` is the part of the
output that must repeat bit for bit for a given seed; the digest is built
from it.
"""

from __future__ import annotations

import csv
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Relative tolerance for float agreement. The package documents 1e-9 for
# exact/spectral agreement; the oracle is held to the same figure.
RTOL = 1e-9
# Larger networks are solved per query instead of keeping an inverse, so the
# oracle adds little to the process's peak memory.
CACHE_MAX_N = 256


@dataclass(eq=False)
class Net:
    """Edge list with exact weights; ``key`` names the network's content."""

    n: int
    edges: tuple  # (u, v, Fraction r)
    labels: dict = field(default_factory=dict)
    key: str = ""

    def label(self, v: int) -> str:
        return self.labels.get(v, str(v))


# ---------------------------------------------------------------------------
# documented families
# ---------------------------------------------------------------------------

def path(n):
    return Net(n, tuple((i, i + 1, Fraction(1)) for i in range(n - 1)),
               {i: f"a{i + 1}" for i in range(n)}, f"path:{n}")


def cycle(n):
    return Net(n, tuple((i, (i + 1) % n, Fraction(1)) for i in range(n)),
               {i: f"b{i + 1}" for i in range(n)}, f"cycle:{n}")


def clique2():
    return Net(2, ((0, 1, Fraction(1)),), {0: "c1", 1: "c2"}, "clique2")


def product(g, h, key=None):
    """Cartesian product; vertex (u, x) has id u * h.n + x."""
    m = h.n
    edges = [(u * m + x, v * m + x, r) for u, v, r in g.edges for x in range(m)]
    edges += [(u * m + x, u * m + y, r) for u in range(g.n) for x, y, r in h.edges]
    labels = {}
    if g.labels or h.labels:
        labels = {u * m + x: f"({g.label(u)},{h.label(x)})"
                  for u in range(g.n) for x in range(m)}
    return Net(g.n * m, tuple(edges), labels, key or f"({g.key})x({h.key})")


def hypercube(k):
    q = clique2()
    for _ in range(k - 1):
        q = product(q, clique2())
    return Net(q.n, q.edges, {v: f"b{v + 1}" for v in range(q.n)}, f"hypercube:{k}")


def ladder(n):
    return product(path(n), clique2(), f"ladder:{n}")


def block_tower(n):
    return product(path(n), cycle(4), f"block_tower:{n}")


def fan(n, m):
    apex = n
    base = path(n)
    edges = base.edges + tuple((u, apex, Fraction(1, m)) for u in range(n))
    return Net(n + 1, edges, {**base.labels, apex: "b"}, f"fan:{n}:{m}")


def tower(n, k):
    """Path times hypercube, the family the convergence scan walks."""
    return product(path(n), hypercube(k), f"tower:{n}:{k}")


FAMILIES = {
    "path": path,
    "cycle": cycle,
    "hypercube": hypercube,
    "ladder": ladder,
    "block_tower": block_tower,
    "fan": fan,
}


# ---------------------------------------------------------------------------
# float resistance
# ---------------------------------------------------------------------------

def laplacian(n, edges):
    lap = np.zeros((n, n))
    for u, v, r in edges:
        g = 1.0 / float(r)
        lap[u, u] += g
        lap[v, v] += g
        lap[u, v] -= g
        lap[v, u] -= g
    return lap


def grounded_inverse(n, edges):
    """Inverse of the Laplacian with vertex 0 grounded, padded with zeros.

    R(u, v) = G[u, u] + G[v, v] - 2 G[u, v] for this G.
    """
    g = np.zeros((n, n))
    if n > 1:
        g[1:, 1:] = np.linalg.inv(laplacian(n, edges)[1:, 1:])
    return g


def solve_pair(n, edges, u, v):
    """R(u, v) from one solve with v grounded."""
    keep = [w for w in range(n) if w != v]
    rhs = np.zeros(n - 1)
    rhs[keep.index(u)] = 1.0
    x = np.linalg.solve(laplacian(n, edges)[np.ix_(keep, keep)], rhs)
    return float(x[keep.index(u)])


def pair_from(g, u, v):
    return float(g[u, u] + g[v, v] - 2.0 * g[u, v])


def all_pairs_from(g):
    d = np.diag(g)
    return d[:, None] + d[None, :] - 2.0 * g


def close(x, ref, rtol=RTOL):
    return abs(float(x) - ref) <= rtol * abs(ref)


class Oracle:
    """Float reference solver with a small cache keyed by network content."""

    def __init__(self, capacity=16):
        self._inv = OrderedDict()
        self._capacity = capacity
        self._pairs = {}
        self._diameters = {}

    def inverse(self, net: Net):
        g = self._inv.get(net.key)
        if g is None:
            g = grounded_inverse(net.n, net.edges)
            if net.n <= CACHE_MAX_N:
                self._inv[net.key] = g
                if len(self._inv) > self._capacity:
                    self._inv.popitem(last=False)
        else:
            self._inv.move_to_end(net.key)
        return g

    def pair(self, net: Net, u, v):
        if net.n <= CACHE_MAX_N:
            return pair_from(self.inverse(net), u, v)
        return solve_pair(net.n, net.edges, u, v)

    def tower_pair(self, n, k, u, v):
        """Single pair on a scan tower, remembered by value."""
        key = (n, k, u, v)
        if key not in self._pairs:
            t = tower(n, k)
            self._pairs[key] = solve_pair(t.n, t.edges, u, v)
        return self._pairs[key]

    def diameter(self, net: Net, band):
        """Largest resistance and every pair within ``band`` of it."""
        key = (net.key, band)
        if key not in self._diameters:
            rmat = all_pairs_from(self.inverse(net))
            best = float(rmat.max())
            uu, vv = np.nonzero(np.triu(rmat >= best - band * best, k=1))
            self._diameters[key] = best, {(int(a), int(b)) for a, b in zip(uu, vv)}
        return self._diameters[key]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_pair(oracle, spec, rc, out, result):
    _, net, u, v = spec
    text = out.strip()
    ref = oracle.pair(net, u, v)
    if not close(float(text), ref):
        return False, f"R({u},{v}) = {text}, oracle {ref!r}", None
    return True, "", None


def _parse_diameter(fmt, out):
    if fmt == "json":
        obj = json.loads(out)
        pairs = [(p["u"], p["v"], p["label_u"], p["label_v"]) for p in obj["pairs"]]
        return float(obj["diameter"]), pairs
    lines = out.splitlines()
    if fmt == "csv":
        rows = list(csv.reader(lines[1:]))
        pairs = [(int(a), int(b), la, lb) for a, b, la, lb, _ in rows]
        return float(rows[0][4]), pairs
    head = lines[0]
    if not head.startswith("D_r = "):
        raise ValueError(f"unexpected header {head!r}")
    pairs = []
    for line in lines[1:]:
        tok = line.split()
        pairs.append((int(tok[0]), int(tok[1]), tok[2], tok[3]))
    return float(head[len("D_r = "):]), pairs


def check_diameter(oracle, spec, rc, out, result):
    """Spectral diameter: value, tie set within the package's documented
    1e-9 relative band, and the labels printed beside each pair."""
    _, net, fmt = spec
    value, pairs = _parse_diameter(fmt, out)
    best, ties = oracle.diameter(net, RTOL)
    if not close(value, best):
        return False, f"D_r = {value}, oracle {best!r}", None
    got = {(u, v) for u, v, _, _ in pairs}
    if got != ties:
        return False, f"tie set {sorted(got)[:4]}.. != oracle {sorted(ties)[:4]}..", None
    bad = [(u, v) for u, v, lu, lv in pairs if (lu, lv) != (net.label(u), net.label(v))]
    if bad:
        return False, f"labels of pairs {bad[:3]} differ from the family's", None
    return True, "", None


def _parse_scan(fmt, out):
    def cell(x):
        return None if x in ("", "-", None) else float(x)

    if fmt == "json":
        rows = json.loads(out)["rows"]
        return [(r["n"], cell(r["R_n"]), cell(r["diff"]), cell(r["abs_dev_from_limit"]))
                for r in rows]
    lines = out.splitlines()[1:]
    rows = csv.reader(lines) if fmt == "csv" else (line.split() for line in lines)
    return [(int(n), cell(val), cell(diff), cell(dev)) for n, val, diff, dev in rows]


def check_scan(oracle, spec, rc, out, result):
    """Spectral scan rows n = 2..n_max against the tower oracle: R_n, the
    diff R_n - R_{n-1}, the deviation |diff - 1/2^k| from the documented
    limit, diffs positive and deviations strictly falling.

    A diff is the difference of two float values each good to RTOL, so diffs
    and deviations are held to RTOL * R_n, not to RTOL of themselves. For the
    same reason the strict fall is required while the previous deviation is
    above RTOL * R_n; below that the deviation must stay within it.
    """
    _, k, n_max, fmt = spec
    side = 2**k
    limit = 1.0 / side
    if fmt == "json" and json.loads(out)["limit"] != str(Fraction(1, side)):
        return False, f"limit {json.loads(out)['limit']}, documented 1/{side}", None
    rows = _parse_scan(fmt, out)
    if [r[0] for r in rows] != list(range(2, n_max + 1)):
        return False, f"row heights {[r[0] for r in rows][:5]}..", None
    prev_ref = prev_dev = None
    for i, (n, val, diff, dev) in enumerate(rows):
        ref = oracle.tower_pair(n, k, 0, (n - 1) * side + side - 1)
        if not close(val, ref):
            return False, f"R_{n} = {val}, oracle {ref!r}", None
        if i == 0:
            if diff is not None or dev is not None:
                return False, "baseline row has diff columns", None
            prev_ref = ref
            continue
        tol = RTOL * val
        if not abs(diff - (ref - prev_ref)) <= tol:
            return False, f"diff at n={n} is {diff}, oracle {ref - prev_ref!r}", None
        if not abs(dev - abs(diff - limit)) <= tol:
            return False, f"deviation at n={n} is {dev}, |diff - 1/{side}| is " \
                          f"{abs(diff - limit)!r}", None
        if not diff > 0:
            return False, f"diff at n={n} is {diff}", None
        if not (prev_dev is None or dev < prev_dev or (prev_dev <= tol and dev <= tol)):
            return False, f"deviation at n={n} {dev} not below {prev_dev}", None
        prev_ref, prev_dev = ref, dev
    return True, "", None


def _edge_multiset(edges):
    return sorted((min(u, v), max(u, v), Fraction(r), bool(g)) for u, v, r, g in edges)


def _terminal_table(oracle, vertices, edges, terminals, key):
    """Float resistances between terminals of a network with sparse ids."""
    index = {v: i for i, v in enumerate(sorted(vertices))}
    net = Net(len(index), tuple((index[u], index[v], r) for u, v, r, _ in edges),
              key=key)
    g = oracle.inverse(net)
    ts = sorted(terminals)
    return {(a, b): pair_from(g, index[a], index[b])
            for i, a in enumerate(ts) for b in ts[i + 1:]}


def _table_matches(table, ref):
    return table.keys() == ref.keys() and all(close(table[p], ref[p]) for p in ref)


def check_reduce(oracle, spec, rc, out, result):
    """Replay the trace on our own edge multiset, compare terminal
    resistances before and after, and hold every certificate to the first."""
    _, net, terminals, certify = spec
    obj = json.loads(out)
    init = obj["initial"]
    want = _edge_multiset((u, v, r, False) for u, v, r in net.edges)
    if _edge_multiset(init["edges"]) != want or init["vertices"] != list(range(net.n)):
        return False, "initial network differs from the input", None
    verts = set(init["vertices"])
    edges = [tuple(e) for e in init["edges"]]
    for step in obj["steps"]:
        for e in step["removed_edges"]:
            edges.remove(tuple(e))
        verts -= set(step["removed_vertices"])
        verts |= set(step["added_vertices"])
        edges += [tuple(e) for e in step["added_edges"]]
    final = obj["final"]
    if _edge_multiset(edges) != _edge_multiset(final["edges"]) or sorted(verts) != final["vertices"]:
        return False, "replayed steps do not give the final network", None
    if set(final["vertices"]) != set(terminals):
        return False, f"exit 0 but final vertices {final['vertices'][:6]}..", None
    ref = _terminal_table(oracle, range(net.n), [(u, v, r, False) for u, v, r in net.edges],
                          terminals, net.key)
    got = _terminal_table(oracle, final["vertices"],
                          [(u, v, Fraction(r), g) for u, v, r, g in final["edges"]],
                          terminals, f"{net.key}/final/{sorted(terminals)}/{len(obj['steps'])}")
    if not _table_matches(got, ref):
        return False, "final network changes terminal resistances", None
    certs = obj.get("certificates")
    if certify:
        if certs is None or len(certs) != len(obj["steps"]) + 1:
            return False, "certificate count is not steps + 1", None
        if any(c != certs[0] for c in certs):
            return False, "a certificate differs from the first", None
        first = {tuple(int(x) for x in k.split(",")): Fraction(r) for k, r in certs[0].items()}
        if not _table_matches(first, ref):
            return False, "first certificate disagrees with the oracle", None
    elif certs is not None:
        return False, "uncertified run carries certificates", None
    return True, "", out


def check_fan_chain(oracle, spec, rc, out, result):
    _, n, m, certify = spec
    net = fan(n + 1, m)
    terminals = (0, n, n + 1)
    ref = _terminal_table(oracle, range(net.n), [(u, v, r, False) for u, v, r in net.edges],
                          terminals, net.key)
    trace = result.trace
    if len(trace.steps) != 2 * n - 1:
        return False, f"{len(trace.steps)} steps, want {2 * n - 1}", None
    if not close(result.endpoint_resistance, ref[(0, n)]):
        return False, "endpoint resistance disagrees with the oracle", None
    if not result.tail_apex_arm < Fraction(1, m**n):
        return False, "second-to-last apex arm not below 1/m**n", None
    certs = trace.certificates
    if certify:
        if certs is None or len(certs) != len(trace.steps) + 1:
            return False, "certificate count is not steps + 1", None
        if any(c != certs[0] for c in certs):
            return False, "a certificate differs from the first", None
        if not _table_matches(dict(certs[0]), ref):
            return False, "first certificate disagrees with the oracle", None
    elif certs is not None:
        return False, "uncertified run carries certificates", None
    text = f"{result.endpoint_resistance} {list(map(str, result.chain_links))}"
    if certify:
        text += " " + repr(sorted((k, str(v)) for k, v in certs[0].items()))
    return True, "", text


def check_decomposition(oracle, spec, rc, out, result):
    _, n = spec
    ref = oracle.pair(block_tower(n), 0, (n - 1) * 4 + 2)
    if result.residual != 0:
        return False, f"residual {result.residual}", None
    if not close(result.lhs, ref):
        return False, f"lhs {result.lhs}, oracle {ref!r}", None
    return True, "", f"{result.lhs} {result.ladder_part} {result.fan_part}"


def check_product(oracle, spec, rc, out, value):
    _, net, a, b = spec
    ref = oracle.pair(net, a, b)
    if not close(value, ref):
        return False, f"product R = {value!r}, oracle {ref!r}", None
    return True, "", None


CHECKS = {
    "pair": check_pair,
    "diameter": check_diameter,
    "scan": check_scan,
    "reduce": check_reduce,
    "fan_chain": check_fan_chain,
    "decomposition": check_decomposition,
    "product": check_product,
}


def check(oracle, spec, rc, out, result):
    """Dispatch on the spec's kind; see the module docstring for the result."""
    return CHECKS[spec[0]](oracle, spec, rc, out, result)

"""Seeded op lists for the benchmark workloads.

A workload is an endless sequence of rounds. Every round holds the same
shapes (family, size, subcommand, flags) in a seeded order; the seed picks
vertex pairs, id-or-label tokens, output formats, terminal sets and the
random networks. Keeping the shapes fixed per round is what makes medians
and tail latencies comparable from one seed to the next.

Random networks are written to files under the run's work directory and
reach the program through ``--graph``; everything else reaches it through
argv or, for the API calls without a subcommand, plain arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle as o

WORKLOADS = ("reduce_certify", "spectral")

# Small rational pool for random weights: exact arithmetic stays cheap and
# every weight is positive, so no op is meant to fail.
WEIGHT_POOL = tuple(Fraction(x) for x in ("1", "2", "3", "1/2", "1/3", "2/3", "5/4"))


@dataclass
class Op:
    """One closed-loop operation.

    ``call`` is ``("cli", argv)`` or ``("api", name, args)`` and must exit 0;
    ``check`` is the oracle spec; ``net_key`` names the input network for
    the repeat share; ``files`` lists the network files the op needs on disk.
    """

    op_id: str
    shape: str
    call: tuple
    check: tuple
    net_key: str | None = None
    vertices: int = 0
    files: list = field(default_factory=list)

    def describe(self):
        files = tuple((p, net.key, net.edges) for p, net in self.files)
        return (self.op_id, self.shape, self.call, self.net_key, files)


# ---------------------------------------------------------------------------
# random networks
# ---------------------------------------------------------------------------

def random_sparse(rng, n, key):
    """Random spanning tree plus n // 2 chords, every vertex labelled."""
    edges = [(rng.randrange(i), i, rng.choice(WEIGHT_POOL)) for i in range(1, n)]
    seen = {(min(u, v), max(u, v)) for u, v, _ in edges}
    while len(edges) < n - 1 + n // 2:
        u, v = rng.sample(range(n), 2)
        if (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v, rng.choice(WEIGHT_POOL)))
    return o.Net(n, tuple(edges), {i: f"x{i}" for i in range(n)}, key)


def random_series_parallel(rng, n, key):
    """Two-terminal series-parallel network between vertices 0 and 1.

    Grown from one edge by series splits (new vertex) and parallel copies,
    so series and parallel rewrites alone reduce it to the terminals.
    """
    edges = [(0, 1, rng.choice(WEIGHT_POOL))]
    nxt = 2
    while nxt < n:
        i = rng.randrange(len(edges))
        u, v, r = edges[i]
        if rng.random() < 0.7:
            edges[i] = (u, nxt, r)
            edges.append((nxt, v, rng.choice(WEIGHT_POOL)))
            nxt += 1
        else:
            edges.append((u, v, rng.choice(WEIGHT_POOL)))
    return o.Net(n, tuple(edges), {}, key)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def _token(rng, net, v):
    """Vertex as id or label, half each, so both resolution paths run."""
    if net.labels and rng.random() < 0.5:
        return net.labels[v]
    return str(v)


class Generator:
    """Rounds of ops for one workload and seed; round r is a pure function
    of (workload, seed, r)."""

    def __init__(self, workload, seed, workdir):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir

    def round(self, r):
        rng = random.Random(f"{self.workload}/{self.seed}/{r}")
        ops = getattr(self, f"_{self.workload}")(rng, r)
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op.op_id = f"r{r}.{i}"
        return ops

    # -- helpers ------------------------------------------------------------

    def _fresh_graph(self, rng, r, idx, n, maker):
        path = f"{self.workdir}/r{r}-g{idx}.net"
        net = maker(rng, n, f"{self.workload}/{self.seed}/r{r}-g{idx}")
        return path, net

    def _resistance(self, rng, net, source, shape, files=()):
        u, v = rng.sample(range(net.n), 2)
        argv = ("resistance", *source, "--u", _token(rng, net, u),
                "--v", _token(rng, net, v), "--mode", "spectral")
        return Op("", shape, ("cli", argv), ("pair", net, u, v),
                  net_key=net.key, vertices=net.n, files=list(files))

    def _builder_query(self, rng, family, args):
        net = o.FAMILIES[family](*args)
        source = ("--builder", family, *map(str, args))
        shape = f"resistance spectral {family} {' '.join(map(str, args))}"
        return self._resistance(rng, net, source, shape)

    def _graph_queries(self, rng, r, sizes):
        ops = []
        for idx, n in enumerate(sizes):
            path, net = self._fresh_graph(rng, r, idx, n, random_sparse)
            ops.append(self._resistance(rng, net, ("--graph", path),
                                        f"resistance spectral random {n}", [(path, net)]))
        return ops

    # -- workloads ----------------------------------------------------------

    def _reduce(self, rng, net, source, terminals, fan, certify, shape, files=()):
        # --terminals is comma-separated, so labels holding a comma (the
        # product families' "(a1,c1)") cannot be written there; ids are used
        tokens = [_token(rng, net, t) for t in terminals]
        tokens = ",".join(str(t) if "," in tok else tok for t, tok in zip(terminals, tokens))
        argv = ("reduce", *source, "--terminals", tokens)
        argv += ("--fan",) * fan + ("--certify",) * certify
        shape = f"reduce {shape}{' fan' * fan}{' certify' * certify}"
        return Op("", shape, ("cli", argv),
                  ("reduce", net, tuple(terminals), certify),
                  net_key=net.key, vertices=net.n, files=list(files))

    def _cycle_reduce(self, rng, n, certify):
        a = rng.randrange(n)
        return self._reduce(rng, o.cycle(n), ("--builder", "cycle", str(n)),
                            (a, (a + n // 2) % n), False, certify, f"cycle {n}")

    def _family_reduce(self, rng, fam, args, terminals, certify):
        net = o.FAMILIES[fam](*args)
        return self._reduce(rng, net, ("--builder", fam, *map(str, args)), terminals,
                            True, certify, f"{fam} {' '.join(map(str, args))}")

    def _sp_reduce(self, rng, r, idx, n, certify, reuse=None):
        path, net = reuse or self._fresh_graph(rng, r, idx, n, random_series_parallel)
        op = self._reduce(rng, net, ("--graph", path), (0, 1), False, certify,
                          f"random_sp {n}", () if reuse else [(path, net)])
        return op, (path, net)

    def _reduce_certify(self, rng, r):
        # Certified ops: the cycle-24 certificate (~0.2 s) is the slowest
        # shape, so once a run holds 11 rounds the tail op is that shape.
        # Every op stays short and a round near 1 s, so that a 50 s run times
        # each shape dozens of times and a shape's best time finds a quiet
        # moment of the host. Uncertified ops outnumber certified ones and are
        # spread over sizes, so the median op is a rewrite/apply/export one.
        ops = [self._cycle_reduce(rng, n, True) for n in (24, 16)]
        ops.append(self._family_reduce(rng, "ladder", (8,),
                                       rng.choice([(0, 15), (1, 14)]), True))
        ops.append(self._family_reduce(rng, "fan", (10, 3), (0, 9), True))
        sp_op, sp = self._sp_reduce(rng, r, 0, 20, True)
        ops.append(sp_op)
        for n, m, certify in ((12, 2, True), (10, 3, True),
                              (20, 3, False), (12, 2, False), (10, 3, False)):
            ops.append(Op("", f"fan_chain_reduce {n} {m}{' certify' * certify}",
                          ("api", "fan_chain_reduce", (n, m, certify)),
                          ("fan_chain", n, m, certify),
                          net_key=f"fan:{n + 1}:{m}", vertices=n + 2))
        # the same reductions without certificates, then larger ones
        ops += [self._cycle_reduce(rng, n, False) for n in (24, 16)]
        ops.append(self._family_reduce(rng, "ladder", (8,), (0, 15), False))
        ops.append(self._family_reduce(rng, "fan", (10, 3), (0, 9), False))
        ops.append(self._sp_reduce(rng, r, 0, 20, False, reuse=sp)[0])
        ops += [self._cycle_reduce(rng, n, False) for n in (60, 80, 100, 120, 160, 200)]
        ops += [self._family_reduce(rng, "ladder", (n,), (0, 2 * n - 1), False)
                for n in (20, 25, 30, 40)]
        ops += [self._family_reduce(rng, "fan", (n, 3), (0, n - 1), False)
                for n in (20, 30, 40, 60)]
        ops += [self._sp_reduce(rng, r, i, n, False)[0]
                for i, n in enumerate((50, 75, 100, 150), start=1)]
        # the square-tower identity, checked by three exact pair solves: the
        # closed forms (formulas) and resistance_exact are timed here too
        for n in (8, 16, 24, 32):
            ops.append(Op("", f"block_tower_decomposition {n}",
                          ("api", "block_tower_decomposition", (n,)),
                          ("decomposition", n), net_key=f"block_tower:{n}",
                          vertices=4 * n))
        return ops

    def _spectral(self, rng, r):
        # One 1024-vertex query (hypercube 10, ~0.23 s) is the tail shape;
        # every other op stays at 768 vertices or fewer, so that a round
        # takes ~1.5 s and a 50 s run times each shape about 30 times.
        builders = (
            ("hypercube", (7,)), ("hypercube", (8,)), ("hypercube", (9,)),
            ("hypercube", (10,)), ("ladder", (256,)), ("ladder", (384,)),
            ("block_tower", (64,)), ("block_tower", (192,)), ("path", (768,)),
            ("cycle", (512,)), ("fan", (511, 3)),
        )
        ops = [self._builder_query(rng, f, a) for f, a in builders]
        ops += self._graph_queries(rng, r, (256, 384, 512))
        for fam, args in (("block_tower", (16,)), ("hypercube", (8,)),
                          ("block_tower", (128,)), ("ladder", (256,)),
                          ("hypercube", (9,))):
            fmt = rng.choice(("plain", "csv", "json"))
            net = o.FAMILIES[fam](*args)
            argv = ("diameter", "--builder", fam, *map(str, args), "--mode", "spectral",
                    "--format", fmt)
            ops.append(Op("", f"diameter spectral {fam} {' '.join(map(str, args))}",
                          ("cli", argv), ("diameter", net, fmt),
                          net_key=net.key, vertices=net.n))
        for k, n_max in ((2, 48), (3, 32), (4, 24), (5, 16)):
            fmt = rng.choice(("plain", "csv", "json"))
            argv = ("scan", "--k", str(k), "--max-n", str(n_max), "--mode", "spectral",
                    "--format", fmt)
            ops.append(Op("", f"scan spectral k{k} n{n_max}", ("cli", argv),
                          ("scan", k, n_max, fmt), net_key=f"tower:{n_max}:{k}",
                          vertices=n_max * 2**k))
        for g_spec, h_spec in (
            (("path", 32), ("hypercube", 3)),
            (("path", 64), ("cycle", 8)),
            (("product", ("path", 16), ("cycle", 4)), ("hypercube", 4)),
        ):
            g, h = _spec_net(g_spec), _spec_net(h_spec)
            u, v = rng.sample(range(g.n), 2)
            x, y = rng.randrange(h.n), rng.randrange(h.n)
            net = o.product(g, h)
            ops.append(Op("", f"product_resistance {g.key} x {h.key}",
                          ("api", "product_resistance", (g_spec, h_spec, u, x, v, y)),
                          ("product", net, u * h.n + x, v * h.n + y),
                          net_key=net.key, vertices=net.n))
        return ops


def _spec_net(spec):
    """Network whose Laplacian spectrum the closed-form spec describes."""
    if spec[0] == "product":
        return o.product(_spec_net(spec[1]), _spec_net(spec[2]))
    return o.FAMILIES[spec[0]](spec[1])


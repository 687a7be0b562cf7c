"""Acceptance gate: eleven checks, one line of output each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
check also enforces its wall-clock limit, so a pathological slowdown fails
loudly instead of silently eating the suite.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from resnet import (
    block_tower,
    block_tower_decomposition,
    cartesian_product,
    complete_bipartite,
    cone,
    conjecture_scan,
    cycle,
    delta_y,
    eliminate_block,
    fan_bounds,
    fan_chain_reduce,
    greedy_reduce,
    hypercube,
    hypercube_diameter,
    join,
    kmn_resistance,
    ladder,
    ladder_endpoint_resistance,
    ladder_gap,
    network_spectrum,
    parallel_reduce,
    path,
    product_resistance,
    resistance_diameter,
    resistance_exact,
    resistance_matrix_exact,
    resistance_spectral,
    series_reduce,
    substitute_bipartite_star,
    terminal_table,
    apply_step,
)
from resnet.errors import ReductionError
from resnet.network import ResistorNetwork

from _oracles import random_connected_network

SEED = 20260819


def passed(num, label, started, limit):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"
    print(f"[PASS] c{num:02d} {label}: {elapsed:.2f}s (limit {limit:.0f}s)")


def test_c01_hypercube_diameter_closed_form():
    t0 = time.perf_counter()
    for k in range(1, 7):
        net = hypercube(k)
        assert hypercube_diameter(k) == resistance_exact(net, 0, 2**k - 1)
    assert hypercube_diameter(3) == Fraction(5, 6)
    passed(1, "hypercube diameter closed form, k = 1..6", t0, 5)


def test_c02_complete_bipartite_closed_forms():
    t0 = time.perf_counter()
    for m in range(1, 7):
        for n in range(1, 7):
            net = complete_bipartite(m, n)
            assert kmn_resistance(m, n, "x", "y") == resistance_exact(net, 0, m)
            if m >= 2:
                assert kmn_resistance(m, n, "x", "x") == resistance_exact(
                    net, 0, 1
                )
            if n >= 2:
                assert kmn_resistance(m, n, "y", "y") == resistance_exact(
                    net, m, m + 1
                )
    passed(2, "complete bipartite closed forms, m,n = 1..6", t0, 5)


def _one_applicable_step(net, rng):
    doubled = sorted(
        {
            (e.u, e.v)
            for e in net.edges
            if len(net.edges_between(e.u, e.v)) > 1
        }
    )
    deg2 = [v for v in net.vertices if net.degree(v) == 2]
    triangles = [
        (u, v, w)
        for u in net.vertices
        for v in net.neighbors(u)
        if v > u
        for w in net.neighbors(v)
        if w > v and net.edges_between(u, w)
    ]
    makers = []
    if doubled:
        makers.append(lambda: parallel_reduce(net, *rng.choice(doubled)))
    if deg2:
        makers.append(lambda: series_reduce(net, rng.choice(deg2)))
    if triangles:
        makers.append(lambda: delta_y(net, rng.choice(triangles)))
    makers.append(lambda: eliminate_block(net))
    rng.shuffle(makers)
    for make in makers:
        try:
            return make()
        except ReductionError:
            continue
    return None


def test_c03_rewrite_soundness_two_hundred_steps():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    applied = 0
    while applied < 200:
        if rng.random() < 0.15:
            m, n = rng.randint(1, 3), rng.randint(2, 3)
            net = complete_bipartite(m, n)
            step = substitute_bipartite_star(
                net, tuple(range(m)), tuple(range(m, m + n))
            )
        else:
            net = random_connected_network(rng, max_n=10)
            step = _one_applicable_step(net, rng)
            if step is None:
                continue
        terminals = tuple(sorted(set(net.vertices) - set(step.removed_vertices)))
        if len(terminals) < 2:
            continue
        before = terminal_table(net, terminals)
        after = terminal_table(apply_step(net, step), terminals)
        assert before == after, step.kind
        applied += 1
    passed(3, "200 randomized rewrites preserve terminal tables", t0, 30)


def test_c04_fan_bounds():
    t0 = time.perf_counter()
    for m in (2, 3, 4):
        for n in range(2, 13):
            fb = fan_bounds(n, m)
            assert fb.endpoint_step_ok, (n, m, "endpoint")
            assert fb.apex_step_ok, (n, m, "apex")
            assert fb.apex_defect_ok, (n, m, "defect")
            fc = fan_chain_reduce(n, m)
            assert 0 < fc.tail_apex_arm < Fraction(1, m**n), (n, m, "arm")
    passed(4, "fan decay bounds, m in {2,3,4}, n = 2..12", t0, 30)


def test_c05_ladder_closed_forms():
    t0 = time.perf_counter()
    prev = None
    for n in range(2, 13):
        lad = ladder(n)
        u = lad.find_label("(a1,c1)")
        diag = lad.find_label(f"(a{n},c2)")
        same = lad.find_label(f"(a{n},c1)")
        r_diag = resistance_exact(lad, u, diag)
        r_same = resistance_exact(lad, u, same)
        assert abs(ladder_endpoint_resistance(n) - float(r_diag)) < 1e-12
        assert abs(ladder_gap(n) - float(r_diag - r_same)) < 1e-12
        assert ladder_gap(n) > 0
        if prev is not None:
            assert r_diag - prev > Fraction(1, 4)
        prev = r_diag
    passed(5, "ladder closed forms and growth bounds, n = 2..12", t0, 10)


def test_c06_product_formula_fifty_random_pairs():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 6)
    done = 0
    while done < 50:
        g = random_connected_network(rng, max_n=5, extra_edges=2)
        h = random_connected_network(rng, max_n=5, extra_edges=2)
        prod = cartesian_product(g, h)
        sg, sh = network_spectrum(g), network_spectrum(h)
        tg, th = resistance_matrix_exact(g), resistance_matrix_exact(h)
        tp = resistance_matrix_exact(prod)
        for a, b in combinations(range(prod.n), 2):
            u, x = divmod(a, h.n)
            v, y = divmod(b, h.n)
            got = product_resistance(sg, sh, tg[u, v], th[x, y], u, x, v, y)
            assert abs(got - float(tp[a, b])) < 1e-9
        done += 1
    passed(6, "product formula vs oracle, 50 random factor pairs", t0, 60)


def test_c07_square_tower_scan():
    t0 = time.perf_counter()
    report = conjecture_scan(2, 20, mode="exact")
    diffs = [r.diff for r in report.rows[1:]]
    devs = [r.deviation for r in report.rows[1:]]
    assert all(d > 0 for d in diffs)
    assert all(a > b for a, b in zip(devs, devs[1:]))
    at_15 = next(r for r in report.rows if r.n == 15)
    assert at_15.deviation < Fraction(1, 10**6)
    passed(7, "square tower scan to n = 20, deviation under 1e-6 by n = 15", t0, 120)


def test_c08_other_dimensions_scan():
    t0 = time.perf_counter()
    for k in (1, 3):
        report = conjecture_scan(k, 12, mode="exact")
        dev4 = next(r for r in report.rows if r.n == 4).deviation
        dev12 = report.rows[-1].deviation
        assert report.limit == Fraction(1, 2**k)
        assert all(r.diff > 0 for r in report.rows[1:])
        assert dev12 * 10 <= dev4
    passed(8, "k = 1 and k = 3 scans, tenfold deviation drop by n = 12", t0, 180)


def test_c09_tower_diametrical_pairs():
    t0 = time.perf_counter()
    for n in range(2, 9):
        rep = resistance_diameter(block_tower(n), mode="exact")
        want = {
            (f"(a1,b{j})", f"(a{n},b{(j + 1) % 4 + 1})")
            for j in (1, 2, 3, 4)
        }
        got = set(rep.label_pairs)
        assert got == want, (n, got)
        assert rep.pair_count == 4
        if n == 2:
            assert rep.diameter == Fraction(5, 6)
    passed(9, "tower diametrical pairs are the four corners, n = 2..8", t0, 120)


def test_c10_decomposition_identity():
    t0 = time.perf_counter()
    for n in range(2, 9):
        rep = block_tower_decomposition(n)
        assert rep.residual == 0
    passed(10, "tower corner decomposition residual exactly zero, n = 2..8", t0, 60)


def _property_networks():
    yield path(60)
    yield cycle(60)
    for k in range(1, 8):
        yield hypercube(k)
    yield ladder(30)
    yield block_tower(16)
    yield cone(path(40), 3)
    yield complete_bipartite(6, 6)
    yield join(path(3), cycle(4))
    yield cone(cycle(5), 2)


def test_c11_property_suite_on_builders():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 11)
    for net in _property_networks():
        assert net.n <= 200
        spec = network_spectrum(net)
        pairs = [
            tuple(rng.sample(net.vertices, 2))
            for _ in range(min(8, net.n * (net.n - 1) // 2))
        ]
        for u, v in pairs:
            exact = resistance_exact(net, u, v)
            assert exact > 0
            assert resistance_exact(net, v, u) == exact
            assert abs(resistance_spectral(spec, u, v) - float(exact)) < 1e-9
        # ground independence on one pair, three grounds
        u, v = pairs[0]
        grounds = rng.sample(net.vertices, min(3, net.n))
        vals = {resistance_exact(net, u, v, ground=g) for g in grounds}
        assert len(vals) == 1
        # raising one resistance can only raise resistances
        if net.n <= 64:
            edges = list(net.edges)
            idx = rng.randrange(len(edges))
            e = edges[idx]
            edges[idx] = (e.u, e.v, e.r * 3)
            worse = ResistorNetwork(net.vertices, tuple(edges))
            assert resistance_exact(worse, u, v) >= resistance_exact(net, u, v)
        # triangle inequality on sampled triples
        if net.n >= 3:
            for _ in range(4):
                a, b, c = rng.sample(net.vertices, 3)
                assert resistance_exact(net, a, c) <= resistance_exact(
                    net, a, b
                ) + resistance_exact(net, b, c)
    passed(11, "metric, grounding, monotonicity, spectral agreement", t0, 120)

"""Exact rational solver against hand values and the pseudoinverse oracle."""

import random
from fractions import Fraction

import pytest

from resnet import (
    DisconnectedNetworkError,
    Edge,
    GroundedSystem,
    MalformedNetworkError,
    ResistorNetwork,
    SingularSystemError,
    cycle,
    hypercube,
    path,
    resistance_exact,
    resistance_matrix_exact,
)

from resnet.exact import _conductances, _eliminate, _link

from _oracles import pinv_resistance, random_connected_network, with_holes


# --- frozen hand values ---
# C4 adjacent: 1 ohm in parallel with the 3-ohm detour -> 3/4
# C4 opposite: two 2-ohm halves in parallel -> 1
# Q3 adjacent: 7/12 (pseudoinverse oracle, frozen)
# Q3 antipodal: 5/6

def test_cycle_adjacent_and_opposite():
    c4 = cycle(4)
    assert resistance_exact(c4, 0, 1) == Fraction(3, 4)
    assert resistance_exact(c4, 0, 2) == Fraction(1)


def test_path_is_plain_series():
    assert resistance_exact(path(5), 0, 4) == 4
    assert resistance_exact(path(5), 1, 3) == 2


def test_hypercube_corner_values():
    q3 = hypercube(3)
    assert resistance_exact(q3, 0, 7) == Fraction(5, 6)
    assert resistance_exact(q3, 0, 1) == Fraction(7, 12)


def test_weighted_parallel_pair():
    net = ResistorNetwork.build(2, [(0, 1, 2), (0, 1, 3)])
    assert resistance_exact(net, 0, 1) == Fraction(6, 5)


def test_same_vertex_is_zero():
    assert resistance_exact(path(3), 1, 1) == 0


def test_ground_choice_does_not_matter():
    dense = random_connected_network(random.Random(7), max_n=7)
    for net in (dense, with_holes(dense)):
        u, v = net.vertices[:2]
        want = resistance_exact(net, u, v)
        assert float(want) == pytest.approx(pinv_resistance(net, u, v), abs=1e-9)
        for g in net.vertices:
            assert resistance_exact(net, u, v, ground=g) == want


def test_matches_pinv_oracle_on_random_networks():
    rng = random.Random(2024)
    for _ in range(25):
        net = random_connected_network(rng)
        u, v = rng.sample(net.vertices, 2)
        got = resistance_exact(net, u, v)
        assert float(got) == pytest.approx(pinv_resistance(net, u, v), abs=1e-9)


def test_matrix_agrees_with_single_queries():
    net = random_connected_network(random.Random(5), max_n=6)
    table = resistance_matrix_exact(net)
    for i, u in enumerate(net.vertices):
        for v in net.vertices[i + 1 :]:
            assert table[u, v] == resistance_exact(net, u, v)
            assert table[v, u] == table[u, v]
        assert table[u, u] == 0


def test_foster_identity_on_random_networks():
    # sum over edges of R_e / r_e equals n - 1 on any connected network
    rng = random.Random(99)
    for _ in range(10):
        net = random_connected_network(rng)
        table = resistance_matrix_exact(net)
        total = sum(table[e.u, e.v] / e.r for e in net.edges)
        assert total == net.n - 1


def test_disconnected_raises():
    net = ResistorNetwork.build(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(DisconnectedNetworkError):
        resistance_exact(net, 0, 3)


def test_float_weights_rejected_by_exact_solver():
    net = ResistorNetwork.build(2, [(0, 1, 0.5)])
    with pytest.raises(MalformedNetworkError):
        resistance_exact(net, 0, 1)


def test_cancelled_gadget_pair_is_singular():
    # +1 and -1 in parallel leave zero net conductance: electrically open
    net = ResistorNetwork(
        (0, 1), (Edge(0, 1, 1), Edge(0, 1, -1, gadget=True))
    )
    with pytest.raises(SingularSystemError):
        resistance_exact(net, 0, 1)


def test_kron_reduction_keeps_pair_resistance():
    rng = random.Random(23)
    for _ in range(20):
        net = random_connected_network(rng)
        keep = rng.sample(net.vertices, min(3, net.n))
        reduced = _conductances(net.vertices, net.edges)
        _eliminate(reduced, [w for w in net.vertices if w not in keep])
        assert set(reduced) == set(keep)
        assert all(reduced[b][a] == g for a in reduced for b, g in reduced[a].items())
        u, v = keep[:2]
        pair = _conductances(net.vertices, net.edges)
        _eliminate(pair, [w for w in net.vertices if w not in (u, v)])
        assert 1 / pair[u][v] == resistance_exact(net, u, v)
        assert float(1 / pair[u][v]) == pytest.approx(
            pinv_resistance(net, u, v), abs=1e-9
        )
        # reducing the reduced map further lands on the same pair conductance
        _eliminate(reduced, keep[2:])
        assert reduced[u] == {v: pair[u][v]}


def test_kron_reduction_zero_pivot_is_singular():
    # vertex 1 carries +1 and -1 conductance, so its pivot cancels to zero
    net = ResistorNetwork((0, 1, 2), (Edge(0, 1, 1), Edge(1, 2, -1, gadget=True)))
    with pytest.raises(SingularSystemError):
        _eliminate(_conductances(net.vertices, net.edges), [1])


def _eliminate_by_rebuild(g, doomed):
    """Reference pivot rule: each step scans every vertex still to go for the
    least (degree, id) with a nonzero pivot. Also counts the steps where a
    smaller vertex was passed over for its zero pivot."""
    left, steps, skips = set(doomed), [], 0
    while left:
        order = sorted((len(g[w]), w) for w in left)
        usable = [v for _, v in order if sum(g[v].values())]
        if not usable:
            raise SingularSystemError(
                f"no usable pivot while eliminating vertex {min(left)}"
            )
        v = usable[0]
        skips += v != order[0][1]
        left.remove(v)
        pivot, arms = sum(g[v].values()), g.pop(v)
        items = list(arms.items())
        for x, (a, ga) in enumerate(items):
            del g[a][v]
            for b, gb in items[x + 1 :]:
                _link(g, a, b, g[a].get(b, 0) + ga * gb / pivot)
        steps.append((v, pivot, arms))
    return steps, skips


def _with_zero_pivots(rng, net):
    """Add gadget edges that cancel the conductance sum at a few vertices."""
    edges = list(net.edges)
    for v in rng.sample(net.vertices, min(2, net.n)):
        g = _conductances(net.vertices, edges)[v]
        others = [w for w in net.vertices if w != v]
        if sum(g.values()) and others:
            r = -1 / sum(g.values())
            edges.append(Edge(v, rng.choice(others), r, gadget=True))
    return ResistorNetwork(net.vertices, tuple(edges))


def test_one_heap_picks_the_rebuild_order():
    rng = random.Random(41)
    skips = singular = 0
    for i in range(300):
        net = random_connected_network(rng, max_n=10, extra_edges=6)
        if i % 2:
            net = _with_zero_pivots(rng, net)
        doomed = rng.sample(net.vertices, rng.randint(1, net.n))
        got = _conductances(net.vertices, net.edges)
        want = _conductances(net.vertices, net.edges)
        try:
            ref, n_skips = _eliminate_by_rebuild(want, doomed)
        except SingularSystemError as exc:
            with pytest.raises(SingularSystemError, match=str(exc)):
                _eliminate(got, doomed)
            singular += 1
            continue
        assert _eliminate(got, doomed) == ref
        assert got == want
        skips += n_skips
    # the gadgets exercise both the passed-over and the singular paths
    assert skips > 10 and singular > 10


def test_grounded_system_solves_kirchhoff():
    # current of 1 in at vertex 0 and out at ground 2 on a path: the
    # potentials must step down by the edge resistances
    net = path(3)
    sys_ = GroundedSystem(net, ground=2)
    x = sys_.solve({0: Fraction(1)})
    assert x[0] - x[1] == 1
    assert x[1] == 1

"""Network model, builders, file format."""

import random
from fractions import Fraction

import pytest

from resnet import (
    Edge,
    MalformedNetworkError,
    ParseError,
    ResistorNetwork,
    block_tower,
    build_laplacian,
    cartesian_product,
    clique2,
    complete_bipartite,
    cone,
    cycle,
    fan,
    hypercube,
    join,
    ladder,
    parse_network,
    path,
    render_network,
)
from resnet.exact import _conductances
from resnet.reduction import apply_step, greedy_reduce

from _oracles import random_connected_network, with_holes


# --- Edge ---

def test_edge_normalizes_orientation():
    e = Edge(3, 1, 2)
    assert (e.u, e.v) == (1, 3)
    assert e.r == Fraction(2)
    assert e.other(1) == 3 and e.other(3) == 1


def test_edge_conductance_is_reciprocal():
    assert Edge(0, 1, Fraction(1, 4)).conductance == 4


def test_edge_rejects_self_loop_and_zero():
    with pytest.raises(MalformedNetworkError):
        Edge(2, 2, 1)
    with pytest.raises(MalformedNetworkError):
        Edge(0, 1, 0)


def test_edge_negative_needs_gadget_flag():
    with pytest.raises(MalformedNetworkError):
        Edge(0, 1, -1)
    e = Edge(0, 1, Fraction(-1, 4), gadget=True)
    assert e.conductance == -4


@pytest.mark.parametrize("r", [float("nan"), float("inf"), float("-inf")])
def test_edge_rejects_non_finite_resistance(r):
    with pytest.raises(MalformedNetworkError):
        Edge(0, 1, r, gadget=True)
    with pytest.raises(MalformedNetworkError):
        ResistorNetwork.build(2, [(0, 1, r)])


# --- ResistorNetwork ---

def test_build_from_vertex_count():
    net = ResistorNetwork.build(3, [(0, 1, 1), (1, 2, 2)])
    assert net.vertices == (0, 1, 2)
    assert net.degree(1) == 2
    assert net.neighbors(1) == (0, 2)
    assert net.is_connected()


def test_build_rejects_undeclared_endpoint():
    with pytest.raises(MalformedNetworkError):
        ResistorNetwork.build(2, [(0, 5, 1)])


def test_multi_edges_kept_separate():
    net = ResistorNetwork.build(2, [(0, 1, 1), (0, 1, 3)])
    assert len(net.edges_between(0, 1)) == 2
    assert len(net.edges_between(1, 0)) == 2


def test_disconnected_detection():
    net = ResistorNetwork.build(4, [(0, 1, 1), (2, 3, 1)])
    assert not net.is_connected()


def test_labels_resolve_both_ways():
    net = path(3)
    assert net.label_of(0) == "a1"
    assert net.find_label("a3") == 2
    with pytest.raises(KeyError):
        net.find_label("zz")


def test_all_rational_flag():
    assert ResistorNetwork.build(2, [(0, 1, Fraction(1, 2))]).all_rational
    assert not ResistorNetwork.build(2, [(0, 1, 0.5)]).all_rational


# --- builders ---

def test_path_shape():
    net = path(4)
    assert net.n == 4 and len(net.edges) == 3
    assert [net.label_of(i) for i in range(4)] == ["a1", "a2", "a3", "a4"]


def test_cycle_shape_and_doubled_two_cycle():
    assert len(cycle(5).edges) == 5
    two = cycle(2)
    assert len(two.edges_between(0, 1)) == 2


def test_clique2_labels():
    net = clique2()
    assert (net.label_of(0), net.label_of(1)) == ("c1", "c2")


def test_complete_bipartite_shape():
    net = complete_bipartite(2, 3)
    assert net.n == 5 and len(net.edges) == 6
    assert net.label_of(0) == "x1" and net.label_of(2) == "y1"


def test_cartesian_product_row_major_ids():
    prod = cartesian_product(path(2), cycle(4))
    # (u, x) -> u*4 + x; copies of the cycle at u=0 and u=1, rungs between
    assert prod.n == 8 and len(prod.edges) == 12
    assert prod.label_of(0) == "(a1,b1)"
    assert prod.label_of(7) == "(a2,b4)"
    assert prod.edges_between(0, 4)  # rung
    assert prod.edges_between(0, 1)  # cycle edge in the first copy


def test_product_matches_named_families():
    assert hypercube(3).n == 8 and len(hypercube(3).edges) == 12
    assert ladder(3) == cartesian_product(path(3), clique2())
    assert block_tower(2).n == 8


def test_composites_number_vertices_by_row():
    dense = random_connected_network(random.Random(3), max_n=6)
    holes = with_holes(dense)
    assert cartesian_product(holes, holes) == cartesian_product(dense, dense)
    assert cone(holes, 3) == cone(dense, 3)
    assert join(holes, holes) == join(dense, dense)


def test_cone_adds_apex_with_weighted_edges():
    net = cone(path(3), 4)
    apex = 3
    assert net.label_of(apex) == "b"
    assert all(e.r == Fraction(1, 4) for e in net.incident(apex))
    assert net.degree(apex) == 3


def test_fan_is_cone_over_path():
    assert fan(4, 2) == cone(path(4), 2)


def test_cone_rejects_non_integer_strength():
    with pytest.raises(MalformedNetworkError):
        cone(path(2), 1)


def test_join_crosses_every_pair():
    net = join(path(2), path(3))
    assert net.n == 5
    cross = [e for e in net.edges if e.u < 2 <= e.v]
    assert len(cross) == 6 and all(e.r == 1 for e in cross)


# --- Laplacian ---

def test_exact_laplacian_rows_sum_to_zero():
    lap = build_laplacian(cycle(4))
    assert all(sum(row) == 0 for row in lap)
    assert lap[0][0] == 2 and lap[0][1] == -1


def test_float_laplacian_matches_exact():
    # entry by entry against the exact solver's rational conductance map
    net = fan(3, 2)
    g = _conductances(net.vertices, net.edges)
    lap = build_laplacian(net)
    for v, i in net.index.items():
        for w, j in net.index.items():
            want = sum(g[v].values()) if v == w else -g[v].get(w, 0)
            assert lap[i, j] == pytest.approx(float(want), abs=1e-15)


# --- file format ---

def test_parse_basic():
    net = parse_network("# comment\nnode 0 left\nnode 1 right\n0 1 3/2\n")
    assert net.edges[0].r == Fraction(3, 2)
    assert net.label_of(0) == "left"


def test_parse_gadget_edge():
    net = parse_network("0 1 1\n0 2 1\n1 2 -1/4 gadget\n")
    assert net.edges_between(1, 2)[0].gadget


def test_parse_rejects_negative_without_gadget():
    with pytest.raises(ParseError, match="line 1"):
        parse_network("0 1 -2\n")


def test_parse_rejects_bad_weight_with_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_network("0 1 1\n1 2 1\n2 3 oops\n")


def test_parse_rejects_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate"):
        parse_network("node 0 a\nnode 0 b\n0 1 1\n")


def test_parse_keeps_file_ids():
    net = parse_network("node 30 end\n10 20 1\n20 30 2\n")
    assert net.vertices == (10, 20, 30)
    assert net.labels == {30: "end"}
    assert [(e.u, e.v, e.r) for e in net.edges] == [(10, 20, 1), (20, 30, 2)]
    assert net.index == {10: 0, 20: 1, 30: 2}


def _cycle8_mid_reduction():
    """Halfway through greedy_reduce(cycle(8), (0, 4)): ids with holes."""
    trace = greedy_reduce(cycle(8), (0, 4))
    net = trace.initial
    for step in trace.steps[: len(trace.steps) // 2]:
        net = apply_step(net, step)
    assert net.vertices != tuple(range(net.n))
    return net


@pytest.mark.parametrize(
    "make", [lambda: fan(3, 4), _cycle8_mid_reduction], ids=["fan", "mid_reduction"]
)
def test_render_parse_round_trip_exact(make):
    net = make()
    assert parse_network(render_network(net)) == net


def test_render_parse_round_trip_float():
    net = ResistorNetwork.build(2, [(0, 1, 0.3)])
    back = parse_network(render_network(net))
    assert float(back.edges[0].r) == 0.3


def test_parse_empty_is_error():
    with pytest.raises(ParseError):
        parse_network("# nothing here\n")

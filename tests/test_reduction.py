"""Rewrite rules: single steps, the greedy driver, the fan chain pipeline.

The load-bearing property throughout is terminal invariance: every rewrite
must leave the exact resistance between every pair of surviving terminals
unchanged. Certificates make that table explicit.
"""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from resnet import (
    Edge,
    ReductionError,
    ResistorNetwork,
    apply_step,
    complete_bipartite,
    cycle,
    delta_y,
    eliminate_block,
    fan,
    fan_chain_reduce,
    greedy_reduce,
    ladder,
    parallel_reduce,
    path,
    resistance_exact,
    series_reduce,
    substitute_bipartite_star,
    terminal_table,
    trace_to_json,
    trace_to_text,
)
from resnet import reduction

from _oracles import random_connected_network


def table_frozen(net, terminals):
    return terminal_table(net, terminals)


# --- series ---

def test_series_merges_resistances():
    net = path(3)
    step = series_reduce(net, 1)
    out = apply_step(net, step)
    assert out.vertices == (0, 2)
    assert out.edges[0].r == 2


def test_series_respects_terminals():
    with pytest.raises(ReductionError):
        series_reduce(path(3), 1, terminals={1})


def test_series_needs_degree_two():
    with pytest.raises(ReductionError):
        series_reduce(path(3), 0)


def test_series_refuses_doubled_edge():
    net = cycle(2)
    with pytest.raises(ReductionError):
        series_reduce(net, 0)


# --- parallel ---

def test_parallel_merges_conductances():
    net = ResistorNetwork.build(2, [(0, 1, 2), (0, 1, 3), (0, 1, 6)])
    out = apply_step(net, parallel_reduce(net, 0, 1))
    assert len(out.edges) == 1
    assert out.edges[0].r == 1  # 1/2 + 1/3 + 1/6 = 1


def test_parallel_needs_two_edges():
    with pytest.raises(ReductionError):
        parallel_reduce(path(2), 0, 1)


def test_parallel_detects_cancellation():
    net = ResistorNetwork(
        (0, 1), (Edge(0, 1, 1), Edge(0, 1, -1, gadget=True))
    )
    with pytest.raises(ReductionError):
        parallel_reduce(net, 0, 1)


# --- delta to star ---

def test_delta_y_arm_values():
    # triangle with sides 1, 2, 3: arms are products over the perimeter
    net = ResistorNetwork.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    step = delta_y(net, (0, 1, 2))
    out = apply_step(net, step)
    center = step.added_vertices[0]
    arms = {e.other(center): e.r for e in out.incident(center)}
    assert arms == {0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1)}


def test_delta_y_preserves_corner_resistances():
    net = ResistorNetwork.build(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    before = table_frozen(net, (0, 1, 2))
    out = apply_step(net, delta_y(net, (0, 1, 2)))
    assert table_frozen(out, (0, 1, 2)) == before


def test_delta_y_requires_single_edges():
    net = ResistorNetwork.build(3, [(0, 1, 1), (0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(ReductionError):
        delta_y(net, (0, 1, 2))


def test_delta_y_labels_center():
    net = cycle(3)
    step = delta_y(net, (0, 1, 2), center_label="hub")
    out = apply_step(net, step)
    assert out.find_label("hub") == step.added_vertices[0]


# --- block elimination ---

def test_eliminate_block_drops_pendant_component():
    # a triangle with a dangling path; the path is a chain of blocks
    net = ResistorNetwork.build(
        5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1)]
    )
    before = table_frozen(net, (0, 1))
    step = eliminate_block(net, terminals={0, 1})
    out = apply_step(net, step)
    assert table_frozen(out, (0, 1)) == before
    # repeated elimination strips the whole tail
    while True:
        try:
            out = apply_step(out, eliminate_block(out, terminals={0, 1}))
        except ReductionError:
            break
    assert set(out.vertices) == {0, 1, 2}


def test_eliminate_block_refuses_terminal_inside():
    net = ResistorNetwork.build(3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ReductionError):
        eliminate_block(net, terminals={0, 2})


# --- bipartite substitution ---

def test_substitute_bipartite_star_values():
    net = complete_bipartite(2, 3)
    step = substitute_bipartite_star(net, (0, 1), (2, 3, 4))
    out = apply_step(net, step)
    x0, y0 = step.added_vertices
    assert out.edges_between(0, x0)[0].r == Fraction(1, 3)
    assert out.edges_between(2, y0)[0].r == Fraction(1, 2)
    bridge = out.edges_between(x0, y0)[0]
    assert bridge.r == Fraction(-1, 6) and bridge.gadget


def test_substitute_bipartite_star_preserves_terminals():
    for m, n in ((2, 2), (2, 3), (3, 3), (1, 4)):
        net = complete_bipartite(m, n)
        terms = tuple(net.vertices)
        before = table_frozen(net, terms)
        step = substitute_bipartite_star(net, tuple(range(m)), tuple(range(m, m + n)))
        out = apply_step(net, step)
        assert table_frozen(out, terms) == before


def test_substitute_rejects_non_bipartite_block():
    net = cycle(4)
    with pytest.raises(ReductionError):
        substitute_bipartite_star(net, (0, 1), (2, 3))


# --- apply_step bookkeeping ---

def test_apply_step_rejects_stale_step():
    net = path(3)
    step = series_reduce(net, 1)
    shrunk = apply_step(net, step)
    with pytest.raises(ReductionError):
        apply_step(shrunk, step)


def test_apply_step_removes_one_copy_of_doubled_edge():
    net = cycle(2)
    step = parallel_reduce(net, 0, 1)
    out = apply_step(net, step)
    assert len(out.edges) == 1 and out.edges[0].r == Fraction(1, 2)


# --- greedy driver ---

def test_greedy_two_terminal_cycle():
    trace = greedy_reduce(cycle(4), {0, 2})
    assert trace.final.n == 2
    assert trace.final.edges[0].r == 1
    assert trace.replay() == trace.final


def _certified_runs():
    rng = random.Random(31)
    net = random_connected_network(rng, max_n=8)
    terms = set(rng.sample(net.vertices, 2))
    yield greedy_reduce(net, terms, use_delta_y=True, certify=True), terms
    yield greedy_reduce(cycle(24), {0, 12}, certify=True), {0, 12}
    yield greedy_reduce(ladder(8), {0, 15}, use_delta_y=True, certify=True), {0, 15}
    yield greedy_reduce(fan(10, 3), {0, 9}, use_delta_y=True, certify=True), {0, 9}
    yield fan_chain_reduce(12, 2, certify=True).trace, {0, 12, 13}
    # a triangle 0-1-2 with the block 2-3-4 hanging off vertex 2
    pendant = ResistorNetwork.build(
        5, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 1), (3, 4, 2), (2, 4, 5)]
    )
    trace = greedy_reduce(pendant, {0, 1}, certify=True)
    assert "eliminate_block" in {s.kind for s in trace.steps}
    yield trace, {0, 1}


def test_greedy_certificates_all_equal():
    # the step-by-step proof against the brute force: every state's own table
    for trace, terms in _certified_runs():
        first = trace.certificates[0]
        assert len(trace.certificates) == len(trace.steps) + 1
        assert all(table == first for table in trace.certificates)
        net = trace.initial
        assert terminal_table(net, terms) == first
        for step in trace.steps:
            net = apply_step(net, step)
            assert terminal_table(net, terms) == first


def test_certified_trace_solves_two_tables(monkeypatch):
    solved = []

    def counted(net, terminals):
        solved.append(net)
        return terminal_table(net, terminals)

    monkeypatch.setattr(reduction, "terminal_table", counted)
    trace = greedy_reduce(cycle(24), {0, 12}, certify=True)
    assert solved == [trace.initial, trace.final]
    solved.clear()
    trace = fan_chain_reduce(12, 2, certify=True).trace
    assert solved == [trace.initial, trace.final]


def test_tampered_step_fails_its_proof(monkeypatch):
    honest = reduction.series_reduce

    def off_by_a_seventh(net, mid, terminals=frozenset()):
        step = honest(net, mid, terminals)
        (e,) = step.added_edges
        return replace(step, added_edges=(Edge(e.u, e.v, e.r + Fraction(1, 7)),))

    monkeypatch.setattr(reduction, "series_reduce", off_by_a_seventh)
    with pytest.raises(ReductionError, match=r"step 1 \(series\) changes a resistance"):
        greedy_reduce(cycle(8), {0, 4}, certify=True)


def test_final_network_is_checked_against_the_first(monkeypatch):
    # the first step's result gains an edge that no step records: every
    # step holds, the final network does not
    honest, start = reduction.apply_step, cycle(8)

    def with_a_shortcut(net, step):
        out = honest(net, step)
        if net is not start:
            return out
        return ResistorNetwork(out.vertices, out.edges + (Edge(0, 4, 1),))

    monkeypatch.setattr(reduction, "apply_step", with_a_shortcut)
    with pytest.raises(ReductionError, match="final network changes a resistance"):
        greedy_reduce(start, {0, 4}, certify=True)


def test_greedy_fan_reaches_star():
    # three terminals leave one star center: the chain collapses around it
    f = fan(5, 2)
    trace = greedy_reduce(f, {0, 4, 5}, use_delta_y=True)
    assert trace.final.n == 4
    oracle = resistance_exact(f, 0, 4)
    assert resistance_exact(trace.final, 0, 4) == oracle


def test_greedy_without_delta_y_stalls_on_fan():
    trace = greedy_reduce(fan(5, 2), {0, 4, 5}, use_delta_y=False)
    assert trace.final == trace.initial


# --- fan chain pipeline ---

def test_fan_chain_matches_direct_solve():
    for m in (2, 3):
        for n in (2, 3, 5):
            fc = fan_chain_reduce(n, m)
            want = resistance_exact(fan(n + 1, m), 0, n)
            assert fc.endpoint_resistance == want


def test_fan_chain_shape():
    fc = fan_chain_reduce(4, 2)
    final = fc.trace.final
    assert len(fc.centers) == 4
    assert len(fc.chain_links) == 5
    assert len(fc.apex_arms) == 4
    # apex hangs off the last center only
    apex = 5
    assert final.degree(apex) == 1
    assert final.neighbors(apex) == (fc.centers[-1],)


def test_fan_chain_tail_arm_bound():
    for m in (2, 3, 4):
        for n in (2, 4, 6):
            fc = fan_chain_reduce(n, m)
            assert 0 < fc.tail_apex_arm < Fraction(1, m**n)


def test_fan_chain_link_identity():
    # twice the last inter-center link equals the endpoint growth when the
    # fan gains one more path vertex
    for m in (2, 3, 4):
        for n in (3, 5, 8):
            fc = fan_chain_reduce(n, m)
            grown = resistance_exact(fan(n + 1, m), 0, n)
            shorter = resistance_exact(fan(n, m), 0, n - 1)
            assert 2 * fc.tail_chain_link == grown - shorter


def test_fan_chain_mirror_symmetry():
    # the chain reads the same from both ends: the final link equals the
    # sum of all the earlier ones
    fc = fan_chain_reduce(6, 3)
    assert fc.chain_links[-1] == sum(fc.chain_links[:-1])


def test_fan_chain_certified():
    fc = fan_chain_reduce(3, 2, certify=True)
    assert len(set(map(str, fc.trace.certificates))) == 1


def test_fan_chain_nested_prefix_identity():
    # dropping the last two rounds reproduces the shorter fan's chain:
    # the first n-1 links of the n-pipeline equal the n-1 pipeline's
    # a1-to-last-center distance
    n, m = 5, 2
    fc_big = fan_chain_reduce(n, m)
    fc_small = fan_chain_reduce(n - 1, m)
    assert sum(fc_big.chain_links[: n - 1]) == sum(fc_small.chain_links[:-1])


# --- trace export ---

def test_trace_json_round_numbers():
    trace = greedy_reduce(cycle(4), {0, 2}, certify=True)
    obj = json.loads(trace_to_json(trace))
    assert obj["initial"]["vertices"] == [0, 1, 2, 3]
    assert [s["kind"] for s in obj["steps"]].count("series") >= 1
    assert len(obj["certificates"]) == len(obj["steps"]) + 1
    assert obj["certificates"][0]["0,2"] == "1"


def test_trace_text_mentions_every_step():
    trace = greedy_reduce(cycle(4), {0, 2})
    text = trace_to_text(trace)
    assert text.count("\n") == len(trace.steps) + 2
    assert "final: 2 vertices" in text

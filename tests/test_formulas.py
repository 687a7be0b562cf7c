"""Closed forms against exact solves."""

import math
from fractions import Fraction

import pytest

from resnet import (
    LADDER,
    block_tower,
    block_tower_decomposition,
    complete_bipartite,
    cone,
    cone_resistance,
    cycle,
    empty_network,
    fan,
    hypercube,
    hypercube_diameter,
    join,
    join_resistance,
    kmn_resistance,
    ladder,
    ladder_endpoint_resistance,
    ladder_gap,
    network_spectrum,
    path,
    resistance_exact,
)


def test_ladder_constants_multiply_to_one():
    assert LADDER.a * LADDER.b == pytest.approx(1.0, abs=1e-15)
    assert LADDER.alpha == LADDER.b


# --- complete bipartite ---

def test_kmn_all_cases_match_oracle():
    for m in range(1, 5):
        for n in range(1, 5):
            net = complete_bipartite(m, n)
            assert kmn_resistance(m, n, "x", "y") == resistance_exact(net, 0, m)
            if m >= 2:
                assert kmn_resistance(m, n, "x", "x") == resistance_exact(net, 0, 1)
            if n >= 2:
                assert kmn_resistance(m, n, "y", "y") == resistance_exact(net, m, m + 1)


def test_kmn_known_values():
    assert kmn_resistance(2, 3, "x", "x") == Fraction(2, 3)
    assert kmn_resistance(2, 3, "x", "y") == Fraction(2, 3)
    assert kmn_resistance(1, 1, "x", "y") == 1


def test_kmn_square_cross_value():
    for m in range(1, 6):
        assert kmn_resistance(m, m, "x", "y") == Fraction(2 * m - 1, m * m)
        assert kmn_resistance(m, m, "x", "y") == kmn_resistance(m, m, "y", "x")


def test_kmn_rejects_degenerate_sides():
    with pytest.raises(ValueError):
        kmn_resistance(0, 3, "x", "y")
    with pytest.raises(ValueError):
        kmn_resistance(1, 3, "x", "x")


# --- join ---

def test_join_single_vertices_make_an_edge():
    s1 = network_spectrum(empty_network(1))
    assert join_resistance(s1, s1, 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_join_within_first_factor():
    sp2 = network_spectrum(path(2))
    se2 = network_spectrum(empty_network(2))
    assert join_resistance(sp2, se2, 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_join_matches_oracle_on_real_joins():
    cases = [
        (path(2), empty_network(2)),
        (empty_network(2), empty_network(3)),
        (path(3), cycle(3)),
    ]
    for g, h in cases:
        net = join(g, h)
        sg, sh = network_spectrum(g), network_spectrum(h)
        for u in range(g.n + h.n):
            for v in range(u + 1, g.n + h.n):
                want = float(resistance_exact(net, u, v))
                assert join_resistance(sg, sh, u, v) == pytest.approx(
                    want, abs=1e-10
                )


def test_join_cross_reproduces_bipartite_formula():
    se2 = network_spectrum(empty_network(2))
    se3 = network_spectrum(empty_network(3))
    assert join_resistance(se2, se3, 0, 2) == pytest.approx(2.0 / 3.0, abs=1e-12)


# --- cone ---

def test_cone_single_base_vertex():
    s1 = network_spectrum(empty_network(1))
    for m in (2, 3, 7):
        assert cone_resistance(s1, m, 0, 1) == pytest.approx(1.0 / m, abs=1e-12)


def test_cone_two_path_vertices():
    sp2 = network_spectrum(path(2))
    assert cone_resistance(sp2, 2, 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_cone_matches_oracle_everywhere():
    for g, m in ((path(4), 2), (cycle(5), 3), (path(3), 4)):
        net = cone(g, m)
        sg = network_spectrum(g)
        for u in range(net.n):
            for v in range(u + 1, net.n):
                want = float(resistance_exact(net, u, v))
                assert cone_resistance(sg, m, u, v) == pytest.approx(
                    want, abs=1e-10
                )


def test_cone_rejects_weak_strength():
    with pytest.raises(ValueError):
        cone_resistance(network_spectrum(path(2)), 1, 0, 1)


# --- ladder ---

def ladder_corner_ids(n):
    lad = ladder(n)
    return (
        lad,
        lad.find_label("(a1,c1)"),
        lad.find_label(f"(a{n},c2)"),
        lad.find_label(f"(a{n},c1)"),
    )


def test_ladder_endpoint_form_matches_oracle():
    for n in range(2, 13):
        lad, u, diag, same = ladder_corner_ids(n)
        want = float(resistance_exact(lad, u, diag))
        assert ladder_endpoint_resistance(n) == pytest.approx(want, abs=1e-12)


def test_ladder_two_rungs_is_the_unit_square():
    assert ladder_endpoint_resistance(2) == pytest.approx(1.0, abs=1e-15)


def test_ladder_gap_matches_oracle_difference():
    for n in range(2, 13):
        lad, u, diag, same = ladder_corner_ids(n)
        want = float(
            resistance_exact(lad, u, diag) - resistance_exact(lad, u, same)
        )
        assert ladder_gap(n) == pytest.approx(want, abs=1e-12)


def test_ladder_gap_small_cases():
    assert ladder_gap(2) == pytest.approx(0.25, abs=1e-15)
    gaps = [ladder_gap(n) for n in range(2, 12)]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_ladder_growth_exceeds_quarter():
    values = [ladder_endpoint_resistance(n) for n in range(2, 13)]
    assert all(b - a > 0.25 for a, b in zip(values, values[1:]))


# --- hypercube diameter ---

def test_hypercube_diameter_small_values():
    assert hypercube_diameter(1) == 1
    assert hypercube_diameter(2) == 1
    assert hypercube_diameter(3) == Fraction(5, 6)


def test_hypercube_diameter_matches_oracle():
    for k in range(1, 6):
        net = hypercube(k)
        assert hypercube_diameter(k) == resistance_exact(net, 0, 2**k - 1)


def test_hypercube_diameter_rejects_bad_dimension():
    with pytest.raises(ValueError):
        hypercube_diameter(0)


# --- decomposition ---

def test_decomposition_residual_exactly_zero():
    # each part from the recurrence against a solve of the network it names
    for n in range(2, 9):
        rep = block_tower_decomposition(n)
        assert rep.residual == 0
        assert rep.lhs == rep.rhs
        tower, lad, fn = block_tower(n), ladder(n), fan(n, 4)
        assert rep.lhs == resistance_exact(
            tower, tower.find_label("(a1,b1)"), tower.find_label(f"(a{n},b3)")
        )
        assert rep.ladder_part == resistance_exact(
            lad, lad.find_label("(a1,c1)"), lad.find_label(f"(a{n},c2)")
        )
        assert rep.fan_part == resistance_exact(
            fn, fn.find_label("a1"), fn.find_label(f"a{n}")
        )


def test_decomposition_baseline_value():
    rep = block_tower_decomposition(2)
    assert rep.lhs == Fraction(5, 6)

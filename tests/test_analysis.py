"""Product formula, diameters, scans, fan bounds, serialization."""

import json
import random
from fractions import Fraction

import pytest

from resnet import (
    BudgetExceededError,
    block_tower,
    cartesian_product,
    conjecture_scan,
    cycle,
    cycle_spectrum,
    diameter_delta_scan,
    diameter_to_csv,
    diameter_to_json,
    fan,
    fan_bounds,
    hypercube,
    ladder,
    ladder_gap,
    network_spectrum,
    path,
    path_spectrum,
    product_resistance,
    resistance_diameter,
    resistance_exact,
    scan_to_csv,
    scan_to_json,
)

from _oracles import random_connected_network, with_holes


# --- product formula ---

def test_product_square_opposite_corners():
    sg = path_spectrum(2)
    sh = network_spectrum(path(2))
    rg = resistance_exact(path(2), 0, 1)
    val = product_resistance(sg, sh, rg, rg, 0, 0, 1, 1)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_product_cube_antipode():
    sg, sh = path_spectrum(2), cycle_spectrum(4)
    rg = resistance_exact(path(2), 0, 1)
    rh = resistance_exact(cycle(4), 0, 2)
    val = product_resistance(sg, sh, rg, rh, 0, 0, 1, 2)
    assert val == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_product_identical_vertices():
    sg, sh = path_spectrum(3), cycle_spectrum(4)
    assert product_resistance(sg, sh, 0, 0, 1, 2, 1, 2) == 0.0


def test_product_matches_oracle_on_random_pairs():
    rng = random.Random(17)
    for trial in range(8):
        g = random_connected_network(rng, max_n=4)
        h = random_connected_network(rng, max_n=4)
        if trial == 7:
            h = with_holes(h)  # the product numbers h's vertices by row
        prod = cartesian_product(g, h)
        sg = network_spectrum(g)
        sh = network_spectrum(h)
        for _ in range(6):
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            x, y = rng.randrange(h.n), rng.randrange(h.n)
            rg = resistance_exact(g, g.vertices[u], g.vertices[v])
            rh = resistance_exact(h, h.vertices[x], h.vertices[y])
            got = product_resistance(sg, sh, rg, rh, u, x, v, y)
            want = float(resistance_exact(prod, u * h.n + x, v * h.n + y))
            assert got == pytest.approx(want, abs=1e-9)


# --- diameter ---

def test_path_diameter_is_its_length():
    rep = resistance_diameter(path(4))
    assert rep.diameter == 3
    assert rep.pairs == ((0, 3),)
    assert rep.label_pairs == (("a1", "a4"),)


def test_spectral_diameter_on_ids_with_holes():
    holes = with_holes(random_connected_network(random.Random(7), max_n=7))
    exact = resistance_diameter(holes, mode="exact")
    spectral = resistance_diameter(holes, mode="spectral")
    assert spectral.pairs == exact.pairs
    assert spectral.diameter == pytest.approx(float(exact.diameter), rel=1e-9)
    assert {v for pair in spectral.pairs for v in pair} <= set(holes.vertices)


def test_cube_diameter_ties():
    rep = resistance_diameter(hypercube(3))
    assert rep.diameter == Fraction(5, 6)
    assert rep.pair_count == 4
    assert all(u ^ v == 7 for u, v in rep.pairs)


def test_tower_diametrical_pairs_are_the_four_corners():
    for n in (3, 4, 6):
        rep = resistance_diameter(block_tower(n))
        assert set(rep.label_pairs) == {
            ("(a1,b1)", f"(a{n},b3)"),
            ("(a1,b2)", f"(a{n},b4)"),
            ("(a1,b3)", f"(a{n},b1)"),
            ("(a1,b4)", f"(a{n},b2)"),
        }


def test_spectral_diameter_agrees_with_exact():
    net = block_tower(4)
    exact = resistance_diameter(net, mode="exact")
    approx = resistance_diameter(net, mode="spectral")
    assert approx.diameter == pytest.approx(float(exact.diameter), abs=1e-9)
    assert set(approx.pairs) == set(exact.pairs)


def test_diameter_rejects_unknown_mode():
    with pytest.raises(ValueError):
        resistance_diameter(path(3), mode="psychic")


# --- scans ---

def test_scan_baseline_row():
    report = conjecture_scan(2, 2)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.n, row.value, row.diff) == (2, Fraction(5, 6), None)


def test_scan_diffs_positive_and_devs_shrink():
    report = conjecture_scan(2, 10)
    diffs = [r.diff for r in report.rows[1:]]
    devs = [r.deviation for r in report.rows[1:]]
    assert all(d > 0 for d in diffs)
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert report.limit == Fraction(1, 4)


@pytest.mark.parametrize("k,n_max", [(1, 16), (2, 12), (3, 10), (4, 8), (5, 6)])
def test_scan_spectral_mode_tracks_exact(k, n_max):
    side = 2**k
    for pair in (None, (0, 1), (side - 1, side // 2)):
        ex = conjecture_scan(k, n_max, pair=pair, mode="exact")
        sp = conjecture_scan(k, n_max, pair=pair, mode="spectral")
        for a, b in zip(ex.rows, sp.rows):
            assert b.value == pytest.approx(float(a.value), abs=1e-9)


def test_scan_respects_budget():
    with pytest.raises(BudgetExceededError):
        conjecture_scan(2, 30, budget=100)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_scan_rows_match_rebuilt_towers(k):
    # the mode recurrence against a fresh solve of each whole tower
    side = 2**k
    n_max = {4: 5, 5: 3}.get(k, 6)
    for pair in (None, (0, 1), (side - 1, side // 2)):
        report = conjecture_scan(k, n_max, pair=pair)
        i, j = report.pair
        prev = None
        for row in report.rows:
            tower = cartesian_product(path(row.n), hypercube(k))
            want = resistance_exact(tower, i, (row.n - 1) * side + j)
            assert row.value == want, (k, pair, row.n)
            if prev is not None:
                assert row.diff == want - prev
                assert row.deviation == abs(want - prev - Fraction(1, side))
            prev = want


def test_scan_spectral_tall_tower_tracks_exact():
    # at n = 1000 the float recurrence's a_n overflows to inf, and its
    # vanishing term must go to 0 without costing digits
    ex = conjecture_scan(2, 1000, mode="exact", budget=4000)
    sp = conjecture_scan(2, 1000, mode="spectral", budget=4000)
    assert len(sp.rows) == 999
    for a, b in zip(ex.rows, sp.rows):
        assert b.value == pytest.approx(float(a.value), rel=1e-12)


def test_scan_spectral_deviation_keeps_its_digits():
    # R_n - R_(n-1) - 1/4 in floats cancels every digit of a deviation
    # below 1e-16; the recurrence's per-mode steps keep them
    ex = conjecture_scan(2, 60, mode="exact")
    sp = conjecture_scan(2, 60, mode="spectral")
    for a, b in zip(ex.rows[1:], sp.rows[1:]):
        want = float(a.deviation)
        assert abs(b.deviation - want) <= 1e-12 * want, a.n


def test_scan_custom_pair():
    # adjacent cycle vertices still converge to the same limit
    report = conjecture_scan(2, 6, pair=(0, 1))
    assert all(r.diff > 0 for r in report.rows[1:])
    base = cartesian_product(path(2), hypercube(2))
    assert report.rows[0].value == resistance_exact(base, 0, 5)


def test_diameter_delta_scan_matches_endpoint_scan():
    rep = diameter_delta_scan(6)
    assert rep.endpoint_match
    assert rep.rows[0].diameter == Fraction(5, 6)
    deltas = [r.delta for r in rep.rows[1:]]
    assert all(d > 0 for d in deltas)


# --- fan bounds ---

def test_fan_bounds_hold_small_grid():
    for m in (2, 3, 4):
        for n in range(2, 8):
            fb = fan_bounds(n, m)
            assert fb.all_hold, (n, m)


def test_fan_bound_values_match_oracle_quantities():
    for m in (2, 3, 4):
        for n in range(2, 8):
            fb = fan_bounds(n, m)
            small, big = fan(n, m), fan(n + 1, m)
            ends, apex = resistance_exact(small, 0, n - 1), resistance_exact(small, 0, n)
            assert fb.endpoint_step == resistance_exact(big, 0, n) - ends, (n, m)
            assert fb.apex_step == apex - resistance_exact(big, 0, n + 1), (n, m)
            assert fb.apex_defect == 2 * apex - ends, (n, m)


@pytest.mark.parametrize("m", [0, 1, 2.5])
def test_fan_bounds_reject_a_non_integer_or_weak_strength(m):
    with pytest.raises(ValueError):
        fan_bounds(4, m)


def test_corner_pair_ordering_along_the_cycle():
    # from a bottom corner, the top corner two cycle steps away is strictly
    # the farthest; one step away and zero steps away are closer
    for n in (3, 5, 8):
        g = block_tower(n)
        a1b1 = g.find_label("(a1,b1)")
        top = {j: g.find_label(f"(a{n},b{j})") for j in (1, 2, 3)}
        far = resistance_exact(g, a1b1, top[3])
        assert resistance_exact(g, a1b1, top[2]) < far
        assert resistance_exact(g, a1b1, top[1]) < far


def test_corner_gap_identity_with_ladder_and_fan():
    # the excess of the far corner over the near corner equals half the
    # ladder gap minus half the fan defect at strength 4
    for n in (3, 5, 7, 10):
        g = block_tower(n)
        a1b1 = g.find_label("(a1,b1)")
        b3 = g.find_label(f"(a{n},b3)")
        b2 = g.find_label(f"(a{n},b2)")
        corner_gap = float(
            resistance_exact(g, a1b1, b3) - resistance_exact(g, a1b1, b2)
        )
        fb = fan_bounds(n, 4)
        want = 0.5 * ladder_gap(n) - 0.5 * float(fb.apex_defect)
        assert corner_gap == pytest.approx(want, abs=1e-12)


def test_tower_growth_decreases_fixed_pair():
    # adding a level can only lower the resistance between existing corners
    for n in (3, 4, 6):
        g_small = block_tower(n)
        g_big = block_tower(n + 1)
        u = g_small.find_label("(a1,b1)")
        v = g_small.find_label(f"(a{n},b3)")
        assert resistance_exact(g_big, u, v) <= resistance_exact(g_small, u, v)


# --- serialization ---

def test_scan_csv_layout():
    text = scan_to_csv(conjecture_scan(2, 4))
    lines = text.strip().split("\n")
    assert lines[0] == "n,R_n,diff,abs_dev_from_limit"
    assert lines[1] == "2,5/6,,"
    assert lines[2].startswith("3,1,1/6,1/12")
    assert len(lines) == 4


def test_scan_json_layout():
    obj = json.loads(scan_to_json(conjecture_scan(2, 3)))
    assert obj["k"] == 2 and obj["limit"] == "1/4"
    assert obj["rows"][0] == {
        "n": 2,
        "R_n": "5/6",
        "diff": None,
        "abs_dev_from_limit": None,
    }


def test_scan_output_is_stable():
    a = scan_to_csv(conjecture_scan(2, 6))
    b = scan_to_csv(conjecture_scan(2, 6))
    assert a == b


def test_diameter_serialization():
    rep = resistance_diameter(hypercube(2))
    csv_text = diameter_to_csv(rep)
    assert csv_text.splitlines()[0] == "u,v,label_u,label_v,R"
    assert len(csv_text.splitlines()) == 3
    obj = json.loads(diameter_to_json(rep))
    assert obj["diameter"] == "1" and len(obj["pairs"]) == 2

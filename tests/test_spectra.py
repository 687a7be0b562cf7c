"""Spectral conventions: orderings, pinned bases, residuals, agreement."""

import math
import random

import numpy as np
import pytest

from resnet import (
    DisconnectedNetworkError,
    ResistorNetwork,
    build_laplacian,
    cartesian_product,
    clique2,
    cycle,
    cycle_spectrum,
    fan,
    generic_spectrum,
    hypercube,
    hypercube_spectrum,
    ladder,
    network_spectrum,
    path,
    path_spectrum,
    product_spectrum,
    resistance_exact,
    resistance_spectral,
)
from resnet.spectra import EIGEN_RESIDUAL_TOL, ORTHONORMALITY_TOL, _nonkernel

from _oracles import pinv_resistance, random_connected_network, with_holes

HALF_ROOT2 = math.sqrt(2.0) / 2.0


def check_spectrum_against(lap, spec):
    lap = np.array(lap, dtype=float)
    vecs = spec.vectors
    gram = vecs @ vecs.T
    assert np.max(np.abs(gram - np.eye(spec.n))) < ORTHONORMALITY_TOL
    for k in range(spec.n):
        residual = lap @ vecs[k] - spec.values[k] * vecs[k]
        assert np.max(np.abs(residual)) < EIGEN_RESIDUAL_TOL
    assert all(a >= b for a, b in zip(spec.values, spec.values[1:]))


def test_path_spectrum_formula_and_order():
    n = 6
    spec = path_spectrum(n)
    want = sorted((2 - 2 * math.cos(math.pi * p / n) for p in range(n)), reverse=True)
    assert np.allclose(spec.values, want, atol=1e-12)
    assert spec.values[-1] == 0.0
    check_spectrum_against(build_laplacian(path(n)), spec)


def test_constant_vector_sits_last():
    for spec in (path_spectrum(5), cycle_spectrum(6), hypercube_spectrum(3)):
        last = spec.vectors[-1]
        assert np.allclose(last, last[0])
        assert last[0] > 0
        # so a pair query reads the nonzero part without copying it
        vals, vecs = _nonkernel(spec)
        assert np.shares_memory(vals, spec.values)
        assert np.shares_memory(vecs, spec.vectors)


def test_cycle4_pinned_basis():
    spec = cycle_spectrum(4)
    assert list(spec.values) == [4.0, 2.0, 2.0, 0.0]
    assert np.array_equal(
        spec.vectors,
        np.array(
            [
                [0.5, -0.5, 0.5, -0.5],
                [-0.5, -0.5, 0.5, 0.5],
                [-0.5, 0.5, 0.5, -0.5],
                [0.5, 0.5, 0.5, 0.5],
            ]
        ),
    )
    check_spectrum_against(build_laplacian(cycle(4)), spec)


def test_clique2_spectrum():
    spec = network_spectrum(clique2())
    assert np.allclose(spec.values, [2.0, 0.0])
    check_spectrum_against(build_laplacian(clique2()), spec)


def test_general_cycle_spectrum():
    for n in (3, 5, 6, 8):
        check_spectrum_against(
            build_laplacian(cycle(n)), cycle_spectrum(n)
        )


def test_product_spectrum_is_factor_sums():
    sg, sh = path_spectrum(3), cycle_spectrum(4)
    spec = product_spectrum(sg, sh)
    want = sorted(
        (float(a + b) for a in sg.values for b in sh.values), reverse=True
    )
    assert np.allclose(spec.values, want, atol=1e-12)
    lap = build_laplacian(cartesian_product(path(3), cycle(4)))
    check_spectrum_against(lap, spec)


def test_hypercube_spectrum_entries_all_same_magnitude():
    k = 3
    spec = hypercube_spectrum(k)
    assert np.allclose(np.abs(spec.vectors), HALF_ROOT2**k, atol=1e-12)
    assert np.allclose(sorted(spec.values), sorted(
        2.0 * bin(i).count("1") for i in range(2**k)
    ), atol=1e-12)
    check_spectrum_against(build_laplacian(hypercube(k)), spec)


def test_generic_spectrum_matches_structured():
    lap = build_laplacian(ladder(4))
    gen = generic_spectrum(lap)
    structured = product_spectrum(path_spectrum(4), network_spectrum(clique2()))
    assert np.allclose(gen.values, structured.values, atol=1e-10)
    check_spectrum_against(lap, gen)


def test_generic_spectrum_rejects_asymmetric():
    with pytest.raises(ValueError):
        generic_spectrum([[1.0, 0.5], [0.0, 1.0]])


def test_spectral_resistance_agrees_with_exact():
    rng = random.Random(11)
    for _ in range(15):
        net = random_connected_network(rng, max_n=7)
        spec = network_spectrum(net)
        u, v = rng.sample(net.vertices, 2)
        want = float(resistance_exact(net, u, v))
        assert resistance_spectral(spec, u, v) == pytest.approx(want, abs=1e-9)


def test_spectral_resistance_on_ids_with_holes():
    holes = with_holes(random_connected_network(random.Random(7), max_n=7))
    assert holes.vertices != tuple(range(holes.n))
    spec = network_spectrum(holes)
    row = holes.index
    for i, u in enumerate(holes.vertices):
        for v in holes.vertices[i + 1 :]:
            got = resistance_spectral(spec, row[u], row[v])
            assert got == pytest.approx(float(resistance_exact(holes, u, v)), abs=1e-9)
            assert got == pytest.approx(pinv_resistance(holes, u, v), abs=1e-9)


def test_spectral_resistance_on_structured_spectra():
    # ids follow (path, cycle) row-major order: the far corner from
    # (a1,b1)=0 is (a2,b3)=6, while 7=(a2,b4) is one cycle step closer
    spec = product_spectrum(path_spectrum(2), cycle_spectrum(4))
    assert resistance_spectral(spec, 0, 6) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert resistance_spectral(spec, 0, 7) == pytest.approx(3.0 / 4.0, abs=1e-12)
    assert resistance_spectral(spec, 3, 3) == 0.0


def test_disconnected_spectrum_refuses_resistance():
    net = ResistorNetwork.build(4, [(0, 1, 1), (2, 3, 1)])
    spec = network_spectrum(net)
    with pytest.raises(DisconnectedNetworkError):
        resistance_spectral(spec, 0, 2)


def test_fan_spectrum_well_conditioned():
    net = fan(6, 3)
    spec = network_spectrum(net)
    check_spectrum_against(build_laplacian(net), spec)

"""Laplacian eigensystems: closed forms, Kronecker products, spectral resistance.

Every ``Spectrum`` lists eigenvalues in nonincreasing order with matching
orthonormal eigenvectors, and the zero eigenvalue of a connected network sits
last with the constant eigenvector ``1/sqrt(n)``. That convention is what the
product and join formulas elsewhere in the package rely on.

Tolerances used by the test suite: orthonormality 1e-12, eigen residual
1e-10, agreement with the exact solver 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedNetworkError
from .network import ResistorNetwork, build_laplacian

__all__ = [
    "Spectrum",
    "path_spectrum",
    "cycle_spectrum",
    "clique2_spectrum",
    "hypercube_spectrum",
    "product_spectrum",
    "generic_spectrum",
    "network_spectrum",
    "resistance_spectral",
    "ORTHONORMALITY_TOL",
    "EIGEN_RESIDUAL_TOL",
    "EXACT_AGREEMENT_TOL",
]

ORTHONORMALITY_TOL = 1e-12
EIGEN_RESIDUAL_TOL = 1e-10
EXACT_AGREEMENT_TOL = 1e-9
_KERNEL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (nonincreasing) and eigenvectors; ``vectors[k]`` pairs
    with ``values[k]``; column j is position j (``net.vertices[j]``)."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.values)


def path_spectrum(n: int) -> Spectrum:
    """Closed-form eigensystem of the unit path.

    Eigenvalues are 2 - 2cos(p*pi/n); eigenvectors are the half-shifted
    cosine basis.
    """
    if n < 1:
        raise ValueError("path_spectrum needs n >= 1")
    ranks = np.arange(n - 1, -1, -1)
    values = 2.0 - 2.0 * np.cos(np.pi * ranks / n)
    values[-1] = 0.0
    j = np.arange(n)
    vectors = np.empty((n, n))
    for row, p in enumerate(ranks):
        if p == 0:
            vectors[row] = 1.0 / math.sqrt(n)
        else:
            vectors[row] = math.sqrt(2.0 / n) * np.cos(np.pi * p * (j + 0.5) / n)
    return Spectrum(values, vectors)


# Sign basis for the 4-cycle with entries +-1/2. Downstream product tests
# depend on these exact vectors, so they are pinned instead of derived from
# the generic cos/sin pairs (which span the same eigenspaces).
_C4_VALUES = np.array([4.0, 2.0, 2.0, 0.0])
_C4_VECTORS = np.array(
    [
        [0.5, -0.5, 0.5, -0.5],
        [-0.5, -0.5, 0.5, 0.5],
        [-0.5, 0.5, 0.5, -0.5],
        [0.5, 0.5, 0.5, 0.5],
    ]
)


def cycle_spectrum(n: int) -> Spectrum:
    """Closed-form eigensystem of the unit cycle (doubled edge when n = 2)."""
    if n < 2:
        raise ValueError("cycle_spectrum needs n >= 2")
    if n == 4:
        return Spectrum(_C4_VALUES.copy(), _C4_VECTORS.copy())
    j = np.arange(n)
    items = []  # (value, tie rank, vector)
    for p in range(n // 2 + 1):
        lam = 2.0 - 2.0 * math.cos(2.0 * math.pi * p / n)
        if p == 0:
            items.append((0.0, 0, np.full(n, 1.0 / math.sqrt(n))))
        elif 2 * p == n:
            items.append((lam, 0, np.where(j % 2 == 0, 1.0, -1.0) / math.sqrt(n)))
        else:
            c = math.sqrt(2.0 / n)
            items.append((lam, 0, c * np.cos(2.0 * math.pi * p * j / n)))
            items.append((lam, 1, c * np.sin(2.0 * math.pi * p * j / n)))
    items.sort(key=lambda t: (-t[0], t[1]))
    values = np.array([t[0] for t in items])
    vectors = np.array([t[2] for t in items])
    return Spectrum(values, vectors)


def clique2_spectrum() -> Spectrum:
    """Eigensystem of a single unit edge."""
    h = math.sqrt(2.0) / 2.0
    return Spectrum(np.array([2.0, 0.0]), np.array([[-h, h], [h, h]]))


def product_spectrum(sg: Spectrum, sh: Spectrum) -> Spectrum:
    """Eigensystem of a Cartesian product from its factors.

    Eigenvalues are all sums lambda_i + mu_j; eigenvectors are Kronecker
    products laid out to match the product builder's row-major vertex ids.
    Ties sort by the factor index pair, so results are deterministic and the
    constant vector stays last.
    """
    n, m = sg.n, sh.n
    order = sorted(
        ((i, j) for i in range(n) for j in range(m)),
        key=lambda t: (-(sg.values[t[0]] + sh.values[t[1]]), t[0], t[1]),
    )
    values = np.array([sg.values[i] + sh.values[j] for i, j in order])
    vectors = np.empty((n * m, n * m))
    for row, (i, j) in enumerate(order):
        vectors[row] = np.kron(sg.vectors[i], sh.vectors[j])
    return Spectrum(values, vectors)


def hypercube_spectrum(k: int) -> Spectrum:
    """k-fold Kronecker power of the single-edge eigensystem.

    Every eigenvector entry has magnitude (sqrt(2)/2)^k; eigenvalue 2i has
    multiplicity C(k, i).
    """
    if k < 1:
        raise ValueError("hypercube_spectrum needs k >= 1")
    s = clique2_spectrum()
    for _ in range(k - 1):
        s = product_spectrum(s, clique2_spectrum())
    return s


def _kernel_mask(values: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.max(np.abs(values)))) if len(values) else 1.0
    return np.abs(values) < _KERNEL_TOL * scale


def _nonkernel(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero eigenvalues and their eigenvectors; the kernel must be simple."""
    kernel = _kernel_mask(spec.values)
    nzero = int(kernel.sum())
    if nzero != 1:
        raise DisconnectedNetworkError(
            f"spectrum has {nzero} zero eigenvalues; effective resistance "
            "needs exactly one"
        )
    if kernel[-1]:  # where every positive semidefinite spectrum puts it: no copy
        return spec.values[:-1], spec.vectors[:-1]
    keep = ~kernel
    return spec.values[keep], spec.vectors[keep]


def _orthonormalize_kernel(values: np.ndarray, vectors: np.ndarray) -> None:
    """Rotate the zero eigenspace so the constant vector sits last in it.

    For an ordinary (positive semidefinite) Laplacian the kernel occupies
    the final rows, so the constant vector ends up at position n-1. Gadget
    networks can make the matrix indefinite; the kernel is then handled
    wherever it sits in the ordering.
    """
    n = len(values)
    idx = np.flatnonzero(_kernel_mask(values))
    c = len(idx)
    if c == 0:
        return
    values[idx] = 0.0
    const = np.full(n, 1.0 / math.sqrt(n))
    k_rows = vectors[idx]
    coef = k_rows @ const
    if np.linalg.norm(coef) < 0.9:
        return  # constant vector not in the kernel; not a Laplacian
    if c == 1:
        vectors[idx[-1]] = const
        return
    comp = k_rows - np.outer(coef, const)
    _, _, vt = np.linalg.svd(comp, full_matrices=False)
    vectors[idx[:-1]] = vt[: c - 1]
    vectors[idx[-1]] = const


def generic_spectrum(lap) -> Spectrum:
    """Full eigensystem of any symmetric Laplacian-like matrix.

    Accepts a float ndarray or a rational list-of-lists. Eigenvalues that
    are numerically zero are clamped to exactly zero and their eigenspace is
    rotated so the constant vector is the final eigenvector.
    """
    a = np.array(lap, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("laplacian must be a square matrix")
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("laplacian must be symmetric")
    w, v = np.linalg.eigh(a)
    values = w[::-1].copy()
    vectors = v.T[::-1].copy()
    _orthonormalize_kernel(values, vectors)
    return Spectrum(values, vectors)


def network_spectrum(net: ResistorNetwork) -> Spectrum:
    """Eigensystem of a network's weighted Laplacian; eigenvector entries
    follow ``net.index`` (sorted ids), whatever the ids are."""
    return generic_spectrum(build_laplacian(net))


def resistance_spectral(spec: Spectrum, u: int, v: int) -> float:
    """Effective resistance between positions u and v of a spectrum.

    Sums (Psi_ku - Psi_kv)^2 / lambda_k over the nonzero eigenvalues. For a
    network's spectrum, pass rows (``net.index[id]``), not ids. The zero
    eigenvalue must be simple, otherwise the underlying network is
    disconnected and the value is undefined.
    """
    n = spec.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex pair ({u}, {v}) out of range for n={n}")
    if u == v:
        return 0.0
    vals, vecs = _nonkernel(spec)
    diffs = vecs[:, u] - vecs[:, v]
    return float(np.sum(diffs * diffs / vals))

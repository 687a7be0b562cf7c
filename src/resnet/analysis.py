"""Product-formula evaluation, resistance diameters, and convergence scans.

The scans walk the tower family P_n x Q_k (path times hypercube, Cartesian
product) and track how the corner-to-corner resistance grows with n. The
increments approach 1/2**k from below; reports carry both the increments
and their deviation from that limit so the approach is visible row by row.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, MalformedNetworkError
from .exact import resistance_matrix_exact
from .formulas import _cube_modes, _tower_values
from .network import ResistorNetwork, block_tower
from .spectra import Spectrum, _nonkernel, hypercube_spectrum, network_spectrum

__all__ = [
    "DEFAULT_VERTEX_BUDGET",
    "DIAMETER_TIE_RTOL",
    "product_resistance",
    "DiameterReport",
    "resistance_diameter",
    "ScanRow",
    "ScanReport",
    "conjecture_scan",
    "DeltaRow",
    "DiameterDeltaReport",
    "diameter_delta_scan",
    "FanBounds",
    "fan_bounds",
    "scan_to_csv",
    "scan_to_json",
    "diameter_to_csv",
    "diameter_to_json",
]

DEFAULT_VERTEX_BUDGET = 4096
DIAMETER_TIE_RTOL = 1e-9


def product_resistance(
    sg: Spectrum,
    sh: Spectrum,
    rg_uv,
    rh_xy,
    u: int,
    x: int,
    v: int,
    y: int,
) -> float:
    """Resistance between (u, x) and (v, y) in the Cartesian product.

    Takes the two factor spectra plus the in-factor resistances R_G[u, v]
    and R_H[x, y], and adds the cross term summed over non-constant
    eigenvector pairs:

        R = R_G[u,v]/m + R_H[x,y]/n
            + sum_{p,q} (Psi_pu Phi_qx - Psi_pv Phi_qy)^2 / (lambda_p + mu_q)

    Both factors must be connected.
    """
    n, m = sg.n, sh.n
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"first-factor ids must lie in [0, {n})")
    if not (0 <= x < m and 0 <= y < m):
        raise ValueError(f"second-factor ids must lie in [0, {m})")
    gvals, gvecs = _nonkernel(sg)
    hvals, hvecs = _nonkernel(sh)
    if u == v and x == y:
        return 0.0
    cross = np.outer(gvecs[:, u], hvecs[:, x]) - np.outer(gvecs[:, v], hvecs[:, y])
    denom = gvals[:, None] + hvals[None, :]
    total = float(rg_uv) / m + float(rh_xy) / n
    return total + float((cross * cross / denom).sum())


# ---------------------------------------------------------------------------
# resistance diameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiameterReport:
    """Largest pairwise resistance together with every pair attaining it."""

    diameter: object
    pairs: tuple[tuple[int, int], ...]
    label_pairs: tuple[tuple[str, str], ...]
    exact: bool

    @property
    def pair_count(self) -> int:
        return len(self.pairs)


def resistance_diameter(net: ResistorNetwork, mode: str = "exact") -> DiameterReport:
    """All-pairs maximum resistance with its complete tie set.

    Pairs are vertex ids in both modes. Exact mode compares rationals, so
    ties are genuine equalities. Spectral mode works in floats and admits
    into the tie set any pair within a 1e-9 relative band of the maximum.
    """
    if mode == "exact":
        table = resistance_matrix_exact(net)
        best = max((r for _, r in table.items()), default=None)
        pairs = tuple(pair for pair, r in table.items() if r == best)
    elif mode == "spectral":
        vals, vecs = _nonkernel(network_spectrum(net))
        gram = vecs.T @ (vecs / vals[:, None])
        d = np.diag(gram)
        rmat = d[:, None] + d[None, :] - 2.0 * gram
        best = float(np.max(rmat))
        cut = best - DIAMETER_TIE_RTOL * best
        uu, vv = np.nonzero(np.triu(rmat >= cut, k=1))
        pairs = tuple((net.vertices[a], net.vertices[b]) for a, b in zip(uu, vv))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not pairs:
        raise MalformedNetworkError("network has no vertex pair")
    label_pairs = tuple(
        (net.label_of(u), net.label_of(v)) for u, v in pairs
    )
    return DiameterReport(
        diameter=best,
        pairs=pairs,
        label_pairs=label_pairs,
        exact=(mode == "exact"),
    )


# ---------------------------------------------------------------------------
# convergence scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    """One tower height: resistance, growth from the previous height, and
    that growth's distance from the limiting increment."""

    n: int
    value: object
    diff: object | None
    deviation: object | None


@dataclass(frozen=True)
class ScanReport:
    k: int
    pair: tuple[int, int]
    mode: str
    limit: Fraction
    rows: tuple[ScanRow, ...]

    @property
    def last_diff(self):
        return self.rows[-1].diff

    @property
    def last_deviation(self):
        return self.rows[-1].deviation


def conjecture_scan(
    k: int,
    n_max: int,
    pair: tuple[int, int] | None = None,
    mode: str = "exact",
    budget: int | None = None,
) -> ScanReport:
    """Corner resistance of the path-times-hypercube tower for n = 2..n_max.

    Each row carries R_n between (a1, b_i) and (a_n, b_j); the first row is
    the baseline and subsequent rows add diff = R_n - R_{n-1} and
    |diff - 1/2**k|. The pair defaults to an antipodal hypercube pair. No
    tower is built: exact mode runs ``_tower_values`` on ``_cube_modes``,
    spectral mode on the eigenpairs of ``hypercube_spectrum(k)``; in both,
    diff is 1/2**k plus the recurrence's step, which keeps a float deviation's
    digits. The vertex budget still caps the largest tower's n_max * 2**k
    vertices; exceeding it raises.
    """
    if k < 1:
        raise MalformedNetworkError("k must be at least 1")
    if n_max < 2:
        raise MalformedNetworkError("n_max must be at least 2")
    if mode not in ("exact", "spectral"):
        raise ValueError(f"unknown mode {mode!r}")
    side = 2**k
    if pair is None:
        pair = (0, side - 1)
    i, j = pair
    if not (0 <= i < side and 0 <= j < side):
        raise MalformedNetworkError(f"pair ids must lie in [0, {side})")
    cap = DEFAULT_VERTEX_BUDGET if budget is None else budget
    if n_max * side > cap:
        raise BudgetExceededError(
            f"largest tower has {n_max * side} vertices, over the budget of {cap}"
        )
    limit = Fraction(1, side)
    if mode == "exact":
        modes, unit = _cube_modes(k, (i ^ j).bit_count()), limit
    else:
        vals, vecs = _nonkernel(hypercube_spectrum(k))
        modes = [
            (mu, a * a + b * b, a * b)
            for mu, a, b in zip(vals.tolist(), vecs[:, i].tolist(), vecs[:, j].tolist())
        ]
        unit = float(limit)
    values, steps = _tower_values(modes, unit, n_max)
    rows = [ScanRow(n=2, value=values[0], diff=None, deviation=None)] + [
        ScanRow(n=n, value=val, diff=limit + step, deviation=abs(step))
        for n, val, step in zip(range(3, n_max + 1), values[1:], steps)
    ]
    return ScanReport(k=k, pair=(i, j), mode=mode, limit=limit, rows=tuple(rows))


@dataclass(frozen=True)
class DeltaRow:
    n: int
    diameter: Fraction
    delta: Fraction | None


@dataclass(frozen=True)
class DiameterDeltaReport:
    rows: tuple[DeltaRow, ...]
    endpoint_match: bool


def diameter_delta_scan(n_max: int) -> DiameterDeltaReport:
    """Growth of the square tower's resistance diameter, height by height.

    Runs exact diameters of the four-cycle towers for n = 2..n_max and
    cross-checks each diameter against the corner-pair scan at k = 2: the
    corner pairs are the diametrical pairs, so the two value columns must
    agree exactly. The report records whether they did.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    rows = []
    prev = None
    for n in range(2, n_max + 1):
        rep = resistance_diameter(block_tower(n), mode="exact")
        d = rep.diameter
        rows.append(DeltaRow(n=n, diameter=d, delta=None if prev is None else d - prev))
        prev = d
    scan = conjecture_scan(k=2, n_max=n_max, mode="exact")
    match = all(
        row.diameter == srow.value for row, srow in zip(rows, scan.rows)
    )
    return DiameterDeltaReport(rows=tuple(rows), endpoint_match=match)


# ---------------------------------------------------------------------------
# fan bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FanBounds:
    """Exact decay checks for the fan with n path vertices, strength m.

    endpoint_step: how much the end-to-end resistance grows with one more
    path vertex; apex_step: how much the end-to-apex resistance shrinks;
    apex_defect: twice end-to-apex minus end-to-end at fixed n. Each sits
    in an open interval whose upper end decays like m**-n.
    """

    n: int
    m: int
    endpoint_step: Fraction
    apex_step: Fraction
    apex_defect: Fraction

    @property
    def endpoint_step_ok(self) -> bool:
        return Fraction(0) < self.endpoint_step < Fraction(2, self.m**self.n)

    @property
    def apex_step_ok(self) -> bool:
        return Fraction(0) < self.apex_step < Fraction(1, self.m**self.n)

    @property
    def apex_defect_ok(self) -> bool:
        return Fraction(0) < self.apex_defect < Fraction(2, self.m**self.n)

    @property
    def all_hold(self) -> bool:
        return self.endpoint_step_ok and self.apex_step_ok and self.apex_defect_ok


def fan_bounds(n: int, m: int) -> FanBounds:
    """Evaluate the three fan decay quantities exactly. Grounded at the apex,
    the fan is the path block L_P + m*I: end-to-end resistance is the mode
    (m, 2, 1) of ``_tower_values`` and end-to-apex resistance (m, 1, 0)."""
    if n < 2:
        raise ValueError("the fan needs at least two path vertices")
    if not isinstance(m, int) or m <= 1:
        raise MalformedNetworkError("fan needs an integer m > 1")
    ends, ends_steps = _tower_values([(Fraction(m), 2, 1)], 0, n + 1)
    apex, apex_steps = _tower_values([(Fraction(m), 1, 0)], 0, n + 1)
    return FanBounds(
        n=n,
        m=m,
        endpoint_step=ends_steps[-1],
        apex_step=-apex_steps[-1],
        apex_defect=2 * apex[-2] - ends[-2],
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _cell(x) -> str:
    return "" if x is None else str(x)


def _jcell(x):
    if x is None or isinstance(x, (int, float)):
        return x
    return str(x)


def scan_to_csv(report: ScanReport) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["n", "R_n", "diff", "abs_dev_from_limit"])
    for row in report.rows:
        w.writerow([row.n, _cell(row.value), _cell(row.diff), _cell(row.deviation)])
    return out.getvalue()


def scan_to_json(report: ScanReport) -> str:
    obj = {
        "k": report.k,
        "pair": list(report.pair),
        "mode": report.mode,
        "limit": str(report.limit),
        "rows": [
            {
                "n": row.n,
                "R_n": _jcell(row.value),
                "diff": _jcell(row.diff),
                "abs_dev_from_limit": _jcell(row.deviation),
            }
            for row in report.rows
        ],
    }
    return json.dumps(obj, indent=2)


def diameter_to_csv(report: DiameterReport) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["u", "v", "label_u", "label_v", "R"])
    for (u, v), (lu, lv) in zip(report.pairs, report.label_pairs):
        w.writerow([u, v, lu, lv, _cell(report.diameter)])
    return out.getvalue()


def diameter_to_json(report: DiameterReport) -> str:
    obj = {
        "diameter": _jcell(report.diameter),
        "exact": report.exact,
        "pairs": [
            {"u": u, "v": v, "label_u": lu, "label_v": lv}
            for (u, v), (lu, lv) in zip(report.pairs, report.label_pairs)
        ],
    }
    return json.dumps(obj, indent=2)

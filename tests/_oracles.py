"""Independent reference values for the test suite.

The resistance oracle here goes through numpy's pseudoinverse and touches
none of the package's solver code, so agreement between the two is a real
cross-check rather than the same algorithm twice.
"""

from fractions import Fraction
import random

import numpy as np

from resnet import Edge, ResistorNetwork

# resistances drawn for random networks; kept small so exact arithmetic
# stays fast and parallel/series results remain readable
WEIGHT_POOL = [
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
    Fraction(5, 4),
]


def pinv_resistance(net, u, v):
    """Effective resistance via numpy.linalg.pinv on the conductance matrix."""
    n = net.n
    index = {vid: k for k, vid in enumerate(net.vertices)}
    lap = np.zeros((n, n))
    for e in net.edges:
        g = float(e.conductance)
        a, b = index[e.u], index[e.v]
        lap[a, a] += g
        lap[b, b] += g
        lap[a, b] -= g
        lap[b, a] -= g
    plus = np.linalg.pinv(lap)
    a, b = index[u], index[v]
    return plus[a, a] + plus[b, b] - 2.0 * plus[a, b]


def pinv_resistance_matrix(net):
    """All-pairs float resistances, same pseudoinverse route."""
    n = net.n
    index = {vid: k for k, vid in enumerate(net.vertices)}
    lap = np.zeros((n, n))
    for e in net.edges:
        g = float(e.conductance)
        a, b = index[e.u], index[e.v]
        lap[a, a] += g
        lap[b, b] += g
        lap[a, b] -= g
        lap[b, a] -= g
    plus = np.linalg.pinv(lap)
    d = np.diag(plus)
    return d[:, None] + d[None, :] - 2.0 * plus, index


def random_connected_network(rng: random.Random, max_n: int = 8,
                             extra_edges: int = 3) -> ResistorNetwork:
    """Random tree plus a few chords, rational weights from WEIGHT_POOL."""
    n = rng.randint(2, max_n)
    edges = []
    for i in range(1, n):
        parent = rng.randrange(i)
        edges.append((parent, i, rng.choice(WEIGHT_POOL)))
    for _ in range(rng.randint(0, extra_edges)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            edges.append((a, b, rng.choice(WEIGHT_POOL)))
    return ResistorNetwork.build(n, edges)


def with_holes(net, ids=(0, 3, 7, 8, 12, 20, 31)) -> ResistorNetwork:
    """The same network with vertex k renamed ids[k]: ids with holes, such as
    reductions leave. ``net`` has dense ids and at most len(ids) vertices."""
    return ResistorNetwork(
        ids[: net.n], tuple(Edge(ids[e.u], ids[e.v], e.r, e.gadget) for e in net.edges)
    )

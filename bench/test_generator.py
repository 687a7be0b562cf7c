"""Self-test of the seeded op generator.

Run from the repository root:  python3 -m pytest -q bench/test_generator.py
"""

import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS, Generator  # noqa: E402


def op_list(workload, seed, rounds=2):
    gen = Generator(workload, seed, "work")
    return [[op.describe() for op in gen.round(r)] for r in range(rounds)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_op_list(workload):
    assert op_list(workload, 7) == op_list(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_op_list(workload):
    assert op_list(workload, 7) != op_list(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_round_holds_the_same_shapes(workload):
    rounds = op_list(workload, 3, rounds=3)
    shapes = [Counter(desc[1] for desc in ops) for ops in rounds]
    assert shapes[0] == shapes[1] == shapes[2]


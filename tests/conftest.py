"""Shared test corpus: hand-built instances with known spectra, random
Sherrington-Kirkpatrick draws, toy two-set models, and a degeneracy ladder
n0 in {1, 2, 4, 2^(N/2)}."""

import numpy as np
import pytest

from shortpath import instances

# one PASS/FAIL line per acceptance criterion, echoed after the test summary
# (filled in by tests/test_acceptance.py)
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line(line)


def dense_x(n):
    """The 0/1 matrix of X = sum_i X_i, built entry by entry."""
    dim = 1 << n
    x = np.zeros((dim, dim))
    for u in range(dim):
        for i in range(n):
            x[u ^ (1 << i), u] += 1.0
    return x


def hand_single_term():
    """N=2, one term Z0 Z1 with weight +1: E0=-1, ground {01, 10}, gap 2."""
    return instances.build_instance(2, 2, [((0, 1), 1.0)])


def hand_triangle():
    """Frustrated triangle, all weights +1: E0=-1, n0=6, single excited level +3."""
    return instances.build_instance(3, 2, [((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.0)])


def field_unique_ground(n=4):
    """D=1 field instance, all weights +1: unique ground state (all bits 1)."""
    return instances.build_instance(n, 1, [((i,), 1.0) for i in range(n)])


def two_components():
    """Two disjoint ferromagnetic 3-chains on N=6: n0 = 2*2 = 4."""
    terms = [((0, 1), -1.0), ((1, 2), -1.0), ((3, 4), -1.0), ((4, 5), -1.0)]
    return instances.build_instance(6, 2, terms)


def disjoint_pairs(n=6):
    """N/2 independent ferromagnetic pairs: n0 = 2^(N/2)."""
    terms = [((2 * i, 2 * i + 1), -1.0) for i in range(n // 2)]
    return instances.build_instance(n, 2, terms)


# D=2 instances on N=5 whose four ground states differ in the last bits,
# (id, terms).  The ground band is split by 2.2e-16 when the terms are summed
# one by one and by 4.4e-16 in the full transform's matmul order; by 2.2e-16
# one by one only; or by 4.4e-16 in walsh_table's split order only, the one
# evaluate_hz uses.
DEGENERACY_BAND_TERMS = [
    ("split-by-both-orders",
     [((0, 1), 0.2), ((0, 2), 0.7), ((0, 3), 0.1), ((0, 4), 0.2), ((1, 2), 0.7),
      ((1, 3), 0.3), ((1, 4), 0.2), ((2, 3), 0.1), ((2, 4), 0.1), ((3, 4), 0.7)]),
    ("split-by-term-loop",
     [((0, 1), -0.1), ((0, 2), -0.3), ((0, 3), 0.3), ((0, 4), 0.1), ((1, 2), 0.2),
      ((1, 3), 0.7), ((1, 4), -0.2), ((2, 3), 0.1), ((2, 4), -0.3), ((3, 4), -0.3)]),
    ("split-by-walsh-table-order",
     [((0, 1), 0.4), ((0, 2), -0.4), ((0, 3), -0.4), ((0, 4), 0.4), ((1, 2), -0.3),
      ((1, 3), 0.4), ((1, 4), 0.7), ((2, 3), 0.5), ((2, 4), 0.5), ((3, 4), -0.5)]),
]


def degeneracy_ladder():
    """(label, instance, expected n0) covering n0 in {1, 2, 4, 2^(N/2)}.

    sk_pm N=6 seed=1 has n0=2 (checked against brute force in the tests).
    """
    return [
        ("n0=1 field", field_unique_ground(4), 1),
        ("n0=2 sk_pm", instances.generate("sk_pm", 6, seed=1), 2),
        ("n0=4 components", two_components(), 4),
        ("n0=8 pairs", disjoint_pairs(6), 8),
    ]


def main_corpus():
    """(label, instance) pairs used by the oracle-equivalence sweeps."""
    corpus = [
        ("hand N=2", hand_single_term()),
        ("hand N=3 triangle", hand_triangle()),
    ]
    corpus += [(label, inst) for label, inst, _n0 in degeneracy_ladder()]
    for n in (6, 8, 10):
        for seed in range(1, 6):
            corpus.append((f"sk_pm N={n} seed={seed}",
                           instances.generate("sk_pm", n, seed=seed)))
    corpus.append(("toy N=8", instances.generate(
        "toy", 8, seed=3, n1=2, afm_density=0.5)))
    corpus.append(("toy N=10", instances.generate(
        "toy", 10, seed=1, n1=3, afm_density=0.3)))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return main_corpus()


@pytest.fixture(scope="session")
def small_corpus():
    """N <= 8 subset (dense oracles and walk estimates stay cheap)."""
    return [(label, inst) for label, inst in main_corpus() if inst.n_qubits <= 8]

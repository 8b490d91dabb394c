"""Entropy/tau machinery, DOS histograms, theorem parameter arithmetic,
classical baseline counting."""

import math
import tracemalloc

import numpy as np
import pytest

from shortpath import bounds, cli, eigensolve, instances
from shortpath.bounds import (
    BoundsError,
    TheoremConstants,
    binary_entropy,
    binary_entropy_inverse,
    classical_baseline,
    dos_histogram,
    dos_powerlaw_fit,
    hassoln_lhs,
    kbound_check,
    p_xk_norm,
    pbound_value,
    state_entropy_checks,
    tau,
    tau_inverse,
    theorem1_item2_check,
    thm3_parameters,
)
from shortpath.hilbert import OperatorSpec, evaluate_hz, ground_space, psi_plus

from conftest import dense_x, disjoint_pairs, hand_single_term, main_corpus


def _bisect_entropy_inverse(sigma, tol=1e-14):
    """Independent oracle for S^{-1} (plain bisection, no library reuse)."""
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s = 0.0 if mid == 0 else -mid * math.log2(mid) - (1 - mid) * math.log2(1 - mid)
        if s < sigma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert tau(0.0) == 0.0
    assert tau(1.0) == 1.0


def test_entropy_inverse_against_oracle():
    for sigma in (0.01, 0.1, 0.5, 0.9, 0.999):
        assert binary_entropy_inverse(sigma) == pytest.approx(
            _bisect_entropy_inverse(sigma), abs=1e-11)
    # frozen oracle value: S^{-1}(0.5) and the resulting tau
    assert binary_entropy_inverse(0.5) == pytest.approx(0.11002786443835955, abs=1e-11)
    assert tau(0.5) == pytest.approx(0.6258489705527797, abs=1e-10)


def test_tau_round_trip_grid():
    grid = np.linspace(0.0, 1.0, 10001)
    worst = max(abs(tau_inverse(tau(float(s))) - float(s)) for s in grid)
    assert worst <= 1e-10


def test_tau_monotone():
    grid = np.linspace(0.0, 1.0, 2001)
    vals = [tau(float(s)) for s in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_entropy_domain_errors():
    with pytest.raises(BoundsError):
        binary_entropy(1.5)
    with pytest.raises(BoundsError):
        tau_inverse(-0.1)
    with pytest.raises(ValueError, match="2\\^N"):
        state_entropy_checks(np.full(3, 3**-0.5), k=1)


def test_state_entropy_psi_plus_saturates_sx():
    rep = state_entropy_checks(psi_plus(6), k=1)
    assert rep.s_comp == pytest.approx(6.0, abs=1e-12)
    assert rep.x_expectation == pytest.approx(6.0, abs=1e-9)
    assert rep.sx_ok


def test_state_entropy_basis_state_hand_example():
    # |0000>, K=1: <(X/4)^2> = 4/16; S0=0, S1=2; bound tau(0.5)^2
    basis = np.zeros(16)
    basis[0] = 1.0
    rep = state_entropy_checks(basis, k=1)
    assert rep.s_comp == 0.0
    assert rep.exact_x2k == pytest.approx(0.25, abs=1e-12)
    assert rep.s_sequence == pytest.approx([0.0, 2.0], abs=1e-12)
    assert rep.genineq_bound == pytest.approx(tau(0.5) ** 2, abs=1e-12)
    assert rep.genineq_ok and rep.genineqbasis_ok and rep.loose_ok


def test_p_xk_norm_single_flip_and_pair():
    # unique ground, K=1: exactly N^{-1/2}
    inst = instances.build_instance(4, 1, [((i,), 1.0) for i in range(4)])
    table = evaluate_hz(inst)
    ground = ground_space(table)
    assert p_xk_norm(table, ground, 1) == pytest.approx(4.0**-0.5, abs=1e-12)
    # N=2 single term: ground {01, 10} are one flip apart, norm is 1
    table2 = evaluate_hz(hand_single_term())
    assert p_xk_norm(table2, ground_space(table2), 1) == pytest.approx(1.0, abs=1e-12)


def test_p_xk_norm_against_dense_x_power():
    # oracle: the ground rows of X^K by dense products of the 0/1 matrix X;
    # every entry is an integer below 2^53, so the rows are exact, and
    # ||P (X/N)^K|| is their top singular value over N^K
    corpus = main_corpus() + [("pairs N=8", disjoint_pairs(8)),
                              ("pairs N=10", disjoint_pairs(10))]
    checked = 0
    for label, inst in corpus:
        n = inst.n_qubits
        table = evaluate_hz(inst)
        ground = ground_space(table)
        x = dense_x(n)
        rows = x[ground.ground_indices]
        for k in range(1, 9):
            if k > 1:
                rows = rows @ x
            if k in (1, 2, 3, 8):
                want = np.linalg.norm(rows, 2) / n**k
                got = p_xk_norm(table, ground, k)
                assert got == pytest.approx(want, rel=1e-14), (label, k)
                checked += 1
    assert checked == 4 * len(corpus)


def test_p_xk_norm_peak_memory_is_n0_squared():
    # n0 = 256 ground states of 2^16: the parent's (2^N, n0) batches
    # peaked at 256 MiB; the distance lookup needs a few n0 x n0 arrays
    table = evaluate_hz(disjoint_pairs(16))
    ground = ground_space(table)
    assert ground.n0 == 256
    tracemalloc.start()
    try:
        p_xk_norm(table, ground, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_p_xk_norm_above_dense_cap_is_typed(monkeypatch, tmp_path):
    monkeypatch.setattr(eigensolve, "DENSE_DIM_CAP", 4)
    inst = disjoint_pairs(6)  # n0 = 8
    table = evaluate_hz(inst)
    with pytest.raises(BoundsError, match="pbound_value"):
        p_xk_norm(table, ground_space(table), 1)
    path = tmp_path / "inst.txt"
    instances.save_instance(inst, str(path))
    assert cli.main(["qgood", "--in", str(path), "--b", "0.1", "--K", "1"]) == 1


def test_kbound_hand_example():
    rep = kbound_check(1, 1024, 3, 100.0)
    assert not rep.saturated
    assert rep.lhs == pytest.approx(0.179, abs=2e-3)
    assert rep.passes
    assert kbound_check(1, 6, 1, 0.0).lhs == 0.0
    sat = kbound_check(4, 6, 2, 1.0)
    assert sat.saturated and sat.lhs == 1.0 and not sat.passes


def test_dos_histogram_hand_counts():
    hist = dos_histogram(evaluate_hz(hand_single_term()))
    assert hist.e0 == -1.0
    assert list(hist.counts) == [2, 0, 2]
    assert hist.total == 4


def test_dos_partition_property(corpus):
    for label, inst in corpus:
        hist = dos_histogram(evaluate_hz(inst))
        assert hist.total == 1 << inst.n_qubits, label
        assert hist.counts[0] >= 1, label


def test_dos_fit_recovers_planted_slope():
    # synthetic counts with log2 W = 3 * k^0.7 recover exponent 0.7
    ks = np.arange(0, 30)
    counts = np.zeros(30, dtype=np.int64)
    counts[1:] = np.round(2.0 ** (3.0 * ks[1:] ** 0.7)).astype(np.int64)
    counts[0] = 1
    hist = bounds.DosHistogram(e0=0.0, counts=counts, total=int(counts.sum()))
    fit = dos_powerlaw_fit(hist, (2, 29))
    assert fit.exponent == pytest.approx(0.7, abs=0.01)
    assert fit.r_squared > 0.999
    with pytest.raises(BoundsError):
        dos_powerlaw_fit(hist, (40, 50))


def test_theorem_constants_file_round_trip(tmp_path):
    path = tmp_path / "consts.txt"
    path.write_text("# tuned\nc_err = 2.0\nhassoln_c3 0.5\n")
    consts = TheoremConstants.from_file(str(path))
    assert consts.c_err == 2.0 and consts.hassoln_c3 == 0.5
    assert consts.c_tau == 1.0
    bad = tmp_path / "bad.txt"
    bad.write_text("mystery = 1\n")
    with pytest.raises(BoundsError, match="unknown constant"):
        TheoremConstants.from_file(str(bad))


def test_item2_check_b_zero_degenerates():
    inst = hand_single_term()
    hist = dos_histogram(evaluate_hz(inst))
    rep = theorem1_item2_check(hist, inst, OperatorSpec("HS", big_b=0.0, k=1))
    assert not rep.applicable
    assert "no witness" in rep.reason


def test_item2_witness_with_huge_degeneracy():
    # disjoint pairs at N=14: counts[2] = C(7,1)*2^6 is large while F^{-1}
    # stays small for modest B
    inst = disjoint_pairs(14)
    table = evaluate_hz(inst)
    hist = dos_histogram(table)
    rep = theorem1_item2_check(hist, inst, OperatorSpec("HS", big_b=1.0, k=1))
    assert rep.applicable
    assert rep.witness_e is not None
    assert rep.witness_e == table.e0 + 2.0  # counts[2] = 7 * 2^7 is the witness


def test_thm3_parameter_regimes():
    high = thm3_parameters(2.0, 1.0, 100000, 10.0)
    assert high.regime == "high" and high.exponent == pytest.approx(0.0)
    assert high.k == math.ceil(10.0 * math.log(100000))
    assert high.b == 0.1
    edge = thm3_parameters(11.0 / 7.0, 1.0, 1000, 1.0)
    assert edge.regime == "low" and edge.exponent == pytest.approx(5 - 33 / 7)
    low = thm3_parameters(1.5, 1.0, 1000, 1.0)
    assert low.regime == "low" and low.exponent == pytest.approx(0.5)
    assert low.x_min <= 1000.0
    with pytest.raises(BoundsError):
        thm3_parameters(1.0, 1.0, 1000, 1.0)
    with pytest.raises(BoundsError):
        thm3_parameters(2.5, 1.0, 1000, 1.0)


def test_hassoln_example_not_violated():
    n = 10**6
    choice = thm3_parameters(2.0, 1.0, n, 10.0)
    rep = hassoln_lhs(choice.k, n, -float(n) ** 2)
    assert len(rep.terms) == 4
    assert rep.lhs == pytest.approx(sum(rep.terms))
    assert not rep.violated


def test_hassoln_clamps_small_k():
    rep = hassoln_lhs(1, 100, -1.0)
    # K < ln(N): the ln(K/lnN) factors clamp to zero instead of going complex
    assert rep.terms[1] == 0.0 and rep.terms[3] == 0.0


def test_classical_baseline_hand_instance():
    inst = hand_single_term()
    table = evaluate_hz(inst)
    rep = classical_baseline(inst, table)
    assert rep.max_abs_fi == 1.0
    assert rep.threshold == 1.0  # 2|E0|/N = 2*1/2
    assert rep.unit_weights
    assert rep.n_choice_int == rep.brute_count


def test_classical_baseline_matches_brute_force(corpus):
    for label, inst in corpus:
        if inst.degree != 2 or inst.n_qubits > 14:
            continue
        rep = classical_baseline(inst, evaluate_hz(inst))
        assert rep.brute_count is not None, label
        if rep.unit_weights:
            assert rep.n_choice_int == rep.brute_count, label
            if rep.n_choice_int > 0:
                assert rep.n_choice_log2 == pytest.approx(
                    math.log2(rep.n_choice_int), abs=1e-9)


def test_classical_baseline_non_unit_weights():
    inst = instances.generate("sk_gaussian", 6, seed=1)
    rep = classical_baseline(inst, evaluate_hz(inst))
    assert not rep.unit_weights
    assert rep.n_choice_int is None and rep.n_choice_log2 is None
    assert rep.brute_count is not None


def test_classical_baseline_requires_degree_two():
    inst = instances.build_instance(3, 1, [((0,), 1.0)])
    with pytest.raises(BoundsError, match="D=2"):
        classical_baseline(inst, evaluate_hz(inst))


def test_pbound_value_monotone_in_n0():
    lo = pbound_value(1, 12, 2)
    hi = pbound_value(16, 12, 2)
    assert 0 < lo <= hi <= 1.0

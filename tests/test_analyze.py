"""Spectral reports, theorem pipelines, and the algorithm simulation."""

import numpy as np
import pytest

from shortpath import analyze, bounds, eigensolve, hilbert, instances
from shortpath.context import Analysis
from shortpath.hilbert import MatrixFreeOperator, OperatorSpec

from conftest import dense_x, disjoint_pairs, hand_single_term, hand_triangle


def _spec_for(inst, b, k):
    table = hilbert.evaluate_hz(inst)
    return table, OperatorSpec("HS", big_b=analyze.resolve_big_b(b, table.e0), k=k)


def _analysis(inst, spec):
    return Analysis(inst, hilbert.evaluate_hz(inst), spec)


def test_resolve_big_b():
    assert analyze.resolve_big_b(0.1, -20.0) == pytest.approx(2.0)
    with pytest.raises(analyze.AnalyzeError):
        analyze.resolve_big_b(1.0, -20.0)


def test_spectral_report_b_zero_closed_form():
    inst = hand_triangle()
    table, _ = _spec_for(inst, 0.0, 1)
    rep = analyze.spectral_report(_analysis(inst, OperatorSpec("HS", big_b=0.0, k=1)))
    assert np.allclose(rep.band, table.e0)
    assert rep.next_eigenvalue == pytest.approx(table.e0 + table.gap, abs=1e-9)
    assert rep.eq01 == pytest.approx(table.e0 + table.gap, abs=1e-9)
    assert rep.p_ov == pytest.approx(6 * 2.0**-3, abs=1e-9)
    assert rep.p0_overlaps == pytest.approx(1.0, abs=1e-9)


def test_spectral_report_matches_dense_oracle():
    inst = hand_single_term()
    table, _ = _spec_for(inst, 0.0, 1)
    spec = OperatorSpec("HS", big_b=1.0, k=1)
    rep = analyze.spectral_report(_analysis(inst, spec))
    hs = MatrixFreeOperator(spec, table)
    dense = eigensolve.dense_spectrum(hs)
    assert np.allclose(np.append(rep.band, rep.next_eigenvalue),
                       dense.eigenvalues[:3], atol=1e-9)
    psi_p = hilbert.psi_plus(2)
    p_ov = float(np.sum((dense.eigenvectors[:, :2].T @ psi_p) ** 2))
    assert rep.p_ov == pytest.approx(p_ov, abs=1e-9)


def test_spectral_report_even_k_uses_odd_block():
    # both ground states of the N=2 single-term instance have odd parity
    inst = hand_single_term()
    rep = analyze.spectral_report(_analysis(inst, OperatorSpec("HS", big_b=0.5, k=2)))
    assert rep.block == "odd"
    assert rep.n0_eff == 2
    # the odd block is 2-dimensional, so there is no next eigenvalue
    assert rep.next_eigenvalue is None and rep.gap_lower_ok


def test_qgood_on_sk_instance():
    inst = instances.generate("sk_pm", 8, seed=5)
    _table, spec = _spec_for(inst, 0.1, 3)
    rep = analyze.qgood_verify(_analysis(inst, spec))
    assert rep.preconditions_pass
    names = [n for n, _p, _m in rep.conclusions]
    assert names == ["band_location", "ground_overlap_3_4", "psi_plus_overlap_unit"]
    assert all(p for _n, p, _m in rep.conclusions)
    # asymptotic record carries no verdict
    asym = [p for n, p, _m in rep.preconditions if n == "b_over_log2n"]
    assert asym == [None]


def test_qgood_precondition_failure_skips_conclusions():
    # B far above the norm guard: b_pnorm precondition must fail
    inst = hand_single_term()
    rep = analyze.qgood_verify(_analysis(inst, OperatorSpec("HS", big_b=3.0, k=1)))
    assert not rep.preconditions_pass
    assert rep.conclusions == []
    assert "note" in rep.details


def test_mainconst_branch1_and_guard():
    # small absolute B keeps the K-bound guard alive even at desk scale
    inst = hand_single_term()
    rep = analyze.mainconst_decide(_analysis(inst, OperatorSpec("HS", big_b=0.2, k=1)))
    assert rep.applicable and rep.branch == 1
    assert rep.details["query_exponent_bits"] < inst.n_qubits / 2.0
    guard = analyze.mainconst_decide(_analysis(inst, OperatorSpec("HS", big_b=3.0, k=1)))
    assert not guard.applicable and guard.branch is None


def test_mainconst_branch2_internals():
    # branch 2's two numeric checks, exercised directly: with B=1, K=1 on the
    # pair instance, H_{5/2} dips below E0 - 1/4 and the witness search runs
    inst = disjoint_pairs(10)
    table = hilbert.evaluate_hz(inst)
    hs52 = MatrixFreeOperator(OperatorSpec("HS", big_b=2.5, k=1), table)
    lam = eigensolve.extreme_eigs(hs52, 1).eigenvalues[0]
    assert lam < table.e0 - 0.25
    hist = bounds.dos_histogram(table)
    item2 = bounds.theorem1_item2_check(hist, inst, OperatorSpec("HS", big_b=1.0, k=1))
    assert item2.applicable and item2.witness_e is not None


def test_simulate_b_zero_grover_baseline(corpus):
    for label, inst in corpus:
        if inst.n_qubits > 8:
            continue
        table = hilbert.evaluate_hz(inst)
        ground = hilbert.ground_space(table)
        sim = analyze.simulate_algorithm1(_analysis(inst, OperatorSpec("HS", big_b=0.0, k=1)))
        expect = ground.n0 * 2.0 ** (-inst.n_qubits)
        assert sim.success_prob == pytest.approx(expect, abs=1e-12), label
        assert sim.speedup_bits == pytest.approx(0.5 * np.log2(ground.n0), abs=1e-9)


def test_simulate_success_bracketed_by_pov():
    inst = instances.generate("sk_pm", 8, seed=5)
    _table, spec = _spec_for(inst, 0.1, 3)
    sim = analyze.simulate_algorithm1(_analysis(inst, spec))
    assert sim.success_prob <= sim.p_ov + 1e-12
    assert sim.success_prob >= sim.p_ov * sim.min_band_p0 - 1e-12
    assert sim.speedup_bits > 0
    assert not sim.threshold_ambiguous


def test_simulate_positive_overlap_floor():
    # whenever qgood preconditions pass, speedup_bits >= 0 by positivity
    inst = instances.generate("sk_pm", 6, seed=4)
    _table, spec = _spec_for(inst, 0.1, 1)
    qrep = analyze.qgood_verify(_analysis(inst, spec))
    if qrep.preconditions_pass:
        sim = analyze.simulate_algorithm1(_analysis(inst, spec))
        assert sim.speedup_bits >= -1e-9


def test_analysis_takes_a_full_space_hs_spec():
    inst = hand_single_term()
    table = hilbert.evaluate_hz(inst)
    for spec in (OperatorSpec("QHSQ", big_b=1.0, k=1),
                 OperatorSpec("HS", big_b=1.0, k=2, parity_block="odd")):
        with pytest.raises(ValueError, match="full-space HS spec"):
            Analysis(inst, table, spec)


@pytest.mark.parametrize("k", [1, 2])
def test_mainconst_branch2_end_to_end(monkeypatch, k):
    # B = 12 pulls E^Q_{0,1} below E0 + 1/2 on sk_pm N=8 seed 2; the real
    # K-bound guard saturates at this size, so it is passed by hand
    monkeypatch.setattr(bounds, "kbound_check", lambda *args: bounds.KboundReport(
        lhs=0.0, passes=True, saturated=False))
    inst = instances.generate("sk_pm", 8, seed=2)
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=12.0, k=k))
    rep = analyze.mainconst_decide(a)
    assert rep.branch == 2
    assert isinstance(rep.details["item2"], bounds.Item2Report)
    # every ground state has odd weight, so even K works in the odd block
    keep = np.ones(256, dtype=bool)
    if k % 2 == 0:
        assert a.block == "odd"
        _even, keep = hilbert.parity_masks(8)
    h52 = np.diag(table.energies) - 30.0 * np.linalg.matrix_power(dense_x(8) / 8, k)
    lam = np.linalg.eigvalsh(h52[np.ix_(keep, keep)])[0]
    assert rep.details["h52_lambda_min"] == pytest.approx(lam, abs=1e-9)


@pytest.mark.parametrize("big_b,k", [(0.0, 1), (0.1, 1), (0.1, 2)])
def test_simulate_doubles_until_past_the_cutoff(monkeypatch, big_b, k):
    # n0 = 1 with a second level 0.1 above E0: both pairs of the first solve
    # lie below E0 + 1/4, so simulate asks for twice as many
    inst = instances.build_instance(3, 1, [((0,), 1.0), ((1,), 1.0), ((2,), 0.05)])
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=big_b, k=k))
    asked, got = [], []
    lowest = a.lowest

    def spy(spec, how_many):
        asked.append(how_many)
        got.append(lowest(spec, how_many))
        return got[-1]

    runs = []
    eigsh = eigensolve.eigsh

    def counted(*args, **kwargs):
        runs.append(1)
        return eigsh(*args, **kwargs)

    a.lowest = spy
    monkeypatch.setattr(eigensolve, "eigsh", counted)
    sim = analyze.simulate_algorithm1(a)
    assert asked == [2, 4]
    # the second request extends the first solve: one ARPACK run per pair,
    # and the first two pairs are kept bit for bit
    assert len(runs) == 4
    first, second = got
    for field in ("eigenvalues", "eigenvectors", "residuals"):
        kept = getattr(second, field)[..., :2]
        assert np.array_equal(kept, getattr(first, field)), field
    hs = np.diag(table.energies) - big_b * np.linalg.matrix_power(dense_x(3) / 3, k)
    dense = np.linalg.eigvalsh(hs)
    want = dense[dense <= table.e0 + 0.25 + 1e-8]
    np.testing.assert_allclose(sim.accepted_eigenvalues, want, rtol=0, atol=1e-10)

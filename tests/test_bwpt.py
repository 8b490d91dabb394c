"""Brillouin-Wigner effective Hamiltonian, exact resummation, walk estimator."""

import numpy as np
import pytest

from shortpath import bwpt, context, eigensolve, hilbert, instances
from shortpath.bwpt import BwptError
from shortpath.context import Analysis
from shortpath.hilbert import HsParams, MatrixFreeOperator, OperatorSpec

from conftest import hand_single_term, disjoint_pairs


def _setup(inst, b=0.1, k=1):
    table = hilbert.evaluate_hz(inst)
    return Analysis(inst, table, HsParams(big_b=b * abs(table.e0), k=k))


def test_parity_block_rules():
    inst = hand_single_term()  # ground {01, 10}, both odd parity
    ground = _setup(inst).ground
    assert context.choose_parity_block(ground, 1) is None
    assert context.choose_parity_block(ground, 2) == "odd"
    with pytest.raises(ValueError, match="even"):
        context.choose_parity_block(ground, 2, parity_choice="even")


def test_effective_hamiltonian_unique_ground_by_hand():
    # D=1 two-qubit field instance Z0 + Z1: unique ground |11>, E0 = -2.
    # h is 1x1: E0 + s<u|V|u> + s^2 <u|V x_u> with V = -B(X/2).
    inst = instances.build_instance(2, 1, [((0,), 1.0), ((1,), 1.0)])
    table = hilbert.evaluate_hz(inst)
    ground = hilbert.ground_space(table)
    assert ground.n0 == 1 and ground.ground_indices[0] == 3
    params = HsParams(big_b=0.4, k=1)
    omega = -2.1
    h = bwpt.effective_hamiltonian(Analysis(inst, table, params), omega)
    assert h.shape == (1, 1)
    # dense check: h = E0 + s^2 v^T (omega - QHQ)^{-1} v over the excited block
    hs = eigensolve.operator_matrix(
        MatrixFreeOperator(OperatorSpec("HS", s=1.0, big_b=0.4, k=1), table))
    keep = np.array([0, 1, 2])
    v = hs[keep, 3]
    sub = omega * np.eye(3) - hs[np.ix_(keep, keep)]
    expect = table.e0 + v @ np.linalg.solve(sub, v)
    assert h[0, 0] == pytest.approx(expect, abs=1e-9)


def test_effective_hamiltonian_rejects_omega_above_q_spectrum():
    inst = hand_single_term()
    a = _setup(inst, b=0.1, k=1)
    with pytest.raises(BwptError, match="not below"):
        bwpt.effective_hamiltonian(a, omega=10.0)


def test_self_consistency_at_s_one():
    # lambda_min(h(E01, 1)) must reproduce E01 itself
    inst = instances.generate("sk_pm", 6, seed=1)
    a = _setup(inst, b=0.1, k=3)
    ctx = bwpt.solve_self_consistent(a)
    assert ctx.fixed_point_residual < 1e-8
    hs = MatrixFreeOperator(
        OperatorSpec("HS", s=1.0, big_b=a.params.big_b, k=a.params.k), a.table)
    e01 = eigensolve.extreme_eigs(hs, 1).eigenvalues[0]
    assert ctx.omega == pytest.approx(e01, abs=1e-10)
    assert np.all(ctx.xi0 >= 0)
    assert np.linalg.norm(ctx.xi0) == pytest.approx(1.0)


def test_b_zero_gives_uniform_xi0_and_unit_walk():
    inst = instances.generate("sk_pm", 6, seed=2)
    a = Analysis(inst, hilbert.evaluate_hz(inst), HsParams(big_b=0.0, k=1))
    ctx = bwpt.solve_self_consistent(a)
    assert np.allclose(ctx.xi0, ctx.xi0[0])
    est = bwpt.walk_estimate(ctx, a, samples=10, seed=0)
    assert est.series_estimate == 1.0 and est.std_error == 0.0


def test_phi_is_hs_ground_state_and_zeta_independent():
    inst = instances.generate("sk_pm", 6, seed=3)
    a = _setup(inst, b=0.1, k=1)
    rays = []
    for zeta in (0.25, 0.5, 0.75):
        ctx = bwpt.solve_self_consistent(a, zeta=zeta)
        phi, report = bwpt.phi_exact(ctx, a)
        unit = phi.amplitudes / phi.norm()
        rays.append(unit)
        assert report.inner_psi_plus_phi > 0
    for other in rays[1:]:
        assert abs(float(rays[0] @ other)) > 1 - 1e-9


def test_phi_proportional_to_bw_series_sum():
    # cross-check: phi matches the truncated operator series
    # sum_k (s (omega - J0)^{-1} V)^k xi0 summed densely
    inst = instances.generate("sk_pm", 5, seed=6)
    a = _setup(inst, b=0.08, k=1)
    table, ground, params = a.table, a.ground, a.params
    ctx = bwpt.solve_self_consistent(a)
    phi, _ = bwpt.phi_exact(ctx, a)
    dim = 1 << 5
    energies = table.energies.copy()
    energies[ground.ground_indices] += ctx.zeta
    xk = eigensolve.operator_matrix(
        MatrixFreeOperator(OperatorSpec("XK", k=params.k), table))
    v = -params.big_b * xk
    resolvent = np.diag(1.0 / (ctx.omega - energies))
    xi_full = np.zeros(dim)
    xi_full[a.block_ground_indices] = ctx.xi0
    series = np.zeros(dim)
    term = (ctx.omega - table.e0 - ctx.zeta) * (resolvent @ xi_full)
    for _ in range(400):
        series += term
        term = resolvent @ (v @ term)
    assert np.allclose(series, phi.amplitudes, atol=1e-8)


def test_walk_matches_exact_series_small_instance():
    inst = instances.generate("sk_pm", 6, seed=1)
    a = _setup(inst, b=0.1, k=2)
    ctx = bwpt.solve_self_consistent(a)
    phi, report = bwpt.phi_exact(ctx, a)
    exact = 2.0 ** (inst.n_qubits / 2.0) * report.inner_psi_plus_phi / report.xi0_l1
    est = bwpt.walk_estimate(ctx, a, samples=40000, seed=11)
    assert abs(est.series_estimate - exact) < 3.0 * est.std_error
    assert est.t_truncation >= 1


def test_walk_is_seed_deterministic():
    inst = disjoint_pairs(6)
    an = _setup(inst, b=0.1, k=1)
    ctx = bwpt.solve_self_consistent(an)
    a = bwpt.walk_estimate(ctx, an, samples=500, seed=3)
    b = bwpt.walk_estimate(ctx, an, samples=500, seed=3)
    assert a.series_estimate == b.series_estimate


def test_analytic_lower_bound_value():
    val, log2v = bwpt.analytic_lower_bound(10, 2, 2, 1.5, -15.0)
    assert val == pytest.approx(np.exp(1.5 * 10 / (2 * 2 * 2 * 15.0)))
    assert log2v == pytest.approx(np.log2(val))
    with pytest.raises(BwptError):
        bwpt.analytic_lower_bound(10, 2, 2, 1.5, 0.0)

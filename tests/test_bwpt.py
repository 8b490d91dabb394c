"""Brillouin-Wigner effective Hamiltonian, exact resummation, walk estimator."""

import ast
import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from shortpath import analyze, bwpt, context, eigensolve, hilbert, instances
from shortpath.bwpt import BwptError
from shortpath.context import Analysis
from shortpath.hilbert import MatrixFreeOperator, OperatorSpec

from conftest import hand_single_term, disjoint_pairs


def _setup(inst, b=0.1, k=1):
    table = hilbert.evaluate_hz(inst)
    return Analysis(inst, table, OperatorSpec("HS", big_b=b * abs(table.e0), k=k))


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
    spec = OperatorSpec("HS", big_b=0.4, k=1)
    omega = -2.1
    h = bwpt.effective_hamiltonian(Analysis(inst, table, spec), omega)
    assert h.shape == (1, 1)
    # dense check: h = E0 + s^2 v^T (omega - QHQ)^{-1} v over the excited block
    hs = eigensolve.operator_matrix(
        MatrixFreeOperator(OperatorSpec("HS", big_b=0.4, k=1), table))
    keep = np.array([0, 1, 2])
    v = hs[keep, 3]
    sub = omega * np.eye(3) - hs[np.ix_(keep, keep)]
    expect = table.e0 + v @ np.linalg.solve(sub, v)
    assert h[0, 0] == pytest.approx(expect, abs=1e-9)


def _dense_h(a, omega):
    """h(omega) over the block's ground coordinates, dense: E0 I + PVP +
    PVQ (omega - Q H_s Q)^{-1} QVP, with V = H_s - H_Z taken from the dense
    H_s in the block's coordinates; rows follow the ground coordinates in
    index order."""
    g = a.block_ground_coords
    hs = a.operator(a.hs_spec)
    mat = eigensolve.operator_matrix(hs)
    v = mat - np.diag(hs.diagonal)
    q = np.setdiff1d(np.arange(a.block_dim), g)
    resolvent = omega * np.eye(q.size) - mat[np.ix_(q, q)]
    return (a.table.e0 * np.eye(g.size) + v[np.ix_(g, g)]
            + v[np.ix_(g, q)] @ np.linalg.solve(resolvent, v[np.ix_(q, g)]))


@pytest.mark.parametrize("make, k, flip", [
    pytest.param(lambda: disjoint_pairs(8), 2, True, id="pairs8-K2-block"),
    pytest.param(lambda: disjoint_pairs(10), 2, True, id="pairs10-K2-block"),
    # block coordinates 112, 121, 6, 15: not in index order, and 112 pairs with 15
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 2, True, id="sk_pm8-K2-block"),
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 3, True, id="sk_pm8-K3"),
    pytest.param(lambda: instances.generate("sk_pm", 9, seed=1), 2, False, id="sk_pm9-K2-block"),
    pytest.param(lambda: _random_d3(9, seed=4), 1, False, id="d3-9-K1"),
])
def test_effective_hamiltonian_matches_dense_oracle(make, k, flip):
    # h(omega) in psi_+'s space is L^T h L, h the block's dense one and L the
    # lift from psi_+'s ground coordinates: flip_lift(., 1) with flip
    # sectors (odd N has none in a block, odd D none at all), else the identity
    a = _setup(make(), b=0.1, k=k)
    assert (a.psi_plus_spec.flip_sector == 1) == flip
    omega = float(a.lowest(a.hs_spec, 1).eigenvalues[0])
    h = bwpt.effective_hamiltonian(a, omega)
    qhsq = a.operator(dataclasses.replace(a.psi_plus_spec, kind="QHSQ"))
    lift = a.lift(np.eye(qhsq.ground_coords.size))
    want = lift.T @ _dense_h(a, omega) @ lift
    assert h.shape == want.shape == (a.block_ground_coords.size >> flip,) * 2
    assert np.max(np.abs(h - want)) <= 1e-12 * np.max(np.abs(want))


def _h_per_column(a, omega):
    """h(omega) over the block's ground coordinates, with one Q-subspace
    solve for every column."""
    spec = a.spec
    idx = a.block_ground_coords
    qhsq = a.operator(a.qhsq_spec)
    xk = a.operator(a.hs_spec).xk
    h = a.table.e0 * np.eye(idx.size)
    for col, u in enumerate(idx):
        e_u = np.zeros(a.block_dim)
        e_u[u] = 1.0
        v_u = -spec.big_b * xk(e_u)
        x_u = eigensolve.solve_shifted(qhsq, omega, v_u)
        h[:, col] += (v_u - spec.big_b * xk(x_u))[idx]
    return 0.5 * (h + h.T)


@pytest.mark.parametrize("make, k", [
    pytest.param(lambda: disjoint_pairs(10), 2, id="pairs10-K2-block"),
    pytest.param(lambda: disjoint_pairs(8), 3, id="pairs8-K3"),
    pytest.param(lambda: instances.generate("sk_pm", 10, seed=3), 2, id="sk_pm10-K2-block"),
    pytest.param(lambda: instances.generate("sk_pm", 10, seed=3), 3, id="sk_pm10-K3"),
])
def test_effective_hamiltonian_solves_one_column_per_flip_pair(make, k, monkeypatch):
    # the ground states come in global-flip pairs, one F = +1 state per pair:
    # one shifted solve per pair, on the F = +1 sector's 2^(M-1) coordinates,
    # and h is the F = +1 block of the one-solve-per-column build
    a = _setup(make(), b=0.1, k=k)
    assert a.psi_plus_spec.flip_sector == 1
    g = a.block_ground_coords
    assert np.array_equal(g[::-1], a.block_dim - 1 - g)
    omega = float(a.lowest(a.hs_spec, 1).eigenvalues[0])
    rhs_sizes = []
    solve = eigensolve.solve_shifted
    monkeypatch.setattr(eigensolve, "solve_shifted",
                        lambda op, shift, rhs: rhs_sizes.append(rhs.size)
                        or solve(op, shift, rhs))
    h = bwpt.effective_hamiltonian(a, omega)
    assert rhs_sizes == [a.block_dim // 2] * (g.size // 2)
    lift = hilbert.flip_lift(np.eye(g.size // 2), 1)
    want = lift.T @ _h_per_column(a, omega) @ lift
    assert np.max(np.abs(h - want)) <= 1e-12 * np.max(np.abs(want))


def test_xi0_comes_from_the_flip_symmetric_block_of_h():
    # sk_pm N=8 seed 2 at B=0.2, K=1: the lowest level of the block's dense h
    # is a global-flip pair split by less than 1e-9, one copy in the F = -1
    # block; h in psi_+'s space is the F = +1 block, whose lowest is simple
    inst = instances.generate("sk_pm", 8, seed=2)
    table = hilbert.evaluate_hz(inst)
    a = Analysis(inst, table, OperatorSpec("HS", big_b=0.2, k=1))
    ctx = bwpt.solve_self_consistent(a)
    dense = _dense_h(a, ctx.omega)
    lifts = [hilbert.flip_lift(np.eye(a.block_ground_coords.size // 2), f) for f in (1, -1)]
    plus, minus = (np.linalg.eigvalsh(lift.T @ dense @ lift) for lift in lifts)
    assert abs(minus[0] - plus[0]) < 1e-9 < plus[1] - plus[0]
    vals = np.linalg.eigvalsh(bwpt.effective_hamiltonian(a, ctx.omega))
    assert vals[0] == pytest.approx(plus[0], rel=1e-12)
    assert vals[1] - vals[0] > 1e-9
    assert np.max(np.abs(ctx.xi0 - ctx.xi0[::-1])) <= 1e-15
    assert ctx.fixed_point_residual < 1e-12
    _phi, overlap = bwpt.phi_exact(ctx, a)
    assert overlap.xi0_l1 == pytest.approx(float(ctx.xi0.sum()))


def test_a_mixed_sign_xi0_names_its_most_negative_entry(monkeypatch):
    # h(omega)'s lowest vector (1, -1, 0, ...)/sqrt(2) on F = +1, lifted: +-1/2
    a = _setup(disjoint_pairs(8), b=0.1, k=2)
    size = a.block_ground_coords.size // 2
    v = np.zeros(size)
    v[:2] = (1.0, -1.0)
    monkeypatch.setattr(bwpt, "effective_hamiltonian",
                        lambda analysis, omega: a.table.e0 * np.eye(size) - np.outer(v, v))
    with pytest.raises(BwptError, match=r"h\(omega\)'s lowest vector is not non-negative: "
                       r"xi0's most negative entry is -5\.000e-01"):
        bwpt.solve_self_consistent(a)


def test_bwpt_and_analyze_name_no_flip_sector():
    # psi_+'s space is named once, by context.Analysis.psi_plus_spec, and
    # only h(omega)'s operators use it: analyze reads lowest pairs alone
    banned = {"flip_sector", "flip_lift", "flip_sectors"}
    extra = {bwpt: set(), analyze: {"psi_plus_spec", "psi_plus_ground_coords"}}
    for module in (bwpt, analyze):
        tree = ast.parse(Path(module.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & (banned | extra[module]), module.__name__


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
    hs = MatrixFreeOperator(a.spec, a.table)
    e01 = eigensolve.extreme_eigs(hs, 1).eigenvalues[0]
    assert ctx.omega == pytest.approx(e01, abs=1e-10)
    assert np.all(ctx.xi0 >= 0)
    assert np.linalg.norm(ctx.xi0) == pytest.approx(1.0)


def test_b_zero_gives_uniform_xi0_and_unit_walk():
    inst = instances.generate("sk_pm", 6, seed=2)
    a = Analysis(inst, hilbert.evaluate_hz(inst), OperatorSpec("HS", big_b=0.0, k=1))
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
        unit = phi / np.linalg.norm(phi)
        rays.append(unit)
        assert report.inner_psi_plus_phi > 0
    for other in rays[1:]:
        assert abs(float(rays[0] @ other)) > 1 - 1e-9


def test_phi_proportional_to_bw_series_sum():
    # cross-check: phi matches the truncated operator series
    # sum_k (s (omega - J0)^{-1} V)^k xi0 summed densely
    inst = instances.generate("sk_pm", 5, seed=6)
    a = _setup(inst, b=0.08, k=1)
    table, ground, spec = a.table, a.ground, a.spec
    ctx = bwpt.solve_self_consistent(a)
    phi, _ = bwpt.phi_exact(ctx, a)
    dim = 1 << 5
    energies = table.energies.copy()
    energies[ground.ground_indices] += ctx.zeta
    xk = hilbert.xk_over_n(np.eye(dim), 5, spec.k)
    v = -spec.big_b * xk
    resolvent = np.diag(1.0 / (ctx.omega - energies))
    xi_full = np.zeros(dim)
    xi_full[a.block_ground_coords] = ctx.xi0
    series = np.zeros(dim)
    term = (ctx.omega - table.e0 - ctx.zeta) * (resolvent @ xi_full)
    for _ in range(400):
        series += term
        term = resolvent @ (v @ term)
    assert np.allclose(series, phi, atol=1e-8)


def test_walk_matches_exact_series_small_instance():
    inst = instances.generate("sk_pm", 6, seed=1)
    a = _setup(inst, b=0.1, k=2)
    ctx = bwpt.solve_self_consistent(a)
    phi, report = bwpt.phi_exact(ctx, a)
    exact = 2.0 ** (inst.n_qubits / 2.0) * report.inner_psi_plus_phi / report.xi0_l1
    est = bwpt.walk_estimate(ctx, a, samples=40000, seed=11)
    assert abs(est.series_estimate - exact) < 3.0 * est.std_error
    assert est.t_truncation >= 1


def _full_index_walk(ctx, a, samples, seed):
    """The walk on full basis indices, E'_u read from the H_Z table with zeta
    added on every ground state: the same draws as walk_estimate.  Returns the
    mean and standard error of the series, the truncation level, and whether a
    flip of qubit N-1 was drawn."""
    table, spec = a.table, a.spec
    n = table.n_qubits
    t_max = 10 * math.ceil(
        spec.big_b * n / (2 * a.instance.degree * spec.k * abs(table.e0))) + 100
    rng = np.random.default_rng(seed)
    starts = hilbert.basis_indices(a.block_ground_coords, n, a.block)
    states = rng.choice(starts, size=samples,
                        p=ctx.xi0 / ctx.xi0.sum()).astype(np.int64)
    is_ground = np.zeros(1 << n, dtype=bool)
    is_ground[a.ground.ground_indices] = True
    partial, totals = np.ones(samples), np.ones(samples)
    t_used, top_flipped = 0, False
    for t in range(1, t_max + 1):
        flips = rng.integers(0, n, size=(spec.k, samples))
        top_flipped |= bool(np.any(flips == n - 1))
        for row in flips:
            states ^= np.int64(1) << row
        denom = (table.energies[states] + np.where(is_ground[states], ctx.zeta, 0.0)
                 - ctx.omega)
        assert np.all(denom > 0.0)
        partial *= spec.big_b / denom
        totals += partial
        t_used = t
        if float(partial.max()) < 1e-16 * float(totals.mean()):
            break
    return (float(totals.mean()), float(totals.std(ddof=1) / math.sqrt(samples)),
            t_used, top_flipped)


@pytest.mark.parametrize("make, k", [
    pytest.param(lambda: disjoint_pairs(8), 2, id="pairs8-K2-block"),
    # n0 = 16 ground states that are not all alike, so the start-state order shows
    pytest.param(lambda: instances.generate("sk_pm", 7, seed=2), 3, id="sk_pm7-K3-full"),
])
def test_walk_matches_a_full_index_walk_bit_for_bit(make, k):
    # in block coordinates a flip of qubit N-1 is the identity, and E'_u is
    # the J0 + V diagonal; neither may move a bit of the estimate
    a = _setup(make(), b=0.1, k=k)
    assert (a.block is not None) == (k % 2 == 0)
    ctx = bwpt.solve_self_consistent(a)
    est = bwpt.walk_estimate(ctx, a, samples=2000, seed=5)
    mean, std_error, t_used, top_flipped = _full_index_walk(ctx, a, 2000, 5)
    assert top_flipped
    assert (est.series_estimate, est.std_error, est.t_truncation) == (
        mean, std_error, t_used)


def test_walk_non_positive_denominator_names_a_basis_state_of_the_block():
    a = _setup(disjoint_pairs(8), b=0.1, k=2)
    assert a.block == "even"
    ctx = bwpt.solve_self_consistent(a)
    omega = ctx.omega
    while True:
        omega += 0.5
        try:
            bwpt.walk_estimate(dataclasses.replace(ctx, omega=omega), a,
                               samples=200, seed=1)
        except BwptError as exc:
            message = str(exc)
            break
    bad = int(re.search(r"basis state (\d+)", message).group(1))
    assert 0 <= bad < 1 << 8
    assert bin(bad).count("1") % 2 == 0
    e_prime = a.table.energies[bad] + (ctx.zeta if bad in a.ground.ground_indices else 0.0)
    assert e_prime <= omega


def test_walk_is_seed_deterministic():
    inst = disjoint_pairs(6)
    an = _setup(inst, b=0.1, k=1)
    ctx = bwpt.solve_self_consistent(an)
    a = bwpt.walk_estimate(ctx, an, samples=500, seed=3)
    b = bwpt.walk_estimate(ctx, an, samples=500, seed=3)
    assert a.series_estimate == b.series_estimate


def _zeta_p(a, zeta):
    """zeta P, dense in the block's coordinates."""
    p = np.zeros(a.block_dim)
    p[a.block_ground_coords] = zeta
    return np.diag(p)


def _j0_plus_v_matrix(a, zeta):
    """J0 + V = H_s + zeta P, dense in the block's coordinates."""
    return eigensolve.operator_matrix(a.operator(a.hs_spec)) + _zeta_p(a, zeta)


def _random_d3(n, seed):
    """3N random +-1 triples on N qubits: an odd degree, so no flip sectors."""
    rng = np.random.default_rng(seed)
    terms = [(tuple(int(q) for q in rng.choice(n, 3, replace=False)),
              float(rng.choice([-1.0, 1.0]))) for _ in range(3 * n)]
    return instances.build_instance(n, 3, terms)


@pytest.mark.parametrize("make, k", [
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 1, id="sk_pm8-K1-flip"),
    pytest.param(lambda: instances.generate("sk_pm", 8, seed=2), 2, id="sk_pm8-K2-block-flip"),
    pytest.param(lambda: instances.generate("sk_pm", 9, seed=1), 2, id="sk_pm9-K2-block"),
    pytest.param(lambda: instances.generate("sk_gaussian", 9, seed=3), 3, id="gaussian9-K3-flip"),
    pytest.param(lambda: disjoint_pairs(8), 2, id="pairs8-K2-block-flip"),
    pytest.param(lambda: _random_d3(9, seed=4), 1, id="d3-9-K1"),
    pytest.param(lambda: _random_d3(8, seed=5), 2, id="d3-8-K2-block"),
    pytest.param(lambda: _random_d3(9, seed=6), 3, id="d3-9-K3"),
])
@pytest.mark.parametrize("zeta", [0.5, 2.0])
def test_phi_matches_the_dense_j0_plus_v_solve(make, k, zeta):
    # the old resummation, (omega - J0 - V) phi = (omega - J0) xi0 solved
    # densely, is the reference for phi from the Q-resolvent
    a = _setup(make(), b=0.1, k=k)
    ctx = bwpt.solve_self_consistent(a, zeta=zeta)
    phi, report = bwpt.phi_exact(ctx, a)
    xi0 = np.zeros(a.block_dim)
    xi0[a.block_ground_coords] = ctx.xi0
    j0 = np.diag(a.operator(a.hs_spec).diagonal) + _zeta_p(a, zeta)
    omega_i = ctx.omega * np.eye(a.block_dim)
    want = np.linalg.solve(omega_i - _j0_plus_v_matrix(a, zeta), (omega_i - j0) @ xi0)
    assert np.linalg.norm(phi - want) <= 1e-10 * np.linalg.norm(want)
    assert report.phi_norm == pytest.approx(np.linalg.norm(want), rel=1e-10)


def test_convergence_check_agrees_with_the_dense_j0_plus_v_spectrum():
    # the series converges iff J0 + V - omega is positive definite; the check
    # reads it from h(omega) and must agree with the dense spectrum of J0 + V
    verdicts = set()
    for model, n, k, b in itertools.product(("sk_pm", "sk_gaussian"), (6, 8),
                                            (1, 2, 3), (0.1, 0.2)):
        a = _setup(instances.generate(model, n, seed=1), b=b, k=k)
        omega = float(a.lowest(a.hs_spec, 1).eigenvalues[0])
        for zeta in (0.5, 1e-3, 0.0, -0.1):
            dense = _j0_plus_v_matrix(a, zeta)
            diverges = np.linalg.eigvalsh(dense)[0] <= omega + 1e-12
            try:
                bwpt.solve_self_consistent(a, zeta=zeta)
                raised = False
            except BwptError as exc:
                assert "--zeta" in str(exc)
                raised = True
            assert raised == diverges, (model, n, k, b, zeta)
            verdicts.add(raised)
    assert verdicts == {True, False}


def _sk8_seed3(big_b):
    inst = instances.generate("sk_pm", 8, seed=3)
    return Analysis(inst, hilbert.evaluate_hz(inst), OperatorSpec("HS", big_b=big_b, k=2))


def test_a_large_field_walk_stays_finite():
    # at B = 100 the walk runs 190 steps: B^t overflowed to inf while the
    # product of the 1/(E'_u - omega) underflowed, and the estimate read NaN
    a = _sk8_seed3(100.0)
    ctx = bwpt.solve_self_consistent(a)
    est = bwpt.walk_estimate(ctx, a, samples=200, seed=0)
    assert est.t_truncation > 154  # 100^155 overflows a double
    assert math.isfinite(est.series_estimate) and est.series_estimate > 1.0
    assert math.isfinite(est.std_error) and est.std_error > 0.0


def test_an_overflowing_analytic_bound_is_infinite():
    # at B = 1e4 the bound's exponent BN / (2DK|E0|) is past exp's range
    a = _sk8_seed3(1e4)
    ctx = bwpt.solve_self_consistent(a)
    _phi, overlap = bwpt.phi_exact(ctx, a)
    assert overlap.analytic_bound == math.inf
    assert math.isfinite(overlap.inner_psi_plus_phi)


@pytest.mark.parametrize("zeta", [math.inf, math.nan])
def test_a_non_finite_zeta_is_rejected(zeta):
    a = _sk8_seed3(0.1 * 10)
    with pytest.raises(BwptError, match="--zeta"):
        bwpt.solve_self_consistent(a, zeta=zeta)
    # past that check, an infinite zeta makes phi NaN, which phi_exact's
    # residual check rejects
    ctx = dataclasses.replace(bwpt.solve_self_consistent(a), zeta=zeta)
    with pytest.raises(BwptError, match="not an H_s eigenvector"):
        bwpt.phi_exact(ctx, a)

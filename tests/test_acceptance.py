"""Acceptance suite: ten criteria, each printing one PASS/FAIL line.

The verdict lines are written to the real stdout so they survive pytest's
capture; every criterion also asserts, so a FAIL line comes with a failing
test."""

import math
import time

import numpy as np
import pytest

import conftest

from shortpath import analyze, bounds, bwpt, eigensolve, hilbert, instances
from shortpath.context import Analysis
from shortpath.eigensolve import BlockMatrixInput, block_lemma_check
from shortpath.hilbert import MatrixFreeOperator, OperatorSpec

from conftest import degeneracy_ladder, disjoint_pairs, main_corpus

B_GRID = (0.0, 0.05, 0.1)
K_GRID = (1, 2, 3)


def verdict(number, ok, message):
    line = f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {message}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def _params(table, b, k):
    return OperatorSpec("HS", big_b=b * abs(table.e0), k=k)


@pytest.fixture(scope="module")
def prepared_corpus():
    """(label, instance, table, ground) for the whole corpus."""
    out = []
    for label, inst in main_corpus():
        table = hilbert.evaluate_hz(inst)
        out.append((label, inst, table, hilbert.ground_space(table)))
    return out


@pytest.fixture(scope="module")
def qgood_sweep(prepared_corpus):
    """qgood reports over corpus x b x K, shared by criteria 2, 4, and 7."""
    sweep = {}
    for label, inst, table, ground in prepared_corpus:
        for b in B_GRID:
            for k in K_GRID:
                rep = analyze.qgood_verify(Analysis(inst, table, _params(table, b, k)))
                sweep[(label, b, k)] = rep
    return sweep


def test_criterion_1_oracle_equivalence(prepared_corpus):
    t0 = time.monotonic()
    worst = 0.0
    combos = 0
    for label, inst, table, ground in prepared_corpus:
        dim = 1 << inst.n_qubits
        want = min(ground.n0 + 1, dim)
        for b in B_GRID:
            for k in K_GRID:
                params = _params(table, b, k)
                op = MatrixFreeOperator(
                    OperatorSpec("HS", big_b=params.big_b, k=k), table)
                it = eigensolve.extreme_eigs(op, want)
                de = eigensolve.dense_spectrum(op, want_vectors=False)
                diff = float(np.max(np.abs(it.eigenvalues - de.eigenvalues[:want])))
                worst = max(worst, diff)
                combos += 1
                assert diff <= 1e-9, (label, b, k, diff)
    elapsed = time.monotonic() - t0
    verdict(1, worst <= 1e-9 and elapsed < 120,
            f"{combos} instance/parameter combos, worst |iterative-dense| = "
            f"{worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_bw_consistency(prepared_corpus, qgood_sweep):
    checked = 0
    worst_fp = 0.0
    worst_align = 1.0
    for label, inst, table, ground in prepared_corpus:
        for k in K_GRID:
            rep = qgood_sweep[(label, 0.1, k)]
            if not rep.preconditions_pass:
                continue
            a = Analysis(inst, table, _params(table, 0.1, k))
            ctx = bwpt.solve_self_consistent(a)
            assert ctx.fixed_point_residual <= 1e-8, (label, k)
            worst_fp = max(worst_fp, ctx.fixed_point_residual)
            # phi_exact enforces the eigenvector residual (1e-8 relative) and
            # the >= 1 - 1e-8 alignment internally; it raises on violation
            phi, _rep = bwpt.phi_exact(ctx, a)
            checked += 1
            if inst.n_qubits <= 6 and k == 1:
                rays = []
                for zeta in (0.25, 0.5, 0.75):
                    c2 = bwpt.solve_self_consistent(a, zeta=zeta)
                    p2, _ = bwpt.phi_exact(c2, a)
                    rays.append(p2 / np.linalg.norm(p2))
                for other in rays[1:]:
                    align = abs(float(rays[0] @ other))
                    worst_align = min(worst_align, align)
                    assert align >= 1 - 1e-8, (label, align)
    verdict(2, checked > 0,
            f"{checked} precondition-passing combos; worst fixed-point residual "
            f"{worst_fp:.2e}; worst zeta-ray alignment {worst_align:.12f}")


def test_criterion_3_walk_series_agreement(prepared_corpus):
    t0 = time.monotonic()
    checked = 0
    worst_sigma = 0.0
    for label, inst, table, ground in prepared_corpus:
        if inst.n_qubits > 8:
            continue
        a = Analysis(inst, table, _params(table, 0.1, 1))
        ctx = bwpt.solve_self_consistent(a)
        phi, rep = bwpt.phi_exact(ctx, a)
        exact = (2.0 ** (inst.n_qubits / 2.0) * rep.inner_psi_plus_phi
                 / rep.xi0_l1)
        est = bwpt.walk_estimate(ctx, a, samples=100000, seed=20240915)
        # 3-standard-error band, with a rounding floor for the cases where the
        # walk is deterministic and the sample variance underflows
        tol = max(3.0 * est.std_error, 1e-12 * max(1.0, abs(exact)))
        err = abs(est.series_estimate - exact)
        worst_sigma = max(worst_sigma, err / max(est.std_error, 1e-300)
                          if est.std_error > 1e-13 * abs(exact) else 0.0)
        assert err <= tol, (label, exact, est.series_estimate, est.std_error)
        # B = 0 returns exactly 1
        zero_a = Analysis(inst, table, OperatorSpec("HS", big_b=0.0, k=1))
        zero_ctx = bwpt.solve_self_consistent(zero_a)
        zero = bwpt.walk_estimate(zero_ctx, zero_a, samples=100, seed=1)
        assert zero.series_estimate == 1.0 and zero.std_error == 0.0, label
        checked += 1
    elapsed = time.monotonic() - t0
    verdict(3, checked > 0 and elapsed < 300,
            f"{checked} instances at 1e5 samples, worst deviation "
            f"{worst_sigma:.2f} standard errors, {elapsed:.1f}s")


def test_criterion_4_theorem2_numerics(qgood_sweep):
    held = 0
    violations = []
    floor = math.sqrt(0.75)
    for (label, b, k), rep in qgood_sweep.items():
        if not rep.preconditions_pass:
            continue
        held += 1
        spec_rep = rep.details["spectral"]
        conclusions = dict((n, (p, m)) for n, p, m in rep.conclusions)
        if not conclusions["band_location"][0]:
            violations.append((label, b, k, "band"))
        if spec_rep.p0_overlaps < floor - 1e-9:
            violations.append((label, b, k, "p0"))
        if rep.details["overlap_2n2"] < 1.0 - 1e-9:
            violations.append((label, b, k, "overlap"))
    verdict(4, held > 0 and not violations,
            f"{held} precondition-passing combos, {len(violations)} violations")


def test_criterion_5_block_lemma_sweep():
    rng = np.random.default_rng(20240501)
    worst = np.inf
    for _ in range(1000):
        n0 = int(rng.integers(1, 4))
        m = int(rng.integers(2, 9))
        a = rng.standard_normal((n0, n0))
        a = 0.5 * (a + a.T)
        c = rng.standard_normal((m, m))
        c = 0.5 * (c + c.T)
        sep = float(rng.uniform(0.2, 4.0))
        c += (sep + np.linalg.eigvalsh(a)[-1] - np.linalg.eigvalsh(c)[0]) * np.eye(m)
        b = rng.uniform(0.1, 1.5) * rng.standard_normal((n0, m))
        rep = block_lemma_check(BlockMatrixInput(a, b, c))
        assert rep.applicable
        margins = [mg for _n, _p, mg in rep.items]
        worst = min(worst, min(margins))
        assert all(mg >= -1e-10 for mg in margins), rep.items
    verdict(5, worst >= -1e-10,
            f"1000 random separated block matrices, worst item margin {worst:.2e}")


def test_criterion_6_entropy_suite(prepared_corpus):
    rng = np.random.default_rng(77)
    checked = 0
    for n in range(4, 11):
        dim = 1 << n
        for trial in range(1000):
            k = K_GRID[trial % 3]
            kind = ("basis", "uniform_on", "random_on")[trial % 3]
            state = np.zeros(dim)
            if kind == "basis":
                state[int(rng.integers(dim))] = 1.0
            else:
                size = int(rng.integers(1, dim + 1))
                support = np.sort(rng.choice(dim, size=size, replace=False))
                seed = int(rng.integers(2**31))  # drawn for both kinds
                if kind == "uniform_on":
                    state[support] = size**-0.5
                else:
                    vals = np.random.default_rng(seed).standard_normal(size)
                    state[support] = vals / np.linalg.norm(vals)
            rep = bounds.state_entropy_checks(state, k)
            assert rep.sx_ok, (n, trial)
            assert rep.genineq_ok, (n, trial)
            assert rep.genineqbasis_ok, (n, trial)
            assert rep.loose_ok, (n, trial)
            checked += 1
    # ||P (X/N)^K|| never exceeds its entropy bound on the corpus
    for label, inst, table, ground in prepared_corpus:
        for k in K_GRID:
            norm = bounds.p_xk_norm(table, ground, k)
            cap = bounds.pbound_value(ground.n0, inst.n_qubits, k)
            assert norm <= cap + 1e-12, (label, k, norm, cap)
    grid = np.linspace(0.0, 1.0, 10000)
    round_trip = max(abs(bounds.tau_inverse(bounds.tau(float(s))) - float(s))
                     for s in grid)
    assert round_trip <= 1e-10
    verdict(6, True,
            f"{checked} random states passed sx/genineq/genineqbasis/loose; "
            f"tau round-trip worst error {round_trip:.2e}")


def test_criterion_7_degeneracy_coverage(prepared_corpus, qgood_sweep):
    ladder = degeneracy_ladder()
    labels = {label for label, _i, _t, _g in prepared_corpus}
    seen = {}
    for label, inst, n0 in ladder:
        assert label in labels, f"{label} missing from the sweep corpus"
        table = hilbert.evaluate_hz(inst)
        ground = hilbert.ground_space(table)
        assert ground.n0 == n0, label
        seen[label] = n0
        # the shared sweep ran criteria 1-4 machinery over these instances
        assert any(key[0] == label for key in qgood_sweep), label
    assert sorted(seen.values()) == [1, 2, 4, 8]
    verdict(7, True,
            f"n0 ladder {sorted(seen.values())} present in every sweep "
            "(includes n0 = 2^(N/2) at N=6)")


def test_criterion_8_classical_baseline():
    extra = [
        ("sk_pm N=12", instances.generate("sk_pm", 12, seed=1)),
        ("pairs N=12", disjoint_pairs(12)),
        ("pairs N=14", disjoint_pairs(14)),
        ("toy N=12", instances.generate(
            "toy", 12, seed=2, n1=3, afm_density=0.4)),
    ]
    corpus = [(lb, inst) for lb, inst in main_corpus() + extra
              if inst.degree == 2 and inst.n_qubits <= 14]
    checked = 0
    for label, inst in corpus:
        rep = bounds.classical_baseline(inst, hilbert.evaluate_hz(inst))
        assert rep.brute_count is not None, label
        assert rep.unit_weights, label
        assert rep.n_choice_int == rep.brute_count, (
            label, rep.n_choice_int, rep.brute_count)
        checked += 1
    verdict(8, checked > 0,
            f"n_choice formula equals brute force exactly on {checked} "
            "D=2 instances up to N=14")


def test_criterion_9_speedup_accounting(prepared_corpus):
    # Grover baseline at B=0
    worst = 0.0
    for label, inst, table, ground in prepared_corpus:
        if inst.n_qubits > 8:
            continue
        sim = analyze.simulate_algorithm1(Analysis(inst, table, OperatorSpec("HS", big_b=0.0, k=1)))
        expect = ground.n0 * 2.0 ** (-inst.n_qubits)
        worst = max(worst, abs(sim.success_prob - expect))
        assert abs(sim.success_prob - expect) <= 1e-12, label
    # N=10 speedups at b=0.1, K=2.  The branch-1 selector is the spectral
    # condition E^Q_{0,1} >= E0 + 1/2; the entropy norm guard saturates at
    # these sizes (an asymptotic artifact), so it is reported, not filtered on.
    speedups = []
    corrections = []
    guard_fails = 0
    for seed in range(1, 6):
        inst = instances.generate("sk_pm", 10, seed=seed)
        table = hilbert.evaluate_hz(inst)
        ground = hilbert.ground_space(table)
        params = _params(table, 0.1, 2)
        a = Analysis(inst, table, params)
        spec_rep = analyze.spectral_report(a)
        if spec_rep.eq01 < table.e0 + 0.5:
            continue
        pnorm = bounds.p_xk_norm(table, ground, 2)
        if params.big_b * pnorm > 0.25:
            guard_fails += 1
        sim = analyze.simulate_algorithm1(a)
        assert sim.speedup_bits > 0, (seed, sim.speedup_bits)
        speedups.append(sim.speedup_bits)
        psi01 = analyze._psi01_from_band(spec_rep, 10)
        measured = math.log(float(hilbert.psi_plus_overlap(psi01, 10)) * 2.0**5)
        leading = params.big_b * 10 / (2.0 * inst.degree * params.k * abs(table.e0))
        corrections.append(measured - leading)
    verdict(9, len(speedups) > 0,
            f"B=0 Grover baseline exact to {worst:.1e}; N=10 b=0.1 K=2 "
            f"speedups {['%.3f' % s for s in speedups]} bits "
            f"({guard_fails}/5 seeds saturate the desk-scale norm guard), "
            f"measured-minus-leading log-overlap corrections "
            f"{['%.3f' % c for c in corrections]}")


def test_criterion_10_heuristic_dos():
    t0 = time.monotonic()
    rows = []
    for seed in range(1, 6):
        inst = instances.generate("sk_pm", 20, seed=seed)
        table = hilbert.evaluate_hz(inst)
        hist = bounds.dos_histogram(table)
        top = len(hist.counts) - 1
        fit = bounds.dos_powerlaw_fit(hist, (2, top // 2))
        ratio = abs(table.e0) / 20.0**1.5
        rows.append((seed, fit.exponent, fit.r_squared, ratio))
    elapsed = time.monotonic() - t0
    in_band = sum(1 for _s, _e, _r2, ratio in rows if 0.5 <= ratio <= 1.1)
    summary = "; ".join(
        f"seed {s}: exponent {e:.3f} (R2 {r2:.4f}), |E0|/N^1.5 {ratio:.3f}"
        for s, e, r2, ratio in rows)
    # report-only: no assertion on the fitted exponent or the ratio
    verdict(10, elapsed < 600,
            f"{summary}; {in_band}/5 ratios inside [0.5, 1.1]; {elapsed:.1f}s")

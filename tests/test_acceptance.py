"""Acceptance gate: eleven pass/fail criteria at their stated tolerances.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line with the measured
quantities (run with ``-s`` to see the lines for passing tests) and then
asserts the verdict.  The criteria are checked honestly: a failing line
means the desk-scale build genuinely misses the stated window, not that
the check was weakened to hide it.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from artifact.cli import main
from artifact.evaluation import consistency_check
from artifact.hjb import Grid, certainty_equivalent, solve
from artifact.market_core import check_elasticity, impact_cost, price_impact
from oracles import paired_mean_gain, paired_variance_gain, price_volatility

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def _criterion(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    line = f"[{verdict}] criterion {number}: {detail}"
    print(line)
    assert passed, line


def _impact_quadrature(delta, lam, params):
    """Independent oracle: integrate the marginal impact by Gauss-Legendre."""
    delta = np.asarray(delta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    a = np.abs(delta)
    z = 0.5 * a[..., None] * (_NODES + 1.0)
    marginal = params.theta_iota + params.kappa_iota * (lam[..., None] - z)
    return np.sign(delta) * 0.5 * a * np.sum(marginal * _WEIGHTS, axis=-1)


def _cost_quadrature(delta, lam, params):
    """Independent oracle: nested quadrature of the impact over the fill."""
    a = np.abs(np.asarray(delta, dtype=float))
    lam = np.asarray(lam, dtype=float)
    z = 0.5 * a[..., None] * (_NODES + 1.0)
    inner = _impact_quadrature(z, np.broadcast_to(lam[..., None], z.shape),
                               params)
    return 0.5 * a * np.sum(inner * _WEIGHTS, axis=-1)


def test_criterion_01_closed_forms_match_quadrature(bench_params):
    """Impact and cost equal numerical quadrature; splitting is exact."""
    tic = time.perf_counter()
    rng = np.random.default_rng(20240815)
    delta = rng.uniform(-10.0, 10.0, size=1000)
    lam = rng.uniform(-40.0, 40.0, size=1000)

    imp = price_impact(delta, lam, bench_params)
    cost = impact_cost(delta, lam, bench_params)
    imp_ref = _impact_quadrature(delta, lam, bench_params)
    cost_ref = _cost_quadrature(delta, lam, bench_params)
    rel_imp = np.max(np.abs(imp - imp_ref)
                     / np.maximum(np.abs(imp_ref), 1e-15))
    rel_cost = np.max(np.abs(cost - cost_ref)
                      / np.maximum(np.abs(cost_ref), 1e-15))

    sign = rng.choice([-1.0, 1.0], size=1000)
    a = sign * rng.uniform(0.1, 5.0, size=1000)
    b = sign * rng.uniform(0.1, 5.0, size=1000)
    lam2 = rng.uniform(-30.0, 40.0, size=1000)
    res_imp = np.max(np.abs(
        price_impact(a + b, lam2, bench_params)
        - price_impact(a, lam2, bench_params)
        - price_impact(b, lam2 - np.abs(a), bench_params)))
    res_cost = np.max(np.abs(
        impact_cost(a + b, lam2, bench_params)
        - impact_cost(a, lam2, bench_params)
        - impact_cost(b, lam2 - np.abs(a), bench_params)
        - price_impact(a, lam2, bench_params) * b))
    elapsed = time.perf_counter() - tic

    ok = (rel_imp <= 1e-10 and rel_cost <= 1e-10
          and res_imp <= 1e-12 and res_cost <= 1e-12 and elapsed < 1.0)
    _criterion(1, ok, (
        f"quadrature rel err {rel_imp:.1e}/{rel_cost:.1e} (<= 1e-10), "
        f"splitting residual {res_imp:.1e}/{res_cost:.1e} (<= 1e-12), "
        f"{elapsed:.2f}s over 1000 pairs"))


def test_criterion_02_roundtrips_lose_money(bench_params):
    """Buy-then-sell loses cash for 1..5 lots at every grid liquidity."""
    tic = time.perf_counter()
    lam = np.arange(-40.0, 41.0)
    zeta = bench_params.zeta
    worst = -np.inf
    for lots in range(1, 6):
        gain = (price_impact(lots, lam, bench_params) * lots
                - 2.0 * zeta * lots
                - impact_cost(lots, lam, bench_params)
                - impact_cost(lots, lam - lots, bench_params))
        worst = max(worst, float(np.max(gain)))
    elapsed = time.perf_counter() - tic
    ok = worst < 0.0 and elapsed < 1.0
    _criterion(2, ok, (
        f"best roundtrip wealth change {worst:.3e} < 0 over "
        f"405 (size, liquidity) pairs, {elapsed:.2f}s"))


def test_criterion_03_turnover_moment_bound(passive_path_stats, marks_blind,
                                            bench_params):
    """Empirical turnover moments n = 1, 2 stay under the analytic bound."""
    v = passive_path_stats["turnover"]
    lam_span = 0.0 - bench_params.lambda_lower
    g_floor = bench_params.g(bench_params.lambda_lower)
    nu_total = float(np.sum(marks_blind.nus))
    parts = []
    ok = True
    for order in (1, 2):
        rho_mom = float(np.sum(marks_blind.nus
                               * np.maximum(marks_blind.rhos, 0.0) ** order))
        bound = ((order + 1) * lam_span ** order
                 + (order + 1) * (bench_params.horizon * g_floor) ** order
                 * nu_total ** (order - 1) * rho_mom)
        emp = v ** order
        se = emp.std(ddof=1) / math.sqrt(len(emp))
        ok = ok and emp.mean() <= bound + 3.0 * se
        parts.append(f"n={order}: {emp.mean():.2f} +- {3 * se:.2f} "
                     f"<= bound {bound:.2f}")
    _criterion(3, ok, "; ".join(parts) + f" ({len(v)} paths)")


def test_criterion_04_quadratic_variation_matches_integrated_variance(
        passive_path_stats, bench_params, marks_signal):
    """E[sum (dP)^2] = E[integral sigma^2 dt]; sigma strictly decreasing."""
    qv = passive_path_stats["qv"]
    iv = passive_path_stats["iv"]
    diff = qv - iv
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    lam = np.arange(-40.0, 41.0)
    verdicts = check_elasticity(bench_params, marks_signal, lam)
    sigma = price_volatility(lam, marks_signal, bench_params)
    decreasing = bool(np.all(np.diff(sigma) < 0.0))
    ok = abs(diff.mean()) <= 3.0 * se and bool(np.all(verdicts)) \
        and decreasing
    _criterion(4, ok, (
        f"QV {qv.mean():.6f} vs integrated variance {iv.mean():.6f}, "
        f"paired gap {diff.mean():+.2e} within 3 SE = {3 * se:.2e} "
        f"({len(qv)} paths); elasticity holds on the grid: "
        f"{bool(np.all(verdicts))}; sigma strictly decreasing: {decreasing}"))


def test_criterion_05_solved_surface_structure(solved_signal, desk_grid):
    """Desk-grid surface: q-symmetric, monotone in liquidity and horizon."""
    w = solved_signal[0].values
    qsym = float(np.max(np.abs(w - w[:, :, ::-1])))
    live = w[:, 1:, :]
    mono_lam = float(np.min(np.diff(live, axis=1)))
    mono_t = float(np.min(np.diff(w, axis=0)))
    ok = qsym <= 1e-8 and mono_lam >= -1e-10 and mono_t >= -1e-10
    _criterion(5, ok, (
        f"q-symmetry residual {qsym:.2e} <= 1e-8; "
        f"min liquidity increment {mono_lam:.2e} and "
        f"min horizon increment {mono_t:.2e} >= -1e-10 "
        f"({desk_grid.n_steps} steps x {w.shape[1]} x {w.shape[2]} nodes)"))


def test_criterion_06_solver_matches_simulation(solved_signal, report_signal,
                                                start_short):
    """Mean simulated utility equals the solved start value within tolerance."""
    res = consistency_check(solved_signal[0], report_signal, start_short)
    _criterion(6, res.passed, (
        f"solver {res.solver_value:.6e} vs Monte-Carlo {res.mc_mean:.6e} "
        f"+- {res.mc_se:.2e} SE; |gap| {res.abs_error:.2e} <= "
        f"tolerance {res.tolerance:.2e} (3 SE + 2%, "
        f"{report_signal.n_sim} paths)"))


def test_criterion_07_certainty_equivalent_surface(solved_signal,
                                                   solved_blind, desk_grid):
    """CE non-negative, zero in deep liquidity, peak within [0.02, 0.06]."""
    ce = certainty_equivalent(solved_signal[0].values[:, 1:, :],
                              solved_blind[0].values[:, 1:, :], 0.1)
    lam_live = desk_grid.lam_values[1:]
    ce_min = float(ce.min())
    ce_deep = float(ce[:, lam_live >= 20.0, :].max())
    ce_max = float(ce.max())
    ok_floor = ce_min >= -1e-9
    ok_deep = ce_deep <= 1e-3
    ok_peak = 0.02 <= ce_max <= 0.06
    _criterion(7, ok_floor and ok_deep and ok_peak, (
        f"min CE {ce_min:.2e} >= -1e-9: {ok_floor}; "
        f"max CE at liquidity >= 20 is {ce_deep:.2e} <= 1e-3: {ok_deep}; "
        f"peak CE {ce_max:.5f} within [0.02, 0.06]: {ok_peak}"))


def test_criterion_08_signal_raises_mean_and_variance(report_signal,
                                                      report_blind):
    """Paired seeds: the signal lifts mean wealth and variance, both 3-sigma."""
    dm, sm = paired_mean_gain(report_signal.wealth, report_blind.wealth)
    dv, sv = paired_variance_gain(report_signal.wealth, report_blind.wealth)
    ok = dm > 3.0 * sm and dv > 3.0 * sv
    _criterion(8, ok, (
        f"mean gain {dm:+.6f} ({dm / sm:.1f} sigma) and "
        f"variance gain {dv:+.6f} ({dv / sv:.1f} sigma), "
        f"both > 3 sigma on {report_signal.n_sim} paired paths"))


def test_criterion_09_speculation_fractions(narrow_reports, report_blind,
                                            report_blind_flat):
    """Narrow-spread speculation near 21% / 11%; exactly zero without signal."""
    fr_short = narrow_reports["signal", "short"].speculation_fraction
    fr_flat = narrow_reports["signal", "flat"].speculation_fraction
    zeros = (report_blind.speculation_fraction,
             report_blind_flat.speculation_fraction,
             narrow_reports["blind", "short"].speculation_fraction,
             narrow_reports["blind", "flat"].speculation_fraction)
    ok_short = abs(fr_short - 0.21) <= 0.05
    ok_flat = abs(fr_flat - 0.11) <= 0.05
    ok_zero = all(z == 0.0 for z in zeros)
    _criterion(9, ok_short and ok_flat and ok_zero, (
        f"narrow-spread speculation {fr_short:.4f} vs 0.21 +- 0.05: "
        f"{ok_short}; {fr_flat:.4f} vs 0.11 +- 0.05: {ok_flat}; "
        f"no-signal fractions {zeros} all exactly 0: {ok_zero}"))


def test_criterion_10_grid_refinement_is_cauchy(solved_signal, bench_params,
                                                marks_signal):
    """Halving (dT, dLambda) shrinks the start-node change."""
    w = [solved_signal[0].start_value(0.0, -8.0)]
    for d_t, d_lam in ((0.0025, 0.5), (0.00125, 0.25)):
        grid = Grid.from_params(bench_params, d_t=d_t, d_lambda=d_lam,
                                q_min=-12.0, q_max=12.0)
        surface, _ = solve(bench_params, marks_signal, grid)
        w.append(surface.start_value(0.0, -8.0))
    first = abs(w[1] - w[0])
    second = abs(w[2] - w[1])
    ok = second <= first
    _criterion(10, ok, (
        f"start-node value {w[0]:.10f} -> {w[1]:.10f} -> {w[2]:.10f}; "
        f"refinement changes {first:.2e} then {second:.2e} "
        f"(non-increasing: {ok})"))


def test_criterion_11_thread_count_determinism(tmp_path):
    """Identical config+seed give hash-identical files at 1/4/8 threads."""
    runner = CliRunner()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": {"n_sim": 2000}}))
    digests = []
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}"
        result = runner.invoke(main, ["evaluate", "-c", str(cfg),
                                      "-o", str(out),
                                      "--threads", str(threads)])
        assert result.exit_code == 0, result.output
        digests.append({
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        })
    ok = len(digests[0]) > 0 and digests[0] == digests[1] == digests[2]
    _criterion(11, ok, (
        f"{len(digests[0])} output files, sha256 identical across "
        f"1/4/8 threads: {ok}"))

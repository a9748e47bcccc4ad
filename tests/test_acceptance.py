"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see every line. Criteria 3
and 6 exercise Monte Carlo regimes that are tail-dominated at the stated
sample sizes; they are implemented exactly as stated and their printed
detail records the measured shortfall (see the test report for numbers).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from sheatlab import analysis as A
from sheatlab import cli
from sheatlab import kernel as K
from sheatlab import oracle as O
from sheatlab import regularity as R
from sheatlab import solver as S
from sheatlab import stats as ST
from sheatlab.noise import GridSpec

PI2 = math.pi ** 2
NU = 0.5


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    assert ok, line


def _mc_tables(cfgs, n_samples, functionals, times):
    """One estimate table per config of a group (configs that differ only in
    lam); each 64-sample block of every config is one group march."""
    tables = [{(f, t): ST.MomentEstimate(f, t) for f in functionals for t in times}
              for _ in cfgs]
    for lo in range(0, n_samples, 64):
        group = S.simulate_group(cfgs, range(lo, min(lo + 64, n_samples)))
        for table, ens in zip(tables, group):
            if isinstance(ens, S.PathDivergedError):
                raise ens
            for (f, t), est in table.items():
                est.add_log_values(f.log_values(ens, t))
    return tables


def test_criterion_1_kernel_cross_validation():
    spec = K.KernelSpec(tol=1e-13)
    rng = np.random.default_rng(1001)
    worst = 0.0
    for t in np.geomspace(1e-4, 10.0, 10):
        xs, ys = rng.random(100), rng.random(100)
        n_req, _ = K._series_terms(spec.nu, float(t), spec.tol)
        a = K.eval_kernel_series(spec, float(t), xs, ys, n_terms=n_req)
        b = K.eval_kernel_images(spec, float(t), xs, ys)
        worst = max(worst, float(np.max(np.abs(a - b))))
    sg = K.semigroup_check(spec, 0.05, 0.05, 0.5, 0.5, n_quad=2048)
    sg2 = K.semigroup_check(spec, 0.1, 0.07, 0.3, 0.6, n_quad=2048)
    res = max(sg.residual_convolution, sg.residual_square,
              sg2.residual_convolution, sg2.residual_square)
    ok = worst < 1e-10 and res < 1e-8
    _report(1, ok,
            f"spectral/image max diff {worst:.2e} (tol 1e-10) over 1000 triples, "
            f"semigroup+squared residual {res:.2e} (tol 1e-8) at 2048-point quadrature")


def test_criterion_2_deterministic_decay():
    grid = GridSpec(n_interior=255, dt=1e-4, horizon=0.5)
    times = (0.1, 0.2, 0.3, 0.4, 0.5)
    results = {}
    for scheme in ("semi_implicit", "spectral"):
        cfg = S.SimulationConfig(grid=grid, lam=0.0, u0=S.InitialData.sine(1),
                                 scheme=scheme, observation_times=times)
        path = S.simulate_paths(cfg, [0])
        j = 127  # x = 1/2
        vals = np.array([path.field_at(t)[0, j] for t in times])
        field_rate = np.polyfit(times, np.log(vals), 1)[0]
        moment_rate = np.polyfit(times, np.log(vals ** 2), 1)[0]
        results[scheme] = (field_rate, moment_rate)
    errs = []
    for scheme, (fr, mr) in results.items():
        errs.append(abs(fr + NU * PI2) / (NU * PI2))
        errs.append(abs(mr + 2 * NU * PI2) / (2 * NU * PI2))
    ok = max(errs) < 0.02
    _report(2, ok,
            "field rate / second-moment rate relative errors "
            + ", ".join(f"{e:.2e}" for e in errs)
            + " vs -nu pi^2 and -2 nu pi^2 (tol 2%), both schemes")


def test_criterion_3_oracle_vs_monte_carlo():
    times = (0.1, 0.25, 0.5)
    f = ST.Functional.pointwise(0.5, 2.0)
    grid = GridSpec(n_interior=127, dt=2.5e-4, horizon=0.5)
    lines, passed = [], 0
    lams = (1.0, 5.0)
    cfgs = [S.SimulationConfig(grid=grid, lam=lam, master_seed=31415,
                               u0=S.InitialData.bump(0.2),
                               observation_times=times) for lam in lams]
    for lam, table in zip(lams, _mc_tables(cfgs, 10_000, [f], times)):
        ocfg = O.OracleConfig(lam=lam, u0=S.InitialData.bump(0.2), horizon=0.5,
                              n_time_panels=1000, n_x=127)
        (mf,) = O.second_moments([ocfg])
        for t in times:
            est = table[(f, t)]
            m = math.exp(mf.log_m_at(t, 0.5))
            err = m * abs(math.expm1(mf.error_log_at(t, 0.5)))
            gap = abs(est.mean - m)
            cell_ok = gap <= est.ci_half_width + err  # ci_half_width = 1.96 SE
            passed += cell_ok
            lines.append(f"(lam={lam:g},t={t:g}): MC {est.mean:.3g} vs oracle "
                         f"{m:.3g} -> {'ok' if cell_ok else 'MISS'}")
    frac = passed / 6.0
    ok = frac >= 0.9
    detail = (f"{passed}/6 cells within 1.96 SE + oracle error "
              f"(need >= 90%); " + "; ".join(lines))
    if not ok:
        detail += ("; lam=5 row is tail-dominated: E[u^2] ~ exp((lam k)^4 t/(8 nu)) "
                   "sits orders beyond what 1e4 samples can register (the scheme's own "
                   "bias: ROADMAP.md item 2's table; the sampling shortfall: "
                   "bench/README.md, Output checks)")
    _report(3, ok, detail)


def test_criterion_4_stability_growth_dichotomy():
    lams = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    base = O.OracleConfig(lam=0.0, u0=S.InitialData.bump(0.2), horizon=4.0,
                          n_time_panels=2000, n_x=31)
    scan = A.oracle_threshold_scan(base, lams, window_fraction=(0.5, 1.0))
    smallest, largest = scan.fits[0], scan.fits[-1]
    ok = (smallest.significantly_negative and largest.significantly_positive
          and scan.lambda_l_hat is not None and scan.lambda_u_hat is not None
          and scan.lambda_l_hat <= scan.lambda_u_hat)
    _report(4, ok,
            f"slope({lams[0]}) = {smallest.slope:.2f} (significantly negative: "
            f"{smallest.significantly_negative}), slope({lams[-1]}) = "
            f"{largest.slope:.1f} (significantly positive: "
            f"{largest.significantly_positive}), bracket "
            f"lambda_L = {scan.lambda_l_hat} <= lambda_U = {scan.lambda_u_hat}")


def test_criterion_5_neumann_contrast():
    base = O.OracleConfig(lam=0.0, u0=S.InitialData.bump(0.2), horizon=2.0,
                          boundary="neumann", n_time_panels=800, n_x=31)
    scan = A.oracle_threshold_scan(base, [0.25])
    fit = scan.fits[0]
    ok = not fit.significantly_negative
    _report(5, ok,
            f"Neumann lam=0.25 fitted slope {fit.slope:.4f} +/- {fit.slope_ci:.4f}"
            f" is NOT significantly negative: {ok} (no Dirichlet spectral gap)")


def test_criterion_6_excitation_index():
    lams = [8.0, 16.0, 32.0, 64.0]
    points = []
    for lam in lams:
        ocfg = O.OracleConfig(lam=lam, u0=S.InitialData.bump(0.2), horizon=0.1,
                              n_time_panels=2500, n_x=31)
        points.append(A.energies_at([ocfg], 0.1)[0])
    fit2 = A.excitation_index(lams, [p.log_energy for p in points], p=2.0)
    oracle_ok = (3.3 <= fit2.e_p_hat <= 4.5
                 and fit2.r2_quartic > fit2.r2_quadratic)

    mc_detail = ""
    mc_ok = False
    try:
        f = ST.Functional.lp(4.0)
        log_es, log_cis = [], []
        grid = GridSpec(n_interior=127, dt=2e-5, horizon=0.1)
        cfgs = [S.SimulationConfig(grid=grid, lam=lam, master_seed=2718,
                                   u0=S.InitialData.bump(0.2),
                                   observation_times=(0.1,)) for lam in lams]
        for table in _mc_tables(cfgs, 1000, [f], (0.1,)):
            en = ST.p_energy(table[(f, 0.1)])
            log_es.append(en.log_value)
            log_cis.append(en.log_ci_half_width)
        fit4 = A.excitation_index(lams, log_es, log_cis=log_cis, p=4.0)
        lo, hi = fit4.e_p_hat - fit4.index.slope_ci, fit4.e_p_hat + fit4.index.slope_ci
        mc_ok = lo <= fit2.e_p_hat <= hi
        mc_detail = f"MC e4_hat = {fit4.e_p_hat:.2f} +/- {fit4.index.slope_ci:.2f}"
    except A.AnalysisError as exc:
        mc_detail = (f"MC e4 fit unattainable: {exc} "
                     f"(measured log E4 = "
                     + ", ".join(f"{v:.1f}" for v in log_es)
                     + " at lam = 8..64: small-lam energies sit below 1, "
                       "tail-dominated; see ROADMAP.md item 2 and bench/README.md, "
                       "Output checks)")
    ok = oracle_ok and mc_ok
    _report(6, ok,
            f"oracle e2_hat = {fit2.e_p_hat:.4f} in [3.3, 4.5]: {oracle_ok}, "
            f"R2 quartic {fit2.r2_quartic:.6f} > quadratic "
            f"{fit2.r2_quadratic:.4f}; {mc_detail}")


def test_criterion_7_theorem31_calibration():
    lams = [4.0, 4 * math.sqrt(2), 8.0, 8 * math.sqrt(2)]
    horizon, n_t = 0.16, 2200
    base = O.OracleConfig(lam=0.0, u0=S.InitialData.bump(0.2), horizon=horizon,
                          n_time_panels=n_t, n_x=25)
    cal = A.theorem31_calibration(A.oracle_threshold_scan(base, lams), k_lower=1.0, nu=NU)
    # K_L coupling: doubling k at half lambda reproduces the same rates
    cal_k2 = A.theorem31_calibration(
        A.oracle_threshold_scan(replace(base, k_sigma=2.0), [lam / 2 for lam in lams]),
        k_lower=2.0, nu=NU)
    coupling = [abs(a - b) <= 1.96 * (sa + sb) + 1e-9 * abs(a)
                for a, b, sa, sb in zip(cal.slopes, cal_k2.slopes,
                                        cal.slope_ses, cal_k2.slope_ses)]
    ok = (cal.kappa2_hat > 0 and cal.r2_quartic > cal.r2_quadratic
          and all(coupling))
    _report(7, ok,
            f"kappa2_hat = {cal.kappa2_hat:.4g} > 0, quartic R2 "
            f"{cal.r2_quartic:.6f} > quadratic {cal.r2_quadratic:.4f}, "
            f"K_L coupling r(lam,2k) = r(2lam,k) within fit error: {all(coupling)}")


def test_criterion_8_integral_bound_lemmas():
    spec = K.KernelSpec()
    neg = A.verify_negative_beta(spec, 0.5, [-1.0, -0.25, -0.0625])
    thr = A.verify_threshold_beta(spec, 0.5, [0.05, 0.0125, 0.003125])
    neg_ok = abs(neg.fitted_exponent - neg.expected_exponent) \
        <= 0.1 * abs(neg.expected_exponent)
    thr_ok = abs(thr.fitted_exponent + 1.0) <= 0.1
    ok = neg_ok and thr_ok and neg.domination_checked and thr.domination_checked
    _report(8, ok,
            f"beta<0 exponent {neg.fitted_exponent:.4f} vs (alpha-1)/2 = -0.25 "
            f"(10% band: {neg_ok}); threshold blow-up exponent "
            f"{thr.fitted_exponent:.4f} vs -1 (10% band: {thr_ok}); "
            f"dominations verified on g_D")


def test_criterion_9_grr_machinery():
    lin = R.GrrParams(p=2, delta=1, eps=0.5)
    b_lin = R.grr_functional(np.linspace(0, 1, 1025), lin).value
    lin_ok = abs(b_lin - 8.0 / 3.0) <= 1e-4

    gen_ok = True
    worst_rel = 0.0
    for params in (lin, R.GrrParams(8, 1, 0.25), R.GrrParams(4, 0.5, 0.2)):
        pinv, phi = R.power_law_pair(params)
        for b, r in ((8.0 / 3.0, 0.5), (2.0, 1.0)):
            got = R.grr_general(pinv, phi, b, r)
            want = R.closed_form_bound(params, b, r)
            rel = abs(got - want) / want
            worst_rel = max(worst_rel, rel)
            gen_ok &= rel <= 1e-8

    params8 = R.GrrParams(p=8, delta=1, eps=0.25)
    grid = GridSpec(n_interior=127, dt=2e-4, horizon=0.1)
    cfg = S.SimulationConfig(grid=grid, lam=1.0, master_seed=99,
                             u0=S.InitialData.bump(0.2), observation_times=(0.1,))
    violations = 0
    for u in S.simulate_paths(cfg, range(100)).field_at(0.1):
        prof = np.concatenate([[0.0], u, [0.0]])
        violations += R.holder_bound_check(prof, params8).n_violations
    ens_ok = violations == 0
    ok = lin_ok and gen_ok and ens_ok
    _report(9, ok,
            f"B(x -> x) = {b_lin:.8f} vs 8/3 (err {abs(b_lin - 8/3):.2e}, tol 1e-4); "
            f"general-vs-closed-form worst rel {worst_rel:.2e} (tol 1e-8); "
            f"Holder violations on 100 paths: {violations}")


def test_criterion_10_reproducibility(tmp_path):
    cfg_text = f"""
[equation]
lambda = 2.0

[grid]
n_interior = 63
dt = 1e-3
horizon = 0.1

[ensemble]
n_samples = 256
master_seed = 424242

[observation]
times = 0.05, 0.1
p_values = 2
functionals = pointwise:0.5, sup, lp

[output]
directory = {tmp_path}/out
"""
    cfg_file = tmp_path / "repro.cfg"
    cfg_file.write_text(cfg_text)
    rc1 = cli.main(["moments", "--config", str(cfg_file), "--workers", "1",
                    "--out", str(tmp_path / "w1")])
    rc8 = cli.main(["moments", "--config", str(cfg_file), "--workers", "8",
                    "--out", str(tmp_path / "w8")])
    csv_equal = (tmp_path / "w1" / "moments.csv").read_bytes() \
        == (tmp_path / "w8" / "moments.csv").read_bytes()

    # shard invariance of the streaming moments at 1e-12 relative
    grid = GridSpec(n_interior=63, dt=1e-3, horizon=0.1)
    sim = S.SimulationConfig(grid=grid, lam=2.0, master_seed=424242,
                             u0=S.InitialData.bump(0.2), observation_times=(0.1,))
    paths = S.simulate_paths(sim, range(256))
    f = ST.Functional.lp(2.0)
    logv = f.log_values(paths, 0.1)
    ref = None
    shard_ok = True
    for n_shards in (1, 8, 64):
        tables = []
        for chunk in np.array_split(np.arange(256), n_shards):
            e = ST.MomentEstimate(f, 0.1)
            e.add_log_values(logv[chunk])
            tables.append({(f, 0.1): e})
        merged = ST.merge_tables(tables)[(f, 0.1)]
        if ref is None:
            ref = merged
        else:
            shard_ok &= abs(merged.mean - ref.mean) <= 1e-12 * abs(ref.mean)
            shard_ok &= abs(merged.variance - ref.variance) \
                <= 1e-12 * abs(ref.variance)
    ok = rc1 == 0 and rc8 == 0 and csv_equal and shard_ok
    _report(10, ok,
            f"workers 1 vs 8 CSV byte-identical: {csv_equal}; shard counts "
            f"(1, 8, 64) agree to 1e-12 relative: {shard_ok}")

"""Batch front door: run kernels, simulations, oracles, sweeps and analyses
from declarative config files, writing CSV/JSON bundles plus a run manifest.

    sheatlab SUBCOMMAND --config experiment.cfg [--seed N] [--workers N]
                        [--out DIR] [--override section.key=value ...]

Subcommands: kernel, simulate, oracle, moments, lyapunov, excitation,
thresholds, grr-check, verify-bounds, all. Exit codes: 0 success, 1 config
error, 2 numerical failure, 3 assertion failure in verification subcommands.
Errors print a JSON diagnostic on stderr.

Runner.dispatch writes each subcommand's manifest_<subcommand>.json after
its outputs, also when a verification fails.

Monte Carlo paths are simulated in fixed 64-sample blocks, concatenated in
index order, and every estimate and GRR check is taken over the whole held
ensemble as one array, so every output is bit-identical for any --workers
value; the seed comes from --seed, else the SHEAT_SEED environment
variable, else the config. A runner holds one ensemble per simulation
config, samples 0..n-1, and simulate, moments, lyapunov, grr-check and the
Monte Carlo half of excitation all read it: a request for n samples or
fewer slices it, a larger one rebuilds it from sample 0. Under `all`, only
sample 0 of one config is simulated twice.
"""

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis as ana
from . import kernel as kern
from . import oracle as ora
from . import regularity as reg
from . import stats as st
from .config import ExperimentConfig, RunManifest, load_manifest, sha256_file, write_json
from .solver import ConfigError, Ensemble, PathDivergedError, simulate_paths

SHARD_SIZE = 64

# per-step noise lambda^2 Lip^2 dt / dx above which a cell is flagged: the
# scheme's own moment then drifts from the continuum (ROADMAP.md item 2)
UNDER_RESOLVED_NOISE = 0.1

MOMENTS_HEADER = ["lambda", "p", "functional", "t", "n", "mean", "ci_half_width",
                  "log_mean", "log_ci_half_width", "log_mode"]

SUBCOMMANDS = ("kernel", "simulate", "oracle", "moments", "lyapunov",
               "excitation", "thresholds", "grr-check", "verify-bounds", "all")


class VerificationError(AssertionError):
    """A verification subcommand's assertion failed."""


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))    # np.float64's own repr wraps the number
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _exp_or_inf(log_value):
    """exp of a log-domain value, inf where it would leave float range."""
    return float(math.exp(log_value)) if log_value < 700 else math.inf


def _ensemble_table(sim_cfg, n_samples, workers):
    """Samples 0..n_samples-1 of sim_cfg as one Ensemble, simulated in
    SHARD_SIZE blocks and concatenated in index order. A single block runs
    in this process: a pool would only add its start-up."""
    shards = [range(lo, min(lo + SHARD_SIZE, n_samples))
              for lo in range(0, n_samples, SHARD_SIZE)]
    if workers > 1 and len(shards) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(simulate_paths, [sim_cfg] * len(shards), shards))
    else:
        parts = [simulate_paths(sim_cfg, shard) for shard in shards]
    return Ensemble(config=sim_cfg, samples=np.arange(n_samples), times=parts[0].times,
                    values=np.concatenate([p.values for p in parts]),
                    log_scale=np.concatenate([p.log_scale for p in parts]))


def _lambda_tag(lam):
    return f"{lam:g}".replace(".", "p").replace("-", "m")


class Runner:
    """Runs subcommands into one output directory.

    dispatch owns each subcommand's manifest (self.man): it builds it, runs
    cmd_<name>, and writes it after the outputs. A cmd_* method computes,
    writes its outputs through _csv and _json, and returns a failure message
    when a verification does not hold.
    """

    def __init__(self, cfg: ExperimentConfig, out_dir, workers):
        self.cfg = cfg
        self.out = out_dir
        self.workers = workers
        self.man = None
        self._ensembles = {}
        os.makedirs(out_dir, exist_ok=True)

    def dispatch(self, name):
        if name == "all":
            for command in SUBCOMMANDS[:-1]:
                self.dispatch(command)
            return
        self.man = RunManifest(command=name, config=self.cfg.snapshot(),
                               config_hash=self.cfg.content_hash(),
                               seed=self.cfg.get("ensemble", "master_seed"))
        failure = getattr(self, "cmd_" + name.replace("-", "_"))()
        self.man.write(self.out)
        if failure:
            raise VerificationError(failure)

    def _csv(self, name, header, rows):
        path = os.path.join(self.out, name)
        _write_csv(path, header, rows)
        self.man.add_output(path)

    def _json(self, name, payload):
        path = os.path.join(self.out, name)
        write_json(path, payload)
        self.man.add_output(path)

    def _ensemble(self, sim, n_samples):
        """Samples 0..n_samples-1 of sim, sliced from the runner's one
        ensemble of sim, which is rebuilt from sample 0 when it holds fewer.
        A diverged build is kept for its size, and a request of that size
        raises its PathDivergedError again without simulating."""
        n_held, held = self._ensembles.get(sim, (0, None))
        if n_held < n_samples or (isinstance(held, PathDivergedError)
                                  and n_held != n_samples):
            start = time.perf_counter()
            try:
                held = _ensemble_table(sim, n_samples, self.workers)
            except PathDivergedError as exc:
                held = exc
            else:
                self._count_throughput(n_samples * max(sim.observation_steps()),
                                       time.perf_counter() - start)
            self._ensembles[sim] = n_samples, held
        if isinstance(held, PathDivergedError):
            raise held
        return held[:n_samples]

    def _table(self, sim, n_samples, functionals, times):
        """The estimate table of samples 0..n_samples-1 of sim; None if the
        ensemble diverged, which each asking manifest lists."""
        try:
            ens = self._ensemble(sim, n_samples)
        except PathDivergedError as exc:
            self.man.failed_cells.append({"lambda": sim.lam, "error": str(exc)})
            return None
        return st.ensemble_estimates(ens, functionals, times)

    def _count_throughput(self, sample_steps, seconds):
        """Add one built ensemble to the manifest's sample-step count (exact)
        and its build time (wall clock, all workers)."""
        diag = self.man.diagnostics
        diag["sample_steps"] = diag.get("sample_steps", 0) + sample_steps
        diag["ensemble_s"] = diag.get("ensemble_s", 0.0) + seconds
        diag["sample_steps_per_s"] = diag["sample_steps"] / diag["ensemble_s"]

    # ------------------------------------------------------------------ #

    def cmd_kernel(self):
        spec = self.cfg.kernel_spec()
        gamma = self.cfg.get("kernel", "gamma")
        cal = kern.calibrate_lower_bound(spec, gamma)
        dx_rep = kern.kernel_dx_bound_check(
            spec, np.geomspace(1e-3, 1.0, 10),
            np.linspace(0.05, 0.95, 11), np.linspace(0.05, 0.95, 11))
        xs = np.linspace(gamma, 1 - gamma, 5)
        t, x, y = np.geomspace(1e-3, 4.0, 10)[:, None, None], xs[:, None], xs[None, :]
        n_terms, use_series, n_images = kern.truncation_plan(spec, t)
        columns = [c.ravel() for c in np.broadcast_arrays(
            t, x, y, kern.eval_kernel(spec, t, x, y), kern.free_kernel(spec.nu, t, x, y),
            kern.kernel_lower_bound(cal.spec, spec, t, x, y),
            np.where(use_series, n_terms, n_images))]
        rows = [(*map(float, row[:-1]), int(row[-1])) for row in zip(*columns)]
        self._csv("kernel_table.csv",
                  ["t", "x", "y", "g_D", "g_free", "lower_bound", "n_terms"], rows)
        sg = kern.semigroup_check(spec, 0.05, 0.05, 0.5, 0.5,
                                  n_quad=self.cfg.get("kernel", "quad_points"))
        self.man.constants = {
            "kappa1_hat": cal.spec.kappa1,
            "kappa2_hat": cal.spec.kappa2,
            "k1_hat": dx_rep.k1,
            "k2_hat": dx_rep.k2,
            "k3": kern.k3_constant(spec),
            "gamma": gamma,
        }
        self.man.diagnostics = {
            "semigroup_residual": sg.residual_convolution,
            "squared_kernel_residual": sg.residual_square,
        }
        self._json("kernel_calibration.json", self.man.constants)

    def cmd_simulate(self):
        sim = self.cfg.simulation()
        path = self._ensemble(sim, 1)[0]
        rows = [(float(t), float(x), float(v), float(lv))
                for t in path.times
                for x, v, lv in zip(sim.grid.x, path.field_at(t), path.log_abs_at(t))]
        self._csv("path.csv", ["t", "x", "u", "log_abs_u"], rows)
        self.man.diagnostics["cfl_ratio"] = sim.grid.cfl_ratio(sim.nu)

    def cmd_oracle(self):
        mf = ora.second_moment_volterra(self.cfg.oracle())
        rows = [(float(t), float(x), _exp_or_inf(mf.log_m[i, j]),
                 float(mf.log_m[i, j]), float(mf.error_log[i, j]))
                for i, t in enumerate(mf.t) for j, x in enumerate(mf.x)]
        self._csv("oracle_moments.csv", ["t", "x", "m", "log_m", "err_log"], rows)
        env = ora.lower_bound_envelope(mf, self.cfg.get("oracle", "gamma"))
        rows = [(float(t), _exp_or_inf(lh), _exp_or_inf(lH), float(lh), float(lH))
                for t, lh, lH in zip(env.t, env.log_h, env.log_big_h)]
        self._csv("oracle_envelope.csv", ["t", "h", "H", "log_h", "log_H"], rows)
        self.man.diagnostics.update({
            "compensation_rate": env.compensation_rate,
            "max_error_log_at_horizon": float(np.max(mf.error_log[-1])),
            **mf.march,
        })

    def _moment_cells(self):
        """Write one CSV per lambda-cell, skipping cells whose checksum matches
        the previous manifest; return the cell CSVs present, in grid order.
        The manifest is rewritten after each built cell, so a rerun after an
        interruption skips the cells already done."""
        functionals = self.cfg.functionals()
        times = self.cfg.get("observation", "times")
        n_samples = self.cfg.get("ensemble", "n_samples")
        config_hash = self.cfg.content_hash()
        prev = load_manifest(self.out, "moments")
        recorded = (prev or {}).get("diagnostics", {}).get("cells", {})
        cell_meta = self.man.diagnostics["cells"] = {}
        cell_csvs = []
        for lam in self.cfg.lambda_grid():
            tag = _lambda_tag(lam)
            cell_csv = os.path.join(self.out, f"moments_cell_{tag}.csv")
            meta = recorded.get(tag, {})
            if (os.path.exists(cell_csv) and meta.get("sha256") == sha256_file(cell_csv)
                    and meta.get("config_hash") == config_hash):
                cell_meta[tag] = meta
            else:
                sim = self.cfg.simulation(lam=lam)
                table = self._table(sim, n_samples, functionals, times)
                if table is None:
                    continue
                rows = []
                for (f, t), est in sorted(
                        table.items(),
                        key=lambda kv: (kv[0][1], kv[0][0].label, kv[0][0].p)):
                    rows.append((lam, f.p, f.label, t, est.n,
                                 est.mean if not est.overflowed else math.inf,
                                 est.ci_half_width if (est.n >= 2 and not est.overflowed)
                                 else math.nan,
                                 est.log_mean, est.log_ci_half_width,
                                 int(est.overflowed)))
                _write_csv(cell_csv, MOMENTS_HEADER, rows)
                cell_meta[tag] = {"sha256": sha256_file(cell_csv),
                                  "config_hash": config_hash, "lambda": lam,
                                  "log_mode_estimates": sum(est.overflowed
                                                            for est in table.values()),
                                  **self._regime(sim, n_samples)}
                self.man.write(self.out)
            cell_csvs.append(cell_csv)
        return cell_csvs

    def _regime(self, sim, n_samples):
        """A cell's per-step noise, flagged when under-resolved, and its
        ensemble's renormalization: the largest log scale, and the samples
        renormalized by the last observation time."""
        ens = self._ensemble(sim, n_samples)
        noise = sim.lam ** 2 * sim.sigma.lipschitz_upper ** 2 * sim.grid.dt / sim.grid.dx
        return {"noise_per_step": noise, "under_resolved": noise > UNDER_RESOLVED_NOISE,
                "max_log_scale": float(np.max(ens.log_scale)),
                "renormalized_samples": int(np.count_nonzero(ens.log_scale[:, -1]))}

    def cmd_moments(self):
        rows = []
        for cell_csv in self._moment_cells():
            with open(cell_csv, newline="", encoding="utf-8") as fh:
                rows += list(csv.reader(fh))[1:]
        self._csv("moments.csv", MOMENTS_HEADER, rows)

    def cmd_lyapunov(self):
        functionals = self.cfg.functionals()
        times = self.cfg.get("observation", "times")
        n_samples = self.cfg.get("ensemble", "n_samples")
        window = ana.fraction_window(max(times), self.cfg.get("analysis", "fit_window"))
        reports = []
        plot_rows = []
        for lam in self.cfg.lambda_grid():
            table = self._table(self.cfg.simulation(lam=lam), n_samples,
                                functionals, times)
            if table is None:
                continue
            for f in functionals:
                label = f.label
                ests = [table[(f, t)] for t in times]
                try:
                    fit = ana.lyapunov_exponent(ests, window=window)
                except ana.AnalysisError as exc:
                    self.man.failed_cells.append({"lambda": lam, "functional": label,
                                                  "error": str(exc)})
                    continue
                reports.append({
                    "lambda": lam, "p": f.p, "functional": label,
                    "slope": fit.slope, "slope_ci": fit.slope_ci,
                    "intercept": fit.intercept, "r_squared": fit.r_squared,
                    "window": fit.window, "n_dropped": fit.n_dropped,
                    "significantly_negative": fit.significantly_negative,
                    "significantly_positive": fit.significantly_positive,
                })
                plot_rows += [(lam, f.p, label, t, est.log_mean, est.log_ci_half_width)
                              for t, est in zip(times, ests)]
        self._json("lyapunov.json", {"fits": reports})
        self._csv("lyapunov_series.csv", ["lambda", "p", "functional", "t",
                                          "log_moment", "log_ci_half_width"], plot_rows)

    def cmd_excitation(self):
        lams = self.cfg.get("analysis", "lambda_grid")
        t_star = self.cfg.get("analysis", "excitation_time")
        solves = [self.cfg.oracle(lam=lam, horizon=t_star) for lam in lams]
        points = [ana.energy_at(oc, t_star) for oc in solves]
        fit, failure = self._excitation_fit({"backend": "oracle", "p": 2.0}, lams,
                                            [p.log_energy for p in points], p=2.0)
        payload = {
            "t": t_star,
            "p": 2,
            "backend": "oracle",
            "e2_hat": fit and fit.e_p_hat,
            "slope_ci": fit and fit.index.slope_ci,
            "r2_quartic": fit and fit.r2_quartic,
            "r2_quadratic": fit and fit.r2_quadratic,
            **failure,
            "points": [{"lambda": p.lam, "log_energy": p.log_energy,
                        "rate": p.rate, "window_horizon": p.window_horizon,
                        "extrapolated": p.extrapolated,
                        "norm_lam4": p.log_energy / p.lam ** 4}
                       for p in points],
        }
        # n_diag = n_time_panels: every lag of that solve took the diagonal
        # surrogate, so its energy has no spatial quadrature behind it; a
        # point is extrapolated when its rate_dt exceeds RESOLVED_RATE_DT
        self.man.diagnostics.update({
            "n_time_panels": self.cfg.get("oracle", "n_time_panels"),
            "oracle_points": [{"lambda": p.lam, "max_error_log": p.error_log,
                               "rate_dt": oc.rate_dt, **p.march}
                              for p, oc in zip(points, solves)],
        })
        mc_samples = self.cfg.get("analysis", "mc_samples")
        if mc_samples > 0:
            payload["mc"] = self._excitation_mc(lams, t_star, mc_samples)
        self._json("excitation.json", payload)
        rows = [(p.lam, p.log_energy, p.rate, int(p.extrapolated)) for p in points]
        self._csv("excitation_series.csv",
                  ["lambda", "log_E2", "rate", "extrapolated"], rows)

    def _excitation_mc(self, lams, t_star, n_samples):
        p_mc = self.cfg.get("analysis", "mc_p")
        f = st.Functional.lp(p_mc)
        log_es, log_cis = [], []
        regimes = self.man.diagnostics["mc_points"] = []
        for lam in lams:
            sim = self.cfg.simulation(lam=lam, t_end=t_star)
            table = self._table(sim, n_samples, [f], (t_star,))
            if table is not None:
                regimes.append({"lambda": lam, **self._regime(sim, n_samples)})
            # a diverged lambda enters as nan, which the fit drops
            energy = None if table is None else st.p_energy(table[(f, t_star)])
            log_es.append(energy.log_value if energy else math.nan)
            log_cis.append(energy.log_ci_half_width if energy else math.nan)
        # listed as the fit drops them: E_p <= 1, or diverged (nan)
        mc = {"p": p_mc, "n_samples": n_samples, "log_energies": log_es, "log_cis": log_cis,
              "dropped_lambdas": [float(lam) for lam, e in zip(lams, log_es) if not e > 0]}
        fit, failure = self._excitation_fit({"functional": "lp", "p": p_mc}, lams,
                                            log_es, log_cis=log_cis, p=p_mc)
        return {**mc, "e_p_hat": fit and fit.e_p_hat,
                "slope_ci": fit and fit.index.slope_ci, **failure}

    def _excitation_fit(self, cell, lams, log_es, **kwargs):
        """(fit, {}) from ana.excitation_index, or (None, {"error": ...}) with
        the failure listed as a failed cell: the energies behind it stand."""
        try:
            return ana.excitation_index(lams, log_es, **kwargs), {}
        except ana.AnalysisError as exc:
            self.man.failed_cells.append({**cell, "error": str(exc)})
            return None, {"error": str(exc)}

    def cmd_thresholds(self):
        lams = self.cfg.get("analysis", "lambda_grid")
        scan = ana.oracle_threshold_scan(
            self.cfg.oracle(), lams, gamma=self.cfg.get("oracle", "gamma"),
            window_fraction=self.cfg.get("analysis", "fit_window"))
        self._json("thresholds.json", {
            "lambda_l_hat": scan.lambda_l_hat,
            "lambda_u_hat": scan.lambda_u_hat,
            "fits": [{"lambda": lam, "slope": f.slope, "slope_ci": f.slope_ci,
                      "significantly_negative": f.significantly_negative,
                      "significantly_positive": f.significantly_positive,
                      "rate_dt": rate_dt, "resolved": resolved}
                     for lam, f, rate_dt, resolved
                     in zip(scan.lams, scan.fits, scan.rate_dt, scan.resolved)],
        })
        rows = [(lam, f.slope, f.slope_ci) for lam, f in zip(scan.lams, scan.fits)]
        self._csv("thresholds_series.csv", ["lambda", "slope", "slope_ci"], rows)
        self.man.diagnostics.update({
            "n_time_panels": self.cfg.get("oracle", "n_time_panels"),
            **scan.march,
        })

    def cmd_grr_check(self):
        params = self.cfg.grr_params()
        n_paths = self.cfg.get("grr", "n_paths")
        sim = self.cfg.simulation()
        if sim.grid.n_interior + 2 < 64:
            raise ConfigError("grr-check needs n_interior >= 62 sample nodes")
        if n_paths < 1:
            raise ConfigError("grr-check needs grr.n_paths >= 1")
        ens = self._ensemble(sim, n_paths)
        i = ens.time_index(max(sim.observation_times))
        # profiles on [0, 1] at spacing dx: Dirichlet zeros, or the Neumann
        # mirror ghosts u_0 = u_1 and u_{n+1} = u_n of the solver's closure
        profiles = np.pad(ens.values[:, i], ((0, 0), (1, 1)),
                          mode="constant" if sim.boundary == "dirichlet" else "edge")
        g = reg.grr_functional(profiles, params)
        rep = reg.holder_bound_check(profiles, params, b_value=g.holder_b)
        violations = int(np.sum(rep.n_violations))
        # each row is u / c: B(c u) = |c|^p B(u), and the Holder ratio is
        # scale-free; |c|^p is inf past exp(700), as _exp_or_inf
        log_c = params.p * ens.log_scale[:, i]
        b_scale = np.exp(np.where(log_c < 700, log_c, np.inf))
        self._csv("grr_paths.csv", ["sample", "B", "max_ratio", "cutoff",
                                    "cutoff_sensitivity", "violations", "divergent"],
                  zip(ens.samples, g.value * b_scale, rep.max_ratio,
                      np.full(n_paths, g.cutoff), g.sensitivity * b_scale,
                      rep.n_violations, g.divergent.astype(int)))
        # closed-form verifications
        lin_params = reg.GrrParams(p=2, delta=1, eps=0.5)
        b_lin = reg.grr_functional(np.linspace(0, 1, 1025), lin_params).value
        pinv, phi = reg.power_law_pair(params)
        general = reg.grr_general(pinv, phi, 2.0, 0.5)
        closed = reg.closed_form_bound(params, 2.0, 0.5)
        general_rel = abs(general - closed) / closed
        self._json("grr_check.json", {
            "linear_b": b_lin,
            "linear_b_target": 8.0 / 3.0,
            "linear_b_error": abs(b_lin - 8.0 / 3.0),
            "general_vs_closed_rel": general_rel,
            "kappa": params.kappa,
            "ensemble_violations": violations,
        })
        if abs(b_lin - 8.0 / 3.0) > 1e-4:
            return "linear-profile B misses the closed form 8/3"
        if general_rel > 1e-8:
            return "general GRR integral misses the power-law form"
        if violations > 0:
            return f"{violations} Holder-bound violations"

    def cmd_verify_bounds(self):
        spec = self.cfg.kernel_spec()
        alpha = self.cfg.get("bounds", "alpha")
        neg = ana.verify_negative_beta(spec, alpha, self.cfg.get("bounds", "betas"))
        thr = ana.verify_threshold_beta(spec, alpha, self.cfg.get("bounds", "margins"))
        self._json("verify_bounds.json", {
            "negative_beta": {
                "betas": neg.betas, "sups": neg.sups, "c_hats": neg.c_hats,
                "fitted_exponent": neg.fitted_exponent,
                "expected_exponent": neg.expected_exponent,
                "refinement_change": neg.refinement_change,
                "domination_checked": neg.domination_checked,
            },
            "threshold": {
                "betas": thr.betas, "sups": thr.sups, "c_hats": thr.c_hats,
                "fitted_exponent": thr.fitted_exponent,
                "expected_exponent": thr.expected_exponent,
                "threshold": thr.threshold,
                "domination_checked": thr.domination_checked,
            },
        })
        if abs(neg.fitted_exponent - neg.expected_exponent) \
                > 0.1 * abs(neg.expected_exponent):
            return "negative-beta exponent outside the 10% band"
        if abs(thr.fitted_exponent + 1.0) > 0.1:
            return "threshold blow-up exponent outside the 10% band"
        if neg.refinement_change > 0.02:
            return "bound constant did not stabilize under refinement"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sheatlab",
        description="stochastic heat equation simulation and verification lab")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None,
                        help="experiment config file (INI); defaults apply if omitted")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides SHEAT_SEED and the config)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; never affects results")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="config override, repeatable")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    seed = args.seed
    if seed is None and os.environ.get("SHEAT_SEED"):
        seed = int(os.environ["SHEAT_SEED"])
    try:
        cfg = (ExperimentConfig.from_file(args.config, args.override, seed)
               if args.config else ExperimentConfig.defaults().resolve(args.override, seed))
        out_dir = args.out or cfg.get("output", "directory")
        Runner(cfg, out_dir, max(args.workers, 1)).dispatch(args.subcommand)
        return 0
    except (ConfigError, configparser.Error, KeyError) as exc:
        _diag("config_error", exc)
        return 1
    except VerificationError as exc:
        _diag("verification_failure", exc)
        return 3
    except Exception as exc:  # numerical failures: NaN aborts, divergence
        _diag("numerical_failure", exc)
        return 2


def _diag(kind, exc):
    print(json.dumps({"error": kind, "type": type(exc).__name__,
                      "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

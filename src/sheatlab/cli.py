"""Batch front door: run kernels, simulations, oracles, sweeps and analyses
from declarative config files, writing CSV/JSON bundles plus a run manifest.

    sheatlab SUBCOMMAND --config experiment.cfg [--seed N] [--workers N]
                        [--out DIR] [--override section.key=value ...]

Subcommands: kernel, simulate, oracle, moments, lyapunov, excitation,
thresholds, grr-check, verify-bounds, all. Exit codes: 0 success, 1 config
error (every key is checked before any compute, except grr-check's 64
sample nodes), 2 numerical failure only, 3 assertion failure in
verification subcommands. Errors print a JSON diagnostic on stderr.

Runner.dispatch writes each subcommand's manifest_<subcommand>.json after
its outputs, also when a verification fails; it is the only writer of a
manifest, and a rerun into the same directory recomputes every output.
moments, lyapunov and the Monte Carlo half of excitation record each
lambda-cell they estimate in the manifest's diagnostics.cells, and each
diverged one in its failed_cells.

Monte Carlo paths are simulated in fixed 64-sample blocks, concatenated in
index order, and every estimate and GRR check is taken over the whole held
ensemble as one array, so every output is bit-identical for any --workers
value; the seed comes from --seed, else the SHEAT_SEED environment
variable, else the config. A runner holds one ensemble per simulation
config, samples 0..n-1, and simulate, moments, lyapunov, grr-check and the
Monte Carlo half of excitation all read it: a request for n samples or
fewer slices it, a larger one rebuilds it from sample 0. Ensembles are
built per lambda-grid group: moments, lyapunov and the Monte Carlo half of
excitation first build every cell of their grid that the runner does not
hold as one march, which draws each sample's noise once for all of them.
`all` runs moments before the other Monte Carlo readers, so lyapunov,
simulate and grr-check slice its ensembles: each config is built once.
The runner also holds each cell's estimate table, so lyapunov reads the
tables moments took.
"""

import argparse
import configparser
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import analysis as ana
from . import kernel as kern
from . import oracle as ora
from . import regularity as reg
from . import stats as st
from .config import ExperimentConfig, RunManifest, write_json
from .solver import ConfigError, Ensemble, PathDivergedError, load_kernels, simulate_group

SHARD_SIZE = 64

# per-step noise lambda^2 Lip^2 dt / dx above which a cell is flagged: the
# scheme's own moment then drifts from the continuum (ROADMAP.md item 2)
UNDER_RESOLVED_NOISE = 0.1

MOMENTS_HEADER = ["lambda", "p", "functional", "t", "n", "mean", "ci_half_width",
                  "log_mean", "log_ci_half_width", "log_mode"]

# `all`'s order: moments, the largest build, precedes the readers that slice it
SUBCOMMANDS = ("kernel", "oracle", "moments", "lyapunov", "simulate", "grr-check",
               "excitation", "thresholds", "verify-bounds", "all")


class VerificationError(AssertionError):
    """A verification subcommand's assertion failed."""


def _exp_or_inf(log_value):
    """exp of a log-domain value, inf where it would leave float range."""
    return float(math.exp(log_value)) if log_value < 700 else math.inf


def _ensemble_table(sims, n_samples, workers):
    """Samples 0..n_samples-1 of each config of a group (configs that differ
    only in lambda), simulated together in SHARD_SIZE-sample shards and
    written into one Ensemble per config in index order. Returns, per
    config, its Ensemble or the PathDivergedError of its first diverged
    shard. A single shard runs in this process: a pool would only add its
    start-up."""
    shards = [range(lo, min(lo + SHARD_SIZE, n_samples))
              for lo in range(0, n_samples, SHARD_SIZE)]
    tables = [None] * len(sims)

    def put(shard, members):
        for i, part in enumerate(members):
            if isinstance(tables[i], PathDivergedError):
                continue
            if isinstance(part, PathDivergedError):
                tables[i] = part
                continue
            if tables[i] is None:
                tables[i] = Ensemble(
                    config=sims[i], samples=np.arange(n_samples), times=part.times,
                    values=np.empty((n_samples, *part.values.shape[1:])),
                    log_scale=np.empty((n_samples, part.log_scale.shape[1])))
            tables[i].values[shard.start:shard.stop] = part.values
            tables[i].log_scale[shard.start:shard.stop] = part.log_scale

    if workers > 1 and len(shards) > 1:
        from concurrent.futures import ProcessPoolExecutor
        load_kernels()    # once, here: the forked workers inherit scipy
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for shard, members in zip(shards, pool.map(simulate_group, [sims] * len(shards),
                                                       shards)):
                put(shard, members)
    else:
        # a shard's members are dropped once copied, before the next march
        for shard in shards:
            put(shard, simulate_group(sims, shard))
    return tables


def _regime(ens):
    """A cell's per-step noise, flagged when under-resolved, and its
    ensemble's renormalization: the largest log scale, and the samples
    renormalized by the last observation time."""
    sim = ens.config
    noise = sim.lam ** 2 * sim.sigma.lipschitz_upper ** 2 * sim.grid.dt / sim.grid.dx
    return {"noise_per_step": noise, "under_resolved": noise > UNDER_RESOLVED_NOISE,
            "max_log_scale": float(np.max(ens.log_scale)),
            "renormalized_samples": int(np.count_nonzero(ens.log_scale[:, -1]))}


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
        self._held = {}
        self._tables = {}
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output.directory: cannot create {out_dir}: "
                              f"{exc.strerror}") from exc

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
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.man.add_output(path)

    def _json(self, name, payload):
        path = os.path.join(self.out, name)
        write_json(path, payload)
        self.man.add_output(path)

    def _ensembles(self, sims, n_samples):
        """Per config of sims, samples 0..n_samples-1 sliced from the ensemble
        held of it, or the PathDivergedError of its build. Configs not held,
        held with fewer samples, or diverged at another size are first built
        as one group, whose sample steps and wall time the manifest adds up."""
        todo = []
        for sim in sims:
            n_held, held = self._held.get(sim, (0, None))
            if sim not in todo and (n_held < n_samples or (
                    isinstance(held, PathDivergedError) and n_held != n_samples)):
                todo.append(sim)
        if todo:
            start = time.perf_counter()
            tables = _ensemble_table(todo, n_samples, self.workers)
            built = [sim for sim, held in zip(todo, tables)
                     if not isinstance(held, PathDivergedError)]
            if built:
                diag = self.man.diagnostics
                diag["sample_steps"] = diag.get("sample_steps", 0) + sum(
                    n_samples * max(sim.observation_steps()) for sim in built)
                diag["ensemble_s"] = (diag.get("ensemble_s", 0.0)
                                      + time.perf_counter() - start)
                diag["sample_steps_per_s"] = diag["sample_steps"] / diag["ensemble_s"]
            for sim, held in zip(todo, tables):
                self._held[sim] = n_samples, held
        return [held if isinstance(held, PathDivergedError) else held[:n_samples]
                for held in (self._held[sim][1] for sim in sims)]

    def _ensemble(self, sim, n_samples):
        """Samples 0..n_samples-1 of sim (see _ensembles); raises the
        PathDivergedError of a diverged build."""
        (ens,) = self._ensembles([sim], n_samples)
        if isinstance(ens, PathDivergedError):
            raise ens
        return ens

    def _cells(self, sims, n_samples, functionals, times):
        """Per config of sims, its lambda, its ensemble's (see _ensembles)
        ensemble_estimates table over functionals and times, and its record
        in the manifest's diagnostics.cells, lambda and _regime, which the
        caller may add to; a diverged config goes to failed_cells instead.
        The runner holds each table, keyed by config, sample count,
        functionals and times, so a later reader of the same cell reuses it."""
        records = self.man.diagnostics.setdefault("cells", [])
        for sim, ens in zip(sims, self._ensembles(sims, n_samples)):
            if isinstance(ens, PathDivergedError):
                self.man.failed_cells.append({"lambda": sim.lam, "error": str(ens)})
            else:
                records.append({"lambda": sim.lam, **_regime(ens)})
                key = (sim, n_samples, tuple(functionals), tuple(times))
                if key not in self._tables:
                    self._tables[key] = st.ensemble_estimates(ens, functionals, times)
                yield sim.lam, self._tables[key], records[-1]

    def _grid_cells(self):
        """_cells of the lambda grid, over the observed functionals and times."""
        sims = [self.cfg.simulation(lam=lam) for lam in self.cfg.lambda_grid()]
        return self._cells(sims, self.cfg.get("ensemble", "n_samples"),
                           self.cfg.functionals(), self.cfg.get("observation", "times"))

    # ------------------------------------------------------------------ #

    def cmd_kernel(self):
        spec = self.cfg.kernel_spec()
        gamma = self.cfg.get("kernel", "gamma")
        lb = kern.calibrate_lower_bound(spec, gamma)
        dx_rep = kern.kernel_dx_bound_check(spec)
        xs = np.linspace(gamma, 1 - gamma, 5)
        t, x, y = np.geomspace(1e-3, 4.0, 10)[:, None, None], xs[:, None], xs[None, :]
        n_terms, use_series, n_images = kern.truncation_plan(spec, t)
        columns = [c.ravel() for c in np.broadcast_arrays(
            t, x, y, kern.eval_kernel(spec, t, x, y), kern.free_kernel(spec.nu, t, x, y),
            kern.kernel_lower_bound(lb, spec, t, x, y),
            np.where(use_series, n_terms, n_images))]
        rows = [(*map(float, row[:-1]), int(row[-1])) for row in zip(*columns)]
        self._csv("kernel_table.csv",
                  ["t", "x", "y", "g_D", "g_free", "lower_bound", "n_terms"], rows)
        sg = kern.semigroup_check(spec, 0.05, 0.05, 0.5, 0.5,
                                  n_quad=self.cfg.get("kernel", "quad_points"))
        self.man.constants = {
            "kappa1_hat": lb.kappa1,
            "kappa2_hat": lb.kappa2,
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
        ens = self._ensemble(sim, 1)
        rows = [(float(t), float(x), float(v), float(lv))
                for t in ens.times
                for x, v, lv in zip(sim.grid.x, ens.field_at(t)[0], ens.log_abs_at(t)[0])]
        self._csv("path.csv", ["t", "x", "u", "log_abs_u"], rows)
        self.man.diagnostics["cfl_ratio"] = sim.grid.cfl_ratio(sim.nu)

    def cmd_oracle(self):
        (mf,) = ora.second_moments([self.cfg.oracle()])
        # streamed, so that no list of every (t, x) row is held
        rows = ((float(t), float(x), _exp_or_inf(mf.log_m[i, j]),
                 float(mf.log_m[i, j]), float(mf.error_log[i, j]))
                for i, t in enumerate(mf.t) for j, x in enumerate(mf.x))
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

    def cmd_moments(self):
        rows = []
        for lam, table, record in self._grid_cells():
            record["log_mode_estimates"] = sum(est.overflowed for est in table.values())
            for (f, t), est in sorted(table.items(),
                                      key=lambda kv: (kv[0][1], kv[0][0].label, kv[0][0].p)):
                rows.append((lam, f.p, f.label, t, est.n,
                             est.mean if not est.overflowed else math.inf,
                             est.ci_half_width if (est.n >= 2 and not est.overflowed)
                             else math.nan,
                             est.log_mean, est.log_ci_half_width, int(est.overflowed)))
        self._csv("moments.csv", MOMENTS_HEADER, rows)

    def cmd_lyapunov(self):
        functionals = self.cfg.functionals()
        times = self.cfg.get("observation", "times")
        window = ana.fraction_window(max(times), self.cfg.get("analysis", "fit_window"))
        reports = []
        plot_rows = []
        for lam, table, _ in self._grid_cells():
            for f in functionals:
                ests = [table[(f, t)] for t in times]
                try:
                    fit = ana.lyapunov_exponent(ests, window=window)
                except ana.AnalysisError as exc:
                    self.man.failed_cells.append({"lambda": lam, "functional": f.label,
                                                  "error": str(exc)})
                    continue
                reports.append({
                    "lambda": lam, "p": f.p, "functional": f.label, **asdict(fit),
                    "significantly_negative": fit.significantly_negative,
                    "significantly_positive": fit.significantly_positive,
                })
                plot_rows += [(lam, f.p, f.label, t, est.log_mean, est.log_ci_half_width)
                              for t, est in zip(times, ests)]
        self._json("lyapunov.json", {"fits": reports})
        self._csv("lyapunov_series.csv", ["lambda", "p", "functional", "t",
                                          "log_moment", "log_ci_half_width"], plot_rows)

    def cmd_excitation(self):
        lams = self.cfg.get("analysis", "lambda_grid")
        t_star = self.cfg.get("analysis", "excitation_time")
        solves = [self.cfg.oracle(lam=lam, horizon=t_star) for lam in lams]
        start = time.perf_counter()
        points = ana.energies_at(solves, t_star)
        oracle_s = round(time.perf_counter() - start, 3)   # as wall_clock_s
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
        # each point carries its solve's march telemetry (MomentField.march);
        # a point is extrapolated when its rate_dt exceeds RESOLVED_RATE_DT,
        # and oracle_s is the seconds of all its solves
        self.man.diagnostics.update({
            "n_time_panels": self.cfg.get("oracle", "n_time_panels"),
            "oracle_s": oracle_s,
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
        sims = [self.cfg.simulation(lam=lam, t_end=t_star) for lam in lams]
        energies = {lam: st.p_energy(table[(f, t_star)])
                    for lam, table, _ in self._cells(sims, n_samples, [f], (t_star,))}
        # a diverged lambda enters as nan, which the fit drops
        log_es = [energies[lam].log_value if lam in energies else math.nan for lam in lams]
        log_cis = [energies[lam].log_ci_half_width if lam in energies else math.nan
                   for lam in lams]
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
            raise ConfigError("grid.n_interior must be >= 62: grr-check samples 64 nodes")
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
            "negative_beta": {k: v for k, v in asdict(neg).items() if k != "threshold"},
            "threshold": {k: v for k, v in asdict(thr).items() if k != "refinement_change"},
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
    seed, env_seed = args.seed, os.environ.get("SHEAT_SEED")
    try:
        if seed is None and env_seed:
            try:
                seed = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"SHEAT_SEED must be an integer: {env_seed!r}") from exc
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

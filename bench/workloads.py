"""The benchmark's workloads. One process runs one workload.

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

bench/run.py starts this with BLAS pinned to one thread and PYTHONPATH set
to the checkout's src/. Every operation is one ``sheatlab`` subcommand,
called through ``sheatlab.cli.main`` in this process. An operation fails on
a non-zero exit code, a non-empty ``failed_cells`` in a manifest, or a failed
output check; a failed check also makes the run incorrect.

A run repeats whole rounds of its workload's operations. It starts another
round only while the rounds so far project to end within --seconds, and it
always runs at least one. With --trace 1 it runs one untraced round and
then one traced round, and reports the per-layer metrics and the tracing
overhead. The last line on stdout is a JSON object for bench/run.py.
"""

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(BENCH, "configs")
sys.path.insert(0, BENCH)

import reference as ref  # noqa: E402  (the benchmark's own module)

# Output-check tolerances, fixed before any run.
Z_UPPER = 5.0       # a sample mean may exceed the exact moment by this many SE
KERNEL_TOL = 1e-9   # kernel_table.csv vs the eigen series, relative to max(1, g)
LOG_M_ALLOWANCE = 0.01  # oracle log m vs the finer scheme, beyond err_log


def ratio_floor(lam):
    """Share of the exact moment a sample mean may fall short to.

    The lower tail of the mean is heavy, so its own SE is no yardstick there.
    """
    return 0.3 if lam <= 1.0 else 1e-3


ALL_COMMANDS = ("kernel", "simulate", "oracle", "moments", "lyapunov",
                "excitation", "thresholds", "grr-check", "verify-bounds")


class Op:
    """One subcommand invocation and the checks on its output."""

    def __init__(self, name, argv, commands, check=None, timed=True):
        self.name, self.argv, self.commands = name, argv, commands
        self.check, self.timed = check, timed


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _manifest(out, command):
    return _read_json(os.path.join(out, f"manifest_{command.replace('-', '_')}.json"))


def _steps(t, dt):
    return int(round(t / dt))


def _sample_steps(c):
    """Samples x steps x lambda-cells of one ensemble subcommand on config c."""
    steps = _steps(max(c.get("observation", "times")), c.get("grid", "dt"))
    return c.get("ensemble", "n_samples") * steps * len(c.lambda_grid())


# ------------------------------------------------------------ the checks --

def check_moments(rows, exact, n_samples, dt, n_interior):
    """Monte Carlo moments against the exact scheme moment, and sup >= others.

    exact: {lambda: {step: E[u_j^2] per node}}. The pointwise:0.5 and lp
    means at p = 2 may lie at most Z_UPPER standard errors above the exact
    moment, and no lower than ratio_floor(lambda) times it. The test is one
    sided in units of SE because the moment is carried by rare large paths:
    a large draw inflates the SE along with the mean, so the upper side holds
    (at 256 samples z stayed below 2.1 over 58 seeds), while a sample without
    one falls short with a small SE (z down to -6.3 at lambda = 1 and -53 at
    lambda = 2, means down to 0.54 and 0.048 of the exact moment).
    """
    errors = []
    mid = (n_interior + 1) // 2 - 1                 # the node at x = 1/2
    cells = {}
    for row in rows:
        key = (float(row["lambda"]), float(row["p"]), _steps(float(row["t"]), dt))
        cells.setdefault(key, {})[row["functional"]] = row
        if int(row["n"]) != n_samples:
            errors.append(f"row {key} {row['functional']} has n={row['n']}")
    wanted = {(lam, 2.0, step) for lam in exact for step in exact[lam] if step > 0}
    errors += [f"no p=2 rows at lambda={lam:g}, t={step * dt:g}"
               for lam, _, step in sorted(wanted - set(cells))]
    for (lam, p, step), by_f in sorted(cells.items()):
        where = f"lambda={lam:g}, p={p:g}, t={step * dt:g}"
        if {"sup", "lp", "pointwise:0.5"} - set(by_f):
            errors.append(f"missing functionals at {where}")
            continue
        sup = float(by_f["sup"]["log_mean"])
        for other in ("pointwise:0.5", "lp"):
            if sup < float(by_f[other]["log_mean"]) - 1e-9 * max(1.0, abs(sup)):
                errors.append(f"sup < {other} at {where}")
        if (lam, p, step) not in wanted:
            continue
        m = exact[lam][step]
        for f, want in (("pointwise:0.5", m[mid]), ("lp", m.sum() / (n_interior + 1))):
            row = by_f[f]
            se = float(row["ci_half_width"]) / 1.96
            mean = float(row["mean"])
            z = (mean - want) / se if se > 0 else math.inf
            if z > Z_UPPER or mean < ratio_floor(lam) * want:
                errors.append(f"{f} mean {mean:.6g} at {where} is {z:.2f} SE from "
                              f"the exact scheme moment {want:.6g}")
    return errors


def check_kernel_table(out, nu):
    rows = _read_csv(os.path.join(out, "kernel_table.csv"))
    errors = [] if rows else ["kernel_table.csv is empty"]
    worst = 0.0
    for row in rows:
        t = float(row["t"])
        if t < 1e-3:
            continue
        want = float(ref.dirichlet_kernel(t, float(row["x"]), float(row["y"]), nu=nu))
        worst = max(worst, abs(float(row["g_D"]) - want) / max(1.0, abs(want)))
    if worst > KERNEL_TOL:
        errors.append(f"kernel_table.csv misses the eigen series by {worst:.2e}")
    return errors


def check_thresholds(out, nu):
    data = _read_json(os.path.join(out, "thresholds.json"))
    fits = sorted(data["fits"], key=lambda f: f["lambda"])
    slopes = [f["slope"] for f in fits]
    errors = []
    if any(b <= a for a, b in zip(slopes, slopes[1:])):
        errors.append(f"slopes do not rise with lambda: {slopes}")
    floor = -2.0 * nu * math.pi ** 2
    if fits[0]["lambda"] == 0.25 and not floor < slopes[0] < 0.95 * floor:
        errors.append(f"slope at lambda=0.25 is {slopes[0]:.4f}, not just above "
                      f"-2 nu pi^2 = {floor:.4f}")
    lo, hi = data["lambda_l_hat"], data["lambda_u_hat"]
    if lo is None or hi is None or lo > hi:
        errors.append(f"bracket lambda_L={lo}, lambda_U={hi}")
    return errors


def check_excitation(out, nu):
    data = _read_json(os.path.join(out, "excitation.json"))
    errors = []
    if not 3.3 <= data["e2_hat"] <= 4.5:
        errors.append(f"e2_hat = {data['e2_hat']:.4f} outside [3.3, 4.5]")
    if not data["r2_quartic"] > data["r2_quadratic"]:
        errors.append("quartic R^2 does not beat quadratic R^2")
    top = max(data["points"], key=lambda p: p["lambda"])
    want = data["t"] / (16.0 * nu)
    if abs(top["norm_lam4"] / want - 1.0) > 0.01:
        errors.append(f"log E2/lambda^4 at lambda={top['lambda']:g} is "
                      f"{top['norm_lam4']:.6g}, not within 1% of t/(16 nu) = {want:.6g}")
    return errors


def check_oracle_vs_scheme(out, exact_fine, dt_fine, n_interior):
    """Oracle log m(t, 1/2) against the exact moment of a finer scheme grid."""
    rows = [r for r in _read_csv(os.path.join(out, "oracle_moments.csv"))
            if abs(float(r["x"]) - 0.5) < 1e-9]
    errors = [] if rows else ["oracle_moments.csv has no x = 1/2 column"]
    mid = (n_interior + 1) // 2 - 1
    by_step = {_steps(float(r["t"]), dt_fine): r for r in rows}
    for step, m in exact_fine.items():
        row = by_step.get(step)
        if row is None:
            errors.append(f"oracle has no t = {step * dt_fine:g}")
            continue
        gap = abs(float(row["log_m"]) - math.log(m[mid]))
        if gap > float(row["err_log"]) + LOG_M_ALLOWANCE:
            errors.append(f"oracle log m at t={step * dt_fine:g} is {gap:.4f} from "
                          f"the finer scheme (err_log {float(row['err_log']):.2e})")
    return errors


# ---------------------------------------------------------- the workloads --

class Workload:
    """Operations, references and derived figures of one workload."""

    def __init__(self, config_mod, seed, out):
        self.seed, self.out = seed, out
        self.configs = {}
        for name in self.config_files:
            path = os.path.join(CONFIGS, name)
            self.configs[name] = config_mod.ExperimentConfig.from_file(path, seed=seed)

    def prepare(self):
        """Compute the references; runs once, outside the timed section."""

    def figures(self, op_times, outs):
        """Extra per-round figures shown beside the metrics."""
        return {}

    def argv(self, *args):
        return list(args) + ["--seed", str(self.seed)]


class McMoments(Workload):
    config_files = ("mc_moments.cfg",)

    def __init__(self, config_mod, seed, out):
        super().__init__(config_mod, seed, out)
        self.cfg = self.configs["mc_moments.cfg"]
        path = os.path.join(CONFIGS, "mc_moments.cfg")
        self.ops = [
            Op(f"moments_{scheme}",
               self.argv("moments", "--config", path, "--workers", "1",
                         "--override", f"ensemble.scheme={scheme}"),
               ("moments",), check=self._checker(scheme))
            for scheme in ref.SCHEMES]

    def prepare(self):
        c = self.cfg
        dt, n = c.get("grid", "dt"), c.get("grid", "n_interior")
        u0 = ref.bump(ref.grid_x(n), c.get("initial", "gamma"))
        steps = [_steps(t, dt) for t in c.get("observation", "times")]
        self.exact = {
            scheme: {lam: ref.scheme_second_moment(scheme, u0, dt, lam, steps,
                                                   nu=c.get("equation", "nu"),
                                                   k=c.get("equation", "sigma_k"))
                     for lam in c.lambda_grid()}
            for scheme in ref.SCHEMES}

    def _checker(self, scheme):
        def check(out):
            c = self.cfg
            return check_moments(_read_csv(os.path.join(out, "moments.csv")),
                                 self.exact[scheme], c.get("ensemble", "n_samples"),
                                 c.get("grid", "dt"), c.get("grid", "n_interior"))
        return check

    def figures(self, op_times, outs):
        work = _sample_steps(self.cfg)
        return {"fd_sample_steps_per_s": (work / op_times["moments_semi_implicit"], "1/s"),
                "spectral_sample_steps_per_s": (work / op_times["moments_spectral"], "1/s"),
                "moments_semi_implicit_s": (op_times["moments_semi_implicit"], "s"),
                "moments_spectral_s": (op_times["moments_spectral"], "s")}


class OracleScan(Workload):
    config_files = ("oracle_thresholds.cfg", "oracle_excitation.cfg")

    def __init__(self, config_mod, seed, out):
        super().__init__(config_mod, seed, out)
        nu = self.configs["oracle_thresholds.cfg"].get("equation", "nu")
        self.ops = [
            Op("thresholds", self.argv("thresholds", "--config",
                                       os.path.join(CONFIGS, "oracle_thresholds.cfg")),
               ("thresholds",), check=lambda out: check_thresholds(out, nu)),
            Op("excitation", self.argv("excitation", "--config",
                                       os.path.join(CONFIGS, "oracle_excitation.cfg")),
               ("excitation",), check=lambda out: check_excitation(out, nu)),
        ]

    def figures(self, op_times, outs):
        return {"thresholds_s": (op_times["thresholds"], "s"),
                "excitation_s": (op_times["excitation"], "s")}


class CliAll(Workload):
    config_files = ("experiment.cfg",)
    # The shipped demo config, loaded as a user would; it fails to load today.
    shipped = os.path.join("demos", "experiment.cfg")

    def __init__(self, config_mod, seed, out):
        super().__init__(config_mod, seed, out)
        self.cfg = self.configs["experiment.cfg"]
        workers = str(min(2, os.cpu_count() or 1))
        self.ops = [
            Op("all", self.argv("all", "--config", os.path.join(CONFIGS, "experiment.cfg"),
                                "--workers", workers),
               ALL_COMMANDS, check=self._check_all),
            Op("kernel_shipped_config", self.argv("kernel", "--config", self.shipped),
               ("kernel",), timed=False,
               check=lambda out: check_kernel_table(out, self.cfg.get("equation", "nu"))),
        ]

    def prepare(self):
        c = self.cfg
        dt, n, nu = c.get("grid", "dt"), c.get("grid", "n_interior"), c.get("equation", "nu")
        lam, k = c.get("equation", "lambda"), c.get("equation", "sigma_k")
        u0 = ref.bump(ref.grid_x(n), c.get("initial", "gamma"))
        times = c.get("observation", "times")
        self.exact = {lam: ref.scheme_second_moment(
            c.get("ensemble", "scheme"), u0, dt, lam, [_steps(t, dt) for t in times],
            nu=nu, k=k)}
        self.dt_fine = dt / 2
        self.exact_fine = ref.scheme_second_moment(
            "semi_implicit", u0, self.dt_fine, lam,
            [_steps(t, self.dt_fine) for t in (0.1, 0.25, 0.5)], nu=nu, k=k)

    def _check_all(self, out):
        c = self.cfg
        nu = c.get("equation", "nu")
        errors = check_kernel_table(out, nu)
        b = _read_json(os.path.join(out, "grr_check.json"))["linear_b"]
        if abs(b - 8.0 / 3.0) > 1e-4:
            errors.append(f"linear_b = {b:.8f} is not within 1e-4 of 8/3")
        errors += check_moments(_read_csv(os.path.join(out, "moments.csv")), self.exact,
                                c.get("ensemble", "n_samples"), c.get("grid", "dt"),
                                c.get("grid", "n_interior"))
        errors += check_oracle_vs_scheme(out, self.exact_fine, self.dt_fine,
                                         c.get("grid", "n_interior"))
        fits = _read_json(os.path.join(out, "lyapunov.json"))["fits"]
        if len(fits) != len(c.functionals()) * len(c.lambda_grid()):
            errors.append(f"lyapunov fitted {len(fits)} cells")
        return errors

    def figures(self, op_times, outs):
        out = outs["all"]
        figs = {}
        for command in ALL_COMMANDS:
            try:
                wall = _manifest(out, command)["wall_clock_s"]
            except (OSError, KeyError, ValueError):
                continue
            figs[f"{command.replace('-', '_')}_s"] = (wall, "s")
        if "moments_s" in figs:
            figs["fd_sample_steps_per_s"] = (_sample_steps(self.cfg) / figs["moments_s"][0],
                                             "1/s")
        return figs


WORKLOADS = {"mc_moments": McMoments, "oracle_scan": OracleScan, "cli_all": CliAll}


# ------------------------------------------------------------- the runner --

def run_op(cli, op, root):
    """Run one operation in a fresh output directory; (seconds, errors, bad)."""
    out = os.path.join(root, op.name)
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    rc = cli.main(op.argv + ["--out", out])
    seconds = time.perf_counter() - t0
    if rc != 0:
        return seconds, [f"{op.name}: exit code {rc}"], False
    errors = []
    try:
        for command in op.commands:
            cells = _manifest(out, command)["failed_cells"]
            if cells:
                errors.append(f"{op.name}: {command} failed_cells {cells}")
        if not errors and op.check is not None:
            wrong = op.check(out)
            return seconds, [f"{op.name}: {e}" for e in wrong], bool(wrong)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return seconds, [f"{op.name}: unreadable output: {exc!r}"], True
    return seconds, errors, False


def run_round(cli, workload):
    times, outs, errors = {}, {}, []
    attempted = failed = 0
    wrong = False
    for op in workload.ops:
        seconds, errs, bad = run_op(cli, op, workload.out)
        attempted += 1
        failed += bool(errs)
        wrong |= bad
        errors += errs
        outs[op.name] = os.path.join(workload.out, op.name)
        if op.timed:
            times[op.name] = seconds
    return {"wall_s": sum(times.values()), "attempted": attempted, "failed": failed,
            "wrong": wrong, "errors": errors,
            "figures": workload.figures(times, outs), "outs": outs}


def _dir_bytes(paths):
    total = 0
    for root in paths:
        for base, _, files in os.walk(root):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def machine_facts():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # set-up: the package imported and the workload's configs loaded
    from sheatlab import cli, config
    workload = WORKLOADS[args.workload](config, args.seed, args.out)
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return 0

    os.makedirs(args.out, exist_ok=True)
    workload.prepare()
    rounds, layers, absent, missing = [], None, [], []
    if args.trace:
        import tracer
        rounds.append(run_round(cli, workload))
        tr = tracer.Tracer().install()
        try:
            rounds.append(run_round(cli, workload))
        finally:
            tr.uninstall()
        layers = tr.metrics()
        overhead = rounds[1]["wall_s"] - rounds[0]["wall_s"]
        layers["trace.overhead_s"] = (overhead, "s")
        layers["trace.overhead_share"] = (overhead / rounds[0]["wall_s"], "ratio")
        layers["cli.output_bytes"] = (_dir_bytes(rounds[1]["outs"].values()), "bytes")
        absent, missing = tr.absent_layers(), list(tr.missing)
        if tr.hook_errors:
            missing.append(f"{tr.hook_errors} counting hooks failed")
        tr.write_spans(os.path.join(args.out, "spans.csv"))
    else:
        start = time.perf_counter()
        while True:
            rounds.append(run_round(cli, workload))
            elapsed = time.perf_counter() - start
            longest = max(r["wall_s"] for r in rounds)
            if elapsed + longest > args.seconds:
                break

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss       # KiB on Linux
    figures = {}
    for key in rounds[0]["figures"]:
        vals = [r["figures"][key][0] for r in rounds if key in r["figures"]]
        figures[key] = (statistics.median(vals), rounds[0]["figures"][key][1])
    errors = sorted({e for r in rounds for e in r["errors"]})
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ready_ns": ready_ns,
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "correct": not any(r["wrong"] for r in rounds),
        "errors": errors,
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "peak_rss_mb": usage / 1024.0,
        "figures": figures,
        "layers": layers,
        "absent_layers": absent,
        "missing_functions": missing,
        "machine": machine_facts(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

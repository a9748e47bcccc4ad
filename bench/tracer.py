"""Span tracer for the benchmark's traced runs.

The tracer wraps sheatlab's public functions from outside the package. Every
module-level binding of a wrapped function object is replaced, so each caller
resolves the wrapper under the name it uses: the solver's ``sample_block``,
the CLI's ``simulate_paths``, the oracle's ``kern.eval_kernel``. Each call
becomes a span with a name, a layer, a start, an end and the span that caused
it. A span's self time is its duration minus the part its child spans cover,
including the tracer's own bookkeeping in those children, so per-layer self
times leave the tracer out. Spans stay in memory and are written out once.

Work in worker processes is not seen: forked workers inherit the wrappers,
but their spans stay in the worker. A function that a later version of the
package no longer has is listed as missing, and a layer with none of its
functions left is reported absent; neither stops the run.
"""

import csv
import functools
import importlib
import inspect
import json
import os
import sys
from time import perf_counter_ns

import numpy as np

LAYERS = ("noise", "solver", "stats", "oracle", "kernel", "analysis",
          "regularity", "config", "cli")

# Names whose spans mark a path simulation already counted by its caller.
_ENSEMBLE_SPANS = ("cli._ensemble_table", "solver.simulate_paths",
                   "solver.simulate_path")


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "overhead", "tag")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = self.overhead = 0
        self.tag = None


class Tracer:
    """Install wrappers, record spans and counts, and derive layer metrics."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.distinct_paths = set()
        self.missing = []
        self.hook_errors = 0
        self._stack = []
        self._patches = []
        self._present = set()

    # ----------------------------------------------------------- install --

    def install(self, targets=None):
        """Wrap every target; return self. Targets are (layer, path, hook)."""
        for layer, path, hook in targets or TARGETS:
            owner, attr = _resolve(path)
            if owner is None:
                self.missing.append(path)
                continue
            self._present.add(layer)
            name = f"{layer}.{attr}"
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(layer, name, raw.__func__, hook))
                self._patch(owner, attr, raw, wrapped)
            elif inspect.isclass(owner):
                self._patch(owner, attr, raw, self._wrapper(layer, name, raw, hook))
            else:
                wrapper = self._wrapper(layer, name, raw, hook)
                for module in _package_modules():
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, raw, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def absent_layers(self):
        return [layer for layer in LAYERS if layer not in self._present]

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrapper(self, layer, name, fn, hook):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            w0 = perf_counter_ns()
            span = Span(name, layer, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if hook is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, span, bound.arguments, result)
                except Exception:  # a count the package's new shape no longer fits
                    self.hook_errors += 1
            span.overhead = (span.start - w0) + (perf_counter_ns() - span.end)
            return result

        return traced

    # ------------------------------------------------------------ record --

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def under(self, span, names):
        """True when an ancestor of ``span`` has one of ``names``."""
        i = span.parent
        while i >= 0:
            if self.spans[i].name in names:
                return True
            i = self.spans[i].parent
        return False

    def record_paths(self, span, cfg, samples):
        """Count paths the CLI asked for, once, at the outermost call."""
        if self.under(span, _ENSEMBLE_SPANS):
            return
        samples = list(samples)
        self.add("cli.paths_simulated", len(samples))
        key = repr(cfg)
        self.distinct_paths.update((key, int(s)) for s in samples)

    # ----------------------------------------------------------- analyse --

    def self_times(self):
        """Per-span self time and bookkeeping-free inclusive time, in ns."""
        n = len(self.spans)
        cover = np.zeros(n)
        nested_overhead = np.zeros(n)
        for i in range(n - 1, -1, -1):          # children follow their parent
            s = self.spans[i]
            if s.parent >= 0:
                cover[s.parent] += (s.end - s.start) + s.overhead
                nested_overhead[s.parent] += s.overhead + nested_overhead[i]
        dur = np.array([s.end - s.start for s in self.spans], dtype=float)
        return dur - cover, dur - nested_overhead

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "layer", "parent", "start_ns",
                             "end_ns", "tag"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, s.layer, s.parent, s.start, s.end,
                                 s.tag or ""])

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        self_ns, incl_ns = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        by_name, calls = {}, {}
        for s, own, incl in zip(self.spans, self_ns, incl_ns):
            layer_self[s.layer] += own
            key = (s.name, s.tag)
            own_sum, incl_sum = by_name.get(key, (0.0, 0.0))
            by_name[key] = (own_sum + own, incl_sum + incl)
            calls[s.name] = calls.get(s.name, 0) + 1

        def own(name, tag=None):
            return by_name.get((name, tag), (0.0, 0.0))[0]

        def per(numerator, denominator, scale):
            return numerator * scale / denominator if denominator else 0.0

        c = self.counts.get
        fd_steps = c("solver.semi_implicit_sample_steps", 0)
        sp_steps = c("solver.spectral_sample_steps", 0)
        normals = c("noise.normals", 0)
        values = c("stats.values", 0)
        points = c("kernel.points", 0)
        terms = c("oracle.history_terms", 0)
        simulated = c("cli.paths_simulated", 0)
        eval_incl = sum(v[1] for k, v in by_name.items()
                        if k[0] == "kernel.eval_kernel")
        solve_self = own("oracle.second_moment_volterra")
        grr_calls = calls.get("regularity.grr_functional", 0)
        holder_calls = calls.get("regularity.holder_bound_check", 0)
        fits = sum(calls.get(n, 0) for n in (
            "analysis.lyapunov_exponent", "analysis.lyapunov_exponent_series",
            "analysis.excitation_index"))
        out = {f"{layer}.self_s": (layer_self[layer] / 1e9, "s") for layer in LAYERS}
        out.update({
            "noise.normals": (normals, "count"),
            "noise.ns_per_normal": (per(layer_self["noise"], normals, 1.0), "ns"),
            "solver.sample_steps": (fd_steps + sp_steps, "count"),
            "solver.fd_us_per_sample_step": (
                per(own("solver.simulate_paths", "semi_implicit"), fd_steps, 1e-3), "us"),
            "solver.spectral_us_per_sample_step": (
                per(own("solver.simulate_paths", "spectral"), sp_steps, 1e-3), "us"),
            "stats.values": (values, "count"),
            "stats.ns_per_value": (per(own("stats.ensemble_estimates"), values, 1.0), "ns"),
            "stats.merges": (calls.get("stats.merge", 0), "count"),
            "oracle.solves": (c("oracle.solves", 0), "count"),
            "oracle.time_panels": (c("oracle.time_panels", 0), "count"),
            "oracle.ns_per_history_term": (per(solve_self, terms, 1.0), "ns"),
            "oracle.max_err_log": (c("oracle.max_err_log", 0.0), "log"),
            "kernel.eval_calls": (calls.get("kernel.eval_kernel", 0), "count"),
            "kernel.points": (points, "count"),
            "kernel.ns_per_point": (per(eval_incl, points, 1.0), "ns"),
            "kernel.switch_time_calls": (calls.get("kernel.switch_time", 0), "count"),
            "analysis.fits": (fits, "count"),
            "regularity.grr_calls": (grr_calls, "count"),
            "regularity.ms_per_grr": (
                per(own("regularity.grr_functional"), grr_calls, 1e-6), "ms"),
            "regularity.holder_calls": (holder_calls, "count"),
            "regularity.ms_per_holder": (
                per(own("regularity.holder_bound_check"), holder_calls, 1e-6), "ms"),
            "config.load_s": (sum(v[1] for k, v in by_name.items()
                                  if k[0] == "config.from_file") / 1e9, "s"),
            "config.hashed_bytes": (c("config.hashed_bytes", 0), "bytes"),
            "config.hash_s": (sum(v[1] for k, v in by_name.items()
                                  if k[0] in ("config.sha256_file",
                                              "config.content_hash")) / 1e9, "s"),
            "cli.ensemble_s": (sum(v[1] for k, v in by_name.items()
                                   if k[0] == "cli._ensemble_table") / 1e9, "s"),
            "cli.paths_simulated": (simulated, "count"),
            "cli.distinct_paths": (len(self.distinct_paths), "count"),
            "cli.distinct_path_ratio": (per(len(self.distinct_paths), simulated, 1.0),
                                        "ratio"),
            "trace.spans": (len(self.spans), "count"),
        })
        return out


# ------------------------------------------------------------------ hooks --

def _sample_block(tr, span, a, result):
    tr.add("noise.normals", a["n_steps"] * a["stream"].grid.n_interior)


def _sample_increments(tr, span, a, result):
    tr.add("noise.normals", (a["step_index"] + 1) * a["stream"].grid.n_interior)


def _simulate_paths(tr, span, a, result):
    cfg = a["cfg"]
    span.tag = cfg.scheme
    steps = int(round(max(cfg.observation_times) / cfg.grid.dt))
    tr.add(f"solver.{cfg.scheme}_sample_steps", len(result) * steps)
    tr.record_paths(span, cfg, [p.sample_index for p in result])


def _simulate_path(tr, span, a, result):
    tr.record_paths(span, a["cfg"], [result.sample_index])


def _dispatch(tr, span, a, result):
    span.tag = a["name"]


def _ensemble_table(tr, span, a, result):
    tr.record_paths(span, a["sim_cfg"], range(a["n_samples"]))


def _ensemble_estimates(tr, span, a, result):
    tr.add("stats.values", len(a["paths"]) * len(a["functionals"]) * len(a["times"]))


def _volterra(tr, span, a, result):
    cfg, fine = a["cfg"], a["cfg"].n_time_panels
    grids = [fine, fine // 2] if a["error_estimate"] else [fine]
    tr.add("oracle.solves", len(grids))
    tr.add("oracle.time_panels", sum(grids))
    # the march's history sum: step i touches i lags of an n_x x n_x operator
    tr.add("oracle.history_terms", sum(n * n * cfg.n_x ** 2 / 2 for n in grids))
    # the grid-halving error at the last time level, as energy_at reports it
    err = result.error_log
    if err is not None and np.any(np.isfinite(err[-1])):
        worst = float(np.max(err[-1][np.isfinite(err[-1])]))
        tr.counts["oracle.max_err_log"] = max(tr.counts.get("oracle.max_err_log", 0.0),
                                              worst)


def _eval_kernel(tr, span, a, result):
    tr.add("kernel.points", np.broadcast(a["t"], a["x"], a["y"]).size)


def _sha256_file(tr, span, a, result):
    tr.add("config.hashed_bytes", os.path.getsize(a["path"]))


def _content_hash(tr, span, a, result):
    blob = json.dumps(a["self"].snapshot(), sort_keys=True).encode()
    tr.add("config.hashed_bytes", len(blob))


# Wrapped functions by layer. ``module:attr`` for functions, whose every
# binding in the package is replaced; ``module:Class.attr`` for methods.
TARGETS = [
    ("noise", "sheatlab.noise:sample_block", _sample_block),
    ("noise", "sheatlab.noise:sample_increments", _sample_increments),
    ("noise", "sheatlab.noise:spectral_increments", None),
    ("solver", "sheatlab.solver:simulate_paths", _simulate_paths),
    ("solver", "sheatlab.solver:simulate_path", _simulate_path),
    ("solver", "sheatlab.solver:step_semi_implicit", None),
    ("solver", "sheatlab.solver:step_spectral", None),
    ("solver", "sheatlab.solver:project_initial", None),
    ("stats", "sheatlab.stats:ensemble_estimates", _ensemble_estimates),
    ("stats", "sheatlab.stats:merge_tables", None),
    ("stats", "sheatlab.stats:merge", None),
    ("stats", "sheatlab.stats:p_energy", None),
    ("oracle", "sheatlab.oracle:second_moment_volterra", _volterra),
    ("oracle", "sheatlab.oracle:energy_at", None),
    ("oracle", "sheatlab.oracle:lower_bound_envelope", None),
    ("oracle", "sheatlab.oracle:log_l2_energy", None),
    ("oracle", "sheatlab.oracle:theorem31_calibration", None),
    ("kernel", "sheatlab.kernel:eval_kernel", _eval_kernel),
    ("kernel", "sheatlab.kernel:truncation_terms", None),
    ("kernel", "sheatlab.kernel:switch_time", None),
    ("kernel", "sheatlab.kernel:eval_kernel_series", None),
    ("kernel", "sheatlab.kernel:eval_kernel_images", None),
    ("kernel", "sheatlab.kernel:log_eval_dirichlet", None),
    ("kernel", "sheatlab.kernel:kernel_lower_bound", None),
    ("kernel", "sheatlab.kernel:calibrate_lower_bound", None),
    ("kernel", "sheatlab.kernel:kernel_dx_bound_check", None),
    ("kernel", "sheatlab.kernel:semigroup_check", None),
    ("kernel", "sheatlab.kernel:k3_constant", None),
    ("analysis", "sheatlab.analysis:lyapunov_exponent", None),
    ("analysis", "sheatlab.analysis:lyapunov_exponent_series", None),
    ("analysis", "sheatlab.analysis:excitation_index", None),
    ("analysis", "sheatlab.analysis:classify_thresholds", None),
    ("analysis", "sheatlab.analysis:oracle_threshold_scan", None),
    ("analysis", "sheatlab.analysis:integral_bound_value", None),
    ("analysis", "sheatlab.analysis:verify_negative_beta", None),
    ("analysis", "sheatlab.analysis:verify_threshold_beta", None),
    ("regularity", "sheatlab.regularity:grr_functional", None),
    ("regularity", "sheatlab.regularity:holder_bound_check", None),
    ("regularity", "sheatlab.regularity:grr_general", None),
    ("regularity", "sheatlab.regularity:closed_form_bound", None),
    ("config", "sheatlab.config:ExperimentConfig.from_file", None),
    ("config", "sheatlab.config:ExperimentConfig.content_hash", _content_hash),
    ("config", "sheatlab.config:sha256_file", _sha256_file),
    ("config", "sheatlab.config:RunManifest.write", None),
    ("config", "sheatlab.config:load_manifest", None),
    ("cli", "sheatlab.cli:main", None),
    ("cli", "sheatlab.cli:Runner.dispatch", _dispatch),
    ("cli", "sheatlab.cli:_ensemble_table", _ensemble_table),
]


def _resolve(path):
    """(owner, attribute) for ``module:attr`` or ``module:Class.attr``."""
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *classes, attr = dotted.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr) or not callable(getattr(owner, attr)):
        return None, None
    return owner, attr


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sheatlab" or name.startswith("sheatlab."))]


"""Declarative experiment configuration and run manifests.

Configs are flat key-value text files with sections (INI syntax). The schema
is closed: unknown sections or keys are rejected before any compute, and
each key is declared once, with its parser and default. Every run writes a
strict-JSON manifest carrying the resolved config snapshot, the code
version, wall clock, calibrated constants when produced, and a sha256 per
output file; re-running from the same snapshot reproduces Monte Carlo
outputs bit-identically.
"""

import configparser
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

from . import __version__
from .analysis import lemma_domain
from .kernel import KernelSpec, LowerBoundSpec
from .noise import GridSpec
from .solver import InitialData, SigmaSpec, SimulationConfig, ConfigError, project_initial
from .oracle import OracleConfig, interior_margin
from .regularity import GrrParams
from .stats import Functional


def _strings(text):
    values = tuple(text.replace(",", " ").split())
    if not values:
        raise ValueError("empty list")
    return values


def _floats(text):
    return tuple(float(v) for v in _strings(text))


# (parser, default) for every key; None where the key has no default.
_SCHEMA = {
    "equation": {
        "nu": (float, "0.5"),
        "lambda": (float, "1.0"),
        "lambda_grid": (_floats, None),
        "boundary": (str, "dirichlet"),
        "sigma_kind": (str, "linear"),
        "sigma_k": (float, "1.0"),
        "sigma_c": (float, None),
        "sigma_d": (float, None),
    },
    "initial": {
        "kind": (str, "bump"),
        "gamma": (float, "0.2"),
        "mode": (int, "1"),
        "values": (_floats, None),
    },
    "grid": {
        "n_interior": (int, "127"),
        "dt": (float, "1e-3"),
        "horizon": (float, "0.5"),
    },
    "ensemble": {
        "n_samples": (int, "256"),
        "master_seed": (int, "20240601"),
        "scheme": (str, "semi_implicit"),
    },
    "observation": {
        "times": (_floats, "0.25, 0.5"),
        "p_values": (_floats, "2"),
        "functionals": (_strings, "pointwise:0.5"),
    },
    "oracle": {
        "n_time_panels": (int, "400"),
        "n_x": (int, "31"),
        "gamma": (float, "0.2"),
    },
    "analysis": {
        "fit_window": (_floats, "0.5, 1.0"),
        "lambda_grid": (_floats, "8, 16, 32, 64"),
        "excitation_time": (float, "0.1"),
        "mc_samples": (int, "0"),
        "mc_p": (float, "4"),
    },
    "kernel": {
        "tol": (float, "1e-12"),
        "quad_points": (int, "2048"),
        "gamma": (float, "0.2"),
    },
    "grr": {
        "p": (float, "8"),
        "delta": (float, "1.0"),
        "eps": (float, "0.25"),
        "n_paths": (int, "100"),
    },
    "bounds": {
        "alpha": (float, "0.5"),
        "betas": (_floats, "-1, -0.25, -0.0625"),
        "margins": (_floats, "0.05, 0.0125, 0.003125"),
    },
    "output": {
        "directory": (str, "out"),
    },
}


@dataclass
class ExperimentConfig:
    """Validated, typed view of one experiment description."""

    raw: dict

    @classmethod
    def from_file(cls, path, overrides=(), seed=None):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        cfg = cls.defaults()
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {section}.{key}")
                cfg.raw[section][key] = value
        return cfg.resolve(overrides, seed)

    @classmethod
    def defaults(cls):
        return cls(raw={s: {k: d for k, (_, d) in keys.items() if d is not None}
                        for s, keys in _SCHEMA.items()})

    def resolve(self, overrides=(), seed=None):
        """Apply ``section.key=value`` overrides, then the seed; validate."""
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(f"override must look like section.key=value: {item!r}")
            addr, value = item.split("=", 1)
            section, key = addr.split(".", 1)
            if section not in _SCHEMA or key not in _SCHEMA[section]:
                raise ConfigError(f"unknown override target {addr}")
            self.raw[section][key] = value
        if seed is not None:
            self.raw["ensemble"]["master_seed"] = str(int(seed))
        return self.validate()

    def validate(self):
        for section, entries in self.raw.items():
            for key, value in entries.items():
                try:
                    _SCHEMA[section][key][0](value)
                except (ValueError, KeyError) as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
        if self.get("ensemble", "n_samples") < 2:
            raise ConfigError("ensemble.n_samples must be >= 2 (a CI needs two samples)")
        if self.get("grr", "n_paths") < 1:
            raise ConfigError("grr.n_paths must be >= 1")
        # the excitation index fits log lambda
        if not all(lam > 0 for lam in self.get("analysis", "lambda_grid")):
            raise ConfigError("analysis.lambda_grid entries must be > 0")
        mc = self.get("analysis", "mc_samples")
        if mc < 0 or mc == 1:
            raise ConfigError("analysis.mc_samples must be 0 (off) or >= 2")
        window = self.get("analysis", "fit_window")
        if len(window) != 2 or not window[0] < window[1]:
            raise ConfigError("analysis.fit_window must hold two increasing horizon fractions")
        # the grid-halving error estimate needs an even count whose half
        # meets OracleConfig's 4 panels; OracleConfig cannot demand either,
        # because a halved grid may be odd
        n_t = self.get("oracle", "n_time_panels")
        if n_t % 2 or n_t < 8:
            raise ConfigError("oracle.n_time_panels must be even and >= 8 (grid halving)")
        # Each builder, and each range rule a command meets only once it
        # computes, runs here on the keys named beside it, in an order where
        # a failure can come from those keys only. Where a builder reads
        # several keys, they are given by the field its message starts with.
        # The excitation scan solves at analysis.excitation_time, and the
        # Monte Carlo subcommands simulate every lambda of lambda_grid().
        for keys, check in (
                ({"n_interior": "grid.n_interior", "dt": "grid.dt",
                  "horizon": "grid.horizon"}, self.grid),
                ("equation.sigma_*", self.sigma),
                ("initial", self.initial_data),
                ("initial.values", lambda: project_initial(self.initial_data(), self.grid())),
                ({"lam": "equation.lambda", "k_sigma": "equation.sigma_*",
                  "nu": "equation.nu", "boundary": "equation.boundary",
                  "horizon": "grid.horizon", "n_time_panels": "oracle.n_time_panels",
                  "n_x": "oracle.n_x", "u0": "initial"}, self.oracle),
                ("oracle.gamma", lambda: interior_margin(self.oracle().x_grid,
                                                         self.get("oracle", "gamma"))),
                ("analysis.excitation_time",
                 lambda: self.oracle(horizon=self.get("analysis", "excitation_time"))),
                ({"lam": "equation.lambda_grid", "scheme": "ensemble.scheme", "dt": "grid.dt",
                  "observation_times": "observation.times"},
                 lambda: [self.simulation(lam=lam) for lam in self.lambda_grid()]),
                ("analysis.mc_p", lambda: Functional.lp(self.get("analysis", "mc_p"))),
                ({"nu": "equation.nu", "tol": "kernel.tol"}, self.kernel_spec),
                ("kernel.gamma", lambda: LowerBoundSpec.check_gamma(self.get("kernel", "gamma"))),
                ({"alpha": "bounds.alpha", "betas": "bounds.betas",
                  "margins": "bounds.margins"},
                 lambda: lemma_domain(self.kernel_spec(), self.get("bounds", "alpha"),
                                      self.get("bounds", "betas"),
                                      self.get("bounds", "margins"))),
                ({"p": "grr.p", "delta": "grr.delta", "eps": "grr.eps"}, self.grr_params),
                ("observation.p_values",
                 lambda: [Functional.sup(p) for p in self.get("observation", "p_values")]),
                ("observation.functionals", self.functionals)):
            try:
                check()
            except ValueError as exc:   # every domain error of the builders
                if isinstance(keys, dict):
                    keys = keys[str(exc).split()[0]]
                raise ConfigError(f"{keys}: {exc}") from exc
        return self

    def get(self, section, key):
        value = self.raw[section].get(key)
        if value is None:
            raise ConfigError(f"missing config value {section}.{key}")
        return _SCHEMA[section][key][0](value)

    # --- domain-object builders -------------------------------------------

    def sigma(self) -> SigmaSpec:
        """sigma_kind's (c, d): linear is (sigma_k, 0), linear_plus_sine is
        (sigma_c, sigma_d)."""
        kind = self.get("equation", "sigma_kind")
        if kind == "linear":
            return SigmaSpec(self.get("equation", "sigma_k"))
        if kind == "linear_plus_sine":
            return SigmaSpec(self.get("equation", "sigma_c"), self.get("equation", "sigma_d"))
        raise ConfigError(f"unknown sigma kind {kind!r}")

    def initial_data(self) -> InitialData:
        kind = self.get("initial", "kind")
        if kind == "bump":
            return InitialData.bump(self.get("initial", "gamma"))
        if kind == "sine":
            return InitialData.sine(self.get("initial", "mode"))
        if kind == "table":
            return InitialData.table(self.get("initial", "values"))
        raise ConfigError(f"unknown initial data kind {kind!r}")

    def kernel_spec(self) -> KernelSpec:
        return KernelSpec(nu=self.get("equation", "nu"), tol=self.get("kernel", "tol"))

    def grid(self) -> GridSpec:
        return GridSpec(n_interior=self.get("grid", "n_interior"),
                        dt=self.get("grid", "dt"),
                        horizon=self.get("grid", "horizon"))

    def grr_params(self) -> GrrParams:
        return GrrParams(p=self.get("grr", "p"), delta=self.get("grr", "delta"),
                         eps=self.get("grr", "eps"))

    def simulation(self, lam=None, t_end=None) -> SimulationConfig:
        """The path law at lam; t_end sets the horizon and only observation time."""
        grid, times = self.grid(), self.get("observation", "times")
        if t_end is not None:
            grid, times = replace(grid, horizon=t_end), (t_end,)
        return SimulationConfig(
            grid=grid,
            lam=self.get("equation", "lambda") if lam is None else float(lam),
            sigma=self.sigma(),
            u0=self.initial_data(),
            nu=self.get("equation", "nu"),
            boundary=self.get("equation", "boundary"),
            scheme=self.get("ensemble", "scheme"),
            master_seed=self.get("ensemble", "master_seed"),
            observation_times=times,
        )

    def oracle(self, lam=None, horizon=None) -> OracleConfig:
        return OracleConfig(
            lam=self.get("equation", "lambda") if lam is None else float(lam),
            k_sigma=self.sigma().lower_constant,
            nu=self.get("equation", "nu"),
            boundary=self.get("equation", "boundary"),
            u0=self.initial_data(),
            horizon=self.get("grid", "horizon") if horizon is None else horizon,
            n_time_panels=self.get("oracle", "n_time_panels"),
            n_x=self.get("oracle", "n_x"),
        )

    def functionals(self):
        return [Functional.parse(token, p) for p in self.get("observation", "p_values")
                for token in self.get("observation", "functionals")]

    def lambda_grid(self):
        if "lambda_grid" in self.raw["equation"]:
            return self.get("equation", "lambda_grid")
        return (self.get("equation", "lambda"),)

    def snapshot(self):
        return {s: dict(kv) for s, kv in self.raw.items()}

    def content_hash(self):
        blob = json.dumps(self.snapshot(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def write(self, path):
        parser = configparser.ConfigParser()
        for section, entries in self.raw.items():
            parser[section] = entries
        buf = io.StringIO()
        parser.write(buf)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())


def _strict(node):
    """node with every non-finite float (a diverged cell's nan) as None."""
    if isinstance(node, dict):
        return {k: _strict(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_strict(v) for v in node]
    return None if isinstance(node, float) and not math.isfinite(node) else node


def write_json(path, payload):
    """Write payload as strict JSON, sorted and indented: non-finite as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: str
    config: dict
    config_hash: str
    seed: int
    started: float = field(default_factory=time.time)
    code_version: str = __version__
    outputs: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    failed_cells: list = field(default_factory=list)

    def add_output(self, path):
        self.outputs.append({"path": os.path.basename(path),
                             "sha256": sha256_file(path)})

    def write(self, directory):
        payload = {
            "command": self.command,
            "code_version": self.code_version,
            "config": self.config,
            "config_hash": self.config_hash,
            "master_seed": self.seed,
            "wall_clock_s": round(time.time() - self.started, 3),
            "outputs": self.outputs,
            "calibrated_constants": self.constants,
            "diagnostics": self.diagnostics,
            "failed_cells": self.failed_cells,
        }
        path = os.path.join(directory, f"manifest_{self.command.replace('-', '_')}.json")
        write_json(path, payload)
        return path


def load_manifest(directory, command):
    path = os.path.join(directory, f"manifest_{command.replace('-', '_')}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

"""Declarative experiment configuration and run manifests.

Configs are flat key-value text files with sections (INI syntax). The schema
is closed: unknown sections or keys are rejected before any compute. Every
run writes a manifest JSON carrying the resolved config snapshot, the code
version, wall clock, calibrated constants when produced, and a sha256 per
output file; re-running from the same snapshot reproduces Monte Carlo
outputs bit-identically.
"""

import configparser
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from . import __version__
from .kernel import KernelDomainError, KernelSpec
from .noise import GridSpec, NoiseDomainError
from .solver import InitialData, SigmaSpec, SimulationConfig, ConfigError
from .oracle import OracleConfig, OracleDomainError
from .regularity import GrrParams, RegularityError


def _floats(text):
    return tuple(float(v) for v in text.replace(",", " ").split())


def _strings(text):
    return tuple(v.strip() for v in text.replace(",", " ").split() if v.strip())


_SCHEMA = {
    "equation": {
        "nu": float,
        "lambda": float,
        "lambda_grid": _floats,
        "boundary": str,
        "sigma_kind": str,
        "sigma_k": float,
        "sigma_c": float,
        "sigma_d": float,
    },
    "initial": {
        "kind": str,
        "gamma": float,
        "mode": int,
        "values": _floats,
    },
    "grid": {
        "n_interior": int,
        "dt": float,
        "horizon": float,
    },
    "ensemble": {
        "n_samples": int,
        "master_seed": int,
        "scheme": str,
    },
    "observation": {
        "times": _floats,
        "p_values": _floats,
        "functionals": _strings,
    },
    "oracle": {
        "n_time_panels": int,
        "n_x": int,
        "gamma": float,
    },
    "analysis": {
        "fit_window": _floats,
        "lambda_grid": _floats,
        "excitation_time": float,
        "mc_samples": int,
        "mc_p": float,
    },
    "kernel": {
        "tol": float,
        "quad_points": int,
        "gamma": float,
    },
    "grr": {
        "p": float,
        "delta": float,
        "eps": float,
        "n_paths": int,
    },
    "bounds": {
        "alpha": float,
        "betas": _floats,
        "margins": _floats,
    },
    "output": {
        "directory": str,
    },
}

_DEFAULTS = {
    "equation": {"nu": "0.5", "lambda": "1.0", "boundary": "dirichlet",
                 "sigma_kind": "linear", "sigma_k": "1.0"},
    "initial": {"kind": "bump", "gamma": "0.2", "mode": "1"},
    "grid": {"n_interior": "127", "dt": "1e-3", "horizon": "0.5"},
    "ensemble": {"n_samples": "256", "master_seed": "20240601",
                 "scheme": "semi_implicit"},
    "observation": {"times": "0.25, 0.5", "p_values": "2",
                    "functionals": "pointwise:0.5"},
    "oracle": {"n_time_panels": "400", "n_x": "31", "gamma": "0.2"},
    "analysis": {"fit_window": "0.5, 1.0", "lambda_grid": "8, 16, 32, 64",
                 "excitation_time": "0.1", "mc_samples": "0", "mc_p": "4"},
    "kernel": {"tol": "1e-12", "quad_points": "2048", "gamma": "0.2"},
    "grr": {"p": "8", "delta": "1.0", "eps": "0.25", "n_paths": "100"},
    "bounds": {"alpha": "0.5", "betas": "-1, -0.25, -0.0625",
               "margins": "0.05, 0.0125, 0.003125"},
    "output": {"directory": "out"},
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
        return cls(raw={s: dict(_DEFAULTS.get(s, {})) for s in _SCHEMA})

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
                    _SCHEMA[section][key](value)
                except (ValueError, KeyError) as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
        if self.get("ensemble", "n_samples") < 2:
            raise ConfigError("ensemble.n_samples must be >= 2 (a CI needs two samples)")
        mc = self.get("analysis", "mc_samples")
        if mc < 0 or mc == 1:
            raise ConfigError("analysis.mc_samples must be 0 (off) or >= 2")
        if len(self.get("analysis", "fit_window")) != 2:
            raise ConfigError("analysis.fit_window must hold two horizon fractions")
        # oracle() builds sigma() and initial_data(); simulation() is left out,
        # because its dt <= dx rule would reject oracle-only configs
        try:
            self.grid()
            self.oracle()
            self.kernel_spec()
            self.grr_params()
        except (NoiseDomainError, OracleDomainError, KernelDomainError,
                RegularityError) as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def get(self, section, key):
        value = self.raw[section].get(key)
        if value is None:
            raise ConfigError(f"missing config value {section}.{key}")
        return _SCHEMA[section][key](value)

    def has(self, section, key):
        return key in self.raw[section]

    # --- domain-object builders -------------------------------------------

    def sigma(self) -> SigmaSpec:
        kind = self.get("equation", "sigma_kind")
        if kind == "linear":
            return SigmaSpec.linear(self.get("equation", "sigma_k"))
        if kind == "linear_plus_sine":
            return SigmaSpec.linear_plus_sine(self.get("equation", "sigma_c"),
                                              self.get("equation", "sigma_d"))
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

    def simulation(self, lam=None) -> SimulationConfig:
        return SimulationConfig(
            grid=self.grid(),
            lam=self.get("equation", "lambda") if lam is None else float(lam),
            sigma=self.sigma(),
            u0=self.initial_data(),
            nu=self.get("equation", "nu"),
            boundary=self.get("equation", "boundary"),
            scheme=self.get("ensemble", "scheme"),
            master_seed=self.get("ensemble", "master_seed"),
            observation_times=self.get("observation", "times"),
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
        from .stats import Functional
        out = []
        for p in self.get("observation", "p_values"):
            for token in self.get("observation", "functionals"):
                if token.startswith("pointwise:"):
                    out.append(Functional.pointwise(float(token.split(":")[1]), p))
                elif token == "sup":
                    out.append(Functional.sup(p))
                elif token == "lp":
                    out.append(Functional.lp(p))
                else:
                    raise ConfigError(f"unknown functional {token!r}")
        return out

    def lambda_grid(self):
        if self.has("equation", "lambda_grid"):
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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        return path


def load_manifest(directory, command):
    path = os.path.join(directory, f"manifest_{command.replace('-', '_')}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

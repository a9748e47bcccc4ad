"""CLI tests: config schema, manifests, determinism, exit codes."""

import collections
import csv
import dataclasses
import glob
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from sheatlab import analysis as ana
from sheatlab import cli, solver
from sheatlab import kernel as kern
from sheatlab import oracle as ora
from sheatlab import regularity as reg
from sheatlab.config import ExperimentConfig, load_manifest, sha256_file
from sheatlab.solver import ConfigError

from compare_outputs import untimed

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")

BASE = """
[equation]
lambda = 1.0

[grid]
n_interior = 31
dt = 1e-3
horizon = 0.2

[ensemble]
n_samples = 64
master_seed = 777

[observation]
times = 0.1, 0.2
p_values = 2
functionals = pointwise:0.5, lp

[oracle]
n_time_panels = 100
n_x = 25
"""


# nonlinear sigma cannot renormalize: the absurd-lambda cell diverges
DIVERGING = """
[equation]
lambda_grid = 0.5, 100000
sigma_kind = linear_plus_sine
sigma_c = 1.5
sigma_d = 0.5

[grid]
n_interior = 15
dt = 1e-3
horizon = 0.3

[ensemble]
n_samples = 8
master_seed = 777

[observation]
times = 0.15, 0.2, 0.3
functionals = sup
"""


def write_cfg(tmp_path, body=BASE, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body + f"\n[output]\ndirectory = {tmp_path / 'out'}\n")
    return str(path)


class TestConfig:
    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[nosuch]\nkey = 1\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nwidth = 1\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\ndt = soon\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))

    def test_override_and_seed(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path),
                                         overrides=["equation.lambda=2.5"],
                                         seed=42)
        assert cfg.get("equation", "lambda") == 2.5
        assert cfg.get("ensemble", "master_seed") == 42

    def test_roundtrip_write(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path))
        out = tmp_path / "snapshot.cfg"
        cfg.write(str(out))
        again = ExperimentConfig.from_file(str(out))
        assert again.snapshot() == cfg.snapshot()
        assert again.content_hash() == cfg.content_hash()

    def test_functionals_built(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path))
        kinds = {(f.kind, f.p) for f in cfg.functionals()}
        assert kinds == {("pointwise", 2.0), ("lp", 2.0)}

    def test_simulation_t_end_sets_horizon_and_only_time(self, tmp_path):
        # equal and equally hashed: the runner's ensemble cache key
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path))
        base = cfg.simulation(lam=2.0)
        derived = dataclasses.replace(
            base, grid=dataclasses.replace(base.grid, horizon=0.1),
            observation_times=(0.1,))
        sim = cfg.simulation(lam=2.0, t_end=0.1)
        assert sim == derived and hash(sim) == hash(derived)


class TestCliRuns:
    def test_simulate_deterministic_decay(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = cli.main(["simulate", "--config", cfg,
                       "--override", "equation.lambda=0",
                       "--override", "initial.kind=sine"])
        assert rc == 0
        rows = np.genfromtxt(tmp_path / "out" / "path.csv", delimiter=",",
                             names=True)
        last = rows[rows["t"] == 0.2]
        expected = math.exp(-0.5 * math.pi ** 2 * 0.2)
        assert abs(last["u"].max() - expected) / expected < 0.01

    def test_manifest_checksums(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg,
                         "--override", "equation.lambda_grid=0.5, 1"]) == 0
        man = load_manifest(str(tmp_path / "out"), "moments")
        assert man["code_version"]
        for entry in man["outputs"]:
            path = tmp_path / "out" / entry["path"]
            assert sha256_file(str(path)) == entry["sha256"]
        assert sorted(os.listdir(tmp_path / "out")) == ["manifest_moments.json",
                                                         "moments.csv"]
        # moments.csv is the header plus every cell's rows, byte for byte
        combined = (",".join(cli.MOMENTS_HEADER) + "\r\n").encode()
        for lam in ("0.5", "1"):
            out = tmp_path / f"cell_{lam}"
            assert cli.main(["moments", "--config", cfg, "--out", str(out),
                             "--override", f"equation.lambda={lam}"]) == 0
            combined += (out / "moments.csv").read_bytes().split(b"\r\n", 1)[1]
        assert (tmp_path / "out" / "moments.csv").read_bytes() == combined

    def test_kernel_table_rows_match_scalar_calls(self, tmp_path):
        path = write_cfg(tmp_path)
        assert cli.main(["kernel", "--config", path]) == 0
        out = tmp_path / "out"
        consts = json.loads((out / "kernel_calibration.json").read_text())
        spec = ExperimentConfig.from_file(path).kernel_spec()
        lb = kern.LowerBoundSpec(gamma=consts["gamma"], kappa1=consts["kappa1_hat"],
                                 kappa2=consts["kappa2_hat"])
        with open(out / "kernel_table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 250
        for row in rows:
            t, x, y = float(row["t"]), float(row["x"]), float(row["y"])
            n_terms, use_series, n_images = kern.truncation_plan(spec, t)
            assert float(row["g_D"]) == kern.eval_kernel(spec, t, x, y)
            assert float(row["g_free"]) == kern.free_kernel(spec.nu, t, x, y)
            assert float(row["lower_bound"]) == kern.kernel_lower_bound(lb, spec, t, x, y)
            assert int(row["n_terms"]) == (n_terms if use_series else n_images)

    def test_rerun_bit_identical(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg]) == 0
        first = (tmp_path / "out" / "moments.csv").read_bytes()
        man = untimed(load_manifest(str(tmp_path / "out"), "moments"))
        built = []
        build = cli._ensemble_table

        def counting(sims, *args):
            built.extend(sim.lam for sim in sims)
            return build(sims, *args)

        # a rerun into the finished directory recomputes it, to the same bytes
        monkeypatch.setattr(cli, "_ensemble_table", counting)
        assert cli.main(["moments", "--config", cfg]) == 0
        assert built == [1.0]
        assert (tmp_path / "out" / "moments.csv").read_bytes() == first
        assert untimed(load_manifest(str(tmp_path / "out"), "moments")) == man

    def test_worker_count_invariance(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg, "--out",
                         str(tmp_path / "w1")]) == 0
        assert cli.main(["moments", "--config", cfg, "--workers", "2", "--out",
                         str(tmp_path / "w2")]) == 0
        a = (tmp_path / "w1" / "moments.csv").read_bytes()
        b = (tmp_path / "w2" / "moments.csv").read_bytes()
        assert a == b

    def test_sample_steps_in_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path)
        counts = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"w{workers}")
            assert cli.main(["moments", "--config", cfg, "--workers", workers,
                             "--out", out,
                             "--override", "equation.lambda_grid=0.5, 1",
                             "--override", "observation.times=0.05, 0.1"]) == 0
            diag = load_manifest(out, "moments")["diagnostics"]
            assert diag["sample_steps_per_s"] > 0
            counts.append(diag["sample_steps"])
        # 64 samples x 2 lambdas x last observation step 0.1 / 1e-3; the
        # horizon's 200 steps are never taken
        assert counts == [64 * 2 * 100] * 2
        # simulate builds sample 0 and a standalone grr-check its n_paths
        # samples, each to the last observation step 0.2 / 1e-3
        for command, n_paths in (("simulate", 1), ("grr-check", 4)):
            out = str(tmp_path / command)
            assert cli.main([command, "--config", cfg, "--out", out,
                             "--override", "grid.n_interior=63",
                             "--override", "grr.n_paths=4"]) == 0
            diag = load_manifest(out, command)["diagnostics"]
            assert diag["sample_steps"] == n_paths * 200
            assert diag["sample_steps_per_s"] > 0

    def test_seed_env_precedence(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        monkeypatch.setenv("SHEAT_SEED", "1111")
        assert cli.main(["moments", "--config", cfg, "--out",
                         str(tmp_path / "env")]) == 0
        man = load_manifest(str(tmp_path / "env"), "moments")
        assert man["master_seed"] == 1111
        assert cli.main(["moments", "--config", cfg, "--seed", "2222", "--out",
                         str(tmp_path / "flag")]) == 0
        man2 = load_manifest(str(tmp_path / "flag"), "moments")
        assert man2["master_seed"] == 2222

    @pytest.mark.parametrize("command", ["moments", "lyapunov"])
    def test_partial_failure_lists_cell(self, tmp_path, command):
        # the diverged cell is listed in the manifest while the sane cell persists
        cfg = write_cfg(tmp_path, body=DIVERGING)
        assert cli.main([command, "--config", cfg]) == 0
        man = load_manifest(str(tmp_path / "out"), command)
        assert len(man["failed_cells"]) == 1
        assert man["failed_cells"][0]["lambda"] == 100000
        assert [c["lambda"] for c in man["diagnostics"]["cells"]] == [0.5]
        if command == "moments":
            with open(tmp_path / "out" / "moments.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and {r["lambda"] for r in rows} == {"0.5"}
        else:
            fits = json.loads((tmp_path / "out" / "lyapunov.json").read_text())["fits"]
            assert [f["lambda"] for f in fits] == [0.5]

    def test_close_lambdas_keep_their_rows(self, tmp_path):
        # lambdas equal to six digits are still two cells with their own rows
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg,
                         "--override", "equation.lambda_grid=1.0000001, 1.0000002"]) == 0
        with open(tmp_path / "out" / "moments.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # two functionals at two times per cell
        assert [r["lambda"] for r in rows] == ["1.0000001"] * 4 + ["1.0000002"] * 4
        cells = load_manifest(str(tmp_path / "out"), "moments")["diagnostics"]["cells"]
        assert [c["lambda"] for c in cells] == [1.0000001, 1.0000002]

    def test_close_pointwise_positions_keep_their_labels(self, tmp_path):
        tokens = ["pointwise:0.1234567", "pointwise:0.1234568"]
        functionals = [cli.st.Functional.parse(token, 2) for token in tokens]
        assert [f.label for f in functionals] == tokens
        assert [cli.st.Functional.parse(f.label, 2) for f in functionals] == functionals
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg,
                         "--override", "observation.functionals=" + ", ".join(tokens)]) == 0
        with open(tmp_path / "out" / "moments.csv", newline="") as fh:
            labels = collections.Counter(r["functional"] for r in csv.DictReader(fh))
        assert labels == {token: 2 for token in tokens}     # one row per time

    def test_lyapunov_cells_are_moments_cells(self, tmp_path):
        cfg = write_cfg(tmp_path)
        cells = {}
        for command in ("moments", "lyapunov"):
            out = str(tmp_path / command)
            assert cli.main([command, "--config", cfg, "--out", out,
                             "--override", "equation.lambda_grid=0.5, 1"]) == 0
            cells[command] = load_manifest(out, command)["diagnostics"]["cells"]
        assert [c.pop("log_mode_estimates") for c in cells["moments"]] == [0, 0]
        assert cells["lyapunov"] == cells["moments"]
        assert [c["lambda"] for c in cells["lyapunov"]] == [0.5, 1.0]

    def test_sine_free_sigma_is_the_linear_one(self, tmp_path):
        # sigma_d = 0 leaves sigma(u) = 1.5 u, which renormalizes: the
        # absurd-lambda cell stands and equals the run written as linear
        cfg = write_cfg(tmp_path, body=DIVERGING)
        tables = []
        for name, overrides in (("sine", ["equation.sigma_d=0"]),
                                ("linear", ["equation.sigma_kind=linear",
                                            "equation.sigma_k=1.5"])):
            out = str(tmp_path / name)
            assert cli.main(["moments", "--config", cfg, "--out", out]
                            + [a for o in overrides for a in ("--override", o)]) == 0
            assert load_manifest(out, "moments")["failed_cells"] == []
            tables.append((tmp_path / name / "moments.csv").read_bytes())
        assert tables[0] == tables[1]
        assert b"100000" in tables[0]

    @pytest.mark.parametrize("command", ["moments", "lyapunov"])
    def test_diverging_grid_identical_across_workers(self, tmp_path, command):
        # 128 samples are two shards, so --workers 2 runs the pool, and the
        # diverged cell's error comes back from a worker process
        cfg = write_cfg(tmp_path, body=DIVERGING)
        failed = []
        for workers in ("1", "2"):
            out = str(tmp_path / f"w{workers}")
            assert cli.main([command, "--config", cfg, "--workers", workers, "--out", out,
                             "--override", "ensemble.n_samples=128"]) == 0
            failed.append(load_manifest(out, command)["failed_cells"])
        assert failed[0] == failed[1]
        assert failed[0] == [{"lambda": 100000,
                              "error": "non-finite state at step 96, sample 0"}]
        names = sorted(os.listdir(tmp_path / "w1"))
        assert names == sorted(os.listdir(tmp_path / "w2"))
        for name in names:
            if not name.startswith("manifest_"):
                assert ((tmp_path / "w1" / name).read_bytes()
                        == (tmp_path / "w2" / name).read_bytes()), name

    def test_runner_builds_each_table_once(self, tmp_path, monkeypatch):
        calls = []
        build = cli._ensemble_table

        def counting(*args):
            calls.extend(sim.lam for sim in args[0])
            return build(*args)

        monkeypatch.setattr(cli, "_ensemble_table", counting)
        cfg = ExperimentConfig.from_file(
            write_cfg(tmp_path), overrides=["equation.lambda_grid=0.5, 1",
                                            "observation.times=0.1, 0.15, 0.2"])
        shared = cli.Runner(cfg, str(tmp_path / "shared"), 1)
        shared.dispatch("moments")
        shared.dispatch("lyapunov")
        assert calls == [0.5, 1.0]
        cli.Runner(cfg, str(tmp_path / "alone"), 1).dispatch("lyapunov")
        assert load_manifest(str(tmp_path / "alone"), "lyapunov")["failed_cells"] == []
        for name in ("lyapunov.json", "lyapunov_series.csv"):
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / "alone" / name).read_bytes())

    def test_diverged_cell_built_once(self, tmp_path, monkeypatch):
        built = []
        build = cli._ensemble_table

        def counting(sims, *args):
            built.extend(sim.lam for sim in sims)
            return build(sims, *args)

        monkeypatch.setattr(cli, "_ensemble_table", counting)
        out = str(tmp_path / "out")
        runner = cli.Runner(ExperimentConfig.from_file(write_cfg(tmp_path, body=DIVERGING)),
                            out, 1)
        runner.dispatch("moments")
        runner.dispatch("lyapunov")
        assert built == [0.5, 100000]
        for command in ("moments", "lyapunov"):
            assert [c["lambda"] for c in load_manifest(out, command)["failed_cells"]] \
                == [100000]

    def test_runner_simulates_each_sample_once(self, tmp_path, monkeypatch):
        simulated = collections.Counter()
        simulate = cli.simulate_group

        def counting(sims, samples, *args):
            samples = list(samples)
            simulated.update((sim, s) for sim in sims for s in samples)
            return simulate(sims, samples, *args)

        monkeypatch.setattr(cli, "simulate_group", counting)
        cfg = ExperimentConfig.from_file(
            write_cfg(tmp_path), overrides=ALL_OVERRIDES[1::2]
            + ["equation.lambda_grid=0.5, 1"])
        commands = {"simulate": "path.csv", "moments": "moments.csv",
                    "lyapunov": "lyapunov.json", "grr-check": "grr_paths.csv"}
        shared = cli.Runner(cfg, str(tmp_path / "shared"), 1)
        for command in commands:
            shared.dispatch(command)
        # simulate built sample 0 alone; moments rebuilt it with the rest
        assert [key for key, n in simulated.items() if n > 1] == [(cfg.simulation(), 0)]
        for command in ("lyapunov", "grr-check"):     # reuse only: nothing built
            diag = load_manifest(str(tmp_path / "shared"), command)["diagnostics"]
            assert "sample_steps" not in diag
        for command, name in commands.items():
            cli.Runner(cfg, str(tmp_path / command), 1).dispatch(command)
            assert ((tmp_path / "shared" / name).read_bytes()
                    == (tmp_path / command / name).read_bytes()), name

    def test_cell_regime_telemetry(self, tmp_path):
        cfg = write_cfg(tmp_path)
        base, large = str(tmp_path / "base"), str(tmp_path / "large")
        assert cli.main(["moments", "--config", cfg, "--out", base]) == 0
        assert cli.main(["moments", "--config", cfg, "--out", large] + LARGE_LAMBDA) == 0
        (cell,) = load_manifest(base, "moments")["diagnostics"]["cells"]
        assert cell["lambda"] == 1.0
        # lambda^2 Lip^2 dt / dx = 1e-3 * 32
        assert cell["noise_per_step"] == pytest.approx(0.032, rel=1e-12)
        assert not cell["under_resolved"] and cell["renormalized_samples"] == 0
        assert cell["log_mode_estimates"] == 0
        cells = load_manifest(large, "moments")["diagnostics"]["cells"]
        (cell,) = cells
        assert cell["lambda"] == 60.0
        assert cell["noise_per_step"] == pytest.approx(3600 * 0.032, rel=1e-12)
        assert cell["under_resolved"]
        assert cell["max_log_scale"] > 800 and cell["renormalized_samples"] >= 1
        with open(os.path.join(large, "moments.csv"), newline="") as fh:
            flipped = sum(int(r["log_mode"]) for r in csv.DictReader(fh))
        assert cell["log_mode_estimates"] == flipped >= 1
        # a rerun recomputes the same telemetry
        assert cli.main(["moments", "--config", cfg, "--out", large] + LARGE_LAMBDA) == 0
        assert load_manifest(large, "moments")["diagnostics"]["cells"] == cells

    def test_excitation_rate_dt_marks_extrapolated(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["excitation", "--config", cfg,
                         "--override", "analysis.lambda_grid=4, 8, 16, 32",
                         "--override", "oracle.n_time_panels=200"]) == 0
        points = json.loads((tmp_path / "out" / "excitation.json").read_text())["points"]
        listed = load_manifest(str(tmp_path / "out"), "excitation")["diagnostics"][
            "oracle_points"]
        # predicted rate lambda^4 / 4 times t* / n_time_panels = 0.1 / 200
        assert [d["rate_dt"] for d in listed] == pytest.approx(
            [lam ** 4 / 4 * 0.1 / 200 for lam in (4, 8, 16, 32)], rel=1e-12)
        assert [d["rate_dt"] > ora.RESOLVED_RATE_DT for d in listed] \
            == [p["extrapolated"] for p in points] == [False, True, True, True]

    def test_excitation_mc_fit_failure_keeps_oracle_half(self, tmp_path):
        # on 127 nodes the lambda = 8 Monte Carlo energy is below 1, so only
        # 3 lambdas enter the e_4 fit
        cfg = write_cfg(tmp_path)
        assert cli.main(["excitation", "--config", cfg,
                         "--override", "grid.n_interior=127",
                         "--override", "grid.dt=2.5e-4",
                         "--override", "analysis.mc_samples=16"]) == 0
        payload = json.loads((tmp_path / "out" / "excitation.json").read_text())
        assert 3.9 < payload["e2_hat"] < 4.1
        mc = payload["mc"]
        assert mc["error"] == "fewer than 4 lambdas with E_p > 1"
        assert mc["e_p_hat"] is None and mc["slope_ci"] is None
        assert mc["dropped_lambdas"] == [8.0] and mc["log_energies"][0] < 0
        assert len(mc["log_cis"]) == 4
        man = load_manifest(str(tmp_path / "out"), "excitation")
        assert man["failed_cells"] == [{"functional": "lp", "p": 4.0,
                                        "error": mc["error"]}]

    def test_excitation_oracle_fit_failure_keeps_points(self, tmp_path):
        # on the base grid only lambda = 4 and 8 reach E_2 > 1
        cfg = write_cfg(tmp_path)
        assert cli.main(["excitation", "--config", cfg,
                         "--override", "analysis.lambda_grid=1, 2, 4, 8"]) == 0
        payload = json.loads((tmp_path / "out" / "excitation.json").read_text())
        assert payload["error"] == "fewer than 4 lambdas with E_p > 1"
        assert all(payload[key] is None
                   for key in ("e2_hat", "slope_ci", "r2_quartic", "r2_quadratic"))
        assert [p["lambda"] for p in payload["points"]] == [1.0, 2.0, 4.0, 8.0]
        assert [p["log_energy"] > 0 for p in payload["points"]] == [False, False, True, True]
        man = load_manifest(str(tmp_path / "out"), "excitation")
        assert man["failed_cells"] == [{"backend": "oracle", "p": 2.0,
                                        "error": payload["error"]}]
        assert len(man["diagnostics"]["oracle_points"]) == 4
        assert (tmp_path / "out" / "excitation_series.csv").exists()

    def test_excitation_mc_points_skip_diverged_cells(self, tmp_path):
        cfg = write_cfg(tmp_path, DIVERGING)
        assert cli.main(["excitation", "--config", cfg,
                         "--override", "analysis.lambda_grid=0.5, 100000",
                         "--override", "analysis.mc_samples=8"]) == 0
        man = load_manifest(str(tmp_path / "out"), "excitation")
        # lambda = 100000 diverged: no regime fields, one failed cell
        assert man["diagnostics"]["cells"] == [
            {"lambda": 0.5, "noise_per_step": 0.5 ** 2 * 2.0 ** 2 * 1e-3 * 16,
             "under_resolved": False, "max_log_scale": 0.0, "renormalized_samples": 0}]
        assert {"lambda": 100000.0, "error": "non-finite state at step 96, sample 0"} \
            in man["failed_cells"]

        # strict JSON: the diverged cell's nan is written as null
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        mc = json.loads((tmp_path / "out" / "excitation.json").read_text(),
                        parse_constant=reject)["mc"]
        assert mc["log_energies"][1] is None and mc["log_cis"][1] is None
        assert 100000.0 in mc["dropped_lambdas"]
        json.loads((tmp_path / "out" / "manifest_excitation.json").read_text(),
                   parse_constant=reject)

    def test_excitation_mc_fit(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["excitation", "--config", cfg,
                         "--override", "analysis.lambda_grid=32, 45, 64, 90",
                         "--override", "analysis.mc_samples=16"]) == 0
        mc = json.loads((tmp_path / "out" / "excitation.json").read_text())["mc"]
        assert math.isfinite(mc["e_p_hat"]) and math.isfinite(mc["slope_ci"])
        assert mc["dropped_lambdas"] == [] and "error" not in mc
        assert mc["n_samples"] == 16 and mc["p"] == 4.0
        man = load_manifest(str(tmp_path / "out"), "excitation")
        assert man["failed_cells"] == []
        regimes = man["diagnostics"]["cells"]
        assert [d["lambda"] for d in regimes] == [32.0, 45.0, 64.0, 90.0]
        # lambda^2 Lip^2 dt / dx on 31 nodes, dt = 1e-3: all far past 0.1
        assert [d["noise_per_step"] for d in regimes] == pytest.approx(
            [lam ** 2 * 1e-3 * 32 for lam in (32, 45, 64, 90)], rel=1e-12)
        assert all(d["under_resolved"] for d in regimes)

    def test_thresholds_output(self, tmp_path):
        cfg = write_cfg(tmp_path)
        rc = cli.main(["thresholds", "--config", cfg,
                       "--override", "analysis.lambda_grid=0.5,8",
                       "--override", "grid.horizon=1.0",
                       "--override", "oracle.n_time_panels=400"])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "thresholds.json").read_text())
        assert payload["lambda_l_hat"] == 0.5
        assert payload["lambda_u_hat"] == 8.0
        assert [f["resolved"] for f in payload["fits"]] == [True, False]
        assert payload["fits"][1]["rate_dt"] == pytest.approx(1024 / 400, rel=1e-12)
        loaded = ExperimentConfig.from_file(cfg, ["grid.horizon=1.0",
                                                  "oracle.n_time_panels=400"])
        assert [f["rate_dt"] for f in payload["fits"]] == [
            loaded.oracle(lam=lam).rate_dt for lam in (0.5, 8.0)]
        # dt = 2.5e-3: only lag 1's kernel width sqrt(4 nu tau) = 0.05 is under
        # two of the 25 cells (0.08)
        # 400 panels over horizon 1 split the march: past lag n_near the
        # modal far field carries the history
        diag = load_manifest(str(tmp_path / "out"), "thresholds")["diagnostics"]
        assert 0 < diag.pop("march_s") <= 60
        assert diag.pop("halving_march_s") == 0.0   # thresholds makes no error estimate
        assert 1 < diag.pop("n_near") < 400 and diag.pop("n_modes") > 0
        assert diag.pop("fit_residual") < 1e-14
        assert diag == {"n_diag": 1, "n_time_panels": 400}

    def test_excitation_manifest_lists_surrogate_solves(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["excitation", "--config", cfg]) == 0
        points = json.loads((tmp_path / "out" / "excitation.json").read_text())["points"]
        diag = load_manifest(str(tmp_path / "out"), "excitation")["diagnostics"]
        assert diag["n_time_panels"] == 100
        listed = diag["oracle_points"]
        assert [d["lambda"] for d in listed] == [p["lambda"] for p in points]
        for d, p in zip(listed, points):
            # the surrogate covers lags d whose width sqrt(4 nu d dt) < 2 / n_x
            dt = p["window_horizon"] / 100
            assert d["n_diag"] == sum(1 for lag in range(1, 101)
                                      if math.sqrt(4 * 0.5 * lag * dt) < 2 / 25)
            assert math.isfinite(d["max_error_log"]) and d["max_error_log"] >= 0
        # lambda >= 16 solves on so short a window that no lag gets a quadrature
        assert [d["n_diag"] == 100 for d in listed] == [False, True, True, True]

    def test_excitation_manifest_times_its_solves(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["excitation", "--config", cfg]) == 0
        man = load_manifest(str(tmp_path / "out"), "excitation")
        assert 0 < man["diagnostics"]["oracle_s"] <= man["wall_clock_s"]


    def test_oracle_manifest_diagnostics(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["oracle", "--config", cfg]) == 0
        diag = load_manifest(str(tmp_path / "out"), "oracle")["diagnostics"]
        with open(tmp_path / "out" / "oracle_moments.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        last = max(float(r["t"]) for r in rows)
        # horizon 0.2 on 100 panels: only lag 1's kernel width sqrt(4 nu tau)
        # = 0.063 falls under two of the 25 cells (0.08)
        assert diag["n_diag"] == 1
        assert diag["max_error_log_at_horizon"] == max(
            float(r["err_log"]) for r in rows if float(r["t"]) == last)


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(DEMOS, "*.cfg"))),
                             ids=os.path.basename)
    def test_loads_and_simulates(self, tmp_path, path):
        ExperimentConfig.from_file(path)
        assert cli.main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "path.csv").exists()

    def test_demo_lyapunov_fits_every_cell(self, tmp_path):
        path = os.path.join(DEMOS, "experiment.cfg")
        assert cli.main(["lyapunov", "--config", path, "--out", str(tmp_path),
                         "--override", "ensemble.n_samples=64"]) == 0
        assert load_manifest(str(tmp_path), "lyapunov")["failed_cells"] == []


@pytest.mark.parametrize("demo", ["01_kernel_bounds.py", "02_paths_two_schemes.py",
                                  "03_dichotomy.py", "04_excitation_index.py",
                                  "05_grr_modulus.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestExitCodes:
    def test_config_error(self, tmp_path):
        assert cli.main(["moments", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_unknown_functional_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg, "--override",
                         "observation.functionals=pointwise:0.5, median"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config_error"

    @pytest.mark.parametrize("override", ["observation.functionals=pointwise:abc",
                                          "observation.p_values=1"])
    def test_bad_functional_fails_before_compute(self, tmp_path, capsys, monkeypatch,
                                                 override):
        built = []
        monkeypatch.setattr(cli, "_ensemble_table", lambda *args: built.append(args))
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg, "--override", override]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config_error"
        assert built == []

    def test_unknown_override(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg,
                         "--override", "equation.bogus=1"]) == 1

    @pytest.mark.parametrize("command, override", [
        ("thresholds", "analysis.lambda_grid=-0.5,1,2,4"),
        ("excitation", "analysis.lambda_grid=-0.5,1,2,4"),
        ("excitation", "analysis.excitation_time=0"),
        ("excitation", "analysis.lambda_grid=0,8,16,32,64"),
        ("thresholds", "analysis.lambda_grid=0,1,2,4")])
    def test_bad_scan_fails_before_compute(self, tmp_path, capsys, monkeypatch, command,
                                           override):
        solved = []
        monkeypatch.setattr(ora, "second_moments", lambda *args: solved.append(args))
        cfg = write_cfg(tmp_path)
        assert cli.main([command, "--config", cfg, "--override", override]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config_error"
        assert solved == []

    @pytest.mark.parametrize("token", ["pointwise:2", "pointwise:-1", "pointwise:0.5:9"])
    def test_bad_pointwise_token_names_its_key(self, tmp_path, capsys, monkeypatch, token):
        built = []
        monkeypatch.setattr(cli, "_ensemble_table", lambda *args: built.append(args))
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg, "--override",
                         f"observation.functionals={token}"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_error"
        assert "observation.functionals" in err["message"]
        assert built == []

    @pytest.mark.parametrize("command, override", [
        ("thresholds", "analysis.fit_window=1.0,0.5"),
        ("oracle", "oracle.gamma=0.7"),
        ("thresholds", "oracle.gamma=0.7"),
        ("kernel", "kernel.gamma=0.3"),
        ("excitation", "analysis.lambda_grid=-0.5,1,2,4"),
        ("excitation", "analysis.excitation_time=0"),
        ("oracle", "oracle.n_x=2"),
        ("oracle", "oracle.n_time_panels=2"),
        # even, but the grid-halving solve would have 3 or 2 panels
        ("oracle", "oracle.n_time_panels=6"),
        ("excitation", "oracle.n_time_panels=4"),
        ("oracle", "equation.nu=-1"),
        ("oracle", "equation.lambda=nan"),
        ("oracle", "grid.horizon=-1"),
        ("oracle", "grid.dt=0"),
        ("grr-check", "grr.n_paths=0"),
        ("moments", "ensemble.scheme=bogus"),
        ("moments", "equation.lambda_grid=-1,1"),
        ("oracle", "grid.dt=0.5"),
        ("thresholds", "analysis.lambda_grid=0,8,16,32"),
        ("excitation", "analysis.mc_p=1"),
        ("verify-bounds", "bounds.alpha=1.5"),
        ("verify-bounds", "bounds.betas=-1"),
        ("verify-bounds", "bounds.betas=0.5,-1"),
        ("verify-bounds", "bounds.margins=100"),
        ("oracle", "observation.times=0.1,5"),
        ("kernel", "kernel.tol=-1"),
        ("grr-check", "grr.eps=5"),
        ("grr-check", "grr.p=0.5"),
        ("grr-check", "grr.delta=-1"),
        ("moments", "observation.p_values=1"),
        # grr-check's own rule: 64 sample nodes
        ("grr-check", "grid.n_interior=31"),
        # an empty list
        ("thresholds", "analysis.lambda_grid="),
        ("moments", "observation.times="),
        ("moments", "observation.p_values="),
        ("moments", "observation.functionals="),
        ("moments", "equation.lambda_grid=")])
    def test_bad_value_names_its_key_before_compute(self, tmp_path, capsys, monkeypatch,
                                                    command, override):
        self.assert_names_key_before_compute(tmp_path, capsys, monkeypatch, command,
                                             [override])

    @pytest.mark.parametrize("command", ["kernel", "all"])
    def test_table_of_wrong_length_names_its_key_before_compute(self, tmp_path, capsys,
                                                                monkeypatch, command):
        # BASE has 31 interior nodes
        self.assert_names_key_before_compute(tmp_path, capsys, monkeypatch, command,
                                             ["initial.kind=table", "initial.values=0,1,0"])

    @staticmethod
    def assert_names_key_before_compute(tmp_path, capsys, monkeypatch, command, overrides):
        """The command exits 1 with a config error that names the key of the
        last override and no other, before any compute."""
        computed = []
        monkeypatch.setattr(ora, "second_moments", lambda *args: computed.append(args))
        monkeypatch.setattr(kern, "calibrate_lower_bound",
                            lambda *args: computed.append(args))
        monkeypatch.setattr(cli, "_ensemble_table", lambda *args: computed.append(args))
        monkeypatch.setattr(ana, "integral_bound_value", lambda *args: computed.append(args))
        cfg = write_cfg(tmp_path)
        args = [command, "--config", cfg]
        for override in overrides:
            args += ["--override", override]
        assert cli.main(args) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_error"
        # the message names that key and no other
        sections = "|".join(ExperimentConfig.defaults().raw)
        named = re.findall(rf"\b(?:{sections})\.\w+", err["message"])
        assert set(named) == {overrides[-1].split("=")[0]}
        assert computed == []

    @pytest.mark.parametrize("override", ["ensemble.n_samples=0", "ensemble.n_samples=1",
                                          "analysis.mc_samples=1"])
    def test_too_few_samples_is_config_error(self, tmp_path, override):
        cfg = write_cfg(tmp_path)
        assert cli.main(["moments", "--config", cfg, "--override", override]) == 1

    @pytest.mark.parametrize("override", [
        "oracle.n_x=2", "oracle.n_time_panels=3", "oracle.n_time_panels=101",
        "grid.n_interior=0", "grid.dt=-1", "kernel.tol=-1", "grr.eps=5",
        "analysis.fit_window=0.5",
        "grr.n_paths=0", "ensemble.scheme=bogus", "equation.lambda_grid=-1,1", "grid.dt=0.5",
        "analysis.lambda_grid=0,8,16,32", "analysis.mc_p=1",
        "bounds.alpha=1.5", "bounds.betas=-1", "bounds.betas=0.5,-1", "bounds.margins=100",
        "observation.times=0.1,5"])
    def test_bad_domain_value_fails_before_compute(self, tmp_path, capsys, override):
        cfg = write_cfg(tmp_path)
        assert cli.main(["all", "--config", cfg, "--override", override]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config_error"
        assert not (tmp_path / "out").exists()

    def test_initial_zero_on_oracle_grid_fails_before_compute(self, tmp_path, capsys):
        # the bump's support (0.49, 0.51) lies between two of 32 cell midpoints
        cfg = write_cfg(tmp_path)
        assert cli.main(["oracle", "--config", cfg, "--override", "oracle.n_x=32",
                         "--override", "initial.gamma=0.49"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_error"
        assert err["message"].startswith("initial: u0")
        assert not (tmp_path / "out").exists()

    def test_bad_seed_env_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHEAT_SEED", "12x")
        assert cli.main(["kernel", "--config", write_cfg(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_error"
        assert "SHEAT_SEED" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--out", "output.directory"])
    def test_uncreatable_output_directory_is_config_error(self, tmp_path, capsys,
                                                          monkeypatch, option):
        computed = []
        monkeypatch.setattr(kern, "calibrate_lower_bound", lambda *args: computed.append(args))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")
        args = (["--out", out] if option == "--out"
                else ["--override", f"output.directory={out}"])
        assert cli.main(["kernel", "--config", write_cfg(tmp_path)] + args) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config_error"
        assert "output.directory" in err["message"]
        assert computed == []

    def test_verification_failure_is_exit_3(self, tmp_path):
        cfg = write_cfg(tmp_path)
        # margins far from the threshold measure the soft (alpha-1) exponent,
        # not the 1/margin law, so the 10% assertion trips
        rc = cli.main(["verify-bounds", "--config", cfg,
                       "--override", "bounds.margins=3.0,2.0,1.0"])
        assert rc == 3
        # the manifest is still written, after the output it lists
        man = load_manifest(str(tmp_path / "out"), "verify-bounds")
        assert man["outputs"] == [{
            "path": "verify_bounds.json",
            "sha256": sha256_file(str(tmp_path / "out" / "verify_bounds.json"))}]


# lambda = 60 on T = 0.5: sample 0 renormalizes to a log scale past 800, so
# exp(log_scale) alone overflows although some nodes are negative
LARGE_LAMBDA = ["--override", "equation.lambda=60", "--override", "grid.horizon=0.5",
                "--override", "observation.times=0.25, 0.5"]


def _large_lambda_path(tmp_path):
    cfg = ExperimentConfig.from_file(write_cfg(tmp_path),
                                     overrides=LARGE_LAMBDA[1::2])
    path = solver.simulate_paths(cfg.simulation(), [0])
    assert path.log_scale[0, -1] > 800
    assert (path.values[0, -1] < 0).any()
    return path


class TestLargeLogScale:
    def test_field_at_keeps_signs(self, tmp_path):
        path = _large_lambda_path(tmp_path)
        u = path.field_at(0.5)[0]
        assert np.array_equal(np.sign(u), np.sign(path.values[0, -1]))
        log_abs = path.log_abs_at(0.5)[0]       # float range ends at log 709.78
        assert np.isinf(u[log_abs > 710]).all() and np.isfinite(u[log_abs < 709]).all()

    def test_path_csv_signs(self, tmp_path):
        path = _large_lambda_path(tmp_path)
        assert cli.main(["simulate", "--config", write_cfg(tmp_path)] + LARGE_LAMBDA) == 0
        rows = np.genfromtxt(tmp_path / "out" / "path.csv", delimiter=",", names=True)
        last = rows[rows["t"] == 0.5]
        assert np.array_equal(np.sign(last["u"]), np.sign(path.values[0, -1]))

    def test_grr_check_past_float_range(self, tmp_path):
        # sample 0's field leaves float range (see _large_lambda_path), which
        # the check does not need: it runs on the renormalized row
        assert cli.main(["grr-check", "--config", write_cfg(tmp_path),
                         "--override", "grid.n_interior=63",
                         "--override", "grr.n_paths=4"] + LARGE_LAMBDA) == 0
        with open(tmp_path / "out" / "grr_paths.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["sample"]) for r in rows] == [0, 1, 2, 3]
        assert all(math.isfinite(float(r["max_ratio"])) for r in rows)
        assert all(int(r["violations"]) == 0 for r in rows)
        assert float(rows[0]["B"]) == math.inf      # B scales like |u|^p


def test_grr_check_computes_each_b_once(tmp_path, monkeypatch):
    profiles = []
    functional = reg.grr_functional

    def counting(f, *args, **kwargs):
        profiles.append(int(np.prod(np.shape(f)[:-1])))
        return functional(f, *args, **kwargs)

    monkeypatch.setattr(reg, "grr_functional", counting)
    assert cli.main(["grr-check", "--config", write_cfg(tmp_path),
                     "--override", "grid.n_interior=63",
                     "--override", "grr.n_paths=4"]) == 0
    assert sum(profiles) == 4 + 1   # one per path, one for the linear profile


def _grr_rows(out):
    with open(os.path.join(out, "grr_paths.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def test_grr_check_rows_do_not_depend_on_n_paths(tmp_path):
    cfg = write_cfg(tmp_path)
    for n_paths in (4, 100):
        assert cli.main(["grr-check", "--config", cfg,
                         "--out", str(tmp_path / f"n{n_paths}"),
                         "--override", "grid.n_interior=63",
                         "--override", f"grr.n_paths={n_paths}"]) == 0
    few, many = _grr_rows(tmp_path / "n4"), _grr_rows(tmp_path / "n100")
    assert len(many) == 100
    assert few == many[:4]


def test_grr_check_neumann_profiles_span_unit_interval(tmp_path):
    # 62 interior nodes plus the two mirror-ghost edge values: 64 nodes at dx
    assert cli.main(["grr-check", "--config", write_cfg(tmp_path),
                     "--override", "equation.boundary=neumann",
                     "--override", "grid.n_interior=62",
                     "--override", "grr.n_paths=4"]) == 0
    rows = _grr_rows(tmp_path / "out")
    assert len(rows) == 4
    assert all(float(r["cutoff"]) == pytest.approx(2 / 63, rel=1e-15) for r in rows)


ALL_OVERRIDES = ["--override", "grid.n_interior=63", "--override", "grr.n_paths=8",
                 "--override", "observation.times=0.1, 0.15, 0.2"]


AllRuns = collections.namedtuple("AllRuns", "rc one proc two builds estimates")


@pytest.fixture(scope="module")
def all_runs(tmp_path_factory):
    """sheatlab all, in process on one worker and as a fresh interpreter on
    two, with the lambdas and sample count of each group build in process,
    and the lambda of each ensemble's estimate table taken in process."""
    tmp = tmp_path_factory.mktemp("all")
    cfg = write_cfg(tmp)
    one, two = tmp / "w1", tmp / "w2"
    builds, estimates = [], []
    build, estimate = cli._ensemble_table, cli.st.ensemble_estimates

    def counting(sims, n_samples, *args):
        builds.append(([sim.lam for sim in sims], n_samples))
        return build(sims, n_samples, *args)

    def counting_estimates(ens, *args):
        estimates.append(ens.config.lam)
        return estimate(ens, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_ensemble_table", counting)
        mp.setattr(cli.st, "ensemble_estimates", counting_estimates)
        rc = cli.main(["all", "--config", cfg, "--workers", "1", "--out", str(one)]
                      + ALL_OVERRIDES)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "sheatlab", "all", "--config", cfg,
                           "--workers", "2", "--out", str(two)] + ALL_OVERRIDES,
                          env=env, capture_output=True, text=True, timeout=600)
    return AllRuns(rc, one, proc, two, builds, estimates)


def _listed_outputs(out):
    """{file: sha256} over every manifest; a file listed twice fails."""
    listed = {}
    for man_path in sorted(out.glob("manifest_*.json")):
        man = json.loads(man_path.read_text())
        for name, digest in ((e["path"], e["sha256"]) for e in man["outputs"]):
            assert name not in listed, f"{name} listed twice"
            listed[name] = digest
    return listed


class TestAll:
    def test_exit_codes_and_manifests(self, all_runs):
        rc, one, proc, two = all_runs[:4]
        assert rc == 0
        assert proc.returncode == 0, proc.stderr
        want = sorted(f"manifest_{c.replace('-', '_')}.json" for c in cli.SUBCOMMANDS[:-1])
        for out in (one, two):
            assert sorted(p.name for p in out.glob("manifest_*.json")) == want

    def test_one_build_per_simulation_config(self, all_runs):
        # moments, the first Monte Carlo reader, builds the one config's 64
        # samples; lyapunov, simulate and grr-check (8 paths) slice them
        assert all_runs.builds == [([1.0], 64)]

    def test_one_estimate_table_per_cell(self, all_runs):
        # moments takes the one cell's table; lyapunov reads the one held
        assert all_runs.estimates == [1.0]

    def test_every_output_listed_once(self, all_runs):
        for out in (all_runs.one, all_runs.two):
            files = {p.name for p in out.iterdir() if not p.name.startswith("manifest_")}
            listed = _listed_outputs(out)
            assert set(listed) == files
            for name, digest in listed.items():
                assert sha256_file(str(out / name)) == digest, name

    def test_csv_cells_are_numbers(self, all_runs):
        for path in sorted(all_runs.one.glob("*.csv")):
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    for column, cell in row.items():
                        if column != "functional":      # a label, not a number
                            float(cell)

    def test_json_key_sets(self, all_runs):
        # the keys of each JSON output on this config, pinned exactly
        out = all_runs.one
        kernel, bounds, grr, thresholds, excitation, lyapunov = (
            json.loads((out / name).read_text()) for name in (
                "kernel_calibration.json", "verify_bounds.json", "grr_check.json",
                "thresholds.json", "excitation.json", "lyapunov.json"))
        assert set(kernel) == {"kappa1_hat", "kappa2_hat", "k1_hat", "k2_hat", "k3", "gamma"}
        assert set(bounds) == {"negative_beta", "threshold"}
        halves = {"betas", "sups", "c_hats", "fitted_exponent", "expected_exponent",
                  "domination_checked"}
        assert set(bounds["negative_beta"]) == halves | {"refinement_change"}
        assert set(bounds["threshold"]) == halves | {"threshold"}
        assert set(grr) == {"linear_b", "linear_b_target", "linear_b_error",
                             "general_vs_closed_rel", "kappa", "ensemble_violations"}
        assert set(thresholds) == {"lambda_l_hat", "lambda_u_hat", "fits"}
        assert thresholds["fits"]
        for fit in thresholds["fits"]:
            assert set(fit) == {"lambda", "slope", "slope_ci", "significantly_negative",
                                 "significantly_positive", "rate_dt", "resolved"}
        assert set(excitation) == {"t", "p", "backend", "e2_hat", "slope_ci",
                                    "r2_quartic", "r2_quadratic", "points"}
        assert excitation["points"]
        for point in excitation["points"]:
            assert set(point) == {"lambda", "log_energy", "rate", "window_horizon",
                                   "extrapolated", "norm_lam4"}
        assert set(lyapunov) == {"fits"} and lyapunov["fits"]
        for fit in lyapunov["fits"]:
            assert set(fit) == {"lambda", "p", "functional", "slope", "slope_ci",
                                 "intercept", "r_squared", "window", "n_dropped",
                                 "significantly_negative", "significantly_positive"}

    def test_outputs_identical_across_workers(self, all_runs):
        one, two = all_runs.one, all_runs.two
        names = sorted(p.name for p in one.iterdir() if not p.name.startswith("manifest_"))
        assert names == sorted(p.name for p in two.iterdir()
                               if not p.name.startswith("manifest_"))
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        # the manifests differ only in their timing fields
        for man in sorted(p.name for p in one.glob("manifest_*.json")):
            assert untimed(json.loads((one / man).read_text())) \
                == untimed(json.loads((two / man).read_text())), man


# Run in a fresh interpreter: lists the scipy modules loaded after the import
# and after each command of argv[1] (a JSON list of cli.main argument lists),
# and those loaded when each process pool starts.
HYGIENE_SCRIPT = """
import concurrent.futures, json, sys
from sheatlab import cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

at_pool = []
real_pool = concurrent.futures.ProcessPoolExecutor

def recording_pool(*args, **kwargs):
    at_pool.append(loaded())
    return real_pool(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = recording_pool
seen = [("import", 0, loaded())]
for argv in json.loads(sys.argv[1]):
    seen.append((argv[0], cli.main(argv), loaded()))
print(json.dumps({"seen": seen, "at_pool": at_pool}))
"""

KERNELS = {"scipy.fft", "scipy.linalg.lapack"}


def _scipy_loaded(commands):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", HYGIENE_SCRIPT, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestImportHygiene:
    """scipy serves only the Monte Carlo march: importing the package and
    every numpy-only command load none of it, and a march loads both of its
    kernels at once. The process pool serves only a --workers > 1 build."""

    def test_import_loads_no_process_pool(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        code = ("import json, sys, sheatlab.cli; print(json.dumps([m for m in "
                "('multiprocessing', 'concurrent.futures.process') if m in sys.modules]))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_numpy_only_commands_load_no_scipy(self, tmp_path):
        cfg = write_cfg(tmp_path)
        numpy_only = [[name, "--config", cfg] for name in
                      ("kernel", "oracle", "thresholds", "excitation", "verify-bounds")]
        numpy_only[3] += ["--override", "analysis.mc_samples=0"]
        report = _scipy_loaded(numpy_only + [["moments", "--config", cfg]])
        seen = report["seen"]
        assert [name for name, _, _ in seen] == ["import", "kernel", "oracle", "thresholds",
                                                 "excitation", "verify-bounds", "moments"]
        # verify-bounds may fail its own check (exit 3); it still ran
        assert all(rc in (0, 3) for _, rc, _ in seen[:-1]) and seen[-1][1] == 0
        assert [mods for _, _, mods in seen[:-1]] == [[]] * 6
        assert KERNELS <= set(seen[-1][2])
        assert report["at_pool"] == []

    def test_pool_parent_loads_kernels_first(self, tmp_path):
        cfg = write_cfg(tmp_path)
        report = _scipy_loaded([["moments", "--config", cfg, "--workers", "2",
                                 "--override", "ensemble.n_samples=128"]])
        assert report["seen"][1][1] == 0
        (at_start,) = report["at_pool"]
        assert KERNELS <= set(at_start)

"""Run two sheatlab source trees on the same commands and list where their
outputs differ.

    python tests/compare_trees.py PARENT_SRC CHANGE_SRC OUT

PARENT_SRC and CHANGE_SRC are directories holding a `sheatlab` package
(a checkout's src/). Each run of RUNS is made once per tree, as
`python -m sheatlab` with that tree on PYTHONPATH, seed 7 and one BLAS
thread, into OUT/parent/<run> and OUT/change/<run>, which must not exist
yet. The configs are read from this checkout's bench/configs and are not
written to. compare_outputs.main then lists the differences of each run's
two directories, and of the change's `all` runs on one and two workers.
Exit status: 0 if every run exited alike in both trees and every pair of
directories is identical, 1 otherwise.
"""

import math
import os
import subprocess
import sys

import compare_outputs

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "bench", "configs")

# (run, subcommand, config, further arguments)
RUNS = [
    ("all_w1", "all", "experiment.cfg", ["--workers", "1"]),
    ("all_w2", "all", "experiment.cfg", ["--workers", "2"]),
    ("thresholds", "thresholds", "oracle_thresholds.cfg", []),
    ("excitation", "excitation", "oracle_excitation.cfg", []),
    # a Neumann split march of seven amplitudes: dense lags among each
    # step's own, and rescales inside blocks
    ("thresholds_neumann", "thresholds", "oracle_thresholds.cfg",
     ["--override", "equation.boundary=neumann"]),
    # the Neumann far field: cosine pairs and the constant mode
    ("oracle_neumann", "oracle", "experiment.cfg",
     ["--override", "equation.boundary=neumann"]),
    # the Neumann all-surrogate channels (lambda >= 16)
    ("excitation_neumann", "excitation", "oracle_excitation.cfg",
     ["--override", "equation.boundary=neumann"]),
    # short all-surrogate grids (400 panels and their halved 200), on
    # fitted channels past lag 32 like the longer ones
    ("excitation_short", "excitation", "oracle_excitation.cfg",
     ["--override", "oracle.n_time_panels=400"]),
    # the Monte Carlo half of excitation, which no run above reaches
    ("excitation_mc", "excitation", "experiment.cfg",
     ["--override", "analysis.mc_samples=64"]),
    ("moments_semi_implicit", "moments", "mc_moments.cfg",
     ["--override", "ensemble.scheme=semi_implicit"]),
    ("moments_spectral", "moments", "mc_moments.cfg",
     ["--override", "ensemble.scheme=spectral"]),
    # the Neumann factor, and 130-step noise chunks on 63 nodes
    ("moments_neumann", "moments", "mc_moments.cfg",
     ["--override", "equation.boundary=neumann", "--override", "grid.n_interior=63"]),
    # a node table as the initial profile: sin(pi x) at the 127 interior nodes
    ("moments_table", "moments", "mc_moments.cfg",
     ["--override", "ensemble.n_samples=64", "--override", "initial.kind=table",
      "--override", "initial.values="
      + ",".join(repr(math.sin(math.pi * j / 128)) for j in range(1, 128))]),
    # path.csv's renormalized rows, and u = +-inf past float range
    ("simulate_renormalized", "simulate", "experiment.cfg",
     ["--override", "equation.lambda=40"]),
]


def run(src, out, subcommand, config, extra):
    """The exit status of one sheatlab run of the tree src into out."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "sheatlab", subcommand,
                           "--config", os.path.join(CONFIGS, config), "--seed", "7",
                           "--out", out, *extra],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{out}: exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.returncode


def main(parent_src, change_src, out):
    same = True
    for name, *args in RUNS:
        dirs = [os.path.join(out, side, name) for side in ("parent", "change")]
        codes = [run(src, d, *args) for src, d in zip((parent_src, change_src), dirs)]
        print(f"== {name}")
        same &= codes[0] == codes[1]
        same &= compare_outputs.main(*dirs) == 0
    print("== change: all_w1 against all_w2")
    same &= compare_outputs.main(os.path.join(out, "change", "all_w1"),
                                 os.path.join(out, "change", "all_w2")) == 0
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))

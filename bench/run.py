"""Run one workload of the sheatlab benchmark and print its metrics.

    python3 bench/run.py --workload {mc_moments,oracle_scan,cli_all} \
        --seed N --seconds S --trace 0|1

Run it from the root of a sheatlab checkout: the package is imported from
./src, never from an installed copy. The workload runs in its own process
(bench/workloads.py) with BLAS pinned to one thread. Set-up time is the
median of several fresh launches, each timed from process launch until
sheatlab is imported and the workload's configs are loaded.

Output: one line per metric (name, unit, median), the per-round figures, the
machine facts, and as the last line a JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones, with --trace 1 the per-layer ones from a traced round. Everything a
run writes goes under bench/out/<workload>/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_LAUNCHES = 3
TIME_LIMIT_S = 170.0
WORKLOADS = ("mc_moments", "oracle_scan", "cli_all")


def child_env(src):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SHEAT_SEED", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"     # a fixed dict and set order: steady peak RSS
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def launch(argv, env, deadline):
    """Run a child in its own process group; return (launch_ns, its JSON result)."""
    start_ns = time.monotonic_ns()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{argv[2:4]} did not finish within the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return start_ns, json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "sheatlab", "__init__.py")):
        print("bench/run.py: no src/sheatlab here; run it from the root of a "
              "sheatlab checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    out = os.path.join(BENCH, "out", args.workload)
    base = [sys.executable, os.path.join(BENCH, "workloads.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]

    try:
        setups = []
        for _ in range(SETUP_LAUNCHES):
            start_ns, probe = launch(base + ["--setup-only"], env, deadline)
            setups.append((probe["ready_ns"] - start_ns) / 1e9)
        start_ns, result = launch(base, env, deadline)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    setups.append((result["ready_ns"] - start_ns) / 1e9)

    if args.trace:
        metrics = dict(result["layers"])
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "wall_s": (result["wall_s"], "s"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB")}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {unit:6s} {value:.6g}")
    for name, (value, unit) in result["figures"].items():
        print(f"  (figure) {name:27s} {unit:6s} {value:.6g}")
    if result["absent_layers"] or result["missing_functions"]:
        print(f"  absent layers {result['absent_layers']}; "
              f"missing functions {result['missing_functions']}")
    for error in result["errors"]:
        print(f"  failed: {error}")
    print(f"  machine {json.dumps(result['machine'], sort_keys=True)}")

    result["setup_s_samples"] = setups
    result["metrics"] = metrics
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"result_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Checks that every hook resolves in this checkout, that the hooks are
restored after a traced pass, that a removed hook makes its metrics
missing instead of failing, and that the exact counts repeat between two
traced runs of one seed (cli_fit_chain by default; each traced run takes
about 20 s to a minute). Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402

from run import EXACT_COUNTS  # noqa: E402


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_hooks_resolve() -> None:
    missing = tracing.missing_hooks()
    if missing:
        fail(f"hooks do not resolve: {missing}")
    print(f"ok   all {len(tracing.HOOKS)} hooks resolve")


def check_hooks_restored() -> None:
    import importlib

    before = {key: getattr(importlib.import_module(key[0]), key[1])
              for key in tracing.HOOKS}
    with tracing.Tracer().installed():
        pass
    for key, original in before.items():
        if getattr(importlib.import_module(key[0]), key[1]) is not original:
            fail(f"{key[0]}.{key[1]} not restored after a traced pass")
    print("ok   hooks restored after a traced pass")


def check_removed_hook_is_missing() -> None:
    from bubblefit import fitter

    original = fitter.nelder_mead
    del fitter.nelder_mead
    try:
        tracer = tracing.Tracer()
        with tracer.installed():
            pass
        metrics = tracing.layer_metrics(tracer)
    finally:
        fitter.nelder_mead = original
    dropped = {"fitter.nm_runs", "fitter.nm_self_s", "fitter.search_self_s"}
    if dropped & set(metrics):
        fail(f"metrics of a removed hook still reported: {sorted(dropped & set(metrics))}")
    if "lppl.evals" not in metrics:
        fail("metrics of the remaining hooks were dropped too")
    print("ok   a removed hook leaves its metrics missing")


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        fail(f"traced {workload} run was not correct:\n{done.stderr}")
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


def check_counts_repeat(workload: str, seed: int) -> None:
    first, second = traced_counts(workload, seed), traced_counts(workload, seed)
    if first != second:
        fail(f"{workload}: exact counts differ between traced runs: {first} vs {second}")
    print(f"ok   {workload} seed {seed}: exact counts repeat {first}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", default=None)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    check_hooks_resolve()
    check_hooks_restored()
    check_removed_hook_is_missing()
    for workload in args.workload or ["cli_fit_chain"]:
        check_counts_repeat(workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())

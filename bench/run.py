"""qform benchmark: one workload per run, checked outputs, named metrics.

    python3 bench/run.py --workload decide-sweep|oracle-sweep|evidence
                         [--seed N] [--seconds S] [--trace 0|1]

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 first
makes an untraced pass for half the time, then a traced pass of the same
rounds in a second fresh interpreter, and prints the per-layer metrics and
the tracing overhead (the difference between the two passes' operation
times). The last line of stdout is one JSON object: correct, attempted,
failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1812
# import-only interpreters the workload process starts between its rounds
SETUP_PROBES = 10
# two workload processes in a traced run must both end within 180 s
CHILD_TIMEOUT_S = 80

# workload-specific names for the shared end-to-end metrics, printed alongside
ALIASES = {
    "decide-sweep": {"ops_per_s": "decide_per_s", "p50_ms": "decide_p50_us",
                     "p99_ms": "decide_p99_us"},
    "oracle-sweep": {"ops_per_s": "crosscheck_per_s",
                     "p50_ms": "crosscheck_p50_ms", "p99_ms": "crosscheck_p99_ms"},
    "evidence": {"ops_per_s": "evidence_per_s", "dense_p50_ms": "witness_p50_ms",
                 "notdense_p50_ms": "certificate_p50_ms",
                 "p99_ms": "evidence_p99_ms"},
}


def child(args: list[str], spec: dict) -> dict:
    """Run bench/child.py in a fresh interpreter and return its summary."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args], input=json.dumps(spec),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"workload process {args} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def package_version(name: str) -> str:
    try:
        return version(name)
    except PackageNotFoundError:
        return "absent"


def end_to_end(res: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        # the median round resists stretches in which the machine runs slow
        "ops_per_s": (res["ops_per_round"] / statistics.median(res["round_s"]),
                      "1/s"),
        "p50_ms": (res["p50_s"] * 1e3, "ms"),
        "p99_ms": (res["p99_s"] * 1e3, "ms"),
        "dense_p50_ms": (res["dense_p50_s"] * 1e3, "ms"),
        "notdense_p50_ms": (res["notdense_p50_s"] * 1e3, "ms"),
    }


def print_aliases(workload: str, metrics: dict) -> None:
    for name, alias in ALIASES[workload].items():
        value = metrics[name][0] * (1e3 if alias.endswith("_us") else 1)
        print(f"  {alias} = {value:.6g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={package_version('numpy')} sympy={package_version('sympy')} "
          f"platform={platform.platform()}")
    print(f"run: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    spec = inputs.WORKLOADS[args.workload](args.seed)
    print(f"inputs: {inputs.describe(spec)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        base = child(["--seconds", str(args.seconds / 2)], spec)
        res = child(["--rounds", str(base["rounds"]), "--trace", "1"], spec)
        overhead = res["op_s"] - base["op_s"]
        table = {name: tuple(v) for name, v in res["trace"].items()}
        table["trace.overhead_s"] = (overhead, "s")
        print(f"trace: {res['rounds']} rounds, operations took {base['op_s']:.4f} s "
              f"untraced and {res['op_s']:.4f} s traced "
              f"(overhead {overhead:.4f} s, {100 * overhead / base['op_s']:.1f}%)")
        for name, (value, unit) in table.items():
            print(f"  {name} = {value:.6g} {unit}")
        wanted = declared["per_layer"]
        correct = base["correct"] and res["correct"]
        attempted = base["attempted"] + res["attempted"]
        failed = base["failed"] + res["failed"]
        problems = base["problems"] + res["problems"]
    else:
        res = child(["--seconds", str(args.seconds),
                     "--probes", str(SETUP_PROBES)], spec)
        setups = res["setups"]
        table = end_to_end(res, setups)
        print(f"setup: import qform in {len(setups)} fresh interpreters, "
              f"median of {', '.join(f'{s:.4f}' for s in setups)} s")
        print_aliases(args.workload, table)
        wanted = declared["end_to_end"]
        correct, attempted, failed = res["correct"], res["attempted"], res["failed"]
        problems = res["problems"]

    st = res["self_test"]
    print(f"self-test: {st['caught']}/{st['injected']} wrong answers flagged, "
          f"{st['accepted']}/{st['controls']} right answers accepted")
    print(f"operations: {res['ops_per_round']} per round, {res['rounds']} timed "
          f"rounds after one checked warm-up round; attempted={attempted} "
          f"failed={failed}")
    rs = res["round_s"]
    print(f"round operation time: median {statistics.median(rs):.4f} s, "
          f"range {min(rs):.4f}-{max(rs):.4f} s over {len(rs)} rounds")
    print(f"samples: p50/p99 over {res['samples']}, dense p50 over "
          f"{res['dense_samples']}, not-dense p50 over {res['notdense_samples']}")
    for text in problems:
        print(f"problem: {text}")
    metrics = {}
    for m in wanted:
        value, unit = table[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"{m['name']} is measured in {unit}, declared {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

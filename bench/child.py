"""One workload in a fresh interpreter: import qform, run rounds, check outputs.

Started by run.py, which writes the workload spec (inputs.py) to stdin. The
first round warms caches and is checked against the independent references;
every later round is timed and must reproduce the first round's outputs
exactly. Prints one JSON summary line on stdout.

    python3 bench/child.py --seconds S [--probes K] < spec.json
    python3 bench/child.py --rounds R --trace 1 < spec.json
    python3 bench/child.py --probe     # only time `import qform`

With --probes K it also times `import qform` in K fresh interpreters started
between rounds, at even intervals over the run, so that the setup figure is
not taken at a single moment of a machine whose speed drifts.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Latency samples kept for percentiles: a fixed buffer, so the benchmark's own
# memory does not grow with the program's speed. When it fills, every other
# sample is dropped and later operations are sampled half as often, so the
# samples always spread evenly over the whole run.
SAMPLE_CAP = 1 << 18
BALL_BOX = 12
MAX_REPORTED = 5


def import_qform() -> float:
    """Seconds to import qform from this checkout's src/ directory."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qform
    elapsed = time.perf_counter() - start
    if not Path(qform.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qform was imported from {qform.__file__}, not {SRC}")
    return elapsed


def probe() -> float:
    """Import time of qform in a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, "--probe"],
                          stdout=subprocess.PIPE, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout)["import_s"]


# ---------------------------------------------------------------- checks

def check_verdict(expected: bool, dense: bool) -> str | None:
    if dense != expected:
        return f"dense={dense}, square-class reference says {expected}"
    return None


def check_crosscheck(case: dict, report, forbidden: set[int]) -> str | None:
    """The report passes, agrees with the reference verdict, covers everything
    when dense at the coverage schedule (r <= 3, bound >= 10 p**r), and keeps
    every residue the Hilbert-symbol obstruction forbids missing otherwise."""
    p, r = case["p"], case["r"]
    if report.dense != case["dense"]:
        return check_verdict(case["dense"], report.dense)
    if not report.passed:
        return f"report failed with discrepancies {report.discrepancies[:4]}"
    if case["dense"]:
        if r <= 3 and case["bound"] >= 10 * p ** r and report.coverage.missing:
            return f"dense form misses residues {report.coverage.missing[:4]}"
        return None
    leak = sorted(forbidden & report.coverage.covered)
    if leak:
        return f"forbidden residues covered: {leak[:4]}"
    return None


def check_evidence(req: dict, rc: int, text: str) -> str | None:
    """Exit 0 and JSON; a witness revalidated with Fraction arithmetic, or a
    certificate whose ball no quotient of a box enters."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        out = json.loads(text)
        if out["dense"] is not req["dense"]:
            return check_verdict(req["dense"], out["dense"])
        if req["dense"]:
            w = out["witness"]
            if Fraction(w["target"]) != Fraction(req["target"]) or w["r"] != req["r"]:
                return f"witness answers {w['target']}, r={w['r']}"
            if req["rank"] == 2:
                num, den = (w["x"], w["y"]), (w["z"], w["w"])
            else:
                num, den = w["x"], w["z"]
            return ref.witness_problem(req["coeffs"], req["rank"], req["p"],
                                       Fraction(req["target"]), req["r"],
                                       num, den)
        cert = out["certificate"]
        hits = ref.quotients_in_ball(req["coeffs"], req["rank"], req["p"],
                                     Fraction(cert["target"]),
                                     cert["radius_exp"], BALL_BOX)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return f"{hits} box quotients enter the certificate ball" if hits else None


# ---------------------------------------------------------------- workloads

def module(name: str):
    return sys.modules[f"qform.{name}"]


def cli_request(main, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def witness_request(main, argv: list[str]) -> tuple[int, str]:
    """One CLI request; a nonzero exit is a failed operation."""
    rc, text = cli_request(main, argv)
    if rc != 0:
        raise RuntimeError(f"qform {' '.join(argv)} exited with code {rc}")
    return rc, text


class DecideSweep:
    """qform.decide over every form of a box at every prime."""

    def __init__(self, spec: dict, qform):
        forms = [qform.BinaryForm(*f) for f in spec["forms"]]
        primes = [qform.Prime(p) for p in spec["primes"]]
        self.cases = [(f, p) for f in forms for p in primes]
        self.expected = [c == "1" for c in spec["expected"]]
        self.leaves = module("decide").ALL_TREE_LEAVES
        self.primes = spec["primes"]
        self.sum_of_squares = spec["forms"].index([1, 0, 1])

    def operations(self):
        decide = module("decide").decide
        return [(decide, case, dense)
                for case, dense in zip(self.cases, self.expected)]

    def check(self, i, verdict):
        return check_verdict(self.expected[i], verdict.dense)

    @staticmethod
    def digest(verdict):
        return verdict.dense, verdict.theorem_tag

    def properties(self, outputs) -> list[str]:
        problems = []
        reached = {v.theorem_tag for v in outputs if v is not None}
        if not self.leaves <= reached:
            problems.append(f"tree leaves never reached: {sorted(self.leaves - reached)}")
        n = len(self.primes)
        row = outputs[self.sum_of_squares * n:(self.sum_of_squares + 1) * n]
        dense = {p for p, v in zip(self.primes, row) if v is not None and v.dense}
        want = {p for p in self.primes if p % 4 == 1}
        if dense != want:
            problems.append(f"x^2+y^2 dense at {sorted(dense)}, expected {sorted(want)}")
        return problems


class OracleSweep:
    """qform.cross_check on a stratified sample of forms, primes and precisions."""

    def __init__(self, spec: dict, qform):
        self.spec = spec
        self.qr = {int(p): set(v) for p, v in spec["qr"].items()}
        self.cases = spec["cases"]
        self.args = [(qform.BinaryForm(*c["form"]), qform.Prime(c["p"]),
                      c["r"], c["bound"]) for c in self.cases]
        # kept unwrapped: the enumeration comparison stays out of the trace
        self.coverage = module("oracle").coverage

    def operations(self):
        cross_check = module("oracle").cross_check
        return [(cross_check, args, c["dense"])
                for args, c in zip(self.args, self.cases)]

    def check(self, i, report):
        c = self.cases[i]
        forbidden = set()
        if not c["dense"]:
            a, b, cc = c["form"]
            forbidden = ref.forbidden_residues(b * b - 4 * a * cc, c["p"],
                                               c["r"], self.qr.get(c["p"]))
        return check_crosscheck(c, report, forbidden)

    @staticmethod
    def digest(report):
        return (report.passed, report.dense, report.theorem_tag,
                report.coverage.missing, len(report.coverage.covered))

    def properties(self, outputs) -> list[str]:
        """Seeded subset: coverage on a small box equals a pure-Python count."""
        problems = []
        bound = self.spec["enum_bound"]
        for i in self.spec["enum_checks"]:
            c = self.cases[i]
            f, p, r, _ = self.args[i]
            got = set(self.coverage(f, p, r, bound).covered)
            want = ref.brute_coverage(c["form"], 2, c["p"], r, bound)
            if got != want:
                problems.append(f"coverage of {c['form']} at p={c['p']}, r={r}, "
                                f"bound={bound} differs from enumeration: "
                                f"{sorted(got ^ want)[:4]}")
        return problems


class Evidence:
    """`qform witness` requests through qform.cli.main, stdout captured."""

    def __init__(self, spec: dict, qform):
        self.requests = spec["requests"]

    def operations(self):
        main = module("cli").main
        return [(witness_request, (main, req["argv"]), req["dense"])
                for req in self.requests]

    def check(self, i, output):
        return check_evidence(self.requests[i], *output)

    @staticmethod
    def digest(output):
        return output

    def properties(self, outputs) -> list[str]:
        return []


WORKLOADS = {"decide-sweep": DecideSweep, "oracle-sweep": OracleSweep,
             "evidence": Evidence}


# ---------------------------------------------------------------- self-test

def self_test(qform) -> dict:
    """Feed each check a right answer and a deliberately wrong one.

    The wrong ones are a flipped verdict, a cross-check report that covers a
    forbidden residue, a perturbed witness coordinate and a certificate ball
    that a quotient does enter. Every wrong one must be flagged and every
    right one accepted.
    """
    flagged, accepted = [], []

    def judge(right, wrong):
        accepted.append(right() is None)
        flagged.append(wrong() is not None)

    f, p = qform.BinaryForm(1, 0, 1), qform.Prime(5)
    dense = qform.decide(f, p).dense
    judge(lambda: check_verdict(True, dense),
          lambda: check_verdict(True, not dense))

    case = {"form": [1, 0, 1], "p": 3, "r": 2, "bound": 90, "dense": False}
    report = qform.cross_check(qform.BinaryForm(1, 0, 1), qform.Prime(3), 2, 90)
    forbidden = ref.forbidden_residues(-4, 3, 2, {1})
    leaky = dataclasses.replace(report, coverage=dataclasses.replace(
        report.coverage, covered=report.coverage.covered | {min(forbidden)}))
    judge(lambda: check_crosscheck(case, report, forbidden),
          lambda: check_crosscheck(case, leaky, forbidden))

    main = module("cli").main
    req = {"dense": True, "coeffs": [1, 0, 1], "rank": 2, "p": 5,
           "target": "3/5", "r": 2}
    rc, text = cli_request(main, ["witness", "--form", "1,0,1", "--prime", "5",
                                  "--target", "3/5", "--r", "2"])
    bad = json.loads(text) if rc == 0 else {}
    if bad:
        bad["witness"]["x"] += 1
    judge(lambda: check_evidence(req, rc, text),
          lambda: check_evidence(req, rc, json.dumps(bad)))

    req = {"dense": False, "coeffs": [1, 0, 1], "rank": 2, "p": 3}
    rc, text = cli_request(main, ["witness", "--form", "1,0,1", "--prime", "3"])
    bad = json.loads(text) if rc == 0 else {}
    if bad:
        # 2 = Q(1, 1) / Q(1, 0) is itself a quotient
        bad["certificate"]["target"] = "2/1"
    judge(lambda: check_evidence(req, rc, text),
          lambda: check_evidence(req, rc, json.dumps(bad)))
    return {"injected": len(flagged), "caught": sum(flagged),
            "controls": len(accepted), "accepted": sum(accepted)}


# ---------------------------------------------------------------- runner

class Runner:
    def __init__(self, workload, ops, tracer):
        self.workload, self.ops, self.tracer = workload, ops, tracer
        self.attempted = self.failed = self.wrong = 0
        self.problems: list[str] = []
        self.first: list = [None] * len(ops)
        self.lat = array("d", bytes(8 * SAMPLE_CAP))
        self.dense = bytearray(SAMPLE_CAP)
        self.samples = 0
        self.stride = 1
        self.measured_ops = 0
        self.measured_s = 0.0
        # summed operation time of each timed round
        self.round_s: list[float] = []

    def note(self, text: str) -> None:
        if len(self.problems) < MAX_REPORTED:
            self.problems.append(text)
            print(f"[{self.workload.__class__.__name__}] {text}", file=sys.stderr)

    def round(self, first: bool) -> list:
        clock, tracer, outputs = time.perf_counter, self.tracer, []
        before = self.measured_s
        for i, (fn, args, dense) in enumerate(self.ops):
            self.attempted += 1
            start = clock()
            try:
                out = fn(*args)
            except Exception as exc:
                end = clock()
                out = None
                self.failed += 1
                self.note(f"operation {i} raised {type(exc).__name__}: {exc}")
            else:
                end = clock()
            if tracer is not None:
                tracer.fold()
            if not first:
                self.record(end - start, dense)
            if out is None:
                outputs.append(None)
                continue
            if first or self.first[i] is None:
                problem = self.workload.check(i, out)
                self.first[i] = self.workload.digest(out)
            elif self.workload.digest(out) != self.first[i]:
                problem = "output differs from the first round"
            else:
                problem = None
            if problem:
                self.failed += 1
                self.wrong += 1
                self.note(f"operation {i}: {problem}")
            outputs.append(out)
        if not first:
            self.round_s.append(self.measured_s - before)
        return outputs

    def record(self, seconds: float, dense: bool) -> None:
        self.measured_ops += 1
        self.measured_s += seconds
        if self.measured_ops % self.stride:
            return
        if self.samples == SAMPLE_CAP:
            half = SAMPLE_CAP // 2
            self.lat[:half] = self.lat[1::2]
            self.dense[:half] = self.dense[1::2]
            self.samples = half
            self.stride *= 2
            if self.measured_ops % self.stride:
                return
        self.lat[self.samples] = seconds
        self.dense[self.samples] = dense
        self.samples += 1

    def stats(self) -> dict:
        n = self.samples
        lat = self.lat[:n].tolist()
        dense = [x for x, d in zip(lat, self.dense) if d]
        notdense = [x for x, d in zip(lat, self.dense) if not d]
        med = lambda xs: statistics.median(xs) if xs else 0.0
        p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] if n > 1 else med(lat)
        return {"p50_s": med(lat), "p99_s": p99, "dense_p50_s": med(dense),
                "notdense_p50_s": med(notdense), "samples": n,
                "dense_samples": len(dense), "notdense_samples": len(notdense)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--probes", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import_s = import_qform()
    if args.probe:
        print(json.dumps({"import_s": import_s}))
        return 0
    import qform
    import qform.cli
    spec = json.load(sys.stdin)
    workload = WORKLOADS[spec["workload"]](spec, qform)
    checks = self_test(qform)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(workload, workload.operations(), tracer)
    outputs = runner.round(first=True)
    properties = workload.properties(outputs)
    for text in properties:
        runner.note(text)
    del outputs
    if tracer is not None:
        tracer.fold()
        tracer.reset()

    rounds, start = 0, time.perf_counter()
    setups = [import_s]
    due = [start + args.seconds * k / args.probes for k in range(args.probes)]
    while (rounds < args.rounds if args.rounds
           else rounds < 1 or time.perf_counter() - start < args.seconds):
        if due and time.perf_counter() >= due[0]:
            due.pop(0)
            setups.append(probe())
        runner.round(first=False)
        rounds += 1
    setups += [probe() for _ in due]

    # read before the percentile lists are built, which would otherwise add
    # memory that grows with the sample count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = (runner.wrong == 0 and not properties
               and checks["caught"] == checks["injected"]
               and checks["accepted"] == checks["controls"])
    result = {"setups": setups, "rounds": rounds,
              "attempted": runner.attempted, "failed": runner.failed,
              "wrong": runner.wrong, "correct": correct,
              "problems": runner.problems, "self_test": checks,
              "ops": runner.measured_ops, "op_s": runner.measured_s,
              "round_s": runner.round_s,
              "ops_per_round": len(runner.ops), **runner.stats(),
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["trace"] = tracer.summary(runner.measured_ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark tracer rebinds qform functions by name; keep those names alive.

bench/tracer.py wraps every function it lists in TRACED and reads the
arguments of three of them by parameter name (NOTES). A rename in qform would
otherwise break `bench/run.py --trace 1` without any test noticing. Likewise
bench/child.py checks itself and digests reports on every workload run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import qform
import qform.cli  # child.py finds the CLI in sys.modules
from qform import BinaryForm, Prime

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
CHILD = TRACER.with_name("child.py")

# parameters each NOTES function reads from the traced call
NOTE_PARAMETERS = {
    "oracle.coverage": ("f", "bound"),
    "witness.approximate_quotient": ("f",),
    "witness.exclusion_certificate": ("verify_bound",),
}


def load_bench(path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench(TRACER)


def traced_function(name):
    module, func = name.split(".")
    return getattr(importlib.import_module(f"qform.{module}"), func)


def test_traced_names_resolve():
    tracer = load_tracer()
    for module, funcs in tracer.TRACED.items():
        for func in funcs:
            assert callable(traced_function(f"{module}.{func}")), (module, func)


def test_note_parameters_exist():
    tracer = load_tracer()
    assert set(tracer.NOTES) == set(NOTE_PARAMETERS)
    for name, params in NOTE_PARAMETERS.items():
        signature = inspect.signature(traced_function(name))
        for param in params:
            assert param in signature.parameters, (name, param)


def test_notes_read_real_calls():
    tracer = load_tracer()
    f, p = BinaryForm(1, 0, 1), Prime(5)
    calls = {
        "oracle.coverage": ((f, p, 1, 5), {}),
        "witness.approximate_quotient": ((f, p, 2, 1, 2), {}),
        "witness.exclusion_certificate": ((f, Prime(3)), {"verify_bound": 4}),
    }
    notes = {}
    for name, (args, kwargs) in calls.items():
        fn = traced_function(name)
        notes[name] = tracer.NOTES[name](fn, args, kwargs, fn(*args, **kwargs))
    points, missing, sampled = notes["oracle.coverage"]
    assert points == 11 ** 2 and not missing and sampled > 0
    assert notes["witness.approximate_quotient"] == ("lift", True)
    assert notes["witness.exclusion_certificate"] == 9 ** 2


def test_bench_self_test_and_digest(monkeypatch):
    # child.py runs self_test(qform) and OracleSweep.digest in every workload
    # run; they replace report.coverage.covered and read .missing, so a change
    # to CoverageReport that breaks either makes every benchmark run fail
    monkeypatch.syspath_prepend(str(CHILD.parent))  # for child.py's reference
    child = load_bench(CHILD)
    assert child.self_test(qform) == {"injected": 4, "caught": 4,
                                      "controls": 4, "accepted": 4}
    report = qform.cross_check(BinaryForm(1, 0, 1), Prime(3), 2, 90)
    assert child.OracleSweep.digest(report) == \
        (True, False, "anisotropic", (3, 6), 7)

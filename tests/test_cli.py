import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qform
import qform.witness as witness_mod
from qform import valuation
from qform.cli import (UsageError, _attach_signed_values, _indented, _parse,
                       build_parser, main)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_decide_json(capsys):
    payload = run_json(capsys, "decide", "--form", "1,0,1", "--prime", "5")
    assert payload["form"] == "1,0,1"
    assert payload["prime"] == 5
    assert payload["verdict"]["dense"] is True
    assert payload["verdict"]["theorem_tag"] == "isotropic-nonsingular"
    assert payload["verdict"]["path"][0]["node"] == "isotropic"


def test_decide_not_dense(capsys):
    payload = run_json(capsys, "decide", "--form", "1,0,1", "--prime", "3")
    assert payload["verdict"]["dense"] is False
    assert payload["verdict"]["theorem_tag"] == "anisotropic"


def test_decide_plain(capsys):
    code, out, _ = run(capsys, "decide", "--form", "1,0,1", "--prime", "5",
                       "--plain")
    assert code == 0
    assert "dense:   yes" in out


def test_decide_rank_coeffs(capsys):
    payload = run_json(capsys, "decide", "--rank", "3",
                       "--coeffs", "1,0,0,1,0,1", "--prime", "7")
    assert payload["form"] == "3; 1,0,0,1,0,1"
    assert payload["verdict"]["theorem_tag"] == "rank-ge-3"


def test_form_round_trips_through_json(capsys):
    payload = run_json(capsys, "decide", "--form", "1,0,-9", "--prime", "3")
    again = run_json(capsys, "decide", "--form", payload["form"],
                     "--prime", str(payload["prime"]))
    assert again["verdict"] == payload["verdict"]


def test_explain_plain(capsys):
    code, out, _ = run(capsys, "explain", "--form", "1,0,-9", "--prime", "3",
                       "--plain")
    assert code == 0
    assert "Is the form isotropic modulo 3?" in out
    assert "=> dense" in out
    assert "[odd-singular-residue]" in out


def test_witness_dense(capsys):
    payload = run_json(capsys, "witness", "--form", "1,0,1", "--prime", "5",
                       "--target", "3/5", "--r", "2")
    w = payload["witness"]
    assert w["target"] == "3/5"
    assert w["r"] == 2
    num = w["x"] ** 2 + w["y"] ** 2
    den = w["z"] ** 2 + w["w"] ** 2
    assert den != 0
    diff = Fraction(num, den) - Fraction(3, 5)
    assert diff == 0 or \
        valuation(diff.numerator, 5) - valuation(diff.denominator, 5) >= 2


def test_witness_not_dense_gives_certificate(capsys):
    payload = run_json(capsys, "witness", "--form", "1,0,1", "--prime", "3")
    cert = payload["certificate"]
    assert cert["target"] == "3/1"
    assert cert["radius_exp"] == 1


def test_negative_form_value(capsys):
    payload = run_json(capsys, "witness", "--form", "-11,11,-4", "--prime", "3")
    assert payload["form"] == "-11,11,-4"
    assert payload["dense"] is False
    payload = run_json(capsys, "decide", "--rank", "3",
                       "--coeffs", "-1,0,0,1,0,1", "--prime", "7")
    assert payload["form"] == "3; -1,0,0,1,0,1"


def test_negative_target_value(capsys):
    payload = run_json(capsys, "witness", "--form", "1,0,1", "--prime", "5",
                       "--target", "-51/5", "--r", "2")
    w = payload["witness"]
    assert w["target"] == "-51/5"
    diff = (Fraction(w["x"] ** 2 + w["y"] ** 2, w["z"] ** 2 + w["w"] ** 2)
            - Fraction(-51, 5))
    assert diff == 0 or \
        valuation(diff.numerator, 5) - valuation(diff.denominator, 5) >= 2


def test_witness_needs_target_when_dense(capsys):
    code, _, err = run(capsys, "witness", "--form", "1,0,1", "--prime", "5")
    assert code == 1
    assert "target" in err


def test_witness_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("QFORM_MAX_BUDGET", "2")
    code, _, err = run(capsys, "witness", "--rank", "3",
                       "--coeffs", "1,0,0,1,0,1", "--prime", "2",
                       "--target", "4126", "--r", "12")
    assert code == 1
    assert "coordinates up to 2" in err


def test_witness_budget_env_below_one(capsys, monkeypatch):
    # the cap bounds the witness box and the certificate box alike
    requests = [("--rank", "3", "--coeffs", "1,0,0,1,0,1", "--prime", "3",
                 "--target", "5"),
                ("--form", "1,0,1", "--prime", "3")]
    for cap in ("0", "-4"):
        monkeypatch.setenv("QFORM_MAX_BUDGET", cap)
        for argv in requests:
            code, out, err = run(capsys, "witness", *argv)
            assert (code, out) == (1, ""), (cap, argv)
            assert "QFORM_MAX_BUDGET must be at least 1" in err


def test_witness_budget_env_caps_certificate(capsys, monkeypatch):
    # a planted false claim is refuted in the capped box, not the default 50
    monkeypatch.setattr(witness_mod, "_obstruction",
                        lambda v, p: (2, 1, lambda z: z % 3 == 1, "planted"))
    monkeypatch.setenv("QFORM_MAX_BUDGET", "3")
    code, out, err = run(capsys, "witness", "--form", "1,0,-3", "--prime", "3")
    assert (code, out) == (2, "")
    assert "bound 3:" in err


def test_witness_rejects_bound_below_one(capsys):
    # certificate and witness branches alike: an empty box proves nothing
    cases = [("1,0,1", "3", "0"), ("1,0,1", "3", "-5"), ("1,0,1", "5", "0"),
             ("3; 1,0,0,1,0,1", "3", "-3")]
    for form, p, bound in cases:
        code, out, err = run(capsys, "witness", "--form", form, "--prime", p,
                             "--target", "5", "--bound", bound)
        assert (code, out) == (1, ""), (form, p, bound)
        assert "--bound must be at least 1" in err


def digit_cap() -> int:
    # Python's cap on the digits of int-text conversion; 0 means none
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_witness_past_the_int_digit_cap_prints(capsys):
    # 5**7000 has 4893 digits, past Python's default cap of 4300; the CLI
    # lifts the cap while it formats the witness, then puts it back
    cap = digit_cap()
    for plain in ((), ("--plain",)):
        code, out, err = run(capsys, "witness", "--form", "1,0,1", "--prime",
                             "5", "--target", "3", "--r", "7000", *plain)
        assert (code, err) == (0, ""), plain
        assert digit_cap() == cap
        if cap:
            sys.set_int_max_str_digits(0)
        try:
            w = dict(line.split(": ", 1) for line in out.splitlines()) \
                if plain else json.loads(out)["witness"]
            x, y, z, v = (int(w[k]) for k in "xyzw")
        finally:
            if cap:
                sys.set_int_max_str_digits(cap)
        assert x.bit_length() > 16000, plain
        diff = Fraction(x * x + y * y, z * z + v * v) - 3
        assert diff == 0 or valuation(diff.numerator, 5) - \
            valuation(diff.denominator, 5) >= 7000, plain


@pytest.mark.skipif(not digit_cap(), reason="this Python has no digit cap")
def test_form_text_keeps_the_int_digit_cap(capsys):
    # the cap is lifted for the output only: a 5001-digit coefficient is
    # still refused as input
    code, out, err = run(capsys, "witness", "--form", "1,0,1" + "0" * 5000,
                         "--prime", "5", "--target", "3")
    assert (code, out) == (1, "")
    assert "malformed form text" in err
    assert "Traceback" not in err


def test_decide_and_explain_past_the_int_digit_cap(capsys):
    # a 5001-digit discriminant, and at p = 5 an 8401-digit unit cofactor:
    # each form parses under the cap, and its verdict prints in full
    cap = digit_cap()
    big = "1" + "0" * 2500
    forms = ((f"{big},1,{big}", True),
             (f"{10**4200 + 3},0,{-25 * (10**4200 + 1)}", False))
    for (form, dense), command, plain in itertools.product(
            forms, ("decide", "explain"), ((), ("--plain",))):
        code, out, err = run(capsys, command, "--form", form, "--prime", "5",
                             *plain)
        assert (code, err) == (0, ""), (command, plain)
        assert digit_cap() == cap
        if plain:
            assert ("dense:   yes" in out or "=> dense" in out) == dense
        else:
            # json.loads would meet the cap on the numbers
            assert f'"dense": {json.dumps(dense)}' in out


def test_oracle_report(capsys):
    payload = run_json(capsys, "oracle", "--form", "1,0,1", "--prime", "3",
                       "--r", "2", "--bound", "90")
    rep = payload["report"]
    assert rep["missing"] == [3, 6]
    assert rep["covered_count"] == 7


def test_oracle_refuses_modulus_past_limit(capsys):
    # coverage lists every residue mod p**r: 10**12 of them is refused up front
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--form", "1,0,1", "--prime",
                         "1000003", "--r", "2", "--bound", "5")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "p=1000003, r=2 gives p**r = 1000006000009" in err


def test_default_bound_refuses_huge_r_quickly(capsys, tmp_path):
    # without --bound the box is COVERAGE_BOUND_FACTOR * p**r: the modulus
    # is refused before that power is computed
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 3\n")
    for argv in (("oracle", "--form", "1,0,1", "--prime", "3"),
                 ("sweep", "--config", str(cfg))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--r", str(10 ** 7))
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (1, ""), argv
        assert err == ("error: coverage lists every residue mod p**r, and "
                       "p=3, r=10000000 gives p**r = 3**10000000, past 2**24\n")


def test_sweep(capsys, tmp_path):
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("# comment line\n"
                   "1,0,1 5\n"
                   "1,0,1 3\n"
                   "\n"
                   "3; 1,0,0,1,0,1 2\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["results"]) == 3
    assert {row["form"] for row in payload["results"]} == \
        {"1,0,1", "3; 1,0,0,1,0,1"}


def test_sweep_plain(capsys, tmp_path):
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 5\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--plain")
    assert code == 0
    assert "all passed" in out


def test_sweep_reports_bad_line_and_goes_on(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 5\n"
                   "1,0,1 6\n"
                   "1,0,1 3\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--r", "2")
    assert code == 1
    assert err == "error: config line 2: 6 is not a prime number\n"
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [row["p"] for row in payload["results"]] == [5, 3]

    # a failed cross-check still sets the exit code
    import qform.oracle as oracle_mod

    class FakeVerdict:
        dense = True
        theorem_tag = "isotropic-nonsingular"

    monkeypatch.setattr(oracle_mod, "decide", lambda f, p: FakeVerdict())
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--r", "2")
    assert code == 2
    assert err == "error: config line 2: 6 is not a prime number\n"
    assert json.loads(out)["passed"] is False


def test_sweep_reports_line_past_modulus_limit_and_goes_on(capsys, tmp_path):
    # 4099**2 is past 2**24: that line is reported, the others still run,
    # also when --bound spares the default bound's modulus
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 5\n"
                   "1,0,1 4099\n"
                   "1,0,1 3\n")
    for extra in ((), ("--bound", "5")):
        code, out, err = run(capsys, "sweep", "--config", str(cfg), "--r", "2",
                             *extra)
        assert code == 1
        assert err == ("error: config line 2: coverage lists every residue "
                       "mod p**r, and p=4099, r=2 gives p**r = 16801801, "
                       "past 2**24\n")
        payload = json.loads(out)
        assert payload["passed"] is True
        assert [row["p"] for row in payload["results"]] == [5, 3]


def test_sweep_ends_on_value_error_of_a_check(capsys, tmp_path, monkeypatch):
    # only the modulus refusal is a line's fault; any other ValueError of a
    # cross-check ends the sweep, as it ends every command
    import qform.oracle as oracle_mod

    def broken(f, p):
        raise ValueError("unit cofactor must be 1 mod 8")

    monkeypatch.setattr(oracle_mod, "decide", broken)
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 5\n"
                   "1,0,1 3\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--r", "2")
    assert (code, out) == (1, "")
    assert err == "error: unit cofactor must be 1 mod 8\n"


def test_sweep_reports_internal_failure(capsys, tmp_path, monkeypatch):
    # forge a disagreement: make the decider claim density for everything
    import qform.oracle as oracle_mod

    class FakeVerdict:
        dense = True
        theorem_tag = "isotropic-nonsingular"

    monkeypatch.setattr(oracle_mod, "decide", lambda f, p: FakeVerdict())
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 3\n")
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--r", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["results"][0]["discrepancies"] == [3, 6]


def test_usage_errors(capsys):
    cases = [
        ("decide", "--form", "2,0,4", "--prime", "5"),       # not primitive
        ("decide", "--form", "1,2,1", "--prime", "5"),       # singular
        ("decide", "--form", "1,0,1", "--prime", "6"),       # composite p
        ("decide", "--form", "nonsense", "--prime", "5"),
        ("decide", "--prime", "5"),                          # no form at all
        ("decide", "--form", "1,0,1", "--rank", "2",
         "--prime", "5"),                                    # form given twice
        ("witness", "--form", "1,0,1", "--prime", "5",
         "--target", "x"),
        ("witness", "--form", "1,0,1", "--prime", "5",
         "--target", "1/0"),
        ("oracle", "--form", "1,0,1", "--prime", "3", "--r", "0"),
        ("sweep", "--config", "/nonexistent/path.cfg"),
        # argparse drops the value of "--name=--"
        ("decide", "--form", "1,0,1", "--prime=--"),
        ("witness", "--form", "1,0,1", "--prime", "5", "--target=--"),
        ("sweep", "--config=--"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.strip(), argv


def test_usage_error_names_the_problem(capsys):
    code, _, err = run(capsys, "decide", "--form", "2,0,4", "--prime", "5")
    assert "primitive" in err
    code, _, err = run(capsys, "decide", "--form", "1,2,1", "--prime", "5")
    assert "nonsingular" in err or "singular" in err
    code, _, err = run(capsys, "decide", "--form", "1,0,1", "--prime", "6")
    assert "prime" in err
    # a missing value is reported, not filled with the next option
    code, _, err = run(capsys, "witness", "--form", "--prime", "5")
    assert code == 1 and "--form" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    import qform.cli as cli_mod
    from qform.errors import InternalConsistencyError

    def boom(f, p):
        raise InternalConsistencyError("forced for the test")

    monkeypatch.setattr(cli_mod, "decide", boom)
    code, _, err = run(capsys, "decide", "--form", "1,0,1", "--prime", "5")
    assert code == 2
    assert "internal" in err.lower()


def test_out_of_memory_exit_code(capsys, monkeypatch):
    import qform.cli as cli_mod

    # numpy's allocation failure names the size; a bare MemoryError is empty
    for text, shown in [("Unable to allocate 768. MiB for an array",
                         "Unable to allocate 768. MiB for an array"),
                        ("", "allocation failed")]:
        def exhausted(*args):
            raise MemoryError(text)

        monkeypatch.setattr(cli_mod, "coverage", exhausted)
        code, out, err = run(capsys, "oracle", "--form", "1,0,1", "--prime",
                             "7", "--r", "4")
        assert (code, out) == (1, "")
        assert err == f"error: out of memory: {shown}\n"


@pytest.mark.parametrize("argv, budget_env, message", [
    (("decide", "--coeffs", "1,0,1", "--prime", "5"), None,
     "--coeffs needs --rank"),
    (("witness", "--form", "1,0,1", "--prime", "5", "--target", "3"), "abc",
     "QFORM_MAX_BUDGET must be an integer"),
    (("witness", "--rank", "1", "--coeffs", "-1", "--prime", "3"), None,
     "exclusion certificates are built for binary forms; this form is not "
     "dense but has rank 1"),
    (("decide", "--form", "1,0,1", "--prime", "3317044064679887385961981"),
     None, "3317044064679887385961981 is beyond the deterministic primality "
     "range"),
])
def test_usage_error_exact_message(capsys, monkeypatch, argv, budget_env,
                                   message):
    if budget_env is not None:
        monkeypatch.setenv("QFORM_MAX_BUDGET", budget_env)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_sweep_line_without_prime(capsys, tmp_path):
    # the line is reported with its number and the other lines still run
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1\n"
                   "1,0,1 5\n"
                   "1,0,1 3\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--r", "2")
    assert code == 1
    assert err == "error: config line 1: expected '<form> <prime>', got '1,0,1'\n"
    assert [row["p"] for row in json.loads(out)["results"]] == [5, 3]


def test_cli_builds_each_rendering_once(capsys, monkeypatch):
    # PathNodes built per call: the JSON's path once, --plain decide none,
    # explain's lines once
    decide_mod = importlib.import_module("qform.decide")
    real, built = decide_mod.PathNode, []

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(decide_mod, "PathNode", counted)
    counts = []
    for command, plain in itertools.product(("decide", "explain"),
                                            ((), ("--plain",))):
        built.clear()
        code, out, err = run(capsys, command, "--form", "1,0,-9", "--prime",
                             "3", *plain)
        assert (code, err) == (0, "") and out
        counts.append(len(built))
    assert counts == [6, 0, 6, 6]


def test_plain_output_builds_no_json(capsys, tmp_path, monkeypatch):
    # with --plain neither the verdict's path nor a report's JSON is built
    import qform.oracle as oracle_mod
    decide_mod = importlib.import_module("qform.decide")

    def unusable(*args):
        raise AssertionError("built for output that is not printed")

    monkeypatch.setattr(decide_mod, "PathNode", unusable)
    code, out, err = run(capsys, "decide", "--form", "1,0,-9", "--prime", "3",
                         "--plain")
    assert (code, err) == (0, "") and "leaf:    odd-singular-residue" in out
    monkeypatch.setattr(oracle_mod.CrossCheckReport, "to_json_dict", unusable)
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 5\n1,0,1 3\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg), "--plain")
    assert (code, err) == (0, "") and out.endswith("all passed\n")


def test_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    # nothing carries over from one call to the next
    argv = ("oracle", "--form", "1,0,1", "--prime", "3")
    assert run_json(capsys, *argv, "--bound", "3")["report"]["bound"] == 3
    assert run_json(capsys, *argv)["report"]["bound"] == 30
    argv = ("witness", "--form", "1,0,1", "--prime", "3")
    code, out, _ = run(capsys, *argv, "--plain")
    assert code == 0 and out.startswith("target: 3/1\nradius_exp: 1\n")
    assert run_json(capsys, *argv)["certificate"]["target"] == "3/1"


# fuzzed argv: forms of rank 1 or 2 only (no value has six coefficients),
# every --bound at most 60 and every prime below 10**6, so that no call
# enumerates a large box
_FUZZ_OPTIONS = ("--form", "--rank", "--coeffs", "--prime", "--plain",
                 "--target", "--r", "--bound", "--config", "--help")
_small_ints = st.integers(-3, 60).map(str)
_forms = st.tuples(*[st.integers(-9, 9)] * 3).map(
    lambda c: ",".join(map(str, c)))
_rationals = st.tuples(st.integers(-99, 99), st.integers(-9, 30)).map(
    lambda t: f"{t[0]}/{t[1]}")
_junk = st.sampled_from(["", " ", "x", "1,2", "1,,2", "2;", "2; 1,0,1",
                         "nan", "inf", "1e3", "0x1f", "--", "-", "-x",
                         "1/2/3", "decide", "explain", "witness", "=",
                         "\u0663", "1,0,1,0"])
_values = st.one_of(_small_ints, _forms, _rationals, _junk)
_primes = st.sampled_from([2, 3, 5, 7, 11, 13, 353, 1019, 65537, 999983,
                           999981, 1, 0, -7]).map(str)
# a request that is often well formed: a form and a prime, some of the
# other options, in any order
_request = st.fixed_dictionaries(
    {"--form": _forms, "--prime": _primes},
    optional={"--target": _rationals, "--r": st.integers(-1, 12).map(str),
              "--bound": st.integers(-1, 60).map(str)},
).flatmap(lambda d: st.permutations(list(d.items())))
# noise: a prime appears only right after --prime, so it can never be read
# as a --bound or an --r
_option = st.sampled_from(_FUZZ_OPTIONS)
_noise = st.one_of(
    st.tuples(_option, _values),
    _option.map(lambda o: (o,)),
    _values.map(lambda v: (v,)),
    _primes.map(lambda v: ("--prime", v)),
    st.tuples(_option, _values).map(lambda t: (f"{t[0]}={t[1]}",)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["decide", "explain", "witness"]),
       st.one_of(_request, st.just([])),
       st.one_of(st.just([]), st.lists(_noise, max_size=4)), st.booleans())
def test_fuzzed_argv_exits_cleanly(command, request, noise, noise_first):
    chunks = noise + request if noise_first else request + noise
    argv = [command] + [token for chunk in chunks for token in chunk]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 0 and "--help" in argv, argv
            return
    assert code in (0, 1, 2), argv


def parse_outcome(parse, argv):
    """What parse(argv) gives: the namespace, a usage error or an exit."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            return "parsed", vars(parse(argv))
        except UsageError as exc:
            return "usage", str(exc)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(["decide", "explain", "witness", "oracle",
                                  "sweep", "-h", "--help", "bogus", "--form"]
                                 ).map(lambda c: [c]), st.just([])),
       st.one_of(_request, st.just([])),
       st.one_of(st.just([]), st.lists(_noise, max_size=4)), st.booleans())
def test_dispatch_parses_as_the_top_level_parser(command, request, noise,
                                                 noise_first):
    # _read takes a well-formed request and argparse every other argv (help,
    # an abbreviation, a repeated option, no command or an unknown one);
    # either way the outcome is what argparse alone gives
    chunks = noise + request if noise_first else request + noise
    argv = _attach_signed_values(
        command + [token for chunk in chunks for token in chunk])
    assert parse_outcome(_parse, argv) == \
        parse_outcome(build_parser().parse_args, argv), argv


@pytest.mark.parametrize("argv", [
    ["decide", "--form", "1,0,1", "--prime", "5"],
    ["explain", "--prime=7", "--rank", "3", "--coeffs=1,0,0,1,0,1", "--plain"],
    ["witness", "--form=-11,11,-4", "--prime", "3", "--target=-51/5",
     "--r", "2", "--bound", "9"],
    ["oracle", "--form", "1,0,1", "--prime", "3", "--r=2", "--bound", "90"],
    ["sweep", "--config", "forms.cfg", "--plain", "--r", "3"],
    ["decide", "--form", "1,0,1", "--prime", "5", "--prime", "7"],  # twice
    ["decide", "--plain", "--plain", "--form", "1,0,1", "--prime", "5"],
    ["decide", "--form", "1,0,1", "--pri", "5"],         # abbreviation
    ["decide", "--form", "1,0,1", "--r", "3", "--prime", "5"],  # --rank
    ["decide", "--form", "1,0,1", "--prime", "-7"],      # a negative number
    ["decide", "--form", "1,0,1", "--prime", "5", "--plain=1"],
    ["decide", "--form", "1,0,1", "--prime", "5", "--plain="],
    ["decide", "--form=", "--prime", "5"],
    ["decide", "--form", "", "--prime", "5"],
    ["decide", "--form", "1,0,1", "--prime=--"], ["sweep", "--config=--"],
    ["decide", "--form", "1,0,1", "--prime="],
    ["decide", "--form", "1,0,1", "--prime"],            # no value
    ["decide", "--form", "--prime", "5"], ["decide", "--prime", "5", "--form"],
    ["decide", "--prime", "5", "--form", "--plain"],
    ["decide", "--form", "1,0,1", "--prime", "5", "--"],
    ["decide", "-h"], ["witness", "--help"], ["-h"], ["--help"],
    ["decide", "--form", "1,0,1", "--prime", "5", "--nope", "1"],
    ["decide", "1,0,1", "--prime", "5"],                 # bare positional
    ["witness", "--form", "1,0,1", "--prime", "5", "--r", "1_0"],
    ["witness", "--form", "1,0,1", "--prime", "5", "--r", "\u0663"],
    ["witness", "--form", "1,0,1", "--prime", "5", "--r", "x"],
    ["decide", "--form", "1,0,1"],                       # no --prime
    ["sweep", "--r", "2"],                               # no --config
    ["oracle", "--form", "1,0,1", "--prime", "3", "--target", "2"],
    ["bogus", "--prime", "5"], ["--form", "1,0,1"], [],
])
def test_reader_parses_as_argparse(argv):
    # well-formed requests go to _read, the rest to argparse: same outcome
    assert parse_outcome(_parse, argv) == \
        parse_outcome(build_parser().parse_args, argv)


def test_well_formed_requests_need_no_argparse(capsys, tmp_path, monkeypatch):
    # with build_parser unusable, every command still runs: _read took them
    import qform.cli as cli_mod

    def unusable():
        raise AssertionError("argparse used for a well-formed request")

    monkeypatch.setattr(cli_mod, "build_parser", unusable)
    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 5\n1,0,1 3\n")
    requests = [
        ("decide", "--form", "1,0,1", "--prime", "5"),
        ("explain", "--rank", "3", "--coeffs", "1,0,0,1,0,1", "--prime=7",
         "--plain"),
        ("witness", "--form", "-11,11,-4", "--prime", "3", "--bound", "9"),
        ("witness", "--form=1,0,1", "--prime", "5", "--target", "-51/5",
         "--r=2"),
        ("oracle", "--form", "1,0,1", "--prime", "3", "--r", "2"),
        ("sweep", "--plain", "--config", str(cfg), "--bound", "40")]
    for argv in requests:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out, argv
    with pytest.raises(AssertionError, match="argparse used"):
        main(["decide", "--form", "1,0,1", "--pri", "5"])


# text with the characters json escapes: quotes, backslashes, control
# characters and non-ASCII (a surrogate pair past U+FFFF), in keys and values
_json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                              "\u00e9\u2028\u20ac\U0001f600"),
                               st.characters()), max_size=6)


class _LoudInt(int):
    # an int subclass with its own text: json writes int.__repr__ of it
    def __repr__(self):
        return "loud"

    __str__ = __repr__


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_text
    | st.integers().map(_LoudInt)
    | st.builds(lambda digits, sign: sign * (10 ** digits + 7),
                st.integers(4290, 4400), st.sampled_from((1, -1))),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_indented_writes_the_bytes_of_json_dumps(value):
    # the CLI's writer against json's own indent-2 output; huge ints print
    # with the digit cap lifted, as the CLI prints them
    cap = digit_cap()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        assert _indented(value) == json.dumps(value, indent=2)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


@pytest.mark.skipif(not digit_cap(), reason="this Python has no digit cap")
@pytest.mark.parametrize("value", [10 ** 4300, [3, -10 ** 4400],
                                   [1, {"k": -10 ** 4400}]],
                         ids=["int", "int-list", "nested"])
def test_indented_keeps_the_digit_cap_error(value):
    # past the default cap both raise json's ValueError, which
    # padic.uncapped_text retries with the cap lifted
    cap = digit_cap()
    sys.set_int_max_str_digits(4300)
    try:
        for write in (_indented, lambda v: json.dumps(v, indent=2)):
            with pytest.raises(ValueError, match="4300"):
                write(value)
    finally:
        sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize("value", [{1: 2}, {"a": object()}, [{1, 2}],
                                   {"a": [b"x"]}, Fraction(1, 3)])
def test_indented_refuses_what_it_cannot_write(value):
    # a value json cannot write, or a key that is not a str, raises TypeError
    # rather than printing bytes that json would not print
    with pytest.raises(TypeError):
        _indented(value)


def test_json_output_needs_no_pure_python_encoder(capsys, tmp_path,
                                                  monkeypatch):
    # json's pure-Python encoder, which any indent selects, is never used,
    # and every command prints exactly json.dumps(payload, indent=2)
    def unusable(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder used")

    cfg = tmp_path / "forms.cfg"
    cfg.write_text("1,0,1 5\n1,0,1 3\n")
    requests = [
        ("decide", "--form", "1,0,-9", "--prime", "3"),
        ("explain", "--rank", "3", "--coeffs", "1,0,0,1,0,1", "--prime", "7"),
        ("witness", "--form=1,0,1", "--prime", "5", "--target=-51/5",
         "--r", "2"),
        ("witness", "--form", "-11,11,-4", "--prime", "3", "--bound", "9"),
        ("oracle", "--form", "1,0,3", "--prime", "3", "--r", "2"),
        ("sweep", "--config", str(cfg), "--bound", "40")]
    monkeypatch.setattr(json.encoder, "_make_iterencode", unusable)
    outputs = [run(capsys, *argv) for argv in requests]
    monkeypatch.undo()
    for argv, (code, out, err) in zip(requests, outputs):
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def fresh_python(code: str) -> str:
    """Stdout of code run in a new interpreter that imports this qform."""
    env = dict(os.environ, PYTHONPATH=str(Path(qform.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


_COLD_STEPS = [
    "decide --form 1,0,1 --prime 5",
    "explain --form 1,0,1 --prime 5 --plain",
    "witness --form 1,0,1 --prime 5 --target 3 --r 4",
    "witness --form 2,1,1 --prime 2 --target 3 --r 5",
    "witness --form 1,0,-9 --prime 3 --target 2 --r 2",
    "oracle --form 1,0,1 --prime 3 --r 2",
]


def test_numpy_loads_on_first_enumeration():
    # decide, explain and rank-2 lifts are integer arithmetic: a cold process
    # runs them without numpy, and the first oracle call loads it
    steps = json.loads(fresh_python(f"""
import io, json, sys
from contextlib import redirect_stdout
import qform, qform.cli
steps = [["import", "numpy" in sys.modules]]
for argv in {_COLD_STEPS!r}:
    with redirect_stdout(io.StringIO()) as out:
        code = qform.cli.main(argv.split())
    steps.append([argv, "numpy" in sys.modules, code, out.getvalue()])
print(json.dumps(steps))
"""))
    assert [step[:2] for step in steps] == \
        [["import", False]] + [[argv, argv.startswith("oracle")]
                               for argv in _COLD_STEPS]
    assert all(step[2] == 0 for step in steps[1:]), steps
    strategies = [json.loads(step[3])["witness"]["strategy"]
                  for step in steps if step[0].startswith("witness")]
    assert strategies == ["lift", "lift", "reduce-lift"]


def argparse_after(requests: list[str]) -> list:
    """[exit code, argparse loaded] after each request, in one new process."""
    return json.loads(fresh_python(f"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import qform.cli
steps = []
for argv in {requests!r}:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = qform.cli.main(argv.split())
        except SystemExit as exc:
            code = exc.code
    steps.append([code, "argparse" in sys.modules])
print(json.dumps(steps))
"""))


def test_argparse_loads_only_for_help_and_usage_errors():
    # a cold process runs well-formed requests without importing argparse;
    # --help or a usage error loads it
    assert argparse_after(_COLD_STEPS) == [[0, False]] * len(_COLD_STEPS)
    assert argparse_after(["witness --help"]) == [[0, True]]
    assert argparse_after(["decide --prime 5 --pri 5"]) == [[1, True]]


@pytest.mark.parametrize("call", [
    "coverage(BinaryForm(1, 0, 1), Prime(3), 2, 30)",
    "cross_check(BinaryForm(1, 0, 1), Prime(5), 2, 50)",
    "exclusion_certificate(BinaryForm(1, 0, 1), Prime(3))",
    "approximate_quotient(GeneralForm(3, (1, 0, 0, 1, 0, -3)), Prime(3),"
    " 5, 1, 2)",
])
def test_first_numpy_use_matches_in_process(call):
    # each call is the first to touch oracle.np in its process: the stand-in
    # must load numpy there and give the same record as a warm process
    got = fresh_python(f"""
import json, sys
from qform import *
assert "numpy" not in sys.modules
record = {call}.to_json_dict()
assert "numpy" in sys.modules
print(json.dumps(record))
""")
    exports = {name: getattr(qform, name) for name in qform.__all__}
    want = eval(call, exports).to_json_dict()
    assert json.loads(got) == json.loads(json.dumps(want))


_LAZY_EXPORTS = {
    "oracle": ["CoverageReport", "CrossCheckReport", "coverage", "cross_check",
               "excluded_classes"],
    "witness": ["ExclusionCertificate", "Witness", "approximate_quotient",
                "exclusion_certificate", "lift_representation",
                "lift_representation_two", "quotient_error_valuation"]}


def test_import_loads_only_the_deciders():
    # import qform loads decide, forms, padic and errors, and a caller that
    # only decides (README's first Library example) loads nothing more, not
    # even dataclasses; the oracle and witness exports load on first use
    # (PEP 562) and are then the very objects of their modules, with
    # qform.decide still the function
    got = json.loads(fresh_python(f"""
import json, sys, types
import qform
def loaded():
    return [m for m in ("qform.oracle", "qform.witness", "numpy", "dataclasses")
            if m in sys.modules]
facts = {{"import": loaded()}}
for f in (qform.BinaryForm(1, 0, 1), qform.GeneralForm(3, (1, 0, 0, 1, 0, 1))):
    for p in (2, 3, 5, 13):
        qform.decide(f, qform.Prime(p)).to_json_dict()
facts |= {{"decided": loaded(),
          "lazy": sorted(set(qform.__all__) - set(vars(qform))),
          "dir": sorted(set(qform.__all__) - set(dir(qform)))}}
try:
    qform.no_such_name
except AttributeError as exc:
    facts["unknown"] = [type(exc).__name__, str(exc), exc.name]
qform.coverage
facts["first_oracle_name"] = loaded()
modules = {{m: getattr(qform, m) for m in {sorted(_LAZY_EXPORTS)!r}}}
facts["same"] = [m + "." + name for m, names in {_LAZY_EXPORTS!r}.items()
                 for name in names
                 if getattr(qform, name) is getattr(modules[m], name)]
facts["submodules"] = [m for m, mod in modules.items()
                       if mod is sys.modules["qform." + m]]
facts["kept"] = sorted(set(qform.__all__) - set(vars(qform)))
facts["decide"] = isinstance(qform.decide, types.FunctionType)
facts["after"] = loaded()
import dataclasses, qform.cli
facts["dataclasses"] = sorted(
    value.__qualname__ for name, module in sys.modules.items()
    if name.split(".")[0] == "qform" for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == name
    and dataclasses.is_dataclass(value))
print(json.dumps(facts))
"""))
    lazy = sorted(name for names in _LAZY_EXPORTS.values() for name in names)
    assert got == {
        "import": [], "decided": [], "lazy": lazy, "dir": [],
        "unknown": ["AttributeError",
                    "module 'qform' has no attribute 'no_such_name'",
                    "no_such_name"],
        "first_oracle_name": ["qform.oracle", "dataclasses"],
        "same": [f"{m}.{name}" for m, names in _LAZY_EXPORTS.items()
                 for name in names],
        "submodules": ["oracle", "witness"], "kept": [], "decide": True,
        "after": ["qform.oracle", "qform.witness", "dataclasses"],
        # the two oracle reports stay dataclasses until the benchmark stops
        # calling dataclasses.replace on them (ROADMAP item 11)
        "dataclasses": ["CoverageReport", "CrossCheckReport"]}


def test_lazy_entry_missing_from_its_module_raises(monkeypatch):
    # a table entry that its submodule lacks fails loudly, never as the module
    monkeypatch.setitem(qform._LAZY, "no_such_export", "oracle")
    with pytest.raises(AttributeError, match="'qform.oracle' has no attribute"):
        qform.no_such_export
    assert "no_such_export" not in vars(qform)


def test_cli_import_still_loads_oracle_and_witness():
    # the benchmark reads qform.oracle and qform.witness from sys.modules
    # right after import qform.cli
    got = fresh_python("""
import sys
import qform.cli
print("qform.oracle" in sys.modules, "qform.witness" in sys.modules)
""")
    assert got.split() == ["True", "True"]


@pytest.mark.parametrize("form", [["--form", "1,0,1"],
                                  ["--rank", "3", "--coeffs", "1,0,0,1,0,1"]])
def test_huge_r_witness_is_refused_quickly(capsys, form):
    # the working precision is checked in bits before any lift or search
    start = time.perf_counter()
    code, out, err = run(capsys, "witness", *form, "--prime", "5",
                         "--target", "3", "--r", str(10 ** 6))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == ("error: r = 1000000 at p = 5 needs precision 1000000: "
                   "3000000 bits, past the limit of 262144 bits\n")

"""Command line front end.

Exit codes: 0 success, 1 bad input, an exhausted search budget or running out
of memory, 2 internal consistency failure (the deciders disagree with each
other or with the oracle), which always means a bug rather than bad input.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .decide import decide
from .errors import BudgetExceededError, InternalConsistencyError
from .forms import format_form, parse_form
from .oracle import (COVERAGE_BOUND_FACTOR, coverage, coverage_modulus,
                     cross_check)
from .padic import Prime, uncapped_text
from .witness import DEFAULT_BUDGET, approximate_quotient, exclusion_certificate

MAX_BUDGET_ENV = "QFORM_MAX_BUDGET"
_escape = json.encoder.encode_basestring_ascii


class UsageError(Exception):
    """Bad command line input; reported on stderr with exit code 1."""


# options whose values may start with "-": a negative coefficient or target
_SIGNED_OPTIONS = ("--form", "--coeffs", "--target")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--form -1,0,1" as "--form=-1,0,1".

    _read and argparse take a separate value that starts with "-" for an option.
    A following "--name" stays an option, so a missing value is still reported.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _form_and_prime(args):
    """The form, then the Prime, that _FORM_OPTIONS give."""
    if args.form is not None:
        if args.rank is not None or args.coeffs is not None:
            raise UsageError("give either --form or --rank with --coeffs")
        text = args.form
    elif args.coeffs is not None:
        if args.rank is None:
            raise UsageError("--coeffs needs --rank")
        text = f"{args.rank}; {args.coeffs}"
    else:
        raise UsageError("a form is required: --form or --rank with --coeffs")
    return parse_form(text), Prime(args.prime)


def _indented(obj, pad="\n") -> str:
    """json.dumps(obj, indent=2) byte for byte, without the pure-Python encoder
    json runs for any indent. Dict keys other than str raise TypeError."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        return "{" + inner + ("," + inner).join([
            _escape(key) + ": " + _indented(value, inner)
            for key, value in obj.items()]) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join([
            _indented(item, inner) for item in obj]) + pad + "]"
    return json.dumps(obj)  # {}, [], a float; json's TypeError otherwise


def _emit(args, payload, plain) -> None:
    """Print the JSON of payload(), or with --plain the text plain(): only
    the one printed is built. Both print past Python's int-to-text digit cap
    (a witness at a large --r); parsing keeps it."""
    print(uncapped_text(plain) if args.plain else
          uncapped_text(_indented, payload()))


def _emit_record(args, head: dict, key: str, record: dict) -> None:
    """JSON of head with record under key; plain text is one "key: value"
    line per field of record."""
    _emit(args, lambda: {**head, key: record},
          lambda: "\n".join(f"{name}: {value}" for name, value in record.items()))


def _cmd_decide(args) -> int:
    """decide and explain: the same JSON, different plain text."""
    f, p = _form_and_prime(args)
    verdict = decide(f, p)

    def explain():
        return "\n".join([f"{format_form(f)} at p = {int(p)}"] + [
            "  " * depth + (f"=> {node.answer}  [{node.node}]"
                            if node.question == "conclusion"
                            else f"{node.question}  {node.answer}")
            for depth, node in enumerate(verdict.path, start=1)])

    def summary():
        fact = verdict.factorization
        return "\n".join([f"form:    {format_form(f)}", f"prime:   {int(p)}",
                          f"dense:   {'yes' if verdict.dense else 'no'}",
                          f"leaf:    {verdict.theorem_tag}"]
                         + ([f"k, ell:  {fact.k}, {fact.ell}"] if fact else []))

    _emit(args, lambda: {"form": format_form(f), "prime": int(p),
                         "verdict": verdict.to_json_dict()},
          explain if args.command == "explain" else summary)
    return 0


def _parse_target(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid target {text!r}: {exc}") from exc


def _witness_budget(args) -> int:
    """The witness search box and the certificate check box: --bound, else
    DEFAULT_BUDGET, at most the environment's cap."""
    budget = args.bound if args.bound is not None else DEFAULT_BUDGET
    try:
        cap = int(os.environ.get(MAX_BUDGET_ENV, budget))
    except ValueError as exc:
        raise UsageError(f"{MAX_BUDGET_ENV} must be an integer") from exc
    if cap < 1:
        raise UsageError(f"{MAX_BUDGET_ENV} must be at least 1")
    return min(budget, cap)


def _coverage_bound(args, p: Prime) -> int:
    """The oracle box: --bound, else COVERAGE_BOUND_FACTOR * p**r. p**r past
    the modulus limit is a UsageError, the fault of a sweep's line, unless
    p = 2 is past it too: then no line can run, and the ValueError ends it."""
    try:
        modulus = coverage_modulus(int(p), args.r)
    except ValueError as exc:
        try:
            coverage_modulus(2, args.r)
        except ValueError:
            raise exc from None
        raise UsageError(str(exc)) from None
    return COVERAGE_BOUND_FACTOR * modulus if args.bound is None else args.bound


def _cmd_witness(args) -> int:
    f, p = _form_and_prime(args)
    budget = _witness_budget(args)
    verdict = decide(f, p)
    if verdict.dense:
        if args.target is None:
            raise UsageError("the quotient set is dense; give a --target "
                             "to approximate")
        target = _parse_target(args.target)
        key, evidence = "witness", approximate_quotient(
            f, p, target.numerator, target.denominator, args.r, budget=budget)
    else:
        key, evidence = "certificate", exclusion_certificate(
            f, p, verify_bound=budget)
    _emit_record(args, {"form": format_form(f), "prime": int(p),
                        "dense": verdict.dense}, key, evidence.to_json_dict())
    return 0


def _cmd_oracle(args) -> int:
    f, p = _form_and_prime(args)
    report = coverage(f, p, args.r, _coverage_bound(args, p))
    _emit_record(args, {"form": format_form(f), "prime": int(p)}, "report",
                 report.to_json_dict())
    return 0


def _parse_sweep_line(line: str):
    parts = line.rsplit(None, 1)
    if len(parts) != 2:
        raise UsageError(f"expected '<form> <prime>', got {line!r}")
    try:
        p = Prime(int(parts[1]))
        return parse_form(parts[0]), p
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            raw = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    results, bad_lines = [], False
    for lineno, line in enumerate(raw, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            f, p = _parse_sweep_line(line)
            bound = _coverage_bound(args, p)
        except UsageError as exc:
            # a bad line, or one past the modulus limit: report it, go on
            print(f"error: config line {lineno}: {exc}", file=sys.stderr)
            bad_lines = True
            continue
        results.append(cross_check(f, p, args.r, bound))
    all_passed = all(rep.passed for rep in results)

    def table():
        return "\n".join([f"{'form':<24} {'p':>3} {'r':>2} {'bound':>6} "
                          f"{'dense':<5} {'leaf':<28} pass"] + [
            f"{rep.form_text:<24} {rep.p:>3} {rep.r:>2} {rep.bound:>6} "
            f"{'yes' if rep.dense else 'no':<5} {rep.theorem_tag:<28} "
            f"{'ok' if rep.passed else 'FAIL'}" for rep in results]
            + ["all passed" if all_passed else "CROSS-CHECK FAILED"])

    _emit(args, lambda: {"passed": all_passed,
                         "results": [rep.to_json_dict() for rep in results]},
          table)
    # a failed cross-check is a bug and outranks a bad line
    return 2 if not all_passed else int(bad_lines)


# each command's help, function and options; an option maps to (type,
# default, help), where type bool marks a flag and default ... a required one
_FORM_OPTIONS = {
    "--form": (str, None, 'binary form "a,b,c" or general form "rank; coeffs"'),
    "--rank": (int, None, "rank when giving bare --coeffs"),
    "--coeffs": (str, None,
                 "comma separated coefficients, upper triangle by rows"),
    "--prime": (int, ..., None),
    "--plain": (bool, False, "human readable text instead of JSON")}
_BOX = f"coordinate box, default {COVERAGE_BOUND_FACTOR} * p**r"
_COMMANDS = {
    "decide": ("dense or not, with both routes", _cmd_decide, _FORM_OPTIONS),
    "explain": ("decision path as question/answer lines", _cmd_decide,
                _FORM_OPTIONS),
    "witness": ("point pair approximating --target, or an exclusion "
                "certificate", _cmd_witness, {
        **_FORM_OPTIONS,
        "--target": (str, None, "rational number, e.g. 7 or 3/5"),
        "--r": (int, 1, "required p-adic closeness exponent"),
        "--bound": (int, None, f"search budget / certificate check bound, "
                    f"default {DEFAULT_BUDGET}, capped by {MAX_BUDGET_ENV}")}),
    "oracle": ("brute force residue coverage report", _cmd_oracle, {
        **_FORM_OPTIONS, "--r": (int, 1, None), "--bound": (int, None, _BOX)}),
    "sweep": ("cross-check decider against oracle over a config file",
              _cmd_sweep, {
        "--config": (str, ..., 'file of lines "a,b,c p" or "rank; coeffs p"'),
        "--r": (int, 2, None), "--bound": (int, None, _BOX + " per line"),
        "--plain": (bool, False, None)})}


@functools.cache
def build_parser():
    """The argparse parser of _COMMANDS, built on first use and then shared,
    so callers must not change it. _read takes every well-formed request:
    argparse runs only for help and usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="qform", description="Density of quadratic form "
                    "quotient sets in the p-adic numbers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=summary)
        for option, (kind, default, text) in options.items():
            if kind is bool:
                cmd.add_argument(option, action="store_true", help=text)
            elif default is ...:
                cmd.add_argument(option, type=kind, required=True, help=text)
            else:
                cmd.add_argument(option, type=kind, default=default, help=text)
        cmd.set_defaults(func=func)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """build_parser()'s namespace for a well-formed request: a command, then
    its exact options, each at most once and every required one given; a
    flag without "=", a value after "=" (not "--") or as the next token (not
    starting with "-"), converted by the option's type. Else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        kind = options[option][0] if option in options else None
        if not kind or option in given or eq and (kind is bool or value == "--"):
            return None
        if not (eq or kind is bool) and (value := next(tokens, "-"))[:1] == "-":
            return None
        try:
            given[option] = True if kind is bool else kind(value)
        except ValueError:
            return None
    values = {option[2:]: given.get(option, default)
              for option, (_, default, _) in options.items()}
    return None if ... in values.values() else SimpleNamespace(
        command=argv[0], func=func, **values)


def _parse(argv: list[str]):
    """_read(argv), else build_parser().parse_args(argv): argparse runs only
    for help and usage errors."""
    return _read(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(_attach_signed_values(
            sys.argv[1:] if argv is None else list(argv)))
        # argparse drops the value "--" of "--name=--" and stores a list
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise UsageError(f"argument --{name}: expected one argument")
        if getattr(args, "r", 1) < 1:
            raise UsageError("--r must be at least 1")
        if getattr(args, "bound", None) is not None and args.bound < 1:
            raise UsageError("--bound must be at least 1")
        return args.func(args)
    except (UsageError, BudgetExceededError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

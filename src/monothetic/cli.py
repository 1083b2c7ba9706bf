"""Command-line surface.

Every subcommand emits deterministic JSON on stdout (rationals as "p/q"
strings).  Exit codes: 0 success / suites pass, 1 suite violation or failed
infeasibility hypothesis, 2 usage or input error, 3 table too shallow (the
required depth is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from decimal import Decimal

from .construction import build_anchor_table, k_power
from .counterexample import counterexample_certificate, counterexample_scan, worst_case_value
from .errors import DomainError, ExtendTableError, HypothesisNotMetError
from .evaluator import DEFAULT_EPSILON, density_witness, evaluate
from .rat import format_fraction, parse_fraction
from .serialize import (
    contradiction_to_json,
    density_witness_to_json,
    descriptor_from_json,
    dumps_stable,
    eval_result_to_json,
    ext_element_from_json,
    load_table,
    norm_spec_from_json,
    parse_json,
    save_table,
    scan_summary_to_json,
    suite_report_to_json,
)
from .verification import (
    ALL_SUITES,
    verify_density,
    verify_extension,
    verify_norm_axioms,
    verify_truncation,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_EXTEND = 3


# The truncation suite takes about 0.3-0.5 s at this many samples on a
# depth-50 Z^2 table, the extension suite 0.05-0.12 s and the axioms suite
# 0.02-0.04 s (seeds 0, 42 and 1234, three runs each on a fresh table,
# in-process, Python 3.11, 2 noisy vCPUs); larger requests are refused
# before any work starts.
MAX_SAMPLES = 20_000


def certificate_digits() -> int:
    """The most digits counterexample's --n, --m and the parts of --v1 and --v2 may have.

    With at most D digits in each, the required norm has at most D + 1
    digits, the implied bound's numerator 3D + 1 and denominator 2D, and the
    margin's numerator at most 3D + 2.  So 3D + 2 must not pass the
    interpreter's int-to-string limit, read when the command runs: D = 1432
    at CPython's default 4300 digits, 212 under ``PYTHONINTMAXSTRDIGITS=640``.
    With the limit off (0) the default's cap stays, as a bound on the work.
    Larger inputs are refused before any work starts.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    return (limit - 2) // 3


@contextlib.contextmanager
def _writing(path):
    """Report a path that cannot be written as a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _require_positive(*options: tuple[str, int]) -> None:
    """Refuse a count or index option below 1 before the table is loaded."""
    for flag, value in options:
        if value < 1:
            raise DomainError(f"{flag} must be >= 1, got {value}")


def _cmd_build(args) -> int:
    descriptor = descriptor_from_json(parse_json(args.group, "--group"))
    spec = norm_spec_from_json(parse_json(args.norm, "--norm"))
    table = build_anchor_table(descriptor, spec, args.depth)
    with _writing(args.out):
        save_table(table, args.out)
    print(dumps_stable({
        "table": str(args.out),
        "depth": table.depth,
        "k_last": Decimal(k_power(table.depth)),
    }))
    return EXIT_OK


def _cmd_eval(args) -> int:
    table = load_table(args.table)
    element = ext_element_from_json(table.descriptor, parse_json(args.element, "--element"))
    result = evaluate(table, element, parse_fraction(args.epsilon))
    print(dumps_stable(eval_result_to_json(result)))
    return EXIT_OK


def _cmd_density(args) -> int:
    _require_positive(("--m", args.m), ("--j", args.j))
    table = load_table(args.table)
    witness = density_witness(table, args.m, args.j, parse_fraction(args.epsilon))
    payload = density_witness_to_json(witness)
    payload["power"] = Decimal(payload["power"])
    print(dumps_stable(payload))
    return EXIT_OK if witness.certified else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    _require_positive(("--samples", args.samples), ("--max-m", args.max_m),
                      ("--max-j", args.max_j))
    if args.samples > MAX_SAMPLES:
        raise DomainError(f"--samples must be <= {MAX_SAMPLES}, got {args.samples}")
    table = load_table(args.table)
    epsilon = parse_fraction(args.epsilon)
    wanted = ALL_SUITES if args.suite == "all" else (args.suite,)
    reports = []
    for suite in wanted:
        if suite == "extension":
            reports.append(verify_extension(table, args.samples, args.seed))
        elif suite == "axioms":
            reports.append(verify_norm_axioms(table, args.samples, args.seed, epsilon))
        elif suite == "density":
            reports.append(verify_density(table, args.max_m, args.max_j, epsilon))
        elif suite == "truncation":
            reports.append(verify_truncation(table, args.samples, args.seed))
    print(dumps_stable([suite_report_to_json(r) for r in reports]))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VIOLATION


# A bare JSON word no certificate field can hold: the scan's line template is
# rendered once with it in place of each field that varies, then split around it.
_CELL = Decimal("NaN")
_VARYING = ("implied_bound", "m", "margin", "n", "required_norm")  # in key order


def _line_writer(handle):
    """counterexample_scan's emit: one JSON line per cell, one write per row.

    The first row renders one template, with the fields every certificate of
    a scan shares.  Each class's (head, mid, tail) is built once around it,
    and a cell's line is head, m, mid, n, tail.
    """
    template = []
    pieces = {}

    def emit(n: int, row) -> None:
        if not template:
            payload = contradiction_to_json(row[0])
            payload.update(dict.fromkeys(_VARYING, _CELL))
            template.extend(dumps_stable(payload).split(str(_CELL)))
        before_bound, before_m, before_margin, before_n, before_norm, end = template
        parts = []
        for m, report in enumerate(row, 1):
            cell = pieces.get(report.required_norm)
            if cell is None:
                cell = pieces[report.required_norm] = (
                    before_bound + json.dumps(format_fraction(report.implied_bound)) + before_m,
                    before_margin + json.dumps(format_fraction(report.margin)) + before_n,
                    f"{before_norm}{report.required_norm}{end}\n")
            head, mid, tail = cell
            parts.append(f"{head}{m}{mid}{n}{tail}")
        handle.write("".join(parts))

    return emit


def _cmd_counterexample(args) -> int:
    if args.grid is not None:
        for option in ("n", "m", "v1", "v2"):
            if getattr(args, option) is not None:
                raise DomainError(f"--{option} cannot be combined with --grid")
        if args.out is None:
            summary = counterexample_scan(args.grid)
        else:
            worst_case_value(args.grid)  # a refused grid creates no file
            with _writing(args.out), open(args.out, "w") as handle:
                summary = counterexample_scan(args.grid, _line_writer(handle))
        print(dumps_stable(scan_summary_to_json(summary)))
        return EXIT_OK
    if args.out is not None:
        raise DomainError("--out needs --grid: a single certificate goes to stdout")
    if args.n is None or args.m is None or args.v1 is None or args.v2 is None:
        raise DomainError("single-certificate mode needs --n, --m, --v1, and --v2")
    v1, v2 = parse_fraction(args.v1), parse_fraction(args.v2)
    digits = certificate_digits()
    for option, parts in (("n", [args.n]), ("m", [args.m]),
                          ("v1", v1.as_integer_ratio()), ("v2", v2.as_integer_ratio())):
        if max(map(abs, parts)) >= 10 ** digits:
            raise DomainError(f"--{option} must have at most {digits} digits")
    report = counterexample_certificate(args.n, args.m, v1, v2)
    print(dumps_stable(contradiction_to_json(report)))
    return EXIT_OK


# One parser serves every call in a process: parse_args reads it and fills a
# fresh namespace, so no option value carries over from one call to the next.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monothetic",
        description="Dense-cyclic norm extensions: build tables, evaluate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build and persist an anchor table")
    p_build.add_argument("--group", required=True, help="group descriptor JSON")
    p_build.add_argument("--norm", required=True, help="norm spec JSON")
    p_build.add_argument("--depth", type=int, default=50)
    p_build.add_argument("--out", required=True, help="output table path")
    p_build.set_defaults(handler=_cmd_build)

    p_eval = sub.add_parser("eval", help="certified evaluation of the extended norm")
    p_eval.add_argument("--table", required=True)
    p_eval.add_argument("--element", required=True, help='element JSON {"h": [...], "k": int}')
    p_eval.add_argument("--epsilon", default=format_fraction(DEFAULT_EPSILON))
    p_eval.set_defaults(handler=_cmd_eval)

    p_density = sub.add_parser("density", help="certify one density witness")
    p_density.add_argument("--table", required=True)
    p_density.add_argument("--m", type=int, required=True, help="target enumeration index")
    p_density.add_argument("--j", type=int, required=True, help="precision index")
    p_density.add_argument("--epsilon", default=format_fraction(DEFAULT_EPSILON))
    p_density.set_defaults(handler=_cmd_density)

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--table", required=True)
    p_verify.add_argument("--suite", choices=ALL_SUITES + ("all",), default="all")
    p_verify.add_argument("--samples", type=int, default=500)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--epsilon", default=format_fraction(DEFAULT_EPSILON),
                          help="read by the axioms and density suites only")
    p_verify.add_argument("--max-m", type=int, default=5, dest="max_m")
    p_verify.add_argument("--max-j", type=int, default=5, dest="max_j")
    p_verify.set_defaults(handler=_cmd_verify)

    p_counter = sub.add_parser(
        "counterexample", help="infeasibility certificates for the unbounded norm"
    )
    p_counter.add_argument("--grid", type=int, default=None, help="scan [1,grid]^2")
    p_counter.add_argument("--out", default=None, help="write certificates as JSON lines")
    p_counter.add_argument("--n", type=int, default=None)
    p_counter.add_argument("--m", type=int, default=None)
    p_counter.add_argument("--v1", default=None, help='assumed value "p/q" < 1/2')
    p_counter.add_argument("--v2", default=None, help='assumed value "p/q" < 1/2')
    p_counter.set_defaults(handler=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()   # a reader that has gone away shows here, not at exit
    except BrokenPipeError as exc:
        # As for an --out path that cannot be written.  Python flushes stdout
        # again at exit, so it is pointed at the null device first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except ExtendTableError as exc:
        print(dumps_stable({"error": "extend table", "required_depth": exc.required_depth}))
        return EXIT_EXTEND
    except HypothesisNotMetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:   # DomainError, ShapeError and TableFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

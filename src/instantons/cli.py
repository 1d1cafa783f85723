# Batch front-end: certificates as JSON, tables and scans as CSV, tensor
# export in the interchange format, and the acceptance battery.  Exit codes:
# 0 success, 1 an invariant or criterion failed, 2 bad input; _EXIT_CODES
# maps the exceptions a command raises to the last two.

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .certify import smoothness_certificate
from .families import NAMED_EXAMPLES, named_example, sample_instanton
from .fields import field_from_spec
from .geometry import line_invariants, pencil_jump_poly, random_lines, random_pencil, splitting_orders
from .linalg import Stream
from .monads import coh_table, gated_display
from .polys import roots as poly_roots
from .tensors import read_tensor, tensor_to_obj, write_tensor


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--field", default="fp:32003", help='coefficient field: "rational" or "fp:<p>"'
    )
    common.add_argument("--seed", default="0", help="seed for anything sampled")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--json", action="store_true", help="pretty-print JSON output")

    p = argparse.ArgumentParser(
        prog="instantons",
        description="Exact workbench for symplectic instanton monads on P3.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_source(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--sample", metavar="N,R", help="sampled member of M(n, r)")
        g.add_argument(
            "--example", metavar="ID",
            help="named example tensor: " + ", ".join(NAMED_EXAMPLES),
        )
        g.add_argument("--tensor", metavar="FILE", help="tensor file (JSON)")

    c = sub.add_parser("certify", parents=[common],
                       help="emit a smoothness/non-degeneracy certificate")
    add_source(c)
    c.add_argument("--induction", action="store_true", help="include a hyperplane-search witness")

    t = sub.add_parser("table", parents=[common],
                       help="emit cohomology or line-scan tables as CSV")
    t.add_argument("kind", choices=["coh", "lines", "pencil"])
    add_source(t)
    t.add_argument("--dmax", type=int, default=3, help="largest twist for coh tables, at most 12")
    t.add_argument("--count", type=int, default=50, help="number of scanned lines")

    s = sub.add_parser("sample", parents=[common],
                       help="sample a tensor and write it in tensor format")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--r", type=int, required=True)

    e = sub.add_parser("export", parents=[common], help="write a named example tensor")
    e.add_argument("--id", required=True, metavar="ID",
                   help="one of: " + ", ".join(NAMED_EXAMPLES))

    u = sub.add_parser("suite", parents=[common], help="run the acceptance battery")
    u.add_argument("--only", default=None, help="restrict to one criterion tag or id")
    return p


def _load_tensor(args, field):
    if getattr(args, "tensor", None):
        omega = read_tensor(args.tensor)
        if omega.field != field:
            raise ValueError(f"--tensor {args.tensor!r} is over {omega.field.spec_str()}, "
                             f"but --field is {field.spec_str()}")
        return omega
    if getattr(args, "example", None):
        return named_example(args.example, field, seed=args.seed)
    try:
        n, r = (int(x) for x in args.sample.split(","))
    except ValueError:
        raise ValueError(f"--sample {args.sample!r}: expected N,R integers") from None
    return sample_instanton(n, r, field, args.seed)


def _written(args, omega):
    """omega, which certify, sample and export write out in the file format:
    refused over an extension field, since its entries are rational or in a
    prime field."""
    if omega.field.kind == "prime-extension":
        raise ValueError(f"--field {args.field!r}: {args.command} writes the tensor out, "
                         "so expected rational or fp:<p>")
    return omega


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(args, obj) -> None:
    _emit(json.dumps(obj, indent=2 if args.json else None, sort_keys=True), args.out)


def _config_echo(args) -> dict:
    return {
        "version": __version__,
        "field": args.field,
        "seed": str(args.seed),
        "command": args.command,
    }


def _csv_header(args) -> str:
    cfg = _config_echo(args)
    return "# " + json.dumps(cfg, sort_keys=True) + "\n"


# (exception classes, exit code, message prefix), first match wins: bad
# input (json.JSONDecodeError is a ValueError) exits 2; a failed internal
# invariant (an AssertionError, an ArithmeticError such as the int64
# OverflowError, a RuntimeError such as SampleError) exits 1
_EXIT_CODES = (
    ((ValueError, OSError, KeyError), 2, "error"),
    ((AssertionError, ArithmeticError, RuntimeError), 1, "internal invariant failed"),
)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        for classes, code, prefix in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


# the least value of each numeric option of a subcommand, and the largest
# where there is one: a degenerate display ranks every twist's maps, dmax^3 a side
_LEAST = {"count": 0, "dmax": -2}
_MOST = {"dmax": 12}


def _run(args) -> int:
    for name, least in _LEAST.items():
        if getattr(args, name, least) < least:
            raise ValueError(f"--{name} {getattr(args, name)}: must be at least {least}")
    for name, most in _MOST.items():
        if getattr(args, name, most) > most:
            raise ValueError(f"--{name} {getattr(args, name)}: must be at most {most}")
    try:
        field = field_from_spec(args.field)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None  # "--field '<spec>': ..."
    if args.command == "certify":
        omega = _written(args, _load_tensor(args, field))
        cert = smoothness_certificate(
            omega,
            subject_extra={"config": _config_echo(args)},
            induction_seed=args.seed if args.induction else None,
        )
        _emit_json(args, cert)
        return 0 if cert["consistent"] else 1

    if args.command == "table":
        omega = _load_tensor(args, field)
        if args.kind == "coh":
            gated_display(omega)
            rows = "".join(f"{d},{h0},{h1}\n" for d, h0, h1 in coh_table(omega, args.dmax))
            _emit(_csv_header(args) + "d,h0,h1\n" + rows, args.out)
            return 0
        if args.kind == "lines":
            return _lines_table(args, field, omega)
        return _pencil_table(args, field, omega)

    if args.command == "sample":
        omega = _written(args, sample_instanton(args.n, args.r, field, args.seed))
        obj = tensor_to_obj(omega)
        obj["config"] = _config_echo(args)
        _emit_json(args, obj)
        return 0

    if args.command == "export":
        omega = _written(args, named_example(args.id, field, seed=args.seed))
        if args.out:
            write_tensor(omega, args.out)
        else:
            _emit_json(args, tensor_to_obj(omega))
        return 0

    if args.command == "suite":
        from .suite import run_suite  # the battery loads only for the command that runs it
        summary = run_suite(field=field, only=args.only)
        summary["config"] = _config_echo(args)
        _emit_json(args, summary)
        return 0 if summary["passed"] else 1
    return 2


def _lines_table(args, field, omega) -> int:
    lines = random_lines(field, Stream("cli_lines", field.spec_str(), args.seed), args.count)
    rows = ["plucker,order,h0,det"]
    for (lam, _points), (a, h0, det) in zip(lines, line_invariants(omega, lines)):
        pl = ":".join(field.to_str(x) for x in lam)
        rows.append(f"{pl},{a},{h0},{field.to_str(det)}")
    _emit(_csv_header(args) + "\n".join(rows) + "\n", args.out)
    return 0


def _pencil_table(args, field, omega) -> int:
    lam0, lam1 = random_pencil(field, Stream("cli_pencil", field.spec_str(), args.seed))
    poly = pencil_jump_poly(omega, lam0, lam1)
    found, residual = poly_roots(poly, field) if poly else ([], [])
    rows = ["key,value"]
    rows.append(f"degree,{len(poly) - 1}")
    for i, c in enumerate(poly):
        rows.append(f"coeff_{i},{field.to_str(c)}")
    if found:
        gated_display(omega)
    # every member of the pencil is decomposable: pencil_jump_poly checked it
    lams = [[field.add(a, field.mul(root, b)) for a, b in zip(lam0, lam1)] for root in found]
    orders = splitting_orders(omega, lams)[0] if found else []
    for root, order in zip(found, orders):
        rows.append(f"root,{field.to_str(root)}")
        rows.append(f"order_at_root,{order}")
    rows.append(f"residual_degree,{len(residual) - 1 if residual else -1}")
    _emit(_csv_header(args) + "\n".join(rows) + "\n", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

# Batch front-end: certificates as JSON, tables and scans as CSV, tensor
# export in the interchange format, and the acceptance battery.  Exit codes:
# 0 success, 1 an invariant or criterion failed, 2 bad input.

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .certify import smoothness_certificate
from .families import NAMED_EXAMPLES, named_example, sample_instanton
from .fields import field_from_spec
from .geometry import Line, h0_line, point_plane_pencil, pencil_jump_poly, splitting_order
from .linalg import Mat, Stream
from .monads import build_monad, coh_table
from .nondeg import DEFAULT_BUDGET
from .polys import roots as poly_roots
from .tensors import read_tensor, tensor_to_obj, write_tensor


def _parser() -> argparse.ArgumentParser:
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
    t.add_argument("--dmax", type=int, default=3, help="largest twist for coh tables")
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
    u.add_argument("--chains", type=int, default=20, help="number of (5,2) chain samples")
    return p


def _load_tensor(args, field):
    if getattr(args, "tensor", None):
        t = read_tensor(args.tensor)
        return t
    if getattr(args, "example", None):
        return named_example(args.example, field, seed=args.seed)
    n_str, r_str = args.sample.split(",")
    return sample_instanton(int(n_str), int(r_str), field, args.seed)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        field = field_from_spec(args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "certify":
            omega = _load_tensor(args, field)
            cert = smoothness_certificate(
                omega,
                DEFAULT_BUDGET,
                subject_extra={"config": _config_echo(args)},
                induction_seed=args.seed if args.induction else None,
            )
            obj = cert.to_obj()
            _emit(json.dumps(obj, indent=2 if args.json else None, sort_keys=True), args.out)
            return 0 if cert.consistent else 1

        if args.command == "table":
            omega = _load_tensor(args, field)
            if args.kind == "coh":
                table = coh_table(omega, args.dmax)
                _emit(_csv_header(args) + table.csv(), args.out)
                return 0
            if args.kind == "lines":
                return _lines_table(args, field, omega)
            return _pencil_table(args, field, omega)

        if args.command == "sample":
            omega = sample_instanton(args.n, args.r, field, args.seed)
            obj = tensor_to_obj(omega)
            obj["config"] = _config_echo(args)
            _emit(json.dumps(obj, indent=2 if args.json else None, sort_keys=True), args.out)
            return 0

        if args.command == "export":
            omega = named_example(args.id, field, seed=args.seed)
            if args.out:
                write_tensor(omega, args.out)
            else:
                _emit(json.dumps(tensor_to_obj(omega), sort_keys=True), args.out)
            return 0

        if args.command == "suite":
            from .suite import run_suite

            summary = run_suite(field=field, only=args.only, chain_count=args.chains)
            summary["config"] = _config_echo(args)
            text = json.dumps(summary, indent=2 if args.json else None, sort_keys=True)
            if args.out:
                _emit(text, args.out)
            else:
                print(text)
            return 0 if summary["passed"] else 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def _lines_table(args, field, omega) -> int:
    m = build_monad(omega, quick_check=False)
    st = Stream("cli_lines", field.spec_str(), args.seed)
    rows = ["plucker,order,h0,det"]
    done = 0
    while done < args.count:
        u0 = st.next_vector(field, 4)
        u1 = st.next_vector(field, 4)
        try:
            line = Line.from_points(field, u0, u1)
        except ValueError:
            continue
        done += 1
        a = splitting_order(omega, line, monad=m)
        h0 = h0_line(omega, line, monad=m)
        det = omega.contract_line(line.plucker).det()
        pl = ":".join(field.to_str(x) for x in line.plucker)
        rows.append(f"{pl},{a},{h0},{field.to_str(det)}")
    _emit(_csv_header(args) + "\n".join(rows) + "\n", args.out)
    return 0


def _pencil_table(args, field, omega) -> int:
    st = Stream("cli_pencil", field.spec_str(), args.seed)
    while True:
        p = st.next_vector(field, 4)
        q0 = st.next_vector(field, 4)
        q1 = st.next_vector(field, 4)
        if Mat.from_rows(field, [p, q0, q1], 4).rank() == 3:
            break
    lam0, lam1 = point_plane_pencil(field, p, q0, q1)
    poly = pencil_jump_poly(omega, lam0, lam1)
    found, residual = poly_roots(poly, field) if poly else ([], [])
    rows = ["key,value"]
    rows.append(f"degree,{len(poly) - 1}")
    for i, c in enumerate(poly):
        rows.append(f"coeff_{i},{field.to_str(c)}")
    monad = build_monad(omega) if found else None
    for root in found:
        lam = [field.add(a, field.mul(root, b)) for a, b in zip(lam0, lam1)]
        line = Line.from_plucker(field, lam)
        order = splitting_order(omega, line, monad=monad)
        rows.append(f"root,{field.to_str(root)}")
        rows.append(f"order_at_root,{order}")
    rows.append(f"residual_degree,{len(residual) - 1 if residual else -1}")
    _emit(_csv_header(args) + "\n".join(rows) + "\n", args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

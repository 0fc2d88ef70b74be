"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 malformed or invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import fdlie, freelie, multiplier, verify
from .fdlie import ValidationError


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_info(args) -> int:
    L = fdlie.load(args.file)
    rep = fdlie.series(L)
    lower = [s.rank for s in rep.lower]
    upper = [s.rank for s in rep.upper]
    if args.json:
        _emit(_json_text({
            "name": L.name,
            "dim": L.dim,
            "basis": list(L.basis_labels),
            "nilpotent": rep.is_nilpotent,
            "nilpotency_class": rep.nilpotency_class,
            "lower_central_dims": lower,
            "upper_central_dims": upper,
        }), args.output)
        return 0
    lines = [
        f"name: {L.name}",
        f"dim: {L.dim}",
        f"basis: {' '.join(L.basis_labels)}",
        f"nilpotent: {'yes' if rep.is_nilpotent else 'no'}"
        + (f" (class {rep.nilpotency_class})" if rep.is_nilpotent else ""),
        f"lower central dims: {lower}",
        f"upper central dims: {upper}",
    ]
    _emit("\n".join(lines), args.output)
    return 0


class CountTooLongError(ValueError):
    """A count with more digits than the interpreter prints an int with (250,000 if it prints any)."""


def cmd_witt(args) -> int:
    d, n = args.generators, args.length
    # with printing unlimited (0), a bound: a count of 250,000 digits computes
    # and prints in about a second, as Python 3.11 prints an int in quadratic time
    limit = sys.get_int_max_str_digits() or 250_000
    # witt(d, n) > d^n / 2n for d >= 2: past this the count is not computed
    too_long = d >= 2 and n >= 1 and n * math.log10(d) - math.log10(2 * n) > limit + 1
    value = 0 if too_long else freelie.witt(d, n)
    if too_long or value >= 10**limit:
        raise CountTooLongError(f"witt({d}, {n}) has more than {limit} digits, too many to print")
    if args.json:
        _emit(_json_text({"generators": args.generators, "length": args.length, "count": value}), args.output)
    else:
        _emit(str(value), args.output)
    return 0


def cmd_hall(args) -> int:
    d, c = args.generators, args.nil_class
    if d >= 0 and c >= 1:  # hall_basis names a bad size itself
        # the cap of free_nilpotent, on the Witt sum, before any word is built
        freelie._check_dim_cap(d, c, freelie.DIM_CAP)
    words = freelie.hall_basis(d, c)
    if args.json:
        _emit(_json_text({
            "generators": args.generators,
            "class": args.nil_class,
            "dim": len(words),
            "words": [str(w) for w in words],
        }), args.output)
    else:
        _emit("\n".join(str(w) for w in words), args.output)
    return 0


def cmd_make(args) -> int:
    kind, params = args.kind, args.params
    if kind == "abelian":
        if len(params) != 1:
            raise ValidationError("make abelian takes one parameter: n")
        L = fdlie.abelian(int(params[0]))
    elif kind == "heisenberg":
        if len(params) != 1:
            raise ValidationError("make heisenberg takes one parameter: m")
        L = fdlie.heisenberg(int(params[0]))
    elif kind == "free-nilpotent":
        if len(params) != 2:
            raise ValidationError("make free-nilpotent takes two parameters: d c")
        F = freelie.free_nilpotent(int(params[0]), int(params[1]))
        L = fdlie.from_free_nilpotent(F)
    elif kind == "direct-sum":
        if len(params) != 2:
            raise ValidationError("make direct-sum takes two parameters: a.json b.json")
        L = fdlie.direct_sum(fdlie.load(params[0]), fdlie.load(params[1]))
    else:
        raise ValidationError(f"unknown kind {kind!r}")
    _emit(fdlie.dumps(L), args.output)
    return 0


def cmd_multiplier(args) -> int:
    L = fdlie.load(args.file)
    rep = multiplier.report(L, args.c)
    if args.json:
        _emit(_json_text(rep), args.output)
        return 0
    lines = [f"dim M^({args.c})({L.name}) = {rep['dim_multiplier']}"]
    if args.basis:
        lines += [f"  {w}" for w in rep["basis_words"]]
    bounds = rep["bounds"]
    refined = bounds["refined"] if bounds["refined"] is not None else "n/a (abelian)"
    lines.append(
        f"dim M^(2) + dim L^3 = {bounds['value']}, Eq. (1) bound {bounds['eq1']}, refined bound {refined}"
    )
    lines.append(
        f"capable: {'yes' if rep['capable'] else 'no'}; "
        f"2-capable: {'yes' if rep['two_capable'] else 'no'}"
    )
    _emit("\n".join(lines), args.output)
    return 0


def cmd_capable(args) -> int:
    L = fdlie.load(args.file)
    z = multiplier.z_star(L, args.c)
    label = "capable" if args.c == 1 else f"{args.c}-capable"
    if args.json:
        _emit(_json_text({
            "algebra": L.name,
            "c": args.c,
            "capable": z.rank == 0,
            "dim_z_star": z.rank,
        }), args.output)
        return 0
    if z.rank == 0:
        _emit(f"{L.name}: {label} (Z*_{args.c} = 0)", args.output)
    else:
        _emit(f"{L.name}: not {label}; Z*_{args.c} has dimension {z.rank}", args.output)
    return 0


def cmd_verify_paper(args) -> int:
    cases = verify.run_cases(args.max_abelian, args.max_heisenberg)
    if args.json:
        _emit(_json_text(verify.to_json(cases)), args.output)
    else:
        _emit(verify.render_text(cases), args.output)
    return 0 if all(case.status == "pass" for case in cases) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmult",
        description="Schur and 2-nilpotent multipliers, epicenters, and capability "
        "of finite-dimensional nilpotent Lie algebras over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("-o", "--output", metavar="FILE", help="write output to FILE")

    p = sub.add_parser("info", help="series data for an algebra file")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("witt", help="count basic commutators of one length")
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_witt)

    p = sub.add_parser("hall", help="list the Hall basis up to a class")
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--class", dest="nil_class", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_hall)

    p = sub.add_parser("make", help="emit a named algebra as JSON")
    p.add_argument("kind", choices=["abelian", "heisenberg", "free-nilpotent", "direct-sum"])
    p.add_argument("params", nargs="*")
    common(p)
    p.set_defaults(fn=cmd_make)

    p = sub.add_parser("multiplier", help="c-nilpotent multiplier of an algebra file")
    p.add_argument("file")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--basis", action="store_true", help="list Hall-word representatives")
    common(p)
    p.set_defaults(fn=cmd_multiplier)

    p = sub.add_parser("capable", help="c-capability verdict for an algebra file")
    p.add_argument("file")
    p.add_argument("--c", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_capable)

    p = sub.add_parser("verify-paper", help="re-derive the source results as a pass/fail table")
    p.add_argument("--max-abelian", type=int, default=6)
    p.add_argument("--max-heisenberg", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

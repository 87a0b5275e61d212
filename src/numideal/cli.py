"""Command-line front end: analyze, member, puiseux, examples, transform.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 parse error, 2 precondition/out-of-scope failure; `member` exits 0 for
InIdeal, 3 for NotInIdeal, 4 for Indeterminate.

`puiseux` and `construct` are imported by the subcommands that use them,
so `analyze` and `member` start without loading either.
"""

from __future__ import annotations

import argparse
import json
import sys

from .branch import PhiKind
from .engine import (
    CaseTag,
    Verdict,
    boundedness_oracle,
    membership,
    numerator_ideal,
)
from .errors import NumidealError, ParseError, PreconditionError
from .examples import EXAMPLES
from .parsing import format_poly, parse


def _read_input(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {text[1:]}: {exc.strerror}") from exc
    return text


def cmd_analyze(args) -> int:
    p = parse(_read_input(args.polynomial))
    desc = numerator_ideal(p, order=args.order, seed=args.seed)
    cls = desc.classification
    phi = desc.branch.phi
    payload = desc.to_json_dict()
    payload["phi"] = format_poly(phi.poly)
    payload["phi_order"] = phi.order
    payload["grad0"] = [str(g) for g in desc.branch.grad0]
    if cls.kind is PhiKind.FIRST_IMAG_TERM:
        payload["first_imag_index"] = 2 * cls.L
        payload["im_part"] = format_poly(cls.im_part_2L)
        payload["definite"] = cls.definite
    else:
        payload["first_imag_index"] = None
        payload["im_part"] = None
        payload["definite"] = None
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return 0
    print(f"p = {format_poly(p)}")
    print(f"phi = {format_poly(phi.poly)} + O(deg {phi.order + 1})")
    print(f"grad phi(0) = ({', '.join(str(g) for g in desc.branch.grad0)})")
    if cls.kind is PhiKind.FIRST_IMAG_TERM:
        definite = "positive definite" if cls.definite else "not positive definite"
        if not cls.definite_exact:
            definite += ", sampled"
        print(
            f"first non-real index 2L = {2 * cls.L}; "
            f"Im phi_{2 * cls.L} = {format_poly(cls.im_part_2L)} ({definite})"
        )
    else:
        print(f"phi real through order {cls.order_checked}")
    print(f"case: {desc.case.value}")
    print(f"H = {format_poly(desc.H)}")
    if desc.g is not None:
        print(f"g = {format_poly(desc.g)}")
    print("generators:")
    for gen in desc.generators:
        print(f"  {format_poly(gen)}")
    return 0


def cmd_member(args) -> int:
    p = parse(_read_input(args.denominator))
    q = parse(_read_input(args.numerator), vars=p.vars)
    desc = numerator_ideal(p, order=args.order, seed=args.seed)
    verdict = membership(p, q, order=args.order, seed=args.seed, ideal=desc)
    payload = {
        "verdict": verdict.verdict.value,
        "reduced_numerator": format_poly(verdict.reduced_numerator)
        if verdict.reduced_numerator is not None
        else None,
        "witness": _jsonable(verdict.witness),
        "certificate": _jsonable(verdict.certificate),
    }
    if args.oracle:
        oracle = boundedness_oracle(
            p, q, eps=args.eps, grid=args.grid, seed=args.seed, ideal=desc
        )
        payload["oracle"] = {
            "sup_estimate": oracle["sup_estimate"],
            "level_max": oracle["level_max"],
            "divergent": oracle["divergent"],
        }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"verdict: {payload['verdict']}")
        if payload["reduced_numerator"] is not None:
            # LinearForm reduces by Re phi through its order, not by H
            r = "Re phi" if desc.case is CaseTag.LINEAR_FORM else "H"
            print(f"q0 = q(x, -{r}(x)) = {payload['reduced_numerator']}")
        if verdict.witness:
            print(f"witness: {verdict.witness}")
        if args.oracle:
            print(
                f"oracle sup ~ {payload['oracle']['sup_estimate']:.6g}"
                f" divergent={payload['oracle']['divergent']}"
            )
    return {
        Verdict.IN_IDEAL: 0,
        Verdict.NOT_IN_IDEAL: 3,
        Verdict.INDETERMINATE: 4,
    }[verdict.verdict]


def cmd_puiseux(args) -> int:
    from .puiseux import newton_puiseux

    f = parse(_read_input(args.polynomial))
    if len(f.vars) != 2:
        raise PreconditionError("puiseux expects a bivariate polynomial in x, y")
    branches = newton_puiseux(f, order=args.order)
    items = []
    for b in branches:
        items.append(
            {
                "r": b.r,
                "psi": format_poly(b.psi.poly),
                "t_order": b.psi.order,
                "multiplicity": b.multiplicity,
                "conjugate_partner": b.conjugate_partner,
                "resolved": b.resolved,
            }
        )
    if args.format == "json":
        print(json.dumps({"branches": items}, indent=2))
    else:
        for k, item in enumerate(items):
            print(
                f"branch {k}: r = {item['r']}, psi = {item['psi']}"
                f" + O(t^{item['t_order'] + 1}), multiplicity {item['multiplicity']},"
                f" conjugate partner {item['conjugate_partner']}"
            )
    return 0


def cmd_examples(args) -> int:
    names = [args.name] if args.name else list(EXAMPLES)
    out = []
    for name in names:
        if name not in EXAMPLES:
            print(f"unknown example {name!r}; have {', '.join(EXAMPLES)}", file=sys.stderr)
            return 1
        out.append({"name": name, "polynomial": format_poly(EXAMPLES[name]())})
    if args.format == "json":
        print(json.dumps({"examples": out}, indent=2))
    else:
        for item in out:
            print(f"{item['name']}: {item['polynomial']}")
    return 0


def cmd_transform(args) -> int:
    from .construct import polydisk_to_halfplane

    disk = parse(_read_input(args.polynomial))
    result = polydisk_to_halfplane(disk)
    if args.format == "json":
        print(json.dumps({"polynomial": format_poly(result)}, indent=2))
    else:
        print(format_poly(result))
    return 0


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return str(obj)


_FLAGS = {
    "--order": dict(type=int, default=12, help="series truncation order"),
    "--seed": dict(type=int, default=0, help="sampling seed"),
    "--eps": dict(type=float, default=0.125, help="oracle sampling radius"),
    "--grid": dict(type=int, default=3, help="oracle refinement levels"),
    "--format": dict(choices=("text", "json"), default="text", help="output format"),
}


def _add_flags(sub, *names):
    for name in names:
        sub.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="numideal",
        description="Admissible-numerator ideals of stable polynomials "
        "with a smooth boundary zero at the origin.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="classify p and emit its numerator ideal")
    a.add_argument("polynomial", help="polynomial text or @file")
    _add_flags(a, "--order", "--seed", "--format")
    a.set_defaults(func=cmd_analyze)

    m = sub.add_parser("member", help="decide whether q/p is locally bounded")
    m.add_argument("denominator", help="stable polynomial p (text or @file)")
    m.add_argument("numerator", help="candidate numerator q (text or @file)")
    m.add_argument("--oracle", action="store_true", help="also run the sampling oracle")
    _add_flags(m, "--order", "--eps", "--grid", "--seed", "--format")
    m.set_defaults(func=cmd_member)

    u = sub.add_parser("puiseux", help="Newton-Puiseux branches of a bivariate polynomial")
    u.add_argument("polynomial", help="bivariate polynomial in x, y (text or @file)")
    _add_flags(u, "--order", "--format")
    u.set_defaults(func=cmd_puiseux)

    e = sub.add_parser("examples", help="emit the worked example polynomials")
    e.add_argument("--name", help="one of: " + ", ".join(EXAMPLES))
    _add_flags(e, "--format")
    e.set_defaults(func=cmd_examples)

    t = sub.add_parser("transform", help="polydisk-stable polynomial to half-plane form")
    t.add_argument("polynomial", help="polydisk polynomial in z1..z9 (text or @file)")
    _add_flags(t, "--format")
    t.set_defaults(func=cmd_transform)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except NumidealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

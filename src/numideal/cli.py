"""Command-line front end: analyze, member, puiseux, examples, transform.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 parse error, 2 precondition/out-of-scope failure, 141 stdout closed
early (as under `| head`); `member` exits 0 for InIdeal, 3 for NotInIdeal,
4 for Indeterminate.

For `analyze` and `member`, --order sets only how far phi, the Principal
H and q0 are printed; no case tag or verdict depends on it.  The sampling
oracle of `member --oracle` has one fixed setting and takes no flags.

A polynomial that starts with "-" and holds no space, such as "-z-x", would
be read by argparse as an unknown option; `main` exits 2 naming the fix
instead: put "--" after the options and before the polynomials, as in
`numideal analyze -- "-z-x"`.  "-z - x" and negative numbers pass as they
are.

`puiseux` and `construct` are imported by the subcommands that use them,
so `analyze` and `member` start without loading either.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .branch import solve_branch
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
    desc = numerator_ideal(p, order=args.order)
    cls = desc.classification
    phi = desc.branch.phi
    if phi.order < args.order:
        # the ideal may read phi only through 2L or K; print it through --order
        phi = solve_branch(p, args.order).phi
    payload = desc.to_json_dict()
    payload["phi"] = format_poly(phi.poly)
    payload["phi_order"] = phi.order
    payload["grad0"] = [str(g) for g in desc.branch.grad0]
    real = cls.L is None
    payload["first_imag_index"] = None if real else 2 * cls.L
    payload["im_part"] = None if real else format_poly(cls.im_part_2L)
    payload["definite"] = cls.definite  # None when phi is real
    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return 0
    print(f"p = {format_poly(p)}")
    print(f"phi = {payload['phi']} + O(deg {phi.order + 1})")
    print(f"grad phi(0) = ({', '.join(payload['grad0'])})")
    if real:
        print(f"phi real through order {phi.order}")
    else:
        definite = "positive definite" if cls.definite else "not positive definite"
        if not cls.definite_exact:
            definite += ", sampled"
        index = payload["first_imag_index"]
        print(
            f"first non-real index 2L = {index}; "
            f"Im phi_{index} = {payload['im_part']} ({definite})"
        )
    print(f"case: {payload['case']}")
    print(f"H = {payload['H']}")
    if payload["g"] is not None:
        print(f"g = {payload['g']}")
    print("generators:")
    for gen in payload["generators"]:
        print(f"  {gen}")
    return 0


def cmd_member(args) -> int:
    p = parse(_read_input(args.denominator))
    q = parse(_read_input(args.numerator), vars=p.vars)
    desc = numerator_ideal(p, order=args.order)
    verdict = membership(p, q, order=args.order, ideal=desc)
    payload = {
        "verdict": verdict.verdict.value,
        "reduced_numerator": format_poly(verdict.reduced_numerator),
        "witness": _jsonable(verdict.witness),
        "certificate": _jsonable(verdict.certificate),
    }
    if args.oracle:
        oracle = boundedness_oracle(p, q, ideal=desc)
        payload["oracle"] = {
            "sup_estimate": oracle["sup_estimate"],
            "level_max": oracle["level_max"],
            "divergent": oracle["divergent"],
        }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"verdict: {payload['verdict']}")
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
    _add_flags(a, "--order", "--format")
    a.set_defaults(func=cmd_analyze)

    m = sub.add_parser("member", help="decide whether q/p is locally bounded")
    m.add_argument("denominator", help="stable polynomial p (text or @file)")
    m.add_argument("numerator", help="candidate numerator q (text or @file)")
    m.add_argument("--oracle", action="store_true", help="also run the sampling oracle")
    _add_flags(m, "--order", "--format")
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


# what argparse reads as a negative number, not as an option
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _dash_argument(argv):
    """The first argument before any "--" that argparse would read as an
    option none of the commands has: it starts with one "-", is not "-" or
    "-h", holds no space and is no negative number; None if there is none."""
    for arg in argv:
        if arg == "--":
            return None
        if (
            arg[:1] == "-"
            and arg[:2] != "--"
            and arg not in ("-", "-h")
            and " " not in arg
            and not _NEGATIVE_NUMBER.fullmatch(arg)
        ):
            return arg
    return None


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    dash = _dash_argument(argv)
    if dash is not None:
        ap.error(
            f'argument "{dash}" starts with "-", so it is read as an option; to '
            'pass a polynomial that starts with "-", put "--" after the options '
            'and before the polynomials, as in: numideal analyze -- "-z-x"'
        )
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit does not raise again, and exit as SIGPIPE would (128 + 13)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except NumidealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

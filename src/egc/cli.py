"""Command-line front end: compute coefficients, inspect permutations,
enumerate tableaux, and run the verification suites.

Exit codes: 0 success, 1 usage or domain error, 2 structurally-zero result
(the zero output is still printed).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields

from .perms import Permutation, code_of, code_shape_flag
from .pipeline import build_context, j_coefficient, j_minus, j_plus
from .shapes import Flag, Partition, SkewShape, compatible_form
from .tableaux import EnumSpec, enumerate_tableaux
from .verify import SUITES, RunConfig, verify_identities


def parse_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; the empty string is the empty tuple."""
    if not text.strip():
        return ()
    return tuple(int(v) for v in text.split(","))


def parse_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"\s*([+-]?\d+)\s*:\s*([+-]?\d+)\s*", text)
    if not match:
        raise ValueError(f"range {text!r} is not of the form lo:hi")
    return (int(match[1]), int(match[2]))


# bound at import, so a wrapper later put on j_plus or j_minus (the
# benchmark's tracer) still reaches the caches
_CLEAR_HALF_CACHES = (j_plus.cache_clear, j_minus.cache_clear)


def cmd_j(args) -> int:
    lam = Partition(parse_ints(args.lam))
    given = Flag(parse_ints(args.phi))
    rho = Partition(parse_ints(args.rho))
    if (phi := compatible_form(lam, given)) != given:
        print(f"flag {given} normalized to {phi}", file=sys.stderr)
    ctx = build_context(lam, phi, rho)  # validates the flag
    result = j_coefficient(lam, phi, rho)
    # one coefficient per command: a process that runs many commands keeps
    # no earlier one's half sums, which reach megabytes on large ones
    for clear in _CLEAR_HALF_CACHES:
        clear()
    norm = lam.size - rho.size
    if args.format == "json":
        result.to_json(norm, {
            "lambda": list(lam.parts), "phi": list(phi.bounds),
            "rho": list(rho.parts),
            "nu": list(ctx.nu.parts) if ctx.nu is not None else None,
            "q": ctx.q, "case": ctx.case,
        }, sys.stdout)
        print()
    else:
        header = f"beta^{norm} * j[lambda={lam.parts} phi={phi.bounds} " \
            f"rho={rho.parts}]"
        if result.is_zero():
            print(header, "= 0")
        else:
            print(header, "=")
            for line in result.text_lines():
                print("  " + line)
    return 2 if ctx.case == "zero" else 0


def cmd_perm(args) -> int:
    if args.oneline is not None:
        w = Permutation.from_one_line(parse_ints(args.oneline), args.base)
    else:
        w = Permutation.from_word(parse_ints(args.word))
    code = code_of(w)
    try:
        csf = code_shape_flag(w, code)
    except ValueError:  # not vexillary
        csf = None
    info = {"permutation": str(w), "length": sum(code.values()),
            "descents": w.descents(), "vexillary": csf is not None,
            "code": {str(k): v for k, v in sorted(code.items())}}
    if csf:
        info["shape"] = list(csf.shape.parts)
        info["flag"] = list(csf.flag.bounds)
    if getattr(args, "format", None) == "json":
        print(json.dumps(info, indent=1))
    else:
        for k, v in info.items():
            print(f"{k}: {v}")
    return 0


def cmd_tableaux(args) -> int:
    lam = Partition(parse_ints(args.lam))
    mu = Partition(parse_ints(args.mu))
    flag = Flag(parse_ints(args.flag)) if args.flag is not None else None
    spec = EnumSpec(SkewShape(lam, mu), flag, args.sign,
                    parse_range(args.window))
    count = 0
    for t in enumerate_tableaux(spec):
        count += 1
        print(t.to_text())
    print(f"# {count} tableaux", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    # the verify parser leaves out every option the user did not give, so
    # RunConfig supplies the defaults
    options = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if hasattr(args, f.name)}
    for name in ("window", "flag_range"):
        if name in options:
            options[name] = parse_range(options[name])
    report = verify_identities(args.suite, **options)
    if getattr(args, "format", "text") == "json":
        print(json.dumps(report, indent=1))
    else:
        for sub in report.get("suites", [report]):
            status = "pass" if sub["ok"] else "FAIL"
            print(f"{sub['suite']}: {status} "
                  f"({sub['instances']} instances, {sub['checks']} checks)")
            for f in sub["failures"]:
                print(f"  {f}")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egc",
        description="Vexillary double beta-Edelman-Greene coefficients")
    sub = parser.add_subparsers(dest="command", required=True)

    pj = sub.add_parser("j", help="compute a coefficient")
    pj.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    pj.add_argument("--phi", required=True, metavar="BOUNDS")
    pj.add_argument("--rho", required=True, metavar="PARTS")
    pj.add_argument("--format", choices=("text", "json"))
    pj.set_defaults(func=cmd_j)

    pp = sub.add_parser("perm", help="inspect a permutation")
    group = pp.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", metavar="LETTERS")
    group.add_argument("--oneline", metavar="IMAGES")
    pp.add_argument("--base", type=int, default=1)
    pp.add_argument("--format", choices=("text", "json"))
    pp.set_defaults(func=cmd_perm)

    pt = sub.add_parser("tableaux", help="enumerate flagged tableaux")
    pt.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    pt.add_argument("--mu", default="", metavar="PARTS")
    pt.add_argument("--flag", metavar="BOUNDS")
    pt.add_argument("--sign", choices=("positive", "nonpositive", "any"),
                    default="any")
    pt.add_argument("--window", default="-3:3", metavar="lo:hi")
    pt.set_defaults(func=cmd_tableaux)

    pv = sub.add_parser("verify", help="run a verification suite",
                        argument_default=argparse.SUPPRESS)
    pv.add_argument("--suite", choices=SUITES + ("all",), default="all")
    pv.add_argument("--max-size", dest="max_size", type=int)
    pv.add_argument("--flag-range", dest="flag_range", metavar="lo:hi")
    pv.add_argument("--jobs", type=int)
    pv.add_argument("--prime", type=int)
    pv.add_argument("--seed", type=int)
    pv.add_argument("--trials", type=int)
    pv.add_argument("--window", metavar="lo:hi")
    pv.add_argument("--format", choices=("text", "json"))
    pv.set_defaults(func=cmd_verify)
    return parser


LIST_FLAGS = ("--lambda", "--phi", "--rho", "--mu", "--flag", "--word",
              "--oneline", "--window", "--flag-range")


def _join_list_values(argv: list[str]) -> list[str]:
    """Fold "--phi -1,0,2" into "--phi=-1,0,2" so values that start with a
    minus sign survive option parsing."""
    out = []
    for tok in argv:
        if out and out[-1] in LIST_FLAGS and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_join_list_values(
            list(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:  # argparse exits 2 on a usage error
        raise SystemExit(1 if exc.code == 2 else exc.code) from None
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

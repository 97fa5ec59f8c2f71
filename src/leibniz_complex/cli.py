"""Command-line interface.

Exit codes are a stable contract: 0 all checks passed, 1 an identity or
validity check failed, 2 unusable input (bad file, bad syntax, unknown
fixture, an algebra over MAX_DIM, a cochain file of more entries than
the table budget, an input whose free-datum walk or system of phi is
over it, a result with a coefficient too long to print), 3 an internal
error (any other exception, reported on one line without a traceback).
`--algebra` accepts either a JSON file path or the name of a bundled
fixture (A3, O1, O2, AFF_O1, omni(n)).
"""

import argparse
import json
import sys

from .algebra import (AlgebraFormatError, InvalidAlgebraError, IntegrityError,
                      PreconditionError, UnknownFixtureError, algebra_to_dict,
                      basis_vec, build_fixture, load_algebra, quotient_by_kernel,
                      require_leibniz)
from .brackets import derived_bracket_dual, poisson
from .cochains import (CochainFormatError, ComplexContext, InvalidCochainError,
                       TableBudgetError, coboundary, cochain_to_dict, cup, load_cochain)
from .duality import NotRepresentableError, covector, flat_cochain, is_representable, sharp
from .sympoly import DigitBudgetError, SymPolyParseError, rational_text
from .verify import VerifyConfig, VerifyConfigError, run_verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3

_INPUT_ERRORS = (OSError, json.JSONDecodeError, AlgebraFormatError, CochainFormatError,
                 SymPolyParseError, UnicodeDecodeError, VerifyConfigError,
                 TableBudgetError, DigitBudgetError)
_CHECK_ERRORS = (InvalidAlgebraError, InvalidCochainError, NotRepresentableError,
                 IntegrityError, PreconditionError)


def _load_algebra_arg(value):
    try:
        return build_fixture(value)
    except UnknownFixtureError:
        return load_algebra(value)


def _texts(vector):
    """The coordinates of an algebra element as text (DigitBudgetError
    for one too long to print)."""
    return [rational_text(c) for c in vector]


def _covector_texts(ctx, psi):
    """The values psi(e_j) of a covector, a degree-1 cochain, as text."""
    values = covector(psi)
    return [values[j].render() if j in values else "0" for j in range(ctx.dim)]


def _emit(args, payload, text):
    rendered = json.dumps(payload, indent=2) if args.format == "json" else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)


def _emit_cochain(args, omega):
    data = cochain_to_dict(omega)
    _emit(args, data, json.dumps(data, indent=2))


def cmd_check(args):
    """The Leibniz identity, tested once: by the loader for a file, here
    for a fixture."""
    try:
        try:
            algebra = build_fixture(args.algebra)
        except UnknownFixtureError:
            algebra = load_algebra(args.algebra)
        else:
            require_leibniz(algebra)
    except InvalidAlgebraError as exc:
        i, j, l, lhs, rhs = exc.report.violations[0]
        _emit(args, {"passed": False, "violation": {
            "triple": [i, j, l], "lhs": _texts(lhs), "rhs": _texts(rhs)}},
            f"FAIL Leibniz identity at triple ({i},{j},{l})")
        return EXIT_CHECK_FAILED
    zdim = algebra.zdim
    _emit(args, {"passed": True, "dim": algebra.dim, "left_center_dim": zdim,
                 "fat": algebra.is_fat()},
          f"PASS {algebra.dim}-dimensional algebra, left center dim {zdim}, "
          f"fat={algebra.is_fat()}")
    return EXIT_OK


def cmd_center(args):
    algebra = _load_algebra_arg(args.algebra)
    vectors = [_texts(v) for v in algebra.z_basis]
    text = "\n".join("  " + "  ".join(row) for row in vectors) or "  (trivial)"
    _emit(args, {"dim": algebra.dim, "left_center": vectors},
          f"left center dimension {len(vectors)}\n{text}")
    return EXIT_OK


def cmd_fat(args):
    algebra = _load_algebra_arg(args.algebra)
    kernel = [_texts(v) for v in algebra.kernel_basis]
    fat = algebra.is_fat()
    _emit(args, {"fat": fat, "kernel": kernel},
          f"fat={fat}, pairing kernel dimension {len(kernel)}")
    return EXIT_OK


def cmd_quotient(args):
    algebra = _load_algebra_arg(args.algebra)
    quotient = quotient_by_kernel(algebra)
    data = algebra_to_dict(quotient)
    _emit(args, data, json.dumps(data, indent=2))
    return EXIT_OK


def cmd_operator(args):
    """d, cup and bracket: the operator applied to the --cochain files."""
    op = {"d": coboundary, "cup": cup, "bracket": poisson}[args.command]
    ctx = ComplexContext(_load_algebra_arg(args.algebra))
    cochains = [load_cochain(ctx, path) for path in args.cochain]
    _emit_cochain(args, op(ctx, *cochains))
    return EXIT_OK


def cmd_representable(args):
    algebra = _load_algebra_arg(args.algebra)
    ctx = ComplexContext(algebra)
    omega = load_cochain(ctx, args.cochain[0])
    report = is_representable(ctx, omega)
    failures = [{"component": k, "prefix": list(p), "fs": list(f)}
                for k, p, f in report.failures]
    text = "representable" if report.ok else \
        "not representable, first failure: " + json.dumps(failures[0])
    _emit(args, {"representable": report.ok, "failures": failures}, text)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_derived_bracket(args):
    algebra = _load_algebra_arg(args.algebra)
    ctx = ComplexContext(algebra)
    if algebra.dim == 0:
        raise AlgebraFormatError("the algebra has no basis elements, so no basis index is valid")
    if not (0 <= args.i < algebra.dim and 0 <= args.j < algebra.dim):
        raise AlgebraFormatError(f"basis indices must lie in 0..{algebra.dim - 1}")
    ei, ej = basis_vec(algebra.dim, args.i), basis_vec(algebra.dim, args.j)
    direct = algebra.bracket(ei, ej)
    dual, expected = derived_bracket_dual(ctx, ei, ej), flat_cochain(ctx, direct)
    dual_equal = dual == expected
    dual_texts = _covector_texts(ctx, dual)
    payload = {
        "pair": [args.i, args.j],
        "structure_product": _texts(direct),
        "derived_dual": dual_texts,
        "flat_of_product": _covector_texts(ctx, expected),
        "dual_equal": dual_equal,
    }
    lines = [f"e_{args.i} . e_{args.j} from structure constants: "
             + " ".join(_texts(direct)),
             "derived covector: " + ", ".join(
                 f"{label} -> {text}" for label, text in zip(algebra.labels, dual_texts)),
             f"covector level equal: {dual_equal}"]
    if algebra.is_fat():
        lifted = sharp(ctx, dual).as_vector()
        sharp_equal = lifted == direct
        payload["sharp"] = _texts(lifted) if lifted else None
        payload["sharp_equal"] = sharp_equal
        lines.append(f"sharp recovers the product: {sharp_equal}")
        ok = dual_equal and sharp_equal
    else:
        lines.append("algebra is not fat: covector-level comparison only")
        ok = dual_equal
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args):
    config = VerifyConfig(max_degree=args.max_degree, fixtures=tuple(args.fixtures),
                          seed=args.seed, samples=args.samples)
    report = run_verify(config, mutation=args.inject_mutation)
    _emit(args, report.to_dict(), report.render_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="leibcx",
        description="Exact standard-complex and derived-bracket calculator "
                    "for finite-dimensional Leibniz algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cochains=0):
        p.add_argument("--algebra", required=True,
                       help="algebra JSON file or fixture name (A3, O1, O2, AFF_O1, omni(n))")
        if cochains:
            p.add_argument("--cochain", action="append", required=True,
                           help="cochain JSON file (repeat for binary operations)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the result to a file instead of stdout")

    common(sub.add_parser("check", help="validate an algebra file"))
    common(sub.add_parser("center", help="print the left center basis"))
    common(sub.add_parser("fat", help="report fatness and the pairing kernel"))
    common(sub.add_parser("quotient", help="quotient by the pairing kernel"))
    common(sub.add_parser("d", help="coboundary of a cochain"), cochains=1)
    common(sub.add_parser("cup", help="product of two cochains"), cochains=2)
    common(sub.add_parser("bracket", help="graded bracket of two representable cochains"),
           cochains=2)
    common(sub.add_parser("representable", help="test representability of a cochain"),
           cochains=1)
    db = sub.add_parser("derived-bracket",
                        help="compare e_i . e_j with the derived bracket")
    db.add_argument("i", type=int)
    db.add_argument("j", type=int)
    common(db)
    vf = sub.add_parser("verify", help="run the full identity suite")
    defaults = VerifyConfig()
    vf.add_argument("--fixtures", nargs="+", default=list(defaults.fixtures))
    vf.add_argument("--max-degree", type=int, default=defaults.max_degree)
    vf.add_argument("--seed", type=int, default=defaults.seed)
    vf.add_argument("--samples", type=int, default=defaults.samples)
    vf.add_argument("--format", choices=("text", "json"), default="text")
    vf.add_argument("--out")
    vf.add_argument("--inject-mutation", choices=("zeta-sign", "d0-sign"),
                    help="testing hook: break one sign and prove the suite notices")

    handlers = {
        "check": cmd_check, "center": cmd_center, "fat": cmd_fat,
        "quotient": cmd_quotient, "d": cmd_operator, "cup": cmd_operator,
        "bracket": cmd_operator, "representable": cmd_representable,
        "derived-bracket": cmd_derived_bracket, "verify": cmd_verify,
    }
    return parser, handlers


def main(argv=None):
    parser, handlers = build_parser()
    # only an in-process caller can pass a NUL byte; open() raises ValueError on one
    if any("\0" in arg for arg in (sys.argv[1:] if argv is None else argv)):
        print("input error: arguments cannot contain NUL bytes", file=sys.stderr)
        return EXIT_INPUT_ERROR
    args = parser.parse_args(argv)
    if getattr(args, "cochain", None) is not None:
        needed = 2 if args.command in ("cup", "bracket") else 1
        if len(args.cochain) != needed:
            parser.error(f"{args.command} needs exactly {needed} --cochain argument(s)")
    try:
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except UnknownFixtureError as exc:
        print(f"input error: unknown fixture {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except _CHECK_ERRORS as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:  # anything else is a fault of the program, not of the input
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

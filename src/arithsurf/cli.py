"""Command-line front end with JSON input and output.

Every run emits a single JSON document on stdout; diagnostics go to stderr.
Exit status is 0 on success, 2 on domain errors (the error name travels in
the document), 3 when an internal consistency check fails on validated
input (the document names the error and the stage), and 1 on usage errors
or when the reader closes stdout early.  Identical requests produce
byte-identical output.

Each subcommand imports the layers it runs inside its own branch, so a
fresh process pays only for those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import ArithsurfError, DegreeMismatch, InternalInconsistency, InvalidInput, schema_checked


# Largest accepted sizes.  The work of one command grows polynomially in
# each of them, and past these a command takes many seconds or runs out of
# memory; they are refused as usage errors before any work.
_MAX_GENERIC_TYPE = 32
_MAX_NORMAL_FORM_N = 32
_MAX_JUMP_HEIGHT = 16
_MAX_PRIMES_UP_TO = 256


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        sys.exit(1)

    def parse_known_args(self, args=None, namespace=None):
        # The token after an option that takes a value is that value, even
        # when it begins with "-" (a form or a point with a negative entry).
        args = list(sys.argv[1:] if args is None else args)
        out = []
        while args:
            token = args.pop(0)
            if args and args[0].startswith("-") and self._takes_value(token):
                token = f"{token}={args.pop(0)}"
            out.append(token)
        return super().parse_known_args(out, namespace)

    def _takes_value(self, token: str) -> bool:
        """Whether ``token`` names an option that takes one value: exactly,
        or as a long-option prefix that argparse resolves to a single option
        string (an ambiguous prefix is left to argparse's usage error)."""
        actions = self._option_string_actions
        if token in actions:
            return actions[token].nargs is None
        if not token.startswith("--"):
            return False
        matches = [a for s, a in actions.items() if s.startswith(token)]
        return len(matches) == 1 and matches[0].nargs is None


def _size_at_most(limit: int):
    """argparse type: an integer from 0 to ``limit``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"{value} exceeds the limit {limit}")
        if value < 0:
            raise argparse.ArgumentTypeError(f"{value} is negative")
        return value

    return parse


def _meta() -> dict:
    return {"tool": "arithsurf", "version": __version__}


def _document_text(doc: dict) -> str:
    """The text of a document, the same on stdout and in an ``--output`` file."""
    return json.dumps(doc, indent=2) + "\n"


def _print_document(text: str, status: int) -> int:
    """Print ``text`` and return ``status``, or 1 if the reader closed stdout."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at the null device so that the interpreter's final
        # flush cannot raise again, and exit with nothing on stderr, as
        # Python's signal documentation advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _emit_error(exc: ArithsurfError) -> int:
    doc = {"meta": _meta(), "error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, InternalInconsistency):
        doc["stage"] = exc.stage
        return _print_document(_document_text(doc), 3)
    extra = getattr(exc, "witness", None)
    if extra is not None:
        doc["witness"] = extra.to_json()
    degree = getattr(exc, "degree", None)
    if degree is not None:
        doc["degree"] = degree
    return _print_document(_document_text(doc), 2)


def _parse_jump(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected P:NI, got {text!r}")
    p, ni = int(parts[0]), int(parts[1])
    if ni > _MAX_JUMP_HEIGHT:
        raise ValueError(f"jump height {ni} exceeds the limit {_MAX_JUMP_HEIGHT}")
    return p, ni


@schema_checked
def _presentation_document(obj):
    """The presentation in a result document, a bundle handle, or given bare."""
    from .graded import GradedPresentation

    if "bundle" in obj:
        obj = obj["bundle"]
    return GradedPresentation.from_json(obj.get("presentation", obj))


def _load_bundle(args):
    if getattr(args, "bundle", None):
        from .bundles import bundle_handle

        try:
            with open(args.bundle) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InvalidInput(f"cannot read bundle file {args.bundle}: {exc}") from exc
        pres = _presentation_document(obj)
        if pres.base.kind != "ZZ":
            raise InvalidInput(f"a bundle document must be over ZZ, not {pres.base}")
        return bundle_handle(pres)
    if getattr(args, "normal_form_n", None) is not None:
        from .hirzebruch import NormalForm, bundle_from_normal_form

        nf = NormalForm.make(args.normal_form_n, args.normal_form_f or "0")
        return bundle_from_normal_form(nf)
    if getattr(args, "generic_type", None) is not None:
        from .transforms import prescribed_types

        jumps = [_parse_jump(j) for j in (args.jump or [])]
        return prescribed_types(args.generic_type, jumps)
    raise ValueError("no bundle input given; use --bundle, --generic-type or -n/-f")


def _bundle_input_flags(sub):
    sub.add_argument("--bundle", help="path to a bundle JSON document")
    sub.add_argument(
        "--generic-type", type=_size_at_most(_MAX_GENERIC_TYPE), help="generic type n for prescribed jumps"
    )
    sub.add_argument("--jump", action="append", metavar="P:NI", help="jump prime and height (repeatable)")
    sub.add_argument("-n", dest="normal_form_n", type=_size_at_most(_MAX_NORMAL_FORM_N), help="normal form degree")
    sub.add_argument("-f", dest="normal_form_f", help="normal form coefficient form, e.g. '5*x0*x1'")


def _quotient_from_args(B, args):
    from .graded import parse_form
    from .transforms import FiberQuotient

    p, m = args.prime, args.twist
    twists = B.presentation.map.target.twists
    if args.row and args.g is None and args.h is None:
        texts = args.row.split(";")
        if len(texts) != len(twists):
            raise DegreeMismatch(f"quotient row has {len(texts)} entries for {len(twists)} generators")
        return FiberQuotient.make(p, m, [parse_form(t, degree=m - a) for t, a in zip(texts, twists)])
    if args.row or args.g is None or args.h is None:
        raise ValueError("give either --row or both --g and --h")
    g = parse_form(args.g, degree=m - twists[0])
    h = parse_form(args.h, degree=m - twists[1])
    return FiberQuotient.from_pair(p, m, g, h)


def _profile_payload(B, audit_bound: int | None) -> dict:
    from .bundles import audit_splitting, type_profile
    from .exactlat import is_prime

    payload = {
        "bundle": B.to_json(),
        "profile": type_profile(B).to_json(),
    }
    if audit_bound is not None:
        payload["audit"] = {
            str(p): audit_splitting(B, p).to_json() for p in range(2, audit_bound + 1) if is_prime(p)
        }
    return payload


def _write_output(args, text: str):
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {args.output}: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="arithsurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bundle = sub.add_parser("bundle", help="rank-2 bundle invariants")
    bsub = bundle.add_subparsers(dest="subcommand", required=True)
    for name in ("build", "profile", "check"):
        b = bsub.add_parser(name)
        _bundle_input_flags(b)
        b.add_argument("--primes-up-to", type=_size_at_most(_MAX_PRIMES_UP_TO), dest="primes_up_to")
        b.add_argument("--output", help="also write the result document to a file")

    transform = sub.add_parser("transform", help="fiber-type elementary transformations")
    tsub = transform.add_subparsers(dest="subcommand", required=True)
    for name in ("apply", "factorize"):
        t = tsub.add_parser(name)
        _bundle_input_flags(t)
        t.add_argument("--prime", type=int, required=True)
        t.add_argument("--twist", type=int, required=True, help="target twist m of the fiber line bundle")
        t.add_argument("--g", help="first surjection form")
        t.add_argument("--h", help="second surjection form")
        t.add_argument("--row", help="semicolon-separated forms, one per generator")
        t.add_argument("--output")

    surface = sub.add_parser("surface", help="Hirzebruch surface normal forms")
    ssub = surface.add_subparsers(dest="subcommand", required=True)
    s = ssub.add_parser("normal-form")
    s.add_argument("-n", type=_size_at_most(_MAX_NORMAL_FORM_N), required=True)
    s.add_argument("-f", default="0")
    s.add_argument("--reduce", action="store_true", help="kill the x0^n and x1^n coefficients first")
    s.add_argument("--certify", action="store_true", help="attempt a constancy certificate")
    s.add_argument("--output")

    dp = sub.add_parser("delpezzo", help="point configurations over the integers")
    dsub = dp.add_subparsers(dest="subcommand", required=True)
    for name in ("check", "classify"):
        d = dsub.add_parser(name)
        d.add_argument("--points", required=True, help="comma-separated a:b:c triples")
        d.add_argument("--output")

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--only", type=int, action="append", help="criterion number (repeatable)")
    return parser


def _run_bundle(args) -> dict:
    from .bundles import check_parity, check_type_h0

    B = _load_bundle(args)
    payload = _profile_payload(B, args.primes_up_to)
    if args.subcommand == "check":
        payload["parity_deltas"] = {str(p): d for p, d in check_parity(B).items()}
        payload["type_h0"] = {
            str(p): {"delta": d, "fiber_h0": h} for p, (d, h) in check_type_h0(B).items()
        }
    return payload


def _run_transform(args) -> dict:
    from .bundles import type_profile
    from .transforms import apply_full, blowup_factorization

    B = _load_bundle(args)
    q = _quotient_from_args(B, args)
    if args.subcommand == "factorize":
        record = blowup_factorization(B, q)
        return {"factorization": record.to_json()}
    result = apply_full(B, q)
    return {
        "source": B.to_json(),
        "quotient": q.to_json(),
        "bundle": result.handle.to_json(),
        "profile": type_profile(result.handle).to_json(),
    }


def _run_surface(args) -> dict:
    from .hirzebruch import NormalForm, constancy_check, degree_profile, equation, reduce_coefficients

    nf = NormalForm.make(args.n, args.f)
    if args.reduce:
        nf = reduce_coefficients(nf)
    payload = dict(equation(nf))
    if args.certify:
        # the certificate carries the profile, so the bundle is built once
        result = constancy_check(nf)
        payload["profile"] = result.profile.to_json()
        payload["constancy"] = result.to_json()
    else:
        payload["profile"] = degree_profile(nf).to_json()
    return payload


def _run_delpezzo(args) -> dict:
    from .delpezzo import PointConfiguration, classify, general_position

    config = PointConfiguration.parse(args.points)
    if args.subcommand == "check":
        return {"points": config.to_json(), "verdict": general_position(config).to_json()}
    return classify(config)


def _run_selftest(args) -> dict:
    from .selftest import run_acceptance

    results = run_acceptance(only=args.only)
    for r in results:
        print(r.line(), file=sys.stderr)
    return {
        "criteria": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status = 0
    try:
        if args.command == "bundle":
            payload = _run_bundle(args)
        elif args.command == "transform":
            payload = _run_transform(args)
        elif args.command == "surface":
            payload = _run_surface(args)
        elif args.command == "delpezzo":
            payload = _run_delpezzo(args)
        elif args.command == "selftest":
            payload = _run_selftest(args)
            status = 0 if payload["passed"] else 2
        else:  # pragma: no cover
            raise ValueError(f"unknown command {args.command}")
        text = _document_text({"meta": _meta(), **payload})
        _write_output(args, text)
    except ArithsurfError as exc:
        return _emit_error(exc)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return _print_document(text, status)


if __name__ == "__main__":
    sys.exit(main())

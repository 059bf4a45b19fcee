"""Command-line frontend.

Commands: construct, verify, theta, phi, axioms. Exit codes: 0 success,
1 verification or precondition failure, 2 usage or I/O problems. Outputs
are deterministic for identical flags (fixed seeds, canonical key order,
17-significant-digit floats).
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import axioms, cplx, manifests
from .characters import (
    additive_character_matrix,
    controlled_hadamard_residuals,
    hadamard_residuals,
    multiplicative_character_matrix,
)
from .construct import partition_residuals, ueb_from_field, ueb_from_mub, ueb_residuals
from .errors import DephasingWarning, MubkitError
from .gf import new_field
from .manifests import ManifestError
from .mub import mub_from_ueb, mub_residuals

USAGE_OR_IO = 2
VERIFY_FAIL = 1


def _tolerance(text):
    """``--tol``: a finite positive number. An infinite tolerance would pass
    every law and a NaN, zero or negative one would fail every law."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return tol


def _seed(text):
    """``--seed``: a non-negative integer, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _poly(text):
    """``--poly``: comma-separated integer coefficients, low degree first."""
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def cmd_construct(args) -> int:
    field = new_field(args.p, args.n, args.poly)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wanted = {"field", "ueb", "mub", "chi", "psi"} if args.emit == "all" else {args.emit}

    ueb = ueb_from_field(field) if wanted & {"ueb", "mub"} else None
    build = {
        "field": lambda: manifests.field_manifest(field),
        "ueb": lambda: manifests.ueb_manifest(ueb, field),
        "mub": lambda: manifests.mub_manifest(mub_from_ueb(ueb, args.tol, args.seed)),
        "chi": lambda: manifests.hadamard_manifest(additive_character_matrix(field)),
        "psi": lambda: manifests.hadamard_manifest(multiplicative_character_matrix(field)),
    }
    names = [name for name in build if name in wanted]
    for name in names:
        manifests.write_manifest(build[name](), out / f"{name}.json")
    for name in names:
        print(out / f"{name}.json")
    return 0


def _residuals(path, tol):
    """Residual entries of the manifest at ``path``."""
    obj = manifests.load_manifest(path)
    kind = obj["kind"]
    if kind == "field":
        manifests.field_from_manifest(obj)  # raises if p is not prime or the modulus is reducible
        return [cplx.residual_entry("field_valid", 0.0, tol)]
    if kind == "hadamard":
        return hadamard_residuals(manifests.hadamard_from_manifest(obj), tol)
    if kind == "controlled_hadamard":
        return controlled_hadamard_residuals(manifests.controlled_from_manifest(obj), tol)
    if kind == "mub":
        return mub_residuals(manifests.mub_from_manifest(obj), tol)
    if kind == "ueb":
        ueb = manifests.ueb_from_manifest(obj)
        del obj  # the payloads of a real table take twice its memory
        return ueb_residuals(ueb, tol) + partition_residuals(ueb, tol)
    if kind == "report":
        return manifests.report_from_manifest(obj, tol)
    raise ManifestError(f"unknown manifest kind {kind!r}")


def _print_report(report) -> int:
    """Print one line per law; returns the number of failed laws."""
    for r in report:
        print(f"{r['equation']}: residual {r['residual']:.3e} {'PASS' if r['pass'] else 'FAIL'}")
    return sum(not r["pass"] for r in report)


def cmd_verify(args) -> int:
    return VERIFY_FAIL if _print_report(_residuals(args.path, args.tol)) else 0


def cmd_theta(args) -> int:
    ueb = manifests.ueb_from_manifest(manifests.load_manifest(args.ueb))
    family = mub_from_ueb(ueb, args.tol, args.seed)
    manifests.write_manifest(manifests.mub_manifest(family), args.out)
    print(args.out)
    return 0


def cmd_phi(args) -> int:
    family = manifests.mub_from_manifest(manifests.load_manifest(args.mub))
    controlled = manifests.controlled_from_manifest(manifests.load_manifest(args.hadamards))
    g = manifests.hadamard_from_manifest(manifests.load_manifest(args.g))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DephasingWarning)
        ueb = ueb_from_mub(family, controlled, g, args.tol)
        for w in caught:
            if issubclass(w.category, DephasingWarning):
                print(f"note: {w.message}")
    manifests.write_manifest(manifests.ueb_manifest(ueb), args.out)
    print(args.out)
    return 0


def cmd_axioms(args) -> int:
    field = new_field(args.p, args.n, args.poly)
    report = axioms.run_axiom_suite(field, args.tol)
    failed = _print_report(report)
    worst = max([0.0] + [r["residual"] for r in report])
    print(f"{len(report) - failed}/{len(report)} equations passed (worst residual {worst:.3e})")
    return 0 if failed == 0 else VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Construct and verify maximal MUB families and partitioned "
                    "unitary error bases from finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--tol", type=_tolerance, default=cplx.DEFAULT_TOL)
        if seed:
            p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("construct", help="build field objects and write manifests")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", type=_poly, default=None,
                   help="comma-separated modulus coefficients, low degree first")
    p.add_argument("--emit", choices=["all", "field", "ueb", "mub", "chi", "psi"], default="all")
    p.add_argument("--out", type=str, default=".")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="validate a manifest and print residuals")
    p.add_argument("path")
    common(p, seed=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("theta", help="extract the MUB family of a partitioned UEB")
    p.add_argument("ueb")
    p.add_argument("--out", type=str, required=True)
    common(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("phi", help="build a partitioned UEB from a MUB family and Hadamard data")
    p.add_argument("mub")
    p.add_argument("hadamards")
    p.add_argument("g")
    p.add_argument("--out", type=str, required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("axioms", help="run the full tensor-equation report for a field")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poly", type=_poly, default=None)
    common(p, seed=False)
    p.set_defaults(func=cmd_axioms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_OR_IO
    except MubkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # invalid field parameters on the building commands are usage errors,
        # everywhere else a domain error is a verification failure
        return USAGE_OR_IO if args.command in ("construct", "axioms") else VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())

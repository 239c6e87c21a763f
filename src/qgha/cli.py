"""Command line front end.

Every verb takes the algebra as --field/--q/--f/--g and prints either a
human-readable summary or, with --json, a stable JSON document matching
the schemas shipped under qgha/schemas.  Exit codes: 0 on success (a
negative mathematical verdict is still success), 1 for semantic errors
raised by the library, 2 for usage and parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .algebra import AlgebraSpec, PBWElement, theta
from .errors import PolyParseError, QghaError
from .fields import FieldElement
from .linalg import Matrix
from .modules import (
    MatrixRep,
    ModuleSpec,
    build_matrix_rep,
    enumerate_c_extensions,
    enumerate_simples,
    is_simple_bruteforce,
    is_simple_structural,
    iso_bruteforce,
    iso_structural,
    verify_relations,
)
from .parsing import parse_element, parse_field, parse_poly, parse_scalar
from .spectra import (
    MuSequence,
    enumerate_lambda_orbits,
    nu_table,
    orbit_from_seed,
)
from .structure import (
    center_basis_truncated,
    conformal_witness,
    domain_check,
    verify_z_relations,
)


def _count(text: str) -> int:
    """An argparse type: a nonnegative int, so a negative count is a usage error (exit 2)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgha",
        description="Exact computations in quantum generalized Heisenberg algebras",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, help_text, module_flags=False, second_module=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--field", default="Q", help="Q, GF(p) or GF(p^k)[,mod=<poly in u>]")
        p.add_argument("--q", required=True, help="deformation scalar")
        p.add_argument("--f", required=True, help="polynomial f(h)")
        p.add_argument("--g", required=True, help="polynomial g(h)")
        p.add_argument("--degree-cap", type=_count, default=512, help="cap on intermediate h-degrees")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if module_flags:
            _add_module_flags(p, "")
        if second_module:
            _add_module_flags(p, "2")
        return p

    p = verb("normalize", "rewrite an element into normal form")
    p.add_argument("expr", help="element in generators x, y, h")

    p = verb("multiply", "product of two elements in normal form")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = verb("theta", "the k-th straightening polynomial")
    p.add_argument("--k", type=_count, required=True)

    verb("conformal", "solve g = sigma(a) - q a and verify the Z relations")

    p = verb("center", "basis of the center inside a truncation window")
    p.add_argument("--max-xy", type=_count, required=True, help="largest x/y exponent scanned")
    p.add_argument("--max-h", type=_count, required=True, help="largest h-degree scanned")

    verb("domain", "domain criterion with zero-divisor witnesses")

    p = verb("orbits", "cycles of alpha -> f(alpha)")
    p.add_argument("--k", type=_count, default=8, help="largest period reported")

    p = verb("mu", "mu-sequence over the orbit through alpha")
    p.add_argument("--alpha", required=True, help="orbit seed (must be periodic)")
    p.add_argument("--beta", required=True, help="anchor mu(0)")
    p.add_argument("--k", type=_count, default=8, help="how many values to print")

    p = verb("nu", "nu-table along the forward orbit of alpha")
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=_count, default=8, help="last index: prints nu(0..k)")

    verb("build-module", "matrices of a classified module", module_flags=True)

    verb("verify-relations", "check the defining relations on a module", module_flags=True)

    p = verb("check-simple", "simplicity of a classified module", module_flags=True)
    p.add_argument("--brute", action="store_true", help="also run the subspace search")
    p.add_argument("--search-bound", type=_count, default=10 ** 6)

    p = verb("check-iso", "isomorphism of two classified modules", module_flags=True, second_module=True)
    p.add_argument("--brute", action="store_true", help="also search for an intertwiner")
    p.add_argument("--search-bound", type=_count, default=10 ** 4)

    p = verb("enumerate", "all simple modules of one dimension")
    p.add_argument("--dim", type=_count, required=True)
    p.add_argument("--ext-bound", type=_count, default=1,
                   help="also search family C over GF(p^m) for m up to this bound")
    return parser


def _add_module_flags(p: argparse.ArgumentParser, suffix: str):
    tag = " (second module)" if suffix else ""
    p.add_argument(f"--family{suffix}", required=True, choices=["A", "B", "C"], help=f"module family{tag}")
    p.add_argument(f"--alpha{suffix}", required=True, help=f"orbit seed / C-parameter{tag}")
    p.add_argument(f"--beta{suffix}", help=f"mu anchor, families A and B{tag}")
    p.add_argument(f"--gamma{suffix}", help=f"twist unit, families A and B{tag}")
    p.add_argument(f"--dim{suffix}", type=_count, help=f"dimension, family C{tag}")


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------


def _element_payload(e: PBWElement) -> dict:
    return {
        "element": e.render(),
        "terms": [
            {"x": i, "y": k, "h": e.terms[(i, k)].render()} for (i, k) in e.support()
        ],
    }


def _matrix_payload(m: Matrix) -> list[list[str]]:
    return [[str(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]


def _module_payload(alg: AlgebraSpec, spec: ModuleSpec, rep: MatrixRep) -> dict:
    doc: dict = {"family": spec.family, "dim": spec.dim, "field": str(alg.field)}
    if spec.family in ("A", "B"):
        doc["lambda"] = {
            "period": spec.orbit.period,
            "values": [str(v) for v in spec.orbit.values],
        }
        doc["mu"] = {"anchor": str(spec.mu.anchor), "period": spec.mu.period}
        doc["gamma"] = str(spec.gamma)
    else:
        doc["alpha"] = str(spec.alpha)
    doc["matrices"] = {
        "X": _matrix_payload(rep.x),
        "Y": _matrix_payload(rep.y),
        "H": _matrix_payload(rep.h),
    }
    return doc


def _build_algebra(args) -> AlgebraSpec:
    field = parse_field(args.field)
    return AlgebraSpec(
        field,
        parse_scalar(args.q, field),
        parse_poly(args.f, field, max_degree=args.degree_cap),
        parse_poly(args.g, field, max_degree=args.degree_cap),
        args.degree_cap,
    )


def _module_from_args(alg: AlgebraSpec, args, suffix: str = "") -> ModuleSpec:
    family = getattr(args, f"family{suffix}")
    alpha = parse_scalar(getattr(args, f"alpha{suffix}"), alg.field)
    if family == "C":
        n = getattr(args, f"dim{suffix}")
        if n is None:
            raise PolyParseError(f"family C needs --dim{suffix}", 0)
        return ModuleSpec.family_c(alpha, n)
    beta = getattr(args, f"beta{suffix}")
    gamma = getattr(args, f"gamma{suffix}")
    if beta is None or gamma is None:
        raise PolyParseError(f"families A and B need --beta{suffix} and --gamma{suffix}", 0)
    orbit = orbit_from_seed(alg.f, alpha)
    mu = MuSequence(orbit, alg.q, alg.g, parse_scalar(beta, alg.field))
    spec = ModuleSpec(family, mu=mu, gamma=parse_scalar(gamma, alg.field))
    return spec


# ---------------------------------------------------------------------------
# verb handlers: each returns (payload, human lines)
# ---------------------------------------------------------------------------


def _run_normalize(alg, args):
    e = parse_element(args.expr, alg)
    return _element_payload(e), [e.render()]


def _run_multiply(alg, args):
    e = parse_element(args.lhs, alg) * parse_element(args.rhs, alg)
    return _element_payload(e), [e.render()]


def _run_theta(alg, args):
    t = theta(alg, args.k)
    return {"k": args.k, "poly": t.render()}, [f"theta_{args.k} = {t.render()}"]


def _run_conformal(alg, args):
    witness = conformal_witness(alg)
    if witness is None:
        return {"status": "not_conformal"}, ["not conformal: g is not of the form sigma(a) - q a"]
    report = verify_z_relations(witness)
    payload = {
        "status": "conformal",
        "a": witness.a.render(),
        "z": witness.z.render(),
        "residuals": {
            "defect": report.defect.render(),
            "hz_commutator": report.hz_commutator.render(),
            "zx_residual": report.zx_residual.render(),
            "yz_residual": report.yz_residual.render(),
            "ok": report.ok,
        },
    }
    lines = [
        f"conformal with a = {witness.a.render()}",
        f"Z = {witness.z.render()}",
        f"relations verified: {report.ok}",
    ]
    return payload, lines


def _run_center(alg, args):
    basis = center_basis_truncated(alg, args.max_xy, args.max_h)
    payload = {
        "max_xy": args.max_xy,
        "max_h": args.max_h,
        "dimension": len(basis),
        "basis": [b.render() for b in basis],
    }
    lines = [f"center basis within window (dimension {len(basis)}):"]
    lines += [f"  {b.render()}" for b in basis]
    return payload, lines


def _run_domain(alg, args):
    report = domain_check(alg)
    payload = {"is_domain": report.is_domain, "reason": report.reason}
    lines = [("domain" if report.is_domain else "not a domain") + f": {report.reason}"]
    if not report.is_domain:
        product = report.left * report.right
        payload["witness"] = {
            "left": report.left.render(),
            "right": report.right.render(),
            "product": product.render(),
        }
        lines.append(f"  ({report.left.render()}) * ({report.right.render()}) = {product.render()}")
    return payload, lines


def _run_orbits(alg, args):
    orbits = enumerate_lambda_orbits(alg.field, alg.f, args.k)
    payload = {
        "max_period": args.k,
        "orbits": [
            {"period": o.period, "values": [str(v) for v in o.values]} for o in orbits
        ],
    }
    lines = [f"{len(orbits)} orbit(s) with period <= {args.k}:"]
    lines += [f"  {o}" for o in orbits]
    return payload, lines


def _run_mu(alg, args):
    orbit = orbit_from_seed(alg.f, parse_scalar(args.alpha, alg.field))
    mu = MuSequence(orbit, alg.q, alg.g, parse_scalar(args.beta, alg.field))
    values = mu.values(args.k)
    payload = {
        "period": orbit.period,
        "values": [str(v) for v in orbit.values],
        "anchor": str(mu.anchor),
        "muPeriod": mu.period,
        "muValues": [str(v) for v in values],
    }
    lines = [
        f"lambda-orbit {orbit} (period {orbit.period})",
        f"mu period: {mu.period if mu.period else 'infinite'}",
        "mu(0..{}) = {}".format(args.k - 1, ", ".join(str(v) for v in values)),
    ]
    return payload, lines


def _run_nu(alg, args):
    table = nu_table(alg, parse_scalar(args.alpha, alg.field), args.k)
    payload = {"alpha": str(table.alpha), "values": [str(v) for v in table.values]}
    lines = ["nu(0..{}) = {}".format(args.k, ", ".join(str(v) for v in table.values))]
    return payload, lines


def _run_build_module(alg, args):
    spec = _module_from_args(alg, args)
    rep = build_matrix_rep(alg, spec)
    payload = _module_payload(alg, spec, rep)
    lines = [spec.describe(), "X:", str(rep.x), "Y:", str(rep.y), "H:", str(rep.h)]
    return payload, lines


def _run_verify_relations(alg, args):
    spec = _module_from_args(alg, args)
    rep = build_matrix_rep(alg, spec)
    report = verify_relations(alg, rep)
    payload = {
        "ok": report.ok,
        "residuals": {
            "hx": _matrix_payload(report.hx_residual),
            "yh": _matrix_payload(report.yh_residual),
            "yx": _matrix_payload(report.yx_residual),
        },
    }
    return payload, [f"relations hold: {report.ok}"]


def _run_check_simple(alg, args):
    spec = _module_from_args(alg, args)
    verdict = is_simple_structural(alg, spec)
    payload = {"simple": verdict.simple, "certificate": verdict.certificate}
    lines = [f"simple: {verdict.simple} ({verdict.certificate})"]
    if args.brute:
        brute = is_simple_bruteforce(build_matrix_rep(alg, spec), args.search_bound)
        payload["bruteforce"] = brute
        lines.append(f"brute-force agrees: {brute == verdict.simple}")
    return payload, lines


def _run_check_iso(alg, args):
    s1 = _module_from_args(alg, args)
    s2 = _module_from_args(alg, args, "2")
    verdict = iso_structural(alg, s1, s2)
    payload = {"isomorphic": verdict}
    lines = [f"isomorphic: {verdict}"]
    if args.brute:
        brute = iso_bruteforce(
            build_matrix_rep(alg, s1), build_matrix_rep(alg, s2), args.search_bound
        )
        payload["bruteforce"] = brute
        lines.append(f"brute-force agrees: {brute == verdict}")
    return payload, lines


def _run_enumerate(alg, args):
    specs = enumerate_simples(alg, args.dim)
    modules = [_module_payload(alg, s, build_matrix_rep(alg, s)) for s in specs]
    payload = {"dim": args.dim, "count": len(specs), "modules": modules}
    lines = [f"{len(specs)} simple module(s) of dimension {args.dim}:"]
    lines += [f"  {s.describe()}" for s in specs]
    if args.ext_bound > 1:
        extras = enumerate_c_extensions(alg, args.dim, args.ext_bound)
        payload["extensions"] = [
            _module_payload(ext_alg, s, build_matrix_rep(ext_alg, s)) for ext_alg, s in extras
        ]
        lines.append(f"{len(extras)} additional family-C module(s) over extensions:")
        lines += [f"  {s.describe()} over {ext_alg.field}" for ext_alg, s in extras]
    return payload, lines


_HANDLERS = {
    "normalize": _run_normalize,
    "multiply": _run_multiply,
    "theta": _run_theta,
    "conformal": _run_conformal,
    "center": _run_center,
    "domain": _run_domain,
    "orbits": _run_orbits,
    "mu": _run_mu,
    "nu": _run_nu,
    "build-module": _run_build_module,
    "verify-relations": _run_verify_relations,
    "check-simple": _run_check_simple,
    "check-iso": _run_check_iso,
    "enumerate": _run_enumerate,
}


# parse_args leaves the parser as it was, so one serves every call
_parser = functools.lru_cache(maxsize=1)(build_parser)


def run(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    alg = _build_algebra(args)
    payload, lines = _HANDLERS[args.verb](alg, args)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
        return code
    except PolyParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QghaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left early (qgha ... | head); what is still buffered
        # goes to devnull, so the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Every verb takes the algebra as --field/--q/--f/--g and prints either a
human-readable summary or, with --json, a stable JSON document matching
the schemas shipped under qgha/schemas.  Exit codes: 0 on success (a
negative mathematical verdict is still success), 1 for semantic errors
raised by the library, 2 for usage and parse errors.

A --json document is byte for byte what json.dumps(document, indent=2)
writes; a module document is written straight from its bands (_bands).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .algebra import AlgebraSpec, PBWElement, theta
from .errors import PolyParseError, QghaError
from .fields import FieldElement
from .linalg import Matrix
from .modules import (
    ModuleSpec,
    _bands,
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

    p = verb("check-iso", "isomorphism of two classified modules", module_flags=True, second_module=True)
    p.add_argument("--brute", action="store_true", help="also search for an intertwiner")

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


class _Texts(dict):
    """Raw value -> str of its element of one field, each rendered once, with str(field) as name."""

    __slots__ = ("field", "name", "rows")

    def __init__(self, field):
        super().__init__()
        self.field, self.name, self.rows = field, str(field), {}

    def __missing__(self, v):
        text = self[v] = str(FieldElement(self.field, v))
        return text

    def row(self, n: int, j: int, v, nl: str) -> str:
        """The indent-2 JSON of the n-cell row with v in column j (zeros when v is None) at nl, once per key."""
        key = (n, j, v, nl)
        text = self.rows.get(key)
        if text is None:
            inner = nl + "  "
            cells = [_quote(self[self.field._ring.zero])] * n
            if v is not None:
                cells[j] = _quote(self[v])
            text = self.rows[key] = "[" + inner + ("," + inner).join(cells) + nl + "]"
        return text


def _matrix_payload(m: Matrix, texts: _Texts) -> list[list[str]]:
    return [list(map(texts.__getitem__, row)) for row in m.rows]


class _ModuleDoc(NamedTuple):
    """A module document, which _dump writes straight from the raw entries of modules._bands."""

    texts: _Texts
    spec: ModuleSpec
    bands: tuple

    def write(self, nl: str, out: list[str]):
        """Append what json.dumps of the module's document writes, indented as nl says."""
        t, spec, (lam, x_band, x_corner, y_band, y_corner) = self
        n = spec.dim
        i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
        out.append(f'{{{i1}"family": {_quote(spec.family)},{i1}"dim": {n},{i1}"field": {_quote(t.name)}')
        if spec.family == "C":
            out.append(f',{i1}"alpha": {_quote(t[spec.alpha.value])}')
        else:
            orbit, mu = spec.orbit, spec.mu
            values = ("," + i3).join(_quote(t[v.value]) for v in orbit.values)
            out.append(f',{i1}"lambda": {{{i2}"period": {orbit.period},{i2}"values": [{i3}{values}{i2}]{i1}}}'
                       f',{i1}"mu": {{{i2}"anchor": {_quote(t[mu.anchor.value])},{i2}"period": {mu.period}{i1}}}'
                       f',{i1}"gamma": {_quote(t[spec.gamma.value])}')
        x = [t.row(n, n - 1, x_corner, i3)] + [t.row(n, j, v, i3) for j, v in enumerate(x_band)]
        y = [t.row(n, j + 1, v, i3) for j, v in enumerate(y_band)] + [t.row(n, 0, y_corner, i3)]
        h = [t.row(n, j, v, i3) for j, v in enumerate(lam)]
        sep = "," + i3
        out.append(f',{i1}"matrices": {{{i2}"X": [{i3}{sep.join(x)}{i2}],{i2}"Y": [{i3}{sep.join(y)}{i2}]'
                   f',{i2}"H": [{i3}{sep.join(h)}{i2}]{i1}}}{nl}}}')


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2) for dicts with str keys, lists, str, int, bool, None and _ModuleDoc.

    With indent, json runs its pure-Python encoder; this writes the same
    text with one join per list of strings, and a _ModuleDoc as its document.
    """
    out: list[str] = []
    _dump(doc, "\n", out)
    return "".join(out)


def _dump(o, nl: str, out: list[str]):
    """Append the indent-2 JSON of o, which starts on a line indented as nl says."""
    if type(o) is _ModuleDoc:
        o.write(nl, out)
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in o.items():
            if type(v) is str:
                out.append(sep + _quote(k) + ": " + _quote(v))
            else:
                out.append(sep + _quote(k) + ": ")
                _dump(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, list):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if type(o[0]) is str:
            try:
                out.append("[" + inner + ("," + inner).join(map(_quote, o)) + nl + "]")
                return
            except TypeError:  # not all strings
                pass
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _dump(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


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
# verb handlers: each computes its result once, then builds the JSON payload
# under --json and the text lines otherwise
# ---------------------------------------------------------------------------


def _run_normalize(alg, args):
    e = parse_element(args.expr, alg)
    return _element_payload(e) if args.json else [e.render()]


def _run_multiply(alg, args):
    e = parse_element(args.lhs, alg) * parse_element(args.rhs, alg)
    return _element_payload(e) if args.json else [e.render()]


def _run_theta(alg, args):
    t = theta(alg, args.k)
    return {"k": args.k, "poly": t.render()} if args.json else [f"theta_{args.k} = {t.render()}"]


def _run_conformal(alg, args):
    witness = conformal_witness(alg)
    if witness is None:
        return {"status": "not_conformal"} if args.json else ["not conformal: g is not of the form sigma(a) - q a"]
    report = verify_z_relations(witness)
    if args.json:
        return {
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
    return [
        f"conformal with a = {witness.a.render()}",
        f"Z = {witness.z.render()}",
        f"relations verified: {report.ok}",
    ]


def _run_center(alg, args):
    basis = center_basis_truncated(alg, args.max_xy, args.max_h)
    if args.json:
        return {
            "max_xy": args.max_xy,
            "max_h": args.max_h,
            "dimension": len(basis),
            "basis": [b.render() for b in basis],
        }
    return [f"center basis within window (dimension {len(basis)}):"] + [f"  {b.render()}" for b in basis]


def _run_domain(alg, args):
    report = domain_check(alg)
    product = None if report.is_domain else report.left * report.right
    if args.json:
        payload = {"is_domain": report.is_domain, "reason": report.reason}
        if product is not None:
            payload["witness"] = {
                "left": report.left.render(),
                "right": report.right.render(),
                "product": product.render(),
            }
        return payload
    lines = [("domain" if report.is_domain else "not a domain") + f": {report.reason}"]
    if product is not None:
        lines.append(f"  ({report.left.render()}) * ({report.right.render()}) = {product.render()}")
    return lines


def _run_orbits(alg, args):
    orbits = enumerate_lambda_orbits(alg.field, alg.f, args.k)
    if args.json:
        return {
            "max_period": args.k,
            "orbits": [
                {"period": o.period, "values": [str(v) for v in o.values]} for o in orbits
            ],
        }
    return [f"{len(orbits)} orbit(s) with period <= {args.k}:"] + [f"  {o}" for o in orbits]


def _run_mu(alg, args):
    orbit = orbit_from_seed(alg.f, parse_scalar(args.alpha, alg.field))
    mu = MuSequence(orbit, alg.q, alg.g, parse_scalar(args.beta, alg.field))
    values = mu.values(args.k)
    if args.json:
        return {
            "period": orbit.period,
            "values": [str(v) for v in orbit.values],
            "anchor": str(mu.anchor),
            "muPeriod": mu.period,
            "muValues": [str(v) for v in values],
        }
    return [
        f"lambda-orbit {orbit} (period {orbit.period})",
        f"mu period: {mu.period if mu.period else 'infinite'}",
        "mu(0..{}) = {}".format(args.k - 1, ", ".join(str(v) for v in values)),
    ]


def _run_nu(alg, args):
    table = nu_table(alg, parse_scalar(args.alpha, alg.field), args.k)
    if args.json:
        return {"alpha": str(table.alpha), "values": [str(v) for v in table.values]}
    return ["nu(0..{}) = {}".format(args.k, ", ".join(str(v) for v in table.values))]


def _run_build_module(alg, args):
    spec = _module_from_args(alg, args)
    if args.json:
        return _ModuleDoc(_Texts(alg.field), spec, _bands(alg, spec))
    rep = build_matrix_rep(alg, spec)
    return [spec.describe(), "X:", str(rep.x), "Y:", str(rep.y), "H:", str(rep.h)]


def _run_verify_relations(alg, args):
    spec = _module_from_args(alg, args)
    report = verify_relations(alg, build_matrix_rep(alg, spec))
    if not args.json:
        return [f"relations hold: {report.ok}"]
    texts = _Texts(alg.field)
    return {
        "ok": report.ok,
        "residuals": {
            "hx": _matrix_payload(report.hx_residual, texts),
            "yh": _matrix_payload(report.yh_residual, texts),
            "yx": _matrix_payload(report.yx_residual, texts),
        },
    }


def _run_check_simple(alg, args):
    spec = _module_from_args(alg, args)
    verdict = is_simple_structural(alg, spec)
    brute = is_simple_bruteforce(build_matrix_rep(alg, spec)) if args.brute else None
    if args.json:
        payload = {"simple": verdict.simple, "certificate": verdict.certificate}
        if args.brute:
            payload["bruteforce"] = brute
        return payload
    lines = [f"simple: {verdict.simple} ({verdict.certificate})"]
    if args.brute:
        lines.append(f"brute-force agrees: {brute == verdict.simple}")
    return lines


def _run_check_iso(alg, args):
    s1 = _module_from_args(alg, args)
    s2 = _module_from_args(alg, args, "2")
    verdict = iso_structural(alg, s1, s2)
    brute = iso_bruteforce(build_matrix_rep(alg, s1), build_matrix_rep(alg, s2)) if args.brute else None
    if args.json:
        payload = {"isomorphic": verdict}
        if args.brute:
            payload["bruteforce"] = brute
        return payload
    lines = [f"isomorphic: {verdict}"]
    if args.brute:
        lines.append(f"brute-force agrees: {brute == verdict}")
    return lines


def _run_enumerate(alg, args):
    specs = enumerate_simples(alg, args.dim)
    extras = enumerate_c_extensions(alg, args.dim, args.ext_bound) if args.ext_bound > 1 else None
    if args.json:
        texts = functools.cache(_Texts)  # one table per field
        payload = {
            "dim": args.dim,
            "count": len(specs),
            "modules": [_ModuleDoc(texts(alg.field), s, _bands(alg, s)) for s in specs],
        }
        if extras is not None:
            payload["extensions"] = [_ModuleDoc(texts(ext_alg.field), s, _bands(ext_alg, s)) for ext_alg, s in extras]
        return payload
    lines = [f"{len(specs)} simple module(s) of dimension {args.dim}:"]
    lines += [f"  {s.describe()}" for s in specs]
    if extras is not None:
        lines.append(f"{len(extras)} additional family-C module(s) over extensions:")
        lines += [f"  {s.describe()} over {ext_alg.field}" for ext_alg, s in extras]
    return lines


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
    out = _HANDLERS[args.verb](_build_algebra(args), args)
    if args.json:
        print(_dumps(out))
    else:
        for line in out:
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

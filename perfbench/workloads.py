"""The three workloads: inputs made from the seed, one op at a time.

Each workload is built by ``build(name, seed)`` and returns a
:class:`Workload`.  Its ``rounds()`` generator yields lists of ops; a round
mixes every op kind of the workload in fixed proportions, so a run that
stops after a whole round measures the same mix whatever its length.  An
op is a ``(kind, run, check)`` triple: ``run()`` is the timed call into the
engine and returns its result; ``check(result)`` runs afterwards, outside
the timed interval, and returns the canonical text that feeds the output
digest, or raises ``CheckFailed`` when an oracle disagrees.  ``min_ops``
is how many leading ops form the digest; every run does at least that many.

The engine is reached only through module attributes
(``structure.center_basis_truncated``, not a name imported into this file),
so the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from qgha import algebra, cli, fields, modules, poly, structure

Op = tuple[str, Callable[[], object], Callable[[object], str]]


class CheckFailed(Exception):
    """An op returned, but its output disagrees with its oracle."""


def _expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Workload:
    rounds: Callable[[], Iterator[list[Op]]]
    min_ops: int


# ---------------------------------------------------------------------------
# assoc: associativity triples over the ten criterion-1 algebras
# ---------------------------------------------------------------------------


def _criterion_1_algebras() -> list:
    """Ten algebras over Q, GF(5) and GF(7^2) with deg f, g <= 3 and varied q."""
    QQ = fields.FieldSpec.rationals()
    F5 = fields.FieldSpec.prime(5)
    F49 = fields.FieldSpec.extension(7, 2)
    u = F49.generator
    ints = poly.Poly.from_ints
    rows = [
        (QQ, 1, [0, 0, 1], [0, 1]),
        (QQ, 2, [1, 0, 1], [0, -1, 0, 1]),
        (QQ, -1, [0, 0, 0, 1], [0, 0, 1]),
        (QQ, Fraction(1, 2), [1, 2], [3]),
        (F5, 2, [0, 0, 1], [0, 1]),
        (F5, 4, [0, 1, 0, 1], [0, 3, 1]),
        (F5, 0, [1, 1], [2, 0, 0, 1]),
    ]
    algs = [algebra.AlgebraSpec(F, F.element(q), ints(F, f), ints(F, g), 4096) for F, q, f, g in rows]
    z, one = F49.zero, F49.one
    algs.append(algebra.AlgebraSpec(F49, u, ints(F49, [0, 0, 1]), poly.Poly(F49, [one, u]), 4096))
    algs.append(algebra.AlgebraSpec(F49, F49.element(3), poly.Poly(F49, [u, z, z, one]),
                                    poly.Poly.gen(F49), 4096))
    algs.append(algebra.AlgebraSpec(F49, F49.element(6), poly.Poly(F49, [z, z, u]),
                                    poly.Poly(F49, [u, z, one]), 4096))
    return algs


def _random_element(alg, shape_rng, rng):
    """The criterion-1 element shape: 1-2 terms x^i p(h) y^k, i, k <= 2, deg p <= 2.

    ``shape_rng`` draws the terms and degrees, ``rng`` the coefficients.
    """
    terms = {}
    for _ in range(shape_rng.randint(1, 2)):
        key = (shape_rng.randint(0, 2), shape_rng.randint(0, 2))
        terms[key] = poly.Poly(alg.field, [alg.field.random_element(rng)
                                           for _ in range(shape_rng.randint(1, 3))])
    return algebra.PBWElement(alg, terms)


def _assoc(seed: int) -> Workload:
    algs = _criterion_1_algebras()
    rng = random.Random(f"assoc:{seed}")
    # The shapes of the elements (which x^i y^k terms, what h-degrees) set
    # most of a triple's cost and its heavy tail; drawing them from one
    # fixed stream keeps the cost of a run the same across seeds, while the
    # seed draws every coefficient.
    shape_rng = random.Random("assoc:shapes")

    def triple(alg):
        a, b, c = (_random_element(alg, shape_rng, rng) for _ in range(3))

        def run():
            return (a * b) * c, a * (b * c)

        def check(res):
            left, right = res
            _expect(left == right, f"(ab)c != a(bc) over {alg}")
            return left.render()

        return ("triple", run, check)

    def rounds():
        while True:
            yield [triple(alg) for _ in range(5) for alg in algs]

    return Workload(rounds, min_ops=300)


# ---------------------------------------------------------------------------
# center: truncated centers and conformal witnesses over Q, GF(5), GF(7^2)
# ---------------------------------------------------------------------------

# Window ranges (max_xy, max_h) per field: the element-wise paths (Q,
# GF(7^2)) get smaller windows than the numpy path (GF(5)) so that no field
# dominates a round and a run holds well over 100 solves.
_WINDOWS = {
    "Q": ((2, 3), (3, 6)),
    "GFp": ((3, 6), (6, 16)),
    "GFpk": ((2, 3), (3, 6)),
}


def _center_fields():
    F49 = fields.FieldSpec.extension(7, 2)
    u = F49.generator
    return {
        "Q": (fields.FieldSpec.rationals(), [2, 3, -2, Fraction(1, 2), Fraction(-1, 3)]),
        "GFp": (fields.FieldSpec.prime(5), [2, 3, 4]),
        "GFpk": (F49, [u, u + 1, F49.element(3), F49.element(6)]),
    }


def _center_algebras(rng, F, qs):
    """Eight generic-g and eight conformal-g algebras over F with deg f = 2.

    Conformal algebras get g = sigma(a) - q a for a random a of degree 1, so
    a witness exists by construction.
    """
    def small():
        if F.is_rationals:
            return F.element(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        return F.random_element(rng)

    generic, conformal = [], []
    for _ in range(8):
        q = F.element(rng.choice(qs))
        f = poly.Poly(F, [small(), small(), F.one])
        g = poly.Poly(F, [small(), small(), small()])
        generic.append(algebra.AlgebraSpec(F, q, f, g, 4096))
        q = F.element(rng.choice(qs))
        f = poly.Poly(F, [small(), small(), F.one])
        a = poly.Poly(F, [small(), F.one])
        g = a.compose(f) - a * q
        conformal.append(algebra.AlgebraSpec(F, q, f, g, 4096))
    return generic, conformal


def _center(seed: int) -> Workload:
    rng = random.Random(f"center:{seed}")
    table = {}
    for kind, (F, qs) in _center_fields().items():
        table[kind] = _center_algebras(rng, F, qs)

    def center_op(alg, kind):
        (xy_lo, xy_hi), (h_lo, h_hi) = _WINDOWS[kind]
        max_xy, max_h = rng.randint(xy_lo, xy_hi), rng.randint(h_lo, h_hi)

        def run():
            return structure.center_basis_truncated(alg, max_xy, max_h)

        def check(basis):
            one = algebra.PBWElement.one(alg)
            _expect(one in basis, "1 is missing from the center basis")
            gens = algebra.generators(alg)
            for b in basis:
                for gen in gens:
                    _expect(algebra.commutator(b, gen).is_zero,
                            f"basis element {b} does not commute with {gen}")
            return f"{max_xy},{max_h}:" + "|".join(b.render() for b in basis)

        return ("center", run, check)

    def witness_op(alg):
        def run():
            return structure.conformal_witness(alg)

        def check(w):
            _expect(w is not None, "no witness for a conformal g")
            _expect(structure.verify_z_relations(w).ok, "Z relations fail")
            return f"a={w.a.render()};z={w.z.render()}"

        return ("witness", run, check)

    def rounds():
        while True:
            ops = []
            for _ in range(3):
                for kind, (generic, conformal) in table.items():
                    ops.append(center_op(rng.choice(generic), kind))
                    ops.append(center_op(rng.choice(conformal), kind))
                    ops.append(witness_op(rng.choice(conformal)))
            yield ops

    return Workload(rounds, min_ops=100)


# ---------------------------------------------------------------------------
# modules: the criterion-6 grid, criterion-8 iso pairs and the enumerate CLI
# ---------------------------------------------------------------------------


def _module_grid():
    """The criterion-6 algebras over GF(5): f in {h^2, h^3}, g in {h, h^2}, q in {2, 3, 4}."""
    F5 = fields.FieldSpec.prime(5)
    ints = poly.Poly.from_ints
    return [
        algebra.AlgebraSpec(F5, F5.element(q), ints(F5, f), ints(F5, g))
        for f, g, q in itertools.product(([0, 0, 1], [0, 0, 0, 1]), ([0, 1], [0, 0, 1]), (2, 3, 4))
    ]


def _cli_argvs() -> tuple[list[list[str]], list[list[str]]]:
    """Pools of enumerate argvs: GF(5) with extension search, and GF(2^8).

    Rounds draw from the pools, so each argv recurs within a run (which the
    byte-identity check needs) and the cost of a run does not hang on one
    draw.
    """
    gf5 = [["enumerate", "--field", "GF(5)", "--q", q, "--f", f, "--g", g,
            "--dim", "4", "--ext-bound", "2", "--json"]
           for q, f, g in itertools.product(("2", "3"), ("h^3", "h^2"), ("h", "h^2 + h"))]
    gf256 = [["enumerate", "--field", "GF(2^8)", "--q", q, "--f", "h^2", "--g", g, "--dim", d, "--json"]
             for q, g, d in itertools.product(("u", "u + 1", "u^2"), ("h", "h + 1"), ("1", "2"))]
    return gf5, gf256


# Ops per round by module dimension.  Op cost grows steeply with the
# dimension; fixed counts give every round the same mix of cheap and dear
# ops, so p50 and p90 fall in the same op class whatever the seed.
_SIMPLE_PER_DIM = {1: 8, 2: 8, 3: 4, 4: 12}
_ISO_PER_DIM = {1: 12, 2: 12, 3: 6, 4: 24}


def _cells_by_dim(algs) -> dict[int, list]:
    cells: dict[int, list] = {}
    for n in range(1, 5):
        found = [(alg, n) for alg in algs if modules.enumerate_simples(alg, n)]
        if found:
            cells[n] = found
    return cells


def _modules(seed: int) -> Workload:
    rng = random.Random(f"modules:{seed}")
    # As in assoc: the (algebra, dim) cells, which set an op's cost, come
    # from one fixed stream; the seed picks the modules, pairs and argvs.
    cell_rng = random.Random("modules:cells")
    grid = _module_grid()
    F5 = fields.FieldSpec.prime(5)
    iso_algs = [
        algebra.AlgebraSpec(F5, F5.element(q), poly.Poly.from_ints(F5, [0, 0, 0, 1]),
                            poly.Poly.from_ints(F5, g))
        for q, g in ((2, [0, 1]), (3, [0, 1]), (2, [0, 0, 1]))
    ]
    gf5_argvs, gf256_argvs = _cli_argvs()
    cli_seen: dict[tuple, str] = {}

    def simple_op(alg, n):
        pick = rng.random()

        def run():
            specs = modules.enumerate_simples(alg, n)
            spec = specs[int(pick * len(specs))]
            rep = modules.build_matrix_rep(alg, spec)
            rel = modules.verify_relations(alg, rep)
            structural = modules.is_simple_structural(alg, spec).simple
            brute = modules.is_simple_bruteforce(rep)
            return spec, rep, rel.ok, structural, brute

        def check(res):
            spec, rep, ok, structural, brute = res
            _expect(ok, f"{spec.describe()} violates the defining relations")
            _expect(structural and brute, f"{spec.describe()}: structural {structural}, brute {brute}")
            return f"{spec.describe()}:{rep.x}|{rep.y}|{rep.h}"

        return ("simple", run, check)

    def iso_op(alg, n):
        pick_i, pick_j, same = rng.random(), rng.random(), rng.random() < 0.25

        def run():
            specs = modules.enumerate_simples(alg, n)
            i = int(pick_i * len(specs))
            j = i if same else int(pick_j * len(specs))
            r1 = modules.build_matrix_rep(alg, specs[i])
            r2 = modules.build_matrix_rep(alg, specs[j])
            return i, j, modules.iso_structural(alg, specs[i], specs[j]), modules.iso_bruteforce(r1, r2)

        def check(res):
            i, j, structural, brute = res
            _expect(structural == brute == (i == j),
                    f"iso({i}, {j}): structural {structural}, brute {brute}")
            return f"{n}:{i},{j}:{structural}"

        return ("iso", run, check)

    def cli_op(argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            return code, buf.getvalue()

        def check(res):
            code, out = res
            _expect(code == 0, f"qgha {' '.join(argv)} exited {code}")
            prev = cli_seen.setdefault(tuple(argv), out)
            _expect(prev == out, f"qgha {' '.join(argv)} output changed between calls")
            return out

        return ("cli", run, check)

    def rounds():
        # (algebra, dim) cells that have at least one simple module, by dim.
        # Choosing cells is input preparation, not engine set-up, so it runs
        # with the first round instead of inside the set-up time.
        cells, iso_cells = _cells_by_dim(grid), _cells_by_dim(iso_algs)
        while True:
            ops = [simple_op(*cell_rng.choice(cells[n])) for n in cells for _ in range(_SIMPLE_PER_DIM[n])]
            ops += [iso_op(*cell_rng.choice(iso_cells[n])) for n in iso_cells for _ in range(_ISO_PER_DIM[n])]
            ops += [cli_op(rng.choice(gf5_argvs)) for _ in range(4)]
            ops.append(cli_op(rng.choice(gf256_argvs)))
            rng.shuffle(ops)
            yield ops

    return Workload(rounds, min_ops=200)


BUILDERS = {"assoc": _assoc, "center": _center, "modules": _modules}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)

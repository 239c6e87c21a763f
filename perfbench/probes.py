"""Layer kernel probes: field ops, Poly products and rref at fixed sizes.

Each probe times one engine call on inputs made from the seed, outside any
workload and with tracing removed, and reports the median repetition.  A
probe repeats at least three times, so a cold first call does not set the
median, and until it has spent ``_BUDGET_S``; the large Q and GF(7^2)
products and eliminations take a second or more and stop after one.
"""

from __future__ import annotations

import random
import statistics
import time

from qgha import fields, linalg, poly

_BUDGET_S = 0.05
_LONG_S = 1.0
_MAX_REPS = 15
_SCALARS = 2000
_POLY_DEGREES = (8, 32, 128, 512)
_RREF_SHAPES = ((48, 16), (200, 45))


def _probe_fields():
    return {
        "Q": fields.FieldSpec.rationals(),
        "GFp": fields.FieldSpec.prime(5),
        "GFpk": fields.FieldSpec.extension(7, 2),
    }


def _median_time(fn) -> float:
    times: list[float] = []
    while True:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        spent = sum(times)
        if spent >= _LONG_S or len(times) >= _MAX_REPS or (len(times) >= 3 and spent >= _BUDGET_S):
            return statistics.median(times)


def _nonzero(F, rng):
    while True:
        a = F.random_element(rng)
        if not a.is_zero:
            return a


def run_probes(seed: int) -> dict[str, float]:
    rng = random.Random(f"probes:{seed}")
    out: dict[str, float] = {}
    for kind, F in _probe_fields().items():
        xs = [_nonzero(F, rng) for _ in range(_SCALARS)]
        ys = [_nonzero(F, rng) for _ in range(_SCALARS)]

        def mul():
            for a, b in zip(xs, ys):
                a * b

        def inv():
            for a in xs:
                a.inverse()

        out[f"fields.mul_ns.{kind}"] = _median_time(mul) / _SCALARS * 1e9
        out[f"fields.inv_ns.{kind}"] = _median_time(inv) / _SCALARS * 1e9

        for d in _POLY_DEGREES:
            a = poly.Poly(F, [F.random_element(rng) for _ in range(d)] + [F.one])
            b = poly.Poly(F, [F.random_element(rng) for _ in range(d)] + [F.one])
            out[f"poly.mul_ms.d{d}.{kind}"] = _median_time(lambda: a * b) * 1e3

        for r, c in _RREF_SHAPES:
            rows = [[F.random_element(rng) for _ in range(c)] for _ in range(r)]
            out[f"linalg.rref_ms.{r}x{c}.{kind}"] = _median_time(lambda: linalg.rref(rows, F)) * 1e3
    return out

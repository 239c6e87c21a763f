"""qgha benchmark: one closed-loop workload per process, one caller, no threads.

    python3 perfbench/run.py --workload assoc --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, each in a fresh process

Run from the repository root, or anywhere: the engine is imported from the
``src`` directory next to this one, never from an installed copy.  With
``--trace 0`` the last line of stdout is a JSON object whose metrics are the
end-to-end metrics; with ``--trace 1`` they are the per-layer metrics.  The
lines before it give the same numbers for a human, with the machine, the
seed, sample counts and the output digest.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("assoc", "center", "modules")
SETUP_SAMPLES = 7

# Per-layer span metrics: metric prefix -> span labels it sums.  Each yields
# <prefix>.calls and <prefix>.self_s.  Poly.__divmod__ has none: only
# domain_check with q = 0 calls it, and no workload does.
SPAN_METRICS = {
    "poly.mul": ("poly.Poly.__mul__",),
    "poly.add": ("poly.Poly.__add__",),
    "poly.compose": ("poly.Poly.compose",),
    "algebra.mul": ("algebra.PBWElement.__mul__",),
    "algebra.theta": ("algebra.theta",),
    "spectra.enumerate_lambda_orbits": ("spectra.enumerate_lambda_orbits",),
    "spectra.mu_period": ("spectra.mu_period",),
    "spectra.nu_table": ("spectra.nu_table",),
    "structure.center_basis_truncated": ("structure.center_basis_truncated",),
    "structure.conformal_witness": ("structure.conformal_witness",),
    "modules.enumerate_simples": ("modules.enumerate_simples",),
    "modules.build_matrix_rep": ("modules.build_matrix_rep",),
    "modules.verify_relations": ("modules.verify_relations",),
    "modules.is_simple_bruteforce": ("modules.is_simple_bruteforce",),
    "modules.iso_bruteforce": ("modules.iso_bruteforce",),
    "parsing.parse": ("parsing.parse_poly", "parsing.parse_element", "parsing.parse_scalar",
                      "parsing.parse_field"),
    "cli.main": ("cli.main",),
}


def _fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_engine():
    if not os.path.isfile(os.path.join(SRC, "qgha", "__init__.py")):
        _fail(f"no engine source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import qgha
    import qgha.cli  # noqa: F401  (the cli layer is not imported by the package)

    if os.path.dirname(os.path.dirname(os.path.abspath(qgha.__file__))) != SRC:
        _fail(f"imported qgha from {qgha.__file__}, not from {SRC}")


def setup(workload: str, seed: int):
    """Import the engine and build the workload; returns (workload, seconds)."""
    t0 = time.perf_counter()
    _import_engine()
    import workloads

    wl = workloads.build(workload, seed)
    return wl, time.perf_counter() - t0


def _child_setup(args) -> float:
    """One set-up in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def machine(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_loop() -> float:
    """Seconds taken by a fixed slice of pure-Python exact arithmetic."""
    t0 = time.perf_counter()
    acc, tally = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i % 7, i % 11 + 1)
        tally[i % 13] = tally.get(i % 13, 0) + i
    return time.perf_counter() - t0


class Round:
    """Op count, op seconds and latencies of one round."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.done = 0
        self.time = 0.0
        self.latency: list[float] = []


class Loop:
    """Closed loop over whole rounds of ops until ``seconds`` of op time is spent.

    Every op is timed alone and checked after the clock stops.  The first
    ``min_ops`` ops feed the output digest; peak RSS is read once they are
    done, so it measures the same work on every run.  With a tracer, half
    of the rounds run traced until the span store is full.  ``between_rounds(loop)`` runs after each
    round, outside any timed interval.
    """

    def __init__(self, wl, seconds: float, tracer=None, between_rounds=None):
        self.wl, self.seconds, self.tracer = wl, seconds, tracer
        self.between_rounds = between_rounds
        self.rounds: list[Round] = []
        self.digest = hashlib.sha256()
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = None
        self.refs: list[float] = []

    @property
    def op_seconds(self) -> float:
        return sum(r.time for r in self.rounds)

    def run(self):
        for r, ops in enumerate(self.wl.rounds()):
            # rounds go untraced, traced, traced, untraced, ... so that caches
            # warming over the run favour neither side of trace.overhead
            rnd = Round(self.tracer is not None and r % 4 in (1, 2) and not self.tracer.full)
            if rnd.traced:
                self.tracer.install()
            try:
                for kind, op, check in ops:
                    self._one(kind, op, check, rnd)
            finally:
                if rnd.traced:
                    self.tracer.remove()
            self.rounds.append(rnd)
            if self.between_rounds is not None:
                self.between_rounds(self)
            enough = self.op_seconds >= self.seconds and self.attempted >= self.wl.min_ops
            if enough and len(self.rounds) >= 3:
                break
        self.refs.append(_reference_loop())
        if self.peak_rss_mb is None:
            self.peak_rss_mb = _peak_rss_mb()

    @property
    def host_factor(self) -> float:
        """Mean reference-loop time over its 1st percentile: how much slower
        than its full speed the host ran during this run, on average."""
        return statistics.fmean(self.refs) / statistics.quantiles(self.refs, n=100)[0]

    def _one(self, kind, op, check, rnd: Round):
        self.refs.append(_reference_loop())
        index = self.attempted
        self.attempted += 1
        ok = True
        t0 = time.perf_counter()
        try:
            result = self.tracer.op_span(kind, index, op) if rnd.traced else op()
        except Exception as exc:  # any engine error is a failed op, and the run goes on
            ok, text = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        rnd.time += dt
        if ok:
            try:
                text = check(result)
            except Exception as exc:
                ok, text = False, f"check {type(exc).__name__}: {exc}"
        if ok:
            rnd.latency.append(dt)
            rnd.done += 1
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {index} ({kind}): {text}")
        if index < self.wl.min_ops:
            self.digest.update(f"{kind}\n{text}\n".encode())
            if index + 1 == self.wl.min_ops:
                self.peak_rss_mb = _peak_rss_mb()

    def rate(self, traced: bool) -> float:
        rounds = [r for r in self.rounds if r.traced == traced]
        return sum(r.done for r in rounds) / sum(r.time for r in rounds)

    def latency_ms(self, traced: bool) -> list[float]:
        return sorted(t * 1e3 for r in self.rounds if r.traced == traced for t in r.latency)


def _pinned(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def end_to_end(loop: Loop, setup_samples: list[float], host: float = 1.0) -> dict:
    """The end-to-end metrics, with every timing divided by ``host``."""
    ms = loop.latency_ms(False)
    return {
        "ops_per_s": (loop.rate(False) * host, "1/s"),
        "op_ms.p50": (statistics.median(ms) / host, "ms"),
        "op_ms.p90": (statistics.quantiles(ms, n=10)[8] / host, "ms"),
        "setup_s": (statistics.median(setup_samples) / host, "s"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }


def per_layer(loop: Loop, tracer, probes: dict) -> dict:
    from tracer import KINDS, LAYERS

    totals = tracer.spans.totals()

    def total(labels):
        calls = sum(totals.get(lab, (0, 0.0))[0] for lab in labels)
        return calls, sum(totals.get(lab, (0, 0.0))[1] for lab in labels)

    out = {}
    for prefix, labels in SPAN_METRICS.items():
        calls, self_s = total(labels)
        out[f"{prefix}.calls"] = (calls, "count")
        out[f"{prefix}.self_s"] = (self_s, "s")
    rref = [f"linalg.rref.{kind}" for kind in KINDS]
    out["linalg.rref.calls"] = (total(rref)[0], "count")
    out["linalg.rref.cells"] = (tracer.spans.counts["linalg.rref.cells"], "count")
    for kind, label in zip(KINDS, rref):
        out[f"linalg.rref.self_s.{kind}"] = (total([label])[1], "s")
    out["linalg.matrix.self_s"] = (total([lab for lab in totals if lab.startswith("linalg.Matrix.")])[1], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (total([lab for lab in totals if lab.startswith(layer + ".")])[1], "s")

    infos = [fn.cache_info() for name, fn in tracer.cached.items() if name.startswith("algebra.")]
    hits, misses = sum(i.hits for i in infos), sum(i.misses for i in infos)
    out["algebra.cache.entries"] = (sum(i.currsize for i in infos), "count")
    out["algebra.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")

    out["gc.pause_s"] = (tracer.gc.pause_s, "s")
    out["gc.gen2"] = (tracer.gc.gen2, "count")
    out["trace.overhead"] = (loop.rate(True) / loop.rate(False), "ratio")
    out["trace.ops"] = (sum(r.done for r in loop.rounds if r.traced), "count")
    out["trace.spans"] = (len(tracer.spans), "count")
    for name, value in probes.items():
        out[name] = (value, "ns" if "_ns." in name else "ms")
    return out


def _print_table(title: str, metrics: dict, prefix: str = ""):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{prefix}{name:<40} {value:>16.6g} {unit}")


def run_one(args) -> int:
    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(f"{setup_s:.9f}")
        return 0
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    info = machine(args.seed)
    print(f"# qgha benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    setup_samples = [setup_s]

    def setup_between_rounds(loop):
        # set-ups in fresh processes, spread over the run so that one host
        # stall cannot slow them all
        if not args.trace and len(setup_samples) < SETUP_SAMPLES and \
                loop.op_seconds >= len(setup_samples) * args.seconds / SETUP_SAMPLES:
            setup_samples.append(_child_setup(args))

    loop = Loop(wl, args.seconds, tracer, setup_between_rounds)
    loop.run()

    digest = loop.digest.hexdigest()
    pin = _pinned(args.workload, args.seed)
    digest_ok = pin is None or pin == digest
    correct = loop.failed == 0 and digest_ok
    untraced = [r for r in loop.rounds if not r.traced]
    print(f"# ops: attempted {loop.attempted}, failed {loop.failed}, "
          f"fail_ratio {loop.failed / loop.attempted:.6g}, rounds {len(loop.rounds)}, "
          f"latency samples {sum(r.done for r in untraced)} (untraced rounds)")
    print(f"# output_digest (first {wl.min_ops} ops) {digest} "
          f"{'pin: none' if pin is None else 'pin: match' if digest_ok else 'pin: MISMATCH ' + pin}")
    for err in loop.errors:
        print(f"# failed {err}", file=sys.stderr)

    if args.trace:
        import probes

        metrics = per_layer(loop, tracer, probes.run_probes(args.seed))
        totals = sorted(tracer.spans.totals().items(), key=lambda kv: -kv[1][1])
        print(f"# peak RSS {_peak_rss_mb():.1f} MB with {len(tracer.spans)} spans in memory")
        _print_table("per-layer metrics", metrics)
        print("# top spans by self time: label calls self_s")
        for label, (calls, self_s) in totals[:25]:
            print(f"#   {label:<44} {calls:>10d} {self_s:>12.6f}")
    else:
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(_child_setup(args))
        _print_table("end-to-end metrics as timed", end_to_end(loop, setup_samples), "# raw ")
        print(f"# host factor {loop.host_factor:.4f} from {len(loop.refs)} reference loops")
        metrics = end_to_end(loop, setup_samples, loop.host_factor)
        _print_table("end-to-end metrics at full host speed (raw / host factor)", metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=600).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

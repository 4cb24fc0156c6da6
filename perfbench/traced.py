"""Per-layer timing: spans around the benchmark's calls into each gydet layer,
and a step-by-step replay of one gy-a sweep through the public per-step calls.

Spans are recorded from the benchmark's own code, around each call into
``gydet.gy``, ``gydet.logdet``, ``gydet.lattice``, ``gydet.oracles`` and
``gydet.asymptotics``; nothing inside the program is instrumented.  A layer's
``.s`` metric is the median seconds of one call over the traced run, and 0
when the workload never calls it.

The replay rebuilds each slice with ``lattice.transverse_slice`` (plus the
``2I`` shift, minus the previous inverse), factors it with
``logdet.SymmetricFactor`` and inverts it with ``.solve`` against the
identity.  It is slower than the production sweep because
``SymmetricFactor`` queries the LAPACK workspace and decodes the pivots once
per slice, where production decodes in vectorised chunks: the two take
about as long at K=255, but the replay takes several times as long at K=8.
So the layer split of ``long-thin`` is indicative only;
``trace.overhead.s`` reports the difference.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

import workloads
from gydet import gy, lattice, logdet
from gydet.errors import SingularCrossing

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("gy.aform.s", "s"),
    ("gy.aform.calls", "count"),
    ("gy.aform.errors", "count"),
    ("gy.aform.flops", "flop"),
    ("gy.aform.bytes", "B"),
    ("gy.aform.gflops", "GFLOP/s"),
    ("gy.aform.peak_mb", "MB"),
    ("lattice.slice.s", "s"),
    ("logdet.factor.s", "s"),
    ("logdet.inverse.s", "s"),
    ("trace.residual.s", "s"),
    ("trace.overhead.s", "s"),
    ("gy.scalar.s", "s"),
    ("gy.scalar.calls", "count"),
    ("gy.scalar.errors", "count"),
    ("gy.yform.s", "s"),
    ("gy.yform.calls", "count"),
    ("gy.yform.wrong", "count"),
    ("logdet.dense.s", "s"),
    ("logdet.dense.gflops", "GFLOP/s"),
    ("lattice.hamiltonian.s", "s"),
    ("lattice.potential.s", "s"),
    ("oracles.sinh_product.s", "s"),
    ("oracles.eigenproduct.s", "s"),
    ("oracles.eigen_gap", "ln"),
    ("asymptotics.asym.s", "s"),
    ("asymptotics.gap", "ln"),
    ("error_rate", "ratio"),
)


class NoSpans:
    """Tracing off: calls go straight through."""

    traced = False

    @staticmethod
    def call(layer, fn, *args):
        return fn(*args)

    @staticmethod
    def note(name, value):
        pass


class Spans:
    """Tracing on: seconds of every call per layer, and noted values."""

    traced = True

    def __init__(self):
        self.seconds = defaultdict(list)
        self.notes = defaultdict(list)

    def call(self, layer, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[layer].append(perf_counter() - start)

    def note(self, name, value):
        self.notes[name].append(value)

    def median(self, layer) -> float:
        samples = self.seconds.get(layer) or self.notes.get(layer)
        return statistics.median(samples) if samples else 0.0

    def samples(self, key) -> int:
        return len(self.seconds.get(key) or self.notes.get(key) or ())


def replay(spec: lattice.LatticeSpec, pot: lattice.PotentialField) -> dict:
    """Replay one gy-a sweep step by step; per-layer seconds and the result."""
    eye = np.eye(spec.K)
    shift = 2.0 * eye
    layer = dict.fromkeys(("lattice.slice.s", "logdet.factor.s", "logdet.inverse.s"), 0.0)
    log_abs, sign, inverse = 0.0, 1, None
    start = perf_counter()
    for n in range(1, spec.N):
        t0 = perf_counter()
        B = lattice.transverse_slice(spec, pot, n) + shift
        if inverse is not None:
            B -= inverse
        t1 = perf_counter()
        fac = logdet.SymmetricFactor(B, overwrite=True)
        t2 = perf_counter()
        if fac.exact_singular:
            raise SingularCrossing(n, 0.0)
        log_abs += fac.log_abs
        sign *= fac.sign
        if n < spec.N - 1:
            inverse = fac.solve(eye)
        t3 = perf_counter()
        layer["lattice.slice.s"] += t1 - t0
        layer["logdet.factor.s"] += t2 - t1
        layer["logdet.inverse.s"] += t3 - t2
    total = perf_counter() - start
    layer["trace.residual.s"] = total - sum(layer.values())
    return {"total": total, "layers": layer,
            "result": logdet.LogDet(log_abs=log_abs, sign=sign, method="replay")}


def production_seconds(spec, pot):
    """One untraced production sweep of the same input, for the overhead."""
    start = perf_counter()
    result = gy.matrix_logdet_aform(spec, pot)
    return perf_counter() - start, result


def layer_values(wl, spans, failed_by_route, error_rate, aform_peak, prod_s, rep) -> dict:
    """Per-layer values of a traced run, keyed as in ``PER_LAYER``."""
    s = spans.median
    flops, nbytes = workloads.aform_model(wl.spec)
    dense_s = s("logdet.dense")
    return {
        "gy.aform.s": s("gy.aform"),
        "gy.aform.calls": spans.samples("gy.aform"),
        "gy.aform.errors": failed_by_route.get("gy-a", 0),
        "gy.aform.flops": flops,
        "gy.aform.bytes": nbytes,
        "gy.aform.gflops": flops / s("gy.aform") / 1e9,
        "gy.aform.peak_mb": aform_peak,
        **rep["layers"],
        "trace.overhead.s": rep["total"] - prod_s,
        "gy.scalar.s": s("gy.scalar"),
        "gy.scalar.calls": spans.samples("gy.scalar"),
        "gy.scalar.errors": failed_by_route.get("gy-scalar", 0),
        "gy.yform.s": s("gy.yform"),
        "gy.yform.calls": spans.samples("gy.yform"),
        "gy.yform.wrong": failed_by_route.get("gy-y", 0),
        "logdet.dense.s": dense_s,
        "logdet.dense.gflops": (workloads.dense_flops(wl.spec.n_interior) / dense_s / 1e9
                                if dense_s else 0.0),
        "lattice.hamiltonian.s": s("lattice.hamiltonian"),
        "lattice.potential.s": s("lattice.potential"),
        "oracles.sinh_product.s": s("oracles.sinh_product"),
        "oracles.eigenproduct.s": s("oracles.eigenproduct"),
        "oracles.eigen_gap": s("oracles.eigen_gap"),
        "asymptotics.asym.s": s("asymptotics.asym"),
        "asymptotics.gap": s("asymptotics.gap"),
        "error_rate": error_rate,
    }

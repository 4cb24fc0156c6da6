"""Closed-loop benchmark of gydet: one workload, one seed, one result line.

    python3 perfbench/run.py --workload wide-random --seed 1 --seconds 10 --trace 0

Run from the root of a source tree (the package is imported from ``src/``).
One in-process caller starts the next op only when the previous one has
returned, with no think time.  Inputs come from ``--seed`` alone.  Every op
is checked against an independent reference: one computed outside the timed
region, or, for the random sweeps, the other op of its mirrored pair.

With ``--trace 0`` the end-to-end metrics are reported:

* ``sites_per_s``: interior lattice sites of the checks that passed, divided
  by the seconds spent inside the timed ops;
* ``solve_s_p50``: median wall seconds of one op;
* ``peak_mem_mb``: ``tracemalloc`` peak of one op, in a separate untimed pass
  (numpy reports its buffers to tracemalloc, so this includes the slice stack);
* ``setup_s``: seconds from process start to the first timed op (imports,
  the BLAS pin, making the first input, one warm-up op), the median of this
  process and ``SETUP_CHILDREN`` fresh processes that stop at that point,
  started between ops at even intervals of the timed loop so that the
  set-up samples span the run like the op samples do.

With ``--trace 1`` the per-layer metrics of ``traced.PER_LAYER`` are
reported instead.  ``error_rate`` (failed checks over attempted checks) is
printed in both modes; the last line of standard output is always the JSON
result.  BLAS is pinned to one thread before numpy is imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Extra fresh processes that measure set-up; with this one, setup_s is a median of 3.
SETUP_CHILDREN = 2
REPLAY_TOL = 1e-12

END_TO_END = (
    ("sites_per_s", "1/s"),
    ("solve_s_p50", "s"),
    ("peak_mem_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import gydet from this source tree only, never from an installed copy."""
    if not (SRC / "gydet" / "__init__.py").is_file():
        sys.exit(f"error: no gydet sources under {SRC}; run from a source tree")
    sys.path.insert(0, str(SRC))
    import gydet

    if Path(gydet.__file__).resolve().parent != SRC / "gydet":
        sys.exit(f"error: imported gydet from {gydet.__file__}, not from {SRC}")


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_program()

    import envinfo
    import traced
    import workloads
    from gydet import gy

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0 or args.seed < 0:
        sys.exit("error: --seconds must be positive and --seed non-negative")
    wl = workloads.WORKLOADS[args.workload]()
    spans = traced.Spans() if args.trace else traced.NoSpans()

    first = spans.call("lattice.potential", wl.make, args.seed, 0)
    wl.op(first, traced.NoSpans())
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # The timed loop: op i runs on input i; inputs, checks and set-up samples
    # are untimed.  A run ends on a whole group of ops (a mirrored pair).
    op_seconds, checks, setups = [], [], [setup_s]
    inp, i = first, 0
    while sum(op_seconds) < args.seconds or i % wl.group:
        if i:
            inp = spans.call("lattice.potential", wl.make, args.seed, i)
        start = time.perf_counter()
        results = wl.op(inp, spans)
        op_seconds.append(time.perf_counter() - start)
        checks += wl.checks(i, inp, results, spans)
        i += 1
        while (not args.trace and len(setups) <= SETUP_CHILDREN
               and sum(op_seconds) >= len(setups) * args.seconds / (SETUP_CHILDREN + 1)):
            setups.append(child_setup_seconds(args))

    if args.trace:
        spec, pot = wl.spec, wl.aform_pot(first)
        aform_peak = peak_mb(gy.matrix_logdet_aform, spec, pot)
        prod_s, prod = traced.production_seconds(spec, pot)
        rep = traced.replay(spec, pot)
        checks.append(("replay", 0, workloads.agrees(rep["result"], prod, REPLAY_TOL)))
    else:
        op_peak = peak_mb(wl.op, first, traced.NoSpans())

    attempted = len(checks)
    failed_by_route = {}
    for route, _, ok in checks:
        failed_by_route[route] = failed_by_route.get(route, 0) + (not ok)
    failed = sum(failed_by_route.values())
    known = {route: workloads.KNOWN_DEFECTS.get((wl.name, route))
             for route, n in failed_by_route.items() if n}
    error_rate = failed / attempted

    if args.trace:
        values = traced.layer_values(wl, spans, failed_by_route, error_rate, aform_peak,
                                     prod_s, rep)
        units = dict(traced.PER_LAYER)
        counts = {name: spans.samples(name) or spans.samples(name.rsplit(".", 1)[0]) or 1
                  for name in units}
        counts["error_rate"] = attempted
    else:
        values = {
            "sites_per_s": sum(n for _, n, ok in checks if ok) / sum(op_seconds),
            "solve_s_p50": statistics.median(op_seconds),
            "peak_mem_mb": op_peak,
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
        counts = {"sites_per_s": len(op_seconds), "solve_s_p50": len(op_seconds),
                  "peak_mem_mb": 1, "setup_s": len(setups)}

    print("env " + json.dumps(envinfo.environment(ROOT)))
    print(f"workload {wl.name}: {wl.why}")
    print(f"ops {len(op_seconds)}, checks {attempted}, failed {failed}, "
          f"failed by route {json.dumps(failed_by_route)}")
    print(f"error_rate = {error_rate!r} ratio (n={attempted} checks)")
    for route, cause in known.items():
        if cause:
            print(f"known defect counted: {route} fails its check on {wl.name}: {cause}")
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit} (n={counts[name]})")
    print(json.dumps({
        "correct": all(known.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

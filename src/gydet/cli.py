"""Command-line interface.

Subcommands:

  det     one determinant by any method; JSON record on stdout
  asym    asymptotic breakdown, optionally against the exact oracle; JSON
  bench   timing sweep over sizes for gy-a / dense on a seed-0 uniform
          [-1, 1) potential; CSV with slope fits
  verify  cross-method check suite; pass/fail table, exit 3 on failure

Each input is checked in one place: argparse checks the shape of the
flags (the three potential flags are mutually exclusive), the library
checks the values and raises ValueError, and `main` only maps exceptions
to exit codes.  Data goes to stdout, logs to stderr.  Exit codes: 0
success, 1 usage error, 2 singular crossing (a sweep pivot below
threshold, or an exact zero pivot in the dense factorization), 3 failed
verification.  JSON floats are printed as the shortest string that
round-trips exactly; inf and nan, which JSON lacks, are printed as null.
The BLAS thread count is set before launch, with OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

USAGE_EXIT = 1
SINGULAR_EXIT = 2
VERIFY_EXIT = 3


def _finite_or_none(obj):
    """Copy of obj with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def json_17g(obj) -> str:
    """JSON text of obj with non-finite floats as null (JSON has no inf/nan).

    Floats are written by repr, the shortest string that round-trips
    exactly.
    """
    return json.dumps(_finite_or_none(obj), allow_nan=False)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this interface reserves 2 for
    # singular crossings, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_problem(args):
    """(spec, potential, descriptor, seed) from det/bench style flags."""
    from .lattice import LatticeSpec, PotentialField

    if args.random_range is not None and args.random_seed is None:
        raise ValueError("--random-range needs --random-seed")
    spec = LatticeSpec(d=args.dim, N=args.size_n, M=args.size_m)
    seed = None
    if args.potential_file is not None:
        pot = PotentialField.from_file(spec, args.potential_file)
        desc = f"file({args.potential_file})"
    elif args.random_seed is not None:
        lo, hi = args.random_range or (-1.0, 1.0)
        seed = args.random_seed
        pot = PotentialField.random_uniform(spec, seed=seed, lo=lo, hi=hi)
        desc = f"seeded-random(seed={seed}, lo={lo:g}, hi={hi:g})"
    else:
        m2 = args.mass2 if args.mass2 is not None else 0.0
        pot = PotentialField.constant(spec, m2)
        desc = f"constant(m2={m2:g})"
    return spec, pot, desc, seed


def _compute_logdet(method: str, spec, pot):
    from . import gy, oracles
    from .logdet import dense_logdet
    from .lattice import build_interior_hamiltonian

    if method in ("eigenproduct", "sinh-product"):
        if pot.provenance[0] != "constant":
            raise ValueError(
                f"--method {method} needs a constant mass (it is a closed "
                "form for -Delta + m^2); it conflicts with "
                "--potential-file/--random-seed"
            )
        if spec.d != 2:
            raise ValueError(f"--method {method} is specific to --dim 2")
        m2 = pot.provenance[1]
        if method == "eigenproduct":
            return oracles.eigenproduct_logdet_2d(m2, spec.N, spec.M)
        return oracles.sinh_product_logdet(m2, spec.N, spec.M)
    if method == "dense":
        return dense_logdet(build_interior_hamiltonian(spec, pot))
    if method == "gy-a":
        if spec.d == 1:
            return gy.scalar_logdet(pot.values[:, 0])
        return gy.matrix_logdet_aform(spec, pot)
    # gy-y: the K = 1 matrix recursion doubles as the d = 1 growing-solution path
    return gy.matrix_logdet_yform(spec, pot)


def cmd_det(args) -> int:
    spec, pot, desc, seed = _build_problem(args)
    t0 = time.perf_counter()
    ld = _compute_logdet(args.method, spec, pot)
    wall = time.perf_counter() - t0
    record = {
        "method": args.method,
        "inputs": {
            "d": spec.d,
            "N": spec.N,
            "M": spec.M,
            "potential": desc,
            "seed": seed,
        },
        "log_abs_det": ld.log_abs,
        "sign": ld.sign,
        "wall_time_seconds": wall,
        "diagnostics": {**dataclasses.asdict(ld.diagnostics), "method_tag": ld.method},
    }
    print(json_17g(record))
    return 0


def cmd_asym(args) -> int:
    from . import asymptotics, oracles

    N, M = args.size_n, args.size_m
    if args.mass2 == 0.0:
        b = asymptotics.massless_asymptotic_logdet(N, M)
        regime = "massless"
    else:
        b = asymptotics.massive_asymptotic_logdet(args.mass2, N, M)
        regime = "massive"
    record = {
        "regime": regime,
        "inputs": {"mass2": args.mass2, "N": N, "M": M},
        **dataclasses.asdict(b),
    }
    if args.with_exact:
        if args.mass2 == 0.0:
            exact = oracles.eigenproduct_logdet_2d(0.0, N, M)
        else:
            exact = oracles.sinh_product_logdet(args.mass2, N, M)
        record["exact"] = {
            "method": exact.method,
            "log_abs_det": exact.log_abs,
            "discrepancy": b.total - exact.log_abs,
        }
    print(json_17g(record))
    return 0


def _timed_median(fn, repeats: int, min_time: float) -> float:
    """Median of `repeats` calibrated timings: short calls run in batches
    sized so each measured batch lasts at least min_time."""
    fn()  # warmup (also JIT-loads LAPACK paths)
    times = []
    loops = 1
    for _ in range(repeats):
        while True:
            t0 = time.perf_counter()
            for _ in range(loops):
                fn()
            dt = time.perf_counter() - t0
            if dt >= min_time or loops >= 1 << 20:
                times.append(dt / loops)
                break
            growth = min(4.0, max(1.5, min_time / max(dt, 1e-9)))
            loops = max(loops + 1, int(loops * growth))
    times.sort()
    return times[len(times) // 2]


def cmd_bench(args) -> int:
    from . import gy
    from .lattice import LatticeSpec, PotentialField, build_interior_hamiltonian
    from .logdet import dense_logdet
    from .errors import SizeCapExceeded

    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    if not (math.isfinite(args.min_time) and args.min_time >= 0):
        raise ValueError(f"--min-time must be finite and >= 0, got {args.min_time}")
    unknown = [m for m in args.methods if m not in ("gy-a", "dense")]
    if unknown:
        raise ValueError(f"bench methods must be gy-a or dense, got {', '.join(unknown)}")
    # every input is built before the header, so a bad one prints nothing
    problems = []
    for n in args.sizes:
        spec = LatticeSpec(d=2, N=n, M=n)
        problems.append((n, spec, PotentialField.random_uniform(spec, seed=0)))
    print("method,N,median_seconds,log_abs_det")
    for method in args.methods:
        fitted: list[tuple[int, float]] = []
        for n, spec, pot in problems:
            if method == "dense":
                try:
                    H = build_interior_hamiltonian(spec, pot)
                except SizeCapExceeded:
                    print(f"dense,{n},skipped,skipped")
                    continue
                fn = lambda: dense_logdet(H)
            else:
                fn = lambda: gy.matrix_logdet_aform(spec, pot)
            med = _timed_median(fn, args.repeats, args.min_time)
            ld = fn()
            # both values are finite floats; repr round-trips them exactly
            print(f"{method},{n},{med!r},{ld.log_abs!r}")
            fitted.append((n, med))
        if len({n for n, _ in fitted}) >= 2:
            import numpy as np

            x = np.log([n for n, _ in fitted])
            y = np.log([t for _, t in fitted])
            A = np.vstack([x, np.ones_like(x)]).T
            slope = float(np.linalg.lstsq(A, y, rcond=None)[0][0])
            ns = ",".join(str(n) for n, _ in fitted)
            print(f"# slope {method} {slope:.3f} (log-log fit over N={ns})")
        else:
            print(f"# slope {method} nan (fewer than two distinct timed sizes)")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(quick=args.quick)
    failures = [name for name, failure in results if failure is not None]
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return VERIFY_EXIT
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="gydet", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="compute one determinant")
    p.add_argument("--dim", type=int, default=2, help="dimensionality d >= 1")
    p.add_argument("--size-n", type=int, required=True, help="longitudinal extent N")
    p.add_argument("--size-m", type=int, default=2, help="transverse extent M (per direction)")
    potential = p.add_mutually_exclusive_group()
    potential.add_argument("--mass2", type=float, default=None, help="constant potential m^2")
    potential.add_argument("--potential-file", default=None, help="site potential file")
    potential.add_argument("--random-seed", type=int, default=None, help="seeded uniform potential")
    p.add_argument(
        "--random-range",
        type=float,
        nargs=2,
        metavar=("LO", "HI"),
        help="uniform range for --random-seed (default -1 1)",
    )
    p.add_argument(
        "--method",
        choices=["gy-a", "gy-y", "dense", "eigenproduct", "sinh-product"],
        default="gy-a",
    )
    p.set_defaults(fn=cmd_det)

    p = sub.add_parser("asym", help="asymptotic breakdown")
    p.add_argument("--mass2", type=float, required=True, help="0 selects the massless route")
    p.add_argument("--size-n", type=int, required=True)
    p.add_argument("--size-m", type=int, required=True)
    p.add_argument("--with-exact", action="store_true", help="co-report the exact oracle")
    p.set_defaults(fn=cmd_asym)

    p = sub.add_parser("bench", help="scaling benchmark (CSV)")
    p.add_argument("--dim", type=int, choices=[2], default=2)
    p.add_argument(
        "--sizes",
        type=lambda s: [int(t) for t in s.split(",")],
        required=True,
        help="comma list of N (= M) values",
    )
    p.add_argument(
        "--methods",
        type=lambda s: s.split(","),
        default=["gy-a", "dense"],
        help="comma list from {gy-a, dense}",
    )
    p.add_argument("--repeats", type=int, default=3, help="timings per row (median)")
    p.add_argument("--min-time", type=float, default=0.05, help="calibration floor per timing, seconds")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="cross-method verification suite")
    p.add_argument("--quick", action="store_true", help="small-lattice subset")
    p.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    from .errors import GydetError, SingularCrossing, SingularMatrix

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SingularCrossing, SingularMatrix) as exc:
        print(f"gydet: singular crossing: {exc}", file=sys.stderr)
        return SINGULAR_EXIT
    except (ValueError, GydetError) as exc:
        # ValueError is how the library rejects invalid inputs (lattice
        # extents, dimensions, potential ranges, masses)
        print(f"gydet: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload, or all four, and print the result.

    python3 perfbench/run.py --workload solve-expander --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --all          # every workload; rewrites
                                            # BENCHMARK.json from spec

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exit status: 0 when every answer matched its reference, 1 on any wrong
answer, 2 when the program under test cannot be found or imported, or
when a traced run can no longer hook a layer it reports.  On every way
out, SIGTERM and SIGHUP included, the run stops each process it started
and waits until it has ended.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _bootstrap() -> None:
    """Import the program from this checkout's sources, never another."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program sources at {SRC}")
    # The script's own directory must not shadow anything: the package
    # is imported as ``perfbench`` from the checkout root.
    if sys.path and pathlib.Path(sys.path[0]).resolve() == ROOT / "perfbench":
        sys.path.pop(0)
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        _fail(f"cannot import the program: {exc}")
    origin = pathlib.Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        _fail(f"imported repro from {origin}, not from {SRC}")


def _parse(argv):
    from perfbench import spec
    names = [w.name for w in spec.WORKLOADS]
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true",
                       help="run every workload in this process and "
                            "rewrite BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import host, serve, solve
    from perfbench.layers import LostHook
    module = solve if name.startswith("solve-") else serve
    try:
        result = module.run(name, seed, seconds, trace)
    except LostHook as exc:
        _fail(f"{name}: traced layer lost: {exc}")
    result.notes["env"] = host.environment()
    return result


def main(argv=None) -> int:
    _bootstrap()
    args = _parse(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    from perfbench import host
    host.exit_on_signals()
    try:
        return _run(args)
    finally:
        host.stop_children()


def _run(args) -> int:
    from perfbench import spec
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print("\n".join(result.report_lines()))
        print(result.result_line(), flush=True)
        return 0 if result.correct else 1
    path = spec.write_config(ROOT)
    print(f"wrote {path.relative_to(ROOT)}")
    summary = {}
    for workload in spec.WORKLOADS:
        result = run_workload(workload.name, args.seed, args.seconds,
                              bool(args.trace))
        print("\n".join(result.report_lines()), flush=True)
        summary[workload.name] = json.loads(result.result_line())
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(r["correct"] for r in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

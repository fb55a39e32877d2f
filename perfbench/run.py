"""End-to-end benchmark of the private-histogram fleet.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 12 --trace 0

``--workload`` is ``serve``, ``refresh`` or ``scored`` (see README.md).
With ``--trace 0`` the run measures the end-to-end metrics; the
serving phases of ``serve`` and ``scored`` run for ``--seconds``.
With ``--trace 1`` it runs the workload untraced, then with wrappers
on the program's layer functions, then untraced again, and reports
the per-layer table.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it give every figure by name with its unit, the failed
output checks and the digests of the inputs and evaluation answers.

The program is imported from ``src/`` next to this directory; without
it the run exits with status 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> unit of the metrics reported with ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "restart_s": "s",
    "peak_rss_mb": "MB",
    "range_mae": "rows",
    "queries_per_s": "ranges/s",
    "sharded_p50_ms": "ms",
    "sharded_p90_ms": "ms",
    "mono_p50_ms": "ms",
}

#: The names each workload's shared metrics carry in the workload's own terms.
ROLE_NAMES = {
    "serve": {"sharded_p50_ms": "bulk_p50_ms", "sharded_p90_ms": "bulk_p90_ms",
              "mono_p50_ms": "mono_bulk_p50_ms"},
    "refresh": {"sharded_p50_ms": "epoch_p50_ms", "sharded_p90_ms": "epoch_p90_ms",
                "mono_p50_ms": "mono_epoch_p50_ms"},
    "scored": {"sharded_p50_ms": "scored_p50_ms", "sharded_p90_ms": "scored_p90_ms",
               "mono_p50_ms": "mono_scored_p50_ms",
               "queries_per_s": "scored_queries_per_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("serve", "refresh", "scored"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="serving time of the time-boxed phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' is for the benchmark's own tests")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench",
                        help="scratch stores and span files (default: .perfbench)")
    return parser.parse_args(argv)


def import_program():
    """Put ``src/`` on the path and import the benchmark's modules."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import fleet_api
    import layers
    import spans
    import workloads

    return fleet_api, layers, spans, workloads


def measure(args, run_dir: Path, recorder=None):
    """One workload run in this process; stops the worker pool after it."""
    fleet_api, _, _, workloads = import_program()
    ctx = workloads.Context(
        args.seed, args.seconds, workloads.SCALES[args.scale], run_dir, recorder
    )
    try:
        return workloads.RUNNERS[args.workload](ctx)
    finally:
        fleet_api.stop_pools()
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args) -> dict:
    """Run one workload; print the figure lines; return the result object."""
    fleet_api, layers, spans, _ = import_program()
    from measure import settle_allocator

    settle_allocator()
    run_dir = args.work_dir / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    outcome = measure(args, run_dir)
    attempted = outcome.attempted
    failures = list(outcome.failures)
    report(args.workload, outcome)
    if args.trace:
        recorder = spans.SpanRecorder()
        recorder.install(fleet_api.TRACE_TARGETS, layers.write_counters(recorder))
        try:
            traced = measure(args, run_dir, recorder)
        finally:
            recorder.uninstall()
        span_file = args.work_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(span_file)
        print(f"spans: {len(recorder.spans)} written to {span_file}")
        # The overhead compares the traced pass with a second untraced
        # pass, which follows it as the traced pass follows the first.
        baseline = measure(args, run_dir)
        attempted += traced.attempted + baseline.attempted
        failures += traced.failures + baseline.failures
        values = layers.layer_metrics(recorder, traced, baseline)
        missing = layers.expected_missing(values, args.workload, traced.pool_workers)
        failures += [f"traced span {name} recorded no call" for name in missing]
        units = layers.metric_units()
        for name, unit in units.items():
            print(f"layer {args.workload} {name} {values[name]:.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for failure in failures:
        print(f"check failed: {failure}")
    print(f"checks: {len(failures)} failed of {attempted} operations")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def report(workload: str, outcome) -> None:
    names = ROLE_NAMES[workload]
    for name, unit in END_TO_END.items():
        label = names.get(name, name)
        print(f"metric {workload} {label} {outcome.metrics[name]:.6g} {unit}")
    for name, (value, unit) in outcome.extras.items():
        print(f"metric {workload} {name} {value:.6g} {unit}")
    print(f"digest {workload} answers {outcome.answers_digest}")
    print(f"digest {workload} inputs {outcome.inputs_digest}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, str(HERE))
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    from measure import reap_children

    # On every way out, a terminated run included, the process waits
    # for each process it started before it exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        status = main()
    finally:
        reap_children()
    sys.exit(status)

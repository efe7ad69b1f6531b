"""End-to-end benchmark: EDDE time-to-accuracy and ensemble serving.

Run one workload in this process (one run of the benchmark)::

    python3 benchmarks/e2e/run.py --workload serve-mlp --seed 3 \\
        --seconds 40 --trace 0

or every workload, each in its own fresh process::

    python3 benchmarks/e2e/run.py --workload all --seed 0 --seconds 40

A run prints each metric by name with its unit, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from the outside-in trace.  Every run is appended to
``history.jsonl`` beside this file together with its environment stamp.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - after the set-up clock starts
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("train-resnet", "serve-mlp")

#: The program's own knobs that would change the benchmark's protocol.
PROTOCOL_VARS = ("REPRO_SCALE", "REPRO_TRAIN_SIZE", "REPRO_TEST_SIZE",
                 "REPRO_DTYPE")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured window; train-resnet repeats whole "
                             "fits until it has passed (at least 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="only set the workload up and print the "
                             "set-up time (how a run times set-up in "
                             "fresh processes)")
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments as program

    where = pathlib.Path(program.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"repro.experiments imported from {where}, "
                          f"not from {ROOT / 'src'}")


def _format(value: float) -> str:
    return f"{value:.6g}"


def fresh_setup(args):
    """Set-up time of the workload in a fresh process of its own."""
    import workloads

    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--preset", args.preset],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return workloads.Setup(**json.loads(child.stdout.splitlines()[-1]))


def setup_only(args) -> int:
    _import_program()
    import dataclasses

    import workloads

    setup = workloads.setup_only(args.workload, args.seed, args.preset,
                                 started=_STARTED)
    print(json.dumps(dataclasses.asdict(setup)), flush=True)
    return 0


def run_one(args) -> int:
    from envstamp import StealMeter, append_history, stamp

    steal = StealMeter()
    _import_program()
    import workloads

    outcome = workloads.run_workload(
        args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), preset=args.preset, started=_STARTED,
        fresh_setup=lambda: fresh_setup(args))
    units = workloads.LAYER_METRICS if args.trace else \
        workloads.E2E_METRICS
    values = outcome.layers if args.trace else outcome.metrics
    env = stamp(ROOT, steal)
    correct = outcome.failed == 0

    print(f"# {args.workload} seed={args.seed} preset={args.preset} "
          f"trace={args.trace} cpu={env['cpu']!r} nproc={env['nproc']} "
          f"steal={env['steal_share']} sha={env['git_sha'][:12]} "
          f"threads={env['thread_env']}")
    for line in outcome.notes:
        print(f"# {line}")
    for name, unit in workloads.DIAGNOSTICS.items():
        print(f"# {name} = {_format(outcome.diagnostics[name])} {unit}")
    if args.trace:
        for name, unit in workloads.E2E_METRICS.items():
            print(f"# untraced {name} = "
                  f"{_format(outcome.metrics[name])} {unit}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {_format(values[name])} {unit}")
    print(f"{args.workload} attempted={outcome.attempted} "
          f"failed={outcome.failed} correct={correct}")

    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    append_history({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "preset": args.preset, "stamp": env, "result": result,
        "end_to_end": outcome.metrics,
        "diagnostics": outcome.diagnostics,
        "notes": outcome.notes,
    })
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one summary at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--preset", args.preset]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=False)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"# {workload}: no result (exit {child.returncode})")
            return child.returncode or 1
        status = status or child.returncode
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary), flush=True)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    found = [name for name in PROTOCOL_VARS if name in os.environ]
    if found:
        print(f"unset {', '.join(found)}: the benchmark fixes its own "
              "protocol", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_only(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

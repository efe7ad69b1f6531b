"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``train``
    Fit one ensemble method on a named scenario and print its summary.
``compare``
    Fit several methods on one scenario and print the comparison table.
``beta``
    Run the adaptive β-selection procedure on a scenario's training set.
``serve-eval``
    Stand an :class:`~repro.serving.InferenceService` up on a saved
    ensemble and drive a request stream at it, optionally under injected
    faults (corrupt archives, flaky/slow members, poisoned requests).
``serve-drift``
    Replay a drift schedule through the full online story — drift
    monitors (:mod:`repro.serving.monitor`), member health scoring and
    the closed-loop repair subsystem (:mod:`repro.serving.repair`) —
    and archive ``results/BENCH_drift.json`` with detection latency,
    pre/drifted/post-repair accuracy and the repair audit trail.
``serve-load``
    Drive the concurrent serving pipeline
    (:mod:`repro.serving.transport`) with the deterministic load harness
    (:mod:`repro.experiments.serve_load`): a T × {batching on, off}
    sweep of closed-loop clients plus one open-loop replay, archiving
    ``results/BENCH_serving.json`` with QPS, p50/p95/p99 latency and the
    batched-vs-solo bit-parity verdict.
``serve-overload``
    Run the virtual-time overload suite
    (:mod:`repro.experiments.serve_overload`): measure capacity with a
    ramp, then serve {0.5×, 1×, 2×} capacity with and without admission
    control + brownout, archiving ``results/BENCH_overload.json`` with
    goodput, p99 and the acceptance verdicts.
``serve-chaos``
    Replay seeded chaos schedules (arrival storms, pump stalls, slow
    bursts, executor-task deaths — :mod:`repro.experiments.serve_chaos`)
    against the resilient pipeline and check the invariants: no
    deadlock, no torn batch, conservation of the overload ledger.
``grid``
    Execute a declarative experiment grid from a JSON spec
    (:class:`~repro.experiments.grid.GridSpec`): expand the factor table
    into the run table, execute this process's shard (``--shard i/n``)
    with per-run checkpoint/resume, and — once every run has a manifest
    entry — write the aggregated ``GRID_<name>.json`` artifact.
``lint``
    Run the repo's AST-based invariant checker (rules RL001–RL005:
    import layering, determinism, dtype policy, op-registry contract,
    fault-path hygiene) over source trees; exits non-zero on violations.
``info``
    List available scenarios, methods and models.

Examples
--------
::

    python -m repro.cli train --method edde --scenario c100-resnet --seed 0
    python -m repro.cli train --method edde --scenario c100-resnet --seed 0 \\
        --checkpoint-dir runs/edde --max-retries 2
    python -m repro.cli train --method edde --scenario c100-resnet --seed 0 \\
        --checkpoint-dir runs/edde --resume
    python -m repro.cli compare --scenario c10-resnet --methods single,snapshot,edde
    python -m repro.cli beta --scenario c100-resnet
    python -m repro.cli serve-eval --scenario c100-resnet --ensemble e.npz \\
        --requests 32 --inject corrupt:0,flaky:1:every=2 --deadline 0.5
    python -m repro.cli serve-drift --schedule step-moderate --seed 0
    python -m repro.cli serve-drift --schedule smoke --max-repairs 1 \\
        --checkpoint-dir runs/drift-repairs
    python -m repro.cli serve-load --sizes 1,4,8 --requests 256 --clients 16
    python -m repro.cli serve-overload --seed 0
    python -m repro.cli serve-chaos --schedules 100 --seed 0
    python -m repro.cli grid --spec specs/table5.json --out runs/grids
    python -m repro.cli grid --spec specs/table5.json --out runs/grids \\
        --shard 1/4 --workers 2 --resume
    python -m repro.cli grid --spec specs/table5.json --out runs/grids \\
        --aggregate-only
    python -m repro.cli lint src benchmarks --stats results/lint_stats.json
    python -m repro.cli info
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.analysis import format_table, percent
from repro.core import CheckpointError, ensemble_diversity, save_ensemble
from repro.experiments import ALL_METHODS, build_scenario, run_effectiveness, run_method
from repro.experiments.runner import make_fault_tolerance
from repro.models import available_models


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True,
                        help="e.g. c10-resnet, c100-densenet, imdb-textcnn")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_train(args) -> int:
    scenario = build_scenario(args.scenario, rng=args.seed)
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        fault_tolerance = make_fault_tolerance(
            scenario, checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            max_retries=args.max_retries)
    except CheckpointError as error:
        print(f"error: cannot resume: {error}", file=sys.stderr)
        return 2
    if fault_tolerance.resume_from is not None:
        print(f"resuming {args.method} from checkpoint round "
              f"{fault_tolerance.resume_from.round} in {args.checkpoint_dir}")
    result = run_method(args.method, scenario, rng=args.seed,
                        fault_tolerance=fault_tolerance,
                        profile_ops=args.profile_ops)
    print(f"method:            {result.method}")
    print(f"ensemble accuracy: {percent(result.final_accuracy)}")
    print(f"average member:    {percent(result.average_member_accuracy())}")
    print(f"total epochs:      {result.total_epochs}")
    round_seconds = result.metadata.get("round_seconds", [])
    if round_seconds:
        rendered = " ".join(f"{s:.2f}s" for s in round_seconds)
        print(f"round wall-clock:  {rendered} (total {sum(round_seconds):.2f}s)")
    if len(result.ensemble) >= 2:
        probs = result.ensemble.member_probs(scenario.split.test.x)
        print(f"diversity (Eq. 7): {ensemble_diversity(probs):.4f}")
    faults = result.metadata.get("faults", [])
    if faults:
        skipped = sum(1 for f in faults if f["event"] == "skipped")
        retried = sum(1 for f in faults if f["event"] == "diverged")
        print(f"faults:            {retried} diverged attempt(s), "
              f"{skipped} member(s) skipped")
    if args.profile_ops:
        print(_render_op_profile(result.metadata.get("op_profile", {})))
    if args.save:
        save_ensemble(result.ensemble, args.save)
        print(f"saved ensemble to {args.save}")
    return 0


def _render_op_profile(profile: dict, top: int = 15) -> str:
    """Render the ``op_profile`` metadata dict as a per-op table."""
    header = (f"{'op':<24}{'fwd calls':>10}{'fwd ms':>10}"
              f"{'bwd calls':>10}{'bwd ms':>10}{'alloc MB':>10}")
    lines = ["op profile (top ops by total time):", header, "-" * len(header)]
    total = 0.0
    for name, row in list(profile.items())[:top]:
        total += row["total_seconds"]
        lines.append(
            f"{name:<24}{row['forward_calls']:>10}"
            f"{row['forward_seconds'] * 1e3:>10.2f}"
            f"{row['backward_calls']:>10}"
            f"{row['backward_seconds'] * 1e3:>10.2f}"
            f"{row['output_bytes'] / 1e6:>10.2f}")
    remaining = sum(r["total_seconds"] for r in profile.values()) - total
    if remaining > 0:
        lines.append(f"(+ {remaining * 1e3:.2f} ms across "
                     f"{max(0, len(profile) - top)} other ops)")
    return "\n".join(lines)


def _cmd_serve_eval(args) -> int:
    import shutil
    import tempfile

    import numpy as np

    from repro.serving import (
        InferenceService,
        InputSpec,
        InvalidRequest,
        ServiceConfig,
        ServiceUnavailable,
    )
    from repro.serving.faults import (
        apply_archive_faults,
        apply_runtime_faults,
        parse_fault_spec,
    )

    try:
        faults = parse_fault_spec(args.inject) if args.inject else []
    except ValueError as error:
        print(f"error: bad --inject spec: {error}", file=sys.stderr)
        return 2

    scenario = build_scenario(args.scenario, rng=args.seed)
    archive_path = args.ensemble
    workdir = None
    archive_faults = [f for f in faults if f["kind"] not in ("flaky", "slow")]
    if archive_faults:
        # Never damage the user's artifact: rehearse on a copy.
        workdir = tempfile.mkdtemp(prefix="repro-serve-eval-")
        archive_path = str(pathlib.Path(workdir) / "ensemble.npz")
        shutil.copyfile(args.ensemble, archive_path)
        for line in apply_archive_faults(archive_path, archive_faults):
            print(f"inject: {line}")

    config = ServiceConfig(
        min_members=args.min_members, strict=args.strict,
        fault_threshold=args.fault_threshold,
        breaker_cooldown=args.cooldown,
        input_spec=InputSpec.from_example(scenario.split.test.x))
    try:
        try:
            service = InferenceService.from_archive(
                archive_path, scenario.factory, config)
        except ServiceUnavailable as error:
            print(f"error: service refused to start: {error}", file=sys.stderr)
            return 2
        for line in apply_runtime_faults(service, faults):
            print(f"inject: {line}")

        x, y = scenario.split.test.x, scenario.split.test.y
        batch = max(1, args.request_batch)
        answered = rejected = unavailable = correct = total = 0
        degraded = deadline_hits = 0
        for request in range(args.requests):
            start = (request * batch) % max(1, len(x) - batch + 1)
            payload = np.array(x[start:start + batch])
            labels = np.asarray(y[start:start + batch])
            if args.poison_every and (request + 1) % args.poison_every == 0 \
                    and np.issubdtype(payload.dtype, np.floating):
                payload[0] = np.nan
            try:
                answer = service.predict(payload, deadline=args.deadline)
            except InvalidRequest as error:
                rejected += 1
                print(f"request {request}: rejected ({error.reason})")
                continue
            except ServiceUnavailable as error:
                unavailable += 1
                print(f"request {request}: unavailable ({error.reason})")
                continue
            answered += 1
            degraded += int(answer.degraded)
            deadline_hits += int(answer.deadline_hit)
            correct += int((answer.labels == labels).sum())
            total += len(labels)

        print(f"requests:          {args.requests} "
              f"({answered} answered, {rejected} rejected, "
              f"{unavailable} unavailable)")
        if total:
            print(f"accuracy (served): {percent(correct / total)}")
        if degraded or deadline_hits:
            print(f"degraded answers:  {degraded} "
                  f"({deadline_hits} hit the deadline)")
        print(_render_health(service.health()))
        return 0
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def _cmd_serve_drift(args) -> int:
    import json

    from repro.experiments.drift import (
        DRIFT_SCHEDULES,
        DriftReplayConfig,
        run_drift_replay,
    )
    from repro.experiments.grid.reporting import write_json

    schedule = args.schedule
    if schedule not in DRIFT_SCHEDULES:
        # Not a preset: accept a JSON schedule payload, inline or a file.
        try:
            path = pathlib.Path(schedule)
            text = path.read_text() if path.is_file() else schedule
            schedule = json.loads(text)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: --schedule must be a preset "
                  f"({', '.join(sorted(DRIFT_SCHEDULES))}), a JSON file or "
                  f"an inline JSON payload: {error}", file=sys.stderr)
            return 2
    config = DriftReplayConfig(
        schedule=schedule, ensemble_size=args.ensemble_size,
        pretrain_epochs=args.pretrain_epochs, label_delay=args.label_delay,
        max_repairs=args.max_repairs, checkpoint_dir=args.checkpoint_dir)
    try:
        result = run_drift_replay(config, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def pct(value):
        return percent(value) if value is not None else "—"

    print(f"drift onset:        batch {result.drift_onset}")
    print(f"detected:           batch {result.detection_batch} "
          f"(latency {result.detection_latency} batch(es); "
          f"statistics: {', '.join(result.detection_statistics) or '—'})")
    print(f"accuracy pre-drift: {pct(result.pre_drift_accuracy)}")
    print(f"accuracy drifted:   {pct(result.drifted_accuracy)} "
          "(detection -> first repair)")
    print(f"accuracy repaired:  {pct(result.post_repair_accuracy)}")
    print(f"member swaps:       {result.member_swaps} "
          f"({result.repair_wall_seconds:.2f}s total repair wall-clock)")
    for event in result.repair_events:
        print(f"  {event.outcome}: {event.reason}")
    path = write_json(args.bench_name, result.to_payload(),
                      directory=args.results)
    print(f"benchmark artifact: {path}")
    return 0


def _cmd_serve_load(args) -> int:
    from repro.experiments.grid.reporting import write_json
    from repro.experiments.serve_load import run_load_suite

    try:
        sizes = tuple(int(part) for part in args.sizes.split(","))
    except ValueError:
        print(f"error: --sizes must be comma-separated integers, "
              f"got {args.sizes!r}", file=sys.stderr)
        return 2
    payload = run_load_suite(
        ensemble_sizes=sizes, seed=args.seed, requests=args.requests,
        rows=args.rows, clients=args.clients,
        max_batch_rows=args.max_batch_rows, max_wait_ms=args.max_wait_ms)
    print(f"{'T':>3} {'batching':>8} {'arrival':>7} {'qps':>8} "
          f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} {'batch':>6}")
    for cell in payload["cells"]:
        latency = cell["latency_ms"]
        print(f"{cell['config']['ensemble_size']:>3} "
              f"{'on' if cell['batching'] else 'off':>8} "
              f"{cell['arrival']:>7} {cell['qps']:>8.0f} "
              f"{latency['p50']:>8.2f} {latency['p95']:>8.2f} "
              f"{latency['p99']:>8.2f} "
              f"{cell['mean_batch_requests']:>6.1f}")
    for size, speedup in payload["qps_speedup_batched"].items():
        print(f"batching speedup at T={size}: {speedup:.2f}x")
    print(f"bit-parity (batched == solo): "
          f"{'ok' if payload['parity_ok'] else 'VIOLATED'}")
    path = write_json(args.bench_name, payload, directory=args.results)
    print(f"benchmark artifact: {path}")
    return 0 if payload["parity_ok"] else 1


def _cmd_serve_overload(args) -> int:
    from repro.experiments.grid.reporting import write_json
    from repro.experiments.serve_overload import (
        OverloadConfig,
        run_overload_suite,
    )

    payload = run_overload_suite(OverloadConfig(seed=args.seed))
    capacity = payload["capacity"]
    print(f"capacity: {capacity['measured_rps']:.0f} rps measured "
          f"({capacity['analytic_rps']:.0f} analytic)")
    print(f"{'load':>6} {'mode':>10} {'offered':>8} {'goodput':>8} "
          f"{'p50 ms':>8} {'p99 ms':>8} {'shed':>6} {'brownout':>8}")
    for cell in payload["cells"]:
        latency = cell["latency_ms"]
        print(f"{cell['load_factor']:>5.1f}x "
              f"{'resilient' if cell['resilient'] else 'baseline':>10} "
              f"{cell['rate']:>8.0f} {cell['goodput_rps']:>8.0f} "
              f"{latency['p50']:>8.1f} {latency['p99']:>8.1f} "
              f"{cell['shed']:>6} {cell['brownout_batches']:>8}")
    for name, value in payload["acceptance"].items():
        print(f"  {name}: {'ok' if value else 'FAIL'}")
    path = write_json(args.bench_name, payload, directory=args.results)
    print(f"benchmark artifact: {path}")
    return 0 if payload["ok"] else 1


def _cmd_serve_chaos(args) -> int:
    from repro.experiments.grid.reporting import write_json
    from repro.experiments.serve_chaos import ChaosConfig, run_chaos_suite

    payload = run_chaos_suite(ChaosConfig(
        schedules=args.schedules, events=args.events,
        horizon_s=args.horizon, seed=args.seed),
        lock_sanitizer=args.lock_sanitizer)
    print(f"{payload['schedules']} schedules at "
          f"{payload['base_rate_rps']:.0f} rps base rate "
          f"(events drawn: {payload['event_kinds']})")
    print(f"  submitted {payload['total_submitted']}, "
          f"shed {payload['total_shed']}, "
          f"failed {payload['total_failed']}, "
          f"member deaths {payload['total_member_deaths']}")
    if args.lock_sanitizer:
        print(f"  lock sanitizer armed: "
              f"{payload['lock_order_violations']} ordering violation(s)")
    if payload["ok"]:
        print("  all invariants held (no deadlock, no torn batch, "
              "ledger conserved)")
    else:
        print(f"  INVARIANT FAILURES in seeds {payload['failed_seeds']}")
    if args.results:
        path = write_json(args.bench_name, payload, directory=args.results)
        print(f"artifact: {path}")
    return 0 if payload["ok"] else 1


def _render_health(health) -> str:
    """Render a :class:`~repro.serving.ServiceHealth` snapshot."""
    lines = [
        f"service health:    "
        f"{'ready' if health.ready else 'NOT READY'} "
        f"(quorum {health.min_members}/{health.members_total}, "
        f"alpha mass {health.effective_alpha_mass:.2f})",
        f"members live:      {health.members_live or '-'}",
    ]
    for index, reason in sorted(health.members_quarantined.items()):
        lines.append(f"  quarantined #{index}: {reason}")
    for index, reason in sorted(health.dropped_at_load.items()):
        lines.append(f"  dropped #{index} at load: {reason}")
    for index, count in sorted(health.member_faults.items()):
        lines.append(f"  faults #{index}: {count}")
    return "\n".join(lines)


def _parse_shard(text: str):
    """Parse ``--shard i/n`` into ``(shard_index, num_shards)``."""
    try:
        index, total = text.split("/")
        index, total = int(index), int(total)
    except ValueError:
        raise ValueError(f"--shard must look like 'i/n', got {text!r}")
    if total < 1 or not 0 <= index < total:
        raise ValueError(f"--shard index must satisfy 0 <= i < n, got {text}")
    return index, total


def _render_grid_aggregates(result) -> str:
    """Render a grid's aggregates as one mean ± std row per group."""
    metric_names = sorted({name for entry in result.aggregates
                           for name in entry["metrics"]
                           if name != "similarity_matrix"})
    group_names = result.spec.group_factors()
    rows = []
    for entry in result.aggregates:
        row = [str(entry["group"].get(name)) for name in group_names]
        row.append(entry["n"])
        for name in metric_names:
            stats = entry["metrics"].get(name)
            row.append(f"{stats['mean']:.4f} ± {stats['std']:.4f}"
                       if stats else "—")
        rows.append(row)
    return format_table(group_names + ["n"] + metric_names, rows,
                        title=f"Grid {result.spec.name} "
                              f"({len(result.records)} runs)")


def _cmd_grid(args) -> int:
    from repro.experiments.grid import (
        GridExecutor,
        GridSpec,
        GridSpecError,
        GridStateError,
        collect_records,
        grid_result,
        run_grid,
        write_grid_artifact,
    )

    try:
        spec = GridSpec.from_json(args.spec)
    except GridSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        shard_index, num_shards = _parse_shard(args.shard)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out is None and (num_shards > 1 or args.resume
                             or args.aggregate_only):
        print("error: --shard/--resume/--aggregate-only need --out "
              "(the shared state directory)", file=sys.stderr)
        return 2
    if args.out is None and args.workers > 1:
        print("error: --workers > 1 needs --out (pool workers record "
              "their runs through the shared manifest)", file=sys.stderr)
        return 2

    try:
        if args.out is None:
            result = run_grid(spec, workers=args.workers,
                              artifact_dir=args.results)
        else:
            if not args.aggregate_only:
                executor = GridExecutor(
                    spec, out_dir=args.out, shard_index=shard_index,
                    num_shards=num_shards, workers=args.workers,
                    resume=args.resume)
                records = executor.execute()
                failed = [r for r in records if r.status == "failed"]
                print(f"shard {shard_index}/{num_shards}: "
                      f"{len(records)} run(s), {len(failed)} failed")
                for record in failed:
                    print(f"  failed {record.run_id}: {record.error}",
                          file=sys.stderr)
            records, missing = collect_records(spec, args.out)
            result = grid_result(spec, records, missing)
            if missing:
                print(f"grid {spec.name}: {len(records)}/"
                      f"{len(records) + len(missing)} runs recorded; "
                      f"waiting for other shards — rerun with "
                      f"--aggregate-only once they finish")
                return 0
            write_grid_artifact(result, directory=args.results)
    except GridSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except GridStateError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(_render_grid_aggregates(result))
    artifact = pathlib.Path(args.results) / f"GRID_{spec.name}.json"
    print(f"aggregate artifact: {artifact}")
    if not result.complete:
        for record in result.failures:
            print(f"failed {record.run_id}: {record.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.analysis.lint import default_rules, run_lint

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.code}  {rule.name}: {rule.rationale}")
        return 0
    report = run_lint(args.paths, rules)
    if args.stats:
        payload = json.dumps(report.stats(), indent=2, sort_keys=True)
        if args.stats == "-":
            print(payload)
        else:
            stats_path = pathlib.Path(args.stats)
            stats_path.parent.mkdir(parents=True, exist_ok=True)
            stats_path.write_text(payload + "\n")
    if args.format == "json":
        print(json.dumps(report.payload(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_compare(args) -> int:
    scenario = build_scenario(args.scenario, rng=args.seed)
    methods = tuple(args.methods.split(","))
    results = run_effectiveness(scenario, methods=methods, rng=args.seed)
    rows = [[r.method, percent(r.final_accuracy),
             percent(r.average_member_accuracy()), r.total_epochs]
            for r in results.values()]
    print(format_table(["Method", "Ensemble acc", "Avg member", "Epochs"],
                       rows, title=f"Comparison on {args.scenario}"))
    return 0


def _cmd_beta(args) -> int:
    from repro.core import select_beta

    scenario = build_scenario(args.scenario, rng=args.seed)
    selection = select_beta(scenario.factory, scenario.split.train,
                            n_folds=args.folds, lr=scenario.lr,
                            batch_size=scenario.batch_size,
                            teacher_epochs=scenario.epochs_per_model,
                            probe_epochs=args.probe_epochs, rng=args.seed)
    rows = [[f"{p.beta:.2f}", percent(p.accuracy_seen_fold),
             percent(p.accuracy_unseen_fold), f"{p.gap:+.4f}"]
            for p in selection.probes]
    print(format_table(["beta", "seen fold", "unseen fold", "gap"], rows,
                       title="Adaptive beta search (Sec. IV-B)"))
    print(f"selected beta = {selection.beta}")
    return 0


def _cmd_info(_args) -> int:
    print("scenarios: c10-resnet, c10-densenet, c100-resnet, c100-densenet, "
          "imdb-textcnn, mr-textcnn")
    print(f"methods:   {', '.join(ALL_METHODS + ('ncl',))}")
    print(f"models:    {', '.join(available_models())}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EDDE reproduction command-line interface")
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="fit one ensemble method")
    _add_scenario_arg(train)
    train.add_argument("--method", default="edde",
                       choices=ALL_METHODS + ("ncl",))
    train.add_argument("--save", default=None,
                       help="path to save the fitted ensemble (.npz)")
    train.add_argument("--checkpoint-dir", default=None,
                       help="directory for per-round training checkpoints")
    train.add_argument("--resume", action="store_true",
                       help="resume from the latest checkpoint in "
                            "--checkpoint-dir")
    train.add_argument("--max-retries", type=int, default=None,
                       help="retries per diverged member before skipping it")
    train.add_argument("--profile-ops", action="store_true",
                       help="collect per-op wall-clock/allocation stats "
                            "during the fit and print a summary table")
    train.set_defaults(func=_cmd_train)

    compare = commands.add_parser("compare", help="compare several methods")
    _add_scenario_arg(compare)
    compare.add_argument("--methods", default="single,snapshot,edde")
    compare.set_defaults(func=_cmd_compare)

    serve = commands.add_parser(
        "serve-eval",
        help="serve a saved ensemble through the fault-tolerant "
             "InferenceService and stream requests at it")
    _add_scenario_arg(serve)
    serve.add_argument("--ensemble", required=True,
                       help="path to a saved ensemble archive (.npz)")
    serve.add_argument("--requests", type=int, default=16,
                       help="number of request batches to stream")
    serve.add_argument("--request-batch", type=int, default=8,
                       help="rows per request batch")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request wall-clock budget in seconds; "
                            "members not started in time are skipped and "
                            "the partial aggregate is returned")
    serve.add_argument("--min-members", type=int, default=None,
                       help="startup quorum (default: ceil(T/2))")
    serve.add_argument("--strict", action="store_true",
                       help="refuse degraded loading: any damaged member "
                            "aborts startup")
    serve.add_argument("--fault-threshold", type=int, default=3,
                       help="consecutive member faults before quarantine")
    serve.add_argument("--cooldown", type=float, default=30.0,
                       help="seconds a quarantined member waits before a "
                            "half-open probe")
    serve.add_argument("--inject", default=None,
                       help="fault spec, e.g. "
                            "'corrupt:0,flaky:1:every=2,slow:2:seconds=0.2' "
                            "(archive faults run on a throwaway copy)")
    serve.add_argument("--poison-every", type=int, default=0,
                       help="poison every Nth request with NaNs to "
                            "exercise input validation")
    serve.set_defaults(func=_cmd_serve_eval)

    drift = commands.add_parser(
        "serve-drift",
        help="replay a drift schedule through the online monitor + "
             "closed-loop ensemble repair stack and archive "
             "results/BENCH_drift.json")
    drift.add_argument("--schedule", default="step-moderate",
                       help="preset name (smoke, step-moderate, "
                            "step-skewed), a JSON schedule file, or an "
                            "inline JSON payload")
    drift.add_argument("--seed", type=int, default=0)
    drift.add_argument("--ensemble-size", type=int, default=4)
    drift.add_argument("--pretrain-epochs", type=int, default=6)
    drift.add_argument("--label-delay", type=int, default=0,
                       help="batches until a batch's labels reach the "
                            "monitor and replay buffer")
    drift.add_argument("--max-repairs", type=int, default=2,
                       help="accepted member swaps before the loop stops "
                            "repairing")
    drift.add_argument("--checkpoint-dir", default=None,
                       help="snapshot the repaired ensemble here after "
                            "every accepted swap")
    drift.add_argument("--results", default="results", metavar="DIR",
                       help="directory for the benchmark artifact")
    drift.add_argument("--bench-name", default="BENCH_drift",
                       help="artifact basename (BENCH_drift -> "
                            "BENCH_drift.json)")
    drift.set_defaults(func=_cmd_serve_drift)

    load = commands.add_parser(
        "serve-load",
        help="drive the concurrent serving pipeline with a load harness "
             "(T x batching on/off sweep) and archive "
             "results/BENCH_serving.json")
    load.add_argument("--sizes", default="1,4,8", metavar="T,T,...",
                      help="comma-separated ensemble sizes to sweep")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--requests", type=int, default=256,
                      help="timed requests per cell (closed loop)")
    load.add_argument("--rows", type=int, default=8,
                      help="rows per request payload")
    load.add_argument("--clients", type=int, default=16,
                      help="closed-loop client threads")
    load.add_argument("--max-batch-rows", type=int, default=128,
                      help="micro-batcher row cap per stacked batch")
    load.add_argument("--max-wait-ms", type=float, default=5.0,
                      help="micro-batcher window: the longest a request "
                           "waits for company after the later of its "
                           "arrival and the pump becoming free")
    load.add_argument("--results", default="results", metavar="DIR",
                      help="directory for the benchmark artifact")
    load.add_argument("--bench-name", default="BENCH_serving",
                      help="artifact basename (BENCH_serving -> "
                           "BENCH_serving.json)")
    load.set_defaults(func=_cmd_serve_load)

    overload = commands.add_parser(
        "serve-overload",
        help="virtual-time overload suite: capacity, then 0.5x/1x/2x "
             "load with and without admission control + brownout; "
             "archives results/BENCH_overload.json")
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument("--results", default="results", metavar="DIR",
                          help="directory for the benchmark artifact")
    overload.add_argument("--bench-name", default="BENCH_overload",
                          help="artifact basename")
    overload.set_defaults(func=_cmd_serve_overload)

    chaos = commands.add_parser(
        "serve-chaos",
        help="replay seeded chaos schedules (storms, stalls, slow "
             "bursts, task deaths) and check the pipeline invariants")
    chaos.add_argument("--schedules", type=int, default=20,
                       help="seeded schedules to replay")
    chaos.add_argument("--events", type=int, default=5,
                       help="disturbances drawn per schedule")
    chaos.add_argument("--horizon", type=float, default=2.0,
                       help="virtual seconds of arrivals per schedule")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--results", default="", metavar="DIR",
                       help="archive CHAOS_<name>.json here (default: "
                            "no artifact)")
    chaos.add_argument("--bench-name", default="CHAOS_serving",
                       help="artifact basename when --results is set")
    chaos.add_argument("--lock-sanitizer", action="store_true",
                       help="replay every schedule under lock_order_mode: "
                            "rank-checked locks turn any ordering "
                            "violation into an invariant failure")
    chaos.set_defaults(func=_cmd_serve_chaos)

    grid = commands.add_parser(
        "grid",
        help="execute a declarative experiment grid from a JSON spec, "
             "optionally sharded, and aggregate the results")
    grid.add_argument("--spec", required=True,
                      help="path to the GridSpec JSON file")
    grid.add_argument("--out", default=None, metavar="DIR",
                      help="shared state directory (per-run manifest + "
                           "checkpoints); omit for a purely in-memory run")
    grid.add_argument("--shard", default="0/1", metavar="I/N",
                      help="execute shard I of N (run i belongs to shard "
                           "i %% N); every shard must use the same --out")
    grid.add_argument("--workers", type=int, default=1,
                      help="parallel worker processes for this shard")
    grid.add_argument("--resume", action="store_true",
                      help="skip runs with a completed manifest entry and "
                           "honour per-run round checkpoints")
    grid.add_argument("--aggregate-only", action="store_true",
                      help="do not execute; aggregate whatever the shards "
                           "have recorded in --out")
    grid.add_argument("--results", default="results", metavar="DIR",
                      help="directory for the GRID_<name>.json artifact")
    grid.set_defaults(func=_cmd_grid)

    lint = commands.add_parser(
        "lint",
        help="run the AST-based invariant checker (RL001–RL008) over "
             "source trees; exits 1 on violations or unused suppressions")
    lint.add_argument("paths", nargs="*", default=["src", "benchmarks"],
                      help="files or directories to lint "
                           "(default: src benchmarks)")
    lint.add_argument("--stats", default=None, metavar="PATH",
                      help="write a JSON summary (rules run, files "
                           "scanned, violations by code, unused "
                           "suppressions) to PATH, or '-' for stdout")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      help="report format: human-readable text (default) "
                           "or the full machine-readable findings JSON")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.set_defaults(func=_cmd_lint)

    beta = commands.add_parser("beta", help="adaptive beta selection")
    _add_scenario_arg(beta)
    beta.add_argument("--folds", type=int, default=6)
    beta.add_argument("--probe-epochs", type=int, default=3)
    beta.set_defaults(func=_cmd_beta)

    info = commands.add_parser("info", help="list scenarios/methods/models")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

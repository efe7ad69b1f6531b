"""The grid runner: spec expansion, sharding, resume and aggregation.

Most tests drive a cheap deterministic ``toy`` runner so the executor
semantics (shard partition, manifests, resume, parallel workers) are
exercised without training; the integration tests at the bottom run the
real ``method`` runner on the tiny scenario, including a mid-fit kill
that resumes from PR 2's round checkpoints.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.grid import (
    GridExecutor,
    GridSpec,
    GridSpecError,
    GridStateError,
    RunOutput,
    aggregate_records,
    beta_teacher_rng,
    collect_records,
    find_group,
    grid_result,
    register_runner,
    run_grid,
    run_rng,
    sample_std,
    scenario_scope,
    significance_matrix,
    stable_digest,
)
from repro.experiments.grid.spec import canonical_json
from repro.experiments.protocol import Scenario
from repro.tensor import default_dtype

from tests.faults.injection import InjectFault

# ----------------------------------------------------------------------
# A deterministic, training-free runner for executor-semantics tests.

EXECUTED = []          # run_ids the toy runner actually executed (per process)
KILL_SEEDS = set()     # seeds the toy runner dies on (simulated kill)


def _toy_runner(run, context):
    if run.seed in KILL_SEEDS:
        raise KeyboardInterrupt("injected kill")
    EXECUTED.append(run.run_id)
    value = float(run_rng(run).random())
    return RunOutput(metrics={"final_accuracy": value,
                              "gamma_echo": run.override_dict.get("gamma", 0.0)},
                     meta={"method_label": run.method})


def _flaky_runner(run, context):
    if run.seed == 1:
        raise ValueError("synthetic fault")
    return _toy_runner(run, context)


register_runner("toy", _toy_runner, replace=True)
register_runner("flaky", _flaky_runner, replace=True)


def toy_spec(**kw):
    defaults = dict(
        name="toy_grid",
        factors={"method": ["a", "b"], "scenario": ["s1", "s2"],
                 "seed": [0, 1]},
        runner="toy", checkpoint=False)
    defaults.update(kw)
    return GridSpec(**defaults)


@pytest.fixture(autouse=True)
def _reset_toy_state():
    EXECUTED.clear()
    KILL_SEEDS.clear()
    yield
    KILL_SEEDS.clear()


def strip_seconds(payloads):
    """Drop the wall-clock fields — the only legitimate divergence
    between two executions of the same run table."""
    return [{**{k: v for k, v in p.items() if k != "seconds"},
             "meta": {k: v for k, v in p.get("meta", {}).items()
                      if k != "round_seconds"}}
            for p in payloads]


# ----------------------------------------------------------------------
class TestSpecExpansion:
    def test_expansion_is_deterministic(self):
        table_a = toy_spec().expand()
        table_b = toy_spec().expand()
        assert [r.run_id for r in table_a] == [r.run_id for r in table_b]
        assert [r.factors for r in table_a] == [r.factors for r in table_b]
        assert [r.index for r in table_a] == list(range(8))

    def test_declared_factor_order(self):
        runs = toy_spec().expand()
        # itertools.product in declared order: last factor varies fastest.
        assert runs[0].factor_dict == {"method": "a", "scenario": "s1",
                                       "seed": 0}
        assert runs[1].factor_dict == {"method": "a", "scenario": "s1",
                                       "seed": 1}
        assert runs[4].factor_dict["method"] == "b"

    def test_run_id_is_content_derived(self):
        run = toy_spec().expand()[3]
        digest = stable_digest({"grid": "toy_grid",
                                "cell": run.factor_dict})
        assert run.run_id == f"r{run.index:04d}-{digest}"

    def test_missing_seed_factor_defaults_to_zero(self):
        spec = GridSpec(name="g", factors={"method": ["a"]}, runner="toy")
        runs = spec.expand()
        assert [r.seed for r in runs] == [0]
        assert runs[0].factor_dict["seed"] == 0

    def test_constraints_prune_and_reindex(self):
        spec = toy_spec(constraints=[{"method": "a", "scenario": "s2"}])
        runs = spec.expand()
        assert len(runs) == 6
        assert not any(r.method == "a" and r.scenario == "s2" for r in runs)
        assert [r.index for r in runs] == list(range(6))

    def test_constraint_list_means_membership(self):
        spec = toy_spec(constraints=[{"seed": [1]}])
        assert all(r.seed == 0 for r in spec.expand())

    def test_free_factor_becomes_override(self):
        spec = GridSpec(name="g", factors={"method": ["a"],
                                           "gamma": [0.1, 0.9]},
                        base={"gamma": 0.5, "lr": 0.01}, runner="toy")
        runs = spec.expand()
        assert [r.override_dict["gamma"] for r in runs] == [0.1, 0.9]
        assert all(r.override_dict["lr"] == 0.01 for r in runs)

    def test_case_bundles_resolve(self):
        spec = GridSpec(
            name="g", factors={"scenario": ["s1"]},
            cases={"plain": {"method": "edde"},
                   "variant": {"method": "edde", "runner": "flaky",
                               "overrides": {"gamma": 0.0}}},
            runner="toy")
        runs = {r.factor_dict["case"]: r for r in spec.expand()}
        assert runs["plain"].runner == "toy"
        assert runs["variant"].runner == "flaky"
        assert runs["variant"].override_dict == {"gamma": 0.0}
        assert runs["variant"].method == "edde"

    def test_all_cells_pruned_rejected(self):
        spec = toy_spec(constraints=[{"seed": [0, 1]}])
        with pytest.raises(GridSpecError, match="pruned every cell"):
            spec.expand()


class TestSpecValidation:
    def test_bad_name_rejected(self):
        with pytest.raises(GridSpecError, match="slug"):
            GridSpec(name="no spaces!", factors={"seed": [0]})

    def test_empty_factor_rejected(self):
        with pytest.raises(GridSpecError, match="no levels"):
            GridSpec(name="g", factors={"method": []})

    def test_constraint_on_unknown_factor_rejected(self):
        with pytest.raises(GridSpecError, match="unknown factor"):
            GridSpec(name="g", factors={"seed": [0]},
                     constraints=[{"beta": 1}])

    def test_case_factor_must_match_bundles(self):
        with pytest.raises(GridSpecError, match="unknown bundle"):
            GridSpec(name="g", factors={"case": ["missing"]},
                     cases={"present": {}})

    def test_from_payload_rejects_unknown_fields(self):
        with pytest.raises(GridSpecError, match="unknown spec field"):
            GridSpec.from_payload({"name": "g", "factors": {"seed": [0]},
                                   "typo_field": 1})

    def test_from_payload_requires_name_and_factors(self):
        with pytest.raises(GridSpecError, match="missing"):
            GridSpec.from_payload({"name": "g"})

    def test_from_json_missing_file(self, tmp_path):
        with pytest.raises(GridSpecError, match="cannot read"):
            GridSpec.from_json(tmp_path / "nope.json")

    def test_spec_hash_round_trips_and_discriminates(self):
        spec = toy_spec()
        clone = GridSpec.from_payload(json.loads(
            canonical_json(spec.to_payload())))
        assert clone.spec_hash == spec.spec_hash
        assert toy_spec(base={"gamma": 0.3}).spec_hash != spec.spec_hash


class TestRunRng:
    def test_depends_on_cell_not_order(self):
        runs = toy_spec().expand()
        values = [run_rng(r).random() for r in runs]
        assert len(set(values)) == len(values)
        assert [run_rng(r).random() for r in runs] == values

    def test_salt_derives_independent_stream(self):
        run = toy_spec().expand()[0]
        assert run_rng(run).random() != run_rng(run, salt="probe").random()

    def test_seed_factor_changes_stream(self):
        run_s0, run_s1 = toy_spec().expand()[:2]
        assert run_rng(run_s0).random() != run_rng(run_s1).random()

    def test_exclude_drops_factor_from_stream(self):
        spec = GridSpec(name="g", factors={"scenario": ["s1"],
                                           "beta": [1.0, 0.5]},
                        runner="toy", checkpoint=False)
        run_a, run_b = spec.expand()
        assert run_rng(run_a).random() != run_rng(run_b).random()
        assert run_rng(run_a, exclude=("beta",)).random() \
            == run_rng(run_b, exclude=("beta",)).random()


def beta_probe_spec(**kw):
    defaults = dict(
        name="beta_grid",
        factors={"scenario": ["s1", "s2"], "beta": [1.0, 0.5],
                 "probe_epochs": [2, 3], "seed": [0, 1]},
        runner="beta_probe", checkpoint=False)
    defaults.update(kw)
    return GridSpec(**defaults)


class TestBetaTeacherRng:
    """The Fig. 5 teacher must be bit-identical per (scenario, seed)."""

    def test_teacher_stream_ignores_runner_consumed_factors(self):
        groups = {}
        for run in beta_probe_spec().expand():
            stream = beta_teacher_rng(run).random(4).tobytes()
            groups.setdefault((run.scenario, run.seed), set()).add(stream)
        # every β x probe_epochs cell of a group shares one stream...
        assert all(len(streams) == 1 for streams in groups.values())
        # ...and distinct (scenario, seed) groups get distinct teachers
        streams = {streams.pop() for streams in groups.values()}
        assert len(streams) == len(groups)

    def test_fold_split_identical_across_beta(self, tiny_image_split):
        from repro.data.folds import split_folds
        runs = [run for run in beta_probe_spec().expand()
                if run.scenario == "s1" and run.seed == 0
                and run.factor_dict["probe_epochs"] == 2]
        assert len(runs) == 2           # the two β levels
        splits = [split_folds(tiny_image_split.train, 3,
                              rng=beta_teacher_rng(run)) for run in runs]
        for fold_a, fold_b in zip(*splits):
            np.testing.assert_array_equal(fold_a.x, fold_b.x)
            np.testing.assert_array_equal(fold_a.y, fold_b.y)

    def test_probe_stream_still_depends_on_beta(self):
        runs = [run for run in beta_probe_spec().expand()
                if run.scenario == "s1" and run.seed == 0
                and run.factor_dict["probe_epochs"] == 2]
        streams = {run_rng(run, salt="beta-probe").random() for run in runs}
        assert len(streams) == len(runs)


# ----------------------------------------------------------------------
class TestAggregation:
    def test_sample_std_is_ddof_1(self):
        values = [0.1, 0.4, 0.7]
        assert sample_std(values) == pytest.approx(np.std(values, ddof=1))
        assert sample_std([0.5]) == 0.0
        assert sample_std([]) == 0.0

    def test_groups_over_seed(self):
        records = [
            {"index": 0, "status": "done",
             "factors": {"method": "a", "seed": 0},
             "metrics": {"acc": 0.6}},
            {"index": 1, "status": "done",
             "factors": {"method": "a", "seed": 1},
             "metrics": {"acc": 0.8}},
            {"index": 2, "status": "failed",
             "factors": {"method": "b", "seed": 0}, "metrics": {}},
        ]
        aggregates = aggregate_records(records, group_by=["method"])
        entry = find_group(aggregates, method="a")
        assert entry["n"] == 2
        assert entry["metrics"]["acc"]["mean"] == pytest.approx(0.7)
        assert entry["metrics"]["acc"]["std"] == pytest.approx(
            np.std([0.6, 0.8], ddof=1))
        # the failed record contributes no group
        assert find_group(aggregates, method="b") is None

    def test_significance_matrix_screens_pairs(self):
        records = []
        for index, (method, accs) in enumerate(
                [("a", [0.9, 0.91]), ("b", [0.5, 0.52])]):
            for seed, acc in enumerate(accs):
                records.append({"index": 2 * index + seed, "status": "done",
                                "factors": {"method": method, "seed": seed},
                                "metrics": {"final_accuracy": acc}})
        aggregates = aggregate_records(records, group_by=["method"])
        matrix = significance_matrix(aggregates, "final_accuracy")
        assert matrix[0]["pairs"] == {"a>b": True, "b>a": False}

    def test_single_seed_pairs_are_omitted(self):
        # One replication gives stderr 0, which would flag any nonzero
        # difference; such pairs must not be screened at all.
        records = [
            {"index": 0, "status": "done",
             "factors": {"method": "a", "seed": 0},
             "metrics": {"final_accuracy": 0.9}},
            {"index": 1, "status": "done",
             "factors": {"method": "b", "seed": 0},
             "metrics": {"final_accuracy": 0.5}},
        ]
        aggregates = aggregate_records(records, group_by=["method"])
        matrix = significance_matrix(aggregates, "final_accuracy")
        assert matrix[0]["pairs"] == {}


# ----------------------------------------------------------------------
class TestExecution:
    def test_in_memory_grid(self):
        grid = run_grid(toy_spec())
        assert grid.complete
        assert len(grid.records) == 8
        assert len(grid.aggregates) == 4          # method x scenario groups
        value = grid.metric("final_accuracy", method="a", scenario="s1",
                            seed=0)
        assert 0.0 <= value <= 1.0
        assert grid.significance                   # method is a group factor

    def test_one_rejects_ambiguity(self):
        grid = run_grid(toy_spec())
        with pytest.raises(KeyError, match="expected exactly 1"):
            grid.one(method="a")

    def test_failures_are_isolated_records(self):
        grid = run_grid(toy_spec(runner="flaky"))
        assert not grid.complete
        assert len(grid.failures) == 4
        failed = grid.one(method="a", scenario="s1", seed=1)
        assert failed.status == "failed"
        assert failed.error == "ValueError: synthetic fault"
        # seed-0 runs still aggregated
        assert find_group(grid.aggregates, method="a", scenario="s1")["n"] == 1

    def test_executor_validates_arguments(self):
        with pytest.raises(ValueError, match="bad shard"):
            GridExecutor(toy_spec(), shard_index=2, num_shards=2)
        with pytest.raises(ValueError, match="workers"):
            GridExecutor(toy_spec(), workers=0)
        with pytest.raises(ValueError, match="out_dir"):
            GridExecutor(toy_spec(), workers=2)


class TestSharding:
    def test_shard_partition_is_disjoint_and_total(self):
        spec = toy_spec()
        shards = [GridExecutor(spec, shard_index=i, num_shards=3).shard_runs()
                  for i in range(3)]
        ids = [run.run_id for shard in shards for run in shard]
        assert sorted(ids) == sorted(r.run_id for r in spec.expand())
        assert len(set(ids)) == len(ids)

    def test_sharded_aggregates_bit_identical(self, tmp_path):
        spec = toy_spec()
        single = run_grid(spec, out_dir=tmp_path / "single")
        sharded = run_grid(spec, out_dir=tmp_path / "sharded", num_shards=3)
        assert canonical_json(sharded.to_payload()["aggregates"]) \
            == canonical_json(single.to_payload()["aggregates"])
        assert canonical_json(sharded.to_payload()["significance"]) \
            == canonical_json(single.to_payload()["significance"])
        assert strip_seconds(sharded.to_payload()["runs"]) \
            == strip_seconds(single.to_payload()["runs"])

    def test_parallel_workers_match_serial(self, tmp_path):
        spec = toy_spec()
        serial = run_grid(spec, out_dir=tmp_path / "serial")
        parallel = run_grid(spec, out_dir=tmp_path / "parallel", workers=2)
        assert canonical_json(parallel.to_payload()["aggregates"]) \
            == canonical_json(serial.to_payload()["aggregates"])

    def test_partial_coverage_reports_missing(self, tmp_path):
        spec = toy_spec()
        GridExecutor(spec, out_dir=tmp_path, shard_index=0,
                     num_shards=2).execute()
        records, missing = collect_records(spec, tmp_path)
        assert len(records) == 4 and len(missing) == 4
        partial = grid_result(spec, records, missing)
        assert not partial.complete
        assert sorted(partial.missing) == sorted(missing)


class TestResume:
    def test_kill_then_resume_completes_without_rerunning(self, tmp_path):
        spec = toy_spec()
        out = tmp_path / "state"
        KILL_SEEDS.add(1)
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec, out_dir=out)
        first_pass = list(EXECUTED)
        assert first_pass == [spec.expand()[0].run_id]  # died on run 1
        # the killed run left no manifest entry
        manifest = out / spec.name / "manifest"
        assert len(list(manifest.glob("r*.json"))) == 1

        KILL_SEEDS.clear()
        EXECUTED.clear()
        resumed = run_grid(spec, out_dir=out, resume=True)
        assert resumed.complete
        # the finished run was skipped, the remaining 7 executed
        assert first_pass[0] not in EXECUTED
        assert len(EXECUTED) == 7

        fresh = run_grid(spec, out_dir=tmp_path / "fresh")
        assert canonical_json(resumed.to_payload()["aggregates"]) \
            == canonical_json(fresh.to_payload()["aggregates"])

    def test_refuses_stale_state_without_resume(self, tmp_path):
        spec = toy_spec()
        run_grid(spec, out_dir=tmp_path)
        with pytest.raises(GridStateError, match="resume"):
            run_grid(spec, out_dir=tmp_path)
        # but an explicit resume just reuses the manifests
        EXECUTED.clear()
        again = run_grid(spec, out_dir=tmp_path, resume=True)
        assert again.complete and EXECUTED == []

    def test_refuses_directory_of_different_spec(self, tmp_path):
        run_grid(toy_spec(), out_dir=tmp_path)
        changed = toy_spec(base={"gamma": 0.3})
        with pytest.raises(GridStateError, match="different spec"):
            run_grid(changed, out_dir=tmp_path, resume=True)

    def test_fresh_shards_share_a_directory_without_resume(self, tmp_path):
        # Concurrent shards launched into one fresh --out must not trip
        # the stale-state guard on each other's manifests.
        spec = toy_spec()
        GridExecutor(spec, out_dir=tmp_path, shard_index=0,
                     num_shards=2).execute()
        GridExecutor(spec, out_dir=tmp_path, shard_index=1,
                     num_shards=2).execute()
        records, missing = collect_records(spec, tmp_path)
        assert not missing and len(records) == 8

    def test_refuses_resume_under_other_repro_settings(self, tmp_path,
                                                       monkeypatch):
        # REPRO_SCALE is not part of the spec hash, but it sets the
        # epoch budget: a resume at 0.5 must not reuse a 0.13 record.
        spec = GridSpec(name="scale_guard",
                        factors={"method": ["single"],
                                 "scenario": ["mr-textcnn"], "seed": [0]},
                        checkpoint=False)
        monkeypatch.setenv("REPRO_TRAIN_SIZE", "60")
        monkeypatch.setenv("REPRO_TEST_SIZE", "30")
        monkeypatch.setenv("REPRO_SCALE", "0.13")
        assert run_grid(spec, out_dir=tmp_path).complete
        header = json.loads((tmp_path / spec.name / "grid.json").read_text())
        assert header["settings"] == {"scale": 0.13, "train_size": 60,
                                      "test_size": 30,
                                      "dtype": default_dtype().name}
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        with pytest.raises(GridStateError, match="REPRO_"):
            run_grid(spec, out_dir=tmp_path, resume=True)

    def test_refuses_a_header_without_settings(self, tmp_path):
        spec = toy_spec()
        run_grid(spec, out_dir=tmp_path)
        header_path = tmp_path / spec.name / "grid.json"
        header = json.loads(header_path.read_text())
        del header["settings"]
        header_path.write_text(json.dumps(header))
        with pytest.raises(GridStateError, match="REPRO_"):
            run_grid(spec, out_dir=tmp_path, resume=True)


# ----------------------------------------------------------------------
# Integration: the real method runner on the tiny scenario.

@pytest.fixture
def tiny_scenario(tiny_image_split, mlp_factory):
    return Scenario(name="tiny", split=tiny_image_split, factory=mlp_factory,
                    ensemble_size=2, epochs_per_model=1,
                    edde_first_epochs=1, edde_later_epochs=1,
                    lr=0.05, batch_size=32, gamma=0.1, beta=0.7,
                    weight_decay=0.0)


class TestMethodRunnerIntegration:
    def test_end_to_end_metrics(self, tiny_scenario):
        spec = GridSpec(name="tiny_grid",
                        factors={"method": ["single", "edde"],
                                 "scenario": ["tiny-reg"]},
                        checkpoint=False)
        with scenario_scope("tiny-reg", tiny_scenario):
            grid = run_grid(spec)
        assert grid.complete
        record = grid.one(method="edde")
        assert 0.0 <= record.metrics["final_accuracy"] <= 1.0
        assert record.metrics["num_members"] == 2
        assert record.meta["method_label"] == "EDDE"
        assert record.meta["resumed_from_round"] is False

    def test_mid_fit_kill_resumes_from_round_checkpoint(self, tmp_path,
                                                        tiny_scenario):
        spec = GridSpec(name="tiny_resume",
                        factors={"method": ["edde"], "scenario": ["tiny-reg"]},
                        base={"num_models": 2})
        fault = InjectFault(round_index=1, mode="interrupt")

        def faulting_runner(run, context):
            from repro.experiments.grid.runners import method_runner
            run = type(run).from_payload(
                {**run.to_payload(),
                 "overrides": {**run.override_dict, "callbacks": [fault]}})
            return method_runner(run, context)

        register_runner("faulting_method", faulting_runner, replace=True)
        killed = GridSpec.from_payload(
            {**spec.to_payload(), "runner": "faulting_method"})

        with scenario_scope("tiny-reg", tiny_scenario):
            with pytest.raises(KeyboardInterrupt):
                run_grid(killed, out_dir=tmp_path / "state")
            run_id = spec.expand()[0].run_id
            checkpoints = (tmp_path / "state" / spec.name / "runs"
                           / run_id / "checkpoints")
            assert any(checkpoints.iterdir())      # round 0 was checkpointed

            # resume with the clean spec: same hash fields except runner —
            # use the killed spec so the state directory is accepted, but
            # the fault fired once, so the retry trains through.
            resumed = run_grid(killed, out_dir=tmp_path / "state",
                               resume=True)
            assert resumed.complete
            record = resumed.one(method="edde")
            assert record.meta["resumed_from_round"] is True

            fresh = run_grid(spec, out_dir=tmp_path / "fresh")
        assert record.metrics["final_accuracy"] == pytest.approx(
            fresh.one(method="edde").metrics["final_accuracy"])
        # checkpoints are discarded once the run lands
        assert not checkpoints.exists()


class TestPaperRunnersAndCollectors:
    """The runners and collectors the Table IV-VI and Fig. 1/5/8 benches use."""

    @staticmethod
    def _run(tiny_scenario, **spec):
        with scenario_scope("tiny-reg", tiny_scenario):
            grid = run_grid(GridSpec(name="tiny_paper", checkpoint=False,
                                     **spec))
        assert grid.complete
        assert all(record.status == "done" for record in grid.records)
        return grid.records

    def test_diversity_collector(self, tiny_scenario):
        records = self._run(
            tiny_scenario,
            factors={"method": ["snapshot", "edde", "adaboost_nc"],
                     "scenario": ["tiny-reg"]},
            collect="diversity")
        assert [r.method for r in records] == ["snapshot", "edde",
                                               "adaboost_nc"]
        for record in records:
            assert 0.0 <= record.metrics["diversity"] <= 1.0
            assert np.shape(record.metrics["similarity_matrix"]) == (2, 2)

    def test_bias_variance_collector(self, tiny_scenario):
        records = self._run(
            tiny_scenario,
            factors={"method": ["snapshot", "edde"],
                     "scenario": ["tiny-reg"]},
            collect="bias_variance")
        assert len(records) == 2
        for record in records:
            assert 0.0 <= record.metrics["bias"] <= 1.0
            assert 0.0 <= record.metrics["variance"] <= 1.0

    def test_beta_probe_runner_probes_each_beta_in_order(self,
                                                          tiny_scenario):
        records = self._run(
            tiny_scenario,
            factors={"scenario": ["tiny-reg"], "beta": [1.0, 0.5]},
            base={"n_folds": 4, "probe_epochs": 1, "teacher_epochs": 1},
            runner="beta_probe")
        assert [r.metrics["beta"] for r in records] == [1.0, 0.5]

    @pytest.mark.parametrize("runner", ["edde_cumulative_weights",
                                        "edde_correlate_previous_model"])
    def test_variant_runner_fits(self, runner, tiny_scenario):
        (record,) = self._run(tiny_scenario,
                              factors={"scenario": ["tiny-reg"]},
                              runner=runner)
        assert record.metrics["num_members"] == 2
        assert 0.0 <= record.metrics["final_accuracy"] <= 1.0


# ----------------------------------------------------------------------
class TestServeDriftRunner:
    def test_grid_cell_matches_direct_replay(self):
        from repro.experiments.drift import DriftReplayConfig, \
            run_drift_replay

        spec = GridSpec(name="drift-grid",
                        factors={"scenario": ["smoke"], "seed": [0]},
                        runner="serve_drift", checkpoint=False)
        grid = run_grid(spec)
        assert grid.complete
        (record,) = grid.records
        direct = run_drift_replay(DriftReplayConfig(schedule="smoke"),
                                  seed=0).to_payload()
        # The replay is a pure function of (schedule, seed): the grid
        # cell reproduces the direct call bit for bit, modulo wall clock.
        assert record.metrics["detection_batch"] == \
            direct["detection_batch"]
        assert record.metrics["member_swaps"] == direct["member_swaps"]
        assert record.metrics["post_repair_accuracy"] == \
            direct["post_repair_accuracy"]
        assert record.meta["accuracy_curve"] == direct["accuracy_curve"]
        assert record.meta["schedule"] == direct["schedule"]

    def test_scenario_must_name_a_schedule(self):
        spec = GridSpec(name="drift-grid",
                        factors={"scenario": ["not-a-preset"],
                                 "seed": [0]},
                        runner="serve_drift", checkpoint=False)
        grid = run_grid(spec)
        (record,) = grid.records
        assert record.status == "failed"
        assert "declares no drift schedule" in record.error

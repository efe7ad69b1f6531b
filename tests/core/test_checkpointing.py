"""CheckpointManager unit tests: layout, retention, atomicity, errors."""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.baselines import Bagging, BaselineConfig
from repro.core import CheckpointError, CheckpointManager, FaultTolerance


@pytest.fixture
def fitted_directory(tmp_path, tiny_image_split, mlp_factory):
    """A checkpoint directory left behind by a completed 3-round fit."""
    directory = tmp_path / "checkpoints"
    config = BaselineConfig(num_models=3, epochs_per_model=1, lr=0.05,
                            batch_size=32, weight_decay=0.0)
    result = Bagging(mlp_factory, config).fit(
        tiny_image_split.train, tiny_image_split.test, rng=0,
        fault_tolerance=FaultTolerance(
            checkpoint=CheckpointManager(directory)))
    return directory, result


class TestLayout:
    def test_manifest_and_round_files(self, fitted_directory):
        directory, _ = fitted_directory
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["method"] == "Bagging"
        assert manifest["keep_last"] == 3
        assert [e["round"] for e in manifest["rounds"]] == [1, 2, 3]
        for entry in manifest["rounds"]:
            assert (directory / entry["file"]).is_file()

    def test_no_temporary_files_left_behind(self, fitted_directory):
        directory, _ = fitted_directory
        leftovers = [p.name for p in directory.iterdir()
                     if "tmp" in p.name]
        assert leftovers == []

    def test_round_archive_is_self_contained(self, fitted_directory,
                                             mlp_factory):
        directory, result = fitted_directory
        manager = CheckpointManager(directory)
        state = manager.load(mlp_factory, round_index=3)
        assert state.round == 3
        assert state.method == "Bagging"
        assert len(state.ensemble) == 3
        assert [m.index for m in state.members] == [0, 1, 2]
        assert state.cumulative_epochs == 3
        assert state.rng_state is not None
        # The checkpointed members are the fitted members, bit for bit.
        for mine, theirs in zip(state.ensemble.models, result.ensemble.models):
            for name, value in mine.state_dict().items():
                assert np.array_equal(value, theirs.state_dict()[name])

    def test_query_helpers(self, fitted_directory):
        directory, _ = fitted_directory
        manager = CheckpointManager(directory)
        assert manager.latest_round() == 3
        assert manager.available_rounds() == [1, 2, 3]
        empty = CheckpointManager(directory / "nope")
        assert empty.latest_round() is None
        assert empty.available_rounds() == []


class TestRetention:
    def test_keep_last_prunes_old_rounds(self, tmp_path, tiny_image_split,
                                         mlp_factory):
        directory = tmp_path / "checkpoints"
        config = BaselineConfig(num_models=4, epochs_per_model=1, lr=0.05,
                                batch_size=32, weight_decay=0.0)
        Bagging(mlp_factory, config).fit(
            tiny_image_split.train, tiny_image_split.test, rng=0,
            fault_tolerance=FaultTolerance(
                checkpoint=CheckpointManager(directory, keep_last=2)))
        manager = CheckpointManager(directory)
        assert manager.available_rounds() == [3, 4]
        archives = sorted(p.name for p in directory.glob("round_*.npz"))
        assert archives == ["round_0003.npz", "round_0004.npz"]

    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointManager(tmp_path, keep_last=0)

    def test_rerun_drops_abandoned_timeline(self, fitted_directory,
                                            tiny_image_split, mlp_factory):
        # Re-running from scratch over an old directory: rounds from the
        # previous timeline must not mix with the new one.
        directory, _ = fitted_directory
        config = BaselineConfig(num_models=2, epochs_per_model=1, lr=0.05,
                                batch_size=32, weight_decay=0.0)
        Bagging(mlp_factory, config).fit(
            tiny_image_split.train, tiny_image_split.test, rng=1,
            fault_tolerance=FaultTolerance(
                checkpoint=CheckpointManager(directory)))
        assert CheckpointManager(directory).available_rounds() == [1, 2]

    def test_kill_while_publishing_keeps_a_loadable_round(
            self, tmp_path, mlp_factory, monkeypatch):
        # keep_last=1: saving round 2 drops round 1.  A kill before the new
        # manifest lands must leave the old manifest's round on disk.
        from repro.core import Ensemble

        ensemble = Ensemble()
        ensemble.add(mlp_factory.build(rng=0), alpha=1.0)
        directory = tmp_path / "checkpoints"
        manager = CheckpointManager(directory, keep_last=1)
        manager.snapshot_ensemble(ensemble, round_index=1)
        replace = os.replace

        def killed_at_manifest(src, dst):
            if pathlib.Path(dst).name == "manifest.json":
                raise OSError("killed while publishing the manifest")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", killed_at_manifest)
        with pytest.raises(OSError, match="killed"):
            manager.snapshot_ensemble(ensemble, round_index=2)
        monkeypatch.undo()
        state = CheckpointManager(directory).load(mlp_factory)
        assert state.round == 1
        assert len(state.ensemble) == 1


class TestLoadErrors:
    def test_missing_directory(self, tmp_path, mlp_factory):
        with pytest.raises(CheckpointError, match="does not exist"):
            CheckpointManager(tmp_path / "absent").load(mlp_factory)

    def test_missing_manifest(self, tmp_path, mlp_factory):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            CheckpointManager(tmp_path).load(mlp_factory)

    def test_corrupt_manifest(self, fitted_directory, mlp_factory):
        directory, _ = fitted_directory
        (directory / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt checkpoint manifest"):
            CheckpointManager(directory).load(mlp_factory)

    def test_manifest_without_rounds_key(self, fitted_directory, mlp_factory):
        directory, _ = fitted_directory
        (directory / "manifest.json").write_text(json.dumps({"method": "x"}))
        with pytest.raises(CheckpointError, match="missing 'rounds'"):
            CheckpointManager(directory).load(mlp_factory)

    def test_unknown_round(self, fitted_directory, mlp_factory):
        directory, _ = fitted_directory
        with pytest.raises(CheckpointError, match="round 9 is not in"):
            CheckpointManager(directory).load(mlp_factory, round_index=9)

    def test_corrupt_archive(self, fitted_directory, mlp_factory):
        directory, _ = fitted_directory
        (directory / "round_0003.npz").write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="corrupt checkpoint archive"):
            CheckpointManager(directory).load(mlp_factory, round_index=3)

    def test_wrong_architecture(self, fitted_directory, tiny_image_split):
        from repro.models import MLP, ModelFactory

        directory, _ = fitted_directory
        input_dim = int(np.prod(tiny_image_split.train.x.shape[1:]))
        wrong = ModelFactory(MLP, input_dim=input_dim,
                             num_classes=tiny_image_split.num_classes,
                             hidden=(5, 5))
        with pytest.raises(CheckpointError, match="corrupt checkpoint archive"):
            CheckpointManager(directory).load(wrong)


class TestSnapshotEnsemble:
    """snapshot_ensemble: the repair loop's engine-free checkpoint path."""

    def snapshot(self, tmp_path, mlp_factory, rounds=(1,)):
        from repro.core import Ensemble

        directory = tmp_path / "repairs"
        manager = CheckpointManager(directory)
        ensemble = Ensemble()
        for seed in range(3):
            ensemble.add(mlp_factory.build(rng=seed), alpha=seed + 1.0)
        for index in rounds:
            manager.snapshot_ensemble(ensemble, round_index=index,
                                      metadata={"worst_member": 2,
                                                "beta": 0.5})
        return directory, manager, ensemble

    def test_round_trips_through_load(self, tmp_path, mlp_factory,
                                      tiny_image_split):
        directory, manager, ensemble = self.snapshot(tmp_path, mlp_factory)
        state = manager.load(mlp_factory)
        assert state.round == 1
        assert state.method == "repair"
        assert state.metadata == {"worst_member": 2, "beta": 0.5}
        assert len(state.ensemble) == 3
        assert state.ensemble.alphas == ensemble.alphas
        x = tiny_image_split.test.x[:8]
        np.testing.assert_array_equal(state.ensemble.predict_probs(x),
                                      ensemble.predict_probs(x))

    def test_uses_the_manifest_and_retention(self, tmp_path, mlp_factory):
        directory, manager, _ = self.snapshot(tmp_path, mlp_factory,
                                              rounds=(1, 2, 3, 4))
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["method"] == "repair"
        assert manager.available_rounds() == [2, 3, 4]  # keep_last=3
        archives = sorted(p.name for p in directory.glob("round_*.npz"))
        assert archives == ["round_0002.npz", "round_0003.npz",
                            "round_0004.npz"]

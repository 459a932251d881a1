from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from reefsim import mission
from reefsim.cli import main
from reefsim.config import RunConfig, config_from_dict, load_config
from reefsim.errors import ConfigError, DataError

SMALL_CONFIG = {
    "world": {"width_m": 16.0, "height_m": 16.0, "snap_rates_per_s": [20.0, 0.0, 0.0]},
    "plan": {
        "bounds": [1.0, 1.0, 15.0, 15.0],
        "leg_spacing_m": 7.0,
        "drift_duration_s": 1.0,
        "waypoint_spacing_m": 4.5,
        "audio_fs_hz": 48_000,
    },
    "topics": {"gibbs_sweeps": 5},
    "episode": {"duration_s": 20.0},
}


GOLDEN_DIGESTS = Path(__file__).parent / "golden_cli_digests.json"


def write_config(tmp_path: Path, data: dict | None = None) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data if data is not None else SMALL_CONFIG))
    return path


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def runner():
    return CliRunner()


class TestConfigLoading:
    def test_defaults_when_no_file(self) -> None:
        config = load_config(None)
        assert config == RunConfig()

    def test_unknown_section_rejected(self) -> None:
        with pytest.raises(ConfigError):
            config_from_dict({"wurld": {}})

    def test_unknown_key_rejected(self) -> None:
        with pytest.raises(ConfigError):
            config_from_dict({"world": {"width_meters": 20.0}})

    def test_missing_keys_fall_back_to_defaults(self) -> None:
        config = config_from_dict({"world": {"width_m": 30.0}})
        assert config.world.width_m == 30.0
        assert config.world.vocab_size == RunConfig().world.vocab_size

    def test_invalid_habitat_count_rejected(self) -> None:
        with pytest.raises(ConfigError):
            config_from_dict({"world": {"n_habitats": 0, "snap_rates_per_s": []}})

    def test_invalid_topic_hyperparameters_rejected(self) -> None:
        with pytest.raises(ConfigError):
            config_from_dict({"topics": {"alpha": -1.0}})

    def test_zero_usbl_sigma_allowed_without_usbl_fixes(self) -> None:
        assert config_from_dict({"noise": {"usbl_sigma": 0.0, "usbl_enabled": False}}).noise.usbl_sigma == 0.0
        assert config_from_dict({"noise": {"usbl_sigma": 0.0, "usbl_period_s": 0.0}}).noise.usbl_sigma == 0.0


class TestWorldGen:
    def test_writes_world_and_map(self, runner, tmp_path) -> None:
        config = write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(main, ["world-gen", "--config", str(config), "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "world.json").exists()
        assert (out / "habitat_map.svg").exists()
        assert (out / "resolved_config.yaml").exists()
        echoed = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert echoed["seed"] == 3
        assert echoed["world"]["width_m"] == 16.0

    def test_reproducible_bytes(self, runner, tmp_path) -> None:
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = runner.invoke(main, ["world-gen", "--config", str(config), "--seed", "3", "--out", str(out)])
            assert result.exit_code == 0
        assert tree_hashes(out1) == tree_hashes(out2)

    def test_config_error_exit_code(self, runner, tmp_path) -> None:
        config = write_config(tmp_path, {"world": {"n_habitats": 0, "snap_rates_per_s": []}})
        result = runner.invoke(main, ["world-gen", "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """world-gen + survey, shared by the downstream command tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config = write_config(tmp_path)
    runner = CliRunner()
    world_out = tmp_path / "world"
    result = runner.invoke(main, ["world-gen", "--config", str(config), "--seed", "3", "--out", str(world_out)])
    assert result.exit_code == 0, result.output
    survey_out = tmp_path / "survey"
    result = runner.invoke(
        main,
        [
            "survey",
            "--world",
            str(world_out / "world.json"),
            "--config",
            str(config),
            "--seed",
            "3",
            "--out",
            str(survey_out),
        ],
    )
    assert result.exit_code == 0, result.output
    return tmp_path, config, world_out, survey_out


class TestSurveyAnalyzeTrack:
    def test_survey_outputs(self, workspace) -> None:
        _, _, _, survey_out = workspace
        assert (survey_out / "mission_log.jsonl").exists()
        assert (survey_out / "ekf_error.csv").exists()
        wavs = list((survey_out / "audio").glob("*.wav"))
        assert len(wavs) == 15  # 3 legs x 5 stations per leg

    def test_survey_reproducible(self, workspace, tmp_path) -> None:
        base, config, world_out, survey_out = workspace
        runner = CliRunner()
        again = tmp_path / "survey2"
        result = runner.invoke(
            main,
            ["survey", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "3", "--out", str(again)],
        )
        assert result.exit_code == 0
        assert tree_hashes(again) == tree_hashes(survey_out)

    def test_survey_missing_world_is_data_error(self, workspace, tmp_path) -> None:
        _, config, _, _ = workspace
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["survey", "--world", str(tmp_path / "nope.json"), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 3

    def test_analyze_outputs_and_reproducibility(self, workspace, tmp_path) -> None:
        _, config, _, survey_out = workspace
        runner = CliRunner()
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                ["analyze", "--log", str(survey_out / "mission_log.jsonl"), "--config", str(config), "--seed", "0", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
        for name in (
            "snap_rates.csv",
            "topic_timeseries.csv",
            "coefficients.csv",
            "observed_vs_predicted.csv",
            "summary.json",
            "snap_rate_fit.svg",
            "topic_model.json",
        ):
            assert (out1 / name).exists()
        assert tree_hashes(out1) == tree_hashes(out2)
        summary = json.loads((out1 / "summary.json").read_text())
        assert -1.0 <= summary["pearson_r"] <= 1.0

    def test_analyze_without_drift_windows_is_data_error(self, workspace, tmp_path) -> None:
        base, _, world_out, _ = workspace
        no_drift = dict(SMALL_CONFIG)
        no_drift["plan"] = {**SMALL_CONFIG["plan"], "drift_duration_s": 0.0}
        config = write_config(tmp_path, no_drift)
        runner = CliRunner()
        survey_out = tmp_path / "nodrift"
        result = runner.invoke(
            main,
            ["survey", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "1", "--out", str(survey_out)],
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
            ["analyze", "--log", str(survey_out / "mission_log.jsonl"), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "key, bad",
        [("words", -1), ("words", 1.5), ("cell_id", 10_000)],
        ids=["negative-word-count", "fractional-word-count", "cell-outside-grid"],
    )
    def test_analyze_corrupt_imaging_record_is_data_error(self, workspace, tmp_path, key, bad) -> None:
        _, config, _, survey_out = workspace
        corrupt = tmp_path / "corrupt"
        shutil.copytree(survey_out, corrupt)
        log_path = corrupt / "mission_log.jsonl"
        lines = log_path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if '"words"' in line)
        record = json.loads(lines[i])
        record[key] = [bad, *record["words"][1:]] if key == "words" else bad
        lines[i] = json.dumps(record)
        log_path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize(
        "n, edit",
        [
            (4, lambda line: line[: len(line) // 2]),
            (4, lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "est_mean"})),
            (4, lambda line: json.dumps(json.loads(line)["true_pose"])),
            (4, lambda line: json.dumps({**json.loads(line), "est_mean": None})),
            (4, lambda line: json.dumps({**json.loads(line), "mode": "HOVER"})),
            (1, lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "grid_nx"})),
            (1, lambda line: json.dumps({**json.loads(line), "audio_dir": 7})),
        ],
        ids=[
            "truncated-json",
            "missing-est-mean",
            "not-a-mapping",
            "est-mean-wrong-type",
            "unknown-mode",
            "header-missing-key",
            "header-wrong-type",
        ],
    )
    def test_analyze_malformed_log_line_is_data_error(self, workspace, tmp_path, n, edit) -> None:
        _, config, _, survey_out = workspace
        corrupt = tmp_path / "corrupt"
        shutil.copytree(survey_out, corrupt)
        log_path = corrupt / "mission_log.jsonl"
        lines = log_path.read_text().splitlines()
        lines[n - 1] = edit(lines[n - 1])
        log_path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, result.output
        assert f"{log_path} line {n}:" in result.output

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("words", lambda record: {**record, "t": 0.0}),
            ("audio", lambda record: {**record, "mode": "TRANSIT"}),
            ("words", lambda record: {**record, "mode": "DRIFT"}),
        ],
        ids=["timestamps-not-increasing", "audio-outside-drift", "words-outside-transit"],
    )
    def test_analyze_inconsistent_log_is_data_error(self, workspace, tmp_path, key, edit) -> None:
        _, config, _, survey_out = workspace
        corrupt = tmp_path / "corrupt"
        shutil.copytree(survey_out, corrupt)
        log_path = corrupt / "mission_log.jsonl"
        lines = log_path.read_text().splitlines()
        # The second record carrying ``key``, so a timestamp of 0 is out of order.
        i = [i for i, line in enumerate(lines) if f'"{key}"' in line][1]
        lines[i] = json.dumps(edit(json.loads(lines[i])))
        log_path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize(
        "section, key, bad",
        [
            ("noise", "depth_sigma", 0.0),
            ("noise", "heading_sigma", 0.0),
            ("noise", "heading_sigma", -0.1),
            ("noise", "dvl_velocity_sigma", float("nan")),
            ("noise", "yaw_rate_sigma", float("inf")),
            ("noise", "usbl_sigma", 0.0),
            ("mission", "words_per_image", 0),
        ],
    )
    def test_survey_invalid_noise_or_mission_is_config_error(self, workspace, tmp_path, section, key, bad) -> None:
        _, _, world_out, _ = workspace
        config = write_config(tmp_path, {**SMALL_CONFIG, section: {key: bad}})
        result = CliRunner().invoke(
            main,
            ["survey", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2, result.output
        assert key in result.output

    @pytest.mark.parametrize(
        "section, key",
        [
            ("mission", "dt_s"),
            ("world", "width_m"),
            ("world", "height_m"),
            ("world", "cell_size_m"),
            ("plan", "drift_duration_s"),
            ("plan", "imaging_period_s"),
            ("plan", "leg_spacing_m"),
            ("episode", "duration_s"),
        ],
    )
    def test_survey_nan_setting_is_config_error(self, workspace, tmp_path, section, key) -> None:
        _, _, world_out, _ = workspace
        config = write_config(tmp_path, {**SMALL_CONFIG, section: {**SMALL_CONFIG.get(section, {}), key: float("nan")}})
        result = CliRunner().invoke(
            main,
            ["survey", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2, result.output
        assert key in result.output

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the patched worker target is seen only under fork"
    )
    @pytest.mark.parametrize("error, code", [(ConfigError, 2), (DataError, 3)])
    def test_survey_worker_error_keeps_its_exit_code(self, workspace, tmp_path, monkeypatch, error, code) -> None:
        _, config, world_out, _ = workspace

        def fail(send, *args):
            raise error("vehicle loop failed")

        monkeypatch.setattr(mission, "_run_vehicle", fail)
        result = CliRunner().invoke(
            main,
            ["survey", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == code, result.output
        assert "vehicle loop failed" in result.output

    def test_track_outputs_and_reproducibility(self, workspace, tmp_path) -> None:
        _, config, world_out, _ = workspace
        runner = CliRunner()
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                ["track", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "5", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
        for name in ("track_log.jsonl", "track_metrics.csv", "trajectory.svg"):
            assert (out1 / name).exists()
        assert tree_hashes(out1) == tree_hashes(out2)

    def test_track_zero_duration_is_config_error(self, workspace, tmp_path) -> None:
        _, _, world_out, _ = workspace
        bad = dict(SMALL_CONFIG)
        bad["episode"] = {"duration_s": 0.0}
        config = write_config(tmp_path, bad)
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["track", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2


def run_all_commands(runner, workspace, out: Path) -> dict[str, str]:
    """sha256 of every artifact of the four commands, keyed by path under
    ``out`` (world-gen and survey outputs come from the shared workspace)."""
    _, config, world_out, survey_out = workspace
    for command, flag, source, seed in (
        ("analyze", "--log", survey_out / "mission_log.jsonl", "0"),
        ("track", "--world", world_out / "world.json", "5"),
    ):
        result = runner.invoke(
            main, [command, flag, str(source), "--config", str(config), "--seed", seed, "--out", str(out / command)]
        )
        assert result.exit_code == 0, result.output
    digests = {}
    for name, root in (("world-gen", world_out), ("survey", survey_out), ("analyze", out / "analyze"), ("track", out / "track")):
        digests.update({f"{name}/{path}": digest for path, digest in tree_hashes(root).items()})
    return digests


class TestGoldenDigests:
    """Every CLI artifact of SMALL_CONFIG, pinned byte for byte.

    A change that moves a random stream or the arithmetic on purpose must
    regenerate ``golden_cli_digests.json`` and say so in CHANGES.md.  The
    pins hold for the numpy release stored beside them: its generators and
    float formatting are what the bytes depend on.
    """

    def test_artifacts_match_pinned_digests(self, runner, workspace, tmp_path) -> None:
        golden = json.loads(GOLDEN_DIGESTS.read_text())
        if np.__version__ != golden["numpy"]:
            pytest.skip(f"digests pinned with numpy {golden['numpy']}, installed numpy is {np.__version__}")
        assert run_all_commands(runner, workspace, tmp_path) == golden["artifacts"]


class TestHelp:
    def test_help_lists_all_subcommands(self, runner) -> None:
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in ("world-gen", "survey", "analyze", "track"):
            assert command in result.output

    def test_subcommand_help_documents_flags(self, runner) -> None:
        for command in ("world-gen", "survey", "analyze", "track"):
            result = runner.invoke(main, [command, "--help"])
            assert result.exit_code == 0
            assert "--config" in result.output
            assert "--seed" in result.output
            assert "--out" in result.output

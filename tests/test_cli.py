from __future__ import annotations

import copy
import dataclasses
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import subprocess
import sys
import types
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from scipy.io import wavfile
from hypothesis import given, settings
from hypothesis import strategies as st
from json_leaves import leaf, leaf_paths, replace_leaf
from pins import SMALL_CONFIG, cli_artifact_digests, make_workspace, pinned, tree_hashes

import reefsim
from reefsim import analysis, cli, mission
from reefsim.cli import main
from reefsim.config import RunConfig, config_from_dict, config_to_dict, load_config
from reefsim.errors import ConfigError, DataError
from reefsim.mission import LogRecord, MissionLog
from reefsim.topics import _Checkpoint
from reefsim.tracking import DistractorConfig, TargetConfig, TrackFrame, TrackingConfig, TrackLog
from reefsim.world import GridWorld



def write_config(tmp_path: Path, data: dict | None = None) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data if data is not None else SMALL_CONFIG))
    return path


def _edit_json(line: str, key: str, edit) -> str:
    """One log line with the value under ``key`` replaced by ``edit(value)``."""
    payload = json.loads(line)
    payload[key] = edit(payload[key])
    return json.dumps(payload)


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
        assert config_from_dict({"noise": {"usbl_sigma": 0.0, "usbl_period_s": 0.0}}).noise.usbl_sigma == 0.0


def assert_annotated_types(value, annotation) -> None:
    """Every leaf of a built config has its annotated type; numbers are finite."""
    if dataclasses.is_dataclass(annotation):
        assert type(value) is annotation
        hints = typing.get_type_hints(annotation)
        for f in dataclasses.fields(annotation):
            assert_annotated_types(getattr(value, f.name), hints[f.name])
    elif isinstance(annotation, types.UnionType):
        if value is not None:
            (inner,) = [a for a in typing.get_args(annotation) if a is not type(None)]
            assert_annotated_types(value, inner)
    elif typing.get_origin(annotation) is tuple:
        args = typing.get_args(annotation)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        assert type(value) is tuple and len(value) == len(args)
        for item, arg in zip(value, args):
            assert_annotated_types(item, arg)
    elif annotation is float:
        assert type(value) in (int, float) and math.isfinite(value)
    else:
        assert type(value) is annotation


DEFAULT_TREE = config_to_dict(RunConfig())


@settings(max_examples=300, deadline=None)
@given(
    path=st.sampled_from(leaf_paths(DEFAULT_TREE)),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, "abc", [1, 2], True, None, {}]),
)
def test_config_leaf_is_rejected_or_well_typed(path, bad) -> None:
    tree = copy.deepcopy(DEFAULT_TREE)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(bad)
    try:
        config = config_from_dict(tree)
    except ConfigError:
        return
    assert_annotated_types(config, RunConfig)


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

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"world: {width_m: 16.0\n", "line 2 column 1: expected ',' or '}', but got '<stream end>'"),
            (b"world:\n  width_m: 16.0\n  n", "line 3 column 4: could not find expected ':'"),
            (b"seed: 1\x07\n", "unacceptable character #x0007: special characters are not allowed"),
            (b"seed: \xe9\n", "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["flow-mapping-cut", "block-key-cut", "control-character", "not-utf8"],
    )
    def test_unreadable_config_is_one_line(self, runner, tmp_path, text, message) -> None:
        config = tmp_path / "config.yaml"
        config.write_bytes(text)
        result = runner.invoke(main, ["world-gen", "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: cannot ") and message in result.output
        assert result.output.count("\n") == 1


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """world-gen + survey, shared by the downstream command tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    return (tmp_path, *make_workspace(tmp_path))


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
        "n, edit, key",
        [
            (4, lambda line: line[: len(line) // 2], None),
            (4, lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "est_mean"}), None),
            (4, lambda line: json.dumps(json.loads(line)["true_pose"]), None),
            (4, lambda line: json.dumps({**json.loads(line), "est_mean": None}), None),
            (4, lambda line: json.dumps({**json.loads(line), "mode": "TRANSIT"}), "unknown keys ['mode']"),
            (1, lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "grid_nx"}), None),
            (1, lambda line: json.dumps({**json.loads(line), "audio_dir": 7}), None),
            # Line 2 is the first drift record, line 4 an imaging record and line -1 the end marker.
            (2, lambda line: _edit_json(line, "audio", lambda audio: {**audio, "saturated": "no"}), "audio.saturated"),
            (4, lambda line: _edit_json(line, "cell_id", lambda _: 1.7), "cell_id"),
            (4, lambda line: _edit_json(line, "cell_id", lambda _: "1"), "cell_id"),
            (4, lambda line: _edit_json(line, "t", lambda _: "1.5"), "t"),
            (4, lambda line: _edit_json(line, "t", lambda _: math.nan), "t"),
            (4, lambda line: _edit_json(line, "est_mean", lambda mean: [math.nan, *mean[1:]]), "est_mean[0]"),
            (4, lambda line: _edit_json(line, "true_pose", lambda pose: pose[:3]), "true_pose"),
            (-1, lambda line: _edit_json(line, "abort_reason", lambda _: 5), "abort_reason"),
            (1, lambda line: _edit_json(line, "grid_nx", lambda _: 16.9), "grid_nx"),
            (1, lambda line: _edit_json(line, "audio_fs_hz", lambda _: 48000.5), "audio_fs_hz"),
            (1, lambda line: _edit_json(line, "audio_fs_hz", lambda _: 10**400), "audio_fs_hz"),
            (2, lambda line: _edit_json(line, "audio", lambda audio: {**audio, "truth_snap_times": [str(audio["truth_snap_times"][0]), *audio["truth_snap_times"][1:]]}), "audio.truth_snap_times[0]"),
            (1, lambda line: json.dumps({**json.loads(line), "grid_nx": -4, "grid_ny": -64}), "grid_nx"),
            (1, lambda line: _edit_json(line, "cell_size_m", lambda _: -1.0), "cell_size_m"),
            (1, lambda line: _edit_json(line, "audio_fs_hz", lambda _: 8000), "audio_fs_hz"),
            (1, lambda line: _edit_json(line, "drift_duration_s", lambda _: -1.0), "drift_duration_s"),
            (4, lambda line: json.dumps({**json.loads(line), "heading": 0.0}), "unknown keys ['heading']"),
            (-1, lambda line: json.dumps({**json.loads(line), "grid_nx": 16}), "unknown keys ['grid_nx']"),
        ],
        ids=[
            "truncated-json",
            "missing-est-mean",
            "not-a-mapping",
            "est-mean-wrong-type",
            "unknown-mode",
            "header-missing-key",
            "header-wrong-type",
            "saturated-not-bool",
            "cell-id-fractional",
            "cell-id-string",
            "t-string",
            "t-nan",
            "est-mean-nan",
            "true-pose-three-values",
            "reason-not-str",
            "grid-nx-fractional",
            "fs-fractional",
            "fs-overflow",
            "truth-time-string",
            "negative-grid",
            "negative-cell-size",
            "audio-fs-too-low",
            "negative-drift-duration",
            "record-unknown-key",
            "end-unknown-key",
        ],
    )
    def test_analyze_malformed_log_line_is_data_error(self, workspace, tmp_path, n, edit, key) -> None:
        _, config, _, survey_out = workspace
        corrupt = tmp_path / "corrupt"
        shutil.copytree(survey_out, corrupt)
        log_path = corrupt / "mission_log.jsonl"
        lines = log_path.read_text().splitlines()
        n = n if n > 0 else len(lines) + 1 + n
        lines[n - 1] = edit(lines[n - 1])
        log_path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, result.output
        assert f"{log_path} line {n}:" in result.output
        if key is not None:
            assert f": {key}" in result.output, result.output
            assert result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("words", lambda record: {**record, "t": 0.0}),
            ("audio", lambda record: {**record, "words": [1, 0, 2]}),
            ("words", lambda record: {k: v for k, v in record.items() if k != "words"}),
        ],
        ids=["timestamps-not-increasing", "both-kinds", "neither-kind"],
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
        assert result.output.count("\n") == 1

    def test_analyze_v1_log_is_data_error(self, workspace, tmp_path) -> None:
        """A log in the v1 format, which named each record's mode and
        repeated the header's rate and length in each audio reference, is
        refused with one line that names its format."""
        _, config, _, survey_out = workspace
        v1 = tmp_path / "v1"
        shutil.copytree(survey_out, v1)
        log_path = v1 / "mission_log.jsonl"
        header, *records, end = [json.loads(line) for line in log_path.read_text().splitlines()]
        for record in records:
            record["mode"] = "TRANSIT" if "words" in record else "DRIFT"
            if "audio" in record:
                record["audio"].update(fs=header["audio_fs_hz"], duration=header["drift_duration_s"])
        lines = [{**header, "format": "reefsim-mission-log-v1"}, *records, {**end, "aborted": False}]
        log_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, result.output
        assert result.output == f"error: mission log {log_path} line 1: not a reefsim-mission-log-v2 header: format 'reefsim-mission-log-v1'\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda i, words: [], "0-word histograms"),
            (lambda i, words: [sum(words)], "1-word histograms"),
            (lambda i, words: words[:-1] if i == 1 else words, "different lengths"),
        ],
        ids=["no-words", "one-word", "ragged"],
    )
    def test_analyze_histograms_without_one_vocabulary_fail_before_the_worker_starts(self, workspace, tmp_path, monkeypatch, edit, message) -> None:
        def no_worker(*args):
            raise AssertionError("the worker must not start")

        monkeypatch.setattr(analysis, "Worker", no_worker)
        _, config, _, survey_out = workspace
        edited = tmp_path / "edited"
        shutil.copytree(survey_out, edited)
        log_path = edited / "mission_log.jsonl"
        lines = log_path.read_text().splitlines()
        imaging = [i for i, line in enumerate(lines) if '"words"' in line]
        for n, i in enumerate(imaging):
            lines[i] = _edit_json(lines[i], "words", lambda words: edit(n, words))
        log_path.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, f"{result.output}{result.exception!r}"
        assert result.output.count("\n") == 1 and message in result.output, result.output

    def test_analyze_line_after_the_end_marker_is_data_error(self, workspace, tmp_path) -> None:
        """A record and a second end marker appended after the end marker
        are refused with one line naming the first extra line."""
        _, config, _, survey_out = workspace
        appended = tmp_path / "appended"
        shutil.copytree(survey_out, appended)
        log_path = appended / "mission_log.jsonl"
        lines = log_path.read_text().splitlines()
        extra = _edit_json(lines[-2], "t", lambda t: t + 100.0)
        log_path.write_text("\n".join([*lines, extra, lines[-1]]) + "\n")
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, result.output
        assert result.output == f"error: mission log {log_path} line {len(lines) + 1}: follows the end marker\n"

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

    @pytest.mark.parametrize(
        "command, section, key, bad",
        [
            ("survey", "vehicle", "tau_s", "abc"),
            ("track", "vehicle", "tau_s", [1, 2]),
            ("survey", "vehicle", "tau_s", float("nan")),
            ("track", "vehicle", "tau_s", float("nan")),
            ("world-gen", "world", "depth_relief_m", float("nan")),
            ("survey", "world", "snap_amplitude", float("nan")),
            ("survey", "mission", "words_per_image", 2.5),
            ("survey", "mission", "words_per_image", True),
            ("survey", "plan", "bounds", [1, 2]),
            ("track", "tracking", "frame_rate_hz", 0),
            ("survey", "vehicle", "tau_s", 0),
            ("track", "vehicle", "tau_s", 0),
            ("analyze", "acoustics", "window", 100),
            ("analyze", "acoustics", "hop", 0),
            ("analyze", "acoustics", "band_hz", [24000, 2000]),
            ("track", "tracking", "dynamics_dt_s", 0),
            ("track", "tracking", "dynamics_dt_s", 0.6),
            ("track", "tracking", "camera", {"width_px": 1}),
            ("track", "tracking", "camera", {"hfov_deg": -1e6}),
            ("track", "tracking", "target", {"kind": "fish"}),
            ("track", "tracking", "target", {"distractor": {"mean_lock_s": -1}}),
            ("world-gen", "world", "background_sigma", -1.0),
            ("analyze", "acoustics", "band_hz", [2000, 30000]),
            ("analyze", "acoustics", "band_hz", [2000, 2010]),
            ("analyze", "acoustics", "window", 65536),
            ("analyze", "analysis", "ridge", -1.0),
            ("track", "tracking", "k_yaw", 1.7e308),
            ("track", "tracking", "k_heave", 1.7e308),
            ("survey", "noise", "depth_sigma", 1.0e-200),
            ("survey", "noise", "usbl_sigma", 1.0e-170),
            ("survey", "noise", "heading_sigma", 1.0e200),
            ("analyze", "topics", "beta", 1e308),
            ("analyze", "topics", "beta", 1e-300),
            ("survey", "vehicle", "v_max_mps", -1e308),
            ("survey", "vehicle", "heave_max_mps", -1e308),
            ("track", "vehicle", "heave_max_mps", -1e308),
            ("track", "vehicle", "yaw_rate_max", -1e6),
            pytest.param("track", "tracking", "camera", {"width_px": 10**400}, id="track-tracking-camera-width_px-10**400"),
            ("survey", "noise", "usbl_period_s", -1.0),
            pytest.param("survey", "plan", "audio_fs_hz", 10**400, id="survey-plan-audio_fs_hz-10**400"),
            ("survey", "plan", "drift_duration_s", 1e308),
            pytest.param("survey", "mission", "current_mps", [1e308, 0.0], id="survey-mission-current_mps-1e308"),
            ("track", "tracking", "dropout_prob", 2.0),
            ("track", "tracking", "pixel_noise_px", -5.0),
            ("track", "tracking", "hold_s", -1.0),
            ("track", "tracking", "lost_after_s", -1.0),
            ("track", "episode", "duration_s", 1e308),
            ("track", "episode", "duration_s", 1e300),
            ("track", "tracking", "dynamics_dt_s", 1e-300),
            ("track", "tracking", "frame_rate_hz", 30.0),
            ("track", "tracking", "width_ratio_setpoint", 0.0),
            ("track", "tracking", "width_ratio_setpoint", 1e-300),
            ("track", "tracking", "target", {"distractor": {"offset_m": 1e308}}),
            ("track", "tracking", "target", {"distractor": {"offset_m": -1e308}}),
        ],
    )
    def test_bad_config_value_names_its_key(self, workspace, tmp_path, command, section, key, bad) -> None:
        _, _, world_out, survey_out = workspace
        config = write_config(tmp_path, {**SMALL_CONFIG, section: {**SMALL_CONFIG.get(section, {}), key: bad}})
        inputs = {
            "world-gen": [],
            "survey": ["--world", str(world_out / "world.json")],
            "track": ["--world", str(world_out / "world.json")],
            "analyze": ["--log", str(survey_out / "mission_log.jsonl")],
        }[command]
        result = CliRunner().invoke(
            main, [command, *inputs, "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {section}.{key}")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("section, value, key", [("camera", {"hfov_deg": 1e-300}, "camera.hfov_deg"),
                                                     ("target", {"body_length_m": 1e308}, "target.body_length_m")])
    def test_start_standoff_bound_names_its_factors(self, workspace, tmp_path, section, value, key) -> None:
        """The start standoff is the setpoint's; its bound also names the
        two other keys it is computed from."""
        _, _, world_out, _ = workspace
        config = write_config(tmp_path, {**SMALL_CONFIG, "tracking": {section: value}})
        result = CliRunner().invoke(
            main, ["track", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: tracking.width_ratio_setpoint") and key in result.output
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("current", [1e160, 1e308])
    def test_huge_speed_limit_and_current_name_the_speed_limit(self, workspace, tmp_path, current) -> None:
        """A current under a huge speed limit once overflowed the drift's EKF
        covariance in the survey worker; the speed limit is bounded instead."""
        _, _, world_out, _ = workspace
        config = write_config(tmp_path, {**SMALL_CONFIG, "vehicle": {"v_max_mps": 1e308}, "mission": {"current_mps": [current, 0.0]}})
        result = CliRunner().invoke(
            main, ["survey", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "3", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: vehicle.v_max_mps")
        assert result.output.count("\n") == 1

    def test_removed_usbl_enabled_key_is_config_error(self, workspace, tmp_path) -> None:
        """USBL is off only at ``noise.usbl_period_s: 0``; the old switch is an unknown key."""
        config = write_config(tmp_path, {**SMALL_CONFIG, "noise": {"usbl_enabled": False}})
        result = CliRunner().invoke(main, ["world-gen", "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert result.output == "error: noise: unknown keys ['usbl_enabled']\n"

    def test_resolved_config_round_trips(self, workspace) -> None:
        _, config, _, survey_out = workspace
        resolved = yaml.safe_load((survey_out / "resolved_config.yaml").read_text())
        assert config_from_dict(resolved) == dataclasses.replace(load_config(config), seed=3)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda world: {k: v for k, v in world.items() if k != "width_m"},
            lambda world: {**world, "width_m": "abc"},
            lambda world: [world],
            lambda world: {**world, "bathymetry": [[math.nan, *world["bathymetry"][0][1:]], *world["bathymetry"][1:]]},
            lambda world: {**world, "snap_amplitude": math.nan},
            lambda world: {**world, "snap_rate": world["snap_rate"][1:]},
            lambda world: {**world, "background_sigma": -1.0},
            lambda world: {**world, "seed": 1.5},
            lambda world: {**world, "seed": "3"},
            lambda world: {**world, "width_m": "16"},
            lambda world: {**world, "snap_amplitude": True},
            lambda world: {**world, "bathymetry": [["7.5", *world["bathymetry"][0][1:]], *world["bathymetry"][1:]]},
            lambda world: {**world, "bathymetry": [[True, *world["bathymetry"][0][1:]], *world["bathymetry"][1:]]},
        ],
        ids=[
            "missing-key",
            "width-not-a-number",
            "not-a-mapping",
            "nan-bathymetry",
            "nan-snap-amplitude",
            "shape-mismatch",
            "negative-background-sigma",
            "fractional-seed",
            "string-seed",
            "string-width",
            "bool-snap-amplitude",
            "string-bathymetry",
            "bool-bathymetry",
        ],
    )
    def test_malformed_world_file_is_data_error(self, workspace, tmp_path, edit) -> None:
        _, config, world_out, _ = workspace
        world_path = tmp_path / "world.json"
        world_path.write_text(json.dumps(edit(json.loads((world_out / "world.json").read_text()))))
        for command in ("survey", "track"):
            result = CliRunner().invoke(
                main,
                [command, "--world", str(world_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / command)],
            )
            assert result.exit_code == 3, result.output
            assert result.output.startswith(f"error: world file {world_path}")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda path: wavfile.write(path, 48_000, np.where(np.arange(48_000) == 100, np.nan, 0.0).astype(np.float32)),
            lambda path: wavfile.write(path, 96_000, wavfile.read(path)[1]),
            lambda path: wavfile.write(path, 48_000, wavfile.read(path)[1][:-1]),
            lambda path: path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2]),
        ],
        ids=["nan-sample", "wrong-sample-rate", "wrong-length", "truncated"],
    )
    def test_analyze_bad_wav_is_data_error(self, workspace, tmp_path, edit) -> None:
        _, config, _, survey_out = workspace
        corrupt = tmp_path / "corrupt"
        shutil.copytree(survey_out, corrupt)
        edit(corrupt / "audio" / "drift_0001.wav")
        log_path = corrupt / "mission_log.jsonl"
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error: ") and str(corrupt / "audio" / "drift_0001.wav") in result.output
        assert result.output.count("\n") == 1

    def test_analyze_with_one_topic_left_is_data_error(self, workspace, tmp_path) -> None:
        """A gamma of 1e-300 leaves one topic above the prevalence threshold;
        renormalized, its column would duplicate the intercept."""
        _, _, _, survey_out = workspace
        config = write_config(tmp_path, {**SMALL_CONFIG, "topics": {**SMALL_CONFIG["topics"], "gamma": 1.0e-300}})
        result = CliRunner().invoke(
            main,
            ["analyze", "--log", str(survey_out / "mission_log.jsonl"), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "r")],
        )
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error: fewer than two topics pass the prevalence threshold")
        assert result.output.count("\n") == 1

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


    @pytest.mark.parametrize("error, code", [(ConfigError, 2), (DataError, 3)], ids=["config-error", "data-error"])
    @pytest.mark.parametrize(
        "command, module, name",
        [("world-gen", cli, "generate_world"), ("survey", mission, "execute"), ("analyze", cli, "analyze_log"), ("track", cli, "run_tracking_episode")],
        ids=["world-gen", "survey", "analyze", "track"],
    )
    def test_errors_map_to_exit_codes(self, workspace, tmp_path, monkeypatch, command, module, name, error, code) -> None:
        _, config, world_out, survey_out = workspace

        def fail(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(module, name, fail)
        source = {"survey": ["--world", str(world_out / "world.json")], "analyze": ["--log", str(survey_out / "mission_log.jsonl")],
                  "track": ["--world", str(world_out / "world.json")]}.get(command, [])
        result = CliRunner().invoke(main, [command, *source, "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")])
        assert result.exit_code == code, result.output
        assert result.output == "error: injected failure\n"

    def test_track_noisy_box_off_the_image_is_a_dropout(self, runner, tmp_path) -> None:
        """Pixel noise can push the tracker's box off the image; that frame
        is a dropout, not an error."""
        config = str(write_config(tmp_path, {"tracking": {"pixel_noise_px": 200.0}, "episode": {"duration_s": 30.0}}))
        result = runner.invoke(main, ["world-gen", "--config", config, "--seed", "0", "--out", str(tmp_path / "world")])
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main, ["track", "--world", str(tmp_path / "world" / "world.json"), "--config", config, "--seed", "0", "--out", str(tmp_path / "track")]
        )
        assert result.exit_code == 0, result.output
        assert "track: 451 frames" in result.output

    @pytest.mark.parametrize("altitude", [1e308, -1e308])
    def test_track_extreme_benthic_altitude_is_clamped(self, runner, tmp_path, altitude) -> None:
        """A benthic target starts, as it moves, at its altitude clamped to
        [0.2, 1.0] m above the seafloor."""
        target = {"kind": "benthic-glider", "altitude_m": altitude}
        config = str(write_config(tmp_path, {"tracking": {"target": target}, "episode": {"duration_s": 10.0}}))
        result = runner.invoke(main, ["world-gen", "--config", config, "--seed", "0", "--out", str(tmp_path / "world")])
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main, ["track", "--world", str(tmp_path / "world" / "world.json"), "--config", config, "--seed", "0", "--out", str(tmp_path / "track")]
        )
        assert result.exit_code == 0, result.output
        assert "track: 151 frames" in result.output


class TestLoudWorld:
    """A drift window whose snaps clip is logged as saturated and skipped by
    analysis; a log with no unsaturated window left is a data error."""

    @pytest.mark.parametrize(
        "amplitude, rate, analyze_code",
        [(0.6, 60.0, 0), (0.9, 400.0, 3)],
        ids=["some-windows-clip", "every-window-clips"],
    )
    def test_clipped_drift_windows(self, runner, tmp_path, amplitude, rate, analyze_code) -> None:
        loud = {**SMALL_CONFIG, "world": {**SMALL_CONFIG["world"], "snap_amplitude": amplitude, "snap_rates_per_s": [rate, 0.0, 0.0]}}
        config = str(write_config(tmp_path, loud))
        for args in (
            ["world-gen", "--seed", "3", "--out", str(tmp_path / "world")],
            ["survey", "--world", str(tmp_path / "world" / "world.json"), "--seed", "0", "--out", str(tmp_path / "survey")],
        ):
            result = runner.invoke(main, [*args, "--config", config])
            assert result.exit_code == 0, result.output
        saturated = [r.audio.saturated for r in mission.load_log(tmp_path / "survey" / "mission_log.jsonl").drift_records()]
        assert any(saturated) and all(saturated) == (analyze_code == 3)

        report = tmp_path / "report"
        result = runner.invoke(
            main,
            ["analyze", "--log", str(tmp_path / "survey" / "mission_log.jsonl"), "--config", config, "--seed", "0", "--out", str(report)],
        )
        assert result.exit_code == analyze_code, result.output
        if analyze_code == 3:
            assert "unsaturated" in result.output
        else:
            summary = json.loads((report / "summary.json").read_text())
            assert summary["n_windows_skipped"] == sum(saturated) > 0
            assert (report / "snap_rates.csv").read_text().count(",saturated\n") == sum(saturated)


TRACK_SWEEP_VALUES = {float: (1e308, -1e308, 1e-300, 0.0, 1e6, -1e6), int: (10**400, 10**6, 0, -1)}
BENTHIC_WITH_DISTRACTOR = {"kind": "benthic-glider", "speed_mps": 0.15, "heading_walk_sigma": 0.05, "distractor": {}}


def track_leaves(kind: type) -> list[tuple]:
    """The key path of every leaf of type ``kind`` that ``track`` reads: its
    sections ``tracking`` (camera, target and distractor included),
    ``vehicle`` and ``episode``."""
    data = config_to_dict(RunConfig(tracking=TrackingConfig(target=TargetConfig(distractor=DistractorConfig()))))
    return [(section, *path) for section in ("tracking", "vehicle", "episode")
            for path in leaf_paths(data[section]) if type(leaf(data[section], path)) is kind]


def track_sweep_config(path: tuple, value: float | int) -> dict:
    """A 5 s episode with the leaf at ``path`` set to ``value``.  A target
    leaf runs on the benthic glider with a distractor, except ``depth_m``,
    which only the midwater cruiser reads; every other leaf on the default
    cruiser."""
    data = {"episode": {"duration_s": 5.0}}
    if path[:2] == ("tracking", "target") and path[2] != "depth_m":
        data["tracking"] = {"target": copy.deepcopy(BENTHIC_WITH_DISTRACTOR)}
    node = data
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return data


TRACK_SWEEP = [(path, value) for kind, values in TRACK_SWEEP_VALUES.items() for path in track_leaves(kind) for value in values]


def sweep_id(path: tuple, value: float | int) -> str:
    shown = f"{value:g}" if type(value) is float else ("10**400" if value == 10**400 else str(value))
    return f"{'.'.join(map(str, path))}={shown}"


@pytest.mark.parametrize("path, value", TRACK_SWEEP, ids=[sweep_id(p, v) for p, v in TRACK_SWEEP])
def test_track_extreme_float_leaf_exits_cleanly(workspace, tmp_path, path, value) -> None:
    """Every extreme float or int leaf ``track`` reads ends in an exit code
    of the contract, with one line of output, within its alarm, with no
    numpy warning (each is an error here) and no NaN or Infinity in the
    log."""
    _, _, world_out, _ = workspace
    config = write_config(tmp_path, track_sweep_config(path, value))
    out = tmp_path / "o"

    def alarm(signum, frame):
        raise TimeoutError("track ran past its 10 s alarm")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(10)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(main, ["track", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "0", "--out", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result.exit_code in (0, 2, 3), f"{result.output}{result.exception!r}"
    assert result.output.count("\n") == 1, result.output
    if (out / "track_log.jsonl").exists():
        text = (out / "track_log.jsonl").read_text()
        assert "NaN" not in text and "Infinity" not in text


AS_LIMIT_BYTES = 4 << 30


def _cli_child(args: list[str], output: str) -> None:
    """The child of :func:`run_cli_in_child`: ``reefsim *args`` under the
    address-space limit, with stdout and stderr written to ``output``.  The
    process's exit code is the command's, or 1 after a traceback; a warning
    raises, so it too ends in a traceback."""
    os.setpgid(0, 0)
    warnings.simplefilter("error")
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))
    sys.stdout = sys.stderr = open(output, "w")
    main(args, prog_name="reefsim")


def run_cli_in_child(args: list[str], tmp_path: Path, timeout_s: float = 10.0) -> tuple[int, str]:
    """Run ``reefsim *args`` in a forked child process limited to
    ``AS_LIMIT_BYTES`` of address space, and return its exit code and output.
    A case that asks for more memory fails in the child, not in the test
    process; one that runs past ``timeout_s`` is killed, with any worker it
    started (the child leads its own process group), and fails the test."""
    output = tmp_path / "child_output.txt"
    child = multiprocessing.get_context("fork").Process(target=_cli_child, args=(args, str(output)))
    child.start()
    child.join(timeout_s)
    if child.is_alive():
        os.killpg(child.pid, signal.SIGKILL)
        child.join()
        pytest.fail(f"reefsim {' '.join(args)} ran past its {timeout_s} s timeout")
    return child.exitcode, output.read_text()


def command_inputs(command: str, workspace) -> list[str]:
    """The flags that give ``command`` its world or log from the shared
    workspace (``world-gen`` reads its seed from the config)."""
    _, _, world_out, survey_out = workspace
    return {"world-gen": [], "survey": ["--world", str(world_out / "world.json")],
            "analyze": ["--log", str(survey_out / "mission_log.jsonl"), "--seed", "0"]}[command]


# What world-gen and analyze read, at their defaults.
SWEEP_TREES = {"world-gen": {"world": DEFAULT_TREE["world"], "seed": DEFAULT_TREE["seed"]},
               "analyze": {section: DEFAULT_TREE[section] for section in ("acoustics", "topics", "analysis")}}
CHILD_SWEEP = [(command, path, value) for command, tree in SWEEP_TREES.items() for kind, values in TRACK_SWEEP_VALUES.items()
               for path in leaf_paths(tree) if type(leaf(tree, path)) is kind for value in values]
CHILD_SWEEP.append(("analyze", ("acoustics", "window"), 2**30))


@pytest.mark.parametrize("command, path, value", CHILD_SWEEP, ids=[f"{c}:{sweep_id(p, v)}" for c, p, v in CHILD_SWEEP])
def test_extreme_leaf_exits_cleanly(workspace, tmp_path, command, path, value) -> None:
    """Every extreme float or int leaf ``world-gen`` or ``analyze`` reads
    ends in an exit code of the contract, with one line of output and no
    warning, in a child process with bounded memory and time."""
    config = write_config(tmp_path, replace_leaf(SWEEP_TREES[command], path, value))
    code, output = run_cli_in_child([command, *command_inputs(command, workspace), "--config", str(config), "--out", str(tmp_path / "o")], tmp_path)
    assert code in (0, 2, 3), output
    assert output.count("\n") == 1, output


@pytest.mark.parametrize(
    "command, data, key",
    [
        ("world-gen", {"world": {"width_m": 1e308}}, "world.cell_size_m"),
        ("world-gen", {"world": {"height_m": 1e308}}, "world.cell_size_m"),
        ("world-gen", {"world": {"cell_size_m": 1e-300}}, "world.cell_size_m"),
        ("world-gen", {"world": {"patch_length_m": 1e-300}}, "world.patch_length_m"),
        ("world-gen", {"world": {"vocab_size": 1_000_000_000}}, "world.vocab_size"),
        ("world-gen", {"world": {"width_m": 600.0, "height_m": 600.0, "n_habitats": 94, "vocab_size": 95,
                                 "snap_rates_per_s": [0.0] * 94}}, "world.n_habitats"),
        ("world-gen", {"seed": -1}, "seed"),
        ("survey", {"plan": {"leg_spacing_m": 1e-300}}, "plan.leg_spacing_m"),
        ("survey", {"plan": {"waypoint_spacing_m": 1e-300}}, "plan.waypoint_spacing_m"),
        ("survey", {"mission": {"dt_s": 1e-300}}, "mission.dt_s"),
        ("survey", {"mission": {"waypoint_timeout_s": 1e308}}, "mission.waypoint_timeout_s"),
        ("survey", {"plan": {"drift_duration_s": 1e5}, "mission": {"dt_s": 0.5}}, "plan.drift_duration_s"),
        ("survey", {"mission": {"words_per_image": 10**6}}, "mission.words_per_image"),
        ("analyze", {"acoustics": {"window": 8192, "hop": 1}}, "acoustics.hop"),
    ],
    ids=["width", "height", "cell-size", "patch-length", "vocab-size", "habitat-field", "negative-seed",
         "leg-spacing", "waypoint-spacing", "dt", "waypoint-timeout", "drift-samples", "words-per-image", "spectrogram"],
)
def test_oversized_world_or_survey_names_its_key(workspace, tmp_path, command, data, key) -> None:
    """A world, survey or analysis too large to build or run is refused
    before any work, with one line that names the key of its budget."""
    config = write_config(tmp_path, data)
    code, output = run_cli_in_child([command, *command_inputs(command, workspace), "--config", str(config), "--out", str(tmp_path / "o")], tmp_path)
    assert code == 2, output
    assert output.startswith(f"error: {key} ") and output.count("\n") == 1, output


@pytest.mark.parametrize(
    "key, edit, topics, message",
    [
        ("grid_ny", lambda ny: 10**10, {}, "line 1: grid_ny times grid_nx"),
        ("words", lambda words: [20_000_000, *words[1:]], {}, "word tokens"),
        ("words", lambda words: words + [0] * 4_000, {"max_topics": 2_000}, "topics.max_topics"),
        ("grid_ny", lambda ny: 22_500, {"max_topics": 2_000}, "topics.max_topics"),
    ],
    ids=["grid-cells", "fit-tokens", "vocab-by-topics", "cells-by-topics"],
)
def test_oversized_log_is_data_error(workspace, tmp_path, monkeypatch, key, edit, topics, message) -> None:
    """A log whose grid or topic fit is too large for ``analyze`` is refused
    before its worker starts, with one line.  ``edit`` is applied to ``key``
    of every log line that has it; the last two cases hold a legal grid
    (360,000 cells) or vocabulary that is too large at ``topics``."""
    def no_worker(*args):
        raise AssertionError("the worker must not start")

    monkeypatch.setattr(analysis, "Worker", no_worker)  # the forked child inherits it
    _, _, _, survey_out = workspace
    config = write_config(tmp_path, {**SMALL_CONFIG, "topics": {**SMALL_CONFIG["topics"], **topics}})
    edited = tmp_path / "edited"
    shutil.copytree(survey_out, edited)
    log_path = edited / "mission_log.jsonl"
    lines = [_edit_json(line, key, edit) if f'"{key}"' in line else line for line in log_path.read_text().splitlines()]
    log_path.write_text("\n".join(lines) + "\n")
    code, output = run_cli_in_child(["analyze", "--log", str(log_path), "--config", str(config), "--seed", "0", "--out", str(tmp_path / "o")], tmp_path)
    assert code == 3, output
    assert output.startswith("error: mission log ") and message in output and output.count("\n") == 1, output


def test_drift_longer_than_the_waypoint_timeout_completes(workspace, runner, tmp_path) -> None:
    """Each waypoint's timeout clock starts once the previous drift is over,
    so a 12 s drift does not use up the next waypoint's 10 s."""
    _, _, world_out, _ = workspace
    plan = {"bounds": [1.0, 1.0, 3.0, 3.0], "leg_spacing_m": 2.0, "drift_duration_s": 12.0, "audio_fs_hz": 48_000}
    config = write_config(tmp_path, {**SMALL_CONFIG, "plan": plan, "mission": {"waypoint_timeout_s": 10.0}})
    result = runner.invoke(main, ["survey", "--world", str(world_out / "world.json"), "--config", str(config), "--seed", "3", "--out", str(tmp_path / "s")])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("survey complete: 4 waypoints"), result.output


@pytest.fixture(scope="module")
def uncut_files(workspace, tmp_path_factory):
    """A directory holding a config with a 1 s episode and the survey's
    audio, and the bytes of the three files the truncation fuzz cuts."""
    _, _, world_out, survey_out = workspace
    directory = tmp_path_factory.mktemp("cut")
    shutil.copytree(survey_out / "audio", directory / "audio")
    config = write_config(directory, {**SMALL_CONFIG, "episode": {"duration_s": 1.0}})
    sources = {"config.yaml": config, "world.json": world_out / "world.json", "mission_log.jsonl": survey_out / "mission_log.jsonl"}
    return directory, {name: path.read_bytes() for name, path in sources.items()}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_file_cut_short_exits_cleanly(uncut_files, data) -> None:
    """A config, world file or mission log cut at any byte exits 0, 2 or 3,
    and a failure prints one line."""
    directory, sources = uncut_files
    name = data.draw(st.sampled_from(sorted(sources)), label="file")
    cut = directory / f"cut-{name}"
    cut.write_bytes(sources[name][: data.draw(st.integers(0, len(sources[name]) - 1), label="length")])
    config = str(directory / "config.yaml")
    args = {
        "config.yaml": ["world-gen", "--config", str(cut)],
        "world.json": ["track", "--world", str(cut), "--config", config],
        "mission_log.jsonl": ["analyze", "--log", str(cut), "--config", config],
    }[name]
    result = CliRunner().invoke(main, [*args, "--seed", "0", "--out", str(directory / "out")])
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code:
        assert result.output.count("\n") == 1, result.output


class TestGoldenDigests:
    """Every CLI artifact of SMALL_CONFIG, pinned byte for byte.

    A change that moves a random stream or the arithmetic on purpose must
    regenerate ``golden_cli_digests.json`` (``tests/regenerate_pins.py``)
    and say so in CHANGES.md.  The pins hold for the numpy release stored
    beside them: its generators and float formatting are what the bytes
    depend on.
    """

    def test_artifacts_match_pinned_digests(self, workspace, tmp_path) -> None:
        assert cli_artifact_digests(*workspace[1:], tmp_path) == pinned("artifacts")


def field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def test_written_keys_are_the_dataclass_fields(workspace, tmp_path) -> None:
    """Each JSON file holds its dataclass's fields and no other key but
    ``format`` and ``type``.  A log's header and end line share only
    ``type`` and together hold every log field but the item list."""
    _, _, world_out, survey_out = workspace
    cli_artifact_digests(*workspace[1:], tmp_path)
    assert json.loads((world_out / "world.json").read_text()).keys() == field_names(GridWorld) | {"format"}
    assert json.loads((tmp_path / "analyze" / "topic_model.json").read_text()).keys() == field_names(_Checkpoint) | {"format"}
    for path, log_class, items, item_class in (
        (survey_out / "mission_log.jsonl", MissionLog, "records", LogRecord),
        (tmp_path / "track" / "track_log.jsonl", TrackLog, "frames", TrackFrame),
    ):
        header, *lines, end = [json.loads(line) for line in path.read_text().splitlines()]
        assert (header["type"], end["type"]) == ("header", "end")
        assert header.keys() & end.keys() == {"type"}
        assert header.keys() | end.keys() == field_names(log_class) - {items} | {"type", "format"}
        # A mission record line leaves out a field that is None.
        assert all(line.keys() <= field_names(item_class) | {"type"} for line in lines)
        assert set().union(*lines) == field_names(item_class) | {"type"}
        if log_class is MissionLog:
            # A record's kind follows from its content: words or audio, never both.
            assert all(("words" in line) != ("audio" in line) for line in lines)
        else:
            assert end == {"type": "end"}


def test_import_loads_no_scipy() -> None:
    """scipy is imported where it is used (WAV I/O, the likelihood, label
    matching), not by importing the package and its CLI."""
    src = str(Path(reefsim.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import reefsim, reefsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout == "[]\n"


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

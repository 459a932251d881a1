"""Smoke tests of the benchmark itself, at tiny sizes (well under a minute).

    python3 -m pytest -q perfbench

They check that every metric named in BENCHMARK.json is emitted with its
unit, that each workload's output check fires on a corrupted artifact, and
that span self times never exceed their totals.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from reefsim import tracking  # noqa: E402
from reefsim.rng import substream  # noqa: E402
from reefsim.topics import TopicModel  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    OBSERVE,
    SMOKE,
    FollowPanel,
    SiteSurvey,
    TopicStream,
    check_checkpoint,
    check_episode,
    wrap_program,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SEED = 2  # the smoke site's regression needs enough usable windows


def test_spec_matches_the_code_and_the_format() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_spec()
    assert any(m["name"] == "setup_s" and m["bound"] == max(b["bound"] for b in SPEC["end_to_end"]) for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(NAME.match(m["name"]) and UNIT.match(m["unit"]) for m in metrics)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys) -> None:
    argv = ["--workload", workload, "--seed", str(SMOKE_SEED), "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_site_check_fires_on_corrupted_artifacts(tmp_path) -> None:
    site = SiteSurvey(SMOKE_SEED, SMOKE, tmp_path)
    site.setup()
    out = tmp_path / "pass"
    ok = site.run_pass(keep=out)
    assert ok.failed == 0 and ok.attempted == 4, ok.problems
    clean_exit = [(0, "")] * 4

    summary = out / "report" / "summary.json"
    data = json.loads(summary.read_text())
    data["pearson_r"] = float("nan")
    summary.write_text(json.dumps(data))
    assert site.check(out, clean_exit, 1.0, {}).failed == 1

    (out / "survey" / "audio" / "drift_0000.wav").unlink()
    assert site.check(out, clean_exit, 1.0, {}).failed == 2

    assert site.check(out, [(0, ""), (0, ""), (0, ""), (3, "error: x")], 1.0, {}).failed == 3


def test_stream_check_fires_on_a_corrupted_checkpoint(tmp_path) -> None:
    stream = TopicStream(SMOKE_SEED, SMOKE, tmp_path)
    stream.setup()
    ok = stream.run_pass()
    assert ok.failed == 0, ok.problems

    model = TopicModel(30, 10, 10)
    rng = substream(0, "smoke")
    for kind, cell, histogram in stream.streams[0]:
        if kind == OBSERVE:
            model.observe(cell, histogram, rng)
    path = tmp_path / "checkpoint.json"
    model.save(path)
    assert check_checkpoint(model, TopicModel.load(path)) == []

    payload = json.loads(path.read_text())
    assert payload["n_topics"] > 1
    payload["labels"][0] += 100
    tokens = payload["tokens"]["topic"]
    tokens[0] = (tokens[0] + 1) % payload["n_topics"]
    path.write_text(json.dumps(payload))
    problems = check_checkpoint(model, TopicModel.load(path))
    assert "checkpoint labels differ" in problems
    assert "checkpoint word_topic_counts differ" in problems


def test_episode_check_fires_on_a_corrupted_log(tmp_path) -> None:
    panel = FollowPanel(SMOKE_SEED, SMOKE, tmp_path)
    panel.setup()
    ok = panel.run_pass()
    assert ok.failed == 0 and ok.attempted == SMOKE.panel_episodes, ok.problems

    config, seed = panel.episodes[0]
    log = tracking.run_tracking_episode(panel.world, panel.vehicle, config, SMOKE.episode_s, seed)
    assert check_episode(log, SMOKE.episode_s, config.frame_rate_hz) == []
    last = log.frames[-1]
    log.frames[-1] = dataclasses.replace(last, vehicle=(last.vehicle[0], float("nan"), *last.vehicle[2:]))
    assert len(check_episode(log, SMOKE.episode_s, config.frame_rate_hz)) == 1
    log.frames.pop()
    assert len(check_episode(log, SMOKE.episode_s, config.frame_rate_hz)) == 1


@pytest.mark.parametrize("cls", [SiteSurvey, TopicStream, FollowPanel])
def test_self_time_never_exceeds_total(cls, tmp_path) -> None:
    workload = cls(SMOKE_SEED, SMOKE, tmp_path)
    workload.setup()
    tracer = Tracer()
    wrap_program(tracer)
    try:
        result = workload.run_pass(tracer)
    finally:
        tracer.restore()
    assert result.failed == 0, result.problems
    totals = tracer.totals()
    assert totals
    for span, (total, own, count) in totals.items():
        assert count > 0 and 0.0 <= own <= total + 1e-12, span
    assert tracer.top_level_coverage() <= result.wall_s

"""The three benchmark workloads, their output checks and their trace points.

Every workload is a closed loop with one client: one pass runs to the end
before the next starts, in the benchmark's own process.  A pass is built
only from inputs generated from the workload seed in ``setup``; the program
receives a config file, a seed and synthetic histograms, nothing else.

* ``site-survey``: the four CLI commands on the criterion-1 site.
* ``topic-stream``: streaming ``observe`` with queries and short refines on
  the criterion-3 banded grid.
* ``follow-panel``: 300 s follow episodes on the criterion-5 world.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SITE_CONFIG = HERE / "site.yaml"
SMOKE_CONFIG = HERE / "smoke.yaml"


@dataclass(frozen=True)
class Sizes:
    site_config: Path
    streams: int  # independent streams per pass, each into a fresh model
    stream_ops: int  # ops per stream
    stream_refine_every: int  # a one-sweep gibbs_refine every this many ops
    panel_episodes: int  # half midwater cruiser, half benthic glider
    episode_s: float


FULL = Sizes(SITE_CONFIG, 4, 5_000, 1_000, 4, 300.0)
SMOKE = Sizes(SMOKE_CONFIG, 2, 400, 200, 2, 10.0)


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    quality: float
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)
    episode_s: list[float] = field(default_factory=list)  # follow-panel: time of each episode


class Workload:
    name: str

    def __init__(self, seed: int, sizes: Sizes, scratch: Path | None) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch  # per-run directory for pass outputs


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _failure(what: str) -> str:
    return f"{what}: {traceback.format_exc().strip().splitlines()[-1]}"


def tree_digest(root: Path) -> str:
    """sha256 over every file below ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# -- site-survey ---------------------------------------------------------------

WORLD_ARTIFACTS = ("world.json", "habitat_map.svg", "resolved_config.yaml")
SURVEY_ARTIFACTS = ("mission_log.jsonl", "ekf_error.csv", "resolved_config.yaml")
REPORT_ARTIFACTS = (
    "snap_rates.csv",
    "topic_timeseries.csv",
    "coefficients.csv",
    "observed_vs_predicted.csv",
    "summary.json",
    "topic_model.json",
    "snap_rate_fit.svg",
    "resolved_config.yaml",
)
TRACK_ARTIFACTS = ("track_log.jsonl", "track_metrics.csv", "trajectory.svg", "resolved_config.yaml")


def invoke_cli(args: list[str]) -> tuple[int, str]:
    """Run one ``reefsim`` command in-process; returns (exit code, output)."""
    from reefsim.cli import main

    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            main.main(args=args, prog_name="reefsim", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()
    except Exception:  # a traceback is a failed op, not the end of the run
        return 1, buf.getvalue() + traceback.format_exc()
    return 0, buf.getvalue()


def check_artifacts(directory: Path, names) -> list[str]:
    return [f"missing artifact {directory.name}/{name}" for name in names if not (directory / name).is_file()]


def check_survey_audio(survey_dir: Path) -> list[str]:
    """Every drift record of the mission log has its WAV sidecar."""
    log = survey_dir / "mission_log.jsonl"
    if not log.is_file():
        return []
    problems = []
    for line in log.read_text().splitlines():
        try:
            audio = json.loads(line).get("audio")
        except ValueError:
            return [f"mission_log.jsonl holds a line that is not JSON: {line[:80]!r}"]
        if audio is not None and not (survey_dir / "audio" / audio["filename"]).is_file():
            problems.append(f"missing artifact survey/audio/{audio['filename']}")
    return problems


def check_summary(report_dir: Path) -> tuple[list[str], float]:
    """``summary.json`` fields are finite numbers; returns (problems, r)."""
    path = report_dir / "summary.json"
    if not path.is_file():
        return [], 0.0
    try:
        summary = json.loads(path.read_text())
    except ValueError:
        return ["summary.json is not JSON"], 0.0
    problems = [
        f"summary.json field {key} is not a finite number: {value!r}"
        for key, value in sorted(summary.items())
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)
    ]
    r = summary.get("pearson_r")
    return problems, float(r) if not problems and r is not None else 0.0


class SiteSurvey(Workload):
    name = "site-survey"

    def setup(self) -> None:
        import reefsim.cli  # noqa: F401  (the commands' imports belong to setup)
        from reefsim.config import load_config

        self.config_path = str(self.sizes.site_config)
        load_config(self.config_path)  # a broken config fails here, before timing

    def commands(self, out: Path) -> list[tuple[str, list[str], Path, tuple[str, ...]]]:
        cfg, seed = self.config_path, str(self.seed)
        world = out / "world" / "world.json"
        # world-gen keeps the config's seed: one fixed reef scene, surveyed
        # with the workload seed, as in acceptance criterion 1.
        return [
            ("cli.world_gen", ["world-gen", "--config", cfg, "--out", str(out / "world")], out / "world", WORLD_ARTIFACTS),
            (
                "cli.survey",
                ["survey", "--world", str(world), "--config", cfg, "--seed", seed, "--out", str(out / "survey")],
                out / "survey",
                SURVEY_ARTIFACTS,
            ),
            (
                "cli.analyze",
                ["analyze", "--log", str(out / "survey" / "mission_log.jsonl"), "--config", cfg, "--seed", seed, "--out", str(out / "report")],
                out / "report",
                REPORT_ARTIFACTS,
            ),
            (
                "cli.track",
                ["track", "--world", str(world), "--config", cfg, "--seed", seed, "--out", str(out / "track")],
                out / "track",
                TRACK_ARTIFACTS,
            ),
        ]

    def run_pass(self, tracer=None, keep: Path | None = None) -> PassResult:
        """One pass; ``keep`` names a directory to leave the artifacts in."""
        out = Path(tempfile.mkdtemp(prefix="site-", dir=self.scratch)) if keep is None else keep
        try:
            commands = self.commands(out)
            codes, stages = [], {}
            t0 = time.perf_counter()
            for span, args, _, _ in commands:
                start = time.perf_counter()
                with _span(tracer, span):
                    codes.append(invoke_cli(args))
                stages[span.split(".", 1)[1] + "_s"] = time.perf_counter() - start
            wall = time.perf_counter() - t0
            return self.check(out, codes, wall, stages)
        finally:
            if keep is None:
                shutil.rmtree(out, ignore_errors=True)

    def check(self, out: Path, codes, wall: float, stages) -> PassResult:
        result = PassResult(wall_s=wall, attempted=0, failed=0, quality=0.0, stages=stages)
        for (span, _, directory, artifacts), (code, output) in zip(self.commands(out), codes):
            problems = check_artifacts(directory, artifacts)
            if code != 0:
                problems.insert(0, f"{span} exited {code}: {output.strip().splitlines()[-1] if output.strip() else ''}")
            if span == "cli.survey":
                problems += check_survey_audio(directory)
            if span == "cli.analyze":
                summary_problems, result.quality = check_summary(directory)
                problems += summary_problems
            result.attempted += 1
            result.failed += bool(problems)
            result.problems += problems
        result.digest = tree_digest(out)
        return result


# -- topic-stream --------------------------------------------------------------

OBSERVE, DISTRIBUTION, MIXTURE, REFINE = range(4)
STREAM_VOCAB = 30
STREAM_GRID = 10
STREAM_WORDS = 5  # words per histogram
QUERY_EVERY = 10  # every tenth op is a query, not an observe


def block_appearance(n_habitats: int, vocab: int, overlap: float = 0.05) -> np.ndarray:
    """Banded appearance model of acceptance criterion 3."""
    blocks = np.arange(vocab) * n_habitats // vocab
    appearance = np.full((n_habitats, vocab), overlap / vocab)
    for h in range(n_habitats):
        members = blocks == h
        appearance[h, members] += (1 - overlap) / members.sum()
    return appearance


def stream_truth() -> np.ndarray:
    """Three habitat bands across the 10x10 grid (rows 0-2, 3-6, 7-9)."""
    rows = np.arange(STREAM_GRID * STREAM_GRID) // STREAM_GRID
    return (rows >= 3).astype(int) + (rows >= 7).astype(int)


def lawnmower_cells() -> list[int]:
    cells = []
    for iy in range(STREAM_GRID):
        xs = range(STREAM_GRID) if iy % 2 == 0 else range(STREAM_GRID - 1, -1, -1)
        cells.extend(iy * STREAM_GRID + ix for ix in xs)
    return cells


def check_checkpoint(model, loaded) -> list[str]:
    """A loaded checkpoint reproduces topics, labels and count tables."""
    problems = []
    if loaded.n_topics != model.n_topics:
        problems.append(f"checkpoint n_topics {loaded.n_topics} != {model.n_topics}")
    if loaded.labels != model.labels:
        problems.append("checkpoint labels differ")
    for table in ("word_topic_counts", "cell_topic_counts", "topic_totals"):
        if not np.array_equal(getattr(loaded, table)(), getattr(model, table)()):
            problems.append(f"checkpoint {table} differ")
    return problems


class TopicStream(Workload):
    name = "topic-stream"

    def setup(self) -> None:
        """Generate each stream's ops: lawnmower cells, banded histograms."""
        appearance = block_appearance(3, STREAM_VOCAB)
        self.truth = stream_truth()
        self.streams = [self._ops(np.random.default_rng([self.seed, j]), appearance) for j in range(self.sizes.streams)]

    def _ops(self, rng: np.random.Generator, appearance: np.ndarray) -> list:
        s = self.sizes
        order = lawnmower_cells()
        ops, visit = [], 0
        for i in range(s.stream_ops):
            cell = order[visit % len(order)]
            if (i + 1) % s.stream_refine_every == 0:
                ops.append((REFINE, cell, None))
            elif (i + 1) % QUERY_EVERY == 0:
                kind = DISTRIBUTION if (i // QUERY_EVERY) % 2 == 0 else MIXTURE
                ops.append((kind, cell, rng.multinomial(STREAM_WORDS, appearance[self.truth[cell]])))
            else:
                ops.append((OBSERVE, cell, rng.multinomial(STREAM_WORDS, appearance[self.truth[cell]])))
                visit += 1
        return ops

    def run_pass(self, tracer=None) -> PassResult:
        result = PassResult(wall_s=0.0, attempted=0, failed=0, quality=0.0)
        accuracies = []
        h = hashlib.sha256()
        t0 = time.perf_counter()
        for j, ops in enumerate(self.streams):
            accuracies.append(self._stream(j, ops, tracer, result, h))
        result.wall_s = time.perf_counter() - t0
        # About one stream in eight leaves a band split (accuracy ~0.7), so
        # the median keeps one unlucky stream from moving the seed's figure.
        result.quality = float(np.median(accuracies))
        result.digest = h.hexdigest()
        return result

    def _stream(self, j: int, ops: list, tracer, result: PassResult, h) -> float:
        """One stream into a fresh model, then its checks; returns accuracy."""
        from reefsim.rng import substream
        from reefsim.topics import TopicModel, match_accuracy

        problems: list[str] = []
        failed = 0
        model = TopicModel(STREAM_VOCAB, STREAM_GRID, STREAM_GRID)
        rng = substream(self.seed, "topics", j)
        for kind, cell, histogram in ops:
            try:
                if kind == OBSERVE:
                    model.observe(cell, histogram, rng)
                elif kind == DISTRIBUTION:
                    model.habitat_distribution(cell)
                elif kind == MIXTURE:
                    model.record_mixture(histogram)
                else:
                    model.gibbs_refine(1, rng)
            except Exception:  # count the op as failed and keep streaming
                failed += 1
                problems.append(_failure(f"stream {j} op {kind}"))

        accuracy = 0.0
        with _span(tracer, "topics.validate"):
            try:
                model.validate_counts()
            except Exception:
                failed += 1
                problems.append(_failure(f"stream {j} validate_counts"))
            try:
                accuracy = match_accuracy(model.dominant_topic_cells(), self.truth)
            except Exception:
                failed += 1
                problems.append(_failure(f"stream {j} match_accuracy"))

        path = Path(tempfile.mkdtemp(prefix="stream-", dir=self.scratch)) / "checkpoint.json"
        try:
            try:
                model.save(path)
                with _span(tracer, "topics.checkpoint"):
                    loaded = TopicModel.load(path)
                checkpoint_problems = check_checkpoint(model, loaded)
            except Exception:
                checkpoint_problems = [_failure(f"stream {j} checkpoint round trip")]
            if path.is_file():
                h.update(path.read_bytes())
        finally:
            shutil.rmtree(path.parent, ignore_errors=True)
        result.attempted += len(ops) + 3  # + validate, match, checkpoint
        result.failed += failed + bool(checkpoint_problems)
        result.problems += problems + checkpoint_problems
        return accuracy


# -- follow-panel --------------------------------------------------------------


def check_episode(log, duration_s: float, frame_rate_hz: float) -> list[str]:
    """Frame count is duration x frame rate + 1 and no frame holds a NaN."""
    problems = []
    expected = round(duration_s * frame_rate_hz) + 1
    if len(log.frames) != expected:
        problems.append(f"episode has {len(log.frames)} frames, expected {expected}")
    for frame in log.frames:
        values = [frame.t, *frame.vehicle, *frame.target, *frame.command, *(frame.bbox or ())]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"NaN in frame at t={frame.t}")
            break
    return problems


class FollowPanel(Workload):
    name = "follow-panel"

    def setup(self) -> None:
        """The 60 m criterion-5 world and the two target configurations."""
        from reefsim.tracking import DistractorConfig, TargetConfig, TrackingConfig
        from reefsim.vehicle import VehicleConfig
        from reefsim.world import WorldConfig, generate_world

        self.world = generate_world(WorldConfig(width_m=60.0, height_m=60.0, snap_rates_per_s=(0.0, 0.0, 0.0)), self.seed)
        self.vehicle = VehicleConfig()
        midwater = TrackingConfig()
        benthic = TrackingConfig(
            target=TargetConfig(
                kind="benthic-glider",
                speed_mps=0.15,
                heading_walk_sigma=0.05,
                distractor=DistractorConfig(switch_prob_per_s=0.02, mean_lock_s=3.0),
            )
        )
        n = self.sizes.panel_episodes
        self.episodes = [(midwater if i % 2 == 0 else benthic, self.seed * 1000 + i) for i in range(n)]

    def run_pass(self, tracer=None) -> PassResult:
        from reefsim import tracking

        duration = self.sizes.episode_s
        problems: list[str] = []
        failed = 0
        central: list[float] = []
        times: list[float] = []
        h = hashlib.sha256()
        t0 = time.perf_counter()
        for config, seed in self.episodes:
            start = time.perf_counter()
            try:
                log = tracking.run_tracking_episode(self.world, self.vehicle, config, duration, seed)
                summary = log.summary(config.camera)
            except Exception:
                failed += 1
                problems.append(_failure(f"episode seed {seed}"))
                continue
            times.append(time.perf_counter() - start)
            episode_problems = check_episode(log, duration, config.frame_rate_hz)
            failed += bool(episode_problems)
            problems += episode_problems
            central.append(summary["central_fraction"])
            h.update(json.dumps(summary, sort_keys=True).encode())
        wall = time.perf_counter() - t0
        return PassResult(
            wall_s=wall,
            attempted=len(self.episodes),
            failed=failed,
            quality=float(np.mean(central)) if central else 0.0,
            digest=h.hexdigest(),
            problems=problems,
            episode_s=times,
        )


WORKLOADS = {w.name: w for w in (SiteSurvey, TopicStream, FollowPanel)}


# -- trace points --------------------------------------------------------------


def wrap_program(tracer) -> None:
    """Wrap the names each calling module looks up, with their counts."""
    import reefsim.acoustics as acoustics
    import reefsim.analysis as analysis
    import reefsim.cli as cli
    import reefsim.mission as mission
    import reefsim.tracking as tracking
    from reefsim.topics import TopicModel

    def add(key, amount=1):
        def count(c, args, kwargs, result):
            c[key] += amount(args, result) if callable(amount) else amount

        return count

    def ekf_update_kind(c, args, kwargs, result):
        c[f"vehicle.ekf_updates.{args[1]}"] += 1

    def audio(c, args, kwargs, result):
        c["world.drift_windows"] += 1
        c["world.snaps"] += len(result.truth_snap_times)
        c["world.samples"] += len(result.samples)

    def detections(c, args, kwargs, result):
        c["acoustics.detected"] += result.count
        c["acoustics.truth_snaps"] += len(args[0].truth_snap_times)

    def observed(c, args, kwargs, result):
        c["topics.observe_calls"] += 1
        c["topics.tokens"] += int(np.sum(args[2]))

    def refine(c, args, kwargs, result):
        model, sweeps = args[0], args[1]
        c["topics.sweeps"] += sweeps
        c["topics.token_draws"] += model.token_count * sweeps
        c["topics.active_topics"] = model.n_topics

    def episode(c, args, kwargs, result):
        summary = result.summary(args[2].camera)
        c["tracking.episodes"] += 1
        c["tracking.frames"] += len(result.frames)
        c["tracking.sim_s"] += args[3]
        c["tracking.observed"] += round(summary["observed_fraction"] * summary["n_frames"])
        c["tracking.central"] += round(summary["central_fraction"] * summary["n_frames"])

    w = tracer.wrap
    w(mission, "ekf_predict", "vehicle.ekf_predict", add("mission.steps"))
    w(mission, "ekf_update", "vehicle.ekf_update", ekf_update_kind)
    w(mission, "simulate_sensors", "vehicle.simulate_sensors", add("vehicle.simulate_sensors_calls"))
    w(mission, "step_dynamics", "vehicle.step_dynamics")
    w(tracking, "step_dynamics", "vehicle.step_dynamics")

    w(cli, "generate_world", "world.generate_world")
    w(mission, "synthesize_audio", "world.synthesize_audio", audio)
    w(mission, "sample_image_words", "world.sample_image_words", add("world.images"))
    w(mission, "write_wav", "world.write_wav", add("world.wav_bytes", lambda a, r: os.path.getsize(a[0])))
    w(mission, "read_wav", "world.read_wav")

    w(mission, "execute", "mission.execute", add("mission.records", lambda a, r: len(r.records)))
    w(mission, "save_log", "mission.save_log", add("mission.log_bytes", lambda a, r: os.path.getsize(a[1])))
    w(mission, "load_log", "mission.load_log")

    w(acoustics, "detect_snaps_in_window", "acoustics.detect_snaps", detections)
    w(acoustics, "stft", "acoustics.stft", add("acoustics.frames", lambda a, r: r.n_frames))
    w(acoustics, "band_energy", "acoustics.band_energy")

    w(TopicModel, "observe", "topics.observe", observed)
    w(TopicModel, "gibbs_refine", "topics.gibbs_refine", refine)
    w(TopicModel, "habitat_distribution", "topics.query")
    w(TopicModel, "record_mixture", "topics.query")
    w(TopicModel, "dominant_topic_cells", "topics.query")
    w(TopicModel, "save", "topics.checkpoint")

    w(cli, "analyze_log", "analysis.analyze_log")
    w(analysis, "merge_groups_by_appearance", "analysis.merge", add("analysis.habitat_groups", lambda a, r: len(r)))
    w(analysis, "fit_shrimp_habitat", "analysis.fit", add("analysis.useful_groups", lambda a, r: len(r.coefficients)))
    w(cli, "write_report", "analysis.write_report")

    w(cli, "run_tracking_episode", "tracking.episode", episode)
    w(tracking, "run_tracking_episode", "tracking.episode", episode)
    w(tracking, "project_target", "tracking.project_target")
    w(tracking, "simulate_tracker", "tracking.simulate_tracker")
    w(tracking, "step_target", "tracking.step_target")

    w(cli, "load_config", "config.load_config")

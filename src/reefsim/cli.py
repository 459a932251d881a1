"""Command-line entry point.

Four subcommands bind the simulator into reproducible experiments:

    reefsim world-gen --config cfg.yaml --seed 7 --out out/world
    reefsim survey    --world out/world/world.json --config cfg.yaml --seed 7 --out out/survey
    reefsim analyze   --log out/survey/mission_log.jsonl --config cfg.yaml --out out/report
    reefsim track     --world out/world/world.json --config cfg.yaml --seed 7 --out out/track

Every command is a pure function of (inputs, config, seed): re-running into
the same directory overwrites each output with identical bytes.  The
resolved configuration is echoed to ``resolved_config.yaml`` in the output
directory.  Exit codes: 0 success, 2 configuration error, 3 data error.
One place maps errors to exit codes: the command group's ``invoke`` turns a
:class:`ConfigError` raised by any command into exit 2 and a
:class:`DataError` into exit 3, with one ``error:`` line on stderr.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from . import mission as mission_mod
from .analysis import analyze_log, write_report
from .config import RunConfig, dump_resolved, load_config
from .errors import ConfigError, DataError, write_csv
from .svg import grid_heatmap_svg, trajectory_svg
from .tracking import export_track_metrics_csv, run_tracking_episode, save_track_log
from .vehicle import wrap_angle
from .world import GridWorld, generate_world

EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3


def _prepare(config_path: str | None, out_dir: str, seed: int | None) -> tuple[RunConfig, Path, int]:
    config = load_config(config_path)
    effective_seed = seed if seed is not None else config.seed
    if effective_seed < 0:
        raise ConfigError(f"seed must be non-negative, got {effective_seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_resolved(config, effective_seed, out / "resolved_config.yaml")
    return config, out, effective_seed


config_option = click.option("--config", "config_path", type=click.Path(), default=None, help="Run configuration file (YAML). Defaults apply for missing keys.")
seed_option = click.option("--seed", type=int, default=None, help="Random seed; overrides the config value (default 0).")
out_option = click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory (created if needed).")


def _defaults_epilog() -> str:
    import yaml

    from .config import config_to_dict

    rendered = yaml.safe_dump(config_to_dict(RunConfig()), sort_keys=True, default_flow_style=False)
    lines = "\n".join("  " + line for line in rendered.splitlines())
    return "\b\nConfiguration keys and their defaults (any subset may appear in --config):\n" + lines


class _Commands(click.Group):
    """The command group; its ``invoke`` maps errors to exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ConfigError, DataError) as exc:
            click.echo(f"error: {exc}", err=True)
            # sys.exit, not ctx.exit: with standalone_mode=False click returns ctx.exit's code instead of raising.
            sys.exit(EXIT_CONFIG_ERROR if isinstance(exc, ConfigError) else EXIT_DATA_ERROR)


@click.group(cls=_Commands, epilog=_defaults_epilog())
def main() -> None:
    """Deterministic desk-scale reef survey simulator and analysis toolkit."""


@main.command("world-gen")
@config_option
@seed_option
@out_option
def cmd_world_gen(config_path, seed, out_dir) -> None:
    """Generate a synthetic reef world file plus a habitat map SVG."""
    config, out, effective_seed = _prepare(config_path, out_dir, seed)
    world = generate_world(config.world, effective_seed)
    world.save(out / "world.json")
    (out / "habitat_map.svg").write_text(grid_heatmap_svg(world.dominant_habitat(), legend=[f"habitat {h}" for h in range(world.n_habitats)]))
    click.echo(f"world: {world.nx}x{world.ny} cells, {world.n_habitats} habitats -> {out / 'world.json'}")


@main.command("survey")
@click.option("--world", "world_path", required=True, type=click.Path(), help="World file from world-gen.")
@config_option
@seed_option
@out_option
def cmd_survey(world_path, config_path, seed, out_dir) -> None:
    """Run the drift-interleaved survey mission and write the mission log."""
    config, out, effective_seed = _prepare(config_path, out_dir, seed)
    world = GridWorld.load(world_path)
    log = mission_mod.execute(config.plan, world, config.vehicle, config.noise, config.mission, effective_seed, out / "audio")
    mission_mod.save_log(log, out / "mission_log.jsonl")
    _write_ekf_error_csv(log, out / "ekf_error.csv")
    status = "aborted: " + log.abort_reason if log.aborted else "complete"
    click.echo(
        f"survey {status}: {len(config.plan.waypoints)} waypoints, "
        f"{len(log.imaging_records())} images, {len(log.drift_records())} drift windows -> {out / 'mission_log.jsonl'}"
    )
    if log.aborted:
        sys.exit(EXIT_DATA_ERROR)


def _write_ekf_error_csv(log, path: Path) -> None:
    rows = []
    for r in log.records:
        ex = r.true_pose[0] - r.est_mean[0]
        ey = r.true_pose[1] - r.est_mean[1]
        ez = r.true_pose[2] - r.est_mean[2]
        epsi = wrap_angle(r.true_pose[3] - r.est_mean[3])
        stds = [float(np.sqrt(max(v, 0.0))) for v in r.est_cov_diag]
        rows.append([r.t, ex, ey, float(np.hypot(ex, ey)), ez, epsi, *stds])
    write_csv(path, ["t", "err_x", "err_y", "err_pos", "err_z", "err_psi", "std_x", "std_y", "std_z", "std_psi"], rows)


@main.command("analyze")
@click.option("--log", "log_path", required=True, type=click.Path(), help="Mission log from survey.")
@config_option
@seed_option
@out_option
def cmd_analyze(log_path, config_path, seed, out_dir) -> None:
    """Snap detection, habitat discovery, regression, and the report bundle."""
    config, out, effective_seed = _prepare(config_path, out_dir, seed)
    log = mission_mod.load_log(log_path)
    report = analyze_log(log, config.acoustics, config.topics, effective_seed)
    write_report(report, out)
    click.echo(
        f"analyze: {report.n_windows_used} windows, {len(report.fit.topic_labels)} habitat topics, "
        f"r = {report.pearson_r:.3f} -> {out / 'summary.json'}"
    )


@main.command("track")
@click.option("--world", "world_path", required=True, type=click.Path(), help="World file from world-gen.")
@config_option
@seed_option
@out_option
def cmd_track(world_path, config_path, seed, out_dir) -> None:
    """Run a visual-servo follow episode; write the track log and metrics."""
    config, out, effective_seed = _prepare(config_path, out_dir, seed)
    world = GridWorld.load(world_path)
    log = run_tracking_episode(world, config.vehicle, config.tracking, config.episode.duration_s, effective_seed)
    save_track_log(log, out / "track_log.jsonl")
    summary = log.summary(config.tracking.camera)
    export_track_metrics_csv(summary, out / "track_metrics.csv")
    vehicle_xy = np.array([[f.vehicle[0], f.vehicle[1]] for f in log.frames])
    target_xy = np.array([[f.target[0], f.target[1]] for f in log.frames])
    (out / "trajectory.svg").write_text(
        trajectory_svg(
            [
                ("vehicle", vehicle_xy, "stroke:#1f77b4;fill:none;stroke-width:1.5"),
                ("target", target_xy, "stroke:#d62728;fill:none;stroke-width:1.5"),
            ],
            world.width_m,
            world.height_m,
        )
    )
    click.echo(
        f"track: {summary['n_frames']} frames, central fraction {summary['central_fraction']:.3f}, "
        f"losses {summary['loss_count']}, ended_lost={summary['ended_lost']} -> {out / 'track_log.jsonl'}"
    )


if __name__ == "__main__":
    main()

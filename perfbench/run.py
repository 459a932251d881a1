#!/usr/bin/env python3
"""reefsim benchmark: closed-loop, one-client workloads, untraced or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload site-survey --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs one untimed warm-up pass, untraced passes, then traced passes that give
the per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it, ``perfbench-record: {...}``, is the machine record (versions,
thread setting, seed, sample counts, digests).  Output problems are listed
on standard error and counted as failed ops.  ``--smoke`` shrinks every
workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7  # fresh interpreters per run, some before and some after the passes
SMOKE_SETUP_PROBES = 2
MIN_PASSES = 2  # repeat passes of one seed must give the same digest
WORKLOAD_NAMES = ("site-survey", "topic-stream", "follow-panel")

SPANS = (
    "vehicle.ekf_predict",
    "vehicle.ekf_update",
    "vehicle.simulate_sensors",
    "vehicle.step_dynamics",
    "world.generate_world",
    "world.synthesize_audio",
    "world.sample_image_words",
    "world.write_wav",
    "world.read_wav",
    "mission.execute",
    "mission.save_log",
    "mission.load_log",
    "acoustics.detect_snaps",
    "acoustics.stft",
    "acoustics.band_energy",
    "topics.observe",
    "topics.gibbs_refine",
    "topics.query",
    "topics.checkpoint",
    "topics.validate",
    "analysis.analyze_log",
    "analysis.merge",
    "analysis.fit",
    "analysis.write_report",
    "tracking.episode",
    "tracking.project_target",
    "tracking.simulate_tracker",
    "tracking.step_target",
    "config.load_config",
    "cli.world_gen",
    "cli.survey",
    "cli.analyze",
    "cli.track",
)

# Per-layer metrics besides the span timings: (name, unit, better).
LAYER_EXTRAS = (
    ("vehicle.ekf_updates.depth", "count", "lower"),
    ("vehicle.ekf_updates.heading", "count", "lower"),
    ("vehicle.ekf_updates.usbl", "count", "lower"),
    ("vehicle.us_per_ekf_update", "us", "lower"),
    ("vehicle.simulate_sensors_calls", "count", "lower"),
    ("world.snaps", "count", "lower"),
    ("world.drift_windows", "count", "lower"),
    ("world.samples", "count", "lower"),
    ("world.images", "count", "lower"),
    ("world.us_per_snap", "us", "lower"),
    ("world.wav_bytes", "bytes", "lower"),
    ("mission.steps", "count", "lower"),
    ("mission.records", "count", "lower"),
    ("mission.log_bytes", "bytes", "lower"),
    ("acoustics.frames", "count", "lower"),
    ("acoustics.ns_per_frame", "ns", "lower"),
    ("acoustics.detected_over_truth", "ratio", "higher"),
    ("topics.observe_calls", "count", "lower"),
    ("topics.tokens", "count", "lower"),
    ("topics.us_per_observe", "us", "lower"),
    ("topics.sweeps", "count", "lower"),
    ("topics.token_draws", "count", "lower"),
    ("topics.ns_per_draw", "ns", "lower"),
    ("topics.active_topics", "count", "lower"),
    ("topics.recovery_acc", "1", "higher"),
    ("analysis.habitat_groups", "count", "lower"),
    ("analysis.useful_groups", "count", "higher"),
    ("analysis.useful_groups_over_active_topics", "ratio", "higher"),
    ("analysis.pearson_r", "1", "higher"),
    ("tracking.episodes", "count", "lower"),
    ("tracking.frames", "count", "lower"),
    ("tracking.episode_s_p50", "s", "lower"),
    ("tracking.ms_per_sim_s", "ms/s", "lower"),
    ("tracking.observed_frac", "ratio", "higher"),
    ("tracking.central_frac", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("quality", "1", "higher"),
)

# The per-layer name of a quality metric that no traced count gives.
QUALITY = {"site-survey": "analysis.pearson_r", "topic-stream": "topics.recovery_acc"}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric: total and self time
    of each span, then the counts and ratios."""
    spec = []
    for span in SPANS:
        spec += [(f"{span}_s", "s", "lower"), (f"{span}_self_s", "s", "lower")]
    return spec + list(LAYER_EXTRAS)


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to one thread: the client is one Python thread
    and its matrices are tiny, so pool threads would only contend for the
    other CPUs.  Returns the number of CPUs this process may use."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    """Import reefsim from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import reefsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import reefsim from {src}: {exc}") from exc
    if not Path(reefsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: reefsim imported from {reefsim.__file__}, not {src}")


def measure_setup(args, n: int) -> list[float]:
    """Process start until inputs are ready, in ``n`` fresh interpreters.

    Each probe prints the wall clock at which its setup finished.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--smoke"] if args.smoke else []
    times = []
    for _ in range(n):
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


def run_passes(workload, budget_s: float, min_passes: int, traced: bool):
    """Closed loop: passes one after another until the budget is spent."""
    from tracer import Tracer
    from workloads import wrap_program

    results, tracers = [], []
    t0 = time.perf_counter()
    while len(results) < min_passes or time.perf_counter() - t0 < budget_s:
        tracer = None
        if traced:
            tracer = Tracer()
            wrap_program(tracer)
        try:
            results.append(workload.run_pass(tracer))
        finally:
            if tracer is not None:
                tracer.restore()
                tracers.append(tracer)
    return results, tracers


def layer_metrics(tracer, result) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    c = tracer.counts
    m: dict[str, float] = {}
    for span in SPANS:
        total, own, _ = totals.get(span, (0.0, 0.0, 0))
        m[f"{span}_s"] = total
        m[f"{span}_self_s"] = own

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    updates = sum(c[f"vehicle.ekf_updates.{kind}"] for kind in ("depth", "heading", "usbl"))
    episodes = tracer.durations("tracking.episode")
    for name, _, _ in LAYER_EXTRAS:
        m[name] = c[name]
    m.update(
        {
            "vehicle.us_per_ekf_update": per(m["vehicle.ekf_update_s"], updates, 1e6),
            "world.us_per_snap": per(m["world.synthesize_audio_s"], c["world.snaps"], 1e6),
            "acoustics.ns_per_frame": per(m["acoustics.detect_snaps_s"], c["acoustics.frames"], 1e9),
            "acoustics.detected_over_truth": per(c["acoustics.detected"], c["acoustics.truth_snaps"]),
            "topics.us_per_observe": per(m["topics.observe_s"], c["topics.observe_calls"], 1e6),
            "topics.ns_per_draw": per(m["topics.gibbs_refine_s"], c["topics.token_draws"], 1e9),
            "analysis.useful_groups_over_active_topics": per(c["analysis.useful_groups"], c["topics.active_topics"]),
            "tracking.episode_s_p50": float(statistics.median(episodes)) if len(episodes) else 0.0,
            "tracking.ms_per_sim_s": per(m["tracking.episode_s"], c["tracking.sim_s"], 1e3),
            "tracking.observed_frac": per(c["tracking.observed"], c["tracking.frames"]),
            "tracking.central_frac": per(c["tracking.central"], c["tracking.frames"]),
            "trace.spans": len(tracer.start),
            "trace.uncovered_frac": 1.0 - per(tracer.top_level_coverage(), result.wall_s),
        }
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = pin_threads()
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import FULL, SMOKE, WORKLOADS

    sizes = SMOKE if args.smoke else FULL
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, sizes, None).setup()
        print(repr(time.time()))
        return 0

    probes = 0 if args.trace else SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES
    setup_times = measure_setup(args, probes // 2)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        workload = cls(args.seed, sizes, scratch)
        setup_start = time.perf_counter()
        workload.setup()
        inprocess_setup_s = time.perf_counter() - setup_start
        if args.trace:
            # An untimed first pass, so that traced and untraced passes are
            # all warm and their difference is the tracing overhead alone.
            warm, _ = run_passes(workload, 0.0, 1, traced=False)
            plain, _ = run_passes(workload, args.seconds / 2, 1, traced=False)
            traced, tracers = run_passes(workload, args.seconds / 2, MIN_PASSES, traced=True)
        else:
            warm = []
            plain, _ = run_passes(workload, args.seconds, MIN_PASSES, traced=False)
            traced, tracers = [], []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setup_times += measure_setup(args, probes - probes // 2)

    passes = warm + plain + traced
    problems = [p for r in passes for p in r.problems]
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    digests = [r.digest for r in passes]
    for i, digest in enumerate(digests[1:], start=1):
        if digest != digests[0]:
            failed += 1
            problems.append(f"pass {i} digest {digest} differs from pass 0 digest {digests[0]}")
    signatures = [dict(t.counts) for t in tracers]  # work counts must repeat exactly
    for i, signature in enumerate(signatures[1:], start=1):
        if signature != signatures[0]:
            failed += 1
            changed = sorted(k for k in set(signature) | set(signatures[0]) if signature.get(k) != signatures[0].get(k))
            problems.append(f"traced pass {i} counts differ from traced pass 0: {changed}")
    failed = min(failed, attempted)

    quality = statistics.median(r.quality for r in passes)
    episode_times = [t for r in plain for t in r.episode_s]
    if args.trace:
        per_pass = [layer_metrics(t, r) for t, r in zip(tracers, traced)]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        if args.workload in QUALITY:
            values[QUALITY[args.workload]] = quality
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(r.wall_s for r in plain)
        units = {name: unit for name, unit, _ in per_layer_spec()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r.wall_s for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "quality": quality,
        }
        units = {name: unit for name, unit, _ in END_TO_END}

    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "closed_loop_clients": 1,
        "nproc": nproc,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "samples": {
            "setup_s": len(setup_times),
            "wall_s": len(plain),
            "traced_passes": len(traced),
            "episodes": len(episode_times),
        },
        "setup_s_runs": setup_times,
        "episode_s_p50": statistics.median(episode_times) if episode_times else None,
        "inprocess_setup_s": inprocess_setup_s,
        "wall_s_runs": [r.wall_s for r in plain],
        "traced_wall_s_runs": [r.wall_s for r in traced],
        "stages": [r.stages for r in passes if r.stages],
        "digests": digests,
        "counts": dict(sorted(signatures[0].items())) if signatures else {},
    }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("perfbench-record: " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

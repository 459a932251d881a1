"""Rewrite every pin in ``tests/golden_cli_digests.json`` from the current code.

Run it once after a deliberate change to a random stream or to the
arithmetic, from the repository root:

    PYTHONPATH=src python tests/regenerate_pins.py

It prints each pin that moved.  Name them in CHANGES.md and check that the
acceptance panels still pass (``REEFSIM_FULL_ACCEPTANCE=1``).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from pins import (  # noqa: E402
    LOOP_BRANCHES,
    PINS_PATH,
    SAMPLER_RUNS,
    TRACK_LOG_CASES,
    cli_artifact_digests,
    detection_times,
    loop_branch_digest,
    make_workspace,
    track_log_digest,
)

from reefsim.world import WorldConfig, generate_world  # noqa: E402


def compute_pins(root: Path) -> dict:
    """Every pin, computed in the empty directory ``root``."""
    world = generate_world(WorldConfig(), seed=7)  # the tests' default world
    (root / "cli").mkdir()
    branches, track_logs, sampler = {}, {}, {}
    for case in sorted(LOOP_BRANCHES):
        (root / case).mkdir()
        branches[case] = loop_branch_digest(world, case, root / case)
    for case in sorted(TRACK_LOG_CASES):
        (root / "track" / case).mkdir(parents=True)
        track_logs[case] = track_log_digest(case, root / "track" / case)
    for run, digest in sorted(SAMPLER_RUNS.items()):
        (root / "sampler" / run).mkdir(parents=True)
        sampler[run] = digest(root / "sampler" / run)
    return {
        "artifacts": cli_artifact_digests(*make_workspace(root / "cli"), root / "cli" / "out"),
        "detection_times": detection_times(world),
        "loop_branches": branches,
        "numpy": np.__version__,
        "sampler": sampler,
        "track_logs": track_logs,
    }


def moved(old, new, prefix: str = "") -> list[str]:
    """The dotted keys whose values differ between two pin trees."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [prefix]
    return [key for name in sorted(old.keys() | new.keys())
            for key in moved(old.get(name), new.get(name), f"{prefix}{'.' if prefix else ''}{name}")]


def main() -> None:
    old = json.loads(PINS_PATH.read_text())
    with tempfile.TemporaryDirectory() as directory:
        new = compute_pins(Path(directory))
    PINS_PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    changes = moved(old, new)
    print("\n".join(f"moved: {key}" for key in changes) or "no pin moved")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Regenerate the bundled instance files under instances/.

Everything here is seeded, so rerunning reproduces the same files."""

from __future__ import annotations

import argparse
from pathlib import Path

from gussp.domains import (
    PriorSpec,
    SearchRescueParams,
    line4,
    random_grid,
    random_rover,
    save_instance,
    synthesize_ev_params,
)


def bundle() -> dict:
    """Parameters of each bundled instance, by file stem."""
    return {
        "line4": line4(),
        "grid8": random_grid(11, width=8, height=8, n_goals=3, move_success=0.85),
        "grid8_landmark": random_grid(
            12, width=8, height=8, n_goals=3, n_landmarks=1, move_success=0.85
        ),
        "grid12": random_grid(21, width=12, height=12, n_goals=4, move_success=0.9),
        "rover6": random_rover(31, width=6, height=6, n_goals=3),
        "rover20": random_rover(32, width=20, height=20, n_goals=6),
        "search4": SearchRescueParams(
            width=4, height=3, start=(0, 0),
            candidate_cells=((3, 0), (3, 2), (0, 2)), n_victims=2,
        ),
        "ev8": synthesize_ev_params(7),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1] / "instances"))
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, params in bundle().items():
        path = out / f"{name}.txt"
        save_instance(params, str(path))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

"""Digest every output file of every bundled world, protocol, platform and arm.

    python3 tools/output_matrix.py --checkout ../parent --out parent.txt
    python3 tools/output_matrix.py --out change.txt
    python3 tools/output_matrix.py --compare parent.txt change.txt

The first form imports ``repshield`` from ``CHECKOUT/src`` (by default the
tree this script sits in) and runs its command-line front end once per case:
exploration on every bundled world, goal on every world with goals, dynamic
on every world with agents, each on every platform with the shield on and
off, at seed 0 with 2 trials and ``--max-time 30``; and, on every platform,
replay of native renders at fixed poses along ``corridor_03``, saved as DF1
files (loading gives C-order grids, so the full lift runs), with a straight
trajectory. It writes one line per output file, ``case file sha256``, for
``report.csv``, ``trials.csv`` and each ``*.traj.csv`` and ``*.dec.csv``.
``--compare A B`` prints every case whose files or digests differ between
two such listings and exits 1 if there is one, 0 otherwise. CI compares a
fresh listing against the one checked in at ``tests/output_matrix.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PATTERNS = ("report.csv", "trials.csv", "*.traj.csv", "*.dec.csv")
RUN_ARGS = ("--seed", "0", "--trials", "2", "--max-time", "30")
REPLAY_WORLD = "corridor_03"
REPLAY_POSES = ((1.0, 0.0, 0.0), (2.0, 0.5, 0.2), (7.5, -0.6, -0.3), (12.0, 0.9, 1.4))


def cases(bundled_worlds: dict, platforms) -> list[tuple[str, list[str]]]:
    """Every (case name, command-line arguments) of the matrix."""
    out = []
    for name, build in bundled_worlds.items():
        world = build()
        commands = ["explore"] + ["goal"] * bool(world.goals.size)
        commands += ["dynamic"] * bool(world.agents)
        for command in commands:
            for platform in sorted(platforms):
                for arm in ("shield", "no-shield"):
                    out.append((f"{name}/{command}/{platform}/{arm}",
                                [command, "--world", name, "--platform", platform,
                                 f"--{arm}", *RUN_ARGS]))
    out += [(f"{REPLAY_WORLD}/replay/{platform}/shield", ["replay", "--platform", platform])
            for platform in sorted(platforms)]
    return out


def replay_inputs(out: Path, platform) -> list[str]:
    """Write the replay frames and trajectory under ``out``; returns their
    arguments."""
    from repshield import Trajectory, save_depth_frame, save_trajectory
    from repshield.harness import resolve_world
    from repshield.sim import RobotState, raycast_depth

    world = resolve_world(REPLAY_WORLD)
    (out / "frames").mkdir(parents=True)
    for k, pose in enumerate(REPLAY_POSES):
        frame = raycast_depth(world, RobotState(*pose), platform.intrinsics(), platform.mount())
        save_depth_frame(frame, out / "frames" / f"frame_{k}.df1")
    save_trajectory(Trajectory(np.column_stack((0.25 * np.arange(1, 9), np.zeros(8)))),
                    out / "straight.tj1")
    return ["--frames", str(out / "frames"), "--trajectory", str(out / "straight.tj1"),
            "--out", str(out / "replay.dec.csv")]


def digest_checkout(checkout: Path) -> list[str]:
    """``case file sha256`` lines for every output of every case."""
    sys.path.insert(0, str(checkout / "src"))
    from repshield.harness.cli import main
    from repshield.platforms import PLATFORMS
    from repshield.worldgen import BUNDLED_WORLDS

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in cases(BUNDLED_WORLDS, PLATFORMS):
            out = Path(tmp) / case
            outputs = (replay_inputs(out, PLATFORMS[argv[2]]) if argv[0] == "replay"
                       else ["--out", str(out)])
            with contextlib.redirect_stdout(io.StringIO()):
                if main([*argv, *outputs]) != 0:
                    sys.exit(f"{case} failed in {checkout}")
            files = sorted({f for pattern in PATTERNS for f in out.rglob(pattern)})
            lines += [f"{case} {f.relative_to(out)} {hashlib.sha256(f.read_bytes()).hexdigest()}"
                      for f in files]
    return lines


def read_digests(path: Path) -> dict[str, dict[str, str]]:
    """Per case, each file's digest; lines starting with '#' are comments."""
    table: dict[str, dict[str, str]] = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            case, name, digest = line.split()
            table.setdefault(case, {})[name] = digest
    return table


def compare(a: Path, b: Path) -> int:
    left, right = read_digests(a), read_digests(b)
    differing = sorted(case for case in left.keys() | right.keys()
                       if left.get(case) != right.get(case))
    for case in differing:
        print(f"differs: {case}")
    print(f"{len(differing)} of {len(left.keys() | right.keys())} cases differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT, help="source tree to run")
    parser.add_argument("--out", type=Path, help="digest listing to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two digest listings instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    start = time.perf_counter()
    lines = digest_checkout(args.checkout.resolve())
    wall = time.perf_counter() - start
    args.out.write_text(f"# {args.checkout.resolve().name}: {wall:.1f} s\n"
                        + "\n".join(lines) + "\n")
    print(f"{len(lines)} files digested in {wall:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

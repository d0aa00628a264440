"""``tools/output_matrix.py --compare`` on hand-written digest listings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repshield import CameraMount, load_depth_frame
from repshield.harness.cli import main
from repshield.platforms import PLATFORMS
from repshield.worldgen import BUNDLED_WORLDS

ROOT = Path(__file__).resolve().parents[1]


def _output_matrix():
    spec = importlib.util.spec_from_file_location("output_matrix",
                                                  ROOT / "tools" / "output_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_PARENT = """\
# parent: 1.0 s
corridor_01/goal/locobot/shield report.csv aaa
corridor_01/goal/locobot/shield logs/trial_000.dec.csv bbb
corridor_01/goal/locobot/no-shield report.csv ccc
dynamic_side_appear/dynamic/robomaster/shield trials.csv ddd
exploration_boxes/explore/turtlebot4/shield report.csv eee
"""


def test_compare_names_every_differing_case(tmp_path, capsys):
    parent, change = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent.write_text(_PARENT)
    # One digest changed, one file missing, one case missing, one case added;
    # the comment and the line order differ too, which counts for nothing.
    change.write_text("""\
# change: 2.0 s
exploration_boxes/explore/turtlebot4/shield report.csv eee
corridor_01/goal/locobot/shield report.csv aaa
corridor_01/goal/locobot/no-shield report.csv ccX
dynamic_side_appear/dynamic/robomaster/shield trials.csv ddd
dynamic_side_appear/dynamic/robomaster/shield logs/trial_000.traj.csv fff
corridor_02/goal/locobot/shield report.csv ggg
""")
    tool = _output_matrix()
    assert tool.main(["--compare", str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: corridor_01/goal/locobot/no-shield",
        "differs: corridor_01/goal/locobot/shield",
        "differs: corridor_02/goal/locobot/shield",
        "differs: dynamic_side_appear/dynamic/robomaster/shield",
        "4 of 5 cases differ"]
    assert tool.main(["--compare", str(parent), str(parent)]) == 0
    assert capsys.readouterr().out == "0 of 4 cases differ\n"


def test_matrix_runs_each_world_under_every_protocol_it_supports():
    names = [case for case, _ in _output_matrix().cases(BUNDLED_WORLDS, PLATFORMS)]
    replays = [case for case in names if "/replay/" in case]
    assert replays == [f"corridor_03/replay/{p}/shield" for p in sorted(PLATFORMS)]
    protocols = {}
    for case in names:
        world, command, _, _ = case.split("/")
        if command != "replay":
            protocols.setdefault(world, set()).add(command)
    assert len(names) == len(set(names)) == 6 * sum(map(len, protocols.values())) + 3 == 195
    assert protocols["exploration_boxes"] == {"explore"}
    assert protocols["corridor_03"] == {"explore", "goal"}
    assert protocols["dynamic_front_approach"] == {"explore", "goal", "dynamic"}
    assert set(protocols) == set(BUNDLED_WORLDS)


def test_checked_in_listing_digests_every_case():
    # CI compares a fresh listing against this one, so it must hold every
    # case of the matrix and no other.
    tool = _output_matrix()
    listing = tool.read_digests(ROOT / "tests" / "output_matrix.txt")
    assert set(listing) == {case for case, _ in tool.cases(BUNDLED_WORLDS, PLATFORMS)}


def test_replay_cases_lift_native_c_order_frames(tmp_path):
    # The saved renders load as C-order native grids, so the full lift runs,
    # and each replay logs one decision per frame, some of them shielded.
    tool = _output_matrix()
    args = tool.replay_inputs(tmp_path, PLATFORMS["robomaster"])
    frames = sorted((tmp_path / "frames").glob("*.df1"))
    assert len(frames) == len(tool.REPLAY_POSES)
    frame = load_depth_frame(frames[0], CameraMount())
    assert frame.depths.shape == (360, 640) and frame.depths.flags.c_contiguous
    assert main(["replay", "--platform", "robomaster", *args]) == 0
    rows = (tmp_path / "replay.dec.csv").read_text().splitlines()[1:]
    assert len(rows) == len(frames)
    assert any(row.split(",")[6] == "0" for row in rows)

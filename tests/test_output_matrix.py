"""``tools/output_matrix.py --compare`` on hand-written digest listings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
    protocols = {}
    for case in names:
        world, command, _, _ = case.split("/")
        protocols.setdefault(world, set()).add(command)
    assert len(names) == len(set(names)) == 6 * sum(map(len, protocols.values()))
    assert protocols["exploration_boxes"] == {"explore"}
    assert protocols["corridor_03"] == {"explore", "goal"}
    assert protocols["dynamic_front_approach"] == {"explore", "goal", "dynamic"}
    assert set(protocols) == set(BUNDLED_WORLDS)

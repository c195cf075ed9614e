import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def in_git_work_tree() -> bool:
    try:
        proc = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                              capture_output=True, text=True)
    except FileNotFoundError:
        return False
    return proc.returncode == 0 and proc.stdout.strip() == "true"


@pytest.mark.skipif(not in_git_work_tree(), reason="exports revisions of a git work tree")
def test_head_against_itself_on_a_toy_pair(tmp_path):
    env = {**os.environ, "MALLOC_ARENA_MAX": "4"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "benchpair.py"), "HEAD", "HEAD",
         "--workload", "colocated-200", "--pairs", "1", "--seed", "5", "--seconds", "0.5",
         "--toy", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    (path,) = tmp_path.glob("BENCH_colocated-200-*-seed5.json")
    report = json.loads(path.read_text())
    assert report["base"]["commit"] == report["change"]["commit"]
    assert report["environment"]["inherited_variables"]["MALLOC_ARENA_MAX"] == "4"

    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    (pair,) = report["runs"]
    assert pair["first"] == "base"
    for side in ("base", "change"):
        assert (pair[side]["exit"], pair[side]["failed"]) == (0, 0)
        assert sorted(pair[side]["metrics"]) == sorted(names)
    summary = report["summary"]
    assert sorted(summary) == sorted(names)
    # the same code at the same seed scores the same predictions
    for name in ("heldout_rmse", "heldout_crps"):
        assert (summary[name]["ties"], summary[name]["verdict"]) == (1, "within bound")
    # one pair claims nothing
    assert all(s["verdict"] != "better" for s in summary.values())

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_benchpair():
    spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def made_up_runs(failed_base, failed_change, pairs=10, attempted=20):
    """Pairs where CHANGE is faster in every one, by far more than the
    spread, with the given failed requests per run on each side."""
    return [{"pair": i,
             "base": {"attempted": attempted, "failed": failed_base,
                      "metrics": {"fit_s": 1.0 + 0.01 * i}},
             "change": {"attempted": attempted, "failed": failed_change,
                        "metrics": {"fit_s": 0.5 + 0.01 * i}}}
            for i in range(pairs)]


@pytest.mark.parametrize("failed_base, failed_change, verdict", [
    (0, 0, "better"),
    (1, 1, "better"),
    (1, 0, "better"),
    (0, 1, "within bound"),
    (2, 3, "within bound"),
])
def test_a_change_that_fails_more_requests_is_not_better(failed_base, failed_change, verdict):
    benchpair = load_benchpair()
    spec = {"end_to_end": [{"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25}]}
    summary, totals = benchpair.summarize(spec, made_up_runs(failed_base, failed_change))
    assert summary["fit_s"]["wins"] == 10
    assert summary["fit_s"]["verdict"] == verdict
    for side, failed in (("base", failed_base), ("change", failed_change)):
        assert totals[side] == {"failed": 10 * failed, "attempted": 200, "share": failed / 20}

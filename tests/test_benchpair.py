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
    assert all(s["floor"] == s["floor_share"] * abs(s["base"]["median"]) for s in summary.values())


def made_up_runs(failed_base, failed_change, pairs=10, attempted=20, change_at=0.5):
    """Pairs where CHANGE is faster in every one, by 1 - ``change_at`` of
    BASE's median, with the given failed requests per run on each side.
    BASE's median is 1.009 and its interquartile range 0.009."""
    return [{"pair": i,
             "base": {"attempted": attempted, "failed": failed_base,
                      "metrics": {"fit_s": 1.0 + 0.002 * i}},
             "change": {"attempted": attempted, "failed": failed_change,
                        "metrics": {"fit_s": change_at + 0.002 * i}}}
            for i in range(pairs)]


FIT_S = {"end_to_end": [{"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25}]}


@pytest.mark.parametrize("failed_base, failed_change, verdict", [
    (0, 0, "better"),
    (1, 1, "better"),
    (1, 0, "better"),
    (0, 1, "within bound"),
    (2, 3, "within bound"),
])
def test_a_change_that_fails_more_requests_is_not_better(failed_base, failed_change, verdict):
    benchpair = load_benchpair()
    summary, totals = benchpair.summarize(FIT_S, made_up_runs(failed_base, failed_change), {})
    assert summary["fit_s"]["wins"] == 10
    assert summary["fit_s"]["verdict"] == verdict
    for side, failed in (("base", failed_base), ("change", failed_change)):
        assert totals[side] == {"failed": 10 * failed, "attempted": 200, "share": failed / 20}


def made_up_report(medians):
    """A stored report whose summary holds only each metric's two medians."""
    return {"summary": {name: {"base": {"median": b}, "change": {"median": c}}
                        for name, (b, c) in medians.items()}}


def test_the_floor_is_the_largest_shift_between_identical_sources():
    benchpair = load_benchpair()
    shares = benchpair.floor_shares([
        made_up_report({"fit_s": (2.0, 1.9), "heldout_rmse": (0.5, 0.5), "failed_s": (0.0, 1.0)}),
        made_up_report({"fit_s": (1.0, 1.03)}),
    ])
    assert shares["fit_s"] == pytest.approx(0.05)
    assert shares["heldout_rmse"] == 0.0
    assert "failed_s" not in shares  # a zero median gives no relative shift


@pytest.mark.parametrize("change_at, shares, verdict", [
    (0.94, {}, "better"),                    # 6% gain: beats the IQR and the 1% default
    (0.94, {"fit_s": 0.0305}, "better"),
    (0.97, {"fit_s": 0.0305}, "within bound"),  # 3% beats the IQR, not the floor
    (0.97, {"fit_s": 0.0}, "better"),
    (0.99, {}, "within bound"),              # 1% beats the IQR, not the 1% of 1.009
])
def test_better_needs_a_gain_above_the_floor(change_at, shares, verdict):
    benchpair = load_benchpair()
    summary, _ = benchpair.summarize(FIT_S, made_up_runs(0, 0, change_at=change_at), shares)
    s = summary["fit_s"]
    assert s["wins"] == 10
    assert s["floor_share"] == shares.get("fit_s", benchpair.DEFAULT_FLOOR)
    assert s["floor"] == pytest.approx(s["floor_share"] * 1.009)
    assert s["verdict"] == verdict


def test_the_committed_rss_claim_still_reads_better():
    """colocated-200 peak_rss_mb fell 11.5% in 10 of 10 pairs; the floor
    from the committed same-source run of that workload (0.12%) keeps it
    ``better``."""
    benchpair = load_benchpair()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claim, same_src = (json.loads((ROOT / f"BENCH_colocated-200-{pair}-seed31.json").read_text())
                       for pair in ("208d0b8-c7afe6d", "220a55e-064b5a7"))
    summary, _ = benchpair.summarize(spec, claim["runs"], benchpair.floor_shares([same_src]))
    rss = summary["peak_rss_mb"]
    assert rss["floor_share"] == pytest.approx(0.0012, abs=5e-5)
    assert (rss["wins"], rss["verdict"]) == (10, "better")
    assert rss["relative_change"] == pytest.approx(-0.115, abs=5e-4)


def test_a_repeated_run_is_written_beside_the_first(tmp_path):
    benchpair = load_benchpair()
    label = "bootstrap-cli-1111111-2222222-seed31"
    names = []
    for text in ("first", "second", "third"):
        path = benchpair.report_path(tmp_path, label)
        path.write_text(text)
        names.append(path.name)
    assert names == [f"BENCH_{label}.json", f"BENCH_{label}-run2.json", f"BENCH_{label}-run3.json"]
    assert (tmp_path / names[0]).read_text() == "first"

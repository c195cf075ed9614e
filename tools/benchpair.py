"""Interleaved benchmark pairs of two revisions, with medians, quartiles,
wins and a verdict per end-to-end metric.

    python3 tools/benchpair.py BASE CHANGE --workload colocated-200 --pairs 10 --seed 31

BASE and CHANGE are any git revisions of this repository. Each is
exported with ``git archive`` into its own temporary directory, and each
export runs its own, unchanged benchmark: the ``command`` of its
``BENCHMARK.json`` (``perfbench/run.py``) with ``--workload``, ``--seed``,
``--seconds`` and, for a smoke test, ``--toy``. Pair i runs BASE first
when i is even and CHANGE first when it is odd. Every run inherits this
process's environment unchanged (the tool sets no malloc or thread
variable), and the variables that steer the allocator or the thread
pools are recorded with the results.

The tool writes ``BENCH_<label>.json`` into ``--out``: each pair's
metrics, each side's median and quartiles, and for each end-to-end
metric of BASE's ``BENCHMARK.json`` the pairs CHANGE won, lost and tied
(in the metric's ``better`` direction) and one verdict:

- ``better``: CHANGE wins at least 9 in 10 of 10 or more pairs, ties
  counting for neither side, its median beats BASE's by more than
  BASE's interquartile range, and no larger share of its requests
  failed than of BASE's;
- ``worse beyond bound``: CHANGE's median is worse than BASE's by more
  than the metric's ``bound``, a fraction of BASE's median;
- ``unresolved``: BASE's own interquartile range is wider than that
  bound, so a move within it cannot be told from the spread;
- ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
# prefixes of the environment variables that change allocation or
# thread pools, and so the memory and timing a run reports
STEERING = ("MALLOC_", "GLIBC_TUNABLES", "PYTHONMALLOC", "OPENBLAS_", "OMP_", "MKL_")


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True, capture_output=True).stdout


def export(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` into the new directory ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, args) -> tuple:
    """One benchmark run in the export ``tree``: its exit code, request
    counts and end-to-end metric values, and the environment it reports."""
    command = json.loads((tree / "BENCHMARK.json").read_text())["command"]
    command = [*command, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), *(["--toy"] if args.toy else [])]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    except ValueError:
        raise SystemExit(f"{' '.join(command)} in {tree.name} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    run = {
        "exit": proc.returncode,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    return run, info["env"]


def quartiles(values) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"q1": q1, "median": median, "q3": q3}


def summarize(spec: dict, runs: list) -> tuple:
    """The verdict of every end-to-end metric, and each side's failed
    and attempted requests over all pairs with the failed share. A change
    that fails a larger share of its requests is better on no metric."""
    totals = {}
    for side in SIDES:
        failed = sum(r[side]["failed"] for r in runs)
        attempted = sum(r[side]["attempted"] for r in runs)
        totals[side] = {"failed": failed, "attempted": attempted,
                        "share": failed / attempted if attempted else 0.0}
    more_failures = totals["change"]["share"] > totals["base"]["share"]
    summary = {
        m["name"]: compare(m, *([r[side]["metrics"][m["name"]] for r in runs] for side in SIDES),
                           more_failures)
        for m in spec["end_to_end"]
    }
    return summary, totals


def compare(spec: dict, base: list, change: list, more_failures: bool) -> dict:
    """Wins, quartiles and the verdict of one metric over the pairs;
    ``more_failures`` (CHANGE failed a larger share of its requests)
    rules out ``better``."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    gains = [sign * (b - c) for b, c in zip(base, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    b, c = quartiles(base), quartiles(change)
    gain, spread = sign * (b["median"] - c["median"]), b["q3"] - b["q1"]
    allowed = spec["bound"] * abs(b["median"])
    if (not more_failures and len(gains) >= 10 and wins >= math.ceil(0.9 * len(gains))
            and gain > spread):
        verdict = "better"
    elif -gain > allowed:
        verdict = "worse beyond bound"
    elif spread > allowed:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "base": b, "change": c,
        "relative_change": (c["median"] - b["median"]) / b["median"] if b["median"] else None,
        "wins": wins, "losses": losses, "ties": len(gains) - wins - losses, "verdict": verdict,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="the parent revision")
    parser.add_argument("change", metavar="CHANGE", help="the revision under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BASE's BENCHMARK.json)")
    parser.add_argument("--toy", action="store_true", help="tiny workloads (smoke test only)")
    parser.add_argument("--out", type=Path, default=Path.cwd(),
                        help="directory for BENCH_<label>.json (default: the current one)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in zip(SIDES, (args.base, args.change))}
    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        runs, reported = [], {}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"pair": i, "first": order[0]}
            for side in order:
                pair[side], reported[side] = run_once(trees[side], args)
                print(f"pair {i} {side}: {pair[side]['metrics']}", file=sys.stderr)
            runs.append(pair)

    summary, totals = summarize(spec, runs)
    label = f"{args.workload}-{commits['base'][:7]}-{commits['change'][:7]}-seed{args.seed}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "toy": args.toy, "pairs": args.pairs,
        **{side: {"rev": rev, "commit": commits[side]}
           for side, rev in zip(SIDES, (args.base, args.change))},
        "environment": {
            "inherited_variables": {k: v for k, v in sorted(os.environ.items())
                                    if k.startswith(STEERING)},
            "platform": platform.platform(),
            "cpus": len(os.sched_getaffinity(0)),
            "reported": reported,
        },
        "failures": totals,
        "summary": summary,
        "runs": runs,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    for name, s in summary.items():
        print(f"{name:<13} {s['base']['median']:.6g} [{s['base']['q1']:.6g}, {s['base']['q3']:.6g}]"
              f" -> {s['change']['median']:.6g} [{s['change']['q1']:.6g}, {s['change']['q3']:.6g}]"
              f"  wins {s['wins']}/{args.pairs}  {s['verdict']}")
    print("failed requests: " + ", ".join(
        f"{side} {t['failed']}/{t['attempted']} ({t['share']:.1%})" for side, t in totals.items()))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

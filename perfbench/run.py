"""Kryging benchmark: one workload per run, closed loop with one client.

    python3 perfbench/run.py --workload colocated-200 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.
Set-up makes the workload's inputs from ``--seed`` (three times; the
median is ``setup_s``) and serves a warm-up request. Requests are then
served one after another for ``--seconds`` and every output is checked.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced requests with requests under the outside-in span tracer
(``spans.py``), checks that tracing changed no count, writes the spans
to ``perfbench/out/`` and prints the per-layer metrics, with
``trace.overhead`` = traced / untraced median request wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, evaluation counts and stop details. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "bootstrap_s": "s",
    "heldout_rmse": "units_of_y",
    "heldout_crps": "units_of_y",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> int:
    """Pin BLAS/OpenMP pools to the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
    }


def closed_loop(workloads, prepared, budget: float, tracer=None):
    """Serve requests one at a time while the next one would end within
    ``budget`` seconds plus half a request (at least one request).

    With a tracer, requests alternate untraced / traced, starting untraced
    and ending after a traced one, so both halves see the same host
    conditions. Returns [(id, wall, outcome or None, traced)].
    """
    served, start = [], time.perf_counter()
    while True:
        run_id = len(served)
        traced = tracer is not None and run_id % 2 == 1
        if traced:
            tracer.run = run_id
            tracer.install()
        t0 = time.perf_counter()
        try:
            outcome = workloads.request(prepared)
        except Exception:
            traceback.print_exc()
            outcome = None
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        served.append((run_id, wall, outcome, traced))
        longest = max(w for _, w, _, _ in served)
        pair_done = tracer is None or traced
        if pair_done and time.perf_counter() - start + longest / 2 > budget:
            return served


def benchmark(args, workdir: str, nproc: int) -> tuple:
    import workloads
    from spans import COMPUTED, PER_LAYER, Tracer, layer_metrics

    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        prepared = workloads.prepare(args.workload, args.seed, workdir, toy=args.toy)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if args.trace else None
    served = closed_loop(workloads, prepared, args.seconds, tracer)

    failed, good, notes = 0, [], []
    for run_id, wall, outcome, traced in served:
        problems = ["request raised"] if outcome is None else workloads.check(prepared, outcome)
        if problems:
            failed += 1
            notes.append({"request": run_id, "problems": problems})
        else:
            good.append((run_id, wall, outcome, traced))
    if not good:
        raise SystemExit(f"no request of {args.workload} passed its checks, e.g. {notes[:2]}")

    metrics = {}
    if args.trace:
        plain_ok = [x for x in good if not x[3]]
        traced_ok = [x for x in good if x[3]]
        if not plain_ok or not traced_ok:
            raise SystemExit(f"no traced or no untraced request passed its checks, e.g. {notes[:2]}")
        reference = plain_ok[0][2]
        per_request = []
        for run_id, _, outcome, _ in traced_ok:
            layer = layer_metrics(tracer.spans, run_id)
            problems = []
            if (outcome.evals, outcome.accepted) != (reference.evals, reference.accepted):
                problems.append(
                    f"traced fit took {outcome.evals} evaluations / {outcome.accepted} accepted, "
                    f"untraced {reference.evals} / {reference.accepted}"
                )
            if layer["likelihood.evaluate.calls"] != outcome.evals:
                problems.append(
                    f"{layer['likelihood.evaluate.calls']} traced evaluations for "
                    f"FitResult.iterations = {outcome.evals}"
                )
            if layer["toeplitz.sample.calls"] != prepared.design.B:
                problems.append(
                    f"{layer['toeplitz.sample.calls']} traced draws for B = {prepared.design.B}"
                )
            if problems:
                failed += 1
                notes.append({"request": run_id, "problems": problems})
            per_request.append(layer)
        for name in PER_LAYER:
            if name != "trace.overhead":
                metrics[name] = statistics.median(m[name] for m in per_request)
        metrics["trace.overhead"] = (
            statistics.median(x[1] for x in traced_ok) / statistics.median(x[1] for x in plain_ok)
        )
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        outcomes = [x[2] for x in good]
        quality = [workloads.scores(prepared, o) for o in outcomes]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "fit_s": statistics.median(o.fit_s for o in outcomes),
            "eval_s": statistics.median(o.eval_s for o in outcomes),
            "bootstrap_s": statistics.median(o.bootstrap_s for o in outcomes),
            "heldout_rmse": statistics.median(q["heldout_rmse"] for q in quality),
            "heldout_crps": statistics.median(q["heldout_crps"] for q in quality),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(nproc),
        "setup_s": setup_times,
        "requests": [
            {"id": run_id, "wall_s": wall, "traced": traced,
             **({} if o is None else {"evals": o.evals, "accepted": o.accepted,
                                      "stop": o.stop_reason})}
            for run_id, wall, o, traced in served
        ],
        "problems": notes,
        "computed_not_measured": list(COMPUTED),
    }
    if tracer is not None:
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(out, info)
        info["spans_file"] = str(out.relative_to(HERE.parent))
    result = {
        "correct": failed == 0,
        "attempted": len(served),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, info


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["colocated-200", "irregular-300", "bootstrap-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny grids, small k and B (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kryging" / "__init__.py").is_file():
        print(f"error: kryging sources not found in {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    (HERE / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out")
    try:
        result, info = benchmark(args, workdir, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

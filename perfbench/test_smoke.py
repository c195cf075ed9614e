"""Toy-size smoke test of the benchmark (tiny grids, small k, B = 2).

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json prints with its unit on
every workload, traced and untraced, that the tracer reaches functions
through every module that imports them, and that corrupted outputs trip
the output checks.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def run_toy(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    result = run_toy(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


def test_tracer_patches_every_binding_and_restores():
    import workloads  # noqa: F401  (imports the whole package)
    from kryging import cli, estimation, likelihood, mapping, toeplitz
    from spans import Tracer

    bindings = [
        (estimation, "evaluate_objective"), (likelihood, "gengk_factorize"), (likelihood, "solve"),
        (estimation, "gengk_factorize"), (estimation, "solve"), (likelihood, "dlogdet_drho"),
        (toeplitz, "first_column"), (toeplitz, "first_column_drho"), (cli, "build_map"),
        (estimation, "build_map"), (cli, "load_fit_artifact"), (cli, "read_locations"),
        (cli, "write_predictions"), (cli, "fit"), (cli, "bootstrap_uq"),
    ]
    originals = [getattr(mod, name) for mod, name in bindings]
    methods = [(toeplitz.BttbOperator, "matvec"), (toeplitz.BttbOperator, "__init__"),
               (mapping.SparseMap, "apply_t")]
    raw_methods = [vars(cls)[name] for cls, name in methods]
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, name), original in zip(bindings, originals):
            assert getattr(mod, name) is not original, f"{mod.__name__}.{name} not traced"
        for (cls, name), raw in zip(methods, raw_methods):
            assert vars(cls)[name] is not raw, f"{cls.__name__}.{name} not traced"
    finally:
        tracer.uninstall()
    assert [getattr(mod, name) for mod, name in bindings] == originals
    assert [vars(cls)[name] for cls, name in methods] == raw_methods


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    import workloads

    prepared = workloads.prepare("bootstrap-cli", 5, str(tmp_path_factory.mktemp("toy")), toy=True)
    return workloads, prepared, workloads.request(prepared)


def test_clean_output_passes(served):
    workloads, prepared, outcome = served
    assert workloads.check(prepared, outcome) == []


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (lambda o: {"objective_trace": np.array([1.0, 2.0])}, "non-increasing"),
        (lambda o: {"theta_vec": np.full_like(o.theta_vec, np.nan)}, "theta_hat"),
        (lambda o: {"y_hat": np.where(np.arange(o.rows) == 0, np.nan, o.y_hat)}, "y_hat"),
        (lambda o: {"se": np.where(np.arange(o.rows) == 0, 0.0, o.se)}, "se not"),
        (lambda o: {"y_hat": o.y_hat + 10.0}, "rmse"),
        (lambda o: {"rows": o.rows - 1}, "prediction rows"),
    ],
)
def test_corrupted_output_trips_a_check(served, corrupt, expected):
    workloads, prepared, outcome = served
    problems = workloads.check(prepared, dataclasses.replace(outcome, **corrupt(outcome)))
    assert any(expected in p for p in problems), problems


def test_corrupted_prediction_csv_trips_a_check(served, tmp_path):
    workloads, prepared, outcome = served
    lines = Path(prepared.files["predictions.csv"]).read_text().splitlines()
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-1]) + "\n")
    rows, y_hat, se = workloads.read_predictions(short)
    problems = workloads.check(prepared, dataclasses.replace(outcome, rows=rows, y_hat=y_hat, se=se))
    assert any("prediction rows" in p for p in problems), problems

    fields = lines[1].split(",")
    fields[2] = "nan"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    rows, y_hat, se = workloads.read_predictions(bad)
    problems = workloads.check(prepared, dataclasses.replace(outcome, rows=rows, y_hat=y_hat, se=se))
    assert any("y_hat" in p for p in problems), problems

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kryging


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def under_blas_threads(tmp_path):
    """Run a script under 1 and then 2 BLAS threads and return, for each
    run, the arrays it saved with ``np.savez`` to the path in argv[1]."""
    src = str(Path(kryging.__file__).resolve().parents[1])

    def run(code):
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True)
            with np.load(out) as z:
                runs.append({key: z[key] for key in z.files})
        return runs

    return run

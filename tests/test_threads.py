"""The windowed DtN pipelines give the same rows at one and at two BLAS threads.

OpenBLAS reads its thread count once, at load, so each count runs in its own
interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import helmres
from test_cli import _CAVITY_DTN, _SLAB_DTN

_SCRIPT = """
import json, sys
from helmres.cli import RunConfig, run_pipeline
rows = {name: [[row.re_k, row.im_k] for row in run_pipeline(RunConfig(**cfg)).rows]
        for name, cfg in json.loads(sys.argv[1]).items()}
print(json.dumps(rows))
"""


def _window_ks(threads: int) -> dict:
    src = str(pathlib.Path(helmres.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    configs = json.dumps({"slab": _SLAB_DTN, "air_cavity": _CAVITY_DTN})
    # as in the test run itself, a RuntimeWarning is an error
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _SCRIPT, configs],
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    return {name: np.array(ks).reshape(-1, 2) @ [1, 1j]
            for name, ks in json.loads(out.stdout).items()}


def test_window_rows_do_not_depend_on_blas_threads():
    one, two = _window_ks(1), _window_ks(2)
    for name in ("slab", "air_cavity"):
        assert one[name].size and one[name].size == two[name].size, name
        np.testing.assert_allclose(one[name], two[name], rtol=0, atol=1e-9, err_msg=name)

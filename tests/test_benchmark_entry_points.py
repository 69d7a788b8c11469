"""The package names the benchmark calls still work.

``perfbench/child.py`` imports ``mpdp`` and, in its probe and kernel
steps, calls ``kernels.backend_name``, ``kernels.rademacher_matrix`` and
``kernels.sketch_product``.  If one of them goes, the benchmark cannot
start; this runs both steps as the benchmark does, on the repo's ``src``."""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")


def run_child(tmp_path, job):
    result = tmp_path / f"{job['mode']}.result.json"
    job_path = tmp_path / f"{job['mode']}.job.json"
    job_path.write_text(json.dumps(dict(job, src=os.path.join(ROOT, "src"), result=str(result))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, CHILD, str(job_path), repr(time.monotonic())],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(result.read_text())


def test_probe_reports_the_numpy_kernel(tmp_path):
    pytest.importorskip("scipy")  # the probe reports scipy's version
    assert run_child(tmp_path, {"mode": "probe"})["kernel_backend"] == "numpy"


def test_kernel_check_matches_the_materialised_matrix(tmp_path):
    res = run_child(tmp_path, {"mode": "kernel", "shape": [9, 2000, 11], "seed": 0})
    assert res["shape_ok"]
    assert res["rel_err"] <= 1e-12

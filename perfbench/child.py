"""One benchmark step in a fresh interpreter.

Usage: python3 child.py JOB.json SPAWN_MONOTONIC

``SPAWN_MONOTONIC`` is the parent's ``time.monotonic()`` just before it
started this process; on Linux that clock is system-wide, so set-up time
(interpreter start, ``import mpdp`` and reading the job) is measured from
it to just before ``cli.main``.  The job's ``mode`` is one of

- ``run``: call ``mpdp.cli.main(argv)`` once, optionally traced; with
  ``calibrate``, time the calibration loop right after set-up, right
  before the sweep and right after it;
- ``probe``: import the package and report the software it runs on;
- ``kernel``: check one ``sketch_product`` against the materialised
  mixing matrix.

The result is written as JSON to the job's ``result`` path.
"""

import sys
import time

_SPAWNED = float(sys.argv[2])

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402


def _calibration_work() -> float:
    # every array stays under 128 KiB, glibc's initial mmap threshold, so
    # the loop leaves the allocator as a fresh process has it and does
    # not move the sweep's peak RSS or page-fault pattern
    import numpy as np

    acc = 0.0
    for i in range(800):
        gen = np.random.default_rng([i, 0x63616C])
        a = gen.standard_normal((64, 11))
        s = a.T @ a + np.eye(11)
        x = np.linalg.solve(s, a[0]) + np.linalg.eigvalsh(s)[0]
        rec = {"method": "dgm", "n": i, "value": float(x[0]), "status": "ok"}
        acc += len(",".join(str(v) for v in rec.values()))
    gen = np.random.default_rng(0x63616C)
    data = gen.uniform(-1.0, 1.0, size=(1024, 11))
    for _ in range(160):
        signs = gen.integers(0, 2, size=(15, 1024), dtype=np.int8) * 2.0 - 1.0
        acc += float((signs @ data).sum())
    return acc


def calibrate(workers: int) -> float:
    """Seconds taken by a fixed piece of work that does not touch mpdp.

    It mixes what a sweep does (generator construction, small draws and
    solves, record formatting, sign-matrix products) and runs one copy
    per worker thread, as the sweep's pool does.  Timed right next to a
    sweep, it measures how fast the host is running this kind of code at
    that moment.
    """
    start = time.perf_counter()
    if workers == 1:
        _calibration_work()
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda _: _calibration_work(), range(workers)))
    return time.perf_counter() - start


def _run(job, mpdp, cli):
    setup_s = time.monotonic() - _SPAWNED
    cal = {}
    if job["calibrate"]:
        calibrate(job["workers"])  # first-call costs, untimed
        cal["setup"] = calibrate(1)
        cal["before"] = cal["setup"] if job["workers"] == 1 else calibrate(job["workers"])
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    rc = cli.main(job["argv"])
    wall_s = time.perf_counter() - start
    out = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if job["calibrate"]:
        out["cal_setup_s"] = cal["setup"]
        # the mean of the loops on either side of the sweep
        out["cal_s"] = (cal["before"] + calibrate(job["workers"])) / 2.0
    if tracer is not None:
        tracer.dump(job["spans"])
        out["missing_targets"] = tracer.missing
    return out


def _probe(job, mpdp, cli):
    import numpy as np
    import scipy

    from mpdp import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "kernel_backend": kernels.backend_name(),
        "mpdp_file": mpdp.__file__,
        "thread_env": {
            k: os.environ.get(k, "")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _kernel(job, mpdp, cli):
    import numpy as np

    from mpdp import kernels

    k, n, c = job["shape"]
    rng = np.random.default_rng([job["seed"], 0x6B65726E])
    data = rng.uniform(-1.0, 1.0, size=(n, c))
    mixing_seed = int(rng.integers(0, 2**63))
    reference = kernels.rademacher_matrix(mixing_seed, k, n) @ data
    got = kernels.sketch_product(mixing_seed, data, k)
    err = float(np.max(np.abs(got - reference)) / np.max(np.abs(reference)))
    return {"rel_err": err, "shape_ok": list(got.shape) == [k, c]}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import mpdp
    import mpdp.cli as cli

    if not os.path.abspath(mpdp.__file__).startswith(os.path.abspath(job["src"])):
        raise RuntimeError(f"imported mpdp from {mpdp.__file__}, not {job['src']}")
    out = {"run": _run, "probe": _probe, "kernel": _kernel}[job["mode"]](job, mpdp, cli)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in span tracer for the mpdp package.

The tracer wraps named functions at run time; the package itself is not
edited.  A target is named by the module it lives in today and its
qualified name.  The function object is then located by identity: every
``mpdp.*`` module attribute bound to that same object is replaced by one
wrapper, so calls through ``from .x import f`` aliases are counted too.
If the target is no longer in its module, the same name is looked up in
every mpdp module, so a function that moves between modules is still
traced.  A target that cannot be found is reported as missing.

Spans carry a name, start, end, the span that caused them (a per-thread
parent stack) and a task id shared by every span of one (n, seed) task.
They are kept in memory and written out by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import threading
import time
import weakref


class _Span:
    __slots__ = ("name", "start", "end", "parent", "task", "child", "counts", "error")

    def __init__(self, name, parent, task):
        self.name = name
        self.parent = parent
        self.task = task
        self.child = 0.0
        self.counts = None
        self.error = None
        self.start = time.perf_counter()


def _sketch_counts(args, result):
    n, c = args["data"].shape
    k = int(args["k"])
    # computed bytes: read D, write the k-by-c product, one bit per sign
    return {
        "sign_entries": k * n,
        "madds": k * n * c,
        "bytes_computed": 8 * n * c + 8 * k * c + (k * n + 7) // 8,
    }


def _noise_counts(args, result):
    return {"entries": int(args["rows"]) * int(args["cols"])}


def _rows_counts(args, result):
    return {"rows": int(args["n"])}


def _written_counts(args, result):
    return {"bytes_written": sum(os.path.getsize(p) for p in result.values())}


def _trial_task(args):
    n = args["n"] if "n" in args else args["data"].n
    return f"n={n},seed={args['seed']}"


class _Distinct:
    """Counts validate_bounds calls on a matrix not seen before (weakly held)."""

    def __init__(self):
        self._seen = weakref.WeakValueDictionary()  # id -> matrix; DataMatrix is unhashable
        self._lock = threading.Lock()

    def __call__(self, args, result):
        data = args["data"]
        with self._lock:
            fresh = self._seen.get(id(data)) is not data
            self._seen[id(data)] = data
        return {"entries_scanned": int(data.values.size), "distinct": int(fresh)}


# (module, qualified name, counter, task id).  A counter maps (bound args,
# result) to counts; a class there is instantiated once per tracer.  A task
# id function maps bound args to the id shared by the task's spans.
TARGETS = (
    ("runner", "_synthetic_trial", None, _trial_task),
    ("runner", "_real_trial", None, _trial_task),
    ("runner", "write_outputs", _written_counts, None),
    ("runner", "best_k_rows", None, None),
    ("synthetic", "gen_ground_truth", None, None),
    ("synthetic", "gen_dataset", _rows_counts, None),
    ("data_model", "load_csv", None, None),
    ("data_model", "split_train_test", None, None),
    ("data_model", "normalize_minmax", None, None),
    ("data_model", "validate_bounds", _Distinct, None),
    ("data_model", "DataMatrix.__post_init__", None, None),
    ("dp_core", "calibrate", None, None),
    ("dp_core", "gaussian_noise", _noise_counts, None),
    ("streams", "RandomStream.child", None, None),
    ("streams", "RandomStream.generator", None, None),
    ("streams", "RandomStream.seed64", None, None),
    ("dgm", "dgm_release", None, None),
    ("dgm", "dgm_train", None, None),
    ("rmgm", "choose_k", None, None),
    ("rmgm", "rmgm_release", None, None),
    ("rmgm", "rmgm_train", None, None),
    ("baselines", "_ols_train_diag", None, None),
    ("kernels", "sketch_product", _sketch_counts, None),
    ("linalg", "solve_symmetric", None, None),
    ("evaluation", "weight_distance", None, None),
    ("evaluation", "test_mse", None, None),
    ("evaluation", "aggregate", None, None),
    ("evaluation", "trials_to_csv", None, None),
    ("evaluation", "aggregates_to_csv", None, None),
)


def _guarded(fallback, fn, *args):
    """Run a counter or task-id function.  One that no longer fits the
    traced function's arguments yields ``fallback`` instead of breaking
    the sweep."""
    try:
        return fn(*args)
    except (KeyError, AttributeError, TypeError, ValueError):
        return fallback


def _package_modules(package: str) -> dict:
    pkg = importlib.import_module(package)
    mods = {package: pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            mods[f"{package}.{info.name}"] = importlib.import_module(f"{package}.{info.name}")
    return mods


def _lookup(mods: dict, package: str, module: str, qualname: str):
    """(owner, attribute, object) for a target, or None if it is gone."""
    head, _, attr = qualname.rpartition(".")
    lookup_name = head or attr
    home = mods.get(f"{package}.{module}")
    found = getattr(home, lookup_name, None) if home is not None else None
    if found is None:
        candidates = {
            id(v): v
            for m in mods.values()
            for v in vars(m).values()
            if getattr(v, "__name__", None) == lookup_name
            and str(getattr(v, "__module__", "")).startswith(package)
        }
        if len(candidates) != 1:
            return None
        found = next(iter(candidates.values()))
    if not head:
        return None, attr, found
    if attr not in vars(found):
        return None
    return found, attr, vars(found)[attr]


class Tracer:
    def __init__(self, package: str = "mpdp"):
        self.package = package
        self.spans: list[_Span] = []
        self.missing: list[str] = []
        self._local = threading.local()

    def install(self) -> None:
        mods = _package_modules(self.package)
        for module, qualname, counter, task in TARGETS:
            name = f"{module}.{qualname}"
            hit = _lookup(mods, self.package, module, qualname)
            if hit is None:
                self.missing.append(name)
                continue
            owner, attr, original = hit
            if isinstance(counter, type):
                counter = counter()
            wrapper = self._wrap(name, original, counter, task)
            if owner is not None:
                setattr(owner, attr, wrapper)
                continue
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, name, fn, counter, task_of):
        signature = inspect.signature(fn)
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            bound = None
            if counter is not None or task_of is not None:
                bound = signature.bind(*args, **kwargs).arguments
            task = _guarded("unknown", task_of, bound) if task_of else (parent.task if parent else None)
            span = _Span(name, parent, task)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
                spans.append(span)
            if counter is not None:
                span.counts = _guarded({"counter_failed": 1}, counter, bound, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write spans as JSON lines, parents referenced by line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "self": (s.end - s.start) - s.child,
                            "parent": None if s.parent is None else index[id(s.parent)],
                            "task": s.task,
                            "counts": s.counts,
                            "error": s.error,
                        }
                    )
                    + "\n"
                )

"""In-memory span tracing for the benchmark's traced runs.

``Tracer.install`` replaces every public function of the traced fisherrao
modules with a timing wrapper, in every module that binds it: ``from .x
import y`` gives the calling module its own name ``y``, so patching only the
defining module would miss calls such as ``mlp.softmax``.  ``uninstall``
puts the originals back, so traced and untraced repetitions can alternate in
one process.

Spans are aggregated as they close rather than stored one by one: a sweep
makes hundreds of thousands of calls.  Per span name the tracer keeps the
call count, the inclusive time, and the time covered by direct child spans;
self time is the difference.  Time in spans with no parent is summed
separately, to report how much of the timed section the spans cover.
"""

import functools
import importlib
import os
import time
import types
from collections import defaultdict

PACKAGE = "fisherrao"
LAYERS = ("data", "noise", "simplex", "losses", "bounds", "mlp", "experiment", "cli")


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) > 0 else 1


def _train_before(tracer, args):
    return tracer.calls("mlp.batch_grad")


def _train_after(tracer, args, result, dt, steps_at_entry):
    # Only a train() that returns counts: a diverged one raises.
    tracer.counters["mlp.train.useful_steps"] += tracer.calls("mlp.batch_grad") - steps_at_entry


def _evaluate_after(tracer, args, result, dt, _):
    tracer.counters["mlp.evaluate.rows"] += len(args[1])


def _per_kind_after(name):
    def after(tracer, args, result, dt, _):
        key = f"{name}.{args[0].kind}"
        tracer.counters[key + ".rows"] += _rows(args[1])
        tracer.counters[key + ".ns"] += dt
    return after


def _result_rows_after(name):
    def after(tracer, args, result, dt, _):
        tracer.counters[name + ".rows"] += len(result) if isinstance(result, list) else _rows(result)
    return after


def _file_bytes_after(name):
    def after(tracer, args, result, dt, _):
        tracer.counters[name + ".bytes"] += os.path.getsize(args[0])
    return after


# Extra counters recorded at particular boundaries: name -> (before, after).
# ``after`` runs only when the call returns normally.
HOOKS = {
    "mlp.train": (_train_before, _train_after),
    "mlp.evaluate": (None, _evaluate_after),
    "losses.loss_values": (None, _per_kind_after("losses.loss_values")),
    "losses.score_gradients": (None, _per_kind_after("losses.score_gradients")),
    "simplex.softmax": (None, _result_rows_after("simplex.softmax")),
    "simplex.fisher_rao_distance": (None, _result_rows_after("simplex.fisher_rao_distance")),
    "simplex.hellinger_distance": (None, _result_rows_after("simplex.hellinger_distance")),
    "simplex.fisher_rao_from_hellinger": (None, _result_rows_after("simplex.fisher_rao_from_hellinger")),
    "bounds.alpha_sweep": (None, _result_rows_after("bounds.alpha_sweep")),
    "bounds.class_count_sweep": (None, _result_rows_after("bounds.class_count_sweep")),
    "experiment.write_per_epoch_csv": (None, _file_bytes_after("experiment.write_per_epoch_csv")),
}


class Tracer:
    """Aggregating span tracer over the fisherrao layer modules."""

    def __init__(self):
        # name -> [calls, inclusive ns, ns covered by direct children]
        self.stats: dict[str, list[int]] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.top_ns = 0
        self._stack: list[int] = []
        self._wrappers: dict[types.FunctionType, types.FunctionType] = {}
        self._patches: list[tuple[object, str, object]] = []

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def install(self) -> None:
        """Wrap every public layer function in every module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import_module, not attribute access: the package re-exports the
        # function ``bounds`` under the name of the module ``bounds``.
        modules = []
        for name in (PACKAGE, *(f"{PACKAGE}.{m}" for m in LAYERS)):
            try:
                modules.append(importlib.import_module(name))
            except ModuleNotFoundError:
                continue  # a layer a refactor removed; its metrics read as absent
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner, _, layer = obj.__module__.rpartition(".")
                if owner != PACKAGE or layer not in LAYERS:
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    wrapper = self._wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(tracer, args) if before is not None else None
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stat[0] += 1
                stat[1] += dt
                stat[2] += stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_ns += dt
            if after is not None:
                after(tracer, args, result, dt, token)
            return result

        return wrapper

"""Benchmark of the fisherrao package, run from the root of a source checkout.

    python3 perfbench/run.py --workload sweep_b20 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The program is imported from ``src/`` of the checkout; nothing is installed.
A run builds its inputs from ``--seed``, then repeats one workload
repetition (see ``workloads.py``) until ``--seconds`` would be exceeded,
checking every repetition's outputs.  It prints a readable report and, as
the last line, one JSON object: ``correct``, ``attempted`` and ``failed``
(operations: training cells, or checked calls on ``geometry_bulk``) and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(medians over repetitions); with ``--trace 1`` untraced and traced
repetitions alternate and the metrics are the per-layer ones from the traced
repetitions, plus the tracing overhead and span coverage.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_b20", "wide_b64", "geometry_bulk")
# Byte-identical outputs are checked against perfbench/reference.json only
# for this seed, and only on a machine with the recorded fingerprint.
REFERENCE_SEED = 0
SETUP_REPEATS = 7
LOSS_KINDS = ("mse", "mae", "ce", "qce", "fr", "hellinger")
# The program functions the per-layer metrics are taken from.  One that a
# refactor removes reads 0 and is listed as absent.
MEASURED_FUNCTIONS = (
    "mlp.batch_grad", "mlp.train", "mlp.evaluate", "mlp.init_model", "simplex.softmax",
    "simplex.fisher_rao_distance", "simplex.hellinger_distance", "simplex.fisher_rao_from_hellinger",
    "losses.loss_values", "losses.score_gradients", "data.generate_synthetic", "noise.corrupt_labels",
    "experiment.write_per_epoch_csv", "experiment.write_summary_csv", "experiment.read_lr_table",
    "bounds.alpha_sweep", "bounds.class_count_sweep",
)


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable core count, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        threads = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(threads)
    return nproc


def fingerprint(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "cpu_model": cpu.get("model name", platform.processor()),
        "cpu_id": "/".join(cpu.get(k, "?") for k in ("cpu family", "model", "stepping")),
        "cpu_flags_sha256": hashlib.sha256(cpu.get("flags", "").encode()).hexdigest()[:16],
    }


def fingerprint_key(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


def stored_reference(fp: dict, workload: str, seed: int) -> dict | None:
    if seed != REFERENCE_SEED:
        return None
    try:
        with open(HERE / "reference.json", encoding="utf-8") as f:
            table = json.load(f)
    except OSError:
        return None
    return table.get(fingerprint_key(fp), {}).get(workload)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import fisherrao; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def make_workload(name: str, seed: int, workdir: str, reference: dict | None):
    import workloads as wl

    if name == "sweep_b20":
        return wl.Training(name, seed, workdir, loss_kinds=("mse", "ce", "fr", "hellinger"), etas=(0.0, 0.5),
                           n_seeds=5, hidden=(80, 40, 20), batch_size=20, epochs=3, n_train=2000,
                           n_test=500, features=100, lr_grid=(0.03, 0.1, 0.3), reference=reference)
    if name == "wide_b64":
        return wl.Training(name, seed, workdir, loss_kinds=("ce", "fr"), etas=(0.0, 0.5), n_seeds=1,
                           hidden=(300, 100), batch_size=64, epochs=2, n_train=4800, n_test=1000,
                           features=784, lr=0.1, reference=reference)
    return wl.Geometry(seed)


def measure(workload, seconds: float, trace: bool):
    """Repeat until another repetition would overrun ``seconds``.

    With ``trace`` the repetitions alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    from spans import Tracer

    tracer = Tracer() if trace else None
    plain, traced, cycles = [], [], []
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        cycle_start = time.perf_counter()
        if use_tracer:
            tracer.install()
        try:
            rep = workload.run_once()
        finally:
            if use_tracer:
                tracer.uninstall()
        (traced if use_tracer else plain).append(rep)
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        if now - start + statistics.median(cycles) > seconds and (tracer is None or traced):
            return plain, traced, tracer


def layer_metrics(tracer, workload, plain, traced) -> dict:
    import workloads as wl

    stats, counters = tracer.stats, tracer.counters
    n = len(traced)

    def calls(name):
        return stats[name][0] if name in stats else 0

    def seconds(name, own=False):
        if name not in stats:
            return 0.0
        return (stats[name][1] - (stats[name][2] if own else 0)) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    steps = calls("mlp.batch_grad")
    m = {}
    m["mlp.batch_grad.calls"] = (steps / n, "count")
    m["mlp.batch_grad.us_per_call"] = (1e6 * ratio(seconds("mlp.batch_grad"), steps), "us")
    m["mlp.batch_grad.self_us_per_call"] = (1e6 * ratio(seconds("mlp.batch_grad", own=True), steps), "us")
    m["mlp.batch_grad.loss_layer_us_per_call"] = (
        1e6 * ratio(seconds("mlp.batch_grad") - seconds("mlp.batch_grad", own=True), steps), "us")
    m["mlp.train.self_us_per_step"] = (1e6 * ratio(seconds("mlp.train", own=True), steps), "us")
    m["mlp.step_us"] = (m["mlp.train.self_us_per_step"][0] + m["mlp.batch_grad.us_per_call"][0], "us")
    for name in ("simplex.softmax", "losses.loss_values", "losses.score_gradients"):
        m[f"{name}.calls"] = (calls(name) / n, "count")
        m[f"{name}.us_per_call"] = (1e6 * ratio(seconds(name), calls(name)), "us")
    m["mlp.evaluate.calls"] = (calls("mlp.evaluate") / n, "count")
    m["mlp.evaluate.rows"] = (counters["mlp.evaluate.rows"] / n, "count")
    for name in ("mlp.evaluate", "data.generate_synthetic", "noise.corrupt_labels", "mlp.init_model",
                 "experiment.write_per_epoch_csv", "experiment.write_summary_csv", "experiment.read_lr_table"):
        m[f"{name}.s"] = (seconds(name) / n, "s")
    m["experiment.write_per_epoch_csv.bytes"] = (counters["experiment.write_per_epoch_csv.bytes"] / n, "bytes")
    for name in ("bounds.alpha_sweep", "bounds.class_count_sweep", "simplex.softmax",
                 "simplex.fisher_rao_distance", "simplex.hellinger_distance",
                 "simplex.fisher_rao_from_hellinger"):
        m[f"{name}.rows_per_s"] = (ratio(counters[f"{name}.rows"], seconds(name)), "1/s")
    for name in ("losses.loss_values", "losses.score_gradients"):
        for kind in LOSS_KINDS:
            key = f"{name}.{kind}"
            m[f"{key}.rows_per_s"] = (ratio(counters[key + ".rows"], counters[key + ".ns"] / 1e9), "1/s")
    layer_sizes = getattr(workload, "layer_sizes", None)
    m["mlp.gemm_flops_per_step"] = (
        wl.gemm_flops_per_step(layer_sizes, workload.batch_size) if layer_sizes else 0, "flop")
    m["mlp.param_bytes"] = (wl.param_bytes(layer_sizes) if layer_sizes else 0, "bytes")
    m["experiment.useful_step_ratio"] = (ratio(counters["mlp.train.useful_steps"], steps), "ratio")
    traced_wall = sum(r.wall for r in traced)
    m["trace.overhead_frac"] = (
        statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain) - 1.0, "ratio")
    m["trace.coverage_frac"] = (ratio(tracer.top_ns / 1e9, traced_wall), "ratio")
    m["trace.absent_names"] = (len(absent_names(tracer)), "count")
    return m


def absent_names(tracer) -> list[str]:
    """Layer functions the metrics name that the program no longer defines."""
    return [name for name in MEASURED_FUNCTIONS if name not in tracer.stats]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    nproc = limit_blas_threads()
    if not (SRC / "fisherrao" / "__init__.py").is_file():
        print(f"error: {SRC / 'fisherrao'} not found; run from the root of a fisherrao checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fp = fingerprint(nproc)
    reference = stored_reference(fp, name, seed)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import_times = [import_seconds() for _ in range(SETUP_REPEATS)]
        fixture_times = []
        for _ in range(SETUP_REPEATS):
            workload = None  # release the previous inputs before building new ones
            start = time.perf_counter()
            workload = make_workload(name, seed, str(workdir), reference)
            fixture_times.append(time.perf_counter() - start)
        plain, traced, tracer = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    reps = plain + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    wall = statistics.median(r.wall for r in plain)
    e2e = {
        "setup_s": (statistics.median(import_times) + statistics.median(fixture_times), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (workload.items_per_rep / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    item_label = f"{workload.item_name}_per_s"
    print(f"fingerprint: {json.dumps(dict(fp, seed=seed), sort_keys=True)}")
    summary = (f"workload {name}: seed {seed}, {len(plain)} untraced + {len(traced)} traced repetitions, "
               f"{workload.items_per_rep} {workload.item_name} each")
    if hasattr(workload, "digests"):
        summary += "; stored digests " + ("checked" if reference else "absent for this fingerprint and seed")
    print(summary)
    print("  repetition walls (s): " + " ".join(f"{r.wall:.4g}" for r in plain)
          + (" | traced: " + " ".join(f"{r.wall:.4g}" for r in traced) if traced else ""))
    notes = sorted({r.note for r in reps if r.note})
    if notes:
        print("  " + "; ".join(notes))
    for key, (value, unit) in e2e.items():
        label = f"{key} ({item_label})" if key == "items_per_s" else key
        print(f"  {label:<42} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<42} {failed / attempted:>14.6g} ({failed}/{attempted} operations)")
    if getattr(workload, "digests", None):
        print("  digests: " + json.dumps(workload.digests, sort_keys=True))
    metrics = e2e
    if trace:
        metrics = layer_metrics(tracer, workload, plain, traced)
        absent = absent_names(tracer)
        if absent:
            print("  absent from the program: " + ", ".join(absent))
        for key, (value, unit) in metrics.items():
            print(f"  {key:<42} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so each reports its own peak memory."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"error: workload {name} exited {out.returncode}", file=sys.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

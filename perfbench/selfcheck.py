"""Self-test of the benchmark: corrupted outputs must be reported as failed.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; it takes under a minute and exits non-zero
on the first failed check.  It covers the output checks of every workload,
the tracer's patching, the metric names against BENCHMARK.json, and the
refusal to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys

import run

run.limit_blas_threads()
sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKDIR = run.ROOT / ".perfbench_work" / "selfcheck"


def tiny_training(name, **overrides):
    kwargs = dict(loss_kinds=("ce", "fr"), etas=(0.0, 0.5), n_seeds=2, hidden=(8,), batch_size=16,
                  epochs=2, n_train=200, n_test=50, features=10, lr_grid=(0.05, 0.1))
    kwargs.update(overrides)
    return wl.Training(name, 3, str(WORKDIR), **kwargs)


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok: {message}")


def check_training():
    w = tiny_training("tiny")
    cells = w.grid_cells + w.sweep_cells
    rep = w.run_once()
    expect(rep.failed == 0 and rep.attempted == cells, "a clean training repetition has no failed cell")
    expect(w.run_once().failed == 0, "a rerun matches the first repetition byte for byte")

    original = wl.cli.run

    def corrupting(argv):
        code = original(argv)
        if argv[0] == "train":
            with open(f"{w.out_dir}/runs.csv", "ab") as f:
                f.write(b"\n")
        return code

    wl.cli.run = corrupting
    try:
        rep = w.run_once()
    finally:
        wl.cli.run = original
    expect(rep.failed == w.sweep_cells, "a runs.csv that differs by one byte fails every sweep cell")

    reference = dict(w.expected, **{"summary.csv": "0" * 64})
    w2 = tiny_training("tiny_ref", reference=reference)
    expect(w2.run_once().failed == w2.sweep_cells, "a summary.csv that differs from the stored reference fails")

    diverging = tiny_training("diverging", lr_grid=(), lr=1e300)
    rep = diverging.run_once()
    expect(rep.failed == diverging.sweep_cells, "diverged cells and the non-zero exit count as failed")


def check_geometry():
    g = wl.Geometry(5, n_rows=2000)
    expect(g.run_once().failed == 0, "clean geometry pass has no failed call")

    def patched(module, attr, make):
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        try:
            return g.run_once().failed
        finally:
            setattr(module, attr, original)

    failed = patched(wl.simplex, "fisher_rao_distance", lambda f: lambda p, q: f(p, q) + 1e-9)
    expect(failed == 3, "a Fisher-Rao distance off by 1e-9 fails the three distance calls")

    def bad_alpha_sweep(f):
        def sweep(*args):
            rows = f(*args)
            row = next(r for r in rows if r["loss"] == "mse" and r["eta"] > 0)
            row["A"] = row["eta"] * (1 + 2**-52)
            return rows
        return sweep

    expect(patched(wl.bounds, "alpha_sweep", bad_alpha_sweep) == 1, "A_mse != eta fails the alpha sweep")

    def nudged_qce0(f):
        def values(spec, probs, labels):
            out = f(spec, probs, labels)
            return out + 2e-16 if spec.kind == "qce" and spec.q == 0.0 else out
        return values

    expect(patched(wl.losses, "loss_values", nudged_qce0) == 1, "qce:0 must equal mae bit for bit")


def check_tracer():
    mlp = sys.modules["fisherrao.mlp"]
    experiment = sys.modules["fisherrao.experiment"]
    originals = (mlp.softmax, experiment.train, experiment.corrupt_labels)
    tracer = spans.Tracer()
    tracer.install()
    try:
        expect(mlp.softmax is not originals[0] and experiment.train is not originals[1]
               and experiment.corrupt_labels is not originals[2],
               "names bound in calling modules are wrapped")
        expect(not run.absent_names(tracer), "every layer function the metrics name is traced")
    finally:
        tracer.uninstall()
    expect((mlp.softmax, experiment.train, experiment.corrupt_labels) == originals,
           "uninstall restores the original functions")

    saved = experiment.read_lr_table
    del experiment.read_lr_table
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        experiment.read_lr_table = saved
    expect(run.absent_names(tracer) == ["experiment.read_lr_table"],
           "a removed function is reported as absent, not as a crash")


def check_metric_names():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "geometry_bulk",
                              "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                             cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        names = {m["name"]: m["unit"] for m in bench[key]}
        expect({k: v["unit"] for k, v in result["metrics"].items()} == names,
               f"--trace {trace} reports exactly the {key} metrics of BENCHMARK.json")


def check_refuses_without_sources():
    bare = WORKDIR / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep_b20", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    expect(out.returncode != 0 and not out.stdout.strip(), "no result and a non-zero exit without src/")


def main():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    try:
        check_training()
        check_geometry()
        check_tracer()
        check_metric_names()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        if not any(WORKDIR.parent.iterdir()):
            WORKDIR.parent.rmdir()
    print("selfcheck passed")


if __name__ == "__main__":
    main()

"""Command-line interface.

Subcommands: bounds (Table-1 curve sweeps), train (multi-seed noise sweep),
grid-lr (learning-rate selection), distance (simplex distance queries),
gen-data (synthetic dataset to CSV), losses-table (h and |h'| on a grid).

Exit codes: 0 success; 2 usage/argument error, such as a loss or class count
listed twice; 3 data or file format error, or out of memory; 4 at least one
training run diverged (and nothing else failed).
"""

import argparse
import errno
import os
import sys
from collections import Counter

import numpy as np

from . import svgplot
from .bounds import SWEEP_COLUMNS, alpha_sweep, class_count_sweep
from .data import DataFormatError, SyntheticSpec, generate_synthetic, save_csv, write_rows
from .experiment import (
    ExperimentSpec,
    grid_search_lr,
    load_datasets,
    parse_config,
    run_id,
    run_sweep,
    summarize,
    write_lr_table_csv,
    write_per_epoch_csv,
    write_summary_csv,
)
from .losses import KINDS, LossSpec, _exact_g, h_prime_abs, loss_values
from .noise import alpha_to_eta
from .simplex import as_distribution, check_num_classes, fisher_rao_distance, fisher_rao_from_hellinger, hellinger_distance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _checked(flag: str, value, check):
    try:  # check(value), with a ValueError restated to name the flag and the value given
        return check(value)
    except ValueError as exc:
        raise ValueError(f"{flag} got {value!r}: {exc}") from None


def _parse_list(text: str, parse, flag: str, distinct: bool = True) -> list:
    items = [_checked(flag, tok.strip(), parse) for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"{flag} must list at least one value, got {text!r}")
    if distinct and (repeated := [item for item, count in Counter(items).items() if count > 1]):
        raise ValueError(f"{flag} lists {str(repeated[0])!r} more than once; give each entry once")
    return items


def _curve(label: str, rows, x: str, y: str) -> tuple[str, list, list]:
    """A line_plot series: the (row[x], row[y]) points of the rows where y was recorded."""
    points = [(row[x], row[y]) for row in rows if row[y] is not None]
    return label, [point[0] for point in points], [point[1] for point in points]


def _progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _refuse_blocked_dir(out_dir: str) -> None:
    """Raise NotADirectoryError, creating nothing, if the nearest existing path at or above out_dir is not a directory."""
    existing = out_dir
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), existing)


def cmd_bounds(args) -> int:
    specs = _parse_list(args.losses, LossSpec.parse, "--losses")
    if args.sweep == "alpha":  # each sweep checks its own flags only
        _checked("--K", args.K, check_num_classes)
        _checked("--alpha-max", args.alpha_max, lambda alpha: alpha_to_eta(alpha, args.K))
        if args.points < 1:
            raise ValueError(f"--points must be at least 1, got {args.points}")
        rows = alpha_sweep(specs, args.K, np.linspace(0.0, args.alpha_max, args.points))
    else:
        class_counts = _parse_list(args.K_grid, lambda k: check_num_classes(int(k)), "--K-grid")
        _checked("--alpha", args.alpha, lambda alpha: alpha_to_eta(alpha, class_counts[0]))
        rows = class_count_sweep(specs, args.alpha, class_counts)
    out = args.out or f"bounds_{args.sweep}.csv"
    write_rows(out, SWEEP_COLUMNS, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    if args.svg:
        x_label = "alpha" if args.sweep == "alpha" else "number of classes K"
        by_spec = {spec: [row for row in rows if (row["loss"], row["q"]) == (spec.kind, spec.q)] for spec in specs}
        for col, name in (("A", "upper bound A"), ("B", "lower bound B")):
            series = [_curve(str(spec), spec_rows, args.sweep, col) for spec, spec_rows in by_spec.items()]
            path = f"{os.path.splitext(out)[0]}_{col}.svg"
            svgplot.line_plot(path, series, title=f"{name} vs {x_label}", xlabel=x_label, ylabel=col)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    spec = parse_config(args.config)
    out_dir = args.out_dir if args.out_dir else spec.out_dir
    _refuse_blocked_dir(out_dir)
    train_ds, test_ds = load_datasets(spec)
    runs = run_sweep(train_ds, test_ds, spec, progress=_progress)
    os.makedirs(out_dir, exist_ok=True)
    runs_csv, summary_csv = os.path.join(out_dir, "runs.csv"), os.path.join(out_dir, "summary.csv")
    write_per_epoch_csv(runs_csv, runs)
    summary = summarize(runs)
    write_summary_csv(summary_csv, summary)
    print(f"wrote {runs_csv}\nwrote {summary_csv}")
    print(f"{'loss':<12} {'eta':>5} {'mean_test_acc':>14} {'std':>8} {'n':>3}")
    for row in summary:
        label = str(LossSpec(row["loss"], row["q"]))
        print(f"{label:<12} {_exact_g(row['eta']):>5} {row['mean_test_acc']:>14.4f} {row['std_test_acc']:>8.4f} "
              f"{row['n_seeds']:>3}")
    if args.svg:
        by_id = {run[0]["run_id"]: run for run in runs}
        for eta in spec.etas:
            series = [_curve(str(loss), by_id[run_id(loss, eta, spec.seeds[0])], "epoch", "test_acc")
                      for loss in spec.losses]
            path = os.path.join(out_dir, f"accuracy_eta{_exact_g(eta)}.svg")
            svgplot.line_plot(path, series, title=f"test accuracy, eta = {_exact_g(eta)} (seed {spec.seeds[0]})",
                              xlabel="epoch", ylabel="test accuracy")
            print(f"wrote {path}")
    n_diverged = sum(row["n_diverged"] for row in summary)
    if n_diverged:
        print(f"warning: {n_diverged} run(s) diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_grid_lr(args) -> int:
    spec = parse_config(args.config)
    out = args.out if args.out else os.path.join(spec.out_dir, "lr_selection.csv")
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    _refuse_blocked_dir(os.path.dirname(out))
    train_ds, test_ds = load_datasets(spec)
    rows = grid_search_lr(train_ds, test_ds, spec, progress=_progress)
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    write_lr_table_csv(out, rows)
    print(f"wrote {out}")
    for row in rows:
        if row["selected"]:
            label = str(LossSpec(row["loss"], row["q"]))
            print(f"best lr for loss={label} eta={_exact_g(row['eta'])}: {_exact_g(row['lr'])} "
                  f"(final_test_acc={row['final_test_acc']:.4f})")
    if any(row["final_test_acc"] < 0 for row in rows):
        print("warning: some grid runs diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_distance(args) -> int:
    p = as_distribution(_parse_list(args.p, float, "--p", distinct=False), name="--p")
    q = as_distribution(_parse_list(args.q, float, "--q", distinct=False), name="--q")
    if p.size != q.size:
        raise ValueError(f"--p and --q must have the same length, got {p.size} and {q.size}")
    d_h = float(hellinger_distance(p, q))
    print(f"d_fr          = {float(fisher_rao_distance(p, q)):.12g}")
    print(f"d_h           = {d_h:.12g}")
    print(f"4*asin(d_h/2) = {float(fisher_rao_from_hellinger(d_h)):.12g}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    spec = SyntheticSpec(args.n_train, args.n_test, args.features, args.classes,
                         args.class_sep, args.seed)
    train_ds, test_ds = generate_synthetic(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, ds in (("train.csv", train_ds), ("test.csv", test_ds)):
        path = os.path.join(args.out_dir, name)
        save_csv(ds, path)
        print(f"wrote {path} ({len(ds)} samples, {ds.num_features} features, {ds.num_classes} classes)")
    return EXIT_OK


def cmd_losses_table(args) -> int:
    specs = _parse_list(args.losses, LossSpec.parse, "--losses")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    grid = np.arange(1, args.points + 1, dtype=np.float64) / args.points  # (0, 1]
    probs = np.stack([grid, 1.0 - grid], axis=1)
    labels = np.zeros(grid.size, dtype=np.int64)
    rows = [(spec.kind, spec.q, t, h, h_prime) for spec in specs
            for t, h, h_prime in zip(grid, loss_values(spec, probs, labels), h_prime_abs(spec, grid))]
    write_rows(args.out, ("loss", "q", "p", "h", "h_prime_abs"), rows)
    print(f"wrote {args.out} ({len(specs)} losses x {grid.size} grid points)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherrao",
        description="Fisher-Rao and companion classification losses under uniform label noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="emit robustness-bound sweeps as CSV (optionally SVG)")
    p.add_argument("--sweep", choices=("alpha", "K"), required=True)
    p.add_argument("--losses", default="mse,mae,ce,qce:0.7,fr,hellinger",
                   help="comma list of %s; qce takes qce:<q>" % ",".join(KINDS))
    p.add_argument("--K", type=int, default=10, help="class count for the alpha sweep")
    p.add_argument("--alpha-max", type=float, default=0.99, help="largest alpha in the alpha sweep")
    p.add_argument("--points", type=int, default=100, help="alpha grid size")
    p.add_argument("--alpha", type=float, default=0.8, help="fixed alpha for the K sweep")
    p.add_argument("--K-grid", dest="K_grid",
                   default="2,3,4,5,6,7,8,9,10,20,50,100,200,500,1000,2000,5000,10000")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--svg", action="store_true", help="also render SVG plots next to the CSV")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("train", help="run a multi-seed (loss, eta) training sweep from a config file")
    p.add_argument("--config", required=True, help="key = value experiment config")
    p.add_argument("--out-dir", default=None, help="override the config's out_dir")
    p.add_argument("--svg", action="store_true", help="render per-eta test-accuracy curves")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-lr", help="grid-search the learning rate per (loss, eta)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output CSV (default <out_dir>/lr_selection.csv)")
    p.set_defaults(func=cmd_grid_lr)

    p = sub.add_parser("distance", help="Fisher-Rao and Hellinger distance between two distributions")
    p.add_argument("--p", required=True, help="comma-separated probabilities")
    p.add_argument("--q", required=True, help="comma-separated probabilities")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset and save train/test CSVs")
    p.add_argument("--n-train", type=int, default=ExperimentSpec.n_train)
    p.add_argument("--n-test", type=int, default=ExperimentSpec.n_test)
    p.add_argument("--features", type=int, default=ExperimentSpec.features)
    p.add_argument("--classes", type=int, default=ExperimentSpec.classes)
    p.add_argument("--class-sep", type=float, default=ExperimentSpec.class_sep)
    p.add_argument("--seed", type=int, default=ExperimentSpec.data_seed)
    p.add_argument("--out-dir", default="data")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("losses-table", help="tabulate h(p_y) and |h'(p_y)| on a grid")
    p.add_argument("--losses", default="mae,ce,qce:0.5,qce:0.7,fr,hellinger")
    p.add_argument("--points", type=int, default=100, help="grid size over (0, 1]")
    p.add_argument("--out", default="losses_table.csv")
    p.set_defaults(func=cmd_losses_table)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, OSError, MemoryError) as exc:  # numpy's MemoryError names the shape and size
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

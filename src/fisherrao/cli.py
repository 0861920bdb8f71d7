"""Command-line interface.

Subcommands: bounds (Table-1 curve sweeps), train (multi-seed noise sweep),
grid-lr (learning-rate selection), distance (simplex distance queries),
gen-data (synthetic dataset to CSV), losses-table (h and |h'| on a grid).

Exit codes: 0 success; 2 usage/argument error; 3 data or file format error;
4 at least one training run diverged (and nothing else failed).
"""

import argparse
import os
import sys

import numpy as np

from . import svgplot
from .bounds import SWEEP_COLUMNS, alpha_sweep, class_count_sweep
from .data import DataFormatError, SyntheticSpec, generate_synthetic, save_csv, write_rows
from .experiment import (
    grid_search_lr,
    load_datasets,
    parse_config,
    run_experiment,
    run_id,
    write_lr_table_csv,
)
from .losses import KINDS, LossSpec, _exact_g, h_prime_abs, loss_values
from .simplex import as_distribution, fisher_rao_distance, fisher_rao_from_hellinger, hellinger_distance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _parse_list(text: str, parse, flag: str) -> list:
    items = [parse(tok) for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"{flag} must list at least one value, got {text!r}")
    return items


def _progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def cmd_bounds(args) -> int:
    specs = _parse_list(args.losses, LossSpec.parse, "--losses")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    if args.sweep == "alpha":
        alphas = np.linspace(0.0, args.alpha_max, args.points)
        rows = alpha_sweep(specs, args.K, alphas)
        x_key, x_label = "alpha", "alpha"
        default_out = "bounds_alpha.csv"
    else:
        ks = _parse_list(args.K_grid, int, "--K-grid")
        rows = class_count_sweep(specs, args.alpha, ks)
        x_key, x_label = "K", "number of classes K"
        default_out = "bounds_K.csv"
    out = args.out if args.out else default_out
    write_rows(out, SWEEP_COLUMNS, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    if args.svg:
        stem = os.path.splitext(out)[0]
        for col, name in (("A", "upper bound A"), ("B", "lower bound B")):
            series = []
            for spec in specs:
                label = str(spec)
                pts = [(r[x_key], r[col]) for r in rows if r["loss"] == spec.kind and r["q"] == spec.q]
                series.append((label, [p[0] for p in pts], [p[1] for p in pts]))
            path = f"{stem}_{col}.svg"
            svgplot.line_plot(path, series, title=f"{name} vs {x_label}", xlabel=x_label, ylabel=col)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_train(args) -> int:
    spec = parse_config(args.config)
    out_dir = args.out_dir if args.out_dir else spec.out_dir
    runs, summary = run_experiment(spec, out_dir=out_dir, progress=_progress)
    print(f"wrote {os.path.join(out_dir, 'runs.csv')}")
    print(f"wrote {os.path.join(out_dir, 'summary.csv')}")
    print(f"{'loss':<12} {'eta':>5} {'mean_test_acc':>14} {'std':>8} {'n':>3}")
    for row in summary:
        label = str(LossSpec(row["loss"], row["q"]))
        print(f"{label:<12} {_exact_g(row['eta']):>5} {row['mean_test_acc']:>14.4f} {row['std_test_acc']:>8.4f} "
              f"{row['n_seeds']:>3}")
    if args.svg:
        by_id = {run[0]["run_id"]: run for run in runs}
        for eta in spec.etas:
            series = []
            for loss in spec.losses:
                pts = [(row["epoch"], row["test_acc"]) for row in by_id[run_id(loss, eta, spec.seeds[0])]
                       if row["test_acc"] is not None]
                series.append((str(loss), [p[0] for p in pts], [p[1] for p in pts]))
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
    train_ds, test_ds = load_datasets(spec)
    rows = grid_search_lr(train_ds, test_ds, spec, progress=_progress)
    out = args.out if args.out else os.path.join(spec.out_dir, "lr_selection.csv")
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
    p = as_distribution(_parse_list(args.p, float, "--p"), name="--p")
    q = as_distribution(_parse_list(args.q, float, "--q"), name="--q")
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
    rows = []
    for spec in specs:
        h = loss_values(spec, probs, labels)
        rows.extend((spec.kind, spec.q, t, hv, hpv) for t, hv, hpv in zip(grid, h, h_prime_abs(spec, grid)))
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
    p.add_argument("--n-train", type=int, default=8000)
    p.add_argument("--n-test", type=int, default=2000)
    p.add_argument("--features", type=int, default=100)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--class-sep", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
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
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

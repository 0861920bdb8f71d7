"""Robustness bounds A(K, eta) and B(K, eta) under uniform label noise.

Prints the bound table for a few class counts and noise rates, then writes
two SVG figures: A as a function of the normalized noise rate
alpha = eta K/(K-1) at fixed K, and A as a function of K at fixed alpha.
The ordering that matters in practice: MAE is exactly noise-tolerant
(A = B = 0), Fisher-Rao / Hellinger / q-CE degrade gracefully, MSE has
A = eta exactly, and CE admits no finite bound at all.

Figures land in demos/output/.
"""

from pathlib import Path

import numpy as np

from fisherrao import CE, FR, HELLINGER, MAE, MSE, bounds, qce
from fisherrao.bounds import alpha_sweep, class_count_sweep
from fisherrao.svgplot import line_plot

LOSSES = [MAE, MSE, FR, HELLINGER, qce(0.7), CE]
OUT = Path(__file__).resolve().parent / "output"


def fmt(v):
    if v == np.inf:
        return "    +inf"
    if v == -np.inf:
        return "    -inf"
    return f"{v + 0.0:8.4f}"  # + 0.0 folds -0.0 into 0.0


def main():
    OUT.mkdir(exist_ok=True)

    print("Bounds at a fixed fraction alpha = 0.5 of the tolerable noise")
    print("(eta = 0.5 (K-1)/K, i.e. half-way to the regime boundary)")
    print()
    header = f"{'K':>5} {'eta':>6} " + " ".join(f"{str(s):>10}" for s in LOSSES)
    for which in ("A", "B"):
        print(f"{which}(K, eta):")
        print(header)
        for k in (2, 10, 100):
            eta = 0.5 * (k - 1) / k
            row = [bounds(s, k, eta) for s in LOSSES]
            vals = " ".join(f"{fmt(getattr(r, which)):>10}" for r in row)
            print(f"{k:>5} {eta:>6.3f} {vals}")
        print()

    print("MAE's zero width means label noise cannot move its minimizer;")
    print("CE's unbounded loss sum means no such guarantee exists at any eta > 0.")
    print()

    # the bounds only exist below the regime boundary eta < (K-1)/K
    try:
        bounds(FR, 2, 0.5)
    except ValueError as e:
        print(f"outside the regime: bounds(fr, K=2, eta=0.5) raises ValueError: {e}")
    print()

    # First figure: A vs alpha at K = 10.  CE is excluded: its A is +inf at
    # every alpha > 0, so there is nothing finite to draw.
    alphas = np.linspace(0.0, 0.95, 96)
    rows = alpha_sweep([s for s in LOSSES if s.kind != "ce"], 10, alphas)
    series = []
    for spec in LOSSES:
        if spec.kind == "ce":
            continue
        pts = [(r["alpha"], r["A"]) for r in rows if r["loss"] == spec.kind and r["q"] == spec.q]
        series.append((str(spec), [p[0] for p in pts], [p[1] for p in pts]))
    path = OUT / "bound_A_vs_alpha_K10.svg"
    line_plot(path, series, title="A(K=10, eta) vs alpha = eta K/(K-1)",
              xlabel="alpha", ylabel="A")
    print(f"wrote {path}")

    # Second figure: A vs K at alpha = 0.8 (log-spaced K).  MSE tends to the
    # constant alpha from below; FR peaks near K = 4 and then decays like
    # the other subpolynomial-width losses.
    counts = sorted({int(k) for k in np.logspace(np.log10(2), 4, 40)})
    rows = class_count_sweep([s for s in LOSSES if s.kind != "ce"], 0.8, counts)
    series = []
    for spec in LOSSES:
        if spec.kind == "ce":
            continue
        pts = [(np.log10(r["K"]), r["A"]) for r in rows if r["loss"] == spec.kind and r["q"] == spec.q]
        series.append((str(spec), [p[0] for p in pts], [p[1] for p in pts]))
    path = OUT / "bound_A_vs_K_alpha08.svg"
    line_plot(path, series, title="A(K, eta) vs K at alpha = 0.8",
              xlabel="log10 K", ylabel="A")
    print(f"wrote {path}")

    a_fr = {k: bounds(FR, k, 0.8 * (k - 1) / k).A for k in (2, 3, 4, 5, 6, 100, 10000)}
    peak = max(a_fr, key=a_fr.get)
    print(f"A_fr along alpha = 0.8: peak at K = {peak} "
          f"({a_fr[peak]:.4f}); K=100 gives {a_fr[100]:.4f}, K=10000 gives {a_fr[10000]:.4f}")


if __name__ == "__main__":
    main()

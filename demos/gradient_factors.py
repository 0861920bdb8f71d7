"""How each loss scales its gradient with prediction confidence.

Five of the six losses depend on the prediction only through the true-class
probability t = p_y, so under softmax their score gradient factors as

    grad = |h'(t)| * t * (p - e_y)

a shared direction times a scalar that depends on the loss.  The scalar is
where the noise-robustness story lives: on a badly misclassified sample
(t near 0 -- exactly where mislabeled points end up) cross-entropy keeps the
factor pinned at 1, while the Fisher-Rao and Hellinger factors fall to 0.
Tables first, then FR against the q-CE loss of equal robustness: q* is found
so that qce(q*)'s loss-sum width, and so its bounds A and B at every eta,
equal FR's, and FR's factor is the larger on (t_c, 1).  Then an SVG of the
factor curves, then the MSE saturation corner case that motivates keeping an
eye on gradient norms at the vertices.
"""

from pathlib import Path

import numpy as np

from fisherrao import CE, CLAMP_EPS, FR, HELLINGER, MAE, MSE, h_prime_abs, loss_value, qce, score_gradients
from fisherrao.losses import gradient_weight, loss_sum_range_width
from fisherrao.svgplot import line_plot

H_FORM = [MAE, HELLINGER, FR, CE, qce(0.7)]
OUT = Path(__file__).resolve().parent / "output"
K = 10


def bisect(below, lo, hi):
    """The float where below(x) turns from True to False on [lo, hi], to the last ulp."""
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return lo


def equal_width_q(k):
    """q* in (0, 1) where qce(q*)'s loss-sum width equals FR's (the width grows with q)."""
    target = loss_sum_range_width(FR, k)
    return bisect(lambda q: loss_sum_range_width(qce(q), k) < target, 0.0, 1.0)


def table(title, fn):
    ts = np.array([0.001, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999])
    print(title)
    print(f"{'t':>10} " + " ".join(f"{s.label:>10}" for s in H_FORM))
    for t in ts:
        print(f"{t:>10.3f} " + " ".join(f"{fn(s, t):>10.4f}" for s in H_FORM))
    print()


def main():
    OUT.mkdir(exist_ok=True)

    # h(t) itself: the pointwise chain mae <= hellinger <= fr <= ce
    table("loss value h(t)  (two-class prediction [t, 1-t], true label first)",
          lambda s, t: loss_value(s, np.array([t, 1.0 - t]), 0))

    table("gradient magnitude |h'(t)|",
          lambda s, t: float(h_prime_abs(s, t)))

    # the factor that actually multiplies (p - e_y) in the score gradient
    table("score-gradient factor |h'(t)| * t",
          lambda s, t: float(h_prime_abs(s, t) * t))

    print("ce holds the factor at 1 everywhere: a mislabeled sample (t ~ 0)")
    print("pulls as hard as a fresh one.  fr and hellinger shrink the factor")
    print("like sqrt(t), mae like t: wrong-looking labels get quiet updates.")
    print()

    # equal robustness: qce(q*) has FR's A and B at every eta, and learns slower above t_c
    q_star = equal_width_q(K)
    t_c = bisect(lambda t: gradient_weight(FR, t) < gradient_weight(qce(q_star), t), CLAMP_EPS, 0.5)
    print(f"K = {K}: qce(q*) with q* = {q_star:.4f} has fr's loss-sum width, so fr's bounds A and B at every eta.")
    print(f"at equal A and B, fr's factor is the larger on (t_c, 1), t_c = {t_c:.2g}, and the smaller below t_c:")
    for t in (1e-3, t_c, 0.1, 0.5, 0.9):
        print(f"  t = {t:<8.2g} fr {float(gradient_weight(FR, t)):.4f}   qce(q*) {float(gradient_weight(qce(q_star), t)):.4f}")
    print()

    ts = np.linspace(1e-4, 1.0, 400)
    labeled = [(s.label, s) for s in H_FORM] + [(f"qce:q*={q_star:.4f}", qce(q_star))]
    series = [(label, list(ts), list(h_prime_abs(s, ts) * ts)) for label, s in labeled]
    path = OUT / "gradient_factor_vs_t.svg"
    line_plot(path, series, title="score-gradient factor |h'(t)| t",
              xlabel="true-class probability t", ylabel="factor")
    print(f"wrote {path}")
    print()

    # MSE is the odd one out: its gradient needs the whole distribution, and
    # it vanishes at EVERY vertex of the simplex -- including the wrong ones.
    # A confidently wrong softmax therefore stops learning under MSE.
    print("gradient norms at a confidently wrong prediction (K = 3, true label 0):")
    print(f"{'p_wrong':>10} {'mse':>12} {'ce':>12} {'fr':>12}")
    for conf in (0.9, 0.999, 1.0 - 1e-9):
        p = np.array([(1.0 - conf) / 2.0, conf, (1.0 - conf) / 2.0])
        labels = np.array([0])
        norms = [float(np.linalg.norm(score_gradients(s, p[None, :], labels)))
                 for s in (MSE, CE, FR)]
        print(f"{conf:>10.9f} {norms[0]:>12.3e} {norms[1]:>12.3e} {norms[2]:>12.3e}")
    print()
    print("mse's norm collapses with the entropy of p; ce's stays ~sqrt(2).")
    print("fr sits in between: small but nonzero, shrinking as t -> 0.")


if __name__ == "__main__":
    main()

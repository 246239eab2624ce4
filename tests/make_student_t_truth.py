"""Write tests/fixtures/student_t_truth.json: the two-sided Student t tail
P(|T| >= t) and the two-sided quantiles on a grid, each from two
independent mpmath evaluations at 45 digits.

    python tests/make_student_t_truth.py

Takes a few minutes. Tail probabilities, with x = nu / (nu + t^2) and
a = nu / 2, p = I_x(a, 1/2):

- "betainc": x^a / (a B(a, 1/2)) 2F1(a, 1/2; a + 1; x), the hypergeometric
  form mpmath.betainc uses, with a larger term budget so that it also
  converges for a up to 5e5;
- "quad": tanh-sinh quadrature of the beta density after u = x e^(-s/a),
  p = x^a / (a B(a, 1/2)) * integral_0^inf e^(-s) (1 - x e^(-s/a))^(-1/2) ds,
  where 1 - x e^(-s/a) = (1 - x) - x expm1(-s/a) is summed without
  cancellation, and the prefactor is formed from log-gammas.

Points whose tail lies far below the smallest double (the bound
p <= x^a (1 - x)^(-1/2) / (a B(a, 1/2)) under 1e-330) are listed apart
with that bound. Quantiles solve "betainc" = 1 - level by mpmath.findroot
(secant, started at scipy's quantile); "quad" is then evaluated at the
root. The test counts a point only where the two evaluations agree to
1e-20 relative.
"""

import json
import re
from pathlib import Path

import mpmath

DPS = 45
NUS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 17, 20, 25, 30, 40, 50, 60, 80,
       100, 150, 200, 299, 300, 500, 1000, 2000, 5000, 9800, 10000, 20000, 50000,
       100000, 170000, 200000, 500000, 1000000)
TS = tuple(sorted({10 ** (k / 4) for k in range(-32, 10)} | {
    0.3, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 1.5, 2.0, 2.2405, 3.0, 4.0, 5.0, 7.0,
    10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 100.0, 200.0}))
LEVELS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999)
OUT = Path(__file__).resolve().parent / "fixtures" / "student_t_truth.json"


def _parts(t, nu):
    t, nu = mpmath.mpf(t), mpmath.mpf(nu)
    s = nu + t * t
    return nu / 2, nu / s, t * t / s


def betainc_tail(t, nu):
    a, x, _ = _parts(t, nu)
    half = mpmath.mpf(1) / 2
    series = mpmath.hyp2f1(a, half, a + 1, x, maxterms=10**7, maxprec=10**6)
    return x**a / (a * mpmath.beta(a, half)) * series


def quad_tail(t, nu):
    a, x, y = _parts(t, nu)
    half = mpmath.mpf(1) / 2
    log_beta = mpmath.loggamma(a) + mpmath.loggamma(half) - mpmath.loggamma(a + half)
    edge = a * y  # the integrand's scale near s = 0
    cuts = [0] + [edge * 10**j for j in range(0, 40, 4) if edge * 10**j < 1] + [1, 10, 100, mpmath.inf]
    integral = mpmath.quad(lambda s: mpmath.exp(-s) / mpmath.sqrt(y - x * mpmath.expm1(-s / a)), cuts)
    return mpmath.exp(a * mpmath.log(x) - log_beta) / a * integral


def tail_bound(t, nu):
    a, x, y = _parts(t, nu)
    return x**a / (a * mpmath.beta(a, mpmath.mpf(1) / 2) * mpmath.sqrt(y))


def main():
    from scipy import stats

    mpmath.mp.dps = DPS
    pvalues, underflow, quantiles = [], [], []
    for nu in NUS:
        for t in TS:
            bound = tail_bound(t, nu)
            if bound < mpmath.mpf("1e-330"):
                underflow.append([nu, repr(t), mpmath.nstr(bound, 5)])
                continue
            pvalues.append([nu, repr(t), mpmath.nstr(betainc_tail(t, nu), 30),
                            mpmath.nstr(quad_tail(t, nu), 30)])
        for level in LEVELS:
            alpha = mpmath.mpf(1.0 - level)
            start = mpmath.mpf(float(stats.t.ppf(0.5 + level / 2, nu)))
            root = mpmath.findroot(lambda s: betainc_tail(s, nu) - alpha, start)
            quantiles.append([nu, level, mpmath.nstr(root, 30), mpmath.nstr(quad_tail(root, nu), 30)])
        print(f"nu={nu}: {len(pvalues)} tails, {len(underflow)} underflows", flush=True)
    doc = {
        "about": "Two-sided Student t tails and quantiles; see tests/make_student_t_truth.py",
        "dps": DPS,
        "pvalues": {"columns": ["nu", "t", "betainc", "quad"], "rows": pvalues},
        "underflow": {"columns": ["nu", "t", "bound"], "rows": underflow},
        "quantiles": {"columns": ["nu", "level", "quantile", "quad_tail_at_quantile"],
                      "rows": quantiles},
    }
    text = json.dumps(doc, indent=1)
    # one grid point per line
    text = re.sub(r"\[\n\s+([^\[\]]*?)\n\s+\]", lambda m: "[" + re.sub(r",\n\s+", ", ", m.group(1)) + "]", text)
    OUT.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

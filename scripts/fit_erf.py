#!/usr/bin/env python3
"""Fit the rational erf that `sdah.tensor._erf` evaluates.

erf(z) ~ z * P(z^2) / Q(z^2) on [0, 4.4], with P of degree 8, Q of
degree 5 and Q(0) = 1, fitted for the smallest largest relative error (the
form of W. J. Cody, Math. Comp. 23, 1969).  The fit is linearized least
squares on
Chebyshev nodes: each pass divides by the previous denominator
(Sanathanan-Koerner) and, after a warm-up, scales every node's weight by
its error (Lawson), which drives the fit toward the minimax one.
scipy's float64 erf is the reference.  Prints the coefficients, lowest
degree first, and the fit's largest relative error.

    python scripts/fit_erf.py
"""

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial.chebyshev import chebvander
from scipy.special import erf

END = 4.4
DEG_P, DEG_Q = 8, 5


def fit():
    """(max relative error, P, Q): monomial coefficients in s = z^2, lowest first."""
    nodes, passes, warmup = 3000, 200, 15
    z = END * (1 - np.cos(np.pi * np.arange(nodes) / (nodes - 1))) / 2
    z[0] = 1e-6
    s = z * z
    f = erf(z) / z
    t = 2 * s / END**2 - 1                                   # s mapped to [-1, 1]
    Bp = chebvander(t, DEG_P)
    Bq = (s / END**2)[:, None] * chebvander(t, DEG_Q - 1)    # Q = 1 + Bq @ b
    w = np.ones_like(z)
    q = np.ones_like(z)
    best = None
    for i in range(passes):
        A = np.hstack([Bp, -f[:, None] * Bq]) / (f * q)[:, None]
        sw = np.sqrt(w)
        sol = np.linalg.lstsq(A * sw[:, None], sw / q, rcond=None)[0]
        a, b = sol[:DEG_P + 1], sol[DEG_P + 1:]
        q = 1 + Bq @ b
        err = np.abs((Bp @ a / q - f) / f)
        if (q > 0).all() and (best is None or err.max() < best[0]):
            best = (err.max(), a, b)
        if i >= warmup:
            w = w * err
            w /= w.sum()
    e, a, b = best
    dom = [0.0, END**2]                                      # t's domain in s
    p = Chebyshev(a, domain=dom).convert(kind=Polynomial)
    q = 1 + Polynomial([0.0, END**-2]) * Chebyshev(b, domain=dom).convert(kind=Polynomial)
    return e, p.coef, q.coef


if __name__ == "__main__":
    e, p, q = fit()
    print(f"max relative error on [0, {END}]: {e:.3e}")
    print("P =", ", ".join(repr(float(c)) for c in p))
    print("Q =", ", ".join(repr(float(c)) for c in q))

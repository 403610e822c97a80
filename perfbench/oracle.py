"""Correctness checks: recorded reference values and a 50-digit mpmath oracle.

Float results are compared with a relative tolerance that grows with the
conditioning of the quantity.  A Lebesgue constant or an interpolant value
computed in double precision carries a relative error up to about
n * u * Lambda (the denominator of the barycentric quotient cancels by a
factor Lambda), so at f2 GRASPA n=201, where Lambda ~ 6.8e14, the last
digits depend on the summation order.  ``RTOL`` is the part of the tolerance
that does not scale: loose enough for a grid-free Lebesgue maximizer (which
moves a constant by about 1e-8 relative) and tight enough to catch a wrong
value.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

RTOL = 1e-6
U = 2.0 ** -53
COND_FACTOR = 4.0
DIGITS = 50


def rel_tol(cond: float) -> float:
    """Relative tolerance for a value whose conditioning is (n + 1) * Lambda."""
    return RTOL + COND_FACTOR * U * cond


def close(value: float, ref: float, cond: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= rel_tol(cond) * abs(ref)


def compare(label: str, values, refs, conds, errors: list) -> None:
    """Append one message per value that misses its reference."""
    values = np.asarray(values, dtype=float)
    refs = np.asarray(refs, dtype=float)
    if values.shape != refs.shape:
        errors.append(f"{label}: shape {values.shape}, reference {refs.shape}")
        return
    conds = np.broadcast_to(np.asarray(conds, dtype=float), refs.shape).ravel()
    values, refs = values.ravel(), refs.ravel()
    for i, (v, r, c) in enumerate(zip(values, refs, conds)):
        if not close(float(v), float(r), float(c)):
            errors.append(f"{label}[{i}]: {v!r} vs reference {r!r} "
                          f"(rel tol {rel_tol(c):.3g})")


class Barycentric:
    """50-digit barycentric sums over the float mapped nodes.

    ``exact`` weights are 1 / prod (s_i - s_j) in 50 digits (mpmath's exponent
    range makes the capacity scaling of the float path unnecessary); they
    define the true interpolating polynomial.  ``stored`` weights, when
    given, are the interpolant's own float weights taken exactly.
    """

    def __init__(self, mapped_nodes, values=None, weights=None):
        with mpmath.workdps(DIGITS):
            self.s = [mpmath.mpf(float(v)) for v in mapped_nodes]
            self.f = None if values is None else [mpmath.mpf(float(v)) for v in values]
            self.exact = []
            for i, si in enumerate(self.s):
                prod = mpmath.mpf(1)
                for j, sj in enumerate(self.s):
                    if i != j:
                        prod *= si - sj
                self.exact.append(1 / prod)
            self.stored = None if weights is None else [mpmath.mpf(float(w))
                                                        for w in weights]

    def _basis(self, s, weights):
        """Basis values l_j(s) at one float abscissa, for the given weights."""
        x = mpmath.mpf(float(s))
        for j, sj in enumerate(self.s):
            if x == sj:
                return [mpmath.mpf(int(k == j)) for k in range(len(self.s))]
        t = [w / (x - sj) for w, sj in zip(weights, self.s)]
        total = mpmath.fsum(t)
        return [tj / total for tj in t]

    def lebesgue(self, s) -> float:
        with mpmath.workdps(DIGITS):
            return float(mpmath.fsum(abs(v) for v in self._basis(s, self.exact)))

    def _error_ratio(self, s, got, weights):
        """|got - p(s)| over Higham's forward-error bound for the second form.

        Higham (IMA J. Numer. Anal. 2004) bounds that error by
        (3n+4) u sum|l_j f_j| + (3n+2) u Lambda |p|, hence by
        (3n+4) u Lambda(x) (max|f| + |p(x)|).  The capacity scaling of the
        float weights adds one rounding per factor, so (4n+4) is used.
        """
        n = len(self.s) - 1
        ell = self._basis(s, weights)
        p = mpmath.fsum(lj * fj for lj, fj in zip(ell, self.f))
        lam = mpmath.fsum(abs(lj) for lj in ell)
        bound = (4 * n + 4) * U * lam * (max(abs(v) for v in self.f) + abs(p))
        err = abs(mpmath.mpf(float(got)) - p)
        if not mpmath.isfinite(err):
            return math.inf, p
        return (float(err / bound) if bound > 0 else (0.0 if err == 0 else math.inf)), p

    def check_values(self, s_points, got, errors: list, label: str) -> float:
        """Gate the float values against the quotient with the stored weights.

        Returns the largest error against the true polynomial (exact weights)
        in units of the same bound; above 1 means the stored weights
        themselves have lost digits.
        """
        worst = 0.0
        with mpmath.workdps(DIGITS):
            for s, g in zip(s_points, got):
                ratio, p = self._error_ratio(s, g, self.stored or self.exact)
                if not ratio <= 1.0:
                    errors.append(f"{label}: p(s={float(s)!r}) = {float(g)!r}, stored-"
                                  f"weight quotient {float(p)!r}, {ratio:.3g} x bound")
                worst = max(worst, self._error_ratio(s, g, self.exact)[0])
        return worst

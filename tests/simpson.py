"""Adaptive Simpson quadrature: an integrator independent of the Gauss-Legendre
rule the analytic engine uses, for cross-checking its integrals."""


def adaptive_simpson(func, a: float, b: float, tol: float = 1e-12, max_depth: int = 60) -> float:
    """Adaptive Simpson integration to absolute tolerance ``tol``."""

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a_, b_, fa, fm, fb, whole, tol_, depth):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = func(lm), func(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return recurse(a_, m, fa, flm, fm, left, tol_ / 2.0, depth + 1) + recurse(
            m, b_, fm, frm, fb, right, tol_ / 2.0, depth + 1
        )

    fa, fb = func(a), func(b)
    mid = 0.5 * (a + b)
    fm = func(mid)
    whole = simpson(fa, fm, fb, a, b)
    return float(recurse(a, b, fa, fm, fb, whole, tol, 0))

"""Floating-point verification of the ordered u-integrals.

E(k_0,...,k_m) = int_{0<=u_i<=u_0} prod_i u_i^{k_i} e^{-u_i} du integrates
the radial variables of the two-vertex graph with one heat-kernel edge and
m propagator edges.  The module is the only non-exact one in the package
and is quarantined from the symbolic kernel: its one float route,
adaptive quadrature, is cross-checked against an exact-rational oracle
built on the incomplete-gamma recursion

    int_0^u s^k e^{-s} ds = k! (1 - e^{-u} sum_{j<=k} u^j/j!).

Summed over permutations of which variable carries the upper bound, the
ordered integral reproduces prod_i k_i! exactly; the ratio against
prod k_i!/(m+1) is the constant m+1, independent of the exponents.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import integrate, special

__all__ = [
    "OrderedIntegralSpec",
    "ordered_integral",
    "oracle_ordered_integral",
    "residue_identity_report",
]

MAX_M = 4
MAX_K = 4


class OrderedIntegralSpec:
    """m bounded variables with exponents (k_0, ..., k_m); k_0 belongs to
    the unbounded variable u_0."""

    def __init__(self, exponents: Tuple[int, ...]):
        self.exponents, self.m = exponents, len(exponents) - 1
        if self.m < 0:
            raise ValueError("need at least the u_0 exponent")
        if any(k < 0 for k in exponents):
            raise ValueError("exponents must be nonnegative")
        if self.m > MAX_M or any(k > MAX_K for k in exponents):
            raise ValueError(f"budget exceeded: m <= {MAX_M}, k_i <= {MAX_K}")


def _lower_gamma(k: int, u: np.ndarray) -> np.ndarray:
    # int_0^u s^k e^{-s} ds, vectorized, via the regularized incomplete gamma
    return special.gammainc(k + 1, u) * math.factorial(k)


def ordered_integral(spec: OrderedIntegralSpec) -> Tuple[float, float]:
    """Float value of E(k_0,...,k_m) with an absolute-error estimate, by
    adaptive quadrature of the outer u_0-integral with the inner integrals
    in closed form."""
    k0, rest = spec.exponents[0], spec.exponents[1:]

    def integrand(u):
        val = u**k0 * math.exp(-u)
        for k in rest:
            val *= _lower_gamma(k, u)
        return val

    return integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200)


def _expanded_terms(spec: OrderedIntegralSpec) -> List[Tuple[Fraction, int, int]]:
    """E as a finite sum of coef * int u^a e^{-c u} du, exactly."""
    k0, rest = spec.exponents[0], spec.exponents[1:]
    terms: List[Tuple[Fraction, int, int]] = []
    # product over i of k_i! (1 - e^{-u} sum_{j<=k_i} u^j/j!)
    pieces: List[List[Tuple[Fraction, int, int]]] = []  # (coef, extra power, extra e^-u count)
    for k in rest:
        opts = [(Fraction(math.factorial(k)), 0, 0)]
        for j in range(k + 1):
            opts.append((-Fraction(math.factorial(k), math.factorial(j)), j, 1))
        pieces.append(opts)
    for combo in itertools.product(*pieces) if pieces else [()]:
        coef = Fraction(1)
        a = k0
        c = 1
        for cf, p, e in combo:
            coef *= cf
            a += p
            c += e
        terms.append((coef, a, c))
    return terms


def oracle_ordered_integral(spec: OrderedIntegralSpec) -> Fraction:
    """Exact rational value via the incomplete-gamma recursion expansion."""
    total = Fraction(0)
    for coef, a, c in _expanded_terms(spec):
        total += coef * Fraction(math.factorial(a), c ** (a + 1))
    return total


def residue_identity_report(m: int, ks: Sequence[int]) -> Dict[str, object]:
    """Permutation-summed ordered integral against prod k_i!/(m+1).

    S = sum_{sigma in S_{m+1}} (1/m!) E(k_sigma(0),...,k_sigma(m));
    RHS = prod k_i!/(m+1).  The ratio S/RHS is the constant m+1 for every
    exponent choice; the report carries quadrature and exact values.
    """
    ks = list(ks)
    if len(ks) != m + 1:
        raise ValueError(f"expected {m + 1} exponents for m = {m}")
    S_float = 0.0
    S_exact = Fraction(0)
    err = 0.0
    for perm in itertools.permutations(ks):
        spec = OrderedIntegralSpec(tuple(perm))
        v, e = ordered_integral(spec)
        S_float += v / math.factorial(m)
        err += e / math.factorial(m)
        S_exact += oracle_ordered_integral(spec) / math.factorial(m)
    rhs = Fraction(1, m + 1)
    for k in ks:
        rhs *= math.factorial(k)
    return {
        "m": m,
        "k": ks,
        "S_quadrature": S_float,
        "S_exact": S_exact,
        "rhs": rhs,
        "ratio_exact": S_exact / rhs,
        "ratio_float": S_float / float(rhs),
        "quadrature_error_estimate": err,
        "quadrature_vs_exact": abs(S_float - float(S_exact)),
    }

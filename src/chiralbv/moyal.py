"""Moyal algebra on the (z, t) Darboux pair and the flat-connection solver.

The algebra B is freely generated by an even generator bt (cw 1) and an odd
generator et (cw 1), each carrying z- and t-derivative multi-indices with
cw(Dz^m Dt^k x) = m - k + 1.  The star product deforms the Poisson bracket
{F,G} = dt(F) dz(G) - dz(F) dt(G); truncation by the t-derivative count T is
a two-sided ideal, so all identities hold exactly below a T-budget.

The solver produces the unique odd element J = eta-tilde + ... with
delta(J) + (1/2)[J,J]_star = 0, delta^{-1}(J) = 0, level by level in T.
It computes each T-level once, from the order-s star pieces of level pairs
(i, j, s) with i + j + s = k, keeping each level's derivative chains for the
whole solve; the residual at level k reuses the same pieces.  Relabelling
k1 <-> k2 gives B_s(G, F) = (-1)^{|F||G|+s} B_s(F, G) for the order-s piece,
the graded form of f *_h g = g *_{-h} f.  Every level is odd, so the pieces
of (i, j) and (j, i) cancel for even s and agree for odd s: the solver adds
the odd-s pieces of pairs i <= j only, twice off the diagonal.

``star``, the solver's levels and ``delta_inv`` sum in integers through
``algebra._IntSum``: each factor as numerators over the lcm of its
denominators, each piece's 1/(2^s k1! k2!) folded into one growing common
denominator, and one Fraction per output key.  ``delta_inv`` checks every
monomial's N-eigenvector property on the unit monomial (N is linear).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import (
    Derivation,
    DerivedGenerator,
    DiffPoly,
    Generator,
    System,
    TermKey,
    _add_scaled,
    _group_terms,
    _integral,
    _IntSum,
    _poly,
)

__all__ = [
    "make_b_system",
    "t_level",
    "split_t_levels",
    "star",
    "star_bracket",
    "delta_b",
    "delta_star",
    "delta_inv",
    "closed_form_j0",
    "reflection",
    "fedosov_solve",
    "FedosovSolution",
]


def make_b_system() -> System:
    return System(
        "moyal",
        [
            Generator("bt", 0, 0, 0, Fraction(1)),
            Generator("et", 0, 1, 1, Fraction(1)),
        ],
    )


def bt(system: System, dz: int = 0, dt: int = 0) -> DerivedGenerator:
    return system.gen("bt", 0, dz, dt)


def et(system: System, dz: int = 0, dt: int = 0) -> DerivedGenerator:
    return system.gen("et", 0, dz, dt)


def t_level(word) -> int:
    return sum(dg.dt for dg in word)


def split_t_levels(p: DiffPoly) -> Dict[int, DiffPoly]:
    return _group_terms(p, t_level)


Chain = Dict[Tuple[int, int], DiffPoly]  # (t-order, z-order) -> derivative of chain[(0, 0)]


def _deriv(chain: Chain, k_t: int, k_z: int) -> DiffPoly:
    """Dt^k_t Dz^k_z of ``chain[(0, 0)]``, memoised in ``chain``."""
    d = chain.get((k_t, k_z))
    if d is None:
        d = _deriv(chain, k_t, k_z - 1).dz() if k_z else _deriv(chain, k_t - 1, 0).dt()
        chain[(k_t, k_z)] = d
    return d


def _add_star_piece(acc: _IntSum, f: Chain, g: Chain, s: int, num: int, den: int) -> None:
    """acc += (num / den) * the order-s part of F*G, which raises the T-level
    by s, for integer chains f and g."""
    for k1 in range(s + 1):
        k2 = s - k1
        nums, scale = acc.target(0, den * 2**s * math.factorial(k1) * math.factorial(k2))
        _deriv(f, k1, k2)._mul_into(nums, _deriv(g, k2, k1), (-1) ** k2 * num * scale)


def star(F: DiffPoly, G: DiffPoly, tmax: int, strict: bool = True) -> DiffPoly:
    """Moyal product, exact through t-derivative count <= tmax.

    F * G = sum_{k1,k2} (-1)^{k2} / (2^{k1+k2} k1! k2!)
            (Dt^{k1} Dz^{k2} F) (Dt^{k2} Dz^{k1} G).

    When ``strict`` is set (the default), a budget below the input
    T-levels is an error; with strict=False such inputs contribute
    nothing below the budget and are skipped, which is exact for
    consumers that only read T-levels <= tmax.
    """
    (F_int, den_f), (G_int, den_g) = _integral(F._terms), _integral(G._terms)
    levels_f = split_t_levels(DiffPoly(F.system, F_int))
    levels_g = split_t_levels(DiffPoly(G.system, G_int))
    if strict and levels_f and levels_g and min(levels_f) + min(levels_g) > tmax:
        raise ValueError("tmax is below the T-levels already present")
    chains_f = {tf: {(0, 0): Fc} for tf, Fc in levels_f.items()}
    chains_g = {tg: {(0, 0): Gc} for tg, Gc in levels_g.items()}
    acc = _IntSum()
    for tf, f in chains_f.items():
        for tg, g in chains_g.items():
            # pairs with tf + tg > tmax only produce T-levels above tmax
            for s in range(tmax - tf - tg + 1):
                _add_star_piece(acc, f, g, s, 1, den_f * den_g)
    return acc.poly(F.system, 0)


def star_bracket(F: DiffPoly, G: DiffPoly, tmax: int, strict: bool = True) -> DiffPoly:
    """Graded star commutator F*G - (-1)^{p(F)p(G)} G*F.

    Parity-inhomogeneous arguments are split into even and odd parts and
    the bracket extended bilinearly.
    """
    acc: Dict[TermKey, Fraction] = {}
    for pf, Fp in _group_terms(F, F.system.word_parity).items():
        for pg, Gp in _group_terms(G, G.system.word_parity).items():
            _add_scaled(acc, star(Fp, Gp, tmax, strict=strict)._terms)
            _add_scaled(acc, star(Gp, Fp, tmax, strict=strict)._terms, -((-1) ** (pf * pg)))
    return _poly(F.system, acc)


def deg_cw(p: DiffPoly) -> Optional[Tuple[int, Fraction]]:
    """Common (cohomology degree, conformal weight) of all terms, else None."""
    out = None
    for (word, lam) in p._terms:
        g = p.system.word_grading(word, lam)
        cur = (g.deg, g.cw)
        if out is None:
            out = cur
        elif out != cur:
            return None
    return out


def delta_b(system: System) -> Derivation:
    """The differential: bt -> dz(et), et -> 0 (odd, commutes with Dz, Dt)."""
    return Derivation.from_base_rules(system, 1, {("bt", 0): system.monomial([et(system, dz=1)])})


def delta_star(system: System) -> Derivation:
    """Odd homotopy partner: Dz^{m+1} Dt^k et -> Dz^m Dt^k bt, Dt^k et -> 0."""

    def rule(dg: DerivedGenerator) -> DiffPoly:
        if dg.name == "et" and dg.dz >= 1:
            return system.monomial([DerivedGenerator("bt", 0, dg.dz - 1, dg.dt)])
        return system.zero()

    return Derivation(system, 1, rule)


def _n_eigenvalue(word) -> int:
    return sum(1 for dg in word if dg.name == "bt" or (dg.name == "et" and dg.dz >= 1))


def delta_inv(p: DiffPoly) -> DiffPoly:
    """Contracting homotopy: (1/m) delta_star on N-eigenvalue-m monomials.

    N = delta delta* + delta* delta is diagonal on monomials; the
    eigenvector property is verified for every monomial.
    """
    sys_ = p.system
    d = delta_b(sys_)
    ds = delta_star(sys_)
    acc = _IntSum()
    for key, c in p._terms.items():
        # N is linear and c != 0: check the unit monomial, in integers
        unit = {key: 1}
        ds_unit = ds._apply(unit)
        n_unit = d._apply(ds_unit)
        _add_scaled(n_unit, ds._apply(d._apply(unit)))
        n = _n_eigenvalue(key[0])
        if {k: v for k, v in n_unit.items() if v} != ({key: n} if n else {}):
            raise AssertionError(f"monomial is not an N-eigenvector: {key[0]}")
        if n:
            nums, scale = acc.target(0, c.denominator * n)
            _add_scaled(nums, ds_unit, c.numerator * scale)
    return acc.poly(sys_, 0)


def closed_form_j0(tmax: int, system: Optional[System] = None) -> DiffPoly:
    """eta-tilde + sum_{k>=1} (Dt^{k-1}/k!)(bt^k Dt(et)), through T <= tmax."""
    sys_ = system if system is not None else make_b_system()
    acc = dict(sys_.monomial([et(sys_)])._terms)
    for k in range(1, tmax + 1):
        term = sys_.monomial([bt(sys_)] * k + [et(sys_, dt=1)], coef=Fraction(1, math.factorial(k)))
        _add_scaled(acc, term.dt(k - 1)._terms)
    return _poly(sys_, acc)


def reflection(p: DiffPoly) -> DiffPoly:
    """R: Dz -> -Dz, i.e. each monomial times (-1)^{total dz count}."""
    terms = {}
    for (word, lam), c in p._terms.items():
        s = sum(dg.dz for dg in word)
        terms[(word, lam)] = c if s % 2 == 0 else -c
    return DiffPoly(p.system, terms)


class FedosovSolution:
    """Level-by-level solution of delta(J) + (1/2)[J,J]_star = 0."""

    def __init__(self, system: System, levels: List[DiffPoly], residual_zero: Dict[int, bool]):
        self.system = system
        self.levels = levels
        self.residual_zero = residual_zero

    @property
    def tmax(self) -> int:
        return len(self.levels) - 1

    def j(self) -> DiffPoly:
        acc: Dict[TermKey, Fraction] = {}
        for lv in self.levels:
            _add_scaled(acc, lv._terms)
        return _poly(self.system, acc)

    def mc_residual(self) -> DiffPoly:
        J = self.j()
        return delta_b(self.system)(J) + star_bracket(J, J, self.tmax).scale(Fraction(1, 2))


def fedosov_solve(tmax: int, system: Optional[System] = None) -> FedosovSolution:
    """Solve the flat-connection equation through T <= tmax.

    J_(0) = eta-tilde; J_(k) = delta^{-1}( -(J * J)|_k ), as J is odd and so
    (1/2)[J,J]_star = J * J, whose level k sums the order-s star pieces of the
    level pairs (i, j, s), i + j + s = k; those with i, j < k give J_(k).
    Every level is checked to be exactly delta-exact (the relevant second
    cohomology vanishes in conformal weight 2) and homogeneous of
    (deg, cw) = (1, 1), and the residual is checked from the same pieces.
    """
    if tmax < 0:
        raise ValueError("tmax must be >= 0")
    sys_ = system if system is not None else make_b_system()
    d = delta_b(sys_)
    jk = sys_.monomial([et(sys_)])  # J_(0)
    levels, chains, dens = [], [], []  # chains[k] holds J_(k) in integer numerators over dens[k]
    residual_zero: Dict[int, bool] = {}
    for k in range(tmax + 1):
        acc = _IntSum()  # -(J * J)|_k, so far without the pairs with J_(k)
        # by parity, (i, j) and (j, i) give twice the odd-s piece of (i, j)
        for i in range(k):
            for j in range(i, k - i):
                if (k - i - j) % 2:
                    _add_star_piece(acc, chains[i], chains[j], k - i - j, -2 if i < j else -1, dens[i] * dens[j])
        if k:
            rhs = acc.poly(sys_, 0)
            g = deg_cw(rhs)
            if not rhs.is_zero() and g != (2, Fraction(2)):
                raise AssertionError(f"bracket level {k} is not homogeneous of (deg,cw)=(2,2): {g}")
            jk = delta_inv(rhs)
            if d(jk) != rhs:
                raise AssertionError(f"delta-exactness check failed at level {k}")
            g = deg_cw(jk)
            if not jk.is_zero() and g != (1, Fraction(1)):
                raise AssertionError(f"level {k} is not homogeneous of (deg,cw)=(1,1): {g}")
        jk_int, den = _integral(jk._terms)
        levels.append(jk)
        chains.append({(0, 0): DiffPoly(sys_, jk_int)})
        dens.append(den)
        # the pairs with J_(k), (k, 0) and (0, k) at s = 0, cancel by parity
        nums, scale = acc.target(0, den)
        _add_scaled(nums, d._apply(jk_int), -scale)
        residual_zero[k] = not any(nums.values())
    return FedosovSolution(sys_, levels, residual_zero)

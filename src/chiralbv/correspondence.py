"""W-generators of W_{1+infinity} and the morphism Phi into chiral modes.

The bosonic generators W^(k) are normal-ordered polynomials in derivatives
of the weight-1 field b0.  Phi substitutes the background series

    bt  ->  sum_{k>=1} t^k/k!  b_k
    et  ->  sum_{k>=1} t^k/k!  eta_{k-1}

into an element J of the Moyal algebra, applies the shift operator
exp((1/2) Dz Dt), extracts t-residues and pairs the coefficient of t^k with
W^(k+1)/(k+1).  With the background series truncated at generator index
kmax, the image is exact on every output monomial whose generator-index
weight does not exceed the truncation, which is what all cross-checks use.

Index weight adds across products, the shift and W^(k) (a polynomial in
b0, of weight 0) keep it, and a substituted factor at t-degree d with
t-derivative order j weighs d + j >= 1.  So ``phi(..., wmax=w)`` builds
only the terms of weight <= w instead of filtering them out afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional

from .algebra import BudgetError, DerivedGenerator, DiffPoly, System, Word
from .vertex import ModeElement

__all__ = [
    "PHI_BRACKET_ORIENTATION",
    "w_generator",
    "BackgroundSubstitution",
    "substitute_background",
    "shift_exp",
    "shift_exp_t",
    "phi",
    "index_weight",
    "restrict_index_weight",
    "morphism_defect",
]

# Residue-orientation constant relating the Moyal commutator transport to the
# modes bracket: phi([J1,J2]_star) is compared against s * [phi(J1), phi(J2)]
# with s = -1.  The sign is fixed by the classical (single-contraction)
# sector; with the verbatim Borcherds assembly and standard Fock conventions
# the boson-fermion map k z^m d^{k-1} -> oint z^m W^(k) inverts the bracket.
PHI_BRACKET_ORIENTATION = -1


def _partitions(k: int) -> Iterator[Dict[int, int]]:
    """Multiplicity maps {part i: count k_i} with sum i*k_i = k, parts >= 1."""

    def rec(remaining: int, max_part: int) -> Iterator[Dict[int, int]]:
        if remaining == 0:
            yield {}
            return
        for part in range(min(remaining, max_part), 0, -1):
            for count in range(remaining // part, 0, -1):
                for rest in rec(remaining - part * count, part - 1):
                    out = dict(rest)
                    out[part] = count
                    yield out

    return rec(k, k)


def w_generator(k: int, system: System) -> DiffPoly:
    """W^(k) as a polynomial in Dz^j b0, with exact rational coefficients.

    W^(k) = sum over partitions sum_i i*k_i = k of
            (k!/prod_i k_i!) : prod_i ((1/i!) d^i phi)^{k_i} :
    under d^i phi = Dz^{i-1} b0.  Conformal weight k; W^(1) = b0 and
    W^(2) = :b0^2: + Dz b0.
    """
    if k < 1:
        raise ValueError("w_generator requires k >= 1")
    out = system.zero()
    for mult in _partitions(k):
        coef = Fraction(math.factorial(k))
        word: List[DerivedGenerator] = []
        for part, count in mult.items():
            coef /= math.factorial(count)
            coef /= math.factorial(part) ** count
            word.extend([system.gen("b", 0, dz=part - 1)] * count)
        out = out + system.monomial(word, coef=coef)
    return out


@dataclass(frozen=True)
class BackgroundSubstitution:
    """Background series truncated at generator index kmax (series start at t^1)."""

    kmax: int

    def factor_series(self, system: System, dg: DerivedGenerator) -> Dict[int, DiffPoly]:
        """t-degree -> vertex expression for one substituted Moyal factor."""
        out: Dict[int, DiffPoly] = {}
        j = dg.dt
        for k in range(max(j, 1), self.kmax + 1):
            coef = Fraction(1, math.factorial(k - j))
            if dg.name == "bt":
                gen = system.gen("b", k, dz=dg.dz)
            elif dg.name == "et":
                gen = system.gen("eta", k - 1, dz=dg.dz)
            else:
                raise KeyError(f"no background rule for generator {dg.name}")
            out[k - j] = system.monomial([gen], coef=coef)
        return out


TPoly = Dict[int, DiffPoly]  # t-degree -> vertex-side expression


def _tpoly_add(system: System, a: TPoly, b: TPoly) -> TPoly:
    out = dict(a)
    for d, p in b.items():
        out[d] = out.get(d, system.zero()) + p
    return {d: p for d, p in out.items() if not p.is_zero()}


def _tpoly_mul(system: System, a: TPoly, b: TPoly, dmax: Optional[int] = None) -> TPoly:
    """Product of t-polynomials, dropping t-degrees above ``dmax`` when set."""
    out: TPoly = {}
    for da, pa in a.items():
        for db, pb in b.items():
            d = da + db
            if dmax is not None and d > dmax:
                continue
            out[d] = out.get(d, system.zero()) + pa.mul(pb)
    return {d: p for d, p in out.items() if not p.is_zero()}


def substitute_background(
    J: DiffPoly,
    system: System,
    bg: BackgroundSubstitution,
    wmax: Optional[int] = None,
) -> TPoly:
    """Replace Moyal generators by their background t-series.

    The result is a polynomial in t with vertex-side coefficients; it is
    exact on all monomials involving only generators of index <= bg.kmax.
    With ``wmax`` set, only terms of index weight <= wmax are built: a
    monomial with total t-derivative order s yields weight d + s at
    t-degree d, and each of its factors weighs at least 1.
    """
    out: TPoly = {}
    for (word, lam), c in J._terms.items():
        dmax = None
        if wmax is not None:
            if len(word) > wmax:
                continue
            dmax = wmax - sum(dg.dt for dg in word)
        term: TPoly = {0: system.one(coef=c, lam=lam)}
        for dg in word:
            term = _tpoly_mul(system, term, bg.factor_series(system, dg), dmax)
            if not term:
                break
        out = _tpoly_add(system, out, term)
    return out


def shift_exp_t(tpoly: TPoly, system: System) -> TPoly:
    """Apply exp((1/2) Dz d/dt) to a t-polynomial; exact and finite."""
    out: TPoly = {}
    for d, p in tpoly.items():
        for n in range(d + 1):
            falling = Fraction(math.factorial(d), math.factorial(d - n))
            coef = falling / (Fraction(2) ** n * math.factorial(n))
            q = p.dz(n).scale(coef)
            if not q.is_zero():
                out[d - n] = out.get(d - n, system.zero()) + q
    return {d: p for d, p in out.items() if not p.is_zero()}


def shift_exp(J: DiffPoly, nmax: int) -> DiffPoly:
    """Truncated shift operator sum_{n<=nmax} (1/(2^n n!)) (Dz Dt)^n on B."""
    out = J.system.zero()
    cur = J
    for n in range(nmax + 1):
        if n:
            cur = cur.dz().dt()
        out = out + cur.scale(Fraction(1, 2**n * math.factorial(n)))
    return out


def phi(
    J: DiffPoly,
    system: System,
    bg: BackgroundSubstitution,
    kmax: Optional[int] = None,
    wmax: Optional[int] = None,
) -> ModeElement:
    """Phi(J) = sum_k (1/(k+1)) [ W^(k+1)(b0) * (t^k residue of shifted J) ] z^0.

    ``kmax`` bounds the W-sum; when omitted it is taken as the maximal
    t-degree present after substitution (which makes the sum exact).  A
    kmax below that degree raises BudgetError rather than truncating.
    ``wmax`` restricts the image to index weight <= wmax, equal term for
    term to ``restrict_index_weight(phi(J, ...).part(0), wmax)``; terms
    above the window are never built.
    """
    sub = substitute_background(J, system, bg, wmax)
    shifted = shift_exp_t(sub, system)
    needed = max(shifted, default=0)
    if kmax is None:
        kmax = needed
    elif needed > kmax:
        raise BudgetError(
            f"phi needs W-generators up to k={needed + 1}, but kmax={kmax} was given"
        )
    out = system.zero()
    for d, p in shifted.items():
        w = w_generator(d + 1, system)
        out = out + w.mul(p).scale(Fraction(1, d + 1))
    return ModeElement(system, {0: out})


def index_weight(word: Word) -> int:
    """Total descendant index: b_k counts k, eta_k counts k+1, b0 counts 0."""
    w = 0
    for dg in word:
        if dg.name == "b":
            w += dg.index
        elif dg.name == "eta":
            w += dg.index + 1
    return w


def restrict_index_weight(p: DiffPoly, wmax: int) -> DiffPoly:
    return p.filter(lambda word, lam: index_weight(word) <= wmax)


def morphism_defect(J1: DiffPoly, J2: DiffPoly, system: System, tbl, wmax: int) -> dict:
    """Normal form of phi([J1,J2]_star) - s*[phi(J1), phi(J2)] on the exact window.

    Both sides are exact on output monomials of descendant-index weight
    <= wmax when the star bracket is truncated at T <= wmax and the
    background series at generator index wmax (a T-level-T term only
    produces weight >= T, and b0-contractions preserve the weight).

    The returned report decomposes the defect into its dynamical part and
    the pure-background (central) part; a nonzero defect is expected to be
    purely central -- the W-transport cocycle on field-valued coefficients.
    """
    from .vertex import ModeElement, mode_normal_form, nth_product
    from .moyal import star_bracket

    bg = BackgroundSubstitution(kmax=wmax)
    lhs = phi(star_bracket(J1, J2, wmax, strict=False), system, bg, wmax=wmax).part(0)
    p1 = phi(J1, system, bg, wmax=wmax).part(0)
    p2 = phi(J2, system, bg, wmax=wmax).part(0)
    rhs = nth_product(p1, 0, p2, tbl).scale(Fraction(PHI_BRACKET_ORIENTATION))
    # the 0-th product of two window elements reaches weight > wmax
    diff = restrict_index_weight(lhs - rhs, wmax)
    nf = mode_normal_form(ModeElement(system, {0: diff}))
    defect = nf.part(0)
    central = defect.filter(lambda w, l: all(dg.name != "b" or dg.index > 0 for dg in w))
    return {
        "zero": nf.is_zero(),
        "defect": defect,
        "central_part": central,
        "dynamical_part": defect - central,
        "purely_central": (defect - central).is_zero(),
    }

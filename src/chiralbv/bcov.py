"""BCOV classical interaction and the exact cross-checks built on it.

The classical interaction is the genus-zero generating function of
psi-class intersection numbers <t^{k_1} ... t^{k_n}>_0 = (n-3; k_1..k_n)
(multinomial), expanded over descendant fields b_k (even) and a single
eta_l (odd) per monomial.  Cross-checks:

  * the dz-free part of the Moyal flat-connection solution, pushed through
    Phi, reproduces the classical interaction exactly (global scalar 1);
  * the stationary Hamiltonians oint W^(j)/j commute exactly;
  * equivariance (deg, cw, dim) = (1, 2, 0) and integrality (even total
    dz count, recovering the lam-power from the dilaton dimension).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence

from .algebra import (
    DerivedGenerator,
    DiffPoly,
    Scalar,
    System,
    _echelon,
    _enumerate_slice,
    _IntSum,
    _multisets,
    _project,
    _word_profile,
)
from .vertex import (
    ModeElement,
    delta_bcov,
    make_bcov,
    make_heisenberg,
    mode_bracket,
    mode_normal_form,
)
from .moyal import FedosovSolution, fedosov_solve
from .correspondence import (
    PHI_BRACKET_ORIENTATION,
    BackgroundSubstitution,
    _windowed_zero_product,
    background_only,
    index_weight,
    phi,
    w_generator,
)

__all__ = [
    "psi_coefficient",
    "bcov_classical",
    "verify_classical_limit",
    "ClassicalLimitReport",
    "stationary_commutator",
    "check_equivariant",
    "restore_lambda_powers",
]


def psi_coefficient(exponents: Sequence[int]) -> Scalar:
    """<t^{k_1} x ... x t^{k_n}>_0: the multinomial (n-3; k_1,...,k_n).

    Zero unless all k_i >= 0 and sum k_i = n - 3; requires n >= 3.
    """
    ks = list(exponents)
    n = len(ks)
    if n < 3:
        raise ValueError("psi-class correlators need at least 3 insertions")
    if any(k < 0 for k in ks) or sum(ks) != n - 3:
        return Scalar.of(0)
    coef = Fraction(math.factorial(n - 3))
    for k in ks:
        coef /= math.factorial(k)
    return Scalar.of(coef)


def bcov_classical(system: System, deg_max: int) -> DiffPoly:
    """The classical interaction <e^b (x) eta>_0 through polynomial degree deg_max.

    Monomial b_0^k b_{k_1}...b_{k_m} eta_l (k_i >= 1, n = k+m+1 slots >= 3)
    has coefficient psi(0^k, k_1..k_m, l) / (k! prod multiplicity!).
    """
    if deg_max < 3:
        raise ValueError("the classical interaction starts at degree 3")
    terms = []
    for n in range(3, deg_max + 1):
        for k in range(n):
            m = n - 1 - k
            # positive descendant indices k_1 <= ... <= k_m with sum <= n-3
            for total_pos in range(m, n - 2):
                l = (n - 3) - total_pos
                for kvec in _multisets(m, total_pos, 1):
                    if not system.has("eta", l) or any(not system.has("b", ki) for ki in kvec):
                        raise KeyError(
                            f"system truncation too small: needs b_{max(kvec, default=0)}, eta_{l}"
                        )
                    coef = psi_coefficient([0] * k + list(kvec) + [l]).coef
                    if coef == 0:
                        continue
                    coef /= math.factorial(k)
                    for _, grp in itertools.groupby(kvec):
                        coef /= math.factorial(len(list(grp)))
                    word = [system.gen("b", 0)] * k
                    word += [system.gen("b", ki) for ki in kvec]
                    word.append(system.gen("eta", l))
                    terms.append((word, Scalar.of(coef)))
    return system.poly(terms)


def check_equivariant(p: DiffPoly) -> bool:
    """True iff every term has (deg, cw, dim) = (1, 2, 0), lam counting dim -2."""
    for (word, lam) in p._terms:
        g = p.system.word_grading(word, lam)
        if (g.deg, g.cw, g.dim) != (1, Fraction(2), Fraction(0)):
            return False
    return True


def restore_lambda_powers(p: DiffPoly) -> DiffPoly:
    """Assign lam = (total dz)/2 per term, recovering the dilaton grading.

    Requires every term to carry an even total z-derivative count (the
    integrality property of the normal-formed interaction).
    """
    terms = {}
    for (word, lam), c in p._terms.items():
        dz = sum(dg.dz for dg in word)
        if dz % 2:
            raise ValueError(f"odd total dz count in term {word}")
        terms[(word, lam + dz // 2)] = c
    return DiffPoly(p.system, terms)


class ClassicalLimitReport(NamedTuple):
    tmax: int
    deg_max: int
    scalar: Optional[Fraction]
    difference: DiffPoly
    compared_terms: int

    @property
    def exact_match(self) -> bool:
        return self.difference.is_zero() and self.scalar is not None


def _classical_sector(p: DiffPoly, tmax: int, deg_max: int) -> DiffPoly:
    """Monomials where the comparison is exact: dz-free, degree <= deg_max,
    and either index weight <= tmax or free of descendant b_{>=1} fields
    (the latter receive contributions from the lowest level only)."""

    def keep(word, lam):
        if any(dg.dz for dg in word) or len(word) > deg_max:
            return False
        if index_weight(word) <= tmax:
            return True
        return all(dg.name != "b" or dg.index == 0 for dg in word)

    return p.filter(keep)


def verify_classical_limit(
    tmax: int,
    deg_max: int,
    solution: Optional[FedosovSolution] = None,
) -> ClassicalLimitReport:
    """Compare the dz-free part of Phi(J) against the classical interaction.

    The comparison runs over the sector where both sides are exact for the
    given budgets.  A single global scalar is fitted on the b_0-power
    family and reported; the expected value is 1.
    """
    sol = solution if solution is not None else fedosov_solve(tmax)
    kmax = max(tmax, deg_max - 2)
    system, _ = make_bcov(kmax)
    bg = BackgroundSubstitution(kmax=kmax)
    image = phi(sol.j(), system, bg).part(0)
    lhs = _classical_sector(image, tmax, deg_max)
    rhs = _classical_sector(bcov_classical(system, deg_max), tmax, deg_max)

    # fit the permitted global scalar on the reference family b_0^k eta_{k-2}
    scalar = None
    for (word, lam), c in sorted(rhs._terms.items(), key=lambda kv: len(kv[0][0])):
        if all(dg.name == "b" and dg.index == 0 for dg in word[:-1]):
            lc = lhs._terms.get((word, lam))
            if lc:
                scalar = lc / c
                break
    diff = lhs - rhs.scale(scalar) if scalar is not None else lhs - rhs
    return ClassicalLimitReport(tmax, deg_max, scalar, diff, rhs.num_terms())


def stationary_commutator(j: int, k: int) -> ModeElement:
    """Normal form of [oint W^(j)/j, oint W^(k)/k] in the Heisenberg system."""
    if j < 2 or k < 2:
        raise ValueError("stationary Hamiltonians start at W^(2)")
    system, tbl = make_heisenberg(0)
    Wj = w_generator(j, system).scale(Fraction(1, j))
    Wk = w_generator(k, system).scale(Fraction(1, k))
    br = mode_bracket(ModeElement.zero_mode(Wj), ModeElement.zero_mode(Wk), tbl)
    return mode_normal_form(br)


class QuantumMCReport(NamedTuple):
    tmax: int
    wmax: int
    raw_residual: DiffPoly
    residual_purely_central: bool
    counterterm: Optional[DiffPoly]
    repaired_residual: Optional[DiffPoly]

    @property
    def repaired_zero(self) -> bool:
        return self.repaired_residual is not None and self.repaired_residual.is_zero()


def _solve_central_counterterm(system: System, residual: DiffPoly) -> Optional[DiffPoly]:
    """Find background-only j with NF(delta oint j) = -residual, if it exists.

    Candidates follow the residual's terms in canonical order.  They first
    replace one dz-carrying eta_l factor of a residual term by the b_{l+1}
    preimage.  The rest of every slice that delta maps into a residual
    term's slice follows (the term's factors with one eta_l turned into
    b_{l+1}, one z-derivative fewer), each slice enumerated once, so the
    candidates span every preimage.  Their images are reduced in candidate
    order by `_echelon`; a candidate whose image is already spanned is
    dropped, and the residual split against the rest by `_project` gives
    the unique solution on them, in canonical term order.  Returns None
    when the residual is not delta-exact in the central sector.
    """
    delta = delta_bcov(system)

    def nf_terms(p: DiffPoly) -> Dict:
        return dict(mode_normal_form(ModeElement.zero_mode(p)).part(0)._terms)

    candidates: Dict = {}  # term keys in first-seen order
    slices: Dict = {}  # preimage slices (profile, total dz, lam); their words follow the above
    for word, sc in residual.terms():
        total_dz = sum(dg.dz for dg in word)
        for i, dg in enumerate(word):
            if dg.name != "eta" or not total_dz or not system.has("b", dg.index + 1):
                continue
            if dg.dz:
                cand = word[:i] + (DerivedGenerator("b", dg.index + 1, dg.dz - 1, 0),) + word[i + 1 :]
                candidates.update(dict.fromkeys(system.monomial(cand, lam=sc.lam)._terms))
            profile = _word_profile(word[:i] + (DerivedGenerator("b", dg.index + 1, 0, dg.dt),) + word[i + 1 :])
            slices[profile, total_dz - 1, sc.lam] = None
    for profile, dz, lam in slices:
        candidates.update(dict.fromkeys((w, lam) for w in _enumerate_slice(system, profile, dz)))
    if not candidates:
        return None if nf_terms(residual) else system.zero()

    images = {key: nf_terms(delta(DiffPoly(system, {key: Fraction(1)}))) for key in candidates}
    entries = _echelon(images, sorted({k for image in images.values() for k in image}))
    # residual + delta(x) is zero iff the residual splits with h = 0, and then x = -C
    acc = _IntSum()
    _project(acc, entries, nf_terms(residual), "h", "C")
    if any(acc.buckets.get("h", {}).values()):
        return None
    return DiffPoly(system, {(w, sc.lam): -sc.coef for w, sc in acc.poly(system, "C").terms()})


def bcov_mc_report(tmax: int, wmax: int, solution: Optional[FedosovSolution] = None) -> QuantumMCReport:
    """Maurer-Cartan residual of the Phi-image of the flat-connection solution.

    Computed on the weight window w <= wmax where all budgets are exact,
    with the transport orientation s = PHI_BRACKET_ORIENTATION.  I is built
    on the window, delta keeps index weight and the self-bracket is cut to
    it before the Wick expansion.  The raw residual is the central
    W-transport cocycle; it is delta-exact in the background sector, and
    the report carries the counterterm that repairs the interaction to an
    exact Maurer-Cartan element there.
    """
    sol = solution if solution is not None else fedosov_solve(tmax)
    system, tbl = make_bcov(max(wmax, 1))
    bg = BackgroundSubstitution(kmax=max(wmax, 1))
    delta = delta_bcov(system)
    I = phi(sol.j(), system, bg, wmax=wmax).part(0)
    raw = delta(I) + _windowed_zero_product(I, None, tbl, wmax).scale(Fraction(PHI_BRACKET_ORIENTATION, 2))
    raw_nf = mode_normal_form(ModeElement.zero_mode(raw)).part(0)
    purely_central = all(background_only(w) for (w, _) in raw_nf._terms)
    counterterm = _solve_central_counterterm(system, raw_nf) if purely_central else None
    repaired = None
    if counterterm is not None:
        # counterterms are central: they feed only through delta; a sum of
        # normal forms is a normal form
        repaired = raw_nf + mode_normal_form(ModeElement.zero_mode(delta(counterterm))).part(0)
    return QuantumMCReport(tmax, wmax, raw_nf, purely_central, counterterm, repaired)

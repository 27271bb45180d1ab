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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .algebra import DiffPoly, Scalar, System
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
    BackgroundSubstitution,
    index_weight,
    phi,
    restrict_index_weight,
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


def _positive_multisets(m: int, total: int) -> Iterator[Tuple[int, ...]]:
    """Weakly increasing m-tuples of positive integers with given sum."""
    if m == 0:
        if total == 0:
            yield ()
        return

    def rec(slots: int, tot: int, lo: int) -> Iterator[Tuple[int, ...]]:
        if slots == 0:
            if tot == 0:
                yield ()
            return
        for v in range(lo, tot - (slots - 1) + 1):
            for rest in rec(slots - 1, tot - v, v):
                yield (v,) + rest

    yield from rec(m, total, 1)


def bcov_classical(system: System, deg_max: int) -> DiffPoly:
    """The classical interaction <e^b (x) eta>_0 through polynomial degree deg_max.

    Monomial b_0^k b_{k_1}...b_{k_m} eta_l (k_i >= 1, n = k+m+1 slots >= 3)
    has coefficient psi(0^k, k_1..k_m, l) / (k! prod multiplicity!).
    """
    if deg_max < 3:
        raise ValueError("the classical interaction starts at degree 3")
    out = system.zero()
    for n in range(3, deg_max + 1):
        for k in range(n):
            m = n - 1 - k
            # positive descendant indices k_1 <= ... <= k_m with sum <= n-3
            for total_pos in range(m, n - 2):
                l = (n - 3) - total_pos
                for kvec in _positive_multisets(m, total_pos):
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
                    out = out + system.monomial(word, coef=coef)
    return out


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


@dataclass
class ClassicalLimitReport:
    tmax: int
    deg_max: int
    scalar: Optional[Fraction]
    difference: DiffPoly
    compared_terms: int

    @property
    def exact_match(self) -> bool:
        return self.difference.is_zero() and self.scalar is not None


def _dz_free(p: DiffPoly) -> DiffPoly:
    return p.filter(lambda w, l: all(dg.dz == 0 for dg in w))


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
    lhs = _classical_sector(_dz_free(image), tmax, deg_max)
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


@dataclass
class QuantumMCReport:
    tmax: int
    wmax: int
    raw_residual: DiffPoly
    residual_purely_central: bool
    counterterm: Optional[DiffPoly]
    repaired_residual: Optional[DiffPoly]

    @property
    def repaired_zero(self) -> bool:
        return self.repaired_residual is not None and self.repaired_residual.is_zero()


def _is_background_only(word) -> bool:
    return all(dg.name != "b" or dg.index > 0 for dg in word)


def _solve_central_counterterm(system: System, residual: DiffPoly) -> Optional[DiffPoly]:
    """Find background-only j with NF(delta oint j) = -residual, if it exists.

    Candidates replace one dz-carrying eta_l factor of a residual term by
    the b_{l+1} preimage; the resulting small linear system is solved
    exactly.  Returns None when the residual is not delta-exact in the
    central sector.
    """
    delta = delta_bcov(system)

    def nf_vec(p: DiffPoly) -> Dict:
        nf = mode_normal_form(ModeElement.zero_mode(p)).part(0)
        return dict(nf._terms)

    candidates = []
    seen = set()
    for (word, lam) in residual._terms:
        for i, dg in enumerate(word):
            if dg.name == "eta" and dg.dz >= 1 and system.has("b", dg.index + 1):
                from .algebra import DerivedGenerator

                repl = DerivedGenerator("b", dg.index + 1, dg.dz - 1, 0)
                cand = system.monomial(word[:i] + (repl,) + word[i + 1 :], lam=lam)
                for (cw, cl) in cand._terms:
                    if (cw, cl) not in seen:
                        seen.add((cw, cl))
                        candidates.append(system.monomial(list(cw), lam=cl))
    if not candidates:
        return None if not residual.is_zero() else system.zero()

    target = {k: -v for k, v in nf_vec(residual).items()}
    rows = [nf_vec(delta(c)) for c in candidates]
    # exact Gaussian elimination over the union of term keys
    keys = sorted({k for row in rows for k in row} | set(target),
                  key=lambda k: (str(k[0]), k[1]))
    mat = [[row.get(k, Fraction(0)) for k in keys] + [Fraction(0)] for row in rows]
    rhs = [target.get(k, Fraction(0)) for k in keys]
    # solve sum_i x_i * rows[i] = target  (transpose system)
    ncand = len(candidates)
    aug = [[mat[i][j] for i in range(ncand)] + [rhs[j]] for j in range(len(keys))]
    pivots = []
    r = 0
    for c in range(ncand):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        f = aug[r][c]
        aug[r] = [v / f for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                g = aug[i][c]
                aug[i] = [a - g * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][-1] != 0:
            return None  # inconsistent: residual not delta-exact here
    x = [Fraction(0)] * ncand
    for row_i, c in enumerate(pivots):
        x[c] = aug[row_i][-1]
    out = system.zero()
    for xi, cand in zip(x, candidates):
        if xi:
            out = out + cand.scale(xi)
    return out


def bcov_mc_report(tmax: int, wmax: int, solution: Optional[FedosovSolution] = None) -> QuantumMCReport:
    """Maurer-Cartan residual of the Phi-image of the flat-connection solution.

    Computed on the weight window w <= wmax where all budgets are exact,
    with the transport orientation s = PHI_BRACKET_ORIENTATION.  The raw
    residual is the central W-transport cocycle; it is delta-exact in the
    background sector, and the report carries the counterterm that
    repairs the interaction to an exact Maurer-Cartan element there.
    """
    from .correspondence import PHI_BRACKET_ORIENTATION
    from .vertex import nth_product

    sol = solution if solution is not None else fedosov_solve(tmax)
    system, tbl = make_bcov(max(wmax, 1))
    bg = BackgroundSubstitution(kmax=max(wmax, 1))
    delta = delta_bcov(system)
    I = phi(sol.j(), system, bg, wmax=wmax).part(0)
    br = nth_product(I, 0, I, tbl).scale(Fraction(PHI_BRACKET_ORIENTATION, 2))
    raw = restrict_index_weight(delta(I) + br, wmax)
    raw_nf = mode_normal_form(ModeElement.zero_mode(raw)).part(0)
    purely_central = all(_is_background_only(w) for (w, _) in raw_nf._terms)
    counterterm = _solve_central_counterterm(system, raw_nf) if purely_central else None
    repaired = None
    if counterterm is not None:
        # counterterms are central: they feed only through delta
        repaired_full = raw_nf + mode_normal_form(ModeElement.zero_mode(delta(counterterm))).part(0)
        repaired = mode_normal_form(ModeElement.zero_mode(repaired_full)).part(0)
    return QuantumMCReport(tmax, wmax, raw_nf, purely_central, counterterm, repaired)

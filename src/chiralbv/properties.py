"""Randomized property suites shared by the test suite and the CLI.

Every suite draws from a seeded generator and checks an exact algebraic
identity; a failure count of zero is the pass condition.  The vertex
suites run on a mixed system with an even double-pole pair and an odd
simple-pole pair so that Koszul signs are exercised through contractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .algebra import (
    DiffPoly,
    Generator,
    Scalar,
    System,
    euler_derivative,
    ibp_decompose,
)
from .vertex import (
    ContractionTable,
    ModeElement,
    make_bcov,
    delta_bcov,
    mode_bracket,
    mode_normal_form,
    wick_ope,
)
from .moyal import delta_b, delta_inv, delta_star, make_b_system, split_t_levels, star, star_bracket, t_level
from .sampling import random_bexpr, random_diffpoly, random_mode_element
from .psm import make_psm_system, make_psm_table, psm_delta

__all__ = ["SuiteResult", "run_suite", "all_suites", "make_mixed_system"]


class SuiteResult(NamedTuple):
    name: str
    cases: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_obj(self) -> dict:
        return {"name": self.name, "cases": self.cases, "failures": self.failures, "pass": self.passed}


def make_mixed_system() -> Tuple[System, ContractionTable]:
    """Even a-a double pole plus odd c-d simple pole, degree-0 pairings."""
    gens = [
        Generator("a", 0, 0, 0, Fraction(1)),
        Generator("c", 0, 1, 1, Fraction(1)),
        Generator("d", 0, 1, -1, Fraction(0)),
    ]
    sys_ = System("vertex", gens)
    tbl = ContractionTable(
        sys_,
        {
            (("a", 0), ("a", 0)): {2: Scalar(Fraction(1), 1)},
            (("c", 0), ("d", 0)): {1: Scalar(Fraction(1), 1)},
        },
    )
    return sys_, tbl


def _hom_parity(p: DiffPoly) -> Optional[int]:
    pars = {p.system.word_parity(w) for (w, _) in p._terms}
    return pars.pop() if len(pars) == 1 else None


def suite_bracket_antisymmetry(rng: random.Random, cases: int) -> SuiteResult:
    """mode_normal_form([X,Y] + (-1)^{p(X)p(Y)} [Y,X]) == 0."""
    sys_, tbl = make_mixed_system()
    failures = 0
    for _ in range(cases):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        X = random_mode_element(rng, sys_, parity=px, max_terms=2, max_degree=3, max_dz=2)
        Y = random_mode_element(rng, sys_, parity=py, max_terms=2, max_degree=3, max_dz=2)
        lhs = mode_bracket(X, Y, tbl) + mode_bracket(Y, X, tbl).scale(Fraction((-1) ** (px * py)))
        if not mode_normal_form(lhs).is_zero():
            failures += 1
    return SuiteResult("bracket-antisymmetry", cases, failures)


def suite_bracket_jacobi(rng: random.Random, cases: int) -> SuiteResult:
    """[X,[Y,Z]] == [[X,Y],Z] + (-1)^{p(X)p(Y)} [Y,[X,Z]] mod im d."""
    sys_, tbl = make_mixed_system()
    failures = 0
    for _ in range(cases):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        X = random_mode_element(rng, sys_, parity=px, max_terms=1, max_degree=2, max_dz=1)
        Y = random_mode_element(rng, sys_, parity=py, max_terms=1, max_degree=2, max_dz=1)
        Z = random_mode_element(rng, sys_, parity=rng.randint(0, 1), max_terms=1, max_degree=2, max_dz=1)
        lhs = mode_bracket(X, mode_bracket(Y, Z, tbl), tbl)
        rhs = mode_bracket(mode_bracket(X, Y, tbl), Z, tbl) + mode_bracket(
            Y, mode_bracket(X, Z, tbl), tbl
        ).scale(Fraction((-1) ** (px * py)))
        if not mode_normal_form(lhs - rhs).is_zero():
            failures += 1
    return SuiteResult("bracket-jacobi", cases, failures)


def suite_delta_derivation(rng: random.Random, cases: int) -> SuiteResult:
    """delta [X,Y] == [delta X, Y] + (-1)^{p(X)} [X, delta Y] mod im d."""
    bsys, btbl = make_bcov(2)
    psys = make_psm_system(2)
    configs = [
        (bsys, btbl, delta_bcov(bsys), cases // 2),
        (psys, make_psm_table(psys, 2), psm_delta(psys, 2), cases - cases // 2),
    ]
    failures = 0
    for sys_, tbl, d, n in configs:
        for _ in range(n):
            px = rng.randint(0, 1)
            X = random_mode_element(rng, sys_, parity=px, zpow_range=(0, 1), max_terms=2, max_degree=2, max_dz=1)
            Y = random_mode_element(rng, sys_, zpow_range=(0, 1), max_terms=2, max_degree=2, max_dz=1)
            dX, dY, dbr = (ModeElement(sys_, {k: d(p) for k, p in m.parts.items()})
                           for m in (X, Y, mode_bracket(X, Y, tbl)))
            rhs = mode_bracket(dX, Y, tbl) + mode_bracket(X, dY, tbl).scale(Fraction((-1) ** px))
            if not mode_normal_form(dbr - rhs).is_zero():
                failures += 1
    return SuiteResult("delta-derivation-of-bracket", cases, failures)


def suite_wick_grading(rng: random.Random, cases: int) -> SuiteResult:
    """deg(C_n) = deg A + deg B; cw(C_n) = cw A + cw B - (n+1)."""
    sys_, tbl = make_mixed_system()
    failures = 0
    for _ in range(cases):
        A = random_diffpoly(rng, sys_, max_terms=1, max_degree=3, max_dz=2, lam_range=(0, 1))
        B = random_diffpoly(rng, sys_, max_terms=1, max_degree=3, max_dz=2, lam_range=(0, 1))
        if A.is_zero() or B.is_zero():
            continue
        ga, gb = A.grade(), B.grade()
        for n, C in wick_ope(A, B, tbl).items():
            for (word, lam) in C._terms:
                g = sys_.word_grading(word, lam)
                if g.deg != ga.deg + gb.deg or g.cw != ga.cw + gb.cw - (n + 1):
                    failures += 1
    return SuiteResult("wick-grading", cases, failures)


def _agree_through(a: DiffPoly, b: DiffPoly, tmax: int) -> bool:
    """a and b have equal terms at every T-level <= tmax."""
    low = lambda w, l: t_level(w) <= tmax
    return a.filter(low) == b.filter(low)


def suite_star_associativity(rng: random.Random, cases: int) -> SuiteResult:
    """(F*G)*H == F*(G*H) exactly below the T-budget."""
    sys_ = make_b_system()
    failures = 0
    tmax = 4
    for _ in range(cases):
        F = random_bexpr(rng, sys_, max_T=1, max_degree=2, max_dz=1)
        G = random_bexpr(rng, sys_, max_T=1, max_degree=2, max_dz=1)
        H = random_bexpr(rng, sys_, max_T=1, max_degree=2, max_dz=1)
        # an intermediate product's lowest T-level may cancel past the budget;
        # strict=False is exact for the levels <= tmax compared below
        lhs = star(star(F, G, tmax), H, tmax, strict=False)
        rhs = star(F, star(G, H, tmax), tmax, strict=False)
        if not _agree_through(lhs, rhs, tmax):
            failures += 1
    return SuiteResult("star-associativity", cases, failures)


def suite_star_poisson(rng: random.Random, cases: int) -> SuiteResult:
    """First order of the star commutator equals the Poisson bracket."""
    sys_ = make_b_system()
    failures = 0
    for _ in range(cases):
        F = random_bexpr(rng, sys_, max_T=1, max_degree=2, max_dz=1, parity=rng.randint(0, 1))
        G = random_bexpr(rng, sys_, max_T=1, max_degree=2, max_dz=1, parity=rng.randint(0, 1))
        # the first-order statement needs T-homogeneous inputs
        tf = max(split_t_levels(F), default=0)
        tg = max(split_t_levels(G), default=0)
        F = split_t_levels(F).get(tf, sys_.zero())
        G = split_t_levels(G).get(tg, sys_.zero())
        br = star_bracket(F, G, tf + tg + 1)
        first = split_t_levels(br).get(tf + tg + 1, sys_.zero())
        poisson = F.dt().mul(G.dz()) - F.dz().mul(G.dt())
        poisson = split_t_levels(poisson).get(tf + tg + 1, sys_.zero())
        if first != poisson:
            failures += 1
    return SuiteResult("star-first-order-poisson", cases, failures)


def suite_moyal_deltas(rng: random.Random, cases: int) -> SuiteResult:
    """delta^2 = delta*^2 = 0; Leibniz over star; homotopy identity."""
    sys_ = make_b_system()
    d, ds = delta_b(sys_), delta_star(sys_)
    failures = 0
    for _ in range(cases):
        F = random_bexpr(rng, sys_, max_T=2, max_degree=3, max_dz=2)
        if not d(d(F)).is_zero() or not ds(ds(F)).is_zero():
            failures += 1
            continue
        # delta(F*G) = (dF)*G + (-1)^{p} F*(dG) at a safe budget
        G = random_bexpr(rng, sys_, max_T=1, max_degree=2, max_dz=1, parity=rng.randint(0, 1))
        Fh = random_bexpr(rng, sys_, max_T=1, max_degree=2, max_dz=1, parity=rng.randint(0, 1))
        pf = _hom_parity(Fh) or 0
        tmax = 4
        lhs = d(star(Fh, G, tmax))
        rhs = star(d(Fh), G, tmax) + star(Fh, d(G), tmax).scale(Fraction((-1) ** pf))
        # the budget drops T>tmax on both sides identically
        if not _agree_through(lhs, rhs, tmax):
            failures += 1
            continue
        # homotopy: d d^{-1} + d^{-1} d + projection-to-(dz-free eta sector) == id
        proj = F.filter(
            lambda w, l: all(dg.name == "et" and dg.dz == 0 for dg in w)
        )
        ident = d(delta_inv(F)) + delta_inv(d(F)) + proj
        if ident != F:
            failures += 1
    return SuiteResult("moyal-differentials-homotopy", cases, failures)


def suite_algebra_core(rng: random.Random, cases: int) -> SuiteResult:
    """Canonicalization, Euler kernel, and ibp reconstruction on randoms."""
    sys_, _ = make_mixed_system()
    failures = 0
    for _ in range(cases):
        p = random_diffpoly(rng, sys_, max_terms=3, max_degree=4, max_dz=3, lam_range=(0, 1))
        # canonicalize: permutation invariance with Koszul signs
        for (word, lam), c in list(p._terms.items()):
            perm = list(word)
            rng.shuffle(perm)
            sign = _koszul_permutation_sign(sys_, list(word), perm)
            q = sys_.monomial(perm, coef=c * sign, lam=lam)
            if q != DiffPoly(sys_, {(word, lam): c}):
                failures += 1
                break
        # euler annihilates total derivatives
        Tq = p.dz()
        for g in sys_.generators():
            if not euler_derivative(Tq, g.name, g.index).is_zero():
                failures += 1
                break
        # ibp reconstruction
        nc = p.filter(lambda w, l: bool(w))
        C, h = ibp_decompose(nc)
        if C.dz() + h != nc:
            failures += 1
    return SuiteResult("algebra-core", cases, failures)


def _koszul_permutation_sign(system, src, dst) -> int:
    # sign of the permutation taking src to dst, counting odd-odd swaps
    work = list(src)
    sign = 1
    for i, target in enumerate(dst):
        j = work.index(target, i)
        while j > i:
            if system.parity(work[j]) and system.parity(work[j - 1]):
                sign = -sign
            work[j], work[j - 1] = work[j - 1], work[j]
            j -= 1
    return sign


def suite_grade_multiplicativity(rng: random.Random, cases: int) -> SuiteResult:
    sys_, _ = make_mixed_system()
    failures = 0
    for _ in range(cases):
        p = random_diffpoly(rng, sys_, max_terms=1, max_degree=3, max_dz=2, lam_range=(0, 1))
        q = random_diffpoly(rng, sys_, max_terms=1, max_degree=3, max_dz=2, lam_range=(0, 1))
        pq = p.mul(q)
        if pq.is_zero():
            continue
        gp, gq, g = p.grade(), q.grade(), pq.grade()
        if g is None or gp is None or gq is None:
            failures += 1
        elif (g.deg, g.cw, g.dim) != (gp.deg + gq.deg, gp.cw + gq.cw, gp.dim + gq.dim):
            failures += 1
    return SuiteResult("grade-multiplicativity", cases, failures)


ALL_SUITES: Dict[str, Callable[[random.Random, int], SuiteResult]] = {
    "algebra-core": suite_algebra_core,
    "grade-multiplicativity": suite_grade_multiplicativity,
    "bracket-antisymmetry": suite_bracket_antisymmetry,
    "bracket-jacobi": suite_bracket_jacobi,
    "delta-derivation-of-bracket": suite_delta_derivation,
    "wick-grading": suite_wick_grading,
    "star-associativity": suite_star_associativity,
    "star-first-order-poisson": suite_star_poisson,
    "moyal-differentials-homotopy": suite_moyal_deltas,
}


def run_suite(name: str, seed: int = 20240901, cases: int = 100) -> SuiteResult:
    rng = random.Random(seed)
    return ALL_SUITES[name](rng, cases)


def all_suites(seed: int = 20240901, cases: int = 100) -> List[SuiteResult]:
    return [run_suite(name, seed=seed, cases=cases) for name in ALL_SUITES]

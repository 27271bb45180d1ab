"""Poisson sigma-model as a free chiral system.

Form components are modeled as separate generators: for each target
coordinate i there are phi_i (0-form, even, deg 0), phiw_i (dz-component,
odd, deg -1), eta_i (0-form, odd, deg 1) and etaw_i (dz-component, even,
deg 0).  The propagator (dz - dw)/(z - w) becomes two simple-pole entries,
phi_i(z) etaw_j(w) ~ -lam/(z-w) and phiw_i(z) eta_j(w) ~ +lam/(z-w).

The interaction is the dz-component of P^{ij}(phi) eta_i eta_j in the
superfields phi_i + dz phiw_i and eta_i + dz etaw_i: the odd partner
derivation phi_i -> phiw_i, eta_i -> etaw_i (an `algebra.Derivation`)
applied to the 0-form words.  Its Maurer-Cartan residual vanishes iff the
bivector satisfies the Jacobi identity through the truncation degree;
multi-contraction sectors vanish identically by form degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import (Derivation, DerivedGenerator, DiffPoly, Generator, Scalar, System, _add_scaled, _integral,
                      _IntSum, _json_int, _poly)
from .vertex import ContractionTable, ModeElement, mc_residual

__all__ = [
    "PoissonBivector",
    "build_psm",
    "psm_mc_check",
    "psm_delta",
    "trivector_functional",
    "constant_bivector",
    "so3_bivector",
    "non_jacobi_bivector",
]

PolyDict = Dict[Tuple[int, ...], Fraction]  # exponent vector -> coefficient


def _poly_mul(a: PolyDict, b: PolyDict) -> PolyDict:
    out: PolyDict = {}
    for ea, ca in a.items():
        _add_scaled(out, {tuple(x + y for x, y in zip(ea, eb)): cb for eb, cb in b.items()}, ca)
    return {e: c for e, c in out.items() if c != 0}


def _poly_diff(a: PolyDict, i: int) -> PolyDict:
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in a.items() if e[i]}


class PoissonBivector:
    """Polynomial bivector P = sum P^{ij}(x) d_i wedge d_j with P^{ij} = -P^{ji}.

    Entries are given for i < j (P^{ji} follows), as polynomials with
    nonnegative exponents in dim >= 1 coordinates; anything else raises
    ValueError rather than being dropped or read differently.
    """

    def __init__(self, dim: int, entries: Optional[Dict[Tuple[int, int], PolyDict]] = None):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        clean: Dict[Tuple[int, int], PolyDict] = {}
        for (i, j), poly in (entries or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError("coordinate index out of range")
            if i > j:
                raise ValueError(f"entry ({i}, {j}) has i > j: give P^{{{j}{i}}} = -P^{{{i}{j}}} instead")
            if i == j and any(c != 0 for c in poly.values()):
                raise ValueError("diagonal entries must vanish")
            for e in poly:
                if len(e) != dim:
                    raise ValueError("exponent vector has wrong length")
                if min(e) < 0:
                    raise ValueError(f"exponents must be nonnegative, got {list(e)}")
            if i < j:
                clean[(i, j)] = dict(poly)
        self.entries = clean

    def component(self, i: int, j: int) -> PolyDict:
        if i == j:
            return {}
        if i < j:
            return self.entries.get((i, j), {})
        return {e: -c for e, c in self.entries.get((j, i), {}).items()}

    def jacobi_obstruction(self) -> Dict[Tuple[int, int, int], PolyDict]:
        """Schouten component sum_l (P^{il} d_l P^{jk} + cyclic) per i<j<k,
        summed in integer numerators (`algebra._IntSum`)."""
        n = self.dim
        comp = [[_integral(self.component(i, j)) for j in range(n)] for i in range(n)]
        acc = _IntSum()
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for l in range(n):
                            (pal, den_al), (pbc, den_bc) = comp[a][l], comp[b][c]
                            d = _poly_diff(pbc, l) if pal else None
                            if d:
                                acc.add((i, j, k), _poly_mul(pal, d).items(), 1, den_al * den_bc)
        out = {ijk: {e: Fraction(v, acc.den) for e, v in nums.items() if v} for ijk, nums in acc.buckets.items()}
        return {ijk: poly for ijk, poly in out.items() if poly}

    def is_jacobi(self) -> bool:
        return not self.jacobi_obstruction()

    def truncated(self, deg_max: int) -> "PoissonBivector":
        """The terms of polynomial degree <= deg_max; build_psm(P, D) carries
        exactly P.truncated(D - 2)."""
        return PoissonBivector(self.dim, {
            ij: {e: c for e, c in poly.items() if sum(e) <= deg_max}
            for ij, poly in self.entries.items()
        })

    def to_obj(self) -> dict:
        ent = []
        for (i, j), poly in sorted(self.entries.items()):
            for e, c in sorted(poly.items()):
                ent.append({"i": i, "j": j, "exps": list(e), "num": c.numerator, "den": c.denominator})
        return {"dim": self.dim, "entries": ent}

    @staticmethod
    def from_obj(obj: dict) -> "PoissonBivector":
        entries: Dict[Tuple[int, int], PolyDict] = {}
        for ent in obj["entries"]:
            key = (_json_int(ent["i"], "i"), _json_int(ent["j"], "j"))
            e = tuple(_json_int(x, "exps") for x in ent["exps"])
            num, den = _json_int(ent["num"], "num"), _json_int(ent.get("den", 1), "den")
            _add_scaled(entries.setdefault(key, {}), {e: Fraction(num, den)})
        return PoissonBivector(_json_int(obj["dim"], "dim"), entries)


def make_psm_system(n: int) -> System:
    gens: List[Generator] = [Generator("dz", 0, 1, 1, Fraction(0))]
    for i in range(n):
        gens.append(Generator("phi", i, 0, 0, Fraction(0)))
        gens.append(Generator("phiw", i, 1, -1, Fraction(1)))
        gens.append(Generator("eta", i, 1, 1, Fraction(0)))
        gens.append(Generator("etaw", i, 0, 0, Fraction(1)))
    return System("vertex", gens)


def make_psm_table(system: System, n: int) -> ContractionTable:
    entries = {}
    for i in range(n):
        entries[(("phi", i), ("etaw", i))] = {1: Scalar(Fraction(-1), 1)}
        entries[(("phiw", i), ("eta", i))] = {1: Scalar(Fraction(1), 1)}
    return ContractionTable(system, entries)


def _dz_part(system: System, pieces, deg_max: int) -> DiffPoly:
    """dz-component of the sum of poly(phi) eta_{etas[0]} eta_{etas[1]} ...
    over (poly, etas) in pieces, from the terms of poly of degree <= deg_max - 2:
    the odd partner derivation (each 0-form to its partner, named with a
    trailing w) applied to the words of phis, then the etas in the given order."""
    partner = Derivation(system, 1, lambda dg: DiffPoly(system, {((dg._replace(name=dg.name + "w"),), 0): 1})
                         if dg.name in ("phi", "eta") else system.zero())
    words = {}
    for poly, etas in pieces:
        for e, coef in poly.items():
            if sum(e) + 2 <= deg_max:
                phis = [DerivedGenerator("phi", i, 0, 0) for i, p in enumerate(e) for _ in range(p)]
                words[(*phis, *[DerivedGenerator("eta", i, 0, 0) for i in etas]), 0] = coef
    return _poly(system, partner._apply(words))


def build_psm(P: PoissonBivector, deg_max: int) -> Tuple[System, ContractionTable, DiffPoly]:
    """Declare the component system, its contraction table, and the
    dz-component of the interaction sum_{i,j} P^{ij}(phi) eta_i eta_j,
    truncated at polynomial degree deg_max."""
    system, n = make_psm_system(P.dim), P.dim
    I = _dz_part(system, ((P.component(i, j), (i, j)) for i in range(n) for j in range(n)), deg_max)
    return system, make_psm_table(system, n), I


def psm_delta(system: System, n: int) -> Derivation:
    """delta: phiw_i -> d_z phi_i, etaw_i -> d_z eta_i, zero on 0-forms."""
    images = {}
    for i in range(n):
        images[("phiw", i)] = system.monomial([system.gen("phi", i, dz=1)])
        images[("etaw", i)] = system.monomial([system.gen("eta", i, dz=1)])
    return Derivation.from_base_rules(system, 1, images)


def psm_mc_check(
    P: PoissonBivector,
    deg_max: int,
    built: Optional[Tuple[System, ContractionTable, DiffPoly]] = None,
) -> ModeElement:
    """Normal form of the Maurer-Cartan residual of the built interaction.

    The interaction carries P.truncated(deg_max - 2), and the residual is
    4 x NF of that part's whole trivector functional: exactly zero iff the
    carried part satisfies the Jacobi identity.  It is always free of
    nonzero lam-powers (multi-contraction sectors cancel by form degree).
    """
    system, tbl, I = built if built is not None else build_psm(P, deg_max)
    delta = psm_delta(system, P.dim)
    return mc_residual(I, delta, tbl)


def trivector_functional(P: PoissonBivector, system: System, deg_max: int) -> DiffPoly:
    """dz-component of sum_{i<j<k} T^{ijk}(phi) eta_i eta_j eta_k for the
    Schouten obstruction T = [P,P]/2, keeping the terms of T of polynomial
    degree <= deg_max - 2; the independent comparison target for non-Jacobi
    controls."""
    return _dz_part(system, ((poly, ijk) for ijk, poly in P.jacobi_obstruction().items()), deg_max)


# -- stock bivectors --------------------------------------------------------


def constant_bivector(n: int, value: Fraction = Fraction(1)) -> PoissonBivector:
    entries = {}
    zero = tuple([0] * n)
    for i in range(0, n - 1, 2):
        entries[(i, i + 1)] = {zero: value}
    return PoissonBivector(n, entries)


def so3_bivector() -> PoissonBivector:
    """Lie-Poisson structure P^{ij} = eps^{ijk} x^k on R^3."""
    e = lambda k: tuple(1 if i == k else 0 for i in range(3))
    return PoissonBivector(3, {(0, 1): {e(2): Fraction(1)},
                               (0, 2): {e(1): Fraction(-1)},
                               (1, 2): {e(0): Fraction(1)}})


def non_jacobi_bivector() -> PoissonBivector:
    """P^{12} = x^1, P^{13} = x^2, P^{23} = 0: fails Jacobi."""
    e = lambda k: tuple(1 if i == k else 0 for i in range(3))
    return PoissonBivector(3, {(0, 1): {e(0): Fraction(1)},
                               (0, 2): {e(1): Fraction(1)}})

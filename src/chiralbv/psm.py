"""Poisson sigma-model as a free chiral system.

Form components are modeled as separate generators: for each target
coordinate i there are phi_i (0-form, even, deg 0), phiw_i (dz-component,
odd, deg -1), eta_i (0-form, odd, deg 1) and etaw_i (dz-component, even,
deg 0).  The propagator (dz - dw)/(z - w) becomes two simple-pole entries,
phi_i(z) etaw_j(w) ~ -lam/(z-w) and phiw_i(z) eta_j(w) ~ +lam/(z-w).

The interaction is the dz-component of P^{ij}(phi) eta_i eta_j, extracted
with an explicit odd dz symbol so all Koszul signs are canonical.  Its
Maurer-Cartan residual vanishes iff the bivector satisfies the Jacobi
identity through the truncation degree; multi-contraction sectors vanish
identically by form degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .algebra import Derivation, DiffPoly, Generator, Scalar, System, _add_scaled, _json_int, _poly
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


@dataclass
class PoissonBivector:
    """Polynomial bivector P = sum P^{ij}(x) d_i wedge d_j with P^{ij} = -P^{ji}.

    Entries are given for i < j (P^{ji} follows), as polynomials with
    nonnegative exponents in dim >= 1 coordinates; anything else raises
    ValueError rather than being dropped or read differently.
    """

    dim: int
    entries: Dict[Tuple[int, int], PolyDict] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        clean: Dict[Tuple[int, int], PolyDict] = {}
        for (i, j), poly in self.entries.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError("coordinate index out of range")
            if i > j:
                raise ValueError(f"entry ({i}, {j}) has i > j: give P^{{{j}{i}}} = -P^{{{i}{j}}} instead")
            if i == j and any(c != 0 for c in poly.values()):
                raise ValueError("diagonal entries must vanish")
            for e in poly:
                if len(e) != self.dim:
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
        """Schouten component sum_l (P^{il} d_l P^{jk} + cyclic) per i<j<k."""
        out = {}
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: PolyDict = {}
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for l in range(n):
                            _add_scaled(acc, _poly_mul(self.component(a, l), _poly_diff(self.component(b, c), l)))
                    acc = {e: v for e, v in acc.items() if v != 0}
                    if acc:
                        out[(i, j, k)] = acc
        return out

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


def _superfield(system: System, zero: str, one: str, i: int) -> DiffPoly:
    # component + dz * dz-component, with dz an explicit odd generator
    return system.monomial([system.gen(zero, i)]) + system.monomial(
        [system.gen("dz", 0), system.gen(one, i)]
    )


def _eval_poly(system: System, poly: PolyDict, fields: List[DiffPoly], deg_max: int) -> DiffPoly:
    acc: dict = {}
    for e, c in poly.items():
        if sum(e) + 2 > deg_max:
            continue
        term = system.one(coef=c)
        for i, p in enumerate(e):
            for _ in range(p):
                term = term.mul(fields[i], max_degree=deg_max + 1)
        _add_scaled(acc, term._terms)
    return _poly(system, acc)


def _dz_component(p: DiffPoly) -> DiffPoly:
    """Coefficient of the odd symbol dz, extracted from the left."""
    sys_ = p.system
    terms = {}
    for (word, lam), c in p._terms.items():
        pos = [i for i, dg in enumerate(word) if dg.name == "dz"]
        if len(pos) != 1:
            continue
        i = pos[0]
        before = sum(sys_.parity(g) for g in word[:i])
        sign = -1 if before % 2 else 1
        terms[(word[:i] + word[i + 1 :], lam)] = sign * c
    return DiffPoly(sys_, terms)


def build_psm(P: PoissonBivector, deg_max: int) -> Tuple[System, ContractionTable, DiffPoly]:
    """Declare the component system, its contraction table, and the
    dz-component of the interaction sum_{i,j} P^{ij}(phi) eta_i eta_j,
    truncated at polynomial degree deg_max."""
    n = P.dim
    system = make_psm_system(n)
    tbl = make_psm_table(system, n)
    phis = [_superfield(system, "phi", "phiw", i) for i in range(n)]
    etas = [_superfield(system, "eta", "etaw", i) for i in range(n)]
    acc: dict = {}
    for i in range(n):
        for j in range(n):
            poly = P.component(i, j)
            if poly:
                piece = _eval_poly(system, poly, phis, deg_max).mul(etas[i], max_degree=deg_max + 1)
                piece._mul_into(acc, etas[j], max_degree=deg_max + 1)
    return system, tbl, _dz_component(_poly(system, acc))


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
    n = P.dim
    phis = [_superfield(system, "phi", "phiw", i) for i in range(n)]
    etas = [_superfield(system, "eta", "etaw", i) for i in range(n)]
    acc: dict = {}
    for (i, j, k), poly in P.jacobi_obstruction().items():
        piece = _eval_poly(system, poly, phis, deg_max + 1)
        piece = piece.mul(etas[i], max_degree=deg_max + 2).mul(etas[j], max_degree=deg_max + 2)
        piece._mul_into(acc, etas[k], max_degree=deg_max + 2)
    return _dz_component(_poly(system, acc))


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

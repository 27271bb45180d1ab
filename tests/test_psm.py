import random
from fractions import Fraction

import pytest

from chiralbv.algebra import DerivedGenerator, DiffPoly, _add_scaled, _poly, _sort_word
from chiralbv.psm import (
    PoissonBivector,
    _poly_diff,
    _poly_mul,
    build_psm,
    constant_bivector,
    non_jacobi_bivector,
    psm_delta,
    psm_mc_check,
    so3_bivector,
    trivector_functional,
)
from chiralbv.vertex import ModeElement, mode_normal_form


def test_bivector_antisymmetry_and_validation():
    P = PoissonBivector(2, {(0, 1): {(0, 0): Fraction(1)}})
    assert P.component(1, 0) == {(0, 0): Fraction(-1)}
    with pytest.raises(ValueError):
        PoissonBivector(2, {(0, 0): {(0, 0): Fraction(1)}})
    with pytest.raises(ValueError):
        PoissonBivector(2, {(0, 1): {(0, 0, 0): Fraction(1)}})


@pytest.mark.parametrize("dim, entries, match", [
    (2, {(1, 0): {(0, 0): Fraction(1)}}, "i > j"),
    (3, {(0, 1): {(0, 0, -1): Fraction(1)}}, "nonnegative"),
    (-2, {}, "dim must be >= 1"),
    (0, {}, "dim must be >= 1"),
], ids=["lower-triangle", "negative-exponent", "negative-dim", "zero-dim"])
def test_bivector_rejects_entries_it_would_misread(dim, entries, match):
    """Each of these was once accepted and certified as a different bivector."""
    with pytest.raises(ValueError, match=match):
        PoissonBivector(dim, entries)


def test_bivector_json_roundtrip():
    P = so3_bivector()
    Q = PoissonBivector.from_obj(P.to_obj())
    assert Q.to_obj() == P.to_obj()


def test_jacobi_flags():
    assert constant_bivector(2).is_jacobi()
    assert so3_bivector().is_jacobi()
    assert not non_jacobi_bivector().is_jacobi()
    # the obstruction of the control: T^{123} = -x^2
    obs = non_jacobi_bivector().jacobi_obstruction()
    assert obs == {(0, 1, 2): {(0, 1, 0): Fraction(-1)}}


def test_build_zero_bivector():
    _, _, I = build_psm(PoissonBivector(1, {}), 4)
    assert I.is_zero()


def test_build_constant_bivector_shape():
    """Constant P: the dz-part is P^{12}(eta_10 eta_21 + eta_11 eta_20) up
    to Koszul ordering (hand oracle for the superfield expansion)."""
    system, tbl, I = build_psm(constant_bivector(2), 4)
    e0 = lambda i: system.gen("eta", i)
    ew = lambda i: system.gen("etaw", i)
    # hand oracle: (eta_00 + dz eta_01)(eta_10 + dz eta_11) keeps
    # eta_00 dz eta_11 + dz eta_01 eta_10 = dz(-eta_00 eta_11 + eta_01 eta_10),
    # combined over (i,j) = (1,2) and (2,1) with P antisymmetric
    expect = (
        system.monomial([e0(0), ew(1)], coef=-2)
        + system.monomial([e0(1), ew(0)], coef=2)
    )
    assert I.to_obj() == expect.to_obj()
    g = I.grade()
    assert (g.deg, g.dim) == (1, 0)


def test_build_so3_has_phiw_terms():
    """Linear P: the dz-part contains dP-terms with phiw factors."""
    system, tbl, I = build_psm(so3_bivector(), 4)
    has_phiw = any(any(dg.name == "phiw" for dg in w) for (w, _) in I._terms)
    assert has_phiw
    assert I.grade() is not None and I.grade().deg == 1


def test_delta_closed_interaction():
    for P in (constant_bivector(2), so3_bivector(), non_jacobi_bivector()):
        system, tbl, I = build_psm(P, 4)
        d = psm_delta(system, P.dim)
        assert mode_normal_form(ModeElement.zero_mode(d(I))).is_zero()


def test_mc_constant_and_so3_vanish():
    assert psm_mc_check(constant_bivector(2), 4).is_zero()
    assert psm_mc_check(so3_bivector(), 4).is_zero()


def test_mc_non_jacobi_control():
    """Nonzero residual, purely classical (no lam powers), matching the
    Schouten obstruction functional up to one reported constant."""
    P = non_jacobi_bivector()
    built = build_psm(P, 4)
    system, tbl, I = built
    residual = psm_mc_check(P, 4, built=built)
    assert not residual.is_zero()
    lam_powers = {l for p in residual.parts.values() for (_, l) in p._terms}
    assert lam_powers == {0}
    oracle = mode_normal_form(ModeElement.zero_mode(trivector_functional(P, system, 4)))
    # single overall constant relates the residual to the Schouten functional
    matched = None
    for num in range(-8, 9):
        if num and (residual.part(0) - oracle.part(0).scale(Fraction(num))).is_zero():
            matched = Fraction(num)
            break
    assert matched == 4


def test_quadratic_non_jacobi_control():
    """A quadratic bivector failing Jacobi also shows a classical residual."""
    e = lambda i, j: tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(3))
    P = PoissonBivector(3, {(0, 1): {e(0, 0): Fraction(1)}, (0, 2): {e(1, 2): Fraction(1)}})
    assert not P.is_jacobi()
    residual = psm_mc_check(P, 5)
    assert not residual.is_zero()
    assert {l for p in residual.parts.values() for (_, l) in p._terms} == {0}


def test_mc_matches_jacobi_truncation_semantics():
    """Residual certification degree tracks the budget."""
    P = so3_bivector()
    r = psm_mc_check(P, 3)
    assert r.is_zero()


def test_residual_is_obstruction_of_carried_bivector():
    """The interaction at degree D carries P.truncated(D - 2); the residual is
    4 x NF of that part's whole Schouten obstruction, for perturbations of
    every degree (the obstruction of P itself differs at D = 3 and D = 4)."""
    e = lambda *ks: tuple(sum(1 for k in ks if k == m) for m in range(3))
    base = {(0, 1): {e(0, 1): Fraction(1)}, (0, 2): {e(0, 2): Fraction(2)},
            (1, 2): {e(1, 2): Fraction(3)}}
    for pert in ((), (2,), (0, 2)):
        entries = {ij: dict(poly) for ij, poly in base.items()}
        entries[(0, 1)][e(*pert)] = Fraction(1)
        P = PoissonBivector(3, entries)
        for D in (3, 4):
            built = build_psm(P, D)
            residual = psm_mc_check(P, D, built=built)
            carried = P.truncated(D - 2)
            tri = trivector_functional(carried, built[0], 2 * D)
            oracle = mode_normal_form(ModeElement.zero_mode(tri)).scale(Fraction(4))
            assert (residual - oracle).is_zero(), (pert, D)
            assert residual.is_zero() == carried.is_jacobi(), (pert, D)


# -- the former superfield builder, kept as an oracle for the Leibniz rule -------


def _superfield(system, zero, one, i):
    # component + dz * dz-component, with dz an explicit odd generator
    return system.monomial([system.gen(zero, i)]) + system.monomial([system.gen("dz", 0), system.gen(one, i)])


def _eval_poly(system, poly, fields, deg_max):
    acc = {}
    for e, c in poly.items():
        if sum(e) + 2 > deg_max:
            continue
        term = system.one(coef=c)
        for i, p in enumerate(e):
            for _ in range(p):
                term = term.mul(fields[i])
        _add_scaled(acc, term._terms)
    return _poly(system, acc)


def _dz_component(p):
    """Coefficient of the odd symbol dz, extracted from the left."""
    sys_ = p.system
    terms = {}
    for (word, lam), c in p._terms.items():
        pos = [i for i, dg in enumerate(word) if dg.name == "dz"]
        if len(pos) != 1:
            continue
        i = pos[0]
        before = sum(sys_.parity(g) for g in word[:i])
        terms[(word[:i] + word[i + 1 :], lam)] = -c if before % 2 else c
    return DiffPoly(sys_, terms)


def _superfield_interaction(P, system, deg_max):
    """The former build_psm interaction: superfield products of the monomials
    of P^ij with degree <= deg_max - 2 (no product of theirs has more than
    deg_max + 1 factors, the former cut)."""
    phis = [_superfield(system, "phi", "phiw", i) for i in range(P.dim)]
    etas = [_superfield(system, "eta", "etaw", i) for i in range(P.dim)]
    acc = {}
    for i in range(P.dim):
        for j in range(P.dim):
            poly = P.component(i, j)
            if poly:
                piece = _eval_poly(system, poly, phis, deg_max).mul(etas[i])
                piece._mul_into(acc, etas[j])
    return _dz_component(_poly(system, acc))


def _superfield_trivector(P, system, deg_max):
    """The former trivector_functional.  Its cut at deg_max + 2 factors kept no
    dz-carrying term of a degree deg_max - 1 monomial, so these are left out."""
    phis = [_superfield(system, "phi", "phiw", i) for i in range(P.dim)]
    etas = [_superfield(system, "eta", "etaw", i) for i in range(P.dim)]
    acc = {}
    for (i, j, k), poly in P.jacobi_obstruction().items():
        piece = _eval_poly(system, poly, phis, deg_max).mul(etas[i]).mul(etas[j])
        piece._mul_into(acc, etas[k])
    return _dz_component(_poly(system, acc))


def _log_canonical(rng, dim, linear):
    """P^{ij} = q_ij x_i x_j (Poisson for every q), with one seeded linear term if asked."""
    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            e = tuple((k == i) + (k == j) for k in range(dim))
            entries[(i, j)] = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))}
    if linear:
        i, j = sorted(rng.sample(range(dim), 2))
        entries[(i, j)][tuple(int(m == rng.randrange(dim)) for m in range(dim))] = Fraction(rng.randint(1, 9))
    return PoissonBivector(dim, entries)


def test_leibniz_builder_matches_superfield_oracle():
    """build_psm and trivector_functional equal the superfield products in
    value, and the residual built on either interaction is the same, term
    for term and in order."""
    rng = random.Random(101)
    bivectors = [_log_canonical(rng, dim, linear) for dim in (3, 4, 5) for linear in (False, True)]
    built = nonzero = 0
    for P in bivectors + [so3_bivector(), non_jacobi_bivector()]:
        for D in (3, 4, 5, 6):
            system, tbl, I = build_psm(P, D)
            oracle = _superfield_interaction(P, system, D)
            assert I == oracle, (P.entries, D)
            built += not I.is_zero()
            for carried, deg in ((P, D), (P.truncated(D - 2), 2 * D)):
                assert trivector_functional(carried, system, deg) == _superfield_trivector(carried, system, deg)
            got = psm_mc_check(P, D, built=(system, tbl, I))
            expect = psm_mc_check(P, D, built=(system, tbl, oracle))
            assert list(got.parts) == list(expect.parts)
            assert all(list(got.parts[k]._terms.items()) == list(expect.parts[k]._terms.items()) for k in got.parts)
            nonzero += not got.is_zero()
    assert built > 20 and nonzero > 10


def _add_dz_part_oracle(system, acc, poly, etas, deg_max):
    """The former Leibniz loop of the PSM builders: acc += dz-component of
    poly(phi) eta_{etas[0]} eta_{etas[1]} ..., from the terms of degree <= deg_max - 2."""
    for e, coef in poly.items():
        if sum(e) + 2 > deg_max:
            continue
        zeros = [DerivedGenerator("phi", i, 0, 0) for i, p in enumerate(e) for _ in range(p)]
        zeros += [DerivedGenerator("eta", i, 0, 0) for i in etas]
        signed, odd = (coef, -coef), 0
        for k, g in enumerate(zeros):
            sw = _sort_word(system, (*zeros[:k], DerivedGenerator(g.name + "w", g.index, 0, 0), *zeros[k + 1 :]))
            if sw is not None:
                key, c = (sw[0], 0), signed[odd ^ (sw[1] < 0)]
                old = acc.get(key)
                acc[key] = c if old is None else old + c
            odd ^= g.name == "eta"


def _random_bivector(rng, dim):
    """Seeded entries of degree <= 3 for a few pairs i < j; rarely Poisson."""
    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < 0.6:
                poly = {}
                for _ in range(rng.randint(1, 4)):
                    e = [0] * dim
                    for _ in range(rng.randint(0, 3)):
                        e[rng.randrange(dim)] += 1
                    poly[tuple(e)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                entries[(i, j)] = poly
    return PoissonBivector(dim, entries)


def test_partner_derivation_matches_former_loop():
    """build_psm and trivector_functional, which apply the partner derivation,
    equal the former hand-written loop in value, term order and coefficient type."""
    rng = random.Random(113)
    nonzero = [0, 0]
    for dim in (3, 4, 5):
        for P in [_random_bivector(rng, dim) for _ in range(3)] + [_log_canonical(rng, dim, True)]:
            for D in (3, 4, 5, 6):
                system, _, I = build_psm(P, D)
                acc = {}
                for i in range(dim):
                    for j in range(dim):
                        _add_dz_part_oracle(system, acc, P.component(i, j), (i, j), D)
                T, tacc = trivector_functional(P, system, D), {}
                for ijk, poly in P.jacobi_obstruction().items():
                    _add_dz_part_oracle(system, tacc, poly, ijk, D)
                for got, expect in ((I, acc), (T, tacc)):
                    expect = _poly(system, expect)
                    assert [(k, type(c), c) for k, c in got._terms.items()] == \
                        [(k, type(c), c) for k, c in expect._terms.items()], (P.entries, D)
                nonzero[0] += not I.is_zero()
                nonzero[1] += not T.is_zero()
    assert min(nonzero) > 20, nonzero


def _jacobi_obstruction_oracle(P):
    """The former jacobi_obstruction, summed in Fractions."""
    n = P.dim
    comp = [[P.component(i, j) for j in range(n)] for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for l in range(n):
                        d = _poly_diff(comp[b][c], l) if comp[a][l] else None
                        if d:
                            _add_scaled(acc, _poly_mul(comp[a][l], d))
                acc = {e: v for e, v in acc.items() if v != 0}
                if acc:
                    out[(i, j, k)] = acc
    return out


def test_jacobi_obstruction_matches_fraction_sums():
    """The integer-numerator obstruction equals the Fraction sums in value,
    key order and coefficient type, and is_jacobi keeps its verdicts."""
    rng = random.Random(107)
    bivectors = [_log_canonical(rng, dim, linear) for dim in (3, 4, 5) for linear in (False, True)]
    for _ in range(30):
        dim = rng.randint(2, 4)
        entries = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < 0.7:
                    entries[(i, j)] = {tuple(rng.randint(0, 2) for _ in range(dim)):
                                       Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3)}
        bivectors.append(PoissonBivector(dim, entries))
    bivectors += [so3_bivector(), non_jacobi_bivector(), constant_bivector(4)]
    verdicts = set()
    for P in bivectors:
        got, expect = P.jacobi_obstruction(), _jacobi_obstruction_oracle(P)
        assert [(ijk, list(poly.items())) for ijk, poly in got.items()] == \
            [(ijk, list(poly.items())) for ijk, poly in expect.items()]
        assert all(type(c) is Fraction for poly in got.values() for c in poly.values())
        assert P.is_jacobi() == (not expect)
        verdicts.add(P.is_jacobi())
    assert verdicts == {True, False}

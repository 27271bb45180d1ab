from fractions import Fraction

import pytest

from chiralbv.psm import (
    PoissonBivector,
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

import random
from fractions import Fraction

import pytest

from chiralbv.algebra import BudgetError
from chiralbv.correspondence import (
    BackgroundSubstitution,
    index_weight,
    morphism_defect,
    phi,
    restrict_index_weight,
    shift_exp,
    substitute_background,
    w_generator,
)
from chiralbv.moyal import delta_b, make_b_system
from chiralbv.moyal import bt, et
from chiralbv.sampling import random_bexpr
from chiralbv.vertex import ModeElement, delta_bcov, make_bcov, mode_normal_form


@pytest.fixture(scope="module")
def V():
    return make_bcov(6)


@pytest.fixture(scope="module")
def B():
    return make_b_system()


def test_w_generators_low_orders(V):
    sys_, _ = V
    b0 = sys_.gen("b", 0)
    assert w_generator(1, sys_) == sys_.monomial([b0])
    assert w_generator(2, sys_) == sys_.monomial([b0, b0]) + sys_.monomial([sys_.gen("b", 0, dz=1)])
    w3 = (
        sys_.monomial([b0] * 3)
        + sys_.monomial([b0, sys_.gen("b", 0, dz=1)], coef=3)
        + sys_.monomial([sys_.gen("b", 0, dz=2)])
    )
    assert w_generator(3, sys_) == w3
    with pytest.raises(ValueError):
        w_generator(0, sys_)


def test_w_generator_exponential_oracle(V):
    """W^(k) from the normal-ordered exponential :e^{phi(z)-phi(w)}:.

    Expand exp(sum_s (z-w)^s d^s phi / s!) with commuting symbols for the
    derivatives of phi; the (z-w)^k coefficient times k! is W^(k) under
    d^i phi = Dz^{i-1} b0.
    """
    import sympy as sp

    sys_, _ = V
    eps = sp.symbols("eps")
    kmax = 5
    dphi = sp.symbols(f"dphi1:{kmax + 2}")  # dphi[i] = d^{i+1} phi
    series = sp.exp(sum(eps**s * dphi[s - 1] / sp.factorial(s) for s in range(1, kmax + 1)))
    series = sp.series(series, eps, 0, kmax + 1).removeO()
    for k in range(1, kmax + 1):
        coeff = sp.expand(series.coeff(eps, k) * sp.factorial(k))
        got = w_generator(k, sys_)
        sym = sp.Integer(0)
        for word, sc in got.terms():
            term = sp.Rational(sc.coef.numerator, sc.coef.denominator)
            for dg in word:
                term *= dphi[dg.dz]
            sym += term
        assert sp.simplify(coeff - sym) == 0


def test_w_generator_conformal_weight(V):
    # cw-homogeneous of weight k (dim varies across partition terms)
    sys_, _ = V
    for k in range(1, 6):
        w = w_generator(k, sys_)
        for (word, lam) in w._terms:
            g = sys_.word_grading(word, lam)
            assert (g.deg, g.cw) == (0, Fraction(k))


def test_shift_exp_on_eta(B):
    got = shift_exp(B.monomial([et(B)]), 2)
    expect = (
        B.monomial([et(B)])
        + B.monomial([et(B, dz=1, dt=1)], coef=Fraction(1, 2))
        + B.monomial([et(B, dz=2, dt=2)], coef=Fraction(1, 8))
    )
    assert got == expect
    assert shift_exp(B.one(), 5) == B.one()


def test_shift_exp_full_leibniz_correction(B):
    """First correction of b~ dt(eta~): all four Leibniz terms."""
    got = shift_exp(B.monomial([bt(B), et(B, dt=1)]), 1) - B.monomial([bt(B), et(B, dt=1)])
    expect = (
        B.monomial([bt(B, dz=1, dt=1), et(B, dt=1)])
        + B.monomial([bt(B), et(B, dz=1, dt=2)])
        + B.monomial([bt(B, dz=1), et(B, dt=2)])
        + B.monomial([bt(B, dt=1), et(B, dz=1, dt=1)])
    ).scale(Fraction(1, 2))
    assert got == expect


def test_background_substitution_series(B, V):
    sys_, _ = V
    bg = BackgroundSubstitution(kmax=3)
    sub = substitute_background(B.monomial([et(B)]), sys_, bg)
    # eta~ -> sum_{k>=1} t^k/k! eta_{k-1}
    assert sub[1] == sys_.monomial([sys_.gen("eta", 0)])
    assert sub[2] == sys_.monomial([sys_.gen("eta", 1)], coef=Fraction(1, 2))
    assert sub[3] == sys_.monomial([sys_.gen("eta", 2)], coef=Fraction(1, 6))
    assert 0 not in sub  # series start at t^1
    sub = substitute_background(B.monomial([bt(B, dt=2)]), sys_, bg)
    # dt^2 bt -> sum_{k>=2} t^{k-2}/(k-2)! b_k
    assert sub[0] == sys_.monomial([sys_.gen("b", 2)])
    assert sub[1] == sys_.monomial([sys_.gen("b", 3)]) if sys_.has("b", 3) else True


def test_phi_of_zero_and_eta(B, V):
    """The stationary family: the pure-b0 sector of phi(eta~) carries
    W^(k+2)/(k+2) with the residue factor 1/(k+1)!."""
    import math

    sys_, _ = V
    bg = BackgroundSubstitution(kmax=4)
    assert phi(B.zero(), sys_, bg).is_zero()
    image = phi(B.monomial([et(B)]), sys_, bg).part(0)
    for k in range(0, 3):
        word = [sys_.gen("b", 0)] * (k + 2) + [sys_.gen("eta", k)]
        got = image.coefficient(word).coef
        assert got == Fraction(1, (k + 2) * math.factorial(k + 1))


def test_phi_budget_error(B, V):
    sys_, _ = V
    bg = BackgroundSubstitution(kmax=4)
    with pytest.raises(BudgetError):
        phi(B.monomial([et(B)]), sys_, bg, kmax=1)


def test_phi_delta_compatibility(B, V):
    """phi(delta_B J) equals delta_V phi(J) exactly on random inputs."""
    sys_, tbl = V
    bg = BackgroundSubstitution(kmax=5)
    dB = delta_b(B)
    dV = delta_bcov(sys_)
    rng = random.Random(51)
    for _ in range(12):
        J = random_bexpr(rng, B, max_T=2, max_degree=2, max_dz=1)
        lhs = phi(dB(J), sys_, bg).part(0)
        rhs = dV(phi(J, sys_, bg).part(0))
        assert mode_normal_form(ModeElement(sys_, {0: lhs - rhs})).is_zero()


def test_phi_preserves_conformal_weight(B, V):
    """cw(integrand of phi(J)) = cw(J) + 1; the mode integral carries cw -1."""
    sys_, _ = V
    bg = BackgroundSubstitution(kmax=4)
    rng = random.Random(53)
    checked = 0
    for _ in range(15):
        J = random_bexpr(rng, B, max_T=2, max_degree=2, max_dz=1)
        from chiralbv.moyal import deg_cw

        g = deg_cw(J)
        if g is None:
            continue
        image = phi(J, sys_, bg).part(0)
        gi = deg_cw_vertex(image)
        if not image.is_zero():
            assert gi == (g[0], g[1] + 1)
            checked += 1
    assert checked >= 5


def deg_cw_vertex(p):
    out = None
    for (word, lam) in p._terms:
        g = p.system.word_grading(word, lam)
        cur = (g.deg, g.cw)
        if out is None:
            out = cur
        elif out != cur:
            return None
    return out


def test_index_weight_helpers(V):
    sys_, _ = V
    word = (sys_.gen("b", 0), sys_.gen("b", 2), sys_.gen("eta", 1))
    assert index_weight(word) == 0 + 2 + 2
    p = sys_.monomial(word)
    assert restrict_index_weight(p, 3).is_zero()
    assert restrict_index_weight(p, 4) == p


def test_morphism_classical_sector_and_central_defect(B, V):
    """The transport intertwines brackets up to a purely central defect.

    phi(star_bracket(J1,J2)) - s [phi(J1), phi(J2)] normal-forms, on the
    exact weight window, to terms free of the dynamical field b0 (the
    W-transport cocycle); the dynamical sector matches exactly.
    """
    sys_, tbl = V
    pairs = [
        (B.monomial([bt(B)]), B.monomial([et(B)]), 2),
        (B.monomial([bt(B), et(B, dt=1)]), B.monomial([et(B)]), 2),
        (B.monomial([et(B)]), B.monomial([et(B)]), 2),
        (B.monomial([bt(B)]), B.monomial([bt(B)]), 2),
    ]
    for J1, J2, wmax in pairs:
        rep = morphism_defect(J1, J2, sys_, tbl, wmax)
        assert rep["purely_central"], (J1, J2, rep["defect"])


def test_morphism_defect_matches_frozen_cocycle(B, V):
    sys_, tbl = V
    rep = morphism_defect(B.monomial([bt(B)]), B.monomial([et(B)]), sys_, tbl, 2)
    expect = sys_.monomial([sys_.gen("b", 1, dz=3), sys_.gen("eta", 0)], coef=Fraction(1, 12))
    assert rep["defect"] == expect


def test_windowed_phi_equals_filtered_phi(B, V):
    """phi(..., wmax=w) builds exactly the terms restrict_index_weight keeps,
    on inputs with dt-carrying factors and monomials longer than the window."""
    sys_, _ = V
    bg = BackgroundSubstitution(kmax=3)
    rng = random.Random(57)
    seen_dt = seen_long = False
    for _ in range(25):
        J = random_bexpr(rng, B, max_T=2, max_degree=3, max_dz=2)
        seen_dt |= any(dg.dt for (word, _) in J._terms for dg in word)
        seen_long |= any(len(word) == 3 for (word, _) in J._terms)
        full = phi(J, sys_, bg).part(0)
        for w in range(4):
            assert phi(J, sys_, bg, wmax=w).part(0) == restrict_index_weight(full, w), (J, w)
    assert seen_dt and seen_long


def test_windowed_substitution_drops_over_weight_terms(B, V):
    sys_, _ = V
    bg = BackgroundSubstitution(kmax=3)
    rng = random.Random(59)
    for _ in range(25):
        J = random_bexpr(rng, B, max_T=2, max_degree=3, max_dz=2)
        full = substitute_background(J, sys_, bg)
        for w in range(4):
            kept = {d: restrict_index_weight(p, w) for d, p in full.items()}
            kept = {d: p for d, p in kept.items() if not p.is_zero()}
            assert substitute_background(J, sys_, bg, wmax=w) == kept, (J, w)
    # dt bt -> sum_k t^{k-1}/(k-1)! b_k: weight k at t-degree k-1
    sub = substitute_background(B.monomial([bt(B, dt=1)]), sys_, bg, wmax=2)
    assert sub == {0: sys_.monomial([sys_.gen("b", 1)]), 1: sys_.monomial([sys_.gen("b", 2)])}
    # three factors weigh at least 3
    assert substitute_background(B.monomial([bt(B), bt(B), et(B)]), sys_, bg, wmax=2) == {}


def test_windowed_phi_budget_error(B, V):
    """kmax is checked against the W-sum the windowed image needs."""
    sys_, _ = V
    bg = BackgroundSubstitution(kmax=4)
    J = B.monomial([et(B)])  # weight k at t-degree k: the window 2 needs W^(3)
    with pytest.raises(BudgetError):
        phi(J, sys_, bg, kmax=1, wmax=2)
    with pytest.raises(BudgetError):
        phi(J, sys_, bg, kmax=2)
    got = phi(J, sys_, bg, kmax=2, wmax=2).part(0)
    assert got == restrict_index_weight(phi(J, sys_, bg).part(0), 2)

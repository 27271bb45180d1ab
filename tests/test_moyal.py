import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from chiralbv.algebra import Derivation, DerivedGenerator, DiffPoly, _integral, _IntSum
from chiralbv.moyal import (
    closed_form_j0,
    delta_b,
    delta_inv,
    delta_star,
    fedosov_solve,
    make_b_system,
    reflection,
    split_t_levels,
    star,
    star_bracket,
)
from chiralbv.moyal import _add_star_piece, _n_eigenvalue, bt, et, deg_cw
from chiralbv.properties import run_suite
from chiralbv.sampling import random_bexpr
from test_algebra import _apply_derivation_oracle as apply_oracle


@pytest.fixture(scope="module")
def B():
    return make_b_system()


def test_star_unit(B):
    G = B.monomial([et(B), bt(B, dt=1)])
    assert star(B.one(), G, 4) == G
    assert star(G, B.one(), 4) == G


def test_star_bracket_is_poisson_at_first_order(B):
    br = star_bracket(B.monomial([bt(B)]), B.monomial([et(B)]), 1)
    poisson = B.monomial([bt(B, dt=1), et(B, dz=1)]) - B.monomial([bt(B, dz=1), et(B, dt=1)])
    assert br == poisson


def test_eta_star_eta_oracle(B):
    """Four lowest (k1,k2) terms with Koszul signs: only (dt et)(dz et) survives."""
    G = B.monomial([et(B)])
    got = star(G, G, 1)
    expect = B.monomial([et(B, dt=1), et(B, dz=1)])
    assert got == expect


def test_star_budget_error(B):
    F = B.monomial([bt(B, dt=2)])
    with pytest.raises(ValueError):
        star(F, F, 3)


def test_delta_examples(B):
    d = delta_b(B)
    ds = delta_star(B)
    assert d(B.monomial([bt(B)])) == B.monomial([et(B, dz=1)])
    assert d(B.monomial([et(B)])).is_zero()
    # odd derivation passes the odd first factor with a sign
    p = B.monomial([et(B, dt=1), et(B, dz=1)])
    assert ds(p) == B.monomial([bt(B), et(B, dt=1)], coef=-1)
    assert delta_inv(B.monomial([et(B, dt=3)])).is_zero()


def test_delta_squares_vanish(B):
    d, ds = delta_b(B), delta_star(B)
    rng = random.Random(3)
    for _ in range(30):
        F = random_bexpr(rng, B, max_T=2, max_degree=3, max_dz=2)
        assert d(d(F)).is_zero()
        assert ds(ds(F)).is_zero()


def test_homotopy_identity(B):
    d = delta_b(B)
    rng = random.Random(5)
    for _ in range(30):
        F = random_bexpr(rng, B, max_T=2, max_degree=3, max_dz=2)
        proj = F.filter(lambda w, l: all(dg.name == "et" and dg.dz == 0 for dg in w))
        assert d(delta_inv(F)) + delta_inv(d(F)) + proj == F


def test_fedosov_levels(B):
    sol = fedosov_solve(4)
    assert sol.levels[0] == sol.system.monomial([et(sol.system)])
    assert sol.levels[1] == sol.system.monomial([bt(sol.system), et(sol.system, dt=1)])
    assert all(sol.residual_zero.values())
    assert delta_inv(sol.j()).is_zero()
    assert reflection(sol.j()) == sol.j()
    for lv in sol.levels:
        assert lv.is_zero() or deg_cw(lv) == (1, Fraction(1))
    for k, lv in enumerate(sol.levels):
        assert all(sum(dg.dt for dg in w) == k for (w, _) in lv._terms)


def test_fedosov_closed_form_dz_free():
    sol = fedosov_solve(4)
    jz = sol.j().filter(lambda w, l: all(dg.dz == 0 for dg in w))
    assert jz == closed_form_j0(4, sol.system)


def test_closed_form_terms(B):
    assert closed_form_j0(0, B) == B.monomial([et(B)])
    j1 = closed_form_j0(1, B) - closed_form_j0(0, B)
    assert j1 == B.monomial([bt(B), et(B, dt=1)])
    # k = 2 term: (1/2) dt(bt^2 dt(et)) = bt (dt bt)(dt et) + (1/2) bt^2 dt^2(et)
    j2 = closed_form_j0(2, B) - closed_form_j0(1, B)
    expect = B.monomial([bt(B), bt(B, dt=1), et(B, dt=1)]) + B.monomial(
        [bt(B), bt(B), et(B, dt=2)], coef=Fraction(1, 2)
    )
    assert j2 == expect


def test_closed_form_leibniz_oracle_sympy(B):
    """Independent Leibniz expansion of (dt^{k-1}/k!)(bt^k dt et) with sympy.

    Every closed-form term is linear in the odd generator, so evaluating on
    concrete commuting polynomials is an exact oracle.
    """
    import sympy as sp

    t = sp.symbols("t")
    kmax = 3
    bpoly = sum((i + 2) * t**i / sp.factorial(i) for i in range(1, kmax + 2))
    epoly = sum((2 * i + 1) * t**i / sp.factorial(i) for i in range(1, kmax + 2))
    oracle = sp.expand(
        sum(
            sp.diff(bpoly**k * sp.diff(epoly, t), t, k - 1) / sp.factorial(k)
            for k in range(1, kmax + 1)
        )
    )
    got = closed_form_j0(kmax, B) - B.monomial([et(B)])
    got_inst = sp.Integer(0)
    for word, sc in got.terms():
        term = sp.Rational(sc.coef.numerator, sc.coef.denominator)
        for dg in word:
            f = bpoly if dg.name == "bt" else epoly
            term *= sp.diff(f, t, dg.dt)
        got_inst += term
    # the k-th summand carries T-level exactly k, so both sides cover T <= kmax
    assert sp.simplify(sp.expand(oracle - got_inst)) == 0


def test_reflection(B):
    assert reflection(B.monomial([et(B)])) == B.monomial([et(B)])
    assert reflection(B.monomial([et(B, dz=1)])) == B.monomial([et(B, dz=1)], coef=-1)


def test_n_eigenvector_guard(B):
    # every monomial is an N-eigenvector; delta_inv verifies this internally
    rng = random.Random(12)
    for _ in range(20):
        F = random_bexpr(rng, B, max_T=2, max_degree=3, max_dz=2)
        delta_inv(F)


def test_n_eigenvector_guard_catches_a_broken_delta_star(B, monkeypatch):
    """With Dz^{m+1} Dt^k et -> 2 Dz^m Dt^k bt, every monomial of N-eigenvalue n > 0
    gives 2n in place of n, so delta_inv must raise on it and only on it."""
    from chiralbv import moyal

    def broken_delta_star(system):
        def rule(dg):
            if dg.name == "et" and dg.dz >= 1:
                return system.monomial([DerivedGenerator("bt", 0, dg.dz - 1, dg.dt)], coef=2)
            return system.zero()

        return Derivation(system, 1, rule)

    monkeypatch.setattr(moyal, "delta_star", broken_delta_star)
    rng = random.Random(13)
    raised = passed = 0
    for _ in range(20):
        F = random_bexpr(rng, B, max_T=2, max_degree=3, max_dz=2)
        for key, c in F._terms.items():
            mono = DiffPoly(B, {key: c})
            if _n_eigenvalue(key[0]):
                with pytest.raises(AssertionError, match="monomial is not an N-eigenvector"):
                    delta_inv(mono)
                raised += 1
            else:
                assert delta_inv(mono).is_zero()
                passed += 1
    assert raised >= 20 and passed >= 1


def test_bexpr_gradings(B):
    # eta~ carries (deg, cw, dim, hw) = (1, 1, 0, 1)
    g = B.monomial([et(B)]).grade()
    assert (g.deg, g.cw, g.dim, g.hw) == (1, Fraction(1), Fraction(0), Fraction(1))
    g = B.monomial([bt(B, dz=2, dt=1)]).grade()
    assert g.cw == Fraction(2)


# -- oracles: the from-scratch forms the level-pair solver replaced -----------


def _star_oracle(F, G, tmax, strict=True):
    """Every T-level pair rebuilds its derivative chains; immutable sums."""
    out = F.system.zero()
    levels_f, levels_g = split_t_levels(F), split_t_levels(G)
    if strict and levels_f and levels_g and min(levels_f) + min(levels_g) > tmax:
        raise ValueError("tmax is below the T-levels already present")
    for tf, Fc in levels_f.items():
        for tg, Gc in levels_g.items():
            budget = tmax - tf - tg
            for k1 in range(budget + 1):
                for k2 in range(budget + 1 - k1):
                    coef = Fraction((-1) ** k2, 2 ** (k1 + k2) * math.factorial(k1) * math.factorial(k2))
                    out = out + Fc.dt(k1).dz(k2).mul(Gc.dt(k2).dz(k1)).scale(coef)
    return out


def _star_bracket_oracle(F, G, tmax):
    def parity_parts(p):
        parts = {}
        for (word, lam), c in p._terms.items():
            par = p.system.word_parity(word)
            parts[par] = parts.get(par, p.system.zero()) + DiffPoly(p.system, {(word, lam): c})
        return parts

    out = F.system.zero()
    for pf, Fp in parity_parts(F).items():
        for pg, Gp in parity_parts(G).items():
            sign = Fraction((-1) ** (pf * pg))
            out = out + _star_oracle(Fp, Gp, tmax, strict=False)
            out = out - _star_oracle(Gp, Fp, tmax, strict=False).scale(sign)
    return out


def _delta_inv_oracle(p):
    sys_ = p.system
    d, ds = delta_b(sys_), delta_star(sys_)
    out = sys_.zero()
    for (word, lam), c in p._terms.items():
        n = _n_eigenvalue(word)
        mono = DiffPoly(sys_, {(word, lam): c})
        assert apply_oracle(d, apply_oracle(ds, mono)) + apply_oracle(ds, apply_oracle(d, mono)) == mono.scale(n)
        if n:
            out = out + apply_oracle(ds, mono).scale(Fraction(1, n))
    return out


def _fedosov_oracle(tmax):
    """Recompute [J_<k, J_<k] from scratch at every level and [J, J] at the end."""
    sys_ = make_b_system()
    d = delta_b(sys_)
    levels = [sys_.monomial([et(sys_)])]
    for k in range(1, tmax + 1):
        partial = sys_.zero()
        for lv in levels:
            partial = partial + lv
        rhs = split_t_levels(_star_bracket_oracle(partial, partial, k).scale(Fraction(-1, 2))).get(k, sys_.zero())
        jk = _delta_inv_oracle(rhs)
        assert apply_oracle(d, jk) == rhs
        levels.append(jk)
    J = sys_.zero()
    for lv in levels:
        J = J + lv
    res = split_t_levels(apply_oracle(d, J) + _star_bracket_oracle(J, J, tmax).scale(Fraction(1, 2)))
    return levels, {k: res.get(k, sys_.zero()).is_zero() for k in range(tmax + 1)}


def test_fedosov_matches_from_scratch_oracle():
    for tmax in range(7):
        sol = fedosov_solve(tmax)
        levels, residual_zero = _fedosov_oracle(tmax)
        assert [lv._terms for lv in sol.levels] == [lv._terms for lv in levels]
        assert sol.residual_zero == residual_zero
        if tmax <= 4:
            res = split_t_levels(sol.mc_residual())
            assert all(res.get(k, sol.system.zero()).is_zero() == v for k, v in sol.residual_zero.items())


def test_star_matches_oracle_on_seeded_pairs(B):
    rng = random.Random(83)
    raised = 0
    for _ in range(200):
        F = random_bexpr(rng, B, max_T=rng.randint(0, 3), max_degree=3, max_dz=2, parity=rng.randint(0, 1))
        G = random_bexpr(rng, B, max_T=rng.randint(0, 3), max_degree=3, max_dz=2, parity=rng.randint(0, 1))
        for tmax in range(5):
            for strict in (True, False):
                try:
                    expect = _star_oracle(F, G, tmax, strict=strict)
                except ValueError:
                    with pytest.raises(ValueError):
                        star(F, G, tmax, strict=strict)
                    raised += 1
                    continue
                assert star(F, G, tmax, strict=strict)._terms == expect._terms
        assert star_bracket(F, G, 3, strict=False)._terms == _star_bracket_oracle(F, G, 3)._terms
    assert raised > 20


def test_star_pieces_swap_by_parity(B):
    """B_s(G, F) = (-1)^{|F||G| + s} B_s(F, G) for the order-s piece B_s of the product."""

    def piece(F, G, s):
        acc = _IntSum()
        (f, den_f), (g, den_g) = _integral(F._terms), _integral(G._terms)
        _add_star_piece(acc, {(0, 0): DiffPoly(B, f)}, {(0, 0): DiffPoly(B, g)}, s, 1, den_f * den_g)
        return acc.poly(B, 0)

    rng = random.Random(89)
    nonzero = {}
    for _ in range(80):
        pf, pg = rng.randint(0, 1), rng.randint(0, 1)
        F = random_bexpr(rng, B, max_T=2, max_degree=3, max_dz=2, parity=pf)
        G = random_bexpr(rng, B, max_T=2, max_degree=3, max_dz=2, parity=pg)
        for s in range(5):
            fg = piece(F, G, s)
            assert piece(G, F, s) == fg.scale((-1) ** (pf * pg + s))
            nonzero[pf * pg, s % 2] = nonzero.get((pf * pg, s % 2), 0) + (not fg.is_zero())
    assert len(nonzero) == 4 and min(nonzero.values()) >= 10


def test_fedosov_solve_work_counts(monkeypatch):
    """Star pieces by parity and one image per derived generator cut the products
    and total derivatives; delta_inv's eigenvector check keeps every derivation
    pass, counted at ``_apply``, which every pass enters."""
    counts = {}
    for cls, name in ((DiffPoly, "_mul_into"), (DiffPoly, "_derive"), (Derivation, "_apply")):
        def counted(*args, _f=getattr(cls, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    sol = fedosov_solve(5)
    delta_inv(sol.j())
    assert counts["_mul_into"] <= 51
    assert counts["_derive"] <= 174
    assert counts["_apply"] == 1039


def _order_digest(polys):
    """sha256 over each expression's terms in order, with coefficient type and value;
    None stands for a call that raised ValueError."""
    rows = [None if p is None else [(key, type(c).__name__, str(c)) for key, c in p._terms.items()] for p in polys]
    assert all(type(c) is Fraction for p in polys if p is not None for c in p._terms.values())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_star_pinned_in_value_term_order_and_type(B):
    """Digests taken from the Fraction-summed star: integer sums must not move a term."""
    rng = random.Random(101)
    products, brackets = [], []
    for _ in range(60):
        F = random_bexpr(rng, B, max_T=rng.randint(0, 3), max_degree=3, max_dz=2, parity=rng.randint(0, 1))
        G = random_bexpr(rng, B, max_T=rng.randint(0, 3), max_degree=3, max_dz=2, parity=rng.randint(0, 1))
        for tmax in range(5):
            for strict in (True, False):
                try:
                    products.append(star(F, G, tmax, strict=strict))
                except ValueError:
                    products.append(None)
        brackets.append(star_bracket(F, G, 3, strict=False))
    assert products.count(None) > 10
    assert _order_digest(products) == "4da451e610428f36c729ffa53065f87741814dcf7a7f154b65d64a4f36775d68"
    assert _order_digest(brackets) == "cdbb41a550f050284e1c3427c3273e50a71e1d863a1c16d95dae650d213ab46d"


def test_fedosov_and_delta_inv_pinned_in_value_term_order_and_type(B):
    """Digests taken from the Fraction-summed solver and homotopy: every level and
    delta_inv(J) for T <= 6, and delta_inv on seeded expressions."""
    polys = []
    for tmax in range(7):
        sol = fedosov_solve(tmax)
        polys += sol.levels + [delta_inv(sol.j())]
    assert _order_digest(polys) == "faa162eb725c0c3cd256818fa7c0992d03cb893500b371528a00739f5886dcc7"
    rng = random.Random(103)
    images = [delta_inv(random_bexpr(rng, B, max_T=3, max_degree=4, max_dz=3)) for _ in range(60)]
    assert _order_digest(images) == "7f7f0daaba0108389c4dfc1a22ba2e092d03aed822a68e99f7508c2444754cc1"


def test_star_associativity_suite_seed_16():
    """An intermediate product whose lowest T-level cancels upward past the
    budget must not make the suite raise."""
    assert run_suite("star-associativity", seed=16, cases=100).failures == 0


def test_fedosov_solve_report_golden(tmp_path):
    """sha256 of the tmax 4 report's expression and residual report, as emitted."""
    from chiralbv.cli import run

    out = tmp_path / "j.json"
    assert run(["fedosov", "solve", "--tmax", "4", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    digest = {k: hashlib.sha256(json.dumps(rep[k]).encode()).hexdigest() for k in ("expression", "residual_report")}
    assert digest == {
        "expression": "3612809c21f23e9130bc40f91b5415b68c13fe5a7a6924f20cfab12f55028d7b",
        "residual_report": "5aaba6b380a49f7825c1b52c01699866b664fa3b6d674afa304bf0294a47007b",
    }

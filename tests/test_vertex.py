import copy
import math
import random
from fractions import Fraction

import pytest

from chiralbv.algebra import Generator, Scalar, System
from chiralbv.vertex import (
    ContractionTable,
    ModeElement,
    bracket_zero_modes,
    make_bcov,
    make_heisenberg,
    mode_bracket,
    mode_normal_form,
    nth_product,
    wick_ope,
)
from chiralbv.properties import make_mixed_system
from chiralbv.sampling import random_diffpoly, random_mode_element


def test_table_graded_symmetry_autofill():
    sys_, tbl = make_mixed_system()
    # c(z)d(w) ~ lam/(z-w)  =>  d(z)c(w) ~ (-1)^{1*1}(-1)^1 lam/(z-w) = +lam/(z-w)
    assert tbl.entry(("d", 0), ("c", 0)) == {1: Scalar(Fraction(1), 1)}
    # a-a double pole symmetric: (+1)(-1)^2 = +
    assert tbl.entry(("a", 0), ("a", 0)) == {2: Scalar(Fraction(1), 1)}


def test_table_rejects_odd_self_pole_of_wrong_parity():
    gens = [Generator("a", 0, 0, 0, Fraction(1))]
    sys_ = System("vertex", gens)
    with pytest.raises(ValueError):
        # even self-pair at odd pole order contradicts graded symmetry
        ContractionTable(sys_, {(("a", 0), ("a", 0)): {1: Scalar.of(1)}})


def test_table_json_roundtrip():
    sys_, tbl = make_mixed_system()
    obj = tbl.to_obj()
    tbl2 = ContractionTable.from_obj(sys_, obj)
    assert tbl2.to_obj() == obj
    # a listed mirror that contradicts graded symmetry is rejected, not replaced
    bad = copy.deepcopy(obj)
    for pair in bad["pairs"]:
        if (pair["a"], pair["b"]) == ("d0", "c0"):
            pair["poles"] = {"1": Scalar.of(7, 1).to_obj()}
    with pytest.raises(ValueError):
        ContractionTable.from_obj(sys_, bad)
    # so is a pair listed twice with different poles
    twice = copy.deepcopy(obj)
    twice["pairs"].append({"a": "a0", "b": "a0", "poles": {"2": Scalar.of(3, 1).to_obj()}})
    with pytest.raises(ValueError):
        ContractionTable.from_obj(sys_, twice)


def test_wick_heisenberg_double_pole():
    sys_, tbl = make_heisenberg(lam_power=1)
    b0 = sys_.monomial([sys_.gen("b", 0)])
    assert wick_ope(b0, b0, tbl) == {1: sys_.one(lam=1)}


def test_wick_b0_squared_oracle():
    """Hand Wick oracle: two double- and four single-contraction pairings."""
    sys_, tbl = make_heisenberg(0)
    b0 = sys_.gen("b", 0)
    B2 = sys_.monomial([b0, b0])
    w = wick_ope(B2, B2, tbl)
    assert w[3] == sys_.one(coef=2)
    assert w[1] == sys_.monomial([b0, b0], coef=4)
    assert w[0] == sys_.monomial([b0, sys_.gen("b", 0, dz=1)], coef=4)
    assert set(w) == {0, 1, 3}


def test_wick_eta_eta_empty_in_bcov():
    sys_, tbl = make_bcov(1)
    eta = sys_.monomial([sys_.gen("eta", 0)])
    assert wick_ope(eta, eta, tbl) == {}


def test_wick_rejects_non_monomial():
    sys_, tbl = make_heisenberg(0)
    b0 = sys_.monomial([sys_.gen("b", 0)])
    with pytest.raises(ValueError):
        wick_ope(b0 + b0.dz(), b0, tbl)


def test_nth_products():
    sys_, tbl = make_heisenberg(1)
    b0 = sys_.monomial([sys_.gen("b", 0)])
    assert nth_product(b0, 1, b0, tbl) == sys_.one(lam=1)
    assert nth_product(b0, 0, b0, tbl).is_zero()
    sys0, tbl0 = make_heisenberg(0)
    B2 = sys0.monomial([sys0.gen("b", 0)] * 2)
    assert nth_product(B2, 0, B2, tbl0) == sys0.monomial(
        [sys0.gen("b", 0), sys0.gen("b", 0, dz=1)], coef=4
    )


def test_virasoro_central_charge_one():
    """T = (1/2):b0^2: reproduces the Virasoro OPE with c = 1."""
    sys_, tbl = make_heisenberg(0)
    T = sys_.monomial([sys_.gen("b", 0)] * 2, coef=Fraction(1, 2))
    w = wick_ope(T, T, tbl)
    assert w[3] == sys_.one(coef=Fraction(1, 2))
    assert w[1] == T.scale(2)
    assert w[0] == T.dz()
    assert set(w) == {0, 1, 3}


def test_mode_bracket_examples():
    sys_, tbl = make_heisenberg(1)
    b0 = sys_.monomial([sys_.gen("b", 0)])
    z0 = ModeElement.zero_mode(b0)
    assert mode_bracket(z0, z0, tbl).is_zero()
    # [b z^1, b z^0] = lam z^0, a total-derivative mode
    z1 = ModeElement(sys_, {1: b0})
    br = mode_bracket(z1, z0, tbl)
    assert br.part(0) == sys_.one(lam=1)
    assert mode_normal_form(br).is_zero()


def test_heisenberg_central_term():
    """[alpha_m, alpha_n] = m delta_{m+n} lam, read from the z^{-1} mode."""
    sys_, tbl = make_heisenberg(1)
    b0 = sys_.monomial([sys_.gen("b", 0)])
    for m in (1, 2):
        br = mode_bracket(ModeElement(sys_, {m: b0}), ModeElement(sys_, {-m: b0}), tbl)
        nf = mode_normal_form(br)
        assert nf.central_part() == {1: Fraction(m)}
        # and mismatched modes vanish
        br2 = mode_bracket(ModeElement(sys_, {m: b0}), ModeElement(sys_, {-m + 1: b0}), tbl)
        assert mode_normal_form(br2).is_zero()


def test_bracket_b0sq_with_b0_is_total_derivative():
    sys_, tbl = make_heisenberg(1)
    b0 = sys_.monomial([sys_.gen("b", 0)])
    B2 = sys_.monomial([sys_.gen("b", 0)] * 2)
    br = mode_bracket(ModeElement.zero_mode(B2), ModeElement.zero_mode(b0), tbl)
    assert br.part(0) == sys_.monomial([sys_.gen("b", 0, dz=1)], coef=2, lam=1)
    assert mode_normal_form(br).is_zero()


def test_zero_mode_fast_path_matches_general():
    sys_, tbl = make_mixed_system()
    rng = random.Random(31)
    for _ in range(25):
        A = random_diffpoly(rng, sys_, max_terms=2, max_degree=3, max_dz=2)
        B = random_diffpoly(rng, sys_, max_terms=2, max_degree=3, max_dz=2)
        fast = bracket_zero_modes(A, B, tbl)
        general = mode_bracket(ModeElement.zero_mode(A), ModeElement.zero_mode(B), tbl)
        assert mode_normal_form(fast - general).is_zero()
        assert fast.part(0) == general.part(0)


def test_mode_normal_form_examples():
    sys_, tbl = make_heisenberg(0)
    b0 = sys_.gen("b", 0)
    db0 = sys_.gen("b", 0, dz=1)
    assert mode_normal_form(ModeElement(sys_, {0: sys_.monomial([db0, b0])})).is_zero()
    nf = mode_normal_form(ModeElement(sys_, {1: sys_.monomial([db0])}))
    assert nf.parts == {0: sys_.monomial([b0], coef=-1)}
    p = sys_.monomial([b0, b0])
    nf = mode_normal_form(ModeElement(sys_, {0: p}))
    assert nf.parts == {0: p}


def test_mode_normal_form_drops_constants_except_central():
    sys_, _ = make_heisenberg(0)
    x = ModeElement(sys_, {2: sys_.one(coef=7), 0: sys_.one(coef=3)})
    assert mode_normal_form(x).is_zero()
    c = ModeElement(sys_, {-1: sys_.one(coef=5)})
    assert mode_normal_form(c).central_part() == {0: Fraction(5)}


def test_mode_normal_form_is_linear_zero_test():
    sys_, tbl = make_mixed_system()
    rng = random.Random(37)
    for _ in range(20):
        X = random_mode_element(rng, sys_, max_terms=2, max_degree=3, max_dz=2)
        # add a random total-derivative mode: d(A z^k) = TA z^k + k A z^{k-1}
        A = random_diffpoly(rng, sys_, max_terms=2, max_degree=3, max_dz=1)
        k = rng.randint(0, 2)
        im = ModeElement(sys_, {k: A.dz()}) + ModeElement(sys_, {k - 1: A.scale(k)})
        assert mode_normal_form(X + im).parts == mode_normal_form(X).parts


def test_mode_element_json_roundtrip():
    sys_, _ = make_mixed_system()
    rng = random.Random(41)
    X = random_mode_element(rng, sys_, zpow_range=(-1, 2), max_terms=3, max_degree=3, max_dz=2)
    assert ModeElement.from_obj(sys_, X.to_obj()).to_obj() == X.to_obj()


def test_energy_momentum_self_ope_invariant():
    """Spec invariant: wick(T,T) = {3: 1/2, 1: 2T, 0: dT} at lam = 1."""
    sys_, tbl = make_heisenberg(0)
    T = sys_.monomial([sys_.gen("b", 0)] * 2, coef=Fraction(1, 2))
    got = wick_ope(T, T, tbl)
    assert got == {3: sys_.one(coef=Fraction(1, 2)), 1: T.scale(2), 0: T.dz()}


def test_mc_residual_of_zero_interaction():
    from chiralbv.vertex import mc_residual, delta_bcov
    sys_, tbl = make_bcov(1)
    assert mc_residual(sys_.zero(), delta_bcov(sys_), tbl).is_zero()


# -- the class-based Wick engine against the single-matching enumerator ----------


def _wick_by_matching(A, B, tbl):
    """Oracle: C_n for all n >= 0, one partial matching of positions at a time."""
    import math

    from chiralbv.algebra import DerivedGenerator, _sort_word

    system = A.system
    (((wordA, lamA), cA),), (((wordB, lamB), cB),) = A._terms.items(), B._terms.items()
    p, q = len(wordA), len(wordB)
    parA = [system.parity(g) for g in wordA]
    parB = [system.parity(g) for g in wordB]
    pair_entry = {}
    for i in range(p):
        for j in range(q):
            a, b = wordA[i].dz, wordB[j].dz
            for k, v in tbl.entry(wordA[i].base_key, wordB[j].base_key).items():
                f = Fraction((-1) ** a * math.factorial(k + a + b - 1), math.factorial(k - 1))
                pair_entry.setdefault((i, j), {})[k + a + b] = v * f
    matchings = []

    def enumerate_matchings(i, used, current):
        if i == p:
            if current:
                matchings.append(list(current))
            return
        enumerate_matchings(i + 1, used, current)
        for j in range(q):
            if (i, j) in pair_entry and j not in used:
                current.append((i, j))
                enumerate_matchings(i + 1, used | {j}, current)
                current.pop()

    enumerate_matchings(0, frozenset(), [])

    def compositions(slots, total_max):
        if slots == 0:
            yield ()
            return
        for first in range(total_max + 1):
            for rest in compositions(slots - 1, total_max - first):
                yield (first,) + rest

    out = {}
    for pairs in matchings:
        entries = [("A", i) for i in range(p)] + [("B", j) for j in range(q)]
        parity_of = lambda e: parA[e[1]] if e[0] == "A" else parB[e[1]]
        sign = 1
        for i, j in pairs:
            pos_i, pos_j = entries.index(("A", i)), entries.index(("B", j))
            if parA[i] and sum(parity_of(e) for e in entries[pos_i + 1 : pos_j]) % 2:
                sign = -sign
            del entries[pos_j]
            del entries[pos_i]
        polemap = {0: Scalar.of(1)}
        for pr in pairs:
            nxt = {}
            for P0, s0 in polemap.items():
                for k, v in pair_entry[pr].items():
                    nxt[P0 + k] = nxt.get(P0 + k, Scalar.of(0, (s0 * v).lam)) + s0 * v
            polemap = {k: v for k, v in nxt.items() if not v.is_zero()}
        if not polemap:
            continue
        remA = [e[1] for e in entries if e[0] == "A"]
        restB = tuple(wordB[e[1]] for e in entries if e[0] == "B")
        for svec in compositions(len(remA), max(polemap) - 1):
            shifted = tuple(
                DerivedGenerator(wordA[i].name, wordA[i].index, wordA[i].dz + s, wordA[i].dt)
                for i, s in zip(remA, svec)
            )
            sw = _sort_word(system, shifted + restB)
            if sw is None:
                continue
            mono, csign = sw
            taylor = Fraction(1, math.prod(math.factorial(s) for s in svec))
            for P, sc in polemap.items():
                n = P - 1 - sum(svec)
                if n >= 0:
                    term = system.poly([(mono, Scalar(cA * cB * taylor * sign * csign * sc.coef,
                                                      lamA + lamB + sc.lam))])
                    out[n] = out.get(n, system.zero()) + term
    return {n: v for n, v in out.items() if not v.is_zero()}


def _monomials(p):
    return [p.system.poly([(w, Scalar(c, lam))]) for (w, lam), c in p._terms.items()]


def _assert_wick_matches_oracle(A, B, tbl):
    full = _wick_by_matching(A, B, tbl)
    for n_min in (0, 1, 2):
        expect = {n: v for n, v in full.items() if n >= n_min}
        assert wick_ope(A, B, tbl, n_min) == expect, (A, B, n_min)


def test_wick_classes_match_oracle_on_w_generators():
    from chiralbv.correspondence import w_generator

    sys_, tbl = make_heisenberg(1)
    W = {k: _monomials(w_generator(k, sys_)) for k in range(1, 8)}
    for a in range(1, 8):
        for b in range(1, 9 - a):
            for A in W[a]:
                for B in W[b]:
                    _assert_wick_matches_oracle(A, B, tbl)


def test_wick_classes_match_oracle_on_bcov_monomials():
    """Random monomials with repeated b0 (the only contracting field) and odd eta."""
    sys_, tbl = make_bcov(3)
    rng = random.Random(43)

    def monomial():
        word = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                word.append(sys_.gen("b", 0, dz=rng.randint(0, 1)))
            else:
                word.append(sys_.gen(rng.choice(("b", "eta")), rng.randint(0, 3), dz=rng.randint(0, 2)))
        return sys_.monomial(word, coef=Fraction(rng.randint(1, 9), rng.randint(1, 4)))

    checked = repeated = 0
    while checked < 484:
        A, B = monomial(), monomial()
        if A.is_zero() or B.is_zero():
            continue
        _assert_wick_matches_oracle(A, B, tbl)
        checked += 1
        repeated += any(w.count(sys_.gen("b", 0)) > 1 for (w, _) in A._terms)
    assert repeated > 50


def test_wick_classes_match_oracle_with_odd_contractions():
    sys_, tbl = make_mixed_system()
    rng = random.Random(47)
    for _ in range(150):
        A = random_diffpoly(rng, sys_, max_terms=1, max_degree=4, max_dz=2)
        B = random_diffpoly(rng, sys_, max_terms=1, max_degree=4, max_dz=2)
        if A.num_terms() == 1 and B.num_terms() == 1:
            _assert_wick_matches_oracle(A, B, tbl)


def test_wick_classes_match_oracle_on_psm_interaction():
    from chiralbv.psm import build_psm, so3_bivector

    for D in (3, 4, 5):
        _, tbl, I = build_psm(so3_bivector(), D)
        terms = _monomials(I)
        for A in terms:
            for B in terms:
                _assert_wick_matches_oracle(A, B, tbl)


def test_class_weights_count_partial_matchings():
    """Summed over the classes of b0^m x b0^n, the weights count every
    partial matching: sum_r C(m, r) n!/(n-r)! nonempty ones."""
    from chiralbv.vertex import _matching_classes

    sys_, tbl = make_heisenberg(0)
    b0 = sys_.gen("b", 0)
    for m in range(1, 7):
        for n in range(1, 7):
            classes = _matching_classes(tbl, [(b0, m, 0)], [(b0, n, 0)])
            total = sum(c for poles in classes.values() for c in poles.values())

            def count(i, used):  # brute force over positions
                if i == m:
                    return 1
                return count(i + 1, used) + sum(count(i + 1, used | {j}) for j in range(n) if j not in used)

            assert total == count(0, frozenset()) - 1, (m, n)
            # one class per number r of contractions, each weighted C(m, r) n!/(n-r)!
            assert {rows[0]: poles for (rows, _), poles in classes.items()} == {
                m - r: {(2 * r, 0): math.comb(m, r) * math.perm(n, r)} for r in range(1, min(m, n) + 1)
            }


def test_import_leaves_scipy_out():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import chiralbv

    src = str(Path(chiralbv.__file__).resolve().parent.parent)
    code = (
        "import sys, chiralbv, chiralbv.cli; assert 'scipy' not in sys.modules; "
        "from chiralbv import ordered_integral; assert 'scipy' in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr

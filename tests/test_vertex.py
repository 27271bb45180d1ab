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
    # a fractional z-power is rejected, not truncated to another mode
    with pytest.raises(ValueError):
        ModeElement.from_obj(sys_, {"parts": [{"zpow": 0.5, "terms": []}]})


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
        polemap = {(0, 0): Fraction(1)}  # (pole order, lam power) -> coefficient
        for pr in pairs:
            nxt = {}
            for (P0, l0), c0 in polemap.items():
                for k, v in pair_entry[pr].items():
                    nxt[(P0 + k, l0 + v.lam)] = nxt.get((P0 + k, l0 + v.lam), 0) + c0 * v.coef
            polemap = {k: v for k, v in nxt.items() if v}
        if not polemap:
            continue
        remA = [e[1] for e in entries if e[0] == "A"]
        restB = tuple(wordB[e[1]] for e in entries if e[0] == "B")
        for svec in compositions(len(remA), max(P for P, _ in polemap) - 1):
            shifted = tuple(
                DerivedGenerator(wordA[i].name, wordA[i].index, wordA[i].dz + s, wordA[i].dt)
                for i, s in zip(remA, svec)
            )
            sw = _sort_word(system, shifted + restB)
            if sw is None:
                continue
            mono, csign = sw
            taylor = Fraction(1, math.prod(math.factorial(s) for s in svec))
            for (P, lam), c in polemap.items():
                n = P - 1 - sum(svec)
                if n >= 0:
                    term = system.poly([(mono, Scalar(cA * cB * taylor * sign * csign * c, lamA + lamB + lam))])
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


def test_shift_multisets_keep_the_former_order():
    """The Taylor-shift order sets the Wick term order: it matches the former
    nested enumeration entry for entry."""
    from chiralbv.vertex import _shift_multisets

    def nondecreasing(slots, left, low):  # the former enumerator
        if slots == 0:
            yield ()
            return
        for s in range(low, left // slots + 1):
            for rest in nondecreasing(slots - 1, left - s, s):
                yield (s,) + rest

    for e in range(7):
        for budget in range(9):
            assert [entry[0] for entry in _shift_multisets(e, budget)] == list(nondecreasing(e, budget, 0)), (e, budget)


# What `import chiralbv, chiralbv.cli` loads, taken in an interpreter started
# with -S; a run with site's preloads adds a subset of it.
IMPORTED_MODULES = frozenset("""
    chiralbv chiralbv.algebra chiralbv.bcov chiralbv.cli chiralbv.correspondence chiralbv.moyal
    chiralbv.properties chiralbv.psm chiralbv.sampling chiralbv.vertex
    __future__ _bisect _collections _collections_abc _decimal _functools _heapq _json _operator _queue
    _random _sha512 _sre _stat _string _typing _weakrefset argparse atexit bisect collections
    collections.abc concurrent concurrent.futures concurrent.futures._base concurrent.futures.thread
    contextlib copyreg decimal enum fractions functools genericpath gettext heapq itertools json
    json.decoder json.encoder json.scanner keyword linecache logging math numbers operator os os.path
    posixpath queue random re re._casefix re._compiler re._constants re._parser reprlib stat string
    textwrap threading token tokenize traceback types typing typing.io typing.re warnings weakref
""".split())


def test_import_leaves_scipy_out():
    """The package and its CLI import no module beyond IMPORTED_MODULES (every
    new one costs set-up time on each fresh interpreter); scipy loads on first
    use of `renorm` only."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import chiralbv

    src = str(Path(chiralbv.__file__).resolve().parent.parent)
    code = (
        "import sys; before = set(sys.modules); import chiralbv, chiralbv.cli; "
        "assert 'scipy' not in sys.modules and 'numpy' not in sys.modules; "
        "assert not {'dataclasses', 'inspect'} & (set(sys.modules) - before), 'record idiom pulls in dataclasses'; "
        f"new = sorted(set(sys.modules) - before - {set(IMPORTED_MODULES)!r}); "
        "assert not new, f'import chiralbv, chiralbv.cli now loads {new}'; "
        "from chiralbv import ordered_integral; assert 'scipy' in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


# -- pair skipping and the skew-symmetric residual against the all-pairs loops ----


def _nth_product_all_pairs(A, n, B, tbl):
    """Oracle: the former nth_product, one fresh Wick expansion per ordered pair of terms."""
    from chiralbv.algebra import _add_scaled, _poly
    from chiralbv.vertex import _wick_terms

    acc = {}
    for (wA, lA), cA in A._terms.items():
        for (wB, lB), cB in B._terms.items():
            for _, den, terms in _wick_terms(tbl, wA, wB, lA + lB, n, n):
                _add_scaled(acc, dict(terms), cA * cB / den)
    return _poly(A.system, acc)


def _mode_bracket_all_pairs(X, Y, tbl):
    """Oracle: the former mode_bracket, one fresh Wick expansion per ordered pair of terms."""
    from chiralbv.algebra import _add_scaled, _poly
    from chiralbv.vertex import _gen_binom, _wick_terms

    acc = {}
    for m, Am in X.parts.items():
        j_max = m if m >= 0 else None
        for n, Bn in Y.parts.items():
            for (wA, lA), cA in Am._terms.items():
                for (wB, lB), cB in Bn._terms.items():
                    for j, den, Cj in _wick_terms(tbl, wA, wB, lA + lB, 0, j_max):
                        _add_scaled(acc.setdefault(m + n - j, {}), dict(Cj), _gen_binom(m, j) * cA * cB / den)
    return ModeElement(X.system, {k: _poly(X.system, t) for k, t in acc.items()})


def _mc_residual_all_pairs(I, delta, tbl, hbar_inv=Scalar(Fraction(1), -1)):
    """Oracle: the normal form of delta(I) + (1/2) hbar_inv [I, I] over all ordered pairs."""
    X = ModeElement.zero_mode(I)
    return mode_normal_form(ModeElement.zero_mode(delta(I)) + _mode_bracket_all_pairs(X, X, tbl).scale(
        hbar_inv * Fraction(1, 2)))


def _same_terms(p, q):
    """Equal term for term, in the same order."""
    return list(p._terms.items()) == list(q._terms.items())


def _same_modes(X, Y):
    return list(X.parts) == list(Y.parts) and all(_same_terms(X.parts[k], Y.parts[k]) for k in X.parts)


def _log_canonical(rng, dim, linear):
    from chiralbv.psm import PoissonBivector

    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            e = tuple((k == i) + (k == j) for k in range(dim))
            entries[(i, j)] = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))}
    if linear:
        i, j = sorted(rng.sample(range(dim), 2))
        entries[(i, j)][tuple(int(m == rng.randrange(dim)) for m in range(dim))] = Fraction(rng.randint(1, 9))
    return PoissonBivector(dim, entries)


def test_mc_residual_matches_all_pairs_on_psm():
    """Value and term order, on every seeded PSM interaction."""
    from chiralbv.psm import build_psm, non_jacobi_bivector, psm_delta, so3_bivector
    from chiralbv.vertex import mc_residual

    rng = random.Random(53)
    bivectors = [_log_canonical(rng, dim, linear) for dim in (3, 4, 5) for linear in (False, True)]
    nonzero = 0
    for P in bivectors + [so3_bivector(), non_jacobi_bivector()]:
        for D in (3, 4, 5, 6):
            sys_, tbl, I = build_psm(P, D)
            delta = psm_delta(sys_, P.dim)
            got = mc_residual(I, delta, tbl)
            assert _same_modes(got, _mc_residual_all_pairs(I, delta, tbl)), (P.entries, D)
            nonzero += not got.is_zero()
    assert nonzero > 10


def test_mc_residual_matches_all_pairs_mod_d_with_both_parities():
    """Value and term order, on interactions whose terms have both parities
    (weight-0 pairs) and on BCOV interactions."""
    from chiralbv.algebra import Derivation
    from chiralbv.vertex import delta_bcov, mc_residual

    sys_, tbl = make_mixed_system()
    delta = Derivation.from_base_rules(sys_, 1, {("a", 0): sys_.monomial([sys_.gen("c", 0, dz=1)])})
    rng = random.Random(59)
    mixed = 0
    for _ in range(100):
        I = random_diffpoly(rng, sys_, max_terms=5, max_degree=3, max_dz=2)
        got = mc_residual(I, delta, tbl)
        assert _same_modes(got, _mc_residual_all_pairs(I, delta, tbl))
        mixed += len({sys_.word_parity(w) for (w, _) in I._terms}) == 2 and not got.is_zero()
    assert mixed > 20
    bsys, btbl = make_bcov(3)
    bdelta = delta_bcov(bsys)
    for _ in range(100):
        I = random_diffpoly(rng, bsys, max_terms=4, max_degree=3, max_dz=2)
        for hbar_inv in (Scalar(Fraction(1), -1), Scalar.of(3)):
            got = mc_residual(I, bdelta, btbl, hbar_inv)
            assert _same_modes(got, _mc_residual_all_pairs(I, bdelta, btbl, hbar_inv))


def test_normal_form_term_order_depends_only_on_value():
    """One value, one term order: the residual built from all ordered pairs,
    the same terms listed in reverse, and the skew-paired residual of
    `mc_residual` (equal to them only modulo d) normal-form alike."""
    from chiralbv.algebra import Derivation, DiffPoly
    from chiralbv.vertex import _pairs, _product_sum, _split_terms

    sys_, tbl = make_mixed_system()
    delta = Derivation.from_base_rules(sys_, 1, {("a", 0): sys_.monomial([sys_.gen("c", 0, dz=1)])})
    rng = random.Random(59)
    nonzero = 0
    for _ in range(100):
        I = random_diffpoly(rng, sys_, max_terms=5, max_degree=3, max_dz=2)
        raw = delta(I) + nth_product(I, 0, I, tbl)
        builds = [raw, DiffPoly(sys_, dict(reversed(raw._terms.items()))),
                  delta(I) + _product_sum(sys_, tbl, 0, _pairs(_split_terms(I, tbl)))]
        nfs = [mode_normal_form(ModeElement.zero_mode(p)) for p in builds]
        assert all(_same_modes(nf, nfs[0]) for nf in nfs[1:])
        nonzero += nfs[0].part(0).num_terms() > 1
    assert nonzero > 20


def test_central_constants_in_canonical_order():
    """The z^-1 constants of a normal form list their lam-powers in canonical
    order whatever the input order: the same value, the same terms in order."""
    sys_, tbl = make_heisenberg(0)
    b0 = sys_.gen("b", 0)
    Y = ModeElement(sys_, {-1: sys_.monomial([b0])})
    one, two = sys_.monomial([b0]), sys_.monomial([b0], coef=2, lam=1)
    forms = [mode_normal_form(mode_bracket(ModeElement(sys_, {1: x}), Y, tbl)) for x in (one + two, two + one)]
    assert forms[0].central_part() == {0: Fraction(1), 1: Fraction(2)}
    assert all(list(nf.part(-1)._terms.items()) == [(((), 0), Fraction(1)), (((), 1), Fraction(2))]
               for nf in forms)


def test_pair_skip_matches_all_pairs():
    """The skip drops only pairs that contribute nothing: the same terms in the same order."""
    from chiralbv.correspondence import w_generator

    cases = []
    bsys, btbl = make_bcov(3)
    msys, mtbl = make_mixed_system()
    rng = random.Random(61)
    for sys_, tbl in ((bsys, btbl), (msys, mtbl)):
        for _ in range(60):
            A, B = (random_diffpoly(rng, sys_, max_terms=4, max_degree=3, max_dz=2) for _ in "AB")
            cases.append((A, B, tbl))
    hsys, htbl = make_heisenberg(1)
    W = [w_generator(k, hsys) for k in range(1, 6)]
    cases += [(A, B, htbl) for A in W for B in W]
    for A, B, tbl in cases:
        for n in (0, 1, 2):
            assert _same_terms(nth_product(A, n, B, tbl), _nth_product_all_pairs(A, n, B, tbl))
    for sys_, tbl in ((bsys, btbl), (msys, mtbl)):
        for _ in range(40):
            X, Y = (random_mode_element(rng, sys_, zpow_range=(-1, 2), max_terms=3, max_degree=3, max_dz=2)
                    for _ in "XY")
            assert _same_modes(mode_bracket(X, Y, tbl), _mode_bracket_all_pairs(X, Y, tbl))
    for A in W:
        for B in W:
            X, Y = ModeElement(hsys, {1: A, -1: A.dz()}), ModeElement(hsys, {0: B, 2: B})
            assert _same_modes(mode_bracket(X, Y, htbl), _mode_bracket_all_pairs(X, Y, htbl))


def test_mc_residual_wick_calls_count_contractible_pairs(monkeypatch):
    """One Wick expansion per pair i <= k of nonzero weight that can contract."""
    from chiralbv import vertex
    from chiralbv.psm import build_psm, psm_delta, so3_bivector

    sys_, tbl, I = build_psm(so3_bivector(), 5)
    calls = []
    wick = vertex._wick_terms
    monkeypatch.setattr(vertex, "_wick_terms", lambda *args: calls.append(1) or wick(*args))
    vertex._cached_wick_terms.cache_clear()  # a warm cache would expand nothing
    vertex.mc_residual(I, psm_delta(sys_, 3), tbl)

    words = [w for (w, _) in I._terms]
    odd = [sys_.word_parity(w) for w in words]
    expected = sum(
        1
        for i in range(len(words))
        for k in range(i, len(words))
        if (i == k or odd[i] * odd[k])
        and any(tbl.entry(a.base_key, b.base_key) for a in words[i] for b in words[k])
    )
    assert len(calls) == expected
    assert 0 < expected < len(words) ** 2 / 2


def test_table_from_another_system_raises():
    from chiralbv.psm import build_psm, non_jacobi_bivector, psm_delta
    from chiralbv.vertex import mc_residual

    sys_, tbl, I = build_psm(non_jacobi_bivector(), 4)
    _, foreign = make_bcov(2)
    delta = psm_delta(sys_, 3)
    X = ModeElement.zero_mode(I)
    mono = sys_.monomial([sys_.gen("phi", 0), sys_.gen("etaw", 0)])
    for call in (
        lambda t: mc_residual(I, delta, t),
        lambda t: mode_bracket(X, X, t),
        lambda t: nth_product(I, 0, I, t),
        lambda t: wick_ope(mono, mono, t),
    ):
        with pytest.raises(ValueError, match="different systems"):
            call(foreign)
    # a system declared alike is the same system
    sys2, tbl2, _ = build_psm(non_jacobi_bivector(), 4)
    assert sys2 is not sys_ and sys2.signature == sys_.signature
    residual = mc_residual(I, delta, tbl2)
    assert not residual.is_zero() and residual.parts == mc_residual(I, delta, tbl).parts
    assert mode_bracket(X, X, tbl2).parts == mode_bracket(X, X, tbl).parts
    assert nth_product(I, 0, I, tbl2) == nth_product(I, 0, I, tbl)
    assert wick_ope(mono, mono, tbl2) == wick_ope(mono, mono, tbl) != {}


# -- the Wick cache ---------------------------------------------------------------


def test_recoefficiented_interaction_expands_nothing_afresh(monkeypatch):
    """The cached OPE holds no coefficient: a bivector with the same monomials
    and new coefficients, on a fresh system, hits on every pair."""
    from chiralbv import vertex
    from chiralbv.psm import PoissonBivector, build_psm, psm_delta

    assert vertex._cached_wick_terms.cache_info().maxsize is not None
    rng = random.Random(67)
    P = _log_canonical(rng, 4, True)
    Q = PoissonBivector(P.dim, {ij: {e: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for e in poly}
                                for ij, poly in P.entries.items()})
    sys_, tbl, I = build_psm(P, 5)
    vertex.mc_residual(I, psm_delta(sys_, 4), tbl)
    sys2, tbl2, J = build_psm(Q, 5)
    delta2 = psm_delta(sys2, 4)
    assert sys2 is not sys_ and set(J._terms) <= set(I._terms)
    oracle = _mc_residual_all_pairs(J, delta2, tbl2)
    calls = []
    wick = vertex._wick_terms
    monkeypatch.setattr(vertex, "_wick_terms", lambda *args: calls.append(1) or wick(*args))
    got = vertex.mc_residual(J, delta2, tbl2)
    assert calls == []
    assert not got.is_zero() and _same_modes(got, oracle)


def _multi_pole_table(a_poles, c_poles, order):
    """Two even fields a0, a1 and an odd pair c0, d0 with multi-pole contractions
    whose lam-powers differ by pole order; ``order`` lists the pairs and their
    poles reversed, and gives the odd pair by its mirror d0 c0."""
    gens = [Generator("a", 0, 0, 0, Fraction(1)), Generator("a", 1, 0, 0, Fraction(1)),
            Generator("c", 0, 1, 1, Fraction(1)), Generator("d", 0, 1, -1, Fraction(0))]
    sys_ = System("vertex", gens)
    entries = {(("a", 0), ("a", 1)): a_poles, (("c", 0), ("d", 0)): c_poles}
    if order == "reversed":
        # c_k(d, c) = (-1)^{p(c)p(d)} (-1)^k c_k(c, d)
        mirror = {k: Scalar(v.coef * (-1) ** (1 + k), v.lam) for k, v in reversed(list(c_poles.items()))}
        entries = {(("d", 0), ("c", 0)): mirror, (("a", 0), ("a", 1)): dict(reversed(list(a_poles.items())))}
    return sys_, ContractionTable(sys_, entries)


def test_tables_declared_alike_share_wick_entries_and_term_order():
    from chiralbv import vertex

    a_poles = {1: Scalar.of(2), 2: Scalar(Fraction(1, 3), 1), 3: Scalar.of(-1, 2)}
    c_poles = {1: Scalar.of(1, 1), 2: Scalar.of(5)}
    sys_, tbl = _multi_pole_table(a_poles, c_poles, "listed")
    _, alike = _multi_pole_table(a_poles, c_poles, "reversed")
    assert alike == tbl and hash(alike) == hash(tbl) and alike.signature == tbl.signature
    rng = random.Random(73)
    pairs = []
    while len(pairs) < 40:
        A, B = (random_diffpoly(rng, sys_, max_terms=1, max_degree=4, max_dz=1) for _ in "AB")
        if A.num_terms() == 1 and B.num_terms() == 1 and len(wick_ope(A, B, tbl)) > 1:
            pairs.append((A, B))
    cache = vertex._cached_wick_terms
    cache.cache_clear()
    vertex._shared.cache_clear()  # else the first table seen would stand in for alike
    fresh_alike = [wick_ope(A, B, alike) for A, B in pairs]
    cache.cache_clear()
    vertex._shared.cache_clear()
    fresh = [wick_ope(A, B, tbl) for A, B in pairs]
    misses = cache.cache_info().misses
    shared = [wick_ope(A, B, alike) for A, B in pairs]
    assert cache.cache_info().misses == misses
    for got in (fresh_alike, shared):
        for w, v in zip(got, fresh):
            assert list(w) == list(v) and all(_same_terms(w[n], v[n]) for n in w)
    # one pole coefficient changed: the table's own entries, right by the oracle
    _, other = _multi_pole_table({**a_poles, 2: Scalar(Fraction(1, 7), 1)}, c_poles, "listed")
    assert other != tbl
    for A, B in pairs:
        _assert_wick_matches_oracle(A, B, other)
    assert cache.cache_info().misses > misses


def test_wick_cache_shared_across_threads():
    """Threads that share the cold cache get the serial results, term for term."""
    import sys
    import threading

    from chiralbv import vertex
    from chiralbv.correspondence import w_generator
    from chiralbv.psm import build_psm, psm_delta

    rng = random.Random(79)
    bivectors = [_log_canonical(rng, dim, linear) for dim in (3, 4) for linear in (False, True)]
    hsys, htbl = make_heisenberg(1)
    W = [w_generator(k, hsys) for k in range(1, 5)]

    def residual(P, D):
        sys_, tbl, I = build_psm(P, D)
        return vertex.mc_residual(I, psm_delta(sys_, P.dim), tbl)

    def bracket(A, B):
        return mode_bracket(ModeElement(hsys, {1: A, -1: A.dz()}), ModeElement(hsys, {0: B, 2: B}), htbl)

    jobs = [(residual, P, D) for P in bivectors for D in (3, 4)] + [(bracket, A, B) for A in W for B in W]
    serial = [fn(*args) for fn, *args in jobs]
    workers, results, errors = 6, {}, []

    def work(t):
        try:
            order = jobs[t:] + jobs[:t]  # each thread meets the keys in another order
            results[t] = [fn(*args) for fn, *args in order]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    vertex._cached_wick_terms.cache_clear()
    vertex._shared.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and sorted(results) == list(range(workers))
    for t, got in results.items():
        for k, X in enumerate(got):
            assert _same_modes(X, serial[(k + t) % len(jobs)]), (t, k)


def _wick_cases():
    """Monomial pairs on the Heisenberg W-generators, the so3 PSM interaction,
    the mixed system and a table with a fractional pole coefficient."""
    from chiralbv.correspondence import w_generator
    from chiralbv.psm import build_psm, so3_bivector

    hsys, htbl = make_heisenberg(1)
    W = [m for k in range(1, 6) for m in _monomials(w_generator(k, hsys))]
    cases = [(A, B, htbl) for A in W for B in W]
    _, ptbl, I = build_psm(so3_bivector(), 5)
    cases += [(A, B, ptbl) for A in _monomials(I) for B in _monomials(I)]
    rng = random.Random(83)
    for sys_, tbl in (make_mixed_system(), _multi_pole_table(
            {1: Scalar.of(2), 2: Scalar(Fraction(1, 3), 1)}, {1: Scalar.of(1, 1), 2: Scalar.of(5)}, "listed")):
        for _ in range(100):
            A, B = (random_diffpoly(rng, sys_, max_terms=1, max_degree=4, max_dz=2) for _ in "AB")
            if A.num_terms() == 1 and B.num_terms() == 1:
                cases.append((A, B, tbl))
    return cases


def test_wick_entries_hold_int_numerators_over_least_denominator():
    """Each cached entry (n, den, numerators) holds ints over the least common
    denominator of its coefficients."""
    from chiralbv import vertex

    fractional = 0
    for A, B, tbl in _wick_cases():
        (((wA, lA), _),), (((wB, lB), _),) = A._terms.items(), B._terms.items()
        for n_min, n_max in ((0, None), (1, 1)):
            for n, den, nums in vertex._cached_wick_terms(vertex._shared(tbl), wA, wB, lA + lB, n_min, n_max):
                assert all(type(c) is int for _, c in nums)
                assert den == math.lcm(*(Fraction(c, den).denominator for _, c in nums)), (A, B, n)
                fractional += den > 1
    assert fractional > 50


def test_products_return_fraction_coefficients():
    """Integer sums inside, Fractions out, integral values included."""
    from chiralbv.correspondence import w_generator
    from chiralbv.psm import build_psm, non_jacobi_bivector, psm_delta
    from chiralbv.vertex import mc_residual

    def fractions(*polys):
        return all(type(c) is Fraction for p in polys for c in p._terms.values())

    seen = 0
    for A, B, tbl in _wick_cases()[::7]:
        assert fractions(*wick_ope(A, B, tbl).values())
        seen += bool(wick_ope(A, B, tbl))
    hsys, htbl = make_heisenberg(1)
    W = [w_generator(k, hsys) for k in range(1, 5)]
    integral = 0
    for A in W:
        for B in W:
            assert all(fractions(nth_product(A, n, B, htbl)) for n in (0, 1, 2))
            br = mode_bracket(ModeElement(hsys, {1: A, -1: A.dz()}), ModeElement(hsys, {0: B, 2: B}), htbl)
            assert fractions(*br.parts.values())
            integral += sum(c.denominator == 1 for p in br.parts.values() for c in p._terms.values())
    sys_, tbl, I = build_psm(non_jacobi_bivector(), 4)
    residual = mc_residual(I, psm_delta(sys_, 3), tbl)
    assert not residual.is_zero() and fractions(*residual.parts.values())
    assert seen > 50 and integral > 50

import functools
import math
import random
from fractions import Fraction

import pytest

from chiralbv.algebra import (
    Derivation,
    DerivedGenerator,
    DiffPoly,
    Generator,
    Scalar,
    System,
    _add_scaled,
    _IntSum,
    canonicalize,
    euler_derivative,
    ibp_decompose,
)
from chiralbv.properties import make_mixed_system
from chiralbv.sampling import random_diffpoly


@pytest.fixture
def toy():
    gens = [Generator("b", 0, 0, 0, Fraction(1))] + [
        Generator("eta", k, 1, 1, Fraction(-k)) for k in range(3)
    ]
    return System("vertex", gens)


def test_scalar_arithmetic():
    a = Scalar.of(Fraction(1, 2), 1)
    b = Scalar.of(3, 1)
    assert (a * b) == Scalar.of(Fraction(3, 2), 2)
    assert (a + b) == Scalar.of(Fraction(7, 2), 1)
    with pytest.raises(ValueError):
        Scalar.of(1, 0) + Scalar.of(1, 1)


def test_scalar_json_roundtrip():
    s = Scalar.of(Fraction(-5, 7), -2)
    assert Scalar.from_obj(s.to_obj()) == s


def test_records_are_immutable():
    from chiralbv.correspondence import BackgroundSubstitution

    for record, field in ((Scalar.of(1), "coef"), (Generator("b", 0, 0, 0, Fraction(1)), "cw"),
                          (BackgroundSubstitution(3), "kmax")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)


def test_int_sum_matches_fraction_sums(toy):
    """Integer numerators over a denominator that grows as terms arrive sum
    exactly as Fractions do, per bucket, with keys in first-seen order and
    zero sums dropped; `add` and writes through `target` mix freely."""
    b0, e1 = toy.gen("b", 0), toy.gen("eta", 1)
    keys = [(w, lam) for w in ((b0,), (b0, b0), (b0, e1), (e1,)) for lam in range(2)]
    rng = random.Random(13)
    grown = zeros = 0
    for _ in range(60):
        acc, expect = _IntSum(), {}
        for _ in range(rng.randint(1, 8)):
            bucket, num, den = rng.randint(-1, 1), rng.randint(-2, 2), rng.choice([1, 2, 3, 4, 6, 9, 10, 35])
            nums = [(key, rng.randint(-3, 3)) for key in rng.sample(keys, rng.randint(1, 4))]
            had, old_den = any(acc.buckets.values()), acc.den
            if rng.randint(0, 1):
                acc.add(bucket, nums, num, den)
            else:
                target, scale = acc.target(bucket, den)
                _add_scaled(target, dict(nums), num * scale)
            grown += had and acc.den != old_den
            for key, c in nums:
                e = expect.setdefault(bucket, {})
                e[key] = e.get(key, 0) + Fraction(num * c, den)
        for bucket, e in expect.items():
            got = acc.poly(toy, bucket)._terms
            assert list(got.items()) == [(key, c) for key, c in e.items() if c]
            assert all(type(c) is Fraction for c in got.values())
            zeros += sum(not c for c in e.values())
    assert grown > 30 and zeros > 30


def test_canonicalize_even_odd_swap(toy):
    b0, e0 = toy.gen("b", 0), toy.gen("eta", 0)
    p = canonicalize(toy, [((e0, b0), Scalar.of(1))])
    assert p == toy.monomial([b0, e0])


def test_canonicalize_odd_square_vanishes(toy):
    e0 = toy.gen("eta", 0)
    assert canonicalize(toy, [((e0, e0), Scalar.of(1))]).is_zero()


def test_canonicalize_odd_odd_transposition(toy):
    e0, e1 = toy.gen("eta", 0), toy.gen("eta", 1)
    p = canonicalize(toy, [((e1, e0), Scalar.of(1))])
    assert p == toy.monomial([e0, e1], coef=-1)


def test_canonicalize_idempotent_on_permutations(toy):
    rng = random.Random(7)
    b0 = toy.gen("b", 0, dz=1)
    e0, e1 = toy.gen("eta", 0), toy.gen("eta", 1, dz=2)
    word = [b0, e0, e1, toy.gen("b", 0)]
    base = toy.monomial(word)
    # permutations reproduce the same poly up to the Koszul sign
    seen = set()
    for _ in range(10):
        perm = word[:]
        rng.shuffle(perm)
        q = toy.monomial(perm)
        assert q == base or q == -base
        seen.add(q == base)


def test_grade_examples(toy):
    b0 = toy.monomial([toy.gen("b", 0)])
    assert b0.grade() == (0, 1, 0, 1)
    mixed = b0 + toy.monomial([toy.gen("eta", 0)])
    assert mixed.grade() is None


def test_grade_lambda_contributes_dim():
    sys_, _ = make_mixed_system()
    p = sys_.monomial([sys_.gen("a", 0)], lam=1)
    g = p.grade()
    assert (g.deg, g.cw, g.dim, g.hw) == (0, 1, -2, 3)


def test_apply_T_leibniz(toy):
    b0, e0 = toy.gen("b", 0), toy.gen("eta", 0)
    p = toy.monomial([b0, e0])
    expect = toy.monomial([toy.gen("b", 0, dz=1), e0]) + toy.monomial([b0, toy.gen("eta", 0, dz=1)])
    assert p.dz() == expect
    assert toy.one(coef=5).dz().is_zero()


def test_euler_examples(toy):
    b0 = toy.gen("b", 0)
    db0 = toy.gen("b", 0, dz=1)
    d2b0 = toy.gen("b", 0, dz=2)
    assert euler_derivative(toy.monomial([db0, b0]), "b", 0).is_zero()
    assert euler_derivative(toy.monomial([b0, b0]), "b", 0) == toy.monomial([b0], coef=2)
    # hand oracle: d/db0 part gives d2b0, d/d(d2 b0) part gives (-T)^2 b0 = d2b0
    assert euler_derivative(toy.monomial([b0, d2b0]), "b", 0) == toy.monomial([d2b0], coef=2)


def test_euler_vanishes_on_total_derivatives():
    sys_, _ = make_mixed_system()
    rng = random.Random(11)
    for _ in range(25):
        p = random_diffpoly(rng, sys_, max_terms=3, max_degree=4, max_dz=3, lam_range=(0, 1))
        Tp = p.dz()
        for g in sys_.generators():
            assert euler_derivative(Tp, g.name, g.index).is_zero()


def test_ibp_examples(toy):
    b0 = toy.gen("b", 0)
    db0 = toy.gen("b", 0, dz=1)
    d2b0 = toy.gen("b", 0, dz=2)
    C, h = ibp_decompose(toy.monomial([db0, b0]))
    assert C == toy.monomial([b0, b0], coef=Fraction(1, 2)) and h.is_zero()
    C, h = ibp_decompose(toy.monomial([b0, b0]))
    assert C.is_zero() and h == toy.monomial([b0, b0])
    p = toy.monomial([d2b0, b0])
    C, h = ibp_decompose(p)
    assert C == toy.monomial([b0, db0]) and h == toy.monomial([db0, db0], coef=-1)
    assert C.dz() + h == p


def test_ibp_cache_shared_by_systems_declared_alike():
    """The slice cache is bounded and keyed by the declaration, not the object."""
    from chiralbv.algebra import _slice_reduction

    def declare(order):
        gens = [Generator("b", 0, 0, 0, Fraction(1)), Generator("eta", 0, 1, 1, Fraction(-1, 2))]
        return System("vertex", gens[::order])

    first, second = declare(1), declare(-1)
    assert first.signature == second.signature
    assert first.signature != System("moyal", first.generators()).signature
    _slice_reduction.cache_clear()
    C1, h1 = ibp_decompose(first.monomial([first.gen("b", 0, dz=2), first.gen("eta", 0)]))
    misses = _slice_reduction.cache_info().misses
    C2, h2 = ibp_decompose(second.monomial([second.gen("b", 0, dz=2), second.gen("eta", 0)]))
    assert _slice_reduction.cache_info().misses == misses
    assert (C1._terms, h1._terms) == (C2._terms, h2._terms)
    assert _slice_reduction.cache_info().maxsize is not None


def test_ibp_reconstruction_random():
    sys_, _ = make_mixed_system()
    rng = random.Random(13)
    for _ in range(40):
        p = random_diffpoly(rng, sys_, max_terms=4, max_degree=4, max_dz=3, lam_range=(0, 1))
        p = p.filter(lambda w, l: bool(w))
        C, h = ibp_decompose(p)
        assert C.dz() + h == p
        # h = 0 iff p in im T, certified by the euler operator
        if h.is_zero():
            for g in sys_.generators():
                assert euler_derivative(p, g.name, g.index).is_zero()


def test_ibp_detects_image_of_T():
    sys_, _ = make_mixed_system()
    rng = random.Random(17)
    for _ in range(25):
        q = random_diffpoly(rng, sys_, max_terms=3, max_degree=3, max_dz=2)
        C, h = ibp_decompose(q.dz())
        assert h.is_zero()


def test_ibp_rejects_constant_term(toy):
    with pytest.raises(ValueError):
        ibp_decompose(toy.one() + toy.monomial([toy.gen("b", 0)]))


def test_mul_koszul_signs(toy):
    e0, e1 = toy.monomial([toy.gen("eta", 0)]), toy.monomial([toy.gen("eta", 1)])
    assert e0.mul(e1) == -e1.mul(e0)
    assert e0.mul(e0).is_zero()


def test_derivative_sign_through_odd_factor(toy):
    # partial derivative is a graded left derivative
    e0, e1 = toy.gen("eta", 0), toy.gen("eta", 1)
    p = toy.monomial([e0, e1])
    assert p.partial(e1) == toy.monomial([e0], coef=-1)
    assert p.partial(e0) == toy.monomial([e1])


def test_undeclared_generator_rejected(toy):
    with pytest.raises(KeyError):
        toy.gen("x", 0)
    with pytest.raises(KeyError):
        toy.poly([((DerivedGenerator("x", 0, 0, 0),), Scalar.of(1))])


def test_expression_json_roundtrip():
    sys_, _ = make_mixed_system()
    rng = random.Random(23)
    import json

    for _ in range(10):
        p = random_diffpoly(rng, sys_, max_terms=4, max_degree=3, max_dz=2, lam_range=(-1, 2))
        obj = p.to_obj()
        q = DiffPoly.from_obj(sys_, obj)
        assert q == p
        # bit-exact round trip of the serialized form
        assert json.dumps(obj, sort_keys=True) == json.dumps(q.to_obj(), sort_keys=True)


# -- oracles: the from-scratch forms the fast paths replaced -----------------


def _sort_word_oracle(system, word):
    """Insertion sort recomputing the key at every comparison."""
    key = lambda dg: (dg.name, dg.index, dg.dt, dg.dz)
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and key(w[j]) < key(w[j - 1]):
            if system.parity(w[j]) and system.parity(w[j - 1]):
                sign = -sign
            w[j], w[j - 1] = w[j - 1], w[j]
            j -= 1
    for a, b in zip(w, w[1:]):
        if a == b and system.parity(a):
            return None
    return tuple(w), sign


def _apply_derivation_oracle(D, p):
    """monomial(left) * image * monomial(right) for every factor."""
    sys_ = D.system
    out = sys_.zero()
    for (word, lam), c in p._terms.items():
        before = 0
        for i, dg in enumerate(word):
            img = D.rule(dg)
            if not img.is_zero():
                sign = -1 if (D.parity and before % 2) else 1
                left = sys_.monomial(word[:i], coef=sign * c, lam=lam)
                right = sys_.monomial(word[i + 1 :])
                out = out + left.mul(img).mul(right)
            before += sys_.parity(dg)
    return out


def _derive_oracle(p, slot):
    """The former DiffPoly._derive: one total derivative by a hand-written Leibniz loop."""
    from chiralbv.algebra import _poly, _sort_word

    sys_ = p.system
    acc = {}
    for (word, lam), c in p._terms.items():
        for i, dg in enumerate(word):
            if slot == "dz":
                ndg = DerivedGenerator(dg.name, dg.index, dg.dz + 1, dg.dt)
            else:
                ndg = DerivedGenerator(dg.name, dg.index, dg.dz, dg.dt + 1)
            sw = _sort_word(sys_, word[:i] + (ndg,) + word[i + 1 :])
            if sw is not None:
                v = c if sw[1] > 0 else -c
                key = (sw[0], lam)
                old = acc.get(key)
                acc[key] = v if old is None else old + v
    return _poly(sys_, acc)


def _partial_oracle(p, dg):
    """The former DiffPoly.partial: a hand-written graded left partial derivative."""
    from chiralbv.algebra import _poly

    sys_ = p.system
    p_dg = sys_.parity(dg)
    acc = {}
    for (word, lam), c in p._terms.items():
        before = 0
        for i, g in enumerate(word):
            if g == dg:
                v = -c if (p_dg and before % 2) else c
                key = (word[:i] + word[i + 1 :], lam)
                old = acc.get(key)
                acc[key] = v if old is None else old + v
            before += sys_.parity(g)
    return _poly(sys_, acc)


def _typed_terms(p):
    """Terms in order, each with its coefficient's type: equal iff value, term order and types agree."""
    return [(key, type(c).__name__, c) for key, c in p._terms.items()]


def test_total_and_partial_derivatives_match_former_loops():
    """dz, dt and partial, now derivations, equal the former hand-written loops
    in value, term order and coefficient type: on vertex and moyal systems,
    with int and Fraction coefficients, for odd and even generators."""
    from chiralbv.moyal import make_b_system

    rng = random.Random(109)
    mixed, _ = make_mixed_system()
    covered = set()
    for sys_ in (mixed, make_b_system()):
        for n in range(160):
            p = random_diffpoly(rng, sys_, max_terms=4, max_degree=4, max_dz=2, max_dt=2, lam_range=(-1, 1))
            if n % 2:  # integer coefficients, as the Moyal product's derivative chains hold them
                p = DiffPoly(sys_, {key: int(6 * c) for key, c in p._terms.items()})
            slots = ("dz", "dt") if sys_.species == "moyal" else ("dz",)
            for slot in slots:
                expect = p
                for k in (1, 2, 3):
                    expect = _derive_oracle(expect, slot)
                    assert _typed_terms(getattr(p, slot)(k)) == _typed_terms(expect), (slot, k)
            for dg in {dg for (word, _) in p._terms for dg in word}:
                got = p.partial(dg)
                assert _typed_terms(got) == _typed_terms(_partial_oracle(p, dg)), dg
                if not got.is_zero():
                    covered.add((sys_.species, sys_.parity(dg), type(next(iter(got._terms.values()))).__name__))
    assert len(covered) == 8, covered


def test_total_derivative_memo_shared_by_threads():
    """Threads sharing one System fill its total-derivative memos concurrently
    and get the images a single thread gets, in value and term order."""
    import sys
    import threading

    from chiralbv.moyal import make_b_system

    def inputs(system):
        rng = random.Random(127)
        return [random_diffpoly(rng, system, max_terms=4, max_degree=4, max_dz=3, max_dt=3) for _ in range(40)]

    def images(ps):
        return [list(p.dz(2).dt()._terms.items()) for p in ps]

    expect, shared = images(inputs(make_b_system())), inputs(make_b_system())
    results, interval = [None] * 8, sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda k=k: results.__setitem__(k, images(shared))) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == [expect] * 8


def test_sort_word_matches_oracle_on_repeated_odd_factors():
    from chiralbv.algebra import _sort_word
    from chiralbv.moyal import make_b_system

    rng = random.Random(71)
    mixed, _ = make_mixed_system()
    B = make_b_system()
    vanished = 0
    for n in range(20000):
        sys_ = mixed if n % 2 else B
        pool = [DerivedGenerator(g.name, g.index, rng.randint(0, 1), rng.randint(0, 1) if sys_ is B else 0)
                for g in sys_.generators() for _ in range(2)]
        word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 7)))
        got = _sort_word(sys_, word)
        assert got == _sort_word_oracle(sys_, word), word
        vanished += got is None
    assert vanished > 2000


def test_derivations_match_oracle():
    from chiralbv.moyal import delta_b, delta_star, make_b_system
    from chiralbv.psm import build_psm, psm_delta, so3_bivector
    from chiralbv.sampling import random_bexpr
    from chiralbv.vertex import delta_bcov, make_bcov

    rng = random.Random(73)
    B = make_b_system()
    for D in (delta_b(B), delta_star(B)):
        for _ in range(200):
            F = random_bexpr(rng, B, max_T=2, max_degree=4, max_dz=2)
            assert D(F) == _apply_derivation_oracle(D, F)
    bcov, _ = make_bcov(3)
    D = delta_bcov(bcov)
    for _ in range(200):
        F = random_diffpoly(rng, bcov, max_terms=4, max_degree=5, max_dz=2, lam_range=(0, 1))
        assert D(F) == _apply_derivation_oracle(D, F)
    psys, _, I = build_psm(so3_bivector(), 4)
    D = psm_delta(psys, 3)
    assert not D(I).is_zero() and D(I) == _apply_derivation_oracle(D, I)
    for _ in range(100):
        F = random_diffpoly(rng, psys, max_terms=4, max_degree=4, max_dz=2)
        assert D(F) == _apply_derivation_oracle(D, F)


def test_derivation_image_memo_outlives_a_call():
    """Applied to p and then to q, a derivation gives q the image a fresh one gives,
    in value and term order, deriving each generator's image once."""
    from chiralbv.moyal import delta_b, make_b_system
    from chiralbv.sampling import random_bexpr

    rng = random.Random(97)
    B = make_b_system()
    for _ in range(50):
        p, q = (random_bexpr(rng, B, max_T=2, max_degree=4, max_dz=2) for _ in range(2))
        D = delta_b(B)
        seen = []
        rule = D.rule
        D.rule = lambda dg: seen.append(dg) or rule(dg)
        D(p)
        assert list(D(q)._terms.items()) == list(delta_b(B)(q)._terms.items())
        assert sorted(seen) == sorted({dg for P in (p, q) for (w, _) in P._terms for dg in w})


def test_derivation_with_multi_term_images_matches_oracle():
    """Even and odd derivations whose images carry several terms, lam powers and odd factors."""
    sys_, _ = make_mixed_system()
    rng = random.Random(79)
    for parity in (0, 1):
        for _ in range(40):
            images = {}
            for g in sys_.generators():
                img = random_diffpoly(rng, sys_, max_terms=3, max_degree=3, max_dz=1, lam_range=(0, 1),
                                      parity=(g.parity + parity) % 2)
                images[g.key] = img
            D = Derivation.from_base_rules(sys_, parity, images)
            for _ in range(5):
                F = random_diffpoly(rng, sys_, max_terms=3, max_degree=4, max_dz=2, lam_range=(-1, 1))
                assert D(F) == _apply_derivation_oracle(D, F)


@functools.lru_cache(maxsize=None)
def _slice_reduction_oracle(system, profile, total_dz):
    """The former inline Gauss-Jordan on the T-image of one slice."""
    from chiralbv.algebra import _enumerate_slice

    basis = _enumerate_slice(system, profile, total_dz)
    basis_index = {w: i for i, w in enumerate(basis)}
    pre_basis = _enumerate_slice(system, profile, total_dz - 1) if total_dz > 0 else []
    rows = []
    for pw in pre_basis:
        vec = {basis_index[w]: c for (w, _), c in system.monomial(pw).dz()._terms.items()}
        combo = {pw: Fraction(1)}
        for piv, rvec, rcombo in rows:
            if piv in vec:
                f = vec[piv]
                for target, row in ((vec, rvec), (combo, rcombo)):
                    for k, c in row.items():
                        nv = target.get(k, Fraction(0)) - f * c
                        if nv == 0:
                            target.pop(k, None)
                        else:
                            target[k] = nv
        if not vec:
            continue
        piv = min(vec)
        f = vec[piv]
        vec = {i: c / f for i, c in vec.items()}
        combo = {w: c / f for w, c in combo.items()}
        for _, ovec, ocombo in rows:
            if piv in ovec:
                g = ovec[piv]
                for target, row in ((ovec, vec), (ocombo, combo)):
                    for k, c in row.items():
                        nv = target.get(k, Fraction(0)) - g * c
                        if nv == 0:
                            target.pop(k, None)
                        else:
                            target[k] = nv
        rows = sorted(rows + [(piv, vec, combo)], key=lambda r: r[0])
    return basis_index, tuple(rows)


def _ibp_oracle(p):
    """The former ibp_decompose: reduce each slice against the oracle rows."""
    from chiralbv.algebra import _word_profile

    sys_ = p.system
    groups = {}
    for (word, lam), c in p._terms.items():
        groups.setdefault((_word_profile(word), sum(dg.dz for dg in word), lam), {})[word] = c
    c_terms, h_terms = {}, {}
    for (profile, dzsum, lam), vec_by_word in groups.items():
        basis_index, rows = _slice_reduction_oracle(sys_, profile, dzsum)
        vec = {basis_index[w]: c for w, c in vec_by_word.items()}
        inv_index = {i: w for w, i in basis_index.items()}
        for piv, rvec, rcombo in rows:
            f = vec.get(piv)
            if not f:
                continue
            for i, c in rvec.items():
                vec[i] = vec[i] - f * c if i in vec else -f * c
            for w, c in rcombo.items():
                c_terms[(w, lam)] = c_terms.get((w, lam), Fraction(0)) + f * c
        for i, c in vec.items():
            if c != 0:
                h_terms[(inv_index[i], lam)] = c
    return (DiffPoly(sys_, {k: v for k, v in c_terms.items() if v != 0}),
            DiffPoly(sys_, {k: v for k, v in h_terms.items() if v != 0}))


def test_ibp_matches_former_elimination():
    """The shared eliminator gives the former rows, as per-pivot integer
    entries with h in column order, and (C, h): C in the same term order, h
    in canonical order, which every normal form inherits."""
    from chiralbv.algebra import _slice_reduction, _word_profile
    from chiralbv.psm import build_psm, so3_bivector
    from chiralbv.vertex import make_bcov

    rng = random.Random(83)
    psys, _, I = build_psm(so3_bivector(), 4)
    systems = [make_mixed_system()[0], make_bcov(3)[0], psys]
    inputs = [I]
    for n in range(60):
        p = random_diffpoly(rng, systems[n % 3], max_terms=4, max_degree=4, max_dz=2, lam_range=(0, 2))
        inputs.append(p.filter(lambda w, l: bool(w)))
    slices = {}
    for p in inputs:
        C, h = ibp_decompose(p)
        C0, h0 = _ibp_oracle(p)
        assert list(C._terms.items()) == list(C0._terms.items())
        assert list(h._terms.items()) == [((w, sc.lam), sc.coef) for w, sc in h0.terms()]
        for word, _ in p._terms:
            slices[(p.system, _word_profile(word), sum(dg.dz for dg in word))] = None
    for sys_, profile, dzsum in slices:
        entries = _slice_reduction(sys_.signature, profile, dzsum)
        basis_index, rows = _slice_reduction_oracle(sys_, profile, dzsum)
        basis = list(basis_index)
        assert list(entries) == [basis[piv] for piv, _, _ in rows]
        for piv, rvec, rcombo in rows:
            column, den, h, c = entries[basis[piv]]
            assert column == piv and rvec[piv] == 1
            assert [(w, Fraction(n, den)) for w, n in h] == [(basis[i], -rvec[i]) for i in sorted(rvec) if i != piv]
            assert [(w, Fraction(n, den)) for w, n in c] == list(rcombo.items())
        # every pivot word, listed against column order: C still follows pivot order
        p = DiffPoly(sys_, {(w, 0): Fraction(1) for w in reversed(list(entries))})
        assert list(ibp_decompose(p)[0]._terms.items()) == list(_ibp_oracle(p)[0]._terms.items())
    assert sum(len(_slice_reduction(s.signature, pr, dz)) > 1 for s, pr, dz in slices) > 50


def test_slice_entries_hold_int_numerators():
    """Every cached pivot entry is nonzero int numerators over its least
    positive int denominator, h on the slice's words, C one z-derivative down."""
    from chiralbv.algebra import _slice_reduction, _word_profile
    from chiralbv.vertex import make_bcov

    rng = random.Random(89)
    systems = [make_mixed_system()[0], make_bcov(3)[0]]
    slices = {}
    for n in range(40):
        p = random_diffpoly(rng, systems[n % 2], max_terms=4, max_degree=4, max_dz=3, lam_range=(0, 1))
        ibp_decompose(p.filter(lambda w, l: bool(w)))
        for word, _ in p._terms:
            if word:
                slices[(p.system, _word_profile(word), sum(dg.dz for dg in word))] = None
    entries_seen = 0
    for sys_, profile, dzsum in slices:
        for pivot, (column, den, h, c) in _slice_reduction(sys_.signature, profile, dzsum).items():
            nums = [n for _, n in h + c]
            assert type(column) is int and type(den) is int and den > 0
            assert all(type(n) is int and n for n in nums) and math.gcd(den, *nums) == 1
            assert all(sum(dg.dz for dg in w) == dzsum for w, _ in ((pivot, 1),) + h)
            assert c and all(sum(dg.dz for dg in w) == dzsum - 1 for w, _ in c)
            entries_seen += 1
    assert entries_seen > 200


def _mode_normal_form_oracle(X):
    """mode_normal_form on the former Fraction elimination (`_ibp_oracle`),
    with h in canonical order."""
    from chiralbv.algebra import _poly
    from chiralbv.vertex import ModeElement

    sys_ = X.system
    pending = {k: dict(p._terms) for k, p in X.parts.items()}
    result = {}
    while pending:
        k = max(pending)
        p = _poly(sys_, pending.pop(k))
        out = result.setdefault(k, {})
        if p.constant_part():
            if k == -1:
                out.update(sorted((((), l), c) for l, c in p.constant_part().items()))
            p = p.filter(lambda w, l: bool(w))
        if p.is_zero():
            continue
        C, h = _ibp_oracle(p)
        _add_scaled(out, {(w, sc.lam): sc.coef for w, sc in h.terms()})
        if k != 0 and not C.is_zero():
            _add_scaled(pending.setdefault(k - 1, {}), C._terms, -k)
    return ModeElement(sys_, {k: _poly(sys_, terms) for k, terms in result.items()})


def test_normal_forms_match_former_elimination():
    """mode_normal_form equals the normal form on the former elimination in
    value, term order and coefficient type, on W-brackets at nonzero mode
    powers (C feeds z^{k-1}), PSM residuals, the (4,4) BCOV raw residual and
    mixed-system modes with z^-1 constants."""
    from chiralbv.bcov import bcov_mc_report
    from chiralbv.correspondence import (PHI_BRACKET_ORIENTATION, BackgroundSubstitution, _windowed_zero_product,
                                         phi, w_generator)
    from chiralbv.moyal import fedosov_solve
    from chiralbv.psm import build_psm, non_jacobi_bivector, psm_delta, so3_bivector
    from chiralbv.sampling import random_mode_element
    from chiralbv.vertex import (ModeElement, _pairs, _product_sum, _split_terms, delta_bcov, make_bcov,
                                 make_heisenberg, mc_residual, mode_bracket, mode_normal_form)

    def items(X):
        return [(k, list(p._terms.items())) for k, p in X.parts.items()]

    checked = {"w": 0, "psm": 0, "bcov": 0, "mixed": 0}

    def check(kind, X):
        got = mode_normal_form(X)
        assert items(got) == items(_mode_normal_form_oracle(X)), kind
        assert all(type(c) is Fraction for p in got.parts.values() for c in p._terms.values())
        checked[kind] += len(got.parts) > 1 or any(p.num_terms() > 1 for p in got.parts.values())
        return got

    rng = random.Random(97)
    fed = 0
    hsys, htbl = make_heisenberg(0)
    W = {k: w_generator(k, hsys).scale(Fraction(1, k)) for k in range(2, 6)}
    for j, k in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 4)]:
        m, n = rng.choice((-1, 1, 2)), rng.choice((-2, 0, 1))
        X = ModeElement(hsys, {m: W[j].scale(Fraction(rng.randint(1, 9), rng.randint(1, 6)))})
        br = mode_bracket(X, ModeElement(hsys, {n: W[k]}), htbl)
        fed += not check("w", br).is_zero() and min(mode_normal_form(br).parts) < min(br.parts)

    for P in (so3_bivector(), non_jacobi_bivector()):
        for D in (3, 4, 5):
            system, tbl, I = build_psm(P, D)
            delta = psm_delta(system, P.dim)
            br = _product_sum(system, tbl, 0, _pairs(_split_terms(I, tbl))).scale(Scalar(Fraction(1, 2), -1))
            got = check("psm", ModeElement.zero_mode(delta(I)) + ModeElement.zero_mode(br))
            assert items(got) == items(mc_residual(I, delta, tbl))

    bsys, btbl = make_bcov(4)
    I = phi(fedosov_solve(4).j(), bsys, BackgroundSubstitution(kmax=4), wmax=4).part(0)
    raw = delta_bcov(bsys)(I) + _windowed_zero_product(I, None, btbl, 4).scale(Fraction(PHI_BRACKET_ORIENTATION, 2))
    got = check("bcov", ModeElement.zero_mode(raw))
    assert list(got.part(0)._terms.items()) == list(bcov_mc_report(4, 4).raw_residual._terms.items())

    msys, _ = make_mixed_system()
    for _ in range(60):
        X = random_mode_element(rng, msys, zpow_range=(-1, 2), max_terms=4, max_degree=3, max_dz=2,
                                lam_range=(0, 1))
        consts = {k: msys.one(rng.choice((1, -2, Fraction(1, 3))), lam=rng.randint(0, 1)) for k in (-1, 0)}
        X = X + ModeElement(msys, consts)
        check("mixed", X)
        check("mixed", ModeElement(msys, {k: DiffPoly(msys, dict(reversed(p._terms.items()))) for k, p in X.parts.items()}))
    assert fed > 2 and checked["w"] > 5 and checked["psm"] > 2 and checked["bcov"] and checked["mixed"] > 30, checked


def test_multisets_match_brute_force_in_lexicographic_order():
    import itertools

    from chiralbv.algebra import _multisets

    for slots in range(6):
        for total in range(9):
            for low in range(3):
                expect = [t for t in itertools.product(range(low, total + 1), repeat=slots)
                          if sum(t) == total and list(t) == sorted(t)]
                assert list(_multisets(slots, total, low)) == expect, (slots, total, low)

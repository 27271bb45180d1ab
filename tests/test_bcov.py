import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from chiralbv.bcov import (
    bcov_classical,
    bcov_mc_report,
    check_equivariant,
    psi_coefficient,
    restore_lambda_powers,
    stationary_commutator,
    verify_classical_limit,
)
from chiralbv.correspondence import PHI_BRACKET_ORIENTATION, BackgroundSubstitution, phi, restrict_index_weight
from chiralbv.moyal import fedosov_solve
from chiralbv.algebra import DerivedGenerator, _enumerate_slice
from chiralbv.vertex import ModeElement, delta_bcov, make_bcov, mode_normal_form, nth_product


def order_digest(p):
    """A digest of p's terms in their stored order."""
    return hashlib.sha256(repr(list(p._terms.items())).encode()).hexdigest()[:16]


def _term(factors, den, num=1):
    """One serialized term: factors (gen, k, dz), coefficient num/den at lam^0."""
    return {"mono": [{"gen": g, "k": k, "dz": dz, "dt": 0} for g, k, dz in factors],
            "coef": {"num": num, "den": den, "lam": 0}}


def test_psi_coefficient_values():
    assert psi_coefficient([0, 0, 0]).coef == 1
    assert psi_coefficient([1, 1, 0, 0, 0]).coef == 2
    assert psi_coefficient([2, 0, 0, 0, 0]).coef == 1
    assert psi_coefficient([1, 0, 0]).coef == 0  # sum mismatch
    with pytest.raises(ValueError):
        psi_coefficient([0, 0])


def test_psi_string_equation():
    """<t^0, t^{k_1},...>_0 = sum_i <..., t^{k_i - 1}, ...>_0, brute force n <= 7.

    Applies when the reduced correlator still has >= 3 insertions (n >= 4).
    """
    for n in range(4, 8):
        for ks in itertools.product(range(3), repeat=n - 1):
            if sum(ks) != n - 3:
                continue
            lhs = psi_coefficient([0] + list(ks)).coef
            rhs = Fraction(0)
            for i in range(len(ks)):
                if ks[i] >= 1:
                    lowered = list(ks)
                    lowered[i] -= 1
                    rhs += psi_coefficient(lowered).coef
            assert lhs == rhs


def test_bcov_classical_cubic_and_quartic_terms():
    system, _ = make_bcov(3)
    I = bcov_classical(system, 4)
    b0, b1 = system.gen("b", 0), system.gen("b", 1)
    e0, e1 = system.gen("eta", 0), system.gen("eta", 1)
    assert I.coefficient([b0, b0, e0]).coef == Fraction(1, 2)
    assert I.coefficient([b0, b0, b1, e0]).coef == Fraction(1, 2)
    assert I.coefficient([b0, b0, b0, e1]).coef == Fraction(1, 6)
    # every monomial has (deg, cw, dim) = (1, 2, 0)
    assert check_equivariant(I)
    for (word, lam) in I._terms:
        g = system.word_grading(word, lam)
        assert (g.deg, g.cw, g.dim) == (1, Fraction(2), Fraction(0))


def test_bcov_classical_needs_degree_three():
    system, _ = make_bcov(2)
    with pytest.raises(ValueError):
        bcov_classical(system, 2)


def test_check_equivariant_counterexample():
    system, _ = make_bcov(1)
    b0 = system.gen("b", 0)
    assert not check_equivariant(system.monomial([b0, b0, b0]))  # cw 3


def test_restore_lambda_powers():
    system, _ = make_bcov(1)
    p = system.monomial([system.gen("b", 0, dz=2)])
    q = restore_lambda_powers(p)
    ((word, lam),) = list(q._terms)
    assert lam == 1
    with pytest.raises(ValueError):
        restore_lambda_powers(system.monomial([system.gen("b", 0, dz=1)]))


def test_classical_limit_exact():
    rep = verify_classical_limit(2, 4)
    assert rep.scalar == 1
    assert rep.difference.is_zero()
    assert rep.compared_terms >= 3


def test_classical_limit_t0_sector():
    rep = verify_classical_limit(0, 3)
    assert rep.scalar == 1
    assert rep.difference.is_zero()


def test_classical_limit_corrupted_control():
    """Dropping J_(1) must produce a nonzero difference."""
    sol = fedosov_solve(2)
    sol.levels[1] = sol.system.zero()
    rep = verify_classical_limit(2, 4, solution=sol)
    assert not rep.difference.is_zero()


def test_stationary_commutators_vanish():
    for j, k in [(2, 2), (2, 3), (3, 4)]:
        assert stationary_commutator(j, k).is_zero()
    with pytest.raises(ValueError):
        stationary_commutator(1, 2)


def test_integrality_even_dz_in_normal_form():
    """Every normal-form monomial of the interaction has even total dz,
    and the lam-power restored from the dilaton dimension is integral."""
    sol = fedosov_solve(3)
    system, _ = make_bcov(3)
    bg = BackgroundSubstitution(kmax=3)
    image = restrict_index_weight(phi(sol.j(), system, bg).part(0), 3)
    nf = mode_normal_form(ModeElement.zero_mode(image)).part(0)
    assert not nf.is_zero()
    for (word, lam) in nf._terms:
        assert sum(dg.dz for dg in word) % 2 == 0
    restored = restore_lambda_powers(nf)
    assert check_equivariant(restored)


def test_quantum_mc_central_repair():
    """The raw MC residual of the transported interaction is the central
    W-cocycle; it is delta-exact in the background sector and the repaired
    residual vanishes identically on the exact window."""
    rep = bcov_mc_report(3, 2)
    assert rep.residual_purely_central
    assert not rep.raw_residual.is_zero()  # the cocycle is really there
    assert rep.repaired_zero
    # frozen cocycle value on the w <= 2 window (compare serialized forms:
    # the report owns its private system instance)
    system, _ = make_bcov(2)
    expect = system.monomial(
        [system.gen("eta", 0, dz=1), system.gen("eta", 0, dz=2)], coef=Fraction(-1, 24)
    )
    assert rep.raw_residual.to_obj() == expect.to_obj()
    # of the two candidates b1 Dz2eta0 and Dz1b1 Dz1eta0, whose images are
    # proportional, the first is kept
    assert rep.counterterm.to_obj() == {"terms": [{
        "mono": [{"gen": "b", "k": 1, "dz": 0, "dt": 0}, {"gen": "eta", "k": 0, "dz": 2, "dt": 0}],
        "coef": {"num": 1, "den": 24, "lam": 0},
    }]}


def _dense_counterterm_oracle(system, residual):
    """The former dense Gauss-Jordan with column pivoting on the transposed system."""
    delta = delta_bcov(system)

    def nf_vec(p):
        return dict(mode_normal_form(ModeElement.zero_mode(p)).part(0)._terms)

    candidates, seen = [], set()

    def add(keys):
        for key in keys:
            if key not in seen:
                seen.add(key)
                candidates.append(system.monomial(list(key[0]), lam=key[1]))

    for (word, lam) in residual._terms:
        for i, dg in enumerate(word):
            if dg.name == "eta" and dg.dz >= 1 and system.has("b", dg.index + 1):
                repl = DerivedGenerator("b", dg.index + 1, dg.dz - 1, 0)
                add(system.monomial(word[:i] + (repl,) + word[i + 1 :], lam=lam)._terms)
    # then every word delta maps into a residual word's slice: one eta_l
    # turned into b_{l+1}, one z-derivative fewer
    for (word, lam) in residual._terms:
        total_dz = sum(dg.dz for dg in word)
        for i, dg in enumerate(word):
            if dg.name == "eta" and total_dz and system.has("b", dg.index + 1):
                rest = [(d.name, d.index, d.dt) for j, d in enumerate(word) if j != i]
                profile = tuple(sorted(rest + [("b", dg.index + 1, dg.dt)]))
                add((w, lam) for w in _enumerate_slice(system, profile, total_dz - 1))
    if not candidates:
        return None if nf_vec(residual) else system.zero()
    target = {k: -v for k, v in nf_vec(residual).items()}
    rows = [nf_vec(delta(c)) for c in candidates]
    keys = sorted({k for row in rows for k in row} | set(target), key=lambda k: (str(k[0]), k[1]))
    aug = [[row.get(k, Fraction(0)) for row in rows] + [target.get(k, Fraction(0))] for k in keys]
    pivots, r = [], 0
    for c in range(len(candidates)):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                g = aug[i][c]
                aug[i] = [a - g * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(aug[i][-1] != 0 for i in range(r, len(aug))):
        return None
    out = system.zero()
    for row_i, c in enumerate(pivots):
        if aug[row_i][-1]:
            out = out + candidates[c].scale(aug[row_i][-1])
    return out


def test_counterterm_pinned_on_weight_3_window():
    """The counterterm keeps the first independent candidates in the
    residual's term order, so its value pins that order."""
    expect = {"terms": [
        _term([("b", 1, 0), ("b", 1, 0), ("eta", 0, 2)], 48),
        _term([("b", 1, 0), ("b", 1, 2), ("eta", 0, 0)], 24),
        _term([("b", 1, 0), ("eta", 0, 2)], 24),
    ]}
    for tmax in (3, 4):
        assert bcov_mc_report(tmax, 3).counterterm.to_obj() == expect, tmax


def test_residual_and_counterterm_pinned_on_weight_4_window():
    """The (4, 4) window: raw residual and counterterm in value (``to_obj``
    lists terms in canonical order) and in term order (a digest of the
    ``_terms`` items in order).  The residual's value is the filter-late
    path's; the counterterm repairs it."""
    rep = bcov_mc_report(4, 4)
    assert order_digest(rep.raw_residual) == "fedf74ff9cd6a723"
    assert order_digest(rep.counterterm) == "413b7411bfbb9a75"
    assert rep.raw_residual.to_obj() == {"terms": [
        _term([("b", 1, 0), ("b", 1, 0), ("eta", 0, 1), ("eta", 0, 2)], 8, -1),
        _term([("b", 1, 0), ("b", 1, 2), ("eta", 0, 0), ("eta", 0, 1)], 4),
        _term([("b", 1, 0), ("eta", 0, 1), ("eta", 0, 2)], 12, -1),
        _term([("b", 1, 1), ("b", 1, 1), ("eta", 0, 0), ("eta", 0, 1)], 8),
        _term([("b", 1, 2), ("eta", 0, 0), ("eta", 0, 1)], 12),
        _term([("eta", 0, 1), ("eta", 0, 2)], 24, -1),
        _term([("eta", 0, 5), ("eta", 2, 0)], 480, -1),
        _term([("eta", 1, 2), ("eta", 1, 3)], 640),
    ]}
    assert rep.counterterm.to_obj() == {"terms": [
        _term([("b", 1, 0), ("b", 1, 0), ("b", 1, 0), ("eta", 0, 2)], 48),
        _term([("b", 1, 0), ("b", 1, 0), ("b", 1, 2), ("eta", 0, 0)], 16),
        _term([("b", 1, 0), ("b", 1, 0), ("eta", 0, 2)], 48),
        _term([("b", 1, 0), ("b", 1, 2), ("eta", 0, 0)], 24),
        _term([("b", 1, 0), ("eta", 0, 2)], 24),
        _term([("b", 1, 4), ("eta", 2, 0)], 480),
        _term([("b", 2, 1), ("eta", 1, 3)], 640, -1),
    ]}
    delta = delta_bcov(rep.counterterm.system)
    assert mode_normal_form(ModeElement.zero_mode(delta(rep.counterterm))).part(0) == -rep.raw_residual
    assert rep.repaired_zero


def test_counterterm_ignores_residual_term_order():
    """The (4, 4) residual with its terms reversed gives the same counterterm,
    in the same term order."""
    from chiralbv.algebra import DiffPoly
    from chiralbv.bcov import _solve_central_counterterm

    rep = bcov_mc_report(4, 4)
    raw = rep.raw_residual
    got = _solve_central_counterterm(raw.system, DiffPoly(raw.system, dict(reversed(raw._terms.items()))))
    assert order_digest(got) == order_digest(rep.counterterm)


def test_self_bracket_wick_misses_on_weight_4_window():
    """A cold bcov_mc_report(4, 4) expands 196 monomial pairs, the pairs i <= k
    of the interaction's terms that fit the window (all ordered pairs: 379)."""
    from chiralbv.vertex import _cached_wick_terms

    _cached_wick_terms.cache_clear()
    bcov_mc_report(4, 4)
    assert _cached_wick_terms.cache_info().misses == 196


def test_quantum_mc_repaired_on_weight_5_window():
    """From weight 5 on, the counterterm needs preimages that no single
    eta_l -> b_{l+1} replacement of a residual term reaches.  The raw
    residual and the counterterm are pinned in term order; the counterterm
    is in canonical order, which no change to the row reduction moves."""
    rep = bcov_mc_report(5, 5)
    assert rep.residual_purely_central
    assert rep.repaired_zero
    assert order_digest(rep.raw_residual) == "ebb87c5e9de2ff1a"
    assert order_digest(rep.counterterm) == "fb2c8dad2a3061a9"
    assert list(rep.counterterm._terms.items()) == [((w, sc.lam), sc.coef) for w, sc in rep.counterterm.terms()]


@pytest.mark.parametrize("tmax, wmax", [(3, 3), (4, 3)])
def test_windowed_self_bracket_equals_filtered(tmax, wmax):
    """The self-bracket cut to the window before its Wick expansion gives the
    raw residual of the full 0-th product filtered to the window afterwards,
    in value and in term order (which the counterterm solve reads)."""
    system, tbl = make_bcov(wmax)
    I = phi(fedosov_solve(tmax).j(), system, BackgroundSubstitution(kmax=wmax), wmax=wmax).part(0)
    br = nth_product(I, 0, I, tbl).scale(Fraction(PHI_BRACKET_ORIENTATION, 2))
    filtered = restrict_index_weight(delta_bcov(system)(I) + br, wmax)
    expect = mode_normal_form(ModeElement.zero_mode(filtered)).part(0)
    assert list(bcov_mc_report(tmax, wmax).raw_residual._terms.items()) == list(expect._terms.items())


def test_skew_self_bracket_equals_ordered_on_weight_5_window():
    """The self-bracket from the pairs i <= k and the one from all ordered
    pairs, each cut to the window, normal-form alike in value and term order."""
    from chiralbv.correspondence import _windowed_zero_product

    system, tbl = make_bcov(5)
    I = phi(fedosov_solve(5).j(), system, BackgroundSubstitution(kmax=5), wmax=5).part(0)
    skew, ordered = (mode_normal_form(ModeElement.zero_mode(_windowed_zero_product(I, B, tbl, 5))).part(0)
                     for B in (None, I))
    assert not skew.is_zero()
    assert list(skew._terms.items()) == list(ordered._terms.items())


def test_counterterm_matches_former_dense_solve():
    """Seeded delta-exact residuals (with linearly dependent candidates) and
    non-exact ones: the shared eliminator returns the former solution."""
    from chiralbv.bcov import _solve_central_counterterm
    from chiralbv.correspondence import background_only
    from chiralbv.sampling import random_diffpoly

    rng = random.Random(89)
    system, _ = make_bcov(3)
    delta = delta_bcov(system)
    solved = unsolvable = 0
    for n in range(40):
        j = random_diffpoly(rng, system, max_terms=3, max_degree=3, max_dz=2)
        j = j.filter(lambda w, l: background_only(w))
        residual = mode_normal_form(ModeElement.zero_mode(delta(j))).part(0)
        if n % 4 == 0:
            residual = residual + random_diffpoly(rng, system, max_terms=1, max_degree=2, max_dz=2)
        got = _solve_central_counterterm(system, residual)
        expect = _dense_counterterm_oracle(system, residual)
        assert (got is None) == (expect is None)
        assert got is not None or n % 4 == 0, n  # NF(delta j) is always solved
        if got is not None:
            assert got == expect
            solved += not got.is_zero()
        unsolvable += got is None
    assert solved >= 10 and unsolvable >= 3
    for tmax, wmax in ((3, 3), (4, 2)):
        rep = bcov_mc_report(tmax, wmax)
        assert rep.counterterm.to_obj() == _dense_counterterm_oracle(rep.raw_residual.system, rep.raw_residual).to_obj()


def test_counterterm_of_a_total_derivative_is_zero():
    """A nonzero residual whose normal form is zero, such as Dz1b0, gives no
    candidate and is solved by j = 0."""
    from chiralbv.bcov import _solve_central_counterterm

    system, _ = make_bcov(3)
    residual = system.monomial([system.gen("b", 0, dz=1)])
    assert not residual.is_zero()
    assert _solve_central_counterterm(system, residual) == system.zero()
    assert _dense_counterterm_oracle(system, residual) == system.zero()

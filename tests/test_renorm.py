import itertools
import math
from fractions import Fraction

import pytest

from chiralbv.renorm import (
    OrderedIntegralSpec,
    oracle_ordered_integral,
    ordered_integral,
    residue_identity_report,
)


def test_oracle_frozen_values():
    # symbolic hand computations (see module docstring for the recursion)
    assert oracle_ordered_integral(OrderedIntegralSpec((0, 0))) == Fraction(1, 2)
    assert oracle_ordered_integral(OrderedIntegralSpec((1, 0))) == Fraction(3, 4)
    assert oracle_ordered_integral(OrderedIntegralSpec((0, 1))) == Fraction(1, 4)
    assert oracle_ordered_integral(OrderedIntegralSpec((0, 0, 0))) == Fraction(1, 3)
    # E(2,0) = int u^2 e^{-u}(1 - e^{-u}) du = 2! - 2!/2^3 = 7/4
    assert oracle_ordered_integral(OrderedIntegralSpec((2, 0))) == Fraction(7, 4)
    # m = 0: no ordering constraint, E(k) = k!
    for k in range(5):
        assert oracle_ordered_integral(OrderedIntegralSpec((k,))) == math.factorial(k)


def test_oracle_symmetry_sum():
    """Choosing which slot is unbounded tiles the full quadrant:
    sum over all (m+1)! orderings equals m! * prod k_i!."""
    for ks in [(0, 0), (1, 0), (2, 1), (1, 1, 0), (2, 1, 0)]:
        total = Fraction(0)
        for perm in itertools.permutations(ks):
            total += oracle_ordered_integral(OrderedIntegralSpec(perm))
        expect = Fraction(math.factorial(len(ks) - 1))
        for k in ks:
            expect *= math.factorial(k)
        assert total == expect


def test_quadrature_matches_oracle_within_budget():
    for m in range(0, 4):
        for ks in itertools.product(range(4), repeat=m + 1):
            spec = OrderedIntegralSpec(ks)
            val, err = ordered_integral(spec)
            assert abs(val - float(oracle_ordered_integral(spec))) <= 1e-8
            assert err <= 1e-8


def test_budget_enforcement():
    with pytest.raises(ValueError):
        OrderedIntegralSpec((5, 0))
    with pytest.raises(ValueError):
        OrderedIntegralSpec((0,) * 6)
    with pytest.raises(ValueError):
        OrderedIntegralSpec((-1,))


def test_residue_identity_m0_and_m1():
    r = residue_identity_report(0, [2])
    assert r["ratio_exact"] == 1
    r = residue_identity_report(1, [0, 0])
    assert r["S_exact"] == 1 and r["rhs"] == Fraction(1, 2) and r["ratio_exact"] == 2
    r = residue_identity_report(1, [1, 0])
    assert r["S_exact"] == 1 and r["ratio_exact"] == 2


def test_ratio_k_independent():
    """The ratio depends only on m (it equals m + 1 exactly)."""
    for m in range(0, 4):
        ratios = set()
        for ks in itertools.combinations_with_replacement(range(4), m + 1):
            r = residue_identity_report(m, list(ks))
            ratios.add(r["ratio_exact"])
            assert abs(r["ratio_float"] - float(r["ratio_exact"])) <= 1e-8
        assert ratios == {Fraction(m + 1)}

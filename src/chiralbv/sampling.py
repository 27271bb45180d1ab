"""Seeded random expression generators for the property suites."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Tuple

from .algebra import DerivedGenerator, DiffPoly, Scalar, System, _add_scaled, _poly
from .vertex import ModeElement

__all__ = [
    "random_diffpoly",
    "random_mode_element",
    "random_bexpr",
]

COEFF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(2, 3)]


def random_diffpoly(
    rng: random.Random,
    system: System,
    max_terms: int = 3,
    max_degree: int = 3,
    max_dz: int = 2,
    max_dt: int = 0,
    lam_range: Tuple[int, int] = (0, 0),
    parity: Optional[int] = None,
) -> DiffPoly:
    """A small random expression; `parity` restricts every monomial's parity."""
    gens = system.generators()
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        for _attempt in range(20):
            deg = rng.randint(1, max_degree)
            word = []
            for _ in range(deg):
                g = rng.choice(gens)
                dz = rng.randint(0, max_dz)
                dt = rng.randint(0, max_dt) if system.species == "moyal" else 0
                word.append(DerivedGenerator(g.name, g.index, dz, dt))
            if parity is not None and system.word_parity(tuple(word)) != parity:
                continue
            lam = rng.randint(*lam_range)
            terms.append((word, Scalar.of(rng.choice(COEFF_POOL), lam)))
            break
    return system.poly(terms)


def random_mode_element(
    rng: random.Random,
    system: System,
    zpow_range: Tuple[int, int] = (0, 2),
    parity: Optional[int] = None,
    **kw,
) -> ModeElement:
    parts: dict = {}
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(*zpow_range)
        _add_scaled(parts.setdefault(k, {}), random_diffpoly(rng, system, parity=parity, **kw)._terms)
    return ModeElement(system, {k: _poly(system, t) for k, t in parts.items()})


def random_bexpr(
    rng: random.Random,
    system: System,
    max_T: int = 2,
    max_degree: int = 3,
    max_dz: int = 2,
    parity: Optional[int] = None,
) -> DiffPoly:
    """Random Moyal-algebra element with every term's T-level <= max_T."""
    gens = system.generators()
    terms = []
    for _ in range(rng.randint(1, 2)):
        for _attempt in range(30):
            deg = rng.randint(1, max_degree)
            budget = max_T
            word = []
            for _ in range(deg):
                g = rng.choice(gens)
                dt = rng.randint(0, budget)
                budget -= dt
                word.append(DerivedGenerator(g.name, g.index, rng.randint(0, max_dz), dt))
            if parity is not None and system.word_parity(tuple(word)) != parity:
                continue
            terms.append((word, Scalar.of(rng.choice(COEFF_POOL))))
            break
    return system.poly(terms)

"""Exact graded differential-polynomial algebra.

Coefficients are rational multiples of integer powers of a formal central
parameter ``lam`` (the combination i*hbar/pi that normalizes every
contraction).  Expressions are finite sums of monomials in derived
generators -- a declared base generator decorated with z- and t-derivative
orders -- stored in a fixed canonical order with Koszul signs.  The module
provides the four gradings (cohomology degree, conformal weight, dilaton
dimension, Hodge weight), total derivatives, graded partial and variational
(Euler) derivatives, and integration by parts modulo total z-derivatives.

All values are immutable after construction and every operation is a pure
function, so expressions can be shared freely across threads.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "BudgetError",
    "Scalar",
    "Generator",
    "DerivedGenerator",
    "Grading",
    "System",
    "DiffPoly",
    "Derivation",
    "canonicalize",
    "grade",
    "apply_T",
    "euler_derivative",
    "ibp_decompose",
]


class BudgetError(Exception):
    """A truncation budget was too small for an exact computation."""


def _json_int(x, name: str) -> int:
    """x if it is an int; a JSON float or bool in field ``name`` raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"field {name!r} must be an integer, got {x!r}")
    return x


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Scalar(NamedTuple):
    """An exact rational times an integer power of the central parameter lam.

    Multiplication adds lam-powers; addition is defined only between equal
    lam-powers.  General coefficients (finite Laurent polynomials in lam)
    appear as several expression terms sharing a monomial.
    """

    coef: Fraction
    lam: int = 0

    @staticmethod
    def of(coef, lam: int = 0) -> "Scalar":
        return Scalar(_as_fraction(coef), lam)

    def is_zero(self) -> bool:
        return self.coef == 0

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Scalar(self.coef * other.coef, self.lam + other.lam)
        return Scalar(self.coef * _as_fraction(other), self.lam)

    __rmul__ = __mul__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.coef, self.lam)

    def __add__(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.coef == 0:
            return other
        if other.coef == 0:
            return self
        if self.lam != other.lam:
            raise ValueError("cannot add scalars with different lam powers")
        return Scalar(self.coef + other.coef, self.lam)

    def to_obj(self) -> dict:
        return {"num": self.coef.numerator, "den": self.coef.denominator, "lam": self.lam}

    @staticmethod
    def from_obj(obj: dict) -> "Scalar":
        num, den = _json_int(obj["num"], "num"), _json_int(obj["den"], "den")
        return Scalar(Fraction(num, den), _json_int(obj.get("lam", 0), "lam"))

    def __repr__(self) -> str:
        if self.lam == 0:
            return str(self.coef)
        lam = "lam" if self.lam == 1 else f"lam^{self.lam}"
        return f"{self.coef}*{lam}"


class Generator(NamedTuple):
    """A declared base generator of a system.

    ``parity`` is 0 (even) or 1 (odd) and must equal ``deg`` mod 2.
    ``cw`` is the conformal weight of the underived generator.
    """

    name: str
    index: int
    parity: int
    deg: int
    cw: Fraction

    @property
    def key(self) -> Tuple[str, int]:
        return (self.name, self.index)


class DerivedGenerator(NamedTuple):
    """A base generator with z-derivative order ``dz`` and t-order ``dt``."""

    name: str
    index: int
    dz: int
    dt: int

    @property
    def base_key(self) -> Tuple[str, int]:
        return (self.name, self.index)

    def label(self) -> str:
        s = f"{self.name}{self.index}"
        if self.dt:
            s = f"Dt{self.dt}{s}"
        if self.dz:
            s = f"Dz{self.dz}{s}"
        return s


def _word_order(word: Sequence[DerivedGenerator]) -> Tuple[Tuple[str, int, int, int], ...]:
    # Canonical word order: factor by factor, lexicographic on (generator id, dt, dz).
    return tuple((dg.name, dg.index, dg.dt, dg.dz) for dg in word)


class Grading(NamedTuple):
    deg: int
    cw: Fraction
    dim: Fraction
    hw: Fraction


Word = Tuple[DerivedGenerator, ...]
TermKey = Tuple[Word, int]  # (canonical monomial, lam power)


class System:
    """A declared family of generators with species-wide conventions.

    ``species`` is ``"vertex"`` (z-derivatives only) or ``"moyal"``
    (z- and t-derivatives).  Generator names must be lowercase letters so
    that the flat string id ``name + str(index)`` parses unambiguously.
    """

    def __init__(self, species: str, generators: Iterable[Generator]):
        if species not in ("vertex", "moyal"):
            raise ValueError(f"unknown species {species!r}")
        self.species = species
        self._gens: Dict[Tuple[str, int], Generator] = {}
        for g in generators:
            if not g.name.isalpha() or not g.name.islower():
                raise ValueError(f"generator name {g.name!r} must be lowercase letters")
            if g.parity != g.deg % 2:
                raise ValueError(f"generator {g.name}{g.index}: parity must equal deg mod 2")
            if g.key in self._gens:
                raise ValueError(f"duplicate generator id {g.name}{g.index}")
            self._gens[g.key] = g
        self._cw_den = math.lcm(*(g.cw.denominator for g in self._gens.values()))
        self._deg_cw = {k: (g.deg, g.cw.numerator * (self._cw_den // g.cw.denominator)) for k, g in self._gens.items()}
        # the declaration as plain ints and strings, shared by systems declared
        # alike and cheap to hash as a cache key
        self.signature = (species, tuple(sorted(
            (g.name, g.index, g.parity, g.deg, g.cw.numerator, g.cw.denominator) for g in self._gens.values()
        )))

    def generators(self) -> List[Generator]:
        return list(self._gens.values())

    def has(self, name: str, index: int) -> bool:
        return (name, index) in self._gens

    def base(self, name: str, index: int) -> Generator:
        try:
            return self._gens[(name, index)]
        except KeyError:
            raise KeyError(f"undeclared generator {name}{index}") from None

    def gen(self, name: str, index: int, dz: int = 0, dt: int = 0) -> DerivedGenerator:
        self.base(name, index)
        if dz < 0 or dt < 0:
            raise ValueError("derivative orders must be nonnegative")
        if dt and self.species == "vertex":
            raise ValueError("vertex-species generators carry no t-derivatives")
        return DerivedGenerator(name, index, dz, dt)

    # -- gradings ----------------------------------------------------------

    def parity(self, dg: DerivedGenerator) -> int:
        return self.base(dg.name, dg.index).parity

    def word_parity(self, word: Word) -> int:
        return sum(self.parity(dg) for dg in word) % 2

    def word_grading(self, word: Word, lam: int) -> Grading:
        # integer (deg, cw * den) per generator over one den: three Fractions a word
        den, pairs = self._cw_den, [self._deg_cw[dg.name, dg.index] for dg in word]
        deg = sum(d for d, _ in pairs)
        cw = Fraction(sum(c for _, c in pairs) + den * sum(dg.dz - dg.dt for dg in word), den)
        dim = Fraction(sum(dg.dz for dg in word) - 2 * lam)
        return Grading(deg, cw, dim, cw - dim)

    # -- expression constructors -------------------------------------------

    def zero(self) -> "DiffPoly":
        return DiffPoly(self, {})

    def one(self, coef=1, lam: int = 0) -> "DiffPoly":
        c = _as_fraction(coef)
        if c == 0:
            return self.zero()
        return DiffPoly(self, {((), lam): c})

    def monomial(self, word: Sequence[DerivedGenerator], coef=1, lam: int = 0) -> "DiffPoly":
        return self.poly([(tuple(word), Scalar.of(coef, lam))])

    def poly(self, terms: Iterable[Tuple[Sequence[DerivedGenerator], Scalar]]) -> "DiffPoly":
        acc: Dict[TermKey, Fraction] = {}
        for word, sc in terms:
            w = tuple(word)
            for dg in w:
                self.base(dg.name, dg.index)  # undeclared id -> KeyError
                if dg.dt and self.species == "vertex":
                    raise ValueError("vertex-species generators carry no t-derivatives")
            sorted_word = _sort_word(self, w)
            if sorted_word is None or sc.is_zero():
                continue
            cw, sign = sorted_word
            key = (cw, sc.lam)
            acc[key] = acc.get(key, Fraction(0)) + sign * sc.coef
        return DiffPoly(self, {k: v for k, v in acc.items() if v != 0})


def _sort_word(system: System, word: Word) -> Optional[Tuple[Word, int]]:
    """Canonically sort a generator word, tracking the Koszul sign.

    Returns ``(sorted_word, sign)``, or ``None`` when the word contains a
    repeated odd generator and the monomial vanishes.
    """
    if len(word) < 2:
        return tuple(word), 1
    gens = system._gens
    # decorate once with (sort key, parity); insertion sort keeps equal factors in order
    w = [((dg.name, dg.index, dg.dt, dg.dz), gens[dg.name, dg.index].parity, dg) for dg in word]
    sign = 1
    for i in range(1, len(w)):
        cur = w[i]
        key, odd = cur[0], cur[1]
        j = i
        while j > 0 and key < w[j - 1][0]:
            if odd and w[j - 1][1]:
                sign = -sign
            w[j] = w[j - 1]
            j -= 1
        w[j] = cur
    for a, b in zip(w, w[1:]):
        if a[1] and a[0] == b[0]:
            return None
    return tuple([e[2] for e in w]), sign


def _add_scaled(acc: Dict[TermKey, Fraction], terms: Dict[TermKey, Fraction], coef=1) -> None:
    """acc += coef * terms; zero entries stay until ``_poly`` drops them."""
    for key, c in terms.items():
        if coef != 1:
            c = coef * c
        old = acc.get(key)
        acc[key] = c if old is None else old + c


def _poly(system: System, terms: Dict[TermKey, Fraction]) -> "DiffPoly":
    return DiffPoly(system, {key: c for key, c in terms.items() if c})


def _integral(terms: Dict[TermKey, Fraction]) -> Tuple[Dict[TermKey, int], int]:
    """terms as integer numerators over the lcm of their denominators."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den


class _IntSum:
    """Exact sums per bucket in integer numerators over one common denominator,
    which grows (rescaling the sums so far) as terms arrive.  Keys keep
    first-seen order, and `poly` builds one Fraction per nonzero sum."""

    def __init__(self):
        self.den, self.buckets = 1, {}

    def target(self, bucket, den: int) -> Tuple[Dict[TermKey, int], int]:
        """The bucket's numerators, and the factor that turns c / den into one."""
        if self.den % den:
            grow = den // math.gcd(self.den, den)
            self.den *= grow
            for acc in self.buckets.values():
                for key in acc:
                    acc[key] *= grow
        return self.buckets.setdefault(bucket, {}), self.den // den

    def add(self, bucket, nums: Iterable[Tuple[TermKey, int]], num: int, den: int) -> None:
        """buckets[bucket] += (num / den) * nums, given as (key, int) pairs."""
        acc, f = self.target(bucket, den)
        f *= num
        for key, c in nums:
            old = acc.get(key)
            acc[key] = f * c if old is None else old + f * c

    def poly(self, system: System, bucket) -> "DiffPoly":
        return DiffPoly(system, {k: Fraction(c, self.den) for k, c in self.buckets.get(bucket, {}).items() if c})


def _group_terms(p: "DiffPoly", word_key: Callable[[Word], int]) -> Dict[int, "DiffPoly"]:
    """The terms of p grouped by ``word_key`` of their words, in first-seen order."""
    groups: Dict[int, Dict[TermKey, Fraction]] = {}
    for key, c in p._terms.items():
        groups.setdefault(word_key(key[0]), {})[key] = c
    return {k: DiffPoly(p.system, terms) for k, terms in groups.items()}


class DiffPoly:
    """A differential polynomial: finite sum of (monomial, lam-power) terms.

    Internally a map from ``(canonical word, lam)`` to a nonzero Fraction.
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("system", "_terms", "_hash")

    def __init__(self, system: System, terms: Dict[TermKey, Fraction]):
        self.system = system
        self._terms = terms
        self._hash = None

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[Tuple[Word, Scalar]]:
        """Iterate ``(monomial, Scalar)`` pairs in canonical order."""
        for (word, lam) in sorted(self._terms, key=lambda k: (_word_order(k[0]), k[1])):
            yield word, Scalar(self._terms[(word, lam)], lam)

    def num_terms(self) -> int:
        return len(self._terms)

    def coefficient(self, word: Sequence[DerivedGenerator], lam: int = 0) -> Scalar:
        sw = _sort_word(self.system, tuple(word))
        if sw is None:
            return Scalar.of(0, lam)
        w, sign = sw
        return Scalar(sign * self._terms.get((w, lam), Fraction(0)), lam)

    def constant_part(self) -> Dict[int, Fraction]:
        """lam-power -> coefficient of the empty monomial."""
        return {lam: c for (word, lam), c in self._terms.items() if not word}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffPoly)
            and self.system is other.system
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for word, sc in self.terms():
            mono = "*".join(dg.label() for dg in word) or "1"
            bits.append(f"({sc!r})*{mono}")
        return " + ".join(bits)

    # -- linear structure ------------------------------------------------------

    def _merged(self, other: "DiffPoly", coef: int) -> "DiffPoly":
        if self.system is not other.system:
            raise ValueError("expressions belong to different systems")
        acc = dict(self._terms)
        _add_scaled(acc, other._terms, coef)
        return _poly(self.system, acc)

    def __add__(self, other: "DiffPoly") -> "DiffPoly":
        return self._merged(other, 1)

    def __sub__(self, other: "DiffPoly") -> "DiffPoly":
        return self._merged(other, -1)

    def __neg__(self) -> "DiffPoly":
        return DiffPoly(self.system, {k: -v for k, v in self._terms.items()})

    def scale(self, factor) -> "DiffPoly":
        """Multiply by a Scalar, Fraction or int."""
        if isinstance(factor, Scalar):
            if factor.coef == 0:
                return self.system.zero()
            return DiffPoly(
                self.system,
                {(w, lam + factor.lam): c * factor.coef for (w, lam), c in self._terms.items()},
            )
        f = _as_fraction(factor)
        if f == 0:
            return self.system.zero()
        return DiffPoly(self.system, {k: c * f for k, c in self._terms.items()})

    def __mul__(self, other: "DiffPoly") -> "DiffPoly":
        return self.mul(other)

    def mul(self, other: "DiffPoly") -> "DiffPoly":
        """Graded product."""
        acc: Dict[TermKey, Fraction] = {}
        self._mul_into(acc, other)
        return _poly(self.system, acc)

    def _mul_into(self, acc: Dict[TermKey, Fraction], other: "DiffPoly", coef=1) -> None:
        """acc += coef * (self * other), accumulated as in ``_add_scaled``."""
        if self.system is not other.system:
            raise ValueError("expressions belong to different systems")
        sys_ = self.system
        for (w1, l1), c1 in self._terms.items():
            if coef != 1:
                c1 = coef * c1
            for (w2, l2), c2 in other._terms.items():
                sw = _sort_word(sys_, w1 + w2)
                if sw is None:
                    continue
                c = c1 * c2 if sw[1] > 0 else -(c1 * c2)
                key = (sw[0], l1 + l2)
                old = acc.get(key)
                acc[key] = c if old is None else old + c

    def filter(self, pred: Callable[[Word, int], bool]) -> "DiffPoly":
        return DiffPoly(self.system, {k: v for k, v in self._terms.items() if pred(k[0], k[1])})

    # -- derivatives ---------------------------------------------------------

    def _derive(self, slot: str) -> "DiffPoly":
        sys_ = self.system
        acc: Dict[TermKey, Fraction] = {}
        for (word, lam), c in self._terms.items():
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

    def dz(self, n: int = 1) -> "DiffPoly":
        """Total z-derivative (Leibniz), applied ``n`` times."""
        p = self
        for _ in range(n):
            p = p._derive("dz")
        return p

    def dt(self, n: int = 1) -> "DiffPoly":
        """Total t-derivative, for moyal-species systems."""
        if self.system.species != "moyal":
            raise ValueError("t-derivative defined only for moyal-species systems")
        p = self
        for _ in range(n):
            p = p._derive("dt")
        return p

    def partial(self, dg: DerivedGenerator) -> "DiffPoly":
        """Graded left partial derivative with respect to a derived generator."""
        sys_ = self.system
        p_dg = sys_.parity(dg)
        acc: Dict[TermKey, Fraction] = {}
        for (word, lam), c in self._terms.items():
            before = 0
            for i, g in enumerate(word):
                if g == dg:
                    v = -c if (p_dg and before % 2) else c
                    key = (word[:i] + word[i + 1 :], lam)
                    old = acc.get(key)
                    acc[key] = v if old is None else old + v
                before += sys_.parity(g)
        return _poly(sys_, acc)

    # -- gradings -------------------------------------------------------------

    def grade(self) -> Optional[Grading]:
        """Common (deg, cw, dim, hw) of all terms, or None if inhomogeneous."""
        out: Optional[Grading] = None
        for (word, lam) in self._terms:
            g = self.system.word_grading(word, lam)
            if out is None:
                out = g
            elif out != g:
                return None
        return out

    # -- serialization ----------------------------------------------------------

    def to_obj(self) -> dict:
        terms = []
        for word, sc in self.terms():
            terms.append(
                {
                    "mono": [{"gen": g.name, "k": g.index, "dz": g.dz, "dt": g.dt} for g in word],
                    "coef": sc.to_obj(),
                }
            )
        return {"terms": terms}

    @staticmethod
    def from_obj(system: System, obj: dict) -> "DiffPoly":
        terms = []
        for t in obj["terms"]:
            word = tuple(
                system.gen(m["gen"], _json_int(m["k"], "k"), _json_int(m.get("dz", 0), "dz"),
                           _json_int(m.get("dt", 0), "dt"))
                for m in t["mono"]
            )
            terms.append((word, Scalar.from_obj(t["coef"])))
        return system.poly(terms)


# -- spec-level operation wrappers ---------------------------------------------


def canonicalize(system: System, raw_terms: Iterable[Tuple[Sequence[DerivedGenerator], Scalar]]) -> DiffPoly:
    """Build the canonical sorted form of a raw term list, with Koszul signs."""
    return system.poly(raw_terms)


def grade(p: DiffPoly) -> Optional[Grading]:
    return p.grade()


def apply_T(p: DiffPoly) -> DiffPoly:
    """Total z-derivative."""
    return p.dz()


def euler_derivative(p: DiffPoly, name: str, index: int) -> DiffPoly:
    """Variational derivative sum_k (-T)^k d/d(dz^k gen).

    Vanishes identically on total z-derivatives; a constant-free vertex
    expression lies in the image of T iff this vanishes for every generator.
    """
    if p.system.species != "vertex":
        raise ValueError("euler_derivative is defined for vertex-species systems")
    orders = sorted({dg.dz for (w, _) in p._terms for dg in w if dg.base_key == (name, index)})
    acc: Dict[TermKey, Fraction] = {}
    for k in orders:
        _add_scaled(acc, p.partial(DerivedGenerator(name, index, k, 0)).dz(k)._terms, (-1) ** k)
    return _poly(p.system, acc)


# -- integration by parts ------------------------------------------------------


def _word_profile(word: Word) -> Tuple[Tuple[str, int, int], ...]:
    return tuple(sorted((dg.name, dg.index, dg.dt) for dg in word))


def _multisets(slots: int, total: int, low: int = 0) -> Iterator[Tuple[int, ...]]:
    """Nondecreasing ``slots``-tuples of integers >= low with the given sum,
    in lexicographic order."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for v in range(low, total // slots + 1):
        for rest in _multisets(slots - 1, total - v, v):
            yield (v,) + rest


def _enumerate_slice(system: System, profile: Tuple[Tuple[str, int, int], ...], total_dz: int) -> List[Word]:
    """All canonical monomials with the given base-factor multiset and total dz."""
    groups: List[Tuple[Tuple[str, int, int], int]] = []
    for key, grp in itertools.groupby(profile):
        groups.append((key, len(list(grp))))
    words: List[Word] = []

    def build(gi: int, remaining: int, acc: List[DerivedGenerator]):
        if gi == len(groups):
            if remaining == 0:
                sw = _sort_word(system, tuple(acc))  # None for a repeated odd factor
                if sw is not None:
                    words.append(sw[0])
            return
        (name, index, dt), count = groups[gi]
        for s in range(remaining + 1):
            for dist in _multisets(count, s):
                build(gi + 1, remaining - s, acc + [DerivedGenerator(name, index, d, dt) for d in dist])

    build(0, total_dz, [])
    return sorted(set(words), key=_word_order)


def _axpy(dst: Dict, src: Dict, f) -> None:
    """dst -= f * src, dropping the entries that cancel."""
    for k, c in src.items():
        nv = dst.get(k, 0) - f * c
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def _echelon(images: Dict, columns: Sequence) -> Dict:
    """The reduced echelon form of ``images``, a dict from preimage to its
    image ``{column: Fraction}``, as one integer entry per pivot column.

    Each image, in preimage order, is reduced against the rows so far, kept
    in pivot order (a row's pivot is its first column in ``columns``
    order); an image already spanned is dropped, any other becomes a row,
    scaled to 1 at its pivot, with the preimages it is the image of.  One
    back-substitution then clears every pivot from the other rows.  The row
    of pivot column u is ``entries[u] = (index, den, h, c)``: u's index in
    ``columns``, and what one unit of u leaves in h (the row's other
    columns, negated) and in C (the row's preimages), each as
    ``((key, int), ...)`` numerators over ``den``, the least common
    denominator of the row, h in column order and C in preimage order.
    """
    def clear(vec, combo, rows):
        for piv, rvec, rcombo in rows:
            f = vec.get(piv)
            if f:
                _axpy(vec, rvec, f)
                _axpy(combo, rcombo, f)

    index, preimages, rows = {k: i for i, k in enumerate(columns)}, list(images), []
    for j, image in enumerate(images.values()):
        vec, combo = {index[k]: c for k, c in image.items()}, {j: Fraction(1)}
        clear(vec, combo, rows)
        if vec:
            piv = min(vec)
            f = vec[piv]
            bisect.insort(rows, (piv, {k: c / f for k, c in vec.items()}, {k: c / f for k, c in combo.items()}),
                          key=lambda r: r[0])
    for i in range(len(rows) - 2, -1, -1):
        clear(rows[i][1], rows[i][2], rows[i + 1:])
    entries = {}
    for piv, vec, combo in rows:
        del vec[piv]
        den = math.lcm(*[c.denominator for c in vec.values()], *[c.denominator for c in combo.values()])
        entries[columns[piv]] = (
            piv, den,
            tuple([(columns[i], -vec[i].numerator * (den // vec[i].denominator)) for i in sorted(vec)]),
            tuple([(preimages[j], combo[j].numerator * (den // combo[j].denominator)) for j in sorted(combo)]),
        )
    return entries


def _project(acc: _IntSum, entries: Dict, vec: Dict, h_bucket, c_bucket) -> None:
    """Split ``vec`` as image(C) + h against `_echelon` entries, adding h and C
    to two buckets of ``acc``.  Since every row is 1 at its pivot and 0 at
    the other pivots, this adds, in pivot order, each pivot column's entry
    scaled by its coefficient in vec; vec's other columns pass to h."""
    pivots = []
    for w, c in vec.items():
        e = entries.get(w)
        if e is None:
            acc.add(h_bucket, ((w, 1),), c.numerator, c.denominator)
        else:
            pivots.append((e, c))
    pivots.sort(key=lambda ec: ec[0][0])
    for (_, den, h, cw), c in pivots:
        acc.add(h_bucket, h, c.numerator, c.denominator * den)
        acc.add(c_bucket, cw, c.numerator, c.denominator * den)


@lru_cache(maxsize=1024)
def _slice_reduction(signature, profile: Tuple[Tuple[str, int, int], ...], total_dz: int):
    """`_echelon` entries of the image of T on a graded slice of the system
    declared by ``signature``, with the slice's words as columns in
    canonical order and the words one z-derivative down as preimages.
    Keyed by the declared generators, so systems declared alike share
    entries.
    """
    species, declared = signature
    system = System(species, (Generator(n, i, p, d, Fraction(num, den)) for n, i, p, d, num, den in declared))
    pre_basis = _enumerate_slice(system, profile, total_dz - 1) if total_dz > 0 else []
    images = {pw: {w: c for (w, _), c in system.monomial(pw).dz()._terms.items()} for pw in pre_basis}
    return _echelon(images, _enumerate_slice(system, profile, total_dz))


def ibp_decompose(p: DiffPoly) -> Tuple[DiffPoly, DiffPoly]:
    """Decompose p = T(C) + h with h in a fixed complement of im T.

    The complement is determined per graded slice by exact row reduction of
    the T-image against the canonical monomial order (`_slice_reduction`),
    so the decomposition is deterministic and h vanishes iff p is a total
    z-derivative.  Each slice of p is split by `_project` in integer
    numerators, with one bucket per slice for C, so C lists its words in
    first-seen order slice by slice, and h lists its terms in canonical
    order, which every normal form inherits.  Raises ValueError if p has a
    constant term.
    """
    if p.constant_part():
        raise ValueError("ibp_decompose requires an expression without constant term")
    sys_ = p.system
    groups: Dict[Tuple[Tuple[Tuple[str, int, int], ...], int, int], Dict[Word, Fraction]] = {}
    for (word, lam), c in p._terms.items():
        key = (_word_profile(word), sum(dg.dz for dg in word), lam)
        groups.setdefault(key, {})[word] = c

    acc = _IntSum()  # buckets (None, lam) hold h, (slice number, lam) hold C
    for g, ((profile, dzsum, lam), vec) in enumerate(groups.items()):
        _project(acc, _slice_reduction(sys_.signature, profile, dzsum), vec, (None, lam), (g, lam))
    c_terms: Dict[TermKey, Fraction] = {}
    h_terms: List[Tuple[TermKey, Fraction]] = []
    for (g, lam), nums in acc.buckets.items():
        out = [((w, lam), Fraction(n, acc.den)) for w, n in nums.items() if n]
        if g is None:
            h_terms += out
        else:
            c_terms.update(out)
    h_terms.sort(key=lambda kv: (_word_order(kv[0][0]), kv[0][1]))
    return DiffPoly(sys_, c_terms), DiffPoly(sys_, dict(h_terms))


class Derivation:
    """A graded derivation determined by its values on derived generators.

    Each generator's image is computed by ``rule`` once for the life of the
    derivation, so its memo holds at most one entry per derived generator seen.
    """

    def __init__(self, system: System, parity: int, rule: Callable[[DerivedGenerator], DiffPoly]):
        self.system = system
        self.parity = parity
        self.rule = rule
        self._images: Dict[DerivedGenerator, Dict[TermKey, Fraction]] = {}

    @classmethod
    def from_base_rules(cls, system: System, parity: int, images: Dict[Tuple[str, int], DiffPoly]) -> "Derivation":
        """Derivation commuting with both total derivatives, given on bases."""

        def rule(dg: DerivedGenerator) -> DiffPoly:
            img = images.get(dg.base_key)
            if img is None or img.is_zero():
                return system.zero()
            out = img.dz(dg.dz)
            if dg.dt:
                out = out.dt(dg.dt)
            return out

        return cls(system, parity, rule)

    def __call__(self, p: DiffPoly) -> DiffPoly:
        return _poly(self.system, self._apply(p._terms))

    def _apply(self, terms: Dict[TermKey, Fraction]) -> Dict[TermKey, Fraction]:
        """The image of ``terms``, accumulated as in ``_add_scaled``.  Integral
        image coefficients are kept as ints, so integer input stays integer."""
        sys_ = self.system
        images = self._images
        acc: Dict[TermKey, Fraction] = {}
        for (word, lam), c in terms.items():
            before = 0
            for i, dg in enumerate(word):
                img = images.get(dg)
                if img is None:
                    img = images[dg] = {k: v.numerator if v.denominator == 1 else v
                                        for k, v in self.rule(dg)._terms.items()}
                if img:
                    sc = -c if (self.parity and before % 2) else c
                    for (iw, il), ic in img.items():
                        sw = _sort_word(sys_, word[:i] + iw + word[i + 1 :])
                        if sw is not None:
                            v = sc * ic if sw[1] > 0 else -(sc * ic)
                            key = (sw[0], lam + il)
                            old = acc.get(key)
                            acc[key] = v if old is None else old + v
                before += sys_.parity(dg)
        return acc

"""Free-field vertex algebra engine.

Contraction tables hold the central singular OPE of generator pairs as a
finite map {pole order -> Scalar}.  Wick's theorem produces the singular
coefficients C_n of the OPE of two normal-ordered monomials; the Borcherds
commutator formula turns them into the modes Lie bracket on V[z,1/z]
modulo total derivatives, with a normal form based on integration by parts.
Maurer-Cartan residuals delta(I) + (1/2) lam^{-1} [I, I] certify quantum
master equations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from .algebra import (
    Derivation,
    DerivedGenerator,
    DiffPoly,
    Generator,
    Scalar,
    System,
    TermKey,
    Word,
    _add_scaled,
    _integral,
    _IntSum,
    _json_int,
    _multisets,
    _poly,
    _sort_word,
    ibp_decompose,
)

__all__ = [
    "ContractionTable",
    "ModeElement",
    "wick_ope",
    "nth_product",
    "mode_bracket",
    "bracket_zero_modes",
    "mode_normal_form",
    "mc_residual",
    "make_heisenberg",
    "make_bcov",
    "delta_bcov",
]

BaseKey = Tuple[str, int]
PoleMap = Dict[Tuple[int, int], Fraction]  # (pole order, lam power) -> coefficient
Group = Tuple[DerivedGenerator, int, int]  # a factor, its multiplicity in a word, its parity
Classes = Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], PoleMap]  # used counts -> pole map
Term = Tuple[Word, int, Tuple[int, int], int, set, set]  # see `_split_terms`
WickTerms = Tuple[Tuple[int, int, Tuple[Tuple[TermKey, int], ...]], ...]  # (n, den, numerators): `_wick_terms`


class ContractionTable:
    """Central two-point contractions a(z)b(w) ~ sum_k c_k/(z-w)^k.

    Entries are given for ordered pairs; the reversed pair is filled in by
    graded symmetry c_k(b,a) = (-1)^{p(a)p(b)} (-1)^k c_k(a,b).
    Only central (scalar-valued) singular parts are supported; all systems
    here are free.

    Entries and pole maps are kept in canonical order, and tables compare
    and hash by ``signature``, the declaration as plain ints and strings:
    tables declared alike, in any listing order, are equal and share the
    Wick cache (`_cached_wick_terms`).
    """

    def __init__(self, system: System, entries: Dict[Tuple[BaseKey, BaseKey], Dict[int, Scalar]]):
        self.system = system
        table: Dict[Tuple[BaseKey, BaseKey], Dict[int, Scalar]] = {}
        for (a, b), poles in entries.items():
            ga, gb = system.base(*a), system.base(*b)
            clean = {int(k): v for k, v in poles.items() if not v.is_zero()}
            for k in clean:
                if k < 1:
                    raise ValueError("pole orders must be >= 1")
            self._merge(table, (a, b), clean)
            swap_sign = (-1) ** (ga.parity * gb.parity)
            self._merge(
                table,
                (b, a),
                {k: v * Fraction(swap_sign * (-1) ** k) for k, v in clean.items()},
            )
        self._table = {pair: dict(sorted(poles.items())) for pair, poles in sorted(table.items())}
        # a frozenset, not a tuple of the entries: streams make a table per
        # request, and CPython 3.11 returns such tuples (of 20 items, or of more
        # than 10 built from a generator) to free lists nothing draws from,
        # which made psm-jacobi's peak RSS creep between full collections
        self.signature = (system.signature, frozenset(
            (a, b, tuple([(k, v.coef.numerator, v.coef.denominator, v.lam) for k, v in poles.items()]))
            for (a, b), poles in self._table.items()
        ))
        self._hash = hash(self.signature)  # hashed on every Wick cache lookup
        self._partners: Dict[BaseKey, set] = {}  # base generator -> the ones it contracts with
        for a, b in table:
            self._partners.setdefault(a, set()).add(b)
        self._powers: Dict[Tuple[DerivedGenerator, DerivedGenerator, int], PoleMap] = {}

    @staticmethod
    def _merge(table, key, poles: Dict[int, Scalar]):
        if not poles:
            return
        if key in table:
            if table[key] != poles:
                raise ValueError(f"conflicting entries for pair {key}")
            return
        table[key] = dict(poles)

    def __eq__(self, other) -> bool:
        return isinstance(other, ContractionTable) and self.signature == other.signature

    def __hash__(self) -> int:
        return self._hash

    def entry(self, a: BaseKey, b: BaseKey) -> Dict[int, Scalar]:
        return self._table.get((a, b), {})

    def check_operands(self, *operands) -> None:
        """Raise ValueError unless every operand's system is declared like the table's."""
        if any(x.system.signature != self.system.signature for x in operands):
            raise ValueError("operand and contraction table belong to different systems")

    def pole_power(self, a: DerivedGenerator, b: DerivedGenerator, k: int) -> PoleMap:
        """The k-th convolution power of the contraction of derived a with b.

        Empty when the base generators do not contract.  Computed once per
        table and kept in a plain dict: the keys are bounded by the derived
        generators the table meets.
        """
        key = (a, b, k)
        got = self._powers.get(key)
        if got is None:
            if k == 1:
                got = {}
                for pole, v in self.entry(a.base_key, b.base_key).items():
                    c = v.coef * _falling_coeff(pole, a.dz, b.dz)
                    # integral values stay ints, which keeps class enumeration in int arithmetic
                    got[(pole + a.dz + b.dz, v.lam)] = c.numerator if c.denominator == 1 else c
            else:
                got = _convolve(self.pole_power(a, b, k - 1), self.pole_power(a, b, 1))
            self._powers[key] = got
        return got

    def to_obj(self) -> dict:
        pairs = []
        for (a, b), poles in sorted(self._table.items()):
            pairs.append(
                {
                    "a": f"{a[0]}{a[1]}",
                    "b": f"{b[0]}{b[1]}",
                    "poles": {str(k): v.to_obj() for k, v in sorted(poles.items())},
                }
            )
        return {"pairs": pairs}

    @staticmethod
    def _parse_flat_id(s: str) -> BaseKey:
        i = len(s)
        while i > 0 and s[i - 1].isdigit():
            i -= 1
        if i == 0 or i == len(s):
            raise ValueError(f"malformed generator id {s!r}")
        return (s[:i], int(s[i:]))

    @staticmethod
    def from_obj(system: System, obj: dict) -> "ContractionTable":
        entries: Dict[Tuple[BaseKey, BaseKey], Dict[int, Scalar]] = {}
        for pair in obj["pairs"]:
            a = ContractionTable._parse_flat_id(pair["a"])
            b = ContractionTable._parse_flat_id(pair["b"])
            poles = {int(k): Scalar.from_obj(v) for k, v in pair["poles"].items()}
            # every listed pair reaches the constructor, which checks each against its mirror
            if entries.setdefault((a, b), poles) != poles:
                raise ValueError(f"conflicting entries for pair {(a, b)}")
        return ContractionTable(system, entries)


def _falling_coeff(k: int, a: int, b: int) -> int:
    # d_z^a d_w^b (z-w)^{-k} = (-1)^a (k+a+b-1)!/(k-1)! (z-w)^{-(k+a+b)}
    return (-1) ** a * math.factorial(k + a + b - 1) // math.factorial(k - 1)


def _convolve(p: PoleMap, q: PoleMap) -> PoleMap:
    out: PoleMap = {}
    for (P, l), c in p.items():
        for (Q, m), d in q.items():
            key = (P + Q, l + m)
            out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=1024)
def _shift_multisets(e: int, budget: int) -> Tuple[Tuple[Tuple[int, ...], int, int, int], ...]:
    """Taylor shifts of e identical factors with total <= budget, one per multiset.

    Each entry is (nondecreasing shifts, total, count, denominator): the
    count = e!/prod(mult!) compositions that permute the shifts share the
    Taylor coefficient 1/denominator = 1/prod(s!).  Entries are in
    lexicographic order of the shifts, which sets the Wick term order.
    """
    out = []
    for shifts in sorted(t for s in range(budget + 1) for t in _multisets(e, s)):
        count, den = math.factorial(e), 1
        for s, run in groupby(shifts):
            count //= math.factorial(len(list(run)))
        for s in shifts:
            den *= math.factorial(s)
        out.append((shifts, sum(shifts), count, den))
    return tuple(out)


def _taylor_shifts(groups: List[Tuple[DerivedGenerator, int]], budget: int):
    """Yield (shifted factors, total shift, count, denominator) over all groups."""
    if not groups or budget == 0:
        yield tuple(g for g, e in groups for _ in range(e)), 0, 1, 1
        return
    (g, e), rest = groups[0], groups[1:]
    for shifts, total, count, den in _shift_multisets(e, budget):
        head = tuple(DerivedGenerator(g.name, g.index, g.dz + s, g.dt) if s else g for s in shifts)
        for tail, ttotal, tcount, tden in _taylor_shifts(rest, budget - total):
            yield head + tail, total + ttotal, count * tcount, den * tden


def _matching_classes(tbl: ContractionTable, gA: List[Group], gB: List[Group]) -> Classes:
    """Nonempty partial matchings between two grouped words, by class.

    Canonical words keep identical factors adjacent, so a matching is
    determined up to equivalence by its contingency table k_uv between the
    groups; a table stands for
        prod_u m_u!/((m_u-r_u)! prod_v k_uv!) * prod_v n_v!/(n_v-c_v)!
    matchings (r_u, c_v the used counts).  Its Koszul sign is that of any
    representative: only odd factors carry sign, and they never repeat.
    Tables with the same used counts leave the same factors, so the result
    maps (factors left per A group, per B group) to the sum of their
    signed, weighted pole maps.
    """
    baseB = [g[:2] for g, _, _ in gB]
    cells = [
        (u, v)
        for u, (a, _, _) in enumerate(gA)
        for v, b in enumerate(baseB)
        if (a[:2], b) in tbl._table
    ]
    classes: Classes = {}
    if not cells:
        return classes
    oddA = [odd * m for _, m, odd in gA]
    oddB = [odd * m for _, m, odd in gB]
    signed = any(oddA)
    oddA_after = [sum(oddA[u + 1 :]) for u in range(len(gA))]
    oddB_before = [sum(oddB[:v]) for v in range(len(gB))]
    rows = [m for _, m, _ in gA]  # factors left per group
    cols = [n for _, n, _ in gB]
    ks = [0] * len(cells)

    def sign() -> int:
        # an odd A_i crosses the odd factors left between it and its partner
        flips, gone = 0, []
        for (u, v), k in zip(cells, ks):
            if not k:
                continue
            if oddA[u]:
                flips += oddA_after[u] + oddB_before[v] - sum(oddB[w] for w in gone if w < v)
            if oddB[v]:
                gone.append(v)
        return -1 if flips % 2 else 1

    def visit(idx: int, weight: int, poles: PoleMap, used: int):
        if idx == len(cells):
            if used:
                factor = weight * sign() if signed else weight
                acc = classes.setdefault((tuple(rows), tuple(cols)), {})
                for key, c in poles.items():
                    acc[key] = acc.get(key, 0) + factor * c
            return
        visit(idx + 1, weight, poles, used)
        u, v = cells[idx]
        a, b = gA[u][0], gB[v][0]
        for k in range(1, min(rows[u], cols[v]) + 1):
            nxt = _convolve(poles, tbl.pole_power(a, b, k))
            if not nxt:
                continue
            w = weight * math.comb(rows[u], k) * math.perm(cols[v], k)
            rows[u] -= k
            cols[v] -= k
            ks[idx] = k
            visit(idx + 1, w, nxt, used + k)
            rows[u] += k
            cols[v] += k
        ks[idx] = 0

    visit(0, 1, {(0, 0): 1}, 0)
    return classes


def _split_terms(p: DiffPoly, tbl: ContractionTable) -> List[Term]:
    """(word, lam, (coefficient numerator, denominator), parity, base
    generators, the base generators they contract with) for each term of p."""
    parity, partners = p.system.parity, tbl._partners
    out = []
    for (word, lam), c in p._terms.items():
        bases = {g[:2] for g in word}
        reach = set().union(*(partners.get(b, ()) for b in bases))
        out.append((word, lam, (c.numerator, c.denominator), sum(map(parity, word)) % 2, bases, reach))
    return out


def _pairs(termsA: List[Term], termsB: Optional[List[Term]] = None, ends: Optional[List[int]] = None):
    """(tA, tB, weight) over the pairs of `_split_terms` that can contract.

    Given termsB, all ordered pairs with weight 1.  Without it, the pairs i <= k
    of termsA, k < ends[i] when ends is given: the diagonal with weight 1, the
    others with 1 - (-1)^{p_i p_k} (see `mc_residual`).  Pairs of weight 0 and
    pairs with no contractible generator pair contribute nothing and are skipped.
    """
    if termsB is None:
        pairs = ((tA, termsA[k], 1 if k == i else 1 - (-1) ** (tA[3] * termsA[k][3]))
                 for i, tA in enumerate(termsA) for k in range(i, len(termsA) if ends is None else ends[i]))
    else:
        pairs = ((tA, tB, 1) for tA in termsA for tB in termsB)
    return ((tA, tB, w) for tA, tB, w in pairs if w and not tA[5].isdisjoint(tB[4]))


def _product_sum(sys_: System, tbl: ContractionTable, n: int, pairs) -> DiffPoly:
    """Sum of weight * tA_(n) tB over the (tA, tB, weight) of `_pairs`."""
    acc = _IntSum()
    for tA, tB, w in pairs:
        (a, b), (c, d) = tA[2], tB[2]
        for _, den, nums in _cached_wick_terms(tbl, tA[0], tB[0], tA[1] + tB[1], n, n):
            acc.add(n, nums, w * a * c, b * d * den)
    return acc.poly(sys_, n)


@lru_cache(maxsize=8192)
def _shared(x):
    """The first value seen that equals x: a table or a term key.

    The Wick cache stores these, so it keeps one table (with its system and
    pole powers) alive per declaration, not one per caller, and entries
    that produce equal term keys store them once.
    """
    return x


@lru_cache(maxsize=4096)
def _cached_wick_terms(
    tbl: ContractionTable, wordA: Word, wordB: Word, lam: int, n_min: int, n_max: Optional[int]
) -> WickTerms:
    """`_wick_terms`, computed once per table declaration, pair of words,
    lam-power and n-range.

    The value holds no operand coefficient, so every term pair with these
    words shares it, and callers add it up scaled by cA * cB (`algebra._IntSum`).
    The bound sits well above the keys a stream of interactions of a few
    dimensions needs, since those share their monomial basis (about 1,100
    for the psm-jacobi benchmark); an LRU smaller than a cyclic working set
    would hit nothing.  ``lru_cache`` is thread-safe, and threads that miss
    on one key at once compute equal values.
    """
    return _wick_terms(tbl, wordA, wordB, lam, n_min, n_max)


def _wick_terms(
    tbl: ContractionTable, wordA: Word, wordB: Word, lam: int, n_min: int, n_max: Optional[int]
) -> WickTerms:
    """Singular coefficients C_n, n_min <= n <= n_max (no upper bound when
    None), of the OPE of the canonical monomials wordA and wordB with unit
    coefficients and lam-powers summing to lam.

    Returns (n, den, numerators) triples: C_n as (term key, int numerator)
    pairs over den, the least common denominator of its coefficients, zero
    numerators kept.  Immutable, since the cache hands the value to every
    caller.  Canonical words keep identical factors adjacent, so they split
    into groups of repeated factors; one Taylor re-expansion of the
    surviving z-side factors at w serves each class of matchings between
    the groups (see `_matching_classes`).
    """
    parity = tbl.system.parity
    gA, gB = ([(g, len(list(run)), parity(g)) for g, run in groupby(word)] for word in (wordA, wordB))
    out: Dict[int, Dict[TermKey, Fraction]] = {}
    for (rows_left, cols_left), poles in _matching_classes(tbl, gA, gB).items():
        poles = {key: c for key, c in poles.items() if c}
        if not poles:
            continue
        top = max(P for P, _ in poles) - 1
        n_top = top if n_max is None else min(top, n_max)
        survivors = [(g, e) for (g, _, _), e in zip(gA, rows_left) if e]
        restB = tuple(g for (g, _, _), e in zip(gB, cols_left) for _ in range(e))
        for shifted, stot, count, den in _taylor_shifts(survivors, top - n_min):
            hits = [(P - 1 - stot, l, c) for (P, l), c in poles.items() if n_min <= P - 1 - stot <= n_top]
            if not hits:
                continue
            sw = _sort_word(tbl.system, shifted + restB)
            if sw is None:
                continue
            mono, csign = sw
            scale = csign * count if den == 1 else Fraction(csign * count, den)
            for n, l, c in hits:
                terms = out.setdefault(n, {})
                key = (mono, lam + l)
                val = c if scale == 1 else c * scale
                old = terms.get(key)
                terms[key] = val if old is None else old + val
    # class enumeration runs in int arithmetic where it can: c is an int or a Fraction
    ints = {n: _integral(terms) for n, terms in out.items()}
    return tuple((n, d, tuple((_shared(key), c) for key, c in nums.items())) for n, (nums, d) in ints.items())


def wick_ope(A: DiffPoly, B: DiffPoly, tbl: ContractionTable, n_min: int = 0) -> Dict[int, DiffPoly]:
    """Singular OPE coefficients {n >= n_min: C_n} of two monomial fields.

    C_n multiplies (z-w)^{-(n+1)}; the sum runs over nonempty Wick pairings
    with central contractions, Koszul signs and Taylor re-expansion of the
    surviving z-side factors at w.  Generator pairs absent from the table
    contract to zero.
    """
    if A.num_terms() != 1 or B.num_terms() != 1:
        raise ValueError("expected a monomial (single-term expression)")
    tbl.check_operands(A, B)
    tbl = _shared(tbl)
    (((wordA, lamA), cA),), (((wordB, lamB), cB),) = A._terms.items(), B._terms.items()
    out = {
        n: _poly(A.system, {key: c * Fraction(cA * cB, den) for key, c in nums})
        for n, den, nums in _cached_wick_terms(tbl, wordA, wordB, lamA + lamB, n_min, None)
    }
    return {n: p for n, p in out.items() if not p.is_zero()}


def nth_product(A: DiffPoly, n: int, B: DiffPoly, tbl: ContractionTable) -> DiffPoly:
    """The n-th product A_(n) B for n >= 0, extended bilinearly."""
    if n < 0:
        raise ValueError("nth_product is defined for n >= 0")
    tbl.check_operands(A, B)
    tbl = _shared(tbl)
    if A.is_zero() or B.is_zero():  # nothing to pair: skip grouping the other side
        return A.system.zero()
    return _product_sum(A.system, tbl, n, _pairs(_split_terms(A, tbl), _split_terms(B, tbl)))


class ModeElement:
    """A finite sum of A_k tensor z^k, representing modes in V[z,1/z]/im d.

    Equality is only meaningful through `mode_normal_form`; the normal form
    keeps, per z-power, the non-integrable part of the coefficient, pushes
    total derivatives to lower powers via (T A) z^k == -k A z^{k-1}, and
    flags central constants at z^{-1}.
    """

    __slots__ = ("system", "parts")

    def __init__(self, system: System, parts: Dict[int, DiffPoly]):
        self.system = system
        self.parts = {k: p for k, p in parts.items() if not p.is_zero()}

    @staticmethod
    def zero_mode(p: DiffPoly) -> "ModeElement":
        return ModeElement(p.system, {0: p})

    def is_zero(self) -> bool:
        return not self.parts

    def part(self, k: int) -> DiffPoly:
        return self.parts.get(k, self.system.zero())

    def central_part(self) -> Dict[int, Fraction]:
        """lam-power -> coefficient of the central mode 1 tensor z^{-1}."""
        return self.part(-1).constant_part()

    def __add__(self, other: "ModeElement") -> "ModeElement":
        if self.system is not other.system:
            raise ValueError("mode elements belong to different systems")
        parts = {k: dict(p._terms) for k, p in self.parts.items()}
        for k, p in other.parts.items():
            _add_scaled(parts.setdefault(k, {}), p._terms)
        return ModeElement(self.system, {k: _poly(self.system, t) for k, t in parts.items()})

    def __sub__(self, other: "ModeElement") -> "ModeElement":
        return self + other.scale(Fraction(-1))

    def scale(self, factor) -> "ModeElement":
        return ModeElement(self.system, {k: p.scale(factor) for k, p in self.parts.items()})

    def __repr__(self) -> str:
        if not self.parts:
            return "0"
        return " + ".join(f"[{p!r}] z^{k}" for k, p in sorted(self.parts.items()))

    def to_obj(self) -> dict:
        return {
            "parts": [
                {"zpow": k, **self.parts[k].to_obj()} for k in sorted(self.parts)
            ]
        }

    @staticmethod
    def from_obj(system: System, obj: dict) -> "ModeElement":
        return ModeElement(
            system,
            {_json_int(p["zpow"], "zpow"): DiffPoly.from_obj(system, p) for p in obj["parts"]},
        )


def _gen_binom(m: int, j: int) -> int:
    # binomial coefficient with integer (possibly negative) upper argument
    num = 1
    for s in range(j):
        num *= m - s
    return num // math.factorial(j)


def mode_bracket(X: ModeElement, Y: ModeElement, tbl: ContractionTable) -> ModeElement:
    """Borcherds commutator [A_(m), B_(n)] = sum_j C(m,j) (A_(j)B)_(m+n-j).

    The j-sum runs over the poles the Wick terms produce, and stops at
    j = m for m >= 0, where C(m, j) vanishes beyond.  Negative output powers
    (central terms) are retained.
    """
    tbl.check_operands(X, Y)
    tbl = _shared(tbl)
    acc = _IntSum()
    termsY = {n: _split_terms(Bn, tbl) for n, Bn in Y.parts.items()}
    for m, Am in X.parts.items():
        j_max = m if m >= 0 else None
        termsA = _split_terms(Am, tbl)
        for n, termsB in termsY.items():
            for tA, tB, _ in _pairs(termsA, termsB):
                (a, b), (c, d) = tA[2], tB[2]
                for j, den, Cj in _cached_wick_terms(tbl, tA[0], tB[0], tA[1] + tB[1], 0, j_max):
                    acc.add(m + n - j, Cj, _gen_binom(m, j) * a * c, b * d * den)
    return ModeElement(X.system, {k: acc.poly(X.system, k) for k in acc.buckets})


def bracket_zero_modes(A: DiffPoly, B: DiffPoly, tbl: ContractionTable) -> ModeElement:
    """Fast path for [A z^0, B z^0] = (A_(0) B) z^0."""
    return ModeElement(A.system, {0: nth_product(A, 0, B, tbl)})


def mode_normal_form(X: ModeElement) -> ModeElement:
    """Canonical representative modulo im d.

    Processes z-powers from the top down: at each power the coefficient is
    split into T(C) + h by `ibp_decompose`; h stays, while T(C) z^k is
    replaced by -k C z^{k-1}.  Constants vanish at every power except -1,
    where they are central and kept, in lam order ahead of h, so every part
    is in canonical term order.  The result is empty iff X == 0 in
    V[z,1/z]/im d.
    """
    sys_ = X.system
    pending = {k: dict(p._terms) for k, p in X.parts.items()}
    result: Dict[int, Dict[TermKey, Fraction]] = {}
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
        C, h = ibp_decompose(p)
        _add_scaled(out, h._terms)
        if k != 0 and not C.is_zero():
            _add_scaled(pending.setdefault(k - 1, {}), C._terms, -k)
    return ModeElement(sys_, {k: _poly(sys_, terms) for k, terms in result.items()})


def mc_residual(
    I: DiffPoly,
    delta: Derivation,
    tbl: ContractionTable,
    hbar_inv: Scalar = Scalar(Fraction(1), -1),
) -> ModeElement:
    """Normal form of delta(I) z^0 + (1/2) hbar_inv [I z^0, I z^0].

    An empty result certifies the renormalized quantum master equation for
    the chiral interaction I.  ``hbar_inv`` defaults to lam^{-1}; pass
    Scalar.of(1) for tables already normalized to lam = 1.

    Skew-symmetry, b_(0)a = -(-1)^{p(a)p(b)} a_(0)b modulo total
    derivatives, lets the pairs i <= k of the terms of I stand for all
    ordered pairs (weights in `_pairs`).  It holds only modulo d, so only
    normal-formed residuals use it: raw `mode_bracket` keeps every ordered
    pair.
    """
    if delta.parity != 1:
        raise ValueError("the differential must be odd (degree 1)")
    tbl.check_operands(I)
    tbl = _shared(tbl)
    br = _product_sum(I.system, tbl, 0, _pairs(_split_terms(I, tbl))).scale(hbar_inv * Fraction(1, 2))
    return mode_normal_form(ModeElement.zero_mode(delta(I)) + ModeElement.zero_mode(br))


# -- standard systems ------------------------------------------------------------


def make_heisenberg(lam_power: int = 0) -> Tuple[System, ContractionTable]:
    """Single weight-1 boson b0 with b0(z)b0(w) ~ lam^p/(z-w)^2."""
    sys_ = System("vertex", [Generator("b", 0, 0, 0, Fraction(1))])
    tbl = ContractionTable(sys_, {(("b", 0), ("b", 0)): {2: Scalar(Fraction(1), lam_power)}})
    return sys_, tbl


def make_bcov(kmax: int, lam_power: int = 0) -> Tuple[System, ContractionTable]:
    """Descendant fields b_k (even, cw 1-k) and eta_k (odd, cw -k), k <= kmax.

    The kernel is degenerate: only b0-b0 contracts, with a double pole.
    """
    gens = [Generator("b", k, 0, 0, Fraction(1 - k)) for k in range(kmax + 1)]
    gens += [Generator("eta", k, 1, 1, Fraction(-k)) for k in range(kmax + 1)]
    sys_ = System("vertex", gens)
    tbl = ContractionTable(sys_, {(("b", 0), ("b", 0)): {2: Scalar(Fraction(1), lam_power)}})
    return sys_, tbl


def delta_bcov(system: System) -> Derivation:
    """The BCOV differential: b_{k+1} -> d_z eta_k, everything else to zero."""
    images = {}
    for g in system.generators():
        if g.name == "b" and g.index >= 1 and system.has("eta", g.index - 1):
            images[(g.name, g.index)] = system.monomial([system.gen("eta", g.index - 1, dz=1)])
    return Derivation.from_base_rules(system, 1, images)

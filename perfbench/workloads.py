"""The four request streams of the chiralbv benchmark.

Every workload is a closed loop of verification requests sent straight into
the library's public functions.  Inputs are drawn here, not through
``chiralbv.sampling``, so a change to the package cannot change the
workload.  A workload has four parts:

* ``setup()`` imports the package and builds what every request shares:
  systems, contraction tables, W-generators.  ``setup_s`` measures it.
* ``draw(rng)`` draws one request: its structure and its coefficients.
* ``recoef(request, rng)`` redraws the coefficients and keeps the structure.
* ``run(request)`` serves one request and checks its result exactly; it
  returns True when the check passed.
"""

from __future__ import annotations

import random
from fractions import Fraction

def rational(rng: random.Random) -> Fraction:
    """A nonzero rational with a one-digit numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def recoef_poly(p, rng: random.Random):
    """The same monomials as ``p`` with fresh nonzero coefficients."""
    return type(p)(p.system, {key: rational(rng) for key in p._terms})


class Stream:
    """Seeded request stream, served in periods of identical structure.

    Request costs inside a workload spread over two to four orders of
    magnitude (transport: 1 ms to 13 s), and no cheap feature of a request
    predicts them well.  With independent draws a 20 s transport run's
    throughput moved 19% between seeds, and a run cut at a deadline turns a
    1% timing jitter into a ~7% change in the count of cheap requests
    finished.  So the structure of each request (generators, derivatives,
    degrees, dimensions) comes from a schedule of ``workload.period`` draws
    from a seed that never changes, and every period redraws all
    coefficients from the run's seed.  Runs measure whole periods.

    A slot costs about the same in every period, so the k copies of a slot
    sit together in a run's sorted latencies.  Periods of 5 (mod 10)
    requests centre the p50 and p90 bands on one slot's copies rather than
    on the border between two slots.
    """

    def __init__(self, workload, seed: int, tag: str):
        self.workload = workload
        schedule = random.Random(f"{workload.name}:schedule:{tag}")
        self.schedule = [workload.draw(schedule) for _ in range(workload.period)]
        self.rng = random.Random(f"{workload.name}:{seed}:{tag}")

    def next_period(self) -> list:
        return [self.workload.recoef(r, self.rng) for r in self.schedule]


class Hamiltonians:
    """[H1, H2] = 0 for H = sum_k c_k oint W^(k)/k in the Heisenberg system.

    Each side has one or two generators from W^(2)..W^(5); W^(5) appears on
    at most one side, because a single [W^(5), W^(5)] bracket takes seconds.
    """

    name = "hamiltonians"
    period = 25
    warmup_requests = 6
    trace_periods = 2

    def setup(self):
        from chiralbv import correspondence, vertex

        self.vertex = vertex
        self.system, self.tbl = vertex.make_heisenberg(0)
        self.w = {
            k: correspondence.w_generator(k, self.system).scale(Fraction(1, k))
            for k in range(2, 6)
        }

    def draw(self, rng: random.Random):
        five_side = rng.randrange(3)  # 0, 1: that side may hold W^(5); 2: neither
        sides = []
        for side in range(2):
            pool = [2, 3, 4, 5] if five_side == side else [2, 3, 4]
            ks = sorted(rng.sample(pool, rng.randint(1, 2)))
            sides.append(tuple((k, rational(rng)) for k in ks))
        return tuple(sides)

    @staticmethod
    def recoef(request, rng: random.Random):
        return tuple(tuple((k, rational(rng)) for k, _ in side) for side in request)

    def _hamiltonian(self, side):
        h = self.system.zero()
        for k, c in side:
            h = h + self.w[k].scale(c)
        return self.vertex.ModeElement.zero_mode(h)

    def run(self, request) -> bool:
        v = self.vertex
        x, y = (self._hamiltonian(side) for side in request)
        return v.mode_normal_form(v.mode_bracket(x, y, self.tbl)).is_zero()


def moyal_element(system, rng: random.Random, max_t: int, max_degree: int, max_dz: int):
    """A nonzero Moyal element of one or two terms, each of T-level <= max_t."""
    gens = system.generators()
    while True:
        out = system.zero()
        for _ in range(rng.randint(1, 2)):
            budget = max_t
            word = []
            for _ in range(rng.randint(1, max_degree)):
                g = rng.choice(gens)
                dt = rng.randint(0, budget)
                budget -= dt
                word.append(system.gen(g.name, g.index, dz=rng.randint(0, max_dz), dt=dt))
            out = out + system.monomial(word, coef=rational(rng))
        if not out.is_zero():
            return out


class Transport:
    """phi([J1,J2]_star) - s [phi(J1), phi(J2)] on the weight-2 window is
    purely central (the c = 1 cocycle of the W-transport).

    Moyal pairs have T <= 2, degree <= 3 and dz <= 2 per term.  The weight-3
    window of the acceptance test is out of reach: single pairs take minutes.
    """

    name = "transport"
    period = 105
    warmup_requests = 8
    trace_periods = 1
    WMAX = 2

    def setup(self):
        from chiralbv import correspondence, moyal, vertex

        self.correspondence = correspondence
        self.bsys = moyal.make_b_system()
        self.system, self.tbl = vertex.make_bcov(6)

    def draw(self, rng: random.Random):
        return tuple(moyal_element(self.bsys, rng, max_t=2, max_degree=3, max_dz=2) for _ in range(2))

    @staticmethod
    def recoef(request, rng: random.Random):
        return tuple(recoef_poly(j, rng) for j in request)

    def run(self, request) -> bool:
        j1, j2 = request
        rep = self.correspondence.morphism_defect(j1, j2, self.system, self.tbl, self.WMAX)
        return rep["purely_central"]


class PsmJacobi:
    """Master-equation residual of the Poisson sigma model against the
    Schouten obstruction: the residual carries only lam^0 and equals
    4 x NF(trivector functional), the constant tests/test_psm.py pins.

    Bivectors are log-canonical quadratic (P^ij = q_ij x_i x_j, Poisson for
    every q) in dimension 3..5; half get one seeded linear term, which
    breaks Jacobi.  The oracle is exact for linear perturbations at every
    degmax; ``is_jacobi(D)`` is not the oracle, because at D = 3 it sees the
    degree-2 obstruction that the truncated interaction cannot carry (see
    NOTES.md).
    """

    name = "psm-jacobi"
    period = 45
    warmup_requests = 6
    trace_periods = 2

    def setup(self):
        from chiralbv import psm, vertex

        self.psm = psm
        self.vertex = vertex

    def draw(self, rng: random.Random):
        dim = rng.choice((3, 4, 5))
        entries = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                e = tuple((k == i) + (k == j) for k in range(dim))
                entries[(i, j)] = {e: rational(rng)}
        if rng.random() < 0.5:
            i, j = sorted(rng.sample(range(dim), 2))
            k = rng.randrange(dim)
            entries[(i, j)][tuple(int(m == k) for m in range(dim))] = rational(rng)
        return self.psm.PoissonBivector(dim, entries), rng.randint(3, 6)

    def recoef(self, request, rng: random.Random):
        p, degmax = request
        entries = {ij: {e: rational(rng) for e in poly} for ij, poly in p.entries.items()}
        return self.psm.PoissonBivector(p.dim, entries), degmax

    def run(self, request) -> bool:
        p, degmax = request
        psm, v = self.psm, self.vertex
        built = psm.build_psm(p, degmax)
        residual = psm.psm_mc_check(p, degmax, built=built)
        if any(lam != 0 for part in residual.parts.values() for (_, lam) in part._terms):
            return False
        tri = psm.trivector_functional(p, built[0], degmax)
        oracle = v.mode_normal_form(v.ModeElement.zero_mode(tri)).scale(Fraction(4))
        return (residual - oracle).is_zero()


class Fedosov:
    """Flat-connection solves checked as ``chiralbv fedosov solve`` checks
    them, alternating with star-associativity checks on seeded triples
    (T <= 1, degree <= 2, dz <= 1, budget 4).  Solves repeat identical
    inputs; triples never repeat."""

    name = "fedosov"
    period = 25
    warmup_requests = 4
    trace_periods = 2
    STAR_TMAX = 4

    def setup(self):
        from chiralbv import moyal

        self.moyal = moyal
        self.bsys = moyal.make_b_system()

    def draw(self, rng: random.Random):
        if rng.random() < 0.5:
            return "solve", rng.choice((3, 4, 5))
        return "assoc", tuple(moyal_element(self.bsys, rng, max_t=1, max_degree=2, max_dz=1) for _ in range(3))

    @staticmethod
    def recoef(request, rng: random.Random):
        kind, arg = request
        if kind == "solve":
            return request
        return kind, tuple(recoef_poly(e, rng) for e in arg)

    def run(self, request) -> bool:
        kind, arg = request
        if kind == "solve":
            return self._check_solve(arg)
        return self._check_assoc(*arg)

    def _check_solve(self, tmax: int) -> bool:
        m = self.moyal
        sol = m.fedosov_solve(tmax)
        j = sol.j()
        if not all(sol.residual_zero.values()):
            return False
        if not m.delta_inv(j).is_zero() or m.reflection(j) != j:
            return False
        dz_free = j.filter(lambda w, l: all(dg.dz == 0 for dg in w))
        if dz_free != m.closed_form_j0(tmax, sol.system):
            return False
        return all(lv.is_zero() or m.deg_cw(lv) == (1, Fraction(1)) for lv in sol.levels)

    def _check_assoc(self, f, g, h) -> bool:
        m, t = self.moyal, self.STAR_TMAX
        # strict=False: an intermediate product whose lowest T-level already
        # exceeds the budget contributes nothing below it (exact for a check
        # that reads T-levels <= t); the strict default raises instead
        left = m.split_t_levels(m.star(m.star(f, g, t, strict=False), h, t, strict=False))
        right = m.split_t_levels(m.star(f, m.star(g, h, t, strict=False), t, strict=False))
        zero = self.bsys.zero()
        return all(left.get(lv, zero) == right.get(lv, zero) for lv in range(t + 1))


WORKLOADS = {w.name: w for w in (Hamiltonians, Transport, PsmJacobi, Fedosov)}

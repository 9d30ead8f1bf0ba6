import random
from fractions import Fraction
from math import gcd

import pytest

from opcurve import curvedata
from opcurve.curvedata import (
    MAX_APERY_WORK,
    MAX_CONDUCTOR,
    AlgebraSpec,
    _constant_rows,
    _flatten,
    algebra_orders,
    cayley_hamilton_holds,
    charpoly_string,
    condition_report,
    filtration_piece,
    is_cyclic,
    laurent_span_dim,
    matrix_order,
    rank_of_algebra,
    semigroup_report,
    spectral_charpoly,
)
from opcurve.exactcore import (
    DomainError,
    Matrix,
    PrecisionError,
    ZLaurent,
    rank,
)


def zmono(k, c=1):
    return ZLaurent.monomial(k, c)


def scalar_alg(*exponents):
    return AlgebraSpec(1, [Matrix([[zmono(-e)]]) for e in exponents])


def j_matrix():
    return Matrix([[ZLaurent.zero(), ZLaurent.one()],
                   [zmono(-1), ZLaurent.zero()]])


# -- orders and semigroups ---------------------------------------------

def test_matrix_order():
    assert matrix_order(Matrix([[zmono(-3)]])) == 3
    assert matrix_order(j_matrix()) == 1
    assert matrix_order(Matrix([[ZLaurent({2: 1, -1: 5})]])) == 1
    with pytest.raises(DomainError):
        matrix_order(Matrix([[ZLaurent.zero()]]))
    with pytest.raises(PrecisionError):
        matrix_order(Matrix([[ZLaurent.zero(prec=4)]]))


def test_rank_of_algebra():
    assert rank_of_algebra(scalar_alg(2, 3)) == 1
    assert rank_of_algebra(scalar_alg(4, 6)) == 2
    assert rank_of_algebra(AlgebraSpec(2, [j_matrix()])) == 1


def test_semigroup_cusp():
    rep = semigroup_report([2, 3])
    assert rep.rank == 1
    assert rep.gaps == [1]
    assert rep.genus == 1
    assert rep.conductor == 2
    assert rep.coprime_bound == 1


def test_semigroup_three_four():
    rep = semigroup_report([3, 4])
    assert rep.gaps == [1, 2, 5]
    assert rep.genus == 3
    assert rep.conductor == 6
    assert rep.coprime_bound == 5


def test_semigroup_full_line():
    rep = semigroup_report([1])
    assert rep.gaps == []
    assert rep.genus == 0
    assert rep.conductor == 0


def test_semigroup_reduces_by_rank():
    rep = semigroup_report([4, 6])
    assert rep.rank == 2
    assert rep.reduced == [2, 3]
    assert rep.gaps == [1]
    assert rep.genus == 1


def test_semigroup_without_coprime_pair():
    # <6, 10, 15> has pairwise common factors but total gcd 1; the run
    # detector must reach its conductor 30 without any pair bound
    rep = semigroup_report([6, 10, 15])
    assert rep.rank == 1
    assert rep.coprime_bound is None
    assert rep.conductor == 30
    assert rep.genus == 15
    assert rep.gaps[:5] == [1, 2, 3, 4, 5]
    assert 29 in rep.gaps
    assert 28 not in rep.gaps


def test_semigroup_caps():
    rep = semigroup_report([1000, 1001])
    assert rep.conductor == 999000 <= MAX_CONDUCTOR
    assert rep.genus == 499500
    with pytest.raises(DomainError, match="conductor 3998000 exceeds "
                       "MAX_CONDUCTOR"):
        semigroup_report([2000, 2001])
    # rejected on the generator alone: no Apery list of 10^9 entries
    with pytest.raises(DomainError, match="smallest reduced generator "
                       "1000000000 exceeds MAX_CONDUCTOR"):
        semigroup_report([10**9, 10**9 + 1])


def test_semigroup_work_cap_precedes_the_apery_pass(monkeypatch):
    def no_pass(heap):
        raise AssertionError("the Apery pass ran")

    monkeypatch.setattr(curvedata, "heappop", no_pass)
    # 666667 * 3 is just above 2 * 10^6; the generator alone is in range
    a = MAX_APERY_WORK // 3 + 1
    assert a <= MAX_CONDUCTOR and 3 * a == MAX_APERY_WORK + 1
    with pytest.raises(DomainError, match=f"smallest reduced generator {a} "
                       "times 3 generators exceeds MAX_APERY_WORK"):
        semigroup_report([a, a + 1, a + 3])
    # the cap applies after reduction by the gcd: 2a, 2a + 2, 2a + 6
    with pytest.raises(DomainError, match="MAX_APERY_WORK = 2000000"):
        semigroup_report([2 * a, 2 * a + 2, 2 * a + 6])
    # one generator fewer is within the cap (and reaches the pass)
    with pytest.raises(AssertionError, match="the Apery pass ran"):
        semigroup_report([a, a + 1])


def test_semigroup_pair_cap_precedes_the_coprime_pair_scan(monkeypatch):
    def no_scan(*args):
        if len(args) == 2:
            raise AssertionError("the pair scan ran")
        return gcd(*args)

    monkeypatch.setattr(curvedata, "gcd", no_scan)
    # 1415^2 is just above 2 * 10^6, while 2 * 1415 is far below it
    g = 1415
    assert g * g > MAX_APERY_WORK >= (g - 1) ** 2
    with pytest.raises(DomainError, match=f"{g} reduced generators squared "
                       "exceeds MAX_APERY_WORK = 2000000"):
        semigroup_report(range(2, g + 2))
    # one generator fewer is within the cap (and reaches the scan)
    with pytest.raises(AssertionError, match="the pair scan ran"):
        semigroup_report(range(2, g + 1))


# The doubling-table semigroup and the per-candidate rank filtration the
# Apery set and the single elimination replaced, kept as oracles.

def doubling_semigroup(orders):
    generators = sorted({int(o) for o in orders if int(o) > 0})
    r = gcd(*generators)
    reduced = [g // r for g in generators]
    bound = None
    for i, a in enumerate(reduced):
        for b in reduced[i + 1:]:
            if gcd(a, b) == 1:
                c = a * b - a - b
                if bound is None or c < bound:
                    bound = c
    lead = reduced[0]
    size = max(reduced) + 1
    member = None
    conductor = None
    while conductor is None:
        size *= 2
        member = [False] * size
        member[0] = True
        for k in range(1, size):
            member[k] = any(k >= g and member[k - g] for g in reduced)
        run = 0
        for k in range(size):
            run = run + 1 if member[k] else 0
            if run == lead:
                conductor = max(0, k - lead + 1)
                break
    gaps = [k for k in range(1, conductor) if not member[k]]
    return {"generators": generators, "rank": r, "reduced": reduced,
            "conductor": conductor, "gaps": gaps, "genus": len(gaps),
            "coprime_bound": bound}


def per_candidate_filtration(spec, bound):
    mats = spec.matrices()
    orders = algebra_orders(spec)
    if bound < 0:
        return {"bound": bound, "dim": 0, "monomials": []}
    monos = [((0,) * len(mats), Matrix.identity(spec.n, ZLaurent.one()))]
    seen = {monos[0][0]}
    k = 0
    while k < len(monos):
        expo, mat = monos[k]
        k += 1
        for gi, g in enumerate(mats):
            cost = sum(e * o for e, o in zip(expo, orders)) + orders[gi]
            if cost > bound:
                continue
            nxt = tuple(e + (1 if j == gi else 0)
                        for j, e in enumerate(expo))
            if nxt in seen:
                continue
            seen.add(nxt)
            monos.append((nxt, g * mat))
    flats = []
    picked = []
    for expo, mat in sorted(monos, key=lambda t: (sum(t[0]), t[0])):
        stacked = _constant_rows(flats + [_flatten(mat)])
        if rank(stacked) > len(flats):
            flats.append(_flatten(mat))
            picked.append(expo)
    return {"bound": bound, "dim": len(flats),
            "monomials": [list(m) for m in picked]}


def seeded_order_sets():
    rng = random.Random(2007)
    sets = [[1], [1, 5, 9], [7, 7], [5, 5, 8], [4, 6, 9], [6, 10, 15],
            [12, 18, 30], [3, 3, 3]]
    while len(sets) < 320:
        gens = [rng.randint(1, 60) for _ in range(rng.randint(1, 4))]
        shape = rng.random()
        if shape < 0.2:
            gens = [g * rng.randint(2, 5) for g in gens]
        elif shape < 0.3:
            gens.append(1)
        elif shape < 0.4:
            gens.append(rng.choice(gens))
        rng.shuffle(gens)
        sets.append(gens)
    return sets


def test_semigroup_matches_doubling_table():
    sets = seeded_order_sets()
    assert any(gcd(*s) > 1 for s in sets)
    assert any(1 in s for s in sets)
    assert any(len(set(s)) < len(s) for s in sets)
    for orders in sets:
        assert semigroup_report(orders).as_dict() == \
            doubling_semigroup(orders), orders


def j_n(n):
    rows = [[ZLaurent.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = ZLaurent.one()
    rows[n - 1][0] = zmono(-1)
    return Matrix(rows)


def test_filtration_matches_per_candidate_rank():
    rng = random.Random(2009)
    specs = [scalar_alg(rng.randint(1, 7), rng.randint(1, 7))
             for _ in range(4)]
    specs += [AlgebraSpec(n, [j_n(n)]) for n in (2, 3, 4)]
    specs.append(scalar_alg(3, 5, 7))
    specs.append(AlgebraSpec(2, diag_gens=[zmono(-2), zmono(-3)]))
    specs.append(AlgebraSpec(2, [
        Matrix([[zmono(-2), ZLaurent.zero()], [ZLaurent.zero(), zmono(-3)]]),
        Matrix([[ZLaurent({-3: 1, 0: 2}), ZLaurent.zero()],
                [ZLaurent.zero(), zmono(-1)]])]))
    for spec in specs:
        for bound in range(-1, 15):
            assert filtration_piece(spec, bound).as_dict() == \
                per_candidate_filtration(spec, bound), (spec, bound)


# -- filtration ---------------------------------------------------------

def test_filtration_matches_semigroup_counts():
    spec = scalar_alg(2, 3)
    # dim of the piece of order <= k is the number of semigroup elements
    # up to k: {0}, {0,2}, {0,2,3}, {0,2,3,4}, ...
    want = [1, 1, 2, 3, 4, 5, 6]
    got = [filtration_piece(spec, k).dim for k in range(7)]
    assert got == want
    assert filtration_piece(spec, -1).dim == 0


def test_filtration_monomials_are_exponent_vectors():
    spec = scalar_alg(2, 3)
    rep = filtration_piece(spec, 4)
    assert (0, 0) in rep.monomials
    assert (1, 0) in rep.monomials
    assert (0, 1) in rep.monomials
    assert (2, 0) in rep.monomials
    assert rep.dim == 3 + 1


def test_filtration_j_algebra():
    spec = AlgebraSpec(2, [j_matrix()])
    # powers of the generator, one per order: dim k+1 at bound k
    for k in range(5):
        assert filtration_piece(spec, k).dim == k + 1


def test_filtration_rejects_unit_generators():
    spec = AlgebraSpec(1, [Matrix([[ZLaurent.one()]])])
    with pytest.raises(DomainError):
        filtration_piece(spec, 3)


# -- the span condition -------------------------------------------------

def test_condition_cusp_algebra():
    rep = condition_report(scalar_alg(2, 3))
    assert rep.commutes
    assert rep.span_dim == 1
    assert rep.rank == 1
    assert rep.satisfied


def test_condition_j_algebra():
    rep = condition_report(AlgebraSpec(2, [j_matrix()]))
    assert rep.commutes
    assert rep.span_dim == 2
    assert rep.rank == 1
    assert rep.satisfied


def test_condition_fails_for_diagonal_embedding():
    # scalar cusp algebra embedded diagonally in 2 x 2: span collapses
    spec = AlgebraSpec(2, diag_gens=[zmono(-2), zmono(-3)])
    rep = condition_report(spec)
    assert rep.commutes
    assert rep.span_dim == 1
    assert not rep.satisfied


def test_condition_fails_for_imprimitive_orders():
    rep = condition_report(scalar_alg(2))
    assert rep.commutes
    assert rep.span_dim == 1
    assert rep.rank == 2
    assert not rep.satisfied


def test_condition_detects_noncommuting():
    a = Matrix([[ZLaurent.zero(), ZLaurent.one()],
                [ZLaurent.zero(), ZLaurent.zero()]])
    b = Matrix([[zmono(-1), ZLaurent.zero()],
                [ZLaurent.zero(), ZLaurent.zero()]])
    rep = condition_report(AlgebraSpec(2, [a, b]))
    assert not rep.commutes
    assert not rep.satisfied


def test_span_dim_inconclusive_window():
    with pytest.raises(PrecisionError):
        laurent_span_dim([[ZLaurent.zero(prec=3)]])
    assert laurent_span_dim([[ZLaurent.zero()]]) == 0


def test_span_dim_eliminates_an_entry_zero_only_on_its_window():
    # below z^-1 the second row's first entry is unknown: it may be z^-1,
    # which makes the rows equal, so the span is not certified
    one = ZLaurent.one()
    with pytest.raises(PrecisionError):
        laurent_span_dim([[zmono(-1), one], [ZLaurent.zero(prec=-2), one]])
    assert laurent_span_dim([[zmono(-1), one], [ZLaurent.zero(), one]]) == 2
    assert laurent_span_dim([[zmono(-1), one], [zmono(-1), one]]) == 1


# -- characteristic data ------------------------------------------------

def test_charpoly_j():
    cs = spectral_charpoly(j_matrix())
    assert cs[0] == ZLaurent.zero()
    assert cs[1] == zmono(-1, -1)
    assert charpoly_string(cs) == "t^2 - z^-1"


def test_charpoly_diagonal():
    g = Matrix([[zmono(-1), ZLaurent.zero()],
                [ZLaurent.zero(), zmono(-2)]])
    cs = spectral_charpoly(g)
    assert cs[0] == ZLaurent({-1: 1, -2: 1})
    assert cs[1] == zmono(-3)


def test_cayley_hamilton_sampled():
    rng = random.Random(1313)
    for _ in range(20):
        n = rng.choice([2, 3])
        g = Matrix([[ZLaurent({k: rng.randint(-3, 3) for k in range(-2, 2)
                               if rng.random() < 0.5})
                     for _ in range(n)] for _ in range(n)])
        assert cayley_hamilton_holds(g)


def test_cyclicity():
    assert is_cyclic(j_matrix())
    assert not is_cyclic(Matrix([[zmono(-2), ZLaurent.zero()],
                                 [ZLaurent.zero(), zmono(-2)]]))
    g = Matrix([[zmono(-1), ZLaurent.zero()],
                [ZLaurent.zero(), zmono(-2)]])
    assert is_cyclic(g)

import random
import tracemalloc
from fractions import Fraction

import pytest

from innerforms import globalize
from innerforms.errors import GroupSpecError, TransferError
from innerforms.globalize import (
    MAX_PLACES,
    MAX_PRIME,
    MAX_TOWER_PRIMES,
    HasseVector,
    PlaceLabel,
    build_cocycle,
    global_division_algebra,
    is_prime,
    plan_globalization,
    plan_places,
    prime_splits_in_quadratic,
    q_star,
    split_primes,
)
from oracles import count_square_roots


def primes_below(bound):
    return [p for p in range(2, bound) if is_prime(p)]


def test_q_star_sign():
    assert q_star(5) == 5
    assert q_star(7) == -7
    assert q_star(11) == -11
    assert q_star(13) == 13
    # q* = 1 mod 4 always
    for q in primes_below(200):
        if q > 2:
            assert q_star(q) % 4 == 1


def test_split_primes_p5_includes_11():
    # q = 11: q* = -11 = 4 mod 5, a square, so 11 qualifies
    assert count_square_roots(q_star(11), 5) == 2
    assert 11 in split_primes(5, 5)


def test_split_primes_p2_criterion():
    qs = split_primes(2, 8)
    assert 17 in qs
    assert 3 not in qs
    # the discriminant condition admits q = 7 as well: q* = -7 = 1 mod 8
    assert q_star(7) % 8 == 1
    assert 7 in qs
    for q in qs:
        assert q_star(q) % 8 == 1


def test_split_primes_never_return_p_itself():
    for p in (3, 5, 7, 11):
        assert p not in split_primes(p, 10)


def test_split_primes_against_root_counting_oracle():
    # acceptance-grade sweep: all p < 200, first 10 outputs each
    for p in primes_below(200):
        found = split_primes(p, 10)
        assert len(found) == 10
        assert found == sorted(found)
        for q in found:
            if p == 2:
                assert q_star(q) % 8 == 1
            else:
                assert count_square_roots(q_star(q), p) == 2
        # and nothing below the last output was missed
        expected = [
            q
            for q in primes_below(found[-1] + 1)
            if q > 2 and q != p and prime_splits_in_quadratic(p, q)
        ]
        assert expected == found


def test_split_primes_validation():
    with pytest.raises(GroupSpecError):
        split_primes(4, 3)
    with pytest.raises(GroupSpecError, match=r"^count must be nonnegative$"):
        split_primes(5, -1)


# ---------------------------------------------------------------------------
# place plans


def test_plan_places_single_place_uses_base_field():
    plan = plan_places(5, 1)
    assert plan.degree == 1
    assert plan.tower_primes == ()
    assert len(plan.places) == 1


def test_plan_places_l3():
    plan = plan_places(5, 3)
    assert plan.degree == 4
    assert len(plan.tower_primes) == 2


def test_plan_places_boundary_power_of_two():
    plan = plan_places(5, 4)
    assert plan.degree == 4
    assert len(plan.places) == 4


def test_plan_places_minimal_r_sweep():
    for l in range(1, 1001):
        r = (l - 1).bit_length()
        assert 2**r >= l
        if r:
            assert 2 ** (r - 1) < l
        assert l <= 2**r < 2 * l or l == 1


def test_plan_places_r_matches_library():
    for l in (1, 2, 3, 4, 5, 17, 64, 65, 1000):
        plan = plan_places(3, l)
        assert plan.degree == 2 ** ((l - 1).bit_length())
        assert len(plan.places) == l


def test_place_cap_refuses_before_allocating():
    for call in (lambda: plan_places(5, 10**9), lambda: plan_globalization(5, 10**9, 2)):
        tracemalloc.start()
        try:
            with pytest.raises(GroupSpecError, match=f"above the limit of {MAX_PLACES}$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_place_cap_is_inclusive():
    assert len(plan_places(5, MAX_PLACES).places) == MAX_PLACES
    with pytest.raises(GroupSpecError, match=f"^{MAX_PLACES + 1} places requested"):
        plan_places(5, MAX_PLACES + 1)


def test_prime_cap_refuses_before_any_division(monkeypatch):
    def no_division(n):
        raise AssertionError(f"is_prime({n}) ran")

    monkeypatch.setattr(globalize, "is_prime", no_division)
    with pytest.raises(GroupSpecError, match=f"^prime {MAX_PRIME + 3} is above the limit of "):
        split_primes(MAX_PRIME + 3, 1)
    with pytest.raises(GroupSpecError, match="^prime 10000000000000061 is above the limit"):
        plan_globalization(10000000000000061, 4096, 2)
    with pytest.raises(GroupSpecError, match=f"^finite place 'w': prime {10**20 + 39} is above"):
        PlaceLabel(id="w", kind="finite", prime=10**20 + 39)


def test_split_prime_count_cap_refuses_before_any_search(monkeypatch):
    assert MAX_TOWER_PRIMES == 12  # 2^12 = MAX_PLACES places
    admitted = split_primes(999983, MAX_TOWER_PRIMES)
    assert len(admitted) == MAX_TOWER_PRIMES
    assert len(plan_places(999983, MAX_PLACES).tower_primes) == MAX_TOWER_PRIMES

    def no_division(n):
        raise AssertionError(f"is_prime({n}) ran")

    monkeypatch.setattr(globalize, "is_prime", no_division)
    with pytest.raises(GroupSpecError, match="^13 split primes requested, above the limit of 12$"):
        split_primes(999983, MAX_TOWER_PRIMES + 1)
    with pytest.raises(GroupSpecError, match="^4096 split primes requested"):
        split_primes(5, 4096)


def test_largest_prime_under_the_cap_is_admitted():
    largest = next(p for p in range(MAX_PRIME, 1, -1) if is_prime(p))
    assert len(split_primes(largest, 2)) == 2
    assert PlaceLabel(id="w", kind="finite", prime=largest).prime == largest
    assert len(plan_places(largest, MAX_PLACES).places) == MAX_PLACES


# ---------------------------------------------------------------------------
# cocycles


def place_list(k):
    return [PlaceLabel(id=f"v{i}", kind="finite", prime=5) for i in range(k)]


def test_build_cocycle_valid_order_two():
    places = place_list(4)
    check = build_cocycle(places, places[:2], 2, 1)
    assert check.valid
    values = dict((p.id, v) for p, v in check.assignment)
    assert values["v0"] == Fraction(1, 2)
    assert values["v3"] == 0


def test_build_cocycle_invalid_two_thirds():
    places = place_list(4)
    check = build_cocycle(places, places[:2], 3, 1)
    assert not check.valid


def test_build_cocycle_exhaustive_orders():
    places = place_list(36)
    for order in range(1, 13):
        for residue in range(1, order):
            for s_size in range(1, 37):
                check = build_cocycle(places, places[:s_size], order, residue)
                assert check.valid == ((s_size * residue) % order == 0)


def test_build_cocycle_monotone_in_multiples():
    places = place_list(36)
    for order in range(2, 13):
        for s_size in range(1, 37 - order):
            first = build_cocycle(places, places[:s_size], order, 1)
            if first.valid:
                again = build_cocycle(places, places[: s_size + order], order, 1)
                assert again.valid


def test_build_cocycle_validation():
    places = place_list(3)
    with pytest.raises(GroupSpecError):
        build_cocycle(places, [], 2, 1)
    with pytest.raises(GroupSpecError):
        build_cocycle(places, places[:2], 2, 2)  # class is zero mod order
    with pytest.raises(GroupSpecError, match=r"^phi_order must be positive$"):
        build_cocycle(places, places[:1], 0, 1)


def test_plan_globalization_assembles_cocycle():
    plan = plan_globalization(5, 3, 2)
    assert plan.s_multiple_of == 2
    assert len(plan.s_places) == 2
    assert plan.cocycle.total() == 0
    entries = {place.id: value for place, value in plan.cocycle.entries}
    assert entries["v0"] == Fraction(1, 2)
    assert "v2" not in entries


def test_plan_globalization_needs_enough_places():
    with pytest.raises(TransferError):
        plan_globalization(5, 2, 3)
    with pytest.raises(GroupSpecError, match=r"^class order must be positive$"):
        plan_globalization(5, 3, 0)


# ---------------------------------------------------------------------------
# global division algebras


def finite(id_, prime=5):
    return PlaceLabel(id=id_, kind="finite", prime=prime)


def hv(*pairs):
    return HasseVector.from_items(
        [(finite(f"v{i+1}"), Fraction(*frac)) for i, frac in enumerate(pairs)]
    )


def test_quaternion_algebra_two_places():
    report = global_division_algebra(2, hv((1, 2), (1, 2)))
    assert report.valid
    assert [(p.id, m, d) for p, m, d in report.local_data] == [
        ("v1", 1, 2),
        ("v2", 1, 2),
    ]
    assert [p.id for p in report.non_split_places] == ["v1", "v2"]


def test_single_ramified_place_fails():
    report = global_division_algebra(2, hv((1, 2)))
    assert not report.valid


def test_degree_six_example():
    report = global_division_algebra(6, hv((1, 2), (1, 3), (1, 6)))
    assert report.valid  # 1/2 + 1/3 + 1/6 = 1 = 0 in Q/Z
    assert [(m, d) for _, m, d in report.local_data] == [(3, 2), (2, 3), (1, 6)]


def test_denominator_must_divide_n():
    with pytest.raises(TransferError):
        global_division_algebra(4, hv((1, 3), (2, 3)))


def test_archimedean_constraints():
    real = PlaceLabel(id="real0", kind="real")
    cplx = PlaceLabel(id="cplx0", kind="complex")
    ok = HasseVector.from_items([(real, Fraction(1, 2)), (finite("v1"), Fraction(1, 2))])
    assert global_division_algebra(2, ok).valid
    bad = HasseVector.from_items([(real, Fraction(1, 4))])
    with pytest.raises(TransferError):
        global_division_algebra(4, bad)
    # a complex entry is canonicalized away when zero, rejected otherwise
    zero = HasseVector.from_items([(cplx, Fraction(0))])
    assert global_division_algebra(3, zero).valid


def test_random_vectors_against_fraction_oracle():
    rng = random.Random(99)
    n = 12
    for _ in range(10_000):
        k = rng.randint(1, 6)
        entries = []
        total = Fraction(0)
        for i in range(k):
            den = rng.choice([1, 2, 3, 4, 6, 12])
            num = rng.randrange(den)
            value = Fraction(num, den)
            total += value
            entries.append((finite(f"v{i+1}"), value))
        report = global_division_algebra(n, HasseVector.from_items(entries))
        assert report.valid == (total.denominator == 1)


def test_verdict_invariant_under_permutation():
    rng = random.Random(7)
    base = [(1, 2), (1, 3), (1, 6), (0, 1), (1, 2), (1, 2)]
    for _ in range(20):
        perm = base[:]
        rng.shuffle(perm)
        report = global_division_algebra(6, hv(*perm))
        assert report.valid == global_division_algebra(6, hv(*base)).valid


def test_forgetting_nonzero_entry_breaks_validity():
    vec = [(1, 2), (1, 3), (1, 6), (0, 1)]
    full = global_division_algebra(6, hv(*vec))
    assert full.valid
    for drop in range(len(vec)):
        rest = [v for i, v in enumerate(vec) if i != drop]
        report = global_division_algebra(6, hv(*rest))
        if Fraction(*vec[drop]) == 0:
            assert report.valid
        else:
            assert not report.valid


def test_place_label_validation():
    with pytest.raises(GroupSpecError):
        PlaceLabel(id="v0", kind="finite", prime=None)
    with pytest.raises(GroupSpecError):
        PlaceLabel(id="v0", kind="finite", prime=9)
    with pytest.raises(GroupSpecError):
        PlaceLabel(id="w", kind="real", prime=3)
    with pytest.raises(GroupSpecError):
        PlaceLabel(id="w", kind="padic")


def test_hasse_vector_canonicalization():
    place = finite("v1")
    vec = HasseVector.from_items([(place, Fraction(7, 2))])
    assert vec.entries == ((place, Fraction(1, 2)),)
    with pytest.raises(GroupSpecError):
        HasseVector.from_items([(place, Fraction(1, 2)), (place, Fraction(1, 3))])

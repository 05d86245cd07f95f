"""Acceptance suite: one test per criterion, each printing a PASS line with timing.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and bound is pinned here, nothing is deferred.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

from innerforms.appendix import verify_catalog
from innerforms.cli import main
from innerforms.globalize import (
    HasseVector,
    PlaceLabel,
    build_cocycle,
    global_division_algebra,
    is_prime,
    plan_places,
    prime_splits_in_quadratic,
    q_star,
    split_primes,
)
from innerforms.grothendieck import (
    BasisElement,
    GroupSide,
    VirtualElement,
    lj_map,
    zero,
)
from innerforms.kottwitz import kottwitz_group
from innerforms.rootdata import (
    adjoint_datum,
    build_catalog_group,
    fundamental_group,
)
from innerforms.weyl import (
    find_w_theta,
    reduced_roots,
    weyl_group_order,
)
from oracles import (
    cartan_determinant_closed_form,
    cofactor_det,
    coords_to_vector,
    count_square_roots,
    gl2_principal_series,
    gl2_trivial,
    steinberg,
)

GOLDEN = Path(__file__).parent / "golden"


def report(name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_criterion_appendix_golden(capsys):
    started = time.perf_counter()
    code = main(["appendix-a"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "appendix_a.md").read_text()
    code = main(["appendix-a", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "appendix_a.json").read_text()

    # spot-check the flagship strings inside the golden bytes
    text = (GOLDEN / "appendix_a.md").read_text()
    for needle in (
        "GL_n × SL_2",  # B_n case (a) M description
        "GL_{n/2}(D_2)",  # Sp/SO Siegel transfer
        "GL_1(F) × GL_1(D_2) × GL_3(F) × GL_2(D_2)",  # E7 case (a)
        "two inequivalent inner forms",
        "### (7) E_8",
        "### (7) F_4",
        "### (7) G_2",
    ):
        assert needle in text, needle
    payload = json.loads(out)
    d2_entries = [e for e in payload["entries"] if e["key"] in ("4d", "4e")]
    assert all(len(e["inner_forms"]) == 2 for e in d2_entries)
    empties = [e for e in payload["entries"] if e["key"].startswith("7-")]
    assert len(empties) == 3 and all(e["inner_forms"] == [] for e in empties)
    with capsys.disabled():
        report("appendix-a golden reproduction", started, 1.0)


def test_criterion_kottwitz_orders(capsys):
    started = time.perf_counter()
    for n in range(2, 9):
        assert kottwitz_group(build_catalog_group("PGL", [n])).order == n
    for tag in ("E8", "F4", "G2"):
        assert kottwitz_group(build_catalog_group(tag, [])).order == 1
    types = (
        [("A", r) for r in range(1, 9)]
        + [("B", r) for r in range(3, 9)]
        + [("C", r) for r in range(2, 9)]
        + [("D", r) for r in range(4, 9)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    )
    for series, rank in types:
        datum = adjoint_datum(series, rank)
        det = abs(cofactor_det(datum.cartan))
        assert det == cartan_determinant_closed_form(series, rank)
        assert fundamental_group(datum).order == det
    with capsys.disabled():
        report("Kottwitz orders", started, 1.0)


def test_criterion_weyl_oracle(capsys):
    started = time.perf_counter()
    cases = (
        [("SL", [n + 1], "A", n) for n in range(1, 6)]
        + [("Spin", [2 * n + 1], "B", n) for n in (2, 3, 4)]
        + [("Sp", [2 * n], "C", n) for n in (2, 3, 4)]
        + [("Spin", [8], "D", 4), ("G2", [], "G", 2)]
    )

    def closed_form(series, rank):
        fact = 1
        for k in range(2, rank + 1):
            fact *= k
        return {
            "A": fact * (rank + 1),
            "B": 2**rank * fact,
            "C": 2**rank * fact,
            "D": 2 ** (rank - 1) * fact,
            "G": 12,
        }[series]

    for tag, params, series, rank in cases:
        assert weyl_group_order(build_catalog_group(tag, params)) == closed_form(
            series, rank
        )
    assert closed_form("B", 3) == 48

    catalog = (
        [("GL", [n]) for n in range(2, 8)]
        + [("SL", [n]) for n in range(2, 8)]
        + [("PGL", [n]) for n in range(2, 8)]
        + [("Sp", [2 * n]) for n in range(1, 7)]
        + [("GSp", [2 * n]) for n in range(1, 6)]
        + [("Spin", [m]) for m in (5, 7, 9, 11, 13, 8, 10, 12)]
        + [("GSpin", [m]) for m in (5, 7, 9, 11, 8, 10)]
        + [("SO", [m]) for m in (8, 10, 12)]
        + [("E6sc", []), ("F4", []), ("G2", [])]
    )
    for tag, params in catalog:
        datum = build_catalog_group(tag, params)
        k = datum.semisimple_rank
        assert k <= 6
        for mask in range(1 << k):
            theta = [i for i in range(k) if mask & (1 << i)]
            _, image = find_w_theta(datum, theta)
            assert len(image) == len(theta)
            assert all(0 <= j < k for j in image)
    with capsys.disabled():
        report("Weyl oracle", started, 30.0)


def test_criterion_globalization_arithmetic(capsys):
    started = time.perf_counter()
    # split-prime search against the root-counting oracle
    primes = [p for p in range(2, 200) if is_prime(p)]
    for p in primes:
        for q in split_primes(p, 10):
            if p == 2:
                assert q_star(q) % 8 == 1
            else:
                assert count_square_roots(q_star(q), p) == 2
            assert prime_splits_in_quadratic(p, q)

    # minimal tower exponent
    for l in range(1, 1001):
        plan = plan_places(2, l) if l < 4 else None  # keep the prime search cheap
        r = (l - 1).bit_length()
        assert 2**r >= l and (r == 0 or 2 ** (r - 1) < l)
        if plan is not None:
            assert plan.degree == 2**r

    # cocycle verdicts, exhaustively
    places = [PlaceLabel(id=f"v{i}", kind="finite", prime=3) for i in range(36)]
    for order in range(1, 13):
        for residue in range(1, order):
            for size in range(1, 37):
                check = build_cocycle(places, places[:size], order, residue)
                assert check.valid == ((size * residue) % order == 0)

    # random Hasse vectors against the exact-fraction oracle
    rng = random.Random(424242)
    for _ in range(10_000):
        k = rng.randint(1, 6)
        entries = []
        total = Fraction(0)
        for i in range(k):
            den = rng.choice([1, 2, 3, 4, 6, 12])
            num = rng.randrange(den)
            total += Fraction(num, den)
            entries.append(
                (PlaceLabel(id=f"v{i}", kind="finite", prime=5), Fraction(num, den))
            )
        report_ = global_division_algebra(12, HasseVector.from_items(entries))
        assert report_.valid == (total.denominator == 1)
    with capsys.disabled():
        report("globalization arithmetic", started, 10.0)


def test_criterion_lj_suite(capsys):
    started = time.perf_counter()
    st_inner = BasisElement(GroupSide(1, 2), (1,), ("St",))
    assert lj_map(steinberg(2, "St"), 2) == VirtualElement.of(st_inner)
    assert lj_map(gl2_trivial("x", "y", "St"), 2) == VirtualElement.of(st_inner, -1)
    assert lj_map(gl2_principal_series(), 2).is_zero()

    def compositions(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    for n in range(1, 13):
        for d in range(1, n + 1):
            if n % d:
                continue
            for comp in compositions(n // d):
                labels = tuple(f"t{i}" for i in range(len(comp)))
                target = BasisElement(GroupSide(n // d, d), comp, labels)
                source = BasisElement(
                    GroupSide(n, 1), tuple(d * c for c in comp), labels
                )
                assert lj_map(VirtualElement.of(source), d) == VirtualElement.of(target)

    rng = random.Random(8128)

    def random_virtual(n):
        total = zero()
        for _ in range(rng.randint(1, 5)):
            comp = []
            remaining = n
            while remaining:
                c = rng.randint(1, remaining)
                comp.append(c)
                remaining -= c
            labels = tuple(rng.choice("abcd") for _ in comp)
            total = total + VirtualElement.of(
                BasisElement(GroupSide(n, 1), tuple(comp), labels), rng.randint(-4, 4)
            )
        return total

    for _ in range(1000):
        n, d = rng.choice([(2, 2), (4, 2), (6, 2), (6, 3)])
        x, y = random_virtual(n), random_virtual(n)
        c = rng.randint(-3, 3)
        assert lj_map(x + y, d) == lj_map(x, d) + lj_map(y, d)
        assert lj_map(x.scale(c), d) == lj_map(x, d).scale(c)
    with capsys.disabled():
        report("LJ suite", started, 5.0)


def test_criterion_cross_module_consistency(capsys):
    started = time.perf_counter()
    violations, flags = verify_catalog()
    assert violations == []
    assert flags == ["5b:inconsistent-m-times-d"]

    catalog = (
        [("GL", [n]) for n in range(2, 8)]
        + [("SL", [n]) for n in range(2, 8)]
        + [("Sp", [2 * n]) for n in range(1, 7)]
        + [("Spin", [m]) for m in (5, 7, 9, 11, 13, 8, 10, 12)]
        + [("GSpin", [m]) for m in (9, 8, 10)]
        + [("SO", [m]) for m in (8, 10, 12)]
        + [("E6sc", []), ("F4", []), ("G2", [])]
    )
    for tag, params in catalog:
        datum = build_catalog_group(tag, params)
        k = datum.semisimple_rank
        for removed in range(k):
            theta = [i for i in range(k) if i != removed]
            classes = reduced_roots(datum, theta)
            assert len(classes) == 1
            preimages = list(classes[0].preimages)
            expected = [
                coords_to_vector(datum, c)
                for c, _ in datum.positive_roots
                if not {i for i, x in enumerate(c) if x} <= set(theta)
            ]
            assert sorted(preimages) == sorted(expected)
            assert len(set(preimages)) == len(preimages)
    with capsys.disabled():
        report("cross-module consistency", started, 30.0)

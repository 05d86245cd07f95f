import copy
import pickle
import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerforms.errors import GroupSpecError, TransferError
from innerforms.grothendieck import (
    BasisElement,
    TensorElement,
    VirtualElement,
    character_sign,
    global_d_compatibility,
    inner_side,
    is_d_compatible,
    levi_transfers,
    lj_map,
    parse_virtual,
    split_side,
    tensor,
    tensor_lj,
    zero,
)
from oracles import (
    gl2_principal_series,
    gl2_trivial,
    lj_by_terms,
    parse_virtual_by_terms,
    steinberg,
)


def elem(comp, tags, side=None):
    side = side or split_side(sum(comp))
    return BasisElement(side, tuple(comp), tuple(tags))


# ---------------------------------------------------------------------------
# Levi transfer on compositions


def test_full_group_always_transfers():
    for n in (2, 4, 6, 12):
        for d in (1, 2, n):
            if n % d == 0:
                assert levi_transfers((n,), d) == (n // d,)


def test_torus_of_gl2_does_not_transfer():
    assert levi_transfers((1, 1), 2) is None


def test_componentwise_divisibility():
    assert levi_transfers((2, 4), 2) == (1, 2)
    assert levi_transfers((2, 3, 1), 2) is None


def test_degree_must_divide_total():
    with pytest.raises(TransferError):
        levi_transfers((2, 3), 2)


def test_transfer_then_scale_back_is_identity():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.choice([1, 2, 3, 4])
        blocks = [d * rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        image = levi_transfers(tuple(blocks), d)
        assert tuple(b * d for b in image) == tuple(blocks)


# ---------------------------------------------------------------------------
# the transfer map on virtual elements


def test_steinberg_maps_to_steinberg():
    image = lj_map(steinberg(2, "St"), 2)
    assert image == VirtualElement.of(
        BasisElement(inner_side(1, 2), (1,), ("St",))
    )


def test_principal_series_of_gl2_dies():
    assert lj_map(gl2_principal_series(), 2).is_zero()


def test_trivial_maps_to_minus_steinberg():
    image = lj_map(gl2_trivial("x", "y", "St"), 2)
    st_inner = BasisElement(inner_side(1, 2), (1,), ("St",))
    assert image == VirtualElement.of(st_inner, -1)


def test_label_transfer_applies():
    image = lj_map(steinberg(4, "sigma"), 2, {"sigma": "sigma'"})
    ((elt, coeff),) = image.terms.items()
    assert elt.labels == ("sigma'",)
    assert coeff == 1


def test_lj_requires_split_side():
    inner = VirtualElement.of(BasisElement(inner_side(2, 2), (2,), ("t",)))
    with pytest.raises(TransferError):
        lj_map(inner, 2)


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def test_surjectivity_onto_inner_basis():
    # every inner basis element has the obvious preimage: scale blocks by d
    for n in range(1, 13):
        for d in range(1, n + 1):
            if n % d:
                continue
            m = n // d
            for comp in compositions(m):
                labels = tuple(f"t{i}" for i in range(len(comp)))
                target = BasisElement(inner_side(m, d), comp, labels)
                source = elem(tuple(d * c for c in comp), labels)
                image = lj_map(VirtualElement.of(source), d)
                assert image == VirtualElement.of(target)


def random_virtual(rng, n):
    total = zero()
    for _ in range(rng.randint(1, 5)):
        comp = []
        remaining = n
        while remaining:
            c = rng.randint(1, remaining)
            comp.append(c)
            remaining -= c
        labels = tuple(rng.choice("abcdef") for _ in comp)
        total = total + VirtualElement.of(
            elem(tuple(comp), labels), rng.randint(-4, 4)
        )
    return total


def test_linearity_on_random_elements():
    rng = random.Random(31)
    for _ in range(1000):
        n = rng.choice([2, 4, 6])
        d = rng.choice([1, 2])
        x = random_virtual(rng, n)
        y = random_virtual(rng, n)
        c = rng.randint(-3, 3)
        assert lj_map(x + y, d) == lj_map(x, d) + lj_map(y, d)
        assert lj_map(x.scale(c), d) == lj_map(x, d).scale(c)


def test_character_signs():
    assert character_sign(4, 4) == 1
    assert character_sign(2, 1) == -1
    assert character_sign(6, 3) == -1  # parity of 6 - 3
    assert character_sign(6, 2) == 1
    with pytest.raises(TransferError):
        character_sign(6, 4)


# ---------------------------------------------------------------------------
# compatibility predicates


def test_square_integrable_terms_always_compatible():
    for n in (2, 4, 6):
        for d in (2, n):
            if n % d == 0:
                assert is_d_compatible(steinberg(n, "s"), d)


def test_gl2_principal_series_not_compatible():
    assert not is_d_compatible(gl2_principal_series(), 2)


def test_mixed_sum_survives():
    mixed = gl2_principal_series() + steinberg(2, "St")
    assert is_d_compatible(mixed, 2)


def test_global_compatibility():
    st = steinberg(2, "St")
    ps = gl2_principal_series()
    assert global_d_compatibility({}, {})
    assert global_d_compatibility({"v": 2}, {"v": st})
    assert not global_d_compatibility({"v1": 2, "v2": 2}, {"v1": st, "v2": ps})
    # split places need no local data
    assert global_d_compatibility({"v1": 1}, {})
    with pytest.raises(GroupSpecError):
        global_d_compatibility({"v1": 2}, {})
    with pytest.raises(GroupSpecError, match=r"^bad degree 0 at place v$"):
        global_d_compatibility({"v": 0}, {})


# ---------------------------------------------------------------------------
# products


def test_product_transfer_is_factorwise():
    rng = random.Random(77)
    for _ in range(200):
        x = random_virtual(rng, 4)
        y = random_virtual(rng, 2)
        dx, dy = rng.choice([(1, 1), (2, 2), (2, 1), (4, 2)])
        left = tensor_lj(tensor(x, y), (dx, dy))
        right = tensor(lj_map(x, dx), lj_map(y, dy))
        assert left == right


# ---------------------------------------------------------------------------
# the expression grammar


def test_parse_and_render_round_trip():
    for text in [
        "(2,4):a,b + 3*(6):c",
        "(1,1):x,y",
        "-(2):x + 2*(1,1):a,b",
        "0",
    ]:
        element = parse_virtual(text)
        again = parse_virtual(element.render())
        assert again == element


def test_parse_checks_arity_and_totals():
    with pytest.raises(GroupSpecError):
        parse_virtual("(2,2):a")
    with pytest.raises(GroupSpecError):
        parse_virtual("(2):a + (3):b")
    with pytest.raises(GroupSpecError):
        parse_virtual("(2):a", n=4)
    with pytest.raises(GroupSpecError):
        parse_virtual("garbage")


def test_parse_accumulates_repeated_and_cancelling_terms():
    assert parse_virtual("(2):a - (2):a") == zero()
    assert parse_virtual("(2):a - (2):a").render() == "0"
    assert parse_virtual("(2):a + (2):a - 3*(2):a") == -steinberg(2, "a")
    assert parse_virtual(
        "(1,1):x,y + 2*(2):a + (1,1):x,y - (2):a - 2*(1,1):x,y"
    ) == steinberg(2, "a")
    assert parse_virtual("(2):a - (2):a + (2):b") == steinberg(2, "b")


TAGS = ("a", "b", "St", "x'", "_u1")


@st.composite
def terms(draw, n):
    """One (coefficient, basis element) pair with a composition of n."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    comp = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    tags = tuple(draw(st.sampled_from(TAGS)) for _ in comp)
    return draw(st.integers(-3, 3)), elem(comp, tags)


@st.composite
def term_lists(draw):
    n = draw(st.integers(1, 6))
    return draw(st.lists(terms(n), max_size=8))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(term_lists())
def test_parse_render_round_trip_property(pairs):
    element = VirtualElement({e: c for c, e in pairs})
    assert parse_virtual(element.render()) == element


@settings(max_examples=150, deadline=None, derandomize=True)
@given(term_lists())
def test_parse_matches_termwise_sum(pairs):
    # repeated and cancelling terms accumulate exactly as a fold of additions
    pairs = [(c, e) for c, e in pairs if c]
    if not pairs:
        return
    text = " ".join(
        f"{'-' if c < 0 else '+'} {abs(c)}*{e.render()}" for c, e in pairs
    ).lstrip("+ ")
    expected = reduce(lambda acc, ce: acc + VirtualElement.of(ce[1], ce[0]), pairs, zero())
    assert parse_virtual(text) == expected


GRAMMAR_CHARS = "0123456789(),:+-* ab_'"


@st.composite
def term_texts(draw):
    """A rendered element, then up to three edits from the grammar's alphabet."""
    pairs = draw(term_lists())
    text = VirtualElement({e: c for c, e in pairs}).render()
    if text != "0" and draw(st.booleans()):  # a zero block, with its tag, in the first term
        text = text.replace("(", "(0,", 1).replace(":", ":z,", 1)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(GRAMMAR_CHARS))
        text = draw(st.sampled_from([text[:at] + char + text[at:], text[:at] + char + text[at + 1:],
                                     text[:at] + text[at + 1:]]))
    return text


def parse_outcome(parse, text, n):
    try:
        element = parse(text, n=n)
    except GroupSpecError as exc:
        return "error", str(exc)
    return "ok", element, element.render()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(term_texts(), st.one_of(st.none(), st.integers(0, 7)))
def test_parse_matches_fully_checked_oracle_on_valid_and_corrupted_texts(text, n):
    # the parser skips the checks it has made; the oracle builds every term
    # through the public constructor: same verdict, same element, same message
    assert parse_outcome(parse_virtual, text, n) == parse_outcome(parse_virtual_by_terms, text, n)


def test_render_zero():
    assert zero().render() == "0"
    assert (steinberg(2) - steinberg(2)).render() == "0"


def test_basis_element_validation():
    with pytest.raises(GroupSpecError):
        BasisElement(split_side(3), (2, 2), ("a", "b"))
    with pytest.raises(GroupSpecError):
        BasisElement(split_side(4), (2, 2), ("a",))


# ---------------------------------------------------------------------------
# unordered terms: the transfer against a termwise oracle, order independence


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def elements_with_degree(draw):
    """A split element of GL_n (terms possibly repeated) and a degree d | n."""
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(terms(n), max_size=10))
    return n, pairs, draw(st.sampled_from(divisors(n)))


def element_of(pairs):
    return reduce(lambda acc, ce: acc + VirtualElement.of(ce[1], ce[0]), pairs, zero())


def oracle_terms(pairs):
    out = {}
    for c, e in pairs:
        out[(e.composition, e.labels)] = out.get((e.composition, e.labels), 0) + c
    return {k: v for k, v in out.items() if v}


def listed(element):
    """Terms in the order ``terms`` hands them out, with their sides."""
    return [(e.side, e.composition, e.labels, c) for e, c in element.terms.items()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(elements_with_degree())
def test_lj_map_matches_termwise_oracle(case):
    n, pairs, d = case
    want = lj_by_terms(oracle_terms(pairs), d)
    image = lj_map(element_of(pairs), d)
    side = inner_side(n // d, d)
    assert listed(image) == [(side, comp, labels, c) for (comp, labels), c in want.items()]
    assert image == VirtualElement({BasisElement(side, k[0], k[1]): c for k, c in want.items()})


PERMUTED = dict(zip(TAGS, TAGS[1:] + TAGS[:1]))  # a bijection of the tags


def relabel(element, mapping):
    return VirtualElement(
        {BasisElement(e.side, e.composition, tuple(mapping[t] for t in e.labels)): c
         for e, c in element.terms.items()}
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(elements_with_degree(), st.data())
def test_lj_map_is_linear_and_commutes_with_tag_bijections(case, data):
    n, pairs, d = case
    x = element_of(pairs)
    y = element_of(data.draw(st.lists(terms(n), max_size=10)))
    c = data.draw(st.integers(-3, 3))
    assert lj_map(x + y, d) == lj_map(x, d) + lj_map(y, d)
    assert lj_map(x - y, d) == lj_map(x, d) - lj_map(y, d)
    assert lj_map(x.scale(c), d) == lj_map(x, d).scale(c)
    assert lj_map(-x, d) == -lj_map(x, d)
    image = relabel(lj_map(x, d), PERMUTED)
    assert lj_map(relabel(x, PERMUTED), d) == image
    assert lj_map(x, d, PERMUTED) == image
    assert lj_map(x, d, PERMUTED.__getitem__) == image
    assert listed(lj_map(x, d, PERMUTED)) == listed(image)
    want = lj_by_terms(oracle_terms(pairs), d, PERMUTED.__getitem__)
    assert [(e.composition, e.labels, c) for e, c in image.terms.items()] == [
        (comp, labels, c) for (comp, labels), c in want.items()
    ]


def test_lj_map_merges_terms_under_a_non_injective_tag_map():
    x = parse_virtual("(2,2):a,b - (2,2):b,a + 2*(4):a")
    assert lj_map(x, 2, lambda t: "t").render() == "2*(2):t"
    assert lj_map(x, 2, {"a": "t", "b": "t"}) == VirtualElement.of(
        BasisElement(inner_side(2, 2), (2,), ("t",)), 2
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(elements_with_degree(), elements_with_degree())
def test_tensor_lj_equals_factorwise_lj_map(left, right):
    (_, px, dx), (_, py, dy) = left, right
    x, y = element_of(px), element_of(py)
    got = tensor_lj(tensor(x, y), (dx, dy))
    want = tensor(lj_map(x, dx), lj_map(y, dy))
    assert got == want
    assert hash(got) == hash(want)
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(term_lists(), st.randoms(use_true_random=False))
def test_term_order_does_not_matter(pairs, rng):
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    a, b = element_of(pairs), element_of(shuffled)
    accumulated = {}
    for c, e in shuffled:
        accumulated[e] = accumulated.get(e, 0) + c
    for other in (b, VirtualElement(accumulated), parse_virtual(b.render())):
        assert a == other
        assert hash(a) == hash(other)
        assert a.render() == other.render()
        assert repr(a) == repr(other)
        assert listed(a) == listed(other)
    keys = [(e.composition, e.labels) for e in a.terms]
    assert keys == sorted(keys)
    ta, tb = tensor(a, b), tensor(b, a)
    assert ta == tb and hash(ta) == hash(tb)
    assert list(ta.terms.items()) == list(tb.terms.items())


SPLIT_TERMS = [(6,), (2, 4), (3, 3), (1, 2, 3), (4, 1, 1), (5, 1), (2, 2, 2)]
INNER_TERMS = [(3,), (1, 2), (1, 1, 1)]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_non_split_and_non_dividing_degrees_raise_unchanged_messages(count):
    split = VirtualElement(
        {elem(c, ["a"] * len(c)): i + 1 for i, c in enumerate(SPLIT_TERMS[: 2 * count])}
    )
    inner = VirtualElement(
        {elem(c, ["t"] * len(c), inner_side(3, 2)): 1 for c in INNER_TERMS[:count]}
    )
    with pytest.raises(TransferError, match="^lj_map applies to split-side elements$"):
        lj_map(inner, 2)
    with pytest.raises(TransferError, match="^lj_map applies to split-side elements$"):
        tensor_lj(tensor(split, inner), (1, 2))
    for d in (4, 5, 0, -2, 7):
        message = f"^{re.escape(f'degree {d} does not divide n = 6')}$"
        with pytest.raises(TransferError, match=message):
            lj_map(split, d)
        with pytest.raises(TransferError, match=message):
            tensor_lj(tensor(split, split), (1, d))
    with pytest.raises(TransferError, match="^one degree per tensor factor required$"):
        tensor_lj(tensor(split, split), (1,))
    assert lj_map(zero(), 4) == zero()  # no term, nothing to check


def test_basis_element_hash_and_equality():
    side = split_side(4)
    a = BasisElement(side, (2, 2), ("a", "b"))
    same = BasisElement(split_side(4), (2, 2), ("a", "b"))
    assert a == same and hash(a) == hash(same) and a is not same
    assert a != BasisElement(side, (2, 2), ("b", "a"))
    assert a != BasisElement(inner_side(4, 2), (2, 2), ("a", "b"))
    assert a != ((2, 2), ("a", "b"))
    # equal hashes are only a first check: the fields decide
    for other in (BasisElement(side, (2, 2), ("b", "a")), BasisElement(side, (1, 3), ("a", "b")),
                  BasisElement(inner_side(4, 2), (2, 2), ("a", "b"))):
        object.__setattr__(other, "_hash", hash(a))
        assert a != other and other != a
    assert repr(a) == "BasisElement(side=GroupSide(m=4, d=1), composition=(2, 2), labels=('a', 'b'))"
    # copies and pickles are rebuilt from the fields, so the hash is recomputed
    for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert again == a and hash(again) == hash(a)
    assert a.__reduce__() == (BasisElement, (side, (2, 2), ("a", "b")))


def test_tensor_element_ignores_zero_coefficients_and_order():
    keys = [(e, f) for e in (steinberg(2) + gl2_principal_series()).terms
            for f in (steinberg(2, "u") - gl2_trivial()).terms]
    forward = TensorElement({**{k: i + 1 for i, k in enumerate(keys)}, (): 0})
    backward = TensorElement(dict(reversed([(k, i + 1) for i, k in enumerate(keys)])))
    assert forward == backward and hash(forward) == hash(backward)
    assert list(forward.terms) == list(backward.terms) == sorted(
        keys, key=lambda k: [(e.composition, e.labels) for e in k]
    )
    assert TensorElement({keys[0]: 0}).is_zero()


def test_lj_map_hashes_each_term_a_bounded_number_of_times(monkeypatch):
    # BasisElement's hash is a plain method, so its calls can be counted
    rng = random.Random(9)
    comps = rng.sample(list(compositions(12)), 300)
    element = VirtualElement({elem(c, ["t"] * len(c)): rng.randint(1, 3) for c in comps})
    calls = []
    original = BasisElement.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(BasisElement, "__hash__", counting)
    for d in (1, 2, 3, 4, 6, 12):
        calls.clear()
        lj_map(element, d)
        assert len(calls) <= 2 * len(comps)
    doubled = element.scale(2)
    calls.clear()
    element + doubled
    assert len(calls) <= 2 * len(comps)

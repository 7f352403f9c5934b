"""Linear combination arithmetic and the expression grammar."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionrings.elements import RingElement, check_label, parse_element

labels = st.sampled_from(["a", "b", "c", "p+", "p-", "phi", "0", "1"])
elements = st.dictionaries(labels, st.integers(-20, 20), max_size=5).map(RingElement)


def test_zero_coefficients_are_dropped():
    x = RingElement({"a": 1, "b": 0})
    assert x.support() == ("a",)
    assert x.coefficient("b") == 0


def test_basic_arithmetic():
    x = RingElement({"a": 2, "b": 1})
    y = RingElement({"b": -1, "c": 3})
    assert (x + y).support() == ("a", "c")
    assert (x - x).is_zero
    assert (2 * x).coefficient("a") == 4
    assert (-x).coefficient("b") == -1


def test_partial_order_and_total():
    x = RingElement({"a": 1})
    y = RingElement({"a": 2, "b": 1})
    assert y.dominates(x)
    assert not x.dominates(y)
    assert y.total() == 3


def test_format_is_sorted_and_canonical():
    x = RingElement({"phi": 1, "1": 2})
    assert x.format() == "2*1 + 1*phi"
    assert RingElement().format() == "0"


@given(elements, elements, st.integers(-3, 3))
def test_arithmetic_stores_no_zero_coefficients(x, y, k):
    # equality compares the stored terms, so a kept zero would break it
    assert x + y == RingElement([*x.items(), *y.items()])
    assert -x == RingElement((label, -c) for label, c in x.items())
    assert k * x == RingElement((label, k * c) for label, c in x.items())


@given(elements, elements)
def test_addition_is_commutative(x, y):
    assert x + y == y + x


@given(elements, elements, elements)
def test_addition_is_associative(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(elements)
def test_parse_inverts_format(x):
    assert parse_element(x.format()) == x


def test_parse_keeps_plus_labels_whole():
    x = parse_element("1*p+ + 2*p-")
    assert x.coefficient("p+") == 1
    assert x.coefficient("p-") == 2


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("")
    with pytest.raises(ValueError):
        parse_element("x * ")
    with pytest.raises(ValueError):
        parse_element("q*a")


@pytest.mark.parametrize("bad", ["", "a b", "a*b", 'a"b'])
def test_check_label_rejects(bad):
    with pytest.raises(ValueError):
        check_label(bad)

from itertools import accumulate

import pytest

from zecklab import SequenceHandle, expand_grid, parse_recurrence
from zecklab.enumerator import _value_bounds
from zecklab.errors import NonProgressError


@pytest.mark.parametrize(
    "text,prefix",
    [
        ("0,2,2", [1, 2, 3, 6, 10, 18, 32, 56, 100, 176]),
        ("0,1,1", [1, 2, 4, 3, 6, 7, 9, 13, 16]),
        ("1,1", [1, 2, 3, 5, 8]),
        ("0,2,1,2", [1, 2, 3, 6, 10, 19, 32, 60, 103]),
        ("0,0,1,4", [1, 2, 3, 4, 6, 11, 16, 22, 35, 60]),
        ("3,2,4", [1, 4, 15, 57, 217]),
        ("2,2", [1, 3, 8, 22, 60, 164]),
        ("2", [1, 2, 4, 8, 16]),
    ],
)
def test_term_prefixes(text, prefix, handles):
    assert handles(text).terms(len(prefix)) == prefix


def test_initial_rule_with_large_lead(handles):
    # third term is lead * G_1 + 1 when the lead exceeds the depth
    assert handles("0,3,1").term(3) == 4


def test_lagonacci_recurrence_resumes_after_override(handles):
    lag = handles("0,1,1")
    assert lag.terms(8) == [1, 2, 4, 3, 6, 7, 9, 13]
    assert lag.term(10) == lag.term(8) + lag.term(7) == 22


def test_extend_until_exceeds_covers_example(handles):
    h = SequenceHandle.from_text("0,2,2")
    last = h.extend_until_exceeds(164)
    assert last >= 12
    assert h.term(10) == 176
    assert h.term(11) > 164 and h.term(12) > 164


def test_extend_until_exceeds_zero_bound():
    for text in ["0,2,2", "1,1", "0,0,1,4"]:
        h = SequenceHandle.from_text(text)
        last = h.extend_until_exceeds(0)
        assert last >= h.spec.order
        assert all(h.term(i) >= 1 for i in range(1, last + 1))


def test_extend_handles_nonmonotone_prefix(handles):
    # 4, 3 in the middle: must wait for three consecutive terms above 10
    h = SequenceHandle.from_text("0,1,1")
    last = h.extend_until_exceeds(10)
    assert last == 10
    assert h.terms(10)[-3:] == [13, 16, 22]


def test_constant_sequence_raises_instead_of_looping():
    h = SequenceHandle.from_text("1")
    assert h.extend_until_exceeds(0) >= 1
    with pytest.raises(NonProgressError):
        h.extend_until_exceeds(1)


@pytest.mark.parametrize(
    "value,expected",
    [(10, 7), (3, 4), (9, 7), (13, 8)],
)
def test_top_index_lagonacci(value, expected, handles):
    assert handles("0,1,1").top_index(value) == expected


def test_top_index_example(handles):
    assert handles("0,2,2").top_index(164) == 9


@pytest.mark.parametrize("text", ["0,1,1", "0,0,1,4", "2", "1,1", "0,0,0,1,1"])
def test_top_index_is_the_last_term_not_above_the_value(text):
    # 0,1,1 starts 1,2,4,3 and 0,0,0,1,1 repeats 3 at indices 3 and 6;
    # ties must resolve to the later index
    h = SequenceHandle.from_text(text)
    terms, floors, _ = h.tables(3000)
    for v in range(1, 3001):
        top = max(t for t, g in enumerate(terms, 1) if g <= v)
        assert h.top_index(v) == top, (text, v)
        # window m holds the values floors[m - 1] <= v < floors[m]
        assert floors[top - 1] <= v < floors[top], (text, v)


def test_top_index_rejects_zero(handles):
    with pytest.raises(ValueError):
        handles("1,1").top_index(0)


def test_index_of_value_prefers_larger_index(handles):
    lag = handles("0,1,1")
    assert lag.index_of_value(3) == 4
    assert lag.index_of_value(4) == 3
    assert lag.index_of_value(5) is None
    assert lag.index_of_value(0) is None


def test_recurrence_residual_is_exactly_zero():
    for text in ["0,2,2", "0,1,1", "1,1", "3,2,4", "0,0,2,3", "0,2,1,2"]:
        h = SequenceHandle.from_text(text)
        c, L = h.spec.coefficients, h.spec.order
        h.term(40)
        # every term after the prescribed prefix, which holds ``order`` terms
        # except on the Lagonacci family (1, 2, 4, 3 against order 3)
        for n in range(L + 1 + h.spec.is_lagonacci, 41):
            expected = sum(c[i] * h.term(n - 1 - i) for i in range(L))
            assert h.term(n) - expected == 0


def test_eventually_strictly_monotone():
    for text in ["0,2,2", "0,1,1", "1,1", "0,0,1,4", "0,0,2,3", "0,1,2"]:
        h = SequenceHandle.from_text(text)
        L = h.spec.order
        h.term(40)
        k = L + 2
        assert all(h.term(n + 1) > h.term(n) for n in range(k, 40))


def test_duplicate_values_flag():
    dup = SequenceHandle.from_text("0,0,1,1")
    dup.term(8)
    assert dup.has_duplicate_values  # G_5 = 3 = G_3
    clean = SequenceHandle.from_text("0,2,2")
    clean.term(30)
    assert not clean.has_duplicate_values


def test_terms_are_arbitrary_precision(handles):
    h = SequenceHandle.from_text("3,2,4")
    big = h.term(200)
    assert big > 10**80


def reference_terms(spec, count):
    """G_1..G_count, one term at a time from the handle's prescribed prefix."""
    terms = list(SequenceHandle(spec).tables(0)[0])
    c = spec.coefficients
    while len(terms) < count:
        terms.append(sum(ci * terms[-1 - i] for i, ci in enumerate(c)))
    return terms[:count]


def test_batched_growth_matches_a_term_by_term_reference():
    # the acceptance grid without the constant family, which never exceeds 1
    grid = [t for t in expand_grid(range(0, 4), range(1, 5), 4)[0] if t != "1"]
    for text in grid:
        spec = parse_recurrence(text)
        by_term, by_floors, by_bound = (SequenceHandle(spec) for _ in range(3))
        by_term.term(3)
        by_term.term(70)
        by_floors.tables(10**6)
        by_bound.extend_until_exceeds(10**30)
        for h in (by_term, by_floors, by_bound):
            n = len(h)
            ref = reference_terms(spec, n)
            terms, floors, index_of_value = h.tables(0)
            assert list(terms) == ref, text
            # floor m - 1 is min(G_m, G_{m+1}, ...), fixed once G_{m+order-1} is in
            tail_minima = list(accumulate(reversed(ref), min))[::-1]
            assert list(floors) == tail_minima[:len(floors)]
            assert len(floors) == n - spec.order + 1
            assert index_of_value == {g: i for i, g in enumerate(ref, 1)}
            # enumeration's pruning bounds, built per call from the handle's terms
            assert _value_bounds(h, h.terms(n)) == [
                spec.max_digit * total for total in accumulate(ref, initial=0)]
            assert h.has_duplicate_values == (len(set(ref)) < n)

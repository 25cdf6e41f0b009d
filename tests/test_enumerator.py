import contextlib
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from zecklab import (
    Decomposition,
    SequenceHandle,
    bijection_count,
    decompositions_up_to,
    enumerate_legal,
    expand_grid,
    first_nonunique,
    greedy_decompose,
    naive_oracle,
)
from zecklab import enumerator
from zecklab.errors import BudgetExceededError, NotPLRSError, OracleBoundExceededError

ORACLE_POOL = ["1,1", "3,2,4", "0,2,2", "0,1,1", "0,0,1,4"]


def as_strs(decomps):
    return sorted(str(d) for d in decomps)


def test_lagonacci_seven(handles):
    found = enumerate_legal(handles("0,1,1"), 7)
    assert as_strs(found) == ["5:1,1:1", "6:1"]
    assert len(enumerate_legal(handles("0,1,1"), 7)) == 2


def test_fibonacci_hundred(handles):
    found = enumerate_legal(handles("1,1"), 100)
    assert as_strs(found) == ["10:1,5:1,3:1"]


def test_zero_has_the_empty_decomposition(handles):
    for text in ORACLE_POOL:
        assert enumerate_legal(handles(text), 0) == {Decomposition()}
        assert naive_oracle(handles(text), 0) == {Decomposition()}
        assert len(enumerate_legal(handles(text), 0)) == 1


def test_one_is_the_first_term(handles):
    for text in ORACLE_POOL:
        assert as_strs(naive_oracle(handles(text), 1)) == ["1:1"]


def test_oracle_contains_the_known_decompositions(handles):
    assert "8:2,7:1,5:2" in as_strs(naive_oracle(handles("0,2,2"), 164))
    ten = as_strs(naive_oracle(handles("0,1,1"), 10))
    assert "6:1,4:1" in ten
    assert "5:1,3:1" not in ten  # the informal alternative fails the grammar


@pytest.mark.parametrize("text", ORACLE_POOL)
def test_oracle_equivalence_small(text, handles):
    h = handles(text)
    for n in range(0, 80):
        assert enumerate_legal(h, n) == naive_oracle(h, n), (text, n)


# 0,1,2,1 has a legal length-3 word worth G_4 = 4, which must not count at m = 3;
# 0,1,3,0,1 has 5 = 1*G_2 + 3*G_1, a length-2 word that window 5 lists only
# because the zero block makes it legal again at length 5; 0,3,4,1 and 0,4,2 need
# a length-m tail worth up to bound - hi_m, so a tail cut one window tighter
# loses decompositions of N = 114..120 and 116..120
@pytest.mark.parametrize(
    "text", ORACLE_POOL + ["2", "0,1,2,1", "0,1,3,0,1", "0,3,4,1", "0,4,2"])
def test_sweep_matches_point_enumeration(text, handles):
    h = handles(text)
    assert decompositions_up_to(h, 0) == {}
    buckets = decompositions_up_to(h, 120)
    for n in range(1, 121):
        expected = enumerate_legal(h, n)
        got = buckets.get(n, [])
        assert len(got) == len(expected), (text, n)  # no word listed twice
        assert set(got) == expected, (text, n)
        for d in (*got, *expected):  # sparse words come out canonical
            assert d == Decomposition.from_dict(d.to_dict()), (text, n, d)


def test_greedy_membership(handles):
    for text in ORACLE_POOL:
        h = handles(text)
        for n in range(0, 300):
            assert greedy_decompose(h, n) in enumerate_legal(h, n)


def test_first_nonunique_lagonacci(handles):
    assert first_nonunique(handles("0,1,1"), 100) == (7, 2)


def test_first_nonunique_none_for_fibonacci(handles):
    assert first_nonunique(handles("1,1"), 1000) is None


def test_first_nonunique_respects_bound(handles):
    assert first_nonunique(handles("0,1,1"), 6) is None


def test_first_nonunique_returns_a_hit_within_the_budget(handles):
    # the bound lies past the budget, but N = 7 lies inside it
    assert first_nonunique(handles("0,1,1"), 5000, budget=100) == (7, 2)


def test_first_nonunique_raises_only_without_a_hit_within_the_budget(handles):
    with pytest.raises(BudgetExceededError):
        first_nonunique(handles("1,1"), 5000, budget=100)
    with pytest.raises(BudgetExceededError):
        first_nonunique(handles("0,1,1"), 100, budget=6)
    assert first_nonunique(handles("0,1,1"), 6, budget=6) is None


def test_first_nonunique_matches_point_enumeration_on_the_grid():
    texts, _ = expand_grid(range(0, 4), range(1, 5), 4)
    assert len(texts) == 1940
    for text in texts:
        if text == "1":
            continue  # the constant sequence has no top index above 1
        h = SequenceHandle.from_text(text)
        expected = None
        for n in range(1, 501):
            count = len(enumerate_legal(h, n))
            if count >= 2:
                expected = (n, count)
                break
        assert first_nonunique(SequenceHandle.from_text(text), 500) == expected, text


def test_heads_sit_at_their_length_or_depth_below_it_on_the_grid():
    # the range sweep keeps each word once on this lemma: a non-empty length-m
    # head has its top entry at m or m - depth, only the bare summand sits at m
    # in a deep family, and every depth-0 head sits at m.  So a length-k word
    # has top index k or k - depth, and the one word two lengths share is the
    # twin ((k - depth, 1),).  The heads of one length are distinct and sit
    # above their tails, so one length never derives a word twice
    texts = [t for t in expand_grid(range(0, 4), range(1, 5), 4)[0] if t != "1"]
    assert len(texts) == 1939
    for text in texts:
        h = SequenceHandle.from_text(text)
        s = h.spec.depth
        cap = h.spec.max_digit * sum(h.terms(40))  # no head is worth more
        for m in range(1, 41):
            heads = [(head, longest) for head, _, longest in enumerator._heads(h, m, cap)
                     if head]
            assert heads and len({head for head, _ in heads}) == len(heads), (text, m)
            for head, longest in heads:
                top = head[0][0]
                if s == 0:
                    assert top == m, (text, m, head)
                elif top == m:
                    assert head == ((m, 1),), (text, m, head)
                else:
                    assert top == m - s, (text, m, head)
                assert longest < head[-1][0], (text, m, head)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 5), st.integers(1, 5), st.data(), st.integers(1, 400))
def test_sweep_matches_point_enumeration_off_the_grid(depth, span, data, bound):
    # deeper, longer and larger families than the grid: every bucket equals
    # enumerate_legal's set with as many words, the first non-unique value
    # is the smallest one whose bucket holds two or more, and the values-only
    # sweep yields each window's values as the words sweep does
    ends = data.draw(st.lists(st.integers(1, 9), min_size=min(span, 2), max_size=min(span, 2)))
    inner = data.draw(st.lists(st.integers(0, 9), min_size=span - len(ends),
                               max_size=span - len(ends)))
    coefficients = [0] * depth + ends[:1] + inner + ends[1:]
    assume(math.gcd(*(i for i, c in enumerate(coefficients, 1) if c)) == 1)
    assume(coefficients != [1])  # the constant family has no top index above 1
    text = ",".join(map(str, coefficients))
    h = SequenceHandle.from_text(text)
    buckets = decompositions_up_to(h, bound)
    assert set(buckets) <= set(range(1, bound + 1)), text
    for n in range(1, bound + 1):
        got, want = buckets.get(n, []), enumerate_legal(h, n)
        assert len(got) == len(want) and set(got) == want, (text, n)
    shared = min((n for n, found in buckets.items() if len(found) >= 2), default=None)
    want = None if shared is None else (shared, len(buckets[shared]))
    assert first_nonunique(SequenceHandle.from_text(text), bound) == want, text
    assert_sweep_modes_agree(text, bound)


def assert_sweep_modes_agree(text, bound):
    """Window by window, the values-only sweep behind first_nonunique yields
    the multiset of values the words sweep lists, and builds no word."""
    built = [sorted(values) for _, values in
             enumerator._windows(SequenceHandle.from_text(text), bound)]
    counted = [(words, sorted(values)) for words, values in
               enumerator._windows(SequenceHandle.from_text(text), bound, build=False)]
    assert counted == [([], values) for values in built], text


def test_plrs_counts_are_all_one(handles):
    h = handles("3,2,4")
    buckets = decompositions_up_to(h, 400)
    assert set(buckets) == set(range(1, 401))
    assert all(len(v) == 1 for v in buckets.values())


def test_bijection_counts(handles):
    assert bijection_count(handles("1,1"), 5) == (5, 5)
    assert bijection_count(handles("1,1"), 1) == (1, 1)
    assert bijection_count(handles("3,2,4"), 3) == (42, 42)


def test_bijection_cross_check_against_enumeration(handles):
    # count decompositions anchored exactly at n by enumerating the window
    for text in ["1,1", "2,2", "3,2,4"]:
        h = handles(text)
        for n in range(1, 7):
            lo, hi = h.term(n), h.term(n + 1)
            anchored = 0
            for value in range(lo, hi):
                anchored += sum(
                    1 for d in enumerate_legal(h, value) if d.max_index == n
                )
            assert bijection_count(h, n) == (anchored, hi - lo), (text, n)


def test_bijection_census_matches_the_gap_on_the_grid():
    # every depth-0 family of the acceptance grid but the constant one
    texts = [t for t in expand_grid([0], range(1, 5), 4)[0] if t != "1"]
    assert len(texts) == 499
    for text in texts:
        h = SequenceHandle.from_text(text)
        terms = h.terms(22)
        for n in range(1, 21):
            assert bijection_count(h, n)[0] == terms[n] - terms[n - 1], (text, n)


def test_bijection_requires_depth_zero(handles):
    with pytest.raises(NotPLRSError):
        bijection_count(handles("0,2,2"), 3)


def test_budget_errors(handles):
    h = handles("0,2,2")
    with pytest.raises(BudgetExceededError):
        enumerate_legal(h, 50, budget=10)
    with pytest.raises(OracleBoundExceededError):
        naive_oracle(h, 501)
    with pytest.raises(BudgetExceededError):
        decompositions_up_to(h, 10**9, budget=10**6)


def test_word_memo_is_a_bounded_cache(monkeypatch):
    # a long-lived handle answers every query that a fresh handle answers;
    # only a call whose own additions pass the limit raises
    limit = 50
    monkeypatch.setattr(enumerator, "_STATE_LIMIT", limit)
    h = SequenceHandle.from_text("0,0,1,5")
    refused = []
    largest = 0
    for n in range(1, 600):
        try:
            want = enumerate_legal(SequenceHandle.from_text("0,0,1,5"), n)
        except BudgetExceededError:
            refused.append(n)
            with contextlib.suppress(BudgetExceededError):
                enumerate_legal(h, n)
        else:
            assert enumerate_legal(h, n) == want, n
        largest = max(largest, len(h.word_memo))
    assert refused, "no single call passed the limit"
    assert largest <= 2 * limit + 1


def test_env_var_budget(monkeypatch, capsys):
    # the CLI reads ZECKLAB_BUDGET and passes the number to enumerate_legal
    from zecklab.cli import main

    def enumerate_n(n, *extra):
        code = main(["enumerate", "--rec", "0,2,2", "--n", str(n), *extra])
        return code, capsys.readouterr().err

    monkeypatch.setenv("ZECKLAB_BUDGET", "123")
    assert enumerate_n(123)[0] == 0
    code, err = enumerate_n(124)
    assert code == 5
    assert err.strip() == "budget exceeded: value 124 exceeds enumeration budget 123"
    # --budget wins over the variable
    assert enumerate_n(124, "--budget", "124")[0] == 0
    monkeypatch.delenv("ZECKLAB_BUDGET")
    code, err = enumerate_n(10**6 + 1)
    assert code == 5
    assert err.strip().endswith("exceeds enumeration budget 1000000")


def test_malformed_env_var_budget_is_rejected(monkeypatch, capsys):
    from zecklab.cli import main

    for raw in ("abc", "-5", "1e6"):
        monkeypatch.setenv("ZECKLAB_BUDGET", raw)
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--rec", "0,2,2", "--n", "50"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: ZECKLAB_BUDGET must be a non-negative integer, got {raw!r}")


def test_enumerate_legal_ignores_the_env_var(monkeypatch, handles):
    # the budget is a number the caller passes, default 10**6; only the CLI
    # reads ZECKLAB_BUDGET
    h = handles("0,1,1")
    for raw in ("5", "abc"):
        monkeypatch.setenv("ZECKLAB_BUDGET", raw)
        assert as_strs(enumerate_legal(h, 7)) == ["5:1,1:1", "6:1"]
        assert first_nonunique(h, 100) == (7, 2)
        with pytest.raises(BudgetExceededError, match="budget 1000000$"):
            enumerate_legal(h, 10**6 + 1)


def test_every_enumerated_decomposition_checks_out(handles):
    from zecklab import evaluate, is_legal

    for text in ORACLE_POOL:
        h = handles(text)
        for n in (13, 47, 95):
            for d in enumerate_legal(h, n):
                assert evaluate(d, h) == n
                assert is_legal(d, h).legal


def test_every_value_has_a_legal_decomposition_on_the_grid():
    # the paper's existence claim, checked by the grammar sweep without greedy:
    # every value 1..300 of every non-constant grid family has a legal
    # decomposition, and a depth-0 family has exactly one
    texts = [t for t in expand_grid(range(0, 4), range(1, 5), 4)[0] if t != "1"]
    assert len(texts) == 1939
    for i, text in enumerate(texts):
        h = SequenceHandle.from_text(text)
        buckets = decompositions_up_to(h, 300)
        assert set(buckets) == set(range(1, 301)), text
        if h.spec.depth == 0:
            assert all(len(found) == 1 for found in buckets.values()), text
        if i % 97 == 0:  # the oracle walks the automaton, not the head expander
            for v in range(1, 41):
                assert len(buckets[v]) == len(naive_oracle(h, v)), (text, v)


def test_both_window_consumers_agree_on_the_grid():
    # decompositions_up_to lists every window's words and first_nonunique
    # stops at the first window holding a value twice, in the values-only
    # sweep: the first hit is the smallest value whose bucket holds two or
    # more decompositions, and both sweeps yield the same values per window
    texts = [t for t in expand_grid(range(0, 4), range(1, 5), 4)[0] if t != "1"]
    assert len(texts) == 1939
    for text in texts:
        buckets = decompositions_up_to(SequenceHandle.from_text(text), 300)
        shared = min((v for v, found in buckets.items() if len(found) >= 2), default=None)
        want = None if shared is None else (shared, len(buckets[shared]))
        assert first_nonunique(SequenceHandle.from_text(text), 300) == want, text
        assert_sweep_modes_agree(text, 300)

import pytest
from hypothesis import given, settings, strategies as st

from zecklab import (
    Decomposition,
    SequenceHandle,
    enumerate_legal,
    evaluate,
    expand_grid,
    greedy_decompose,
    is_legal,
    replay_derivation,
)

FAMILIES = ["0,2,2", "0,1,1", "0,2,1,2", "0,0,1,4", "0,3,1",
            "1,1", "3,2,4", "2,2", "0,1,2", "0,0,2,3"]
# the acceptance grid without the constant family 1, whose terms never grow
GRID = [text for text in expand_grid(range(0, 4), range(1, 5), 4)[0] if text != "1"]
# terms not monotone (G_18 = 27 > G_19 = 26): a remainder's window can lie
# above its block's stop index
DIP = "0,0,0,1,0,0,1"


@pytest.mark.parametrize(
    "text,n,expected",
    [
        ("0,2,2", 164, {8: 2, 7: 1, 5: 2}),
        ("0,1,1", 10, {6: 1, 4: 1}),
        ("0,1,1", 5, {3: 1, 1: 1}),
        ("1,1", 100, {10: 1, 5: 1, 3: 1}),
    ],
)
def test_known_decompositions(text, n, expected, handles):
    assert greedy_decompose(handles(text), n).to_dict() == expected


def test_zero_gives_empty(handles):
    for text in FAMILIES:
        assert greedy_decompose(handles(text), 0) == Decomposition()


def test_term_values_become_bare_summands(handles):
    for text in FAMILIES:
        h = handles(text)
        for n in range(1, 15):
            d = greedy_decompose(h, h.term(n))
            assert len(d.summands) == 1 and d.summands[0][1] == 1


def test_duplicate_term_value_uses_largest_index(handles):
    assert greedy_decompose(handles("0,1,1"), 3).to_dict() == {4: 1}


@pytest.mark.parametrize("text", FAMILIES)
def test_totality_and_legality_sampled(text, handles):
    h = handles(text)
    for n in range(0, 800):
        d = greedy_decompose(h, n)
        assert evaluate(d, h) == n
        assert is_legal(d, h).legal, (text, n, str(d))


@pytest.mark.parametrize("text", ["0,0,1,0,1", "0,0,0,1,0,0,2"])
def test_totality_and_legality_at_duplicated_term_values(text, handles):
    # both families repeat term values (G_4 = G_6 = 4 on 0,0,1,0,1), so a
    # remainder's largest matching index can sit at or above the stop index
    h = handles(text)
    for n in range(0, 3001):
        d = greedy_decompose(h, n)
        assert evaluate(d, h) == n
        assert is_legal(d, h).legal, (text, n, str(d))


def test_remainders_re_anchor_below_the_stop_index(handles):
    # 64 leaves remainder 26 after a block that stops at index 18, and the
    # window of 26 is 19; greedy re-anchors at the largest index below 18
    # whose term fits
    h = handles(DIP)
    for n in range(0, 3001):
        d = greedy_decompose(h, n)
        assert evaluate(d, h) == n
        assert is_legal(d, h).legal, (n, str(d))
    assert str(greedy_decompose(h, 64)) == "21:1,14:1,7:1,3:1"
    assert list(enumerate_legal(h, 64)) == [greedy_decompose(h, 64)]


def test_a_block_that_takes_every_cap_leaves_nothing(handles):
    # README's proof that greedy needs no branch for a block that takes every
    # cap yet leaves a remainder: the block's caps sum to G_{a+1} (anchor
    # a >= L) or G_{a+1} - 1 (a < L, depth 0 or lead > depth), G_{a+1}
    # exceeds what it is given, and every other low anchor only ever sees a
    # term value, which goes as a bare summand
    for text in GRID + [DIP]:
        h = handles(text)
        c, s, L = h.spec.coefficients, h.spec.depth, h.spec.order
        for n in range(1, 61):
            _, steps = greedy_decompose(h, n, trace=True)
            given = n
            for step in steps:
                if step.kind == "block":
                    a = step.anchor
                    assert h.term(a + 1) > given, (text, n, a)
                    caps = sum(c[i - 1] * h.term(a + 1 - i) for i in range(s + 1, min(a, L) + 1))
                    if a >= L:
                        assert caps == h.term(a + 1), (text, n, a)
                    else:
                        assert s < a and (s == 0 or c[s] > s), (text, n, a)
                        assert caps == h.term(a + 1) - 1, (text, n, a)
                given = step.remainder
    # 0,1,1's prefix 1, 2, 4, 3: a block at anchor 2 would take G_1 once and
    # leave 1 of 2, but 1 and 2 are term values and go bare
    assert [str(greedy_decompose(handles("0,1,1"), n)) for n in (1, 2)] == ["1:1", "2:1"]


def test_determinism(handles):
    h = handles("0,2,1,2")
    assert greedy_decompose(h, 4321) == greedy_decompose(h, 4321)


def test_trace_records_blocks(handles):
    h = handles("0,2,2")
    d, steps = greedy_decompose(h, 164, trace=True)
    assert d.to_dict() == {8: 2, 7: 1, 5: 2}
    assert steps[0].kind == "block"
    assert steps[0].anchor == 9
    assert steps[0].takes == ((8, 2, 56), (7, 1, 32))
    assert steps[0].remainder == 20
    assert steps[1].anchor == 6
    assert steps[1].remainder == 0


def test_first_block_consumes_the_most(handles):
    # no legal decomposition beats the greedy first block's consumed value
    for text in ["0,2,2", "0,1,1", "1,1"]:
        h = handles(text)
        for n in range(2, 120):
            _, steps = greedy_decompose(h, n, trace=True)
            step = steps[0]
            if step.kind != "block":
                continue
            consumed = n - step.remainder
            stop = min(i for i, _, _ in step.takes) if step.takes else step.anchor
            for d in enumerate_legal(h, n):
                above = sum(
                    m * h.term(i) for i, m in d.summands if i >= stop
                )
                assert above <= consumed, (text, n, str(d))


def test_large_value_stays_exact(handles):
    h = handles("0,2,1,2")
    n = 10**40 + 12345
    d = greedy_decompose(h, n)
    assert evaluate(d, h) == n
    assert is_legal(d, h).legal


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 5000))
def test_totality_property(text, n):
    h = SequenceHandle.from_text(text)
    d = greedy_decompose(h, n)
    assert evaluate(d, h) == n
    assert is_legal(d, h).legal


def test_greedy_is_total_and_legal_on_the_whole_grid():
    # the paper's existence claim by greedy, for every n <= 50 on every grid
    # family but the constant one; fresh handles, so no other test's reads count
    for text in GRID:
        h = SequenceHandle.from_text(text)
        for n in range(51):
            d = greedy_decompose(h, n)
            assert evaluate(d, h) == n and is_legal(d, h).legal, (text, n, str(d))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRID), st.integers(0, 10**50))
def test_greedy_is_total_legal_and_replays_on_the_grid(handles, text, n):
    h = handles(text)
    d = greedy_decompose(h, n)
    assert evaluate(d, h) == n
    verdict = is_legal(d, h)
    assert verdict.legal, (text, n, str(d))
    word = replay_derivation(verdict.blocks, verdict.alignment, h.spec)
    assert word == d.dense(verdict.alignment)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRID), st.integers(0, 10**50))
def test_traced_and_untraced_runs_agree_on_the_grid(handles, text, n):
    # one loop serves both runs: the trace must not change the result, and
    # its steps must account for every summand
    h = handles(text)
    d = greedy_decompose(h, n)
    traced, steps = greedy_decompose(h, n, trace=True)
    assert traced == d
    summands = {}
    for step in steps:
        if step.kind == "unit":
            summands[step.anchor] = 1
        for j, copies, g in step.takes:
            assert g == h.term(j)
            summands[j] = copies
    assert sum(m * h.term(j) for j, m in summands.items()) == n
    assert Decomposition.from_dict(summands) == d

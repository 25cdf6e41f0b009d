import copy
import itertools
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from zecklab import (
    Decomposition,
    DerivationBlock,
    Kind,
    LegalityVerdict,
    RecurrenceSpec,
    SequenceHandle,
    canonicalize,
    enumerate_legal,
    evaluate,
    expand_grid,
    greedy_decompose,
    is_legal,
    parse_decomposition,
    replay_derivation,
    window_alignment,
    word_derivation,
    word_is_legal,
)
from zecklab.automaton import _START, _UNIT, _nfa_moves, count_accepted, reject_at
from zecklab.errors import AlignmentTooSmallError, DecompositionTextError, NonProgressError

POOL = ["0,2,2", "0,1,1", "0,2,1,2", "0,0,1,4", "3,2,4", "1,1", "0,0,2,3"]
# the acceptance grid: depth <= 3, span <= 4, coefficients <= 4
GRID = expand_grid(range(0, 4), range(1, 5), 4)[0]


def naive_word_legal(word, spec):
    """Straight transcription of the grammar, no memoization.

    Independent of the production recognizer on purpose; the two must agree.
    """
    c, s, L = spec.coefficients, spec.depth, spec.order
    plrs = spec.kind is Kind.PLRR
    word = tuple(word)
    m = len(word)
    if m == 0:
        return True
    if plrs and word[0] == 0:
        return False
    if not plrs and word[0] == 1 and all(a == 0 for a in word[1:]):
        return True
    if m < L and (plrs or s < m) and word == c[:m]:
        return True
    for t in range(1 if plrs else s + 1, min(L, m) + 1):
        if word[: t - 1] != c[: t - 1] or word[t - 1] >= c[t - 1]:
            continue
        if plrs and t == 1 and word[0] == 0:
            continue
        for gap in range(0, m - t + 1):
            if any(word[t : t + gap]):
                break
            if naive_word_legal(word[t + gap :], spec):
                return True
    return False


# --- the recursive recognizer: the grammar rules transcribed, memoised per suffix

def _suffix_witnesses(word, spec: RecurrenceSpec):
    """For each suffix start p, a witness of its legality or None.

    Witnesses: ("end",), ("unit",), ("prefix",), or ("block", t, gap, next_p).
    Computed bottom-up so the block search can reuse tail verdicts.
    """
    c, s, L = spec.coefficients, spec.depth, spec.order
    plrs = spec.kind is Kind.PLRR
    m = len(word)
    wit: list[tuple | None] = [None] * (m + 1)
    wit[m] = ("end",)
    # first nonzero position at or after p (m when none)
    nz = [m] * (m + 1)
    for p in range(m - 1, -1, -1):
        nz[p] = p if word[p] else nz[p + 1]
    for p in range(m - 1, -1, -1):
        k = m - p
        if plrs and word[p] == 0:
            continue  # leading coefficient must be positive, tails included
        if not plrs and word[p] == 1 and nz[p + 1] == m:
            wit[p] = ("unit",)
            continue
        if k < L and (plrs or s < k) and all(word[p + i] == c[i] for i in range(k)):
            wit[p] = ("prefix",)
            continue
        t_lo = 1 if plrs else s + 1
        if k < t_lo:
            continue  # suffix too short to hold any block position
        prefix_ok = True
        for i in range(t_lo - 1):
            if word[p + i] != c[i]:
                prefix_ok = False
                break
        found = None
        for t in range(t_lo, min(L, k) + 1):
            if t > t_lo:
                prefix_ok = prefix_ok and word[p + t - 2] == c[t - 2]
            if not prefix_ok:
                break
            a = word[p + t - 1]
            if not 0 <= a < c[t - 1]:
                continue
            if plrs and t == 1 and a == 0:
                continue
            q0 = p + t
            q_hi = min(nz[q0], m) if q0 < m else m
            # prefer the widest gap: reported derivations then end blocks at
            # the last zero before the tail, so block boundaries sit next to their gaps
            for q in range(q_hi, q0 - 1, -1):
                if wit[q] is not None:
                    found = ("block", t, q - q0, q)
                    break
            if found:
                break
        wit[p] = found
    return wit


def reference_derivation(word, spec: RecurrenceSpec) -> tuple[DerivationBlock, ...] | None:
    """The derivation of a legal word, or None if it has none: the reference
    ``word_derivation`` and ``word_is_legal`` are pinned to."""
    word = list(word)
    if not word:
        return ()
    wit = _suffix_witnesses(word, spec)
    if wit[0] is None:
        return None
    blocks = []
    p = 0
    while p < len(word):
        w = wit[p]
        if w[0] == "unit":
            blocks.append(DerivationBlock(condition=1, start=p + 1))
            break
        if w[0] == "prefix":
            blocks.append(DerivationBlock(condition=2, start=p + 1))
            break
        _, t, gap, next_p = w
        blocks.append(
            DerivationBlock(
                condition=3, start=p + 1, t=t, coefficient=word[p + t - 1], gap=gap
            )
        )
        p = next_p
    return tuple(blocks)


def states_read(start) -> set:
    """Every state of one automaton that reads so far have made, by a walk
    from its start state along the digits it has read."""
    seen, todo = {start}, [start]
    while todo:
        for to in todo.pop().values():
            if to is not None and to not in seen:
                seen.add(to)
                todo.append(to)
    return seen


def reference_reject_at(word, spec: RecurrenceSpec) -> int:
    """``reject_at``'s meaning, walked plainly over NFA subsets from START with
    no memo: the 1-based position of the digit that leaves no state alive or
    lies outside 0..max(c, 1), len(word) + 1 if the word ends in no accepting
    state, or 0 if it accepts."""
    cap = max(spec.max_coefficient, 1)
    subset = {_START}
    for n, d in enumerate(word, 1):
        subset = {r for q in subset for r in _nfa_moves(spec, q, d)} if 0 <= d <= cap else set()
        if not subset:
            return n
    # START, GAP and UNIT accept, and MATCH_i when c_1..c_i is a short full prefix
    if any(q <= _UNIT or spec.kind is Kind.PLRR or q - _UNIT > spec.depth for q in subset):
        return 0
    return len(word) + 1


# --- decomposition plumbing -------------------------------------------------

def test_decomposition_keeps_the_frozen_record_behaviour():
    d = Decomposition(((5, 2), (1, 1)))
    assert Decomposition(summands=((5, 2), (1, 1))) == d
    assert Decomposition().summands == () and not Decomposition()
    # equal only to a Decomposition, never to a tuple of the same content
    assert d != ((5, 2), (1, 1)) and d != (((5, 2), (1, 1)),)
    assert d != Decomposition(((5, 2),))
    assert hash(d) == hash((d.summands,)) and len({d, Decomposition(d.summands)}) == 1
    assert repr(d) == "Decomposition(summands=((5, 2), (1, 1)))"
    assert Decomposition.__match_args__ == ("summands",)
    match d:
        case Decomposition(summands):
            assert summands == ((5, 2), (1, 1))
    for assign in (lambda: setattr(d, "summands", ()), lambda: setattr(d, "other", 1),
                   lambda: delattr(d, "summands")):
        with pytest.raises(AttributeError):
            assign()
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert type(twin) is Decomposition and twin == d
    # greedy's callers tell a bare result from its (result, steps) pair this way
    assert not isinstance(d, tuple)


def test_verdict_keeps_what_its_keyword_constructor_is_given(handles):
    made = LegalityVerdict(legal=False, alignment=10, blocks=())
    assert (made.legal, made.alignment, made.blocks, made.reason) == (False, 10, (), None)
    made = LegalityVerdict(legal=True, alignment=3, reason="why")
    assert (made.legal, made.alignment, made.blocks, made.reason) == (True, 3, None, "why")
    verdict = is_legal(parse_decomposition("8:3,7:1"), handles("0,2,2"))
    assert (verdict.legal, verdict.alignment, verdict.blocks) == (False, 10, None)
    assert verdict.reason.startswith("no grammar derivation")
    assert not isinstance(verdict, tuple)
    with pytest.raises(AttributeError):
        verdict.other = 1


def test_evaluate_examples(handles):
    d = Decomposition.from_dict({8: 2, 7: 1, 5: 2})
    assert evaluate(d, handles("0,2,2")) == 164
    assert evaluate(Decomposition(), handles("0,2,2")) == 0
    assert evaluate(Decomposition.from_dict({6: 1, 4: 1}), handles("0,1,1")) == 10


def test_parse_decomposition_round_trip():
    d = parse_decomposition("8:2,7:1,5:2")
    assert d.to_dict() == {8: 2, 7: 1, 5: 2}
    assert str(d) == "8:2,7:1,5:2"
    assert parse_decomposition("") == Decomposition()


@pytest.mark.parametrize("bad", ["8:2,9:1", "8", "a:1", "8:0", "0:3", "8:2,8:1",
                                 "²:1", "3:²", "٣:1"])
def test_parse_decomposition_rejects(bad):
    with pytest.raises(DecompositionTextError):
        parse_decomposition(bad)


def test_canonicalize_examples():
    d = canonicalize((0, 2, 1, 0, 2, 0, 0, 0, 0), 9)
    assert d.to_dict() == {8: 2, 7: 1, 5: 2}
    assert canonicalize((), 5) == Decomposition()
    assert canonicalize((1,), 1).to_dict() == {1: 1}
    with pytest.raises(AlignmentTooSmallError):
        canonicalize((0, 1, 2), 2)


def test_dense_round_trip():
    d = Decomposition.from_dict({5: 2, 1: 1})
    assert canonicalize(d.dense(7), 7) == d
    with pytest.raises(AlignmentTooSmallError):
        d.dense(4)


# --- word grammar -----------------------------------------------------------

def test_word_triplet_on_3_2_4(handles):
    h = handles("3,2,4")
    assert word_is_legal((1, 3, 2, 3, 0), h)
    assert not word_is_legal((1, 3, 2, 4, 0), h)
    assert not word_is_legal((6, 2), h)


def test_classic_zeckendorf_words_exhaustive(handles):
    # on 1,1 the legal words are exactly: leading 1, all entries <= 1,
    # no two adjacent nonzero entries
    h = handles("1,1")
    for m in range(1, 13):
        for word in itertools.product((0, 1), repeat=m):
            expected = word[0] == 1 and all(
                not (word[i] and word[i + 1]) for i in range(m - 1)
            )
            assert word_is_legal(word, h) == expected, word


def test_words_with_oversized_entries_are_illegal(handles):
    h = handles("1,1")
    for m in range(1, 9):
        for word in itertools.product((0, 1, 2), repeat=m):
            if max(word) > 1:
                assert not word_is_legal(word, h)


@pytest.mark.parametrize("word,text", [
    ((-1,), "1,1"),
    ((1, 0, -1), "1,1"),
    ((0, -3), "0,2,2"),
    ((-5,), "3,2,4"),
    ((0, 1.5), "0,2,2"),
    ((1.5,), "1,1"),
])
def test_words_with_negative_entries_are_illegal(word, text, handles):
    # so are words with an entry that is no integer: the first entry outside
    # 0..max(c, 1) rejects, and the automata never store it
    h = handles(text)
    assert not word_is_legal(word, h)
    assert word_derivation(word, h) is None
    digits = range(h.spec.max_digit + 1)
    assert reject_at(word, h) == next(n for n, d in enumerate(word, 1) if d not in digits)
    assert all(type(d) is int for start in h.reverse_automaton
               for state in states_read(start) for d in state)


def test_automaton_matches_recognizer_on_the_grid_exhaustively():
    # every word of length <= 4 over 0..cap+1, cap = max(c, 1), on all 1940
    # families: the verdict and the derivation against the recursive
    # recognizer, derivations compared whole
    assert len(GRID) == 1940
    for text in GRID:
        h = SequenceHandle.from_text(text)
        spec = h.spec
        digits = range(max(spec.max_coefficient, 1) + 2)
        for m in range(5):
            for word in itertools.product(digits, repeat=m):
                expected = reference_derivation(word, spec)
                assert word_derivation(word, h) == expected, (text, word)
                assert word_is_legal(word, h) == (expected is not None), (text, word)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(GRID), st.data())
def test_automaton_matches_recognizer_on_long_random_words(handles, text, data):
    h = handles(text)
    cap = max(h.spec.max_coefficient, 1)
    word = data.draw(st.lists(st.integers(-1, cap + 1), max_size=40))
    expected = reference_derivation(word, h.spec)
    assert word_derivation(word, h) == expected
    assert word_is_legal(word, h) == (expected is not None)
    at = reference_reject_at(word, h.spec)
    assert reject_at(word, h) == at and (at == 0) == (expected is not None)
    assert at <= len(word) or not any(word)  # a run ends non-accepting only on zeros


# large coefficients: digits near 0, 1 and c decide the moves, so each family
# draws those often, near its own c; a dense digit table would hold states x (c + 1) x backward states moves.
# Random words seldom need the backward state to pick a move, so each example
# also checks a greedy word, which is legal and long.
LARGE = ["0,1000,1000", "1000,1", "0,1000000,1000000", "1000000,1"]


def large_digits(cap: int):
    return st.one_of(st.sampled_from([0, 0, 0, 1, 2, cap - 2, cap - 1, cap, cap + 1]),
                     st.integers(-1, cap + 1))


@settings(max_examples=800, deadline=None)
@given(st.sampled_from(LARGE), st.data(), st.integers(1, 10**40))
def test_automaton_matches_recognizer_on_large_coefficients(handles, text, data, n):
    h = handles(text)
    word = data.draw(st.lists(large_digits(h.spec.max_digit), max_size=40))
    for w in (word, greedy_decompose(h, n).dense(h.top_index(n))):
        expected = reference_derivation(w, h.spec)
        assert word_derivation(w, h) == expected
        assert word_is_legal(w, h) == (expected is not None)
        at = reference_reject_at(w, h.spec)
        assert reject_at(w, h) == at and (at == 0) == (expected is not None)
        assert at <= len(w) or not any(w)


def test_derivation_blocks_are_whole_records(handles):
    # blocks are built past the NamedTuple's __new__, whose defaults would
    # otherwise hide a missing field: each must be a DerivationBlock with all
    # five fields, t/coefficient/gap set exactly on block steps
    words = [(text, list(word)) for text in POOL
             for word in itertools.product(range(3), repeat=6)]
    words += [(text, greedy_decompose(handles(text), n).dense(handles(text).top_index(n)))
              for text in POOL for n in (164, 10**6 + 7, 3**200 + 11)]
    derived = 0
    for text, word in words:
        blocks = word_derivation(word, handles(text))
        for b in blocks or ():
            derived += 1
            assert type(b) is DerivationBlock and len(b) == 5, (text, word, b)
            assert b == DerivationBlock(*b) and b._fields == DerivationBlock._fields
            extras = (b.t, b.coefficient, b.gap)
            if b.condition == 3:
                assert all(type(x) is int for x in extras), (text, word, b)
            else:
                assert b.condition in (1, 2) and extras == (None, None, None)
    assert derived > 1000


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRID), st.integers(1, 10**30), st.integers(0, 1 << 30))
def test_verdicts_derive_first_and_explain_by_the_scan(handles, text, n, selector):
    # is_legal decides by one backward scan; reading blocks derives a legal
    # word, and reading reason runs an illegal one forward.  Judge greedy
    # results and copies with one summand bumped by 1, as the point-queries
    # benchmark does; the reason's position comes from the memo-free
    # reference walk.
    h = handles(text)
    try:
        d = greedy_decompose(h, n)
    except NonProgressError:
        return  # the constant family 1
    summands = d.to_dict()
    summands[sorted(summands)[selector % len(summands)]] += 1
    for dec in (d, Decomposition.from_dict(summands)):
        verdict = is_legal(dec, h)
        m = verdict.alignment
        assert m == window_alignment(dec, h)
        word = dec.dense(m)
        assert verdict.legal == word_is_legal(word, h)
        at = reference_reject_at(word, h.spec)
        assert reject_at(word, h) == at
        if verdict.legal:
            assert verdict.blocks == reference_derivation(word, h.spec)
            assert verdict.reason is None and at == 0
        else:
            assert at <= m  # the word has a nonzero digit, so the run dies in it
            where = f"the automaton dies at position {at} on digit {word[at - 1]}"
            assert verdict.blocks is None and verdict.reason.endswith(where)
            assert reference_derivation(word, h.spec) is None


def test_derivation_memo_holds_only_the_moves_words_visit():
    # a fresh handle: the session's handles have memos other tests filled
    h = SequenceHandle.from_text("0,1000,1000")
    words = [[0, 999, 0, 0, 0, 1000, 7, 0, 1, 0], [0, 1000], [1, 0, 0]]
    words += [greedy_decompose(h, n).dense(h.top_index(n)) for n in (10**6, 3 * 10**9 + 5)]
    for word in words:
        blocks = word_derivation(word, h)
        assert blocks is not None and blocks == reference_derivation(word, h.spec)
    digits = [d for state in states_read(h.reverse_automaton[0])
              for moves in state.memo for d in moves]
    # one (q, d, r) triple per position of a word at most, each on a digit
    # some word holds
    assert 0 < len(digits) <= sum(map(len, words))
    assert set(digits) <= {d for word in words for d in word}


def test_each_handle_owns_its_automata():
    # two handles of one spec share nothing: deriving, explaining or
    # enumerating on one leaves the other's automata, derivation memos and
    # word memo empty, and each makes its automata once
    a, b = SequenceHandle.from_text("0,2,2"), SequenceHandle.from_text("0,2,2")
    assert is_legal(greedy_decompose(a, 164), a).blocks
    backward, forward = a.reverse_automaton
    assert not forward  # a legal verdict leaves the forward automaton unread
    illegal = parse_decomposition("8:3,7:1")
    verdict = is_legal(illegal, a)
    word = illegal.dense(verdict.alignment)
    assert not verdict.legal and verdict.reason
    assert enumerate_legal(a, 164)
    assert any(memo for state in states_read(backward) for memo in state.memo)
    assert not any(b.reverse_automaton)
    # one forward step per digit the explanation read, each on a digit of the word
    steps = [d for state in states_read(forward) for d in state]
    assert 0 < len(steps) <= reference_reject_at(word, a.spec)
    assert set(steps) <= set(word)
    assert a.word_memo and not b.word_memo
    for h in (a, b):
        assert h.reverse_automaton is h.reverse_automaton
    assert not {*states_read(backward), *states_read(forward)} & {*b.reverse_automaton}


def test_a_verdict_derives_and_explains_only_when_read():
    # a fresh handle: the session's handles have automata other tests filled
    h = SequenceHandle.from_text("0,2,2")
    backward, forward = h.reverse_automaton
    d = greedy_decompose(h, 164)
    verdict = is_legal(d, h)
    assert verdict.legal and verdict.reason is None
    assert not any(memo for state in states_read(backward) for memo in state.memo)
    blocks = verdict.blocks
    assert any(memo for state in states_read(backward) for memo in state.memo)
    word = d.dense(verdict.alignment)
    assert blocks == word_derivation(word, h) == reference_derivation(word, h.spec)
    assert verdict.blocks is blocks
    verdict = is_legal(parse_decomposition("8:3,7:1"), h)
    assert not verdict.legal and verdict.blocks is None
    assert not forward
    reason = verdict.reason
    assert forward and reason.endswith("the automaton dies at position 3 on digit 3")
    assert verdict.reason is reason


def test_automata_hold_only_the_digits_words_read():
    # a coefficient of 10^5 costs no row of 10^5 digits: both automata hold
    # only the digits the judged words contain, whatever the coefficients
    tracemalloc.start()
    try:
        h = SequenceHandle.from_text("0,100000,100000")
        judged = [parse_decomposition("2:1,1:1"), greedy_decompose(h, 10**40 + 7)]
        verdicts = [is_legal(d, h) for d in judged]
        explained = [v.blocks or v.reason for v in verdicts]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
    assert [v.legal for v in verdicts] == [False, True]
    assert explained[0].endswith("dies at position 2 on digit 1") and explained[1]
    digits = {d for dec, v in zip(judged, verdicts) for d in dec.dense(v.alignment)}
    # a digit outside 0..max(c, 1) reads None and is never stored
    assert not word_is_legal([100001], h) and reject_at([-1], h) == 1
    for start in h.reverse_automaton:
        states = states_read(start)
        assert len({state.subset for state in states}) == len(states)  # one state per subset
        for state in states:
            assert set(state) <= digits
            assert all(set(moves) <= digits for moves in state.memo or ())


def test_count_accepted_matches_the_recognizer(handles):
    # every length-n word over 0..max(c, 1), deep families included
    for text in POOL:
        h = handles(text)
        digits = range(max(h.spec.max_coefficient, 1) + 1)
        for n in range(5):
            legal = sum(reference_derivation(word, h.spec) is not None
                        for word in itertools.product(digits, repeat=n))
            assert count_accepted(h, n) == legal, (text, n)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(POOL),
    st.lists(st.integers(0, 4), min_size=0, max_size=9),
)
def test_recognizer_agrees_with_naive_transcription(handles, text, word):
    h = handles(text)
    assert word_is_legal(word, h) == naive_word_legal(word, h.spec)


def test_padding_by_depth_plus_one_preserves_legality(handles):
    # deep families absorb depth+1 leading zeros in one extra block level;
    # a single added zero does not always survive
    for text in ["0,2,2", "0,1,1", "0,2,1,2", "0,0,1,4", "0,0,2,3"]:
        h = handles(text)
        pad = h.spec.depth + 1
        for word in itertools.product(range(3), repeat=6):
            if word_is_legal(word, h):
                assert word_is_legal((0,) * pad + word, h)


def test_single_zero_padding_can_break_legality(handles):
    # frozen counterexample: on the lagonacci family the word for one copy
    # each of G_5 and G_1 is legal at length 6 but not at length 7
    h = handles("0,1,1")
    assert word_is_legal((0, 1, 0, 0, 0, 1), h)
    assert not word_is_legal((0, 0, 1, 0, 0, 0, 1), h)


def test_plrs_words_need_positive_lead(handles):
    h = handles("3,2,4")
    assert not word_is_legal((0, 1), h)
    assert not word_is_legal((0, 3, 2, 3), h)


# --- decomposition-level legality -------------------------------------------

def test_greedy_output_of_example_is_legal(handles):
    h = handles("0,2,2")
    verdict = is_legal(Decomposition.from_dict({8: 2, 7: 1, 5: 2}), h)
    assert verdict.legal
    assert verdict.alignment == 9  # window of 164


def test_condition2_decomposition(handles):
    h = handles("0,2,1,2")
    verdict = is_legal(Decomposition.from_dict({2: 2, 1: 1}), h)  # value 5
    assert verdict.legal
    assert verdict.alignment == 3
    assert verdict.blocks[0].condition == 2


def test_lagonacci_seven_alternative(handles):
    h = handles("0,1,1")
    verdict = is_legal(Decomposition.from_dict({5: 1, 1: 1}), h)  # 6 + 1 = 7
    assert verdict.legal
    assert verdict.alignment == 6
    first = verdict.blocks[0]
    assert (first.condition, first.t, first.gap) == (3, 3, 2)
    assert verdict.blocks[1].condition == 1


def test_lagonacci_ten_second_sum_is_illegal(handles):
    # 10 = 6 + 4 uses the third and fifth terms; the grammar rejects it
    h = handles("0,1,1")
    d = Decomposition.from_dict({5: 1, 3: 1})
    verdict = is_legal(d, h)
    assert not verdict.legal
    assert verdict.alignment == 7
    # the word 0,0,1,0,1,0,0: the bare summand at position 3 admits no
    # second nonzero digit, so the scan dies on the 1 at position 5
    assert d.dense(7) == [0, 0, 1, 0, 1, 0, 0]
    assert verdict.reason.startswith(
        "no grammar derivation for word [0, 0, 1, 0, 1, 0, 0] at window alignment 7")
    assert verdict.reason.endswith("the automaton dies at position 5 on digit 1")


def test_empty_decomposition_is_legal(handles):
    assert is_legal(Decomposition(), handles("0,2,2")).legal


def test_bare_summand_at_duplicate_value(handles):
    h = handles("0,1,1")
    assert is_legal(Decomposition.from_dict({4: 1}), h).legal  # value 3
    assert is_legal(Decomposition.from_dict({3: 1}), h).legal  # value 4


def test_window_alignment_never_below_max_index(handles):
    h = handles("0,1,1")
    for mapping in [{1: 1}, {3: 1}, {6: 1, 4: 1}, {5: 1, 1: 1}]:
        d = Decomposition.from_dict(mapping)
        assert window_alignment(d, h) >= d.max_index


def test_derivations_replay_to_the_original_word(handles):
    for text in POOL:
        h = handles(text)
        spec = h.spec
        for word in itertools.product(range(3), repeat=7):
            blocks = word_derivation(word, h)
            if blocks is not None:
                assert replay_derivation(blocks, 7, spec) == list(word)


def test_verdict_derivation_replays(handles):
    h = handles("0,2,2")
    d = Decomposition.from_dict({8: 2, 7: 1, 5: 2})
    verdict = is_legal(d, h)
    rebuilt = replay_derivation(verdict.blocks, verdict.alignment, h.spec)
    assert canonicalize(rebuilt, verdict.alignment) == d

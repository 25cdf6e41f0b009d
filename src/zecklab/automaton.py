"""The block grammar compiled to one finite automaton, which decides, derives,
explains and counts words.  This module alone reads the automaton's layout.

Legal coefficient words form a regular language (Frougny 1992; Shallit
1994).  ``_nfa_moves`` is a small NFA for it, built from the rules in
``legality``.  NFA states:

* START: nothing read yet (accepting: the empty word is legal);
* GAP: a block just closed; zeros extend its gap, and any digit may also
  open the next legal tail, as from START (accepting: the tail may be empty);
* UNIT (deep families only): a bare summand 1 read, only zeros may follow;
* MATCH_i, i = 1..L-1: the current suffix opened with c_1..c_i (accepting
  when that is a short full prefix, i.e. for depth-0 families or i > depth).

From START, GAP or MATCH_i the next digit d, at block position t = i + 1
(i = 0 for START and GAP), may extend the match (d = c_t, t < L), close a
block (d < c_t, positive when t = 1 in a depth-0 family) or, at the start of
a deep-family suffix, open a bare summand (d = 1).  Block positions t <= depth
carry c_t = 0, so no digit closes a block there.

``compile_reverse_automaton`` determinises the NFA of reversed words by
subset construction, the only DFA built: a suffix read backwards leads to a
state whose live set holds the NFA states from which that suffix is accepted.
A word is legal when START is live before all of it, so ``word_is_legal``
decides it in one backward scan with no backtracking, and ``count_accepted``
counts the legal words of one length by paths in the same DFA.
``word_derivation`` reads a derivation off it: the backward pass gives the
live NFA states before each suffix, and a forward walk takes the one live
move per digit, extending a gap while a legal tail still follows.
``reject_at`` explains a rejection by running the NFA forward over subsets
from START, so that it names the first digit that leaves no state alive.
The tests pin all four to a recursive recognizer that transcribes the rules,
and ``reject_at``'s positions to a plain forward walk without the memo.

The builder is a plain function of the spec; each ``SequenceHandle`` builds
its automaton on first use and holds it, the walks' memos included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .recurrence import Kind, RecurrenceSpec

if TYPE_CHECKING:
    from .sequence import SequenceHandle

_START, _GAP, _UNIT = 0, 1, 2  # MATCH_i is state _UNIT + i
DEAD = -1


class DerivationBlock(NamedTuple):
    """One grammar step.  ``condition`` is 1 (bare summand), 2 (full prefix)
    or 3 (block); blocks carry the drop position t, its coefficient, and the
    gap length that follows."""

    condition: int
    start: int  # 1-based word position where this step begins
    t: int | None = None
    coefficient: int | None = None
    gap: int | None = None


def _nfa_moves(spec: RecurrenceSpec, q: int, d: int) -> set[int]:
    """NFA states reachable from state q on digit d."""
    if q == _UNIT:
        return {_UNIT} if d == 0 else set()
    c, L = spec.coefficients, spec.order
    plrs = spec.kind is Kind.PLRR
    out = {_GAP} if q == _GAP and d == 0 else set()
    i = q - _UNIT if q > _UNIT else 0
    t = i + 1
    if i == 0 and not plrs and d == 1:
        out.add(_UNIT)
    if t < L and d == c[t - 1]:
        out.add(_UNIT + t)
    if d < c[t - 1] and not (plrs and t == 1 and d == 0):
        out.add(_GAP)
    return out


def compile_reverse_automaton(spec: RecurrenceSpec):
    """(moves, delta, live, step, forward): the DFA of reversed legal words over
    the digits 0..max(c, 1), by subset construction (not minimised).

    ``moves[q][d]`` is the NFA move set.  ``delta[r][d]`` is the state after
    reading digit d backwards in state r, or DEAD; state 0 is the start, and
    ``live[r]`` holds the NFA states from which the suffix read so far is
    accepted, so ``live[0]`` holds the accepting ones.  Two memos fill as walks
    meet their entries, since a dense table would grow with max(c):
    ``step[q][r][d]`` is the derivation walk's move from q on d when the rest
    of the word is in r, and ``forward[subset][d]`` is the NFA subset that
    ``reject_at`` reaches from ``subset`` on d, paired with its own row."""
    digits = range(max(spec.max_coefficient, 1) + 1)
    states = range(_UNIT + spec.order)
    moves = tuple(tuple(frozenset(_nfa_moves(spec, q, d)) for d in digits)
                  for q in states)
    accepting = frozenset(q for q in states if q <= _UNIT or spec.kind is Kind.PLRR
                          or q - _UNIT > spec.depth)
    index = {accepting: 0}
    live = [accepting]
    delta = []
    for subset in live:  # grows while it is scanned: breadth-first
        row = []
        for d in digits:
            before = frozenset(q for q in states if moves[q][d] & subset)
            row.append(index.setdefault(before, len(index)) if before else DEAD)
            if len(index) > len(live):  # a new subset: scan it too
                live.append(before)
        delta.append(tuple(row))
    return moves, tuple(delta), live, [[{} for _ in live] for _ in states], {}


def reject_at(word, handle: SequenceHandle) -> int:
    """Where the NFA, run forward over subsets from START, rejects the word:
    the 1-based position of the digit that leaves no state alive (or lies
    outside 0..max(c, 1)), len(word) + 1 if it ends in no accepting state, or
    0 if it accepts."""
    moves, delta, live, _, forward = handle.reverse_automaton
    cap = len(delta[0]) - 1
    subset = frozenset({_START})
    row = forward.setdefault(subset, {})
    n = 0
    for d in word:
        n += 1
        if (nxt := row.get(d)) is None:  # a digit outside 0..cap is never a key
            if not 0 <= d <= cap:
                return n
            after = frozenset().union(*[moves[q][d] for q in subset])
            nxt = row[d] = after, forward.setdefault(after, {})
        subset, row = nxt
        if not subset:
            return n
    return 0 if subset & live[0] else n + 1


def word_is_legal(word, handle: SequenceHandle) -> bool:
    """Decide the grammar on a dense coefficient word (value-blind) by one
    backward scan: it is legal when START is live before all of it.  An entry
    outside 0..max(c, 1) rejects the word."""
    _, delta, live, _, _ = handle.reverse_automaton
    cap = len(delta[0]) - 1
    r = 0
    for d in reversed(word):
        if not 0 <= d <= cap or (r := delta[r][d]) == DEAD:
            return False
    return _START in live[r]


def count_accepted(handle: SequenceHandle, n: int) -> int:
    """The number of legal length-n words: length-n paths in the reversed DFA
    from state 0 to a state where START is live.  Reversing a word is a
    bijection, so the reversed words are counted instead."""
    _, delta, live, _, _ = handle.reverse_automaton
    paths = [1] + [0] * (len(delta) - 1)  # paths[r]: suffixes read so far ending in r
    for _ in range(n):
        nxt = [0] * len(delta)
        for r, k in enumerate(paths):
            for to in delta[r]:
                if to != DEAD:
                    nxt[to] += k
        paths = nxt
    return sum(k for k, states in zip(paths, live) if _START in states)


def word_derivation(word, handle: SequenceHandle) -> tuple[DerivationBlock, ...] | None:
    """The derivation of a legal word, or None if it has none."""
    word = list(word)
    moves, delta, live, step, _ = handle.reverse_automaton
    cap = len(delta[0]) - 1
    r = 0
    suffix = [r]
    for d in reversed(word):
        if not 0 <= d <= cap or (r := delta[r][d]) == DEAD:
            return None
        suffix.append(r)
    if _START not in live[r]:
        return None
    suffix.reverse()  # suffix[j]: reverse state after word[j:]
    steps = []  # (condition, start, t, coefficient), gaps filled in below
    q = tail = _START  # tail: 0-based position where the current suffix opened
    for j, d in enumerate(word):
        memo = step[q][suffix[j + 1]]
        if (to := memo.get(d)) is None:
            nxt = moves[q][d] & live[suffix[j + 1]]
            # extend the gap while a legal tail follows, else the one live move
            (to,) = {_GAP} if q == _GAP and d == 0 and _GAP in nxt else nxt
            memo[d] = to
        if d == 0 and to == q == _GAP:
            continue
        if q <= _GAP:  # START or GAP: the next suffix opens at j
            tail = j
        if to == _UNIT and q != _UNIT:
            steps.append((1, j + 1, None, None))
        elif to == _GAP:
            steps.append((3, tail + 1, j - tail + 1, d))
        q = to
    if q > _UNIT:  # the word ends inside a match: a short full prefix
        steps.append((2, tail + 1, None, None))
    ends = [start for _, start, _, _ in steps[1:]] + [len(suffix)]
    # all five fields are given, so skip the NamedTuple's Python-level __new__
    new = tuple.__new__
    return tuple([
        new(DerivationBlock, (cond, start, t, a, None if t is None else end - start - t))
        for (cond, start, t, a), end in zip(steps, ends)])

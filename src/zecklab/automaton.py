"""The block grammar compiled to finite automata, which decide, derive and
count words.  This module alone reads the automata's layout.

Legal coefficient words form a regular language (Frougny 1992; Shallit
1994).  ``compile_automaton`` builds a small NFA for it from the rules in
``legality`` and determinises it by subset construction, so ``word_is_legal``
decides a word in one left-to-right scan with no backtracking.  NFA states:

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

``word_derivation`` reads a derivation off the same NFA: the DFA of reversed
words gives the live NFA states before each suffix, and a forward walk takes
the one live move per digit, extending a gap while a legal tail still follows.
The tests pin both to a recursive recognizer that transcribes the rules.
``count_accepted`` counts the legal words of one length by paths in the DFA.

Both builders are plain functions of the spec; each ``SequenceHandle`` builds
its automata on first use and holds them, the derivation memo included.
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


def _nfa_accepting(spec: RecurrenceSpec, q: int) -> bool:
    if q <= _UNIT:
        return True
    return spec.kind is Kind.PLRR or q - _UNIT > spec.depth


def _determinise(start: frozenset[int], step, digits: range):
    """(rows, subsets) by subset construction from ``start`` (index 0);
    ``rows[k][d]`` indexes ``step(subsets[k], d)``, or is DEAD if it is empty."""
    index = {start: 0}
    subsets = [start]
    rows: list[tuple[int, ...]] = []
    for subset in subsets:  # grows while it is scanned: breadth-first
        row = []
        for d in digits:
            nxt = step(subset, d)
            if not nxt:
                row.append(DEAD)
                continue
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    return tuple(rows), subsets


def compile_automaton(
    spec: RecurrenceSpec,
) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """(delta, accepting): the DFA of the spec's legal words over the digits
    0..max(c, 1), by subset construction (not minimised).

    ``delta[q][d]`` is the state after digit d in state q, or DEAD; state 0
    is the start state, and a word ending in state q is legal when
    ``accepting[q]`` is true.
    """
    delta, subsets = _determinise(
        frozenset({_START}),
        lambda subset, d: frozenset(r for q in subset for r in _nfa_moves(spec, q, d)),
        range(max(spec.max_coefficient, 1) + 1))
    accepting = tuple(any(_nfa_accepting(spec, q) for q in sub) for sub in subsets)
    return delta, accepting


def compile_reverse_automaton(spec: RecurrenceSpec):
    """(moves, delta, live, step): ``moves[q][d]`` is the NFA move set; ``delta``
    reads a suffix backwards from the accepting NFA states into a state r, and
    ``live[r]`` holds the NFA states from which that suffix is accepted.
    ``step[q][r][d]`` memoises the derivation walk's move from q on d when the
    rest of the word is in r, as met: a dense table would grow with max(c)."""
    digits = range(max(spec.max_coefficient, 1) + 1)
    states = range(_UNIT + spec.order)
    moves = tuple(tuple(frozenset(_nfa_moves(spec, q, d)) for d in digits)
                  for q in states)
    delta, live = _determinise(
        frozenset(q for q in states if _nfa_accepting(spec, q)),
        lambda subset, d: frozenset(q for q in states if moves[q][d] & subset),
        digits)
    return moves, delta, live, [[{} for _ in live] for _ in states]


def reject_at(word, handle: SequenceHandle) -> int:
    """Where one scan of the handle's automaton rejects the word: the 1-based
    position of the digit that takes it to DEAD, len(word) + 1 if it ends in a
    non-accepting state, or 0 if it accepts."""
    delta, accepting = handle.automaton
    cap = len(delta[0]) - 1
    state = n = 0
    for d in word:
        n += 1
        if not 0 <= d <= cap or (state := delta[state][d]) == DEAD:
            return n
    return 0 if accepting[state] else n + 1


def word_is_legal(word, handle: SequenceHandle) -> bool:
    """Decide the grammar on a dense coefficient word (value-blind).  An entry
    outside 0..max(c, 1) rejects the word."""
    return not reject_at(word, handle)


def count_accepted(handle: SequenceHandle, n: int) -> int:
    """The number of legal length-n words: length-n paths in the handle's DFA
    from the start state to an accepting state."""
    delta, accepting = handle.automaton
    paths = [1] + [0] * (len(delta) - 1)  # paths[q]: words read so far ending in q
    for _ in range(n):
        nxt = [0] * len(delta)
        for q, k in enumerate(paths):
            for r in delta[q]:
                if r != DEAD:
                    nxt[r] += k
        paths = nxt
    return sum(k for k, acc in zip(paths, accepting) if acc)


def word_derivation(word, handle: SequenceHandle) -> tuple[DerivationBlock, ...] | None:
    """The derivation of a legal word, or None if it has none."""
    word = list(word)
    moves, delta, live, step = handle.reverse_automaton
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

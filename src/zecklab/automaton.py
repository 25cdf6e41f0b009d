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

``compile_reverse_automaton`` returns the start states of two subset
automata over that NFA, built as walks read them (``SubsetState``), so cost
grows with the words read, not with the coefficients.  The backward one
reads a word from its end, and a suffix leads to the NFA states from which
it is accepted: ``word_is_legal`` decides a word in one scan (legal when
START is live before all of it), and ``count_accepted`` counts the legal
words of one length by paths.  ``word_derivation`` reads a derivation off
it: the backward pass gives the live NFA states before each suffix, and a
forward walk takes the one live move per digit, extending a gap while a
legal tail still follows.  The forward one runs the NFA over subsets from
START, so ``reject_at`` names the first digit that leaves no state alive.
The tests pin all four to a recursive recognizer that transcribes the
rules, and ``reject_at``'s positions to a plain forward walk.

Each ``SequenceHandle`` makes the start states on first use and holds them.
Reads fill the automata and the derivation walk's memos; callers never
write them, and a handle and its automata belong to one thread.  So does a
``LegalityVerdict``, which reads its handle's automata when its ``blocks`` or
``reason`` is first read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .recurrence import Kind, RecurrenceSpec

if TYPE_CHECKING:
    from .sequence import SequenceHandle

_START, _GAP, _UNIT = 0, 1, 2  # MATCH_i is state _UNIT + i


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


class SubsetState(dict):
    """A set of NFA states, ``subset``, as a dict from each digit read in it
    to the next state (None: no NFA state survives).  A first read takes one
    subset step; an entry equal to no digit 0..max(c, 1) reads None and is
    never stored.  A backward state's ``memo[q]`` maps a digit to the
    derivation walk's move from q when the rest of the word leads to it."""

    __slots__ = ("subset", "memo", "_automaton")
    # as a dict a state is falsy until read and equals any state with the
    # same reads: compare and hash by identity, and test reads against None
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, subset: frozenset[int], automaton: tuple):
        super().__init__()
        spec, backward, seen = automaton  # seen: subset -> its state, one per direction
        self.subset, self._automaton = subset, automaton
        self.memo = [{} for _ in range(_UNIT + spec.order)] if backward else None
        seen[subset] = self

    def __missing__(self, d: int) -> SubsetState | None:
        spec, backward, seen = self._automaton
        if not 0 <= d <= spec.max_digit or d != int(d):
            return None
        moves = [_nfa_moves(spec, q, d) for q in range(_UNIT + spec.order)]
        if backward:  # the NFA states whose move on d meets the subset
            after = frozenset(q for q, to in enumerate(moves) if to & self.subset)
        else:
            after = frozenset().union(*[moves[q] for q in self.subset])
        to = seen.get(after) if after else None
        if after and to is None:
            to = SubsetState(after, self._automaton)
        self[d] = to
        return to


def compile_reverse_automaton(spec: RecurrenceSpec) -> tuple[SubsetState, SubsetState]:
    """(backward, forward): the start states, whose subsets hold the accepting
    NFA states and START.  Walks make every other state as they reach it."""
    accepting = frozenset(q for q in range(_UNIT + spec.order) if q <= _UNIT
                          or spec.kind is Kind.PLRR or q - _UNIT > spec.depth)
    return (SubsetState(accepting, (spec, True, {})),
            SubsetState(frozenset({_START}), (spec, False, {})))


def reject_at(word, handle: SequenceHandle) -> int:
    """Where the forward automaton rejects the word: the 1-based position of
    the entry that leaves no NFA state alive (or equals no digit 0..max(c, 1)),
    len(word) + 1 if it ends in no accepting state, or 0 if it accepts.  The
    rejecting states, MATCH_i with i <= depth, follow i zeros read from START
    or from GAP, which zeros keep live: so a word ends in one only if it is all
    zeros, and a word with a nonzero digit is rejected at a position in it."""
    backward, state = handle.reverse_automaton
    n = 0
    for d in word:
        n += 1
        if (state := state[d]) is None:
            return n
    return 0 if state.subset & backward.subset else n + 1


def word_is_legal(word, handle: SequenceHandle) -> bool:
    """Decide the grammar on a dense coefficient word (value-blind) by one
    backward scan: it is legal when START is live before all of it.  An entry
    equal to no digit 0..max(c, 1) rejects the word."""
    state = handle.reverse_automaton[0]
    for d in reversed(word):
        if (state := state[d]) is None:
            return False
    return _START in state.subset


def count_accepted(handle: SequenceHandle, n: int) -> int:
    """The number of legal length-n words, counted reversed (a bijection) as
    length-n paths in the backward automaton from its start to a state where
    START is live.  Each state reached reads every digit 0..max(c, 1)."""
    digits = range(handle.spec.max_digit + 1)
    paths = {handle.reverse_automaton[0]: 1}  # state: suffixes read so far that end in it
    for _ in range(n):
        nxt = {}
        for state, k in paths.items():
            for d in digits:
                if (to := state[d]) is not None:
                    nxt[to] = nxt.get(to, 0) + k
        paths = nxt
    return sum(k for state, k in paths.items() if _START in state.subset)


def word_derivation(word, handle: SequenceHandle) -> tuple[DerivationBlock, ...] | None:
    """The derivation of a legal word, or None if it has none."""
    word = list(word)
    state = handle.reverse_automaton[0]
    suffix = [state]
    for d in reversed(word):
        if (state := state[d]) is None:
            return None
        suffix.append(state)
    if _START not in state.subset:
        return None
    suffix.reverse()  # suffix[j]: backward state after word[j:]
    spec = handle.spec
    steps = []  # (condition, start, t, coefficient), gaps filled in below
    q = tail = _START  # tail: 0-based position where the current suffix opened
    for j, d in enumerate(word):
        rest = suffix[j + 1]
        memo = rest.memo[q]
        if (to := memo.get(d)) is None:
            nxt = _nfa_moves(spec, q, d) & rest.subset
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
    return tuple(DerivationBlock(cond, start, t, a, None if t is None else end - start - t)
                 for (cond, start, t, a), end in zip(steps, ends))

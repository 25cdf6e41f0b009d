"""The block grammar compiled to a deterministic finite automaton.

Legal coefficient words form a regular language (Frougny 1992; Shallit
1994).  ``compile_automaton`` builds a small NFA for it from the rules in
``legality`` and determinises it by subset construction, so a word is decided
in one left-to-right scan with no backtracking.  NFA states:

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

The recursive recognizer ``legality._suffix_witnesses`` is the reference
the automaton is tested against; it also builds derivations.
"""

from __future__ import annotations

from functools import lru_cache

from .recurrence import Kind, RecurrenceSpec

_CACHE_SIZE = 256  # families kept compiled; a grid sweep must not keep all ~2000
_START, _GAP, _UNIT = 0, 1, 2  # MATCH_i is state _UNIT + i
DEAD = -1


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


@lru_cache(maxsize=_CACHE_SIZE)
def compile_automaton(
    spec: RecurrenceSpec,
) -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """(delta, accepting): the DFA of the spec's legal words over the digits
    0..max(c, 1), by subset construction (not minimised).

    ``delta[q][d]`` is the state after digit d in state q, or DEAD; state 0
    is the start state, and a word ending in state q is legal when
    ``accepting[q]`` is true.
    """
    digits = range(max(spec.max_coefficient, 1) + 1)
    start = frozenset({_START})
    index = {start: 0}
    subsets = [start]
    rows: list[tuple[int, ...]] = []
    for subset in subsets:  # grows while it is scanned: breadth-first
        row = []
        for d in digits:
            nxt = frozenset(r for q in subset for r in _nfa_moves(spec, q, d))
            if not nxt:
                row.append(DEAD)
                continue
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    accepting = tuple(any(_nfa_accepting(spec, q) for q in sub) for sub in subsets)
    return tuple(rows), accepting

"""Exhaustive enumeration of legal decompositions and uniqueness scans.

Two independent routes exist on purpose:

* ``enumerate_legal`` expands the grammar top-down with value pruning and
  collects every legal word at the target's window alignment;
* ``naive_oracle`` brute-forces all bounded sparse maps with the right value
  and filters them through the legality verdict.

They must agree wherever the oracle is allowed to run; tests enforce that.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .automaton import count_accepted
from .errors import BudgetExceededError, NotPLRSError, OracleBoundExceededError
from .legality import Decomposition, canonicalize, word_is_legal
from .recurrence import Kind
from .sequence import SequenceHandle

DEFAULT_GRAMMAR_BUDGET = 10**6
DEFAULT_ORACLE_BOUND = 500
_STATE_LIMIT = 2_000_000  # memo entries one enumeration may add, guards blowup


def _heads(handle: SequenceHandle, m: int, cap: int):
    """The grammar's rules for legal length-m words, as (head, used, longest):
    every legal length-m word whose head is worth ``used`` <= cap is head +
    tail for some legal tail of length 0..longest.  The unit word and the
    short prefix are heads with longest = 0 (only the empty tail).

    Words are sparse ((index, mult), ...) with indices decreasing.  A head
    uses indices m..m-t+1 and a length-k tail uses k..1 wherever it sits, so
    head + tail is already canonical.
    """
    spec = handle.spec
    c, s, L = spec.coefficients, spec.depth, spec.order
    plrs = spec.kind is Kind.PLRR
    if not plrs and (g_m := handle.term(m)) <= cap:
        yield ((m, 1),), g_m, 0
    if (plrs or s < m) and m < L:
        val = sum(c[i] * handle.term(m - i) for i in range(m))
        if val <= cap:
            yield tuple((m - i, c[i]) for i in range(m) if c[i]), val, 0
    # positions before t_lo carry zero coefficients, so the matched prefix
    # starts empty and worth nothing
    t_lo = 1 if plrs else s + 1
    prefix: tuple[tuple[int, int], ...] = ()
    prefix_val = 0
    for t in range(t_lo, min(L, m) + 1):
        if t > t_lo and c[t - 2]:
            prefix += ((m + 2 - t, c[t - 2]),)
            prefix_val += c[t - 2] * handle.term(m + 2 - t)
        if prefix_val > cap:
            break
        g_t = handle.term(m + 1 - t)
        for a in range(1 if (plrs and t == 1) else 0, c[t - 1]):
            used = prefix_val + a * g_t
            if used > cap:
                break
            yield (prefix + ((m + 1 - t, a),) if a else prefix), used, m - t


def _value_bounds(handle: SequenceHandle, terms: list[int]) -> list[int]:
    """bounds[k] = max(c, 1) * (G_1 + ... + G_k) for k = 0..len(terms), from
    ``terms`` = G_1, G_2, ...: no legal length-k word is worth more."""
    cap = handle.spec.max_digit
    return [cap * total for total in accumulate(terms, initial=0)]


def enumerate_legal(
    handle: SequenceHandle, n_value: int, budget: int = DEFAULT_GRAMMAR_BUDGET
) -> set[Decomposition]:
    """Every legal decomposition of ``n_value``, canonicalized and deduplicated."""
    if n_value < 0:
        raise ValueError("value must be >= 0")
    if n_value > budget:
        raise BudgetExceededError(f"value {n_value} exceeds enumeration budget {budget}")
    if n_value == 0:
        return {Decomposition()}
    # the handle's memo is kept between calls as a bounded cache: one already
    # past _STATE_LIMIT is cleared, and this call may add _STATE_LIMIT more
    memo = handle.word_memo
    if len(memo) > _STATE_LIMIT:
        memo.clear()
    ceiling = len(memo) + _STATE_LIMIT
    top = handle.top_index(n_value)
    bounds = _value_bounds(handle, handle.terms(top))

    def words(m: int, value: int) -> frozenset:
        """All legal words of length m whose value is exactly ``value``."""
        key = (m, value)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) > ceiling:
            raise BudgetExceededError("grammar enumeration state limit reached")
        out: set[tuple[tuple[int, int], ...]] = set()
        if m == 0:
            if value == 0:
                out.add(())
        else:
            for head, used, longest in _heads(handle, m, value):
                rest = value - used
                for k in range(longest, -1, -1):
                    if rest > bounds[k]:
                        break  # shorter tails only get smaller
                    for tail in words(k, rest):
                        out.add(head + tail)
        memo[key] = res = frozenset(out)
        return res

    return {Decomposition(word) for word in words(top, n_value)}


def naive_oracle(
    handle: SequenceHandle, n_value: int, bound: int = DEFAULT_ORACLE_BOUND
) -> set[Decomposition]:
    """Brute force every bounded sparse map of the right value, filter by
    the legality verdict.  Small inputs only.

    All candidates share the value, hence the window alignment; the verdict
    reduces to parsing each candidate's dense word at that one alignment.
    """
    if n_value > bound:
        raise OracleBoundExceededError(f"value {n_value} exceeds oracle bound {bound}")
    if n_value < 0:
        raise ValueError("value must be >= 0")
    if n_value == 0:
        return {Decomposition()}
    top = handle.top_index(n_value)
    cap = handle.spec.max_digit
    terms = handle.terms(top)
    max_below = _value_bounds(handle, terms)
    out: set[Decomposition] = set()
    word = [0] * top

    def descend(idx: int, rest: int) -> None:
        if rest == 0:  # each level zeroes its own digit, so those below are 0
            if word_is_legal(word, handle):
                out.add(canonicalize(word, top))
            return
        if idx == 0 or rest > max_below[idx]:
            return
        g = terms[idx - 1]
        for mult in range(min(cap, rest // g), -1, -1):
            word[top - idx] = mult
            descend(idx - 1, rest - mult * g)
        word[top - idx] = 0

    descend(top, n_value)
    return out


def _windows(handle: SequenceHandle, bound: int, build: bool = True):
    """Yield, for m = 1, 2, ..., two parallel lists: the legal sparse words
    with value <= bound whose window alignment is m, and their values.  With
    ``build`` false no word is built, and the words lists stay empty.

    Each word is built once, at its own length m, into window m's lists if
    its value lies there, the tails if a longer word (adding a head worth
    >= hi) can hold it, and on deep families the filing of its value's window
    j >= m + lag, lag = s + 1, where the zero block makes it legal again.
    No list holds a word twice, so none is hashed: a non-empty length-k head
    has its top entry at k (the bare summand, every depth-0 head) or at k - s,
    and heads of one length differ at an index above both tails, so two
    lengths share only the twin ((k - s, 1),), the bare summand at k - s and
    a head with the empty tail at k, where it is only listed.  A head reading
    length-k tails reads length k - s, whose cut is no smaller, and a value k
    would file (top index >= k + lag) k - s files, as far grows with m.  A word
    filed for window j has top index <= j - lag, below every word j builds.
    Both modes pair the same heads and tails under one twin guard, cut,
    filing floor and window floors, so this covers both: a value's count in
    its window is its number of legal decompositions.
    """
    if bound < 1:
        return
    top = handle.top_index(bound)
    floors = handle.tables(bound)[1]  # window m is floors[m - 1] <= v < floors[m]
    lag = None if handle.spec.kind is Kind.PLRR else handle.spec.depth + 1
    # tail_words[k], tail_values[k]: the length-k words a longer word can still hold
    tail_words, tail_values = [[()]], [[0]]
    above: dict[int, tuple[list, list]] = {}  # window j: (words, values) filed for it
    for m in range(1, top + 1):
        lo, hi = floors[m - 1], floors[m]
        # the floors never decrease, so far <= v is m + lag <= top_index(v)
        far = floors[m + lag - 1] if lag and m + lag <= top else bound + 1
        cut = bound - hi  # a longer word adds a head worth >= hi to this one
        twin = ((m + 1 - lag, 1),) if lag else ()  # () equals no non-empty head
        words, values = above.pop(m, None) or ([], [])
        tail_words.append(tails := [])
        tail_values.append(tail_vals := [])
        for head, used, longest in _heads(handle, m, bound):
            if not head:
                continue  # the zero block: its words are filed
            if (is_twin := head == twin) and lo <= used < hi:  # the twin is only listed
                if build:
                    words.append(head)
                values.append(used)
            for k in range(is_twin, longest + 1):
                if not build:
                    for tv in tail_values[k]:
                        if (v := used + tv) > bound:
                            continue
                        if lo <= v < hi:
                            values.append(v)
                        elif v >= far:
                            above.setdefault(handle.top_index(v), ([], []))[1].append(v)
                        if v <= cut:
                            tail_vals.append(v)
                    continue
                for tail, tv in zip(tail_words[k], tail_values[k]):
                    if (v := used + tv) > bound:
                        continue
                    if lo <= v < hi:  # listed here, so below far
                        words.append(word := head + tail)
                        values.append(v)
                    elif cut < v < far:
                        continue  # read by no table
                    else:
                        word = head + tail
                        if v >= far:
                            filed = above.setdefault(handle.top_index(v), ([], []))
                            filed[0].append(word)
                            filed[1].append(v)
                    if v <= cut:
                        tails.append(word)
                        tail_vals.append(v)
        yield words, values


def decompositions_up_to(
    handle: SequenceHandle, bound: int, budget: int = DEFAULT_GRAMMAR_BUDGET
) -> dict[int, list[Decomposition]]:
    """All legal decompositions for every value 1..bound, from one sweep that lists each once."""
    if bound > budget:
        raise BudgetExceededError(f"bound {bound} exceeds enumeration budget {budget}")
    buckets: dict[int, list[Decomposition]] = {}
    for words, values in _windows(handle, bound):
        for val, decomp in zip(values, map(Decomposition, words)):
            if (found := buckets.get(val)) is None:
                buckets[val] = [decomp]
            else:
                found.append(decomp)
    return buckets


def first_nonunique(
    handle: SequenceHandle, bound: int, budget: int = DEFAULT_GRAMMAR_BUDGET
) -> tuple[int, int] | None:
    """(N, count) for the smallest 1 <= N <= bound with two or more legal
    decompositions, or None.  One values-only sweep searches 1..min(bound,
    budget) and returns at the first window whose values repeat, where a
    value's count is its number of decompositions; smaller values lie in
    earlier windows.  Raises BudgetExceededError only on no hit with bound > budget.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for _, values in _windows(handle, min(bound, budget), build=False):
        if len(set(values)) < len(values):
            return min((val, k) for val, k in Counter(values).items() if k >= 2)
    if bound > budget:
        raise BudgetExceededError(f"bound {bound} exceeds enumeration budget {budget}")
    return None


def bijection_count(handle: SequenceHandle, n: int) -> tuple[int, int]:
    """(number of legal decompositions whose top summand index is exactly n,
    G_{n+1} - G_n).  Depth-0 families only; the two numbers should agree.

    The count is ``count_accepted``'s number of legal length-n words.  A
    depth-0 word cannot open with a zero, so each of them has its top summand
    at index n.
    """
    if handle.spec.kind is not Kind.PLRR:
        raise NotPLRSError("alignment census requires a depth-0 recurrence")
    if n < 1:
        raise ValueError("alignment must be >= 1")
    return count_accepted(handle, n), handle.term(n + 1) - handle.term(n)

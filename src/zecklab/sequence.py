"""Exact sequence generation for a validated recurrence.

Terms are 1-indexed arbitrary-precision integers.  The first ``order`` terms
come from the initial-condition rules (plus the special 1,2,4,3 prefix for
the Lagonacci family); later terms follow the recurrence exactly.

The handle holds all per-family state and shares none with other handles:
the terms, window floors and value->index map, append-only and grown on
read (``term`` and ``top_index`` extend them); ``word_memo``, the words
``enumerate_legal`` has generated; and the legality automata, whose start
states it makes on first use and whose other states the walks in
``automaton`` add as they read.  Nothing else attaches state to a handle.
Reads fill the handle, so it is not thread-safe: use one handle per thread.
``tables(bound)`` returns the handle's own term list, window floors and
value->index map for loops that would call ``term``/``top_index`` per step.
Callers read those views and the automata and never write them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from functools import cached_property

from .automaton import compile_reverse_automaton
from .errors import NonProgressError
from .recurrence import Kind, RecurrenceSpec, parse_recurrence


def _prescribed_terms(spec: RecurrenceSpec) -> list[int]:
    c, s, L = spec.coefficients, spec.depth, spec.order
    if spec.is_lagonacci:
        return [1, 2, 4, 3]
    if spec.kind is Kind.PLRR:
        # H_1 = 1, then each next term is the full lower combination plus one.
        terms = [1]
        for n in range(1, L):
            terms.append(sum(c[i] * terms[n - 1 - i] for i in range(n)) + 1)
        return terms
    terms = list(range(1, s + 2))
    for n in range(s + 2, L + 1):
        if c[s] <= s:
            terms.append(n)
        else:
            terms.append(sum(c[i - 1] * terms[n - i - 1] for i in range(s + 1, n)) + 1)
    return terms


class SequenceHandle:
    """A recurrence spec plus a memoized cache of its terms."""

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        self._terms: list[int] = _prescribed_terms(spec)
        # largest index seen for each value; duplicates resolve upward
        self._index_of_value = {g: i for i, g in enumerate(self._terms, 1)}
        # window floors: _floors[m - 1] = min(G_m, G_{m+1}, ...), so the values
        # whose top index is m are exactly _floors[m - 1] <= v < _floors[m].  Each
        # term past the prefix is at least one of the ``order`` terms before it,
        # so the minimum is fixed once the cache holds G_{m+order-1}.
        L = spec.order
        self._floors = [min(self._terms[m:]) for m in range(len(self._terms) - L + 1)]
        # enumerate_legal's words: (length, value) -> frozenset of sparse words
        self.word_memo: dict[tuple[int, int], frozenset] = {}

    @classmethod
    def from_text(cls, text: str) -> "SequenceHandle":
        return cls(parse_recurrence(text))

    @property
    def has_duplicate_values(self) -> bool:
        return len(self._index_of_value) < len(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def _grow_to(self, length: int, bound: int = -1) -> None:
        """Append terms until the cache holds ``length`` terms and its last
        ``order`` terms all exceed ``bound``; the one place the tables grow."""
        terms, floors, index_of_value = self._terms, self._floors, self._index_of_value
        L = self.spec.order
        taps = [(c, -1 - i) for i, c in enumerate(self.spec.coefficients) if c]
        k = len(terms)
        while k < length or floors[-1] <= bound:
            nxt = 0
            for c, back in taps:
                nxt += c * terms[back]
            terms.append(nxt)
            k += 1
            index_of_value[nxt] = k
            floors.append(min(terms[-L:]))

    def term(self, n: int) -> int:
        """G_n, computing and caching any missing terms."""
        if n < 1:
            raise ValueError("term index must be >= 1")
        if len(self._terms) < n:
            self._grow_to(n)
        return self._terms[n - 1]

    def terms(self, count: int) -> list[int]:
        if count < 0:
            raise ValueError("count must be >= 0")
        self.term(max(count, 1))
        return self._terms[:count]

    def extend_until_exceeds(self, bound: int) -> int:
        """Grow the cache until the last ``order`` terms all exceed ``bound``.

        Beyond that point every later term exceeds the bound too, since each
        term is a non-negative combination of the previous ``order`` terms
        with at least one positive coefficient.  Returns the last index.
        """
        if bound < 0:
            raise ValueError("bound must be >= 0")
        if bound >= 1 and self.spec.coefficients == (1,):
            # constant sequence 1, 1, 1, ...: the condition can never be met
            raise NonProgressError("sequence is constant; it never exceeds 1")
        if self._floors[-1] <= bound:  # the minimum of the last ``order`` terms
            self._grow_to(0, bound)
        return len(self._terms)

    def tables(self, bound: int) -> tuple[Sequence[int], Sequence[int], Mapping[int, int]]:
        """(terms, floors, index_of_value) after ``extend_until_exceeds(bound)``:
        G_n = terms[n - 1]; for 1 <= v <= bound, ``top_index(v)`` is
        ``bisect_right(floors, v)`` and ``index_of_value(v)`` is ``.get(v)``."""
        self.extend_until_exceeds(bound)
        return self._terms, self._floors, self._index_of_value

    @cached_property
    def reverse_automaton(self):
        """``compile_reverse_automaton(spec)``: the (backward, forward) start
        states, made on first use; reads fill them, callers never write them."""
        return compile_reverse_automaton(self.spec)

    def top_index(self, n_value: int) -> int:
        """Largest index t with G_t <= value; ties resolve to the later index."""
        if n_value < 1:
            raise ValueError("value must be >= 1")
        self.extend_until_exceeds(n_value)
        return bisect_right(self._floors, n_value)

    def index_of_value(self, value: int) -> int | None:
        """Largest n with G_n == value, or None when value is not a term."""
        if value < 1:
            return None
        self.extend_until_exceeds(value)
        return self._index_of_value.get(value)

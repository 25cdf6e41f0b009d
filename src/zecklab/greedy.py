"""Greedy decomposition: one legal decomposition per target, built top down.

For a target N the algorithm anchors at the window top t = max{n: G_n <= N}
and walks the block positions i = depth+1 .. order over indices j = t+1-i,
taking full c_i copies while the remainder allows, otherwise taking
floor(remainder / G_j) < c_i copies and closing the block.  The remainder
then re-anchors at its own window, or, where the terms dip and that window
is not below the block's stop index, at the largest lower index whose term
fits.  A remainder that is a term value short-circuits to a bare summand:
after a block, at the largest matching index below the block's stop index;
for the target itself, at the largest matching index, unless that index
sits below the window top and ``is_legal`` rejects the bare summand's
leading zeros.  Otherwise the block step runs.  Each traced ``BlockStep``
(a NamedTuple) lists its block's takes as they are made.  The bare-summand
test reads only ``is_legal``'s ``.legal``, which one backward scan decides.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .legality import Decomposition, is_legal
from .sequence import SequenceHandle


class BlockStep(NamedTuple):
    """One level of the walk: either a bare summand or a block of takes."""

    kind: str  # "unit" or "block"
    anchor: int
    takes: tuple[tuple[int, int, int], ...] = ()  # (index, copies, term value)
    remainder: int = 0


def greedy_decompose(
    handle: SequenceHandle, n_value: int, trace: bool = False
) -> Decomposition | tuple[Decomposition, list[BlockStep]]:
    """Decompose ``n_value`` greedily; returns (result, steps) when asked.

    Only the constant family ``1`` raises NonProgressError, from
    ``handle.tables``: no block takes every cap and leaves a remainder.
    """
    if n_value < 0:
        raise ValueError("target must be >= 0")
    spec = handle.spec
    c, s, L = spec.coefficients, spec.depth, spec.order
    # block positions i = depth+1 .. order and caps c_i; low anchors walk fewer
    positions = [(i, c[i - 1]) for i in range(s + 1, L + 1)]
    # every remainder is <= n_value, so one extension covers every lookup
    terms, floors, index_of_value = handle.tables(n_value)
    # (index, copies) in order: each next anchor or exact term lies below the
    # last block's stop index, so the indices fall strictly
    out: list[tuple[int, int]] = []
    steps: list[BlockStep] | None = [] if trace else None
    remainder = n_value
    prev_stop: int | None = None
    while remainder > 0:
        exact = index_of_value.get(remainder)
        if exact is not None and prev_stop is not None and exact >= prev_stop:
            # a duplicated value may also sit below the stop index
            exact = next((j for j in range(prev_stop - 1, 0, -1)
                          if terms[j - 1] == remainder), None)
        elif exact is not None and prev_stop is None:
            # the target's own word: a term value below its window top leaves
            # leading zeros that the grammar may not absorb
            if exact != bisect_right(floors, remainder) and not is_legal(
                    Decomposition(((exact, 1),)), handle).legal:
                exact = None
        if exact is not None:
            out.append((exact, 1))
            if steps is not None:
                steps.append(BlockStep(kind="unit", anchor=exact, remainder=0))
            break
        anchor = bisect_right(floors, remainder)
        if prev_stop is not None and anchor >= prev_stop:
            # terms need not rise (G_18 = 27 > G_19 = 26 on 0,0,0,1,0,0,1):
            # re-anchor at the largest index below the stop whose term fits,
            # which G_1 = 1 guarantees
            anchor = next(j for j in range(prev_stop - 1, 0, -1)
                          if terms[j - 1] <= remainder)
        takes = []  # (index, copies, term value), filled only when tracing
        for i, cap in positions if anchor >= L else positions[:max(anchor - s, 0)]:
            j = anchor + 1 - i  # >= 1
            g = terms[j - 1]
            copies = remainder // g
            if copies >= cap:
                copies = cap
            if copies:
                out.append((j, copies))
                remainder -= copies * g
                if trace:
                    takes.append((j, copies, g))
            if copies < cap:
                prev_stop = j
                break
        # a block that takes every cap leaves nothing (README proves it)
        if steps is not None:
            steps.append(BlockStep(kind="block", anchor=anchor,
                                   takes=tuple(takes), remainder=remainder))
    result = Decomposition(tuple(out))
    return (result, steps) if trace else result

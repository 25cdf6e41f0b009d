"""Greedy decomposition: one legal decomposition per target, built top down.

For a target N the algorithm anchors at the window top t = max{n: G_n <= N}
and walks the block positions i = depth+1 .. order over indices j = t+1-i,
taking full c_i copies while the remainder allows, otherwise taking
floor(remainder / G_j) < c_i copies and closing the block.  The remainder
then re-anchors at its own, strictly lower window.  A remainder that is a
term value short-circuits to a bare summand: after a block, at the largest
matching index below the block's stop index; for the target itself, at the
largest matching index, unless that index sits below the window top and the
grammar rejects the leading zeros.  Otherwise the block step runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NonProgressError
from .legality import Decomposition, word_is_legal
from .sequence import SequenceHandle


@dataclass(frozen=True)
class BlockStep:
    """One level of the walk: either a bare summand or a block of takes."""

    kind: str  # "unit" or "block"
    anchor: int
    takes: tuple[tuple[int, int, int], ...] = ()  # (index, copies, term value)
    remainder: int = 0


@dataclass
class GreedyTrace:
    target: int
    steps: list[BlockStep] = field(default_factory=list)


def greedy_decompose(
    handle: SequenceHandle, n_value: int, trace: bool = False
) -> Decomposition | tuple[Decomposition, GreedyTrace]:
    """Decompose ``n_value`` greedily; returns (result, trace) when asked.

    Raises NonProgressError if a remainder fails to re-anchor strictly below
    the position where its block closed.  That is known to happen on the
    constant family ``1`` and on some values of ``0,0,0,1,0,0,1``.
    """
    if n_value < 0:
        raise ValueError("target must be >= 0")
    spec = handle.spec
    c, s, L = spec.coefficients, spec.depth, spec.order
    out: dict[int, int] = {}
    log = GreedyTrace(target=n_value)
    if n_value > 0:
        handle.extend_until_exceeds(n_value)
    remainder = n_value
    prev_stop: int | None = None
    while remainder > 0:
        exact = handle.index_of_value(remainder)
        if exact is not None and prev_stop is not None and exact >= prev_stop:
            # a duplicated value may also sit below the stop index
            exact = next((j for j in range(prev_stop - 1, 0, -1)
                          if handle.term(j) == remainder), None)
        elif exact is not None and prev_stop is None:
            # the target's own word: a term value below its window top leaves
            # leading zeros that the grammar may not absorb
            top = handle.top_index(remainder)
            if exact != top and not word_is_legal(
                    Decomposition(((exact, 1),)).dense(top), spec):
                exact = None
        if exact is not None:
            assert exact not in out
            out[exact] = 1
            log.steps.append(BlockStep(kind="unit", anchor=exact, remainder=0))
            break
        anchor = handle.top_index(remainder)
        if prev_stop is not None and anchor >= prev_stop:
            raise NonProgressError(
                f"window {anchor} of remainder {remainder} did not drop below "
                f"stop index {prev_stop}"
            )
        takes: list[tuple[int, int, int]] = []
        stopped = False
        for i in range(s + 1, L + 1):
            j = anchor + 1 - i
            if j < 1:
                break
            g = handle.term(j)
            copies = min(remainder // g, c[i - 1])
            if copies:
                assert j not in out
                out[j] = copies
                remainder -= copies * g
                takes.append((j, copies, g))
            if copies < c[i - 1]:
                prev_stop = j
                stopped = True
                break
        if not stopped:
            # every position took its full cap: only possible when the walk
            # ran out of indices below the anchor, with nothing left over
            if remainder != 0:
                raise NonProgressError(
                    f"block at anchor {anchor} consumed all positions but left {remainder}"
                )
        log.steps.append(BlockStep(kind="block", anchor=anchor,
                                   takes=tuple(takes), remainder=remainder))
    result = Decomposition.from_dict(out)
    return (result, log) if trace else result

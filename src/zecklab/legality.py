"""Decompositions and the block grammar that decides which ones are legal.

A decomposition is a sparse map from term index to positive multiplicity.
Viewed against an alignment m it becomes the dense coefficient word
a_1..a_m, where a_i multiplies G_{m+1-i}.  A word is legal when it derives
from the grammar:

* bare summand (deep families only): a_1 = 1, everything else 0;
* short full prefix: the word equals c_1..c_m with depth < m < order
  (for depth-0 families: any m < order);
* block: a_1..a_{t-1} = c_1..c_{t-1} for some t with a_t < c_t, then a gap
  of l >= 0 zeros, then a legal tail.  For depth-0 families t may be 1 but
  the leading coefficient must stay positive, and that positivity is also
  required of every tail.

The empty decomposition is legal (it represents 0).  Every entry of a legal
word lies in 0..max(c, 1); a negative entry is never legal.

``word_is_legal`` decides the grammar with the automaton that ``automaton``
compiles from these rules: one left-to-right scan per word.  The recursive
recognizer ``_suffix_witnesses`` transcribes the rules directly; it builds the
derivations ``word_derivation`` reports and is the reference the automaton
is tested against.  ``is_legal`` runs the scan first and asks the recognizer
for a derivation only when the word is legal.

A *decomposition* is judged at the alignment its value dictates: the window
top m = max{n : G_n <= value}.  The grammar itself is value-blind; pinning
the alignment to the value's window is what makes "which sums are legal for
N" well defined even for families whose early terms are not monotone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import DEAD, compile_automaton
from .errors import AlignmentTooSmallError, DecompositionTextError
from .recurrence import Kind, RecurrenceSpec
from .sequence import SequenceHandle


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Canonical sparse decomposition: ((index, multiplicity), ...) sorted by
    strictly decreasing index, multiplicities all >= 1."""

    summands: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, mapping: dict[int, int]) -> "Decomposition":
        items = []
        for idx, mult in sorted(mapping.items(), reverse=True):
            if mult < 0:
                raise ValueError(f"negative multiplicity for index {idx}")
            if idx < 1:
                raise ValueError(f"term index must be >= 1, got {idx}")
            if mult:
                items.append((idx, mult))
        return cls(tuple(items))

    def to_dict(self) -> dict[int, int]:
        return dict(self.summands)

    @property
    def max_index(self) -> int:
        """Largest used index; 0 for the empty decomposition."""
        return self.summands[0][0] if self.summands else 0

    def dense(self, alignment: int) -> list[int]:
        """Coefficient word a_1..a_alignment (a_i multiplies G_{alignment+1-i})."""
        if alignment < self.max_index:
            raise AlignmentTooSmallError(
                f"alignment {alignment} below max index {self.max_index}"
            )
        word = [0] * alignment
        for idx, mult in self.summands:
            word[alignment - idx] = mult
        return word

    def __str__(self) -> str:
        return ",".join(f"{i}:{m}" for i, m in self.summands)

    def __bool__(self) -> bool:
        return bool(self.summands)


def parse_decomposition(text: str) -> Decomposition:
    """Parse "index:mult,index:mult,..." with strictly decreasing indices."""
    if text is None or not text.strip():
        return Decomposition()
    items = []
    prev = None
    for part in text.split(","):
        piece = part.strip()
        if ":" not in piece:
            raise DecompositionTextError(f"expected index:mult, got {piece!r}")
        left, _, right = piece.partition(":")
        if not left.strip().isdigit() or not right.strip().isdigit():
            raise DecompositionTextError(f"expected index:mult, got {piece!r}")
        idx, mult = int(left), int(right)
        if idx < 1 or mult < 1:
            raise DecompositionTextError(f"index and multiplicity must be >= 1: {piece!r}")
        if prev is not None and idx >= prev:
            raise DecompositionTextError("indices must be strictly decreasing")
        prev = idx
        items.append((idx, mult))
    return Decomposition(tuple(items))


def canonicalize(vector: list[int] | tuple[int, ...], alignment: int) -> Decomposition:
    """Sparse form of a dense word at the given alignment; strips zeros."""
    mapping: dict[int, int] = {}
    for pos, entry in enumerate(vector, 1):
        if entry < 0:
            raise ValueError("vector entries must be >= 0")
        if entry:
            idx = alignment + 1 - pos
            if idx < 1:
                raise AlignmentTooSmallError(
                    f"nonzero entry at position {pos} exceeds alignment {alignment}"
                )
            mapping[idx] = entry
    return Decomposition.from_dict(mapping)


def evaluate(d: Decomposition, handle: SequenceHandle) -> int:
    """Value of the decomposition: sum of multiplicity * term."""
    return sum(mult * handle.term(idx) for idx, mult in d.summands)


@dataclass(frozen=True)
class DerivationBlock:
    """One grammar step.  ``condition`` is 1 (bare summand), 2 (full prefix)
    or 3 (block); blocks carry the drop position t, its coefficient, and the
    gap length that follows."""

    condition: int
    start: int  # 1-based word position where this step begins
    t: int | None = None
    coefficient: int | None = None
    gap: int | None = None


@dataclass(frozen=True)
class LegalityVerdict:
    legal: bool
    alignment: int
    blocks: tuple[DerivationBlock, ...] | None = None
    reason: str | None = None


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


def word_is_legal(word, spec: RecurrenceSpec) -> bool:
    """Decide the grammar on a dense coefficient word (value-blind): one scan
    of the spec's automaton.  An entry outside 0..max(c, 1) rejects the word."""
    delta, accepting = compile_automaton(spec)
    cap = len(delta[0]) - 1
    state = 0
    for d in word:
        if not 0 <= d <= cap:
            return False
        state = delta[state][d]
        if state == DEAD:
            return False
    return accepting[state]


def word_derivation(word, spec: RecurrenceSpec) -> tuple[DerivationBlock, ...] | None:
    """The derivation of a legal word, or None if it has none."""
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


def replay_derivation(
    blocks: tuple[DerivationBlock, ...], alignment: int, spec: RecurrenceSpec
) -> list[int]:
    """Rebuild the dense word a derivation describes (test/inspection aid)."""
    c = spec.coefficients
    word = [0] * alignment
    for blk in blocks:
        p = blk.start - 1
        if blk.condition == 1:
            word[p] = 1
        elif blk.condition == 2:
            for i in range(alignment - p):
                word[p + i] = c[i]
        else:
            for i in range(blk.t - 1):
                word[p + i] = c[i]
            word[p + blk.t - 1] = blk.coefficient
    return word


def window_alignment(d: Decomposition, handle: SequenceHandle) -> int:
    """Alignment at which a decomposition is judged: its value's window top."""
    value = evaluate(d, handle)
    if value == 0:
        return 0
    m = handle.top_index(value)
    assert m >= d.max_index  # value >= G_{max index}, so the window covers it
    return m


def is_legal(d: Decomposition, handle: SequenceHandle) -> LegalityVerdict:
    """Judge a decomposition against the grammar at its value's window.

    The empty decomposition is legal for 0 by definition.
    """
    if not d:
        return LegalityVerdict(legal=True, alignment=0, blocks=())
    m = window_alignment(d, handle)
    word = d.dense(m)
    spec = handle.spec
    blocks = word_derivation(word, spec) if word_is_legal(word, spec) else None
    if blocks is not None:
        return LegalityVerdict(legal=True, alignment=m, blocks=blocks)
    return LegalityVerdict(
        legal=False,
        alignment=m,
        reason=f"no grammar derivation for word {word} at window alignment {m}",
    )

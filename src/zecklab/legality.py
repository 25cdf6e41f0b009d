"""Decompositions, and the block grammar's verdict on each one.

A decomposition is a sparse map from term index to positive multiplicity.
Viewed against an alignment m it becomes the dense coefficient word
a_1..a_m, where a_i multiplies G_{m+1-i}.  A word is legal when it derives
from the grammar:

* bare summand (deep families only): a_1 = 1, everything else 0;
* short full prefix: the word equals c_1..c_m with depth < m < order;
* block: a_1..a_{t-1} = c_1..c_{t-1} for some t with a_t < c_t, then a gap
  of l >= 0 zeros, then a legal tail.  In depth-0 families a_1 must be
  positive, in every tail too.

The empty decomposition is legal (it represents 0).  Every entry of a legal
word lies in 0..max(c, 1); a negative entry is never legal.

Words are decided, derived and explained in ``automaton``, which compiles
these rules into an NFA and determinises it by subsets as the handle's
words are read; this module re-exports ``word_is_legal`` and
``word_derivation``, which take bare words.  ``is_legal``, the one judge of a
decomposition, decides its word by one backward ``word_is_legal`` scan.  Its
verdict derives a legal word (``word_derivation``) or runs an illegal one
forward (``reject_at``, so that the reason can say at which digit the
automaton dies) only when ``blocks`` or ``reason`` is first read.

A *decomposition* is judged at the alignment its value dictates: the window
top m = max{n : G_n <= value}.  The grammar itself is value-blind; pinning
the alignment to the value's window is what makes "which sums are legal for
N" well defined even for families whose early terms are not monotone.

``DerivationBlock`` is a NamedTuple, with tuple semantics: indexing,
unpacking, equality with an equal plain tuple.  ``LegalityVerdict`` is a small
class, since it builds two of its attributes on first read.
``Decomposition`` is a small immutable class, equal only to another
Decomposition and never a tuple, so that greedy's ``(result, steps)`` pair is
told from a bare result by ``isinstance(result, tuple)``.
"""

from __future__ import annotations

from .automaton import DerivationBlock, reject_at, word_derivation, word_is_legal
from .errors import AlignmentTooSmallError, DecompositionTextError
from .recurrence import RecurrenceSpec
from .sequence import SequenceHandle


class Decomposition:
    """Canonical sparse decomposition: ((index, multiplicity), ...) sorted by
    strictly decreasing index, multiplicities all >= 1.  Immutable, hashable,
    and equal only to a Decomposition with the same summands."""

    __slots__ = ("summands",)
    __match_args__ = ("summands",)

    def __init__(self, summands: tuple[tuple[int, int], ...] = ()):
        _set_summands(self, summands)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.summands == other.summands

    def __hash__(self) -> int:
        return hash((self.summands,))

    def __reduce__(self):
        return self.__class__, (self.summands,)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(summands={self.summands!r})"

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


# the slot's member descriptor sets it past the class's own __setattr__
_set_summands = Decomposition.summands.__set__


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
        left, _, right = (t.strip() for t in piece.partition(":"))
        if not all(t.isascii() and t.isdigit() for t in (left, right)):
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
    summands = []  # indices fall as positions rise, so already in canonical order
    for pos, entry in enumerate(vector, 1):
        if entry < 0:
            raise ValueError("vector entries must be >= 0")
        if entry:
            idx = alignment + 1 - pos
            if idx < 1:
                raise AlignmentTooSmallError(
                    f"nonzero entry at position {pos} exceeds alignment {alignment}"
                )
            summands.append((idx, entry))
    return Decomposition(tuple(summands))


def evaluate(d: Decomposition, handle: SequenceHandle) -> int:
    """Value of the decomposition: sum of multiplicity * term."""
    handle.term(max(d.max_index, 1))  # grows the handle's own list, read in place
    terms = handle.tables(0)[0]
    total = 0
    for idx, mult in d.summands:
        total += mult * terms[idx - 1]
    return total


class LegalityVerdict:
    """Whether a decomposition is legal at ``alignment``, its derivation
    ``blocks`` (None when illegal) and the ``reason`` it is not (None when
    legal).  A verdict of ``is_legal`` holds the judged decomposition and
    handle, builds ``blocks`` or ``reason`` from them on first read and keeps
    it, so it belongs to its handle's thread."""

    __slots__ = ("legal", "alignment", "_blocks", "_reason", "_judged")

    def __init__(self, legal: bool, alignment: int,
                 blocks: tuple[DerivationBlock, ...] | None = None, reason: str | None = None):
        self.legal, self.alignment, self._blocks, self._reason = legal, alignment, blocks, reason
        self._judged = None  # (decomposition, handle), set by is_legal

    @property
    def blocks(self) -> tuple[DerivationBlock, ...] | None:
        if self._blocks is None and self.legal and self._judged:
            d, handle = self._judged
            self._blocks = word_derivation(d.dense(self.alignment), handle)
        return self._blocks

    @property
    def reason(self) -> str | None:
        if self._reason is None and not self.legal and self._judged:
            (d, handle), m = self._judged, self.alignment
            word = d.dense(m)
            at = reject_at(word, handle)  # <= m: the word has a nonzero digit
            self._reason = (f"no grammar derivation for word {word} at window alignment {m}: "
                            f"the automaton dies at position {at} on digit {word[at - 1]}")
        return self._reason


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
    """Judge a decomposition against the grammar at its value's window by one
    ``word_is_legal`` scan; the verdict derives a legal word, or runs an
    illegal one through ``reject_at``, only when its caller reads ``blocks``
    or ``reason``.  The empty decomposition is legal for 0.
    """
    if not d:
        return LegalityVerdict(legal=True, alignment=0, blocks=())
    m = window_alignment(d, handle)
    verdict = LegalityVerdict(word_is_legal(d.dense(m), handle), m)
    verdict._judged = d, handle
    return verdict

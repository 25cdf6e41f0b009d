"""Every documented input error: its class and its message."""

import pytest

from zecklab import (
    Decomposition,
    SequenceHandle,
    bijection_count,
    canonicalize,
    case1_slack_closed_form,
    enumerate_legal,
    expand_grid,
    first_nonunique,
    greedy_decompose,
    naive_oracle,
    window_alignment,
)
from zecklab.errors import NotApplicableError


@pytest.mark.parametrize("call, error, message", [
    (lambda h: enumerate_legal(h, -1), ValueError, "value must be >= 0"),
    (lambda h: naive_oracle(h, -1), ValueError, "value must be >= 0"),
    (lambda h: first_nonunique(h, 0), ValueError, "bound must be >= 1"),
    (lambda h: bijection_count(SequenceHandle.from_text("1,1"), 0), ValueError,
     "alignment must be >= 1"),
    (lambda h: greedy_decompose(h, -1), ValueError, "target must be >= 0"),
    (lambda h: Decomposition.from_dict({2: -1}), ValueError,
     "negative multiplicity for index 2"),
    (lambda h: Decomposition.from_dict({0: 1}), ValueError, "term index must be >= 1, got 0"),
    (lambda h: canonicalize([1, -1], 2), ValueError, "vector entries must be >= 0"),
    (lambda h: h.term(0), ValueError, "term index must be >= 1"),
    (lambda h: h.terms(-1), ValueError, "count must be >= 0"),
    (lambda h: h.extend_until_exceeds(-1), ValueError, "bound must be >= 0"),
    # the window floors' reader: tables(bound)[1]
    (lambda h: h.tables(-1), ValueError, "bound must be >= 0"),
    (lambda h: case1_slack_closed_form(SequenceHandle.from_text("0,2,1,2")),
     NotApplicableError, "closed form only covers order = depth + 2"),
    # a range is named, not listed
    (lambda h: expand_grid(range(-1, 10**6), [1], 1), ValueError,
     "depths must be >= 0, got range(-1, 1000000)"),
], ids=["enumerate_legal", "naive_oracle", "first_nonunique", "bijection_count",
        "greedy_decompose", "from_dict-multiplicity", "from_dict-index", "canonicalize",
        "term", "terms", "extend_until_exceeds", "tables", "case1_slack_closed_form",
        "expand_grid"])
def test_input_error(call, error, message, handles):
    with pytest.raises(error) as exc:
        call(handles("0,2,2"))
    assert str(exc.value) == message


def test_the_empty_decomposition_is_judged_at_alignment_0(handles):
    assert window_alignment(Decomposition(), handles("0,2,2")) == 0

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from zecklab import construction_applies, parse_recurrence
from zecklab.errors import (
    AllZeroError,
    DegenerateError,
    EmptyInputError,
    NonIntegerTokenError,
    RecurrenceError,
    TrailingZeroError,
)


def test_parse_deep_family():
    spec = parse_recurrence("0,2,2")
    assert spec.depth == 1
    assert spec.order == 3
    assert spec.lead == 2
    assert spec.max_digit == 2


def test_parse_positive_family():
    spec = parse_recurrence("1,1")
    assert spec.depth == 0
    assert spec.order == 2
    assert spec.lead == 1


def test_parse_tolerates_spaces():
    assert parse_recurrence(" 0 , 2 , 2 ").coefficients == (0, 2, 2)


def test_parse_single_coefficient():
    spec = parse_recurrence("2")
    assert spec.depth == 0
    assert spec.order == 1


@pytest.mark.parametrize(
    "text,err",
    [
        ("", EmptyInputError),
        ("   ", EmptyInputError),
        ("0,a,2", NonIntegerTokenError),
        ("-1,2", NonIntegerTokenError),
        ("1.5", NonIntegerTokenError),
        ("0,²,2", NonIntegerTokenError),
        ("1,①", NonIntegerTokenError),
        ("0,٢,2", NonIntegerTokenError),
        ("0,2,0", TrailingZeroError),
        ("0,0,0", AllZeroError),
        ("0,1,0,1", DegenerateError),
        ("0,2", DegenerateError),
        ("0,1,1", None),
    ],
)
def test_parse_errors(text, err):
    if err is None:
        parse_recurrence(text)
    else:
        with pytest.raises(err):
            parse_recurrence(text)


def test_singleton_support_above_one_is_degenerate():
    with pytest.raises(DegenerateError):
        parse_recurrence("0,3")  # support {2}


def test_classify_construction_family():
    assert construction_applies(parse_recurrence("0,2,1,2"))


def test_classify_lagonacci():
    # lead 1 does not exceed depth 1
    assert not construction_applies(parse_recurrence("0,1,1"))


def test_classify_conjectured_unique_shape():
    # lead 1 does not exceed depth 2
    assert not construction_applies(parse_recurrence("0,0,1,4"))


def test_classify_depth_zero_never_flagged():
    # depth-0 families are provably unique; the deep-family statements
    # do not apply to them even when the raw inequalities hold
    assert not construction_applies(parse_recurrence("2,1,2"))


def test_construction_implies_lead_exceeds_depth():
    for text in ["0,2,2", "0,2,1,2", "0,0,3,1,2", "0,3,1", "0,1,1"]:
        spec = parse_recurrence(text)
        if construction_applies(spec):
            assert spec.depth >= 1 and spec.lead > spec.depth


@st.composite
def valid_coefficients(draw):
    depth = draw(st.integers(0, 3))
    span = draw(st.integers(1, 4))
    body = [draw(st.integers(1, 5))]
    for _ in range(span - 2):
        body.append(draw(st.integers(0, 5)))
    if span > 1:
        body.append(draw(st.integers(1, 5)))
    coeffs = (0,) * depth + tuple(body)
    support = [i for i, c in enumerate(coeffs, 1) if c]
    if math.gcd(*support) != 1:
        coeffs = None
    return coeffs


@given(valid_coefficients())
def test_parse_round_trip(coeffs):
    if coeffs is None:
        return
    text = ",".join(map(str, coeffs))
    spec = parse_recurrence(text)
    assert spec.coefficients == coeffs
    assert spec.text == text
    assert parse_recurrence(spec.text) == spec
    assert spec.depth == next(i for i, c in enumerate(coeffs) if c)
    assert spec.lead > 0


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_parse_accepts_exactly_the_valid_vectors(raw):
    text = ",".join(map(str, raw))
    valid = (
        any(raw)
        and raw[-1] != 0
        and math.gcd(*[i for i, c in enumerate(raw, 1) if c]) == 1
    )
    if valid:
        assert parse_recurrence(text).coefficients == tuple(raw)
    else:
        with pytest.raises(RecurrenceError):
            parse_recurrence(text)


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command pays for the import; these two modules cost it about 20 ms
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; import zecklab; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_public_namespace_is_exactly_all():
    # every exported name resolves, and a star import binds exactly them
    import zecklab
    assert all(hasattr(zecklab, name) for name in zecklab.__all__)
    assert len(set(zecklab.__all__)) == len(zecklab.__all__)
    namespace: dict = {}
    exec("from zecklab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(zecklab.__all__)


def test_spec_is_a_named_tuple():
    spec = parse_recurrence("0,2,2")
    coefficients, depth, order = spec
    assert (coefficients, depth, order) == ((0, 2, 2), 1, 3)
    assert spec[2] == order == 3
    assert spec == tuple(spec) and hash(spec) == hash(tuple(spec))
    assert repr(spec) == "RecurrenceSpec(coefficients=(0, 2, 2), depth=1, order=3)"

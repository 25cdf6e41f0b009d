import copy
import pickle
import re

import pytest

from zecklab import (
    CSV_HEADER,
    CounterexampleReport,
    Decomposition,
    ExperimentRecord,
    LegalityVerdict,
    SequenceHandle,
    case1_slack_closed_form,
    construct_counterexample,
    construction_applies,
    construction_slack,
    enumerate_legal,
    evaluate,
    expand_grid,
    first_nonunique,
    greedy_decompose,
    is_legal,
    parse_recurrence,
    probe_family,
    verify_uniqueness_range,
)
from zecklab import uniqueness
from zecklab.errors import (
    BudgetExceededError,
    ConstructionFailedError,
    NonProgressError,
    NotApplicableError,
)


def test_slack_value_for_0_2_2(handles):
    # G_6 - 2 G_5 - G_4 = 18 - 20 - 6
    assert construction_slack(handles("0,2,2")) == -8
    assert case1_slack_closed_form(handles("0,2,2")) == -8


def test_slack_negative_for_0_2_1_2(handles):
    assert construction_slack(handles("0,2,1,2")) < 0


def test_slack_not_applicable_for_lagonacci(handles):
    with pytest.raises(NotApplicableError):
        construction_slack(handles("0,1,1"))


def test_slack_not_applicable_for_depth_zero(handles):
    with pytest.raises(NotApplicableError):
        construction_slack(handles("2,1,2"))


def grid_specs(depths, spans, c_max):
    texts, _ = expand_grid(depths, spans, c_max)
    return texts


def test_slack_negative_across_small_grid():
    for text in grid_specs(range(1, 3), range(2, 4), 3):
        spec = parse_recurrence(text)
        if not construction_applies(spec):
            continue
        h = SequenceHandle(spec)
        slack = construction_slack(h)
        assert slack < 0, (text, slack)
        if spec.order == spec.depth + 2:
            assert slack == case1_slack_closed_form(h)


def test_construction_on_example_family(handles):
    """The constructed target sits in its window and its primary
    decomposition is legal; the construction's direct second candidate fails the
    grammar, and for this family no other decomposition of N exists, which
    the error reports in full."""
    h = handles("0,2,1,2")
    with pytest.raises(ConstructionFailedError) as exc_info:
        construct_counterexample(h)
    diag = exc_info.value.diagnostics
    assert diag["x"] == 1
    # N = 2 G_6 + G_5 + G_4 + 1
    assert diag["n_value"] == 2 * h.term(6) + h.term(5) + h.term(4) + 1 == 55
    assert diag["window_ok"]
    assert diag["decompA_legal"]
    assert not diag["direct_candidate_legal"]
    assert diag["count_at_n"] == 1
    assert diag["decompA"] == "6:2,5:1,4:1,1:1"
    assert diag["direct_candidate"] == "6:2,5:1,3:2,1:1"


def test_construction_degenerate_prefix_family(handles):
    # order = depth + 2: the fixed prefix reduces to a single coefficient
    h = handles("0,2,2")
    with pytest.raises(ConstructionFailedError) as exc_info:
        construct_counterexample(h)
    diag = exc_info.value.diagnostics
    assert diag["n_value"] == 2 * h.term(5) + h.term(4) + 1 == 27
    assert diag["window_ok"]
    assert diag["decompA_legal"]


def test_construction_fails_the_same_way_on_every_applicable_family():
    # criterion 8's finding: the primary decomposition is legal and is N's only
    # one, and the direct second candidate dies at word position L+s on a
    # non-zero digit
    failures = 0
    for text in grid_specs(range(0, 4), range(1, 5), 4):
        h = SequenceHandle(parse_recurrence(text))
        if not construction_applies(h.spec):
            continue
        with pytest.raises(ConstructionFailedError) as exc_info:
            construct_counterexample(h)
        diag = exc_info.value.diagnostics
        assert diag["decompA_legal"] and diag["count_at_n"] == 1, text
        death = re.search(r"dies at position (\d+) on digit (\d+)$",
                          diag["direct_candidate_reason"])
        assert death and int(death[1]) == h.spec.order + h.spec.depth, text
        assert int(death[2]) != 0, text
        failures += 1
    assert failures == 450


def test_probe_family_notes_a_second_decomposition_found_by_enumeration(monkeypatch):
    # no grid family verifies, so a stub stands in for the success path
    report = CounterexampleReport(27, 1, None, None, True, 2, False, None)
    monkeypatch.setattr(uniqueness, "construct_counterexample", lambda h, budget: report)
    [rec] = probe_family(["0,2,2"], bound=50)
    rec.elapsed_ms = 0
    assert rec == ExperimentRecord(
        "0,2,2", 1, 3, 50, 2, 2, -8, 27, "ok", 0,
        "second decomposition found by enumeration")


def test_construction_not_applicable(handles):
    with pytest.raises(NotApplicableError):
        construct_counterexample(handles("0,1,1"))


def test_verify_uniqueness_range_lagonacci(handles):
    report = verify_uniqueness_range(handles("0,1,1"), 100)
    assert not report.all_unique
    assert report.violation == (7, 2)
    assert [str(d) for d in report.witnesses] == ["5:1,1:1", "6:1"]


def test_verify_uniqueness_range_fibonacci(handles):
    report = verify_uniqueness_range(handles("1,1"), 1000)
    assert report.all_unique


def test_conjectured_unique_family_fails_at_four(handles):
    # the (0,0,1,c) family conjectured unique is not, under this grammar:
    # c_3 G_2 + 2 G_1 = 4 = G_4 gives two legal decompositions
    report = verify_uniqueness_range(handles("0,0,1,4"), 100)
    assert report.violation == (4, 2)
    assert [str(d) for d in report.witnesses] == ["2:1,1:2", "4:1"]
    for d in report.witnesses:
        assert evaluate(d, handles("0,0,1,4")) == 4
        assert is_legal(d, handles("0,0,1,4")).legal


def test_expand_grid_skips_degenerate_points():
    texts, skipped = expand_grid([1], [3], 2)
    assert all("0," in t for t in texts)
    assert any("0,1,0,1" in note for note in skipped)
    for t in texts:
        parse_recurrence(t)


@pytest.mark.parametrize("depths, spans, c_max, points", [
    ([1, 2], [2, 3], 3, 90), ([0, 1], [1, 2], 2, 12), ([1, 3], [1, 2, 3, 4], 2, 108)])
def test_expand_grid_counts_its_points_before_listing_them(depths, spans, c_max, points):
    texts, skipped = expand_grid(depths, spans, c_max, limit=points)
    assert len(texts) + len(skipped) == points
    with pytest.raises(BudgetExceededError, match=f"grid of {points} points exceeds limit"):
        expand_grid(depths, spans, c_max, limit=points - 1)


@pytest.mark.parametrize("spans", [
    range(1, 2), range(1, 7), range(2, 7), range(4, 9), range(3, 3), [1, 3, 5], [2, 2, 6]])
@pytest.mark.parametrize("c_max", [0, 1, 2, 5])
def test_expand_grid_counts_a_span_range_in_closed_form(spans, c_max):
    # a range of spans is counted by a geometric sum: it equals the sum per span
    per_span = sum(c_max if span == 1 else c_max**2 * (c_max + 1) ** (span - 2)
                   for span in spans)
    points = 3 * per_span
    with pytest.raises(BudgetExceededError, match=f"grid of {points} points exceeds limit"):
        expand_grid(range(3), spans, c_max, limit=points - 1)
    if points <= 2000:
        texts, skipped = expand_grid(range(3), spans, c_max, limit=points)
        assert len(texts) + len(skipped) == points


@pytest.mark.parametrize("depths, spans", [(range(-1, 0), [2]), ([1], range(0, 3))])
def test_expand_grid_rejects_negative_depths_and_empty_spans(depths, spans):
    with pytest.raises(ValueError):
        expand_grid(depths, spans, 2)


def test_probe_family_records():
    records = probe_family(["0,2,2", "0,1,1", "1,1"], bound=200)
    by_rec = {r.recurrence: r for r in records}
    lag = by_rec["0,1,1"]
    assert (lag.first_nonunique_n, lag.count_at_n) == (7, 2)
    assert lag.slack is None and lag.status == "ok"
    fib = by_rec["1,1"]
    assert fib.first_nonunique_n is None and fib.status == "ok"
    deep = by_rec["0,2,2"]
    assert deep.first_nonunique_n == 2
    assert deep.slack == -8
    # the construction is attempted and its verification failure is embedded
    assert deep.status == "inconsistent"
    assert deep.counterexample_n == 27
    assert all(r.elapsed_ms >= 0 for r in records)


def test_experiment_record_keeps_the_dataclass_behaviour():
    rec = ExperimentRecord("0,2,2", 1, 3, 100)
    assert rec == ExperimentRecord(
        recurrence="0,2,2", s=1, L=3, bound=100, first_nonunique_n=None,
        count_at_n=None, slack=None, counterexample_n=None, status="ok",
        elapsed_ms=0, note="")
    assert repr(rec) == (
        "ExperimentRecord(recurrence='0,2,2', s=1, L=3, bound=100, "
        "first_nonunique_n=None, count_at_n=None, slack=None, counterexample_n=None, "
        "status='ok', elapsed_ms=0, note='')")
    rec.count_at_n = 2
    assert rec.count_at_n == 2 and rec != ExperimentRecord("0,2,2", 1, 3, 100)
    with pytest.raises(TypeError):
        hash(rec)
    full = ExperimentRecord("0,2,2", 1, 3, 100, 2, 3, -8, 27, "inconsistent", 5, "a note")
    assert dict(zip(CSV_HEADER.split(","), full.csv_cells(), strict=True)) == {
        "recurrence": "0,2,2", "s": "1", "L": "3", "bound": "100",
        "first_nonunique_N": "2", "count_at_N": "3", "lemma22": "-8",
        "counterexample_N": "27", "status": "inconsistent", "elapsed_ms": "5"}
    assert rec.csv_cells() == ["0,2,2", "1", "3", "100", "", "2", "", "", "ok", "0"]


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda rec: pickle.loads(pickle.dumps(rec))])
def test_experiment_record_copies_pickles_and_amends(clone):
    full = ExperimentRecord("0,2,2", 1, 3, 100, 2, 2, -8, 27, "inconsistent", 5, "a note")
    twin = clone(full)
    assert twin == full and twin is not full and type(twin) is ExperimentRecord
    twin.count_at_n = 3  # the bench plants a wrong count this way
    assert twin.count_at_n == 3 and twin != full
    twin.count_at_n = full.count_at_n
    assert twin == full
    # an extra attribute is kept by a copy, but never reaches the CSV row
    twin.extra = "not a column"
    assert clone(twin).extra == "not a column"
    assert twin.csv_cells() == full.csv_cells() == [
        "0,2,2", "1", "3", "100", "2", "2", "-8", "27", "inconsistent", "5"]


def test_probe_never_aborts_on_errors():
    records = probe_family(["0,2,1,2"], bound=50)
    assert len(records) == 1
    assert records[0].status in {"ok", "inconsistent"}


def test_probe_family_raises_for_the_constant_family():
    # only budget overruns and failed constructions become statuses; the CLI
    # probes one family at a time and keeps the other rows
    with pytest.raises(NonProgressError, match="sequence is constant"):
        probe_family(["1"], bound=50)


def test_every_offset_below_x_cap_fails_the_direct_candidate():
    # criterion 8's lemma for every offset x = 1..x_cap-1 (README): N(x) lies in
    # the window, the direct candidate prefix + greedy(G_{s+3}+x) dies at word
    # position L+s on a nonzero digit, and every legal decomposition of N(x)
    # is the prefix and G_{s+3} over a decomposition worth x; each legal
    # decomposition of x lifts to one of N(x)
    pairs = nonunique = 0
    for text in grid_specs(range(0, 4), range(1, 5), 4):
        h = SequenceHandle(parse_recurrence(text))
        if not construction_applies(h.spec):
            continue
        s, L = h.spec.depth, h.spec.order
        g_s3 = h.term(s + 3)
        x_cap = min(g_s3, h.term(s + 4) - g_s3)
        assert x_cap >= 3, text  # the proof in README
        prefix = uniqueness._prefix(h.spec)
        fixed = {**prefix, s + 3: 1}
        base = sum(mult * h.term(idx) for idx, mult in fixed.items())
        first = None
        for x in range(1, x_cap):
            assert h.term(L + s + 2) < base + x < h.term(L + s + 3), (text, x)
            # greedy(G_{s+3}+x) stays below G_{s+4}, under the prefix
            candidate = Decomposition.from_dict(prefix | greedy_decompose(h, g_s3 + x).to_dict())
            assert evaluate(candidate, h) == base + x, (text, x)
            verdict = is_legal(candidate, h)
            death = re.search(r"dies at position (\d+) on digit (\d+)$", verdict.reason)
            assert not verdict.legal and int(death[1]) == L + s and int(death[2]), (text, x)
            rests = set()
            for d in enumerate_legal(h, base + x):
                assert {i: m for i, m in d.summands if i >= s + 3} == fixed, (text, x, d)
                rests.add(Decomposition(tuple((i, m) for i, m in d.summands if i < s + 3)))
            assert enumerate_legal(h, x) <= rests, (text, x)
            pairs += 1
            if len(rests) >= 2:
                nonunique += x >= 2
                first = first or x
        # x = 2 is the first non-unique offset, and s + 1 <= x_cap the family's
        # first non-unique value
        assert first == 2 and first_nonunique(h, x_cap) == (s + 1, 2), text
    assert (pairs, nonunique) == (3405, 1488)


def test_construction_refuses_sums_that_miss_n(monkeypatch, handles):
    real = uniqueness.greedy_decompose
    monkeypatch.setattr(uniqueness, "greedy_decompose", lambda h, n: real(h, n + 1))
    with pytest.raises(ConstructionFailedError, match="constructed sums do not evaluate to N"):
        construct_counterexample(handles("0,2,2"))


def test_construction_refuses_a_rejected_primary(monkeypatch, handles):
    real = uniqueness.is_legal
    monkeypatch.setattr(uniqueness, "is_legal", lambda d, h: LegalityVerdict(
        legal=False, alignment=real(d, h).alignment))
    with pytest.raises(ConstructionFailedError, match="primary decomposition or window") as exc:
        construct_counterexample(handles("0,2,2"))
    assert exc.value.diagnostics["decompA_legal"] is False


def test_construction_reports_a_second_decomposition_from_the_enumeration(monkeypatch, handles):
    # no grid family has one at x = 1, so the enumeration is stubbed
    a, b = Decomposition.from_dict({5: 2, 4: 1, 1: 1}), Decomposition.from_dict({5: 2, 4: 1, 2: 1})
    monkeypatch.setattr(uniqueness, "enumerate_legal", lambda h, n, budget: {a, b})
    assert construct_counterexample(handles("0,2,2")) == CounterexampleReport(
        n_value=27, x=1, decompA=a, decompB=b, window_ok=True, count_at_n=2,
        direct_pair_legal=False, direct_candidate=Decomposition.from_dict({5: 2, 3: 2, 1: 1}))

import csv
import io
import json
import sys
import tracemalloc

import pytest

from zecklab import cli
from zecklab.cli import MAX_INDEX, main
from zecklab.legality import parse_decomposition
from zecklab.sequence import SequenceHandle
from zecklab.uniqueness import CounterexampleReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NOT_APPLICABLE = ("not applicable: 0,1,1: construction needs a deep family with lead > "
                  "depth, positive second coefficient and last coefficient > 1\n")
CONSTRUCTION_FAILED = "".join(f"{line}\n" for line in [
    "construction failed: N = 27 admits no second legal decomposition (count = 1)",
    "  count_at_n: 1",
    "  decompA: 5:2,4:1,1:1",
    "  decompA_legal: True",
    "  direct_candidate: 5:2,3:2,1:1",
    "  direct_candidate_legal: False",
    "  direct_candidate_reason: no grammar derivation for word [0, 2, 0, 2, 0, 1] at "
    "window alignment 6: the automaton dies at position 4 on digit 2",
    "  legal_decompositions: ['5:2,4:1,1:1']",
    "  n_value: 27",
    "  recurrence: 0,2,2",
    "  window: (18, 32)",
    "  window_ok: True",
    "  x: 1",
    "  x_cap: 4",
])
SUMMANDS_164 = ('"summands": [{"index": 8, "mult": 2, "value": "56"}, '
                '{"index": 7, "mult": 1, "value": "32"}, '
                '{"index": 5, "mult": 2, "value": "10"}]')
BANNER = "=" * 60 + "\n"

# (command line, exit code, stdout, stderr), each pinned byte for byte
GOLDEN = [
    ("seq --rec 0,0,1,1 --count 8", 0, "1 2 3 4 3 5 7 7\n",
     "note: the sequence repeats a value at two indices\n"),
    ("seq --rec 0,0,1,1 --count 8 --json", 0,
     '{"recurrence": "0,0,1,1", "terms": ["1", "2", "3", "4", "3", "5", "7", "7"], '
     '"duplicate_values": true}\n', ""),
    ("seq --rec 0,1,1 --count 9", 0, "1 2 4 3 6 7 9 13 16\n", ""),
    ("decompose --rec 0,2,2 --n 164", 0,
     "164 = 2*G_8(56) + 1*G_7(32) + 2*G_5(10)  [legal]\n", ""),
    ("decompose --rec 0,2,2 --n 164 --json", 0,
     '{"n": "164", ' + SUMMANDS_164 + ', "legal": true}\n', ""),
    ("decompose --rec 0,2,2 --n 164 --trace", 0,
     "164 = 2*G_8(56) + 1*G_7(32) + 2*G_5(10)  [legal]\n"
     "  anchor 9: took 2*G_8(56), 1*G_7(32); remainder 20\n"
     "  anchor 6: took 2*G_5(10); remainder 0\n", ""),
    ("decompose --rec 0,2,2 --n 164 --trace --json", 0,
     '{"n": "164", ' + SUMMANDS_164 + ', "legal": true, "trace": ['
     '{"kind": "block", "anchor": 9, "takes": [{"index": 8, "copies": 2, "value": "56"}, '
     '{"index": 7, "copies": 1, "value": "32"}], "remainder": "20"}, '
     '{"kind": "block", "anchor": 6, "takes": [{"index": 5, "copies": 2, "value": "10"}], '
     '"remainder": "0"}]}\n', ""),
    ("decompose --rec 0,1,1 --n 0", 0, "0 = 0  [legal]\n", ""),
    ("decompose --rec 0,1,1 --n 0 --json", 0,
     '{"n": "0", "summands": [], "legal": true}\n', ""),
    ("decompose --rec 1,1 --n 13 --trace", 0,
     "13 = 1*G_6(13)  [legal]\n  exact term: G_6\n", ""),
    ("decompose --rec 1,1 --n 13 --trace --json", 0,
     '{"n": "13", "summands": [{"index": 6, "mult": 1, "value": "13"}], "legal": true, '
     '"trace": [{"kind": "unit", "anchor": 6, "takes": [], "remainder": "0"}]}\n', ""),
    ("check --rec 0,2,2 --decomp 8:2,7:1,5:2", 0,
     "value 164, alignment 9: legal\n"
     "  condition 3 at position 1 t=3 coeff=1 gap=0\n"
     "  condition 3 at position 4 t=3 coeff=0 gap=3\n", ""),
    ("check --rec 0,2,2 --decomp 8:2,7:1,5:2 --json", 0,
     '{"decomposition": "8:2,7:1,5:2", "value": "164", "legal": true, "alignment": 9, '
     '"derivation": [{"condition": 3, "start": 1, "t": 3, "coefficient": 1, "gap": 0}, '
     '{"condition": 3, "start": 4, "t": 3, "coefficient": 0, "gap": 3}]}\n', ""),
    ("check --rec 0,1,1 --decomp 5:1,3:1", 0,
     "value 10, alignment 7: illegal\n"
     "  no grammar derivation for word [0, 0, 1, 0, 1, 0, 0] at window alignment 7: "
     "the automaton dies at position 5 on digit 1\n", ""),
    ("check --rec 0,1,1 --decomp 5:1,3:1 --json", 0,
     '{"decomposition": "5:1,3:1", "value": "10", "legal": false, "alignment": 7, '
     '"reason": "no grammar derivation for word [0, 0, 1, 0, 1, 0, 0] at window '
     'alignment 7: the automaton dies at position 5 on digit 1"}\n', ""),
    ("check --rec 0,1,1 --decomp=", 0, "value 0, alignment 0: legal\n", ""),
    ("check --rec 0,1,1 --decomp= --json", 0,
     '{"decomposition": "", "value": "0", "legal": true, "alignment": 0, '
     '"derivation": []}\n', ""),
    ("check --rec 0,0,1,4 --decomp 4:1", 0,
     "value 4, alignment 4: legal\n  condition 1 at position 1\n", ""),
    ("check --rec 0,0,1,4 --decomp 4:1 --json", 0,
     '{"decomposition": "4:1", "value": "4", "legal": true, "alignment": 4, '
     '"derivation": [{"condition": 1, "start": 1}]}\n', ""),
    ("check --rec 0,0 --decomp 5:1,7:2", 1, "",
     "invalid recurrence: all coefficients are zero\n"),
    ("check --rec 0,0 --decomp 1:1 --json", 1,
     '{"error": "invalid recurrence", "reason": "all coefficients are zero", '
     '"diagnostics": {}}\n', ""),
    ("check --rec 0,2,2 --decomp 5:1,7:2", 2, "",
     "invalid decomposition: indices must be strictly decreasing\n"),
    ("check --rec 0,2,2 --decomp 5:1,7:2 --json", 2,
     '{"error": "invalid decomposition", "reason": "indices must be strictly decreasing", '
     '"diagnostics": {}}\n', ""),
    ("enumerate --rec 0,1,1 --n 7", 0,
     "2 legal decomposition(s) of 7\n  5:1,1:1\n  6:1\n", ""),
    ("enumerate --rec 0,1,1 --n 7 --json", 0,
     '{"n": "7", "count": 2, "decompositions": ["5:1,1:1", "6:1"]}\n', ""),
    ("enumerate --rec 0,1,1 --n 7 --oracle", 0,
     "2 legal decomposition(s) of 7\n  5:1,1:1\n  6:1\n", ""),
    ("enumerate --rec 0,1,1 --n 7 --oracle --json", 0,
     '{"n": "7", "count": 2, "decompositions": ["5:1,1:1", "6:1"]}\n', ""),
    ("enumerate --rec 0,1,1 --n 0", 0, "1 legal decomposition(s) of 0\n  (empty)\n", ""),
    ("scan --rec 1,1 --max 50", 0, "no value in 1..50 has two legal decompositions\n", ""),
    ("scan --rec 1,1 --max 50 --mode unique --expect-find", 3,
     "all values 1..50 have a unique legal decomposition\n", ""),
    ("scan --rec 0,1,1 --max 100", 0, "N=7 has 2 decompositions: 5:1,1:1; 6:1\n", ""),
    ("scan --rec 0,0,1,4 --max 50 --mode unique", 0,
     BANNER + "RESEARCH FINDING: uniqueness fails for 0,0,1,4 at N=4 (2 decompositions)\n"
     "  2:1,1:2\n  4:1\n" + BANNER, ""),
    ("lemma22 --rec 0,2,2", 0, "slack = -8 (negative as required)\nclosed form check: -8\n", ""),
    ("lemma22 --rec 0,2,1,2", 0, "slack = -22 (negative as required)\n", ""),
    ("lemma22 --rec 0,1,1", 0, NOT_APPLICABLE, ""),
    ("counterexample --rec 0,1,1", 0, NOT_APPLICABLE, ""),
    ("counterexample --rec 0,1,1 --json", 0,
     '{"applicable": false, "reason": "0,1,1: construction needs a deep family with lead > '
     'depth, positive second coefficient and last coefficient > 1"}\n', ""),
    ("counterexample --rec 0,2,2", 4, "", CONSTRUCTION_FAILED),
    ("counterexample --rec 0,2,2 --json", 4,
     '{"error": "construction failed", "reason": "N = 27 admits no second legal '
     'decomposition (count = 1)", "diagnostics": {"count_at_n": "1", '
     '"decompA": "5:2,4:1,1:1", "decompA_legal": true, "direct_candidate": "5:2,3:2,1:1", '
     '"direct_candidate_legal": false, "direct_candidate_reason": "no grammar derivation '
     'for word [0, 2, 0, 2, 0, 1] at window alignment 6: the automaton dies at position 4 '
     'on digit 2", "legal_decompositions": ["5:2,4:1,1:1"], "n_value": "27", '
     '"recurrence": "0,2,2", "window": ["18", "32"], "window_ok": true, "x": "1", '
     '"x_cap": "4"}}\n', ""),
    # remainder 26's window 19 lies above its block's stop index 18, so
    # greedy re-anchors below the stop
    ("decompose --rec 0,0,0,1,0,0,1 --n 64", 0,
     "64 = 1*G_21(38) + 1*G_14(16) + 1*G_7(7) + 1*G_3(3)  [legal]\n", ""),
    # the generic failure row: the constant family's terms never grow
    ("decompose --rec 1 --n 2", 4, "", "error: sequence is constant; it never exceeds 1\n"),
    ("decompose --rec 1 --n 2 --json", 4,
     '{"error": "error", "reason": "sequence is constant; it never exceeds 1", '
     '"diagnostics": {}}\n', ""),
    ("enumerate --rec 0,1,1 --n 501 --oracle --json", 5,
     '{"error": "budget exceeded", "reason": "value 501 exceeds oracle bound 500", '
     '"diagnostics": {}}\n', ""),
    # 3.6e12 grid points are counted, not listed
    ("probe --grid s=0..3,span=1..12,c=0..9", 5, "",
     "budget exceeded: grid of 3600000000000 points exceeds limit 100000\n"),
]


@pytest.mark.parametrize("line,code,out,err", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_command_output_is_pinned(line, code, out, err, capsys):
    assert run(capsys, *line.split()) == (code, out, err)


def test_seq_example(capsys):
    code, out, _ = run(capsys, "seq", "--rec", "0,1,1", "--count", "9")
    assert code == 0
    assert out.strip() == "1 2 4 3 6 7 9 13 16"


def test_seq_duplicate_warning(capsys):
    code, out, err = run(capsys, "seq", "--rec", "0,0,1,1", "--count", "8")
    assert code == 0
    assert "repeats a value" in err


def test_seq_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "seq", "--rec", "0,2,2", "--count", "10", "--json")
    payload = json.loads(out)
    assert payload["terms"] == ["1", "2", "3", "6", "10", "18", "32", "56", "100", "176"]
    assert payload["duplicate_values"] is False


def test_decompose_example_json(capsys):
    code, out, _ = run(capsys, "decompose", "--rec", "0,2,2", "--n", "164", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["legal"] is True
    assert [(e["index"], e["mult"]) for e in payload["summands"]] == [
        (8, 2), (7, 1), (5, 2),
    ]
    assert payload["summands"][0]["value"] == "56"


def test_decompose_round_trips_through_check(capsys):
    code, out, _ = run(capsys, "decompose", "--rec", "0,2,2", "--n", "164", "--json")
    decomp = ",".join(
        f"{e['index']}:{e['mult']}" for e in json.loads(out)["summands"]
    )
    code, out, _ = run(capsys, "check", "--rec", "0,2,2", "--decomp", decomp, "--json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["legal"] is True
    assert verdict["value"] == "164"


def test_decompose_trace(capsys):
    code, out, _ = run(capsys, "decompose", "--rec", "0,2,2", "--n", "164", "--trace")
    assert code == 0
    assert "anchor 9" in out
    assert "remainder 20" in out


def test_check_illegal_vector(capsys):
    code, out, _ = run(capsys, "check", "--rec", "0,1,1", "--decomp", "5:1,3:1")
    assert code == 0
    assert "illegal" in out


def test_invalid_recurrence_exit_code(capsys):
    code, _, err = run(capsys, "seq", "--rec", "0,1,0,1", "--count", "5")
    assert code == 1
    assert "invalid recurrence" in err


def test_invalid_decomposition_exit_code(capsys):
    code, _, err = run(capsys, "check", "--rec", "0,2,2", "--decomp", "5:1,7:2")
    assert code == 2
    assert "invalid decomposition" in err


def test_enumerate_with_oracle_agrees(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--rec", "0,1,1", "--n", "10", "--oracle", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["decompositions"] == ["6:1,4:1"]


def test_enumerate_oracle_above_its_bound_exits_5(capsys):
    code, out, err = run(capsys, "enumerate", "--rec", "0,1,1", "--n", "501", "--oracle")
    assert code == 5
    assert out == ""
    assert err.strip() == "budget exceeded: value 501 exceeds oracle bound 500"


def test_enumerate_oracle_disagreement_is_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "naive_oracle", lambda handle, n: [])
    argv = ("enumerate", "--rec", "0,1,1", "--n", "7", "--oracle")
    assert run(capsys, *argv) == (4, "", (
        "error: oracle and grammar enumerations disagree for N=7\n"
        "  grammar: ['5:1,1:1', '6:1']\n"
        "  oracle: []\n"))
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (4, "")
    assert json.loads(out) == {
        "error": "error", "reason": "oracle and grammar enumerations disagree for N=7",
        "diagnostics": {"grammar": ["5:1,1:1", "6:1"], "oracle": []}}


def test_counterexample_reports_a_verified_construction(monkeypatch, capsys):
    # no grid family verifies, so a stub stands in for the success path
    a, b = parse_decomposition("5:2,4:1,1:1"), parse_decomposition("6:1,1:1")
    report = CounterexampleReport(27, 1, a, b, True, 2, False,
                                  parse_decomposition("5:2,3:2,1:1"))
    monkeypatch.setattr(cli, "construct_counterexample", lambda handle, budget: report)
    assert run(capsys, "counterexample", "--rec", "0,2,2") == (0, (
        "N = 27 (x = 1, window ok: True)\n"
        "  A: 5:2,4:1,1:1\n"
        "  B: 6:1,1:1\n"
        "  total legal decompositions of N: 2\n"
        "  note: the construction's direct second candidate 5:2,3:2,1:1 is not "
        "grammar-legal; B was found by enumeration\n"), "")
    assert run(capsys, "counterexample", "--rec", "0,2,2", "--json") == (0, (
        '{"n": "27", "x": "1", "decompA": "5:2,4:1,1:1", "decompB": "6:1,1:1", '
        '"window_ok": true, "count_at_n": 2, "direct_pair_legal": false}\n'), "")


def test_scan_finds_lagonacci_pair(capsys):
    code, out, _ = run(capsys, "scan", "--rec", "0,1,1", "--max", "100",
                       "--mode", "nonunique")
    assert code == 0
    assert "N=7" in out and "2 decompositions" in out


@pytest.mark.parametrize("mode", ["nonunique", "unique"])
def test_scan_expect_find_miss_exits_3(mode, capsys):
    code, out, _ = run(capsys, "scan", "--rec", "1,1", "--max", "50",
                       "--mode", mode, "--expect-find")
    assert code == 3


def test_scan_unique_mode_reports_finding(capsys):
    code, out, _ = run(capsys, "scan", "--rec", "0,0,1,4", "--max", "50",
                       "--mode", "unique")
    assert code == 0
    assert "RESEARCH FINDING" in out


def test_lemma22_negative(capsys):
    code, out, _ = run(capsys, "lemma22", "--rec", "0,2,2")
    assert code == 0
    assert "-8" in out


def test_lemma22_not_applicable(capsys):
    code, out, _ = run(capsys, "lemma22", "--rec", "0,1,1")
    assert code == 0
    assert "not applicable" in out


def test_counterexample_reports_discrepancy(capsys):
    code, _, err = run(capsys, "counterexample", "--rec", "0,2,1,2")
    assert code == 4
    assert "construction failed" in err
    assert "count_at_n: 1" in err


def test_counterexample_is_bounded_by_the_environment_only(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--rec", "0,2,2", "--budget", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 1" in capsys.readouterr().err
    monkeypatch.setenv("ZECKLAB_BUDGET", "1")
    code, _, err = run(capsys, "counterexample", "--rec", "0,2,2")
    assert code == 5
    assert "budget exceeded" in err


def test_probe_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "probe.csv"
    code, _, _ = run(
        capsys, "probe", "--grid", "s=1..1,span=2..2,c=0..2",
        "--max", "60", "--out", str(out_file),
    )
    assert code == 0
    rows = list(csv.reader(out_file.open()))
    assert rows[0] == [
        "recurrence", "s", "L", "bound", "first_nonunique_N", "count_at_N",
        "lemma22", "counterexample_N", "status", "elapsed_ms",
    ]
    assert all(len(r) == 10 for r in rows[1:])
    recs = {r[0] for r in rows[1:]}
    assert "0,2,2" in recs and "0,1,1" in recs
    # a range may also be a list: rows for depths 1 and 3 only
    code, rows, _ = probe_rows(capsys, tmp_path, "--grid", "s=1;3,span=2,c=0..2",
                               "--max", "50")
    assert code == 0 and {r["s"] for r in rows.values()} == {"1", "3"}


def probe_rows(capsys, tmp_path, *argv):
    out_file = tmp_path / "probe.csv"
    code, _, err = run(capsys, "probe", *argv, "--out", str(out_file))
    rows = csv.DictReader(out_file.read_text().splitlines())
    return code, {r["recurrence"]: r for r in rows}, err


def test_probe_budget_bounds_the_construction(tmp_path, capsys):
    # the constructed N of 0,2,1,2 and 0,2,2,2 are 55 and 80
    grid = ("--grid", "s=1..1,span=3..3,c=0..2", "--max", "100")
    code, rows, _ = probe_rows(capsys, tmp_path, *grid)
    assert code == 0
    assert [(rows[t]["counterexample_N"], rows[t]["status"])
            for t in ("0,2,1,2", "0,2,2,2")] == [("55", "inconsistent"),
                                                 ("80", "inconsistent")]
    code, bounded, _ = probe_rows(capsys, tmp_path, *grid, "--budget", "20")
    assert code == 0
    assert {t for t, r in bounded.items() if r["status"] == "budget_exceeded"} == {
        "0,2,1,2", "0,2,2,2"}
    # the overrun rows still name the constructed N
    assert [bounded[t]["counterexample_N"] for t in ("0,2,1,2", "0,2,2,2")] == [
        "55", "80"]
    assert bounded.keys() == rows.keys()


def test_probe_keeps_the_other_rows_when_a_family_raises(tmp_path, capsys):
    code, rows, err = probe_rows(
        capsys, tmp_path, "--grid", "s=0..1,span=1..2,c=0..2", "--max", "100")
    assert code == 4
    assert "error: family 1: sequence is constant" in err
    assert "1" not in rows
    assert list(rows) == ["2", "1,1", "1,2", "2,1", "2,2",
                          "0,1,1", "0,1,2", "0,2,1", "0,2,2"]
    assert rows["1,1"]["status"] == "ok"


def test_probe_refuses_a_grid_above_its_limit_before_writing(monkeypatch, tmp_path, capsys):
    # the default grid, s=1..2,span=2..3,c=0..3, names 90 families
    out = tmp_path / "probe.csv"
    argv = ("probe", "--max", "20", "--out", str(out))
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 89)
    assert run(capsys, *argv) == (
        5, "", "budget exceeded: grid of 90 points exceeds limit 89\n")
    assert not out.exists()
    # the enumeration budget bounds each family, not the grid
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 90)
    assert run(capsys, *argv, "--budget", "10")[0] == 0
    # a header, then one row per valid point: 9 of the 90 are skipped
    assert len(out.read_text().splitlines()) == 1 + 81


def test_probe_counts_a_grid_from_its_bounds(capsys):
    # 3,000,001 depths are counted from the range's bounds, never listed
    tracemalloc.start()
    try:
        code = main(["probe", "--grid", "s=0..3000000,span=1,c=0..1", "--budget", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 5 and peak < 5 * 2**20, peak
    assert capsys.readouterr().err == (
        "budget exceeded: grid of 3000001 points exceeds limit 100000\n")


def test_probe_rows_deterministic_modulo_timing(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        run(capsys, "probe", "--grid", "s=1..1,span=2..2,c=0..2",
            "--max", "40", "--out", str(p))
        paths.append(p)
    strip = lambda p: [r[:-1] for r in csv.reader(p.open())]
    assert strip(paths[0]) == strip(paths[1])


def test_budget_env_override(monkeypatch, capsys):
    monkeypatch.setenv("ZECKLAB_BUDGET", "5")
    code, _, err = run(capsys, "enumerate", "--rec", "0,2,2", "--n", "50")
    assert code == 5
    assert "budget exceeded" in err


@pytest.mark.parametrize("argv", [
    ["seq", "--rec", "1,1", "--count", "3"],
    ["decompose", "--rec", "0,2,2", "--n", "164"],
    ["check", "--rec", "0,2,2", "--decomp", "8:2,7:1,5:2"],
    ["lemma22", "--rec", "0,2,2"],
])
def test_commands_that_do_not_enumerate_ignore_the_budget_env(argv, monkeypatch, capsys):
    monkeypatch.setenv("ZECKLAB_BUDGET", "abc")
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["scan", "--rec", "1,1", "--max", "50", "--json"],
    ["lemma22", "--rec", "0,2,2", "--json"],
])
def test_json_is_refused_where_it_is_ignored(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


@pytest.mark.parametrize("argv,option,value", [
    (["decompose", "--rec", "0,2,2", "--n", "abc"], "--n", "abc"),
    (["decompose", "--rec", "0,2,2", "--n", "-5"], "--n", "-5"),
    (["seq", "--rec", "0,2,2", "--count", "-1"], "--count", "-1"),
    (["scan", "--rec", "0,1,1", "--max", "0"], "--max", "0"),
    (["probe", "--max", "-3"], "--max", "-3"),
    (["probe", "--grid", "s=a..2"], "--grid", "a"),
])
def test_malformed_option_exits_2(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    kind = "positive" if option == "--max" else "non-negative"
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {option}: not a {kind} integer: {value!r}")


@pytest.mark.parametrize("argv,tail", [
    (["probe", "--grid", "span=0..2"],
     "error: argument --grid: not a positive integer: '0'"),
    (["probe", "--out", "/missing/dir/x.csv"],
     "error: argument --out: cannot write '/missing/dir/x.csv': "
     "No such file or directory"),
    (["probe", "--grid", "spna=2..3"], "error: argument --grid: unknown key: 'spna'"),
    (["probe", "--grid", "c=2..3"], "error: argument --grid: c must run from 0: '2..3'"),
    (["probe", "--grid", "s=3..1"], "error: argument --grid: empty range: '3..1'"),
])
def test_unusable_probe_option_exits_2(argv, tail, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(tail)


def test_malformed_budget_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ZECKLAB_BUDGET", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--rec", "0,2,2", "--n", "50"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: ZECKLAB_BUDGET must be a non-negative integer, got 'abc'")


def test_integers_past_4300_digits_print_in_full(capsys):
    # G_500 of 10^9 is 10^4491, G_5000 of 9,9 has 4979 digits
    code, out, _ = run(capsys, "seq", "--rec", "1000000000", "--count", "500")
    assert code == 0
    assert out.split()[-1] == "1" + "0" * 4491
    code, out, _ = run(capsys, "check", "--rec", "9,9", "--decomp", "5000:1", "--json")
    assert code == 0
    value = json.loads(out)["value"]
    # main restores the digit limit on return, so lift it here for the parse
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert len(value) > 4300 and int(value) == SequenceHandle.from_text("9,9").term(5000)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv", [
    ["seq", "--rec", "1000000000", "--count", "500"],
    ["seq", "--rec", "0,1,0,1", "--count", "5"],
    ["seq", "--rec", "1,1", "--count", "-1"],
])
def test_main_restores_the_digit_limit(argv, capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        try:
            main(argv)
        except SystemExit:
            pass
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("argv,tail", [
    (["seq", "--rec", "0,2,2", "--count", str(MAX_INDEX + 1)],
     f"error: argument --count: above the cap {MAX_INDEX}: '{MAX_INDEX + 1}'"),
    (["check", "--rec", "0,2,2", "--decomp", "99999999999999999999:1"],
     f"invalid decomposition: index above the cap {MAX_INDEX}"),
])
def test_term_index_above_the_cap_exits_2_without_growing_the_table(
        argv, tail, monkeypatch, capsys):
    def grow(self, *args):
        raise AssertionError("the term table grew")
    monkeypatch.setattr(SequenceHandle, "_grow_to", grow)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(tail)

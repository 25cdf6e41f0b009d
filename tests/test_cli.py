import csv
import io
import json

import pytest

from zecklab.cli import MAX_INDEX, main
from zecklab.sequence import SequenceHandle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert len(value) > 4300 and int(value) == SequenceHandle.from_text("9,9").term(5000)


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

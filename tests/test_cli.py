import csv
import json
import statistics
from pathlib import Path

import pytest

import bnic.cli as cli
import bnic.oracle

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_prints_summary(capsys):
    code, out, _ = run(capsys, "compile", str(DATA / "asia.bn"))
    assert code == 0
    assert "mpd tree: 5 cluster(s)" in out
    assert "triangulation: 1 fill edge(s)" in out


def test_compile_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "compile", str(DATA / "nope.bn"))
    assert code == 1
    assert "cannot read" in err


def test_compile_cycle_exits_1(tmp_path, capsys):
    bad = tmp_path / "cycle.bn"
    bad.write_text("node a\nnode b\narc a b\narc b a\n")
    code, _, err = run(capsys, "compile", str(bad))
    assert code == 1
    assert "line 4" in err


def test_compile_empty_file_ok(tmp_path, capsys):
    empty = tmp_path / "empty.bn"
    empty.write_text("")
    code, out, _ = run(capsys, "compile", str(empty))
    assert code == 0
    assert "0 variable(s)" in out


def test_compile_writes_dot_files(tmp_path, capsys):
    code, _, _ = run(capsys, "compile", str(DATA / "asia.bn"), "--dot", str(tmp_path / "dots"))
    assert code == 0
    names = {p.name for p in (tmp_path / "dots").iterdir()}
    assert names == {"network.dot", "moral.dot", "junction.dot", "mpd.dot"}


def test_compile_dot_onto_an_existing_file_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(capsys, "compile", str(DATA / "asia.bn"), "--dot", str(taken))
    assert code == 1
    assert "mpd tree" in out
    assert err.startswith("bnic: cannot write ") and str(taken) in err
    assert len(err.splitlines()) == 1


def test_apply_with_trace_and_verify(tmp_path, capsys):
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\ncompile\n")
    code, out, _ = run(
        capsys, "apply", str(DATA / "asia.bn"), str(script), "--trace", "--verify"
    )
    assert code == 0
    assert "remove-arc L E" in out
    assert "marked=[{T L E}, {S L B E}]" in out


def test_apply_trace_says_how_each_region_was_rebuilt(tmp_path, capsys):
    # the removal only deletes links, so its region thins its own junction
    # subtree; the new arc's link lies outside the triangulation, so min-fill
    # re-triangulates its region
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\ncompile\nadd-arc A X\n")
    code, out, _ = run(capsys, "apply", str(DATA / "asia.bn"), str(script), "--trace")
    assert code == 0
    assert "  thinned over {S T L B E} -> 3 clique(s)" in out
    assert "  re-triangulated over {A T E X} -> 2 clique(s)" in out


def test_apply_trace_reports_a_rewired_empty_separator(tmp_path, capsys):
    # Z's singleton clique hangs on the junction tree by an empty separator;
    # A -> Z cuts it and joins A's clique to Z's directly
    script = tmp_path / "edit.script"
    script.write_text("add-node Z\ncompile\nadd-arc A Z\nadd-arc Z X\ncompile\n")
    code, out, _ = run(capsys, "apply", str(DATA / "asia.bn"), str(script), "--trace")
    assert code == 0
    assert "    rewired empty separator to {A}\n" in out


def test_apply_remove_node_script(tmp_path, capsys):
    script = tmp_path / "edit.script"
    script.write_text("remove-node D\n")
    code, out, _ = run(capsys, "apply", str(DATA / "asia.bn"), str(script), "--verify", "--trace")
    assert code == 0
    assert "thinned over {S L B E}" in out
    assert "absorbed non-maximal {L E} into {T L E}" in out


def test_apply_writes_dot_snapshots(tmp_path, capsys):
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\ncompile\nadd-node Z\n")
    code, _, _ = run(
        capsys, "apply", str(DATA / "asia.bn"), str(script), "--dot", str(tmp_path / "snaps")
    )
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "snaps").iterdir())
    assert names == [
        "step000_junction.dot",
        "step000_mpd.dot",
        "step001_junction.dot",
        "step001_mpd.dot",
        "step002_junction.dot",
        "step002_mpd.dot",
    ]
    assert "fillcolor" in (tmp_path / "snaps" / "step001_junction.dot").read_text()


def test_apply_verification_failure_exits_2(tmp_path, capsys, monkeypatch):
    from bnic.oracle import Check, ValidityReport

    monkeypatch.setattr(
        bnic.oracle, "validate", lambda model: ValidityReport((Check("running_intersection", False),))
    )
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\n")
    code, _, err = run(capsys, "apply", str(DATA / "asia.bn"), str(script), "--verify")
    assert code == 2
    assert "running_intersection" in err


def test_apply_verification_failure_prints_the_detail(tmp_path, capsys, monkeypatch):
    from bnic.oracle import Check, ValidityReport

    failing = Check("family_coverage", False, "family of 3 is not hosted")
    monkeypatch.setattr(
        bnic.oracle, "validate", lambda model: ValidityReport((Check("moral_graph", True), failing))
    )
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\n")
    code, _, err = run(capsys, "apply", str(DATA / "asia.bn"), str(script), "--verify")
    assert code == 2
    assert "after flush 1: family_coverage: family of 3 is not hosted" in err


def test_apply_only_compile_marker_is_a_verified_noop(tmp_path, capsys):
    script = tmp_path / "edit.script"
    script.write_text("compile\n")
    code, out, _ = run(capsys, "apply", str(DATA / "asia.bn"), str(script), "--verify")
    assert code == 0
    assert "mpd tree: 5 cluster(s)" in out


def test_apply_bad_script_exits_1(tmp_path, capsys):
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L Q\n")
    code, _, err = run(capsys, "apply", str(DATA / "asia.bn"), str(script))
    assert code == 1
    assert "line 1" in err


def test_bench_script_and_csv(tmp_path, capsys):
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\nadd-arc A S\n")
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "bench", str(DATA / "asia.bn"), str(script), "--csv", str(csv_path)
    )
    assert code == 0
    assert "median:" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("index,description")
    assert len(lines) == 3


@pytest.mark.parametrize("verified", [True, False])
def test_bench_json_matches_the_csv_rows(tmp_path, capsys, monkeypatch, verified):
    if not verified:
        monkeypatch.setattr(bnic.oracle, "mpd_equal", lambda a, b: False)
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\nadd-arc A S\nremove-arc E X\n")
    csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
    code, _, _ = run(
        capsys, "bench", str(DATA / "asia.bn"), str(script), "--csv", str(csv_path), "--json", str(json_path)
    )
    assert code == (0 if verified else 2)
    report = json.loads(json_path.read_text())
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(report["rows"]) == len(rows) == 3
    for got, want in zip(report["rows"], rows):
        assert got["index"] == int(want["index"]) and got["description"] == want["description"]
        assert got["marked_mps"] == int(want["marked_mps"]) and got["verified"] == bool(int(want["verified"]))
        for key, places in (("incremental_s", 9), ("full_s", 9), ("speedup", 4), ("stability", 6)):
            assert f"{got[key]:.{places}f}" == want[key]
    assert report["all_verified"] is verified
    assert report["median_incremental_s"] == statistics.median(r["incremental_s"] for r in report["rows"])
    assert report["median_full_s"] == statistics.median(r["full_s"] for r in report["rows"])
    assert report["median_stability"] == statistics.median(r["stability"] for r in report["rows"])


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_bench_output_into_a_missing_directory_exits_1(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "report"
    code, _, err = run(capsys, "bench", "--random", "10", "3", flag, str(target))
    assert code == 1
    assert err.startswith(f"bnic: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()


def test_bench_empty_script_gives_empty_report(tmp_path, capsys):
    script = tmp_path / "edit.script"
    script.write_text("# nothing\n")
    code, out, _ = run(capsys, "bench", str(DATA / "asia.bn"), str(script))
    assert code == 0
    assert "edit" in out  # header only


def test_bench_random_mode(capsys):
    code, out, _ = run(capsys, "bench", "--random", "24", "4", "7")
    assert code == 0
    assert out.count("yes") == 4


def test_bench_random_mode_with_fewer_than_two_nodes_gives_empty_report(capsys):
    code, out, _ = run(capsys, "bench", "--random", "1", "3")
    assert code == 0
    assert len(out.splitlines()) == 2  # the header and its rule
    assert out.startswith("  #  edit")


def test_bench_random_mode_rejects_negative_counts(capsys):
    code, _, err = run(capsys, "bench", "--random", "-1", "2")
    assert code == 1
    assert "must not be negative" in err
    code, _, _ = run(capsys, "bench", "--random", "5", "-2")
    assert code == 1


def test_bench_usage_errors(capsys):
    code, _, err = run(capsys, "bench")
    assert code == 1
    code, _, err = run(capsys, "bench", "--random", "10")
    assert code == 1
    code, out, err = run(capsys, "bench", str(DATA / "asia.bn"), "--random", "10", "5")
    assert (code, out) == (1, "")
    assert err == "bnic: --random replaces the network and script arguments\n"


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1

import json
import statistics
from pathlib import Path

import pytest

import bnic.cli as cli
import bnic.oracle

DATA = Path(__file__).parent / "data"

# what `bnic compile --dot` writes for asia, byte for byte
ASIA_DOT = {
    "network.dot": """\
digraph network {
  n0 [label="A"];
  n1 [label="S"];
  n2 [label="T"];
  n3 [label="L"];
  n4 [label="B"];
  n5 [label="E"];
  n6 [label="X"];
  n7 [label="D"];
  n0 -> n2;
  n1 -> n3;
  n1 -> n4;
  n2 -> n5;
  n3 -> n5;
  n5 -> n6;
  n5 -> n7;
  n4 -> n7;
}
""",
    "moral.dot": """\
graph moral {
  n0 [label="A"];
  n1 [label="S"];
  n2 [label="T"];
  n3 [label="L"];
  n4 [label="B"];
  n5 [label="E"];
  n6 [label="X"];
  n7 [label="D"];
  n0 -- n2;
  n1 -- n3;
  n1 -- n4;
  n2 -- n3;
  n2 -- n5;
  n3 -- n5;
  n4 -- n5;
  n4 -- n7;
  n5 -- n6;
  n5 -- n7;
}
""",
    "junction.dot": """\
graph junction {
  node [shape=ellipse];
  c0 [label="A T"];
  c1 [label="T L E"];
  c2 [label="L B E"];
  c3 [label="S L B"];
  c4 [label="B E D"];
  c5 [label="E X"];
  c0 -- c1 [label="T"];
  c1 -- c2 [label="L E"];
  c1 -- c5 [label="E"];
  c2 -- c3 [label="L B"];
  c2 -- c4 [label="B E"];
}
""",
    "mpd.dot": """\
graph mpd {
  node [shape=ellipse];
  c0 [label="A T"];
  c1 [label="T L E"];
  c2 [label="S L B E"];
  c4 [label="B E D"];
  c5 [label="E X"];
  c0 -- c1 [label="T"];
  c1 -- c2 [label="L E"];
  c1 -- c5 [label="E"];
  c2 -- c4 [label="B E"];
}
""",
}


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
    assert {p.name: p.read_text() for p in (tmp_path / "dots").iterdir()} == ASIA_DOT


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


def test_bench_script_and_json(tmp_path, capsys):
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\nadd-arc A S\n")
    json_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "bench", str(DATA / "asia.bn"), str(script), "--json", str(json_path))
    assert code == 0
    assert "median:" in out
    rows = json.loads(json_path.read_text())["rows"]
    columns = ["index", "description", "incremental_s", "full_s", "speedup", "stability", "marked_mps", "verified"]
    assert [list(r) for r in rows] == [columns, columns]
    assert [(r["index"], r["description"]) for r in rows] == [(1, "remove-arc L E"), (2, "add-arc A S")]


@pytest.mark.parametrize("verified", [True, False])
def test_bench_json_matches_the_printed_rows(tmp_path, capsys, monkeypatch, verified):
    if not verified:
        monkeypatch.setattr(bnic.oracle, "mpd_equal", lambda a, b: False)
    script = tmp_path / "edit.script"
    script.write_text("remove-arc L E\nadd-arc A S\nremove-arc E X\n")
    json_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "bench", str(DATA / "asia.bn"), str(script), "--json", str(json_path))
    assert code == (0 if verified else 2)
    report = json.loads(json_path.read_text())
    printed = out.splitlines()[2:]
    assert len(report["rows"]) == len(printed) - 1 == 3
    for got, line in zip(report["rows"], printed):
        assert line.split() == [
            str(got["index"]),
            *got["description"].split(),
            f"{got['incremental_s'] * 1e3:.3f}",
            f"{got['full_s'] * 1e3:.3f}",
            f"{got['speedup']:.2f}",
            f"{got['stability']:.3f}",
            str(got["marked_mps"]),
            "yes" if got["verified"] else "NO",
        ]
    assert printed[-1] == (
        f"median: incremental {report['median_incremental_s'] * 1e3:.3f} ms, "
        f"full {report['median_full_s'] * 1e3:.3f} ms, stability {report['median_stability']:.3f}"
    )
    assert report["all_verified"] is verified
    assert report["median_incremental_s"] == statistics.median(r["incremental_s"] for r in report["rows"])
    assert report["median_full_s"] == statistics.median(r["full_s"] for r in report["rows"])
    assert report["median_stability"] == statistics.median(r["stability"] for r in report["rows"])


@pytest.mark.parametrize("flag", ["--json"])
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
    code, _, err = run(capsys, "bench", "--random", "10", "3", "--csv", "report.csv")
    assert code == 1
    assert err.endswith("bnic: error: unrecognized arguments: --csv\n")
    code, out, err = run(capsys, "bench", str(DATA / "asia.bn"), "--random", "10", "5")
    assert (code, out) == (1, "")
    assert err == "bnic: --random replaces the network and script arguments\n"


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1

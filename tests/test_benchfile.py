"""The verdicts of ``tests/benchfile.py --compare``, on figures given here: no benchmark runs."""

import json

import pytest

import benchfile


@pytest.mark.parametrize(
    "a, b, better, spread, word",
    [
        (1.0, 0.95, "lower", 0.1, "same"),  # a gain inside the seeds' spread
        (1.0, 0.85, "lower", 0.1, "better"),
        (1.0, 1.05, "higher", 0.1, "same"),
        (1.0, 1.15, "higher", 0.1, "better"),
        (1.0, 1.2, "lower", 0.5, "same"),  # a loss within the bound
        (1.0, 1.3, "lower", 0.5, "worse"),  # the bound rules a loss, whatever the spread
        (1.0, 0.7, "higher", 0.5, "worse"),
        (1.0, 1.0, "lower", 0.0, "same"),
    ],
)
def test_a_change_is_better_only_beyond_the_spread_and_worse_only_beyond_the_bound(a, b, better, spread, word):
    change, got = benchfile.verdict(a, b, better, 0.25, spread)
    assert got == word and change == pytest.approx((b - a) / a)


def test_a_change_from_zero_has_no_relative_size():
    assert benchfile.verdict(0.0, 0.1, "lower", 0.25, 0.0) == (None, "worse")
    assert benchfile.verdict(0.0, 0.1, "higher", 0.25, 0.0) == (None, "better")
    assert benchfile.verdict(0.0, 0.1, "higher", 0.25, 0.2) == (None, "same")


def test_compare_takes_the_wider_spread_of_the_two_files(tmp_path, capsys):
    names = [m["name"] for m in json.loads((benchfile.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def bench(edit_ms):  # one workload, the other metrics 1.0 at every seed
        runs = [{"workload": "edit-local", "metrics": dict.fromkeys(names, 1.0) | {"edit_ms.p50": v}} for v in edit_ms]
        medians = {"edit-local": dict.fromkeys(names, 1.0) | {"edit_ms.p50": sorted(edit_ms)[1]}}
        return {"medians": medians, "runs": runs, "loc": {"lines": 1, "code": 1}}

    paths = []
    for i, edit_ms in enumerate([[1.0, 1.0, 1.0], [0.6, 0.9, 1.2], [0.85, 0.85, 0.85]]):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(bench(edit_ms)))
    verdicts = []
    for b in paths[1:]:
        assert benchfile.compare(str(paths[0]), str(b)) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if "edit_ms.p50" in line)
        verdicts.append(row.split()[-2])
    assert verdicts == ["same", "better"]

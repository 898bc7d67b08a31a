import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summarize_counts_strict_wins_in_each_metric_direction():
    parent = [{"throughput_per_s": 100.0, "latency_p50_ms": 2.0, "peak_rss_mb": 40.0},
              {"throughput_per_s": 110.0, "latency_p50_ms": 2.2, "peak_rss_mb": 40.0},
              {"throughput_per_s": 90.0, "latency_p50_ms": 1.8, "peak_rss_mb": 41.0}]
    change = [{"throughput_per_s": 120.0, "latency_p50_ms": 1.5, "peak_rss_mb": 40.0},
              {"throughput_per_s": 105.0, "latency_p50_ms": 2.4, "peak_rss_mb": 40.5},
              {"throughput_per_s": 95.0, "latency_p50_ms": 1.7, "peak_rss_mb": 39.0}]
    better = {"throughput_per_s": "higher", "latency_p50_ms": "lower", "peak_rss_mb": "lower", "setup_s": "lower"}
    rows = bench_pairs.summarize(parent, change, better)
    assert [r["metric"] for r in rows] == ["throughput_per_s", "latency_p50_ms", "peak_rss_mb"]  # no setup_s reported
    by_name = {r["metric"]: r for r in rows}
    assert by_name["throughput_per_s"]["parent"] == (95.0, 100.0, 105.0)
    assert by_name["throughput_per_s"]["change"] == (100.0, 105.0, 112.5)
    assert [by_name[m]["wins"] for m in ("throughput_per_s", "latency_p50_ms", "peak_rss_mb")] == [2, 2, 1]
    assert {r["pairs"] for r in rows} == {3}
    assert by_name["latency_p50_ms"]["parent"][1] == pytest.approx(2.0)


WORKLOADS = ["heavy", "sweep", "cli"]


def test_several_workloads_run_against_one_parent_in_the_order_named():
    argv = ["--workload", "sweep", "heavy", "cli", "--seed", "7", "--parent", "536180e"]
    args = bench_pairs.parse_args(argv, WORKLOADS)
    assert (args.workload, args.seed, args.pairs, args.parent, args.seconds) == (
        ["sweep", "heavy", "cli"], 7, 10, "536180e", None)
    argv = ["--workload", "heavy", "--seed", "1", "--workload", "sweep"]
    assert bench_pairs.parse_args(argv, WORKLOADS).workload == ["heavy", "sweep"]
    assert bench_pairs.parse_args(["--workload", "sweep", "--seed", "1"], WORKLOADS).parent == "HEAD"


@pytest.mark.parametrize("argv, message", [
    (["--workload", "sweep", "nightly", "--seed", "1"], "unknown workload 'nightly'"),
    (["--workload", "sweep", "--workload", "sweep", "--seed", "1"], "each workload may be named once"),
    (["--workload", "sweep", "--seed", "1", "--pairs", "0"], "--pairs must be at least 1"),
    (["--workload", "--seed", "1"], "expected at least one argument"),
    (["--seed", "1"], "the following arguments are required: --workload"),
])
def test_bad_arguments_exit_2_naming_the_fault(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(argv, WORKLOADS)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_table_prints_medians_quartiles_and_wins_per_metric():
    rows = bench_pairs.summarize([{"throughput_per_s": 100.0}, {"throughput_per_s": 110.0}],
                                 [{"throughput_per_s": 120.0}, {"throughput_per_s": 105.0}],
                                 {"throughput_per_s": "higher"})
    assert bench_pairs.table(rows) == [
        "throughput_per_s: parent 105 [102.5, 107.5]  change 112.5 [108.75, 116.25]  wins 1/2"]


def test_a_gain_is_resolved_by_nine_tenths_of_the_pairs_and_a_median_beyond_the_parent_spread():
    parent = [10.0 + 0.1 * i for i in range(10)]  # q1 10.225, q3 10.675
    better = {"latency_p50_ms": "lower"}

    def row(change):
        [summary] = bench_pairs.summarize([{"latency_p50_ms": v} for v in parent],
                                          [{"latency_p50_ms": v} for v in change], better)
        return summary

    resolved = row([p - 1.0 for p in parent[:9]] + parent[9:])  # nine wins and a tie
    assert (resolved["wins"], resolved["resolved"]) == (9, True)
    assert bench_pairs.table([resolved])[0].endswith("wins 9/10  resolved")
    assert not row([p - 1.0 for p in parent[:8]] + parent[8:])["resolved"]  # eight wins
    assert not row([p - 0.4 for p in parent])["resolved"]  # ten wins inside the parent's spread
    assert not row([p + 1.0 for p in parent])["resolved"]  # a loss beyond the spread


def canned_run(seed: int, commit: str, throughput: float, rss: float, case_ms: float) -> str:
    """The standard output of one ``bench/run.py`` run: env and report lines, then the final JSON."""
    env = {"workload": "heavy", "seed": seed, "trace": 0, "seconds": 30.0, "numpy": "2.4.6", "commit": commit}
    final = {"correct": 6, "attempted": 6, "failed": 0,
             "metrics": {"throughput_per_s": {"value": throughput}, "peak_rss_mb": {"value": rss}}}
    return "\n".join(["env " + json.dumps(env), "report " + json.dumps({"case_ms": {"ru4x4_18": case_ms}}),
                      json.dumps(final)]) + "\n"


def test_record_keeps_each_sides_quartiles_wins_env_seeds_and_seconds():
    parent = [bench_pairs.parse_run(canned_run(s, "unknown", t, r, c), "parent")
              for s, t, r, c in [(5, 80.0, 49.0, 37.0), (6, 82.0, 49.5, 36.0), (7, 81.0, 49.25, 38.0)]]
    change = [bench_pairs.parse_run(canned_run(s, "abc123", t, r, c), "change")
              for s, t, r, c in [(5, 81.0, 47.25, 36.5), (6, 80.0, 47.5, 36.0), (7, 83.0, 47.0, 37.0)]]
    assert change[0] == ({"throughput_per_s": 81.0, "peak_rss_mb": 47.25, "case_ms.ru4x4_18": 36.5},
                         {"workload": "heavy", "seed": 5, "trace": 0, "seconds": 30.0, "numpy": "2.4.6",
                          "commit": "abc123"})
    better = {"throughput_per_s": "higher", "peak_rss_mb": "lower", "case_ms.ru4x4_18": "lower"}
    rows = bench_pairs.summarize([v for v, _ in parent], [v for v, _ in change], better)
    entry = json.loads(json.dumps(bench_pairs.record([5, 6, 7], 30.0, (parent[0][1], change[0][1]), rows)))
    assert (entry["seeds"], entry["seconds"]) == ([5, 6, 7], 30.0)
    assert (entry["env"]["parent"]["commit"], entry["env"]["change"]["commit"]) == ("unknown", "abc123")
    assert list(entry["metrics"]) == ["throughput_per_s", "peak_rss_mb", "case_ms.ru4x4_18"]
    assert entry["metrics"]["peak_rss_mb"] == {
        "parent": {"q1": 49.125, "median": 49.25, "q3": 49.375},
        "change": {"q1": 47.125, "median": 47.25, "q3": 47.375},
        "wins": 3,
        "pairs": 3,
        "resolved": True,
    }
    assert [entry["metrics"][m]["wins"] for m in ("throughput_per_s", "case_ms.ru4x4_18")] == [2, 2]


def test_a_run_with_failed_units_stops_the_comparison():
    failed = canned_run(1, "abc123", 80.0, 49.0, 37.0).replace('"failed": 0', '"failed": 2')
    with pytest.raises(SystemExit, match="2 of 6 units failed in change"):
        bench_pairs.parse_run(failed, "change")

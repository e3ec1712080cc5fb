"""Unit tests of scripts/bench_pairs.py, which writes every BENCH_*.json:
the script is loaded by path and no benchmark runs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "build_p50_s", "unit": "s", "better": "lower"},
    {"name": "ops_per_s", "unit": "op/s", "better": "higher"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
]


def _run(correct=True, **values):
    return {"correct": correct, "metrics": {k: {"value": v} for k, v in values.items()}}


def test_parse_seeds_takes_ranges_and_single_seeds():
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_quartiles_of_one_value_repeat_it():
    assert bench_pairs.quartiles([0.5]) == [0.5, 0.5, 0.5]


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 3.0, 4.0]


def test_summarize_counts_strict_wins_in_each_metric_direction():
    runs = {
        # build_p50_s: the change wins once (lower), ties once, loses once;
        # ops_per_s: the change wins twice (higher) and ties once
        "parent": [_run(build_p50_s=2.0, ops_per_s=10.0),
                   _run(build_p50_s=1.0, ops_per_s=10.0),
                   _run(False, build_p50_s=1.0, ops_per_s=10.0)],
        "change": [_run(build_p50_s=1.0, ops_per_s=11.0),
                   _run(build_p50_s=1.0, ops_per_s=12.0),
                   _run(build_p50_s=3.0, ops_per_s=10.0)],
    }
    out = bench_pairs.summarize(runs, METRICS)
    assert out["correct"] == {"parent": 2, "change": 3}
    build, ops = out["metrics"]["build_p50_s"], out["metrics"]["ops_per_s"]
    assert build["change_wins"] == 1 and ops["change_wins"] == 2
    assert build["parent"] == [2.0, 1.0, 1.0] and build["change"] == [1.0, 1.0, 3.0]
    assert build["unit"] == "s" and ops["unit"] == "op/s"


def test_summarize_skips_a_metric_one_side_lacks():
    runs = {"parent": [_run(build_p50_s=1.0, peak_rss_mb=30.0)],
            "change": [_run(build_p50_s=1.0)]}
    out = bench_pairs.summarize(runs, METRICS)
    assert sorted(out["metrics"]) == ["build_p50_s"]


def test_summarize_counts_a_failed_run_as_incorrect():
    runs = {"parent": [_run(build_p50_s=1.0)], "change": [{"correct": False, "metrics": {}}]}
    out = bench_pairs.summarize(runs, METRICS)
    assert out["correct"] == {"parent": 1, "change": 0}
    assert out["metrics"] == {}


def test_write_doc_keeps_each_list_of_values_on_one_line(tmp_path):
    metric = {"parent_q1_median_q3": [1.5, 2.0, 2.5], "parent": [1.5, 2.25, 3.0], "change": []}
    doc = {"what": "x", "workloads": {"up": {"metrics": {"m": metric}}}}
    path = tmp_path / "BENCH_x.json"
    bench_pairs.write_doc(path, doc)
    text = path.read_text()
    assert json.loads(text) == doc
    lines = [line.strip().rstrip(",") for line in text.splitlines()]
    for key, values in metric.items():
        assert f'"{key}": {json.dumps(values)}' in lines

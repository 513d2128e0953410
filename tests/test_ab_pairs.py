"""The summary of tools/ab_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("ab_pairs", Path(__file__).parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def result(ops, p50, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"throughput_ops_s": {"value": ops}, "latency_p50_ms": {"value": p50}}}


def test_summary_of_fixed_pairs():
    pairs = [(result(100.0, 4.0), result(110.0, 3.5)),
             (result(120.0, 3.0), result(120.0, 3.2)),
             (result(90.0, 5.0), result(80.0, 5.0, correct=False, failed=2)),
             (result(110.0, 4.5), result(130.0, 3.0))]
    lines = ab_pairs.summarize(pairs, [("throughput_ops_s", "higher"), ("latency_p50_ms", "lower")])
    # base throughput 90, 100, 110, 120: quartiles 97.5 and 112.5, median 105;
    # change 80, 110, 120, 130: 102.5, 115, 122.5; a tie wins for neither side
    assert lines[1].split() == ["throughput_ops_s", "105", "[97.5,", "112.5]", "115", "[102.5,", "122.5]",
                                "1.0952", "2/4"]
    # lower is better: the change wins pairs 0 and 3, loses pair 1, ties pair 2
    assert lines[2].split() == ["latency_p50_ms", "4.25", "[3.75,", "4.625]", "3.35", "[3.15,", "3.875]",
                                "0.7882", "2/4"]
    assert lines[5] == "pair 2: base correct=True failed=0, change correct=False failed=2"
    assert len(lines) == 3 + len(pairs)


def test_quartiles_of_one_run():
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

"""The summary of tools/ab_pairs.py on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("base, change, better, bound, expected", [
    # 9 of 10 wins, and the medians differ by 10 against a base IQR of 4.5
    (list(range(100, 110)), [v + 10 for v in range(100, 109)] + [100.0], "higher", 0.25, "gain"),
    # the same on a lower-is-better metric
    (list(range(100, 110)), [v - 10 for v in range(100, 109)] + [120.0], "lower", 0.25, "gain"),
    # 8 of 10 wins are too few
    (list(range(100, 110)), [v + 10 for v in range(100, 108)] + [90.0, 90.0], "higher", 0.25, "flat"),
    # 10 of 10 wins by 1, within the base IQR of 4.5
    (list(range(100, 110)), [v + 1 for v in range(100, 110)], "higher", 0.25, "flat"),
    # a median 30% below the base's, with a bound of 25%
    (list(range(100, 110)), [v * 0.7 for v in range(100, 110)], "higher", 0.25, "worse"),
    # 20% below is within the bound
    (list(range(100, 110)), [v * 0.8 for v in range(100, 110)], "higher", 0.25, "flat"),
    # a latency 10% above the base's against a bound of 5%
    ([10.0] * 10, [11.0] * 10, "lower", 0.05, "worse"),
])
def test_verdict_of_fixed_pairs(base, change, better, bound, expected):
    assert ab_pairs.verdict([float(v) for v in base], [float(v) for v in change], better, bound) == expected


def test_verdicts_follow_the_summary(tmp_path, monkeypatch, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    (base / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "throughput_ops_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]}))
    # the change is 20 ops/s faster on every seed and as slow per unit
    monkeypatch.setattr(ab_pairs, "run", lambda checkout, workload, seed, seconds:
                        result(seed + (100.0 if checkout == base else 120.0), 4.0))
    assert ab_pairs.main([str(base), str(change), "--workload", "w", "--pairs", "10", "--seconds", "1",
                          "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[-1] == "10/10"
    # base throughput 101..110: quartiles 103.25 and 107.75 around 105.5
    assert out[-4:] == ["verdict throughput_ops_s: gain", "verdict latency_p50_ms: flat",
                        f"noise floor throughput_ops_s: {4.5 / 105.5:.4f} of the base median",
                        "noise floor latency_p50_ms: 0.0000 of the base median"]


@pytest.mark.parametrize("base, expected", [
    # quartiles 102.25 and 106.75 around a median of 104.5
    (list(range(100, 110)), 4.5 / 104.5),
    # one run has no spread
    ([7.0], 0.0),
    # the floor is relative to the size of the median, whatever its sign
    ([-3.0, -2.0, -1.0], 1.0 / 2.0),
    ([0.0, 0.0, 1.0], float("inf")),
])
def test_noise_floor_of_fixed_runs(base, expected):
    assert ab_pairs.noise_floor([float(v) for v in base]) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_a_pair_count_below_one_is_a_usage_error(pairs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", pairs, "--seconds", "1",
                       "--seed", "1"])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err

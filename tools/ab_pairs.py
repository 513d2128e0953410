"""Alternating parent/change pairs of the benchmark, summarized per metric.

    python3 tools/ab_pairs.py BASE CHANGE --workload sweep_souza \
        --pairs 10 --seconds 15 --seed 101

BASE and CHANGE are two checkouts of the repository. Pair i runs
``python3 perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0``
in both, the base first in even pairs and the change first in odd ones, so
drift of the machine falls on both sides alike. For each end-to-end metric
of BASE's ``BENCHMARK.json`` it prints the median and quartiles of each
side, the change's median over the base's, and the pairs the change wins
(ties count for neither), then each run's ``correct`` and ``failed``, then a
verdict per metric: ``gain`` when the change wins at least 9/10 of the pairs
and the medians differ, in the better direction, by more than the distance
between the base's quartiles; ``worse`` when the change's median is worse
than the base's by more than the metric's ``bound`` (a fraction of the
base's median); ``flat`` otherwise. Last comes the noise floor of each
metric: the base's interquartile range as a fraction of its median, the
least relative median difference a gain needs. It exits 1 when a run
reports ``correct: false`` and 2 when a run fails. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def sides(pairs: list[tuple[dict, dict]], name: str) -> tuple[list[float], list[float]]:
    """A metric's values in the base runs and in the change runs, pair by pair."""
    return tuple([run["metrics"][name]["value"] for run in side] for side in zip(*pairs))


def wins(base: list[float], change: list[float], better: str) -> int:
    """The pairs the change wins; a tie counts for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """gain, worse or flat: the rule of the module docstring for one metric."""
    (b1, b2, b3), (_, c2, _) = quartiles(base), quartiles(change)
    ahead = (c2 - b2) if better == "higher" else (b2 - c2)
    if 10 * wins(base, change, better) >= 9 * len(base) and ahead > b3 - b1:
        return "gain"
    return "worse" if -ahead > bound * abs(b2) else "flat"


def noise_floor(base: list[float]) -> float:
    """The base's interquartile range as a fraction of its median (inf for a zero median)."""
    b1, b2, b3 = quartiles(base)
    return (b3 - b1) / abs(b2) if b2 else float("inf")


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[str]:
    """The report lines of (base, change) results, one pair of ``run.py``
    result objects per seed, for (name, "higher" or "lower") metrics."""
    lines = [f"{'metric':<18} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
             f"{'change/base':>11} {'wins':>6}"]
    for name, better in metrics:
        base, change = sides(pairs, name)
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        ratio = f"{c2 / b2:.4f}" if b2 else "-"
        lines.append(f"{name:<18} {f'{b2:.6g} [{b1:.6g}, {b3:.6g}]':>32} {f'{c2:.6g} [{c1:.6g}, {c3:.6g}]':>32} "
                     f"{ratio:>11} {f'{wins(base, change, better)}/{len(pairs)}':>6}")
    for i, (base, change) in enumerate(pairs):
        lines.append(f"pair {i}: base correct={base['correct']} failed={base['failed']}, "
                     f"change correct={change['correct']} failed={change['failed']}")
    return lines


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in a checkout: its result object."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    bench = json.loads((args.base / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    pairs = []
    try:
        for i in range(args.pairs):
            got = {}
            for side in ("base", "change")[:: 1 if i % 2 == 0 else -1]:
                got[side] = run(getattr(args, side), args.workload, args.seed + i, args.seconds)
            pairs.append((got["base"], got["change"]))
            print(f"pair {i} seed {args.seed + i} done, {next(iter(got))} first", file=sys.stderr, flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("\n".join(summarize(pairs, metrics)))
    for m in bench["end_to_end"]:
        print(f"verdict {m['name']}: {verdict(*sides(pairs, m['name']), m['better'], m['bound'])}")
    for name, _ in metrics:
        print(f"noise floor {name}: {noise_floor(sides(pairs, name)[0]):.4f} of the base median")
    return 0 if all(run["correct"] for pair in pairs for run in pair) else 1


if __name__ == "__main__":
    sys.exit(main())

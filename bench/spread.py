#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the committed baseline.

    python3 bench/spread.py --seeds 1-10 [--out FILE] [--baseline bench/baseline.json]

Runs ``bench/run.py`` once per workload of ``BENCHMARK.json`` and seed,
one process at a time, with its ``run_seconds``.  For every end-to-end
metric it prints the median and the quartile spread ``(q3 - q1) / median``
of the runs next to the metric's bound, and flags a spread above a third
of the bound, ``setup_s`` included.  ``--out`` writes the figures as JSON
(the form of ``bench/baseline.json``).  ``--baseline`` also prints each
median as a share of the baseline's median, flagging any worse by more
than the bound; a seed not used for the baseline makes this a held-out
check.  With ``--baseline``, ``--out`` writes a copy of the baseline whose
``held_out`` block holds this run's figures and comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result, report) of one benchmark process."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return json.loads(lines[-1]), report


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    seeds = parse_seeds(args.seeds)
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        results = []
        for seed in seeds:
            result, report = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {report['problems']}")
                ok = False
            results.append(result)
            summary.setdefault("env", {k: v for k, v in report["env"].items() if k != "seed"})
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            stats[name] = summarize(values) if len(values) > 1 else {"median": values[0]}
            line = f"{workload:20s} {name:14s} median {stats[name]['median']:12.6g}"
            if "spread" in stats[name]:
                spread = stats[name]["spread"]
                flag = "" if spread < bound / 3 else "  SPREAD > bound/3"
                line += f"  spread {spread:7.4f}  bound {bound}{flag}"
            if baseline is not None:
                base = baseline["workloads"][workload][name]["median"]
                ratio = stats[name]["median"] / base
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
                stats[name].update(vs_baseline=ratio, within_bound=worse <= bound)
                ok &= worse <= bound
                flag = "" if worse <= bound else "  WORSE THAN BOUND"
                line += f"  vs baseline {ratio:7.4f}{flag}"
            print(line, flush=True)
        summary["workloads"][workload] = stats
    if args.out:
        if baseline is not None:
            summary = {**baseline, "held_out": summary}
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

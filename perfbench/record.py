"""Record a benchmark result: several seeds per workload, summarised.

    python3 perfbench/record.py --out perfbench/results/NAME.json

Runs ``run.py`` once for each of the seeds 1-10 on every workload of
``BENCHMARK.json`` (untraced), plus one traced run per workload with
seed 1, and writes the machine description, every
run's JSON line and, per metric, the median, the quartiles and the
spread (interquartile distance over the median, as the acceptance rule
for a benchmark change computes it).  Runs are sequential, one process
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, cwd=str(ROOT),
        check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        for key in ("machine", "run", "pass-0 correctness"):
            if line.startswith(key + " "):
                out[key] = json.loads(line[len(key) + 1:])
    out["seed"] = seed
    return out


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    result = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(_run(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["metrics"]),
                  file=sys.stderr, flush=True)
        traced = _run(workload, SEEDS[0], seconds, 1)
        # Pass 0 is the same fixed op set in both modes, cut by deadlines
        # at the same amount of work: its figures should agree.
        traced["pass-0 agrees"] = (traced["pass-0 correctness"]
                                   == runs[0]["pass-0 correctness"])
        result["machine"] = runs[0]["machine"]
        names = [m["name"] for m in bench["end_to_end"]]
        result["workloads"][workload] = {
            "end_to_end": {n: summarise([r["metrics"][n]["value"]
                                         for r in runs]) for n in names},
            "units": {n: runs[0]["metrics"][n]["unit"] for n in names},
            "runs": runs,
            "traced": traced,
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the ledger over seeds and summarise each metric's spread.

Usage (from the repository root)::

    python3 benchmarks/ledger/collect.py --seeds 1-10 [--sets 2] \\
        [--workload NAME ...] [--traced-seed S] [--seconds 30] --out FILE

Each set runs every workload once per seed, as separate processes with
the same command line a benchmark runner uses; the workload order
alternates from one seed to the next.  For every metric the summary
gives the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the interquartile distance as a share of the median.
With two sets it also gives the second median's change over the first.
``--traced-seed`` adds one traced pass per workload to every set and, with
two sets, checks that the traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import COUNTS, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark process; keeps its summary line and its run detail."""
    root = HERE.parents[1]
    out = root / ".ledger_work" / f"collect-{workload}-{seed}.json"
    out.parent.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
         "--out", str(out)],
        cwd=root, capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    record = {
        "workload": workload,
        "seed": seed,
        "returncode": proc.returncode,
        "run_wall_s": wall,
        "result": json.loads(lines[-1]) if proc.returncode == 0 and lines else None,
        "stderr": proc.stderr[-2000:] if proc.returncode else "",
    }
    if out.exists():
        doc = json.loads(out.read_text())
        out.unlink()
        record["host"] = doc["host"]
        record["detail"] = doc["runs"][0]["detail"]
        record["failures"] = doc["runs"][0]["failures"]
    return record


def spread(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def summarise(runs: list[dict]) -> dict[str, dict[str, dict[str, float]]]:
    out: dict[str, dict[str, dict[str, float]]] = {}
    for workload in WORKLOADS:
        mine = [r["result"] for r in runs if r["workload"] == workload and r["result"]]
        if len(mine) < 2:
            continue
        out[workload] = {
            name: spread([m["metrics"][name]["value"] for m in mine])
            for name in mine[0]["metrics"]
        }
    return out


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _report(k: int, r: dict) -> None:
    ok = "ok" if r["result"] and r["result"]["correct"] else "FAILED"
    print(f"set {k} seed {r['seed']:>3} {r['workload']:<15} {ok} "
          f"{r['run_wall_s']:.1f}s", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--traced-seed", type=int, default=None,
                        help="also run one traced pass per workload in every set")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    sets = []
    for k in range(args.sets):
        runs = []
        for i, seed in enumerate(args.seeds):
            order = workloads if (i + k) % 2 == 0 else workloads[::-1]
            for workload in order:
                runs.append(run_once(workload, seed, args.seconds, False))
                _report(k, runs[-1])
        one: dict[str, object] = {"runs": runs, "summary": summarise(runs)}
        if args.traced_seed is not None:
            one["traced"] = [
                run_once(w, args.traced_seed, args.seconds, True) for w in workloads
            ]
            for r in one["traced"]:
                _report(k, r)
        sets.append(one)
    doc: dict[str, object] = {"seconds": args.seconds, "sets": sets}
    if len(sets) == 2:
        doc["second_over_first"] = {
            w: {
                name: s["median"] / sets[0]["summary"][w][name]["median"] - 1.0
                for name, s in metrics.items()
                if sets[0]["summary"][w][name]["median"]
            }
            for w, metrics in sets[1]["summary"].items()
        }
        if args.traced_seed is not None:
            doc["traced_counts_identical"] = all(
                a["result"]["metrics"][c] == b["result"]["metrics"][c]
                for a, b in zip(sets[0]["traced"], sets[1]["traced"], strict=True)
                for c in COUNTS
            )
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for k, s in enumerate(sets):
        for w, metrics in s["summary"].items():
            for name, st in metrics.items():
                print(f"set {k} {w:<15} {name:<24} median {st['median']:<12.6g} "
                      f"spread {st['spread']:.3f}")
    failed = sum(
        1 for s in sets for r in [*s["runs"], *s.get("traced", [])]
        if not (r["result"] and r["result"]["correct"])
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

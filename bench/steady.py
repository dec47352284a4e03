"""Steadiness check: two sets of runs of one checkout, compared per metric.

    python3 bench/steady.py            # the two sets
    python3 bench/steady.py --traced   # tracing overhead and per-layer metrics

Runs ``bench/run.py`` once per workload and seed, set 1 on seeds 1-10, then
set 2 on seeds 11-20, with the run length from BENCHMARK.json.  For every
end-to-end metric and workload it prints each set's median and quartiles,
the spread (distance between the quartiles over the median) and whether the
two sets agree: both spreads within the metric's bound and the two medians
apart by no more than the bound, in either direction.  Raw results go to
``bench/out/steady.json``.

``--traced`` instead runs, per workload, three untraced and three traced runs
of seed 1, alternating which comes first, and prints the tracing overhead
(median traced round over median untraced round) and the median of every
per-layer metric.  Raw results go to ``bench/out/traced.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETS = {1: range(1, 11), 2: range(11, 21)}  # seeds of the two sets
TRACE_SEED, TRACE_PAIRS = 1, 3


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "elapsed_s": elapsed, "result": result}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def apart_by(first, second):
    """Distance between two medians as a share of the first."""
    return abs(second - first) / abs(first)


def summarize(bench, runs) -> bool:
    """Print the tables; True if every run was correct, every run of a
    workload failed the same share of its operations and the two sets agree
    on every metric."""
    ok = True
    for w in [w["name"] for w in bench["workloads"]]:
        print(f"\n## {w}")
        by_set, all_shares = {}, set()
        for s in SETS:
            rs = [r for r in runs if r["workload"] == w and r["set"] == s]
            bad = [r["seed"] for r in rs if not (r["result"] and r["result"]["correct"])]
            by_set[s] = [r["result"] for r in rs if r["result"]]
            shares = {res["failed"] / res["attempted"] for res in by_set[s]}
            all_shares |= shares
            longest = max(r["elapsed_s"] for r in rs)
            print(f"set {s}: {len(rs)} runs, incorrect seeds {bad}, failed shares "
                  f"{sorted(shares)}, longest run {longest:.1f} s")
            ok &= not bad
        ok &= len(all_shares) == 1
        print("| metric | bound | " + " | ".join(
            f"set {s} median [q1, q3] (spread)" for s in SETS) + " | agree |")
        print("|---|---|" + "---|" * len(SETS) + "---|")
        for m in bench["end_to_end"]:
            cells, medians, agree = [], [], True
            for s in SETS:
                vals = [res["metrics"][m["name"]]["value"] for res in by_set[s]]
                q1, q3, sp = spread(vals)
                med = statistics.median(vals)
                medians.append(med)
                flag = "" if sp < m["bound"] / 3 else " !"
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({sp:.4f}{flag})")
                agree &= sp <= m["bound"]
            agree &= apart_by(*medians) <= m["bound"]
            ok &= agree
            print(f"| {m['name']} | {m['bound']} | " + " | ".join(cells)
                  + f" | {'yes' if agree else 'NO'} |")
    return ok


def round_size(workload) -> int:
    """Number of CLI commands in one round of the workload."""
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    return len(WORKLOADS[workload]("unused", 0).round)


def save(runs, name):
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1)


def two_sets(bench) -> bool:
    runs = []
    for s, seeds in SETS.items():
        for w in bench["workloads"]:
            for seed in seeds:
                r = run_once(w["name"], seed, bench["run_seconds"], 0)
                r["set"] = s
                runs.append(r)
                print(f"set {s} {w['name']} seed {seed}: exit {r['exit']} "
                      f"{r['elapsed_s']:.1f} s", file=sys.stderr, flush=True)
                save(runs, "steady.json")
    return summarize(bench, runs)


def traced(bench) -> bool:
    names = [w["name"] for w in bench["workloads"]]
    runs, ok, layer = [], True, {}
    print("| workload | untraced round s | traced round s | overhead |")
    print("|---|---|---|---|")
    for w in names:
        rounds = {0: [], 1: []}
        for i in range(TRACE_PAIRS):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                r = run_once(w, TRACE_SEED, bench["run_seconds"], trace)
                runs.append(r)
                save(runs, "traced.json")
                res = r["result"]
                if not (res and res["correct"]):
                    ok = False
                    continue
                m = res["metrics"]
                if trace:
                    # cli.command_ms is the mean command time over all rounds
                    rounds[1].append(m["cli.command_ms"]["value"] * round_size(w) / 1e3)
                    for k, v in m.items():
                        layer.setdefault(k, {}).setdefault(w, []).append(v["value"])
                else:
                    rounds[0].append(m["wall_s"]["value"])
        if rounds[0] and rounds[1]:
            u, t = statistics.median(rounds[0]), statistics.median(rounds[1])
            print(f"| {w} | {u:.3f} | {t:.3f} | {(t / u - 1) * 100:+.1f} % |")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print("\n| per-layer metric | unit | " + " | ".join(f"`{w}`" for w in names) + " |")
    print("| --- | --- |" + " --- |" * len(names))
    for k, by_w in layer.items():
        cells = [f"{statistics.median(by_w[w]):.4g}" if w in by_w else "-" for w in names]
        print(f"| `{k}` | {units[k]} | " + " | ".join(cells) + " |")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--traced", action="store_true",
                   help="measure the tracing overhead and the per-layer metrics instead")
    args = p.parse_args(argv)
    bench = load_benchmark()
    os.makedirs(OUT, exist_ok=True)
    return 0 if (traced(bench) if args.traced else two_sets(bench)) else 1


if __name__ == "__main__":
    sys.exit(main())

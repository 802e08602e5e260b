#!/usr/bin/env python3
"""Record sets of benchmark runs and compare two sets.

    python3 perfbench/sets.py record OUT.jsonl [OUT2.jsonl ...] [--runs 10]
                                     [--first-seed 1] [--workloads a,b] [--trace 0|1]
    python3 perfbench/sets.py compare A.jsonl [B.jsonl] [--same]

Run from the repository root. `record` runs the command of BENCHMARK.json
`--runs` times per workload and set, and appends one JSON line per run to
the set's file: workload, seed, trace, wall time, the run header and its
result. Set k
(counting from 0) uses seeds first-seed + 100k, first-seed + 100k + 1, ...
Runs are interleaved — run i of every workload, and of every set within a
workload, before run i+1 — so that a slow phase of the host falls on all
sets and workloads alike rather than on one of them.

`compare` prints, per workload and end-to-end metric, each set's median and
quartiles (statistics.quantiles(values, n=4)) and its spread, the distance
between the quartiles as a share of the median. With two sets it prints how
much worse set B's median is than set A's (negative: better) and says
whether they agree: each spread, except that of setup_s, within the
metric's bound; the same share of failed operations in both; and B's median
no worse than A's by more than the bound. That last test is one-sided, as a
check of a change against its parent is. With --same, for two sets of the
same code, it is two-sided: the medians may differ by at most the bound in
either direction. It exits 1 when the sets do not agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def record(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    outs = [open(path, "a") for path in args.out]
    for i in range(args.runs):
        for name in names:
            for k, out in enumerate(outs):
                seed = args.first_seed + 100 * k + i
                cmd = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
                ]
                start = time.monotonic()
                proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
                wall = time.monotonic() - start
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit(f"{name} seed {seed}: exit {proc.returncode}")
                result = json.loads(lines[-1])
                header = json.loads(lines[-2])["header"] if len(lines) > 1 else {}
                out.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace,
                                      "wall_s": round(wall, 3), "header": header,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{args.out[k]} {name} seed {seed}: correct={result['correct']} "
                      f"steal={header.get('steal_share', 0):.3f}", file=sys.stderr)
    for out in outs:
        out.close()


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted


def compare(args):
    bench = load_benchmark()
    sets = [load_set(p) for p in args.sets]
    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        per_set = [s.get(w, []) for s in sets]
        if any(len(r) < 2 for r in per_set):
            print(f"{w}: fewer than two runs in a set, skipped")
            continue
        counts = ", ".join(str(len(r)) for r in per_set)
        incorrect = sum(not x["correct"] for r in per_set for x in r)
        shares = [failed_share(r) for r in per_set]
        print(f"\n{w}  (runs {counts}; incorrect runs {incorrect}; failed share "
              + " / ".join(f"{s:.6f}" for s in shares) + ")")
        ok &= incorrect == 0 and len(set(shares)) == 1
        print(f"  {'metric':16} {'bound':>6} " + " ".join(
            f"{'set ' + chr(65 + i) + ' q1/median/q3 (spread)':>44}" for i in range(len(sets)))
            + ("   worse  agree" if len(sets) == 2 else ""))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in per_set]
            cols = " ".join(f"{q1:12.5g} {q2:12.5g} {q3:12.5g} ({sp:5.3f})" for q1, q2, q3, sp in stats)
            line = f"  {name:16} {bound:6.3f} {cols}"
            if len(sets) == 2:
                a, b = stats[0][1], stats[1][1]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                spread_ok = name == "setup_s" or all(s[3] <= bound for s in stats)
                drift_ok = abs(worse) <= bound if args.same else worse <= bound
                agree = spread_ok and drift_ok
                ok &= agree
                line += f"  {worse:+6.3f}  {'yes' if agree else 'NO'}"
            print(line)
    if len(sets) == 2:
        test = "two-sided (--same)" if args.same else "one-sided"
        print(f"\nsets agree within every bound, {test}" if ok
              else f"\nsets DO NOT agree, {test}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("out", nargs="+")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workloads")
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    c = sub.add_parser("compare")
    c.add_argument("sets", nargs="+")
    c.add_argument("--same", action="store_true",
                   help="the sets ran the same code: medians must agree in both directions")
    a = p.parse_args()
    if a.cmd == "record":
        record(a)
        return 0
    if len(a.sets) > 2:
        p.error("compare takes one or two sets")
    return compare(a)


if __name__ == "__main__":
    sys.exit(main())

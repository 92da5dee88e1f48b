#!/usr/bin/env python3
"""Collect benchmark runs and compare two sets of them.

Result files hold the stdout of many runs back to back (every run prints a
``detail`` line and, last, its result object); ``collect`` writes them. It
runs untraced, at ``run_seconds`` of BENCHMARK.json, so both sides of a
comparison measure for the same time.

    # Ten seeds of every workload against one checkout:
    python3 perfbench/compare.py collect --out runs.txt --seeds 1-10

    # Alternating parent/change pairs (which side runs first alternates):
    python3 perfbench/compare.py collect --out parent.txt --seeds 1-10 \\
        --change-root ../change --change-out change.txt

    # Run-to-run spread of one set, against the bounds in BENCHMARK.json:
    python3 perfbench/compare.py spread runs.txt

    # Verdict per workload and end-to-end metric:
    python3 perfbench/compare.py diff parent.txt change.txt

``diff`` pairs the parent and change runs of the same workload and seed and
applies the pair rule: *improved* when the change wins at least nine tenths
of the pairs (ties count for neither) and the medians differ by more than the
parent's own quartile spread; *regressed* when the change's median is worse
than the parent's by more than the metric's bound; *unresolved* when the
parent's spread is wider than the bound and the change does not beat every
parent run; *unchanged* otherwise. A workload with a failed run (an op that
failed its check, so ``correct`` is false) or a run missing on either side
gets the verdict *failed* instead, and ``diff`` exits non-zero: no metric of a
change counts as improved when it fails ops the parent did not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def parse_runs(path):
    """Maps (workload, seed) to its untraced runs in a result file, in order.

    A run is its metrics, or None when it failed a check. A run that ended
    before printing its result is not in the map.
    """
    runs = {}
    detail = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "detail" in obj:
                detail = obj["detail"]
            elif "correct" in obj and detail is not None:
                if detail["trace"] == 0:
                    metrics = {k: v["value"] for k, v in detail["metrics"].items()}
                    runs.setdefault((detail["workload"], detail["seed"]), []).append(
                        metrics if obj["correct"] and obj["failed"] == 0 else None)
                detail = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root, workload, seed, seconds, out):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    with open(out, "a", encoding="utf-8") as f:
        f.write(proc.stdout)
    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
    print(f"{os.path.basename(root)} {workload} seed {seed}: {status}", file=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])


def collect(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    sides = [(ROOT, args.out)]
    if args.change_root:
        sides.append((os.path.abspath(args.change_root), args.change_out))
    for i, seed in enumerate(seeds_of(args.seeds)):
        for workload in workloads:
            order = sides if i % 2 == 0 else sides[::-1]
            for root, out in order:
                run_once(root, workload, seed, bench["run_seconds"], out)


def spread(args):
    bench = load_benchmark()
    runs = parse_runs(args.results)
    workloads = sorted({w for w, _ in runs})
    print(f"{'workload':<15} {'metric':<18} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
    worst, failed = 0.0, 0
    for workload in workloads:
        kept = [r for (w, _), rs in sorted(runs.items()) if w == workload for r in rs]
        failed += sum(1 for r in kept if r is None)
        kept = [r for r in kept if r is not None]
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in kept if r.get(m["name"]) is not None]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            share = (q3 - q1) / q2 if q2 else float("inf")
            worst = max(worst, share / m["bound"])
            flag = "" if share <= m["bound"] / 3 else "  > bound/3"
            print(f"{workload:<15} {m['name']:<18} {len(values):>3} {q2:>12.4f} "
                  f"{share:>8.4f} {m['bound']:>6}{flag}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if failed:
        print(f"{failed} failed runs left out")
    return 1 if failed else 0


def verdict(parent, change, metric):
    """The pair rule on runs paired by seed: lists of equal length."""
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    spread_share = (p3 - p1) / pm
    all_better = all(better(c, p) for c in change for p in parent)
    if wins >= 0.9 * len(parent) and abs(cm - pm) > (p3 - p1) and better(cm, pm):
        result = "improved"
    elif worse_by > metric["bound"]:
        result = "regressed"
    elif spread_share > metric["bound"] and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return wins, pm, (p1, p3), cm, result


def pairs_of(parent, change, workload):
    """Pairs the runs of `workload` by seed (and order within a seed).

    Returns (pairs, problems): a seed with a failed run, or with more runs on
    one side than the other, is a problem and gives no pair.
    """
    pairs, problems = [], []
    seeds = sorted({s for w, s in list(parent) + list(change) if w == workload})
    for seed in seeds:
        p, c = parent.get((workload, seed), []), change.get((workload, seed), [])
        if len(p) != len(c):
            problems.append(f"seed {seed}: {len(p)} parent runs, {len(c)} change runs")
        elif any(r is None for r in p + c):
            problems.append(f"seed {seed}: failed run "
                            f"(parent {sum(r is None for r in p)}, change {sum(r is None for r in c)})")
        else:
            pairs.extend(zip(p, c))
    return pairs, problems


def diff(args):
    bench = load_benchmark()
    parent, change = parse_runs(args.parent), parse_runs(args.change)
    print(f"{'workload':<15} {'metric':<18} {'parent median [q1, q3]':>34} "
          f"{'change median':>14} {'won':>7}  verdict")
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        pairs, problems = pairs_of(parent, change, workload)
        if problems:
            bad = True
            for problem in problems:
                print(f"{workload:<15} failed: {problem}")
            continue
        if not pairs:
            continue
        for m in bench["end_to_end"]:
            p = [pr[m["name"]] for pr, _ in pairs]
            c = [ch[m["name"]] for _, ch in pairs]
            wins, pm, (q1, q3), cm, result = verdict(p, c, m)
            bad |= result == "regressed"
            print(f"{workload:<15} {m['name']:<18} {pm:>12.4f} [{q1:>9.4f}, {q3:>9.4f}] "
                  f"{cm:>14.4f} {wins:>3}/{len(pairs):<3}  {result}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run seeds and append their output")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10", help="a seed or an inclusive range a-b")
    c.add_argument("--workloads", help="comma-separated; default: all")
    c.add_argument("--change-root", help="second checkout, run alternately")
    c.add_argument("--change-out")
    s = sub.add_parser("spread", help="quartile spread per workload and metric")
    s.add_argument("results")
    d = sub.add_parser("diff", help="parent vs change verdicts")
    d.add_argument("parent")
    d.add_argument("change")
    args = parser.parse_args()
    if args.cmd == "collect":
        if args.change_root and not args.change_out:
            parser.error("--change-root needs --change-out")
        collect(args)
        return 0
    if args.cmd == "spread":
        return spread(args)
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())

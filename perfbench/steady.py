#!/usr/bin/env python3
"""Steadiness report: run every workload on many seeds and summarise.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--seed-base 1]
        [--workloads a,b] [--held-back SEED] [--out report.md] [--json raw.json]
        [--compare earlier.json]

Run from the repository root. For each workload it makes `--runs` untraced
runs with seeds seed-base, seed-base+1, ..., and reports for every
end-to-end metric its median, first and third quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. `--held-back` adds one run
per workload on a seed kept out of development, shown beside the medians.
Every run's nproc, commit and build profile are recorded, and a line per
workload gives the host state the runs met: the calibration kernel's
median time, and the raw (unscaled) run_p50_ms and setup_s. `--compare`
reads the `--json` output of an earlier set and adds, per metric, how
far this set's median is worse than the earlier one's, as a share of
the earlier median, next to the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False, timeout=900)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return {"info": info, "result": result}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def host_state(runs, earlier_runs):
    """One line on the host state the runs met: the calibration kernel's
    median time per run, and the raw (unscaled) figures beside the
    scaled ones. With an earlier set, how far the host state moved."""
    def line(key):
        vals = [r["info"][key] for r in runs if key in r["info"]]
        if len(vals) < 2:
            return None, ""
        s = summarise(vals)
        return s["median"], f"{key} median {s['median']:.6g} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.4f})"
    cal, cal_text = line("cal_ms_p50")
    _, raw_p50 = line("raw_run_p50_ms")
    _, raw_setup = line("raw_setup_s")
    out = "Host state: " + "; ".join(t for t in (cal_text, raw_p50, raw_setup) if t) + "."
    if earlier_runs and cal:
        old = statistics.median(r["info"]["cal_ms_p50"] for r in earlier_runs if "cal_ms_p50" in r["info"])
        out += f" Calibration moved {(cal - old) / old:+.4f} against the earlier set."
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--held-back", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--json", default=None)
    ap.add_argument("--compare", default=None)
    a = ap.parse_args()
    earlier = None
    if a.compare:
        with open(a.compare) as f:
            earlier = json.load(f)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw = {}
    lines = ["# perfbench steadiness report\n",
             "Produced by `python3 perfbench/steady.py " + " ".join(sys.argv[1:]) + "`. "
             "Spread is (q3 - q1) / median over the runs; \"worse by\" is the median's "
             "change against the earlier set, as a share of the earlier median, "
             "positive when worse.\n"]
    for w in workloads:
        runs = []
        for seed in range(a.seed_base, a.seed_base + a.runs):
            r = run_once(w, seed, seconds)
            runs.append(r)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in r["result"]["metrics"].items()), file=sys.stderr)
        held = run_once(w, a.held_back, seconds) if a.held_back is not None else None
        raw[w] = {"runs": runs, "held_back": held}
        hosts = sorted({(r["info"]["nproc"], r["info"]["commit"], r["info"]["profile"]) for r in runs})
        fails = sum(r["result"]["failed"] for r in runs)
        tries = sum(r["result"]["attempted"] for r in runs)
        lines.append(f"### {w}\n")
        lines.append(f"{len(runs)} runs, seeds {a.seed_base}..{a.seed_base + a.runs - 1}, "
                     f"{seconds} s each; nproc/commit/profile: "
                     + "; ".join(f"{n}/{c}/{p}" for n, c, p in hosts)
                     + f"; failed {fails} of {tries} operations.\n")
        head = "| metric | unit | median | q1 | q3 | spread | bound | spread/bound |"
        if held:
            head += f" held-back seed {a.held_back} |"
        if earlier and w in earlier:
            head += " earlier median | worse by |"
        lines.append(head)
        lines.append("|" + "---|" * (head.count("|") - 1))
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            s = summarise(vals)
            row = (f"| {m['name']} | {m['unit']} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                   f"| {s['spread']:.4f} | {m['bound']} | {s['spread'] / m['bound']:.2f} |")
            if held:
                row += f" {held['result']['metrics'][m['name']]['value']:.6g} |"
            if earlier and w in earlier:
                old = statistics.median(
                    r["result"]["metrics"][m["name"]]["value"] for r in earlier[w]["runs"])
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (s["median"] - old) / old if old else 0.0
                row += f" {old:.6g} | {worse:+.4f} |"
            lines.append(row)
        lines.append("")
        lines.append(host_state(runs, earlier[w]["runs"] if earlier and w in earlier else None))
        lines.append("")
    report = "\n".join(lines)
    print(report)
    if a.out:
        with open(a.out, "w") as f:
            f.write(report + "\n")
    if a.json:
        with open(a.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

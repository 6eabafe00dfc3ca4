#!/usr/bin/env python3
"""Run every workload at ten seeds and print, for each end-to-end metric, the
distance between the first and third quartile of its ten values as a share of
their median, beside the metric's bound. This is the check the acceptance
driver makes; a spread above a third of the bound is marked.

Run from the repository root:  python3 benchmark/spread.py [first_seed [workload ...] [-v]]
(-v also prints the ten values)
"""
import json
import statistics
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
only = [a for a in sys.argv[2:] if a != "-v"]
verbose = "-v" in sys.argv
worst = 0.0
for wl in spec["workloads"]:
    if only and wl["name"] not in only:
        continue
    values = {}
    for seed in range(first, first + 10):
        cmd = spec["command"] + ["--workload", wl["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"{wl['name']} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        mark = ""
        if m["name"] != "setup_s" and spread > m["bound"] / 3:
            mark = "  > bound/3"
            worst = max(worst, spread / m["bound"])
        print(f"{wl['name']:16s} {m['name']:24s} median {med:14.6g} {m['unit']:6s} "
              f"spread {spread:7.4f}  bound {m['bound']:.3f}{mark}", flush=True)
        if verbose:
            print("    " + " ".join(f"{x:.5g}" for x in v), flush=True)
if worst > 1:
    sys.exit("a spread exceeds its bound")

#!/usr/bin/env python3
"""Collect result sets of the serving benchmark and compare them.

    python3 perfbench/compare.py collect DIR [--seeds 1-10] [--workloads a,b]
    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py diff BASE NEW

A result set is a directory of saved benchmark outputs, one file per run
(`collect` writes DIR/<workload>-trace<t>-seed<n>.txt). Every run lasts
BENCHMARK.json's run_seconds. `collect` saves untraced runs of every
workload plus traced runs of fleet_sim_flash, whose fleet.* counts `diff`
compares. `spread` prints, per workload and end-to-end metric, the
median and the quartile spread as a share of the median, and flags a spread
above a third of the metric's bound in BENCHMARK.json; it exits 1 if any is
flagged. `diff` refuses result sets whose runs differ in length (exit 2). It calls
each workload x end-to-end metric better or worse (the medians differ by
more than the bound), same (within the bound) or unresolved (either side's
spread is wider than the bound and the runs overlap), and compares the
fleet.* counts of traced runs of equal seeds exactly. It exits 1 when a
metric is worse or a fleet count differs.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_run(text):
    """(header fields, host record, result record) of one saved output."""
    lines = [l for l in text.splitlines() if l.strip()]
    header = dict(zip(*[iter(lines[0].split())] * 2))
    host = json.loads(lines[-2])
    result = json.loads(lines[-1])
    return header, host, result


def load(directory):
    """({(workload, trace): [(seed, host, result), ...]}, {run seconds}) of a result set."""
    runs, seconds = {}, set()
    for path in sorted(pathlib.Path(directory).glob("*.txt")):
        header, host, result = parse_run(path.read_text())
        key = (header["workload"], header["trace"])
        runs.setdefault(key, []).append((header["seed"], host, result))
        seconds.add(header["seconds"])
    return runs, seconds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    q1, q2, q3 = quartiles(values)
    return statistics.median(values), (q3 - q1) / q2 if q2 else 0.0


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_collect(args):
    out = pathlib.Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    s = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    status = 0
    for w in workloads:
        traces = ["0", "1"] if w == "fleet_sim_flash" else ["0"]
        for seed in parse_seeds(args.seeds):
            for t in traces:
                cmd = [*s["command"], "--workload", w, "--seed", str(seed),
                       "--seconds", str(s["run_seconds"]), "--trace", t]
                r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
                if last.startswith("{"):
                    (out / f"{w}-trace{t}-seed{seed}.txt").write_text(r.stdout)
                print(f"{w} seed {seed} trace {t}: exit {r.returncode} {last[:160]}")
                status = status or r.returncode
    return status


def cmd_spread(args):
    s = spec()
    runs, _ = load(args.dir)
    ok = True
    for (workload, trace), rs in sorted(runs.items()):
        if trace != "0":
            continue
        print(f"{workload} ({len(rs)} runs)")
        for m in s["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, _, r in rs]
            med, spread = summary(values)
            if spread <= m["bound"] / 3:
                flag = "ok"
            elif spread <= m["bound"]:
                flag = "within bound, above a third"
            else:
                flag = "OVER BOUND"
            ok = ok and flag == "ok"
            print(f"  {m['name']:<16} median {med:14.6g} {m['unit']:<6} spread {spread:7.2%}"
                  f"  (bound {m['bound']:.0%}) {flag}")
    return 0 if ok else 1


def verdict(base, new, bound, better):
    """better / worse / same / unresolved for two lists of one metric."""
    mb, sb = summary(base)
    mn, sn = summary(new)
    change = (mn - mb) / mb if mb else 0.0
    gain = change if better == "higher" else -change
    if max(sb, sn) > bound:
        lo_new, hi_new = min(new), max(new)
        lo_base, hi_base = min(base), max(base)
        wins = lo_new > hi_base if better == "higher" else hi_new < lo_base
        return ("better" if wins else "unresolved"), change
    if gain > bound:
        return "better", change
    if gain < -bound:
        return "worse", change
    return "same", change


def cmd_diff(args):
    s = spec()
    (base, base_seconds), (new, new_seconds) = load(args.base), load(args.new)
    if len(base_seconds | new_seconds) > 1:
        print(f"result sets differ in run length: base {sorted(base_seconds)} s, "
              f"new {sorted(new_seconds)} s; not compared")
        return 2
    worse = False
    for side, runs in (("base", base), ("new", new)):
        hosts = {json.dumps({k: h[k] for k in ("cpu_model", "nproc", "simd", "build_type",
                                                "compiler", "commit", "source_digest")})
                 for rs in runs.values() for _, h, _ in rs}
        for h in sorted(hosts):
            print(f"{side} host: {h}")
    print(f"{'workload':<24} {'metric':<16} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace != "0":
            continue
        for m in s["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for _, _, r in base[key]]
            n = [r["metrics"][m["name"]]["value"] for _, _, r in new[key]]
            v, change = verdict(b, n, m["bound"], m["better"])
            worse = worse or v == "worse"
            print(f"{workload:<24} {m['name']:<16} {statistics.median(b):12.6g} "
                  f"{statistics.median(n):12.6g} {change:+8.2%}  {v}")
    compared = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace != "1":
            continue
        b = {seed: r["metrics"] for seed, _, r in base[key]}
        n = {seed: r["metrics"] for seed, _, r in new[key]}
        for seed in sorted(set(b) & set(n), key=int):
            fleet = [k for k in b[seed] if k.startswith("fleet.") and not k.endswith("_s")]
            differ = [k for k in fleet if b[seed][k]["value"] != n[seed][k]["value"]]
            if any(b[seed][k]["value"] for k in fleet):
                compared += 1
                worse = worse or bool(differ)
                print(f"{workload:<24} fleet counts seed {seed}: "
                      + ("equal" if not differ else "DIFFER in " + ", ".join(differ)))
    if compared == 0:
        print("fleet counts NOT compared: no traced fleet_sim_flash runs of a common seed "
              "on both sides")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = p.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())

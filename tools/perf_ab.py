#!/usr/bin/env python3
"""Interleaved perfbench A/B of this checkout against the commit it changes.

    python3 tools/perf_ab.py [--base REF] [--pairs N] [--seconds S]
                             [--seed N] [--workload NAME ...] [--cpus LIST]
                             [--claim TEXT] [--record FILE]

The change side is this checkout's working tree: HEAD plus any uncommitted
edits to tracked files. The base side is the commit the change sits on:
HEAD when the tree has such edits, HEAD~1 when it is clean (the change is
the last commit), or REF when given. It is checked out as a detached git
worktree under .perf_ab/base. The tool stops when the base is HEAD and the
tree is clean, since both sides would be the same code. Each side builds
with its own perfbench/run.py (Release, under <tree>/.bench_build).

Pair i runs every workload once per side at seed --seed + i, the base first
on even pairs and the change first on odd ones, optionally pinned with
`taskset -c LIST`. Both sides must report correct results and the same
per-seed sim_digest lines. For each end-to-end metric of BENCHMARK.json the
tool prints the median of each side, the base's interquartile range, the
median per-pair ratio and the number of pairs the change won. --record
appends one row with the commits, host, compiler, pairs and each workload's
effective config to a JSON list (BENCH_perfbench.json by convention).
Exits 1 when a run fails or a digest differs.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def dirty():
    """True when tracked files have uncommitted edits."""
    return bool(git("status", "--porcelain", "--untracked-files=no"))


def base_tree(ref):
    """The base source tree and its commit."""
    if ref is None:
        ref = "HEAD" if dirty() else "HEAD~1"
    rev = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    if rev == git("rev-parse", "HEAD") and not dirty():
        sys.exit(f"perf_ab: base {ref} is HEAD and the tree is clean; "
                 "both sides would build the same code")
    tree = ROOT / ".perf_ab" / "base"
    if tree.exists():
        git("checkout", "--quiet", "--detach", rev, cwd=tree)
    else:
        git("worktree", "add", "--quiet", "--detach", str(tree), rev)
    return tree, rev


def clean_env():
    # perfbench refuses to run with any run knob set.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("STAGTM_")}


def build(tree):
    """Builds and self-tests perfbench in `tree`; returns the binary."""
    subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                    "--selftest"], check=True, env=clean_env(),
                   stdout=sys.stderr)
    return tree / ".bench_build" / "perfbench" / "perfbench"


def run(binary, workload, seed, seconds, cpus):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if cpus:
        cmd = ["taskset", "-c", cpus, *cmd]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         env=clean_env())
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"perf_ab: {' '.join(cmd)} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    return {
        "config": json.loads(lines[0])["config"],
        "digests": [l for l in lines if l.startswith("sim_digest ")],
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(v):
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metric, base_runs, change_runs):
    name, lower = metric["name"], metric["better"] == "lower"
    b = [r["metrics"][name] for r in base_runs]
    c = [r["metrics"][name] for r in change_runs]
    q1, q3 = quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    return {
        "base_median": statistics.median(b),
        "change_median": statistics.median(c),
        "base_iqr": q3 - q1,
        "ratio_median": statistics.median(
            y / x for x, y in zip(b, c) if x != 0) if any(b) else 1.0,
        "wins": wins,
    }


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--cpus")
    ap.add_argument("--claim", default="")
    ap.add_argument("--record")
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("perf_ab: --pairs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = {w["name"]: w for w in bench["workloads"]}
    workloads = args.workload or list(rows)
    for w in workloads:
        if w not in rows:
            sys.exit(f"perf_ab: unknown workload {w}")

    base_dir, base_rev = base_tree(args.base)
    sides = {"base": build(base_dir), "change": build(ROOT)}
    runs = {w: {"base": [], "change": []} for w in workloads}
    bad = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for w in workloads:
            got = {s: run(sides[s], w, seed, args.seconds, args.cpus)
                   for s in order}
            for s in order:
                runs[w][s].append(got[s])
                if not got[s]["correct"]:
                    print(f"{w} seed {seed}: {s} reported failures")
                    bad += 1
            if got["base"]["digests"] != got["change"]["digests"]:
                print(f"{w} seed {seed}: sim_digest lines differ")
                bad += 1
            print(f"pair {i + 1}/{args.pairs} {w} seed {seed} done",
                  file=sys.stderr)

    summary = {}
    for w in workloads:
        summary[w] = {m["name"]: summarize(m, runs[w]["base"],
                                           runs[w]["change"])
                      for m in bench["end_to_end"]}
        print(f"\n{w} ({args.pairs} pairs, {args.seconds} s per run)")
        print(f"  {'metric':<18} {'base':>12} {'change':>12} {'delta':>8} "
              f"{'base IQR':>10} {'ratio':>7} {'wins':>6}")
        for name, s in summary[w].items():
            delta = (s["change_median"] / s["base_median"] - 1
                     if s["base_median"] else 0.0)
            print(f"  {name:<18} {s['base_median']:12.6g} "
                  f"{s['change_median']:12.6g} {delta:+8.1%} "
                  f"{s['base_iqr']:10.3g} {s['ratio_median']:7.3f} "
                  f"{s['wins']:>3}/{args.pairs}")

    if args.record:
        first = runs[workloads[0]]["change"][0]["config"]
        row = {
            "claim": args.claim,
            "commit": git("rev-parse", "HEAD"),
            "dirty": dirty(),
            "parent": base_rev,
            "host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                     "taskset": args.cpus},
            "compiler": first["compiler"],
            "build_type": first["build_type"],
            "pairs": args.pairs,
            "seconds": args.seconds,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "digests_equal": bad == 0,
            "workloads": {w: {"benchmark": rows[w],
                              "config": runs[w]["change"][0]["config"],
                              "metrics": summary[w]}
                          for w in workloads},
        }
        path = Path(args.record)
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(row)
        path.write_text(json.dumps(history, indent=1) + "\n")
        print(f"\nrecorded in {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

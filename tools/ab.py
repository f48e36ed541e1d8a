"""Interleaved A/B of this checkout against a git revision on one perfbench workload.

    python tools/ab.py REV --workload rmat-engine --pairs 10 --seed 5001

REV is exported (``git archive``) into a fresh directory, so the
repository itself is left untouched.  Pair i runs ``perfbench/run.py``
once in each tree with seed ``--seed + i``; even pairs run REV first, odd
pairs the checkout first.  ``perfbench/run.py`` waits for the previous Ray
session to end, so one session runs at a time.

For every metric the runs report (the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``) it prints each side's median and
quartiles, the number of pairs the checkout won (ties count for neither),
and the median gap against REV's interquartile range.  Each run lasts
``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> str:
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = os.path.join(dest, sha[:12])
    if not os.path.isdir(tree):
        # extract beside the final name and rename once complete, so an
        # interrupted export is never reused as the base tree
        os.makedirs(dest, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=sha[:12] + ".", dir=dest)
        try:
            archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                       stdout=subprocess.PIPE)
            subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
            if archive.wait():
                raise RuntimeError(f"git archive {sha} failed")
            os.rename(tmp, tree)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
    return tree


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {p.returncode}")
    return json.loads(lines[-1])


def summarize(runs: dict, better: dict) -> list[str]:
    """One line per metric: medians and quartiles, wins, gap vs base IQR."""
    base, change = runs["base"], runs["change"]
    out = [f"{'metric':<32}{'base med [q1, q3]':>34}{'change med [q1, q3]':>34}"
           f"{'wins':>8}{'gap':>11}{'base IQR':>11}"]
    names = dict.fromkeys(k for r in base + change for k in r["metrics"])
    for name in names:
        # a run that stopped early may lack a metric: NaN, left out below
        b, c = ([r["metrics"].get(name, {}).get("value", np.nan) for r in side]
                for side in (base, change))
        b, c = np.array(b, dtype=float), np.array(c, dtype=float)
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = int(np.sum(sign * (c - b) > 0))
        bq, cq = np.nanpercentile(b, [25, 50, 75]), np.nanpercentile(c, [25, 50, 75])
        gap = sign * (cq[1] - bq[1])  # > 0: the checkout is better
        iqr = bq[2] - bq[0]
        med = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (bq, cq)]
        out.append(
            f"{name:<32} {med[0]:>33} {med[1]:>33}{f'{wins}/{len(b)}':>8}"
            f"{gap:>11.4g}{iqr:>11.4g}" + ("  gap > IQR" if gap > iqr else ""))
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        out.append(f"{side}: {failed} failed of {attempted} calls, "
                   f"correct in {sum(r['correct'] for r in runs[side])}/"
                   f"{len(runs[side])} runs")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev", help="git revision to compare against (the base)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", default=os.path.join(tempfile.gettempdir(), "raygraph-ab"),
                   help="where REV is exported")
    a = p.parse_args(argv)

    trees = {"base": export(a.rev, a.dir), "change": ROOT}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    runs = {"base": [], "change": []}
    for i in range(a.pairs):
        seed = a.seed + i
        for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
            r = run_once(trees[side], a.workload, seed, bench["run_seconds"], a.trace)
            runs[side].append(r)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()
                            if k in ("wall_s", "algos.lpa_s"))
            print(f"pair {i} seed {seed} {side}: {vals}", file=sys.stderr, flush=True)
    print(f"{a.workload}: {a.pairs} interleaved pairs, base {a.rev}, "
          f"seeds {a.seed}..{a.seed + a.pairs - 1}, trace {a.trace}")
    print("\n".join(summarize(runs, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

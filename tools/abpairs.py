#!/usr/bin/env python
"""Alternating perfbench pairs of two commits, with one verdict per metric.

Usage (from the repository root)::

    python tools/abpairs.py BASE HEAD

Each commit is exported with ``git archive`` into a temporary directory
(``$TMPDIR``), which is deleted at exit.  For each of ``SEEDS`` (1-10)
and every workload of ``BENCHMARK.json``, both sides run their own
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds``, one
after the other: the parent (BASE) first on odd seeds, the change (HEAD)
first on even ones.  The ``HELD_OUT`` seed (23) runs the same way and is
reported apart, with no verdict.

For each end-to-end metric of ``BENCHMARK.json`` and each workload, the
report gives each side's median [Q1, Q3], the change/parent ratio of the
medians, and the pairs the change won (ties count for neither side; the
metric's ``better`` sets the direction).  Each metric gets one verdict:

``gain``
    the change won at least 9 of 10 pairs, and its median moved the
    right way by more than the parent's interquartile range;
``worse``
    the median is worse by more than the metric's ``bound``, and the
    metric is resolved;
``unresolved``
    the parent's interquartile range, relative to its median, exceeds
    the bound, unless every change run beats every parent run;
``within bound``
    anything else.

A metric that some run of a workload did not report (a run that died
before its summary line) gets no verdict on that workload and is listed
as unjudged.

The report is printed and written, with every run and the hashes of
each side's ``TREES``, to ``BENCH_perfbench.json``.  Its ``checks``
(``all_runs_correct``, ``no_metric_worse``) are gated by
``tools/bench_report.py``.  Exit status is non-zero when any run exits
non-zero, is not ``correct: true`` or reports failed ops.
"""

import argparse
import io
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
#: the paired seeds; each gives one pair per workload
SEEDS = list(range(1, 11))
#: a seed run the same way as the pairs and reported apart
HELD_OUT = 23
#: the directories whose tree hashes are recorded per side, so a later
#: commit can be matched to the code that was measured
TREES = ("src", "perfbench", "tools")
OUT = REPO_ROOT / "BENCH_perfbench.json"


# -- the schedule -------------------------------------------------------------

def order(seed):
    """The sides of one pair in running order: the parent first on odd
    seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def schedule(seeds, workloads):
    """``(seed, workload, side)`` for every run, in running order."""
    return [(seed, workload, side) for seed in seeds
            for workload in workloads for side in order(seed)]


# -- one run ------------------------------------------------------------------

def parse_run(code, stdout):
    """A run's record from its exit status and standard output, whose
    last line is perfbench's JSON summary."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        summary = json.loads(lines[-1])
        metrics = {name: float(entry["value"])
                   for name, entry in summary["metrics"].items()}
        record = {"correct": summary["correct"] is True,
                  "attempted": int(summary["attempted"]),
                  "failed": int(summary["failed"]), "metrics": metrics}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        record = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}, "error": "no JSON summary line"}
    record["exit"] = code
    record["ok"] = (code == 0 and record["correct"]
                    and record["failed"] == 0)
    return record


def perfbench_runner(trees, seconds):
    """A runner: ``run(side, workload, seed)`` runs that side's own
    ``perfbench/run.py`` from its exported tree."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONPATH"}

    def run(side, workload, seed):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=trees[side], env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        return parse_run(done.returncode, done.stdout)

    return run


def run_all(runner, seeds, workloads, log=None):
    """Every run of the schedule, each record tagged with its seed,
    workload, side and position in running order."""
    runs = []
    for position, (seed, workload, side) in enumerate(
            schedule(seeds, workloads)):
        record = runner(side, workload, seed)
        record.update(seed=seed, workload=workload, side=side,
                      position=position)
        runs.append(record)
        if log is not None:
            log(record)
    return runs


# -- statistics ---------------------------------------------------------------

def quartiles(values):
    """``(Q1, median, Q3)``, inclusive method (the data's own range)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(direction, a, b):
    """Whether ``a`` reads better than ``b`` under ``direction``."""
    return a > b if direction == "higher" else a < b


def judge(spec, base, head):
    """One metric on one workload: the paired values of each side, in
    seed order, summarised and given one verdict."""
    direction, bound = spec["better"], spec["bound"]
    b_q1, b_med, b_q3 = quartiles(base)
    h_q1, h_med, h_q3 = quartiles(head)
    wins = sum(better(direction, h, b) for b, h in zip(base, head))
    losses = sum(better(direction, b, h) for b, h in zip(base, head))
    scale = abs(b_med) or 1.0
    # the change's move, positive when it reads better
    move = (h_med - b_med) / scale
    if direction != "higher":
        move = -move
    spread = (b_q3 - b_q1) / scale
    dominates = all(better(direction, h, b) for h in head for b in base)
    resolved = spread <= bound or dominates
    if 10 * wins >= 9 * len(base) and move > spread:
        verdict = "gain"
    elif move < -bound and resolved:
        verdict = "worse"
    elif not resolved:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"unit": spec.get("unit", ""), "better": direction,
            "bound": bound,
            "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
            "head": {"median": h_med, "q1": h_q1, "q3": h_q3},
            "ratio": h_med / b_med if b_med else math.nan,
            "wins": wins, "losses": losses,
            "ties": len(base) - wins - losses, "pairs": len(base),
            "parent_rel_iqr": spread, "verdict": verdict}


def values(runs, workload, seed_list, side, metric):
    """``metric`` of each of ``side``'s runs of ``workload``, in the
    order of ``seed_list``."""
    by_seed = {run["seed"]: run for run in runs
               if run["workload"] == workload and run["side"] == side}
    return [by_seed[seed]["metrics"][metric] for seed in seed_list]


def report(runs, specs, seeds, workloads, held_out):
    """``(workloads, checks)``: the verdict table of every metric on
    every workload, with the held-out seed's pair apart."""
    names = [spec["name"] for spec in specs]
    table = {}
    for workload in workloads:
        mine = [run for run in runs if run["workload"] == workload]
        # a run that died before its summary line reports no metrics
        judged = [spec for spec in specs
                  if all(spec["name"] in run["metrics"] for run in mine)]
        metrics = {spec["name"]: judge(
            spec, values(runs, workload, seeds, "base", spec["name"]),
            values(runs, workload, seeds, "head", spec["name"]))
            for spec in judged}
        pair = {}
        for name in metrics:
            (base,) = values(runs, workload, [held_out], "base", name)
            (head,) = values(runs, workload, [held_out], "head", name)
            pair[name] = {"base": base, "head": head,
                          "ratio": head / base if base else math.nan}
        table[workload] = {
            "metrics": metrics,
            "unjudged": [name for name in names if name not in metrics],
            "held_out": {"seed": held_out, "metrics": pair}}
    checks = {"all_runs_correct": all(run["ok"] for run in runs),
              # an unjudged metric may be worse
              "no_metric_worse": not any(
                  entry["unjudged"] or any(
                      metric["verdict"] == "worse"
                      for metric in entry["metrics"].values())
                  for entry in table.values())}
    return table, checks


def render(table, checks):
    lines = []
    for workload, entry in table.items():
        lines.append(f"{workload}: median [Q1, Q3] parent -> change, "
                     "ratio, change wins")
        for name, metric in entry["metrics"].items():
            base, head = metric["base"], metric["head"]
            lines.append(
                f"  {name:<16} {base['median']:10.4g} "
                f"[{base['q1']:.4g}, {base['q3']:.4g}] -> "
                f"{head['median']:10.4g} [{head['q1']:.4g}, "
                f"{head['q3']:.4g}]  x{metric['ratio']:.3f}  "
                f"{metric['wins']}/{metric['pairs']}  {metric['verdict']}")
        if entry["unjudged"]:
            lines.append("  unjudged (a run reported no metrics): "
                         + ", ".join(entry["unjudged"]))
        held = entry["held_out"]
        lines.append(f"  held-out seed {held['seed']}: " + ", ".join(
            f"{name} x{pair['ratio']:.3f}"
            for name, pair in held["metrics"].items()))
    lines.append("checks: " + ", ".join(
        f"{name}={value}" for name, value in checks.items()))
    return "\n".join(lines)


# -- the two trees ------------------------------------------------------------

def git(*args):
    return subprocess.run(["git", "-C", str(REPO_ROOT), *args],
                          check=True, capture_output=True).stdout


def export(rev, directory):
    """Extract commit ``rev``'s tree into ``directory``; the commit's
    hash and the hashes of its ``TREES``."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode()
    commit = commit.strip()
    archive = io.BytesIO(git("archive", "--format=tar", commit))
    with tarfile.open(fileobj=archive) as tar:
        tar.extractall(directory, filter="data")
    # "<mode> tree <hash>\t<path>" for each of TREES the commit has
    listing = git("ls-tree", commit, *TREES).decode().splitlines()
    trees = {line.split("\t")[1]: line.split()[2] for line in listing}
    return {"commit": commit, "trees": trees}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="the parent commit")
    parser.add_argument("head", help="the change's commit")
    args = parser.parse_args(argv)

    bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in bench["workloads"]]
    root = tempfile.mkdtemp(prefix="abpairs-")
    try:
        trees, sides = {}, {}
        for side, rev in zip(SIDES, (args.base, args.head)):
            trees[side] = os.path.join(root, side)
            sides[side] = {"rev": rev, **export(rev, trees[side])}

        def log(record):
            print(f"seed {record['seed']:>2} {record['workload']:<12} "
                  f"{record['side']:<4} exit {record['exit']} "
                  f"correct {record['correct']} failed {record['failed']}",
                  flush=True)

        runs = run_all(perfbench_runner(trees, bench["run_seconds"]),
                       SEEDS + [HELD_OUT], workloads, log)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    table, checks = report(runs, bench["end_to_end"], SEEDS, workloads,
                           HELD_OUT)
    print(render(table, checks))
    payload = {
        "checks": checks, **sides,
        "settings": {"seconds": bench["run_seconds"], "seeds": SEEDS,
                     "held_out": HELD_OUT, "workloads": workloads},
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version()},
        "workloads": table,
        "runs": runs,
    }
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    return 0 if checks["all_runs_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

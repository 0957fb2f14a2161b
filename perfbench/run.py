"""The repository benchmark: time to a verification verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py``):
``mesi-exhaustive``, ``mesi-spill``, ``mesi-sharded`` and
``zoo-sweep``; ``smoke`` is a tiny instance for the smoke test.

Every repetition runs in a fresh ``job.py`` subprocess, one after
another, so peak RSS, CPU time and set-up time belong to that
repetition alone; a sharded search forks two workers of its own.

``--trace 0`` measures the end-to-end metrics with the program as
shipped: repetitions continue until ``--seconds`` have passed (at
least three of a single search, one sweep), then a few set-up-only
processes add set-up samples.  Values are medians over repetitions;
the per-job percentiles are Harrell-Davis estimates over the jobs.

``--trace 1`` measures the per-layer split instead: one untraced
repetition, then traced ones with ``tracer.Tracer`` wrappers around
each layer's entry points (two of a single search; the sweep repeats
every protocol inside itself).  Their exact work counters must agree
bit for bit, and with the untraced repetition's.

Every job's verdict, state and transition counts are checked against
the pinned answers, and every counterexample against an independent
serial-reordering oracle.  A failed check counts in ``failed``; a
counter that does not repeat makes ``correct`` false.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``reference.json`` records the traced split of the program as it was
when this benchmark was defined (seed 1), for later changes to cite.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench-tmp")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Job, jobs_for  # noqa: E402

#: set-up-only processes per untraced run, beside the repetitions
SETUP_PROBES = 5
#: repetitions of a single search per untraced run, at least; three
#: make the median robust to one disturbed repetition
MIN_SINGLE_REPS = 3
#: a run starts no repetition that would end after this many seconds,
#: and kills one still running 20 s later: every run ends within 180 s
RUN_DEADLINE_S = 150.0

E2E_UNITS = {
    "verify_s": "s",
    "states_per_s": "states/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p75_s": "s",
}

LAYER_UNITS = {
    "memory.transitions_s": "s",
    "memory.successors": "count",
    "observer.step_s": "s",
    "observer.fork_s": "s",
    "observer.steps": "count",
    "observer.max_live_nodes": "count",
    "key.canonical_s": "s",
    "key.orbit_s": "s",
    "key.keys": "count",
    "reduction.orbit_hit_ratio": "ratio",
    "checker.step_s": "s",
    "checker.steps": "count",
    "checker.skip_ratio": "ratio",
    "store.lookup_s": "s",
    "store.intern_s": "s",
    "store.set_parent_s": "s",
    "store.lookups": "count",
    "store.new_keys": "count",
    "store.revisit_ratio": "ratio",
    "store.probe_avg": "probes/lookup",
    "store.spilled_keys": "count",
    "store.spill_bytes": "bytes",
    "store.io_s": "s",
    "por.select_s": "s",
    "por.ample_ratio": "ratio",
    "engine.self_s": "s",
    "engine.end_check_s": "s",
    "parallel.rounds": "count",
    "parallel.coordinator_s": "s",
    "parallel.records_routed": "count",
    "parallel.batch_bytes": "bytes",
    "parallel.shard_imbalance": "ratio",
    "replay.cx_s": "s",
    "replay.cx_len": "count",
    "setup.reduction_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


class JobFailed(RuntimeError):
    """A repetition process crashed, timed out or printed no result."""


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Run one repetition in a fresh process and return its result.
    The process leads its own group, so a timeout or an interrupt
    also stops the search workers it forked."""
    env = dict(os.environ, PYTHONPATH=SRC, PERFBENCH_TMP=TMP)
    cmd = [sys.executable, os.path.join(HERE, "job.py"), workload, str(seed), mode]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise JobFailed(f"{workload} {mode} repetition timed out") from None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise JobFailed(f"{workload} {mode} repetition exited {proc.returncode}")
    try:
        return json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise JobFailed(f"{workload} {mode} repetition printed no result") from None


def job_failures(job: Job, rec: dict) -> List[str]:
    """Every correctness check one job failed (empty = passed)."""
    bad = []
    c = rec["counters"]
    if rec["ok"] != job.sc:
        bad.append(f"verdict {'SC' if rec['ok'] else 'violation'}, expected "
                   f"{'SC' if job.sc else 'violation'}")
    if job.sc and not rec["complete"]:
        bad.append("proof incomplete")
    if (c["states"], c["transitions"]) != (job.states, job.transitions):
        bad.append(f"explored {c['states']}/{c['transitions']} states/transitions, "
                   f"pinned {job.states}/{job.transitions}")
    if not job.sc and rec["cx_sc"] is not False:
        bad.append("counterexample trace not rejected by the serial-reordering oracle")
    return [f"{job.protocol}: {msg}" for msg in bad]


class Run:
    """Repetitions of one workload, their checks and their counters."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.jobs = jobs_for(workload, seed)
        self.sweep = len(self.jobs) > 1
        self.t0 = time.perf_counter()
        #: jobs run, and jobs that failed a check or whose process died
        self.attempted = 0
        self.failed = 0
        #: search repetitions that completed (set-up probes excluded)
        self.repetitions = 0
        self.messages: List[str] = []
        #: exact counters that did not repeat
        self.mismatches: List[str] = []
        #: first exact-counter reading per (job protocol, counter set)
        self._counters: Dict[Tuple[str, str], dict] = {}

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.t0)

    def repetition(self, mode: str) -> Optional[dict]:
        """One checked repetition; ``None`` when its process failed.
        A failed process fails every job it ran (a set-up probe
        counts as one attempt)."""
        n = len(self.jobs) if mode != "setup" else 1
        try:
            rep = spawn(self.workload, self.seed, mode, self.remaining() + 20.0)
        except JobFailed as exc:
            self.attempted += n
            self.failed += n
            self.messages.append(str(exc))
            return None
        if mode == "setup":
            return rep
        self.attempted += n
        self.repetitions += 1
        for job, rec in zip(self.jobs, rep["jobs"]):
            failures = job_failures(job, rec)
            self.failed += bool(failures)
            self.messages += failures
            self._repeat("counters", job.protocol, rec["counters"])
            if "trace" in rec:
                t = rec["trace"]
                self._repeat("trace", job.protocol,
                             {"calls": t["calls"], "counts": t["counts"]})
            if "parallel" in rec:
                p = rec["parallel"]
                self._repeat("parallel", job.protocol,
                             {k: p[k] for k in ("rounds", "expanded",
                                                "records_routed", "batch_bytes")})
        return rep

    def _repeat(self, kind: str, protocol: str, counters: dict) -> None:
        """Exact work counters must repeat bit-identically."""
        first = self._counters.setdefault((protocol, kind), counters)
        if counters != first:
            diff = sorted(k for k in set(first) | set(counters)
                          if first.get(k) != counters.get(k))
            self.mismatches.append(f"{protocol}: {kind} counters differ "
                                   f"between repetitions: {', '.join(diff)}")


def verify_s(rep: dict) -> float:
    """Search start to verdict, summed over the repetition's jobs."""
    return sum(j["verify_s"] for j in rep["jobs"])


def setup_s(rep: dict) -> float:
    """Import once plus every job's search construction."""
    return rep["import_s"] + sum(j["construct_s"] for j in rep["jobs"])


def hd_quantile(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: the average of all
    order statistics, weighted by the Beta((n+1)p, (n+1)(1-p)) mass
    over each one's rank interval.  A sweep's middle jobs are a few
    copies of one or two protocols, so the plain sample quantile
    reads one or two noisy jobs; this one reads the neighbourhood."""
    xs = sorted(values)
    n, k = len(xs), 64
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # midpoint rule: never evaluates the density at an endpoint, where
    # it is infinite for b < 1
    dens = [((j + 0.5) / (k * n)) ** (a - 1) * (1 - (j + 0.5) / (k * n)) ** (b - 1)
            for j in range(k * n)]
    mass = [sum(dens[i * k:(i + 1) * k]) for i in range(n)]
    return sum(m * x for m, x in zip(mass, xs)) / sum(mass)


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    """Untraced repetitions until ``seconds`` have passed."""
    run.repetition("setup")  # warm bytecode caches; not a sample
    reps = []
    start = time.perf_counter()
    min_reps = 1 if run.sweep else MIN_SINGLE_REPS
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        if reps and run.remaining() < 2 * verify_s(reps[-1]):
            break
        rep = run.repetition("run")
        if rep is None:
            break
        reps.append(rep)
    if not reps:
        return {}
    setups = [setup_s(r) for r in reps]
    for _ in range(SETUP_PROBES):
        probe = run.repetition("setup")
        if probe is not None:
            setups.append(setup_s(probe))
    # per-job time to verdict: set-up, search and replay; a single
    # search is its repetition's only job, so its set-up has the import
    if run.sweep:
        per_rep = [[j["construct_s"] + j["verify_s"] for j in r["jobs"]] for r in reps]
    else:
        per_rep = [[setup_s(r) + verify_s(r) for r in reps]]
    med = statistics.median
    return {
        "verify_s": med(verify_s(r) for r in reps),
        "states_per_s": med(
            sum(j["counters"]["states"] for j in r["jobs"]) / verify_s(r) for r in reps
        ),
        "cpu_s": med(r["cpu_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
        "setup_s": med(setups),
        "job_p50_s": med(hd_quantile(t, 0.5) for t in per_rep),
        "job_p75_s": med(hd_quantile(t, 0.75) for t in per_rep),
    }


def _trace_sum(rep: dict, part: str) -> Dict[str, float]:
    """One trace part (``self``, ``total``, ``calls`` or ``counts``)
    summed over the repetition's jobs."""
    acc: Dict[str, float] = defaultdict(int)
    for j in rep["jobs"]:
        for k, v in j["trace"][part].items():
            acc[k] += v
    return acc


def _trace_mean(reps: List[dict], part: str) -> Dict[str, float]:
    sums = [_trace_sum(r, part) for r in reps]
    keys = set().union(*sums)
    return defaultdict(float, {k: statistics.mean(s[k] for s in sums) for k in keys})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run) -> Dict[str, float]:
    """One untraced and the traced repetitions; the layer split."""
    base = run.repetition("run")
    traced = [rep for rep in (run.repetition("trace")
                              for _ in range(1 if run.sweep else 2))
              if rep is not None]
    if base is None or not traced:
        return {}
    S, T = _trace_mean(traced, "self"), _trace_mean(traced, "total")
    # calls and counts repeat exactly (checked), so one reading is all
    C, K = _trace_sum(traced[0], "calls"), _trace_sum(traced[0], "counts")
    jobs = traced[0]["jobs"]

    def total(key: str) -> float:
        return sum(j["counters"].get(key, 0) for j in jobs)

    out = {
        "memory.transitions_s": S["memory"],
        "memory.successors": K["memory.successors"],
        "observer.step_s": S["observer.step"],
        "observer.fork_s": S["observer.fork"],
        "observer.steps": C["observer.step"],
        "observer.max_live_nodes": max(j["counters"]["max_live_nodes"] for j in jobs),
        "key.canonical_s": S["key.canonical"],
        "key.orbit_s": S["key.orbit"],
        "key.keys": K["key.keys"],
        "reduction.orbit_hit_ratio": _ratio(total("reduction.orbit_hits"),
                                            total("reduction.states")),
        "checker.step_s": S["checker.step"],
        "checker.steps": C["checker.step"],
        # the composed system calls the checker only on non-empty
        # emissions; every other observer step is a skipped fork
        "checker.skip_ratio": _ratio(C["observer.step"] - C["checker.step"],
                                     C["observer.step"]),
        "store.lookup_s": S["store.lookup"],
        "store.intern_s": S["store.intern"],
        "store.set_parent_s": S["store.set_parent"],
        "store.lookups": K["store.lookups"],
        "store.new_keys": K["store.new_keys"],
        "store.revisit_ratio": _ratio(K["store.hits"], K["store.lookups"]),
        "store.probe_avg": _ratio(total("store.probes"), total("store.lookups")),
        "store.spilled_keys": total("store.spilled_keys"),
        "store.spill_bytes": total("store.spill_bytes"),
        "store.io_s": statistics.mean(sum(j["store_io_s"] for j in r["jobs"])
                                      for r in traced),
        "por.select_s": S["por.select"],
        "por.ample_ratio": _ratio(total("por.ample_hits"),
                                  total("por.ample_hits") + total("por.fallbacks")),
        "engine.self_s": S["engine"],
        "engine.end_check_s": S["engine.end_check"],
        "parallel.rounds": 0,
        "parallel.coordinator_s": 0.0,
        "parallel.records_routed": 0,
        "parallel.batch_bytes": 0,
        "parallel.shard_imbalance": 0.0,
        # ProductSearch.run minus the SearchEngine.run inside it: the
        # counterexample replay on violating jobs
        "replay.cx_s": sum(j["trace"]["self"].get("product", 0.0)
                           for rep in traced for j in rep["jobs"]
                           if "cx_len" in j["counters"]) / len(traced),
        "replay.cx_len": total("cx_len"),
        "setup.reduction_s": T["setup.reduction"],
        "trace.overhead_ratio": statistics.mean(verify_s(r) for r in traced)
        / verify_s(base),
        # what the layer self-times leave of the traced search: the
        # engine's own loop, glue and anything no wrapper covers
        "trace.unattributed_share": _ratio(S["engine"], T["engine"]),
    }
    par = [j["parallel"] for r in traced for j in r["jobs"] if "parallel" in j]
    if par:
        p = par[0]
        # per-round shard times are merged before they reach the
        # coordinator, so this subtracts the slowest shard's summed
        # round time: an upper bound on the per-round uncovered wall
        coordinator = statistics.mean(
            q["coordinator_round_s"] - max(q["shard_round_s"]) for q in par)
        out.update({
            "parallel.rounds": p["rounds"],
            "parallel.coordinator_s": coordinator,
            "parallel.records_routed": p["records_routed"],
            "parallel.batch_bytes": p["batch_bytes"],
            "parallel.shard_imbalance": max(p["expanded"])
            / statistics.mean(p["expanded"]),
            # the share of the sharded engine's run outside its rounds
            "trace.unattributed_share": _ratio(
                T["parallel.engine"] - statistics.mean(q["coordinator_round_s"]
                                                       for q in par),
                T["parallel.engine"]),
        })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    os.makedirs(TMP, exist_ok=True)
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            metrics, units = per_layer(run), LAYER_UNITS
        else:
            metrics, units = end_to_end(run, args.seconds), E2E_UNITS
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if not metrics:
        print("perfbench: no repetition completed: " + "; ".join(run.messages),
              file=sys.stderr)
        return 1

    for msg in run.messages + run.mismatches:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {run.repetitions}  jobs {run.attempted}")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:16.6f} {unit}")
    print(f"  {'failed_share':28s} {run.failed / run.attempted:16.6f} ratio")
    print(json.dumps({
        "correct": run.failed == 0 and not run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark repetition, in a fresh process.

    python3 perfbench/job.py WORKLOAD SEED MODE

``MODE`` is ``run`` (the program as shipped), ``trace`` (the same
repetition with :class:`tracer.Tracer` wrappers installed) or
``setup`` (import and search construction only, no search).  The
repetition runs every job of the workload in order and prints one
JSON object: the import time, per-job timings and outcomes, the exact
work counters of each job, and the process's CPU time and peak RSS
(forked search workers included).

``PYTHONPATH`` must hold the repository's ``src`` directory and
``PERFBENCH_TMP`` a writable scratch directory for spill files.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from tracer import COORDINATOR_SPANS, Tracer, snapshot_diff
from workloads import jobs_for


def _exact_counters(search, result) -> dict:
    """Work counts the program keeps itself, available untraced, and
    the store's own spill I/O seconds."""
    stats = result.stats
    out = {
        "states": stats.states,
        "transitions": stats.transitions,
        "max_live_nodes": stats.max_live_nodes,
    }
    engine = search.engine
    stores = ([p.store for p in engine.shards] if search.workers > 1
              else [engine.store])
    for key in ("lookups", "probes", "spilled_keys", "spill_bytes"):
        out["store." + key] = sum(s.store_stats()[key] for s in stores)
    io_s = sum(s.store_stats()["io_s"] for s in stores)
    red = search.system.reduction
    if red is not None and search.workers == 1:
        out["reduction.states"] = red.counters.states
        out["reduction.orbit_hits"] = red.counters.orbit_hits
    sel = search.system.por_selector
    if sel is not None and search.workers == 1:
        out["por.ample_hits"] = sel.counters.ample_hits
        out["por.fallbacks"] = sel.counters.fallbacks
    if result.counterexample is not None:
        out["cx_len"] = len(result.counterexample.run)
    return out, io_s


def _parallel_counters(registry) -> dict:
    """The sharded engine's own per-shard counters and round spans."""
    snap = registry.snapshot()
    shards = sorted({k.split(".", 1)[0] for k in snap.counters
                     if k.startswith("shard")})
    coordinator = [t["total_s"] for k, t in snap.timers.items()
                   if not k.startswith("shard") and k.split("/")[-1] == "round"]
    return {
        "rounds": int(snap.gauges.get("search.rounds", 0)),
        "expanded": [int(snap.counters.get(s + ".expanded", 0)) for s in shards],
        "records_routed": int(sum(snap.counters.get(s + ".records_out", 0)
                                  for s in shards)),
        "batch_bytes": int(sum(snap.counters.get(s + ".batch_bytes_out", 0)
                               for s in shards)),
        "shard_round_s": [snap.timers.get(s + ".round", {}).get("total_s", 0.0)
                          for s in shards],
        "coordinator_round_s": sum(coordinator),
    }


def main(argv) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    if mode not in ("run", "trace", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    jobs = jobs_for(workload, seed)

    t0 = time.perf_counter()
    from repro.cli import PROTOCOLS
    from repro.core.serial import is_sequentially_consistent_trace
    from repro.engine.intern import StoreConfig
    from repro.modelcheck.product import ProductSearch
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import Telemetry
    import_s = time.perf_counter() - t0

    spill_dir = tempfile.mkdtemp(prefix="spill-", dir=os.environ["PERFBENCH_TMP"])
    sharded = any(job.workers > 1 for job in jobs)
    tracer = (Tracer(COORDINATOR_SPANS if sharded else None)
              if mode == "trace" else None)
    records = []
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            for job in jobs:
                ctor, gen_factory, _size = PROTOCOLS[job.protocol]
                store = StoreConfig(kind=job.store, budget_mb=job.budget_mb, dir=spill_dir)
                before = tracer.snapshot() if tracer is not None else None
                t1 = time.perf_counter()
                search = ProductSearch(
                    ctor(p=job.p, b=job.b, v=job.v),
                    gen_factory() if gen_factory is not None else None,
                    mode="fast",
                    reduce=job.reduce,
                    por=job.por,
                    workers=job.workers,
                    store=store,
                )
                construct_s = time.perf_counter() - t1
                rec = {"protocol": job.protocol, "construct_s": construct_s}
                if mode != "setup":
                    telemetry = (Telemetry(registry=MetricsRegistry())
                                 if tracer is not None and job.workers > 1 else None)
                    t2 = time.perf_counter()
                    result = search.run(telemetry=telemetry)
                    rec["verify_s"] = time.perf_counter() - t2
                    cx = result.counterexample
                    counters, io_s = _exact_counters(search, result)
                    rec.update(
                        ok=result.ok,
                        complete=not result.stats.truncated and result.non_quiescible == 0,
                        counters=counters,
                        store_io_s=io_s,
                        # the independent oracle: a brute-force search for a
                        # serial reordering, sharing no code with the
                        # observer or checker
                        cx_sc=(None if cx is None
                               else is_sequentially_consistent_trace(cx.trace)),
                    )
                    if telemetry is not None:
                        rec["parallel"] = _parallel_counters(telemetry.registry)
                    if tracer is not None:
                        rec["trace"] = snapshot_diff(tracer.snapshot(), before)
                    del result
                del search
                gc.collect()
                records.append(rec)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({
        "import_s": import_s,
        "jobs": records,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        # Linux reports ru_maxrss in KiB; RUSAGE_CHILDREN holds the
        # largest waited-for child, i.e. a sharded search's workers
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

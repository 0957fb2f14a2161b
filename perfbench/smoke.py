"""Smoke test of the benchmark on a tiny instance (serial p2b1v2).

    python3 -m pytest perfbench/smoke.py -q

The file name matches none of the repository's ``python_files``
patterns, so a plain ``pytest`` run over the repository does not
collect it; name it on the command line as above.

Checks that both kinds of run emit exactly the metrics
``BENCHMARK.json`` names, with their units, and no failed job; that
the tracer puts every wrapped attribute back; that the correctness
gate and the repeat check catch what they exist to catch; and that the
sharded workload's pinned counts are those of its sequential twin.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import BOUNDARIES, Tracer  # noqa: E402
from workloads import SINGLE, SWEEP_JOBS, ZOO, sweep_draw, zoo_job  # noqa: E402


def _bench(trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _check(trace: int, kind: str) -> dict:
    lines, res = _bench(trace)
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert lines[-2].split() == ["failed_share", "0.000000", "ratio"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _declared(kind)
    return {k: v["value"] for k, v in res["metrics"].items()}


def test_untraced_run_emits_every_end_to_end_metric():
    values = _check(0, "end_to_end")
    assert all(v > 0 for v in values.values())


def test_traced_run_emits_every_per_layer_metric():
    values = _check(1, "per_layer")
    assert values["observer.steps"] == values["memory.successors"] == 432
    assert values["store.new_keys"] == 72
    assert 0 < values["trace.unattributed_share"] < 1


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_restores_every_wrapped_attribute():
    import importlib

    owners = []
    for module, cls, attr, _span, _hook in BOUNDARIES:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        owners.append((owner, attr, _current(owner, attr)))
    with Tracer():
        assert all(_current(o, a) is not orig for o, a, orig in owners)
    assert all(_current(o, a) is orig for o, a, orig in owners)


def test_correctness_gate_counts_wrong_answers():
    job = SINGLE["smoke"]
    good = {"ok": True, "complete": True, "cx_sc": None,
            "counters": {"states": 72, "transitions": 432}}
    assert run.job_failures(job, good) == []
    assert run.job_failures(job, dict(good, ok=False))
    assert run.job_failures(job, dict(good, counters={"states": 71, "transitions": 432}))
    buggy = zoo_job("buggy-msi")
    pinned = {"states": buggy.states, "transitions": buggy.transitions}
    found = {"ok": False, "complete": True, "cx_sc": False, "counters": pinned}
    assert run.job_failures(buggy, found) == []
    # a counterexample the serial-reordering oracle finds SC is a failure
    assert run.job_failures(buggy, dict(found, cx_sc=True))


def test_repeat_check_flags_a_counter_that_moves():
    r = run.Run("smoke", 1)
    r._repeat("counters", "serial", {"states": 72})
    r._repeat("counters", "serial", {"states": 72})
    assert r.mismatches == []
    r._repeat("counters", "serial", {"states": 73})
    assert r.mismatches


def test_sweep_draw_is_seeded_and_covers_the_zoo():
    from repro.cli import NON_SC_PROTOCOLS, PROTOCOLS

    assert set(ZOO) == set(PROTOCOLS)
    assert {name for name in ZOO if not zoo_job(name).sc} == NON_SC_PROTOCOLS
    draw = sweep_draw(7)
    assert draw == sweep_draw(7) and len(draw) == SWEEP_JOBS
    assert all(draw.count(name) >= 2 for name in ZOO)
    assert any(sweep_draw(seed) != draw for seed in range(8, 12))


def test_sharded_pins_are_the_sequential_twin():
    from repro.memory.mesi import MESIProtocol
    from repro.modelcheck.product import ProductSearch

    job = SINGLE["mesi-sharded"]
    res = ProductSearch(MESIProtocol(p=job.p, b=job.b, v=job.v), mode="fast").run()
    assert res.ok
    assert (res.stats.states, res.stats.transitions) == (job.states, job.transitions)

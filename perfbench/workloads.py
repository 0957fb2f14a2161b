"""Workload definitions, pinned answers and the seeded zoo-sweep draw.

A workload is a list of *jobs*; a job is one verification search.  The
benchmark derives every input from ``--seed`` here and nowhere else:
the three MESI workloads are fixed instances (the seed changes
nothing), and ``zoo-sweep`` takes its draw and order from the seed.

Every job carries its known answer: the verdict (the zoo's agree with
``repro.cli.NON_SC_PROTOCOLS``, which the smoke test checks) and the
exact joint-state and transition counts of the search as configured.  The spill and sharded
workloads pin the counts of their sequential in-memory twins, so a
store or sharding change that alters the explored graph fails the
correctness gate instead of reading as a speed-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: jobs in one zoo sweep: 40 leaves ten jobs beyond the 75th
#: percentile, the highest percentile the sweep reports
SWEEP_JOBS = 40


@dataclass(frozen=True)
class Job:
    protocol: str  #: a ``repro.cli.PROTOCOLS`` name
    p: int
    b: int
    v: int
    reduce: str = "off"
    por: str = "off"
    store: str = "mem"  #: ``mem`` or ``disk``
    budget_mb: Optional[float] = None  #: disk backend resident budget
    workers: int = 1
    sc: bool = True  #: expected verdict
    states: int = 0  #: pinned joint states
    transitions: int = 0  #: pinned transitions


#: ``repro zoo`` sizes under the strongest reduction each protocol
#: declared when the benchmark was defined (``reduce full`` where a
#: SymmetrySpec exists, ``por on`` where a PorSpec exists), with the
#: pinned counts of that search.  The table is the benchmark's input,
#: fixed here so a later declaration cannot silently change the work.
#: name -> (p, b, v, reduce, por, sc, states, transitions)
ZOO: Dict[str, Tuple[int, int, int, str, str, bool, int, int]] = {
    "buggy-msi": (2, 1, 1, "full", "on", False, 233, 630),
    "buggy-msi-nowb": (2, 1, 1, "full", "on", False, 74, 137),
    "buggy-msi-stale-s": (2, 2, 1, "full", "on", False, 550, 1793),
    "directory": (2, 1, 1, "off", "off", True, 1608, 4916),
    "dragon": (2, 1, 1, "off", "off", True, 1476, 6880),
    "fenced-sb": (2, 1, 1, "off", "off", True, 112, 356),
    "lazy": (2, 1, 1, "full", "on", True, 201, 599),
    "mesi": (2, 1, 2, "full", "on", True, 1133, 6718),
    "moesi": (2, 1, 1, "off", "off", True, 6252, 32164),
    "msi": (2, 1, 2, "full", "on", True, 1095, 6490),
    "serial": (2, 1, 2, "off", "off", True, 72, 432),
    "storebuffer": (2, 2, 1, "off", "off", False, 2546, 6753),
    "write-through": (2, 1, 2, "off", "off", True, 288, 2016),
}


def zoo_job(name: str) -> Job:
    p, b, v, reduce, por, sc, states, transitions = ZOO[name]
    return Job(name, p, b, v, reduce=reduce, por=por, sc=sc,
               states=states, transitions=transitions)


def sweep_draw(seed: int) -> List[str]:
    """The seeded zoo sweep: every protocol three times plus one
    seeded extra draw, in seeded order.  Equal thirds keep the
    sweep's total work nearly seed-independent, so run-to-run spread
    measures the program rather than the draw."""
    rng = random.Random(seed)
    names = sorted(ZOO)
    draw = names * ((SWEEP_JOBS - 1) // len(names))
    draw += rng.sample(names, SWEEP_JOBS - len(draw))
    rng.shuffle(draw)
    return draw


#: MESI p2b1v3 unreduced: the proof search behind two workloads
_MESI_V3 = dict(p=2, b=1, v=3, sc=True, states=9386, transitions=64854)

#: fixed single-search workloads: name -> job.  ``mesi-spill`` pins
#: the counts of ``mesi-exhaustive`` and ``mesi-sharded`` those of the
#: same search at ``workers=1`` (the smoke test re-derives the latter)
SINGLE: Dict[str, Job] = {
    "mesi-exhaustive": Job("mesi", **_MESI_V3),
    # a resident budget of 1 MB holds about 5.5k of the 9.4k keys, so
    # the search both spills (intern_many) and re-reads (lookup_many
    # misses) while exploring the identical graph
    "mesi-spill": Job("mesi", store="disk", budget_mb=1.0, **_MESI_V3),
    "mesi-sharded": Job("mesi", 2, 1, 2, workers=2, sc=True,
                        states=4484, transitions=26616),
    # tiny instance for the smoke test only
    "smoke": Job("serial", 2, 1, 2, sc=True, states=72, transitions=432),
}

WORKLOADS = sorted(SINGLE) + ["zoo-sweep"]


def jobs_for(workload: str, seed: int) -> List[Job]:
    """The job list of one workload at one seed."""
    if workload == "zoo-sweep":
        return [zoo_job(name) for name in sweep_draw(seed)]
    return [SINGLE[workload]]

"""The benchmark's workloads and the outputs each must reproduce.

Pure data and checks; importing this module does not import ``repro``.
A cell's output is ``(label, makespan_s, cost_per_hour, cost_per_second,
n_jobs, partial)``, compared exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: name -> what the workload runs and why it was chosen.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "montage_nfs4": {
        "kind": "cell", "app": "montage", "storage": "nfs", "nodes": 4,
        "why": "I/O-bound Montage (10,429 tasks) on one NFS server: event "
               "loop, workflow processes and small-file storage traffic",
    },
    "broadband_pvfs8": {
        "kind": "cell", "app": "broadband", "storage": "pvfs", "nodes": 8,
        "why": "memory-bound Broadband (768 tasks) striped over 8 PVFS "
               "servers: dense flownet components and pipes, little workflow",
    },
    "epigenome_sweep_traced": {
        "kind": "sweep", "app": "epigenome",
        "why": "CPU-bound Epigenome paper matrix x 2 seeds with jitter and "
               "telemetry through a 2-process pool: world setup, pool, telemetry",
    },
}

#: Per-task CPU jitter of the sweep (the CLI's ``--jitter``).
SWEEP_JITTER = 0.1
#: The sweep runs the paper matrix this many times, each cell with its
#: own seed derived from the workload seed.
SWEEP_REPEATS = 2
#: Seed whose sweep outputs are pinned below.
DEFAULT_SEED = 0

Cell = Tuple[str, float, float, float, int, bool]

#: Exact outputs of the single-cell workloads.  Seed-independent: with
#: no jitter these cells take no random draws.  The makespans round to
#: the committed figures (Fig. 2 Montage NFS@4 = 5213 s, Fig. 4
#: Broadband PVFS@8 = 1629 s).
PINNED_CELLS: Dict[str, Cell] = {
    "montage_nfs4": ("montage/nfs@4", 5213.212831564874, 6.800000000000001,
                     4.923589896477937, 10429, False),
    "broadband_pvfs8": ("broadband/pvfs@8", 1628.7679093200877,
                        5.4399999999999995, 2.4612492851948, 768, False),
}

#: Jobs per Epigenome cell, whatever the seed.
EPIGENOME_JOBS = 529

#: Exact sweep outputs for :data:`DEFAULT_SEED`, in sweep order.
PINNED_SWEEP: Tuple[Cell, ...] = (
    ('epigenome/local@1', 5357.3617287628,
     1.36, 1.0119461043218623, 529, False),
    ('epigenome/s3@1', 5419.386731263513,
     1.3692117345492028, 1.0328736726767551, 529, False),
    ('epigenome/s3@2', 2941.5204934176845,
     1.3682895259359813, 1.1195306012271065, 529, False),
    ('epigenome/s3@4', 1680.1162064290966,
     2.7278282107532195, 1.2772493444996476, 529, False),
    ('epigenome/s3@8', 1110.6173607168198,
     5.447628087515436, 1.68589432148752, 529, False),
    ('epigenome/nfs@1', 5324.276819339628,
     2.72, 2.0113934650838594, 529, False),
    ('epigenome/nfs@2', 2847.790403651562,
     2.04, 1.6137478954025517, 529, False),
    ('epigenome/nfs@4', 1599.144199298974,
     3.4000000000000004, 1.5103028548934754, 529, False),
    ('epigenome/nfs@8', 982.5981454759234,
     6.119999999999999, 1.6704168473090697, 529, False),
    ('epigenome/glusterfs-nufa@2', 2836.769705844429,
     1.36, 1.0716685555412289, 529, False),
    ('epigenome/glusterfs-nufa@4', 1616.2486989161307,
     2.72, 1.2211656836255211, 529, False),
    ('epigenome/glusterfs-nufa@8', 1005.1767801535348,
     5.4399999999999995, 1.5189338011208973, 529, False),
    ('epigenome/glusterfs-distribute@2', 2813.762707205808,
     1.36, 1.0629770227221942, 529, False),
    ('epigenome/glusterfs-distribute@4', 1562.5191216007308,
     2.72, 1.1805700029872188, 529, False),
    ('epigenome/glusterfs-distribute@8', 958.7557902667733,
     5.4399999999999995, 1.448786527514235, 529, False),
    ('epigenome/pvfs@2', 2931.958739326338,
     1.36, 1.107628857078839, 529, False),
    ('epigenome/pvfs@4', 1659.1321221862283,
     2.72, 1.2535664923184837, 529, False),
    ('epigenome/pvfs@8', 1010.2253529700084,
     5.4399999999999995, 1.526562755599124, 529, False),
    ('epigenome/local@1', 5354.918724034883,
     1.36, 1.0114846478732558, 529, False),
    ('epigenome/s3@1', 5285.796240534882,
     1.3691450861915309, 1.0075732649592306, 529, False),
    ('epigenome/s3@2', 2955.2531246019275,
     1.3682943771520368, 1.1247233353349873, 529, False),
    ('epigenome/s3@4', 1720.9517935867982,
     2.727840583646558, 1.3081152721343605, 529, False),
    ('epigenome/s3@8', 1096.242570800402,
     5.447621915926091, 1.6641662451355888, 529, False),
    ('epigenome/nfs@1', 5344.459852624957,
     2.72, 2.0190181665472062, 529, False),
    ('epigenome/nfs@2', 2843.227269274983,
     2.04, 1.6111621192558236, 529, False),
    ('epigenome/nfs@4', 1620.768818655266,
     3.4000000000000004, 1.5307261065077513, 529, False),
    ('epigenome/nfs@8', 958.6016724536875,
     6.119999999999999, 1.629622843171269, 529, False),
    ('epigenome/glusterfs-nufa@2', 2822.2562914397586,
     1.36, 1.0661857100994645, 529, False),
    ('epigenome/glusterfs-nufa@4', 1639.6870653356664,
     2.72, 1.2388746715869479, 529, False),
    ('epigenome/glusterfs-nufa@8', 1011.4637992440205,
     5.4399999999999995, 1.5284341855242973, 529, False),
    ('epigenome/glusterfs-distribute@2', 2824.0523784052525,
     1.36, 1.0668642318419843, 529, False),
    ('epigenome/glusterfs-distribute@4', 1576.825565793788,
     2.72, 1.1913793163775288, 529, False),
    ('epigenome/glusterfs-distribute@8', 952.9870438195196,
     5.4399999999999995, 1.4400693106606075, 529, False),
    ('epigenome/pvfs@2', 2975.0493144168063,
     1.36, 1.1239075187796823, 529, False),
    ('epigenome/pvfs@4', 1661.6441308771975,
     2.72, 1.2554644544405493, 529, False),
    ('epigenome/pvfs@8', 1021.4289344461031,
     5.4399999999999995, 1.543492612051889, 529, False),
)


def sweep_seeds(seed: int) -> List[int]:
    """Per-cell simulation seeds of the sweep, derived from ``seed``."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(18 * SWEEP_REPEATS)]


def expected(workload: str, seed: int) -> Sequence[Cell]:
    """Pinned outputs for this workload and seed (empty: none pinned)."""
    if workload in PINNED_CELLS:
        return (PINNED_CELLS[workload],)
    return PINNED_SWEEP if seed == DEFAULT_SEED else ()


def n_cells(workload: str) -> int:
    """Cells in one repetition of the workload."""
    return 18 * SWEEP_REPEATS if WORKLOADS[workload]["kind"] == "sweep" else 1


def failed_cells(workload: str, seed: int,
                 cells: Sequence[Sequence]) -> Dict[int, str]:
    """Index -> message for each cell that misses its expected output.

    Pinned cells must match exactly.  Without pinned values (a sweep
    seed other than the default) every cell must complete, unpartial,
    with the application's full job count.
    """
    n = n_cells(workload)
    if len(cells) != n:
        return {i: f"expected {n} cells, got {len(cells)}" for i in range(n)}
    pinned = expected(workload, seed)
    if pinned:
        return {i: f"{want[0]}: got {tuple(got)}, pinned {tuple(want)}"
                for i, (got, want) in enumerate(zip(cells, pinned))
                if tuple(got) != tuple(want)}
    return {i: f"{got[0]}: partial={got[5]} jobs={got[4]}"
            for i, got in enumerate(cells) if got[5] or got[4] != EPIGENOME_JOBS}

"""Row views of sweep records for the strong-scaling and configuration figures.

The paper's evaluation is a family of sweeps: over process counts (Figs 8,
9, 11), over MPI×OpenMP configurations at fixed core counts (Fig 7), over
block-fetch split counts (Fig 6), and over 3D layer counts (implicit in
"we explored all possible layer parameters").  The sweeps themselves run
through :func:`repro.experiments.run_grid`; :class:`ScalingPoint` and
:class:`ConfigPoint` project each resulting
:class:`~repro.experiments.RunRecord` into the row shape its figure prints,
and :func:`mpi_omp_configurations` enumerates the Fig 7 splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..experiments import RunRecord

__all__ = [
    "ScalingPoint",
    "ConfigPoint",
    "mpi_omp_configurations",
]


@dataclass
class ScalingPoint:
    """One point of a strong-scaling curve."""

    nprocs: int
    algorithm: str
    strategy: str
    elapsed_time: float
    elapsed_with_permutation: float
    communication_volume: int
    messages: int
    load_imbalance: float

    @classmethod
    def from_record(cls, record: RunRecord) -> "ScalingPoint":
        return cls(
            nprocs=record.config.nprocs,
            algorithm=record.algorithm,
            strategy=record.config.strategy,
            elapsed_time=record.elapsed_time,
            elapsed_with_permutation=record.total_time_with_permutation,
            communication_volume=record.communication_volume,
            messages=record.message_count,
            load_imbalance=record.load_imbalance,
        )

    def as_row(self) -> Dict[str, object]:
        return {
            "P": self.nprocs,
            "algorithm": self.algorithm,
            "strategy": self.strategy,
            "time (s)": f"{self.elapsed_time:.6f}",
            "time+perm (s)": f"{self.elapsed_with_permutation:.6f}",
            "volume (B)": self.communication_volume,
            "messages": self.messages,
            "imbalance": f"{self.load_imbalance:.2f}",
        }


@dataclass
class ConfigPoint:
    """One MPI×OpenMP configuration of the Fig 7 sweep.

    Numeric fields stay numeric here; formatting happens only in
    :meth:`as_row`, so no private ``"_time"`` style keys ever leak into
    rendered tables.
    """

    processes: int
    threads: int
    elapsed_time: float
    comm_time: float
    comp_time: float
    other_time: float

    @classmethod
    def from_record(cls, record: RunRecord) -> "ConfigPoint":
        return cls(
            processes=record.config.nprocs,
            threads=record.config.threads or 1,
            elapsed_time=record.elapsed_time,
            comm_time=record.comm_time,
            comp_time=record.comp_time,
            other_time=record.other_time,
        )

    @property
    def cores(self) -> int:
        return self.processes * self.threads

    def as_row(self) -> Dict[str, object]:
        return {
            "processes": self.processes,
            "threads": self.threads,
            "cores": self.cores,
            "time (s)": f"{self.elapsed_time:.6f}",
            "comm (s)": f"{self.comm_time:.6f}",
            "comp (s)": f"{self.comp_time:.6f}",
            "other (s)": f"{self.other_time:.6f}",
        }


def mpi_omp_configurations(total_cores: int) -> List[Dict[str, int]]:
    """All (processes, threads) splits of a fixed core count, perfect-square processes.

    Mirrors Fig 7's protocol: given ``c`` cores, vary processes ``p`` and
    threads ``t`` with ``c = p·t``; CombBLAS tradition restricts ``p`` to
    perfect squares.
    """
    configs = []
    p = 1
    while p <= total_cores:
        if total_cores % p == 0:
            root = int(round(np.sqrt(p)))
            if root * root == p:
                configs.append({"processes": p, "threads": total_cores // p})
        p += 1
    return configs


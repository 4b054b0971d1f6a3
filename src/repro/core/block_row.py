"""1D block-row baselines from Ballard et al. (2013).

Two reference points for the communication analysis in §II-A of the paper:

* **Naive block row** — ``A`` and ``C`` stay put, ``B`` circulates in a ring:
  every process eventually receives a full copy of ``B`` (P−1 shifts of the
  other processes' blocks), so the volume is Θ(P·nnz(B)) regardless of
  sparsity structure.
* **Improved block row** — each process requests only the *rows* of ``B`` it
  actually needs for its local block of ``A``; communication becomes
  sparsity-dependent.  This is the algorithm the paper's RDMA design
  descends from ("Our idea is similar to the improved block row algorithm,
  however we use RDMA to remove the ring style exchange").

Both are implemented here in a *row*-wise 1D layout (A, B, C split by rows,
the layout Ballard et al. analyse), using two-sided communication so the
pack/unpack overhead the RDMA design avoids is charged faithfully.  Both
ride the prepare/execute pipeline: ``prepare`` resolves the operands to
resident row-block distributions (reusing an already-resident one, e.g. a
previous product), ``execute`` runs the exchange and multiply phases and
returns a row-distributed ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distribution import DistributedRows1D
from ..runtime import SimulatedCluster
from ..sparse import CSCMatrix, local_spgemm
from ..sparse.flops import per_column_flops
from ..sparse.ops import extract_rows
from .base import DistributedSpGEMMAlgorithm, SpGEMMResult
from .masking import (
    apply_mask,
    coerce_mask_rows_1d,
    masked_info,
    validate_mask_mode,
)
from .pipeline import DistributedOperand, PreparedMultiply, coerce_rows_1d

__all__ = ["NaiveBlockRow1D", "ImprovedBlockRow1D"]

_INDEX_DTYPE = np.int64


def _rows_needed_by(local_a: CSCMatrix) -> np.ndarray:
    """Global inner indices (columns of the row-block of A) with nonzeros.

    In the row-wise formulation ``C_i = A_i · B``: process ``i`` holds the row
    block ``A_i`` and needs exactly the rows of ``B`` indexed by the nonzero
    *columns* of ``A_i``.
    """
    return local_a.nonzero_columns()


def _prepare_row_blocks(
    algorithm: DistributedSpGEMMAlgorithm,
    A,
    B,
    cluster: SimulatedCluster,
    a_bounds: Optional[Sequence[Tuple[int, int]]],
    b_bounds: Optional[Sequence[Tuple[int, int]]],
    mask=None,
    mask_mode: str = "late",
) -> PreparedMultiply:
    """Shared prepare step of both block-row variants.

    ``a_bounds``/``b_bounds`` are *row* bounds (this is the row-wise 1D
    layout), e.g. partition-derived block sizes.  The mask, when given,
    follows ``C``'s layout — the row blocks of ``A``.
    """
    P = cluster.nprocs
    op_a = coerce_rows_1d(A, P, bounds=a_bounds)
    op_b = coerce_rows_1d(B, P, bounds=b_bounds)
    if op_a.dist.ncols != op_b.dist.nrows:
        raise ValueError(
            f"inner dimensions do not match: {op_a.dist.shape} x {op_b.dist.shape}"
        )
    op_m = None
    if mask is not None:
        validate_mask_mode(mask_mode)
        op_m = coerce_mask_rows_1d(
            mask,
            P,
            shape=(op_a.dist.nrows, op_b.dist.ncols),
            bounds=op_a.dist.bounds,
        )
    return PreparedMultiply(
        algorithm=algorithm,
        cluster=cluster,
        a=op_a,
        b=op_b,
        mask=op_m,
        mask_mode=mask_mode,
    )


@dataclass
class NaiveBlockRow1D(DistributedSpGEMMAlgorithm):
    """Ring-exchange 1D baseline: every process receives all of ``B``."""

    kernel: str = "hybrid"
    name: str = field(default="1d-naive-block-row", init=False)

    def prepare(
        self,
        A,
        B,
        cluster: SimulatedCluster,
        *,
        a_bounds: Optional[Sequence[Tuple[int, int]]] = None,
        b_bounds: Optional[Sequence[Tuple[int, int]]] = None,
        mask=None,
        mask_mode: str = "late",
    ) -> PreparedMultiply:
        return _prepare_row_blocks(
            self, A, B, cluster, a_bounds, b_bounds, mask=mask, mask_mode=mask_mode
        )

    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        cluster = prepared.cluster
        dist_a: DistributedRows1D = prepared.a.dist
        dist_b: DistributedRows1D = prepared.b.dist
        P = cluster.nprocs
        scope = cluster.phase_prefix

        # Ring exchange: in step s, rank r receives the block originally owned
        # by rank (r + s) mod P.  Every block of B therefore visits every rank.
        # All P·(P−1) sends of the ring are charged in one batched call.
        with cluster.phase("ring-exchange"):
            block_sizes = np.array(
                [dist_b.local(r).memory_bytes() for r in range(P)], dtype=np.int64
            )
            steps = np.arange(1, P, dtype=np.int64)
            dsts = np.repeat(np.arange(P, dtype=np.int64), P - 1)
            srcs = (dsts + np.tile(steps, P)) % P
            cluster.comm.send_many(srcs, dsts, block_sizes[srcs])

        # After the ring completes each rank holds all of B.
        B_full = prepared.b.global_matrix()
        c_locals: List[CSCMatrix] = []
        with cluster.phase("multiply"):
            for rank in range(P):
                local_a = dist_a.local(rank)
                flops = int(per_column_flops(local_a, B_full).sum())
                c_local = local_spgemm(local_a, B_full, kernel=self.kernel)
                cluster.charge_compute(rank, flops)
                cluster.charge_memory(
                    rank,
                    local_a.memory_bytes()
                    + B_full.memory_bytes()
                    + c_local.memory_bytes(),
                )
                c_locals.append(c_local)

        op_c = _row_block_operand(c_locals, dist_a, B_full.ncols)
        if prepared.mask is not None:
            op_c = apply_mask(cluster, op_c, prepared.mask)
        ledger = cluster.ledger if not scope else cluster.ledger.subset(scope)
        return SpGEMMResult(
            ledger=ledger,
            algorithm=self.name,
            nprocs=P,
            info=masked_info(prepared.mask, prepared.mask_mode),
            distributed_c=op_c,
        )


@dataclass
class ImprovedBlockRow1D(DistributedSpGEMMAlgorithm):
    """Request-only-needed-rows 1D baseline (two-sided, no RDMA)."""

    kernel: str = "hybrid"
    name: str = field(default="1d-improved-block-row", init=False)

    def prepare(
        self,
        A,
        B,
        cluster: SimulatedCluster,
        *,
        a_bounds: Optional[Sequence[Tuple[int, int]]] = None,
        b_bounds: Optional[Sequence[Tuple[int, int]]] = None,
        mask=None,
        mask_mode: str = "late",
    ) -> PreparedMultiply:
        return _prepare_row_blocks(
            self, A, B, cluster, a_bounds, b_bounds, mask=mask, mask_mode=mask_mode
        )

    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        cluster = prepared.cluster
        dist_a: DistributedRows1D = prepared.a.dist
        dist_b: DistributedRows1D = prepared.b.dist
        P = cluster.nprocs
        scope = cluster.phase_prefix
        b_nrows, b_ncols = prepared.b.shape

        # Each rank asks the owners for the rows of B it needs; the owners
        # extract (pack) and send them — the packing overhead is the point.
        needed_rows_per_rank: List[np.ndarray] = []
        with cluster.phase("request"):
            request_buffers: Dict[int, Dict[int, object]] = {r: {} for r in range(P)}
            for rank in range(P):
                needed = _rows_needed_by(dist_a.local(rank))
                needed_rows_per_rank.append(needed)
                for owner in range(P):
                    rs, re = dist_b.row_bounds(owner)
                    wanted = needed[(needed >= rs) & (needed < re)]
                    if wanted.size and owner != rank:
                        request_buffers[rank][owner] = wanted
            cluster.comm.alltoallv(request_buffers)

        fetched_per_rank: List[List[CSCMatrix]] = [[] for _ in range(P)]
        fetched_rows_per_rank: List[List[np.ndarray]] = [[] for _ in range(P)]
        with cluster.phase("exchange"):
            reply_buffers: Dict[int, Dict[int, object]] = {r: {} for r in range(P)}
            for rank in range(P):
                needed = needed_rows_per_rank[rank]
                for owner in range(P):
                    rs, re = dist_b.row_bounds(owner)
                    wanted = needed[(needed >= rs) & (needed < re)]
                    if wanted.size == 0:
                        continue
                    sub = extract_rows(dist_b.local(owner), wanted - rs)
                    if owner == rank:
                        fetched_per_rank[rank].append(sub)
                        fetched_rows_per_rank[rank].append(wanted)
                    else:
                        reply_buffers[owner][rank] = sub
                        fetched_per_rank[rank].append(sub)
                        fetched_rows_per_rank[rank].append(wanted)
            cluster.comm.alltoallv(reply_buffers)

        c_locals: List[CSCMatrix] = []
        with cluster.phase("multiply"):
            for rank in range(P):
                local_a = dist_a.local(rank)
                # Assemble the fetched rows of B into a k × n operand with the
                # global row numbering (unfetched rows stay empty).
                rows_parts = []
                cols_parts = []
                vals_parts = []
                for rows_global, sub in zip(
                    fetched_rows_per_rank[rank], fetched_per_rank[rank]
                ):
                    r, c, v = sub.to_coo()
                    rows_parts.append(rows_global[r])
                    cols_parts.append(c)
                    vals_parts.append(v)
                if rows_parts:
                    b_needed = CSCMatrix.from_coo(
                        b_nrows,
                        b_ncols,
                        np.concatenate(rows_parts),
                        np.concatenate(cols_parts),
                        np.concatenate(vals_parts),
                        sum_duplicates=False,
                    )
                else:
                    b_needed = CSCMatrix.empty(b_nrows, b_ncols)
                cluster.charge_other_bytes(rank, b_needed.memory_bytes())
                flops = int(per_column_flops(local_a, b_needed).sum())
                c_local = local_spgemm(local_a, b_needed, kernel=self.kernel)
                cluster.charge_compute(rank, flops)
                cluster.charge_memory(
                    rank,
                    local_a.memory_bytes()
                    + b_needed.memory_bytes()
                    + c_local.memory_bytes(),
                )
                c_locals.append(c_local)

        op_c = _row_block_operand(c_locals, dist_a, b_ncols)
        if prepared.mask is not None:
            op_c = apply_mask(cluster, op_c, prepared.mask)
        ledger = cluster.ledger if not scope else cluster.ledger.subset(scope)
        return SpGEMMResult(
            ledger=ledger,
            algorithm=self.name,
            nprocs=P,
            info=masked_info(prepared.mask, prepared.mask_mode),
            distributed_c=op_c,
        )


def _row_block_operand(
    c_locals: List[CSCMatrix], dist_a: DistributedRows1D, ncols: int
) -> DistributedOperand:
    """Wrap per-rank row-block results as a resident row-distributed C."""
    return DistributedOperand.rows_1d(
        DistributedRows1D(
            nrows=dist_a.nrows,
            ncols=ncols,
            nprocs=dist_a.nprocs,
            bounds=list(dist_a.bounds),
            locals_=c_locals,
        )
    )

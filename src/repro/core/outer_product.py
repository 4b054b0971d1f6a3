"""Algorithm 3 — the outer-product 1D SpGEMM algorithm.

Used by the paper for the *right multiplication* of the Galerkin product,
``(RᵀA)·R``, following Ballard, Siefert & Hu (2016) who showed the
outer-product formulation is the best 1D algorithm for that shape
(stationary input is tall-skinny, output is small).

The three steps of Algorithm 3:

1. **Redistribute** ``B`` so that process ``p_i`` owns the ``i``-th *row*
   block (aligned with the column block of ``A`` it already owns);
2. each process forms the **local outer product** of its column block of
   ``A`` with its row block of ``B`` — a partial result for the *entire*
   output ``C``;
3. the partial results are **redistributed and merged**: each process sends
   the slice of its partial ``C`` that belongs to every other process's
   column block (an all-to-all), and each process sums what it receives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distribution import (
    DistributedColumns1D,
    columns_to_rows_1d,
)
from ..runtime import SimulatedCluster
from ..sparse import CSCMatrix, add_matrices, local_spgemm
from ..sparse.flops import per_column_flops
from .base import DistributedSpGEMMAlgorithm, SpGEMMResult
from .masking import (
    apply_mask,
    coerce_mask_columns_1d,
    masked_info,
    validate_mask_mode,
)
from .pipeline import DistributedOperand, PreparedMultiply, coerce_columns_1d

__all__ = ["OuterProduct1D", "outer_product_spgemm_1d"]

_INDEX_DTYPE = np.int64


@dataclass
class OuterProduct1D(DistributedSpGEMMAlgorithm):
    """Outer-product 1D SpGEMM (Algorithm 3)."""

    kernel: str = "hybrid"
    name: str = field(default="1d-outer-product", init=False)

    def prepare(
        self,
        A,
        B,
        cluster: SimulatedCluster,
        *,
        a_bounds: Optional[Sequence[Tuple[int, int]]] = None,
        c_bounds: Optional[Sequence[Tuple[int, int]]] = None,
        mask=None,
        mask_mode: str = "late",
    ) -> PreparedMultiply:
        P = cluster.nprocs

        # A is 1D column-distributed (its columns are the inner dimension);
        # a resident column operand — e.g. the RᵀA product of the Galerkin
        # chain — is consumed in place, with no intermediate global gather.
        op_a = coerce_columns_1d(A, P, bounds=a_bounds)
        op_b = coerce_columns_1d(B, P)
        if op_a.dist.ncols != op_b.dist.nrows:
            raise ValueError(
                f"inner dimensions do not match: {op_a.dist.shape} x {op_b.dist.shape}"
            )

        # Output column blocks (defaults to an even split of B's columns).
        dist_c_template = DistributedColumns1D.from_global(
            CSCMatrix.empty(op_a.dist.nrows, op_b.dist.ncols), P, bounds=c_bounds
        )
        op_m = None
        if mask is not None:
            validate_mask_mode(mask_mode)
            op_m = coerce_mask_columns_1d(
                mask,
                P,
                shape=(op_a.dist.nrows, op_b.dist.ncols),
                bounds=dist_c_template.bounds,
            )
        return PreparedMultiply(
            algorithm=self,
            cluster=cluster,
            a=op_a,
            b=op_b,
            extras={"c_template": dist_c_template},
            mask=op_m,
            mask_mode=mask_mode,
        )

    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        cluster = prepared.cluster
        dist_a: DistributedColumns1D = prepared.a.dist
        dist_b_cols: DistributedColumns1D = prepared.b.dist
        dist_c_template: DistributedColumns1D = prepared.extras["c_template"]
        P = cluster.nprocs
        scope = cluster.phase_prefix

        # ------------------------------------------------------------------
        # Step 1: redistribute B so p_i owns the row block matching its A columns.
        # ------------------------------------------------------------------
        row_bounds = [dist_a.column_bounds(r) for r in range(P)]
        dist_b = columns_to_rows_1d(dist_b_cols, cluster=cluster, row_bounds=row_bounds)

        # ------------------------------------------------------------------
        # Step 2: local outer products — every rank builds a partial C.
        # ------------------------------------------------------------------
        partials: List[CSCMatrix] = []
        with cluster.phase("local-outer-product"):
            for rank in range(P):
                local_a = dist_a.local(rank)      # m × k_i
                local_b = dist_b.local(rank)      # k_i × n  (row block, local row ids)
                flops = int(per_column_flops(local_a, local_b).sum())
                partial = local_spgemm(local_a, local_b, kernel=self.kernel)
                cluster.charge_compute(rank, flops)
                cluster.charge_memory(
                    rank,
                    local_a.memory_bytes()
                    + local_b.memory_bytes()
                    + partial.memory_bytes(),
                )
                partials.append(partial)

        # ------------------------------------------------------------------
        # Step 3: redistribute the partial results by output column block and merge.
        # ------------------------------------------------------------------
        received: Dict[int, List[CSCMatrix]] = {r: [] for r in range(P)}
        with cluster.phase("merge"):
            buffers: Dict[int, Dict[int, object]] = {r: {} for r in range(P)}
            for src in range(P):
                partial = partials[src]
                for dst in range(P):
                    cs, ce = dist_c_template.column_bounds(dst)
                    piece = partial.extract_column_range(cs, ce)
                    if piece.nnz == 0:
                        continue
                    if src == dst:
                        received[dst].append(piece)
                    else:
                        buffers[src][dst] = piece
                        received[dst].append(piece)
            cluster.comm.alltoallv(buffers)
            c_locals: List[CSCMatrix] = []
            for rank in range(P):
                cs, ce = dist_c_template.column_bounds(rank)
                pieces = received[rank]
                if pieces:
                    merged = add_matrices(pieces)
                else:
                    merged = CSCMatrix.empty(dist_a.nrows, ce - cs)
                cluster.charge_other_bytes(rank, merged.memory_bytes())
                # Merging k sorted partials costs ~ the touched entries.
                cluster.charge_compute(rank, sum(p.nnz for p in pieces))
                c_locals.append(merged)

        op_c = DistributedOperand.columns_1d(
            DistributedColumns1D(
                nrows=dist_a.nrows,
                ncols=dist_c_template.ncols,
                nprocs=P,
                bounds=list(dist_c_template.bounds),
                locals_=c_locals,
            )
        )
        if prepared.mask is not None:
            op_c = apply_mask(cluster, op_c, prepared.mask)
        info = {"output_nnz": float(op_c.nnz)}
        info.update(masked_info(prepared.mask, prepared.mask_mode))
        ledger = cluster.ledger if not scope else cluster.ledger.subset(scope)
        return SpGEMMResult(
            ledger=ledger,
            algorithm=self.name,
            nprocs=P,
            info=info,
            distributed_c=op_c,
        )


def outer_product_spgemm_1d(A, B, cluster: SimulatedCluster, **kwargs) -> SpGEMMResult:
    """Functional wrapper around :class:`OuterProduct1D`."""
    return OuterProduct1D().multiply(A, B, cluster, **kwargs)

"""2D Sparse SUMMA baseline (Buluç & Gilbert), the CombBLAS 2D algorithm.

Processes form a √P × √P grid; every matrix is block-distributed over the
grid.  The multiplication runs in √P stages: at stage ``s`` the owners of the
``A(i, s)`` blocks broadcast them along their process *row* and the owners of
``B(s, j)`` broadcast along their process *column*; every process then
accumulates ``C(i, j) += A(i, s) · B(s, j)`` locally.

The paper's experimental protocol applies a random symmetric permutation to
the inputs before running 2D SUMMA (load balancing); that is handled by the
caller (:mod:`repro.apps.squaring` et al.) so this class stays a pure
algorithm.  Communication is two-sided broadcast — charged with packing on
both sides — which is exactly the cost structure the 1D RDMA design avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..distribution import DistributedBlocks2D, ProcessGrid2D
from ..runtime import SimulatedCluster
from ..sparse import CSCMatrix, add_matrices, local_spgemm, stack_columns
from ..sparse.csc import build_csc_unchecked
from .base import DistributedSpGEMMAlgorithm, SpGEMMResult
from .masking import (
    apply_mask,
    coerce_mask_blocks_2d,
    masked_info,
    validate_mask_mode,
)
from .pipeline import DistributedOperand, PreparedMultiply, as_operand

__all__ = ["SparseSUMMA2D"]

_INDEX_DTYPE = np.int64


@dataclass
class SparseSUMMA2D(DistributedSpGEMMAlgorithm):
    """2D sparse SUMMA on a √P × √P process grid."""

    kernel: str = "hybrid"
    name: str = field(default="2d-summa", init=False)

    def prepare(
        self,
        A,
        B,
        cluster: SimulatedCluster,
        *,
        mask=None,
        mask_mode: str = "late",
        **kwargs,
    ) -> PreparedMultiply:
        op_a = as_operand(A)
        op_b = as_operand(B)
        if op_a.ncols != op_b.nrows:
            raise ValueError(
                f"inner dimensions do not match: {op_a.shape} x {op_b.shape}"
            )
        P = cluster.nprocs
        grid = ProcessGrid2D.square(P)
        # The SUMMA stages need A's column splits aligned with B's row splits,
        # which from_global guarantees; non-global operands (a previous C) are
        # assembled first — the 2D baseline has no stationary-layout reuse,
        # which is exactly the asymmetry the paper's 1D design exploits.
        dist_a = DistributedBlocks2D.from_global(op_a.global_matrix(), grid)
        dist_b = DistributedBlocks2D.from_global(op_b.global_matrix(), grid)
        op_m = None
        if mask is not None:
            validate_mask_mode(mask_mode)
            # C(i, j) lives on rank (i, j) with A's row split and B's column
            # split, so the mask block layout mirrors that exactly.
            op_m = coerce_mask_blocks_2d(
                mask,
                grid,
                shape=(op_a.nrows, op_b.ncols),
                row_bounds=dist_a.row_bounds,
                col_bounds=dist_b.col_bounds,
            )
        return PreparedMultiply(
            algorithm=self,
            cluster=cluster,
            a=DistributedOperand.blocks_2d(dist_a),
            b=DistributedOperand.blocks_2d(dist_b),
            extras={"grid": grid},
            mask=op_m,
            mask_mode=mask_mode,
        )

    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        cluster = prepared.cluster
        grid: ProcessGrid2D = prepared.extras["grid"]
        dist_a: DistributedBlocks2D = prepared.a.dist
        dist_b: DistributedBlocks2D = prepared.b.dist
        scope = cluster.phase_prefix

        # Per-process accumulated partial results for its C block.
        partials: Dict[tuple, List[CSCMatrix]] = {
            (i, j): [] for i in range(grid.prows) for j in range(grid.pcols)
        }
        # Stage-invariant resident footprints, and a running byte total of
        # each block's partial list — the same integers the loop used to
        # recompute from scratch every stage.
        resident_bytes = {
            (i, j): dist_a.block(i, j).memory_bytes()
            + dist_b.block(i, j).memory_bytes()
            for i in range(grid.prows)
            for j in range(grid.pcols)
        }
        partial_bytes = {key: 0 for key in partials}

        stages = grid.pcols  # square grid: pcols == prows
        for s in range(stages):
            with cluster.phase(f"stage-{s}"):
                # Batch the stage's 2·√P broadcasts — A(i, s) along every
                # process row, B(s, j) along every process column — into one
                # accounting call.
                cluster.comm.bcast_many(
                    [
                        (dist_a.block(i, s), grid.rank_of(i, s), grid.row_ranks(i))
                        for i in range(grid.prows)
                    ]
                    + [
                        (dist_b.block(s, j), grid.rank_of(s, j), grid.col_ranks(j))
                        for j in range(grid.pcols)
                    ]
                )
                # Local multiply-accumulate on every process.  The stage's B
                # block row is concatenated once so each A(i, s) multiplies
                # it in a single kernel call; the result is sliced back into
                # the per-(i, j) partials.  Columns are independent in every
                # kernel variant, so the sliced partials (and all charges
                # derived from them) are bit-identical to per-block calls.
                b_blocks = [dist_b.block(s, j) for j in range(grid.pcols)]
                b_bytes = [b.memory_bytes() for b in b_blocks]
                b_row = stack_columns(b_blocks, nrows=b_blocks[0].nrows)
                col_offsets = np.cumsum([0] + [b.ncols for b in b_blocks])
                # nnz boundaries of each B(s, j) inside the stacked row.
                b_ent_offsets = b_row.indptr[col_offsets]
                for i in range(grid.prows):
                    a_block = dist_a.block(i, s)
                    if a_block.nnz == 0:
                        continue
                    a_bytes = a_block.memory_bytes()
                    a_col_nnz = a_block.column_nnz()
                    c_row = local_spgemm(a_block, b_row, kernel=self.kernel)
                    # Σ over B(s, j) entries of nnz(A(:,k)) for every j at
                    # once — the same integers per_column_flops(...).sum()
                    # produces, via exact int64 prefix-sum differences.
                    fl_prefix = np.zeros(b_row.nnz + 1, dtype=_INDEX_DTYPE)
                    np.cumsum(a_col_nnz[b_row.indices], out=fl_prefix[1:])
                    flops_by_j = fl_prefix[b_ent_offsets[1:]] - fl_prefix[b_ent_offsets[:-1]]
                    row_base = i * grid.pcols
                    for j in range(grid.pcols):
                        b_block = b_blocks[j]
                        if b_block.nnz == 0:
                            continue
                        cs, ce = col_offsets[j], col_offsets[j + 1]
                        lo, hi = c_row.indptr[cs], c_row.indptr[ce]
                        partial = build_csc_unchecked(
                            c_row.nrows,
                            b_block.ncols,
                            c_row.indptr[cs : ce + 1] - lo,
                            c_row.indices[lo:hi],
                            c_row.data[lo:hi],
                        )
                        key = (i, j)
                        partials[key].append(partial)
                        partial_bytes[key] += partial.memory_bytes()
                        cluster.charge_compute_and_memory(
                            row_base + j,
                            int(flops_by_j[j]),
                            resident_bytes[key]
                            + a_bytes
                            + b_bytes[j]
                            + partial_bytes[key],
                        )

        # Final local merge of the per-stage partials into each C block.
        c_blocks: Dict[tuple, CSCMatrix] = {}
        with cluster.phase("merge"):
            for i in range(grid.prows):
                rs, re = dist_a.row_bounds[i]
                for j in range(grid.pcols):
                    cs, ce = dist_b.col_bounds[j]
                    rank = grid.rank_of(i, j)
                    pieces = partials[(i, j)]
                    if pieces:
                        merged = add_matrices(pieces)
                        cluster.charge_compute(rank, sum(p.nnz for p in pieces))
                    else:
                        merged = CSCMatrix.empty(re - rs, ce - cs)
                    c_blocks[(i, j)] = merged

        dist_c = DistributedBlocks2D(
            nrows=dist_a.nrows,
            ncols=dist_b.ncols,
            grid=grid,
            row_bounds=dist_a.row_bounds,
            col_bounds=dist_b.col_bounds,
            blocks=c_blocks,
        )
        op_c = DistributedOperand.blocks_2d(dist_c)
        if prepared.mask is not None:
            op_c = apply_mask(cluster, op_c, prepared.mask)
        info = {"grid": float(grid.prows), "output_nnz": float(op_c.nnz)}
        info.update(masked_info(prepared.mask, prepared.mask_mode))
        ledger = cluster.ledger if not scope else cluster.ledger.subset(scope)
        return SpGEMMResult(
            ledger=ledger,
            algorithm=self.name,
            nprocs=cluster.nprocs,
            info=info,
            distributed_c=op_c,
        )

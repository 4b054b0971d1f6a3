"""3D Split SpGEMM baseline (Azad et al. 2016), the CombBLAS 3D algorithm.

Processes form a √(P/c) × √(P/c) × c grid.  The inner dimension is split
across the ``c`` layers: layer ``l`` owns the slices ``A(:, K_l)`` and
``B(K_l, :)`` (2D-distributed within the layer), runs a 2D SUMMA restricted
to the layer producing a *partial* ``C^(l)``, and the partial results are
summed across layers with an AllToAll along the layer ("fiber") dimension
followed by a local merge.

Reducing the per-layer grid from √P to √(P/c) shrinks the broadcast groups,
which is where the communication-volume advantage over plain 2D SUMMA comes
from; the price is the cross-layer merge.  The paper sweeps all valid layer
counts and reports the best — :meth:`SplitSpGEMM3D.best_layer_sweep` does the
same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..distribution import (
    DistributedBlocks2D,
    LayerSplit3D,
    ProcessGrid3D,
    valid_layer_counts,
)
from ..runtime import SimulatedCluster
from ..sparse import CSCMatrix, add_matrices, local_spgemm, stack_columns
from ..sparse.csc import build_csc_unchecked
from ..sparse.ops import column_blocks
from .base import DistributedSpGEMMAlgorithm, SpGEMMResult
from .masking import (
    apply_mask,
    coerce_mask_blocks_2d,
    masked_info,
    validate_mask_mode,
)
from .pipeline import DistributedOperand, PreparedMultiply, as_operand

__all__ = ["SplitSpGEMM3D"]


@dataclass
class SplitSpGEMM3D(DistributedSpGEMMAlgorithm):
    """3D split SpGEMM with ``layers`` layers (``P/layers`` must be a perfect square)."""

    layers: int = 2
    kernel: str = "hybrid"
    name: str = field(default="3d-split", init=False)

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
        layers = self.layers
        valid = valid_layer_counts(P)
        if layers not in valid:
            # Fall back to the nearest valid layer count (e.g. layers=2 with
            # P=4 is impossible because P/c must stay a perfect square).
            layers = min(valid, key=lambda c: (abs(c - self.layers), c))
        grid = ProcessGrid3D.from_nprocs(P, layers)
        # The layer split distributes both operands jointly (the inner
        # dimension is sliced across layers), so residency of a single
        # operand cannot be reused here; non-global inputs assemble first.
        split = LayerSplit3D.from_global(
            op_a.global_matrix(), op_b.global_matrix(), grid
        )
        op_m = None
        if mask is not None:
            validate_mask_mode(mask_mode)
            # After the cross-layer merge C lives on the layer grid's (i, j)
            # blocks, so the mask follows that layout.
            op_m = coerce_mask_blocks_2d(
                mask,
                grid.layer_grid,
                shape=(op_a.nrows, op_b.ncols),
                row_bounds=split.a_layers[0].row_bounds,
                col_bounds=split.b_layers[0].col_bounds,
            )
        return PreparedMultiply(
            algorithm=self,
            cluster=cluster,
            a=op_a,
            b=op_b,
            extras={"grid": grid, "split": split},
            mask=op_m,
            mask_mode=mask_mode,
        )

    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        cluster = prepared.cluster
        grid: ProcessGrid3D = prepared.extras["grid"]
        split: LayerSplit3D = prepared.extras["split"]
        P = cluster.nprocs
        scope = cluster.phase_prefix
        layer_grid = grid.layer_grid

        # ------------------------------------------------------------------
        # Per-layer 2D SUMMA producing partial C^(l) blocks.
        # ------------------------------------------------------------------
        # partial_blocks[l][(i, j)] = list of stage partials for that block
        partial_blocks: List[Dict[Tuple[int, int], List[CSCMatrix]]] = [
            {(i, j): [] for i in range(grid.prows) for j in range(grid.pcols)}
            for _ in range(grid.layers)
        ]
        # Running byte totals of each block's partial list — the same
        # integers the loop used to recompute from scratch every stage.
        partial_bytes: List[Dict[Tuple[int, int], int]] = [
            {key: 0 for key in layer} for layer in partial_blocks
        ]
        stages = layer_grid.pcols
        for l in range(grid.layers):
            dist_a = split.a_layers[l]
            dist_b = split.b_layers[l]
            for s in range(stages):
                with cluster.phase(f"layer{l}-stage{s}"):
                    # Batch the layer-stage's row and column broadcasts into
                    # one accounting call.
                    cluster.comm.bcast_many(
                        [
                            (
                                dist_a.block(i, s),
                                grid.rank_of(i, s, l),
                                [grid.rank_of(i, j, l) for j in range(grid.pcols)],
                            )
                            for i in range(grid.prows)
                        ]
                        + [
                            (
                                dist_b.block(s, j),
                                grid.rank_of(s, j, l),
                                [grid.rank_of(i, j, l) for i in range(grid.prows)],
                            )
                            for j in range(grid.pcols)
                        ]
                    )
                    # Concatenate the layer-stage's B block row once; each
                    # A(i, s) multiplies it in a single kernel call and the
                    # result is sliced back into per-(i, j) partials —
                    # bit-identical per column in every kernel variant.
                    b_blocks = [dist_b.block(s, j) for j in range(grid.pcols)]
                    b_bytes = [b.memory_bytes() for b in b_blocks]
                    b_row = stack_columns(b_blocks, nrows=b_blocks[0].nrows)
                    col_offsets = np.cumsum([0] + [b.ncols for b in b_blocks])
                    # nnz boundaries of each B(s, j) inside the stacked row.
                    b_ent_offsets = b_row.indptr[col_offsets]
                    layer_partials = partial_blocks[l]
                    layer_bytes = partial_bytes[l]
                    layer_base = l * (grid.prows * grid.pcols)
                    for i in range(grid.prows):
                        a_block = dist_a.block(i, s)
                        if a_block.nnz == 0:
                            continue
                        a_bytes = a_block.memory_bytes()
                        a_col_nnz = a_block.column_nnz()
                        c_row = local_spgemm(a_block, b_row, kernel=self.kernel)
                        # Σ over B(s, j) entries of nnz(A(:,k)) for every j
                        # at once — the same integers
                        # per_column_flops(...).sum() produces, via exact
                        # int64 prefix-sum differences.
                        fl_prefix = np.zeros(b_row.nnz + 1, dtype=np.int64)
                        np.cumsum(a_col_nnz[b_row.indices], out=fl_prefix[1:])
                        flops_by_j = (
                            fl_prefix[b_ent_offsets[1:]]
                            - fl_prefix[b_ent_offsets[:-1]]
                        )
                        row_base = layer_base + i * grid.pcols
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
                            layer_partials[key].append(partial)
                            layer_bytes[key] += partial.memory_bytes()
                            cluster.charge_compute_and_memory(
                                row_base + j,
                                int(flops_by_j[j]),
                                a_bytes + b_bytes[j] + layer_bytes[key],
                            )

        # ------------------------------------------------------------------
        # Cross-layer reduction: AllToAll along each fiber + local merge.
        # Each fiber position (i, j) splits its partial C(i, j) into `layers`
        # column chunks; layer l ends up owning chunk l of everyone's partial.
        # ------------------------------------------------------------------
        row_bounds = split.a_layers[0].row_bounds
        col_bounds = split.b_layers[0].col_bounds
        c_blocks: Dict[Tuple[int, int], List[CSCMatrix]] = {}
        with cluster.phase("layer-merge"):
            buffers: Dict[int, Dict[int, object]] = {r: {} for r in range(P)}
            merged_per_position: Dict[Tuple[int, int, int], List[CSCMatrix]] = {}
            for i in range(grid.prows):
                for j in range(grid.pcols):
                    cs, ce = col_bounds[j]
                    chunk_bounds = column_blocks(ce - cs, grid.layers)
                    for l in range(grid.layers):
                        pieces = partial_blocks[l][(i, j)]
                        partial = (
                            add_matrices(pieces)
                            if pieces
                            else CSCMatrix.empty(
                                row_bounds[i][1] - row_bounds[i][0], ce - cs
                            )
                        )
                        src_rank = grid.rank_of(i, j, l)
                        cluster.charge_compute(src_rank, sum(p.nnz for p in pieces))
                        for dst_layer, (chs, che) in enumerate(chunk_bounds):
                            chunk = partial.extract_column_range(chs, che)
                            dst_rank = grid.rank_of(i, j, dst_layer)
                            key = (i, j, dst_layer)
                            merged_per_position.setdefault(key, []).append(chunk)
                            if dst_rank != src_rank and chunk.nnz:
                                buffers[src_rank][dst_rank] = chunk
            cluster.comm.alltoallv(buffers)
            # Local merge of the received chunks; reassemble each (i, j) block.
            for i in range(grid.prows):
                for j in range(grid.pcols):
                    cs, ce = col_bounds[j]
                    chunk_bounds = column_blocks(ce - cs, grid.layers)
                    chunks_in_order: List[CSCMatrix] = []
                    for l, (chs, che) in enumerate(chunk_bounds):
                        pieces = merged_per_position.get((i, j, l), [])
                        rank = grid.rank_of(i, j, l)
                        if pieces:
                            merged = add_matrices(pieces)
                            cluster.charge_compute(rank, sum(p.nnz for p in pieces))
                        else:
                            merged = CSCMatrix.empty(
                                row_bounds[i][1] - row_bounds[i][0], che - chs
                            )
                        chunks_in_order.append(merged)
                    c_blocks[(i, j)] = [stack_columns(chunks_in_order,
                                                      nrows=row_bounds[i][1] - row_bounds[i][0])]

        # C stays distributed over the layer grid's (i, j) blocks (each block
        # fully merged across layers); the global matrix assembles lazily.
        op_c = DistributedOperand.blocks_2d(
            DistributedBlocks2D(
                nrows=prepared.a.nrows,
                ncols=prepared.b.ncols,
                grid=layer_grid,
                row_bounds=list(row_bounds),
                col_bounds=list(col_bounds),
                blocks={key: blocks[0] for key, blocks in c_blocks.items()},
            )
        )

        if prepared.mask is not None:
            op_c = apply_mask(cluster, op_c, prepared.mask)
        info = {"layers": float(grid.layers), "output_nnz": float(op_c.nnz)}
        info.update(masked_info(prepared.mask, prepared.mask_mode))
        ledger = cluster.ledger if not scope else cluster.ledger.subset(scope)
        return SpGEMMResult(
            ledger=ledger,
            algorithm=self.name,
            nprocs=P,
            info=info,
            distributed_c=op_c,
        )

    # ------------------------------------------------------------------
    @classmethod
    def best_layer_sweep(
        cls,
        A,
        B,
        nprocs: int,
        *,
        cost_model=None,
        kernel: str = "hybrid",
        layer_candidates: Optional[List[int]] = None,
    ) -> Tuple["SpGEMMResult", int]:
        """Run every valid layer count and return the fastest result.

        Mirrors the paper's protocol: "For the 3D algorithm, we explored all
        possible layer parameters and selected the optimal configuration."
        """
        from ..runtime import PERLMUTTER, SimulatedCluster

        model = cost_model or PERLMUTTER
        candidates = layer_candidates or [c for c in valid_layer_counts(nprocs) if c > 1]
        if not candidates:
            candidates = [1]
        best: Optional[SpGEMMResult] = None
        best_layers = candidates[0]
        for layers in candidates:
            cluster = SimulatedCluster(nprocs, cost_model=model)
            result = cls(layers=layers, kernel=kernel).multiply(A, B, cluster)
            if best is None or result.elapsed_time < best.elapsed_time:
                best = result
                best_layers = layers
        assert best is not None
        return best, best_layers

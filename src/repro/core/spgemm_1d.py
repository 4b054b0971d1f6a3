"""Algorithm 1 — the sparsity-aware 1D SpGEMM algorithm.

``A``, ``B`` and ``C`` are 1D column-distributed; ``B`` and ``C`` are
stationary and only the needed pieces of ``A`` move, fetched with
passive-target RDMA ``Get`` operations:

1. every process exposes two windows over its local ``A_i`` (row ids and
   numeric values, stored column-compressed);
2. the nonzero-column ids of ``A`` (the ``D`` vector) and the per-column
   nnz prefix sums are allgathered, so every process can compute remote
   offsets without talking to the target;
3. each process ``p_i`` marks the nonzero *rows* of its ``B_i`` in a dense
   boolean ``H_i``, intersects with ``D`` to get the required columns
   ``D̃``, and plans at most ``K`` block fetches per remote process
   (Algorithm 2, :mod:`repro.core.block_fetch`);
4. the planned blocks are fetched with ``MPI_Get``; the needed columns are
   compacted into a new local matrix ``Ã`` (better locality than indexing
   into the full ``A``);
5. ``C_i = Ã · B_i`` is computed locally with the hybrid kernel — no
   communication of the output is ever needed because ``C`` is already in
   the desired 1D layout.

Steps 1–2 are :meth:`SparsityAware1D.prepare` (charged once per resident
``A`` operand — repeated multiplies against the same stationary ``A`` reuse
the exposed windows and metadata for free, exactly as a long-lived
``MPI_Win`` would behave); steps 3–5 are :meth:`SparsityAware1D.execute`.
The implementation follows the paper's steps literally, in SPMD style over
the simulated cluster, recording every byte and message in the cluster's
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distribution import DistributedColumns1D
from ..runtime import SimulatedCluster
from ..sparse import CSCMatrix, local_spgemm, SpGEMMKernelStats
from ..sparse.flops import per_column_flops
from .base import DistributedSpGEMMAlgorithm, SpGEMMResult
from .block_fetch import BlockFetchPlanner
from .estimator import BYTES_PER_ENTRY
from .masking import (
    apply_mask,
    coerce_mask_columns_1d,
    masked_info,
    validate_mask_mode,
)
from .pipeline import DistributedOperand, PreparedMultiply, coerce_columns_1d

__all__ = ["SparsityAware1D", "sparsity_aware_spgemm_1d"]

_INDEX_DTYPE = np.int64


@dataclass
class SparsityAware1D(DistributedSpGEMMAlgorithm):
    """The paper's sparsity-aware 1D SpGEMM algorithm (Algorithm 1 + 2)."""

    #: Algorithm 2's K — the maximum number of RDMA calls per remote process.
    block_split: int = 2048
    #: local kernel passed to :func:`repro.sparse.local_spgemm`
    kernel: str = "hybrid"
    #: build the compacted Ã (True, the paper's design) or multiply against the
    #: fetched-but-uncompacted columns (False, used by the compaction ablation)
    compact: bool = True

    name: str = field(default="1d-sparsity-aware", init=False)

    # ------------------------------------------------------------------
    def prepare_operand(
        self,
        A,
        cluster: SimulatedCluster,
        *,
        bounds: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> DistributedOperand:
        """Distribute ``A`` by column blocks and expose its windows (setup phase)."""
        op = coerce_columns_1d(A, cluster.nprocs, bounds=bounds)
        self._expose(op, cluster)
        return op

    def prepare(
        self,
        A,
        B,
        cluster: SimulatedCluster,
        *,
        a_bounds: Optional[Sequence[Tuple[int, int]]] = None,
        b_bounds: Optional[Sequence[Tuple[int, int]]] = None,
        distributed_a: Optional[DistributedColumns1D] = None,
        distributed_b: Optional[DistributedColumns1D] = None,
        mask=None,
        mask_mode: str = "late",
    ) -> PreparedMultiply:
        P = cluster.nprocs

        # --------------------------------------------------------------
        # Distribution (assumed pre-existing in the paper; kept out of the
        # timed phases, matching "SpGEMM kernel time" reporting).
        # --------------------------------------------------------------
        op_a = coerce_columns_1d(
            distributed_a if distributed_a is not None else A, P, bounds=a_bounds
        )
        op_b = coerce_columns_1d(
            distributed_b if distributed_b is not None else B, P, bounds=b_bounds
        )
        if op_b.dist.nrows != op_a.dist.ncols:
            raise ValueError(
                f"inner dimensions do not match: {op_a.dist.shape} x {op_b.dist.shape}"
            )
        op_m = None
        if mask is not None:
            # The mask lives in the output layout — C follows B's column
            # bounds — so applying it after the kernel is purely rank-local.
            validate_mask_mode(mask_mode, allow_early=True)
            op_m = coerce_mask_columns_1d(
                mask,
                P,
                shape=(op_a.dist.nrows, op_b.dist.ncols),
                bounds=op_b.dist.bounds,
            )
        self._expose(op_a, cluster)
        return PreparedMultiply(
            algorithm=self,
            cluster=cluster,
            a=op_a,
            b=op_b,
            mask=op_m,
            mask_mode=mask_mode,
        )

    # ------------------------------------------------------------------
    def _expose(self, op_a: DistributedOperand, cluster: SimulatedCluster) -> None:
        """Phase "setup": window creation + allgather of the A metadata
        (nonzero column ids D and per-column nnz) — Algorithm 1 lines 1-2.

        A no-op when the operand is already exposed: a resident ``A`` pays
        this exactly once per run, not once per multiply.
        """
        if op_a.exposed:
            if op_a.window.cluster is not cluster:
                # The window charges its own cluster's ledger on every get;
                # executing on a different cluster would silently account the
                # whole fetch phase to the wrong run.
                raise ValueError(
                    "resident operand was exposed on a different cluster; "
                    "prepare it on the cluster that will execute the multiply"
                )
            return
        dist_a = op_a.dist
        P = cluster.nprocs
        with cluster.phase("setup"):
            exposed: Dict[int, Dict[str, np.ndarray]] = {}
            # Per-rank metadata every process will own a copy of.
            rank_nonzero_cols: List[np.ndarray] = []     # global ids of nonzero cols
            rank_col_prefix: List[np.ndarray] = []       # prefix sum of nnz over those cols
            for rank in range(P):
                local_a = dist_a.local(rank)
                start_col, _ = dist_a.column_bounds(rank)
                nz_local = local_a.nonzero_columns()
                col_nnz = local_a.column_nnz()[nz_local]
                prefix = np.zeros(nz_local.shape[0] + 1, dtype=_INDEX_DTYPE)
                prefix[1:] = np.cumsum(col_nnz)
                rank_nonzero_cols.append(nz_local + start_col)
                rank_col_prefix.append(prefix)
                # The exposed windows hold the *compressed* row-id/value arrays
                # (empty columns occupy no space), so interval offsets follow
                # the prefix array directly.
                exposed[rank] = {
                    "rowids": local_a.indices.astype(_INDEX_DTYPE, copy=True),
                    "values": local_a.data.astype(np.float64, copy=True),
                }
                cluster.charge_other_bytes(rank, local_a.memory_bytes())
            op_a.window = cluster.create_window(exposed)
            op_a.rank_nonzero_cols = rank_nonzero_cols
            op_a.rank_col_prefix = rank_col_prefix
            # Allgather D and the per-column nnz metadata.
            metadata = {
                rank: (rank_nonzero_cols[rank], rank_col_prefix[rank]) for rank in range(P)
            }
            cluster.comm.allgather(metadata)

    # ------------------------------------------------------------------
    def execute(self, prepared: PreparedMultiply) -> SpGEMMResult:
        cluster = prepared.cluster
        op_a, op_b = prepared.a, prepared.b
        dist_a: DistributedColumns1D = op_a.dist
        dist_b: DistributedColumns1D = op_b.dist
        window = op_a.window
        rank_nonzero_cols = op_a.rank_nonzero_cols
        rank_col_prefix = op_a.rank_col_prefix
        P = cluster.nprocs
        k_inner = dist_a.ncols
        scope = cluster.phase_prefix

        # --------------------------------------------------------------
        # Phase "fetch": per-rank block-fetch planning and RDMA Gets
        # (Algorithm 1 lines 3-8 + Algorithm 2).
        # --------------------------------------------------------------
        fetched_for_rank: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            [] for _ in range(P)
        ]
        total_required_cols = 0
        total_fetched_cols = 0
        mask_early = prepared.mask is not None and prepared.mask_mode == "early"
        # The remote layout is identical for every origin rank, so the
        # Algorithm-2 geometry is hoisted into one planner shared by all P
        # planning passes; each origin then touches only its hot targets.
        planner = BlockFetchPlanner(rank_nonzero_cols, self.block_split)
        # Per-target nnz per nonzero column, shared by every origin rank.
        rank_col_nnz = [np.diff(prefix) for prefix in rank_col_prefix]
        with cluster.phase("fetch"):
            with window.epoch():
                for rank in range(P):
                    local_b = dist_b.local(rank)
                    # H_i: nonzero rows of B_i over the global inner dimension.
                    if mask_early:
                        # Early masking: output columns whose mask column is
                        # empty are all-zero after masking, so only B_i
                        # columns with mask support mark rows in H_i — the
                        # fetch plan shrinks and modelled volume drops.
                        m_local = prepared.mask.dist.local(rank)
                        hit = local_b.extract_columns(
                            m_local.nonzero_columns()
                        ).nonzero_rows_mask()
                    else:
                        hit = local_b.nonzero_rows_mask()
                    compact = planner.plan_compact(hit)
                    total_required_cols += compact.required_total
                    total_fetched_cols += compact.fetched_total
                    for target, plan in compact.iter_hot():
                        remote_cols = rank_nonzero_cols[target]
                        prefix = rank_col_prefix[target]
                        covered = plan.covered_positions
                        if target == rank:
                            # Local columns need no RDMA; the local A_i is at
                            # hand.  The compaction ablation (compact=False)
                            # keeps every column of the selected blocks, just
                            # like the remote path.
                            if self.compact:
                                positions = plan.required_positions
                            else:
                                positions = covered
                            take = remote_cols[positions]
                            local_a = dist_a.local(rank)
                            start_col, _ = dist_a.column_bounds(rank)
                            sub = local_a.extract_columns(take - start_col)
                            r, c, v = sub.to_coo()
                            fetched_for_rank[rank].append((take[c], r, v))
                            continue
                        # Translate column-position intervals into exposed-array
                        # ranges using the remote prefix sums (no communication:
                        # every rank owns the metadata).
                        data_ranges = list(
                            zip(
                                prefix[plan.interval_starts].tolist(),
                                prefix[plan.interval_stops].tolist(),
                            )
                        )
                        rowids, values = window.get_concat_many(
                            rank, target, ("rowids", "values"), data_ranges
                        )
                        # Reconstruct which global column each fetched entry
                        # belongs to, then keep only the required ones for Ã.
                        per_col_nnz = rank_col_nnz[target][covered]
                        col_ids = np.repeat(remote_cols[covered], per_col_nnz)
                        if self.compact:
                            keep = np.repeat(plan.covered_required, per_col_nnz)
                            col_ids, rowids, values = (
                                col_ids[keep],
                                rowids[keep],
                                values[keep],
                            )
                        fetched_for_rank[rank].append((col_ids, rowids, values))

        # --------------------------------------------------------------
        # Phase "multiply": build Ã and compute C_i = Ã · B_i locally
        # (Algorithm 1 lines 8-9).
        # --------------------------------------------------------------
        c_locals: List[CSCMatrix] = []
        kernel_stats = SpGEMMKernelStats()
        other_bytes_per_rank = np.zeros(P, dtype=np.int64)
        flops_per_rank = np.zeros(P, dtype=np.int64)
        with cluster.phase("multiply"):
            for rank in range(P):
                local_b = dist_b.local(rank)
                parts = fetched_for_rank[rank]
                if parts:
                    cols = np.concatenate([p[0] for p in parts])
                    rows = np.concatenate([p[1] for p in parts])
                    vals = np.concatenate([p[2] for p in parts])
                else:
                    cols = np.zeros(0, dtype=_INDEX_DTYPE)
                    rows = np.zeros(0, dtype=_INDEX_DTYPE)
                    vals = np.zeros(0, dtype=np.float64)
                # Ã keeps the global inner dimension but only the needed
                # columns are populated (a DCSC-style hypersparse matrix).
                a_tilde = CSCMatrix.from_coo(
                    dist_a.nrows, k_inner, rows, cols, vals, sum_duplicates=False
                )
                other_bytes_per_rank[rank] = a_tilde.memory_bytes()
                cluster.charge_memory(
                    rank,
                    dist_a.local(rank).memory_bytes()
                    + local_b.memory_bytes()
                    + a_tilde.memory_bytes(),
                )
                flops_per_rank[rank] = int(per_column_flops(a_tilde, local_b).sum())
                c_local = local_spgemm(
                    a_tilde, local_b, kernel=self.kernel, stats=kernel_stats
                )
                cluster.charge_memory(
                    rank,
                    dist_a.local(rank).memory_bytes()
                    + local_b.memory_bytes()
                    + a_tilde.memory_bytes()
                    + c_local.memory_bytes(),
                )
                c_locals.append(c_local)
            # Batched charge passes — bit-identical to the per-rank calls the
            # loop used to make (each rank is charged exactly once).
            cluster.charge_other_bytes_bulk(other_bytes_per_rank)
            cluster.charge_compute_bulk(flops_per_rank)

        # C is naturally 1D distributed in B's column layout — no communication
        # is ever needed for the output (Algorithm 1), and the global matrix
        # only exists if someone asks for SpGEMMResult.C.
        op_c = DistributedOperand.columns_1d(
            DistributedColumns1D(
                nrows=dist_a.nrows,
                ncols=dist_b.ncols,
                nprocs=P,
                bounds=list(dist_b.bounds),
                locals_=c_locals,
            )
        )
        if prepared.mask is not None:
            # Rank-local pattern filter ("mask" phase, computation only) —
            # in early mode this also removes any entries computed in
            # masked-out columns as a side effect of shared fetches.
            op_c = apply_mask(cluster, op_c, prepared.mask)

        # memA uses the same wire-byte definition as the symbolic estimator
        # (``nnz(A) · BYTES_PER_ENTRY``: 8-byte row id + 8-byte value per
        # stored entry — exactly what the rowid/value windows expose), so the
        # executed CV/memA ratio is directly comparable to the predicted one
        # and to the paper's ≈30% partitioning threshold.
        a_total_bytes = sum(
            dist_a.local(rank).nnz for rank in range(P)
        ) * BYTES_PER_ENTRY
        # Bytes moved by the RDMA fetches of A only (what Fig 5 plots); the
        # ledger's total additionally includes the metadata allgather.
        fetch_bytes = sum(
            st.bytes_received
            for st in cluster.ledger.phases.get(scope + "fetch", [])
        )
        comm_bytes = fetch_bytes
        # Scoped executions (resident chains) report only their own slice of
        # the run-wide ledger; the unscoped wrapper keeps the whole thing.
        ledger = cluster.ledger if not scope else cluster.ledger.subset(scope)
        info = {
            "block_split": float(self.block_split),
            "fetch_bytes": float(fetch_bytes),
            "rdma_gets": float(ledger.total_rdma_gets()),
            "required_columns": float(total_required_cols),
            "fetched_columns": float(total_fetched_cols),
            "cv_over_memA": (
                (comm_bytes / P) / a_total_bytes if a_total_bytes else 0.0
            ),
            "kernel_flops": float(kernel_stats.flops),
            "output_nnz": float(op_c.nnz),
        }
        info.update(masked_info(prepared.mask, prepared.mask_mode))
        return SpGEMMResult(
            ledger=ledger,
            algorithm=self.name,
            nprocs=P,
            info=info,
            distributed_c=op_c,
        )


def sparsity_aware_spgemm_1d(
    A,
    B,
    cluster: SimulatedCluster,
    *,
    block_split: int = 2048,
    kernel: str = "hybrid",
    **kwargs,
) -> SpGEMMResult:
    """Functional wrapper around :class:`SparsityAware1D`."""
    return SparsityAware1D(block_split=block_split, kernel=kernel).multiply(
        A, B, cluster, **kwargs
    )

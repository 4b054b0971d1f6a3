"""Output checks against scipy and properties of the method.

None of them compares with a stored copy of earlier output: every expected
value is computed here, from the same generated inputs, with
``scipy.sparse``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

import numpy as np
import scipy.sparse as sp


@lru_cache(maxsize=None)
def scipy_input(dataset: str, scale: float) -> sp.csr_matrix:
    from repro.matrices import load_dataset
    from repro.sparse import to_scipy

    return to_scipy(load_dataset(dataset, scale=scale)).tocsr()


@lru_cache(maxsize=None)
def power_nnz(dataset: str, scale: float, squarings: int) -> int:
    """nnz of A^(2^squarings) as scipy computes it (explicit zeros dropped)."""
    M = scipy_input(dataset, scale)
    for _ in range(squarings):
        M = M @ M
        M.eliminate_zeros()
    return int(M.nnz)


@lru_cache(maxsize=None)
def triangle_count(dataset: str, scale: float) -> int:
    """trace(S³)/6 for S the loop-free symmetrised 0/1 pattern of A."""
    A = scipy_input(dataset, scale)
    S = ((abs(A) + abs(A).T) > 0).astype(np.int64).tocsr()
    S.setdiag(0)
    S.eliminate_zeros()
    S2 = S @ S
    return int(S2.multiply(S).sum()) // 6


def check_records(records) -> List[str]:
    """Errors (empty when all hold) for a list of RunRecords."""
    errors = []
    for r in records:
        c = r.config
        label = f"{c.workload}/{c.dataset}/{c.algorithm}/{c.strategy}/P={c.nprocs}"
        if not r.conserved:
            errors.append(f"{label}: ledger not conserved")
        if c.workload == "squaring":
            want = power_nnz(c.dataset, c.scale, 1)
            if r.output_nnz != want:
                errors.append(f"{label}: output_nnz {r.output_nnz} != scipy nnz(A·A) {want}")
        elif c.workload == "chained-squaring":
            want = power_nnz(c.dataset, c.scale, c.square_k)
            if r.output_nnz != want:
                errors.append(
                    f"{label}: output_nnz {r.output_nnz} != scipy nnz(A^{2 ** c.square_k}) {want}"
                )
        elif c.workload == "triangles":
            want = triangle_count(c.dataset, c.scale)
            if r.triangles is None or r.triangles.triangles != want:
                got = None if r.triangles is None else r.triangles.triangles
                errors.append(f"{label}: triangles {got} != trace(A³)/6 {want}")
    return errors


def check_assembled_products(configs) -> List[str]:
    """Assemble C once per (dataset, algorithm) and compare with scipy's A·A.

    Runs the config's squaring (its strategy, seed and smallest process
    count) outside the timed section and undoes the symmetric permutation
    on the output before comparing.
    """
    from repro.apps.squaring import prepare_ordering, run_squaring
    from repro.matrices import load_dataset
    from repro.partition.random_perm import apply_symmetric_permutation
    from repro.sparse import to_scipy

    chosen: Dict[tuple, object] = {}
    for c in configs:
        if c.workload != "squaring":
            continue
        key = (c.dataset, c.scale, c.algorithm)
        if key not in chosen or c.nprocs < chosen[key].nprocs:
            chosen[key] = c
    errors = []
    for (dataset, scale, algorithm), c in sorted(chosen.items()):
        A = load_dataset(dataset, scale=scale)
        run = run_squaring(
            A, algorithm=algorithm, strategy=c.strategy, nprocs=c.nprocs,
            block_split=c.block_split, seed=c.seed, layers=c.layers,
        )
        _, ordering, _ = prepare_ordering(A, c.strategy, c.nprocs, seed=c.seed)
        C = apply_symmetric_permutation(
            run.result.C, np.argsort(ordering.perm, kind="stable")
        )
        got = to_scipy(C).tocsr()
        got.eliminate_zeros()
        ref = scipy_input(dataset, scale) @ scipy_input(dataset, scale)
        ref.eliminate_zeros()
        pattern_differs = ((got != 0) != (ref != 0)).nnz
        error = abs(got - ref).max() if ref.nnz else 0.0
        close = not pattern_differs and error <= 1e-9 * abs(ref).max()
        if not close:
            errors.append(
                f"assembled C of {algorithm} on {dataset} (P={c.nprocs}) "
                "differs from scipy A·A"
            )
    return errors

"""Generated inputs for the benchmark workloads.

Everything a workload runs is made here from its seed, so the same seed
gives the same program and the same data on every host.  The task
bodies of the fine-grained programs live at module level so that the
process backend's workers can resolve them by name.
"""

from __future__ import annotations

import numpy as np

from repro import css_task
from repro.blas.hypermatrix import HyperMatrix

#: Elements per operand array of the fine-grained programs.
FINE_ELEMS = 4


# ---------------------------------------------------------------------------
# Fine-grained task bodies: one short, order-sensitive numpy expression
# each, bounded by sin() so no value ever overflows or turns into NaN.
# ---------------------------------------------------------------------------

@css_task("inout(x)")
def rot_t(x, c):
    np.sin(x + c, out=x)


@css_task("input(src) output(dst)")
def put_t(src, dst, c):
    np.multiply(src, c, out=dst)


@css_task("input(a, b) inout(acc)")
def acc_t(a, b, acc):
    np.sin(acc + a * b, out=acc)


#: Floating-point operations of one body call, per element.
FLOPS_PER_ELEM = {"rot_t": 2, "put_t": 1, "acc_t": 3}


class FineProgram:
    """A seeded random stream of tiny tasks over a small operand pool.

    The mix: ``rot_t`` extends ``inout`` RAW chains, ``put_t`` writes a
    pool entry through ``output`` (a WAR/WAW hazard the runtime removes
    by renaming), and ``acc_t`` is a 3-operand accumulate.  The pool is
    small, so most tasks touch data that earlier tasks still use.
    """

    def __init__(self, seed: int, tasks: int, pool: int = 12):
        rng = np.random.default_rng(seed)
        self.pool_size = pool
        self.initial = [
            rng.uniform(-1.0, 1.0, FINE_ELEMS) for _ in range(pool)
        ]
        kinds = rng.choice(3, size=tasks, p=[0.4, 0.3, 0.3])
        ops: list[tuple] = []
        for kind in kinds:
            if kind == 0:
                ops.append((rot_t, int(rng.integers(pool)),
                            float(rng.uniform(-1.0, 1.0))))
            elif kind == 1:
                src, dst = rng.choice(pool, size=2, replace=False)
                ops.append((put_t, int(src), int(dst),
                            float(rng.uniform(-1.0, 1.0))))
            else:
                a, b, acc = rng.choice(pool, size=3, replace=False)
                ops.append((acc_t, int(a), int(b), int(acc)))
        self.ops = ops
        self.flops = FINE_ELEMS * sum(
            FLOPS_PER_ELEM[op[0].__name__] for op in ops
        )

    @property
    def task_count(self) -> int:
        return len(self.ops)

    def submit(self, arrays: list) -> None:
        """Call every task of the program on *arrays* (the pool)."""

        for op in self.ops:
            task = op[0]
            if task is rot_t:
                rot_t(arrays[op[1]], op[2])
            elif task is put_t:
                put_t(arrays[op[1]], arrays[op[2]], op[3])
            else:
                acc_t(arrays[op[1]], arrays[op[2]], arrays[op[3]])


# ---------------------------------------------------------------------------
# Cholesky inputs
# ---------------------------------------------------------------------------

def spd_tiles(seed: int, n_blocks: int, block: int) -> HyperMatrix:
    """A seeded SPD hyper-matrix holding only its lower-triangle tiles.

    Symmetric with entries in [-1, 1] and ``n`` added to the diagonal,
    so it is strictly diagonally dominant and therefore SPD; built in
    O(n^2) rather than the O(n^3) of ``x @ x.T``.  Upper tiles stay
    ``None``: ``cholesky_hyper`` reads and writes the lower triangle only.
    """

    rng = np.random.default_rng(seed)
    size = n_blocks * block
    hm = HyperMatrix(n_blocks, block, np.float64)
    for i in range(n_blocks):
        for j in range(i + 1):
            tile = rng.uniform(-1.0, 1.0, (block, block))
            if i == j:
                tile = (tile + tile.T) / 2.0
                tile[np.diag_indices(block)] += size
            hm[i, j] = tile
    return hm


def lower_tiles(hm: HyperMatrix) -> list:
    """The present tiles of *hm* in a fixed (row, column) order."""

    return [
        hm[i][j] for i in range(hm.n) for j in range(i + 1)
        if hm[i][j] is not None
    ]


def load_tiles(dst: HyperMatrix, src: HyperMatrix) -> None:
    """Overwrite *dst*'s tiles with *src*'s, keeping *dst*'s objects."""

    for d, s in zip(lower_tiles(dst), lower_tiles(src)):
        d[...] = s


def cholesky_flops(size: int) -> float:
    return size ** 3 / 3.0

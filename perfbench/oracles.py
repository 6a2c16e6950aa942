"""Checks made apart from the program.

Every expected value here is computed from the factor pattern (or the
dense matrix) with plain numpy, never with the program's kernels and
never with ``np.unique``: distinct (processor, source element) pairs are
found by sorting the keys and keeping the first of each run.  The
functions return a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import numpy as np


class Reads:
    """Every element read of a Cholesky factorization with scale reads,
    enumerated from the lower factor pattern alone.

    For column k with sorted off-diagonal rows r_0 < ... < r_{m-1}, each
    pair b <= a makes the owner of L[r_a, r_b] read L[r_a, k] and
    L[r_b, k]; every element L[i, k] also reads the diagonal L[k, k].
    """

    def __init__(self, indptr, rowidx):
        indptr = np.asarray(indptr, dtype=np.int64)
        rowidx = np.asarray(rowidx, dtype=np.int64)
        n = len(indptr) - 1
        nnz = len(rowidx)
        col = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        pos = np.arange(nnz, dtype=np.int64) - indptr[col]
        off = np.flatnonzero(pos > 0)
        a_pos = pos[off] - 1                      # 0-based among off-diagonals
        count = a_pos + 1                         # pairs (a, b) with b <= a
        e_a = np.repeat(off, count)
        start = np.cumsum(count) - count
        b_pos = np.arange(int(count.sum()), dtype=np.int64) - np.repeat(start, count)
        e_b = indptr[col[e_a]] + 1 + b_pos
        # Element id of L[r_a, r_b]: sorted (column, row) keys of the pattern.
        keys = col * n + rowidx
        query = rowidx[e_b] * n + rowidx[e_a]
        target = np.searchsorted(keys, query)
        found = target < nnz
        found[found] = keys[target[found]] == query[found]
        if not found.all():
            raise ValueError("factor pattern is not closed under fill")
        self.nnz = nnz
        self.offdiag = np.diff(indptr) - 1
        self.update_counts = np.bincount(target, minlength=nnz)
        self.reader = np.concatenate([target, target, np.arange(nnz, dtype=np.int64)])
        self.source = np.concatenate([e_a, e_b, indptr[col]])

    def total_work(self) -> int:
        """W_tot = 2 * sum_k m_k (m_k + 1) / 2 + nnz(L), from column counts."""
        m = self.offdiag
        return int((m * (m + 1)).sum()) + self.nnz

    def traffic(self, owner, nprocs: int) -> np.ndarray:
        """Distinct non-local elements fetched by each processor."""
        owner = np.asarray(owner, dtype=np.int64)
        key = np.sort(owner[self.reader] * self.nnz + self.source)
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        key = key[first]
        proc = key // self.nnz
        src = key % self.nnz
        return np.bincount(proc[owner[src] != proc], minlength=nprocs)

    def work(self, owner, nprocs: int) -> np.ndarray:
        """Work per processor: 2 per pair update on an owned target + 1 per
        owned element."""
        per_element = 2 * self.update_counts + 1
        return np.bincount(
            np.asarray(owner, dtype=np.int64), weights=per_element, minlength=nprocs
        ).astype(np.int64)


def wrap_traffic(indptr, rowidx, nprocs: int) -> np.ndarray:
    """Wrap-mapped traffic per processor in closed form.

    Processor q != k mod P fetches m_k - f_q(k) elements of column k,
    where f_q(k) is the 0-based position of the first off-diagonal row j
    of column k with j mod P = q.  Scale reads are local under wrap.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    rowidx = np.asarray(rowidx, dtype=np.int64)
    n = len(indptr) - 1
    col = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    pos = np.arange(len(rowidx), dtype=np.int64) - indptr[col] - 1
    off = pos >= 0
    col, pos, q = col[off], pos[off], rowidx[off] % nprocs
    key = col * nprocs + q
    order = np.argsort(key, kind="stable")     # keeps ascending positions
    key, pos, col, q = key[order], pos[order], col[order], q[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    m = np.diff(indptr)[col[first]] - 1
    fetched = m - pos[first]
    remote = q[first] != col[first] % nprocs
    return np.bincount(q[first][remote], weights=fetched[remote], minlength=nprocs).astype(np.int64)


def wrap_owner(indptr, nprocs: int) -> np.ndarray:
    """The wrap mapping: every element of column j on processor j mod P."""
    indptr = np.asarray(indptr, dtype=np.int64)
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64) % nprocs, np.diff(indptr))


def compare(label: str, got, want) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not np.array_equal(got, want):
        diff = "shape" if got.shape != want.shape else int((got != want).sum())
        return [f"{label}: differs from the independent value ({diff})"]
    return []


def work_problems(label: str, per_proc, total_work: int) -> list[str]:
    """Sum of processor work equals W_tot, and max/mean >= 1 (lambda >= 0)."""
    per_proc = np.asarray(per_proc, dtype=np.int64)
    out = []
    if int(per_proc.sum()) != total_work:
        out.append(f"{label}: sum of work {int(per_proc.sum())} != W_tot {total_work}")
    if per_proc.max() * len(per_proc) < per_proc.sum():
        out.append(f"{label}: max work below mean")
    return out


def factor_problems(label: str, pattern, values, dense_factor, tol: float = 1e-10) -> list[str]:
    """The factor's values equal the dense Cholesky factor on the pattern."""
    rows = np.asarray(pattern.rowidx, dtype=np.int64)
    cols = np.repeat(np.arange(pattern.n), np.diff(np.asarray(pattern.indptr)))
    scale = float(np.abs(dense_factor).max())
    err = float(np.abs(np.asarray(values) - dense_factor[rows, cols]).max())
    outside = dense_factor.copy()
    outside[rows, cols] = 0.0
    out = []
    if err > tol * scale:
        out.append(f"{label}: factor differs from dense Cholesky by {err:.3g}")
    if float(np.abs(outside).max()) > tol * scale:
        out.append(f"{label}: dense factor has entries outside the pattern")
    return out

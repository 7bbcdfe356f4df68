"""JIT-compiled twin of the pure-Python heap enumerator.

Emits the exact same batch stream as `enumerate1d.PairSumEnumerator`
(tests enforce stream equality); it exists because tens of millions of
heap operations dominate wall time once n reaches 40 or so, and a
compiled loop runs them two orders of magnitude faster.  Heaps live in
preallocated parallel arrays (key, fixed index, run index); the max-heap
stores complemented keys so both sides share one min-heap comparator,
ordered by (key, fixed index) exactly like the reference.  Each call
runs the advance loop until one batch is drained, writing run segments
into reusable buffers that the wrapper expands to pair arrays.

Combined weights cannot overflow: alpha + beta is at most the full
first-row sum, which the instance invariants keep below 2^64.
"""

from __future__ import annotations

import numpy as np

from .enumerate1d import CandidateBatch

try:
    from numba import njit

    _NUMBA_OK = True
except ImportError:  # numba is the optional "jit" extra
    _NUMBA_OK = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(f):
            return f

        return wrap


_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)


def available() -> bool:
    return _NUMBA_OK


@njit(cache=True, nogil=True)
def _less(k1, f1, k2, f2):
    if k1 != k2:
        return k1 < k2
    return f1 < f2


@njit(cache=True, nogil=True)
def _sift_down(keys, fixs, runs, size, i):
    k, f, r = keys[i], fixs[i], runs[i]
    while True:
        child = 2 * i + 1
        if child >= size:
            break
        right = child + 1
        if right < size and _less(keys[right], fixs[right], keys[child], fixs[child]):
            child = right
        if _less(keys[child], fixs[child], k, f):
            keys[i] = keys[child]
            fixs[i] = fixs[child]
            runs[i] = runs[child]
            i = child
        else:
            break
    keys[i], fixs[i], runs[i] = k, f, r


@njit(cache=True, nogil=True)
def _heap_pop(keys, fixs, runs, size):
    size -= 1
    if size > 0:
        keys[0], fixs[0], runs[0] = keys[size], fixs[size], runs[size]
        _sift_down(keys, fixs, runs, size, 0)
    return size


@njit(cache=True, nogil=True)
def _heap_replace(keys, fixs, runs, size, k, f, r):
    keys[0], fixs[0], runs[0] = k, f, r
    _sift_down(keys, fixs, runs, size, 0)


@njit(cache=True, nogil=True)
def _next_batch(
    wa, rea, wb, wc, rec, wd, target,
    h1k, h1f, h1r, h2k, h2f, h2r, sizes, lseg, rseg,
):
    """Advance until one equal-weight batch drains; 0 = batch, 1 = exhausted."""
    n1 = sizes[0]
    n2 = sizes[1]
    na = wa.shape[0]
    nc = wc.shape[0]
    while n1 > 0 and n2 > 0:
        alpha = h1k[0]
        beta = _U64_MAX - h2k[0]
        combined = alpha + beta
        if combined < target:
            j = h1f[0]
            ni = rea[h1r[0]]
            if ni < na:
                _heap_replace(h1k, h1f, h1r, n1, wa[ni] + wb[j], j, ni)
            else:
                n1 = _heap_pop(h1k, h1f, h1r, n1)
        elif combined > target:
            l = h2f[0]
            nk = rec[h2r[0]]
            if nk < nc:
                _heap_replace(h2k, h2f, h2r, n2, _U64_MAX - (wc[nk] + wd[l]), l, nk)
            else:
                n2 = _heap_pop(h2k, h2f, h2r, n2)
        else:
            nl = 0
            while n1 > 0 and h1k[0] == alpha:
                j = h1f[0]
                i = h1r[0]
                end = rea[i]
                lseg[nl, 0] = i
                lseg[nl, 1] = end
                lseg[nl, 2] = j
                nl += 1
                if end < na:
                    _heap_replace(h1k, h1f, h1r, n1, wa[end] + wb[j], j, end)
                else:
                    n1 = _heap_pop(h1k, h1f, h1r, n1)
            nr = 0
            comp_beta = h2k[0]
            while n2 > 0 and h2k[0] == comp_beta:
                l = h2f[0]
                k = h2r[0]
                end = rec[k]
                rseg[nr, 0] = k
                rseg[nr, 1] = end
                rseg[nr, 2] = l
                nr += 1
                if end < nc:
                    _heap_replace(h2k, h2f, h2r, n2, _U64_MAX - (wc[end] + wd[l]), l, end)
                else:
                    n2 = _heap_pop(h2k, h2f, h2r, n2)
            sizes[0] = n1
            sizes[1] = n2
            return 0, alpha, beta, nl, nr
    sizes[0] = n1
    sizes[1] = n2
    return 1, np.uint64(0), np.uint64(0), 0, 0


def _expand(seg: np.ndarray, count: int) -> np.ndarray:
    starts = seg[:count, 0]
    lens = seg[:count, 1] - starts
    total = int(lens.sum())
    out = np.empty((total, 2), dtype=np.int64)
    offsets = np.cumsum(lens) - lens
    out[:, 0] = np.repeat(starts - offsets, lens) + np.arange(total, dtype=np.int64)
    out[:, 1] = np.repeat(seg[:count, 2], lens)
    return out


class JitPairSumEnumerator:
    """Drop-in replacement for PairSumEnumerator backed by compiled loops."""

    engine_name = "jit"

    def __init__(self, tables, target: int):
        if not _NUMBA_OK:
            raise RuntimeError("numba is not available")
        ta, tb, tc, td = tables
        self.tables = tuple(tables)
        self.target = int(target)
        self._wa = np.ascontiguousarray(ta.weights)
        self._rea = np.ascontiguousarray(ta.run_end)
        self._wb = np.ascontiguousarray(tb.weights)
        self._wc = np.ascontiguousarray(tc.weights)
        self._rec = np.ascontiguousarray(tc.run_end)
        self._wd = np.ascontiguousarray(td.weights)
        nb, nd = len(self._wb), len(self._wd)
        # B ascending / D descending, so the seeded key arrays are already
        # sorted and therefore valid heaps.
        self._h1k = self._wa[0] + self._wb
        self._h1f = np.arange(nb, dtype=np.int64)
        self._h1r = np.zeros(nb, dtype=np.int64)
        self._h2k = _U64_MAX - (self._wc[0] + self._wd)
        self._h2f = np.arange(nd, dtype=np.int64)
        self._h2r = np.zeros(nd, dtype=np.int64)
        self._sizes = np.array([nb, nd], dtype=np.int64)
        self._lseg = np.empty((nb, 3), dtype=np.int64)
        self._rseg = np.empty((nd, 3), dtype=np.int64)
        self.peak_h1 = nb
        self.peak_h2 = nd
        self.exhausted = False

    def heap_tops(self) -> tuple[int | None, int | None]:
        alpha = int(self._h1k[0]) if self._sizes[0] > 0 else None
        beta = int(_U64_MAX - self._h2k[0]) if self._sizes[1] > 0 else None
        return alpha, beta

    def next_batch(self) -> CandidateBatch | None:
        if self.exhausted:
            return None
        status, alpha, beta, nl, nr = _next_batch(
            self._wa, self._rea, self._wb,
            self._wc, self._rec, self._wd,
            np.uint64(self.target),
            self._h1k, self._h1f, self._h1r,
            self._h2k, self._h2f, self._h2r,
            self._sizes, self._lseg, self._rseg,
        )
        if status == 1:
            self.exhausted = True
            return None
        return CandidateBatch(
            alpha=int(alpha),
            beta=int(beta),
            left_pairs=_expand(self._lseg, nl),
            right_pairs=_expand(self._rseg, nr),
        )

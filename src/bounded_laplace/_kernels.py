"""Kernels for the grid privacy scan, with backend selection.

The scan maximises ``P_q(A) - amp * P_q'(A)`` over every admissible query
pair and every grid interval ``A = [x_i, x_j]``.  With ``d = F_q - amp *
F_q'`` on the grid, that is ``max_{i<j} d[j] - d[i]`` per pair.  The numpy
backend computes it as ``max_j (d[j] - min(d[:j]))`` in one pass over the
``m`` grid columns, all pairs at once: O(pairs * m) time and O(pairs)
working memory, with no chunking.  The numba backend compiles the direct
O(pairs * m^2) loop over all intervals.  Both return the same margin and
witness.  Unions of two disjoint intervals are searched with running
extrema, O(pairs * m) on both backends.  numba is optional: it is used when
importable unless the environment variable ``BOUNDED_LAPLACE_BACKEND=numpy``
is set; ``BOUNDED_LAPLACE_BACKEND=numba`` forces it and fails loudly if it
is unavailable.
"""

import os

import numpy as np

try:
    import numba
except ImportError:
    numba = None

_ENV_VAR = "BOUNDED_LAPLACE_BACKEND"

__all__ = ["active_backend", "available_backends", "worst_interval_margin"]


def available_backends():
    return ("numba", "numpy") if numba is not None else ("numpy",)


def active_backend() -> str:
    """Backend selected by the environment: 'numba' when available unless
    overridden."""
    requested = os.environ.get(_ENV_VAR, "auto").strip().lower() or "auto"
    if requested == "numpy":
        return "numpy"
    if requested == "numba":
        if numba is None:
            raise RuntimeError(f"{_ENV_VAR}=numba but numba is not importable")
        return "numba"
    if requested != "auto":
        raise ValueError(f"{_ENV_VAR} must be 'auto', 'numba' or 'numpy', got {requested!r}")
    return "numba" if numba is not None else "numpy"


def worst_interval_margin(cdf, pair_a, pair_b, amp, backend=None, two_intervals=False):
    """Maximise ``P_q(A) - amp * P_q'(A)`` over pairs and grid intervals.

    ``cdf[r, k]`` holds the CDF of query row ``r`` at grid point ``x_k``;
    rows ``pair_a[p]`` / ``pair_b[p]`` form the p-th query pair; ``A`` runs
    over all intervals ``[x_i, x_j]`` with ``i < j`` (and, when
    ``two_intervals`` is set, over unions of two disjoint such intervals).

    Returns ``(margin, pair_index, intervals)`` with ``intervals`` a tuple
    of one or two ``(i, j)`` index pairs.  For a single interval, ties
    between equal margins go to the lexicographically first ``(p, i, j)``,
    and both backends return the same float margin and the same witness:
    each margin is the float difference ``d[j] - d[i]`` of the same two
    entries.  The numpy single-interval scan streams over the grid columns
    and keeps a few length-pairs vectors, so its memory is O(pairs), not
    O(pairs * m).
    """
    cdf = np.ascontiguousarray(cdf, dtype=np.float64)
    pair_a = np.ascontiguousarray(pair_a, dtype=np.int64)
    pair_b = np.ascontiguousarray(pair_b, dtype=np.int64)
    amp = float(amp)
    if cdf.ndim != 2 or cdf.shape[1] < 2:
        raise ValueError(f"cdf must be 2-d with at least 2 grid columns, got {cdf.shape}")
    if pair_a.shape != pair_b.shape or pair_a.ndim != 1 or pair_a.size == 0:
        raise ValueError("pair index arrays must be equal-length, non-empty 1-d arrays")
    for arr in (pair_a, pair_b):
        if arr.min() < 0 or arr.max() >= cdf.shape[0]:
            raise ValueError("pair indices out of range")
    chosen = backend if backend is not None else active_backend()
    if chosen not in ("numba", "numpy"):
        raise ValueError(f"backend must be 'numba' or 'numpy', got {chosen!r}")
    if chosen == "numba" and numba is None:
        raise RuntimeError("numba backend requested but numba is not importable")

    if chosen == "numba":
        best1, p1, i1, j1 = _single_margin_numba(cdf, pair_a, pair_b, amp)
    else:
        best1, p1, i1, j1 = _single_margin_numpy(cdf, pair_a, pair_b, amp)
    if not two_intervals:
        return float(best1), int(p1), ((int(i1), int(j1)),)

    if chosen == "numba":
        best2, p2 = _two_margin_numba(cdf, pair_a, pair_b, amp)
    else:
        best2, p2 = _two_margin_numpy(cdf, pair_a, pair_b, amp)
    if best2 > best1:
        d = cdf[pair_a[p2]] - amp * cdf[pair_b[p2]]
        return float(best2), int(p2), _recover_two_intervals(d)
    return float(best1), int(p1), ((int(i1), int(j1)),)


def _single_margin_numpy(cdf, pair_a, pair_b, amp):
    # One pass over the grid columns with three length-pairs vectors, plus
    # one scratch: ``d`` (this column), ``low`` = min(d[:j]) and ``best`` =
    # the best d[j] - low so far.  min and max are exact, so each gain is the
    # float subtraction of the same two entries as in the quadratic scan.
    cols = np.ascontiguousarray(cdf.T)
    d = np.empty(pair_a.size)
    tmp = np.empty(pair_a.size)
    low = cols[0, pair_a] - amp * cols[0, pair_b]
    best = np.full(pair_a.size, -np.inf)
    for col in cols[1:]:
        # indices were range-checked by the caller; mode="clip" lets take
        # write straight into ``out`` instead of buffering
        np.take(col, pair_a, out=d, mode="clip")
        np.multiply(np.take(col, pair_b, out=tmp, mode="clip"), amp, out=tmp)
        np.subtract(d, tmp, out=d)
        np.maximum(best, np.subtract(d, low, out=tmp), out=best)
        np.minimum(low, d, out=low)
    # argmax takes the first pair attaining the maximum
    bp = int(np.argmax(best))
    v = float(best[bp])
    d = cdf[pair_a[bp]] - amp * cdf[pair_b[bp]]
    bi, bj = _first_interval(d, v)
    return v, bp, bi, bj


def _first_interval(d, target):
    """Lexicographically first ``(i, j)`` with ``i < j`` and ``d[j] - d[i] == target``.

    ``target`` must be the maximum of ``d[j] - d[i]``; then row ``i`` attains
    it exactly when ``max(d[i+1:]) - d[i]`` does, since float subtraction is
    monotone in each operand.
    """
    suffix_max = np.maximum.accumulate(d[:0:-1])[::-1]
    i = int(np.argmax(suffix_max - d[:-1] == target))
    j = i + 1 + int(np.argmax(d[i + 1:] - d[i] == target))
    return i, j


def _two_margin_numpy(cdf, pair_a, pair_b, amp):
    m = cdf.shape[1]
    if m < 3:
        return -np.inf, -1
    best = -np.inf
    bp = -1
    chunk = max(1, 2_000_000 // m)
    for s in range(0, pair_a.size, chunk):
        d = cdf[pair_a[s:s + chunk]] - amp * cdf[pair_b[s:s + chunk]]
        run_min = np.minimum.accumulate(d[:, :-1], axis=1)
        left = np.maximum.accumulate(d[:, 1:] - run_min, axis=1)
        run_max = np.maximum.accumulate(d[:, :0:-1], axis=1)[:, ::-1]
        right = np.maximum.accumulate((run_max - d[:, :-1])[:, ::-1], axis=1)[:, ::-1]
        total = left[:, : m - 2] + right[:, 1: m - 1]
        k = int(np.argmax(total))
        v = float(total.flat[k])
        if v > best:
            best, bp = v, s + k // (m - 2)
    return best, bp


def _recover_two_intervals(d):
    """Best union of two disjoint intervals for one pair, with indices.

    Only runs on the single winning pair, so the tracked scans stay cheap.
    """
    m = d.shape[0]
    left_val = np.full(m, -np.inf)
    left_arg = [(-1, -1)] * m
    lo, lo_i = d[0], 0
    for j in range(1, m):
        v = d[j] - lo
        if v > left_val[j - 1]:
            left_val[j] = v
            left_arg[j] = (lo_i, j)
        else:
            left_val[j] = left_val[j - 1]
            left_arg[j] = left_arg[j - 1]
        if d[j] < lo:
            lo, lo_i = d[j], j
    right_val = np.full(m, -np.inf)
    right_arg = [(-1, -1)] * m
    hi, hi_j = d[m - 1], m - 1
    for i in range(m - 2, -1, -1):
        v = hi - d[i]
        if v > right_val[i + 1]:
            right_val[i] = v
            right_arg[i] = (i, hi_j)
        else:
            right_val[i] = right_val[i + 1]
            right_arg[i] = right_arg[i + 1]
        if d[i] > hi:
            hi, hi_j = d[i], i
    best = -np.inf
    split = -1
    for k in range(1, m - 1):
        v = left_val[k] + right_val[k]
        if v > best:
            best, split = v, k
    return left_arg[split], right_arg[split]


if numba is not None:

    @numba.njit(cache=True)
    def _single_margin_numba(cdf, pair_a, pair_b, amp):  # pragma: no cover - jitted
        m = cdf.shape[1]
        best = -np.inf
        bp = bi = bj = -1
        d = np.empty(m)
        for p in range(pair_a.shape[0]):
            ra = pair_a[p]
            rb = pair_b[p]
            for k in range(m):
                d[k] = cdf[ra, k] - amp * cdf[rb, k]
            for i in range(m - 1):
                di = d[i]
                for j in range(i + 1, m):
                    v = d[j] - di
                    if v > best:
                        best = v
                        bp, bi, bj = p, i, j
        return best, bp, bi, bj

    @numba.njit(cache=True)
    def _two_margin_numba(cdf, pair_a, pair_b, amp):  # pragma: no cover - jitted
        m = cdf.shape[1]
        best = -np.inf
        bp = -1
        if m < 3:
            return best, bp
        d = np.empty(m)
        left = np.empty(m)
        right = np.empty(m)
        for p in range(pair_a.shape[0]):
            ra = pair_a[p]
            rb = pair_b[p]
            for k in range(m):
                d[k] = cdf[ra, k] - amp * cdf[rb, k]
            lo = d[0]
            acc = -np.inf
            for j in range(1, m):
                v = d[j] - lo
                if v > acc:
                    acc = v
                left[j] = acc
                if d[j] < lo:
                    lo = d[j]
            hi = d[m - 1]
            acc = -np.inf
            for i in range(m - 2, -1, -1):
                v = hi - d[i]
                if v > acc:
                    acc = v
                right[i] = acc
                if d[i] > hi:
                    hi = d[i]
            for k in range(1, m - 1):
                v = left[k] + right[k]
                if v > best:
                    best = v
                    bp = p
        return best, bp

else:  # pragma: no cover - exercised only without numba installed
    _single_margin_numba = None
    _two_margin_numba = None

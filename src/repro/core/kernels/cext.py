"""The ``cext`` backend: C kernels compiled at first use, called via ctypes.

No build step and no dependencies beyond a system C compiler: the first
request for this backend writes the embedded source below to a cache
directory keyed by its SHA-256, compiles it with ``cc -O3 -fPIC
-shared``, atomically publishes the shared object (``os.replace``), and
loads it with :class:`ctypes.CDLL`. Later processes (and later runs) hit
the cache. Machines without a compiler simply don't offer this backend —
auto-detection falls through to ``numpy``, and an explicit
``kernel="cext"`` raises :class:`~repro.errors.KernelUnavailableError`
with the compiler diagnostic.

ctypes releases the GIL for the duration of every foreign call, so the
search kernels run truly concurrently under threaded serving — the GIL
guarantee the ROADMAP's thread-per-shard item needs.

The C functions compute exactly what the vectorized ``numpy``
reference computes; the conformance gauntlet asserts the two backends
byte-identical.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.kernels.interface import KernelBackend, LabelState, Workspace
from repro.errors import KernelUnavailableError

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

double rk_decode(const double *row, const int64_t *ids, const double *dists,
                 int64_t count) {
    double best = INFINITY;
    for (int64_t i = 0; i < count; i++) {
        double value = row[ids[i]] + dists[i];
        if (value < best) best = value;
    }
    return best;
}

double rk_upper_bound(const int64_t *s_ids, const double *s_dists, int64_t ns,
                      const int64_t *t_ids, const double *t_dists, int64_t nt,
                      const double *matrix, int64_t k) {
    /* Equation 4; the zero highway diagonal subsumes Lemma 5.1's
     * common-landmark term. */
    double best = INFINITY;
    for (int64_t i = 0; i < ns; i++) {
        const double ds = s_dists[i];
        const double *row = matrix + s_ids[i] * k;
        for (int64_t j = 0; j < nt; j++) {
            double value = ds + row[t_ids[j]] + t_dists[j];
            if (value < best) best = value;
        }
    }
    return best;
}

double rk_bounded_bfs(const int64_t *indptr, const int32_t *indices,
                      int64_t source, int64_t target, double bound,
                      const uint8_t *excluded,
                      int8_t *side, int64_t *queue_s, int64_t *queue_t) {
    int64_t s_lo = 0, s_hi = 1, s_tail = 1;
    int64_t t_lo = 0, t_hi = 1, t_tail = 1;
    int64_t visited_s = 1, visited_t = 1;
    int64_t depth_s = 0, depth_t = 0;
    double result = bound;
    int done = 0;

    side[source] = 1;
    side[target] = 2;
    queue_s[0] = source;
    queue_t[0] = target;

    while (!done && s_hi > s_lo && t_hi > t_lo) {
        int expand_s = visited_s <= visited_t;
        int64_t *queue = expand_s ? queue_s : queue_t;
        int64_t lo = expand_s ? s_lo : t_lo;
        int64_t hi = expand_s ? s_hi : t_hi;
        int8_t own = expand_s ? 1 : 2;
        int8_t other = expand_s ? 2 : 1;
        int64_t tail = hi;
        int met = 0;

        for (int64_t i = lo; i < hi && !met; i++) {
            int64_t v = queue[i];
            int64_t end = indptr[v + 1];
            for (int64_t e = indptr[v]; e < end; e++) {
                int64_t w = indices[e];
                if (excluded && excluded[w]) continue;
                int8_t mark = side[w];
                if (mark == other) { met = 1; break; }
                if (mark == 0) { side[w] = own; queue[tail++] = w; }
            }
        }
        if (expand_s) {
            depth_s += 1; visited_s += tail - hi;
            s_lo = hi; s_hi = tail; s_tail = tail;
        } else {
            depth_t += 1; visited_t += tail - hi;
            t_lo = hi; t_hi = tail; t_tail = tail;
        }
        if (met) {
            result = (double)(depth_s + depth_t);
            done = 1;
        } else if ((double)(depth_s + depth_t) >= bound) {
            result = bound;
            done = 1;
        }
    }
    for (int64_t i = 0; i < s_tail; i++) side[queue_s[i]] = 0;
    for (int64_t i = 0; i < t_tail; i++) side[queue_t[i]] = 0;
    return result;
}

void rk_multi_target(const int64_t *indptr, const int32_t *indices, int64_t n,
                     const int64_t *sources, int64_t num_groups,
                     const int64_t *gstart,
                     const int64_t *t_vertex, const double *t_bound,
                     double *out,
                     const uint8_t *excluded,
                     int32_t *levels, int64_t *queue) {
    for (int64_t g = 0; g < num_groups; g++) {
        int64_t t0 = gstart[g], t1 = gstart[g + 1];
        if (t1 == t0) continue;
        double gmax = 0.0;
        for (int64_t p = t0; p < t1; p++) {
            double cap = isinf(t_bound[p]) ? (double)n : t_bound[p] - 1.0;
            if (cap > gmax) gmax = cap;
        }
        if (gmax < 1.0) continue;
        if (gmax > (double)n) gmax = (double)n;
        int64_t max_level = (int64_t)gmax;

        int64_t src = sources[g];
        levels[src] = 0;
        queue[0] = src;
        int64_t lo = 0, hi = 1, tail = 1;
        int64_t found = 0, total = t1 - t0;
        for (int64_t level = 1;
             level <= max_level && hi > lo && found < total; level++) {
            for (int64_t i = lo; i < hi; i++) {
                int64_t v = queue[i];
                int64_t end = indptr[v + 1];
                for (int64_t e = indptr[v]; e < end; e++) {
                    int64_t w = indices[e];
                    if (excluded && excluded[w]) continue;
                    if (levels[w] != -1) continue;
                    levels[w] = (int32_t)level;
                    queue[tail++] = w;
                    int64_t a = t0, b = t1;
                    while (a < b) {
                        int64_t mid = (a + b) / 2;
                        if (t_vertex[mid] < w) a = mid + 1; else b = mid;
                    }
                    if (a < t1 && t_vertex[a] == w && (double)level < out[a]) {
                        out[a] = (double)level;
                    }
                    if (a < t1 && t_vertex[a] == w) found++;
                }
            }
            lo = hi; hi = tail;
        }
        for (int64_t i = 0; i < tail; i++) levels[queue[i]] = -1;
    }
}
"""

_COMPILERS = ("cc", "gcc", "clang")


def _cache_path() -> Path:
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    suffix = "dll" if sys.platform == "win32" else "so"
    return (
        Path(tempfile.gettempdir())
        / f"repro-kernels-{digest}"
        / f"librepro_kernels.{suffix}"
    )


def _find_compiler() -> Optional[str]:
    import shutil

    for name in _COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _build_library(target: Path) -> None:
    """Compile the embedded source and atomically publish the .so."""
    compiler = _find_compiler()
    if compiler is None:
        raise KernelUnavailableError(
            "cext kernel backend needs a C compiler (cc/gcc/clang) on PATH"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    source = target.parent / "repro_kernels.c"
    source.write_text(_C_SOURCE)
    scratch = target.parent / f".build-{os.getpid()}{target.suffix}"
    try:
        proc = subprocess.run(
            [compiler, "-O3", "-fPIC", "-shared", "-o", str(scratch), str(source)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise KernelUnavailableError(
                f"cext kernel compilation failed ({compiler}): "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        os.replace(scratch, target)  # atomic: concurrent builders race safely
    finally:
        if scratch.exists():  # a failed compile leaves no half-written .so
            scratch.unlink()


def _load_library() -> ctypes.CDLL:
    target = _cache_path()
    if not target.exists():
        _build_library(target)
    try:
        lib = ctypes.CDLL(str(target))
    except OSError as exc:  # stale/foreign cache entry: rebuild once
        _build_library(target)
        try:
            lib = ctypes.CDLL(str(target))
        except OSError:
            raise KernelUnavailableError(
                f"cext kernel library failed to load: {exc}"
            ) from exc

    c_double, c_i64, c_ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
    lib.rk_decode.restype = c_double
    lib.rk_decode.argtypes = [c_ptr, c_ptr, c_ptr, c_i64]
    lib.rk_upper_bound.restype = c_double
    lib.rk_upper_bound.argtypes = [
        c_ptr, c_ptr, c_i64, c_ptr, c_ptr, c_i64, c_ptr, c_i64,
    ]
    lib.rk_bounded_bfs.restype = c_double
    lib.rk_bounded_bfs.argtypes = [
        c_ptr, c_ptr, c_i64, c_i64, c_double, c_ptr, c_ptr, c_ptr, c_ptr,
    ]
    lib.rk_multi_target.restype = None
    lib.rk_multi_target.argtypes = [
        c_ptr, c_ptr, c_i64, c_ptr, c_i64, c_ptr, c_ptr, c_ptr, c_ptr,
        c_ptr, c_ptr, c_ptr,
    ]
    return lib


def _ptr(array: Optional[np.ndarray]):
    return None if array is None else array.ctypes.data


class _GraphMemo:
    """One-entry identity memo for the per-graph ctypes addresses.

    ``ndarray.ctypes`` constructs a fresh accessor object per access;
    on the point-query hot path that glue costs more than the C call it
    feeds. The memo holds a strong reference to the last ``(csr,
    excluded)`` pair it saw, so the cached addresses can never outlive
    their arrays.
    """

    __slots__ = ("csr", "excluded", "indptr", "indices", "excl")

    def __init__(self) -> None:
        self.csr = None

    def addrs(self, csr, excluded: Optional[np.ndarray]):
        if csr is not self.csr or excluded is not self.excluded:
            self.indptr = csr.indptr.ctypes.data
            self.indices = csr.indices.ctypes.data
            self.excl = None if excluded is None else excluded.ctypes.data
            self.csr = csr
            self.excluded = excluded
        return self.indptr, self.indices, self.excl


class CExtKernel(KernelBackend):
    """Machine-code kernels via a runtime-compiled C library.

    Construction compiles (or reuses) the shared object; it raises
    :class:`~repro.errors.KernelUnavailableError` when no compiler is
    available, which the registry's auto-detection treats as "skip".
    """

    name = "cext"
    compiled = True
    #: ctypes drops the GIL around every foreign call.
    releases_gil = True

    def __init__(self) -> None:
        self._lib = _load_library()
        self._memo = _GraphMemo()

    def decode(self, state: LabelState, r_index: int, vertex: int) -> float:
        lo = int(state.offsets[vertex])
        hi = int(state.offsets[vertex + 1])
        k = state.matrix.shape[0]
        return self._lib.rk_decode(
            state.matrix_addr + r_index * k * 8,
            state.ids_addr + lo * 8,
            state.dists_addr + lo * 8,
            hi - lo,
        )

    def upper_bound(self, state: LabelState, s: int, t: int) -> float:
        offsets = state.offsets
        s_lo, s_hi = int(offsets[s]), int(offsets[s + 1])
        t_lo, t_hi = int(offsets[t]), int(offsets[t + 1])
        ids = state.ids_addr
        dists = state.dists_addr
        return self._lib.rk_upper_bound(
            ids + s_lo * 8,
            dists + s_lo * 8,
            s_hi - s_lo,
            ids + t_lo * 8,
            dists + t_lo * 8,
            t_hi - t_lo,
            state.matrix_addr,
            state.matrix.shape[0],
        )

    def bounded_distance(
        self,
        csr,
        source: int,
        target: int,
        bound: float,
        excluded: Optional[np.ndarray],
        workspace: Workspace,
    ) -> float:
        indptr, indices, excl = self._memo.addrs(csr, excluded)
        return self._lib.rk_bounded_bfs(
            indptr,
            indices,
            int(source),
            int(target),
            float(bound),
            excl,
            workspace.side_addr,
            workspace.queue_a_addr,
            workspace.queue_b_addr,
        )

    def multi_target(
        self,
        csr,
        n: int,
        sources: np.ndarray,
        targets: np.ndarray,
        target_group: np.ndarray,
        bounds: np.ndarray,
        excluded: Optional[np.ndarray],
        workspace: Workspace,
        cells_budget: int = 1 << 26,
    ) -> np.ndarray:
        # Sort targets by (group, vertex): the C kernel settles a visit
        # by binary search within its group's contiguous slice.
        order = np.lexsort((targets, target_group))
        t_vertex = np.ascontiguousarray(targets[order], dtype=np.int64)
        t_bound = np.ascontiguousarray(bounds[order].astype(float))
        sorted_groups = target_group[order]
        num_groups = len(sources)
        gstart = np.searchsorted(
            sorted_groups, np.arange(num_groups + 1, dtype=np.int64)
        ).astype(np.int64)
        out_sorted = t_bound.copy()
        sources = np.ascontiguousarray(sources, dtype=np.int64)
        indptr, indices, excl = self._memo.addrs(csr, excluded)
        self._lib.rk_multi_target(
            indptr,
            indices,
            int(n),
            _ptr(sources),
            num_groups,
            _ptr(gstart),
            _ptr(t_vertex),
            _ptr(t_bound),
            _ptr(out_sorted),
            excl,
            workspace.levels_addr,
            workspace.queue_a_addr,
        )
        out = np.empty(len(targets), dtype=float)
        out[order] = out_sorted
        return out

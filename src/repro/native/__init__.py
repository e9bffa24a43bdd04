"""The compiled tier: C kernels through cffi, on whenever they build.

``kernels.c`` holds the two per-query loops that dominate an
interpreted query (ROADMAP item 5, steps 1 and 3):

* Alg. 7's settle loop — :class:`SPTState`, which
  :class:`~repro.core.flat_engine.CompiledIncrementalSPT` drives, over
  the base graph's CSR export;
* the landmark bounds of one node — Eq. (2) toward ``V_T``, computed
  when the settle loop first touches a node, into the memo of a
  :class:`~repro.landmarks.index.TargetBounds`, and Eq. (1) toward the
  sources (:func:`eq1_source`, for
  :class:`~repro.landmarks.index.LazySourceBounds`).

This module is the tier's one boundary: nothing else in the package
touches cffi, a cdata pointer, the ``kpj_spt`` struct or the kernels'
status codes (``tests/test_layering.py``).  Callers hand it numpy
arrays and get floats, ints, tuples and memoryviews back.  The
pure-Python code stays as the fallback and the reference: both tiers
return the same paths and the same work counters, bit for bit.

Importing this module loads the extension from a build cache keyed by
a hash of the C source and the interpreter's ABI tag
(:func:`module_name`).  A missing extension is
built in a child process (``python -m repro.native.build <dir>``), so
setuptools and the compiler never add to this process's memory.  The
cache is the gitignored ``_cache`` directory next to this file, or a
per-user directory under the system temp directory where that one is
not writable.  A cache directory is used only if it is a real
directory (not a symlink), owned by this user or root, and writable by
no one else; it is made with mode ``0o700``.  An extension is loaded
only under the same rule, so no other user can plant or swap the code
this process runs.  :data:`HAVE_NATIVE` says whether the tier loaded,
the way :data:`repro.pathing.flat.HAVE_SCIPY` says whether scipy did:
without cffi it is ``False``, and a failed build logs one line and
leaves it ``False``.  A compile that fails (the child ran and exited
non-zero) is remembered in a ``.failed`` marker next to where the
extension would be, under the same key, so later imports (every CLI
call, every served process) take the Python path without rebuilding
or logging again; deleting the marker makes the next import retry.  A
child that could not be started or timed out leaves no marker: this
process runs the Python path, and the next import tries again.  There
is no switch; tests pick a tier by monkeypatching :data:`HAVE_NATIVE`.
The tier is POSIX-only.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import stat
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from repro.graph.csr import shared_csr

__all__ = ["HAVE_NATIVE", "SPTState", "begin_spt", "eq1_source", "module_name"]

_log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("kernels.c")

#: No fused multiply-add and no fast-math: each float64 operation
#: rounds exactly as the pure-Python reference's does.
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math")

#: Seconds the child build may take before the Python path is used.
BUILD_TIMEOUT_S = 300


def extension_suffix() -> str:
    """The interpreter's extension-module suffix (its ABI tag)."""
    return importlib.machinery.EXTENSION_SUFFIXES[0]


def module_name(source: str, cffi_version: str) -> str:
    """``_kpj_<hash>``: the extension's module name for ``source``,
    keyed also on :data:`CFLAGS`, the cffi version and the ABI tag."""
    key = hashlib.sha256()
    for part in (source, " ".join(CFLAGS), cffi_version, extension_suffix()):
        key.update(part.encode())
        key.update(b"\0")
    return "_kpj_" + key.hexdigest()[:16]


def _cache_dirs() -> list[Path]:
    """The in-tree cache, then a per-user temp directory."""
    return [
        Path(__file__).with_name("_cache"),
        Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}",
    ]


def _private(path: Path, kind) -> bool:
    """Whether ``path`` is, without following a symlink, of ``kind``
    (:func:`stat.S_ISDIR` or :func:`stat.S_ISREG`), owned by this user
    or root, and writable by neither group nor others."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return (
        kind(st.st_mode)
        and st.st_uid in (0, os.getuid())
        and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _import(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build(directory: Path) -> str | None:
    """Run the child build into ``directory``; ``None`` on success,
    else the reason the compile failed.

    Raises
    ------
    OSError, subprocess.SubprocessError
        If the child could not be started or did not finish in
        :data:`BUILD_TIMEOUT_S`: a failure of this moment, not of the
        source.
    """
    src = str(Path(__file__).parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "repro.native.build", str(directory)],
        env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines()
        return lines[-1] if lines else f"exit code {done.returncode}"
    return None


def _in_builder() -> bool:
    """Whether this process is the build child, which imports this
    package on its way to ``repro.native.build``'s ``main``."""
    argv = sys.orig_argv
    return any(a == "-m" and b == __name__ + ".build" for a, b in zip(argv, argv[1:]))


def _unavailable(reason: str, marker: Path | None = None) -> None:
    """Log, once, why the Python path runs.  ``marker`` records the
    failure under the extension's key, so later imports neither
    rebuild nor log; deleting it makes the next import try again."""
    if marker is not None:
        try:
            marker.write_text(reason + "\n")
        except OSError:
            marker = None
    retry = f" (delete {marker} to retry)" if marker is not None else ""
    _log.warning("compiled tier unavailable (%s); using the Python path%s", reason, retry)


def _load():
    """The compiled module, or ``None`` when the tier is unavailable."""
    if _in_builder() or not hasattr(os, "getuid"):
        return None
    try:
        import _cffi_backend
    except ImportError:  # no cffi: the Python path, silently
        return None
    name = module_name(SOURCE.read_text(), _cffi_backend.__version__)
    for directory in _cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        except OSError:
            continue
        if not _private(directory, stat.S_ISDIR):
            continue  # a symlink, or others may write in it
        extension = directory / (name + extension_suffix())
        marker = directory / (name + ".failed")
        if marker.is_file():
            return None  # this build failed here before, and said why then
        if not _private(extension, stat.S_ISREG):
            if not os.access(directory, os.W_OK | os.X_OK):
                continue
            try:
                reason = _build(directory)
            except (OSError, subprocess.SubprocessError) as exc:
                _unavailable(str(exc))
                return None
            if reason is not None:
                _unavailable(reason, marker)
                return None
        try:
            return _import(name, extension)
        except ImportError as exc:
            _unavailable(str(exc), marker)
            return None
    _unavailable("no private writable build directory")
    return None


_module = _load()

#: Whether the compiled kernels loaded.
HAVE_NATIVE = _module is not None
ffi = _module.ffi if _module is not None else None
lib = _module.lib if _module is not None else None


# kpj_spt_settle's status codes (see kernels.c).
_FULL, _IDLE = -2, -3

#: The heap entry, laid out as ``kpj_entry``.
_ENTRY = np.dtype([("key", "f8"), ("node", "i8")])

#: The C element type the kernels read for each numpy dtype.
_CTYPES = {
    np.dtype(np.float64): "double[]",
    np.dtype(np.int64): "int64_t[]",
    np.dtype(np.uint8): "uint8_t[]",
    _ENTRY: "kpj_entry[]",
}


def _buffer(array):
    """A pointer into ``array`` typed by its dtype (a ``KeyError`` for
    one the kernels do not read), or NULL for ``None``.  The cdata
    keeps the buffer alive; a struct field holding it does not."""
    return ffi.NULL if array is None else ffi.from_buffer(_CTYPES[array.dtype], array)


def eq1_source(matrix: np.ndarray, dmax: np.ndarray) -> Callable[[int], float]:
    """Eq. (1) toward a source set as one C call per node: ``bound(u)``
    is ``max_w (δ(w, u) - dmax[w])`` over column ``u`` of the ``|L| x
    n`` landmark ``matrix`` and the sources' per-landmark maxima
    ``dmax``, ``-inf`` where both terms are inf, floored at 0, as the
    numpy column gives it.  ``u`` must lie in ``[0, n)``, unchecked.
    The callable holds the pointers, and so the arrays."""
    nlm, n = matrix.shape
    if len(dmax) != nlm:
        raise ValueError(f"{len(dmax)} landmark maxima for {nlm} landmarks")
    return partial(lib.kpj_eq1_source, _buffer(matrix), _buffer(dmax), nlm, n)


def _overlay_arrays(query_graph) -> tuple:
    """``G_Q``'s forward overlay as the settle loop reads it: destination
    flags by node id (``n + 2`` bytes) and the virtual nodes' rows as a
    small CSR (``vptr``, ``vidx``, ``vw``).  Cached on the overlay
    (``OverlayRows.kernel_arrays``), so a prepared entry builds them
    once for every query against its destination set."""
    rows = query_graph.graph.adjacency
    cached = rows.kernel_arrays
    if cached is None:
        n = query_graph.base.n
        flags = np.zeros(n + 2, dtype=np.uint8)
        flags[list(query_graph.destinations)] = 1
        virtual = [rows[u] for u in range(n, len(rows))]
        vptr = np.cumsum([0] + [len(row) for row in virtual], dtype=np.int64)
        vidx = np.array([v for row in virtual for v, _ in row], dtype=np.int64)
        vw = np.array([w for row in virtual for _, w in row], dtype=np.float64)
        cached = rows.kernel_arrays = (flags, vptr, vidx, vw)
    return cached


class SPTState:
    """Alg. 7's settle loop in C and its state, pooled on a base graph.

    ``float64``/``int64`` buffers of ``n + 2`` slots — dist, stamp,
    parent, the tree's ``h``, the settled order and the settled
    destinations — plus a binary heap of ``(key, node)`` entries, and
    the ``kpj_spt`` struct that points at them and at the base graph's
    CSR export.  The heap holds ``1 + m + 2n`` entries: Alg. 7 pushes
    the source once and then at most once per edge of ``G_Q``, which
    has ``m + |V_T| + |V_S|`` of them; a push past the end is refused
    all the same.  Between trees ``h`` is all ``inf`` and the stamps
    carry no current generation.  ``h``, ``parent`` and ``stamp`` are
    memoryviews, so Python reads plain floats and ints from them.
    :func:`begin_spt` checks a state out of the base graph's
    ``"native"`` pool and :meth:`release` returns it.
    """

    __slots__ = ("h", "parent", "stamp", "settled_tag", "_s", "_dest_nodes",
                 "_dest_dists", "_keep", "_inputs", "_nbytes", "_home")

    def __init__(self, base, home: list) -> None:
        n = base.n
        indptr, indices, weights = shared_csr(base).typed_arrays()
        owned = {
            "dist": np.empty(n + 2),
            "stamp": np.zeros(n + 2, dtype=np.int64),
            "parent": np.empty(n + 2, dtype=np.int64),
            "h": np.full(n + 2, np.inf),
            "order": np.empty(n + 2, dtype=np.int64),
            "dest_nodes": np.empty(n + 2, dtype=np.int64),
            "dest_dists": np.empty(n + 2),
            "heap": np.empty(1 + len(indices) + 2 * n, dtype=_ENTRY),
        }
        arrays = {"indptr": indptr, "indices": indices, "weights": weights, **owned}
        s = self._s = ffi.new("kpj_spt *")
        self._keep = [_buffer(array) for array in arrays.values()]
        for field, cdata in zip(arrays, self._keep):
            setattr(s, field, cdata)
        s.n = n
        s.heap_cap = len(owned["heap"])
        # The CSR arrays are the base graph's shared export: not counted.
        self._nbytes = sum(array.nbytes for array in owned.values())
        self._home = home
        self.h, self.parent, self.stamp, self._dest_nodes, self._dest_dists = (
            memoryview(owned[name])
            for name in ("h", "parent", "stamp", "dest_nodes", "dest_dists")
        )

    def settle(self, goal: int, tau: float) -> tuple | None:
        """Pop and settle until ``goal`` is settled or every key left is
        over ``tau``: ``None`` if no key was ``<= tau``, else ``(found,
        settled, relaxed, pops, peak)`` — ``goal`` if it settled (else
        ``None``), this call's counters, and the queue's largest size at
        the end of any call so far.  A full heap raises RuntimeError.
        """
        s = self._s
        found = lib.kpj_spt_settle(s, goal, tau)
        if found == _IDLE:
            return None
        if found == _FULL:
            raise RuntimeError("incremental SPT heap overflow")
        return (found if found >= 0 else None), s.settled, s.relaxed, s.pops, s.peak

    def __len__(self) -> int:
        return self._s.count

    def settled_destinations(self) -> tuple[memoryview, memoryview]:
        """The destinations settled so far and their distances, in
        settle order; views valid until the next settle or release."""
        count = self._s.dest_count
        return self._dest_nodes[:count], self._dest_dists[:count]

    def release(self) -> None:
        """Restore ``h`` to all ``inf``, drop the tree's inputs and
        return to the pool."""
        lib.kpj_spt_release(self._s)
        self._inputs = None
        self._home.append(self)

    def nbytes(self) -> int:
        """Bytes of the buffers this state owns: seven ``n + 2``-slot
        vectors and the heap (the CSR export is the base graph's).
        Feeds the memory-telemetry pool gauge."""
        return self._nbytes


def begin_spt(query_graph, memo=None, matrix=None, dmin=None) -> SPTState:
    """Start Alg. 7's tree at ``query_graph.source`` on a pooled state.

    The key term ``lb(v, V_T)`` is read from ``memo`` (``n + 2``
    floats), and a NaN entry is computed on first touch from the
    ``|L| x n`` landmark ``matrix`` and the per-landmark minima
    ``dmin`` (Eq. (2)); without a matrix the memo is read as complete,
    and without a memo the term is zero.  Bounds for a graph of
    another size raise ValueError: the kernel indexes the memo, and
    the matrix with stride ``n``, unchecked.
    """
    base = query_graph.base
    n = base.n
    if memo is not None and len(memo) != n + 2:
        raise ValueError(f"bounds cover {len(memo) - 2} nodes, the graph has {n}")
    if matrix is not None and matrix.shape != (len(dmin), n):
        raise ValueError(f"a {matrix.shape} landmark matrix for {len(dmin)} minima")
    pool = base.search_pools.setdefault("native", [])
    state = pool.pop() if pool else SPTState(base, pool)
    inputs = tuple(map(_buffer, (*_overlay_arrays(query_graph), memo, matrix, dmin)))
    s = state._s
    s.dest, s.vptr, s.vidx, s.vw, s.tb, s.lm, s.dmin = inputs
    s.nlm = 0 if dmin is None else len(dmin)
    s.target = query_graph.target
    state._inputs = inputs  # held until release: the struct's pointers
    if lib.kpj_spt_begin(s, query_graph.source):
        raise RuntimeError("incremental SPT heap has no room for the source")
    state.settled_tag = -s.gen
    return state

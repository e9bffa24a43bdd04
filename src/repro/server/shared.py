"""Shared-memory residency for the CSR graph arrays.

The service tier keeps one physical copy of the graph's CSR triple
(``indptr``/``indices``/``weights`` — exactly what
:meth:`~repro.graph.csr.CSRGraph.typed_arrays` returns) in
named ``multiprocessing.shared_memory`` segments.  The parent exports
the arrays once at service start; every resident worker — including
workers respawned after a crash — maps the same segments, so worker
memory stays bounded by one graph regardless of pool size and a
respawn inherits the graph state instead of re-materialising it.

The numpy views built over the segments have ``writeable=False`` set,
which is the enforcement layer Python actually offers for "mapped
read-only": any kernel that tried to scribble on the shared graph
would raise instead of corrupting every sibling worker.

Lifecycle rules (they matter — get them wrong and you leak ``/dev/shm``
segments or unmap memory still referenced by live arrays):

* the **parent** creates the segments and is the only process that
  ever calls :meth:`SharedCSR.unlink` (at service shutdown).  Its own
  mapping stays open — the exported :class:`CSRGraph` views keep the
  buffer alive, and ``mmap`` refuses to unmap exported buffers anyway
  — but once unlinked the name is gone, which is what the
  no-leaked-segments assertion checks;
* **forked workers** inherit the parent's mapping for free and never
  register with the ``resource_tracker``;
* a process that *attaches* by name (:meth:`SharedCSR.attach`, used by
  tests and by any non-forked consumer) immediately unregisters the
  segments from its resource tracker: the parent owns unlinking, and a
  second registration would make the tracker unlink segments still in
  use when the attaching process exits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import count
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.exceptions import GraphError
from repro.graph.csr import CSRGraph

__all__ = ["SharedCSR", "SharedCSRLayout", "active_segments"]

#: Per-process sequence number making segment names unique when one
#: process exports several graphs (e.g. a test spinning many services).
_EXPORT_SEQ = count()

#: Keep-alive registry for exported handles.  numpy views do not pin
#: the ``SharedMemory`` objects backing them: if an exported handle
#: were garbage-collected, ``SharedMemory.__del__`` would unmap the
#: segments and every view handed out (a frozen graph's ``csr_cache``,
#: a prepared overlay) would dangle — a segfault, not an exception.
#: Exports are therefore pinned for the life of the process; ``unlink``
#: still removes the *names* at shutdown, so nothing leaks in
#: ``/dev/shm``, and the mapping itself is reclaimed at process exit.
_EXPORTED: list = []

#: The three parts of the CSR triple, in layout order.
_PARTS = ("indptr", "indices", "weights")


@dataclass(frozen=True)
class SharedCSRLayout:
    """Picklable descriptor of an exported CSR: segment names + shape.

    Everything :meth:`SharedCSR.attach` needs to rebuild the read-only
    views in another process; dtypes are fixed by the
    ``typed_arrays`` contract (``int64``/``int64``/``float64``).
    """

    names: tuple[str, str, str]
    n: int
    m: int


class SharedCSR:
    """A CSR snapshot whose arrays live in named shared memory."""

    def __init__(
        self,
        layout: SharedCSRLayout,
        segments: tuple[shared_memory.SharedMemory, ...],
        graph: CSRGraph,
        owner: bool,
    ) -> None:
        self.layout = layout
        self._segments = segments
        self.graph = graph
        self._owner = owner
        self._unlinked = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def export(cls, csr: CSRGraph, prefix: str = "kpj") -> "SharedCSR":
        """Copy ``csr``'s typed arrays into fresh shared segments.

        Returns the owning handle; its :attr:`graph` is a
        :class:`CSRGraph` over read-only views of the segments, ready
        to be installed as a frozen graph's ``csr_cache`` so that
        every overlay/landmark structure built afterwards references
        shared pages.
        """
        arrays = csr.typed_arrays()
        token = f"{prefix}_{os.getpid():x}_{next(_EXPORT_SEQ)}"
        names = tuple(f"{token}_{part}" for part in _PARTS)
        segments: list[shared_memory.SharedMemory] = []
        try:
            for name, array in zip(names, arrays):
                # A zero-edge graph has empty indices/weights; shm
                # segments cannot be zero-sized, so round up one byte.
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, array.nbytes)
                )
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
                view[:] = array
                segments.append(seg)
        except BaseException:
            for seg in segments:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - race only
                    pass
            raise
        layout = SharedCSRLayout(names=names, n=csr.n, m=csr.m)
        graph = cls._views(layout, tuple(segments))
        handle = cls(layout, tuple(segments), graph, owner=True)
        _EXPORTED.append(handle)  # see the registry comment above
        return handle

    @classmethod
    def attach(cls, layout: SharedCSRLayout) -> "SharedCSR":
        """Map an already-exported CSR in this process, read-only.

        Raises :class:`GraphError` (wrapping ``FileNotFoundError``)
        when the segments are gone — i.e. after the owner unlinked
        them.  The attached process is unregistered from the resource
        tracker immediately: unlinking is the exporter's job alone.
        """
        segments: list[shared_memory.SharedMemory] = []
        try:
            for name in layout.names:
                seg = shared_memory.SharedMemory(name=name)
                segments.append(seg)
                # SharedMemory(name=...) registers with this process's
                # resource tracker, which would unlink the segment at
                # tracker shutdown even though the exporter still owns
                # it.  Undo the registration; only the owner unlinks.
                resource_tracker.unregister(seg._name, "shared_memory")
        except FileNotFoundError as exc:
            for seg in segments:
                seg.close()
            raise GraphError(
                f"shared CSR segment {exc.filename or '?'} is gone "
                "(service shut down?)"
            ) from None
        graph = cls._views(layout, tuple(segments))
        return cls(layout, tuple(segments), graph, owner=False)

    @staticmethod
    def _views(
        layout: SharedCSRLayout,
        segments: tuple[shared_memory.SharedMemory, ...],
    ) -> CSRGraph:
        shapes = (layout.n + 1, layout.m, layout.m)
        dtypes = (np.int64, np.int64, np.float64)
        views = []
        for seg, shape, dtype in zip(segments, shapes, dtypes):
            view = np.ndarray((shape,), dtype=dtype, buffer=seg.buf)
            view.flags.writeable = False
            views.append(view)
        return CSRGraph(indptr=views[0], indices=views[1], weights=views[2])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def segment_names(self) -> tuple[str, str, str]:
        """The three segment names (``*_indptr``/``*_indices``/``*_weights``)."""
        return self.layout.names

    def unlink(self) -> None:
        """Remove the segment names (owner only; idempotent).

        Existing mappings — the exporter's own views, forked workers —
        stay valid until their processes exit; new attaches fail.
        """
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        for seg in self._segments:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Unmap this process's views.

        After this the handle's :attr:`graph` arrays are dangling and
        must not be touched — only call once the attaching process is
        done with the graph.  The service itself never closes: the
        parent's views back live solver state for the whole process
        lifetime and the OS reclaims the mapping at exit.  The
        ``BufferError`` guard covers interpreters that refuse to unmap
        while exports exist rather than dangling them.
        """
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - interpreter-dependent
                pass


def active_segments(prefix: str = "kpj") -> list[str]:
    """Names of live shared-memory segments under ``prefix``.

    The leak check used by tests and the CI ``service-smoke`` job:
    after a service shuts down this must not list any of its segments.
    Linux exposes named segments in ``/dev/shm``; elsewhere the check
    degrades to an empty list (nothing to assert against).
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(prefix + "_")
    )

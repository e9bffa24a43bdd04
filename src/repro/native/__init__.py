"""The compiled tier: C kernels through cffi, on whenever they build.

``kernels.c`` holds the two per-query loops that dominate an
interpreted query (ROADMAP item 5, steps 1 and 3):

* Alg. 7's settle loop —
  :class:`~repro.core.flat_engine.FlatIncrementalSPT` runs it over
  the base graph's CSR export;
* the landmark bounds of one node — Eq. (2) toward ``V_T``, computed
  when the settle loop first touches a node, into a memo owned by the
  prepared entry (:class:`~repro.landmarks.index.TargetBounds`), and
  Eq. (1) toward the sources
  (:class:`~repro.landmarks.index.LazySourceBounds`).

The pure-Python code stays as the fallback and the reference: both
tiers return the same paths and the same work counters, bit for bit.

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
from pathlib import Path

__all__ = ["HAVE_NATIVE", "ffi", "lib", "pointer", "module_name"]

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


def pointer(ctype: str, array):
    """A cdata pointer of ``ctype`` into ``array``'s buffer; it keeps
    the buffer alive."""
    return ffi.from_buffer(ctype, array)

"""Build the compiled tier: ``python -m repro.native.build <dir>``.

Compiles ``kernels.c`` with cffi in API mode into ``<dir>`` under the
name :func:`repro.native.module_name` gives, which hashes the C
source, the compile flags, the cffi version and the interpreter's
extension ABI tag, so a build for other sources or another
interpreter is never loaded.  The compile runs in a private temporary
directory inside ``<dir>`` and the finished extension, made writable
by its owner only whatever the umask, is moved into place with
:func:`os.replace`, so processes that build at the same time never see
a partial file and the loader's ownership check accepts it.

On success it prints nothing and exits 0; on failure it prints the
compiler's last output line to stderr and exits 1.  The loader
(:mod:`repro.native`) runs this in a child process, so setuptools and
the compiler never add to a serving process's memory.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from repro.native import CFLAGS, SOURCE, extension_suffix, module_name


def declarations(source: str) -> str:
    """The cffi ``cdef``: the block of ``source`` between its
    ``cdef-begin`` and ``cdef-end`` markers."""
    return source.split("cdef-begin")[1].split("*/", 1)[1].split("/* cdef-end")[0]


def build(out_dir: Path) -> Path:
    """Compile the kernels into ``out_dir``; return the extension's path."""
    import _cffi_backend
    from cffi import FFI

    source = SOURCE.read_text()
    name = module_name(source, _cffi_backend.__version__)
    target = out_dir / (name + extension_suffix())
    ffi = FFI()
    ffi.cdef(declarations(source))
    ffi.set_source(name, source, extra_compile_args=list(CFLAGS))
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".build-") as tmp:
        built = ffi.compile(tmpdir=tmp, verbose=False)
        os.chmod(built, 0o755)
        os.replace(built, target)
    return target


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.native.build <dir>", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    # The compiler and setuptools talk on fds 1 and 2; keep them in a
    # log and show its last line only when the build fails.
    with tempfile.TemporaryFile() as log:
        saved = [os.dup(1), os.dup(2)]
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(log.fileno(), 1)
        os.dup2(log.fileno(), 2)
        try:
            build(out_dir)
            error = None
        except Exception as exc:  # any failure: report it, exit 1
            error = exc
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            for fd in saved:
                os.close(fd)
        if error is None:
            return 0
        log.seek(0)
        text = log.read().decode(errors="replace")
    lines = [line for line in text.splitlines() if line]
    detail = lines[-1] if lines else ""
    print(f"{type(error).__name__}: {error} {detail}".strip(), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

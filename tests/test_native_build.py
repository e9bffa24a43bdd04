"""Building and loading the compiled tier (:mod:`repro.native`).

The loader must never load a stale extension, must build in a child
process that prints nothing on success, must survive concurrent first
imports, and must fall back to the Python path — with one log line
when a build fails, silently without cffi.  The process-level tests
run a copy of the package in a temporary directory, so the build cache
they exercise is their own.
"""

from __future__ import annotations

import logging
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repro import native
from repro.native import build

SRC = Path(__file__).resolve().parents[1] / "src"
needs_tier = pytest.mark.skipif(
    not native.HAVE_NATIVE, reason="compiled tier not built"
)

PROBE = "import repro.native as n; print(n.HAVE_NATIVE)"


def _copy_package(root: Path, extra_source: str = "") -> Path:
    """A copy of ``src/repro`` under ``root`` with an empty build
    cache; ``extra_source`` is appended to its ``kernels.c``."""
    shutil.copytree(
        SRC / "repro", root / "repro",
        ignore=shutil.ignore_patterns("_cache", "__pycache__"),
    )
    kernels = root / "repro" / "native" / "kernels.c"
    kernels.write_text(kernels.read_text() + extra_source)
    return root


def _run(root: Path, code: str = PROBE, **env: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(root), **env)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True, timeout=300,
    )


def _built(root: Path) -> list[str]:
    cache = root / "repro" / "native" / "_cache"
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


def test_module_name_keys_on_source_cffi_and_abi(monkeypatch):
    source = native.SOURCE.read_text()
    name = native.module_name(source, "2.0.0")
    assert name.startswith("_kpj_")
    assert native.module_name(source, "2.0.0") == name
    assert native.module_name(source + "\n", "2.0.0") != name
    assert native.module_name(source, "1.17.1") != name
    monkeypatch.setattr(native, "extension_suffix", lambda: ".cpython-399-other.so")
    assert native.module_name(source, "2.0.0") != name


def test_declarations_are_the_marked_block():
    cdef = build.declarations(native.SOURCE.read_text())
    assert "kpj_spt_settle" in cdef and "kpj_eq1_source" in cdef
    assert "#include" not in cdef and "cdef-end" not in cdef


def test_without_cffi_the_python_path_loads_quietly(tmp_path):
    root = _copy_package(tmp_path)
    done = _run(root, "import sys; sys.modules['_cffi_backend'] = None; " + PROBE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    assert done.stderr == ""
    assert _built(root) == []


@needs_tier
def test_failed_build_falls_back_with_one_log_line(tmp_path):
    """A failed build logs one line, once: its marker sends later
    imports (a CLI call, a served process) to the Python path without
    a rebuild or another line on stderr."""
    root = _copy_package(tmp_path, "\n#error deliberately broken\n")
    done = _run(root)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1, lines
    assert "compiled tier unavailable" in lines[0]
    built = _built(root)
    assert len(built) == 1 and built[0].endswith(".failed"), built
    assert built[0] in lines[0]
    again = _run(root)
    assert (again.returncode, again.stdout, again.stderr) == (0, "False\n", "")
    assert _built(root) == built


@needs_tier
def test_cache_directories_others_may_write_are_refused(tmp_path):
    """A cache directory that others may write, or a symlink in its
    place, is never read from or built into, so no other user can plant
    an extension or a failure marker.  Here a planted marker in an
    other-writable in-tree cache would turn the tier off; it is ignored
    and the tier builds into the private temp fallback instead."""
    import _cffi_backend

    root = _copy_package(tmp_path / "pkg", "\n/* refused caches */\n")
    name = native.module_name(
        (root / "repro" / "native" / "kernels.c").read_text(),
        _cffi_backend.__version__,
    )
    planted = root / "repro" / "native" / "_cache"
    planted.mkdir()
    planted.chmod(0o777)
    (planted / (name + ".failed")).write_text("planted\n")
    (planted / (name + native.extension_suffix())).write_bytes(b"planted")
    temp = tmp_path / "tmp"
    temp.mkdir()
    fallback = temp / f"repro-native-{os.getuid()}"

    done = _run(root, TMPDIR=str(temp))
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")
    assert _built(root) == sorted([name + ".failed", name + native.extension_suffix()])
    assert stat.S_IMODE(fallback.stat().st_mode) == 0o700
    assert [p.name for p in fallback.iterdir()] == [name + native.extension_suffix()]

    fallback.chmod(0o777)  # both caches shared now: the Python path
    done = _run(root, TMPDIR=str(temp))
    assert (done.returncode, done.stdout) == (0, "False\n")
    assert "no private writable build directory" in done.stderr
    assert [p.name for p in fallback.iterdir()] == [name + native.extension_suffix()]

    fallback.chmod(0o700)  # a symlink to a private directory is no better
    fallback.rename(temp / "elsewhere")
    fallback.symlink_to(temp / "elsewhere")
    done = _run(root, TMPDIR=str(temp))
    assert (done.returncode, done.stdout) == (0, "False\n")
    assert "no private writable build directory" in done.stderr


@pytest.mark.parametrize(
    "error",
    [OSError(11, "Resource temporarily unavailable"),
     subprocess.TimeoutExpired(["build"], 300)],
    ids=["spawn", "timeout"],
)
def test_a_build_that_could_not_run_leaves_no_marker(tmp_path, monkeypatch, caplog, error):
    """A child that could not start or timed out says nothing about
    the source: this process falls back with one log line, and no
    marker keeps the next import from trying again."""
    pytest.importorskip("_cffi_backend")

    def fail(*args, **kwargs):
        raise error

    cache = tmp_path / "cache"
    monkeypatch.setattr(native, "_cache_dirs", lambda: [cache])
    monkeypatch.setattr(native, "_in_builder", lambda: False)
    monkeypatch.setattr(native.subprocess, "run", fail)
    with caplog.at_level(logging.WARNING, logger=native.__name__):
        assert native._load() is None
    assert len(caplog.records) == 1
    assert "compiled tier unavailable" in caplog.records[0].getMessage()
    assert "to retry" not in caplog.records[0].getMessage()
    assert list(cache.iterdir()) == []


@needs_tier
def test_build_child_prints_nothing_and_names_the_extension(tmp_path):
    root = _copy_package(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(root))
    done = subprocess.run(
        [sys.executable, "-m", "repro.native.build", str(out)], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    import _cffi_backend

    name = native.module_name(native.SOURCE.read_text(), _cffi_backend.__version__)
    assert sorted(p.name for p in out.iterdir()) == [name + native.extension_suffix()]


@needs_tier
@pytest.mark.slow
def test_concurrent_first_imports_share_one_build(tmp_path):
    """Two processes importing with a cold cache both load the tier,
    and the cache ends with one extension and no partial build."""
    root = _copy_package(tmp_path, "\n/* a source no cache holds yet */\n")
    env = dict(os.environ, PYTHONPATH=str(root))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", PROBE], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    assert [out.strip() for out, _ in outputs] == ["True", "True"], outputs
    built = _built(root)
    assert len(built) == 1 and built[0].startswith("_kpj_"), built

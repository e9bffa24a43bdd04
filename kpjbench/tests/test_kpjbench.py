"""Tests of the benchmark itself (run: python3 -m pytest kpjbench/tests)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import library
import run as bench
from checks import DIGEST_QUERIES, AnswerChecker, Tally, length_digest, oracle_checks
from inputs import WORKLOADS, encode, queries, take, workload
from serve import Server


def _spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def _category_sets(w, dataset):
    return {c: frozenset(dataset.categories.nodes_of(c)) for c in w.categories}


def test_benchmark_json_matches_the_workloads(root):
    spec = _spec(root)
    # hot-categories stays runnable but out of the benchmarked set (see README).
    assert [w["name"] for w in spec["workloads"]] == ["adhoc-destinations", "serve-http"]
    for entry in spec["workloads"]:
        # The open-loop rate is part of the workload definition.
        assert f"open loop at {WORKLOADS[entry['name']].open_qps:g} qps" in entry["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(root, name, trace):
    out = subprocess.run(
        [sys.executable, "kpjbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _spec(root)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        # Every phase counted once, and the layers tile the traced wall.
        assert result["metrics"]["trace.reconciled"]["value"] == 1
        stem = f"{name}-seed3-trace1"
        spans = json.loads((root / "kpjbench" / "results" / f"{stem}.spans.json").read_text())
        assert spans and {"name", "query", "parent", "start_us", "end_us"} <= set(spans[0])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    from repro.datasets.registry import road_network

    w = workload(name)
    dataset = road_network(w.dataset)
    cats = _category_sets(w, dataset)
    assert encode(w, dataset.n, cats, 7) == encode(w, dataset.n, cats, 7)
    assert encode(w, dataset.n, cats, 7) != encode(w, dataset.n, cats, 8)


def test_inputs_do_not_depend_on_the_interpreter(root):
    code = (
        "import hashlib, sys; sys.path[:0] = ['kpjbench', 'src']\n"
        "from repro.datasets.registry import road_network\n"
        "from inputs import encode, workload\n"
        "w = workload('hot-categories', 'tiny'); d = road_network(w.dataset)\n"
        "cats = {c: frozenset(d.categories.nodes_of(c)) for c in w.categories}\n"
        "print(hashlib.sha256(encode(w, d.n, cats, 5)).hexdigest())"
    )
    digests = {
        subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed), check=True).stdout
        for seed in ("1", "2")
    }
    assert len(digests) == 1


def test_queries_never_start_at_a_destination():
    from repro.datasets.registry import road_network

    for size in ("full", "tiny"):
        for name in WORKLOADS:
            w = workload(name, size)
            dataset = road_network(w.dataset)
            cats = _category_sets(w, dataset)
            for q in take(queries(w, dataset.n, cats, 1, "closed"), 200):
                dest = cats[q["category"]] if "category" in q else set(q["destinations"])
                assert q["source"] not in dest


@pytest.fixture(scope="module")
def sj():
    from repro.core.kpj import KPJSolver
    from repro.datasets.registry import road_network

    dataset = road_network("SJ")
    return dataset, KPJSolver(dataset.graph, dataset.categories)


def _corruptions(paths):
    (l0, p0), (ln, pn) = paths[0], paths[-1]
    return {
        "count": paths[:-1],
        "start": [(l0, p0[1:])] + paths[1:],
        "end": [(l0, p0[:-1])] + paths[1:],
        "length": [(l0 + 0.5, p0)] + paths[1:],
        "order": [(ln, pn)] + paths[1:-1] + [(l0, p0)],
        "duplicate": [(l0, p0), (l0, p0)] + paths[2:],
        "not-simple": [(l0, p0 + p0[-2:])] + paths[1:],
    }


def test_checker_rejects_each_kind_of_wrong_answer(sj):
    dataset, solver = sj
    q = {"source": 5, "category": "T3", "k": 4}
    dest = frozenset(dataset.categories.nodes_of("T3"))
    paths = [(p.length, p.nodes) for p in library.solve(solver, q).paths]
    checker = AnswerChecker(dataset.graph)
    assert checker.check(q, dest, paths) is None
    for kind, wrong in _corruptions(paths).items():
        assert checker.check(q, dest, wrong) is not None, kind


def test_yen_sample_and_digest_catch_wrong_lengths(sj):
    dataset, solver = sj
    q = {"source": 5, "category": "T3", "k": 4}
    dest = tuple(sorted(dataset.categories.nodes_of("T3")))
    lengths = list(library.solve(solver, q).lengths)
    tally = Tally()
    tally.add(None)
    oracle_checks(tally, dataset.graph, [(q, dest, lengths)], [], "hot-categories", "full", 0)
    assert tally.failed == 0
    oracle_checks(tally, dataset.graph, [(q, dest, [x * 1.01 for x in lengths])], [],
                  "hot-categories", "full", 0)
    assert tally.failed == 1
    lists = [lengths] * DIGEST_QUERIES
    assert length_digest(lists) == length_digest([[x + 1e-12 for x in lengths]] * DIGEST_QUERIES)
    assert length_digest(lists) != length_digest([lengths[:-1]] + lists[1:])


def test_planted_wrong_answer_raises_failed_ratio(root, monkeypatch, capsys):
    from repro.core.result import Path as KPath

    calls = {"n": 0}
    real_solve = library.solve

    def planted(solver, q):
        result = real_solve(solver, q)
        calls["n"] += 1
        if calls["n"] == library.WARMUP_QUERIES + 3:
            first = result.paths[0]
            result.paths[0] = KPath(length=first.length * 0.5, nodes=first.nodes)
        return result

    monkeypatch.setattr(library, "solve", planted)
    monkeypatch.chdir(root)
    code = bench.main(["--workload", "hot-categories", "--seed", "1", "--seconds", "0.5",
                       "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["success_ratio"]["value"] < 1.0


def _kpj_segments():
    return {name for name in os.listdir("/dev/shm") if name.startswith("kpj_")}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_server_exits_cleanly_on_sigterm_and_leaves_no_segment(root):
    before = _kpj_segments()
    server = Server(root, workload("serve-http"))
    try:
        server.start()
        segments = server.get("/status")["segments"]
        assert segments
    finally:
        code = server.stop()
    assert code == 0
    assert _kpj_segments() <= before
    assert not any(os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in segments)

"""The search narrative: ``kpj explain`` reads the solver's span stream."""

import json

import pytest

from repro.cli import main
from repro.core.iter_bound import iter_bound
from repro.core.kpj import KPJSolver
from repro.core.stats import WORK_PARITY_FIELDS, SearchStats
from repro.datasets.registry import road_network
from repro.graph.virtual import build_query_graph
from repro.landmarks.index import ZERO_BOUNDS, LandmarkIndex
from repro.obs.subspace_report import SubspaceTreeReport
from repro.obs.tracing import SpanTracer, new_record, render_narrative, spans
from tests.conftest import KERNELS

#: The iteratively bounding variants: the algorithms whose spans narrate.
ITER_BOUND = (
    "iter-bound",
    "iter-bound-sptp",
    "iter-bound-spti",
    "iter-bound-spti-nl",
)


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


def narrative_counts(text: str) -> dict[str, int]:
    """Events per kind, read off a narrative's ``totals:`` line."""
    totals = text.splitlines()[-1]
    assert totals.startswith("totals: "), totals
    items = [item for item in totals[len("totals: "):].split(", ") if item]
    return {kind: int(n) for kind, n in (item.split("=") for item in items)}


def paper_query(paper_graph, paper_categories, paper_built, k=3,
                algorithm="iter-bound"):
    solver = KPJSolver(
        paper_graph, paper_categories, landmarks=4, tracer=SpanTracer()
    )
    return solver.top_k(
        paper_built.node_id("v1"), category="H", k=k, algorithm=algorithm
    )


class TestRenderNarrative:
    def test_test_hit_line_carries_tau_and_length(
        self, paper_graph, paper_categories, paper_built
    ):
        result = paper_query(paper_graph, paper_categories, paper_built)
        hits = [
            line for line in render_narrative(result.trace).splitlines()
            if line.startswith("[test-hit ]")
        ]
        assert hits
        assert all("tau=" in line and "length=" in line for line in hits)

    def test_output_line_omits_tau(
        self, paper_graph, paper_categories, paper_built
    ):
        result = paper_query(paper_graph, paper_categories, paper_built)
        outputs = [
            line for line in render_narrative(result.trace).splitlines()
            if line.startswith("[output   ]")
        ]
        assert len(outputs) == 3
        assert all("tau=" not in line and "length=" in line for line in outputs)

    def test_limit_truncates_events_not_totals(
        self, paper_graph, paper_categories, paper_built
    ):
        result = paper_query(paper_graph, paper_categories, paper_built)
        full = render_narrative(result.trace)
        short = render_narrative(result.trace, limit=1)
        assert "more events" in short
        assert len(short.splitlines()) == 3
        assert short.splitlines()[-1] == full.splitlines()[-1]

    def test_tau_schedule_starts_above_the_first_length(
        self, paper_graph, paper_categories, paper_built
    ):
        result = paper_query(paper_graph, paper_categories, paper_built)
        taus = [
            s["attrs"]["tau"] for s in spans(result.trace)
            if s["name"] == "test_lb"
        ]
        assert taus, "no TestLB recorded"
        assert all(tau > result.paths[0].length for tau in taus)

    def test_prefix_survives_a_json_round_trip(self, sj):
        """Slow dumps store the snapshot as JSON; the narrative reads
        the revived prefix lists exactly like the live tuples."""
        solver = KPJSolver(sj.graph, sj.categories, landmarks=4,
                           tracer=SpanTracer())
        trace = solver.top_k(100, category="T2", k=5).trace
        revived = json.loads(json.dumps(trace))
        assert render_narrative(revived) == render_narrative(trace)


class TestSearchTrace:
    """The record of a bare ``iter_bound`` run, read as a narrative."""

    def query_graph(self, paper_graph, paper_built):
        v = paper_built.node_id
        return build_query_graph(
            paper_graph, (v("v1"),), (v("v4"), v("v6"), v("v7"))
        )

    def test_records_one_output_per_path(self, paper_graph, paper_built):
        record = new_record()
        paths = iter_bound(
            self.query_graph(paper_graph, paper_built), 3, ZERO_BOUNDS,
            record=record,
        )
        counts = narrative_counts(render_narrative(record))
        assert counts.get("output") == len(paths) == 3

    def test_hits_and_misses_sum_to_lb_tests(self, paper_graph, paper_built):
        record = new_record()
        stats = SearchStats()
        iter_bound(
            self.query_graph(paper_graph, paper_built), 3, ZERO_BOUNDS,
            stats=stats, record=record,
        )
        counts = narrative_counts(render_narrative(record))
        tested = (
            counts.get("test-hit", 0)
            + counts.get("test-miss", 0)
            + counts.get("retire", 0)
        )
        assert tested == stats.lb_tests

    def test_no_trace_means_no_overhead_paths_identical(
        self, paper_graph, paper_built
    ):
        qg = self.query_graph(paper_graph, paper_built)
        traced = iter_bound(qg, 3, ZERO_BOUNDS, record=new_record())
        plain = iter_bound(qg, 3, ZERO_BOUNDS)
        assert [p.length for p in traced] == [p.length for p in plain]


class TestTraceEquivalence:
    """The narrated search is the search that ran: one event per
    output and per TestLB verdict, a tree whose totals are the search
    counters, and recording changes nothing."""

    def _check(self, graph, categories, landmarks, source, category, k):
        for algorithm in ITER_BOUND:
            bare = KPJSolver(graph, categories, landmarks=landmarks).top_k(
                source, category=category, k=k, algorithm=algorithm
            )
            traced = KPJSolver(
                graph, categories, landmarks=landmarks, tracer=SpanTracer()
            ).top_k(source, category=category, k=k, algorithm=algorithm)
            assert [(p.length, p.nodes) for p in traced.paths] == [
                (p.length, p.nodes) for p in bare.paths
            ], algorithm
            stats = traced.stats
            for name in WORK_PARITY_FIELDS:
                assert getattr(stats, name) == getattr(bare.stats, name), (
                    algorithm, name,
                )
            counts = narrative_counts(render_narrative(traced.trace))
            assert counts.get("output", 0) == len(traced.paths), algorithm
            assert counts.get("test-hit", 0) == stats.lb_test_hits, algorithm
            assert counts.get("test-miss", 0) == stats.lb_test_misses, algorithm
            assert counts.get("retire", 0) == stats.lb_test_retires, algorithm
            tree = SubspaceTreeReport.from_spans(traced.trace)
            assert tree.lb_tests == stats.lb_tests, algorithm
            assert tree.subspaces_created == stats.subspaces_created, algorithm
            assert tree.subspaces_pruned == stats.subspaces_pruned, algorithm

    def test_events_match_the_search_counters(
        self, paper_graph, paper_categories, paper_built
    ):
        lm = LandmarkIndex.build(paper_graph, 4)
        self._check(
            paper_graph, paper_categories, lm, paper_built.node_id("v1"), "H", 3
        )

    def test_equivalence_on_registry_dataset(self, sj):
        lm = LandmarkIndex.build(sj.graph, 4)
        self._check(sj.graph, sj.categories, lm, 100, "T2", 5)


#: ``kpj explain --dataset SJ --source 100 --category T2 --k 5`` stdout,
#: pinned byte-for-byte so the narrative format cannot drift.
GOLDEN_EXPLAIN = {
    "iter-bound": """\
iter-bound on SJ: node 100 -> category 'T2' (|V_T|=4), k=5

[output   ] prefix=(100,)  lb=9.958  length=9.958
[test-hit ] prefix=(100, 101)  lb=9.958  tau=11.11  length=9.978
[output   ] prefix=(100, 101)  lb=9.978  length=9.978
[test-hit ] prefix=(100,)  lb=10.1  tau=11.24  length=10.17
[output   ] prefix=(100,)  lb=10.17  length=10.17
[test-miss] prefix=(100, 101)  lb=10.22  tau=11.82
[test-hit ] prefix=(100, 101, 102, 130, 131)  lb=10.74  tau=11.84  length=11.72
[test-hit ] prefix=(100, 101, 129, 130, 131)  lb=10.76  tau=11.92  length=11.74
[test-hit ] prefix=(100, 101, 102, 130, 131, 132, 133)  lb=10.84  tau=11.94  \
length=10.84
[output   ] prefix=(100, 101, 102, 130, 131, 132, 133)  lb=10.84  length=10.84
[test-hit ] prefix=(100, 101, 129, 130, 131, 132, 133)  lb=10.85  tau=12.05  \
length=10.85
[output   ] prefix=(100, 101, 129, 130, 131, 132, 133)  lb=10.85  length=10.85
totals: output=5, test-hit=6, test-miss=1

found 5 paths; lengths: 9.958, 9.978, 10.17, 10.84, 10.85
""",
    "iter-bound-spti": """\
iter-bound-spti on SJ: node 100 -> category 'T2' (|V_T|=4), k=5

[output   ] prefix=(896,)  lb=9.958  length=9.958
[test-miss] prefix=(896,)  lb=9.958  tau=10.98
[test-hit ] prefix=(896, 137, 136, 135, 134, 133, 132, 131, 130)  lb=9.978  \
tau=11.92  length=9.978
[output   ] prefix=(896, 137, 136, 135, 134, 133, 132, 131, 130)  lb=9.978  \
length=9.978
[test-hit ] prefix=(896, 137, 136, 135, 134, 133, 132, 131, 130, 129)  \
lb=10.17  tau=11.92  length=10.17
[output   ] prefix=(896, 137, 136, 135, 134, 133, 132, 131, 130, 129)  \
lb=10.17  length=10.17
[test-hit ] prefix=(896, 137, 136, 135)  lb=10.84  tau=12.07  length=10.84
[output   ] prefix=(896, 137, 136, 135)  lb=10.84  length=10.84
[test-hit ] prefix=(896, 137, 136, 135, 107, 106, 105, 133, 132, 131, 130)  \
lb=10.85  tau=12.07  length=10.85
[output   ] prefix=(896, 137, 136, 135, 107, 106, 105, 133, 132, 131, 130)  \
lb=10.85  length=10.85
totals: output=5, test-hit=4, test-miss=1

found 5 paths; lengths: 9.958, 9.978, 10.17, 10.84, 10.85
""",
}


def explain(*extra: str) -> list[str]:
    return [
        "explain", "--dataset", "SJ", "--source", "100", "--category", "T2",
        *extra,
    ]


class TestExplainCLI:
    def test_explain_prints_narrative(self, capsys):
        code = main(explain("--k", "2", "--landmarks", "4", "--limit", "10"))
        assert code == 0
        out = capsys.readouterr().out
        assert "iter-bound on SJ" in out
        assert "totals:" in out
        assert "found 2 paths" in out

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_explain_spti_narrates_either_kernel(self, capsys, kernel):
        code = main(explain(
            "--k", "2", "--landmarks", "4", "--algorithm", "iter-bound-spti",
        ))
        assert code == 0
        out = capsys.readouterr().out
        assert "iter-bound-spti on SJ" in out
        assert "totals:" in out
        assert "found 2 paths" in out

    def test_explain_bad_source(self, capsys):
        code = main(
            [
                "explain",
                "--dataset",
                "SJ",
                "--source",
                "123456",
                "--category",
                "T2",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("algorithm", sorted(GOLDEN_EXPLAIN))
    def test_narrative_is_pinned(self, capsys, algorithm):
        code = main(explain("--k", "5", "--algorithm", algorithm))
        assert code == 0
        assert capsys.readouterr().out == GOLDEN_EXPLAIN[algorithm]

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_is_validated(self, capsys, k):
        code = main(explain("--k", k, "--landmarks", "4"))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "k must be a positive integer" in captured.err

    @pytest.mark.parametrize("algorithm", sorted(GOLDEN_EXPLAIN))
    def test_tree_totals_equal_search_stats(self, capsys, sj, algorithm):
        code = main(explain(
            "--k", "5", "--landmarks", "4", "--algorithm", algorithm, "--tree",
        ))
        assert code == 0
        (totals,) = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("  totals: ")
        ]
        tree = dict(
            item.split("=") for item in totals.split()[1:] if "=" in item
        )
        stats = KPJSolver(sj.graph, sj.categories, landmarks=4).top_k(
            100, category="T2", k=5, algorithm=algorithm
        ).stats
        assert int(tree["tests"]) == stats.lb_tests
        assert int(tree["created"]) == stats.subspaces_created
        assert int(tree["pruned"]) == stats.subspaces_pruned

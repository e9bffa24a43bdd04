"""Shared-memory CSR residency (`repro.server.shared`).

The lifecycle rules under test are the ones the module docstring
spells out: the exporter owns unlinking, attachers map read-only and
never unlink, and after `unlink()` no segment with the service prefix
survives in `/dev/shm` (the leak check CI's `service-smoke` job runs
against a real service).
"""

import numpy as np
import pytest

from repro.datasets.registry import road_network
from repro.exceptions import GraphError
from repro.graph.csr import shared_csr
from repro.server import shared as shared_mod
from repro.server.shared import SharedCSR, SharedCSRLayout, active_segments


@pytest.fixture()
def sj_csr():
    dataset = road_network("SJ")
    return shared_csr(dataset.graph)


class TestExport:
    def test_roundtrip_preserves_arrays(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        try:
            a, b, c = sj_csr.typed_arrays()
            np.testing.assert_array_equal(shared.graph.indptr, a)
            np.testing.assert_array_equal(shared.graph.indices, b)
            np.testing.assert_array_equal(shared.graph.weights, c)
            assert shared.graph.n == sj_csr.n
            assert shared.graph.m == sj_csr.m
        finally:
            shared.unlink()

    def test_views_are_read_only(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        try:
            for view in (
                shared.graph.indptr, shared.graph.indices, shared.graph.weights
            ):
                assert not view.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    view[0] = 0
        finally:
            shared.unlink()

    def test_segments_visible_under_prefix(self, sj_csr):
        shared = SharedCSR.export(sj_csr, prefix="kpjtest")
        try:
            live = active_segments("kpjtest")
            assert set(shared.segment_names) <= set(live)
            assert len(shared.segment_names) == 3
            for part in ("indptr", "indices", "weights"):
                assert any(name.endswith(part) for name in shared.segment_names)
        finally:
            shared.unlink()
        assert active_segments("kpjtest") == []

    def test_two_exports_get_distinct_names(self, sj_csr):
        first = SharedCSR.export(sj_csr)
        second = SharedCSR.export(sj_csr)
        try:
            assert not set(first.segment_names) & set(second.segment_names)
        finally:
            first.unlink()
            second.unlink()


class TestAttach:
    def test_attacher_sees_the_same_graph(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        try:
            attached = SharedCSR.attach(shared.layout)
            np.testing.assert_array_equal(
                attached.graph.weights, shared.graph.weights
            )
            assert not attached.graph.indices.flags.writeable
            attached.close()
        finally:
            shared.unlink()

    def test_attacher_never_unlinks(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        try:
            attached = SharedCSR.attach(shared.layout)
            attached.unlink()  # non-owner: must be a no-op
            attached.close()
            # The owner's segments are still there for a second attach.
            again = SharedCSR.attach(shared.layout)
            again.close()
        finally:
            shared.unlink()

    def test_attach_after_unlink_is_clean_error(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        layout = shared.layout
        shared.unlink()
        with pytest.raises(GraphError, match="gone"):
            SharedCSR.attach(layout)

    def test_attach_unknown_layout_is_clean_error(self):
        layout = SharedCSRLayout(
            names=("kpj_nope_a", "kpj_nope_b", "kpj_nope_c"), n=1, m=0
        )
        with pytest.raises(GraphError, match="gone"):
            SharedCSR.attach(layout)


class TestLifecycle:
    def test_unlink_is_idempotent(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        shared.unlink()
        shared.unlink()

    def test_attacher_close_leaves_owner_intact(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        try:
            attached = SharedCSR.attach(shared.layout)
            attached.close()  # done with the attached views
            # The owner's mapping and the named segments are unaffected.
            assert shared.graph.indptr[0] == 0
            assert set(shared.segment_names) <= set(active_segments())
        finally:
            shared.unlink()

    def test_no_segments_leak_from_this_module(self):
        assert active_segments("kpjtest") == []


class TestRelease:
    def test_unreferenced_export_is_unmapped_and_unpinned(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        shared.graph.reverse()  # the graph <-> reverse cycle is broken
        shared.unlink()
        shared.release()
        assert shared.graph is None
        assert shared not in shared_mod._EXPORTED

    def test_export_with_a_live_view_stays_mapped(self, sj_csr):
        shared = SharedCSR.export(sj_csr)
        view = shared.graph.indices[1:]
        shared.unlink()
        shared.release()
        assert shared in shared_mod._EXPORTED
        np.testing.assert_array_equal(view, sj_csr.typed_arrays()[1][1:])

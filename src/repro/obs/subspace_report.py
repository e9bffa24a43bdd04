"""Subspace-tree introspection: the explored search tree, per depth.

The paper's efficiency argument (Sections 4–5) is about the *shape*
of the subspace tree: ``IterBound`` wins because most subspaces are
pruned by a cheap lower bound instead of paying a shortest-path
computation each.  :class:`SubspaceTreeReport` reconstructs that tree
for one query — how many subspaces were tested, expanded, or pruned
at each prefix depth, and which bound family did the pruning — from
the :mod:`repro.obs.tracing` record riding on a traced
:class:`~repro.core.result.QueryResult` (``test_lb``/``division``
spans carry depth, bound, τ, verdict, children/pruned counts), so
``kpj explain --tree`` and ``kpj query --trace`` print the same
reconstruction.  The division fan-out and the
end-of-search queue leftovers make its totals equal the
:class:`~repro.core.stats.SearchStats` subspace counters exactly
(asserted by the tracing tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracing import spans

__all__ = ["DepthRow", "SubspaceTreeReport"]


@dataclass
class DepthRow:
    """Per-depth tallies of the explored subspace tree.

    ``depth`` is the subspace prefix length minus one (the root
    subspace of Alg. 4 sits at depth 0).  ``tested`` counts ``TestLB``
    invocations; ``hits``/``misses``/``retired`` split them by
    verdict; ``expanded`` counts subspaces whose path was output and
    divided; ``children``/``born_pruned`` count division offspring and
    the offspring discarded immediately because ``CompLB`` proved them
    empty.
    """

    depth: int
    tested: int = 0
    hits: int = 0
    misses: int = 0
    retired: int = 0
    expanded: int = 0
    children: int = 0
    born_pruned: int = 0


@dataclass
class SubspaceTreeReport:
    """The reconstructed subspace tree of one iteratively bounding query."""

    rows: dict[int, DepthRow] = field(default_factory=dict)
    #: Which bound family drove the pruning (``"landmark"``,
    #: ``"global"``, ``"spt_p"``, ``"spt_i"``); ``None`` when no
    #: ``iter_bound`` span recorded it.
    bound_kind: str | None = None
    #: Subspaces still queued (bound-only) when the k-th path was
    #: confirmed; ``None`` when no finished ``iter_bound`` span says.
    leftover: int | None = None
    #: Whether any ``division`` span recorded fan-out.
    has_divisions: bool = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spans(cls, trace) -> "SubspaceTreeReport":
        """Build from the spans of a record (``QueryResult.trace``), or
        of anything else :func:`~repro.obs.tracing.spans` takes."""
        report = cls()
        for span in spans(trace):
            name = span["name"]
            attrs = span["attrs"]
            if name == "test_lb":
                row = report._row(int(attrs.get("depth", 0)))
                row.tested += 1
                verdict = attrs.get("verdict")
                if verdict == "hit":
                    row.hits += 1
                elif verdict == "retire":
                    row.retired += 1
                else:
                    row.misses += 1
            elif name == "division":  # one output expanded
                report.has_divisions = True
                row = report._row(int(attrs.get("depth", 0)))
                row.expanded += 1
                row.children += int(attrs.get("children", 0))
                row.born_pruned += int(attrs.get("pruned", 0))
            elif name == "iter_bound":
                if "leftover" in attrs:
                    report.leftover = int(attrs["leftover"])
                if attrs.get("bound_kind") is not None:
                    report.bound_kind = str(attrs["bound_kind"])
        return report

    def _row(self, depth: int) -> DepthRow:
        row = self.rows.get(depth)
        if row is None:
            row = self.rows[depth] = DepthRow(depth)
        return row

    # ------------------------------------------------------------------
    # Totals (the SearchStats-matching view)
    # ------------------------------------------------------------------
    @property
    def lb_tests(self) -> int:
        """Total ``TestLB`` invocations (== ``SearchStats.lb_tests``)."""
        return sum(row.tested for row in self.rows.values())

    @property
    def lb_test_failures(self) -> int:
        """Tests that did not produce a path (misses + retirements)."""
        return sum(row.misses + row.retired for row in self.rows.values())

    @property
    def outputs(self) -> int:
        """Paths output (each output divides its subspace once)."""
        return sum(row.expanded for row in self.rows.values())

    @property
    def subspaces_created(self) -> int | None:
        """Root + division offspring (== ``SearchStats.subspaces_created``).

        ``None`` when no division fan-out was recorded.
        """
        if not self.has_divisions:
            return None
        return 1 + sum(row.children for row in self.rows.values())

    @property
    def subspaces_pruned(self) -> int | None:
        """Discarded without a path (== ``SearchStats.subspaces_pruned``).

        Born-pruned division offspring, plus retirements, plus the
        bound-only queue entries left when the search stopped.
        ``None`` when fan-out or leftovers were not recorded.
        """
        if not self.has_divisions or self.leftover is None:
            return None
        return (
            sum(row.born_pruned + row.retired for row in self.rows.values())
            + self.leftover
        )

    @property
    def pruned_expanded_ratio(self) -> float | None:
        """Pruned-vs-expanded — the paper's Figure-style pruning claim."""
        pruned = self.subspaces_pruned
        expanded = self.outputs
        if pruned is None or expanded == 0:
            return None
        return pruned / expanded

    @property
    def max_depth(self) -> int:
        """Deepest prefix the search touched."""
        return max(self.rows, default=0)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Aligned per-depth table plus the totals line."""
        lines = ["subspace tree:"]
        if self.bound_kind is not None:
            lines[0] = f"subspace tree (bound: {self.bound_kind}):"
        if not self.rows:
            lines.append("  (no subspace events recorded)")
            return "\n".join(lines)
        header = (
            f"  {'depth':>5} {'tested':>7} {'hit':>5} {'miss':>5} "
            f"{'retire':>7} {'expanded':>9}"
        )
        if self.has_divisions:
            header += f" {'children':>9} {'born-pruned':>12}"
        lines.append(header)
        for depth in sorted(self.rows):
            row = self.rows[depth]
            line = (
                f"  {depth:>5} {row.tested:>7} {row.hits:>5} {row.misses:>5} "
                f"{row.retired:>7} {row.expanded:>9}"
            )
            if self.has_divisions:
                line += f" {row.children:>9} {row.born_pruned:>12}"
            lines.append(line)
        totals = [
            f"tests={self.lb_tests}",
            f"failures={self.lb_test_failures}",
            f"outputs={self.outputs}",
        ]
        if self.subspaces_created is not None:
            totals.append(f"created={self.subspaces_created}")
        if self.subspaces_pruned is not None:
            totals.append(f"pruned={self.subspaces_pruned}")
        ratio = self.pruned_expanded_ratio
        if ratio is not None:
            totals.append(f"pruned/expanded={ratio:.2f}")
        if self.leftover is not None:
            totals.append(f"leftover={self.leftover}")
        lines.append("  totals: " + "  ".join(totals))
        return "\n".join(lines)

"""Structured per-phase trace of a solver run.

Each outer round (a scaling phase) gets a :class:`PhaseMark` with its
scale, starting potential and abundant edges, and each inner-loop call
gets a :class:`TraceRow` recording the potential before and after; a
buyer's run of refund steps is one row.  :meth:`PhaseTrace.iter_text` is
the one writer of the JSONL trace: it yields each line as text, exactly
as ``json.dumps(..., sort_keys=True)`` writes the line's document, and
builds a line only when it is asked for, one line per step of a row.
:meth:`PhaseTrace.iter_lines` reads those lines back as documents.  The
acceptance suite replays these records to verify the potential and
abundance disciplines independently of the in-run assertions; the
per-phase drift is checked in the run from the state's moved units, and
the tests replay it from spending snapshots they take themselves.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from arcticauction.core import format_rational

Edge = int  # an edge id of the instance

# the one encoder of the trace lines: json.dumps(..., sort_keys=True) would
# build a new one per line
_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass
class TraceRow:
    """``steps`` consecutive steps of one kind and subject, each lowering
    the potential by one, from ``phi_before`` to ``phi_after``.  Only a run
    of refund steps has ``steps > 1``."""

    phase: int
    delta: Fraction
    kind: str  # refund | augment_buyer | augment_good | restart_repair
    subject: str
    phi_before: int
    phi_after: int
    steps: int = 1


@dataclass
class PhaseMark:
    """One scaling phase: entry transition, scale, starting potential, and
    the abundant edges at its start, by edge id."""

    index: int
    delta: Fraction
    entry: str  # init | halve | restart
    potential_start: int
    abundant_start: set[Edge]
    iterations: int = 0

    def to_doc(self, edge_names: tuple[tuple[str, str], ...]) -> dict:
        """The phase line; its abundant edges are named by ``edge_names``
        and sorted by (buyer id, good id)."""
        return {
            "phase": self.index,
            "delta": format_rational(self.delta),
            "entry": self.entry,
            "phi_start": self.potential_start,
            "iterations": self.iterations,
            "abundant_edges": sorted(edge_names[e] for e in self.abundant_start),
        }


@dataclass
class RestartRecord:
    phase: int
    branch: str  # delayed | compressed
    delta_before: Fraction
    delta_after: Fraction
    threshold: Fraction
    surpluses: dict[str, Fraction] = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "phase": self.phase,
            "branch": self.branch,
            "delta_before": format_rational(self.delta_before),
            "delta_after": format_rational(self.delta_after),
            "threshold": format_rational(self.threshold),
            "surpluses": {k: format_rational(v) for k, v in sorted(self.surpluses.items())},
        }


@dataclass
class PhaseTrace:
    """Full record of one solver run.  Edges are kept by id, and
    ``edge_names`` (the instance's) names them in the trace lines."""

    algorithm: str
    edge_names: tuple[tuple[str, str], ...]
    rows: list[TraceRow] = field(default_factory=list)
    phases: list[PhaseMark] = field(default_factory=list)
    restarts: list[RestartRecord] = field(default_factory=list)
    progress_events: list[tuple[int, str, str]] = field(default_factory=list)
    special_price_iterations: list[int] = field(default_factory=list)
    abundant_discovered: set[Edge] = field(default_factory=set)

    @property
    def augmentations(self) -> int:
        return sum(r.steps for r in self.rows if r.kind != "refund")

    @property
    def refund_steps(self) -> int:
        return sum(r.steps for r in self.rows if r.kind == "refund")

    @property
    def phase_count(self) -> int:
        return len(self.phases)

    @property
    def restart_count(self) -> int:
        return sum(1 for r in self.restarts if r.branch == "compressed")

    def begin_phase(
        self, delta: Fraction, entry: str, phi: int, abundant: set[Edge]
    ) -> PhaseMark:
        """Open the next phase, numbered by the phases before it; rows,
        restarts and progress events from now on name it, as the open
        phase, until the next one opens."""
        mark = PhaseMark(len(self.phases), delta, entry, phi, set(abundant))
        self.phases.append(mark)
        return mark

    def add_row(self, row: TraceRow) -> None:
        """Book a row of the open phase and count its steps there."""
        self.rows.append(row)
        self.phases[-1].iterations += row.steps

    def stats_doc(self) -> dict:
        return {
            "phases": self.phase_count,
            "augmentations": self.augmentations,
            "refund_steps": self.refund_steps,
            "restarts": self.restart_count,
            "abundant_edges": len(self.abundant_discovered),
            "progress_events": len(self.progress_events),
        }

    def iter_text(self) -> Iterator[str]:
        """Every trace line as JSON text ending in a newline, keys sorted,
        each built as it is yielded: a phase line, its progress lines, one
        step line per step of each of its rows, then its restart line.

        A row's step lines share all but their two potentials, so the text
        around those is encoded once per row, and a line is a single
        format of two integers; the other lines are encoded whole."""
        encode = _ENCODER.encode

        def line(event: str, doc: dict) -> str:
            return encode({"algorithm": self.algorithm, "event": event, **doc}) + "\n"

        rows_by_phase: dict[int, list[TraceRow]] = {}
        for row in self.rows:
            rows_by_phase.setdefault(row.phase, []).append(row)
        restarts_by_phase = {r.phase: r for r in self.restarts}
        progress_by_phase: dict[int, list[tuple[str, str]]] = {}
        for phase, kind, subject in self.progress_events:
            progress_by_phase.setdefault(phase, []).append((kind, subject))
        algorithm = encode(self.algorithm)
        for mark in self.phases:
            yield line("phase", mark.to_doc(self.edge_names))
            for kind, subject in progress_by_phase.get(mark.index, []):
                yield line("progress", {"phase": mark.index, "kind": kind, "subject": subject})
            for row in rows_by_phase.get(mark.index, []):
                # the step document's keys in sorted order, as the encoder
                # writes them
                head = (
                    f'{{"algorithm": {algorithm}, "delta": {encode(format_rational(row.delta))},'
                    f' "event": "step", "kind": {encode(row.kind)}, "phase": {row.phase},'
                    ' "phi_after": '
                )
                tail = f', "subject": {encode(row.subject)}}}\n'
                for phi in range(row.phi_before, row.phi_before - row.steps, -1):
                    yield f'{head}{phi - 1}, "phi_before": {phi}{tail}'
            if mark.index in restarts_by_phase:
                yield line("restart", restarts_by_phase[mark.index].to_doc())

    def iter_lines(self) -> Iterator[dict]:
        """The lines of :meth:`iter_text` as documents, each parsed as it
        is yielded."""
        return map(json.loads, self.iter_text())

    def to_lines(self) -> list[dict]:
        """All of :meth:`iter_lines` in one list."""
        return list(self.iter_lines())

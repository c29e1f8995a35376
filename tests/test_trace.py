"""The JSONL trace writer: ``PhaseTrace.iter_text`` against the documented
line format, encoded by ``json.dumps(..., sort_keys=True)``."""

import itertools
import json
from fractions import Fraction

from arcticauction.core import format_rational
from arcticauction.driver import solve_instance
from arcticauction.trace import PhaseTrace, RestartRecord, TraceRow

from conftest import wide_instance

# ids that a JSON string must escape: a quote, a backslash, a newline, and
# two characters the encoder writes as \u escapes, a non-ASCII letter and
# the line separator U+2028
QUOTE, BACKSLASH, ACCENT = 'b"1', "b\\2", "bé3"
NEWLINE, SEPARATOR = "g\n1", "g\u20282"


def documented_lines(trace: PhaseTrace) -> list[dict]:
    """The trace's lines as the README documents them, built from its
    records directly: per phase its phase line, its progress lines, one
    step line per step of each of its rows, then its restart line."""
    lines = []
    for mark in trace.phases:
        lines.append(
            {
                "event": "phase",
                "phase": mark.index,
                "delta": format_rational(mark.delta),
                "entry": mark.entry,
                "phi_start": mark.potential_start,
                "iterations": mark.iterations,
                "abundant_edges": sorted(
                    list(trace.edge_names[e]) for e in mark.abundant_start
                ),
            }
        )
        for phase, kind, subject in trace.progress_events:
            if phase == mark.index:
                lines.append(
                    {"event": "progress", "phase": phase, "kind": kind, "subject": subject}
                )
        for row in trace.rows:
            if row.phase != mark.index:
                continue
            for step in range(row.steps):
                lines.append(
                    {
                        "event": "step",
                        "phase": row.phase,
                        "delta": format_rational(row.delta),
                        "kind": row.kind,
                        "subject": row.subject,
                        "phi_before": row.phi_before - step,
                        "phi_after": row.phi_before - step - 1,
                    }
                )
        for record in trace.restarts:
            if record.phase == mark.index:
                lines.append(
                    {
                        "event": "restart",
                        "phase": record.phase,
                        "branch": record.branch,
                        "delta_before": format_rational(record.delta_before),
                        "delta_after": format_rational(record.delta_after),
                        "threshold": format_rational(record.threshold),
                        "surpluses": {
                            k: format_rational(v) for k, v in record.surpluses.items()
                        },
                    }
                )
    return [{"algorithm": trace.algorithm, **line} for line in lines]


def assert_written_as_documented(trace: PhaseTrace) -> None:
    expected = [json.dumps(doc, sort_keys=True) + "\n" for doc in documented_lines(trace)]
    assert list(trace.iter_text()) == expected
    assert trace.to_lines() == documented_lines(trace)


def hand_built_trace() -> PhaseTrace:
    """Two phases over ids that need escaping: the first has abundant
    edges, a progress line, an augmentation and a refund run of three
    steps; the second a restart with surpluses."""
    edge_names = ((QUOTE, NEWLINE), (BACKSLASH, SEPARATOR), (ACCENT, NEWLINE))
    trace = PhaseTrace(algorithm="strong", edge_names=edge_names)
    trace.begin_phase(Fraction(3, 2), "init", 9, {2, 0, 1})
    trace.progress_events.append((0, "abundant_edge", str(edge_names[1])))
    trace.add_row(TraceRow(0, Fraction(3, 2), "augment_good", SEPARATOR, 9, 8))
    trace.add_row(TraceRow(0, Fraction(3, 2), "refund", ACCENT, 8, 5, steps=3))
    trace.begin_phase(Fraction(3, 4), "halve", 12, set())
    trace.add_row(TraceRow(1, Fraction(3, 4), "augment_buyer", QUOTE, 12, 11))
    trace.restarts.append(
        RestartRecord(
            phase=1,
            branch="compressed",
            delta_before=Fraction(3, 4),
            delta_after=Fraction(1, 1024),
            threshold=Fraction(3, 128),
            surpluses={f"G:{NEWLINE}": Fraction(-1, 3), f"B:{BACKSLASH}": Fraction(2)},
        )
    )
    return trace


def test_every_line_kind_is_written_as_documented():
    trace = hand_built_trace()
    assert_written_as_documented(trace)
    events = [line["event"] for line in trace.iter_lines()]
    assert events == ["phase", "progress"] + ["step"] * 4 + ["phase", "step", "restart"]
    text = "".join(trace.iter_text())
    assert "\\u2028" in text and "\\u00e9" in text and '\\"' in text
    assert text.count("\n") == len(events)


def test_a_solved_strong_trace_with_a_restart_is_written_as_documented():
    _, trace = solve_instance(wide_instance(14), "strong").results["strong"]
    assert trace.restarts
    assert any(row.kind == "restart_repair" for row in trace.rows)
    assert any(row.steps > 1 for row in trace.rows)
    assert_written_as_documented(trace)


def test_a_long_refund_run_is_written_lazily():
    trace = PhaseTrace(algorithm="weak", edge_names=())
    trace.begin_phase(Fraction(1, 8), "init", 10**9, set())
    trace.add_row(TraceRow(0, Fraction(1, 8), "refund", ACCENT, 10**9, 0, steps=10**9))
    first = list(itertools.islice(trace.iter_text(), 4))
    assert [json.loads(line) for line in first[1:]] == [
        {
            "algorithm": "weak",
            "event": "step",
            "phase": 0,
            "delta": "1/8",
            "kind": "refund",
            "subject": ACCENT,
            "phi_before": 10**9 - k,
            "phi_after": 10**9 - k - 1,
        }
        for k in range(3)
    ]

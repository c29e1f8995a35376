"""A digest of what ``arctic-auction solve`` writes over a fixed set of
markets, to show that a change leaves every output byte-identical.

Run it from the root of a checkout:

    PYTHONPATH=src:tests python tests/solve_digest.py

It makes one ``cli.main solve`` call per line and prints the line's label,
the call's exit code and the SHA-256 of what the call left: the result
document, the trace, the exit code and stderr.  The last line is a total over all of them.  To
compare two checkouts, run this script against the sources of each (the
markets come from this checkout's ``tests/``) and diff the outputs:

    PYTHONPATH=src:tests python tests/solve_digest.py > new.txt
    PYTHONPATH=OTHER/src:tests python tests/solve_digest.py > old.txt
    diff old.txt new.txt

The set, 502 calls in all:

- ``random_instance(4 + s % 9, Random(s))``, s = 0-59, under each solver;
- ``wide_instance(s, (6, 14))``, s = 400-459, under each solver;
- ``wide_instance(s)``, s = 0-39, under strong (it passes through the
  compressed restart and its refund tails);
- ``one_edge_market(k)``, k = 8, 64 and 256, under each solver (every
  restart strong makes on it is delayed);
- the markets that exit 3 today (ROADMAP item 1): ``wide_instance(s, (6,
  14))`` for s = 198, 281, 364, 492 and 503 under strong, and
  ``random_instance(34, Random(2008))`` under strong at seed 7;
- the plain scan ``random_instance(n, Random(s))`` for n = 20-80 in steps
  of 10 and s = 0-29 under strong, where prices reach 200 bits and more.
  Its markets run under a cap of 200 phases (strong's own watchdog would
  let ``(70, 20)`` run for more than an hour); those that certify take at
  most 54.  Three of them fail today (ROADMAP item 1): ``(60, 3)`` and
  ``(70, 25)`` exit 3 on certification, and ``(70, 20)`` exits 3 at the
  cap.  They write no trace: ``(40, 29)``'s refund tail alone would be
  25.5 million step lines, about 4.5 GB (ROADMAP item 18), so their lines
  digest the result document, the exit code and stderr.

It is not a test (pytest does not collect it): it takes about 50 s.  Its
expected output is ``tests/solve_digest.txt``, which CI diffs against; a
change that alters outputs on purpose regenerates that file in the same
commit:

    PYTHONPATH=src:tests python tests/solve_digest.py > tests/solve_digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import arcticauction.strong as strong
from arcticauction.cli import main
from arcticauction.randgen import random_instance

from conftest import wide_instance
from test_cli import instance_doc
from test_strong import one_edge_market


SCAN_PHASE_CAP = 200


def solves():
    """``(label, market, algorithm, seed, scan)`` of each call, in order;
    ``scan`` marks the plain scan's markets, which run under a cap of
    ``SCAN_PHASE_CAP`` phases and write no trace."""
    for s in range(60):
        inst = random_instance(4 + s % 9, random.Random(s))
        for algorithm in ("weak", "strong"):
            yield f"random:{s}:{algorithm}", inst, algorithm, 0, False
    for s in range(400, 460):
        inst = wide_instance(s, (6, 14))
        for algorithm in ("weak", "strong"):
            yield f"wide6-14:{s}:{algorithm}", inst, algorithm, 0, False
    for s in range(40):
        yield f"wide:{s}:strong", wide_instance(s), "strong", 0, False
    for k in (8, 64, 256):
        for algorithm in ("weak", "strong"):
            yield f"one-edge:{k}:{algorithm}", one_edge_market(k), algorithm, 0, False
    for s in (198, 281, 364, 492, 503):
        yield f"exit3:wide6-14:{s}:strong", wide_instance(s, (6, 14)), "strong", 0, False
    yield "exit3:random34-2008:strong", random_instance(34, random.Random(2008)), "strong", 7, False
    for n in range(20, 81, 10):
        for s in range(30):
            inst = random_instance(n, random.Random(s))
            yield f"plain:{n}:{s}:strong", inst, "strong", 0, True


def digest(
    workdir: Path, inst, algorithm: str, seed: int, traced: bool
) -> tuple[int, str]:
    """One solve's exit code, and the SHA-256 of its result document,
    trace (absent when not ``traced``), exit code and stderr."""
    source, result, trace = (workdir / name for name in ("in.json", "out.json", "trace.jsonl"))
    source.write_text(json.dumps(instance_doc(inst)))
    for path in (result, trace):
        path.unlink(missing_ok=True)
    args = [
        "solve",
        "--input", str(source),
        "--algorithm", algorithm,
        "--seed", str(seed),
        "--output", str(result),
    ]
    if traced:
        args += ["--trace", str(trace)]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(args)
    h = hashlib.sha256()
    for path in (result, trace):
        h.update(path.read_bytes() if path.exists() else b"<absent>")
        h.update(b"\0")
    h.update(f"{code}\0{stderr.getvalue()}".encode())
    return code, h.hexdigest()


def run() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for label, inst, algorithm, seed, scan in solves():
            budget = (lambda n: SCAN_PHASE_CAP) if scan else strong.phase_budget
            with mock.patch.object(strong, "phase_budget", budget):
                code, sha = digest(Path(tmp), inst, algorithm, seed, traced=not scan)
            line = f"{label} exit {code} {sha}"
            print(line, flush=True)
            total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    run()

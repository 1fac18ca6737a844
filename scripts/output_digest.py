"""One SHA-256 over every output of the benchmark's commands.

Runs the commands of the three benchmark workloads (``perfbench/workloads.py``
``build``) in this process through ``horoflow.cli.main``, at seeds 0-2, at
full size and under ``--quick``, and hashes, command by command, its exit
code, its stderr lines, its ``report.json`` without ``timestamp`` and every
artifact it wrote.  Two checkouts, or two runs under different
``PYTHONHASHSEED`` values, that print the same last line wrote the same
bytes.  Paths under the temporary work directory are hashed relative to it.

Run from anywhere, with numpy installed:

    python scripts/output_digest.py

Each command's own digest is printed first, one line each; the last line is
the digest of them all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from horoflow import cli  # noqa: E402

WORKLOADS = ("exhibit-time", "exhibit-autonomous", "checks")
SEEDS = (0, 1, 2)


def command_digest(op, work: Path) -> str:
    """Run one command and hash what it wrote, with ``work`` read as ``<work>``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([*op.argv, "--out", str(op.out)])
    h = hashlib.sha256()

    def add(text: str) -> None:
        h.update(text.replace(str(work), "<work>").encode() + b"\0")

    add(f"{op.name} exit {rc}")
    for line in err.getvalue().splitlines():
        add(line)
    for path in sorted(p for p in op.out.rglob("*") if p.is_file()):
        add(str(path.relative_to(op.out)))
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("timestamp")
            add(json.dumps(report, sort_keys=True))
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for quick in (False, True):
                    work = Path(tmp) / f"{workload}-{seed}-{'quick' if quick else 'full'}"
                    for op in workloads.build(workload, seed, work, quick):
                        digest = command_digest(op, work)
                        print(f"{work.name} {op.name} {digest}")
                        total.update(digest.encode())
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

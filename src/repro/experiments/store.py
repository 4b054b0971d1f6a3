"""JSONL persistence for experiment records, keyed by config hash.

One record per line, appended as sweeps complete.  Loading builds a
hash → record index (last write wins, so a re-run with ``force=True``
shadows older rows without rewriting the file); lines that fail to parse
— torn writes, rows from an incompatible schema version — are skipped as
cache misses rather than aborting the sweep.  Appends issue one
``O_APPEND`` ``write(2)`` per batch, so concurrent sweeps over disjoint
grids can share a store without interleaving partial lines; within one
engine invocation all appends happen in the parent process, in grid
order, which keeps the file deterministic.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from .records import RunRecord

__all__ = ["ResultStore"]


def _parse_line(line: str) -> Optional[RunRecord]:
    """Parse one JSONL line; ``None`` (a miss) for torn/incompatible rows."""
    line = line.strip()
    if not line:
        return None
    try:
        return RunRecord.from_json_line(line)
    except (ValueError, KeyError, TypeError):
        return None


def _clean_end(fh, size: int, block: int = 1 << 16) -> int:
    """Offset just past the last newline-terminated line of ``fh`` that is
    blank or parses; 0 if there is none.

    Scans a window at the end of the file, doubling it from ``block`` bytes
    until that line is inside: a store with a short torn tail costs one
    read, a long invalid tail linear work.
    """
    while True:
        start = max(0, size - block)
        fh.seek(start)
        lines = fh.read(size - start).split(b"\n")
        end = size - len(lines[-1])     # the bytes after the last newline are torn
        # Unless the window starts the file, its first line may be partial.
        for line in reversed(lines[1 if start else 0:-1]):
            if not line.strip() or _parse_line(
                line.decode("utf-8", errors="replace")
            ) is not None:
                return end
            end -= len(line) + 1
        if start == 0:
            return 0
        block *= 2


class ResultStore:
    """Append-only JSONL store of :class:`RunRecord` rows."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> Dict[str, RunRecord]:
        """Read all records into a hash → record map (last write wins)."""
        records: Dict[str, RunRecord] = {}
        for record in self.load_records():
            records[record.config_hash] = record
        return records

    def load_records(self) -> List[RunRecord]:
        """All parseable records in file order (duplicates included)."""
        out: List[RunRecord] = []
        if not self.path.is_file():
            return out
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                record = _parse_line(line)
                if record is not None:
                    out.append(record)
        return out

    def recover(self) -> int:
        """Truncate torn trailing bytes left by a crash mid-append.

        A process killed inside :meth:`append` can leave a partial final
        line (no newline, or a complete line that does not parse).  Loading
        already skips such rows, but a later append would splice new bytes
        onto the torn fragment and corrupt *that* record too — so the
        crash-safe service truncates the tail on adopt.  Only the trailing
        run of invalid data is removed; interior unparseable lines (old
        schema rows) keep their existing skip-on-load semantics.  The scan
        runs backward from EOF and reads only that trailing run plus the
        row before it.  Returns the number of bytes truncated.
        """
        if not self.path.is_file():
            return 0
        with self.path.open("rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            clean_end = _clean_end(fh, size)
        removed = size - clean_end
        if removed:
            os.truncate(str(self.path), clean_end)
        return removed

    def append(self, records: Iterable[RunRecord]) -> int:
        """Append records (one JSONL line each); returns the count written.

        The whole batch goes out in a single ``write(2)`` on an
        ``O_APPEND`` descriptor, so a concurrent appender cannot land
        between the fragments of one line.
        """
        records = list(records)
        if not records:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = "".join(r.to_json_line() + "\n" for r in records).encode("utf-8")
        fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            view = memoryview(payload)
            while view:
                written = os.write(fd, view)
                view = view[written:]
            os.fsync(fd)
        finally:
            os.close(fd)
        return len(records)

    def stats(self) -> Dict[str, object]:
        """Store summary for the service's ``stats`` op.

        ``rows`` counts every parseable line (duplicates included);
        ``unique`` counts distinct config hashes, i.e. what ``load()``
        would serve as cache hits.
        """
        records = self.load_records()
        return {
            "path": str(self.path),
            "exists": self.path.is_file(),
            "rows": len(records),
            "unique": len({r.config_hash for r in records}),
            "bytes": self.path.stat().st_size if self.path.is_file() else 0,
        }

    def __len__(self) -> int:
        return len(self.load_records())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.path)!r})"

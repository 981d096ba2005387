"""Command-stream tracer: ring buffer plus JSONL and binary sinks.

The tracer is designed to be zero-cost when off: hot paths hold a plain
attribute (``self.tracer``) that is ``None`` unless tracing was enabled,
so the disabled path is a single identity check.  When on, records go
into a bounded :class:`collections.deque` — long runs keep the most
recent ``capacity`` events and count what they dropped, so the sinks can
say whether a trace is complete.

Two interchangeable on-disk formats:

* **JSONL** — first line is ``{"header": {...}}``, then one record
  object per line.  Greppable, diffable, self-describing.
* **binary** — magic ``REPROBS1``, a length-prefixed JSON header (with
  the op table injected under ``"_ops"``), a record count, then
  fixed-width packed records.  Roughly 6x smaller than JSONL and much
  faster to scan.

:func:`read_trace` sniffs the magic so consumers never care which sink
produced a file, and decodes both formats to identical
``(header, records)`` streams (a property pinned by tests).
"""

from __future__ import annotations

import json
import struct
from collections import deque
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.config.obs_config import ObsConfig
from repro.obs.record import ALL_OPS, TraceRecord

#: Magic prefix identifying the binary trace format, version 1.
BINARY_MAGIC = b"REPROBS1"

#: Packed record layout: cycle:int64, op:uint8, channel/rank/bank:int16,
#: row:int32, done:int64 (little-endian).  ``done`` shares cycle's width
#: because it doubles as a completion cycle.
_RECORD = struct.Struct("<qBhhhiq")

_LENGTH = struct.Struct("<I")


class CommandTracer:
    """Bounded in-memory sink for :class:`TraceRecord` events.

    ``command``/``decision`` are the only methods on the hot path; both
    are a deque append plus a counter bump.  ``total`` counts every
    record ever offered, so ``dropped`` (records evicted by the ring
    buffer) is ``total - len(records)``.
    """

    __slots__ = ("capacity", "records", "total")

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.records: deque[TraceRecord] = deque(maxlen=capacity)
        self.total = 0

    @property
    def dropped(self) -> int:
        return self.total - len(self.records)

    def command(self, command, cycle: int, done: int) -> None:
        """Record a DRAM command issue (called from the controller)."""
        self.total += 1
        self.records.append(
            TraceRecord(
                cycle=cycle,
                op=command.kind.name,
                channel=command.channel,
                rank=command.rank,
                bank=-1 if command.bank is None else command.bank,
                row=-1 if command.row is None else command.row,
                done=done,
            )
        )

    def decision(
        self,
        op: str,
        cycle: int,
        channel: int,
        rank: int,
        bank: int = -1,
        row: int = -1,
        count: int = 1,
    ) -> None:
        """Record a refresh-policy decision (DARP_*/SARP_CONFLICT)."""
        self.total += 1
        self.records.append(
            TraceRecord(
                cycle=cycle,
                op=op,
                channel=channel,
                rank=rank,
                bank=bank,
                row=row,
                done=count,
            )
        )

    def reset(self) -> None:
        """Drop everything recorded so far (warmup ends here)."""
        self.records.clear()
        self.total = 0


# -- sinks -----------------------------------------------------------------

#: File suffix of each trace format :class:`ObsConfig` accepts.
TRACE_SUFFIXES = {"jsonl": "jsonl", "binary": "bin"}


def write_trace(
    path: Union[str, Path],
    header: dict,
    records: Iterable[TraceRecord],
    fmt: str = "jsonl",
) -> Path:
    """Persist a trace; returns the written path."""
    path = Path(path)
    if fmt == "jsonl":
        _write_jsonl(path, header, records)
    elif fmt == "binary":
        _write_binary(path, header, records)
    else:
        raise ValueError(
            f"unknown trace format {fmt!r}; expected one of "
            + ", ".join(ObsConfig.TRACE_FORMATS)
        )
    return path


def read_trace(path: Union[str, Path]) -> tuple[dict, list[TraceRecord]]:
    """Load a trace written by either sink; the format is sniffed."""
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(len(BINARY_MAGIC))
    if magic == BINARY_MAGIC:
        return _read_binary(path)
    return _read_jsonl(path)


def _write_jsonl(path: Path, header: dict, records: Iterable[TraceRecord]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for record in records:
            handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")


def _read_jsonl(path: Path) -> tuple[dict, list[TraceRecord]]:
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
        if not first.strip():
            # An empty (or whitespace-only) file is a legitimate degenerate
            # trace — a run that recorded nothing — not a format error.
            return {}, []
        head = json.loads(first)
        if "header" not in head:
            raise ValueError(f"{path} does not start with a trace header line")
        records = [
            TraceRecord.from_dict(json.loads(line)) for line in handle if line.strip()
        ]
    return head["header"], records


def _write_binary(path: Path, header: dict, records: Iterable[TraceRecord]) -> None:
    records = list(records)
    # The op table rides inside the header so the format is self-contained
    # even if ALL_OPS grows in a later version; the reader strips it.
    payload = dict(header)
    payload["_ops"] = list(ALL_OPS)
    header_bytes = json.dumps(payload, sort_keys=True).encode("utf-8")
    op_index = {op: i for i, op in enumerate(ALL_OPS)}
    with path.open("wb") as handle:
        handle.write(BINARY_MAGIC)
        handle.write(_LENGTH.pack(len(header_bytes)))
        handle.write(header_bytes)
        handle.write(_LENGTH.pack(len(records)))
        for record in records:
            handle.write(
                _RECORD.pack(
                    record.cycle,
                    op_index[record.op],
                    record.channel,
                    record.rank,
                    record.bank,
                    record.row,
                    record.done,
                )
            )


def _read_binary(path: Path) -> tuple[dict, list[TraceRecord]]:
    data = path.read_bytes()
    if not data.startswith(BINARY_MAGIC):
        raise ValueError(f"{path} lacks the binary trace magic")
    offset = len(BINARY_MAGIC)
    (header_len,) = _LENGTH.unpack_from(data, offset)
    offset += _LENGTH.size
    header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    offset += header_len
    ops = header.pop("_ops", list(ALL_OPS))
    (count,) = _LENGTH.unpack_from(data, offset)
    offset += _LENGTH.size
    records = []
    for _ in range(count):
        cycle, op, channel, rank, bank, row, done = _RECORD.unpack_from(data, offset)
        offset += _RECORD.size
        records.append(
            TraceRecord(
                cycle=cycle,
                op=ops[op],
                channel=channel,
                rank=rank,
                bank=bank,
                row=row,
                done=done,
            )
        )
    return header, records


def trace_header(
    *,
    workload: str,
    mechanism: str,
    density_gb: int,
    cycles: int,
    warmup: int,
    seed: int,
    job_key: str,
    tracer: CommandTracer,
    extra: Optional[dict] = None,
) -> dict:
    """Standard trace header written by the engine job runner."""
    header = {
        "schema": "repro.obs.trace",
        "version": 1,
        "workload": workload,
        "mechanism": mechanism,
        "density_gb": density_gb,
        "cycles": cycles,
        "warmup": warmup,
        "seed": seed,
        "job_key": job_key,
        "capacity": tracer.capacity,
        "records": len(tracer.records),
        "dropped": tracer.dropped,
    }
    if extra:
        header.update(extra)
    return header

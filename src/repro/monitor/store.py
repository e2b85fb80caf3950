"""Local history store of task and transfer observations (§IV-B).

Monitored information is streamed into a local database that acts as
historical knowledge: a user can start a workflow from an existing database
so the profilers can pre-build performance models.  SQLite (standard library)
is used so the store can be kept purely in memory for experiments or written
to a file for reuse across runs.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["HistoryStore", "NullHistoryStore", "TaskRecord", "TransferRecord"]


@dataclass(frozen=True)
class TaskRecord:
    """One observed task execution (the execution profiler's training rows)."""

    function_name: str
    endpoint: str
    input_mb: float
    output_mb: float
    execution_time_s: float
    cores_per_node: int
    cpu_freq_ghz: float
    ram_gb: float
    success: bool
    timestamp: float


@dataclass(frozen=True)
class TransferRecord:
    """One observed transfer (the transfer profiler's training rows)."""

    src: str
    dst: str
    size_mb: float
    duration_s: float
    mechanism: str
    concurrency: int
    success: bool
    timestamp: float


class HistoryStore:
    """SQLite-backed store of task/transfer history.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` (default) for an in-memory
        store scoped to this process.

    Rows are written as they are observed but committed in bulk: by
    :meth:`flush`, :meth:`clear` and :meth:`close`.  The run loop flushes a
    file-backed store after every delivered record batch and any store when a
    run ends, however it ends.  Reads through this store see every row at
    once — they share its connection; only *another* connection to a
    file-backed store needs the commit, and a ``:memory:`` store has no other
    connection.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path or ":memory:"
        self._conn = sqlite3.connect(self.path)
        self._create_tables()

    def _create_tables(self) -> None:
        cur = self._conn.cursor()
        cur.execute(
            """
            CREATE TABLE IF NOT EXISTS task_records (
                function_name TEXT NOT NULL,
                endpoint TEXT NOT NULL,
                input_mb REAL NOT NULL,
                output_mb REAL NOT NULL,
                execution_time_s REAL NOT NULL,
                cores_per_node INTEGER NOT NULL,
                cpu_freq_ghz REAL NOT NULL,
                ram_gb REAL NOT NULL,
                success INTEGER NOT NULL,
                timestamp REAL NOT NULL
            )
            """
        )
        cur.execute(
            """
            CREATE TABLE IF NOT EXISTS transfer_records (
                src TEXT NOT NULL,
                dst TEXT NOT NULL,
                size_mb REAL NOT NULL,
                duration_s REAL NOT NULL,
                mechanism TEXT NOT NULL,
                concurrency INTEGER NOT NULL,
                success INTEGER NOT NULL,
                timestamp REAL NOT NULL
            )
            """
        )
        cur.execute(
            "CREATE INDEX IF NOT EXISTS idx_task_function ON task_records(function_name)"
        )
        cur.execute("CREATE INDEX IF NOT EXISTS idx_transfer_pair ON transfer_records(src, dst)")
        self._conn.commit()

    # ----------------------------------------------------------------- tasks
    def add_task_record(self, record: TaskRecord) -> None:
        self._conn.execute(
            "INSERT INTO task_records VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.function_name,
                record.endpoint,
                record.input_mb,
                record.output_mb,
                record.execution_time_s,
                record.cores_per_node,
                record.cpu_freq_ghz,
                record.ram_gb,
                int(record.success),
                record.timestamp,
            ),
        )

    def task_records(
        self,
        function_name: Optional[str] = None,
        endpoint: Optional[str] = None,
        successful_only: bool = True,
        limit: Optional[int] = None,
    ) -> List[TaskRecord]:
        query = "SELECT * FROM task_records"
        clauses, params = [], []
        if function_name is not None:
            clauses.append("function_name = ?")
            params.append(function_name)
        if endpoint is not None:
            clauses.append("endpoint = ?")
            params.append(endpoint)
        if successful_only:
            clauses.append("success = 1")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY timestamp DESC"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        rows = self._conn.execute(query, params).fetchall()
        return [
            TaskRecord(
                function_name=r[0],
                endpoint=r[1],
                input_mb=r[2],
                output_mb=r[3],
                execution_time_s=r[4],
                cores_per_node=r[5],
                cpu_freq_ghz=r[6],
                ram_gb=r[7],
                success=bool(r[8]),
                timestamp=r[9],
            )
            for r in rows
        ]

    def task_count(self, function_name: Optional[str] = None) -> int:
        if function_name is None:
            row = self._conn.execute("SELECT COUNT(*) FROM task_records").fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM task_records WHERE function_name = ?", (function_name,)
            ).fetchone()
        return int(row[0])

    def function_names(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT DISTINCT function_name FROM task_records ORDER BY function_name"
        ).fetchall()
        return [r[0] for r in rows]

    # -------------------------------------------------------------- transfers
    def add_transfer_record(self, record: TransferRecord) -> None:
        self._conn.execute(
            "INSERT INTO transfer_records VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.src,
                record.dst,
                record.size_mb,
                record.duration_s,
                record.mechanism,
                record.concurrency,
                int(record.success),
                record.timestamp,
            ),
        )

    def transfer_records(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        successful_only: bool = True,
        limit: Optional[int] = None,
    ) -> List[TransferRecord]:
        query = "SELECT * FROM transfer_records"
        clauses, params = [], []
        if src is not None:
            clauses.append("src = ?")
            params.append(src)
        if dst is not None:
            clauses.append("dst = ?")
            params.append(dst)
        if successful_only:
            clauses.append("success = 1")
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY timestamp DESC"
        if limit is not None:
            query += f" LIMIT {int(limit)}"
        rows = self._conn.execute(query, params).fetchall()
        return [
            TransferRecord(
                src=r[0],
                dst=r[1],
                size_mb=r[2],
                duration_s=r[3],
                mechanism=r[4],
                concurrency=r[5],
                success=bool(r[6]),
                timestamp=r[7],
            )
            for r in rows
        ]

    def transfer_count(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM transfer_records").fetchone()
        return int(row[0])

    def endpoint_pairs(self) -> List[Tuple[str, str]]:
        rows = self._conn.execute(
            "SELECT DISTINCT src, dst FROM transfer_records ORDER BY src, dst"
        ).fetchall()
        return [(r[0], r[1]) for r in rows]

    # ----------------------------------------------------------------- misc
    def clear(self) -> None:
        self._conn.execute("DELETE FROM task_records")
        self._conn.execute("DELETE FROM transfer_records")
        self._conn.commit()

    def flush(self) -> None:
        """Make every row written so far durable (and visible to other
        connections to the same file)."""
        self._conn.commit()

    def close(self) -> None:
        self.flush()
        self._conn.close()


class NullHistoryStore(HistoryStore):
    """A history store that records nothing.

    Open-ended streaming runs (10k+ tenants, ~1M tasks) would otherwise grow
    the in-memory SQLite store by one row per observation forever; the
    monitors keep their interface but every write is a no-op and every read
    returns empty.  Profilers see zero counts and fall back to live-only
    training, exactly as with no store at all.
    """

    def __init__(self) -> None:
        self.path = ":memory:"
        self._conn = None  # never opened; every accessor below is overridden

    def add_task_record(self, record: TaskRecord) -> None:
        pass

    def add_transfer_record(self, record: TransferRecord) -> None:
        pass

    def task_records(self, *args, **kwargs) -> List[TaskRecord]:
        return []

    def transfer_records(self, *args, **kwargs) -> List[TransferRecord]:
        return []

    def task_count(self, function_name: Optional[str] = None) -> int:
        return 0

    def transfer_count(self) -> int:
        return 0

    def function_names(self) -> List[str]:
        return []

    def endpoint_pairs(self) -> List[Tuple[str, str]]:
        return []

    def clear(self) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

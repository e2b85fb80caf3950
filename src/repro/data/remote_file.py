"""RemoteFile shim layer (§III-A, §IV-E).

A :class:`RemoteFile` wraps data that lives on some endpoint's filesystem and
is too large to travel inline with a task (funcX caps serialized arguments at
10 MB).  Tasks receive RemoteFile arguments, call
:meth:`RemoteFile.get_remote_file_path` and use ordinary Python I/O; the data
manager makes sure the file is present on the endpoint the task runs on
before the task is dispatched.

Two concrete subclasses select the transfer mechanism: :class:`GlobusFile`
and :class:`RsyncFile`.  :class:`RemoteDirectory` groups several files that
move together.

In simulation mode files are *virtual*: they carry a size and a set of
replica locations but no bytes.  In local mode they may point at a real path
on the local filesystem.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional, Set

__all__ = [
    "RemoteFile",
    "GlobusFile",
    "RsyncFile",
    "RemoteDirectory",
    "bump_location_version",
    "location_version",
]

_file_counter = itertools.count()

#: Global generation counter over every file's replica set: "did anything
#: move anywhere" (DHA's re-scheduling fingerprint).  Caches of values that
#: depend on *particular* files stamp their entries with those files'
#: :attr:`RemoteFile.location_stamp` instead, so one file moving leaves
#: entries about every other file valid.
_location_version = 0

#: Source of :attr:`RemoteFile.location_stamp` values (unique across files).
_location_stamps = itertools.count(1)


def location_version() -> int:
    """Current replica-set generation (bumped on any location change)."""
    return _location_version


def _bump_location_version() -> None:
    global _location_version
    _location_version += 1


def bump_location_version() -> None:
    """Advance the replica-set generation without a location change.

    Used when replica *reachability* changes (an endpoint crashing or
    rejoining quarantines / restores its copies): the catalog is unchanged
    but "nothing moved anywhere" no longer holds.
    """
    _bump_location_version()


class RemoteFile:
    """A file that lives on one or more endpoints of the federated pool."""

    #: Transfer mechanism used to move this file ("globus", "rsync", "local").
    mechanism = "globus"

    def __init__(
        self,
        name: str,
        size_mb: float = 0.0,
        location: Optional[str] = None,
        local_path: Optional[str] = None,
    ) -> None:
        if size_mb < 0:
            raise ValueError("size_mb must be non-negative")
        self.file_id = f"file-{next(_file_counter):08d}"
        self.name = name
        self.size_mb = float(size_mb)
        #: Endpoints currently holding a replica of this file.
        self.locations: Set[str] = set()
        #: Renewed on every change of :attr:`locations`, from a counter shared
        #: by all files: the stamps of a task's input files, taken together,
        #: identify both which files they are and where each one lives.
        self.location_stamp = next(_location_stamps)
        #: Callbacks ``(file, endpoint)`` run after a replica of this file
        #: appeared at or vanished from ``endpoint`` (see :meth:`watch_locations`).
        self._location_watchers: List[Callable[["RemoteFile", str], None]] = []
        if location is not None:
            self.locations.add(location)
            _bump_location_version()
        self.local_path = local_path

    # ------------------------------------------------------------- interface
    @classmethod
    def create(
        cls,
        name: str,
        size_mb: float = 0.0,
        location: Optional[str] = None,
        local_path: Optional[str] = None,
    ) -> "RemoteFile":
        """Create a new (initially empty) file on a compute resource.

        Mirrors ``GlobusFile.create`` in Listing 1: functions call this to
        declare output files that UniFaaS should track and stage.
        """
        return cls(name, size_mb=size_mb, location=location, local_path=local_path)

    def get_remote_file_path(self) -> str:
        """Path a task should use to read/write the file on its endpoint."""
        if self.local_path is not None:
            return self.local_path
        location = self.primary_location or "unplaced"
        return f"/unifaas/data/{location}/{self.name}"

    # -------------------------------------------------------------- replicas
    @property
    def primary_location(self) -> Optional[str]:
        """One endpoint holding the file (stable choice), or ``None``."""
        if not self.locations:
            return None
        return sorted(self.locations)[0]

    def available_at(self, endpoint: str) -> bool:
        return endpoint in self.locations

    def add_location(self, endpoint: str) -> None:
        if endpoint not in self.locations:
            self.locations.add(endpoint)
            self._locations_changed(endpoint)

    def remove_location(self, endpoint: str) -> None:
        if endpoint in self.locations:
            self.locations.discard(endpoint)
            self._locations_changed(endpoint)

    def watch_locations(self, callback: Callable[["RemoteFile", str], None]) -> None:
        """Call ``callback(file, endpoint)`` after every replica-set change.

        The replica store keeps per-endpoint eviction indexes that depend on
        where else a file lives; whoever moves the file (a transfer backend,
        a task registering its output) need not know the store exists.
        Registering the same callback twice is a no-op.
        """
        if callback not in self._location_watchers:
            self._location_watchers.append(callback)

    def _locations_changed(self, endpoint: str) -> None:
        _bump_location_version()
        self.location_stamp = next(_location_stamps)
        for watcher in self._location_watchers:
            watcher(self, endpoint)

    def __getstate__(self) -> dict:
        # Watchers belong to this process's stores, not to the file's value.
        state = self.__dict__.copy()
        state["_location_watchers"] = []
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, size_mb={self.size_mb}, "
            f"locations={sorted(self.locations)})"
        )


class GlobusFile(RemoteFile):
    """File transferred with Globus (high-throughput, managed transfers)."""

    mechanism = "globus"


class RsyncFile(RemoteFile):
    """File transferred with rsync over ssh (single-stream)."""

    mechanism = "rsync"


class RemoteDirectory:
    """A group of remote files that are staged together; :meth:`add` fills it."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.files: List[RemoteFile] = []

    @property
    def size_mb(self) -> float:
        return float(sum(f.size_mb for f in self.files))

    def add(self, file: RemoteFile) -> None:
        self.files.append(file)

    def available_at(self, endpoint: str) -> bool:
        return all(f.available_at(endpoint) for f in self.files)

    def get_remote_file_path(self) -> str:
        """Directory path on the endpoint (keeps RemoteFile duck-typing)."""
        location = sorted({f.primary_location for f in self.files if f.primary_location})
        prefix = location[0] if location else "unplaced"
        return f"/unifaas/data/{prefix}/{self.name}/"

    def __iter__(self):
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

"""Wide-area data: files, transfer mechanisms and staging tickets (§IV-E).

UniFaaS passes small Python objects between tasks through futures, but large
files must be staged across the federated resource pool.  This package
provides:

* :mod:`repro.data.remote_file` — the ``RemoteFile`` shim layer
  (``GlobusFile``/``RsyncFile``/``RemoteDirectory``) users wrap their data in;
* :mod:`repro.data.transfer` — transfer backends (simulated Globus and rsync
  over the network model, and a local-copy backend for local mode);
* :mod:`repro.data.manager` — the :class:`StagingTicket` a staging request
  returns.

The data layer that stages, retries and keeps the replica catalog is
:class:`repro.dataplane.plane.DataPlane`.
"""

from repro.data.remote_file import GlobusFile, RemoteDirectory, RemoteFile, RsyncFile
from repro.data.transfer import (
    LocalCopyTransferBackend,
    SimulatedTransferBackend,
    TransferBackend,
    TransferRequest,
    TransferResult,
)
from repro.data.manager import StagingTicket

__all__ = [
    "GlobusFile",
    "LocalCopyTransferBackend",
    "RemoteDirectory",
    "RemoteFile",
    "RsyncFile",
    "SimulatedTransferBackend",
    "StagingTicket",
    "TransferBackend",
    "TransferRequest",
    "TransferResult",
]

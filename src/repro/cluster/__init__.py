"""Multi-host compilation: the coordinator/worker cluster behind ``"sockets"``.

Layout (mirroring the service-behind-a-thin-front-end layering):

* :mod:`repro.cluster.wire` — length-prefixed pickled framing, versioned
  handshake, :class:`~repro.cluster.wire.ProtocolError` hardening;
* :mod:`repro.cluster.hashing` — the consistent hash ring that shards regions
  and language bundles across workers;
* :mod:`repro.cluster.membership` — the worker directory (ids, heartbeats,
  liveness);
* :mod:`repro.cluster.coordinator` — connections, shard placement, liveness,
  reassignment/speculation (mailboxes, replay and duplicate suppression are the
  coordinator core in :mod:`repro.backends.routing`, shared with ``processes``);
* :mod:`repro.cluster.worker` — the ``python -m repro.cluster.worker`` host
  process entrypoint.

Most callers never import this package: ``create_substrate("sockets")`` (or
``Session(backend="sockets")``) wires it all up behind the ordinary
:class:`~repro.backends.base.Substrate` contract.
"""

from repro.cluster.coordinator import ClusterCoordinator, ClusterError, ClusterStats
from repro.cluster.hashing import HashRing, stable_hash
from repro.cluster.membership import WorkerDirectory, WorkerInfo
from repro.cluster.wire import MAGIC, PROTOCOL_VERSION, ProtocolError


def __getattr__(name: str):
    # ClusterWorker is exported lazily: importing it eagerly would pull
    # repro.cluster.worker into sys.modules during the package import that
    # ``python -m repro.cluster.worker`` performs, and runpy then warns about
    # re-executing an already-imported module.
    if name == "ClusterWorker":
        from repro.cluster.worker import ClusterWorker

        return ClusterWorker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ClusterCoordinator",
    "ClusterError",
    "ClusterStats",
    "ClusterWorker",
    "HashRing",
    "MAGIC",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerDirectory",
    "WorkerInfo",
    "stable_hash",
]

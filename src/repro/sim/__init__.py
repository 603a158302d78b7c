"""Storage simulation substrate (our DiskSim substitute).

* :mod:`repro.sim.kernel` — discrete-event engine.
* :mod:`repro.sim.disk` / :mod:`repro.sim.array` — disks and the array.
* :mod:`repro.sim.cache_sim` — the timed buffer cache.
* :mod:`repro.sim.controller` — the RAID controller's recovery logic.
* :mod:`repro.sim.reconstruction` — the run's config and report, and
  the disk bank a config describes.
* :mod:`repro.sim.topology` — racks, nodes, links: the cluster resource
  model (the single-controller world is its degenerate one-node case).

The timed run is built one layer up, in
:func:`repro.engine.timed.run_timed_replay`; the untimed trace replay is
:func:`repro.engine.simulate_trace`.  The recovery *scenarios* —
:mod:`repro.sim.cluster` (cross-rack), :mod:`repro.sim.dor`
(disk-oriented), :mod:`repro.sim.online` (foreground I/O during
recovery) and :mod:`repro.sim.rebuild` (whole-disk rebuild) — drive the
engine, so they sit in the engine's layer and are imported by submodule,
not re-exported here.
"""

from .array import ArrayGeometry, DiskArray, FlatGeometry
from .cache_sim import ResponseLog, TimedBufferCache
from .controller import OverheadLog, RAIDController
from .disk import (
    Disk,
    DiskStats,
    FixedLatencyModel,
    SeekRotateTransferModel,
)
from .kernel import (
    AllOf,
    Container,
    Environment,
    Event,
    Interrupt,
    Process,
    Request,
    Resource,
    SimulationError,
    Store,
    Timeout,
)
from .datapath import PayloadOracle, VerifyingDataPath
from .reconstruction import (
    ClusterStats,
    ReconstructionReport,
    SimConfig,
    build_array,
)
from .scheduling import (
    FCFSScheduler,
    SSTFScheduler,
    ScanScheduler,
    ScheduledDisk,
    make_scheduler,
)
from .topology import (
    ClusterTopology,
    FaultInjector,
    HeartbeatMonitor,
    Link,
    Node,
    NodeFailure,
    Rack,
    Switch,
    TopologySpec,
    build_topology,
    single_node_topology,
)

__all__ = [
    "ArrayGeometry",
    "DiskArray",
    "FlatGeometry",
    "ResponseLog",
    "TimedBufferCache",
    "OverheadLog",
    "RAIDController",
    "Disk",
    "DiskStats",
    "FixedLatencyModel",
    "SeekRotateTransferModel",
    "AllOf",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "ClusterStats",
    "ReconstructionReport",
    "SimConfig",
    "build_array",
    "ClusterTopology",
    "FaultInjector",
    "HeartbeatMonitor",
    "Link",
    "Node",
    "NodeFailure",
    "Rack",
    "Switch",
    "TopologySpec",
    "build_topology",
    "single_node_topology",
    "PayloadOracle",
    "VerifyingDataPath",
    "FCFSScheduler",
    "SSTFScheduler",
    "ScanScheduler",
    "ScheduledDisk",
    "make_scheduler",
]

"""Age-of-information moments for Poisson gossip networks.

Three independent routes to the same steady-state quantities — an exact
subset recursion, static first-passage sampling, and event-driven
simulation — plus finite-box passage values on the integer lattice and a
CLI that cross-checks the routes against each other.
"""

from .fpp import UnreachableTargetError, estimate_moments
from .lattice import (
    LatticeBox,
    box_recursion,
    build_box,
    mc_boundary_passage,
)
from .moments import (
    MemoLimitError,
    MomentSolver,
    MomentTable,
    solve_moments,
)
from .montecarlo import MomentEstimate
from .network import (
    Edge,
    GossipNetwork,
    NetworkConfigError,
    NodeSubset,
    as_subset,
    load_network,
)
from .simulate import (
    PendingReplicasError,
    ReplicationResult,
    estimate_moments_timeavg,
    pilot_t0,
    replication_results,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "GossipNetwork",
    "LatticeBox",
    "MemoLimitError",
    "MomentEstimate",
    "MomentSolver",
    "MomentTable",
    "NetworkConfigError",
    "NodeSubset",
    "PendingReplicasError",
    "ReplicationResult",
    "UnreachableTargetError",
    "as_subset",
    "box_recursion",
    "build_box",
    "estimate_moments",
    "estimate_moments_timeavg",
    "load_network",
    "mc_boundary_passage",
    "pilot_t0",
    "replication_results",
    "solve_moments",
]

"""Physical GPU/CPU topology modelling.

This subpackage implements the "physical system topology graph" of
Section 4.1.2 of the paper: a hierarchical weighted graph whose levels
are network -> machine -> socket -> (optional switches) -> GPU, with
extra direct GPU-to-GPU edges for NVLink connections.

The public entry points are the machine builders
(:func:`power8_minsky`, :func:`dgx1`, :func:`power8_pcie_k80`),
the generic :func:`machine` / :func:`cluster` constructors, the
:class:`TopologyGraph` container, and the discovery helpers that
round-trip an ``nvidia-smi topo --matrix``-style description.
"""

from repro.topology.links import (
    LinkSpec,
    LinkType,
    DEFAULT_LEVEL_WEIGHTS,
    NVLINK_LANE_BW,
    PCIE3_X16_BW,
)
from repro.topology.graph import NodeKind, TopologyGraph, TopologyError
from repro.topology.builders import (
    cluster,
    dgx1,
    dgx2,
    machine,
    power8_minsky,
    power8_pcie_k80,
    power9_ac922,
)
from repro.topology.allocation import AllocationState, AllocationError
from repro._lazy import lazy_exports

__all__ = [
    "AllocationError",
    "AllocationState",
    "DEFAULT_LEVEL_WEIGHTS",
    "LinkSpec",
    "LinkType",
    "NodeKind",
    "NVLINK_LANE_BW",
    "PCIE3_X16_BW",
    "TopologyError",
    "TopologyGraph",
    "cluster",
    "dgx1",
    "dgx2",
    "machine",
    "parse_numactl_hardware",
    "parse_topo_matrix",
    "power8_minsky",
    "power8_pcie_k80",
    "power9_ac922",
    "render_numactl_hardware",
    "render_topo_matrix",
    "topology_from_matrix",
]

# the discovery helpers resolve on first use (PEP 562): a simulation
# builds its machines from the builders and never parses a topo matrix
__getattr__ = lazy_exports(__name__, {
    "repro.topology.discovery": (
        "parse_numactl_hardware", "parse_topo_matrix",
        "render_numactl_hardware", "render_topo_matrix",
        "topology_from_matrix",
    ),
})

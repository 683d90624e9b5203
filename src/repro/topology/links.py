"""Link technologies and their qualitative/quantitative properties.

The paper (Section 4.1.2, Figure 7) models topology edges with two
attributes:

* a *qualitative distance weight*: edges closer to the GPU leaves get
  small weights (1), edges at higher hierarchy levels get larger weights
  (PCIe switch ~10, socket ~20, machine/network ~100).  Only the
  ordering matters; shortest-path sums over these weights are the
  communication-cost metric of Eq. 3.
* a *bandwidth* (GB/s, unidirectional) used by the performance and
  interference models.

The numbers below follow the hardware described in the paper:
NVLink 1.0 lanes are 20 GB/s unidirectional (the Power8 "Minsky"
machine aggregates two lanes per connection for 40 GB/s), PCIe gen3
x16 is ~16 GB/s, and the Power8 inter-socket X-bus (the "system bus",
QPI-equivalent) is ~38.4 GB/s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Unidirectional bandwidth of a single NVLink 1.0 lane (GB/s).
NVLINK_LANE_BW = 20.0

#: Unidirectional bandwidth of a PCIe gen3 x16 link (GB/s).
PCIE3_X16_BW = 16.0

#: Unidirectional bandwidth of the Power8 inter-socket X-bus (GB/s).
XBUS_BW = 38.4

#: Bandwidth assumed for the cluster network level (GB/s); roughly a
#: 100 Gb/s fabric.  Only relevant for jobs spanning machines.
NETWORK_BW = 12.5

#: Host DRAM bandwidth per socket (GB/s); used by the DRAM-contention
#: part of the interference model (the paper measures this with
#: Perfmon2 counters on Power8).
DRAM_BW = 115.0


class LinkType(enum.Enum):
    """Technology of a topology edge."""

    NVLINK = "nvlink"
    PCIE = "pcie"
    XBUS = "xbus"  # inter-socket system bus (QPI / Power8 X-bus)
    NETWORK = "network"
    ONBOARD = "onboard"  # logical parent/child edge inside one component

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Per-lane bandwidth a :class:`LinkSpec` gets when it names none.
_DEFAULT_BANDWIDTH: dict[LinkType, float] = {
    LinkType.NVLINK: NVLINK_LANE_BW,
    LinkType.PCIE: PCIE3_X16_BW,
    LinkType.XBUS: XBUS_BW,
    LinkType.NETWORK: NETWORK_BW,
    LinkType.ONBOARD: 1e9,
}


@dataclass(frozen=True)
class LinkSpec:
    """A concrete link: technology, lane count and derived bandwidth.

    ``bandwidth_gbs`` is the *unidirectional* aggregate bandwidth of the
    link.  ``lanes`` is retained so NVLink dual-lane connections (Power8)
    can be distinguished from single-lane ones (DGX-1 cube mesh).

    Specs are immutable and compare by value, so the factories below
    hand out one shared instance per distinct spec: a fleet build does
    not construct one per edge.
    """

    link_type: LinkType
    lanes: int = 1
    bandwidth_gbs: float = 0.0

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        if self.bandwidth_gbs < 0:
            raise ValueError("bandwidth_gbs must be non-negative")
        if self.bandwidth_gbs == 0.0:
            object.__setattr__(
                self, "bandwidth_gbs", _DEFAULT_BANDWIDTH[self.link_type] * self.lanes
            )

    @staticmethod
    def nvlink(lanes: int = 1) -> "LinkSpec":
        spec = _NVLINK.get(lanes)
        if spec is None:
            spec = _NVLINK[lanes] = LinkSpec(LinkType.NVLINK, lanes=lanes)
        return spec

    @staticmethod
    def pcie() -> "LinkSpec":
        return _PCIE

    @staticmethod
    def xbus() -> "LinkSpec":
        return _XBUS

    @staticmethod
    def network() -> "LinkSpec":
        return _NETWORK

    @staticmethod
    def onboard() -> "LinkSpec":
        return _ONBOARD


#: the factories' shared instances (NVLink ones per lane count, made on
#: first use so an invalid count still raises)
_NVLINK: dict[int, LinkSpec] = {}
_PCIE = LinkSpec(LinkType.PCIE)
_XBUS = LinkSpec(LinkType.XBUS)
_NETWORK = LinkSpec(LinkType.NETWORK)
# Parent/child edges inside a component are not a bandwidth bottleneck
# by themselves; give them effectively-unconstrained bandwidth so only
# real buses constrain the perf model.
_ONBOARD = LinkSpec(LinkType.ONBOARD, bandwidth_gbs=1e9)


#: Default qualitative distance weights per hierarchy level, following
#: Figure 7: "each level right after the GPU level has weight 1, whilst
#: at higher levels, such as the socket level, the edges have weight 20".
#: The absolute values are arbitrary; only larger-at-higher-levels is
#: required by the model.
DEFAULT_LEVEL_WEIGHTS: dict[str, float] = {
    "gpu": 1.0,  # GPU <-> its direct parent (switch or socket), and
    # GPU <-> GPU direct NVLink edges
    "switch": 10.0,  # PCIe/NVLink switch <-> socket
    "socket": 20.0,  # socket <-> machine
    "machine": 100.0,  # machine <-> network
}

"""Constructors for the machine topologies used in the paper.

* :func:`power8_minsky` -- IBM Power8 S822LC "Minsky": 2 sockets,
  2 Tesla P100 per socket, dual-lane NVLink GPU-GPU and CPU-GPU
  intra-socket (Figure 1 left / Figure 7 left).  This is the testbed of
  all prototype experiments.
* :func:`dgx1` -- NVIDIA DGX-1: 8 GPUs in a hybrid cube-mesh of
  single-lane NVLinks, each GPU also behind a PCIe switch (Figure 1
  right / Figure 7 right).
* :func:`power8_pcie_k80` -- the PCIe-gen3/K80 variant used for the
  "same experiments on a PCIe machine" comparison in Section 3.2.
* :func:`machine` -- generic homogeneous machine builder.
* :func:`cluster` -- replicate a machine builder behind a network
  vertex, as in the large-scale simulations (Sections 5.3-5.5).
* :data:`MACHINES` -- the named machine models, and :func:`fleet`, the
  builder of a cluster of one of them; the command line and the
  prototype's ``sys-config.ini`` both select machines through these.

Each named model builds the same machine under every id, so
:func:`cluster` knows that a fleet of one of them shares one shape
without describing each machine (DESIGN.md §9 "Set-up").

Node naming is hierarchical and stable: machine ``m0``, socket
``m0/s1``, switch ``m0/s1/sw0``, GPU ``m0/gpu3``.  GPU indices are
machine-local and match ``CUDA_VISIBLE_DEVICES`` ordering under
``CUDA_DEVICE_ORDER=PCI_BUS_ID`` (Section 5.1).
"""

from __future__ import annotations

from typing import Callable

from repro.topology.graph import NodeKind, TopologyGraph
from repro.topology.links import DEFAULT_LEVEL_WEIGHTS, LinkSpec, LinkType

_W_GPU = DEFAULT_LEVEL_WEIGHTS["gpu"]
_W_SWITCH = DEFAULT_LEVEL_WEIGHTS["switch"]
_W_SOCKET = DEFAULT_LEVEL_WEIGHTS["socket"]
_W_MACHINE = DEFAULT_LEVEL_WEIGHTS["machine"]


def power8_minsky(machine_id: str = "m0") -> TopologyGraph:
    """IBM Power8 S822LC with 4x P100 and dual-lane NVLink (the paper's testbed)."""
    topo = TopologyGraph(name=f"power8-minsky[{machine_id}]")
    topo.add_node(machine_id, NodeKind.MACHINE)
    gpu = 0
    for s in range(2):
        sock = f"{machine_id}/s{s}"
        topo.add_node(sock, NodeKind.SOCKET, machine=machine_id)
        topo.add_edge(sock, machine_id, _W_SOCKET, LinkSpec.xbus())
        socket_gpus = []
        for _ in range(2):
            name = f"{machine_id}/gpu{gpu}"
            topo.add_node(
                name, NodeKind.GPU, machine=machine_id, socket=sock, gpu_index=gpu
            )
            # CPU-to-GPU dual-lane NVLink (40 GB/s unidirectional)
            topo.add_edge(name, sock, _W_GPU, LinkSpec.nvlink(2))
            socket_gpus.append(name)
            gpu += 1
        # GPU-to-GPU dual-lane NVLink within the socket
        topo.add_edge(socket_gpus[0], socket_gpus[1], _W_GPU, LinkSpec.nvlink(2))
    topo.validate()
    return topo


#: Hybrid cube-mesh NVLink edges of the DGX-1 (machine-local GPU indices):
#: the 12 cube edges plus the diagonals of the two socket-local faces,
#: giving every GPU exactly 4 NVLink ports.
DGX1_NVLINK_PAIRS: tuple[tuple[int, int], ...] = (
    # socket-0 face (with diagonals)
    (0, 1),
    (1, 3),
    (3, 2),
    (2, 0),
    (0, 3),
    (1, 2),
    # socket-1 face (with diagonals)
    (4, 5),
    (5, 7),
    (7, 6),
    (6, 4),
    (4, 7),
    (5, 6),
    # cross-socket cube edges
    (0, 4),
    (1, 5),
    (2, 6),
    (3, 7),
)


def dgx1(machine_id: str = "m0") -> TopologyGraph:
    """NVIDIA DGX-1: 8 GPUs, hybrid cube-mesh NVLink + PCIe switches."""
    topo = TopologyGraph(name=f"dgx1[{machine_id}]")
    topo.add_node(machine_id, NodeKind.MACHINE)
    gpu_names: list[str] = []
    gpu = 0
    for s in range(2):
        sock = f"{machine_id}/s{s}"
        topo.add_node(sock, NodeKind.SOCKET, machine=machine_id)
        # inter-socket bus on x86 DGX-1 is QPI (~19.2 GB/s)
        topo.add_edge(
            sock, machine_id, _W_SOCKET, LinkSpec(LinkType.XBUS, bandwidth_gbs=19.2)
        )
        for sw in range(2):
            switch = f"{sock}/sw{sw}"
            topo.add_node(switch, NodeKind.SWITCH, machine=machine_id, socket=sock)
            topo.add_edge(switch, sock, _W_SWITCH, LinkSpec.pcie())
            for _ in range(2):
                name = f"{machine_id}/gpu{gpu}"
                topo.add_node(
                    name, NodeKind.GPU, machine=machine_id, socket=sock, gpu_index=gpu
                )
                topo.add_edge(name, switch, _W_GPU, LinkSpec.pcie())
                gpu_names.append(name)
                gpu += 1
    for a, b in DGX1_NVLINK_PAIRS:
        topo.add_edge(gpu_names[a], gpu_names[b], _W_GPU, LinkSpec.nvlink(1))
    topo.validate()
    return topo


def power8_pcie_k80(machine_id: str = "m0") -> TopologyGraph:
    """Power8 machine with PCIe gen3 and K80 GPUs (Section 3.2 comparison).

    Each K80 board holds two GPU dies behind an on-board PCIe switch, so
    intra-socket peer-to-peer exists but runs at PCIe speed.
    """
    topo = TopologyGraph(name=f"power8-pcie-k80[{machine_id}]")
    topo.add_node(machine_id, NodeKind.MACHINE)
    gpu = 0
    for s in range(2):
        sock = f"{machine_id}/s{s}"
        topo.add_node(sock, NodeKind.SOCKET, machine=machine_id)
        topo.add_edge(sock, machine_id, _W_SOCKET, LinkSpec.xbus())
        switch = f"{sock}/sw0"
        topo.add_node(switch, NodeKind.SWITCH, machine=machine_id, socket=sock)
        topo.add_edge(switch, sock, _W_SWITCH, LinkSpec.pcie())
        for _ in range(2):
            name = f"{machine_id}/gpu{gpu}"
            topo.add_node(
                name, NodeKind.GPU, machine=machine_id, socket=sock, gpu_index=gpu
            )
            topo.add_edge(name, switch, _W_GPU, LinkSpec.pcie())
            gpu += 1
    topo.validate()
    return topo


def power9_ac922(machine_id: str = "m0") -> TopologyGraph:
    """IBM Power9 AC922 (Summit node): 2 sockets x 3 V100, NVLink 2.0.

    Not evaluated in the paper (it predates the machine) but the natural
    next-generation target: NVLink 2.0 lanes run at 25 GB/s and each
    CPU-GPU / GPU-GPU connection aggregates three of them (75 GB/s).
    """
    nvlink2_triple = LinkSpec(LinkType.NVLINK, lanes=3, bandwidth_gbs=75.0)
    topo = TopologyGraph(name=f"power9-ac922[{machine_id}]")
    topo.add_node(machine_id, NodeKind.MACHINE)
    gpu = 0
    for s in range(2):
        sock = f"{machine_id}/s{s}"
        topo.add_node(sock, NodeKind.SOCKET, machine=machine_id)
        topo.add_edge(sock, machine_id, _W_SOCKET, LinkSpec(LinkType.XBUS, bandwidth_gbs=64.0))
        names = []
        for _ in range(3):
            name = f"{machine_id}/gpu{gpu}"
            topo.add_node(
                name, NodeKind.GPU, machine=machine_id, socket=sock, gpu_index=gpu
            )
            topo.add_edge(name, sock, _W_GPU, nvlink2_triple)
            names.append(name)
            gpu += 1
        # the three socket-local GPUs form an NVLink triangle
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                topo.add_edge(a, b, _W_GPU, nvlink2_triple)
    topo.validate()
    return topo


def dgx2(machine_id: str = "m0") -> TopologyGraph:
    """NVIDIA DGX-2: 16 GPUs behind a full-bandwidth NVSwitch fabric.

    Every GPU pair communicates P2P through the NVSwitch plane at full
    NVLink2 bandwidth, so the whole machine is one P2P island -- the
    degenerate case where pack-vs-spread stops mattering *within* the
    machine and only host locality (socket PCIe uplinks) remains.
    """
    nvswitch_port = LinkSpec(LinkType.NVLINK, lanes=6, bandwidth_gbs=150.0)
    topo = TopologyGraph(name=f"dgx2[{machine_id}]")
    topo.add_node(machine_id, NodeKind.MACHINE)
    fabric = f"{machine_id}/nvswitch"
    topo.add_node(fabric, NodeKind.SWITCH, machine=machine_id)
    # baseboard attachment: high weight so no GPU<->host path ever
    # shortcuts through the fabric (host traffic uses the PCIe uplinks)
    topo.add_edge(fabric, machine_id, _W_MACHINE, LinkSpec.onboard())
    gpu = 0
    for s in range(2):
        sock = f"{machine_id}/s{s}"
        topo.add_node(sock, NodeKind.SOCKET, machine=machine_id)
        topo.add_edge(
            sock, machine_id, _W_SOCKET, LinkSpec(LinkType.XBUS, bandwidth_gbs=20.8)
        )
        for _ in range(8):
            name = f"{machine_id}/gpu{gpu}"
            topo.add_node(
                name, NodeKind.GPU, machine=machine_id, socket=sock, gpu_index=gpu
            )
            topo.add_edge(name, fabric, _W_GPU, nvswitch_port)
            # host traffic goes over PCIe to the owning socket
            topo.add_edge(name, sock, _W_SWITCH, LinkSpec.pcie())
            gpu += 1
    topo.validate()
    return topo


def machine(
    machine_id: str = "m0",
    *,
    sockets: int = 2,
    gpus_per_socket: int = 2,
    gpu_link: LinkSpec | None = None,
    peer_link: LinkSpec | None = None,
) -> TopologyGraph:
    """Generic homogeneous machine.

    ``gpu_link`` connects each GPU to its socket; ``peer_link`` (if not
    ``None``) forms a clique of direct GPU-GPU links inside each socket.
    Defaults model a Minsky-like dual-NVLink machine.
    """
    if sockets < 1 or gpus_per_socket < 1:
        raise ValueError("sockets and gpus_per_socket must be >= 1")
    gpu_link = gpu_link or LinkSpec.nvlink(2)
    topo = TopologyGraph(name=f"machine[{machine_id}]")
    topo.add_node(machine_id, NodeKind.MACHINE)
    gpu = 0
    for s in range(sockets):
        sock = f"{machine_id}/s{s}"
        topo.add_node(sock, NodeKind.SOCKET, machine=machine_id)
        topo.add_edge(sock, machine_id, _W_SOCKET, LinkSpec.xbus())
        names = []
        for _ in range(gpus_per_socket):
            name = f"{machine_id}/gpu{gpu}"
            topo.add_node(
                name, NodeKind.GPU, machine=machine_id, socket=sock, gpu_index=gpu
            )
            topo.add_edge(name, sock, _W_GPU, gpu_link)
            names.append(name)
            gpu += 1
        if peer_link is not None:
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    topo.add_edge(a, b, _W_GPU, peer_link)
    topo.validate()
    return topo


def cluster(
    n_machines: int,
    builder: Callable[[str], TopologyGraph] = power8_minsky,
    *,
    network_name: str = "net",
    network_link: LinkSpec | None = None,
) -> TopologyGraph:
    """A cluster of ``n_machines`` identical machines behind one network.

    The large-scale simulations of the paper (Section 5.5) use
    homogeneous clusters of the Minsky machine; ``builder`` may be any
    per-machine constructor taking a machine id.

    When ``builder`` is one of the named models (:data:`MACHINES`),
    every machine is the same build under its own id with the same
    uplink, so one machine is described and its shape id entered for
    the others; any other builder's machines keep lazy ids
    (:meth:`TopologyGraph.machine_shape_id`).  DESIGN.md §9 "Set-up"
    argues exactness.
    """
    if n_machines < 1:
        raise ValueError("n_machines must be >= 1")
    network_link = network_link or LinkSpec.network()
    topo = TopologyGraph(name=f"cluster[{n_machines}x]")
    machines = [f"m{i}" for i in range(n_machines)]
    topo.add_node(network_name, NodeKind.NETWORK)
    for mid in machines:
        topo.merge(builder(mid))
        topo.add_edge(mid, network_name, _W_MACHINE, network_link)
    topo.validate()
    if any(builder is named for named in MACHINES.values()):
        # a network named under a machine's prefix is that machine's own node
        twins = [m for m in machines if not network_name.startswith(m + "/")]
        if twins:
            shape_id = topo.machine_shape_id(twins[0])
            topo._caches.shape_ids.update(dict.fromkeys(twins, shape_id))
    return topo


#: machine model name -> per-machine builder
MACHINES: dict[str, Callable[[str], TopologyGraph]] = {
    "power8-minsky": power8_minsky,
    "dgx1": dgx1,
    "dgx2": dgx2,
    "power8-pcie-k80": power8_pcie_k80,
    "power9-ac922": power9_ac922,
}


def fleet(model: str, n_machines: int = 1) -> Callable[[], TopologyGraph]:
    """Builder of ``n_machines`` machines of the named ``model`` (one
    machine alone, or a :func:`cluster` of them); raises ``KeyError``
    for a name not in :data:`MACHINES`."""
    base = MACHINES[model]
    if n_machines == 1:
        return base
    return lambda: cluster(n_machines, base)

"""Topology discovery interchange formats.

The paper's prototype discovers the hardware at startup by running
``nvidia-smi topo --matrix`` (GPU-to-GPU connectivity) and
``numactl --hardware`` (socket distances / CPU locality) and building
its physical graph from their output (Section 5.1).  We have no GPUs
here, so this module provides the *same code path* both ways:

* :func:`render_topo_matrix` / :func:`render_numactl_hardware` produce
  the textual output those tools would print for a given
  :class:`~repro.topology.graph.TopologyGraph`;
* :func:`parse_topo_matrix` / :func:`parse_numactl_hardware` and
  :func:`topology_from_matrix` rebuild a topology graph from such text.

Connection codes follow nvidia-smi conventions:

====  =====================================================
X     self
NV#   direct NVLink with # aggregated lanes
PIX   same PCIe switch
PHB   same socket, path through the host bridge / CPU
SYS   across sockets (traversing the SMP interconnect)
NET   across machines (traversing the network)
====  =====================================================
"""

from __future__ import annotations

import re

from repro.topology.graph import NodeKind, TopologyGraph, TopologyError
from repro.topology.links import DEFAULT_LEVEL_WEIGHTS, LinkSpec, LinkType


def _pair_code(topo: TopologyGraph, a: str, b: str) -> str:
    """nvidia-smi-style connection code for a GPU pair."""
    na, nb = topo.node(a), topo.node(b)
    try:
        edge = topo.edge(a, b)
    except TopologyError:
        edge = None
    if edge is not None and edge.spec.link_type is LinkType.NVLINK:
        return f"NV{edge.spec.lanes}"
    if na.machine != nb.machine:
        return "NET"
    if na.socket != nb.socket:
        return "SYS"
    # same socket: same switch -> PIX, otherwise through host bridge
    path = topo.shortest_path(a, b)
    kinds = {topo.node(p).kind for p in path[1:-1]}
    if kinds == {NodeKind.SWITCH}:
        return "PIX"
    return "PHB"


def render_topo_matrix(topo: TopologyGraph, machine: str | None = None) -> str:
    """Render the ``nvidia-smi topo --matrix`` table for one machine."""
    machines = topo.machines()
    if machine is None:
        if len(machines) != 1:
            raise TopologyError(
                "machine must be given explicitly for multi-machine topologies"
            )
        machine = machines[0]
    gpus = topo.gpus(machine=machine)
    if not gpus:
        raise TopologyError(f"machine {machine!r} has no GPUs")
    labels = [f"GPU{topo.gpu_index_of(g)}" for g in gpus]
    sockets = topo.sockets(machine=machine)
    cpu_ranges = {s: f"{8 * i}-{8 * (i + 1) - 1}" for i, s in enumerate(sockets)}

    rows = ["\t".join([""] + labels + ["CPU Affinity"])]
    for g, label in zip(gpus, labels):
        cells = [label]
        for h in gpus:
            cells.append("X" if g == h else _pair_code(topo, g, h))
        cells.append(cpu_ranges[topo.socket_of(g)])
        rows.append("\t".join(cells))
    return "\n".join(rows) + "\n"


def parse_topo_matrix(text: str) -> dict[tuple[int, int], str]:
    """Parse a topo matrix into ``{(i, j): code}`` with ``i != j``.

    Also returns CPU-affinity groupings encoded as ``(i, i) -> affinity``
    entries so socket membership can be reconstructed.
    """
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise TopologyError("empty topo matrix")
    header = lines[0].split()
    gpu_labels = [h for h in header if h.startswith("GPU")]
    n = len(gpu_labels)
    if n == 0:
        raise TopologyError("topo matrix header has no GPU columns")
    out: dict[tuple[int, int], str] = {}
    for line in lines[1:]:
        cells = line.split()
        if not cells[0].startswith("GPU"):
            continue
        i = int(cells[0][3:])
        row = cells[1 : 1 + n]
        if len(row) != n:
            raise TopologyError(f"row GPU{i} has {len(row)} cells, expected {n}")
        for j, code in enumerate(row):
            if i == j:
                if code != "X":
                    raise TopologyError(f"diagonal of GPU{i} is {code!r}, expected X")
                continue
            out[(i, j)] = code
        if len(cells) > 1 + n:
            out[(i, i)] = cells[1 + n]
    return out


def topology_from_matrix(
    text: str,
    machine_id: str = "m0",
    *,
    cpu_link: LinkSpec | None = None,
) -> TopologyGraph:
    """Rebuild a single-machine topology graph from a topo matrix.

    Socket membership comes from the CPU-affinity column (falling back
    to SYS-relation clustering when absent); PIX pairs are grouped under
    per-socket switches; NV# codes become direct GPU-GPU NVLink edges.
    ``cpu_link`` is the GPU/switch uplink spec (the matrix cannot reveal
    it; defaults to PCIe).
    """
    cpu_link = cpu_link or LinkSpec.pcie()
    matrix = parse_topo_matrix(text)
    gpu_ids = sorted({i for (i, j) in matrix if i == j} | {i for (i, j) in matrix} | {j for (_, j) in matrix})
    n = max(gpu_ids) + 1 if gpu_ids else 0
    if n == 0:
        raise TopologyError("no GPUs in matrix")

    # --- socket grouping -------------------------------------------------
    affinities = {i: matrix.get((i, i)) for i in range(n)}
    if all(a is not None for a in affinities.values()):
        groups: dict[str, list[int]] = {}
        for i in range(n):
            groups.setdefault(str(affinities[i]), []).append(i)
        socket_members = [sorted(v) for _, v in sorted(groups.items(), key=lambda kv: kv[1])]
    else:
        # union-find over non-SYS relations
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (i, j), code in matrix.items():
            if i != j and code not in ("SYS", "NET"):
                parent[find(i)] = find(j)
        comp: dict[int, list[int]] = {}
        for i in range(n):
            comp.setdefault(find(i), []).append(i)
        socket_members = [sorted(v) for v in comp.values()]
        socket_members.sort()

    topo = TopologyGraph(name=f"discovered[{machine_id}]")
    topo.add_node(machine_id, NodeKind.MACHINE)
    w_gpu = DEFAULT_LEVEL_WEIGHTS["gpu"]
    w_switch = DEFAULT_LEVEL_WEIGHTS["switch"]
    w_socket = DEFAULT_LEVEL_WEIGHTS["socket"]

    gpu_name = {i: f"{machine_id}/gpu{i}" for i in range(n)}
    for s, members in enumerate(socket_members):
        sock = f"{machine_id}/s{s}"
        topo.add_node(sock, NodeKind.SOCKET, machine=machine_id)
        topo.add_edge(sock, machine_id, w_socket, LinkSpec.xbus())
        # PIX pairs share a switch: union-find within the socket
        parent = {i: i for i in members}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in members:
            for j in members:
                if i < j and matrix.get((i, j)) == "PIX":
                    parent[find(i)] = find(j)
        clusters: dict[int, list[int]] = {}
        for i in members:
            clusters.setdefault(find(i), []).append(i)
        sw_idx = 0
        for _, cluster_members in sorted(clusters.items(), key=lambda kv: min(kv[1])):
            if len(cluster_members) > 1:
                switch = f"{sock}/sw{sw_idx}"
                sw_idx += 1
                topo.add_node(switch, NodeKind.SWITCH, machine=machine_id, socket=sock)
                topo.add_edge(switch, sock, w_switch, LinkSpec.pcie())
                attach = switch
            else:
                attach = sock
            for i in sorted(cluster_members):
                topo.add_node(
                    gpu_name[i], NodeKind.GPU, machine=machine_id, socket=sock, gpu_index=i
                )
                topo.add_edge(gpu_name[i], attach, w_gpu, cpu_link)

    # --- NVLink edges ----------------------------------------------------
    for (i, j), code in matrix.items():
        if i < j and code.startswith("NV"):
            lanes = int(code[2:]) if code[2:] else 1
            topo.add_edge(gpu_name[i], gpu_name[j], w_gpu, LinkSpec.nvlink(lanes))
    topo.validate()
    return topo


# ---------------------------------------------------------------------------
# numactl --hardware
# ---------------------------------------------------------------------------

def render_numactl_hardware(
    topo: TopologyGraph,
    machine: str | None = None,
    *,
    cores_per_socket: int = 8,
    mem_mb_per_socket: int = 262144,
) -> str:
    """Render ``numactl --hardware``-style output for one machine."""
    machines = topo.machines()
    if machine is None:
        if len(machines) != 1:
            raise TopologyError(
                "machine must be given explicitly for multi-machine topologies"
            )
        machine = machines[0]
    sockets = topo.sockets(machine=machine)
    n = len(sockets)
    lines = [f"available: {n} nodes (0-{n - 1})"]
    for i in range(n):
        cpus = " ".join(str(c) for c in range(i * cores_per_socket, (i + 1) * cores_per_socket))
        lines.append(f"node {i} cpus: {cpus}")
        lines.append(f"node {i} size: {mem_mb_per_socket} MB")
    lines.append("node distances:")
    lines.append("node " + "  ".join(f"{i:>3}" for i in range(n)))
    for i, si in enumerate(sockets):
        row = []
        for j, sj in enumerate(sockets):
            if i == j:
                row.append(10)
            else:
                # numactl convention: local=10, remote scaled by distance
                row.append(int(10 + topo.distance(si, sj)))
        lines.append(f"{i:>4}: " + "  ".join(f"{d:>3}" for d in row))
    return "\n".join(lines) + "\n"


def parse_numactl_hardware(text: str) -> dict:
    """Parse numactl output into node count, cpus and the distance matrix."""
    nodes = 0
    cpus: dict[int, list[int]] = {}
    distances: list[list[int]] = []
    in_dist = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        m = re.match(r"available:\s+(\d+)\s+nodes", line)
        if m:
            nodes = int(m.group(1))
            continue
        m = re.match(r"node\s+(\d+)\s+cpus:\s*(.*)", line)
        if m:
            cpus[int(m.group(1))] = [int(c) for c in m.group(2).split()]
            continue
        if line.startswith("node distances"):
            in_dist = True
            continue
        if in_dist:
            m = re.match(r"(\d+):\s*(.*)", line)
            if m:
                distances.append([int(d) for d in m.group(2).split()])
    if nodes == 0:
        raise TopologyError("could not parse numactl output")
    if distances and (len(distances) != nodes or any(len(r) != nodes for r in distances)):
        raise TopologyError("numactl distance matrix shape mismatch")
    return {"nodes": nodes, "cpus": cpus, "distances": distances}

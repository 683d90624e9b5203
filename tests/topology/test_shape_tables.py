"""Machine-shape tables: a scoped answer is stored once per shape and
must equal the search on the machine that asks, whichever machine of
that shape filled the table.  The shape ids :func:`cluster` enters at
build time must be the ids a lazy description gives, and the fleet-wide
facts read from shapes must equal the whole-fleet walks they replace."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.scenarios import scenario2_jobs
from repro.core.utility import _pair_distance_bounds
from repro.schedulers import make_scheduler
from repro.sim.engine import Simulator
from repro.topology.builders import (
    MACHINES,
    cluster,
    dgx1,
    machine,
    power8_minsky,
    power8_pcie_k80,
)
from repro.topology.graph import NodeKind, TopologyError, TopologyGraph
from repro.topology.links import LinkSpec, LinkType

def tuned(weight, bandwidth):
    """Builder of a one-socket, three-GPU machine whose ``gpu0`` uplink
    has the given weight and bandwidth: machines that differ only there
    route ``gpu0 -> gpu1`` differently (through the socket when the
    uplink is light, over the NVLink when it is heavy)."""

    def build(mid):
        topo = TopologyGraph(mid)
        sock = f"{mid}/s0"
        topo.add_node(mid, NodeKind.MACHINE)
        topo.add_node(sock, NodeKind.SOCKET, machine=mid)
        topo.add_edge(sock, mid, 20.0, LinkSpec.xbus())
        for i in range(3):
            gpu = f"{mid}/gpu{i}"
            topo.add_node(gpu, NodeKind.GPU, machine=mid, socket=sock, gpu_index=i)
            spec = LinkSpec(LinkType.PCIE, bandwidth_gbs=bandwidth) if i == 0 else LinkSpec.pcie()
            topo.add_edge(gpu, sock, weight if i == 0 else 1.0, spec)
        topo.add_edge(f"{mid}/gpu0", f"{mid}/gpu1", 3.0, LinkSpec.nvlink(1))
        return topo

    return build


#: one fleet machine per draw; ``machine(...)`` and ``tuned(...)``
#: with drawn parameters
MACHINE_KINDS = st.one_of(
    st.sampled_from([power8_minsky, dgx1, power8_pcie_k80]),
    st.builds(tuned, st.sampled_from([1.0, 5.0]), st.sampled_from([16.0, 8.0])),
    st.builds(
        lambda sockets, per_socket, peer: lambda mid: machine(
            mid,
            sockets=sockets,
            gpus_per_socket=per_socket,
            peer_link=LinkSpec.nvlink(1) if peer else None,
        ),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
    ),
)


#: MACHINE_KINDS plus machines with fractional uplink weights, whose
#: path sums round differently in different orders
WEIGHTED_KINDS = st.one_of(
    MACHINE_KINDS,
    st.builds(tuned, st.sampled_from([0.1, 0.7, 2.9]), st.sampled_from([16.0, 8.0])),
)


def build(kinds, network_name="net"):
    return cluster(
        len(kinds), lambda mid: kinds[int(mid[1:])](mid), network_name=network_name
    )


def uncached(topo, m, u, v):
    """Every scoped answer for ``u -> v`` on machine ``m``, searched
    directly (an error stands for a disconnected pair)."""

    def attempt(f):
        try:
            return f()
        except (TopologyError, KeyError):
            return "disconnected"

    if u == v:
        return (0.0, (u,), float("inf"), True)
    path = attempt(lambda: topo._search_path(u, v, {m}))
    return (
        attempt(lambda: topo._dijkstra(u, {m})[v]),
        path,
        attempt(lambda: topo._widest_from(u, {m})[v]),
        path == "disconnected" or topo._p2p_along(path),
    )


def cached(topo, u, v):
    def attempt(f):
        try:
            return f()
        except TopologyError:
            return "disconnected"

    path = attempt(lambda: topo.shortest_path(u, v))
    return (
        attempt(lambda: topo.distance(u, v)),
        path,
        attempt(lambda: topo.bottleneck_bandwidth(u, v)),
        path == "disconnected" or topo.p2p_connected(u, v),
    )


def reference_islands(topo, m):
    """``_scan_p2p_islands`` with every P2P test searched directly."""
    sizes = []
    for sock in topo.sockets(m):
        remaining = set(topo.gpus(socket=sock))
        while remaining:
            seed = min(remaining)
            island = {seed}
            for g in sorted(remaining - {seed}):
                if all(uncached(topo, m, g, x)[3] for x in island):
                    island.add(g)
            sizes.append(len(island))
            remaining -= island
    return sorted(sizes, reverse=True)


def members(topo, m):
    return [m, *(n.name for n in topo.nodes() if n.machine == m)]


@settings(max_examples=20, deadline=None)
@given(st.lists(MACHINE_KINDS, min_size=2, max_size=5))
def test_shape_tables_equal_the_search_on_every_machine(kinds):
    """Every scoped distance, path, widest-path bandwidth, P2P flag and
    island list equals the direct search, for each machine, in two
    query orders: machines first to last over one graph, and last to
    first (pairs reversed too) over another, so each table is filled by
    a different machine of its shape where the fleet repeats one."""
    for order in (1, -1):
        topo = build(kinds)
        for m in topo.machines()[::order]:
            names = members(topo, m)[::order]
            for u in names:
                for v in names:
                    assert cached(topo, u, v) == uncached(topo, m, u, v)
            assert topo.p2p_island_sizes(m) == reference_islands(topo, m)
        fleet = sorted(
            (s for m in topo.machines() for s in reference_islands(topo, m)),
            reverse=True,
        )
        assert topo.p2p_island_sizes() == fleet
        shapes = {m: topo.machine_shape(m) for m in topo.machines()}
        for a in shapes:
            for b in shapes:
                same_id = topo.machine_shape_id(a) == topo.machine_shape_id(b)
                assert same_id == (shapes[a] == shapes[b])


def test_a_fleet_of_twins_searches_once_per_shape(monkeypatch):
    topo = cluster(6)
    searches = []  # (search, the machines it may enter)
    for name, scope in (("_dijkstra", 1), ("_widest_from", 1), ("_search_path", 2)):
        real = getattr(topo, name)
        monkeypatch.setattr(
            topo, name, lambda *a, _real=real, _name=name, _at=scope: (
                searches.append((_name, a[_at])), _real(*a)
            )[1]
        )
    shapes = []
    monkeypatch.setattr(
        topo, "machine_shape", lambda m, _real=topo.machine_shape: (
            shapes.append(m), _real(m)
        )[1]
    )
    for m in topo.machines():
        gpus = topo.gpus(machine=m)
        for u in gpus:
            for v in gpus:
                topo.distance(u, v)
                topo.bottleneck_bandwidth(u, v)
                topo.p2p_connected(u, v)
        topo.p2p_island_sizes(m)
    topo.p2p_island_sizes()
    # one machine's worth of searches, each scoped to that machine: 4
    # sources each for distances and widths, 12 ordered pairs for paths
    # (each a Dijkstra of its own)
    assert sorted(name for name, _ in searches) == sorted(
        ["_dijkstra"] * (4 + 12) + ["_widest_from"] * 4 + ["_search_path"] * 12
    )
    assert all(machines == {"m0"} for _, machines in searches)
    # cluster() entered every twin's shape id when it built the fleet
    assert shapes == []


def test_divergent_twin():
    """Mutating one of two equal machines gives it a new shape id and
    new answers where the new edge matters; its twin keeps its answers,
    and an id issued before the mutation keeps naming its shape."""
    topo = cluster(2)
    a, b = "m0", "m1"
    pair = ("gpu0", "gpu2")  # on different sockets: no P2P at first

    def answers(m):
        u, v = (f"{m}/{g}" for g in pair)
        path = tuple(
            "" if n == m else n.removeprefix(f"{m}/")
            for n in topo.shortest_path(u, v)
        )
        return (
            topo.distance(u, v),
            path,
            topo.bottleneck_bandwidth(u, v),
            topo.p2p_connected(u, v),
            topo.p2p_island_sizes(m),
        )

    before = answers(a)
    assert answers(b) == before
    old_id = topo.machine_shape_id(a)
    assert topo.machine_shape_id(b) == old_id
    old_shape = topo.machine_shape(a)

    topo.add_edge(f"{b}/gpu0", f"{b}/gpu2", 1.0, LinkSpec.nvlink(2))

    new_id = topo.machine_shape_id(b)
    assert new_id != old_id
    assert topo.machine_shape_id(a) == old_id
    after = answers(b)
    assert after[0] < before[0]
    assert after[1] == pair
    assert after[2] > before[2]
    assert after[3] and not before[3]
    assert after[4] == before[4]  # islands are per socket: no change
    assert answers(a) == before
    # the id table only grows: ids name the shapes they were issued for
    assert topo._shape_ids[old_shape] == old_id
    assert topo._shape_ids[topo.machine_shape(b)] == new_id
    # a third machine of the original shape is issued the old id
    topo.merge(power8_minsky("m2"))
    topo.add_edge("m2", "net", 100.0, LinkSpec.network())
    assert topo.machine_shape_id("m2") == old_id
    assert answers("m2") == before


def test_shape_id_is_only_for_machines():
    topo = cluster(2)
    with pytest.raises(TopologyError):
        topo.machine_shape_id("m0/gpu0")
    with pytest.raises(TopologyError):
        topo.machine_shape_id("nope")
    assert topo.machine_relative(["m0/gpu0", "m1/gpu0"]) is None
    assert topo.machine_relative(["m0/gpu1", "m0/gpu0"]) == (
        topo.machine_shape_id("m0"), ("gpu1", "gpu0")
    )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(sorted(MACHINES)),
    st.lists(MACHINE_KINDS, min_size=1, max_size=6),
    st.sampled_from(["net", "m1/net", "m0/gpu0x"]),
)
def test_build_time_ids_equal_lazily_described_ids(model, kinds, network_name):
    """A fleet of a named model gets an id entered for every machine
    but one whose prefix holds the network name; a fleet whose builder
    mixes named models and custom machines gets none.  Each entered id
    is the one a description gives, and the fleet-wide island list
    read per shape is the concatenation of every machine's."""
    named = cluster(len(kinds), MACHINES[model], network_name=network_name)
    assert sorted(named._caches.shape_ids) == sorted(
        f"m{i}" for i in range(len(kinds)) if not network_name.startswith(f"m{i}/")
    )
    mixed = build(kinds, network_name)
    assert mixed._caches.shape_ids == {}
    for topo in (named, mixed):
        entered = dict(topo._caches.shape_ids)
        fleet = topo.p2p_island_sizes()
        topo._caches.shape_ids.clear()
        shapes = {m: topo.machine_shape(m) for m in topo.machines()}
        for m, shape_id in entered.items():
            assert topo.machine_shape_id(m) == shape_id
            assert all(
                (shapes[m] == shapes[other]) == (shape_id == topo.machine_shape_id(other))
                for other in shapes
            )
        assert fleet == sorted(
            (s for m in topo.machines() for s in reference_islands(topo, m)),
            reverse=True,
        )


@settings(max_examples=15, deadline=None)
@given(st.lists(WEIGHTED_KINDS, min_size=2, max_size=5))
def test_point_distance_equals_the_whole_graph_search(kinds):
    """Between any two nodes, in one machine or two, the point-to-point
    search gives the whole-graph search's float (compared with ``==``),
    and ``_pair_distance_bounds`` with it the bounds it gave with the
    whole-graph search."""
    topo = build(kinds)
    names = [n.name for n in topo.nodes()]
    for u in names:
        row = topo._dijkstra(u)
        for v in names:
            try:
                got = topo.point_distance(u, v)
            except TopologyError:
                got = "disconnected"
            assert got == row.get(v, "disconnected"), (u, v)
    bounds = _pair_distance_bounds(topo)
    topo.point_distance = lambda u, v: topo._dijkstra(u)[v]
    assert bounds == _pair_distance_bounds(topo)


def test_a_fleet_simulation_describes_each_shape_once(monkeypatch):
    """A TOPO-AWARE-P simulation on ``cluster(64)`` describes the fleet's
    one shape once, at build time, and runs no whole-graph search.  The
    only other graph described is the profile database's own Minsky
    machine, when this process has not built the database yet."""
    described, unscoped = [], []
    real_shape, real_dijkstra = TopologyGraph.machine_shape, TopologyGraph._dijkstra

    def machine_shape(self, machine):
        described.append(self)
        return real_shape(self, machine)

    def dijkstra(self, source, machines=None, prev=None, target=None):
        if machines is None:
            unscoped.append(source)
        return real_dijkstra(self, source, machines, prev, target)

    monkeypatch.setattr(TopologyGraph, "machine_shape", machine_shape)
    monkeypatch.setattr(TopologyGraph, "_dijkstra", dijkstra)
    topo = cluster(64)
    assert described == [topo]
    jobs = scenario2_jobs(150, 64, seed=5)
    assert any(job.requires_p2p for job in jobs)
    result = Simulator(topo, make_scheduler("TOPO-AWARE-P"), jobs).run()
    assert all(record.terminal for record in result.records)
    assert described.count(topo) == 1
    assert len(described) <= 2
    assert unscoped == []

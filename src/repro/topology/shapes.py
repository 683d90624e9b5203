"""Machine shapes: when two machines answer every local query alike.

A machine's shape (:func:`describe`) is its local subgraph with names
made relative to the machine (:func:`relative`).  Two machines of equal
shape give corresponding answers to every search scoped to one machine,
so :class:`~repro.topology.graph.TopologyGraph` stores those answers
once per shape, keyed by shape id and relative names, and translates
them back with :func:`absolute`.  DESIGN.md §9 "Machine-shape tables" argues
exactness.
"""

from __future__ import annotations


def relative(name: str | None, machine: str, prefix: str):
    """``name`` relative to ``machine`` (``prefix`` is ``machine + "/"``):
    the part after the prefix, ``None`` for the machine node itself,
    and ``("=", name)`` for any other name, which is kept whole."""
    if name is not None and name.startswith(prefix):
        return name[len(prefix):]
    if name == machine:
        return None
    return ("=", name)


def absolute(rel, machine: str, prefix: str) -> str:
    """Inverse of :func:`relative`."""
    if type(rel) is str:
        return prefix + rel
    return machine if rel is None else rel[1]


def describe(nodes: dict, adj: dict, machine: str, members: list[str]) -> tuple:
    """The shape of ``machine``, whose node and owned nodes are
    ``members`` (see :meth:`TopologyGraph.machine_shape`).

    Kinds and link specs enter by value (``NodeKind``, ``LinkType``,
    lanes, bandwidth), which tells them apart exactly as the objects do
    and hashes in C.
    """
    prefix = machine + "/"
    entries = []
    for name in members:
        node = nodes[name]
        entries.append((
            relative(name, machine, prefix),
            node.kind._value_,
            relative(node.socket, machine, prefix),
            node.gpu_index,
            tuple([
                (
                    relative(v, machine, prefix),
                    nodes[v].kind._value_,
                    edge.weight,
                    edge.spec.link_type._value_,
                    edge.spec.lanes,
                    edge.spec.bandwidth_gbs,
                )
                for v, edge in adj[name].items()
            ]),
        ))
    return tuple(entries)


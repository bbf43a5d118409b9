"""A fixed reference computation that measures how fast the CPU runs right now.

On a shared host the same op can take three times as long from one minute to
the next, because other tenants share the physical core and its caches.  The
harness times this computation right before and right after every op and
every set-up, and reports each of their times at reference speed:
``seconds * REFERENCE_S / calibration_seconds``.  On an idle CPU of the
machine this benchmark was written on, that is the measured time itself.

The computation is a plain-Python Borůvka MST (union-find over slotted node
objects, per-round minimum outgoing edges, 64-bit XOR sketch words) over a
fixed random graph, followed by a mix of standard-library work (JSON, a
regular expression, dataclasses, sorting with a key, ``Counter``, modular
powers, string formatting).  That is the kind of interpreter work the
program does, over about as many distinct code paths, and under contention
it slows by nearly as much as the program's ops do; a tight loop or a
heap-based Prim alone slows by only about half as much.  It imports nothing
from the program, so no change to the program can move it.
"""

from __future__ import annotations

import json
import random
import re
import time
from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["REFERENCE_S", "calibrate"]

#: CPU seconds of one :func:`calibrate` on an idle core of a 2.0 GHz Xeon
#: vCPU (2-core VM, Python 3.11): the lowest of a minute of runs.
REFERENCE_S = 0.00333

NODES = 250
EDGES = 1250
MASK = (1 << 64) - 1


def _edges(seed: int = 12345) -> List[Tuple[int, int, int]]:
    rng = random.Random(seed)
    edges = [(rng.randrange(1 << 40), node, rng.randrange(node)) for node in range(1, NODES)]
    while len(edges) < EDGES:
        u, v = rng.randrange(NODES), rng.randrange(NODES)
        if u != v:
            edges.append((rng.randrange(1 << 40), u, v))
    return edges


EDGE_LIST = _edges()


class _Node:
    __slots__ = ("id", "parent", "rank", "edges")

    def __init__(self, node: int) -> None:
        self.id = node
        self.parent = self
        self.rank = 0
        self.edges: List[Tuple[int, int, int]] = []


def _find(node: _Node) -> _Node:
    while node.parent is not node:
        node.parent = node.parent.parent
        node = node.parent
    return node


def _boruvka() -> Tuple[int, int]:
    """Components left (1) and the XOR of every outgoing-edge word seen."""
    nodes = [_Node(node) for node in range(NODES)]
    for weight, u, v in EDGE_LIST:
        nodes[u].edges.append((weight, u, v))
        nodes[v].edges.append((weight, v, u))
    components, sketch = NODES, 0
    while components > 1:
        lightest = {}
        for node in nodes:
            root = _find(node)
            for weight, u, v in node.edges:
                if _find(nodes[v]) is not root:
                    sketch ^= (weight * 0x9E3779B97F4A7C15) & MASK
                    best = lightest.get(root.id)
                    if best is None or weight < best[0]:
                        lightest[root.id] = (weight, u, v)
        for weight, u, v in lightest.values():
            a, b = _find(nodes[u]), _find(nodes[v])
            if a is not b:
                if a.rank < b.rank:
                    a, b = b, a
                b.parent = a
                a.rank += a.rank == b.rank
                components -= 1
    return components, sketch


_RNG = random.Random(54321)
DOCUMENT = {
    "nodes": [{"id": node, "weight": _RNG.random(), "tags": [f"t{node % 7}", "x"]} for node in range(150)]
}
TEXT = " ".join(f"n{node}->{node * 7 % 300}:{_RNG.random():.3f}" for node in range(300))
PATTERN = re.compile(r"n(\d+)->(\d+):([0-9.]+)")


@dataclass
class _Edge:
    u: int
    v: int
    weight: float


def _mixed() -> int:
    """Standard-library work over fixed inputs; returns a checksum."""
    document = json.loads(json.dumps(DOCUMENT))
    edges = [_Edge(int(u), int(v), float(w)) for u, v, w in PATTERN.findall(TEXT)]
    edges.sort(key=lambda edge: (edge.weight, edge.u))
    degrees = Counter(edge.v % 17 for edge in edges)
    word = 0
    for edge in edges:
        word ^= pow(edge.u + 3, 65537, (1 << 61) - 1)
    summary = ",".join(f"{key}:{count}" for key, count in sorted(degrees.items()))
    return len(document["nodes"]) + len(summary) + (word & 1)


def calibrate() -> float:
    """CPU seconds of one run of the reference computation."""
    begin = time.process_time()
    components, _ = _boruvka()
    _mixed()
    elapsed = time.process_time() - begin
    if components != 1:
        raise RuntimeError("the calibration graph is not connected")
    return elapsed

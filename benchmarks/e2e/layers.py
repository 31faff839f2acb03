"""Charge a cProfile run's host time to the repro layer that spent it.

A function defined under ``src/repro/<package>/`` belongs to that
package's layer; the top-level modules (``api``, ``params``, ...) form
the ``repro`` layer.  Everything else — builtins, the standard library,
networkx — has its self time split over the profile's caller edges, in
proportion to the time each edge carried, and climbs through non-repro
callers until it reaches repro code.  Time that never reaches a repro
caller goes to ``ext``.  The self times of all layers therefore add up
to the profile's total, which is what makes layer shares comparable.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Tuple

from .metrics import LAYERS

Func = Tuple[str, int, str]

_MAX_ROUNDS = 1000
"""Bound on fixed-point sweeps; caller chains converge in far fewer."""


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` outside repro."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    head = filename[len(prefix):].split(os.sep, 1)
    if len(head) == 2 and head[0] in LAYERS:
        return head[0]
    return "repro"


def bucket(
    stats: Mapping[Func, tuple], package_dir: str
) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` from ``cProfile.Profile.stats``.

    ``calls`` counts calls into functions the layer defines; ``ext``
    counts every call into non-repro code, wherever its time was charged.
    """
    owner = {func: layer_of(func[0], package_dir) for func in stats}
    origins = _origins(stats, owner)
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, calls, self_s, _cum, _callers) in stats.items():
        layer = owner[func]
        if layer is not None:
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += calls
            continue
        layers["ext"]["calls"] += calls
        shares = origins[func]
        for charged, share in shares.items():
            layers[charged]["self_s"] += self_s * share
        layers["ext"]["self_s"] += self_s * max(0.0, 1.0 - sum(shares.values()))
    return layers


def _origins(
    stats: Mapping[Func, tuple], owner: Mapping[Func, Optional[str]]
) -> Dict[Func, Dict[str, float]]:
    """For each non-repro function, the share of its calls each layer made.

    A walk from the function up its caller edges (chosen in proportion
    to the time each edge carried) ends at the first repro caller, or at
    a function nobody profiled called, which counts as ``ext``.  Caller
    cycles make this a fixed point, found by iterating until no share
    moves; any share still circling at the end is left for ``ext``.
    """
    moves: Dict[Func, list] = {}
    for func in stats:
        if owner[func] is not None:
            continue
        edges = {
            caller: edge
            for caller, edge in stats[func][4].items()
            if caller in stats and caller != func
        }
        weights = {caller: edge[3] for caller, edge in edges.items()}
        if not any(weights.values()):
            weights = {caller: edge[1] for caller, edge in edges.items()}
        total = sum(weights.values())
        moves[func] = [
            (caller, weight / total)
            for caller, weight in weights.items()
            if weight > 0
        ]
    origins: Dict[Func, Dict[str, float]] = {
        func: {} if steps else {"ext": 1.0} for func, steps in moves.items()
    }
    for _ in range(_MAX_ROUNDS):
        moved = 0.0
        for func, steps in moves.items():
            if not steps:
                continue
            shares: Dict[str, float] = {}
            for caller, weight in steps:
                layer = owner[caller]
                source = {layer: 1.0} if layer is not None else origins[caller]
                for charged, share in source.items():
                    shares[charged] = shares.get(charged, 0.0) + weight * share
            old = origins[func]
            moved = max(
                [moved]
                + [abs(shares.get(key, 0.0) - old.get(key, 0.0))
                   for key in set(shares) | set(old)]
            )
            origins[func] = shares
        if moved < 1e-12:
            break
    return origins


def find(
    stats: Mapping[Func, tuple], package_dir: str, module: str, name: str
) -> Tuple[int, float]:
    """``(calls, cumulative seconds)`` of one repro function, by module
    path relative to the package (``"dram/controller.py"``) and name."""
    path = os.path.join(package_dir, *module.split("/"))
    calls, cumulative = 0, 0.0
    for (filename, _line, func_name), entry in stats.items():
        if filename == path and func_name == name:
            calls += entry[1]
            cumulative += entry[3]
    return calls, cumulative

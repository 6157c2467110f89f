"""Built-in example graphs: ADE trees, Hirzebruch-Jung chains, the elliptic
double-point example, and the graded cone.
"""

from __future__ import annotations

import re
from math import gcd
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .birational import Tower, free_point
from .errors import InputError
from .graph import Cycle, DualGraph, cycle, dual_graph, unit_cycle

_EMPTY: Mapping = MappingProxyType({})  # a default that no caller can change
_MAX_CURVES = 9999  # the most curves a corpus name builds


class CorpusEntry(NamedTuple):
    name: str
    graph: DualGraph
    cycles: Mapping[str, Cycle] = _EMPTY
    model_args: Mapping = _EMPTY
    tower: Optional[Tower] = None


def _a_n(n: int) -> DualGraph:
    """Chain of n (-2)-curves."""
    if n < 1:
        raise InputError("A_n needs n >= 1")
    verts = [(f"E{i}", -2, 0) for i in range(1, n + 1)]
    edges = [(f"E{i}", f"E{i + 1}") for i in range(1, n)]
    return dual_graph(f"A{n}", verts, edges)


def d_n(n: int) -> DualGraph:
    """Chain of n-2 (-2)-curves with two extra leaves on the last one."""
    if n < 4:
        raise InputError("D_n needs n >= 4")
    verts = [(f"E{i}", -2, 0) for i in range(1, n + 1)]
    edges = [(f"E{i}", f"E{i + 1}") for i in range(1, n - 2)]
    edges += [(f"E{n - 2}", f"E{n - 1}"), (f"E{n - 2}", f"E{n}")]
    return dual_graph(f"D{n}", verts, edges)


def _e_n(n: int) -> DualGraph:
    """E6/E7/E8: three arms of lengths 1, 2 and n-4 from a central node."""
    if n not in (6, 7, 8):
        raise InputError("E_n exists for n in {6, 7, 8}")
    verts = [(f"E{i}", -2, 0) for i in range(1, n + 1)]
    # E1..E{n-1} form the long chain; En hangs off the third node
    edges = [(f"E{i}", f"E{i + 1}") for i in range(1, n - 1)]
    edges.append(("E3", f"E{n}"))
    return dual_graph(f"E{n}", verts, edges)


def _hj(n: int, q: int) -> DualGraph:
    """Cyclic quotient singularity of type n/q: a chain of at most
    _MAX_CURVES rational curves with self-intersections -b_i from the
    continued fraction n/q = b1 - 1/(b2 - ...)."""
    if not (1 <= q < n) or gcd(n, q) != 1:
        raise InputError(f"HJ needs 1 <= q < n coprime, got ({n},{q})")
    name, bs = f"HJ({n},{q})", []
    while q > 0:
        if len(bs) == _MAX_CURVES:
            raise InputError(f"HJ chains have at most {_MAX_CURVES} curves")
        b = -(-n // q)  # ceil
        bs.append(b)
        n, q = q, b * q - n
    verts = [(f"E{i + 1}", -b, b - 2) for i, b in enumerate(bs)]
    edges = [(f"E{i}", f"E{i + 1}") for i in range(1, len(bs))]
    return dual_graph(name, verts, edges)


def _ex244_minimal() -> DualGraph:
    """Minimal resolution of x^2 + y^4 + z^4: one elliptic (-2)-curve."""
    return dual_graph("ex244min", [("E0", -2, 2)])


def _ex244_tower() -> Tower:
    """Four point blow-ups of the elliptic curve; the top graph carries the
    p_g-cycle 2E0 + 3(E1+...+E4)."""
    t = Tower.base(_ex244_minimal())
    for i in range(1, 5):
        t = t.blow_up(free_point("E0", f"E{i}"))
    return t


# A_n and D_n have n <= _MAX_CURVES curves; HJ's numbers have at most 99 digits, far below int()'s limit
_NAME_RE = re.compile(r"A[1-9]\d{0,3}|D(?:[4-9]|[1-9]\d{1,3})|E[678]|HJ\((\d{1,99}),(\d{1,99})\)|ex244(?:min|blown)")


def names() -> list[str]:
    builtins = [f"A{i}" for i in range(1, 10)]
    builtins += [f"D{i}" for i in range(4, 9)]
    builtins += ["E6", "E7", "E8", "ex244min", "ex244blown"]
    builtins += ["HJ(n,q)  (parametric, e.g. HJ(5,2))", "cone(e,g,a)  (parametric, via the cone command)"]
    return builtins


def get(name: str) -> CorpusEntry:
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise InputError(f"unknown corpus name {name!r}")
    if name.startswith("A"):
        return CorpusEntry(name, _a_n(int(name[1:])))
    if name.startswith("D"):
        return CorpusEntry(name, d_n(int(name[1:])))
    if name.startswith("E") and name != "ex244min" and name != "ex244blown":
        return CorpusEntry(name, _e_n(int(name[1:])))
    if name.startswith("HJ"):
        return CorpusEntry(name, _hj(int(m.group(1)), int(m.group(2))))
    if name == "ex244min":
        g = _ex244_minimal()
        return CorpusEntry(
            name,
            g,
            cycles={"m": unit_cycle(g, "E0"), "m2": 2 * unit_cycle(g, "E0"), "m3": 3 * unit_cycle(g, "E0")},
            model_args={"pg": 1, "gorenstein": True},
        )
    # ex244blown
    t = _ex244_tower()
    g = t.top
    z = cycle(g, {"E0": 2, "E1": 3, "E2": 3, "E3": 3, "E4": 3})
    return CorpusEntry(
        name,
        g,
        cycles={"Z": z, "C": unit_cycle(g, "E0")},
        model_args={"pg": 1, "gorenstein": True},
        tower=t,
    )

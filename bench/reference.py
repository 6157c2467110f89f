"""Exact lattice arithmetic written apart from the program under test.

The checks compare the program's outputs with these computations and with
closed forms, never with a stored copy of an earlier output.  Everything
here works on plain data: a graph is a list of ``(id, self_int, kappa)``
vertices and ``(a, b, mult)`` edges, a cycle is a ``{id: coefficient}``
dict without zero entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass(frozen=True)
class Spec:
    """A weighted dual graph as plain data."""

    name: str
    vertices: tuple[tuple[str, int, int], ...]
    edges: tuple[tuple[str, str, int], ...]

    @property
    def ids(self) -> list[str]:
        return [v for v, _, _ in self.vertices]

    def self_int(self) -> dict[str, int]:
        return {v: s for v, s, _ in self.vertices}

    def kappa(self) -> dict[str, int]:
        return {v: k for v, _, k in self.vertices}

    def adjacency(self) -> dict[str, list[tuple[str, int]]]:
        adj: dict[str, list[tuple[str, int]]] = {v: [] for v in self.ids}
        for a, b, m in self.edges:
            adj[a].append((b, m))
            adj[b].append((a, m))
        return adj

    def canonical(self) -> tuple:
        """Order-free form, for comparing with a graph the program built."""
        return (
            tuple(sorted(self.vertices)),
            tuple(sorted((min(a, b), max(a, b), m) for a, b, m in self.edges)),
        )


def spec_of(g) -> Spec:
    """Read a program ``DualGraph`` into plain data."""
    return Spec(g.name, tuple((v.id, v.self_int, v.kappa) for v in g.vertices), tuple(g.edges))


def clean(z: dict) -> dict:
    out = {}
    for v, c in z.items():
        if c != 0:
            out[v] = int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
    return out


def add(z: dict, w: dict, k=1) -> dict:
    out = dict(z)
    for v, c in w.items():
        out[v] = out.get(v, 0) + k * c
    return clean(out)


class Lattice:
    """Intersection form of one graph, evaluated entry by entry."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.ids = spec.ids
        self.s = spec.self_int()
        self.k = spec.kappa()
        self.adj = spec.adjacency()

    def row(self, z: dict, v: str):
        total = z.get(v, 0) * self.s[v]
        for u, m in self.adj[v]:
            total += m * z.get(u, 0)
        return total

    def pair(self, z: dict, w: dict):
        return sum(c * self.row(w, v) for v, c in z.items())

    def k_dot(self, z: dict):
        return sum(c * self.k[v] for v, c in z.items())

    def genus(self, z: dict):
        """p_a(Z) = (Z^2 + K.Z)/2 + 1."""
        val = Fraction(self.pair(z, z) + self.k_dot(z), 2) + 1
        return int(val) if val.denominator == 1 else val

    def is_antinef(self, z: dict) -> bool:
        return all(self.row(z, v) <= 0 for v in self.ids)

    def closure(self, d: dict, cap: int = 100_000) -> dict:
        """Least anti-nef cycle >= d, by Laufer's forced jumps: any anti-nef
        Z >= the current cycle has Z_i >= ceil(sum_j m_ij z_j / -E_i^2)."""
        z = {v: d.get(v, 0) for v in self.ids}
        for _ in range(cap):
            moved = False
            for v in self.ids:
                r = self.row(z, v)
                if r > 0:
                    z[v] += -(-r // -self.s[v])
                    moved = True
            if not moved:
                return clean(z)
        raise CheckFailed(f"reference closure did not settle on {self.spec.name}")

    def residual(self, z: dict) -> dict:
        """M.z + kappa, which vanishes exactly for the canonical cycle."""
        return clean({v: self.row(z, v) + self.k[v] for v in self.ids})


def dominates(z: dict, w: dict) -> bool:
    return all(z.get(v, 0) >= c for v, c in w.items())


def max_y(lat: Lattice, z: dict, c: dict) -> dict:
    """Coefficient-wise maximum of the cycles 0 <= Y <= Z with
    -Y^2 + K.Y = 0 and Z - Y anti-nef and of degree 0 on supp C, by
    enumeration (small boxes only)."""
    best = {v: 0 for v in lat.ids}
    for values in itertools.product(*(range(z.get(v, 0) + 1) for v in lat.ids)):
        y = clean(dict(zip(lat.ids, values)))
        rest = add(z, y, -1)
        if y and (-lat.pair(y, y) + lat.k_dot(y) != 0 or not lat.is_antinef(rest)
                  or any(lat.row(rest, v) for v in c)):
            continue
        best = {v: max(best[v], y.get(v, 0)) for v in lat.ids}
    return clean(best)


# --- closed forms ----------------------------------------------------------


def continuant(bs: list[int]) -> tuple[int, int]:
    """(n, q) with n/q = b1 - 1/(b2 - ...)."""
    n, q = 1, 0
    for b in reversed(bs):
        n, q = b * n - q, n
    return n, q


def lucas(k: int) -> int:
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def cusp_det(n: int) -> int:
    """det of a cycle of n (-3)-curves: (-1)^n (L_2n - 2)."""
    return (-1) ** n * (lucas(2 * n) - 2)


def d_fundamental(n: int) -> dict:
    """Z_f of D_n labelled as a chain E1..E(n-2) with leaves E(n-1), En on
    E(n-2): E1 + 2(E2 + ... + E(n-2)) + E(n-1) + En."""
    z = {f"E{i}": 2 for i in range(2, n - 1)}
    z.update({"E1": 1, f"E{n - 1}": 1, f"E{n}": 1})
    return z


# --- blow-ups and transport ----------------------------------------------


def apply_step(spec: Spec, new_id: str, attach) -> Spec:
    """Insert a (-1)-curve meeting each ``(vid, m)`` of ``attach`` m times:
    a blow-up of a free point or a crossing, or an inverse contraction."""
    att = dict(attach)
    verts = [(v, s - att.get(v, 0) ** 2, k + att.get(v, 0)) for v, s, k in spec.vertices]
    verts.append((new_id, -1, -1))
    mult = {frozenset((a, b)): m for a, b, m in spec.edges}
    items = list(att.items())
    for i, (u, mu) in enumerate(items):
        for w, mw in items[i + 1:]:
            key = frozenset((u, w))
            require(mult.get(key, 0) >= mu * mw, f"no edge {u}-{w} to blow up")
            mult[key] -= mu * mw
    for v, m in items:
        mult[frozenset((v, new_id))] = m
    edges = tuple((*sorted(key), m) for key, m in mult.items() if m > 0)
    return Spec(spec.name, tuple(verts), edges)


def tower_specs(base: Spec, steps) -> list[Spec]:
    """Every level of a tower given by ``(new_id, attach)`` steps."""
    levels = [base]
    for new_id, attach in steps:
        levels.append(apply_step(levels[-1], new_id, attach))
    return levels


def pullback(z: dict, steps) -> dict:
    """Total transform along ``steps``, each ``(new_id, ((vid, mult), ...))``."""
    out = dict(z)
    for new_id, attach in steps:
        lift = sum(m * out.get(v, 0) for v, m in attach)
        if lift:
            out[new_id] = lift
    return clean(out)


def transport(c: dict, steps) -> dict:
    """Cohomological cycle along blow-ups: the new curve leaves the total
    transform when the centre touches supp C."""
    for new_id, attach in steps:
        on_supp = any(c.get(v, 0) > 0 for v, _ in attach)
        c = pullback(c, [(new_id, attach)])
        if on_supp:
            c = add(c, {new_id: 1}, -1)
    return c


def relative_canonical(steps) -> dict:
    """Sum of the total transforms of every curve the steps insert."""
    k: dict = {}
    for j, (new_id, _) in enumerate(steps):
        k = add(k, pullback({new_id: 1}, steps[j + 1:]))
    return k

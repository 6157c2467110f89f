"""Random blow-up towers for the property tests."""

from hypothesis import strategies as st

from antinef.birational import Tower, edge_point, free_point

# new curves sort before, among and after the corpus ids E1, E2, ...
STEMS = ("B", "E_", "F")


def grow(data, t: Tower, height: int, avoid=()) -> Tower:
    """Blow up ``height`` random free or edge points above t, never on a
    curve in ``avoid``."""
    stem = data.draw(st.sampled_from(STEMS))
    for k in range(height):
        g = t.top
        edges = [e for e in g.edges if e[0] not in avoid and e[1] not in avoid]
        if edges and data.draw(st.booleans()):
            a, b, _ = data.draw(st.sampled_from(edges))
            t = t.blow_up(edge_point(a, b, f"{stem}{k}"))
        else:
            vid = data.draw(st.sampled_from([v for v in g.ids if v not in avoid]))
            t = t.blow_up(free_point(vid, f"{stem}{k}"))
    return t

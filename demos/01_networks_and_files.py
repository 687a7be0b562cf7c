"""Building resistor networks, the file format, and Laplacians.

Run:  python3 demos/01_networks_and_files.py
"""

from fractions import Fraction

from resnet import (
    ResistorNetwork,
    build_laplacian,
    cartesian_product,
    cycle,
    fan,
    parse_network,
    path,
    render_network,
)

print("== hand-built network ==")
net = ResistorNetwork.build(4, [(0, 1, 1), (1, 2, Fraction(1, 2)), (2, 3, 2), (0, 3, 1)])
print(f"{net.n} vertices, {len(net.edges)} edges, connected: {net.is_connected()}")
for e in net.edges:
    print(f"  [{e.u}, {e.v}]  r = {e.r}   g = {e.conductance}")

print()
print("== builders carry labels ==")
f = fan(4, 2)
print(f"fan(4, 2): path a1..a4 plus apex {f.label_of(4)!r}, apex edges r = 1/2")
print("  vertices:", ", ".join(f"{v}={f.label_of(v)}" for v in f.vertices))

print()
print("== products use row-major ids ==")
tower = cartesian_product(path(3), cycle(4))
print(f"path(3) x cycle(4): {tower.n} vertices; id 0 is {tower.label_of(0)}, "
      f"id 11 is {tower.label_of(11)}")

print()
print("== text format round trips ==")
text = render_network(f)
print(text)
print("parsed back equal:", parse_network(text) == f)

print("== Laplacian rows sum to zero ==")
lap = build_laplacian(cycle(4))
for row in lap:
    print("  ", [f"{x:g}" for x in row])

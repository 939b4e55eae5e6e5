"""Local sharp Young constants on Lie groups via localized ratios.

Convolution on a group linearizes at small scales; the localized ratio of the
group datum approaches the euclidean constant of the fibre dimension.  The
commutative control hits sqrt(3)/2 while the Heisenberg group, whose law
differs from addition only at second order, approaches (3/4)^{3/2}.
Run:  python3 demos/demo_lie_group_young.py   (a few seconds)
"""

from blscales.functional import QuadratureSpec
from blscales.nonlinear import lie_group_young

DELTAS = [0.2, 0.1, 0.05]


def show(tag, resolution, seed):
    q = QuadratureSpec(method="monte-carlo", resolution=resolution, seed=seed)
    table = lie_group_young(tag, deltas=DELTAS, q=q, mu=1e-5, kappa=1.5)
    print(f"{tag}: fibre dimension {table['fiber_dim']}, "
          f"euclidean bound {table['bound']:.10f}")
    print("  delta    ratio       stderr      slack")
    for row in table["rows"]:
        print(f"  {row.delta:<7g}  {row.ratio:.6f}  {row.stderr:.6f}  {row.slack:+.6f}")
    print()
    return table


show("young-euclidean-1", 400_000, seed=0)
heis = show("young-heisenberg", 400_000, seed=0)
last = heis["rows"][-1]
print(f"at delta = {last.delta:g} the Heisenberg ratio is within "
      f"{abs(last.slack):.1e} of (3/4)^(3/2)")

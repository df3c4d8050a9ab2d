"""Shared corpus of small bounded polytopes used by the property suites."""

from fractions import Fraction
from functools import lru_cache

from polydiam import HPolyhedron, VPolyhedron, analyse, vrep_to_hrep
from polydiam.constructions import (
    crosspolytope,
    cube,
    klee_walkup,
    product,
    simplex,
    transportation,
)


def ngon(n: int) -> HPolyhedron:
    """A convex n-gon with rational vertices on the unit circle.

    Uses the Pythagorean parametrization t -> ((1-t^2), 2t) / (1+t^2) at
    t = 0..n-1; any n distinct circle points are in convex position, so the
    graph is the n-cycle with diameter floor(n/2).
    """
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    pts = []
    for k in range(n):
        t = Fraction(k)
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    return vrep_to_hrep(VPolyhedron.from_points(pts))


def orthant_polytope(d: int, k: int) -> HPolyhedron:
    """Intersection of the nonnegative orthant with k half-spaces at distance k.

    The k extra functionals vanish at (1,..,1,0,..,0) (k ones) and are
    positive at the origin; walking between those two vertices must enter
    each of the k facets x_j = 0 one step at a time, so the diameter is at
    least k = n - d.  One functional is k - sum(x), which bounds the
    polytope; the others carry distinct small tilts to keep it simple.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    rows: list[tuple] = []
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        rows.append((Fraction(0), tuple(e)))
    rows.append((Fraction(k), tuple(Fraction(-1) for _ in range(d))))
    for j in range(1, k):
        coeff = [Fraction(0)] * d
        coeff[j] = Fraction(-1)
        eps = Fraction(1, j + 2)
        for i in range(k, d):
            coeff[i] = eps
        rows.append((Fraction(1), tuple(coeff)))
    return HPolyhedron(d, tuple(rows))


@lru_cache(maxsize=None)
def corpus():
    """Named bounded test polytopes, small enough to convert in milliseconds."""
    items = []
    for d in (2, 3, 4):
        items.append((f"simplex{d}", simplex(d)))
        items.append((f"cube{d}", cube(d)))
        items.append((f"cross{d}", crosspolytope(d)))
    items.append(("ngon5", ngon(5)))
    items.append(("ngon7", ngon(7)))
    items.append(("q4", klee_walkup()[1]))
    items.append(("prod_d2_d2", product(simplex(2), simplex(2))))
    items.append(("transport23", transportation([2, 1], [1, 1, 1])))
    items.append(("orthant32", orthant_polytope(3, 2)))
    return tuple(items)


@lru_cache(maxsize=None)
def converted(name):
    """The `Incidence` of a corpus entry, built once."""
    return analyse(dict(corpus())[name])

"""Shared corpus of small bounded polytopes used by the property suites."""

from functools import lru_cache

from polydiam import hrep_to_vrep, incidence
from polydiam.constructions import (
    crosspolytope,
    cube,
    klee_walkup,
    ngon,
    orthant_polytope,
    product,
    simplex,
    transportation,
)


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
    h = dict(corpus())[name]
    return incidence(h, hrep_to_vrep(h))

"""Exact-arithmetic polytope graphs, diameters, and diameter-extremal constructions."""

__version__ = "0.1.0"

from .polyhedron import (
    Disconnected,
    GeometryError,
    HPolyhedron,
    Incidence,
    Infeasible,
    NotPointed,
    PolyGraph,
    Unbounded,
    VPolyhedron,
    classify,
    dual_graph,
    incidence,
    polar,
    skeleton_graph,
)
from .dd import analyse, hrep_to_vrep, reduce_to_full_dim, vrep_to_hrep
from .ratlin import Rational, parse_rational

__all__ = [
    "Disconnected",
    "GeometryError",
    "HPolyhedron",
    "Incidence",
    "Infeasible",
    "NotPointed",
    "PolyGraph",
    "Rational",
    "Unbounded",
    "VPolyhedron",
    "analyse",
    "classify",
    "dual_graph",
    "hrep_to_vrep",
    "incidence",
    "parse_rational",
    "polar",
    "reduce_to_full_dim",
    "skeleton_graph",
    "vrep_to_hrep",
]

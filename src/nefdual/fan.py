"""Face fans of polytopes and integral convex piecewise-linear functions.

The face fan of a full-dimensional polytope with the origin inside has one
maximal cone per facet: the cone over that facet. A piecewise-linear
function on the fan is stored as one linear functional per maximal cone,
solved exactly from prescribed vertex values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotConvex,
    NotFullDimensional,
    NotPiecewiseLinear,
    ZeroNotInterior,
)
from .linalg import Inconsistent, Underdetermined, exact_rational
from .polytope import Point, Polytope, hull, pair, solve_linear


@dataclass(frozen=True)
class Cone:
    """Maximal cone of a face fan: the cone over one facet of the base."""

    index: int
    normal: Point
    offset: Fraction
    vertex_indices: tuple[int, ...]


class FaceFan:
    """Complete fan whose maximal cones are cones over the facets of ``base``.

    The fan memoizes its per-cone linear solves: ``_solves`` maps a cone
    index and the values on that cone's vertices (in ``vertex_indices``
    order) to the functional taking them, or to ``Inconsistent``. Every PL
    function on the fan, and the pruned enumeration in ``nefpart``, reads
    its functionals through :meth:`cone_functional`, so a pattern of values
    on one cone is solved once per fan however many partitions share it.
    """

    __slots__ = ("base", "cones", "_solves")

    def __init__(self, base: Polytope):
        if not base.is_full_dimensional:
            raise NotFullDimensional("face fan needs a full-dimensional polytope")
        if not base.has_zero_interior:
            raise ZeroNotInterior("face fan needs the origin strictly inside")
        self.base = base
        self.cones = tuple(
            Cone(i, f.normal, f.offset, f.incidence)
            for i, f in enumerate(base.facets)
        )
        self._solves: dict = {}

    def cone_functional(self, index: int, values: tuple):
        """The functional taking ``values`` on the vertices of cone ``index``.

        ``values`` are exact rationals aligned with the cone's
        ``vertex_indices``. Returns the solution ``Point``, or
        ``Inconsistent`` when a non-simplicial facet admits none; both are
        memoized. Facet vertices that fail to span the space are a library
        bug and raise :class:`InvariantViolation` on every call.
        """
        key = (index, values)
        u = self._solves.get(key)
        if u is None:
            verts = self.base.vertices
            indices = self.cones[index].vertex_indices
            u = solve_linear(zip([verts[i] for i in indices], values))
            if u is Underdetermined:
                raise InvariantViolation(
                    "facet vertices failed to span the ambient space",
                    witness=index,
                )
            self._solves[key] = u
        return u

    def cone_contains(self, cone: Cone, x: Point) -> bool:
        """Exact membership of ``x`` in the (closed) maximal cone."""
        if x.is_zero():
            return True
        s = pair(x, cone.normal)
        if s >= 0:
            # every nonzero cone point pairs strictly negatively with the facet normal
            return False
        scaled = x.scale(-cone.offset / s)
        return self.base.contains(scaled)

    def locate(self, x: Point) -> Cone:
        """First maximal cone containing ``x``; the fan is complete, so one exists."""
        for cone in self.cones:
            if self.cone_contains(cone, x):
                return cone
        raise InvariantViolation("complete fan failed to contain a point", witness=x)

    def __len__(self) -> int:
        return len(self.cones)

    def __iter__(self):
        return iter(self.cones)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaceFan) and self.base == other.base

    def __hash__(self) -> int:
        return hash(("FaceFan", self.base))

    def __repr__(self) -> str:
        return f"FaceFan({self.base!r}, {len(self.cones)} maximal cones)"


def face_fan(base: Polytope) -> FaceFan:
    """The face fan of ``base``, built once per polytope and kept on it."""
    if base._fan is None:
        base._fan = FaceFan(base)
    return base._fan


class PLFunction:
    """Piecewise-linear function on a face fan, linear on each maximal cone.

    ``vertex_values[i]`` is the value at the i-th canonical vertex of the
    base polytope; ``functionals[j]`` is the dual-space functional realizing
    the function on the j-th maximal cone. Convexity is scanned once, when
    the function is built; ``is_convex`` and
    :meth:`first_convexity_violation` read the stored result.
    """

    __slots__ = ("fan", "vertex_values", "functionals", "is_convex", "is_integral", "_violation")

    def __init__(
        self,
        fan: FaceFan,
        vertex_values: tuple[Fraction, ...],
        functionals: tuple[Point, ...],
    ):
        self.fan = fan
        self.vertex_values = vertex_values
        self.functionals = functionals
        self.is_integral = all(u.is_lattice() for u in functionals)
        self._violation = _convexity_violation(fan, vertex_values, functionals)
        self.is_convex = self._violation is None

    def first_convexity_violation(self):
        """First (vertex_index, cone_index) where a functional exceeds the value."""
        return self._violation

    def first_nonintegral_cone(self):
        for ci, u in enumerate(self.functionals):
            if not u.is_lattice():
                return ci
        return None

    def evaluate(self, x: Point) -> Fraction:
        """Value at ``x``; for convex functions, asserted against the max formula."""
        cone = self.fan.locate(x)
        value = pair(x, self.functionals[cone.index])
        if self.is_convex:
            best = max(pair(x, u) for u in self.functionals)
            if best != value:
                raise InvariantViolation(
                    "convex evaluation disagrees with max of functionals",
                    witness=(x, value, best),
                )
        return value

    def __call__(self, x: Point) -> Fraction:
        return self.evaluate(x)

    def __add__(self, other: "PLFunction") -> "PLFunction":
        if not isinstance(other, PLFunction):
            return NotImplemented
        if self.fan != other.fan:
            raise DimensionMismatch("can only add PL functions on the same fan")
        values = tuple(a + b for a, b in zip(self.vertex_values, other.vertex_values))
        funcs = tuple(a + b for a, b in zip(self.functionals, other.functionals))
        return PLFunction(self.fan, values, funcs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PLFunction)
            and self.fan == other.fan
            and self.vertex_values == other.vertex_values
        )

    def __hash__(self) -> int:
        return hash((self.fan, self.vertex_values))

    def __repr__(self) -> str:
        flags = []
        if self.is_convex:
            flags.append("convex")
        if self.is_integral:
            flags.append("integral")
        return f"PLFunction({', '.join(flags) or 'general'}, values={self.vertex_values})"


def _convexity_violation(fan: FaceFan, vertex_values, functionals):
    """First (vertex_index, cone_index) with ``<vertex, functional> > value``."""
    for vi, v in enumerate(fan.base.vertices):
        val = vertex_values[vi]
        for ci, u in enumerate(functionals):
            if pair(v, u) > val:
                return (vi, ci)
    return None


def pl_from_vertex_values(fan: FaceFan, values: Sequence) -> PLFunction:
    """Extend prescribed vertex values linearly on every maximal cone.

    ``values`` aligns with the canonical vertex order of ``fan.base``. On
    each cone the facet's vertices pin down a unique linear functional
    because they span the ambient space; if the (overdetermined) system of a
    non-simplicial facet is unsolvable, raises NotPiecewiseLinear naming the
    first such cone. Values are exact rationals; a ``float`` is a
    ``TypeError``. Each cone's solve goes through the fan's memo
    (:meth:`FaceFan.cone_functional`).
    """
    verts = fan.base.vertices
    if len(values) != len(verts):
        raise DimensionMismatch(
            f"{len(verts)} vertices but {len(values)} prescribed values"
        )
    vals = tuple(v if type(v) is Fraction else exact_rational(v) for v in values)
    functionals = []
    for cone in fan.cones:
        u = fan.cone_functional(cone.index, tuple([vals[i] for i in cone.vertex_indices]))
        if u is Inconsistent:
            raise NotPiecewiseLinear(cone.index)
        functionals.append(u)
    return PLFunction(fan, vals, tuple(functionals))


def support_polytope(f: PLFunction) -> Polytope:
    """Hull of the negated cone functionals of a convex PL function.

    This is the polytope whose support function recovers ``f``:
    ``{y : <x, y> >= -f(x) for all x}``.
    """
    if not f.is_convex:
        raise NotConvex("support polytope needs a convex PL function")
    # Each generator g = -u already satisfies every vertex constraint:
    # <v, g> >= -f(v) is <v, u> <= f(v), which is what is_convex checked
    # for every functional u and vertex v.
    return hull([-u for u in f.functionals])

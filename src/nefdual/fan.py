"""Face fans of polytopes and integral convex piecewise-linear functions.

The face fan of a full-dimensional polytope with the origin inside has one
maximal cone per facet: the cone over that facet. A piecewise-linear
function on the fan is stored as one linear functional per maximal cone,
determined exactly by prescribed vertex values.

Nothing here solves a linear system. A maximal cone gets an integer table
on its first read: one fraction-free elimination of ``[Vᵀ | I]``, V the
integer forms of all the base's vertices with the cone's own first, pivoting
only among the cone's columns (:class:`_ConeKernel`). Its row r is ``D``
times every vertex's coordinate along basis vertex r, followed by row r of
``(D B⁻¹)ᵀ``, B the d facet vertices pivoted on. A sum of rows weighted by
a functional's values at the basis holds ``D`` times that functional's
value at every vertex, and ``D`` times the functional itself. So a cone's
functional for given values is read off such a sum, and the values admit
one exactly when the sum reproduces them at the cone's other vertices (see
:meth:`FaceFan.cone_functional`); the subset search of
:mod:`nefdual.nefpart` reads whole 0/1 sums. The cones of a nabla's fan
mostly get no table: :mod:`nefdual.duality` reads the dual's functionals
there off the delta parts, checks each against its cone's values, and puts
it into the fan's memo. The convexity scan compares
``int`` dot products of the points' integer forms, cross-multiplied by
their denominators. ``Fraction`` and ``Point`` appear only in the public values:
vertex values and functionals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotConvex,
    NotFullDimensional,
    NotPiecewiseLinear,
    ZeroNotInterior,
)
from .linalg import Inconsistent, eliminate, exact_rational
from .polytope import Point, Polytope, _dot, dual_space, pair


class Cone(NamedTuple):
    """Maximal cone of a face fan: the cone over one facet of the base."""

    index: int
    normal: Point
    offset: Fraction
    vertex_indices: tuple[int, ...]


class _ConeKernel:
    """One cone's table: the fraction-free elimination of ``[Vᵀ | I]``.

    The matrix is d × (n + d): the integer forms of all n base vertices as
    columns, the cone's own vertices first, then the d × d identity. Pivots
    are taken only among the cone's columns, so the d pivot columns are the
    integer forms of d linearly independent facet vertices, the basis B.
    The elimination multiplies the matrix on the left by some E with
    ``E Bᵀ = D I``, that is ``E = D (Bᵀ)⁻¹``. So afterwards row r holds, at
    each vertex's column, ``D`` times that vertex's coordinate along basis
    vertex r (``D`` at its own column and 0 at the other basis columns), and
    the identity block has become E, which is ``(D B⁻¹)ᵀ``.

    ``order`` lists the base vertex at each of the first n columns, and
    ``rows[r]`` is row r; ``basis[r]`` is the column, which is also the
    position in the cone's ``vertex_indices``, of basis vertex r, and
    ``det = D > 0``. A functional u is fixed by its values c_r = <b_r, u>
    at the basis, and the sum S = Σ c_r rows[r] holds ``D <v, u>`` at every
    base vertex v's column and ``D u`` in its last d entries.
    :meth:`FaceFan.cone_functional` reads two slices of that sum off
    columns kept here: ``rest`` pairs each other cone position with its
    column, and ``adj`` holds the identity block's columns, the rows of
    ``D B⁻¹``. The subset search in :mod:`nefdual.nefpart` sums whole rows.
    ``dens`` holds the cone's vertices' denominators, and ``lattice`` says
    they are all 1.
    """

    __slots__ = ("order", "rows", "basis", "det", "rest", "adj", "dens", "lattice", "space")

    def __init__(self, base: Polytope, cone: Cone):
        verts = base.vertices
        n = len(verts)
        d = base.ambient_dim
        indices = cone.vertex_indices
        m = len(indices)
        inside = set(indices)
        order = indices + tuple([v for v in range(n) if v not in inside])
        coords = zip(*[verts[v]._num for v in order])
        mat = [list(col) + [int(k == j) for j in range(d)] for k, col in enumerate(coords)]
        basis, det = eliminate(mat, m)
        if len(basis) < d:
            raise InvariantViolation(
                "facet vertices failed to span the ambient space", witness=cone.index
            )
        if det < 0:
            det = -det
            mat = [[-x for x in row] for row in mat]
        cols = list(zip(*mat))
        self.order = order
        self.rows = mat
        self.basis = tuple(basis)
        self.det = det
        self.rest = tuple([(p, cols[p]) for p in range(m) if p not in basis])
        self.adj = tuple(cols[n:])
        self.dens = tuple([verts[i]._den for i in indices])
        self.lattice = all(den == 1 for den in self.dens)
        self.space = dual_space(base.space)


class FaceFan:
    """Complete fan whose maximal cones are cones over the facets of ``base``.

    Each cone's table (:class:`_ConeKernel`) is built once per fan, on its
    first read (:meth:`_kernel`), and kept in ``_kernels``. It has two
    readers. Every PL function on the fan reads its functionals through
    :meth:`cone_functional`, which memoizes them: ``_solves`` maps a cone
    index and the values on that cone's vertices (in ``vertex_indices``
    order) to the functional taking them, or to ``Inconsistent``, so a
    pattern of values on one cone is computed once per fan however many
    partitions share it. The subset search in :mod:`nefdual.nefpart` sums
    the table's rows itself and calls no :meth:`cone_functional`. A cone
    that neither reads never gets a table. On a nabla's fan that is most
    cones: :func:`nefdual.duality.dual_nef_partition` puts the dual's
    functionals into the memo, read off the delta parts and checked against
    the cone's values, before it decides the dual.
    """

    __slots__ = ("base", "cones", "_solves", "_kernels")

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
        self._kernels: list = [None] * len(self.cones)

    def _kernel(self, index: int) -> _ConeKernel:
        """The table of cone ``index``, built on first read and kept."""
        kernel = self._kernels[index]
        if kernel is None:
            kernel = self._kernels[index] = _ConeKernel(self.base, self.cones[index])
        return kernel

    def cone_functional(self, index: int, values: tuple):
        """The functional taking ``values`` on the vertices of cone ``index``.

        ``values`` are exact rationals (``int`` or ``Fraction``) aligned
        with the cone's ``vertex_indices``. Returns the solution ``Point``,
        or ``Inconsistent`` when a non-simplicial facet admits none; both
        are memoized.

        No linear system is solved. Scale the values by the LCM ``L`` of
        their denominators and each by its vertex's denominator, so that
        ``c`` is the ``int`` right-hand side of ``<_num, u> = c / L``. The
        basis spans the ambient space, so every solution of the cone's
        system is the u taking ``c_B / L`` at the basis, and the system is
        solvable iff that u also meets every other vertex w of the cone.
        The sum S = Σ c_r rows[r] of the cone's table (:class:`_ConeKernel`)
        holds ``D L <_num, u>`` at each vertex and ``D L u`` in its last d
        entries; only those slices are formed. So w is met iff its entry of
        S, ``mu . c_B`` with ``mu`` its column, equals ``D * c_w``, an
        ``int`` equality, and ``u = adj c_B / (D L)``. Facet vertices that
        fail to span the space are a library bug and raise
        :class:`InvariantViolation` on every call.
        """
        key = (index, values)
        u = self._solves.get(key)
        if u is None:
            kernel = self._kernel(index)
            scale = lcm(*[v.denominator for v in values])
            if scale == 1 and kernel.lattice:
                c = [v.numerator for v in values]
            else:
                c = [
                    v.numerator * (scale // v.denominator) * den
                    for v, den in zip(values, kernel.dens)
                ]
            basis = [c[p] for p in kernel.basis]
            det = kernel.det
            if any(_dot(mu, basis) != det * c[p] for p, mu in kernel.rest):
                u = Inconsistent
            else:
                u = Point._from_form(
                    tuple([_dot(row, basis) for row in kernel.adj]),
                    det * scale,
                    kernel.space,
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
    the function is built, unless its builder has decided it
    (``integral_convex``); ``is_convex`` and
    :meth:`first_convexity_violation` read the stored result.
    """

    __slots__ = ("fan", "vertex_values", "functionals", "is_convex", "is_integral", "_violation")

    def __init__(
        self,
        fan: FaceFan,
        vertex_values: tuple[Fraction, ...],
        functionals: tuple[Point, ...],
        *,
        integral_convex: bool = False,
    ):
        self.fan = fan
        self.vertex_values = vertex_values
        self.functionals = functionals
        if integral_convex:
            # The builder has decided that every functional is a lattice
            # point and that the function is convex; nothing is scanned.
            self.is_integral = True
            self._violation = None
        else:
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
    """First (vertex_index, cone_index) with ``<vertex, functional> > value``.

    Decided on ``int``: with the value ``a/b`` and every denominator
    positive, ``<v, u> > a/b`` is ``<v._num, u._num> * b > a * v._den * u._den``.
    Each vertex is paired once with each distinct functional, which stands
    for the first cone that has it: the distinct functionals come in the
    order of their first cones, so the first one exceeding a vertex's value
    names the first such cone.
    """
    forms: dict = {}
    for ci, u in enumerate(functionals):
        forms.setdefault((u._num, u._den), ci)
    for vi, v in enumerate(fan.base.vertices):
        val = vertex_values[vi]
        num = v._num
        b = val.denominator
        a = val.numerator * v._den
        for (un, ud), ci in forms.items():
            if _dot(num, un) * b > a * ud:
                return (vi, ci)
    return None


def pl_from_vertex_values(fan: FaceFan, values: Sequence) -> PLFunction:
    """Extend prescribed vertex values linearly on every maximal cone.

    ``values`` aligns with the canonical vertex order of ``fan.base``. On
    each cone the facet's vertices pin down a unique linear functional
    because they span the ambient space; if the (overdetermined) system of a
    non-simplicial facet is unsolvable, raises NotPiecewiseLinear naming the
    first such cone. Values are exact rationals; a ``float`` is a
    ``TypeError``. Each cone's functional comes from the fan's integer
    table and memo (:meth:`FaceFan.cone_functional`).
    """
    verts = fan.base.vertices
    if len(values) != len(verts):
        raise DimensionMismatch(
            f"{len(verts)} vertices but {len(values)} prescribed values"
        )
    vals = tuple(v if type(v) is Fraction else exact_rational(v) for v in values)
    # Integral values go to the memo as ``int``s: an equal key with a hash
    # computed in C, where a ``Fraction`` hashes in Python on every lookup.
    keys = [v.numerator if v.denominator == 1 else v for v in vals]
    functionals = []
    for cone in fan.cones:
        u = fan.cone_functional(cone.index, tuple([keys[i] for i in cone.vertex_indices]))
        if u is Inconsistent:
            raise NotPiecewiseLinear(cone.index)
        functionals.append(u)
    return PLFunction(fan, vals, tuple(functionals))


def support_polytope(f: PLFunction) -> Polytope:
    """The polytope ``{y : <x, y> >= -f(x) for all x}`` of a convex PL function.

    It is built from its vertices, the distinct negated cone functionals:
    f is the maximum of its functionals, so the polytope is their negated
    hull, and for a generic x inside a cone, -u of that cone is the unique
    minimiser of ``<x, ·>`` over them. Its span and facets are the hull's,
    built on first read (:meth:`Polytope._from_vertices`), and it decides
    membership by them like any polytope.
    """
    if not f.is_convex:
        raise NotConvex("support polytope needs a convex PL function")
    space = dual_space(f.fan.base.space)
    vertices = [
        Point._from_form(tuple([-x for x in num]), den, space)
        for num, den in {(u._num, u._den) for u in f.functionals}
    ]
    return Polytope._from_vertices(vertices, vertices)

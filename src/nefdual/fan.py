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
value at every vertex, and ``D`` times the functional itself. So the
values admit a functional on the cone exactly when the sum reproduces them
at the cone's other vertices (:meth:`_ConeKernel.row_sum`), and the
functional is read off it.

Whether a vertex set S is nef is decided on the fan's one memo, keyed by
(cone, S's 0/1 pattern on the cone) (:meth:`FaceFan.entry`): its entry says
whether the pattern has a functional, whether that is a lattice point, and
which vertices pair with it above 0 and above 1. Validation and
enumeration in :mod:`nefdual.nefpart` read the same entries, and
:mod:`nefdual.duality` writes the dual's entries there, read off the delta
parts, so the cones of a nabla's fan mostly get no table.
:func:`pl_from_vertex_values` serves arbitrary rational values: it reads
each cone's functional off a weighted row sum (:meth:`FaceFan.cone_functional`,
with no memo), and :class:`PLFunction` scans its convexity, comparing
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
    position in the cone's ``vertex_indices``, of basis vertex r,
    ``others`` the cone's other positions, and ``det = D > 0``. A
    functional u is fixed by its values c_r = <b_r, u> at the basis, and
    the sum S = Σ c_r rows[r] holds ``D <v, u>`` at every base vertex v's
    column and ``D u`` in its last d entries; :meth:`row_sum` is its one
    reader. ``dens`` holds the cone's vertices' denominators.
    """

    __slots__ = ("order", "rows", "basis", "others", "det", "dens", "space")

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
        self.order = order
        self.rows = mat
        self.basis = tuple(basis)
        self.others = tuple([p for p in range(m) if p not in basis])
        self.det = det
        self.dens = tuple([verts[i]._den for i in indices])
        self.space = dual_space(base.space)

    def row_sum(self, values) -> list | None:
        """S = Σ values[basis[r]] rows[r] when S is ``D`` times ``values`` at
        the cone's other positions, and ``None`` otherwise.

        ``values`` are ``int``s, one per position of the cone's
        ``vertex_indices``. S is ``D`` times ``values`` at the basis by
        construction, so ``None`` says that no functional takes them. A
        weight 1 adds its row as it is, so a 0/1 pattern is a plain sum of
        rows, with no multiplication.
        """
        pairs = zip(self.basis, self.rows)
        rows = [row if w == 1 else [w * x for x in row] for p, row in pairs if (w := values[p])]
        total = list(map(sum, zip(*rows))) if rows else [0] * len(self.rows[0])
        det = self.det
        for p in self.others:
            if total[p] != det * values[p]:
                return None
        return total


class FaceFan:
    """Complete fan whose maximal cones are cones over the facets of ``base``.

    ``bits[c]`` has bit v set for each vertex v of cone c. Each cone's table
    (:class:`_ConeKernel`) is built once per fan, on its first read
    (:meth:`_kernel`), and kept in ``_kernels``. The fan keeps one memo,
    ``_entries``, keyed by a cone and a 0/1 pattern on its vertices
    (:meth:`entry`), which validation and enumeration both read, so a
    pattern is read off its table once per fan however many partitions and
    calls share it. On a nabla's fan most entries are written by
    :func:`nefdual.duality.dual_nef_partition`, read off the delta parts,
    and those cones get no table. :meth:`cone_functional` serves arbitrary
    values and keeps nothing.
    """

    __slots__ = ("base", "cones", "bits", "_entries", "_kernels")

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
        self.bits = tuple([sum([1 << v for v in cone.vertex_indices]) for cone in self.cones])
        self._entries: dict = {}
        self._kernels: list = [None] * len(self.cones)

    def _kernel(self, index: int) -> _ConeKernel:
        """The table of cone ``index``, built on first read and kept."""
        kernel = self._kernels[index]
        if kernel is None:
            kernel = self._kernels[index] = _ConeKernel(self.base, self.cones[index])
        return kernel

    def entry(self, c: int, s: int):
        """The entry of cone ``c`` for the 0/1 pattern of the vertex set
        ``s`` (bit v set for v in S) on its vertices, read once per fan.

        It is ``(u, gt0, gt1)`` when a lattice functional u takes the
        pattern, with the vertex bitmasks gt0 = {v : <v, u> > 0} and
        gt1 = {v : <v, u> > 1}; ``False`` when a functional takes it that
        is not a lattice point; and ``None`` when none does. Both failures
        are falsy. The base must be a lattice polytope (:meth:`_read`).
        """
        key = (c, s & self.bits[c])
        entry = self._entries.get(key, key)
        if entry is key:
            entry = self._entries[key] = self._read(*key)
        return entry

    def _read(self, c: int, pattern: int):
        """The entry of cone ``c`` for ``pattern``, from the row sum S of
        the basis vertices in the pattern: S is ``D`` times the pattern at
        every cone vertex iff the pattern has a functional, D divides S's
        last d entries iff that is a lattice point, and gt0 and gt1 are the
        vertices where S is above 0 and above D. The 0/1 values stand for
        the values at the points themselves only when every vertex is a
        lattice point."""
        table = self._kernel(c)
        total = table.row_sum([pattern >> v & 1 for v in self.cones[c].vertex_indices])
        if total is None:
            return None
        order = table.order
        det = table.det
        dual = total[len(order):]
        if det != 1:
            if any([x % det for x in dual]):
                return False
            dual = [x // det for x in dual]
        gt0 = gt1 = 0
        for x, v in zip(total, order):
            if x > 0:
                gt0 |= 1 << v
                if x > det:
                    gt1 |= 1 << v
        return (Point._from_form(tuple(dual), 1, table.space), gt0, gt1)

    def cone_functional(self, index: int, values: tuple):
        """The functional taking ``values`` on the vertices of cone ``index``.

        ``values`` are exact rationals (``int`` or ``Fraction``) aligned
        with the cone's ``vertex_indices``. Returns the solution ``Point``,
        or ``Inconsistent`` when a non-simplicial facet admits none.

        No linear system is solved. Scale the values by the LCM ``L`` of
        their denominators and each by its vertex's denominator, so that
        ``c`` is the ``int`` right-hand side of ``<_num, u> = c / L``. The
        basis spans the ambient space, so every solution of the cone's
        system is the u taking ``c_B / L`` at the basis, and the system is
        solvable iff that u also meets every other vertex of the cone: iff
        the table's row sum weighted by ``c`` (:meth:`_ConeKernel.row_sum`)
        exists. Its last d entries are then ``D L u``. Facet vertices that
        fail to span the space are a library bug and raise
        :class:`InvariantViolation` on every call.
        """
        kernel = self._kernel(index)
        scale = lcm(*[v.denominator for v in values])
        c = [v.numerator * (scale // v.denominator) * den for v, den in zip(values, kernel.dens)]
        total = kernel.row_sum(c)
        if total is None:
            return Inconsistent
        return Point._from_form(tuple(total[len(kernel.order):]), kernel.det * scale, kernel.space)

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
    the function is built (:func:`_convexity_violation`), unless its
    builder has decided it (``integral_convex``), as validation and
    enumeration do on the fan's entries; ``is_convex`` and
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
    table (:meth:`FaceFan.cone_functional`), and the function's convexity
    is scanned (:class:`PLFunction`). Validation and enumeration call
    neither: they decide 0/1 values on the fan's entries
    (:meth:`FaceFan.entry`).
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

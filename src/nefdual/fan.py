"""Face fans of polytopes and integral convex piecewise-linear functions.

The face fan of a full-dimensional polytope with the origin inside has one
maximal cone per facet: the cone over that facet. A piecewise-linear
function on the fan is stored as one linear functional per maximal cone,
determined exactly by prescribed vertex values.

Nothing here solves a linear system. A maximal cone gets an integer table
on its first read (:class:`_ConeKernel`): ``[Vᵀ | I]``, V the integer forms
of all the base's vertices in vertex order, reduced so that d of the cone's
vertices are its basis. Its row r is ``D`` times every vertex's coordinate
along basis vertex r, followed by row r of ``D (Bᵀ)⁻¹``, B the basis
vertices' forms as rows. The fan starts from ``[Vᵀ | I]`` itself, and each
table is derived from the last one built by one fraction-free exchange per
basis vertex not on the new cone (Avis and Fukuda's pivoting step with
Bareiss's exact division), so a simplicial cone next to the one before
costs one exchange. A sum of rows weighted by a functional's values at the
basis holds ``D`` times that functional's value at every vertex, and ``D``
times the functional itself. So the values admit a functional on the cone
exactly when the sum reproduces them at the cone's other vertices, which
both reads check first, at those columns alone, and the functional is
read off the full sum.

Convexity is decided one way, on one vertex bitmask per cone. A PL
function f is convex exactly when <v, u> <= f(v) for every vertex v and
every cone's functional u, so the mask of a cone holds the vertices where
its functional exceeds f, and f is convex iff every mask is empty. A
failure's witness is the lowest vertex in any mask and the first cone
whose mask holds it (:func:`_first_violation`), the first (vertex, cone)
met by pairing each vertex in turn with each cone's functional. Two reads
of a table give the masks:

- For 0/1 values, the fan's one memo, keyed by (cone, S's 0/1 pattern on
  the cone) (:meth:`FaceFan.entry`): its entry says whether the pattern
  has a functional, whether that is a lattice point, and which vertices
  pair with it above 0 and above 1, from which :mod:`nefdual.nefpart`
  forms the mask gt1 | (gt0 & ~S). Validation and enumeration read the
  same entries, and :mod:`nefdual.duality` writes the dual's entries
  there, read off the delta parts, so the cones of a nabla's fan mostly
  get no table.
- For arbitrary rational values, the weighted read
  (:meth:`FaceFan._weighted_read`, with no memo) gives each cone's
  functional and mask, which :func:`pl_from_vertex_values` hands to the
  :class:`PLFunction` it builds; :meth:`FaceFan.cone_functional` weighs
  the cone's vertices alone and sums only the functional's columns.

``Fraction`` and ``Point`` appear only in the public values: vertex values
and functionals.

A polytope owns its face fan: :func:`face_fan` keeps the fan on the
polytope, and with it the memo and the tables, for as long as the polytope
lives. The fan keeps what it reads off its base, the ``vertices`` tuple,
the ``space`` and the facets its cones mirror, and refers back to the base
only weakly, so the two form no reference cycle and both are freed by
reference counting as soon as their last user drops them. A fan that
outlives its base answers as before, from the kept data alone, and its
``base`` is then an equal polytope made from that data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import or_
from typing import NamedTuple, Sequence
from weakref import ref

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotConvex,
    NotFullDimensional,
    NotPiecewiseLinear,
    ZeroNotInterior,
)
from .linalg import Inconsistent, exact_rational
from .polytope import Facet, Point, Polytope, dual_space, pair


class Cone(NamedTuple):
    """Maximal cone of a face fan: the cone over one facet of the base."""

    index: int
    normal: Point
    offset: Fraction
    vertex_indices: tuple[int, ...]


class _ConeKernel(NamedTuple):
    """One cone's table: ``[Vᵀ | I]`` multiplied on the left by ``D (Bᵀ)⁻¹``.

    The table is d × (n + d): column v < n holds the integer form of base
    vertex v, in the base's vertex order, and the last d columns start as
    the identity. ``rows[r]`` is row r, ``basis[r]`` the column of basis
    vector r, B the d × d matrix whose rows b_r are those columns of
    ``[Vᵀ | I]``, and ``det = D = |det B| > 0``. So row r holds, at each
    vertex's column, ``D`` times that vertex's coordinate along b_r (``D``
    at its own column and 0 at the other basis columns), and the last d
    entries of the rows form E = ``D (Bᵀ)⁻¹``, that is ``E Bᵀ = D I``.

    A fan's first table is ``[Vᵀ | I]`` itself, basis the identity columns
    and ``D = 1`` (:meth:`identity`). Every cone's table is derived from the
    last table built by one exchange per basis column that is not a vertex
    of the cone (:meth:`exchange`), so its basis is d facet vertices, and
    ``others`` lists the cone's other vertices. Adjacent simplicial facets
    share all but one vertex, so between them a table is one exchange away
    from the one before it.

    A functional u is fixed by its values c_r = <b_r, u> at the basis, and
    the sum S = Σ c_r rows[r] holds ``D <v, u>`` at every base vertex v's
    column and ``D u`` in its last d entries. So values on the cone admit
    a functional exactly when S is ``D`` times them at ``others``, and the
    two reads (:meth:`FaceFan._read`, :meth:`FaceFan._weighted_read`)
    check those columns before they sum a full row.
    """

    rows: list
    basis: list
    det: int
    others: tuple

    @classmethod
    def identity(cls, vertices: tuple) -> "_ConeKernel":
        """``[Vᵀ | I]`` for the base's ``vertices``, whose basis is the
        identity columns, with ``D = 1``."""
        n = len(vertices)
        d = len(vertices[0]._num)
        coords = zip(*[v._num for v in vertices])
        rows = [list(col) + [int(k == j) for j in range(d)] for k, col in enumerate(coords)]
        return cls(rows, list(range(n, n + d)), 1, ())

    def exchange(self, cone: Cone) -> "_ConeKernel":
        """The table of ``cone``, derived from this one by one fraction-free
        exchange per basis column that is not a vertex of the cone.

        Row r's basis column goes out for the first cone vertex v with a
        nonzero entry p in row r: row r stays, and every other row i
        becomes ``(p row_i - row_i[v] row_r) / D``, the new D being p
        (Bareiss's step; by Sylvester's identity every entry is again a
        minor, so the division is exact). The cone's vertices span the
        ambient space, so such a v exists; facet vertices that do not are
        a library bug and raise :class:`InvariantViolation`. D is made
        positive at the end: a negative last pivot has its row negated
        first, which negates every row the step makes. Rows are replaced,
        never modified, so tables share the rows an exchange leaves alone.
        """
        indices = cone.vertex_indices
        rows = list(self.rows)
        basis = list(self.basis)
        det = self.det
        out = [r for r, b in enumerate(basis) if b not in indices]
        for r in out:
            prow = rows[r]
            col = next((v for v in indices if prow[v]), None)
            if col is None:
                raise InvariantViolation(
                    "facet vertices failed to span the ambient space", witness=cone.index
                )
            if r == out[-1] and prow[col] < 0:
                prow = rows[r] = [-x for x in prow]
            piv = prow[col]
            for i, row in enumerate(rows):
                if i == r:
                    continue
                f = row[col]
                if f:
                    rows[i] = [(piv * a - f * x) // det for a, x in zip(row, prow)]
                elif piv != det:
                    rows[i] = [piv * a // det for a in row]
            basis[r] = col
            det = piv
        return _ConeKernel(rows, basis, det, tuple([v for v in indices if v not in basis]))


class FaceFan:
    """Complete fan whose maximal cones are cones over the facets of ``base``.

    ``bits[c]`` has bit v set for each vertex v of cone c. Each cone's table
    (:class:`_ConeKernel`) is built once per fan, on its first read
    (:meth:`_kernel`) by exchange from the last table built (``_last``),
    and kept in ``_kernels``. A table has two reads. The 0/1 read
    (:meth:`_read`) fills the fan's one memo, ``_entries``, keyed by a cone
    and a 0/1 pattern on its vertices (:meth:`entry`), which validation
    and enumeration both read, so a pattern is read off its table once per
    fan however many partitions and calls share it. On a nabla's fan most
    entries are written by :func:`nefdual.duality.dual_nef_partition`, read
    off the delta parts, and those cones get no table. The weighted read
    (:meth:`_weighted_read`) serves arbitrary rational values, for
    :func:`pl_from_vertex_values`, and :meth:`cone_functional` the values
    on one cone, from the same weighted sum (:meth:`_weighted_sum`);
    neither keeps anything. Membership in a cone (:meth:`cone_contains`)
    is decided on the cones' normals and offsets.

    The fan keeps its base's ``vertices`` and ``space``, which every read
    uses, and the base's facets as its cones; it refers to the base itself
    through a weak reference (:attr:`base`), while the base holds the fan
    strongly, so the pair forms no cycle. Equality and hashing compare the
    kept vertices and space, as they compared the base.
    """

    __slots__ = ("vertices", "space", "_base", "cones", "bits", "_entries", "_kernels", "_last")

    def __init__(self, base: Polytope):
        if not base.is_full_dimensional:
            raise NotFullDimensional("face fan needs a full-dimensional polytope")
        if not base.has_zero_interior:
            raise ZeroNotInterior("face fan needs the origin strictly inside")
        self.vertices = base.vertices
        self.space = base.space
        self._base = ref(base)
        self.cones = tuple(
            Cone(i, f.normal, f.offset, f.incidence)
            for i, f in enumerate(base.facets)
        )
        self.bits = tuple([sum([1 << v for v in cone.vertex_indices]) for cone in self.cones])
        self._entries: dict = {}
        self._kernels: list = [None] * len(self.cones)
        self._last = None

    @property
    def base(self) -> Polytope:
        """The polytope this is the face fan of: the one it was built on
        while that lives, and afterwards an equal one made from the kept
        vertices and the facets the cones mirror, with no hull."""
        base = self._base()
        if base is None:
            facets = tuple([Facet(c.normal, c.offset, c.vertex_indices) for c in self.cones])
            base = Polytope(self.vertices[0].dim, self.space, self.vertices, (), facets)
        return base

    def _kernel(self, index: int) -> _ConeKernel:
        """The table of cone ``index``, built on first read and kept: one
        exchange from the last table built, or from ``[Vᵀ | I]`` for the
        fan's first."""
        kernel = self._kernels[index]
        if kernel is None:
            parent = self._last or _ConeKernel.identity(self.vertices)
            kernel = self._kernels[index] = self._last = parent.exchange(self.cones[index])
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
        """The entry of cone ``c`` for ``pattern``, from the sum S of the
        table rows whose basis vertex is in the pattern. The pattern has a
        functional iff S is ``D`` times it at the cone's other vertices,
        which is checked first, at those columns alone; only then is S
        summed in full. D divides S's last d entries iff the functional is
        a lattice point, and gt0 and gt1 are the vertices where S is above
        0 and above D. The 0/1 values stand for the values at the points
        themselves only when every vertex is a lattice point."""
        table = self._kernel(c)
        det = table.det
        rows = [row for b, row in zip(table.basis, table.rows) if pattern >> b & 1]
        for v in table.others:
            # Most patterns fail here; a plain loop over the few rows beats sum().
            x = 0
            for row in rows:
                x += row[v]
            if x != (pattern >> v & 1) * det:
                return None
        n = len(self.vertices)
        total = list(map(sum, zip(*rows))) if rows else [0] * (n + len(table.rows))
        dual = total[n:]
        if det != 1:
            if any([x % det for x in dual]):
                return False
            dual = [x // det for x in dual]
        gt0 = gt1 = 0
        for v, x in zip(range(n), total):
            if x > 0:
                gt0 |= 1 << v
                if x > det:
                    gt1 |= 1 << v
        return (Point._from_form(tuple(dual), 1, dual_space(self.space)), gt0, gt1)

    def _weighted_sum(self, c: int, weights, start: int):
        """``(D, S)`` for cone ``c``: S the sum of its table's rows, each
        weighted by its basis vertex's ``int`` weight (``weights`` is indexed
        by vertex), at the columns from ``start`` on; or ``None`` when no
        functional takes the weights, that is, when the sum is not D times
        the weights at the cone's other vertices, which is checked first, at
        those columns alone (:meth:`_weighted_read`)."""
        table = self._kernel(c)
        rows = [(weights[b], row) for b, row in zip(table.basis, table.rows) if weights[b]]
        if any(sum([w * row[v] for w, row in rows]) != table.det * weights[v] for v in table.others):
            return None
        return table.det, [sum([w * row[j] for w, row in rows]) for j in range(start, len(table.rows[0]))]

    def _weighted_read(self, c: int, weights: list, scale: int):
        """The functional u of cone ``c`` and its mask, for values given by
        ``weights``, or ``None`` when no functional takes them.

        ``weights[v]`` is the ``int`` L·value(v)·den(v) of base vertex v,
        L = ``scale`` the LCM of the values' denominators and den(v) the
        vertex's denominator (:func:`_weights`), so that
        ``<_num, u> = weights[v] / L``. The sum S of the table's rows
        weighted by the basis vertices' weights holds D·L·den(v)·<v, u> at
        each vertex v's column, and D·L·u in its last d entries. The basis
        spans the ambient space, so u is the only candidate, and the values
        have a functional on the cone iff S is D times the weights at the
        cone's other vertices, which is checked first, at those columns
        alone (:meth:`_weighted_sum`). Then u is S's last d entries over
        D·L, and the mask {v : S[v] > D·weights[v]} holds the vertices
        where u exceeds the value. Facet vertices that fail to span the
        space are a library bug and raise :class:`InvariantViolation`.
        """
        read = self._weighted_sum(c, weights, 0)
        if read is None:
            return None
        det, total = read
        n = len(weights)
        mask = sum([1 << v for v in range(n) if total[v] > det * weights[v]])
        return Point._from_form(tuple(total[n:]), det * scale, dual_space(self.space)), mask

    def cone_functional(self, index: int, values: tuple):
        """The functional taking ``values`` on the vertices of cone ``index``.

        ``values`` are exact rationals (as :func:`nefdual.linalg.exact_rational`
        takes them; a ``float`` is a ``TypeError``), one per vertex of the
        cone's ``vertex_indices``; another count is a
        :class:`DimensionMismatch`. Returns the solution ``Point``, or
        ``Inconsistent`` when a non-simplicial facet admits none. No linear
        system is solved: only the cone's vertices get weights
        (:func:`_weights`), and the weighted sum (:meth:`_weighted_sum`)
        is formed at the cone's other vertices and the last d columns
        alone: O(d) per other cone vertex and O(d²) for the functional,
        whatever the number of base vertices.
        """
        indices = self.cones[index].vertex_indices
        if len(values) != len(indices):
            raise DimensionMismatch(f"cone {index} has {len(indices)} vertices but {len(values)} values")
        vals = [v if type(v) is int or type(v) is Fraction else exact_rational(v) for v in values]
        weights, scale = _weights(vals, [self.vertices[i] for i in indices])
        read = self._weighted_sum(index, dict(zip(indices, weights)), len(self.vertices))
        if read is None:
            return Inconsistent
        return Point._from_form(tuple(read[1]), read[0] * scale, dual_space(self.space))

    def cone_contains(self, cone: Cone, x: Point) -> bool:
        """Exact membership of ``x`` in the (closed) maximal cone, decided on
        the kept cones' normals and offsets, with no polytope: a nonzero x
        lies in the cone over facet F, ⟨·, n_F⟩ ≥ −a_F, exactly when
        s = ⟨x, n_F⟩ < 0 and x scaled by −a_F / s, a point of F's
        hyperplane, meets every facet inequality, that is
        ⟨x, n_G⟩ a_F ≥ a_G s for every facet G."""
        if x.is_zero():
            return True
        s = pair(x, cone.normal)
        if s >= 0:
            # every nonzero cone point pairs strictly negatively with the facet normal
            return False
        a = cone.offset
        return all(pair(x, c.normal) * a >= c.offset * s for c in self.cones)

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
        return (
            isinstance(other, FaceFan)
            and self.space == other.space
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        # The hash of ("FaceFan", base), from the kept data.
        return hash(("FaceFan", (self.space, self.vertices[0].dim, self.vertices)))

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
    the function on the j-th maximal cone. ``violation`` is the builder's
    verdict on convexity, decided on the per-cone masks
    (:func:`_first_violation`): ``None`` for a convex function, or the
    first (vertex_index, cone_index) where a functional exceeds the value.
    :func:`pl_from_vertex_values` (and so ``+``) reads the masks off the
    weighted read, and validation and enumeration off the fan's 0/1
    entries; nothing here re-decides it. ``is_convex`` and
    :meth:`first_convexity_violation` read it, and ``is_integral`` says
    whether every functional is a lattice point, computed when read: a φᵢ
    that validation or enumeration builds is integral by their decision,
    and building its Δᵢ reads only its functionals' sum, yᵢ's share
    Σ_F u_{i,F} (:func:`nefdual.nefpart._delta_part`), so the test is made
    only for a reader that asks.
    """

    __slots__ = ("fan", "vertex_values", "functionals", "is_convex", "_violation")

    def __init__(
        self,
        fan: FaceFan,
        vertex_values: tuple[Fraction, ...],
        functionals: tuple[Point, ...],
        violation: tuple[int, int] | None,
    ):
        self.fan = fan
        self.vertex_values = vertex_values
        self.functionals = functionals
        self._violation = violation
        self.is_convex = violation is None

    @property
    def is_integral(self) -> bool:
        """Whether every functional is a lattice point, computed when read."""
        return self.first_nonintegral_cone() is None

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
        return pl_from_vertex_values(
            self.fan, [a + b for a, b in zip(self.vertex_values, other.vertex_values)]
        )

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


def _first_violation(masks: list):
    """The witness of a convexity failure, from one vertex bitmask per cone
    holding the vertices where that cone's functional exceeds the function:
    ``(v, c)``, v the lowest vertex in any mask and c the first cone whose
    mask holds it, or ``None`` when every mask is empty. It is the first
    (vertex, cone) met by pairing each vertex in turn with each cone's
    functional."""
    low = reduce(or_, masks, 0)
    if not low:
        return None
    low &= -low
    return low.bit_length() - 1, next(c for c, m in enumerate(masks) if m & low)


def _weights(values: list, verts) -> tuple[list, int]:
    """The ``int`` weight L·value·den of each exact value at the point of
    ``verts`` it belongs to, L the LCM of the values' denominators and den
    the point's, and L (:meth:`FaceFan._weighted_read`)."""
    scale = lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) * p._den for v, p in zip(values, verts)], scale


def pl_from_vertex_values(fan: FaceFan, values: Sequence) -> PLFunction:
    """Extend prescribed vertex values linearly on every maximal cone.

    ``values`` aligns with the canonical vertex order of ``fan.vertices``. On
    each cone the facet's vertices pin down a unique linear functional
    because they span the ambient space; if the (overdetermined) system of a
    non-simplicial facet is unsolvable, raises NotPiecewiseLinear naming the
    first such cone. Values are exact rationals; a ``float`` is a
    ``TypeError``. The values get their weights once (:func:`_weights`),
    and each cone's functional and mask come from the weighted read of its
    table (:meth:`FaceFan._weighted_read`); the function's convexity is
    decided on the masks (:func:`_first_violation`) and handed to the
    :class:`PLFunction`. Validation and enumeration call none of this:
    they decide 0/1 values on the fan's entries (:meth:`FaceFan.entry`).
    """
    verts = fan.vertices
    if len(values) != len(verts):
        raise DimensionMismatch(
            f"{len(verts)} vertices but {len(values)} prescribed values"
        )
    vals = tuple(v if type(v) is Fraction else exact_rational(v) for v in values)
    weights, scale = _weights(vals, verts)
    functionals, masks = [], []
    for cone in fan.cones:
        read = fan._weighted_read(cone.index, weights, scale)
        if read is None:
            raise NotPiecewiseLinear(cone.index)
        functionals.append(read[0])
        masks.append(read[1])
    return PLFunction(fan, vals, tuple(functionals), _first_violation(masks))


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
    space = dual_space(f.fan.space)
    vertices = [
        Point._from_form(tuple([-x for x in num]), den, space)
        for num, den in {(u._num, u._den) for u in f.functionals}
    ]
    return Polytope._from_vertices(vertices, vertices)

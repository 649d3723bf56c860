"""The mirror construction on nef-partitions and its verification suite.

From a nef-partition of a reflexive polytope this module builds the nabla
polytope (hull of the union of the nabla parts), the dual nef-partition
living on it, and exact pass/fail checks for the identities that tie the
two sides together: the polar of each side is the Minkowski sum of the
other side's parts, nabla is reflexive, the pairing relations hold on both
sides, the delta parts are recovered as support polytopes of the dual's PL
functions, and applying the construction twice is the identity.

All checks are exact; a returned CheckResult carries a witness on failure.

Every identity between the two sides is a statement about pairings of a
vertex of the Δ side (Δ, the Δ_j, the dual's nabla parts) with one of the ∇
side (∇, the ∇_i, the dual's delta parts). One pairing table per duality
holds them (:class:`nefdual.nefpart._Pairings`): it is kept on the source
and the dual shares it. Its one interface is the exact minimum of <z, y>
over the points y of a vertex tuple, for each point z of another vertex
tuple or each facet sum ℓ_F of a polytope, the latter with the one point
reaching it and that point's pairings with the polytope's vertices. Each
minimum is computed once per duality: ℓ_F of a facet of ∇ and its minimum
over each Δ_j serve both :func:`_read_off` and the check ∇* = ΣΔ_j, and
the minima at ∇'s vertices serve that check and the dual's
:func:`nefdual.nefpart.check_relations`. Validation never reads the table.

The two Minkowski identities, Δ* = ∇_1 + … + ∇_r and ∇* = Δ_1 + … + Δ_r,
build no hull and no polar: each is decided on the base's own vertices and
facets (:func:`_is_polar_sum`). Support functions add over the summands,
min over Q = Q_1 + … + Q_r of <x, ·> being Σ_j min over Q_j. For a base P
with the origin inside, P* = {y : <v, y> >= -1 at every vertex v of P}, so
Q lies in P* iff Σ_j min_{q ∈ Q_j} <v, q> >= -1 at every vertex v of P.
Polarity swaps P's facets and vertices and reverses their incidence
(Batyrev, alg-geom/9310003): facet F of P gives the
vertex y_F = n_F / e_F of P*, and the facets of P* through y_F are
<v, y> >= -1 for the vertices v of F, with inward normals those v. Their
sum ℓ_F lies in the interior of y_F's normal cone, so y_F is the only point
of P* where <ℓ_F, ·> is as small as <ℓ_F, y_F> = -|F|, and a Q inside P*
reaches that value only if it holds y_F. So Q, once inside, equals P* iff
Σ_j min_{q ∈ Q_j} <ℓ_F, q> = -|F| at every facet F of P. ∇* is lattice iff
every facet offset of ∇ has numerator 1, as facet (n, a/b), n primitive,
gives the vertex n b / a. Only a failing check builds the polar and the
sum, with :func:`nefdual.polytope.minkowski_sum`, for its witness.

Each object is built once per run, and one duality builds one hull: nabla
itself. The dual is validated on nabla like any nef-partition
(:func:`dual_nef_partition`), so its parts are built from their vertices
with no hull. Its own nabla, the hull of the vertices of its nabla parts,
is taken to be the source's Δ when the cover test (:func:`_covers`) shows
that hull would be Δ: the double dual then builds no hull either. The test reads the source's objects and not the
assumption that the source is a valid nef-partition, so a tampered source
gets its double dual's base from a hull.

The dual's PL functions are read off ∇* = Δ_1 + … + Δ_r, with no
elimination on ∇'s fan (:func:`_read_off`). ∇ is reflexive, so the cone
over a facet F of ∇ with normal w is the normal cone of ∇* at its vertex
w: every y in the cone pairs least with w over ∇*. ℓ_F, the sum of F's
vertices, lies inside that cone, so w is the unique minimiser of
<·, ℓ_F> over ∇*. A linear function is least on a Minkowski sum exactly
at sums of points where it is least on each summand, so the minimiser
w_j of <·, ℓ_F> over Δ_j is unique too, w = w_1 + … + w_r, and every y
in the cone pairs least with w_j over Δ_j: ψ_j(y) = -min <Δ_j, y> is
<y, -w_j> on the whole cone. This rests on ∇* = Δ_1 + … + Δ_r, one of the
identities under test, so -w_j is only a candidate. It is taken when
<y, -w_j> equals ψ_j's indicator value at every vertex y of F; F's
vertices span the space, so it is then the unique solution of the cone's
system, the very ``Point`` the cone's table would give. Its entry in the
fan's memo, the masks of the vertices where it exceeds 0 and 1 included,
comes from the same pairings, and validation of the dual reads it there.
A cone where the minimiser is not unique or a pairing misses is left to the
cone's table, so a tampered source gets the same ψ_j as with a table on
every cone. On a cone read off, -u = w_j is a vertex of Δ_j by
construction.

The dual is not audited: once ``_decide`` accepts it on ∇, the argument
of :mod:`nefdual.nefpart` applies with ∇ in place of Δ, since ``_decide``
accepts only on a reflexive ∇, on which Σψ is 1 at every vertex. Each
identity between the two sides is checked once, by one of the six checks:
ψ_i against Δ_i by :func:`verify_delta_parts_from_dual`, φ_i against ∇_i
on each side by :func:`nefdual.nefpart.check_relations`. The dual's
relation matrix, the transpose of the source's on a valid run, is kept as
the check of both sides. The involution check reuses the source as the
double dual when the double dual's base and labeled parts equal the
source's: validation is a deterministic function of the vertex list and
the labeled parts, so the result would be equal to the source. See
:func:`verify_involution`.
"""

from __future__ import annotations

from functools import reduce
from typing import Mapping, NamedTuple, Sequence

from .errors import InvariantViolation
from .fan import face_fan
from .nefpart import NefPartition, Rejection, _pairable, _pairings, check_relations, validate_partition
from .polytope import Polytope, hull, minkowski_sum, origin


class CheckResult(NamedTuple):
    """Outcome of one exact verification."""

    name: str
    passed: bool
    witness: object = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


class DualityResult(NamedTuple):
    """Everything run_full_duality computed: both sides plus the check record."""

    source: NefPartition
    nabla: Polytope
    dual: NefPartition
    checks: Mapping[str, CheckResult]

    @property
    def psi(self):
        """The dual side's PL functions, one per part."""
        return self.dual.phi

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def nabla(np: NefPartition) -> Polytope:
    """Hull of the union of the nabla parts.

    Built once per nef-partition; later calls return the same object. On a
    dual made by :func:`dual_nef_partition` it is the source's base, kept
    there when the cover test shows the hull would equal it. It sits inside
    the polar of ``np.delta`` with no check here: a hull's vertices are a
    subset of its input points, and each vertex -u of nabla part i lies in
    that polar, as <v, -u> >= -phi_i(v) >= -1 at every vertex v of
    ``np.delta`` by the convexity that ``_decide`` checked (see
    :mod:`nefdual.nefpart`).
    """
    if np._nabla is None:
        nb = hull([v for part in np.nabla_parts for v in part.vertices])
        object.__setattr__(np, "_nabla", nb)
    return np._nabla


def _is_polar_sum(base: Polytope, summands: Sequence[Polytope], table) -> bool:
    """Whether the Minkowski sum Q of ``summands`` is the polar of ``base``.

    Decided on the minima that ``table``, a
    :class:`nefdual.nefpart._Pairings`, gives over each summand's vertices:
    of <v, ·> at each vertex v of ``base``, and of <ℓ_F, ·> at each facet F
    (see the module docstring), with no polar and no sum built. A summand
    in the space of ``base`` or of another dimension makes the answer
    ``False``. Raises what :meth:`nefdual.polytope.Polytope.polar_dual`
    raises when ``base`` has no polar.
    """
    if not base.has_zero_interior:
        base.polar_dual()  # raises, as base has no polar
    if not all(_pairable(base, q) for q in summands):
        return False
    lows = [table.lows(base.vertices, q.vertices) for q in summands]
    if any(sum(col) < -1 for col in zip(*lows)):
        return False
    answers = [table.facet_lows(base, q.vertices) for q in summands]
    return all(sum([m for m, _, _ in col]) == -len(f.incidence) for col, f in zip(zip(*answers), base.facets))


def _sum_check(np, name, key, base, summands, lattice=True, detail="") -> CheckResult:
    """The check ``name`` that the polar of ``base`` is lattice (as
    ``lattice`` says) and the Minkowski sum of ``summands``, decided by
    :func:`_is_polar_sum` on the table of ``np``. Only a failure builds the
    polar and the sum, for its witness, the polar's vertices under ``key``."""
    if lattice and _is_polar_sum(base, summands, _pairings(np)):
        return CheckResult(name, True, detail=detail)
    polar = [v.coords for v in base.polar_dual().vertices]
    total = [v.coords for v in reduce(minkowski_sum, summands).vertices]
    return CheckResult(name, False, witness={key: polar, "sum_vertices": total})


def verify_polar_is_nabla_sum(np: NefPartition) -> CheckResult:
    """Polar of the base polytope equals the Minkowski sum of the nabla parts.

    Decided on the base's vertices and facets by :func:`_is_polar_sum`; the
    polar and the sum are built only for a failure's witness.
    """
    return _sum_check(np, "polar_is_nabla_sum", "polar_vertices", np.delta, np.nabla_parts)


def verify_nabla_polar_is_delta_sum(np: NefPartition) -> CheckResult:
    """Polar of nabla equals the Minkowski sum of the delta parts, and is lattice.

    Decided like :func:`verify_polar_is_nabla_sum`, on nabla's vertices and
    facets; the polar is lattice iff every facet offset of nabla has
    numerator 1.
    """
    nb = nabla(np)
    return _sum_check(
        np, "nabla_polar_is_delta_sum", "nabla_polar_vertices", nb, np.delta_parts,
        all(f.offset.numerator == 1 for f in nb.facets), "nabla polar is a lattice polytope",
    )


def verify_nabla_reflexive(np: NefPartition) -> CheckResult:
    nb = nabla(np)
    if nb.is_reflexive():
        return CheckResult("nabla_reflexive", True)
    return CheckResult(
        "nabla_reflexive",
        False,
        witness=[v.coords for v in nb.vertices],
    )


def _covers(delta: Polytope, parts: Sequence[Polytope]) -> bool:
    """Whether the hull of the vertices of ``parts`` is ``delta``.

    It is exactly when the parts' nonzero vertices are delta's vertices and
    0, which a part may add, lies in delta.
    """
    zero = origin(delta.ambient_dim, delta.space)
    covered = {v for part_poly in parts for v in part_poly.vertices if not v.is_zero()}
    return covered == set(delta.vertices) and delta.contains(zero)


def _dual_parts(np: NefPartition, nb: Polytope) -> tuple[frozenset[int], ...]:
    """Part i of the dual: the indices in nabla of the nonzero vertices of
    nabla part i, in the labels of ``np``."""
    index_of = {v: i for i, v in enumerate(nb.vertices)}
    parts = []
    for i, part_poly in enumerate(np.nabla_parts):
        idxs = set()
        for v in part_poly.vertices:
            if v.is_zero():
                continue
            if v not in index_of:
                raise InvariantViolation(
                    f"nonzero vertex of nabla part {i} is not a vertex of nabla",
                    witness=v,
                )
            idxs.add(index_of[v])
        parts.append(frozenset(idxs))
    return tuple(parts)


def _read_off(np: NefPartition, nb: Polytope, parts) -> None:
    """Put the entry of each psi_j cone pattern that reads off Δ_j into the
    memo of ``face_fan(nb)`` (:meth:`nefdual.fan.FaceFan.entry`), leaving
    the other cones to their tables.

    On cone F, with ℓ_F the sum of F's vertices, w_j is the unique minimiser
    of <·, ℓ_F> over the vertices of ``np.delta_parts[j]``, and u = -w_j is
    taken when <y, -w_j> is psi_j's indicator value at every vertex y of F
    (see the module docstring). w_j and its pairings with ``nb``'s vertices
    come with the minimum over Δ_j that the duality's table gives at ℓ_F
    (:func:`nefdual.nefpart._pairings`), the very answer that
    :func:`verify_nabla_polar_is_delta_sum` reads, and they give the whole
    entry: ``(u, gt0, gt1)`` with gt0 = {v : <v, w_j> < 0} and
    gt1 = {v : <v, w_j> < -1}. A tie, a missed pairing, a w_j off the
    lattice (only a tampered source has one) or a part of the other space
    or another dimension leaves the cone to its table.
    """
    fan = face_fan(nb)
    table = _pairings(np)
    for part, dp in zip(parts, np.delta_parts):
        if _pairable(nb, dp):
            s = sum([1 << i for i in part])
            answers = table.facet_lows(nb, dp.vertices)
            for cone, bits, (_, w, pairings) in zip(fan.cones, fan.bits, answers):
                pattern = s & bits
                if w is not None and w.is_lattice() and all(
                    pairings[i] == -(pattern >> i & 1) for i in cone.vertex_indices
                ):
                    gt0 = sum([1 << v for v, x in enumerate(pairings) if x < 0])
                    gt1 = sum([1 << v for v, x in enumerate(pairings) if x < -1])
                    fan._entries[cone.index, pattern] = (-w, gt0, gt1)


def dual_nef_partition(np: NefPartition) -> NefPartition:
    """The mirror nef-partition on the nabla polytope.

    Part i of the dual collects the nonzero vertices of nabla part i; the
    origin, which can be a genuine vertex of a nabla part, carries no
    indicator weight and is excluded. The partition is validated on nabla
    by :func:`nefdual.nefpart.validate_partition`, and a rejection raises
    ``InvariantViolation``. Its fan entries are read off the source's delta
    parts first (:func:`_read_off`), so validation finds them in the memo,
    and only a cone where that fails gets a table. The dual's own nabla is
    ``np.delta`` when the cover test shows the hull would be that (see the
    module docstring), and it shares the source's pairing table. Nothing is checked against the source here:
    :func:`verify_delta_parts_from_dual` checks psi against the delta parts.

    :func:`run_full_duality` calls this once; :func:`verify_involution`
    calls it on the dual only when the double dual cannot be the source.
    """
    nb = nabla(np)
    parts = _dual_parts(np, nb)
    if nb.is_reflexive():
        _read_off(np, nb, parts)
    dual = validate_partition(nb, parts)
    if isinstance(dual, Rejection):
        raise InvariantViolation("dual partition failed validation", witness=str(dual))
    if _covers(np.delta, dual.nabla_parts):
        object.__setattr__(dual, "_nabla", np.delta)
    object.__setattr__(dual, "_pairings", _pairings(np))
    return dual


def verify_delta_parts_from_dual(
    np: NefPartition, dual: NefPartition | None = None
) -> CheckResult:
    """Each delta part is recovered as the support polytope of the dual's psi_i.

    This is the one check of psi against the source's delta parts. psi_i is
    convex, as ``_decide`` decided it. If its support polytope is delta part
    i, then psi_i(y) = max <y, u> over its cone functionals u, which is
    -min <delta part i, y> at every y, and every -u is a vertex of delta
    part i. So psi_i disagreeing with the pairing formula at a vertex, or a
    -u that is no vertex of delta part i, each make this check fail, with
    the recovered and expected vertices as its witness. A ``dual`` with
    another number of parts fails it too, with both counts as its witness.
    """
    if dual is None:
        dual = dual_nef_partition(np)
    if dual.r != np.r:
        return CheckResult("delta_parts_from_dual", False, witness={"parts": np.r, "dual_parts": dual.r})
    for i in range(np.r):
        if dual.nabla_parts[i] != np.delta_parts[i]:
            return CheckResult(
                "delta_parts_from_dual",
                False,
                witness={
                    "part": i,
                    "recovered": [v.coords for v in dual.nabla_parts[i].vertices],
                    "expected": [v.coords for v in np.delta_parts[i].vertices],
                },
            )
    return CheckResult("delta_parts_from_dual", True)


def verify_involution(np: NefPartition, dual: NefPartition | None = None) -> CheckResult:
    """Applying the construction twice returns the original datum.

    The base polytopes must agree exactly and the part families must agree
    as unlabeled families of vertex-index sets.

    The double dual's base, ``nabla(dual)``, is ``np.delta`` itself when
    :func:`dual_nef_partition` kept it there, and a hull otherwise; its
    labeled parts are read off that base. The double dual is what
    ``validate_partition`` gives on that base and those labeled parts, and
    validation is deterministic (a polytope's facets follow from its
    vertices). So when the base equals ``np.delta`` and the labeled parts
    equal ``np.parts``, the double dual would be ``np`` itself, and ``np``
    is reused instead of validated again. Otherwise the double dual is
    built by :func:`dual_nef_partition`, and fails as it would. This check
    compares bases and unlabeled parts only. What the reuse skips, the
    double dual's PL functions against the delta parts of ``dual``, is the
    phi check of :func:`nefdual.nefpart.check_relations` on ``np`` when
    ``dual`` is its own: the dual's delta parts are then the source's nabla
    parts.
    """
    if dual is None:
        dual = dual_nef_partition(np)
    nb = nabla(dual)
    if nb == np.delta and _dual_parts(dual, nb) == np.parts:
        double = np
    else:
        double = dual_nef_partition(dual)
    if double.delta != np.delta:
        return CheckResult(
            "involution",
            False,
            witness={
                "original_vertices": [v.coords for v in np.delta.vertices],
                "double_dual_vertices": [v.coords for v in double.delta.vertices],
            },
        )
    if double.unlabeled() != np.unlabeled():
        return CheckResult(
            "involution",
            False,
            witness={
                "original_parts": sorted(sorted(p) for p in np.parts),
                "double_dual_parts": sorted(sorted(p) for p in double.parts),
            },
        )
    return CheckResult("involution", True)


def run_full_duality(np: NefPartition) -> DualityResult:
    """Build the dual datum and run every check, collecting exact results."""
    nb = nabla(np)
    dual = dual_nef_partition(np)

    rel_src = check_relations(np)
    rel_dual = check_relations(dual)
    relations = CheckResult(
        "pairing_relations",
        bool(rel_src) and bool(rel_dual),
        witness=None
        if bool(rel_src) and bool(rel_dual)
        else {
            "source_matrix": [[str(x) for x in row] for row in rel_src.matrix],
            "dual_matrix": [[str(x) for x in row] for row in rel_dual.matrix],
        },
        detail="pairing minima on both sides",
    )

    checks = {
        "polar_is_nabla_sum": verify_polar_is_nabla_sum(np),
        "nabla_polar_is_delta_sum": verify_nabla_polar_is_delta_sum(np),
        "nabla_reflexive": verify_nabla_reflexive(np),
        "pairing_relations": relations,
        "delta_parts_from_dual": verify_delta_parts_from_dual(np, dual),
        "involution": verify_involution(np, dual),
    }
    return DualityResult(source=np, nabla=nb, dual=dual, checks=checks)

"""Finite pseudometric spaces and their metric identifications.

A pseudometric allows distinct points at distance zero. Collapsing the
zero-distance classes gives the metric identification; the induced distance
does not depend on representatives, and this module re-verifies that instead
of assuming it. A pseudoisometry is a distance-preserving map whose image
meets every zero class of the target; two spaces admit one exactly when
their metric identifications are isometric, which is what the map
searches here decide for small spaces, by depth-first search in
brute-force order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalInvariantError, SearchBudgetExceeded
from .rationals import fmt, rat

DEFAULT_SEARCH_BOUND = 6


# ---------------------------------------------------------------------------
# Spaces


@dataclass(frozen=True)
class FinitePseudometricSpace:
    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown label {label!r}") from None

    def d(self, a: str, b: str) -> Fraction:
        return self.dist[self.index(a)][self.index(b)]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class QuotientMetricSpace:
    """Metric identification: blocks are zero classes of the source."""

    space: FinitePseudometricSpace
    blocks: tuple[tuple[str, ...], ...]
    projection: dict  # source label -> block label


def _integer_units(table):
    """The table scaled by the lcm of its denominators, as ints, when every
    entry is an int or a Fraction; else None. Scaling by a positive number
    keeps every sign, equality and triangle, so the checks read the same
    on it, in int arithmetic."""
    entries = [v for row in table for v in row]
    if not all(type(v) is int or type(v) is Fraction for v in entries):
        return None
    den = math.lcm(*(v.denominator for v in entries))
    return [[v.numerator * (den // v.denominator) for v in row]
            for row in table]


def validate_pseudometric(labels, table) -> ValidationReport:
    """Check shape, symmetry, nonnegativity, zero diagonal, triangles."""
    labels = tuple(labels)
    problems = []
    if len(set(labels)) != len(labels):
        problems.append("duplicate labels")
    n = len(labels)
    if len(table) != n or any(len(row) != n for row in table):
        problems.append("table is not square of matching size")
        return ValidationReport(False, tuple(problems))
    table = _integer_units(table) or table
    for i in range(n):
        if table[i][i] != 0:
            problems.append(f"nonzero diagonal at {labels[i]}")
        for j in range(n):
            if table[i][j] < 0:
                problems.append(f"negative entry at ({labels[i]},{labels[j]})")
            if table[i][j] != table[j][i]:
                problems.append(f"asymmetric at ({labels[i]},{labels[j]})")
    if not problems:
        for i, j, k in itertools.combinations(range(n), 3):
            for a, b, c in ((i, j, k), (j, i, k), (i, k, j)):
                if table[a][b] > table[a][c] + table[c][b]:
                    problems.append(
                        "triangle violated at "
                        f"({labels[a]},{labels[b]},{labels[c]})"
                    )
    return ValidationReport(not problems, tuple(problems))


def make_space(labels, table) -> FinitePseudometricSpace:
    """Validating constructor; raises InputError with the report attached."""
    labels = tuple(str(x) for x in labels)
    table = tuple(tuple(rat(v) for v in row) for row in table)
    report = validate_pseudometric(labels, table)
    if not report.ok:
        raise InputError("invalid pseudometric: " + "; ".join(report.violations))
    return FinitePseudometricSpace(labels, table)


def space_from_points(points: dict) -> FinitePseudometricSpace:
    """Space from labeled points on the rational line (handy in tests)."""
    labels = tuple(points)
    vals = [rat(points[k]) for k in labels]
    table = tuple(tuple(abs(u - v) for v in vals) for u in vals)
    return FinitePseudometricSpace(labels, table)


# ---------------------------------------------------------------------------
# Zero classes and metric identification


def zero_classes(space: FinitePseudometricSpace) -> tuple[tuple[str, ...], ...]:
    """Partition labels by distance zero (union-find, then re-check)."""
    n = len(space.labels)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if space.dist[i][j] == 0:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    blocks = tuple(
        tuple(space.labels[i] for i in members)
        for _, members in sorted(groups.items(), key=lambda kv: min(kv[1]))
    )
    # transitivity re-check: within a block every pair must be at zero
    for block in blocks:
        for a, b in itertools.combinations(block, 2):
            if space.d(a, b) != 0:
                raise InternalInvariantError(
                    f"zero relation not transitive at ({a},{b})"
                )
    return blocks


def _block_label(block: tuple[str, ...]) -> str:
    return min(block)


def metric_identify(space: FinitePseudometricSpace) -> QuotientMetricSpace:
    """Quotient by zero classes; induced distance is representative-checked."""
    blocks = zero_classes(space)
    names = [_block_label(b) for b in blocks]
    k = len(blocks)
    table = [[Fraction(0)] * k for _ in range(k)]
    for p in range(k):
        for q in range(p + 1, k):
            vals = {space.d(a, b) for a in blocks[p] for b in blocks[q]}
            if len(vals) != 1:
                raise InternalInvariantError(
                    f"quotient distance depends on representatives for "
                    f"blocks {names[p]!r},{names[q]!r}: {sorted(vals)}"
                )
            (v,) = vals
            if v == 0:
                raise InternalInvariantError(
                    "distinct zero classes at distance zero"
                )
            table[p][q] = table[q][p] = v
    quotient = FinitePseudometricSpace(tuple(names), tuple(map(tuple, table)))
    projection = {}
    for block in blocks:
        for member in block:
            projection[member] = _block_label(block)
    return QuotientMetricSpace(quotient, blocks, projection)


def closure_of_subset(space: FinitePseudometricSpace, subset) -> tuple[str, ...]:
    """Closure of a label subset = union of the zero classes it meets."""
    subset = tuple(subset)
    if not subset:
        raise InputError("closure of empty subset")
    for s in subset:
        space.index(s)
    out = [
        x
        for x in space.labels
        if any(space.d(x, s) == 0 for s in subset)
    ]
    return tuple(out)


# ---------------------------------------------------------------------------
# Pseudoisometries


def is_pseudoisometry(mapping: dict, src: FinitePseudometricSpace,
                      dst: FinitePseudometricSpace) -> bool:
    """Distance preserving, with image meeting every zero class of dst."""
    for x in src.labels:
        if x not in mapping:
            raise InputError(f"map not defined at {x!r}")
        dst.index(mapping[x])
    for a, b in itertools.combinations_with_replacement(src.labels, 2):
        if dst.d(mapping[a], mapping[b]) != src.d(a, b):
            return False
    image = {mapping[x] for x in src.labels}
    for y in dst.labels:
        if not any(dst.d(y, im) == 0 for im in image):
            return False
    return True


def _first_map(src: FinitePseudometricSpace, dst: FinitePseudometricSpace,
               injective: bool):
    """The first src -> dst map in brute-force (lexicographic) order that
    preserves every distance and meets every zero class of dst, injective
    when asked, or None.

    Depth-first: src points are assigned in label order and dst points
    tried in label order, so the first complete map is the one the full
    enumeration reaches first. A partial map is dropped at the first
    distance it breaks, or once fewer src points remain than zero classes
    of dst left to meet. A bijection meets every class, so that count never
    drops an injective map between spaces of equal size.
    """
    n, m = len(src), len(dst)
    sd, dd = src.dist, dst.dist
    classes = zero_classes(dst)
    class_of = [next(k for k, block in enumerate(classes) if y in block)
                for y in dst.labels]
    met = [0] * len(classes)  # images in each zero class of dst
    image: list[int] = []

    def extend(i, unmet):
        if i == n:
            return unmet == 0
        for y in range(m):
            if injective and y in image:
                continue
            if any(dd[image[j]][y] != sd[j][i] for j in range(i)):
                continue
            left = unmet - (met[class_of[y]] == 0)
            if left > n - i - 1:
                continue
            image.append(y)
            met[class_of[y]] += 1
            if extend(i + 1, left):
                return True
            met[class_of[y]] -= 1
            image.pop()
        return False

    found = extend(0, len(classes))
    del extend  # it refers to itself: free it now, not at a collection
    if not found:
        return None
    return dict(zip(src.labels, (dst.labels[y] for y in image)))


def exists_pseudoisometry(src: FinitePseudometricSpace,
                          dst: FinitePseudometricSpace,
                          bound: int = DEFAULT_SEARCH_BOUND):
    """Depth-first map search in brute-force order; a witness dict or None.

    Returns the first pseudoisometry of the |dst|**|src| maps in
    lexicographic order, as the full enumeration would, and re-checks it
    with is_pseudoisometry. Both sizes are capped.
    """
    if len(src) > bound or len(dst) > bound:
        raise SearchBudgetExceeded(
            f"space size exceeds search bound {bound}"
        )
    mapping = _first_map(src, dst, injective=False)
    if mapping is not None and not is_pseudoisometry(mapping, src, dst):
        raise InternalInvariantError(
            f"map search returned a non-pseudoisometry: {mapping}"
        )
    return mapping


def exists_isometry(a: FinitePseudometricSpace, b: FinitePseudometricSpace,
                    bound: int = 8):
    """Bijective distance-preserving map between metric spaces, or None.

    Prunes by cardinality and by the sorted distance multiset, then runs a
    depth-first search in brute-force order: the first isometry among the
    permutations of b's labels in lexicographic order.
    """
    if len(a) != len(b):
        return None
    if len(a) > bound:
        raise SearchBudgetExceeded(f"space size exceeds search bound {bound}")
    multiset_a = sorted(
        a.dist[i][j] for i in range(len(a)) for j in range(i + 1, len(a))
    )
    multiset_b = sorted(
        b.dist[i][j] for i in range(len(b)) for j in range(i + 1, len(b))
    )
    if multiset_a != multiset_b:
        return None
    return _first_map(a, b, injective=True)


# ---------------------------------------------------------------------------
# Serialization


def space_to_json(space: FinitePseudometricSpace) -> str:
    payload = {
        "labels": list(space.labels),
        "dist": [[fmt(v) for v in row] for row in space.dist],
    }
    return json.dumps(payload, sort_keys=True)


def space_from_json(text: str) -> FinitePseudometricSpace:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad space JSON: {exc}") from exc
    if not isinstance(payload, dict) or "labels" not in payload or "dist" not in payload:
        raise InputError("space JSON needs 'labels' and 'dist'")
    return make_space(payload["labels"], payload["dist"])

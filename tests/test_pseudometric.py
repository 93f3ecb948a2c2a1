"""Validation, zero-class quotients, and map searches on finite spaces.

Oracles here are deliberately naive: connected components by BFS over the
zero-distance graph, quotient distances read off arbitrary representatives,
isometry search by trying every bijection.  The library must agree with
them on seeded random inputs.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import farfield.pseudometric as pm
from farfield import (
    FinitePseudometricSpace,
    InputError,
    SearchBudgetExceeded,
    closure_of_subset,
    exists_isometry,
    exists_pseudoisometry,
    is_pseudoisometry,
    make_space,
    metric_identify,
    space_from_json,
    space_from_points,
    space_to_json,
    validate_pseudometric,
    zero_classes,
)


# ---------------------------------------------------------------------------
# Generators


def random_pseudometric(rng, max_points=5, zero_bias=3):
    """Random valid pseudometric by shortest-path repair of a random
    symmetric seed table.  zero_bias controls how often an off-diagonal
    seed is 0, which is what produces nontrivial zero classes."""
    n = rng.randint(1, max_points)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.randrange(zero_bias) == 0:
                v = Fraction(0)
            else:
                v = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
            d[i][j] = d[j][i] = v
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[j][i] = d[i][k] + d[k][j]
    labels = tuple(f"p{i}" for i in range(n))
    return make_space(labels, tuple(tuple(row) for row in d))


def relabel_shuffle_twin(space, rng, prefix):
    """Same quotient, different presentation: permute, rename, and append
    up to two zero-distance twins of existing points."""
    order = list(range(len(space)))
    rng.shuffle(order)
    labels = [f"{prefix}{i}" for i in range(len(order))]
    dist = [[space.dist[order[i]][order[j]] for j in range(len(order))]
            for i in range(len(order))]
    for extra in range(rng.randint(0, 2)):
        src = rng.randrange(len(order))
        row = [dist[src][j] for j in range(len(dist))]
        for j, r in enumerate(dist):
            r.append(row[j])
        row.append(Fraction(0))
        dist.append(row)
        labels.append(f"{prefix}t{extra}")
    return make_space(tuple(labels), tuple(tuple(r) for r in dist))


# ---------------------------------------------------------------------------
# Oracles


def bfs_zero_components(space):
    seen = set()
    comps = []
    for start in range(len(space)):
        if start in seen:
            continue
        stack = [start]
        comp = []
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            comp.append(i)
            stack.extend(
                j for j in range(len(space))
                if j not in seen and space.dist[i][j] == 0
            )
        comps.append(tuple(sorted(space.labels[i] for i in comp)))
    return tuple(sorted(comps))


def brute_pseudoisometry(src, dst):
    """First map of the full |dst|**|src| enumeration (itertools.product
    order) that preserves every distance and meets every zero class."""
    pairs = list(itertools.combinations(range(len(src)), 2))
    for assignment in itertools.product(range(len(dst)), repeat=len(src)):
        if all(dst.dist[assignment[i]][assignment[j]] == src.dist[i][j]
               for i, j in pairs) and all(
                   any(dst.dist[y][x] == 0 for x in assignment)
                   for y in range(len(dst))):
            return dict(zip(src.labels,
                            (dst.labels[y] for y in assignment)))
    return None


def brute_isometry(a, b):
    if len(a) != len(b):
        return None
    for perm in itertools.permutations(range(len(b))):
        if all(
            b.dist[perm[i]][perm[j]] == a.dist[i][j]
            for i in range(len(a))
            for j in range(i + 1, len(a))
        ):
            return perm
    return None


# ---------------------------------------------------------------------------
# Validation


def test_validate_accepts_valid_table():
    rep = validate_pseudometric(("a", "b"), ((0, 1), (1, 0)))
    assert rep.ok
    assert rep.violations == ()


def test_validate_rejects_nonzero_diagonal():
    rep = validate_pseudometric(("a", "b"), ((1, 1), (1, 0)))
    assert not rep.ok


def test_validate_rejects_asymmetry():
    rep = validate_pseudometric(("a", "b"), ((0, 1), (2, 0)))
    assert not rep.ok


def test_validate_rejects_negative_entry():
    rep = validate_pseudometric(("a", "b"), ((0, -1), (-1, 0)))
    assert not rep.ok


def test_validate_rejects_triangle_violation():
    table = ((0, 1, 5), (1, 0, 1), (5, 1, 0))
    rep = validate_pseudometric(("a", "b", "c"), table)
    assert not rep.ok
    assert any("triangle" in v for v in rep.violations)


def fraction_validation(labels, table):
    """validate_pseudometric's checks read off the table as given, in the
    arithmetic of its entries."""
    labels = tuple(labels)
    problems = []
    if len(set(labels)) != len(labels):
        problems.append("duplicate labels")
    n = len(labels)
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
                    problems.append("triangle violated at "
                                    f"({labels[a]},{labels[b]},{labels[c]})")
    return not problems, tuple(problems)


@st.composite
def tables(draw):
    """(labels, table) of 1-7 points: distances between points on the
    line, some entries then overwritten (one side or both), in ints,
    Fractions or a mix of the two; now and then a repeated label."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("int", "fraction", "mixed")))
    value = (st.integers(-3, 12) if kind == "int" else
             st.fractions(min_value=-3, max_value=12, max_denominator=12))
    points = draw(st.lists(value, min_size=n, max_size=n))
    table = [[abs(u - v) for v in points] for u in points]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(value)
        if draw(st.booleans()):
            table[j][i] = table[i][j]
    if kind == "mixed":
        table = [[int(v) if v.denominator == 1 else v for v in row]
                 for row in table]
    labels = [f"p{i}" for i in range(n)]
    if n > 1 and draw(st.integers(0, 5)) == 0:
        labels[-1] = labels[0]
    return labels, table


@settings(max_examples=300, deadline=None)
@given(case=tables())
def test_validate_matches_the_fraction_triangle_loop(case):
    labels, table = case
    rep = validate_pseudometric(labels, table)
    assert (rep.ok, rep.violations) == fraction_validation(labels, table)


def test_make_space_raises_on_invalid():
    with pytest.raises(InputError):
        make_space(("a", "b"), ((0, 1), (2, 0)))


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        make_space(("a", "a"), ((0, 0), (0, 0)))


# ---------------------------------------------------------------------------
# Zero classes and the quotient


def test_zero_classes_match_bfs_oracle():
    rng = random.Random(90411)
    for _ in range(120):
        space = random_pseudometric(rng)
        got = tuple(sorted(tuple(sorted(b)) for b in zero_classes(space)))
        assert got == bfs_zero_components(space)


def test_quotient_is_a_metric_space():
    rng = random.Random(271828)
    for _ in range(80):
        space = random_pseudometric(rng)
        q = metric_identify(space)
        rep = validate_pseudometric(q.space.labels, q.space.dist)
        assert rep.ok
        for i in range(len(q.space)):
            for j in range(i + 1, len(q.space)):
                assert q.space.dist[i][j] > 0


def test_quotient_distance_independent_of_representatives():
    rng = random.Random(5150)
    for _ in range(60):
        space = random_pseudometric(rng)
        q = metric_identify(space)
        block_of = {}
        for bi, block in enumerate(q.blocks):
            for lbl in block:
                block_of[lbl] = bi
        for x in space.labels:
            for y in space.labels:
                bx, by = block_of[x], block_of[y]
                assert space.d(x, y) == q.space.dist[bx][by]


def test_projection_covers_every_label():
    space = space_from_points({"a": 0, "b": Fraction(0), "c": 1})
    q = metric_identify(space)
    assert set(q.projection) == {"a", "b", "c"}
    assert q.projection["a"] == q.projection["b"]
    assert q.projection["c"] != q.projection["a"]
    assert len(q.space) == 2


def test_closure_matches_min_distance_oracle():
    rng = random.Random(777)
    for _ in range(60):
        space = random_pseudometric(rng)
        k = rng.randint(1, len(space))
        subset = rng.sample(list(space.labels), k)
        got = set(closure_of_subset(space, subset))
        want = {
            y for y in space.labels
            if min(space.d(y, s) for s in subset) == 0
        }
        assert got == want


def test_closure_is_idempotent():
    rng = random.Random(1234)
    for _ in range(40):
        space = random_pseudometric(rng)
        subset = [space.labels[0]]
        once = closure_of_subset(space, subset)
        twice = closure_of_subset(space, once)
        assert sorted(once) == sorted(twice)


# ---------------------------------------------------------------------------
# Map searches


def test_pseudoisometry_needs_dense_image():
    src = space_from_points({"a": 0})
    dst_far = make_space(("u", "v"), ((0, 1), (1, 0)))
    dst_near = make_space(("u", "v"), ((0, 0), (0, 0)))
    assert exists_pseudoisometry(src, dst_far) is None
    found = exists_pseudoisometry(src, dst_near)
    assert found is not None
    assert is_pseudoisometry(found, src, dst_near)


def test_pseudoisometry_agrees_with_quotient_isometry():
    # the identification theorem, checked on random pairs: a distance
    # preserving zero-dense map exists iff the quotients are isometric
    rng = random.Random(424242)
    spaces = [random_pseudometric(rng, max_points=4) for _ in range(40)]
    for i in range(0, len(spaces) - 1, 2):
        a, b = spaces[i], spaces[i + 1]
        qa, qb = metric_identify(a), metric_identify(b)
        lib = exists_pseudoisometry(a, b) is not None
        oracle = brute_isometry(qa.space, qb.space) is not None
        assert lib == oracle


def test_pseudoisometry_found_for_disguised_copies():
    rng = random.Random(31337)
    for _ in range(25):
        a = random_pseudometric(rng, max_points=4)
        b = relabel_shuffle_twin(a, rng, "q")
        mapping = exists_pseudoisometry(a, b)
        assert mapping is not None
        assert is_pseudoisometry(mapping, a, b)


def test_exists_isometry_agrees_with_permutation_oracle():
    rng = random.Random(9009)
    for _ in range(40):
        a = metric_identify(random_pseudometric(rng, max_points=4)).space
        b = metric_identify(random_pseudometric(rng, max_points=4)).space
        lib = exists_isometry(a, b)
        oracle = brute_isometry(a, b)
        assert (lib is None) == (oracle is None)
        if lib is not None:
            assert all(b.d(lib[x], lib[y]) == a.d(x, y)
                       for x in a.labels for y in a.labels)


@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_searches_return_the_brute_force_map(seed, twin):
    # the depth-first searches keep brute-force order, so they must return
    # the very map the full enumeration reaches first, not just some map
    rng = random.Random(seed)
    if twin:
        a = random_pseudometric(rng, max_points=4)
        b = relabel_shuffle_twin(a, rng, "q")
    else:
        a = random_pseudometric(rng, max_points=6)
        b = random_pseudometric(rng, max_points=6)
    for src, dst in ((a, b), (b, a)):
        assert exists_pseudoisometry(src, dst) == brute_pseudoisometry(
            src, dst)
        perm = brute_isometry(src, dst)
        assert exists_isometry(src, dst) == (
            None if perm is None
            else {x: dst.labels[perm[i]] for i, x in enumerate(src.labels)})
    qa, qb = metric_identify(a).space, metric_identify(b).space
    perm = brute_isometry(qa, qb)
    assert exists_isometry(qa, qb) == (
        None if perm is None
        else {x: qb.labels[perm[i]] for i, x in enumerate(qa.labels)})


def test_far_negative_search_checks_no_map(monkeypatch):
    # no distance of a occurs in b, so every partial map breaks at its
    # second point: the search must give up without checking a full map
    # (the full enumeration checked all 6**6 = 46,656)
    checked = []
    real = pm.is_pseudoisometry

    def counting(mapping, src, dst):
        checked.append(mapping)
        return real(mapping, src, dst)

    monkeypatch.setattr(pm, "is_pseudoisometry", counting)
    a = space_from_points({f"a{i}": i for i in range(6)})
    b = space_from_points({f"b{i}": 10 * i for i in range(6)})
    assert exists_pseudoisometry(a, b) is None
    assert checked == []
    # a found map is re-checked exactly once
    assert exists_pseudoisometry(a, a) == {x: x for x in a.labels}
    assert len(checked) == 1


def test_search_bound_enforced():
    big = space_from_points({f"x{i}": i for i in range(9)})
    with pytest.raises(SearchBudgetExceeded):
        exists_pseudoisometry(big, big, bound=6)
    with pytest.raises(SearchBudgetExceeded):
        exists_isometry(big, big, bound=8)


# ---------------------------------------------------------------------------
# Properties


@given(st.lists(st.fractions(min_value=-10, max_value=10),
                min_size=1, max_size=6, unique=False))
@settings(max_examples=80, deadline=None)
def test_line_pullback_is_always_valid(values):
    labels = tuple(f"v{i}" for i in range(len(values)))
    table = tuple(
        tuple(abs(a - b) for b in values) for a in values
    )
    rep = validate_pseudometric(labels, table)
    assert rep.ok
    q = metric_identify(make_space(labels, table))
    assert len(q.space) == len(set(values))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_json_roundtrip(seed):
    rng = random.Random(seed)
    space = random_pseudometric(rng)
    back = space_from_json(space_to_json(space))
    assert back.labels == space.labels
    assert back.dist == space.dist

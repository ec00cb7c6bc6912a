from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbmatch import PartialMatching
from hbmatch.core import Violation
from hbmatch.tree import AlternatingTree, Layer, build_layer

from .checked_run import blocking_edges, is_immediately_addable, validate_tree
from .conftest import hypergraphs_with_matching, make_h, shuffled_planted


def tree_degree(tree, a):
    """Number of tree edges (X and Y, root excluded) containing `a`."""
    edges = tree.h.edges
    return sum(
        1 for layer in tree.layers for eid in chain(layer.x, layer.y) if edges[eid].a == a
    )


def find_addable_edge(h, occupied_b, parent_a_set, x_counts, u_bound, m=None):
    """Least (a, edge) pair that a layer build would take next.

    `a` must lie in the parent set with fewer than `u_bound` edges
    already in the layer's X (per `x_counts`), and the edge's B-vertices
    must avoid `occupied_b`, which the caller populates with the
    B-vertices of the relevant tree prefix plus the layer under
    construction.  Pairs are ordered by vertex index, then edge id.
    Matching edges are never selected.
    """
    for a in sorted(parent_a_set):
        if x_counts.get(a, 0) >= u_bound:
            continue
        for eid in h.a_edges.get(a, ()):
            if m is not None and eid in m.edge_ids:
                continue
            e = h.edges[eid]
            if not any(b in occupied_b for b in e.bs):
                return (a, eid)
    return None


def make_layer(h, x, y):
    """A hand-built layer with its B-vertex sets, for trees that
    build_layer would not produce."""
    return Layer(
        set(x), set(y),
        {b for eid in x for b in h.edges[eid].bs},
        {b for eid in y for b in h.edges[eid].bs},
    )


def fresh_tree(h, m, root=0, u_bound=10):
    return AlternatingTree(h, m, root, u_bound)


def iterated_find_addable_edge(h, m, occupied, parents, u_bound, x0=(), y0=()):
    """Reference layer build: take find_addable_edge's pick until none is left."""
    x, y = set(x0), set(y0)
    counts = {}
    for eid in x:
        counts[h.edges[eid].a] = counts.get(h.edges[eid].a, 0) + 1
    while True:
        occ = set(occupied)
        for eid in x | y:
            occ.update(h.edges[eid].bs)
        pick = find_addable_edge(h, occ, parents, counts, u_bound, m=m)
        if pick is None:
            return x, y
        a, eid = pick
        x.add(eid)
        counts[a] = counts.get(a, 0) + 1
        y |= blocking_edges(h, m, eid)


@st.composite
def layer_build_inputs(draw):
    """Instance, live matching, base occupancy, parents, cap and a seed."""
    h, m = draw(hypergraphs_with_matching(max_a=6, max_b=12, max_edges=16))
    occupied = draw(st.sets(st.integers(0, h.b_count - 1), max_size=3))
    parents = draw(st.sets(st.integers(0, h.a_count - 1), min_size=1))
    u_bound = draw(st.integers(1, 3))
    free = [eid for eid in range(h.m) if eid not in m.edge_ids]
    x0 = draw(st.sets(st.sampled_from(free), max_size=2)) if free else set()
    y0 = set()
    for eid in x0:
        y0 |= blocking_edges(h, m, eid)
    return h, m, occupied, parents, u_bound, x0, y0


class TestFindAddableEdge:
    def test_empty_parent_set(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        assert find_addable_edge(h, set(), set(), {}, 10) is None

    def test_fresh_tree_takes_first_edge(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        assert find_addable_edge(h, set(), {0}, {}, 10) == (0, 0)

    def test_occupied_b_vertex_excludes(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        assert find_addable_edge(h, {1}, {0}, {}, 10) is None

    def test_capacity_excludes(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        assert find_addable_edge(h, set(), {0}, {0: 10}, 10) is None

    def test_minimum_pair_order(self):
        h = make_h(2, 2, 4, [(1, (0,)), (0, (1,)), (0, (2,))])
        # vertex order first: a0's least edge (id 1) wins over a1's id 0
        assert find_addable_edge(h, set(), {0, 1}, {}, 10) == (0, 1)


class TestBuildLayer:
    def test_no_edges_returns_seed_unchanged(self):
        h = make_h(3, 2, 4, [])
        m = PartialMatching()
        x, y, _, _ = build_layer(h, m, set(), {0}, 10)
        assert x == set() and y == set()

    def test_two_disjoint_edges_no_blockers(self):
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        m = PartialMatching()
        x, y, _, _ = build_layer(h, m, set(), {0}, 10)
        assert x == {0, 1} and y == set()

    def test_single_edge_with_blocker(self):
        h = make_h(3, 2, 5, [(0, (0, 1)), (1, (1, 4))])
        m = PartialMatching()
        m.add(h, 1)
        x, y, _, _ = build_layer(h, m, set(), {0}, 10)
        assert x == {0} and y == {1}

    def test_u_bound_caps_per_vertex(self):
        h = make_h(3, 1, 8, [(0, (2 * j, 2 * j + 1)) for j in range(4)])
        m = PartialMatching()
        x, y, _, _ = build_layer(h, m, set(), {0}, 2)
        assert x == {0, 1}

    def test_blocker_b_vertices_become_occupied(self):
        # second edge of a0 reuses the blocker's other B-vertex: rejected
        h = make_h(3, 2, 6, [(0, (0, 1)), (0, (4, 5)), (1, (1, 4))])
        m = PartialMatching()
        m.add(h, 2)
        x, y, _, _ = build_layer(h, m, set(), {0}, 10)
        assert x == {0} and y == {2}

    def test_matches_iterated_find_addable_edge(self):
        h = make_h(3, 3, 9, [
            (0, (0, 1)), (0, (2, 3)), (1, (1, 4)), (2, (5, 6)), (0, (6, 7)),
        ])
        m = PartialMatching()
        m.add(h, 2)
        expected = iterated_find_addable_edge(h, m, set(), {0, 2}, 10)
        assert expected == build_layer(h, m, set(), {0, 2}, 10)[:2]

    @given(layer_build_inputs(), st.booleans())
    @settings(max_examples=200)
    def test_equals_reference_from_seed_and_occupancy(self, inputs, as_counter):
        h, m, occupied, parents, u_bound, x0, y0 = inputs
        # a rebuild's occupancy holds the seed's own B-vertices, and it
        # returns the reference layer minus the seed; any read-only set
        # view works: the tree passes its live set, a dict's keys view too
        seed_b = {b for eid in x0 | y0 for b in h.edges[eid].bs}
        occ = {b: 1 + b % 2 for b in occupied | seed_b} if as_counter else occupied | seed_b
        before = dict(occ) if as_counter else set(occ)
        x, y = iterated_find_addable_edge(h, m, occupied, parents, u_bound, x0, y0)
        view = occ.keys() if as_counter else occ
        added = build_layer(h, m, view, parents, u_bound, x_held=x0)
        assert added == make_layer(h, x - x0, y - y0)
        assert occ == before, "occupancy is read-only"

    @given(hypergraphs_with_matching(max_a=5, max_b=8, max_edges=12))
    @settings(max_examples=60)
    def test_blocker_growth_bound_and_layer_shape(self, hm):
        h, m = hm
        parents = set(range(h.a_count))
        x, y, _, _ = build_layer(h, m, set(), parents, 3)
        # each added edge contributes at most r-1 blockers
        assert len(y) <= (h.r - 1) * len(x)
        # X is pairwise B-disjoint and disjoint from M
        seen = set()
        for eid in x:
            assert eid not in m.edge_ids
            bs = set(h.edges[eid].bs)
            assert not bs & seen
            seen |= bs
        # Y is precisely the union of blockers of X
        expected = set()
        for eid in x:
            expected |= blocking_edges(h, m, eid)
        assert y == expected


class TestAlternatingTree:
    def test_root_must_be_unmatched(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        m = PartialMatching()
        m.add(h, 0)
        with pytest.raises(ValueError):
            fresh_tree(h, m)

    def test_layer_index_below_one_is_refused(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        with pytest.raises(ValueError, match=r"^layer index must be >= 1$"):
            fresh_tree(h, PartialMatching()).parent_a_set(0)

    def test_removing_an_edge_not_in_y_is_refused(self):
        h = make_h(3, 2, 5, [(0, (0, 1)), (1, (1, 4)), (1, (2, 3))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        tree.append_layer(make_layer(h, {0}, {1}))
        with pytest.raises(ValueError, match=r"^edge 2 not in Y of layer 1$"):
            tree.remove_y_edge(1, 2)
        assert tree.layers[0].y == {1} and validate_tree(h, m, tree) is None

    def test_fresh_tree_validates(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        m = PartialMatching()
        tree = fresh_tree(h, m)
        assert validate_tree(h, m, tree) is None
        assert tree.y_total() == 1
        assert tree.parent_a_set(1) == {0}

    def test_build_then_append_validates(self):
        h = make_h(3, 2, 5, [(0, (0, 1)), (1, (1, 4))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        layer = build_layer(h, m, tree.occupied_b(), tree.parent_a_set(1), tree.u_bound)
        tree.append_layer(layer)
        assert validate_tree(h, m, tree) is None
        assert tree.y_total() == 2
        assert tree.parent_a_set(2) == {1}

    def test_cross_layer_b_overlap_detected(self):
        # structurally valid parent chain, but layer 2 reuses b0 from layer 1
        h = make_h(3, 2, 6, [(0, (0, 1)), (1, (1, 4)), (1, (0, 5))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        tree.append_layer(make_layer(h, {0}, {1}))
        tree.append_layer(make_layer(h, {2}, set()))
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "CROSS_LAYER_B_OVERLAP"

    def test_matched_root_detected(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        m = PartialMatching()
        tree = fresh_tree(h, m)
        m.add(h, 0)
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "ROOT_MATCHED"

    def test_matching_edge_in_x_detected(self):
        h = make_h(3, 2, 4, [(0, (0, 1)), (1, (2, 3))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        tree.append_layer(make_layer(h, {1}, set()))
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "X_IN_MATCHING"

    def test_x_edges_sharing_a_b_vertex_detected(self):
        h = make_h(3, 1, 3, [(0, (0, 1)), (0, (1, 2))])
        m = PartialMatching()
        tree = fresh_tree(h, m)
        tree.append_layer(make_layer(h, {0, 1}, set()))
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "X_B_OVERLAP_WITHIN_LAYER"

    def test_y_missing_a_blocker_detected(self):
        h = make_h(3, 2, 3, [(0, (0, 1)), (1, (1, 2))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        tree.append_layer(make_layer(h, {0}, set()))  # edge 1 blocks edge 0
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "Y_NOT_BLOCKERS"

    def test_blocker_in_two_layers_detected(self):
        # edge 1 blocks edge 0 in layer 1 and edge 2 in layer 2; the
        # blocker count trips before the B-overlap across layers
        h = make_h(3, 2, 4, [(0, (0, 1)), (1, (1, 2)), (1, (2, 3))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        tree.append_layer(make_layer(h, {0}, {1}))
        tree.append_layer(make_layer(h, {2}, {1}))
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "MULTIPLE_BLOCKING_EDGES"

    def test_x_edges_beyond_the_cap_detected(self):
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        m = PartialMatching()
        tree = fresh_tree(h, m, u_bound=1)
        tree.append_layer(make_layer(h, {0, 1}, set()))
        v = validate_tree(h, m, tree)
        assert v == Violation("DEGREE_EXCEEDED", "A-vertex 0 has 2 X-edges")

    def test_parent_outside_lower_y_detected(self):
        h = make_h(3, 3, 4, [(0, (0, 1)), (2, (2, 3))])
        m = PartialMatching()
        tree = fresh_tree(h, m)
        tree.append_layer(make_layer(h, {0}, set()))
        tree.append_layer(make_layer(h, {1}, set()))  # a2 has no blocker in Y_1
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "PARENT_NOT_IN_LOWER_Y"

    def test_y_intersecting_two_x_edges_detected(self):
        h = make_h(3, 3, 6, [(0, (0, 1)), (0, (2, 3)), (1, (1, 2))])
        m = PartialMatching()
        m.add(h, 2)
        tree = fresh_tree(h, m)
        tree.append_layer(make_layer(h, {0, 1}, {2}))  # edge 2 meets both X-edges in B
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "Y_INTERSECTS_MULTIPLE_X"

    def test_counter_mismatch_detected(self):
        h = make_h(3, 2, 5, [(0, (0, 1)), (1, (1, 4))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        layer = build_layer(h, m, tree.occupied_b(), {0}, tree.u_bound)
        tree.append_layer(layer)
        tree._b_occ.discard(4)  # stale union: b4 is held by the blocker
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "COUNTER_MISMATCH"

    def test_stale_layer_set_detected(self):
        h = make_h(3, 2, 5, [(0, (0, 1)), (1, (1, 4))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        tree.append_layer(build_layer(h, m, tree.occupied_b(), {0}, tree.u_bound))
        tree.layers[0].bx.discard(0)  # the union still holds b0
        v = validate_tree(h, m, tree)
        assert v is not None and v.code == "COUNTER_MISMATCH"

    def test_commit_rebuild_merges_additions_in_place(self):
        # a0's second edge is held back by a cap of 1, then added by a
        # rebuild under a cap of 2; its blocker joins Y of the same layer
        h = make_h(3, 2, 6, [(0, (0, 1)), (0, (2, 3)), (1, (3, 5))])
        m = PartialMatching()
        m.add(h, 2)
        tree = fresh_tree(h, m, u_bound=1)
        tree.append_layer(build_layer(h, m, tree.occupied_b(), {0}, 1))
        layer = tree.layers[0]
        added = build_layer(h, m, tree.occupied_b(), {0}, 2, x_held=layer.x)
        assert added == make_layer(h, {1}, {2})
        tree.commit_rebuild(added)
        assert tree.layers[0] is layer and layer == make_layer(h, {0, 1}, {2})
        assert tree.occupied_b() == {0, 1, 2, 3, 5}
        tree.u_bound = 2
        assert validate_tree(h, m, tree) is None
        with pytest.raises(ValueError, match="disjoint"):
            tree.commit_rebuild(make_layer(h, {1}, set()))
        assert layer == make_layer(h, {0, 1}, {2})


class TestTreeDegree:
    def test_absent_vertex_is_zero(self):
        h = make_h(3, 2, 2, [(0, (0, 1))])
        tree = fresh_tree(h, PartialMatching())
        assert tree_degree(tree, 1) == 0

    def test_counts_x_and_y_edges(self):
        # a1 has one blocking edge and two X-edges across the tree
        h = make_h(3, 2, 8, [(0, (0, 1)), (1, (1, 2)), (1, (3, 4)), (1, (5, 6))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        layer = build_layer(h, m, tree.occupied_b(), tree.parent_a_set(1), 10)
        tree.append_layer(layer)
        assert tree_degree(tree, 1) == 1  # the blocker
        layer = build_layer(h, m, tree.occupied_b(), tree.parent_a_set(2), 10)
        tree.append_layer(layer)
        assert layer.x == {2, 3}
        assert tree_degree(tree, 1) == 3

    def test_degree_increments_with_each_added_edge(self):
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        m = PartialMatching()
        tree = fresh_tree(h, m)
        before = tree_degree(tree, 0)
        layer = build_layer(h, m, tree.occupied_b(), {0}, 10)
        tree.append_layer(layer)
        assert tree_degree(tree, 0) == before + 2

    def test_counter_equals_from_scratch_count(self):
        h = make_h(3, 2, 8, [(0, (0, 1)), (1, (1, 2)), (1, (3, 4))])
        m = PartialMatching()
        m.add(h, 1)
        tree = fresh_tree(h, m)
        for i in (1, 2):
            layer = build_layer(h, m, tree.occupied_b(), tree.parent_a_set(i), 10)
            tree.append_layer(layer)
        for a in range(h.a_count):
            scratch = sum(
                1
                for layer in tree.layers
                for eid in layer.x | layer.y
                if h.edges[eid].a == a
            )
            assert tree_degree(tree, a) == scratch


def greedy_matching_but(h, root):
    """Each A-vertex but `root`, in order, takes its first addable edge."""
    m = PartialMatching()
    for a in range(h.a_count):
        if a == root:
            continue
        eid = next((e for e in h.a_edges.get(a, ()) if is_immediately_addable(h, m, e)), None)
        if eid is not None:
            m.add(h, eid)
    return m


class TestOccupancyUnderTreeOperations:
    @given(
        seed=st.integers(0, 40),
        root=st.integers(0, 29),
        u_bound=st.sampled_from([1, 2, 3, 90]),
        ops=st.lists(
            st.tuples(st.sampled_from(["append", "swap", "rebuild", "discard"]), st.integers(0, 99)),
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_occupancy_is_union_of_layer_edges(self, seed, root, u_bound, ops):
        """Layers come from build_layer on a live matching; swaps move a
        blocker out of M for an addable X-edge one level up, as a
        collapse does.  After every step the tree's set and each layer's
        `bx`/`by` equal their recount from the layers' edges."""
        h = shuffled_planted(seed, 30)
        m = greedy_matching_but(h, root)
        tree = fresh_tree(h, m, root, u_bound)
        for op, k in ops:
            level = tree.level()
            if op == "append":
                parents = tree.parent_a_set(level + 1)
                tree.append_layer(build_layer(h, m, tree.occupied_b(), parents, u_bound))
            elif op == "rebuild" and level:
                top = tree.layers[-1]
                tree.commit_rebuild(build_layer(
                    h, m, tree.occupied_b(), tree.parent_a_set(level), u_bound,
                    x_held=top.x,
                ))
            elif op == "discard" and level:
                tree.discard_last()
            elif op == "swap" and level >= 2:
                pairs = [
                    (f, eid)
                    for f in sorted(tree.layers[-2].y)
                    for eid in sorted(tree.layers[-1].x)
                    if h.edges[eid].a == h.edges[f].a and is_immediately_addable(h, m, eid)
                ]
                if pairs:
                    f, eid = pairs[k % len(pairs)]
                    m.remove(h, f)
                    m.add(h, eid)
                    tree.remove_y_edge(level - 1, f)
            recount = set()
            for layer in tree.layers:
                fresh = make_layer(h, layer.x, layer.y)
                assert (layer.bx, layer.by) == (fresh.bx, fresh.by)
                recount |= fresh.bx | fresh.by
            assert tree.occupied_b() == recount

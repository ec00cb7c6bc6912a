import io

import pytest
from hypothesis import given, settings

from hbmatch import (
    BipartiteHypergraph,
    PartialMatching,
    check_result,
    find_perfect_matching,
    validate_instance,
    verify_matching,
)
from hbmatch.cli import TraceWriter, format_result, parse_instance, serialize_instance
from hbmatch.core import (
    CodedError,
    InstanceError,
    MatchingError,
    Violation,
    incident_edges,
)
from hbmatch.engine import InternalSolverError
from hbmatch.signature import SignatureError

from .checked_run import blocking_edges, checked, is_immediately_addable
from .conftest import (
    hypergraphs,
    hypergraphs_with_matching,
    make_h,
    shuffled_planted,
    superposed_commit_instance,
)


class TestEdgeColumns:
    @given(hypergraphs())
    @settings(max_examples=60, deadline=None)
    def test_view_equals_the_columns(self, h):
        assert [tuple(e) for e in h.edges] == list(zip(range(h.m), h.edge_a, h.edge_bs))
        assert h.edges is h.edges

    def test_view_is_read_only(self):
        h = make_h(3, 2, 4, [(1, (3, 0)), (0, (2, 1))])
        assert (h.edge_a, h.edge_bs) == ([1, 0], [(0, 3), (1, 2)])
        with pytest.raises(TypeError):
            h.edges[0] = h.edges[1]
        with pytest.raises(AttributeError):
            h.edges[0].a = 0

    def test_from_columns_takes_the_columns(self):
        edge_a, b_cols = [0, 1, 0], [[0, 2, 1], [1, 3, 2]]
        h = BipartiteHypergraph.from_columns(3, 2, 4, edge_a, b_cols)
        assert h.edge_a is edge_a and h.edge_bs == [(0, 1), (2, 3), (1, 2)]
        assert h.a_edges == {0: [0, 2], 1: [1]}
        assert h._b_cols is b_cols  # held for validation, then released
        assert validate_instance(h) is None
        assert h._b_cols is None

    @pytest.mark.parametrize("name", ["witness", "commit"])
    def test_solving_a_parsed_instance_never_builds_the_view(self, name):
        source = shuffled_planted(1, 60) if name == "witness" else superposed_commit_instance()
        h = parse_instance(serialize_instance(source))
        trace = TraceWriter(io.StringIO())
        with checked():
            result = find_perfect_matching(h, 1, trace=trace)
        assert result.status == ("witness" if name == "witness" else "perfect_matching")
        assert check_result(h, format_result(result, 1)) is None
        assert h._edges is None


class TestValidateInstance:
    def test_minimal_well_formed(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        assert validate_instance(h) is None

    def test_duplicate_b_vertex(self):
        h = make_h(3, 1, 2, [(0, (0, 0))])
        v = validate_instance(h)
        assert v is not None and v.code == "DUPLICATE_B_VERTEX"

    def test_index_out_of_range(self):
        h = make_h(2, 1, 3, [(0, (5,))])
        v = validate_instance(h)
        assert v is not None and v.code == "INDEX_OUT_OF_RANGE"

    def test_non_uniform(self):
        h = make_h(3, 1, 3, [(0, (0,))])
        v = validate_instance(h)
        assert v is not None and v.code == "NON_UNIFORM_EDGE"

    def test_uniformity_below_two(self):
        v = validate_instance(BipartiteHypergraph(1, 1, 1, []))
        assert v == Violation("NON_UNIFORM_EDGE", "uniformity r=1 must be >= 2")

    def test_duplicate_edge(self):
        h = make_h(2, 1, 2, [(0, (1,)), (0, (1,))])
        v = validate_instance(h)
        assert v is not None and v.code == "DUPLICATE_EDGE"

    def test_names_first_failing_edge(self):
        h = make_h(3, 2, 4, [(0, (0, 1)), (1, (2, 2))])
        v = validate_instance(h)
        assert v is not None and "edge 1" in v.detail


class TestIncidentEdges:
    def test_empty_set(self):
        h = make_h(3, 2, 4, [(0, (0, 1))])
        assert incident_edges(h, set()) == set()

    def test_single_incidence(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        assert incident_edges(h, {0}) == {0}

    def test_filter_matches_exhaustive_scan(self):
        h = make_h(3, 2, 4, [(0, (0, 1)), (1, (0, 2)), (0, (2, 3))])
        s = {0}
        expected = {e.id for e in h.edges if e.a in s}
        assert expected == {0, 2}
        assert incident_edges(h, s) == expected

    @given(hypergraphs())
    @settings(max_examples=40)
    def test_whole_a_gives_all_edges_and_disjoint_union(self, h):
        assert incident_edges(h, range(h.a_count)) == set(range(h.m))
        mid = h.a_count // 2
        left, right = set(range(mid)), set(range(mid, h.a_count))
        assert incident_edges(h, left) | incident_edges(h, right) == set(range(h.m))
        assert not incident_edges(h, left) & incident_edges(h, right)


class TestBlockingAndAddable:
    def test_empty_matching(self):
        h = make_h(3, 2, 4, [(0, (0, 1))])
        m = PartialMatching()
        assert blocking_edges(h, m, 0) == set()
        assert is_immediately_addable(h, m, 0)

    def test_single_shared_b_vertex(self):
        h = make_h(3, 2, 4, [(0, (0, 1)), (1, (0, 2))])
        m = PartialMatching()
        m.add(h, 1)
        assert blocking_edges(h, m, 0) == {1}
        assert not is_immediately_addable(h, m, 0)

    def test_sharing_only_a_vertex_does_not_block(self):
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        m = PartialMatching()
        m.add(h, 1)
        assert blocking_edges(h, m, 0) == set()
        assert is_immediately_addable(h, m, 0)

    @given(hypergraphs_with_matching())
    @settings(max_examples=60)
    def test_at_most_r_minus_one_blockers_and_equivalence(self, hm):
        h, m = hm
        for e in h.edges:
            blockers = blocking_edges(h, m, e.id)
            assert len(blockers) <= h.r - 1
            assert (not blockers) == is_immediately_addable(h, m, e.id)
            for f in blockers:
                assert set(h.edges[f].bs) & set(e.bs)


class TestAdd:
    def test_refuses_a_matched_a_vertex(self):
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        m = PartialMatching()
        m.add(h, 0)
        for eid in (0, 1):  # the member itself, and another edge of its A-vertex
            with pytest.raises(MatchingError) as exc:
                m.add(h, eid)
            assert str(exc.value) == "OVERLAP: A-vertex 0 already matched by edge 0"
        assert m.edge_ids == {0}

    def test_refuses_a_used_b_vertex(self):
        h = make_h(3, 2, 3, [(0, (0, 1)), (1, (1, 2))])
        m = PartialMatching()
        m.add(h, 0)
        with pytest.raises(MatchingError) as exc:
            m.add(h, 1)
        assert str(exc.value) == "OVERLAP: B-vertex 1 already used by edge 0"
        assert m.edge_ids == {0} and m.b_of == {0: 0, 1: 0}


class TestSwap:
    """A collapse's swap: `remove` of the blocker, then `add` of the edge."""

    def test_disjoint_replacement(self):
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        m = PartialMatching()
        m.add(h, 0)
        m.remove(h, 0)
        m.add(h, 1)
        assert m.edge_ids == {1}
        assert set(m.a_of) == {0}

    def test_two_edge_matching(self):
        h = make_h(3, 2, 6, [(0, (0, 1)), (1, (2, 3)), (0, (4, 5))])
        m = PartialMatching()
        m.add(h, 0)
        m.add(h, 1)
        m.remove(h, 0)
        m.add(h, 2)
        assert m.edge_ids == {1, 2}
        # pairwise disjointness verified from scratch
        assert verify_matching(h, m) is None

    def test_not_in_matching(self):
        h = make_h(3, 1, 4, [(0, (0, 1)), (0, (2, 3))])
        m = PartialMatching()
        with pytest.raises(MatchingError) as exc:
            m.remove(h, 0)
        assert exc.value.code == "NOT_IN_MATCHING"
        assert m.a_of == {} and m.b_of == {}

    @given(hypergraphs_with_matching())
    @settings(max_examples=60)
    def test_swap_preserves_matched_set_and_validity(self, hm):
        h, m = hm
        before = set(m.a_of)
        for f_out in sorted(m.edge_ids):
            a = h.edges[f_out].a
            for e_in in h.a_edges.get(a, ()):
                if e_in == f_out or not is_immediately_addable(h, m, e_in):
                    continue
                m.remove(h, f_out)
                m.add(h, e_in)
                assert set(m.a_of) == before
                assert verify_matching(h, m) is None
                break
            break


class TestVerifyMatching:
    def test_empty_ok(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        assert verify_matching(h, PartialMatching()) is None

    def test_empty_not_perfect(self):
        h = make_h(3, 1, 2, [(0, (0, 1))])
        v = verify_matching(h, PartialMatching(), require_perfect=True)
        assert v is not None and v.code == "UNMATCHED" and "0" in v.detail

    def test_overlap_at_shared_b(self):
        h = make_h(3, 2, 3, [(0, (0, 1)), (1, (1, 2))])
        m = PartialMatching()
        m.add(h, 0)
        # bypass add() to fabricate the overlap
        m.a_of[1] = 1
        m.b_of[2] = 1
        v = verify_matching(h, m)
        assert v is not None and v.code == "OVERLAP"

    def test_map_inconsistency_detected(self):
        h = make_h(2, 2, 2, [(0, (0,)), (1, (1,))])
        m = PartialMatching()
        m.add(h, 0)
        m.a_of[1] = 0
        v = verify_matching(h, m)
        assert v is not None and v.code == "MAP_INCONSISTENT"


class TestCodedErrors:
    # cli.main catches these as ValueError and InternalSolverError.
    @pytest.mark.parametrize(
        "cls,base,other",
        [
            (InstanceError, ValueError, RuntimeError),
            (MatchingError, ValueError, RuntimeError),
            (SignatureError, ValueError, RuntimeError),
            (InternalSolverError, RuntimeError, ValueError),
        ],
    )
    def test_code_text_and_builtin_base(self, cls, base, other):
        err = cls("SOME_CODE", "what went wrong")
        assert isinstance(err, CodedError) and isinstance(err, base)
        assert not isinstance(err, other)
        assert err.code == "SOME_CODE"
        assert str(err) == "SOME_CODE: what went wrong"

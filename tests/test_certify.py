"""The checking kernel: its import set, its document reader and its checks."""

import ast
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hbmatch.certify as certify
import hbmatch.cli as cli
import hbmatch.engine as engine
from hbmatch import (
    BipartiteHypergraph,
    ParseError,
    PartialMatching,
    WitnessCertificate,
    check_result,
    find_perfect_matching,
    parse_result,
    verify_matching,
    verify_witness,
)

from hbmatch.core import InstanceError, Violation

from .conftest import hypergraphs_with_matching, make_h, shift_chain, shuffled_planted

SRC = Path(certify.__file__).resolve().parent


def imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, relative ones made absolute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add(f"hbmatch.{node.module}" if node.level else node.module)
    return out


class TestImports:
    def test_kernel_imports_only_stdlib_core_and_params(self):
        mods = imported_modules(SRC / "certify.py")
        assert mods == {
            "__future__", "dataclasses", "fractions", "operator", "typing",
            "hbmatch.core", "hbmatch.params",
        }
        assert all(m in sys.stdlib_module_names for m in mods if not m.startswith("hbmatch"))

    def test_engine_does_not_import_oracles(self):
        assert "hbmatch.oracles" not in imported_modules(SRC / "engine.py")

    def test_callers_look_up_the_kernel_functions(self):
        assert engine.verify_matching is certify.verify_matching
        assert engine.verify_witness is certify.verify_witness
        assert engine.validate_instance is certify.validate_instance
        assert cli.validate_instance is certify.validate_instance
        assert cli.parse_result is certify.parse_result


# edges 0..3: (a0; b0) (a0; b1) (a1; b1) (a1; b0)
SQUARE = make_h(2, 2, 2, [(0, (0,)), (0, (1,)), (1, (1,)), (1, (0,))])


def matching_doc(ids: str) -> str:
    return f"status: perfect_matching\nepsilon: 1\nmatching: {ids}\n"


def witness_doc(fields: str) -> str:
    return "status: witness\nepsilon: 1/2\n" + fields


class TestParseResult:
    def test_typed_fields(self):
        doc = parse_result(witness_doc("S: 1 0\nhitting_set: 0\nbound: 3/2\nstats: iterations=1\n"))
        assert doc["S"] == [1, 0] and doc["hitting_set"] == [0]
        assert doc["epsilon"] == Fraction(1, 2) and doc["bound"] == Fraction(3, 2)
        assert doc["stats"] == "iterations=1"
        assert parse_result(matching_doc("3 0"))["matching"] == [3, 0]

    def test_matching_document_epsilon_stays_text(self):
        assert parse_result("status: perfect_matching\nepsilon: -1\n")["epsilon"] == "-1"

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("status: perfect_matching\nmatching: 0 zz\n", 2, "non-integer id"),
            ("status: witness\nepsilon: 1\nS: 0\nhitting_set: 1 x\n", 4, "non-integer id"),
            ("epsilon: -1\nstatus: witness\n", 1, "epsilon must be > 0"),
            ("status: witness\nepsilon: 1\nbound: 1/0\n", 3, "zero denominator"),
            ("\nstatus: done\n", 2, "unknown status 'done'"),
            ("status: witness\nS: 0\n", 0, "missing epsilon"),
            ("status: witness\nepsilon 1\n", 2, "expected 'key: value'"),
            ("matching: 0\n", 0, "missing status"),
        ],
    )
    def test_malformed_field_is_parse_error_at_its_line(self, text, line, reason):
        with pytest.raises(ParseError) as exc:
            parse_result(text)
        assert exc.value.line == line and reason in exc.value.reason


class TestCheckResult:
    def test_perfect_matching(self):
        assert check_result(SQUARE, matching_doc("0 2")) is None

    @pytest.mark.parametrize(
        "ids, code",
        [
            ("0 4", "INDEX_OUT_OF_RANGE"),
            ("0 -1", "INDEX_OUT_OF_RANGE"),
            ("0 1", "OVERLAP"),
            ("0 3", "OVERLAP"),
            ("0 0", "OVERLAP"),
            ("0", "UNMATCHED"),
        ],
    )
    def test_bad_matching(self, ids, code):
        assert check_result(SQUARE, matching_doc(ids)).code == code

    def test_witness(self):
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        assert check_result(h, witness_doc("S: 0 1\nhitting_set: 0\nbound: 3/2\n")) is None
        assert check_result(h, witness_doc("S: 0 1\nhitting_set: 0\n")) is None

    @pytest.mark.parametrize(
        "fields, code",
        [
            ("S: 0 1\nhitting_set: 0\nbound: 2\n", "BOUND_MISMATCH"),
            ("S: 0 1\nhitting_set:\n", "UNHIT_EDGE"),
            ("S: 0 2\nhitting_set: 0\n", "INDEX_OUT_OF_RANGE"),
            ("S: 0\nhitting_set: 0\n", "SIZE_EXCEEDS_BOUND"),
        ],
    )
    def test_bad_witness(self, fields, code):
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        assert check_result(h, witness_doc(fields)).code == code

    @pytest.mark.parametrize(
        "x",
        [None, b"status: perfect_matching\n", {"status": "perfect_matching"}, ["status: x"], 0],
        ids=["none", "bytes", "dict", "list", "int"],
    )
    def test_document_that_is_not_text_is_a_parse_error(self, x):
        # Both used to end in AttributeError.
        for read in (parse_result, lambda doc: check_result(SQUARE, doc)):
            with pytest.raises(ParseError) as exc:
                read(x)
            assert (exc.value.line, exc.value.reason) == (
                0, f"result document is not text: {type(x).__name__}"
            )

    @pytest.mark.parametrize("epsilon", [0, Fraction(-1, 2)], ids=["0", "-1/2"])
    def test_nonpositive_epsilon_is_refused_in_the_parsers_words(self, epsilon):
        # A witness that holds at any epsilon > 0: both edges hit, 1 <= bound.
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        assert check_result(h, witness_doc("S: 0 1\nhitting_set: 0\n")) is None
        with pytest.raises(ParseError) as exc:
            check_result(h, f"status: witness\nepsilon: {epsilon}\nS: 0 1\nhitting_set: 0\n")
        assert (exc.value.line, exc.value.reason) == (2, f"epsilon must be > 0, got {epsilon}")

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize(
        "seed, status", [(2, "perfect_matching"), (1, "witness")], ids=["matching", "witness"]
    )
    def test_solver_documents_pass(self, seed, status, traced):
        h = shuffled_planted(seed, 30)
        trace = cli.TraceWriter(io.StringIO()) if traced else None
        result = find_perfect_matching(h, Fraction(1, 2), trace=trace)
        assert result.status == status
        assert check_result(h, cli.format_result(result, Fraction(1, 2))) is None

    @given(hypergraphs_with_matching(max_a=4, max_b=6, max_edges=10))
    @settings(max_examples=80, deadline=None)
    def test_document_and_live_matching_get_the_same_verdict(self, hm):
        h, m = hm
        doc = matching_doc(" ".join(map(str, sorted(m.edge_ids))))
        live = verify_matching(h, m, require_perfect=True)
        got = check_result(h, doc)
        assert (got and got.code) == (live and live.code)


class TestKernelChecks:
    def test_certificate_for_another_uniformity_is_rejected(self):
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        cert = WitnessCertificate.build(3, {0, 1}, {0}, Fraction(1, 2))
        assert verify_witness(h, cert).code == "UNIFORMITY_MISMATCH"
        # a float r equal to the instance's used to verify
        cert = WitnessCertificate.build(2.0, {0, 1}, {0}, Fraction(1, 2))
        assert verify_witness(h, cert) == Violation(
            "UNIFORMITY_MISMATCH", "certificate r=2.0, instance r=2"
        )

    @pytest.mark.parametrize(
        "cert",
        [None, {"S": [0, 1], "hitting_set": [0]}, (2, frozenset({0, 1}), frozenset({0}), 1)],
        ids=["none", "dict", "tuple"],
    )
    def test_certificate_that_is_not_a_certificate_is_refused(self, cert):
        # None used to raise AttributeError on its uniformity
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        assert verify_witness(h, cert) == Violation(
            "CERTIFICATE_TYPE", f"not a WitnessCertificate: {type(cert).__name__}"
        )

    @pytest.mark.parametrize(
        "epsilon", [0.5, 1.0, "1/2", True, None], ids=["float", "float-1", "text", "bool", "none"]
    )
    def test_certificate_epsilon_must_be_an_int_or_a_fraction(self, epsilon):
        # The float used to pass with a float bound, the text to raise TypeError.
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        for ok in (1, Fraction(1, 2)):
            assert verify_witness(h, WitnessCertificate.build(2, [0, 1], [0], ok)) is None
        cert = WitnessCertificate.build(2, [0, 1], [0], epsilon)
        assert verify_witness(h, cert) == Violation(
            "EPSILON_TYPE", f"epsilon {epsilon!r} is not an int or a Fraction"
        )

    @pytest.mark.parametrize("m", [None, {0, 2}, [0, 2]], ids=["none", "set", "list"])
    def test_matching_that_is_not_a_partial_matching_is_refused(self, m):
        # None used to raise AttributeError on its edge ids
        assert verify_matching(SQUARE, m) == Violation(
            "MATCHING_TYPE", f"not a PartialMatching: {type(m).__name__}"
        )
        assert verify_matching(None, m).code == "INSTANCE_TYPE"  # the instance first

    def test_bound_derives_from_r_epsilon_and_s(self):
        cert = WitnessCertificate.build(3, {0, 1, 2}, {0}, Fraction(1, 2))
        assert cert.bound == (2 * 3 - 3 + Fraction(1, 2)) * 2

    def test_map_inconsistency_still_checked(self):
        m = PartialMatching()
        m.add(SQUARE, 0)
        m.b_of[1] = 0
        assert verify_matching(SQUARE, m).code == "MAP_INCONSISTENT"

    def test_solver_final_check_reaches_the_kernel(self, monkeypatch):
        real = certify._matching_violation
        with_maps = []

        def recording(h, edge_ids, require_perfect, maps=None):
            with_maps.append(maps is not None)
            return real(h, edge_ids, require_perfect, maps)

        monkeypatch.setattr(certify, "_matching_violation", recording)
        assert find_perfect_matching(shift_chain(3), 1).status == "perfect_matching"
        assert check_result(SQUARE, matching_doc("0 2")) is None
        assert with_maps == [True, False]  # the solver's live matching, then a document

    @pytest.mark.parametrize(
        "s, hitting, detail",
        [
            ({False, True}, {0}, "False in S is not an int"),
            ({0, 1}, {0.0}, "0.0 in hitting set is not an int"),
            ({0, "0"}, {0}, "'0' in S is not an int"),
            ({0, 1}, {None}, "None in hitting set is not an int"),
        ],
        ids=["bool-s", "float-hitting", "text-s", "none-hitting"],
    )
    def test_members_that_are_not_ints_are_refused(self, s, hitting, detail):
        # Each used to verify as S = {0, 1}, hitting set {0}, or raise TypeError.
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        assert verify_witness(h, WitnessCertificate.build(2, {0, 1}, {0}, Fraction(1))) is None
        cert = WitnessCertificate.build(2, s, hitting, Fraction(1))
        assert verify_witness(h, cert) == Violation("MEMBER_TYPE", detail)

    @pytest.mark.parametrize(
        "eid, violation",
        [
            (99, Violation("INDEX_OUT_OF_RANGE", "edge id 99 in matching")),
            (-1, Violation("INDEX_OUT_OF_RANGE", "edge id -1 in matching")),
            ("0", Violation("MEMBER_TYPE", "'0' in matching is not an int")),
            (True, Violation("MEMBER_TYPE", "True in matching is not an int")),
        ],
        ids=["beyond-m", "negative", "text", "bool"],
    )
    def test_live_matching_ids_that_are_not_edges_are_refused(self, eid, violation):
        # 99 used to raise IndexError and "0" TypeError; -1 and True were
        # read as edge 1, whose A-vertex is 1, so the maps disagreed.
        h = make_h(2, 2, 1, [(0, (0,)), (1, (0,))])
        m = PartialMatching()
        m.a_of[0] = m.b_of[0] = eid
        assert verify_matching(h, m) == violation
        assert verify_matching(h, m, require_perfect=True) == violation

    def test_hitting_set_vertex_at_nb_is_out_of_range(self):
        # a witness that holds in every other respect: all edges hit, 2 <= bound 3
        h = make_h(2, 3, 1, [(a, (0,)) for a in range(3)])
        assert verify_witness(h, WitnessCertificate.build(2, {0, 1, 2}, {0}, Fraction(1, 2))) is None
        cert = WitnessCertificate.build(2, {0, 1, 2}, {0, 1}, Fraction(1, 2))
        assert verify_witness(h, cert) == Violation(
            "INDEX_OUT_OF_RANGE", "B-vertex 1 in hitting set"
        )


def per_edge_first_violation(h: BipartiteHypergraph) -> Violation | None:
    """The kernel's instance check before the column checks, kept as the
    reference: every check on every edge, in edge order."""
    r, na, nb = h.r, h.a_count, h.b_count
    if r < 2:
        return Violation("NON_UNIFORM_EDGE", f"uniformity r={r} must be >= 2")
    width = r - 1
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for e in h.edges:
        a, bs = e.a, e.bs
        if len(bs) != width:
            return Violation(
                "NON_UNIFORM_EDGE",
                f"edge {e.id} has {len(bs)} B-vertices, expected {width}",
                e.id,
            )
        if not 0 <= a < na:
            return Violation("INDEX_OUT_OF_RANGE", f"edge {e.id}: A-vertex {a}", e.id)
        if bs[0] < 0 or bs[-1] >= nb:
            b = next(b for b in bs if not 0 <= b < nb)
            return Violation("INDEX_OUT_OF_RANGE", f"edge {e.id}: B-vertex {b}", e.id)
        if len(set(bs)) < width:
            u = next(u for u, v in zip(bs, bs[1:]) if u == v)
            return Violation("DUPLICATE_B_VERTEX", f"edge {e.id}: B-vertex {u}", e.id)
        key = (a, bs)
        if key in seen:
            return Violation("DUPLICATE_EDGE", f"edge {e.id} repeats {key}", e.id)
        seen.add(key)
    return None


@st.composite
def arbitrary_instances(draw):
    """BipartiteHypergraph(r, na, nb, pairs) where each pair is well formed,
    a repeat of an earlier pair, a well-formed pair with one flaw, or
    arbitrary: A- and B-vertices from -2 to two past the end, B-lists from
    empty to r+1 long with repeats."""
    r = draw(st.integers(2, 4))
    na, nb = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    pairs: list[tuple[int, list[int]]] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["valid", "valid", "repeat", "flawed", "arbitrary"]))
        if kind == "repeat" and pairs:
            pairs.append(draw(st.sampled_from(pairs)))
        elif kind in ("valid", "flawed") and na >= 1 and nb >= r - 1:
            a = draw(st.integers(0, na - 1))
            bs = list(draw(st.sets(st.integers(0, nb - 1), min_size=r - 1, max_size=r - 1)))
            flaw = draw(st.sampled_from(["a", "b", "repeat_b", "short", "long"]))
            if kind == "valid":
                pass
            elif flaw == "a":
                a = draw(st.sampled_from([-1, na]))
            elif flaw == "b":
                bs[0] = draw(st.sampled_from([-1, nb]))
            elif flaw == "repeat_b":
                bs.append(bs[0])
                bs.pop(-2)
            elif flaw == "short":
                bs.pop()
            else:
                bs.append(draw(st.integers(0, nb - 1)))
            pairs.append((a, bs))
        else:
            a = draw(st.integers(-2, na + 1))
            bs = draw(st.lists(st.integers(-2, nb + 1), max_size=r + 1))
            pairs.append((a, bs))
    return BipartiteHypergraph(r, na, nb, pairs)


class TestInstanceValidation:
    @settings(max_examples=1000, deadline=None)
    @given(arbitrary_instances())
    @example(BipartiteHypergraph(3, 2, 4, [(0, (1, 2)), (5, (0, 0)), (0, (1, 2))]))
    @example(BipartiteHypergraph(3, 2, 4, [(0, (1, 2)), (1, (1, 2)), (1, (2, 1))]))
    @example(BipartiteHypergraph(2, 1, 1, [(0, (0,)), (0, (-1,)), (-1, ())]))
    @example(BipartiteHypergraph(3, 2, 4, [(0, (1, 2)), (1, (3, 3))]))
    # a repeated B-set, and two distinct edges of equal hash (hash(2**61 + 1)
    # == hash(2)): clean, and with a real repeat of the second
    @example(BipartiteHypergraph(3, 2, 2**62, [(0, (1, 2)), (1, (1, 2)), (0, (1, 2**61 + 1))]))
    @example(BipartiteHypergraph.from_columns(
        3, 2, 2**62, [0, 1, 0, 0], [[1, 1, 1, 1], [2, 2, 2**61 + 1, 2**61 + 1]]
    ))
    def test_same_violation_as_per_edge_check(self, h):
        assert certify._first_violation(h) == per_edge_first_violation(h)

    @pytest.mark.parametrize(
        "r, bs, b", [(3, (2, 2), 2), (4, (1, 1, 3), 1), (4, (1, 3, 3), 3), (4, (5, 5, 5), 5)]
    )
    def test_duplicate_b_vertex_in_any_column(self, r, bs, b):
        # each B-tuple is sorted, so a repeat sits in two adjacent columns
        clean = [(0, tuple(range(10, 9 + r))), (1, tuple(range(20, 19 + r)))]
        assert certify._first_violation(BipartiteHypergraph(r, 3, 30, clean)) is None
        h = BipartiteHypergraph(r, 3, 30, clean + [(2, bs)])
        assert certify._first_violation(h) == Violation(
            "DUPLICATE_B_VERTEX", f"edge 2: B-vertex {b}", 2
        )

    @pytest.mark.parametrize("r", [3, 4])
    def test_out_of_range_b_vertex_in_an_unsorted_tuple(self, r):
        # from_columns keeps each B-tuple as given, so its ends need not bound it
        h = BipartiteHypergraph.from_columns(r, 1, 5, [0], [[b] for b in (7, *range(1, r - 1))])
        assert certify.validate_instance(h) == Violation(
            "INDEX_OUT_OF_RANGE", "edge 0: B-vertex 7", 0
        )
        with pytest.raises(InstanceError):
            find_perfect_matching(h, 1)

    @pytest.mark.parametrize(
        "r, bs, detail",
        [
            (3, (3, 1), "B-vertices (3, 1)"),
            (4, (3, 1, 2), "B-vertices (3, 1, 2)"),
            (4, (1, 3, 2), "B-vertices (1, 3, 2)"),
            (4, (3, 1, 3), "B-vertices (3, 1, 3)"),  # a repeat that is not adjacent
            (4, (3, 3, 1), "B-vertex 3"),  # an equal pair stays a duplicate
        ],
    )
    def test_b_tuple_must_ascend(self, r, bs, detail):
        code = "DUPLICATE_B_VERTEX" if detail.startswith("B-vertex ") else "UNSORTED_B_VERTICES"
        clean = tuple(range(r - 1))
        h = BipartiteHypergraph.from_columns(r, 2, 5, [1, 0], [list(c) for c in zip(clean, bs)])
        assert certify.validate_instance(h) == Violation(code, f"edge 1: {detail}", 1)

    @pytest.mark.parametrize(
        "b_cols, tuples",
        [([[0], [1]], 1), ([[0, 1], [2]], 1), ([[0, 1, 0], [2, 3, 3]], 3)],
        ids=["short", "unequal", "long"],
    )
    def test_ragged_columns_are_refused(self, b_cols, tuples):
        # zip stops at the shortest column; the short ones used to validate
        # clean and end the solve in IndexError
        h = BipartiteHypergraph.from_columns(3, 2, 4, [0, 1], b_cols)
        assert certify.validate_instance(h) == Violation(
            "RAGGED_COLUMNS", f"2 A-vertices but {tuples} B-tuples"
        )
        with pytest.raises(InstanceError, match="RAGGED_COLUMNS"):
            find_perfect_matching(h, 1)

    @pytest.mark.parametrize(
        "build, eid, key",
        [
            (lambda: BipartiteHypergraph(2, 1, 1, [("0", (0,))]), 0, ("0", (0,))),
            (lambda: BipartiteHypergraph(3, 1, 2, [(0, ("0", "1"))]), 0, (0, ("0", "1"))),
            (lambda: BipartiteHypergraph.from_columns(2, 1, 1, ["0"], [[0]]), 0, ("0", (0,))),
            (lambda: BipartiteHypergraph(2, 2, 2, [(0, (0,)), (1, ([1],))]), 1, (1, ([1],))),
            (lambda: BipartiteHypergraph.from_columns(3, 2, 9, [0, 1], [[1, 3], [2, None]]), 1,
             (1, (3, None))),
            # the constructor cannot sort this tuple and keeps it as given
            (lambda: BipartiteHypergraph(3, 2, 4, [(0, (1, 0)), (1, (3, "2"))]), 1,
             (1, (3, "2"))),
        ],
        ids=["str-a", "str-b", "str-column", "list-b", "none-b", "mixed-b"],
    )
    def test_vertex_id_that_does_not_compare_is_refused(self, build, eid, key):
        # the column checks raise TypeError; the walk names the edge
        h = build()
        assert certify.validate_instance(h) == Violation(
            "VERTEX_TYPE", f"edge {eid}: vertex ids {key!r} do not compare with ints", eid
        )
        with pytest.raises(InstanceError, match="^VERTEX_TYPE: "):
            find_perfect_matching(h, 1)

    @pytest.mark.parametrize("na, nb", [(-2, -1), (2, -1), (-1, 3)])
    def test_negative_vertex_count_is_refused(self, na, nb):
        h = BipartiteHypergraph(3, na, nb, [])
        assert certify.validate_instance(h) == Violation(
            "NEGATIVE_VERTEX_COUNT", f"nA={na}, nB={nb} must be >= 0"
        )
        with pytest.raises(InstanceError, match="NEGATIVE_VERTEX_COUNT"):
            find_perfect_matching(h, 1)
        v = check_result(h, "status: perfect_matching\n")
        assert v is not None and v.code == "NEGATIVE_VERTEX_COUNT"

    @pytest.mark.parametrize(
        "r, na, nb, edges",
        [
            (3.0, 2, 4, [(0, (0, 1)), (1, (2, 3))]),
            (2, True, 1, [(0, (0,))]),
            (2, "2", 2, [(0, (0,)), (1, (1,))]),
            (2, 1, 1.0, [(0, (0,))]),
        ],
        ids=["float-r", "bool-na", "text-na", "float-nb"],
    )
    def test_count_that_is_not_an_int_is_refused(self, r, na, nb, edges):
        # The float r used to solve to a perfect matching, the bool nA to
        # validate as nA = 1, and the text nA to raise TypeError.
        h = BipartiteHypergraph(r, na, nb, edges)
        assert certify.validate_instance(h) == Violation(
            "COUNT_TYPE", f"r={r!r}, nA={na!r}, nB={nb!r} must be ints"
        )
        with pytest.raises(InstanceError, match="COUNT_TYPE"):
            find_perfect_matching(h, 1)
        v = check_result(h, matching_doc("0"))
        assert v is not None and v.code == "COUNT_TYPE"

    @pytest.mark.parametrize("h", [None, [(0, (0,))], "2 1 1"], ids=["none", "list", "text"])
    def test_instance_that_is_not_a_hypergraph_is_refused(self, h):
        # None used to raise AttributeError on the validation cache.
        v = Violation("INSTANCE_TYPE", f"not a BipartiteHypergraph: {type(h).__name__}")
        assert certify.validate_instance(h) == v
        with pytest.raises(InstanceError) as exc:
            find_perfect_matching(h, 1)
        assert str(exc.value) == str(v)
        assert check_result(h, "status: perfect_matching\n") == v
        # The two kernel checks that take an instance used to raise
        # AttributeError on its columns.
        m = PartialMatching()
        m.add(make_h(2, 1, 1, [(0, (0,))]), 0)
        assert verify_matching(h, m) == v
        assert verify_witness(h, WitnessCertificate.build(2, [0], [0], Fraction(1))) == v

    def test_validate_instance_keeps_the_result(self):
        h = BipartiteHypergraph(2, 1, 1, [(0, (0,)), (0, (0,))])
        first = certify.validate_instance(h)
        assert first == Violation("DUPLICATE_EDGE", "edge 1 repeats (0, (0,))", 1)
        assert certify.validate_instance(h) is first

"""Configuration handling, budget gates, verification reports and graphs."""

import collections
import hashlib
import importlib.util
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hermline import (
    ANTIAUTOMORPHISM,
    AUTOMORPHISM,
    BudgetExceededError,
    GeometryConfig,
    JordanMapSpec,
    Matrix,
    arithmetical_distance,
    build_graph,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    graph_report,
    make_field,
    predicted_point_count,
    report_to_json,
    verify_remarks,
    verify_theorem1,
)
from hermline.harness import (
    check_annihilator,
    check_embedding_injectivity,
    check_hermitian_star,
    check_jordan_adjacency,
    check_jordan_well_defined,
    check_rank_law,
    default_jordan_specs,
    pair_point_table,
)
from hermline import harness, projline
from hermline.hermitian import (
    hermitian_adjacent_star,
    hermitian_matrices,
    isotropic_ids,
)
from hermline.projline import preimage_pair, stable_rank_witness
import reference_checks
from reference_checks import (
    PairCasesByMatrices,
    check_annihilator_by_pairs,
    check_annihilator_by_products,
    check_distant_chain,
    check_jordan_adjacency_by_edges,
    check_jordan_well_defined_by_pairs,
    check_rank_law_by_pairs,
    graph_from_edges,
    point_images_by_first_pair,
    preimage_pair_by_matrices,
)

CONFIGS = [
    GeometryConfig(p=2),
    GeometryConfig(p=3),
    GeometryConfig(p=2, k=2, involution="frobenius"),
    GeometryConfig(p=3, k=2, involution="frobenius"),
]


def test_config_validation():
    with pytest.raises(ValueError):
        GeometryConfig(p=2, n=1)
    with pytest.raises(ValueError):
        GeometryConfig(p=2, budget=0)
    with pytest.raises(ValueError):
        GeometryConfig(p=6).field()
    cfg = GeometryConfig(p=3, k=2, involution="frobenius")
    assert cfg.field().q == 9
    assert cfg.field().involution == "frobenius"


def test_config_is_an_immutable_record():
    cfg = GeometryConfig(3, 2, "frobenius", 3, 500)
    assert cfg == GeometryConfig(p=3, k=2, involution="frobenius", n=3, budget=500)
    assert hash(cfg) == hash(GeometryConfig(3, 2, "frobenius", n=3, budget=500))
    assert GeometryConfig(2) == GeometryConfig(2, 1, "identity", 2, harness.DEFAULT_BUDGET)
    assert GeometryConfig(2) != GeometryConfig(2, n=3)
    assert repr(GeometryConfig(2)) == (
        "GeometryConfig(p=2, k=1, involution='identity', n=2, budget=1000000)"
    )
    with pytest.raises(AttributeError):
        cfg.n = 2
    with pytest.raises(ValueError):
        cfg._replace(n=1)
    with pytest.raises(ValueError):
        GeometryConfig._make((2, 1, "identity", 2, 0))


def test_gaussian_binomial_frozen():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 2, 4) == 357
    assert gaussian_binomial(4, 2, 9) == 7462
    assert gaussian_binomial(4, 0, 5) == 1
    assert gaussian_binomial(4, 5, 2) == 0
    assert gaussian_binomial(14, 7, 2) > 10**6


def test_gaussian_binomial_symmetry():
    for m in range(1, 7):
        for r in range(m + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(m, r, q) == gaussian_binomial(m, m - r, q)


def test_predicted_count_matches_enumeration():
    for cfg in CONFIGS[:3]:
        points = enumerate_grassmannian(cfg)
        assert len(points) == predicted_point_count(cfg)


def test_budget_gate():
    with pytest.raises(BudgetExceededError):
        enumerate_grassmannian(GeometryConfig(p=2, n=7))
    with pytest.raises(BudgetExceededError):
        verify_theorem1(GeometryConfig(p=2, n=2, budget=30))
    assert len(enumerate_grassmannian(GeometryConfig(p=2, budget=35))) == 35


def _load_oracles():
    """perfbench/oracles.py, loaded by path: its closed forms import nothing
    of hermline, so they are an independent check of the gate's counts."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def _work(cfg, command=None, relation=None, point_set=None, fmt=None) -> dict:
    """The gate's counts for a command, by what they count."""
    work = harness._work(cfg, command, relation, point_set, fmt)
    return {what: count for count, what in work}


@pytest.mark.parametrize(
    "cfg",
    [
        GeometryConfig(p=2),
        GeometryConfig(p=3),
        GeometryConfig(p=2, k=2),
        GeometryConfig(p=2, k=2, involution="frobenius"),
        GeometryConfig(p=5),
        GeometryConfig(p=3, k=2, involution="frobenius"),
        GeometryConfig(p=2, n=3),
    ],
    ids=["gf2", "gf3", "gf4", "gf4s", "gf5", "gf9s", "gf2-3"],
)
def test_work_counts_match_oracles_and_built_objects(cfg):
    field, n = cfg.field(), cfg.n
    q, hermitian = field.q, field.involution == "frobenius"
    points = oracles.point_count(q, n)
    isotropic = oracles.isotropic_count(q, n, hermitian)
    herm = oracles.hermitian_matrix_count(q, n, hermitian)
    assert _work(cfg) == {"field tables of {} entries": q * q}
    assert _work(cfg, "enumerate")["{} points"] == points
    assert _work(cfg, "isotropic")["{} isotropic points"] == isotropic
    assert isotropic == len(isotropic_ids(field, n)[1])
    assert _work(cfg, "jordan-check")["{} hermitian triple products"] == herm**2
    assert herm == len(hermitian_matrices(field, n))
    for point_set, relation in itertools.product(
        ("all", "isotropic"), ("distant", "adjacency")
    ):
        nodes = points if point_set == "all" else isotropic
        degree = oracles.graph_degree(q, n, relation, point_set, hermitian)
        counts = _work(cfg, "graph", relation, point_set, "json")
        assert counts["{} incidences"] == nodes * oracles.gaussian_binomial(n, 1, q)
        edges = counts["{} edges in json or dot"]
        assert edges == nodes * degree // 2
        graph = build_graph(cfg, relation, point_set)
        assert edges == sum(graph.degree_sequence()) // 2
        csv = _work(cfg, "graph", relation, point_set, "csv")
        assert "{} edges in json or dot" not in csv


@pytest.mark.parametrize(
    "cfg,size",
    list(zip(CONFIGS, [15, 40, 27, 112])),
    ids=["gf2", "gf3", "gf4", "gf9"],
)
def test_verify_theorem1_reports(cfg, size):
    report = verify_theorem1(cfg)
    assert report["equal"]
    assert report["witnesses"] == []
    assert report["counts"]["isotropic"] == size
    assert report["counts"]["bartolone_image"] == size
    assert report["check"] == "theorem1"
    assert report["format_version"] == 1
    assert report["field_p"] == cfg.p and report["field_k"] == cfg.k


# sha256 of the verify_theorem1 report when the hermitian set is wrong,
# recorded before the theorem check moved from point objects to point
# ids.  "dropped" keeps the first half of the hermitian matrices, which
# leaves isotropic points without parameters; "added" appends the
# non-hermitian [[0, 1], [0, 0]], which parametrises points that are not
# isotropic.
THEOREM1_FAILURES = {
    ("gf3", "dropped"): (
        "55ce40b65e62d04c38d32143d6f4e40d2801ea800e04a5419f005337a9698ec1"
    ),
    ("gf3", "added"): (
        "5ca3de679fd8ab5867ee0113b7ce3083e89b5ae3c7295762f14455bcce513b9c"
    ),
    ("gf4", "dropped"): (
        "246aeb7cf089cba000116e40e493621c4c01ab87c622e87fa76fd321b3ad9f71"
    ),
    ("gf4", "added"): (
        "51823b953910414a9cccfee957217ce9f2ed3400266302d4700be8a5068579ca"
    ),
    ("gf9", "dropped"): (
        "18ff5892912cfabda62f942869051fb7c87d480c692323f1ec4d7ed9c2955b2c"
    ),
    ("gf9", "added"): (
        "3543a42a2f6a5eefe2fbefd104650af188021642faa618e32b15fd0909a6649f"
    ),
}


@pytest.mark.parametrize("key", sorted(THEOREM1_FAILURES), ids="-".join)
def test_verify_theorem1_failure_reports(key, monkeypatch):
    label, case = key
    cfg = CONFIGS[["gf2", "gf3", "gf4", "gf9"].index(label)]
    real = harness.hermitian_matrices

    def wrong(field, n):
        herm = real(field, n)
        if case == "dropped":
            return herm[: len(herm) // 2]
        return herm + (Matrix(field, [[0, 1], [0, 0]]),)

    monkeypatch.setattr(harness, "hermitian_matrices", wrong)
    report = verify_theorem1(cfg)
    assert not report["equal"]
    kind = {
        "dropped": "isotropic_without_parameters",
        "added": "parametrised_but_not_isotropic",
    }[case]
    assert {w["kind"] for w in report["witnesses"]} == {kind}
    text = report_to_json(report)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == THEOREM1_FAILURES[key]


# sha256 of the check_annihilator report when the annihilator drops its
# "- I" (so (T2*T1 - I | T2) times it is T2, not zero), recorded while
# the check still multiplied by the generator itself: GF(3) exhaustive
# and GF(9)s sampled with seed 17 and 1,000 samples.
ANNIHILATOR_FAILURES = {
    "gf3": "0250e3f73daac9c24dfa222e4dd6cabbbda2991649fa9ece2eec6e3d1754710e",
    "gf9": "b5165bc90592178a7cbc6d61a58dd3930df00bad8f8f304afc5a91edc2ab06bb",
}


def _annihilator_mutant(change):
    """The annihilator row kernel with change(field, i, d, upper, lower) applied.

    The kernel gives row i once for all the ds; every mutant changes it
    the same way whatever d is.
    """
    real = projline._annihilator_rows

    def rows(field, t2, ds):
        changed = []
        for i, (upper, lowers) in enumerate(real(field, t2, ds)):
            bottoms = []
            for d, lower in zip(ds[i], lowers):
                top, bottom = list(upper), list(lower)
                change(field, i, d, top, bottom)
                bottoms.append(tuple(bottom))
            changed.append((tuple(top), bottoms))
        return changed

    return rows


def _drop_shift(field, i, d, upper, lower):
    """Undo the - e_i of row n + i, so the lower block is T1*T2."""
    lower[i] = field.add(lower[i], 1)


def _drop_shift_where_t1_00_nonzero(field, i, d, upper, lower):
    if i == 0 and d[0]:
        _drop_shift(field, i, d, upper, lower)


def _copy_column_0_to_1(field, i, d, upper, lower):
    """Columns stay annihilated by the point, but two of them agree."""
    upper[1], lower[1] = upper[0], lower[0]


@pytest.mark.parametrize("label", sorted(ANNIHILATOR_FAILURES))
def test_check_annihilator_failure_reports(label, monkeypatch):
    monkeypatch.setattr(projline, "_annihilator_rows", _annihilator_mutant(_drop_shift))
    if label == "gf3":
        report = check_annihilator(make_field(3), 2)
        assert report["mode"] == "exhaustive"
    else:
        field = make_field(3, 2, "frobenius")
        report = check_annihilator(field, 2, seed=17, samples=1000)
        assert report["mode"] == "sampled"
    assert not report["passed"]
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == ANNIHILATOR_FAILURES[label]


@pytest.mark.parametrize(
    "mutant", [None, "partial", "rank_only"], ids=["correct", "partial", "rank_only"]
)
def test_check_annihilator_matches_products(mutant, monkeypatch):
    """The row check and the per-pair product check agree on every pair.

    Their reports are byte-identical and the verdicts, recorded row by
    row and pair by pair, are equal.  The partial mutant breaks only pairs with
    T1[0][0] != 0; the rank-only one keeps every column in the point's
    kernel but makes two of them equal, so the rank half alone must fail
    every pair.
    """
    change = {
        "partial": _drop_shift_where_t1_00_nonzero,
        "rank_only": _copy_column_0_to_1,
    }
    if mutant:
        monkeypatch.setattr(
            projline, "_annihilator_rows", _annihilator_mutant(change[mutant])
        )
    real_check, verdicts = harness._PairCases.check, []
    real_by_pairs = reference_checks.check_by_pairs

    def recording_check(cases, name, row, seed, samples):
        def recorded(t1, t2s, points):
            kept = list(map(bool, row(t1, t2s, points)))
            verdicts.extend(zip(itertools.repeat(t1), t2s, kept))
            return kept

        return real_check(cases, name, recorded, seed, samples)

    def recording_by_pairs(cases, name, holds, seed, samples):
        def recorded(t1, t2):
            verdicts.append((t1, t2, bool(holds(t1, t2))))
            return verdicts[-1][2]

        return real_by_pairs(cases, name, recorded, seed, samples)

    monkeypatch.setattr(harness._PairCases, "check", recording_check)
    monkeypatch.setattr(reference_checks, "check_by_pairs", recording_by_pairs)
    runs = [
        (make_field(3), {}, "exhaustive"),
        (make_field(2, 2, "frobenius"), {}, "exhaustive"),
        (make_field(3, 2, "frobenius"), {"seed": 17, "samples": 1000}, "sampled"),
    ]
    for field, options, mode in runs:
        report = check_annihilator(field, 2, **options)
        assert report["mode"] == mode
        tables, verdicts[:] = verdicts[:], []
        reference = check_annihilator_by_products(field, 2, **options)
        assert report_to_json(report) == report_to_json(reference)
        assert tables == verdicts
        failed = [(t1, t2) for t1, t2, holds in verdicts if not holds]
        verdicts.clear()
        if mutant is None:
            assert report["passed"] and not failed
        elif mutant == "partial":
            assert 0 < len(failed) < report["cases"]
            # T1[0][0] is the leading base-q digit of the id of T1
            assert all(t1 >= field.q**3 for t1, _ in failed)
        else:
            assert len(failed) == report["cases"]


def test_report_json_is_stable():
    report = verify_theorem1(CONFIGS[0])
    text = report_to_json(report)
    assert text.endswith("\n")
    assert json.loads(text) == report
    assert report_to_json(verify_theorem1(CONFIGS[0])) == text


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
)
# Lists of ints and of equal-width int rows, bools mixed in or not, the
# shapes that report_to_json writes without json.dumps.
_INT_ARRAYS = st.sampled_from([st.integers(), st.integers() | st.booleans()]).flatmap(
    lambda entries: st.lists(entries)
    | st.integers(0, 3).flatmap(
        lambda width: st.lists(st.lists(entries, min_size=width, max_size=width))
    )
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _INT_ARRAYS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.dictionaries(st.integers() | st.booleans() | st.none() | st.floats(), children, max_size=3),
    max_leaves=12,
)


@settings(deadline=None)
@given(_JSON_VALUES)
@example({"flags": [1, True, 0, False], "edges": [[0, 1], [0, 2], [1, 2]]})
@example({"nested": {"é\n\"": [[True, 1], [2, 3]], "": [], "ragged": [[1], [2, 3]]}})
def test_report_to_json_matches_json_dumps(value):
    """report_to_json is json.dumps(value, indent=2) plus a newline, byte for byte."""
    assert report_to_json(value) == json.dumps(value, indent=2) + "\n"


def test_distant_graph_frozen_stats():
    graph = build_graph(CONFIGS[0], kind="distant", point_set="all")
    assert len(graph.neighbours) == 35
    assert len(list(graph.edges())) == 280
    assert graph.diameter() == 2
    degrees = graph.degree_sequence()
    assert degrees == [16] * 35
    for i, j in graph.edges():
        assert i != j


def test_adjacency_graph_distance_equals_arithmetical():
    """BFS distance in the Grassmann graph equals the dimension formula."""
    for cfg in CONFIGS[:2]:
        graph = build_graph(cfg, kind="adjacency", point_set="all")
        points = enumerate_points(cfg.field(), cfg.n)
        for start in range(0, len(points), 7):
            dist = graph.bfs_distances(start)
            for j, d in enumerate(dist):
                assert d == arithmetical_distance(points[start], points[j])


def test_isotropic_adjacency_graph():
    graph = build_graph(CONFIGS[0], kind="adjacency", point_set="isotropic")
    assert len(graph.neighbours) == 15
    assert len(list(graph.edges())) == 45
    assert graph.diameter() == 2
    assert graph.degree_sequence() == [6] * 15


def test_build_graph_validation():
    with pytest.raises(ValueError):
        build_graph(CONFIGS[0], kind="far")
    with pytest.raises(ValueError):
        build_graph(CONFIGS[0], point_set="some")


def test_graph_report_schema():
    graph = build_graph(CONFIGS[0], kind="distant", point_set="all")
    report = graph_report(CONFIGS[0], graph)
    assert list(report)[:6] == [
        "format_version",
        "check",
        "field_p",
        "field_k",
        "involution",
        "n",
    ]
    assert report["relation"] == "distant"
    assert report["counts"] == {"nodes": 35, "edges": 280}
    assert report["diameter"] == 2
    assert len(report["edges"]) == 280


def test_dot_and_csv_export():
    graph = graph_from_edges("distant", "all", 3, [(0, 1), (1, 2)])
    assert graph.to_dot() == (
        "graph distant {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
    )
    assert graph.degrees_csv() == "node_id,degree\n0,1\n1,2\n2,1\n"
    assert graph.diameter() == 2


def test_disconnected_graph_diameter():
    graph = graph_from_edges("adjacency", "all", 3, [(0, 1)])
    assert graph.diameter() is None
    lonely = graph_from_edges("adjacency", "all", 1, [])
    assert lonely.diameter() == 0


def test_pair_point_table_guarded():
    field = make_field(3, 2, "frobenius")
    with pytest.raises(ValueError):
        pair_point_table(field, 2)


def test_preimage_pair_roundtrip(f3):
    from hermline import bartolone

    for p in enumerate_points(f3, 2)[::11]:
        pair = preimage_pair(p)
        assert bartolone(pair) == p
        assert pair == preimage_pair_by_matrices(p)
        t1 = Matrix(f3, [[1, 2], [0, 1]])
        try:
            reference = preimage_pair_by_matrices(p, t1)
        except ValueError:
            with pytest.raises(ValueError):
                preimage_pair(p, t1)
        else:
            assert preimage_pair(p, t1) == reference
    with pytest.raises(ValueError):
        preimage_pair(p, Matrix.identity(f3, 3))
    with pytest.raises(ValueError):
        preimage_pair(p, Matrix.identity(make_field(5), 2))


def _off_by_one_preimages(real):
    """The _preimages kernel with 1 added to entry (0, 0) of every T2 it finds."""

    def preimages(field, n):
        solve = real(field, n)

        def preimage(rows, t1):
            t2 = solve(rows, t1)
            if t2 is None:
                return None
            first = (field.add(t2[0][0], 1),) + t2[0][1:]
            return (first,) + t2[1:]

        return preimage

    return preimages


def test_broken_preimage_round_trip_is_an_error(monkeypatch):
    """A kernel whose T2 misses the point raises, also under python -O.

    preimage_pair, stable_rank_witness and both sampled twisted-map
    checks solve through _preimage_ids, which makes the check.  T1 is
    kept and the embedding T2 -> point is injective, so the changed T2
    always parametrises another point.
    """
    broken = _off_by_one_preimages(projline._preimages)
    monkeypatch.setattr(projline, "_preimages", broken)
    f3 = make_field(3)
    with pytest.raises(AssertionError, match="another point"):
        preimage_pair(enumerate_points(f3, 2)[17])
    with pytest.raises(AssertionError, match="another point"):
        stable_rank_witness(Matrix.identity(f3, 2), Matrix.identity(f3, 2))
    field = make_field(3, 2, "frobenius")
    label, spec = default_jordan_specs(field, 2)[0]
    for check in (check_jordan_well_defined, check_jordan_adjacency):
        with pytest.raises(AssertionError, match="another point"):
            check(field, 2, spec, label, seed=1, samples=5)


def test_verify_remarks_exhaustive_small():
    report = verify_remarks(CONFIGS[0])
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "embedding_injectivity" in names
    assert "rank_distance_law" in names
    assert "annihilator" in names
    assert "hermitian_star" in names
    assert any(name.startswith("jordan_well_defined") for name in names)
    assert any(name.startswith("jordan_adjacency") for name in names)
    for check in report["checks"]:
        assert check["mode"] == "exhaustive"
        assert check["witnesses"] == []


def test_verify_remarks_sampled_large():
    report = verify_remarks(CONFIGS[3], seed=5)
    assert report["passed"]
    modes = {c["name"]: c["mode"] for c in report["checks"]}
    assert modes["rank_distance_law"] == "sampled"
    assert modes["annihilator"] == "sampled"
    assert report["seed"] == 5


def test_verify_remarks_deterministic():
    a = verify_remarks(CONFIGS[3], seed=9)
    b = verify_remarks(CONFIGS[3], seed=9)
    assert report_to_json(a) == report_to_json(b)


# sha256 of the check_embedding_injectivity report on n = 2 when the
# kernel's ids are divided by 3, so that T2s clash, recorded while the
# check still built a Matrix for every T2.
EMBEDDING_CLASHES = {
    2: "c36b5faaea355ab494e3f0c66a6f511b7155d379c8616d2f37102d1a9c44269b",
    3: "c09ea2febda0659e33193a4863557df2efb04d1e26e81416d0ef334bc813ccf9",
}


@pytest.mark.parametrize("p", sorted(EMBEDDING_CLASHES))
def test_embedding_injectivity_witnesses(p, monkeypatch):
    real = harness.pair_point_table

    def clashing(field, n):
        return [[p // 3 for p in row] for row in real(field, n)]

    monkeypatch.setattr(harness, "pair_point_table", clashing)
    report = check_embedding_injectivity(make_field(p), 2)
    assert not report["passed"] and len(report["witnesses"]) == 10
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == EMBEDDING_CLASHES[p]


# sha256 of the check_embedding_injectivity report on sampled GF(9)s
# n = 2 when the kernel's ids are divided by 3, recorded while the check
# still tallied one outcome per T2.
SAMPLED_EMBEDDING_CLASHES = (
    "d98985ec26abdd17a5f5b526a7622a2c697049b99daeba023d83ef92a7982c01"
)


def test_sampled_embedding_injectivity_witnesses(monkeypatch):
    """On a sampled case set the clash of each witness is its first T2."""
    real = harness._pair_ids

    def clashing(field, n):
        pair_id = real(field, n)
        return lambda t1, t2: pair_id(t1, t2) // 3

    monkeypatch.setattr(harness, "_pair_ids", clashing)
    field = make_field(3, 2, "frobenius")
    report = check_embedding_injectivity(field, 2)
    assert harness._cases(field, 2).mode == "sampled"
    assert report["cases"] == 2 * 9**4
    assert not report["passed"] and len(report["witnesses"]) == 10
    pair_id = real(field, 2)
    for w in report["witnesses"]:
        t1, t2, clash = (Matrix.from_json(field, w[k]).entries for k in w)
        assert clash < t2 and pair_id(t1, t2) // 3 == pair_id(t1, clash) // 3
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == SAMPLED_EMBEDDING_CLASHES


# sha256 of the check_hermitian_star report on GF(9)s n = 2 when every
# point is at distance 2, recorded while the check tallied one outcome
# per point.
STAR_FAILURES = "7cda238e9ca1a797cbebaf58d199f3d4a4c008eed358fb666c84e44d37b4dd3f"


def test_hermitian_star_witnesses(monkeypatch):
    """A failing star check keeps its first ten points in (c0, point) order."""
    field = make_field(3, 2, "frobenius")
    expected = [
        {"c0": list(c0), "point": point.to_json()}
        for c0 in ((1, 0), (0, 1), (1, 1))
        for point in hermitian_adjacent_star(field, 2, c0)
    ]
    monkeypatch.setattr(harness, "arithmetical_distance", lambda base, point: 2)
    report = check_hermitian_star(field, 2)
    assert report["cases"] == len(expected) == 12
    assert not report["passed"] and report["witnesses"] == expected[:10]
    digest = hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest()
    assert digest == STAR_FAILURES


def test_individual_checks_gf3():
    field = make_field(3)
    assert check_embedding_injectivity(field, 2)["passed"]
    assert check_rank_law(field, 2)["passed"]
    assert check_annihilator(field, 2)["passed"]
    assert check_hermitian_star(field, 2)["passed"]
    for label, spec in default_jordan_specs(field, 2):
        wd = check_jordan_well_defined(field, 2, spec, label)
        assert wd["passed"]
        assert wd["mode"] == "exhaustive"
        adj = check_jordan_adjacency(field, 2, spec, label)
        assert adj["passed"]


def test_sampled_checks_pass_on_big_field():
    field = make_field(3, 2, "frobenius")
    rank = check_rank_law(field, 2, seed=1, samples=500)
    assert rank["mode"] == "sampled" and rank["passed"]
    ann = check_annihilator(field, 2, seed=1, samples=200)
    assert ann["mode"] == "sampled" and ann["passed"]
    label, spec = default_jordan_specs(field, 2)[0]
    wd = check_jordan_well_defined(field, 2, spec, label, seed=1, samples=50)
    assert wd["mode"] == "sampled" and wd["passed"]
    assert wd["cases"] == 50
    adj = check_jordan_adjacency(field, 2, spec, label, seed=1, samples=50)
    assert adj["mode"] == "sampled" and adj["passed"]


@pytest.mark.parametrize(
    "field", [make_field(3), make_field(2, 2, "frobenius")], ids=["gf3", "gf4"]
)
def test_sampled_cases_match_the_exhaustive_table(field, monkeypatch):
    """Forced into sampled mode, the cases agree with the exhaustive table."""
    table = pair_point_table(field, 2)
    monkeypatch.setattr(harness, "_EXHAUSTIVE_PAIR_LIMIT", 0)
    cases = harness._cases(field, 2)
    assert cases.mode == "sampled"
    q, rng = field.q, random.Random(11)
    for t1, t2 in cases.pairs(11, 300):
        for t in (t1, t2):
            drawn = tuple(tuple(rng.randrange(q) for _ in range(2)) for _ in range(2))
            assert cases.matrix[t].entries == drawn
        assert cases.table[t1][t2] == table[t1][t2]
    results = [
        (check_rank_law(field, 2, seed=4, samples=200), 200),
        (check_annihilator(field, 2, seed=4, samples=100), 100),
    ]
    for label, spec in default_jordan_specs(field, 2):
        for check in (check_jordan_well_defined, check_jordan_adjacency):
            results.append((check(field, 2, spec, label, seed=4, samples=40), 40))
    for result, samples in results:
        assert result["mode"] == "sampled"
        assert result["passed"]
        assert result["cases"] == samples


class Shifted(JordanMapSpec):
    """X -> X + I after the map: no ring map, so no induced point map."""

    __slots__ = ()

    def apply(self, m):
        return super().apply(m) + Matrix.identity(m.field, m.rows)


# sha256 of the sampled GF(9)s reports of the Shifted map, seed 3 and 40
# samples, recorded while the sampled cases still built matrices and
# subspaces, so that their witnesses cannot drift.
SHIFTED_SAMPLED = {
    "check_jordan_well_defined": (
        "f4103dfbb0bf0c798e5e3a991e903f325fa25d405aa7c12a0b4f2a703628276d"
    ),
    "check_jordan_adjacency": (
        "62e9e29ae014ef080f9e1e652d267a01d0a8adc213dfc69f82e35df5f561e345"
    ),
}


def test_twisted_map_checks_catch_a_map_without_point_map():
    """X -> X + I is no ring map: both modes report witnesses."""
    for field, samples in ((make_field(2), 500), (make_field(3, 2, "frobenius"), 40)):
        spec = Shifted(AUTOMORPHISM, 0, Matrix.identity(field, 2))
        for check in (check_jordan_well_defined, check_jordan_adjacency):
            result = check(field, 2, spec, "shifted", seed=3, samples=samples)
            assert not result["passed"]
            assert len(result["witnesses"]) == 10
            if result["mode"] == "sampled":
                text = report_to_json(result).encode("utf-8")
                digest = hashlib.sha256(text).hexdigest()
                assert digest == SHIFTED_SAMPLED[check.__name__]


@pytest.mark.parametrize(
    "config,seed",
    [
        ((2, 1, "identity", 3), 0),
        ((2, 1, "identity", 3), 5),
        ((3, 2, "frobenius", 2), 7),
    ],
    ids=["gf2-3-seed0", "gf2-3-seed5", "gf9-2-seed7"],
)
def test_sampled_twisted_maps_match_matrices(config, seed, monkeypatch):
    """The entry-tuple sampled cases agree with the Matrix-based ones.

    Both run the twisted-map checks for the default maps and the
    Shifted one, whose verdicts mix passes and failures.  The entry-tuple
    cases draw every value through harness._below and the Matrix-based
    ones through randrange; both streams are the same, and both reach
    the same verdict on every case and print byte-identical reports.
    """
    *field_args, n = config
    field = make_field(*field_args)
    specs = default_jordan_specs(field, n)
    specs.append(("shifted", Shifted(AUTOMORPHISM, 0, Matrix.identity(field, n))))
    real_tally, real_below, rng = harness._tally, harness._below, random.Random
    runs = []
    for cases in (harness._PairCases, PairCasesByMatrices):
        draws, verdicts = {"_below": [], "randrange": []}, []

        def recording_below(*args):
            values = real_below(*args)
            draws["_below"].extend(values)
            return values

        class CountingRandom(rng):
            def randrange(self, *args):
                draws["randrange"].append(super().randrange(*args))
                return draws["randrange"][-1]

        def recording_tally(name, mode, rows, witness):
            def recorded():
                for a, bs, row in rows:
                    row = list(row)
                    verdicts.extend(map(bool, row))
                    yield a, bs, row

            return real_tally(name, mode, recorded(), witness)

        monkeypatch.setattr(harness, "_below", recording_below)
        monkeypatch.setattr(harness.random, "Random", CountingRandom)
        monkeypatch.setattr(harness, "_tally", recording_tally)
        monkeypatch.setattr(harness, "_PairCases", cases)
        harness._cases.cache_clear()
        reports = [
            report_to_json(check(field, n, spec, label, seed=seed, samples=200))
            for label, spec in specs
            for check in (check_jordan_well_defined, check_jordan_adjacency)
        ]
        assert all('"mode": "sampled"' in report for report in reports)
        runs.append((draws, verdicts, reports))
    (draws, verdicts, reports), reference = runs
    assert not draws["randrange"] and not reference[0]["_below"]
    assert draws["_below"] == reference[0]["randrange"]
    assert verdicts == reference[1]
    assert reports == reference[2]
    assert False in verdicts and True in verdicts


def test_sampled_twisted_maps_apply_each_map_once_per_matrix(monkeypatch):
    """The sampled checks of one map share its image memo.

    On GF(2) n = 3 the two default maps meet each of the 512 matrices at
    most once each (2,838 calls when every check kept its own memo).
    """
    calls = 0
    real = JordanMapSpec.apply

    def counted(spec, m):
        nonlocal calls
        calls += 1
        return real(spec, m)

    monkeypatch.setattr(JordanMapSpec, "apply", counted)
    report = verify_remarks(GeometryConfig(p=2, n=3))
    assert report["passed"]
    assert calls <= 2 * 2**9


def test_jordan_specs_compare_by_value():
    """Specs are equal, and hash equal, when type, kind, power and Q are."""
    field = make_field(2, 2, "frobenius")
    ident, shear = Matrix.identity(field, 2), Matrix(field, [[1, 1], [0, 1]])
    spec = JordanMapSpec(AUTOMORPHISM, 1, ident)
    twin = JordanMapSpec(AUTOMORPHISM, 3, Matrix.identity(field, 2))
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != JordanMapSpec(AUTOMORPHISM, 0, ident)
    assert spec != JordanMapSpec(AUTOMORPHISM, 1, shear)
    assert spec != JordanMapSpec(ANTIAUTOMORPHISM, 1, ident)
    assert spec != Shifted(AUTOMORPHISM, 1, ident)
    assert Shifted(AUTOMORPHISM, 1, ident) == Shifted(AUTOMORPHISM, 1, ident)
    assert default_jordan_specs(field, 2) == default_jordan_specs(field, 2)


def test_remark_runs_share_one_case_set(monkeypatch):
    """Repeated runs on one (field, n) build each shared table once.

    Three exhaustive GF(4)s runs in one process build the pair table
    and the adjacency masks once and apply each of the three maps once
    to each of the 256 matrices: 768 calls in all (2,304 when the image
    memo was keyed on spec identity).
    """
    calls = collections.Counter()
    real_table, real_masks = harness.pair_point_table, harness._relation_neighbours
    real_apply = JordanMapSpec.apply

    def table(field, n):
        calls["table"] += 1
        return real_table(field, n)

    def masks(field, n, points, kind):
        calls[kind] += 1
        return real_masks(field, n, points, kind)

    def apply(spec, m):
        calls[spec, m] += 1
        return real_apply(spec, m)

    monkeypatch.setattr(harness, "pair_point_table", table)
    monkeypatch.setattr(harness, "_relation_neighbours", masks)
    monkeypatch.setattr(JordanMapSpec, "apply", apply)
    config = GeometryConfig(p=2, k=2, involution="frobenius")
    for _ in range(3):
        assert verify_remarks(config)["passed"]
    assert calls.pop("table") == 1 and calls.pop("adjacency") == 1
    assert len(calls) == 3 * 256 and set(calls.values()) == {1}
    assert harness._cases.cache_info().misses == 1


def test_sampled_table_eliminates_each_pair_once(monkeypatch):
    """The sampled checks of one run fill one table, one elimination per pair.

    On GF(2) n = 3 at seed 0 every pair that any check reads, the 1,024
    embedding pairs included, is row reduced by _pair_ids exactly once.
    """
    reduced, real = collections.Counter(), harness._pair_ids

    def counting(field, n):
        pair_id = real(field, n)

        def counted(t1, t2):
            reduced[t1, t2] += 1
            return pair_id(t1, t2)

        return counted

    monkeypatch.setattr(harness, "_pair_ids", counting)
    config = GeometryConfig(p=2, n=3)
    report = verify_remarks(config, seed=0)
    assert report["passed"]
    assert {c["mode"] for c in report["checks"][1:-1]} == {"sampled"}
    table = harness._cases(config.field(), 3).table
    assert set(reduced.values()) == {1}
    assert len(reduced) == sum(map(len, table.values()))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 256])
def test_below_draws_what_randrange_draws(q):
    """harness._below returns randrange's values and leaves its state.

    It takes the getrandbits steps of CPython's randrange; a Python
    whose randrange draws otherwise fails here by name.
    """
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = [theirs.randrange(q) for _ in range(10_000)]
        assert harness._below(ours, q, 10_000) == drawn
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize(
    "field,n",
    [(make_field(2), 3), (make_field(5), 2), (make_field(3, 2, "frobenius"), 2)],
    ids=["gf2-3", "gf5-2", "gf9-2"],
)
def test_drawn_matrix_id_reads_randrange_entries_in_row_major_order(field, n):
    """_draw's id is the base-q numeral of randrange's entries, row by row."""
    cases = harness._PairCases(field, n)
    cases.rng, rng = random.Random(3), random.Random(3)
    for _ in range(500):
        t = 0
        for _ in range(n * n):
            t = t * field.q + rng.randrange(field.q)
        assert cases._draw() == t


def test_sampled_twisted_maps_solve_each_drawn_pair_once(monkeypatch):
    """The twisted-map checks of a run solve each drawn (point, T1) once.

    On GF(2) n = 3 at seed 0 every map draws the same T1s; solved once
    per case set, the kernel runs 3,799 times in all, representative
    pairs included (6,560 when each map solved its own).
    """
    drawn, total, well_defined = collections.Counter(), 0, False
    real_preimages, real_check = projline._preimages, harness.check_jordan_well_defined

    def counting(field, n):
        solve = real_preimages(field, n)

        def counted(rows, t1):
            nonlocal total
            total += 1
            drawn[rows, t1] += well_defined
            return solve(rows, t1)

        return counted

    def check(*args, **kwargs):
        nonlocal well_defined
        well_defined = True
        try:
            return real_check(*args, **kwargs)
        finally:
            well_defined = False

    monkeypatch.setattr(projline, "_preimages", counting)
    monkeypatch.setattr(harness, "check_jordan_well_defined", check)
    report = verify_remarks(GeometryConfig(p=2, n=3), seed=0)
    assert report["passed"]
    assert sum(drawn.values()) > 1_000 and max(drawn.values()) == 1
    assert total <= 3_800


def test_sampled_transposed_preimage_is_an_error(monkeypatch):
    """A kernel returning T2 transposed raises in both sampled checks,
    also under python -O: each memoised solve keeps its check."""
    real = projline._preimages

    def transposed(field, n):
        solve = real(field, n)

        def preimage(rows, t1):
            t2 = solve(rows, t1)
            return None if t2 is None else tuple(zip(*t2))

        return preimage

    monkeypatch.setattr(projline, "_preimages", transposed)
    field = make_field(2)
    for label, spec in default_jordan_specs(field, 3):
        for check in (check_jordan_well_defined, check_jordan_adjacency):
            with pytest.raises(AssertionError, match="another point"):
                check(field, 3, spec, label)


@pytest.mark.parametrize(
    "field",
    [make_field(2), make_field(3), make_field(2, 2, "frobenius")],
    ids=["gf2", "gf3", "gf4"],
)
def test_point_image_matches_the_first_pair_scan(field, monkeypatch):
    """Each point's image is its first pair's, and each point is solved once.

    The representative pairs are shared by every map and both
    twisted-map checks, so _preimage_ids runs once per point in all.
    """
    solved, real = collections.Counter(), harness._preimage_ids

    def counted(field, n, rows, point_id, t1_ids, matrix):
        solved[point_id] += 1
        return real(field, n, rows, point_id, t1_ids, matrix)

    monkeypatch.setattr(harness, "_preimage_ids", counted)
    size = gaussian_binomial(4, 2, field.q)
    for label, spec in default_jordan_specs(field, 2):
        image = harness._cases(field, 2).point_image(spec)
        assert [image[p] for p in range(size)] == point_images_by_first_pair(
            field, 2, spec
        )
        for check in (check_jordan_well_defined, check_jordan_adjacency):
            assert check(field, 2, spec, label)["passed"]
    assert sorted(solved) == list(range(size))
    assert set(solved.values()) == {1}


def _shifted_table(field, n):
    """pair_point_table with every point id moved on by one, cyclically."""
    size = gaussian_binomial(2 * n, n, field.q)
    return [[(p + 1) % size for p in row] for row in pair_point_table(field, n)]


def _shifted_pair_ids(real):
    """The _pair_ids kernel with every point id moved on by one, cyclically."""

    def pair_ids(field, n):
        pair_id, size = real(field, n), gaussian_binomial(2 * n, n, field.q)
        return lambda t1, t2: (pair_id(t1, t2) + 1) % size

    return pair_ids


def test_rank_law_catches_shifted_point_ids(monkeypatch):
    """The rank law reads each pair's point id: shifted ids give witnesses."""
    monkeypatch.setattr(harness, "pair_point_table", _shifted_table)
    report = check_rank_law(make_field(3), 2)
    assert report["mode"] == "exhaustive" and report["cases"] == 3**8
    assert not report["passed"] and len(report["witnesses"]) == 10
    monkeypatch.setattr(harness, "_pair_ids", _shifted_pair_ids(harness._pair_ids))
    report = check_rank_law(make_field(3, 2, "frobenius"), 2, seed=3, samples=200)
    assert report["mode"] == "sampled" and report["cases"] == 200
    assert not report["passed"] and len(report["witnesses"]) == 10


@pytest.mark.parametrize(
    "field,samples",
    [
        (make_field(3), {}),
        (make_field(2, 2, "frobenius"), {}),
        (make_field(3, 2, "frobenius"), {"seed": 2, "samples": 60}),
    ],
    ids=["gf3", "gf4", "gf9"],
)
def test_remark_checks_build_no_points(field, samples, monkeypatch):
    """The rank law and the twisted-map checks run on ids and rows alone.

    Point objects are unranked only for witnesses, and the distance from
    the base point is read off the point's rows.
    """

    def refuse(*args):
        raise RuntimeError("a passing remark check built a point")

    monkeypatch.setattr(harness, "point_from_id", refuse)
    monkeypatch.setattr(harness, "arithmetical_distance", refuse)
    reports = [check_rank_law(field, 2, **samples)]
    for label, spec in default_jordan_specs(field, 2):
        for check in (check_jordan_well_defined, check_jordan_adjacency):
            reports.append(check(field, 2, spec, label, **samples))
    mode = "sampled" if samples else "exhaustive"
    assert all(r["passed"] and r["mode"] == mode for r in reports)


def test_distant_chain_witnesses():
    result = check_distant_chain(make_field(2), 2)
    assert result["passed"]
    assert result["cases"] == 256


def _corrupted_table(field, n):
    """pair_point_table with one interior entry moved to the next point id."""
    size = gaussian_binomial(2 * n, n, field.q)
    table = pair_point_table(field, n)
    t1, t2 = len(table) // 2 + 1, len(table) // 3 + 1
    table[t1][t2] = (table[t1][t2] + 1) % size
    return table


# Each mutant, what it changes and the checks it is run on.
ROW_MUTANTS = {
    "none": ({}, ("rank", "annihilator", "twisted")),
    "partial": (
        {"_annihilator_rows": _annihilator_mutant(_drop_shift_where_t1_00_nonzero)},
        ("annihilator",),
    ),
    "rank_only": (
        {"_annihilator_rows": _annihilator_mutant(_copy_column_0_to_1)},
        ("annihilator",),
    ),
    "shifted_table": (
        {"pair_point_table": _shifted_table},
        ("rank", "annihilator", "twisted"),
    ),
    "corrupted_entry": (
        {"pair_point_table": _corrupted_table},
        ("rank", "annihilator", "twisted"),
    ),
    "Shifted": ({}, ("shifted",)),
}


@pytest.mark.parametrize("mutant", sorted(ROW_MUTANTS))
@pytest.mark.parametrize(
    "field",
    [make_field(2), make_field(3), make_field(2, 2, "frobenius")],
    ids=["gf2", "gf3", "gf4"],
)
def test_row_checks_match_the_per_pair_reference(field, mutant, monkeypatch):
    """The exhaustive row checks agree with the per-pair reference.

    For each check the reports are byte-identical and the verdicts,
    recorded case by case in order, are equal; every mutant but "none"
    makes some check fail.
    """
    changes, runs = ROW_MUTANTS[mutant]
    for name, change in changes.items():
        module = projline if name == "_annihilator_rows" else harness
        monkeypatch.setattr(module, name, change)
    real_tally, real_cases = harness._tally, reference_checks.tally_by_cases
    rows, pairs = [], []

    def recording_tally(name, mode, verdict_rows, witness):
        def recorded():
            for a, bs, verdicts in verdict_rows:
                verdicts = list(verdicts)
                rows.extend(zip(itertools.repeat(a), bs, map(bool, verdicts)))
                yield a, bs, verdicts

        return real_tally(name, mode, recorded(), witness)

    def recording_cases(name, mode, cases, holds, witness):
        def recorded(a, b):
            pairs.append((a, b, bool(holds(a, b))))
            return pairs[-1][2]

        return real_cases(name, mode, cases, recorded, witness)

    monkeypatch.setattr(harness, "_tally", recording_tally)
    monkeypatch.setattr(reference_checks, "tally_by_cases", recording_cases)
    checks = []
    if "rank" in runs:
        checks.append((check_rank_law, check_rank_law_by_pairs, ()))
    if "annihilator" in runs:
        checks.append((check_annihilator, check_annihilator_by_pairs, ()))
    specs = default_jordan_specs(field, 2) if "twisted" in runs else []
    if "shifted" in runs:
        specs.append(("shifted", Shifted(AUTOMORPHISM, 0, Matrix.identity(field, 2))))
    for label, spec in specs:
        well_defined = check_jordan_well_defined_by_pairs
        checks.append((check_jordan_well_defined, well_defined, (spec, label)))
        checks.append(
            (check_jordan_adjacency, check_jordan_adjacency_by_edges, (spec, label))
        )
    passed = []
    for check, reference, args in checks:
        report = check(field, 2, *args)
        expected = reference(field, 2, *args)
        assert report["mode"] == "exhaustive"
        assert report_to_json(report) == report_to_json(expected)
        assert rows == pairs and len(rows) == report["cases"]
        passed.append(report["passed"])
        rows.clear()
        pairs.clear()
    assert all(passed) == (mutant == "none")


def test_exhaustive_annihilator_lists_each_kernel_once(monkeypatch):
    """On exhaustive GF(4)s each of the 357 points' kernels is listed once.

    One product of all q^n = 16 free-entry vectors lists a kernel, and
    no column is tested on its own (5,082 one-column products when each
    (point, column) was).
    """
    tables, products = collections.Counter(), collections.Counter()
    real_kernel, real_product = harness._kernel_coordinates, harness._product

    def kernel(field, n, rows):
        tables[rows] += 1
        return real_kernel(field, n, rows)

    def product(field, a, b, cols):
        out = real_product(field, a, b, cols)
        products[len(out)] += 1
        return out

    monkeypatch.setattr(harness, "_kernel_coordinates", kernel)
    monkeypatch.setattr(harness, "_product", product)
    report = check_annihilator(make_field(2, 2, "frobenius"), 2)
    assert report["mode"] == "exhaustive" and report["cases"] == 4**8
    assert report["passed"]
    assert len(tables) == 357 and set(tables.values()) == {1}
    assert products == {16: 357}

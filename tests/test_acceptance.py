"""Acceptance suite: the verification contract of the package.

Each test prints one pass/fail line.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the lines as they appear; the
criteria carry exact tolerances and, where stated, wall-clock limits.
"""

import hashlib
import random
import subprocess
import sys
import time

from hermline import (
    BartolonePair,
    GeometryConfig,
    JordanMapSpec,
    Matrix,
    all_matrices,
    arithmetical_distance,
    bartolone,
    bartolone_hermitian,
    build_graph,
    common_complement,
    decompose_isotropic,
    enumerate_isotropic,
    enumerate_subspaces,
    isotropic_meeting_perp,
    jordan_system_axioms_check,
    make_field,
    standard_form,
    verify_theorem1,
)
from hermline.harness import (
    check_annihilator,
    check_jordan_adjacency,
    check_jordan_well_defined,
    check_rank_law,
)
from hermline.projline import ANTIAUTOMORPHISM, AUTOMORPHISM, base_point
from reference_checks import check_distant_chain, contains

CONFIGS = [
    GeometryConfig(p=2),
    GeometryConfig(p=3),
    GeometryConfig(p=2, k=2, involution="frobenius"),
    GeometryConfig(p=3, k=2, involution="frobenius"),
]
EXPECTED_ISOTROPIC = [15, 40, 27, 112]


def _line(number: int, label: str, ok: bool) -> None:
    print(f"[criterion {number:02d}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_parametrised_set_equality_four_configurations():
    start = time.monotonic()
    ok = True
    for cfg, size in zip(CONFIGS, EXPECTED_ISOTROPIC):
        report = verify_theorem1(cfg)
        ok = ok and report["equal"] and report["counts"]["isotropic"] == size
        ok = ok and report["counts"]["bartolone_image"] == size
    ok = ok and (time.monotonic() - start) < 60
    _line(1, "hermitian pairs parametrise exactly the isotropic points", ok)


def test_criterion_02_common_complement_postconditions():
    start = time.monotonic()
    ok = True

    def checked(u1, u2, form) -> bool:
        x = common_complement(u1, u2)
        return (
            form.is_totally_isotropic(x)
            and x.space.intersect(u1.space).dim == 0
            and x.space.intersect(u2.space).dim == 0
        )

    f2 = make_field(2)
    form2 = standard_form(f2, 2)
    iso2 = enumerate_isotropic(f2, 2)
    for u1 in iso2:
        for u2 in iso2:
            ok = ok and checked(u1, u2, form2)

    f4 = make_field(2, 2, "frobenius")
    form4 = standard_form(f4, 2)
    iso4 = enumerate_isotropic(f4, 2)
    rng = random.Random(1337)
    for _ in range(600):
        u1 = iso4[rng.randrange(len(iso4))]
        u2 = iso4[rng.randrange(len(iso4))]
        ok = ok and checked(u1, u2, form4)

    ok = ok and (time.monotonic() - start) < 30
    _line(2, "common isotropic complements exist for all point pairs", ok)


def test_criterion_03_meeting_perp_postconditions():
    start = time.monotonic()
    f2 = make_field(2)
    form = standard_form(f2, 2)

    def inside(u, d):
        return [s for s in enumerate_subspaces(f2, 4, d) if contains(u.space, s)]

    ok = True
    checked = 0
    for u in enumerate_isotropic(f2, 2):
        for dv in range(3):
            for v in inside(u, dv):
                for w in inside(u, 2 - dv):
                    if v.intersect(w).dim != 0 or (v + w) != u.space:
                        continue
                    x = isotropic_meeting_perp(u, v, w)
                    ok = ok and form.is_totally_isotropic(x)
                    ok = ok and x.space.intersect(form.perp(v)) == w
                    checked += 1
    ok = ok and checked == 120 and (time.monotonic() - start) < 60
    _line(3, "isotropic extension through every direct-sum splitting", ok)


def test_criterion_04_decompose_roundtrip():
    ok = True
    for cfg in CONFIGS:
        field = cfg.field()
        for p in enumerate_isotropic(field, 2):
            pair = decompose_isotropic(p)
            ok = ok and pair.t1.is_hermitian() and pair.t2.is_hermitian()
            ok = ok and bartolone_hermitian(pair) == p
    _line(4, "every isotropic point decomposes into a hermitian pair", ok)


def test_criterion_05_rank_distance_law():
    gf2 = check_rank_law(make_field(2), 2)
    gf4 = check_rank_law(make_field(2, 2, "frobenius"), 2)
    ok = gf2["passed"] and gf2["mode"] == "exhaustive"
    ok = ok and gf4["passed"] and gf4["mode"] == "exhaustive"
    ok = ok and gf4["cases"] == 65536

    f3 = make_field(3)
    base = base_point(f3, 2)
    rng = random.Random(99)
    mats = list(all_matrices(f3, 2, 2))
    for _ in range(10_000):
        t1 = mats[rng.randrange(len(mats))]
        t2 = mats[rng.randrange(len(mats))]
        point = bartolone(BartolonePair(t1, t2))
        ok = ok and arithmetical_distance(base, point) == t2.rank()
    _line(5, "distance from the base point equals the rank of T2", ok)


def test_criterion_06_distant_graph_diameter():
    graph = build_graph(CONFIGS[0], kind="distant", point_set="all")
    ok = len(graph.neighbours) == 35 and graph.diameter() is not None
    ok = ok and graph.diameter() <= 2
    chain = check_distant_chain(make_field(2), 2)
    ok = ok and chain["passed"] and chain["mode"] == "exhaustive"
    _line(6, "distant graph diameter at most two with explicit middles", ok)


def test_criterion_07_annihilator():
    gf2 = check_annihilator(make_field(2), 2)
    gf9 = check_annihilator(make_field(3, 2, "frobenius"), 2, seed=17, samples=1000)
    ok = gf2["passed"] and gf2["mode"] == "exhaustive"
    ok = ok and gf9["passed"] and gf9["mode"] == "sampled" and gf9["cases"] >= 1000
    _line(7, "annihilator columns have zero product and full rank", ok)


def test_criterion_08_twisted_maps_well_defined_and_adjacency_preserving():
    ok = True
    f2 = make_field(2)
    f4 = make_field(2, 2, "frobenius")
    plan = [
        (f2, JordanMapSpec(ANTIAUTOMORPHISM, 0, Matrix.identity(f2, 2)), "transpose"),
        (f2, JordanMapSpec(AUTOMORPHISM, 0, Matrix(f2, [[1, 1], [0, 1]])), "conjugation"),
        (f4, JordanMapSpec(ANTIAUTOMORPHISM, 0, Matrix.identity(f4, 2)), "transpose"),
        (f4, JordanMapSpec(AUTOMORPHISM, 0, Matrix(f4, [[1, 1], [0, 1]])), "conjugation"),
        (f4, JordanMapSpec(AUTOMORPHISM, 1, Matrix.identity(f4, 2)), "frobenius_twist"),
    ]
    for field, spec, label in plan:
        well_defined = check_jordan_well_defined(field, 2, spec, label)
        ok = ok and well_defined["passed"] and well_defined["mode"] == "exhaustive"
        adjacency = check_jordan_adjacency(field, 2, spec, label)
        ok = ok and adjacency["passed"] and adjacency["mode"] == "exhaustive"
    _line(8, "twisted maps act on points and preserve adjacency", ok)


def test_criterion_09_jordan_closure_axioms():
    ok = True
    for cfg in CONFIGS:
        report = jordan_system_axioms_check(cfg.field(), 2)
        ok = ok and report["passed"]
        ok = ok and report["inverse_closure_ok"] and report["triple_product_closure_ok"]
    _line(9, "hermitian matrices close under inverse and triple product", ok)


def test_criterion_10_cli_determinism():
    commands = [
        ["verify-theorem1", "--p", "2"],
        ["verify-remarks", "--p", "3", "--k", "2", "--involution", "frobenius", "--seed", "6"],
        ["graph", "--p", "2", "--format", "dot"],
    ]
    ok = True
    for argv in commands:
        digests = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "hermline.cli", *argv],
                capture_output=True,
                check=True,
            )
            digests.add(hashlib.sha256(proc.stdout).hexdigest())
        ok = ok and len(digests) == 1
    _line(10, "repeated runs produce byte-identical reports", ok)

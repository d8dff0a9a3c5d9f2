"""The relation and graph layer: golden outputs and independent references.

Relations are decided by shared subspaces (``_relation_neighbours``): the
points meeting a point in dimension >= d are the OR of the points through
each of its d-spaces.  They are held as neighbour bitmasks, and distances
come from level-set BFS over them.  These tests pin the CLI output and
the draws of the sampled checks, compare the edges with the rank tests of
``projline`` (all pairs on small graphs, sampled pairs on two larger
ones), the distant relation with the last BFS level of the adjacency
graph and the BFS with a plain queue, and check the sphere sizes against
the closed forms of Brouwer, Cohen & Neumaier, *Distance-Regular Graphs*,
9.3-9.4.
"""

import hashlib
import json
import random
from collections import deque
from math import isqrt

import pytest
from hypothesis import example, given, strategies as st

from hermline import (
    GeometryConfig,
    RelationGraph,
    arithmetical_distance,
    build_graph,
    enumerate_isotropic,
    enumerate_points,
    gaussian_binomial,
    is_adjacent,
    is_distant,
    make_field,
    report_to_json,
)
from hermline import harness
from hermline.cli import main
from hermline.harness import _bfs_levels
from reference_checks import graph_from_edges

FIELDS = {
    "gf2": (2, 1, "identity"),
    "gf3": (3, 1, "identity"),
    "gf4": (2, 2, "frobenius"),
    "gf9": (3, 2, "frobenius"),
}

# sha256 of ``hermline graph`` stdout at n = 2, recorded before the graph
# layer moved from rank tests to line bitmasks.
GOLDEN = {
    ("gf2", "all", "distant", "json"): (
        "0a2e5c59ebfc3c8fbd5e4cbff4ab855fc6717c14dbbc95d50f383065fc1c6774"
    ),
    ("gf2", "all", "distant", "dot"): (
        "1e9ec96c880ebe629e0f96ef63102e85d845ba011069e935c3d7c84d4e217dc6"
    ),
    ("gf2", "all", "distant", "csv"): (
        "35426247612b4ad6aaebae6429e436513a5c8593190eabc029f79948ee6b8a74"
    ),
    ("gf2", "all", "adjacency", "json"): (
        "90c961d01058da44c306ed9ff041dfcfcb9e225fb10fb7683c7604e8680704d2"
    ),
    ("gf2", "all", "adjacency", "dot"): (
        "b6383175add02f95d488f86fa863d23ddc786bf070132b9964f7dd4205fac132"
    ),
    ("gf2", "all", "adjacency", "csv"): (
        "a39d4a1a6b78ce6c010b8e6a202e4f2ccdbdf8657b56b17110f2bf7b3b58ff7e"
    ),
    ("gf2", "isotropic", "distant", "json"): (
        "517eb4ef794dddcd318a561bff6031ce22010b17840eb93c645f175ed9124f81"
    ),
    ("gf2", "isotropic", "distant", "dot"): (
        "34faff40ee2ec99e7ffaa4fe85572bc32db6db6e1ea64a2f2116d717b65f27da"
    ),
    ("gf2", "isotropic", "distant", "csv"): (
        "4a6c9198f919b01f7af4836a077796f3c6583627173b21cceac3c02f3c6c91c9"
    ),
    ("gf2", "isotropic", "adjacency", "json"): (
        "b2927af1626ca8d2f8f1d34d20df161544f8144afc1fce91fd4731f018f6a974"
    ),
    ("gf2", "isotropic", "adjacency", "dot"): (
        "05c55fdd7e0b558693138a9ba29a4c8a8762d5c530b668d53a338210cd31e4a8"
    ),
    ("gf2", "isotropic", "adjacency", "csv"): (
        "21dc996b8e2bf9030893a65453fb54f8e54efa8fbe643cdee9f943be84e5ab0d"
    ),
    ("gf3", "all", "distant", "json"): (
        "36a7e4b0fef94cf73508bb679e4343cb9cd830e2c04129ddf3bd32d0298e5922"
    ),
    ("gf3", "all", "distant", "dot"): (
        "114c7ba7ed4ca8f8e9910e507fe070503401068b4f23fe83d30ad76c0c34fc18"
    ),
    ("gf3", "all", "distant", "csv"): (
        "2631071af139386be0d8ce708b6cbfc8e7161ed00687dc0199b595c1871b1006"
    ),
    ("gf3", "all", "adjacency", "json"): (
        "97f6b26017f01213f55dda01ecbb77d778b70eeeda4083df3ec701bf0047f9f8"
    ),
    ("gf3", "all", "adjacency", "dot"): (
        "e7b3525a2edbff4b858e7ec619a37ae731a532fdb3986b5c2b611002c3106fb7"
    ),
    ("gf3", "all", "adjacency", "csv"): (
        "e8c4e7560c0fba378b972f30025ec2307c7dd627cbf160e2d3131f9aca08a9a2"
    ),
    ("gf3", "isotropic", "distant", "json"): (
        "59b747123cae0bcd123f8982031fc4c2f72b74dc9dfb925fbdc3f51c8bf5c841"
    ),
    ("gf3", "isotropic", "distant", "dot"): (
        "bf5c09a27c146cb48b2593dc02593a165459aa094e9d091fdeac4786059a56b5"
    ),
    ("gf3", "isotropic", "distant", "csv"): (
        "0103830c56abcd8ec3b02b8636d3b48940704369a57c059d6c781443a9b882d1"
    ),
    ("gf3", "isotropic", "adjacency", "json"): (
        "4fbc2e89f3abcd44fb77546931088f5c02ff68c80785f90569defba44d8f7dc1"
    ),
    ("gf3", "isotropic", "adjacency", "dot"): (
        "6e22dee7fb9124c9a97b7388d3941de560434e846590fb22425dd619f734c015"
    ),
    ("gf3", "isotropic", "adjacency", "csv"): (
        "307aac99368c46d300acab5de0a278c3bb0b8475bf6a12730453c2c95d9ced55"
    ),
    ("gf4", "all", "distant", "json"): (
        "25abce213440a03e3c5e2a893242143d326ec4b1cabc94a21101f296bd0e5f43"
    ),
    ("gf4", "all", "distant", "dot"): (
        "e7f5a375e2b644063d0ed943badd075348be1cae8fb484950d2ed937c527f046"
    ),
    ("gf4", "all", "distant", "csv"): (
        "564a6aa28fbb76a6892bc9cff7241fe7843e2bef7c00bf2513ac21b24759898f"
    ),
    ("gf4", "all", "adjacency", "json"): (
        "9ee9318883aa11f747bd2ce32e6162a8b5680ff82d81720eb7e753449e917673"
    ),
    ("gf4", "all", "adjacency", "dot"): (
        "51b28faedec8f2e2137e888bf41b607648f1c938fd8a3b63df87965068c5a028"
    ),
    ("gf4", "all", "adjacency", "csv"): (
        "04be64c4d3005dbe4be3c80e002743e1e2b78a2bbb42b30118c8811dcbd8633e"
    ),
    ("gf4", "isotropic", "distant", "json"): (
        "e086c46b79b73a5e88a5aa9499f2dcfa488bcc7b7ba3b0680d646398f2969682"
    ),
    ("gf4", "isotropic", "distant", "dot"): (
        "56a63481cb976e6e747b6e5cd49e8cd6edacfaec71d4b7735a5e430486bad6aa"
    ),
    ("gf4", "isotropic", "distant", "csv"): (
        "3385484814105f428af19095ca065171358315374acad1492994bf934718c31a"
    ),
    ("gf4", "isotropic", "adjacency", "json"): (
        "9c9f2ecb28d45e816521dc6ae66c79c896dd5219682d05807286ced31d22c7d5"
    ),
    ("gf4", "isotropic", "adjacency", "dot"): (
        "241ba43f531f371b0bb469a71a63c1af80d51cb98e0cedc6245e43cbb33a0458"
    ),
    ("gf4", "isotropic", "adjacency", "csv"): (
        "5af05b303830fe23028c230451768e6d6b5d1b39dd7aaaec0a2415789499c4ce"
    ),
}


def _graph_argv(key) -> list:
    label, points, relation, fmt = key
    p, k, involution = FIELDS[label]
    argv = ["graph", "--p", str(p), "--k", str(k), "--involution", involution]
    return argv + ["--relation", relation, "--points", points, "--format", fmt]


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_graph_stdout_golden(key, capsys):
    assert main(_graph_argv(key)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[key]


def _matrix_json(rows) -> str:
    entries = [[str(x) for x in row] for row in rows]
    return json.dumps({"rows": len(rows), "cols": len(rows[0]), "entries": entries})


# Two isotropic points of GF(3) n = 2, and a parameter pair over GF(4)s.
_U1 = _matrix_json([[1, 0, 1, 2], [0, 1, 2, 0]])
_U2 = _matrix_json([[1, 1, 0, 0], [0, 0, 1, 2]])
CLI_ARGS = {
    "bartolone": [
        "--t1", _matrix_json([[1, 2], [3, 0]]),
        "--t2", _matrix_json([[1, 2], [3, 1]]),
    ],
    "decompose": ["--point", _U1],
    "complement": ["--u1", _U1, "--u2", _U2],
}

# sha256 of stdout and the exit status of every other subcommand, keyed by
# (command, field, n, seed), recorded before the pair sweeps, the
# sweep-and-dedupe loops and the subcommand handlers were consolidated.
CLI_GOLDEN = {
    ("enumerate", "gf2", 2, None): (
        "d0ca333e0d722f01636b22bf6103f92c9e4786cb282f45f426f17af93d4d5ea7",
        0,
    ),
    ("isotropic", "gf2", 2, None): (
        "98afa425707e106de00f7adb64c2ade40da8a6ed1557d2a7ed9b132df00f2cb7",
        0,
    ),
    ("verify-theorem1", "gf2", 2, None): (
        "ee4447ecb0a0fd1b2faefcec93c30642c9a3455ddf6dd507a184152b6e24e8b9",
        0,
    ),
    ("jordan-check", "gf2", 2, None): (
        "8dd00b1b761b34ec36a0f5da7190923618899655870f271b718640641695142d",
        0,
    ),
    ("verify-remarks", "gf2", 2, 0): (
        "036b6e7f0adfb003c57fd6038314425f64dfbbd3330bc59e5edb526b357a5397",
        0,
    ),
    ("verify-remarks", "gf2", 2, 7): (
        "1b7da1291dddd95711c0c9a7eb5776bd5888236b6d1c36a3ba27582ae74852ce",
        0,
    ),
    ("enumerate", "gf3", 2, None): (
        "d075d35168b01faabb72662b6a0a1df9aa6838ab71511509b6f1a06ce9867ece",
        0,
    ),
    ("isotropic", "gf3", 2, None): (
        "48f9353f111f745fae471d0ff12e24c69aea3102c73cf75b029fe58cd830f1a0",
        0,
    ),
    ("verify-theorem1", "gf3", 2, None): (
        "06454e27cb7bf60119326d672cbd1931938b2795241d5b4a630f91cfe33e41db",
        0,
    ),
    ("jordan-check", "gf3", 2, None): (
        "db01c055f9ecf89fe8db0906a9ff577aee52e4d3c9300781516527f21108c127",
        0,
    ),
    ("verify-remarks", "gf3", 2, 0): (
        "8919ca9967596f6b79f54fb833da1eedeb61a253e6cf310aedccc32cdc9bd75e",
        0,
    ),
    ("verify-remarks", "gf3", 2, 7): (
        "64d1a3221fec6e3da61ac88d402a5056b69f4363bb73a5ee4ba995a84017b486",
        0,
    ),
    ("enumerate", "gf4", 2, None): (
        "a391e2a234e8b598ad814a1a58f678f6b48438dda4aefd1d2f0b94892a511547",
        0,
    ),
    ("isotropic", "gf4", 2, None): (
        "7dd82ccf8ed61e2ca33f97b2e0f3d98e3cc0fdbb88a4e0397e16f004139b088f",
        0,
    ),
    ("verify-theorem1", "gf4", 2, None): (
        "26361a0dbbbc2763b9c6b0d5af873f7ad13f9e8bc0c1763dc4289ef705a329cf",
        0,
    ),
    ("jordan-check", "gf4", 2, None): (
        "12dd3569ffd2a61262f14fe2fce4697ff9454741a44e7de8365df3c14826a506",
        0,
    ),
    ("verify-remarks", "gf4", 2, 0): (
        "92506461d920bc4b889d19dd9f4ee1215b3eed72aadba9f97f90a3f21b0840fa",
        0,
    ),
    ("enumerate", "gf9", 2, None): (
        "8106c65f0eb0a3ae265cae2ce7fc96a83efd8899edb447ffeb97d9e04f3199f4",
        0,
    ),
    ("isotropic", "gf9", 2, None): (
        "a2d0a0e478b59d6f9579f57e84c90ec2adbf05994f67d0d84fc1ffe5e8904506",
        0,
    ),
    ("verify-theorem1", "gf9", 2, None): (
        "7f0f22d56d74955575a976459508cc957767ba8cef41d297e1db503b434fdad9",
        0,
    ),
    ("jordan-check", "gf9", 2, None): (
        "4cceaae24545b639ed4746acccb330d987b7973104c4c9270142c1f926332c4d",
        0,
    ),
    ("verify-remarks", "gf9", 2, 0): (
        "611c77cc955ff1339a253c53c856ee76bf7e73ff60ad436c42a1ece8c4f9d66f",
        0,
    ),
    ("verify-remarks", "gf9", 2, 7): (
        "0bc7035110ca7bf2628202fd05823160a56a4901357ab64f27329368bfcab79c",
        0,
    ),
    ("verify-remarks", "gf2", 3, 0): (
        "4803fa7c5237f06b5eef963937c0cb1b5f41f64a9fd07f43557f26e0e0c121d3",
        0,
    ),
    ("bartolone", "gf4", 2, None): (
        "4d30cccb74fadd88d819e15a16201e78596376c55e6a694e5ef090e3fa80895d",
        0,
    ),
    ("decompose", "gf3", 2, None): (
        "2fad9a500ed870c55afecb56619c426e545a76f42add61e8273d73af2dbc0e5f",
        0,
    ),
    ("complement", "gf3", 2, None): (
        "9178548e71a4fd97b7adaf43b9a9fda3690635c1981679ba071c806e9c2098dd",
        0,
    ),
}


# sha256 of every randrange result (as "value,") of the sampled checks and
# the number of draws, keyed as CLI_GOLDEN, recorded before the drawn
# matrices were built with the trusting constructor.  Other keys draw
# nothing.
CLI_DRAWS = {
    ("verify-remarks", "gf9", 2, 0): (
        "c7ce5cce8a893f92cbd02247cdc779d25712ef2f63b18eccc0a71b0194548c8a",
        131_572,
    ),
    ("verify-remarks", "gf9", 2, 7): (
        "1813d809a17e35b76bc3853aed2dfe1baf0a1e122eba801c580371e3e81808d4",
        131_740,
    ),
    ("verify-remarks", "gf2", 3, 0): (
        "7bf58e757d583463062589c30ae42f2730a3eadf95f494e31d785500fe142e00",
        290_004,
    ),
}


def _cli_argv(key) -> list:
    command, label, n, seed = key
    p, k, involution = FIELDS[label]
    argv = [command, "--p", str(p), "--k", str(k), "--involution", involution]
    argv += ["--n", str(n)] + CLI_ARGS.get(command, [])
    return argv if seed is None else argv + ["--seed", str(seed)]


@pytest.mark.parametrize(
    "key", sorted(CLI_GOLDEN, key=str), ids=lambda key: "-".join(map(str, key))
)
def test_cli_stdout_golden(key, capsys, monkeypatch):
    draws = hashlib.sha256()
    count = 0

    class CountingRandom(harness.random.Random):
        def randrange(self, *args):
            nonlocal count
            value = super().randrange(*args)
            draws.update(b"%d," % value)
            count += 1
            return value

    monkeypatch.setattr(harness.random, "Random", CountingRandom)
    digest, status = CLI_GOLDEN[key]
    assert main(_cli_argv(key)) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    empty = (hashlib.sha256().hexdigest(), 0)
    assert (draws.hexdigest(), count) == CLI_DRAWS.get(key, empty)


# Every JSON report kind on the ladder: the graph reports (GF(9)s on its
# isotropic points only, whose all-points graph takes seconds) and every
# other subcommand at n = 2, with seed 0 where it takes one.
LADDER_ARGV = [
    pytest.param(_graph_argv(key), id="graph-" + "-".join(key))
    for key in sorted(GOLDEN) + [("gf9", "isotropic", r, "json") for r in ("adjacency", "distant")]
    if key[3] == "json"
] + [
    pytest.param(_cli_argv(key), id="-".join(map(str, key)))
    for key in sorted(CLI_GOLDEN, key=str)
    if key[2] == 2 and key[3] in (None, 0)
]


@pytest.mark.parametrize("argv", LADDER_ARGV)
def test_report_to_json_matches_json_dumps_on_ladder_reports(argv, capsys, monkeypatch):
    """Each report the CLI prints is json.dumps(report, indent=2) plus a newline."""
    texts = []

    def compared(report):
        texts.append((report_to_json(report), json.dumps(report, indent=2) + "\n"))
        return texts[-1][0]

    monkeypatch.setattr("hermline.cli.report_to_json", compared)
    main(argv)
    capsys.readouterr()
    [(text, reference)] = texts
    assert text.splitlines(True) == reference.splitlines(True)  # a fast diff on failure


def _points(label: str, n: int, point_set: str):
    field = make_field(*FIELDS[label])
    if point_set == "all":
        return enumerate_points(field, n)
    return enumerate_isotropic(field, n)


def _graph(label: str, n: int, kind: str, point_set: str) -> RelationGraph:
    p, k, involution = FIELDS[label]
    cfg = GeometryConfig(p=p, k=k, involution=involution, n=n)
    return build_graph(cfg, kind=kind, point_set=point_set)


def _rank_edges(points, kind: str) -> list:
    """The all-pairs loop over the rank-based relation tests."""
    rel = is_distant if kind == "distant" else is_adjacent
    return [
        (i, j)
        for i in range(len(points))
        for j in range(i + 1, len(points))
        if rel(points[i], points[j])
    ]


SMALL_GRAPHS = [
    (label, 2, s) for label in ("gf2", "gf3", "gf4") for s in ("all", "isotropic")
] + [("gf2", 3, "isotropic")]


@pytest.mark.parametrize("label,n,point_set", SMALL_GRAPHS)
def test_relation_edges_match_rank_reference(label, n, point_set):
    points = _points(label, n, point_set)
    for kind in ("distant", "adjacency"):
        edges = list(_graph(label, n, kind, point_set).edges())
        assert edges == _rank_edges(points, kind)


# Too large for the all-pairs rank reference: 1,395 and 1,120 points.
LARGE_GRAPHS = [("gf2", 3, "all"), ("gf3", 3, "isotropic")]


@pytest.mark.parametrize("label,n,point_set", LARGE_GRAPHS)
def test_relations_match_arithmetical_distance_on_samples(label, n, point_set):
    """Every pair through three vertices and 2,000 seeded random pairs."""
    points = _points(label, n, point_set)
    size = len(points)
    rng = random.Random(0)
    pairs = [(v, j) for v in (0, size // 2, size - 1) for j in range(size)]
    pairs += [(rng.randrange(size), rng.randrange(size)) for _ in range(2000)]
    distant = _graph(label, n, "distant", point_set).neighbours
    adj = _graph(label, n, "adjacency", point_set).neighbours
    for i, j in pairs:
        dist = arithmetical_distance(points[i], points[j])
        assert distant[i] >> j & 1 == (dist == n)
        assert adj[i] >> j & 1 == (dist == 1)


# sha256 of the comma-joined ``_relation_neighbours`` masks, recorded before
# the d-spaces were named through ``matrices._product``; GOLDEN covers n = 2
# over GF(2), GF(3) and GF(4) only.
MASK_PINS = {
    ("gf9", 2, "all", "distant"): (
        "4c7bdb3ff3cbed378a6b19f8cde09ec8910787a11d793b30169a3037eb275da1"
    ),
    ("gf9", 2, "all", "adjacency"): (
        "7b730e4329f77dd8654964d96479427a5d6a8935e9ea9b890a7b6740382f7432"
    ),
    ("gf9", 2, "isotropic", "distant"): (
        "bd81ebca4ae2656a472b9a6965b625291a20306fc78d14dcf6d06a5c0f342c22"
    ),
    ("gf9", 2, "isotropic", "adjacency"): (
        "0a58f5287a6519f4fd2713c13bf5ab2a4ce206fc71c395f9f122626418311dbb"
    ),
    ("gf2", 3, "all", "distant"): (
        "6b2338799afe37cb40027c87e030caee05a72cb427bfa8fcd306b00a77fedc98"
    ),
    ("gf2", 3, "all", "adjacency"): (
        "969f505b170191d756e52a15f42152e20b92ee1b5f39bc33434447815f55a97d"
    ),
    ("gf3", 3, "isotropic", "distant"): (
        "a0bfb6f2ee4f7e0188612cfbf760c35e44b5bb520f6471d83b9319a28fd3011c"
    ),
    ("gf3", 3, "isotropic", "adjacency"): (
        "affa85f7b0ea33dbec84a01f33976403b09b2b39f32107762032015c9bffc4d0"
    ),
}


@pytest.mark.parametrize("key", sorted(MASK_PINS), ids=lambda k: "-".join(map(str, k)))
def test_relation_masks_pinned(key):
    label, n, point_set, kind = key
    field = make_field(*FIELDS[label])
    masks = harness._relation_neighbours(field, n, _points(label, n, point_set), kind)
    digest = hashlib.sha256(",".join(map(str, masks)).encode()).hexdigest()
    assert digest == MASK_PINS[key]


@pytest.mark.parametrize("label,n,point_set", SMALL_GRAPHS + LARGE_GRAPHS)
def test_distant_is_the_last_adjacency_level(label, n, point_set):
    """Distant points are exactly those at distance n in the adjacency graph.

    Both the Grassmann and the dual polar graph have diameter n, and two
    n-spaces are distant when they meet in 0, n steps apart.
    """
    distant = _graph(label, n, "distant", point_set).neighbours
    adj = _graph(label, n, "adjacency", point_set).neighbours
    for v, far in enumerate(distant):
        levels = list(_bfs_levels(adj, v))
        assert len(levels) == n + 1
        assert levels[-1] == far


@st.composite
def small_graphs(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    edges = draw(st.permutations(edges))
    return graph_from_edges("adjacency", "all", size, edges)


def _queue_distances(graph: RelationGraph, start: int) -> list:
    adj = [[] for _ in graph.neighbours]
    for i, j in graph.edges():
        adj[i].append(j)
        adj[j].append(i)
    dist = [None] * len(graph.neighbours)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@given(small_graphs())
@example(graph_from_edges("adjacency", "all", 1, []))
@example(graph_from_edges("adjacency", "all", 4, [(2, 3), (0, 1)]))
@example(graph_from_edges("adjacency", "all", 4, [(2, 3), (1, 2), (0, 1)]))
def test_bfs_matches_queue_reference(graph):
    reference = [_queue_distances(graph, s) for s in range(len(graph.neighbours))]
    for start in range(len(graph.neighbours)):
        assert graph.bfs_distances(start) == reference[start]
    if any(None in dist for dist in reference):
        assert graph.diameter() is None
    else:
        assert graph.diameter() == max(max(dist) for dist in reference)


def _sphere_sizes(q: int, n: int, point_set: str, involution: str) -> list:
    """k_i: Grassmann graph J_q(2n, n) or the dual polar graph of the form."""
    if point_set == "all":
        return [q ** (i * i) * gaussian_binomial(n, i, q) ** 2 for i in range(n + 1)]
    # q^(e*i) with e = 1 (symplectic) or e = 1/2 (hermitian)
    qe = isqrt(q) if involution == "frobenius" else q
    return [
        gaussian_binomial(n, i, q) * q ** (i * (i - 1) // 2) * qe**i
        for i in range(n + 1)
    ]


@pytest.mark.parametrize(
    "label,n,point_set",
    [(label, 2, s) for label in FIELDS for s in ("all", "isotropic")]
    + [("gf2", 3, "isotropic")]
    + LARGE_GRAPHS,
)
def test_bfs_levels_match_closed_forms(label, n, point_set):
    p, k, involution = FIELDS[label]
    adj = _graph(label, n, "adjacency", point_set).neighbours
    want = _sphere_sizes(p**k, n, point_set, involution)
    assert len(adj) == sum(want)
    for start in range(len(adj)):
        assert [level.bit_count() for level in _bfs_levels(adj, start)] == want

import json
from itertools import combinations, permutations, product
from math import gcd

import pytest

from gkmlef import catalog, canonical_classes, kirwan_reduce, parse_gkm, restrict_to_circle
from gkmlef.exact import matrix_rank


@pytest.fixture(scope="session")
def su3():
    entry = catalog.get("su3")
    graph = parse_gkm(entry.document)
    profile = restrict_to_circle(graph, entry.default_xi)
    return entry, graph, profile


@pytest.fixture(scope="session")
def su3_basis(su3):
    _, graph, profile = su3
    return canonical_classes(graph, profile)


@pytest.fixture(scope="session")
def su3_ring(su3_basis):
    return kirwan_reduce(su3_basis)


@pytest.fixture(scope="session")
def so5():
    entry = catalog.get("so5")
    graph = parse_gkm(entry.document)
    profile = restrict_to_circle(graph, entry.default_xi)
    return entry, graph, profile


@pytest.fixture(scope="session")
def cp1():
    entry = catalog.get("cp1")
    graph = parse_gkm(entry.document)
    profile = restrict_to_circle(graph, entry.default_xi)
    return entry, graph, profile


@pytest.fixture(scope="session")
def cp1_basis(cp1):
    _, graph, profile = cp1
    return canonical_classes(graph, profile)


@pytest.fixture
def cold_congruence_cache():
    """An empty congruence_space cache, emptied again afterwards so that no
    other test sees entries computed under this test's monkeypatches."""
    from gkmlef.cohomology import congruence_space
    congruence_space.cache_clear()
    yield
    congruence_space.cache_clear()


def _zeroclass_by_rank(basis, k):
    """The low and the high zero-class entries from the exact rank of each
    whole matrix [beta_F(v)], with no certificate."""
    index, n = basis.profile.index, basis.profile.n
    columns = [f for f in basis.order if index[f] <= 2 * k]
    entries = []
    for side, rows in (("low", columns),
                       ("high", [v for v in basis.order if index[v] >= 2 * (n - k)])):
        rank = matrix_rank([[basis.beta[f].at(v) for f in columns] for v in rows])
        entries.append({"name": "zero-class(k=%d,%s)" % (k, side), "applicable": True,
                        "pass": rank == len(columns),
                        "detail": "space dimension %d, independent vanishing conditions %d"
                                  % (len(columns), rank)})
    return entries


@pytest.fixture(scope="session")
def zeroclass_by_rank():
    """_zeroclass_by_rank, the exact-rank reference for verify_zeroclass."""
    return _zeroclass_by_rank


# -- homogeneous spaces, until the catalog builds them ----------------------

def _document(positions, pairs):
    """A GKM document: {vertex id: integer position}, and an edge v -> w for
    each pair, weighted by the primitive position difference."""
    edges = []
    for v, w in pairs:
        diff = [b - a for a, b in zip(positions[v], positions[w])]
        g = gcd(*diff)
        edges.append({"v": v, "w": w, "weight": [x // g for x in diff]})
    first = next(iter(positions))
    return json.dumps({
        "rank": len(positions[first]),
        "dimension": 2 * sum(first in (e["v"], e["w"]) for e in edges),
        "vertices": [{"id": v, "position": list(pos)} for v, pos in positions.items()],
        "edges": edges})


def grassmannian(k, n):
    """Gr(k, n): the k-subsets S of {0..n-1} at the 0/1 indicator of S, and
    an edge S -> S - i + j of weight e_j - e_i for each i < j, i in S and j
    not; the circle is xi = (0, 1, ..., n-1)."""
    def vid(s):
        return "s" + "-".join(map(str, sorted(s)))
    subsets = [frozenset(s) for s in combinations(range(n), k)]
    positions = {vid(s): tuple(int(i in s) for i in range(n)) for s in subsets}
    pairs = [(vid(s), vid(s - {i} | {j})) for s in subsets
             for i, j in combinations(range(n), 2) if i in s and j not in s]
    return _document(positions, pairs), tuple(range(n))


def flag(n):
    """The complete flags in C^n: the permutations p at (p(0), ..., p(n-1)),
    and an edge for each transposition of two positions, weighted by the
    primitive difference; the circle is xi = (0, 1, ..., n-1)."""
    def vid(p):
        return "p" + "-".join(map(str, p))
    perms = list(permutations(range(n)))
    positions = {vid(p): p for p in perms}
    pairs = []
    for p in perms:
        for i, j in combinations(range(n), 2):
            if p[i] < p[j]:
                swapped = list(p)
                swapped[i], swapped[j] = p[j], p[i]
                pairs.append((vid(p), vid(swapped)))
    return _document(positions, pairs), tuple(range(n))


@pytest.fixture(scope="session")
def homogeneous():
    """The builders grassmannian and flag, by name."""
    return {"grassmannian": grassmannian, "flag": flag}


def random_regular(rng):
    """A random 3-regular graph of rank 3, drawn from rng: 4, 6 or 8 vertices
    at distinct points of [-2, 2]^3, the edges a random pairing of three ends
    per vertex (drawn again while it has a loop or a double edge), weighted
    by the primitive position differences.  Many are no T-manifold's GKM
    graph."""
    size = rng.choice((4, 6, 8))
    points = rng.sample(list(product(range(-2, 3), repeat=3)), size)
    while True:
        ends = [i for i in range(size) for _ in range(3)]
        rng.shuffle(ends)
        pairs = {tuple(sorted(ends[i:i + 2])) for i in range(0, len(ends), 2)}
        if len(pairs) == len(ends) // 2 and all(v != w for v, w in pairs):
            break
    return _document({"v%d" % i: p for i, p in enumerate(points)},
                     [("v%d" % v, "v%d" % w) for v, w in sorted(pairs)])


@pytest.fixture(scope="session", name="random_regular")
def random_regular_fixture():
    """The builder random_regular."""
    return random_regular

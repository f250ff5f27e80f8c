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

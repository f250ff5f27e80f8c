import pytest

from gkmlef import catalog, canonical_classes, kirwan_reduce, parse_gkm, restrict_to_circle


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

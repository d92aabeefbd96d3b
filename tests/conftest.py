import pytest

from exactpoly.counterexample import Certificate, vertices48
from exactpoly.polytopes import HullBuilder, facet_enumeration


@pytest.fixture
def hull_builds(monkeypatch):
    """The point counts of the verified hulls built while the test runs, in
    order: every enumerated hull is one `HullBuilder.hull()`, and every
    search candidate's one hull that `HullBuilder.extend` returns.  A hull
    kept on a polytope adds nothing, and so does an `extend` that returns
    None."""
    counts = []
    build, extend = HullBuilder.hull, HullBuilder.extend

    def counting(builder):
        counts.append(len(builder.points))
        return build(builder)

    def counting_extend(builder, i, q):
        hull = extend(builder, i, q)
        if hull is not None:
            counts.append(len(builder.points))
        return hull

    monkeypatch.setattr(HullBuilder, "hull", counting)
    monkeypatch.setattr(HullBuilder, "extend", counting_extend)
    return counts


@pytest.fixture(scope="session")
def certificate():
    return Certificate(vertices48())


@pytest.fixture(scope="session")
def q48(certificate):
    return certificate.poly


@pytest.fixture(scope="session")
def q48_pr(certificate):
    return certificate.pr


@pytest.fixture(scope="session")
def q48_hull(certificate):
    return certificate.hull


@pytest.fixture(scope="session")
def q48_labels(certificate):
    return certificate.labels


@pytest.fixture(scope="session")
def q48_dual(certificate):
    return certificate.hull.dual_graph


@pytest.fixture(scope="session")
def qplus(certificate):
    return certificate.qplus


@pytest.fixture(scope="session")
def qplus_hull(certificate):
    return facet_enumeration(certificate.qplus)


@pytest.fixture(scope="session")
def qminus(certificate):
    return certificate.qminus


@pytest.fixture(scope="session")
def qminus_hull(certificate):
    return facet_enumeration(certificate.qminus)


@pytest.fixture(scope="session")
def base_sum(certificate):
    return certificate.base_sum

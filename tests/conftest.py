import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import ucgkit as U
from ucgkit import Graph


@pytest.fixture(scope="session")
def atlas_r2():
    """Canonical graphs with 1 <= n <= 7 and radius >= 2."""
    return [g for g in U.atlas_graphs(max_n=7) if min(g.ecc) >= 2]


@pytest.fixture(scope="session")
def prism6():
    return U.gen_prism(6).graph


@pytest.fixture(scope="session")
def prism7():
    return U.gen_prism(7).graph


@pytest.fixture(scope="session")
def prism7_refined_decision(prism7):
    """The expensive exhaustive decision on the heptagonal prism, shared
    across tests: a refined 2-covering meeting A, A'' and B'' exists."""
    return U.decide_cover_k(prism7, 2, ("A", "A''", "B''"))


@pytest.fixture(scope="session")
def k2():
    return Graph.complete(2)


@pytest.fixture(scope="session")
def p3():
    return Graph.path(3)

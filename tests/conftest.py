import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the shared oracles check with assert; rewritten, those checks survive python -O
pytest.register_assert_rewrite("box_scan", "gen_cases")

from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.tropical import bounded_regions, region_at, tropical_curve

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def p2_sub():
    return local_p2()


@pytest.fixture(scope="session")
def p2_curve(p2_sub):
    return tropical_curve(p2_sub)


@pytest.fixture(scope="session")
def p2_region(p2_curve):
    return region_at(p2_curve, (0, 0))


@pytest.fixture(scope="session")
def blowup_sub():
    return blowup_p2()


@pytest.fixture(scope="session")
def blowup_curve(blowup_sub):
    return tropical_curve(blowup_sub)


@pytest.fixture(scope="session")
def blowup_region(blowup_curve):
    return region_at(blowup_curve, (1, 1))


@pytest.fixture(scope="session")
def a2d3_sub():
    return a2d_subdivision(3)


@pytest.fixture(scope="session")
def a2d3_regions(a2d3_sub):
    return bounded_regions(tropical_curve(a2d3_sub))


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES

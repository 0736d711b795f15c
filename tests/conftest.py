import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the shared oracles check with assert; rewritten, those checks survive python -O
pytest.register_assert_rewrite("box_scan", "gen_cases")

import tropcoh.io
from gen_cases import cross_check
from oracles import schema_first_error
from tropcoh import lattice
from tropcoh.examples import a2d_subdivision, blowup_p2, local_p2
from tropcoh.polytope import subdivision
from tropcoh.spheres import theta_from_twisting, twisting
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
def blowup_theta(blowup_region):
    """The worked example: the blowup's sphere at (1, 1) twisted by (-14, 5, -14, -9)."""
    return theta_from_twisting(twisting(blowup_region, (-14, 5, -14, -9)))


@pytest.fixture(scope="session")
def a2d3_sub():
    return a2d_subdivision(3)


@pytest.fixture(scope="session")
def a2d3_regions(a2d3_sub):
    return bounded_regions(tropical_curve(a2d3_sub))


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def gen_fixtures():
    """The fixture generator tools/gen_fixtures.py, loaded from its file."""
    path = FIXTURES.parent / "tools" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="session")
def random_cross_check():
    """cross_check(97, 500), run once for the random suite and acceptance criterion 5."""
    return cross_check(97, 500)


@pytest.fixture(params=["short-slabs-by-rows", "all-slabs-closed-form"])
def closed_form_slabs(request, monkeypatch):
    """Count the slabs summed in closed form; the second param sums one-row slabs that way too."""
    if request.param == "all-slabs-closed-form":
        monkeypatch.setattr(lattice, "SHORT_SLAB", 0)
    calls = []
    slab_thresholds = lattice.slab_thresholds

    def counted(lines, a, b):
        calls.append(b - a + 1)
        return slab_thresholds(lines, a, b)

    monkeypatch.setattr(lattice, "slab_thresholds", counted)
    return calls


def hex_grid(n):
    """[0,n]^2 cut along (1,-1) diagonals, lift x^2+xy+y^2: six rays at every interior vertex."""
    points = [(x, y) for x in range(n + 1) for y in range(n + 1)]
    index = {p: i for i, p in enumerate(points)}
    triangles = []
    for x in range(n):
        for y in range(n):
            triangles.append((index[(x, y)], index[(x + 1, y)], index[(x, y + 1)]))
            triangles.append((index[(x + 1, y)], index[(x + 1, y + 1)], index[(x, y + 1)]))
    return subdivision(points, triangles, [x * x + x * y + y * y for x, y in points])


@pytest.fixture(scope="session")
def oracle_subdivisions():
    """The inputs the old per-edge and per-region constructions are checked against."""
    return (
        local_p2(),
        blowup_p2(),
        *(a2d_subdivision(d) for d in range(1, 13)),
        *(hex_grid(n) for n in (2, 3, 5)),
    )


@pytest.fixture
def schema_oracle(monkeypatch):
    """Every document parse_input checks is also checked by jsonschema: same pointer, same message."""
    check = tropcoh.io._schema_error

    def checked(raw):
        got = check(raw)
        assert got == schema_first_error(raw)
        return got

    monkeypatch.setattr(tropcoh.io, "_schema_error", checked)

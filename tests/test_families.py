import io

import pytest

from copwin.cli import main
from copwin.errors import UnsupportedParameterError
from copwin.families import (
    FAMILIES,
    complete,
    cycle,
    generate,
    hoffman_singleton,
    incidence,
    path,
    petersen,
    polarity,
)
from copwin.graph6 import emit_graph6
from copwin.graphs import diameter, girth, is_bipartite, is_connected


def test_cycle_path_complete():
    assert len(cycle(5).edges()) == 5
    assert len(path(4).edges()) == 3
    assert len(complete(6).edges()) == 15
    with pytest.raises(UnsupportedParameterError):
        cycle(2)


class TestMooreGraphs:
    def test_petersen(self, petersen_graph):
        g = petersen_graph
        assert g.n == 10
        assert g.degrees() == [3] * 10
        assert girth(g) == 5
        assert diameter(g) == 2

    def test_hoffman_singleton(self, hoffman_singleton_graph):
        g = hoffman_singleton_graph
        assert g.n == 50
        assert g.degrees() == [7] * 50
        assert girth(g) == 5
        assert diameter(g) == 2


class TestFiniteGeometry:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_polarity_order_and_degrees(self, q):
        g = polarity(q)
        assert g.n == q * q + q + 1
        # every vertex sees q+1 points of its polar line, minus itself if
        # the point is absolute
        assert set(g.degrees()) <= {q, q + 1}
        assert sum(1 for d in g.degrees() if d == q) == q + 1
        assert is_connected(g)

    @pytest.mark.parametrize("q", [2, 3])
    def test_incidence_structure(self, q):
        g = incidence(q)
        N = q * q + q + 1
        assert g.n == 2 * N
        assert g.degrees() == [q + 1] * (2 * N)
        assert is_bipartite(g)
        assert diameter(g) == 3
        assert girth(g) == 6

    def test_heawood_is_incidence_2(self, heawood_graph):
        assert heawood_graph.n == 14
        assert heawood_graph.degrees() == [3] * 14

    def test_rejects_nonprime_and_large(self):
        with pytest.raises(UnsupportedParameterError):
            polarity(4)
        with pytest.raises(UnsupportedParameterError):
            incidence(9)
        with pytest.raises(UnsupportedParameterError):
            polarity(17)


class TestGenerate:
    def test_dispatch(self):
        assert generate("cycle", 5).adj == cycle(5).adj
        assert generate("petersen").adj == petersen().adj
        assert generate("incidence", 2).adj == incidence(2).adj

    def test_parameter_errors(self):
        with pytest.raises(UnsupportedParameterError):
            generate("petersen", 3)
        with pytest.raises(UnsupportedParameterError):
            generate("cycle")
        with pytest.raises(UnsupportedParameterError):
            generate("mystery", 1)

    def test_every_table_entry(self):
        # one valid parameter per kind: generate builds what the
        # constructor builds, and `copwin gen` prints it
        valid = {"order": 5, "prime": 3, None: None}
        for name, (build, kind) in FAMILIES.items():
            param = valid[kind]
            g = build() if param is None else build(param)
            assert generate(name, param) == g, name
            argv = ["gen", "--family", name]
            if param is not None:
                argv += ["--param", str(param)]
            out = io.StringIO()
            assert main(argv, out=out) == 0, name
            assert out.getvalue() == emit_graph6(g) + "\n", name


def test_polarity_diameter_two():
    # these graphs meet the diameter-2 hypothesis of the main bound
    for q in (2, 3, 5):
        assert diameter(polarity(q)) == 2

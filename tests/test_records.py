"""The six value records: construction, defaults, equality and hashing,
repr text, immutability, and the checks their constructors make; and the
modules a bare import of copwin leaves unloaded."""

import os
import subprocess
import sys

import pytest

from copwin.solver import Arena, GameConfig
from copwin.strategy import CopPlan, StationaryGuard, StrategyTrace
from copwin.traps import Hypergraph

GUARD = StationaryGuard(4, 0, 10, 4, 3)
ARENA = Arena((0, 1, 2), (6, 5, 3))

# (class, field values in order, exact repr)
RECORDS = [
    (
        Arena,
        ((0, 1, 2), (6, 5, 3)),
        "Arena(vertices=(0, 1, 2), adj=(6, 5, 3))",
    ),
    (
        GameConfig,
        (2, "standard", True, None),
        "GameConfig(k=2, variant='standard', robber_may_pass=True, robber_arena=None)",
    ),
    (
        StationaryGuard,
        (4, 0, 10, 4, 3),
        "StationaryGuard(vertex=4, stage=0, arena_order=10, threshold=4, degree=3)",
    ),
    (
        CopPlan,
        ((GUARD,), ARENA, 2, 3, 4),
        "CopPlan(stationary=(StationaryGuard(vertex=4, stage=0, arena_order=10, threshold=4, "
        "degree=3),), residual_arena=Arena(vertices=(0, 1, 2), adj=(6, 5, 3)), "
        "mobile_cop_count=2, total_cops=3, budget=4)",
    ),
    (
        StrategyTrace,
        (((0, (1,), 2), (1, (2,), 2)), "captured", 1, 10, "greedy"),
        "StrategyTrace(rounds=((0, (1,), 2), (1, (2,), 2)), outcome='captured', "
        "capture_round=1, max_rounds=10, robber_policy='greedy')",
    ),
    (
        Hypergraph,
        (3, (frozenset({0, 1}),)),
        "Hypergraph(n=3, edges=(frozenset({0, 1}),))",
    ),
]
FIELDS = {
    Arena: ("vertices", "adj"),
    GameConfig: ("k", "variant", "robber_may_pass", "robber_arena"),
    StationaryGuard: ("vertex", "stage", "arena_order", "threshold", "degree"),
    CopPlan: ("stationary", "residual_arena", "mobile_cop_count", "total_cops", "budget"),
    StrategyTrace: ("rounds", "outcome", "capture_round", "max_rounds", "robber_policy"),
    Hypergraph: ("n", "edges"),
}
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, cls, values, text):
        pos = cls(*values)
        kw = cls(**dict(zip(FIELDS[cls], values)))
        assert pos == kw
        assert tuple(getattr(pos, f) for f in FIELDS[cls]) == values

    def test_equal_records_hash_equal(self, cls, values, text):
        assert hash(cls(*values)) == hash(cls(*values))

    def test_repr(self, cls, values, text):
        assert repr(cls(*values)) == text

    def test_fields_cannot_be_assigned(self, cls, values, text):
        rec = cls(*values)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        assert rec == cls(*values)


def test_game_config_defaults():
    cfg = GameConfig()
    assert (cfg.k, cfg.variant, cfg.robber_may_pass, cfg.robber_arena) == (1, "standard", True, None)
    assert cfg == GameConfig(1, "standard", True, None)
    assert repr(cfg) == "GameConfig(k=1, variant='standard', robber_may_pass=True, robber_arena=None)"


def test_game_config_checks():
    with pytest.raises(ValueError, match=r"^cop count k must be >= 1$"):
        GameConfig(k=0)
    with pytest.raises(ValueError, match=r"^unknown variant 'lazy'$"):
        GameConfig(variant="lazy")


def test_hypergraph_defaults():
    h = Hypergraph(3)
    assert h.n == 3 and h.edges == ()
    assert h == Hypergraph(3, ())
    assert repr(h) == "Hypergraph(n=3, edges=())"


def test_hypergraph_edges_come_back_as_a_tuple_of_frozensets():
    h = Hypergraph(4, [{0, 1}, [1, 2, 2], (3,)])
    assert type(h.edges) is tuple
    assert all(type(e) is frozenset for e in h.edges)
    assert h.edges == (frozenset({0, 1}), frozenset({1, 2}), frozenset({3}))
    assert h == Hypergraph(4, ({0, 1}, {1, 2}, {3}))
    assert hash(h) == hash(Hypergraph(4, ({0, 1}, {1, 2}, {3})))


def test_hypergraph_checks():
    with pytest.raises(ValueError, match=r"^hypergraph edge must be nonempty$"):
        Hypergraph(3, [{0}, set()])
    with pytest.raises(ValueError, match=r"^edge \{0, 3\} out of range for n=3$"):
        Hypergraph(3, [{0, 3}])
    with pytest.raises(ValueError, match=r"^edge \{-1\} out of range for n=3$"):
        Hypergraph(3, [{-1}])


def test_import_loads_no_dataclasses_inspect_or_fractions():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import copwin, copwin.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'fractions') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []

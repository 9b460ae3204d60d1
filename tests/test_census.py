"""Census tests: the seeded checks draw from finite families, so every
member of each is checked once here."""

import pathlib

from builders import reachable_stages, section2_family
from dimerforge.generators import _section2_instance, random_section2
from dimerforge.matchings import count_matchings, squarish
from dimerforge.refine import _mirrored, _square_graph
from dimerforge.report import (
    balance_fault,
    bar_fault,
    parse_suite_config,
    phi_fault,
    tree_swap_fault,
)
from dimerforge.trees import split_seed

SECTION2_CHECKS = ("section2", "phi-roundtrip", "bar-squarish", "tree-swap")
SUITE_CFG = pathlib.Path(__file__).resolve().parent.parent / "suite.cfg"


def _suite_section2_seeds():
    """The child seeds of every section-2 draw of the default suite."""
    items, base = parse_suite_config(SUITE_CFG.read_text(encoding="utf-8"))
    return [split_seed(split_seed(base, idx), k) for idx, item in enumerate(items)
            if item.name in SECTION2_CHECKS for k in range(item.args[0])]


def test_section2_family_holds_every_pinned_draw():
    # a generator change that widens the family fails here, which is also
    # the cue to bound _section2_instance's cache
    family = {_section2_instance(*key).base.graph_id for key in section2_family()}
    assert len(family) == 307
    seeds = ([*range(40)] + [split_seed(7, k) for k in range(200)]
             + [split_seed(20260810, k) for k in range(200)] + _suite_section2_seeds())
    assert len(seeds) == 540
    assert {random_section2(seed).base.graph_id for seed in seeds} <= family


def test_section2_identities_hold_on_every_drawing():
    plus_total = 0
    for key in section2_family():
        inst = _section2_instance(*key)
        plus, fault = phi_fault(inst)
        assert fault is None, key
        assert balance_fault(inst) == plus, key
        assert bar_fault(inst) is None, key
        assert tree_swap_fault(inst) is None, key
        plus_total += plus
    assert plus_total == 1415


def test_every_trimmed_stage_up_to_half_side_six_is_squarish():
    # built as random_trimmed builds a draw: the stage mirrored, then drawn
    stages = 0
    for n in range(1, 7):
        for present in reachable_stages(n):
            total = count_matchings(_square_graph(2 * n, _mirrored(set(present))))
            assert squarish(int(total)), (n, sorted(present))
            stages += 1
    assert stages == 196

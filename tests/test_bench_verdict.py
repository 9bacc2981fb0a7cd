"""The benchmark comparison's verdict rule (``bench/compare.py::verdict``).

``compare.py`` decides whether a change may claim a gain or is rejected
as a regression, so its four verdicts and the pair-counting rule behind
``better`` are pinned here.  The module is imported from ``bench/`` as
its own scripts import it (``report`` and ``bench/trace.py`` are
siblings on the path, the latter shadowing the standard library's
``trace`` while the import runs).
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
_SIBLINGS = ("compare", "report", "trace")


@pytest.fixture(scope="module")
def compare():
    saved = {name: sys.modules.pop(name) for name in _SIBLINGS if name in sys.modules}
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("compare")
    finally:
        sys.path.remove(str(BENCH))
        for name in _SIBLINGS:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


BOUND = 0.25
#: Ten parent runs with a narrow spread (IQR ~0.5% of the median).
PARENT = [100.0 + 0.1 * i for i in range(10)]


def _pairs(outcomes):
    """A change's runs against ``PARENT``: per pair, ``"w"`` wins by 20%,
    ``"t"`` ties, ``"l"`` loses by 0.5%."""
    step = {"w": 0.8, "t": 1.0, "l": 1.005}
    return [a * step[o] for a, o in zip(PARENT, outcomes)]


def test_better_when_every_pair_wins(compare):
    assert compare.verdict(PARENT, _pairs("w" * 10), BOUND, True) == "better"


def test_same_when_identical(compare):
    assert compare.verdict(PARENT, list(PARENT), BOUND, True) == "same"


def test_worse_beyond_the_bound(compare):
    slower = [a * 1.3 for a in PARENT]
    assert compare.verdict(PARENT, slower, BOUND, True) == "worse"
    # Within the bound a slower change is only "same".
    assert compare.verdict(PARENT, [a * 1.2 for a in PARENT], BOUND, True) == "same"


def test_unresolved_when_either_side_spreads_wider_than_the_bound(compare):
    noisy = [50.0, 60.0, 80.0, 100.0, 100.0, 100.0, 120.0, 140.0, 150.0, 160.0]
    assert compare.verdict(noisy, list(PARENT), BOUND, True) == "unresolved"
    assert compare.verdict(PARENT, noisy, BOUND, True) == "unresolved"


def test_nine_in_ten_wins_rule(compare):
    assert compare.verdict(PARENT, _pairs("w" * 9 + "l"), BOUND, True) == "better"
    assert compare.verdict(PARENT, _pairs("w" * 8 + "ll"), BOUND, True) == "same"


def test_ties_count_for_neither_side(compare):
    # 8 wins, 2 ties: 8 of 8 decided pairs — better (a tie is no loss).
    assert compare.verdict(PARENT, _pairs("w" * 8 + "tt"), BOUND, True) == "better"
    # 8 wins, 1 tie, 1 loss: 8 of 9 decided — same (a tie is no win).
    assert compare.verdict(PARENT, _pairs("w" * 8 + "tl"), BOUND, True) == "same"


def test_a_win_inside_the_parents_spread_is_not_better(compare):
    wide = [100.0 + 2.0 * i for i in range(10)]  # IQR ~11% of the median
    nudged = [a - 1.0 for a in wide]  # wins every pair, by less than the IQR
    assert compare.verdict(wide, nudged, BOUND, True) == "same"


def test_fewer_than_min_pairs_never_better(compare):
    n = compare.MIN_PAIRS - 1
    faster = _pairs("w" * 10)
    assert compare.verdict(PARENT[:n], faster[:n], BOUND, True) == "same"
    # Unpaired runs (different seeds) cannot show a gain either.
    assert compare.verdict(PARENT, faster, BOUND, False) == "same"

"""scripts/ibs_ablation.py, loaded by path since scripts/ is not a package:
its exact sign test against enumeration of every outcome."""

import importlib.util
import itertools
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ibs_ablation.py"
_spec = importlib.util.spec_from_file_location("ibs_ablation", SCRIPT)
ibs_ablation = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ibs_ablation)


@pytest.mark.parametrize("n", range(15))
def test_sign_test_equals_enumeration(n):
    """P(X >= wins) as the share of all 2^n win/loss sequences with at least `wins` wins."""
    wins_per_outcome = [sum(outcome) for outcome in itertools.product((0, 1), repeat=n)]
    for wins in range(n + 1):
        expected = sum(w >= wins for w in wins_per_outcome) / 2**n
        assert ibs_ablation.sign_test_p(wins, n - wins) == expected

"""scripts/claims.py, loaded by path since scripts/ is not a package: its exact sign test
against enumeration of every outcome, and a short run of each subcommand."""

import importlib.util
import itertools
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "claims.py"
_spec = importlib.util.spec_from_file_location("claims", SCRIPT)
claims = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(claims)


@pytest.mark.parametrize("n", range(15))
def test_sign_test_equals_enumeration(n):
    """P(X >= wins) as the share of all 2^n win/loss sequences with at least `wins` wins."""
    wins_per_outcome = [sum(outcome) for outcome in itertools.product((0, 1), repeat=n)]
    for wins in range(n + 1):
        expected = sum(w >= wins for w in wins_per_outcome) / 2**n
        assert claims.sign_test_p(wins, n - wins) == expected


@pytest.mark.parametrize("argv, header, rows", [
    (["ibs", "--corpora", "1"], "corpus,ap50_ibs,ap50_plain,gain", 1),
    (["scale", "--scenes", "2"], "seed,cv_raw,cv_cropped,cv_eip", 2),
], ids=["ibs", "scale"])
def test_subcommand_writes_its_csv(argv, header, rows, tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert claims.main([*argv, "--csv", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows
    assert f"wrote {path}" in capsys.readouterr().out

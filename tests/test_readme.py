"""The README's library quick start runs and prints what its comments say."""

import re
from pathlib import Path

import numpy as np
import pytest

from cplab.witness import DEFAULT_SCAN_GRID

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start(capsys):
    namespace = {}
    exec(_quick_start(), namespace)
    verdict, candidate, scan = (namespace[k] for k in ("verdict", "candidate", "scan"))
    # is_cp=False, min coeff eig -1
    assert verdict.is_cp is False
    assert verdict.min_coeff_eigenvalue == pytest.approx(-1.0)
    # value = -0.5 = ½ · w†Cw
    w = candidate.direction
    assert candidate.value == pytest.approx(-0.5)
    assert candidate.value == pytest.approx(0.5 * np.vdot(w, namespace["g"].coeff @ w).real)
    # 1e-4 (first grid point)
    assert scan.first_negative_time == DEFAULT_SCAN_GRID[0] == 1e-4
    assert capsys.readouterr().out == f"{DEFAULT_SCAN_GRID[0]}\n"

"""Only ``policies.play`` builds a ``DayObservation`` in the package, and
only ``PredictionSequence.build`` constructs a bare ``PredictionSequence``.

Every policy, in the worst-case runs and in the Bayesian world alike, is
stepped by that one loop; a second loop could step or trace runs
differently.  Every sequence, the grid adversary's included, comes from
``PredictionSequence.build``, which checks each day and narrows the
effective bounds through ``model.narrow_day``; a second path could skip
those checks or compute the bounds differently.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "staffing_minimax"


def callers(source: str, name: str) -> list:
    """Top-level functions and classes whose bodies call `name`."""
    out = []
    for node in ast.parse(source).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and name in (
                    getattr(sub.func, "id", None),
                    getattr(sub.func, "attr", None)):
                out.append(getattr(node, "name", "<module>"))
                break
    return out


def test_guard_sees_a_constructor():
    source = ("def run(x):\n    return [DayObservation(t, x) for t in x]\n"
              "class Loop:\n    def step(self):\n"
              "        return policies.DayObservation(1, None)\n")
    assert callers(source, "DayObservation") == ["run", "Loop"]


def test_only_play_builds_day_observations():
    found = [f"{path.stem}.{where}"
             for path in sorted(PACKAGE.glob("*.py"))
             for where in callers(path.read_text(), "DayObservation")]
    assert found == ["policies.play"]


def test_only_build_constructs_sequences():
    found = [f"{path.stem}.{where}"
             for path in sorted(PACKAGE.glob("*.py"))
             for where in callers(path.read_text(), "PredictionSequence")]
    assert found == ["model.PredictionSequence"]

"""The closed-form oracles, anchored to the paper's literal values, and the import rule every file keeps."""

import ast
import decimal
import math
import sys
from fractions import Fraction
from pathlib import Path

import oracles


REPO = Path(__file__).resolve().parent.parent
STDLIB = set(sys.stdlib_module_names)
# numpy is the one runtime dependency; CI installs only numpy, pytest and hypothesis
TEST_IMPORTS = STDLIB | {"numpy", "pytest", "hypothesis", "photonclock"}
TEST_IMPORTS |= {path.stem for path in (REPO / "tests").glob("*.py")}


def _imports(path):
    """The top-level name of every absolute import in a file; relative imports stay in their package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0}
    return {name.split(".")[0] for name in names}


def test_imports_follow_the_dependency_rule():
    # the oracles stand on the standard library alone, src/ adds numpy, and tests/ and scripts/ add
    # pytest, hypothesis, the package and the tests' own modules
    rules = [(Path(oracles.__file__), STDLIB)]
    rules += [(path, STDLIB | {"numpy"}) for path in sorted((REPO / "src").rglob("*.py"))]
    rules += [(path, TEST_IMPORTS) for folder in ("tests", "scripts") for path in sorted((REPO / folder).glob("*.py"))]
    assert len(rules) > 20
    stray = [
        f"{path.relative_to(REPO)} imports {name}" for path, allowed in rules for name in sorted(_imports(path) - allowed)
    ]
    assert not stray, "; ".join(stray)


def test_conditionals_hold_the_paper_values():
    # the sharp corner, the frozen pair (0.8, 0.5) and a blind clock, exactly
    assert (oracles.conditional("stationary", 1), oracles.conditional("time_dependent", 1)) == (1, Fraction(3, 4))
    assert oracles.conditional("stationary", Fraction(4, 10)) == Fraction(7, 10)
    assert oracles.conditional("time_dependent", Fraction(4, 10)) == Fraction(6, 10)
    assert oracles.advantage(Fraction(4, 10)) == Fraction(1, 10)
    assert oracles.conditional("stationary", 0) == oracles.conditional("time_dependent", 0) == Fraction(1, 2)
    # a float product rounds as the float closed form does
    p = 0.8 * 0.5
    assert (oracles.conditional("stationary", p), oracles.conditional("time_dependent", p)) == (0.7, 0.6)
    assert oracles.advantage(1.0) == 0.25


def test_sequential_oracles_hold_their_anchor_values():
    # cos^2(pi/4) cos^2(pi/4) = 1/4, and the equal schedule at x = pi/8 peaks at 2 sqrt(2)
    assert abs(oracles.joint_probability(math.pi / 4, math.pi / 4, True, True) - 0.25) <= 1e-16
    assert oracles.correlator(0.0) == 1.0 and oracles.joint_probability(0.0, 0.0, True, True) == 1.0
    x = math.pi / 8
    assert abs(oracles.schedule_sum((0.0, x, 2 * x, 3 * x), 1.0) - 2 * math.sqrt(2)) <= oracles.CLOSED_FORM_SLACK


def test_recipes_reproduce_known_values():
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        assert float(oracles.decimal_pi()) == math.pi
        assert str(+oracles.DECIMAL_TWO_PI)[:22] == "6.28318530717958647692"
        assert float(oracles.decimal_cos(+oracles.DECIMAL_TWO_PI / 6)) == 0.5
    assert oracles.exact_combination(0.0) == 2
    assert float(oracles.exact_combination(math.pi / 8)) == 2.0 * math.sqrt(2.0)

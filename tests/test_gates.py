import ast
import math
from pathlib import Path

import numpy as np
import pytest

from horoflow import gates
from horoflow.gates import all_passed, gate


@pytest.mark.parametrize("relation", ["<=", ">=", ">"])
@pytest.mark.parametrize("value", [math.nan, np.float64("nan"), None])
def test_nan_and_none_fail_every_relation(relation, value):
    for bound in (0.0, 1e-12, -math.inf, math.inf, math.nan):
        assert gate("g", value, relation, bound)["passed"] is False


@pytest.mark.parametrize("value, relation, passed", [
    (math.inf, "<=", False), (-math.inf, "<=", True),
    (math.inf, ">=", True), (-math.inf, ">=", False),
    (math.inf, ">", True), (-math.inf, ">", False),
])
def test_infinities_fail_where_the_relation_requires(value, relation, passed):
    assert gate("g", value, relation, 1e-12)["passed"] is passed
    assert gate("g", value, relation, -1e-9)["passed"] is passed


def test_a_row_holds_its_comparison_at_the_bound():
    assert gate("x", 1.0, "<=", 2.0) == {"name": "x", "value": 1.0, "relation": "<=",
                                         "bound": 2.0, "passed": True}
    at = {relation: gate("x", 2.0, relation, 2.0)["passed"] for relation in gates.RELATIONS}
    assert at == {"<=": True, ">=": True, ">": False}
    # a numpy comparison gives a JSON boolean, not numpy.bool_
    assert gate("x", np.float64(1.0), "<=", 2.0)["passed"] is True
    with pytest.raises(KeyError):
        gate("x", 1.0, "<", 2.0)


def test_the_verdict_is_the_and_of_its_rows():
    good, bad = gate("a", 1.0, "<=", 2.0), gate("b", 3.0, "<=", 2.0)
    assert all_passed([good, good]) is True
    assert all_passed([good, bad]) is False and all_passed([bad, good]) is False


def test_the_rule_imports_nothing_from_the_package():
    tree = ast.parse(Path(gates.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.Import) for node in imports)
    assert [alias.name for node in imports for alias in node.names] == ["operator"]

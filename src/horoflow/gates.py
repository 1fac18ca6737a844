"""One rule for every verdict: a gate compares one value with its bound, a NaN
or ``None`` value fails every relation, and a verdict is the AND of its rows."""

import operator

RELATIONS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def gate(name: str, value, relation: str, bound) -> dict:
    """The report row ``{name, value, relation, bound, passed}`` of one gate."""
    passed = value is not None and bool(RELATIONS[relation](value, bound))
    return {"name": name, "value": value, "relation": relation, "bound": bound,
            "passed": passed}


def all_passed(rows) -> bool:
    """Whether every row passed: the verdict of the block that holds ``rows``."""
    return all(row["passed"] for row in rows)

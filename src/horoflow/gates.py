"""One rule for every verdict: a gate compares one value with its bound, a NaN
or ``None`` value fails every relation, and a verdict is the AND of its rows.
A command that ends without a verdict ends by the class of what it raised."""

import operator

RELATIONS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


class InputError(ValueError):
    """A flag or a config value that the commands refuse: exit 2."""


class NumericalFailure(RuntimeError):
    """A solve or a report that failed at ``time`` (None for a whole solve or
    report): exit 1, with a failure report that names the class's ``kind``."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


def gate(name: str, value, relation: str, bound) -> dict:
    """The report row ``{name, value, relation, bound, passed}`` of one gate."""
    passed = value is not None and bool(RELATIONS[relation](value, bound))
    return {"name": name, "value": value, "relation": relation, "bound": bound,
            "passed": passed}


def all_passed(rows) -> bool:
    """Whether every row passed: the verdict of the block that holds ``rows``."""
    return all(row["passed"] for row in rows)

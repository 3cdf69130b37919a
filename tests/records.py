"""A check run into a fresh recorder, and the fail rule of a recorder, read
where the engine declares it."""

from paracheck.report import EXIT_OK, CheckReport, StructureCheckResult


def recorded(check, *args, **kwargs) -> StructureCheckResult:
    """The recorder ``check(res, *args, **kwargs)`` adds into: a fresh one at
    tolerance scale 1, as a request with the default ``--tol-scale`` builds."""
    res = StructureCheckResult()
    check(res, *args, **kwargs)
    return res


def passed(result: StructureCheckResult) -> bool:
    """True when no record of the recorder ``result`` fails: a report holding
    its records exits 0."""
    return CheckReport("", "", 0, 0, "", "", list(result.records.values())).exit_code == EXIT_OK

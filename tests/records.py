"""The fail rule of a check result, read where the engine declares it."""

from paracheck.report import EXIT_OK, CheckReport


def passed(result) -> bool:
    """True when no record of the StructureCheckResult ``result`` fails: a
    report holding its records exits 0."""
    return CheckReport("", "", 0, 0, "", "", result.checks).exit_code == EXIT_OK

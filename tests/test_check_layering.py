"""Check functions read values: none of them takes a jet step.

A check function measures the gaps of its identities on values the request
already holds: the structure's cached covariant derivatives, the curvature
package, the ambient jets' nabla J~ and the request's C11(phi R).  Building
a jet object is the job of the object that owns it, so each is built once
per request however many checks read it.  This test walks the body of every
check function in ``src/paracheck`` (nested functions and lambdas included)
and names each call of a jet step in it.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "paracheck"

# check functions by name, and the one in suites that is not named like one
CHECK_FUNCTION = re.compile(r"(check_\w+|verify_\w+|quasi_umbilical_check|_add_over_family|_gauss_chain)$")
ALSO_CHECKS = {("suites", "_fit_with_stability")}

# functions and methods that build or transform jets
JET_STEPS = {"covariant_derivative", "contract_with", "christoffel", "curvature", "_nabla",
             "invert_jet_matrix", "compute_c11_phi_r"}
JET_SPACE_METHODS = {"mul", "matmul", "grad"}     # JetSpace's; numpy's functions of these names are values


def _called(call: ast.Call) -> str | None:
    """The jet step ``call`` calls, if it calls one."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id if f.id in JET_STEPS else None
    if isinstance(f, ast.Attribute):
        if f.attr in JET_STEPS:
            return f.attr
        if f.attr in JET_SPACE_METHODS and not (isinstance(f.value, ast.Name) and f.value.id == "np"):
            return f.attr
    return None


def jet_steps_in_checks(src: Path = SRC) -> list[tuple[str, str]]:
    """(module.function, jet step) of every jet-step call in a check function under ``src``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and (CHECK_FUNCTION.match(node.name)
                                                      or (path.stem, node.name) in ALSO_CHECKS):
                found += [(f"{path.stem}.{node.name}", step) for call in ast.walk(node)
                          if isinstance(call, ast.Call) and (step := _called(call))]
    return found


def test_no_check_function_takes_a_jet_step():
    assert jet_steps_in_checks() == []


def test_the_guard_sees_the_check_functions():
    """The name rule reaches a check function of each kind, the one named in
    ALSO_CHECKS included."""
    names = {(path.stem, node.name) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}
    checked = {n for n in names if CHECK_FUNCTION.match(n[1]) or n in ALSO_CHECKS}
    assert {("paracontact_core", "check_axioms"), ("einstein_like", "verify_lie_formulas"),
            ("einstein_like", "_add_over_family"), ("hypersurface_lab", "check_ambient"),
            ("hypersurface_lab", "quasi_umbilical_check"), ("hypersurface_lab", "_gauss_chain"),
            *ALSO_CHECKS} <= checked


def test_the_guard_names_a_jet_step(tmp_path):
    """A check that takes its own covariant derivative, a JetSpace product or
    a jet contraction is named; numpy's matmul is not a jet step."""
    (tmp_path / "mod.py").write_text(
        "def verify_x(res, s):\n"
        "    n = covariant_derivative(s.g, s.connection)\n"
        "    m = (lambda: s.space.mul(a, b))()\n"
        "    return np.matmul(n, m), s._nabla(s.phi)\n"
        "def helper(s):\n"
        "    return contract_with(s.g, s.phi, 0, 0)\n")
    assert sorted(step for _, step in jet_steps_in_checks(tmp_path)) == ["_nabla", "covariant_derivative", "mul"]

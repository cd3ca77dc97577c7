"""The public surface: no dead top-level code, and no deleted name left behind."""

import ast
from pathlib import Path

import ghzmeter
import ghzmeter.cli
from ghzmeter import AcinParams, OrthoFrame, QuantumState, QuditGenPair
from ghzmeter.correlators import IdentityReport
from ghzmeter.optimize import ConvexityReport

SRC = Path(ghzmeter.__file__).parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
EXPORTS = {
    alias.name
    for node in TREES["__init__.py"].body
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
}


def references(node, skip):
    """Names and attributes read under `node`, leaving out the subtree `skip`."""
    if node is skip:
        return set()
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= references(child, skip)
    return found


def test_every_private_definition_is_used():
    unused = []
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in EXPORTS:
                continue
            if not any(node.name in references(other, node) for other in TREES.values()):
                unused.append(f"{module}:{node.name}")
    assert unused == []


DELETED = {
    ghzmeter: [
        "frame_from_angles",
        "triple_observable",
        "is_hermitian",
        "is_unitary",
        "acin_correlators",
    ],
    ghzmeter.linalg: [
        "triple_observable",
        "is_hermitian",
        "is_unitary",
        "X_HAT",
        "Y_HAT",
        "Z_HAT",
        "shift_matrix",
        "clock_matrix",
    ],
    ghzmeter.correlators: ["CONTRACT", "_dot3"],
    ghzmeter.optimize: [
        "_rotated",
        "frame_from_angles",
        "euler_frame",
        "euler_rotations",
        "random_euler_angles",
        "_stencil",
        "STENCILS",
        "STENCIL_STEP",
        "START_GRID",
        "AXES",
        "MONOMIALS",
        "_score_table",
        "SCORE_TABLE",
        "CHART_TABLES",
        "PAIRING",
    ],
    ghzmeter.functional: ["lhv_identity_holds", "weyl_quad", "acin_correlators"],
    ghzmeter.cli: ["UsageError"],
    QuantumState: ["real_expectation"],
    OrthoFrame: ["orthogonal", "is_orthogonal", "m"],
    AcinParams: ["tau3"],
    QuditGenPair: ["omega"],
    IdentityReport: ["max_residual"],
    ConvexityReport: ["convex_within_tolerance"],
}


def test_deleted_names_are_gone():
    left = [
        f"{owner.__name__}.{name}"
        for owner, names in DELETED.items()
        for name in names
        if hasattr(owner, name)
    ]
    assert left == []

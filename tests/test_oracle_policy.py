"""The test oracles stand apart from the runtime's pair engine.

``tests/oracles.py`` reads sections at the one exact exponent of
``selftest.oracle_h0``, so it needs nothing of the pair engine's scan: no
name of it from ``arithsurf.cohomology``, not the pattern check that
``bundles`` runs on the engine's values, not the error a scan raises at its
cap, and no margin of its own added to a window.  The module is parsed, not
imported, so imports inside functions count too.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"

FORBIDDEN = {
    "arithsurf.cohomology": {
        "section_space",
        "_pair_data",
        "_section_space_cached",
        "FpSpan",
        "shift_pair_vector",
        "h0_dim",
    },
    "arithsurf.bundles": {"_check_pattern"},
    "arithsurf.errors": {"WindowExhausted"},
}


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in FORBIDDEN:
            found += [
                f"line {node.lineno}: from {node.module} import {alias.name}"
                for alias in node.names
                if alias.name in FORBIDDEN[node.module]
            ]
        elif isinstance(node, ast.Attribute) and any(node.attr in names for names in FORBIDDEN.values()):
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                f"line {node.lineno}: assigns WINDOW_GUARD"
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and name.id == "WINDOW_GUARD"
            ]
    return found


def test_oracles_use_no_pair_engine_name_no_scan_error_and_no_window_guard():
    assert _violations(ast.parse(ORACLES.read_text(), str(ORACLES))) == []


def test_the_policy_flags_each_form():
    source = "\n".join(
        [
            "from arithsurf.cohomology import h0_dim, sheaf_rank_degree",
            "from arithsurf.bundles import _check_pattern, bundle_handle",
            "from arithsurf.errors import WindowExhausted, NotLocallyFree",
            "from arithsurf import cohomology",
            "def f(P):",
            "    from arithsurf.cohomology import section_space",
            "    return cohomology._pair_data(P, 0, 0)",
            "WINDOW_GUARD = 4",
        ]
    )
    assert sorted(v.split(":")[0] for v in _violations(ast.parse(source))) == [
        "line 1",
        "line 2",
        "line 3",
        "line 6",
        "line 7",
        "line 8",
    ]

"""Every top-level function and class of ``src/coparse`` has a user in the
package or in perfbench, bar the reference implementations that only the
tests call."""

import ast
from collections import Counter
from pathlib import Path

import coparse

ROOT = Path(coparse.__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "coparse"

# plain recomputations the tests check the package against
TEST_ONLY = {
    ("esvm", "esvm_subgradient"),
    ("graphcut", "brute_force_map"),
    ("graphcut", "energy_of"),
    ("grouping", "objective_of"),
    ("pipeline", "background_fraction"),
}


def _names_read(node) -> Counter:
    """How often each name occurs under ``node`` as a name, an attribute or
    an imported name."""
    return Counter(n.id if isinstance(n, ast.Name) else
                   n.attr if isinstance(n, ast.Attribute) else n.name
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def test_every_top_level_definition_has_a_user():
    reads = Counter()
    own_reads = {}      # (module, name) -> reads of the name inside its own definition
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += _names_read(tree)
        if path.parent == PACKAGE:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    own_reads[path.stem, node.name] = _names_read(node)[node.name]
    unused = {key for key, own in own_reads.items() if reads[key[1]] == own}
    assert unused == TEST_ONLY

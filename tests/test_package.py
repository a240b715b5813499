"""The package's public names and the imports of its modules."""

import ast
from pathlib import Path

import fuzzyface


def test_every_public_name_resolves():
    for name in fuzzyface.__all__:
        assert hasattr(fuzzyface, name), name


def test_reference_entropy_is_not_public():
    # tests/conftest.py keeps the n-value entropy as feature_membership's reference
    for name in ("shannon_entropy", "eval_membership"):
        assert name not in fuzzyface.__all__
        assert not hasattr(fuzzyface, name)


# names imported only for perfbench/run.py --trace 1, which wraps them by
# name (ROADMAP item 5)
TRACER_ONLY_IMPORTS = {("cli", "atomic_write_text"), ("scoring", "normalize_pair"),
                       ("scoring", "rasterize"), ("synthbench", "compare")}


def test_every_import_is_used():
    # no linter runs on src/, so a dead import would go unseen
    unused = []
    for path in sorted(Path(fuzzyface.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # the package's __init__ re-exports its imports through __all__
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used and (path.stem, name) not in TRACER_ONLY_IMPORTS]
    assert unused == []

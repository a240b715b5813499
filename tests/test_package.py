"""The package's public names, the imports of its modules and the words of its range rule."""

import ast
import inspect
from pathlib import Path

import fuzzyface
from fuzzyface.geometry import in_range


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
TRACER_ONLY_IMPORTS = {("cli", "atomic_write_text"), ("scoring", "alpha_from_masks"),
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


def test_the_range_words_are_written_once():
    # "must lie in [low, high]" is geometry.in_range's to say; a check that
    # words it again is a second copy of the range rule, which can drift
    source, first = inspect.getsourcelines(in_range)
    inside = {("geometry.py", line) for line in range(first, first + len(source))}
    found = []
    for path in sorted(Path(fuzzyface.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.JoinedStr) and "must lie in [" in "".join(
                    part.value for part in node.values if isinstance(part, ast.Constant)):
                found.append((path.name, node.lineno))
    assert len(found) == 1 and set(found) <= inside, found


def test_no_private_name_is_imported_from_a_sibling():
    # a module's _-prefixed names are its own; a sibling that needs one
    # needs a public name
    imported = []
    for path in sorted(Path(fuzzyface.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "fuzzyface"):
                imported += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                             if alias.name.startswith("_")]
    assert imported == []


# each module imports only modules before it: the raster layer knows no
# faces, and the pair engine knows no benchmark or file format
MODULE_ORDER = ["geometry", "silhouette", "features", "fuzzymath", "calibration", "scoring",
                "synthbench", "fileio", "cli"]


def test_each_module_imports_only_modules_before_it():
    package = Path(fuzzyface.__file__).parent
    assert sorted(MODULE_ORDER) == sorted(path.stem for path in package.glob("*.py")
                                          if path.stem != "__init__")
    backward = []
    for position, module in enumerate(MODULE_ORDER):
        for node in ast.walk(ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                backward += [f"{module} imports {target}" for target in targets
                             if target not in MODULE_ORDER[:position]]
    assert backward == []

"""Every UDF stage runs as a Ray task unless it is a listed actor pool.

A ``map_batches`` stage given a class object, constructor arguments or a
``concurrency=`` size starts an actor pool: about 1.5 s of actor start-up
per stage per execution at sf0.001, and chained pools that together ask
for every cluster CPU starve the read stage and stall. A stage whose
class only holds parameters is passed as an instance (or written as a
function) and runs as tasks. This test scans the package source, so a
new pool has to be added to ``KEPT_POOLS`` with its reason.
"""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "full_text_extractor_v6_ray"

# (module path under the package, enclosing function) -> reason
KEPT_POOLS = {
    ("stages/enhance.py", "enhance_dataset"):
        "the bounded client pool is the stage's contract: EnhanceConfig "
        "validates pool_size as the backend's own concurrency budget",
}

POOL_KWARGS = {"concurrency", "fn_constructor_args", "fn_constructor_kwargs"}
UDF_METHODS = {"map_batches", "map_groups"}


def _package_classes(trees: dict) -> set[str]:
    return {node.name for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)}


def _pool_sites(rel: str, tree: ast.AST, classes: set[str]):
    """Yield (rel, enclosing function, line, why) per actor-pool call."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            if isinstance(child, ast.Call):
                why = []
                kws = {k.arg for k in child.keywords}
                why += sorted(kws & POOL_KWARGS)
                if (isinstance(child.func, ast.Attribute)
                        and child.func.attr in UDF_METHODS and child.args):
                    fn = child.args[0]
                    name = (fn.id if isinstance(fn, ast.Name) else
                            fn.attr if isinstance(fn, ast.Attribute) else None)
                    if name in classes:
                        why.append(f"class object {name}")
                if why:
                    yield rel, func, child.lineno, ", ".join(why)
            yield from visit(child, inner)

    yield from visit(tree, None)


def _all_sites():
    trees = {str(p.relative_to(PACKAGE)): ast.parse(p.read_text())
             for p in sorted(PACKAGE.rglob("*.py"))}
    classes = _package_classes(trees)
    return [site for rel, tree in trees.items()
            for site in _pool_sites(rel, tree, classes)]


def test_only_kept_pools_start_actors():
    sites = _all_sites()
    unlisted = [s for s in sites if (s[0], s[1]) not in KEPT_POOLS]
    assert not unlisted, (
        "map_batches actor pools outside KEPT_POOLS (pass an instance or a "
        "function, drop concurrency=):\n"
        + "\n".join(f"  {rel}:{line} in {func}(): {why}"
                    for rel, func, line, why in unlisted))


def test_kept_pools_still_exist():
    """A kept pool that is gone must leave the allow-list too."""
    found = {(rel, func) for rel, func, _, _ in _all_sites()}
    assert set(KEPT_POOLS) <= found

"""Every definition in `src/stimkb` is reached from somewhere else.

The scan parses `src/stimkb/*.py` and `perfbench/*.py` with `ast`.  The
checked names are the top-level functions and classes of `src/stimkb` and
the non-dunder methods of its top-level classes.

A top-level function counts as reached only by a use that can resolve to
it: a mention in its own module outside its own definition, an import of
it from its module (`from .corpus import f`, `from stimkb.corpus import
f`), or an attribute of its module (`corpus_module.f`, `stimkb.corpus.f`,
after that module was imported under that name).  So a function that
shares its name with one defined elsewhere (as `perfbench/gen.py` defines
a `generate` of its own) is not reached by uses of the other.

Classes and methods count as reached by name alone: when the name appears
outside their own definition as a name, an attribute or an import alias.
So a method whose name something else shares (a method called `keywords`
beside a local variable `keywords`, or a dunder such as `__contains__`)
escapes the check.

Anything also counts as reached by a string constant equal to its name,
anywhere: the benchmark's call tracer looks its targets up by string.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "stimkb"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def scanned_trees():
    """Module name -> ast tree of every scanned file: `stimkb.<name>` for
    `src/stimkb` (`stimkb` for its `__init__.py`), and the bare file name
    for `perfbench`, whose scripts import each other as top-level
    modules."""
    trees = {}
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        name = PACKAGE if path.stem == "__init__" else f"{PACKAGE}.{path.stem}"
        trees[name] = ast.parse(path.read_text(), str(path))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        trees[path.stem] = ast.parse(path.read_text(), str(path))
    return trees


def _checked(tree):
    """(qualified name, definition node) for each checked definition."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, _FUNCTIONS)
                        and not member.name.startswith("__")):
                    yield f"{node.name}.{member.name}", member


def _names(node):
    """The (kind, name) pairs that `node` itself mentions; the kind is
    "string" for a string constant, "name" otherwise."""
    if isinstance(node, ast.Name):
        return (("name", node.id),)
    if isinstance(node, ast.Attribute):
        return (("name", node.attr),)
    if isinstance(node, ast.alias):
        return (("name", node.name.rpartition(".")[2]), ("name", node.asname))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (("string", node.value),)
    return ()


def _appearances(tree, definitions):
    """(kind, name) pairs mentioned in `tree`, leaving out each mention that
    lies inside a checked definition of that same name."""
    seen = set()

    def visit(node, enclosing):
        if node in definitions:
            enclosing = enclosing | {node.name}
        for kind, name in _names(node):
            if name and name not in enclosing:
                seen.add((kind, name))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return seen


def _dotted(node):
    """"a.b.c" for the expression `a.b.c` of plain names, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = _dotted(node.value)
        return owner and f"{owner}.{node.attr}"
    return None


def _module_uses(module, tree, modules):
    """The (module, name) pairs that the code `tree` of module `module`
    resolves to: each `from m import name` that imports no module, and each
    attribute `x.name` where `x` is bound to module m by an import in the
    file (in any scope).  `modules` holds every scanned module name."""
    package = module if module == PACKAGE else module.rpartition(".")[0]
    bound = {}  # name -> the module an import binds it to
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.partition(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base_package = package
                for _ in range(node.level - 1):
                    base_package = base_package.rpartition(".")[0]
                base = f"{base_package}.{base}" if base else base_package
            for alias in node.names:
                full = f"{base}.{alias.name}"
                if full in modules:
                    bound[alias.asname or alias.name] = full
                else:
                    uses.add((base, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = _dotted(node.value)
            if owner is not None:
                top, _, rest = owner.partition(".")
                if top in bound:
                    uses.add((".".join(filter(None, (bound[top], rest))),
                              node.attr))
    return uses


def unreached(trees):
    """The checked definitions of the `stimkb` modules among `trees`
    (module name -> ast tree) that nothing reaches, each as
    "<module>.<qualified name>" without the package, sorted."""
    checked = [
        (module, qualname, node)
        for module, tree in trees.items()
        if module == PACKAGE or module.startswith(PACKAGE + ".")
        for qualname, node in _checked(tree)
    ]
    definitions = {node for _, _, node in checked}
    appearances = {module: _appearances(tree, definitions)
                   for module, tree in trees.items()}
    everywhere = set().union(*appearances.values())
    strings = {name for kind, name in everywhere if kind == "string"}
    names = {name for _, name in everywhere}
    uses = set().union(*(_module_uses(module, tree, set(trees))
                         for module, tree in trees.items()))
    missing = []
    for module, qualname, node in checked:
        if qualname == node.name and isinstance(node, _FUNCTIONS):
            reached = (node.name in strings or (module, node.name) in uses
                       or ("name", node.name) in appearances[module])
        else:
            reached = node.name in names
        if not reached:
            missing.append(f"{module.removeprefix(PACKAGE + '.')}.{qualname}")
    return sorted(missing)


def test_every_definition_is_reached():
    assert unreached(scanned_trees()) == []


def test_the_scan_sees_each_kind_of_use():
    tree = ast.parse(
        "def used_by_name(): pass\n"
        "def used_as_attribute(): pass\n"
        "def used_as_string(): pass\n"
        "def recursive(): return recursive()\n"
        "class Box:\n"
        "    def method(self): return self.method()\n"
        "    def __len__(self): return 0\n"
        "used_by_name()\n"
        "x.used_as_attribute\n"
        "TARGETS = ('used_as_string',)\n"
    )
    checked = dict(_checked(tree))
    assert sorted(checked) == [
        "Box", "Box.method", "recursive", "used_as_attribute",
        "used_as_string", "used_by_name",
    ]
    seen = {name for _, name in _appearances(tree, set(checked.values()))}
    assert {"used_by_name", "used_as_attribute", "used_as_string"} <= seen
    assert not {"recursive", "method", "Box"} & seen
    assert unreached({"stimkb.box": tree}) == [
        "box.Box", "box.Box.method", "box.recursive"]


def test_a_function_is_reached_only_through_its_own_module():
    trees = {
        "stimkb.gen": ast.parse(
            "def generate(): pass\n"
            "def imported(): pass\n"
            "def relative(): pass\n"
            "def by_module(): pass\n"
            "def by_package(): pass\n"
            "def by_alias(): pass\n"
            "def traced(): pass\n"
            "def named_elsewhere(): pass\n"
            "class Shape:\n"
            "    def area(self): pass\n"
        ),
        "stimkb.util": ast.parse(
            "from .gen import relative\n"
            "from . import gen as gen_module\n"
            "gen_module.by_alias()\n"
            "def helper(): pass\n"
            "helper()\n"
        ),
        # A benchmark script with a `generate` of its own, which it calls,
        # and uses of the others as a package would make them.
        "gen": ast.parse(
            "import stimkb.gen\n"
            "from stimkb import gen as g\n"
            "from stimkb.gen import imported\n"
            "def generate(): pass\n"
            "generate()\n"
            "g.by_module()\n"
            "stimkb.gen.by_package()\n"
            "TARGETS = (('stimkb.gen', None, 'traced'),)\n"
            "named_elsewhere = 1\n"
            "x.area\n"
            "y.Shape\n"
        ),
    }
    assert unreached(trees) == ["gen.generate", "gen.named_elsewhere"]

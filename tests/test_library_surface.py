"""The library is what the CLI runs: every public name in src/tropcoh has a caller there.

The test walks the package's modules with ``ast``.  It lists every public
module-level function and class, and every public method of those classes,
and fails on one that no other code in the package uses, unless the
allow-list below names it with its reason.  It fails, too, on a class-body
field of a package record whose name no package module reads as an
attribute, under the same allow-list.  An allow-list entry that has
gained a user in the package, or that no longer exists, fails too, so the
list only shrinks.  Code that only tests use lives in ``tests/oracles.py``
or in the tool that uses it.

A module-level name is used when a module loads it by name: its own module
outside its definition, or a module that imports it from there.  A method
is used when code calls it as an attribute, or reads an attribute of that
name that is no data field of any class in the package; a property is used
when code reads an attribute of its name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import tropcoh

SRC = Path(tropcoh.__file__).resolve().parent
ROOT = SRC.parents[1]

README = "README library entry point"
BENCH = "tropbench imports (item 1b)"

ALLOWED = {
    "examples.local_p2": README,
    "examples.blowup_p2": README,
    "polytope.interior_vertices": BENCH,
    "winding.winding_via_T_auto": BENCH,
    "smoothing.grad": BENCH,
    "smoothing.hessian": BENCH,
    "smoothing.mollify_eval": BENCH,
    "bundles.PhiMap.apply": BENCH,
    "bundles.PhiMap.matrix": BENCH,
    "lattice.integer_kernel": BENCH,
    "fan.make_fan": BENCH,
}


def _parse() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _public_defs(trees):
    """(qualified name, node, kind) of each public function, class, method and property."""
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((f"{mod}.{node.name}", node, "global"))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        prop = any(isinstance(d, ast.Name) and d.id == "property" for d in sub.decorator_list)
                        out.append((f"{mod}.{node.name}.{sub.name}", sub, "property" if prop else "method"))
    return out


def _fields(trees) -> list[tuple[str, str]]:
    """(qualified name, name) of each class-body field, in any class."""
    out = []
    for mod, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    out.append((f"{mod}.{cls.name}.{node.target.id}", node.target.id))
    return out


def _data_fields(trees) -> set[str]:
    """Names of class-body fields and of attributes assigned on self, in any class."""
    names = {name for _, name in _fields(trees)}
    for tree in trees.values():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if isinstance(node.value, ast.Name) and node.value.id == "self":
                        names.add(node.attr)
    return names


def _imports(trees) -> dict[str, dict[str, tuple[str, str]]]:
    """Per module, each name imported from a package module: local alias -> (its module, its name)."""
    out = {mod: {} for mod in trees}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("tropcoh.")):
                source = (node.module or "").rpartition(".")[2]
                for alias in node.names:
                    out[mod][alias.asname or alias.name] = (source, alias.name)
    return out


def _count(nodes, imported) -> tuple[Counter, Counter]:
    """Names loaded, keyed (module, name), and attributes used, keyed ("call" or "read", name)."""
    names, attrs = Counter(), Counter()
    called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
    for n in nodes:
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[imported.get(n.id, n.id)] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attrs["call" if id(n) in called else "read", n.attr] += 1
    return names, attrs


def _unused(trees) -> list[str]:
    fields = _data_fields(trees)
    imports = _imports(trees)
    names, attrs = Counter(), Counter()
    for mod, tree in trees.items():
        local = {**imports[mod], **{n.name: (mod, n.name) for n in tree.body if hasattr(n, "name")}}
        n, a = _count(list(ast.walk(tree)), local)
        names += n
        attrs += a
    out = []
    for qual, node, kind in _public_defs(trees):
        mod, name = qual.split(".")[0], node.name
        own_names, own_attrs = _count(list(ast.walk(node)), {name: (mod, name)})
        if kind == "global":
            used = names[mod, name] - own_names[mod, name] > 0
        else:
            calls = attrs["call", name] - own_attrs["call", name]
            reads = attrs["read", name] - own_attrs["read", name]
            used = calls > 0 or (reads > 0 and (kind == "property" or name not in fields))
        if not used:
            out.append(qual)
    return out


def _unread_fields(trees) -> list[str]:
    """Each class-body field whose name no module reads as an attribute."""
    reads = {
        n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return [qual for qual, name in _fields(trees) if name not in reads]


def test_every_public_name_has_a_library_user_or_a_listed_reason():
    trees = _parse()
    unused = _unused(trees) + _unread_fields(trees)
    assert [q for q in unused if q not in ALLOWED] == []
    defined = {q for q, _, _ in _public_defs(trees)} | {q for q, _ in _fields(trees)}
    assert sorted(set(ALLOWED) - defined) == [], "allow-listed names that no longer exist"
    assert sorted(set(ALLOWED) - set(unused)) == [], "allow-listed names that now have a library user"


def test_every_allow_list_reason_holds():
    assert set(ALLOWED.values()) == {README, BENCH}
    readme = (ROOT / "README.md").read_text()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "tropbench").glob("*.py")))
    for qual, reason in ALLOWED.items():
        word = re.compile(rf"\b{qual.rpartition('.')[2]}\b")
        assert word.search(readme if reason == README else bench), qual


def test_the_walk_sees_a_name_put_back_without_a_caller():
    """A function, a method and a Fraction solve added with no caller are reported; one used is not."""
    trees = _parse()
    trees["lattice"].body += ast.parse("def solve_dual(u, v, a, b):\n    return solve_dual(v, u, b, a)\n").body
    fan_cls = next(n for n in trees["fan"].body if isinstance(n, ast.ClassDef) and n.name == "Fan")
    fan_cls.body += ast.parse("def index_of(self, u):\n    return self.index_of(u)\n").body
    pl_cls = next(n for n in trees["smoothing"].body if isinstance(n, ast.ClassDef) and n.name == "FanPL")
    # a data field of another class has this name, and cli reads it
    pl_cls.body += ast.parse("def gradient(self, pts):\n    return pts\n").body
    trees["io"].body += ast.parse("def _helper():\n    return used_once()\ndef used_once():\n    return 1\n").body
    unused = _unused(trees)
    assert {"lattice.solve_dual", "fan.Fan.index_of", "smoothing.FanPL.gradient"} <= set(unused)
    assert "io.used_once" not in unused


def test_the_walk_sees_a_field_put_back_without_a_reader():
    """A record field that no module reads is reported, as ``SubdivisionEdge.n_check`` was."""
    trees = _parse()
    assert _unread_fields(trees) == []
    edge = next(n for n in trees["polytope"].body if isinstance(n, ast.ClassDef) and n.name == "SubdivisionEdge")
    edge.body[1:1] = ast.parse("n_check: Vec\nnormal: Vec\n").body
    # a second field of a name the package reads is not reported
    assert _unread_fields(trees) == ["polytope.SubdivisionEdge.n_check"]


def test_no_module_imports_a_private_name_of_another():
    """A name that a second module needs is public: no ``from .module import _name``."""
    found = [
        f"{mod} imports {source}.{name}"
        for mod, imported in _imports(_parse()).items()
        for source, name in imported.values()
        if name.startswith("_") and source != mod
    ]
    assert found == []


def _unread_imports(trees) -> list[str]:
    """Each module-level import whose bound name its module never reads."""
    found = []
    for mod, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        found.append(f"{mod} imports {alias.name}")
    return found


def test_no_module_imports_a_name_it_never_reads():
    """A removal leaves no import behind, like ``self_intersections`` in ``bundles``."""
    trees = _parse()
    assert _unread_imports(trees) == []
    # the walk sees such an import when one is put back
    trees["bundles"].body[1:1] = ast.parse("from .fan import self_intersections\nimport sys\n").body
    assert _unread_imports(trees) == ["bundles imports self_intersections", "bundles imports sys"]

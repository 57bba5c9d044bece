"""Import-and-orphan lint of src/pvarlab, written with ast.

Every imported name is read in its module, every module-level private
function, class or constant has a reader in the package besides its own
definition, every public function or class has a reader outside the
tests, the front ends (harness, cli) import only public names from the
other modules, and every private name in prose names code that exists.
"""

import ast
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pvarlab"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
PERFBENCH = [ast.parse(path.read_text(), str(path)) for path in sorted(ROOT.glob("perfbench/*.py"))]

# The modules that read the package through its public API only.
FRONT_ENDS = ("harness", "cli")


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _reads(tree: ast.AST, *skip: ast.AST) -> set[str]:
    """Names loaded in tree outside the subtrees skip; the strings of a
    module-level __all__ count as reads."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif _is_all(node):
            found.update(ast.literal_eval(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _imports(tree: ast.Module) -> list[tuple[str | None, str, str]]:
    """(source module or None, imported name, bound name) of each import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(None, a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.module, a.name, a.asname or a.name) for a in node.names]
    return out


def _private_defs(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level private functions, classes and constants (not dunders)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(name, node) for name in names if name.startswith("_") and not name.endswith("__")]
    return out


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_read(module):
    tree = MODULES[module]
    reads = _reads(tree)
    unread = [bound for _, _, bound in _imports(tree) if bound not in reads]
    assert not unread, f"{module} imports names it never reads: {unread}"


def test_every_private_definition_has_a_reader():
    """A reader is a read in the defining module outside the definition, or
    an import by another module (which test_every_import_is_read makes read)."""
    imported = {
        (src.rpartition(".")[2], name)
        for tree in MODULES.values()
        for src, name, _ in _imports(tree)
        if src is not None
    }
    orphans = [
        f"{module}.{name}"
        for module, tree in MODULES.items()
        for name, node in _private_defs(tree)
        if (module, name) not in imported and name not in _reads(tree, node)
    ]
    assert not orphans, f"private definitions without a reader: {orphans}"


def test_every_public_definition_has_a_reader():
    """A function or class listed in its module's __all__ is read by another
    module of the package other than __init__ (an import, which
    test_every_import_is_read makes read), in its own module outside its
    definition and __all__, or under perfbench/ (a name, attribute or import)."""
    imported = {
        (src.rpartition(".")[2], name)
        for module, tree in MODULES.items()
        if module != "__init__"
        for src, name, _ in _imports(tree)
        if src is not None
    }
    bench = set()
    for tree in PERFBENCH:
        bench |= _reads(tree) | {name for _, name, _ in _imports(tree)}
        bench |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = []
    for module, tree in MODULES.items():
        exports = next((node for node in tree.body if _is_all(node)), None)
        if exports is None:
            continue
        public = set(ast.literal_eval(exports.value))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name not in public:
                continue
            read = (
                (module, node.name) in imported
                or node.name in _reads(tree, node, exports)
                or node.name in bench
            )
            if not read:
                unread.append(f"{module}.{node.name}")
    assert not unread, f"public definitions that only tests read: {unread}"


@pytest.mark.parametrize("module", FRONT_ENDS)
def test_front_ends_import_no_private_name(module):
    """No underscore-prefixed name (dunders such as __version__ aside) is
    imported from another pvarlab module."""
    private = [
        f"{node.module or '.'}:{a.name}"
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "pvarlab")
        for a in node.names
        if a.name.startswith("_") and not a.name.endswith("__")
    ]
    assert not private, f"{module} imports private names: {private}"


def _top_level_readers(name: str) -> list[str]:
    """The top-level definitions of the package that read or import name,
    under any name a module-level import binds it to, as
    module.definition; name's own definition and those imports are left
    out (test_every_import_is_read makes an import read)."""
    readers = []
    for module, tree in MODULES.items():
        bound = {name} | {b for _, n, b in _imports(tree) if n == name}
        readers += [
            f"{module}.{getattr(node, 'name', type(node).__name__)}"
            for node in tree.body
            if getattr(node, "name", None) != name
            and not isinstance(node, (ast.Import, ast.ImportFrom))
            and bound & (_reads(node) | {n for _, n, _ in _imports(node)})
        ]
    return readers


def test_row_norms_has_one_reader():
    """modulus._row_norms, which turns differences into shift norms, is read
    or imported by one top-level definition of the package, _shift_norms, so
    every shift norm has one evaluator."""
    readers = _top_level_readers("_row_norms")
    assert readers == ["modulus._shift_norms"], readers


def test_bounds_have_two_readers():
    """The bounds that leave shifts out each have two top-level readers:
    modulus._l2_bounds is read by _prefix_max_table and mixed_ratio_sup,
    and _f32_bounds by _partner_bounds and mixed_ratio_sup, whose docstrings
    derive what they exclude.  A third reader fails here until it does."""
    assert _top_level_readers("_l2_bounds") == ["modulus._prefix_max_table", "modulus.mixed_ratio_sup"]
    assert _top_level_readers("_f32_bounds") == ["modulus._partner_bounds", "modulus.mixed_ratio_sup"]


def test_stack_has_two_readers():
    """modulus._STACK, the number of float32 terms in a partial of the
    float32 pass, is read by _row_norms, which sums in partials of that
    many terms, and by _f32_bounds, whose width covers their rounding: the
    sum and the width cannot drift apart."""
    readers = _top_level_readers("_STACK")
    assert readers == ["modulus._row_norms", "modulus._f32_bounds"], readers


def test_float32_has_two_readers():
    """In modulus, float32 (np.float32, or the name imported) is read by
    two top-level definitions: _row_norms, which sums float32 rows in
    partials, and _f32_bounds, which makes the float32 copy and bounds its
    rounding.  So no window layout or other kernel path branches on the
    dtype."""
    readers = [
        f"modulus.{getattr(node, 'name', type(node).__name__)}"
        for node in MODULES["modulus"].body
        if any(
            isinstance(x, ast.Attribute) and x.attr == "float32"
            or isinstance(x, ast.Name) and x.id == "float32"
            for x in ast.walk(node)
        )
    ]
    assert readers == ["modulus._row_norms", "modulus._f32_bounds"], readers


def test_chain_dp_has_two_readers():
    """pvar1d._chain_dp is read by _pvar_lanes, which gives it each lane's
    _extrema points at p > 1, and by vitali2d._chain_max, whose pair costs
    are not a sequence's: no new caller bypasses the restriction.  The
    import that brings it into vitali2d is not a reader; any definition
    that reads it there is."""
    readers = _top_level_readers("_chain_dp")
    assert readers == ["pvar1d._pvar_lanes", "vitali2d._chain_max"], readers


def _numpy_call(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    )


# The modules whose array powers the seam must carry.
ABS_POW_READERS = ("pvar1d", "modulus", "vitali2d")


@pytest.mark.parametrize("module", sorted(MODULES))
def test_array_powers_go_through_abs_pow(module):
    """Every array power of the package is pvar1d._abs_pow's, the one seam
    where a power's bits or speed change: outside _abs_pow's own body, no
    `**=`, no `np.abs(...) ** ...` and no np.power.  Scalar CPython powers
    stay: `x**pp` over tolist() floats, `v**inv` and _root."""
    tree = MODULES[module]
    seam = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_abs_pow"]
    powers = [
        f"{module}:{node.lineno}: {ast.unparse(node)}"
        for top in tree.body
        if top not in seam
        for node in ast.walk(top)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Pow)
        or isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and _numpy_call(node.left, "abs")
        or _numpy_call(node, "power")
    ]
    assert not powers, f"array powers outside _abs_pow: {powers}"
    if module in ABS_POW_READERS:
        assert "_abs_pow" in _reads(tree, *seam), f"{module} never calls _abs_pow"


def test_numpy_fft_stays_unloaded_and_in_modulus():
    """Importing pvarlab leaves numpy.fft unloaded: its first load costs
    about 2 ms and 0.7 MB, which only a modulus table should pay, in
    modulus, the one module that reads np.fft."""
    code = "import sys, pvarlab; print('numpy.fft' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stdout.split() == ["False"], run.stdout + run.stderr
    readers = [
        module
        for module, tree in MODULES.items()
        if any(isinstance(node, ast.Attribute) and node.attr == "fft" for node in ast.walk(tree))
        or any("fft" in f"{src}.{name}" for src, name, _ in _imports(tree))
    ]
    assert readers == ["modulus"], readers


# A private name in prose, _x and one more character at least.
PRIVATE_NAME = re.compile(r"(?<!\w)_[A-Za-z]\w+")


def test_private_names_in_prose_exist():
    """Every private name in a docstring or comment of src/pvarlab is a
    name, attribute, definition, argument or import of its code, and every
    backticked `module._name` in README.md a private definition of that
    module: a deleted or renamed name leaves no stale prose behind."""
    fields = ("id", "attr", "name", "arg", "asname")
    known = {getattr(node, field, None) for tree in MODULES.values()
             for node in ast.walk(tree) for field in fields}
    stale = []
    for path in sorted(SRC.glob("*.py")):
        prose = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(MODULES[path.stem])
                 if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))]
        with path.open() as f:
            prose += [tok.string for tok in tokenize.generate_tokens(f.readline)
                      if tok.type == tokenize.COMMENT]
        stale += [f"{path.stem}: {name}" for text in prose for name in PRIVATE_NAME.findall(text)
                  if name not in known]
    readme = (ROOT / "README.md").read_text()
    stale += [f"README.md: {module}.{name}" for module, name in re.findall(r"`(\w+)\.(_\w+)", readme)
              if module in MODULES and name not in dict(_private_defs(MODULES[module]))]
    assert not stale, f"private names in prose that the code does not have: {stale}"

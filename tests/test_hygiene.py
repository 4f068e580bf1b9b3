"""Static checks over the package source, stdlib only: no module-level import
goes unread, and no private module-level name goes unreferenced, so code
that no caller needs shows up as a failure here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chowreg"
# __init__.py only re-exports the public names
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _references(tree):
    """Every name a module reads, as a bare name, as an attribute or in an
    import."""
    refs = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _defined(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign,
                                                       ast.AugAssign))
               else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = _tree(path)
    loaded = _loaded_names(tree)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    assert [name for name in bound if name not in loaded] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # imports sit at module level, where the check above sees whether they
    # are read and a reader sees what a module depends on
    functions = [node for node in ast.walk(_tree(path))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert [(fn.name, node.lineno) for fn in functions
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_every_private_module_level_name_is_referenced():
    trees = {path: _tree(path) for path in MODULES}
    refs = set().union(*map(_references, trees.values()))
    unused = [f"{path.name}:{name}" for path in MODULES
              for node in trees[path].body for name in _defined(node)
              if name.startswith("_") and not name.startswith("__")
              and name not in refs]
    assert unused == []


# the methods that change a dict, list or set in place
_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
             "pop", "popitem", "clear", "remove", "discard",
             "difference_update", "intersection_update",
             "symmetric_difference_update", "sort", "reverse"}
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                    "Counter", "deque"}


def _module_containers(tree):
    """The module-level names bound to a dict, list or set, by a display,
    a comprehension or a constructor call."""
    names = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(value, ast.Call):
            func = value.func
            call = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            is_container = call in _CONTAINER_CALLS
        else:
            is_container = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                              ast.DictComp, ast.ListComp,
                                              ast.SetComp))
        if is_container:
            names.update(_defined(node))
    return names


def _writes(function, containers):
    """(line, name) for each write of ``function`` into a module-level
    container that it does not rebind locally: a subscript assignment or
    deletion, or a call of an in-place method."""
    local = {n.id for n in ast.walk(function)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    local |= {a.arg for a in ast.walk(function.args)
              if isinstance(a, ast.arg)}
    for n in ast.walk(function):
        if isinstance(n, ast.Global):
            local -= set(n.names)
    shared = containers - local
    for n in ast.walk(function):
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store,
                                                               ast.Del)):
            target = n.value
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr in _MUTATORS):
            target = n.func.value
        else:
            continue
        # x[k][j] = v and x[k].append(v) write into x as well
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name) and target.id in shared:
            yield n.lineno, target.id


def _container_writes(tree):
    containers = _module_containers(tree)
    return [hit for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda))
            for hit in _writes(node, containers)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_writes_into_a_module_level_container(path):
    # a module-level dict, list or set that functions fill is a cache that
    # outlives every object it describes and grows without bound; memos
    # belong on the objects they describe (a component's or a function's
    # _memo)
    assert _container_writes(_tree(path)) == []


def test_a_module_level_cache_is_caught():
    # the check above sees each form of write into a module-level container
    tree = ast.parse(
        "import collections\n"
        "_IMAGES = {}\n_SEEN = set()\n_LOG = []\n"
        "_BY_KEY = collections.defaultdict(list)\n"
        "def a(k, v):\n    _IMAGES[k] = v\n"
        "def b(v):\n    _SEEN.add(v)\n    _LOG.append(v)\n"
        "def c(k, v):\n    _BY_KEY[k].append(v)\n    _IMAGES.setdefault(k, v)\n"
        "def d(k):\n    del _IMAGES[k]\n"
        "def fine(k, v):\n    _IMAGES = {}\n    _IMAGES[k] = v\n"
        "    memo = {}\n    memo[k] = v\n    return _IMAGES.get(k)\n")
    assert sorted(name for _, name in _container_writes(tree)) == [
        "_BY_KEY", "_IMAGES", "_IMAGES", "_IMAGES", "_LOG", "_SEEN"]


def _unbounded_caches(tree):
    """(line, name) for each function decorated with ``lru_cache`` that
    does not set an integer ``maxsize``, first positional or by keyword,
    and for each decorated with ``functools.cache``, which sets none."""
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = (target.attr if isinstance(target, ast.Attribute)
                    else getattr(target, "id", None))
            if name not in ("lru_cache", "cache"):
                continue
            sizes = ([kw.value for kw in call.keywords
                      if kw.arg == "maxsize"] + call.args[:1]) if call else []
            if name == "cache" or not any(
                    isinstance(size, ast.Constant) and type(size.value) is int
                    for size in sizes):
                yield dec.lineno, fn.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    # a module-level cache lives as long as the process: it keeps at most
    # a stated number of entries, never one per argument ever seen
    assert list(_unbounded_caches(_tree(path))) == []


def test_an_unbounded_cache_is_caught():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache, cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(x):\n    return x\n"
        "@lru_cache\ndef b(x):\n    return x\n"
        "@lru_cache()\ndef c(x):\n    return x\n"
        "@functools.cache\ndef d(x):\n    return x\n"
        "@cache\ndef e(x):\n    return x\n"
        "@lru_cache(None)\ndef f(x):\n    return x\n"
        "@functools.lru_cache(maxsize=32)\ndef fine(x):\n    return x\n"
        "@lru_cache(8)\ndef fine_too(x):\n    return x\n")
    assert [name for _, name in _unbounded_caches(tree)] == [
        "a", "b", "c", "d", "e", "f"]


def _is_memo(node):
    return isinstance(node, ast.Attribute) and node.attr == "_memo"


def _memo_handling(tree, home):
    """(line, form) for each place that handles an object's ``_memo`` by
    hand: a store into it (a subscript assignment or deletion, or an
    in-place method), a membership test on it, or a binding of it to a
    name.  In ``home`` (numeric.py) the body of ``kept`` is skipped; a
    ``self._memo = {}`` or a dataclass field declares the memo and is none
    of these."""
    skipped = {id(n) for fn in ast.walk(tree)
               if home and isinstance(fn, ast.FunctionDef)
               and fn.name == "kept" for n in ast.walk(fn)}
    for n in ast.walk(tree):
        if id(n) in skipped:
            continue
        if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store,
                                                               ast.Del)):
            hit = _is_memo(n.value) and "store"
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            hit = (n.func.attr in _MUTATORS and _is_memo(n.func.value)
                   and "store")
        elif isinstance(n, ast.Compare):
            hit = any(isinstance(op, (ast.In, ast.NotIn)) and _is_memo(c)
                      for op, c in zip(n.ops, n.comparators)) and "test"
        elif isinstance(n, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            hit = (_is_memo(n.value) and "alias")
        else:
            hit = False
        if hit:
            yield n.lineno, hit


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_memo_is_kept_through_one_helper(path):
    # numeric.kept is the one get-or-build: a hand-written one elsewhere is
    # one more place where a build can be stored half-made or twice
    tree = _tree(path)
    assert list(_memo_handling(tree, path.name == "numeric.py")) == []


def test_a_hand_written_memo_is_caught():
    # the check above sees each form of handling a memo by hand, outside
    # kept in numeric.py, and passes the declarations and plain reads
    source = (
        "def kept(obj, key, build):\n"
        "    if key not in obj._memo:\n"
        "        obj._memo[key] = build()\n"
        "    return obj._memo[key]\n"
        "class A:\n    _memo: dict = None\n"
        "    def __init__(self):\n        self._memo = {}\n"
        "def a(self, k, v):\n    self._memo[k] = v\n"
        "def b(self, k):\n    return k in self._memo\n"
        "def c(self, k, v):\n    if k not in self._memo:\n        return v\n"
        "def d(self, k, v):\n    self._memo.setdefault(k, v)\n"
        "def e(self, k):\n    del self._memo[k]\n"
        "def f(self, k):\n    memo = self._memo\n    return memo[k]\n"
        "def fine(self, k):\n    return self._memo.get(k), self._memo[k]\n")
    forms = [form for _, form in _memo_handling(ast.parse(source), True)]
    assert sorted(forms) == ["alias", "store", "store", "store", "test",
                             "test"]
    forms = [form for _, form in _memo_handling(ast.parse(source), False)]
    assert sorted(forms) == ["alias", "store", "store", "store", "store",
                             "test", "test", "test"]


def _rotation_calls(tree):
    """(line, scope) for each call of ``mp.expj``, the scope being the
    names of the classes and functions around it, outermost first."""
    def visit(node, scope):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "expj"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "mp"):
                yield node.lineno, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)
    return list(visit(tree, ()))


def _outside_the_table(tree):
    """The calls of ``_rotation_calls`` outside the body of ``_rotations``."""
    return [(line, scope) for line, scope in _rotation_calls(tree)
            if scope[:1] != ("_rotations",)]


def test_only_the_schedule_context_makes_a_rotation():
    # wavefront._rotations makes each rotation e^{i eps} once per phase and
    # precision, in its table, with the direction e^{i(pi - eps)} derived
    # from it, and every module, the command line included, reads them
    # through wavefront._rotation; a call of that may stand anywhere
    assert [(path.name, hit) for path in MODULES
            for hit in _outside_the_table(_tree(path))] == []


def test_a_rotation_made_outside_the_context_is_caught():
    tree = ast.parse(
        "@functools.lru_cache(maxsize=256)\n"
        "def _rotations(phase, bits):\n    rot = mp.expj(phase)\n"
        "    return rot, -rot.conjugate()\n"
        "def _direction(phase):\n    return mp.expj(mp.pi - phase)\n"
        "class _Context:\n    def __init__(self, p):\n"
        "        self.r = _rotation(p)\n        self.d = mp.expj(p)\n"
        "def trace(p):\n    return mp.expj(mp.pi - p)\n"
        "def cross(p):\n    return _rotation(p) * mp.expjpi(p)\n")
    assert _outside_the_table(tree) == [(6, ("_direction",)),
                                        (10, ("_Context", "__init__")),
                                        (12, ("trace",))]


def _powers_of_two(tree):
    """The lines of each power ``mp.mpf(2) ** k``: an mpf_pow_int per
    call for a value that ``mp.ldexp(1, k)`` gives exactly."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Call)
            and ast.unparse(node.left) == "mp.mpf(2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_power_of_two_is_an_ldexp(path):
    # a threshold 2^k is exact either way, and mp.ldexp(1, k) makes it
    # without a power
    assert _powers_of_two(_tree(path)) == []


def test_a_power_of_two_by_pow_is_caught():
    tree = ast.parse("x = mp.mpf(2) ** (16 - bits)\n"
                     "y = a * mp.mpf(2) ** -k\n"
                     "fine = mp.ldexp(1, -k) + mp.mpf(3) ** k\n")
    assert _powers_of_two(tree) == [1, 2]

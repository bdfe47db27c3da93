"""Static guards against imported names that a module never uses, against
``__all__`` entries that a module does not define, against library code that
only tests reach, against dataclass fields that no run reads, against
function parameters that their body never reads, against pool lookups
outside ``pitc``, against kernel matrices outside the modules that build
covariances, against the near-tie band outside ``selector`` and ``verify``,
against the pair sweep outside ``criterion`` and ``verify``, against the
rank-one variance downdate outside ``criterion`` and ``selector``, against a
factorization or LAPACK call outside ``linalg``, against a function that
takes a tuple list or its ``TupleArray`` alike, against a ``config`` loader
restating a default, against an INI read that names no section, against
package file I/O in the locale's encoding and against a test oracle that
nothing references.

No linter is part of the test toolchain, so these walk syntax trees.  The
unused-import scan covers every ``src/mogpal`` module and every test
module.  The package ``__init__`` (whose imports are re-exports), names
listed in a module's ``__all__`` and imports on a line marked
``# noqa: F401`` (deliberate re-exports, as in ``conftest.py``) are exempt.
The reachability and field scans read the package's code and the
benchmark's code, never tests.  Inside the library a selection is a list
of pool positions; ``PitcModel.positions`` is the one lookup from tuples,
so no module but ``pitc`` references ``tuple_index``.  Pool covariance is
read as ``W G + R`` from ``PitcModel``, so only ``kernels``, ``pitc``,
``selector``, ``experiment`` and ``hyperlearn`` reference ``cov_matrix``,
``latent_cross_matrix`` or ``latent_matrix``.  The greedy loop holds the one
near-tie rule, so only ``selector`` and ``verify``'s leaf band reference
``TIE_ATOL``.  The brute-force optimum's pair sweep is one more scoring
path, so only ``criterion``, which defines it, and ``verify`` reference
``pair_gains``, and no selector grows a second one.  The rank-one
variance downdate is one implementation, so only ``criterion``, which
defines ``_ConditionedVariances``, and ``selector``'s single-output
baselines reference it.  The jitter policy
lives in ``linalg``, so only it references ``cholesky``, ``cho_solve``,
``solve_triangular``, ``lapack``, ``dpotrf`` or ``dpotri``.  One table,
``CONFINED``, holds these six rules, and a reference is a name, an
attribute, an imported name or a part of an imported module's dotted path.
A tuple set is turned into a ``TupleArray`` once, by ``TupleArray.build`` at
a public entry point, and every function below takes that form alone, so no
package module calls ``isinstance`` with ``TupleArray``, bare or as
``kernels.TupleArray``.  At module level the package imports no third-party module but ``numpy`` and ``scipy.linalg``, so that a
run that never fits does not load ``scipy.optimize`` (``test_startup.py``
checks the loaded modules; this scan names the module that imports).  Each
INI default is declared once, on its dataclass field, so a ``config`` loader
reads a key with no literal default and leaves an absent key out.  Every
loader passes ``read_ini`` the section it reads, so a file without it is
refused in one place and with one message.  The package reads and writes
files as UTF-8 whatever the locale, so every ``open``, ``read_text`` and
``write_text`` call in it names its ``encoding``.  An oracle in ``oracles.py``
is a reference that tests compare against, so one that no test and no
other oracle references checks nothing.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mogpal").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
# the benchmark calls the package from outside; its self-tests do not count
CALLERS = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))
ORACLES = ROOT / "tests" / "oracles.py"

# Public definitions that no package or benchmark code reaches, kept on
# purpose.  They count as reached, and so does the code they use.
TEST_ONLY_ALLOWED = (
    # the `mogpal` console script (pyproject.toml)
    "cli.main",
)
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source):
    """Names bound by an import in ``source`` and never referenced."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # `import a.b` binds `a`
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    # attribute chains are rooted in a Name, so `np.linalg.x` marks `np`
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_scanner_flags_only_unused_names():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from dataclasses import dataclass, field\n"
        "from .errors import ConfigError\n"
        "from .kernels import as_tuple  # noqa: F401\n"
        "from .pitc import (\n"
        "    build_model,\n"
        "    sparse_cov,  # noqa: F401\n"
        ")\n"
        "__all__ = ['ConfigError']\n"
        "x = np.zeros(scipy.linalg.norm([1.0]))\n"
        "@dataclass\n"
        "class A:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["build_model", "field", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def stale_exports(source):
    """Names that ``__all__`` in ``source`` lists but no top-level
    statement of ``source`` binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, DEFS):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    return sorted(set(exported) - bound)


def test_export_scanner_flags_only_undefined_names():
    source = (
        "import numpy as np\n"
        "from .kernels import as_tuple\n"
        "LIMIT: int = 3\n"
        "a, (b, c) = 1, (2, 3)\n"
        "def f():\n"
        "    inner = 1\n"
        "class K:\n"
        "    attr = 2\n"
        "__all__ = ['np', 'as_tuple', 'LIMIT', 'a', 'c', 'f', 'K', 'inner', 'attr', 'gone']\n"
    )
    assert stale_exports(source) == ["attr", "gone", "inner"]
    assert stale_exports("def f():\n    pass\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_all_lists_only_defined_names(path):
    assert stale_exports(path.read_text()) == []


def _is_main_guard(node):
    # runs only when its module is a script; the console script's entry point
    # is on the allowlist instead
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__")


def _references(nodes):
    """Names and attribute names read anywhere under ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def unreached(package, callers, allowed=()):
    """Public functions, classes and methods of ``package`` ({module: source})
    that no code reaches, as ``module.qualname``.

    Reached code is, to a fixpoint: the package's module-level statements,
    every top-level statement of ``callers`` (sources), the ``allowed``
    definitions, and each definition whose name reached code reads.  A
    method is reached only with its class, a dunder method always with it.
    Names match without their module, so a name shared with reached code
    counts as reached.  Methods of an unreached class go with the class.
    """
    refs = set()
    for source in callers:
        refs |= _references(n for n in ast.parse(source).body if not _is_main_guard(n))
    defs = []  # (qualified name, name, class or None, own code)
    for module, source in package.items():
        body = ast.parse(source).body
        refs |= _references(n for n in body if not isinstance(n, DEFS) and not _is_main_guard(n))
        for node in body:
            if not isinstance(node, DEFS):
                continue
            qual = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                own = [n for n in node.body if not isinstance(n, DEFS)]
                defs.append((qual, node.name, None, own + node.bases + node.decorator_list))
                defs += [(f"{qual}.{m.name}", m.name, qual, [m])
                         for m in node.body if isinstance(m, DEFS)]
            else:
                defs.append((qual, node.name, None, [node]))
    reached = set()
    while True:
        new = [
            (qual, own) for qual, name, cls, own in defs
            if qual not in reached and (cls is None or cls in reached)
            and (name in refs or qual in allowed or (cls and name.startswith("__")))
        ]
        if not new:
            break
        for qual, own in new:
            reached.add(qual)
            refs |= _references(own)
    return sorted(
        qual for qual, name, cls, _ in defs
        if qual not in reached and not name.startswith("_") and (cls is None or cls in reached)
    )


def test_reachability_scanner_flags_only_unreached_names():
    package = {"a": (
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def only_tests():\n"
        "    return chained()\n"
        "def chained():\n"
        "    return 2\n"
        "def entry():\n"
        "    return from_entry()\n"
        "def from_entry():\n"
        "    return 3\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.x = at_init()\n"
        "    def read(self):\n"
        "        return self._private()\n"
        "    def _private(self):\n"
        "        return 0\n"
        "    def unread(self):\n"
        "        return 1\n"
        "def at_init():\n"
        "    return 4\n"
        "class Dead:\n"
        "    def method(self):\n"
        "        return 5\n"
        "__all__ = ['only_tests']\n"
        "if __name__ == '__main__':\n"
        "    only_tests()\n"
    )}
    callers = ["from a import K, used\nused()\nK().read()\nif __name__ == '__main__':\n    entry()\n"]
    assert unreached(package, callers) == [
        "a.Dead", "a.K.unread", "a.chained", "a.entry", "a.from_entry", "a.only_tests",
    ]
    assert unreached(package, callers, allowed=("a.entry",)) == [
        "a.Dead", "a.K.unread", "a.chained", "a.only_tests",
    ]


def test_library_code_is_reached_without_tests():
    package = {p.stem: p.read_text() for p in PACKAGE}
    callers = [p.read_text() for p in CALLERS]
    assert unreached(package, callers, TEST_ONLY_ALLOWED) == []
    # every allowance is still needed: without the allowlist it is flagged,
    # alone or with its class
    flagged = unreached(package, callers)
    for name in TEST_ONLY_ALLOWED:
        assert name in flagged or name.rsplit(".", 1)[0] in flagged, f"{name} is reached"


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def unread_fields(package, callers):
    """Fields of the dataclasses in ``package`` ({module: source}) whose name
    no code in ``package`` or ``callers`` (sources) reads as an attribute,
    as ``module.Class.field``.  Names match without their class, as in the
    reachability scan; writing a field is not reading it."""
    read = set()
    for source in [*package.values(), *callers]:
        read |= {
            node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
    unread = []
    for module, source in package.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                unread += [
                    f"{module}.{node.name}.{stmt.target.id}" for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read
                ]
    return sorted(unread)


def test_field_scanner_flags_only_unread_fields():
    package = {
        "a": (
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class P:\n"
            "    read: int\n"
            "    written: int = 0\n"
            "    by_caller: list = field(default_factory=list)\n"
            "class Plain:\n"
            "    ignored: int = 0\n"
            "def f(p):\n"
            "    p.written = 1\n"
            "    return p.read\n"
        ),
        "b": (
            "import dataclasses\n"
            "@dataclasses.dataclass\n"
            "class Q:\n"
            "    read: int\n"
            "    unread: int\n"
        ),
    }
    callers = ["def g(p):\n    return p.by_caller\n"]
    assert unread_fields(package, callers) == ["a.P.written", "b.Q.unread"]


def test_dataclass_fields_are_read():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_fields(package, [p.read_text() for p in CALLERS]) == []


def unread_parameters(source):
    """Parameters of the functions in ``source`` that the function's body
    never reads, as ``function.parameter``; ``self``, ``cls`` and names
    starting with ``_`` are exempt.  A read in a nested function counts."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg] if a is not None]
        read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        unread += [f"{node.name}.{p}" for p in params
                   if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return unread


def test_parameter_scanner_flags_only_unread_parameters():
    source = (
        "def f(a, b, _c, *args, d=1, **kw):\n"
        "    return a + kw['x']\n"
        "def outer(x, seed):\n"
        "    def inner(y):\n"
        "        return x + y\n"
        "    seed = 3\n"
        "    return inner\n"
        "class K:\n"
        "    def m(self, v=len):\n"
        "        return self\n"
        "    @classmethod\n"
        "    def make(cls, w):\n"
        "        return cls(w)\n"
    )
    assert unread_parameters(source) == ["f.b", "f.d", "f.args", "outer.seed", "m.v"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_library_functions_read_their_parameters(path):
    assert unread_parameters(path.read_text()) == []


KERNEL_CALLERS = ("kernels", "pitc", "selector", "experiment", "hyperlearn")
FACTORIZATIONS = ("cholesky", "cho_solve", "solve_triangular", "lapack", "dpotrf", "dpotri")
# name -> the only modules that may reference it
CONFINED = {
    "tuple_index": ("pitc",),
    "cov_matrix": KERNEL_CALLERS,
    "latent_cross_matrix": KERNEL_CALLERS,
    "latent_matrix": KERNEL_CALLERS,
    "TIE_ATOL": ("selector", "verify"),
    "pair_gains": ("criterion", "verify"),
    "_ConditionedVariances": ("criterion", "selector"),
    **{name: ("linalg",) for name in FACTORIZATIONS},
}


def _imported(tree):
    """Each part of the dotted names and modules that imports in ``tree``
    name: ``from scipy.linalg.lapack import dpotri`` gives ``scipy``,
    ``linalg``, ``lapack`` and ``dpotri``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.update(node.module.split("."))
    return out


def confined_references(package):
    """``(module, name)`` for each name of ``CONFINED`` that a module of
    ``package`` ({module: source}) outside its modules references: as a name
    (read or defined), an attribute or an import."""
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        names = _references([tree]) | _imported(tree)
        found += [(module, name) for name in names & CONFINED.keys()
                  if module not in CONFINED[name]]
    return sorted(found)


@pytest.mark.parametrize("reference", [
    "{name} = None\n", "value = module.{name}\n", "from .module import {name} as renamed\n",
], ids=["name", "attribute", "import"])
def test_confinement_scanner_flags_only_other_modules(reference):
    every = "".join(reference.format(name=name) for name in CONFINED)
    package = {
        "pitc": every, "selector": every, "criterion": every,
        "linalg": "from scipy.linalg.lapack import dpotri\nlower = np.linalg.cholesky(a)\n",
        "data": "cov = model.cov\ntie_atol = 1e-9\nnote = 'TIE_ATOL'\nmodel.tuple_indexes\n"
                "import numpy.linalg\nfrom scipy import linalg\nlinalg.eigh(a)\n",
        "hyperlearn": "import scipy.linalg.lapack\n",
    }
    assert confined_references(package) == sorted(
        [("criterion", name) for name in CONFINED
         if name not in ("pair_gains", "_ConditionedVariances")]
        + [("pitc", "TIE_ATOL"), ("selector", "tuple_index"), ("hyperlearn", "lapack")]
        + [("pitc", "pair_gains"), ("selector", "pair_gains"), ("pitc", "_ConditionedVariances")]
        + [(module, name) for module in ("pitc", "selector") for name in FACTORIZATIONS]
    )


def test_confined_names_stay_in_their_modules():
    assert confined_references({p.stem: p.read_text() for p in PACKAGE}) == []


def dual_form_inputs(source):
    """``isinstance`` calls in ``source``, unparsed in source order, whose
    class argument names ``TupleArray``, as a name or an attribute."""
    flagged = []
    for call in ast.walk(ast.parse(source)):
        if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
                and "TupleArray" in _references(call.args[1:])):
            flagged.append((call.lineno, ast.unparse(call)))
    return [text for _, text in sorted(flagged)]


def test_dual_form_scanner_flags_only_tuple_array_checks():
    source = (
        "def f(a, b, x, h):\n"
        "    ta = a if isinstance(a, TupleArray) else TupleArray.build(a, h)\n"
        "    tb = b if isinstance(b, kernels.TupleArray) else kernels.TupleArray.build(b, h)\n"
        "    return isinstance(x, tuple)\n"
    )
    assert dual_form_inputs(source) == [
        "isinstance(a, TupleArray)", "isinstance(b, kernels.TupleArray)",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_dual_form_inputs(path):
    assert dual_form_inputs(path.read_text()) == []


def literal_defaults(source):
    """Calls in ``source``, unparsed in source order, that read a value with
    a literal default: a call of ``get`` with a literal third positional
    argument or ``default=``, or any call with a literal ``fallback=``."""
    flagged = []
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call):
            continue
        args = [k.value for k in call.keywords if k.arg == "fallback"]
        if getattr(call.func, "id", None) == "get":
            args += [*call.args[2:3], *(k.value for k in call.keywords if k.arg == "default")]
        for arg in args:
            try:
                ast.literal_eval(arg)
            except ValueError:
                continue
            flagged.append((call.lineno, ast.unparse(call)))
    return [text for _, text in sorted(flagged)]


def test_default_scanner_flags_only_literal_defaults():
    source = (
        "def load(path, parser):\n"
        "    get = _getter(path, parser)\n"
        "    seed = get('experiment', 'seed', 0, 'int')\n"
        "    shape = get('verify', 'pool_shape', [6, 6], kind='ints')\n"
        "    out = get('verify', 'output_dir', default='results')\n"
        "    fit = get('experiment', 'fit', kind='boolean')\n"
        "    n = get('hyperparams', 'types', kind='int', required=True)\n"
        "    dim = get('hyperparams', 'dim', len(latent), 'int')\n"
        "    mode = parser.get('experiment', 'svar_mode', fallback='shared')\n"
        "    conv = getattr(parser, 'get' + kind)(section, key, fallback=default)\n"
        "    seen = {}.get('k', 0)\n"
    )
    assert literal_defaults(source) == [
        "get('experiment', 'seed', 0, 'int')",
        "get('verify', 'pool_shape', [6, 6], kind='ints')",
        "get('verify', 'output_dir', default='results')",
        "parser.get('experiment', 'svar_mode', fallback='shared')",
    ]


def test_config_loaders_restate_no_default():
    assert literal_defaults((ROOT / "src" / "mogpal" / "config.py").read_text()) == []


def _calls_without(source, names, keyword, positional=None):
    """Calls in ``source`` of a function or method named in ``names`` that
    pass no ``keyword``, nor (when ``positional`` is given) that many
    positional arguments, unparsed in source order."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
             and all(k.arg != keyword for k in node.keywords)
             and (positional is None or len(node.args) < positional)]
    return [ast.unparse(c) for c in sorted(calls, key=lambda c: (c.lineno, c.col_offset))]


def sectionless_reads(source):
    """Calls of ``read_ini`` in ``source``, unparsed in source order, that
    pass no section."""
    return _calls_without(source, ("read_ini",), "section", positional=2)


def test_section_scanner_flags_only_sectionless_reads():
    source = (
        "parser = read_ini(path)\n"
        "schema = config.read_ini(path)['schema']\n"
        "get = _getter(path, read_ini(path, 'verify'))\n"
        "h = config.read_ini(path, section='hyperparams')\n"
        "rows = read_csv(path)\n"
    )
    assert sectionless_reads(source) == ["read_ini(path)", "config.read_ini(path)"]


def test_every_ini_read_names_its_section():
    assert [(p.name, call) for p in PACKAGE for call in sectionless_reads(p.read_text())] == []


TEXT_IO = ("open", "read_text", "write_text")


def unencoded_text_io(source):
    """Calls of ``open``, ``read_text`` or ``write_text`` in ``source``,
    unparsed in source order, that pass no ``encoding``."""
    return _calls_without(source, TEXT_IO, "encoding")


def test_encoding_scanner_flags_only_unencoded_text_io():
    source = (
        "with open(path, 'w', newline='') as fh:\n"
        "    fh.write(Path(p).read_text())\n"
        "out.write_text(text, encoding='utf-8')\n"
        "with open(path, encoding='utf-8') as fh:\n"
        "    data = Path(p).read_bytes().decode('utf-8')\n"
        "(out / 'report.txt').write_text(text)\n"
        "reopen(path)\n"
    )
    assert unencoded_text_io(source) == [
        "open(path, 'w', newline='')", "Path(p).read_text()",
        "(out / 'report.txt').write_text(text)",
    ]


def test_package_text_io_names_its_encoding():
    assert [(p.name, call) for p in PACKAGE for call in unencoded_text_io(p.read_text())] == []


def unreferenced_oracles(oracles, tests):
    """Top-level definitions of ``oracles`` (source), in source order, that
    neither another top-level statement of ``oracles`` nor any of ``tests``
    (sources) references; a definition's reference to itself does not
    count."""
    body = ast.parse(oracles).body
    refs = _references(ast.parse(source) for source in tests)
    return [node.name for node in body if isinstance(node, DEFS)
            and node.name not in refs | _references(n for n in body if n is not node)]


def test_oracle_scanner_flags_only_unreferenced_oracles():
    oracles = (
        "import numpy as np\n"
        "TOL = np.finfo(float).eps\n"
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def by_attribute():\n"
        "    return 2\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "class Dense:\n"
        "    def solve(self):\n"
        "        return 3\n"
        "class Unused:\n"
        "    pass\n"
        "def unused():\n"
        "    return Dense().solve()\n"
    )
    tests = [
        "import oracles\nfrom oracles import used\n",
        "def test_a():\n    assert used() == oracles.by_attribute() - 1\n",
    ]
    assert unreferenced_oracles(oracles, tests) == ["recursive", "Unused", "unused"]


def test_every_oracle_is_referenced():
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py")) if p != ORACLES]
    assert unreferenced_oracles(ORACLES.read_text(), tests) == []


# third-party modules, with their submodules, that the package may import at
# module level: every run needs them for its set-up or first pass
STARTUP_IMPORTS = ("numpy", "scipy.linalg")


def _module_level(node):
    """Nodes under ``node`` that run when the module is imported: every node
    but the bodies of functions (a class body runs)."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _module_level(child)


def startup_imports(source):
    """Third-party modules that ``source`` imports at module level, other
    than ``STARTUP_IMPORTS`` and their submodules; ``from a import b``
    imports ``a.b``."""
    names = []
    for node in _module_level(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return sorted(
        name for name in names
        if name.split(".")[0] not in sys.stdlib_module_names
        and not any(name == ok or name.startswith(ok + ".") for ok in STARTUP_IMPORTS)
    )


def test_startup_import_scanner_flags_only_heavy_modules():
    source = (
        "from __future__ import annotations\n"
        "import os, concurrent.futures\n"
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from numpy import linalg\n"
        "from scipy.linalg.lapack import dpotrf\n"
        "from scipy import linalg as la, optimize\n"
        "from . import kernels\n"
        "from .linalg import chol_spd\n"
        "import scipy\n"
        "import scipy.optimize\n"
        "if True:\n"
        "    import pandas\n"
        "try:\n"
        "    import yaml\n"
        "except ImportError:\n"
        "    pass\n"
        "class K:\n"
        "    import numpyro\n"
        "def fit():\n"
        "    import scipy.optimize\n"
        "    import torch\n"
    )
    assert startup_imports(source) == [
        "numpyro", "pandas", "scipy", "scipy.optimize", "scipy.optimize", "yaml",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_level_imports_keep_startup_light(path):
    assert startup_imports(path.read_text()) == []


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Defaulted library parameters that only tests pass a value to, kept on
# purpose, as ``module.qualname(parameter)``.
TEST_ONLY_PARAMETERS = (
    # the `mogpal` console script reads sys.argv; tests pass the arguments
    "cli.main(argv)",
)


def _signatures(package):
    """``{called name: [(module.qualname, parameters, defaulted)]}`` of the
    top-level functions and the methods of ``package`` ({module: source});
    an ``__init__`` is called by its class's name.  ``self`` and ``cls``
    are not parameters a call passes."""
    sigs = {}
    for module, source in package.items():
        for node in ast.parse(source).body:
            funcs = [(node.name, node.name, node)] if isinstance(node, FUNCS) else []
            if isinstance(node, ast.ClassDef):
                funcs += [
                    (node.name if m.name == "__init__" else m.name, f"{node.name}.{m.name}", m)
                    for m in node.body if isinstance(m, FUNCS)
                ]
            for name, qual, fn in funcs:
                args = fn.args
                params = [a.arg for a in [*args.posonlyargs, *args.args]]
                if params[:1] in (["self"], ["cls"]):
                    params = params[1:]
                defaulted = set(params[len(params) - len(args.defaults):])
                defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d}
                sigs.setdefault(name, []).append((f"{module}.{qual}", params, defaulted))
    return sigs


def _passed(sources, sigs):
    """``(module.qualname, parameter)`` pairs of the defaulted parameters
    that a call in ``sources`` passes a value to.  A call matches every
    definition of its name, resolved through ``from ... import ... as``;
    positional arguments before any ``*args`` fill the parameters in
    order."""
    out = set()
    for source in sources:
        tree = ast.parse(source)
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = alias.get(func.id, func.id) if isinstance(func, ast.Name) else (
                getattr(func, "attr", None))
            starred = [k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            n_positional = starred[0] if starred else len(call.args)
            keywords = {k.arg for k in call.keywords}
            for qual, params, defaulted in sigs.get(name, ()):
                named = set(params[:n_positional]) | keywords
                out |= {(qual, p) for p in named & defaulted}
    return out


def parameters_set_only_by_tests(package, tests, callers=()):
    """Defaulted parameters of ``package`` ({module: source}) that a call in
    ``tests`` (sources) passes and no call in ``package`` or ``callers``
    does, as ``module.qualname(parameter)``."""
    sigs = _signatures(package)
    only = _passed(tests, sigs) - _passed([*package.values(), *callers], sigs)
    return sorted(f"{qual}({p})" for qual, p in only)


def test_parameter_use_scanner_flags_only_test_set_parameters():
    package = {
        "a": (
            "def f(x, y=1, z=2, *, k=None, req):\n"
            "    return x\n"
            "def g(x, w=0):\n"
            "    return f(x, 5, req=1)\n"
            "class E:\n"
            "    def __init__(self, msg, extra=None):\n"
            "        self.extra = extra\n"
            "    def m(self, v=0, u=1):\n"
            "        return v\n"
            "    @classmethod\n"
            "    def build(cls, items, h=None):\n"
            "        return cls(items)\n"
            "def main(argv=None):\n"
            "    return g(1)\n"
        ),
    }
    tests = [
        "from a import f, main as entry\n"
        "f(1, 2, 3, k=4, req=0)\n"
        "g(*[1, 2])\n"
        "E('boom', extra=3).m(7)\n"
        "E.build([], h=None)\n"
        "entry(['run'])\n"
    ]
    callers = ["import a\na.E('x').m(u=2)\n"]
    assert parameters_set_only_by_tests(package, tests, callers) == [
        "a.E.__init__(extra)", "a.E.build(h)", "a.E.m(v)", "a.f(k)", "a.f(z)", "a.main(argv)",
    ]


def test_library_parameters_are_set_outside_tests():
    package = {p.stem: p.read_text() for p in PACKAGE}
    tests = [p.read_text() for p in [*sorted((ROOT / "tests").glob("*.py")),
                                     *sorted((ROOT / "perfbench").glob("test_*.py"))]]
    callers = [p.read_text() for p in CALLERS]
    assert parameters_set_only_by_tests(package, tests, callers) == sorted(TEST_ONLY_PARAMETERS)

"""Source rules of the package, checked on its syntax trees.

* Every np.allclose / np.isclose call passes rtol=0: tolerances in the
  package are absolute, and numpy's default rtol would forgive errors
  relative to the compared values.
* The package imports only numpy, the standard library and itself
  (numpy is its one declared dependency).
* No private code is dead: every module-level _name and every method of
  a module-level _Class is read somewhere in the package, as a name or
  as an attribute.
* Only dense_oracle reads weyl_char_projectors: every other module reads
  measurement outcomes through dense_oracle.label_projectors, the one
  outcome convention.
* No module calls json.dump or json.dumps: the CLI's report writer is the
  one serialiser.
* Only dense_oracle reads np.linalg.eigh: dense_oracle.stabilizer_states
  is the one eigenstate builder, for the census and the toy side's
  maximal-knowledge states alike.
* Only dense_oracle calls np.multiply.outer or np.kron with an np.eye(...)
  first argument: dense_oracle.append_isometry, I (x) |state>, is the one
  append of wires to a register.
* dense_oracle's public *_step builders are exactly gate_step and
  measure_step: a dense step is a gate (a square operator or an isometry)
  or a Kraus stack.
* No float constant in (0, 1e-3) outside circuits.py's two assignments of
  ATOL_CONSTRUCT and ATOL_END2END: every tolerance reads one of the two
  names.
* Every public module-level name has a reader outside the tests: the
  package reads it as a name or an attribute, or scripts/ or perfbench/
  (the benchmark, not its own tests) name it, as an identifier or as a
  word of a string, since perfbench hooks functions by "layer.name".  The
  names only the tests read are TEST_ONLY_PUBLIC, a list that can only
  shrink.
* Only make_epistemic and SharpMeasurement.__post_init__ in toy_model read
  is_isotropic, on the subspaces that enter from outside; every toy step
  keeps V isotropic by construction, so a step that checked again would
  pay O(dim^2) for nothing.
* phase_algebra and toy_model compare no d, p or .d (self.d, V.d) with 2:
  every row is packed at every d, and the p = 2 specialisations of the
  row kernels live in _modmath alone.
* A subspace is stored once, as its packed rows: toy_model reads .gens
  and .matrix only inside EpistemicState.to_json, and no module writes
  pivots or bits through an object's __dict__ (or vars()).
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "spektoy").glob("*.py"))
OUTSIDE = sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "spektoy", "__future__"}


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def close_calls_without_rtol0(tree):
    """Line numbers of np.allclose / np.isclose calls lacking rtol=0."""
    bad = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("allclose", "isclose")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        ):
            continue
        rtol = next((kw.value for kw in node.keywords if kw.arg == "rtol"), None)
        if not (isinstance(rtol, ast.Constant) and rtol.value == 0):
            bad.append(node.lineno)
    return bad


def foreign_imports(tree):
    """(line, module) of each absolute import outside ALLOWED_ROOTS."""
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        bad += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED_ROOTS]
    return bad


def module_level(tree):
    """(node, names) of each module-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield node, [t.id for t in targets if isinstance(t, ast.Name)]


def private_definitions(tree):
    """(line, name) of each module-level _name (dunders aside) and of each
    method of a module-level _Class other than its dunders."""
    found = []
    for node, names in module_level(tree):
        found += [(node.lineno, name) for name in names if name.startswith("_")]
        if isinstance(node, ast.ClassDef) and node.name.startswith("_"):
            found += [(f.lineno, f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
    return [(line, name) for line, name in found if not name.startswith("__")]


def read_names(trees):
    """Every name the named trees read, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unread_private(trees):
    """(file, line, name) of each private definition of the named trees
    that no tree reads as a name or an attribute."""
    read = read_names(trees)
    return [(file, line, name) for file, tree in trees
            for line, name in private_definitions(tree) if name not in read]


def named_words(tree):
    """The names a tree imports and the words of its string constants."""
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return words


def unread_public(trees, outside):
    """(file, line, name) of each public module-level name (dunders aside)
    of the named trees that neither they nor the outside trees read as a
    name or an attribute, and that no outside tree imports or has as a
    word of a string."""
    known = read_names([*trees, *outside]).union(*(named_words(tree) for _, tree in outside))
    return [(file, node.lineno, name) for file, tree in trees
            for node, names in module_level(tree)
            for name in names if not name.startswith("_") and name not in known]


def reads_of(tree, name):
    """Line numbers where the tree reads name, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)]


def json_dump_calls(tree):
    """Line numbers of calls to json.dump or json.dumps, through the module
    under any name or through a name imported from it."""
    modules, funcs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and node.level == 0:
            funcs |= {alias.asname or alias.name for alias in node.names
                      if alias.name in ("dump", "dumps")}
    return sorted(
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
            or isinstance(node.func, ast.Name) and node.func.id in funcs))


def outer_product_calls(tree):
    """Line numbers of calls to np.multiply.outer."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "outer" and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "multiply" and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "np"]


def eye_kron_calls(tree):
    """Line numbers of calls to np.kron whose first argument is a call to
    np.eye."""
    def is_np(node, attr):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and isinstance(node.value, ast.Name) and node.value.id == "np")

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and is_np(node.func, "kron") and node.args
            and isinstance(node.args[0], ast.Call) and is_np(node.args[0].func, "eye")]


def step_builders(tree):
    """The public module-level defs whose names end in _step."""
    return sorted(node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name.endswith("_step") and not node.name.startswith("_"))


def field_forks(tree):
    """Line numbers of comparisons of d, p or an attribute .d with 2."""
    def is_field(node):
        return (isinstance(node, ast.Name) and node.id in ("d", "p")
                or isinstance(node, ast.Attribute) and node.attr == "d")

    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(isinstance(x, ast.Constant) and x.value == 2
                          for x in [node.left, *node.comparators])
                  and any(map(is_field, [node.left, *node.comparators])))


def def_lines(tree, dotted):
    """The lines of the def or class at the dotted path of module-level
    and class-body names."""
    node = tree
    for part in dotted.split("."):
        node = next(child for child in node.body if getattr(child, "name", None) == part)
    return range(node.lineno, node.end_lineno + 1)


def reads_outside(tree, names, dotted):
    """Line numbers where the tree reads any of names, bare or as an
    attribute, outside the def at the dotted path."""
    inside = def_lines(tree, dotted)
    return sorted(line for name in names for line in reads_of(tree, name) if line not in inside)


def dict_seedings(tree, names=("pivots", "bits")):
    """Line numbers of writes of names through x.__dict__ or vars(x): a
    subscript assignment, or update / setdefault / __setitem__ with one of
    them as a keyword, a first argument or a key of a dict literal."""
    def is_dict(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars")

    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and is_dict(node.value)):
            written = {getattr(node.slice, "value", None)}
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("update", "setdefault", "__setitem__")
                and is_dict(node.func.value)):
            written = {kw.arg for kw in node.keywords}
            for arg in node.args[:1]:
                keys = arg.keys if isinstance(arg, ast.Dict) else [arg]
                written |= {getattr(k, "value", None) for k in keys}
        else:
            continue
        if written & set(names):
            lines.append(node.lineno)
    return sorted(lines)


ISOTROPY_CHECKERS = {"make_epistemic", "SharpMeasurement.__post_init__"}

TOLERANCES = ("ATOL_CONSTRUCT", "ATOL_END2END")

# Public names only the tests read.  The list can only shrink: a new name
# here means code for the tests alone, and a listed name that gains a
# reader or goes must leave it.
TEST_ONLY_PUBLIC = {
    # producers of paper claims that the acceptance criteria read, kept for
    # a report that would print them
    "check_random_equivalence",  # criterion 1: sampled operational equivalence
    "verify_hermitian_equivalence",  # criterion 4: the Hermitian-part identity
    "transition_matrix",  # criterion 5: gate transition matrices
    "clifford_completion_demo",  # criterion 8: the CZ -> H -> S chain
    "minimality_probe",  # each host element's capability, pinned by the walker tests
    # references the tests compare the package against
    "run_circuit",  # the dense run of a text circuit, against the toy side
    "beta",  # the Weyl product phase, checked densely against _beta_table
    "allowed_gates",  # the closure-and-covariance gate filter
    "group_contains",  # membership in generated_gate_group's keys
    "phase_point",  # one phase-point operator of the cached stack
    "symplectic_commutant",  # the commutant, against the toy updates
    "maximally_mixed",  # the no-knowledge state
}


def tolerance_literals(tree, names=()):
    """Line numbers of float constants in (0, 1e-3), except the value of a
    module-level assignment to one of names alone."""
    named = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
             and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in names}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0 < node.value < 1e-3 and id(node) not in named)


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_close_calls_are_absolute(name, tree):
    assert close_calls_without_rtol0(tree) == []


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_imports_are_numpy_or_stdlib(name, tree):
    assert foreign_imports(tree) == []


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_one_outcome_convention(name, tree):
    if name != "dense_oracle.py":
        assert reads_of(tree, "weyl_char_projectors") == []


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_one_serialiser(name, tree):
    assert json_dump_calls(tree) == []


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_one_eigenstate_builder(name, tree):
    if name != "dense_oracle.py":
        assert reads_of(tree, "eigh") == []


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_one_register_append(name, tree):
    if name != "dense_oracle.py":
        assert outer_product_calls(tree) == []
        assert eye_kron_calls(tree) == []


def test_dense_steps_are_a_gate_or_a_kraus_stack():
    assert step_builders(dict(_trees())["dense_oracle.py"]) == ["gate_step", "measure_step"]


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_tolerances_are_named(name, tree):
    assert tolerance_literals(tree, TOLERANCES if name == "circuits.py" else ()) == []


@pytest.mark.parametrize("name", ["phase_algebra.py", "toy_model.py"])
def test_one_row_form(name):
    assert field_forks(dict(_trees())[name]) == []


def test_toy_steps_read_the_packed_rows():
    toy = dict(_trees())["toy_model.py"]
    assert reads_outside(toy, ("gens", "matrix"), "EpistemicState.to_json") == []


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_no_dict_seeding(name, tree):
    assert dict_seedings(tree) == []


def test_isotropy_is_checked_where_input_enters():
    trees = dict(_trees())
    assert [name for name, tree in trees.items() if reads_of(tree, "is_isotropic")] == [
        "toy_model.py"]
    toy = trees["toy_model.py"]
    owners = [{d for d in ISOTROPY_CHECKERS if line in def_lines(toy, d)}
              for line in reads_of(toy, "is_isotropic")]
    assert all(owners) and set().union(*owners) == ISOTROPY_CHECKERS


def test_rules_catch_violations():
    tree = ast.parse(
        "import numpy as np\nimport scipy.linalg\nfrom sympy import Matrix\nfrom . import wigner\n"
        "np.allclose(a, b)\nnp.isclose(a, b, rtol=1e-5)\nnp.allclose(a, b, rtol=0, atol=1e-9)\n"
    )
    assert close_calls_without_rtol0(tree) == [5, 6]
    assert foreign_imports(tree) == [(2, "scipy.linalg"), (3, "sympy")]
    tree = ast.parse(
        "from .dense_oracle import weyl_char_projectors\nweyl_char_projectors(a, 2)\n"
        "do.weyl_char_projectors(a, 3)\nf = map(do.weyl_char_projectors, ops)\n"
        "def weyl_char_projectors(op, d): pass\nx.weyl_char_projectors = None\n"
    )
    assert reads_of(tree, "weyl_char_projectors") == [2, 3, 4]
    tree = ast.parse(
        "import json\nimport json as js\nfrom json import dumps as dd, loads\n"
        "from json.encoder import encode_basestring_ascii\njson.dumps(x)\njs.dump(x, fh)\n"
        "dd(x)\njson.loads(s)\nloads(s)\nother.dumps(x)\nencode_basestring_ascii(s)\n"
    )
    assert json_dump_calls(tree) == [5, 6, 7]
    tree = ast.parse(
        "vals, vecs = np.linalg.eigh(rho)\nfrom numpy.linalg import eigh\neigh(rho)\n"
        "np.linalg.eig(rho)\nnp.linalg.eigvalsh(rho)\n"
    )
    assert reads_of(tree, "eigh") == [1, 3]
    tree = ast.parse(
        "np.multiply.outer(a, b)\nf = np.multiply.outer\nnp.outer(a, b)\nnp.add.outer(a, b)\n"
        "x.multiply.outer(a, b)\ny = [np.multiply.outer(a, s) for s in b]\n"
    )
    assert outer_product_calls(tree) == [1, 6]
    tree = ast.parse(
        "np.kron(np.eye(4), v[:, None])\nnp.kron(a, np.eye(2))\nnp.kron(np.ones(2), v)\n"
        "f = np.kron\nx.kron(np.eye(2), v)\ny = [np.kron(np.eye(d), s) for s in b]\n"
        "np.kron(eye(2), v)\n"
    )
    assert eye_kron_calls(tree) == [1, 6]
    tree = ast.parse(
        "def gate_step(U): pass\ndef measure_step(K): pass\ndef _correct_step(U): pass\n"
        "def readout_step(s): pass\nclass A:\n    def append_step(self): pass\nstep = 1\n"
    )
    assert step_builders(tree) == ["gate_step", "measure_step", "readout_step"]
    tree = ast.parse(
        "ATOL_CONSTRUCT = 1e-12\nATOL_END2END = 1e-9\nnp.allclose(a, b, rtol=0, atol=1e-9)\n"
        "ok = x < 1e-12\ny = 1 - 1e-9\nz = win > best + 1e-3\nw = v < ATOL_END2END\n"
        "u = 0.0 + 0.5 + 1e-3 * 2\ndef f():\n    ATOL_END2END = 1e-6\nATOL = ATOL_CONSTRUCT = 1e-8\n"
    )
    assert tolerance_literals(tree, TOLERANCES) == [3, 4, 5, 10, 11]
    assert tolerance_literals(tree) == [1, 2, 3, 4, 5, 10, 11]
    tree = ast.parse(
        "def make_epistemic(V):\n    pa.is_isotropic(V)\nclass M:\n    x = 1\n"
        "    def __post_init__(self):\n        check(self.V)\n"
        "def step(V):\n    f = pa.is_isotropic\n    return f(V)\n"
    )
    # a read through an alias counts, and falls outside both checkers
    assert sorted(reads_of(tree, "is_isotropic")) == [2, 8]
    assert (def_lines(tree, "make_epistemic"), def_lines(tree, "M.__post_init__")) == (
        range(1, 3), range(5, 7))
    tree = ast.parse(
        "if d == 2: pass\nx = 2 != p\ny = self.d == 2\nz = V.d < 2 or g.d >= 2\n"
        "w = n == 2\nv = d == 3\nu = self.n == 2\nt = 2 * d == 4\ns = d in (2, 3)\n"
    )
    assert field_forks(tree) == [1, 2, 3, 4, 4]
    tree = ast.parse(
        'V.__dict__["pivots"] = p\nV.__dict__.update(bits=b, x=1)\nV.__dict__.setdefault("bits", b)\n'
        'op.__dict__.setdefault("_plans", {})\nq = V.__dict__["pivots"]\nvars(V)["bits"] = b\n'
        'object.__setattr__(self, "pivots", p)\nV.__dict__.update({"pivots": p})\n'
        'V.__dict__["gens"] = g\nV.__dict__.__setitem__("bits", b)\n'
    )
    assert dict_seedings(tree) == [1, 2, 3, 6, 8, 10]
    tree = ast.parse(
        "class E:\n    def to_json(self):\n        return self.V.gens, self.V.matrix\n"
        "def step(V, gens):\n    return V.matrix @ x, V.gens, gens\nV.gens = None\n"
    )
    assert reads_outside(tree, ("gens", "matrix"), "E.to_json") == [5, 5, 5]


def test_private_code_is_read():
    assert unread_private(_trees()) == []


def test_dead_private_rule_catches_violations():
    # a written name is not a read one; dunders and public classes' private
    # methods are not checked
    used = ast.parse("from m import _Rows, _helper\nx = _Rows().of() + _helper(_USED)\n")
    tree = ast.parse(
        "_USED = 1\n_unused: int = 2\n_unused = 3\ndef _helper(v): return v\ndef _dead(): pass\n"
        "class _Rows:\n    def __init__(self): self.rref = None\n    def of(self): pass\n"
        "    def rref(self): pass\nclass Public:\n    def _kept(self): pass\n__all__ = []\n"
    )
    assert unread_private([("u.py", used), ("m.py", tree)]) == [
        ("m.py", 2, "_unused"), ("m.py", 3, "_unused"), ("m.py", 5, "_dead"), ("m.py", 9, "rref")
    ]


def test_public_code_is_read_outside_the_tests():
    outside = [(path.name, ast.parse(path.read_text(), str(path))) for path in OUTSIDE]
    assert {name for _, _, name in unread_public(_trees(), outside)} == TEST_ONLY_PUBLIC


def test_unread_public_rule_catches_violations():
    # a read as an attribute, a "layer.name" hook and a tuple of names all
    # count; a write, or a definition outside, does not; dunders are not
    # checked, public constants are
    package = ast.parse("import m\nprint(m.by_attr)\nm.written = None\n")
    tree = ast.parse(
        "LIMIT = 3\n__all__ = []\ndef unread(): pass\ndef by_attr(): pass\ndef hooked(): pass\n"
        "def listed(): pass\ndef written(): pass\n"
    )
    outside = ast.parse(
        'on("m.hooked", count)\nfor fn in ("listed", "other"):\n    on(f"m.{fn}", count)\n'
        "def written(): pass\n"
    )
    assert unread_public([("u.py", package), ("m.py", tree)], [("o.py", outside)]) == [
        ("m.py", 1, "LIMIT"), ("m.py", 3, "unread"), ("m.py", 7, "written")
    ]

"""Static checks on the package source, with the standard library only.

Each import in `src/msulab/` must be used, and `msulab.__all__` must list
exactly the public names that `__init__.py` imports, so deleting a function
cannot leave a stale import or export behind; every public module-level name
must be read somewhere in `src/` (an export by `__init__.py` is a read), so
no public name outlives its last caller. Every column-major matrix is
allocated in the dtype of the one rule in `sample.py`, `code_dtype`, and
joint cells are keyed in it too. Rows become counts only in `sample.py`: no
other module calls `bincount` or `unique`, and `sample.prefix_counts` has
one caller, `measures._stored_entropies`, which hands it a key that only
`measures.py` checks; `prefix_counts` alone decides a joint's layout. Only `generators.py` reads a
stream's raw words (`random_raw`), and no module reads or writes a bit
generator's `state`. A sweep point is plain integers: the
harness builds attribute blocks only for a set of nested points, in
`_plan`, which only `_plans` calls, and never looks a column up by name;
the run takes its plan. Only `dataset.py` calls the column writers, which
check nothing, and no module stacks samples: a batch of replicates is
generated into one matrix. README's section on JSON experiment configs names every
field of the config classes, which are the JSON keys.
"""

import ast
import dataclasses
import re
from pathlib import Path

import msulab
from msulab.harness import CountRule, ExperimentConfig, GroupSpec, SampleSizePolicy, Sweep, TrackedSubset

PACKAGE = Path(msulab.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds -> the line of that import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _all(tree: ast.Module) -> list[str]:
    """The strings of a module-level `__all__ = [...]`, or []."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= set(_all(tree))  # a re-export is a use
        unused += [f"{path.name}:{line}: {name}" for name, line in _imports(tree).items() if name not in read]
    assert not unused, unused


def test_all_is_exactly_the_public_imports():
    tree = _tree(PACKAGE / "__init__.py")
    public = {name for name in _imports(tree) if not name.startswith("_")}
    assert len(set(msulab.__all__)) == len(msulab.__all__), "a name listed twice"
    assert set(msulab.__all__) == public


def _public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each public name a module's top level defines -> its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {name: line for name, line in defined.items() if not name.startswith("_")}


def _reads(tree: ast.Module) -> set[str]:
    """Every name a module loads, imports or reads as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_public_name_is_read_in_src():
    trees = {path.name: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    unread = [
        f"{module}:{line}: {name}"
        for module, tree in trees.items()
        for name, line in _public_definitions(tree).items()
        if name not in read
    ]
    assert not unread, unread


def _called_name(call: ast.Call) -> str:
    """The bare name a call is made through: `f` of `f(...)` and of `np.f(...)`."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


# The calls that allocate an array; an `order="F"` elsewhere (a reshape of
# existing codes, say) allocates no code matrix.
_ALLOCATING = {"empty", "zeros", "full", "array", "asarray", "asfortranarray"}


def _column_major_allocations(tree: ast.Module, module: str) -> dict[str, bool]:
    """Each column-major allocation in `tree` -> whether its dtype is `code_dtype`'s."""
    allocations = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _called_name(node) in _ALLOCATING):
            continue
        where = f"{module}:{node.lineno}"
        keywords = {k.arg: k.value for k in node.keywords}
        order = keywords.get("order")
        column_major = isinstance(order, ast.Constant) and order.value == "F"
        if column_major or _called_name(node) == "asfortranarray":
            dtype = keywords.get("dtype")
            allocations[where] = isinstance(dtype, ast.Call) and _called_name(dtype) == "code_dtype"
    return allocations


def test_code_matrices_take_the_one_dtype_rule():
    # a code matrix in any other dtype (a hard-coded int64, say) would skip
    # the narrow codes on its path
    rules, allocations = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        rules += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "code_dtype"
        ]
        allocations.update(_column_major_allocations(tree, path.name))
    assert len(rules) == 1 and rules[0].startswith("sample.py:"), rules
    (code_matrix,) = [
        node for node in _tree(PACKAGE / "sample.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "code_matrix"
    ]
    assert allocations.get(f"sample.py:{code_matrix.body[-1].lineno}"), "code_matrix not found"
    assert all(allocations.values()), [where for where, ok in allocations.items() if not ok]


def test_the_dtype_rule_check_tells_allocations_from_reshapes():
    source = """
a = np.empty((m, p), dtype=np.int64, order="F")
b = np.asfortranarray(codes)
c = np.zeros((m, p), dtype=code_dtype(cards), order="F")
d = codes.reshape(p, -1, order="F")
e = np.ravel(codes, order="F")
"""
    allocations = _column_major_allocations(ast.parse(source), "x.py")
    assert allocations == {"x.py:2": False, "x.py:3": False, "x.py:4": True}


def _cell_ids() -> ast.FunctionDef:
    """The definition of `sample._cell_ids`, which keys the rows' cells."""
    (cell_ids,) = [
        node for node in ast.walk(_tree(PACKAGE / "sample.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "_cell_ids"
    ]
    return cell_ids


def test_joint_keys_take_the_one_dtype_rule():
    # a hard-coded int64 key would move 8 bytes a code where 1 or 2 hold it
    cell_ids = _cell_ids()
    dtypes = [
        k.value for n in ast.walk(cell_ids) if isinstance(n, ast.Call) for k in n.keywords
        if k.arg == "dtype"
    ]
    assert dtypes, "no keyed multiply found"
    assert all(isinstance(d, ast.Call) and _called_name(d) == "code_dtype" for d in dtypes)
    named = {n.attr for n in ast.walk(cell_ids) if isinstance(n, ast.Attribute)}
    assert not named & {"int64", "uint64", "intp", "int_"}, named


def test_only_sample_counts_rows():
    # one counting path: a histogram built anywhere else would be a second
    # format of cells to keep in step with `sample.prefix_counts`; and only
    # `_cell_ids` renumbers cells (a unique or a sort of their keys), so no
    # count is summed over decoded ones
    calls = [
        f"{path.name}:{node.lineno}: {_called_name(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and _called_name(node) in {"bincount", "unique"}
    ]
    assert calls, "no counting call found"
    assert all(where.startswith("sample.py:") for where in calls), calls
    sorts = {"unique", "sort", "argsort"}
    renumbering = sorted(
        f"{node.lineno}: {_called_name(node)}"
        for node in ast.walk(_cell_ids())
        if isinstance(node, ast.Call) and _called_name(node) in sorts
    )
    assert sorts <= {where.split()[-1] for where in renumbering}, renumbering
    in_sample = sorted(
        f"{node.lineno}: {_called_name(node)}"
        for node in ast.walk(_tree(PACKAGE / "sample.py"))
        if isinstance(node, ast.Call) and _called_name(node) in sorts
    )
    assert in_sample == renumbering, in_sample


def _callers(name: str) -> list[str]:
    """`module:function` of each call of `name` in `src/msulab/`, by its
    innermost enclosing function (`<module>` at the top level)."""
    found = []

    def visit(node: ast.AST, module: str, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and _called_name(node) == name:
            found.append(f"{module}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(_tree(path), path.name, "<module>")
    return found


def test_counting_has_one_caller():
    # one call shape: the entropy table asks for a subset's counts where it
    # misses, and keeps the member entropies it lacks from what they give
    assert _callers("prefix_counts") == ["measures.py:_stored_entropies"]


def test_only_the_measures_check_subsets_and_prefixes():
    # `prefix_counts` takes the entropy table's key as checked, so a subset
    # and its prefixes are checked once, where a measure is asked for them
    for name in ("normalize_columns", "normalize_prefixes"):
        callers = _callers(name)
        assert callers and all(c.startswith("measures.py:") for c in callers), (name, callers)


def test_a_joints_layout_is_decided_once():
    # dense or renumbered is chosen once a count and passed down, so the
    # rule has one place to become prefix-aware
    assert _callers("_dense") == ["sample.py:prefix_counts"]


def test_only_generators_reads_raw_words():
    # a column read from raw words rests on how NumPy draws from them, which
    # only the generators' equivalence tests check; and each column's stream
    # is drawn from in the one module that keeps the per-column stream contract
    for draw in ("random_raw", ".random(", ".integers("):
        readers = [
            path.name for path in sorted(PACKAGE.glob("*.py"))
            if draw in path.read_text(encoding="utf-8")
        ]
        assert readers == ["generators.py"], (draw, readers)


def test_no_module_touches_a_bit_generators_state():
    # a column's codes are a function of its fresh stream alone: no module
    # reads where a generator stands, or moves it by hand
    touches = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "state"
        or isinstance(node, ast.Constant) and node.value in ("state", "has_uint32")
    ]
    assert touches == []


def test_the_harness_builds_blocks_only_for_a_layout():
    # the config classes check each field once, so a sweep point needs no
    # block to check its groups; the dataset's blocks are built once per
    # set of nested points, when it is planned
    calls = [
        caller for name in ("block", "AttributeBlock") for caller in _callers(name)
        if caller.startswith("harness.py:")
    ]
    assert calls == ["harness.py:_plan"]
    # a set is planned by `_plans` alone, and the run takes its plan
    assert set(_callers("_plan")) == {"harness.py:_plans"}
    assert "harness.py:_run_layout" not in _callers("_plans")


def test_only_the_dataset_calls_the_writers():
    # the writers check nothing, so only `dataset.py`, which checks every
    # parameter once, calls them; a batch of replicates is generated into
    # one matrix, so no module stacks samples; and the harness computes its
    # measures' columns once a layout, without looking names up
    for name in ("fill_uniform", "fill_kononenko", "fill_xor_pair"):
        callers = _callers(name)
        assert callers and all(c.startswith("dataset.py:") for c in callers), (name, callers)
    defined = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "stacked"
    ]
    assert defined == [] and _callers("stacked") == []
    assert not [c for c in _callers("column_index") if c.startswith("harness.py:")]


def test_readme_names_every_config_field():
    # `config_from_json` reads a class's fields as its JSON keys, so a new
    # field is a new key, to be documented with the others
    text = README.read_text(encoding="utf-8")
    section = text.split("### JSON experiment configs\n", 1)[1].split("\n## ", 1)[0]
    missing = [
        f"{cls.__name__}.{field.name}"
        for cls in (ExperimentConfig, Sweep, GroupSpec, CountRule, SampleSizePolicy, TrackedSubset)
        for field in dataclasses.fields(cls)
        if not re.search(rf'[`".]{field.name}[`"]', section)  # `key`, "key" or `parent.key`
    ]
    assert not missing, f"not named in README's JSON experiment configs: {missing}"

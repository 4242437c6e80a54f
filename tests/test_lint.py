"""Static checks on the library source, with the standard library only.

* No module imports a name it never uses (names listed in `__all__` count
  as used, `from __future__` imports are exempt).
* Every module-level function, public or private, is referenced somewhere
  in the library, so code that lost its last library caller is deleted
  with it or moved to the tests.  An attribute counts as a reference only
  on an imported module, as in `linalg.kernel`: `obj.kernel` may name a
  method or a property that merely shares the name.  A name listed in a
  module's `__all__` counts, through that list or through the import that
  re-exports it, only if it is in `EXPORTED_UNCALLED`: API the README
  documents, and the names `bench/spans.py` traces.  The exported names
  no library code calls are exactly those of the set, so that a new one
  shows up in review as an edit to it.  A method (any function defined
  in a class body, apart from a dunder) needs a reference outside its own
  definition: an attribute of any object or a name, since the class of
  `obj` in `obj.method` is not known statically; a method only the tests
  call is deleted or moved to the tests like a function.
* No function body imports from `corings`: every library import sits at
  module level, where the import graph can be read at a glance.
* Every parameter with a default, of a function or a method, is passed,
  positionally or by keyword, by at least one call in the library: a
  default no library call overrides is a constant.  Calls match by name, so
  a call counts for every definition of that name; a constructor is called
  by its class name.  The console-script entry point `cli.main(argv)` is
  the only exemption.
* The parameters with a default are exactly those of `OPTIONS`, so that a
  new option shows up in review as an edit to that set.
* No expression multiplies by a Kronecker product, `A @ tensor_k(X, Y)`:
  `linalg.kron_after(A, X, Y)` gives the same matrix from the nonzero
  entries without forming X (x) Y.
* Every parameter of a function definition is read in its body: a
  parameter no body reads is a knob that does nothing.  The instance
  parameter of a method is bound by the call, not passed, and the suite
  functions that `suites.run_suite` dispatches share the signature
  `(ms, seed)` whether or not they draw random objects; both are exempt.
* Field arithmetic by hand (`F.add(x, y)`, `F.mul(...)` and the other
  `Field` operations, or a `[F.zero] * n` list to accumulate into) stays in
  `linalg.py` and `scalars.py`; the other modules combine vectors and
  matrices through the `linalg` operations.
* No `.multiply(...)` call takes a basis vector (`basis_vec(...)`,
  `unit_vec(...)` or `_unit(...)`) as an argument: the products of basis
  elements are the columns of `Algebra.mul_mat`, and the algebra laws are
  identities of matrices over it.
* The invertibility test `m.rows == m.cols and rank(m) == m.rows`, or its
  negation, is written only in `linalg.py`; the other modules call
  `linalg.is_invertible`.
* Only `structfile.py` calls the builders of what `structfile.Derived`
  caches (`DERIVED_BUILDERS`): a call anywhere else builds again what the
  suites of one run share.  `dual_ring` is not among them: the dual of a
  coring morphism builds the dual ring of its domain, another coring.
* Only `linalg.py` reads the `data` of a `Mat`, its dense row-major view:
  a matrix is read elsewhere through `row`, `col`, `reshape`, `apply` and
  the other `linalg` operations, which work on its sparse rows, so no
  dense copy is made unless one is needed, and the layout of a matrix is
  known in one module.
* Outside the class `Mat`, no code makes a matrix without `Mat._of_rows`:
  no `__new__` call on `Mat` (as in `object.__new__(Mat)`) and no write of
  `field`, `rows`, `cols`, the row storage `_entries` or `data` through a
  `__dict__`.  The tests that wrap `_of_rows` see every matrix the
  library builds.
* No handler catches everything (a bare `except:`, or `Exception` or
  `BaseException`, alone or in a tuple): a handler names the errors it
  expects, so a bug in the library surfaces as a traceback instead of a
  misleading message.
* The uncached builders of `Algebra.memo` (`UNCACHED`: the left dual and
  the dual-basis solve) are called only from their memo wrappers in
  `algebra.py`: a call anywhere else builds again what the memo holds for
  every module equal in content.
* Outside `linalg.py`, no comprehension builds an action layout by hand:
  no element `m.col(k)` whose object reads the variable of one `for`
  clause and whose argument reads that of another, as in `[m.col(k) for k
  in range(n) for m in mats]`.  The flattened right action of a family is
  `linalg.interleave`, and the left one `hstack`.
* Outside an `__init__`, no code assigns to a `delta`, `rho` or `counit`
  attribute (`STRUCTURE_MAPS`) or to an item of one, or deletes one, or
  changes one through a dict method: a coring or comodule is built whole,
  its maps computed before its constructor is called, so
  nothing derived from a map (a lift, say) can outlive it.
* No comparison (`==` or `!=`) sets a product `f @ X` against a product
  `Y @ f` with the same f, on either side: a map is checked against
  actions through `algebra.intertwining_failures`, the one statement of
  linearity over a ring map, which compares whole stacked products and
  writes no such comparison itself.
* Outside `structfile.py`, no string literal, plain or a piece of an
  f-string, starts with `begin ` and a block kind of the structure file
  (`BLOCK_KINDS`, the kinds `structfile._load_block` reads): a structure
  is defined by a data file, such as the fixtures in `data/`, and no
  library code writes one.
* Only `scalars.py` and `linalg.py` name `Fraction` (`FRACTION_HOMES`):
  rationals are made by the field and by the matrix layer, whose products
  work on integers and write at most one `Fraction` per output entry, and
  by no other module.
* Every function defined in the body of another function is named by the
  enclosing function outside its own definition: a nested helper nothing
  calls is dead code, whatever state it closes over.
* A cache of `Mat` (a cached property of the class) is written through a
  `__dict__` by one function only, its recorder in `CACHE_RECORDERS`:
  `_from_numerators` records the denominator of an integral product over
  QQ and `Mat.identity` the identity flag.  Every other matrix computes
  its caches on first read, so which constructor knows a cache is decided
  in one place.
* Outside `linalg.py`, no `Mat._from_cols` call builds its columns out of
  another matrix or a block of a vector (`BLOCK_READS`: a `.col`, `.row`,
  `.apply` or `.project` call, or `inject`, anywhere in its column
  expression): a map made of whole blocks of other maps is placed with
  `linalg.block_matrix`, `block_diagonal` or `hstack` and read with
  `hsplit` or `deinterleave`, the one owner of block layouts.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "corings"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement -> line number."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _annotation_names(tree: ast.Module) -> set:
    """Names inside string annotations such as -> "Mat"."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            annotations += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree: ast.Module) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def function_local_imports(path: Path) -> list:
    """(line, module) of each import from `corings` inside a function body;
    a relative import, from within the package, counts."""
    out = set()
    for fn in ast.walk(_tree(path)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            out |= {(node.lineno, m) for m in modules
                    if m.startswith(".") or m.split(".")[0] == "corings"}
    return sorted(out)


def kronecker_products_applied(path: Path) -> list:
    """(line, column) of each matrix product whose right operand is a call
    of `tensor_k`, by name or as an attribute."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            func = node.right.func if isinstance(node.right, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "tensor_k":
                out.append((node.lineno, node.col_offset))
    return sorted(out)


def unused_imports(path: Path) -> list:
    tree = _tree(path)
    used = _used_names(tree) | _annotation_names(tree) | _exported(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items() if name not in used)


def _module_names(tree: ast.Module, stems: set) -> set:
    """Names an import binds to a module: every `import` statement, and a
    `from` import of one of the modules named by stems."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.asname or alias.name for alias in node.names if alias.name in stems}
    return out


def _root(node: ast.expr):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


# exported names that no library code calls, and the file that names each:
# API the README documents, and the layers `bench/spans.py` traces
EXPORTED_UNCALLED = {
    "GF": "README.md",
    "fixture": "README.md",
    "rref": "README.md",
    "quotient_by": "bench/spans.py",  # goes after ROADMAP item 1
    "sandwich_operator": "bench/spans.py",  # goes after ROADMAP item 1
    "tensor_slice_operator": "bench/spans.py",  # goes after ROADMAP item 1
    "triple_balanced_quotient": "bench/spans.py",  # goes after ROADMAP item 1
}


def unreferenced_functions(paths, exported_uncalled=EXPORTED_UNCALLED) -> list:
    """(module, function) of each module-level function with no reference
    in paths; a name in a module's `__all__` counts for that module only
    when it is in exported_uncalled."""
    trees = {path: _tree(path) for path in paths}
    stems = {path.stem for path in paths}
    referenced = set()
    for tree in trees.values():
        modules = _module_names(tree, stems)
        exported = _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = _root(node.value)
                if isinstance(root, ast.Name) and root.id in modules:
                    referenced.add(node.attr)
            elif isinstance(node, ast.alias) and node.name not in exported:
                referenced.add(node.name)
        referenced |= exported & set(exported_uncalled)
    return sorted((path.name, node.name) for path, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("__") and node.name not in referenced)


def _method_references(tree: ast.Module) -> dict:
    """name -> list of the sets of ids of the methods (functions defined in
    a class body) that enclose each attribute or name reference to it."""
    methods = _methods(tree)
    out = {}

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                out.setdefault(child.attr, []).append(enclosing)
            elif isinstance(child, ast.Name):
                out.setdefault(child.id, []).append(enclosing)
            visit(child, enclosing | {id(child)} if id(child) in methods else enclosing)

    visit(tree, frozenset())
    return out


def unreferenced_methods(paths) -> list:
    """(module, class.method) of each method, dunders apart, with no
    attribute or name reference in paths outside its own definition."""
    trees = {path: _tree(path) for path in paths}
    references = {}
    for tree in trees.values():
        for name, where in _method_references(tree).items():
            references.setdefault(name, []).extend(where)
    out = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__") and fn.name.endswith("__"))
                        and all(id(fn) in enclosing for enclosing in references.get(fn.name, []))):
                    out.append((path.name, f"{cls.name}.{fn.name}"))
    return sorted(out)


def exported_uncalled(paths) -> set:
    """The names in an `__all__` of paths that only that list keeps
    alive."""
    exported = set().union(*(_exported(_tree(path)) for path in paths))
    return {name for _, name in unreferenced_functions(paths, set())} & exported


# (module, function): parameters with defaults that only callers outside the
# library set
CALLED_FROM_OUTSIDE = {("cli.py", "main")}


def _optional_parameters(fn, is_method: bool) -> list:
    """(name, position) of each parameter of fn with a default; position is
    the index among the positional arguments a caller passes, None for a
    keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list):
        positional = positional[1:]
    out = [(a.arg, i) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


# (module, function, parameter) of every parameter with a default in the
# library
OPTIONS = {
    ("cli.py", "main", "argv"),
    ("coring.py", "validate_group_coring", "check_components"),
    ("report.py", "add", "witness"),
    ("report.py", "extend", "prefix"),
    ("structfile.py", "__init__", "comodule_algebra"),
    ("structfile.py", "__init__", "witness"),
    ("suites.py", "run_suite", "seed"),
}


def _methods(tree: ast.Module) -> dict:
    """id of each function defined directly in a class body -> class name."""
    return {id(f): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}


def optional_parameters(paths) -> set:
    """(module, function, parameter) of each parameter with a default."""
    out = set()
    for path in paths:
        tree = _tree(path)
        methods = _methods(tree)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out |= {(path.name, fn.name, param)
                        for param, _ in _optional_parameters(fn, id(fn) in methods)}
    return out


def unpassed_optional_parameters(paths) -> list:
    trees = {path: _tree(path) for path in paths}
    calls = {}  # called name -> list of (positional count, keyword names)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args), keywords))
    out = []
    for path, tree in trees.items():
        methods = _methods(tree)
        for fn in ast.walk(tree):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or (path.name, fn.name) in CALLED_FROM_OUTSIDE):
                continue
            called = methods[id(fn)] if fn.name == "__init__" else fn.name
            for param, pos in _optional_parameters(fn, id(fn) in methods):
                if not any((pos is not None and pos < n) or param in kws or None in kws
                           for n, kws in calls.get(called, [])):
                    out.append((path.name, fn.name, param))
    return sorted(out)


# (module, name prefix, parameters): signatures fixed by a dispatcher
DISPATCHED = (("suites.py", "suite_", {"ms", "seed"}),)


def unread_parameters(paths) -> list:
    """(module, function, parameter) of each parameter of a function
    definition that its body never reads, apart from the instance parameter
    of a method and the `DISPATCHED` signatures."""
    out = []
    for path in paths:
        tree = _tree(path)
        methods = _methods(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if id(fn) in methods and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                             for d in fn.decorator_list):
                params = params[1:]
            exempt = set().union(*(names for module, prefix, names in DISPATCHED
                                   if path.name == module and fn.name.startswith(prefix)))
            read = {n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            out += [(path.name, fn.name, p) for p in params if p not in read | exempt]
    return sorted(out)


FIELD_OPERATIONS = {"add", "sub", "mul", "neg", "inv", "div"}


def _names_a_field(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("F", "field")
            or isinstance(node, ast.Attribute) and node.attr == "field")


def hand_field_arithmetic(path: Path) -> list:
    """Line of each call of a `Field` operation on F, field or x.field, and
    of each list of a field's zero repeated by `*`."""
    out = set()
    for node in ast.walk(_tree(path)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in FIELD_OPERATIONS and _names_a_field(node.func.value)):
            out.add(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if any(isinstance(side, ast.List) and any(
                    isinstance(e, ast.Attribute) and e.attr == "zero" for e in side.elts)
                   for side in (node.left, node.right)):
                out.add(node.lineno)
    return sorted(out)


ARITHMETIC_HOMES = ("linalg.py", "scalars.py")

BASIS_VECTORS = {"basis_vec", "unit_vec", "_unit"}


def _called_name(node):
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None))


def basis_vector_products(path: Path) -> list:
    """Line of each `.multiply(...)` call with a basis vector argument."""
    return sorted({node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "multiply"
                   and any(_called_name(arg) in BASIS_VECTORS for arg in node.args)})


def _names_attr(node, attr: str) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node))


def hand_invertibility_tests(path: Path) -> list:
    """Line of each `and`/`or` that compares a `rows` with a `cols` and
    also compares a `rank(...)`."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.BoolOp):
            compares = [v for v in node.values if isinstance(v, ast.Compare)]
            if (any(_names_attr(c, "rows") and _names_attr(c, "cols") for c in compares)
                    and any(_called_name(n) == "rank" for c in compares for n in ast.walk(c))):
                out.add(node.lineno)
    return sorted(out)


BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def broad_handlers(path: Path) -> list:
    """Line of each `except` clause that is bare or names `Exception` or
    `BaseException`, alone or in a tuple."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or getattr(c, "id", getattr(c, "attr", None)) in BROAD_EXCEPTIONS
                   for c in caught):
                out.append(node.lineno)
    return sorted(out)


DERIVED_BUILDERS = {"induction_equivalence", "cofree_dual_group_ring_iso", "coinvariant_ring",
                    "connecting_spaces", "coefficient_spaces", "morita_context",
                    "graded_morita_context", "canonical_graded_module",
                    "predicates_of_extension", "onto_coinvariants", "random_comodule"}


def derived_rebuilds(path: Path) -> list:
    """(line, name) of each call of a `DERIVED_BUILDERS` function, by name or
    as an attribute."""
    return sorted((node.lineno, _called_name(node)) for node in ast.walk(_tree(path))
                  if isinstance(node, ast.Call) and _called_name(node) in DERIVED_BUILDERS)


MAT_FIELDS = {"field", "rows", "cols", "_entries", "data"}


def _outside_mat(node):
    """The nodes under node, skipping the body of every class named `Mat`."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not (isinstance(child, ast.ClassDef) and child.name == "Mat"):
            yield from _outside_mat(child)


def _dict_of(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__dict__"


def _is_mat_field(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in MAT_FIELDS


def mat_bypasses(path: Path) -> list:
    """Line of each way round `Mat._of_rows` outside the class `Mat`: a
    `__new__` call with `Mat` as an argument, and a write of a field of
    `Mat` or of its row storage through a `__dict__` (an item assignment,
    or a call of `update`, `setdefault` or `__setitem__` on it that names
    the field)."""
    lines = set()
    for node in _outside_mat(_tree(path)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            if _dict_of(node.value) and _is_mat_field(node.slice):
                lines.add(node.lineno)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "__new__" and any(
                getattr(arg, "id", getattr(arg, "attr", None)) == "Mat" for arg in node.args):
            lines.add(node.lineno)
        if _dict_of(node.func.value) and (
                any(kw.arg in MAT_FIELDS for kw in node.keywords)
                or any(_is_mat_field(arg) for arg in node.args[:1])
                or any(isinstance(arg, ast.Dict) and any(map(_is_mat_field, arg.keys))
                       for arg in node.args)):
            lines.add(node.lineno)
    return sorted(lines)


FRACTION_HOMES = ("linalg.py", "scalars.py")


def fraction_names(path: Path) -> list:
    """Line of each name, attribute or import that names `Fraction`."""
    return sorted({node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Name) and node.id == "Fraction"
                   or isinstance(node, ast.Attribute) and node.attr == "Fraction"
                   or isinstance(node, (ast.Import, ast.ImportFrom))
                   and any(alias.name.split(".")[-1] == "Fraction" for alias in node.names)})


def storage_reads(path: Path) -> list:
    """Line of each read of a `data` attribute, as in `m.data` or
    `m.data[k]`: the dense view of a `Mat`."""
    return sorted({node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Attribute) and node.attr == "data"
                   and isinstance(node.ctx, ast.Load)})


# uncached builder -> the memo wrapper in algebra.py that alone calls it
UNCACHED = {"_left_dual": "left_dual", "_dual_basis": "find_dual_basis"}


def memo_bypasses(path: Path) -> list:
    """(line, name) of each call of an `UNCACHED` builder, by name or as an
    attribute, that is not inside its wrapper function in `algebra.py` (a
    lambda counts as part of the function it is written in)."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            name = _called_name(child)
            if name in UNCACHED and (path.name, fn) != ("algebra.py", UNCACHED[name]):
                out.append((child.lineno, name))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else fn)

    visit(_tree(path), None)
    return sorted(out)


def _names_in(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def hand_action_layouts(path: Path) -> list:
    """Line of each comprehension with two or more `for` clauses whose
    element is a `.col(...)` call with the variable of one clause in its
    argument and the variable of another in its object."""
    out = set()
    for node in ast.walk(_tree(path)):
        if (isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)) and len(node.generators) > 1
                and isinstance(node.elt, ast.Call) and isinstance(node.elt.func, ast.Attribute)
                and node.elt.func.attr == "col"):
            targets = [_names_in(gen.target) for gen in node.generators]
            arg = set().union(*map(_names_in, node.elt.args))
            obj = _names_in(node.elt.func.value)
            if any(arg & t and obj & u for t in targets for u in targets if t is not u):
                out.add(node.lineno)
    return sorted(out)


BLOCK_READS = {"col", "row", "apply", "project", "inject"}


def column_block_reads(path: Path) -> list:
    """Line of each `_from_cols` call whose column argument calls a method
    or function of `BLOCK_READS`."""
    out = []
    for node in ast.walk(_tree(path)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_from_cols" and len(node.args) > 1
                and any(isinstance(call, ast.Call) and _called_name(call) in BLOCK_READS
                        for call in ast.walk(node.args[1]))):
            out.append(node.lineno)
    return sorted(out)


STRUCTURE_MAPS = {"delta", "rho", "counit"}
DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _is_structure_map(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in STRUCTURE_MAPS


def structure_map_writes(path: Path) -> list:
    """Line of each write, outside a function named `__init__`, of a
    `STRUCTURE_MAPS` attribute or of an item of one: an assignment (plain,
    augmented, annotated or unpacking), a `del`, or a `DICT_WRITES` call
    on it."""
    lines = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if fn != "__init__":
                writes = isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del))
                if writes and (_is_structure_map(child) or (
                        isinstance(child, ast.Subscript) and _is_structure_map(child.value))):
                    lines.add(child.lineno)
                if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr in DICT_WRITES and _is_structure_map(child.func.value)):
                    lines.add(child.lineno)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else fn)

    visit(_tree(path), None)
    return sorted(lines)


def _is_product(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)


def hand_intertwining_tests(path: Path) -> list:
    """Line of each `==`/`!=` between two products, `f @ X` and `Y @ f` in
    either order, whose outer factors are the same expression."""
    lines = set()
    for node in ast.walk(_tree(path)):
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq))):
            lhs, rhs = node.left, node.comparators[0]
            if _is_product(lhs) and _is_product(rhs) and (
                    ast.dump(lhs.left) == ast.dump(rhs.right)
                    or ast.dump(lhs.right) == ast.dump(rhs.left)):
                lines.add(node.lineno)
    return sorted(lines)


# every block kind `structfile._load_block` compares `kind` with
BLOCK_KINDS = frozenset(
    node.comparators[0].value for node in ast.walk(_tree(SRC / "structfile.py"))
    if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "kind"
    and isinstance(node.comparators[0], ast.Constant))
BLOCK_OPENING = re.compile(r"begin (%s)(\s|$)" % "|".join(map(re.escape, sorted(BLOCK_KINDS))))


def structure_file_literals(path: Path) -> list:
    """Line of each string constant, plain or a piece of an f-string, that
    starts with the opening `begin <kind>` of a structure-file block."""
    return sorted({node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and BLOCK_OPENING.match(node.value)})


def _walk_skipping(node, skip):
    """The nodes under node, skipping the subtree of skip."""
    yield node
    for child in ast.iter_child_nodes(node):
        if child is not skip:
            yield from _walk_skipping(child, skip)


def _nested_defs(fn):
    """The functions defined in the body of fn, not inside another function
    or a class there."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif not isinstance(node, ast.ClassDef):
            todo += ast.iter_child_nodes(node)


def unreferenced_nested_functions(path: Path) -> list:
    """(line, name) of each function defined in the body of another
    function that the enclosing function names nowhere outside the nested
    definition itself."""
    out = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for nested in _nested_defs(fn):
                if not any(isinstance(n, ast.Name) and n.id == nested.name
                           for n in _walk_skipping(fn, nested)):
                    out.append((nested.lineno, nested.name))
    return sorted(out)


# each cache of `Mat` that is written through a `__dict__` -> the one
# function of linalg.py that writes it
CACHE_RECORDERS = {"_denominator": "_from_numerators", "_is_identity": "identity"}


def mat_caches(path: Path) -> set:
    """The names of the cached properties of the classes `Mat` of path."""
    return {node.name for cls in ast.walk(_tree(path)) if isinstance(cls, ast.ClassDef) and cls.name == "Mat"
            for node in cls.body if isinstance(node, ast.FunctionDef)
            and any(getattr(d, "id", None) == "cached_property" for d in node.decorator_list)}


def cache_writes(path: Path, caches) -> list:
    """(line, function, cache) of each write of one of caches through a
    `__dict__`: an item assignment, or a `DICT_WRITES` call on it that names
    the cache as a keyword, as its first argument or as a key of a dict
    argument.  function is the innermost function around the write, None at
    module level."""
    out = []

    def names_cache(node):
        return isinstance(node, ast.Constant) and node.value in caches

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            keys = []
            if (isinstance(child, ast.Subscript) and isinstance(child.ctx, ast.Store)
                    and _dict_of(child.value)):
                keys = [child.slice]
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in DICT_WRITES and _dict_of(child.func.value)):
                keys = [ast.Constant(kw.arg) for kw in child.keywords] + child.args[:1] + [
                    key for arg in child.args if isinstance(arg, ast.Dict) for key in arg.keys]
            out.extend((child.lineno, fn, key.value) for key in keys if names_cache(key))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else fn)

    visit(_tree(path), None)
    return sorted(out, key=lambda w: w[0])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_nested_function_is_referenced(path):
    assert unreferenced_nested_functions(path) == []


def test_each_matrix_cache_has_one_recorder():
    caches = mat_caches(SRC / "linalg.py")
    assert set(CACHE_RECORDERS) <= caches
    writes = [(path.name, fn, cache) for path in MODULES for _, fn, cache in cache_writes(path, caches)]
    assert sorted(writes, key=str) == sorted((("linalg.py", fn, cache) for cache, fn in CACHE_RECORDERS.items()),
                                             key=str)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_from_the_library(path):
    assert function_local_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_product_with_a_kronecker_product(path):
    assert kronecker_products_applied(path) == []


def test_every_parameter_is_read():
    assert unread_parameters(MODULES) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ARITHMETIC_HOMES],
                         ids=lambda p: p.name)
def test_no_hand_rolled_field_arithmetic(path):
    assert hand_field_arithmetic(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_product_of_basis_vectors(path):
    assert basis_vector_products(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_hand_written_invertibility_test(path):
    assert hand_invertibility_tests(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_reads_matrix_storage(path):
    assert storage_reads(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_matrix_passes_post_init(path):
    assert mat_bypasses(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_handler_catches_everything(path):
    assert broad_handlers(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "structfile.py"],
                         ids=lambda p: p.name)
def test_only_derived_builds_the_shared_objects(path):
    assert derived_rebuilds(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_memo_wrappers_call_the_uncached_builders(path):
    assert memo_bypasses(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_hand_built_action_layout(path):
    assert hand_action_layouts(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_no_matrix_built_from_the_blocks_of_another(path):
    assert column_block_reads(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_structures_are_built_whole(path):
    assert structure_map_writes(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_written_intertwining_test(path):
    assert hand_intertwining_tests(path) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "structfile.py"],
                         ids=lambda p: p.name)
def test_no_structure_file_text_in_code(path):
    assert structure_file_literals(path) == []


def test_every_function_is_referenced():
    assert unreferenced_functions(MODULES) == []


def test_every_method_is_referenced():
    assert unreferenced_methods(MODULES) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in FRACTION_HOMES],
                         ids=lambda p: p.name)
def test_only_the_arithmetic_homes_name_fraction(path):
    assert fraction_names(path) == []


def test_the_uncalled_exports_are_the_pinned_ones():
    assert exported_uncalled(MODULES) == set(EXPORTED_UNCALLED)
    root = SRC.parent.parent
    for name, where in EXPORTED_UNCALLED.items():
        assert re.search(rf"\b{name}\b", (root / where).read_text()), (name, where)


def test_every_optional_parameter_is_passed_by_a_library_call():
    assert unpassed_optional_parameters(MODULES) == []


def test_the_options_are_the_budgeted_ones():
    assert optional_parameters(MODULES) == OPTIONS


def test_the_checks_catch_what_they_look_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from json import dumps, loads\n"
        "from typing import Any\n"
        "__all__ = ['loads', 'exported']\n"
        "def _used() -> 'Any':\n"
        "    return dumps(1)\n"
        "def _dead():\n"
        "    return _used()\n"
        "def exported():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def called_elsewhere():\n"
        "    return 2\n"
        "def orphan():\n"
        "    return 3\n"
        "def shadowed():\n"
        "    return 4\n")
    other = tmp_path / "other.py"
    other.write_text("import sample\n"
                     "def _run(obj):\n"
                     "    return sample.called_elsewhere(), obj.shadowed\n"
                     "RESULT = _run(None)\n")
    assert unused_imports(src) == [(2, "os")]
    assert unreferenced_functions([src], {"exported"}) == [
        ("sample.py", "_dead"), ("sample.py", "called_elsewhere"), ("sample.py", "orphan"),
        ("sample.py", "shadowed")]
    assert unreferenced_functions([src, other], {"exported"}) == [
        ("sample.py", "_dead"), ("sample.py", "orphan"), ("sample.py", "shadowed")]
    handlers = tmp_path / "handlers.py"
    handlers.write_text(
        # the matrix reader the structure-file loader had before it checked
        # shapes itself
        "def _as_matrix(value, line, fld):\n"
        "    try:\n"
        "        return Mat.from_rows(fld, value)\n"
        "    except Exception as exc:\n"
        "        raise StructureError(line, f'bad matrix: {exc}') from None\n"
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except (ValueError, builtins.BaseException):\n"
        "    pass\n"
        "except (ValueError, ZeroDivisionError):\n"
        "    pass\n"
        "except ExceptionGroup:\n"
        "    pass\n")
    assert broad_handlers(handlers) == [4, 8, 12]
    rebuilds = tmp_path / "rebuilds.py"
    rebuilds.write_text(
        # the slice context the Morita layer built before `Derived.slice`
        "def slice_context(x):\n"
        "    e_coring = x.coring.e_slice()\n"
        "    x_e = GrouplikeFamily(e_coring, (x.vec(0),))\n"
        "    r_e = dual_ring(e_coring)\n"
        "    strict, _ = connecting_spaces(x_e, r_e)\n"
        "    ctx, w, _ = morita_context(x_e, r_e, coinvariant_ring(x_e), strict)\n"
        "    return ctx, w, r_e\n"
        "def battery(d, b):\n"
        "    sig = galois.induction_equivalence(d.grouplike, b)\n"
        "    return sig, d.connecting_spaces[0], d.cofree_dual\n")
    assert derived_rebuilds(rebuilds) == [
        (5, "connecting_spaces"), (6, "coinvariant_ring"), (6, "morita_context"),
        (9, "induction_equivalence")]
    storage = tmp_path / "storage.py"
    storage.write_text(
        # the row block the Morita laws were checked with before they were
        # written as identities of maps
        "def _row_block(m, start, count):\n"
        "    return Mat(m.field, count, m.cols, m.data[start * m.cols:(start + count) * m.cols])\n"
        "first = m.data[0]\n"
        "flat = tuple(x for f in fams for x in f.data)\n"
        "row = m.row(0)[1:]\n"
        "meta = record['data'][0]\n"
        "coords = coords_in_rowspace(basis, fmat.data)\n"
        "vec = fmat.reshape(1, basis.cols)\n")
    assert storage_reads(storage) == [2, 3, 4, 7]
    bypass = tmp_path / "bypass.py"
    bypass.write_text(
        "class Mat:\n"
        "    def seed(self, rows):\n"
        "        self.__dict__['data'] = rows\n"
        "def fast(field, data):\n"
        "    m = object.__new__(Mat)\n"
        "    m.__dict__.update(field=field, rows=1, cols=len(data))\n"
        "    m.__dict__['data'] = data\n"
        "    m.__dict__.update({'cols': 2})\n"
        "    m.__dict__.setdefault('rows', 1)\n"
        "    m.__dict__['_entries'] = []\n"
        "    m.__dict__.update(_entries=[], _is_identity=True)\n"
        "    m.__dict__['_is_identity'] = True\n"
        "    return linalg.Mat.__new__(linalg.Mat), object.__new__(Other)\n")
    assert mat_bypasses(bypass) == [5, 6, 7, 8, 9, 10, 11, 13]


def test_the_export_pin_catches_what_it_looks_for(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        # the graded-coring packing and the trivial coring, which only the
        # tests and `__all__` called before they moved to the tests
        "def pack(c):\n"
        "    return c\n"
        "def unpack(p):\n"
        "    return p\n"
        "def trivial(a):\n"
        "    return a\n"
        "def solve(m):\n"
        "    return m\n"
        "def caller(m):\n"
        "    return solve(m)\n"
        "def _helper():\n"
        "    return 1\n")
    init = tmp_path / "__init__.py"
    init.write_text("from lib import caller, pack, solve, trivial, unpack\n"
                    "__all__ = ['caller', 'pack', 'solve', 'trivial', 'unpack']\n")
    user = tmp_path / "user.py"
    user.write_text("from lib import _helper, caller\n"
                    "RESULT = caller(_helper())\n")
    paths = [lib, init, user]
    assert exported_uncalled(paths) == {"pack", "trivial", "unpack"}
    assert unreferenced_functions(paths, set()) == [
        ("lib.py", "pack"), ("lib.py", "trivial"), ("lib.py", "unpack")]
    assert unreferenced_functions(paths, {"pack", "unpack"}) == [("lib.py", "trivial")]
    # the import that re-exports a name counts no more than `__all__` does
    assert unreferenced_functions([lib, init], set()) == [
        ("lib.py", "_helper"), ("lib.py", "caller"), ("lib.py", "pack"), ("lib.py", "trivial"),
        ("lib.py", "unpack")]
    assert unreferenced_functions([lib, init], {"caller", "pack", "trivial", "unpack"}) == [
        ("lib.py", "_helper")]


def test_the_optional_parameter_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    return a\n"
        "def shared(y=1):\n"
        "    return y\n"
        "def spread(u=1, v=2):\n"
        "    return u + v\n"
        "class K:\n"
        "    def __init__(self, p=None, q=None):\n"
        "        self.p = p\n"
        "    def m(self, r=1):\n"
        "        return r\n"
        "    @staticmethod\n"
        "    def s(w=1):\n"
        "        return w\n"
        "f(1, 2)\n"
        "f(1, d=4)\n"
        "K(5).m(2)\n"
        "K.s(3)\n"
        "spread(*(1, 2))\n")
    other = tmp_path / "other.py"
    other.write_text("def shared(y=2):\n"
                     "    return y\n"
                     "RESULT = shared(y=3)\n")
    cli = tmp_path / "cli.py"
    cli.write_text("def main(argv=None):\n"
                   "    return argv\n"
                   "def run(seed=0):\n"
                   "    return seed\n")
    assert unpassed_optional_parameters([src]) == [
        ("sample.py", "__init__", "q"), ("sample.py", "f", "c"), ("sample.py", "f", "e"),
        ("sample.py", "shared", "y")]
    assert unpassed_optional_parameters([src, other, cli]) == [
        ("cli.py", "run", "seed"), ("sample.py", "__init__", "q"), ("sample.py", "f", "c"),
        ("sample.py", "f", "e")]
    assert optional_parameters([src]) == {
        ("sample.py", "f", "b"), ("sample.py", "f", "c"), ("sample.py", "f", "d"),
        ("sample.py", "f", "e"), ("sample.py", "shared", "y"), ("sample.py", "spread", "u"),
        ("sample.py", "spread", "v"), ("sample.py", "__init__", "p"),
        ("sample.py", "__init__", "q"), ("sample.py", "m", "r"), ("sample.py", "s", "w")}


def test_the_local_import_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import corings.linalg\n"
        "from corings.algebra import Algebra\n"
        "def f():\n"
        "    from corings.galois import is_galois\n"
        "    import json\n"
        "    return is_galois, json\n"
        "class K:\n"
        "    def m(self):\n"
        "        import corings.report as report\n"
        "        def inner():\n"
        "            from . import sibling\n"
        "            from corings_extra import thing\n"
        "            return sibling, thing\n"
        "        return report, inner\n")
    assert function_local_imports(src) == [
        (4, "corings.galois"), (9, "corings.report"), (11, ".")]


def test_the_kronecker_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "a = m @ tensor_k(x, y)\n"
        "b = tensor_k(x, y) @ m\n"
        "c = m @ linalg.tensor_k(x, y) @ s\n"
        "d = kron_after(m, tensor_k(x, y), z)\n"
        "e = m @ (tensor_k(x, y))\n"
        "f = m @ tensor_vec(x, y)\n"
        "g = m @ tensor_k\n")
    assert kronecker_products_applied(src) == [(1, 4), (3, 4), (5, 4)]


def test_the_unread_parameter_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def f(a, b, *args, c, **kw):\n"
        "    return a + len(kw)\n"
        "def g(x):\n"
        "    def inner(y):\n"
        "        return x\n"
        "    return inner\n"
        "def suite_one(ms, seed):\n"
        "    return ms\n"
        "class K:\n"
        "    def m(self, r):\n"
        "        return 1\n"
        "    @staticmethod\n"
        "    def s(w):\n"
        "        return 2\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 3\n"
        "h = lambda u, v: u\n")
    suites = tmp_path / "suites.py"
    suites.write_text(src.read_text())
    expected = [("f", "args"), ("f", "b"), ("f", "c"), ("inner", "y"), ("m", "r"), ("s", "w")]
    assert unread_parameters([src]) == [("sample.py", fn, p) for fn, p in
                                        sorted(expected + [("suite_one", "seed")])]
    assert unread_parameters([suites]) == [("suites.py", fn, p) for fn, p in expected]


def test_the_field_arithmetic_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "v = [F.zero] * n\n"
        "w = [F.add(x, y) for x, y in zip(v, v)]\n"
        "z = m.field.mul(a, b)\n"
        "q = field.inv(a)\n"
        "r = 3 * [self.field.zero]\n"
        "rep.add('id', 'text', True)\n"
        "s = g.mul(a, b) + g.inv(a)\n"
        "t = [0] * n\n"
        "u = (F.zero,) * n\n")
    assert hand_field_arithmetic(src) == [1, 2, 3, 4, 5]


def test_the_algebra_law_checks_catch_what_they_look_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "lhs = a.multiply(a.multiply(a.basis_vec(i), a.basis_vec(j)), a.basis_vec(k))\n"
        "cols = [self.multiply(a, unit_vec(self.field, self.dim, j)) for j in range(n)]\n"
        "x = tg.multiply(_unit(F, tg.dim, i), _unit(F, tg.dim, j))\n"
        "y = A.multiply(block(u, a), block(v, a))\n"
        "z = multiply(basis_vec(i), e)\n"
        "iso = m.rows == m.cols and rank(m) == m.rows\n"
        "bij = ok and mat.rows == mat.cols and rank(mat) == mat.rows\n"
        "bad = [a for a in g if s[a].rows != s[a].cols or rank(s[a]) != s[a].rows]\n"
        "diag = (d.rows == d.cols\n"
        "        and rank(d) == d.cols)\n"
        "square = m.rows == m.cols\n"
        "full = rank(m) == m.rows\n"
        "ok = is_invertible(m) and q.dim == n and rank(t) == n\n")
    assert basis_vector_products(src) == [1, 2, 3]
    assert hand_invertibility_tests(src) == [6, 7, 8, 9]


def test_the_memo_bypass_check_catches_what_it_looks_for(tmp_path):
    home = tmp_path / "algebra.py"
    home.write_text(
        "def left_dual(m):\n"
        "    return _memoised(m, ('left_dual', m.dim), lambda: _left_dual(m))\n"
        "def find_dual_basis(m):\n"
        "    return _memoised(m, ('dual_basis', m.dim), lambda: _dual_basis(m, left_dual(m)[1]))\n"
        # the projectivity test of the module predicates before the dual
        # basis was memoised
        "def left_module_predicates(m):\n"
        "    _, functionals = _left_dual(m)\n"
        "    return _dual_basis(m, functionals) is not None\n"
        "def collapse_right(m):\n"
        "    def inner():\n"
        "        return _left_dual(m)\n"
        "    return _dual_basis(m, None), inner\n"
        "CONST = _left_dual(None)\n")
    assert memo_bypasses(home) == [(6, "_left_dual"), (7, "_dual_basis"),
                                   (10, "_left_dual"), (11, "_dual_basis"),
                                   (12, "_left_dual")]
    other = tmp_path / "dualring.py"
    other.write_text(
        "def left_dual(m):\n"
        "    return algebra._left_dual(m)\n"
        "def collapse(m):\n"
        "    return collapse_right(m), _left_dualities(m)\n")
    assert memo_bypasses(other) == [(2, "_left_dual")]


def test_the_action_layout_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        # the right-action layouts built before `linalg.interleave`
        "flat = Mat._from_cols(F, [m.right[k].col(i) for i in range(m.dim)\n"
        "                          for k in range(m.base.dim)])\n"
        "right = Mat._from_cols(F, [act.col(k) for k in range(self.dim) for act in self.right], n)\n"
        "direct = {b: Mat._from_cols(F, [ev.col(i) for i in range(d) for ev in evs[b]]) for b in g}\n"
        "pairing = list(f.col(j) for j in range(n) for f in r.functionals[b])\n"
        "cols = {m.col(k) for m in mats for k in range(n)}\n"
        "left = hstack(m.left)\n"
        "right = interleave(F, n, m.right)\n"
        "one = [P.col(n * c + k) for k in range(c)]\n"
        "same = [m.col(k) for k in range(n) for m in [base]]\n"
        "entries = tuple(v for b in g for v in acts[b].col(j))\n"
        "tau = [inject(s, ctx.tau.col(i * q + j)) for s in g for i in range(p) for j in range(q)]\n"
        "fixed = [base.col(k) for k in range(n) for _ in mats]\n")
    assert hand_action_layouts(src) == [1, 3, 4, 5, 6, 10]


def test_the_column_block_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        # the graded maps the Morita and Galois layers built column by
        # column before they placed whole blocks
        "chi = Mat._from_cols(F, [f.apply(x.vec(g.inv(a))) for a in g for f in fs[a]], A.dim)\n"
        "omega = Mat._from_cols(F, [gs.inject(g.mul(a, s), coords[key]) for a in g\n"
        "                           for key in keys], gs.algebra.dim)\n"
        "xi = Mat._from_cols(F, [tensor_vec(F, unit_vec(F, n, s), coords.row(k))\n"
        "                        for k, s in enumerate(degrees)], n * w)\n"
        "tau = Mat._from_cols(F, [inject(dims, s, ctx.tau.col(i)) for s in g for i in ix], d)\n"
        "unit = Mat._from_cols(F, [space.project(tensor_vec(F, e, u)) * k for e in es], w)\n"
        "nu = Mat._from_cols(F, nu_cols, d)\n"
        # columns that read no other matrix or vector block
        "mul = Mat._from_cols(F, [[F.of(x) for x in mul[i][j]] for i in r for j in r], dim)\n"
        "swap = Mat._from_cols(F, [unit_vec(F, n, k) for k in range(n)], n)\n"
        "vecs = Mat._from_cols(F, [v for _, v in db.pairs], c.comps[b].dim)\n"
        "rows = Mat._from_rows(F, [m.row(i) for i in range(n)])\n"
        "cols = from_cols(F, [m.col(j) for j in range(n)])\n")
    assert column_block_reads(src) == [1, 2, 4, 6, 7]


def test_the_structure_map_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "class GroupCoring:\n"
        "    def __init__(self, delta, counit):\n"
        "        self.delta = dict(delta)\n"
        "        self.counit = counit\n"
        # the coring a structure file declared before its maps were
        # computed ahead of the constructor
        "def load(g, comps, lifts, counit):\n"
        "    cor = GroupCoring({}, counit)\n"
        "    for (a, b), lift in lifts.items():\n"
        "        cor.delta[(a, b)] = cor.tensor(a, b).space.proj @ lift\n"
        "    return cor\n"
        "def induce(c, space, rho):\n"
        "    m = Comodule(c, space, [None] * c.group.order)\n"
        "    m.rho = tuple(rho)\n"
        "    m.coring.counit += 1\n"
        "    m.rho, other.x = rho, 2\n"
        "    del m.rho[0]\n"
        "    m.rho.update({(0, 0): rho})\n"
        "    m.coring.delta.setdefault((0, 0), rho)\n"
        "    delta = {}\n"
        "    delta[(0, 0)] = rho\n"
        "    counit: Mat = rho\n"
        "    m.delta_left_lift = None\n"
        "    return m.rho.get(0), delta, counit\n")
    assert structure_map_writes(src) == [8, 12, 13, 14, 15, 16, 17]


def test_the_intertwining_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        # the linearity loops before `algebra.intertwining_failures`
        "bad = [i for i in range(n) if f.mat @ f.src.left[i] != f.dst.left[i] @ f.mat]\n"
        "bad += [(b, j) for j in range(d) if rho @ src[j] != right[j] @ rho]\n"
        "bad += [(p, j) for j, (R, T) in pairs if m.rho[p] @ R != T @ m.rho[p]]\n"
        "ok = xs[i] @ f == f @ ys[i]\n"
        "if chi @ right != A.right_mats[j] @ chi:\n"
        "    pass\n"
        "ok = phi @ psi == Mat.identity(F, n)\n"
        "ok = f @ xs[i] != ys[i] @ g\n"
        "ok = f @ x @ y == z\n"
        "ok = f @ x < y @ f\n"
        "bad = intertwining_failures(f, xs, ys, ident)\n")
    assert hand_intertwining_tests(src) == [1, 2, 3, 4, 5]


def test_the_structure_file_check_catches_what_it_looks_for(tmp_path):
    assert {"group", "algebra", "hopfalgebra", "hopf", "coring", "main"} <= BLOCK_KINDS
    src = tmp_path / "sample.py"
    src.write_text(
        # the fixture emitter before the fixtures were shipped as files
        "def _emit_group(name, table):\n"
        "    return [f'begin group {name}', f'  table {table}', 'end', '']\n"
        "lines += ['begin hopf H', '  group G', '  cofree HE', 'end', '']\n"
        "lines += ['begin main', '  coring C', 'end']\n"
        "text = 'begin hopfalgebra HE\\n  algebra A\\nend\\n'\n"
        "ok = text.startswith('begin comodule-algebra')\n"
        "msg = f\"expected 'begin <kind> <name>', got {line!r}\"\n"
        "tok = 'begin'\n"
        "word = 'beginning group'\n"
        "other = 'begin frobnicate X'\n"
        "plural = 'begin groups'\n"
        "indented = '  begin group G'\n")
    assert structure_file_literals(src) == [2, 3, 4, 5, 6]


def test_the_method_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        # the group constructors and the field division that only the
        # tests called before they moved to the tests
        "class Group:\n"
        "    @classmethod\n"
        "    def cyclic(cls, n):\n"
        "        return cls(n)\n"
        "    def op(self, a, b):\n"
        "        return self.op(a, b) if a else b\n"
        "    def inv(self, a):\n"
        "        return a\n"
        "    def __len__(self):\n"
        "        return 1\n"
        "    def _cached(self):\n"
        "        return 2\n"
        "class Field:\n"
        "    def div(self, a, b):\n"
        "        return self.mul(a, self.inv(b))\n"
        "    def mul(self, a, b):\n"
        "        return a * b\n"
        "    def sub(self, a, b):\n"
        "        return a - b\n"
        "    def neg(self, a):\n"
        "        def inner():\n"
        "            return self.neg\n"
        "        return inner\n"
        # a string names no method
        "HOOK = getattr(Field, 'sub')\n")
    other = tmp_path / "other.py"
    other.write_text("def run(g):\n"
                     "    return g._cached, g.inv(1)\n")
    # Group.mul and Group.inv are referenced through Field.div, whatever
    # the class of self there
    assert unreferenced_methods([src]) == [
        ("sample.py", "Field.div"), ("sample.py", "Field.neg"), ("sample.py", "Field.sub"),
        ("sample.py", "Group._cached"), ("sample.py", "Group.cyclic"), ("sample.py", "Group.op")]
    assert unreferenced_methods([src, other]) == [
        ("sample.py", "Field.div"), ("sample.py", "Field.neg"), ("sample.py", "Field.sub"),
        ("sample.py", "Group.cyclic"), ("sample.py", "Group.op")]


def test_the_nested_function_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        # the structure-file parser with the lookahead it never called
        "def parse(lines):\n"
        "    pos = 0\n"
        "    def peek():\n"
        "        return lines[pos] if pos < len(lines) else None\n"
        "    def skip():\n"
        "        nonlocal pos\n"
        "        pos += 1\n"
        "    def item(depth):\n"
        "        skip()\n"
        "        return item(depth + 1) if depth else pos\n"
        "    def walk(n):\n"
        "        return walk(n - 1) if n else 0\n"
        "    def outer():\n"
        "        def inner():\n"
        "            return 1\n"
        "        return 2\n"
        "    class K:\n"
        "        def method(self):\n"
        "            return 3\n"
        "    return item(0), outer, K\n"
        "def top():\n"
        "    return 4\n")
    assert unreferenced_nested_functions(src) == [(3, "peek"), (11, "walk"), (14, "inner")]


def test_the_cache_recorder_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "class Mat:\n"
        "    @cached_property\n"
        "    def _denominator(self):\n"
        "        return 1\n"
        "    @cached_property\n"
        "    def _is_identity(self):\n"
        "        return False\n"
        "    @property\n"
        "    def shape(self):\n"
        "        return 0\n"
        "    @classmethod\n"
        "    def identity(cls, n):\n"
        "        m = cls._of_rows(n)\n"
        "        m.__dict__['_is_identity'] = True\n"
        "        return m\n"
        # the denominator recording of the constructors before the first
        # product alone read it off the rows
        "def _recorded(m, d):\n"
        "    m.__dict__['_denominator'] = d\n"
        "    return m\n"
        "def _integral_if(m, parts):\n"
        "    if all(p.__dict__.get('_denominator') == 1 for p in parts):\n"
        "        m.__dict__.update(_denominator=1)\n"
        "    m.__dict__.update({'_is_identity': False, 'shape': 0})\n"
        "    m.__dict__.setdefault('_denominator', 1)\n"
        "    m.__dict__['shape'] = 1\n"
        "    return m\n"
        "m.__dict__['_denominator'] = 2\n")
    caches = mat_caches(src)
    assert caches == {"_denominator", "_is_identity"}
    assert cache_writes(src, caches) == [
        (14, "identity", "_is_identity"), (17, "_recorded", "_denominator"),
        (21, "_integral_if", "_denominator"), (22, "_integral_if", "_is_identity"),
        (23, "_integral_if", "_denominator"), (26, None, "_denominator")]


def test_the_fraction_check_catches_what_it_looks_for(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from fractions import Fraction\n"
        "import fractions\n"
        "from fractions import Fraction as F\n"
        "x = Fraction(1, 2)\n"
        "y = fractions.Fraction(3)\n"
        "z = isinstance(x, F)\n"
        "w = x.denominator\n"
        "text = 'Fraction'\n")
    assert fraction_names(src) == [1, 3, 4, 5]

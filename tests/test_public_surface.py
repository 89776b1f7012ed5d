"""Every public function, class and method of the package has a caller.

A public name (no leading underscore) defined at the top level of a
module in ``src/scarsim``, or in the body of a public class there, counts
as called when a module of the package other than ``__init__`` refers to
it by name (a function or class as an attribute, an imported name or a
bare name that resolves to a module-level name: read at module scope or
as a global inside a function or class, found with ``symtable``, so a
local, parameter or comprehension variable of the same name does not
count; a method as an attribute only), or when the benchmark's tracer patches
it: the ``TARGETS`` and ``HOOKS`` of ``bench/tracing.py``, read as text
so that the benchmark is not imported.  The tracer looks each of those
up by name, so they must keep it.  Only names that are read count: an
assignment to a name or an attribute calls nothing.

A name with no caller is either deleted or listed in ``KEEP`` with a
test that uses it as an independent oracle or fixture.

A method is matched by its bare name, so one class's caller would count
for every other public class that defines the same name.  Such a shared
name is therefore refused unless ``SHARED`` lists it with the reason
each definition has callers of its own.
"""
import ast
import re
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scarsim"

# module.name -> "file::Class::test" (or "file::test") that uses it
KEEP = {
    "model.build_hamiltonian_occupation":
        "tests/test_model.py::TestHamiltonian::test_pauli_and_occupation_forms_differ_by_identity",
    "model.fibonacci_dimension": "tests/test_acceptance.py::test_03_fibonacci_diagnostics",
    "model.project": "tests/test_experiments.py::TestReferenceSeries::"
                     "test_series_equal_the_estimators_on_the_state_and_its_projection",
    "model.qmbs_params": "tests/test_model.py::TestTrotterAngles::test_qmbs_zz_angle",
    "observables.cy_oracle": "tests/test_experiments.py::TestCY::test_noiseless_cy_matches_dense_oracle",
    "observables.pyp_matrix":
        "tests/test_observables.py::TestPYP::test_estimator_matches_dense_operator",
    # bench/tracing.py's counters read .data too (not through TARGETS)
    "qsim.Counts.data": "tests/test_counts_dense.py::test_data_view_is_read_only_and_lazy",
    "qsim.Counts.from_dict": "tests/test_counts_dense.py::test_from_dict_and_data_round_trip",
    "qsim.circuit_unitary": "tests/test_mitigation.py::TestFolding::test_unitary_unchanged",
}

# method or property name -> why every public class that defines it has callers
SHARED = {
    "width": "Statevector.width (the executor's initial states) and Counts.width "
             "(readout inversion, estimators) are each read",
}


def _public_definitions() -> dict[str, str]:
    """module.name and module.Class.method -> the bare name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        out[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return out


def _module_names_read(source: str) -> set[str]:
    """Bare names ``source`` reads where they resolve to a module-level
    name: at module scope, or as a global inside a function or class."""
    names, tables = set(), [symtable.symtable(source, "<module>", "exec")]
    while tables:
        table = tables.pop()
        names.update(sym.get_name() for sym in table.get_symbols()
                     if sym.is_referenced() and sym.is_global())
        tables.extend(table.get_children())
    return names


def _patched() -> list[tuple[str, str]]:
    """(module, name) of every TARGETS and HOOKS entry of bench/tracing.py,
    read as text; a "Class.method" name is a method."""
    tracing = (ROOT / "bench" / "tracing.py").read_text()
    patched = re.findall(r'\("scarsim\.(\w+)", "([\w.]+)"', tracing)
    assert patched, "no TARGETS or HOOKS found in bench/tracing.py"
    return patched


def _references() -> tuple[set[str], set[str]]:
    """(module-level and imported names, attribute names) the package
    refers to, with the benchmark's patched names in both."""
    names, attrs = set(), set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        names |= _module_names_read(source)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    patched = {name.rpartition(".")[2] for _, name in _patched()}
    return names | patched, attrs | patched


def _unreferenced() -> set[str]:
    names, attrs = _references()
    return {q for q, name in _public_definitions().items()
            if name not in attrs and (q.count(".") == 2 or name not in names)}


def test_every_public_name_has_a_caller_or_a_kept_oracle_test():
    missing = sorted(_unreferenced() - set(KEEP))
    assert not missing, ("public names that nothing in src or the benchmark calls; delete "
                         f"them or add them to KEEP with the test they serve: {missing}")


def test_every_name_the_benchmark_patches_resolves_in_src():
    # the tracer looks each name up in its module's (or class's) own
    # namespace: a def, a class or a from-import there
    unresolved = []
    for module, name in _patched():
        body = ast.parse((SRC / f"{module}.py").read_text()).body
        owner, _, attr = name.rpartition(".")
        if owner:
            body = next((n.body for n in body if isinstance(n, ast.ClassDef)
                         and n.name == owner), [])
        bound = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                bound.update(alias.asname or alias.name for alias in node.names)
        if attr not in bound:
            unresolved.append(f"{module}.{name}")
    assert not unresolved, f"bench/tracing.py patches names src no longer has: {unresolved}"


def test_a_local_of_the_same_name_is_no_caller():
    # a comprehension variable or a parameter named like an uncalled
    # function reads the local, not the function; a global read does call it
    source = ("def y():\n    pass\n\n"
              "def first(bases):\n    return [y for y in bases]\n\n"
              "def second(y):\n    return y\n")
    assert "y" not in _module_names_read(source)
    assert "y" in _module_names_read(source + "\ndef third():\n    return y()\n")
    assert "y" in _module_names_read(source + "\nCALLS = [y]\n")


def test_no_method_name_is_shared_by_two_classes_unless_listed():
    owners: dict[str, list[str]] = {}
    for qualified, name in _public_definitions().items():
        if qualified.count(".") == 2:
            owners.setdefault(name, []).append(qualified)
    shared = {name: sorted(qs) for name, qs in owners.items() if len(qs) > 1}
    unlisted = {name: qs for name, qs in shared.items() if name not in SHARED}
    assert not unlisted, ("method names that two public classes define, so a caller of one "
                          f"hides the other; rename, delete or list them in SHARED: {unlisted}")
    assert not sorted(set(SHARED) - set(shared)), "SHARED lists names only one class defines"


def test_keep_list_holds_only_uncalled_names():
    defined = _public_definitions()
    assert not sorted(set(KEEP) - set(defined)), "KEEP lists names that no longer exist"
    called = sorted(set(KEEP) - _unreferenced())
    assert not called, f"KEEP lists names that now have a caller: {called}"


def test_each_kept_name_is_used_by_its_test():
    for qualified, test_id in KEEP.items():
        file, *scope = test_id.split("::")
        path = ROOT / file
        assert path.is_file(), test_id
        source = path.read_text()
        body = ast.parse(source).body
        node = None
        for part in scope:
            node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                         and n.name == part), None)
            assert node is not None, f"{test_id}: no {part}"
            body = node.body
        name = qualified.rpartition(".")[2]
        assert re.search(rf"\b{name}\b", ast.get_source_segment(source, node)), (
            f"{test_id} does not use {name}")

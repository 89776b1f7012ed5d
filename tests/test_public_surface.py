"""Every public function, class and method of the package has a caller.

A public name (no leading underscore) defined at the top level of a
module in ``src/scarsim``, or in the body of a public class there, counts
as called when a module of the package other than ``__init__`` refers to
it by name (a function or class as a bare name, an attribute or an
imported name; a method as an attribute only, so a local variable of
the same name does not count), or when the benchmark's tracer patches
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scarsim"

# module.name -> "file::Class::test" (or "file::test") that uses it
KEEP = {
    "mitigation.effective_twirled_noise_ptm":
        "tests/test_mitigation.py::TestTwirlTheorem::test_coherent_overrotation_becomes_stochastic",
    "mitigation.twirl_rzz": "tests/test_acceptance.py::test_05_twirl_theorem",
    "model.build_hamiltonian_occupation":
        "tests/test_model.py::TestHamiltonian::test_pauli_and_occupation_forms_differ_by_identity",
    "model.fibonacci_dimension": "tests/test_acceptance.py::test_03_fibonacci_diagnostics",
    "model.project": "tests/test_experiments.py::TestReferenceSeries::"
                     "test_series_equal_the_estimators_on_the_state_and_its_projection",
    "model.qmbs_params": "tests/test_model.py::TestTrotterAngles::test_qmbs_zz_angle",
    "noise.run_noisy_density":
        "tests/test_noise.py::TestNoisyGateChannel::test_channel_matches_exact_executor",
    "observables.cy_oracle": "tests/test_experiments.py::TestCY::test_noiseless_cy_matches_dense_oracle",
    # bench/tracing.py's counters read .data too (not through TARGETS)
    "qsim.Counts.data": "tests/test_counts_dense.py::test_data_view_is_read_only_and_lazy",
    "qsim.Counts.from_dict": "tests/test_counts_dense.py::test_from_dict_and_data_round_trip",
    "qsim.DensityOperator.expectation": "tests/test_acceptance.py::test_06_zne_efficacy",
    "qsim.delay": "tests/test_qsim.py::TestIdleIntervals::test_delay_is_identity_in_noiseless_run",
    "qsim.is_pauli_stochastic":
        "tests/test_qsim.py::TestPauliTransferMatrix::test_stochastic_predicate",
    "qsim.sample_counts":
        "tests/test_noise.py::TestTrajectoryExecution::test_noiseless_infinite_matches_ideal",
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


def _references() -> tuple[set[str], set[str]]:
    """(bare and imported names, attribute names) the package refers to,
    with the benchmark's patched names in both."""
    names, attrs = set(), set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    tracing = (ROOT / "bench" / "tracing.py").read_text()
    patched = re.findall(r'\("scarsim\.\w+", "([\w.]+)"', tracing)
    assert patched, "no TARGETS or HOOKS found in bench/tracing.py"
    patched = {name.rpartition(".")[2] for name in patched}
    return names | patched, attrs | patched


def _unreferenced() -> set[str]:
    names, attrs = _references()
    return {q for q, name in _public_definitions().items()
            if name not in attrs and (q.count(".") == 2 or name not in names)}


def test_every_public_name_has_a_caller_or_a_kept_oracle_test():
    missing = sorted(_unreferenced() - set(KEEP))
    assert not missing, ("public names that nothing in src or the benchmark calls; delete "
                         f"them or add them to KEEP with the test they serve: {missing}")


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

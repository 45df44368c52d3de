"""Every public function and class of the report modules has a caller.

A name counts as used when a module of src/cck/ or a script under
scripts/ reads it, as a name or as an attribute.  Its own def/class line
is not a read, a read inside the body of a reference-only function or
class is not a caller either, and cck/__init__.py, which only
re-exports, is not searched.  cck.fp, the dense test oracle whose names
the benchmark traces, is left out as a whole.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "cck"
MODULES = ("certificate", "equivariant", "hamflow", "projector_geometry", "spectrum")

#: public names that no report calls, kept because a reference test compares against them
REFERENCE = {
    "check_graph_identity": "the oracle of gen_fn_qq: dS_a against the momenta of the rotation",
    "critical_momenta": "criterion 5: the critical momenta lie on the energy sphere",
    "restriction_degree": "criterion 7: the restriction degree is 2 n index + 2",
    "resolution_maps": "criterion 6: the 2-periodic resolution over F_N[Z/N] is exact",
    "gen_fn_qq": "S_a itself: action_profile is checked against it, check_graph_identity differentiates it",
    "apply_rotation": "the time-a flow whose graph check_graph_identity compares with dS_a",
    "PhasePoint": "the (q, p) point that apply_rotation and check_graph_identity take",
    "generator_matrix": "the permutation matrix of g from which resolution_maps builds g - 1",
}


def _public_definitions():
    for module in MODULES:
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name


def _names_read():
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += (ROOT / "scripts").glob("*.py")
    read = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in REFERENCE:
                continue  # a reference-only body calls nothing on behalf of a report
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    return read


def test_every_public_symbol_has_a_caller():
    read = _names_read()
    defined = dict(_public_definitions())
    uncalled = [qualified for qualified, name in defined.items() if name not in read and name not in REFERENCE]
    assert not uncalled, f"public symbols with neither a caller nor a reference test: {uncalled}"
    # a reference name that gains a caller, or goes, leaves the set
    stale = [name for name in REFERENCE if name in read or name not in defined.values()]
    assert not stale, f"reference set entries that are called or undefined: {stale}"

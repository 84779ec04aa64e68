"""Every function in the package serves a command.

The command set below runs every subcommand in-process through `cli.main`
while `sys.setprofile` records each code object entered.  A function of a
`sixsphere` module (or a method of one of its classes) that none of them
enters must be named in KEEP with the reason it stays: new code that no
command reaches fails this test until it is either reached or justified.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from fractions import Fraction as F

import pytest

import sixsphere
from sixsphere import cli, cstruct, twistor
from sixsphere.octonion import Octonion
from sixsphere.sampling import random_so7_float, rng_from_seed

#: functions no command enters, each with the reason it stays
KEEP = {
    # names that bench/ traces (bench/layers.py patches them in place)
    "frames.apply_matrix": "traced by bench/layers.py",
    "linalg.mat_mul": "traced by bench/layers.py",
    "linalg.is_orthogonal_exact": "traced by bench/layers.py",
    "linalg.lift": "lifts the rows that mat_mul and mat_vec multiply",
    "linalg._dot": "the inner product of mat_mul and mat_vec",
    "linalg.mat_vec": "frames.apply_matrix applies rows through it",
    "linalg.kernel_basis_float":
        "traced by bench/layers.py; the one-matrix reference of "
        "kernel_planes_float",
    "sampling.random_rational_vector": "traced by bench/layers.py",
    "sampling.random_unit_octonion_float":
        "traced by bench/layers.py; the float suites draw rows of "
        "random_unit_vector with its bits",
    "sampling.rational_sphere_point":
        "traced by bench/layers.py; reference of the integer draws",
    "sampling.rational_unit_octonion":
        "traced by bench/layers.py; reference of the integer draws",
    "sampling.rational_imaginary_unit":
        "traced by bench/layers.py; reference of the integer draws",
    "sampling.rational_circle_point":
        "traced by bench/layers.py; reference of the integer draws",
    "twistor.TangentStructure.__init__":
        "public constructor, traced by bench/layers.py; sections use _trusted",
    "twistor.TangentStructure._validate": "runs in the public constructor",
    "twistor.section_sample_points":
        "the lazy set-up that bench/workloads.py runs before the sweeps",
    "degree.MapFamily.dfunc":
        "public half of a map's jet; bench/layers.py traces it",
    # failure paths and output views
    "suites._Run.fail":
        "makes failure entries, so runs only on a failure; "
        "tests/test_suite_failures.py makes every suite that can fail run it",
    "octonion.Octonion.__neg__": "operator of the public value type",
    "octonion.Octonion.inverse":
        "method of the public value type; the axiom rows invert as it does",
    "octonion.Octonion.from_strings": "reads back the payloads reports write",
    "octonion.Octonion.__repr__": "output view",
    "octonion.SquareMatrix.rows": "output view of the pair",
    "octonion.SquareMatrix.to_strings": "writes failure payloads",
    "octonion.SquareMatrix._validate": "default of the hook subclasses override",
    "octonion._FloatArithmetic.eq": "the float context's scalar test",
    "octonion._FloatArithmetic.kernel":
        "the float side of Arithmetic.kernel; the reference kernel route "
        "of the companion runs it",
    "octonion._ExactArithmetic.ray":
        "the exact side of Arithmetic.ray, which the float companion reads",
    "octonion.exact_sqrt":
        "normalize keeps an exact octonion with a rational norm exact",
    "chern.GradedPoly.__sub__": "operator of the public graded ring",
    "chern.GradedPoly.__repr__": "output view",
    "homotopy.GroupExpr.__repr__": "output view",
    "cstruct.ComplexStructureR6.__repr__": "output view",
    # single-structure API over the stacks that float prop21 runs
    "cstruct.common_line": "public API: common_line_each on a stack of one",
    "cstruct.random_structure_float":
        "public sampler: draw_structures, raising a failed matrix's error",
    "cstruct.ComplexStructureR6.orientation_sign":
        "public method; `certify` reads the same Pfaffian sign on stacks",
    # entered while the modules are imported, before any command
    "octonion._cd_mul": "builds the multiplication table at import",
    "octonion._build_table": "builds the multiplication table at import",
    "octonion._compile_product": "generates the table product at import",
    "octonion._table_constants":
        "builds the table's constants at import; the bent-table fixture "
        "rebuilds them from a bent table",
    "octonion.Arithmetic.__init__": "builds EXACT and FLOAT at import",
    "suites._suite": "registers the suites at import",
}


def _members():
    """(module name, object) for every object a sixsphere module defines."""
    for info in pkgutil.iter_modules(sixsphere.__path__):
        modname = "sixsphere." + info.name
        for obj in vars(importlib.import_module(modname)).values():
            if getattr(obj, "__module__", None) == modname:
                yield info.name, obj


def _functions():
    """qualified name -> code object of every function defined in a
    sixsphere module, methods of its classes included."""
    root = sixsphere.__path__[0]
    out = {}

    def add(module, fn):
        fn = inspect.unwrap(fn)
        if inspect.isfunction(fn) and fn.__code__.co_filename.startswith(root):
            out["%s.%s" % (module, fn.__qualname__)] = fn.__code__

    for module, obj in _members():
        if not inspect.isclass(obj):
            add(module, obj)
            continue
        for attr in vars(obj).values():
            if isinstance(attr, (staticmethod, classmethod)):
                attr = attr.__func__
            elif isinstance(attr, property):
                attr = attr.fget
            add(module, attr)
    return out


def _commands(tmp_path):
    """Every subcommand, in both modes where it has two."""
    table = tmp_path / "pi7.csv"
    table.write_text("m,group,source\n7,Z,user\n13,Z/2,user\n")
    x = Octonion([F(3, 5), 0, F(4, 5), 0, 0, 0, 0, 0])
    inputs = {
        "so7-exact.json": twistor.conjugation_element(x).to_strings(),
        "so7-float.json": random_so7_float(rng_from_seed(3)).tolist(),
        "j-exact.json": cstruct.j_from_octonion(x).to_strings(),
        "j-float.json": cstruct.random_structure_float(
            rng_from_seed(3)).as_array().tolist(),
    }
    for name, rows in inputs.items():
        (tmp_path / name).write_text(json.dumps(rows))
    out = str(tmp_path / "out.json")
    verify = ["verify", "--all", "--samples", "2", "--seed", "1",
              "--table", str(table), "--json", out]
    return [
        ["verify", "--list"],
        verify,
        verify + ["--mode", "float"],
        ["degree", "--map", "rp7-cube", "--starts", "300", "--trials", "1",
         "--seed", "1", "--json", out],
        *(["companion", "--matrix", str(tmp_path / n), "--json", out]
          for n in ("so7-exact.json", "so7-float.json")),
        *(["recover", "--structure", str(tmp_path / n), "--json", out]
          for n in ("j-exact.json", "j-float.json")),
        ["chern", "--lemma22", "--json", out],
        ["homotopy", "--space", "s6", "--k", "3", "--json", out],
        ["homotopy", "--space", "xg", "--genus", "2", "--k", "3",
         "--json", out],
    ]


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    argvs = _commands(tmp_path_factory.mktemp("reach"))
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # a cached function is entered only on a miss: start with empty caches,
    # those of cached methods included
    for _, obj in _members():
        for fn in (obj, *(vars(obj).values() if inspect.isclass(obj) else ())):
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    codes = []
    sys.setprofile(record)
    try:
        for argv in argvs:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(argvs), list(zip(argvs, codes))
    return entered


def test_every_unreached_function_is_kept(reached):
    unreached = {name for name, code in _functions().items()
                 if code not in reached}
    assert unreached <= set(KEEP), sorted(unreached - set(KEEP))


def test_every_kept_name_exists_and_has_a_reason():
    names = _functions()
    assert not [k for k in KEEP if k not in names]
    assert all(reason.strip() for reason in KEEP.values())

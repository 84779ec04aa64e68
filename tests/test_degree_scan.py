"""`tools/degree_scan.py`: how `compare` reads two sides' request lines, and
the environment each side runs in."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "degree_scan.py"
_SPEC = importlib.util.spec_from_file_location("degree_scan", _PATH)
degree_scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(degree_scan)


def _line(seed=1, label="power:2", degree=2, residual=1e-12, error=None,
          rows=100, calls=3):
    """A request line as a worker prints it, with one trial."""
    trial = {"target": [1.0, 0.0], "degree": degree, "signs": [1] * degree,
             "preimages": [[0.5, 0.5]], "min_abs_det": 1.5,
             "max_residual": residual, "n_converged": degree, "resamples": 0}
    report = None if error else {"map": label, "degree": degree,
                                 "exact_differential": True,
                                 "trials": [trial]}
    return {"seed": seed, "label": label, "report": report, "error": error,
            "rows": rows, "calls": calls}


def _compare(parent, change, capsys):
    problems = degree_scan.compare(parent, change)
    return problems, capsys.readouterr().out


def test_identical_lines_are_byte_identical(capsys):
    problems, out = _compare([_line()], [_line(calls=2)], capsys)
    assert problems == 0
    assert "byte-identical reports 1" in out
    assert "largest move max_residual 0\n" in out
    assert "work power:2 rows parent 100 change 100, calls parent 3 " \
           "change 2" in out
    assert "newton rows per map equal" in out
    # a side whose engine counts nothing leaves the rows unknown
    _, out = _compare([_line(rows=None, calls=None)], [_line()], capsys)
    assert "rows parent None change 100" in out
    assert "newton rows per map unknown" in out


def test_an_integer_difference_is_a_problem(capsys):
    problems, out = _compare([_line()], [_line(degree=3, rows=90)], capsys)
    assert problems == 1
    assert "DIFFERS seed 1 power:2: degree, trial 0 degree, trial 0 signs, " \
           "trial 0 n_converged" in out
    assert "byte-identical reports 0" in out
    assert "newton rows per map differ" in out


def test_a_failure_on_one_side_is_a_problem(capsys):
    problems, out = _compare([_line()], [_line(error="ConflictingEstimates")],
                             capsys)
    assert problems == 1
    assert "FAILED change seed 1 power:2: ConflictingEstimates" in out
    assert "MISMATCH seed 1 power:2" in out
    assert "failed parent 0 change 1" in out
    # the same failure on both sides is no problem
    problems, out = _compare([_line(error="E")], [_line(error="E")], capsys)
    assert problems == 0 and "failed parent 1 change 1" in out


def test_a_float_move_is_reported_not_counted(capsys):
    problems, out = _compare([_line(), _line(seed=2)],
                             [_line(), _line(seed=2, residual=1.5e-12)], capsys)
    assert problems == 0
    assert "byte-identical reports 1" in out
    assert "largest move max_residual 5e-13 (seed 2 power:2)" in out
    assert "work power:2 rows parent 200 change 200, calls parent 6 " \
           "change 6" in out


def test_each_side_pins_every_blas_thread_count(monkeypatch, tmp_path):
    seen = {}

    class Popen:
        def __init__(self, args, cwd, env, stdout):
            seen.update(env)

    monkeypatch.setattr(degree_scan.subprocess, "Popen", Popen)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    degree_scan._run_side(tmp_path, range(1, 2), None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert seen[name] == "1", name
    assert seen["PYTHONDONTWRITEBYTECODE"] == "1"


"""CLI and suite-report plumbing: exit codes, JSON schema, determinism."""

import json
import os
from fractions import Fraction as F

import numpy as np
import pytest

from sixsphere import cli, cstruct, degree, sampling, suites, twistor
from sixsphere.cstruct import j_from_octonion
from sixsphere.errors import (BadConfig, DegenerateInput, FrameInvalid,
                              OutOfRange, RankError, UnknownSuite,
                              VerificationFailed)
from sixsphere.octonion import Octonion
from sixsphere.sampling import random_so7_float, rng_from_seed


def run_cli(argv):
    return cli.main(argv)


def test_unknown_suite_exit_code(capsys):
    assert run_cli(["verify", "--suite", "nosuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_run_suite_rejects_bad_config():
    with pytest.raises(UnknownSuite):
        suites.run_suite("nosuch")
    with pytest.raises(BadConfig):
        suites.run_suite("moufang", mode="approximate")
    with pytest.raises(BadConfig):
        suites.run_suite("moufang", samples=-1)


@pytest.mark.parametrize("call, error", [
    (lambda: degree.power_map(0), OutOfRange),
    (lambda: degree.power_map_preimages(Octonion.basis(1), 0), OutOfRange),
    (lambda: Octonion((1, 0, 0)), DegenerateInput),
    (lambda: sampling.rational_unit_octonion([1] * 6), OutOfRange),
    (lambda: sampling.rational_imaginary_unit([1] * 7), OutOfRange),
], ids=["power_map", "power_map_preimages", "octonion",
        "rational_unit_octonion", "rational_imaginary_unit"])
def test_bad_api_input_raises_a_named_error(call, error):
    with pytest.raises(error):
        call()


def test_suites_report_library_errors_and_raise_bugs(monkeypatch):
    def failed(lam, tol=None):
        raise VerificationFailed(
            "companion candidate fails the isotopy identity (defect 1)")

    def bug(lam, tol=None):
        raise TypeError("a bug in the code under test")

    for mode in ("float", "exact"):
        monkeypatch.setattr(twistor, "companion", failed)
        rep = suites.run_suite("prop41", samples=1, mode=mode)
        # one entry per companion asked for (exact mode asks three times)
        assert [f["kind"] for f in rep.failures] == ["companion"] * rep.checked

        monkeypatch.setattr(twistor, "companion", bug)
        with pytest.raises(TypeError):
            suites.run_suite("prop41", samples=1, mode=mode)


def test_sample_errors_become_failure_entries(monkeypatch):
    # a library error inside one sample is that sample's failure entry, with
    # its inputs, and the other samples still run
    def rank_error(*args):
        raise RankError("solutions span dimension 0, expected 2")

    def bug(*args):
        raise TypeError("a bug in the code under test")

    inputs = {"exact": {"x", "cos", "sin", "y"}, "float": {"j1", "j2"}}
    for mode in ("exact", "float"):
        checked = suites.run_suite("prop21", samples=3, mode=mode, seed=1).checked
        # exact samples recover through recover_x, a stack of one, float
        # ones through one stacked recovery of every sample
        monkeypatch.setattr(cstruct, "recover_each", rank_error)
        rep = suites.run_suite("prop21", samples=3, mode=mode, seed=1)
        assert rep.checked == checked == 3
        assert [f["kind"] for f in rep.failures] == ["sample-error"] * 3
        for f in rep.failures:
            assert f["error"] == "solutions span dimension 0, expected 2"
            assert set(f) == {"kind", "error"} | inputs[mode]
        monkeypatch.setattr(cstruct, "recover_each", bug)
        with pytest.raises(TypeError):
            suites.run_suite("prop21", samples=1, mode=mode)
        monkeypatch.undo()

    def frame_error(rng):
        raise FrameInvalid("frame is not orthonormal")

    monkeypatch.setattr(twistor, "random_so7_exact", frame_error)
    rep = suites.run_suite("prop41", samples=2, mode="exact", seed=1)
    assert rep.checked == 3   # two rotations and the automorphism
    assert rep.failures == [{"kind": "sample-error", "sample": n,
                             "error": "frame is not orthonormal"}
                            for n in range(2)]


#: prop41 failure kind -> whether its check fails on lam with companion res
PROP41_CHECK_FAILS = {
    "companion-exact": lambda lam, res, tol: res.residual != 0.0,
    "orbit-in-sections": lambda lam, res, tol: not twistor.sections_equal(
        twistor.so7_act(lam, twistor.canonical_section()),
        twistor.rp7_section(res.a)),
    "automorphism-isotropy": lambda lam, res, tol: not (
        res.a.imag().is_zero() and res.a.numerators[0] != 0
        and twistor.sections_equal(
            twistor.so7_act(lam, twistor.canonical_section()),
            twistor.canonical_section())),
    "action-identity": lambda lam, res, tol: twistor.verify_moufang_action(
        lam, res.a, [(Octonion.basis(1), Octonion.basis(2)),
                     (Octonion.basis(3), Octonion.basis(5))]) > tol,
    "section-identity": lambda lam, res, tol:
        twistor.verify_so7_section_identity(lam, res.a) > tol,
}


@pytest.mark.parametrize("mode, kinds", [
    ("exact", {"companion-exact", "orbit-in-sections", "automorphism-isotropy"}),
    ("float", {"action-identity", "section-identity"})])
def test_prop41_failures_carry_the_rotation_that_fails(mode, kinds,
                                                       monkeypatch):
    companion, seen = twistor.companion, []

    def wrong(lam, **tol):
        # the companion times e2, which is no companion of lam, and a
        # nonzero residual
        seen.append(lam)
        res = companion(lam, **tol)
        return twistor.CompanionResult(Octonion.basis(2) * res.a,
                                       res.kernel_dim, 1.0)

    monkeypatch.setattr(twistor, "companion", wrong)
    rep = suites.run_suite("prop41", samples=2, mode=mode, seed=1)
    assert {f["kind"] for f in rep.failures} == kinds
    for f in rep.failures:
        lam = twistor.SO7Element.from_strings(f["lam"])
        assert lam.exact == (mode == "exact") and lam in seen
        res = twistor.companion(lam, tol=rep.tolerance)
        assert PROP41_CHECK_FAILS[f["kind"]](lam, res, rep.tolerance)


def test_degrees_suite_and_cli_share_the_map_inventory(monkeypatch, capsys):
    visited = []

    def stub(family, seed=0, config=None):
        visited.append(family.name)
        return degree.DegreeReport(family.name, degree.MAPS[family.name][1],
                                   [])

    monkeypatch.setattr(degree, "mapping_degree", stub)
    monkeypatch.setattr(degree, "degree_on_rp7", stub)
    rep = suites.run_suite("degrees", seed=1)
    assert visited == list(degree.MAPS)
    assert rep.ok and rep.checked == len(degree.MAPS)
    with pytest.raises(SystemExit):
        run_cli(["degree", "--help"])
    # argparse may wrap the help inside a hyphenated name
    flat = "".join(capsys.readouterr().out.split())
    assert all(name in flat for name in degree.MAPS)


def test_verify_cli_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "lemma34", "--samples", "50",
                    "--seed", "7", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "lemma34" in text and "pass" in text
    payload = json.loads(out.read_text())
    assert payload["suite"] == "lemma34"
    assert payload["failures"] == []
    assert payload["checked"] == 50
    assert payload["max_residual"] is None    # exact mode


def test_verify_report_determinism():
    r1 = suites.run_suite("prop31", samples=40, seed=9).to_dict()
    r2 = suites.run_suite("prop31", samples=40, seed=9).to_dict()
    r1.pop("elapsed_ms"), r2.pop("elapsed_ms")
    assert json.dumps(r1) == json.dumps(r2)
    # a different seed still passes (determinism of the verdict)
    r3 = suites.run_suite("prop31", samples=40, seed=10)
    assert r3.ok


@pytest.mark.parametrize("argv", [
    ["degree", "--map", "power:0"],
    ["degree", "--map", "power:x"],
    ["degree", "--map", "identity", "--trials", "0"],
    ["degree", "--map", "identity", "--starts", "0"],
    ["verify", "--suite", "moufang", "--samples", "-1"],
    ["homotopy", "--space", "s6", "--k", "0"],
    ["homotopy", "--space", "xg", "--k", "1", "--genus", "-1"],
])
def test_usage_errors_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "moufang"],
    ["degree", "--map", "identity"],
])
def test_negative_seed_exit_2(argv, capsys):
    assert run_cli(argv + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0\n"


def test_negative_seed_raises_bad_config():
    # checked before a suite runs: a suite that reports library errors as
    # failure entries must not report this one
    for name in suites.SUITES:
        with pytest.raises(BadConfig, match="seed"):
            suites.run_suite(name, samples=1, seed=-1)
    with pytest.raises(BadConfig, match="seed"):
        degree.mapping_degree(degree.identity_map(), seed=-1)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "moufang", "--samples", "1"],
    ["degree", "--map", "identity", "--trials", "1", "--starts", "300"],
])
def test_unwritable_json_path_exit_2(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    assert run_cli(argv + ["--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == "error: cannot write %s: No such file or directory\n" % path
    assert out == ""  # the path is checked before any suite or engine runs


@pytest.mark.parametrize("leaf, reason", [
    ("", "Is a directory"), ("file.txt/report.json", "Not a directory")])
def test_json_path_in_no_folder_exit_2(leaf, reason, tmp_path, capsys):
    (tmp_path / "file.txt").write_text("")
    path = os.path.join(str(tmp_path), leaf)
    argv = ["degree", "--map", "identity", "--trials", "1", "--json", path]
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: cannot write %s: %s\n" % (path, reason))


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "moufang", "--mode", "float", "--samples", "1"],
    ["companion", "--matrix"],
])
def test_bad_tolerance_exit_2(argv, tol, tmp_path, capsys):
    # a negative or NaN tolerance would fail every float check, and an
    # infinite one pass every check: neither is a verification result
    if argv[-1] == "--matrix":
        path = tmp_path / "id.json"
        path.write_text(json.dumps(np.eye(8).tolist()))
        argv = argv + [str(path)]
    assert run_cli(argv + ["--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err == "error: tolerance must be a finite number >= 0\n"


def test_report_mode_is_the_mode_that_ran(monkeypatch):
    rep = suites.run_suite("prop31", samples=3, mode="float", seed=1)
    assert rep.ok and rep.mode == "exact" and rep.max_residual is None
    ran = []

    def degrees_stub(samples, mode, seed, tol, table=None):
        ran.append(mode)
        return 1, [], None

    monkeypatch.setitem(suites.SUITES, "degrees", degrees_stub)
    assert suites.run_suite("degrees", mode="exact").mode == "float"
    assert ran == ["float"]


def test_run_all_dispatches_every_suite(monkeypatch):
    called = []

    def stub(samples, mode, seed, tol, table=None):
        called.append((len(called), mode))
        return 1, [], None

    monkeypatch.setattr(suites, "SUITES", {k: stub for k in suites.SUITES})
    reports = suites.run_all(mode="exact", seed=3)
    assert len(reports) == len(suites.SUITES)
    assert all(r.ok for r in reports)


def test_run_all_passes_samples_through(monkeypatch):
    seen = []

    def stub(samples, mode, seed, tol, table=None):
        seen.append(samples)
        return 1, [], None

    monkeypatch.setattr(suites, "SUITES", {k: stub for k in suites.SUITES})
    assert [r.samples for r in suites.run_all(samples=0)] == [0] * len(seen)
    assert seen == [0] * len(suites.SUITES)
    seen.clear()
    suites.run_all()
    assert seen == [suites.DEFAULT_SAMPLES[k] for k in suites.SUITES]


def test_degree_cli(tmp_path, capsys):
    out = tmp_path / "deg.json"
    code = run_cli(["degree", "--map", "identity", "--trials", "2",
                    "--seed", "1", "--starts", "800", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["map"] == "identity" and payload["degree"] == 1
    assert len(payload["trials"]) == 2
    assert run_cli(["degree", "--map", "bogus"]) == 2


def test_companion_cli(tmp_path, capsys):
    rng = rng_from_seed(3)
    m = random_so7_float(rng)
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[float(x) for x in row] for row in m]))
    out = tmp_path / "a.json"
    code = run_cli(["companion", "--matrix", str(path), "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"a", "residual", "kernel_dim"}
    assert payload["residual"] < 1e-9
    assert payload["kernel_dim"] == 2
    a = np.array([float(s) for s in payload["a"]])
    assert abs(np.linalg.norm(a) - 1.0) < 1e-9


def test_companion_cli_exact_matrix(tmp_path):
    # identity matrix as exact strings
    rows = [["1" if i == j else "0" for j in range(8)] for i in range(8)]
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"rows": rows}))
    out = tmp_path / "a.json"
    assert run_cli(["companion", "--matrix", str(path), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["a"][0] in ("1", "-1")
    assert payload["residual"] == 0.0


_IDENTITY_INTS = [[int(i == j) for j in range(8)] for i in range(8)]
_IDENTITY_STRINGS_AND_A_FLOAT = [[str(x) for x in row] for row in _IDENTITY_INTS]
_IDENTITY_STRINGS_AND_A_FLOAT[1][2] = 0.0


@pytest.mark.parametrize("rows, exact", [(_IDENTITY_INTS, True),
                                         (_IDENTITY_STRINGS_AND_A_FLOAT, False)],
                         ids=["ints", "strings-and-a-float"])
def test_companion_cli_matrix_mode_follows_its_entries(rows, exact, tmp_path):
    # ints read exactly; one float entry makes the whole matrix float
    path, out = tmp_path / "m.json", tmp_path / "a.json"
    path.write_text(json.dumps(rows))
    assert run_cli(["companion", "--matrix", str(path), "--json", str(out)]) == 0
    a = json.loads(out.read_text())["a"]
    assert all("." not in x for x in a) == exact


@pytest.mark.parametrize("rows", [[[1, 0], [0, 1]], [["1", "0"], ["0", "1"]]])
def test_companion_cli_rejects_wrong_shape(rows, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rows))
    assert run_cli(["companion", "--matrix", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: expected an 8x8 matrix\n"


@pytest.mark.parametrize("argv", [["companion", "--matrix"],
                                  ["recover", "--structure"]])
@pytest.mark.parametrize("content", [None, "not json", '{"cols": []}'])
def test_unreadable_matrix_file_exit_2(argv, content, tmp_path, capsys):
    path = tmp_path / "m.json"
    if content is not None:
        path.write_text(content)
    assert run_cli(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("argv", [["companion", "--matrix"],
                                  ["recover", "--structure"]])
@pytest.mark.parametrize("rows", [[[1, 0], [1]], [["x", "0"], ["0", "1"]],
                                  [["1e400", "0"], ["0", "1"]]])
def test_bad_matrix_entries_exit_2(argv, rows, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rows))
    assert run_cli(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_chern_cli(tmp_path, capsys):
    code = run_cli(["chern", "--lemma22"])
    assert code == 0
    text = capsys.readouterr().out
    assert "euler number: 1" in text
    out = tmp_path / "chern.json"
    assert run_cli(["chern", "--lemma22", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["euler_number"] == 1
    assert payload["c2_normal"] == "a^2"
    assert run_cli(["chern"]) == 2


def test_homotopy_cli(tmp_path, capsys):
    assert run_cli(["homotopy", "--space", "s6", "--k", "1"]) == 0
    assert "ℤ/2" in capsys.readouterr().out
    out = tmp_path / "h.json"
    assert run_cli(["homotopy", "--space", "xg", "--genus", "3", "--k", "2",
                    "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["group"] == "ℤ/2"
    assert run_cli(["homotopy", "--space", "xg", "--k", "2"]) == 2


def test_homotopy_cli_with_table(tmp_path, capsys):
    table = tmp_path / "pi7.csv"
    table.write_text("m,group,source\n4,Z/2,user\n10,Z/24 (+) Z/5,user\n")
    assert run_cli(["homotopy", "--space", "s6", "--k", "4",
                    "--table", str(table)]) == 0
    assert "ℤ/2 ⊕ π_10(S⁷)" not in capsys.readouterr().out  # pi_10 resolves too


@pytest.mark.parametrize("content", [None, "m,group,source\nx,Z,src\n",
                                     "m,group,source\n4,Z/x,src\n",
                                     "m,group,source\n4,pi_y(S^7),src\n"])
@pytest.mark.parametrize("argv", [["homotopy", "--space", "s6", "--k", "4"],
                                  ["verify", "--suite", "homotopy-tables"]])
def test_bad_table_exit_2(argv, content, tmp_path, capsys):
    table = tmp_path / "pi7.csv"
    if content is not None:
        table.write_text(content)
    assert run_cli(argv + ["--table", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if content is None:
        assert str(table) in err


def test_verify_all_bad_table_fails_before_any_suite(monkeypatch, tmp_path,
                                                     capsys):
    def never(*args, **kwargs):
        raise AssertionError("a suite ran before the table was read")

    monkeypatch.setattr(suites, "run_suite", never)
    missing = tmp_path / "missing.csv"
    assert run_cli(["verify", "--all", "--table", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err


def test_verify_with_table_checks_resolution(tmp_path, capsys):
    table = tmp_path / "pi7.csv"
    table.write_text("m,group,source\n7,Z,user\n13,Z/2,user\n")
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--suite", "homotopy-tables", "--table",
                    str(table), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["checked"] == 9


def test_recover_cli(tmp_path, capsys):
    from fractions import Fraction as F
    x = Octonion([F(3, 5), 0, F(4, 5), 0, 0, 0, 0, 0])
    j = j_from_octonion(x)
    path = tmp_path / "j.json"
    path.write_text(json.dumps(j.to_strings()))
    out = tmp_path / "x.json"
    assert run_cli(["recover", "--structure", str(path), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["round_trip_distance"] == 0.0
    rec = Octonion.from_strings(payload["x"])
    from sixsphere.cstruct import equivalent
    assert equivalent(rec, x)


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_recover_cli_near_the_locus_perpendicular_to_1_e1(tmp_path):
    # (x0, x1) of norm 2.2e-7: recovery still reproduces the structure
    x = Octonion([1e-7, -2e-7, 0.6, 0, 0.8, 0, 0, 0])
    path = tmp_path / "j.json"
    path.write_text(json.dumps(j_from_octonion(x).to_strings()))
    out = tmp_path / "x.json"
    assert run_cli(["recover", "--structure", str(path), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["round_trip_distance"] <= 1e-9


@pytest.mark.parametrize("command", ["degree", "companion", "recover"])
def test_library_failure_exits_1_with_one_error_line(command, monkeypatch,
                                                     tmp_path, capsys):
    def fail(*args, **kwargs):
        raise VerificationFailed("synthetic failure")

    identity = [[int(i == k) for k in range(8)] for i in range(8)]
    x = Octonion([F(3, 5), 0, F(4, 5), 0, 0, 0, 0, 0])
    argv, module, name = {
        "degree": (["degree", "--map", "identity"], degree, "named_degree"),
        "companion": (["companion", "--matrix",
                       _write_json(tmp_path / "m.json", identity)],
                      twistor, "companion"),
        "recover": (["recover", "--structure",
                     _write_json(tmp_path / "j.json", j_from_octonion(x).to_strings())],
                    cstruct, "_recover"),
    }[command]
    monkeypatch.setattr(module, name, fail)
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "error: synthetic failure\n"


def test_verify_list(capsys):
    assert run_cli(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ("octonion-axioms", "moufang", "prop21", "lemma22", "prop31",
                 "lemma34", "thm33-lift", "prop41", "prop42", "degrees",
                 "homotopy-tables"):
        assert name in out


def test_verify_failure_exit_code(monkeypatch):
    def failing(samples, mode, seed, tol, table=None):
        return 1, [{"kind": "synthetic"}], None

    monkeypatch.setitem(suites.SUITES, "moufang", failing)
    assert run_cli(["verify", "--suite", "moufang"]) == 1

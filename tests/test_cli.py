"""Command-line interface: exit codes, JSON stability, file input."""

import json
import os
import subprocess
import sys

import pytest

import axial
from axial import catalog, cli, miyamoto
from axial.cli import _all_basis_cocycles_jordan, main
from axial.extension import Cocycle, build_extension, cocycle_space
from axial.linalg import sparse_vector


# e1 + (2/3)e2 is a 3-eigenvector of e1 whose square has a 3-component,
# outside the cell 3*3 = {1, 0}: an escape from a cell that holds 0
ESCAPE_ZERO_CELL = ("dim 2\nbasis e1 e2\nproduct 1 1: 1 e1\nproduct 1 2: 3 e1, 3 e2\n"
                    "product 2 2: 1 e2\nset X: e1 e2\nlaw F: 1 3 0\ncell F 3 3: 1 0\n"
                    "cell F 0 0: 0\ncocycle t 1 2: 1\n")
# b2 b2 = 0 puts 0 in the spectrum of b1, and 0 is no value of the law
SPECTRUM_OUTSIDE = ("dim 2\nbasis b1 b2\nproduct 1 1: 1 b1\nset X: b1\nlaw F: 1\n"
                    "cocycle t 1 2: 1\n")

# (id, file, line) of the refusals of extend and cocycles on X under F
EXTENSION_REFUSALS = [
    # b2 is a 0-eigenvector of b1 with b2 b2 = b2, and the cell 0*0 is empty
    ("escape-qq", "dim 2\nbasis b1 b2\nproduct 1 1: 1 b1\nproduct 2 2: 1 b2\nset X: b1\n"
     "law F: 1 0\ncocycle t 1 2: 1\n",
     "error: eigenspace product escapes the law cell (0, 0): components at [0]"),
    # over Q(i): b2 is an i-eigenvector of b1 with b2 b2 = b2
    ("escape-qi", "field QI\ndim 2\nbasis b1 b2\nproduct 1 1: 1 b1\nproduct 1 2: i b2\n"
     "product 2 2: 1 b2\nset X: b1\nlaw F: 1 i\ncocycle t 1 2: 1\n",
     "error: eigenspace product escapes the law cell (i, i): components at [i]"),
    # b1 b2 = b1 + b2: L_b1 is a Jordan block, and condition (1) holds
    ("not-semisimple", "dim 2\nbasis b1 b2\nproduct 1 1: 1 b1\nproduct 1 2: 1 b1, 1 b2\n"
     "product 2 2: 1 b2\nset X: b1\nlaw F: 1 0\ncocycle t 1 2: 1\n",
     "error: axis candidate b1 is not semisimple"),
    # b1 b1 = 2 b1 is no idempotent: refused before the extension is
    # built, whether or not condition (1) holds
    ("not-idempotent-cond1", "dim 2\nbasis b1 b2\nproduct 1 1: 2 b1\nproduct 2 2: 1 b2\n"
     "set X: b1\nlaw F: 2 0\ncell F 0 0: 0\ncocycle t 1 1: 1\n",
     "error: axis candidate b1 is not a nonzero idempotent"),
    ("not-idempotent-escape", "dim 2\nbasis b1 b2\nproduct 1 1: 2 b1\nproduct 2 2: 1 b2\n"
     "set X: b1\nlaw F: 2 0\ncell F 0 0: 0\ncocycle t 1 2: 1\n",
     "error: axis candidate b1 is not a nonzero idempotent"),
    ("escape-zero-cell", ESCAPE_ZERO_CELL,
     "error: eigenspace product escapes the law cell (3, 3): components at [3]"),
    ("spectrum-outside", SPECTRUM_OUTSIDE, "error: axis b1 has eigenvalues outside the law: [0]"),
    # e1 is no idempotent: the candidate is refused before L_e1, with
    # denominators up to 7919, is decomposed
    ("stalling-candidate",
     "dim 4\nbasis e1 e2 e3 e4\nproduct 1 1: 26/7 e2, -9/2 e3, -37 e4\n"
     "product 1 2: 1/5611 e1, 13 e2, 26/7919 e3, 3/7919 e4\n"
     "product 1 3: 1/427 e1, 33 e2, 1/7919 e4\nproduct 1 4: -2 e1, -6 e2, -15/7 e3, 36 e4\n"
     "set X: e1\nlaw F: 1 0 1/2\ncocycle t 1 2: 1\n",
     "error: axis candidate e1 is not a nonzero idempotent"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verified_is_zero(self, capsys):
        code, out, _ = run(capsys, "check-axial", "--catalog", "B",
                           "--axes", "X12", "--law", "FB")
        assert code == 0 and "certified: True" in out

    def test_violation_is_one(self, capsys):
        # D's spectrum {1, 5} does not fit B's law {1, -1}
        code, out, _ = run(capsys, "check-axial", "--catalog", "D",
                           "--axes", "X12", "--law", "FD2")
        assert code == 1

    def test_usage_error_is_two(self, capsys):
        code, _, err = run(capsys, "check-axial", "--catalog", "nope",
                           "--axes", "X12", "--law", "FB")
        assert code == 2 and "error" in err

    def test_missing_subcommand_is_two(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_io_error_is_two(self, capsys):
        code, _, err = run(capsys, "jordan", "--file", "/nonexistent/x.alg")
        assert code == 2

    def test_radical_unavailable_is_one(self, capsys):
        code, out, _ = run(capsys, "radical", "--catalog", "F",
                           "--axes", "X12")
        assert code == 1

    @pytest.mark.parametrize("text", [
        "dim x\n",
        "dim 2\nbasis a b\ncocycle th a b: 1\n",
        "dim 1\nbasis a\nproduct 1 1: 1/0 a\n",
        "dim 1\nbasis a\nproduct 1 1: 1 a\nproduct 1 1: 2 a\n",
    ])
    def test_bad_algebra_file_is_two(self, tmp_path, text):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        src = os.path.dirname(os.path.dirname(axial.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "axial.cli", "jordan",
                               "--file", str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "line " in proc.stderr


    def test_negative_dim_is_two_by_name(self, tmp_path):
        path = tmp_path / "neg.alg"
        path.write_text("dim -3\n")
        src = os.path.dirname(os.path.dirname(axial.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "axial.cli", "jordan",
                               "--file", str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stderr == "error: line 1: dim must be nonnegative, got -3\n"

    @pytest.mark.parametrize("text, message", [
        ("dim 2\nbasis a b\nproduct 1 1: 1 a\nproduct 2 2: 1 b\n"
         "element a2: 2 a\nset S: a2\n", "error: axis candidate (2)a is not a nonzero idempotent"),
        # the zero element is idempotent but not an axis
        ("dim 1\nbasis e\nproduct 1 1: 1 e\nelement z: 0 e\nset S: z\n",
         "error: axis candidate 0 is not a nonzero idempotent"),
        # a*b = a + b: L_a is a Jordan block with eigenvalue 1
        ("dim 2\nbasis a b\nproduct 1 1: 1 a\nproduct 1 2: 1 a, 1 b\n"
         "set S: a\n", "error: axis candidate a is not semisimple"),
    ])
    def test_fusion_min_non_axis_is_two(self, tmp_path, text, message):
        path = tmp_path / "s.alg"
        path.write_text(text)
        src = os.path.dirname(os.path.dirname(axial.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "axial.cli", "fusion-min",
                               "--file", str(path), "--axes", "S"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_miyamoto_zero_axis_is_two(self, tmp_path):
        # the zero element is idempotent but not an axis; its sign map would
        # be the identity
        path = tmp_path / "z.alg"
        path.write_text(
            "dim 1\nbasis e\nproduct 1 1: 1 e\nelement z: 0 e\nset S: z\n"
            "law J12: 0 1/2 1\ncell J12 0 0: 0\ncell J12 0 1/2: 1/2\n"
            "cell J12 1/2 1/2: 0 1\ncell J12 1/2 1: 1/2\n")
        src = os.path.dirname(os.path.dirname(axial.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "axial.cli", "miyamoto",
                               "--file", str(path), "--axes", "S", "--law", "J12"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "not a nonzero idempotent" in proc.stderr

    @pytest.mark.parametrize("argv, text, line", [
        # extend and cocycles pass each axis through one gate, so they refuse
        # the same files with the same line; the ids of extend's cases are
        # the bare names
        *(pytest.param(argv, text, line, id=prefix + name)
          for prefix, argv in [("", ("extend", "--cocycle", "t")), ("cocycles-", ("cocycles",))]
          for name, text, line in EXTENSION_REFUSALS),
        # the refusals of the Miyamoto map: a law value that the grading
        # does not name, and a sign map that is not multiplicative because
        # the axis escapes a law cell, named by the line of the gate
        pytest.param(("miyamoto", "--catalog", "B", "--axes", "X12", "--law", "J12"), None,
                     "error: value -1 not covered by the grading", id="miyamoto-uncovered"),
        pytest.param(("miyamoto",), ESCAPE_ZERO_CELL,
                     "error: eigenspace product escapes the law cell (3, 3): components at [3]",
                     id="miyamoto-sign-map"),
    ])
    def test_extend_refusals_are_rendered(self, tmp_path, argv, text, line):
        if text is not None:
            path = tmp_path / "f.alg"
            path.write_text(text)
            argv += ("--file", str(path), "--axes", "X", "--law", "F")
        src = os.path.dirname(os.path.dirname(axial.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "axial.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [line]

    def test_zero_axis_is_refused(self, tmp_path):
        # an axis is a nonzero idempotent: cocycles refuses the zero element
        # at the axis gate, and check-axial reports it
        path = tmp_path / "z.alg"
        path.write_text(
            "dim 1\nbasis e\nproduct 1 1: 1 e\nelement z: 0 e\nset S: z\n"
            "law J12: 0 1/2 1\ncell J12 0 0: 0\ncell J12 0 1/2: 1/2\n"
            "cell J12 1/2 1/2: 0 1\ncell J12 1/2 1: 1/2\n")
        src = os.path.dirname(os.path.dirname(axial.__file__))
        env = dict(os.environ, PYTHONPATH=src)

        def axial_cli(*argv):
            return subprocess.run([sys.executable, "-m", "axial.cli", *argv,
                                   "--file", str(path), "--axes", "S", "--law", "J12"],
                                  capture_output=True, text=True, env=env)

        proc = axial_cli("cocycles")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["error: axis candidate 0 is not a nonzero idempotent"]
        proc = axial_cli("check-axial", "--json")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert ["0", "not_idempotent", "0"] in doc["violations"]
        assert doc["axes_report"][0]["is_axis"] is False


    @pytest.mark.parametrize("argv, message", [
        (("--catalog", "Nope"), "unknown catalog name 'Nope'"),
        (("--catalog", "S", "--param", "n=5/2"), "entry 'S' needs an integer n, got 5/2"),
        (("--catalog", "JordanD", "--param", "n=1025"),
         "JordanD n=1025 has dim 1025, above the limit 1024"),
    ])
    def test_catalog_error_is_two(self, argv, message):
        # the message prints as written: no traceback, no quotes around it
        src = os.path.dirname(os.path.dirname(axial.__file__))
        proc = subprocess.run([sys.executable, "-m", "axial.cli", "jordan", *argv, "--json"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"


def test_fusion_min_scan_is_bounded(tmp_path):
    # e1 e1 = e1 and e1 ej = 3 ej for j = 2..41: L_e1 = diag(1, 3, ..., 3),
    # whose polynomial has constant -3^40.  Trial division up to its square
    # root is about 3.5e9 steps; the Gershgorin bound 3 leaves three
    dim = 41
    path = tmp_path / "d41.alg"
    path.write_text("\n".join([
        f"dim {dim}", "basis " + " ".join(f"e{j}" for j in range(1, dim + 1)),
        "product 1 1: 1 e1", *(f"product 1 {j}: 3 e{j}" for j in range(2, dim + 1)),
        "set X: e1", ""]))
    src = os.path.dirname(os.path.dirname(axial.__file__))
    proc = subprocess.run([sys.executable, "-m", "axial.cli", "fusion-min",
                           "--file", str(path), "--axes", "X", "--json"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["law"]["values"] == ["1", "3"]


def test_cached_parser_survives_a_usage_error(capsys):
    # one parser serves every main call in a process: a run after a failed
    # parse prints what a fresh process prints, and so does the failed run
    src = os.path.dirname(os.path.dirname(axial.__file__))

    def fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "axial.cli", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    bad = ["miyamoto", "--catalog", "B", "--axes", "X12", "--law", "FB", "--cap", "0"]
    good = ["spectrum", "--catalog", "B", "--axes", "X12", "--law", "FB", "--json"]
    cli.build_parser.cache_clear()
    in_process = [run(capsys, *bad), run(capsys, *good)]
    assert cli.build_parser() is cli.build_parser()
    assert in_process[0][0] == 2 and in_process[1][0] == 0
    assert in_process == [fresh(bad), fresh(good)]


class TestJson:
    def test_byte_identical(self, capsys):
        args = ("cocycles", "--catalog", "Monster4", "--axes", "X01",
                "--law", "M2half", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["quotient_dim"] == 1 and doc["space_dim"] == 5

    def test_sorted_keys(self, capsys):
        _, out, _ = run(capsys, "jordan", "--catalog", "JordanA",
                        "--param", "n=2", "--json")
        doc = json.loads(out)
        assert list(doc) == sorted(doc)
        assert doc["jordan"] is True


VIOLATING_FILE = """field QQ
dim 2
basis e1 e2
product 1 1: 1 e1
product 1 2: -1 e1, -1 e2
product 2 2: 1 e2
element a: 2 e1
set X: e1 a
law FX: 1 -1
"""


class TestViolations:
    def test_rendered_without_reprs(self, capsys, tmp_path):
        # FX leaves the (-1, -1) cell empty, so e1 shows a fusion violation;
        # 2e1 is not idempotent and has spectrum {-2, 2}
        path = tmp_path / "v.alg"
        path.write_text(VIOLATING_FILE)
        code, out, _ = run(capsys, "check-axial", "--file", str(path),
                           "--axes", "X", "--law", "FX")
        assert code == 1 and "Scalar(" not in out
        assert "violation: e1 fusion_violation [-1, -1, 1, e1 + (2)e2, e1 + (2)e2]" in out
        assert "violation: (2)e1 not_idempotent (2)e1" in out
        code, out, _ = run(capsys, "check-axial", "--file", str(path),
                           "--axes", "X", "--law", "FX", "--json")
        assert code == 1 and "Scalar(" not in out
        assert ["(2)e1", "spectrum_outside_law", "[-2, 2]"] in json.loads(out)["violations"]
        code, out, _ = run(capsys, "check-axial", "--catalog", "D",
                           "--axes", "X12", "--law", "FD2")
        assert code == 1 and "Scalar(" not in out
        assert "violation: e2 spectrum_outside_law [0]" in out
        code, _, err = run(capsys, "cocycles", "--catalog", "D",
                           "--axes", "X12", "--law", "FD2")
        assert code == 2 and "Scalar(" not in err


class TestCap:
    def test_cap_exceeded_exit_zero_completed_false(self, capsys):
        code, out, _ = run(capsys, "miyamoto", "--catalog", "I",
                           "--axes", "Xab", "--law", "FI",
                           "--cap", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["axes_completed"] is False
        assert doc["group_completed"] is False

    def test_unnamed_grading_flips_something(self, capsys):
        # J12 names no grading on JordanC; the all-plus grading would make
        # every tau the identity and the group trivial
        code, out, _ = run(capsys, "miyamoto", "--catalog", "JordanC",
                           "--axes", "family", "--law", "J12",
                           "--cap", "20", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["group_order"] > 1

    @pytest.mark.parametrize("name,params,key,law,cap", [
        ("JordanC", {"n": 3}, "family", "J12", 20), ("I", None, "Xab", "FI", 50)])
    def test_each_tau_map_is_built_once(self, capsys, monkeypatch, name, params, key,
                                        law, cap):
        # the generators of the group are the closure's own maps:
        # tau_automorphism runs on the first given axis of each symmetry
        # orbit, in list order, and on no later member and no closure image,
        # whose maps are conjugates.  JordanC n = 3 has 5 orbits of its 27
        # family axes; I has no symmetry, so both of its axes
        built = []
        real = miyamoto.tau_automorphism

        def counting(algebra, a, law, grading):
            built.append(tuple(a))
            return real(algebra, a, law, grading)
        monkeypatch.setattr(miyamoto, "tau_automorphism", counting)
        monkeypatch.setattr(cli, "tau_automorphism", counting, raising=False)
        argv = ["--catalog", name, "--axes", key, "--law", law, "--cap", str(cap)]
        if params:
            argv += ["--param", ",".join(f"{k}={v}" for k, v in params.items())]
        code, out, _ = run(capsys, "miyamoto", *argv, "--json")
        assert code == 0
        entry = catalog.build(name, params)
        given = list(dict.fromkeys(map(tuple, entry.axis_sets[key])))
        firsts = [a for a, orbit in zip(given, entry.algebra.orbit_maps(given)) if orbit is None]
        assert built == firsts
        assert len(built) == {"JordanC": 5, "I": 2}[name] < json.loads(out)["axis_count"]

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_usage_error(self, capsys, cap):
        code, _, err = run(capsys, "miyamoto", "--catalog", "I",
                           "--axes", "Xab", "--law", "FI", f"--cap={cap}")
        assert code == 2 and "--cap" in err


class TestFileAndExport:
    def test_export_parses_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "--export", "D")
        assert code == 0
        path = tmp_path / "d.alg"
        path.write_text(out)
        code, out2, _ = run(capsys, "check-axial", "--file", str(path),
                            "--axes", "X16", "--law", "FD2")
        assert code == 0 and "certified: True" in out2

    def test_catalog_listing_includes_stubs(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        doc = json.loads(out)
        names = {e["name"] for e in doc["entries"]}
        assert "Monster4" in names and "Albert" in names
        assert any(e["stub"] for e in doc["entries"])

    def test_stub_build_is_error(self, capsys):
        code, _, err = run(capsys, "jordan", "--catalog", "T5")
        assert code == 2


class TestReproduce:
    def test_unknown_bundle(self, capsys):
        assert run(capsys, "reproduce", "nope")[0] == 2

    def test_default_bundles_match_reference(self, capsys):
        # the frozen answers of the benchmark's paper-suite workload
        path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "bench", "reference", "paper-suite.json")
        with open(path) as fh:
            reference = json.load(fh)
        assert len(reference) == 7
        for bundle, expected in reference.items():
            code, out, _ = run(capsys, "reproduce", bundle, "--json")
            assert code == 0
            assert json.loads(out) == expected, bundle

    @pytest.mark.parametrize("name", [
        "table1", "table2", "table3", "monster", "jordan-simple", "jordan-small",
        "jordan-dim4", "jordan-simple-extended"])
    def test_output_bytes_match_the_frozen_run(self, capsys, name):
        # stdout bytes and exit code of reproduce --json, frozen in tests/data
        data = os.path.join(os.path.dirname(__file__), "data")
        with open(os.path.join(data, "reproduce-exit-codes.json")) as fh:
            codes = json.load(fh)
        with open(os.path.join(data, f"reproduce-{name}.json"), "rb") as fh:
            frozen = fh.read()
        bundle, extended = name.removesuffix("-extended"), name.endswith("-extended")
        code, out, _ = run(capsys, "reproduce", bundle, "--json",
                           *(["--extended"] if extended else []))
        assert out.encode() == frozen
        assert code == codes[name]

    @pytest.mark.parametrize("name,args", [
        ("miyamoto-jordanc3", ["--catalog", "JordanC", "--param", "n=3", "--axes", "family",
                               "--law", "J12", "--cap", "20"]),
        ("miyamoto-jordand16", ["--catalog", "JordanD", "--param", "n=16",
                                "--axes", "family", "--law", "J12"]),
        ("miyamoto-i", ["--catalog", "I", "--axes", "Xab", "--law", "FI", "--cap", "50"])])
    def test_miyamoto_bytes_match_the_frozen_run(self, capsys, name, args):
        # stdout bytes and exit code of miyamoto --json, frozen in tests/data:
        # a group capped inside the closure, one over QI and one whose pair
        # orders all pass the power limit
        data = os.path.join(os.path.dirname(__file__), "data")
        with open(os.path.join(data, "miyamoto-exit-codes.json")) as fh:
            codes = json.load(fh)
        with open(os.path.join(data, f"{name}.json"), "rb") as fh:
            frozen = fh.read()
        code, out, _ = run(capsys, "miyamoto", *args, "--json")
        assert out.encode() == frozen
        assert code == codes[name]

    with open(os.path.join(os.path.dirname(__file__), "data", "cli-pins.json")) as fh:
        _PINS = json.load(fh)

    @pytest.mark.parametrize("name", sorted(_PINS))
    def test_pinned_bytes_match_the_frozen_run(self, capsys, name):
        # stdout, stderr and exit code of runs that read matrix rows:
        # frobenius and radical on A-I, cocycle class reps, decompose,
        # table-3 extend and catalog --export, frozen in tests/data
        pin = self._PINS[name]
        code, out, err = run(capsys, *pin["argv"])
        assert out.encode() == pin["stdout"].encode()
        assert err == pin["stderr"]
        assert code == pin["code"]

    def test_table3_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce", "table3")
        assert code == 0
        assert "FAIL" not in out and "all checks passed" in out

    @pytest.mark.parametrize("name,axes,law", [
        ("B", "X12", "FB"), ("Monster4", "all", "M2half"), ("S", "standard", "J12"),
        ("J25", "no_unity", "J12"), ("JordanD", "family", "J12")])
    def test_jordan_verdict_matches_per_basis_loop(self, name, axes, law):
        # one extension by a basis of Z against one extension per basis
        # cocycle; B and Monster4 have a non-Jordan extension
        entry = catalog.build(name)
        alg, axes, law = entry.algebra, entry.axis_sets[axes], entry.laws[law]
        cs = cocycle_space(alg, axes, law)
        per_basis = all(
            build_extension(alg, Cocycle([sparse_vector(v)], alg.dim, alg.tag))[0]
            .jordan_check() is None
            for v in cs.space.basis)
        assert _all_basis_cocycles_jordan(cs) == per_basis
        assert per_basis == (name not in ("B", "Monster4"))

import json
import math
import os
import subprocess
import sys

import pytest

from cstrans.cli import COMMANDS, RunConfig, main, run

def write_fixture(tmp_path, doc, name="fix.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_kernel_compare_standard_passes(self, tmp_path):
        out = tmp_path / "kc.json"
        code = run(RunConfig("kernel-compare", output=str(out)))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        first = doc["reports"][0]
        assert first["re"] == pytest.approx(2.0, abs=1e-12)
        assert first["abs_diff"] <= 1e-10

    def test_kernel_compare_passes_close_to_the_circle(self, tmp_path):
        # On the unit circle the rule's error would fall only like 0.9999^N,
        # too slowly to stabilize within the 2^16-node cap.
        case = {"a": [0.9, 0.0], "h": [[0.0, 0.0], [1.0, 0.0]], "zeta_angle": 0.3, "r": 0.9999}
        out = tmp_path / "kc.json"
        code = run(RunConfig("kernel-compare", fixtures=write_fixture(tmp_path, {"cases": [case]}),
                             output=str(out)))
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_factorize_standard_passes(self, tmp_path):
        out = tmp_path / "fact.json"
        assert run(RunConfig("factorize", output=str(out))) == 0
        doc = json.loads(out.read_text())
        assert all(rep["pass"] for rep in doc["reports"])
        assert all(rep["psi_at_zero"] <= 1e-14 for rep in doc["reports"])

    def test_lemma1_bad_base_point_is_input_error(self, tmp_path, capsys):
        doc = {
            "measures": [[{"angle": 0.0, "re": 1.0, "im": 0.0}]],
            "self_maps": [{"kind": "polynomial", "coeffs": [[0.1, 0.0], [0.5, 0.0]]}],
            "cases": [{"measure": 0, "self_map": 0}],
        }
        code = run(RunConfig("verify-lemma1", fixtures=write_fixture(tmp_path, doc)))
        assert code == 2
        assert "psi(0)=0" in capsys.readouterr().err

    def test_lemma1_base_point_follows_the_tolerance_table(self, tmp_path, capsys):
        # |psi(0)| = 5e-13 exceeds the table's base_point of 1e-14
        doc = {
            "measures": [[{"angle": 0.0, "re": 1.0, "im": 0.0}]],
            "self_maps": [{"kind": "polynomial", "coeffs": [[5e-13, 0.0], [0.5, 0.0]]}],
            "cases": [{"measure": 0, "self_map": 0}],
        }
        args = ["verify-lemma1", "--fixtures", write_fixture(tmp_path, doc),
                "--out", str(tmp_path / "l1.json"), "--degree-cap", "2"]
        assert main(args) == 2
        assert "cases[0]: precondition psi(0)=0 violated" in capsys.readouterr().err
        assert main(args + ["--tol", "base_point=1e-12"]) == 0

    def test_malformed_json_is_input_error_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"measures": [\n  [{"angle": 0.0,]\n]}')
        code = run(RunConfig("verify-bound", fixtures=str(path)))
        assert code == 2
        err = capsys.readouterr().err
        assert ":2:" in err  # line-anchored diagnostic

    def test_missing_case_field_is_input_error(self, tmp_path, capsys):
        doc = {"measures": [], "self_maps": [], "cases": [{"self_map": 0}]}
        code = run(RunConfig("verify-bound", fixtures=write_fixture(tmp_path, doc)))
        assert code == 2
        assert "cases[0]" in capsys.readouterr().err

    def test_verify_bound_honours_factorization_tolerance(self, tmp_path):
        # lambda_{1/4} factors with a reconstruction residual near 4e-16
        doc = {
            "measures": [[{"angle": 0.0, "re": 1.0, "im": 0.0}]],
            "self_maps": [{"kind": "mobius", "a": [0.25, 0.0]}],
            "cases": [{"measure": 0, "self_map": 0}],
        }
        path = write_fixture(tmp_path, doc)
        cfg = RunConfig("verify-bound", fixtures=path, output=str(tmp_path / "rep.json"),
                        degree_cap=4)
        assert run(cfg) == 0
        cfg.tolerances = {"factorize_residual": 1e-17}
        assert run(cfg) == 1

    def test_nonconvergence_names_the_case(self, tmp_path, capsys):
        doc = {
            "measures": [[{"angle": 0.0, "re": 1.0, "im": 0.0}]],
            "self_maps": [
                {"kind": "mobius", "a": [0.5, 0.0]},
                {"kind": "blaschke", "zeros": [[0.3, 0.0], [0.0, -0.4]]},
            ],
            "cases": [{"measure": 0, "self_map": 0}, {"measure": 0, "self_map": 1}],
        }
        cfg = RunConfig("verify-bound", fixtures=write_fixture(tmp_path, doc), degree_cap=4)
        assert run(cfg) == 2
        err = capsys.readouterr().err
        assert "cases[1]: " in err and "did not stabilize" in err

    @pytest.mark.parametrize(
        "command, doc, anchor",
        [
            ("verify-lemma2", {"measures": [[{"angle": 0.0, "re": math.nan, "im": 0.0}]],
                               "cases": [{"measure": 0, "a": [0.5, 0.0]}]}, "measures[0][0]"),
            ("verify-lemma2", {"measures": [[{"angle": math.inf, "re": 1.0, "im": 0.0}]],
                               "cases": [{"measure": 0, "a": [0.5, 0.0]}]}, "measures[0][0]"),
            ("factorize", {"self_maps": [{"kind": "mobius", "a": [math.nan, 0.0]}],
                           "cases": [{"self_map": 0}]}, "self_maps[0]"),
            ("factorize", {"self_maps": [{"kind": "polynomial", "coeffs": [[0.1, 0.0], [math.nan, 0.0]]}],
                           "cases": [{"self_map": 0}]}, "self_maps[0]"),
        ],
        ids=["atom-weight-nan", "atom-angle-inf", "mobius-a-nan", "polynomial-coeff-nan"],
    )
    def test_non_finite_fixture_number_is_input_error(self, tmp_path, capsys, command, doc, anchor):
        # json writes and reads NaN and Infinity literals
        code = run(RunConfig(command, fixtures=write_fixture(tmp_path, doc)))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {anchor}: ") and "finite" in err

    @pytest.mark.parametrize(
        "field, value, anchor",
        [
            ("zeta_angle", math.inf, "zeta_angle"),
            ("h", [[0.5, 0.0], [math.nan, 0.0]], "h[1]"),
            ("r", math.nan, "r"),
            ("a", [math.nan, 0.0], "a"),
        ],
        ids=["zeta-angle-inf", "h-coeff-nan", "r-nan", "a-nan"],
    )
    def test_non_finite_kernel_compare_field_is_input_error(self, tmp_path, capsys, field, value, anchor):
        case = {"a": [0.5, 0.0], "h": [[1.0, 0.0], [0.5, 0.0]], "zeta_angle": 1.0, "r": 0.9}
        case[field] = value
        code = run(RunConfig("kernel-compare", fixtures=write_fixture(tmp_path, {"cases": [case]})))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cases[0].{anchor}: ") and "finite" in err

    @pytest.mark.parametrize(
        "h, anchor",
        [
            ([[1.0, 0.0, 7.0], [0.0, 1.0]], "h[0]"),
            ([[1.0, 0.0], [0.0, 1.0, "junk"]], "h[1]"),
            ([[None, 0.0]], "h[0]"),
            ([{}], "h[0]"),
            ({}, "h"),
            ([[10**400, 0.0]], "h[0]"),
        ],
        ids=["triple", "junk-triple", "null-re", "object", "not-an-array", "huge-integer"],
    )
    def test_malformed_kernel_compare_coefficient_is_input_error(self, tmp_path, capsys, h, anchor):
        case = {"a": [0.5, 0.0], "h": h, "zeta_angle": 1.0, "r": 0.9}
        code = run(RunConfig("kernel-compare", fixtures=write_fixture(tmp_path, {"cases": [case]})))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cases[0].{anchor}: ")

    def test_failed_verification_is_exit_one(self, tmp_path):
        # an impossible tolerance turns a passing comparison into a failure
        out = tmp_path / "kc.json"
        cfg = RunConfig(
            "kernel-compare", output=str(out), tolerances={"kernel_compare": 1e-30}
        )
        assert run(cfg) == 1

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(Exception):
            RunConfig("verify-bound", tolerances={"nope": 1.0}).tol("nope")


class TestFixtureHandling:
    def test_external_fixture_roundtrip(self, tmp_path):
        doc = {
            "measures": [[{"angle": 0.0, "re": 1.0, "im": 0.0}]],
            "self_maps": [{"kind": "mobius", "a": [0.5, 0.0]}],
            "cases": [{"measure": 0, "self_map": 0}],
        }
        out = tmp_path / "rep.json"
        code = run(
            RunConfig("verify-bound", fixtures=write_fixture(tmp_path, doc), output=str(out))
        )
        assert code == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["bound"] == 4.0
        assert rep["pass"] is True

    def test_lemma2_inline_a(self, tmp_path):
        doc = {
            "measures": [[{"angle": 0.0, "re": 1.0, "im": 0.0}]],
            "self_maps": [],
            "cases": [{"measure": 0, "a": [0.25, 0.0]}],
        }
        out = tmp_path / "l2.json"
        assert run(RunConfig("verify-lemma2", fixtures=write_fixture(tmp_path, doc), output=str(out))) == 0
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["bound"] == pytest.approx(2.0)

    def test_csv_output(self, tmp_path):
        doc = {
            "measures": [],
            "self_maps": [],
            "cases": [{"a_values": [0.0, 0.3], "degree_cap": 4}],
        }
        out = tmp_path / "scan.csv"
        code = run(
            RunConfig(
                "sharpness-scan", fixtures=write_fixture(tmp_path, doc), output=str(out), format="csv"
            )
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "a,ratio,bound,margin"
        assert len(lines) == 3

    def test_sharpness_scan_honours_degree_cap(self, tmp_path):
        doc = {"measures": [], "self_maps": [], "cases": [{"a_values": [0.5]}]}
        out = tmp_path / "scan.json"
        args = ["sharpness-scan", "--fixtures", write_fixture(tmp_path, doc), "--out", str(out)]
        assert main(args + ["--degree-cap", "2"]) == 0
        assert json.loads(out.read_text())["reports"][0]["inputs"]["degree_cap"] == 2

    def test_sandwich_tolerance_reaches_the_bracket(self, tmp_path, capsys):
        # lower = upper = 1 for a point mass, so only a negative slack fails
        doc = {"measures": [[{"angle": 0.0, "re": 1.0, "im": 0.0}]], "self_maps": [],
               "cases": [{"measure": 0, "degree_cap": 2}]}
        args = ["norm-estimate", "--fixtures", write_fixture(tmp_path, doc),
                "--out", str(tmp_path / "ne.json")]
        assert main(args) == 0
        assert main(args + ["--tol", "sandwich=-1"]) == 2
        assert "cases[0]: duality sandwich violated" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_commands_import_only_numpy_and_the_standard_library(self, command, tmp_path):
        # Every import is paid in each CLI process's start-up (scipy.optimize
        # alone would add about 48 MB).  Modules loaded before the script
        # runs come from the interpreter's own site hooks, not from cstrans.
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from cstrans.cli import main\n"
            f"code = main([{command!r}, '--fixtures', 'standard', '--out', {str(tmp_path / 'out')!r}])\n"
            "allowed = set(sys.stdlib_module_names) | {'numpy', 'cstrans'}\n"
            "extra = {name.partition('.')[0] for name in set(sys.modules) - before} - allowed\n"
            "print(code, sorted(extra))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "[]"]

    def test_norm_estimate_standard(self, tmp_path):
        out = tmp_path / "ne.json"
        assert run(RunConfig("norm-estimate", output=str(out))) == 0
        doc = json.loads(out.read_text())
        for rep in doc["reports"]:
            assert rep["lower"] <= rep["upper"] + 1e-9


class TestEntryPoint:
    def test_module_invocation_and_exit_zero(self, tmp_path):
        out = tmp_path / "l2.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "cstrans", "verify-lemma2",
                "--fixtures", "standard", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert len(doc["reports"]) == 5

    def test_stdout_when_no_output_path(self, capsys):
        assert run(RunConfig("factorize")) == 0
        assert '"command": "factorize"' in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, fmt",
        [pytest.param(c, "json", id=c) for c in COMMANDS]
        + [pytest.param(c, "csv", id=f"{c}-csv") for c in COMMANDS],
    )
    def test_reports_do_not_depend_on_blas_threads(self, command, fmt):
        # No report value may come from a BLAS call whose summation order
        # follows the thread count: the dual search's products are FFTs and
        # the kernel layer sums its series and moments without BLAS.
        # Reports carry no wall-clock time, so the raw bytes must agree.
        outputs = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "cstrans", command, "--fixtures", "standard", "--format", fmt],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


ATOM = {"angle": 0.0, "re": 1.0, "im": 0.0}

# One small valid document per command; the sweep below corrupts each of
# their JSON paths in turn.
VALID_DOCS = {
    "verify-bound": {"measures": [[ATOM]], "self_maps": [{"kind": "mobius", "a": [0.5, 0.0]}],
                     "cases": [{"measure": 0, "self_map": 0}]},
    "verify-lemma1": {"measures": [[ATOM]],
                      "self_maps": [{"kind": "polynomial", "coeffs": [[0.0, 0.0], [0.5, 0.0]]}],
                      "cases": [{"measure": 0, "self_map": 0}]},
    "verify-lemma2": {"measures": [[ATOM]], "cases": [{"measure": 0, "a": [0.5, 0.0]}]},
    "factorize": {"self_maps": [
        {"kind": "composed", "outer_a": [0.25, 0.0],
         "inner": {"kind": "polynomial", "coeffs": [[0.25, 0.0], [0.0, 0.0], [0.5, 0.0]]}},
        {"kind": "blaschke", "zeros": [[0.3, 0.0]], "rotation": [0.0, 1.0]},
    ], "cases": [{"self_map": 0}, {"self_map": 1}]},
    "kernel-compare": {"cases": [{"a": [0.5, 0.0], "h": [[1.0, 0.0], [0.5, 0.0]],
                                  "zeta_angle": 1.0, "r": 0.9}]},
    "norm-estimate": {"measures": [[ATOM, {"angle": 3.0, "re": -0.5, "im": 0.25}]],
                      "cases": [{"measure": 0, "degree_cap": 2}]},
    "sharpness-scan": {"cases": [{"a_values": [0.0, 0.5], "degree_cap": 2}]},
}

JUNK = (None, True, "x", 5, -1, 0, 2.7, [], {}, [1, 2, 3], math.inf, math.nan, 1e300)


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


class TestMalformedFixtures:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_corrupted_document_raises(self, command, tmp_path, capsys):
        # Exit 1 means a failed verification, so a traceback (which also
        # exits 1) must never stand in for an input error.
        doc = VALID_DOCS[command]

        def args(fixture_doc):
            return [command, "--fixtures", write_fixture(tmp_path, fixture_doc),
                    "--out", str(tmp_path / "out"), "--degree-cap", "2"]

        assert main(args(doc)) == 0
        raised = []
        for path in _json_paths(doc):
            for value in JUNK:
                try:
                    code = main(args(_replaced(doc, path, value)))
                except Exception as exc:  # noqa: BLE001 - the failure being tested
                    raised.append((path, value, repr(exc)))
                else:
                    assert code in (0, 1, 2), (path, value, code)
        capsys.readouterr()
        assert raised == []

    @pytest.mark.parametrize("command", ["verify-bound", "verify-lemma1", "verify-lemma2", "norm-estimate"])
    def test_atom_fields_must_be_numbers(self, tmp_path, capsys, command):
        # float() read true as 1 and "3" as 3.  A real field names no pair.
        for field in ("angle", "re", "im"):
            for value in (True, "3"):
                doc = _replaced(VALID_DOCS[command], ("measures", 0, 0, field), value)
                assert run(RunConfig(command, fixtures=write_fixture(tmp_path, doc))) == 2, (field, value)
                err = capsys.readouterr().err
                assert err.startswith("error: measures[0][0]: "), (field, value)
                assert f"expected a number, got {value!r}" in err and "pair" not in err, (field, value)

    @pytest.mark.parametrize("field", ["zeta_angle", "r"])
    def test_real_case_fields_must_be_numbers(self, tmp_path, capsys, field):
        for value in (True, "3", None, [0.5, 0.0]):
            case = {"a": [0.5, 0.0], "h": [[1.0, 0.0]], "zeta_angle": 1.0, "r": 0.9, field: value}
            doc = {"cases": [case]}
            assert run(RunConfig("kernel-compare", fixtures=write_fixture(tmp_path, doc))) == 2, value
            err = capsys.readouterr().err
            assert err.startswith(f"error: cases[0].{field}: expected a number, got {value!r}"), value

    @pytest.mark.parametrize("value", [2.7, "3", True, None], ids=["float", "string", "bool", "null"])
    def test_degree_cap_must_be_an_integer(self, tmp_path, capsys, value):
        doc = {"cases": [{"a_values": [0.5], "degree_cap": value}]}
        assert run(RunConfig("sharpness-scan", fixtures=write_fixture(tmp_path, doc))) == 2
        assert capsys.readouterr().err.startswith("error: cases[0].degree_cap: expected an integer")

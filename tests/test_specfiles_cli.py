import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opspectra
import reference_core as ref
from opspectra import (ParseError, ValidationError, Verdict, right_shift,
                       spectral_summary, weighted_shift)
from opspectra.cli import _matrix, main, write_curve_csv
from opspectra.classify import ClassificationReport
from opspectra.decompose import structure_decompose
from opspectra.specfiles import (BUNDLED, OperatorSpec, load_bundled,
                                 parse_spec, parse_spec_text, serialize_spec)


def test_bundled_right_shift_parses_to_shift():
    spec = load_bundled("right_shift")
    assert spec.operator == right_shift()
    assert spec.name == "right_shift"


def test_bundled_defect_shift_matches_defining_formula():
    t = load_bundled("defect_shift").operator
    np.testing.assert_array_equal(ref.apply(t, [1]), [0.5])
    np.testing.assert_array_equal(ref.apply(t, [0, 1]), [0, 0, 0.5])
    np.testing.assert_array_equal(ref.apply(t, [0, 0, 1]), [0, 0, 0, 1])


def test_all_bundled_specs_load():
    for name in BUNDLED:
        spec = load_bundled(name)
        assert spec.operator.bands or spec.operator.rank_terms


def test_unknown_bundled_name():
    with pytest.raises(ParseError):
        load_bundled("nope")


def test_malformed_offset():
    text = json.dumps({"name": "x",
                       "bands": [{"offset": "a", "prefix": [], "tail": [1, 0]}]})
    with pytest.raises(ParseError):
        parse_spec_text(text)


def test_unknown_field_rejected():
    text = json.dumps({"name": "x", "bands": [], "extra": 1})
    with pytest.raises(ParseError):
        parse_spec_text(text)
    text = json.dumps({"name": "x",
                       "bands": [{"offset": 0, "tail": [1, 0], "color": "red"}]})
    with pytest.raises(ParseError):
        parse_spec_text(text)


def test_nonfinite_rejected():
    text = '{"name": "x", "bands": [{"offset": 0, "prefix": [], "tail": [Infinity, 0]}]}'
    with pytest.raises(ValidationError):
        parse_spec_text(text)


def test_noncanonical_prefix_rejected():
    text = json.dumps({"name": "x",
                       "bands": [{"offset": 0, "prefix": [[1, 0]], "tail": [1, 0]}]})
    with pytest.raises(ValidationError):
        parse_spec_text(text)


def test_zero_rank_vector_rejected():
    text = json.dumps({"name": "x", "bands": [],
                       "rank_terms": [{"left": [[0, 0]], "right": [[1, 0]]}]})
    with pytest.raises(ValidationError):
        parse_spec_text(text)


def test_bad_param_key_rejected():
    text = json.dumps({"name": "x", "bands": [], "params": {"speed": 3}})
    with pytest.raises(ParseError):
        parse_spec_text(text)


def test_round_trip_identity():
    for name in BUNDLED:
        spec = load_bundled(name)
        again = parse_spec_text(serialize_spec(spec))
        assert again.operator == spec.operator
        assert again.name == spec.name
        assert again.params == spec.params


def test_round_trip_with_rank_terms_and_params(tmp_path):
    text = json.dumps({
        "name": "custom",
        "bands": [{"offset": 1, "prefix": [[0.25, -0.5]], "tail": [1.0, 0.0]}],
        "rank_terms": [{"left": [[1, 0], [0, 2]], "right": [[0, -1]]}],
        "params": {"trunc": 96, "tol": 1e-9},
    })
    path = tmp_path / "custom.json"
    path.write_text(text)
    spec = parse_spec(path)
    assert spec.params == {"trunc": 96, "tol": 1e-9}
    again = parse_spec_text(serialize_spec(spec))
    assert again.operator == spec.operator and again.params == spec.params


def test_rank_terms_reparse_as_bands():
    # the rank term is added into the window, so it comes back as prefixes
    text = json.dumps({
        "name": "custom",
        "bands": [{"offset": 0, "prefix": [[1, 0]], "tail": [0.5, 0.0]}],
        "rank_terms": [{"left": [[1, 0], [0, 2]], "right": [[0, -1]]}],
    })
    spec = parse_spec_text(text)
    again = parse_spec_text(serialize_spec(spec))
    assert again.operator == spec.operator
    assert again.operator.rank_terms == () and spec.operator.rank_terms == ()
    assert json.loads(serialize_spec(spec))["rank_terms"] == []


# -- command line -----------------------------------------------------------------

def test_cli_classify_exit_code_and_structured_output(capsys):
    code = main(["classify", "right_shift", "--format", "structured",
                 "--samples", "256"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["classification"]["is_AN"] == "yes"
    assert doc["classification"]["is_normal"] == "no"
    assert doc["classification"]["alpha"] == 1.0
    assert doc["spectral"]["ess_is_circle"] == pytest.approx(1.0, abs=1e-12)
    assert doc["provenance"]["tool"] == "opspectra"
    assert "timestamps" in doc["provenance"]
    assert doc["classification"]["tolerances"]


def test_cli_classify_text_output(capsys):
    code = main(["classify", "unitary_diag",
                 "--samples", "256"])
    out = capsys.readouterr().out
    assert code == 0
    assert "normal" in out and "yes" in out
    assert "spectral area               0 (exact)" in out      # a point curve


def test_cli_determinism_modulo_timestamps(capsys):
    args = ["classify", "defect_shift", "--format", "structured",
            "--samples", "256"]
    main(args)
    first = json.loads(capsys.readouterr().out)
    main(args)
    second = json.loads(capsys.readouterr().out)
    first["provenance"].pop("timestamps")
    second["provenance"].pop("timestamps")
    assert first == second


def test_cli_spectrum_writes_curve_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["spectrum", "defect_shift", "--samples", "256"])
    out = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "defect_shift_curve.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,re,im"
    assert len(lines) == 257
    theta, re, im = (float(v) for v in lines[1].split(","))
    assert theta == 0.0 and re == pytest.approx(1.0, abs=1e-12)
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(0 <= t < 2 * np.pi for t in thetas)
    assert "singular levels < essential 0.5 (x2)" in out
    assert "spectral area               3.14159 (exact)" in out


def _curve_csv_line_by_line(path, summary):
    """The CSV writer as it was: one f-string per sample."""
    curve = summary.ess_curve
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("theta,re,im\n")
        for t, p in zip(curve.theta, curve.points):
            handle.write(f"{float(t):.14f},{p.real:.14e},{p.imag:.14e}\n")


@pytest.mark.parametrize("name", BUNDLED)
def test_curve_csv_is_byte_identical_to_the_line_by_line_writer(name, tmp_path):
    summary = spectral_summary(load_bundled(name).operator)
    write_curve_csv(tmp_path / "fast.csv", summary)
    _curve_csv_line_by_line(tmp_path / "slow.csv", summary)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_cli_tol_reaches_summary_and_singular_levels(tmp_path, capsys,
                                                     monkeypatch):
    import opspectra.cli as cli_module
    seen = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            seen.append((fn.__name__, kwargs.get("tol")))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("spectral_summary", "discrete_singular_levels"):
        monkeypatch.setattr(cli_module, name,
                            recording(getattr(cli_module, name)))
    monkeypatch.chdir(tmp_path)
    assert main(["spectrum", "right_shift", "--tol", "1e-6"] + CLI_SMALL) == 0
    assert main(["classify", "right_shift", "--tol", "1e-6"] + CLI_SMALL) == 0
    capsys.readouterr()
    assert seen == [("spectral_summary", 1e-6),
                    ("discrete_singular_levels", 1e-6),
                    ("spectral_summary", 1e-6)]


def test_cli_decompose(capsys):
    code = main(["decompose", "defect_shift", "--trunc", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta=0.5 dim=2" in out
    assert "||A|| = 0.5" in out


def test_cli_decompose_structured_matrices(capsys):
    code = main(["decompose", "defect_shift", "--trunc", "64",
                 "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    dec = doc["decomposition"]
    assert dec["alpha"] == 1.0
    assert dec["h1_dim"] == 62
    # S1 is the structured right shift: tails a/alpha = z, empty window
    assert dec["S1"] == {"tails": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                         "window": {"shape": [0, 0], "entries": []}}
    assert dec["basis"]["shape"] == [2, 2]
    assert dec["h2_blocks"] == [{"delta": 0.5, "dim": 2}]
    assert doc["verification"]["ok"] is True
    assert doc["normality_from_blocks"] == {"verdict": "no",
                                            "isometry_defect": 0.0, "corank": 1}


@pytest.mark.parametrize("name", BUNDLED[:5])
def test_cli_decompose_documents_are_small(name, capsys):
    assert main(["decompose", name, "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert len(out.encode()) < 10_000
    assert json.loads(out)["decomposition"]["h1_dim"] is None


def test_cli_decompose_large_corner(capsys, tmp_path):
    # T*T has a 70 x 70 window, past any fixed section size
    path = tmp_path / "big.json"
    path.write_text(serialize_spec(OperatorSpec(
        "big", weighted_shift(tuple(np.linspace(0.1, 0.9, 70)), 1.0))))
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "H1: 0 corner null vectors, then e_j for j >= 70" in out
    assert "S1 unitary verdict     no (corank 1)" in out


def test_cli_decompose_section_below_window_is_an_error(capsys):
    assert main(["decompose", "defect_shift", "--trunc", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "window" in err


def test_cli_decompose_rejects_non_hyponormal(capsys):
    code = main(["decompose", "selfadjoint_band", "--trunc", "64"])
    err = capsys.readouterr().err
    assert code == 1
    assert "norm-attaining" in err or "attaining" in err


def test_cli_usage_error_is_exit_one(capsys):
    assert main(["classify"]) == 1
    assert main(["classify", "no_such_spec_anywhere"]) == 1


def test_only_verify_suite_takes_a_seed(capsys):
    """classify, spectrum and decompose draw nothing, so they take no --seed."""
    for command in ("classify", "spectrum", "decompose"):
        assert main([command, "right_shift", "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err
    main(["classify", "right_shift", "--format", "structured"])
    params = json.loads(capsys.readouterr().out)["provenance"]["parameters"]
    assert "seed" not in params


def test_decompose_takes_no_samples_or_resolution(capsys):
    for flag in ("--samples", "--resolution"):
        assert main(["decompose", "right_shift", flag, "256"]) == 1
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, keys", [
    ("classify", {"tol", "samples", "spec"}),
    ("spectrum", {"tol", "samples", "spec", "curve_csv"}),
    ("decompose", {"trunc", "tol", "spec"})])
def test_provenance_holds_the_parameters_the_command_reads(command, keys, capsys,
                                                           tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "shift.json"
    path.write_text(json.dumps({"name": "shift", "params": {"trunc": 96},
                                "bands": [{"offset": 1, "tail": [1, 0]}]}))
    flags = [] if command == "decompose" else CLI_SMALL
    assert main([command, str(path), "--format", "structured"] + flags) == 0
    params = json.loads(capsys.readouterr().out)["provenance"]["parameters"]
    assert set(params) == keys


@pytest.mark.parametrize("command, computation, keys", [
    ("classify", spectral_summary, ("tol", "samples")),
    ("spectrum", spectral_summary, ("tol", "samples")),
    ("decompose", structure_decompose, ("tol",))])
def test_unset_parameters_are_the_defaults_of_the_computation(
        command, computation, keys, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, "right_shift", "--format", "structured"]) == 0
    params = json.loads(capsys.readouterr().out)["provenance"]["parameters"]
    signature = inspect.signature(computation).parameters
    assert {k: v for k, v in params.items() if k not in ("spec", "curve_csv")} \
        == {key: signature[key].default for key in keys}


# run parameters out of range, each refused where it enters: as a flag or
# as a spec param. The area comes from the exact arrangement of the curve,
# which has no resolution: ``--resolution`` is an unknown flag and
# ``resolution`` an unknown spec field, whatever their value.
BAD_RUN_PARAMS = [("classify", "resolution", 4), ("spectrum", "resolution", 512),
                  ("classify", "samples", 0),
                  ("spectrum", "samples", -3), ("classify", "tol", -1.0),
                  ("classify", "tol", math.nan), ("classify", "tol", math.inf),
                  ("decompose", "trunc", -1), ("classify", "samples", 2.5)]


@pytest.mark.parametrize("command, key, value", BAD_RUN_PARAMS)
def test_out_of_range_flag_is_a_usage_error(command, key, value, capsys,
                                            tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([command, "right_shift", f"--{key}", str(value)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"--{key}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key, value", BAD_RUN_PARAMS)
def test_out_of_range_spec_param_is_a_validation_error(command, key, value, capsys,
                                                       tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = json.dumps({"name": "shift", "params": {key: value},
                       "bands": [{"offset": 1, "tail": [1, 0]}]})
    error, message = ((ParseError, "unknown fields.*resolution") if key == "resolution"
                      else (ValidationError, f"params.{key} must be"))
    with pytest.raises(error, match=message):
        parse_spec_text(text)
    (tmp_path / "spec.json").write_text(text)
    assert main([command, "spec.json"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_integral_spec_params_are_kept_as_integers():
    text = json.dumps({"name": "shift", "params": {"samples": 64.0, "tol": 0}})
    assert parse_spec_text(text).params == {"samples": 64, "tol": 0.0}
    assert type(parse_spec_text(text).params["samples"]) is int


@pytest.mark.parametrize("name", ["sub/x", "sub\\x", "x\u0000y"])
def test_spec_name_naming_another_path_is_refused(name, capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    text = json.dumps({"name": name, "bands": [{"offset": 1, "tail": [1, 0]}]})
    with pytest.raises(ValidationError):
        parse_spec_text(text)
    (tmp_path / "spec.json").write_text(text)
    assert main(["spectrum", "spec.json"]) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json", "sub"]


def test_cli_undetermined_maps_to_exit_two(capsys, monkeypatch):
    undetermined = ClassificationReport(
        Verdict.YES, Verdict.YES, Verdict.YES, Verdict.UNDETERMINED,
        Verdict.YES, Verdict.YES, 1.0, (), {})
    import opspectra.cli as cli_module
    monkeypatch.setattr(cli_module, "classify",
                        lambda *a, **k: undetermined)
    code = main(["classify", "unitary_diag",
                 "--samples", "256"])
    assert code == 2


def test_cli_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["classify", "right_shift",
                 "--samples", "256", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"provenance", "classification", "spectral"}


def test_cli_verify_suite_passes_and_is_deterministic(capsys):
    code = main(["verify-suite", "--seed", "3"])
    first = capsys.readouterr().out
    assert code == 0
    assert "[pass]" in first and "[FAIL]" not in first

    code = main(["verify-suite", "--seed", "3"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second


def test_cli_verify_suite_flags_corrupted_golden(capsys, monkeypatch):
    import opspectra.suites as suites_module
    true_loader = suites_module.load_bundled

    def corrupted(name):
        if name == "unitary_diag":
            return true_loader("right_shift")  # wrong operator under the name
        return true_loader(name)

    monkeypatch.setattr(suites_module, "load_bundled", corrupted)
    code = main(["verify-suite", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] golden:unitary_diag" in out


def test_matrix_entries_match_per_entry_pairs():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    m[0, 0], m[1, 2], m[3, 4] = complex(-0.0, 0.0), complex(1.0, -0.0), -0j
    for a in (m, m.T, m[::2, 1:], np.zeros((0, 3), dtype=complex)):
        expected = [[complex(v).real, complex(v).imag] for v in a.reshape(-1)]
        got = _matrix(a)
        assert got["shape"] == list(a.shape)
        assert repr(got["entries"]) == repr(expected)   # repr keeps -0.0


CLI_SMALL = ["--samples", "256"]


def small(command):
    return ["--trunc", "64"] if command == "decompose" else CLI_SMALL


@pytest.mark.parametrize("command", ["classify", "spectrum", "decompose"])
def test_structured_document_is_one_line(command, capsys, tmp_path,
                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    main([command, "defect_shift", "--format", "structured"] + small(command))
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["provenance"]["tool"] == "opspectra"


@pytest.mark.parametrize("command", ["classify", "decompose"])
def test_out_file_is_the_structured_stdout(command, capsys, tmp_path):
    path = tmp_path / "doc.json"
    code = main([command, "defect_shift", "--format", "structured",
                 "--out", str(path)] + small(command))
    assert code == 0
    assert path.read_text(encoding="utf-8") == capsys.readouterr().out[:-1]


def test_decompose_text_out_file_is_the_full_document(capsys, tmp_path):
    path = tmp_path / "doc.json"
    main(["decompose", "defect_shift", "--out", str(path)] + small("decompose"))
    capsys.readouterr()
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"provenance", "decomposition", "verification",
                        "normality_from_blocks", "spectrum_inclusion"}
    assert doc["verification"]["ok"] is True


def test_python_dash_m_entry_point():
    src = str(Path(opspectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "opspectra", "classify", "right_shift",
         "--format", "structured"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["classification"]["is_AN"] == "yes"


def _fresh_process(argv, cwd):
    src = str(Path(opspectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "opspectra"] + argv,
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_called_repeatedly_behaves_as_fresh_processes(tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = (["classify", "defect_shift"] + CLI_SMALL,
            ["spectrum", "defect_shift", "--trunc", "x"],
            ["spectrum", "unitary_diag", "--out", "curve.csv"] + CLI_SMALL)
    in_process = []
    for argv in runs:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 1, 0]
    assert in_process == [_fresh_process(argv, tmp_path) for argv in runs]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import opspectra.cli as cli_module
    built, build = [], cli_module.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli_module, "_parser", None)
    monkeypatch.setattr(cli_module, "build_parser", counting)
    assert main(["classify"]) == 1
    assert main(["classify", "right_shift"] + CLI_SMALL) == 0
    capsys.readouterr()
    assert built == [1]


def _unstable_spec(tmp_path):
    """Pool base (1, 8, 1), random T(a) + K with a dense 8 x 8 corner and a
    rank-one term whose off-curve truncation eigenvalues disagreed between
    n and 2n, with a z^2 term of 1e-3 added, so that its thin curve goes to
    the Schur-complement count, which certifies its seven."""
    rng = np.random.default_rng([20201008, 1, 8, 1])
    coeffs = {k: complex(*rng.uniform(-1, 1, 2)) for k in (-1, 0, 1)} | {2: 1e-3}
    head = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))) / np.sqrt(8)
    support = int(rng.integers(1, 9))
    left, right = (tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(support))
                   for _ in range(2))
    t = (opspectra.toeplitz(coeffs) + opspectra.from_dense_corner(head)
         + opspectra.rank_one(left, right))
    path = tmp_path / "unstable.json"
    path.write_text(serialize_spec(OperatorSpec("unstable", t)))
    return path


def test_spectrum_reports_isolated_eigenvalues_that_did_not_stabilize(
        tmp_path, capsys, monkeypatch):
    path = _unstable_spec(tmp_path)
    summary = opspectra.spectral_summary(parse_spec(path).operator)
    assert len(summary.eigenvalues) == 7 and summary.eigenvalues_stabilized
    # with the count allowed no more than 200 points (its first batch has
    # 260) it gives up, so the engine certifies nothing
    monkeypatch.setattr("opspectra.numerics.LOOP_BUDGET", 200)
    summary = opspectra.spectral_summary(parse_spec(path).operator)
    assert summary.eigenvalues == () and summary.eigenvalues_stabilized is False
    csv = str(tmp_path / "curve.csv")
    main(["spectrum", str(path), "--out", csv])
    out = capsys.readouterr().out
    assert "isolated eigenvalues        not stabilized" in out
    assert "(exact)" in out                  # the arrangement's area, error 0
    main(["classify", str(path), "--format", "structured"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["spectral"]["eigenvalues_stabilized"] is False
    assert doc["spectral"]["eigenvalues"] == []


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_isolated_eigenvalues_stabilize(name, capsys, tmp_path):
    main(["classify", name, "--format", "structured"])
    assert json.loads(capsys.readouterr().out)[
        "spectral"]["eigenvalues_stabilized"] is True
    main(["spectrum", name, "--out", str(tmp_path / "curve.csv")])
    assert "not stabilized" not in capsys.readouterr().out

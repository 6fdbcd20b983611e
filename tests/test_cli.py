"""Config validation, CSV contract, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prepost import verify as verify_mod
from prepost.cli import CSV_COLUMNS, main
from prepost.config import ConfigError, load_config, parse_config
from prepost.twostate import TwoState

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
GOLDENS = REPO / "tests" / "goldens"

ALL_SCENARIOS = ["spinbath_exact", "spinbath_env_post", "perturbative_spin", "burst"]


def _load(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def _write(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------- config schema


def test_parse_all_shipped_configs():
    for name in ALL_SCENARIOS:
        cfg = load_config(str(CONFIGS / f"{name}.json"))
        assert cfg.scenario == name


def test_unknown_key_rejected(tmp_path):
    data = _load("spinbath_exact")
    data["spinbath"]["coupling_strength"] = 1.0
    with pytest.raises(ConfigError, match="unknown keys.*coupling_strength"):
        load_config(_write(tmp_path, data))


def test_unknown_top_level_key_rejected():
    data = _load("spinbath_exact")
    data["vverbose"] = True
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(data)


def test_missing_key_named():
    data = _load("spinbath_exact")
    del data["spinbath"]["g"]
    with pytest.raises(ConfigError, match="'spinbath' is missing keys.*g"):
        parse_config(data)


def test_bad_normalization_names_field():
    data = _load("spinbath_exact")
    data["spinbath"]["system_pre"] = [[1.0, 0.0], [1.0, 0.0]]
    with pytest.raises(ConfigError, match="'spinbath.system_pre' is not normalized"):
        parse_config(data)


def test_bad_complex_pair_named():
    data = _load("spinbath_exact")
    data["spinbath"]["env_pre"][1][0] = [1.0]
    with pytest.raises(ConfigError, match=r"spinbath.env_pre\[1\]\[0\]"):
        parse_config(data)


@pytest.mark.parametrize(
    "name, block, key, value, field",
    [
        ("perturbative_spin", "perturbative", "lambda", float("nan"), "perturbative.lambda"),
        ("spinbath_exact", "spinbath", "system_pre", [[float("inf"), 0.0], [0.0, 0.0]],
         r"spinbath.system_pre\[0\]"),
    ],
    ids=["lambda-nan", "system-pre-infinity"],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, name, block, key, value, field):
    # Python's json reads NaN and Infinity; neither may reach the model
    data = _load(name)
    data[block][key] = value
    code = main(["run", "--config", _write(tmp_path, data), "--out", str(tmp_path / "o.csv")])
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err_lines) == 1
    assert re.match(f"error: config field '{field}' must be .*finite", err_lines[0])


def test_env_post_forbids_system_post():
    data = _load("spinbath_env_post")
    data["spinbath"]["system_post"] = [[1.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ConfigError, match="system_post"):
        parse_config(data)


def test_burst_time_window_must_match_schedule():
    data = _load("burst")
    data["time"]["t2"] = 0.5
    with pytest.raises(ConfigError, match="n_particles\\*tau"):
        parse_config(data)


def test_non_hermitian_coupling_rejected():
    data = _load("perturbative_spin")
    data["perturbative"]["env"]["l_op"] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(ConfigError, match="l_op.*Hermitian"):
        parse_config(data)


# ---------------------------------------------------------------- exit codes


def test_exit_2_on_config_error(tmp_path, capsys):
    data = _load("spinbath_exact")
    data["spinbath"]["n"] = "four"
    code = main(["run", "--config", _write(tmp_path, data), "--out", str(tmp_path / "o.csv")])
    captured = capsys.readouterr()
    assert code == 2
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ")
    assert "spinbath.n" in err_lines[0]


def test_exit_2_on_unreadable_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_3_on_formalism_error(tmp_path, capsys):
    data = _load("spinbath_exact")
    # orthogonal free environment conditions on the first bath spin
    data["spinbath"]["env_pre"][0] = [[1.0, 0.0], [0.0, 0.0]]
    data["spinbath"]["env_post"][0] = [[0.0, 0.0], [1.0, 0.0]]
    code = main(["run", "--config", _write(tmp_path, data), "--out", str(tmp_path / "o.csv")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ")
    assert "orthogonal" in captured.err


def test_exit_2_when_h_e_does_not_commute_with_l_op(tmp_path, capsys):
    data = _load("perturbative_spin")
    data["perturbative"]["env"]["h_e"] = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    code = main(["run", "--config", _write(tmp_path, data), "--out", str(tmp_path / "o.csv")])
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: config field 'perturbative'")
    assert "commute" in err_lines[0]


@pytest.mark.parametrize(
    "flags, flag",
    [(["--trials", "0"], "--trials"), (["--seed", "-1"], "--seed"), (["--trials", "abc"], "--trials")],
    ids=["trials-0", "seed-minus-1", "trials-abc"],
)
def test_exit_2_on_bad_verify_flag(flags, flag, capsys):
    code = main(["verify", "--scenario", "all"] + flags)
    captured = capsys.readouterr()
    assert code == 2
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: argument {flag}")
    assert "result:" not in captured.out


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "--scenario", "bogus"], "--scenario"),
        (["run"], "--config"),
    ],
    ids=["scenario-bogus", "run-without-config"],
)
def test_exit_2_on_bad_command_line(argv, named, capsys):
    # argparse would print its usage over several lines and raise SystemExit
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ")
    assert named in err_lines[0]
    assert captured.out == ""


def test_exit_2_on_burst_with_too_few_steps(tmp_path, capsys):
    data = _load("burst")
    data["burst"]["particles"] = data["burst"]["particles"][:3]
    data["time"]["t2"] = 3 * data["burst"]["tau"]
    data["burst"]["steps_per_burst"] = 1
    code = main(["run", "--config", _write(tmp_path, data), "--out", str(tmp_path / "o.csv")])
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: config field 'burst.steps_per_burst'")


def test_exit_0_and_summary_on_success(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["run", "--config", str(CONFIGS / "spinbath_exact.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert "boundary sv2/sv1" in captured.out
    assert "a-independence" in captured.out


def test_missing_output_path(tmp_path, capsys):
    data = _load("spinbath_exact")
    del data["output_path"]
    code = main(["run", "--config", _write(tmp_path, data)])
    assert code == 2
    assert "output path" in capsys.readouterr().err


# ---------------------------------------------------------------- CSV contract


def test_csv_header_and_line_endings(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["run", "--config", str(CONFIGS / "burst.json"), "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 11  # header + samples
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "t.csv"
    main(["run", "--config", str(CONFIGS / "spinbath_exact.json"), "--out", str(out)])
    lines = out.read_text().splitlines()[1:]
    import prepost.spinbath as sb
    from prepost.config import load_config

    cfg = load_config(str(CONFIGS / "spinbath_exact.json"))
    row = lines[37].split(",")
    t = float(row[0])
    ts = sb.exact_reduced_two_state(cfg.model, t)
    # 17 significant digits round-trip float64 exactly
    assert float(row[1]) == ts.mat[0, 0].real
    assert float(row[4]) == ts.mat[0, 1].imag


def test_empty_purity_column_for_system_post_scenarios(tmp_path):
    out = tmp_path / "t.csv"
    main(["run", "--config", str(CONFIGS / "spinbath_exact.json"), "--out", str(out)])
    row = out.read_text().splitlines()[5].split(",")
    assert row[CSV_COLUMNS.index("purity_eff")] == ""
    out2 = tmp_path / "t2.csv"
    main(["run", "--config", str(CONFIGS / "spinbath_env_post.json"), "--out", str(out2)])
    row2 = out2.read_text().splitlines()[5].split(",")
    assert row2[CSV_COLUMNS.index("purity_eff")] != ""


def test_determinism_and_goldens(tmp_path):
    for name in ALL_SCENARIOS:
        out1 = tmp_path / f"{name}_1.csv"
        out2 = tmp_path / f"{name}_2.csv"
        for out in (out1, out2):
            assert main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2, f"{name}: two runs differ"
        assert b1 == (GOLDENS / f"{name}.csv").read_bytes(), f"{name}: golden drift"


def _numpy_dispatch_targets() -> list:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


def test_goldens_independent_of_blas_simd_and_libm(tmp_path):
    """The CSV bytes do not depend on the machine's BLAS kernel, numpy SIMD
    level or libm variant. Each variable below changes that choice where it
    applies (OpenBLAS with DYNAMIC_ARCH, numpy's dispatched SIMD targets,
    glibc's FMA variants of its math functions) and is ignored elsewhere."""
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(
        os.environ,
        PYTHONPATH=pythonpath,
        OPENBLAS_CORETYPE="Prescott",
        NPY_DISABLE_CPU_FEATURES=" ".join(_numpy_dispatch_targets()),
        GLIBC_TUNABLES="glibc.cpu.hwcaps=-AVX2,-FMA",
    )
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_goldens.py"), "--out-dir", str(tmp_path)],
        env=env,
        check=True,
        capture_output=True,
    )
    for name in ALL_SCENARIOS:
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (GOLDENS / f"{name}.csv").read_bytes(), f"{name}: platform drift"


def _complex_perturbative_config(tmp_path, diagonal_h_e=False) -> str:
    """perturbative_spin with complex e1/e2 and either a complex Hermitian 3x3
    L and no h_e, or a diagonal L with a diagonal h_e, which commutes with it."""
    rng = np.random.default_rng(0 if diagonal_h_e else 11)
    e1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    e2 = rng.normal(size=3) + 1j * rng.normal(size=3)

    def pair(z):
        return [float(z.real), float(z.imag)]

    def matrix(m):
        return [[pair(z) for z in row] for row in m]

    env = {
        "e1": [pair(z) for z in e1 / np.linalg.norm(e1)],
        "e2": [pair(z) for z in e2 / np.linalg.norm(e2)],
    }
    if diagonal_h_e:
        env["l_op"] = matrix(np.diag(rng.normal(size=3)))
        env["h_e"] = matrix(np.diag(3.0 * rng.normal(size=3)))
    else:
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        env["l_op"] = matrix((a + a.conj().T) / 2.0)
    data = _load("perturbative_spin")
    data["perturbative"]["lambda"] = 0.2
    data["perturbative"]["env"] = env
    return _write(tmp_path, data, "complex.json")


_PRESCOTT_NOSIMD_NOFMA = {
    "OPENBLAS_CORETYPE": "Prescott",
    "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA",
}


@pytest.mark.parametrize(
    "platform, diagonal_h_e",
    [
        (_PRESCOTT_NOSIMD_NOFMA, False),
        ({"OPENBLAS_CORETYPE": "Haswell"}, False),
        (_PRESCOTT_NOSIMD_NOFMA, True),
    ],
    ids=["prescott-nosimd-nofma", "haswell", "diagonal-h_e-prescott-nosimd-nofma"],
)
def test_complex_perturbative_run_independent_of_blas_simd_and_libm(tmp_path, platform, diagonal_h_e):
    """Complex weak moments reach the integrator's generators, and the CSV
    bytes still do not depend on the BLAS kernel, numpy SIMD level or libm:
    the moments, the generators and the steps are real arithmetic of fixed
    order, and a diagonal h_e's phases come from detmath.sincos. The
    Prescott setting also disables every numpy SIMD target."""
    cfg = _complex_perturbative_config(tmp_path, diagonal_h_e)
    here = tmp_path / "here.csv"
    assert main(["run", "--config", cfg, "--out", str(here)]) == 0
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **platform)
    if "GLIBC_TUNABLES" in platform:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(_numpy_dispatch_targets())
    there = tmp_path / "there.csv"
    subprocess.run(
        [sys.executable, "-m", "prepost.cli", "run", "--config", cfg, "--out", str(there)],
        env=env,
        check=True,
        capture_output=True,
    )
    rows = [line.split(",") for line in here.read_text().splitlines()[1:]]
    assert float(rows[-1][CSV_COLUMNS.index("ts_01_im")]) != 0.0
    assert there.read_bytes() == here.read_bytes()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; the runtime needs numpy alone
    code = "import sys, prepost.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    assert out.strip() == "[]"


def test_spinbath_exact_recoherence_signature(tmp_path):
    out = tmp_path / "t.csv"
    main(["run", "--config", str(CONFIGS / "spinbath_exact.json"), "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    i1, i2 = CSV_COLUMNS.index("sv1"), CSV_COLUMNS.index("sv2")
    ratios = [float(r[i2]) / float(r[i1]) for r in rows]
    assert ratios[0] < 1e-9 and ratios[-1] < 1e-9
    assert max(ratios[1:-1]) > 1e-3


def test_burst_run_builds_two_states_only_for_sampled_rows(tmp_path, monkeypatch):
    # the initial two-state plus one per CSV row, not one per integration step
    built = []
    post_init = TwoState.__post_init__

    def counting(self):
        built.append(self.t)
        post_init(self)

    monkeypatch.setattr(TwoState, "__post_init__", counting)
    assert main(["run", "--config", str(CONFIGS / "burst.json"), "--out", str(tmp_path / "b.csv")]) == 0
    assert 0 < len(built) <= _load("burst")["time"]["samples"] + 1


def test_burst_boundary_coherence_from_csv(tmp_path):
    out = tmp_path / "t.csv"
    main(["run", "--config", str(CONFIGS / "burst.json"), "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    idx = CSV_COLUMNS.index("coh_mag")
    cohs = [float(r[idx]) for r in rows]
    lam, tau = 0.5, 0.04
    assert all(abs(c - cohs[0]) < 5 * lam**2 * tau**2 for c in cohs)


def test_free_bath_generic_throughout(tmp_path):
    data = _load("spinbath_exact")
    data["spinbath"]["g"] = [0.0, 0.0, 0.0, 0.0]
    out = tmp_path / "t.csv"
    assert main(["run", "--config", _write(tmp_path, data), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    i1, i2 = CSV_COLUMNS.index("sv1"), CSV_COLUMNS.index("sv2")
    assert all(float(r[i2]) / float(r[i1]) < 1e-9 for r in rows)


# ---------------------------------------------------------------- verify command


def test_verify_pass(capsys):
    code = main(["verify", "--scenario", "probability", "--seed", "3", "--trials", "10"])
    captured = capsys.readouterr()
    assert code == 0
    assert "result: PASS" in captured.out


def test_verify_failure_serializes_draw(monkeypatch, capsys):
    monkeypatch.setitem(verify_mod.VERIFY_TOLERANCES, "spinbath_exact", 1e-30)
    code = main(["verify", "--scenario", "spinbath_exact", "--seed", "3", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 1
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: verify spinbath_exact")
    draw = json.loads(err_lines[0].split("draw=", 1)[1])
    assert "g" in draw and "env_pre" in draw  # reproducible parameter draw


def test_verify_spinbath_exact_judges_relative_to_the_entries():
    # entries near 374 deviate by 1.8e-11 from rounding alone, a relative 4.9e-14
    report = verify_mod.verify_spinbath_exact(1754200671000067, 20)
    assert report.ok
    assert report.checks[0].value < 1e-12


def test_verify_spinbath_exact_fails_a_closed_form_off_by_1e9(monkeypatch):
    exact = verify_mod.sb.exact_reduced_two_state

    def off_by_1e9(p, t):
        ts = exact(p, t)
        ts.mat = ts.mat * (1 + 1e-9)
        return ts

    monkeypatch.setattr(verify_mod.sb, "exact_reduced_two_state", off_by_1e9)
    report = verify_mod.verify_spinbath_exact(3, 8)
    assert not report.ok


def test_verify_through_config(tmp_path, capsys):
    data = {"scenario": "verify", "seed": 5, "verify": {"scenario": "parsel", "trials": 3}}
    code = main(["run", "--config", _write(tmp_path, data)])
    assert code == 0
    assert "basis-independence" in capsys.readouterr().out


def test_verify_determinism(capsys):
    main(["verify", "--scenario", "perturbative", "--seed", "9", "--trials", "3"])
    first = capsys.readouterr().out
    main(["verify", "--scenario", "perturbative", "--seed", "9", "--trials", "3"])
    second = capsys.readouterr().out
    assert first == second

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from wgmspin import cli
from wgmspin.config import MAX_SAMPLES, ConfigError, RunConfig
from wgmspin.constants import C_LIGHT, HBAR
from wgmspin.specfun import MAX_ARG, AccuracyWarning

from oracles import lly_wavenumber

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CFG_PATH = ROOT / "configs" / "reference.cfg"
REFERENCE_CFG = REFERENCE_CFG_PATH.read_text()

FAST_CFG = """
[sphere]
R = 10e-6
n = 1.52
rho = 2000.0

[mode_search]
polarization = TE
l = 9
lambda_min = 6.8e-6
lambda_max = 8.6e-6
scan_points = 1500

[coupling]
N = 1e4

[simulation]
dt = 1.0
n_steps = 60
sample_every = 10
omega0 = 1e-6, 0, 2e-7

[estimate]
Q = 1e10
m_list = 1, 5, 9

[output]
directory = out
"""


@pytest.fixture
def fast_cfg_path(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return path


def run_cli(verb, cfg_path, out_dir, *extra):
    return cli.main([verb, "--config", str(cfg_path), "--out", str(out_dir),
                     *extra])


def record_returns(monkeypatch, module, name):
    """Wrap module.name so that each value it returns is appended to the
    returned list: an artifact can then be checked against the in-process
    value it was written from."""
    returned = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: returned.append(real(*args, **kwargs))
                        or returned[-1])
    return returned


# --- RunConfig ----------------------------------------------------------------

def test_reference_config_parses():
    cfg = RunConfig.from_file("configs/reference.cfg")
    assert cfg.l == 120
    assert cfg.R == 10e-6
    assert cfg.n == pytest.approx(math.sqrt(2.31), rel=1e-12)
    assert cfg.Q == 1e10
    assert cfg.m_list == (1, 10, 120)


def test_config_field_level_diagnostics(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG.replace("R = 10e-6", "R = -3e-6"))
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(bad)
    assert any(f == "sphere.R" for f, _ in err.value.errors)


def test_negative_index_reports_one_error():
    # n >= 1 implies n > 0, so a negative n is one diagnostic, not two
    assert RunConfig(n=-1.0).validate() == [("sphere.n", "must be >= 1, got -1.0")]


# every single-key rule, with its message as the config error names it
@pytest.mark.parametrize("field, value, message", [
    ("sphere.R", -3e-06, "must be positive, got -3e-06"),
    ("sphere.R", 0.0, "must be positive, got 0.0"),
    ("sphere.n", 0.5, "must be >= 1, got 0.5"),
    ("sphere.rho", 0.0, "must be positive, got 0.0"),
    ("sphere.I", -1.0, "must be positive, got -1.0"),
    ("mode_search.polarization", "TX", "must be TE or TM, got 'TX'"),
    ("mode_search.l", 0, "must be in [1, 500], got 0"),
    ("mode_search.l", 501, "must be in [1, 500], got 501"),
    ("mode_search.scan_points", 9, "must be in [10, 100000], got 9"),
    ("mode_search.scan_points", 100001, "must be in [10, 100000], got 100001"),
    ("coupling.N", -1.0, "must be non-negative, got -1.0"),
    ("simulation.dt", 0.0, "must be positive, got 0.0"),
    ("simulation.dt", -2.5, "must be positive, got -2.5"),
    ("simulation.n_steps", 0, "must be >= 1, got 0"),
    ("simulation.sample_every", 0, "must be >= 1, got 0"),
    ("estimate.Q", 0.0, "must be positive, got 0.0"),
])
def test_single_key_rule_diagnostic(field, value, message):
    key = field.split(".")[1]
    assert RunConfig(**{key: value}).validate() == [(field, message)]


# a non-finite number gets that one diagnostic, not also its key's rule's
# (R = nan is not positive either) nor the window's
@pytest.mark.parametrize("v", [math.nan, -math.inf], ids=["nan", "-inf"])
@pytest.mark.parametrize("field", ["sphere.R", "sphere.n", "sphere.rho", "sphere.I",
                                   "mode_search.lambda_min", "mode_search.lambda_max",
                                   "coupling.N", "simulation.dt", "estimate.Q"])
def test_non_finite_number_reports_one_error(field, v):
    key = field.split(".")[1]
    assert RunConfig(**{key: v}).validate() == [(field, f"must be finite, got {v}")]


@pytest.mark.parametrize("v", [math.nan, -math.inf], ids=["nan", "-inf"])
def test_non_finite_component_reports_one_error(v):
    omega0 = (0.0, v, 0.0)
    amplitudes = ((1, complex(v, 1.0)),)
    assert RunConfig(omega0=omega0).validate() == [
        ("simulation.omega0", f"must be finite, got {omega0}")]
    assert RunConfig(amplitudes=amplitudes).validate() == [
        ("coupling.amplitudes", f"must be finite, got {amplitudes}")]


def test_sample_count_capped_at_max_samples():
    # simulate holds every sample (steps 0, sample_every, ... and n_steps)
    assert RunConfig(n_steps=MAX_SAMPLES - 1, sample_every=1).validate() == []
    assert RunConfig(n_steps=2 * MAX_SAMPLES - 2, sample_every=2).validate() == []
    for n_steps, every in ((MAX_SAMPLES, 1), (2 * MAX_SAMPLES - 1, 2)):
        errors = RunConfig(n_steps=n_steps, sample_every=every).validate()
        assert [f for f, _ in errors] == ["simulation.n_steps"], (n_steps, every)


def test_config_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG.replace("rho = 2000.0", "rho = 2000.0\nbogus = 1"))
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig.from_file(bad)


def test_coupling_m_is_an_unknown_key(tmp_path, capsys):
    # a single-mode state is amplitudes = m:1; the m key is gone
    bad = tmp_path / "m.cfg"
    bad.write_text(FAST_CFG.replace("N = 1e4", "N = 1e4\nm = 9"))
    assert run_cli("simulate", bad, tmp_path / "out") == 2
    assert "config error: coupling.m: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_amplitude_parsing(tmp_path):
    path = tmp_path / "amp.cfg"
    path.write_text(FAST_CFG.replace(
        "N = 1e4", "N = 1e4\namplitudes = -1:0.5+0.5j, 1:0.5"))
    cfg = RunConfig.from_file(path)
    assert cfg.amplitudes == ((-1, 0.5 + 0.5j), (1, 0.5 + 0j))


def test_zero_amplitudes_need_zero_photons():
    # all-zero amplitudes are the empty state: valid only for N = 0
    assert RunConfig(N=0.0, amplitudes=((5, 0j),)).validate() == []
    errors = RunConfig(N=1e5, amplitudes=((5, 0j),)).validate()
    assert [f for f, _ in errors] == ["coupling.amplitudes"]


def test_with_value_sweep_helper(fast_cfg_path):
    cfg = RunConfig.from_file(fast_cfg_path)
    swapped = cfg.with_value("mode_search.l", 10)
    assert swapped.l == 10
    assert swapped.R == cfg.R


# --- CLI exit codes --------------------------------------------------------------

def test_invalid_config_exit_2_names_field(tmp_path, capsys, monkeypatch):
    # non-finite numbers are rejected up front: unchecked, dt = inf fails late
    # with a numerical error, rho = inf writes "I": Infinity (not JSON) and
    # Q = inf gives zero thresholds. Validation rejects every case before any
    # pole search, so none of them allocates a scan or simulate's samples.
    def no_run(*args, **kwargs):
        raise AssertionError("invalid config reached a run")

    monkeypatch.setattr(cli.wgm, "find_resonance", no_run)
    monkeypatch.setattr(cli.dynamics, "simulate", no_run)
    cases = [
        ("modes", "R = 10e-6", "R = -3e-6", "sphere.R"),
        ("modes", "R = 10e-6", "R = inf", "sphere.R"),
        # finite R whose default I overflows: R**3 (1e120) or the product (1e70)
        ("modes", "R = 10e-6", "R = 1e120", "sphere.R"),
        ("simulate", "R = 10e-6", "R = 1e70", "sphere.R"),
        ("modes", "n = 1.52", "n = inf", "sphere.n"),
        ("lambda", "rho = 2000.0", "rho = inf", "sphere.rho"),
        ("lambda", "rho = 2000.0", "rho = 2000.0\nI = inf", "sphere.I"),
        ("modes", "lambda_min = 6.8e-6", "lambda_min = inf", "mode_search.lambda_min"),
        ("modes", "lambda_max = 8.6e-6", "lambda_max = inf", "mode_search.lambda_max"),
        ("simulate", "N = 1e4", "N = inf", "coupling.N"),
        ("simulate", "dt = 1.0", "dt = inf", "simulation.dt"),
        ("simulate", "dt = 1.0", "dt = nan", "simulation.dt"),
        ("estimate", "Q = 1e10", "Q = inf", "estimate.Q"),
        ("simulate", "omega0 = 1e-6, 0, 2e-7", "omega0 = 1e-6, -inf, 2e-7",
         "simulation.omega0"),
        ("simulate", "N = 1e4", "N = 1e4\namplitudes = -1:0.5, 1:nan+1j",
         "coupling.amplitudes"),
        # all-zero amplitudes would simulate no photons at N > 0
        ("simulate", "N = 1e4", "N = 1e4\namplitudes = 5:0", "coupling.amplitudes"),
        # a repeated m would keep only its last coefficient, or print its
        # threshold twice; a swept output directory would never be read
        ("simulate", "N = 1e4", "N = 1e4\namplitudes = 5:1, 5:2", "coupling.amplitudes"),
        ("estimate", "m_list = 1, 5, 9", "m_list = 5, 5", "estimate.m_list"),
        ("modes", "directory = out", "directory = out\n[sweep]\nfield = output.directory\n"
         "values = a, b", "output.directory"),
        ("estimate", "m_list = 1, 5, 9", "m_list = 1, 0.5", "estimate.m_list"),
        # past the special functions' order limit, and |m| above l
        ("modes", "l = 9", "l = 501", "mode_search.l"),
        ("estimate", "m_list = 1, 5, 9", "m_list = 1, 500", "estimate.m_list"),
        # scan memory grows with the point count
        ("modes", "scan_points = 1500", "scan_points = 100001", "mode_search.scan_points"),
        # and the ladders' length with n k R: at 1e-12 m the scan's Miller
        # start would lie near order 1e8, past the ladders' hard |z| limit
        ("modes", "lambda_min = 6.8e-6", "lambda_min = 1e-12", "mode_search.lambda_min"),
        # as does simulate's, ~1.3 KB per sample: 1e9 samples would exhaust it
        ("simulate", "n_steps = 60\nsample_every = 10",
         "n_steps = 1000000000\nsample_every = 1", "simulation.n_steps"),
        # the file itself: an unknown section, no file (old None), a line
        # that is no key = value
        ("modes", "directory = out", "directory = out\n[plot]\nstyle = dots",
         "plot: unknown section"),
        ("modes", None, None, "config: cannot read"),
        ("modes", "R = 10e-6", "R = 10e-6\nno key here", "config: malformed file"),
        ("simulate", "omega0 = 1e-6, 0, 2e-7", "omega0 = 1e-6, 0", "simulation.omega0"),
        ("modes", "lambda_min = 6.8e-6", "lambda_min = 8.6e-6", "mode_search.lambda_min"),
        ("simulate", "N = 1e4", "N = 1e4\namplitudes = 10:1", "coupling.amplitudes"),
        ("estimate", "m_list = 1, 5, 9", "m_list = 0, 5", "estimate.m_list"),
        ("modes", "directory = out", "directory = out\n[sweep]\nfield = mode_search.l",
         "sweep.values"),
        ("modes", "directory = out", "directory = out\n[sweep]\nfield = mode_search.m\n"
         "values = 1, 2", "sweep.field"),
    ]
    for verb, old, new, field in cases:
        bad = tmp_path / "bad.cfg"
        bad.unlink(missing_ok=True)
        if old is not None:
            bad.write_text(FAST_CFG.replace(old, new))
        code = run_cli(verb, bad, tmp_path / "out")
        assert code == 2, (new, code)
        assert field in capsys.readouterr().err, new
        assert not (tmp_path / "out").exists(), new


def test_window_reach_bounded_by_bessel_limit():
    # n k_hi R <= MAX_ARG/4 keeps the scan and Newton's iterates, which are
    # parked past ~3.2 k_hi, inside the Bessel ladders' hard |z| limit; a
    # swept R is checked against the same bound
    floor = 8.0 * math.pi * 1.52 * 10e-6 / MAX_ARG
    assert RunConfig(n=1.52, R=10e-6, lambda_min=1.001 * floor).validate() == []
    lo = 0.999 * floor
    assert RunConfig(n=1.52, R=10e-6, lambda_min=lo).validate() == [
        ("mode_search.lambda_min",
         f"must be >= 8 pi n R / MAX_ARG = {floor:.6g}, so that n k R <= 2500 over the "
         f"window, got {lo!r}")]
    swept = RunConfig(n=1.52, R=10e-6, lambda_min=1.001 * floor,
                      sweep_field="sphere.R", sweep_values=("10e-6", "11e-6"))
    assert [f for f, _ in swept.validate()] == ["mode_search.lambda_min"]


def test_validate_checks_each_swept_copy():
    # l = 110 puts m = 120 of m_list above l: the copy that value runs is
    # invalid, so the config is, as the CLI has always refused it
    cfg = RunConfig(sweep_field="mode_search.l", sweep_values=("120", "110"),
                    m_list=(1, 10, 120))
    assert cfg.validate() == [
        ("estimate.m_list", "|m| must be <= l = 110, got m=120 (mode_search.l=110)")]
    assert RunConfig(sweep_field="mode_search.l", sweep_values=("120", "121"),
                     m_list=(1, 10, 120)).validate() == []
    # a problem of the base is named once, not once more per swept value
    assert RunConfig(n=-1.0, sweep_field="mode_search.l", sweep_values=("120", "110"),
                     m_list=(1, 10, 120)).validate() == [("sphere.n", "must be >= 1, got -1.0")]


def test_invalid_swept_copy_exit_2_before_any_run(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(REFERENCE_CFG + "\n[sweep]\nfield = mode_search.l\nvalues = 120, 110\n")
    with pytest.raises(ConfigError, match="estimate.m_list"):
        RunConfig.from_file(cfg)
    out = tmp_path / "out"
    assert run_cli("lambda", cfg, out) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: estimate.m_list: |m| must be <= l = 110, "
                                "got m=120 (mode_search.l=110)"]
    assert not out.exists()


def test_unusable_out_exit_2(tmp_path, capsys):
    # an --out that names an existing file cannot become the output directory
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert run_cli("lambda", REFERENCE_CFG_PATH, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert out.read_text() == "keep\n"


def test_empty_window_exit_1(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    # push the window far below the l=9 resonance
    cfg.write_text(FAST_CFG.replace("lambda_min = 6.8e-6", "lambda_min = 60e-6")
                   .replace("lambda_max = 8.6e-6", "lambda_max = 80e-6"))
    out = tmp_path / "out"
    code = run_cli("modes", cfg, out)
    assert code == 1
    assert "no resonance in window" in capsys.readouterr().out
    table = (out / "modes.csv").read_text().splitlines()
    assert table == ["pol,l,k0,lambda_vac,kappa_c,Q"]
    # lambda, estimate and simulate need a resonance to attach Lambda to:
    # they write nothing, and leave no output directory
    for verb in ("lambda", "estimate", "simulate"):
        assert run_cli(verb, cfg, tmp_path / verb) == 1
        assert "no resonance in window" in capsys.readouterr().out
        assert not (tmp_path / verb).exists(), verb


def test_lambda_at_l400_runs_clean(tmp_path, capsys):
    # a +-1 % window about the l = 400 TE pole lies inside the tight Bessel
    # envelope: exit 0 and nothing on stderr, and pyproject's filter makes
    # any AccuracyWarning an error here
    k = lly_wavenumber(400, "TE", math.sqrt(2.31), 10e-6)
    cfg = tmp_path / "l400.cfg"
    cfg.write_text(re.sub(r"(?m)^l = 120$", "l = 400", REFERENCE_CFG)
                   .replace("lambda_min = 736e-9", f"lambda_min = {2 * math.pi / (1.01 * k)!r}")
                   .replace("lambda_max = 751e-9", f"lambda_max = {2 * math.pi / (0.99 * k)!r}"))
    assert run_cli("lambda", cfg, tmp_path / "out") == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "out" / "coupling.json").read_text())["l"] == 400


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_modes_json_is_strict_where_q_overflows(tmp_path, capsys):
    # TM l = 494, n = 2.895 over 0.97-1.09 times its Lam-Leung-Young
    # wavenumber has 3 poles with Q = inf: modes.json writes their Q as null
    # (RFC 8259 JSON has no Infinity), modes.csv keeps inf
    k = lly_wavenumber(494, "TM", 2.895, 10e-6)
    cfg = tmp_path / "l494.cfg"
    cfg.write_text(re.sub(r"(?m)^l = 120$", "l = 494", REFERENCE_CFG)
                   .replace("polarization = TE", "polarization = TM")
                   .replace("n = 1.5198684153570664", "n = 2.895")
                   .replace("lambda_min = 736e-9", f"lambda_min = {2 * math.pi / (1.09 * k)!r}")
                   .replace("lambda_max = 751e-9", f"lambda_max = {2 * math.pi / (0.97 * k)!r}"))
    out = tmp_path / "out"
    with pytest.warns(AccuracyWarning):
        assert run_cli("modes", cfg, out) == 0
    rows = json.loads((out / "modes.json").read_text(), parse_constant=_reject_constant)
    assert len(rows) == 6 and all(row["pol"] == "TM" and row["l"] == 494 for row in rows)
    assert [row["Q"] for row in rows].count(None) == 3
    assert all(row["Q"] is None or math.isfinite(row["Q"]) for row in rows)
    assert (out / "modes.csv").read_text().count(",inf\n") == 3


def test_modes_command_outputs(tmp_path, fast_cfg_path, capsys):
    out = tmp_path / "out"
    code = run_cli("modes", fast_cfg_path, out)
    assert code == 0
    printed = capsys.readouterr().out
    assert "TE l=9" in printed
    rows = json.loads((out / "modes.json").read_text())
    assert len(rows) == 1
    assert rows[0]["pol"] == "TE"
    assert rows[0]["lambda_vac"] == pytest.approx(7.861e-6, rel=1e-3)
    header = (out / "modes.csv").read_text().splitlines()[0]
    assert header == "pol,l,k0,lambda_vac,kappa_c,Q"


def test_lambda_command_matches_library_bit_for_bit(tmp_path, fast_cfg_path, capsys):
    out = tmp_path / "out"
    assert run_cli("lambda", fast_cfg_path, out) == 0
    printed = capsys.readouterr().out
    assert "Lambda = " in printed

    from wgmspin.coupling import compute_lambda
    from wgmspin.wgm import SphereParams, attach_profile, find_resonance

    p = SphereParams(R=10e-6, n=1.52, rho=2000.0)
    window = (2 * math.pi / 8.6e-6, 2 * math.pi / 6.8e-6)
    mode = find_resonance("TE", 9, window, p, scan_points=1500)[0]
    cc = compute_lambda(attach_profile(mode, p), p)
    on_disk = json.loads((out / "coupling.json").read_text())
    assert on_disk["lambda"] == cc.lambda_          # bit-for-bit
    assert on_disk["Q"] == mode.Q


def test_simulate_command_summary_and_reproducibility(tmp_path, fast_cfg_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert run_cli("simulate", fast_cfg_path, out1) == 0
    assert run_cli("simulate", fast_cfg_path, out2) == 0
    summary = json.loads((out1 / "summary.json").read_text())
    assert set(summary) == {"precession_hz_measured", "precession_hz_predicted",
                            "drift_abs_S", "drift_abs_omega", "drift_K",
                            "drift_Hr", "lambda", "I", "units"}
    assert summary["units"] == "Hz"
    # the run's constants, as lambda writes them
    assert run_cli("lambda", fast_cfg_path, tmp_path / "lam") == 0
    coupling = json.loads((tmp_path / "lam" / "coupling.json").read_text())
    assert (summary["lambda"], summary["I"]) == (coupling["lambda"], coupling["I"])
    assert summary["drift_abs_S"] < 1e-12
    assert summary["drift_Hr"] < 1e-9
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


@pytest.mark.parametrize("omega0", ["1e-8, 0, 2e-9", "1e-4, 0, 2e-5"],
                         ids=["S-dominated", "omega-dominated"])
def test_trajectory_csv_and_summary_give_K_and_H_r(tmp_path, monkeypatch, omega0):
    # trajectory.csv leaves out K = I w - (Lambda-1) hbar S and H_r = I |w|^2 / 2;
    # the rows and the summary's lambda and I give them back to a few float64
    # roundings (1e-15 ~ 4.5 eps) of the in-process longdouble channels
    runs = record_returns(monkeypatch, cli.dynamics, "simulate")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(REFERENCE_CFG.replace("omega0 = 1e-8, 0, 2e-9", f"omega0 = {omega0}"))
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == 0
    traj, = runs
    summary = json.loads((out / "summary.json").read_text())
    lam, inertia = summary["lambda"], summary["I"]
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=2)
    w, s = rows[:, 1:4], rows[:, 4:7]
    k = inertia * w - (lam - 1.0) * HBAR * s
    scale = (inertia * np.linalg.norm(w, axis=1)
             + abs(lam - 1.0) * HBAR * np.linalg.norm(s, axis=1))
    assert np.max(np.linalg.norm(k - traj.K, axis=1) / scale) < 1e-15
    h_r = 0.5 * inertia * np.sum(w * w, axis=1)
    assert np.max(np.abs(h_r - traj.H_r) / traj.H_r) < 1e-15


def test_artifacts_end_lines_with_lf(tmp_path, fast_cfg_path):
    for verb in ("modes", "lambda", "estimate", "simulate"):
        out = tmp_path / verb
        assert run_cli(verb, fast_cfg_path, out) == 0
        for path in out.iterdir():
            assert b"\r" not in path.read_bytes(), path.name


def test_mode_table_exports(tmp_path, fast_cfg_path, monkeypatch):
    found = record_returns(monkeypatch, cli.wgm, "find_resonance")
    out = tmp_path / "out"
    assert run_cli("modes", fast_cfg_path, out) == 0
    (mode,), = found
    lines = (out / "modes.csv").read_text().splitlines()
    assert lines[0] == "pol,l,k0,lambda_vac,kappa_c,Q"
    rows = json.loads((out / "modes.json").read_text())
    assert rows[0]["pol"] == "TE"
    assert set(rows[0]) == {"pol", "l", "k0", "lambda_vac", "kappa_c", "Q"}
    want = [mode.polarization, mode.l, mode.k0, mode.lambda_vac, mode.kappa_c, mode.Q]
    assert [rows[0][key] for key in lines[0].split(",")] == want
    pol, l, *floats = lines[1].split(",")
    assert [pol, int(l), *map(float, floats)] == want  # bit for bit
    assert len(lines) == 2


def test_coupling_json_fields(tmp_path, fast_cfg_path, monkeypatch):
    computed = record_returns(monkeypatch, cli.coupling, "compute_lambda")
    out = tmp_path / "out"
    assert run_cli("lambda", fast_cfg_path, out) == 0
    cc, = computed
    on_disk = json.loads((out / "coupling.json").read_text())
    assert set(on_disk) == {"lambda", "I", "l", "k0", "kappa_c", "Q"}
    assert on_disk == {"lambda": cc.lambda_, "I": cc.I, "l": cc.l, "k0": cc.mode.k0,
                       "kappa_c": cc.mode.kappa_c, "Q": cc.mode.Q}


def test_trajectory_csv_header_and_determinism(tmp_path, fast_cfg_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", fast_cfg_path, out1) == 0
    assert run_cli("simulate", fast_cfg_path, out2) == 0
    lines = (out1 / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "t,omega_x,omega_y,omega_z,S_x,S_y,S_z,q_w,q_x,q_y,q_z"
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_trajectory_csv_rows_are_the_arrays(tmp_path, monkeypatch):
    # sample_every = 7 does not divide n_steps = 60: the last row is the
    # extra sample at n_steps
    runs = record_returns(monkeypatch, cli.dynamics, "simulate")
    cfg = tmp_path / "every7.cfg"
    cfg.write_text(FAST_CFG.replace("sample_every = 10", "sample_every = 7"))
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == 0
    traj, = runs
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in (out / "trajectory.csv").read_text().splitlines()[2:]])
    assert rows.shape == (traj.t.size, 11) == (10, 11)

    def assert_bits(got, want):
        want = np.asarray(want, dtype=float)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    for cols, want in ((slice(0, 1), traj.t[:, None]),
                       (slice(1, 4), traj.omega.astype(float)),
                       (slice(4, 7), traj.S.astype(float)),
                       (slice(7, 11), traj.orientation.astype(float))):
        assert_bits(rows[:, cols], want)
    samples = traj.samples
    assert len(samples) == traj.t.size
    for i, s in enumerate(samples):
        assert s.t == traj.t[i]
        for got, want in ((s.omega, traj.omega[i]), (s.S, traj.S[i]),
                          (s.orientation, traj.orientation[i])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_simulate_zero_field_reports_null(tmp_path):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(FAST_CFG.replace("N = 1e4", "N = 0"))
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["precession_hz_measured"] is None
    traj = (out / "trajectory.csv").read_text().splitlines()
    first = traj[2].split(",")
    last = traj[-1].split(",")
    assert first[1:4] == last[1:4]  # omega constant


def test_estimate_command_m_table(tmp_path, fast_cfg_path, capsys):
    out = tmp_path / "out"
    assert run_cli("estimate", fast_cfg_path, out) == 0
    payload = json.loads((out / "estimates.json").read_text())
    assert set(payload["threshold_hz_by_m"]) == {"1", "5", "9"}
    t1 = payload["threshold_hz_by_m"]["1"]
    t9 = payload["threshold_hz_by_m"]["9"]
    assert t1 / t9 == pytest.approx(9.0, rel=1e-12)
    assert payload["precession_hz_simplified"] > 0


def test_estimate_default_m_list_stays_within_l(tmp_path):
    # without m_list, estimate reports those of m = 1, 10, 120 that do not
    # exceed l, so the default passes the |m| <= l check for every l
    cfg = tmp_path / "default.cfg"
    cfg.write_text(FAST_CFG.replace("m_list = 1, 5, 9\n", ""))
    out = tmp_path / "out"
    assert run_cli("estimate", cfg, out) == 0
    payload = json.loads((out / "estimates.json").read_text())
    assert set(payload["threshold_hz_by_m"]) == {"1"}


def test_estimate_natural_units_flag(tmp_path, fast_cfg_path, capsys):
    # hbar = c = 1 turns a rate in Hz into Hz / c: every natural-unit rate
    # times c is the SI rate
    si, nat = ({}, {})
    for payload, flags in ((si, ()), (nat, ("--natural-units",))):
        out = tmp_path / f"out{len(flags)}"
        assert run_cli("estimate", fast_cfg_path, out, *flags) == 0
        payload.update(json.loads((out / "estimates.json").read_text()))
    assert "natural" in nat["units"] and si["units"] == "Hz"
    pairs = [(nat[k], si[k]) for k in ("precession_hz_exact", "precession_hz_simplified")]
    pairs += [(nat["threshold_hz_by_m"][m], v) for m, v in si["threshold_hz_by_m"].items()]
    for natural, want in pairs:
        assert natural * C_LIGHT == pytest.approx(want, rel=1e-15)


def test_simulate_natural_units_flag(tmp_path, fast_cfg_path):
    # the precession rates are divided by c, the drifts are unit-free
    si, nat = ({}, {})
    for payload, flags in ((si, ()), (nat, ("--natural-units",))):
        out = tmp_path / f"out{len(flags)}"
        assert run_cli("simulate", fast_cfg_path, out, *flags) == 0
        payload.update(json.loads((out / "summary.json").read_text()))
    assert "natural" in nat["units"] and si["units"] == "Hz"
    for key in ("precession_hz_measured", "precession_hz_predicted"):
        assert nat[key] * C_LIGHT == pytest.approx(si[key], rel=1e-15)
    for key in ("drift_abs_S", "drift_abs_omega", "drift_K", "drift_Hr", "lambda", "I"):
        assert nat[key] == si[key]


def test_sweep_fans_out(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(FAST_CFG + "\n[sweep]\nfield = mode_search.l\nvalues = 9, 10\n")
    out = tmp_path / "out"
    code = run_cli("modes", cfg, out)
    assert code == 0
    for l, lam in ((9, 7.861e-6), (10, 7.22e-6)):
        rows = json.loads((out / f"mode_search.l={l}" / "modes.json").read_text())
        assert rows[0]["l"] == l
        assert rows[0]["lambda_vac"] == pytest.approx(lam, rel=5e-3)


@pytest.mark.parametrize("verb, field, values, code, named", [
    ("modes", "mode_search.polarization", "TE, TM", 0, None),
    ("modes", "mode_search.l", "120.5", 2, "sweep.values"),
    ("simulate", "simulation.n_steps", "100.7", 2, "sweep.values"),
    ("lambda", "mode_search.scan_points", "1.5e3, 2000", 2, "sweep.values"),
    ("simulate", "simulation.omega0", "1", 2, "sweep.field"),
    ("lambda", "mode_search.l", "120, 120", 2, "sweep.values"),
])
def test_sweep_values_parse_as_the_swept_field(tmp_path, capsys, verb, field,
                                               values, code, named):
    # sweep values go through the swept field's own parser, and a bad value
    # is rejected before any run writes a subdirectory
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(REFERENCE_CFG + f"\n[sweep]\nfield = {field}\nvalues = {values}\n")
    out = tmp_path / "out"
    assert run_cli(verb, cfg, out) == code
    if code == 0:
        expected = [f"{field}={v.strip()}" for v in values.split(",")]
        assert sorted(p.name for p in out.iterdir()) == expected
    else:
        assert named in capsys.readouterr().err
        assert not out.exists()


def test_sweep_value_error_does_not_stop_the_sweep(tmp_path, capsys):
    # TM is refused before its subdirectory is made (Lambda is defined for TE
    # only); TE still runs and writes what a plain TE run writes
    plain, out = tmp_path / "plain", tmp_path / "out"
    assert run_cli("lambda", REFERENCE_CFG_PATH, plain) == 0
    capsys.readouterr()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(REFERENCE_CFG + "\n[sweep]\nfield = mode_search.polarization\n"
                   "values = TM, TE\n")
    assert run_cli("lambda", cfg, out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert not (out / "mode_search.polarization=TM").exists()
    te = out / "mode_search.polarization=TE" / "coupling.json"
    assert te.read_bytes() == (plain / "coupling.json").read_bytes()


def test_sweep_stdout_names_each_value_in_order(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(FAST_CFG + "\n[sweep]\nfield = mode_search.l\nvalues = 10, 9\n")
    printed = []
    for run in ("a", "b"):
        assert run_cli("modes", cfg, tmp_path / run) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    lines = printed[0].splitlines()
    assert [line for line in lines if line.startswith("[")] == [
        "[mode_search.l=10]", "[mode_search.l=9]"]
    assert lines[0] == "[mode_search.l=10]" and lines[1].startswith("TE l=10 ")


def test_readme_sweep_example_runs(tmp_path):
    block = re.search(r"```ini\n(\[sweep\]\n.*?)```",
                      (ROOT / "README.md").read_text(), re.S).group(1)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(REFERENCE_CFG + "\n" + block)
    out = tmp_path / "out"
    assert run_cli("lambda", cfg, out) == 0
    parsed = RunConfig.from_file(cfg)
    subdirs = sorted(out.iterdir())
    assert [d.name for d in subdirs] == sorted(
        f"{parsed.sweep_field}={v}" for v in parsed.sweep_values)
    assert all((d / "coupling.json").is_file() for d in subdirs)


def test_readme_python_blocks_run():
    # the library sketch, then the dynamics example that uses its cc
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    scope = {}
    for block in blocks:
        exec(block, scope)
    assert scope["cc"].lambda_ == pytest.approx(1.12387, abs=1e-5)
    assert len(scope["traj"].samples) == 1001


def test_lambda_uniform_medium_prints_zero(tmp_path, capsys):
    cfg = tmp_path / "uniform.cfg"
    cfg.write_text(FAST_CFG.replace("n = 1.52", "n = 1.0"))
    out = tmp_path / "out"
    assert run_cli("lambda", cfg, out) == 0
    assert "Lambda = 0.000000" in capsys.readouterr().out
    payload = json.loads((out / "coupling.json").read_text())
    assert payload["lambda"] == 0.0
    assert payload["Q"] is None
    # the one coupling.json schema: the keys of a resonance's coupling.json
    resonance = tmp_path / "resonance.cfg"
    resonance.write_text(FAST_CFG)
    assert run_cli("lambda", resonance, tmp_path / "res") == 0
    assert set(payload) == set(json.loads((tmp_path / "res" / "coupling.json").read_text()))


def test_numerical_failure_exit_3(tmp_path, capsys):
    # l = 120 at size parameter kR ~ 0.3: the exterior Neumann function
    # overflows double range, signalled as OverflowError -> exit 3
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(FAST_CFG
                   .replace("l = 9", "l = 120")
                   .replace("lambda_min = 6.8e-6", "lambda_min = 2.0e-4")
                   .replace("lambda_max = 8.6e-6", "lambda_max = 2.2e-4"))
    code = run_cli("modes", cfg, tmp_path / "out")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1.52", "1.0"])
def test_lambda_for_tm_rejected_as_invalid_input(tmp_path, capsys, n):
    # n = 1 takes the no-contrast shortcut for TE; TM must still be rejected
    cfg = tmp_path / "tm.cfg"
    cfg.write_text(FAST_CFG.replace("polarization = TE", "polarization = TM")
                   .replace("n = 1.52", f"n = {n}"))
    code = run_cli("lambda", cfg, tmp_path / "out")
    assert code == 2
    assert "mode_search.polarization" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["estimate", "simulate"])
def test_te_only_verbs_reject_tm_before_any_output(tmp_path, capsys, verb):
    # estimate and simulate need Lambda as lambda does: a TM config exits 2
    # naming the key and leaves no output directory
    cfg = tmp_path / "tm.cfg"
    cfg.write_text(FAST_CFG.replace("polarization = TE", "polarization = TM"))
    assert run_cli(verb, cfg, tmp_path / "out") == 2
    assert "mode_search.polarization" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_estimate_zero_photons_zero_estimate(tmp_path):
    cfg = tmp_path / "n0.cfg"
    cfg.write_text(FAST_CFG.replace("N = 1e4", "N = 0"))
    out = tmp_path / "out"
    assert run_cli("estimate", cfg, out) == 0
    payload = json.loads((out / "estimates.json").read_text())
    assert payload["precession_hz_exact"] == 0.0
    assert payload["precession_hz_simplified"] == 0.0

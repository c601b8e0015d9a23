"""Command-line driver: config handling, exit codes, report files."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest
from mpmath import mp, mpf

from biorthlab import cli
from biorthlab.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    RunConfig,
    _effective_digits,
    config_hash,
    load_config,
    main,
)
from biorthlab.mpnum import NonConvergent

HAVE_MPL = importlib.util.find_spec("matplotlib") is not None


def _write_cfg(tmp_path, **kw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(kw))
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


def _assert_figure(out, png, summary_name):
    """The PNG is written and listed iff matplotlib is installed."""
    figures = json.loads((out / summary_name).read_text())["figures"]
    if HAVE_MPL:
        assert (out / png).exists()
        assert str(out / png) in figures
    else:
        assert not (out / png).exists()
        assert figures == []


# --- config -----------------------------------------------------------------

def test_runconfig_defaults_validate():
    pot = RunConfig().validate()
    assert pot.degree == 2


@pytest.mark.parametrize("kw", [
    {"n_list": ()},
    {"n_list": (0,)},
    {"digits": 16},
    {"regime": "sideways"},
    {"t_list": ()},
    {"potential_coeffs": ("0", "0", "-1")},
])
def test_runconfig_rejects(kw):
    with pytest.raises(ConfigError):
        RunConfig(**kw).validate()


def test_load_config_unknown_key(tmp_path):
    path = _write_cfg(tmp_path, digits=48, bogus=1)
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_coercions(tmp_path):
    path = _write_cfg(tmp_path, n_list=[4, 8], t_list=["1", "1/2"],
                      grid=[["0", "0"], ["0.5", "-0.5"]], digits=48)
    cfg = load_config(path)
    assert cfg.n_list == (4, 8)
    assert cfg.t_list == ("1", "1/2")
    assert cfg.grid == (("0", "0"), ("0.5", "-0.5"))


def test_load_config_numbers_as_decimals(tmp_path):
    # JSON numbers go through their decimal repr, never a binary float
    path = _write_cfg(tmp_path, x_star=0, delta=0.15, delta_prime=0.2)
    cfg = load_config(path)
    assert (cfg.x_star, cfg.delta, cfg.delta_prime) == ("0", "0.15", "0.2")


def test_config_hash_shape_and_sensitivity():
    base = RunConfig()
    h = config_hash(base)
    assert len(h) == 12 and int(h, 16) >= 0
    assert h == config_hash(RunConfig())
    assert h != config_hash(RunConfig(digits=96))


def test_effective_digits_floor():
    cfg = RunConfig(digits=48)
    assert _effective_digits(cfg, 2) == 48
    assert _effective_digits(cfg, 8) == 96


def test_default_grids_cover_regimes():
    for regime in ("bulk", "edge_right", "edge_left", "raw"):
        cfg = RunConfig(regime=regime)
        assert cfg.effective_grid()


# --- exit codes ---------------------------------------------------------------

def test_exit_validation_on_bad_digits(tmp_path):
    path = _write_cfg(tmp_path, digits=8)
    assert main(["--config", path, "equilibrium"]) == EXIT_VALIDATION


def test_exit_validation_on_unknown_key(tmp_path):
    path = _write_cfg(tmp_path, digits=48, bogus=1)
    assert main(["--config", path, "equilibrium"]) == EXIT_VALIDATION


def test_exit_io_on_missing_config():
    assert main(["--config", "/no/such/file.json", "equilibrium"]) == EXIT_IO


@pytest.mark.parametrize("command, kw", [
    ("universality", {"n_list": ["abc"]}),
    ("universality", {"n_list": [2.5]}),
    ("universality", {"digits": 40.5}),
    ("universality", {"grid": [[0]]}),
    ("universality", {"x_star": "abc"}),
    ("universality", {"t_list": ["0"]}),
    ("diagnostics", {"delta": "zz", "m_window": 4}),
])
def test_exit_validation_on_malformed_value(tmp_path, capsys, command, kw):
    _assert_config_error(tmp_path, capsys, command, kw)


# strings where lists belong: "102" must not read as 1 + 2x^2
@pytest.mark.parametrize("kw", [
    {"potential_coeffs": "102"},
    {"t_list": "12"},
    {"n_list": 4},
])
def test_exit_validation_on_scalar_for_list(tmp_path, capsys, kw):
    _assert_config_error(tmp_path, capsys, "universality", kw)


def _assert_config_error(tmp_path, capsys, command, kw):
    # each is caught before any build, so nothing is written
    cfgp = _write_cfg(tmp_path, **dict({"n_list": [4], "digits": 48,
                                        "output_dir": str(tmp_path / "out")},
                                       **kw))
    assert main(["--config", cfgp, command]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


# a config document that is not an object is refused before anything else
@pytest.mark.parametrize("doc", ['[]', '"abc"', '5', '[["n_list", [4]]]'],
                         ids=["list", "string", "number", "pairs"])
def test_exit_validation_on_non_object_config(tmp_path, capsys, doc):
    cfgp = tmp_path / "bad.json"
    cfgp.write_text(doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfgp), "--out", str(out), "verify"]) \
        == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "JSON object" in err
    assert not out.exists()


def test_exit_validation_on_bulk_x_star_outside_support(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, n_list=[4], digits=48, x_star="5",
                      output_dir=str(tmp_path / "out"))
    assert main(["--config", cfgp, "universality"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "x_star" in err


def test_exit_validation_on_m_window_above_n(tmp_path, capsys):
    # the default m_window 6 exceeds n = 4
    cfgp = _write_cfg(tmp_path, n_list=[4], digits=48,
                      output_dir=str(tmp_path / "out"))
    assert main(["--config", cfgp, "diagnostics"]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


# diagnostics need 0 < delta < 1, 0 < delta' < 1, and degrees through
# n + floor(delta n) that construct can build (at most n + 8)
@pytest.mark.parametrize("kw", [
    {"delta": "-0.5", "delta_prime": "0.5"},
    {"delta_prime": "1.5"},
    {"n_list": [20], "delta": "1/2"},
], ids=["delta", "delta_prime", "delta_n"])
def test_exit_validation_on_diagnostics_delta(tmp_path, capsys, kw):
    _assert_config_error(tmp_path, capsys, "diagnostics",
                         dict({"m_window": 4}, **kw))


def test_exit_numeric_on_nonconvergence(tmp_path, monkeypatch):
    def boom(cfg):
        raise NonConvergent("synthetic stall")

    monkeypatch.setitem(cli._COMMANDS, "biortho", boom)
    assert main(["--out", str(tmp_path), "biortho"]) == EXIT_NUMERIC


# --- cache entries ------------------------------------------------------------

_CACHED_RUN = dict(n_list=[4], digits=48, grid=[["0", "0"]])


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    # one cold universality run leaves one eq_ and one biortho_ entry
    root = tmp_path_factory.mktemp("warm")
    cfgp = _write_cfg(root, output_dir=str(root / "out"),
                      cache_dir=str(root / "cache"), **_CACHED_RUN)
    assert main(["--config", cfgp, "universality"]) == EXIT_OK
    return root / "cache"


def _run_on_cache(tmp_path, warm_cache, drop=None):
    # universality on a copy of warm_cache, less its entry named drop
    cache = tmp_path / "cache"
    shutil.copytree(warm_cache, cache)
    if drop is not None:
        for entry in cache.glob(drop + "*.json"):
            entry.unlink()
    cfgp = _write_cfg(tmp_path, output_dir=str(tmp_path / "out"),
                      cache_dir=str(cache), **_CACHED_RUN)
    return cache, lambda: main(["--config", cfgp, "universality"])


@pytest.mark.parametrize("prefix, size", [("eq_", 40), ("biortho_", 100)])
def test_exit_io_on_cut_cache_entry(tmp_path, capsys, warm_cache, prefix,
                                    size):
    # an entry cut short by an interrupted write is an i/o error naming it
    cache, run = _run_on_cache(tmp_path, warm_cache)
    entry, = cache.glob(prefix + "*.json")
    entry.write_bytes(entry.read_bytes()[:size])
    assert run() == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(entry) in err


@pytest.mark.parametrize("prefix, edit", [
    ("eq_", lambda doc: {}),
    ("eq_", lambda doc: [1, 2]),
    ("eq_", lambda doc: dict(doc, c1=1.0)),
    ("eq_", lambda doc: dict(doc, c0="abc")),
    ("eq_", lambda doc: dict(doc, N=str(doc["N"]))),
    ("eq_", lambda doc: dict(doc, hc=doc["hc"][:-1])),
    ("eq_", lambda doc: dict(doc, N=4, **{k: doc[k][:4] for k in (
        "Ak", "Bk", "hc", "psi_v")})),
    ("biortho_", lambda doc: {}),
    ("biortho_", lambda doc: [1, 2]),
    ("biortho_", lambda doc: dict(doc, m=float(doc["m"]))),
    ("biortho_", lambda doc: dict(doc, h=["abc"] + doc["h"][1:])),
    ("biortho_", lambda doc: dict(doc, h=doc["h"][:-1])),
], ids=["eq-empty", "eq-list", "eq-c1-number", "eq-c0-text", "eq-N-string",
        "eq-hc-short", "eq-N-small", "biortho-empty", "biortho-list",
        "biortho-m-float", "biortho-h-text", "biortho-h-short"])
def test_exit_io_on_wrong_shape_cache_entry(tmp_path, capsys, warm_cache,
                                            prefix, edit):
    # valid JSON of the wrong shape is an i/o error naming the entry
    cache, run = _run_on_cache(tmp_path, warm_cache)
    entry, = cache.glob(prefix + "*.json")
    entry.write_text(json.dumps(edit(json.loads(entry.read_text()))))
    assert run() == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(entry) in err


def test_exit_numeric_on_tampered_series(tmp_path, capsys, warm_cache):
    # a restored engine whose sigma tail never settled fails its spot check
    cache, run = _run_on_cache(tmp_path, warm_cache)
    entry, = cache.glob("eq_*.json")
    doc = json.loads(entry.read_text())
    doc["Ak"][-1] = "1e-3"
    entry.write_text(json.dumps(doc))
    assert run() == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith(
        "numerical error: NonConvergent: cached Fourier series")


@pytest.mark.parametrize("prefix", ["eq_", "biortho_"])
def test_failed_cache_write_leaves_nothing(tmp_path, capsys, monkeypatch,
                                           warm_cache, prefix):
    # a write that fails halfway leaves neither the entry nor a temp file
    cache, run = _run_on_cache(tmp_path, warm_cache, drop=prefix)
    before = sorted(os.listdir(cache))

    def dump_half(doc, fh, **kw):
        fh.write(json.dumps(doc, **kw)[:40])
        raise OSError("synthetic: no space left on device")

    monkeypatch.setattr(json, "dump", dump_half)
    assert run() == EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert sorted(os.listdir(cache)) == before


# --- commands -----------------------------------------------------------------

def test_equilibrium_command(tmp_path):
    cfgp = _write_cfg(tmp_path, t_list=["1", "1/2"], digits=48,
                      output_dir=str(tmp_path / "out"))
    assert main(["--config", cfgp, "equilibrium"]) == EXIT_OK
    out = tmp_path / "out"
    rows = _read_csv(out / "equilibrium.csv")
    assert rows[0] == ["t", "c0", "c1", "a", "b", "alpha", "beta", "ell",
                       "config_hash"]
    assert len(rows) == 3
    with mp.workdps(40):
        # first row is t = 1 for the quadratic field: c1 = t, c0 = t/2
        assert abs(mpf(rows[1][2]) - 1) < mpf(10) ** -20
        assert abs(mpf(rows[2][2]) - mpf("0.5")) < mpf(10) ** -20
        assert abs(mpf(rows[1][1]) - mpf("0.5")) < mpf(10) ** -20
    _assert_figure(out, "equilibrium.png", "equilibrium_summary.json")
    summary = json.loads((out / "equilibrium_summary.json").read_text())
    assert summary["rows"] == 2
    assert sorted(summary["per_t"]) == ["1", "1/2"]
    for meta in summary["per_t"].values():
        assert 0 < meta["fourier_nodes"] < 4 * 48
        assert 0 <= meta["fourier_tail"] < 1e-48
        assert meta["equilibrium_cache"] == "off"


def test_biortho_command(tmp_path):
    cfgp = _write_cfg(tmp_path, n_list=[4], digits=48,
                      output_dir=str(tmp_path / "out"))
    assert main(["--config", cfgp, "biortho"]) == EXIT_OK
    rows = _read_csv(tmp_path / "out" / "biortho.csv")
    assert rows[0][:3] == ["n", "m", "digits"]
    assert len(rows) == 2
    with mp.workdps(40):
        assert mpf(rows[1][3]) > 0  # h_min
        assert mpf(rows[1][4]) >= mpf(rows[1][3])  # h_max
    summary = json.loads((tmp_path / "out" / "biortho_summary.json")
                         .read_text())
    assert summary["system_cache"] == {"4": "off"}


def test_universality_warm_cache_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfgp = _write_cfg(tmp_path, n_list=[4], digits=48,
                      grid=[["0", "0"], ["0.25", "-0.25"]],
                      output_dir=str(out), cache_dir=str(tmp_path / "cache"))
    assert main(["--config", cfgp, "universality"]) == EXIT_OK
    first = (out / "universality.csv").read_bytes()
    _assert_figure(out, "universality_bulk.png", "universality_summary.json")
    summary = out / "universality_summary.json"
    cold = json.loads(summary.read_text())
    per_n = cold["per_n"]
    assert per_n["4"]["equilibrium_cache"] == "miss"
    assert cold["system_cache"] == {"4": "miss"}
    assert main(["--config", cfgp, "universality"]) == EXIT_OK
    assert (out / "universality.csv").read_bytes() == first
    warm_summary = json.loads(summary.read_text())
    warm = warm_summary["per_n"]
    assert warm["4"]["equilibrium_cache"] == "hit"
    assert warm_summary["system_cache"] == {"4": "hit"}
    assert warm["4"]["fourier_nodes"] == per_n["4"]["fourier_nodes"]
    assert warm["4"]["fourier_tail"] == per_n["4"]["fourier_tail"]
    rows = _read_csv(out / "universality.csv")
    assert rows[0] == ["regime", "n", "xi", "eta", "value", "reference",
                       "abs_err", "rel_err", "config_hash"]
    assert len(rows) == 3


def test_universality_jobs_match_serial(tmp_path):
    kw = dict(n_list=[4, 6], digits=48, grid=[["0", "0"], ["0.5", "0"]],
              cache_dir=str(tmp_path / "cache"))
    cfg1 = _write_cfg(tmp_path, output_dir=str(tmp_path / "o1"), **kw)
    rc = main(["--config", cfg1, "--jobs", "2", "universality"])
    assert rc == EXIT_OK
    cfg2 = json.loads((tmp_path / "cfg.json").read_text())
    cfg2["output_dir"] = str(tmp_path / "o2")
    (tmp_path / "cfg2.json").write_text(json.dumps(cfg2))
    assert main(["--config", str(tmp_path / "cfg2.json"), "universality"]) \
        == EXIT_OK
    # identical numbers; the appended hash differs with the config
    strip = lambda rows: [r[:-1] for r in rows]
    assert strip(_read_csv(tmp_path / "o1" / "universality.csv")) \
        == strip(_read_csv(tmp_path / "o2" / "universality.csv"))


def test_universality_edge_regime(tmp_path):
    cfgp = _write_cfg(tmp_path, n_list=[4], digits=48, regime="edge_right",
                      grid=[["0", "0"], ["1", "0.5"]],
                      output_dir=str(tmp_path / "out"))
    assert main(["--config", cfgp, "universality"]) == EXIT_OK
    rows = _read_csv(tmp_path / "out" / "universality.csv")
    assert rows[1][0] == "edge_right"


def test_universality_x_star_override(tmp_path):
    cfgp = _write_cfg(tmp_path, n_list=[4], digits=48, x_star="0.7",
                      grid=[["0", "0"]], output_dir=str(tmp_path / "out"))
    assert main(["--config", cfgp, "universality"]) == EXIT_OK
    summary = json.loads(
        (tmp_path / "out" / "universality_summary.json").read_text())
    assert summary["per_n"]


def test_universality_x_star_zero(tmp_path):
    # a numeric 0 pins x* = 0 like "0" does, not the support midpoint
    rows = []
    for name, x_star in (("num", 0), ("str", "0")):
        cfgp = _write_cfg(tmp_path, n_list=[4], digits=48, x_star=x_star,
                          grid=[["0", "0"], ["0.5", "-0.5"]],
                          cache_dir=str(tmp_path / "cache"),
                          output_dir=str(tmp_path / name))
        assert main(["--config", cfgp, "universality"]) == EXIT_OK
        rows.append([r[:-1] for r in
                     _read_csv(tmp_path / name / "universality.csv")])
    assert rows[0] == rows[1]


def test_diagnostics_command(tmp_path):
    cfgp = _write_cfg(tmp_path, n_list=[6], digits=48,
                      output_dir=str(tmp_path / "out"))
    assert main(["--config", cfgp, "diagnostics"]) == EXIT_OK
    out = tmp_path / "out"
    rows = _read_csv(out / "diagnostics.csv")
    assert rows[0][:3] == ["n", "digits", "identity_residual"]
    with mp.workdps(60):
        assert mpf(rows[1][2]) < mpf(10) ** -12
    # the residual is printed to 3 significant digits
    assert len(rows[1][2].split("e")[0].replace(".", "").lstrip("0")) <= 3
    arows = _read_csv(out / "alpha_limits.csv")
    assert arows[0][:2] == ["l", "alpha_l"]
    assert [r[0] for r in arows[1:]] == ["-1", "0", "1", "2", "3", "4"]
    _assert_figure(out, "diagnostics.png", "diagnostics_summary.json")
    meta = json.loads((out / "diagnostics_summary.json").read_text())["per_n"]
    assert meta["6"]["equilibrium_cache"] == "off"
    assert meta["6"]["fourier_nodes"] > 0


def test_diagnostics_command_small_m_window(tmp_path):
    # alpha_l is tabulated for l = -1 .. m_window, so m_window 3 gives 5 rows
    cfgp = _write_cfg(tmp_path, n_list=[4], digits=48, m_window=3,
                      output_dir=str(tmp_path / "out"))
    assert main(["--config", cfgp, "diagnostics"]) == EXIT_OK
    arows = _read_csv(tmp_path / "out" / "alpha_limits.csv")
    assert [r[0] for r in arows[1:]] == ["-1", "0", "1", "2", "3"]


def test_verify_command(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "out"), "verify"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("[PASS]") >= 9
    assert "[FAIL]" not in text
    summary = json.loads(
        (tmp_path / "out" / "verify_summary.json").read_text())
    assert summary["all_pass"] is True
    assert all(c["pass"] for c in summary["checks"])


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "biorthlab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for word in ("equilibrium", "biortho", "universality", "diagnostics",
                 "verify"):
        assert word in proc.stdout

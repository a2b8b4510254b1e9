import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drdetect import (
    ExperimentConfig,
    Method,
    NoiseFamily,
    chi_squared_moments,
    run_far,
    run_reach,
    run_tune,
)
from drdetect import cli_runner, detector_tuning
from drdetect.cli_runner import (
    ANALYTIC_CHI_SQUARED,
    EMPIRICAL,
    main,
    resolve_moments,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _gaussian_config():
    return ExperimentConfig.from_json(CONFIG_DIR / "benchmark2d_gaussian.json")


def _small(config, **overrides):
    base = dict(
        empirical_samples=20_000,
        sim_samples=20_000,
        burn_in=100,
        reach_horizon=30,
        reach_dirs=64,
    )
    base.update(overrides)
    return replace(config, **base)


def test_config_from_json_gaussian():
    config = _gaussian_config()
    assert config.target_rate == 0.05
    assert config.orders == (1, 2, 4)
    assert config.moment_source == ANALYTIC_CHI_SQUARED
    assert config.noise_family is NoiseFamily.GAUSSIAN
    assert config.seed == 0
    assert config.system.n == 2 and config.system.p == 2
    assert config.reach_horizon == 50 and config.reach_dirs == 256


def test_config_from_json_laplacian():
    config = ExperimentConfig.from_json(CONFIG_DIR / "benchmark2d_laplacian.json")
    assert config.moment_source == EMPIRICAL
    assert config.noise_family is NoiseFamily.MULTIVARIATE_LAPLACIAN
    assert config.seed == 7
    assert config.empirical_samples == 1_000_000
    # JSON may write an integral count as 1e6
    config = ExperimentConfig.from_dict(_raw_config({"sim": {"samples": 1e6}}))
    assert config.sim_samples == 1_000_000 and type(config.sim_samples) is int


def test_config_orders_sorted_and_deduped():
    config = replace(_gaussian_config(), orders=(4, 1, 2, 2))
    assert config.orders == (1, 2, 4)


@pytest.mark.parametrize(
    "overrides",
    [
        {"target_rate": 0.7},
        {"target_rate": 0.0},
        {"orders": (0, 2)},
        {"orders": ()},
        {"moment_source": "guesswork"},
        {"epsilon": -1e-4},
        {"reach_horizon": 1},
        {"reach_dirs": 8},
        {"noise_rate": 0.0},
        {"sim_samples": 0},
        {"burn_in": -1},
        {"epsilon": float("nan")},
        # JSON 1e999 reads as inf, which would skip every bisection step
        {"epsilon": float("inf")},
        {"detector": {"epsilon": float("inf")}},
        {"seed": -1},
        {"seed": 1.5},
        # a block of the JSON file: from_dict must not truncate a number
        {"noise": {"seed": 1.5}},
        {"detector": {"orders": [1, 2.5, 4]}},
        {"reach": {"n_dirs": 16.9}},
        {"sim": {"samples": 1000.7}},
        {"seed": True},
    ],
)
def test_config_validation(overrides):
    blocks = {key: v for key, v in overrides.items() if isinstance(v, dict)}
    with pytest.raises(ValueError):
        if blocks:
            ExperimentConfig.from_dict(_raw_config(blocks))
        else:
            replace(_gaussian_config(), **overrides)


def _raw_config(blocks):
    """The gaussian config file as a dict, with keys of its blocks replaced."""
    raw = json.loads((CONFIG_DIR / "benchmark2d_gaussian.json").read_text())
    for name, block in blocks.items():
        raw[name].update(block)
    return raw


@pytest.mark.parametrize(
    "block", [None, "system", "detector", "noise", "sim", "reach"]
)
def test_config_rejects_unknown_keys(block):
    # a misspelled key would otherwise be dropped and its default used
    raw = json.loads((CONFIG_DIR / "benchmark2d_gaussian.json").read_text())
    (raw if block is None else raw[block])["epsilion"] = 1e-2
    with pytest.raises(ValueError, match="unknown key.*epsilion"):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_unknown_noise_family():
    raw = json.loads((CONFIG_DIR / "benchmark2d_gaussian.json").read_text())
    raw["noise"]["family"] = "cauchy"
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(raw)


def test_noise_models_seed_split():
    config = _gaussian_config()
    w0, v0 = config.noise_models(0)
    w2, v2 = config.noise_models(2)
    assert (w0.seed, v0.seed, w2.seed, v2.seed) == (0, 1, 2, 3)
    np.testing.assert_allclose(w0.covariance, config.system.sigma_w)
    np.testing.assert_allclose(v0.covariance, config.system.sigma_v)


def test_resolve_moments_analytic():
    config = _gaussian_config()
    seq = resolve_moments(config)
    assert seq == chi_squared_moments(config.system.p, max(config.orders))


def test_resolve_moments_empirical():
    config = _small(_gaussian_config(), moment_source=EMPIRICAL)
    seq = resolve_moments(config)
    # q is chi-squared with 2 dof in steady state
    assert seq.moments[1] == pytest.approx(2.0, rel=0.05)
    assert seq.moments[2] == pytest.approx(8.0, rel=0.15)


def test_run_tune_rows():
    rows = run_tune(_gaussian_config())
    assert [row.method for row in rows] == [
        Method.CHI_SQUARED,
        Method.CLOSED_FORM_K1,
        Method.CLOSED_FORM_K2,
        Method.SDP_BISECTION,
    ]
    chi, k1, k2, k4 = rows
    assert chi.k == 2  # dof, not a moment order
    assert chi.alpha == pytest.approx(5.991464547107979)
    assert k1.alpha == 40.0
    assert k2.alpha == pytest.approx(10.717797887081346, abs=1e-9)
    assert 8.9 <= k4.alpha <= 9.4
    for row in rows[1:]:
        assert row.achieved_worst_case <= 0.05 + 1e-9
        assert row.target_rate == 0.05


@pytest.mark.parametrize("name", ["benchmark2d_gaussian", "benchmark2d_laplacian"])
def test_run_tune_makes_no_solve(name, monkeypatch):
    # on both checked-in configs the law settles every bisection point of
    # the k = 4 row and of the k = 3 row under it, above the rate by its
    # tail and below it by its certificate, whose mean a row then reports.
    # One row on each config has an upper end that no point took down: the
    # gaussian k = 4 row keeps the k = 3 threshold, and the laplacian k = 3
    # row keeps the k = 2 one.  It reports the lesser of its certificate's
    # mean there and the kept row's guarantee, so nothing is solved
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    calls = []
    original = detector_tuning.solve_sdp

    def counted(moments, alpha):
        calls.append((moments.order, alpha))
        return original(moments, alpha)

    monkeypatch.setattr(detector_tuning, "solve_sdp", counted)
    rows = run_tune(ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json"))
    k3 = next(row for row in detector_tuning._AUTO_CACHE.values() if row.k == 3)
    lower, kept = (k3, rows[3]) if name == "benchmark2d_gaussian" else (rows[2], k3)
    assert kept.alpha == lower.alpha
    assert calls == []
    assert kept.achieved_worst_case <= lower.achieved_worst_case <= 0.05


def test_run_far_rates_and_stderr():
    config = _small(_gaussian_config())
    far_rows = run_far(config, run_tune(config))
    assert len(far_rows) == 4
    for row, rate, stderr in far_rows:
        assert 0.0 <= rate <= 1.0
        assert stderr == pytest.approx(
            np.sqrt(rate * (1.0 - rate) / config.sim_samples)
        )
    chi_rate = far_rows[0][1]
    assert chi_rate == pytest.approx(0.05, abs=0.01)
    # tuned thresholds sit above the chi-squared one, so alarm less often
    assert all(r <= chi_rate for _, r, _ in far_rows[1:])


def test_run_reach_report():
    config = _small(_gaussian_config())
    bounds, report = run_reach(config, run_tune(config))
    assert len(bounds) == 4
    assert report.area_ordered and report.support_ordered
    assert report.alphas[0] == max(report.alphas)
    assert all(rb.directions.shape[0] == 64 for rb in bounds)


def _write_small_config(tmp_path):
    raw = json.loads((CONFIG_DIR / "benchmark2d_gaussian.json").read_text())
    raw["sim"] = {"samples": 20_000, "burn_in": 100}
    raw["reach"] = {"horizon": 30, "n_dirs": 64, "noise_rate": 0.05}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_main_tune_writes_thresholds(tmp_path):
    config_path = _write_small_config(tmp_path)
    out = tmp_path / "out"
    code = main(["tune", "--config", str(config_path), "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "thresholds.csv").read_text().splitlines()
    assert lines[0] == "method,k,target_rate,alpha,achieved,epsilon"
    assert len(lines) == 5
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == [
        "chi_squared",
        "closed_form_k1",
        "closed_form_k2",
        "sdp_bisection",
    ]
    assert float(lines[2].split(",")[3]) == 40.0


def test_main_all_writes_every_artifact(tmp_path):
    config_path = _write_small_config(tmp_path)
    out = tmp_path / "out"
    code = main(["all", "--config", str(config_path), "--out", str(out), "--quiet"])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "thresholds.csv" in names
    assert "far.csv" in names
    assert "areas.csv" in names
    assert sum(name.startswith("reach_") for name in names) == 4
    far_lines = (out / "far.csv").read_text().splitlines()
    assert far_lines[0] == "method,k,alpha,rate,stderr,samples"
    assert len(far_lines) == 5
    assert far_lines[1].split(",")[-1] == "20000"
    area_lines = (out / "areas.csv").read_text().splitlines()
    assert area_lines[0] == "alpha,area"
    areas = [float(line.split(",")[1]) for line in area_lines[1:]]
    assert areas == sorted(areas, reverse=True)


def test_main_reach_writes_one_file_per_threshold_row(tmp_path):
    # chi-squared(2) tunes k = 3 and k = 4 to the same threshold, so files
    # named by threshold would collide
    raw = json.loads(_write_small_config(tmp_path).read_text())
    raw["detector"]["orders"] = [3, 4]
    config_path = tmp_path / "orders34.json"
    config_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = main(["reach", "--config", str(config_path), "--out", str(out), "--quiet"])
    assert code == 0
    rows = (out / "thresholds.csv").read_text().splitlines()[1:]
    alphas = [row.split(",")[3] for row in rows]
    assert alphas[1] == alphas[2]
    names = sorted(p.name for p in out.glob("reach_*.csv"))
    assert names == [
        "reach_chi_squared_k2.csv",
        "reach_sdp_bisection_k3.csv",
        "reach_sdp_bisection_k4.csv",
    ]
    assert (out / names[1]).read_bytes() == (out / names[2]).read_bytes()


def _main_from_scratch(monkeypatch, argv):
    # an empty tuning memo per call, so no call reads a row another tuned
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    return main(argv)


def test_main_is_deterministic(tmp_path, monkeypatch):
    config_path = _write_small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert _main_from_scratch(
            monkeypatch,
            ["all", "--config", str(config_path), "--out", str(out), "--quiet"],
        ) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert len(names) == 7
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_main_seed_override_changes_rates_not_thresholds(tmp_path, monkeypatch):
    config_path = _write_small_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, seed in ((out_a, "11"), (out_b, "12")):
        _main_from_scratch(
            monkeypatch,
            ["far", "--config", str(config_path), "--out", str(out), "--quiet",
             "--seed", seed],
        )
    # analytic moments ignore the seed; the fresh simulation does not
    assert (
        (out_a / "thresholds.csv").read_bytes()
        == (out_b / "thresholds.csv").read_bytes()
    )
    assert (out_a / "far.csv").read_bytes() != (out_b / "far.csv").read_bytes()


def test_main_prints_one_line_per_file_unless_quiet(tmp_path, capsys):
    config_path = _write_small_config(tmp_path)
    out = tmp_path / "out"
    argv = ["tune", "--config", str(config_path), "--out", str(out)]
    # the second loud call prints one line too, so the first call's
    # handler is gone
    for extra, expected in (
        ([], f"wrote {out / 'thresholds.csv'}\n"),
        (["--quiet"], ""),
        ([], f"wrote {out / 'thresholds.csv'}\n"),
    ):
        assert main(argv + extra) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""


def _assert_one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("drdetect: error: "), err
    assert text in err


def test_main_rejects_a_negative_seed_before_any_work(tmp_path, capsys):
    config_path = _write_small_config(tmp_path)
    out = tmp_path / "out"
    argv = ["all", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(argv + ["--seed", "-3"]) == 2
    _assert_one_error_line(capsys, "seed must be a nonnegative integer")
    assert not out.exists() or not any(out.iterdir())


def test_main_rejects_reach_on_a_non_planar_system_before_any_work(tmp_path, capsys):
    # the boundary files are planar; a 3-state system used to write
    # thresholds.csv and every reach bound before failing
    eye = np.eye(3).tolist()
    raw = json.loads(_write_small_config(tmp_path).read_text())
    raw["system"] = dict(
        A=(0.5 * np.eye(3)).tolist(), B=eye, C=eye,
        K=(-0.25 * np.eye(3)).tolist(), sigma_w=eye, sigma_v=eye,
    )
    config_path = tmp_path / "spatial.json"
    config_path.write_text(json.dumps(raw))
    for command in ("reach", "all"):
        out = tmp_path / command
        argv = [command, "--config", str(config_path), "--out", str(out), "--quiet"]
        assert main(argv) == 2
        _assert_one_error_line(capsys, "planar")
        assert not out.exists() or not any(out.iterdir())


def test_main_rejects_an_out_path_that_is_a_file_before_any_work(
    tmp_path, capsys, monkeypatch
):
    # the output directory used to be made after the bad-input stage, so
    # an existing file there ended in a FileExistsError traceback, exit 1
    def fail(config):
        raise AssertionError("tuning ran")

    monkeypatch.setattr(cli_runner, "run_tune", fail)
    out = tmp_path / "taken"
    out.write_text("kept\n")
    config_path = CONFIG_DIR / "benchmark2d_gaussian.json"
    argv = ["tune", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(argv) == 2
    _assert_one_error_line(capsys, "taken")
    assert out.read_text() == "kept\n"


def _without_system_key(raw):
    del raw["system"]["K"]


def _with_misspelled_key(raw):
    raw["detector"]["epsilion"] = raw["detector"].pop("epsilon")


def _setting(block, key, value):
    """An edit that sets one key of one block of the config, or of the
    config itself where block is None."""

    def edit(raw):
        (raw if block is None else raw[block])[key] = value

    return edit


@pytest.mark.parametrize(
    "edit, text",
    [
        (_without_system_key, "missing key(s) in block 'system': K"),
        (_with_misspelled_key, "unknown key(s) in block 'detector': epsilion"),
        (None, "No such file or directory"),
        (_setting("detector", "target_rate", [0.05]), "target_rate must be a number"),
        (_setting("detector", "epsilon", {"value": 1e-4}), "epsilon must be a number"),
        (_setting("detector", "epsilon", None), "epsilon must be a number"),
        (_setting("reach", "noise_rate", None), "noise_rate must be a number"),
        (_setting("detector", "target_rate", True), "target_rate must be a number"),
        (_setting("detector", "epsilon", "1e-4"), "epsilon must be a number"),
        (_setting("detector", "orders", None), "orders must be a list"),
        (_setting("detector", "orders", 4), "orders must be a list"),
        (_setting("system", "A", {"a": 1.0}), "A must be a matrix"),
        (_setting("detector", "epsilon", 10**400), "epsilon must be positive"),
        (_setting(None, "output_dir", None), "output_dir must be a string"),
    ],
    ids=[
        "missing-key",
        "unknown-key",
        "missing-file",
        "list-rate",
        "object-epsilon",
        "null-epsilon",
        "null-noise-rate",
        "bool-rate",
        "string-epsilon",
        "null-orders",
        "number-orders",
        "object-matrix",
        "huge-integer-epsilon",
        "null-output-dir",
    ],
)
def test_main_reports_a_config_error_in_one_line(tmp_path, capsys, edit, text):
    # one line and exit 2, not a traceback
    config_path = _write_small_config(tmp_path)
    if edit is None:
        config_path = tmp_path / "absent.json"
    else:
        raw = json.loads(config_path.read_text())
        edit(raw)
        config_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    argv = ["tune", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(argv) == 2
    _assert_one_error_line(capsys, text)
    assert not out.exists()


@pytest.mark.parametrize(
    "raw, text",
    [
        ([], "the config must be a JSON object"),
        (_raw_config({}) | {"detector": 5}, "block 'detector' must be a JSON object"),
        (_raw_config({}) | {"system": []}, "block 'system' must be a JSON object"),
    ],
    ids=["list", "number-block", "list-block"],
)
def test_main_reports_a_config_that_is_no_object_in_one_line(
    tmp_path, capsys, raw, text
):
    # a list or a number where an object belongs is a config error too
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    argv = ["tune", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(argv) == 2
    _assert_one_error_line(capsys, text)
    assert not out.exists()


@pytest.mark.parametrize(
    "system, text",
    [
        ({"A": [0.84, 0.23]}, "A must be a matrix"),
        ({"A": [[0.84, 0.23, 0.0], [-0.47, 0.12, 0.0]]}, "A must be square"),
        ({"A": [[float("inf"), 0.23], [-0.47, 0.12]]}, "A must be finite"),
        ({"B": [[0.07, -0.32, 0.0], [0.23, 0.58, 0.0]]}, "B, C, K dimensions"),
        ({"sigma_w": [[0.0225, 0.0, 0.0], [0.0, 0.01, 0.0]]}, "sigma_w must be 2 x 2"),
        ({"sigma_w": [[0.0225, -0.0055], [0.0, 0.01]]}, "sigma_w must be symmetric"),
        ({"sigma_w": [[0.01, 0.02], [0.02, 0.01]]}, "sigma_w must be positive semi"),
        ({"sigma_v": [[1.0, 0.0], [0.0, 0.0]]}, "sigma_v must be positive definite"),
        # B = diag(0, 1) cannot reach the unstable mode of A
        (
            {"A": [[1.2, 0.0], [0.0, 0.5]], "B": [[0.0, 0.0], [0.0, 1.0]]},
            "(A, B) not stabilizable at eigenvalue 1.2",
        ),
    ],
    ids=[
        "vector",
        "not-square",
        "infinite",
        "wide-B",
        "wide-sigma_w",
        "asymmetric",
        "indefinite",
        "singular-sigma_v",
        "not-stabilizable",
    ],
)
def test_main_reports_a_bad_system_matrix_in_one_line(tmp_path, capsys, system, text):
    # every check of the system block exits 2 with one line that names the
    # matrix, before any work
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_raw_config({"system": system})))
    out = tmp_path / "out"
    argv = ["tune", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(argv) == 2
    _assert_one_error_line(capsys, text)
    assert not out.exists()


def test_config_names_a_missing_system_key():
    raw = _raw_config({})
    del raw["system"]["sigma_v"], raw["system"]["A"]
    with pytest.raises(ValueError, match="missing key.* block 'system': A, sigma_v$"):
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ValueError, match="missing key.*A, B, C, K, sigma_v, sigma_w"):
        ExperimentConfig.from_dict({})


def test_main_exits_1_when_an_order_fails_to_tune(tmp_path, capsys, monkeypatch):
    # no checked-in input fails to tune; the rows that did tune are
    # written and carried through, and the run fails.  Only the bisected
    # order fails: orders 1 and 2 return their closed forms
    tune = cli_runner.tune_threshold_sdp

    def fail(moments, rate, epsilon):
        if moments.order <= 2:
            return tune(moments, rate, epsilon=epsilon)
        raise ArithmeticError("solver stalled")

    monkeypatch.setattr(cli_runner, "tune_threshold_sdp", fail)
    config_path = _write_small_config(tmp_path)
    out = tmp_path / "out"
    argv = ["all", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "tuning failed at order 4: solver stalled\n"
    rows = (out / "thresholds.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "chi_squared",
        "closed_form_k1",
        "closed_form_k2",
    ]
    assert len((out / "far.csv").read_text().splitlines()) == 4
    assert len(list(out.glob("reach_*.csv"))) == 3


def test_main_exits_1_in_one_line_when_a_reach_bound_diverges(tmp_path, capsys):
    # the open loop grows by 1.2 per step: over 3000 steps a support value
    # overflows, and reach_bound raises; thresholds.csv stays written
    raw = _raw_config(
        {
            "system": dict(
                A=[[1.2, 0.0], [0.0, 0.5]],
                B=np.eye(2).tolist(),
                C=np.eye(2).tolist(),
                K=[[-0.5, 0.0], [0.0, 0.0]],
            ),
            "reach": {"horizon": 3000},
        }
    )
    config_path = tmp_path / "diverge.json"
    config_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    argv = ["reach", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(argv) == 1
    _assert_one_error_line(capsys, "support function diverged")
    assert sorted(p.name for p in out.iterdir()) == ["thresholds.csv"]


def test_main_exits_1_in_one_line_when_the_reach_ordering_is_violated(
    tmp_path, capsys, monkeypatch
):
    # no checked-in system violates the ordering; a report that does fails
    # the run in one line, with every file written
    compare = cli_runner.volume_comparison

    def violated(bounds):
        report = compare(bounds)
        return replace(report, support_ordered=False, max_support_violation=0.25)

    monkeypatch.setattr(cli_runner, "volume_comparison", violated)
    config_path = _write_small_config(tmp_path)
    out = tmp_path / "out"
    argv = ["reach", "--config", str(config_path), "--out", str(out), "--quiet"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "reachable-set ordering violated: max support violation 0.25\n"
    assert len(list(out.glob("reach_*.csv"))) == 4
    assert (out / "thresholds.csv").exists() and (out / "areas.csv").exists()


def test_main_requires_config():
    with pytest.raises(SystemExit):
        main(["tune"])

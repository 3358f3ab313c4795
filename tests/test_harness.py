"""Config round trips, simulation orchestration, CLI surface."""

import io
import json
import os
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sqgdiag.harness as harness_mod
from sqgdiag.cli import _status_line, main
from sqgdiag.harness import (
    DIAGNOSTIC_NAMES,
    INITIAL_CONDITIONS,
    RunConfig,
    diagnose,
    extension_report,
    load_config,
    parse_config,
    simulate,
    snapshot_schedule,
)
from sqgdiag.solver import (
    SolverConfig,
    audit_energy,
    check_l2_monotone,
    read_checkpoint,
    run,
    write_checkpoint,
)
from sqgdiag.spectral import Grid, ScalarField, evaluate_on_lattice, l2_norm

# config text values: no comment marker, line break or whitespace
CONFIG_TEXT = st.text(
    st.characters(exclude_characters="#", exclude_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    max_size=12,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def config_text(config):
    """A RunConfig in the flat key = value format, floats by repr."""
    lines = ["# sqgdiag run configuration"]
    for f in fields(config):
        v = getattr(config, f.name)
        lines.append(f"{f.name} = {v!r}" if isinstance(v, float) else f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def config(tmp_path):
    return RunConfig(
        n=64,
        alpha=1.0,
        dt=2e-3,
        t_end=0.3,
        seed=11,
        initial_condition="random_band_limited",
        ic_k_max=4,
        snapshot_interval=0.05,
        output_dir=str(tmp_path / "out"),
    )


class TestConfigFormat:
    def test_text_round_trip(self, config):
        assert parse_config(config_text(config)) == config

    def test_comments_and_blanks(self):
        text = """
# leading comment
n = 32
alpha = 0.95  # inline comment

dt = 0.001
t_end = 0.5
"""
        cfg = parse_config(text)
        assert cfg.n == 32 and cfg.alpha == 0.95

    def test_unknown_key_rejected(self):
        # includes keys that older config files may still set
        for key in ("resolution = 64", "dealias = true", "integrator = etd_rk4",
                    "diagnostics = l2_monotone,tail"):
            with pytest.raises(ValueError, match="config line 2: unknown key"):
                parse_config(f"n = 32\n{key}\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError, match="config line 3: n: already set on line 1"):
            parse_config("n = 64\nalpha = 0.95\nn = 128\n")

    def test_bad_line_reported_with_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config("n = 32\nnot a pair\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("n = abc", "config line 1: n: invalid literal for int"),
            ("n = 32\n\ndt = 1e", "config line 3: dt: could not convert"),
            ("seed = 1.5", "config line 1: seed"),
            # out of range: the grid, the solver or the snapshot schedule
            # would reject the value later
            ("n = 48", "config line 1: n: grid size must be a positive power of two"),
            ("n = 32\nalpha = 1.5", "config line 2: alpha: alpha must lie in"),
            ("dt = -1", "config line 1: dt: dt must be positive"),
            ("t_end = -1", "config line 1: t_end: .*t_end non-negative"),
            ("dt = nan", "config line 1: dt: .*both finite"),
            ("t_end = inf", "config line 1: t_end: .*both finite"),
            ("side_length = -2", "config line 1: side_length: side_length must be positive"),
            ("snapshot_interval = 0", "config line 1: snapshot_interval: .*must be positive"),
            # infinite lengths: the grid spacing and the snapshot times
            # would be inf and nan
            ("n = 32\nside_length = inf", "config line 2: side_length: side_length must be positive"),
            ("n = 32\nsnapshot_interval = inf", "config line 2: snapshot_interval: .*must be positive"),
            # band limit 0 or below is the identically zero field
            ("ic_k_max = 0", "config line 1: ic_k_max: ic_k_max must be at least 1"),
            ("n = 32\nic_k_max = -3", "config line 2: ic_k_max: ic_k_max must be at least 1"),
            # amplitude 0 is the zero field too; a non-finite one fails
            # only later, in simulate
            ("ic_amplitude = 0", "config line 1: ic_amplitude: .*finite and nonzero"),
            ("ic_amplitude = nan", "config line 1: ic_amplitude: .*finite and nonzero"),
            ("n = 32\nic_amplitude = -inf", "config line 2: ic_amplitude: .*finite and nonzero"),
        ],
    )
    def test_bad_value_reported_with_number(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 40).map(lambda e: 2**e),
        seed=st.integers(0, 2**64 - 1),
        ic_k_max=st.integers(1, 64),
        floats=st.tuples(
            POSITIVE, st.floats(0.0, 1.0, exclude_min=True), POSITIVE,
            st.floats(min_value=0.0, allow_infinity=False), FINITE.filter(bool), POSITIVE,
        ),
        initial_condition=st.sampled_from(INITIAL_CONDITIONS),
        ic_file=CONFIG_TEXT,
        output_dir=CONFIG_TEXT,
    )
    def test_text_round_trip_property(
        self, n, seed, ic_k_max, floats, initial_condition, ic_file, output_dir,
    ):
        side_length, alpha, dt, t_end, ic_amplitude, snapshot_interval = floats
        assume(initial_condition != "file" or ic_file)
        cfg = RunConfig(
            n=n, side_length=side_length, alpha=alpha, dt=dt, t_end=t_end, seed=seed,
            initial_condition=initial_condition, ic_k_max=ic_k_max,
            ic_amplitude=ic_amplitude, ic_file=ic_file,
            snapshot_interval=snapshot_interval, output_dir=output_dir,
        )
        assert parse_config(config_text(cfg)) == cfg

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(-(2**40), 2**40),
        floats=st.tuples(FINITE, FINITE, FINITE, FINITE, FINITE),
    )
    def test_out_of_range_values_named_by_line(self, n, floats):
        # each value is accepted exactly when it lies in its range, and a
        # rejected one is named with its key and line
        side_length, alpha, dt, t_end, snapshot_interval = floats
        cases = [
            ("n", n, n > 0 and n & (n - 1) == 0),
            ("side_length", side_length, side_length > 0),
            ("alpha", alpha, 0 < alpha <= 1),
            ("dt", dt, dt > 0),
            ("t_end", t_end, t_end >= 0),
            ("snapshot_interval", snapshot_interval, snapshot_interval > 0),
        ]
        for key, value, valid in cases:
            text = f"seed = 3\n{key} = {value!r}\n"
            if valid:
                assert getattr(parse_config(text), key) == value
            else:
                with pytest.raises(ValueError, match=f"config line 2: {key}: "):
                    parse_config(text)

    def test_echo_round_trip(self, config, tmp_path):
        _, report = simulate(config)
        assert RunConfig(**report.config_echo) == config
        assert RunConfig(**json.loads(report.to_json())["config"]) == config

    def test_file_round_trip(self, config, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(config_text(config))
        assert load_config(path) == config

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(initial_condition="gaussian")
        for amplitude in (0.0, -0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonzero"):
                RunConfig(ic_amplitude=amplitude)

    def test_file_initial_condition_needs_ic_file(self):
        with pytest.raises(ValueError, match="needs an ic_file"):
            RunConfig(initial_condition="file")
        with pytest.raises(ValueError, match="needs an ic_file"):
            parse_config("n = 32\ninitial_condition = file\n")
        # the rule waits for every line, so either key order works
        for text in ("initial_condition = file\nic_file = a.sqgd",
                     "ic_file = a.sqgd\ninitial_condition = file"):
            cfg = parse_config(text)
            assert (cfg.initial_condition, cfg.ic_file) == ("file", "a.sqgd")


class TestSimulate:
    def test_single_mode_exact_final_state(self, tmp_path):
        cfg = RunConfig(
            n=64,
            alpha=1.0,
            dt=1e-3,
            t_end=0.5,
            initial_condition="single_mode",
            snapshot_interval=0.25,
            output_dir=str(tmp_path / "sm"),
        )
        paths, report = simulate(cfg)
        final, alpha, _ = read_checkpoint(paths[-1])
        g = Grid(64)
        x1, _ = g.coordinates()
        exact = np.exp(-0.5) * np.sin(x1)
        rel = l2_norm(ScalarField(g, final.values - exact)) / l2_norm(ScalarField(g, exact))
        assert rel <= 1e-6
        assert report.passed

    def test_zero_horizon_writes_initial_condition(self, tmp_path):
        cfg = RunConfig(
            n=32,
            t_end=0.0,
            dt=1e-3,
            initial_condition="single_mode",
            snapshot_interval=0.1,
            output_dir=str(tmp_path / "z"),
        )
        paths, _ = simulate(cfg)
        assert len(paths) == 1
        field, _, _ = read_checkpoint(paths[0])
        g = Grid(32)
        x1, _ = g.coordinates()
        assert np.array_equal(field.values, np.sin(x1))

    def test_same_seed_bit_identical(self, tmp_path):
        base = RunConfig(
            n=32,
            alpha=0.95,
            dt=5e-3,
            t_end=0.1,
            seed=77,
            initial_condition="random_band_limited",
            snapshot_interval=0.05,
        )
        blobs = []
        for sub in ("a", "b"):
            cfg = RunConfig(**{**base.__dict__, "output_dir": str(tmp_path / sub)})
            paths, _ = simulate(cfg)
            blobs.append(b"".join(open(p, "rb").read() for p in paths))
        assert blobs[0] == blobs[1]

    def test_series_csv_header(self, config):
        simulate(config)
        first = open(os.path.join(config.output_dir, "series.csv")).readline()
        assert first.strip() == "time,l2_norm,linf_norm"

    @settings(max_examples=60, deadline=None)
    @example(t_end=0.3, interval=0.1)  # last time 0.30000000000000004
    @given(t_end=st.floats(0.0, 10.0), interval=st.floats(1e-3, 10.0))
    def test_snapshot_schedule_accepted_by_run(self, t_end, interval):
        # the schedule's +1e-9 floor can put its last time a few ulps past
        # t_end; run must take every time it lists
        assume(t_end / interval <= 200)
        cfg = RunConfig(n=8, dt=max(t_end, 1.0), t_end=t_end, snapshot_interval=interval)
        times = snapshot_schedule(cfg)
        zero = ScalarField(Grid(8), np.zeros((8, 8)))
        run(zero, SolverConfig(cfg.alpha, cfg.dt, cfg.t_end), snapshot_times=times)


class TestDiagnose:
    def test_empty_toggles(self, config):
        paths, _ = simulate(config)
        report = diagnose(paths, [], config=config)
        assert report.passed
        assert report.sections == []
        assert RunConfig(**report.config_echo) == config

    def test_full_toggles_pass(self, tmp_path):
        # multi-mode data so the L-infinity decay fit sees the dissipative
        # cascade (a lone |k| = 1 mode decays too slowly on [0.1, 2] for a
        # log-log slope test)
        cfg = RunConfig(
            n=64,
            alpha=1.0,
            dt=2e-3,
            t_end=2.0,
            seed=5,
            initial_condition="random_band_limited",
            ic_k_max=6,
            snapshot_interval=0.1,
            output_dir=str(tmp_path / "full"),
        )
        paths, _ = simulate(cfg)
        report = diagnose(
            paths, ["l2_monotone", "energy_audit", "linf_decay", "tail"], config=cfg
        )
        assert report.passed, report.to_json()
        assert [s["name"] for s in report.sections] == [
            "l2_monotone",
            "energy_audit",
            "linf_decay",
            "tail",
        ]

    def test_one_section_per_toggle(self, config):
        paths, _ = simulate(config)
        report = diagnose(paths, ["l2_monotone"], config=config)
        assert len(report.sections) == 1

    def test_decay_checks_do_not_run_the_audit(self, config, monkeypatch):
        # l2_monotone, linf_decay and tail read the snapshots; the 16-level
        # audit runs only when energy_audit is requested
        paths, _ = simulate(config)
        seen = []

        def recording(history, levels, alpha):
            seen.append(len(levels))
            return audit_energy(history, levels, alpha)

        monkeypatch.setattr(harness_mod, "audit_energy", recording)
        report = diagnose(paths, ("l2_monotone", "linf_decay", "tail"), config=config)
        assert seen == []
        history, _ = harness_mod.load_checkpoints(paths)
        assert report.sections[0] == {
            "name": "l2_monotone", "passed": check_l2_monotone(history)
        }
        assert [s["name"] for s in report.sections] == ["l2_monotone", "linf_decay", "tail"]
        diagnose(paths, ("l2_monotone", "energy_audit"), config=config)
        assert seen == [16]

    def test_mismatched_checkpoints_rejected(self, config, tmp_path):
        paths, _ = simulate(config)
        other = RunConfig(
            n=32, dt=2e-3, t_end=0.05, snapshot_interval=0.05,
            output_dir=str(tmp_path / "other"),
        )
        other_paths, _ = simulate(other)
        with pytest.raises(ValueError, match="disagrees"):
            diagnose([paths[0], other_paths[0]], ["l2_monotone"])


class TestCli:
    def test_simulate_and_diagnose(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        out_dir = tmp_path / "out"
        cfg = RunConfig(
            n=32,
            alpha=0.95,
            dt=5e-3,
            t_end=0.2,
            seed=3,
            initial_condition="random_band_limited",
            snapshot_interval=0.05,
            output_dir=str(out_dir),
        )
        cfg_path.write_text(config_text(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        captured = capsys.readouterr()
        assert "PASS simulation" in captured.out
        assert "\033[" not in captured.out

        checkpoints = sorted(str(p) for p in out_dir.glob("checkpoint_*.sqgd"))
        code = main(["diagnose", *checkpoints, "--checks", "l2_monotone,energy_audit"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS l2_monotone" in captured.out
        assert "PASS energy_audit" in captured.out

    def test_simulate_reports_the_solver_counters(self, tmp_path, capsys):
        # the decay_pipeline member of seed 100 at n = 32: 500 steps over 20
        # gaps of 0.1, which take 14 distinct sub-step sizes
        out_dir = tmp_path / "out"
        cfg = RunConfig(
            n=32, alpha=0.95, dt=4e-3, t_end=2.0, seed=100,
            initial_condition="random_band_limited", ic_k_max=8,
            snapshot_interval=0.1, output_dir=str(out_dir),
        )
        (tmp_path / "run.cfg").write_text(config_text(cfg))
        assert main(["simulate", "--config", str(tmp_path / "run.cfg")]) == 0
        printed = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        saved = json.loads((out_dir / "report.json").read_text())
        counts = {"solver.steps": 500, "solver.phi_builds": 14}
        assert printed["counters"] == saved["counters"] == counts

        checkpoints = sorted(str(p) for p in out_dir.glob("checkpoint_*.sqgd"))
        diag_dir = tmp_path / "diag"
        assert main(["diagnose", *checkpoints, "--checks", "l2_monotone",
                     "--out", str(diag_dir)]) == 0
        assert json.loads((diag_dir / "report.json").read_text())["counters"] == {}

    def test_energy_audit_subcommand(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = RunConfig(
            n=32, dt=5e-3, t_end=0.2, alpha=1.0, snapshot_interval=0.05,
            initial_condition="single_mode", output_dir=str(out_dir),
        )
        (tmp_path / "run.cfg").write_text(config_text(cfg))
        main(["simulate", "--config", str(tmp_path / "run.cfg")])
        capsys.readouterr()
        checkpoints = sorted(str(p) for p in out_dir.glob("checkpoint_*.sqgd"))
        assert main(["diagnose", *checkpoints, "--checks", "energy_audit", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == ["section,passed", "energy_audit,1"]

    def test_decay_checks_take_a_short_last_gap(self, tmp_path, capsys):
        # t_end = 1.05 appends a 0.05 gap to the 0.1 schedule; every decay
        # check, the energy audit included, takes the gaps as they are
        cfg = RunConfig(
            n=32, alpha=1.0, dt=5e-3, t_end=1.05, seed=3,
            initial_condition="random_band_limited", snapshot_interval=0.1,
            output_dir=str(tmp_path / "out"),
        )
        paths, _ = simulate(cfg)
        capsys.readouterr()
        code = main(["diagnose", *paths, "--checks", "l2_monotone,linf_decay,tail",
                     "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "l2_monotone,1", "linf_decay,1", "tail,1"
        ]
        code = main(["diagnose", *paths, "--checks", "energy_audit", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "energy_audit,1"

    def test_constants_subcommand_emits_json(self, capsys):
        code = main(
            ["constants", "--L", "0.5", "--C", "1.0", "--alpha", "0.95", "--eta", "0.3"]
        )
        captured = capsys.readouterr()
        blob = json.loads(captured.out)
        assert code == 0
        assert blob["rho"] == 1.0 / 16.0
        assert "feasibility" not in blob

    def test_status_tag_is_colored_only_on_a_terminal(self, monkeypatch):
        class Terminal(io.StringIO):
            def isatty(self):
                return True

        monkeypatch.setattr(sys, "stdout", Terminal())
        assert _status_line("tail", True) == "\033[32mPASS\033[0m tail"
        assert _status_line("tail", False) == "\033[31mFAIL\033[0m tail"
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert _status_line("tail", True) == "PASS tail"

    def test_corrupt_checkpoint_structured_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.sqgd"
        bad.write_bytes(b"SQGD" + bytes(10))
        code = main(["diagnose", str(bad), "--checks", "energy_audit"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err

    def test_isoperimetric_subcommand(self, capsys):
        code = main(["isoperimetric", "--count", "2", "--samples", "20000"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS isoperimetric_eps_0.0" in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagnose", "--config", "x.cfg", "a.sqgd"],
            ["diagnose", "--seed", "3", "a.sqgd"],
            ["constants", "--L", "0.5", "--C", "1", "--alpha", "0.95", "--eta", "0.3",
             "--format", "csv"],
            ["isoperimetric", "--config", "x.cfg"],
        ],
    )
    def test_flags_a_subcommand_ignores_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["simulate"], "simulate requires --config"),
            (["simulate", "--config", "{tmp}/bad.cfg"], "config line 1: n: grid size"),
            (["diagnose", "{tmp}/missing.sqgd"], "No such file"),
            (["isoperimetric", "--samples", "0"], "sample_count must be positive"),
            (["extension-check", "--n", "48"], "grid size"),
            (["isoperimetric", "--count", "-3", "--samples", "2000"], "at least 1"),
            (["isoperimetric", "--count", "0", "--samples", "2000"], "at least 1"),
            (["diagnose", "--checks", "l2_monotone"], "no checkpoint given"),
            (["constants", "--L", "0.7", "--C", "1.2", "--alpha", "0.95", "--eta", "nan"],
             "eta must be a number"),
            (["constants", "--L", "0.7", "--C", "1.2", "--alpha", "0.95", "--eta", "inf"],
             "eta must be a number at most 1"),
            (["constants", "--L", "0.7", "--C", "1.2", "--alpha", "0.95", "--eta", "1.5"],
             "eta must be a number at most 1"),
            (["isoperimetric", "--samples", "1"], "sample_count must be at least 2"),
            (["extension-check", "--epsilons", "0.0,x"], "could not convert"),
            (["constants", "--L", "0.7", "--C", "1.2", "--alpha", "0.95", "--eta", "1e-17"],
             "no oscillation improvement"),
        ],
    )
    def test_unusable_input_exits_2(self, argv, message, tmp_path, capsys):
        # exit 1 means a check failed; bad input is 2 with one error line
        (tmp_path / "bad.cfg").write_text("n = 48\n")
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line,argv,message",
        [
            ("side_length = inf", ["simulate", "--config", "{tmp}/run.cfg"],
             "config line 2: side_length: side_length must be positive"),
            ("snapshot_interval = inf", ["simulate", "--config", "{tmp}/run.cfg"],
             "config line 2: snapshot_interval: snapshot_interval must be positive"),
            ("", ["diagnose", "{tmp}/c.sqgd", "--side-length", "inf"],
             "side_length must be positive"),
        ],
    )
    def test_infinite_lengths_exit_2(self, line, argv, message, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text(f"n = 32\n{line}\n")
        grid = Grid(32)
        x1, _ = grid.coordinates()
        write_checkpoint(tmp_path / "c.sqgd", ScalarField(grid, np.sin(x1)), 0.95)
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv,target,expected",
        [
            (["isoperimetric"], "isoperimetric_report", {}),
            (["isoperimetric", "--count", "3", "--seed", "9"], "isoperimetric_report",
             {"count": 3, "seed": 9}),
            (["extension-check"], "extension_report", {}),
            (["extension-check", "--epsilons", "0.0,0.1"], "extension_report",
             {"epsilons": (0.0, 0.1)}),
            (["extension-check", "--n", "32", "--seed", "4"], "extension_report",
             {"n": 32, "seed": 4}),
            (["diagnose", "a.sqgd"], "diagnose", {}),
            (["diagnose", "a.sqgd", "--side-length", "3.0"], "diagnose", {"side_length": 3.0}),
        ],
    )
    def test_defaults_are_the_harness_signatures(self, argv, target, expected, monkeypatch):
        # an option the user did not give is not passed on: the harness
        # function's own default applies
        calls = []

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return harness_mod.RunReport({}, [], {}, {})

        monkeypatch.setattr(f"sqgdiag.cli.{target}", recorded)
        assert main(argv) == 0
        assert calls == [expected]

    def test_extension_check_subcommand(self, capsys):
        code = main(["extension-check", "--epsilons", "0.0,0.1", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        assert "dtn_eps_0.0,1" in captured.out


def test_no_full_spectrum_transforms(tmp_path, monkeypatch):
    # every multiplier, norm and the random initial data run on the half
    # spectrum; no path calls a full-spectrum fft2/ifft2
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return original(*args, **kwargs)

        return wrapper

    for name in ("fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    cfg = RunConfig(
        n=32, alpha=1.0, dt=2e-3, t_end=2.0, seed=5, initial_condition="random_band_limited",
        ic_k_max=6, snapshot_interval=0.1, output_dir=str(tmp_path / "guard"),
    )
    paths, _ = simulate(cfg)
    assert calls == []
    report = diagnose(paths, DIAGNOSTIC_NAMES, config=cfg)
    assert [s["name"] for s in report.sections] == list(DIAGNOSTIC_NAMES)
    ext = extension_report(epsilons=(0.0, 0.1), n=32)
    assert len(ext.sections) == 2
    theta = read_checkpoint(paths[-1])[0]
    g = theta.grid
    zoom = evaluate_on_lattice(theta, g.center, (g.spacing / 16, g.spacing / 16), g.shape)
    assert zoom.shape == g.shape
    assert calls == []
    np.fft.fft2(np.zeros((2, 2)))  # control: a call through numpy.fft is counted
    assert calls == [("fft2", "test_no_full_spectrum_transforms")]

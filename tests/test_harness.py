"""Config parsing, series/checkpoint round-trips, scenarios and the CLI."""

import gc
import math
import re
import struct
import tracemalloc
import weakref
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from shearks import scenarios
from shearks.cli import main as cli_main
from shearks.config import ConfigError, RunConfig, grid_of, parse_config, params_of
from shearks.scenarios import efold_time, run_resume, run_simulate
from shearks.seriesio import (
    _HEADER,
    CheckpointError,
    read_checkpoint,
    state_from_bytes,
    write_checkpoint,
    write_series,
)
from shearks.shear import ShearFrame
from shearks.solver import SERIES_COLUMNS, State
from shearks.spectral import GridSpec, l2_norm, total_mass
from oracles import checkpoint_bytes, read_series
from test_spectral import random_real_field

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestParseConfig:
    def test_minimal_example(self):
        cfg = parse_config("dim = 2\nnx = 64\nny = 64\nscenario = simulate\nmass = 12.0")
        assert cfg.dim == 2 and cfg.mass == 12.0
        assert cfg.dt_max == 0.05  # defaults filled

    def test_odd_modes_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            parse_config("scenario = simulate\nmass = 1\nnx = 63")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("speling = 3")

    @pytest.mark.parametrize("line", ["cfl = 0.4", "dt_min = 1e-12", "dealias = true",
                                      "positivity_tol = 1e-8", "linf_factor = 100",
                                      "growth_confirm = 2.0", "tail_ratio_max = 1e-4",
                                      "a_weight = 0.05", "b_weight = 0.08",
                                      "init_center = 3.14, 3.14", "init_amplitude = 1.0",
                                      "init_file = final.pksn", "u_slope = 3.0",
                                      "loghls_mass = 12.56", "init_kind = file",
                                      "u_kind = random"])
    def test_fixed_numerics_are_not_keys(self, line):
        key, value = line.split(" = ")
        message = (f"init_kind: unknown kind '{value}'" if key == "init_kind"
                   else f"unknown key '{key}'")
        with pytest.raises(ConfigError, match=message):
            parse_config(f"scenario = simulate\nmass = 1\n{line}")

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.conf")), ids=lambda p: p.name)
    def test_shipped_config_parses(self, path):
        cfg = parse_config(path.read_text())
        assert params_of(cfg).grid == grid_of(cfg)

    def test_comments_and_last_wins(self):
        cfg = parse_config("mass = 1.0  # initial\nmass = 2.0\nscenario = simulate")
        assert cfg.mass == 2.0

    def test_scenario_requirements(self):
        with pytest.raises(ConfigError, match="masses"):
            parse_config("scenario = sweep_mass\nmass = 1.0")
        with pytest.raises(ConfigError, match="a_values"):
            parse_config("scenario = rate_fit")

    def test_endless_run_rejected(self):
        # t_end = inf would step until a blow-up, and write nothing before it
        with pytest.raises(ConfigError, match="t_end: must be positive and finite"):
            parse_config("scenario = simulate\nmass = 1\nt_end = inf")

    @pytest.mark.parametrize("init_kind", ["gaussian", "random"])
    def test_simulate_needs_positive_mass(self, init_kind):
        # an all-zero density has no Linf baseline for the blow-up monitor
        with pytest.raises(ConfigError, match="mass: required positive"):
            parse_config(f"scenario = simulate\nnx = 16\nny = 16\ninit_kind = {init_kind}")

    def test_mass_list_parsing(self):
        cfg = parse_config("scenario = sweep_mass\nmass = 1\nmasses = 1.0, 2.5, 3")
        assert cfg.masses == (1.0, 2.5, 3.0)

    def test_every_key_parses(self):
        text = """
            scenario = simulate
            dim = 3
            nx = 16
            ny = 16
            nz = 16
            A = 25
            enable_shear = true
            enable_chemotaxis = true
            enable_velocity = true
            t_end = 1.0
            dt_max = 0.01
            fixed_dt = 0.001
            monitor_positivity = true
            monitor_tail = true
            drop_tol = 1e-6
            track_decomposition = true
            track_energies = true
            output_every = 0.5
            checkpoint_every = 1.0
            out_dir = /tmp/x
            init_kind = gaussian
            mass = 10.0
            init_width = 0.5
            init_seed = 0
            init_slope = 2.0
            u_eps = 0.01
            u_seed = 1
            u_amplitude = 0.05
            masses = 1, 2
            a_values = 10, 100
            workers = 1
            suite = all
            samples = 10
        """
        cfg = parse_config(text)
        params_ok = params_of(cfg)
        assert params_ok.fixed_dt == 0.001

    def test_readme_lists_every_key_once(self):
        text = (CONFIGS.parent / "README.md").read_text()
        table = text.split("| group | keys |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
        # the keys column, without the parenthesised notes on values
        keys = [key for row in table.splitlines()
                for key in re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", row.split("|", 2)[2]))]
        assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


class TestSeriesIO:
    def test_roundtrip(self, tmp_path):
        rows = []
        for i in range(3):
            row = {key: float(i) / 3.0 + j * 0.1 for j, key in enumerate(SERIES_COLUMNS)
                   if key != "status"}
            row["status"] = "running"
            rows.append(row)
        path = tmp_path / "series.csv"
        write_series(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == ("t,mass,n_min,n_linf,n_l2,u_l2,div_l2,E11,E12,E21,E22,"
                          "E3,E4,E51,E52,free_energy,dropped_energy,dt,status")
        back = read_series(path)
        for a, b in zip(rows, back):
            for key in SERIES_COLUMNS:
                assert a[key] == b[key]  # 17 significant digits: lossless

    def test_reader_rejects_a_foreign_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,mass\n0,1\n")
        with pytest.raises(CheckpointError, match="header"):
            read_series(path)


def small_state(seed=0, with_u=True):
    grid = GridSpec((16, 16, 16))
    n = random_real_field(grid, seed=seed)
    n.half[0, 0, 0] = 0.5
    u = random_real_field(grid, seed=seed + 1, components=3) if with_u else None
    frame = ShearFrame(t_last_remap=1.5, drift=0.25)
    return State(t=2.25, n=n, u=u, frame=frame)


class TestCheckpoint:
    def test_write_read_write_byte_identical(self, tmp_path):
        state = small_state()
        raw = checkpoint_bytes(state, A=50.0)
        back, A = state_from_bytes(raw)
        assert A == 50.0
        assert back.t == state.t
        assert back.frame.drift == state.frame.drift
        assert back.frame.t_last_remap == state.frame.t_last_remap
        assert np.array_equal(back.n.coeffs, state.n.coeffs)
        assert np.array_equal(back.u.coeffs, state.u.coeffs)
        assert checkpoint_bytes(back, A) == raw

    def test_decode_copies_each_array_once(self):
        # the CRC, the header and the blocks are read through one view of the
        # input: the k1 >= 0 halves of n and the velocity stack are the only
        # copies
        grid = GridSpec((32, 32, 32))
        state = State(t=0.5, n=random_real_field(grid, seed=5),
                      u=random_real_field(grid, seed=6, components=3), frame=ShearFrame())
        raw = checkpoint_bytes(state, A=2.0)
        tracemalloc.start()
        try:
            back, _ = state_from_bytes(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * len(raw)
        for got, want in ((back.n.half, state.n.half), (back.u.half, state.u.half)):
            assert np.array_equal(got, want)
            assert got.flags.writeable and got.flags.c_contiguous
            assert not np.shares_memory(got, np.frombuffer(raw, dtype=np.uint8))

    def test_self_describing_without_velocity(self):
        state = small_state(with_u=False)
        back, _ = state_from_bytes(checkpoint_bytes(state, A=1.0))
        assert back.u is None

    def test_truncation_detected(self, tmp_path):
        state = small_state()
        path = tmp_path / "c.pksn"
        write_checkpoint(path, state, A=2.0)
        data = path.read_bytes()
        path.write_bytes(data[:-17])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_bitflip_detected(self, tmp_path):
        state = small_state()
        raw = bytearray(checkpoint_bytes(state, A=2.0))
        raw[100] ^= 0xFF
        with pytest.raises(CheckpointError, match="CRC"):
            state_from_bytes(bytes(raw))

    @pytest.mark.parametrize("slot, value", [(3, 7), (2, 0), (2, 4), (8, 5.0), (8, math.nan),
                                             (6, math.nan), (7, math.inf), (9, math.nan)],
                             ids=["n1=7", "dim=0", "dim=4", "drift=5", "drift=nan", "t=nan",
                                  "A=inf", "t_last_remap=nan"])
    def test_bad_header_dims_are_checkpoint_errors(self, tmp_path, slot, value):
        # a CRC-valid file whose header names a grid GridSpec rejects, or no
        # grid, or a time, amplitude or frame no run can start from; a
        # density-only body passes the block-count check at dim = 4
        raw = checkpoint_bytes(small_state(with_u=False), A=2.0)
        header = list(_HEADER.unpack(raw[:_HEADER.size]))
        header[slot] = value
        payload = _HEADER.pack(*header) + raw[_HEADER.size:-4]
        path = tmp_path / "bad.pksn"
        path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)
        conf = tmp_path / "run.conf"
        conf.write_text(BASE_2D + f"out_dir = {tmp_path}/out\n")
        assert cli_main(["resume", str(path), "--config", str(conf)]) == 4


    def test_2d_velocity_blocks_are_checkpoint_errors(self, tmp_path):
        # 2D runs carry no velocity: n plus two components is not a 2D state
        grid = GridSpec((32, 32))
        state = State(t=0.5, n=random_real_field(grid, seed=3),
                      u=random_real_field(grid, seed=4, components=2), frame=ShearFrame())
        path = tmp_path / "uv2d.pksn"
        write_checkpoint(path, state, A=1.0)
        with pytest.raises(CheckpointError, match="field blocks"):
            read_checkpoint(path)
        conf = tmp_path / "run.conf"
        conf.write_text(BASE_2D + f"out_dir = {tmp_path}/out\n")
        assert cli_main(["resume", str(path), "--config", str(conf)]) == 4

    @pytest.mark.parametrize("with_u, velocity", [(False, "true"), (True, "false")])
    def test_resume_velocity_must_match_config(self, tmp_path, with_u, velocity):
        path = tmp_path / "c.pksn"
        write_checkpoint(path, small_state(with_u=with_u), A=2.0)
        text = BASE_3D + f"enable_velocity = {velocity}\nout_dir = {tmp_path}/out\n"
        with pytest.raises(ConfigError, match="enable_velocity"):
            run_resume(parse_config(text), path)
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        assert cli_main(["resume", str(path), "--config", str(conf)]) == 2
        assert not (tmp_path / "out" / "series_resume.csv").exists()

    def test_sheared_checkpoint_needs_shear(self, tmp_path):
        # an unsheared run reads the integer lattice, so a drift-0.25 state
        # would resume on the wrong wavevectors
        path = tmp_path / "c.pksn"
        write_checkpoint(path, small_state(), A=2.0)
        text = BASE_3D + f"enable_shear = false\nout_dir = {tmp_path}/out\n"
        with pytest.raises(ConfigError, match="enable_shear"):
            run_resume(parse_config(text), path)
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        assert cli_main(["resume", str(path), "--config", str(conf)]) == 2
        assert not (tmp_path / "out" / "series_resume.csv").exists()


BASE_3D = """
scenario = simulate
dim = 3
nx = 16
ny = 16
nz = 16
A = 2.0
mass = 1.0
t_end = 2.5
"""


BASE_2D = """
scenario = simulate
dim = 2
nx = 32
ny = 32
enable_shear = false
mass = 6.0
init_width = 1.0
t_end = 0.3
dt_max = 0.002
output_every = 0.05
track_energies = false
"""


class TestSimulateAndResume:
    def test_simulate_writes_outputs(self, tmp_path):
        cfg = parse_config(BASE_2D + f"out_dir = {tmp_path}/run")
        summary = run_simulate(cfg)
        assert summary["status"] == "suppressed"
        rows = read_series(summary["series"])
        assert rows[0]["t"] == 0.0
        assert rows[-1]["t"] == pytest.approx(0.3, abs=1e-9)
        assert (tmp_path / "run" / "final.pksn").exists()

    def test_resume_matches_uninterrupted(self, tmp_path):
        full_cfg = parse_config(
            BASE_2D + f"out_dir = {tmp_path}/full\ncheckpoint_every = 0.1")
        full = run_simulate(full_cfg)
        ckpts = sorted((tmp_path / "full").glob("checkpoint_*.pksn"))
        assert ckpts
        mid = ckpts[0]

        resumed_cfg = parse_config(BASE_2D + f"out_dir = {tmp_path}/resumed")
        resumed = run_resume(resumed_cfg, mid)
        a = full["result"].final_state
        b = resumed["result"].final_state
        assert a.t == pytest.approx(b.t, abs=1e-12)
        diff = np.max(np.abs(a.n.coeffs - b.n.coeffs))
        assert diff <= 1e-12
        # byte-identical final checkpoints
        assert (tmp_path / "full" / "final.pksn").read_bytes() == \
            (tmp_path / "resumed" / "final.pksn").read_bytes()

    @pytest.mark.xfail(strict=True, reason="resume restarts the energy ledger, the "
                       "decomposition tracker and the blow-up monitor (ROADMAP item 1)")
    def test_tracked_3d_resume_matches_every_column(self, tmp_path):
        text = (CONFIGS / "suppression_3d.conf").read_text() + (
            "\nnx = 16\nny = 16\nnz = 16\nt_end = 1.0\noutput_every = 0.25\n"
            "checkpoint_every = 0.5\n")
        full = run_simulate(parse_config(text + f"out_dir = {tmp_path}/full\n"))
        mid = sorted((tmp_path / "full").glob("checkpoint_*.pksn"))[0]
        resumed = run_resume(parse_config(text + f"out_dir = {tmp_path}/resumed\n"), mid)
        got = read_series(resumed["series"])
        want = [row for row in read_series(full["series"]) if row["t"] >= got[0]["t"]]
        assert got[0]["t"] == pytest.approx(0.5) and len(got) == len(want)
        differ = {key for a, b in zip(got, want) for key in SERIES_COLUMNS
                  if a[key] != b[key] and not (a[key] != a[key] and b[key] != b[key])}
        assert not differ, f"columns differ after the resume: {sorted(differ)}"

    @pytest.mark.parametrize("resume", [False, True], ids=["simulate", "resume"])
    def test_the_initial_state_is_released_once_the_run_has_stepped(self, tmp_path,
                                                                   monkeypatch, resume):
        cfg = parse_config(BASE_2D + f"out_dir = {tmp_path}/run\ncheckpoint_every = 0.1")
        if resume:
            run_simulate(cfg)
        real_run, first, alive = scenarios.run, [], []

        def spy(params, init, on_sample):
            def watch(result):
                if not first:
                    first.append(weakref.ref(result.final_state))
                else:
                    gc.collect()
                    alive.append(first[0]() is not None)
                on_sample(result)
            handed = [init]
            del init
            return real_run(params, handed.pop(), on_sample=watch)
        monkeypatch.setattr(scenarios, "run", spy)
        if resume:
            run_resume(cfg, sorted((tmp_path / "run").glob("checkpoint_*.pksn"))[0])
        else:
            run_simulate(cfg)
        assert alive and not any(alive)

    def test_a_tracked_3d_run_peaks_below_its_budget(self, tmp_path):
        # a tracked coupled 24^3 run, 6 steps, 4 samples and one checkpoint
        # write: its traced peak, in units of one state's k1 >= 0 halves, was
        # 10.9 with full spectra in the state, the step and the writer, and is
        # 8.2 with halves alone
        text = (CONFIGS / "suppression_3d.conf").read_text() + (
            "\nnx = 24\nny = 24\nnz = 24\nt_end = 0.3\noutput_every = 0.1\n"
            f"checkpoint_every = 1.0\nout_dir = {tmp_path}\n")
        cfg = parse_config(text)
        run_simulate(cfg)  # builds the grid's cached lattice and factors
        tracemalloc.start()
        try:
            summary = run_simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_halves = 4 * (24 // 2 + 1) * 24 * 24 * 16  # n and u's 3 components, complex
        assert summary["rows"] == 4 and [p.name for p in tmp_path.glob("*.pksn")] == ["final.pksn"]
        assert peak <= 9.5 * state_halves

    def test_determinism_same_seed(self, tmp_path):
        c1 = parse_config(BASE_2D.replace("gaussian", "random")
                          + f"out_dir = {tmp_path}/a\ninit_kind = random\ninit_seed = 7")
        c2 = parse_config(BASE_2D.replace("gaussian", "random")
                          + f"out_dir = {tmp_path}/b\ninit_kind = random\ninit_seed = 7")
        s1, s2 = run_simulate(c1), run_simulate(c2)
        t1 = (tmp_path / "a" / "series.csv").read_text()
        t2 = (tmp_path / "b" / "series.csv").read_text()
        assert t1 == t2


class TestEfold:
    def test_exact_exponential(self):
        rows = [{"t": t, "n_l2": math.exp(-0.5 * t)} for t in np.linspace(0, 10, 101)]
        assert efold_time(rows) == pytest.approx(2.0, rel=1e-6)

    def test_no_crossing_raises(self):
        rows = [{"t": 0.0, "n_l2": 1.0}, {"t": 1.0, "n_l2": 0.9}]
        with pytest.raises(ConfigError, match="e-folding"):
            efold_time(rows)


class TestSweepAndRateScenarios:
    def test_parallel_sweep_workers(self, tmp_path):
        from shearks.scenarios import run_sweep_mass

        cfg = parse_config(
            "scenario = sweep_mass\ndim = 2\nnx = 32\nny = 32\n"
            "enable_shear = false\nmass = 1\nmasses = 3.0, 6.0\n"
            "init_width = 1.0\nt_end = 0.1\ndt_max = 0.002\noutput_every = 0.05\n"
            "track_energies = false\nworkers = 2\n"
            f"out_dir = {tmp_path}/sw")
        summary = run_sweep_mass(cfg)
        assert [r["mass"] for r in summary["rows"]] == [3.0, 6.0]
        assert all(r["status"] == "suppressed" for r in summary["rows"])
        # the process pool writes the same bytes as the serial loop
        run_sweep_mass(replace(cfg, workers=1, out_dir=f"{tmp_path}/serial"))
        for name in ("sweep.csv", "mass_3/series.csv", "mass_6/series.csv"):
            assert (tmp_path / "sw" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()

    def test_cli_sweep_verb(self, tmp_path, capsys):
        code = cli_main([
            "sweep-mass", "--nx", "32", "--ny", "32", "--enable_shear", "false",
            "--mass", "1", "--masses", "3.0 6.0", "--init_width", "1.0",
            "--t_end", "0.1", "--dt_max", "0.002", "--output_every", "0.05",
            "--track_energies", "false", "--out_dir", str(tmp_path / "sw"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mass = 3" in out and "status = suppressed" in out

    def test_cli_rate_verb(self, tmp_path, capsys):
        code = cli_main([
            "rate", "--nx", "32", "--ny", "32", "--a_values", "10 100",
            "--t_end", "20", "--dt_max", "0.25", "--init_seed", "1",
            "--out_dir", str(tmp_path / "rate"),
        ])
        assert code == 0
        assert "slope = " in capsys.readouterr().out
        assert (tmp_path / "rate" / "rate.json").exists()

    def test_cli_resume_verb(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(BASE_2D + f"out_dir = {tmp_path}/one\ncheckpoint_every = 0.1\n")
        assert cli_main(["simulate", "--config", str(conf)]) == 0
        ckpt = sorted((tmp_path / "one").glob("checkpoint_*.pksn"))[0]
        code = cli_main(["resume", str(ckpt), "--config", str(conf),
                         "--out_dir", str(tmp_path / "two")])
        assert code == 0
        assert (tmp_path / "two" / "series_resume.csv").exists()


class TestCLI:
    def test_simulate_roundtrip(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(BASE_2D)
        code = cli_main(["simulate", "--config", str(conf),
                         "--out_dir", str(tmp_path / "out"),
                         "--t_end", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status = suppressed  t_final = " in out  # no reason on a suppressed run

    def test_config_error_exit_code(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("nx = 63\nmass = 1.0")
        assert cli_main(["simulate", "--config", str(conf)]) == 2

    @pytest.mark.parametrize("argv,key", [
        (["check", "--suite", "gns", "--samples", "0"], "samples"),
        (["check", "--suite", "elliptic", "--samples", "0"], "samples"),
        (["simulate", "--mass", "nan"], "mass"),
        (["simulate", "--mass", "1", "--init_width", "0"], "init_width"),
        (["sweep-mass", "--masses", "12.566 0"], "masses"),
        (["simulate", "--mass", "1", "--fixed_dt", "0"], "fixed_dt"),
        (["simulate", "--mass", "1", "--drop_tol", "-1"], "drop_tol"),
        (["rate", "--a_values", "1e2 0.5"], "a_values"),
        (["simulate", "--mass", "1", "--u_eps", "-0.01"], "u_eps"),
        (["simulate", "--mass", "1", "--u_amplitude", "-0.05"], "u_amplitude"),
        (["simulate", "--mass", "1", "--checkpoint_every", "-1"], "checkpoint_every"),
        (["simulate", "--mass", "1", "--A", "1e400"], "A"),
        (["rate", "--a_values", "1e2, inf"], "a_values"),
    ], ids=["gns-samples", "elliptic-samples", "mass", "init_width", "masses", "fixed_dt",
            "drop_tol", "a_values", "u_eps", "u_amplitude", "checkpoint_every", "A-inf",
            "a_values-inf"])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, argv, key):
        # none may crash, pass vacuously, abort as a numerical failure or run
        # the earlier members of a list before it is refused
        small = ["--nx", "16", "--ny", "16", "--t_end", "0.05", "--out_dir", str(tmp_path)]
        assert cli_main(argv + small) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not any(tmp_path.iterdir())

    def test_check_identities_takes_an_even_streamwise_side(self, tmp_path, capsys):
        # nx = 22 halves to an odd 11; the suite's 3D grid must still be valid
        code = cli_main(["check", "--config", str(CONFIGS / "checks.conf"), "--nx", "22",
                         "--suite", "identities", "--samples", "2",
                         "--out_dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("check identities: PASS")

    def test_unknown_override_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(BASE_2D)
        assert cli_main(["simulate", "--config", str(conf), "--nope", "1"]) == 2

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli_main(["simulate", "--config", str(tmp_path / "absent.conf")]) == 4

    def test_unresolved_run_exits_3(self, tmp_path):
        # rough random data trips the spectral-tail gate without any growth
        code = cli_main([
            "simulate", "--nx", "32", "--ny", "32", "--enable_shear", "false",
            "--init_kind", "random", "--init_slope", "1.0", "--mass", "2.0",
            "--t_end", "0.2", "--dt_max", "0.002", "--output_every", "0.02",
            "--track_energies", "false", "--out_dir", str(tmp_path / "bad"),
        ])
        assert code == 3

    def test_status_line_names_the_reason(self, tmp_path, capsys):
        # an unsheared 2D collapse at mass 60 > 8 pi: the run loses positivity
        # at its first sample, and resuming from there ends in blow-up
        conf = tmp_path / "run.conf"
        conf.write_text(BASE_2D)
        flags = ["--mass", "60.0", "--init_width", "0.5", "--output_every", "0.02"]
        code = cli_main(["simulate", "--config", str(conf), *flags,
                         "--out_dir", str(tmp_path / "one")])
        status = read_series(tmp_path / "one" / "series.csv")[-1]["status"]
        out = capsys.readouterr().out
        assert code == 3 and status == "unresolved"
        assert "status = unresolved (negative density " in out
        code = cli_main(["resume", str(tmp_path / "one" / "final.pksn"), "--config", str(conf),
                         *flags, "--out_dir", str(tmp_path / "two")])
        out = capsys.readouterr().out
        assert code == 0
        assert "status = blowup (density lost positivity during growth" in out

    @pytest.mark.parametrize("positivity, reason", [
        ("true", "negative density "), ("false", "spectral tail fired without growth")])
    def test_the_positivity_gate_reaches_the_monitor(self, tmp_path, positivity, reason):
        # the collapse above: with the positivity gate off, the tail gate ends it
        cfg = parse_config(BASE_2D + "mass = 60.0\ninit_width = 0.5\noutput_every = 0.02\n"
                           f"monitor_positivity = {positivity}\nout_dir = {tmp_path}\n")
        summary = run_simulate(cfg)
        assert summary["status"] == "unresolved" and summary["reason"].startswith(reason)

    @pytest.mark.parametrize("every", ["inf", "1e300"])
    def test_a_huge_output_every_still_steps_to_t_end(self, tmp_path, capsys, every):
        # the sample tolerance scales with min(output_every, t_end), so the
        # run steps to t_end and samples there, where the tail gate reads it
        cli_main(["simulate", "--dim", "2", "--nx", "16", "--ny", "16", "--mass", "10",
                  "--t_end", "1", "--output_every", every, "--out_dir", str(tmp_path)])
        assert "  t_final = 1  " in capsys.readouterr().out
        assert [row["t"] for row in read_series(tmp_path / "series.csv")] == [0.0, 1.0]

    @pytest.mark.parametrize("with_u", [True, False])
    def test_inspect_verb(self, tmp_path, capsys, with_u):
        state = small_state(with_u=with_u)
        path = tmp_path / "c.pksn"
        write_checkpoint(path, state, A=50.0)
        assert cli_main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("dim = 3  grid = 16x16x16  t = 2.25  A = 50  drift = 0.25  "
                          "t_last_remap = 1.5")
        u_l2 = l2_norm(state.u) if with_u else 0.0
        assert out[1] == (f"mass = {total_mass(state.n):.17g}  n_l2 = {l2_norm(state.n):.17g}  "
                          f"u_l2 = {u_l2:.17g}")
        # a flipped bit, a truncated file and a missing one exit 4, as resume
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        bad = tmp_path / "bad.pksn"
        bad.write_bytes(bytes(raw))
        for target, message in ((bad, "checkpoint CRC mismatch"),
                                (tmp_path / "absent.pksn", "cannot read checkpoint")):
            assert cli_main(["inspect", str(target)]) == 4
            assert capsys.readouterr().err.startswith(f"i/o error: {message}")
        bad.write_bytes(bytes(raw[:40]))
        assert cli_main(["inspect", str(bad)]) == 4
        assert capsys.readouterr().err == "i/o error: checkpoint truncated\n"
        assert cli_main(["inspect", str(path), "--t_end", "1"]) == 2

    def test_check_verb(self, tmp_path, capsys):
        code = cli_main(["check", "--suite", "poincare", "--samples", "5",
                         "--nx", "32", "--ny", "32"])
        assert code == 0
        assert "check poincare: PASS" in capsys.readouterr().out

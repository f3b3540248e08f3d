"""Command line driver: config validation, output formats, exit codes."""
import contextlib
import functools
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import qbs.cli
from qbs import operators
from qbs.config import ConfigError, parse_config
from qbs.operators import hermitian_part
from generators import random_complex, random_hermitian, random_state, random_unitary
from test_flows import X0_SPECTRUM, positive_x0

ROOT = Path(__file__).resolve().parent.parent


def scalar_config(**extra):
    doc = {
        "schema_version": 1,
        "seed": 7,
        "model": {
            "ops": {
                "X": [[[1.0, 0.0]]],
                "H": [[[0.0, 0.0]]],
                "L": [[[0.0, 0.0]]],
                "S": [[[1.0, 0.0]]],
            },
            "K": [[[1.0, 0.0]]],
            "r": 0.0,
            "T": 1.0,
        },
        "t_grid": [1.0],
        "z_grid": [[[[0.0, 0.0]]]],
    }
    doc.update(extra)
    return doc


def full_config():
    return {
        "schema_version": 1,
        "seed": 11,
        "model": {
            "ops": {
                "X": [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.0]]],
                "H": [[[0.3, 0.0], [0.0, 0.2]], [[0.0, -0.2], [-0.1, 0.0]]],
                "L": [[[0.1, 0.0], [0.4, 0.0]], [[0.2, 0.1], [-0.3, 0.0]]],
                "S": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            },
            "K": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "r": 0.05,
            "T": 1.0,
        },
        "state": [[1.0, 0.0], [0.0, 0.0]],
        "t_grid": [0.5],
        "z_grid": [[[[0.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.1, 0.0]]]],
        "ito_check": {"dims": [2], "k_max": 3, "trials": 3},
        "hedge": {
            "convention": "direct",
            "times": [0.5],
            "stock": [[[1.3, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.1, 0.0]]],
        },
        "classical": {"x": [1.5], "t": [0.7], "strike": 1.0, "r": 0.05},
        "lindblad": {"t": [0.3]},
        "replicate": {"x0": 1.0, "strike": 1.0, "r": 0.05, "T": 1.0, "steps": 100, "paths": 1000},
    }


def run_cli(args, config_doc, tmp_path, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config_doc))
    return subprocess.run(
        [sys.executable, "-m", "qbs.cli", *args, "--config", str(path)],
        capture_output=True,
        text=True,
    )


def _shipped_with(tmp_path, config, **sections):
    """Path of configs/<config>.json with the given sections replaced."""
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    doc.update(sections)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_price_command_scalar(tmp_path):
    proc = run_cli(["price", "--omit-timing"], scalar_config(), tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["command"] == "price"
    w = doc["results"][0]["omega"][0][0][0]
    assert abs(w - 0.38292492254802646) <= 1e-13


def test_every_command_runs(tmp_path):
    for cmd in ("coeffs", "ito-check", "price", "residual", "terminal-check",
                "hedge", "classical", "lindblad", "replicate"):
        proc = run_cli([cmd, "--omit-timing"], full_config(), tmp_path)
        assert proc.returncode == 0, (cmd, proc.stderr)
        doc = json.loads(proc.stdout)
        assert doc["command"] == cmd
        assert doc["invariant_violations"] == []


def test_output_is_deterministic(tmp_path):
    p1 = run_cli(["price", "--omit-timing"], scalar_config(), tmp_path)
    p2 = run_cli(["price", "--omit-timing"], scalar_config(), tmp_path)
    assert p1.stdout == p2.stdout
    # timing is the only permitted difference without the flag
    p3 = run_cli(["price"], scalar_config(), tmp_path)
    d3 = json.loads(p3.stdout)
    assert d3["wall_time_s"] > 0.0
    d1 = json.loads(p1.stdout)
    d3.pop("wall_time_s")
    d1.pop("wall_time_s", None)
    assert d1 == d3


# main as the program runs it (argv None), with the size of the permanent
# generation printed to stderr by an atexit handler: after the report, and
# before the interpreter's shutdown collections
PROGRAM_PROBE = (
    "import atexit, gc, sys; from qbs.cli import main; "
    "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); sys.exit(main())"
)


def _run_as_program(*args):
    """(exit code, stdout bytes, freeze count at exit) of PROGRAM_PROBE."""
    proc = subprocess.run([sys.executable, "-c", PROGRAM_PROBE, *args], capture_output=True, cwd=ROOT)
    return proc.returncode, proc.stdout, int(proc.stderr.decode().splitlines()[-1])


def test_the_program_freezes_its_heap_after_the_report():
    code, out, frozen = _run_as_program("coeffs", "--config", "configs/flow_2x2.json", "--omit-timing")
    assert (code, out) == (0, (ROOT / "tests" / "golden" / "coeffs.flow_2x2.json").read_bytes())
    assert frozen > 0


# a (config, tolerances) pair stands for the path of that shipped config
# with those tolerances
@pytest.mark.parametrize("args,exit_code", [
    (["coeffs", "--config", "configs/missing.json"], 2),
    (["coeffs", "--config", ("flow_2x2", {"bogus": 1.0})], 2),
    (["residual", "--config", ("price_scalar", {"residual_eq8": 1e-30})], 3),
    (["coeffs", "--config", "configs/flow_2x2.json", "--bogus"], 2),
])
def test_the_program_freezes_its_heap_on_every_exit_path(args, exit_code, tmp_path):
    args = [_shipped_with(tmp_path, arg[0], tolerances=arg[1]) if isinstance(arg, tuple) else arg for arg in args]
    code, _, frozen = _run_as_program(*args)
    assert code == exit_code
    assert frozen > 0


def test_the_program_hands_the_free_heap_back_before_the_job():
    probe = (
        "import sys, qbs.cli as cli; calls = []; "
        "cli._release_free_heap = lambda f=cli._release_free_heap: calls.append('release') or f(); "
        "cli.read_config = lambda path, f=cli.read_config: calls.append('read') or f(path); "
        "code = cli.main(); print(*calls, file=sys.stderr); sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", probe, "coeffs", "--config", "configs/flow_2x2.json"],
                          capture_output=True, text=True, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "release read\n")


def test_main_in_process_leaves_the_process_as_it_was(tmp_path, monkeypatch, capsys):
    released = []
    monkeypatch.setattr(qbs.cli, "_release_free_heap", lambda: released.append(1))
    before = (gc.get_freeze_count(), gc.isenabled())
    assert qbs.cli.main(["coeffs", "--config", str(ROOT / "configs" / "flow_2x2.json"), "--omit-timing"]) == 0
    (tmp_path / "cfg.json").write_text("{")
    assert qbs.cli.main(["coeffs", "--config", str(tmp_path / "cfg.json")]) == 2
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled(), released) == (*before, [])


def test_replicate_is_seed_stable(tmp_path):
    p1 = run_cli(["replicate", "--omit-timing"], full_config(), tmp_path)
    p2 = run_cli(["replicate", "--omit-timing"], full_config(), tmp_path)
    assert p1.stdout == p2.stdout


def test_invalid_scattering_is_a_config_error(tmp_path):
    doc = scalar_config()
    doc["model"]["ops"]["S"] = [[[1.001, 0.0]]]
    proc = run_cli(["price"], doc, tmp_path)
    assert proc.returncode == 2
    assert "ops.S" in proc.stderr
    assert "unitary" in proc.stderr


def test_violation_exit_code(tmp_path):
    proc = run_cli(["residual"], scalar_config(tolerances={"residual_eq8": 1e-30}), tmp_path)
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["invariant_violations"]


def test_override_follows_the_config_rules(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scalar_config()))
    assert qbs.cli.main(["price", "--config", str(path), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: --seed: seed must be nonnegative\n"


def test_a_seed_flag_past_the_replicate_key_is_named_at_the_flag(capsys):
    # replicate's rule on the seed, a key below 2**128, names the flag that
    # set it, as the config rules do; the config field's case is named at seed
    argv = ["replicate", "--config", str(ROOT / "configs" / "monte_carlo.json"), "--seed", str(2**128)]
    assert qbs.cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --seed: replicate takes a seed below 2**128, got one of 129 bits\n"


def test_overrides_replace_config_values(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scalar_config()))  # seed 7
    assert qbs.cli.main(["price", "--config", str(path), "--omit-timing", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0


@pytest.mark.parametrize("flags", [["--csv"], ["--tol", "terminal=1e-3"]])
def test_a_config_field_has_no_flag(flags, capsys):
    # the output format and the tolerances are set in the config alone
    with pytest.raises(SystemExit) as exit_:
        qbs.cli.main(["price", "--config", str(ROOT / "configs" / "flow_2x2.json"), *flags])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flags)}" in captured.err


def test_help_lists_the_two_overrides(capsys):
    with pytest.raises(SystemExit) as exit_:
        qbs.cli.main(["--help"])
    assert exit_.value.code == 0
    usage = capsys.readouterr().out
    assert usage.startswith("usage: qbs [-h] --config CONFIG [--seed SEED] [--omit-timing]")
    assert "--csv" not in usage and "--tol" not in usage


def test_seed_required_for_stochastic_commands(tmp_path):
    doc = full_config()
    doc.pop("seed")
    for cmd in ("replicate", "ito-check"):
        proc = run_cli([cmd], doc, tmp_path)
        assert proc.returncode == 2, cmd
        assert "seed" in proc.stderr
    # the seed flag on the command line fills the gap
    proc = run_cli(["replicate", "--seed", "11", "--omit-timing"], doc, tmp_path)
    assert proc.returncode == 0


def test_ito_check_gate_catches_a_broken_ito_table(monkeypatch, capsys):
    # negative control: without dA.dA+ = dt the iterated time slot drifts
    # from the closed form, and the power-rule gate must say so
    import qbs.flows

    def without_time_term(d1, d2):
        creation, conservation, annihilation, time = ito_table(d1, d2)
        return creation, conservation, annihilation, np.zeros_like(time)

    ito_table = qbs.flows._ito_table
    monkeypatch.setattr(qbs.flows, "_ito_table", without_time_term)
    config = ROOT / "configs" / "flow_2x2.json"
    assert qbs.cli.main(["ito-check", "--config", str(config), "--omit-timing"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert not any(row["passed"] for row in doc["results"])
    assert len(doc["invariant_violations"]) == len(doc["results"])
    assert all(v.startswith("power rule deviation") for v in doc["invariant_violations"])


def test_residual_gates_the_z_partials_against_central_differences(monkeypatch, capsys):
    # negative control: w01 off by 1e-5, and w10 by (r - 1/2) 1e-5 so that
    # the pricing equation still balances. The residual rows pass; only the
    # derivative_fd gate, central differences of w over z +- hI, sees it.
    import qbs.pricing

    def perturbed(t, lam, r, names="w w10 w01 w02"):
        out = dict(zip(names.split(), call_scalars(t, lam, r, names)))
        if "w01" in out:
            out["w01"] = out["w01"] + 1e-5
        if "w10" in out:
            out["w10"] = out["w10"] + (r - 0.5) * 1e-5
        return tuple(out.values())

    call_scalars = qbs.pricing._call_scalars
    monkeypatch.setattr(qbs.pricing, "_call_scalars", perturbed)
    config = ROOT / "configs" / "flow_2x2.json"
    assert qbs.cli.main(["residual", "--config", str(config), "--omit-timing"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert all(row["passed"] for row in doc["results"])
    assert len(doc["invariant_violations"]) == len(doc["results"])
    assert all(v.startswith("derivative gap ") for v in doc["invariant_violations"])


def test_residual_takes_the_call_scalars_three_times_per_grid_point(monkeypatch, capsys):
    # once at z for eq8 and both partials' gaps, once each at z +- hI
    import qbs.pricing

    calls = []
    call_scalars = qbs.pricing._call_scalars
    monkeypatch.setattr(qbs.pricing, "_call_scalars", lambda *args: calls.append(args) or call_scalars(*args))
    config = ROOT / "configs" / "flow_2x2.json"
    assert qbs.cli.main(["residual", "--config", str(config), "--omit-timing"]) == 0
    assert len(calls) == 3 * len(json.loads(capsys.readouterr().out)["results"])


def _flow_2x2_with(tmp_path, **sections):
    """Path of configs/flow_2x2.json with the given sections replaced."""
    return _shipped_with(tmp_path, "flow_2x2", **sections)


@pytest.mark.parametrize("k_max", [400, 700])
def test_overflowing_ito_powers_are_a_numerical_error(k_max, tmp_path, capsys):
    # at k_max = 400 the powers stay finite but their norms overflow (a NaN
    # deviation); at 700 the powers themselves leave float range
    path = _flow_2x2_with(tmp_path, ito_check={"dims": [4], "k_max": k_max, "trials": 3})
    assert qbs.cli.main(["ito-check", "--config", path, "--omit-timing"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: ")


@pytest.mark.parametrize(
    "lindblad,tolerances",
    [
        ({"t": [1.0], "steps": 1}, {}),
        ({"t": [0.1, 1.0]}, {"semigroup": 1e-30}),
    ],
)
def test_lindblad_step_doubling_gate(lindblad, tolerances, tmp_path, capsys):
    # negative controls: one RK4 step over t = 1 is off by about 6e-5
    # relative, and no default step count reaches 1e-30
    path = _flow_2x2_with(tmp_path, lindblad=lindblad, tolerances=tolerances)
    assert qbs.cli.main(["lindblad", "--config", path, "--omit-timing"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert not any(row["passed"] for row in report["results"])
    assert len(report["invariant_violations"]) == len(lindblad["t"])
    assert all(v.startswith("step-doubling error") for v in report["invariant_violations"])


def test_an_overflowing_step_doubling_gap_fails_the_gate_as_inf(tmp_path):
    # one RK4 step from an x0 near float range keeps X_t finite, but X_t
    # minus X_t at two steps leaves it: the error reads inf and fails the
    # gate, exit 3 with no numpy warning
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    model["ops"]["H"] = [
        [[-14.359361250229947, 0], [1.0937787202316291, -6.128017776449256]],
        [[1.0937787202316291, 6.128017776449256], [4.84592124323203, 0]],
    ]
    model["ops"]["L"] = [
        [[0.16902770817797302, 0.3297233663228739], [-0.5693580116603344, 0.31175783710686994]],
        [[0.2864547767541185, -0.36735583702874575], [-1.24193866113678, -0.007294439338462207]],
    ]
    x0 = [
        [[7.19521895784178e306, 0], [-8.582868346265054e307, -1.698047415331624e307]],
        [[-8.582868346265054e307, 1.698047415331624e307], [-1.0201588807247808e308, 0]],
    ]
    t = 0.14283057261260396
    path = _flow_2x2_with(tmp_path, model=model, lindblad={"t": [t], "steps": 1, "x0": x0})
    proc = _run_warnings_as_errors("lindblad", path)
    assert (proc.returncode, proc.stderr) == (3, "")
    assert json.loads(proc.stdout)["invariant_violations"] == [
        f"step-doubling error inf exceeds 2.612709e+300 at t={t}, steps=1"
    ]


def test_classical_match_gate_catches_a_broken_formula(monkeypatch, capsys):
    # negative control: a classical price 1e-6 above the d = 1 operator
    # price at every row, against the default tolerance of 1e-9
    classical_bs = qbs.cli.classical_bs

    def off(*args):
        value, delta = classical_bs(*args)
        return value + 1e-6, delta

    monkeypatch.setattr(qbs.cli, "classical_bs", off)
    config = ROOT / "configs" / "monte_carlo.json"
    assert qbs.cli.main(["classical", "--config", str(config), "--omit-timing"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert len(report["invariant_violations"]) == len(report["results"]) == 6
    assert all(v.startswith("classical price mismatch") for v in report["invariant_violations"])


def test_classical_match_gate_allows_rounding_at_a_large_strike(tmp_path, capsys):
    # at the money with x = strike = 1e12 and sigma sqrt(t) = 1e-8, the two
    # formulas round apart by about 6e-5, far beyond 1e-9 |price| (price
    # about 4e3) but well within 1e-9 strike
    doc = full_config()
    doc["classical"] = {"x": [1e12], "t": [1e-16], "strike": 1e12, "r": 0.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert qbs.cli.main(["classical", "--config", str(path), "--omit-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["invariant_violations"] == []


@pytest.mark.parametrize("time", [1.0, 1.5, 0.0])
def test_hedge_time_outside_the_maturity_is_a_config_error(time, tmp_path, capsys):
    path = _flow_2x2_with(tmp_path, hedge={"times": [0.5, time]})
    assert qbs.cli.main(["hedge", "--config", path, "--omit-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: hedge.times[1]: t={time!r} outside (0, 1.0)\n"


def test_csv_output(tmp_path):
    proc = run_cli(["classical"], {**full_config(), "output": "csv"}, tmp_path)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].split(",")[:2] == ["x", "t"]
    row = lines[1].split(",")
    assert abs(float(row[5]) - 0.7170498285392044) <= 1e-12


# the CSV reports of two shipped jobs, byte for byte
CSV_REPORTS = {
    ("price", "flow_2x2"): (
        "t,z_index,omega_min_eigenvalue,omega_max_eigenvalue,omega_expectation\n"
        "0.5,0,0.22593009932911506,0.4410869305342794,0.4410869305342794\n"
    ),
    ("residual", "price_scalar"): (
        "t,z_index,residual_norm,tolerance,passed\n"
        "0.25,0,1.6653345369377348e-16,1e-06,True\n"
        "0.25,1,1.1102230246251565e-16,1e-06,True\n"
        "1.0,0,5.551115123125783e-17,1e-06,True\n"
        "1.0,1,0.0,1e-06,True\n"
    ),
}


@pytest.mark.parametrize("command,config", sorted(CSV_REPORTS))
def test_csv_report_is_unchanged(command, config, tmp_path, capsys):
    path = _shipped_with(tmp_path, config, output="csv")
    assert qbs.cli.main([command, "--config", path, "--omit-timing"]) == 0
    assert capsys.readouterr() == (CSV_REPORTS[command, config], "")


def _perfbench_workloads():
    """perfbench/workloads.py, which builds the benchmark's seeded markets."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look up their annotations
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def market_d64(tmp_path_factory):
    """Path of the benchmark's seeded market at d = 64."""
    workloads = _perfbench_workloads()
    path = tmp_path_factory.mktemp("market") / "market_d64.json"
    path.write_text(json.dumps(workloads.market_document(workloads.make_market(1, 64))))
    return str(path)


@pytest.mark.parametrize("command", ["price", "hedge", "residual", "terminal-check"])
def test_a_large_job_peaks_below_its_config_text(command, market_d64):
    # under tracemalloc, a whole job at d = 64 allocates less than its
    # config's text: main reads the config a chunk at a time, so the parse
    # holds the arrays, a window of the text and one matrix row's JSON
    # tree, and the report (6 MB for price) is written as it renders, a
    # block of matrix rows' texts at a time. A job that held the text, as
    # one read whole does, would peak at twice it (the file's bytes too)
    text = Path(market_d64).read_text()
    argv = [command, "--config", market_d64, "--omit-timing"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert qbs.cli.main(argv) == 0  # first-call work outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = qbs.cli.main(argv)
            job_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert code == 0
    assert job_peak < len(text), (job_peak, len(text))


def _parse_peak(text: str) -> int:
    """The traced peak of parse_config(text), in bytes above its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parse_config(text)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_parse_config_peaks_below_its_text(market_d64):
    # each matrix row becomes its vector as soon as it is scanned, so a
    # parse holds the arrays and one row's JSON tree (0.56 times the text at
    # d = 64), never the tree of a whole matrix (0.78 times) or of the
    # market (3.3 times)
    text = Path(market_d64).read_text()
    parse_config(text)  # first-call work outside the trace
    peak = _parse_peak(text)
    assert peak <= 0.65 * len(text), (peak, len(text))


def test_a_closed_stdout_is_exit_1_without_a_traceback(market_d64):
    # the price report at d = 64 (6 MB) fills the pipe long before it is
    # written; the reader takes a few bytes and closes it
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from qbs.cli import main; sys.exit(main())",
         "price", "--config", market_d64, "--omit-timing"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1, err
    assert err.startswith("output error: ") and err.count("\n") == 1, err


def test_price_holds_one_omega_as_it_writes(market_d64, monkeypatch):
    # each omega is assembled as its row is read, and dropped once the row
    # is written, before the next row's is assembled
    alive = [0, 0]  # omegas alive now, most alive at once
    quote = qbs.pricing.Moneyness.quote

    def dropped():
        alive[0] -= 1

    def counted(self, w, state):
        priced = quote(self, w, state)
        weakref.finalize(priced.omega, dropped)
        alive[0] += 1
        alive[1] = max(alive)
        return priced

    monkeypatch.setattr(qbs.pricing.Moneyness, "quote", counted)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert qbs.cli.main(["price", "--config", market_d64, "--omit-timing"]) == 0
    assert alive == [0, 1]


@pytest.mark.parametrize("timing", [[], ["--omit-timing"]])
def test_hedge_holds_one_rows_matrices_as_it_writes(timing, market_d64, monkeypatch):
    # a row's a, b, value and omega are assembled as it is read, and
    # dropped before the next row's are
    alive = [0, 0]  # matrices alive now, most alive at once
    position = qbs.pricing.Moneyness.position

    def dropped():
        alive[0] -= 1

    def counted(self, *args):
        pos, omega = position(self, *args)
        for matrix in (pos.a, pos.b, pos.value, omega):
            weakref.finalize(matrix, dropped)
        alive[0] += 4
        alive[1] = max(alive)
        return pos, omega

    monkeypatch.setattr(qbs.pricing.Moneyness, "position", counted)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert qbs.cli.main(["hedge", "--config", market_d64, *timing]) == 0
    assert alive == [0, 4]


def test_a_later_hedge_time_that_overflows_writes_no_report(tmp_path, capsys):
    # e^{rt} passes float range at the second time only; every check of
    # every time runs before the report's first byte
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    path = _shipped_with(tmp_path, "flow_2x2", model={**model, "r": 1000.0}, hedge={"times": [0.5, 0.75]})
    assert qbs.cli.main(["hedge", "--config", path, "--omit-timing"]) == 4
    assert capsys.readouterr() == ("", "numerical error: r t: exp overflows at 750.0\n")


def test_a_later_grid_point_that_overflows_writes_no_report(tmp_path, capsys):
    # every check of every row runs before the report's first byte
    path = _shipped_with(tmp_path, "price_scalar", z_grid=[[[[0.1, 0.0]]], [[[800.0, 0.0]]]])
    assert qbs.cli.main(["price", "--config", path, "--omit-timing"]) == 4
    assert capsys.readouterr() == ("", "numerical error: z: exp overflows at 800.0\n")


def test_an_omega_beyond_float_range_fails_before_the_report(tmp_path):
    # the second omega's eigenvalue, 1e300 e^700 w, overflows: a numerical
    # error of the checks that run before the report's first byte
    model = json.loads((ROOT / "configs" / "price_scalar.json").read_text())["model"]
    model["K"] = [[[1e300, 0.0]]]
    doc = {**scalar_config(z_grid=[[[[0.1, 0.0]]], [[[700.0, 0.0]]]]), "model": model, "state": [[1.0, 0.0]]}
    proc = run_cli(["price", "--omit-timing"], doc, tmp_path)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("numerical error: ") and proc.stderr.count("\n") == 1, proc.stderr


def _scalar(value) -> list:
    return [[[value, 0.0]]]


_BIG_MARKET = {"model.K": _scalar(1e300), "model.ops.X": _scalar(1e300), "z_grid": [_scalar(0.1), _scalar(700.0)]}
_BIG_FLOWS = {"model.ops.H": _scalar(1e300), "model.ops.L": _scalar(1e200), "lindblad.t": [1.0]}
_STATE = {"state": [[1.0, 0.0]]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command,config,changes",
    [
        ("price", "price_scalar", _BIG_MARKET),
        ("price", "price_scalar", {**_BIG_MARKET, **_STATE}),
        ("terminal-check", "price_scalar", {**_BIG_MARKET, **_STATE}),
        ("residual", "price_scalar", _BIG_MARKET),
        ("terminal-check", "price_scalar", _BIG_MARKET),
        ("hedge", "price_scalar", {"model.ops.X": _scalar(1.7e308), "model.K": _scalar(1e300), "hedge.times": [0.5]}),
        ("lindblad", "price_scalar", _BIG_FLOWS),
        ("lindblad", "flow_2x2", {"model.ops.H": [[[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e300, 0.0]]], "lindblad.t": [1.0]}),
        ("coeffs", "price_scalar", _BIG_FLOWS),
        ("hedge", "flow_2x2", {"hedge.stock": [[[1e154, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.1, 0.0]]]}),
        ("hedge", "flow_2x2", {"model.beta0": 5e-324}),
        ("lindblad", "flow_2x2", {"lindblad.t": [1e308]}),
        ("replicate", "monte_carlo", {"replicate.T": 1e308}),
        ("replicate", "monte_carlo", {"replicate.x0": 1e308, "replicate.paths": 1000, "replicate.steps": 100}),
    ],
    ids=["price", "price-state", "terminal-check-state", "residual", "terminal-check", "hedge", "lindblad-d1",
         "lindblad-d2", "coeffs", "hedge-a-jx", "hedge-b", "lindblad-steps", "replicate-growth", "replicate-paths"],
)
def test_an_operator_beyond_float_range_is_a_numerical_error(command, config, changes, tmp_path, capsys):
    # a priced operator with an eigenvalue past the bound of
    # Moneyness.spectrum, a hedge's a j_x or b past that of hedge_spectra,
    # a flow, a step count or a replicate growth factor that leaves float
    # range, or replicate paths that do: exit 4, one line and no numpy warning
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    for dotted, value in changes.items():  # "model.ops.H" sets doc["model"]["ops"]["H"]
        *parents, leaf = dotted.split(".")
        functools.reduce(dict.__getitem__, parents, doc)[leaf] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert qbs.cli.main([command, "--config", str(path), "--omit-timing"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: ") and captured.err.count("\n") == 1, captured.err


class _SlowSink(io.StringIO):
    """A text stream that takes delay seconds over each write, and counts them."""

    def __init__(self, delay: float):
        super().__init__()
        self.delay = delay
        self.writes = 0

    def write(self, text):
        time.sleep(self.delay)
        self.writes += 1
        return super().write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


def test_price_wall_time_counts_each_rows_pricing_and_none_of_the_writing(monkeypatch):
    # price's rows are priced as they are written, so its wall time is the
    # sum of the pricing done before the first byte and of each row's
    delay = 0.02
    quote = qbs.pricing.Moneyness.quote
    monkeypatch.setattr(
        qbs.pricing.Moneyness, "quote", lambda self, w, state: time.sleep(delay) or quote(self, w, state)
    )
    argv = ["price", "--config", str(ROOT / "configs" / "flow_2x2.json")]
    sinks = [_SlowSink(delay), _SlowSink(delay)]
    for sink, extra in zip(sinks, ([], ["--omit-timing"])):
        with contextlib.redirect_stdout(sink):
            assert qbs.cli.main(argv + extra) == 0
    timed, untimed = (sink.getvalue() for sink in sinks)
    head, sep, tail = timed.rpartition('"wall_time_s": ')
    assert head + sep + "null\n}\n" == untimed
    wall = float(tail.removesuffix("\n}\n"))
    assert math.isfinite(wall) and delay <= wall < sinks[0].writes * delay, (wall, sinks[0].writes)


def test_missing_config_file(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qbs.cli", "price", "--config", str(tmp_path / "absent.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = subprocess.run(
        [sys.executable, "-m", "qbs.cli", "price", "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "invalid JSON" in proc.stderr


def test_unknown_command(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scalar_config()))
    proc = subprocess.run(
        [sys.executable, "-m", "qbs.cli", "explode", "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_parse_config_reports_dotted_paths():
    doc = scalar_config()
    doc["model"]["ops"]["X"] = [[[1.0, 0.0], [0.0, 0.0]]]  # not square
    with pytest.raises(ConfigError, match="model.ops.X"):
        parse_config(json.dumps(doc))
    doc2 = scalar_config(schema_version=99)
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(json.dumps(doc2))
    doc3 = scalar_config(state=[[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ConfigError, match="state"):
        parse_config(json.dumps(doc3))


def test_parse_config_tolerance_merge():
    doc = scalar_config(tolerances={"residual_eq8": 1e-7})
    cfg = parse_config(json.dumps(doc))
    assert cfg.tolerances["residual_eq8"] == 1e-7
    assert cfg.tolerances["power_rule"] == 1e-10  # untouched default
    with pytest.raises(ConfigError, match="unknown tolerance"):
        parse_config(json.dumps(scalar_config(tolerances={"bogus": 1.0})))


def test_parse_config_matrix_cell_validation():
    doc = scalar_config()
    doc["z_grid"] = [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]
    with pytest.raises(ConfigError, match="z_grid"):
        parse_config(json.dumps(doc))
    doc2 = scalar_config()
    doc2["model"]["ops"]["H"] = [[[float("nan"), 0.0]]]
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc2))


def test_state_dimension_checked():
    doc = scalar_config(state=[[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConfigError, match="state"):
        parse_config(json.dumps(doc))


def test_huge_integer_literal_is_a_config_error(tmp_path):
    doc = full_config()
    doc["classical"]["strike"] = 10**400  # an integer literal beyond float range
    proc = run_cli(["classical"], doc, tmp_path)
    assert proc.returncode == 2
    assert "classical.strike: non-finite number 1000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eigensolver_failure_is_a_numerical_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(scalar_config()))

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert qbs.cli.main(["price", "--config", str(path), "--omit-timing"]) == 4
    assert "numerical error" in capsys.readouterr().err


def test_an_eigensolver_failure_at_parse_is_a_numerical_error(monkeypatch, capsys):
    # the model checks X and K positive definite by their spectra at parse
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert qbs.cli.main(["price", "--config", str(ROOT / "configs" / "flow_2x2.json")]) == 4
    assert capsys.readouterr() == ("", "numerical error: Eigenvalues did not converge\n")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(scalar_config()).encode() + b" \xff")
    proc = subprocess.run(
        [sys.executable, "-m", "qbs.cli", "price", "--config", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: 'utf-8' codec can't decode byte 0xff"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_overflowing_moneyness_is_a_numerical_error(tmp_path):
    proc = run_cli(["price"], scalar_config(z_grid=[[[[800.0, 0.0]]]]), tmp_path)
    assert proc.returncode == 4
    assert "overflow" in proc.stderr


def _matrix_doc(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _in_basis(u, d) -> list:
    """The config text of U diag(d) U*."""
    return _matrix_doc(hermitian_part((u * d) @ u.conj().T))


def _market_doc(u, k, lam, zs, **sections) -> dict:
    """A config document in the basis U: K = U diag(k) U*, the stock
    X = K e^z for z = U diag(lam) U*, flat flows, and z_grid U diag(zs[i]) U*."""
    zero = _matrix_doc(np.zeros((len(k), len(k))))
    ops = {"X": _in_basis(u, k * np.exp(lam)), "H": zero, "L": zero, "S": _matrix_doc(np.eye(len(k)))}
    model = {"ops": ops, "K": _in_basis(u, k), "r": 0.03, "T": 1.0}
    z_grid = [_in_basis(u, z) for z in zs]
    return {"schema_version": 1, "model": model, "t_grid": [0.5], "z_grid": z_grid, **sections}


def test_a_joint_basis_that_does_not_converge_is_a_numerical_error(tmp_path, monkeypatch, capsys):
    # z has two eigenvalues 1e-9 apart that K splits; a pair rotation that
    # never settles them runs the sweeps to their cap
    u = random_unitary(np.random.default_rng(17), 3)
    lam, k = np.array([0.2, 0.2 + 1e-9, -0.4]), np.array([0.8, 1.6, 1.1])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_market_doc(u, k, lam, [lam])))
    assert qbs.cli.main(["price", "--config", str(path), "--omit-timing"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(operators, "_pair_rotation", lambda a, b: np.array([[0.8, -0.6], [0.6, 0.8]]))
    assert qbs.cli.main(["price", "--config", str(path), "--omit-timing"]) == 4
    assert capsys.readouterr() == (
        "",
        "numerical error: z_grid[0]: the joint eigenbasis with K did not converge\n",
    )


@st.composite
def generated_markets(draw):
    """(doc, u, k, lam, stock_lam): a _market_doc in a drawn basis U at d = 1-6,
    with drawn flows H, L and S and a lindblad section that evolves x0 = I.
    z's eigenvalues lam take repeated levels, and one pair may sit 1e-9
    apart; K is scalar or not; r may be 0; a state and a hedge.stock are each
    optional. stock_lam is the z of the hedged stock, K e^z = stock."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng, dim)
    levels = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=dim))
    lam = np.array(draw(st.lists(st.sampled_from(levels), min_size=dim, max_size=dim))) / 20.0
    if dim > 1 and draw(st.booleans()):
        lam[1] = lam[0] + 1e-9
    k = np.array(draw(st.lists(st.integers(10, 40), min_size=dim, max_size=dim))) / 20.0
    if draw(st.booleans()):
        k[:] = k[0]  # a scalar strike
    hedge = {"times": [0.5], "convention": draw(st.sampled_from(["direct", "classical"]))}
    lindblad = {"t": [0.5, 1.0], "x0": _matrix_doc(np.eye(dim))}
    doc = _market_doc(u, k, lam, [lam], t_grid=[draw(st.integers(1, 20)) / 10.0], hedge=hedge, lindblad=lindblad)
    doc["model"]["r"] = draw(st.sampled_from([0.0, 0.05]))
    flows = {"H": random_hermitian(rng, dim), "L": random_complex(rng, dim, 0.5), "S": random_unitary(rng, dim)}
    doc["model"]["ops"].update((name, _matrix_doc(m)) for name, m in flows.items())
    if draw(st.booleans()):
        doc["state"] = [[float(v.real), float(v.imag)] for v in random_state(rng, dim)]
    stock_lam = lam
    if draw(st.booleans()):
        stock_lam = np.array(draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))) / 20.0
        hedge["stock"] = _in_basis(u, k * np.exp(stock_lam))
    return doc, u, k, lam, stock_lam


def _call_in_basis(u, k, lam, r, t):
    """U diag(c) U*, c_i the call on k_i e^lam_i struck at k_i, by quadrature."""
    c = [oracles.classical_call_quadrature(ki * math.exp(li), ki, r, 1.0, t) for ki, li in zip(k, lam)]
    return (u * np.array(c)) @ u.conj().T


def _main_output(command, path):
    """(exit code, stdout, stderr) of main in process, without timing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qbs.cli.main([command, "--config", path, "--omit-timing"])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def generated_config(tmp_path_factory):
    return str(tmp_path_factory.mktemp("generated") / "cfg.json")


@settings(max_examples=30, deadline=None)
@given(generated_markets())
def test_generated_markets_price_as_the_scalar_call(generated_config, market):
    # every command on the drawn document exits 0 and writes the same bytes
    # twice, as json.dumps(indent=2) writes them; each omega is the
    # quadrature call in U, between 0 and K e^z in the operator order, the
    # hedge value the stock's call, and lindblad keeps I at I (theta(I) = 0)
    doc, u, k, lam, stock_lam = market
    Path(generated_config).write_text(json.dumps(doc))
    r, t = doc["model"]["r"], doc["t_grid"][0]
    forward = (u * (k * np.exp(lam))) @ u.conj().T
    slack = 1e-12 * max(1.0, float(np.linalg.norm(forward)))
    close = lambda got, want: np.linalg.norm(got - want) <= 1e-11 * max(1.0, float(np.linalg.norm(want)))
    commands = ["coeffs", "price", "residual", "hedge", "lindblad"]
    commands += ["terminal-check"] * (float(np.min(np.abs(lam))) > 0.11)
    for command in commands:
        code, out, err = _main_output(command, generated_config)
        assert (code, err) == (0, "")
        assert _main_output(command, generated_config) == (code, out, err)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        rows = json.loads(out)["results"]
        matrix = lambda key: np.array(rows[0][key]) @ np.array([1.0, 1j])
        if command == "price":
            omega = matrix("omega")
            assert close(omega, _call_in_basis(u, k, lam, r, t))
            assert np.linalg.eigvalsh(omega)[0] >= -slack
            assert np.linalg.eigvalsh(forward - omega)[0] >= -slack
        if command == "hedge":
            assert close(matrix("value"), _call_in_basis(u, k, stock_lam, r, doc["model"]["T"] - 0.5))
        if command == "lindblad":
            for row in rows:
                x_t = np.array(row["x_t"]) @ np.array([1.0, 1j])
                assert np.linalg.norm(x_t - np.eye(len(k))) <= 1e-12, row["t"]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(X0_SPECTRUM, min_size=1, max_size=6), st.sampled_from([0.01, 0.5, 2.0]))
def test_lindblad_keeps_a_positive_x0_positive_and_contracts_it(generated_config, seed, spectrum, t):
    # the semigroup is unital and completely positive: X0 >= 0 gives
    # X_t >= 0, and ||X_t||_2 <= ||X0||_2, each within the step-doubling
    # tolerance that the command passes X_t by
    rng = np.random.default_rng(seed)
    dim = len(spectrum)
    x0 = positive_x0(rng, spectrum)
    flat = np.zeros(dim)
    doc = _market_doc(np.eye(dim), np.ones(dim), flat, [flat], lindblad={"t": [t], "x0": _matrix_doc(x0)})
    flows = {"H": random_hermitian(rng, dim), "L": random_complex(rng, dim, 0.8), "S": random_unitary(rng, dim)}
    doc["model"]["ops"].update((name, _matrix_doc(m)) for name, m in flows.items())
    Path(generated_config).write_text(json.dumps(doc))
    code, out, err = _main_output("lindblad", generated_config)
    assert (code, err) == (0, "")
    report = json.loads(out)
    x_t = np.array(report["results"][0]["x_t"]) @ np.array([1.0, 1j])
    slack = report["tolerances"]["semigroup"] * max(1.0, float(np.linalg.norm(x_t)))
    assert np.linalg.eigvalsh(hermitian_part(x_t))[0] >= -slack
    assert np.linalg.norm(x_t, 2) <= np.linalg.norm(x0, 2) + slack


# each checking command, the tolerance it is judged by, and the end of the
# violation line of a row: the row's t and z_index
TIGHT_CHECKS = [
    ("residual", "residual_eq8", lambda row: f" at t={row['t']}, z_index={row['z_index']}"),
    ("terminal-check", "terminal", lambda row: f" at z_index={row['z_index']}"),
    ("hedge", "hedge_value", lambda row: f" at t={row['t']}"),
]


@settings(max_examples=15, deadline=None)
@given(generated_markets(), st.sampled_from([1e-300, 1e-17, 1e-15]))
def test_generated_markets_fail_a_tolerance_below_roundoff(generated_config, market, tol):
    # two t and two z (lam and -lam) per drawn market: a command exits 3
    # exactly when some row fails, with one violation line per failed row
    doc, u, k, lam, _ = market
    doc["t_grid"].append(doc["t_grid"][0] / 2)
    doc["z_grid"].append(_in_basis(u, -lam))
    doc["hedge"]["times"].append(0.25)
    checks = TIGHT_CHECKS if float(np.min(np.abs(lam))) > 0.11 else TIGHT_CHECKS[::2]
    for command, name, where in checks:
        Path(generated_config).write_text(json.dumps({**doc, "tolerances": {name: tol}}))
        code, out, err = _main_output(command, generated_config)
        report = json.loads(out)
        failed = [row for row in report["results"] if not row["passed"]]
        assert (code, err) == (3 if failed else 0, "")
        assert report["tolerances"][name] == tol
        violations = report["invariant_violations"]
        assert len(violations) == len(failed)
        assert all(line.endswith(where(row)) for line, row in zip(violations, failed))


def test_nan_commutation_defect_is_a_config_error(tmp_path, capsys):
    # unscaled, [X, K] overflows to a NaN entry; the pair must fail the check
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    model["ops"]["X"] = [[[1e308, 0.0], [5e307, 0.0]], [[5e307, 0.0], [1e308, 0.0]]]
    model["K"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
    path = _flow_2x2_with(tmp_path, model=model)
    for command in ("price", "coeffs"):
        assert qbs.cli.main([command, "--config", path, "--omit-timing"]) == 2
        assert "a simultaneous eigenbasis is required" in capsys.readouterr().err


def test_overflowing_commutation_bound_is_a_config_error(tmp_path):
    # 1e-10 ||X||_F ||K||_F overflows to inf; taken of the exactly rescaled
    # pair the check still sees the relative defect 2.8e-9, and no overflow
    # warning is printed on the way
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    model["ops"]["X"] = [[[1e308, 0.0], [1e300, 0.0]], [[1e300, 0.0], [1e308, 0.0]]]
    model["K"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.5, 0.0]]]
    path = _flow_2x2_with(tmp_path, model=model)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qbs.cli", "coeffs", "--config", path, "--omit-timing"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: model: [X, K] norm ")
    assert proc.stderr.endswith("a simultaneous eigenbasis is required\n")


def _flow_2x2_split_by_k(tmp_path, **sections):
    """_flow_2x2_with a strike K = diag(1, 2), which X and the shipped z commute with."""
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    model["K"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
    return _flow_2x2_with(tmp_path, model=model, **sections)


@pytest.mark.parametrize("command", ["price", "residual", "terminal-check"])
def test_a_z_that_splits_from_k_is_named_by_its_grid_entry(command, tmp_path, capsys):
    z_grid = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["z_grid"]
    z_grid.append([[[0.0, 0.0], [0.3, 0.0]], [[0.3, 0.0], [0.0, 0.0]]])
    path = _flow_2x2_split_by_k(tmp_path, z_grid=z_grid)
    assert qbs.cli.main([command, "--config", path, "--omit-timing"]) == 2
    assert capsys.readouterr() == (
        "",
        "config error: [z_grid[1], K] norm 4.242641e-01 exceeds 9.486833e-11; "
        "a simultaneous eigenbasis is required\n",
    )


def test_a_z_within_the_terminal_gap_is_named_by_its_grid_entry(tmp_path, capsys):
    z_grid = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["z_grid"]
    z_grid.append([[[0.05, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])
    path = _flow_2x2_with(tmp_path, z_grid=z_grid)
    assert qbs.cli.main(["terminal-check", "--config", path, "--omit-timing"]) == 2
    assert capsys.readouterr() == (
        "",
        "config error: z_grid[1] eigenvalue with |value| = 0.05 lies within 0.1 of 0; "
        "the terminal limit is not certified there\n",
    )


def test_a_hedge_stock_that_splits_from_k_is_named_by_its_path(tmp_path, capsys):
    hedge = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["hedge"]
    hedge["stock"] = [[[1.3, 0.0], [0.1, 0.0]], [[0.1, 0.0], [1.1, 0.0]]]
    path = _flow_2x2_split_by_k(tmp_path, hedge=hedge)
    assert qbs.cli.main(["hedge", "--config", path, "--omit-timing"]) == 2
    assert capsys.readouterr() == (
        "",
        "config error: hedge.stock: [X, K] norm 1.414214e-01 exceeds 3.820995e-10; "
        "a simultaneous eigenbasis is required\n",
    )


@pytest.mark.parametrize(
    "command,path,message",
    [
        ("hedge", "hedge.times", "at least one time required"),
        ("lindblad", "lindblad.t", "at least one time required"),
        ("price", "z_grid", "a z_grid required for this command"),
        ("ito-check", "seed", "a seed is required for stochastic commands"),
    ],
)
def test_a_missing_requirement_names_its_path(command, path, message, tmp_path, capsys):
    # an empty list where a section key is named, else no top-level entry
    doc = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())
    section, _, key = path.partition(".")
    if key:
        doc[section][key] = []
    else:
        del doc[section]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert qbs.cli.main([command, "--config", str(config), "--omit-timing"]) == 2
    assert capsys.readouterr() == ("", f"config error: {path}: {message}\n")


def _run_warnings_as_errors(command, path):
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "qbs.cli", command, "--config", path, "--omit-timing"],
        capture_output=True,
        text=True,
    )


def test_overflowing_flow_coefficients_are_a_numerical_error(tmp_path):
    # L*L overflows in theta: the first non-finite coefficient is named,
    # with no overflow warning, as for an overflowing Ito power
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    model["ops"]["L"] = [[[1e200 * v for v in pair] for pair in row] for row in model["ops"]["L"]]
    proc = _run_warnings_as_errors("coeffs", _flow_2x2_with(tmp_path, model=model))
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", "numerical error: theta: non-finite entries\n")


def test_classical_at_an_extreme_rate_warns_nothing(tmp_path):
    # the d = 1 operator price computes no partial, so none can overflow
    classical = {"x": [1.5], "t": [1e10], "strike": 1.0, "r": 1e300}
    proc = _run_warnings_as_errors("classical", _flow_2x2_with(tmp_path, classical=classical))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["results"][0]["price"] == 1.5


def test_hedge_at_an_overflowing_rate_is_a_numerical_error(tmp_path):
    # e^{rt} leaves float range at r = 1e300; the product r t is named
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    model["r"] = 1e300
    proc = _run_warnings_as_errors("hedge", _flow_2x2_with(tmp_path, model=model))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "numerical error: r t: exp overflows at 2.5e+299\n"


def test_residual_at_an_extreme_rate_warns_nothing(tmp_path):
    # the normal densities underflow to exactly 0 where their squared
    # arguments overflow; the row is the one computed with the warning
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    model["r"] = 1e300
    proc = _run_warnings_as_errors("residual", _flow_2x2_with(tmp_path, model=model))
    assert (proc.returncode, proc.stderr) == (0, "")
    row = {"t": 0.5, "z_index": 0, "residual_norm": 0.0, "tolerance": 1e-06, "passed": True}
    assert json.loads(proc.stdout)["results"] == [row]


def _flow_2x2_at_rate_1e308(tmp_path, t):
    """flow_2x2 at r = 1e308, priced at t and z = diag(1, -0.1)."""
    model = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["model"]
    model["r"] = 1e308
    z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.1, 0.0]]]
    return _flow_2x2_with(tmp_path, model=model, t_grid=[t], z_grid=[z])


def test_an_overflowing_residual_is_nan_and_fails(tmp_path):
    # at z = 1, (r - 1/2) w01 and r w overflow and their difference is NaN,
    # which the row reports and fails on, with no numpy warning
    proc = _run_warnings_as_errors("residual", _flow_2x2_at_rate_1e308(tmp_path, 0.5))
    assert (proc.returncode, proc.stderr) == (3, "")
    report = json.loads(proc.stdout)
    (row,) = report["results"]
    assert math.isnan(row["residual_norm"]) and row["passed"] is False
    assert report["invariant_violations"] == ["residual nan exceeds 1.000000e-06 at t=0.5, z_index=0"]


def test_a_nan_partial_is_a_numerical_error_without_a_warning(tmp_path):
    # at t = 4, g = (r + 1/2) sqrt t is inf and its density 0, so w02's
    # -g phi(g) is NaN: one line, exit 4
    proc = _run_warnings_as_errors("residual", _flow_2x2_at_rate_1e308(tmp_path, 4.0))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "numerical error: K F(z) can overflow: eigenvalue modulus nan exceeds 2^1020\n"


@pytest.mark.parametrize(
    "t,message",
    [
        (1e300, "t: t^1.5 overflows at 1e+300"),  # past float range
        (1e-300, "t: z / t^1.5 overflows at 1e-300"),  # t^1.5 underflows to 0
    ],
)
def test_residual_at_an_extreme_time_is_a_numerical_error(t, message, tmp_path):
    # the time derivative's z / t^1.5 term leaves float range; t is named,
    # with no traceback and no warning
    proc = _run_warnings_as_errors("residual", _flow_2x2_with(tmp_path, t_grid=[t]))
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"numerical error: {message}\n")


def _shrunk(config: str) -> dict:
    """configs/<config>.json with ito-check at 3 trials of d = 2 and k_max 4,
    and replicate at 1000 paths of 100 steps."""
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    doc["ito_check"] = {"dims": [2], "k_max": 4, "trials": 3}
    if "replicate" in doc:
        doc["replicate"].update(paths=1000, steps=100)
    return doc


def _numbers(value, path=()) -> list:
    """The paths of the numbers in a JSON tree, each a tuple of keys and indices."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [path]
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    return [leaf for key, item in items for leaf in _numbers(item, path + (key,))]


# every command with each shipped config it runs on, and every number of that config
_JOBS = {
    "coeffs": ("flow_2x2", "price_scalar"),
    "ito-check": ("flow_2x2", "monte_carlo"),
    "price": ("flow_2x2", "price_scalar"),
    "residual": ("flow_2x2", "price_scalar"),
    "terminal-check": ("flow_2x2", "price_scalar"),
    "hedge": ("flow_2x2",),
    "classical": ("monte_carlo",),
    "lindblad": ("flow_2x2",),
    "replicate": ("monte_carlo",),
}
EXTREME_FIELDS = [
    (command, config, leaf) for command, configs in _JOBS.items() for config in configs for leaf in _numbers(_shrunk(config))
]
EXTREMES = [1e308, -1e308, 1e154, -1e154, 5e-324, -0.0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(EXTREME_FIELDS), st.sampled_from(EXTREMES))
@example(("price", "flow_2x2", ("state", 0, 0)), 1e308)  # the state's norm overflowed
@example(("lindblad", "flow_2x2", ("lindblad", "t", 0)), 1e308)  # the default step count did
@example(("replicate", "monte_carlo", ("replicate", "T")), 1e308)  # e^(r dt) did
@example(("replicate", "monte_carlo", ("replicate", "r")), 1e154)
@example(("hedge", "flow_2x2", ("hedge", "stock", 0, 0, 0)), 1e154)  # a j_x did
@example(("hedge", "flow_2x2", ("model", "beta0")), 5e-324)  # b did
@example(("hedge", "flow_2x2", ("hedge", "stock", 0, 0, 0)), 1e200)  # ||X||_F of the stock check did
@example(("replicate", "monte_carlo", ("replicate", "x0")), 1e308)  # the paths did
@example(("lindblad", "flow_2x2", ("model", "ops", "X", 0, 0, 0)), 1e308)  # ||X_t||_F did
@example(("price", "price_scalar", ("z_grid", 0, 0, 0, 0)), -1e308)  # z / sqrt(t) did
@example(("terminal-check", "flow_2x2", ("z_grid", 0, 0, 0, 0)), -1e308)
@example(("replicate", "monte_carlo", ("replicate", "sigma")), 1e154)  # log(0) of the paths
@example(("replicate", "monte_carlo", ("replicate", "sigma")), 1e308)
@example(("replicate", "monte_carlo", ("replicate", "sigma")), 5e-324)  # x / (sigma sqrt(tau)) overflowed
@example(("replicate", "monte_carlo", ("replicate", "strike")), 5e-324)  # x / strike did
def test_an_extreme_config_number_ends_in_an_exit_code(generated_config, field, value):
    # one number of a shipped config at an extreme of float range, under a
    # command that runs on it: an exit code that says what happened, no
    # traceback and no numpy warning, and one stderr line for a failure;
    # a hedge, lindblad or replicate report holds no NaN or Infinity
    _extreme_exit_code(generated_config, field, value)


_SIZE = "Maximum allowed dimension exceeded"  # numpy's words for an array past int64
_ITO_SIZE, _MC_SIZE = f"config error: ito_check: {_SIZE}", f"config error: replicate: {_SIZE}"
_STEPS = "numerical error: steps: a step count of 1329 bits leaves float range"
# the integer fields of the shipped configs, under each command that reads
# them, with the start of the stderr at 10**400 and at 2**63 (None where the
# job may succeed)
INTEGER_FIELDS = [
    (("ito-check", "flow_2x2", ("seed",)), None, None),
    (("replicate", "monte_carlo", ("seed",)), "config error: seed: ", None),
    (("ito-check", "flow_2x2", ("ito_check", "dims", 0)), _ITO_SIZE, _ITO_SIZE),
    (("lindblad", "flow_2x2", ("lindblad", "steps")), _STEPS, None),
    (("replicate", "monte_carlo", ("replicate", "steps")), _STEPS, _MC_SIZE),
    (("replicate", "monte_carlo", ("replicate", "paths")), _MC_SIZE, _MC_SIZE),
]
# (field, value, the start of its stderr): each integer field at 10**400
# and 2**63; then sizes whose first array asks for at least 2**48 bytes,
# past the 47-bit user address space of a Linux process, so that every host
# refuses them at once; and a replicate seed past the 128-bit key of its
# Philox streams
INTEGER_CASES = [
    case for field, huge, past_int64 in INTEGER_FIELDS for case in ((field, 10**400, huge), (field, 2**63, past_int64))
] + [
    (INTEGER_FIELDS[2][0], 2**22, "config error: ito_check: Unable to allocate 1.00 PiB "),  # the (1, 8, d, d) normals
    (INTEGER_FIELDS[4][0], 2**45, "config error: replicate: Unable to allocate 256. TiB "),  # the steps - 1 step times
    (INTEGER_FIELDS[5][0], 2**45, "config error: replicate: Unable to allocate 256. TiB "),  # the paths' errors
    (INTEGER_FIELDS[1][0], 2**128, "config error: seed: replicate takes a seed below 2**128, got one of 129 bits\n"),
]


def _integer_id(case) -> str:
    (command, _, path), value, _ = case
    power = "10**400" if value == 10**400 else f"2**{value.bit_length() - 1}"
    return f"{'.'.join(map(str, path))}-{command}-{power}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field,value,error", INTEGER_CASES, ids=list(map(_integer_id, INTEGER_CASES)))
def test_an_extreme_config_integer_ends_in_an_exit_code(tmp_path, field, value, error):
    """As test_an_extreme_config_number_ends_in_an_exit_code, for an integer
    field at 10**400, past float range, at 2**63, past int64, or at a size
    that cannot be allocated. A step count of 10**400 is a numerical error,
    exit 4, named at steps; a size that numpy refuses is a config error,
    exit 2, at the section it sizes, and so is one that it cannot allocate.
    ito_check.trials and k_max are left out: a job computes as many trials
    or Ito powers as its config asks for (a k_max of 10**400 did not end in
    20 s), as a lindblad.t of 1e300 at d > 8 asks for about 1e303 RK4 steps."""
    code, err = _extreme_exit_code(str(tmp_path / "cfg.json"), field, value)
    if error is not None:
        assert (code, err[: len(error)]) == (4 if error.startswith("numerical") else 2, error)


def _extreme_exit_code(path: str, field, value) -> tuple:
    """The exit code and stderr of field's command on its config, shrunk,
    with the number at its path set to value and written to path, after
    checking that the code is one of 0, 2, 3 and 4 and that the output
    fits it."""
    command, config, (*parents, key) = field
    doc = _shrunk(config)
    functools.reduce(lambda node, at: node[at], parents, doc)[key] = value
    Path(path).write_text(json.dumps(doc))
    code, out, err = _main_output(command, path)
    assert code in (0, 2, 3, 4)
    if code in (0, 3):
        assert err == ""
        if command in ("hedge", "lindblad", "replicate"):
            assert "NaN" not in out and "Infinity" not in out
    else:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, err
    return code, err


# The dense decompositions of numpy.linalg. Each is counted where qbs calls
# it, in numpy.linalg, and where numpy calls it itself, in the module that
# defines them (norm(..., 2) takes an svd there; numpy.linalg.linalg before
# numpy 2).
try:
    import numpy.linalg._linalg as LINALG_IMPL
except ImportError:
    import numpy.linalg.linalg as LINALG_IMPL

DECOMPOSITIONS = (
    "cholesky", "qr", "svd", "eig", "eigh", "eigvals", "eigvalsh",
    "inv", "solve", "det", "slogdet", "lstsq",
)

# (command, shipped config, eigh calls on each z, decompositions of the
# whole job): X and K once each at parse, then each z once (the stock once
# for hedge), and nothing more. The joint spectrum of (z, K) gives the
# extremes of price's rows, and the residual and terminal 2-norms, as
# max |k f| with no further spectrum. Before the joint spectrum these were
# 8, 8, 5 and 5.
DECOMPOSITION_BUDGET = [
    ("price", "price_scalar", 1, 2 + 2),
    ("residual", "price_scalar", 1, 2 + 2),
    ("terminal-check", "flow_2x2", 1, 2 + 1),
    ("hedge", "flow_2x2", 0, 2 + 1),
]


@pytest.mark.parametrize(
    "command,config,per_z,calls", DECOMPOSITION_BUDGET, ids=[f"{c}-{cfg}" for c, cfg, *_ in DECOMPOSITION_BUDGET]
)
def test_each_z_is_decomposed_once_per_job(command, config, per_z, calls, monkeypatch, capsys):
    path = ROOT / "configs" / f"{config}.json"
    z_grid = parse_config(path.read_text()).z_grid
    inputs = []
    for module in (np.linalg, LINALG_IMPL):
        for name in DECOMPOSITIONS:

            def counted(a, *args, _name=name, _solver=getattr(module, name), **kwargs):
                inputs.append((_name, a.shape, a.tobytes()))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    assert qbs.cli.main([command, "--config", str(path), "--omit-timing"]) == 0
    capsys.readouterr()
    assert [inputs.count(("eigh", z.shape, z.tobytes())) for z in z_grid] == [per_z] * len(z_grid)
    assert len(inputs) == calls


def test_decomposition_count_sees_the_2_norm(monkeypatch):
    # norm(..., 2) of numpy reaches svd inside numpy, not through numpy.linalg
    calls = []
    svd = LINALG_IMPL.svd
    monkeypatch.setattr(LINALG_IMPL, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert np.linalg.norm(np.eye(2), 2) == 1.0
    assert calls == [1]


# Imports the bare package, then the CLI, in a fresh interpreter and prints
# the version and the qbs submodules loaded after each import.
PACKAGE_IMPORT_PROBE = """
import json, sys
import qbs
bare = sorted(m for m in sys.modules if m.startswith("qbs."))
import qbs.cli
print(json.dumps([qbs.__version__, bare, sorted(m for m in sys.modules if m.startswith("qbs."))]))
"""


def test_bare_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", PACKAGE_IMPORT_PROBE], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    layers = ["qbs.cli", "qbs.config", "qbs.flows", "qbs.operators", "qbs.pricing", "qbs.sampling"]
    assert json.loads(proc.stdout) == ["0.1.0", [], layers]


# Runs one command in a fresh interpreter and prints, to stderr, its exit
# code, whether any scipy module and scipy.special were imported, and
# whether any numpy.random module was.
IMPORT_GRAPH_PROBE = """
import sys
import qbs.cli
code = qbs.cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
rng = any(m == "numpy.random" or m.startswith("numpy.random.") for m in sys.modules)
print(code, bool(loaded), "scipy.special" in loaded, rng, file=sys.stderr)
"""


def _modules_loaded_by(command, config):
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH_PROBE, command,
         "--config", f"configs/{config}.json", "--omit-timing"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stderr.split()
    assert code == "0"
    return tuple(flag == "True" for flag in loaded)


def test_cli_import_loads_no_dataclasses():
    # the value types are named tuples; nothing else in a qbs job imports dataclasses
    probe = "import sys, qbs.cli; sys.exit('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_pricing_commands_do_not_import_scipy():
    # nor numpy.random: price draws no random number
    assert _modules_loaded_by("price", "flow_2x2") == (False, False, False)


def test_replicate_imports_scipy_special():
    # the probe can see the imports: replicate still draws its deltas from
    # ndtr, and its normals from numpy.random
    assert _modules_loaded_by("replicate", "monte_carlo") == (True, True, True)

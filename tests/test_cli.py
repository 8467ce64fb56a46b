import contextlib
import gc
import io
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qprop import __version__, cli, propensity
from qprop.cli import CHUNK_ROWS, MAX_ROWS, _csv_rows, _fmt, _json_numbers, _json_pieces, main

import differential
import make_goldens
from make_goldens import CASES, GOLDEN_DIR, mask_timing, strict_json

CSV_CASES = {name: argv for name, argv in CASES.items() if name.endswith(".csv")}
JSON_CASES = {name: argv for name, argv in CASES.items() if name.endswith(".json")}


def run_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout_text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def normalize_json(text):
    """Parse a JSON record, refusing NaN and Infinity, and drop the only
    timing-dependent field."""
    record = strict_json(text)
    assert isinstance(record.pop("wall_time_ms"), float)
    return record


def parse_csv(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    return rows[0], rows[1:]


# ============================================================
# Golden outputs
# ============================================================

def matches_goldens(cases, view):
    """A test of each golden among cases: its call exits 0, and the view of
    what it prints is the view of the golden."""
    @pytest.mark.parametrize("name", sorted(cases))
    def test(name):
        code, text = run_cli(cases[name])
        assert code == 0
        assert view(text) == view((GOLDEN_DIR / name).read_text(encoding="utf-8"))
    return test


def test_every_command_has_json_and_csv_goldens():
    assert make_goldens.uncovered() == []


test_csv_outputs_match_goldens_byte_for_byte = matches_goldens(CSV_CASES, str)
# Parsed, so 1 and 1.0 are alike: NaN and Infinity refused, wall_time_ms a float.
test_json_outputs_match_goldens_up_to_timing = matches_goldens(JSON_CASES, normalize_json)
# Every byte apart from the wall_time_ms value, which is there to be masked.
test_json_outputs_match_goldens_byte_for_byte = matches_goldens(
    JSON_CASES, lambda text: (mask_timing(text), mask_timing(text) != text))


def test_golden_check_reports_drift_and_writes_nothing(tmp_path, monkeypatch, capsys):
    for name in CASES:
        (tmp_path / name).write_bytes((GOLDEN_DIR / name).read_bytes())
    drifted = tmp_path / "force_grid.json"
    stale = drifted.read_text(encoding="utf-8").replace(
        '"force_constant": 16.0', '"force_constant": 16')
    drifted.write_text(stale, encoding="utf-8")
    monkeypatch.setattr(make_goldens, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_goldens.py", "--check"])
    assert make_goldens.main() == 1
    assert "golden/force_grid.json drifted" in capsys.readouterr().out
    assert drifted.read_text(encoding="utf-8") == stale
    drifted.write_bytes((GOLDEN_DIR / "force_grid.json").read_bytes())
    assert make_goldens.main() == 0


def test_golden_check_refuses_nonfinite_json(monkeypatch, capsys):
    with pytest.raises(ValueError, match="Infinity is not a JSON number"):
        strict_json('{"ratio": Infinity}')
    with pytest.raises(ValueError, match="NaN is not a JSON number"):
        strict_json('[1.0, NaN]')
    monkeypatch.setattr(make_goldens, "emit",
                        lambda argv: (GOLDEN_DIR / "force_grid.json").read_text(
                            encoding="utf-8").replace("16.0", "NaN"))
    monkeypatch.setattr(sys, "argv", ["make_goldens.py", "--check"])
    with pytest.raises(RuntimeError, match="NaN is not a JSON number"):
        make_goldens.main()


@pytest.mark.parametrize("name", sorted(CASES))
def test_repeated_runs_are_identical(name):
    code1, text1 = run_cli(CASES[name])
    code2, text2 = run_cli(CASES[name])
    assert code1 == code2 == 0
    if name.endswith(".json"):
        assert normalize_json(text1) == normalize_json(text2)
    else:
        assert text1 == text2


# ============================================================
# Output structure
# ============================================================

def test_order_effect_joint_rows_form_distribution():
    code, text = run_cli(["order-effect", "--theta", "0.9", "--phi", "0.3",
                          "--output", "csv"])
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["kind", "order", "label", "value"]
    joint = [float(row[3]) for row in rows if row[0] == "joint"]
    assert len(joint) == 4
    assert all(0.0 <= p <= 1.0 for p in joint)
    assert abs(sum(joint) - 1.0) <= 1e-9


def test_json_record_shape():
    code, text = run_cli(["reversal", "--x1", "1.0", "--x2", "4.0"])
    assert code == 0
    record = json.loads(text)
    assert set(record) == {"command", "config", "version", "seed",
                           "wall_time_ms", "results"}
    assert record["command"] == "reversal"
    assert record["config"]["model"] == "reversal"
    assert record["config"]["parameters"] == {"x1": 1.0, "x2": 4.0}
    assert record["config"]["output"] == "json"
    assert record["seed"] is None
    assert record["results"]["switches"] is True
    assert record["results"]["ratio"] == 4.0


def test_force_grid_crosses_zero_at_mean():
    """On a grid centred at the mean price, force vanishes exactly there
    and falls linearly with slope -k in log-price."""
    code, text = run_cli(["force", "--mean-price", "1.0", "--sigma", "0.5",
                          "--gamma", "2.0", "--grid", "0.5:2.0:9",
                          "--output", "csv"])
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["x", "price", "density", "force"]
    x = [float(row[0]) for row in rows]
    force = [float(row[3]) for row in rows]
    mid = len(rows) // 2
    assert x[mid] == 0.0
    assert force[mid] == 0.0
    k = 2.0 / 0.25
    for xi, fi in zip(x, force):
        assert fi == pytest.approx(-k * xi, rel=1e-9, abs=1e-12)


def test_joint_grid_peaks_at_joint_mean():
    code, text = run_cli(["joint", "--buyer-mean-price", "1.05",
                          "--buyer-sigma", "0.1",
                          "--seller-mean-price", "0.95", "--seller-sigma", "0.1",
                          "--gamma", "1.0", "--grid", "0.8:1.25:501",
                          "--output", "csv"])
    assert code == 0
    header, rows = parse_csv(text)
    assert header == ["x", "price", "buyer_density", "seller_density",
                      "joint_density", "buyer_force", "seller_force",
                      "joint_force"]
    x = [float(row[0]) for row in rows]
    joint_density = [float(row[4]) for row in rows]
    peak = x[max(range(len(x)), key=joint_density.__getitem__)]
    mu_joint = 0.5 * (math.log(1.05) + math.log(0.95))
    step = x[1] - x[0]
    assert abs(peak - mu_joint) <= step


def test_joint_grid_force_is_sum_of_sides():
    code, text = run_cli(["joint", "--buyer-mean-price", "1.1",
                          "--buyer-sigma", "0.2",
                          "--seller-mean-price", "0.9", "--seller-sigma", "0.15",
                          "--gamma", "0.7", "--grid", "0.85:1.2:7",
                          "--output", "csv"])
    assert code == 0
    _, rows = parse_csv(text)
    for row in rows:
        buyer_f, seller_f, joint_f = float(row[5]), float(row[6]), float(row[7])
        assert joint_f == pytest.approx(buyer_f + seller_f, rel=1e-9, abs=1e-9)


def test_degrees_flag_matches_radians():
    _, radians_text = run_cli(["interference", "--theta", str(math.pi / 6),
                               "--phi", str(math.pi / 4), "--output", "csv"])
    _, degrees_text = run_cli(["interference", "--theta", "30", "--phi", "45",
                               "--degrees", "--output", "csv"])
    rad_rows = dict(row for row in parse_csv(radians_text)[1])
    deg_rows = dict(row for row in parse_csv(degrees_text)[1])
    for key in ("b_yes_unmeasured", "b_yes_measured", "interference",
                "order_effect_magnitude"):
        assert float(deg_rows[key]) == pytest.approx(float(rad_rows[key]),
                                                     abs=1e-12)


def test_sample_fixed_price_is_constant():
    code, text = run_cli(["sample", "--trials", "4",
                          "--buyer-mean-price", "1.0", "--buyer-sigma", "0.1",
                          "--seller-fixed-price", "1.25", "--seed", "0",
                          "--output", "csv"])
    assert code == 0
    _, rows = parse_csv(text)
    assert [row[2] for row in rows] == ["1.25"] * 4


def test_buyer_fixed_price_is_the_buyer_point_mass():
    """A fixed buyer price pins the buyer side; the seller's curve is the
    flexible one, read at the fixed log-price."""
    price, pair = 1.2, ["--buyer-fixed-price", "1.2", "--seller-mean-price", "1.1",
                        "--seller-sigma", "0.2"]
    code, text = run_cli(["joint", *pair])
    assert code == 0
    results = strict_json(text)["results"]
    x = float(format(math.log(price), ".12g"))
    assert results["buyer"] == results["joint"] == {"kind": "point_mass", "x": x,
                                                    "price": price}
    assert results["seller"]["kind"] == "gaussian"
    seller = propensity.GaussianCurve(math.log(1.1), 0.2)
    assert results["scale"] == float(format(propensity.density(seller, math.log(price)),
                                            ".12g"))
    code, text = run_cli(["sample", "--trials", "3", *pair, "--seed", "0"])
    assert code == 0
    assert strict_json(text)["results"]["log_prices"] == [x] * 3


@pytest.mark.parametrize("scale, gamma", [
    ([], 0.5),
    (["--gamma", "0.7"], 0.7),
    (["--omega", "3"], 1.5),
    (["--hbar", "0.5"], 0.25),
    (["--omega", "3", "--hbar", "0.5"], 0.75),
], ids=["none", "gamma", "omega", "hbar", "omega and hbar"])
@pytest.mark.parametrize("argv", [
    ["force", "--mean-price", "1", "--sigma", "0.25", "--price", "1.2"],
    ["work", "--mean-price", "1", "--sigma", "0.25", "--price1", "1.2", "--price2", "1"],
    ["joint", "--buyer-mean-price", "1", "--buyer-sigma", "0.1", "--seller-mean-price", "1.1",
     "--seller-sigma", "0.2", "--grid", "0.9:1.2:3"],
], ids=["force", "work", "joint grid"])
def test_printed_gamma_is_the_given_or_the_oscillator_scale(argv, scale, gamma):
    """gamma as given, or hbar * omega / 2 with 1 for each factor not given."""
    code, text = run_cli([*argv, *scale])
    assert code == 0
    assert strict_json(text)["results"]["gamma"] == gamma


def test_sample_csv_and_json_prices_agree():
    # Seed 573 draws a log-price at row 304 whose price math.exp and np.exp
    # round differently at 12 digits; both formats now print the np.exp one.
    argv = ["sample", "--trials", "400", "--buyer-mean-price", "1.05",
            "--buyer-sigma", "0.1", "--seller-mean-price", "0.95",
            "--seller-sigma", "0.1", "--seed", "573"]
    code_json, text_json = run_cli(argv + ["--output", "json"])
    code_csv, text_csv = run_cli(argv + ["--output", "csv"])
    assert code_json == code_csv == 0
    results = json.loads(text_json)["results"]
    header, rows = parse_csv(text_csv)
    assert header == ["index", "x", "price"]
    assert [int(row[0]) for row in rows] == list(range(400))
    assert [float(row[1]) for row in rows] == results["log_prices"]
    assert [float(row[2]) for row in rows] == results["prices"]


def test_oscillator_json_results():
    code, text = run_cli(["oscillator", "--sigma", "1.0"])
    assert code == 0
    results = json.loads(text)["results"]
    assert results["mass"] == 0.5
    assert results["gamma"] == 0.5
    assert results["force_constant"] == 0.5


# ============================================================
# Seeds
# ============================================================

def test_seed_flag_reproduces_output():
    _, a = run_cli(["equivalence", "--trials", "3", "--seed", "11"])
    _, b = run_cli(["equivalence", "--trials", "3", "--seed", "11"])
    assert normalize_json(a) == normalize_json(b)


def test_env_seed_fallback(monkeypatch, capsys):
    monkeypatch.setenv("QPROP_SEED", "21")
    code, env_text = run_cli(["equivalence", "--trials", "3"])
    assert code == 0
    assert json.loads(env_text)["seed"] == 21
    monkeypatch.delenv("QPROP_SEED")
    _, flag_text = run_cli(["equivalence", "--trials", "3", "--seed", "21"])
    assert normalize_json(env_text) == normalize_json(flag_text)
    for env, message in (("-3", "seed must be a nonnegative integer"),
                         ("abc", "QPROP_SEED must be an integer, got 'abc'")):
        monkeypatch.setenv("QPROP_SEED", env)
        assert run_cli(["equivalence", "--trials", "3"]) == (2, "")
        assert capsys.readouterr().err == f"qprop: error: {message}\n"


def test_seed_flag_beats_env(monkeypatch):
    """QPROP_SEED is not read where --seed is given, not even to be refused."""
    for env in ("21", "abc"):
        monkeypatch.setenv("QPROP_SEED", env)
        code, text = run_cli(["equivalence", "--trials", "3", "--seed", "5"])
        assert code == 0
        assert json.loads(text)["seed"] == 5


# ============================================================
# Config files
# ============================================================

def write_config(tmp_path, text):
    path = tmp_path / "model.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_reversal_config(tmp_path):
    path = write_config(tmp_path, """\
[run]
model = reversal
output = csv

[reversal]
x1 = 1.0
x2 = 4.0
""")
    code, text = run_cli(["run", path])
    assert code == 0
    rows = dict(parse_csv(text)[1])
    assert rows["switches"] == "true"
    assert rows["ratio"] == "4"


# One valid call of each command, as flags; a seed for the stochastic ones.
DIRECT_CALLS = {
    "order-effect": ["--theta", "0.5236", "--phi", "-0.7854", "--order", "ba"],
    "interference": ["--theta", "0.5236", "--phi", "0.7854"],
    "equivalence": ["--trials", "6", "--tol", "1e-9", "--seed", "17"],
    "reversal": ["--x1", "1.5", "--x2", "6.0"],
    "force": ["--mean-price", "1.2", "--sigma", "0.3", "--omega", "2.0",
              "--grid", "0.5:2.0:7"],
    "oscillator": ["--sigma", "0.4", "--omega", "3.0"],
    "joint": ["--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
              "--seller-fixed-price", "0.97", "--gamma", "0.5"],
    "work": ["--mean-price", "1.0", "--sigma", "0.25", "--price1", "1.2",
             "--price2", "0.9", "--gamma", "1.5"],
    "sample": ["--trials", "7", "--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
               "--seller-mean-price", "0.95", "--seller-sigma", "0.2", "--seed", "5"],
}


# Config files that list keys unlike the command table: given keys with a
# default between them, and every key in reverse order.
UNORDERED_CALLS = {
    "oscillator-sigma-hbar": ("oscillator", ["--sigma", "0.4", "--hbar", "0.5"]),
    "work-reversed": ("work", ["--gamma", "1.5", "--price2", "0.9", "--price1", "1.2",
                               "--sigma", "0.25", "--mean-price", "1.0"]),
}


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("case", [*sorted(cli.COMMANDS), *UNORDERED_CALLS])
def test_run_matches_direct_invocation(tmp_path, case, output):
    model, flags = UNORDERED_CALLS.get(case) or (case, DIRECT_CALLS[case])
    keys = [flag[2:] + " = " + value for flag, value in zip(flags[::2], flags[1::2])]
    path = write_config(tmp_path, f"[run]\nmodel = {model}\noutput = {output}\n\n"
                                  f"[{model}]\n" + "\n".join(keys) + "\n")
    code, via_config = run_cli(["run", path])
    assert code == 0
    code, direct = run_cli([model, *flags, "--output", output])
    assert code == 0
    if output == "json":
        via_config, direct = mask_timing(via_config), mask_timing(direct)
    assert via_config == direct


def test_run_config_uses_dashed_keys(tmp_path, capsys):
    """Config keys mirror the dashed flag spelling; underscores are unknown."""
    text = ("[run]\nmodel = work\noutput = json\n\n[work]\n"
            "{} = 1.0\nsigma = 0.25\nprice1 = 1.2\nprice2 = 1.0\ngamma = 1.0\n")
    code, out = run_cli(["run", write_config(tmp_path, text.format("mean-price"))])
    assert code == 0
    assert json.loads(out)["results"]["delta_e"] == pytest.approx(0.265929200574, abs=1e-9)
    path = write_config(tmp_path, text.format("mean_price"))
    assert run_cli(["run", path]) == (2, "")
    assert capsys.readouterr().err == (
        f"qprop: error: {path}:6: unknown key 'mean_price' for model 'work'\n")


def test_run_stochastic_config_with_seed(tmp_path):
    path = write_config(tmp_path, """\
[run]
model = equivalence
output = json

[equivalence]
trials = 4
seed = 13
""")
    code1, text1 = run_cli(["run", path])
    code2, text2 = run_cli(["run", path])
    assert code1 == code2 == 0
    assert json.loads(text1)["seed"] == 13
    assert normalize_json(text1) == normalize_json(text2)


@pytest.mark.parametrize("model", sorted(cli.COMMANDS))
def test_seed_is_taken_by_the_stochastic_commands_alone(tmp_path, monkeypatch, capsys, model):
    """--seed and the config seed key are one parameter of equivalence and
    sample; the other commands refuse both as unknown. An integer key given
    a fraction is refused as not an integer."""
    monkeypatch.delenv("QPROP_SEED", raising=False)
    stochastic = model in ("equivalence", "sample")
    flags = dict(zip(DIRECT_CALLS[model][::2], DIRECT_CALLS[model][1::2]))
    flags.pop("--seed", None)
    argv = [part for item in flags.items() for part in item]

    code, text = run_cli([model, *argv, "--seed", "3"])
    err = capsys.readouterr().err
    if stochastic:
        assert (code, json.loads(text)["seed"]) == (0, 3)
    else:
        assert (code, text) == (2, "")
        assert err.endswith("error: unrecognized arguments: --seed 3\n")

    def run_config(**changes):
        keys = {**{flag[2:]: value for flag, value in flags.items()}, **changes}
        path = write_config(tmp_path, f"[run]\nmodel = {model}\n[{model}]\n"
                            + "".join(f"{key} = {value}\n" for key, value in keys.items()))
        code, text = run_cli(["run", path])
        return code, text, capsys.readouterr().err.replace(path, "CFG")

    code, text, err = run_config(seed=3)
    if stochastic:
        assert (code, json.loads(text)["seed"]) == (0, 3)
    else:
        assert (code, text) == (2, "")
        assert err == (f"qprop: error: CFG:{4 + len(flags)}: "
                       f"unknown key 'seed' for model {model!r}\n")
    if stochastic:
        assert run_config(seed=-1) == (2, "", "qprop: error: seed must be a nonnegative integer\n")

    code, _, err = run_config(trials="1.5")
    assert code == 2
    line = 4 if stochastic else 4 + len(flags)    # trials leads both stochastic calls
    assert err == f"qprop: error: CFG:{line}: " + (
        "trials must be an integer, got '1.5'\n" if stochastic
        else f"unknown key 'trials' for model {model!r}\n")


def test_run_out_writes_file(tmp_path):
    path = write_config(tmp_path, """\
[run]
model = oscillator
output = csv

[oscillator]
sigma = 0.25
omega = 2.0
""")
    out = tmp_path / "result.csv"
    code, text = run_cli(["run", path, "--out", str(out)])
    assert code == 0
    assert text == ""
    golden = (GOLDEN_DIR / "oscillator.csv").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == golden


# Values stay small where they size the work: at most 1000 trials or grid
# points. Each kind also draws extreme and malformed text.
NOISE = st.one_of(st.floats().map(repr), st.sampled_from(["", "1e400", "0x10"]),
                  st.text(max_size=6))
CONFIG_VALUES = {
    "float": st.floats(-4.0, 4.0).map(repr),
    "posfloat": st.floats(0.05, 3.0).map(repr),
    "int": st.integers(-1, 2**32).map(str),
    "posint": st.integers(-1, 1000).map(str),
    "choice": st.sampled_from(["ab", "ba", "xy"]),
    "grid": st.builds("{!r}:{!r}:{}".format, st.floats(-0.5, 2.0), st.floats(0.0, 4.0),
                      st.integers(-1, 1000)),
}


@st.composite
def config_texts(draw):
    """INI text near a valid config of a model: most keys present, some
    values extreme or malformed, now and then a section, key or line wrong."""
    model = draw(st.sampled_from([*cli.COMMANDS, "nosuch"]))
    command = cli.COMMANDS.get(model)
    specs = [spec for spec in command.params if spec.kind != "flag"] if command else []
    rare = st.integers(0, 19).map(lambda n: n == 0)
    lines = [] if draw(rare) else ["[run]", f"model = {model}"]
    if draw(st.booleans()):
        lines.append(f"output = {draw(st.sampled_from(['json', 'csv', 'xml']))}")
    lines.append(f"[{'extra' if draw(rare) else model}]")
    for spec in specs:
        if draw(st.integers(0, 3)):
            value = draw(NOISE if draw(rare) else CONFIG_VALUES[spec.kind])
            lines.append(f"{spec.config_key} = {value}")
    if draw(rare):
        lines.append(f"{draw(st.sampled_from(['spin', 'seed', 'mean-price']))} = 1")
    if draw(rare):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=config_texts(), encoding=st.sampled_from(["utf-8", "utf-16", "stray 0xff"]),
       at=st.integers(0, 10**6))
def test_config_fuzz_exits_cleanly(tmp_path, text, encoding, at):
    """Any config text ends in exit 0, 1 or 2 with qprop's own message, never
    an exception or a traceback. Text that is not UTF-8 (UTF-16, or a stray
    0xff byte at any place) cannot be read, which is a usage error."""
    data = text.encode("utf-16" if encoding == "utf-16" else "utf-8")
    if encoding == "stray 0xff":
        at %= len(data) + 1
        data = data[:at] + b"\xff" + data[at:]
    path = tmp_path / "model.cfg"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(["run", str(path)])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err == "" or err.startswith("qprop: ")
    if encoding != "utf-8":
        assert code == 2
        assert err.startswith("qprop: error: cannot read config: ") and err.count("\n") == 1


# ============================================================
# Usage errors: exit 2, nothing on stdout, one exact message
# ============================================================

def exits_2(*calls, config=None, ids=None, in_a_process=False):
    """A test that each call, (argv, message), exits 2 with an empty stdout
    and exactly message on stderr: argparse's usage and error lines as they
    are, else the one line "qprop: error: MESSAGE". TMP in argv and message
    stands for the test's directory, which holds config as model.cfg where
    one is given and gets no other file. Usage is wrapped at 80 columns, and
    QPROP_SEED is unset. Calls run in process, or with in_a_process as
    ``python -W default -m qprop``; with ids, each call is a case of its
    own."""
    def check(tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("QPROP_SEED", raising=False)
        if config is not None:
            write_config(tmp_path, config)
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        stderr = message if message.startswith("usage: ") else f"qprop: error: {message}\n"
        stderr = stderr.replace("TMP", str(tmp_path))
        if in_a_process:
            proc = subprocess.run([sys.executable, "-W", "default", "-m", "qprop", *argv],
                                  capture_output=True, text=True)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", stderr)
        else:
            assert run_cli(argv) == (2, "")
            assert capsys.readouterr().err == stderr
        files = [path.name for path in tmp_path.iterdir()]
        assert files == (["model.cfg"] if config is not None else [])

    if ids is not None:
        return pytest.mark.parametrize("argv, message", calls, ids=ids)(check)

    def test(tmp_path, monkeypatch, capsys):
        for argv, message in calls:
            check(tmp_path, monkeypatch, capsys, argv, message)
    return test


FORCE_AT_MEAN = ["force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0"]
OSCILLATOR_CONFIG = "[run]\nmodel = oscillator\noutput = csv\n\n[oscillator]\nsigma = 0.25\n"

test_missing_required_flag_exits_2 = exits_2((
    ["order-effect", "--theta", "0.5"],
    "usage: qprop order-effect [-h] --theta THETA --phi PHI [--order {ab,ba}]\n"
    "                          [--degrees] [--output {json,csv}]\n"
    "qprop order-effect: error: the following arguments are required: --phi\n"))
test_unknown_command_exits_2 = exits_2((
    ["entangle-everything"],
    "usage: qprop [-h] [--version] COMMAND ...\nqprop: error: argument COMMAND: invalid choice: "
    f"'entangle-everything' (choose from {', '.join(map(repr, [*cli.COMMANDS, 'run']))})\n"))
# argparse stores --flag=-- as an empty list; it is refused as a missing
# value, not passed on to the model.
test_flag_given_double_dash_exits_2 = exits_2(
    (["order-effect", "--theta", "1", "--phi=--"], "argument --phi: expected one argument"),
    (["reversal", "--x1", "1", "--x2=--"], "argument --x2: expected one argument"),
    (["equivalence", "--trials=--", "--seed", "1"], "argument --trials: expected one argument"),
    (["sample", "--trials", "3", "--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
      "--seller-mean-price", "0.95", "--seller-sigma", "0.1", "--seed=--"],
     "argument --seed: expected one argument"),
    ids=["order-effect", "reversal", "equivalence", "sample"])
SAMPLE_PAIR = ["sample", "--trials", "2", "--buyer-mean-price", "1.0", "--buyer-sigma", "0.1",
               "--seller-mean-price", "1.0", "--seller-sigma", "0.1"]
test_missing_seed_for_stochastic_model = exits_2(
    (SAMPLE_PAIR, "model 'sample' is stochastic; pass --seed or set QPROP_SEED"),
    ([*SAMPLE_PAIR, "--seed", "-1"], "seed must be a nonnegative integer"))
test_nonpositive_cost_exits_2 = exits_2(
    (["reversal", "--x1", "0.0", "--x2", "1.0"], "x1 must be positive"))
test_module_entry_point_error_path = exits_2(
    (["reversal", "--x1", "-1", "--x2", "2"], "x1 must be positive"), in_a_process=True)
test_single_point_grid_exits_2 = exits_2(
    ([*FORCE_AT_MEAN, "--grid", "0.5:2.0:1", "--output", "csv"], "grid needs at least 2 points"))
test_malformed_grid_exits_2 = exits_2(
    ([*FORCE_AT_MEAN, "--grid", "2.0:0.5:9", "--output", "csv"], "grid needs 0 < LO < HI"))
test_force_needs_price_or_grid = exits_2(
    (FORCE_AT_MEAN, "pass exactly one of price or grid"),
    ([*FORCE_AT_MEAN, "--price", "1.1", "--grid", "0.5:2.0:5"],
     "pass exactly one of price or grid"))
test_gamma_and_omega_are_exclusive = exits_2((
    ["work", "--mean-price", "1.0", "--sigma", "0.25", "--price1", "1.2", "--price2", "1.0",
     "--gamma", "1.0", "--omega", "2.0"], "pass either gamma or omega/hbar, not both"))
test_both_sides_fixed_exits_2 = exits_2((
    ["joint", "--buyer-fixed-price", "1.0", "--seller-fixed-price", "1.1", "--gamma", "1.0"],
    "at most one side can fix its price"))
test_fixed_price_excludes_same_side_curve = exits_2((
    ["joint", "--buyer-mean-price", "1.0", "--buyer-sigma", "0.1", "--seller-fixed-price", "1.1",
     "--seller-sigma", "0.2", "--gamma", "1.0"],
    "seller-fixed-price excludes the seller curve parameters"))
# Refused by the usage rule, before a point mass reaches the model.
test_point_mass_joint_grid_exits_2 = exits_2(*(
    (["joint", f"--{curve}-mean-price", "1.0", f"--{curve}-sigma", "0.1",
      f"--{fixed}-fixed-price", "1.1", "--gamma", "1.0", "--grid", "0.9:1.2:5", "--output", "csv"],
     "curve output needs two Gaussian curves, not a fixed price")
    for fixed, curve in (("seller", "buyer"), ("buyer", "seller"))))
# The overflow of z * z in a far tail is expected, and numpy's warning about
# it must not reach stderr ahead of the usage error.
test_far_tail_density_prints_only_the_error_line = exits_2((
    ["force", "--mean-price", "1", "--sigma", "1e-160", "--gamma", "1e-300", "--grid", "0.5:2.0:3"],
    "density underflow: the point lies too far from the curve to carry meaning"),
    in_a_process=True)
test_run_missing_config_file = exits_2((
    ["run", "/nonexistent/model.cfg"],
    "cannot read config: [Errno 2] No such file or directory: '/nonexistent/model.cfg'"))
test_run_unknown_key_is_fatal = exits_2(
    (["run", "TMP/model.cfg"], "TMP/model.cfg:8: unknown key 'temperature' for model 'reversal'"),
    config="[run]\nmodel = reversal\noutput = csv\n\n[reversal]\nx1 = 1.0\nx2 = 4.0\n"
           "temperature = 300\n")
test_run_unknown_section_is_fatal = exits_2(
    (["run", "TMP/model.cfg"], "TMP/model.cfg: unexpected section(s): extras"),
    config="[run]\nmodel = reversal\n\n[reversal]\nx1 = 1.0\nx2 = 4.0\n\n[extras]\nverbose = yes\n")
# An empty --out is a path that cannot be opened, not a request for stdout.
test_run_empty_out_exits_2 = exits_2(
    (["run", "TMP/model.cfg", "--out="],
     "cannot write output: [Errno 2] No such file or directory: ''"),
    config=OSCILLATOR_CONFIG)
test_run_out_to_missing_directory_exits_2 = exits_2(
    (["run", "TMP/model.cfg", "--out", "TMP/missing/result.csv"],
     "cannot write output: [Errno 2] No such file or directory: 'TMP/missing/result.csv'"),
    config=OSCILLATOR_CONFIG)


@pytest.mark.parametrize("tol", ["0", "-0.0", "-1e-9", "5e-324"])
def test_tolerance_must_be_positive(tmp_path, capsys, tol):
    """A tolerance of zero or less is a usage error, by flag and by config;
    the smallest positive one runs the sweep, which fails through its
    message, after writing its record."""
    path = write_config(tmp_path, f"[run]\nmodel = equivalence\noutput = csv\n\n"
                        f"[equivalence]\ntrials = 2\ntol = {tol}\nseed = 1\n")
    for argv in (["equivalence", "--trials", "2", "--tol", tol, "--seed", "1",
                  "--output", "csv"], ["run", path]):
        code, text = run_cli(argv)
        err = capsys.readouterr().err
        if float(tol) > 0:
            assert code == 1
            assert text.splitlines()[1].startswith("2,4.94065645841e-324,")
            assert err.startswith("qprop: 2 of 2 gate pairs deviated beyond 4.94066e-324 ")
        else:
            assert (code, text, err) == (2, "", "qprop: error: tol must be positive\n")


RANGE = "parameters out of floating-point range: "

# A quantity beyond the float range is named in the one error line.
test_values_beyond_float_range_exit_2 = exits_2(
    (["force", "--mean-price", "1", "--sigma", "1e200", "--gamma", "1", "--price", "2"],
     RANGE + "force_constant does not fit in a float"),
    (["oscillator", "--sigma", "1e-200"], RANGE + "mass does not fit in a float"),
    (["oscillator", "--sigma", "1e200"], RANGE + "mass does not fit in a float"),
    (["joint", "--buyer-mean-price", "1", "--buyer-sigma", "1e200", "--seller-mean-price",
      "1.1", "--seller-sigma", "0.1", "--gamma", "1", "--grid", "0.5:2:3"],
     RANGE + "force_constant does not fit in a float"),
    (["work", "--mean-price", "1", "--sigma", "5.84e-18", "--price1", "1.0000000000000002",
      "--price2", "1", "--gamma", "1"], RANGE + "density_ratio does not fit in a float"),
    # A quantity that comes out inf or 0 without raising is named the same
    # way as one whose computation raises.
    (["force", "--mean-price", "1", "--sigma", "1e-150", "--price", "1", "--gamma", "1e300"],
     RANGE + "force_constant does not fit in a float"),
    (["force", "--mean-price", "1", "--sigma", "1e-160", "--gamma", "1", "--price", "1"],
     RANGE + "force_constant does not fit in a float"),
    (["oscillator", "--sigma", "1e-160"], RANGE + "mass does not fit in a float"),
    (["oscillator", "--sigma", "1", "--omega", "1e300", "--hbar", "1e300"],
     RANGE + "gamma does not fit in a float"),
    (["oscillator", "--sigma", "1", "--omega", "1e-300", "--hbar", "1e-300"],
     RANGE + "gamma does not fit in a float"),
    (["force", "--mean-price", "1", "--sigma", "1", "--price", "1",
      "--omega", "1e300", "--hbar", "1e300"], RANGE + "gamma does not fit in a float"),
    (["force", "--mean-price", "1", "--sigma", "1", "--price", "1",
      "--omega", "1e-300", "--hbar", "1e-300"], RANGE + "gamma does not fit in a float"),
    (["interference", "--theta", "1e308", "--phi", "-1e308"],
     RANGE + "theta - phi does not fit in a float"),
    (["order-effect", "--theta", "1e308", "--phi", "-1e308", "--order", "ba"],
     RANGE + "theta - phi does not fit in a float"),
    # The grid route names the same fault as the --price route above.
    (["force", "--mean-price", "1.8", "--sigma", "1e-160", "--grid", "1:2:3", "--gamma", "1"],
     RANGE + "force_constant does not fit in a float"),
    # A draw above log(max float) has no price: math.exp raises, and the
    # price becomes inf for the scan to name.
    (["sample", "--trials", "50", "--buyer-mean-price", "1e308", "--buyer-sigma", "1",
      "--seller-mean-price", "1e308", "--seller-sigma", "1", "--seed", "1"],
     RANGE + "prices does not fit in a float"),
    # A grid of 4 spans whose buyer density underflows from row 15,215 on, in
    # the child's last span, and whose seller force constant overflows: the
    # serial route meets the buyer's fault first, as the split call reports.
    (["joint", "--buyer-mean-price", "1", "--buyer-sigma", "1", "--seller-mean-price",
      "3269017.37", "--seller-sigma", "0.5", "--gamma", "1e308",
      "--grid", "1:2.3538526683702e17:16385"],
     "density underflow: the point lies too far from the curve to carry meaning"),
    in_a_process=True,
    ids=["force", "oscillator-narrow", "oscillator-wide", "joint-grid", "work", "force-huge-k",
         "force-subnormal-square", "oscillator-subnormal-square", "oscillator-gamma-inf",
         "oscillator-gamma-0", "force-gamma-inf", "force-gamma-0", "interference-angle-gap",
         "order-effect-angle-gap", "force-grid-subnormal-square", "sample-price-overflow",
         "joint-split-grid-two-faults"])


@pytest.mark.parametrize("sigma", ["1e-160", "5e-324"])
def test_joint_of_tiny_widths_runs(sigma):
    """Precisions 1/sigma^2 overflow here, the weights of the joint do not."""
    code, text = run_cli(["joint", "--buyer-mean-price", "1", "--buyer-sigma", sigma,
                          "--seller-mean-price", "1.1", "--seller-sigma", sigma])
    assert code == 0
    joint = normalize_json(text)["results"]["joint"]
    assert joint["kind"] == "gaussian"
    assert joint["mu"] == pytest.approx(0.5 * math.log(1.1), rel=1e-11)
    assert 0.0 < joint["sigma"] <= float(sigma)


FAR_PAIR = ["--buyer-mean-price", "1", "--buyer-sigma", "0.01",
            "--seller-mean-price", "100", "--seller-sigma", "0.01"]


@pytest.mark.parametrize("argv", [["joint", *FAR_PAIR, "--output", "csv"],
                                  ["sample", "--trials", "3", *FAR_PAIR, "--seed", "1"]])
def test_an_overlap_that_underflows_prints_its_log(argv):
    """Curves at prices 1 and 100 of width 0.01 overlap by about
    exp(-53016): scale prints 0 and log_scale beside it is the closed form
    -(ln 100 / h)^2 / 2 - ln(h sqrt(2 pi)), h = hypot(0.01, 0.01)."""
    code, text = run_cli(argv)
    results = (dict(line.split(",") for line in text.splitlines()[1:]) if argv[-1] == "csv"
               else normalize_json(text)["results"])
    h = math.hypot(0.01, 0.01)
    expected = -0.5 * (math.log(100.0) / h) ** 2 - math.log(h * math.sqrt(2.0 * math.pi))
    assert code == 0 and float(results["scale"]) == 0.0
    assert float(results["log_scale"]) == pytest.approx(expected, rel=1e-11)


def test_an_overlap_whose_log_is_beyond_the_float_range_prints_the_lowest_float():
    """Widths of 1e-160 put the overlap's log near -2e317: log_scale prints
    the lowest float, the bound it lies beyond."""
    code, text = run_cli(["joint", "--buyer-mean-price", "1", "--buyer-sigma", "1e-160",
                          "--seller-mean-price", "1.1", "--seller-sigma", "1e-160"])
    results = normalize_json(text)["results"]
    assert (code, results["scale"]) == (0, 0.0)
    assert results["log_scale"] == float("%.12g" % -sys.float_info.max)


@pytest.mark.parametrize("value", ["-1e3", "-1e-300", "-.5", "-2.5", "-1E+2"])
def test_negative_values_parse_as_separate_arguments(value):
    """A negative number, exponent form included, is a value and not an
    option, spelled as its own argument or after an equals sign."""
    argv = ["order-effect", "--theta", "1", "--output", "csv"]
    spaced = run_cli([*argv, "--phi", value])
    joined = run_cli([*argv, f"--phi={value}"])
    assert spaced == joined
    assert spaced[0] == 0


def test_caps_admit_their_own_size():
    assert cli._grid_bounds(f"0.5:2.0:{MAX_ROWS}") == (0.5, 2.0, MAX_ROWS)
    for model, params in (("sample", {}), ("equivalence", {"tol": 1e-12})):
        cli._validate_params(model, {**params, "trials": MAX_ROWS})
        with pytest.raises(cli.UsageError, match="trials must be at most"):
            cli._validate_params(model, {**params, "trials": MAX_ROWS + 1})


# ============================================================
# End-to-end through the installed entry point
# ============================================================

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qprop", "reversal", "--x1", "1.0",
         "--x2", "4.0", "--output", "csv"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rows = dict(parse_csv(proc.stdout)[1])
    assert rows["switches"] == "true"


# A result that leaves the float range is refused, not printed as NaN or
# Infinity, and no numpy warning reaches stderr ahead of the error.
test_nonfinite_results_exit_2_with_one_line = exits_2(
    (["reversal", "--x1", "1e-320", "--x2", "1e308"], RANGE + "ratio does not fit in a float"),
    (["force", "--mean-price", "1", "--sigma", "10", "--price", "1e130", "--gamma", "1e308"],
     RANGE + "force does not fit in a float"),
    (["sample", "--trials", "2000", "--buyer-mean-price", "1", "--buyer-sigma", "1000",
      "--seller-mean-price", "1", "--seller-sigma", "1000", "--seed", "1"],
     RANGE + "prices does not fit in a float"),
    in_a_process=True, ids=["argv0-ratio", "argv1-force", "argv2-prices"])


# Magnitudes log-uniform over the float range; angles of either sign. Sizes
# stay small: at most 16 grid points, 20 gate pairs or 50 draws.
MAGNITUDES = st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
ANGLES = st.builds(lambda sign, size: sign * size, st.sampled_from([1.0, -1.0]), MAGNITUDES)


@st.composite
def whole_range_calls(draw, model):
    """Argv of one call of model, every number drawn over the whole range."""
    def values(*names, strategy=MAGNITUDES):
        return [part for name in names for part in (f"--{name}", repr(draw(strategy)))]

    def some(*choices):
        return values(*draw(st.sampled_from(choices)))

    def grid():
        lo, hi = sorted(draw(st.lists(MAGNITUDES, min_size=2, max_size=2)))
        return ["--grid", f"{lo!r}:{hi!r}:{draw(st.integers(2, 16))}"]

    def seed():
        return ["--seed", str(draw(st.integers(0, 2**32)))]

    angles = values("theta", "phi", strategy=ANGLES) + draw(st.sampled_from([[], ["--degrees"]]))
    scale = some((), ("gamma",), ("omega",), ("hbar",), ("omega", "hbar"))
    curve, other = draw(st.permutations(["buyer", "seller"]))
    pair = values(f"{curve}-mean-price", f"{curve}-sigma") + some(
        (f"{other}-mean-price", f"{other}-sigma"), (f"{other}-fixed-price",))
    argv = {
        "order-effect": lambda: angles + ["--order", draw(st.sampled_from(["ab", "ba"]))],
        "interference": lambda: angles,
        "equivalence": lambda: ["--trials", str(draw(st.integers(1, 20))), *values("tol"),
                                *seed()],
        "reversal": lambda: values("x1", "x2"),
        "force": lambda: values("mean-price", "sigma") + scale
        + (grid() if draw(st.booleans()) else values("price")),
        "oscillator": lambda: values("sigma") + some((), ("omega",), ("hbar",), ("omega", "hbar")),
        "joint": lambda: pair + (scale + grid() if draw(st.booleans()) else []),
        "work": lambda: values("mean-price", "sigma", "price1", "price2") + scale,
        "sample": lambda: ["--trials", str(draw(st.integers(1, 50))), *pair, *seed()],
    }[model]()
    return [model, *argv, "--output", draw(st.sampled_from(["json", "csv"]))]


def closed_form_marginals(theta, phi):
    """A yes, A no, B yes and B no asking A first, then asking B first."""
    ct, st = math.cos(theta) ** 2, math.sin(theta) ** 2
    cp, sp = math.cos(phi) ** 2, math.sin(phi) ** 2
    cd, sd = math.cos(theta - phi) ** 2, math.sin(theta - phi) ** 2
    return (ct, st, ct * cp + st * sp, ct * sp + st * cp,
            cd * cp + sd * sp, cd * sp + sd * cp, cd, sd)


@pytest.mark.parametrize("model", sorted(cli.COMMANDS))
def test_whole_float_range_keeps_the_exit_contract(model):
    """Over the whole float range every call exits 0, 1 or 2 without a
    traceback, a failure prints one qprop line and never a bare math or
    errno message, JSON output is strict, and the results meet their
    closed forms: the eight order-effect marginals to 1e-12."""
    run, captured = cli.COMMANDS[model].run, {}

    def capture(params):
        result = run(params)
        captured["results"] = result.results
        return result

    @settings(max_examples=20, deadline=None, database=None)
    @given(argv=whole_range_calls(model))
    def check(argv):
        captured.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
            if argv[-1] == "json":
                strict_json(out)
        else:
            assert err.startswith("qprop: ") and err.count("\n") == 1 and err.endswith("\n")
            assert "math domain error" not in err and "math range error" not in err
            assert re.search(r"\(\d+, '", err) is None, err       # a raw errno tuple
        results = captured.get("results")
        if code == 0 and model == "order-effect":
            assert abs(math.fsum(results["joint"].values()) - 1.0) <= 1e-12
            marginals = [value for order in results["marginals"].values()
                         for value in order.values()]
            expected = closed_form_marginals(results["theta"], results["phi"])
            assert max(abs(g - e) for g, e in zip(marginals, expected)) <= 1e-12
        if code == 0 and model == "force" and "force" in results:
            expected = -results["force_constant"] * (results["x"] - results["mu"])
            assert math.isclose(results["force"], expected, rel_tol=1e-12)
        if code == 0 and model in ("force", "oscillator"):
            # Quantities derived from positive inputs are never printed as 0.
            assert min(results[key] for key in ("gamma", "force_constant")) > 0.0
        if code == 0 and model == "work":
            # delta_e = gamma (z1^2 - z2^2) / 2, to rounding on the scale of
            # its terms and of the ln sigma they cancel.
            gamma, mu, sigma = results["gamma"], results["mu"], results["sigma"]
            z1, z2 = ((results[x] - mu) / sigma for x in ("x1", "x2"))
            size = gamma * (z1 * z1 + z2 * z2 + abs(math.log(sigma)) + 1.0)
            if math.isfinite(size):
                expected = gamma * (z1 * z1 - z2 * z2) / 2.0
                assert abs(results["delta_e"] - expected) <= 1e-12 * size
        if code == 0 and model in ("joint", "sample"):
            # An overlap mass that underflows to 0 still has a finite log, and
            # where the mass is a normal float its log is log_scale, to
            # rounding on the scale of the log's terms.
            scale, log_scale = results["scale"], results["log_scale"]
            assert math.isfinite(log_scale)
            if scale >= sys.float_info.min:
                assert abs(log_scale - math.log(scale)) <= 1e-12 * max(1.0, abs(log_scale))
        if code == 0 and model == "joint" and results["joint"]["kind"] == "gaussian":
            # The joint mean lies between the two means and the precisions
            # add, where each is a normal float: 1/sigma^2 = 1/s_b^2 + 1/s_s^2.
            curves = [results[side] for side in ("buyer", "seller", "joint")]
            means = sorted(curve["mu"] for curve in curves[:2])
            assert means[0] <= curves[2]["mu"] <= means[1]
            p_b, p_s, p_joint = (1.0 / curve["sigma"] / curve["sigma"] for curve in curves)
            if all(sys.float_info.min <= p < math.inf for p in (p_b, p_s, p_joint, p_b + p_s)):
                assert math.isclose(p_joint, p_b + p_s, rel_tol=1e-12)

    command = cli.COMMANDS[model]
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(cli.COMMANDS, model,
                      cli.Command(command.help, command.params, capture, command.modules))
        check()


@pytest.mark.parametrize("output", ["json", "csv"])
def test_failed_sweep_writes_its_record_and_exits_1(output, capsys):
    """A sweep that finds deviations still writes its whole record; the one
    stderr line that follows it sets the exit status to 1."""
    code, text = run_cli(["equivalence", "--trials", "20", "--seed", "7",
                          "--tol", "1e-300", "--output", output])
    assert code == 1
    if output == "json":
        results = normalize_json(text)["results"]
        assert results["all_passed"] is False and results["failures"] == 19
    else:
        assert text.splitlines()[1:] == ["20,1e-300,3.33066907388e-16,3.33066907388e-16,19,false"]
    assert capsys.readouterr().err == (
        "qprop: 19 of 20 gate pairs deviated beyond 1e-300 (max deviation 3.331e-16)\n")


def test_out_of_memory_exits_2(monkeypatch, capsys):
    def too_large(params):
        raise MemoryError()

    command = cli.COMMANDS["equivalence"]
    monkeypatch.setitem(cli.COMMANDS, "equivalence",
                        cli.Command(command.help, command.params, too_large, command.modules))
    code, text = run_cli(["equivalence", "--trials", "5", "--seed", "1"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == "qprop: error: not enough memory for this request\n"


def stdout_envs():
    """The environment twice, without PYTHONUNBUFFERED and with it set: a
    failed write to stdout exits 2 whether the child buffers stdout or not."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return [env, {**env, "PYTHONUNBUFFERED": "1"}]


# A sweep that writes its record and then reports a model failure: exit 1.
FAILED_SWEEP = ["equivalence", "--trials", "3", "--tol", "1e-300", "--seed", "1"]
# A grid above CHUNK_ROWS rows, formatted by two processes.
SPLIT_GRID = ["force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0",
              "--grid", "0.5:2.0:20000", "--output", "csv"]


def run_alone(argv, **kwargs):
    """(exit code, stdout, stderr) of argv run in a session of its own, after
    checking that no process of that session outlives the call."""
    with subprocess.Popen(argv, start_new_session=True, stderr=subprocess.PIPE, text=True,
                          **kwargs) as proc:
        out, err = proc.communicate(timeout=60)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, out, err


def test_version_flag():
    proc = subprocess.run([sys.executable, "-m", "qprop", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "qprop 0.1.0"


# ============================================================
# The process exit: streams flushed, then os._exit
# ============================================================

EXIT_CALLS = {
    "exit 0": ["oscillator", "--sigma", "0.3"],
    "exit 1": FAILED_SWEEP,
    "exit 2": ["reversal", "--x1", "-1", "--x2", "2"],
    "help": ["--help"],
    "version": ["--version"],
    "split grid": SPLIT_GRID,
}


@pytest.mark.parametrize("name", sorted(EXIT_CALLS))
def test_a_process_prints_what_main_returns_in_process(monkeypatch, capsys, name):
    """Exit code, stdout and stderr of ``python -m qprop`` through pipes, its
    stdout buffered, are those of cli.main called in process."""
    argv = EXIT_CALLS[name]
    monkeypatch.setenv("COLUMNS", "80")           # the width argparse wraps help at
    code = main(argv)
    out, err = capsys.readouterr()
    proc_code, proc_out, proc_err = run_alone([sys.executable, "-m", "qprop", *argv],
                                              stdout=subprocess.PIPE, env=stdout_envs()[0])
    assert (proc_code, mask_timing(proc_out), proc_err) == (code, mask_timing(out), err)
    assert code == {"exit 1": 1, "exit 2": 2}.get(name, 0)
    assert (out != "", err != "") == (code != 2, code != 0)


TEARDOWN = "import atexit, sys; atexit.register(lambda: print('teardown', file=sys.stderr)); "
PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
# What the console script that pip writes for pyproject's qprop entry runs.
SCRIPT = "from {0} import {1}; sys.exit({1}())".format(*re.search(
    r'^qprop = "([\w.]+):(\w+)"$', PYPROJECT.read_text(encoding="utf-8"), re.M).groups())
ENTRIES = {
    "python -m qprop": "import runpy; runpy.run_module('qprop', run_name='__main__')",
    "python -m qprop.cli": "import runpy; runpy.run_module('qprop.cli', run_name='__main__')",
    "qprop script": SCRIPT,
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_leaves_by_os_exit(entry):
    """No atexit hook runs: the process skips interpreter teardown."""
    for argv, code in ((EXIT_CALLS["version"], 0), (EXIT_CALLS["exit 2"], 2)):
        proc = subprocess.run([sys.executable, "-c", TEARDOWN + ENTRIES[entry], *argv],
                              capture_output=True, text=True)
        assert proc.returncode == code
        assert "teardown" not in proc.stderr
        assert (proc.stdout or proc.stderr).startswith("qprop")


# A run whose model is interrupted before it has written anything.
INTERRUPTED = """\
import sys
from qprop import cli
def interrupted(params):
    raise KeyboardInterrupt
command = cli.COMMANDS["oscillator"]
cli.COMMANDS["oscillator"] = cli.Command(command.help, command.params, interrupted,
                                         command.modules)
sys.argv[1:] = ["oscillator", "--sigma", "0.3"]
cli.run()
"""
# python -m qprop with Python's own SIGINT handler, which it installs only where
# SIGINT is not ignored, as it is for a background job of a shell.
WITH_INT_HANDLER = ("import signal; signal.signal(signal.SIGINT, signal.default_int_handler); "
                    + ENTRIES["python -m qprop"])


def test_an_interrupt_ends_a_process_with_one_line_and_sigint(monkeypatch):
    """main raises the interrupt to an in-process caller; run reports it and
    dies by SIGINT."""
    def interrupted(params):
        raise KeyboardInterrupt

    command = cli.COMMANDS["oscillator"]
    monkeypatch.setitem(cli.COMMANDS, "oscillator",
                        cli.Command(command.help, command.params, interrupted, command.modules))
    with pytest.raises(KeyboardInterrupt):
        main(["oscillator", "--sigma", "0.3"])
    code, out, err = run_alone([sys.executable, "-c", INTERRUPTED], stdout=subprocess.PIPE)
    assert (code, out, err) == (-signal.SIGINT, "", "qprop: interrupted\n")


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT to a process group")
def test_ctrl_c_during_a_split_write_leaves_no_process():
    """SIGINT to the call's process group once its output starts, while the
    forked formatter runs: one line, death by SIGINT, nothing left behind."""
    argv = [sys.executable, "-c", WITH_INT_HANDLER, *split_argv("force", 2_000_000, "csv")]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        assert proc.stdout.read(1) == b"x"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (-signal.SIGINT, b"qprop: interrupted\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


# ============================================================
# Column formatting against the per-value route
# ============================================================

@given(arrays(np.float64, st.integers(0, 30),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([-0.0, 0.0]))
@example(np.array([1.0, -3.0, 2.0e11, 123456789012.0, 999999999999.6]))
@example(np.array([1e12, -4.5e13, 1234567890123.4, 9.9999999999994e15, 1e15]))
@example(np.array([1e16, -1e16, 9.99999999999996e15, 1.5e300]))
@example(np.array([1e-5, -1e-4, 1.5e-35, 2.5e-300]))
@example(np.array([5e-324, -1e-310, 2.2250738585072014e-308, 2.225073858507e-308]))
@example(np.array([0.5, 1.2e-5, -0.25, -1.5e-7, 0.125, 3e20]))     # a few exponent cells
@example(np.array([0.5, 1.2e-5, -0.25, 3.0, 0.125]))               # and an integer cell
def test_column_formatter_matches_per_value_route(values):
    column = array("d", values)
    assert _csv_rows("%.12g\n", [column]) == "".join(_fmt(v) + "\n" for v in values)
    assert _json_numbers(column, ",") == ",".join(
        json.dumps(float(format(v + 0.0, ".12g"))) for v in values)


@given(st.integers(-2**64, 2**64), st.integers(1, 2**62), st.integers(0, 30))
@example(0, 1, 12)
@example(-2**63, 2**62, 4)
@example(2**64 - 1, 1, 1)
def test_integer_column_formatter_matches_per_value_route(start, step, n):
    index = range(start, start + n * step, step)
    assert _csv_rows("%d\n", [index]) == "".join(_fmt(v) + "\n" for v in index)


def test_column_formatter_spells_nonfinite_as_json_does():
    column = array("d", [math.nan, math.inf, -math.inf])
    assert _csv_rows("%.12g\n", [column]) == "nan\ninf\n-inf\n"
    assert _json_numbers(column, ",") == "NaN,Infinity,-Infinity"
    mixed = array("d", [0.5, math.nan, -1.5e-7, -math.inf, 0.25, 2.0, math.inf])
    assert _json_numbers(mixed, ",\n  ") == ",\n  ".join(
        ["0.5", "NaN", "-1.5e-07", "-Infinity", "0.25", "2.0", "Infinity"])
    assert _json_numbers(mixed[:-2], ",") == "0.5,NaN,-1.5e-07,-Infinity,0.25"


def test_float_column_finiteness_survives_an_overflowing_sum():
    """A column is finite when each value is, even where their sum is not."""
    assert cli._is_finite(array("d", [1e308, 1e308, -0.0]))
    assert not cli._is_finite(array("d", [1e308, 1e308, math.inf]))
    assert not cli._is_finite(array("d", [1.0, math.nan, 2.0]))


# Chunks that mix every kind of cell the one-template routes must settle:
# integer values, exponents of both signs, 1e12-1e16 (positional in JSON),
# subnormals, both zeros, nan and the infinities.
CHUNK_FLOATS = st.one_of(
    st.floats(-3.0, 3.0),
    st.integers(-2**53, 2**53).map(float),
    st.floats(1e-7, 1e-4), st.floats(-1e-4, -1e-7),
    st.floats(1e12, 1e16), st.floats(-1e16, -1e12),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16]),
    st.floats())


@settings(max_examples=75, deadline=None)
@given(st.lists(CHUNK_FLOATS, min_size=1, max_size=24), st.integers(1, 3),
       st.one_of(st.none(), st.integers(-2**63, 2**63)))
@example([0.5, 1.25, -3.0625], 1, None)
@example([-0.0, 2.0, 1e-5, 1e15], 2, 0)
@example([math.nan, math.inf, -math.inf, 5e-324], 1, 7)
@example([5e-324, 0.5, 2.5], 1, None)
def test_chunk_templates_match_per_cell_route(values, width, start):
    """The whole-chunk JSON test and the CSV row template give the text of
    the per-cell route, whether a chunk is accepted whole or fixed cell by
    cell; a CSV table may lead with an integer index column."""
    column = array("d", values)
    sep = ",\n      "
    assert _json_numbers(column, sep) == sep.join(
        json.dumps(float(format(v + 0.0, ".12g"))) for v in values)
    columns = [column[j::width] for j in range(width)]
    columns = [c[:len(columns[-1])] for c in columns]
    formats = ["%.12g"] * width
    if start is not None:
        columns.insert(0, range(start, start + len(columns[0])))
        formats.insert(0, "%d")
    assert _csv_rows(",".join(formats) + "\n", columns) == "".join(
        ",".join(map(_fmt, row)) + "\n" for row in zip(*columns))


# ============================================================
# Grid columns against the one-point route
# ============================================================

def ulps_above(value, count):
    for _ in range(count):
        value = math.nextafter(value, math.inf)
    return value


GRIDS = st.one_of(
    st.tuples(st.floats(0.01, 10.0), st.floats(1.001, 100.0), st.integers(2, 40)).map(
        lambda t: (t[0], t[0] * t[1], t[2])),
    st.tuples(st.floats(1e-300, 1e300), st.integers(1, 8), st.integers(2, 40)).map(
        lambda t: (t[0], ulps_above(t[0], t[1]), t[2])),
    st.tuples(st.floats(1e-300, 1e-10), st.floats(1e10, 1e300), st.integers(2, 40)))
UNIT = st.floats(0.0, 1.0)


def grid_curve(lo, hi, where, width):
    """A curve centred inside [log LO, log HI], wide enough that no grid
    point lies below the density floor."""
    start, stop = math.log(lo), math.log(hi)
    return (math.exp(start + where * (stop - start)),
            (stop - start + 1e-3) * (0.05 + 2.0 * width))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["force", "joint"]), GRIDS, UNIT, UNIT, UNIT, UNIT,
       st.floats(0.5, 2.0))
@example("force", (0.5, 2.0, 2), 0.5, 0.5, 0.5, 0.5, 1.0)
@example("force", (0.8, 1.25, 11), 0.5, 0.5, 0.5, 0.5, 1.0)
@example("joint", (1.0, 1.0000000000000002, 3), 0.0, 0.1, 1.0, 0.9, 1.5)
@example("joint", (1e-300, 1e300, 25), 0.25, 0.3, 0.75, 0.2, 0.7)
def test_grid_cells_equal_the_one_point_route(model, grid, b_where, b_width,
                                              s_where, s_width, gamma):
    """x is np.linspace over log-price bit for bit, and every other cell is
    the one-point math route at that x, bit for bit."""
    lo, hi, n = grid
    params = {spec.name: None for spec in cli.COMMANDS[model].params}
    params.update(gamma=gamma, grid=f"{lo!r}:{hi!r}:{n}")
    buyer = grid_curve(lo, hi, b_where, b_width)
    if model == "force":
        params.update(mean_price=buyer[0], sigma=buyer[1])
    else:
        seller = grid_curve(lo, hi, s_where, s_width)
        params.update(buyer_mean_price=buyer[0], buyer_sigma=buyer[1],
                      seller_mean_price=seller[0], seller_sigma=seller[1])
    table = getattr(cli, f"_exec_{model}")(params).table
    columns = {name: column[0:n] for name, column in table.items()}    # the serial route
    x = columns["x"]
    assert x.tobytes() == np.linspace(math.log(lo), math.log(hi), n).tobytes()
    scale = propensity.EntropicScale.direct(gamma)
    if model == "force":
        curve = propensity.GaussianCurve(math.log(buyer[0]), buyer[1])
        expected = {"density": lambda v: propensity.density(curve, v),
                    "force": lambda v: propensity.entropic_force(curve, v, scale)}
    else:
        pair = cli._build_pair(params)
        expected = {"joint_density": lambda v: pair.scale * propensity.density(pair.joint, v)}
        for side in ("buyer", "seller", "joint"):
            curve = getattr(pair, side)
            expected[f"{side}_force"] = (
                lambda v, c=curve: propensity.entropic_force(c, v, scale))
            if side != "joint":
                expected[f"{side}_density"] = lambda v, c=curve: propensity.density(c, v)
    expected["price"] = math.exp
    assert set(columns) == {"x", *expected}
    for name, at in expected.items():
        assert columns[name].tobytes() == array("d", map(at, x)).tobytes(), name


def positive(rng):
    """A positive float drawn as tests/differential.py draws a number:
    mostly from 0.05 to 5, else log-uniform over the whole float range or a
    special value, the smallest subnormal and the largest float among them;
    drawn again until it is a positive float."""
    while True:
        with contextlib.suppress(ValueError):
            value = float(differential._number(rng, "posfloat"))
            if 0.0 < value < math.inf:
                return value


@st.composite
def extreme_grids(draw):
    """(model, params) of a force or joint grid of 2 to 300 rows, its bounds,
    means, widths and gamma drawn by positive."""
    rng = draw(st.randoms(use_true_random=False))
    model = draw(st.sampled_from(["force", "joint"]))
    lo, hi = sorted((positive(rng), positive(rng)))
    assume(lo < hi)
    params = {spec.name: None for spec in cli.COMMANDS[model].params}
    params.update(gamma=positive(rng), grid=f"{lo!r}:{hi!r}:{draw(st.integers(2, 300))}")
    for side in ("",) if model == "force" else ("buyer_", "seller_"):
        params.update({f"{side}mean_price": positive(rng), f"{side}sigma": positive(rng)})
    return model, params


def floor_crossing():
    """Two adjacent prices: at the first, a curve at price 1 of width 1 has a
    density of at least DENSITY_FLOOR, at the second one below it."""
    curve = propensity.GaussianCurve(0.0, 1.0)
    above, below = 1.0, 1e20
    while math.nextafter(above, math.inf) < below:
        middle = above + (below - above) / 2
        if propensity.density(curve, math.log(middle)) < propensity.DENSITY_FLOOR:
            below = middle
        else:
            above = middle
    return above, below


def force_grid(grid, mean_price=1.0, sigma=1.0, gamma=1.0):
    params = {spec.name: None for spec in cli.COMMANDS["force"].params}
    params.update(mean_price=mean_price, sigma=sigma, gamma=gamma, grid=grid)
    return "force", params


def joint_grid(grid, buyer, seller, gamma=1.0):
    params = {spec.name: None for spec in cli.COMMANDS["joint"].params}
    params.update(buyer_mean_price=buyer[0], buyer_sigma=buyer[1], seller_mean_price=seller[0],
                  seller_sigma=seller[1], gamma=gamma, grid=grid)
    return "joint", params


FLOOR = floor_crossing()
LARGEST = sys.float_info.max


@settings(max_examples=200, deadline=None, database=None)
@given(extreme_grids())
# The last row's density at the floor and just below it; the first row's.
@example(force_grid(f"1:{FLOOR[0]!r}:5"))
@example(force_grid(f"1:{FLOOR[1]!r}:5"))
@example(force_grid(f"{1 / FLOOR[0]!r}:1:4"))
@example(joint_grid(f"1:{FLOOR[1]!r}:9", (1.0, 1.0), (2.0, 1e6)))
# The last row's price at the edge where math.exp overflows, and z * z
# overflowing to inf in a density that is 0 there; the smallest subnormal
# as the first row.
@example(force_grid(f"1e300:{LARGEST!r}:7", mean_price=1e305, sigma=10.0))
@example(force_grid(f"5e-324:{LARGEST!r}:9", sigma=100.0))
@example(joint_grid(f"1e300:{LARGEST!r}:6", (1e300, 5.0), (1e308, 8.0)))
@example(force_grid(f"0.5:{LARGEST!r}:3", sigma=1e-155, gamma=1e-300))
@example(joint_grid("0.5:2:4", (1.0, 1e-310), (1.5, 1.0)))
def test_the_extreme_rows_decide_a_grids_fault(grid):
    """The check of a grid's extreme rows passes where, and only where, the
    whole grid evaluated column after column raises no error and holds no
    nan or infinity."""
    model, params = grid
    try:
        table = getattr(cli, f"_exec_{model}")(params).table
    except (ValueError, ArithmeticError):
        assume(False)                     # refused before any grid row is evaluated
    columns = list(table.values())
    try:
        whole = all(cli._is_finite(column[0:column.rows]) for column in columns)
    except (ValueError, ArithmeticError):
        whole = False
    assert cli._fits(columns) == whole


def test_the_check_reads_the_rows_around_each_mean():
    """The rows around a mean are the first row above it (or the last row)
    and the row before it. A curve narrower than 1e-308 has an infinite
    density at its mean and 0 one row away, so where its mean lies on a
    row, only the rows around it show the fault."""
    spec = f"1:{math.exp(2.0)!r}:5"                # log-prices 0, 0.5, 1, 1.5 and 2
    for mu, rows in ((-1.0, (0, 4)), (0.0, (0, 1, 4)), (1.25, (0, 2, 3, 4)),
                     (1.5, (0, 3, 4)), (3.0, (0, 3, 4))):
        assert cli._grid(spec, {}, (mu,))["x"].extremes == rows
    assert cli._grid(spec, {}, (-1.0, 1.25, 3.0))["x"].extremes == (0, 2, 3, 4)
    curve = propensity.GaussianCurve(1.0, 1e-310)
    grid = cli._grid(spec, {"density": lambda x: propensity.density(curve, x)}, (curve.mu,))
    assert list(grid["density"][0:5]) == [0.0, 0.0, math.inf, 0.0, 0.0]
    assert not cli._fits(list(grid.values()))


# ============================================================
# JSON writer against json.dumps
# ============================================================

FLOATS = st.one_of(
    st.floats(),
    st.floats(1e12, 1e16), st.floats(-1e16, -1e12),
    st.integers(-2**53, 2**53).map(float),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([-0.0, 5e-324, 1e16, 999999999999.6]))
LEAVES = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), st.text(max_size=8),
                   st.lists(FLOATS, min_size=1, max_size=6).map(lambda v: array("d", v)))
RECORDS = st.dictionaries(st.text(max_size=8), st.recursive(
    LEAVES, lambda children: st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12), min_size=1, max_size=5)


def rounded(value):
    """The value with every float at 12 significant digits, float columns
    (array('d')) as lists."""
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, array):
        return [rounded(v) for v in value]
    if isinstance(value, float):
        return float(format(value + 0.0, ".12g"))
    return value


@settings(max_examples=100, deadline=None)
@given(RECORDS)
@example({"a": {"b": array("d", [1e12, -0.0, 5e-324]), "c": 2.0}, "d": True, "e": None})
def test_json_writer_matches_json_dumps(record):
    """The writer the CLI uses: the pieces, chunks formatted by its emit loop."""
    out = []
    cli._emit(list(_json_pieces(record)), out.append, iter(()))
    assert "".join(out) == json.dumps(rounded(record), indent=2)


# ============================================================
# Chunked output
# ============================================================

SEAMS = f"0.5:2.0:{2 * CHUNK_ROWS + 1}"    # two full chunks and a row: 4 chunks
SEAM_FLAGS = ["force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0",
              "--grid", SEAMS]


class FakeStdout:
    """Keeps each write as a piece; the write numbered fail_at raises."""

    def __init__(self, fail_at=None):
        self.pieces, self.fail_at = [], fail_at

    def write(self, text):
        if len(self.pieces) + 1 == self.fail_at:
            raise OSError(28, "No space left on device")
        self.pieces.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("output", ["json", "csv"])
def test_chunked_writer_matches_per_value_route(output):
    code, text = run_cli([*SEAM_FLAGS, "--output", output])
    assert code == 0
    params = {spec.name: None for spec in cli.COMMANDS["force"].params}
    params.update(mean_price=1.0, sigma=0.25, gamma=1.0, grid=SEAMS)
    results = cli._exec_force(params).results
    results["columns"] = {name: column[0:2 * CHUNK_ROWS + 1]
                          for name, column in results["columns"].items()}
    if output == "csv":
        columns = results["columns"]
        rows = zip(*columns.values())
        assert text == "".join(",".join(map(_fmt, row)) + "\n"
                               for row in [columns, *rows])
    else:
        record = {"command": "force",
                  "config": {"model": "force", "parameters": {
                      "mean_price": 1.0, "sigma": 0.25, "gamma": 1.0, "grid": SEAMS},
                      "output": "json"},
                  "version": __version__, "seed": None,
                  "wall_time_ms": json.loads(text)["wall_time_ms"], "results": results}
        assert text == json.dumps(rounded(record), indent=2) + "\n"


@pytest.mark.parametrize("output", ["json", "csv"])
def test_writer_never_holds_the_whole_text(monkeypatch, output):
    code, text = run_cli([*SEAM_FLAGS, "--output", output])
    assert code == 0
    fake = FakeStdout()
    monkeypatch.setattr(sys, "stdout", fake)
    assert main([*SEAM_FLAGS, "--output", output]) == 0
    assert mask_timing("".join(fake.pieces)) == mask_timing(text)
    # A piece is at most CHUNK_ROWS lines of a text more than twice as long.
    assert text.count("\n") > 2 * CHUNK_ROWS
    assert max(piece.count("\n") for piece in fake.pieces) <= CHUNK_ROWS
    longest_line = max(map(len, text.splitlines(keepends=True)))
    assert max(map(len, fake.pieces)) <= CHUNK_ROWS * longest_line


@pytest.mark.parametrize("rows, sizes", [
    (1, [1]), (CHUNK_ROWS, [CHUNK_ROWS]), (CHUNK_ROWS + 1, [4096, 4097]),
    (25_000, [6250] * 4), (2 * CHUNK_ROWS + 5, [4097, 4097, 4097, 4098]),
    (MAX_ROWS, None)])
def test_spans_cut_an_even_number_of_equal_chunks(rows, sizes):
    spans = cli._spans(rows)
    assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
    assert spans[-1][1] == rows
    lengths = [stop - start for start, stop in spans]
    assert max(lengths) <= CHUNK_ROWS and max(lengths) - min(lengths) <= 1
    assert len(spans) == 1 if rows <= CHUNK_ROWS else len(spans) % 2 == 0
    if sizes is not None:
        assert sorted(lengths) == sorted(sizes)


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ============================================================
# Output that cannot be written
# ============================================================

ENOSPC = "qprop: error: cannot write output: [Errno 28] No space left on device\n"
# Each stdout that a process cannot write to, and the error line it gives.
UNWRITABLE = {
    "/dev/full": ENOSPC,
    "closed": "qprop: error: cannot write output: standard output is closed\n",
    "pipe without reader": "qprop: error: cannot write output: [Errno 32] Broken pipe\n",
}


def unwritable_stdout(how, argv, env):
    """(exit code, stderr) of argv run alone with /dev/full as stdout, with
    descriptor 1 closed, or with a pipe whose read end is closed first."""
    if how == "/dev/full":
        with open("/dev/full", "w") as full:
            return run_alone(argv, stdout=full, env=env)[::2]
    if how == "closed":
        return run_alone(argv, env=env, preexec_fn=lambda: os.close(1))[::2]
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w") as pipe:
        return run_alone(argv, stdout=pipe, env=env)[::2]


def write_fails(how, *calls, ids=None):
    """A test that each call, an argv of qprop, exits 2 with one error line
    where its stdout cannot be written. how is a stdout of UNWRITABLE, for
    ``python -m qprop`` run alone, once with PYTHONUNBUFFERED unset and once
    set; or N, for main in process, whose N-th write raises ENOSPC: N - 1
    pieces are written and no child is left. With ids, each call is a case
    of its own."""
    def check(monkeypatch, capsys, argv):
        if how in UNWRITABLE:
            for env in stdout_envs():
                assert unwritable_stdout(how, [sys.executable, "-m", "qprop", *argv], env) == (
                    2, UNWRITABLE[how])
            return
        fake = FakeStdout(fail_at=how)
        monkeypatch.setattr(sys, "stdout", fake)
        assert main(argv) == 2
        assert len(fake.pieces) == how - 1
        assert capsys.readouterr().err == ENOSPC
        assert_no_child()

    if ids is not None:
        test = pytest.mark.parametrize("argv", calls, ids=ids)(check)
    else:
        def test(monkeypatch, capsys):
            for argv in calls:
                check(monkeypatch, capsys, argv)
    if how == "/dev/full":
        test = pytest.mark.skipif(not os.path.exists(how), reason="no /dev/full device")(test)
    elif how in UNWRITABLE:
        test = pytest.mark.skipif(os.name != "posix", reason="POSIX descriptors and pipes")(test)
    return test


OSCILLATOR = ["oscillator", "--sigma", "0.3"]
# A record, a split grid, and a failed sweep, whose model failure is not
# reported: its record was not written. The text of --help and --version goes
# through the record writer too: a write or flush that fails is one error
# line and exit 2, whether stdout is buffered or not.
test_stdout_write_failure_exits_2 = write_fails("/dev/full", OSCILLATOR, SPLIT_GRID, FAILED_SWEEP)
test_text_left_in_the_stdout_buffer_that_cannot_be_written_exits_2 = write_fails(
    "/dev/full", ["--help"], ["--version"], ids=["--help", "--version"])
test_closed_stdout_exits_2 = write_fails("closed", OSCILLATOR, ["--help"], ["--version"])
test_pipe_without_reader_exits_2 = write_fails("pipe without reader", OSCILLATOR, SPLIT_GRID)
# In process, a model failure too is reported only after its record is written.
test_text_that_cannot_be_written_exits_2_in_process = write_fails(
    1, ["--help"], ["--version"], FAILED_SWEEP, ids=["--help", "--version", "failed sweep"])
test_failed_write_part_way_exits_2 = write_fails(
    3, [*SEAM_FLAGS, "--output", "json"], [*SEAM_FLAGS, "--output", "csv"], ids=["json", "csv"])

# Two calls of main in one process whose stdout cannot be written. os._exit:
# text left in a buffered stdout would fail once more at interpreter exit.
TWO_CALLS = """\
import os, sys
from qprop.cli import main
before = len(os.listdir("/dev/fd"))
codes = [main(["oscillator", "--sigma", "0.3"]) for _ in range(2)]
print(codes, len(os.listdir("/dev/fd")) - before, file=sys.stderr, flush=True)
os._exit(0)
"""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_failed_write_in_process_leaves_stdout_as_it_was():
    """Each call fails alike, and none opens a descriptor."""
    for env in stdout_envs():
        assert unwritable_stdout("/dev/full", [sys.executable, "-c", TWO_CALLS], env) == (
            0, ENOSPC * 2 + "[2, 2] 0\n")


# ============================================================
# Output formatted by two processes
# ============================================================

SPLIT_CALLS = {
    "force": "force --mean-price 1.0 --sigma 0.25 --gamma 1.0 --grid 0.5:2.0:{n}",
    "joint": "joint --buyer-mean-price 0.95 --buyer-sigma 0.2 --seller-mean-price 1.1 "
             "--seller-sigma 0.3 --gamma 1.0 --grid 0.8:1.25:{n}",
    "sample": "sample --trials {n} --buyer-mean-price 1.05 --buyer-sigma 0.1 "
              "--seller-mean-price 0.95 --seller-sigma 0.1 --seed 3",
}


def split_argv(model, n, output):
    return [*SPLIT_CALLS[model].format(n=n).split(), "--output", output]


def no_fork():
    raise OSError(11, "Resource temporarily unavailable")


def same_text(got, expected):
    """Fail at once where two texts differ, naming the first differing offset
    with about 40 characters on each side; pytest's own diff of two large
    texts can run for minutes."""
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"texts of {len(got)} and {len(expected)} characters differ at offset {at}: "
                    f"{got[window]!r} != {expected[window]!r}", pytrace=False)


def serial_text(monkeypatch, argv):
    """The output of an in-process call on the serial route: fork fails."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        code, text = run_cli(argv)
    assert code == 0
    return mask_timing(text)


def counted_forks(monkeypatch):
    """The list that each os.fork call of this process appends to. The
    calling thread is seen to have two CPUs, so the count is the same on any
    host."""
    forks, fork = [], os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return forks


def dies_in_the_child(function):
    """function, but a forked child that calls it exits 3 at once."""
    parent = os.getpid()

    def dies(*args):
        if os.getpid() != parent:
            os._exit(3)
        return function(*args)

    return dies


# The ways a call may run besides the usual one, each by what it patches.
ROUTES = {
    "fork fails": lambda patch: patch.setattr(os, "fork", no_fork),
    "pipe fails": lambda patch: patch.setattr(os, "pipe", no_fork),
    "no fork": lambda patch: patch.delattr(os, "fork"),
    "one CPU": lambda patch: patch.setattr(os, "sched_getaffinity", lambda pid: {0}),
    "child dies at its first span": lambda patch: patch.setattr(
        cli._Column, "__getitem__", dies_in_the_child(cli._Column.__getitem__)),
}


def children_of_serial_bytes(monkeypatch, argv, route):
    """The number of children that argv starts, run in process the way of
    route, after checking that it exits 0 with the serial route's bytes and
    leaves no child."""
    expected = serial_text(monkeypatch, argv)
    with monkeypatch.context() as patch:
        forks = counted_forks(patch)
        ROUTES[route](patch)
        code, text = run_cli(argv)
    assert code == 0, route
    same_text(mask_timing(text), expected)
    assert_no_child()
    return len(forks)


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("model, rows", [
    *((model, rows) for model in sorted(SPLIT_CALLS) for rows in (CHUNK_ROWS, CHUNK_ROWS + 1)),
    ("force", 2 * CHUNK_ROWS + 5), ("sample", 2 * CHUNK_ROWS + 5)])   # 4 chunks
def test_split_output_is_byte_identical(monkeypatch, tmp_path, model, output, rows):
    """Above CHUNK_ROWS rows a call forks once and prints the bytes of the
    serial route, on stdout and (at two chunks) with --out; at CHUNK_ROWS it
    does not fork."""
    argv = split_argv(model, rows, output)
    forks = counted_forks(monkeypatch)
    code, text = run_cli(argv)
    assert code == 0
    assert_no_child()
    assert len(forks) == (rows > CHUNK_ROWS)
    assert text.count("\n") > rows
    if rows == CHUNK_ROWS:
        return
    same_text(mask_timing(text), serial_text(monkeypatch, argv))
    if rows == CHUNK_ROWS + 1:
        config = [f"[run]\nmodel = {model}\noutput = {output}\n\n[{model}]"]
        config += [f"{flag[2:]} = {value}" for flag, value in zip(argv[1:-2:2], argv[2:-2:2])]
        path = write_config(tmp_path, "\n".join(config) + "\n")
        out = tmp_path / "out.txt"
        assert run_cli(["run", str(path), "--out", str(out)]) == (0, "")
        assert_no_child()
        assert len(forks) == 2
        same_text(mask_timing(out.read_text(encoding="utf-8")), mask_timing(text))


@pytest.mark.parametrize("output", ["json", "csv"])
def test_split_output_of_a_subprocess_matches_the_call_in_process(monkeypatch, output):
    """A process of its own prints the bytes of the split call in process,
    which are those of the serial route."""
    argv = split_argv("force", 2 * CHUNK_ROWS + 5, output)
    code, out, err = run_alone([sys.executable, "-m", "qprop", *argv], stdout=subprocess.PIPE)
    assert (code, err) == (0, "")
    expected = serial_text(monkeypatch, argv)
    same_text(mask_timing(out), expected)
    same_text(mask_timing(run_cli(argv)[1]), expected)


def test_a_call_that_cannot_fork_writes_the_same_bytes(monkeypatch):
    """A failed fork, a failed pipe and a platform without fork."""
    argv = split_argv("force", CHUNK_ROWS + 1, "csv")
    for route in ("fork fails", "pipe fails", "no fork"):
        assert children_of_serial_bytes(monkeypatch, argv, route) == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
def test_one_cpu_runs_a_large_call_in_one_process(monkeypatch):
    """Where this thread may run on one CPU only, a 20,000-row call starts no
    child, and prints what the serial route prints."""
    argv = split_argv("force", 20_000, "csv")
    assert children_of_serial_bytes(monkeypatch, argv, "one CPU") == 0


@pytest.mark.parametrize("model", ["force", "joint"])
@pytest.mark.parametrize("output", ["json", "csv"])
def test_a_child_that_dies_at_its_first_span_leaves_the_output_whole(monkeypatch, model,
                                                                   output):
    """The child exits as it evaluates its first span of the grid, before it
    sends a text: this process then evaluates and formats every chunk, the
    serial route's bytes."""
    argv = split_argv(model, 2 * CHUNK_ROWS + 5, output)
    assert children_of_serial_bytes(monkeypatch, argv, "child dies at its first span") == 1


@pytest.mark.parametrize("output", ["json", "csv"])
def test_a_child_that_dies_leaves_the_output_whole(monkeypatch, output):
    """The child sends one chunk and exits 3; this process formats the rest
    of the child's chunks itself, and the output is the serial route's."""
    argv = split_argv("force", 3 * CHUNK_ROWS + 5, output)
    expected = serial_text(monkeypatch, argv)
    name = "_json_numbers" if output == "json" else "_csv_rows"
    formatter, parent, sent, chunks = getattr(cli, name), os.getpid(), [], []

    def dies_after_one_chunk(first, second):
        if output == "json" and len(first) == 1:
            pass                          # a lone float, not a chunk
        elif os.getpid() != parent:
            sent.append(first)            # the child's own list
            if len(sent) > 1:
                os._exit(3)
        else:
            chunks.append(first)          # a chunk formatted in this process
        return formatter(first, second)

    monkeypatch.setattr(cli, name, dies_after_one_chunk)
    code, text = run_cli(argv)
    assert code == 0
    same_text(mask_timing(text), expected)
    assert_no_child()
    # 4 chunks a column: the child formats the second and dies on the fourth.
    assert len(chunks) == (15 if output == "json" else 3)


# A 4-span joint grid whose buyer force overflows in the last span only, which
# the child would format, and whose seller and joint forces overflow in the
# first span only, which this process would format; a force grid whose force
# overflows in the last span only.
CHILD_SPAN_OVERFLOWS = {
    "joint": (["joint", "--buyer-mean-price", "1", "--buyer-sigma", "1",
               "--seller-mean-price", "20.085536923187668", "--seller-sigma", "1.2",
               "--gamma", "1e308", "--grid", "1:9.025013499434122:16385"],
              {"buyer_force": [3], "seller_force": [0], "joint_force": [0]}),
    "force": (["force", "--mean-price", "1", "--sigma", "1", "--gamma", "1e308",
               "--grid", "1:7:16385"], {"force": [3]}),
}


def grid_table(argv):
    """The table of a force or joint --grid call's executor, by column name."""
    model, flags = argv[0], dict(zip(argv[1::2], argv[2::2]))
    params = {spec.name: None for spec in cli.COMMANDS[model].params}
    params.update({flag[2:].replace("-", "_"): flags[flag] if flag == "--grid"
                   else float(flags[flag]) for flag in flags if flag != "--output"})
    return getattr(cli, f"_exec_{model}")(params).table


def spans_beyond_the_float_range(argv):
    """The indices of the spans that hold a nan or an infinity, by column."""
    table = grid_table(argv)
    spans = cli._spans(table["x"].rows)
    found = {name: [i for i, (start, stop) in enumerate(spans)
                    if not all(map(math.isfinite, column[start:stop]))]
             for name, column in table.items()}
    return {name: indices for name, indices in found.items() if indices}


@pytest.mark.parametrize("model", sorted(CHILD_SPAN_OVERFLOWS))
@pytest.mark.parametrize("output", ["json", "csv"])
def test_a_value_beyond_the_float_range_in_the_childs_spans_exits_2(
        monkeypatch, capsys, tmp_path, model, output):
    """The check of the grid's extreme rows finds it before a child starts,
    and the call prints one error line naming the first such column in
    results order, as the serial route does, though a later column fails in
    the first span; nothing is written to stdout and no --out file is made.
    The same holds where fork fails and where the call may run on one CPU."""
    argv, where = CHILD_SPAN_OVERFLOWS[model]
    assert spans_beyond_the_float_range(argv) == where
    line = f"qprop: error: {RANGE}columns_{next(iter(where))} does not fit in a float\n"
    config = [f"[run]\nmodel = {model}\noutput = {output}\n\n[{model}]"]
    config += [f"{flag[2:]} = {value}" for flag, value in zip(argv[1::2], argv[2::2])]
    path = write_config(tmp_path, "\n".join(config) + "\n")
    out = tmp_path / "out.txt"
    forks = counted_forks(monkeypatch)
    for cpus in ("two", "no fork", "one"):
        with monkeypatch.context() as patch:
            if cpus == "no fork":
                patch.setattr(os, "fork", no_fork)
            if cpus == "one":
                patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert run_cli([*argv, "--output", output]) == (2, "")
            assert run_cli(["run", path, "--out", str(out)]) == (2, "")
        assert capsys.readouterr().err == line * 2
        assert not out.exists()
        assert_no_child()
    assert forks == []


@pytest.mark.parametrize("output", ["json", "csv"])
def test_no_process_evaluates_a_grid_row_twice(monkeypatch, output):
    """Each curve function of a 4-chunk joint grid meets every row once, and
    the grid's log-prices are evaluated once a row, each span's array handed
    to every function: the rows this process formats, besides the check's
    one-row spans at the extreme rows. Where no child starts those are all
    rows; where one does, the rows of every second chunk from the first."""
    argv = split_argv("joint", 2 * CHUNK_ROWS + 5, output)
    extremes = grid_table(argv)["x"].extremes
    spans = cli._spans(2 * CHUNK_ROWS + 5)
    calls = []                             # (function, curve, log-prices) of each array call

    def counted(name):
        function = getattr(propensity, name)

        def count(curve, x, *args):
            if isinstance(x, array):
                calls.append((name, curve, x))
            return function(curve, x, *args)

        return count

    for name in ("density", "entropic_force"):
        monkeypatch.setattr(propensity, name, counted(name))
    for child, formatted in ((False, spans), (True, spans[0::2])):
        calls.clear()
        with monkeypatch.context() as patch:
            if child:
                forks = counted_forks(patch)
            else:
                patch.setattr(os, "fork", no_fork)
            assert run_cli(argv)[0] == 0
        assert not child or len(forks) == 1
        points = len(extremes) + sum(stop - start for start, stop in formatted)
        functions = {(name, curve) for name, curve, _ in calls}
        assert len(functions) == 6         # three densities and three forces
        for function in functions:
            handed = [x for name, curve, x in calls if (name, curve) == function]
            assert sum(map(len, handed)) == points
            assert len({id(x) for x in handed}) == len(handed) == len(extremes) + len(formatted)
        assert len({id(x) for _, _, x in calls}) == len(extremes) + len(formatted)


def test_each_text_reaches_this_process_as_the_child_sends_it(monkeypatch):
    """The child flushes each text as it sends it, so its first text does not
    wait in the child's buffer while it formats the next."""
    def slow():
        time.sleep(5)
        return "slow"

    forks = counted_forks(monkeypatch)
    start = time.perf_counter()
    with cli._forked(iter([lambda: "first", slow])) as texts:
        assert next(texts) == "first"
        assert time.perf_counter() - start < 2.0
    assert len(forks) == 1
    assert_no_child()


def split_emit(pieces, write):
    """Write pieces as a large call writes them: the child of _forked formats
    every second chunk, from the second on."""
    chunks = [piece for piece in pieces if not isinstance(piece, str)]
    with cli._forked(iter(chunks[1::2])) as texts:
        cli._emit(pieces, write, texts)


def test_a_parent_that_fails_early_kills_a_child_held_in_a_chunk(monkeypatch):
    """A write that fails at once leaves the child inside a slow chunk: _emit
    kills and reaps it at once instead of waiting the chunk out."""
    def slow():
        time.sleep(5)
        return "slow"

    def write(text):
        raise OSError(28, "No space left on device")

    forks = counted_forks(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(OSError):
        split_emit(["head", lambda: "fast", slow], write)
    assert time.perf_counter() - start < 1.0
    assert len(forks) == 1
    assert_no_child()


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(signal, "pthread_sigmask"),
                    reason="needs fork and signal masks")
def test_the_child_blocks_sigint_and_this_thread_unblocks_it(monkeypatch):
    """The child of _forked keeps SIGINT blocked from the fork on, so a
    Ctrl-C reaches this process alone; this thread's mask is as it was, and
    already was when it formatted its own chunk."""
    def blocked():
        return str(signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, []))

    forks, written = counted_forks(monkeypatch), []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    split_emit(["head", blocked, blocked], written.append)
    assert written == ["head", "False", "True"]
    assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == mask
    assert signal.SIGINT not in mask
    assert len(forks) == 1
    assert_no_child()


# Two split writes, the second with a chunk that raises in the child. The last
# write waits until the child has exited, without reaping it, so a child that
# went on to run atexit hooks or flush stdout would be seen doing so.
CHILD_EXIT = """\
import atexit, os, sys
from qprop import cli
parent, fork, pids, written = os.getpid(), os.fork, [], []
def counted():
    pids.append(fork())
    return pids[-1]
def chunk():
    if os.getpid() != parent:
        raise RuntimeError("in the child")
    return "c"
def write(text):
    if text == "end":
        os.waitid(os.P_PID, pids[-1], os.WEXITED | os.WNOWAIT)
    written.append(text)
os.fork = counted
atexit.register(lambda: os.write(2, b"atexit ran"))
sys.stdout.write("buffered at the fork ")
for pieces in (["head", lambda: "a", lambda: "b", "end"], ["head", lambda: "a", chunk, "end"]):
    with cli._forked(iter(pieces[2:3])) as texts:
        cli._emit(pieces, write, texts)
print(" ".join(written), len(pids), flush=True)
os._exit(0)
"""


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_the_child_leaves_by_os_exit_on_every_path():
    """After its last chunk and after a chunk that raises, the child runs no
    atexit hook and flushes no copy of stdout; this process formats the chunk
    the child did not send."""
    code, out, err = run_alone([sys.executable, "-c", CHILD_EXIT], stdout=subprocess.PIPE)
    assert (code, out, err) == (0, "buffered at the fork head a b end head a c end 2\n", "")


def test_no_pipe_end_outlives_a_split_call(monkeypatch, capsys):
    """A split call that succeeds, one whose child dies at once and one whose
    write fails each close the read end of their pipe: no file is left for a
    finalizer to report."""
    argv = split_argv("force", CHUNK_ROWS + 1, "csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run_cli(argv)[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_csv_rows", dies_in_the_child(cli._csv_rows))
            assert run_cli(argv)[0] == 0
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", FakeStdout(fail_at=2))
            assert main(argv) == 2
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
    assert capsys.readouterr().err == (
        "qprop: error: cannot write output: [Errno 28] No space left on device\n")
    assert_no_child()


# ============================================================
# Where the two processes run
# ============================================================

placed = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="places processes with sched_setaffinity on two CPUs or more")


def cpus():
    return sorted(os.sched_getaffinity(0))


@placed
def test_the_child_runs_off_this_threads_cpu():
    """During a split the child runs on every CPU of this thread's set but
    one, the one this thread ran on as it forked, and this thread keeps them
    all, then and after. This process binds the child once it has forked, so
    the child's chunk waits up to 5 s for that."""
    own, written = cpus(), []

    def placed_cpus():
        deadline = time.monotonic() + 5.0
        while cpus() == own and time.monotonic() < deadline:
            time.sleep(0.001)
        return json.dumps(cpus())

    split_emit(["head", lambda: json.dumps(cpus()), placed_cpus], written.append)
    assert written[:2] == ["head", json.dumps(own)]
    child = json.loads(written[2])
    assert len(child) == len(own) - 1 and set(child) < set(own)
    assert cpus() == own
    assert_no_child()

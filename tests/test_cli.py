import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qprop import __version__, cli, decision, propensity
from qprop.cli import CHUNK_ROWS, MAX_ROWS, _csv_rows, _fmt, _json_numbers, _json_pieces, main

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

@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_outputs_match_goldens_byte_for_byte(name):
    code, text = run_cli(CSV_CASES[name])
    assert code == 0
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert text == golden


def test_every_command_has_json_and_csv_goldens():
    assert make_goldens.uncovered() == []


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_outputs_match_goldens_up_to_timing(name):
    code, text = run_cli(JSON_CASES[name])
    assert code == 0
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert normalize_json(text) == normalize_json(golden)


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_outputs_match_goldens_byte_for_byte(name):
    """Parsed comparison treats 1 and 1.0 alike; this one pins every byte
    apart from the wall_time_ms value."""
    code, text = run_cli(JSON_CASES[name])
    assert code == 0
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert mask_timing(text) == mask_timing(golden)
    assert mask_timing(text) != text


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


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("QPROP_SEED", "21")
    code, env_text = run_cli(["equivalence", "--trials", "3"])
    assert code == 0
    assert json.loads(env_text)["seed"] == 21
    monkeypatch.delenv("QPROP_SEED")
    _, flag_text = run_cli(["equivalence", "--trials", "3", "--seed", "21"])
    assert normalize_json(env_text) == normalize_json(flag_text)


def test_seed_flag_beats_env(monkeypatch):
    monkeypatch.setenv("QPROP_SEED", "21")
    code, text = run_cli(["equivalence", "--trials", "3", "--seed", "5"])
    assert code == 0
    assert json.loads(text)["seed"] == 5


def test_missing_seed_for_stochastic_model(capsys):
    code, _ = run_cli(["sample", "--trials", "2",
                       "--buyer-mean-price", "1.0", "--buyer-sigma", "0.1",
                       "--seller-mean-price", "1.0", "--seller-sigma", "0.1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


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
    dashed = write_config(tmp_path, """\
[run]
model = work
output = json

[work]
mean-price = 1.0
sigma = 0.25
price1 = 1.2
price2 = 1.0
gamma = 1.0
""")
    code, text = run_cli(["run", dashed])
    assert code == 0
    assert json.loads(text)["results"]["delta_e"] == pytest.approx(
        0.265929200574, abs=1e-9)
    underscored = write_config(tmp_path, """\
[run]
model = work
output = json

[work]
mean_price = 1.0
sigma = 0.25
price1 = 1.2
price2 = 1.0
gamma = 1.0
""")
    code, _ = run_cli(["run", underscored])
    assert code == 2
    assert "mean_price" in capsys.readouterr().err


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


def test_run_out_to_missing_directory_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, """\
[run]
model = oscillator
output = csv

[oscillator]
sigma = 0.25
""")
    out = tmp_path / "missing" / "result.csv"
    code, text = run_cli(["run", path, "--out", str(out)])
    assert code == 2
    assert text == ""
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("qprop: error: cannot write output: ")
    assert "Traceback" not in err


def test_run_empty_out_exits_2(tmp_path, capsys):
    """An empty --out is a path that cannot be opened, not a request for stdout."""
    path = write_config(tmp_path, "[run]\nmodel = oscillator\n\n[oscillator]\nsigma = 0.25\n")
    code, text = run_cli(["run", path, "--out="])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("qprop: error: cannot write output: ")
    assert err.count("\n") == 1


def test_run_unknown_key_is_fatal(tmp_path, capsys):
    path = write_config(tmp_path, """\
[run]
model = reversal
output = csv

[reversal]
x1 = 1.0
x2 = 4.0
temperature = 300
""")
    code, _ = run_cli(["run", path])
    assert code == 2
    err = capsys.readouterr().err
    assert "temperature" in err
    assert "model.cfg:8:" in err


def test_run_unknown_section_is_fatal(tmp_path, capsys):
    path = write_config(tmp_path, """\
[run]
model = reversal

[reversal]
x1 = 1.0
x2 = 4.0

[extras]
verbose = yes
""")
    code, _ = run_cli(["run", path])
    assert code == 2
    assert "extras" in capsys.readouterr().err


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


def test_run_missing_config_file(capsys):
    code, _ = run_cli(["run", "/nonexistent/model.cfg"])
    assert code == 2


# ============================================================
# Errors and exit codes
# ============================================================

def test_missing_required_flag_exits_2(capsys):
    code, _ = run_cli(["order-effect", "--theta", "0.5"])
    assert code == 2


def test_unknown_command_exits_2(capsys):
    code, _ = run_cli(["entangle-everything"])
    assert code == 2


def test_nonpositive_cost_exits_2(capsys):
    code, _ = run_cli(["reversal", "--x1", "0.0", "--x2", "1.0"])
    assert code == 2
    assert "x1" in capsys.readouterr().err


def test_zero_tolerance_is_model_error(capsys):
    code, _ = run_cli(["equivalence", "--trials", "2", "--tol", "0",
                       "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "tol" in err


def test_negative_tolerance_exits_2(capsys):
    code, _ = run_cli(["equivalence", "--trials", "2", "--tol", "-1e-9",
                       "--seed", "1"])
    assert code == 2


def test_single_point_grid_exits_2(capsys):
    code, _ = run_cli(["force", "--mean-price", "1.0", "--sigma", "0.25",
                       "--gamma", "1.0", "--grid", "0.5:2.0:1",
                       "--output", "csv"])
    assert code == 2
    assert "grid" in capsys.readouterr().err


def test_malformed_grid_exits_2(capsys):
    code, _ = run_cli(["force", "--mean-price", "1.0", "--sigma", "0.25",
                       "--gamma", "1.0", "--grid", "2.0:0.5:9",
                       "--output", "csv"])
    assert code == 2


def test_force_needs_price_or_grid(capsys):
    code, _ = run_cli(["force", "--mean-price", "1.0", "--sigma", "0.25",
                       "--gamma", "1.0"])
    assert code == 2
    code, _ = run_cli(["force", "--mean-price", "1.0", "--sigma", "0.25",
                       "--gamma", "1.0", "--price", "1.1",
                       "--grid", "0.5:2.0:5"])
    assert code == 2


def test_gamma_and_omega_are_exclusive(capsys):
    code, _ = run_cli(["work", "--mean-price", "1.0", "--sigma", "0.25",
                       "--price1", "1.2", "--price2", "1.0",
                       "--gamma", "1.0", "--omega", "2.0"])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_both_sides_fixed_exits_2(capsys):
    code, _ = run_cli(["joint", "--buyer-fixed-price", "1.0",
                       "--seller-fixed-price", "1.1", "--gamma", "1.0"])
    assert code == 2


def test_fixed_price_excludes_same_side_curve(capsys):
    code, _ = run_cli(["joint", "--buyer-mean-price", "1.0",
                       "--buyer-sigma", "0.1", "--seller-fixed-price", "1.1",
                       "--seller-sigma", "0.2", "--gamma", "1.0"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["force", "--mean-price", "1", "--sigma", "1e200", "--gamma", "1", "--price", "2"],
     "force_constant does not fit in a float"),
    (["oscillator", "--sigma", "1e-200"], "mass does not fit in a float"),
    (["oscillator", "--sigma", "1e200"], "mass does not fit in a float"),
    (["joint", "--buyer-mean-price", "1", "--buyer-sigma", "1e200", "--seller-mean-price",
      "1.1", "--seller-sigma", "0.1", "--gamma", "1", "--grid", "0.5:2:3"],
     "force_constant does not fit in a float"),
    (["work", "--mean-price", "1", "--sigma", "5.84e-18", "--price1", "1.0000000000000002",
      "--price2", "1", "--gamma", "1"], "density_ratio does not fit in a float"),
    # A quantity that comes out inf or 0 without raising is named the same
    # way as one whose computation raises.
    (["force", "--mean-price", "1", "--sigma", "1e-150", "--price", "1", "--gamma", "1e300"],
     "force_constant does not fit in a float"),
    (["force", "--mean-price", "1", "--sigma", "1e-160", "--gamma", "1", "--price", "1"],
     "force_constant does not fit in a float"),
    (["oscillator", "--sigma", "1e-160"], "mass does not fit in a float"),
    (["oscillator", "--sigma", "1", "--omega", "1e300", "--hbar", "1e300"],
     "gamma does not fit in a float"),
    (["oscillator", "--sigma", "1", "--omega", "1e-300", "--hbar", "1e-300"],
     "gamma does not fit in a float"),
    (["force", "--mean-price", "1", "--sigma", "1", "--price", "1",
      "--omega", "1e300", "--hbar", "1e300"], "gamma does not fit in a float"),
    (["force", "--mean-price", "1", "--sigma", "1", "--price", "1",
      "--omega", "1e-300", "--hbar", "1e-300"], "gamma does not fit in a float"),
    (["interference", "--theta", "1e308", "--phi", "-1e308"],
     "theta - phi does not fit in a float"),
    (["order-effect", "--theta", "1e308", "--phi", "-1e308", "--order", "ba"],
     "theta - phi does not fit in a float"),
    # The grid route names the same fault as the --price route above.
    (["force", "--mean-price", "1.8", "--sigma", "1e-160", "--grid", "1:2:3", "--gamma", "1"],
     "force_constant does not fit in a float"),
], ids=["force", "oscillator-narrow", "oscillator-wide", "joint-grid", "work",
        "force-huge-k", "force-subnormal-square", "oscillator-subnormal-square",
        "oscillator-gamma-inf", "oscillator-gamma-0", "force-gamma-inf", "force-gamma-0",
        "interference-angle-gap", "order-effect-angle-gap", "force-grid-subnormal-square"])
def test_values_beyond_float_range_exit_2(argv, message):
    """A quantity beyond the float range is named in the one error line."""
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "qprop", *argv],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"qprop: error: parameters out of floating-point range: {message}\n"


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


@pytest.mark.parametrize("value", ["-1e3", "-1e-300", "-.5", "-2.5", "-1E+2"])
def test_negative_values_parse_as_separate_arguments(value):
    """A negative number, exponent form included, is a value and not an
    option, spelled as its own argument or after an equals sign."""
    argv = ["order-effect", "--theta", "1", "--output", "csv"]
    spaced = run_cli([*argv, "--phi", value])
    joined = run_cli([*argv, f"--phi={value}"])
    assert spaced == joined
    assert spaced[0] == 0


@pytest.mark.parametrize("argv", [
    ["order-effect", "--theta", "1", "--phi=--"],
    ["reversal", "--x1", "1", "--x2=--"],
    ["equivalence", "--trials=--", "--seed", "1"],
    ["sample", "--trials", "3", "--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
     "--seller-mean-price", "0.95", "--seller-sigma", "0.1", "--seed=--"],
], ids=lambda argv: argv[0])
def test_flag_given_double_dash_exits_2(argv, capsys):
    """argparse stores --flag=-- as an empty list; it is refused as a
    missing value, not passed on to the model."""
    flag = next(arg for arg in argv if arg.endswith("=--"))[:-len("=--")]
    code, text = run_cli(argv)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"qprop: error: argument {flag}: expected one argument\n"


def test_caps_admit_their_own_size():
    assert cli._grid_bounds(f"0.5:2.0:{MAX_ROWS}") == (0.5, 2.0, MAX_ROWS)
    for model, params in (("sample", {}), ("equivalence", {"tol": 1e-12})):
        cli._validate_params(model, {**params, "trials": MAX_ROWS})
        with pytest.raises(cli.UsageError, match="trials must be at most"):
            cli._validate_params(model, {**params, "trials": MAX_ROWS + 1})


def test_point_mass_joint_grid_exits_2(capsys):
    code, _ = run_cli(["joint", "--buyer-mean-price", "1.0",
                       "--buyer-sigma", "0.1", "--seller-fixed-price", "1.1",
                       "--gamma", "1.0", "--grid", "0.9:1.2:5",
                       "--output", "csv"])
    assert code == 2


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


def test_module_entry_point_error_path():
    proc = subprocess.run(
        [sys.executable, "-m", "qprop", "reversal", "--x1", "-1", "--x2", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error" in proc.stderr


def test_far_tail_density_prints_only_the_error_line():
    """The overflow of z * z in a far tail is expected, and numpy's warning
    about it must not reach stderr ahead of the usage error."""
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "qprop", "force", "--mean-price", "1",
         "--sigma", "1e-160", "--gamma", "1e-300", "--grid", "0.5:2.0:3"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("qprop: error: density underflow")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, name", [
    (["reversal", "--x1", "1e-320", "--x2", "1e308"], "ratio"),
    (["force", "--mean-price", "1", "--sigma", "10", "--price", "1e130",
      "--gamma", "1e308"], "force"),
    (["sample", "--trials", "2000", "--buyer-mean-price", "1", "--buyer-sigma", "1000",
      "--seller-mean-price", "1", "--seller-sigma", "1000", "--seed", "1"], "prices"),
])
def test_nonfinite_results_exit_2_with_one_line(argv, name):
    """A result that leaves the float range is refused, not printed as NaN
    or Infinity, and no numpy warning reaches stderr ahead of the error."""
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "qprop", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"qprop: error: parameters out of floating-point range: {name} does not fit in a float\n")


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


@pytest.mark.parametrize("model", sorted(cli.COMMANDS))
def test_whole_float_range_keeps_the_exit_contract(model):
    """Over the whole float range every call exits 0, 1 or 2 without a
    traceback, a failure prints one qprop line and never a bare math or
    errno message, JSON output is strict, and the results meet their
    closed forms."""
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


def test_failed_cross_check_exits_1(monkeypatch, capsys):
    def broken(theta, phi):
        raise RuntimeError("circuit marginals deviate from closed forms by 0.1")

    monkeypatch.setattr(decision, "order_effect_summary", broken)
    code, text = run_cli(["order-effect", "--theta", "0.3", "--phi", "0.2"])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err == (
        "qprop: circuit marginals deviate from closed forms by 0.1\n")


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_stdout_write_failure_exits_2():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qprop", "oscillator", "--sigma", "0.3"],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 2
    assert proc.stderr == (
        "qprop: error: cannot write output: [Errno 28] No space left on device\n")


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
def test_closed_stdout_exits_2():
    proc = subprocess.run([sys.executable, "-m", "qprop", "oscillator", "--sigma", "0.3"],
                          stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2
    assert proc.stderr == "qprop: error: cannot write output: standard output is closed\n"


@pytest.mark.skipif(os.name != "posix", reason="POSIX pipe semantics")
def test_pipe_without_reader_exits_2():
    proc = subprocess.Popen([sys.executable, "-m", "qprop", "oscillator", "--sigma", "0.3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()                   # long before the child starts writing
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "qprop: error: cannot write output: [Errno 32] Broken pipe\n"


def test_version_flag():
    proc = subprocess.run([sys.executable, "-m", "qprop", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "qprop 0.1.0"


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
    columns = getattr(cli, f"_exec_{model}")(params).table
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
    out = []
    _json_pieces(record, out.append)
    assert "".join(out) == json.dumps(rounded(record), indent=2)


# ============================================================
# Chunked output
# ============================================================

SEAMS = f"0.5:2.0:{2 * CHUNK_ROWS + 1}"    # two full chunks and a row
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


@pytest.mark.parametrize("output", ["json", "csv"])
def test_failed_write_part_way_exits_2(monkeypatch, capsys, output):
    fake = FakeStdout(fail_at=3)
    monkeypatch.setattr(sys, "stdout", fake)
    assert main([*SEAM_FLAGS, "--output", output]) == 2
    assert len(fake.pieces) == 2
    assert capsys.readouterr().err == (
        "qprop: error: cannot write output: [Errno 28] No space left on device\n")

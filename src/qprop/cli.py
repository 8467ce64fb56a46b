"""
Command-line surface: one subcommand per model plus a config-file runner.

Every command is deterministic given its flags and seed. Stochastic
commands (equivalence, sample) take --seed or fall back to the QPROP_SEED
environment variable; the flag wins. Prices are entered in currency units
and converted to log-price internally; angles are radians unless --degrees
is given. Output is a JSON run record (default) or plot-ready CSV, with
numbers formatted to 12 significant digits either way. The run record's
wall_time_ms field is the one part of the output that varies between
otherwise identical runs.

Exit codes: 0 success, 1 model failure, 2 usage or validation error (a
request too large for the memory available, or output that cannot be
written, included).

A call imports only what it computes with: every usage error is decided
before a model module is loaded, and a command loads its own model module
(decision or propensity) alone, numpy only when that module needs arrays.
"""
from __future__ import annotations

import argparse
import configparser
import importlib
import json
import math
import numbers
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    import numpy as np

    from . import decision, propensity

# Largest grid (N of LO:HI:N) and largest number of sample draws: both are
# output rows, about 0.4-0.5 KB of peak memory each in a force grid.
MAX_ROWS = 2_000_000


class UsageError(Exception):
    """Bad flags, config, or parameter values; exits with code 2."""


class ModelError(Exception):
    """The requested computation failed or did not pass; exits with code 1."""


# ============================================================
# Parameter schema shared by command-line flags and config files
# ============================================================

@dataclass(frozen=True)
class Param:
    name: str                      # canonical underscore name
    kind: str                      # float | posfloat | posint | choice | grid | flag
    required: bool = False
    default: object = None
    choices: tuple = ()
    cli_only: bool = False
    maximum: int | None = None     # posint cap, checked before anything is built
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    @property
    def config_key(self) -> str:
        return self.name.replace("_", "-")


def _curve_pair_params() -> list[Param]:
    out = []
    for side in ("buyer", "seller"):
        out.append(Param(f"{side}_mean_price", "posfloat",
                         help=f"{side} mean price in currency units"))
        out.append(Param(f"{side}_sigma", "posfloat",
                         help=f"{side} curve width in log-price units"))
        out.append(Param(f"{side}_fixed_price", "posfloat",
                         help=f"fixed, non-negotiable {side} price"))
    return out


def _scale_params() -> list[Param]:
    return [
        Param("gamma", "posfloat", help="energy scale used directly"),
        Param("omega", "posfloat", help="oscillator frequency (gamma = hbar*omega/2)"),
        Param("hbar", "posfloat", help="action quantum, defaults to 1"),
    ]


_MODEL_PARAMS: dict[str, list[Param]] = {
    "order-effect": [
        Param("theta", "float", required=True, help="basis angle of question A (radians)"),
        Param("phi", "float", required=True, help="basis offset of question B (radians)"),
        Param("order", "choice", choices=("ab", "ba"), default="ab",
              help="which question is asked first"),
        Param("degrees", "flag", cli_only=True, help="interpret angles as degrees"),
    ],
    "interference": [
        Param("theta", "float", required=True, help="basis angle of question A (radians)"),
        Param("phi", "float", required=True, help="basis offset of question B (radians)"),
        Param("degrees", "flag", cli_only=True, help="interpret angles as degrees"),
    ],
    "equivalence": [
        Param("trials", "posint", required=True, help="number of random gate pairs"),
        Param("tol", "float", default=1e-12, help="per-event tolerance"),
    ],
    "reversal": [
        Param("x1", "posfloat", required=True, help="cost of the less attractive option"),
        Param("x2", "posfloat", required=True, help="cost of the more attractive option"),
    ],
    "force": [
        Param("mean_price", "posfloat", required=True, help="curve mean in currency units"),
        Param("sigma", "posfloat", required=True, help="curve width in log-price units"),
        Param("price", "posfloat", help="evaluation price in currency units"),
        *_scale_params(),
        Param("grid", "grid", help="LO:HI:N price grid for curve output"),
    ],
    "oscillator": [
        Param("sigma", "posfloat", required=True, help="curve width in log-price units"),
        Param("omega", "posfloat", default=1.0, help="oscillator frequency"),
        Param("hbar", "posfloat", default=1.0, help="action quantum"),
    ],
    "joint": [
        *_curve_pair_params(),
        *_scale_params(),
        Param("grid", "grid", help="LO:HI:N price grid for curve output"),
    ],
    "work": [
        Param("mean_price", "posfloat", required=True, help="curve mean in currency units"),
        Param("sigma", "posfloat", required=True, help="curve width in log-price units"),
        Param("price1", "posfloat", required=True, help="starting price"),
        Param("price2", "posfloat", required=True, help="ending price"),
        *_scale_params(),
    ],
    "sample": [
        Param("trials", "posint", required=True, maximum=MAX_ROWS,
              help="number of price draws"),
        *_curve_pair_params(),
    ],
}

_MODEL_HELP = {
    "order-effect": "joint answer probabilities and marginals for both question orders",
    "interference": "gap between deciding B with and without settling A first",
    "equivalence": "sequential versus entangled circuit check over random gate pairs",
    "reversal": "cost-ratio rule for preference reversal",
    "force": "entropic force of a propensity curve",
    "oscillator": "oscillator parameters derived from a curve width",
    "joint": "product of buyer and seller propensity curves",
    "work": "energy to move a mental price state between two prices",
    "sample": "seeded price draws from a joint propensity",
}

_STOCHASTIC = frozenset({"equivalence", "sample"})

# The modules each model computes with, imported before its timer starts.
_MODEL_MODULES = {
    "order-effect": (".decision",),
    "interference": (".decision",),
    "equivalence": (".decision", ".qubits", "numpy"),
    "reversal": (".decision",),
    "force": (".propensity", "numpy"),
    "oscillator": (".propensity",),
    "joint": (".propensity", "numpy"),
    "work": (".propensity", "numpy"),
    "sample": (".propensity", "numpy"),
}


# ============================================================
# Output formatting
# ============================================================

def _fmt(value) -> str:
    """One CSV cell, floats at 12 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format(float(value) + 0.0, ".12g")
    return str(value)


def _round12(obj):
    """Payload copy with every float rounded to 12 significant digits.

    Arrays pass through untouched; _render_json formats them as columns.
    """
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(format(float(obj) + 0.0, ".12g"))
    return obj


def _cells(column) -> list[str]:
    """The CSV cells of one column: _fmt of each value, numeric arrays in bulk.

    One %-format over a whole float column is about a fifth faster than a
    format call per value, and gives the same text; an integer column is
    printed as Python ints print.
    """
    kind = getattr(getattr(column, "dtype", None), "kind", None)
    if kind == "f":
        values = (column + 0.0).tolist()
        return ("%.12g\n" * len(values) % tuple(values)).split("\n")[:-1]
    if kind in ("i", "u"):
        return list(map(str, column.tolist()))
    return [_fmt(value) for value in column]


def _json_tokens(column: np.ndarray) -> list[str]:
    """JSON numbers of a float column, as json.dumps prints _round12 of each value.

    A 12-digit cell is already the token unless it lacks a decimal point
    or has an exponent; _json_token settles those few.
    """
    return [cell if "." in cell and "e" not in cell else _json_token(cell)
            for cell in _cells(column)]


def _json_token(cell: str) -> str:
    if "e" not in cell and "n" not in cell:
        return cell + ".0"                # integer value: json prints 2.0
    if "e-" in cell and "e-3" not in cell:
        return cell                       # a normal |v| < 1e-4 prints alike
    # 1e12 <= |v| < 1e16 prints positionally in JSON, a subnormal's shortest
    # form has fewer digits, and nan and inf are spelled NaN and Infinity.
    return json.dumps(float(cell))


def _quantities(results: dict, prefix: str = ""):
    """(name, value) pairs of a results listing; nested dicts flatten to
    parent_key names, and a curve's kind label is left out."""
    for key, value in results.items():
        if isinstance(value, dict):
            yield from _quantities(value, f"{prefix}{key}_")
        elif key != "kind":
            yield prefix + key, value


@dataclass
class CommandResult:
    model: str
    results: dict                # numbers, strings, nested dicts and float arrays
    table: dict | None = None    # CSV columns by header; None: results as quantity,value
    exit_code: int = 0
    message: str | None = None


# ============================================================
# Model executors (shared by direct flags and config files)
# ============================================================

def _resolve_scale(params: dict) -> propensity.EntropicScale:
    from . import propensity

    gamma = params.get("gamma")
    omega = params.get("omega")
    hbar = params.get("hbar")
    if gamma is not None:
        return propensity.EntropicScale.direct(gamma)
    return propensity.EntropicScale.from_oscillator(
        omega if omega is not None else 1.0,
        hbar if hbar is not None else 1.0)


def _grid_bounds(spec: str) -> tuple[float, float, int]:
    """Parse LO:HI:N in currency units, checking it without building it."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be LO:HI:N, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"grid must be LO:HI:N with numeric bounds, got {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("grid bounds must be finite")
    if lo <= 0 or hi <= lo:
        raise UsageError("grid needs 0 < LO < HI")
    if n < 2:
        raise UsageError("grid needs at least 2 points")
    if n > MAX_ROWS:
        raise UsageError(f"grid needs at most {MAX_ROWS} points")
    return lo, hi, n


def _grid_columns(spec: str) -> tuple[np.ndarray, np.ndarray]:
    """The log-price and price columns of a checked LO:HI:N grid."""
    import numpy as np

    lo, hi, n = _grid_bounds(spec)
    x = np.linspace(math.log(lo), math.log(hi), n)
    return x, np.exp(x)


def _marginals_dict(m: decision.Marginals) -> dict[str, float]:
    return {"A_yes": m.a_yes, "A_no": m.a_no, "B_yes": m.b_yes, "B_no": m.b_no}


def _exec_order_effect(params: dict) -> CommandResult:
    from . import decision

    theta, phi = params["theta"], params["phi"]
    order = decision.QuestionOrder(params["order"])
    dist = decision.order_effect_circuit(decision.DecisionScenario(theta, phi, order))
    summary = decision.order_effect_summary(theta, phi)
    marginals = {"a_then_b": _marginals_dict(summary.a_then_b),
                 "b_then_a": _marginals_dict(summary.b_then_a)}
    results = {
        "theta": theta,
        "phi": phi,
        "order": order.value,
        "joint": dist.as_dict(),
        "marginals": marginals,
        "order_effect_magnitude": decision.order_effect_magnitude(theta, phi),
    }
    rows = [["joint", order.value, label, p] for label, p in dist.as_dict().items()]
    for name, marg in (("ab", marginals["a_then_b"]), ("ba", marginals["b_then_a"])):
        rows.extend(["marginal", name, key, value] for key, value in marg.items())
    return CommandResult("order-effect", results,
                         dict(zip(["kind", "order", "label", "value"], zip(*rows))))


def _exec_interference(params: dict) -> CommandResult:
    from . import decision

    theta, phi = params["theta"], params["phi"]
    results = {
        "theta": theta,
        "phi": phi,
        "b_yes_unmeasured": decision.unmeasured_b_yes(theta, phi),
        "b_yes_measured": decision.measured_b_yes(theta, phi),
        "interference": decision.interference_term(theta, phi),
        "order_effect_magnitude": decision.order_effect_magnitude(theta, phi),
    }
    return CommandResult("interference", results)


def _exec_equivalence(params: dict) -> CommandResult:
    import numpy as np

    from . import decision

    trials, tol = params["trials"], params["tol"]
    if tol == 0.0:
        raise ModelError(
            "tolerance 0 demands exact floating-point equality, which the circuits "
            "do not promise; the routes agree to about 1e-15, so pass a positive tolerance")
    sweep = decision.equivalence_sweep(np.random.default_rng(params["seed"]), trials, tol)
    max_dev, failures = sweep.max_abs_deviation, sweep.failures
    results = {
        "trials": trials,
        "tol": tol,
        "max_abs_deviation": max_dev,
        "moduli_identity_max_deviation": sweep.moduli_identity_max_deviation,
        "failures": failures,
        "all_passed": failures == 0,
    }
    return CommandResult("equivalence", results,
                         {key: [value] for key, value in results.items()},
                         exit_code=0 if failures == 0 else 1,
                         message=None if failures == 0 else
                         f"{failures} of {trials} gate pairs deviated beyond {tol:g} "
                         f"(max deviation {max_dev:.3e})")


def _exec_reversal(params: dict) -> CommandResult:
    from . import decision

    outcome = decision.preference_reversal_switch(params["x1"], params["x2"])
    results = {"x1": outcome.x1, "x2": outcome.x2,
               "ratio": outcome.ratio, "switches": outcome.switches}
    return CommandResult("reversal", results)


def _exec_force(params: dict) -> CommandResult:
    from . import propensity

    curve = propensity.GaussianCurve(math.log(params["mean_price"]), params["sigma"])
    scale = _resolve_scale(params)
    grid = params.get("grid")
    price = params.get("price")
    if grid is not None:
        x, prices = _grid_columns(grid)
        dens = propensity.density(curve, x)
        force = propensity.entropic_force(curve, x, scale)
        results = {
            "mu": curve.mu,
            "sigma": curve.sigma,
            "gamma": scale.gamma,
            "force_constant": scale.gamma / curve.sigma ** 2,
            "columns": {"x": x, "price": prices, "density": dens, "force": force},
        }
        return CommandResult("force", results, results["columns"])
    x = math.log(price)
    results = {
        "mu": curve.mu,
        "sigma": curve.sigma,
        "gamma": scale.gamma,
        "force_constant": scale.gamma / curve.sigma ** 2,
        "x": x,
        "price": price,
        "density": propensity.density(curve, x),
        "force": propensity.entropic_force(curve, x, scale),
    }
    return CommandResult("force", results)


def _exec_oscillator(params: dict) -> CommandResult:
    from . import propensity

    p = propensity.OscillatorParams(omega=params["omega"], sigma=params["sigma"],
                                    hbar=params["hbar"])
    results = {"sigma": p.sigma, "omega": p.omega, "hbar": p.hbar,
               "mass": p.mass, "gamma": p.gamma, "force_constant": p.force_constant}
    return CommandResult("oscillator", results)


def _gaussian_side(params: dict, side: str) -> propensity.GaussianCurve:
    from . import propensity

    return propensity.GaussianCurve(math.log(params[f"{side}_mean_price"]),
                                    params[f"{side}_sigma"])


def _build_pair(params: dict) -> propensity.JointPropensity:
    """The joint of a pair that _check_pair has accepted."""
    from . import propensity

    buyer_fixed = params.get("buyer_fixed_price")
    seller_fixed = params.get("seller_fixed_price")
    if seller_fixed is not None:
        return propensity.fixed_price_joint(_gaussian_side(params, "buyer"),
                                            math.log(seller_fixed), fixed_side="seller")
    if buyer_fixed is not None:
        return propensity.fixed_price_joint(_gaussian_side(params, "seller"),
                                            math.log(buyer_fixed), fixed_side="buyer")
    return propensity.joint_propensity(_gaussian_side(params, "buyer"),
                                       _gaussian_side(params, "seller"))


def _curve_dict(curve: propensity.PropensityCurve) -> dict:
    from . import propensity

    if isinstance(curve, propensity.GaussianCurve):
        return {"kind": "gaussian", "mu": curve.mu, "sigma": curve.sigma,
                "mean_price": math.exp(curve.mu)}
    return {"kind": "point_mass", "x": curve.point, "price": math.exp(curve.point)}


def _exec_joint(params: dict) -> CommandResult:
    from . import propensity

    pair = _build_pair(params)
    grid = params.get("grid")
    if grid is not None:
        scale = _resolve_scale(params)
        x, prices = _grid_columns(grid)
        buyer_density = propensity.density(pair.buyer, x)
        seller_density = propensity.density(pair.seller, x)
        joint_density = pair.scale * propensity.density(pair.joint, x)
        buyer_force = propensity.entropic_force(pair.buyer, x, scale)
        seller_force = propensity.entropic_force(pair.seller, x, scale)
        joint_force = propensity.entropic_force(pair.joint, x, scale)
        header = ["x", "price", "buyer_density", "seller_density", "joint_density",
                  "buyer_force", "seller_force", "joint_force"]
        columns = [x, prices, buyer_density, seller_density, joint_density,
                   buyer_force, seller_force, joint_force]
        results = {
            "buyer": _curve_dict(pair.buyer),
            "seller": _curve_dict(pair.seller),
            "joint": _curve_dict(pair.joint),
            "scale": pair.scale,
            "gamma": scale.gamma,
            "columns": dict(zip(header, columns)),
        }
        return CommandResult("joint", results, results["columns"])
    results = {
        "buyer": _curve_dict(pair.buyer),
        "seller": _curve_dict(pair.seller),
        "joint": _curve_dict(pair.joint),
        "scale": pair.scale,
    }
    return CommandResult("joint", results)


def _exec_work(params: dict) -> CommandResult:
    from . import propensity

    curve = propensity.GaussianCurve(math.log(params["mean_price"]), params["sigma"])
    scale = _resolve_scale(params)
    x1, x2 = math.log(params["price1"]), math.log(params["price2"])
    delta_e = propensity.work(curve, x1, x2, scale)
    results = {
        "mu": curve.mu,
        "sigma": curve.sigma,
        "gamma": scale.gamma,
        "x1": x1,
        "x2": x2,
        "price1": params["price1"],
        "price2": params["price2"],
        "delta_e": delta_e,
        "density_ratio": math.exp(delta_e / scale.gamma),
    }
    return CommandResult("work", results)


def _exec_sample(params: dict) -> CommandResult:
    import numpy as np

    from . import propensity

    pair = _build_pair(params)
    rng = np.random.default_rng(params["seed"])
    draws = propensity.sample_prices(pair, params["trials"], rng)
    prices = np.exp(draws)
    results = {
        "trials": params["trials"],
        "joint": _curve_dict(pair.joint),
        "scale": pair.scale,
        "log_prices": draws,
        "prices": prices,
    }
    return CommandResult("sample", results,
                         {"index": np.arange(len(draws)), "x": draws, "price": prices})


_EXECUTORS = {
    "order-effect": _exec_order_effect,
    "interference": _exec_interference,
    "equivalence": _exec_equivalence,
    "reversal": _exec_reversal,
    "force": _exec_force,
    "oscillator": _exec_oscillator,
    "joint": _exec_joint,
    "work": _exec_work,
    "sample": _exec_sample,
}


# ============================================================
# Validation, config files, dispatch
# ============================================================

def _validate_params(model: str, params: dict) -> None:
    for spec in _MODEL_PARAMS[model]:
        value = params.get(spec.name)
        if value is None:
            continue
        if spec.kind in ("float", "posfloat"):
            if not math.isfinite(value):
                raise UsageError(f"{spec.config_key} must be finite")
            if spec.kind == "posfloat" and value <= 0:
                raise UsageError(f"{spec.config_key} must be positive")
        elif spec.kind == "posint":
            if value < 1:
                raise UsageError(f"{spec.config_key} must be at least 1")
            if spec.maximum is not None and value > spec.maximum:
                raise UsageError(f"{spec.config_key} must be at most {spec.maximum}")
        elif spec.kind == "choice":
            if value not in spec.choices:
                raise UsageError(f"{spec.config_key} must be one of {spec.choices}")


def _check_pair(params: dict) -> None:
    """A buyer/seller pair: each side a mean-price and sigma curve, or at most
    one side a fixed price."""
    fixed = {side: params.get(f"{side}_fixed_price") for side in ("buyer", "seller")}
    if None not in fixed.values():
        raise UsageError("at most one side can fix its price")
    curves = {side: (params.get(f"{side}_mean_price"), params.get(f"{side}_sigma"))
              for side in fixed}
    for side in fixed:
        if fixed[side] is not None and curves[side] != (None, None):
            raise UsageError(f"{side}-fixed-price excludes the {side} curve parameters")
    for side in fixed:
        if fixed[side] is None and None in curves[side]:
            raise UsageError(f"the {side} needs {side}-mean-price and {side}-sigma, "
                             f"or a {side}-fixed-price")


def _check_combinations(model: str, params: dict) -> None:
    """Usage rules that tie parameters to each other, in the order the
    executors would meet them, so that no model module is loaded for a call
    that cannot run."""
    grid = params.get("grid")
    if model in ("joint", "sample"):
        _check_pair(params)
    if model == "joint" and grid is not None and (
            params.get("buyer_fixed_price") is not None
            or params.get("seller_fixed_price") is not None):
        raise UsageError("curve output needs two Gaussian curves, not a fixed price")
    if ((model in ("force", "work") or grid is not None)
            and params.get("gamma") is not None
            and (params.get("omega") is not None or params.get("hbar") is not None)):
        raise UsageError("pass either gamma or omega/hbar, not both")
    if model == "force" and (grid is None) == (params.get("price") is None):
        raise UsageError("pass exactly one of price or grid")
    if grid is not None:
        _grid_bounds(grid)
    if model == "equivalence" and params["tol"] < 0:
        raise UsageError("tolerance must not be negative")


def _resolve_seed(flag_seed: int | None) -> int | None:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("QPROP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"QPROP_SEED must be an integer, got {env!r}")
    return None


def _line_of(text: str, key: str) -> str:
    pattern = re.compile(rf"^\s*{re.escape(key)}\s*[=:]", re.IGNORECASE)
    for i, line in enumerate(text.splitlines(), start=1):
        if pattern.match(line):
            return str(i)
    return "?"


def _convert_config_value(spec: Param, raw: str, where: str) -> object:
    try:
        if spec.kind in ("float", "posfloat"):
            return float(raw)
        if spec.kind == "posint":
            return int(raw)
    except ValueError:
        raise UsageError(f"{where}: {spec.config_key} must be a number, got {raw!r}")
    return raw.strip()


def load_config(path: str) -> tuple[str, dict, str, int | None]:
    """Parse a key = value config file into (model, params, output, seed).

    The [run] section names the model and output format; the model's own
    section holds its parameters under the flag names (angles in radians,
    prices in currency units). Unknown sections or keys are fatal.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        parser.read_string(text, source=path)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        raise UsageError(f"config parse error: {exc}")
    if not parser.has_section("run"):
        raise UsageError(f"{path}: missing [run] section")
    run = parser["run"]
    for key in run:
        if key not in ("model", "output"):
            raise UsageError(f"{path}:{_line_of(text, key)}: unknown key {key!r} in [run]")
    model = run.get("model")
    if not model:
        raise UsageError(f"{path}: [run] must name a model")
    if model not in _MODEL_PARAMS:
        raise UsageError(f"{path}: unknown model {model!r}; choose from "
                         f"{', '.join(sorted(_MODEL_PARAMS))}")
    output = run.get("output", "json")
    if output not in ("json", "csv"):
        raise UsageError(f"{path}: output must be json or csv, got {output!r}")
    extras = set(parser.sections()) - {"run", model}
    if extras:
        raise UsageError(f"{path}: unexpected section(s): {', '.join(sorted(extras))}")
    if not parser.has_section(model):
        raise UsageError(f"{path}: missing [{model}] section")
    specs = {s.config_key: s for s in _MODEL_PARAMS[model] if not s.cli_only}
    params: dict = {}
    seed: int | None = None
    for key in parser[model]:
        raw = parser[model][key]
        where = f"{path}:{_line_of(text, key)}"
        if key == "seed":
            if model not in _STOCHASTIC:
                raise UsageError(f"{where}: unknown key 'seed' for model {model!r}")
            try:
                seed = int(raw)
            except ValueError:
                raise UsageError(f"{where}: seed must be an integer, got {raw!r}")
            continue
        if key not in specs:
            raise UsageError(f"{where}: unknown key {key!r} for model {model!r}")
        params[specs[key].name] = _convert_config_value(specs[key], raw, where)
    for spec in specs.values():
        if spec.name not in params:
            if spec.required:
                raise UsageError(f"{path}: [{model}] is missing required key "
                                 f"{spec.config_key!r}")
            if spec.default is not None:
                params[spec.name] = spec.default
    return model, params, output, seed


def _render_csv(result: CommandResult) -> str:
    table = result.table
    if table is None:
        names, values = zip(*_quantities(result.results))
        table = {"quantity": names, "value": values}
    lines = [",".join(table)]
    lines.extend(map(",".join, zip(*map(_cells, table.values()))))
    return "\n".join(lines) + "\n"


# Stands in for an array while json.dumps runs. No string of a record holds a
# NUL: argv cannot carry one, and the only free-text value (a grid spec) is
# parsed as numbers before anything is rendered.
_ARRAY_SLOT = "\0array"


def _render_json(record: dict) -> str:
    """json.dumps(record, indent=2), with each float array formatted as a column.

    json.dumps leaves a placeholder where an array goes; each placeholder is
    then replaced by the array's tokens at the indent of the line it is on.
    Arrays are never empty: grids have two points or more, samples one draw.
    """
    arrays = []

    def defer(array: np.ndarray) -> str:
        arrays.append(array)
        return _ARRAY_SLOT

    pieces = json.dumps(record, indent=2, default=defer).split(
        json.dumps(_ARRAY_SLOT))
    out = [pieces[0]]
    for array, piece in zip(arrays, pieces[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        indent = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        item = indent + "  "
        out.append("[" + item + ("," + item).join(_json_tokens(array)) + indent + "]")
        out.append(piece)
    return "".join(out) + "\n"


def _render(result: CommandResult, params: dict, output: str,
            seed: int | None, elapsed_ms: float) -> str:
    if output == "csv":
        return _render_csv(result)
    echo = {key: value for key, value in params.items()
            if value is not None and key != "seed"}
    record = {
        "command": result.model,
        "config": {"model": result.model, "parameters": _round12(echo),
                   "output": output},
        "version": __version__,
        "seed": seed,
        "wall_time_ms": round(elapsed_ms, 3),
        "results": _round12(result.results),
    }
    return _render_json(record)


def _write(text: str, out_path: str | None) -> None:
    """Write the output to out_path or stdout; any failure is a usage error."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        elif sys.stdout is None:
            raise OSError("standard output is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}")


def _run_model(model: str, params: dict, output: str, seed: int | None,
               out_path: str | None = None) -> int:
    _validate_params(model, params)
    if model in _STOCHASTIC:
        if seed is None:
            raise UsageError(f"model {model!r} is stochastic; pass --seed or set QPROP_SEED")
        if seed < 0:
            raise UsageError("seed must be a nonnegative integer")
        params = dict(params, seed=seed)
    else:
        seed = None
    _check_combinations(model, params)
    for name in _MODEL_MODULES[model]:
        importlib.import_module(name, __package__)
    start = time.perf_counter()
    try:
        result = _EXECUTORS[model](params)
    except ValueError as exc:
        raise UsageError(str(exc))
    except ArithmeticError as exc:        # a result beyond the range of a float
        raise UsageError(f"parameters out of floating-point range: {exc}")
    except RuntimeError as exc:           # a model's self-check failed
        raise ModelError(str(exc))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    _write(_render(result, params, output, seed, elapsed_ms), out_path)
    if result.message:
        print(f"qprop: {result.message}", file=sys.stderr)
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprop",
        description="Decision circuits and propensity dynamics for economic choices.")
    parser.add_argument("--version", action="version", version=f"qprop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for model, specs in _MODEL_PARAMS.items():
        p = sub.add_parser(model, help=_MODEL_HELP[model])
        for spec in specs:
            if spec.kind == "flag":
                p.add_argument(spec.flag, action="store_true", help=spec.help)
            elif spec.kind == "posint":
                p.add_argument(spec.flag, type=int, required=spec.required,
                               default=spec.default, help=spec.help)
            elif spec.kind in ("float", "posfloat"):
                p.add_argument(spec.flag, type=float, required=spec.required,
                               default=spec.default, help=spec.help)
            elif spec.kind == "choice":
                p.add_argument(spec.flag, choices=spec.choices,
                               default=spec.default, help=spec.help)
            else:
                p.add_argument(spec.flag, default=spec.default, help=spec.help)
        if model in _STOCHASTIC:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed; falls back to QPROP_SEED")
        p.add_argument("--output", choices=("json", "csv"), default="json",
                       help="output format")
    runner = sub.add_parser("run", help="run a model described by a config file")
    runner.add_argument("config", help="path to the key = value config file")
    runner.add_argument("--out", default=None, help="write output to this path")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        model, params, output, seed = load_config(args.config)
        if model in _STOCHASTIC and seed is None:
            seed = _resolve_seed(None)
        return _run_model(model, params, output, seed, out_path=args.out)
    model = args.command
    params = {spec.name: getattr(args, spec.name) for spec in _MODEL_PARAMS[model]}
    if params.pop("degrees", False):
        for key in ("theta", "phi"):
            params[key] = math.radians(params[key])
    seed = _resolve_seed(getattr(args, "seed", None)) if model in _STOCHASTIC else None
    return _run_model(model, params, args.output, seed)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"qprop: error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"qprop: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("qprop: error: not enough memory for this request", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

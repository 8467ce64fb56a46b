"""Correctness checks of qprop outputs against closed forms.

Nothing here imports qprop: every expected value is computed from the
model's closed form (the Gaussian density, the linear force -k (x - mu),
squared rotation projections, the documented construction of a random
unitary) and compared at the 12-significant-digit output precision. Each
check returns None when the output is right, else a one-line reason.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

REL_TOL = 1e-11        # 12 significant digits leave at most 5e-12 relative error
ABS_TOL = 1e-14        # floor for values that cancel to (near) zero
CIRCUIT_TOL = 1e-12
SAMPLED_SIGMAS = 5.0
_ROOT_2PI = math.sqrt(2.0 * math.pi)
_WALL_TIME = re.compile(r'"wall_time_ms": ([-0-9.eE+]+)')


class Bound:
    """Expected value that only has an upper limit."""

    def __init__(self, limit: float):
        self.limit = limit


# ============================================================
# Closed forms
# ============================================================

def _density(mu, sigma, x):
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * _ROOT_2PI)


def _gamma(p: dict) -> float:
    if p.get("gamma") is not None:
        return p["gamma"]
    return 0.5 * p.get("hbar", 1.0) * p.get("omega", 1.0)


def _grid(spec: str):
    lo, hi, n = spec.split(":")
    x = np.linspace(math.log(float(lo)), math.log(float(hi)), int(n))
    return x, np.exp(x)


def _curve(p: dict, side: str):
    """(mu, sigma) of a Gaussian side, or None for a fixed price."""
    if p.get(f"{side}_fixed_price") is not None:
        return None
    return math.log(p[f"{side}_mean_price"]), p[f"{side}_sigma"]


def _curve_fields(prefix: str, curve, fixed_price=None) -> dict:
    if curve is None:
        x = math.log(fixed_price)
        return {f"{prefix}_kind": "point_mass", f"{prefix}_x": x,
                f"{prefix}_price": math.exp(x)}
    mu, sigma = curve
    return {f"{prefix}_kind": "gaussian", f"{prefix}_mu": mu, f"{prefix}_sigma": sigma,
            f"{prefix}_mean_price": math.exp(mu)}


def _joint(p: dict):
    """Buyer, seller and joint curve fields plus the overlap mass."""
    buyer, seller = _curve(p, "buyer"), _curve(p, "seller")
    if seller is None:
        point = math.log(p["seller_fixed_price"])
        fields = {**_curve_fields("buyer", buyer),
                  **_curve_fields("seller", None, p["seller_fixed_price"]),
                  **_curve_fields("joint", None, p["seller_fixed_price"])}
        return fields, None, float(_density(buyer[0], buyer[1], point)), buyer, seller
    (mb, sb), (ms, ss) = buyer, seller
    precision = 1.0 / sb ** 2 + 1.0 / ss ** 2
    var = 1.0 / precision
    joint = (var * (mb / sb ** 2 + ms / ss ** 2), math.sqrt(var))
    scale = float(_density(ms, math.sqrt(sb ** 2 + ss ** 2), mb))
    fields = {**_curve_fields("buyer", buyer), **_curve_fields("seller", seller),
              **_curve_fields("joint", joint)}
    return fields, joint, scale, buyer, seller


def _order_effect(theta: float, phi: float, order: str) -> dict:
    ct, st = math.cos(theta) ** 2, math.sin(theta) ** 2
    cp, sp = math.cos(phi) ** 2, math.sin(phi) ** 2
    cd, sd = math.cos(theta - phi) ** 2, math.sin(theta - phi) ** 2
    joint = ((ct * cp, ct * sp, st * sp, st * cp) if order == "ab"
             else (cp * cd, sp * sd, sp * cd, cp * sd))
    out = {f"joint_{label}": p for label, p in zip(("A+B+", "A+B-", "A-B+", "A-B-"), joint)}
    for name, marg in (("a_then_b", (ct, st, ct * cp + st * sp, ct * sp + st * cp)),
                       ("b_then_a", (cd * cp + sd * sp, cd * sp + sd * cp, cd, sd))):
        for key, value in zip(("A_yes", "A_no", "B_yes", "B_no"), marg):
            out[f"marginals_{name}_{key}"] = value
    return out


def interference(theta: float, phi: float) -> float:
    return 0.5 * math.sin(2.0 * theta) * math.sin(2.0 * phi)


def expected(model: str, p: dict, seed: int | None):
    """(scalars, columns, scalar keys the CSV form carries) for one valid call."""
    if model == "order-effect":
        scalars = {"theta": p["theta"], "phi": p["phi"], "order": p["order"],
                   "order_effect_magnitude": -interference(p["theta"], p["phi"]),
                   **_order_effect(p["theta"], p["phi"], p["order"])}
        return scalars, {}, [k for k in scalars if k.startswith(("joint_", "marginals_"))] + ["order"]
    if model == "interference":
        th, ph = p["theta"], p["phi"]
        scalars = {"theta": th, "phi": ph, "b_yes_unmeasured": math.cos(th - ph) ** 2,
                   "b_yes_measured": math.cos(th) ** 2 * math.cos(ph) ** 2
                   + math.sin(th) ** 2 * math.sin(ph) ** 2,
                   "interference": interference(th, ph),
                   "order_effect_magnitude": -interference(th, ph)}
        return scalars, {}, list(scalars)
    if model == "equivalence":
        scalars = {"trials": p["trials"], "tol": p.get("tol", 1e-12),
                   "max_abs_deviation": Bound(CIRCUIT_TOL),
                   "moduli_identity_max_deviation": Bound(CIRCUIT_TOL),
                   "failures": 0, "all_passed": True}
        return scalars, {}, list(scalars)
    if model == "reversal":
        ratio = p["x2"] / p["x1"]
        scalars = {"x1": p["x1"], "x2": p["x2"], "ratio": ratio, "switches": ratio > 3.0}
        return scalars, {}, list(scalars)
    if model == "oscillator":
        sigma, omega, hbar = p["sigma"], p.get("omega", 1.0), p.get("hbar", 1.0)
        gamma = 0.5 * hbar * omega
        scalars = {"sigma": sigma, "omega": omega, "hbar": hbar,
                   "mass": hbar / (2.0 * omega * sigma ** 2), "gamma": gamma,
                   "force_constant": gamma / sigma ** 2}
        return scalars, {}, list(scalars)
    if model in ("force", "work"):
        mu, sigma, gamma = math.log(p["mean_price"]), p["sigma"], _gamma(p)
        k = gamma / sigma ** 2
        if model == "work":
            x1, x2 = math.log(p["price1"]), math.log(p["price2"])
            delta = gamma * (-0.5 * ((x2 - mu) / sigma) ** 2 + 0.5 * ((x1 - mu) / sigma) ** 2)
            scalars = {"mu": mu, "sigma": sigma, "gamma": gamma, "x1": x1, "x2": x2,
                       "price1": p["price1"], "price2": p["price2"], "delta_e": delta,
                       "density_ratio": math.exp(delta / gamma)}
            return scalars, {}, list(scalars)
        scalars = {"mu": mu, "sigma": sigma, "gamma": gamma, "force_constant": k}
        if p.get("grid") is None:
            x = math.log(p["price"])
            scalars.update(x=x, price=p["price"], density=float(_density(mu, sigma, x)),
                           force=-k * (x - mu))
            return scalars, {}, list(scalars)
        x, prices = _grid(p["grid"])
        columns = {"x": x, "price": prices, "density": _density(mu, sigma, x),
                   "force": -k * (x - mu)}
        return scalars, columns, []
    if model == "joint":
        fields, joint, scale, buyer, seller = _joint(p)
        scalars = {**fields, "scale": scale}
        if p.get("grid") is None:
            return scalars, {}, [k for k in scalars if not k.endswith("_kind")]
        gamma = _gamma(p)
        scalars["gamma"] = gamma
        x, prices = _grid(p["grid"])
        columns = {"x": x, "price": prices}
        for name, (mu, sigma) in (("buyer", buyer), ("seller", seller), ("joint", joint)):
            dens = _density(mu, sigma, x)
            columns[f"{name}_density"] = scale * dens if name == "joint" else dens
            columns[f"{name}_force"] = -(gamma / sigma ** 2) * (x - mu)
        return scalars, columns, []
    if model == "sample":
        fields, joint, scale, _, _ = _joint(p)
        scalars = {"trials": p["trials"], "scale": scale,
                   **{k: v for k, v in fields.items() if k.startswith("joint_")}}
        draws = np.random.default_rng(seed).normal(joint[0], joint[1], size=p["trials"])
        return scalars, {"x": draws, "price": np.exp(draws)}, []
    raise ValueError(f"no closed form for model {model!r}")


# ============================================================
# Parsing the two output formats
# ============================================================

_COLUMN_ALIASES = {"log_prices": "x", "prices": "price"}


def _flatten(obj: dict, prefix: str, scalars: dict, columns: dict) -> None:
    for key, value in obj.items():
        if key == "columns":
            columns.update({name: np.asarray(col, dtype=np.float64)
                            for name, col in value.items()})
        elif isinstance(value, dict):
            _flatten(value, f"{prefix}{key}_", scalars, columns)
        elif isinstance(value, list):
            columns[_COLUMN_ALIASES.get(key, key)] = np.asarray(value, dtype=np.float64)
        else:
            scalars[prefix + key] = value


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_json(text: str, model: str, seed: int | None):
    record = json.loads(text)
    if record.get("command") != model or record.get("seed") != seed:
        raise ValueError(f"record names command {record.get('command')!r} seed "
                         f"{record.get('seed')!r}, expected {model!r} seed {seed!r}")
    scalars, columns = {}, {}
    _flatten(record["results"], "", scalars, columns)
    rows = max((len(col) for col in columns.values()), default=1)
    return scalars, columns, rows


def parse_csv(text: str, has_columns: bool):
    lines = text.splitlines()
    header, body = lines[0].split(","), lines[1:]
    scalars, columns = {}, {}
    if has_columns:
        flat = np.array(",".join(body).split(","), dtype=np.float64) if body else np.zeros(0)
        table = flat.reshape(len(body), len(header))
        columns = {name: table[:, i] for i, name in enumerate(header)}
    elif header == ["quantity", "value"]:
        scalars = {key: _cell(value) for key, value in (line.split(",", 1) for line in body)}
    elif header == ["kind", "order", "label", "value"]:
        for kind, order, label, value in (line.split(",") for line in body):
            if kind == "joint":
                scalars["order"] = order
                scalars[f"joint_{label}"] = _cell(value)
            else:
                name = {"ab": "a_then_b", "ba": "b_then_a"}[order]
                scalars[f"marginals_{name}_{label}"] = _cell(value)
    else:
        scalars = dict(zip(header, map(_cell, body[0].split(","))))
    return scalars, columns, len(body)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


def _compare(scalars: dict, columns: dict, want_scalars: dict, want_columns: dict, keys):
    for key in keys:
        if key not in scalars:
            return f"missing {key}"
        got, want = scalars[key], want_scalars[key]
        numeric = isinstance(got, (int, float)) and not isinstance(got, bool)
        if isinstance(want, Bound):
            ok = numeric and got <= want.limit
        elif isinstance(want, (bool, str)):
            ok = got == want and type(got) is type(want)
        else:
            ok = numeric and _close(got, want)
        if not ok:
            return f"{key} = {got!r}, expected {getattr(want, 'limit', want)!r}"
    for name, want in want_columns.items():
        got = columns.get(name)
        if got is None:
            return f"missing column {name}"
        if got.shape != want.shape:
            return f"column {name} has {got.shape[0]} rows, expected {want.shape[0]}"
        tol = REL_TOL * np.abs(want) + ABS_TOL * max(1.0, float(np.max(np.abs(want))))
        bad = np.flatnonzero(~(np.abs(got - want) <= tol))
        if bad.size:
            i = int(bad[0])
            return f"column {name} row {i} = {got[i]!r}, expected {want[i]!r}"
    return None


# ============================================================
# Checks of whole operations
# ============================================================

def output_bytes(text: str) -> int:
    """Bytes of an output, less the wall_time_ms digits, the one varying field."""
    match = _WALL_TIME.search(text)
    return len(text.encode()) - (len(match.group(1)) if match else 0)


def check_cli(op, code, stdout: str, stderr: str, written: str | None):
    """Reason the invocation failed, or None; also returns the output's row count."""
    if "Traceback" in stderr:
        return "traceback on stderr", 0
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}: {stderr.strip()[:200]}", 0
    if op.expect_exit != 0:
        return (f"rejected call wrote {len(stdout)} bytes to stdout" if stdout else None), 0
    text = written if op.out_file else stdout
    if not text:
        return "empty output", 0
    want_scalars, want_columns, csv_keys = expected(op.model, op.params, op.seed)
    try:
        if op.output == "json":
            scalars, columns, rows = parse_json(text, op.model, op.seed)
            keys = list(want_scalars)
        else:
            scalars, columns, rows = parse_csv(text, bool(want_columns))
            keys = csv_keys
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable {op.output} output: {exc}", 0
    return _compare(scalars, columns, want_scalars, want_columns, keys), rows


def _unitary(rng: np.random.Generator) -> np.ndarray:
    u = rng.random()
    a, b, d = rng.uniform(0.0, 2.0 * math.pi, size=3)
    theta = math.asin(math.sqrt(u))
    c, s = math.cos(theta), math.sin(theta)
    ea, eb = complex(math.cos(a), math.sin(a)), complex(math.cos(b), math.sin(b))
    ed = complex(math.cos(d), math.sin(d))
    return ed * np.array([[ea * c * eb, -ea * s], [s * eb, c]])


def check_batch(op, result: dict):
    """Reason the circuit batch is wrong, or None."""
    spec = op.params
    grid = np.asarray(result["grid"], dtype=np.float64)
    want = []
    for theta in spec["thetas"]:
        for phi in spec["phis"]:
            m = _order_effect(theta, phi, "ab")
            want.append([*(m[f"marginals_{o}_{k}"] for o in ("a_then_b", "b_then_a")
                           for k in ("A_yes", "A_no", "B_yes", "B_no")),
                         interference(theta, phi)])
    want = np.asarray(want)
    if grid.shape != want.shape:
        return f"grid has shape {grid.shape}, expected {want.shape}"
    dev = float(np.max(np.abs(grid - want)))
    if not dev <= CIRCUIT_TOL:
        return f"order-effect grid deviates from closed forms by {dev:.3g}"
    rng = np.random.default_rng(spec["unitary_seed"])
    a, b = _unitary(rng), _unitary(rng)
    for got, gate in zip(result["gates"], (a, b)):
        got = np.array([complex(re, im) for re, im in got]).reshape(2, 2)
        if not np.max(np.abs(got - gate)) <= CIRCUIT_TOL:
            return "random unitary differs from its documented construction"
    exact = [abs(a[0, 0] * b[0, 0]) ** 2, abs(a[0, 0] * b[1, 0]) ** 2,
             abs(a[1, 0] * b[0, 1]) ** 2, abs(a[1, 0] * b[1, 1]) ** 2]
    n = spec["trials"]
    for label, freq, p in zip(("A+B+", "A+B-", "A-B+", "A-B-"), result["sampled"], exact):
        # the 1/n floor keeps the limit meaningful for events rarer than one trial
        se = math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)
        if abs(freq - p) > SAMPLED_SIGMAS * se:
            return f"sampled {label} frequency {freq} is {abs(freq - p) / se:.1f} SE from {p:.6f}"
    return None

"""Experiment configuration: flat key/value sections in INI syntax.

Schema (see README for a worked example):

    [model]                         required unless the initial data is a
    mass = 1.0                      counterexample, and refused beside one
    positions = 0.0 0.2             (its family brings its model)
    coefficients_1 = 0 -2 1         one entry per oscillator, low degree first
    coefficients_2 = 0 -2 1

    [grid]
    x_min = -50
    x_max = 50
    dx_target = 0.02

    [run]
    T = 90
    dt = 0.009
    observe_every = 5
    seminorm_radii = 1 2 5          optional, default empty

    [initial_data]
    kind = solitary | perturbed_solitary | counterexample | file | zero
    omega = 0.4                     solitary / perturbed_solitary
    noise_amplitude = 0.1           perturbed_solitary (energy fraction)
    seed = 7                        perturbed_solitary
    family = wide_gap | linear_deg  counterexample
    L = 3.141592653589793           counterexample parameters ...
    alpha = 2.0
    beta = -1.0
    path = state.csv                file

Unknown sections and keys are ignored.  A comment takes a line of its own,
starting with ';' or '#'.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .model import ModelSpec, OscillatorSpec

__all__ = [
    "ConfigError",
    "GridConfig",
    "RunConfig",
    "InitialDataConfig",
    "ExperimentConfig",
    "parse_config",
    "parse_windows",
    "model_to_ini",
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GridConfig:
    x_min: float
    x_max: float
    dx_target: float


@dataclass(frozen=True)
class RunConfig:
    T: float
    dt: float
    observe_every: int = 1
    seminorm_radii: tuple[float, ...] = ()


@dataclass(frozen=True)
class InitialDataConfig:
    kind: str
    omega: float | None = None
    noise_amplitude: float = 0.0
    seed: int = 0
    family: str | None = None
    params: dict = field(default_factory=dict)
    path: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec | None
    grid: GridConfig | None
    run: RunConfig | None
    initial: InitialDataConfig | None


# the key each initial-data kind cannot do without
_REQUIRED_INITIAL_KEY = {
    "solitary": "omega",
    "perturbed_solitary": "omega",
    "counterexample": "family",
    "file": "path",
    "zero": None,
}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def parse_windows(text: str) -> tuple[tuple[float, float], ...]:
    """Parse 't0:T[,t0:T...]' window lists."""
    out = []
    for item in text.replace(" ", ",").split(","):
        if not item:
            continue
        parts = item.split(":")
        try:
            t0, T = (float(p) for p in parts)
        except ValueError as err:
            raise ConfigError(f"window {item!r} is not of the form t0:T") from err
        out.append((t0, T))
    if not out:
        raise ConfigError("empty window list")
    return tuple(out)


def model_to_ini(model: ModelSpec) -> str:
    """[model] section text that parse_config reads back to an equal model."""
    lines = ["[model]", f"mass = {model.mass!r}"]
    lines.append("positions = " + " ".join(repr(p) for p in model.positions))
    for j, osc in enumerate(model.oscillators, start=1):
        lines.append(f"coefficients_{j} = " + " ".join(repr(c) for c in osc.coefficients))
    return "\n".join(lines) + "\n"


def _parse_model(section) -> ModelSpec:
    try:
        mass = float(section["mass"])
        positions = _floats(section["positions"])
    except KeyError as err:
        raise ConfigError(f"[model] missing key {err}") from err
    oscillators = []
    for j, pos in enumerate(positions, start=1):
        key = f"coefficients_{j}"
        if key not in section:
            raise ConfigError(f"[model] missing {key} for oscillator at {pos}")
        oscillators.append(OscillatorSpec(pos, _floats(section[key])))
    try:
        return ModelSpec(mass, tuple(oscillators))
    except ValueError as err:
        raise ConfigError(str(err)) from err


def parse_config(path) -> ExperimentConfig:
    """The experiment a config file describes; a file that cannot be opened raises OSError.

    A file configparser cannot read is one ConfigError line, which counts its
    malformed lines and quotes the first.
    """
    cp = configparser.ConfigParser(interpolation=None)  # a % in a value is read as it stands
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except configparser.MissingSectionHeaderError as err:
        raise ConfigError(f"cannot parse {path}: line {err.lineno}: {err.line!r} comes before any [section]") from err
    except configparser.ParsingError as err:
        (lineno, line), count = err.errors[0], len(err.errors)
        raise ConfigError(f"cannot parse {path}: {count} malformed line{'s' * (count > 1)}, "
                          f"first line {lineno}: {line}") from err
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err

    try:
        model = _parse_model(cp["model"]) if "model" in cp else None

        grid = None
        if "grid" in cp:
            s = cp["grid"]
            grid = GridConfig(float(s["x_min"]), float(s["x_max"]), float(s["dx_target"]))

        run = None
        if "run" in cp:
            s = cp["run"]
            run = RunConfig(
                T=float(s["T"]),
                dt=float(s["dt"]),
                observe_every=int(s.get("observe_every", "1")),
                seminorm_radii=_floats(s.get("seminorm_radii", "")),
            )

        initial = None
        if "initial_data" in cp:
            s = cp["initial_data"]
            kind = s["kind"].strip()
            if kind not in _REQUIRED_INITIAL_KEY:
                raise ConfigError(f"unknown initial_data kind {kind!r}")
            required = _REQUIRED_INITIAL_KEY[kind]
            if required and required not in s:
                raise ConfigError(f"[initial_data] kind = {kind} needs the key {required!r}")
            # each kind converts only the keys it reads and ignores the others
            params = {
                k: float(v)
                for k, v in s.items()
                if k not in ("kind", "family", "path", "seed")
            } if kind == "counterexample" else {}
            perturbed = kind == "perturbed_solitary"
            initial = InitialDataConfig(
                kind=kind,
                omega=float(s["omega"]) if kind in ("solitary", "perturbed_solitary") else None,
                noise_amplitude=float(s.get("noise_amplitude", "0")) if perturbed else 0.0,
                seed=int(s.get("seed", "0")) if perturbed else 0,
                family=s.get("family"),
                params=params,
                path=s.get("path"),
            )
    except (KeyError, ValueError) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(f"bad config {path}: {err}") from err
    if model is not None and initial is not None and initial.kind == "counterexample":
        raise ConfigError("[model] is not read beside kind = counterexample, whose family brings its model")

    return ExperimentConfig(model, grid, run, initial)

"""Flat-section key=value run configuration.

The file format is a minimal TOML-like dialect: ``[section]`` headers, one
``key = value`` per line, ``#`` comments, bare or quoted strings, ints,
floats and booleans.  Precedence is defaults, then file, then the
``DRIFTGAUGE_SEED`` environment variable (seed only), then explicit
``section.key=value`` overrides.  A single master seed derives every
sub-seed, so re-running any command with the same inputs and seed reproduces
its outputs byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .descriptors import SWDConfig
from .errors import InvalidValue, ParseError, UnknownKey
from .evaluator import TrainConfig
from .meta_learning import ReptileConfig
from .meta_set import DEFAULT_CAP_EXEC, DEFAULT_CAP_GEN, CostModel
from .seeding import spawn_seed
from .workload import DEFAULT_VARIANCE_FLOOR

SEED_ENV_VAR = "DRIFTGAUGE_SEED"

# section -> key -> (type, default).  The keys of the swd, train and reptile
# sections are field names of SWDConfig, TrainConfig and ReptileConfig.
_SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "run": {
        "seed": (int, 0),
        "alpha": (float, 0.1),
    },
    "io": {
        "variance_floor": (float, DEFAULT_VARIANCE_FLOOR),
    },
    "swd": {
        "mode": (str, "hybrid"),
        "k_pca": (int, 8),
        "l_random": (int, 16),
        "quantiles": (int, 256),
        "pca_subsample": (int, 512),
    },
    "train": {
        "batch_size": (int, 64),
        "lr0": (float, 1e-4),
        "eta_min": (float, 0.0),
        "beta1": (float, 0.9),
        "beta2": (float, 0.999),
        "weight_decay": (float, 1e-3),
        "max_epochs": (int, 20),
        "dropout": (float, 0.2),
        "patience": (int, 3),
        "val_fraction": (float, 0.1),
    },
    "reptile": {
        "inner_lr": (float, 1e-2),
        "outer_step": (float, 0.3),
        "inner_steps": (int, 5),
        "meta_rounds": (int, 600),
    },
    "budget": {
        "c_gen": (float, 0.00012),
        "c_val": (float, 0.00003),
        "c_exec": (float, 0.0004),
        "gen_multiplier": (float, 1.05),
        "val_multiplier": (float, 1.05),
        "exec_multiplier": (float, 0.10),
        "total": (float, 1000.0),
        "cap_gen": (int, DEFAULT_CAP_GEN),
        "cap_exec": (int, DEFAULT_CAP_EXEC),
    },
}

# When mode switches to all_random and the user left the slice counts alone,
# the all-random defaults apply instead of the hybrid ones.
_ALL_RANDOM_DEFAULTS = {"k_pca": 0, "l_random": 64}


def _parse_scalar(raw: str, section: str, key: str):
    raw = raw.strip()
    if not raw:
        raise InvalidValue(f"{section}.{key}: empty value")
    if (raw[0] == raw[-1] == '"') or (raw[0] == raw[-1] == "'"):
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _coerce(value, want: type, section: str, key: str):
    if want is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InvalidValue(f"{section}.{key}: expected integer, got {value!r}")
        return value
    if not isinstance(value, want):
        raise InvalidValue(f"{section}.{key}: expected {want.__name__}, got {value!r}")
    return value


@dataclass
class RunConfig:
    """Effective merged configuration plus the set of explicitly-set keys."""

    values: dict[str, dict[str, object]]
    explicit: set = field(default_factory=set)

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    @property
    def alpha(self) -> float:
        return self.values["run"]["alpha"]

    @property
    def variance_floor(self) -> float:
        return self.values["io"]["variance_floor"]

    def swd_config(self) -> SWDConfig:
        swd = dict(self.values["swd"])
        if swd["mode"] == "all_random":
            for key, default in _ALL_RANDOM_DEFAULTS.items():
                if f"swd.{key}" not in self.explicit:
                    swd[key] = default
        return SWDConfig(**swd, seed=spawn_seed(self.seed, 11))

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.values["train"], seed=spawn_seed(self.seed, 12))

    def reptile_config(self) -> ReptileConfig:
        return ReptileConfig(**self.values["reptile"], seed=spawn_seed(self.seed, 13))

    def cost_model(self) -> CostModel:
        b = self.values["budget"]
        return CostModel(
            c_gen=b["c_gen"],
            c_val=b["c_val"],
            c_exec=b["c_exec"],
            gen_multiplier=b["gen_multiplier"],
            val_multiplier=b["val_multiplier"],
            exec_multiplier=b["exec_multiplier"],
            total_budget=b["total"],
        )

    def provenance(self) -> dict:
        """Effective config block echoed into every output artifact."""
        return {"seed": self.seed, "config": {s: dict(kv) for s, kv in self.values.items()}}


def _defaults() -> dict[str, dict[str, object]]:
    return {section: {k: d for k, (_, d) in keys.items()} for section, keys in _SCHEMA.items()}


def _check_key(section: str, key: str) -> type:
    if section not in _SCHEMA:
        raise UnknownKey(f"unknown section [{section}]")
    if key not in _SCHEMA[section]:
        raise UnknownKey(f"unknown key {section}.{key}")
    return _SCHEMA[section][key][0]


def load_run_config(
    path: str | None = None,
    overrides: list[str] | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Assemble the effective configuration.

    ``path`` may be None (defaults only).  ``overrides`` are
    ``section.key=value`` strings, applied last.
    """
    values = _defaults()
    explicit: set[str] = set()

    if path is not None:
        if not os.path.isfile(path):
            raise ParseError(f"config file not found: {path}")
        section = "run"
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.startswith("[") and line.endswith("]"):
                    section = line[1:-1].strip()
                    if section not in _SCHEMA:
                        raise UnknownKey(f"unknown section [{section}] at line {lineno}")
                    continue
                if "=" not in line:
                    raise ParseError(f"line {lineno}: expected key = value")
                key, raw = line.split("=", 1)
                key = key.strip()
                want = _check_key(section, key)
                values[section][key] = _coerce(
                    _parse_scalar(raw, section, key), want, section, key
                )
                explicit.add(f"{section}.{key}")

    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        try:
            values["run"]["seed"] = int(env[SEED_ENV_VAR])
        except ValueError as exc:
            raise InvalidValue(f"{SEED_ENV_VAR} must be an integer") from exc
        explicit.add("run.seed")

    for item in overrides or []:
        if "=" not in item:
            raise ParseError(f"override {item!r}: expected section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ParseError(f"override {item!r}: expected section.key=value")
        section, key = dotted.split(".", 1)
        section, key = section.strip(), key.strip()
        want = _check_key(section, key)
        values[section][key] = _coerce(_parse_scalar(raw, section, key), want, section, key)
        explicit.add(f"{section}.{key}")

    return RunConfig(values=values, explicit=explicit)

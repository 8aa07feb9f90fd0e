"""Flat-section key=value run configuration.

The file format is a minimal TOML-like dialect: ``[section]`` headers, one
``key = value`` per line, ``#`` comments, bare or quoted strings, ints,
floats and booleans.  Precedence is defaults, then file, then the
``DRIFTGAUGE_SEED`` environment variable (seed only), then explicit
``section.key=value`` overrides.  A single master seed derives every
sub-seed, so re-running any command with the same inputs and seed reproduces
its outputs byte for byte.  A value that breaks its rule, the dataclass's
own or one in ``_RULES``, is InvalidValue when the setting is read.
"""

from __future__ import annotations

import os
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

from .descriptors import SWDConfig
from .errors import InvalidValue, ParseError, UnknownKey
from .evaluator import TrainConfig
from .meta_learning import ReptileConfig
from .meta_set import DEFAULT_CAP_EXEC, DEFAULT_CAP_GEN, CostModel, line_records
from .seeding import spawn_seed
from .workload import DEFAULT_VARIANCE_FLOOR

SEED_ENV_VAR = "DRIFTGAUGE_SEED"

# Sections built from a dataclass: its fields but ``seed`` are the keys, with
# their types and defaults (``total_budget`` is keyed ``total``); its seed is
# spawned from run.seed under the stream tag given (CostModel has none).
_SECTIONS = {"swd": (SWDConfig, 11), "train": (TrainConfig, 12),
             "reptile": (ReptileConfig, 13), "budget": (CostModel, None)}
_KEY_OF_FIELD = {"total_budget": "total"}

# What a value must be, as (test, wording); NaN passes no test, and an int
# too large for a float fails FINITE like inf.
POSITIVE = (lambda v: v > 0, "be positive")
NON_NEGATIVE = (lambda v: v >= 0, "be non-negative")
OPEN_UNIT = (lambda v: 0 < v < 1, "lie in (0, 1)")
FINITE = (lambda v: abs(v) <= sys.float_info.max, "be a finite float")

# The keys that no dataclass checks.
_RULES = {
    "run.alpha": OPEN_UNIT,
    "io.variance_floor": POSITIVE,
    "budget.cap_gen": NON_NEGATIVE,
    "budget.cap_exec": NON_NEGATIVE,
}


def require(what: str, rule, *values) -> None:
    """InvalidValue at the first of ``values`` that breaks ``rule``."""
    test, must = rule
    for value in values:
        if not test(value):
            raise InvalidValue(f"{what} must {must}, got {value}")


def _keys(cls) -> dict[str, tuple[type, object]]:
    """key -> (type, default) of ``cls``'s fields."""
    types = get_type_hints(cls)
    return {
        _KEY_OF_FIELD.get(f.name, f.name): (types[f.name], f.default)
        for f in fields(cls)
        if f.name != "seed"
    }


# section -> key -> (type, default).
_SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "run": {"seed": (int, 0), "alpha": (float, 0.1)},
    "io": {"variance_floor": (float, DEFAULT_VARIANCE_FLOOR)},
    **{section: _keys(cls) for section, (cls, _) in _SECTIONS.items()},
}
_SCHEMA["budget"].update(cap_gen=(int, DEFAULT_CAP_GEN), cap_exec=(int, DEFAULT_CAP_EXEC))


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
        require(f"{section}.{key}", FINITE, value)
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
        value = self.values[section][key]
        dotted = f"{section}.{key}"
        if dotted in _RULES:
            require(dotted, _RULES[dotted], value)
        return value

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    @property
    def alpha(self) -> float:
        return self.get("run", "alpha")

    @property
    def variance_floor(self) -> float:
        return self.get("io", "variance_floor")

    def _build(self, section: str, **unset):
        """The section's dataclass from its values, with ``unset`` in place
        of the keys not set explicitly; a value the dataclass rejects is
        InvalidValue naming the section."""
        cls, tag = _SECTIONS[section]
        kwargs = {
            f.name: self.values[section][_KEY_OF_FIELD.get(f.name, f.name)]
            for f in fields(cls)
            if f.name != "seed"
        }
        kwargs.update((k, v) for k, v in unset.items() if f"{section}.{k}" not in self.explicit)
        if tag is not None:
            kwargs["seed"] = spawn_seed(self.seed, tag)
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise InvalidValue(f"[{section}] {exc}") from exc

    def swd_config(self) -> SWDConfig:
        # In all_random mode the slice counts left unset are all_random()'s.
        if self.values["swd"]["mode"] == "all_random":
            return self._build("swd", **asdict(SWDConfig.all_random()))
        return self._build("swd")

    def train_config(self) -> TrainConfig:
        return self._build("train")

    def reptile_config(self) -> ReptileConfig:
        return self._build("reptile")

    def cost_model(self) -> CostModel:
        return self._build("budget")

    def provenance(self) -> dict:
        """Effective config block echoed into every output artifact."""
        return {"seed": self.seed, "config": {s: dict(kv) for s, kv in self.values.items()}}


def load_run_config(
    path: str | None = None,
    overrides: list[str] | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Assemble the effective configuration.

    ``path`` may be None (defaults only); a missing file is MissingFile and
    one that is not UTF-8 a ParseError.  ``overrides`` are
    ``section.key=value`` strings, applied last.
    """
    values = {section: {k: d for k, (_, d) in keys.items()} for section, keys in _SCHEMA.items()}
    explicit: set[str] = set()

    def put(section: str, key: str, raw: str) -> None:
        if section not in _SCHEMA:
            raise UnknownKey(f"unknown section [{section}]")
        if key not in _SCHEMA[section]:
            raise UnknownKey(f"unknown key {section}.{key}")
        want = _SCHEMA[section][key][0]
        values[section][key] = _coerce(_parse_scalar(raw, section, key), want, section, key)
        explicit.add(f"{section}.{key}")

    if path is not None:
        section = "run"
        for lineno, line in line_records(path, str):
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
            put(section, key.strip(), raw)

    env = os.environ if env is None else env
    if SEED_ENV_VAR in env:
        try:
            values["run"]["seed"] = int(env[SEED_ENV_VAR])
        except ValueError as exc:
            raise InvalidValue(f"{SEED_ENV_VAR} must be an integer") from exc
        explicit.add("run.seed")

    for item in overrides or []:
        dotted, eq, raw = item.partition("=")
        section, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ParseError(f"override {item!r}: expected section.key=value")
        put(section.strip(), key.strip(), raw)

    return RunConfig(values=values, explicit=explicit)

"""Flat key-value configuration with dotted section prefixes.

Every setting is one key of KEY_SPECS. It can appear in a config file
(`boost.n_estimators=200`) or as the mirrored CLI flag
(`--boost.n_estimators 200`); CLI values override the file, which overrides
the defaults below. Unknown keys are rejected outright. `preprocess.drop` and
`synth.coef` are comma-separated lists.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .attention import AUGMENT_MODES, TrainConfig
from .errors import ConfigError
from .experiments import DEFAULT_COEFFICIENTS, SyntheticSpec
from .fusion import DEFAULT_SHALLOW_K, VARIANT_KINDS
from .gbdt import BoostConfig


def _section_specs(prefix: str, cls) -> dict[str, tuple[type, object]]:
    """One key per field of a config dataclass, typed and defaulted by the field's default."""
    return {f"{prefix}.{f.name}": (type(f.default), f.default) for f in fields(cls)}


def _section_keys(prefix: str, cls) -> dict[str, str]:
    """Field name -> key for a config dataclass whose keys are `prefix.<field>`."""
    return {f.name: f"{prefix}.{f.name}" for f in fields(cls)}


# key -> (type, default). The attention.* and boost.* keys are the fields of
# TrainConfig and BoostConfig, which hold the reference training setup; the
# experiment harness overrides boosting to desk scale explicitly.
KEY_SPECS: dict[str, tuple[type, object]] = {
    "split.fraction": (float, 0.8),
    "split.seed": (int, 42),
    "preprocess.drop": (str, ""),
    **_section_specs("attention", TrainConfig),
    **_section_specs("boost", BoostConfig),
    "model.variant": (str, "full"),
    "model.augment_mode": (str, "weighted-hidden"),
    "model.shallow_k": (int, DEFAULT_SHALLOW_K),
    "synth.rows": (int, 2000),
    "synth.seed": (int, 42),
    "synth.noise_sd": (float, 0.25),
    "synth.intercept": (float, 0.0),
    "synth.coef": (str, ",".join(f"{name}={value!r}"
                                 for name, value in DEFAULT_COEFFICIENTS.items())),
}

# keys whose value must be one of a closed set, checked before any data is read
_CHOICES = {"model.variant": VARIANT_KINDS, "model.augment_mode": AUGMENT_MODES}


def parse_value(key: str, text: str):
    kind = KEY_SPECS[key][0]
    try:
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} as {kind.__name__}") from exc
    return text


def parse_config_file(path: str) -> dict:
    """Read `key=value` lines; blank lines and '#' comments are ignored."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, text = (part.strip() for part in stripped.split("=", 1))
        if key not in KEY_SPECS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = parse_value(key, text)
    return values


# the generator's fields and the keys that set them
_SYNTH_KEYS = {"n_rows": "synth.rows", "seed": "synth.seed", "noise_sd": "synth.noise_sd",
               "coefficients": "synth.coef", "intercept": "synth.intercept"}


def _build(cls, keys: dict[str, str], values: dict):
    """`cls` from the values of `keys` (field -> key).

    The dataclass checks its own ranges and names the field first, so a
    rejection becomes a ConfigError naming the key.
    """
    try:
        return cls(**{name: values[key] for name, key in keys.items()})
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(f"key {keys[name]!r}: {exc}") from exc


def _items(text) -> list[str]:
    """The non-empty parts of a comma-separated value."""
    return [part.strip() for part in str(text).split(",") if part.strip()]


def _coefficients(text) -> dict[str, float]:
    """`synth.coef` as NAME=VALUE pairs; empty plants no signal."""
    try:
        return {name.strip(): float(value) for name, value in
                (item.split("=") for item in _items(text))}
    except ValueError as exc:
        raise ConfigError(f"key 'synth.coef': expected NAME=VALUE pairs with numeric "
                          f"values, got {text!r}") from exc


@dataclass
class RunConfig:
    """Merged settings for one CLI invocation, and the library configs built from them.

    `merged` builds every config, so a value out of its range fails with a
    ConfigError naming its key before any data is read.
    """

    values: dict[str, object]
    attention: TrainConfig
    boost: BoostConfig
    synth: SyntheticSpec

    @classmethod
    def merged(cls, file_values: dict | None, cli_values: dict | None) -> "RunConfig":
        values = {key: default for key, (_, default) in KEY_SPECS.items()}
        for source in (file_values or {}, cli_values or {}):
            for key, value in source.items():
                if value is None:
                    continue
                if key not in KEY_SPECS:
                    raise ConfigError(f"unknown key {key!r}")
                values[key] = value
        for key, allowed in _CHOICES.items():
            if values[key] not in allowed:
                raise ConfigError(f"key {key!r}: {values[key]!r} is not one of {allowed}")
        if values["model.shallow_k"] < 1:
            raise ConfigError(f"key 'model.shallow_k' must be at least 1, got "
                              f"{values['model.shallow_k']}")
        if not 0.0 < values["split.fraction"] < 1.0:  # NaN fails this too
            raise ConfigError(f"key 'split.fraction' must be in (0, 1), got "
                              f"{values['split.fraction']!r}")
        return cls(
            values=values,
            attention=_build(TrainConfig, _section_keys("attention", TrainConfig), values),
            boost=_build(BoostConfig, _section_keys("boost", BoostConfig), values),
            synth=_build(SyntheticSpec, _SYNTH_KEYS,
                         {**values, "synth.coef": _coefficients(values["synth.coef"])}),
        )

    def __getitem__(self, key: str):
        return self.values[key]

    def drop_columns(self) -> list[str] | None:
        if not str(self.values["preprocess.drop"]).strip():
            return None
        return _items(self.values["preprocess.drop"])

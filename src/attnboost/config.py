"""Flat key-value configuration with dotted section prefixes.

Every setting is one key of KEY_SPECS. It can appear in a config file
(`boost.n_estimators=200`) or as the mirrored CLI flag
(`--boost.n_estimators 200`); CLI values override the file, which overrides
the defaults below. Unknown keys are rejected outright. `preprocess.drop` and
`synth.coef` are comma-separated lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .attention import AUGMENT_MODES, TrainConfig
from .errors import ConfigError
from .experiments import DEFAULT_COEFFICIENTS, SyntheticSpec
from .fusion import DEFAULT_SHALLOW_K, VARIANT_KINDS
from .gbdt import BoostConfig


def _section_specs(prefix: str, cls) -> dict[str, tuple[type, object]]:
    """One key per field of a config dataclass, typed and defaulted by the field's default."""
    return {f"{prefix}.{f.name}": (type(f.default), f.default) for f in fields(cls)}


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


@dataclass
class RunConfig:
    """Merged settings for one CLI invocation."""

    values: dict[str, object] = field(default_factory=dict)

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
        return cls(values=values)

    def __getitem__(self, key: str):
        return self.values[key]

    def _section(self, prefix: str, cls):
        try:
            return cls(**{f.name: self.values[f"{prefix}.{f.name}"] for f in fields(cls)})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def attention_config(self) -> TrainConfig:
        return self._section("attention", TrainConfig)

    def boost_config(self) -> BoostConfig:
        return self._section("boost", BoostConfig)

    def _items(self, key: str) -> list[str]:
        """The non-empty parts of a comma-separated key."""
        return [part.strip() for part in str(self.values[key]).split(",") if part.strip()]

    def synthetic_spec(self) -> SyntheticSpec:
        """The generator's spec; `synth.coef` is NAME=VALUE pairs, and empty plants no signal."""
        v = self.values
        try:
            coefficients = {name.strip(): float(value) for name, value in
                            (item.split("=") for item in self._items("synth.coef"))}
        except ValueError as exc:
            raise ConfigError(f"key 'synth.coef': expected NAME=VALUE pairs with numeric "
                              f"values, got {v['synth.coef']!r}") from exc
        try:
            return SyntheticSpec(
                n_rows=v["synth.rows"],
                seed=v["synth.seed"],
                noise_sd=v["synth.noise_sd"],
                coefficients=coefficients,
                intercept=v["synth.intercept"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def drop_columns(self) -> list[str] | None:
        if not str(self.values["preprocess.drop"]).strip():
            return None
        return self._items("preprocess.drop")

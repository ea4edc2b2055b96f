"""Run configuration: defaults, dotted-key config files, overrides.

The file grammar is one ``section.key = value`` assignment per line, with
``#`` comments and blank lines ignored. Values use Python literal syntax
(numbers, booleans, tuples, strings). Precedence is defaults, then file
values, then explicit overrides.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field

from .crops import MultiCropConfig
from .distill import DistillConfig
from .errors import ConfigError, RetinaSSLError
from .evaluation import KnnConfig, ProbeConfig
from .vit import ProjectionHeadConfig, ViTConfig


@dataclass
class DataConfig:
    n_last_blocks: int = 1

    def __post_init__(self):
        if self.n_last_blocks < 1:
            raise ConfigError("data.n_last_blocks must be >= 1")


@dataclass
class RunConfig:
    vit: ViTConfig = field(default_factory=ViTConfig)
    head: ProjectionHeadConfig = field(default_factory=ProjectionHeadConfig)
    crop: MultiCropConfig = field(default_factory=MultiCropConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    knn: KnnConfig = field(default_factory=KnnConfig)
    data: DataConfig = field(default_factory=DataConfig)


_SECTIONS = {"vit": ViTConfig, "head": ProjectionHeadConfig,
             "crop": MultiCropConfig, "distill": DistillConfig,
             "probe": ProbeConfig, "knn": KnnConfig, "data": DataConfig}


def parse_assignments(lines, source: str = "<config>") -> dict[str, object]:
    """Parse ``section.key = value`` lines into a flat dict."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            out[key] = ast.literal_eval(value.strip())
        except (ValueError, SyntaxError):
            raise ConfigError(f"{source}:{lineno}: cannot parse value {value.strip()!r}")
    return out


def _valid_keys() -> set[str]:
    keys = set()
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            keys.add(f"{section}.{f.name}")
    return keys


def apply_assignments(config: RunConfig, assignments: dict[str, object]) -> RunConfig:
    valid = _valid_keys()
    grouped: dict[str, dict[str, object]] = {}
    for key, value in assignments.items():
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        section, name = key.split(".", 1)
        grouped.setdefault(section, {})[name] = value
    replacements = {}
    for section, updates in grouped.items():
        current = getattr(config, section)
        coerced = {}
        for name, value in updates.items():
            if isinstance(value, list):
                value = tuple(value)
            coerced[name] = value
        try:
            replacements[section] = dataclasses.replace(current, **coerced)
        except (RetinaSSLError, ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value in section {section!r}: {exc}") from exc
    return dataclasses.replace(config, **replacements)


def load_config(path=None, overrides: dict[str, object] | None = None) -> RunConfig:
    """Build a validated RunConfig from defaults, a file, and overrides."""
    config = RunConfig()
    if path is not None:
        with open(path) as fh:
            assignments = parse_assignments(fh, source=str(path))
        config = apply_assignments(config, assignments)
    if overrides:
        config = apply_assignments(config, dict(overrides))
    return config

"""Run configuration: defaults, dotted-key config files, overrides.

The file grammar is one ``section.key = value`` assignment per line, with
``#`` comments and blank lines ignored. Values use Python literal syntax
(numbers, booleans, tuples, strings). Precedence is one dict merge: a
caller merges file values, then explicit overrides, into one flat dict, so
an override may repair a file's value. `apply_assignments` builds the
RunConfig from that dict and the defaults in one pass, so the cross-section
rule of `RunConfig` (whole patches) checks the merged config only. A resumed
run checks it again on the checkpoint's sections. The memory bound,
`RunConfig.check_training_bytes`, is checked only where a run trains.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import math
import os
from dataclasses import dataclass, field

from .crops import MultiCropConfig
from .distill import DistillConfig
from .errors import ConfigError, RetinaSSLError
from .evaluation import KnnConfig, ProbeConfig
from .vit import ProjectionHeadConfig, ViTConfig, param_shapes

try:
    _PHYSICAL_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
except (AttributeError, ValueError, OSError):  # a system without sysconf
    _PHYSICAL_BYTES = math.inf


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

    def __post_init__(self):
        # a training step embeds every crop it makes as whole patches
        sizes = {"crop.global_out_size": self.crop.global_out_size}
        if self.crop.n_local:
            sizes["crop.local_out_size"] = self.crop.local_out_size
        for key, size in sizes.items():
            if size % self.vit.patch_size:
                raise ConfigError(f"{key} = {size} is not divisible by "
                                  f"vit.patch_size = {self.vit.patch_size}")

    def check_training_bytes(self):
        """Refuse a config whose parameter state and one step's crop stacks
        need more bytes than the machine has memory. numpy refuses such a
        size only when a run allocates it, after `--out` is made, and a size
        that it grants can end in the kernel's out-of-memory kill. Only
        training builds these, so only training checks them: an evaluation
        takes its model from a checkpoint."""
        try:  # one block stands for all: the table is as long as the depth
            shapes = param_shapes(dataclasses.replace(self.vit, depth=1), self.head)
        except OverflowError:  # the MLP width, embed_dim * mlp_ratio, as a float
            raise ConfigError(f"vit.embed_dim = {self.vit.embed_dim} times vit.mlp_ratio "
                              f"= {self.vit.mlp_ratio} is past the float range") from None
        block = sum(math.prod(s) for k, s in shapes.items() if k.startswith("blocks."))
        values = sum(map(math.prod, shapes.values())) + (self.vit.depth - 1) * block
        largest = max(shapes, key=lambda name: math.prod(shapes[name]))
        crop, batch = self.crop, self.distill.batch_size
        parts = {
            # float64 student, teacher and two AdamW moments
            f"the parameter state ({self.vit.depth} blocks, largest tensor "
            f"{largest})": 4 * 8 * values,
            # float64 student and teacher views of every global crop
            f"crop.global_out_size = {crop.global_out_size}":
                2 * crop.n_global * batch * 3 * 8 * crop.global_out_size ** 2,
            f"crop.local_out_size = {crop.local_out_size}":
                crop.n_local * batch * 3 * 8 * crop.local_out_size ** 2}
        total = sum(parts.values())
        if total > _PHYSICAL_BYTES:
            cause = max(parts, key=parts.get)
            raise ConfigError(f"the config fixes {_bytes(total)}, above this machine's "
                              f"{_bytes(_PHYSICAL_BYTES)} of memory; {cause} takes "
                              f"{_bytes(parts[cause])}")


def _bytes(n: int) -> str:
    """A byte count for a message: one past 2**64 is only bounded, as its
    digits may exceed Python's limit on converting an int to a string."""
    return f"{n} bytes" if n < 2 ** 64 else "more than 2**64 bytes"


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def parse_assignments(lines, source: str) -> dict[str, object]:
    """Parse ``section.key = value`` lines into a flat dict; errors name
    `source` (a file or a flag) and the line."""
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
        except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
            raise ConfigError(f"{source}:{lineno}: cannot parse value {value.strip()!r}")
    return out


def _as_kind(value, default):
    """`value` as the kind of the field default `default`, or None if it
    cannot stand there.

    An int stands for a float if it converts to a finite one, as a float
    must be finite, and becomes that float; a bool is not a number, and a
    tuple has the default's length and is converted element by element.
    """
    if isinstance(default, tuple):
        if not (isinstance(value, tuple) and len(value) == len(default)):
            return None
        value = tuple(_as_kind(v, d) for v, d in zip(value, default))
        return None if None in value else value
    if isinstance(value, bool) != isinstance(default, bool):
        return None
    if isinstance(default, float) and isinstance(value, (int, float)):
        try:  # an int too large for a float overflows
            value = float(value)
        except OverflowError:
            return None
        return value if math.isfinite(value) else None
    return value if isinstance(value, type(default)) else None


def build_section(cls, values):
    """The config dataclass `cls` built once, from its defaults with fields
    replaced from `values`.

    `values` comes from outside (a config file, ``--set`` or a checkpoint's
    JSON), where there are no tuples, so lists become tuples. Names that are
    not fields of `cls` are ignored. A value of another kind than the field's
    default, or one that fails the section's own validation, raises
    ConfigError; an int given for a float is stored as a float.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"{cls.__name__} values must be a mapping, got {values!r}")
    updates = {}
    for f in dataclasses.fields(cls):
        if f.name not in values:
            continue
        value = values[f.name]
        if isinstance(value, list):
            value = tuple(value)
        updates[f.name] = _as_kind(value, f.default)
        if updates[f.name] is None:
            raise ConfigError(f"{cls.__name__}.{f.name} cannot be {value!r}: "
                              f"the default is {f.default!r}")
    try:
        return cls(**updates)
    except (RetinaSSLError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value in {cls.__name__}: {exc}") from exc


# fields set from a command-line flag alone, which no config may hold
_FLAG_FIELDS = {"probe.seed": "--seed"}


def _valid_keys() -> set[str]:
    keys = set()
    for section, cls in _SECTIONS.items():
        for f in dataclasses.fields(cls):
            keys.add(f"{section}.{f.name}")
    return keys - _FLAG_FIELDS.keys()


def apply_assignments(assignments: dict[str, object]) -> RunConfig:
    """The RunConfig of the defaults with `assignments`, a flat dict of
    ``section.key`` values, applied; each section is built once and the
    RunConfig checked once, on the final values."""
    valid = _valid_keys()
    grouped: dict[str, dict[str, object]] = {}
    for key, value in assignments.items():
        if key in _FLAG_FIELDS:
            raise ConfigError(f"{key!r} is not a config key; "
                              f"set it with {_FLAG_FIELDS[key]}")
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        section, name = key.split(".", 1)
        grouped.setdefault(section, {})[name] = value
    return RunConfig(**{section: build_section(_SECTIONS[section], values)
                        for section, values in grouped.items()})


def read_config_file(path) -> dict[str, object]:
    """The assignments of a UTF-8 config file (a leading byte-order mark is
    dropped), as `parse_assignments` returns them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # newline=None splits lines as a file opened in text mode does
        lines = io.StringIO(data.decode("utf-8-sig"), newline=None)
    except UnicodeDecodeError as exc:
        data = exc.object  # as in data._csv_rows
        line = len((data[:exc.start] + b"x").splitlines())
        raise ConfigError(f"{path}:{line}: config file is not UTF-8 text: "
                          f"{exc.reason} (byte 0x{data[exc.start]:02x})") from None
    return parse_assignments(lines, source=str(path))

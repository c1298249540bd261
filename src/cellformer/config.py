"""Flat key=value configuration files with typed parsing.

Types come from the target dataclasses' annotations; unknown keys are
rejected with the offending source named. Command-line flags reuse the same
coercion, so precedence is simply: flag > config file > dataclass default.
"""

from __future__ import annotations

import dataclasses
import typing
from pathlib import Path


class ConfigError(Exception):
    pass


def parse_kv_file(path) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments allowed."""
    settings: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in settings:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        settings[key] = value.strip()
    return settings


def _coerce(raw: str, typ, key: str, source: str):
    """`raw` as `typ`: an int, a float or a str."""
    if typ in (int, float):
        try:
            return typ(raw)
        except ValueError:
            kind = "an integer" if typ is int else "a number"
            raise ConfigError(f"{source}: key '{key}': expected {kind}, got {raw!r}") from None
    return raw


def apply_settings(instances: list, layers: list[tuple[str, dict[str, str]]],
                   reject: dict[str, str] | None = None) -> list:
    """Route string settings onto one or more dataclass instances.

    `layers` holds (source, settings) pairs, each overriding the ones before
    it. A key is set on every instance that has a field of that name (the
    command-line config classes share no field name, so that is one).
    Unknown keys, keys listed in `reject` and ill-typed values raise
    ConfigError naming their layer; the instances' own checks run once, on
    the merged values.
    """
    field_types = []
    for inst in instances:
        hints = typing.get_type_hints(type(inst))
        field_types.append({f.name: hints[f.name]
                            for f in dataclasses.fields(inst)})

    updates: list[dict] = [{} for _ in instances]
    for source, settings in layers:
        for key, raw in settings.items():
            if reject and key in reject:
                raise ConfigError(f"{source}: key '{key}': {reject[key]}")
            matched = False
            for i, types in enumerate(field_types):
                if key in types:
                    updates[i][key] = _coerce(raw, types[key], key, source)
                    matched = True
            if not matched:
                raise ConfigError(f"{source}: unknown config key '{key}'")

    out = []
    for inst, up in zip(instances, updates):
        try:
            out.append(dataclasses.replace(inst, **up) if up else inst)
        except ValueError as e:
            sources = " and ".join(source for source, settings in layers if settings)
            raise ConfigError(f"{sources}: {e}") from None
    return out


def config_lines(sections: dict[str, object], omit=()) -> list[str]:
    """Deterministic key=value echo of resolved configs, one section per
    dataclass, leaving out the fields named in `omit`."""
    lines = []
    for title in sections:
        inst = sections[title]
        lines.append(f"[{title}]")
        for f in sorted(dataclasses.fields(inst), key=lambda f: f.name):
            if f.name in omit:
                continue
            lines.append(f"{f.name}={getattr(inst, f.name)}")
    return lines

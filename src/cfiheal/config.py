"""Project configuration: one YAML document drives an entire healing run.

The document is a flat mapping whose keys are the fields of ``ProjectConfig``:
a field without a default is a required key, and a field's declared type says
how its key's value is read.

``parse_config`` rejects malformed documents with line/column positions where
the YAML parser provides them; ``render_config`` emits a document that parses
back to an equal config (round-trip property). ``validate_config`` performs
the softer environment checks (paths exist, commands non-empty, at least one
CFI variant) and returns findings instead of raising, so callers can present
all problems at once.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import yaml

#: The seven supported forward-edge CFI check variants.
CFI_VARIANTS = (
    "cfi-icall",
    "cfi-vcall",
    "cfi-nvcall",
    "cfi-mfcall",
    "cfi-cast-strict",
    "cfi-derived-cast",
    "cfi-unrelated-cast",
)

DEFAULT_TEST_TIMEOUT = 120.0
DEFAULT_MAX_REPAIR_ITERATIONS = 64
MAX_TEST_TIMEOUT = 2_147_483.0  # subprocess.run's longest wait: it polls with a C int of ms


class ConfigError(ValueError):
    """A configuration document could not be parsed into a valid config."""


@dataclass(frozen=True)
class ProjectConfig:
    """One project under healing; its relative directories are made absolute against the cwd."""

    project_root: Path
    build_cmd: str
    test_cmd: str
    executables: tuple[str, ...]
    cfi_variants: tuple[str, ...]
    report_dir: Path
    configure_cmd: str | None = None
    clean_cmd: str | None = None
    extra_compile_flags: tuple[str, ...] = ()
    test_timeout: float = DEFAULT_TEST_TIMEOUT
    max_repair_iterations: int = DEFAULT_MAX_REPAIR_ITERATIONS

    def __post_init__(self) -> None:
        object.__setattr__(self, "project_root", self.project_root.absolute())
        object.__setattr__(self, "report_dir", self.report_dir.absolute())

    def executable_paths(self) -> tuple[Path, ...]:
        """Executables resolved against the project root."""
        return tuple(self.project_root / e for e in self.executables)


def _string(key: str, value: object) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {type(value).__name__}")
    return value


def _strings(key: str, value: object) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key} must be a list of strings")
    return tuple(value)


def _seconds(key: str, value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number of seconds")
    if not abs(value) <= sys.float_info.max:  # false for nan, and for an int past float's range
        raise ConfigError(f"{key} must be finite, got {value}")
    if not 0 < value <= MAX_TEST_TIMEOUT:
        raise ConfigError(f"{key} must be positive and at most {MAX_TEST_TIMEOUT:.0f} seconds, got {value}")
    return float(value)


def _integer(key: str, value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer")
    return value


#: How a present key's YAML value becomes its field's value, by the field's declared type.
_READERS = {
    "Path": lambda key, value: Path(_string(key, value)),
    "str": _string,
    "str | None": _string,
    "tuple[str, ...]": _strings,
    "float": _seconds,
    "int": _integer,
}
_FIELDS = {f.name: f for f in fields(ProjectConfig)}
_REQUIRED = [name for name, f in _FIELDS.items() if f.default is MISSING]


def parse_config(text: str) -> ProjectConfig:
    """Parse a YAML document into a ProjectConfig.

    Raises ConfigError on YAML syntax errors (with line/column), missing
    required keys, unknown keys, wrong value types, a timeout out of range,
    duplicate or unknown CFI variant names, and a non-positive iteration
    budget.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"invalid YAML{where}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raise ConfigError("empty configuration document")
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a mapping of keys to values")

    unknown = sorted(str(k) for k in raw if k not in _FIELDS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    cfg = ProjectConfig(**{k: _READERS[_FIELDS[k].type](k, v) for k, v in raw.items()})

    bad = [v for v in cfg.cfi_variants if v not in CFI_VARIANTS]
    if bad:
        raise ConfigError(
            f"unknown CFI variant names: {', '.join(bad)}; supported: {', '.join(CFI_VARIANTS)}"
        )
    if len(set(cfg.cfi_variants)) != len(cfg.cfi_variants):
        raise ConfigError("duplicate CFI variant names")
    if cfg.max_repair_iterations < 1:
        raise ConfigError("max_repair_iterations must be at least 1")
    return cfg


def render_config(cfg: ProjectConfig) -> str:
    """Render a config back to YAML; parse_config(render_config(c)) == c."""
    doc = {
        key: str(value) if isinstance(value, Path) else list(value) if isinstance(value, tuple) else value
        for key, value in asdict(cfg).items()
        if value is not None
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)


def validate_config(cfg: ProjectConfig) -> list[str]:
    """Environment-level checks; returns human-readable findings, empty if OK."""
    findings: list[str] = []
    if not cfg.project_root.is_dir():
        findings.append(f"project_root missing or not a directory: {cfg.project_root}")
    for key in ("build_cmd", "test_cmd"):
        if not getattr(cfg, key).strip():
            findings.append(f"{key} is empty")
    for key in ("configure_cmd", "clean_cmd"):
        value = getattr(cfg, key)
        if value is not None and not value.strip():
            findings.append(f"{key} is set but empty")
    if not cfg.cfi_variants:
        findings.append("at least one CFI variant is required")
    if not cfg.executables:
        findings.append("no executables listed")
    try:
        _seconds("test_timeout", cfg.test_timeout)
    except ConfigError as exc:
        findings.append(str(exc))
    return findings


def load_config(path: Path) -> ProjectConfig:
    """Read and parse a config file; relative paths resolve against cwd."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)

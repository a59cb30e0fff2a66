"""Project configuration: one YAML document drives an entire healing run.

The document is a flat mapping. Required keys: ``project_root``, ``build_cmd``,
``test_cmd``, ``executables``, ``cfi_variants``, ``report_dir``. Optional keys:
``configure_cmd``, ``clean_cmd``, ``extra_compile_flags``, ``test_timeout``
(seconds, default 120), ``max_repair_iterations`` (default 64).

``parse_config`` rejects malformed documents with line/column positions where
the YAML parser provides them; ``render_config`` emits a document that parses
back to an equal config (round-trip property). ``validate_config`` performs
the softer environment checks (paths exist, commands non-empty, at least one
CFI variant) and returns findings instead of raising, so callers can present
all problems at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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


class ConfigError(ValueError):
    """A configuration document could not be parsed into a valid config."""


@dataclass(frozen=True)
class ProjectConfig:
    """Immutable description of one project under healing."""

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

    def executable_paths(self) -> tuple[Path, ...]:
        """Executables resolved against the project root."""
        return tuple(self.project_root / e for e in self.executables)


_REQUIRED = ("project_root", "build_cmd", "test_cmd", "executables", "cfi_variants", "report_dir")
_KNOWN = {f.name for f in fields(ProjectConfig)}


def _where(mark) -> str:
    if mark is None:
        return ""
    return f" at line {mark.line + 1}, column {mark.column + 1}"


def _want_str(raw: dict, key: str) -> str | None:
    """The string at `key`, or None if the key is absent."""
    if key not in raw:
        return None
    value = raw[key]
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {type(value).__name__}")
    return value


def _want_str_list(raw: dict, key: str) -> tuple[str, ...]:
    value = raw.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key} must be a list of strings")
    return tuple(value)


def parse_config(text: str) -> ProjectConfig:
    """Parse a YAML document into a ProjectConfig.

    Raises ConfigError on YAML syntax errors (with line/column), missing
    required keys, unknown keys, wrong value types, duplicate or unknown CFI
    variant names, and a non-positive iteration budget.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        raise ConfigError(f"invalid YAML{_where(exc.problem_mark)}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raise ConfigError("empty configuration document")
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a mapping of keys to values")

    unknown = sorted(set(raw) - _KNOWN)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    variants = _want_str_list(raw, "cfi_variants")
    bad = [v for v in variants if v not in CFI_VARIANTS]
    if bad:
        raise ConfigError(
            f"unknown CFI variant names: {', '.join(bad)}; supported: {', '.join(CFI_VARIANTS)}"
        )
    if len(set(variants)) != len(variants):
        raise ConfigError("duplicate CFI variant names")

    timeout = raw.get("test_timeout", DEFAULT_TEST_TIMEOUT)
    if not isinstance(timeout, (int, float)) or isinstance(timeout, bool):
        raise ConfigError("test_timeout must be a number of seconds")
    budget = raw.get("max_repair_iterations", DEFAULT_MAX_REPAIR_ITERATIONS)
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise ConfigError("max_repair_iterations must be an integer")
    if budget < 1:
        raise ConfigError("max_repair_iterations must be at least 1")

    return ProjectConfig(
        project_root=Path(_want_str(raw, "project_root")),
        build_cmd=_want_str(raw, "build_cmd"),
        test_cmd=_want_str(raw, "test_cmd"),
        executables=_want_str_list(raw, "executables"),
        cfi_variants=variants,
        report_dir=Path(_want_str(raw, "report_dir")),
        configure_cmd=_want_str(raw, "configure_cmd"),
        clean_cmd=_want_str(raw, "clean_cmd"),
        extra_compile_flags=_want_str_list(raw, "extra_compile_flags"),
        test_timeout=float(timeout),
        max_repair_iterations=budget,
    )


def render_config(cfg: ProjectConfig) -> str:
    """Render a config back to YAML; parse_config(render_config(c)) == c."""
    doc: dict[str, object] = {
        "project_root": str(cfg.project_root),
        "build_cmd": cfg.build_cmd,
        "test_cmd": cfg.test_cmd,
        "executables": list(cfg.executables),
        "cfi_variants": list(cfg.cfi_variants),
        "report_dir": str(cfg.report_dir),
    }
    if cfg.configure_cmd is not None:
        doc["configure_cmd"] = cfg.configure_cmd
    if cfg.clean_cmd is not None:
        doc["clean_cmd"] = cfg.clean_cmd
    doc["extra_compile_flags"] = list(cfg.extra_compile_flags)
    doc["test_timeout"] = cfg.test_timeout
    doc["max_repair_iterations"] = cfg.max_repair_iterations
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
    if cfg.test_timeout <= 0:
        findings.append("test_timeout must be positive")
    return findings


def load_config(path: Path) -> ProjectConfig:
    """Read and parse a config file; relative paths stay relative to cwd."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)

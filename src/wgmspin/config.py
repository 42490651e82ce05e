"""Run configuration: INI file (key/value with sections) -> validated RunConfig.

All quantities are SI. The reference parameter set ships as
configs/reference.cfg. One table, _SECTIONS, gives each config key its section
and its text parser; values from the file and [sweep] values both go through
that parser.
"""

from __future__ import annotations

import cmath
import configparser
from dataclasses import dataclass, replace

from .specfun import MAX_ORDER

__all__ = ["ConfigError", "RunConfig"]

MAX_SCAN_POINTS = 100_000  # most seed-scan points; the scan's memory grows with them
MAX_SAMPLES = 100_000      # so does simulate's, ~220 B per sample held


class ConfigError(ValueError):
    """Invalid configuration; .errors lists (field, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{f}: {m}" for f, m in self.errors))


def _str_list(raw):
    return tuple(p.strip() for p in raw.split(",") if p.strip())


def _int_list(raw):
    return tuple(int(p) for p in _str_list(raw))


def _omega0(raw):
    parts = tuple(float(p) for p in raw.split(","))
    if len(parts) != 3:
        raise ValueError("needs 3 comma-separated components")
    return parts


def _amplitudes(raw):
    out = []
    for item in _str_list(raw):
        mstr, cstr = item.split(":")
        out.append((int(mstr), complex(cstr)))
    return tuple(out)


# section -> config key -> text parser. A key names its RunConfig field, except
# in [sweep], whose keys field/values are the fields sweep_field/sweep_values.
_SECTIONS = {
    "sphere": {"R": float, "n": float, "rho": float, "I": float},
    "mode_search": {"polarization": str.strip, "l": int, "lambda_min": float,
                    "lambda_max": float, "scan_points": int},
    "coupling": {"N": float, "amplitudes": _amplitudes},
    "simulation": {"dt": float, "n_steps": int, "sample_every": int,
                   "omega0": _omega0},
    "estimate": {"Q": float, "m_list": _int_list},
    "output": {"directory": str.strip},
    "sweep": {"field": str.strip, "values": _str_list},
}
_SWEEPABLE = (float, int, str.strip)  # one value per field: no list parsers


def _attr(section, key):
    """RunConfig field that holds config key section.key."""
    return f"sweep_{key}" if section == "sweep" else key


@dataclass(frozen=True)
class RunConfig:
    # [sphere]
    R: float = 10e-6
    n: float = 1.52
    rho: float = 2000.0
    I: float | None = None
    # [mode_search]
    polarization: str = "TE"
    l: int = 120
    lambda_min: float = 7.36e-7
    lambda_max: float = 7.51e-7
    scan_points: int = 2000                   # cap on the scan's 32 points per pi/(nR)
    # [coupling]
    N: float = 1e5
    amplitudes: tuple = ()                    # ((m, complex), ...); default: m = l
    # [simulation]
    dt: float = 1.0
    n_steps: int = 1000
    sample_every: int = 1
    omega0: tuple = (0.0, 0.0, 0.0)
    # [estimate]
    Q: float | None = None                    # default: radiative Q of the mode
    m_list: tuple | None = None               # default: those of 1, 10, 120 <= l
    # [output]
    directory: str = "out"
    # [sweep]
    sweep_field: str | None = None
    sweep_values: tuple = ()                  # text, parsed by the swept field

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.optionxform = str  # keys are case-sensitive (R vs rho)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError([("config", f"malformed file: {exc}")]) from exc
        if not read:
            raise ConfigError([("config", f"cannot read {path}")])
        errors = []
        values = {}
        for section in parser.sections():
            if section not in _SECTIONS:
                errors.append((section, "unknown section"))
                continue
            for key, raw in parser.items(section):
                parse = _SECTIONS[section].get(key)
                if parse is None:
                    errors.append((f"{section}.{key}", "unknown key"))
                    continue
                try:
                    values[_attr(section, key)] = parse(raw)
                except ValueError as exc:
                    errors.append((f"{section}.{key}", f"cannot parse {raw!r}: {exc}"))
        if errors:
            raise ConfigError(errors)
        cfg = cls(**values)
        problems = cfg.validate()
        if problems:
            raise ConfigError(problems)
        return cfg

    def validate(self):
        """Field-level diagnostics as (dotted-field, message) pairs."""
        bad = []
        numbers = {(section, key): (getattr(self, key),)
                   for section, keys in _SECTIONS.items()
                   for key, parse in keys.items() if parse is float}
        numbers["simulation", "omega0"] = self.omega0
        numbers["coupling", "amplitudes"] = tuple(c for _, c in self.amplitudes)
        for (section, key), values in numbers.items():
            if not all(v is None or cmath.isfinite(v) for v in values):
                bad.append((f"{section}.{key}", f"must be finite, got {getattr(self, key)}"))
        for name, v in (("R", self.R), ("rho", self.rho)):
            if not v > 0:
                bad.append((f"sphere.{name}", f"must be positive, got {v}"))
        if self.n < 1:
            bad.append(("sphere.n", f"must be >= 1, got {self.n}"))
        if self.I is not None and not self.I > 0:
            bad.append(("sphere.I", f"must be positive, got {self.I}"))
        if self.polarization not in ("TE", "TM"):
            bad.append(("mode_search.polarization", f"must be TE or TM, got {self.polarization!r}"))
        if not 1 <= self.l <= MAX_ORDER:
            bad.append(("mode_search.l", f"must be in [1, {MAX_ORDER}], got {self.l}"))
        if not (0 < self.lambda_min < self.lambda_max):
            bad.append(("mode_search.lambda_min",
                        f"window [{self.lambda_min}, {self.lambda_max}] must be positive and non-empty"))
        if not 10 <= self.scan_points <= MAX_SCAN_POINTS:
            bad.append(("mode_search.scan_points",
                        f"must be in [10, {MAX_SCAN_POINTS}], got {self.scan_points}"))
        if self.N < 0:
            bad.append(("coupling.N", f"must be non-negative, got {self.N}"))
        for m, _ in self.amplitudes:
            if abs(m) > self.l:
                bad.append(("coupling.amplitudes", f"|m| must be <= l, got m={m}"))
        if self.amplitudes and self.N > 0 and not any(c for _, c in self.amplitudes):
            bad.append(("coupling.amplitudes", f"all zero, so no photons at N = {self.N}"))
        for name, ms in (("coupling.amplitudes", [m for m, _ in self.amplitudes]),
                         ("estimate.m_list", self.m_list or ())):
            if len(set(ms)) < len(ms):
                bad.append((name, f"an m repeats: each m is one entry, got m = {list(ms)}"))
        if not self.dt > 0:
            bad.append(("simulation.dt", f"must be positive, got {self.dt}"))
        if self.n_steps < 1:
            bad.append(("simulation.n_steps", f"must be >= 1, got {self.n_steps}"))
        if self.sample_every < 1:
            bad.append(("simulation.sample_every", f"must be >= 1, got {self.sample_every}"))
        elif -(-self.n_steps // self.sample_every) + 1 > MAX_SAMPLES:
            # samples at steps 0, sample_every, 2 sample_every, ... and n_steps
            bad.append(("simulation.n_steps", f"n_steps / sample_every must give at most "
                        f"{MAX_SAMPLES} samples, got {self.n_steps} / {self.sample_every}"))
        if self.Q is not None and not self.Q > 0:
            bad.append(("estimate.Q", f"must be positive, got {self.Q}"))
        for m in self.m_list or ():
            if m == 0:
                bad.append(("estimate.m_list", "m = 0 has no Zeeman shift"))
            elif abs(m) > self.l:
                bad.append(("estimate.m_list", f"|m| must be <= l = {self.l}, got m={m}"))
        if self.sweep_field is not None:
            section, _, key = self.sweep_field.partition(".")
            parse = _SECTIONS.get(section, {}).get(key)
            if not self.sweep_values:
                bad.append(("sweep.values", "sweep requires at least one value"))
            if parse is None:
                bad.append(("sweep.field", f"unknown field {self.sweep_field!r}"))
            elif section in ("sweep", "output") or parse not in _SWEEPABLE:
                # a swept output.directory would be ignored: each value has its subdirectory
                bad.append(("sweep.field", f"cannot sweep {self.sweep_field!r}: only a "
                            "single-valued field outside [sweep] and [output] can be swept"))
            else:
                parsed = []
                for text in self.sweep_values:
                    try:
                        parsed.append(parse(text))
                    except ValueError as exc:
                        bad.append(("sweep.values", f"cannot parse {text!r} as "
                                    f"{self.sweep_field}: {exc}"))
                if len(set(parsed)) < len(parsed):
                    bad.append(("sweep.values", "a value repeats: each value runs once, "
                                f"got {', '.join(self.sweep_values)}"))
        return bad

    def with_value(self, dotted_field, value) -> "RunConfig":
        """Copy with one dotted field set to value, parsed from str(value)
        by that field's parser (sweep fan-out helper)."""
        section, key = dotted_field.split(".", 1)
        parse = _SECTIONS[section][key]
        return replace(self, **{_attr(section, key): parse(str(value))})

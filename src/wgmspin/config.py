"""Run configuration: INI file (key/value with sections) -> validated RunConfig.

All quantities are SI. The reference parameter set ships as
configs/reference.cfg. Configs round-trip through to_dict()/from_dict() with
canonical (sorted) key order, so serialized forms are byte-stable.
"""

from __future__ import annotations

import cmath
import configparser
import json
from dataclasses import dataclass, field

__all__ = ["ConfigError", "RunConfig"]


class ConfigError(ValueError):
    """Invalid configuration; .errors lists (field, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{f}: {m}" for f, m in self.errors))


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
    scan_points: int = 2000
    # [coupling]
    N: float = 1e5
    m: int | None = None                      # default: m = l (highest weight)
    amplitudes: tuple = ()                    # ((m, complex), ...) alternative
    # [simulation]
    dt: float = 1.0
    n_steps: int = 1000
    sample_every: int = 1
    omega0: tuple = (0.0, 0.0, 0.0)
    # [estimate]
    Q: float | None = None                    # default: radiative Q of the mode
    m_list: tuple = (1, 10, 120)
    # [output]
    directory: str = "out"
    formats: tuple = ("csv", "json")
    # [sweep]
    sweep_field: str | None = None
    sweep_values: tuple = ()

    _SECTIONS = {
        "sphere": ("R", "n", "rho", "I"),
        "mode_search": ("polarization", "l", "lambda_min", "lambda_max", "scan_points"),
        "coupling": ("N", "m", "amplitudes"),
        "simulation": ("dt", "n_steps", "sample_every", "omega0"),
        "estimate": ("Q", "m_list"),
        "output": ("directory", "formats"),
        "sweep": ("sweep_field", "sweep_values"),
    }

    @staticmethod
    def _parse_value(section, key, raw, errors):
        raw = raw.strip()
        try:
            if key in ("l", "n_steps", "sample_every", "scan_points"):
                return int(raw)
            if key == "m":
                return int(raw)
            if key in ("R", "n", "rho", "I", "lambda_min", "lambda_max", "N",
                       "dt", "Q"):
                return float(raw)
            if key == "omega0":
                parts = [float(p) for p in raw.split(",")]
                if len(parts) != 3:
                    raise ValueError("needs 3 comma-separated components")
                return tuple(parts)
            if key == "m_list" or key == "sweep_values":
                return tuple(float(p) if "." in p or "e" in p.lower() else int(p)
                             for p in raw.split(",") if p.strip())
            if key == "amplitudes":
                out = []
                for item in raw.split(","):
                    item = item.strip()
                    if not item:
                        continue
                    mstr, cstr = item.split(":")
                    out.append((int(mstr), complex(cstr)))
                return tuple(out)
            if key == "formats":
                return tuple(p.strip() for p in raw.split(",") if p.strip())
            return raw
        except (ValueError, TypeError) as exc:
            errors.append((f"{section}.{key}", f"cannot parse {raw!r}: {exc}"))
            return None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.optionxform = str  # keys are case-sensitive (R vs rho)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError([("config", f"malformed file: {exc}")]) from exc
        if not read:
            raise ConfigError([("config", f"cannot read {path}")])
        errors = []
        values = {}
        key_owner = {k: sec for sec, keys in cls._SECTIONS.items() for k in keys}
        rename = {"field": "sweep_field", "values": "sweep_values"}
        for section in parser.sections():
            if section not in cls._SECTIONS:
                errors.append((section, "unknown section"))
                continue
            for key, raw in parser.items(section):
                name = rename.get(key, key) if section == "sweep" else key
                if key_owner.get(name) != section:
                    errors.append((f"{section}.{key}", "unknown key"))
                    continue
                parsed = cls._parse_value(section, name, raw, errors)
                if parsed is not None:
                    values[name] = parsed
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
        owner = {k: sec for sec, keys in self._SECTIONS.items() for k in keys}
        scalars = ("R", "n", "rho", "I", "lambda_min", "lambda_max", "N", "dt", "Q")
        numbers = {k: (getattr(self, k),) for k in scalars}
        numbers.update(omega0=tuple(self.omega0),
                       amplitudes=tuple(c for _, c in self.amplitudes))
        for name, values in numbers.items():
            if not all(v is None or cmath.isfinite(v) for v in values):
                shown = values[0] if name in scalars else values
                bad.append((f"{owner[name]}.{name}", f"must be finite, got {shown}"))
        sphere_pos = {"R": self.R, "n": self.n, "rho": self.rho}
        for name, v in sphere_pos.items():
            if not v > 0:
                bad.append((f"sphere.{name}", f"must be positive, got {v}"))
        if self.n < 1:
            bad.append(("sphere.n", f"must be >= 1, got {self.n}"))
        if self.I is not None and not self.I > 0:
            bad.append(("sphere.I", f"must be positive, got {self.I}"))
        if self.polarization not in ("TE", "TM"):
            bad.append(("mode_search.polarization", f"must be TE or TM, got {self.polarization!r}"))
        if self.l < 1:
            bad.append(("mode_search.l", f"must be >= 1, got {self.l}"))
        if not (0 < self.lambda_min < self.lambda_max):
            bad.append(("mode_search.lambda_min",
                        f"window [{self.lambda_min}, {self.lambda_max}] must be positive and non-empty"))
        if self.scan_points < 10:
            bad.append(("mode_search.scan_points", "must be >= 10"))
        if self.N < 0:
            bad.append(("coupling.N", f"must be non-negative, got {self.N}"))
        if self.m is not None and abs(self.m) > self.l:
            bad.append(("coupling.m", f"|m| must be <= l = {self.l}"))
        for m, _ in self.amplitudes:
            if abs(m) > self.l:
                bad.append(("coupling.amplitudes", f"|m| must be <= l, got m={m}"))
        if not self.dt > 0:
            bad.append(("simulation.dt", f"must be positive, got {self.dt}"))
        if self.n_steps < 1:
            bad.append(("simulation.n_steps", f"must be >= 1, got {self.n_steps}"))
        if self.sample_every < 1:
            bad.append(("simulation.sample_every", f"must be >= 1, got {self.sample_every}"))
        if self.Q is not None and not self.Q > 0:
            bad.append(("estimate.Q", f"must be positive, got {self.Q}"))
        for m in self.m_list:
            if m == 0:
                bad.append(("estimate.m_list", "m = 0 has no Zeeman shift"))
        for fmt in self.formats:
            if fmt not in ("csv", "json"):
                bad.append(("output.formats", f"unknown format {fmt!r}"))
        if self.sweep_field is not None:
            known = {f"{sec}.{k}" for sec, keys in self._SECTIONS.items() for k in keys}
            if self.sweep_field not in known:
                bad.append(("sweep.field", f"unknown field {self.sweep_field!r}"))
            if not self.sweep_values:
                bad.append(("sweep.values", "sweep requires at least one value"))
        return bad

    def to_dict(self):
        amps = [[m, [c.real, c.imag]] for m, c in self.amplitudes]
        return {
            "coupling": {"N": self.N, "amplitudes": amps, "m": self.m},
            "estimate": {"Q": self.Q, "m_list": list(self.m_list)},
            "mode_search": {"l": self.l, "lambda_max": self.lambda_max,
                            "lambda_min": self.lambda_min,
                            "polarization": self.polarization,
                            "scan_points": self.scan_points},
            "output": {"directory": self.directory, "formats": list(self.formats)},
            "simulation": {"dt": self.dt, "n_steps": self.n_steps,
                           "omega0": list(self.omega0),
                           "sample_every": self.sample_every},
            "sphere": {"I": self.I, "R": self.R, "n": self.n, "rho": self.rho},
            "sweep": {"field": self.sweep_field, "values": list(self.sweep_values)},
        }

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        kw = {}
        for section, content in data.items():
            for key, v in content.items():
                if section == "sweep":
                    key = {"field": "sweep_field", "values": "sweep_values"}[key]
                if key == "amplitudes":
                    v = tuple((m, complex(re, im)) for m, (re, im) in v)
                elif isinstance(v, list):
                    v = tuple(v)
                kw[key] = v
        return cls(**kw)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def with_value(self, dotted_field, value) -> "RunConfig":
        """Copy with one dotted field replaced (sweep fan-out helper)."""
        section, key = dotted_field.split(".", 1)
        data = self.to_dict()
        data[section][key] = value
        return self.from_dict(data)

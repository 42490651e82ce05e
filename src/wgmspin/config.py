"""Run configuration: INI file (key/value with sections) -> validated RunConfig.

All quantities are SI. The reference parameter set ships as
configs/reference.cfg. One table, _SECTIONS, gives each config key its section,
its text parser and its rule. Values from the file and [sweep] values both go
through that parser. validate() checks every key in one loop: each number in
its value must be finite, then the rule must hold, so a key gets at most one
diagnostic, "<rule>, got <value>". An unset optional key (None) passes. The
checks that involve more than one key follow the loop: the default I from R
and rho, the window and its reach n k R against the Bessel |z| limit
MAX_ARG, each m against l, a repeated m, all-zero amplitudes at
N > 0, the sample cap and [sweep]. The window is checked only when both its
ends are finite. With a [sweep], each swept copy is then validated too,
once the base config has no problem, its diagnostics naming the value.
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass, replace

from .specfun import MAX_ARG, MAX_ORDER
from .wgm import _solid_sphere_inertia

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


# a rule is a predicate on a key's value and the condition it states
_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")


def _in(lo, hi):
    return (lambda v: lo <= v <= hi), f"must be in [{lo}, {hi}]"


# section -> config key -> (text parser, rule or None). A key names its RunConfig
# field, except in [sweep], whose keys field/values are the fields
# sweep_field/sweep_values.
_SECTIONS = {
    "sphere": {"R": (float, _POSITIVE), "n": (float, _AT_LEAST_1),
               "rho": (float, _POSITIVE), "I": (float, _POSITIVE)},
    "mode_search": {
        "polarization": (str.strip, (lambda v: v in ("TE", "TM"), "must be TE or TM")),
        "l": (int, _in(1, MAX_ORDER)), "lambda_min": (float, None),
        "lambda_max": (float, None), "scan_points": (int, _in(10, MAX_SCAN_POINTS))},
    "coupling": {"N": (float, (lambda v: v >= 0, "must be non-negative")),
                 "amplitudes": (_amplitudes, None)},
    "simulation": {"dt": (float, _POSITIVE), "n_steps": (int, _AT_LEAST_1),
                   "sample_every": (int, _AT_LEAST_1), "omega0": (_omega0, None)},
    "estimate": {"Q": (float, _POSITIVE), "m_list": (_int_list, None)},
    "output": {"directory": (str.strip, None)},
    "sweep": {"field": (str.strip, None), "values": (_str_list, None)},
}
_SWEEPABLE = (float, int, str.strip)  # one value per field: no list parsers
# the numbers in a value that must be finite, by the value's parser
_NUMBERS = {float: lambda v: (v,), _omega0: tuple, _amplitudes: lambda v: [c for _, c in v]}


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
                parse, _ = _SECTIONS[section].get(key, (None, None))
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
        for section, keys in _SECTIONS.items():
            for key, (parse, rule) in keys.items():
                value = getattr(self, _attr(section, key))
                if value is None:
                    continue
                if not all(map(cmath.isfinite, _NUMBERS.get(parse, lambda v: ())(value))):
                    bad.append((f"{section}.{key}", f"must be finite, got {value!r}"))
                elif rule is not None and not rule[0](value):
                    bad.append((f"{section}.{key}", f"{rule[1]}, got {value!r}"))
        if (self.I is None and 0 < self.R < math.inf and 0 < self.rho < math.inf
                and not math.isfinite(_solid_sphere_inertia(self.R, self.rho))):
            bad.append(("sphere.R", "must keep the default I = (8/15) pi rho R^5 finite "
                        f"(or set sphere.I), got {self.R!r}"))
        lo, hi = self.lambda_min, self.lambda_max
        # Newton parks iterates past ~3.2 k_hi, so n k_hi R <= MAX_ARG/4 keeps
        # every ladder argument of the search inside MAX_ARG
        floor = 8.0 * math.pi * self.n * self.R / MAX_ARG
        if math.isfinite(lo) and math.isfinite(hi) and not 0 < lo < hi:
            bad.append(("mode_search.lambda_min",
                        f"window [{lo}, {hi}] must be positive and non-empty"))
        elif math.isfinite(self.n) and math.isfinite(self.R) and 0 < lo < floor:
            bad.append(("mode_search.lambda_min", f"must be >= 8 pi n R / MAX_ARG = {floor:.6g}, "
                        f"so that n k R <= {MAX_ARG / 4:g} over the window, got {lo!r}"))
        for m, _ in self.amplitudes:
            if abs(m) > self.l:
                bad.append(("coupling.amplitudes", f"|m| must be <= l, got m={m}"))
        if self.amplitudes and self.N > 0 and not any(c for _, c in self.amplitudes):
            bad.append(("coupling.amplitudes", f"all zero, so no photons at N = {self.N}"))
        for name, ms in (("coupling.amplitudes", [m for m, _ in self.amplitudes]),
                         ("estimate.m_list", self.m_list or ())):
            if len(set(ms)) < len(ms):
                bad.append((name, f"an m repeats: each m is one entry, got m = {list(ms)}"))
        if self.sample_every >= 1 and -(-self.n_steps // self.sample_every) + 1 > MAX_SAMPLES:
            # samples at steps 0, sample_every, 2 sample_every, ... and n_steps
            bad.append(("simulation.n_steps", f"n_steps / sample_every must give at most "
                        f"{MAX_SAMPLES} samples, got {self.n_steps} / {self.sample_every}"))
        for m in self.m_list or ():
            if m == 0:
                bad.append(("estimate.m_list", "m = 0 has no Zeeman shift"))
            elif abs(m) > self.l:
                bad.append(("estimate.m_list", f"|m| must be <= l = {self.l}, got m={m}"))
        if self.sweep_field is not None:
            section, _, key = self.sweep_field.partition(".")
            parse, _ = _SECTIONS.get(section, {}).get(key, (None, None))
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
        if self.sweep_field is not None and not bad:
            # the copy each value runs, checked once the base is clean so that
            # no error of the base repeats for every value
            for text in self.sweep_values:
                sub = replace(self, sweep_field=None).with_value(self.sweep_field, text)
                bad += [(f, f"{m} ({self.sweep_field}={text})") for f, m in sub.validate()]
        return bad

    def with_value(self, dotted_field, value) -> "RunConfig":
        """Copy with one dotted field set to value, parsed from str(value)
        by that field's parser (sweep fan-out helper)."""
        section, key = dotted_field.split(".", 1)
        parse, _ = _SECTIONS[section][key]
        return replace(self, **{_attr(section, key): parse(str(value))})

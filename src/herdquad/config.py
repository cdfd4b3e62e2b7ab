"""Flat key-value experiment configs with strict schemas.

Config files hold one ``key = value`` pair per line; ``#`` starts a
comment, blank lines are skipped.  Lists are comma separated, seed lists
additionally accept the inclusive range form ``a..b``; a list may not be
empty or repeat an entry, and a seed may not be negative.  Unknown keys
are rejected so typos fail loudly.  Command-line flags override file
values, and reach ``build_config`` as the same strings a file would hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .datasets import read_utf8
from .selectors import OPTIMAL_WEIGHT_METHODS, Method


class ConfigError(ValueError):
    """Bad config file contents."""


def parse_kv_file(path) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(read_utf8(path, ConfigError).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _distinct(values: list, what: str) -> list:
    """``values`` unchanged; an empty list or a repeated entry is a ``ConfigError``."""
    if not values:
        raise ConfigError(f"need at least one {what}")
    if len(set(values)) != len(values):
        raise ConfigError(f"repeated {what} in {values}")
    return values


def parse_seeds(text: str) -> list[int]:
    t = text.strip()
    if ".." in t:
        lo_s, hi_s = t.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ConfigError(f"empty seed range {text!r}")
        seeds = list(range(lo, hi + 1))
    else:
        seeds = _distinct([int(v) for v in t.split(",") if v.strip() != ""], "seed")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be nonnegative, got {text!r}")
    return seeds


def parse_method_spec(token: str) -> tuple[str, int]:
    """``WKH`` means one machine; ``WKH:5`` means five workers."""
    t = token.strip().upper()
    s = 1
    if ":" in t:
        t, s_str = t.split(":", 1)
        s = int(s_str)
        if s < 1:
            raise ConfigError(f"worker count must be positive in {token!r}")
    try:
        Method(t)
    except ValueError:
        valid = ", ".join(m.value for m in Method)
        raise ConfigError(f"unknown method {token!r} (valid: {valid})") from None
    return t, s


def parse_methods(text: str) -> list[tuple[str, int]]:
    return _distinct([parse_method_spec(tok) for tok in text.split(",") if tok.strip()], "method")


def _parse_int_list(text: str) -> list[int]:
    return _distinct([int(v) for v in text.split(",") if v.strip() != ""], "budget")


@dataclass
class MixtureConfig:
    methods: list = field(default_factory=lambda: [("MC_RANDOM", 1), ("KH_UNIFORM", 1),
                                                   ("WKH", 1), ("SBQ", 1)])
    k: int = 50
    seeds: list = field(default_factory=lambda: [0])
    pool_size: int = 2000
    components: int = 20
    dim: int = 2
    out: str = "out"
    timing: bool = False

    def __post_init__(self):
        if self.k < 1 or self.components < 1 or self.dim < 1:
            raise ConfigError("k, components and dim must be positive")
        if self.pool_size < 2:
            raise ConfigError(f"pool_size must be at least 2, got {self.pool_size}")
        if any(s > self.pool_size for _, s in self.methods):
            raise ConfigError(f"a worker count exceeds pool_size = {self.pool_size}")


@dataclass
class SummarizeConfig:
    methods: list = field(default_factory=lambda: [("WKH", 1), ("SBQ", 1)])
    k_grid: list = field(default_factory=lambda: [10, 25, 50])
    seeds: list = field(default_factory=lambda: [0])
    dataset: str = "blobs"
    n: int = 500
    dim: int = 128
    out: str = "out"
    timing: bool = False

    def __post_init__(self):
        if not self.k_grid or min(self.k_grid) < 1:
            raise ConfigError("k_grid must hold positive sizes")
        if self.n < 1 or self.dim < 1:
            raise ConfigError("n and dim must be positive")
        if any(m == "KH_UNIFORM" for m, _ in self.methods):
            raise ConfigError("summarize supports WKH, SBQ and MC_RANDOM")


# fields whose values are not plain scalars; every other field is cast by
# its annotation, a string under ``from __future__ import annotations``
_FIELD_CASTERS = {
    "methods": parse_methods,
    "seeds": parse_seeds,
    "k_grid": _parse_int_list,
}
_TYPE_CASTERS = {"int": int, "str": str, "bool": _parse_bool}


def build_config(config_cls, mapping: dict) -> object:
    """Validate a raw mapping against one experiment schema."""
    casters = {f.name: _FIELD_CASTERS.get(f.name) or _TYPE_CASTERS[f.type]
               for f in fields(config_cls)}
    kwargs = {}
    unknown = []
    for key, value in mapping.items():
        if key not in casters:
            unknown.append(key)
            continue
        try:
            kwargs[key] = casters[key](value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from None
    if unknown:
        raise ConfigError(f"unknown config keys for {config_cls.__name__}: {sorted(unknown)}")
    cfg = config_cls(**kwargs)
    for m, sm in cfg.methods:
        if sm > 1 and m not in OPTIMAL_WEIGHT_METHODS:
            raise ConfigError(f"method {m} cannot run with {sm} workers (WKH/SBQ only)")
    return cfg

"""Problem and sweep configuration: flat key/value text files, one grammar.

* ``key = value`` pairs, one per line; ``#`` starts a comment. Keys and
  section names are case-insensitive; an unknown key or section, or a key
  given twice in one section, is an error. Any other line, such as the
  first line of a JSON file, is an error naming its line.
* Top of the file: ``utility`` (``power`` or ``log``), ``mu``, ``sigma``,
  ``r``, ``tau``, ``gamma``, ``delta`` and ``x0`` are required; ``alpha`` is
  required for power utility and rejected for log; ``n``, if given, must
  equal the length of ``mu``.
* ``[solver]`` holds no settings: the power solver's tolerances and the
  starting Gauss-Hermite order of ``budget_function`` are constants. Older
  configs may still give ``tol_root`` (1e-10), ``tol_fixed_point`` (1e-10)
  and ``quad_order`` (64), each only at that fixed value; any other value is
  an error, so no config silently changes meaning. They are not stored, and
  ``format_problem_config`` writes no ``[solver]`` section.
* ``[mc]``: ``n_paths`` (100000), ``n_periods`` (an integer or ``auto``, the
  default) and ``seed`` (12345). The Monte Carlo draws every path from one
  stream: a cell's draw depends on ``n_periods`` but not on ``n_paths``.
* ``[sweep]``, in a sweep file: ``parameter`` (``alpha``, ``gamma``, ``tau``,
  ``x0``, ``delta``, ``mu_<i>`` or ``sigma_<i>_<j>``, with indices from 1 in
  ASCII digits), ``grid`` (finite and strictly increasing) and ``outputs``
  (sweep column names; see ``report``).
* Vector values (``mu``, ``sigma``, ``grid``) are whitespace- or
  comma-separated numbers; ``sigma`` is row-major.

The table ``_GRAMMAR`` is the one list of a problem config's keys, each with
its parser: ``parse_problem_config`` walks it to read a config and
``format_problem_config`` to write one, so the two cannot drift apart.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .market import MarketModel
from .power import PowerProblem
from .quadrature import DEFAULT_ORDER

@dataclass(frozen=True)
class ProblemConfig:
    utility: str
    mu: tuple[float, ...]
    sigma: tuple[float, ...]  # row-major, length n*n
    r: float
    tau: float
    gamma: float
    delta: float
    x0: float
    alpha: float | None = None
    n_paths: int = 100_000
    n_periods: int | None = None
    seed: int = 12345

    def __post_init__(self):
        # numpy arrays would make == between configs ambiguous; store tuples
        for name in ("mu", "sigma"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(float(v) for v in value))
        if self.utility not in ("power", "log"):
            raise ConfigError(f"utility must be 'power' or 'log', got {self.utility!r}")
        n = len(self.mu)
        if n < 1:
            raise ConfigError("mu must have at least one entry")
        if len(self.sigma) != n * n:
            raise ConfigError(
                f"sigma must have n*n={n * n} row-major entries, got {len(self.sigma)}"
            )
        if self.utility == "power" and self.alpha is None:
            raise ConfigError("power utility requires alpha")
        if self.utility == "log" and self.alpha is not None:
            raise ConfigError("log utility takes no alpha")

    @property
    def n(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    grid: tuple[float, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        if len(self.grid) < 1:
            raise ConfigError("sweep grid is empty")
        for value in self.grid:  # nan compares false both ways, so it would pass the order test
            if not math.isfinite(value):
                raise ConfigError(f"sweep grid values must be finite, got {value}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        if not self.outputs:
            raise ConfigError("sweep outputs are empty")


def to_market(cfg: ProblemConfig) -> MarketModel:
    sigma = np.asarray(cfg.sigma, dtype=float).reshape(cfg.n, cfg.n)
    return MarketModel(mu=np.asarray(cfg.mu, dtype=float), sigma=sigma, r=cfg.r)


_SWEEP_SCALARS = ("alpha", "gamma", "tau", "x0", "delta")


def apply_sweep_value(cfg: ProblemConfig, parameter: str, value: float) -> ProblemConfig:
    """Return a copy of ``cfg`` with one swept parameter replaced."""
    if parameter in _SWEEP_SCALARS:
        if parameter == "alpha" and cfg.utility != "power":
            raise ConfigError("alpha can only be swept for power utility")
        return dataclasses.replace(cfg, **{parameter: float(value)})
    if parameter.startswith("mu_"):
        i = _index_1based(parameter[3:], cfg.n, parameter)
        mu = list(cfg.mu)
        mu[i - 1] = float(value)
        return dataclasses.replace(cfg, mu=tuple(mu))
    if parameter.startswith("sigma_"):
        indices = parameter[6:].split("_")
        if len(indices) != 2:
            raise ConfigError(f"bad sigma sweep parameter {parameter!r}: expected sigma_<i>_<j>")
        i, j = (_index_1based(index, cfg.n, parameter) for index in indices)
        sigma = list(cfg.sigma)
        sigma[(i - 1) * cfg.n + (j - 1)] = float(value)
        return dataclasses.replace(cfg, sigma=tuple(sigma))
    raise ConfigError(f"unknown sweep parameter {parameter!r}")


def _index_1based(token: str, n: int, parameter: str) -> int:
    # int() alone would also read "1_0", "+3" and non-ASCII digits
    if not (token.isascii() and token.isdigit()):
        raise ConfigError(f"bad index in sweep parameter {parameter!r}")
    i = int(token)
    if not 1 <= i <= n:
        raise ConfigError(f"index out of range in sweep parameter {parameter!r}")
    return i


# ---------------------------------------------------------------------------
# parsing


def _split_sections(text: str) -> dict[str, dict[str, str]]:
    body: dict[str, str] = {}
    sections = {"": body}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            body = sections.setdefault(line[1:-1].strip().lower(), {})
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower()
        if key in body:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        body[key] = value.strip()
    return sections


def _parse_word(raw: str, key: str) -> str:
    return raw.lower()


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_periods(raw: str, key: str) -> int | None:
    return None if raw.lower() == "auto" else _parse_int(raw, key)


def _fixed(parse, value):
    """The parser of a ``[solver]`` key, which accepts only the solver's fixed ``value``."""

    def parse_fixed(raw: str, key: str):
        if parse(raw, key) != value:
            raise ConfigError(f"{key}: the solver fixes it at {value!r}, got {raw!r}")

    return parse_fixed


def _parse_vector(raw: str, key: str) -> tuple[float, ...]:
    tokens = raw.replace(",", " ").split()
    try:
        return tuple(map(float, tokens))
    except ValueError:
        return tuple(_parse_float(tok, key) for tok in tokens)


def _write(value) -> str:
    """The config text of a value, which its key's parser reads back.

    A float, numpy's included, is written as ``repr(float(v))``: the repr of
    a numpy scalar is not a literal the parser reads. A tuple is written
    space-separated and None as ``auto``.
    """
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return " ".join(map(_write, value))
    return "auto" if value is None else str(value)


# The problem-config grammar: each section's keys in the order they are
# parsed, which is the order of their errors, with their parsers. ``n`` is
# checked against the length of ``mu``, and the ``[solver]`` keys against
# their fixed values; neither is stored.
_GRAMMAR = {
    "": {"utility": _parse_word, "mu": _parse_vector, "sigma": _parse_vector}
    | dict.fromkeys(("r", "tau", "gamma", "delta", "x0", "alpha"), _parse_float)
    | {"n": _parse_int},
    "solver": {
        "tol_root": _fixed(_parse_float, PowerProblem.tol_root),
        "tol_fixed_point": _fixed(_parse_float, PowerProblem.tol_fixed_point),
        "quad_order": _fixed(_parse_int, DEFAULT_ORDER),
    },
    "mc": {"n_paths": _parse_int, "n_periods": _parse_periods, "seed": _parse_int},
}
# the keys without a default in ProblemConfig
_REQUIRED = frozenset(f.name for f in dataclasses.fields(ProblemConfig) if f.default is dataclasses.MISSING)


def parse_problem_config(text: str) -> ProblemConfig:
    """Parse a problem configuration, walking the grammar.

    A ``[sweep]`` section is skipped: it lets one file serve as both the
    config and the sweep of ``sweep``.
    """
    sections = _split_sections(text)
    for name in sections:
        if name not in _GRAMMAR and name != "sweep":
            raise ConfigError(f"unknown section [{name}]")
    kwargs = {}
    for section, keys in _GRAMMAR.items():
        body = sections.get(section, {})
        for key, parse in keys.items():
            raw = body.pop(key, None)
            if raw is not None:
                kwargs[key] = parse(raw, key)
            elif key in _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
        n_declared = kwargs.pop("n", None)
        if n_declared is not None and n_declared != len(kwargs["mu"]):
            raise ConfigError(f"declared n={n_declared} but mu has {len(kwargs['mu'])} entries")
        if body:
            raise ConfigError(f"unknown {f'[{section}]' if section else 'top-level'} keys: {sorted(body)}")
    for key in _GRAMMAR["solver"]:
        kwargs.pop(key, None)
    return ProblemConfig(**kwargs)


def format_problem_config(cfg: ProblemConfig) -> str:
    """Serialize a configuration so that parsing it back gives an equal object.

    The keys come in the grammar's order, but ``n`` right after ``utility``;
    an unset ``alpha`` and the fixed ``[solver]`` section are left out.
    """
    lines = []
    for section, keys in _GRAMMAR.items():
        if section == "solver":
            continue
        if section:
            lines.append(f"[{section}]")
        for key in sorted(keys, key=lambda k: k not in ("utility", "n")):
            value = getattr(cfg, key)
            if value is not None or keys[key] is _parse_periods:
                lines.append(f"{key} = {_write(value)}")
        lines.append("")
    return "\n".join(lines)


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse a sweep specification.

    The keys sit in a ``[sweep]`` section, or at the top level of a file
    without one. A file may hold a problem config at the top level and the
    sweep in ``[sweep]``, but a sweep key at the top level of such a file is
    an error: the section would shadow it.
    """
    sections = _split_sections(text)
    section, top = sections.get("sweep", {}), sections.get("", {})
    shadowed = sorted(top.keys() & {"parameter", "grid", "outputs"}) if section else []
    if shadowed:
        raise ConfigError(f"top-level sweep keys {shadowed} are shadowed by the [sweep] section")
    body = dict(section or top)
    for key in ("parameter", "grid", "outputs"):
        if key not in body:
            raise ConfigError(f"sweep is missing key {key!r}")
    parameter = body.pop("parameter")
    grid = _parse_vector(body.pop("grid"), "grid")
    outputs = tuple(body.pop("outputs").replace(",", " ").split())
    if body:
        raise ConfigError(f"unknown sweep keys: {sorted(body)}")
    return SweepSpec(parameter=parameter, grid=grid, outputs=outputs)

"""Problem and sweep configuration: flat key/value text files or JSON.

Text grammar:

* ``key = value`` pairs, one per line; ``#`` starts a comment. Keys and
  section names are case-insensitive; an unknown key or section, or a key
  given twice in one section, is an error.
* Top of the file: ``utility`` (``power`` or ``log``), ``mu``, ``sigma``,
  ``r``, ``tau``, ``gamma``, ``delta`` and ``x0`` are required; ``alpha`` is
  required for power utility and rejected for log; ``n``, if given, must
  equal the length of ``mu``.
* ``[solver]``: ``tol_root`` (default 1e-10), ``tol_fixed_point`` (1e-10) and
  ``quad_order`` (64), the starting Gauss-Hermite order of
  ``budget_function``; the power solver's own sums fix their grid a priori.
* ``[mc]``: ``n_paths`` (100000), ``n_periods`` (an integer or ``auto``, the
  default), ``seed`` (12345) and ``antithetic`` (true/false, default false).
* ``[sweep]``, in a sweep file: ``parameter`` (``alpha``, ``gamma``, ``tau``,
  ``x0``, ``delta``, ``mu_i`` or ``sigma_ij``, indices from 1), ``grid``
  (strictly increasing) and ``outputs`` (sweep column names; see ``report``).
* Vector values (``mu``, ``sigma``, ``grid``) are whitespace- or
  comma-separated; ``sigma`` is row-major. ``grid`` also accepts the range
  shorthand ``start:stop:step``: finite numbers, a positive step, and at
  most 10**5 points.
* A file whose first non-blank character is ``{`` is parsed as JSON with the
  same keys, case-insensitive too (``solver``/``mc``/``sweep`` as nested
  objects). JSON values go through the same grammar as text: each is written
  as the text of its key (an array space-separated, null as ``auto``) and
  parsed as above, so JSON rejects what text rejects, with the same message.
  ``mu``, ``sigma``, ``grid`` and ``outputs`` must be JSON arrays, and their
  entries scalars. An object that repeats a key, once lower-cased, is an
  error.

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
from .market import EvaluationSpec, MarketModel
from .quadrature import check_solver_settings

# points a ``start:stop:step`` range may expand to; the check runs before any is built
_RANGE_POINTS_CAP = 10**5


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
    tol_root: float = 1e-10
    tol_fixed_point: float = 1e-10
    quad_order: int = 64
    n_paths: int = 100_000
    n_periods: int | None = None
    seed: int = 12345
    antithetic: bool = False

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
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        if not self.outputs:
            raise ConfigError("sweep outputs are empty")


def to_market(cfg: ProblemConfig) -> MarketModel:
    sigma = np.asarray(cfg.sigma, dtype=float).reshape(cfg.n, cfg.n)
    return MarketModel(mu=np.asarray(cfg.mu, dtype=float), sigma=sigma, r=cfg.r)


def to_evaluation(cfg: ProblemConfig) -> EvaluationSpec:
    """The evaluation spec of ``cfg``, after checking its solver settings.

    Every solve of a configuration, log or power, builds its evaluation here,
    so a bad ``quad_order``, ``tol_root`` or ``tol_fixed_point`` is rejected
    for both utilities alike.
    """
    check_solver_settings(cfg.quad_order, cfg.tol_root, cfg.tol_fixed_point)
    return EvaluationSpec(tau=cfg.tau, gamma=cfg.gamma, delta=cfg.delta)


_SWEEP_SCALARS = ("alpha", "gamma", "tau", "x0", "delta")


def apply_sweep_value(cfg: ProblemConfig, parameter: str, value: float) -> ProblemConfig:
    """Return a copy of ``cfg`` with one swept parameter replaced.

    A scalar is copied in without ``dataclasses.replace``: the checks of
    ``ProblemConfig.__post_init__`` read only the utility, mu, sigma and
    whether alpha is set, which a scalar sweep of a valid config keeps.
    """
    if parameter in _SWEEP_SCALARS:
        if parameter == "alpha" and cfg.utility != "power":
            raise ConfigError("alpha can only be swept for power utility")
        point = object.__new__(ProblemConfig)
        point.__dict__.update(cfg.__dict__)
        point.__dict__[parameter] = float(value)
        return point
    if parameter.startswith("mu_"):
        i = _index_1based(parameter[3:], cfg.n, parameter)
        mu = list(cfg.mu)
        mu[i - 1] = float(value)
        return dataclasses.replace(cfg, mu=tuple(mu))
    if parameter.startswith("sigma_"):
        suffix = parameter[6:]
        if len(suffix) != 2 or not suffix.isdigit():
            raise ConfigError(f"bad sigma sweep parameter {parameter!r}")
        i = _index_1based(suffix[0], cfg.n, parameter)
        j = _index_1based(suffix[1], cfg.n, parameter)
        sigma = list(cfg.sigma)
        sigma[(i - 1) * cfg.n + (j - 1)] = float(value)
        return dataclasses.replace(cfg, sigma=tuple(sigma))
    raise ConfigError(f"unknown sweep parameter {parameter!r}")


def _index_1based(token: str, n: int, parameter: str) -> int:
    try:
        i = int(token)
    except ValueError:
        raise ConfigError(f"bad index in sweep parameter {parameter!r}") from None
    if not 1 <= i <= n:
        raise ConfigError(f"index out of range in sweep parameter {parameter!r}")
    return i


# ---------------------------------------------------------------------------
# text / JSON parsing


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


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key}: expected true/false, got {raw!r}")


def _parse_vector(raw: str, key: str) -> tuple[float, ...]:
    tokens = raw.replace(",", " ").split()
    if len(tokens) == 1 and ":" in tokens[0]:
        start_s, stop_s, step_s = (tokens[0].split(":") + ["", ""])[:3]
        start = _parse_float(start_s, key)
        stop = _parse_float(stop_s, key)
        step = _parse_float(step_s, key)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ConfigError(f"{key}: range start, stop and step must be finite")
        if step <= 0:
            raise ConfigError(f"{key}: range step must be positive")
        steps = (stop - start) / step  # inf where the quotient overflows
        if not math.isfinite(steps) or round(steps) >= _RANGE_POINTS_CAP:
            raise ConfigError(f"{key}: a range may hold at most {_RANGE_POINTS_CAP} points")
        count = round(steps) + 1
        return tuple(start + k * step for k in range(count) if start + k * step <= stop + 0.5 * step)
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
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return " ".join(map(_write, value))
    return "auto" if value is None else str(value)


# The problem-config grammar: each section's keys in the order they are
# parsed, which is the order of their errors, with their parsers. ``n`` is
# checked against the length of ``mu`` and not stored.
_GRAMMAR = {
    "": {"utility": _parse_word, "mu": _parse_vector, "sigma": _parse_vector}
    | dict.fromkeys(("r", "tau", "gamma", "delta", "x0", "alpha"), _parse_float)
    | {"n": _parse_int},
    "solver": {"tol_root": _parse_float, "tol_fixed_point": _parse_float, "quad_order": _parse_int},
    "mc": {"n_paths": _parse_int, "n_periods": _parse_periods, "seed": _parse_int, "antithetic": _parse_bool},
}
# the keys without a default in ProblemConfig
_REQUIRED = frozenset(f.name for f in dataclasses.fields(ProblemConfig) if f.default is dataclasses.MISSING)


def _read_sections(text: str, kind: str, nested: tuple[str, ...]) -> dict[str, dict[str, str]]:
    """The sections of a text file, or of a JSON object whose ``nested`` keys hold objects."""
    if not text.lstrip().startswith("{"):
        return _split_sections(text)
    import json  # only a JSON file pays for the parser

    try:
        payload = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON {kind}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"JSON {kind} must be an object")
    sections: dict[str, dict[str, str]] = {"": {}}
    for key, value in payload.items():
        if key not in nested:
            sections[""][key] = _json_text(key, value)
        elif value is None or isinstance(value, dict):
            sections[key] = {k: _json_text(k, v) for k, v in (value or {}).items()}
        else:
            raise ConfigError(f"section {key} must be an object")
    return sections


def _json_object(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object with its keys lower-cased, as text keys and section names are."""
    payload = {key.lower(): value for key, value in pairs}
    if len(payload) < len(pairs):
        keys = [key.lower() for key, _ in pairs]
        raise ConfigError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return payload


def _json_text(key: str, value) -> str:
    """The text of ``key = ...`` for a JSON value; the text grammar parses it."""
    if key in ("mu", "sigma", "grid", "outputs"):
        if not isinstance(value, list) or any(isinstance(v, (list, dict)) for v in value):
            raise ConfigError(f"{key}: expected a JSON array of scalars, got {value!r}")
        return " ".join(map(_write, value))
    return _write(value)


def parse_problem_config(text: str) -> ProblemConfig:
    """Parse a problem configuration from text or JSON, walking the grammar."""
    sections = _read_sections(text, "config", ("solver", "mc"))
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
    return ProblemConfig(**kwargs)


def format_problem_config(cfg: ProblemConfig) -> str:
    """Serialize a configuration so that parsing it back gives an equal object.

    The keys come in the grammar's order, but ``n`` right after ``utility``;
    an unset ``alpha`` is left out.
    """
    lines = []
    for section, keys in _GRAMMAR.items():
        if section:
            lines.append(f"[{section}]")
        for key in sorted(keys, key=lambda k: k not in ("utility", "n")):
            value = getattr(cfg, key)
            if value is not None or keys[key] is _parse_periods:
                lines.append(f"{key} = {_write(value)}")
        lines.append("")
    return "\n".join(lines)


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse a sweep specification from text (``[sweep]`` section) or JSON."""
    sections = _read_sections(text, "sweep", ("sweep",))
    body = dict(sections.get("sweep", {}) or sections.get("", {}))
    for key in ("parameter", "grid", "outputs"):
        if key not in body:
            raise ConfigError(f"sweep is missing key {key!r}")
    parameter = body.pop("parameter")
    grid = _parse_vector(body.pop("grid"), "grid")
    outputs = tuple(body.pop("outputs").replace(",", " ").split())
    if body:
        raise ConfigError(f"unknown sweep keys: {sorted(body)}")
    return SweepSpec(parameter=parameter, grid=grid, outputs=outputs)

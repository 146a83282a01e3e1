"""Problem and sweep configuration: flat key/value text files or JSON.

Text grammar:

* ``key = value`` pairs, one per line; ``#`` starts a comment. Keys and
  section names are case-insensitive; an unknown key or section is an error.
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
  same keys (``solver``/``mc``/``sweep`` as nested objects). JSON values go
  through the same grammar as text: each is written as the text of its key
  (an array space-separated, null as ``auto``) and parsed as above, so JSON
  rejects what text rejects, with the same message. ``mu``, ``sigma``,
  ``grid`` and ``outputs`` must be JSON arrays, and their entries scalars.
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
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        sections[current][key.strip().lower()] = value.strip()
    return sections


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
        values = tuple(start + k * step for k in range(count) if start + k * step <= stop + 0.5 * step)
        return values
    try:
        return tuple(map(float, tokens))
    except ValueError:
        return tuple(_parse_float(tok, key) for tok in tokens)


def parse_problem_config(text: str) -> ProblemConfig:
    """Parse a problem configuration from text or JSON."""
    return _config_from_sections(_read_sections(text, "config", ("solver", "mc")))


_JSON_VECTORS = ("mu", "sigma", "grid", "outputs")


def _read_sections(text: str, kind: str, nested: tuple[str, ...]) -> dict[str, dict[str, str]]:
    """The sections of a text file, or of a JSON object whose ``nested`` keys hold objects."""
    if not text.lstrip().startswith("{"):
        return _split_sections(text)
    import json  # only a JSON file pays for the parser

    try:
        payload = json.loads(text)
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


def _json_text(key: str, value) -> str:
    """The text of ``key = ...`` for a JSON value; the text grammar parses it."""
    if key in _JSON_VECTORS:
        if not isinstance(value, list) or any(isinstance(v, (list, dict)) for v in value):
            raise ConfigError(f"{key}: expected a JSON array of scalars, got {value!r}")
        return " ".join(map(_json_scalar, value))
    return _json_scalar(value)


def _json_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "auto"
    return str(value)


def _config_from_sections(sections: dict[str, dict[str, str]]) -> ProblemConfig:
    top = dict(sections.get("", {}))
    solver = dict(sections.get("solver", {}))
    mc = dict(sections.get("mc", {}))
    for name in sections:
        if name not in ("", "solver", "mc", "sweep"):
            raise ConfigError(f"unknown section [{name}]")

    def pop_required(key: str) -> str:
        if key not in top:
            raise ConfigError(f"missing required key {key!r}")
        return top.pop(key)

    utility = pop_required("utility").lower()
    mu = _parse_vector(pop_required("mu"), "mu")
    sigma = _parse_vector(pop_required("sigma"), "sigma")
    kwargs = dict(
        utility=utility,
        mu=mu,
        sigma=sigma,
        r=_parse_float(pop_required("r"), "r"),
        tau=_parse_float(pop_required("tau"), "tau"),
        gamma=_parse_float(pop_required("gamma"), "gamma"),
        delta=_parse_float(pop_required("delta"), "delta"),
        x0=_parse_float(pop_required("x0"), "x0"),
    )
    if "alpha" in top:
        kwargs["alpha"] = _parse_float(top.pop("alpha"), "alpha")
    if "n" in top:
        n_declared = _parse_int(top.pop("n"), "n")
        if n_declared != len(mu):
            raise ConfigError(f"declared n={n_declared} but mu has {len(mu)} entries")
    if top:
        raise ConfigError(f"unknown top-level keys: {sorted(top)}")

    if "tol_root" in solver:
        kwargs["tol_root"] = _parse_float(solver.pop("tol_root"), "tol_root")
    if "tol_fixed_point" in solver:
        kwargs["tol_fixed_point"] = _parse_float(
            solver.pop("tol_fixed_point"), "tol_fixed_point"
        )
    if "quad_order" in solver:
        kwargs["quad_order"] = _parse_int(solver.pop("quad_order"), "quad_order")
    if solver:
        raise ConfigError(f"unknown [solver] keys: {sorted(solver)}")

    if "n_paths" in mc:
        kwargs["n_paths"] = _parse_int(mc.pop("n_paths"), "n_paths")
    if "n_periods" in mc:
        raw = mc.pop("n_periods")
        kwargs["n_periods"] = None if raw.lower() == "auto" else _parse_int(raw, "n_periods")
    if "seed" in mc:
        kwargs["seed"] = _parse_int(mc.pop("seed"), "seed")
    if "antithetic" in mc:
        kwargs["antithetic"] = _parse_bool(mc.pop("antithetic"), "antithetic")
    if mc:
        raise ConfigError(f"unknown [mc] keys: {sorted(mc)}")

    return ProblemConfig(**kwargs)


def format_problem_config(cfg: ProblemConfig) -> str:
    """Serialize a configuration so that parsing it back gives an equal object."""

    def num(v) -> str:  # repr of a numpy scalar is not a literal the parser reads
        return repr(float(v))

    lines = [
        f"utility = {cfg.utility}",
        f"n = {cfg.n}",
        "mu = " + " ".join(num(v) for v in cfg.mu),
        "sigma = " + " ".join(num(v) for v in cfg.sigma),
        f"r = {num(cfg.r)}",
        f"tau = {num(cfg.tau)}",
        f"gamma = {num(cfg.gamma)}",
        f"delta = {num(cfg.delta)}",
        f"x0 = {num(cfg.x0)}",
    ]
    if cfg.alpha is not None:
        lines.append(f"alpha = {num(cfg.alpha)}")
    lines += [
        "",
        "[solver]",
        f"tol_root = {num(cfg.tol_root)}",
        f"tol_fixed_point = {num(cfg.tol_fixed_point)}",
        f"quad_order = {cfg.quad_order}",
        "",
        "[mc]",
        f"n_paths = {cfg.n_paths}",
        f"n_periods = {'auto' if cfg.n_periods is None else cfg.n_periods}",
        f"seed = {cfg.seed}",
        f"antithetic = {'true' if cfg.antithetic else 'false'}",
        "",
    ]
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

"""Flat dotted-key run configuration.

Grammar: one `key = value` pair per line; keys are dotted lowercase
identifiers from KNOWN_KEYS (e.g. ``grid.steps_per_year``); blank lines
and lines starting with ``#`` are ignored.  Values are scalars or
comma-separated lists; ``inf`` is accepted where a threshold may be
unbounded.  Relative file paths resolve against the config file's directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .sde import DEFAULT_STEPS_PER_YEAR, MeasureChange, TimeGrid
from .xva import CsaTerms, PortfolioSpec

_KEY_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789_.")
# Every key a getter reads.  One file may feed several commands, so a key
# that no command reads is the only kind rejected as a typo.
KNOWN_KEYS = frozenset("""
    labels seed checkpoints grid.horizon grid.steps_per_year measure.kind measure.h
    paths.cohort paths.reconstructed paths.params paths.pd_targets
    weights.kind weights.file hist.m hist.w1 hist.w2 hist.bound_lo hist.bound_hi
    hist.max_iter rn.m sim.m sim.m1 sim.m2 ssa.initial xva.m xva.bank_rating
    xva.cpty_rating csa.thresholds_bank csa.thresholds_cpty csa.lgd_bank
    csa.lgd_cpty csa.postings_per_year portfolio.v0 portfolio.n
    portfolio.sigma_scale portfolio.seed""".split())


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse the flat key/value grammar into a string map."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key or not set(key) <= _KEY_CHARS:
            raise ValidationError(f"{source}:{lineno}: invalid key {key!r}")
        if key in out:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


@dataclass
class RunConfig:
    """Typed access to a parsed config."""

    values: dict[str, str]
    base_dir: Path
    source: str = "<config>"

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise OSError(f"cannot read config {path}: {exc}") from exc
        values = parse_config_text(text, str(path))
        unknown = sorted(values.keys() - KNOWN_KEYS)
        if unknown:
            raise ValidationError(f"{path}: unknown key(s) {', '.join(unknown)}; "
                                  "no command reads them")
        return cls(values=values, base_dir=path.parent, source=str(path))

    # -- raw getters ------------------------------------------------------

    def _raw(self, key: str, default=None, required: bool = False) -> str | None:
        if key in self.values:
            return self.values[key]
        if required:
            raise ValidationError(f"{self.source}: missing required key {key!r}")
        return default

    def get_str(self, key: str, default: str | None = None, required: bool = False):
        return self._raw(key, default, required)

    def _parse(self, key: str, default, required: bool, convert, kind: str):
        """The value of `key` through `convert`, or `default` if unset; a
        value `convert` rejects or a NaN names the key."""
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            value = convert(raw)
        except ValueError as exc:
            raise ValidationError(f"{self.source}: {key} must be {kind}, got {raw!r}") from exc
        if np.any(value != value):
            raise ValidationError(f"{self.source}: {key} must not be NaN, got {raw!r}")
        return value

    def get_int(self, key: str, default: int | None = None, required: bool = False):
        return self._parse(key, default, required, int, "an integer")

    def get_count(self, key: str, default: int, least: int) -> int:
        """An integer count of at least `least`."""
        value = self.get_int(key, default)
        if value < least:
            raise ValidationError(f"{self.source}: {key} must be >= {least}, got {value}")
        return value

    def rating(self, key: str, default: int) -> int:
        """A 1-based rating in 1..K."""
        value = self.get_int(key, default)
        if not 1 <= value <= self.k:
            raise ValidationError(f"{self.source}: {key} must be in 1..{self.k}, got {value}")
        return value

    def get_float(self, key: str, default: float | None = None, required: bool = False):
        return self._parse(key, default, required, float, "a number")

    def get_floats(self, key: str, default=None, required: bool = False):
        return self._parse(key, default, required,
                           lambda raw: np.array([float(tok) for tok in raw.split(",")
                                                 if tok.strip() != ""]),
                           "a comma-separated list of numbers")

    def get_path(self, key: str, required: bool = False) -> Path | None:
        raw = self._raw(key, None, required)
        if raw is None:
            return None
        path = Path(raw)
        if not path.is_absolute():
            path = self.base_dir / path
        if not path.is_file():
            raise ValidationError(f"{self.source}: {key} refers to missing file {path}")
        return path

    # -- assembled domain objects -----------------------------------------

    def _build(self, section: str, cls, **fields):
        """cls(**fields) from the keys `section.<field>`.  The classes start
        each error message with the field they reject, so the error is
        raised again naming this file and that field's key."""
        try:
            return cls(**fields)
        except ValidationError as exc:
            field, _, rest = str(exc).partition(" ")
            if field not in fields:
                raise
            raise ValidationError(f"{self.source}: {section}.{field} {rest}") from exc

    def labels(self) -> list[str]:
        raw = self._raw("labels", "A,B,C,D")
        labels = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if len(labels) < 2:
            raise ValidationError(f"{self.source}: need at least 2 rating labels")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"{self.source}: labels must be distinct, got {raw!r}")
        for label in labels:
            # labels name output files such as occupancy_<label>.svg
            if label in (".", "..") or any(ch in label for ch in "/\\\0"):
                raise ValidationError(
                    f"{self.source}: labels must not contain '/', '\\', NUL or be "
                    f"'.' or '..', got {label!r}")
        return labels

    @property
    def k(self) -> int:
        return len(self.labels())

    def seed(self) -> int:
        seed = self.get_int("seed", required=True)
        if seed < 0:
            raise ValidationError(f"{self.source}: seed must be nonnegative")
        return seed

    def grid(self) -> TimeGrid:
        horizon = self.get_float("grid.horizon", 1.0)
        if not math.isfinite(horizon):
            raise ValidationError(f"{self.source}: grid.horizon must be finite, "
                                  f"got {horizon}")
        per_year = self.get_int("grid.steps_per_year", DEFAULT_STEPS_PER_YEAR)
        try:
            steps = round(horizon * per_year)
        except OverflowError as exc:
            raise ValidationError(f"{self.source}: grid.steps_per_year = {per_year} "
                                  "is out of range") from exc
        if steps < 1:
            raise ValidationError(f"{self.source}: grid resolves to zero steps")
        return TimeGrid(horizon=horizon, steps=steps)

    def measure(self) -> MeasureChange:
        h = self.get_floats("measure.h")
        if h is None:
            h = np.ones(self.k)
        if h.size != self.k:
            raise ValidationError(f"{self.source}: measure.h must have {self.k} entries")
        return self._build("measure", MeasureChange,
                           kind=self.get_str("measure.kind", "historical"), h=h)

    def csa_terms(self) -> CsaTerms:
        k = self.k
        big = self.get_floats("csa.thresholds_bank",
                              np.array([10e6, 5e6] + [0.0] * (k - 2)))
        cpty = self.get_floats("csa.thresholds_cpty", big)
        for key, vec in (("csa.thresholds_bank", big), ("csa.thresholds_cpty", cpty)):
            if vec.size != k:
                raise ValidationError(f"{self.source}: {key} needs one threshold per "
                                      f"rating ({k}), got {vec.size}")
        return self._build(
            "csa", CsaTerms,
            thresholds_bank=big,
            thresholds_cpty=cpty,
            lgd_bank=self.get_float("csa.lgd_bank", 0.6),
            lgd_cpty=self.get_float("csa.lgd_cpty", 0.6),
            postings_per_year=self.get_count(
                "csa.postings_per_year",
                self.get_int("grid.steps_per_year", DEFAULT_STEPS_PER_YEAR), 1),
        )

    def portfolio(self) -> PortfolioSpec:
        return self._build(
            "portfolio", PortfolioSpec,
            v0=self.get_float("portfolio.v0", 0.0),
            n=self.get_count("portfolio.n", 24, 0),
            sigma_scale=self.get_float("portfolio.sigma_scale", 10.0),
            seed=self.get_int("portfolio.seed", 0),
        )

    def checkpoints(self) -> np.ndarray:
        grid = self.grid()
        horizon = grid.horizon
        # the default keeps the times within the horizon and on the grid
        default = np.array([t for t in (1 / 12, 0.25, 0.5, 1.0)
                            if t <= horizon + 1e-12 and grid.has_point(t)] or [horizon])
        pts = self.get_floats("checkpoints", default)
        if not (pts.size and np.isfinite(pts).all() and np.all(pts > 0)
                and np.all(pts <= horizon + 1e-12)):
            raise ValidationError(f"{self.source}: checkpoints must list times in "
                                  f"(0, horizon], got {pts.tolist()}")
        if np.any(np.diff(pts) <= 0):
            raise ValidationError(f"{self.source}: checkpoints must be strictly "
                                  f"increasing, got {pts.tolist()}")
        off = [t for t in pts.tolist() if not grid.has_point(t)]
        if off:
            raise ValidationError(f"{self.source}: checkpoints must lie on the grid "
                                  f"(dt={grid.dt}), got {off}")
        return pts

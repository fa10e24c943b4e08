"""Declarative sweep specifications for design-space exploration.

A :class:`SweepSpec` names an ordered grid of **axes** — platform x
mapping family x shedding policy x KV pool size x workload shape — plus
the sweep-level serving knobs shared by every point (arrival rate,
horizon, deadline, queue bound).  :meth:`SweepSpec.points` expands the
grid into an ordered list of :class:`SweepPoint`\\ s: the point index is
the position in the cartesian product taken in **axis declaration
order**, so the expansion is a pure function of the spec and never
depends on worker count, completion order, or hash salts.

Identity and reproducibility:

* ``config_hash`` — :func:`repro.telemetry.bench.hash_config` over the
  point's fully-resolved config dict (axes values + sweep knobs +
  applied overrides).  Two points with equal configs are an error: the
  hash is the resume/repro key.
* ``seed`` — derived per point by :func:`derive_point_seed` from the
  sweep seed and the point index, so every point runs on its own RNG
  substream and a single point can be re-run standalone with
  ``repro-facil dse --only <config_hash> --point-seed <seed>``.

**Overrides** patch sweep-level knobs for the subset of points whose
axis coordinates match: ``(("mapping", "soc-only"),)`` -> ``(("qps",
1.0),)`` gives the SoC-only family its own arrival rate.  Only the
knobs in :data:`OVERRIDABLE` may be patched — axis values are identity,
not tuning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.engine.policies import POLICIES
from repro.platforms.specs import ALL_PLATFORMS
from repro.serving.queue import SHED_POLICIES
from repro.telemetry.bench import hash_config

__all__ = [
    "AXIS_ORDER",
    "OVERRIDABLE",
    "PLATFORM_NAMES",
    "WORKLOADS",
    "SweepPoint",
    "SweepSpec",
    "default_sweep",
    "derive_point_seed",
    "parse_axis_overrides",
]

PLATFORM_NAMES: Tuple[str, ...] = tuple(p.name for p in ALL_PLATFORMS)

#: Workload shapes: a named bundle of dataset + conversation behavior.
#: (Insertion order is the axis-domain order — dicts are ordered.)
WORKLOADS: Dict[str, Dict[str, object]] = {
    "chat": {
        "dataset": "alpaca-like",
        "mean_turns": 1.0,
        "think_time_ms": 2000.0,
    },
    "autocomplete": {
        "dataset": "humaneval-autocomplete-like",
        "mean_turns": 1.0,
        "think_time_ms": 2000.0,
    },
    "multiturn-chat": {
        "dataset": "alpaca-like",
        "mean_turns": 3.0,
        "think_time_ms": 1500.0,
    },
    # repro.workloads shapes: a "kind" key switches the evaluator onto a
    # workload's decode (absent = chat serving, so the three entries
    # above keep their exact configs and hashes)
    "speculative": {
        "dataset": "alpaca-like",
        "mean_turns": 1.0,
        "think_time_ms": 2000.0,
        "kind": "speculative",
        "gamma": 4,
        "acceptance_rate": 0.8,
    },
    "moe": {
        "dataset": "alpaca-like",
        "mean_turns": 1.0,
        "think_time_ms": 2000.0,
        "kind": "moe",
        "n_experts": 8,
        "experts_per_token": 2,
        "resident_experts": 4,
    },
    "coresident": {
        "dataset": "alpaca-like",
        "mean_turns": 1.0,
        "think_time_ms": 2000.0,
        "kind": "coresident",
        "secondary_share": 0.5,
    },
}

#: Canonical axis order; the cartesian product (and therefore every
#: point index) walks the axes in this order.
AXIS_ORDER: Tuple[str, ...] = (
    "platform", "mapping", "shed", "kv_blocks", "workload",
)

#: Closed axis domains (``kv_blocks`` is any non-negative int).
_AXIS_DOMAINS: Dict[str, Tuple[object, ...]] = {
    "platform": PLATFORM_NAMES,
    "mapping": POLICIES,
    "shed": SHED_POLICIES,
    "workload": tuple(WORKLOADS),
}

#: Default value of each axis when a sweep does not declare it.
_AXIS_DEFAULTS: Dict[str, object] = {
    "platform": "jetson-agx-orin",
    "mapping": "facil",
    "shed": "reject",
    "kv_blocks": 0,
    "workload": "chat",
}

#: Sweep-level knobs an override may patch per point.
OVERRIDABLE: Tuple[str, ...] = (
    "duration_ms", "qps", "deadline_ms", "queue_capacity",
    "block_tokens", "mean_turns", "think_time_ms",
    # repro.workloads knobs (no-ops for plain-chat workload shapes)
    "gamma", "acceptance_rate",
    "n_experts", "experts_per_token", "resident_experts",
    "secondary_share",
)

#: Seed-substream constants (distinct from the fleet's, so a DSE point
#: never shares a stream with a fleet device at the same base seed).
_SEED_MUL = 2_000_003
_SEED_STEP = 104_729


def derive_point_seed(sweep_seed: int, point_index: int) -> int:
    """Deterministic per-point RNG substream seed."""
    if point_index < 0:
        raise ValueError("point_index must be non-negative")
    return sweep_seed * _SEED_MUL + _SEED_STEP * (point_index + 1)


def _validate_axis(name: str, values: Sequence[object]) -> Tuple[object, ...]:
    if not values:
        raise ValueError(f"axis {name!r} has no values")
    if len(set(map(str, values))) != len(values):
        raise ValueError(f"axis {name!r} repeats a value: {values!r}")
    if name == "kv_blocks":
        out: List[object] = []
        for v in values:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(
                    f"axis 'kv_blocks' values must be non-negative ints "
                    f"(got {v!r})"
                )
            out.append(v)
        return tuple(out)
    domain = _AXIS_DOMAINS.get(name)
    if domain is None:
        known = ", ".join(AXIS_ORDER)
        raise ValueError(f"unknown axis {name!r}; known: {known}")
    for v in values:
        if v not in domain:
            raise ValueError(
                f"axis {name!r} value {v!r} not in domain {domain!r}"
            )
    return tuple(values)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved grid point of a sweep."""

    index: int
    coords: Tuple[Tuple[str, object], ...]
    config: Dict[str, object]
    config_hash: str
    seed: int

    def coord(self, axis: str) -> object:
        for name, value in self.coords:
            if name == axis:
                return value
        raise KeyError(axis)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid over the serving simulator's design space."""

    seed: int = 0
    duration_ms: float = 8000.0
    qps: float = 2.0
    deadline_ms: float = 10_000.0
    queue_capacity: int = 8
    block_tokens: int = 16
    #: ordered ``(axis, values)`` pairs; product order == declaration order
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    #: ``(match, patch)`` pairs: when every ``(axis, value)`` in *match*
    #: equals the point's coordinates, apply the ``(knob, value)``
    #: pairs in *patch*
    overrides: Tuple[
        Tuple[Tuple[Tuple[str, object], ...], Tuple[Tuple[str, object], ...]],
        ...,
    ] = ()

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.qps <= 0:
            raise ValueError("qps must be positive")
        if self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        seen = []
        validated = []
        for name, values in self.axes:
            if name in seen:
                raise ValueError(f"axis {name!r} declared twice")
            seen.append(name)
            validated.append((name, _validate_axis(name, values)))
        object.__setattr__(self, "axes", tuple(validated))
        for match, patch in self.overrides:
            for axis, _ in match:
                if axis not in seen:
                    raise ValueError(
                        f"override matches on {axis!r}, which is not a "
                        f"declared axis"
                    )
            for knob, _ in patch:
                if knob not in OVERRIDABLE:
                    raise ValueError(
                        f"override patches {knob!r}; only {OVERRIDABLE} "
                        f"may be patched per point"
                    )

    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    def base_config(self) -> Dict[str, object]:
        """Sweep-level knobs shared by every point (pre-override)."""
        return {
            "duration_ms": self.duration_ms,
            "qps": self.qps,
            "deadline_ms": self.deadline_ms,
            "queue_capacity": self.queue_capacity,
            "block_tokens": self.block_tokens,
        }

    def spec_config(self) -> Dict[str, object]:
        """The whole spec as a JSON-stable dict (hashed into the sweep's
        own ``config_hash``)."""
        config = self.base_config()
        config["axes"] = {name: list(values) for name, values in self.axes}
        config["overrides"] = [
            {
                "match": {axis: value for axis, value in match},
                "patch": {knob: value for knob, value in patch},
            }
            for match, patch in self.overrides
        ]
        return config

    def points(self) -> List[SweepPoint]:
        """Expand the grid, in axis-declaration product order."""
        names = [name for name, _ in self.axes]
        domains = [values for _, values in self.axes]
        points: List[SweepPoint] = []
        by_hash: Dict[str, int] = {}
        for index, combo in enumerate(itertools.product(*domains)):
            coords = tuple(zip(names, combo))
            config = self.base_config()
            for name, value in coords:
                config[name] = value
            for absent in AXIS_ORDER:
                # Non-swept axes still need a value for the evaluator.
                if absent not in config:
                    config[absent] = _AXIS_DEFAULTS[absent]
            for match, patch in self.overrides:
                if all(config.get(axis) == value for axis, value in match):
                    for knob, value in patch:
                        config[knob] = value
            digest = hash_config(config)
            if digest in by_hash:
                raise ValueError(
                    f"points {by_hash[digest]} and {index} resolve to the "
                    f"same config (hash {digest}); the sweep grid is "
                    f"degenerate"
                )
            by_hash[digest] = index
            points.append(
                SweepPoint(
                    index=index,
                    coords=coords,
                    config=config,
                    config_hash=digest,
                    seed=derive_point_seed(self.seed, index),
                )
            )
        return points


def default_sweep(seed: int = 0, **knobs: object) -> SweepSpec:
    """The stock exploration grid: 4 platforms x 4 mapping families x
    2 shed policies x 2 KV pool sizes x 2 workload shapes = 128 points.
    """
    return SweepSpec(
        seed=seed,
        axes=(
            ("platform", PLATFORM_NAMES),
            ("mapping", POLICIES),
            ("shed", ("reject", "degrade")),
            ("kv_blocks", (0, 256)),
            ("workload", ("chat", "multiturn-chat")),
        ),
        **knobs,  # type: ignore[arg-type]
    )


def parse_axis_overrides(specs: Sequence[str]) -> List[Tuple[str, Tuple[object, ...]]]:
    """Parse CLI ``--axes name=v1,v2`` strings into axis pairs."""
    axes: List[Tuple[str, Tuple[object, ...]]] = []
    for text in specs:
        name, sep, raw = text.partition("=")
        name = name.strip()
        if not sep or not raw.strip():
            raise ValueError(
                f"bad axis spec {text!r}; expected name=value[,value...]"
            )
        tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if name == "kv_blocks":
            try:
                values: Tuple[object, ...] = tuple(int(tok) for tok in tokens)
            except ValueError:
                raise ValueError(
                    f"axis 'kv_blocks' takes integers (got {raw!r})"
                )
        else:
            values = tuple(tokens)
        axes.append((name, _validate_axis(name, values)))
    return axes

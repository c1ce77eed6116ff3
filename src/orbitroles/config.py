"""Dataclass configuration for the pipeline, loadable from INI files.

One file carries every knob (sections per stage); command-line flags win
over file values. The resolved configuration is stored verbatim in the
run manifest so reruns are reproducible.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field

from .embeddings import DEFAULT_ROLX_RANK
from .graphlets import ORBIT_COUNT


@dataclass
class EmbedConfig:
    methods: tuple = ("graphwave", "rolx")
    graphwave_scales: tuple = (0.5, 1.5)
    sample_points: int = 32
    t_max: float = 100.0
    kernel: str = "exact"
    chebyshev_order: int = 30
    rolx_rank: int = DEFAULT_ROLX_RANK
    refex_depth: int = 2
    import_paths: tuple = ()


@dataclass
class ClusterConfig:
    k_min: int = 2
    k_max: int = 19
    chosen_k: int = 3
    sample_cap: int = 20000


@dataclass
class ExplainConfig:
    method: str = "graphwave"
    trees: int = 200
    importance_repeats: int = 5
    ale_bins: int = 32
    effect_orbits: tuple = (0, 17, 27)
    effect_kind: str = "ALE"
    keep_roles: tuple = ()


@dataclass
class IdrConfig:
    direction: str = "citing"
    distance: str = "uniform"
    bins: int = 10
    min_per_role: int = 50
    pair_counting: str = "ordered"


@dataclass
class PipelineConfig:
    seed: int = 0
    threads: int | None = None
    drop_orbit0: bool = False
    memory_budget_mb: float = 4096.0
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)
    idr: IdrConfig = field(default_factory=IdrConfig)

    def to_dict(self) -> dict:
        return asdict(self)


def effect_orbit_problems(orbits) -> list:
    """The range problem of effect orbits outside 0..72, if any."""
    bad = [o for o in orbits if not 0 <= o < ORBIT_COUNT]
    return [f"explain.effect_orbits {bad} outside 0..{ORBIT_COUNT - 1}"] if bad else []


def validate_config(cfg: PipelineConfig) -> None:
    """Reject settings that would only fail in a later stage.

    Only checks that need no input data: an imported embedding's method
    tag, for one, is known once its file is read, so ``explain.method`` is
    checked here only when nothing is imported.
    """
    problems = []
    if not cfg.embed.import_paths and cfg.explain.method not in cfg.embed.methods:
        problems.append(
            f"explain.method {cfg.explain.method!r} not among embed.methods "
            f"{list(cfg.embed.methods)}"
        )
    problems += effect_orbit_problems(cfg.explain.effect_orbits)
    c = cfg.cluster
    if not c.k_min <= c.chosen_k <= c.k_max:
        problems.append(f"cluster.chosen_k {c.chosen_k} outside [{c.k_min}, {c.k_max}]")
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))


def config_from_dict(data: dict) -> PipelineConfig:
    """Rebuild a PipelineConfig from a manifest's parameter dict."""
    cfg = PipelineConfig()
    for key in ("seed", "threads", "drop_orbit0", "memory_budget_mb"):
        if key in data:
            setattr(cfg, key, data[key])
    for name, sub in (
        ("embed", cfg.embed),
        ("cluster", cfg.cluster),
        ("explain", cfg.explain),
        ("idr", cfg.idr),
    ):
        for key, value in data.get(name, {}).items():
            if hasattr(sub, key):
                if isinstance(getattr(sub, key), tuple) and isinstance(value, list):
                    value = tuple(value)
                setattr(sub, key, value)
    return cfg


def _parse_tuple(raw, cast):
    items = [p.strip() for p in raw.replace(";", ",").split(",")]
    return tuple(cast(p) for p in items if p)


def _apply(section, obj, casts):
    for key, raw in section.items():
        if not hasattr(obj, key):
            raise ValueError(f"unknown config key {key!r} in [{section.name}]")
        cast = casts.get(key, str)
        setattr(obj, key, cast(raw))


def _bool(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


def load_config(path=None) -> PipelineConfig:
    """Read an INI config; missing file sections keep their defaults."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    if parser.has_section("pipeline"):
        _apply(
            parser["pipeline"],
            cfg,
            {
                "seed": int,
                "threads": int,
                "drop_orbit0": _bool,
                "memory_budget_mb": float,
            },
        )
    if parser.has_section("embed"):
        _apply(
            parser["embed"],
            cfg.embed,
            {
                "methods": lambda r: _parse_tuple(r, str),
                "graphwave_scales": lambda r: _parse_tuple(r, float),
                "sample_points": int,
                "t_max": float,
                "kernel": str,
                "chebyshev_order": int,
                "rolx_rank": int,
                "refex_depth": int,
                "import_paths": lambda r: _parse_tuple(r, str),
            },
        )
    if parser.has_section("cluster"):
        _apply(
            parser["cluster"],
            cfg.cluster,
            {"k_min": int, "k_max": int, "chosen_k": int, "sample_cap": int},
        )
    if parser.has_section("explain"):
        _apply(
            parser["explain"],
            cfg.explain,
            {
                "method": str,
                "trees": int,
                "importance_repeats": int,
                "ale_bins": int,
                "effect_orbits": lambda r: _parse_tuple(r, int),
                "effect_kind": str,
                "keep_roles": lambda r: _parse_tuple(r, int),
            },
        )
    if parser.has_section("idr"):
        _apply(
            parser["idr"],
            cfg.idr,
            {
                "direction": str,
                "distance": str,
                "bins": int,
                "min_per_role": int,
                "pair_counting": str,
            },
        )
    return cfg

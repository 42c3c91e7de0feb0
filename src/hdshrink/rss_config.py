"""Flat key-value config parsing for the sensor-data experiment."""

from __future__ import annotations

from .errors import ConfigError
from .rss import RssExperimentConfig
from .shrinkers import PriorSpec
from .simulate import parse_config_text

RSS_CONFIG_KEYS = {
    "n": int,
    "resamples": int,
    "detrend": str,
    "window": int,
    "seed": int,
    "methods": "methods",
    "prior.mode": str,
    "prior.scale": float,
    "tyler_rho": float,
    "lappw_grid_points": int,
}


def rss_config_from_text(text: str) -> RssExperimentConfig:
    kwargs = {}
    prior_mode, prior_scale = "covariance_matched", 1.0
    for key, value in parse_config_text(text, RSS_CONFIG_KEYS).items():
        kind = RSS_CONFIG_KEYS[key]
        try:
            if key == "prior.mode":
                prior_mode = value
            elif key == "prior.scale":
                prior_scale = float(value)
            elif kind == "methods":
                kwargs["methods"] = tuple(
                    m.strip() for m in value.split(",") if m.strip()
                )
            else:
                kwargs[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    kwargs["prior"] = PriorSpec(mode=prior_mode, scale=prior_scale)
    return RssExperimentConfig(**kwargs)


def load_rss_config(path) -> RssExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return rss_config_from_text(fh.read())

"""Flat key-value config parsing for the sensor-data experiment."""

from __future__ import annotations

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
    kwargs = parse_config_text(text, RSS_CONFIG_KEYS)
    mode = kwargs.pop("prior.mode", "covariance_matched")
    scale = kwargs.pop("prior.scale", 1.0)
    return RssExperimentConfig(prior=PriorSpec(mode, scale), **kwargs)


def load_rss_config(path) -> RssExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return rss_config_from_text(fh.read())
